//! The OctoCache benchmark. See README.md next to this package.

mod layers;
mod measure;
mod metrics;
mod spans;
mod stats;
mod suite;
#[cfg(test)]
mod tests;
mod trace;
mod verify;
mod workloads;

use std::process::ExitCode;

use serde::Value;

use crate::measure::Outcome;
use crate::workloads::{Spec, DEFAULT_SEED, RUN_SECONDS};

const USAGE: &str = "usage:
  benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
      one workload in this process; the last line of stdout is the result
  benchmark run   [--workload <name>] [--seed <n>] [--seconds <s>]
      end-to-end metrics of every workload, one child process each
  benchmark trace [--workload <name>] [--seed <n>] [--seconds <s>]
      per-layer metrics of every workload, one child process each
  benchmark agree [--workload <name>] [--seed <n>] [--seconds <s>]
      two sets of three `run`s, alternating; fails if the second set's median
      is worse than the first's beyond a metric's bound
  benchmark goldens
      prints goldens.json: plain OctoMap's result for the default and the claim seed
  benchmark manifest
      prints BENCHMARK.json
workloads: corridor_hot campus_miss campus_baseline campus_parallel college_readers mission_cycle";

/// The command line, after parsing.
#[derive(Debug)]
pub struct Args {
    command: Option<String>,
    pub workload: Option<&'static Spec>,
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            if parsed.command.replace(arg.clone()).is_some() {
                return Err(format!("unexpected argument {arg}"));
            }
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
        let bad = || format!("{arg}: bad value {value}");
        match arg.as_str() {
            "--workload" => parsed.workload = Some(workloads::spec(value).ok_or_else(bad)?),
            "--seed" => {
                parsed.seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|_| bad())?;
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 60.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown option {arg}")),
        }
    }
    Ok(parsed)
}

/// The contract's result object: the last line of a single-workload run.
fn result_line(outcome: &Outcome) -> String {
    let metrics = metrics::to_json(outcome.metrics.iter().map(|(m, v)| (m, *v)), None);
    serde::json::to_string(&Value::Map(vec![
        ("correct".to_string(), Value::Bool(true)),
        ("attempted".to_string(), Value::U64(outcome.attempted)),
        ("failed".to_string(), Value::U64(outcome.failed)),
        ("metrics".to_string(), metrics),
    ]))
}

fn run(args: &Args) -> Result<(), String> {
    match args.command.as_deref() {
        None => {
            let spec = args.workload.ok_or("--workload is required")?;
            // Anything wrong — a workload property gone, a map that differs
            // from the reference — is an error: no result line, exit code 1.
            let outcome = if args.trace {
                trace::traced(spec, args.seed, args.seconds, None)?
            } else {
                measure::end_to_end(spec, args.seed, args.seconds, None)?
            };
            println!("{}", result_line(&outcome));
            Ok(())
        }
        Some("run") => suite::report(args, false),
        Some("trace") => suite::report(args, true),
        Some("agree") => suite::agree(args),
        Some("goldens") => {
            print!("{}", verify::goldens());
            Ok(())
        }
        Some("manifest") => {
            print!("{}", suite::manifest());
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv)
        .map_err(|e| format!("{e}\n{USAGE}"))
        .and_then(|args| run(&args));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
