//! `run`, `trace` and `agree`: every workload in a child process of its own
//! (so that `peak_rss_mb` is that workload's alone), gathered into one
//! stamped report.

use std::process::{Command, Stdio};

use serde::Value;

use crate::metrics::{self, Metric, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::workloads::{Spec, RUN_SECONDS, SPECS};
use crate::Args;

/// What one child process reported.
#[derive(Debug)]
struct Child {
    spec: &'static Spec,
    attempted: u64,
    failed: u64,
    /// In the order of the metric table.
    values: Vec<f64>,
}

/// Runs one workload in a child process and parses its result line.
fn child(args: &Args, spec: &'static Spec, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: cannot start child: {e}", spec.name))?;
    if !output.status.success() {
        return Err(format!(
            "{}: child exited with {}",
            spec.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result =
        serde::json::parse(line).map_err(|e| format!("{}: bad result line: {e}", spec.name))?;
    let field = |key: &str| result.get(key).and_then(Value::as_u64);
    let table: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    let values = table
        .iter()
        .map(|m| {
            result
                .get("metrics")
                .and_then(|all| all.get(m.name))
                .and_then(|entry| entry.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{}: result has no {}", spec.name, m.name))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(Child {
        spec,
        attempted: field("attempted").ok_or("result has no attempted")?,
        failed: field("failed").ok_or("result has no failed")?,
        values,
    })
}

/// Every selected workload, one after the other.
fn children(args: &Args, trace: bool) -> Result<Vec<Child>, String> {
    SPECS
        .iter()
        .filter(|spec| args.workload.is_none_or(|chosen| chosen.name == spec.name))
        .map(|spec| child(args, spec, trace))
        .collect()
}

/// The commit checked out in the nearest `.git` above the working directory.
fn git_commit() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    let git = loop {
        let candidate = dir.join(".git");
        if candidate.is_dir() {
            break candidate;
        }
        if !dir.pop() {
            return None;
        }
    };
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|line| line.strip_suffix(reference).map(|c| c.trim().to_string()))
}

/// Where and on what the numbers were taken.
fn provenance(args: &Args) -> Vec<(String, Value)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    vec![
        ("benchmark".to_string(), Value::Str("octocache".to_string())),
        ("seed".to_string(), Value::U64(args.seed)),
        ("seconds".to_string(), Value::F64(args.seconds)),
        (
            "commit".to_string(),
            Value::Str(git_commit().unwrap_or_else(|| "unknown".to_string())),
        ),
        ("nproc".to_string(), Value::U64(nproc)),
        ("cpu".to_string(), Value::Str(cpu)),
        ("rustc".to_string(), Value::Str(rustc)),
    ]
}

/// One aligned table: a row per metric, a column per workload. A figure
/// taken on a probe, not on the workload's own traffic, is starred.
fn print_table(table: &[Metric], runs: &[Child]) {
    print!("{:34} {:6}", "metric", "unit");
    for run in runs {
        print!(" {:>16} ", run.spec.name);
    }
    println!();
    let mut probed = false;
    for (i, metric) in table.iter().enumerate() {
        print!("{:34} {:6}", metric.name, metric.unit);
        for run in runs {
            let probe = metric.source(run.spec) == "probe";
            probed |= probe;
            print!(" {:>16.4}{}", run.values[i], if probe { '*' } else { ' ' });
        }
        println!();
    }
    for (label, pick) in [
        ("attempted", (|r: &Child| r.attempted) as fn(&Child) -> u64),
        ("failed", |r: &Child| r.failed),
    ] {
        print!("{label:34} {:6}", "count");
        for run in runs {
            print!(" {:>16} ", pick(run));
        }
        println!();
    }
    if probed {
        println!(
            "* not this workload's traffic: a probe of its scans with a reader and planners added"
        );
    }
}

/// `benchmark run` and `benchmark trace`: the table, then the whole report
/// as one JSON document.
pub fn report(args: &Args, trace: bool) -> Result<(), String> {
    let table: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    let runs = children(args, trace)?;
    print_table(table, &runs);
    let workloads = runs
        .iter()
        .map(|run| {
            // Only a traced report has figures that are not the workload's own.
            let metrics = metrics::to_json(
                table.iter().zip(run.values.iter().copied()),
                trace.then_some(run.spec),
            );
            Value::Map(vec![
                ("name".to_string(), Value::Str(run.spec.name.to_string())),
                ("why".to_string(), Value::Str(run.spec.why.to_string())),
                ("params".to_string(), Value::Str(run.spec.describe())),
                ("correct".to_string(), Value::Bool(true)),
                ("attempted".to_string(), Value::U64(run.attempted)),
                ("failed".to_string(), Value::U64(run.failed)),
                ("metrics".to_string(), metrics),
            ])
        })
        .collect();
    let mut document = provenance(args);
    document.push(("traced".to_string(), Value::Bool(trace)));
    document.push(("workloads".to_string(), Value::Seq(workloads)));
    // This benchmark measures; it claims no gain.
    document.push(("claim".to_string(), Value::Null));
    println!("{}", serde::json::to_string(&Value::Map(document)));
    if runs.iter().any(|run| run.failed > 0) {
        return Err("operations failed".to_string());
    }
    Ok(())
}

/// The text of `BENCHMARK.json`: the benchmark's contract with its driver,
/// written from the same tables the runs report from.
pub fn manifest() -> String {
    fn text(s: &str) -> String {
        serde::json::to_string(&Value::Str(s.to_string()))
    }
    let workloads: Vec<String> = SPECS
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                text(s.name),
                text(s.why)
            )
        })
        .collect();
    let metric = |m: &Metric| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            text(m.name),
            text(m.unit),
            text(m.better.as_str())
        )
    };
    let end_to_end: Vec<String> = END_TO_END.iter().map(metric).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(metric).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Runs per set of `benchmark agree`. Single runs of identical code land up
/// to 30 % apart on the box this was sized on (README.md, "Warm-up, means and
/// noise"), which the bounds are not meant to cover; medians of three do not.
const AGREE_RUNS: usize = 3;

/// `benchmark agree`: two sets of end-to-end runs of the same code, taken
/// alternately so that both see the same minutes; every metric's median over
/// the second set must be within its bound of the first's.
pub fn agree(args: &Args) -> Result<(), String> {
    let mut sets = [Vec::new(), Vec::new()];
    for _ in 0..AGREE_RUNS {
        for set in &mut sets {
            set.push(children(args, false)?);
        }
    }
    let median_of = |set: &[Vec<Child>], workload: usize, metric: usize| {
        let values: Vec<f64> = set.iter().map(|run| run[workload].values[metric]).collect();
        median(&values)
    };
    println!(
        "{:16} {:24} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "set A", "set B", "worse", "bound"
    );
    let mut disagreements = 0;
    for (w, child) in sets[0][0].iter().enumerate() {
        for (i, metric) in END_TO_END.iter().enumerate() {
            let bound = metric.bound.expect("end-to-end metrics have bounds");
            let (a, b) = (median_of(&sets[0], w, i), median_of(&sets[1], w, i));
            let worse = metric.worsening(a, b);
            let verdict = if worse <= bound { "ok" } else { "WORSE" };
            disagreements += usize::from(worse > bound);
            println!(
                "{:16} {:24} {a:>12.4} {b:>12.4} {:>7.1}% {:>5.0}%  {verdict}",
                child.spec.name,
                metric.name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    if disagreements > 0 {
        return Err(format!(
            "{disagreements} metric(s) of the second set are worse than the first beyond their bound"
        ));
    }
    Ok(())
}
