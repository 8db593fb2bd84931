//! `sweep [--scale S] [--out PATH] [--list] [RUN…]` — the one evaluation
//! binary: expands the selected runs (all, when none is named) into their
//! distinct points, measures each once, checks every construction point's
//! map against its OctoMap baseline, and prints each run's table followed
//! by the paper's expectation. `--out` also writes the points as one
//! commit-stamped JSON. A map that differs from its baseline exits 1.

use std::process::{Command, ExitCode};
use std::time::Instant;

use octocache_bench::print_table;
use octocache_bench::runs::{measure, plan, smoke, Run, RUNS};

fn git(args: &[&str]) -> String {
    let output = Command::new("git").args(args).output();
    output.map_or(String::new(), |o| {
        String::from_utf8_lossy(&o.stdout).trim().to_string()
    })
}

fn fail(code: u8, message: &str) -> ExitCode {
    eprintln!("error: {message}");
    if code == 2 {
        eprintln!("usage: sweep [--scale S] [--out PATH] [--list] [RUN…]");
    }
    ExitCode::from(code)
}

fn main() -> ExitCode {
    let mut scale = 0.25;
    let mut out: Option<String> = None;
    let mut selected: Vec<&Run> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                for run in RUNS {
                    println!("{:<8} {}", run.name, run.title);
                }
                return ExitCode::SUCCESS;
            }
            "--scale" => match args.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(s) if s > 0.0 && s <= 4.0 => scale = s,
                _ => return fail(2, "--scale takes a number in (0, 4]"),
            },
            "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => return fail(2, "--out takes a path"),
            },
            name => match RUNS.iter().find(|run| run.name == name) {
                Some(run) => selected.push(run),
                None => return fail(2, &format!("unknown run {name} (see --list)")),
            },
        }
    }
    if selected.is_empty() {
        selected = RUNS.iter().collect();
    }

    let started = Instant::now();
    if let Err(e) = smoke() {
        return fail(1, &e);
    }
    let plan = plan(&selected);
    let mut done = 0;
    let points = measure(&plan, scale, |point| {
        done += 1;
        eprintln!("[{done}/{}] {:?} {:?}", plan.len(), point.kind, point.axes);
    });
    if let Err(e) = points.verify() {
        return fail(1, &e);
    }

    let commit = git(&["rev-parse", "HEAD"]);
    let dirty = !git(&["status", "--porcelain"]).is_empty();
    println!(
        "# sweep @ {commit}{} scale={scale} cores={}: {} points measured once, every map \
         verified, {:.0} s",
        if dirty { "+dirty" } else { "" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        plan.len(),
        started.elapsed().as_secs_f64()
    );
    for run in &selected {
        let columns: Vec<&str> = run.columns.split_whitespace().collect();
        let title = format!("{}: {}", run.name, run.title);
        print_table(&title, &columns, &points.table(run));
        println!("paper: {}", run.paper);
    }
    if let Some(path) = out {
        let json = serde::json::to_string(&points.document(&commit, dirty, scale, &selected));
        if let Err(e) = std::fs::write(&path, json) {
            return fail(1, &format!("cannot write {path}: {e}"));
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}
