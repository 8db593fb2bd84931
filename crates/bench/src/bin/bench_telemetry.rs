//! Telemetry companion to Figure 22: one recorded construction run per
//! dataset × backend, summarised into per-phase latency percentiles, cache
//! hit ratios and octree locality counters.
//!
//! Writes `BENCH_telemetry.json` (path overridable as the first argument):
//! a JSON array with one [`TraceSummary`]-shaped object per run, the
//! machine-readable perf trajectory the growth loop tracks across sessions.

use octocache::{CacheConfig, MappingSystem};
use octocache_bench::{
    cache_for, construct, grid, load_dataset, print_table, reference_resolution, Backend,
};
use octocache_datasets::{Dataset, ScanSequence};
use octocache_telemetry::{Phase, SharedRecorder, TraceSummary};
use serde::{Serialize, Value};

/// One run's summary as a JSON object.
fn run_value(dataset: &str, total_s: f64, s: &TraceSummary) -> Value {
    let seq = |vals: Vec<Value>| Value::Seq(vals);
    Value::Map(vec![
        ("dataset".to_string(), Value::Str(dataset.to_string())),
        ("backend".to_string(), Value::Str(s.backend.clone())),
        ("scans".to_string(), Value::U64(s.scans)),
        ("observations".to_string(), Value::U64(s.observations)),
        ("total_s".to_string(), Value::F64(total_s)),
        ("cache_hit_ratio".to_string(), Value::F64(s.hit_ratio())),
        ("cache_evictions".to_string(), Value::U64(s.cache_evictions)),
        (
            "octree_node_visits".to_string(),
            Value::U64(s.octree_node_visits),
        ),
        (
            "visits_per_update".to_string(),
            Value::F64(s.visits_per_update()),
        ),
        ("max_queue_depth".to_string(), Value::U64(s.max_queue_depth)),
        ("totals".to_string(), s.totals.to_value()),
        (
            "per_phase".to_string(),
            seq(s.phase_quantiles().iter().map(|q| q.to_value()).collect()),
        ),
        (
            "hit_ratio_series".to_string(),
            seq(s.hit_ratio_series.iter().map(|p| p.to_value()).collect()),
        ),
    ])
}

/// The same cache geometry with sub-scan event recording switched on.
fn with_events(base: CacheConfig) -> CacheConfig {
    let mut b = CacheConfig::builder();
    b.num_buckets(base.num_buckets())
        .tau(base.tau())
        .stall_timeout(base.stall_timeout())
        .events(true);
    b.build().expect("valid cache config")
}

/// One timed construction; returns wall seconds plus the recorded event
/// count and drop count (0/0 with recording off).
fn timed_build(seq: &ScanSequence, mut backend: Box<dyn MappingSystem>) -> (f64, u64, u64) {
    let t0 = std::time::Instant::now();
    for scan in seq.scans() {
        backend
            .insert_scan(scan.origin, &scan.points, seq.max_range())
            .expect("scan within grid");
    }
    backend.finish();
    let total = t0.elapsed().as_secs_f64();
    let (events, dropped) = backend
        .take_events()
        .map(|log| (log.events.len() as u64, log.dropped))
        .unwrap_or((0, 0));
    (total, events, dropped)
}

/// Event-layer overhead on freiburg-campus (DESIGN.md §6.1): best-of-N
/// wall time with recording off vs on, per backend. Appends one JSON
/// object per backend to `runs`.
fn event_overhead(runs: &mut Vec<Value>) {
    const REPS: usize = 3;
    let dataset = Dataset::FreiburgCampus;
    let seq = load_dataset(dataset);
    let res = reference_resolution(dataset);
    let base = cache_for(&seq, res);
    let traced = with_events(base);

    let mut rows = Vec::new();
    for backend in [Backend::Serial, Backend::Parallel] {
        // Interleave off/on reps so both conditions see the same machine
        // state (frequency scaling, page cache), then take the best of
        // each: the min is the least-perturbed run.
        let mut off = Vec::new();
        let mut on = Vec::new();
        for _ in 0..REPS {
            off.push(timed_build(&seq, backend.build(grid(res), base)));
            on.push(timed_build(&seq, backend.build(grid(res), traced)));
        }
        let best = |runs: &[(f64, u64, u64)]| {
            *runs
                .iter()
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("at least one rep")
        };
        let (off_s, _, _) = best(&off);
        let (on_s, events, dropped) = best(&on);
        let overhead_pct = (on_s - off_s) / off_s * 100.0;
        rows.push(vec![
            backend.label().to_string(),
            format!("{off_s:.3}"),
            format!("{on_s:.3}"),
            format!("{overhead_pct:+.2}"),
            format!("{events}"),
            format!("{dropped}"),
        ]);
        runs.push(Value::Map(vec![
            (
                "section".to_string(),
                Value::Str("event_overhead".to_string()),
            ),
            (
                "dataset".to_string(),
                Value::Str(dataset.name().to_string()),
            ),
            (
                "backend".to_string(),
                Value::Str(backend.label().to_string()),
            ),
            ("events_off_s".to_string(), Value::F64(off_s)),
            ("events_on_s".to_string(), Value::F64(on_s)),
            ("overhead_pct".to_string(), Value::F64(overhead_pct)),
            ("events_recorded".to_string(), Value::U64(events)),
            ("events_dropped".to_string(), Value::U64(dropped)),
        ]));
    }
    print_table(
        "Event-recording overhead — freiburg-campus, interleaved best of 3",
        &[
            "backend",
            "off(s)",
            "on(s)",
            "overhead(%)",
            "events",
            "dropped",
        ],
        &rows,
    );
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_telemetry.json".to_string());
    let us = |nanos: u64| format!("{:.1}", nanos as f64 / 1e3);

    let mut runs = Vec::new();
    let mut rows = Vec::new();
    for dataset in Dataset::ALL {
        let seq = load_dataset(dataset);
        let res = reference_resolution(dataset);
        let cache = cache_for(&seq, res);
        for backend in Backend::STANDARD {
            let recorder = SharedRecorder::new();
            let mut system = backend.build(grid(res), cache);
            system.set_recorder(Box::new(recorder.clone()));
            let r = construct(&seq, system);
            let summary = TraceSummary::from_records(&recorder.records());
            let ray = summary.per_phase.get(Phase::RayTracing);
            let octree = summary.per_phase.get(Phase::OctreeUpdate);
            rows.push(vec![
                dataset.name().to_string(),
                r.backend.to_string(),
                format!("{}", summary.scans),
                format!("{:.3}", summary.hit_ratio()),
                format!("{}", summary.cache_evictions),
                format!("{:.2}", summary.visits_per_update()),
                us(ray.p50()),
                us(ray.p99()),
                us(octree.p50()),
                us(octree.p99()),
            ]);
            runs.push(run_value(dataset.name(), r.total.as_secs_f64(), &summary));
        }
    }

    print_table(
        "Telemetry — per-scan latency percentiles and cache behaviour",
        &[
            "dataset",
            "backend",
            "scans",
            "hit-ratio",
            "evictions",
            "visits/upd",
            "ray-p50(us)",
            "ray-p99(us)",
            "oct-p50(us)",
            "oct-p99(us)",
        ],
        &rows,
    );

    event_overhead(&mut runs);

    let json = serde::json::to_string(&Value::Seq(runs));
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => eprintln!("\nfailed to write {out_path}: {e}"),
    }
}
