//! Concurrent snapshot-query benchmark: reader threads hammer a
//! [`QueryHandle`] while the parallel pipeline keeps mapping, sweeping
//! the reader count. The headline numbers are
//! aggregate reader throughput (lock-free reads must scale with reader
//! count instead of serialising on the octree mutex), the mapping
//! throughput it costs (snapshot publish overhead), and the Morton-sweep
//! prefix-reuse fraction of the batch query path.
//!
//! Writes `BENCH_query.json` (path overridable as the first argument): a
//! JSON array with one object per configuration, plus a final
//! `batch-vs-single` microbenchmark of the batch API against one-at-a-time
//! lookups on the same snapshot.

use octocache::{MappingSystem, ParallelOctoCache, QueryHandle};
use octocache_bench::{
    cache_for, cache_with, grid, load_dataset, print_table, reference_resolution, scenario_smoke,
};
use octocache_datasets::Dataset;
use octocache_geom::VoxelKey;
use octocache_octomap::OccupancyParams;
use octocache_telemetry::SharedRecorder;
use serde::Value;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Concurrent reader counts swept (0 = mapping alone, the baseline the
/// publish overhead is measured against).
const READER_COUNTS: [usize; 4] = [0, 1, 4, 8];

/// Batch size the readers issue (large enough for Morton prefix reuse to
/// matter, small enough to observe fresh snapshots often).
const BATCH: usize = 256;

struct Run {
    dataset: &'static str,
    readers: usize,
    scans: u64,
    map_total_s: f64,
    scans_per_s: f64,
    reader_queries: u64,
    reader_queries_per_s: f64,
    snapshots_observed: u64,
    avg_publish_ms: f64,
    batch_reuse: f64,
}

fn run_value(r: &Run) -> Value {
    Value::Map(vec![
        ("dataset".to_string(), Value::Str(r.dataset.to_string())),
        ("readers".to_string(), Value::U64(r.readers as u64)),
        ("scans".to_string(), Value::U64(r.scans)),
        ("map_total_s".to_string(), Value::F64(r.map_total_s)),
        ("scans_per_s".to_string(), Value::F64(r.scans_per_s)),
        ("reader_queries".to_string(), Value::U64(r.reader_queries)),
        (
            "reader_queries_per_s".to_string(),
            Value::F64(r.reader_queries_per_s),
        ),
        (
            "snapshots_observed".to_string(),
            Value::U64(r.snapshots_observed),
        ),
        ("avg_publish_ms".to_string(), Value::F64(r.avg_publish_ms)),
        ("batch_reuse".to_string(), Value::F64(r.batch_reuse)),
    ])
}

/// A reader thread: cycles through the probe set in `BATCH`-sized
/// Morton-batched lookups until the writer stops, counting queries and
/// distinct epochs observed.
fn reader_loop(
    handle: QueryHandle,
    probes: &[VoxelKey],
    stop: &AtomicBool,
    queries: &AtomicU64,
    epochs: &AtomicU64,
) {
    let mut offset = 0usize;
    let mut last_epoch = u64::MAX;
    let mut local_epochs = 0u64;
    while !stop.load(Ordering::Acquire) {
        let epoch = handle.epoch();
        if epoch != last_epoch {
            last_epoch = epoch;
            local_epochs += 1;
        }
        let end = (offset + BATCH).min(probes.len());
        // Through the handle, so the traversal counters reach telemetry.
        let (answers, _) = handle.batch_occupancy(&probes[offset..end]);
        queries.fetch_add(answers.len() as u64, Ordering::Relaxed);
        offset = if end == probes.len() { 0 } else { end };
    }
    epochs.fetch_add(local_epochs, Ordering::Relaxed);
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_query.json".to_string());

    // Shared-scenario smoke check (same seeded generator as the
    // integration suites) before committing minutes to the sweep.
    let smoke = scenario_smoke(Box::new(ParallelOctoCache::new(
        grid(0.5),
        OccupancyParams::default(),
        cache_with(1 << 7, 2),
    )));
    println!("# scenario smoke checksum {smoke:#018x}");

    let dataset = Dataset::Fr079Corridor;
    let seq = load_dataset(dataset);
    let res = reference_resolution(dataset);
    let cache = cache_for(&seq, res);
    let g = grid(res);

    // Probe keys: every scan endpoint that falls inside the grid — the
    // query mix a planner validating trajectories against the map issues.
    let probes: Vec<VoxelKey> = seq
        .scans()
        .iter()
        .flat_map(|s| s.points.iter())
        .filter_map(|&p| g.key_of(p).ok())
        .collect();
    assert!(!probes.is_empty(), "dataset produced no in-grid points");

    let mut runs: Vec<Run> = Vec::new();
    let mut rows = Vec::new();
    for readers in READER_COUNTS {
        let recorder = SharedRecorder::new();
        let mut system: Box<dyn MappingSystem> =
            Box::new(ParallelOctoCache::new(g, OccupancyParams::default(), cache));
        system.set_recorder(Box::new(recorder.clone()));
        let handle = system.query_handle();

        let stop = AtomicBool::new(false);
        let reader_queries = AtomicU64::new(0);
        let epochs_observed = AtomicU64::new(0);
        let (scan_count, map_total_s, reader_s) = std::thread::scope(|scope| {
            for _ in 0..readers {
                let h = handle.clone();
                let (probes, stop) = (&probes[..], &stop);
                let (q, e) = (&reader_queries, &epochs_observed);
                scope.spawn(move || reader_loop(h, probes, stop, q, e));
            }
            let t0 = Instant::now();
            let mut scan_count = 0u64;
            for scan in seq.scans() {
                system
                    .insert_scan(scan.origin, &scan.points, seq.max_range())
                    .expect("scan within grid");
                scan_count += 1;
            }
            let map_total_s = t0.elapsed().as_secs_f64();
            stop.store(true, Ordering::Release);
            // Readers stop on their own; the scope joins them.
            (scan_count, map_total_s, t0.elapsed().as_secs_f64())
        });
        system.finish();

        let records = recorder.records();
        let publishes: Vec<u64> = records
            .iter()
            .map(|r| r.snapshot_publish_ns)
            .filter(|&n| n > 0)
            .collect();
        let avg_publish_ms = if publishes.is_empty() {
            0.0
        } else {
            publishes.iter().sum::<u64>() as f64 / publishes.len() as f64 / 1e6
        };
        // Reader batch stats are drained into the per-scan records at
        // each republish; sum them, plus whatever accrued since the
        // last publish.
        let residual = handle.batch_stats();
        let visited =
            records.iter().map(|r| r.batch_nodes_visited).sum::<u64>() + residual.nodes_visited;
        let reused =
            records.iter().map(|r| r.batch_nodes_reused).sum::<u64>() + residual.nodes_reused;
        let q = reader_queries.load(Ordering::Relaxed);
        let run = Run {
            dataset: dataset.name(),
            readers,
            scans: scan_count,
            map_total_s,
            scans_per_s: scan_count as f64 / map_total_s.max(1e-9),
            reader_queries: q,
            reader_queries_per_s: q as f64 / reader_s.max(1e-9),
            snapshots_observed: epochs_observed.load(Ordering::Relaxed),
            avg_publish_ms,
            batch_reuse: reused as f64 / (visited + reused).max(1) as f64,
        };
        rows.push(vec![
            format!("{}", run.readers),
            format!("{:.1}", run.scans_per_s),
            format!("{:.0}", run.reader_queries_per_s / 1e3),
            format!("{}", run.snapshots_observed),
            format!("{:.2}", run.avg_publish_ms),
            format!("{:.3}", run.batch_reuse),
        ]);
        runs.push(run);
    }

    print_table(
        "Concurrent snapshot queries by reader count",
        &[
            "readers",
            "scans/s",
            "kqueries/s",
            "snapshots",
            "publish(ms)",
            "reuse",
        ],
        &rows,
    );

    // The scaling headline: aggregate reader throughput, 8 readers vs 1.
    let tput = |r: usize| {
        runs.iter()
            .find(|x| x.readers == r)
            .map(|x| x.reader_queries_per_s)
            .unwrap_or(0.0)
    };
    println!(
        "8-reader vs 1-reader throughput ratio {:.2}",
        tput(8) / tput(1).max(1e-9)
    );

    // Batch-vs-single microbenchmark on a settled snapshot.
    let mut system: Box<dyn MappingSystem> =
        Box::new(ParallelOctoCache::new(g, OccupancyParams::default(), cache));
    for scan in seq.scans() {
        system
            .insert_scan(scan.origin, &scan.points, seq.max_range())
            .expect("scan within grid");
    }
    let snap = system.snapshot();
    let t0 = Instant::now();
    let (batch_answers, stats) = snap.batch_occupancy(&probes);
    let batch_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut single_known = 0usize;
    for &k in &probes {
        if snap.occupancy(k).is_some() {
            single_known += 1;
        }
    }
    let single_s = t1.elapsed().as_secs_f64();
    let known = batch_answers.iter().filter(|a| a.is_some()).count();
    assert_eq!(known, single_known, "batch and single paths disagree");
    println!(
        "batch-vs-single: {} probes, batch {:.1} Mq/s vs single {:.1} Mq/s (speedup {:.2}x, prefix reuse {:.1}%)",
        probes.len(),
        probes.len() as f64 / batch_s.max(1e-9) / 1e6,
        probes.len() as f64 / single_s.max(1e-9) / 1e6,
        single_s / batch_s.max(1e-9),
        stats.reuse_fraction() * 100.0
    );

    let mut values: Vec<Value> = runs.iter().map(run_value).collect();
    values.push(Value::Map(vec![
        (
            "microbench".to_string(),
            Value::Str("batch-vs-single".to_string()),
        ),
        ("probes".to_string(), Value::U64(probes.len() as u64)),
        ("batch_s".to_string(), Value::F64(batch_s)),
        ("single_s".to_string(), Value::F64(single_s)),
        (
            "batch_reuse".to_string(),
            Value::F64(stats.reuse_fraction()),
        ),
    ]));
    let json = serde::json::to_string(&Value::Seq(values));
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => eprintln!("\nfailed to write {out_path}: {e}"),
    }
}
