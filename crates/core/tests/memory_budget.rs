//! The memory budget against a footprint that never shrinks.
//!
//! `resident_bytes()` is the octree pool's capacity plus the cache's, and
//! neither goes down during a run: the arena pool only grows and the cache
//! slab is allocated once. So once a budget refuses a scan, it refuses
//! every later one — the map stops growing at the cap. For the serial and
//! the parallel backend, through `insert_scan` (the one way in), with a
//! budget the tree pool crosses mid-run:
//!
//! * `ScanRecord::memory_bytes` never decreases;
//! * after the first `Shed(OverBudget)` verdict every later scan gets one;
//! * the map equals a serial replay of the applied prefix.
//!
//! Through a `DurableMap` each refusal is journaled flagged as shed, and
//! recovery reproduces the live map.

mod common;

use common::Scan;
use octocache::pipeline::{MappingSystem, RayTracer};
use octocache::{
    durable, CacheConfig, DurableMap, ParallelOctoCache, PipelineError, SerialOctoCache,
    SharedRecorder, ShedReason,
};
use octocache_octomap::{compare, OccupancyOcTree, OccupancyParams};

const MAX_RANGE: f64 = 40.0;

fn scans() -> Vec<Scan> {
    (0..3).flat_map(|i| common::scenario(90 + i)).collect()
}

/// Serial replay of `scans` with no budget, and its per-scan tree footprint.
fn reference(scans: &[Scan]) -> (OccupancyOcTree, Vec<u64>) {
    let mut map = SerialOctoCache::new(common::grid(), OccupancyParams::default(), common::cache());
    let recorder = SharedRecorder::new();
    map.set_recorder(Box::new(recorder.clone()));
    for scan in scans {
        map.insert_scan(scan.origin, &scan.points, MAX_RANGE)
            .expect("reference scan");
    }
    let footprint = recorder.records().iter().map(|r| r.memory_bytes).collect();
    (map.into_tree(), footprint)
}

/// A budget the tree pool crosses mid-run: the cache's fixed footprint plus
/// the unbudgeted tree's footprint halfway through the scans.
fn budget(scans: &[Scan]) -> u64 {
    let (_, footprint) = reference(scans);
    common::cache().resident_bytes() as u64 + footprint[footprint.len() / 2]
}

/// Drives every scan through `insert_scan`; returns which scans the budget
/// shed.
fn drive(map: &mut dyn MappingSystem, scans: &[Scan]) -> Vec<bool> {
    scans
        .iter()
        .enumerate()
        .map(
            |(i, scan)| match map.insert_scan(scan.origin, &scan.points, MAX_RANGE) {
                Ok(_) => false,
                Err(PipelineError::Shed(ShedReason::OverBudget { .. })) => true,
                Err(e) => panic!("scan {i}: unexpected error {e}"),
            },
        )
        .collect()
}

#[test]
fn over_budget_is_permanent_and_the_applied_prefix_is_exact() {
    let scans = scans();
    let budget = budget(&scans);
    let config = {
        let mut b = CacheConfig::builder();
        b.num_buckets(1 << 7).tau(2).mem_budget(budget);
        b.build().unwrap()
    };
    let params = OccupancyParams::default();
    let backends: [(&str, Box<dyn MappingSystem>); 2] = [
        (
            "serial",
            Box::new(SerialOctoCache::new(common::grid(), params, config)),
        ),
        (
            "parallel",
            Box::new(ParallelOctoCache::new(common::grid(), params, config)),
        ),
    ];
    for (name, mut map) in backends {
        let label = format!("{name}, budget {budget} B");
        let recorder = SharedRecorder::new();
        map.set_recorder(Box::new(recorder.clone()));
        let shed = drive(&mut *map, &scans);

        let footprint: Vec<u64> = recorder.records().iter().map(|r| r.memory_bytes).collect();
        assert!(
            footprint.windows(2).all(|w| w[0] <= w[1]),
            "{label}: the tree footprint shrank: {footprint:?}"
        );

        let first = shed.iter().position(|&s| s);
        let first = first.unwrap_or_else(|| panic!("{label}: the budget never tripped"));
        assert!(first > 0, "{label}: the budget refused the first scan");
        assert!(
            shed[first..].iter().all(|&s| s),
            "{label}: a scan was admitted after the first refusal: {shed:?}"
        );
        assert_eq!(
            footprint.len(),
            first,
            "{label}: one record per applied scan"
        );

        map.finish();
        let (want, _) = reference(&scans[..first]);
        let d = compare::diff(&want, &map.take_tree(), 0.0);
        assert!(
            d.is_identical(),
            "{label}: {} value / {} coverage mismatches against the serial replay of {first} scans",
            d.value_mismatches,
            d.coverage_mismatches
        );
    }
}

/// A `DurableMap` asks the same verdict before it journals: every offered
/// scan enters the journal, the refused ones flagged as shed, and replay
/// skips them, so recovery equals the live map and the applied prefix.
#[test]
fn durable_map_journals_each_refusal_as_shed_and_recovers_the_live_map() {
    let scans = scans();
    let budget = budget(&scans);
    // No periodic checkpoint: recovery replays the whole journal.
    let config = {
        let mut b = CacheConfig::builder();
        b.num_buckets(1 << 7)
            .tau(2)
            .mem_budget(budget)
            .checkpoint_every(0);
        b.build().unwrap()
    };
    let params = OccupancyParams::default();
    let backends: [(&str, Box<dyn MappingSystem>); 2] = [
        (
            "serial",
            Box::new(SerialOctoCache::new(common::grid(), params, config)),
        ),
        (
            "parallel",
            Box::new(ParallelOctoCache::new(common::grid(), params, config)),
        ),
    ];
    for (name, inner) in backends {
        let label = format!("durable {name}, budget {budget} B");
        let dir =
            std::env::temp_dir().join(format!("octo-budget-durable-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut map = DurableMap::create(&dir, inner, params, RayTracer::Standard, &config)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let shed = drive(&mut map, &scans);

        let first = shed.iter().position(|&s| s);
        let first = first.unwrap_or_else(|| panic!("{label}: the budget never tripped"));
        assert!(first > 0, "{label}: the budget refused the first scan");
        assert!(
            shed[first..].iter().all(|&s| s),
            "{label}: a scan was admitted after the first refusal: {shed:?}"
        );
        assert_eq!(
            map.stats().journal_records,
            scans.len() as u64,
            "{label}: every offered scan is journaled"
        );

        let live = Box::new(map).take_tree();
        let (recovered, report) = durable::recover(&dir).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(report.checkpoint_epoch, None, "{label}");
        assert_eq!(report.records_replayed, first as u64, "{label}");
        assert_eq!(
            report.records_shed,
            (scans.len() - first) as u64,
            "{label}: each refusal is journaled flagged as shed"
        );
        assert_eq!(report.final_epoch, scans.len() as u64, "{label}");
        assert!(
            compare::diff(&live, &recovered, 0.0).is_identical(),
            "{label}: recovery differs from the live map"
        );
        let (want, _) = reference(&scans[..first]);
        assert!(
            compare::diff(&want, &live, 0.0).is_identical(),
            "{label}: the live map differs from the serial replay of {first} scans"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The scratch `insert_batch` folds a scan through is resident like the
/// slab and the spill: the first batch allocates it, and the verdict before
/// the second scan counts it. A budget of exactly the tree plus the whole
/// cache after one scan refuses the second scan; one byte more admits it.
#[test]
fn the_fold_scratch_counts_toward_the_budget() {
    let scans = scans();
    let params = OccupancyParams::default();
    let mut probe = SerialOctoCache::new(common::grid(), params, common::cache());
    probe
        .insert_scan(scans[0].origin, &scans[0].points, MAX_RANGE)
        .expect("first scan");
    let slab = common::cache().resident_bytes() as u64;
    let cache = probe.cache().memory_usage() as u64;
    assert!(
        cache >= slab + (1 << 18),
        "one batch must leave the fold's 256 KiB scratch resident: {cache} B over a {slab} B slab"
    );
    let resident = probe.tree().memory_usage() as u64 + cache;
    for (budget, refused) in [(resident, true), (resident + 1, false)] {
        let config = {
            let mut b = CacheConfig::builder();
            b.num_buckets(1 << 7).tau(2).mem_budget(budget);
            b.build().unwrap()
        };
        let mut map = SerialOctoCache::new(common::grid(), params, config);
        let shed = drive(&mut map, &scans[..2]);
        assert_eq!(
            shed,
            [false, refused],
            "budget {budget} B, resident {resident} B"
        );
    }
}
