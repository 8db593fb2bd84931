//! The memory budget against a footprint that never shrinks.
//!
//! `resident_bytes()` is the octree pool's capacity plus the cache's, and
//! neither goes down during a run: the arena pool only grows and the cache
//! slab is allocated once. So once a budget refuses a scan, it refuses
//! every later one — the map stops growing at the cap. For the serial and
//! the parallel backend, through both `submit_scan` and `insert_scan`,
//! with a budget the tree pool crosses mid-run:
//!
//! * `ScanRecord::memory_bytes` never decreases;
//! * after the first `OverBudget` verdict every later scan gets one;
//! * the map equals a serial replay of the applied prefix.

mod common;

use common::Scan;
use octocache::pipeline::MappingSystem;
use octocache::{
    CacheConfig, ParallelOctoCache, PipelineError, ScanOutcome, SerialOctoCache, SharedRecorder,
    ShedReason,
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

#[derive(Debug, Clone, Copy)]
enum Route {
    Submit,
    Insert,
}

/// Drives every scan through `route`; returns which scans the budget shed.
fn drive(map: &mut dyn MappingSystem, route: Route, scans: &[Scan]) -> Vec<bool> {
    scans
        .iter()
        .enumerate()
        .map(|(i, scan)| match route {
            Route::Submit => match map.submit_scan(scan.origin, &scan.points, MAX_RANGE) {
                Ok(ScanOutcome::Applied(_)) => false,
                Ok(ScanOutcome::Shed(ShedReason::OverBudget { .. })) => true,
                other => panic!("scan {i}: unexpected outcome {other:?}"),
            },
            Route::Insert => match map.insert_scan(scan.origin, &scan.points, MAX_RANGE) {
                Ok(_) => false,
                Err(PipelineError::OverBudget { .. }) => true,
                Err(e) => panic!("scan {i}: unexpected error {e}"),
            },
        })
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
    for route in [Route::Submit, Route::Insert] {
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
            let label = format!("{name} via {route:?}, budget {budget} B");
            let recorder = SharedRecorder::new();
            map.set_recorder(Box::new(recorder.clone()));
            let shed = drive(&mut *map, route, &scans);

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
        let shed = drive(&mut map, Route::Insert, &scans[..2]);
        assert_eq!(
            shed,
            [false, refused],
            "budget {budget} B, resident {resident} B"
        );
    }
}
