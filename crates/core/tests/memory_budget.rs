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
use octocache_geom::Point3;
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

/// The serial and the parallel backend over `config`.
fn backends(config: CacheConfig) -> [(&'static str, Box<dyn MappingSystem>); 2] {
    let params = OccupancyParams::default();
    [
        (
            "serial",
            Box::new(SerialOctoCache::new(common::grid(), params, config)),
        ),
        (
            "parallel",
            Box::new(ParallelOctoCache::new(common::grid(), params, config)),
        ),
    ]
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
    for (name, mut map) in backends(config) {
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

/// A run that ends refusing still reports every refusal: those after the
/// last applied scan reach the trace at `finish` as one trailing record
/// with no observations, so the records' `sheds` sum to the number of
/// `Shed` returns. A second `finish` writes no second trailing record.
#[test]
fn refusals_after_the_last_applied_scan_reach_the_trace() {
    let scans = scans();
    let config = {
        let mut b = CacheConfig::builder();
        b.num_buckets(1 << 7).tau(2).mem_budget(budget(&scans));
        b.build().unwrap()
    };
    for (name, mut map) in backends(config) {
        let recorder = SharedRecorder::new();
        map.set_recorder(Box::new(recorder.clone()));
        let shed = drive(&mut *map, &scans);
        assert_eq!(
            shed.last(),
            Some(&true),
            "{name}: the run must end refusing"
        );
        let refused = shed.iter().filter(|&&s| s).count();

        map.finish();
        let records = recorder.records();
        let summed: u64 = records.iter().map(|r| r.sheds).sum();
        assert_eq!(
            summed, refused as u64,
            "{name}: refusals lost from the trace"
        );
        assert_eq!(records.len(), scans.len() - refused + 1, "{name}");
        let trailing = records.last().unwrap();
        assert_eq!(trailing.observations, 0, "{name}: {trailing:?}");
        assert_eq!(trailing.sheds, refused as u64, "{name}: {trailing:?}");

        map.finish();
        assert_eq!(recorder.records().len(), records.len(), "{name}");
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
    for (name, inner) in backends(config) {
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

/// Two scans of one dense fan, taken half a metre apart: 128 × 128 rays to
/// a wall 35 m off across a 38° square cone. Over 2¹⁴ voxels, which the
/// first rays cross about 20 times each, so the fold widens its scratch.
fn fans() -> Vec<Scan> {
    (0..2)
        .map(|i| {
            let origin = Point3::new(0.0, 0.5 * f64::from(i), 0.0);
            let points = (0..128 * 128)
                .map(|ray| {
                    let across = |n: i32| 24.5 * (f64::from(n) / 127.0 - 0.5);
                    origin + Point3::new(35.0, across(ray % 128), across(ray / 128))
                })
                .collect();
            Scan { origin, points }
        })
        .collect()
}

/// The scratch `insert_batch` folds a scan through is resident like the
/// slab and the spill: the first batch allocates it, and the verdict before
/// the second scan counts it — the narrow scratch after the blob walk's
/// first scan, the wide one after the fan's. A budget of exactly the tree
/// plus the whole cache after one scan refuses the second scan; one byte
/// more admits it.
#[test]
fn the_fold_scratch_counts_toward_the_budget() {
    let params = OccupancyParams::default();
    let cache_of = |buckets: usize, budget: Option<u64>| {
        let mut b = CacheConfig::builder();
        b.num_buckets(buckets).tau(2);
        if let Some(budget) = budget {
            b.mem_budget(budget);
        }
        b.build().unwrap()
    };
    // The narrow scratch's 2¹⁵ slots and the wide one's 2¹⁷, 8 B each. The
    // fan's cache has a bucket for each voxel of any 64 × 64 × 64 block, so
    // nothing spills and the footprint over the slab is the scratch alone.
    let cases = [
        ("blob walk", scans(), 1 << 7, 1u64 << 18),
        ("fan", fans(), 1 << 18, 1 << 20),
    ];
    for (label, scans, buckets, scratch) in cases {
        let mut probe = SerialOctoCache::new(common::grid(), params, cache_of(buckets, None));
        probe
            .insert_scan(scans[0].origin, &scans[0].points, MAX_RANGE)
            .expect("first scan");
        let slab = cache_of(buckets, None).resident_bytes() as u64;
        let cache = probe.cache().memory_usage() as u64;
        assert!(
            cache >= slab + scratch,
            "{label}: one batch must leave the fold's {scratch} B of slots resident: \
             {cache} B over a {slab} B slab"
        );
        let resident = probe.tree().memory_usage() as u64 + cache;
        for (budget, refused) in [(resident, true), (resident + 1, false)] {
            let config = cache_of(buckets, Some(budget));
            let mut map = SerialOctoCache::new(common::grid(), params, config);
            let shed = drive(&mut map, &scans[..2]);
            assert_eq!(
                shed,
                [false, refused],
                "{label}: budget {budget} B, resident {resident} B"
            );
        }
    }
}
