//! Chaos soak for the supervised runtime, part of the plain `cargo test`
//! run.
//!
//! Seeded long runs (hundreds of scans each, over three seeds) interleave
//! periodic octree-thread kills, a deliberately tight memory budget, and
//! burst overload. The contract under test:
//!
//! 1. After every applied scan, the map answers every voxel that scan
//!    traced exactly as a serial twin fed the same applied scans does, and
//!    the final map is voxel-for-voxel identical to a serial replay of
//!    exactly the scans that were applied (shed scans excluded) — a killed
//!    thread's batch is re-applied inline, idempotently.
//! 2. A kill costs only time: the scan after it spawns a thread again,
//!    which does the work.
//! 3. The budget is one threshold on a footprint that never shrinks: it
//!    sheds at least one scan, every submission after the first shed is
//!    shed too (the map stops growing at the cap), and every applied scan
//!    was admitted on a footprint below the budget.

mod common;

use std::time::Duration;

use common::Scan;
use octocache::pipeline::MappingSystem;
use octocache::{
    CacheConfig, FaultPlan, ParallelOctoCache, PipelineError, SerialOctoCache, SharedRecorder,
    ShedReason,
};
use octocache_octomap::{compare, insert, OccupancyOcTree, OccupancyParams};
use proptest::prelude::*;

const MAX_RANGE: f64 = 40.0;

/// Hundreds of deterministic scans: several blob-walk scenarios chained
/// into one long mission.
fn soak_scans(seed: u64) -> Vec<Scan> {
    (0..20)
        .flat_map(|i| common::scenario(seed.wrapping_mul(1009).wrapping_add(i)))
        .collect()
}

/// The seeds the chaos soak runs; each shifts the whole scenario chain.
const SOAK_SEEDS: [u64; 3] = [1, 7, 23];

/// Serial replay of `scans` (no supervisor) — the differential reference.
fn serial_reference(scans: &[&Scan]) -> OccupancyOcTree {
    let mut s = SerialOctoCache::new(common::grid(), OccupancyParams::default(), common::cache());
    for scan in scans {
        s.insert_scan(scan.origin, &scan.points, MAX_RANGE)
            .expect("reference scan");
    }
    Box::new(s).take_tree()
}

/// What one supervised run produced: which scans were applied, the final
/// tree, and the supervisor's own account of the run.
struct SoakOutcome {
    applied: Vec<usize>,
    /// Budget sheds, in submission order: the scan and the resident bytes
    /// that refused it.
    sheds: Vec<(usize, u64)>,
    kill_errors: u64,
    tree: OccupancyOcTree,
    map_summary: MapSummary,
}

struct MapSummary {
    counters: octocache::FaultCounters,
    records: Vec<octocache::ScanRecord>,
}

/// Drives every scan through the supervised admission gate. A
/// `WorkerPanicked` error is an *applied* scan (the batch was re-applied
/// inline before the deferred fault surfaced); any other error fails the
/// soak. After each applied scan, every voxel it traced must read as it
/// does in a serial twin fed the same applied scans.
fn run_supervised(scans: &[Scan], config: CacheConfig) -> SoakOutcome {
    let grid = common::grid();
    let mut map = ParallelOctoCache::new(grid, OccupancyParams::default(), config);
    let mut twin = SerialOctoCache::new(grid, OccupancyParams::default(), common::cache());
    let recorder = SharedRecorder::new();
    map.set_recorder(Box::new(recorder.clone()));
    let mut applied = Vec::new();
    let mut sheds = Vec::new();
    let mut kill_errors = 0u64;
    let mut traced = insert::VoxelBatch::new();
    for (i, scan) in scans.iter().enumerate() {
        match map.insert_scan(scan.origin, &scan.points, MAX_RANGE) {
            Ok(_) => applied.push(i),
            Err(PipelineError::Shed(ShedReason::OverBudget { resident_bytes, .. })) => {
                sheds.push((i, resident_bytes));
                continue;
            }
            Err(PipelineError::Shed(reason)) => {
                panic!("scan {i}: unexpected shed reason {reason} (no deadline configured)")
            }
            Err(PipelineError::WorkerPanicked { .. }) => {
                kill_errors += 1;
                applied.push(i);
            }
            Err(e) => panic!("scan {i}: unexpected error {e}"),
        }
        twin.insert_scan(scan.origin, &scan.points, MAX_RANGE)
            .expect("twin scan");
        insert::compute_update(&grid, scan.origin, &scan.points, MAX_RANGE, &mut traced)
            .expect("traced scan");
        for u in traced.updates() {
            assert_eq!(
                map.occupancy(u.key).map(f32::to_bits),
                twin.occupancy(u.key).map(f32::to_bits),
                "scan {i}: voxel {} differs from the serial twin",
                u.key
            );
        }
    }
    map.finish();
    let map_summary = MapSummary {
        counters: map.fault_counters(),
        records: recorder.records(),
    };
    SoakOutcome {
        applied,
        sheds,
        kill_errors,
        tree: map.into_tree(),
        map_summary,
    }
}

fn assert_differential(label: &str, scans: &[Scan], o: &SoakOutcome) {
    let applied: Vec<&Scan> = o.applied.iter().map(|&i| &scans[i]).collect();
    let reference = serial_reference(&applied);
    let d = compare::diff(&reference, &o.tree, 0.0);
    assert!(
        d.is_identical(),
        "{label}: map diverged from the serial replay of applied scans \
         ({} value / {} coverage mismatches; {} applied, {} shed, {} kills)",
        d.value_mismatches,
        d.coverage_mismatches,
        o.applied.len(),
        o.sheds.len(),
        o.kill_errors
    );
}

#[test]
fn chaos_soak_heals_sheds_and_stays_differential_exact() {
    for seed in SOAK_SEEDS {
        chaos_soak(seed);
    }
}

fn chaos_soak(seed: u64) {
    let scans = soak_scans(seed);
    assert!(scans.len() >= 200, "soak needs hundreds of scans");
    // The budget is derived from the run itself: the cache's own bytes
    // (its records and fold scratch, which the budget counts too) plus
    // ~4/5 of the final serial tree, so it trips as the map approaches
    // completion without starving the whole run.
    let mut full =
        SerialOctoCache::new(common::grid(), OccupancyParams::default(), common::cache());
    for scan in &scans {
        full.insert_scan(scan.origin, &scan.points, MAX_RANGE)
            .expect("reference scan");
    }
    let cache_footprint = full.cache().memory_usage() as u64;
    let budget = cache_footprint + (full.into_tree().memory_usage() as u64) * 4 / 5;
    let label = format!("soak seed={seed}");
    let mut b = CacheConfig::builder();
    b.num_buckets(1 << 7).tau(2).mem_budget(budget);
    b.fault_plan(FaultPlan::from_spec("killevery:0@7").expect("spec"));
    let config = b.build().unwrap();
    let o = run_supervised(&scans, config);
    let s = &o.map_summary;

    // Kills happened, each surfaced once, and every applied scan that met
    // none had its batch applied on an octree thread.
    assert!(o.kill_errors >= 1, "{label}: the kill fault never fired");
    assert!(
        o.kill_errors <= s.counters.worker_panics,
        "{label}: {} kill errors for {:?}",
        o.kill_errors,
        s.counters
    );
    for r in s.records.iter().filter(|r| !r.trailing) {
        assert_eq!(
            r.worker_busy_ns[0] > 0,
            r.worker_panics == 0,
            "{label}: scan {}: {r:?}",
            r.seq
        );
    }

    // The budget tripped, and from then on it refused everything: the
    // footprint it measures never shrinks.
    let &(first, refused_at) = o.sheds.first().unwrap_or_else(|| {
        panic!("{label}: the budget never tripped");
    });
    assert!(first > 0, "{label}: the budget refused the first scan");
    assert!(refused_at >= budget, "{label}: shed at {refused_at} B");
    assert_eq!(
        o.sheds.len(),
        scans.len() - first,
        "{label}: a scan was admitted after the first shed at scan {first}"
    );
    // Every applied scan was admitted on a footprint under the budget: a
    // scan's record carries the tree its successor was admitted on, and
    // the cache adds at least its fixed records. The run ends refusing, so
    // one trailing record with no observations carries those refusals.
    let cache_bytes = config.resident_bytes() as u64;
    assert_eq!(
        s.records.len(),
        first + 1,
        "{label}: one record per applied scan, then the trailing one"
    );
    let trailing = s.records.last().unwrap();
    assert_eq!(trailing.observations, 0, "{label}: {trailing:?}");
    for r in &s.records[..first - 1] {
        assert!(
            r.memory_bytes + cache_bytes < budget,
            "{label}: scan {} was admitted at {} B",
            r.seq + 1,
            r.memory_bytes + cache_bytes
        );
    }
    assert!(
        s.records.iter().all(|r| r.pressure_level == "normal"),
        "{label}"
    );
    // Panics land in the per-scan records too.
    assert_eq!(
        s.records.iter().map(|r| r.worker_panics).sum::<u64>(),
        o.kill_errors,
        "{label}"
    );
    assert_eq!(
        s.records.iter().map(|r| r.sheds).sum::<u64>(),
        o.sheds.len() as u64,
        "{label}: the records' sheds differ from the observed sheds"
    );

    // The capstone: the map equals a serial replay of exactly the
    // applied scans.
    assert_differential(&label, &scans, &o);
}

#[test]
fn burst_overload_sheds_and_reapplies_cleanly() {
    // An absurdly tight deadline forces the admission gate into its
    // shed/decay/re-admit cycle: most scans shed, some apply, and the map
    // must equal the serial replay of the applied subset. No faults are
    // injected, so none are counted.
    let scans = soak_scans(SOAK_SEEDS[0]);
    let mut b = CacheConfig::builder();
    b.num_buckets(1 << 7)
        .tau(2)
        .shed_deadline(Duration::from_micros(1));
    let mut map = ParallelOctoCache::new(
        common::grid(),
        OccupancyParams::default(),
        b.build().unwrap(),
    );
    let mut applied = Vec::new();
    let mut sheds = 0u64;
    for (i, scan) in scans.iter().enumerate() {
        match map.insert_scan(scan.origin, &scan.points, MAX_RANGE) {
            Ok(_) => applied.push(i),
            Err(PipelineError::Shed(ShedReason::DeadlineExceeded { .. })) => sheds += 1,
            other => panic!("scan {i}: unexpected outcome {other:?}"),
        }
    }
    map.finish();
    assert!(sheds > 0, "overload never shed");
    assert!(!applied.is_empty(), "gate never re-admitted");
    assert!(!map.fault_counters().any());
    let applied_scans: Vec<&Scan> = applied.iter().map(|&i| &scans[i]).collect();
    let reference = serial_reference(&applied_scans);
    let d = compare::diff(&reference, &map.into_tree(), 0.0);
    assert!(
        d.is_identical(),
        "{} value / {} coverage mismatches over {} applied / {} shed",
        d.value_mismatches,
        d.coverage_mismatches,
        applied.len(),
        sheds
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Kills at arbitrary cadence (measured in batches, so `finish`'s two
    /// batches are among the targets): the inline re-apply must stay
    /// idempotent across every kill — the map always equals the serial
    /// reference, scan by scan and at the end.
    #[test]
    fn respawn_reapply_is_idempotent(seed in 0u64..256, every in 1u64..6) {
        let scans: Vec<Scan> = (0..2)
            .flat_map(|i| common::scenario(seed.wrapping_mul(31).wrapping_add(i)))
            .collect();
        let mut b = CacheConfig::builder();
        b.num_buckets(1 << 6).tau(1);
        b.fault_plan(FaultPlan::from_spec(&format!("killevery:0@{every}")).unwrap());
        let o = run_supervised(&scans, b.build().unwrap());
        prop_assert!(o.sheds.is_empty()); // no budget configured
        prop_assert!(o.map_summary.counters.worker_panics >= o.kill_errors);
        let applied: Vec<&Scan> = o.applied.iter().map(|&i| &scans[i]).collect();
        let reference = serial_reference(&applied);
        let d = compare::diff(&reference, &o.tree, 0.0);
        prop_assert!(
            d.is_identical(),
            "seed={} every={}: {} value / {} coverage mismatches ({} kills)",
            seed, every, d.value_mismatches, d.coverage_mismatches, o.kill_errors
        );
    }
}
