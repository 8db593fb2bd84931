//! Chaos soak for the self-healing supervised runtime, part of the plain
//! `cargo test` run.
//!
//! Seeded long runs (hundreds of scans each, over three seeds) interleave
//! periodic worker kills, a deliberately tight memory budget, and burst
//! overload. The contract under test:
//!
//! 1. The final map is voxel-for-voxel identical to a serial replay of
//!    exactly the scans that were applied (shed scans excluded) — worker
//!    respawn re-applies the retained batch idempotently.
//! 2. Integrity re-converges to `Intact` after every heal: the transition
//!    history strictly alternates degrade → heal, and each respawn is
//!    matched by a heal while the restart budget lasts.
//! 3. The budget is one threshold on a footprint that never shrinks: it
//!    sheds at least one scan, every submission after the first shed is
//!    shed too (the map stops growing at the cap), and every applied scan
//!    was admitted on a footprint below the budget.

mod common;

use std::time::Duration;

use common::Scan;
use octocache::pipeline::MappingSystem;
use octocache::{
    CacheConfig, FaultPlan, Integrity, ParallelOctoCache, PipelineError, SerialOctoCache,
    SharedRecorder, ShedReason,
};
use octocache_octomap::{compare, OccupancyOcTree, OccupancyParams};
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
    integrity: Integrity,
    counters: octocache::FaultCounters,
    history: Vec<octocache::IntegrityTransition>,
    records: Vec<octocache::ScanRecord>,
}

/// Drives every scan through the supervised admission gate. A
/// `WorkerPanicked` error is an *applied* scan (the retained batch was
/// re-applied inline before the deferred fault surfaced); any other error
/// fails the soak.
fn run_supervised(scans: &[Scan], config: CacheConfig) -> SoakOutcome {
    let mut map = ParallelOctoCache::new(common::grid(), OccupancyParams::default(), config);
    let recorder = SharedRecorder::new();
    map.set_recorder(Box::new(recorder.clone()));
    let mut applied = Vec::new();
    let mut sheds = Vec::new();
    let mut kill_errors = 0u64;
    for (i, scan) in scans.iter().enumerate() {
        match map.insert_scan(scan.origin, &scan.points, MAX_RANGE) {
            Ok(_) => applied.push(i),
            Err(PipelineError::Shed(ShedReason::OverBudget { resident_bytes, .. })) => {
                sheds.push((i, resident_bytes))
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
    }
    map.finish();
    let map_summary = MapSummary {
        integrity: map.integrity(),
        counters: map.fault_counters(),
        history: map.integrity_transitions(),
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

/// Every degrade in the history is matched by a subsequent heal (the last
/// degrade may be trailing when the final scans were killed or shed).
fn assert_reconverges(label: &str, s: &MapSummary) {
    let mut open_degrade = false;
    for t in &s.history {
        if t.to.is_degraded() {
            assert!(
                !open_degrade,
                "{label}: two degrades without a heal between them: {:?}",
                s.history
            );
            open_degrade = true;
        } else {
            assert!(
                open_degrade,
                "{label}: heal without a preceding degrade: {:?}",
                s.history
            );
            open_degrade = false;
        }
    }
    if !open_degrade {
        assert_eq!(
            s.integrity,
            Integrity::Intact,
            "{label}: history re-converged but the verdict is stuck: {:?}",
            s.history
        );
    }
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
    // The budget is derived from the run itself: ~4/5 of the final
    // serial tree footprint, so it trips as the map approaches completion
    // without starving the whole run.
    let all: Vec<&Scan> = scans.iter().collect();
    let budget = (serial_reference(&all).memory_usage() as u64) * 4 / 5;
    let label = format!("soak seed={seed}");
    let mut b = CacheConfig::builder();
    b.num_buckets(1 << 7)
        .tau(2)
        .mem_budget(budget)
        .max_restarts(10_000)
        .stall_timeout(Duration::from_secs(10));
    b.fault_plan(FaultPlan::from_spec("killevery:0@7").expect("spec"));
    let config = b.build().unwrap();
    let o = run_supervised(&scans, config);
    let s = &o.map_summary;

    // Worker kills happened and every one of them was healed by a
    // respawn (the restart budget is never exhausted here).
    assert!(o.kill_errors >= 1, "{label}: the kill fault never fired");
    assert!(s.counters.heals >= 1, "{label}: no heals recorded");
    assert_eq!(
        s.counters.restarts, s.counters.heals,
        "{label}: a respawn failed to heal: {:?}",
        s.counters
    );
    assert_reconverges(&label, s);

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
    // Heals and restarts land in the per-scan records too.
    assert_eq!(
        s.records.iter().map(|r| r.heals).sum::<u64>(),
        s.counters.heals,
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
    // injected, so the verdict stays intact throughout.
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
    assert_eq!(map.integrity(), Integrity::Intact);
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

    /// Kills at arbitrary cadence (including mid-`BatchEnd` positions,
    /// since the cadence is measured in batches): the retained-batch
    /// re-apply must stay idempotent across every respawn — the healed map
    /// always equals the serial reference.
    #[test]
    fn respawn_reapply_is_idempotent(seed in 0u64..256, every in 1u64..6) {
        let scans: Vec<Scan> = (0..2)
            .flat_map(|i| common::scenario(seed.wrapping_mul(31).wrapping_add(i)))
            .collect();
        let mut b = CacheConfig::builder();
        b.num_buckets(1 << 6)
            .tau(1)
            .max_restarts(10_000)
            .stall_timeout(Duration::from_secs(10));
        b.fault_plan(FaultPlan::from_spec(&format!("killevery:0@{every}")).unwrap());
        let o = run_supervised(&scans, b.build().unwrap());
        prop_assert!(o.sheds.is_empty()); // no budget configured
        let s = &o.map_summary;
        prop_assert_eq!(s.counters.restarts, s.counters.heals);
        let applied: Vec<&Scan> = o.applied.iter().map(|&i| &scans[i]).collect();
        let reference = serial_reference(&applied);
        let d = compare::diff(&reference, &o.tree, 0.0);
        prop_assert!(
            d.is_identical(),
            "seed={} every={}: {} value / {} coverage mismatches ({} kills, {} restarts)",
            seed, every, d.value_mismatches, d.coverage_mismatches,
            o.kill_errors, s.counters.restarts
        );
    }
}
