//! Differential fault-injection suite for the parallel pipeline
//! (compiled only with `--features fault-injection`; CI runs it over an
//! `OCTO_FAULT_SEED` matrix — see `.github/workflows/ci.yml`).
//!
//! The contract under test (ISSUE 3): for every injected single fault,
//! `ParallelOctoCache` either
//! produces a map voxel-for-voxel identical to the serial backend, or
//! returns a typed `PipelineError` with the degraded flag set — and the
//! outcome is deterministic given the same fault plan.

#![cfg(feature = "fault-injection")]

use std::time::Duration;

use octocache::pipeline::MappingSystem;
use octocache::{
    CacheConfig, FaultCounters, FaultPlan, Integrity, ParallelOctoCache, PipelineError,
    SerialOctoCache,
};
use octocache_geom::{Point3, VoxelGrid};
use octocache_octomap::{compare, OccupancyOcTree, OccupancyParams};

fn grid() -> VoxelGrid {
    VoxelGrid::new(0.5, 8).unwrap()
}

/// A deterministic 6-scan sequence spanning several octants.
fn scans() -> Vec<(Point3, Vec<Point3>)> {
    (0..6)
        .map(|i| {
            let origin = Point3::new(0.0, 0.0, if i % 2 == 0 { 1.0 } else { -1.0 });
            let cloud = (0..60)
                .map(|j| {
                    let a = j as f64 * 0.41 + i as f64 * 0.13;
                    Point3::new(
                        12.0 * a.sin(),
                        12.0 * a.cos(),
                        if j % 2 == 0 { 4.0 } else { -4.0 },
                    )
                })
                .collect();
            (origin, cloud)
        })
        .collect()
}

/// Tiny cache (constant eviction) so every scan ships a batch.
fn config(plan: Option<FaultPlan>, stall: Duration) -> CacheConfig {
    let mut b = CacheConfig::builder();
    b.num_buckets(1 << 6).tau(1).stall_timeout(stall);
    if let Some(p) = plan {
        b.fault_plan(p);
    }
    b.build().unwrap()
}

/// As [`config`], with a worker-respawn budget.
fn config_with_restarts(plan: FaultPlan, max_restarts: u32) -> CacheConfig {
    let mut b = CacheConfig::builder();
    b.num_buckets(1 << 6)
        .tau(1)
        .stall_timeout(Duration::from_secs(10))
        .max_restarts(max_restarts)
        .fault_plan(plan);
    b.build().unwrap()
}

fn run_parallel_with(config: CacheConfig) -> (Outcome, Vec<octocache::IntegrityTransition>) {
    let mut s = ParallelOctoCache::new(grid(), OccupancyParams::default(), config);
    let mut errors = Vec::new();
    for (origin, cloud) in scans() {
        if let Err(e) = s.insert_scan(origin, &cloud, 40.0) {
            errors.push(e);
        }
    }
    s.finish();
    let integrity = s.integrity();
    let counters = s.fault_counters();
    let history = s.integrity_history();
    (
        Outcome {
            errors,
            integrity,
            counters,
            tree: s.into_tree(),
        },
        history,
    )
}

fn serial_reference() -> OccupancyOcTree {
    let mut s = SerialOctoCache::new(
        grid(),
        OccupancyParams::default(),
        config(None, Duration::from_secs(10)),
    );
    for (origin, cloud) in scans() {
        s.insert_scan(origin, &cloud, 40.0).expect("valid scan");
    }
    Box::new(s).take_tree()
}

struct Outcome {
    errors: Vec<PipelineError>,
    integrity: Integrity,
    counters: FaultCounters,
    tree: OccupancyOcTree,
}

fn run_parallel(plan: FaultPlan, stall: Duration) -> Outcome {
    let mut s = ParallelOctoCache::new(
        grid(),
        OccupancyParams::default(),
        config(Some(plan), stall),
    );
    let mut errors = Vec::new();
    for (origin, cloud) in scans() {
        if let Err(e) = s.insert_scan(origin, &cloud, 40.0) {
            errors.push(e);
        }
    }
    s.finish();
    let integrity = s.integrity();
    let counters = s.fault_counters();
    Outcome {
        errors,
        integrity,
        counters,
        tree: s.into_tree(),
    }
}

/// The acceptance contract: identical map, or a typed error with the
/// degraded flag. Divergence without an error is the one forbidden state.
fn assert_contract(label: &str, reference: &OccupancyOcTree, o: &Outcome) {
    let d = compare::diff(reference, &o.tree, 0.0);
    if !d.is_identical() {
        assert!(
            !o.errors.is_empty(),
            "{label}: map diverged ({} value / {} coverage mismatches) with no error surfaced",
            d.value_mismatches,
            d.coverage_mismatches
        );
        assert!(
            o.integrity.is_degraded(),
            "{label}: map diverged but integrity is {:?}",
            o.integrity
        );
    }
    if !o.errors.is_empty() {
        assert!(
            o.integrity.is_degraded(),
            "{label}: error {:?} without degraded flag",
            o.errors[0]
        );
    }
    if o.counters.any() {
        assert!(
            o.integrity.is_degraded(),
            "{label}: fault counters {:?} without degraded flag",
            o.counters
        );
    }
}

#[test]
fn killed_worker_recovers_exactly() {
    let reference = serial_reference();
    // A plan's worker index is reduced modulo the worker count (one), so
    // every index names the same worker.
    for worker in [0usize, 7] {
        for batch in [0u64, 1, 3] {
            let plan = FaultPlan::from_spec(&format!("kill:{worker}@{batch}")).unwrap();
            let label = format!("kill:{worker}@{batch}");
            let o = run_parallel(plan, Duration::from_secs(2));
            assert_contract(&label, &reference, &o);
            // A kill is always recoverable: the retained batch is
            // re-applied, so the map must be exact, the error typed,
            // and the verdict Degraded (never Compromised).
            assert_eq!(o.counters.worker_panics, 1, "{label}");
            assert_eq!(o.errors.len(), 1, "{label}: {:?}", o.errors);
            assert!(
                matches!(o.errors[0], PipelineError::WorkerPanicked { .. }),
                "{label}: {:?}",
                o.errors[0]
            );
            assert_eq!(o.integrity, Integrity::Degraded, "{label}");
            let d = compare::diff(&reference, &o.tree, 0.0);
            assert!(
                d.is_identical(),
                "{label}: {} value / {} coverage mismatches",
                d.value_mismatches,
                d.coverage_mismatches
            );
        }
    }
}

#[test]
fn spawn_failure_degrades_without_errors() {
    let reference = serial_reference();
    for worker in [0usize, 3] {
        let plan = FaultPlan::from_spec(&format!("spawn:{worker}")).unwrap();
        let label = format!("spawn:{worker}");
        let o = run_parallel(plan, Duration::from_secs(2));
        assert_contract(&label, &reference, &o);
        // Inline fallback: every scan succeeds, the map is exact, the
        // downgrade is visible in the counters and the verdict.
        assert!(o.errors.is_empty(), "{label}: {:?}", o.errors);
        assert_eq!(o.counters.spawn_failures, 1, "{label}");
        assert_eq!(o.integrity, Integrity::Degraded, "{label}");
        let d = compare::diff(&reference, &o.tree, 0.0);
        assert!(d.is_identical(), "{label}");
    }
}

#[test]
fn stalled_worker_surfaces_queue_stalled() {
    let reference = serial_reference();
    // Worker 0 sleeps 400 ms at batch 1 against a 20 ms stall budget.
    let plan = FaultPlan::from_spec("stall:0@1:400000").unwrap();
    let o = run_parallel(plan, Duration::from_millis(20));
    assert_contract("stall:0@1", &reference, &o);
    assert_eq!(o.errors.len(), 1, "{:?}", o.errors);
    assert!(
        matches!(o.errors[0], PipelineError::QueueStalled { .. }),
        "{:?}",
        o.errors[0]
    );
    assert!(o.counters.stall_timeouts >= 1);
    assert!(o.integrity.is_degraded());
}

/// `max_restarts = 0` (the default) must behave exactly like the
/// pre-supervisor permanent-degrade path: no respawn, no heal, sticky
/// degraded verdict, map still exact.
#[test]
fn zero_restart_budget_matches_permanent_degrade_path() {
    let reference = serial_reference();
    let plan = FaultPlan::from_spec("kill:0@1").unwrap();
    let implicit = run_parallel(plan, Duration::from_secs(10));
    let (explicit, history) = run_parallel_with(config_with_restarts(plan, 0));
    for (label, o) in [("default", &implicit), ("max_restarts=0", &explicit)] {
        assert_eq!(o.counters.restarts, 0, "{label}");
        assert_eq!(o.counters.heals, 0, "{label}");
        assert_eq!(o.counters.worker_panics, 1, "{label}");
        assert_eq!(o.integrity, Integrity::Degraded, "{label}");
        assert_eq!(o.errors.len(), 1, "{label}: {:?}", o.errors);
        let d = compare::diff(&reference, &o.tree, 0.0);
        assert!(d.is_identical(), "{label}");
    }
    assert_eq!(explicit.counters, implicit.counters);
    assert_eq!(history.len(), 1, "{history:?}");
    assert!(history[0].to.is_degraded(), "{history:?}");
    let d = compare::diff(&implicit.tree, &explicit.tree, 0.0);
    assert!(d.is_identical());
}

/// One kill with a restart budget: the worker is respawned on the next
/// scan, the verdict heals back to intact, and the map stays exact.
#[test]
fn respawned_worker_heals_and_map_stays_exact() {
    let reference = serial_reference();
    let plan = FaultPlan::from_spec("kill:0@1").unwrap();
    let (o, history) = run_parallel_with(config_with_restarts(plan, 4));
    assert_eq!(o.counters.worker_panics, 1);
    assert_eq!(o.counters.restarts, 1);
    assert_eq!(o.counters.heals, 1);
    assert_eq!(o.errors.len(), 1, "{:?}", o.errors);
    assert_eq!(o.integrity, Integrity::Intact);
    // History shows the full dip-and-recover arc.
    assert_eq!(history.len(), 2, "{history:?}");
    assert!(history[0].to.is_degraded(), "{history:?}");
    assert_eq!(history[1].to, Integrity::Intact, "{history:?}");
    let d = compare::diff(&reference, &o.tree, 0.0);
    assert!(
        d.is_identical(),
        "{} value / {} coverage mismatches",
        d.value_mismatches,
        d.coverage_mismatches
    );
}

/// Repeated kills exhaust the restart budget: each respawned generation is
/// killed again, and once the budget is spent the worker stays dead — the
/// verdict degrades permanently, but the map never diverges.
#[test]
fn repeated_kills_exhaust_the_restart_budget() {
    let reference = serial_reference();
    let plan = FaultPlan::from_spec("killevery:0@2").unwrap();
    let (o, history) = run_parallel_with(config_with_restarts(plan, 2));
    assert_eq!(o.counters.restarts, 2, "{:?}", o.counters);
    assert_eq!(o.counters.heals, 2, "{:?}", o.counters);
    assert!(
        o.counters.worker_panics > 2,
        "budget exhaustion needs more kills than restarts: {:?}",
        o.counters
    );
    assert_eq!(o.integrity, Integrity::Degraded);
    // degrade → heal → degrade → heal → final (unhealed) degrade.
    assert_eq!(history.len(), 5, "{history:?}");
    assert!(history.last().unwrap().to.is_degraded(), "{history:?}");
    let d = compare::diff(&reference, &o.tree, 0.0);
    assert!(
        d.is_identical(),
        "{} value / {} coverage mismatches",
        d.value_mismatches,
        d.coverage_mismatches
    );
}

/// Seeded plans replay identically: same errors, same counters, same map.
/// (With the default 10 s stall budget every seeded stall is shorter than
/// the producer's patience, so timing cannot change the outcome.)
#[test]
fn seeded_fault_outcomes_are_deterministic() {
    for seed in [1u64, 7, 23, 99] {
        let plan = FaultPlan::from_seed(seed);
        let a = run_parallel(plan, Duration::from_secs(10));
        let b = run_parallel(plan, Duration::from_secs(10));
        assert_eq!(
            format!("{:?}", a.errors),
            format!("{:?}", b.errors),
            "seed {seed}: errors differ between runs"
        );
        assert_eq!(a.counters, b.counters, "seed {seed}");
        assert_eq!(a.integrity, b.integrity, "seed {seed}");
        let d = compare::diff(&a.tree, &b.tree, 0.0);
        assert!(d.is_identical(), "seed {seed}: maps differ between runs");
    }
}

/// The CI matrix leg: `OCTO_FAULT_SEED` selects the plan. Without the
/// variable a default seed runs, so the test is never vacuous.
#[test]
fn env_seeded_fault_honours_the_contract() {
    let seed: u64 = std::env::var("OCTO_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let plan = FaultPlan::from_seed(seed);
    let reference = serial_reference();
    let label = format!("seed {seed} ({plan:?})");
    let o = run_parallel(plan, Duration::from_secs(10));
    assert_contract(&label, &reference, &o);
}
