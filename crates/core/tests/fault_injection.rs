//! Differential fault injection suite for the parallel pipeline, part of
//! the plain `cargo test` run: named plans plus a sweep over seeded ones.
//!
//! The contract under test: under every fault plan, `ParallelOctoCache`
//! produces a map voxel-for-voxel identical to the serial backend's. A
//! panicking octree thread costs only time — its batch is re-applied inline
//! and the scan returns `WorkerPanicked` once — and a failed spawn costs
//! not even an error. The outcome is deterministic given the plan.

use octocache::pipeline::MappingSystem;
use octocache::{
    CacheConfig, FaultCounters, FaultPlan, ParallelOctoCache, PipelineError, SerialOctoCache,
    SharedRecorder,
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
fn config(plan: Option<FaultPlan>) -> CacheConfig {
    let mut b = CacheConfig::builder();
    b.num_buckets(1 << 6).tau(1);
    if let Some(p) = plan {
        b.fault_plan(p);
    }
    b.build().unwrap()
}

fn serial_reference() -> OccupancyOcTree {
    let mut s = SerialOctoCache::new(grid(), OccupancyParams::default(), config(None));
    for (origin, cloud) in scans() {
        s.insert_scan(origin, &cloud, 40.0).expect("valid scan");
    }
    Box::new(s).take_tree()
}

/// Batches a run of [`scans`] hands over: one per scan, and the two of
/// `finish` (the pending eviction batch, then the drain).
fn batches() -> u64 {
    scans().len() as u64 + 2
}

struct Outcome {
    errors: Vec<PipelineError>,
    counters: FaultCounters,
    tree: OccupancyOcTree,
}

fn run_parallel(plan: FaultPlan) -> Outcome {
    let mut s = ParallelOctoCache::new(grid(), OccupancyParams::default(), config(Some(plan)));
    let mut errors = Vec::new();
    for (origin, cloud) in scans() {
        if let Err(e) = s.insert_scan(origin, &cloud, 40.0) {
            errors.push(e);
        }
    }
    s.finish();
    let counters = s.fault_counters();
    Outcome {
        errors,
        counters,
        tree: s.into_tree(),
    }
}

/// The acceptance contract: the map is identical to the serial one, and
/// the only error is an octree-thread panic, one per scan that met one.
fn assert_contract(label: &str, reference: &OccupancyOcTree, o: &Outcome) {
    let d = compare::diff(reference, &o.tree, 0.0);
    assert!(
        d.is_identical(),
        "{label}: {} value / {} coverage mismatches",
        d.value_mismatches,
        d.coverage_mismatches
    );
    for e in &o.errors {
        assert!(
            matches!(e, PipelineError::WorkerPanicked { .. }),
            "{label}: {e:?}"
        );
    }
    assert!(
        o.errors.len() as u64 <= o.counters.worker_panics,
        "{label}: {:?} for {:?}",
        o.errors,
        o.counters
    );
}

#[test]
fn killed_worker_recovers_exactly() {
    let reference = serial_reference();
    // A plan's worker index names the one octree thread, whatever it is.
    for worker in [0usize, 7] {
        for batch in [0u64, 1, 3] {
            let plan = FaultPlan::from_spec(&format!("kill:{worker}@{batch}")).unwrap();
            let label = format!("kill:{worker}@{batch}");
            let o = run_parallel(plan);
            assert_contract(&label, &reference, &o);
            // The batch is re-applied, the panic surfaced once, typed.
            assert_eq!(o.counters.worker_panics, 1, "{label}");
            assert_eq!(
                o.errors,
                [PipelineError::WorkerPanicked { batch }],
                "{label}"
            );
        }
    }
}

/// Kills `finish` meets, and a kill on every batch: the map is exact, and
/// every panic is counted.
#[test]
fn kills_in_finish_and_on_every_batch_recover_exactly() {
    let reference = serial_reference();
    let drain = batches() - 1;
    let o = run_parallel(FaultPlan::from_spec(&format!("kill:0@{drain}")).unwrap());
    assert_contract("kill on the drain batch", &reference, &o);
    assert_eq!(o.counters.worker_panics, 1);
    // `finish` returns no error: the panic shows in the counters only.
    assert!(o.errors.is_empty(), "{:?}", o.errors);
    assert!(o.counters.cells_reapplied > 0, "{:?}", o.counters);

    let o = run_parallel(FaultPlan::from_spec("killevery:0@1").unwrap());
    assert_contract("killevery:0@1", &reference, &o);
    assert_eq!(o.counters.worker_panics, batches(), "{:?}", o.counters);
    assert_eq!(o.errors.len(), scans().len(), "{:?}", o.errors);
}

#[test]
fn spawn_failure_degrades_without_errors() {
    let reference = serial_reference();
    for worker in [0usize, 3] {
        let plan = FaultPlan::from_spec(&format!("spawn:{worker}")).unwrap();
        let label = format!("spawn:{worker}");
        let o = run_parallel(plan);
        assert_contract(&label, &reference, &o);
        // Inline fallback: every scan succeeds, the map is exact, and
        // every batch's failed spawn is visible in the counters, with the
        // cells applied inline.
        assert!(o.errors.is_empty(), "{label}: {:?}", o.errors);
        assert_eq!(o.counters.spawn_failures, batches(), "{label}");
        assert_eq!(o.counters.worker_panics, 0, "{label}");
        assert!(
            o.counters.batches_rerouted >= 1,
            "{label}: {:?}",
            o.counters
        );
        assert!(o.counters.cells_reapplied > 0, "{label}: {:?}", o.counters);
    }
}

/// One kill: the scan after it spawns an octree thread again, which does
/// the work (its busy time shows in the trace), and the map stays exact.
#[test]
fn respawned_worker_heals_and_map_stays_exact() {
    let reference = serial_reference();
    let plan = FaultPlan::from_spec("kill:0@1").unwrap();
    let mut s = ParallelOctoCache::new(grid(), OccupancyParams::default(), config(Some(plan)));
    let recorder = SharedRecorder::new();
    s.set_recorder(Box::new(recorder.clone()));
    let results: Vec<_> = scans()
        .into_iter()
        .map(|(origin, cloud)| s.insert_scan(origin, &cloud, 40.0))
        .collect();
    s.finish();
    assert_eq!(results[1], Err(PipelineError::WorkerPanicked { batch: 1 }));
    assert!(results.iter().enumerate().all(|(i, r)| i == 1 || r.is_ok()));
    let records = recorder.records();
    assert_eq!(records.len(), scans().len());
    assert_eq!(records[1].worker_panics, 1);
    assert!(records[1].batches_rerouted == 1, "{:?}", records[1]);
    for r in &records[2..] {
        assert!(r.worker_busy_ns[0] > 0, "scan {}: {r:?}", r.seq);
        assert_eq!((r.worker_panics, r.batches_rerouted), (0, 0));
    }
    let d = compare::diff(&reference, &s.into_tree(), 0.0);
    assert!(
        d.is_identical(),
        "{} value / {} coverage mismatches",
        d.value_mismatches,
        d.coverage_mismatches
    );
}

/// Seeded plans replay identically: same errors, same counters, same map.
#[test]
fn seeded_fault_outcomes_are_deterministic() {
    for seed in [1u64, 7, 23, 99] {
        let plan = FaultPlan::from_seed(seed);
        let a = run_parallel(plan);
        let b = run_parallel(plan);
        assert_eq!(
            format!("{:?}", a.errors),
            format!("{:?}", b.errors),
            "seed {seed}: errors differ between runs"
        );
        assert_eq!(a.counters, b.counters, "seed {seed}");
        let d = compare::diff(&a.tree, &b.tree, 0.0);
        assert!(d.is_identical(), "seed {seed}: maps differ between runs");
    }
}

/// Seeded plans under the contract. [`FaultPlan::from_seed`] draws each
/// plan's kind from its seed, so the sweep also checks which kinds it ran:
/// a kill, a spawn failure and a clean run, each injected fault counted
/// (a kill once, a failed spawn once per batch) and every run leaving the
/// map exact.
#[test]
fn seeded_fault_sweep_honours_the_contract() {
    let reference = serial_reference();
    let (mut kills, mut spawns, mut clean) = (0, 0, 0);
    for seed in (0..=8).chain([23]) {
        let plan = FaultPlan::from_seed(seed);
        let label = format!("seed {seed} ({plan:?})");
        let o = run_parallel(plan);
        assert_contract(&label, &reference, &o);
        if plan.kill.is_some() {
            kills += 1;
            assert_eq!(o.counters.worker_panics, 1, "{label}: {:?}", o.counters);
            assert_eq!(o.errors.len(), 1, "{label}: {:?}", o.errors);
        } else if plan.fail_spawn {
            spawns += 1;
            assert_eq!(
                o.counters.spawn_failures,
                batches(),
                "{label}: {:?}",
                o.counters
            );
            assert!(o.counters.cells_reapplied > 0, "{label}: {:?}", o.counters);
            assert!(o.errors.is_empty(), "{label}: {:?}", o.errors);
        } else {
            assert_eq!(plan, FaultPlan::default(), "{label}");
            clean += 1;
            assert!(o.errors.is_empty(), "{label}: {:?}", o.errors);
            assert!(!o.counters.any(), "{label}: {:?}", o.counters);
        }
    }
    for (kind, n) in [("kill", kills), ("spawn", spawns), ("clean", clean)] {
        assert!(n > 0, "no seed drew a {kind} plan");
    }
}
