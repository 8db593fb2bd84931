//! Concurrent snapshot stress suite: reader threads hammer a
//! [`QueryHandle`] while the owning thread keeps mapping, and every
//! snapshot any reader ever observes must be exactly one scan boundary —
//! never a torn blend of two scans.
//!
//! The mechanism: the writer records a per-epoch leaf-checksum table as it
//! publishes (epoch k ↦ digest of the map after scan k). Readers
//! concurrently grab snapshots, digest them twice (immutability), and log
//! `(epoch, checksum)` observations. After the run, every observation must
//! match the writer's table, and each reader's epoch sequence must be
//! monotone — snapshots never go backwards.
//!
//! The same harness also runs against a parallel pipeline whose octree
//! thread is killed mid-run (a [`octocache::FaultPlan`] failpoint): the
//! scan surfaces a typed error, but the handle must keep serving
//! consistent, untorn snapshots throughout, each scan boundary's equal to
//! a clean run's — a dead thread must never wedge or corrupt the read
//! path.

mod common;

use common::{cache, grid, scenario, Scan};
use octocache::pipeline::MappingSystem;
use octocache::{ParallelOctoCache, QueryHandle, SerialOctoCache};
use octocache_geom::VoxelKey;
use octocache_octomap::OccupancyParams;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

const READERS: usize = 4;

/// A reader's log: every `(epoch, checksum)` it observed.
type Observations = Vec<(u64, u64)>;

/// Spins on the handle until `stop`, digesting every snapshot twice and
/// spot-checking that batch answers match singles on the same snapshot.
fn reader_loop(handle: QueryHandle, stop: &AtomicBool) -> Observations {
    let probes: Vec<VoxelKey> = (0..8)
        .map(|i| VoxelKey::new(120 + i * 3, 128, 126 + i))
        .collect();
    let mut seen = Vec::new();
    let mut last_epoch = 0u64;
    while !stop.load(Ordering::Acquire) {
        let snap = handle.snapshot();
        let epoch = snap.epoch();
        assert!(
            epoch >= last_epoch,
            "snapshot went backwards: {epoch} after {last_epoch}"
        );
        last_epoch = epoch;
        let c1 = snap.checksum();
        let c2 = snap.checksum();
        assert_eq!(c1, c2, "snapshot mutated between two reads (epoch {epoch})");
        let (batch, _) = snap.batch_occupancy(&probes);
        for (i, &k) in probes.iter().enumerate() {
            assert_eq!(
                batch[i].map(f32::to_bits),
                snap.occupancy(k).map(f32::to_bits),
                "batch answer diverged from single on one snapshot (epoch {epoch})"
            );
        }
        seen.push((epoch, c1));
    }
    // One final read after the writer stopped: the last boundary persists.
    let snap = handle.snapshot();
    seen.push((snap.epoch(), snap.checksum()));
    seen
}

/// Drives `backend` through `scans` with `READERS` threads hammering the
/// handle, returning (writer's epoch→checksum table, reader observations,
/// scan errors).
fn hammer(
    backend: &mut dyn MappingSystem,
    scans: &[Scan],
) -> (HashMap<u64, u64>, Vec<Observations>, usize) {
    let handle = backend.query_handle();
    let mut table = HashMap::new();
    {
        let snap = handle.snapshot();
        table.insert(snap.epoch(), snap.checksum());
    }
    let stop = AtomicBool::new(false);
    let mut errors = 0usize;
    let logs = thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let h = handle.clone();
                let stop = &stop;
                scope.spawn(move || reader_loop(h, stop))
            })
            .collect();
        for scan in scans {
            if backend
                .insert_scan(scan.origin, &scan.points, 40.0)
                .is_err()
            {
                errors += 1;
            }
            let snap = handle.snapshot();
            table.insert(snap.epoch(), snap.checksum());
        }
        stop.store(true, Ordering::Release);
        readers
            .into_iter()
            .map(|r| r.join().expect("reader panicked"))
            .collect::<Vec<_>>()
    });
    (table, logs, errors)
}

/// Every observation must be in the writer's table, with the matching
/// digest; collectively the readers must have seen the mapping advance.
fn assert_boundary_consistent(
    label: &str,
    table: &HashMap<u64, u64>,
    logs: &[Observations],
    final_epoch: u64,
) {
    let mut max_seen = 0u64;
    for (reader, log) in logs.iter().enumerate() {
        assert!(
            !log.is_empty(),
            "{label}: reader {reader} never observed a snapshot"
        );
        for &(epoch, checksum) in log {
            let expected = table.get(&epoch).unwrap_or_else(|| {
                panic!("{label}: reader {reader} saw unpublished epoch {epoch}")
            });
            assert_eq!(
                checksum, *expected,
                "{label}: reader {reader} observed a torn snapshot at epoch {epoch}"
            );
            max_seen = max_seen.max(epoch);
        }
    }
    assert_eq!(
        max_seen, final_epoch,
        "{label}: no reader ever saw the final published boundary"
    );
}

#[test]
fn readers_never_observe_torn_snapshots_on_serial_backend() {
    let scans = scenario(1009);
    let mut backend = SerialOctoCache::new(grid(), OccupancyParams::default(), cache());
    let (table, logs, errors) = hammer(&mut backend, &scans);
    assert_eq!(errors, 0, "serial backend errored");
    assert_boundary_consistent("serial", &table, &logs, scans.len() as u64);
}

#[test]
fn readers_never_observe_torn_snapshots_on_parallel_backend() {
    let scans = scenario(2005);
    let mut backend = ParallelOctoCache::new(grid(), OccupancyParams::default(), cache());
    let (table, logs, errors) = hammer(&mut backend, &scans);
    assert_eq!(errors, 0, "parallel backend errored");
    assert_boundary_consistent("parallel", &table, &logs, scans.len() as u64);
}

/// A killed octree thread must not wedge the read path or publish a torn
/// or diverged map:
/// scans may surface typed errors and the map may be degraded, but every
/// published epoch still has exactly one digest and the handle keeps
/// serving after the fault.
#[test]
fn killed_worker_does_not_wedge_or_corrupt_snapshots() {
    use octocache::{CacheConfig, FaultPlan};

    let scans = scenario(3301);
    let mut clean = ParallelOctoCache::new(grid(), OccupancyParams::default(), cache());
    let (clean_table, _, _) = hammer(&mut clean, &scans);
    for batch in [0u64, 2] {
        let plan = FaultPlan::from_spec(&format!("kill:1@{batch}")).expect("valid spec");
        let mut b = CacheConfig::builder();
        b.num_buckets(1 << 7).tau(2).fault_plan(plan);
        let config = b.build().unwrap();
        let mut backend = ParallelOctoCache::new(grid(), OccupancyParams::default(), config);
        let (table, logs, errors) = hammer(&mut backend, &scans);
        let label = format!("parallel kill:1@{batch}");
        assert_eq!(errors, 1, "{label}: the kill must surface once");
        assert_boundary_consistent(&label, &table, &logs, scans.len() as u64);
        // Every scan boundary publishes the clean run's map.
        assert_eq!(table, clean_table, "{label}: a boundary diverged");
        // The handle still answers after the fault and the final map is
        // still queryable through it.
        let handle = backend.query_handle();
        let snap = handle.snapshot();
        assert_eq!(snap.epoch(), scans.len() as u64);
        let _ = snap.occupancy(VoxelKey::new(128, 128, 128));
    }
}
