//! Crash-torture battery for the durable checkpoint + journal subsystem.
//!
//! Every test follows the same differential shape: compute the reference
//! leaf checksum of the baseline map after each scan prefix, run a durable
//! backend under a deterministic [`IoFaultPlan`] (process kills at each
//! [`KillPoint`], short writes, bit flips), then [`durable::recover`] and
//! assert the recovered tree bit-matches the reference prefix at the
//! reported `final_epoch`. The matrix sweeps all four backends, every kill
//! point and several operation indices (journal appends, checkpoint file writes and manifest publications all land on
//! distinct op slots), plus 46 seed-derived plans.

mod common;

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use common::{cache, grid, scenario, Scan};
use octocache::durable::{self, DurableError, DurableMap, IoFaultPlan, KillPoint};
use octocache::fault::PipelineError;
use octocache::pipeline::{MappingSystem, OctoMapSystem, RayTracer};
use octocache::{CacheConfig, ParallelOctoCache, SerialOctoCache};
use octocache_octomap::{insert, rt, OccupancyOcTree, OccupancyParams};

const MAX_RANGE: f64 = 40.0;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("octo-torture-{tag}-{}-{seq}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Durability knobs used throughout: a checkpoint every 3 scans keeps the
/// op schedule dense (journal appends interleaved with checkpoint file +
/// manifest writes); the store's 3 generations give fallback room.
fn durable_config() -> CacheConfig {
    CacheConfig::builder().checkpoint_every(3).build().unwrap()
}

/// `prefix[n]` = leaf checksum of the baseline map after the first `n`
/// scans, computed through the exact insert path recovery replays.
fn prefix_checksums(scans: &[Scan], ray_tracer: RayTracer) -> Vec<u64> {
    let mut tree = OccupancyOcTree::new(grid(), OccupancyParams::default());
    let mut batch = insert::VoxelBatch::new();
    let mut out = vec![tree.leaf_checksum()];
    for scan in scans {
        insert::compute_update(
            tree.grid(),
            scan.origin,
            &scan.points,
            MAX_RANGE,
            &mut batch,
        )
        .expect("scenario scans stay inside the grid");
        match ray_tracer {
            RayTracer::Standard => insert::apply_batch(&mut tree, &batch),
            RayTracer::Dedup => {
                let deduped = rt::dedup_batch(&batch);
                insert::apply_batch(&mut tree, &deduped);
            }
        }
        out.push(tree.leaf_checksum());
    }
    out
}

/// The backend roster tortured by the full matrix (one per architecture).
fn torture_backends() -> Vec<(String, Box<dyn MappingSystem>)> {
    let params = OccupancyParams::default();
    vec![
        (
            "octomap".to_string(),
            Box::new(OctoMapSystem::new(grid(), params)) as Box<dyn MappingSystem>,
        ),
        (
            "serial".to_string(),
            Box::new(SerialOctoCache::new(grid(), params, cache())),
        ),
        (
            "parallel".to_string(),
            Box::new(ParallelOctoCache::new(grid(), params, cache())),
        ),
    ]
}

#[derive(Debug, PartialEq, Eq)]
enum RunEnd {
    /// The injected kill fired; the map was dropped without sealing.
    Crashed,
    /// Every scan was inserted without the plan firing a kill.
    Completed,
}

/// Feeds `scans` through a durable wrapper over `backend` with the given
/// fault plan, simulating process death at the first injected crash (drop
/// without seal). Panics on any error other than the injected one.
fn run_with_plan(
    dir: &PathBuf,
    backend: Box<dyn MappingSystem>,
    ray_tracer: RayTracer,
    plan: IoFaultPlan,
    scans: &[Scan],
) -> RunEnd {
    let params = OccupancyParams::default();
    let mut map = match DurableMap::create_with_io_faults(
        dir,
        backend,
        params,
        ray_tracer,
        &durable_config(),
        Some(plan),
    ) {
        Ok(m) => m,
        Err(DurableError::InjectedCrash { .. }) => return RunEnd::Crashed,
        Err(e) => panic!("unexpected create error: {e}"),
    };
    for scan in scans {
        match map.insert_scan(scan.origin, &scan.points, MAX_RANGE) {
            Ok(_) => {}
            Err(PipelineError::Durable(DurableError::InjectedCrash { .. })) => {
                return RunEnd::Crashed;
            }
            Err(e) => panic!("unexpected scan error: {e}"),
        }
    }
    RunEnd::Completed
}

/// Recovers `dir` and asserts the tree bit-matches the reference prefix at
/// the reported epoch. Returns the report for extra assertions.
fn assert_recovers_to_prefix(
    dir: &PathBuf,
    prefix: &[u64],
    label: &str,
) -> durable::RecoveryReport {
    let (tree, report) =
        durable::recover(dir).unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    let n = report.final_epoch as usize;
    assert!(
        n < prefix.len(),
        "{label}: recovered epoch {n} beyond the {} attempted scans",
        prefix.len() - 1
    );
    assert_eq!(
        tree.leaf_checksum(),
        prefix[n],
        "{label}: recovered map diverges from the crash-free {n}-scan reference"
    );
    assert_eq!(
        report.leaf_checksum,
        tree.leaf_checksum(),
        "{label}: report checksum disagrees with the returned tree"
    );
    report
}

#[test]
fn kill_matrix_recovers_to_durable_prefix_on_all_backends() {
    let scans = scenario(1);
    let prefix = prefix_checksums(&scans, RayTracer::Standard);
    // Ops with checkpoint_every(3): 0 = journal creation, appends at
    // 1,2,3, checkpoint (file + manifest) at 4,5, appends at 6,7,8, ...
    // so the swept ops hit an early append, a manifest write, and a
    // mid-run append.
    for point in KillPoint::ALL {
        for op in [1u64, 5, 8] {
            for (name, backend) in torture_backends() {
                let label = format!("{name}/kill:{point}@{op}");
                let dir = temp_dir("kill");
                let plan = IoFaultPlan {
                    kill: Some((op, point)),
                    flip: None,
                };
                let end = run_with_plan(&dir, backend, RayTracer::Standard, plan, &scans);
                assert_eq!(end, RunEnd::Crashed, "{label}: kill never fired");
                let report = assert_recovers_to_prefix(&dir, &prefix, &label);
                assert!(report.final_epoch <= scans.len() as u64, "{label}");
                fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
}

#[test]
fn mid_write_kill_leaves_torn_tail_that_truncates_cleanly() {
    let scans = scenario(1);
    let prefix = prefix_checksums(&scans, RayTracer::Standard);
    let dir = temp_dir("torn");
    let plan = IoFaultPlan {
        // Op 1 is the first scan's journal append: killing mid-write
        // leaves half a frame on disk.
        kill: Some((1, KillPoint::MidWrite)),
        flip: None,
    };
    let backend = Box::new(OctoMapSystem::new(grid(), OccupancyParams::default()));
    let end = run_with_plan(&dir, backend, RayTracer::Standard, plan, &scans);
    assert_eq!(end, RunEnd::Crashed);
    let report = assert_recovers_to_prefix(&dir, &prefix, "torn-tail");
    assert_eq!(report.final_epoch, 0, "half a frame must not count");
    assert!(report.tail_dropped_bytes > 0, "torn bytes must be reported");
    assert!(!report.is_clean());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flips_recover_to_durable_prefix() {
    let scans = scenario(2);
    let prefix = prefix_checksums(&scans, RayTracer::Standard);
    // Ops 1..3 corrupt journal frames, op 4 the checkpoint file, op 5 the
    // manifest; bits probe the frame header, an early payload byte and a
    // deep payload byte (modulo payload length).
    for op in [1u64, 2, 4, 5, 7] {
        for bit in [0u64, 9, 4095] {
            for (name, backend) in [
                (
                    "octomap",
                    Box::new(OctoMapSystem::new(grid(), OccupancyParams::default()))
                        as Box<dyn MappingSystem>,
                ),
                (
                    "serial",
                    Box::new(SerialOctoCache::new(
                        grid(),
                        OccupancyParams::default(),
                        cache(),
                    )),
                ),
            ] {
                let label = format!("{name}/flip:{bit}@{op}");
                let dir = temp_dir("flip");
                let plan = IoFaultPlan {
                    kill: None,
                    flip: Some((op, bit)),
                };
                // No seal: a final clean checkpoint would mask the damage.
                let end = run_with_plan(&dir, backend, RayTracer::Standard, plan, &scans);
                assert_eq!(end, RunEnd::Completed, "{label}: flips never kill");
                assert_recovers_to_prefix(&dir, &prefix, &label);
                fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
}

#[test]
fn corrupted_newest_checkpoint_falls_back_a_generation() {
    let scans = scenario(3);
    let prefix = prefix_checksums(&scans, RayTracer::Standard);
    let dir = temp_dir("ckptrot");
    let backend = Box::new(OctoMapSystem::new(grid(), OccupancyParams::default()));
    let end = run_with_plan(
        &dir,
        backend,
        RayTracer::Standard,
        IoFaultPlan::default(),
        &scans,
    );
    assert_eq!(end, RunEnd::Completed);

    // Checkpoints were taken at epochs 3, 6 and 9 (no seal). Rot a byte in
    // the middle of the newest one.
    let ckpt_dir = durable::checkpoint_dir(&dir);
    let newest = ckpt_dir.join(format!("ckpt-{:016}.ot", 9));
    let mut bytes = fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&newest, &bytes).unwrap();

    let report = assert_recovers_to_prefix(&dir, &prefix, "ckpt-rot");
    assert!(
        !report.checkpoints_skipped.is_empty(),
        "the rotted generation must be reported as skipped: {report:?}"
    );
    assert_eq!(report.checkpoint_epoch, Some(6), "fallback generation");
    assert_eq!(report.records_replayed, 4, "epochs 7..=10 replayed");
    assert_eq!(report.final_epoch, scans.len() as u64);
    assert!(!report.is_clean());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_manifest_falls_back_to_directory_scan() {
    let scans = scenario(4);
    let prefix = prefix_checksums(&scans, RayTracer::Standard);
    let dir = temp_dir("manifestrot");
    let backend = Box::new(OctoMapSystem::new(grid(), OccupancyParams::default()));
    let end = run_with_plan(
        &dir,
        backend,
        RayTracer::Standard,
        IoFaultPlan::default(),
        &scans,
    );
    assert_eq!(end, RunEnd::Completed);

    let manifest = durable::checkpoint_dir(&dir).join("MANIFEST");
    fs::write(&manifest, b"not a manifest at all").unwrap();

    let report = assert_recovers_to_prefix(&dir, &prefix, "manifest-rot");
    assert_eq!(
        report.checkpoint_epoch,
        Some(9),
        "directory scan must still find the newest valid checkpoint"
    );
    assert_eq!(report.final_epoch, scans.len() as u64);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn clean_sealed_runs_recover_as_noop_on_all_backends() {
    let scans = scenario(5);
    let prefix = prefix_checksums(&scans, RayTracer::Standard);
    let params = OccupancyParams::default();
    for (name, backend) in torture_backends() {
        let label = format!("{name}/clean");
        let dir = temp_dir("clean");
        let mut map = DurableMap::create(
            &dir,
            backend,
            params,
            RayTracer::Standard,
            &durable_config(),
        )
        .unwrap();
        for scan in &scans {
            map.insert_scan(scan.origin, &scan.points, MAX_RANGE)
                .unwrap();
        }
        map.seal().unwrap();
        drop(map);
        let report = assert_recovers_to_prefix(&dir, &prefix, &label);
        assert!(report.is_clean(), "{label}: {report:?}");
        assert_eq!(report.records_replayed, 0, "{label}: seal leaves no tail");
        assert_eq!(report.tail_dropped_bytes, 0, "{label}");
        assert_eq!(report.checkpoint_epoch, Some(scans.len() as u64), "{label}");
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn resume_after_crash_completes_to_crash_free_reference() {
    let scans = scenario(6);
    let prefix = prefix_checksums(&scans, RayTracer::Standard);
    for (name, backend) in torture_backends() {
        let label = format!("{name}/resume");
        let dir = temp_dir("resume");
        let plan = IoFaultPlan {
            kill: Some((4, KillPoint::AfterWrite)),
            flip: None,
        };
        let end = run_with_plan(&dir, backend, RayTracer::Standard, plan, &scans);
        assert_eq!(end, RunEnd::Crashed, "{label}");

        let config = CacheConfig::builder().checkpoint_every(3).build().unwrap();
        let (mut resumed, report) = DurableMap::resume(&dir, &config).unwrap();
        let done = report.final_epoch as usize;
        assert!(done < scans.len(), "{label}: crash fired before the end");
        for scan in &scans[done..] {
            resumed
                .insert_scan(scan.origin, &scan.points, MAX_RANGE)
                .unwrap();
        }
        resumed.seal().unwrap();
        assert_eq!(resumed.epoch(), scans.len() as u64, "{label}");
        drop(resumed);

        let report = assert_recovers_to_prefix(&dir, &prefix, &label);
        assert_eq!(report.final_epoch, scans.len() as u64, "{label}");
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn dedup_ray_tracer_replays_through_dedup_path() {
    let scans = scenario(7);
    let prefix = prefix_checksums(&scans, RayTracer::Dedup);
    let params = OccupancyParams::default();
    for (name, backend) in [
        (
            "octomap-rt",
            Box::new(OctoMapSystem::with_ray_tracer(
                grid(),
                params,
                RayTracer::Dedup,
            )) as Box<dyn MappingSystem>,
        ),
        (
            "serial-rt",
            Box::new(SerialOctoCache::with_ray_tracer(
                grid(),
                params,
                cache(),
                RayTracer::Dedup,
            )),
        ),
    ] {
        let label = format!("{name}/dedup");
        let dir = temp_dir("dedup");
        let plan = IoFaultPlan {
            kill: Some((5, KillPoint::MidWrite)),
            flip: None,
        };
        let end = run_with_plan(&dir, backend, RayTracer::Dedup, plan, &scans);
        assert_eq!(end, RunEnd::Crashed, "{label}");
        let report = assert_recovers_to_prefix(&dir, &prefix, &label);
        assert_eq!(report.ray_tracer, RayTracer::Dedup, "{label}");
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn seeded_plans_recover_or_fail_typed() {
    // Odd seeds flip a bit and even seeds kill at a derived kill point, on
    // a derived op slot in 0..24 (journal creation included): 23 plans of
    // each kind.
    let scans = scenario(8);
    let prefix = prefix_checksums(&scans, RayTracer::Standard);
    for seed in 1..=46 {
        let plan = IoFaultPlan::from_seed(seed);
        let label = format!("seed {seed} ({plan:?})");
        let dir = temp_dir("seeded");
        let backend = Box::new(OctoMapSystem::new(grid(), OccupancyParams::default()));
        run_with_plan(&dir, backend, RayTracer::Standard, plan, &scans);
        match durable::recover(&dir) {
            Ok((tree, report)) => {
                let n = report.final_epoch as usize;
                assert!(n < prefix.len(), "{label}");
                assert_eq!(tree.leaf_checksum(), prefix[n], "{label}");
            }
            // A kill on op 0 dies creating the journal: nothing durable
            // exists yet, and recovery says so with a typed error.
            Err(DurableError::Missing { .. }) => {
                assert!(
                    matches!(plan.kill, Some((0, p)) if p != KillPoint::AfterRename),
                    "{label}: Missing is only legitimate for a creation-time kill"
                );
            }
            // A flip on op 0 rots the journal header itself: unrecoverable
            // by design, reported as corruption rather than a wrong map.
            Err(DurableError::Corrupt { .. }) => {
                assert!(
                    matches!(plan.flip, Some((0, _))),
                    "{label}: Corrupt is only legitimate for a header flip"
                );
            }
            Err(e) => panic!("{label}: unexpected recovery error: {e}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
