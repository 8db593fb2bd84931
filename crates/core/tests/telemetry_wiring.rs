//! Integration tests for the telemetry layer wired through the backends.
//!
//! The key invariant: attaching a recorder is pure observation — the maps a
//! backend produces are bit-identical with and without one (the
//! `NullRecorder`-equivalence requirement), and the per-scan records agree
//! with the `ScanReport`s the caller already sees.

use octocache::pipeline::{MappingSystem, OctoMapSystem, RayTracer};
use octocache::{
    CacheConfig, CacheStats, NullRecorder, ParallelOctoCache, SerialOctoCache, SharedRecorder,
};
use octocache_geom::{Point3, VoxelGrid};
use octocache_octomap::{compare, OccupancyParams};
use octocache_telemetry::EventKind;

fn grid() -> VoxelGrid {
    VoxelGrid::new(0.5, 8).unwrap()
}

fn cache_config() -> CacheConfig {
    CacheConfig::builder()
        .num_buckets(1 << 8)
        .tau(2)
        .build()
        .unwrap()
}

/// A deterministic multi-scan workload with duplicated observations.
fn scans() -> Vec<(Point3, Vec<Point3>)> {
    (0..6)
        .map(|s| {
            let origin = Point3::new(0.0, s as f64 * 0.25, 0.0);
            let cloud = (0..50)
                .map(|i| Point3::new(6.0, -1.5 + i as f64 * 0.06 + s as f64 * 0.02, 0.25))
                .collect();
            (origin, cloud)
        })
        .collect()
}

/// Runs the workload and returns the completed tree.
fn build<M: MappingSystem>(mut map: M, recorded: bool) -> octocache_octomap::OccupancyOcTree
where
    Box<M>: MappingSystem,
{
    if recorded {
        map.set_recorder(Box::new(NullRecorder));
    }
    for (origin, cloud) in scans() {
        map.insert_scan(origin, &cloud, 30.0).unwrap();
    }
    Box::new(map).take_tree()
}

#[test]
fn null_recorder_equivalence_all_backends() {
    let grid = grid();
    let params = OccupancyParams::default();
    let plain: Vec<Box<dyn MappingSystem>> = vec![
        Box::new(OctoMapSystem::new(grid, params)),
        Box::new(SerialOctoCache::new(grid, params, cache_config())),
        Box::new(ParallelOctoCache::new(grid, params, cache_config())),
    ];
    let recorded: Vec<Box<dyn MappingSystem>> = vec![
        Box::new(OctoMapSystem::new(grid, params)),
        Box::new(SerialOctoCache::new(grid, params, cache_config())),
        Box::new(ParallelOctoCache::new(grid, params, cache_config())),
    ];
    for (a, b) in plain.into_iter().zip(recorded) {
        let name = a.name();
        let tree_plain = build(a, false);
        let tree_recorded = build(b, true);
        let d = compare::diff(&tree_plain, &tree_recorded, 1e-6);
        assert!(
            d.is_identical(),
            "{name}: maps diverge with a recorder attached: {} value / {} coverage mismatches",
            d.value_mismatches,
            d.coverage_mismatches
        );
    }
}

#[test]
fn scan_records_agree_with_scan_reports() {
    let grid = grid();
    let params = OccupancyParams::default();
    let backends: Vec<Box<dyn MappingSystem>> = vec![
        Box::new(OctoMapSystem::new(grid, params)),
        Box::new(SerialOctoCache::new(grid, params, cache_config())),
        Box::new(SerialOctoCache::with_ray_tracer(
            grid,
            params,
            cache_config(),
            RayTracer::Dedup,
        )),
        Box::new(ParallelOctoCache::new(grid, params, cache_config())),
    ];
    for mut map in backends {
        let name = map.name();
        let recorder = SharedRecorder::new();
        map.set_recorder(Box::new(recorder.clone()));
        let mut reports = Vec::new();
        for (origin, cloud) in scans() {
            reports.push(map.insert_scan(origin, &cloud, 30.0).unwrap());
        }
        let records = recorder.records();
        assert_eq!(records.len(), reports.len(), "{name}");
        let cached = name != "octomap";
        for (i, (record, report)) in records.iter().zip(&reports).enumerate() {
            assert_eq!(record.seq, i as u64, "{name}");
            assert_eq!(record.backend, name);
            assert_eq!(record.observations, report.observations as u64, "{name}");
            assert_eq!(record.cache_hits, report.cache_hits, "{name}");
            assert_eq!(record.times, report.times, "{name}");
            // A cache backend's octree updates are its evictions; the
            // baseline applies every observation.
            let updates = if cached {
                record.cache_evictions
            } else {
                record.observations
            };
            assert_eq!(updates, report.octree_updates as u64, "{name} scan {i}");
            assert!(record.cache_insertions >= record.cache_hits, "{name}");
            assert!(
                record.octree_leaf_updates > 0 || record.cache_evictions == 0,
                "{name}"
            );
            assert_eq!(cached, record.cache_insertions > 0, "{name} scan {i}");
        }
    }
    // The trait-level counters match the cache's own view.
    let mut map = SerialOctoCache::new(grid, params, cache_config());
    for (origin, cloud) in scans() {
        map.insert_scan(origin, &cloud, 30.0).unwrap();
    }
    let via_trait = MappingSystem::cache_stats(&map).unwrap();
    assert_eq!(&via_trait, map.cache_stats());
}

#[test]
fn parallel_records_queue_depth_and_worker_time() {
    // Tiny tau: every scan evicts, so every hand-off carries cells.
    let cfg = CacheConfig::builder()
        .num_buckets(1 << 6)
        .tau(1)
        .events(true)
        .build()
        .unwrap();
    let mut map = ParallelOctoCache::new(grid(), OccupancyParams::default(), cfg);
    let recorder = SharedRecorder::new();
    map.set_recorder(Box::new(recorder.clone()));
    for (origin, cloud) in scans() {
        map.insert_scan(origin, &cloud, 30.0).unwrap();
    }
    // One hand-off per scan: one message on the worker's lane, whatever
    // the batch size (taken before `finish`, whose two flush batches
    // carry the last scan's stamp).
    let log = map.take_events().expect("events enabled");
    for scan in 0..scans().len() as u64 {
        let enqueues = log
            .events
            .iter()
            .filter(|e| e.kind == EventKind::QueueEnqueue && e.worker == 1 && e.scan == scan)
            .count();
        assert_eq!(enqueues, 1, "scan {scan}");
    }
    map.finish();
    let records = recorder.records();
    assert!(records.iter().all(|r| r.queue_depth_enqueue == 1));
    // Worker time rides on the scans that waited for it, and the totals
    // cover it (the dequeue+octree_update of every applied batch).
    let summed: std::time::Duration = records.iter().map(|r| r.times.octree_update).sum();
    assert!(map.phase_times().octree_update >= summed);
}

#[test]
fn cache_stats_since_and_merge() {
    let base = CacheStats {
        insertions: 100,
        hits: 60,
        misses: 40,
        octree_seeds: 10,
        evictions: 20,
        query_hits: 5,
        query_misses: 1,
    };
    let mut later = base;
    later.insertions += 50;
    later.hits += 30;
    later.misses += 20;
    later.evictions += 7;

    let delta = later.since(&base);
    assert_eq!(delta.insertions, 50);
    assert_eq!(delta.hits, 30);
    assert_eq!(delta.misses, 20);
    assert_eq!(delta.evictions, 7);
    assert_eq!(delta.octree_seeds, 0);

    // since() then merge() restores the later snapshot.
    let mut rebuilt = base;
    rebuilt.merge(&delta);
    assert_eq!(rebuilt, later);

    // A reset between snapshots saturates to zero instead of wrapping.
    let after_reset = CacheStats::default().since(&base);
    assert_eq!(after_reset, CacheStats::default());
}
