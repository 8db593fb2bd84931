//! Cross-crate integration tests of the paper's core guarantee: every
//! OctoCache variant answers occupancy queries exactly like vanilla OctoMap,
//! both mid-stream (cache + octree) and after a final flush (octree only).

use octocache_repro::datasets::{Dataset, DatasetConfig};
use octocache_repro::geom::{Point3, VoxelGrid, VoxelKey};
use octocache_repro::octocache::pipeline::{MappingSystem, OctoMapSystem, RayTracer};
use octocache_repro::octocache::{CacheConfig, ParallelOctoCache, SerialOctoCache};
use octocache_repro::octomap::OccupancyParams;

fn grid() -> VoxelGrid {
    VoxelGrid::new(0.2, 16).unwrap()
}

fn small_cache() -> CacheConfig {
    // Deliberately small so evictions happen constantly.
    CacheConfig::builder()
        .num_buckets(1 << 8)
        .tau(2)
        .build()
        .unwrap()
}

/// Sampled keys covering the corridor region of the tiny dataset.
fn probe_keys() -> Vec<VoxelKey> {
    let mut keys = Vec::new();
    for x in (32730..32970).step_by(7) {
        for y in (32740..32800).step_by(5) {
            keys.push(VoxelKey::new(x, y, 32775));
        }
    }
    keys
}

#[test]
fn all_backends_agree_with_octomap_after_flush() {
    let seq = Dataset::Fr079Corridor.generate(&DatasetConfig::tiny());
    let params = OccupancyParams::default();

    let mut reference = OctoMapSystem::new(grid(), params);
    let mut serial = SerialOctoCache::new(grid(), params, small_cache());
    let mut parallel = ParallelOctoCache::new(grid(), params, small_cache());

    for scan in seq.scans() {
        reference
            .insert_scan(scan.origin, &scan.points, seq.max_range())
            .unwrap();
        serial
            .insert_scan(scan.origin, &scan.points, seq.max_range())
            .unwrap();
        parallel
            .insert_scan(scan.origin, &scan.points, seq.max_range())
            .unwrap();
    }
    serial.finish();
    parallel.finish();

    let mut mismatches = 0;
    for key in probe_keys() {
        let want = reference.occupancy(key);
        for (name, got) in [
            ("serial", serial.occupancy(key)),
            ("parallel", parallel.occupancy(key)),
        ] {
            match (want, got) {
                (None, None) => {}
                (Some(a), Some(b)) if (a - b).abs() < 1e-4 => {}
                other => {
                    eprintln!("{name} mismatch at {key}: {other:?}");
                    mismatches += 1;
                }
            }
        }
    }
    assert_eq!(mismatches, 0);
}

#[test]
fn rt_backends_agree_with_octomap_rt() {
    let seq = Dataset::Fr079Corridor.generate(&DatasetConfig::tiny());
    let params = OccupancyParams::default();

    let mut reference = OctoMapSystem::with_ray_tracer(grid(), params, RayTracer::Dedup);
    let mut serial =
        SerialOctoCache::with_ray_tracer(grid(), params, small_cache(), RayTracer::Dedup);

    for scan in seq.scans() {
        reference
            .insert_scan(scan.origin, &scan.points, seq.max_range())
            .unwrap();
        serial
            .insert_scan(scan.origin, &scan.points, seq.max_range())
            .unwrap();
    }
    serial.finish();

    for key in probe_keys() {
        let want = reference.occupancy(key);
        let got = serial.occupancy(key);
        match (want, got) {
            (None, None) => {}
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-4, "{key}: {a} vs {b}"),
            other => panic!("{key}: {other:?}"),
        }
    }
}

#[test]
fn mid_stream_queries_match_octomap() {
    // After EVERY scan (not just at the end), cached backends must answer
    // like OctoMap — the paper's query-consistency guarantee.
    let seq = Dataset::Fr079Corridor.generate(&DatasetConfig::tiny());
    let params = OccupancyParams::default();

    let mut reference = OctoMapSystem::new(grid(), params);
    let mut serial = SerialOctoCache::new(grid(), params, small_cache());
    let mut parallel = ParallelOctoCache::new(grid(), params, small_cache());
    let probes = probe_keys();

    for scan in seq.scans() {
        reference
            .insert_scan(scan.origin, &scan.points, seq.max_range())
            .unwrap();
        serial
            .insert_scan(scan.origin, &scan.points, seq.max_range())
            .unwrap();
        parallel
            .insert_scan(scan.origin, &scan.points, seq.max_range())
            .unwrap();

        for &key in probes.iter().step_by(11) {
            let want = reference.occupancy(key);
            let got_s = serial.occupancy(key);
            let got_p = parallel.occupancy(key);
            for (name, got) in [("serial", got_s), ("parallel", got_p)] {
                match (want, got) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert!((a - b).abs() < 1e-4, "{name} {key}: {a} vs {b}")
                    }
                    other => panic!("{name} {key}: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn map_diff_certifies_bitwise_identity() {
    // The EXPERIMENTS.md certification: after identical scan streams, the
    // flushed OctoCache trees are voxel-for-voxel identical to OctoMap's.
    use octocache_repro::octocache::pipeline::MappingSystem as _;
    use octocache_repro::octomap::compare;

    let seq = Dataset::NewCollege.generate(&DatasetConfig::tiny());
    let params = OccupancyParams::default();
    let mut reference = OctoMapSystem::new(grid(), params);
    let mut serial = SerialOctoCache::new(grid(), params, small_cache());
    let mut parallel = ParallelOctoCache::new(grid(), params, small_cache());
    for scan in seq.scans() {
        reference
            .insert_scan(scan.origin, &scan.points, seq.max_range())
            .unwrap();
        serial
            .insert_scan(scan.origin, &scan.points, seq.max_range())
            .unwrap();
        parallel
            .insert_scan(scan.origin, &scan.points, seq.max_range())
            .unwrap();
    }
    let t_ref = Box::new(reference).take_tree();
    let t_ser = Box::new(serial).take_tree();
    let t_par = Box::new(parallel).take_tree();

    let d_ser = compare::diff(&t_ref, &t_ser, 1e-4);
    assert!(d_ser.is_identical(), "serial diverged: {d_ser:?}");
    assert_eq!(d_ser.occupied_iou(), 1.0);
    let d_par = compare::diff(&t_ref, &t_par, 1e-4);
    assert!(d_par.is_identical(), "parallel diverged: {d_par:?}");
}

#[test]
fn occupancy_decisions_match_world_geometry() {
    // End-to-end sanity: after mapping the corridor, wall voxels read
    // occupied and the corridor interior reads free.
    let seq = Dataset::Fr079Corridor.generate(&DatasetConfig::tiny());
    let params = OccupancyParams::default();
    let mut map = SerialOctoCache::new(grid(), params, small_cache());
    for scan in seq.scans() {
        map.insert_scan(scan.origin, &scan.points, seq.max_range())
            .unwrap();
    }
    // Interior of the corridor near the start: free.
    assert_eq!(
        map.is_occupied_at(Point3::new(1.0, 0.0, 1.4)).unwrap(),
        Some(false)
    );
    // Inside the side wall (y ≈ 2.2): occupied or unknown, never free.
    let wall = map.is_occupied_at(Point3::new(1.0, 2.1, 1.4)).unwrap();
    assert_ne!(wall, Some(false), "wall must not read free");
}
