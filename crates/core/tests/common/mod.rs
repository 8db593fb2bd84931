//! Shared scaffolding for the cross-backend integration suites: the seeded
//! scenario generator and the backend roster. Each `tests/*.rs` binary pulls
//! this in with `mod common;`, so the differential, query-consistency and
//! stress batteries all replay identical deterministic scan sequences.

// Each test binary compiles its own copy and uses a subset of the helpers.
#![allow(dead_code)]

use octocache::pipeline::{MappingSystem, OctoMapSystem};
use octocache::{CacheConfig, ParallelOctoCache, SerialOctoCache};
use octocache_geom::VoxelGrid;
use octocache_octomap::{OccupancyOcTree, OccupancyParams};

/// One deterministic scan: an origin and a point cloud. Re-exported from
/// the shared generator so every suite speaks the same type.
pub use octocache_datasets::Scan;

/// Scenario seeds every suite exercises, the same count everywhere the
/// tests run.
pub const SCENARIOS: u64 = 6;

/// Generates a deterministic scan sequence over a synthetic scene: a sensor
/// random-walking through a field of spherical "blobs", sweeping ray fans
/// in random directions. Everything derives from `seed`, so every backend
/// replays the identical sequence. The generator itself lives in
/// `octocache_datasets::scenario` so the bench bins replay the same
/// distribution.
pub fn scenario(seed: u64) -> Vec<Scan> {
    octocache_datasets::scenario::blob_walk(seed)
}

pub fn grid() -> VoxelGrid {
    VoxelGrid::new(0.5, 8).unwrap()
}

/// A deliberately small cache so τ-eviction fires constantly and the
/// pipelines exercise their eviction/enqueue/merge paths.
pub fn cache() -> CacheConfig {
    CacheConfig::builder()
        .num_buckets(1 << 7)
        .tau(2)
        .build()
        .unwrap()
}

/// Replays `scans` through `backend` and returns the flushed tree.
pub fn build_tree(mut backend: Box<dyn MappingSystem>, scans: &[Scan]) -> OccupancyOcTree {
    for scan in scans {
        backend
            .insert_scan(scan.origin, &scan.points, 40.0)
            .expect("scan within grid");
    }
    backend.finish();
    backend.take_tree()
}

/// Every backend under test, with its display label.
pub fn backends() -> Vec<(String, Box<dyn MappingSystem>)> {
    backends_with_grid(grid())
}

/// Every backend over an explicit voxel grid (the golden-checksum suite
/// replays dataset-scale scenarios that need a larger grid than the
/// default scenario one).
pub fn backends_with_grid(grid: VoxelGrid) -> Vec<(String, Box<dyn MappingSystem>)> {
    let params = OccupancyParams::default();
    vec![
        (
            "octomap".to_string(),
            Box::new(OctoMapSystem::new(grid, params)),
        ),
        (
            "serial".to_string(),
            Box::new(SerialOctoCache::new(grid, params, cache())),
        ),
        // The label predates the N-worker pipeline's removal; the golden
        // files key on it.
        (
            "parallel-x1".to_string(),
            Box::new(ParallelOctoCache::new(grid, params, cache())),
        ),
    ]
}
