//! One-shard stand-in for the deleted octant router, kept only because
//! the frozen `benchmark/` package times `shard_of` (`routing.ns_per_key`).
//! Nothing in the workspace calls it; it goes in the next `benchmark` PR
//! (ROADMAP item 1(c)).

use octocache_geom::{VoxelGrid, VoxelKey};

/// Routes every key to shard 0.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OctantRouter;

impl OctantRouter {
    /// # Panics
    ///
    /// Panics unless `num_shards` is 1.
    pub fn new(num_shards: usize, _grid: &VoxelGrid) -> Self {
        assert_eq!(num_shards, 1, "the octree is no longer sharded");
        OctantRouter
    }

    /// Always 0.
    #[inline]
    pub fn shard_of(&self, _key: VoxelKey) -> usize {
        0
    }
}
