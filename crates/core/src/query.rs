//! The concurrent snapshot query engine: lock-free reads during mapping.
//!
//! The paper's pipeline (§4.4) keeps the octree behind a mutex so the
//! mapping thread and the octree-update workers never race. That mutex is
//! also what planners would have to take for every `is_occupied_at` probe —
//! thousands per planning cycle — turning the read path into a contention
//! point exactly when the map is busiest. This module removes readers from
//! the lock order entirely:
//!
//! * Writers publish an immutable [`MapSnapshot`] at every scan boundary
//!   through a [`SnapshotPublisher`] owned by the scan-lifecycle engine
//!   ([`Engine`](crate::Engine), shared by every [`MappingSystem`]
//!   backend); the snapshot tree itself comes from the backend's
//!   [`ScanExecutor::snapshot_tree`](crate::ScanExecutor::snapshot_tree).
//!   Publication is an epoch-numbered pointer swap; the octree inside a
//!   snapshot is never mutated after publication.
//! * Readers hold a [`QueryHandle`] (cheaply cloneable, `Send + Sync`) and
//!   answer every query — point lookups, ray casts, level-limited searches,
//!   bounding-box scans and Morton-batched lookups — against whichever
//!   snapshot was current when they asked, without touching the octree
//!   mutex or blocking the writer.
//!
//! Snapshots are *scan-boundary consistent*: a published tree contains every
//! voxel of scans `0..=k` and nothing of scan `k+1`, so concurrent readers
//! can never observe a torn, half-applied scan (the property the stress
//! tests pin via per-scan [`MapSnapshot::checksum`] tables).
//!
//! The [`OccupancyView`] trait at the bottom lets the planners run
//! unchanged against either a live backend (via [`LiveMap`]) or a snapshot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use octocache_geom::{Aabb, GeomError, Point3, VoxelGrid, VoxelKey};
use octocache_octomap::query as tree_query;
/// Batch traversal counters and ray-cast results are defined next to the
/// octree; re-exported here so snapshot consumers need only this module.
pub use octocache_octomap::query::{BatchStats, RayCastResult};
use octocache_octomap::{LeafEntry, OccupancyOcTree, OccupancyParams};
use parking_lot::Mutex;

use crate::pipeline::MappingSystem;

/// An immutable, epoch-numbered view of the map at a scan boundary.
///
/// The tree inside is a private deep copy (plus, for cache-backed writers,
/// the cache contents overlaid), so every query here is answered without
/// any synchronisation at all — `OccupancyOcTree` reads are `&self` and the
/// tree is `Sync`. Values are bit-identical to what the owning backend's
/// locked query path would return at the same scan boundary (verified by
/// `tests/query_consistency.rs` on every backend).
#[derive(Debug)]
pub struct MapSnapshot {
    tree: OccupancyOcTree,
    epoch: u64,
    scans: u64,
    published_at: Instant,
    publish_latency: Duration,
}

impl MapSnapshot {
    /// Builds a snapshot directly from a tree (epoch 0, for standalone use;
    /// backends go through [`SnapshotPublisher`] instead).
    pub fn from_tree(tree: OccupancyOcTree) -> Self {
        MapSnapshot {
            tree,
            epoch: 0,
            scans: 0,
            published_at: Instant::now(),
            publish_latency: Duration::ZERO,
        }
    }

    /// Monotonic publication number; bumped by every
    /// [`SnapshotPublisher::publish_with`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Scans the writer had applied when this snapshot was published.
    pub fn scans(&self) -> u64 {
        self.scans
    }

    /// How long ago this snapshot was published — the staleness a reader
    /// accepts in exchange for never blocking the writer.
    pub fn age(&self) -> Duration {
        self.published_at.elapsed()
    }

    /// Wall-clock cost of building and publishing this snapshot.
    pub fn publish_latency(&self) -> Duration {
        self.publish_latency
    }

    /// The snapshot's private octree.
    pub fn tree(&self) -> &OccupancyOcTree {
        &self.tree
    }

    /// The world↔key mapping.
    pub fn grid(&self) -> &VoxelGrid {
        self.tree.grid()
    }

    /// The occupancy thresholds the snapshot decides with.
    pub fn params(&self) -> &OccupancyParams {
        self.tree.params()
    }

    /// Accumulated occupancy log-odds at a voxel; `None` = unknown space.
    pub fn occupancy(&self, key: VoxelKey) -> Option<f32> {
        self.tree.search(key)
    }

    /// Occupancy decision at a voxel.
    pub fn is_occupied(&self, key: VoxelKey) -> Option<bool> {
        self.tree.is_occupied(key)
    }

    /// Occupancy decision at a world point.
    ///
    /// # Errors
    ///
    /// Propagates [`GeomError`] for out-of-map points.
    pub fn is_occupied_at(&self, p: Point3) -> Result<Option<bool>, GeomError> {
        Ok(self.is_occupied(self.tree.grid().key_of(p)?))
    }

    /// Casts a ray (reference OctoMap's `castRay`) against the snapshot.
    ///
    /// # Errors
    ///
    /// Propagates [`GeomError`] for out-of-map origins or degenerate
    /// directions.
    pub fn cast_ray(
        &self,
        origin: Point3,
        direction: Point3,
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<RayCastResult, GeomError> {
        tree_query::cast_ray(&self.tree, origin, direction, max_range, ignore_unknown)
    }

    /// Occupancy at a coarser resolution: the value of `key`'s ancestor at
    /// `level` levels above the finest resolution.
    pub fn search_at_level(&self, key: VoxelKey, level: u8) -> Option<f32> {
        tree_query::search_at_level(&self.tree, key, level)
    }

    /// True when any voxel inside `bounds` is occupied.
    ///
    /// # Errors
    ///
    /// Propagates [`GeomError`] when the box lies outside the map.
    pub fn any_occupied_in_box(&self, bounds: &Aabb) -> Result<bool, GeomError> {
        tree_query::any_occupied_in_box(&self.tree, bounds)
    }

    /// Every known leaf intersecting `bounds`.
    ///
    /// # Errors
    ///
    /// Propagates [`GeomError`] when the box lies outside the map.
    pub fn leaves_in_box(&self, bounds: &Aabb) -> Result<Vec<LeafEntry>, GeomError> {
        tree_query::leaves_in_box(&self.tree, bounds)
    }

    /// Answers a batch of point lookups in one Morton-ordered sweep,
    /// reusing root-to-leaf path prefixes between adjacent queries
    /// ([`octocache_octomap::query::batch_search`]). Results are in input
    /// order and bit-identical to one-at-a-time [`MapSnapshot::occupancy`]
    /// calls.
    pub fn batch_occupancy(&self, keys: &[VoxelKey]) -> (Vec<Option<f32>>, BatchStats) {
        tree_query::batch_search(&self.tree, keys)
    }

    /// FNV-1a digest over every leaf (key, level, log-odds bits), delegating
    /// to [`OccupancyOcTree::leaf_checksum`].
    ///
    /// Two snapshots of the same logical map hash identically however each
    /// tree was built; the concurrent stress tests use this to prove a
    /// published snapshot is exactly one scan boundary, never a torn blend
    /// of two, and crash recovery (`crate::durable`) uses it as the
    /// bit-match oracle against the v2 map footer.
    pub fn checksum(&self) -> u64 {
        self.tree.leaf_checksum()
    }
}

/// What one [`SnapshotPublisher::publish_with`] call did.
#[derive(Debug, Clone, Copy)]
pub struct PublishStats {
    /// Epoch of the snapshot just published.
    pub epoch: u64,
    /// Time to build the snapshot tree and swap it in.
    pub latency: Duration,
    /// Age of the snapshot this one replaced (how stale readers had been).
    pub replaced_age: Duration,
}

/// Shared state between a publisher and its handles: the current snapshot
/// behind a pointer-swap mutex, plus batch-query counters the handles feed
/// and the writer drains into telemetry.
#[derive(Debug)]
struct SlotInner {
    current: Mutex<Arc<MapSnapshot>>,
    batch_queries: AtomicU64,
    batch_nodes_visited: AtomicU64,
    batch_nodes_reused: AtomicU64,
}

/// The writer's side of the snapshot slot: owned by a mapping backend,
/// republished at every scan boundary.
#[derive(Debug)]
pub struct SnapshotPublisher {
    inner: Arc<SlotInner>,
    epoch: u64,
}

impl SnapshotPublisher {
    /// Creates a slot holding `initial` as the epoch-0 snapshot.
    pub fn new(initial: OccupancyOcTree, scans: u64) -> Self {
        let snap = MapSnapshot {
            tree: initial,
            epoch: 0,
            scans,
            published_at: Instant::now(),
            publish_latency: Duration::ZERO,
        };
        SnapshotPublisher {
            inner: Arc::new(SlotInner {
                current: Mutex::new(Arc::new(snap)),
                batch_queries: AtomicU64::new(0),
                batch_nodes_visited: AtomicU64::new(0),
                batch_nodes_reused: AtomicU64::new(0),
            }),
            epoch: 0,
        }
    }

    /// A reader handle onto this slot. Handles stay valid after the
    /// publisher is dropped (they keep serving the last snapshot).
    pub fn handle(&self) -> QueryHandle {
        QueryHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Epoch of the most recently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Builds a tree with `build`, wraps it as the next-epoch snapshot and
    /// swaps it in. Readers holding the previous `Arc` finish their queries
    /// against it undisturbed; new [`QueryHandle::snapshot`] calls see the
    /// new one. The reported latency covers the build (the deep copy
    /// dominates) plus the O(1) swap.
    pub fn publish_with(
        &mut self,
        scans: u64,
        build: impl FnOnce() -> OccupancyOcTree,
    ) -> PublishStats {
        let t0 = Instant::now();
        let tree = build();
        let latency = t0.elapsed();
        self.epoch += 1;
        let snap = Arc::new(MapSnapshot {
            tree,
            epoch: self.epoch,
            scans,
            published_at: Instant::now(),
            publish_latency: latency,
        });
        let old = {
            let mut cur = self.inner.current.lock();
            std::mem::replace(&mut *cur, snap)
        };
        PublishStats {
            epoch: self.epoch,
            latency: t0.elapsed(),
            replaced_age: old.age(),
        }
    }

    /// Drains the batch-query counters accumulated by every handle since
    /// the last drain (for per-scan telemetry attribution).
    pub fn take_batch_stats(&self) -> BatchStats {
        BatchStats {
            queries: self.inner.batch_queries.swap(0, Ordering::Relaxed),
            nodes_visited: self.inner.batch_nodes_visited.swap(0, Ordering::Relaxed),
            nodes_reused: self.inner.batch_nodes_reused.swap(0, Ordering::Relaxed),
        }
    }
}

/// A cloneable, thread-safe reader onto a backend's published snapshots.
///
/// Every query grabs the current [`MapSnapshot`] (a brief pointer-swap lock,
/// never contended with octree work) and answers against it; none of them
/// ever takes the octree mutex, so any number of readers run concurrently
/// with `insert_scan`.
#[derive(Debug, Clone)]
pub struct QueryHandle {
    inner: Arc<SlotInner>,
}

impl QueryHandle {
    /// The currently published snapshot. O(1): an `Arc` clone under a
    /// momentary lock. Hold the `Arc` to answer many queries against one
    /// consistent epoch.
    pub fn snapshot(&self) -> Arc<MapSnapshot> {
        Arc::clone(&self.inner.current.lock())
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Lock-free occupancy lookup against the current snapshot.
    pub fn occupancy(&self, key: VoxelKey) -> Option<f32> {
        self.snapshot().occupancy(key)
    }

    /// Lock-free occupancy decision against the current snapshot.
    pub fn is_occupied(&self, key: VoxelKey) -> Option<bool> {
        self.snapshot().is_occupied(key)
    }

    /// Lock-free occupancy decision at a world point.
    ///
    /// # Errors
    ///
    /// Propagates [`GeomError`] for out-of-map points.
    pub fn is_occupied_at(&self, p: Point3) -> Result<Option<bool>, GeomError> {
        self.snapshot().is_occupied_at(p)
    }

    /// Lock-free ray cast against the current snapshot.
    ///
    /// # Errors
    ///
    /// Propagates [`GeomError`] for out-of-map origins or degenerate
    /// directions.
    pub fn cast_ray(
        &self,
        origin: Point3,
        direction: Point3,
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<RayCastResult, GeomError> {
        self.snapshot()
            .cast_ray(origin, direction, max_range, ignore_unknown)
    }

    /// Lock-free level-limited search against the current snapshot.
    pub fn search_at_level(&self, key: VoxelKey, level: u8) -> Option<f32> {
        self.snapshot().search_at_level(key, level)
    }

    /// Morton-batched lookups against one consistent snapshot, with the
    /// traversal counters also accumulated into the slot so the writer can
    /// report prefix reuse in telemetry.
    pub fn batch_occupancy(&self, keys: &[VoxelKey]) -> (Vec<Option<f32>>, BatchStats) {
        let snap = self.snapshot();
        let (values, stats) = snap.batch_occupancy(keys);
        self.inner
            .batch_queries
            .fetch_add(stats.queries, Ordering::Relaxed);
        self.inner
            .batch_nodes_visited
            .fetch_add(stats.nodes_visited, Ordering::Relaxed);
        self.inner
            .batch_nodes_reused
            .fetch_add(stats.nodes_reused, Ordering::Relaxed);
        (values, stats)
    }

    /// The batch-query counters accumulated (and not yet drained by the
    /// publisher) across every clone of this handle.
    pub fn batch_stats(&self) -> BatchStats {
        BatchStats {
            queries: self.inner.batch_queries.load(Ordering::Relaxed),
            nodes_visited: self.inner.batch_nodes_visited.load(Ordering::Relaxed),
            nodes_reused: self.inner.batch_nodes_reused.load(Ordering::Relaxed),
        }
    }
}

/// The minimal occupancy interface the planners consume, satisfied both by
/// immutable snapshots and (through [`LiveMap`]) by live mutable backends.
///
/// `&mut self` mirrors [`MappingSystem`]'s query methods — cache-backed
/// backends update hit statistics on reads — and is simply unused by the
/// snapshot implementations.
pub trait OccupancyView {
    /// Occupancy decision at a world point; `None` = unknown space.
    ///
    /// # Errors
    ///
    /// Propagates [`GeomError`] for out-of-map points.
    fn is_occupied_at(&mut self, p: Point3) -> Result<Option<bool>, GeomError>;
}

impl OccupancyView for MapSnapshot {
    fn is_occupied_at(&mut self, p: Point3) -> Result<Option<bool>, GeomError> {
        MapSnapshot::is_occupied_at(self, p)
    }
}

impl OccupancyView for Arc<MapSnapshot> {
    fn is_occupied_at(&mut self, p: Point3) -> Result<Option<bool>, GeomError> {
        MapSnapshot::is_occupied_at(self, p)
    }
}

impl OccupancyView for QueryHandle {
    fn is_occupied_at(&mut self, p: Point3) -> Result<Option<bool>, GeomError> {
        QueryHandle::is_occupied_at(self, p)
    }
}

/// Adapts a live [`MappingSystem`] to [`OccupancyView`] by borrowing it
/// mutably for the planning cycle. (A blanket `impl OccupancyView for M`
/// would overlap with the snapshot impls under coherence rules, hence the
/// explicit wrapper.)
pub struct LiveMap<'a, M: MappingSystem + ?Sized>(pub &'a mut M);

impl<M: MappingSystem + ?Sized> OccupancyView for LiveMap<'_, M> {
    fn is_occupied_at(&mut self, p: Point3) -> Result<Option<bool>, GeomError> {
        self.0.is_occupied_at(p)
    }
}

impl<M: MappingSystem + ?Sized> std::fmt::Debug for LiveMap<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("LiveMap").field(&self.0.name()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octocache_geom::VoxelGrid;

    fn grid() -> VoxelGrid {
        VoxelGrid::new(0.5, 8).unwrap()
    }

    fn occupied_tree() -> OccupancyOcTree {
        let mut t = OccupancyOcTree::new(grid(), OccupancyParams::default());
        for i in 0..10u16 {
            for _ in 0..3 {
                t.update_node(VoxelKey::new(200, 100 + i, 128), true);
            }
        }
        t
    }

    #[test]
    fn publish_bumps_epoch_and_handles_see_it() {
        let mut publisher = SnapshotPublisher::new(occupied_tree(), 0);
        let handle = publisher.handle();
        assert_eq!(handle.epoch(), 0);
        let s0 = handle.snapshot();
        let stats = publisher.publish_with(1, occupied_tree);
        assert_eq!(stats.epoch, 1);
        assert!(stats.latency > Duration::ZERO);
        assert_eq!(handle.epoch(), 1);
        // The old snapshot is still fully queryable by whoever holds it.
        assert_eq!(s0.epoch(), 0);
        assert_eq!(
            s0.occupancy(VoxelKey::new(200, 100, 128)),
            handle.occupancy(VoxelKey::new(200, 100, 128))
        );
    }

    #[test]
    fn handle_outlives_publisher() {
        let publisher = SnapshotPublisher::new(occupied_tree(), 3);
        let handle = publisher.handle();
        drop(publisher);
        assert_eq!(handle.snapshot().scans(), 3);
        assert_eq!(handle.is_occupied(VoxelKey::new(200, 100, 128)), Some(true));
    }

    #[test]
    fn snapshot_queries_match_tree_queries() {
        let tree = occupied_tree();
        let snap = MapSnapshot::from_tree(tree.deep_clone());
        for x in (195..205u16).step_by(1) {
            let key = VoxelKey::new(x, 100, 128);
            assert_eq!(
                snap.occupancy(key).map(f32::to_bits),
                tree.search(key).map(f32::to_bits)
            );
        }
        let occupied = grid().center_of(VoxelKey::new(200, 105, 128));
        assert_eq!(snap.is_occupied_at(occupied).unwrap(), Some(true));
    }

    #[test]
    fn batch_counters_accumulate_and_drain() {
        let publisher = SnapshotPublisher::new(occupied_tree(), 0);
        let handle = publisher.handle();
        let keys: Vec<VoxelKey> = (0..8u16)
            .map(|i| VoxelKey::new(200, 100 + i, 128))
            .collect();
        let (values, _) = handle.batch_occupancy(&keys);
        assert_eq!(values.len(), keys.len());
        assert!(values[0].is_some());
        let acc = handle.batch_stats();
        assert_eq!(acc.queries, keys.len() as u64);
        assert!(acc.nodes_reused > 0, "adjacent keys must share prefixes");
        let drained = publisher.take_batch_stats();
        assert_eq!(drained.queries, acc.queries);
        assert_eq!(handle.batch_stats().queries, 0, "drain resets");
    }

    #[test]
    fn checksum_keyed_by_content() {
        let a = MapSnapshot::from_tree(occupied_tree());
        let b = MapSnapshot::from_tree(occupied_tree());
        assert_eq!(a.checksum(), b.checksum());
        let mut t = occupied_tree();
        t.update_node(VoxelKey::new(10, 10, 10), true);
        assert_ne!(a.checksum(), MapSnapshot::from_tree(t).checksum());
    }

    #[test]
    fn occupancy_view_is_object_safe_over_snapshots_and_live_maps() {
        let p = grid().center_of(VoxelKey::new(200, 100, 128));
        let mut snap = MapSnapshot::from_tree(occupied_tree());
        let view: &mut dyn OccupancyView = &mut snap;
        assert_eq!(view.is_occupied_at(p).unwrap(), Some(true));
        let mut sys = crate::pipeline::OctoMapSystem::new(grid(), OccupancyParams::default());
        let mut live = LiveMap(&mut sys);
        let view: &mut dyn OccupancyView = &mut live;
        assert_eq!(view.is_occupied_at(p).unwrap(), None);
    }
}
