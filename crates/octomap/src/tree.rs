use octocache_geom::{ChildIndex, GeomError, Point3, VoxelGrid, VoxelKey};

use crate::arena::{ArenaTree, ClosedOnDrop, OpenPath, PoolCensus, ReadCursor};
use crate::occupancy::OccupancyParams;
use crate::stats::TreeStats;

/// A leaf of the octree together with its position and size.
///
/// `level` counts levels above the finest resolution: a leaf at level 0 is a
/// single voxel; a leaf at level `l` is a pruned cube of `2^l` voxels per
/// axis whose minimum-corner key is `key` (low `l` bits zero).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafEntry {
    /// Minimum-corner voxel key of the leaf cube.
    pub key: VoxelKey,
    /// Levels above the finest resolution (0 = single voxel).
    pub level: u8,
    /// The leaf's log-odds occupancy.
    pub log_odds: f32,
}

impl LeafEntry {
    /// Edge length of the leaf cube in voxels.
    pub(crate) fn size_in_voxels(&self) -> u32 {
        1u32 << self.level
    }

    /// True when this leaf covers the given finest-level voxel key.
    pub fn covers(&self, key: VoxelKey) -> bool {
        key.ancestor_at(self.level) == self.key
    }
}

/// The OctoMap occupancy octree.
///
/// Stores clamped log-odds occupancy in an octree of depth
/// [`VoxelGrid::depth`]. Every single update is a root-to-leaf round trip:
/// descend to the leaf (expanding pruned aggregates on the way), apply the
/// update, then propagate values back up (inner value = max of children)
/// and prune equal-valued sibling sets — the exact workflow of reference
/// OctoMap and the cost model of the paper's §2.2/Figure 5. Only
/// [`set_log_odds_batch`](Self::set_log_odds_batch) shares that trip
/// between consecutive cells.
///
/// Nodes live in two `Vec`-backed pools addressed by `u32` indices: inner
/// nodes take 8 bytes each, their eight children sitting in one contiguous
/// block, and the leaves under a level-1 node share one 32-byte brick.
/// Pruning recycles blocks and bricks through free-lists instead of
/// returning them to the allocator. Maps and node-visit counts are those of
/// reference OctoMap's boxed nodes.
///
/// # Example
///
/// ```
/// # use octocache_octomap::{OccupancyOcTree, OccupancyParams};
/// # use octocache_geom::{VoxelGrid, VoxelKey};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = VoxelGrid::new(0.1, 16)?;
/// let mut tree = OccupancyOcTree::new(grid, OccupancyParams::default());
/// let key = VoxelKey::origin(16);
/// tree.update_node(key, true);
/// assert_eq!(tree.is_occupied(key), Some(true));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct OccupancyOcTree {
    grid: VoxelGrid,
    params: OccupancyParams,
    nodes: ArenaTree,
    stats: TreeStats,
    auto_prune: bool,
}

/// Frozen-benchmark shim (`benchmark/` is its only caller); the next `benchmark` PR deletes it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct TreeLayout;

impl OccupancyOcTree {
    /// Creates an empty tree over the given grid with the given sensor
    /// model.
    pub fn new(grid: VoxelGrid, params: OccupancyParams) -> Self {
        Self::from_pool(grid, params, ArenaTree::new())
    }

    /// A tree over an existing node pool (one a map stream decoded to; see
    /// [`crate::io`]).
    pub(crate) fn from_pool(grid: VoxelGrid, params: OccupancyParams, nodes: ArenaTree) -> Self {
        OccupancyOcTree {
            grid,
            params,
            nodes,
            stats: TreeStats::new(),
            auto_prune: true,
        }
    }

    /// Frozen-benchmark shim (`benchmark/` is its only caller); the next `benchmark` PR deletes it.
    #[doc(hidden)]
    pub fn with_layout(grid: VoxelGrid, params: OccupancyParams, _: TreeLayout) -> Self {
        Self::new(grid, params)
    }

    /// The world↔key mapping this tree uses.
    pub fn grid(&self) -> &VoxelGrid {
        &self.grid
    }

    /// The sensor model.
    pub fn params(&self) -> &OccupancyParams {
        &self.params
    }

    /// Node-visit instrumentation counters.
    pub fn stats(&self) -> &TreeStats {
        &self.stats
    }

    /// True when the tree stores no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Removes every node, releasing the allocation (pool capacity
    /// included).
    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// A reference to the root node, if any.
    pub(crate) fn root_ref(&self) -> Option<NodeRef<'_>> {
        (!self.nodes.is_empty()).then_some(NodeRef {
            tree: &self.nodes,
            idx: 0,
            level: self.grid.depth(),
        })
    }

    /// Deep-copies the tree: an independent, observationally identical map.
    ///
    /// This is the snapshot-publication primitive of the read path
    /// (`octocache::query`): each of the two flat pools is copied in one
    /// `Vec` clone (plus the free lists). Instrumentation counters start at zero
    /// in the copy — queries against a snapshot are counted on the
    /// snapshot, not on the live tree it was taken from.
    pub fn deep_clone(&self) -> OccupancyOcTree {
        OccupancyOcTree {
            grid: self.grid,
            params: self.params,
            nodes: self.nodes.clone(),
            stats: TreeStats::new(),
            auto_prune: self.auto_prune,
        }
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.pool_census().nodes
    }

    /// Number of leaves (pruned cubes count once).
    pub fn num_leaves(&self) -> usize {
        self.pool_census().leaves
    }

    /// Heap footprint in bytes: the node pools' allocated capacity — 8
    /// bytes an inner slot, 32 a leaf brick, free-list slack included —
    /// plus the free-lists. O(1), safe to sample every scan.
    pub fn memory_usage(&self) -> usize {
        self.nodes.memory_usage()
    }

    /// Counts the live nodes, inner blocks and leaf bricks (a walk over the
    /// tree) beside the pools' bytes and free lists: what a map's
    /// [`memory_usage`](Self::memory_usage) is made of.
    pub fn pool_census(&self) -> PoolCensus {
        self.nodes.census(self.grid.depth())
    }

    /// Integrates one occupancy observation at `key` (the paper's per-voxel
    /// update: `±δ` with clamping) and returns the new log-odds.
    pub fn update_node(&mut self, key: VoxelKey, occupied: bool) -> f32 {
        self.apply_at_leaf(key, LeafOp::Observe { occupied })
    }

    /// Overwrites the log-odds at `key` (clamped by
    /// [`OccupancyParams::clamp`], so a NaN stores the prior) and returns
    /// the stored value. Used when evicted cache entries already carry the *absolute*
    /// accumulated occupancy (paper §4.2: "any voxel evicted from the cache
    /// will overwrite its occupancy value to the octree").
    pub fn set_node_log_odds(&mut self, key: VoxelKey, value: f32) -> f32 {
        self.apply_at_leaf(key, LeafOp::Set { value })
    }

    /// Overwrites the log-odds of every `(key, value)` in `cells`, in the
    /// order given, leaving exactly the tree one
    /// [`set_node_log_odds`](Self::set_node_log_odds) per cell would leave
    /// (a repeated key keeps its last value) — but holding the root-to-leaf
    /// path open from one cell to the next, so a cell pays only for the
    /// nodes below its common ancestor with the previous one. The node
    /// visits of a batch of distinct keys are their summed tree distance
    /// 𝓕(S) plus one round trip, which is why evictions arrive in Morton
    /// order (paper §4.3). If `cells` panics the path is closed on unwind
    /// and the tree stays valid.
    pub fn set_log_odds_batch(&mut self, cells: impl IntoIterator<Item = (VoxelKey, f32)>) {
        let mut path = ClosedOnDrop(self.open_path());
        for (key, value) in cells {
            path.0.apply(key, LeafOp::Set { value });
        }
    }

    fn apply_at_leaf(&mut self, key: VoxelKey, op: LeafOp) -> f32 {
        let mut path = self.open_path();
        let new = path.apply(key, op);
        path.close();
        new
    }

    /// The write cursor: it borrows the pool and the counters mutably, side
    /// by side with the sensor model.
    fn open_path(&mut self) -> OpenPath<'_> {
        self.nodes.open_path(
            self.grid.depth(),
            &self.params,
            &mut self.stats,
            self.auto_prune,
        )
    }

    /// Looks up the log-odds at `key`, descending until a leaf or pruned
    /// aggregate covers it. `None` means the voxel is in unknown space.
    pub fn search(&self, key: VoxelKey) -> Option<f32> {
        self.read_cursor().search(key)
    }

    /// A cursor for a run of lookups: each answers exactly what
    /// [`search`](Self::search) answers, but restarts below its common
    /// ancestor with the previous key instead of at the root, and the run's
    /// queries and node visits reach [`stats`](Self::stats) when the cursor
    /// is dropped. Cache misses are seeded through one (consecutive voxels
    /// of a ray share almost their whole root path) and
    /// [`query::batch_search`](crate::query::batch_search) is a Morton-sorted
    /// loop over one.
    pub fn read_cursor(&self) -> ReadCursor<'_> {
        self.nodes.read_cursor(self.grid.depth(), &self.stats)
    }

    /// Occupancy decision at `key`: `Some(true)` occupied, `Some(false)`
    /// free, `None` unknown.
    pub fn is_occupied(&self, key: VoxelKey) -> Option<bool> {
        self.search(key).map(|l| self.params.is_occupied(l))
    }

    /// Convenience: occupancy decision at a world point.
    ///
    /// # Errors
    ///
    /// Propagates [`GeomError`] when the point is outside the grid.
    pub fn is_occupied_at(&self, p: Point3) -> Result<Option<bool>, GeomError> {
        Ok(self.is_occupied(self.grid.key_of(p)?))
    }

    /// Prunes the whole tree bottom-up (useful after bulk updates with
    /// auto-prune disabled).
    pub fn prune(&mut self) {
        self.nodes.prune(self.grid.depth(), &mut self.stats);
    }

    /// FNV-1a checksum over the leaf set `(key, level, log-odds bits)`.
    ///
    /// The sum is independent of where nodes sit in the pool: two trees
    /// holding the same pruned leaf structure with bit-identical log-odds
    /// produce the same checksum regardless of how they were built.
    /// It is embedded in the v2 map footer ([`crate::io`]) and is the
    /// bit-match oracle for crash recovery (`octocache::durable`).
    pub fn leaf_checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for leaf in self.leaves() {
            h = crate::checksum::fnv1a(
                h,
                leaf.key.x as u64
                    | (leaf.key.y as u64) << 16
                    | (leaf.key.z as u64) << 32
                    | (leaf.level as u64) << 48,
            );
            h = crate::checksum::fnv1a(h, leaf.log_odds.to_bits() as u64);
        }
        h
    }

    /// Iterates over all leaves (pruned cubes yield one entry).
    pub fn leaves(&self) -> Leaves<'_> {
        let mut stack = Vec::new();
        if let Some(root) = self.root_ref() {
            stack.push((root, VoxelKey::new(0, 0, 0), self.grid.depth()));
        }
        Leaves { stack }
    }

    /// Validates the tree's structural invariants, returning a description
    /// of the first violation found:
    ///
    /// * every child block and leaf brick of the pools is reachable or on
    ///   its free-list, exactly once, and holds a present child;
    /// * every inner node's value equals the maximum over its children;
    /// * every value lies within the clamping bounds;
    /// * no node sits below the finest level.
    ///
    /// Intended for tests and debugging after bulk operations.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn recurse(node: NodeRef<'_>, level: u8, params: &OccupancyParams) -> Result<(), String> {
            let v = node.log_odds();
            if !(params.clamp_min..=params.clamp_max).contains(&v) {
                return Err(format!("value {v} outside clamp range at level {level}"));
            }
            if node.has_children() {
                if level == 0 {
                    return Err("leaf-level node has children".into());
                }
                let max = node.max_child_log_odds().expect("has children");
                if (max - v).abs() > 1e-6 {
                    return Err(format!(
                        "inner node holds {v} but max child is {max} at level {level}"
                    ));
                }
                for (_, child) in node.children() {
                    recurse(child, level - 1, params)?;
                }
            }
            Ok(())
        }
        // Pool structure first: block bookkeeping must balance.
        self.nodes.check_structure(self.grid.depth())?;
        match self.root_ref() {
            None => Ok(()),
            Some(root) => {
                // A fresh never-updated root may carry the prior unclamped
                // threshold; treat the threshold as always legal.
                if !root.has_children() && root.log_odds() == self.params.threshold {
                    return Ok(());
                }
                recurse(root, self.grid.depth(), &self.params)
            }
        }
    }

    /// Iterates over the leaves whose cubes intersect the key-space box
    /// `[min, max]` (inclusive), pruning whole subtrees outside it — an
    /// O(answer × depth) descent rather than a full-tree scan.
    pub(crate) fn leaves_in_key_box(&self, min: VoxelKey, max: VoxelKey) -> BoxLeaves<'_> {
        let mut stack = Vec::new();
        if let Some(root) = self.root_ref() {
            stack.push((root, VoxelKey::new(0, 0, 0), self.grid.depth()));
        }
        BoxLeaves { stack, min, max }
    }

    /// Counts leaves at the finest level whose value crosses the occupancy
    /// threshold, expanding pruned cubes. (Voxel-weighted occupied volume.)
    pub fn occupied_voxel_count(&self) -> u64 {
        self.leaves()
            .filter(|l| self.params.is_occupied(l.log_odds))
            .map(|l| {
                let edge = l.size_in_voxels() as u64;
                edge * edge * edge
            })
            .sum()
    }
}

/// A leaf-level mutation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LeafOp {
    Observe { occupied: bool },
    Set { value: f32 },
}

/// A shared reference to one tree node: the pools plus the node's index
/// and level.
/// `Copy`, so read-only traversals (leaves, io, invariant checks,
/// multi-resolution queries) pass it by value.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeRef<'a> {
    tree: &'a ArenaTree,
    idx: u32,
    /// The node's level, which picks its pool (0: a leaf brick).
    level: u8,
}

impl<'a> NodeRef<'a> {
    pub(crate) fn log_odds(self) -> f32 {
        self.tree.log_odds(self.idx, self.level)
    }

    pub(crate) fn child_mask(self) -> u8 {
        self.tree.child_mask(self.idx, self.level)
    }

    pub(crate) fn has_children(self) -> bool {
        self.tree.has_children(self.idx, self.level)
    }

    pub(crate) fn child(self, i: ChildIndex) -> Option<NodeRef<'a>> {
        self.tree
            .child_of(self.idx, self.level, i.as_usize())
            .map(|idx| NodeRef {
                tree: self.tree,
                idx,
                level: self.level - 1,
            })
    }

    pub(crate) fn children(self) -> impl Iterator<Item = (ChildIndex, NodeRef<'a>)> {
        ChildIndex::all().filter_map(move |i| self.child(i).map(|c| (i, c)))
    }

    pub(crate) fn max_child_log_odds(self) -> Option<f32> {
        self.tree.max_child(self.idx, self.level)
    }
}

/// Iterator over a tree's leaves. Created by [`OccupancyOcTree::leaves`].
#[derive(Debug)]
pub struct Leaves<'a> {
    stack: Vec<(NodeRef<'a>, VoxelKey, u8)>,
}

impl Iterator for Leaves<'_> {
    type Item = LeafEntry;

    fn next(&mut self) -> Option<LeafEntry> {
        while let Some((node, base, level)) = self.stack.pop() {
            if !node.has_children() {
                return Some(LeafEntry {
                    key: base,
                    level,
                    log_odds: node.log_odds(),
                });
            }
            let child_bit = level - 1;
            for (i, child) in node.children() {
                let c = i.as_usize() as u16;
                let child_key = VoxelKey::new(
                    base.x | ((c & 1) << child_bit),
                    base.y | (((c >> 1) & 1) << child_bit),
                    base.z | (((c >> 2) & 1) << child_bit),
                );
                self.stack.push((child, child_key, child_bit));
            }
        }
        None
    }
}

/// Iterator over the leaves intersecting a key-space box. Created by
/// [`OccupancyOcTree::leaves_in_key_box`].
#[derive(Debug)]
pub(crate) struct BoxLeaves<'a> {
    stack: Vec<(NodeRef<'a>, VoxelKey, u8)>,
    min: VoxelKey,
    max: VoxelKey,
}

impl BoxLeaves<'_> {
    /// True when the node cube `[base, base + 2^level)` intersects the box.
    fn intersects(&self, base: VoxelKey, level: u8) -> bool {
        let size = 1u32 << level;
        let lo = |b: u16| b as u32;
        let hi = |b: u16| b as u32 + size; // exclusive
        lo(base.x) <= self.max.x as u32
            && hi(base.x) > self.min.x as u32
            && lo(base.y) <= self.max.y as u32
            && hi(base.y) > self.min.y as u32
            && lo(base.z) <= self.max.z as u32
            && hi(base.z) > self.min.z as u32
    }
}

impl Iterator for BoxLeaves<'_> {
    type Item = LeafEntry;

    fn next(&mut self) -> Option<LeafEntry> {
        while let Some((node, base, level)) = self.stack.pop() {
            if !self.intersects(base, level) {
                continue;
            }
            if !node.has_children() {
                return Some(LeafEntry {
                    key: base,
                    level,
                    log_odds: node.log_odds(),
                });
            }
            let child_bit = level - 1;
            for (i, child) in node.children() {
                let c = i.as_usize() as u16;
                let child_key = VoxelKey::new(
                    base.x | ((c & 1) << child_bit),
                    base.y | (((c >> 1) & 1) << child_bit),
                    base.z | (((c >> 2) & 1) << child_bit),
                );
                self.stack.push((child, child_key, child_bit));
            }
        }
        None
    }
}

#[cfg(test)]
impl OccupancyOcTree {
    /// Disables/enables pruning during updates. Reference OctoMap calls this
    /// `lazy_eval`; the property tests run every step both ways.
    pub(crate) fn set_auto_prune(&mut self, on: bool) {
        self.auto_prune = on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octocache_geom::morton;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn small_tree() -> OccupancyOcTree {
        let grid = VoxelGrid::new(1.0, 4).unwrap();
        OccupancyOcTree::new(grid, OccupancyParams::default())
    }

    #[test]
    fn empty_tree_returns_unknown() {
        let tree = small_tree();
        assert_eq!(tree.search(VoxelKey::new(1, 2, 3)), None);
        assert_eq!(tree.is_occupied(VoxelKey::new(1, 2, 3)), None);
        assert!(tree.is_empty());
        assert_eq!(tree.num_nodes(), 0);
    }

    #[test]
    fn single_update_is_searchable() {
        let mut tree = small_tree();
        let key = VoxelKey::new(3, 7, 11);
        let v = tree.update_node(key, true);
        assert_eq!(tree.search(key), Some(v));
        assert!(v > 0.0);
        assert_eq!(tree.is_occupied(key), Some(true));
        // A different voxel is still unknown.
        assert_eq!(tree.search(VoxelKey::new(0, 0, 0)), None);
    }

    #[test]
    fn repeated_updates_accumulate_and_clamp() {
        let mut tree = small_tree();
        let key = VoxelKey::new(5, 5, 5);
        let mut last = f32::MIN;
        for _ in 0..10 {
            let v = tree.update_node(key, true);
            assert!(v >= last);
            last = v;
        }
        assert_eq!(last, tree.params().clamp_max);
        for _ in 0..20 {
            last = tree.update_node(key, false);
        }
        assert_eq!(last, tree.params().clamp_min);
        assert_eq!(tree.is_occupied(key), Some(false));
    }

    #[test]
    fn deep_clone_is_independent_and_identical() {
        let mut tree = small_tree();
        for i in 0..40u16 {
            tree.update_node(
                VoxelKey::new(i % 16, (i * 7) % 16, (i * 3) % 16),
                i % 3 != 0,
            );
        }
        let snap = tree.deep_clone();
        assert_eq!(snap.num_nodes(), tree.num_nodes());
        // (memory_usage may differ: the clone has no pool slack.)
        assert!(snap.memory_usage() > 0);
        snap.check_invariants().unwrap();
        let before: Vec<LeafEntry> = snap.leaves().collect();
        // Mutating the original must not leak into the clone…
        for i in 0..16u16 {
            tree.update_node(VoxelKey::new(i, i, i), true);
        }
        let after: Vec<LeafEntry> = snap.leaves().collect();
        assert_eq!(before, after, "clone observed a mutation");
        // …and the clone answers exactly what the original answered.
        for i in 0..40u16 {
            let key = VoxelKey::new(i % 16, (i * 7) % 16, (i * 3) % 16);
            assert!(snap.search(key).is_some(), "{key} lost");
        }
        // Snapshot counters start at zero (queries above notwithstanding).
        assert_eq!(snap.stats().leaf_updates(), 0);
    }

    #[test]
    fn deep_clone_of_empty_tree_is_empty() {
        let tree = small_tree();
        let snap = tree.deep_clone();
        assert!(snap.is_empty());
        assert_eq!(snap.num_nodes(), 0);
    }

    #[test]
    fn set_node_overwrites() {
        let mut tree = small_tree();
        let key = VoxelKey::new(2, 2, 2);
        tree.update_node(key, true);
        let v = tree.set_node_log_odds(key, -1.0);
        assert_eq!(v, -1.0);
        assert_eq!(tree.search(key), Some(-1.0));
        // Setting beyond the clamp range clamps.
        assert_eq!(tree.set_node_log_odds(key, 100.0), tree.params().clamp_max);
    }

    #[test]
    fn nan_writes_store_the_prior_and_the_map_reads_back() {
        let mut tree = small_tree();
        let prior = tree.params().threshold;
        let key = VoxelKey::new(2, 3, 4);
        assert_eq!(tree.set_node_log_odds(key, f32::NAN), prior);
        let other = VoxelKey::new(9, 9, 9);
        tree.set_log_odds_batch([(other, f32::NAN), (key, 1.0), (key, f32::NAN)]);
        tree.check_invariants().unwrap();
        assert_eq!(tree.search(key), Some(prior));
        assert_eq!(tree.search(other), Some(prior));
        let restored = crate::io::read_tree(&crate::io::write_tree(&tree)).unwrap();
        restored.check_invariants().unwrap();
        assert_eq!(restored.search(key), Some(prior));
        assert_eq!(restored.leaf_checksum(), tree.leaf_checksum());
        assert!(crate::io::read_tree(&crate::io::write_tree_v2(&tree, 7)).is_ok());
    }

    #[test]
    fn inner_nodes_hold_max_of_children() {
        let mut tree = small_tree();
        tree.set_node_log_odds(VoxelKey::new(0, 0, 0), -1.0);
        tree.set_node_log_odds(VoxelKey::new(1, 0, 0), 2.0);
        assert_eq!(tree.root_ref().map(|r| r.log_odds()), Some(2.0));
    }

    #[test]
    fn pruning_merges_equal_siblings() {
        let mut tree = small_tree();
        // Fill one complete parent octant (keys 0..2 per axis) to the
        // clamped max so all 8 leaves carry the same value.
        for x in 0..2u16 {
            for y in 0..2u16 {
                for z in 0..2u16 {
                    for _ in 0..10 {
                        tree.update_node(VoxelKey::new(x, y, z), true);
                    }
                }
            }
        }
        // The 8 leaves must have merged: search still works...
        assert_eq!(tree.is_occupied(VoxelKey::new(1, 1, 1)), Some(true));
        // ...and fewer than 8 leaf nodes exist below that parent. The
        // pruned cube shows up as a single leaf at level >= 1.
        let leaf = tree
            .leaves()
            .find(|l| l.covers(VoxelKey::new(0, 0, 0)))
            .unwrap();
        assert!(leaf.level >= 1);
        assert!(tree.stats().prunes() > 0);
    }

    #[test]
    fn expansion_preserves_sibling_values() {
        let mut tree = small_tree();
        // Create a pruned occupied cube...
        for x in 0..2u16 {
            for y in 0..2u16 {
                for z in 0..2u16 {
                    for _ in 0..10 {
                        tree.update_node(VoxelKey::new(x, y, z), true);
                    }
                }
            }
        }
        let max = tree.params().clamp_max;
        // ...then update one voxel inside it as free; siblings must keep max.
        tree.update_node(VoxelKey::new(0, 0, 0), false);
        assert_eq!(tree.search(VoxelKey::new(1, 1, 1)), Some(max));
        let v = tree.search(VoxelKey::new(0, 0, 0)).unwrap();
        assert!(v < max);
    }

    #[test]
    fn node_visits_track_round_trip() {
        let mut tree = small_tree();
        let key = VoxelKey::new(3, 3, 3);
        tree.stats().reset();
        tree.update_node(key, true);
        let s = tree.stats().snapshot();
        // depth 4: descent visits 4 levels + root creation etc.; unwind
        // re-visits inner nodes. At minimum 2*depth visits per paper.
        assert!(
            s.node_visits >= 2 * 4 - 1,
            "expected >= 7 visits, got {}",
            s.node_visits
        );
        assert_eq!(s.leaf_updates, 1);
    }

    #[test]
    fn concurrent_readers_lose_no_counts() {
        // The write path counts with plain adds behind `&mut`; readers of a
        // shared tree still count atomically, so none of their counts race.
        let mut tree = small_tree();
        for i in 0..40u16 {
            tree.update_node(VoxelKey::new(i % 16, (i * 7) % 16, (i * 3) % 16), true);
        }
        let probe = |t: &OccupancyOcTree| {
            for i in 0..10_000u16 {
                t.search(VoxelKey::new(i % 16, (i / 16) % 16, (i / 256) % 16));
            }
        };
        tree.stats().reset();
        probe(&tree);
        let single = tree.stats().node_visits();
        assert!(single > 0);
        tree.stats().reset();
        let shared = &tree;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| probe(shared));
            }
        });
        assert_eq!(tree.stats().queries(), 40_000);
        assert_eq!(tree.stats().node_visits(), 4 * single);
    }

    #[test]
    fn leaves_cover_all_updates() {
        let mut tree = small_tree();
        let keys = [
            VoxelKey::new(0, 0, 0),
            VoxelKey::new(15, 15, 15),
            VoxelKey::new(7, 8, 9),
        ];
        for &k in &keys {
            tree.update_node(k, true);
        }
        for &k in &keys {
            assert!(tree.leaves().any(|l| l.covers(k)), "no leaf covers {k}");
        }
    }

    #[test]
    fn occupied_voxel_count_weights_pruned_cubes() {
        let mut tree = small_tree();
        for x in 0..2u16 {
            for y in 0..2u16 {
                for z in 0..2u16 {
                    for _ in 0..10 {
                        tree.update_node(VoxelKey::new(x, y, z), true);
                    }
                }
            }
        }
        assert_eq!(tree.occupied_voxel_count(), 8);
    }

    #[test]
    fn clear_resets_tree() {
        let mut tree = small_tree();
        tree.update_node(VoxelKey::new(1, 1, 1), true);
        assert!(!tree.is_empty());
        tree.clear();
        assert!(tree.is_empty());
        assert_eq!(tree.search(VoxelKey::new(1, 1, 1)), None);
    }

    #[test]
    fn world_point_query() {
        let grid = VoxelGrid::new(0.5, 8).unwrap();
        let mut tree = OccupancyOcTree::new(grid, OccupancyParams::default());
        let p = Point3::new(1.2, -0.7, 3.3);
        let key = grid.key_of(p).unwrap();
        tree.update_node(key, true);
        assert_eq!(tree.is_occupied_at(p).unwrap(), Some(true));
        assert!(tree.is_occupied_at(Point3::new(1e9, 0.0, 0.0)).is_err());
    }

    #[test]
    fn memory_usage_tracks_allocation_across_insert_prune_clear() {
        let mut tree = small_tree();
        assert_eq!(tree.memory_usage(), 0, "empty tree owns nothing");

        // Insert with pruning off so the full octant stays expanded.
        tree.set_auto_prune(false);
        for x in 0..2u16 {
            for y in 0..2u16 {
                for z in 0..2u16 {
                    for _ in 0..10 {
                        tree.update_node(VoxelKey::new(x, y, z), true);
                    }
                }
            }
        }
        let grown = tree.memory_usage();
        assert!(grown > 0, "inserts must grow the footprint");
        tree.check_invariants().unwrap();

        tree.prune();
        tree.check_invariants().unwrap();
        // Pruned blocks stay resident on the free-list — that slack is
        // deliberate (recycling) and must stay counted. Free-list
        // bookkeeping may add a few bytes but the pool itself never shrinks.
        let pruned = tree.memory_usage();
        assert!(
            pruned >= grown,
            "prune keeps pool capacity ({pruned} < {grown})"
        );

        tree.clear();
        assert_eq!(tree.memory_usage(), 0, "clear releases everything");
    }

    #[test]
    fn manual_prune_after_lazy_updates() {
        let mut tree = small_tree();
        tree.set_auto_prune(false);
        for x in 0..2u16 {
            for y in 0..2u16 {
                for z in 0..2u16 {
                    for _ in 0..10 {
                        tree.update_node(VoxelKey::new(x, y, z), true);
                    }
                }
            }
        }
        let nodes_before = tree.num_nodes();
        tree.prune();
        assert!(tree.num_nodes() < nodes_before);
        assert_eq!(tree.is_occupied(VoxelKey::new(1, 0, 1)), Some(true));
    }

    #[test]
    fn batch_on_an_empty_tree() {
        let mut tree = small_tree();
        tree.set_log_odds_batch([]);
        assert!(tree.is_empty(), "an empty batch creates no root");
        tree.check_invariants().unwrap();

        let cells = [
            (VoxelKey::new(9, 1, 4), 1.5),
            (VoxelKey::new(0, 0, 0), -0.5),
            (VoxelKey::new(9, 1, 5), 0.25),
            (VoxelKey::new(9, 1, 4), 100.0), // repeated: the last value wins, clamped
        ];
        tree.set_log_odds_batch(cells);
        tree.check_invariants().unwrap();
        let mut twin = small_tree();
        for (key, value) in cells {
            twin.set_node_log_odds(key, value);
        }
        assert_eq!(tree.search(cells[0].0), Some(tree.params().clamp_max));
        assert_eq!(tree.leaf_checksum(), twin.leaf_checksum());
        assert_eq!(tree.num_nodes(), twin.num_nodes());
        assert_eq!(tree.stats().leaf_updates(), 4);
    }

    #[test]
    fn batch_visits_are_one_round_trip_plus_the_tree_distances() {
        let mut tree = small_tree();
        // (key, tree distance to the previous key)
        let keys = [
            (VoxelKey::new(0, 0, 0), 0),
            (VoxelKey::new(1, 0, 0), 2),                 // sibling
            (VoxelKey::new(1, 0, 0), 0),                 // same leaf: one visit to rewrite it
            (VoxelKey::new(3, 3, 3), 4),                 // level-2 ancestor
            (VoxelKey::new(15, 0, 9), 2 * DEPTH as u64), // only the root in common
        ];
        let cells = keys.iter().enumerate();
        tree.set_log_odds_batch(cells.map(|(i, (k, _))| (*k, i as f32 * 0.1)));
        let distances: u64 = keys.iter().map(|(_, d)| d).sum();
        assert_eq!(
            tree.stats().node_visits(),
            2 * DEPTH as u64 + 1 + distances + 1
        );
    }

    #[test]
    fn batch_closes_its_path_when_the_cells_panic() {
        let mut tree = small_tree();
        tree.set_node_log_odds(VoxelKey::new(2, 2, 2), -1.0);
        let cells = [
            (VoxelKey::new(12, 3, 7), 2.0),
            (VoxelKey::new(12, 3, 6), 3.0),
            (VoxelKey::new(1, 1, 1), 1.0),
        ];
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tree.set_log_odds_batch(cells.iter().map(|&(key, value)| {
                assert!(value != 1.0, "the producer died mid-batch");
                (key, value)
            }));
        }));
        assert!(unwound.is_err());
        // The two cells that were written stay written, under inner nodes
        // that were refreshed on the way out: a valid tree to re-apply to.
        tree.check_invariants().unwrap();
        assert_eq!(tree.root_ref().map(|r| r.log_odds()), Some(3.0));
        assert_eq!(tree.search(cells[1].0), Some(3.0));
        assert_eq!(tree.search(cells[2].0), None);
        tree.set_log_odds_batch(cells);
        tree.check_invariants().unwrap();
        assert_eq!(tree.search(cells[2].0), Some(1.0));
    }

    /// Depth of [`small_tree`]'s grid.
    const DEPTH: u8 = 4;

    /// Applies one leaf update to the flat reference map with the paper's
    /// per-voxel rule (a voxel starts at the prior) and returns the result.
    fn model_apply(
        reference: &mut HashMap<VoxelKey, f32>,
        params: &OccupancyParams,
        key: VoxelKey,
        op: LeafOp,
    ) -> f32 {
        let e = reference.entry(key).or_insert(params.threshold);
        *e = match op {
            LeafOp::Observe { occupied } => params.apply(*e, occupied),
            LeafOp::Set { value } => params.clamp(value),
        };
        *e
    }

    /// `(nodes, leaves)` of the fully pruned octree of `depth` levels over
    /// the flat map: eight equal-valued sibling leaves merge into their
    /// parent, level by level.
    fn model_structure(reference: &HashMap<VoxelKey, f32>, depth: u8) -> (usize, usize) {
        // `Some(v)` is a leaf holding `v`, `None` an inner node.
        let mut level: HashMap<VoxelKey, Option<f32>> =
            reference.iter().map(|(k, v)| (*k, Some(*v))).collect();
        let (mut nodes, mut leaves) = (0, 0);
        for l in 0..depth {
            let mut families: HashMap<VoxelKey, Vec<Option<f32>>> = HashMap::new();
            for (key, node) in &level {
                families
                    .entry(key.ancestor_at(l + 1))
                    .or_default()
                    .push(*node);
            }
            level = families
                .into_iter()
                .map(|(parent, kids)| {
                    let merged =
                        kids[0].filter(|_| kids.len() == 8 && kids.iter().all(|k| *k == kids[0]));
                    if merged.is_none() {
                        nodes += kids.len();
                        leaves += kids.iter().flatten().count();
                    }
                    (parent, merged)
                })
                .collect();
        }
        // What is left is the root, if anything was ever inserted.
        (
            nodes + level.len(),
            leaves + level.values().flatten().count(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The flat `HashMap<VoxelKey, f32>` model is the oracle for the
        /// whole tree contract. Steps are leaf updates (observe / set), octant saturations (eight equal siblings, which prune to
        /// one aggregate that later updates expand again from the
        /// free-list), whole-tree prunes and `set_log_odds_batch` calls
        /// (cells as drawn, Morton-sorted, with every key repeated, or
        /// around an octant that saturates — and prunes — mid-batch and is
        /// written into again; often empty, or first on an empty tree),
        /// with auto-prune on or off. After every step the pool invariants
        /// hold and the tree equals a twin that takes each batch one
        /// `set_node_log_odds` at a time; at the end every voxel of the
        /// grid, touched or not, reads as the model says, the pruned
        /// structure has the model's node and leaf counts, and `.ot` / `.bt`
        /// streams re-serialise byte-identically.
        #[test]
        fn prop_matches_flat_reference(
            steps in proptest::collection::vec(
                (
                    (0u16..16, 0u16..16, 0u16..16),
                    0u8..8,
                    -3.0f32..3.0,
                    proptest::collection::vec(((0u16..16, 0u16..16, 0u16..16), -3.0f32..3.0), 0..24),
                ),
                1..200
            ),
            lazy in proptest::bool::ANY,
        ) {
            let mut tree = small_tree();
            tree.set_auto_prune(!lazy);
            let mut twin = small_tree();
            twin.set_auto_prune(!lazy);
            let params = *tree.params();
            let mut reference: HashMap<VoxelKey, f32> = HashMap::new();
            for ((x, y, z), kind, value, cells) in steps {
                let key = VoxelKey::new(x, y, z);
                let octant = |value: f32| {
                    (0..8u16).map(move |c| {
                        let sibling =
                            VoxelKey::new(x & !1 | c & 1, y & !1 | (c >> 1) & 1, z & !1 | c >> 2);
                        (sibling, value)
                    })
                };
                let set = |(k, value): (VoxelKey, f32)| (k, LeafOp::Set { value });
                let mut cells: Vec<(VoxelKey, f32)> = cells
                    .into_iter()
                    .map(|((x, y, z), v)| (VoxelKey::new(x, y, z), v))
                    .collect();
                let updates: Vec<(VoxelKey, LeafOp)> = match kind {
                    0 => vec![(key, LeafOp::Observe { occupied: value > 0.0 })],
                    1 => vec![(key, LeafOp::Set { value })],
                    2 => octant(params.clamp_max).map(set).collect(),
                    3 => {
                        tree.prune();
                        twin.prune();
                        Vec::new()
                    }
                    _ => {
                        match kind {
                            4 => {}
                            5 => cells.sort_by_key(|c| morton::encode(c.0)),
                            // Every key again, in reverse, with another value.
                            6 => cells.extend(cells.clone().into_iter().rev().map(|(k, v)| (k, -v))),
                            _ => {
                                let rest = cells.split_off(cells.len() / 2);
                                cells.extend(octant(params.clamp_max));
                                cells.extend(rest);
                                cells.push((key, value));
                            }
                        }
                        tree.set_log_odds_batch(cells.iter().copied());
                        for &(k, value) in &cells {
                            let expected = model_apply(&mut reference, &params, k, LeafOp::Set { value });
                            prop_assert_eq!(twin.set_node_log_odds(k, value), expected);
                        }
                        Vec::new()
                    }
                };
                for (k, op) in updates {
                    let expected = model_apply(&mut reference, &params, k, op);
                    prop_assert_eq!(tree.apply_at_leaf(k, op), expected);
                    twin.apply_at_leaf(k, op);
                }
                tree.check_invariants().unwrap();
                twin.check_invariants().unwrap();
                prop_assert_eq!(tree.leaf_checksum(), twin.leaf_checksum());
                prop_assert_eq!(
                    (tree.num_nodes(), tree.num_leaves()),
                    (twin.num_nodes(), twin.num_leaves())
                );
                prop_assert_eq!(crate::io::write_tree(&tree), crate::io::write_tree(&twin));
                prop_assert_eq!(
                    crate::io_bt::write_binary_tree(&tree),
                    crate::io_bt::write_binary_tree(&twin)
                );
                if kind == 2 {
                    // With auto-prune on this lands on the pruned aggregate.
                    prop_assert_eq!(tree.search(key), Some(params.clamp_max));
                }
            }
            for x in 0..16u16 {
                for y in 0..16u16 {
                    for z in 0..16u16 {
                        let key = VoxelKey::new(x, y, z);
                        prop_assert_eq!(tree.search(key), reference.get(&key).copied());
                    }
                }
            }

            tree.prune();
            tree.check_invariants().unwrap();
            prop_assert_eq!(
                (tree.num_nodes(), tree.num_leaves()),
                model_structure(&reference, DEPTH)
            );

            let ot = crate::io::write_tree(&tree);
            let restored = crate::io::read_tree(&ot).unwrap();
            restored.check_invariants().unwrap();
            prop_assert_eq!(restored.leaf_checksum(), tree.leaf_checksum());
            prop_assert_eq!(&crate::io::write_tree(&restored), &ot);

            let bt = crate::io_bt::write_binary_tree(&tree);
            let ml = crate::io_bt::read_binary_tree(&bt).unwrap();
            ml.check_invariants().unwrap();
            prop_assert_eq!(ml.num_nodes(), tree.num_nodes());
            prop_assert_eq!(&crate::io_bt::write_binary_tree(&ml), &bt);
            for key in reference.keys() {
                prop_assert_eq!(ml.is_occupied(*key), tree.is_occupied(*key));
            }
        }

        /// Both pools against the flat model at depths 4–8: steps work in
        /// one 8³ region so siblings meet — observations, sets (a NaN among
        /// them), saturated 2³ octants and 4³ cubes (which prune a brick,
        /// then an inner block, onto their free lists), whole-tree prunes —
        /// and later writes into a saturated region expand it again from
        /// the free lists. After every step the invariants hold (no empty
        /// block, no reached absent slot, no leaked block); at the end every
        /// voxel of the region reads as the model says, the pruned structure
        /// has the model's node and leaf counts, and the `.ot` stream
        /// re-serialises byte-identically.
        #[test]
        fn prop_both_pools_match_flat_reference(
            depth in 4u8..9,
            corner in (0u16..256, 0u16..256, 0u16..256),
            steps in proptest::collection::vec(
                ((0u16..8, 0u16..8, 0u16..8), 0u8..5, -3.0f32..3.0),
                1..120
            ),
            lazy in proptest::bool::ANY,
        ) {
            let grid = VoxelGrid::new(1.0, depth).unwrap();
            let mut tree = OccupancyOcTree::new(grid, OccupancyParams::default());
            tree.set_auto_prune(!lazy);
            let params = *tree.params();
            let edge = 1u16 << depth;
            let base = |c: u16| (c % edge) & !7;
            let (bx, by, bz) = (base(corner.0), base(corner.1), base(corner.2));
            let mut reference: HashMap<VoxelKey, f32> = HashMap::new();
            for ((x, y, z), kind, value) in steps {
                let key = VoxelKey::new(bx + x, by + y, bz + z);
                // The `2^level` cube around `key`, every voxel set to `value`.
                let cube = |level: u8, value: f32| {
                    let m = !((1u16 << level) - 1);
                    let n = 1u16 << level;
                    let (cx, cy, cz) = (key.x & m, key.y & m, key.z & m);
                    (0..n * n * n).map(move |i| {
                        (VoxelKey::new(cx + i % n, cy + (i / n) % n, cz + i / (n * n)), value)
                    })
                };
                let cells: Vec<(VoxelKey, f32)> = match kind {
                    0 => {
                        let op = LeafOp::Observe { occupied: value > 0.0 };
                        let expected = model_apply(&mut reference, &params, key, op);
                        prop_assert_eq!(tree.apply_at_leaf(key, op), expected);
                        Vec::new()
                    }
                    1 => vec![(key, if value > 2.5 { f32::NAN } else { value })],
                    2 => cube(1, params.clamp_max).collect(),
                    3 => cube(2, params.clamp_max).collect(),
                    _ => {
                        tree.prune();
                        Vec::new()
                    }
                };
                tree.set_log_odds_batch(cells.iter().copied());
                for &(k, value) in &cells {
                    model_apply(&mut reference, &params, k, LeafOp::Set { value });
                }
                tree.check_invariants().unwrap();
                if kind == 2 || kind == 3 {
                    prop_assert_eq!(tree.search(key), Some(params.clamp_max));
                }
            }
            for x in bx.saturating_sub(1)..(bx + 9).min(edge) {
                for y in by.saturating_sub(1)..(by + 9).min(edge) {
                    for z in bz.saturating_sub(1)..(bz + 9).min(edge) {
                        let key = VoxelKey::new(x, y, z);
                        prop_assert_eq!(tree.search(key), reference.get(&key).copied());
                    }
                }
            }
            tree.prune();
            tree.check_invariants().unwrap();
            prop_assert_eq!(
                (tree.num_nodes(), tree.num_leaves()),
                model_structure(&reference, depth)
            );
            let ot = crate::io::write_tree(&tree);
            let restored = crate::io::read_tree(&ot).unwrap();
            restored.check_invariants().unwrap();
            prop_assert_eq!(restored.leaf_checksum(), tree.leaf_checksum());
            prop_assert_eq!(&crate::io::write_tree(&restored), &ot);
        }

        /// Invariants hold after any interleaving of observe / set
        /// operations (with and without a final manual prune).
        #[test]
        fn prop_invariants_hold_under_mixed_ops(
            ops in proptest::collection::vec(
                ((0u16..16, 0u16..16, 0u16..16), proptest::bool::ANY, -3.0f32..3.0),
                1..150
            ),
            lazy in proptest::bool::ANY,
        ) {
            let mut tree = small_tree();
            tree.set_auto_prune(!lazy);
            for ((x, y, z), observe, value) in ops {
                let key = VoxelKey::new(x, y, z);
                if observe {
                    tree.update_node(key, value > 0.0);
                } else {
                    tree.set_node_log_odds(key, value);
                }
            }
            tree.check_invariants().unwrap();
            tree.prune();
            tree.check_invariants().unwrap();
        }

        /// Leaves are disjoint and cover exactly the updated space.
        #[test]
        fn prop_leaves_partition(
            keys in proptest::collection::vec((0u16..16, 0u16..16, 0u16..16), 1..60)
        ) {
            let mut tree = small_tree();
            for &(x, y, z) in &keys {
                tree.update_node(VoxelKey::new(x, y, z), (x + y + z) % 2 == 0);
            }
            let leaves: Vec<LeafEntry> = tree.leaves().collect();
            // No two leaves overlap: compare Morton ranges.
            let mut ranges: Vec<(u64, u64)> = leaves
                .iter()
                .map(|l| {
                    let start = morton::encode(l.key);
                    let len = 1u64 << (3 * l.level as u32);
                    (start, start + len)
                })
                .collect();
            ranges.sort_unstable();
            for w in ranges.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlapping leaves");
            }
        }
    }
}
