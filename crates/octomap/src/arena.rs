//! Index-based node-pool storage for the occupancy octree.
//!
//! Reference OctoMap boxes every node and chases a pointer per level — the
//! root-to-leaf walk the paper costs out in §3.2. This module is the layout
//! the related work advocates (OpenVDB-style occupancy mapping, VoxelCache):
//! all nodes live in one `Vec`-backed pool addressed by `u32` indices. The
//! walk visits the same nodes in the same order; only the bytes per node
//! and the cost per visit differ.
//!
//! Layout rules:
//!
//! * slot 0 is the root; a tree with an empty pool has no root;
//! * the eight children of a node are allocated as one contiguous block of
//!   eight slots, so a child is `block + child_index` — one add, no pointer
//!   dereference — and siblings share cache lines;
//! * pruning pushes the freed child block onto a free-list instead of
//!   returning memory to the allocator; the next expansion or insertion
//!   reuses it (recycled slots are written before they are ever read, so
//!   blocks are recycled without clearing);
//! * update, search and prune are iterative — no recursion on the hot path.
//!
//! The pool is append-only apart from the free-list, so node indices are
//! stable across updates: an in-flight traversal's path array stays valid
//! while ancestors prune below it.

use octocache_geom::VoxelKey;

use crate::occupancy::OccupancyParams;
use crate::stats::TreeStats;
use crate::tree::LeafOp;

/// Sentinel for "no child block".
const NO_BLOCK: u32 = u32::MAX;

/// One pooled node: 12 bytes instead of a heap box plus a 64-byte child
/// array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ArenaNode {
    log_odds: f32,
    /// Pool index of the first of this node's eight child slots, or
    /// [`NO_BLOCK`] for a childless node.
    block: u32,
    /// Child-presence bitmask (bit `i` set ⇔ child `i` exists).
    mask: u8,
}

impl ArenaNode {
    #[inline]
    fn leaf(log_odds: f32) -> ArenaNode {
        ArenaNode {
            log_odds,
            block: NO_BLOCK,
            mask: 0,
        }
    }
}

/// A `Vec`-backed occupancy octree: the storage behind
/// [`crate::OccupancyOcTree`].
#[derive(Debug, Clone, Default)]
pub(crate) struct ArenaTree {
    nodes: Vec<ArenaNode>,
    /// Recycled child blocks (base indices), most recently freed last.
    free_blocks: Vec<u32>,
}

impl ArenaTree {
    pub(crate) fn new() -> ArenaTree {
        ArenaTree::default()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    #[inline]
    pub(crate) fn log_odds(&self, idx: u32) -> f32 {
        self.nodes[idx as usize].log_odds
    }

    #[inline]
    pub(crate) fn child_mask(&self, idx: u32) -> u8 {
        self.nodes[idx as usize].mask
    }

    /// Pool index of child `i` of `idx`, if present.
    #[inline]
    pub(crate) fn child_of(&self, idx: u32, i: usize) -> Option<u32> {
        let n = &self.nodes[idx as usize];
        if n.mask & (1 << i) == 0 {
            None
        } else {
            Some(n.block + i as u32)
        }
    }

    /// Drops every node *and* the pool's capacity (so
    /// `memory_usage` reflects the release).
    pub(crate) fn clear(&mut self) {
        *self = ArenaTree::new();
    }

    /// Pool footprint in bytes: allocated capacity of the node pool
    /// (free-list slack included — recycled blocks stay resident) plus the
    /// free-list itself.
    pub(crate) fn memory_usage(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<ArenaNode>()
            + self.free_blocks.capacity() * std::mem::size_of::<u32>()
    }

    /// Grabs a child block: recycles the most recently freed one, else grows
    /// the pool by eight slots.
    fn alloc_block(&mut self) -> u32 {
        if let Some(b) = self.free_blocks.pop() {
            return b;
        }
        // Map streams grow the pool too, so the index space is checked
        // rather than wrapped: `b + 7` must stay below `NO_BLOCK`.
        assert!(
            self.nodes.len() < (NO_BLOCK - 8) as usize,
            "octree pool exceeds the u32 index space"
        );
        let b = self.nodes.len() as u32;
        self.nodes
            .resize(self.nodes.len() + 8, ArenaNode::leaf(0.0));
        b
    }

    /// Opens a write path on the tree: see [`OpenPath`].
    pub(crate) fn open_path<'a>(
        &'a mut self,
        depth: u8,
        params: &'a OccupancyParams,
        stats: &'a TreeStats,
        auto_prune: bool,
    ) -> OpenPath<'a> {
        debug_assert!(depth as usize <= 16);
        OpenPath {
            tree: self,
            params,
            stats,
            depth,
            auto_prune,
            path: [0; 17],
            level: depth + 1,
            key: VoxelKey::new(0, 0, 0),
        }
    }

    /// One level of the descent: from inner node `idx` into child `child`,
    /// expanding `idx` first when it is a pruned aggregate (childless and
    /// not `fresh`, i.e. not created by this very descent) so the sibling
    /// octants keep their value, and creating the child when it is missing.
    /// Returns the child's index and whether it was just created.
    #[inline]
    fn step_down(
        &mut self,
        idx: u32,
        child: usize,
        fresh: bool,
        params: &OccupancyParams,
        stats: &TreeStats,
    ) -> (u32, bool) {
        let bit = 1u8 << child;
        let node = self.nodes[idx as usize];
        if !fresh && node.mask == 0 {
            let block = self.alloc_block();
            for s in 0..8u32 {
                self.nodes[(block + s) as usize] = ArenaNode::leaf(node.log_odds);
            }
            let n = &mut self.nodes[idx as usize];
            n.block = block;
            n.mask = 0xff;
            stats.count_expansion();
            stats.count_visits(8);
        }
        let mut created = false;
        if self.nodes[idx as usize].mask & bit == 0 {
            if self.nodes[idx as usize].block == NO_BLOCK {
                let b = self.alloc_block();
                self.nodes[idx as usize].block = b;
            }
            let b = self.nodes[idx as usize].block;
            self.nodes[(b + child as u32) as usize] = ArenaNode::leaf(params.threshold);
            self.nodes[idx as usize].mask |= bit;
            stats.count_created();
            created = true;
        }
        (self.nodes[idx as usize].block + child as u32, created)
    }

    /// Closes inner node `idx` once everything below it is final: merges
    /// eight equal childless children into it, else refreshes its value to
    /// the max of its children.
    #[inline]
    fn close_node(&mut self, idx: u32, auto_prune: bool, stats: &TreeStats) {
        if auto_prune && self.is_prunable(idx) {
            self.prune_node(idx);
            stats.count_prune();
        } else {
            self.refresh_from_children(idx);
        }
    }

    /// Opens a read cursor on the tree: see [`ReadCursor`].
    pub(crate) fn read_cursor<'a>(&'a self, depth: u8, stats: &'a TreeStats) -> ReadCursor<'a> {
        debug_assert!(depth as usize <= 16);
        ReadCursor {
            tree: self,
            stats,
            depth,
            path: [0; 17],
            len: 0,
            key: VoxelKey::new(0, 0, 0),
            queries: 0,
            visited: 0,
            reused: 0,
        }
    }

    /// Full bottom-up prune (iterative post-order): freed child blocks go to
    /// the free-list for recycling.
    pub(crate) fn prune(&mut self, depth: u8, stats: &TreeStats) {
        if self.nodes.is_empty() {
            return;
        }
        let mut stack: Vec<(u32, u8, bool)> = vec![(0, depth, false)];
        while let Some((idx, level, children_done)) = stack.pop() {
            let n = self.nodes[idx as usize];
            if level == 0 || n.mask == 0 {
                continue;
            }
            if !children_done {
                stack.push((idx, level, true));
                for c in 0..8u32 {
                    if n.mask & (1 << c) != 0 {
                        stack.push((n.block + c, level - 1, false));
                    }
                }
            } else {
                self.close_node(idx, true, stats);
            }
        }
    }

    /// True when all eight children exist, all are childless and all carry
    /// the same value.
    fn is_prunable(&self, idx: u32) -> bool {
        let n = self.nodes[idx as usize];
        if n.mask != 0xff {
            return false;
        }
        let b = n.block as usize;
        let first = self.nodes[b];
        if first.mask != 0 {
            return false;
        }
        let v = first.log_odds;
        for s in 1..8 {
            let c = self.nodes[b + s];
            if c.mask != 0 || c.log_odds != v {
                return false;
            }
        }
        true
    }

    /// Merges eight equal childless children into their parent, recycling
    /// the child block. Caller must have checked `is_prunable`.
    fn prune_node(&mut self, idx: u32) {
        let block = self.nodes[idx as usize].block;
        let v = self.nodes[block as usize].log_odds;
        self.free_blocks.push(block);
        let n = &mut self.nodes[idx as usize];
        n.log_odds = v;
        n.block = NO_BLOCK;
        n.mask = 0;
    }

    /// The maximum value over the children of `idx`, if it has any.
    pub(crate) fn max_child(&self, idx: u32) -> Option<f32> {
        let n = self.nodes[idx as usize];
        if n.mask == 0 {
            return None;
        }
        let mut max = f32::NEG_INFINITY;
        for c in 0..8u32 {
            if n.mask & (1 << c) != 0 {
                max = max.max(self.nodes[(n.block + c) as usize].log_odds);
            }
        }
        Some(max)
    }

    /// Refreshes inner node `idx` to the maximum over its children (no-op on
    /// a childless node).
    pub(crate) fn refresh_from_children(&mut self, idx: u32) {
        if let Some(max) = self.max_child(idx) {
            self.nodes[idx as usize].log_odds = max;
        }
    }

    pub(crate) fn count_nodes(&self) -> usize {
        self.walk().0
    }

    pub(crate) fn count_leaves(&self) -> usize {
        self.walk().1
    }

    /// Counts the live nodes: `(nodes, leaves)`.
    fn walk(&self) -> (usize, usize) {
        if self.nodes.is_empty() {
            return (0, 0);
        }
        let (mut nodes, mut leaves) = (0usize, 0usize);
        let mut stack = vec![0u32];
        while let Some(idx) = stack.pop() {
            nodes += 1;
            let n = self.nodes[idx as usize];
            if n.mask == 0 {
                leaves += 1;
                continue;
            }
            for c in 0..8u32 {
                if n.mask & (1 << c) != 0 {
                    stack.push(n.block + c);
                }
            }
        }
        (nodes, leaves)
    }

    /// Decoder primitive: starts an empty pool with a childless root.
    pub(crate) fn push_root(&mut self, log_odds: f32) {
        debug_assert!(self.nodes.is_empty());
        self.nodes.push(ArenaNode::leaf(log_odds));
    }

    /// Decoder primitive: gives childless node `idx` a child block holding
    /// the children named in `mask` and returns the block's base index. The
    /// caller sets every named child's value; the slots start childless
    /// because a pool being decoded has never freed a block.
    pub(crate) fn add_children(&mut self, idx: u32, mask: u8) -> u32 {
        debug_assert!(self.free_blocks.is_empty());
        let block = self.alloc_block();
        let n = &mut self.nodes[idx as usize];
        n.block = block;
        n.mask = mask;
        block
    }

    /// Decoder primitive: overwrites one node's value.
    pub(crate) fn set_log_odds(&mut self, idx: u32, log_odds: f32) {
        self.nodes[idx as usize].log_odds = log_odds;
    }

    /// Structural self-check: every reachable childless node holds no block,
    /// every block index is well-formed, and every allocated block is either
    /// reachable or on the free-list — exactly once.
    pub(crate) fn check_structure(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            if !self.free_blocks.is_empty() {
                return Err("free list non-empty in an empty tree".into());
            }
            return Ok(());
        }
        if !(self.nodes.len() - 1).is_multiple_of(8) {
            return Err(format!("pool size {} is not 1 + 8k", self.nodes.len()));
        }
        let total_blocks = (self.nodes.len() - 1) / 8;
        let block_slot = |b: u32| -> Result<usize, String> {
            let b = b as usize;
            if b == 0 || !(b - 1).is_multiple_of(8) || b + 8 > self.nodes.len() {
                Err(format!("bad block index {b}"))
            } else {
                Ok((b - 1) / 8)
            }
        };
        let mut seen = vec![false; total_blocks];
        for &b in &self.free_blocks {
            let s = block_slot(b)?;
            if seen[s] {
                return Err(format!("block {b} freed twice"));
            }
            seen[s] = true;
        }
        let mut live = 0usize;
        let mut stack = vec![0u32];
        while let Some(i) = stack.pop() {
            let n = self.nodes[i as usize];
            if n.mask == 0 {
                if n.block != NO_BLOCK {
                    return Err(format!("childless node {i} keeps block {}", n.block));
                }
                continue;
            }
            let s = block_slot(n.block)?;
            if seen[s] {
                return Err(format!(
                    "block {} reached twice or also on free list",
                    n.block
                ));
            }
            seen[s] = true;
            live += 1;
            for c in 0..8u32 {
                if n.mask & (1 << c) != 0 {
                    stack.push(n.block + c);
                }
            }
        }
        if live + self.free_blocks.len() != total_blocks {
            return Err(format!(
                "leaked blocks: {live} live + {} free != {total_blocks} allocated",
                self.free_blocks.len()
            ));
        }
        Ok(())
    }
}

/// A root-to-leaf write path kept open between consecutive leaf updates —
/// the cursor behind every tree write, one cell or a whole eviction batch.
///
/// Moving to the next key closes (prune-or-refresh, once) only the nodes
/// below its common ancestor with the previous key and descends only from
/// there; [`close`](Self::close) closes what is still open, and the tree is
/// valid again. Nodes above the common ancestor are thus closed after every
/// write beneath them instead of after each, which leaves the same leaves
/// and the same pruned structure as one full round trip per key, for any
/// key order.
///
/// Visits are counted as reference OctoMap's recursion makes them — one per
/// node on the way down, one per inner node closed, eight per expansion —
/// so a single update costs `2·depth + 1` (`core/tests/golden/structure.txt`
/// pins it) and each further distinct key adds its tree distance to the
/// previous one: the paper's 𝓕(S) (§4.3) is the batch's cost.
pub(crate) struct OpenPath<'a> {
    tree: &'a mut ArenaTree,
    params: &'a OccupancyParams,
    stats: &'a TreeStats,
    depth: u8,
    auto_prune: bool,
    /// `path[depth - l]` is the open node at level `l` (the root is level
    /// `depth`, a leaf level 0). Indices are stable (the pool never
    /// compacts), so entries stay valid while nodes below them prune.
    path: [u32; 17],
    /// Level of the deepest open node; `depth + 1` while nothing is open.
    level: u8,
    /// The leaf the path ends at, once `level` has reached 0.
    key: VoxelKey,
}

impl OpenPath<'_> {
    /// Moves the path to `key`'s leaf, applies `op` there and returns the
    /// new value.
    #[inline]
    pub(crate) fn apply(&mut self, key: VoxelKey, op: LeafOp) -> f32 {
        let depth = self.depth;
        let mut fresh = false;
        if self.level > depth {
            if self.tree.nodes.is_empty() {
                self.tree.nodes.push(ArenaNode::leaf(self.params.threshold));
                self.stats.count_created();
                fresh = true;
            }
            self.path[0] = 0;
            self.level = depth;
        } else {
            self.close_below(self.key.common_ancestor_level(key, depth));
        }
        let mut idx = self.path[(depth - self.level) as usize];
        while self.level > 0 {
            self.stats.count_visit();
            let child = key.child_index(self.level - 1).as_usize();
            (idx, fresh) = self
                .tree
                .step_down(idx, child, fresh, self.params, self.stats);
            self.level -= 1;
            self.path[(depth - self.level) as usize] = idx;
        }
        self.key = key;

        self.stats.count_visit();
        let leaf = &mut self.tree.nodes[idx as usize];
        let new = match op {
            LeafOp::Observe { occupied } => self.params.apply(leaf.log_odds, occupied),
            LeafOp::Add { delta } => self.params.clamp(leaf.log_odds + delta),
            LeafOp::Set { value } => self.params.clamp(value),
        };
        leaf.log_odds = new;
        self.stats.count_leaf_update();
        new
    }

    /// Closes every node still open, deepest first.
    #[inline]
    pub(crate) fn close(&mut self) {
        self.close_below(self.depth + 1);
    }

    /// Closes the open inner nodes below level `upto`, deepest first.
    #[inline]
    fn close_below(&mut self, upto: u8) {
        while self.level < upto {
            if self.level > 0 {
                self.stats.count_visit();
                let idx = self.path[(self.depth - self.level) as usize];
                self.tree.close_node(idx, self.auto_prune, self.stats);
            }
            self.level += 1;
        }
    }
}

/// An [`OpenPath`] that is closed when dropped, so a batch whose cell
/// iterator panics still leaves a valid tree. A single update closes its
/// path itself instead: keeping the path where an unwind could find it cost
/// the per-observation update 7 %.
pub(crate) struct ClosedOnDrop<'a>(pub(crate) OpenPath<'a>);

impl Drop for ClosedOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// A root-to-leaf read path kept between consecutive lookups — the
/// read-only twin of the write path (`OpenPath`), created by
/// [`OccupancyOcTree::read_cursor`](crate::OccupancyOcTree::read_cursor).
///
/// A lookup keeps the nodes of the previous descent above its common
/// ancestor with the previous key and descends only from there, so a run of
/// nearby keys (the voxels of one ray, a Morton-sorted probe batch) pays for
/// the few levels in which neighbours differ instead of the whole depth.
/// Every answer is exactly
/// [`OccupancyOcTree::search`](crate::OccupancyOcTree::search)'s; the cursor
/// borrows the tree, so nothing can change beneath its path.
///
/// Lookups and the nodes they descend into are counted in the cursor and
/// added to the tree's [`TreeStats`] once, when it is dropped: a reused node
/// is not a visit.
#[derive(Debug)]
pub struct ReadCursor<'a> {
    tree: &'a ArenaTree,
    stats: &'a TreeStats,
    depth: u8,
    /// `path[i]` is the node at level `depth - i` along the last lookup's
    /// descent (`path[0]` the root), for `i < len`. A descent that met a
    /// missing child or a pruned aggregate leaves a shorter path.
    path: [u32; 17],
    len: u8,
    /// The last key looked up, once `len > 0`.
    key: VoxelKey,
    queries: u64,
    visited: u64,
    reused: u64,
}

impl ReadCursor<'_> {
    /// The log-odds at `key`, or `None` in unknown space.
    #[inline]
    pub fn search(&mut self, key: VoxelKey) -> Option<f32> {
        self.queries += 1;
        let nodes = &self.tree.nodes;
        if nodes.is_empty() {
            return None;
        }
        let depth = self.depth;
        if self.len == 0 {
            self.path[0] = 0;
            self.len = 1;
            self.visited += 1;
        } else {
            // Levels `depth ..= common` hold the same nodes for both keys.
            let common = self.key.common_ancestor_level(key, depth);
            self.len = self.len.min(depth - common + 1);
            self.reused += u64::from(self.len);
        }
        self.key = key;
        let mut idx = self.path[self.len as usize - 1];
        let mut level = depth + 1 - self.len;
        // One index add per level, no pointer dereference.
        while level > 0 {
            let n = nodes[idx as usize];
            if n.mask == 0 {
                // Pruned aggregate covering this voxel.
                return Some(n.log_odds);
            }
            let c = key.child_index(level - 1).as_usize();
            if n.mask & (1 << c) == 0 {
                return None;
            }
            idx = n.block + c as u32;
            self.path[self.len as usize] = idx;
            self.len += 1;
            self.visited += 1;
            level -= 1;
        }
        Some(nodes[idx as usize].log_odds)
    }

    /// Nodes descended into so far (what the drop adds to
    /// [`TreeStats::node_visits`]).
    pub fn nodes_visited(&self) -> u64 {
        self.visited
    }

    /// Path nodes kept from the previous lookup instead of being fetched
    /// again, summed over the lookups so far.
    pub fn nodes_reused(&self) -> u64 {
        self.reused
    }
}

impl Drop for ReadCursor<'_> {
    fn drop(&mut self) {
        self.stats.count_queries(self.queries);
        self.stats.count_visits(self.visited);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> OccupancyParams {
        OccupancyParams::default()
    }

    fn observe(t: &mut ArenaTree, key: VoxelKey, occupied: bool, stats: &TreeStats) -> f32 {
        let params = params();
        let mut path = t.open_path(4, &params, stats, true);
        let new = path.apply(key, LeafOp::Observe { occupied });
        path.close();
        new
    }

    #[test]
    fn update_then_search_round_trip() {
        let mut t = ArenaTree::new();
        let stats = TreeStats::new();
        let key = VoxelKey::new(3, 7, 11);
        let v = observe(&mut t, key, true, &stats);
        assert_eq!(t.read_cursor(4, &stats).search(key), Some(v));
        assert_eq!(
            t.read_cursor(4, &stats).search(VoxelKey::new(0, 0, 0)),
            None
        );
        t.check_structure().unwrap();
    }

    #[test]
    fn prune_recycles_blocks() {
        let mut t = ArenaTree::new();
        let stats = TreeStats::new();
        // Saturate a full octant so its eight leaves prune to one aggregate.
        for x in 0..2u16 {
            for y in 0..2u16 {
                for z in 0..2u16 {
                    for _ in 0..10 {
                        observe(&mut t, VoxelKey::new(x, y, z), true, &stats);
                    }
                }
            }
        }
        assert!(stats.prunes() > 0);
        assert!(!t.free_blocks.is_empty(), "prune must feed the free list");
        t.check_structure().unwrap();
        let len_before = t.nodes.len();
        // The next expansion must reuse a recycled block, not grow the pool.
        observe(&mut t, VoxelKey::new(0, 0, 0), false, &stats);
        assert_eq!(t.nodes.len(), len_before);
        t.check_structure().unwrap();
    }

    #[test]
    fn clear_releases_capacity() {
        let mut t = ArenaTree::new();
        let stats = TreeStats::new();
        observe(&mut t, VoxelKey::new(1, 2, 3), true, &stats);
        assert!(t.memory_usage() > 0);
        t.clear();
        assert_eq!(t.memory_usage(), 0);
        assert!(t.is_empty());
    }
}
