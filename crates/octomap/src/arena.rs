//! Index-based node-pool storage for the occupancy octree.
//!
//! Reference OctoMap boxes every node and chases a pointer per level — the
//! root-to-leaf walk the paper costs out in §3.2. This module is the layout
//! the related work advocates (OpenVDB-style occupancy mapping, VoxelCache):
//! all nodes live in two `Vec`-backed pools addressed by `u32` indices. The
//! walk visits the same nodes in the same order; only the bytes per node
//! and the cost per visit differ.
//!
//! Layout rules:
//!
//! * the **inner pool** holds every node above the finest level as an
//!   8-byte `{log_odds, block}`, in blocks of eight siblings (64 bytes);
//!   slot 0 of block 0 is the root, and a tree with an empty pool has no
//!   root;
//! * the **brick pool** holds the finest level: the children of a level-1
//!   node are always leaves, so they live in a 32-byte brick of eight
//!   `f32`s;
//! * child `i` of a node whose `block` is `b` is slot (or leaf) `b · 8 + i`
//!   — a shift and an add, no pointer dereference — and siblings share a
//!   cache line or two;
//! * child presence is stored in the child slots, not in the parent: an
//!   inner slot whose `block` is [`ABSENT`] holds no child, and a brick slot
//!   holding the [`ABSENT_LEAF`] bit pattern (a NaN no tree write stores)
//!   holds no leaf. A traversal reads the child slot next anyway, so
//!   presence costs no access of its own;
//! * a node's `block` is [`NO_BLOCK`] while it is childless; a block in use
//!   always holds at least one present child;
//! * every traversal knows its level, and picks the pool by it: a level-1
//!   node's `block` indexes the brick pool, any other's the inner pool;
//! * pruning pushes the freed block or brick onto its pool's free-list
//!   instead of returning memory to the allocator; the next expansion or
//!   insertion reuses it, writing all eight slots first;
//! * update, search and prune are iterative — no recursion on the hot path.
//!
//! The pools are append-only apart from the free-lists, so node indices are
//! stable across updates: an in-flight traversal's path array stays valid
//! while ancestors prune below it.

use octocache_geom::VoxelKey;

use crate::occupancy::OccupancyParams;
use crate::stats::TreeStats;
use crate::tree::LeafOp;

/// `block` of a childless node.
const NO_BLOCK: u32 = u32::MAX;
/// `block` of an inner slot that holds no child. The pools are kept far
/// below it ([`MAX_BLOCKS`]), so no block index is it.
const ABSENT: u32 = u32::MAX - 1;
/// Bits of a brick slot that holds no leaf: a NaN, compared by bits. Every
/// tree write stores a finite value ([`OccupancyParams::clamp`]), so no
/// leaf ever holds it.
const ABSENT_LEAF: u32 = u32::MAX;
/// Blocks (and bricks) per pool: a slot (leaf) index is `block · 8 + i`,
/// which must fit a `u32` and stay clear of [`ABSENT`].
const MAX_BLOCKS: usize = 1 << 29;

/// One inner node: 8 bytes, so a block of eight siblings is 64.
#[derive(Debug, Clone, Copy)]
struct Inner {
    log_odds: f32,
    /// [`NO_BLOCK`] for a childless node, [`ABSENT`] for a slot holding no
    /// child, else the index of this node's children — a brick for a
    /// level-1 node, an inner block above.
    block: u32,
}

impl Inner {
    /// A slot holding no child. Its value, −∞, never wins a maximum.
    const ABSENT: Inner = Inner {
        log_odds: f32::NEG_INFINITY,
        block: ABSENT,
    };

    #[inline]
    fn childless(log_odds: f32) -> Inner {
        Inner {
            log_odds,
            block: NO_BLOCK,
        }
    }
}

/// Eight sibling inner slots: child `i` of a node whose `block` is `b` is
/// slot `b · 8 + i`. Block 0 holds the root in slot 0 and nothing else.
///
/// Neither pool is over-aligned: a type aligned past 16 bytes makes std
/// grow a `Vec` by allocate-copy-free instead of `realloc`, which keeps
/// both copies resident while the pool grows (`peak_rss_mb` on
/// `campus_baseline` read 77 MB against 44 so, on a 2-vCPU x86-64 host),
/// and aligned blocks read no faster.
type Block = [Inner; 8];

/// The eight leaves under one level-1 node: 32 bytes. Leaf `i` of brick
/// `b` is leaf `b · 8 + i`.
type Brick = [f32; 8];

#[inline]
fn is_absent(leaf: f32) -> bool {
    leaf.to_bits() == ABSENT_LEAF
}

/// Where an octree's pool bytes go: see
/// [`OccupancyOcTree::pool_census`](crate::OccupancyOcTree::pool_census).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolCensus {
    /// Live nodes.
    pub nodes: usize,
    /// Live leaves (pruned cubes count once).
    pub leaves: usize,
    /// Inner blocks in use, the root's own block included: 64 bytes each.
    pub inner_blocks: usize,
    /// Leaf bricks in use: 32 bytes each.
    pub bricks: usize,
    /// Inner blocks on the free list.
    pub free_inner_blocks: usize,
    /// Bricks on the free list.
    pub free_bricks: usize,
    /// [`OccupancyOcTree::memory_usage`](crate::OccupancyOcTree::memory_usage).
    pub bytes: usize,
}

/// A `Vec`-backed occupancy octree: the storage behind
/// [`crate::OccupancyOcTree`].
#[derive(Debug, Clone, Default)]
pub(crate) struct ArenaTree {
    inner: Vec<Block>,
    bricks: Vec<Brick>,
    /// Recycled inner blocks, most recently freed last.
    free_inner: Vec<u32>,
    /// Recycled bricks, most recently freed last.
    free_bricks: Vec<u32>,
}

impl ArenaTree {
    pub(crate) fn new() -> ArenaTree {
        ArenaTree::default()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    #[inline]
    fn node(&self, idx: u32) -> Inner {
        self.inner[(idx >> 3) as usize][(idx & 7) as usize]
    }

    #[inline]
    fn node_mut(&mut self, idx: u32) -> &mut Inner {
        &mut self.inner[(idx >> 3) as usize][(idx & 7) as usize]
    }

    #[inline]
    fn leaf(&self, idx: u32) -> f32 {
        self.bricks[(idx >> 3) as usize][(idx & 7) as usize]
    }

    #[inline]
    fn leaf_mut(&mut self, idx: u32) -> &mut f32 {
        &mut self.bricks[(idx >> 3) as usize][(idx & 7) as usize]
    }

    /// The value of node `idx` at `level` (0 = a leaf in the brick pool).
    #[inline]
    pub(crate) fn log_odds(&self, idx: u32, level: u8) -> f32 {
        if level == 0 {
            self.leaf(idx)
        } else {
            self.node(idx).log_odds
        }
    }

    #[inline]
    pub(crate) fn has_children(&self, idx: u32, level: u8) -> bool {
        level > 0 && self.node(idx).block != NO_BLOCK
    }

    /// Child-presence bitmask of node `idx` at `level` (bit `i` set ⇔
    /// child `i` exists), read from the child slots.
    pub(crate) fn child_mask(&self, idx: u32, level: u8) -> u8 {
        (0..8).fold(0u8, |mask, i| {
            mask | u8::from(self.child_of(idx, level, i).is_some()) << i
        })
    }

    /// Index of child `i` of node `idx` at `level`, if present (a leaf
    /// index when `level` is 1).
    #[inline]
    pub(crate) fn child_of(&self, idx: u32, level: u8, i: usize) -> Option<u32> {
        if !self.has_children(idx, level) {
            return None;
        }
        let child = self.node(idx).block * 8 + i as u32;
        let present = if level == 1 {
            !is_absent(self.leaf(child))
        } else {
            self.node(child).block != ABSENT
        };
        present.then_some(child)
    }

    /// Drops every node *and* the pools' capacity (so `memory_usage`
    /// reflects the release).
    pub(crate) fn clear(&mut self) {
        *self = ArenaTree::new();
    }

    /// The bytes the pools hold: 64 an inner block and 32 a brick, in use
    /// or on a free list (recycled entries stay resident), plus 4 a
    /// free-list entry. Counted by length, not capacity: the spare room a
    /// pool keeps after doubling is not the map's.
    pub(crate) fn memory_usage(&self) -> usize {
        use std::mem::size_of;
        self.inner.len() * size_of::<Block>()
            + self.bricks.len() * size_of::<Brick>()
            + (self.free_inner.len() + self.free_bricks.len()) * size_of::<u32>()
    }

    /// Grabs an inner block with all eight slots set to `fill`: recycles
    /// the most recently freed one, else grows the pool by one block.
    fn alloc_inner(&mut self, fill: Inner) -> u32 {
        let block: Block = [fill; 8];
        if let Some(b) = self.free_inner.pop() {
            self.inner[b as usize] = block;
            return b;
        }
        // Map streams grow the pool too, so the index space is checked
        // rather than wrapped: a slot index is `block · 8 + i`.
        assert!(
            self.inner.len() < MAX_BLOCKS,
            "octree pool exceeds the u32 index space"
        );
        self.inner.push(block);
        self.inner.len() as u32 - 1
    }

    /// Grabs a brick with all eight leaves set to `fill`: recycles the most
    /// recently freed one, else grows the brick pool by one.
    fn alloc_brick(&mut self, fill: f32) -> u32 {
        let brick: Brick = [fill; 8];
        if let Some(b) = self.free_bricks.pop() {
            self.bricks[b as usize] = brick;
            return b;
        }
        assert!(
            self.bricks.len() < MAX_BLOCKS,
            "octree brick pool exceeds the u32 index space"
        );
        self.bricks.push(brick);
        self.bricks.len() as u32 - 1
    }

    /// Opens a write path on the tree: see [`OpenPath`].
    pub(crate) fn open_path<'a>(
        &'a mut self,
        depth: u8,
        params: &'a OccupancyParams,
        stats: &'a mut TreeStats,
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

    /// The block under inner node `idx` — a brick when `leaves`, i.e. at
    /// level 1 — whose value `node` the descent has already read: a pruned
    /// aggregate (childless and not `fresh`, i.e. not created by this very
    /// descent) first expands into eight copies of itself so the sibling
    /// octants keep their value, and a fresh node gets a block of absent
    /// slots.
    #[inline]
    fn block_below(
        &mut self,
        idx: u32,
        node: Inner,
        leaves: bool,
        fresh: bool,
        stats: &mut TreeStats,
    ) -> u32 {
        if node.block != NO_BLOCK {
            return node.block;
        }
        let block = match (leaves, fresh) {
            (true, false) => self.alloc_brick(node.log_odds),
            (true, true) => self.alloc_brick(f32::from_bits(ABSENT_LEAF)),
            (false, false) => self.alloc_inner(Inner::childless(node.log_odds)),
            (false, true) => self.alloc_inner(Inner::ABSENT),
        };
        self.node_mut(idx).block = block;
        if !fresh {
            *stats.expansions.get_mut() += 1;
            *stats.node_visits.get_mut() += 8;
        }
        block
    }

    /// One level of the descent above level 1: from inner node `idx`
    /// (value `node`) into child `child`, creating the child when it is
    /// missing. Returns the child's index and value, which the next step
    /// reads instead of loading the slot again, and whether it was just
    /// created.
    #[inline]
    fn step_down(
        &mut self,
        idx: u32,
        node: Inner,
        child: usize,
        fresh: bool,
        params: &OccupancyParams,
        stats: &mut TreeStats,
    ) -> (u32, Inner, bool) {
        let c = self.block_below(idx, node, false, fresh, stats) * 8 + child as u32;
        let slot = self.node_mut(c);
        let created = slot.block == ABSENT;
        if created {
            *slot = Inner::childless(params.threshold);
            *stats.nodes_created.get_mut() += 1;
        }
        (c, *slot, created)
    }

    /// The last level of the descent: from level-1 node `idx` (value
    /// `node`) into leaf `child` of its brick, creating the leaf when it is
    /// missing. Returns the leaf's index.
    #[inline]
    fn step_to_leaf(
        &mut self,
        idx: u32,
        node: Inner,
        child: usize,
        fresh: bool,
        params: &OccupancyParams,
        stats: &mut TreeStats,
    ) -> u32 {
        let leaf = self.block_below(idx, node, true, fresh, stats) * 8 + child as u32;
        let slot = self.leaf_mut(leaf);
        if is_absent(*slot) {
            *slot = params.threshold;
            *stats.nodes_created.get_mut() += 1;
        }
        leaf
    }

    /// Closes inner node `idx` at `level` once everything below it is
    /// final: merges eight equal childless children into it, else refreshes
    /// its value to the max of its children.
    #[inline]
    fn close_node(&mut self, idx: u32, level: u8, auto_prune: bool, stats: &mut TreeStats) {
        let block = self.node(idx).block;
        if block == NO_BLOCK {
            return;
        }
        if let Some(v) = self.uniform_children(block, level).filter(|_| auto_prune) {
            self.prune_node(idx, level, v);
            *stats.prunes.get_mut() += 1;
        } else {
            self.node_mut(idx).log_odds = self.max_of(block, level);
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

    /// Full bottom-up prune (iterative post-order): freed blocks and bricks
    /// go to their free-lists for recycling.
    pub(crate) fn prune(&mut self, depth: u8, stats: &mut TreeStats) {
        if self.inner.is_empty() {
            return;
        }
        let mut stack: Vec<(u32, u8, bool)> = vec![(0, depth, false)];
        while let Some((idx, level, children_done)) = stack.pop() {
            if !self.has_children(idx, level) {
                continue;
            }
            if children_done {
                self.close_node(idx, level, true, stats);
                continue;
            }
            stack.push((idx, level, true));
            if level > 1 {
                let block = self.node(idx).block;
                for c in block * 8..block * 8 + 8 {
                    if self.node(c).block != ABSENT {
                        stack.push((c, level - 1, false));
                    }
                }
            }
        }
    }

    /// The value all eight children in `block` (under a node at `level`)
    /// share, when all eight exist, are childless and are equal (`==`; an
    /// absent leaf is a NaN, which equals nothing). Most blocks fail at the
    /// first or second slot.
    #[inline]
    fn uniform_children(&self, block: u32, level: u8) -> Option<f32> {
        if level == 1 {
            let brick = &self.bricks[block as usize];
            let v = brick[0];
            brick.iter().all(|&c| c == v).then_some(v)
        } else {
            let slots = &self.inner[block as usize];
            let v = slots[0].log_odds;
            slots
                .iter()
                .all(|c| c.block == NO_BLOCK && c.log_odds == v)
                .then_some(v)
        }
    }

    /// The maximum over the present children in `block` (under a node at
    /// `level`): an absent inner slot holds −∞, and an absent leaf reads as
    /// −∞ here. The eight values reduce as a tree, three comparisons deep:
    /// the closes up a path form one dependency chain (each reads the value
    /// the one below wrote), and a left fold made every level of it eight
    /// maxima long.
    #[inline]
    fn max_of(&self, block: u32, level: u8) -> f32 {
        let v = if level == 1 {
            let absent_low = |v: f32| if is_absent(v) { f32::NEG_INFINITY } else { v };
            self.bricks[block as usize].map(absent_low)
        } else {
            self.inner[block as usize].map(|c| c.log_odds)
        };
        // No NaN reaches here, so one comparison is a maximum.
        let max = |a: f32, b: f32| if a > b { a } else { b };
        max(
            max(max(v[0], v[1]), max(v[2], v[3])),
            max(max(v[4], v[5]), max(v[6], v[7])),
        )
    }

    /// Merges the children of inner node `idx` at `level` into it with
    /// value `v`, recycling their block or brick. Caller must have checked
    /// that all eight are equal and childless.
    fn prune_node(&mut self, idx: u32, level: u8, v: f32) {
        let n = self.node_mut(idx);
        let block = std::mem::replace(n, Inner::childless(v)).block;
        if level == 1 {
            self.free_bricks.push(block);
        } else {
            self.free_inner.push(block);
        }
    }

    /// The maximum value over the children of node `idx` at `level`, if it
    /// has any.
    pub(crate) fn max_child(&self, idx: u32, level: u8) -> Option<f32> {
        self.has_children(idx, level)
            .then(|| self.max_of(self.node(idx).block, level))
    }

    /// Refreshes inner node `idx` at `level` to the maximum over its
    /// children (no-op on a childless node).
    pub(crate) fn refresh_from_children(&mut self, idx: u32, level: u8) {
        if let Some(max) = self.max_child(idx, level) {
            self.node_mut(idx).log_odds = max;
        }
    }

    /// Counts the live nodes, blocks and bricks of a tree of `depth`
    /// levels.
    pub(crate) fn census(&self, depth: u8) -> PoolCensus {
        let mut census = PoolCensus {
            nodes: 0,
            leaves: 0,
            inner_blocks: 0,
            bricks: 0,
            free_inner_blocks: self.free_inner.len(),
            free_bricks: self.free_bricks.len(),
            bytes: self.memory_usage(),
        };
        if self.inner.is_empty() {
            return census;
        }
        // The root's own block.
        census.inner_blocks = 1;
        let mut stack = vec![(0u32, depth)];
        while let Some((idx, level)) = stack.pop() {
            census.nodes += 1;
            let block = self.node(idx).block;
            if block == NO_BLOCK {
                census.leaves += 1;
            } else if level == 1 {
                let present = self.bricks[block as usize]
                    .iter()
                    .filter(|&&v| !is_absent(v))
                    .count();
                census.bricks += 1;
                census.nodes += present;
                census.leaves += present;
            } else {
                census.inner_blocks += 1;
                for c in block * 8..block * 8 + 8 {
                    if self.node(c).block != ABSENT {
                        stack.push((c, level - 1));
                    }
                }
            }
        }
        census
    }

    /// Starts an empty pool with a childless root: block 0, whose other
    /// slots stay absent.
    fn push_root_block(&mut self, log_odds: f32) {
        let mut root: Block = [Inner::ABSENT; 8];
        root[0] = Inner::childless(log_odds);
        self.inner.push(root);
    }

    /// Decoder primitive: starts an empty pool with a childless root.
    pub(crate) fn push_root(&mut self, log_odds: f32) {
        debug_assert!(self.inner.is_empty());
        self.push_root_block(log_odds);
    }

    /// Decoder primitive: gives childless inner node `idx` at `level` a
    /// block holding the children named in `mask` (non-zero) and returns
    /// the index of its child 0 (a leaf index when `level` is 1). The
    /// caller sets every named child's value; named inner children start
    /// childless.
    pub(crate) fn add_children(&mut self, idx: u32, level: u8, mask: u8) -> u32 {
        debug_assert!(mask != 0 && level > 0);
        let named = |i: u32| mask & (1 << i) != 0;
        let block = if level == 1 {
            let b = self.alloc_brick(f32::from_bits(ABSENT_LEAF));
            for i in (0..8).filter(|&i| named(i)) {
                *self.leaf_mut(b * 8 + i) = 0.0;
            }
            b
        } else {
            let b = self.alloc_inner(Inner::ABSENT);
            for i in (0..8).filter(|&i| named(i)) {
                *self.node_mut(b * 8 + i) = Inner::childless(0.0);
            }
            b
        };
        self.node_mut(idx).block = block;
        block * 8
    }

    /// Decoder primitive: overwrites the value of node `idx` at `level`.
    pub(crate) fn set_log_odds(&mut self, idx: u32, level: u8, log_odds: f32) {
        if level == 0 {
            *self.leaf_mut(idx) = log_odds;
        } else {
            self.node_mut(idx).log_odds = log_odds;
        }
    }

    /// Structural self-check of a tree of `depth` levels: every reached
    /// childless node holds no block, every block and brick index is
    /// well-formed, every block in use holds a present child and every
    /// brick in use a present leaf, no leaf is a NaN, and every allocated
    /// block and brick is either reached or on its free-list — exactly once.
    pub(crate) fn check_structure(&self, depth: u8) -> Result<(), String> {
        if self.inner.is_empty() {
            if !(self.bricks.is_empty()
                && self.free_inner.is_empty()
                && self.free_bricks.is_empty())
            {
                return Err("bricks or free blocks in an empty tree".into());
            }
            return Ok(());
        }
        let total_inner = self.inner.len() - 1;
        // Block 0 is the root's, never freed and never a child block.
        let inner_slot = |b: u32| -> Result<usize, String> {
            if b == 0 || b as usize >= self.inner.len() {
                Err(format!("bad block index {b}"))
            } else {
                Ok(b as usize - 1)
            }
        };
        let brick_slot = |b: u32| -> Result<usize, String> {
            if (b as usize) < self.bricks.len() {
                Ok(b as usize)
            } else {
                Err(format!("bad brick index {b}"))
            }
        };
        let mut seen_inner = vec![false; total_inner];
        let mut seen_bricks = vec![false; self.bricks.len()];
        let mark = |seen: &mut Vec<bool>, s: usize, what: &str, b: u32| {
            if std::mem::replace(&mut seen[s], true) {
                Err(format!("{what} {b} reached twice or also on a free list"))
            } else {
                Ok(())
            }
        };
        for &b in &self.free_inner {
            mark(&mut seen_inner, inner_slot(b)?, "block", b)?;
        }
        for &b in &self.free_bricks {
            mark(&mut seen_bricks, brick_slot(b)?, "brick", b)?;
        }
        let root = &self.inner[0];
        if root[0].block == ABSENT || root[1..].iter().any(|s| s.block != ABSENT) {
            return Err("block 0 holds something besides the root".into());
        }
        let (mut live_inner, mut live_bricks) = (0usize, 0usize);
        let mut stack = vec![(0u32, depth)];
        while let Some((i, level)) = stack.pop() {
            let b = self.node(i).block;
            if b == NO_BLOCK {
                continue;
            }
            if level == 1 {
                mark(&mut seen_bricks, brick_slot(b)?, "brick", b)?;
                live_bricks += 1;
                let brick = &self.bricks[b as usize];
                if brick.iter().all(|&v| is_absent(v)) {
                    return Err(format!("brick {b} under node {i} holds no leaf"));
                }
                if brick.iter().any(|&v| v.is_nan() && !is_absent(v)) {
                    return Err(format!("brick {b} under node {i} holds a NaN leaf"));
                }
                continue;
            }
            mark(&mut seen_inner, inner_slot(b)?, "block", b)?;
            live_inner += 1;
            let present: Vec<u32> = (b * 8..b * 8 + 8)
                .filter(|&c| self.node(c).block != ABSENT)
                .collect();
            if present.is_empty() {
                return Err(format!("block {b} under node {i} holds no child"));
            }
            stack.extend(present.into_iter().map(|c| (c, level - 1)));
        }
        if live_inner + self.free_inner.len() != total_inner
            || live_bricks + self.free_bricks.len() != self.bricks.len()
        {
            return Err(format!(
                "leaked blocks: {live_inner} live + {} free != {total_inner} allocated, \
                 {live_bricks} live + {} free != {} bricks",
                self.free_inner.len(),
                self.free_bricks.len(),
                self.bricks.len()
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
/// previous one: the paper's 𝓕(S) (§4.3) is the batch's cost. The path
/// holds the tree's counters mutably, as it holds the tree, so each count is
/// a plain add.
pub(crate) struct OpenPath<'a> {
    tree: &'a mut ArenaTree,
    params: &'a OccupancyParams,
    stats: &'a mut TreeStats,
    depth: u8,
    auto_prune: bool,
    /// `path[depth - l]` is the open node at level `l` (the root is level
    /// `depth`, a leaf level 0, indexed in the brick pool). Indices are
    /// stable (the pools never compact), so entries stay valid while nodes
    /// below them prune.
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
            if self.tree.inner.is_empty() {
                self.tree.push_root_block(self.params.threshold);
                *self.stats.nodes_created.get_mut() += 1;
                fresh = true;
            }
            self.path[0] = 0;
            self.level = depth;
        } else {
            self.close_below(self.key.common_ancestor_level(key, depth));
        }
        let mut idx = self.path[(depth - self.level) as usize];
        // One visit per node on the way down, the leaf included.
        *self.stats.node_visits.get_mut() += u64::from(self.level) + 1;
        if self.level > 0 {
            // Each step hands the child's value to the next, so a level
            // costs one load.
            let mut node = self.tree.node(idx);
            while self.level > 1 {
                let child = key.child_index(self.level - 1).as_usize();
                (idx, node, fresh) =
                    self.tree
                        .step_down(idx, node, child, fresh, self.params, self.stats);
                self.level -= 1;
                self.path[(depth - self.level) as usize] = idx;
            }
            let child = key.child_index(0).as_usize();
            idx = self
                .tree
                .step_to_leaf(idx, node, child, fresh, self.params, self.stats);
            self.level = 0;
            self.path[depth as usize] = idx;
        }
        self.key = key;

        let leaf = self.tree.leaf_mut(idx);
        let new = match op {
            LeafOp::Observe { occupied } => self.params.apply(*leaf, occupied),
            LeafOp::Set { value } => self.params.clamp(value),
        };
        debug_assert!(!is_absent(new), "a leaf write stored the absent pattern");
        *leaf = new;
        *self.stats.leaf_updates.get_mut() += 1;
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
        if self.level >= upto {
            return;
        }
        // One visit per inner node closed; the leaf (level 0) is not.
        *self.stats.node_visits.get_mut() += u64::from(upto - self.level.max(1));
        while self.level < upto {
            if self.level > 0 {
                let idx = self.path[(self.depth - self.level) as usize];
                self.tree
                    .close_node(idx, self.level, self.auto_prune, self.stats);
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
    /// descent (`path[0]` the root; a leaf is indexed in the brick pool),
    /// for `i < len`. A descent that met a missing child or a pruned
    /// aggregate leaves a shorter path.
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
        let tree = self.tree;
        if tree.inner.is_empty() {
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
        if level == 0 {
            return Some(tree.leaf(idx));
        }
        // One index add per level, no pointer dereference; a child's
        // presence is read from the child's own slot.
        let mut n = tree.node(idx);
        loop {
            if n.block == NO_BLOCK {
                // Pruned aggregate covering this voxel.
                return Some(n.log_odds);
            }
            idx = n.block * 8 + key.child_index(level - 1).as_usize() as u32;
            if level == 1 {
                let leaf = tree.leaf(idx);
                if is_absent(leaf) {
                    return None;
                }
                self.path[self.len as usize] = idx;
                self.len += 1;
                self.visited += 1;
                return Some(leaf);
            }
            n = tree.node(idx);
            if n.block == ABSENT {
                return None;
            }
            self.path[self.len as usize] = idx;
            self.len += 1;
            self.visited += 1;
            level -= 1;
        }
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

    const DEPTH: u8 = 4;

    fn params() -> OccupancyParams {
        OccupancyParams::default()
    }

    fn observe(t: &mut ArenaTree, key: VoxelKey, occupied: bool, stats: &mut TreeStats) -> f32 {
        let params = params();
        let mut path = t.open_path(DEPTH, &params, stats, true);
        let new = path.apply(key, LeafOp::Observe { occupied });
        path.close();
        new
    }

    /// Saturates the `2^level`-voxel cube at the origin, which prunes it
    /// to one aggregate.
    fn saturate(t: &mut ArenaTree, level: u8, stats: &mut TreeStats) {
        let edge = 1u16 << level;
        for x in 0..edge {
            for y in 0..edge {
                for z in 0..edge {
                    for _ in 0..10 {
                        observe(t, VoxelKey::new(x, y, z), true, stats);
                    }
                }
            }
        }
    }

    #[test]
    fn update_then_search_round_trip() {
        let mut t = ArenaTree::new();
        let mut stats = TreeStats::new();
        let key = VoxelKey::new(3, 7, 11);
        let v = observe(&mut t, key, true, &mut stats);
        assert_eq!(t.read_cursor(DEPTH, &stats).search(key), Some(v));
        assert_eq!(
            t.read_cursor(DEPTH, &stats).search(VoxelKey::new(0, 0, 0)),
            None
        );
        t.check_structure(DEPTH).unwrap();
    }

    #[test]
    fn prune_recycles_blocks() {
        let mut t = ArenaTree::new();
        let mut stats = TreeStats::new();
        // A full octant's eight leaves prune to one aggregate.
        saturate(&mut t, 1, &mut stats);
        assert!(stats.prunes() > 0);
        assert!(!t.free_bricks.is_empty(), "prune must feed the free list");
        t.check_structure(DEPTH).unwrap();
        let len_before = t.bricks.len();
        // The next expansion must reuse a recycled brick, not grow the pool.
        observe(&mut t, VoxelKey::new(0, 0, 0), false, &mut stats);
        assert_eq!(t.bricks.len(), len_before);
        t.check_structure(DEPTH).unwrap();
    }

    #[test]
    fn both_free_lists_recycle() {
        let mut t = ArenaTree::new();
        let mut stats = TreeStats::new();
        // A saturated 4³ cube prunes its bricks (each octant's, recycled
        // by the next), then the inner block above them.
        saturate(&mut t, 2, &mut stats);
        t.check_structure(DEPTH).unwrap();
        assert_eq!(t.free_inner.len(), 1);
        assert!(!t.free_bricks.is_empty());
        let (inner, bricks) = (t.inner.len(), t.bricks.len());
        // Writing one voxel inside expands both levels from the free lists.
        observe(&mut t, VoxelKey::new(3, 3, 3), false, &mut stats);
        assert_eq!((t.inner.len(), t.bricks.len()), (inner, bricks));
        assert!(t.free_inner.is_empty());
        t.check_structure(DEPTH).unwrap();
        let cursor = &mut t.read_cursor(DEPTH, &stats);
        assert_eq!(
            cursor.search(VoxelKey::new(0, 0, 0)),
            Some(params().clamp_max)
        );
        assert!(cursor.search(VoxelKey::new(3, 3, 3)).unwrap() < params().clamp_max);
        assert_eq!(cursor.search(VoxelKey::new(4, 0, 0)), None);
    }

    #[test]
    fn memory_usage_is_eight_bytes_a_slot_and_thirty_two_a_brick() {
        assert_eq!(std::mem::size_of::<Inner>(), 8);
        assert_eq!(std::mem::size_of::<Block>(), 64);
        assert_eq!(std::mem::size_of::<Brick>(), 32);
        let mut t = ArenaTree::new();
        let mut stats = TreeStats::new();
        // One voxel at depth 4: the root's block, inner blocks under
        // levels 4, 3 and 2, and one brick under level 1.
        observe(&mut t, VoxelKey::new(1, 2, 3), true, &mut stats);
        let copy = t.clone();
        assert_eq!(copy.memory_usage(), 8 * 8 * (1 + 3) + 32);
        // Free lists count at 4 bytes an entry.
        saturate(&mut t, 2, &mut stats);
        let copy = t.clone();
        assert!(!copy.free_inner.is_empty() && !copy.free_bricks.is_empty());
        assert_eq!(
            copy.memory_usage(),
            8 * 8 * copy.inner.len()
                + 32 * copy.bricks.len()
                + 4 * (copy.free_inner.len() + copy.free_bricks.len())
        );
    }

    #[test]
    fn a_grown_pool_counts_its_entries_not_its_capacity() {
        let mut t = ArenaTree::new();
        let mut stats = TreeStats::new();
        // Past a doubling of both pools, with entries on both free lists.
        for i in 0..64u16 {
            observe(&mut t, VoxelKey::new(4 * i, 300, 7 * i), true, &mut stats);
        }
        saturate(&mut t, 2, &mut stats);
        assert!(t.inner.capacity() > t.inner.len() && t.bricks.capacity() > t.bricks.len());
        let c = t.census(DEPTH);
        assert!(c.free_inner_blocks > 0 && c.free_bricks > 0, "{c:?}");
        // Every pool entry is in the tree or on its free list.
        assert_eq!(t.inner.len(), c.inner_blocks + c.free_inner_blocks);
        assert_eq!(t.bricks.len(), c.bricks + c.free_bricks);
        assert_eq!(
            c.bytes,
            64 * t.inner.len() + 32 * t.bricks.len() + 4 * (c.free_inner_blocks + c.free_bricks)
        );
        assert_eq!(c.bytes, t.memory_usage());
    }

    #[test]
    fn check_structure_rejects_empty_blocks_and_stray_nans() {
        let mut t = ArenaTree::new();
        let mut stats = TreeStats::new();
        observe(&mut t, VoxelKey::new(1, 2, 3), true, &mut stats);
        t.check_structure(DEPTH).unwrap();
        let root_block = t.node(0).block as usize;
        assert_eq!(t.bricks.len(), 1);

        let mut no_child = t.clone();
        no_child.inner[root_block] = [Inner::ABSENT; 8];
        let err = no_child.check_structure(DEPTH).unwrap_err();
        assert!(err.contains("holds no child"), "{err}");

        let mut no_leaf = t.clone();
        no_leaf.bricks[0] = [f32::from_bits(ABSENT_LEAF); 8];
        let err = no_leaf.check_structure(DEPTH).unwrap_err();
        assert!(err.contains("holds no leaf"), "{err}");

        let mut nan_leaf = t.clone();
        nan_leaf.bricks[0][0] = f32::NAN;
        let err = nan_leaf.check_structure(DEPTH).unwrap_err();
        assert!(err.contains("NaN leaf"), "{err}");

        let mut leaked = t.clone();
        leaked.bricks.push([0.0; 8]);
        let err = leaked.check_structure(DEPTH).unwrap_err();
        assert!(err.contains("leaked"), "{err}");
    }

    #[test]
    fn clear_releases_capacity() {
        let mut t = ArenaTree::new();
        let mut stats = TreeStats::new();
        observe(&mut t, VoxelKey::new(1, 2, 3), true, &mut stats);
        assert!(t.memory_usage() > 0);
        t.clear();
        assert_eq!(t.memory_usage(), 0);
        assert!(t.is_empty());
    }
}
