//! The flattened, table-based voxel cache (paper §4.2–4.3).
//!
//! The cache is one array of `w` bucket records, allocated zeroed when it is
//! built and never resized. A voxel maps to bucket `morton(v) & (w-1)`, so a
//! record need not keep those low log₂w bits of the code: a resident cell
//! is `(tag, accumulated log-odds)` with `tag = morton(v) >> log₂w`, and the
//! key comes back as `morton::decode(tag << log₂w | bucket)`, once per
//! evicted cell. A record is a header (cell count, spill head) and `τ + 3`
//! cells, oldest first. From 2¹⁶ buckets on a tag fits 32 bits, and at
//! τ = 4 the record is exactly one 64-byte cache line; the array starts on a
//! line boundary, so a probe compares the tags of one line. Below 2¹⁶
//! buckets a tag needs up to 48 bits: the table is generic over the tag's
//! width, chosen once when the cache is built. An all-zero record is an
//! empty bucket, so the array comes from zeroed memory. Because cells store
//! the *accumulated* occupancy — seeded from the octree on a miss — a cache
//! hit answers queries with exactly the value vanilla OctoMap would return,
//! which is the paper's query-consistency guarantee.
//!
//! Eviction (paper §4.2.2) bounds memory: after processing a batch, any
//! bucket holding more than `τ` cells evicts its oldest cells until `τ`
//! remain. Between two passes a bucket may therefore exceed `τ` (the paper's
//! one-batch overshoot). The record holds three cells past `τ`, which is
//! where the benchmark's datasets end almost every overshoot; only cells
//! past those go to one shared spill vector, chained per bucket in insertion
//! order. A pass trims every over-full bucket to `τ`, writing back only the
//! cells it keeps and the header, and leaves the spill empty — there is no
//! free list and no per-bucket heap block. Each evicted run leaves in full
//! Morton order: the octree applies a run with its root-to-leaf path held
//! open between consecutive cells, so Morton order — the minimiser of the
//! paper's locality functional 𝓕 (§4.3) — is the cheapest to apply. That
//! order costs no sort: the bucket walk is already ascending in the code's
//! low bits, and a counting pass over the tags, the high parts, places every
//! cell at its final index.
//!
//! Insertion touches the table once per voxel, not once per observation. A
//! scan's observations are offered as one batch
//! ([`VoxelCache::insert_batch`]), and nothing is evicted within a batch, so
//! every observation of a voxel after its first is a hit. The batch is
//! folded: a scratch hash groups the observations by voxel in first-seen
//! order, the order in which one insert per observation would have missed
//! and appended them. Each group then costs one probe, and a miss seeds
//! from the octree before the voxel's `±δ` are applied in ray order in a
//! register. Keys therefore enter buckets, and reach the octree lookup, in
//! the order the per-observation loop gives them, and the contents are
//! bit-identical. The scratch has two sizes. Every batch folds its first
//! 2¹⁴ voxels in a 256 KiB hash. One that holds more goes on folding, up to
//! 2¹⁶ − 1 voxels in a 1 MiB hash, only when those first voxels drew 8
//! observations each or more. Whatever a batch does not fold streams
//! through the per-observation loop, with the index codes computed a block
//! ahead and the record each probe will read prefetched.
//!
//! The cache records nothing about itself beyond [`CacheStats`]: an
//! executor that records events derives them from the batch it offers
//! ([`VoxelCache::peek`]) and the cells it gets back (`engine`'s
//! `record_accesses` / `record_evictions`).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use octocache_geom::{morton, VoxelKey};
use octocache_octomap::insert::VoxelUpdate;
use octocache_octomap::OccupancyParams;
use serde::{Deserialize, Serialize};

use crate::config::CacheConfig;

/// A voxel evicted from the cache, carrying its accumulated log-odds.
///
/// Evicted cells *overwrite* their value in the octree (the accumulation
/// already happened in the cache).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvictedCell {
    /// The voxel.
    pub key: VoxelKey,
    /// Accumulated, clamped log-odds.
    pub log_odds: f32,
}

impl EvictedCell {
    /// What a drain's output holds before the cell that belongs there.
    const EMPTY: EvictedCell = EvictedCell {
        key: VoxelKey::new(0, 0, 0),
        log_odds: 0.0,
    };
}

/// Cells a record holds past its `τ`: the overshoot one batch leaves in a
/// bucket fits them in ≈ 98 % of over-full buckets on the benchmark's
/// datasets, and under 1 % of spill steps go past them
/// (`overshoot_fits_the_record_on_the_benchmark_datasets`).
const OVERSHOOT: usize = 3;

/// Buckets from which a tag fits 32 bits: a Morton code has 48, and the
/// bucket index keeps log₂w of them.
const NARROW_FROM: usize = 1 << 16;

/// A record's header words: the cell count, then the spill head (read
/// only while the count passes the record's cells).
const HEADER: usize = 2;

/// Words the record array is allocated beyond its records, so that the
/// first record can start on a 64-byte line inside a plain zeroed `u32`
/// allocation. An over-aligned one would come from `posix_memalign` and a
/// `memset` instead of `calloc`, which raised the benchmark's peak RSS by
/// 45–74 % on three workloads.
const SLACK: usize = 64 / 4;

/// Observations [`VoxelCache::insert_batch`] stages ahead of the ones it is
/// inserting: enough probes in flight to cover a memory round trip, few
/// enough that the prefetched lines are still in L1 when their turn comes.
const STAGE: usize = 16;

/// Slots of the fold's scratch hash ([`Fold`]) until a batch widens it:
/// 2¹⁵ `u64`s, 256 KiB, sized to stay in L2 beside the batch it groups.
const FOLD_SLOTS: usize = 1 << 15;

/// Voxels a batch groups before the fold decides whether to go on: half
/// the narrow slots, so a linear probe stays short.
const FOLD_GROUPS: usize = FOLD_SLOTS / 2;

/// Slots of the wide scratch: 2¹⁷ `u64`s, 1 MiB.
const WIDE_SLOTS: usize = 1 << 17;

/// Voxels a widened batch groups at most: under half the wide slots, and
/// under 2¹⁶, so that no entry is [`FOLD_EMPTY`]. A batch with more
/// distinct voxels streams the rest.
const WIDE_GROUPS: usize = (1 << 16) - 1;

/// Observations per voxel, over the batch's first `FOLD_GROUPS` voxels, from
/// which the batch goes on folding in the wide scratch rather than
/// streaming its rest: the corridor's scans hold ≈ 12.6 there, the campus's
/// 4.6 and the college's 5.2 (DESIGN.md §5).
const WIDEN_AT: usize = 8;

/// An empty scratch slot. An entry is `packed key << 16 | group`, all ones
/// only for the key (65535, 65535, 65535) in group 65535, and a group index
/// stays below `WIDE_GROUPS`, which is 65535.
const FOLD_EMPTY: u64 = u64::MAX;

/// A cell's tag: the bits of its Morton code above the bucket index, which
/// the bucket supplies. `u32` holds them from [`NARROW_FROM`] buckets on,
/// `u64` below. A record stores a tag in `WORDS` `u32` words.
trait Tag: Copy + Eq + std::fmt::Debug {
    /// `u32` words a tag takes in a record.
    const WORDS: usize;

    /// The tag of `code` in a table of `2^shift` buckets.
    fn of(code: u64, shift: u32) -> Self;

    /// The code's bits it holds, shifted down: a counting drain's run key.
    fn high(self) -> u64;

    /// The tag stored at the front of `words`.
    fn load(words: &[u32]) -> Self;

    /// Stores the tag at the front of `words`.
    fn store(self, words: &mut [u32]);
}

impl Tag for u32 {
    const WORDS: usize = 1;

    #[inline]
    fn of(code: u64, shift: u32) -> u32 {
        debug_assert!(code >> shift <= u64::from(u32::MAX), "a narrow table");
        (code >> shift) as u32
    }

    #[inline]
    fn high(self) -> u64 {
        u64::from(self)
    }

    #[inline]
    fn load(words: &[u32]) -> u32 {
        words[0]
    }

    #[inline]
    fn store(self, words: &mut [u32]) {
        words[0] = self;
    }
}

impl Tag for u64 {
    const WORDS: usize = 2;

    #[inline]
    fn of(code: u64, shift: u32) -> u64 {
        code >> shift
    }

    #[inline]
    fn high(self) -> u64 {
        self
    }

    #[inline]
    fn load(words: &[u32]) -> u64 {
        u64::from(words[0]) | u64::from(words[1]) << 32
    }

    #[inline]
    fn store(self, words: &mut [u32]) {
        words[0] = self as u32;
        words[1] = (self >> 32) as u32;
    }
}

/// A cell past its record's last, chained to its bucket's next.
#[derive(Debug, Clone, Copy)]
struct Spilled<T> {
    tag: T,
    log_odds: f32,
    next: u32,
}

/// Where a resident cell's log-odds live: a word of the records or an
/// index into the spill.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Inline(usize),
    Spill(usize),
}

/// Running counters of cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total insertions (observations offered to the cache).
    pub insertions: u64,
    /// Insertions that found their voxel already cached.
    pub hits: u64,
    /// Insertions that missed.
    pub misses: u64,
    /// Misses whose octree lookup *found* a prior value to seed from. Every
    /// miss walks the octree whether or not it finds one: what those walks
    /// cost is `ScanRecord::octree_seed_visits`, not this counter.
    pub octree_seeds: u64,
    /// Cells evicted toward the octree.
    pub evictions: u64,
    /// Point queries answered by the cache.
    pub query_hits: u64,
    /// Point queries that fell through to the octree.
    pub query_misses: u64,
}

impl CacheStats {
    /// Insertion hit rate in `[0, 1]`; 0 when nothing was inserted.
    pub fn hit_rate(&self) -> f64 {
        if self.insertions == 0 {
            0.0
        } else {
            self.hits as f64 / self.insertions as f64
        }
    }

    /// Counter deltas since an earlier snapshot `base` (mirrors
    /// `StatsSnapshot::since` on the octree side). Saturating, so a stats
    /// reset between the two snapshots yields zeros rather than wrapping.
    pub fn since(&self, base: &CacheStats) -> CacheStats {
        CacheStats {
            insertions: self.insertions.saturating_sub(base.insertions),
            hits: self.hits.saturating_sub(base.hits),
            misses: self.misses.saturating_sub(base.misses),
            octree_seeds: self.octree_seeds.saturating_sub(base.octree_seeds),
            evictions: self.evictions.saturating_sub(base.evictions),
            query_hits: self.query_hits.saturating_sub(base.query_hits),
            query_misses: self.query_misses.saturating_sub(base.query_misses),
        }
    }

    /// Adds another stats block's counters into `self` (aggregating
    /// runs).
    pub fn merge(&mut self, other: &CacheStats) {
        self.insertions += other.insertions;
        self.hits += other.hits;
        self.misses += other.misses;
        self.octree_seeds += other.octree_seeds;
        self.evictions += other.evictions;
        self.query_hits += other.query_hits;
        self.query_misses += other.query_misses;
    }
}

/// The bytes of a table of `w` records for `τ` ([`CacheConfig::resident_bytes`]):
/// `4 · (w · (2 + (τ + 3) · 2) + 16)` from 2¹⁶ buckets on, where a tag is one
/// word, and `4 · (w · (2 + (τ + 3) · 3) + 16)` below.
pub(crate) fn table_bytes(w: usize, tau: usize) -> usize {
    let stride = if w >= NARROW_FROM {
        Table::<u32>::stride(tau)
    } else {
        Table::<u64>::stride(tau)
    };
    4 * (w * stride + SLACK)
}

/// The cache's storage: `w` bucket records in one zeroed array, and the
/// spill for the cells past a record's last.
///
/// A record is `HEADER + (τ + OVERSHOOT) · (T::WORDS + 1)` `u32` words: the
/// cell count and the spill head, the cells' tags, then their log-odds
/// bits, cell `i` the bucket's `i`-th oldest. Cells past the record's last
/// hang off the spill head, `count − τ − OVERSHOOT` of them.
#[derive(Debug)]
struct Table<T> {
    tau: usize,
    /// Cells a record holds: `τ + OVERSHOOT`.
    inline: usize,
    /// `u32` words per record.
    stride: usize,
    /// log₂w: the code bits the bucket index keeps.
    shift: u32,
    /// The records, the first at word `base`, on a 64-byte boundary.
    words: Vec<u32>,
    base: usize,
    /// Cells past their record's last since the last eviction pass.
    spill: Vec<Spilled<T>>,
    /// The buckets holding more than `τ` cells since the last pass.
    over_full: Vec<u32>,
}

impl<T: Tag> Table<T> {
    /// `u32` words a record of a table for `τ` takes.
    fn stride(tau: usize) -> usize {
        HEADER + (tau + OVERSHOOT) * (T::WORDS + 1)
    }

    fn new(config: &CacheConfig) -> Self {
        let (w, tau) = (config.num_buckets(), config.tau());
        let stride = Self::stride(tau);
        // `vec![0; n]` of an integer allocates zeroed (`calloc`), and an
        // all-zero record is an empty bucket.
        let words = vec![0u32; w * stride + SLACK];
        let base = words.as_ptr().align_offset(64);
        assert!(base < SLACK, "a u32 allocation is 4-byte aligned");
        Table {
            tau,
            inline: tau + OVERSHOOT,
            stride,
            shift: w.trailing_zeros(),
            words,
            base,
            spill: Vec::new(),
            over_full: Vec::new(),
        }
    }

    /// The first word of `bucket`'s record.
    #[inline]
    fn record(&self, bucket: usize) -> usize {
        self.base + bucket * self.stride
    }

    /// The number of cells `bucket` holds.
    #[inline]
    fn len(&self, bucket: usize) -> usize {
        self.words[self.record(bucket)] as usize
    }

    /// The word of the first log-odds in the record at `record`.
    #[inline]
    fn values(&self, record: usize) -> usize {
        record + HEADER + self.inline * T::WORDS
    }

    /// The `i`-th cell of the record at `record`.
    #[inline]
    fn cell(&self, record: usize, i: usize) -> (T, f32) {
        let tag = T::load(&self.words[record + HEADER + i * T::WORDS..]);
        (tag, f32::from_bits(self.words[self.values(record) + i]))
    }

    /// Writes the `i`-th cell of the record at `record`.
    #[inline]
    fn put(&mut self, record: usize, i: usize, tag: T, log_odds: f32) {
        let values = self.values(record);
        tag.store(&mut self.words[record + HEADER + i * T::WORDS..]);
        self.words[values + i] = log_odds.to_bits();
    }

    /// The slot holding `tag` in `bucket`, or the tail of the bucket's spill
    /// chain for [`Table::push`] to append after (meaningless without one).
    #[inline]
    fn find(&self, bucket: usize, tag: T) -> Result<Slot, u32> {
        let record = self.record(bucket);
        let len = self.words[record] as usize;
        let inline = len.min(self.inline);
        let tags = &self.words[record + HEADER..record + HEADER + inline * T::WORDS];
        if let Some(i) = tags.chunks_exact(T::WORDS).position(|t| T::load(t) == tag) {
            return Ok(Slot::Inline(self.values(record) + i));
        }
        let (mut tail, mut next) = (0, self.words[record + 1]);
        for _ in inline..len {
            let spilled = &self.spill[next as usize];
            if spilled.tag == tag {
                return Ok(Slot::Spill(next as usize));
            }
            (tail, next) = (next, spilled.next);
        }
        Err(tail)
    }

    /// The log-odds in `slot`.
    #[inline]
    fn at(&self, slot: Slot) -> f32 {
        match slot {
            Slot::Inline(i) => f32::from_bits(self.words[i]),
            Slot::Spill(i) => self.spill[i].log_odds,
        }
    }

    #[inline]
    fn set(&mut self, slot: Slot, log_odds: f32) {
        match slot {
            Slot::Inline(i) => self.words[i] = log_odds.to_bits(),
            Slot::Spill(i) => self.spill[i].log_odds = log_odds,
        }
    }

    /// Appends a cell as `bucket`'s newest; `tail` is what [`Table::find`]
    /// returned for its tag.
    #[inline]
    fn push(&mut self, bucket: usize, tail: u32, tag: T, log_odds: f32) {
        let record = self.record(bucket);
        let len = self.words[record] as usize;
        self.words[record] += 1;
        if len == self.tau {
            self.over_full.push(bucket as u32);
        }
        if len < self.inline {
            self.put(record, len, tag, log_odds);
            return;
        }
        // Chains index with `u32`, and a bucket's count (≤ τ + 3 + the
        // spill's) must fit one too.
        let at = self.spill.len();
        assert!(
            at < u32::MAX as usize - CacheConfig::MAX_CELLS,
            "spill overflow"
        );
        let at = at as u32;
        self.spill.push(Spilled {
            tag,
            log_odds,
            next: 0,
        });
        if len == self.inline {
            self.words[record + 1] = at;
        } else {
            self.spill[tail as usize].next = at;
        }
    }

    /// The cells of `bucket`, oldest first: the record's, then its chain.
    #[inline]
    fn cells(&self, bucket: usize) -> impl Iterator<Item = (T, f32)> + '_ {
        let record = self.record(bucket);
        let len = self.words[record] as usize;
        let mut next = self.words[record + 1] as usize;
        let chain = (self.inline..len).map(move |_| {
            let spilled = self.spill[next];
            next = spilled.next as usize;
            (spilled.tag, spilled.log_odds)
        });
        (0..len.min(self.inline))
            .map(move |i| self.cell(record, i))
            .chain(chain)
    }

    /// The key of the cell tagged `tag` in `bucket`.
    #[inline]
    fn key(&self, bucket: usize, tag: T) -> VoxelKey {
        morton::decode(tag.high() << self.shift | bucket as u64)
    }

    /// Takes `bucket`'s oldest cells down to `keep` (at most `τ`), handing
    /// each to `taken`, and moves the cells it keeps to the front of the
    /// record; only those and the count are written. The bucket's chain is
    /// dead afterwards: the caller ends its pass with
    /// [`Table::clear_spill`].
    #[inline]
    fn trim(&mut self, bucket: usize, keep: usize, mut taken: impl FnMut(T, f32)) {
        let record = self.record(bucket);
        let len = self.words[record] as usize;
        let excess = len.saturating_sub(keep);
        if excess == 0 {
            return;
        }
        let mut next = self.words[record + 1] as usize;
        for age in 0..len {
            let (tag, log_odds) = if age < self.inline {
                self.cell(record, age)
            } else {
                let spilled = self.spill[next];
                next = spilled.next as usize;
                (spilled.tag, spilled.log_odds)
            };
            // A kept cell moves to a slot its walk has passed.
            match age.checked_sub(excess) {
                None => taken(tag, log_odds),
                Some(kept) => self.put(record, kept, tag, log_odds),
            }
        }
        self.words[record] = (len - excess) as u32;
    }

    /// Forgets every spill chain and over-full bucket once a pass has
    /// trimmed them; the capacity stays for the next batch.
    fn clear_spill(&mut self) {
        self.spill.clear();
        self.over_full.clear();
    }

    /// Heap bytes of the records, the spill and the over-full list.
    fn memory_usage(&self) -> usize {
        use std::mem::size_of;
        self.words.capacity() * size_of::<u32>()
            + self.spill.capacity() * size_of::<Spilled<T>>()
            + self.over_full.capacity() * size_of::<u32>()
    }
}

/// The scratch [`VoxelCache::insert_batch`] folds a batch through: an
/// open-addressed hash from voxel to group, the groups in first-seen order
/// with their observation counts, and where each group's occupied
/// observations fall in its run. Only the occupied observations are listed
/// (a few per cent of a scan); every other one is free. The hash is
/// allocated narrow by the first batch and replaced by the wide one by the
/// first batch that widens; either is kept. Only the three vectors grow
/// with batch size.
#[derive(Debug, Default)]
struct Fold {
    /// `FOLD_SLOTS` or `WIDE_SLOTS` entries, `packed key << 16 | group`, or
    /// `FOLD_EMPTY`.
    slots: Vec<u64>,
    /// One per distinct voxel of the folded prefix, in first-seen order.
    groups: Vec<Group>,
    /// Each occupied observation of the folded prefix, in batch order.
    hits: Vec<Hit>,
    /// The hits' run indices regrouped: group after group, each ascending.
    indices: Vec<u32>,
}

/// A voxel's observations within the fold: `count` of them, and its hits'
/// indices in [`Fold::indices`] from the previous group's `hits` to its own.
/// While grouping, `hits` counts them.
#[derive(Debug, Clone, Copy)]
struct Group {
    key: VoxelKey,
    count: u32,
    hits: u32,
}

/// An occupied observation: its group and its index in the group's run.
#[derive(Debug, Clone, Copy)]
struct Hit {
    group: u32,
    index: u32,
}

impl Fold {
    /// The 48 key bits, placed where an entry keeps them.
    #[inline]
    fn packed(key: VoxelKey) -> u64 {
        u64::from(key.x) | u64::from(key.y) << 16 | u64::from(key.z) << 32
    }

    /// The slot a probe for `packed` starts at in a hash of `N` slots.
    #[inline]
    fn home<const N: usize>(packed: u64) -> usize {
        (packed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - N.trailing_zeros())) as usize
    }

    /// Probes a hash of `N` slots for the key bits `packed`: the slot holding
    /// their entry and the entry's group, or the empty slot that ends the
    /// probe.
    #[inline(always)]
    fn probe<const N: usize>(slots: &[u64; N], packed: u64) -> (usize, Option<usize>) {
        let mut at = Fold::home::<N>(packed);
        loop {
            let entry = slots[at];
            if entry == FOLD_EMPTY {
                return (at, None);
            }
            if entry >> 16 == packed {
                return (at, Some((entry & 0xffff) as usize));
            }
            at = (at + 1) % N;
        }
    }

    /// Groups the longest prefix of `batch` whose distinct voxels fit, ids
    /// in first-seen order, counting each group's observations and
    /// regrouping its hits. Returns the prefix's length.
    ///
    /// Every batch groups its first `FOLD_GROUPS` voxels in the hash the
    /// fold has. A batch that holds more goes on only if those voxels drew
    /// `WIDEN_AT` observations each or more: then it groups up to
    /// `WIDE_GROUPS` voxels in the wide hash, which the first such batch
    /// allocates and the fold keeps. A batch below that mark streams its
    /// rest, whichever hash it grouped in.
    fn group(&mut self, batch: &[VoxelUpdate]) -> usize {
        if self.slots.is_empty() {
            self.slots = vec![FOLD_EMPTY; FOLD_SLOTS];
        }
        // Counts and indices are `u32`s.
        let batch = &batch[..batch.len().min(u32::MAX as usize)];
        let mut folded = match self.slots.len() {
            WIDE_SLOTS => self.group_in::<WIDE_SLOTS>(batch, 0, FOLD_GROUPS),
            _ => self.group_in::<FOLD_SLOTS>(batch, 0, FOLD_GROUPS),
        };
        if folded < batch.len() && folded >= WIDEN_AT * FOLD_GROUPS {
            self.widen();
            folded = self.group_in::<WIDE_SLOTS>(batch, folded, WIDE_GROUPS);
        }
        // Hit counts to starts, then each hit to its group's next place:
        // the starts advance to the ends.
        let (groups, hits) = (&mut self.groups, &self.hits);
        let mut start = 0;
        for group in groups.iter_mut() {
            (start, group.hits) = (start + group.hits, start);
        }
        self.indices.resize(hits.len(), 0);
        for hit in hits {
            let end = &mut groups[hit.group as usize].hits;
            self.indices[*end as usize] = hit.index;
            *end += 1;
        }
        folded
    }

    /// Groups `batch` from observation `from` on in a hash of `N` slots,
    /// until an observation would open group `cap`; returns that
    /// observation's index, or the batch's length. `N` is a constant, so
    /// the probe's shift and mask are too.
    fn group_in<const N: usize>(
        &mut self,
        batch: &[VoxelUpdate],
        from: usize,
        cap: usize,
    ) -> usize {
        let slots: &mut [u64; N] = self
            .slots
            .as_mut_slice()
            .try_into()
            .expect("the fold's size");
        let (groups, hits) = (&mut self.groups, &mut self.hits);
        for (i, u) in batch.iter().enumerate().skip(from) {
            let packed = Fold::packed(u.key);
            let group = match Fold::probe(slots, packed) {
                (_, Some(group)) => group,
                (_, None) if groups.len() == cap => return i,
                (at, None) => {
                    slots[at] = packed << 16 | groups.len() as u64;
                    groups.push(Group {
                        key: u.key,
                        count: 0,
                        hits: 0,
                    });
                    groups.len() - 1
                }
            };
            let g = &mut groups[group];
            if u.occupied {
                hits.push(Hit {
                    group: group as u32,
                    index: g.count,
                });
                g.hits += 1;
            }
            g.count += 1;
        }
        batch.len()
    }

    /// Moves the groups so far into the wide hash, allocating it the first
    /// time; the narrow hash is freed.
    fn widen(&mut self) {
        if self.slots.len() == WIDE_SLOTS {
            return;
        }
        let mut wide = vec![FOLD_EMPTY; WIDE_SLOTS];
        let slots: &mut [u64; WIDE_SLOTS] = wide.as_mut_slice().try_into().expect("wide");
        for (id, group) in self.groups.iter().enumerate() {
            let packed = Fold::packed(group.key);
            let (at, _) = Fold::probe(slots, packed);
            slots[at] = packed << 16 | id as u64;
        }
        self.slots = wide;
    }

    /// Empties the scratch for the next batch, keeping its allocations.
    fn clear(&mut self) {
        match self.slots.len() {
            WIDE_SLOTS => self.clear_in::<WIDE_SLOTS>(),
            _ => self.clear_in::<FOLD_SLOTS>(),
        }
        self.groups.clear();
        self.hits.clear();
        self.indices.clear();
    }

    /// Empties the slots of the groups, newest first: a group's probe
    /// passes only through the slots of groups older than itself, which
    /// still hold their entries when its turn comes.
    fn clear_in<const N: usize>(&mut self) {
        let slots: &mut [u64; N] = self
            .slots
            .as_mut_slice()
            .try_into()
            .expect("the fold's size");
        for group in self.groups.iter().rev() {
            let (at, _) = Fold::probe(slots, Fold::packed(group.key));
            slots[at] = FOLD_EMPTY;
        }
    }

    /// Heap bytes of the scratch.
    fn memory_usage(&self) -> usize {
        use std::mem::size_of;
        self.slots.capacity() * size_of::<u64>()
            + self.groups.capacity() * size_of::<Group>()
            + self.hits.capacity() * size_of::<Hit>()
            + self.indices.capacity() * size_of::<u32>()
    }
}

/// The OctoCache voxel cache.
///
/// # Example
///
/// ```
/// # use octocache::{CacheConfig, VoxelCache};
/// # use octocache_geom::VoxelKey;
/// # use octocache_octomap::OccupancyParams;
/// let cfg = CacheConfig::builder().num_buckets(64).tau(2).build()?;
/// let mut cache = VoxelCache::new(cfg, OccupancyParams::default());
/// let key = VoxelKey::new(1, 2, 3);
/// let hit = cache.insert(key, true, |_| None); // no octree value yet
/// assert!(!hit);
/// assert!(cache.insert(key, true, |_| None)); // second time: a hit
/// assert!(cache.get(key).unwrap() > 0.0);
/// # Ok::<(), octocache::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct VoxelCache {
    config: CacheConfig,
    tags: Tags,
}

/// The cache at the tag width its bucket count needs, chosen once.
#[derive(Debug)]
enum Tags {
    /// From 2¹⁶ buckets on: 32-bit tags, one line a record at τ = 4.
    Narrow(Cache<u32>),
    /// Below 2¹⁶ buckets: tags of up to 48 bits.
    Wide(Cache<u64>),
}

/// `$body` with `$cache` bound to the cache inside `$tags`, whichever its
/// tag width.
macro_rules! each {
    ($tags:expr, $cache:ident => $body:expr) => {
        match $tags {
            Tags::Narrow($cache) => $body,
            Tags::Wide($cache) => $body,
        }
    };
}

impl VoxelCache {
    /// Creates an empty cache, allocating its whole table
    /// ([`CacheConfig::resident_bytes`]).
    pub fn new(config: CacheConfig, params: OccupancyParams) -> Self {
        let tags = if config.num_buckets() >= NARROW_FROM {
            Tags::Narrow(Cache::new(&config, params))
        } else {
            Tags::Wide(Cache::new(&config, params))
        };
        VoxelCache { config, tags }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Counters of cache behaviour.
    pub fn stats(&self) -> &CacheStats {
        each!(&self.tags, c => &c.stats)
    }

    /// Number of cells currently held.
    #[inline]
    pub fn len(&self) -> usize {
        each!(&self.tags, c => c.len)
    }

    /// True when the cache holds no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum cell count ever held (between evictions the cache may exceed
    /// `w × τ`; the paper bounds this overshoot by one update batch).
    pub fn peak_len(&self) -> usize {
        each!(&self.tags, c => c.peak_len)
    }

    /// Heap bytes the cache owns right now: the records
    /// ([`CacheConfig::resident_bytes`], fixed at construction), the
    /// largest spill any batch has needed so far, and the fold's scratch
    /// once a batch has been folded. Recording events adds nothing here:
    /// the recorder is the executor's.
    pub fn memory_usage(&self) -> usize {
        each!(&self.tags, c => c.table.memory_usage() + c.fold.memory_usage())
    }

    /// The bucket a key maps to: the low log₂w bits of its Morton code
    /// (paper §4.3).
    #[inline]
    pub fn bucket_index(&self, key: VoxelKey) -> usize {
        self.bucket_of_code(morton::encode(key))
    }

    /// The bucket of the voxel whose Morton code is `code`.
    #[inline]
    pub(crate) fn bucket_of_code(&self, code: u64) -> usize {
        (code & (self.config.num_buckets() as u64 - 1)) as usize
    }

    /// Offers one occupancy observation to the cache (paper §4.2.1).
    ///
    /// On a hit the cached accumulated value is advanced by `±δ`. On a miss
    /// the value is seeded by `octree_lookup` (which should return the
    /// octree's accumulated log-odds for the voxel, or `None` when the voxel
    /// is unknown, in which case the prior `t` is used), then advanced.
    ///
    /// Returns `true` on a hit.
    pub fn insert<F>(&mut self, key: VoxelKey, occupied: bool, octree_lookup: F) -> bool
    where
        F: FnOnce(VoxelKey) -> Option<f32>,
    {
        let code = morton::encode(key);
        each!(&mut self.tags, c => c.insert_coded(key, occupied, code, octree_lookup))
    }

    /// Offers a run of observations, in order: contents, statistics and
    /// eviction order are those of one [`insert`](Self::insert) each, with
    /// `octree_lookup` seeding the misses — called for the same keys in the
    /// same order — but with one table access per voxel.
    ///
    /// Nothing is evicted within a batch, so once a voxel has been offered
    /// every later observation of it is a hit. The batch is therefore
    /// folded: its observations are grouped by voxel through a scratch
    /// hash, the groups are walked in first-seen order — the order in which
    /// the loop would miss and append them — and each voxel's `±δ` are
    /// applied in ray order to one value. The fold takes the batch's first
    /// 2¹⁴ voxels, and up to 2¹⁶ − 1 when those drew 8 observations each or
    /// more (the scratch then widens to 1 MiB and stays so); it streams the
    /// rest. The stream stages its probes: the Morton codes of the next 16
    /// observations are computed once and their bucket records prefetched.
    /// This is the one insert path, whether or not the caller records
    /// events.
    pub fn insert_batch<F>(&mut self, batch: &[VoxelUpdate], mut octree_lookup: F)
    where
        F: FnMut(VoxelKey) -> Option<f32>,
    {
        each!(&mut self.tags, c => {
            let folded = c.insert_folded(batch, &mut octree_lookup);
            c.insert_streamed(&batch[folded..], octree_lookup);
        })
    }

    /// Looks up the accumulated log-odds for a voxel. `None` means the
    /// caller must fall through to the octree (cache miss).
    pub fn get(&mut self, key: VoxelKey) -> Option<f32> {
        let found = self.peek(key);
        let stats = each!(&mut self.tags, c => &mut c.stats);
        match found {
            Some(_) => stats.query_hits += 1,
            None => stats.query_misses += 1,
        }
        found
    }

    /// Read-only lookup that does not touch the query counters.
    pub fn peek(&self, key: VoxelKey) -> Option<f32> {
        self.peek_coded(morton::encode(key))
    }

    /// [`peek`](Self::peek) by the voxel's Morton code.
    #[inline]
    pub(crate) fn peek_coded(&self, code: u64) -> Option<f32> {
        each!(&self.tags, c => c.peek_coded(code))
    }

    /// Evicts the oldest cells of every over-full bucket down to `τ`
    /// (paper §4.2.2), appending them to `out` in Morton order. Returns the
    /// number of cells evicted.
    ///
    /// Only the buckets that passed `τ` since the last pass are over-full:
    /// the pass emits each one's oldest cells, moves its newest `τ` to the
    /// front of its record and ends with an empty spill.
    pub fn evict_into(&mut self, out: &mut Vec<EvictedCell>) -> usize {
        each!(&mut self.tags, c => c.evict_into(out))
    }

    /// Evicts per [`VoxelCache::evict_into`] into a fresh vector.
    pub fn evict(&mut self) -> Vec<EvictedCell> {
        let mut out = Vec::new();
        self.evict_into(&mut out);
        out
    }

    /// Drains *every* cell, in Morton order, leaving the cache empty. Used
    /// to flush pending state into the octree at the end of a run.
    pub fn drain_all(&mut self) -> Vec<EvictedCell> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Drains per [`VoxelCache::drain_all`], appending to `out`: an
    /// executor drains into the buffer its passes reuse, so the final flush
    /// allocates nothing the heap has not already handed out. Returns the
    /// number of cells drained.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<EvictedCell>) -> usize {
        if out.is_empty() && out.capacity() < self.len() {
            // Freed before the larger buffer is allocated: `realloc` would
            // grow it in place at the heap's top, past the blocks the
            // octree's pool freed as it grew, where a fresh allocation lands
            // (glibc; `campus_miss` peak RSS +8 %).
            *out = Vec::new();
        }
        out.reserve_exact(self.len());
        each!(&mut self.tags, c => c.drain_into(out))
    }

    /// Histogram of bucket occupancies (index = cell count, value = number
    /// of buckets with that count). Useful for τ tuning (paper §6.2.4).
    pub fn bucket_occupancy_histogram(&self) -> Vec<usize> {
        each!(&self.tags, c => c.bucket_occupancy_histogram())
    }

    /// Iterates over all cached voxels (bucket order) without removing them.
    pub fn iter(&self) -> impl Iterator<Item = EvictedCell> + '_ {
        let cells: Box<dyn Iterator<Item = EvictedCell> + '_> =
            each!(&self.tags, c => Box::new(c.iter()));
        cells
    }
}

/// The cache over a table of tag `T`: everything [`VoxelCache`] holds but
/// its config.
#[derive(Debug)]
struct Cache<T> {
    params: OccupancyParams,
    table: Table<T>,
    mask: u64,
    len: usize,
    peak_len: usize,
    stats: CacheStats,
    fold: Fold,
}

impl<T: Tag> Cache<T> {
    fn new(config: &CacheConfig, params: OccupancyParams) -> Self {
        Cache {
            params,
            table: Table::new(config),
            mask: (config.num_buckets() - 1) as u64,
            len: 0,
            peak_len: 0,
            stats: CacheStats::default(),
            fold: Fold::default(),
        }
    }

    /// The bucket and the tag of the voxel whose Morton code is `code`.
    #[inline]
    fn locate(&self, code: u64) -> (usize, T) {
        ((code & self.mask) as usize, T::of(code, self.table.shift))
    }

    /// Folds the longest prefix of `batch` that the scratch holds into the
    /// table, one access per voxel; returns the prefix's length.
    fn insert_folded<F>(&mut self, batch: &[VoxelUpdate], octree_lookup: &mut F) -> usize
    where
        F: FnMut(VoxelKey) -> Option<f32>,
    {
        let mut fold = std::mem::take(&mut self.fold);
        let folded = fold.group(batch);
        let mut start = 0;
        for (i, group) in fold.groups.iter().enumerate() {
            if let Some(ahead) = fold.groups.get(i + STAGE) {
                self.prefetch_bucket(morton::encode(ahead.key));
            }
            let hits = &fold.indices[start..group.hits as usize];
            start = group.hits as usize;
            self.insert_run(group.key, group.count, hits, &mut *octree_lookup);
        }
        fold.clear();
        self.fold = fold;
        folded
    }

    /// The per-observation loop, with its probes staged a block ahead.
    fn insert_streamed<F>(&mut self, batch: &[VoxelUpdate], mut octree_lookup: F)
    where
        F: FnMut(VoxelKey) -> Option<f32>,
    {
        let mut blocks = batch.chunks(STAGE);
        let mut codes = [0u64; STAGE];
        let mut block = blocks.next().unwrap_or_default();
        self.stage(block, &mut codes);
        while !block.is_empty() {
            let staged = codes;
            let next = blocks.next().unwrap_or_default();
            self.stage(next, &mut codes);
            for (u, code) in block.iter().zip(staged) {
                self.insert_coded(u.key, u.occupied, code, &mut octree_lookup);
            }
            block = next;
        }
    }

    /// Computes the Morton codes of `block` into `codes` and prefetches the
    /// records their probes will read.
    #[inline]
    fn stage(&self, block: &[VoxelUpdate], codes: &mut [u64; STAGE]) {
        for (u, code) in block.iter().zip(codes) {
            *code = morton::encode(u.key);
            self.prefetch_bucket(*code);
        }
    }

    /// Prefetches the first line of the record of `code`'s bucket: the
    /// whole record at τ = 4 and 32-bit tags.
    #[inline]
    fn prefetch_bucket(&self, code: u64) {
        let record = self.table.record((code & self.mask) as usize);
        prefetch(&self.table.words[record]);
    }

    /// The per-observation insertion body: `code` is the Morton code of
    /// `key`, staged ahead by the stream.
    #[inline]
    fn insert_coded<F>(
        &mut self,
        key: VoxelKey,
        occupied: bool,
        code: u64,
        octree_lookup: F,
    ) -> bool
    where
        F: FnOnce(VoxelKey) -> Option<f32>,
    {
        self.stats.insertions += 1;
        let (bucket, tag) = self.locate(code);
        let tail = match self.table.find(bucket, tag) {
            Ok(slot) => {
                let log_odds = self.params.apply(self.table.at(slot), occupied);
                self.table.set(slot, log_odds);
                self.stats.hits += 1;
                return true;
            }
            Err(tail) => tail,
        };
        let seed = self.seed(key, octree_lookup);
        let log_odds = self.params.apply(seed, occupied);
        self.append(bucket, tail, tag, log_odds);
        false
    }

    /// The folded insertion body: offers `key` its `count` observations (at
    /// least one), occupied at the ascending run indices `hits` and free
    /// elsewhere, with one table access, as that many
    /// [`insert_coded`](Self::insert_coded) calls would.
    #[inline]
    fn insert_run<F>(&mut self, key: VoxelKey, count: u32, hits: &[u32], octree_lookup: F)
    where
        F: FnOnce(VoxelKey) -> Option<f32>,
    {
        let observed = u64::from(count);
        self.stats.insertions += observed;
        let (bucket, tag) = self.locate(morton::encode(key));
        match self.table.find(bucket, tag) {
            Ok(slot) => {
                let log_odds = advance(&self.params, self.table.at(slot), count, hits);
                self.table.set(slot, log_odds);
                self.stats.hits += observed;
            }
            Err(tail) => {
                self.stats.hits += observed - 1;
                let seed = self.seed(key, octree_lookup);
                let log_odds = advance(&self.params, seed, count, hits);
                self.append(bucket, tail, tag, log_odds);
            }
        }
    }

    /// The value a missed `key` starts from: the octree's, or the prior
    /// when the octree does not know the voxel.
    #[inline]
    fn seed<F>(&mut self, key: VoxelKey, octree_lookup: F) -> f32
    where
        F: FnOnce(VoxelKey) -> Option<f32>,
    {
        self.stats.misses += 1;
        match octree_lookup(key) {
            Some(v) => {
                self.stats.octree_seeds += 1;
                v
            }
            None => self.params.threshold,
        }
    }

    /// Appends a missed cell as its bucket's newest.
    #[inline]
    fn append(&mut self, bucket: usize, tail: u32, tag: T, log_odds: f32) {
        self.table.push(bucket, tail, tag, log_odds);
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
    }

    #[inline]
    fn peek_coded(&self, code: u64) -> Option<f32> {
        let (bucket, tag) = self.locate(code);
        let slot = self.table.find(bucket, tag).ok()?;
        Some(self.table.at(slot))
    }

    fn evict_into(&mut self, out: &mut Vec<EvictedCell>) -> usize {
        let start = out.len();
        // Ascending, as the counting drain needs them.
        self.table.over_full.sort_unstable();
        let over_full = std::mem::take(&mut self.table.over_full);
        let buckets = over_full.iter().map(|&bucket| bucket as usize);
        self.take_oldest_counted(buckets, self.table.tau, out);
        // Emptied with the chains below; its capacity serves the next batch.
        self.table.over_full = over_full;
        self.table.clear_spill();
        let evicted = out.len() - start;
        self.len -= evicted;
        self.stats.evictions += evicted as u64;
        evicted
    }

    fn drain_into(&mut self, out: &mut Vec<EvictedCell>) -> usize {
        let buckets = self.mask as usize + 1;
        self.take_oldest_counted(0..buckets, 0, out);
        self.table.clear_spill();
        let drained = std::mem::take(&mut self.len);
        self.stats.evictions += drained as u64;
        drained
    }

    /// The one drain: takes the cells of each of `buckets` (ascending) older
    /// than its newest `keep` and appends them to `out` in Morton order.
    /// The chains of `buckets` are dead afterwards ([`Table::trim`]).
    ///
    /// Morton order costs no sort. The bucket is the code's low log₂w bits,
    /// so the walk meets the cells in ascending order of those bits, and the
    /// cells of one bucket differ in the high part, their tag: placing each
    /// cell, in walk order, into the run of its tag *is* the sorted order. A
    /// first walk only counts the runs; the second fills them straight from
    /// the records, decoding each key once — no comparisons, no
    /// `morton::encode`, and no scratch the size of the run to show up in
    /// peak RSS at a full-cache flush.
    fn take_oldest_counted(
        &mut self,
        buckets: impl Iterator<Item = usize> + Clone,
        keep: usize,
        out: &mut Vec<EvictedCell>,
    ) {
        let t = &mut self.table;
        // Next free index of each tag's run. The tags are few (one per
        // 128 × 64 × 64 voxels at 2¹⁹ buckets) but up to 48 − log₂w bits
        // wide, so they key a map instead of indexing a table.
        let mut runs: HashMap<u64, usize, BuildHasherDefault<CodeHasher>> = HashMap::default();
        let mut ahead = buckets.clone().skip(STAGE);
        for bucket in buckets.clone() {
            if let Some(next) = ahead.next() {
                prefetch(&t.words[t.record(next)]);
            }
            let excess = t.len(bucket).saturating_sub(keep);
            for (tag, _) in t.cells(bucket).take(excess) {
                *runs.entry(tag.high()).or_default() += 1;
            }
        }
        let mut parts: Vec<u64> = runs.keys().copied().collect();
        parts.sort_unstable();
        let mut end = out.len();
        for part in parts {
            let run = runs.get_mut(&part).expect("a key of the map");
            let count = std::mem::replace(run, end);
            end += count;
        }
        if out.capacity() < end {
            // The capacity a push loop would have grown to. Backends reuse
            // `out` from scan to scan and build it anew every run; buffers
            // of exactly each scan's size fragmented the heap (glibc, peak
            // RSS +11 % on `corridor_hot` after 15 back-to-back runs) where
            // power-of-two ones are recycled.
            out.reserve_exact(end.next_power_of_two() - out.len());
        }
        out.resize(end, EvictedCell::EMPTY);
        let shift = t.shift;
        let mut ahead = buckets.clone().skip(STAGE);
        for bucket in buckets {
            if let Some(next) = ahead.next() {
                prefetch(&t.words[t.record(next)]);
            }
            t.trim(bucket, keep, |tag, log_odds| {
                let high = tag.high();
                let next = runs.get_mut(&high).expect("counted above");
                out[*next] = EvictedCell {
                    key: morton::decode(high << shift | bucket as u64),
                    log_odds,
                };
                *next += 1;
            });
        }
    }

    fn bucket_occupancy_histogram(&self) -> Vec<usize> {
        let t = &self.table;
        let buckets = self.mask as usize + 1;
        let max = (0..buckets).map(|b| t.len(b)).max().unwrap_or(0);
        let mut hist = vec![0usize; max + 1];
        for bucket in 0..buckets {
            hist[t.len(bucket)] += 1;
        }
        hist
    }

    fn iter(&self) -> impl Iterator<Item = EvictedCell> + '_ {
        let t = &self.table;
        (0..self.mask as usize + 1).flat_map(move |bucket| {
            t.cells(bucket).map(move |(tag, log_odds)| EvictedCell {
                key: t.key(bucket, tag),
                log_odds,
            })
        })
    }
}

/// `log_odds` after a voxel's `count` observations in order, occupied at
/// the ascending indices `hits` and free elsewhere: one clamped `±δ` each.
/// The run is replayed as stretches of one kind, and a step that left the
/// bits as they were (a clamp) leaves them again, so it ends its stretch.
#[inline]
fn advance(params: &OccupancyParams, mut log_odds: f32, count: u32, hits: &[u32]) -> f32 {
    let (mut at, mut hits) = (0, hits);
    while at < count {
        let (occupied, len) = match hits.first() {
            Some(&first) if first == at => {
                let len = hits.iter().zip(at..).take_while(|(&h, i)| h == *i).count();
                hits = &hits[len..];
                (true, len as u32)
            }
            Some(&next) => (false, next - at),
            None => (false, count - at),
        };
        for _ in 0..len {
            let next = params.apply(log_odds, occupied);
            if next.to_bits() == log_odds.to_bits() {
                break;
            }
            log_odds = next;
        }
        at += len;
    }
    log_odds
}

/// Hashes one `u64` — a Morton code, or the high part a counting drain keys
/// its runs by — with a multiply and a fold. The default SipHash costs more
/// than the rest of the drain per cell, or than recording an event, and
/// guards nothing here: the cache's own bucket index is the same code's low
/// bits, unkeyed.
#[derive(Default)]
pub(crate) struct CodeHasher(u64);

impl Hasher for CodeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a code is hashed as one u64");
    }

    fn write_u64(&mut self, part: u64) {
        let mixed = part.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = mixed ^ (mixed >> 32);
    }
}

/// Asks the memory system for the cache line holding `target`; a hint with
/// no effect on what any later read returns.
#[inline(always)]
fn prefetch<T>(target: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: PREFETCHT0 never faults and never changes architectural
        // state, whatever the address; this one comes from a live reference
        // anyway. SSE is part of the x86_64 baseline.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(target).cast()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = target;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(w: usize, tau: usize) -> VoxelCache {
        let cfg = CacheConfig::builder()
            .num_buckets(w)
            .tau(tau)
            .build()
            .unwrap();
        VoxelCache::new(cfg, OccupancyParams::default())
    }

    fn k(x: u16, y: u16, z: u16) -> VoxelKey {
        VoxelKey::new(x, y, z)
    }

    /// The fold scratch of `c`.
    fn fold(c: &VoxelCache) -> &Fold {
        each!(&c.tags, c => &c.fold)
    }

    /// The heap bytes of `c`'s spill and over-full list, and whether both
    /// are empty.
    fn spill(c: &VoxelCache) -> (usize, bool) {
        each!(&c.tags, c => {
            let t = &c.table;
            let bytes = t.memory_usage() - t.words.capacity() * 4;
            (bytes, t.spill.is_empty() && t.over_full.is_empty())
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache(64, 2);
        assert!(!c.insert(k(1, 1, 1), true, |_| None));
        assert!(c.insert(k(1, 1, 1), true, |_| None));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.len(), 1);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn miss_seeds_from_octree_value() {
        let mut c = cache(64, 2);
        let params = OccupancyParams::default();
        // Octree already holds log-odds 1.0 for this voxel.
        c.insert(k(2, 2, 2), true, |_| Some(1.0));
        let expected = params.apply(1.0, true);
        assert_eq!(c.peek(k(2, 2, 2)), Some(expected));
        assert_eq!(c.stats().octree_seeds, 1);
    }

    #[test]
    fn miss_without_octree_uses_prior() {
        let mut c = cache(64, 2);
        let params = OccupancyParams::default();
        c.insert(k(3, 3, 3), false, |_| None);
        let expected = params.apply(params.threshold, false);
        assert_eq!(c.peek(k(3, 3, 3)), Some(expected));
        assert_eq!(c.stats().octree_seeds, 0);
    }

    #[test]
    fn accumulation_matches_octomap_rule() {
        let mut c = cache(64, 2);
        let params = OccupancyParams::default();
        let key = k(4, 4, 4);
        let mut expected = params.threshold;
        for occ in [true, true, false, true, false, false, false] {
            c.insert(key, occ, |_| None);
            expected = params.apply(expected, occ);
        }
        assert_eq!(c.peek(key), Some(expected));
    }

    #[test]
    fn get_counts_queries() {
        let mut c = cache(64, 2);
        c.insert(k(1, 0, 0), true, |_| None);
        assert!(c.get(k(1, 0, 0)).is_some());
        assert!(c.get(k(9, 9, 9)).is_none());
        assert_eq!(c.stats().query_hits, 1);
        assert_eq!(c.stats().query_misses, 1);
    }

    #[test]
    fn eviction_keeps_tau_newest_per_bucket() {
        // Single bucket: everything collides.
        let mut c = cache(1, 2);
        for i in 0..5u16 {
            c.insert(k(i, 0, 0), true, |_| None);
        }
        assert_eq!(c.len(), 5);
        let evicted = c.evict();
        // Oldest 3 evicted, in insertion order.
        assert_eq!(evicted.len(), 3);
        let keys: Vec<u16> = evicted.iter().map(|e| e.key.x).collect();
        assert_eq!(keys, vec![0, 1, 2]);
        assert_eq!(c.len(), 2);
        assert!(c.peek(k(3, 0, 0)).is_some());
        assert!(c.peek(k(4, 0, 0)).is_some());
        assert!(c.peek(k(0, 0, 0)).is_none());
    }

    #[test]
    fn eviction_no_op_when_under_tau() {
        let mut c = cache(64, 4);
        for i in 0..10u16 {
            c.insert(k(i, i, i), true, |_| None);
        }
        // 10 distinct voxels across 64 buckets: each bucket <= tau almost
        // surely, but even if not, evict only trims over-full buckets.
        let before = c.len();
        let evicted = c.evict();
        assert_eq!(before - evicted.len(), c.len());
        for b in c.bucket_occupancy_histogram().iter().enumerate() {
            let (occupancy, _count) = b;
            assert!(occupancy <= 4);
        }
    }

    #[test]
    fn morton_indexing_groups_siblings() {
        // 8 children of one parent have consecutive Morton codes, so with
        // w >= 8 they land in consecutive buckets; with w = 8 they cover
        // each bucket exactly once.
        let mut c = cache(8, 1);
        for i in 0..8u16 {
            let key = k(i & 1, (i >> 1) & 1, (i >> 2) & 1);
            c.insert(key, true, |_| None);
        }
        let hist = c.bucket_occupancy_histogram();
        assert_eq!(hist.get(1).copied().unwrap_or(0), 8, "{hist:?}");
    }

    #[test]
    fn bucket_sequential_eviction_is_morton_aligned() {
        // With Morton indexing and w buckets, evicted voxels come out
        // ordered by (morton mod w) — verify for keys that all differ only
        // in their low bits so morton mod w == morton.
        let mut c = cache(64, 1);
        let mut keys: Vec<VoxelKey> = (0..4u16)
            .flat_map(|x| (0..4u16).map(move |y| k(x, y, 0)))
            .collect();
        // Insert in a scrambled order.
        keys.reverse();
        for (i, &key) in keys.iter().enumerate() {
            // Duplicate one key to make one bucket over-full.
            c.insert(key, i % 2 == 0, |_| None);
        }
        let mut out = Vec::new();
        // Force eviction of everything by draining.
        out.extend(c.drain_all());
        let codes: Vec<u64> = out.iter().map(|e| morton::encode(e.key)).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        assert_eq!(codes, sorted, "drain order not Morton-aligned");
    }

    #[test]
    fn full_morton_sort_order() {
        let mut c = cache(4, 1);
        for x in (0..12u16).rev() {
            c.insert(k(x, 5, 2), true, |_| None);
        }
        let evicted = c.evict();
        let codes: Vec<u64> = evicted.iter().map(|e| morton::encode(e.key)).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        assert_eq!(codes, sorted);
    }

    #[test]
    fn drain_all_empties() {
        let mut c = cache(16, 4);
        for i in 0..40u16 {
            c.insert(k(i, 1, 2), true, |_| None);
        }
        let n = c.len();
        let all = c.drain_all();
        assert_eq!(all.len(), n);
        assert!(c.is_empty());
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn peak_len_tracks_overshoot() {
        let mut c = cache(1, 1);
        for i in 0..10u16 {
            c.insert(k(i, 0, 0), true, |_| None);
        }
        assert_eq!(c.peak_len(), 10);
        c.evict();
        assert_eq!(c.len(), 1);
        assert_eq!(c.peak_len(), 10);
    }

    #[test]
    fn memory_usage_is_positive_once_filled() {
        let mut c = cache(16, 2);
        c.insert(k(1, 2, 3), true, |_| None);
        assert!(c.memory_usage() > 0);
    }

    #[test]
    fn fresh_cache_owns_exactly_the_configured_resident_bytes() {
        // 16 buckets: 8-byte tags, a record of 8 + 12 · (τ + 3) bytes; 2¹⁶:
        // 4-byte tags, at τ = 4 one 64-byte line. Both with the 64 bytes
        // that align the first record.
        for (w, tau, record) in [(16, 2, 8 + 12 * 5), (1 << 16, 4, 64)] {
            let mut c = cache(w, tau);
            let resident = c.config().resident_bytes();
            assert_eq!(resident, record * w + 64);
            assert_eq!(c.memory_usage(), resident);
            // Filling one bucket's record allocates nothing: its τ cells
            // leave the over-full list empty, and its 3 overshoot cells
            // add one entry there…
            let key = |x: u16| k(x << w.trailing_zeros().div_ceil(3), 0, 0);
            for x in 0..tau as u16 {
                c.insert(key(x), true, |_| None);
            }
            assert_eq!(c.memory_usage(), resident);
            for x in tau as u16..tau as u16 + 3 {
                c.insert(key(x), true, |_| None);
            }
            assert_eq!(c.bucket_occupancy_histogram()[tau + 3], 1);
            let (over_full, _) = spill(&c);
            assert!(over_full > 0);
            assert_eq!(c.memory_usage(), resident + over_full);
            // …and only cells past the record go to the spill.
            c.insert(key(tau as u16 + 3), true, |_| None);
            let (spilled, _) = spill(&c);
            assert!(spilled > over_full);
            assert_eq!(c.memory_usage(), resident + spilled);
            c.evict();
            assert_eq!(spill(&c), (spilled, true));
        }
    }

    /// A record is one 64-byte line at τ = 4 from 2¹⁶ buckets on, and the
    /// first starts on a line: a probe reads one line.
    #[test]
    fn narrow_records_are_line_aligned_lines() {
        let c = cache(1 << 16, 4);
        let Tags::Narrow(c) = &c.tags else {
            panic!("2¹⁶ buckets take 32-bit tags")
        };
        let t = &c.table;
        assert_eq!(t.stride * 4, 64);
        assert_eq!(t.words[t.base..].as_ptr() as usize % 64, 0);
        assert!(matches!(cache(1 << 15, 4).tags, Tags::Wide(_)));
    }

    /// `voxels` distinct voxels from the `first`-th of a 64 × 64 × 64 block,
    /// `each` observations apiece, interleaved in windows of 256 voxels as
    /// neighbouring rays cross them; every fifth observation occupied.
    fn dense(first: usize, voxels: usize, each: usize) -> Vec<VoxelUpdate> {
        let key = |i: usize| k((i % 64) as u16, (i / 64 % 64) as u16, (i / 4096) as u16);
        let mut out = Vec::with_capacity(voxels * each);
        for window in (first..first + voxels).collect::<Vec<_>>().chunks(256) {
            for rep in 0..each {
                out.extend(window.iter().map(|&i| VoxelUpdate {
                    key: key(i),
                    occupied: (i + rep) % 5 == 0,
                }));
            }
        }
        out
    }

    /// The scratch's heap bytes, computed from its parts.
    fn scratch(f: &Fold) -> usize {
        f.slots.len() * 8
            + f.groups.capacity() * 16
            + f.hits.capacity() * 8
            + f.indices.capacity() * 4
    }

    #[test]
    fn memory_usage_counts_the_fold_scratch() {
        let mut c = cache(16, 2);
        let resident = c.config().resident_bytes();
        let batch: Vec<VoxelUpdate> = (0..40u16)
            .map(|x| VoxelUpdate {
                key: k(x % 8, 0, 0),
                occupied: x % 3 == 0,
            })
            .collect();
        c.insert_batch(&batch, |_| None);
        let f = fold(&c);
        assert_eq!(f.slots.len(), FOLD_SLOTS);
        // 14 of the 40 observations are occupied.
        assert!(f.groups.capacity() >= 8 && f.hits.capacity() >= 14 && f.indices.capacity() >= 14);
        assert_eq!(c.memory_usage(), resident + scratch(f));
        // Kept, and emptied, for the next batch.
        assert!(f.groups.is_empty() && f.slots.iter().all(|&s| s == FOLD_EMPTY));
        c.insert_batch(&batch, |_| None);
        assert_eq!(c.memory_usage(), resident + scratch(fold(&c)));
        // A batch that widens leaves the wide scratch, 1 MiB of slots, in
        // the narrow one's place, and a later batch keeps it.
        let mut c = cache(1 << 16, 2);
        let resident = c.config().resident_bytes();
        for batch in [dense(0, 2 * FOLD_GROUPS, WIDEN_AT), batch] {
            c.insert_batch(&batch, |_| None);
            let f = fold(&c);
            assert_eq!(f.slots.len(), WIDE_SLOTS);
            assert!(f.groups.capacity() >= 2 * FOLD_GROUPS);
            let (spill, _) = spill(&c);
            assert_eq!(c.memory_usage(), resident + spill + scratch(f));
            c.evict();
        }
    }

    /// Which prefix a batch folds: its first 2¹⁴ voxels, and up to 2¹⁶ − 1
    /// only when those drew 8 observations each or more; a widened scratch
    /// applies the same rule to every later batch.
    #[test]
    fn the_fold_widens_only_past_eight_observations_per_voxel() {
        let mut fold = Fold::default();
        let mut group = |batch: &[VoxelUpdate]| {
            let folded = fold.group(batch);
            let groups = fold.groups.len();
            let slots = fold.slots.len();
            let counted: usize = fold.groups.iter().map(|g| g.count as usize).sum();
            assert_eq!(counted, folded);
            fold.clear();
            assert!(fold.slots.iter().all(|&s| s == FOLD_EMPTY));
            (folded, groups, slots)
        };
        // A batch of 2¹⁴ voxels or fewer folds whole and never widens.
        let whole = dense(0, FOLD_GROUPS, 3);
        assert_eq!(group(&whole), (whole.len(), FOLD_GROUPS, FOLD_SLOTS));
        // One observation short of 8 a voxel at the check: the rest streams.
        let mut short = dense(0, FOLD_GROUPS, WIDEN_AT);
        short.remove(0);
        let at = short.len();
        short.extend(dense(FOLD_GROUPS, 100, 9));
        assert_eq!(group(&short), (at, FOLD_GROUPS, FOLD_SLOTS));
        // Exactly 8: the batch widens and folds whole.
        let widens = dense(0, 3 * FOLD_GROUPS, WIDEN_AT);
        assert_eq!(group(&widens), (widens.len(), 3 * FOLD_GROUPS, WIDE_SLOTS));
        // The wide scratch stays, and a low-duplication batch still stops
        // at the check.
        let low = dense(0, 2 * FOLD_GROUPS, 2);
        assert_eq!(group(&low), (2 * FOLD_GROUPS, FOLD_GROUPS, WIDE_SLOTS));
        // A widened batch stops at the first observation of its 2¹⁶-th voxel.
        let full = dense(0, WIDE_GROUPS + 1, WIDEN_AT);
        let cap = full.iter().position(|u| u.key == k(63, 63, 15)).unwrap();
        assert_eq!(group(&full), (cap, WIDE_GROUPS, WIDE_SLOTS));
    }

    /// The key (65535, 65535, 65535) as a widened batch's 2¹⁶-th voxel. In a
    /// group 65535 its entry would be all ones, `FOLD_EMPTY`: its slot would
    /// read as free, and the hash would hold one entry fewer than the fold
    /// has groups. The cap stops the fold at that key's first observation
    /// instead, and every group keeps its entry.
    #[test]
    fn the_all_ones_key_past_the_wide_cap_is_not_folded() {
        let all_ones = k(u16::MAX, u16::MAX, u16::MAX);
        let mut batch = dense(0, 65_535, WIDEN_AT);
        let at = batch.len();
        for occupied in [true, false, true] {
            batch.push(VoxelUpdate {
                key: all_ones,
                occupied,
            });
        }
        let mut fold = Fold::default();
        assert_eq!(fold.group(&batch), at);
        assert_eq!(fold.slots.len(), WIDE_SLOTS);
        let entries = fold.slots.iter().filter(|&&s| s != FOLD_EMPTY).count();
        assert_eq!(entries, fold.groups.len());
        assert_eq!(entries, 65_535);
    }

    /// The rule on the benchmark's datasets: the first scan of each, at its
    /// workload's scale and resolution (the corridor's `corridor_hot`, the
    /// campus's `campus_*`, the college's `college_readers`) and the
    /// workloads' scene seed, traced into one batch. Each prints a `fold:`
    /// line; the corridor's duplication must sit 1.3× above `WIDEN_AT` and
    /// the others' 1.3× below, so a generator that drifts toward the
    /// threshold fails here rather than flipping a workload's path quietly.
    #[test]
    fn fold_decisions_on_the_benchmark_datasets() {
        use octocache_datasets::{Dataset, DatasetConfig};
        use octocache_geom::VoxelGrid;
        use octocache_octomap::insert::{compute_update, VoxelBatch};
        for (dataset, scale, resolution, widens) in [
            (Dataset::Fr079Corridor, 1.0, 0.1, true),
            (Dataset::FreiburgCampus, 0.25, 0.1, false),
            (Dataset::NewCollege, 0.25, 0.2, false),
        ] {
            let seq = dataset.generate(&DatasetConfig {
                scale,
                seed: 0xC0FFEE,
            });
            let scan = &seq.scans()[0];
            let grid = VoxelGrid::new(resolution, 16).unwrap();
            let mut batch = VoxelBatch::new();
            compute_update(
                &grid,
                scan.origin,
                &scan.points,
                seq.max_range(),
                &mut batch,
            )
            .unwrap();
            let batch = batch.updates();
            // Counted apart from the fold: observations before the first of
            // the (2¹⁴ + 1)-th voxel, per voxel.
            let mut seen = std::collections::HashSet::new();
            let prefix = batch
                .iter()
                .position(|u| seen.insert(u.key) && seen.len() > FOLD_GROUPS)
                .expect("more than 2¹⁴ voxels");
            seen.extend(batch.iter().map(|u| u.key));
            let per_voxel = prefix as f64 / FOLD_GROUPS as f64;
            let mut fold = Fold::default();
            fold.group(batch);
            let widened = fold.slots.len() == WIDE_SLOTS;
            println!(
                "fold: {dataset} scale {scale} at {resolution} m: {} observations, {} voxels, \
                 {per_voxel:.1} observations per voxel at 2^14, widened: {widened}",
                batch.len(),
                seen.len(),
            );
            assert_eq!(widened, widens, "{dataset}");
            let margin = if widens {
                per_voxel / WIDEN_AT as f64
            } else {
                WIDEN_AT as f64 / per_voxel
            };
            assert!(
                margin >= 1.3,
                "{dataset}: {per_voxel:.2} observations per voxel"
            );
        }
    }

    /// The overshoot a record holds, on the benchmark's datasets: each
    /// workload's scans (`campus_*`'s 8, `corridor_hot`'s 66,
    /// `college_readers`' 16) at its scale, resolution and bucket count, the
    /// workloads' scene seed and τ = 4, through a cache and beside a
    /// keys-only model of its buckets that counts where each probe stops —
    /// the fold's groups first, then the streamed rest, as `insert_batch`
    /// probes. Each prints a `spill:` line: the share of over-full buckets
    /// at a pass whose overshoot fits the record's 3 cells past τ, and the
    /// share of the probe steps past τ (all of them spill steps in a
    /// record of τ cells) that go past the record too. That share must
    /// stay under 1 %, or `OVERSHOOT` no longer fits the data.
    #[test]
    fn overshoot_fits_the_record_on_the_benchmark_datasets() {
        use octocache_datasets::{Dataset, DatasetConfig};
        use octocache_geom::VoxelGrid;
        use octocache_octomap::insert::{compute_update, VoxelBatch};
        const TAU: usize = 4;
        for (dataset, scale, resolution, buckets, scans) in [
            (Dataset::FreiburgCampus, 0.25, 0.1, 1 << 19, 8),
            (Dataset::Fr079Corridor, 1.0, 0.1, 1 << 16, 66),
            (Dataset::NewCollege, 0.25, 0.2, 1 << 16, 16),
        ] {
            let seq = dataset.generate(&DatasetConfig {
                scale,
                seed: 0xC0FFEE,
            });
            let grid = VoxelGrid::new(resolution, 16).unwrap();
            let mut c = cache(buckets, TAU);
            let mut model = vec![Vec::<VoxelKey>::new(); buckets];
            let (mut fold, mut batch) = (Fold::default(), VoxelBatch::new());
            // Over-full buckets at the passes and those the record holds;
            // probe steps past τ and past the record.
            let (mut over_full, mut held, mut steps, mut past) = (0u64, 0u64, 0u64, 0u64);
            for scan in &seq.scans()[..scans] {
                compute_update(
                    &grid,
                    scan.origin,
                    &scan.points,
                    seq.max_range(),
                    &mut batch,
                )
                .unwrap();
                let updates = batch.updates();
                let folded = fold.group(updates);
                let grouped = fold.groups.iter().map(|g| g.key);
                for key in grouped.chain(updates[folded..].iter().map(|u| u.key)) {
                    let cells = &mut model[c.bucket_index(key)];
                    // A hit stops at its cell; a miss walks them all.
                    let walked = match cells.iter().position(|&k| k == key) {
                        Some(at) => at + 1,
                        None => {
                            cells.push(key);
                            cells.len() - 1
                        }
                    };
                    steps += walked.saturating_sub(TAU) as u64;
                    past += walked.saturating_sub(TAU + OVERSHOOT) as u64;
                }
                fold.clear();
                c.insert_batch(updates, |_| None);
                let mut hist = vec![0; c.bucket_occupancy_histogram().len()];
                for cells in &mut model {
                    hist[cells.len()] += 1;
                    if cells.len() > TAU {
                        over_full += 1;
                        held += u64::from(cells.len() <= TAU + OVERSHOOT);
                        cells.drain(..cells.len() - TAU);
                    }
                }
                assert_eq!(hist, c.bucket_occupancy_histogram(), "{dataset}: the model");
                c.evict();
            }
            let share = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
            println!(
                "spill: {dataset} scale {scale} at {resolution} m, 2^{} buckets, {scans} scans: \
                 {:.1} % of {over_full} over-full buckets within {OVERSHOOT} overshoot cells, \
                 {:.2} % of {steps} spill steps past the record",
                buckets.trailing_zeros(),
                share(held, over_full),
                share(past, steps),
            );
            assert!(
                share(past, steps) < 1.0,
                "{dataset}: {past} of {steps} spill steps past the record"
            );
        }
    }

    #[test]
    fn hit_on_a_spilled_cell_accumulates_in_place() {
        let mut c = cache(1, 2);
        let params = OccupancyParams::default();
        for x in 0..7u16 {
            assert!(!c.insert(k(x, 0, 0), true, |_| None));
        }
        // The record holds τ + 3 = 5 cells; k(6) sits second in the chain.
        assert!(c.insert(k(6, 0, 0), true, |_| None));
        let twice = params.apply(params.apply(params.threshold, true), true);
        assert_eq!(c.peek(k(6, 0, 0)), Some(twice));
        assert_eq!(c.get(k(6, 0, 0)), Some(twice));
        assert_eq!(c.len(), 7);
        let evicted: Vec<u16> = c.evict().iter().map(|e| e.key.x).collect();
        assert_eq!(evicted, vec![0, 1, 2, 3, 4]);
        // The pass moved it into the record with its value.
        assert_eq!(c.peek(k(6, 0, 0)), Some(twice));
        assert!(c.insert(k(6, 0, 0), false, |_| None));
    }

    #[test]
    fn a_pass_evicts_fewer_exactly_and_more_than_tau_cells_from_one_bucket() {
        let tau = 3u16;
        for excess in [1, tau, tau + 4] {
            let mut c = cache(1, tau as usize);
            // Keys are offered in x order; `oldest` is the oldest resident.
            let (mut next, mut oldest) = (0u16, 0u16);
            // The second batch evicts cells the first pass moved inline.
            for batch in [tau + excess, excess] {
                for x in next..next + batch {
                    c.insert(k(x, 0, 0), true, |_| None);
                }
                next += batch;
                let evicted: Vec<u16> = c.evict().iter().map(|e| e.key.x).collect();
                let expected: Vec<u16> = (oldest..oldest + excess).collect();
                assert_eq!(evicted, expected, "excess {excess}");
                oldest += excess;
                let kept: Vec<u16> = c.iter().map(|e| e.key.x).collect();
                assert_eq!(
                    kept,
                    (oldest..next).collect::<Vec<u16>>(),
                    "excess {excess}"
                );
                assert_eq!(c.len(), tau as usize);
                assert!(spill(&c).1);
            }
        }
    }

    #[test]
    fn drain_all_walks_live_chains() {
        let mut c = cache(2, 1);
        for x in 0..12u16 {
            c.insert(k(x, x / 2, 0), x % 3 == 0, |_| None);
        }
        // Both buckets (even and odd x) fill their record's τ + 3 = 4 cells
        // and hang two more off a chain.
        let resident: Vec<u16> = c.iter().map(|e| e.key.x).collect();
        assert_eq!(resident, vec![0, 2, 4, 6, 8, 10, 1, 3, 5, 7, 9, 11]);
        let drained: Vec<u16> = c.drain_all().iter().map(|e| e.key.x).collect();
        assert_eq!(drained, (0..12).collect::<Vec<u16>>());
        assert!(c.is_empty() && spill(&c).1);
        assert_eq!(c.iter().count(), 0);
        assert!(
            !c.insert(k(0, 0, 0), true, |_| None),
            "drained cells are gone"
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn spill_is_empty_and_its_capacity_reused_after_every_pass() {
        let mut c = cache(4, 2);
        let mut footprint = None;
        for round in 0..5u16 {
            for x in 0..40u16 {
                c.insert(k(x, x / 2, round), true, |_| None);
            }
            assert!(!spill(&c).1);
            c.evict();
            assert!(spill(&c).1);
            assert_eq!(c.len(), 8);
            // From the second batch on (full buckets) every batch overshoots
            // by the same 40 cells: that one sized the spill for all.
            if round >= 1 {
                assert_eq!(*footprint.get_or_insert(c.memory_usage()), c.memory_usage());
            }
        }
    }
}
