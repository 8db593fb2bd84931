//! Property tests for the voxel-cache invariants that the pipelines'
//! correctness rests on:
//!
//! 1. τ-eviction is lossless — every accumulated update eventually reaches
//!    the eviction stream with exactly the accumulated value.
//! 2. `CacheStats::since`/`merge` form the algebra the telemetry layer
//!    assumes (associative merge, zero identity, since/merge inversion).
//! 3. Bucket membership: every key lands in exactly one in-range bucket, is
//!    found there again, and the occupancy histogram accounts for every
//!    resident cell.
//! 4. The slab-and-spill storage behaves exactly as the bucket-of-vectors
//!    layout it replaced ([`ModelCache`]): same hits, values, evicted
//!    sequences, iteration order and event stream — whether observations
//!    arrive one `insert` at a time or through `insert_batch`.
//! 5. The counting drain hands out exactly the run a comparison sort by
//!    Morton code would.
//! 6. `insert_batch` folds a batch per voxel yet is the per-observation
//!    loop: same contents, statistics and evictions, and the same
//!    `octree_lookup` calls in the same order — over long repeat runs,
//!    occupied and free mixed on one voxel, values driven to both clamps
//!    and batches with more distinct voxels than the fold's scratch holds.

use std::collections::{HashMap, VecDeque};

use octocache::{CacheConfig, CacheStats, EvictedCell, VoxelCache};
use octocache_geom::{morton, VoxelKey};
use octocache_octomap::insert::VoxelUpdate;
use octocache_octomap::OccupancyParams;
use octocache_telemetry::{Event, EventKind, EventSink};
use proptest::prelude::*;

/// Ops driving the eviction-loss property.
#[derive(Debug, Clone)]
enum Op {
    /// Offer an observation for key (x, y, z).
    Insert(u16, u16, u16, bool),
    /// Run a τ-eviction pass.
    Evict,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u16..20, 0u16..20, 0u16..20, any::<bool>())
            .prop_map(|(x, y, z, o)| Op::Insert(x, y, z, o)),
        1 => Just(Op::Evict),
    ]
}

/// The layout `VoxelCache` had before the slab, as the reference: one
/// deque of `(key, value, hits)` per bucket, oldest first, evicted from the
/// front down to `τ`. Bucket indices come from the cache under test.
struct ModelCache {
    buckets: Vec<VecDeque<(VoxelKey, f32, u32)>>,
    peak_len: usize,
}

/// A bucket-sequential eviction run: `(bucket, key, value, hits)` per cell.
type ModelRun = Vec<(usize, VoxelKey, f32, u32)>;

impl ModelCache {
    fn new(buckets: usize) -> Self {
        ModelCache {
            buckets: vec![VecDeque::new(); buckets],
            peak_len: 0,
        }
    }

    fn len(&self) -> usize {
        self.buckets.iter().map(VecDeque::len).sum()
    }

    fn peek(&self, bucket: usize, key: VoxelKey) -> Option<f32> {
        let cell = self.buckets[bucket].iter().find(|c| c.0 == key)?;
        Some(cell.1)
    }

    fn insert(&mut self, bucket: usize, key: VoxelKey, occupied: bool, seed: Option<f32>) -> bool {
        let params = OccupancyParams::default();
        if let Some(cell) = self.buckets[bucket].iter_mut().find(|c| c.0 == key) {
            cell.1 = params.apply(cell.1, occupied);
            cell.2 += 1;
            return true;
        }
        let value = params.apply(seed.unwrap_or(params.threshold), occupied);
        self.buckets[bucket].push_back((key, value, 0));
        self.peak_len = self.peak_len.max(self.len());
        false
    }

    /// Pops every bucket's oldest cells down to `keep`, bucket by bucket
    /// (`keep = 0` is `drain_all`).
    fn evict(&mut self, keep: usize) -> ModelRun {
        let mut run = Vec::new();
        for (b, bucket) in self.buckets.iter_mut().enumerate() {
            let excess = bucket.len().saturating_sub(keep);
            run.extend(
                bucket
                    .drain(..excess)
                    .map(|(key, v, hits)| (b, key, v, hits)),
            );
        }
        run
    }

    fn iter(&self) -> Vec<EvictedCell> {
        let cell = |&(key, log_odds, _): &(VoxelKey, f32, u32)| EvictedCell { key, log_odds };
        self.buckets.iter().flatten().map(cell).collect()
    }

    fn histogram(&self) -> Vec<usize> {
        let max = self.buckets.iter().map(VecDeque::len).max().unwrap_or(0);
        let mut hist = vec![0; max + 1];
        for bucket in &self.buckets {
            hist[bucket.len()] += 1;
        }
        hist
    }
}

/// What the cache hands out for a model run: the same cells in Morton order
/// (a cache holds a voxel once, so the keys of a run are unique).
fn morton_sorted(mut run: ModelRun) -> Vec<EvictedCell> {
    run.sort_by(|a, b| morton::cmp_keys(a.1, b.1));
    let cell = |(_, key, log_odds, _)| EvictedCell { key, log_odds };
    run.into_iter().map(cell).collect()
}

/// Ops driving the storage-exactness property.
#[derive(Debug, Clone)]
enum StorageOp {
    Insert(VoxelKey, bool),
    Evict,
    DrainAll,
}

fn arb_storage_op() -> impl Strategy<Value = StorageOp> {
    prop_oneof![
        40 => (0u16..6, 0u16..6, 0u16..4, any::<bool>())
            .prop_map(|(x, y, z, o)| StorageOp::Insert(VoxelKey::new(x, y, z), o)),
        4 => Just(StorageOp::Evict),
        1 => Just(StorageOp::DrainAll),
    ]
}

/// What an event says, without when it was emitted.
fn untimed(events: Vec<Event>) -> Vec<(u64, EventKind, u64, u32, u32, u64)> {
    let untimed = |e: Event| (e.scan, e.kind, e.key, e.bucket, e.hits, e.value);
    events.into_iter().map(untimed).collect()
}

/// An arbitrary stats snapshot with fields small enough that merged sums
/// never overflow.
fn arb_stats() -> impl Strategy<Value = CacheStats> {
    proptest::collection::vec(0u64..(1 << 30), 7..8).prop_map(|v| CacheStats {
        insertions: v[0],
        hits: v[1],
        misses: v[2],
        octree_seeds: v[3],
        evictions: v[4],
        query_hits: v[5],
        query_misses: v[6],
    })
}

fn merged(a: &CacheStats, b: &CacheStats) -> CacheStats {
    let mut m = *a;
    m.merge(b);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// τ-eviction never drops (or corrupts) an accumulated update: under
    /// any interleaving of insertions and eviction passes, the last evicted
    /// value of every voxel equals the flat model's accumulation, and
    /// nothing stays behind after `drain_all`.
    #[test]
    fn tau_eviction_is_lossless(
        ops in proptest::collection::vec(arb_op(), 1..300),
        tau in 1usize..5,
    ) {
        let params = OccupancyParams::default();
        let cfg = CacheConfig::builder()
            .num_buckets(16) // tiny: constant collision pressure
            .tau(tau)
            .build()
            .unwrap();
        let mut cache = VoxelCache::new(cfg, params);
        let mut model: HashMap<VoxelKey, f32> = HashMap::new();
        // The model octree: last value each voxel reached the eviction
        // stream with. Re-inserted voxels seed from here, exactly as the
        // pipelines seed misses from the real octree.
        let mut flushed: HashMap<VoxelKey, f32> = HashMap::new();
        let mut buf: Vec<EvictedCell> = Vec::new();

        for op in &ops {
            match *op {
                Op::Insert(x, y, z, occupied) => {
                    let key = VoxelKey::new(x, y, z);
                    let e = model.entry(key).or_insert(params.threshold);
                    *e = params.apply(*e, occupied);
                    cache.insert(key, occupied, |k| flushed.get(&k).copied());
                }
                Op::Evict => {
                    buf.clear();
                    cache.evict_into(&mut buf);
                    for cell in &buf {
                        flushed.insert(cell.key, cell.log_odds);
                    }
                }
            }
        }
        for cell in cache.drain_all() {
            flushed.insert(cell.key, cell.log_odds);
        }
        assert!(cache.is_empty());

        assert_eq!(flushed.len(), model.len());
        for (key, expected) in &model {
            let got = flushed.get(key).unwrap_or_else(|| panic!("{key} lost"));
            assert_eq!(
                got.to_bits(),
                expected.to_bits(),
                "{key}: flushed {got} != model {expected}"
            );
        }
    }

    /// The slab behaves exactly as the layout it replaced: under any
    /// interleaving of insert / evict / drain_all, every answer the cache
    /// gives equals the reference model's, order included. Half the cases
    /// offer their observations through `insert_batch`, in batches of
    /// `batch` (0: an empty batch before every single `insert`), and must
    /// end with the statistics and the event stream of a twin cache that
    /// took them one `insert` at a time.
    #[test]
    fn slab_storage_matches_the_bucket_of_vectors_model(
        ops in proptest::collection::vec(arb_storage_op(), 1..250),
        tau in 1usize..5,
        buckets in prop_oneof![Just(1usize), Just(2), Just(16)],
        batch in prop_oneof![
            6 => Just(None),
            1 => Just(Some(0usize)),
            1 => Just(Some(1)),
            1 => Just(Some(15)),
            1 => Just(Some(16)),
            1 => Just(Some(17)),
            1 => Just(Some(33)),
        ],
        events in any::<bool>(),
    ) {
        let cfg = CacheConfig::builder()
            .num_buckets(buckets)
            .tau(tau)
            .build()
            .unwrap();
        let mut cache = VoxelCache::new(cfg, OccupancyParams::default());
        let mut twin = VoxelCache::new(cfg, OccupancyParams::default());
        let sinks = [EventSink::new(), EventSink::new()];
        if events {
            cache.attach_events(sinks[0].buffer(0));
            twin.attach_events(sinks[1].buffer(0));
        }
        let mut model = ModelCache::new(buckets);
        // The stand-in octree all sides seed their misses from.
        let mut flushed: HashMap<VoxelKey, f32> = HashMap::new();
        let mut offered: Vec<VoxelKey> = Vec::new();
        // Observations not yet offered to the caches.
        let mut pending: Vec<VoxelUpdate> = Vec::new();
        // The keys each side asked the stand-in octree for, in order.
        let mut looked_up: [Vec<VoxelKey>; 2] = Default::default();

        // The pass at the end offers what is left of the last batch.
        for op in ops.iter().chain([&StorageOp::Evict]) {
            let at = format!("{batch:?} {op:?}");
            if let StorageOp::Insert(key, occupied) = *op {
                offered.push(key);
                pending.push(VoxelUpdate { key, occupied });
                if pending.len() < batch.unwrap_or(1) {
                    continue;
                }
            }
            let seed = |key: VoxelKey| flushed.get(&key).copied();
            let [batched, single] = &mut looked_up;
            let mut batched_seed = |key| {
                batched.push(key);
                seed(key)
            };
            match batch {
                Some(n) if n > 0 => cache.insert_batch(&pending, &mut batched_seed),
                _ => {
                    for u in &pending {
                        if batch.is_some() {
                            cache.insert_batch(&[], |_| panic!("nothing to seed"));
                        }
                        cache.insert(u.key, u.occupied, &mut batched_seed);
                    }
                }
            }
            for u in pending.drain(..) {
                let single_seed = |key| {
                    single.push(key);
                    seed(key)
                };
                let hit = twin.insert(u.key, u.occupied, single_seed);
                let bucket = cache.bucket_index(u.key);
                assert_eq!(hit, model.insert(bucket, u.key, u.occupied, seed(u.key)), "{at}");
            }
            assert_eq!(looked_up[0], looked_up[1], "{at}");
            let evicted = match *op {
                StorageOp::Insert(..) => Vec::new(),
                StorageOp::Evict => {
                    let evicted = cache.evict();
                    assert_eq!(evicted, morton_sorted(model.evict(tau)), "{at}");
                    assert_eq!(evicted, twin.evict(), "{at}");
                    evicted
                }
                StorageOp::DrainAll => {
                    let drained = cache.drain_all();
                    assert_eq!(drained, morton_sorted(model.evict(0)), "{at}");
                    assert_eq!(drained, twin.drain_all(), "{at}");
                    drained
                }
            };
            flushed.extend(evicted.iter().map(|c| (c.key, c.log_odds)));
            assert_eq!(cache.stats(), twin.stats(), "{at}");
            assert_eq!(cache.len(), model.len(), "{at}");
            assert_eq!(cache.peak_len(), model.peak_len, "{at}");
            assert_eq!(cache.bucket_occupancy_histogram(), model.histogram(), "{at}");
            assert_eq!(cache.iter().collect::<Vec<_>>(), model.iter(), "{at}");
            for &key in &offered {
                let bucket = cache.bucket_index(key);
                assert_eq!(cache.peek(key), model.peek(bucket, key), "{at}: {key}");
            }
        }
        if events {
            cache.events_mut().unwrap().drain();
            twin.events_mut().unwrap().drain();
            let [batched, single] = sinks.map(|sink| untimed(sink.take().events));
            assert_eq!(batched, single, "{batch:?}");
        }
    }

    /// The sorted eviction order is produced by counting, not comparing:
    /// for any keys — high parts past 32 bits at the small `w`s, no low
    /// bits at all at `w = 1` — a pass and the final drain hand out the
    /// model's bucket-sequential run sorted by Morton code, and emit their
    /// `CacheEvict` events in that run's bucket-sequential order.
    #[test]
    fn counting_drain_equals_the_morton_comparison_sort(
        keys in proptest::collection::vec(
            // Few low parts, many high parts: buckets fill at every `w`.
            ((0u16..4, 0u16..512), (0u16..4, 0u16..512), (0u16..2, 0u16..512))
                .prop_map(|((x, i), (y, j), (z, k))| VoxelKey::new(x + 128 * i, y + 128 * j, z + 128 * k)),
            1..200,
        ),
        buckets in prop_oneof![Just(1usize), Just(2), Just(64), Just(1 << 19)],
        tau in 1usize..3,
        split in 0usize..200,
    ) {
        let cfg = CacheConfig::builder()
            .num_buckets(buckets)
            .tau(tau)
            .build()
            .unwrap();
        let mut cache = VoxelCache::new(cfg, OccupancyParams::default());
        let sink = EventSink::new();
        cache.attach_events(sink.buffer(0));
        let mut model = ModelCache::new(buckets);
        // `(key, bucket, hits)` of every `CacheEvict` the model expects.
        let mut walked: Vec<(u64, u32, u32)> = Vec::new();
        let mut expect = |run: ModelRun| {
            let evict = |&(bucket, key, _, hits): &_| (morton::encode(key), bucket as u32, hits);
            walked.extend(run.iter().map(evict));
            morton_sorted(run)
        };
        // One pass part-way, one at the end, then the drain of what is left.
        let (head, tail) = keys.split_at(split.min(keys.len()));
        for part in [head, tail] {
            for (i, &key) in part.iter().enumerate() {
                cache.insert(key, i % 2 == 0, |_| None);
                model.insert(cache.bucket_index(key), key, i % 2 == 0, None);
            }
            assert_eq!(cache.evict(), expect(model.evict(tau)));
        }
        assert_eq!(cache.drain_all(), expect(model.evict(0)));
        assert!(cache.is_empty());

        cache.events_mut().unwrap().drain();
        let evicts: Vec<(u64, u32, u32)> = sink
            .take()
            .events
            .iter()
            .filter(|e| e.kind == EventKind::CacheEvict)
            .map(|e| (e.key, e.bucket, e.hits))
            .collect();
        assert_eq!(evicts, walked);
    }

    /// `merge` is associative with `CacheStats::default()` as the zero.
    #[test]
    fn stats_merge_algebra(
        a in arb_stats(),
        b in arb_stats(),
        c in arb_stats(),
    ) {
        // Zero identity, both sides.
        assert_eq!(merged(&a, &CacheStats::default()), a);
        assert_eq!(merged(&CacheStats::default(), &a), a);
        // Associativity.
        assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
        // Commutativity (merge is a fieldwise sum).
        assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    /// `since` inverts `merge`: the delta of a merged snapshot over its
    /// base is the increment, and re-merging the delta restores the whole.
    #[test]
    fn stats_since_inverts_merge(
        base in arb_stats(),
        delta in arb_stats(),
    ) {
        let total = merged(&base, &delta);
        assert_eq!(total.since(&base), delta);
        assert_eq!(merged(&base, &total.since(&base)), total);
        // A snapshot's delta over itself is zero.
        assert_eq!(total.since(&total), CacheStats::default());
    }

    /// Bucket membership: every key lands in one in-range bucket, is found
    /// there again by `peek`/`bucket_index`, and the occupancy histogram
    /// accounts for every resident cell.
    #[test]
    fn every_key_lives_in_exactly_one_in_range_bucket(
        keys in proptest::collection::vec(
            (0u16..64, 0u16..64, 0u16..64).prop_map(|(x, y, z)| VoxelKey::new(x, y, z)),
            1..80,
        ),
        buckets_log2 in 4u32..9,
    ) {
        let cfg = CacheConfig::builder()
            .num_buckets(1usize << buckets_log2)
            .tau(80) // no bucket can overflow: membership stays put
            .build()
            .unwrap();
        let mut cache = VoxelCache::new(cfg, OccupancyParams::default());
        for key in &keys {
            cache.insert(*key, true, |_| None);
        }
        for key in &keys {
            let b = cache.bucket_index(*key);
            assert!(b < 1usize << buckets_log2, "bucket {b} out of range");
            // bucket_index is a pure function of the key.
            assert_eq!(b, cache.bucket_index(*key), "unstable index");
            assert!(cache.peek(*key).is_some(), "{key} not found");
        }
        let distinct: std::collections::HashSet<VoxelKey> = keys.iter().copied().collect();
        assert_eq!(cache.len(), distinct.len());
        // The histogram is indexed by occupancy count: summing
        // `count × buckets_with_that_count` must account for every
        // resident cell, and the bucket total must match `num_buckets`.
        let hist = cache.bucket_occupancy_histogram();
        let cells: usize = hist.iter().enumerate().map(|(c, n)| c * n).sum();
        assert_eq!(cells, cache.len());
        assert!(
            hist.iter().sum::<usize>() <= 1usize << buckets_log2,
            "more buckets than configured"
        );
    }
}

/// How the flags of one stretch of a batch run.
#[derive(Debug, Clone, Copy)]
enum Flags {
    /// Every observation occupied: drives the value to the upper clamp.
    Occupied,
    /// Every observation free: drives the value to the lower clamp.
    Free,
    /// Occupied and free alternating.
    Alternating,
    /// Occupied where the bit of the mask is set.
    Mixed(u64),
}

/// `len` observations in a row of the `voxel`-th voxel of a small pool, so
/// a voxel recurs both in long runs and scattered through the batch.
#[derive(Debug, Clone, Copy)]
struct Stretch {
    voxel: usize,
    len: usize,
    flags: Flags,
}

fn arb_stretch() -> impl Strategy<Value = Stretch> {
    let flags = prop_oneof![
        Just(Flags::Occupied),
        Just(Flags::Free),
        Just(Flags::Alternating),
        any::<u64>().prop_map(Flags::Mixed),
    ];
    let len = prop_oneof![3 => 1usize..4, 1 => 4usize..64];
    (0usize..POOL, len, flags).prop_map(|(voxel, len, flags)| Stretch { voxel, len, flags })
}

/// Voxels the stretches draw from.
const POOL: usize = 48;

/// Distinct voxels of a wide block: more than the fold's scratch has slots
/// (2¹⁵), so a batch holding one always streams a tail.
const WIDE: usize = 33_000;

/// A batch: its stretches and, in some, a block of `WIDE` distinct voxels
/// (one observation each) after the `at`-th stretch.
#[derive(Debug, Clone)]
struct FoldBatch {
    stretches: Vec<Stretch>,
    wide_at: Option<usize>,
}

fn arb_fold_batch() -> impl Strategy<Value = FoldBatch> {
    let stretches = proptest::collection::vec(arb_stretch(), 0..60);
    let wide_at = prop_oneof![5 => Just(None), 1 => (0usize..60).prop_map(Some)];
    (stretches, wide_at).prop_map(|(stretches, wide_at)| FoldBatch { stretches, wide_at })
}

impl FoldBatch {
    fn updates(&self, pool: &[VoxelKey], wide_z: u16) -> Vec<VoxelUpdate> {
        let wide = (0..WIDE).map(|i| VoxelUpdate {
            key: VoxelKey::new((i % 256) as u16, (i / 256) as u16 + 300, wide_z),
            occupied: i % 3 == 0,
        });
        let mut out = Vec::new();
        for (i, s) in self.stretches.iter().enumerate() {
            if self.wide_at == Some(i) {
                out.extend(wide.clone());
            }
            out.extend((0..s.len).map(|j| VoxelUpdate {
                key: pool[s.voxel],
                occupied: match s.flags {
                    Flags::Occupied => true,
                    Flags::Free => false,
                    Flags::Alternating => j % 2 == 0,
                    Flags::Mixed(mask) => mask >> (j % 64) & 1 == 1,
                },
            }));
        }
        if self.wide_at.is_some_and(|at| at >= self.stretches.len()) {
            out.extend(wide);
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A folded batch is the per-observation loop: after every batch and
    /// its eviction pass the folding cache and a twin fed one `insert` at a
    /// time agree on contents (iteration order and every value, bit for
    /// bit), statistics, the evicted run, and the keys they asked the
    /// octree for, in order. Some pool voxels start with a stored value —
    /// at a clamp, at the threshold or in between — and an evicted cell's
    /// value is what a later miss seeds from.
    #[test]
    fn folded_batches_equal_the_per_observation_loop(
        batches in proptest::collection::vec(arb_fold_batch(), 1..4),
        pool_keys in proptest::collection::vec((0u16..40, 0u16..40, 0u16..8), POOL..POOL + 1),
        stored in proptest::collection::vec(
            prop_oneof![
                Just(None),
                Just(Some(-2.0f32)),
                Just(Some(3.5f32)),
                Just(Some(0.0f32)),
                (-2.0f32..3.5).prop_map(Some),
            ],
            POOL..POOL + 1,
        ),
        buckets in prop_oneof![Just(1usize), Just(16), Just(4096)],
        tau in 1usize..5,
    ) {
        let params = OccupancyParams::default();
        let pool: Vec<VoxelKey> = pool_keys.iter().map(|&(x, y, z)| VoxelKey::new(x, y, z)).collect();
        let clamp = |v: f32| v.clamp(params.clamp_min, params.clamp_max);
        let mut octree: HashMap<VoxelKey, f32> = pool
            .iter()
            .zip(&stored)
            .filter_map(|(&key, v)| Some((key, clamp((*v)?))))
            .collect();
        // A wide block in one bucket is a quadratic chain walk for both.
        let wide = batches.iter().any(|b| b.wide_at.is_some());
        let buckets = if wide { buckets.max(4096) } else { buckets };
        let cfg = CacheConfig::builder().num_buckets(buckets).tau(tau).build().unwrap();
        let mut folding = VoxelCache::new(cfg, params);
        let mut twin = VoxelCache::new(cfg, params);
        for (n, batch) in batches.iter().enumerate() {
            // A fresh wide block per batch: its voxels miss again.
            let updates = batch.updates(&pool, n as u16);
            let mut looked_up: [Vec<VoxelKey>; 2] = Default::default();
            let [folded, single] = &mut looked_up;
            folding.insert_batch(&updates, |key| {
                folded.push(key);
                octree.get(&key).copied()
            });
            for u in &updates {
                twin.insert(u.key, u.occupied, |key| {
                    single.push(key);
                    octree.get(&key).copied()
                });
            }
            let at = format!("batch {n}: {} observations", updates.len());
            prop_assert!(looked_up[0] == looked_up[1], "{at}: the octree was asked in another order");
            prop_assert_eq!(folding.stats(), twin.stats(), "{}", at);
            prop_assert_eq!(folding.len(), twin.len(), "{}", at);
            prop_assert_eq!(folding.peak_len(), twin.peak_len(), "{}", at);
            let bits = |c: EvictedCell| (c.key, c.log_odds.to_bits());
            let resident: Vec<_> = folding.iter().map(bits).collect();
            prop_assert!(resident == twin.iter().map(bits).collect::<Vec<_>>(), "{at}: contents differ");
            for &key in &pool {
                let (a, b) = (folding.peek(key), twin.peek(key));
                prop_assert_eq!(a.map(f32::to_bits), b.map(f32::to_bits), "{}: {}", at, key);
            }
            let evicted = folding.evict();
            prop_assert!(evicted == twin.evict(), "{at}: evicted runs differ");
            octree.extend(evicted.iter().map(|c| (c.key, c.log_odds)));
        }
        let drained = folding.drain_all();
        prop_assert!(drained == twin.drain_all());
    }
}

/// The event stream of a scripted run, one `kind key bucket hits value` line
/// per event, followed by the evicted sequence — recorded at the commit
/// before the slab and required of every storage since.
const GOLDEN_EVENT_STREAM: &str = "\
miss 0 0 0 0\n\
miss 3 1 0 0\n\
miss 24 0 0 0\n\
miss 9 1 0 0\n\
miss 66 0 0 0\n\
miss 81 1 0 0\n\
miss 72 0 0 0\n\
miss 75 1 0 0\n\
miss 528 0 0 0\n\
hit 528 0 1 0\n\
hit 3 1 1 0\n\
evict 0 0 0 1\n\
evict 24 0 0 1\n\
evict 66 0 0 1\n\
evict 3 1 1 1\n\
evict 9 1 0 1\n\
miss 9 1 0 0\n\
miss 66 0 0 0\n\
hit 81 1 1 0\n\
hit 72 0 1 0\n\
hit 75 1 1 0\n\
hit 528 0 2 0\n\
miss 513 1 0 0\n\
miss 522 0 0 0\n\
miss 537 1 0 0\n\
hit 537 1 1 0\n\
hit 66 0 1 0\n\
evict 72 0 1 1\n\
evict 528 0 2 1\n\
evict 81 1 1 1\n\
evict 75 1 1 1\n\
evict 9 1 0 2\n\
evict 66 0 1 2\n\
evict 522 0 0 2\n\
evict 513 1 0 2\n\
evict 537 1 1 2\n\
out [0, 0, 0] 0.84729785\n\
out [1, 1, 0] -0.8109302\n\
out [3, 0, 0] -0.4054651\n\
out [2, 2, 0] 0.84729785\n\
out [4, 1, 0] 0.84729785\n\
out [3, 0, 0] -0.4054651\n\
out [6, 0, 0] 1.6945957\n\
out [7, 1, 0] -0.8109302\n\
out [5, 2, 0] -0.8109302\n\
out [8, 2, 0] 2.5418935\n\
out [4, 1, 0] 0.44183275\n\
out [9, 0, 0] -0.4054651\n\
out [10, 1, 0] 0.84729785\n\
out [11, 2, 0] 0.44183275\n\
";

#[test]
fn events_attached_evicts_and_emits_the_golden_stream() {
    let sink = EventSink::new();
    let cfg = CacheConfig::builder()
        .num_buckets(2)
        .tau(2)
        .build()
        .unwrap();
    let mut cache = VoxelCache::new(cfg, OccupancyParams::default());
    cache.attach_events(sink.buffer(0));
    let mut evicted = Vec::new();
    // Two "scans": each offers a sliding window of keys (old ones hit, new
    // ones miss and spill), re-hits a spilled cell, then runs a pass.
    for scan in 0..2u16 {
        cache.events_mut().unwrap().set_scan(u64::from(scan) + 1);
        let key = |x: u16| VoxelKey::new(x, x % 3, 0);
        for x in 3 * scan..3 * scan + 9 {
            cache.insert(key(x), x % 2 == 0, |_| None);
        }
        cache.insert(key(3 * scan + 8), true, |_| None); // spilled
        cache.insert(key(3 * scan + 1), false, |_| None);
        cache.evict_into(&mut evicted);
    }
    evicted.extend(cache.drain_all());
    cache.events_mut().unwrap().drain();

    let mut stream = String::new();
    for e in sink.take().events {
        let kind = match e.kind {
            EventKind::CacheHit => "hit",
            EventKind::CacheMiss => "miss",
            EventKind::CacheEvict => "evict",
            other => panic!("unexpected {other:?}"),
        };
        stream += &format!("{kind} {} {} {} {}\n", e.key, e.bucket, e.hits, e.value);
    }
    for cell in &evicted {
        stream += &format!("out {} {}\n", cell.key, cell.log_odds);
    }
    assert_eq!(stream, GOLDEN_EVENT_STREAM, "\n{stream}");
}
