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
//!    sequences and iteration order — whether observations arrive one
//!    `insert` at a time or through `insert_batch` — and the events an
//!    executor records beside it (`engine::record_accesses` /
//!    `record_evictions`) count what `CacheStats` counts of the keys on
//!    the sampling lattice.
//! 5. The counting drain hands out exactly the run a comparison sort by
//!    Morton code would.
//! 6. `insert_batch` folds a batch per voxel yet is the per-observation
//!    loop: same contents, statistics and evictions, and the same
//!    `octree_lookup` calls in the same order — over long repeat runs,
//!    occupied and free mixed on one voxel, values driven to both clamps,
//!    batches that stream a tail after 2¹⁴ voxels, batches that widen the
//!    fold's scratch, and a widened batch that fills its 2¹⁶ − 1 voxels.
//! 7. The fold counts a voxel's observations and lists only its occupied
//!    ones, yet replays the loop's value bit for bit on a few voxels with
//!    hundreds of interleaved free and occupied observations each, driven
//!    into both clamps and back out.

use std::collections::{HashMap, VecDeque};

use octocache::engine::{record_accesses, record_evictions};
use octocache::{CacheConfig, CacheStats, EvictedCell, VoxelCache};
use octocache_geom::{morton, VoxelKey};
use octocache_octomap::insert::VoxelUpdate;
use octocache_octomap::OccupancyParams;
use octocache_telemetry::{is_sampled, Event, EventBuffer, EventKind, EventSink, Residents};
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
        // Keys on the 4×4×4 lattice, the ones whose events are recorded.
        10 => (0u16..3, 0u16..3, 0u16..2, any::<bool>())
            .prop_map(|(x, y, z, o)| StorageOp::Insert(VoxelKey::new(4 * x, 4 * y, 4 * z), o)),
        4 => Just(StorageOp::Evict),
        1 => Just(StorageOp::DrainAll),
    ]
}

/// What an event says, without when it was emitted.
fn untimed(events: Vec<Event>) -> Vec<(u64, EventKind, u64, u32, u64)> {
    let untimed = |e: Event| (e.scan, e.kind, e.key, e.bucket, e.value);
    events.into_iter().map(untimed).collect()
}

/// Records on `events`, when present, what `record` records; for the
/// recorders that may be switched off.
fn record(events: &mut Option<EventBuffer>, record: impl FnOnce(&mut EventBuffer)) {
    if let Some(buf) = events {
        record(buf);
    }
}

/// The `(hits, misses, evictions)` a recorded stream counts.
fn counted(events: &[Event]) -> (u64, u64, u64) {
    let count = |kind| events.iter().filter(|e| e.kind == kind).count() as u64;
    (
        count(EventKind::CacheHit),
        count(EventKind::CacheMiss),
        count(EventKind::CacheEvict),
    )
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
    /// end with the statistics of a twin cache that took them one `insert`
    /// at a time. With `events`, each side records its accesses before it
    /// takes them and its evictions after, as the executors do: the two
    /// streams are equal, and each step's events count that step's hits,
    /// misses and evictions of the keys on the sampling lattice.
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
        let mut recorders = [(); 2].map(|()| events.then(|| EventSink::new().buffer(0)));
        // Each side's recorded stream so far, and the cells the first one
        // holds resident.
        let mut streams: [Vec<Event>; 2] = Default::default();
        let mut residents = Residents::default();
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
            let [batched_events, single_events] = &mut recorders;
            let mut batched_seed = |key| {
                batched.push(key);
                seed(key)
            };
            match batch {
                Some(n) if n > 0 => {
                    record(batched_events, |buf| record_accesses(buf, &cache, &pending));
                    cache.insert_batch(&pending, &mut batched_seed);
                }
                _ => {
                    for u in &pending {
                        if batch.is_some() {
                            cache.insert_batch(&[], |_| panic!("nothing to seed"));
                        }
                        let one = std::slice::from_ref(u);
                        record(batched_events, |buf| record_accesses(buf, &cache, one));
                        cache.insert(u.key, u.occupied, &mut batched_seed);
                    }
                }
            }
            // The step's hits and misses on the lattice, per the model.
            let mut sampled = (0u64, 0u64);
            for u in pending.drain(..) {
                let single_seed = |key| {
                    single.push(key);
                    seed(key)
                };
                let one = std::slice::from_ref(&u);
                record(single_events, |buf| record_accesses(buf, &twin, one));
                let hit = twin.insert(u.key, u.occupied, single_seed);
                let bucket = cache.bucket_index(u.key);
                assert_eq!(hit, model.insert(bucket, u.key, u.occupied, seed(u.key)), "{at}");
                if is_sampled(morton::encode(u.key)) {
                    *if hit { &mut sampled.0 } else { &mut sampled.1 } += 1;
                }
            }
            assert_eq!(looked_up[0], looked_up[1], "{at}");
            let (evicted, run) = match *op {
                StorageOp::Insert(..) => (Vec::new(), ModelRun::new()),
                StorageOp::Evict => {
                    let evicted = cache.evict();
                    assert_eq!(evicted, twin.evict(), "{at}");
                    (evicted, model.evict(tau))
                }
                StorageOp::DrainAll => {
                    let drained = cache.drain_all();
                    assert_eq!(drained, twin.drain_all(), "{at}");
                    (drained, model.evict(0))
                }
            };
            // The hits each evicted cell on the lattice absorbed, by the
            // model, in the run's (Morton) order.
            let mut absorbed: Vec<(u64, u64)> = run
                .iter()
                .map(|&(_, key, _, hits)| (morton::encode(key), u64::from(hits)))
                .filter(|&(code, _)| is_sampled(code))
                .collect();
            absorbed.sort_unstable();
            assert_eq!(evicted, morton_sorted(run), "{at}");
            flushed.extend(evicted.iter().map(|c| (c.key, c.log_odds)));
            for (side, events) in recorders.iter_mut().enumerate() {
                let Some(buf) = events else { continue };
                let owner = if side == 0 { &cache } else { &twin };
                record_evictions(buf, owner, &evicted);
                let step = buf.take_log();
                let evictions = absorbed.len() as u64;
                assert_eq!(counted(&step.events), (sampled.0, sampled.1, evictions), "{at}");
                if side == 0 {
                    // Hits at eviction, derived from the stream alone.
                    let derived: Vec<(u64, u64)> = step
                        .events
                        .iter()
                        .filter_map(|e| {
                            let stay = residents.follow(e).map_or(u64::MAX, |stay| stay.hits);
                            (e.kind == EventKind::CacheEvict).then_some((e.key, stay))
                        })
                        .collect();
                    assert_eq!(derived, absorbed, "{at}");
                }
                streams[side].extend(step.events);
            }
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
        let [batched, single] = streams.map(untimed);
        assert_eq!(batched, single, "{batch:?}");
        assert!(events || batched.is_empty());
    }

    /// The sorted eviction order is produced by counting, not comparing:
    /// for any keys — high parts past 32 bits at the small `w`s, no low
    /// bits at all at `w = 1` — a pass and the final drain hand out the
    /// model's bucket-sequential run sorted by Morton code.
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
        let mut model = ModelCache::new(buckets);
        // One pass part-way, one at the end, then the drain of what is left.
        let (head, tail) = keys.split_at(split.min(keys.len()));
        for part in [head, tail] {
            for (i, &key) in part.iter().enumerate() {
                cache.insert(key, i % 2 == 0, |_| None);
                model.insert(cache.bucket_index(key), key, i % 2 == 0, None);
            }
            assert_eq!(cache.evict(), morton_sorted(model.evict(tau)));
        }
        assert_eq!(cache.drain_all(), morton_sorted(model.evict(0)));
        assert!(cache.is_empty());
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

/// Distinct voxels of a wide block: more than the 2¹⁴ a batch folds before
/// it decides whether to widen, one observation each. The batch's first
/// 2¹⁴ voxels then draw under two observations apiece, far below the eight
/// that widen the fold, so a batch holding one always streams a tail.
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

/// A batch over `voxels` in phases of `(observations, occupied per cent)`,
/// each observation's voxel and flag drawn from `seed`: the voxels'
/// observations interleave, and a phase of 0 % or 100 % drives every voxel
/// to a clamp.
fn interleaved(voxels: &[VoxelKey], phases: &[(usize, u64)], seed: u64) -> Vec<VoxelUpdate> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out = Vec::new();
    for &(len, percent) in phases {
        out.extend((0..len).map(|_| VoxelUpdate {
            key: voxels[(next() % voxels.len() as u64) as usize],
            occupied: next() % 100 < percent,
        }));
    }
    out
}

/// Offers `batches` to a folding cache and to a twin fed one `insert` per
/// observation, both of `buckets` buckets of two, and requires the same
/// contents and values (bits), statistics, octree lookups and evicted runs
/// after each. Returns, after each batch, the folding cache's value of
/// every one of `voxels` and its fold scratch's bytes: its footprint over
/// the twin's, whose slab and spill are the same.
fn fold_against_the_loop(
    buckets: usize,
    voxels: &[VoxelKey],
    batches: &[Vec<VoxelUpdate>],
) -> Vec<(Vec<f32>, usize)> {
    let cfg = CacheConfig::builder()
        .num_buckets(buckets)
        .tau(2)
        .build()
        .unwrap();
    let params = OccupancyParams::default();
    let (mut folding, mut twin) = (VoxelCache::new(cfg, params), VoxelCache::new(cfg, params));
    let mut octree: HashMap<VoxelKey, f32> = HashMap::new();
    let mut values = Vec::new();
    for (n, batch) in batches.iter().enumerate() {
        let mut looked_up: [Vec<VoxelKey>; 2] = Default::default();
        let [folded, single] = &mut looked_up;
        folding.insert_batch(batch, |key| {
            folded.push(key);
            octree.get(&key).copied()
        });
        for u in batch {
            twin.insert(u.key, u.occupied, |key| {
                single.push(key);
                octree.get(&key).copied()
            });
        }
        assert_eq!(looked_up[0], looked_up[1], "batch {n}: octree lookups");
        assert_eq!(folding.stats(), twin.stats(), "batch {n}");
        let bits = |cache: &VoxelCache, key| cache.peek(key).map(f32::to_bits);
        for &key in voxels {
            assert_eq!(bits(&folding, key), bits(&twin, key), "batch {n}: {key}");
        }
        let cell = |c: EvictedCell| (c.key, c.log_odds.to_bits());
        assert!(
            folding.iter().map(cell).eq(twin.iter().map(cell)),
            "batch {n}: contents differ"
        );
        let scratch = folding.memory_usage() - twin.memory_usage();
        values.push((
            voxels.iter().filter_map(|&k| folding.peek(k)).collect(),
            scratch,
        ));
        let evicted = folding.evict();
        assert!(evicted == twin.evict(), "batch {n}: evicted runs differ");
        octree.extend(evicted.iter().map(|c| (c.key, c.log_odds)));
    }
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_counting_fold_replays_interleaved_runs(
        voxels in proptest::collection::vec((0u16..6, 0u16..6, 0u16..2), 1..6),
        batches in proptest::collection::vec(
            proptest::collection::vec(
                (20usize..400, prop_oneof![Just(0u64), Just(2), Just(50), Just(95), Just(100)]),
                1..6,
            ),
            1..4,
        ),
        seed in any::<u64>(),
    ) {
        let voxels: Vec<VoxelKey> = voxels.iter().map(|&(x, y, z)| VoxelKey::new(x, y, z)).collect();
        let batches: Vec<Vec<VoxelUpdate>> = batches
            .iter()
            .enumerate()
            .map(|(n, phases)| interleaved(&voxels, phases, seed ^ n as u64))
            .collect();
        fold_against_the_loop(16, &voxels, &batches);
    }
}

/// The same on a fixed script that provably reaches both clamps: two
/// voxels, interleaved, all occupied then all free in one batch (ending at
/// the lower clamp), and the reverse in the next (ending at the upper).
#[test]
fn the_counting_fold_reaches_both_clamps_like_the_loop() {
    let params = OccupancyParams::default();
    let voxels = [VoxelKey::new(1, 2, 3), VoxelKey::new(4, 5, 6)];
    let batches = [
        interleaved(&voxels, &[(300, 100), (40, 50), (300, 0)], 7),
        interleaved(&voxels, &[(300, 0), (40, 50), (300, 100)], 8),
    ];
    let values = fold_against_the_loop(16, &voxels, &batches);
    assert_eq!(values[0].0, [params.clamp_min; 2]);
    assert_eq!(values[1].0, [params.clamp_max; 2]);
}

/// `voxels` distinct voxels from the `first`-th of a 64 × 64 × 64 block,
/// `each` observations apiece, interleaved in windows of 256 voxels as
/// neighbouring rays cross them; occupied where `(voxel + repeat) % 5 == 0`.
fn dense(first: usize, voxels: usize, each: usize) -> Vec<VoxelUpdate> {
    let mut out = Vec::with_capacity(voxels * each);
    for window in (first..first + voxels).collect::<Vec<_>>().chunks(256) {
        for rep in 0..each {
            out.extend(window.iter().map(|&i| VoxelUpdate {
                key: block_key(i),
                occupied: (i + rep) % 5 == 0,
            }));
        }
    }
    out
}

/// The `i`-th voxel of the 64 × 64 × 64 block `dense` draws from.
fn block_key(i: usize) -> VoxelKey {
    VoxelKey::new((i % 64) as u16, (i / 64 % 64) as u16, (i / 4096) as u16)
}

/// The fold's paths against the loop, on one cache, batch after batch. A
/// batch folds its first 2¹⁴ voxels; it goes on, up to 2¹⁶ − 1 voxels in a
/// 1 MiB scratch the cache then keeps, only when those voxels drew eight
/// observations each or more. Every batch below must equal one `insert`
/// per observation, whichever path it takes:
///
/// 0. seven observations a voxel at the check: the rest streams, and the
///    scratch stays narrow (under 1 MiB);
/// 1. nine a voxel, over 2¹⁵ voxels, then voxels of the first 2¹⁴ again:
///    the batch widens, its groups so far rehashed, and folds whole;
/// 2. two a voxel on the widened cache: it stops at the check again;
/// 3. eight a voxel over more than 2¹⁶ − 1 voxels, early ones repeated
///    past the check, the 2¹⁶-th voxel the key (65535, 65535, 65535), whose
///    entry in a group 65535 would read as an empty slot: the fold fills
///    its cap, and that key, the voxels after it and repeats of folded ones
///    stream.
#[test]
fn the_fold_widens_only_where_the_batch_repeats_its_voxels() {
    const NARROW: usize = 1 << 14;
    const CAP: usize = (1 << 16) - 1;
    let all_ones = VoxelKey::new(u16::MAX, u16::MAX, u16::MAX);
    let mut capped = [
        dense(0, 20_000, 8),
        dense(0, 2_000, 3),
        dense(20_000, CAP - 20_000, 8),
    ]
    .concat();
    for occupied in [true, false, true] {
        capped.push(VoxelUpdate {
            key: all_ones,
            occupied,
        });
        capped.extend(dense(CAP - 300, 200, 1));
    }
    capped.extend(dense(CAP, 2_000, 3));
    let batches = [
        [dense(0, NARROW, 7), dense(NARROW, 4_000, 9)].concat(),
        [dense(NARROW, 2 * NARROW, 9), dense(NARROW, 3_000, 2)].concat(),
        dense(3 * NARROW, 2 * NARROW, 2),
        capped,
    ];
    let watched = [
        block_key(0),
        block_key(NARROW),
        block_key(CAP - 1),
        all_ones,
    ];
    let scratch: Vec<usize> = fold_against_the_loop(1 << 16, &watched, &batches)
        .into_iter()
        .map(|(_, bytes)| bytes)
        .collect();
    const WIDE_BYTES: usize = 8 << 17;
    assert!(
        scratch[0] < WIDE_BYTES,
        "the first batch widened: {scratch:?}"
    );
    assert!(
        scratch[1..].iter().all(|&bytes| bytes >= WIDE_BYTES),
        "{scratch:?}"
    );
}

/// The event stream of a scripted run as an executor records it beside the
/// cache — `kind key bucket` per access, `evict key bucket hits scans` per
/// eviction with the hits and the scans resident derived from the stream —
/// followed by the evicted sequence. The evictions are listed in each run's
/// Morton order, the order the cache hands them out. Since cache events are
/// sampled, the script runs on the lattice keys `4·(x, x mod 3, 0)` at
/// w = 128, plus one voxel off the lattice per scan: that voxel reaches the
/// evicted sequence and no event. `morton(4·k) = morton(k) << 6`, so every
/// code here is 64 times the one the same script recorded on the keys
/// `(x, x mod 3, 0)` at w = 2 before sampling, bucket 64 stands where bucket
/// 1 stood, and the kinds, hits and stays are those of that earlier golden
/// line for line — which was recorded at the commit before the slab, with
/// hits and stays the cache itself stamped on its evictions.
const GOLDEN_EVENT_STREAM: &str = "miss 0 0\n\
miss 192 64\n\
miss 1536 0\n\
miss 576 64\n\
miss 4224 0\n\
miss 5184 64\n\
miss 4608 0\n\
miss 4800 64\n\
miss 33792 0\n\
hit 33792 0\n\
hit 192 64\n\
evict 0 0 0 0\n\
evict 192 64 1 0\n\
evict 576 64 0 0\n\
evict 1536 0 0 0\n\
evict 4224 0 0 0\n\
miss 576 64\n\
miss 4224 0\n\
hit 5184 64\n\
hit 4608 0\n\
hit 4800 64\n\
hit 33792 0\n\
miss 32832 64\n\
miss 33408 0\n\
miss 34368 64\n\
hit 34368 64\n\
hit 4224 0\n\
evict 576 64 0 0\n\
evict 4608 0 1 1\n\
evict 4800 64 1 1\n\
evict 5184 64 1 1\n\
evict 33792 0 2 1\n\
evict 4224 0 1 0\n\
evict 32832 64 0 0\n\
evict 33408 0 0 0\n\
evict 34368 64 1 0\n\
out [0, 0, 0] 0.84729785\n\
out [4, 4, 0] -0.8109302\n\
out [12, 0, 0] -0.4054651\n\
out [8, 8, 0] 0.84729785\n\
out [16, 4, 0] 0.84729785\n\
out [12, 0, 0] -0.4054651\n\
out [24, 0, 0] 1.6945957\n\
out [28, 4, 0] -0.8109302\n\
out [20, 8, 0] -0.8109302\n\
out [32, 8, 0] 2.5418935\n\
out [1, 0, 0] 0.84729785\n\
out [2, 0, 0] 0.84729785\n\
out [16, 4, 0] 0.44183275\n\
out [36, 0, 0] -0.4054651\n\
out [40, 4, 0] 0.84729785\n\
out [44, 8, 0] 0.44183275\n\
";

#[test]
fn events_attached_evicts_and_emits_the_golden_stream() {
    let mut events = EventSink::new().buffer(0);
    // w = 128: the lattice's voxels fill the two sampled buckets, 0 and 64
    // (bit 0 of x / 4 is bit 6 of the code).
    let cfg = CacheConfig::builder()
        .num_buckets(128)
        .tau(2)
        .build()
        .unwrap();
    let mut cache = VoxelCache::new(cfg, OccupancyParams::default());
    let mut evicted = Vec::new();
    // Two "scans": each offers a sliding window of lattice keys (old ones
    // hit, new ones miss and spill), re-hits a spilled cell, and offers
    // one voxel off the lattice, which records nothing; then a pass.
    for scan in 0..2u16 {
        events.set_scan(u64::from(scan) + 1);
        let update = |x: u16, occupied| VoxelUpdate {
            key: VoxelKey::new(4 * x, 4 * (x % 3), 0),
            occupied,
        };
        let mut batch: Vec<VoxelUpdate> = (3 * scan..3 * scan + 9)
            .map(|x| update(x, x % 2 == 0))
            .collect();
        batch.push(update(3 * scan + 8, true)); // spilled
        batch.push(update(3 * scan + 1, false));
        batch.push(VoxelUpdate {
            key: VoxelKey::new(scan + 1, 0, 0),
            occupied: true,
        });
        record_accesses(&mut events, &cache, &batch);
        cache.insert_batch(&batch, |_| None);
        let pass = evicted.len();
        cache.evict_into(&mut evicted);
        record_evictions(&mut events, &cache, &evicted[pass..]);
    }
    let drained = cache.drain_all();
    record_evictions(&mut events, &cache, &drained);
    evicted.extend(drained);

    let mut stream = String::new();
    let mut residents = Residents::default();
    for e in events.take_log().events {
        let stay = residents.follow(&e);
        let kind = match e.kind {
            EventKind::CacheHit => "hit",
            EventKind::CacheMiss => "miss",
            EventKind::CacheEvict => {
                let stay = stay.expect("every evicted cell was inserted in the stream");
                stream += &format!(
                    "evict {} {} {} {}\n",
                    e.key, e.bucket, stay.hits, stay.scans
                );
                continue;
            }
            other => panic!("unexpected {other:?}"),
        };
        stream += &format!("{kind} {} {}\n", e.key, e.bucket);
    }
    assert!(residents.is_empty(), "the drain evicts every cell");
    for cell in &evicted {
        stream += &format!("out {} {}\n", cell.key, cell.log_odds);
    }
    assert_eq!(stream, GOLDEN_EVENT_STREAM, "\n{stream}");
}
