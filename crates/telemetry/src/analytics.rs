//! Analytics over a recorded [`Event`](crate::Event) stream.
//!
//! [`EventAnalytics::from_events`] folds a raw sub-scan event stream into
//! the locality evidence the paper argues from (§3–§4). Its cache sections
//! see the sampled voxels only — the 4×4×4 lattice, one voxel in 64
//! ([`crate::is_sampled`]) — and it applies that filter itself, so a file
//! recorded before the stream was sampled gives the same tables:
//!
//! * **Shadow caches** — the sampled accesses replayed, in stream order,
//!   through keys-only [`Shadow`]s of Fig 23's sizes at τ′ = 4. Each
//!   reproduces the sampled buckets of that cache exactly, so the curve is
//!   the hit ratio and eviction count those caches would have had on the
//!   sampled sets, from one recorded run.
//! * **Cache residency** — for each evicted cell, the number of scans
//!   between its insertion and its eviction, plus the hits it absorbed
//!   while resident (the paper's duplication argument, measured). Both
//!   follow from the stream alone ([`Residents`]).
//! * **Per-octant hit ratios** — accesses bucketed by top-level octant of
//!   the *observed* key space (depth inferred from the largest Morton code
//!   in the stream), showing which spatial regions drive the hit ratio.
//! * **Bucket heatmap** — per-bucket access/hit/eviction counts of the
//!   sampled buckets (`b ≡ 0 mod 64`), i.e. the occupancy/conflict picture
//!   of the `w × τ` cache itself on those sets.
//! * **Worker timelines** — batch spans, queue traffic and stall time per
//!   thread lane (also the input to [`crate::chrome_trace_json`]).

use std::collections::HashMap;

use crate::event::{is_sampled, Event, EventKind};
use crate::hist::Histogram;

/// A matched `BatchBegin`/`BatchEnd` pair on one worker lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSpan {
    /// Span start, nanoseconds since the run epoch.
    pub begin_ns: u64,
    /// Span end, nanoseconds since the run epoch.
    pub end_ns: u64,
    /// Scan index the batch belongs to.
    pub scan: u64,
    /// Cells the batch applied (taken from the `BatchEnd` payload).
    pub cells: u64,
}

impl BatchSpan {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }
}

/// Everything one thread lane did: spans, queue traffic, stalls.
#[derive(Debug, Clone, Default)]
pub struct WorkerTimeline {
    /// Thread lane (0 = producer / serial thread, workers are 1-based).
    pub worker: u32,
    /// Completed batch spans in time order.
    pub spans: Vec<BatchSpan>,
    /// `BatchBegin` events with no matching `BatchEnd` (crash/partial
    /// batches — nonzero only on faulted runs).
    pub unmatched_begins: u64,
    /// Chunks enqueued *to* this lane.
    pub enqueues: u64,
    /// Chunks dequeued by this lane.
    pub dequeues: u64,
    /// Stall events observed on this lane.
    pub stalls: u64,
    /// Total nanoseconds spent stalled.
    pub stall_ns: u64,
    /// Largest queue depth observed at enqueue or dequeue.
    pub max_queue_depth: u64,
}

impl WorkerTimeline {
    /// Total nanoseconds inside batch spans.
    pub(crate) fn busy_ns(&self) -> u64 {
        self.spans.iter().map(BatchSpan::duration_ns).sum()
    }
}

/// Cache accesses, hits and evictions over some part of a stream: the
/// whole of it, one top-level octant, one bucket, one shadow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// `CacheHit`s and `CacheMiss`es.
    pub accesses: u64,
    /// Accesses absorbed by a resident cell.
    pub hits: u64,
    /// `CacheEvict`s.
    pub evictions: u64,
}

impl CacheCounts {
    /// Counts one cache event; other kinds change nothing.
    fn count(&mut self, kind: EventKind) {
        match kind {
            EventKind::CacheHit => (self.accesses, self.hits) = (self.accesses + 1, self.hits + 1),
            EventKind::CacheMiss => self.accesses += 1,
            EventKind::CacheEvict => self.evictions += 1,
            _ => {}
        }
    }

    /// Hits per access (0 when there were none).
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Whether `e` is a cache event of a voxel on the sampling lattice — the
/// only events the cache sections read.
fn sampled_cache_event(e: &Event) -> bool {
    matches!(
        e.kind,
        EventKind::CacheHit | EventKind::CacheMiss | EventKind::CacheEvict
    ) && is_sampled(e.key)
}

/// How long one cell stayed in the cache: from the `CacheMiss` that
/// inserted it to the `CacheEvict` that removed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stay {
    /// Scans between insertion and eviction.
    pub scans: u64,
    /// `CacheHit`s on the cell in between.
    pub hits: u64,
}

/// The cells a cache event stream has inserted and not yet evicted, each
/// with its insertion scan and the hits it has absorbed. The stream is in
/// access order and nothing is evicted mid-batch, so every hit on a key
/// between its miss and its eviction is a hit on that cell.
#[derive(Debug, Default)]
pub struct Residents {
    cells: HashMap<u64, (u64, u64)>,
}

impl Residents {
    /// Follows one event, in stream order. A `CacheMiss` makes its key a
    /// resident cell, a `CacheHit` counts on it, and a `CacheEvict` ends
    /// the cell's stay and returns it — `None` when the stream never saw
    /// the cell inserted. Other kinds change nothing.
    pub fn follow(&mut self, e: &Event) -> Option<Stay> {
        match e.kind {
            EventKind::CacheMiss => {
                self.cells.insert(e.key, (e.scan, 0));
            }
            EventKind::CacheHit => {
                if let Some((_, hits)) = self.cells.get_mut(&e.key) {
                    *hits += 1;
                }
            }
            EventKind::CacheEvict => {
                let (born, hits) = self.cells.remove(&e.key)?;
                return Some(Stay {
                    scans: e.scan.saturating_sub(born),
                    hits,
                });
            }
            _ => {}
        }
        None
    }

    /// Cells inserted and not evicted.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when every inserted cell has been evicted.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// The cache sizes `analyze` replays: Fig 23's `w′`, all at
/// [`SHADOW_TAU`].
pub const SHADOW_BUCKETS: [usize; 5] = [1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20];

/// The bucket depth `τ′` of every shadow `analyze` replays.
pub const SHADOW_TAU: usize = 4;

/// What a `(w′, τ′)` cache does on the sampled sets of one event stream.
/// Its evictions are the keys trimmed at scan boundaries; the final drain
/// is not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowPoint {
    /// `w′`, the shadowed cache's bucket count.
    pub buckets: usize,
    /// `τ′`, its cells per bucket after a trim.
    pub tau: usize,
    /// The sampled accesses replayed, the hits among them, and the trims.
    pub counts: CacheCounts,
}

/// A keys-only replay of the sampled buckets of a `(w′, τ′)` cache.
///
/// At `w′ ≥ 64` the sampled voxels fill exactly the buckets
/// `b ≡ 0 (mod 64)`, and every voxel in them is sampled. Nothing is evicted
/// within a batch, and a bucket's trim depends only on its own keys in
/// insertion order, so a table of `w′ / 64` key lists fed the sampled
/// accesses in stream order, trimmed oldest-first to `τ′` at each scan
/// boundary, holds exactly what those buckets of the real cache hold. No
/// values and no octree are needed.
#[derive(Debug, Clone)]
pub struct Shadow {
    point: ShadowPoint,
    mask: u64,
    /// Sampled bucket `b` is entry `b / 64`: its keys, oldest first.
    sets: Vec<Vec<u64>>,
    /// Entries past `τ′` since the last trim.
    over: Vec<usize>,
    /// The last trim's or drain's keys, before they are sorted.
    taken: Vec<u64>,
}

impl Shadow {
    /// An empty shadow of a `buckets × tau` cache.
    ///
    /// # Panics
    ///
    /// When `buckets` is not a power of two of at least 64: below that a
    /// sampled bucket also holds unsampled voxels, and the replay would not
    /// be exact.
    pub fn new(buckets: usize, tau: usize) -> Self {
        assert!(
            buckets.is_power_of_two() && buckets >= 64,
            "a shadow needs a power-of-two w of at least 64, got {buckets}"
        );
        Shadow {
            point: ShadowPoint {
                buckets,
                tau,
                counts: CacheCounts::default(),
            },
            mask: buckets as u64 - 1,
            sets: vec![Vec::new(); buckets / 64],
            over: Vec::new(),
            taken: Vec::new(),
        }
    }

    /// The counts so far.
    pub fn point(&self) -> ShadowPoint {
        self.point
    }

    /// Replays the sampled `CacheHit`/`CacheMiss` events of `events` in
    /// order, trimming before each access whose scan differs from the one
    /// before it and once after the last, and hands `emit` what this cache
    /// would record: `(kind, key, bucket)` per access and per trimmed key,
    /// a trim's keys in Morton order. Recorded `CacheEvict`s are ignored.
    pub fn replay(&mut self, events: &[Event], mut emit: impl FnMut(EventKind, u64, u32)) {
        let mut scan = None;
        let accesses =
            (events.iter()).filter(|e| sampled_cache_event(e) && e.kind != EventKind::CacheEvict);
        for e in accesses {
            if scan.is_some_and(|s| s != e.scan) {
                self.trim(&mut emit);
            }
            scan = Some(e.scan);
            emit(self.access(e.key), e.key, self.bucket(e.key));
        }
        self.trim(&mut emit);
    }

    /// Empties the shadow, handing `emit` every resident key in Morton
    /// order, as the final drain of a run does.
    pub fn drain(&mut self, mut emit: impl FnMut(EventKind, u64, u32)) {
        self.over.clear();
        for set in &mut self.sets {
            self.taken.append(set);
        }
        self.emit_taken(&mut emit);
    }

    fn bucket(&self, code: u64) -> u32 {
        (code & self.mask) as u32
    }

    fn access(&mut self, code: u64) -> EventKind {
        let at = self.bucket(code) as usize >> 6;
        let set = &mut self.sets[at];
        let kind = if set.contains(&code) {
            EventKind::CacheHit
        } else {
            set.push(code);
            if set.len() == self.point.tau + 1 {
                self.over.push(at);
            }
            EventKind::CacheMiss
        };
        self.point.counts.count(kind);
        kind
    }

    fn trim(&mut self, emit: &mut impl FnMut(EventKind, u64, u32)) {
        for at in self.over.drain(..) {
            let set = &mut self.sets[at];
            let excess = set.len() - self.point.tau;
            self.taken.extend(set.drain(..excess));
        }
        self.point.counts.evictions += self.taken.len() as u64;
        self.emit_taken(emit);
    }

    fn emit_taken(&mut self, emit: &mut impl FnMut(EventKind, u64, u32)) {
        self.taken.sort_unstable();
        for &code in &self.taken {
            emit(EventKind::CacheEvict, code, self.bucket(code));
        }
        self.taken.clear();
    }
}

/// The folded analytics of one event stream.
#[derive(Debug, Default)]
pub struct EventAnalytics {
    /// The sampled cache events, counted (evictions include the final
    /// drain).
    pub cache: CacheCounts,
    /// The sampled accesses replayed through a [`Shadow`] at each of
    /// [`SHADOW_BUCKETS`] (τ′ = [`SHADOW_TAU`]), smallest first.
    pub shadows: Vec<ShadowPoint>,
    /// Scans between a cell's insertion and its eviction.
    pub residency_scans: Histogram,
    /// Hits a cell absorbed while resident (sampled at eviction).
    pub hits_at_eviction: Histogram,
    /// Cells still resident when the stream ended (inserted, never
    /// evicted).
    pub still_resident: u64,
    /// `CacheEvict`s whose `CacheMiss` the stream does not hold: zero on
    /// any stream a backend records (older files, cut to a prefix, may
    /// have some); residency and hits are not sampled for them.
    pub orphan_evictions: u64,
    /// Tree depth inferred from the largest Morton code in the stream
    /// (levels needed to contain the observed key space).
    pub inferred_depth: u8,
    /// Counts per top-level octant, indexed by the 3-bit octant.
    pub octants: [CacheCounts; 8],
    /// Heatmap of the sampled buckets, `(bucket, counts)` by descending
    /// access count.
    pub buckets: Vec<(u32, CacheCounts)>,
    /// Per-lane timelines, sorted by lane id.
    pub workers: Vec<WorkerTimeline>,
    /// Scans the producer lane (0) spans: its largest scan stamp + 1.
    /// Worker lanes stamp batch indices, to which a run's final flush adds
    /// batches of no scan.
    pub scans: u64,
}

impl EventAnalytics {
    /// Folds a raw event stream into analytics. Cache events off the
    /// sampling lattice are skipped (a file recorded before the stream was
    /// sampled holds them). Events are processed in stream order for cache
    /// semantics (the cache is accessed by one thread, so stream order is
    /// access order) and per-lane order for span matching.
    pub fn from_events(events: &[Event]) -> Self {
        let mut a = EventAnalytics::default();
        if events.is_empty() {
            return a;
        }

        a.scans = (events.iter().filter(|e| e.worker == 0))
            .map(|e| e.scan + 1)
            .max()
            .unwrap_or(0);
        a.inferred_depth = infer_depth(events);
        let octant_shift = 3 * (a.inferred_depth.saturating_sub(1)) as u32;

        // -- Cache-side passes (shadows, residency, octants, buckets) --
        a.shadows = SHADOW_BUCKETS
            .iter()
            .map(|&w| {
                let mut shadow = Shadow::new(w, SHADOW_TAU);
                shadow.replay(events, |_, _, _| {});
                shadow.point()
            })
            .collect();
        let mut residents = Residents::default();
        let mut buckets: HashMap<u32, CacheCounts> = HashMap::new();
        for e in events.iter().filter(|e| sampled_cache_event(e)) {
            a.cache.count(e.kind);
            a.octants[((e.key >> octant_shift) & 7) as usize].count(e.kind);
            buckets.entry(e.bucket).or_default().count(e.kind);
            match residents.follow(e) {
                Some(stay) => {
                    a.residency_scans.record(stay.scans);
                    a.hits_at_eviction.record(stay.hits);
                }
                None if e.kind == EventKind::CacheEvict => a.orphan_evictions += 1,
                None => {}
            }
        }
        a.still_resident = residents.len() as u64;

        a.buckets = buckets.into_iter().collect();
        a.buckets
            .sort_by(|(xb, x), (yb, y)| y.accesses.cmp(&x.accesses).then(xb.cmp(yb)));

        // -- Per-lane timelines --
        let mut lanes: HashMap<u32, WorkerTimeline> = HashMap::new();
        let mut open: HashMap<u32, (u64, u64)> = HashMap::new(); // lane -> (begin_ns, scan)
        for e in events {
            let lane = lanes.entry(e.worker).or_insert_with(|| WorkerTimeline {
                worker: e.worker,
                ..Default::default()
            });
            match e.kind {
                EventKind::QueueEnqueue => {
                    lane.enqueues += 1;
                    lane.max_queue_depth = lane.max_queue_depth.max(e.value);
                }
                EventKind::QueueDequeue => {
                    lane.dequeues += 1;
                    lane.max_queue_depth = lane.max_queue_depth.max(e.value);
                }
                EventKind::QueueStall => {
                    lane.stalls += 1;
                    lane.stall_ns += e.value;
                }
                EventKind::BatchBegin if open.insert(e.worker, (e.t_ns, e.scan)).is_some() => {
                    lane.unmatched_begins += 1;
                }
                EventKind::BatchBegin => {}
                EventKind::BatchEnd => {
                    if let Some((begin_ns, scan)) = open.remove(&e.worker) {
                        lane.spans.push(BatchSpan {
                            begin_ns,
                            end_ns: e.t_ns.max(begin_ns),
                            scan,
                            cells: e.value,
                        });
                    }
                }
                _ => {}
            }
        }
        for (worker, _) in open {
            if let Some(lane) = lanes.get_mut(&worker) {
                lane.unmatched_begins += 1;
            }
        }
        a.workers = lanes.into_values().collect();
        a.workers.sort_by_key(|w| w.worker);
        for w in &mut a.workers {
            w.spans.sort_by_key(|s| s.begin_ns);
        }
        a
    }

    /// Renders the analytics as the human tables `octocache analyze`
    /// prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "event analytics (cache events of the voxels on the 4×4×4 lattice, 1 in 64)"
        );
        let _ = writeln!(
            out,
            "  scans {}  accesses {}  hits {}  misses {}  evictions {}  hit-ratio {:.4}",
            self.scans,
            self.cache.accesses,
            self.cache.hits,
            self.cache.accesses - self.cache.hits,
            self.cache.evictions,
            self.cache.hit_ratio()
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "shadow caches (the sampled sets replayed exactly at τ′ = {SHADOW_TAU}; evictions before the final drain)"
        );
        let _ = writeln!(
            out,
            "  {:>10} {:>12} {:>12} {:>12} {:>9}",
            "buckets", "accesses", "hits", "evictions", "hit-ratio"
        );
        for p in &self.shadows {
            let c = p.counts;
            let _ = writeln!(
                out,
                "  {:>10} {:>12} {:>12} {:>12} {:>9.4}",
                p.buckets,
                c.accesses,
                c.hits,
                c.evictions,
                c.hit_ratio()
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "cache residency (scans resident before eviction; {} never evicted)",
            self.still_resident
        );
        if self.orphan_evictions > 0 {
            let _ = writeln!(
                out,
                "  {} evictions without their insertion in the stream (not sampled)",
                self.orphan_evictions
            );
        }
        if self.residency_scans.is_empty() {
            let _ = writeln!(out, "  (no evictions)");
        } else {
            let _ = writeln!(
                out,
                "  scans resident : p50 {:>6}  p90 {:>6}  p99 {:>6}  max {:>6}",
                self.residency_scans.p50(),
                self.residency_scans.p90(),
                self.residency_scans.p99(),
                self.residency_scans.max()
            );
            let _ = writeln!(
                out,
                "  hits@eviction  : p50 {:>6}  p90 {:>6}  p99 {:>6}  max {:>6}  mean {:.2}",
                self.hits_at_eviction.p50(),
                self.hits_at_eviction.p90(),
                self.hits_at_eviction.p99(),
                self.hits_at_eviction.max(),
                self.hits_at_eviction.mean()
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "per-octant hit ratio (top level of observed key space, depth {})",
            self.inferred_depth
        );
        let _ = writeln!(
            out,
            "  {:>6} {:>12} {:>12} {:>12} {:>9}",
            "octant", "accesses", "hits", "evictions", "hit-ratio"
        );
        for (i, o) in self.octants.iter().enumerate() {
            if o.accesses == 0 && o.evictions == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:>6} {:>12} {:>12} {:>12} {:>9.4}",
                i,
                o.accesses,
                o.hits,
                o.evictions,
                o.hit_ratio()
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "bucket heatmap (sampled buckets, b ≡ 0 mod 64: {} touched; top {} by accesses)",
            self.buckets.len(),
            self.buckets.len().min(10)
        );
        let _ = writeln!(
            out,
            "  {:>8} {:>12} {:>12} {:>12}",
            "bucket", "accesses", "hits", "evictions"
        );
        for (bucket, b) in self.buckets.iter().take(10) {
            let _ = writeln!(
                out,
                "  {:>8} {:>12} {:>12} {:>12}",
                bucket, b.accesses, b.hits, b.evictions
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "worker timelines");
        let _ = writeln!(
            out,
            "  {:>5} {:>8} {:>12} {:>10} {:>10} {:>8} {:>12} {:>10}",
            "lane", "spans", "busy-ms", "enqueues", "dequeues", "stalls", "stall-ms", "max-depth"
        );
        for w in &self.workers {
            let _ = writeln!(
                out,
                "  {:>5} {:>8} {:>12.3} {:>10} {:>10} {:>8} {:>12.3} {:>10}",
                w.worker,
                w.spans.len(),
                w.busy_ns() as f64 / 1e6,
                w.enqueues,
                w.dequeues,
                w.stalls,
                w.stall_ns as f64 / 1e6,
                w.max_queue_depth
            );
        }
        out
    }
}

/// Depth (levels) needed to contain every Morton code in the stream.
fn infer_depth(events: &[Event]) -> u8 {
    let max_key = (events.iter().filter(|e| sampled_cache_event(e)))
        .map(|e| e.key)
        .max()
        .unwrap_or(0);
    if max_key == 0 {
        return 1;
    }
    let bits = 64 - max_key.leading_zeros();
    (bits.div_ceil(3) as u8).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_event(kind: EventKind, key: u64, bucket: u32, scan: u64) -> Event {
        Event {
            t_ns: 0,
            scan,
            worker: 0,
            kind,
            key,
            bucket,
            value: 0,
        }
    }

    /// A cache event on the sampled lattice: `n` is the Morton code's
    /// high part above its 6 zero bits.
    fn sampled(kind: EventKind, n: u64, scan: u64) -> Event {
        cache_event(kind, n << 6, (n << 6) as u32, scan)
    }

    #[test]
    fn a_shadow_trims_each_set_oldest_first_at_scan_boundaries() {
        // w′ = 128: two sampled sets, codes with bit 6 clear (set 0) and
        // set (set 1). τ′ = 2.
        let access = |n: u64, scan| sampled(EventKind::CacheMiss, n, scan);
        let events = vec![
            access(0, 0),
            access(2, 0),
            access(4, 0), // set 0 holds 0 2 4: one over τ′
            access(1, 0),
            access(0, 0), // a hit within the scan, before any trim
            access(4, 1), // the trim took 0, 4 is still resident
            access(0, 1), // re-inserted: a miss
            access(3, 1),
        ];
        let mut shadow = Shadow::new(128, 2);
        let mut seen = Vec::new();
        shadow.replay(&events, |kind, key, bucket| {
            seen.push((kind, key >> 6, bucket))
        });
        shadow.drain(|kind, key, bucket| seen.push((kind, key >> 6, bucket)));
        use EventKind::{CacheEvict as E, CacheHit as H, CacheMiss as M};
        let expect = [
            (M, 0, 0),
            (M, 2, 0),
            (M, 4, 0),
            (M, 1, 64),
            (H, 0, 0),
            (E, 0, 0), // scan 1 begins: set 0 trimmed to its newest two
            (H, 4, 0),
            (M, 0, 0),
            (M, 3, 64),
            (E, 2, 0), // the end of the stream trims set 0 again
            (E, 0, 0), // the drain, in Morton order
            (E, 1, 64),
            (E, 3, 64),
            (E, 4, 0),
        ];
        assert_eq!(seen, expect);
        let counts = shadow.point().counts;
        assert_eq!((counts.accesses, counts.hits, counts.evictions), (8, 2, 2));
        assert_eq!(counts.hit_ratio(), 0.25);
    }

    #[test]
    #[should_panic(expected = "at least 64")]
    fn a_shadow_below_64_buckets_is_refused() {
        Shadow::new(32, 4);
    }

    #[test]
    fn analytics_skip_cache_events_off_the_lattice_and_replay_every_size() {
        let mut events = vec![
            sampled(EventKind::CacheMiss, 1, 0),
            sampled(EventKind::CacheHit, 1, 0),
        ];
        // What a file recorded before sampling also holds.
        events.push(cache_event(EventKind::CacheMiss, 65, 1, 0));
        events.push(cache_event(EventKind::CacheEvict, 65, 1, 1));
        let a = EventAnalytics::from_events(&events);
        assert_eq!(
            (a.cache.accesses, a.cache.hits, a.cache.evictions),
            (2, 1, 0)
        );
        let sizes: Vec<usize> = a.shadows.iter().map(|p| p.buckets).collect();
        assert_eq!(sizes, SHADOW_BUCKETS);
        for p in &a.shadows {
            assert_eq!((p.tau, p.counts), (SHADOW_TAU, a.cache));
        }
    }

    #[test]
    fn residency_spans_insert_to_evict() {
        let mut events = vec![sampled(EventKind::CacheMiss, 9, 2)];
        events.extend((0..4).map(|_| sampled(EventKind::CacheHit, 9, 4)));
        events.push(sampled(EventKind::CacheEvict, 9, 7));
        // Re-inserted: its hits start again from zero.
        events.push(sampled(EventKind::CacheMiss, 9, 8));
        events.push(sampled(EventKind::CacheEvict, 9, 8));
        // Never inserted as far as the stream knows.
        events.push(sampled(EventKind::CacheEvict, 5, 8));
        let a = EventAnalytics::from_events(&events);
        assert_eq!(a.cache.evictions, 3);
        assert_eq!(a.orphan_evictions, 1);
        assert_eq!(a.residency_scans.count(), 2);
        assert_eq!(a.residency_scans.max(), 5);
        assert_eq!(a.residency_scans.quantile(0.0), 0);
        assert_eq!(a.hits_at_eviction.max(), 4);
        assert_eq!(a.hits_at_eviction.quantile(0.0), 0);
        assert_eq!(a.still_resident, 0);
        assert!(a.render().contains("1 evictions without their insertion"));
    }

    #[test]
    fn octant_split_uses_top_morton_bits() {
        // Depth-4 key space: codes below 2¹². Octant = bits 9..12.
        let events = vec![
            sampled(EventKind::CacheMiss, 0b001, 0),     // octant 0
            sampled(EventKind::CacheHit, 0b001, 0),      // octant 0
            sampled(EventKind::CacheMiss, 0b101_000, 0), // octant 5
        ];
        let a = EventAnalytics::from_events(&events);
        assert_eq!(a.inferred_depth, 4);
        assert_eq!(a.octants[0].accesses, 2);
        assert_eq!(a.octants[0].hits, 1);
        assert_eq!(a.octants[5].accesses, 1);
        assert_eq!(a.octants[5].hits, 0);
    }

    #[test]
    fn spans_pair_per_lane() {
        let mk = |t_ns, worker, kind, value| Event {
            t_ns,
            scan: 1,
            worker,
            kind,
            key: 0,
            bucket: 0,
            value,
        };
        let events = vec![
            mk(10, 1, EventKind::BatchBegin, 0),
            mk(15, 2, EventKind::BatchBegin, 0),
            mk(30, 1, EventKind::BatchEnd, 100),
            mk(40, 2, EventKind::BatchEnd, 50),
            mk(50, 2, EventKind::BatchBegin, 0), // never ends
            mk(60, 1, EventKind::QueueStall, 500),
            mk(5, 0, EventKind::QueueEnqueue, 3),
        ];
        let a = EventAnalytics::from_events(&events);
        assert_eq!(a.workers.len(), 3);
        let w1 = &a.workers[1];
        assert_eq!(w1.worker, 1);
        assert_eq!(w1.spans.len(), 1);
        assert_eq!(w1.spans[0].duration_ns(), 20);
        assert_eq!(w1.stalls, 1);
        assert_eq!(w1.stall_ns, 500);
        let w2 = &a.workers[2];
        assert_eq!(w2.spans.len(), 1);
        assert_eq!(w2.unmatched_begins, 1);
        assert_eq!(a.workers[0].enqueues, 1);
        assert_eq!(a.workers[0].max_queue_depth, 3);
    }

    #[test]
    fn bucket_heatmap_sorted_by_accesses() {
        let events = vec![
            cache_event(EventKind::CacheMiss, 64, 7, 0),
            cache_event(EventKind::CacheMiss, 128, 3, 0),
            cache_event(EventKind::CacheHit, 128, 3, 0),
            cache_event(EventKind::CacheEvict, 128, 3, 1),
        ];
        let a = EventAnalytics::from_events(&events);
        assert_eq!(a.buckets[0].0, 3);
        assert_eq!(a.buckets[0].1.accesses, 2);
        assert_eq!(a.buckets[0].1.evictions, 1);
        assert_eq!(a.buckets[1].0, 7);
    }

    #[test]
    fn render_mentions_all_sections() {
        let events = vec![
            sampled(EventKind::CacheMiss, 1, 0),
            sampled(EventKind::CacheHit, 1, 1),
        ];
        let text = EventAnalytics::from_events(&events).render();
        assert!(text.contains("shadow caches"));
        assert!(text.contains("cache residency"));
        assert!(text.contains("per-octant hit ratio"));
        assert!(text.contains("bucket heatmap"));
        assert!(text.contains("worker timelines"));
    }

    #[test]
    fn empty_stream_is_benign() {
        let a = EventAnalytics::from_events(&[]);
        assert_eq!(a.cache, CacheCounts::default());
        assert_eq!(a.cache.hit_ratio(), 0.0);
        assert!(!a.render().is_empty());
    }
}
