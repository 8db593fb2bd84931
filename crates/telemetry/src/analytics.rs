//! Analytics over a recorded [`Event`](crate::Event) stream.
//!
//! [`EventAnalytics::from_events`] folds a raw sub-scan event stream into
//! the locality evidence the paper argues from (§3–§4):
//!
//! * **Reuse-distance histogram** — for each cache access, the number of
//!   *distinct* voxels touched since the previous access to the same voxel
//!   (exact, computed with a Fenwick tree in `O(n log n)`); first-touch
//!   accesses are counted separately as *cold*. Small distances are what
//!   make a τ-cell bucket cache effective.
//! * **Cache residency** — for each evicted cell, the number of scans
//!   between its insertion and its eviction, plus the hits it absorbed
//!   while resident (the paper's duplication argument, measured). Both
//!   follow from the stream alone ([`Residents`]).
//! * **Per-octant hit ratios** — accesses bucketed by top-level octant of
//!   the *observed* key space (depth inferred from the largest Morton code
//!   in the stream), showing which spatial regions drive the hit ratio.
//! * **Bucket heatmap** — per-bucket access/hit/eviction counts, i.e. the
//!   occupancy/conflict picture of the `w × τ` cache itself.
//! * **Worker timelines** — batch spans, queue traffic and stall time per
//!   thread lane (also the input to [`crate::chrome_trace_json`]).

use std::collections::HashMap;

use crate::event::{Event, EventKind};
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

/// Access/hit/eviction counts of one top-level octant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OctantStats {
    /// Cache accesses whose key falls in this octant.
    pub accesses: u64,
    /// Accesses absorbed by a resident cell.
    pub hits: u64,
    /// Cells evicted out of this octant.
    pub evictions: u64,
}

impl OctantStats {
    /// Hit ratio of this octant (0 when it saw no accesses).
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Per-bucket counters for the occupancy/conflict heatmap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BucketStats {
    /// Bucket index in the cache.
    pub bucket: u32,
    /// Cache accesses that indexed this bucket.
    pub accesses: u64,
    /// Accesses absorbed by a cell already in this bucket.
    pub hits: u64,
    /// τ-evictions this bucket triggered.
    pub evictions: u64,
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

/// Fenwick (binary indexed) tree over access positions; `O(log n)` prefix
/// sums give exact reuse distances.
#[derive(Debug)]
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, mut i: usize, delta: i64) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta) as u64;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i`.
    fn prefix(&self, mut i: usize) -> u64 {
        i += 1;
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// The folded analytics of one event stream.
#[derive(Debug, Default)]
pub struct EventAnalytics {
    /// Total cache accesses (`CacheHit` + `CacheMiss`).
    pub accesses: u64,
    /// Accesses absorbed by the cache.
    pub hits: u64,
    /// Accesses that allocated a new cell.
    pub misses: u64,
    /// Cells evicted to the octree.
    pub evictions: u64,
    /// First-touch accesses (infinite reuse distance, excluded from the
    /// reuse histogram).
    pub cold_accesses: u64,
    /// Exact reuse distances (distinct voxels between successive accesses
    /// to the same voxel).
    pub reuse: Histogram,
    /// Scans between a cell's insertion and its eviction.
    pub residency_scans: Histogram,
    /// Hits a cell absorbed while resident (sampled at eviction).
    pub hits_at_eviction: Histogram,
    /// Cells still resident when the stream ended (inserted, never
    /// evicted).
    pub still_resident: u64,
    /// `CacheEvict`s whose `CacheMiss` the stream does not hold: zero on
    /// any stream a backend records, complete or truncated (truncation
    /// keeps a prefix); residency and hits are not sampled for them.
    pub orphan_evictions: u64,
    /// Tree depth inferred from the largest Morton code in the stream
    /// (levels needed to contain the observed key space).
    pub inferred_depth: u8,
    /// Top-level octant statistics, indexed by the 3-bit octant.
    pub octants: [OctantStats; 8],
    /// Bucket heatmap, sorted by descending access count.
    pub buckets: Vec<BucketStats>,
    /// Per-lane timelines, sorted by lane id.
    pub workers: Vec<WorkerTimeline>,
    /// Total scans spanned by the stream (max scan index + 1).
    pub scans: u64,
}

impl EventAnalytics {
    /// Folds a raw event stream into analytics. Events are processed in
    /// stream order for cache semantics (the cache is accessed by one
    /// thread, so stream order is access order) and per-lane order for
    /// span matching.
    pub fn from_events(events: &[Event]) -> Self {
        let mut a = EventAnalytics::default();
        if events.is_empty() {
            return a;
        }

        a.scans = events.iter().map(|e| e.scan).max().unwrap_or(0) + 1;
        a.inferred_depth = infer_depth(events);
        let octant_shift = 3 * (a.inferred_depth.saturating_sub(1)) as u32;

        // -- Cache-side passes (reuse, residency, octants, buckets) --
        let cache_accesses = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CacheHit | EventKind::CacheMiss))
            .count();
        let mut fenwick = Fenwick::new(cache_accesses);
        let mut last_pos: HashMap<u64, usize> = HashMap::new();
        let mut residents = Residents::default();
        let mut buckets: HashMap<u32, BucketStats> = HashMap::new();
        let mut pos = 0usize;

        for e in events {
            match e.kind {
                EventKind::CacheHit | EventKind::CacheMiss => {
                    a.accesses += 1;
                    let hit = e.kind == EventKind::CacheHit;
                    residents.follow(e);
                    if hit {
                        a.hits += 1;
                    } else {
                        a.misses += 1;
                    }
                    let oct = ((e.key >> octant_shift) & 7) as usize;
                    a.octants[oct].accesses += 1;
                    if hit {
                        a.octants[oct].hits += 1;
                    }
                    let b = buckets.entry(e.bucket).or_insert(BucketStats {
                        bucket: e.bucket,
                        ..Default::default()
                    });
                    b.accesses += 1;
                    if hit {
                        b.hits += 1;
                    }
                    // Exact reuse distance: distinct keys accessed strictly
                    // between the previous access to this key and now.
                    match last_pos.insert(e.key, pos) {
                        Some(prev) => {
                            let between = if pos == 0 {
                                0
                            } else {
                                fenwick.prefix(pos - 1) - fenwick.prefix(prev)
                            };
                            a.reuse.record(between);
                            fenwick.add(prev, -1);
                        }
                        None => a.cold_accesses += 1,
                    }
                    fenwick.add(pos, 1);
                    pos += 1;
                }
                EventKind::CacheEvict => {
                    a.evictions += 1;
                    let oct = ((e.key >> octant_shift) & 7) as usize;
                    a.octants[oct].evictions += 1;
                    buckets
                        .entry(e.bucket)
                        .or_insert(BucketStats {
                            bucket: e.bucket,
                            ..Default::default()
                        })
                        .evictions += 1;
                    match residents.follow(e) {
                        Some(stay) => {
                            a.residency_scans.record(stay.scans);
                            a.hits_at_eviction.record(stay.hits);
                        }
                        None => a.orphan_evictions += 1,
                    }
                }
                _ => {}
            }
        }
        a.still_resident = residents.len() as u64;

        a.buckets = buckets.into_values().collect();
        a.buckets
            .sort_by(|x, y| y.accesses.cmp(&x.accesses).then(x.bucket.cmp(&y.bucket)));

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

    /// Overall hit ratio of the stream.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Renders the analytics as the human tables `octocache analyze`
    /// prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "event analytics");
        let _ = writeln!(
            out,
            "  scans {}  accesses {}  hits {}  misses {}  evictions {}  hit-ratio {:.4}",
            self.scans,
            self.accesses,
            self.hits,
            self.misses,
            self.evictions,
            self.hit_ratio()
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "reuse distance (distinct voxels between accesses; {} cold first-touches)",
            self.cold_accesses
        );
        if self.reuse.is_empty() {
            let _ = writeln!(out, "  (no repeated accesses)");
        } else {
            let _ = writeln!(
                out,
                "  {:>10} {:>10} {:>10} {:>10} {:>10}",
                "count", "p50", "p90", "p99", "max"
            );
            let _ = writeln!(
                out,
                "  {:>10} {:>10} {:>10} {:>10} {:>10}",
                self.reuse.count(),
                self.reuse.p50(),
                self.reuse.p90(),
                self.reuse.p99(),
                self.reuse.max()
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
            "bucket heatmap ({} buckets touched; top {} by accesses)",
            self.buckets.len(),
            self.buckets.len().min(10)
        );
        let _ = writeln!(
            out,
            "  {:>8} {:>12} {:>12} {:>12}",
            "bucket", "accesses", "hits", "evictions"
        );
        for b in self.buckets.iter().take(10) {
            let _ = writeln!(
                out,
                "  {:>8} {:>12} {:>12} {:>12}",
                b.bucket, b.accesses, b.hits, b.evictions
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
    let max_key = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::CacheHit | EventKind::CacheMiss | EventKind::CacheEvict
            )
        })
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

    #[test]
    fn reuse_distance_is_exact() {
        // Access pattern: A B C A  -> reuse(A) = 2 distinct (B, C).
        //                 then B   -> reuse(B) = 2 distinct (C, A).
        //                 then A   -> reuse(A) = 1 distinct (B).
        let keys = [10u64, 20, 30, 10, 20, 10];
        let events: Vec<Event> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let kind = if keys[..i].contains(&k) {
                    EventKind::CacheHit
                } else {
                    EventKind::CacheMiss
                };
                cache_event(kind, k, 0, 0)
            })
            .collect();
        let a = EventAnalytics::from_events(&events);
        assert_eq!(a.cold_accesses, 3);
        assert_eq!(a.reuse.count(), 3);
        // Log-bucketed: distances 2, 2, 1 -> max bucket holds 2.
        assert_eq!(a.reuse.max(), 2);
        assert_eq!(a.reuse.quantile(0.0), 1);
        assert_eq!(a.accesses, 6);
        assert_eq!(a.hits, 3);
        assert_eq!(a.misses, 3);
    }

    #[test]
    fn immediate_reuse_has_distance_zero() {
        let events = vec![
            cache_event(EventKind::CacheMiss, 5, 0, 0),
            cache_event(EventKind::CacheHit, 5, 0, 0),
        ];
        let a = EventAnalytics::from_events(&events);
        assert_eq!(a.reuse.count(), 1);
        assert_eq!(a.reuse.max(), 0);
    }

    #[test]
    fn residency_spans_insert_to_evict() {
        let mut events = vec![cache_event(EventKind::CacheMiss, 9, 3, 2)];
        events.extend((0..4).map(|_| cache_event(EventKind::CacheHit, 9, 3, 4)));
        events.push(cache_event(EventKind::CacheEvict, 9, 3, 7));
        // Re-inserted: its hits start again from zero.
        events.push(cache_event(EventKind::CacheMiss, 9, 3, 8));
        events.push(cache_event(EventKind::CacheEvict, 9, 3, 8));
        // Never inserted as far as the stream knows.
        events.push(cache_event(EventKind::CacheEvict, 5, 1, 8));
        let a = EventAnalytics::from_events(&events);
        assert_eq!(a.evictions, 3);
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
        // Depth-2 key space: codes 0..64. Octant = bits 3..6.
        let events = vec![
            cache_event(EventKind::CacheMiss, 0b000_001, 0, 0), // octant 0
            cache_event(EventKind::CacheHit, 0b000_001, 0, 0),  // octant 0
            cache_event(EventKind::CacheMiss, 0b101_000, 0, 0), // octant 5
        ];
        let a = EventAnalytics::from_events(&events);
        assert_eq!(a.inferred_depth, 2);
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
            cache_event(EventKind::CacheMiss, 1, 7, 0),
            cache_event(EventKind::CacheMiss, 2, 3, 0),
            cache_event(EventKind::CacheHit, 2, 3, 0),
            cache_event(EventKind::CacheEvict, 2, 3, 1),
        ];
        let a = EventAnalytics::from_events(&events);
        assert_eq!(a.buckets[0].bucket, 3);
        assert_eq!(a.buckets[0].accesses, 2);
        assert_eq!(a.buckets[0].evictions, 1);
        assert_eq!(a.buckets[1].bucket, 7);
    }

    #[test]
    fn render_mentions_all_sections() {
        let events = vec![
            cache_event(EventKind::CacheMiss, 1, 0, 0),
            cache_event(EventKind::CacheHit, 1, 0, 1),
        ];
        let text = EventAnalytics::from_events(&events).render();
        assert!(text.contains("reuse distance"));
        assert!(text.contains("cache residency"));
        assert!(text.contains("per-octant hit ratio"));
        assert!(text.contains("bucket heatmap"));
        assert!(text.contains("worker timelines"));
    }

    #[test]
    fn empty_stream_is_benign() {
        let a = EventAnalytics::from_events(&[]);
        assert_eq!(a.accesses, 0);
        assert_eq!(a.hit_ratio(), 0.0);
        assert!(!a.render().is_empty());
    }
}
