//! Sub-scan event tracing: the layer *beneath* [`crate::ScanRecord`].
//!
//! A [`ScanRecord`](crate::ScanRecord) tells you *that* a scan hit the cache
//! 90% of the time; an [`Event`] stream tells you *which* voxels, buckets,
//! octants, and workers produced that ratio. Backends that are built with
//! `CacheConfig::events(true)` record one [`Event`] per cache access,
//! eviction, queue operation, and worker batch span into per-thread
//! [`EventBuffer`]s that drain into a shared [`EventSink`] at scan/batch
//! boundaries. The cache itself records nothing: an executor derives its
//! cache events from the batch it offers and the cells it gets back.
//!
//! Recording is **bounded, and truncates to a prefix**: both the per-thread
//! buffers and the shared sink have capacity caps; the first event a lane
//! cannot keep stops that lane, and every event after it is *counted*
//! (never silently discarded) in [`EventLog::dropped`]. Emitting an event
//! is a `Vec` push — no locks, no I/O; the mutex is only taken when a
//! buffer drains (once per scan or batch).
//!
//! The analytics pass over a recorded stream lives in
//! [`crate::EventAnalytics`]; the Chrome Trace Event export in
//! [`crate::chrome_trace_json`].

use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Default cap on events held by one [`EventSink`] (~4M events, 192 MiB at
/// 48 B an event): a bound on memory, not a size a run fits in. The
/// benchmark's recorded passes exceed it and drop 0.61 (`corridor_hot`) to
/// 0.77 (`mission_cycle`) of their events; overflow is drop-counted, never
/// silent.
pub(crate) const DEFAULT_SINK_CAPACITY: usize = 1 << 22;

/// Default cap on events buffered by one [`EventBuffer`] between drains
/// (one scan or batch worth of events); a scan that records more stops its
/// lane there.
pub(crate) const DEFAULT_BUFFER_CAPACITY: usize = 1 << 20;

/// What one [`Event`] describes.
///
/// A unit-variant enum (the vendored serde derive supports exactly that);
/// per-kind payloads ride in the flat numeric fields of [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A cache access absorbed by an existing cell. `key`/`bucket` identify
    /// the voxel.
    CacheHit,
    /// A cache access that allocated a new cell (octree fall-through).
    CacheMiss,
    /// A cell evicted from the cache. How long it stayed and the hits it
    /// absorbed follow from the stream: they are the events on its key
    /// since its `CacheMiss` ([`crate::Residents`]).
    CacheEvict,
    /// An eviction batch handed to a worker's SPSC ring (one message per
    /// batch). `worker` is the target lane, `value` the queue depth after
    /// the push.
    QueueEnqueue,
    /// A worker dequeued a batch. `value` is the queue depth observed at
    /// the pop.
    QueueDequeue,
    /// A producer or worker stalled waiting on a full/empty queue.
    /// `value` is the time spent waiting, in nanoseconds. No backend emits
    /// it since the hand-off became one message per batch; event files
    /// recorded before that still carry it.
    QueueStall,
    /// A batch span opened (octree-update work started). `value` is the
    /// number of cells the span will apply.
    BatchBegin,
    /// The matching span closed. `value` is the number of cells applied.
    BatchEnd,
}

impl EventKind {
    /// Short stable name (used by the Chrome-trace exporter and tables).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::CacheEvict => "cache_evict",
            EventKind::QueueEnqueue => "enqueue",
            EventKind::QueueDequeue => "dequeue",
            EventKind::QueueStall => "stall",
            EventKind::BatchBegin => "batch_begin",
            EventKind::BatchEnd => "batch_end",
        }
    }
}

/// One sub-scan trace event, flat so every kind shares a schema (the
/// vendored serde derive handles named-field structs only).
///
/// Field meaning varies by [`EventKind`] — unused fields stay zero. All
/// timestamps share one epoch per run (captured when the backend was
/// constructed), so events from different threads interleave correctly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Nanoseconds since the run epoch.
    pub t_ns: u64,
    /// Scan index the event belongs to (producer-side stamp; workers carry
    /// the scan index of the batch they are applying).
    pub scan: u64,
    /// Thread lane: 0 is the producer (and the only lane on serial
    /// backends); octree workers are 1-based.
    pub worker: u32,
    /// Event kind; selects which payload fields are meaningful.
    pub kind: EventKind,
    /// Morton code of the voxel (cache events only).
    pub key: u64,
    /// Cache bucket index (cache events only).
    pub bucket: u32,
    /// Kind-specific payload: queue depth, waited ns or cell count — see
    /// [`EventKind`]. Files recorded before the cache stopped stamping its
    /// events also carry a per-cell `hits` field, which reading ignores.
    pub value: u64,
}

impl Default for Event {
    fn default() -> Self {
        Event {
            t_ns: 0,
            scan: 0,
            worker: 0,
            kind: EventKind::CacheHit,
            key: 0,
            bucket: 0,
            value: 0,
        }
    }
}

/// The merged event stream of one run plus its loss accounting.
#[derive(Debug, Default)]
pub struct EventLog {
    /// Events in drain order (per-thread order preserved within a drain;
    /// sort by [`Event::t_ns`] for a global timeline).
    pub events: Vec<Event>,
    /// Events lost to buffer or sink capacity caps.
    pub dropped: u64,
}

/// Shared, thread-safe collection point for per-thread [`EventBuffer`]s.
///
/// One sink exists per backend run; the backend creates one buffer per
/// thread lane from it. Cloning the `Arc` is how a worker thread gets its
/// handle.
#[derive(Debug)]
pub struct EventSink {
    epoch: Instant,
    capacity: usize,
    log: Mutex<SinkLog>,
}

/// Sink internals: drained buffers are kept as whole segments (a pointer
/// move per drain, never an element copy — the copy that would otherwise
/// dominate recording overhead on event-heavy runs) and flattened once in
/// [`EventSink::take`]. Emptied segments go to a small spare pool so
/// buffers get their warmed allocation back instead of re-faulting fresh
/// pages every drain.
#[derive(Debug, Default)]
struct SinkLog {
    segments: Vec<Vec<Event>>,
    len: usize,
    dropped: u64,
    spare: Vec<Vec<Event>>,
}

/// Cap on recycled segment allocations retained by a sink.
const SPARE_POOL_LIMIT: usize = 16;

impl EventSink {
    /// A sink with the default capacity cap.
    pub fn new() -> Arc<Self> {
        Self::with_capacity(DEFAULT_SINK_CAPACITY)
    }

    /// A sink capped at `capacity` retained events (extra events are
    /// counted in [`EventLog::dropped`]).
    pub fn with_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(EventSink {
            epoch: Instant::now(),
            capacity,
            log: Mutex::new(SinkLog::default()),
        })
    }

    /// Creates the per-thread buffer for `worker` lane (0 = producer).
    pub fn buffer(self: &Arc<Self>, worker: u32) -> EventBuffer {
        EventBuffer {
            sink: Arc::clone(self),
            worker,
            scan: 0,
            capacity: DEFAULT_BUFFER_CAPACITY,
            dropped: 0,
            stopped: false,
            events: Vec::new(),
        }
    }

    /// Moves `events` (and `dropped`) into the shared log, honouring the
    /// sink capacity cap. The filled vector is stored whole (a segment)
    /// and `events` is replaced with a recycled empty allocation. Returns
    /// `true` once the sink is full: the lane stops there, so what it kept
    /// stays a prefix.
    fn absorb(&self, events: &mut Vec<Event>, dropped: u64) -> bool {
        let mut log = self.log.lock().unwrap_or_else(|e| e.into_inner());
        log.dropped += dropped;
        let room = self.capacity.saturating_sub(log.len);
        if events.len() > room {
            log.dropped += (events.len() - room) as u64;
            events.truncate(room);
        }
        if !events.is_empty() {
            log.len += events.len();
            let recycled = log.spare.pop().unwrap_or_default();
            let full = std::mem::replace(events, recycled);
            log.segments.push(full);
        }
        log.len >= self.capacity
    }

    /// Takes the collected log, leaving the sink empty. Call after the
    /// backend has finished (all buffers drained). This is where segments
    /// are flattened into one stream — a single pass outside every hot
    /// loop.
    pub fn take(&self) -> EventLog {
        let mut log = self.log.lock().unwrap_or_else(|e| e.into_inner());
        let mut events = Vec::with_capacity(log.len);
        let segments = std::mem::take(&mut log.segments);
        for mut seg in segments {
            events.append(&mut seg);
            if log.spare.len() < SPARE_POOL_LIMIT {
                log.spare.push(seg);
            }
        }
        log.len = 0;
        EventLog {
            events,
            dropped: std::mem::take(&mut log.dropped),
        }
    }
}

/// A per-thread event buffer: lock-free emission, periodic drain into the
/// owning [`EventSink`].
///
/// Truncation is a prefix: the first event the lane cannot keep — its
/// buffer cap or the sink's is reached — stops it, and every later event is
/// only counted. What a lane kept is therefore exactly the start of what it
/// was asked to record, so state derived from the stream (a cell's
/// insertion scan, its hits) is never missing a middle piece.
///
/// Dropping the buffer drains it, so no events are lost when a worker
/// thread exits.
#[derive(Debug)]
pub struct EventBuffer {
    sink: Arc<EventSink>,
    worker: u32,
    scan: u64,
    capacity: usize,
    dropped: u64,
    stopped: bool,
    events: Vec<Event>,
}

impl EventBuffer {
    /// Overrides the per-drain capacity cap (tests use tiny caps).
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
    }

    /// Another lane's buffer on the same sink (a worker thread's).
    pub fn lane(&self, worker: u32) -> EventBuffer {
        self.sink.buffer(worker)
    }

    /// Stamps the scan index onto subsequently emitted events.
    pub fn set_scan(&mut self, scan: u64) {
        self.scan = scan;
    }

    /// Nanoseconds since the sink's epoch, the one every lane of a run
    /// shares (a run longer than ~584 years would wrap).
    #[inline]
    fn now_ns(&self) -> u64 {
        self.sink.epoch.elapsed().as_nanos() as u64
    }

    /// Appends one event unless the lane has stopped; the first event that
    /// does not fit stops it.
    #[inline]
    fn push(&mut self, event: Event) {
        self.stopped |= self.events.len() >= self.capacity;
        if self.stopped {
            self.dropped += 1;
        } else {
            self.events.push(event);
        }
    }

    /// Emits a queue or span event (no voxel payload) on this lane with an
    /// exact timestamp.
    #[inline]
    pub fn emit_plain(&mut self, kind: EventKind, value: u64) {
        self.emit_for(self.worker, kind, value);
    }

    /// Emits an event attributed to another lane (e.g. the producer
    /// records a `QueueEnqueue` against the target worker's lane so queue
    /// traffic groups by queue, not by emitting thread).
    #[inline]
    pub fn emit_for(&mut self, worker: u32, kind: EventKind, value: u64) {
        let event = Event {
            t_ns: self.now_ns(),
            scan: self.scan,
            worker,
            kind,
            value,
            ..Event::default()
        };
        self.push(event);
    }

    /// Emits a run of cache events — `(kind, Morton key, bucket)` each — in
    /// order, under one clock reading: the analytics over cache events are
    /// order- and scan-based, and a clock read per event would cost more
    /// than the push. A stopped lane counts the run without producing it.
    pub fn emit_cache_run(&mut self, run: impl ExactSizeIterator<Item = (EventKind, u64, u32)>) {
        if self.stopped {
            self.dropped += run.len() as u64;
            return;
        }
        let t_ns = self.now_ns();
        for (kind, key, bucket) in run {
            let event = Event {
                t_ns,
                scan: self.scan,
                worker: self.worker,
                kind,
                key,
                bucket,
                value: 0,
            };
            self.push(event);
        }
    }

    /// Drains buffered events into the sink (called at scan/batch
    /// boundaries so the emission path itself never locks). A drain the
    /// sink cannot hold in full stops the lane, as does a full sink.
    pub fn drain(&mut self) {
        if self.events.is_empty() && self.dropped == 0 {
            return;
        }
        let dropped = std::mem::take(&mut self.dropped);
        self.stopped |= self.sink.absorb(&mut self.events, dropped);
        self.events.clear();
    }

    /// Drains this buffer and takes the sink's whole log — every lane's
    /// drained events (see [`EventSink::take`]).
    pub fn take_log(&mut self) -> EventLog {
        self.drain();
        self.sink.take()
    }
}

impl Drop for EventBuffer {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Writes an event stream as JSON Lines (one [`Event`] per line).
///
/// # Errors
///
/// Returns the first I/O error from the writer.
pub fn write_events_jsonl<W: Write>(out: &mut W, events: &[Event]) -> std::io::Result<()> {
    for e in events {
        writeln!(out, "{}", serde::json::to_string(e))?;
    }
    Ok(())
}

/// Reads an event stream produced by [`write_events_jsonl`]. Blank lines
/// are skipped; malformed lines are reported with their line number.
///
/// # Errors
///
/// Returns an I/O error on read failure or `InvalidData` naming the first
/// malformed line.
pub(crate) fn read_events_jsonl<R: BufRead>(input: R) -> std::io::Result<Vec<Event>> {
    let mut events = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let event: Event = serde::json::from_str(&line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {}: {e}", idx + 1),
            )
        })?;
        events.push(event);
    }
    Ok(events)
}

/// Reads an event stream from a file path: one JSON event per line, blank
/// lines skipped.
///
/// # Errors
///
/// Propagates open/read errors and malformed-line errors.
pub fn read_events_jsonl_path(path: impl AsRef<Path>) -> std::io::Result<Vec<Event>> {
    let file = std::fs::File::open(path)?;
    read_events_jsonl(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_serde_round_trip() {
        let e = Event {
            t_ns: 123_456,
            scan: 9,
            worker: 3,
            kind: EventKind::CacheEvict,
            key: 0xABCDEF,
            bucket: 17,
            value: 5,
        };
        let json = serde::json::to_string(&e);
        let back: Event = serde::json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn buffer_drains_into_sink_in_order() {
        let sink = EventSink::new();
        let mut b = sink.buffer(1);
        b.set_scan(4);
        b.emit_cache_run([(EventKind::CacheHit, 7, 2)].into_iter());
        b.emit_plain(EventKind::QueueStall, 99);
        b.drain();
        let log = sink.take();
        assert_eq!(log.dropped, 0);
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].kind, EventKind::CacheHit);
        assert_eq!(log.events[0].scan, 4);
        assert_eq!(log.events[0].worker, 1);
        assert_eq!(log.events[1].kind, EventKind::QueueStall);
        assert_eq!(log.events[1].value, 99);
        assert!(log.events[1].t_ns >= log.events[0].t_ns);
    }

    #[test]
    fn buffer_cap_counts_drops() {
        let sink = EventSink::new();
        let mut b = sink.buffer(0);
        b.set_capacity(2);
        for i in 0..5 {
            b.emit_plain(EventKind::QueueEnqueue, i);
        }
        b.drain();
        // The lane stopped at its first drop: a later drain with room keeps
        // nothing, so what was kept stays a prefix.
        b.emit_plain(EventKind::QueueEnqueue, 5);
        let log = b.take_log();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[1].value, 1);
        assert_eq!(log.dropped, 4);
    }

    #[test]
    fn sink_cap_counts_drops() {
        let sink = EventSink::with_capacity(3);
        let mut b = sink.buffer(0);
        let mut other = b.lane(1);
        for i in 0..5 {
            b.emit_plain(EventKind::QueueDequeue, i);
        }
        b.drain();
        // A full sink stops every lane, even one that had not drained yet.
        other.emit_plain(EventKind::BatchBegin, 0);
        other.drain();
        other.emit_plain(EventKind::BatchEnd, 0);
        let log = other.take_log();
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.dropped, 4);
        // Retained events are the earliest ones.
        assert_eq!(log.events[0].value, 0);
        assert_eq!(log.events[2].value, 2);
        assert!(log.events.iter().all(|e| e.worker == 0));
    }

    #[test]
    fn dropping_buffer_drains_it() {
        let sink = EventSink::new();
        {
            let mut b = sink.buffer(2);
            b.emit_plain(EventKind::BatchBegin, 10);
        }
        assert_eq!(sink.take().events.len(), 1);
    }

    #[test]
    fn events_jsonl_round_trip() {
        let mut events = Vec::new();
        for i in 0..4u64 {
            events.push(Event {
                t_ns: i * 10,
                scan: i,
                worker: (i % 2) as u32,
                kind: if i % 2 == 0 {
                    EventKind::CacheHit
                } else {
                    EventKind::QueueEnqueue
                },
                key: i * 3,
                bucket: i as u32,
                value: i,
            });
        }
        let mut buf = Vec::new();
        write_events_jsonl(&mut buf, &events).unwrap();
        let back = read_events_jsonl(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn read_events_reports_malformed_line() {
        let text = "{\"t_ns\":0,\"scan\":0,\"worker\":0,\"kind\":\"CacheHit\",\"key\":0,\"bucket\":0,\"hits\":0,\"value\":0}\nnot-json\n";
        let err = read_events_jsonl(std::io::Cursor::new(text)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"));
        // Line 1 is an older file's event, `hits` field and all: it parses.
        let old = read_events_jsonl(std::io::Cursor::new(text.lines().next().unwrap())).unwrap();
        assert_eq!(old, vec![Event::default()]);
    }
}
