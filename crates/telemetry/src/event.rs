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
//! Cache events are a **spatial sample**: an executor records a
//! `CacheHit`, `CacheMiss` or `CacheEvict` only for a voxel on the 4×4×4
//! lattice, `(x | y | z) & 3 == 0` — a Morton code whose low 6 bits are
//! zero ([`is_sampled`]). Bucket `b` is `code & (w − 1)`, so at any
//! `w ≥ 64` those voxels fill exactly the buckets `b ≡ 0 (mod 64)`, and
//! every voxel of those buckets is sampled: the stream holds whole cache
//! sets, complete over the run, at about 1/64 of one event per access.
//! That is what lets [`crate::Shadow`] replay it exactly. Queue and span
//! events are not sampled. Nothing is capped and nothing is dropped.
//! Emitting an event is a `Vec` push — no locks, no I/O; the mutex is only
//! taken when a buffer drains (once per scan or batch).
//!
//! The analytics pass over a recorded stream lives in
//! [`crate::EventAnalytics`]; the Chrome Trace Event export in
//! [`crate::chrome_trace_json`].

use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Whether the cache event of the voxel whose Morton code is `code` is
/// recorded: the voxel lies on the 4×4×4 lattice, which is the code's low
/// 6 bits being zero (`(x | y | z) & 3 == 0` on the key).
#[inline]
pub fn is_sampled(code: u64) -> bool {
    code & 63 == 0
}

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

/// The merged event stream of one run.
#[derive(Debug, Default)]
pub struct EventLog {
    /// Events in drain order (per-thread order preserved within a drain;
    /// sort by [`Event::t_ns`] for a global timeline).
    pub events: Vec<Event>,
    /// Events lost: always 0, since nothing caps the stream. Kept so
    /// readers of the field keep building.
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
    events: Mutex<Vec<Event>>,
}

impl EventSink {
    /// An empty sink whose epoch is now.
    pub fn new() -> Arc<Self> {
        Arc::new(EventSink {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        })
    }

    /// Creates the per-thread buffer for `worker` lane (0 = producer).
    pub fn buffer(self: &Arc<Self>, worker: u32) -> EventBuffer {
        EventBuffer {
            sink: Arc::clone(self),
            worker,
            scan: 0,
            events: Vec::new(),
        }
    }

    /// Takes the collected log, leaving the sink empty. Call after the
    /// backend has finished (all buffers drained).
    pub fn take(&self) -> EventLog {
        let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        EventLog {
            events: std::mem::take(&mut *events),
            dropped: 0,
        }
    }
}

/// A per-thread event buffer: lock-free emission, periodic drain into the
/// owning [`EventSink`].
///
/// Dropping the buffer drains it, so no events are lost when a worker
/// thread exits.
#[derive(Debug)]
pub struct EventBuffer {
    sink: Arc<EventSink>,
    worker: u32,
    scan: u64,
    events: Vec<Event>,
}

impl EventBuffer {
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
        self.events.push(event);
    }

    /// Emits a run of cache events — `(kind, Morton key, bucket)` each — in
    /// order, under one clock reading: the analytics over cache events are
    /// order- and scan-based, and a clock read per event would cost more
    /// than the push.
    pub fn emit_cache_run(&mut self, run: impl IntoIterator<Item = (EventKind, u64, u32)>) {
        let (t_ns, scan, worker) = (self.now_ns(), self.scan, self.worker);
        self.events
            .extend(run.into_iter().map(|(kind, key, bucket)| Event {
                t_ns,
                scan,
                worker,
                kind,
                key,
                bucket,
                value: 0,
            }));
    }

    /// Drains buffered events into the sink (called at scan/batch
    /// boundaries so the emission path itself never locks). The buffer
    /// keeps its allocation for the next scan.
    pub fn drain(&mut self) {
        if !self.events.is_empty() {
            let mut sink = self.sink.events.lock().unwrap_or_else(|e| e.into_inner());
            sink.append(&mut self.events);
        }
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
        b.emit_cache_run([(EventKind::CacheHit, 7, 2)]);
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
