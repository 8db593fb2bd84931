//! # OctoCache telemetry
//!
//! A dependency-free observability layer shared by every mapping backend in
//! the OctoCache reproduction. Four pieces fit together:
//!
//! 1. **Metric primitives** — a log-bucketed latency [`Histogram`]
//!    (p50/p90/p99/max, mergeable across runs, serde-serialisable).
//! 2. **Per-scan trace events** — a [`ScanRecord`] captures one
//!    `insert_scan` call: phase durations ([`PhaseTimes`]), cache
//!    hit/miss/eviction deltas, octree node-visit deltas, SPSC queue depth
//!    sampled at enqueue/dequeue, and octree-mutex wait time. It is the one
//!    per-scan struct: the scan-lifecycle engine owns the next scan's
//!    record, each layer fills its own fields in place, and [`Telemetry`]
//!    hands the finished record to a [`Recorder`] (no-op [`NullRecorder`],
//!    in-memory [`SharedRecorder`], or streaming [`JsonlRecorder`]).
//! 3. **Trace analysis** — [`read_jsonl_prefix_path`] reads a recorded trace
//!    back (every record up to the first damaged line, plus the damage),
//!    and [`TraceSummary`] folds it into per-phase percentile tables and a
//!    cache hit-ratio time series (the `octocache report` subcommand).
//! 4. **Sub-scan events** — an [`Event`] stream beneath the per-scan layer:
//!    cache hit/miss/evict (with bucket and Morton key) of the voxels on
//!    the 4×4×4 lattice ([`is_sampled`], whole cache sets, 1 voxel in 64),
//!    queue traffic, and worker batch spans, collected through per-thread
//!    [`EventBuffer`]s into an [`EventSink`], uncapped. [`EventAnalytics`]
//!    replays the sampled sets through exact keys-only [`Shadow`] caches of
//!    Fig 23's sizes, and computes residency histograms, per-octant hit
//!    ratios, the sampled buckets' heatmap and worker timelines;
//!    [`chrome_trace_json`] exports the stream for `chrome://tracing` (the
//!    `octocache analyze` subcommand).
//!
//! The paper's evaluation (Figures 13/22/23, Table 3) reports exactly these
//! quantities; the field mapping is documented in `DESIGN.md`.
//!
//! ```
//! use octocache_telemetry::{Histogram, PhaseTimes, ScanRecord, Telemetry};
//! use std::time::Duration;
//!
//! let mut t = Telemetry::new("example");
//! t.record(ScanRecord {
//!     times: PhaseTimes { ray_tracing: Duration::from_micros(120), ..Default::default() },
//!     observations: 64,
//!     cache_hits: 48,
//!     ..Default::default()
//! });
//! assert_eq!(t.scans(), 1);
//! assert!(t.totals().ray_tracing >= Duration::from_micros(120));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analytics;
mod chrome;
mod event;
mod hist;
mod phase;
mod record;
mod recorder;
mod trace;

pub use analytics::{
    BatchSpan, CacheCounts, EventAnalytics, Residents, Shadow, ShadowPoint, Stay, WorkerTimeline,
    SHADOW_BUCKETS, SHADOW_TAU,
};
pub use chrome::chrome_trace_json;
pub use event::{
    is_sampled, read_events_jsonl_path, write_events_jsonl, Event, EventBuffer, EventKind,
    EventLog, EventSink,
};
pub use hist::Histogram;
pub use phase::{Phase, PhaseHistograms, PhaseTimes};
pub use record::ScanRecord;
pub use recorder::{JsonlRecorder, NullRecorder, Recorder, SharedRecorder, Telemetry};
pub use trace::{read_jsonl_prefix_path, HitRatioPoint, TraceSummary};
