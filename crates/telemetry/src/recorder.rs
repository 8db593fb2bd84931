//! Recorder sinks for [`ScanRecord`] streams and the per-backend
//! [`Telemetry`] aggregator.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::phase::PhaseTimes;
use crate::record::ScanRecord;

/// A sink for per-scan trace events.
///
/// Backends call [`Recorder::record_scan`] once per `insert_scan`;
/// recording must never change mapping behaviour (the repository's
/// `NullRecorder`-equivalence test checks map contents are identical with
/// and without a recorder attached).
pub trait Recorder: Send {
    /// Consumes one per-scan event.
    fn record_scan(&mut self, record: &ScanRecord);

    /// Flushes buffered output (called by backends from `finish`).
    fn flush(&mut self) {}
}

/// Discards every event. Useful to exercise the recording path with no
/// observable output.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record_scan(&mut self, _record: &ScanRecord) {}
}

/// A cloneable in-memory recorder: every clone appends to the same shared
/// buffer. This is how callers read a trace back out of a backend that was
/// consumed by value (e.g. a UAV mission run or a bench harness).
#[derive(Debug, Clone, Default)]
pub struct SharedRecorder {
    records: Arc<Mutex<Vec<ScanRecord>>>,
}

impl SharedRecorder {
    /// An empty shared recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the events recorded so far.
    pub fn records(&self) -> Vec<ScanRecord> {
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Recorder for SharedRecorder {
    fn record_scan(&mut self, record: &ScanRecord) {
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(record.clone());
    }
}

/// Streams events as JSON Lines to any writer (one record per line).
///
/// The writer is flushed after **every record** (line-buffered), not just on
/// [`Recorder::flush`]/drop: a crashed or killed process leaves a trace file
/// whose complete lines are all parseable, with at most one torn line at the
/// tail — which [`crate::read_jsonl_prefix_path`] drops cleanly. Each line leaves
/// the buffer as a single `write`, so torn lines only happen when the kernel
/// itself splits a write.
pub struct JsonlRecorder<W: Write + Send> {
    out: W,
}

impl JsonlRecorder<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncates) a trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlRecorder {
            out: std::io::BufWriter::new(file),
        })
    }
}

impl<W: Write + Send> JsonlRecorder<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlRecorder { out }
    }
}

impl<W: Write + Send> std::fmt::Debug for JsonlRecorder<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlRecorder").finish_non_exhaustive()
    }
}

impl<W: Write + Send> Recorder for JsonlRecorder<W> {
    fn record_scan(&mut self, record: &ScanRecord) {
        // Trace output is best-effort: a full disk must not abort mapping.
        let _ = writeln!(self.out, "{}", serde::json::to_string(record));
        // Per-record flush keeps the on-disk trace a parseable prefix even
        // if the process dies before `flush`/drop runs.
        let _ = self.out.flush();
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl<W: Write + Send> Drop for JsonlRecorder<W> {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// Per-backend telemetry state: cumulative [`PhaseTimes`] and an optional
/// attached [`Recorder`].
///
/// Backends own one of these instead of a bare `PhaseTimes` accumulator.
/// [`Telemetry::record`] stamps the scan sequence number and backend name
/// onto the event, folds it into the totals, and forwards it to the
/// recorder (if any). Per-phase percentiles are computed from a recorded
/// trace ([`crate::TraceSummary`]), not kept live.
pub struct Telemetry {
    backend: String,
    seq: u64,
    totals: PhaseTimes,
    recorder: Option<Box<dyn Recorder>>,
}

impl Telemetry {
    /// Fresh telemetry for a backend with the given display name.
    pub fn new(backend: impl Into<String>) -> Self {
        Telemetry {
            backend: backend.into(),
            seq: 0,
            totals: PhaseTimes::default(),
            recorder: None,
        }
    }

    /// Attaches a recorder (replacing any previous one).
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Records one scan: stamps `seq` and `backend`, accumulates the
    /// totals, and forwards the event to the recorder.
    pub fn record(&mut self, record: ScanRecord) {
        self.totals += record.times;
        self.forward(record);
        self.seq += 1;
    }

    /// Marks a record that carries no scan — the refusals after the last
    /// applied one — as [`ScanRecord::trailing`], stamps `seq` and
    /// `backend` on it and forwards it to the recorder. It is not a scan:
    /// [`Telemetry::scans`] and the totals stay as they are.
    pub fn record_trailing(&mut self, mut record: ScanRecord) {
        record.trailing = true;
        self.forward(record);
    }

    fn forward(&mut self, mut record: ScanRecord) {
        record.seq = self.seq;
        record.backend.clone_from(&self.backend);
        if let Some(r) = self.recorder.as_mut() {
            r.record_scan(&record);
        }
    }

    /// Adds phase time that belongs to no single scan (e.g. final flush
    /// work) to the totals only.
    pub fn add_times(&mut self, times: PhaseTimes) {
        self.totals += times;
    }

    /// Scans recorded so far (a trailing record is not one).
    pub fn scans(&self) -> u64 {
        self.seq
    }

    /// Cumulative phase times (the historical `PhaseTimes` summary view).
    pub fn totals(&self) -> PhaseTimes {
        self.totals
    }

    /// Flushes the attached recorder, if any.
    pub fn flush(&mut self) {
        if let Some(r) = self.recorder.as_mut() {
            r.flush();
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("backend", &self.backend)
            .field("scans", &self.seq)
            .field("totals", &self.totals)
            .field("recorder", &self.recorder.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn scan(ray_us: u64, obs: u64, hits: u64) -> ScanRecord {
        ScanRecord {
            times: PhaseTimes {
                ray_tracing: Duration::from_micros(ray_us),
                ..Default::default()
            },
            observations: obs,
            cache_hits: hits,
            ..Default::default()
        }
    }

    #[test]
    fn telemetry_stamps_seq_and_backend() {
        let shared = SharedRecorder::new();
        let mut t = Telemetry::new("test-backend");
        t.set_recorder(Box::new(shared.clone()));
        t.record(scan(100, 10, 5));
        t.record(scan(300, 20, 9));
        // Refusals after the last scan: a record, not a scan.
        t.record_trailing(ScanRecord {
            sheds: 2,
            ..Default::default()
        });
        t.flush();
        let records = shared.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
        assert_eq!((records[2].seq, records[2].trailing), (2, true));
        assert!(!records[0].trailing && !records[1].trailing);
        assert!(records.iter().all(|r| r.backend == "test-backend"));
        assert_eq!(t.scans(), 2);
        assert_eq!(t.totals().ray_tracing, Duration::from_micros(400));
    }

    #[test]
    fn add_times_adds_to_the_totals_only() {
        let mut t = Telemetry::new("x");
        t.add_times(PhaseTimes {
            octree_update: Duration::from_millis(3),
            ..Default::default()
        });
        assert_eq!(t.scans(), 0);
        assert_eq!(t.totals().octree_update, Duration::from_millis(3));
    }

    #[test]
    fn jsonl_recorder_flushes_on_drop() {
        // A BufWriter-backed recorder holds records in memory until a flush;
        // dropping the recorder (e.g. the owning backend going away without
        // `finish`) must still produce a complete trace file.
        let path =
            std::env::temp_dir().join(format!("octocache-jsonl-drop-{}.jsonl", std::process::id()));
        {
            let mut r = JsonlRecorder::create(&path).unwrap();
            r.record_scan(&scan(10, 4, 2));
            r.record_scan(&scan(20, 8, 5));
            // No explicit flush: rely on Drop.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 2, "drop did not flush: {text:?}");
        let last: ScanRecord = serde::json::from_str(text.lines().last().unwrap()).unwrap();
        assert_eq!(last.observations, 8);
        assert_eq!(last.cache_hits, 5);
    }

    #[test]
    fn jsonl_recorder_writes_one_line_per_record() {
        let mut r = JsonlRecorder::new(Vec::new());
        r.record_scan(&scan(10, 4, 2));
        r.record_scan(&scan(20, 4, 3));
        let text = String::from_utf8(std::mem::take(&mut r.out)).unwrap();
        assert_eq!(text.lines().count(), 2);
        let first: ScanRecord = serde::json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.observations, 4);
    }
}
