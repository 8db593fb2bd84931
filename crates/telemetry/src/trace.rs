//! JSONL trace IO and the offline report built from a recorded trace.

use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::phase::{Phase, PhaseHistograms, PhaseTimes};
use crate::record::ScanRecord;

/// Writes records as JSON Lines (one per line).
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_jsonl<W: Write>(mut out: W, records: &[ScanRecord]) -> std::io::Result<()> {
    for r in records {
        writeln!(out, "{}", serde::json::to_string(r))?;
    }
    Ok(())
}

/// Reads a JSONL trace; blank lines are skipped.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn read_jsonl<R: BufRead>(input: R) -> Result<Vec<ScanRecord>, String> {
    let mut records = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", i + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let record = serde::json::from_str(&line).map_err(|e| format!("line {}: {e:?}", i + 1))?;
        records.push(record);
    }
    Ok(records)
}

/// Reads a JSONL trace file.
///
/// # Errors
///
/// Returns a message for I/O or parse failures.
pub fn read_jsonl_path(path: impl AsRef<Path>) -> Result<Vec<ScanRecord>, String> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    read_jsonl(std::io::BufReader::new(file))
}

/// Reads the parseable prefix of a JSONL trace, tolerating a damaged tail.
///
/// A process killed mid-run (or a torn final write) leaves a trace whose
/// last line may be truncated; [`JsonlRecorder`](crate::JsonlRecorder)'s
/// per-record flush guarantees everything before it is intact. This reader
/// returns every record up to the first malformed line plus a description
/// of the damage (`None` when the stream was clean). Callers decide policy:
/// a damaged tail with zero preceding records is indistinguishable from a
/// non-trace file and should usually stay an error.
///
/// # Errors
///
/// Only I/O failures while reading; parse damage is reported in the
/// returned tuple, never as `Err`.
pub fn read_jsonl_prefix<R: BufRead>(
    input: R,
) -> Result<(Vec<ScanRecord>, Option<String>), String> {
    let mut records = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", i + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        match serde::json::from_str(&line) {
            Ok(record) => records.push(record),
            Err(e) => {
                return Ok((
                    records,
                    Some(format!("damaged tail at line {}: {e:?}", i + 1)),
                ))
            }
        }
    }
    Ok((records, None))
}

/// Reads the parseable prefix of a JSONL trace file (see
/// [`read_jsonl_prefix`]).
///
/// # Errors
///
/// Only I/O failures (e.g. the file does not exist).
pub fn read_jsonl_prefix_path(
    path: impl AsRef<Path>,
) -> Result<(Vec<ScanRecord>, Option<String>), String> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    read_jsonl_prefix(std::io::BufReader::new(file))
}

/// Percentiles of one phase over a trace, in microseconds (the `report`
/// table row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseQuantiles {
    /// Phase label.
    pub phase: String,
    /// Scans in which this phase ran (non-zero duration).
    pub count: u64,
    /// Median, µs.
    pub p50_us: f64,
    /// 90th percentile, µs.
    pub p90_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// Maximum, µs.
    pub max_us: f64,
    /// Total across the trace, ms.
    pub total_ms: f64,
}

/// One point of the cache hit-ratio time series: a window of consecutive
/// scans and its aggregate hit ratio.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HitRatioPoint {
    /// First scan of the window (inclusive).
    pub first_scan: u64,
    /// Last scan of the window (inclusive).
    pub last_scan: u64,
    /// Observations in the window.
    pub observations: u64,
    /// Aggregate cache hit ratio of the window, in `[0, 1]`.
    pub hit_ratio: f64,
}

/// Aggregate view of a recorded trace: per-phase latency histograms, cache
/// totals, and the hit-ratio time series — what `octocache report` prints.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Backend name (from the first record; traces are per-run).
    pub backend: String,
    /// Largest octree-storage footprint sampled across the trace, bytes.
    pub peak_memory_bytes: u64,
    /// Scans in the trace.
    pub scans: u64,
    /// Total voxel observations.
    pub observations: u64,
    /// Total cache hits.
    pub cache_hits: u64,
    /// Total cache evictions.
    pub cache_evictions: u64,
    /// Total octree node visits.
    pub octree_node_visits: u64,
    /// Of those, the visits paid seeding cache misses from the octree.
    pub octree_seed_visits: u64,
    /// Total octree leaf updates.
    pub octree_leaf_updates: u64,
    /// Largest SPSC queue depth seen at enqueue.
    pub max_queue_depth: u64,
    /// Per-worker busy nanoseconds summed over the trace (parallel traces:
    /// one element, more in traces from the retired N-worker pipeline;
    /// empty elsewhere).
    pub worker_busy_ns: Vec<u64>,
    /// Per-worker idle nanoseconds summed over the trace (as
    /// `worker_busy_ns`).
    pub worker_idle_ns: Vec<u64>,
    /// Total worker panics over the trace.
    pub worker_panics: u64,
    /// Total worker spawn failures over the trace.
    pub spawn_failures: u64,
    /// Total expired bounded waits (`QueueStalled`) over the trace.
    pub stall_timeouts: u64,
    /// Total batches left unapplied (a wedged worker held the octree
    /// mutex) over the trace.
    pub partial_batches: u64,
    /// Total batches applied inline (degraded mode) over the trace.
    pub batches_rerouted: u64,
    /// Scans recorded while the backend was in a degraded state.
    pub degraded_scans: u64,
    /// Total worker respawns performed by the supervisor over the trace.
    pub restarts: u64,
    /// Total integrity heals (Degraded → Intact after respawn) over the
    /// trace.
    pub heals: u64,
    /// Total nanoseconds spent respawning workers over the trace.
    pub restart_ns: u64,
    /// Total scans shed by admission control over the trace.
    pub sheds: u64,
    /// Most severe memory-pressure level recorded on any scan (empty for
    /// traces without a governor).
    pub peak_pressure: String,
    /// Total nanoseconds spent journaling scans (0 for non-durable runs).
    pub journal_append_ns: u64,
    /// Total nanoseconds spent writing durable checkpoints.
    pub checkpoint_write_ns: u64,
    /// Durable checkpoints written during the trace (scans whose record
    /// carries a non-zero checkpoint write time).
    pub checkpoints: u64,
    /// Newest durable checkpoint epoch seen in the trace.
    pub last_checkpoint_epoch: u64,
    /// Cumulative phase times.
    pub totals: PhaseTimes,
    /// Per-phase latency histograms (nanoseconds).
    pub per_phase: PhaseHistograms,
    /// Windowed cache hit-ratio series.
    pub hit_ratio_series: Vec<HitRatioPoint>,
}

/// Number of windows the hit-ratio series is bucketed into (fewer when the
/// trace has fewer scans).
const SERIES_WINDOWS: usize = 20;

/// Severity order of the governor's pressure labels (empty = no governor,
/// least severe); unknown labels from newer writers rank above known ones
/// so they are preserved rather than dropped.
fn pressure_rank(level: &str) -> u8 {
    match level {
        "" => 0,
        "normal" => 1,
        "elevated" => 2,
        "critical" => 3,
        "over-budget" => 4,
        _ => 5,
    }
}

impl TraceSummary {
    /// Folds a record stream into a summary. The hit-ratio series uses at
    /// most `SERIES_WINDOWS` (20) equal windows of consecutive scans.
    pub fn from_records(records: &[ScanRecord]) -> Self {
        let mut s = TraceSummary {
            backend: records
                .first()
                .map(|r| r.backend.clone())
                .unwrap_or_default(),
            scans: records.len() as u64,
            ..Default::default()
        };
        for r in records {
            s.observations += r.observations;
            s.cache_hits += r.cache_hits;
            s.cache_evictions += r.cache_evictions;
            s.octree_node_visits += r.octree_node_visits;
            s.octree_seed_visits += r.octree_seed_visits;
            s.octree_leaf_updates += r.octree_leaf_updates;
            s.peak_memory_bytes = s.peak_memory_bytes.max(r.memory_bytes);
            s.max_queue_depth = s.max_queue_depth.max(r.queue_depth_enqueue);
            if s.worker_busy_ns.len() < r.worker_busy_ns.len() {
                s.worker_busy_ns.resize(r.worker_busy_ns.len(), 0);
            }
            for (acc, v) in s.worker_busy_ns.iter_mut().zip(&r.worker_busy_ns) {
                *acc += v;
            }
            if s.worker_idle_ns.len() < r.worker_idle_ns.len() {
                s.worker_idle_ns.resize(r.worker_idle_ns.len(), 0);
            }
            for (acc, v) in s.worker_idle_ns.iter_mut().zip(&r.worker_idle_ns) {
                *acc += v;
            }
            s.worker_panics += r.worker_panics;
            s.spawn_failures += r.spawn_failures;
            s.stall_timeouts += r.stall_timeouts;
            s.partial_batches += r.partial_batches;
            s.batches_rerouted += r.batches_rerouted;
            s.degraded_scans += u64::from(r.degraded);
            s.restarts += r.restarts;
            s.heals += r.heals;
            s.restart_ns += r.restart_ns;
            s.sheds += r.sheds;
            if pressure_rank(&r.pressure_level) > pressure_rank(&s.peak_pressure) {
                s.peak_pressure = r.pressure_level.clone();
            }
            s.journal_append_ns += r.journal_append_ns;
            s.checkpoint_write_ns += r.checkpoint_write_ns;
            s.checkpoints += u64::from(r.checkpoint_write_ns > 0);
            s.last_checkpoint_epoch = s.last_checkpoint_epoch.max(r.checkpoint_epoch);
            s.totals += r.times;
            s.per_phase.record_times(&r.times);
        }
        let window = records.len().div_ceil(SERIES_WINDOWS).max(1);
        for chunk in records.chunks(window) {
            let observations: u64 = chunk.iter().map(|r| r.observations).sum();
            let hits: u64 = chunk.iter().map(|r| r.cache_hits).sum();
            s.hit_ratio_series.push(HitRatioPoint {
                first_scan: chunk.first().map(|r| r.seq).unwrap_or(0),
                last_scan: chunk.last().map(|r| r.seq).unwrap_or(0),
                observations,
                hit_ratio: if observations == 0 {
                    0.0
                } else {
                    hits as f64 / observations as f64
                },
            });
        }
        s
    }

    /// Aggregate cache hit ratio of the whole trace.
    pub fn hit_ratio(&self) -> f64 {
        if self.observations == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.observations as f64
        }
    }

    /// Octree node visits per leaf update (the tree-locality metric of the
    /// paper's §4.3); 0 when no leaves were updated.
    pub fn visits_per_update(&self) -> f64 {
        if self.octree_leaf_updates == 0 {
            0.0
        } else {
            self.octree_node_visits as f64 / self.octree_leaf_updates as f64
        }
    }

    /// True when any fault or degraded scan was recorded in the trace.
    pub fn any_faults(&self) -> bool {
        self.worker_panics
            + self.spawn_failures
            + self.stall_timeouts
            + self.partial_batches
            + self.batches_rerouted
            + self.degraded_scans
            > 0
    }

    /// True when the supervisor did anything worth reporting: a respawn, a
    /// heal, a shed scan, or memory pressure above the normal rung.
    pub fn any_supervisor_activity(&self) -> bool {
        self.restarts + self.heals + self.sheds > 0
            || pressure_rank(&self.peak_pressure) > pressure_rank("normal")
    }

    /// Per-worker utilization over the trace: busy / (busy + idle), in
    /// `[0, 1]`; one entry per octree-update worker, empty for traces with
    /// no worker data.
    pub fn worker_utilization(&self) -> Vec<f64> {
        self.worker_busy_ns
            .iter()
            .enumerate()
            .map(|(i, &busy)| {
                let idle = self.worker_idle_ns.get(i).copied().unwrap_or(0);
                let total = busy + idle;
                if total == 0 {
                    0.0
                } else {
                    busy as f64 / total as f64
                }
            })
            .collect()
    }

    /// The per-phase percentile table rows (phases that never ran are
    /// omitted).
    pub fn phase_quantiles(&self) -> Vec<PhaseQuantiles> {
        let us = |nanos: u64| nanos as f64 / 1e3;
        Phase::ALL
            .iter()
            .map(|&p| (p, self.per_phase.get(p)))
            .filter(|(_, h)| !h.is_empty())
            .map(|(p, h)| PhaseQuantiles {
                phase: p.label().to_string(),
                count: h.count(),
                p50_us: us(h.p50()),
                p90_us: us(h.p90()),
                p99_us: us(h.p99()),
                max_us: us(h.max()),
                total_ms: h.sum() as f64 / 1e6,
            })
            .collect()
    }

    /// Machine-readable JSON of the whole summary (the `report --json`
    /// payload), so CI and benches can assert on hit ratio or p99 without
    /// scraping the rendered percentile table.
    pub fn to_json(&self) -> String {
        use serde::Value;
        fn obj(fields: Vec<(&str, Value)>) -> Value {
            Value::Map(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }
        let u64s = |v: &[u64]| Value::Seq(v.iter().map(|&n| Value::U64(n)).collect());
        let phases = Value::Seq(
            self.phase_quantiles()
                .into_iter()
                .map(|q| {
                    obj(vec![
                        ("phase", Value::Str(q.phase)),
                        ("count", Value::U64(q.count)),
                        ("p50_us", Value::F64(q.p50_us)),
                        ("p90_us", Value::F64(q.p90_us)),
                        ("p99_us", Value::F64(q.p99_us)),
                        ("max_us", Value::F64(q.max_us)),
                        ("total_ms", Value::F64(q.total_ms)),
                    ])
                })
                .collect(),
        );
        let series = Value::Seq(
            self.hit_ratio_series
                .iter()
                .map(|p| {
                    obj(vec![
                        ("first_scan", Value::U64(p.first_scan)),
                        ("last_scan", Value::U64(p.last_scan)),
                        ("observations", Value::U64(p.observations)),
                        ("hit_ratio", Value::F64(p.hit_ratio)),
                    ])
                })
                .collect(),
        );
        let doc = obj(vec![
            ("backend", Value::Str(self.backend.clone())),
            ("scans", Value::U64(self.scans)),
            ("observations", Value::U64(self.observations)),
            ("cache_hits", Value::U64(self.cache_hits)),
            ("hit_ratio", Value::F64(self.hit_ratio())),
            ("cache_evictions", Value::U64(self.cache_evictions)),
            ("octree_node_visits", Value::U64(self.octree_node_visits)),
            ("octree_seed_visits", Value::U64(self.octree_seed_visits)),
            ("octree_leaf_updates", Value::U64(self.octree_leaf_updates)),
            ("visits_per_update", Value::F64(self.visits_per_update())),
            ("peak_memory_bytes", Value::U64(self.peak_memory_bytes)),
            ("max_queue_depth", Value::U64(self.max_queue_depth)),
            ("worker_busy_ns", u64s(&self.worker_busy_ns)),
            ("worker_idle_ns", u64s(&self.worker_idle_ns)),
            (
                "worker_utilization",
                Value::Seq(
                    self.worker_utilization()
                        .into_iter()
                        .map(Value::F64)
                        .collect(),
                ),
            ),
            ("worker_panics", Value::U64(self.worker_panics)),
            ("spawn_failures", Value::U64(self.spawn_failures)),
            ("stall_timeouts", Value::U64(self.stall_timeouts)),
            ("partial_batches", Value::U64(self.partial_batches)),
            ("batches_rerouted", Value::U64(self.batches_rerouted)),
            ("degraded_scans", Value::U64(self.degraded_scans)),
            ("restarts", Value::U64(self.restarts)),
            ("heals", Value::U64(self.heals)),
            ("restart_ns", Value::U64(self.restart_ns)),
            ("sheds", Value::U64(self.sheds)),
            ("peak_pressure", Value::Str(self.peak_pressure.clone())),
            ("journal_append_ns", Value::U64(self.journal_append_ns)),
            ("checkpoint_write_ns", Value::U64(self.checkpoint_write_ns)),
            ("checkpoints", Value::U64(self.checkpoints)),
            (
                "last_checkpoint_epoch",
                Value::U64(self.last_checkpoint_epoch),
            ),
            ("phases", phases),
            ("hit_ratio_series", series),
        ]);
        serde::json::to_string(&doc)
    }

    /// Renders the human-readable report: a per-phase percentile table
    /// followed by the hit-ratio time series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} scans, backend {}",
            self.scans,
            if self.backend.is_empty() {
                "?"
            } else {
                &self.backend
            }
        );
        let _ = writeln!(
            out,
            "  observations {}, cache hits {} ({:.1} %), evictions {}",
            self.observations,
            self.cache_hits,
            self.hit_ratio() * 100.0,
            self.cache_evictions
        );
        let _ = writeln!(
            out,
            "  octree: {} node visits ({} to seed misses), {} leaf updates ({:.2} visits/update)",
            self.octree_node_visits,
            self.octree_seed_visits,
            self.octree_leaf_updates,
            self.visits_per_update()
        );
        if self.peak_memory_bytes > 0 {
            let _ = writeln!(
                out,
                "  storage: peak {:.1} KiB",
                self.peak_memory_bytes as f64 / 1024.0
            );
        }
        if self.max_queue_depth > 0 {
            let _ = writeln!(
                out,
                "  max queue depth at enqueue: {}",
                self.max_queue_depth
            );
        }
        let util = self.worker_utilization();
        if !util.is_empty() {
            let cols: Vec<String> = util
                .iter()
                .enumerate()
                .map(|(i, u)| format!("w{i} {:.1} %", u * 100.0))
                .collect();
            let _ = writeln!(out, "  worker utilization: {}", cols.join(", "));
        }
        if self.journal_append_ns > 0 || self.checkpoints > 0 {
            let _ = writeln!(
                out,
                "  durability: journal {:.2} ms, {} checkpoints ({:.2} ms), newest epoch {}",
                self.journal_append_ns as f64 / 1e6,
                self.checkpoints,
                self.checkpoint_write_ns as f64 / 1e6,
                self.last_checkpoint_epoch
            );
        }
        if self.any_faults() {
            let _ = writeln!(
                out,
                "  faults: {} panics, {} spawn failures, {} stalls, {} partial batches, \
                 {} rerouted; {} degraded scans",
                self.worker_panics,
                self.spawn_failures,
                self.stall_timeouts,
                self.partial_batches,
                self.batches_rerouted,
                self.degraded_scans
            );
        }
        if self.any_supervisor_activity() {
            let mut line = format!(
                "  supervisor: {} restarts ({:.2} ms), {} heals, {} shed scans",
                self.restarts,
                self.restart_ns as f64 / 1e6,
                self.heals,
                self.sheds
            );
            if pressure_rank(&self.peak_pressure) > pressure_rank("normal") {
                let _ = write!(line, ", peak pressure {}", self.peak_pressure);
            }
            let _ = writeln!(out, "{line}");
        }

        let _ = writeln!(out, "\nper-phase latency percentiles (per scan):");
        let _ = writeln!(
            out,
            "  {:<14} {:>7} {:>11} {:>11} {:>11} {:>11} {:>11}",
            "phase", "scans", "p50(us)", "p90(us)", "p99(us)", "max(us)", "total(ms)"
        );
        for q in self.phase_quantiles() {
            let _ = writeln!(
                out,
                "  {:<14} {:>7} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>11.3}",
                q.phase, q.count, q.p50_us, q.p90_us, q.p99_us, q.max_us, q.total_ms
            );
        }

        let _ = writeln!(out, "\ncache hit-ratio over scans:");
        for p in &self.hit_ratio_series {
            let bar_len = (p.hit_ratio * 40.0).round() as usize;
            let _ = writeln!(
                out,
                "  scans {:>6}-{:<6} {:>5.1} % |{:<40}|",
                p.first_scan,
                p.last_scan,
                p.hit_ratio * 100.0,
                "#".repeat(bar_len.min(40))
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn records(n: u64) -> Vec<ScanRecord> {
        (0..n)
            .map(|i| ScanRecord {
                seq: i,
                backend: "octocache-serial".to_string(),
                times: PhaseTimes {
                    ray_tracing: Duration::from_micros(100 + i),
                    octree_update: Duration::from_micros(10 + i % 5),
                    ..Default::default()
                },
                observations: 100,
                cache_hits: i.min(90),
                cache_evictions: 7,
                octree_node_visits: 50,
                octree_seed_visits: 20,
                octree_leaf_updates: 10,
                ..Default::default()
            })
            .collect()
    }

    #[test]
    fn jsonl_round_trip() {
        let recs = records(25);
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &recs).unwrap();
        let back = read_jsonl(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn read_jsonl_skips_blank_and_reports_bad_lines() {
        let text = "\n\n";
        assert!(read_jsonl(text.as_bytes()).unwrap().is_empty());
        let err = read_jsonl("{not json}".as_bytes()).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn read_jsonl_rejects_truncated_record() {
        // A record cut off mid-stream (half its JSON) must be a typed parse
        // error naming the line, not a panic or a silently dropped record.
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &records(2)).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        let second = lines[1];
        let truncated = &second[..second.len() / 2];
        lines[1] = truncated;
        let err = read_jsonl(lines.join("\n").as_bytes()).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn read_jsonl_rejects_trailing_garbage() {
        // Valid records followed by non-JSON junk (e.g. a crashed writer's
        // partial flush plus shell noise) fail with the junk's line number.
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &records(3)).unwrap();
        buf.extend_from_slice(b"#### trailing garbage ####\n");
        let err = read_jsonl(&buf[..]).unwrap_err();
        assert!(err.contains("line 4"), "{err}");
    }

    #[test]
    fn read_jsonl_path_empty_file_and_missing_file() {
        let dir = std::env::temp_dir();
        let empty = dir.join(format!("octocache-empty-{}.jsonl", std::process::id()));
        std::fs::write(&empty, "").unwrap();
        let records = read_jsonl_path(&empty).unwrap();
        let _ = std::fs::remove_file(&empty);
        assert!(records.is_empty(), "empty file must parse to zero records");

        let missing = dir.join(format!("octocache-missing-{}.jsonl", std::process::id()));
        let err = read_jsonl_path(&missing).unwrap_err();
        assert!(err.starts_with("open "), "{err}");
    }

    #[test]
    fn read_jsonl_prefix_recovers_records_before_torn_tail() {
        // Regression for crash-safe traces: a process killed mid-write
        // leaves N complete lines plus one torn line; the prefix reader
        // must return the N records and describe the damage.
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &records(3)).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let keep = text.len() - 40; // tear the last record mid-JSON
        let torn = &text[..keep];
        let (recs, damage) = read_jsonl_prefix(torn.as_bytes()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs, records(3)[..2]);
        let damage = damage.expect("torn tail must be reported");
        assert!(damage.contains("line 3"), "{damage}");

        // A clean stream reports no damage.
        let mut clean = Vec::new();
        write_jsonl(&mut clean, &records(3)).unwrap();
        let (recs, damage) = read_jsonl_prefix(&clean[..]).unwrap();
        assert_eq!(recs.len(), 3);
        assert!(damage.is_none());

        // Pure garbage yields zero records plus damage — callers treat
        // that as "not a trace".
        let (recs, damage) = read_jsonl_prefix("#garbage#".as_bytes()).unwrap();
        assert!(recs.is_empty());
        assert!(damage.is_some());
    }

    #[test]
    fn summary_aggregates_durability_fields() {
        let mut recs = records(6);
        for r in recs.iter_mut() {
            r.journal_append_ns = 1_000;
        }
        recs[2].checkpoint_write_ns = 500_000;
        recs[2].checkpoint_epoch = 2;
        recs[5].checkpoint_write_ns = 700_000;
        recs[5].checkpoint_epoch = 5;
        let s = TraceSummary::from_records(&recs);
        assert_eq!(s.journal_append_ns, 6_000);
        assert_eq!(s.checkpoint_write_ns, 1_200_000);
        assert_eq!(s.checkpoints, 2);
        assert_eq!(s.last_checkpoint_epoch, 5);
        let text = s.render();
        assert!(text.contains("durability: journal"), "{text}");
        assert!(text.contains("2 checkpoints"), "{text}");
        // Non-durable traces render no durability line.
        let plain = TraceSummary::from_records(&records(4));
        assert!(!plain.render().contains("durability:"));
        // And the JSON payload carries the counters.
        let v: serde::Value = serde::json::from_str(&s.to_json()).unwrap();
        assert_eq!(v.get("checkpoints").and_then(serde::Value::as_u64), Some(2));
        assert_eq!(
            v.get("journal_append_ns").and_then(serde::Value::as_u64),
            Some(6_000)
        );
    }

    #[test]
    fn summary_to_json_is_parseable_and_complete() {
        let s = TraceSummary::from_records(&records(40));
        let json = s.to_json();
        let v: serde::Value = serde::json::from_str(&json).unwrap();
        assert_eq!(
            v.get("backend").and_then(serde::Value::as_str),
            Some("octocache-serial")
        );
        assert_eq!(v.get("scans").and_then(serde::Value::as_u64), Some(40));
        let hr = v.get("hit_ratio").and_then(serde::Value::as_f64).unwrap();
        assert!((hr - s.hit_ratio()).abs() < 1e-12);
        let phases = v.get("phases").and_then(serde::Value::as_seq).unwrap();
        assert_eq!(phases.len(), s.phase_quantiles().len());
        assert!(phases.iter().all(|p| p.get("p99_us").is_some()));
        let series = v
            .get("hit_ratio_series")
            .and_then(serde::Value::as_seq)
            .unwrap();
        assert_eq!(series.len(), 20);
    }

    #[test]
    fn summary_aggregates_and_windows() {
        let recs = records(100);
        let s = TraceSummary::from_records(&recs);
        assert_eq!(s.scans, 100);
        assert_eq!(s.observations, 100 * 100);
        assert_eq!(s.cache_evictions, 700);
        assert_eq!(s.backend, "octocache-serial");
        assert!((s.visits_per_update() - 5.0).abs() < 1e-12);
        // 100 scans in 20 windows of 5.
        assert_eq!(s.hit_ratio_series.len(), 20);
        assert_eq!(s.hit_ratio_series[0].first_scan, 0);
        assert_eq!(s.hit_ratio_series[0].last_scan, 4);
        // Hit ratio ramps up as the synthetic hits grow with i.
        assert!(s.hit_ratio_series[19].hit_ratio > s.hit_ratio_series[0].hit_ratio);
        // Phase table has exactly the phases that ran.
        let table = s.phase_quantiles();
        let names: Vec<&str> = table.iter().map(|q| q.phase.as_str()).collect();
        assert_eq!(names, ["ray_tracing", "octree_update"]);
        assert_eq!(table[0].count, 100);
        assert!(table[0].p50_us >= 100.0 && table[0].p99_us <= 220.0);
    }

    #[test]
    fn summary_aggregates_worker_stats() {
        let recs: Vec<ScanRecord> = (0..4)
            .map(|i| ScanRecord {
                seq: i,
                backend: "octocache-parallelx2".to_string(),
                worker_busy_ns: vec![100, 50],
                worker_idle_ns: vec![0, 50],
                ..Default::default()
            })
            .collect();
        let s = TraceSummary::from_records(&recs);
        assert_eq!(s.worker_busy_ns, vec![400, 200]);
        assert_eq!(s.worker_idle_ns, vec![0, 200]);
        let util = s.worker_utilization();
        assert_eq!(util.len(), 2);
        assert!((util[0] - 1.0).abs() < 1e-12);
        assert!((util[1] - 0.5).abs() < 1e-12);
        let text = s.render();
        assert!(text.contains("worker utilization"), "{text}");
    }

    #[test]
    fn summary_aggregates_fault_counters() {
        let mut recs = records(4);
        recs[1].worker_panics = 1;
        recs[1].batches_rerouted = 2;
        recs[1].degraded = true;
        recs[2].stall_timeouts = 1;
        recs[2].partial_batches = 1;
        recs[2].degraded = true;
        recs[3].degraded = true;
        let s = TraceSummary::from_records(&recs);
        assert_eq!(s.worker_panics, 1);
        assert_eq!(s.stall_timeouts, 1);
        assert_eq!(s.partial_batches, 1);
        assert_eq!(s.batches_rerouted, 2);
        assert_eq!(s.degraded_scans, 3);
        assert!(s.any_faults());
        let text = s.render();
        assert!(text.contains("faults: 1 panics"), "{text}");
        assert!(text.contains("3 degraded scans"), "{text}");
        // A healthy trace prints no fault line.
        let healthy = TraceSummary::from_records(&records(4));
        assert!(!healthy.any_faults());
        assert!(!healthy.render().contains("faults:"));
    }

    #[test]
    fn summary_aggregates_supervisor_fields() {
        let mut recs = records(5);
        recs[1].restarts = 1;
        recs[1].heals = 1;
        recs[1].restart_ns = 2_000_000;
        recs[2].sheds = 3;
        recs[2].pressure_level = "critical".to_string();
        recs[3].pressure_level = "elevated".to_string();
        recs[4].pressure_level = "normal".to_string();
        let s = TraceSummary::from_records(&recs);
        assert_eq!(s.restarts, 1);
        assert_eq!(s.heals, 1);
        assert_eq!(s.restart_ns, 2_000_000);
        assert_eq!(s.sheds, 3);
        // Peak pressure keeps the most severe level seen, not the last.
        assert_eq!(s.peak_pressure, "critical");
        assert!(s.any_supervisor_activity());
        let text = s.render();
        assert!(text.contains("supervisor: 1 restarts"), "{text}");
        assert!(text.contains("3 shed scans"), "{text}");
        assert!(text.contains("peak pressure critical"), "{text}");
        let v: serde::Value = serde::json::from_str(&s.to_json()).unwrap();
        assert_eq!(v.get("heals").and_then(serde::Value::as_u64), Some(1));
        assert_eq!(v.get("sheds").and_then(serde::Value::as_u64), Some(3));
        assert_eq!(
            v.get("peak_pressure").and_then(serde::Value::as_str),
            Some("critical")
        );
        // A trace with no supervisor activity renders no supervisor line,
        // even when the governor reported "normal" on every scan.
        let mut quiet = records(3);
        for r in quiet.iter_mut() {
            r.pressure_level = "normal".to_string();
        }
        let q = TraceSummary::from_records(&quiet);
        assert!(!q.any_supervisor_activity());
        assert!(!q.render().contains("supervisor:"));
        // And a plain trace is untouched.
        let plain = TraceSummary::from_records(&records(3));
        assert_eq!(plain.peak_pressure, "");
        assert!(!plain.render().contains("supervisor:"));
    }

    #[test]
    fn summary_tracks_peak_memory_and_ignores_a_legacy_layout_tag() {
        let mut recs = records(4);
        for (i, r) in recs.iter_mut().enumerate() {
            r.memory_bytes = 1000 * (i as u64 + 1);
        }
        recs[2].memory_bytes = 9000; // peak mid-trace (e.g. before a prune)

        // Traces written while the octree had two storage layouts tagged
        // every line with a `tree_layout`; the key is ignored on read.
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &recs).unwrap();
        let legacy: String = String::from_utf8(buf)
            .unwrap()
            .lines()
            .map(|l| l.replacen('{', "{\"tree_layout\":\"pointer\",", 1) + "\n")
            .collect();
        let back = read_jsonl(std::io::BufReader::new(legacy.as_bytes())).unwrap();
        assert_eq!(back, recs);

        let s = TraceSummary::from_records(&back);
        assert_eq!(s.peak_memory_bytes, 9000);
        let text = s.render();
        assert!(text.contains("storage: peak 8.8 KiB"), "{text}");
        // Records without a memory sample render no storage line.
        let unsampled = TraceSummary::from_records(&records(4));
        assert!(!unsampled.render().contains("storage:"));
    }

    #[test]
    fn render_contains_table_and_series() {
        let s = TraceSummary::from_records(&records(40));
        let text = s.render();
        assert!(text.contains("p50(us)"), "{text}");
        assert!(text.contains("p99(us)"), "{text}");
        assert!(text.contains("ray_tracing"), "{text}");
        assert!(text.contains("hit-ratio over scans"), "{text}");
        assert!(text.contains('|'), "{text}");
    }

    #[test]
    fn empty_trace_summarises_cleanly() {
        let s = TraceSummary::from_records(&[]);
        assert_eq!(s.scans, 0);
        assert_eq!(s.hit_ratio(), 0.0);
        assert!(s.phase_quantiles().is_empty());
        let _ = s.render();
    }
}
