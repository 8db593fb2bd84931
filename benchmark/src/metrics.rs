//! The metric tables: every name the benchmark reports, with its unit. The
//! same names, in the same order, are in `BENCHMARK.json` (a test compares
//! them); README.md says what each one means and which end-to-end metric a
//! per-layer metric should move.

use serde::Value;

use crate::workloads::{Source, Spec};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Where a per-layer figure is measured (README.md, "Per-layer metrics").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// The workload's own pass: end-to-end passes, the spans of the
    /// outside-in replay, or the engine's per-scan records.
    Pass,
    /// Microbenches on a fixture cut from the workload's scans.
    Fixture,
    /// The workload's own pass where it runs the paced reader; elsewhere a
    /// probe: some of its scans through a serial OctoCache with a reader.
    Readers,
    /// The workload's own pass where it plans; elsewhere the same probe,
    /// with the planners heading for its last scan's origin.
    Planners,
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
    pub origin: Origin,
}

impl Metric {
    /// How much worse `new` is than `old`, as a share of `old` (negative
    /// when it is better).
    pub fn worsening(&self, old: f64, new: f64) -> f64 {
        match self.better {
            Better::Lower => (new - old) / old,
            Better::Higher => (old - new) / old,
        }
    }

    /// Where `spec`'s figure for this metric comes from: `pass`, `fixture`,
    /// or `probe` — traffic the workload does not have, so never to be read
    /// as a property of the workload.
    pub fn source(&self, spec: &Spec) -> &'static str {
        let own = match self.origin {
            Origin::Pass => true,
            Origin::Fixture => return "fixture",
            Origin::Readers => spec.readers,
            Origin::Planners => matches!(spec.source, Source::Mission { .. }),
        };
        if own {
            "pass"
        } else {
            "probe"
        }
    }

    const fn from(self, origin: Origin) -> Metric {
        Metric { origin, ..self }
    }
}

const fn e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        origin: Origin::Pass,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        origin: Origin::Pass,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        better: Better::Higher,
        ..lo(name, unit)
    }
}

/// The bound on every timing: the largest the driver's contract allows. The
/// driver refuses a benchmark whose ten-run spread exceeds a metric's bound,
/// and on the box this was sized on whole ten-second runs of identical code
/// land 20–25 % apart whatever the statistic: ten-run spreads of 2–19 %
/// (README.md, "Warm-up, means and noise"). ISSUE 11's 10 % would have been
/// refused.
const TIMING_BOUND: f64 = 0.25;

/// What a user of the mapper sees; reported by every workload with tracing
/// off.
pub const END_TO_END: [Metric; 7] = [
    e("setup_s", "s", Better::Lower, 0.25),
    e("scans_per_s", "1/s", Better::Higher, TIMING_BOUND),
    e("scan_ms_p50", "ms", Better::Lower, TIMING_BOUND),
    e("scan_ms_tail", "ms", Better::Lower, TIMING_BOUND),
    e("max_safe_velocity_mps", "m/s", Better::Higher, TIMING_BOUND),
    e("peak_rss_mb", "MB", Better::Lower, 0.1),
    e("map_mb", "MB", Better::Lower, 0.05),
];

const FIXTURE: Origin = Origin::Fixture;
const READERS: Origin = Origin::Readers;
const PLANNERS: Origin = Origin::Planners;

/// One layer each; reported by every workload's traced run. Every time is
/// measured on every workload — on its own pass where the workload enters the
/// layer, on a fixture or a probe of its scans where it does not — so only
/// shares and counts can read 0.
pub const PER_LAYER: [Metric; 63] = [
    lo("geom.dda_ns_per_voxel", "ns"),
    lo("geom.voxels_per_ray", "count"),
    lo("geom.morton_encode_ns", "ns").from(FIXTURE),
    lo("octomap.set_ns_per_cell", "ns").from(FIXTURE),
    lo("octomap.set_ns_per_cell_shuffled", "ns").from(FIXTURE),
    lo("octomap.search_ns", "ns").from(FIXTURE),
    lo("octomap.update_ns_per_obs", "ns").from(FIXTURE),
    lo("octomap.visits_per_update", "count"),
    lo("octomap.ns_per_visit", "ns"),
    lo("octomap.nodes", "count"),
    lo("octomap.bytes_per_node", "B"),
    lo("octomap.dedup_ns_per_obs", "ns").from(FIXTURE),
    lo("octomap.deep_clone_ms", "ms").from(FIXTURE),
    lo("octomap.prune_ms", "ms").from(FIXTURE),
    lo("cache.insert_ns_per_obs", "ns").from(FIXTURE),
    lo("cache.hit_ns", "ns").from(FIXTURE),
    lo("cache.miss_ns", "ns").from(FIXTURE),
    hi("cache.hit_ratio", "ratio"),
    lo("cache.evict_ns_per_cell", "ns").from(FIXTURE),
    lo("cache.evicted_per_scan", "count"),
    lo("cache.peak_cells", "count"),
    lo("cache.mb", "MB"),
    lo("cache.get_ns", "ns").from(FIXTURE),
    lo("engine.overhead_frac", "ratio"),
    lo("engine.unattributed_frac", "ratio"),
    lo("parallel.wait_frac", "ratio"),
    hi("parallel.worker_busy_frac", "ratio"),
    lo("parallel.vs_serial", "ratio"),
    lo("spsc.ns_per_item", "ns").from(FIXTURE),
    lo("routing.ns_per_key", "ns").from(FIXTURE),
    lo("query.publish_ms_p50", "ms").from(READERS),
    lo("query.publish_ms_per_mnode", "ms").from(READERS),
    lo("query.publish_share", "ratio").from(READERS),
    lo("query.point_ns", "ns").from(FIXTURE),
    lo("query.batch_ns_per_key", "ns").from(FIXTURE),
    hi("query.batch_prefix_reuse", "ratio").from(FIXTURE),
    lo("query.ray_us", "us").from(FIXTURE),
    lo("query.reader_batch_us_p50", "us").from(READERS),
    lo("query.reader_batch_us_p99", "us").from(READERS),
    lo("query.reader_late_frac", "ratio").from(READERS),
    lo("query.snapshot_age_ms_p50", "ms").from(READERS),
    lo("durable.journal_append_us_p50", "us").from(FIXTURE),
    lo("durable.journal_bytes_per_scan", "B").from(FIXTURE),
    hi("durable.checkpoint_mb_per_s", "MB/s").from(FIXTURE),
    lo("durable.recover_ms", "ms").from(FIXTURE),
    lo("supervisor.idle_overhead_frac", "ratio").from(FIXTURE),
    lo("telemetry.recorder_overhead_frac", "ratio").from(FIXTURE),
    lo("telemetry.events_overhead_frac", "ratio").from(FIXTURE),
    lo("telemetry.events_dropped_frac", "ratio").from(FIXTURE),
    lo("sim.plan_us_p50", "us").from(PLANNERS),
    lo("sim.astar_ms_p50", "ms").from(PLANNERS),
    lo("sim.queries_per_cycle", "count").from(PLANNERS),
    hi("sim.plan_queries_per_s", "1/s").from(PLANNERS),
    lo("datasets.gen_s", "s"),
    hi("datasets.dup_factor", "ratio").from(FIXTURE),
    hi("datasets.overlap", "ratio").from(FIXTURE),
    hi("floor.memcpy_gb_per_s", "GB/s").from(FIXTURE),
    lo("floor.random_read_ns", "ns").from(FIXTURE),
    lo("floor.seq_read_ns", "ns").from(FIXTURE),
    lo("trace.overhead_frac", "ratio"),
    hi("trace.span_coverage_min", "ratio"),
    lo("trace.spans", "count"),
    hi("trace.replay_matches_engine", "count"),
];

/// Measured metrics as a JSON object, `{name: {"value": …, "unit": …}}` in
/// table order: the shape the contract's result line wants. Given the
/// workload, every entry also says where its figure comes from
/// ([`Metric::source`]), as the report of `trace` does.
pub fn to_json<'a>(
    metrics: impl IntoIterator<Item = (&'a Metric, f64)>,
    spec: Option<&Spec>,
) -> Value {
    let entries = metrics
        .into_iter()
        .map(|(m, v)| {
            let mut entry = vec![
                ("value".to_string(), Value::F64(v)),
                ("unit".to_string(), Value::Str(m.unit.to_string())),
            ];
            if let Some(spec) = spec {
                let source = Value::Str(m.source(spec).to_string());
                entry.push(("source".to_string(), source));
            }
            (m.name.to_string(), Value::Map(entry))
        })
        .collect();
    Value::Map(entries)
}

/// Values for the names of one table, filled in any order and emitted in the
/// table's order. Emitting panics on a missing or non-finite value, so a
/// metric can never silently drop out of a report.
#[derive(Debug)]
pub struct Values {
    table: &'static [Metric],
    values: Vec<Option<f64>>,
}

impl Values {
    pub fn new(table: &'static [Metric]) -> Values {
        Values {
            table,
            values: vec![None; table.len()],
        }
    }

    /// Sets the shares and counts of layers the workload never enters to 0,
    /// by name: a metric nobody sets panics in [`Values::finish`].
    pub fn not_entered(&mut self, names: &[&str]) {
        for name in names {
            self.set(name, 0.0);
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the metric table"));
        self.values[i] = Some(value);
    }

    /// `(metric, value)` in table order.
    pub fn finish(self) -> Vec<(Metric, f64)> {
        self.table
            .iter()
            .zip(self.values)
            .map(|(m, v)| {
                let v = v.unwrap_or_else(|| panic!("{} was never measured", m.name));
                assert!(v.is_finite(), "{} is not finite", m.name);
                (*m, v)
            })
            .collect()
    }
}
