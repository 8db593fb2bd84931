//! Workflow phases: the per-phase time decomposition ([`PhaseTimes`]) and
//! its histogram-backed counterpart ([`PhaseHistograms`]).

use std::fmt;
use std::ops::{Add, AddAssign};
use std::time::Duration;

use serde::{Deserialize, Error, Serialize, Value};

use crate::hist::Histogram;

/// Wall-clock time spent in each phase of the mapping workflow.
///
/// Mirrors the decomposition of the paper's Figure 13/22 and Table 3:
/// ray tracing, cache insertion, cache eviction, octree update, shared-buffer
/// enqueue/dequeue and thread-1 wait (the mutex acquisition gap of the
/// parallel design). Phases that do not apply to a given backend stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Point cloud → voxel batch conversion.
    pub ray_tracing: Duration,
    /// Cache insertion (including octree seeding on misses).
    pub cache_insert: Duration,
    /// Cache eviction scan.
    pub cache_evict: Duration,
    /// Octree updates (on the critical thread for serial backends, on
    /// thread 2 for the parallel ones).
    pub octree_update: Duration,
    /// Hand-off on thread 1: spawning the octree thread (parallel only).
    pub enqueue: Duration,
    /// Hand-off on thread 2: from the spawn to the octree thread running
    /// (parallel only).
    pub dequeue: Duration,
    /// Thread 1 time spent joining the octree thread that applies the
    /// batch in flight (parallel only).
    pub wait: Duration,
}

impl PhaseTimes {
    /// Sum of every phase.
    pub fn total(&self) -> Duration {
        self.ray_tracing
            + self.cache_insert
            + self.cache_evict
            + self.octree_update
            + self.enqueue
            + self.dequeue
            + self.wait
    }

    /// Time spent on the critical (query-blocking) path of thread 1:
    /// everything except the octree update and dequeue, which the parallel
    /// design moves to thread 2.
    pub fn critical_path(&self) -> Duration {
        self.ray_tracing + self.cache_insert + self.cache_evict + self.enqueue + self.wait
    }

    /// The duration of one phase.
    pub fn get(&self, phase: Phase) -> Duration {
        match phase {
            Phase::RayTracing => self.ray_tracing,
            Phase::CacheInsert => self.cache_insert,
            Phase::CacheEvict => self.cache_evict,
            Phase::OctreeUpdate => self.octree_update,
            Phase::Enqueue => self.enqueue,
            Phase::Dequeue => self.dequeue,
            Phase::Wait => self.wait,
        }
    }
}

impl Add for PhaseTimes {
    type Output = PhaseTimes;
    fn add(self, rhs: PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            ray_tracing: self.ray_tracing + rhs.ray_tracing,
            cache_insert: self.cache_insert + rhs.cache_insert,
            cache_evict: self.cache_evict + rhs.cache_evict,
            octree_update: self.octree_update + rhs.octree_update,
            enqueue: self.enqueue + rhs.enqueue,
            dequeue: self.dequeue + rhs.dequeue,
            wait: self.wait + rhs.wait,
        }
    }
}

impl AddAssign for PhaseTimes {
    fn add_assign(&mut self, rhs: PhaseTimes) {
        *self = *self + rhs;
    }
}

impl fmt::Display for PhaseTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ray={:.3?} insert={:.3?} evict={:.3?} tree={:.3?} enq={:.3?} deq={:.3?} wait={:.3?}",
            self.ray_tracing,
            self.cache_insert,
            self.cache_evict,
            self.octree_update,
            self.enqueue,
            self.dequeue,
            self.wait
        )
    }
}

/// One phase of the mapping workflow (the fields of [`PhaseTimes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Point cloud → voxel batch conversion.
    RayTracing,
    /// Cache insertion.
    CacheInsert,
    /// Cache eviction scan.
    CacheEvict,
    /// Octree update.
    OctreeUpdate,
    /// Shared-buffer enqueue (thread 1).
    Enqueue,
    /// Shared-buffer dequeue (thread 2).
    Dequeue,
    /// Thread-1 wait on the octree mutex / pipeline.
    Wait,
}

impl Phase {
    /// Every phase, in the display order used by reports.
    pub const ALL: [Phase; 7] = [
        Phase::RayTracing,
        Phase::CacheInsert,
        Phase::CacheEvict,
        Phase::OctreeUpdate,
        Phase::Enqueue,
        Phase::Dequeue,
        Phase::Wait,
    ];

    /// Short stable label (used as JSON keys and table rows).
    pub fn label(&self) -> &'static str {
        match self {
            Phase::RayTracing => "ray_tracing",
            Phase::CacheInsert => "cache_insert",
            Phase::CacheEvict => "cache_evict",
            Phase::OctreeUpdate => "octree_update",
            Phase::Enqueue => "enqueue",
            Phase::Dequeue => "dequeue",
            Phase::Wait => "wait",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One latency [`Histogram`] per workflow phase.
///
/// The histogram-backed counterpart of mean-only [`PhaseTimes`]
/// accumulation: a [`crate::TraceSummary`] records each scan's per-phase
/// durations here, so p50/p90/p99 survive aggregation (a mean hides the
/// tail that gates the UAV control loop). [`PhaseTimes`] remains the cheap
/// summary view a backend keeps live.
#[derive(Debug, Clone, Default)]
pub struct PhaseHistograms {
    hists: [Histogram; 7],
}

impl PhaseHistograms {
    /// Empty histograms for every phase.
    pub fn new() -> Self {
        Self::default()
    }

    /// The histogram of one phase.
    pub fn get(&self, phase: Phase) -> &Histogram {
        &self.hists[phase as usize]
    }

    /// Records one duration for one phase.
    pub fn record(&mut self, phase: Phase, d: Duration) {
        self.hists[phase as usize].record_duration(d);
    }

    /// Records every non-zero phase of one scan's [`PhaseTimes`].
    ///
    /// Zero phases are skipped so that backends which never touch a phase
    /// (e.g. `enqueue` on the serial backend) do not drown its percentiles
    /// in zeros.
    pub(crate) fn record_times(&mut self, times: &PhaseTimes) {
        for phase in Phase::ALL {
            let d = times.get(phase);
            if !d.is_zero() {
                self.record(phase, d);
            }
        }
    }

    /// Total recorded samples across all phases.
    pub fn samples(&self) -> u64 {
        self.hists.iter().map(Histogram::count).sum()
    }
}

impl Serialize for PhaseHistograms {
    fn to_value(&self) -> Value {
        Value::Map(
            Phase::ALL
                .iter()
                .map(|p| (p.label().to_string(), self.get(*p).to_value()))
                .collect(),
        )
    }
}

impl Deserialize for PhaseHistograms {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let mut out = PhaseHistograms::new();
        for phase in Phase::ALL {
            if let Some(h) = v.get(phase.label()) {
                out.hists[phase as usize] = Histogram::from_value(h)?;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn total_and_critical_path() {
        let t = PhaseTimes {
            ray_tracing: ms(10),
            cache_insert: ms(20),
            cache_evict: ms(5),
            octree_update: ms(40),
            enqueue: ms(1),
            dequeue: ms(2),
            wait: ms(3),
        };
        assert_eq!(t.total(), ms(81));
        assert_eq!(t.critical_path(), ms(39));
    }

    #[test]
    fn add_accumulates_fieldwise() {
        let a = PhaseTimes {
            ray_tracing: ms(1),
            ..Default::default()
        };
        let b = PhaseTimes {
            ray_tracing: ms(2),
            octree_update: ms(4),
            ..Default::default()
        };
        let mut c = a + b;
        assert_eq!(c.ray_tracing, ms(3));
        assert_eq!(c.octree_update, ms(4));
        c += b;
        assert_eq!(c.ray_tracing, ms(5));
    }

    #[test]
    fn display_mentions_phases() {
        let s = PhaseTimes::default().to_string();
        assert!(s.contains("ray=") && s.contains("wait="));
    }

    #[test]
    fn phase_times_serde_round_trip() {
        let t = PhaseTimes {
            ray_tracing: Duration::new(1, 500),
            cache_insert: ms(20),
            cache_evict: ms(5),
            octree_update: Duration::from_nanos(123_456_789),
            enqueue: ms(1),
            dequeue: ms(2),
            wait: Duration::from_micros(7),
        };
        let json = serde::json::to_string(&t);
        let back: PhaseTimes = serde::json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn get_matches_fields_for_every_phase() {
        let t = PhaseTimes {
            ray_tracing: ms(1),
            cache_insert: ms(2),
            cache_evict: ms(3),
            octree_update: ms(4),
            enqueue: ms(5),
            dequeue: ms(6),
            wait: ms(7),
        };
        let durations: Vec<Duration> = Phase::ALL.iter().map(|p| t.get(*p)).collect();
        assert_eq!(durations, (1..=7).map(ms).collect::<Vec<_>>());
        assert_eq!(t.total(), durations.iter().sum());
    }

    #[test]
    fn histograms_record_nonzero_phases_only() {
        let mut h = PhaseHistograms::new();
        h.record_times(&PhaseTimes {
            ray_tracing: ms(10),
            octree_update: ms(40),
            ..Default::default()
        });
        h.record_times(&PhaseTimes {
            ray_tracing: ms(20),
            ..Default::default()
        });
        assert_eq!(h.get(Phase::RayTracing).count(), 2);
        assert_eq!(h.get(Phase::OctreeUpdate).count(), 1);
        assert_eq!(h.get(Phase::Enqueue).count(), 0);
        assert_eq!(h.samples(), 3);
        assert_eq!(h.get(Phase::RayTracing).max(), ms(20).as_nanos() as u64);
    }

    #[test]
    fn phase_histograms_serde_round_trip() {
        let mut h = PhaseHistograms::new();
        for i in 1..100u64 {
            h.record(Phase::RayTracing, Duration::from_micros(i));
            h.record(Phase::Wait, Duration::from_nanos(i * 3));
        }
        let json = serde::json::to_string(&h);
        let back: PhaseHistograms = serde::json::from_str(&json).unwrap();
        for p in Phase::ALL {
            assert_eq!(back.get(p).count(), h.get(p).count(), "{p}");
            assert_eq!(back.get(p).p99(), h.get(p).p99(), "{p}");
        }
    }
}
