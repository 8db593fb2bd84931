//! The self-healing supervisor: restart policy, memory governor, and
//! scan-admission gate.
//!
//! PR 3 gave the parallel pipeline a *failure* model — typed faults, an
//! integrity verdict, deterministic injection — whose answer to every
//! fault was to degrade and limp: a dead worker's evictions are applied
//! inline for the rest of the run. This module adds the *recovery* model
//! (DESIGN.md §7):
//!
//! * [`CacheConfig::max_restarts`] bounds how often the pipeline may
//!   respawn its dead worker. The respawn itself and the budget live in
//!   `parallel.rs` (it needs the retained batch and the octree).
//! * [`MemoryGovernor`] walks a graduated pressure ladder against the
//!   configured memory budget ([`CacheConfig::mem_budget`]): tighten
//!   cache τ-eviction, force a prune, and finally reject scans with
//!   [`PipelineError::OverBudget`](crate::fault::PipelineError). Each
//!   rung has hysteresis — it is entered above one threshold and left
//!   below a lower one — so the system oscillates gently instead of
//!   thrashing relief work on every scan.
//! * [`AdmissionGate`] sheds scans when the moving average of recent
//!   scan latencies exceeds the configured deadline
//!   ([`CacheConfig::shed_deadline`]) — bounded-latency load shedding
//!   for burst overload.
//!
//! All three are zero-cost when unconfigured: no budget means
//! [`MemoryGovernor::observe`] is never called, no deadline means the
//! gate admits unconditionally on one `Option` branch, and
//! `max_restarts = 0` short-circuits respawn before any worker state is
//! inspected.
//!
//! [`CacheConfig::max_restarts`]: crate::CacheConfig::max_restarts
//! [`CacheConfig::mem_budget`]: crate::CacheConfig::mem_budget
//! [`CacheConfig::shed_deadline`]: crate::CacheConfig::shed_deadline

use std::time::Duration;

use crate::engine::ScanReport;

/// What an executor's configuration contributes to the engine's
/// supervisor wiring: the memory budget for the governor and the
/// admission deadline for the gate. Executors without a
/// [`CacheConfig`](crate::CacheConfig) (the baselines) report the
/// default — both off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorParams {
    /// Memory budget in bytes; `None` disables the governor.
    pub mem_budget: Option<u64>,
    /// Scan-admission deadline; `None` disables deadline shedding.
    pub shed_deadline: Option<Duration>,
}

impl SupervisorParams {
    /// Reads the supervisor knobs off a config.
    pub fn from_config(config: &crate::CacheConfig) -> Self {
        SupervisorParams {
            mem_budget: config.mem_budget(),
            shed_deadline: config.shed_deadline(),
        }
    }
}

/// The memory governor's pressure ladder, least to most severe.
///
/// Reported per scan as
/// [`ScanRecord::pressure_level`](octocache_telemetry::ScanRecord).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum PressureLevel {
    /// Resident bytes comfortably under budget; no intervention.
    #[default]
    Normal,
    /// First rung: the cache is asked for an extra τ-eviction pass.
    Elevated,
    /// Second rung: the cache is drained and the octree pruned.
    Critical,
    /// Top rung: scans are rejected with
    /// [`PipelineError::OverBudget`](crate::fault::PipelineError) until
    /// resident bytes fall back under the rung's exit threshold.
    OverBudget,
}

impl PressureLevel {
    /// Stable lower-case label used in telemetry records and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            PressureLevel::Normal => "normal",
            PressureLevel::Elevated => "elevated",
            PressureLevel::Critical => "critical",
            PressureLevel::OverBudget => "over-budget",
        }
    }
}

impl std::fmt::Display for PressureLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Enter/exit thresholds (percent of budget) for each rung above
/// [`PressureLevel::Normal`]. Exit sits below enter — the hysteresis band
/// that keeps relief from re-firing on every scan while resident bytes
/// hover near a boundary. `OverBudget` enters at 90% so the soak
/// invariant "resident never exceeds budget" holds with headroom for the
/// one in-flight batch the cache may buffer past its threshold.
const LADDER: [(PressureLevel, u64, u64); 3] = [
    (PressureLevel::Elevated, 60, 50),
    (PressureLevel::Critical, 75, 65),
    (PressureLevel::OverBudget, 90, 80),
];

/// Tracks resident bytes against the budget and walks the pressure
/// ladder with hysteresis.
#[derive(Debug, Clone)]
pub struct MemoryGovernor {
    budget: u64,
    level: PressureLevel,
}

impl MemoryGovernor {
    /// A governor for `budget` bytes.
    pub fn new(budget: u64) -> Self {
        MemoryGovernor {
            budget,
            level: PressureLevel::Normal,
        }
    }

    /// The configured budget in bytes.
    #[inline]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The current rung.
    #[inline]
    pub fn level(&self) -> PressureLevel {
        self.level
    }

    /// Feeds one resident-bytes observation. Returns the rung after the
    /// observation and whether the ladder moved *up* — the signal on
    /// which the engine triggers relief work (relief runs once per
    /// upward transition, not once per scan at a sustained level).
    pub fn observe(&mut self, resident: u64) -> (PressureLevel, bool) {
        let pct = resident
            .saturating_mul(100)
            .checked_div(self.budget)
            .unwrap_or(100);
        let mut target = PressureLevel::Normal;
        for (rung, enter, exit) in LADDER {
            let threshold = if self.level >= rung { exit } else { enter };
            if pct >= threshold {
                target = rung;
            }
        }
        let went_up = target > self.level;
        self.level = target;
        (target, went_up)
    }
}

/// Why a scan was shed instead of applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShedReason {
    /// The memory governor's top rung: resident bytes at or above the
    /// reject threshold even after relief.
    OverBudget {
        /// Resident bytes observed after relief.
        resident_bytes: u64,
        /// The configured budget.
        budget_bytes: u64,
    },
    /// The admission gate's moving average of scan latencies exceeded
    /// the configured deadline.
    DeadlineExceeded {
        /// The latency average at admission time, in nanoseconds.
        ewma_ns: u64,
        /// The configured deadline.
        deadline: Duration,
    },
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::OverBudget {
                resident_bytes,
                budget_bytes,
            } => write!(
                f,
                "over memory budget ({:.1} of {:.1} MiB resident)",
                *resident_bytes as f64 / (1024.0 * 1024.0),
                *budget_bytes as f64 / (1024.0 * 1024.0)
            ),
            ShedReason::DeadlineExceeded { ewma_ns, deadline } => write!(
                f,
                "deadline exceeded (avg scan {:.2} ms > {:.2} ms)",
                *ewma_ns as f64 / 1e6,
                deadline.as_secs_f64() * 1e3
            ),
        }
    }
}

/// What happened to a scan submitted through
/// [`MappingSystem::submit_scan`](crate::MappingSystem::submit_scan).
#[derive(Debug, Clone)]
pub enum ScanOutcome {
    /// The scan was admitted and applied; the report is what
    /// `insert_scan` would have returned.
    Applied(ScanReport),
    /// The scan was shed by the admission gate or the memory governor.
    /// The map is unchanged by it (but the scan *was* journaled by the
    /// durability layer, flagged shed, so the journal stays a faithful
    /// input log).
    Shed(ShedReason),
}

impl ScanOutcome {
    /// The report, when the scan was applied.
    pub fn report(&self) -> Option<&ScanReport> {
        match self {
            ScanOutcome::Applied(r) => Some(r),
            ScanOutcome::Shed(_) => None,
        }
    }
}

/// EWMA weight of the newest latency sample (α = 0.3): a burst of slow
/// scans moves the average within a few samples, one outlier does not.
const EWMA_ALPHA: f64 = 0.3;

/// Deadline-aware scan admission: sheds while the latency average is
/// above the deadline, decaying the average on every shed so a finished
/// burst re-admits after a bounded number of rejections.
#[derive(Debug, Clone)]
pub struct AdmissionGate {
    deadline: Duration,
    ewma_ns: f64,
}

impl AdmissionGate {
    /// A gate that sheds when the average scan latency exceeds
    /// `deadline`.
    pub fn new(deadline: Duration) -> Self {
        AdmissionGate {
            deadline,
            ewma_ns: 0.0,
        }
    }

    /// The current latency average in nanoseconds.
    #[inline]
    pub fn ewma_ns(&self) -> u64 {
        self.ewma_ns as u64
    }

    /// Records the latency of an applied scan.
    pub fn observe_scan(&mut self, took: Duration) {
        let ns = took.as_nanos() as f64;
        if self.ewma_ns == 0.0 {
            self.ewma_ns = ns;
        } else {
            self.ewma_ns = (1.0 - EWMA_ALPHA) * self.ewma_ns + EWMA_ALPHA * ns;
        }
    }

    /// Admission check for the next scan: `Some(reason)` when it should
    /// be shed. Each shed decays the average, so shedding is
    /// self-limiting: after ~`log(overshoot)/log(1/(1-α))` rejections
    /// the gate re-admits and re-measures.
    pub fn admit(&mut self) -> Option<ShedReason> {
        let deadline_ns = self.deadline.as_nanos() as f64;
        if self.ewma_ns > deadline_ns {
            let reason = ShedReason::DeadlineExceeded {
                ewma_ns: self.ewma_ns as u64,
                deadline: self.deadline,
            };
            self.ewma_ns *= 1.0 - EWMA_ALPHA;
            Some(reason)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_levels_order_and_label() {
        assert!(PressureLevel::Normal < PressureLevel::Elevated);
        assert!(PressureLevel::Elevated < PressureLevel::Critical);
        assert!(PressureLevel::Critical < PressureLevel::OverBudget);
        assert_eq!(PressureLevel::Normal.as_str(), "normal");
        assert_eq!(PressureLevel::OverBudget.to_string(), "over-budget");
    }

    #[test]
    fn governor_walks_the_ladder_up_and_down() {
        let mut g = MemoryGovernor::new(1000);
        assert_eq!(g.observe(100), (PressureLevel::Normal, false));
        // Entering each rung reports an upward transition once.
        assert_eq!(g.observe(620), (PressureLevel::Elevated, true));
        assert_eq!(g.observe(620), (PressureLevel::Elevated, false));
        assert_eq!(g.observe(760), (PressureLevel::Critical, true));
        assert_eq!(g.observe(950), (PressureLevel::OverBudget, true));
        // Full relief drops straight back to normal.
        assert_eq!(g.observe(100), (PressureLevel::Normal, false));
    }

    #[test]
    fn governor_hysteresis_holds_a_rung_between_exit_and_enter() {
        let mut g = MemoryGovernor::new(1000);
        g.observe(620); // enter Elevated at >= 60%
                        // 55% is below enter (60%) but above exit (50%): the rung holds.
        assert_eq!(g.observe(550), (PressureLevel::Elevated, false));
        // Below exit: back to normal.
        assert_eq!(g.observe(490), (PressureLevel::Normal, false));
        // And 55% from below does NOT enter the rung.
        assert_eq!(g.observe(550), (PressureLevel::Normal, false));
    }

    #[test]
    fn governor_over_budget_exits_at_eighty_percent() {
        let mut g = MemoryGovernor::new(1000);
        assert_eq!(g.observe(900).0, PressureLevel::OverBudget);
        // 85% holds the reject rung (exit is 80%)…
        assert_eq!(g.observe(850).0, PressureLevel::OverBudget);
        // …79% leaves it (down to Critical's band).
        assert_eq!(g.observe(790).0, PressureLevel::Critical);
    }

    #[test]
    fn gate_sheds_on_sustained_slowness_then_recovers() {
        let mut gate = AdmissionGate::new(Duration::from_millis(10));
        // Fast scans: always admitted.
        for _ in 0..5 {
            assert!(gate.admit().is_none());
            gate.observe_scan(Duration::from_millis(1));
        }
        // A burst of slow scans pushes the average over the deadline.
        for _ in 0..16 {
            gate.observe_scan(Duration::from_millis(50));
        }
        let reason = gate.admit().expect("must shed");
        assert!(matches!(reason, ShedReason::DeadlineExceeded { .. }));
        // Shedding decays the average; the gate re-admits in bounded steps.
        let mut sheds = 1;
        while gate.admit().is_some() {
            sheds += 1;
            assert!(sheds < 100, "gate never re-admitted");
        }
        assert!(sheds >= 2, "a 5x overshoot sheds more than once");
    }

    #[test]
    fn shed_reasons_display() {
        let a = ShedReason::OverBudget {
            resident_bytes: 900,
            budget_bytes: 1000,
        };
        let b = ShedReason::DeadlineExceeded {
            ewma_ns: 5_000_000,
            deadline: Duration::from_millis(2),
        };
        assert!(!a.to_string().is_empty());
        assert!(b.to_string().contains("5.00 ms"));
    }
}
