//! The supervisor: memory budget and scan-admission gate.
//!
//! * [`CacheConfig::mem_budget`] is one threshold at the scan boundary:
//!   the engine admits a scan iff the executor's resident bytes are below
//!   it, and otherwise sheds it with [`ShedReason::OverBudget`]. The
//!   footprint never shrinks (the octree pool only grows, the cache's
//!   records are allocated once), so once the budget refuses a scan the map stops
//!   growing for the rest of the run.
//! * `AdmissionGate` sheds scans when the moving average of recent
//!   scan latencies exceeds the configured deadline
//!   ([`CacheConfig::shed_deadline`]) — bounded-latency load shedding
//!   for burst overload.
//!
//! Both checks form one verdict, asked by
//! [`MappingSystem::admit`](crate::MappingSystem::admit) at the top of
//! every [`MappingSystem::insert_scan`](crate::MappingSystem::insert_scan):
//! the gate first, then the budget. A refused scan returns
//! [`PipelineError::Shed`](crate::fault::PipelineError::Shed), leaves the
//! map unchanged and is counted once, in the next applied scan's
//! `ScanRecord::sheds` (or, after the last applied scan, in the trailing
//! record `finish` writes).
//!
//! Both are zero-cost when unconfigured: no budget means resident bytes
//! are never measured, and no deadline means the gate admits
//! unconditionally on one `Option` branch.
//!
//! [`CacheConfig::mem_budget`]: crate::CacheConfig::mem_budget
//! [`CacheConfig::shed_deadline`]: crate::CacheConfig::shed_deadline

use std::time::Duration;

/// Why a scan was shed instead of applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShedReason {
    /// Resident bytes at or above the configured memory budget.
    OverBudget {
        /// Resident bytes observed at the scan boundary.
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

/// EWMA weight of the newest latency sample (α = 0.3): a burst of slow
/// scans moves the average within a few samples, one outlier does not.
const EWMA_ALPHA: f64 = 0.3;

/// Deadline-aware scan admission: sheds while the latency average is
/// above the deadline, decaying the average on every shed so a finished
/// burst re-admits after a bounded number of rejections.
#[derive(Debug, Clone)]
pub(crate) struct AdmissionGate {
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

    /// Records the latency of an applied scan.
    pub(crate) fn observe_scan(&mut self, took: Duration) {
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
