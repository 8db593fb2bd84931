//! Typed pipeline failures, map-integrity reporting, and deterministic
//! fault injection for the parallel pipeline.
//!
//! The parallel OctoCache moves octree updates onto a worker thread, which
//! introduces failure modes the serial backends cannot have: the worker can
//! panic mid-batch, wedge while holding the octree mutex, or never spawn at
//! all. This module gives those failures names ([`PipelineError`]), gives
//! the map a verdict after they happen ([`Integrity`]), counts them
//! ([`FaultCounters`]), and — under `cfg(any(test, feature =
//! "fault-injection"))` — lets tests schedule them deterministically
//! ([`FaultPlan`]).
//!
//! The recovery contract (see `DESIGN.md`, "Failure model & degraded
//! modes") rests on one property of the eviction stream: evicted cells
//! carry the voxel's *absolute* accumulated log-odds and are applied with
//! an overwriting store, so re-applying a batch — even one a dead worker
//! half-applied — is idempotent and restores exactly the state a healthy
//! worker would have produced.

use std::fmt;
use std::time::Duration;

use octocache_geom::GeomError;

/// A typed failure from a mapping pipeline.
///
/// Returned by [`crate::MappingSystem::insert_scan`]; the serial backends
/// only ever produce the [`PipelineError::Geom`] variant, the parallel
/// pipeline produces all of them. Every variant except `Geom` implies the
/// pipeline has taken a worker out of rotation and the map's
/// [`Integrity`] is no longer [`Integrity::Intact`].
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The scan itself was invalid (non-finite or out-of-grid origin).
    /// The scan was not applied; the map is unchanged by it.
    Geom(GeomError),
    /// The octree-update worker panicked while processing `batch`. The
    /// producer re-applied the retained batch inline, so the map stays
    /// consistent; evictions are applied inline from now on.
    WorkerPanicked {
        /// 0-based batch index the worker died on.
        batch: u64,
    },
    /// The worker thread could not be spawned; evictions are applied
    /// inline on the producer thread instead.
    WorkerSpawn {
        /// The OS error message.
        reason: String,
    },
    /// The worker stopped making progress and the bounded backoff expired
    /// after `waited`. The worker is taken out of rotation but cannot be
    /// joined (it may be wedged); see [`Integrity::Compromised`].
    QueueStalled {
        /// How long the producer waited before giving up.
        waited: Duration,
    },
    /// A batch could not be applied inline because a wedged worker holds
    /// the octree mutex: `cells_dropped` evicted cells are missing from
    /// the map.
    PartialScan {
        /// 0-based batch index that was left unapplied.
        batch: u64,
        /// Evicted cells of the batch that were not applied.
        cells_dropped: u64,
    },
    /// The durability layer failed to journal or checkpoint the scan
    /// ([`crate::durable::DurableMap`]). The scan was **not** applied to the
    /// wrapped backend: the write-ahead contract ("journaled before
    /// applied") holds, so the durable state never lags the in-memory map.
    Durable(crate::durable::DurableError),
    /// The memory governor's top rung: resident bytes exceeded the
    /// configured [`MemoryBudget`](crate::CacheConfig::mem_budget) even
    /// after forced eviction and pruning, so the scan was rejected before
    /// it touched the map. The map is unchanged by it; integrity is
    /// unaffected (rejection is back-pressure, not corruption).
    OverBudget {
        /// Resident bytes observed after relief attempts.
        resident_bytes: u64,
        /// The configured budget in bytes.
        budget_bytes: u64,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Geom(e) => write!(f, "invalid scan geometry: {e}"),
            PipelineError::WorkerPanicked { batch } => {
                write!(f, "the octree worker panicked on batch {batch}")
            }
            PipelineError::WorkerSpawn { reason } => {
                write!(f, "the octree worker failed to spawn: {reason}")
            }
            PipelineError::QueueStalled { waited } => write!(
                f,
                "the octree worker stalled (waited {:.1} ms past deadline)",
                waited.as_secs_f64() * 1e3
            ),
            PipelineError::PartialScan {
                batch,
                cells_dropped,
            } => write!(
                f,
                "batch {batch} was left unapplied behind a wedged octree worker ({cells_dropped} cells)"
            ),
            PipelineError::Durable(e) => write!(f, "durable storage: {e}"),
            PipelineError::OverBudget {
                resident_bytes,
                budget_bytes,
            } => write!(
                f,
                "scan rejected: resident {:.1} MiB over the {:.1} MiB memory budget",
                *resident_bytes as f64 / (1024.0 * 1024.0),
                *budget_bytes as f64 / (1024.0 * 1024.0)
            ),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Geom(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GeomError> for PipelineError {
    fn from(e: GeomError) -> Self {
        PipelineError::Geom(e)
    }
}

/// The map-consistency verdict a mapping backend reports after faults.
///
/// Ordered by severity: [`Integrity::escalate`] only ever moves toward
/// [`Integrity::Compromised`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Integrity {
    /// No fault has occurred; full parallelism, map exact.
    #[default]
    Intact,
    /// Parallelism was lost (a worker died, stalled, or never spawned)
    /// but every evicted cell was confirmed applied or re-applied: the
    /// map is still voxel-for-voxel what the serial backend would hold.
    Degraded,
    /// A worker may still apply stale values after newer inline writes,
    /// or cells could not be re-applied: the map may diverge from the
    /// serial reference.
    Compromised,
}

impl Integrity {
    /// True for any state other than [`Integrity::Intact`].
    #[inline]
    pub fn is_degraded(&self) -> bool {
        !matches!(self, Integrity::Intact)
    }

    /// Raises the verdict to `to` if it is more severe than the current
    /// state (never lowers it).
    #[inline]
    pub fn escalate(&mut self, to: Integrity) {
        if to > *self {
            *self = to;
        }
    }

    /// The one sanctioned downward transition: [`Integrity::Degraded`] →
    /// [`Integrity::Intact`], taken by the supervisor after every dead
    /// worker has been respawned and its retained share re-applied.
    /// Returns whether the heal happened. [`Integrity::Compromised`]
    /// never heals — once cells may have been lost or overwritten stale,
    /// no respawn can prove the map exact again.
    #[inline]
    pub fn heal(&mut self) -> bool {
        if *self == Integrity::Degraded {
            *self = Integrity::Intact;
            true
        } else {
            false
        }
    }
}

impl fmt::Display for Integrity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Integrity::Intact => write!(f, "intact"),
            Integrity::Degraded => write!(f, "degraded"),
            Integrity::Compromised => write!(f, "compromised"),
        }
    }
}

/// Cumulative fault and degraded-mode counters of one pipeline instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Worker threads that died by panic.
    pub worker_panics: u64,
    /// Worker threads that failed to spawn.
    pub spawn_failures: u64,
    /// Bounded waits that expired ([`PipelineError::QueueStalled`]).
    pub stall_timeouts: u64,
    /// Batches left unapplied behind a wedged worker
    /// ([`PipelineError::PartialScan`]).
    pub partial_batches: u64,
    /// Batches applied inline because the worker was out of rotation.
    pub batches_rerouted: u64,
    /// Evicted cells re-applied (or applied inline) by the producer.
    pub cells_reapplied: u64,
    /// Worker threads respawned by the supervisor
    /// ([`CacheConfig::max_restarts`](crate::CacheConfig::max_restarts)).
    pub restarts: u64,
    /// Integrity transitions back to [`Integrity::Intact`] after every
    /// dead worker was respawned.
    pub heals: u64,
}

impl FaultCounters {
    /// Per-field difference `self - earlier` (saturating), for per-scan
    /// telemetry deltas.
    pub fn since(&self, earlier: &FaultCounters) -> FaultCounters {
        FaultCounters {
            worker_panics: self.worker_panics.saturating_sub(earlier.worker_panics),
            spawn_failures: self.spawn_failures.saturating_sub(earlier.spawn_failures),
            stall_timeouts: self.stall_timeouts.saturating_sub(earlier.stall_timeouts),
            partial_batches: self.partial_batches.saturating_sub(earlier.partial_batches),
            batches_rerouted: self
                .batches_rerouted
                .saturating_sub(earlier.batches_rerouted),
            cells_reapplied: self.cells_reapplied.saturating_sub(earlier.cells_reapplied),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            heals: self.heals.saturating_sub(earlier.heals),
        }
    }

    /// True when any counter is non-zero.
    pub fn any(&self) -> bool {
        *self != FaultCounters::default()
    }
}

/// One recorded change of a map's [`Integrity`] verdict.
///
/// The history makes heals *visible*: a run that degraded on scan 3 and
/// healed on scan 4 ends at [`Integrity::Intact`], indistinguishable from
/// a clean run by the sticky verdict alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityTransition {
    /// 0-based scan sequence number during which the transition happened.
    pub scan: u64,
    /// Verdict before.
    pub from: Integrity,
    /// Verdict after.
    pub to: Integrity,
}

impl fmt::Display for IntegrityTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scan {}: {} → {}", self.scan, self.from, self.to)
    }
}

/// An [`Integrity`] verdict plus the full history of its transitions.
///
/// The parallel pipeline holds one of these instead of a bare verdict;
/// [`IntegrityState::escalate`] and [`IntegrityState::heal`] append to the
/// history, stamped with the scan set by [`IntegrityState::set_scan`] at
/// each scan boundary.
#[derive(Debug, Clone, Default)]
pub struct IntegrityState {
    current: Integrity,
    history: Vec<IntegrityTransition>,
    scan: u64,
}

impl IntegrityState {
    /// The current verdict.
    #[inline]
    pub fn current(&self) -> Integrity {
        self.current
    }

    /// True for any verdict other than [`Integrity::Intact`].
    #[inline]
    pub fn is_degraded(&self) -> bool {
        self.current.is_degraded()
    }

    /// Every transition taken so far, oldest first.
    pub fn history(&self) -> &[IntegrityTransition] {
        &self.history
    }

    /// Stamps the scan sequence number subsequent transitions are
    /// attributed to.
    #[inline]
    pub fn set_scan(&mut self, scan: u64) {
        self.scan = scan;
    }

    /// [`Integrity::escalate`], recording the transition if one happened.
    pub fn escalate(&mut self, to: Integrity) {
        let from = self.current;
        self.current.escalate(to);
        if self.current != from {
            self.history.push(IntegrityTransition {
                scan: self.scan,
                from,
                to: self.current,
            });
        }
    }

    /// [`Integrity::heal`], recording the transition if one happened.
    pub fn heal(&mut self) -> bool {
        let from = self.current;
        if self.current.heal() {
            self.history.push(IntegrityTransition {
                scan: self.scan,
                from,
                to: self.current,
            });
            true
        } else {
            false
        }
    }
}

/// Stall coordinates: when the worker sleeps, and for how long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallAt {
    /// 0-based batch index at which the stall fires.
    pub batch: u64,
    /// Stall duration in microseconds.
    pub micros: u64,
}

/// A deterministic fault-injection schedule for one pipeline instance.
///
/// Stored on [`crate::CacheConfig`] (via
/// [`crate::CacheConfigBuilder::fault_plan`]); the hooks that act on it
/// are compiled only under `cfg(any(test, feature = "fault-injection"))`
/// and are zero-cost no-ops otherwise. There is one octree worker, so a
/// plan holds batch indices, not worker indices.
///
/// The CLI derives a plan from the `OCTO_FAULT` environment variable (or
/// `--fault`); embedders can call [`FaultPlan::from_env`] themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Panic the worker at the start of this 0-based batch.
    pub kill: Option<u64>,
    /// Sleep the worker for `stall.micros` µs at the start of batch
    /// `stall.batch`.
    pub stall: Option<StallAt>,
    /// Fail the worker's thread spawn.
    pub fail_spawn: bool,
    /// Panic the worker once every this many batches of its (possibly
    /// respawned) thread's life: the fault fires when
    /// `(batch + 1) % every == 0`, so a freshly respawned thread — whose
    /// local batch index restarts at 0 — survives `every - 1` batches
    /// before dying again, and a restart budget is eventually exhausted.
    pub kill_every: Option<u64>,
}

/// xorshift64* step — a tiny deterministic generator so plans need no RNG
/// dependency.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl FaultPlan {
    /// Derives a plan of at most one fault deterministically from `seed`:
    /// the fault kind, batch index and stall length are all pure functions
    /// of the seed. One seed in four draws the kind that once shrank the
    /// ring and now plans no fault — a clean run — so every other seed
    /// keeps the plan it always had.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut s = seed ^ 0x9E37_79B9_7F4A_7C15;
        if s == 0 {
            s = 1;
        }
        let kind = xorshift(&mut s) % 4;
        xorshift(&mut s); // the draw that once picked a worker index: seeds keep their plans
        let batch = xorshift(&mut s) % 6;
        let micros = 100 + xorshift(&mut s) % 5_000;
        let mut plan = FaultPlan::default();
        match kind {
            0 => plan.kill = Some(batch),
            1 => plan.stall = Some(StallAt { batch, micros }),
            2 => plan.fail_spawn = true,
            _ => {}
        }
        plan
    }

    /// Parses a fault spec string:
    ///
    /// * `kill:<worker>@<batch>` — panic the worker at that batch,
    /// * `stall:<worker>@<batch>:<micros>` — sleep that long instead,
    /// * `spawn:<worker>` — fail the worker's thread spawn,
    /// * `killevery:<worker>@<n>` — panic the worker every `n` batches,
    ///   across respawns,
    /// * `seed:<n>` — same as [`FaultPlan::from_seed`].
    ///
    /// `<worker>` is a leftover of the N-worker grammar: it must parse as
    /// an index, and every index names the one worker.
    ///
    /// Returns `None` for anything malformed (injection is best-effort
    /// tooling; a bad spec must never panic a host process).
    pub fn from_spec(spec: &str) -> Option<FaultPlan> {
        let (kind, rest) = spec.split_once(':')?;
        /// Strips and validates the `<worker>@` prefix.
        fn after_worker(s: &str) -> Option<&str> {
            let (w, tail) = s.split_once('@')?;
            w.parse::<usize>().ok()?;
            Some(tail)
        }
        let mut plan = FaultPlan::default();
        match kind {
            "kill" => plan.kill = Some(after_worker(rest)?.parse().ok()?),
            "stall" => {
                let (b, us) = after_worker(rest)?.split_once(':')?;
                plan.stall = Some(StallAt {
                    batch: b.parse().ok()?,
                    micros: us.parse().ok()?,
                });
            }
            "spawn" => {
                rest.parse::<usize>().ok()?;
                plan.fail_spawn = true;
            }
            "killevery" => {
                let every: u64 = after_worker(rest)?.parse().ok()?;
                if every == 0 {
                    return None;
                }
                plan.kill_every = Some(every);
            }
            "seed" => return Some(FaultPlan::from_seed(rest.parse().ok()?)),
            _ => return None,
        }
        Some(plan)
    }

    /// Reads a plan from the environment: `OCTO_FAULT` (a
    /// [`FaultPlan::from_spec`] string) first, then `OCTO_FAULT_SEED` (a
    /// [`FaultPlan::from_seed`] seed). `None` when neither is set or the
    /// value is malformed.
    pub fn from_env() -> Option<FaultPlan> {
        if let Ok(spec) = std::env::var("OCTO_FAULT") {
            return FaultPlan::from_spec(&spec);
        }
        if let Ok(seed) = std::env::var("OCTO_FAULT_SEED") {
            return Some(FaultPlan::from_seed(seed.parse().ok()?));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let errors = [
            PipelineError::Geom(GeomError::NotFinite),
            PipelineError::WorkerPanicked { batch: 5 },
            PipelineError::WorkerSpawn {
                reason: "out of threads".into(),
            },
            PipelineError::QueueStalled {
                waited: Duration::from_millis(12),
            },
            PipelineError::PartialScan {
                batch: 7,
                cells_dropped: 41,
            },
            PipelineError::OverBudget {
                resident_bytes: 64 << 20,
                budget_bytes: 32 << 20,
            },
        ];
        for e in &errors {
            assert!(!e.to_string().is_empty());
        }
        // Geom errors keep their source chain for `?`-style reporting.
        use std::error::Error as _;
        assert!(errors[0].source().is_some());
        assert!(errors[1].source().is_none());
    }

    #[test]
    fn geom_errors_convert() {
        fn takes_pipeline() -> Result<(), PipelineError> {
            Err(GeomError::NotFinite)?
        }
        assert_eq!(
            takes_pipeline(),
            Err(PipelineError::Geom(GeomError::NotFinite))
        );
    }

    #[test]
    fn integrity_escalates_monotonically() {
        let mut i = Integrity::Intact;
        assert!(!i.is_degraded());
        i.escalate(Integrity::Degraded);
        assert_eq!(i, Integrity::Degraded);
        assert!(i.is_degraded());
        i.escalate(Integrity::Intact); // never lowers
        assert_eq!(i, Integrity::Degraded);
        i.escalate(Integrity::Compromised);
        i.escalate(Integrity::Degraded);
        assert_eq!(i, Integrity::Compromised);
        assert_eq!(i.to_string(), "compromised");
    }

    #[test]
    fn counters_since_and_any() {
        let a = FaultCounters {
            worker_panics: 2,
            batches_rerouted: 10,
            ..Default::default()
        };
        let b = FaultCounters {
            worker_panics: 3,
            batches_rerouted: 14,
            cells_reapplied: 5,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.worker_panics, 1);
        assert_eq!(d.batches_rerouted, 4);
        assert_eq!(d.cells_reapplied, 5);
        assert!(d.any());
        assert!(!FaultCounters::default().any());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_single_fault() {
        for seed in 0..64u64 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a, b, "seed {seed}");
            let faults = [a.kill.is_some(), a.stall.is_some(), a.fail_spawn];
            assert!(
                faults.iter().filter(|&&f| f).count() <= 1 && a.kill_every.is_none(),
                "seed {seed} must plan at most one fault: {a:?}"
            );
        }
        // CI's seeds keep the plans they always drew.
        assert_eq!(FaultPlan::from_seed(1).kill, Some(5));
        assert!(FaultPlan::from_seed(7).fail_spawn && FaultPlan::from_seed(23).fail_spawn);
        // Different seeds reach different plans (not a constant function).
        let distinct: std::collections::HashSet<String> = (0..64u64)
            .map(|s| format!("{:?}", FaultPlan::from_seed(s)))
            .collect();
        assert!(distinct.len() > 4, "only {} distinct plans", distinct.len());
    }

    #[test]
    fn spec_parsing_round_trips_and_rejects_garbage() {
        assert_eq!(
            FaultPlan::from_spec("kill:2@5"),
            Some(FaultPlan {
                kill: Some(5),
                ..Default::default()
            })
        );
        assert_eq!(
            FaultPlan::from_spec("stall:1@3:2500"),
            Some(FaultPlan {
                stall: Some(StallAt {
                    batch: 3,
                    micros: 2500
                }),
                ..Default::default()
            })
        );
        assert_eq!(
            FaultPlan::from_spec("spawn:7"),
            Some(FaultPlan {
                fail_spawn: true,
                ..Default::default()
            })
        );
        assert_eq!(
            FaultPlan::from_spec("seed:42"),
            Some(FaultPlan::from_seed(42))
        );
        assert_eq!(
            FaultPlan::from_spec("killevery:1@3"),
            Some(FaultPlan {
                kill_every: Some(3),
                ..Default::default()
            })
        );
        for bad in [
            "",
            "kill",
            "kill:",
            "kill:2",
            "kill:x@y",
            "stall:1@3",
            "explode:1",
            "kill:x@5",
            "stall:w@3:2500",
            "spawn:abc",
            "fill:",
            "fill:0",
            "killevery:1",
            "killevery:1@0",
            "killevery:x@2",
        ] {
            assert_eq!(FaultPlan::from_spec(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn heal_is_degraded_to_intact_only() {
        let mut i = Integrity::Intact;
        assert!(!i.heal(), "intact has nothing to heal");
        i.escalate(Integrity::Degraded);
        assert!(i.heal());
        assert_eq!(i, Integrity::Intact);
        i.escalate(Integrity::Compromised);
        assert!(!i.heal(), "compromised never heals");
        assert_eq!(i, Integrity::Compromised);
    }

    #[test]
    fn integrity_state_records_transition_history() {
        let mut s = IntegrityState::default();
        assert_eq!(s.current(), Integrity::Intact);
        assert!(s.history().is_empty());
        s.set_scan(3);
        s.escalate(Integrity::Degraded);
        s.escalate(Integrity::Degraded); // no-op: no duplicate entry
        s.set_scan(5);
        assert!(s.heal());
        assert!(!s.heal());
        s.set_scan(7);
        s.escalate(Integrity::Compromised);
        assert!(!s.heal());
        let hist = s.history();
        assert_eq!(hist.len(), 3);
        assert_eq!(
            hist[0],
            IntegrityTransition {
                scan: 3,
                from: Integrity::Intact,
                to: Integrity::Degraded
            }
        );
        assert_eq!(
            hist[1],
            IntegrityTransition {
                scan: 5,
                from: Integrity::Degraded,
                to: Integrity::Intact
            }
        );
        assert_eq!(hist[2].to, Integrity::Compromised);
        assert_eq!(hist[1].to_string(), "scan 5: degraded → intact");
    }

    #[test]
    fn counters_track_restarts_and_heals() {
        let a = FaultCounters {
            restarts: 1,
            heals: 1,
            ..Default::default()
        };
        let b = FaultCounters {
            restarts: 4,
            heals: 2,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.restarts, 3);
        assert_eq!(d.heals, 1);
        assert!(d.any());
    }
}
