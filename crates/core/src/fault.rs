//! Typed pipeline failures and deterministic fault injection for the
//! parallel pipeline.
//!
//! The parallel OctoCache applies each eviction batch on a scoped octree
//! thread, which brings two failure modes the serial backends cannot have:
//! the thread can panic mid-batch, or fail to spawn at all. This module
//! gives those failures names ([`PipelineError`]), counts them
//! ([`FaultCounters`]), and lets tests schedule them deterministically
//! ([`FaultPlan`], a test-only failpoint compiled into every build).
//! A scan the supervisor refuses is not a fault but shares the error
//! type: [`PipelineError::Shed`], the one shape of a refusal.
//!
//! The recovery contract (see `DESIGN.md`, "Failure model") rests on one
//! property of the eviction stream: evicted cells carry the voxel's
//! *absolute* accumulated log-odds and are applied with an overwriting
//! store, so re-applying a batch — even one a dead thread half-applied —
//! is idempotent and restores exactly the state a healthy thread would
//! have produced. Every fault therefore leaves the map exact.

use std::fmt;

use octocache_geom::GeomError;

/// A typed failure from a mapping pipeline.
///
/// Returned by [`crate::MappingSystem::insert_scan`]. Every backend can
/// produce [`PipelineError::Geom`] and [`PipelineError::Shed`], which
/// leave the map unchanged; a durable map adds [`PipelineError::Durable`].
/// [`PipelineError::WorkerPanicked`] comes only from the parallel
/// pipeline, after the batch was re-applied inline: the map stays exact.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The scan itself was invalid (non-finite or out-of-grid origin).
    /// The scan was not applied; the map is unchanged by it.
    Geom(GeomError),
    /// The octree thread panicked while applying `batch`. The caller
    /// re-applied the batch inline, so the map stays exact; the next scan
    /// spawns a thread again.
    WorkerPanicked {
        /// 0-based batch index the worker died on.
        batch: u64,
    },
    /// The octree thread could not be spawned; the batch was applied
    /// inline on the caller's thread instead.
    WorkerSpawn {
        /// The OS error message.
        reason: String,
    },
    /// The durability layer failed to journal or checkpoint the scan
    /// ([`crate::durable::DurableMap`]). The scan was **not** applied to the
    /// wrapped backend: the write-ahead contract ("journaled before
    /// applied") holds, so the durable state never lags the in-memory map.
    Durable(crate::durable::DurableError),
    /// The supervisor refused the scan before it touched the map: the
    /// admission gate's latency average was over the
    /// [deadline](crate::CacheConfig::shed_deadline), or resident bytes
    /// were at or above the [memory budget](crate::CacheConfig::mem_budget).
    /// The map is unchanged by it (shedding is back-pressure, not
    /// corruption); a durable map journals the scan flagged as shed.
    Shed(crate::supervisor::ShedReason),
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
            PipelineError::Durable(e) => write!(f, "durable storage: {e}"),
            PipelineError::Shed(reason) => write!(f, "scan shed: {reason}"),
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

/// Cumulative fault counters of one pipeline instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Octree threads that died by panic.
    pub worker_panics: u64,
    /// Octree threads that failed to spawn.
    pub spawn_failures: u64,
    /// Batches applied inline on the caller's thread after a panic or a
    /// failed spawn.
    pub batches_rerouted: u64,
    /// Evicted cells re-applied (or applied inline) by the caller.
    pub cells_reapplied: u64,
}

impl FaultCounters {
    /// Per-field difference `self - earlier` (saturating), for per-scan
    /// telemetry deltas.
    pub fn since(&self, earlier: &FaultCounters) -> FaultCounters {
        FaultCounters {
            worker_panics: self.worker_panics.saturating_sub(earlier.worker_panics),
            spawn_failures: self.spawn_failures.saturating_sub(earlier.spawn_failures),
            batches_rerouted: self
                .batches_rerouted
                .saturating_sub(earlier.batches_rerouted),
            cells_reapplied: self.cells_reapplied.saturating_sub(earlier.cells_reapplied),
        }
    }

    /// True when any counter is non-zero.
    pub fn any(&self) -> bool {
        *self != FaultCounters::default()
    }
}

/// A deterministic fault schedule for one pipeline instance.
///
/// Stored on [`crate::CacheConfig`] (via
/// [`crate::CacheConfigBuilder::fault_plan`]) and acted on only by the
/// parallel backend, which checks it once per batch. It is a test-only
/// failpoint: every build carries it, none sets it by default. Batches are
/// counted over the run — one per scan, plus the two `finish` hands over —
/// so a plan holds batch indices, not worker indices.
///
/// The CLI's `build` derives a plan from `--fault`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Panic the octree thread at the start of this 0-based batch.
    pub kill: Option<u64>,
    /// Fail every octree thread's spawn: each batch is applied inline.
    pub fail_spawn: bool,
    /// Panic the octree thread on every batch `b` with
    /// `(b + 1) % every == 0`.
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
    /// the fault kind and batch index are pure functions of the seed. Two
    /// kinds in four — the ones that once shrank the ring and stalled the
    /// worker — now plan no fault, a clean run, so every other seed keeps
    /// the plan it always had.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut s = seed ^ 0x9E37_79B9_7F4A_7C15;
        if s == 0 {
            s = 1;
        }
        let kind = xorshift(&mut s) % 4;
        xorshift(&mut s); // the draw that once picked a worker index: seeds keep their plans
        let batch = xorshift(&mut s) % 6;
        let mut plan = FaultPlan::default();
        match kind {
            0 => plan.kill = Some(batch),
            2 => plan.fail_spawn = true,
            _ => {}
        }
        plan
    }

    /// Parses a fault spec string:
    ///
    /// * `kill:<worker>@<batch>` — panic the octree thread at that batch,
    /// * `spawn:<worker>` — fail every octree thread's spawn,
    /// * `killevery:<worker>@<n>` — panic the octree thread every `n`
    ///   batches,
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
            PipelineError::Shed(crate::supervisor::ShedReason::OverBudget {
                resident_bytes: 64 << 20,
                budget_bytes: 32 << 20,
            }),
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
            assert!(
                !(a.kill.is_some() && a.fail_spawn) && a.kill_every.is_none(),
                "seed {seed} must plan at most one fault: {a:?}"
            );
        }
        // Seeds keep the plans they always drew.
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
            "stall:0@1:100",
            "explode:1",
            "kill:x@5",
            "stall:w@3:2500",
            "spawn:abc",
            "fill:",
            "fill:0",
            "killevery:1",
            "killevery:1@0",
            "killevery:x@2",
            "seed:abc",
            "seed:-1",
        ] {
            assert_eq!(FaultPlan::from_spec(bad), None, "{bad:?} must not parse");
        }
    }
}
