use std::fmt;
use std::time::Duration;

use octocache_octomap::TreeLayout;
use serde::{Deserialize, Serialize};

use crate::fault::FaultPlan;

/// How incoming voxels are mapped to cache buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum IndexPolicy {
    /// `hash(v) mod w` — the strawman design of paper §4.2.
    Hash,
    /// `morton(v) mod w` — the Morton-code policy of paper §4.3 (default).
    /// Sequential bucket eviction then emits voxels in an order aligned with
    /// their Morton codes, which maximises octree insertion locality.
    #[default]
    Morton,
}

impl fmt::Display for IndexPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexPolicy::Hash => write!(f, "hash"),
            IndexPolicy::Morton => write!(f, "morton"),
        }
    }
}

/// The order in which evicted voxels are emitted toward the octree.
///
/// The order never changes the map — the batch apply
/// (`OccupancyOcTree::set_log_odds_batch`) is exact for any order — only
/// what the apply costs: its node visits are the summed tree distance 𝓕(S)
/// between consecutive cells, which Morton order minimises (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EvictionOrder {
    /// Scan buckets sequentially and pop the oldest cells of each
    /// over-full bucket — the paper's design (§4.2.2). With
    /// [`IndexPolicy::Morton`] the stream is Morton-aligned in its low
    /// bits only (the bucket index), so neighbouring cells still sit far
    /// apart in the tree; kept as the ablation's middle point.
    BucketSequential,
    /// Sort each evicted run by full Morton code, in place — the default:
    /// it is the order the paper's theorem names optimal, and now that the
    /// octree keeps its path open between consecutive cells the sort costs
    /// less than the node visits it saves.
    #[default]
    FullMortonSort,
    /// Emit in global insertion (FIFO) order, ignoring bucket structure —
    /// a deliberately locality-free baseline for the ablation
    /// `abl_eviction_order`.
    InsertionFifo,
}

impl fmt::Display for EvictionOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvictionOrder::BucketSequential => write!(f, "bucket-sequential"),
            EvictionOrder::FullMortonSort => write!(f, "full-morton-sort"),
            EvictionOrder::InsertionFifo => write!(f, "insertion-fifo"),
        }
    }
}

/// The producer-side wait/backoff shape used by every bounded wait in the
/// parallel pipeline (ring-full back-pressure, end-of-scan worker waits).
///
/// PR 3 hard-coded these; they are now configurable on [`CacheConfig`] so
/// latency-sensitive deployments can trade busy-spinning against clock
/// reads. A wait first spins `spin_iters` times without touching the
/// clock, then alternates `yields_per_check` thread yields with one
/// deadline check (the deadline itself stays
/// [`CacheConfig::stall_timeout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackoffPolicy {
    /// Busy-spin iterations before the first clock read.
    pub spin_iters: u32,
    /// Thread yields between consecutive deadline checks (≥ 1). Larger
    /// values slice the deadline more coarsely but read the clock less.
    pub yields_per_check: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        // The PR 3 constants: 64 spins, check the clock on every yield.
        BackoffPolicy {
            spin_iters: 64,
            yields_per_check: 1,
        }
    }
}

/// Errors from validating a [`CacheConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `num_buckets` must be a power of two (paper §4.2: "we set w always as
    /// a power of 2 to accelerate the mod operation").
    BucketsNotPowerOfTwo(usize),
    /// `num_buckets` must be at least 1.
    NoBuckets,
    /// `tau` must be at least 1.
    ZeroTau,
    /// `stall_timeout` must be non-zero (it bounds every pipeline wait; a
    /// zero deadline would fail scans spuriously).
    ZeroStallTimeout,
    /// `checkpoint_generations` must be at least 1 (zero would delete the
    /// checkpoint just written, leaving nothing to recover from).
    ZeroCheckpointGenerations,
    /// `backoff.yields_per_check` must be at least 1 (zero would never
    /// yield between clock reads, pinning a core against a wedged worker).
    ZeroYieldsPerCheck,
    /// `mem_budget` must be non-zero when set (a zero budget would reject
    /// every scan; use a small budget to test pressure, `None` to disable).
    ZeroMemBudget,
    /// `num_buckets × tau` must not exceed [`CacheConfig::MAX_CELLS`]: the
    /// cache allocates that many cells when it is built.
    CapacityTooLarge {
        /// The rejected bucket count.
        num_buckets: usize,
        /// The rejected `tau`.
        tau: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BucketsNotPowerOfTwo(w) => {
                write!(f, "num_buckets {w} is not a power of two")
            }
            ConfigError::NoBuckets => write!(f, "num_buckets must be at least 1"),
            ConfigError::ZeroTau => write!(f, "tau must be at least 1"),
            ConfigError::ZeroStallTimeout => {
                write!(f, "stall_timeout must be non-zero")
            }
            ConfigError::ZeroCheckpointGenerations => {
                write!(f, "checkpoint_generations must be at least 1")
            }
            ConfigError::ZeroYieldsPerCheck => {
                write!(f, "backoff.yields_per_check must be at least 1")
            }
            ConfigError::ZeroMemBudget => {
                write!(f, "mem_budget must be non-zero when set")
            }
            ConfigError::CapacityTooLarge { num_buckets, tau } => write!(
                f,
                "num_buckets {num_buckets} × tau {tau} exceeds the {} cells a cache may allocate",
                CacheConfig::MAX_CELLS
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of the voxel cache.
///
/// The paper's UAV deployment uses `w = 512 Ki` buckets with `τ = 4`
/// (≈ 14 MB, §5.1); the 3D-construction experiments size the cache at 3–4×
/// the non-duplicate voxels per batch (§5.2). [`CacheConfig::default`]
/// matches the UAV setting scaled down by 8× to stay laptop-friendly.
///
/// # Example
///
/// ```
/// # use octocache::CacheConfig;
/// let cfg = CacheConfig::builder().num_buckets(1 << 16).tau(4).build()?;
/// assert_eq!(cfg.capacity_after_eviction(), (1 << 16) * 4);
/// # Ok::<(), octocache::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    num_buckets: usize,
    tau: usize,
    index_policy: IndexPolicy,
    eviction_order: EvictionOrder,
    stall_timeout: Duration,
    backoff: BackoffPolicy,
    checkpoint_every: u64,
    checkpoint_generations: usize,
    journal_fsync: bool,
    mem_budget: Option<u64>,
    max_restarts: u32,
    restart_backoff: Duration,
    shed_deadline: Option<Duration>,
    #[serde(skip)]
    fault_plan: Option<FaultPlan>,
    #[serde(skip)]
    events: bool,
}

/// Default bound on every parallel-pipeline wait. Generous on purpose: a
/// healthy worker clears a batch in microseconds, so ten seconds only
/// trips when a worker is genuinely dead or wedged (and must stay far
/// above CI scheduling noise).
const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(10);

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            num_buckets: 1 << 16,
            tau: 4,
            index_policy: IndexPolicy::Morton,
            eviction_order: EvictionOrder::default(),
            stall_timeout: DEFAULT_STALL_TIMEOUT,
            backoff: BackoffPolicy::default(),
            checkpoint_every: 64,
            checkpoint_generations: 3,
            journal_fsync: true,
            mem_budget: None,
            max_restarts: 0,
            restart_backoff: Duration::ZERO,
            shed_deadline: None,
            fault_plan: None,
            events: false,
        }
    }
}

impl CacheConfig {
    /// The largest `num_buckets × tau` a config accepts: 2²⁸ cells, a 3 GiB
    /// slab (the paper's 512 K × 4 table is 2²¹ cells).
    pub const MAX_CELLS: usize = 1 << 28;

    /// Starts building a config.
    pub fn builder() -> CacheConfigBuilder {
        CacheConfigBuilder::new()
    }

    /// Number of buckets `w` (a power of two).
    #[inline]
    pub fn num_buckets(&self) -> usize {
        self.num_buckets
    }

    /// Maximum distinct voxels per bucket after eviction (`τ`).
    #[inline]
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// The bucket indexing policy.
    #[inline]
    pub fn index_policy(&self) -> IndexPolicy {
        self.index_policy
    }

    /// The eviction emission order.
    #[inline]
    pub fn eviction_order(&self) -> EvictionOrder {
        self.eviction_order
    }

    /// Upper bound on any single wait inside the parallel pipeline
    /// (producer back-pressure, worker completion). When it expires the
    /// wait becomes a typed
    /// [`PipelineError::QueueStalled`](crate::fault::PipelineError) instead
    /// of a hang.
    #[inline]
    pub fn stall_timeout(&self) -> Duration {
        self.stall_timeout
    }

    /// The wait/backoff shape used by every bounded pipeline wait; see
    /// [`BackoffPolicy`].
    #[inline]
    pub fn backoff(&self) -> BackoffPolicy {
        self.backoff
    }

    /// The memory budget in bytes, if one is configured. When set, the
    /// engine's memory governor walks a graduated pressure ladder as
    /// resident bytes approach it (tighten τ-eviction → force prune →
    /// reject scans with
    /// [`PipelineError::OverBudget`](crate::fault::PipelineError)), with
    /// hysteresis so relief is not re-triggered on every scan. `None`
    /// (the default) disables the governor entirely.
    #[inline]
    pub fn mem_budget(&self) -> Option<u64> {
        self.mem_budget
    }

    /// How many times the supervisor may respawn each dead worker. `0`
    /// (the default) preserves the PR 3 behaviour: a dead worker degrades
    /// the pipeline permanently and its octants are served inline.
    #[inline]
    pub fn max_restarts(&self) -> u32 {
        self.max_restarts
    }

    /// Delay before each worker respawn (default zero).
    #[inline]
    pub fn restart_backoff(&self) -> Duration {
        self.restart_backoff
    }

    /// The scan-admission deadline: when the exponentially-weighted
    /// moving average of recent scan latencies exceeds it, the engine
    /// sheds incoming scans
    /// ([`ScanOutcome::Shed`](crate::supervisor::ScanOutcome)) until the
    /// average recovers. `None` (the default) admits every scan.
    #[inline]
    pub fn shed_deadline(&self) -> Option<Duration> {
        self.shed_deadline
    }

    /// Frozen-benchmark shim (`benchmark/` is its only caller); the next `benchmark` PR deletes it.
    #[doc(hidden)]
    pub fn resolved_tree_layout(&self) -> TreeLayout {
        TreeLayout
    }

    /// How many journaled scans may accumulate before
    /// [`DurableMap`](crate::durable::DurableMap) writes the next periodic
    /// checkpoint (taken lock-free from the published
    /// [`MapSnapshot`](crate::MapSnapshot)). `0` disables periodic
    /// checkpoints — only the final checkpoint written on
    /// [`seal`](crate::durable::DurableMap::seal)/`finish` remains, and
    /// recovery replays the whole journal.
    #[inline]
    pub fn checkpoint_every(&self) -> u64 {
        self.checkpoint_every
    }

    /// How many checkpoint generations the store retains (≥ 1). Older
    /// generations are fallbacks when the newest checkpoint fails its
    /// checksum during recovery.
    #[inline]
    pub fn checkpoint_generations(&self) -> usize {
        self.checkpoint_generations
    }

    /// Whether every journal append is followed by an `fdatasync` (the
    /// default). Turning this off trades the last few records on power loss
    /// for lower insert latency; process kills (the failure mode the crash
    /// torture suite exercises) lose nothing either way.
    #[inline]
    pub fn journal_fsync(&self) -> bool {
        self.journal_fsync
    }

    /// The deterministic fault-injection schedule, if any. Only acted on
    /// under `cfg(any(test, feature = "fault-injection"))`; never
    /// serialised.
    #[inline]
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault_plan
    }

    /// Whether backends built from this config record sub-scan
    /// [`Event`](octocache_telemetry::Event) streams (cache
    /// hit/miss/evict, queue traffic, worker batch spans). Off by
    /// default; when off the only cost in the hot paths is one
    /// `Option::is_some` branch per site. Never serialised (like
    /// [`CacheConfig::fault_plan`]): recording is a per-run choice, not
    /// part of the cache geometry.
    #[inline]
    pub fn events(&self) -> bool {
        self.events
    }

    /// Total cells retained after an eviction pass (`w × τ`).
    #[inline]
    pub fn capacity_after_eviction(&self) -> usize {
        self.num_buckets * self.tau
    }

    /// The paper's memory accounting: 7 bytes per cell (three `u8`-packed
    /// coordinates + one `f32`), times `w × τ` (§6.2.4: `M = 7wτ`).
    ///
    /// Note our cells store three `u16` coordinates to cover 16-level trees
    /// and align the `f32`, 12 bytes in all; this method reports the paper's
    /// figure for comparability, [`CacheConfig::resident_bytes`] the real
    /// one.
    #[inline]
    pub fn paper_bytes(&self) -> usize {
        7 * self.capacity_after_eviction()
    }

    /// The bytes a [`VoxelCache`](crate::VoxelCache) of this geometry
    /// allocates when it is built and keeps for life: `w × τ` 12-byte cells
    /// plus one 8-byte header per bucket. Exactly its
    /// [`memory_usage`](crate::VoxelCache::memory_usage) until a batch
    /// overshoots `τ` somewhere (the spill) or events are recorded.
    #[inline]
    pub fn resident_bytes(&self) -> usize {
        12 * self.capacity_after_eviction() + 8 * self.num_buckets
    }

    /// This config with twice the buckets and every other field as it is,
    /// or `None` when that passes [`CacheConfig::MAX_CELLS`] (adaptive
    /// growth stops there).
    pub(crate) fn doubled(&self) -> Option<CacheConfig> {
        let num_buckets = self.num_buckets.checked_mul(2)?;
        Self::fits(num_buckets, self.tau).then_some(CacheConfig {
            num_buckets,
            ..*self
        })
    }

    /// Whether a `num_buckets × tau` slab is within [`CacheConfig::MAX_CELLS`].
    fn fits(num_buckets: usize, tau: usize) -> bool {
        num_buckets
            .checked_mul(tau)
            .is_some_and(|cells| cells <= Self::MAX_CELLS)
    }

    /// A short, stable digest of the cache geometry (FNV-1a over the
    /// serialised form), for labelling runs — the CLI `info` command prints
    /// it on its `engine:` line. Runtime-only knobs that are never
    /// serialised ([`CacheConfig::fault_plan`], [`CacheConfig::events`]) do
    /// not contribute, so two runs with the same geometry share a digest.
    pub fn digest(&self) -> u64 {
        let json = serde::json::to_string(self);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in json.as_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

/// Builder for [`CacheConfig`]. Created by [`CacheConfig::builder`].
#[derive(Debug, Clone)]
pub struct CacheConfigBuilder {
    num_buckets: usize,
    tau: usize,
    index_policy: IndexPolicy,
    eviction_order: EvictionOrder,
    stall_timeout: Duration,
    backoff: BackoffPolicy,
    checkpoint_every: u64,
    checkpoint_generations: usize,
    journal_fsync: bool,
    mem_budget: Option<u64>,
    max_restarts: u32,
    restart_backoff: Duration,
    shed_deadline: Option<Duration>,
    fault_plan: Option<FaultPlan>,
    events: bool,
}

impl CacheConfigBuilder {
    fn new() -> Self {
        let d = CacheConfig::default();
        CacheConfigBuilder {
            num_buckets: d.num_buckets,
            tau: d.tau,
            index_policy: d.index_policy,
            eviction_order: d.eviction_order,
            stall_timeout: d.stall_timeout,
            backoff: d.backoff,
            checkpoint_every: d.checkpoint_every,
            checkpoint_generations: d.checkpoint_generations,
            journal_fsync: d.journal_fsync,
            mem_budget: d.mem_budget,
            max_restarts: d.max_restarts,
            restart_backoff: d.restart_backoff,
            shed_deadline: d.shed_deadline,
            fault_plan: d.fault_plan,
            events: d.events,
        }
    }

    /// Sets the number of buckets `w` (must be a power of two).
    pub fn num_buckets(&mut self, w: usize) -> &mut Self {
        self.num_buckets = w;
        self
    }

    /// Sets the per-bucket retention threshold `τ`.
    pub fn tau(&mut self, tau: usize) -> &mut Self {
        self.tau = tau;
        self
    }

    /// Sets the indexing policy.
    pub fn index_policy(&mut self, p: IndexPolicy) -> &mut Self {
        self.index_policy = p;
        self
    }

    /// Sets the eviction emission order.
    pub fn eviction_order(&mut self, o: EvictionOrder) -> &mut Self {
        self.eviction_order = o;
        self
    }

    /// Bounds every parallel-pipeline wait; see
    /// [`CacheConfig::stall_timeout`]. Must be non-zero.
    pub fn stall_timeout(&mut self, timeout: Duration) -> &mut Self {
        self.stall_timeout = timeout;
        self
    }

    /// Sets the wait/backoff shape for bounded pipeline waits; see
    /// [`BackoffPolicy`]. `yields_per_check` must be ≥ 1.
    pub fn backoff(&mut self, policy: BackoffPolicy) -> &mut Self {
        self.backoff = policy;
        self
    }

    /// Sets the memory budget in bytes (must be non-zero); see
    /// [`CacheConfig::mem_budget`].
    pub fn mem_budget(&mut self, bytes: u64) -> &mut Self {
        self.mem_budget = Some(bytes);
        self
    }

    /// Sets the per-worker respawn budget; see
    /// [`CacheConfig::max_restarts`].
    pub fn max_restarts(&mut self, n: u32) -> &mut Self {
        self.max_restarts = n;
        self
    }

    /// Sets the delay before each respawn; see
    /// [`CacheConfig::restart_backoff`].
    pub fn restart_backoff(&mut self, backoff: Duration) -> &mut Self {
        self.restart_backoff = backoff;
        self
    }

    /// Sets the scan-admission deadline; see
    /// [`CacheConfig::shed_deadline`].
    pub fn shed_deadline(&mut self, deadline: Duration) -> &mut Self {
        self.shed_deadline = Some(deadline);
        self
    }

    /// Sets the periodic checkpoint interval in scans (0 disables); see
    /// [`CacheConfig::checkpoint_every`].
    pub fn checkpoint_every(&mut self, every: u64) -> &mut Self {
        self.checkpoint_every = every;
        self
    }

    /// Sets how many checkpoint generations to retain (≥ 1); see
    /// [`CacheConfig::checkpoint_generations`].
    pub fn checkpoint_generations(&mut self, keep: usize) -> &mut Self {
        self.checkpoint_generations = keep;
        self
    }

    /// Toggles per-append journal fsync; see
    /// [`CacheConfig::journal_fsync`].
    pub fn journal_fsync(&mut self, on: bool) -> &mut Self {
        self.journal_fsync = on;
        self
    }

    /// Schedules deterministic fault injection; see
    /// [`CacheConfig::fault_plan`].
    pub fn fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables sub-scan event recording; see [`CacheConfig::events`].
    pub fn events(&mut self, on: bool) -> &mut Self {
        self.events = on;
        self
    }

    /// Sizes the cache for a workload, following the paper's §5.2 rule:
    /// capacity ≈ `factor` × the expected non-duplicate voxels per batch
    /// (3–4 recommended), rounded up to a power-of-two bucket count at the
    /// current `τ`.
    pub fn size_for_batch(&mut self, nondup_voxels_per_batch: usize, factor: f64) -> &mut Self {
        let target_cells = (nondup_voxels_per_batch as f64 * factor).ceil() as usize;
        let buckets = (target_cells / self.tau.max(1)).max(1);
        self.num_buckets = buckets.next_power_of_two();
        self
    }

    /// Validates and produces the config.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `num_buckets` is zero or not a power
    /// of two, `tau` is zero, their product passes
    /// [`CacheConfig::MAX_CELLS`], or a runtime knob is out of range.
    pub fn build(&self) -> Result<CacheConfig, ConfigError> {
        if self.num_buckets == 0 {
            return Err(ConfigError::NoBuckets);
        }
        if !self.num_buckets.is_power_of_two() {
            return Err(ConfigError::BucketsNotPowerOfTwo(self.num_buckets));
        }
        if self.tau == 0 {
            return Err(ConfigError::ZeroTau);
        }
        if !CacheConfig::fits(self.num_buckets, self.tau) {
            return Err(ConfigError::CapacityTooLarge {
                num_buckets: self.num_buckets,
                tau: self.tau,
            });
        }
        if self.stall_timeout.is_zero() {
            return Err(ConfigError::ZeroStallTimeout);
        }
        if self.checkpoint_generations == 0 {
            return Err(ConfigError::ZeroCheckpointGenerations);
        }
        if self.backoff.yields_per_check == 0 {
            return Err(ConfigError::ZeroYieldsPerCheck);
        }
        if self.mem_budget == Some(0) {
            return Err(ConfigError::ZeroMemBudget);
        }
        Ok(CacheConfig {
            num_buckets: self.num_buckets,
            tau: self.tau,
            index_policy: self.index_policy,
            eviction_order: self.eviction_order,
            stall_timeout: self.stall_timeout,
            backoff: self.backoff,
            checkpoint_every: self.checkpoint_every,
            checkpoint_generations: self.checkpoint_generations,
            journal_fsync: self.journal_fsync,
            mem_budget: self.mem_budget,
            max_restarts: self.max_restarts,
            restart_backoff: self.restart_backoff,
            shed_deadline: self.shed_deadline,
            fault_plan: self.fault_plan,
            events: self.events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_morton_full_sort() {
        let c = CacheConfig::default();
        assert!(c.num_buckets().is_power_of_two());
        assert_eq!(c.index_policy(), IndexPolicy::Morton);
        assert_eq!(c.eviction_order(), EvictionOrder::FullMortonSort);
        assert_eq!(c.tau(), 4);
    }

    #[test]
    fn builder_validates() {
        assert_eq!(
            CacheConfig::builder().num_buckets(0).build(),
            Err(ConfigError::NoBuckets)
        );
        assert_eq!(
            CacheConfig::builder().num_buckets(100).build(),
            Err(ConfigError::BucketsNotPowerOfTwo(100))
        );
        assert_eq!(
            CacheConfig::builder().tau(0).build(),
            Err(ConfigError::ZeroTau)
        );
        assert_eq!(
            CacheConfig::builder().stall_timeout(Duration::ZERO).build(),
            Err(ConfigError::ZeroStallTimeout)
        );
        assert!(CacheConfig::builder()
            .num_buckets(64)
            .tau(2)
            .build()
            .is_ok());
    }

    #[test]
    fn capacity_the_slab_cannot_allocate_is_rejected() {
        let too_large = |num_buckets: usize, tau: usize| {
            assert_eq!(
                CacheConfig::builder()
                    .num_buckets(num_buckets)
                    .tau(tau)
                    .build(),
                Err(ConfigError::CapacityTooLarge { num_buckets, tau })
            );
        };
        too_large(1 << 16, 1_000_000); // `--tau 1000000` at the default w
        too_large(1 << 28, 2);
        too_large(1 << 40, usize::MAX); // the product overflows
        let largest = CacheConfig::builder()
            .num_buckets(1 << 26)
            .tau(4)
            .build()
            .unwrap();
        assert_eq!(largest.capacity_after_eviction(), CacheConfig::MAX_CELLS);
        // Growth stops where the builder would.
        assert_eq!(largest.doubled(), None);
        let half = CacheConfig::builder()
            .num_buckets(1 << 25)
            .tau(4)
            .build()
            .unwrap();
        assert_eq!(half.doubled(), Some(largest));
    }

    #[test]
    fn paper_memory_accounting() {
        // Paper §5.1: 512K buckets x tau 4 x 7 bytes = 14 MB.
        let c = CacheConfig::builder()
            .num_buckets(512 * 1024)
            .tau(4)
            .build()
            .unwrap();
        assert_eq!(c.paper_bytes(), 14 * 1024 * 1024);
        // Ours: 12-byte cells and an 8-byte header per bucket, 28 MiB.
        assert_eq!(c.resident_bytes(), (24 + 4) * 1024 * 1024);
    }

    #[test]
    fn size_for_batch_rounds_to_power_of_two() {
        let c = CacheConfig::builder()
            .tau(4)
            .size_for_batch(10_000, 3.5)
            .build()
            .unwrap();
        assert!(c.num_buckets().is_power_of_two());
        // capacity at least 3.5x the batch size…
        assert!(c.capacity_after_eviction() >= 35_000 / 4 * 4);
        // …but no more than 2x overshoot from rounding.
        assert!(c.capacity_after_eviction() <= 2 * 35_000);
    }

    #[test]
    fn stall_timeout_and_fault_plan_round_trip_through_builder() {
        let plan = FaultPlan::from_seed(3);
        let c = CacheConfig::builder()
            .num_buckets(64)
            .tau(2)
            .stall_timeout(Duration::from_millis(50))
            .fault_plan(plan)
            .build()
            .unwrap();
        assert_eq!(c.stall_timeout(), Duration::from_millis(50));
        assert_eq!(c.fault_plan(), Some(plan));
        // Defaults: a generous bound and no injected faults.
        let d = CacheConfig::default();
        assert_eq!(d.stall_timeout(), Duration::from_secs(10));
        assert_eq!(d.fault_plan(), None);
        // The fault plan never reaches serialised configs.
        let json = serde::json::to_string(&c);
        assert!(!json.contains("fault"), "{json}");
        let back: CacheConfig = serde::json::from_str(&json).unwrap();
        assert_eq!(back.fault_plan(), None);
        assert_eq!(back.stall_timeout(), c.stall_timeout());
        assert_eq!(back.num_buckets(), c.num_buckets());
    }

    #[test]
    fn events_switch_defaults_off_and_is_not_serialised() {
        assert!(!CacheConfig::default().events());
        let c = CacheConfig::builder()
            .num_buckets(64)
            .events(true)
            .build()
            .unwrap();
        assert!(c.events());
        // Like the fault plan, the recording switch is per-run, not part of
        // the serialised cache geometry.
        let back: CacheConfig = serde::json::from_str(&serde::json::to_string(&c)).unwrap();
        assert!(!back.events());
    }

    #[test]
    fn digest_tracks_geometry_not_runtime_knobs() {
        let base = CacheConfig::builder()
            .num_buckets(64)
            .tau(2)
            .build()
            .unwrap();
        // Deterministic for equal geometry.
        assert_eq!(base.digest(), base.digest());
        // Geometry changes move the digest.
        let other = CacheConfig::builder()
            .num_buckets(128)
            .tau(2)
            .build()
            .unwrap();
        assert_ne!(base.digest(), other.digest());
        // Never-serialised knobs do not.
        let with_knobs = CacheConfig::builder()
            .num_buckets(64)
            .tau(2)
            .events(true)
            .fault_plan(FaultPlan::from_seed(1))
            .build()
            .unwrap();
        assert_eq!(base.digest(), with_knobs.digest());
    }

    #[test]
    fn serialised_config_carrying_a_tree_layout_field_still_parses() {
        // What `serde::json::to_string(&config)` wrote before the field was
        // removed: the extra key is ignored, every other knob survives.
        let c = CacheConfig::builder().num_buckets(64).build().unwrap();
        let json = serde::json::to_string(&c);
        for old in ["\"tree_layout\":null,", "\"tree_layout\":\"Arena\","] {
            let legacy = json.replacen('{', &format!("{{{old}"), 1);
            let back: CacheConfig = serde::json::from_str(&legacy).unwrap();
            assert_eq!(back, c, "{legacy}");
        }
    }

    #[test]
    fn durability_knobs_default_validate_and_round_trip() {
        let d = CacheConfig::default();
        assert_eq!(d.checkpoint_every(), 64);
        assert_eq!(d.checkpoint_generations(), 3);
        assert!(d.journal_fsync());
        assert_eq!(
            CacheConfig::builder().checkpoint_generations(0).build(),
            Err(ConfigError::ZeroCheckpointGenerations)
        );
        let c = CacheConfig::builder()
            .checkpoint_every(0)
            .checkpoint_generations(5)
            .journal_fsync(false)
            .build()
            .unwrap();
        assert_eq!(c.checkpoint_every(), 0);
        let back: CacheConfig = serde::json::from_str(&serde::json::to_string(&c)).unwrap();
        assert_eq!(back.checkpoint_every(), 0);
        assert_eq!(back.checkpoint_generations(), 5);
        assert!(!back.journal_fsync());
    }

    #[test]
    fn supervisor_knobs_default_off_validate_and_round_trip() {
        let d = CacheConfig::default();
        assert_eq!(d.mem_budget(), None);
        assert_eq!(d.max_restarts(), 0);
        assert_eq!(d.restart_backoff(), Duration::ZERO);
        assert_eq!(d.shed_deadline(), None);
        assert_eq!(d.backoff(), BackoffPolicy::default());
        assert_eq!(d.backoff().spin_iters, 64);
        assert_eq!(d.backoff().yields_per_check, 1);
        assert_eq!(
            CacheConfig::builder().mem_budget(0).build(),
            Err(ConfigError::ZeroMemBudget)
        );
        assert_eq!(
            CacheConfig::builder()
                .backoff(BackoffPolicy {
                    spin_iters: 8,
                    yields_per_check: 0
                })
                .build(),
            Err(ConfigError::ZeroYieldsPerCheck)
        );
        let c = CacheConfig::builder()
            .num_buckets(64)
            .mem_budget(32 << 20)
            .max_restarts(3)
            .restart_backoff(Duration::from_millis(5))
            .shed_deadline(Duration::from_millis(40))
            .backoff(BackoffPolicy {
                spin_iters: 16,
                yields_per_check: 4,
            })
            .build()
            .unwrap();
        assert_eq!(c.mem_budget(), Some(32 << 20));
        assert_eq!(c.max_restarts(), 3);
        assert_eq!(c.restart_backoff(), Duration::from_millis(5));
        assert_eq!(c.shed_deadline(), Some(Duration::from_millis(40)));
        let back: CacheConfig = serde::json::from_str(&serde::json::to_string(&c)).unwrap();
        assert_eq!(back.mem_budget(), Some(32 << 20));
        assert_eq!(back.max_restarts(), 3);
        assert_eq!(back.shed_deadline(), Some(Duration::from_millis(40)));
        assert_eq!(back.backoff().spin_iters, 16);
        assert_eq!(back.backoff().yields_per_check, 4);
    }

    #[test]
    fn displays() {
        assert_eq!(IndexPolicy::Hash.to_string(), "hash");
        assert_eq!(IndexPolicy::Morton.to_string(), "morton");
        assert_eq!(
            EvictionOrder::BucketSequential.to_string(),
            "bucket-sequential"
        );
        for e in [
            ConfigError::BucketsNotPowerOfTwo(3),
            ConfigError::NoBuckets,
            ConfigError::ZeroTau,
            ConfigError::ZeroStallTimeout,
            ConfigError::ZeroCheckpointGenerations,
            ConfigError::ZeroYieldsPerCheck,
            ConfigError::ZeroMemBudget,
            ConfigError::CapacityTooLarge {
                num_buckets: 1 << 16,
                tau: 1 << 20,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
