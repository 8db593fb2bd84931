use std::fmt;
use std::time::Duration;

use octocache_octomap::TreeLayout;
use serde::{Deserialize, Serialize};

use crate::fault::FaultPlan;

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
    /// `mem_budget` must cover the cache's own footprint
    /// ([`CacheConfig::resident_bytes`], allocated when the cache is
    /// built): a smaller budget would refuse every scan.
    MemBudgetBelowCache {
        /// The rejected budget in bytes.
        budget: u64,
        /// The cache's resident bytes.
        cache_bytes: u64,
    },
    /// `num_buckets × tau` must not exceed `CacheConfig::MAX_CELLS`: the
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
            ConfigError::MemBudgetBelowCache {
                budget,
                cache_bytes,
            } => write!(
                f,
                "mem_budget {budget} B is below the cache's own {cache_bytes} B"
            ),
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
    stall_timeout: Duration,
    checkpoint_every: u64,
    mem_budget: Option<u64>,
    max_restarts: u32,
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
            stall_timeout: DEFAULT_STALL_TIMEOUT,
            checkpoint_every: 64,
            mem_budget: None,
            max_restarts: 0,
            shed_deadline: None,
            fault_plan: None,
            events: false,
        }
    }
}

impl CacheConfig {
    /// The largest `num_buckets × tau` a config accepts: 2²⁸ cells, 4 GiB
    /// of records at τ = 4 (the paper's 512 K × 4 table is 2²¹ cells).
    pub(crate) const MAX_CELLS: usize = 1 << 28;

    /// Starts building a config.
    pub fn builder() -> CacheConfigBuilder {
        CacheConfigBuilder {
            config: CacheConfig::default(),
        }
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

    /// Upper bound on any single wait inside the parallel pipeline
    /// (producer back-pressure, worker completion). When it expires the
    /// wait becomes a typed
    /// [`PipelineError::QueueStalled`](crate::fault::PipelineError) instead
    /// of a hang.
    #[inline]
    pub fn stall_timeout(&self) -> Duration {
        self.stall_timeout
    }

    /// The memory budget in bytes, if one is configured. When set, the
    /// engine admits a scan only while resident bytes (octree pool plus
    /// cache) are below it and sheds the rest with
    /// [`PipelineError::Shed`](crate::fault::PipelineError::Shed). The
    /// footprint never shrinks, so at the cap the map stops growing. It
    /// gates admission, not peak: one admitted scan can double the octree
    /// pool. `None` (the default) disables the check.
    #[inline]
    pub fn mem_budget(&self) -> Option<u64> {
        self.mem_budget
    }

    /// How many times the supervisor may respawn the dead worker. `0`
    /// (the default) means a dead worker degrades the pipeline
    /// permanently: the producer applies every later eviction batch
    /// inline.
    #[inline]
    pub fn max_restarts(&self) -> u32 {
        self.max_restarts
    }

    /// The scan-admission deadline: when the exponentially-weighted
    /// moving average of recent scan latencies exceeds it, the engine
    /// sheds incoming scans
    /// ([`PipelineError::Shed`](crate::fault::PipelineError::Shed)) until the
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

    /// The deterministic fault schedule, if any: a test-only
    /// failpoint that only the parallel backend's worker acts on (checked
    /// once per batch). Never serialised.
    #[inline]
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault_plan
    }

    /// Whether backends built from this config record sub-scan
    /// [`Event`](octocache_telemetry::Event) streams: the cache
    /// hit/miss/evict events of the voxels on the 4×4×4 lattice (whole
    /// cache sets, one voxel in 64 —
    /// [`is_sampled`](octocache_telemetry::is_sampled)), queue traffic and
    /// worker batch spans, complete over the run and uncapped. Off by
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

    /// The bytes a [`VoxelCache`](crate::VoxelCache) of this geometry
    /// allocates when it is built and keeps for life: `w` bucket records of
    /// an 8-byte header and `τ + 3` cells, plus 64 bytes that let the first
    /// record start on a cache line. A cell is a 4-byte tag and 4-byte
    /// log-odds from 2¹⁶ buckets on (`64·w + 64` at τ = 4, one line a
    /// record) and an 8-byte tag below: `(8 + 8·(τ + 3))·w + 64` and
    /// `(8 + 12·(τ + 3))·w + 64` bytes. Exactly its
    /// [`memory_usage`](crate::VoxelCache::memory_usage) until a batch
    /// overshoots `τ + 3` somewhere (the spill) or is folded (the scratch).
    #[inline]
    pub fn resident_bytes(&self) -> usize {
        crate::cache::table_bytes(self.num_buckets, self.tau)
    }
}

/// Builder for [`CacheConfig`]. Created by [`CacheConfig::builder`].
#[derive(Debug, Clone)]
pub struct CacheConfigBuilder {
    /// The config under construction; only [`build`](Self::build) hands out
    /// a validated copy.
    config: CacheConfig,
}

impl CacheConfigBuilder {
    /// Sets the number of buckets `w` (must be a power of two).
    pub fn num_buckets(&mut self, w: usize) -> &mut Self {
        self.config.num_buckets = w;
        self
    }

    /// Sets the per-bucket retention threshold `τ`.
    pub fn tau(&mut self, tau: usize) -> &mut Self {
        self.config.tau = tau;
        self
    }

    /// Bounds every parallel-pipeline wait; see
    /// [`CacheConfig::stall_timeout`]. Must be non-zero.
    pub fn stall_timeout(&mut self, timeout: Duration) -> &mut Self {
        self.config.stall_timeout = timeout;
        self
    }

    /// Sets the memory budget in bytes (at least
    /// [`CacheConfig::resident_bytes`]); see [`CacheConfig::mem_budget`].
    pub fn mem_budget(&mut self, bytes: u64) -> &mut Self {
        self.config.mem_budget = Some(bytes);
        self
    }

    /// Sets the worker respawn budget; see [`CacheConfig::max_restarts`].
    pub fn max_restarts(&mut self, n: u32) -> &mut Self {
        self.config.max_restarts = n;
        self
    }

    /// Sets the scan-admission deadline; see
    /// [`CacheConfig::shed_deadline`].
    pub fn shed_deadline(&mut self, deadline: Duration) -> &mut Self {
        self.config.shed_deadline = Some(deadline);
        self
    }

    /// Sets the periodic checkpoint interval in scans (0 disables); see
    /// [`CacheConfig::checkpoint_every`].
    pub fn checkpoint_every(&mut self, every: u64) -> &mut Self {
        self.config.checkpoint_every = every;
        self
    }

    /// Schedules deterministic fault injection; see
    /// [`CacheConfig::fault_plan`].
    pub fn fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.config.fault_plan = Some(plan);
        self
    }

    /// Enables sub-scan event recording; see [`CacheConfig::events`].
    pub fn events(&mut self, on: bool) -> &mut Self {
        self.config.events = on;
        self
    }

    /// Sizes the cache for a workload, following the paper's §5.2 rule:
    /// capacity ≈ `factor` × the expected non-duplicate voxels per batch
    /// (3–4 recommended), rounded up to a power-of-two bucket count at the
    /// current `τ`. A batch past the largest power of two saturates there,
    /// for [`build`](Self::build) to reject as
    /// [`ConfigError::CapacityTooLarge`].
    pub fn size_for_batch(&mut self, nondup_voxels_per_batch: usize, factor: f64) -> &mut Self {
        let target_cells = (nondup_voxels_per_batch as f64 * factor).ceil() as usize;
        let buckets = (target_cells / self.config.tau.max(1)).max(1);
        self.config.num_buckets = buckets
            .checked_next_power_of_two()
            .unwrap_or(1 << (usize::BITS - 1));
        self
    }

    /// Validates and produces the config.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `num_buckets` is zero or not a power
    /// of two, `tau` is zero, their product passes
    /// `CacheConfig::MAX_CELLS`, or a runtime knob is out of range.
    pub fn build(&self) -> Result<CacheConfig, ConfigError> {
        let c = self.config;
        if c.num_buckets == 0 {
            return Err(ConfigError::NoBuckets);
        }
        if !c.num_buckets.is_power_of_two() {
            return Err(ConfigError::BucketsNotPowerOfTwo(c.num_buckets));
        }
        if c.tau == 0 {
            return Err(ConfigError::ZeroTau);
        }
        let cells = c.num_buckets.checked_mul(c.tau);
        if !matches!(cells, Some(cells) if cells <= CacheConfig::MAX_CELLS) {
            return Err(ConfigError::CapacityTooLarge {
                num_buckets: c.num_buckets,
                tau: c.tau,
            });
        }
        if c.stall_timeout.is_zero() {
            return Err(ConfigError::ZeroStallTimeout);
        }
        if let Some(budget) = c.mem_budget {
            let cache_bytes = c.resident_bytes() as u64;
            if budget < cache_bytes {
                return Err(ConfigError::MemBudgetBelowCache {
                    budget,
                    cache_bytes,
                });
            }
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_morton_full_sort() {
        let c = CacheConfig::default();
        assert_eq!(CacheConfig::builder().build(), Ok(c));
        assert!(c.num_buckets().is_power_of_two());
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
    }

    #[test]
    fn paper_memory_accounting() {
        // Paper §5.1: 512K buckets x tau 4 x 7 bytes = 14 MB.
        let c = CacheConfig::builder()
            .num_buckets(512 * 1024)
            .tau(4)
            .build()
            .unwrap();
        assert_eq!(7 * c.capacity_after_eviction(), 14 * 1024 * 1024);
        // Ours: one 64-byte record per bucket — an 8-byte header and seven
        // 8-byte cells, τ = 4 of them plus 3 for the overshoot — 32 MiB,
        // and the 64 bytes that align the first record.
        assert_eq!(c.resident_bytes(), 32 * 1024 * 1024 + 64);
        // Below 2¹⁶ buckets a cell's tag takes 8 bytes, the cell 12.
        let small = CacheConfig::builder()
            .num_buckets(1 << 12)
            .tau(4)
            .build()
            .unwrap();
        assert_eq!(small.resident_bytes(), (8 + 12 * 7) * (1 << 12) + 64);
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
    fn size_for_batch_past_the_largest_power_of_two_is_rejected_not_wrapped() {
        // `usize::MAX.next_power_of_two()` panics in debug builds and wraps
        // to 0 in release.
        let largest = 1 << (usize::BITS - 1);
        for batch in [usize::MAX, largest + 1] {
            assert_eq!(
                CacheConfig::builder()
                    .tau(1)
                    .size_for_batch(batch, 1.0)
                    .build(),
                Err(ConfigError::CapacityTooLarge {
                    num_buckets: largest,
                    tau: 1
                })
            );
        }
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
        // Verbatim output of the last commit that had an indexing policy, an
        // eviction order, a backoff shape and a respawn delay: whatever they
        // said, the one table is what a reader gets. It also carries the
        // checkpoint retention and journal fsync switch that are constants
        // now.
        let c = CacheConfig::builder()
            .num_buckets(64)
            .mem_budget(1 << 20)
            .shed_deadline(Duration::from_millis(40))
            .build()
            .unwrap();
        let legacy = r#"{"num_buckets":64,"tau":4,"index_policy":"Hash","eviction_order":"InsertionFifo","stall_timeout":{"secs":10,"nanos":0},"backoff":{"spin_iters":64,"yields_per_check":1},"checkpoint_every":64,"checkpoint_generations":3,"journal_fsync":true,"mem_budget":5,"max_restarts":0,"restart_backoff":{"secs":0,"nanos":5000000},"shed_deadline":{"secs":0,"nanos":40000000}}"#;
        let back: CacheConfig = serde::json::from_str(legacy).unwrap();
        // Parsing does not validate: the legacy budget survives verbatim.
        let c = CacheConfig {
            mem_budget: Some(5),
            ..c
        };
        assert_eq!(back, c);
    }

    #[test]
    fn default_config_serialises_exactly_these_seven_keys() {
        // A new knob is a visible diff here.
        assert_eq!(
            serde::json::to_string(&CacheConfig::default()),
            r#"{"num_buckets":65536,"tau":4,"stall_timeout":{"secs":10,"nanos":0},"checkpoint_every":64,"mem_budget":null,"max_restarts":0,"shed_deadline":null}"#
        );
    }

    #[test]
    fn durability_knobs_default_validate_and_round_trip() {
        assert_eq!(CacheConfig::default().checkpoint_every(), 64);
        let c = CacheConfig::builder().checkpoint_every(0).build().unwrap();
        assert_eq!(c.checkpoint_every(), 0);
        let back: CacheConfig = serde::json::from_str(&serde::json::to_string(&c)).unwrap();
        assert_eq!(back.checkpoint_every(), 0);
    }

    #[test]
    fn supervisor_knobs_default_off_validate_and_round_trip() {
        let d = CacheConfig::default();
        assert_eq!(d.mem_budget(), None);
        assert_eq!(d.max_restarts(), 0);
        assert_eq!(d.shed_deadline(), None);
        let cache_bytes = d.resident_bytes() as u64;
        for budget in [0, 200_000, cache_bytes - 1] {
            assert_eq!(
                CacheConfig::builder().mem_budget(budget).build(),
                Err(ConfigError::MemBudgetBelowCache {
                    budget,
                    cache_bytes
                })
            );
        }
        assert!(CacheConfig::builder()
            .mem_budget(cache_bytes)
            .build()
            .is_ok());
        let c = CacheConfig::builder()
            .num_buckets(64)
            .mem_budget(32 << 20)
            .max_restarts(3)
            .shed_deadline(Duration::from_millis(40))
            .build()
            .unwrap();
        assert_eq!(c.mem_budget(), Some(32 << 20));
        assert_eq!(c.max_restarts(), 3);
        assert_eq!(c.shed_deadline(), Some(Duration::from_millis(40)));
        let back: CacheConfig = serde::json::from_str(&serde::json::to_string(&c)).unwrap();
        assert_eq!(back.mem_budget(), Some(32 << 20));
        assert_eq!(back.max_restarts(), 3);
        assert_eq!(back.shed_deadline(), Some(Duration::from_millis(40)));
    }

    #[test]
    fn displays() {
        for e in [
            ConfigError::BucketsNotPowerOfTwo(3),
            ConfigError::NoBuckets,
            ConfigError::ZeroTau,
            ConfigError::ZeroStallTimeout,
            ConfigError::MemBudgetBelowCache {
                budget: 0,
                cache_bytes: 4096,
            },
            ConfigError::CapacityTooLarge {
                num_buckets: 1 << 16,
                tau: 1 << 20,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
