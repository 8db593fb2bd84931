//! # OctoCache
//!
//! A reproduction of *OctoCache: Caching Voxels for Accelerating 3D Occupancy
//! Mapping in Autonomous Systems* (ASPLOS '25). OctoCache is a software
//! caching layer placed in front of an OctoMap occupancy octree:
//!
//! 1. **A flattened, table-based voxel cache** absorbs the highly duplicated
//!    voxel updates produced by ray tracing, turning most octree round trips
//!    into O(1) bucket probes (paper §4.2).
//! 2. **Morton-code indexing** arranges evicted voxels in an order that
//!    maximises octree insertion locality — provably optimal for the tree
//!    distance functional 𝓕(S) (paper §4.3, reproduced in [`locality`]).
//! 3. **A two-thread pipeline** moves the octree update off the critical
//!    path, overlapping it with ray tracing and cache eviction under a
//!    single octree mutex (paper §4.4).
//!
//! Queries remain **consistent** with vanilla OctoMap: the cache stores the
//! *accumulated* occupancy (seeded from the octree on a miss), hits are
//! served from the cache, and misses fall through to the octree.
//!
//! The main entry points are [`SerialOctoCache`] and [`ParallelOctoCache`];
//! both implement the [`MappingSystem`] trait shared with the plain OctoMap
//! baselines in [`pipeline`], so downstream code (the UAV simulator, the
//! benches) can swap mapping backends freely.
//!
//! # Quickstart
//!
//! ```
//! # use octocache::{CacheConfig, SerialOctoCache};
//! # use octocache::pipeline::MappingSystem;
//! # use octocache_geom::{Point3, VoxelGrid};
//! # use octocache_octomap::OccupancyParams;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = VoxelGrid::new(0.1, 16)?;
//! let config = CacheConfig::builder().num_buckets(1 << 12).tau(4).build()?;
//! let mut map = SerialOctoCache::new(grid, OccupancyParams::default(), config);
//!
//! // Insert a scan: ray tracing -> cache -> (eviction -> octree).
//! let cloud = vec![Point3::new(2.0, 0.3, 0.1), Point3::new(2.0, 0.5, 0.1)];
//! map.insert_scan(Point3::ZERO, &cloud, 10.0)?;
//!
//! // Query through the cache with OctoMap-consistent results.
//! assert_eq!(map.is_occupied_at(Point3::new(2.0, 0.3, 0.1))?, Some(true));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
mod config;
pub mod durable;
pub mod engine;
pub mod fault;
pub mod locality;
pub mod parallel;
pub mod pipeline;
pub mod query;
mod routing;
pub mod serial;
pub mod spsc;
pub mod supervisor;

pub use cache::{CacheStats, EvictedCell, VoxelCache};
pub use config::{CacheConfig, CacheConfigBuilder, ConfigError};
pub use durable::{DurableError, DurableMap, DurableStats, IoFaultPlan, KillPoint, RecoveryReport};
pub use engine::{Engine, FlushTimes, ScanExecutor, ScanOutput};
pub use fault::{
    FaultCounters, FaultPlan, Integrity, IntegrityState, IntegrityTransition, PipelineError,
};
pub use parallel::ParallelOctoCache;
pub use pipeline::MappingSystem;
pub use query::{
    LiveMap, MapSnapshot, OccupancyView, PublishStats, QueryHandle, SnapshotPublisher,
};
#[doc(hidden)]
pub use routing::OctantRouter;
pub use serial::SerialOctoCache;
pub use supervisor::{PressureLevel, ScanOutcome, ShedReason, SupervisorParams};
// Telemetry primitives live in `octocache-telemetry`; `PhaseTimes` is
// re-exported here because it predates that crate and every downstream
// consumer imports it from `octocache`.
pub use octocache_telemetry::{
    JsonlRecorder, MemoryRecorder, NullRecorder, PhaseHistograms, PhaseTimes, Recorder, ScanRecord,
    SharedRecorder,
};
