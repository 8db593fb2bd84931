//! The common mapping-backend interface and the plain OctoMap baselines.
//!
//! Everything the evaluation compares — OctoMap, OctoMap-RT, serial and
//! parallel OctoCache, and their `-RT` variants — implements
//! [`MappingSystem`], so the UAV simulator and the benches swap backends
//! freely. The trait surface mirrors the query API the paper requires
//! OctoCache to keep compatible with vanilla OctoMap.
//!
//! The trait is implemented once, generically, by the scan-lifecycle
//! [`Engine`]; this module contributes the baseline
//! *executor* ([`BaselineExecutor`]) that ray-traces straight into the
//! octree with no cache in front.

use std::time::Instant;

use octocache_geom::{Point3, VoxelGrid, VoxelKey};
use octocache_octomap::stats::StatsSnapshot;
use octocache_octomap::{insert, OccupancyOcTree, OccupancyParams};
use octocache_telemetry::{EventBuffer, EventKind, EventLog, EventSink, PhaseTimes, ScanMetrics};

use crate::engine::{self, Engine, FlushTimes, ScanExecutor, ScanOutput};
/// The mapping-backend trait and per-scan report live with the lifecycle
/// they describe, in [`crate::engine`]; re-exported here as their
/// historical home.
pub use crate::engine::{MappingSystem, ScanReport};
use crate::fault::PipelineError;

/// Which ray-tracing front-end a backend uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RayTracer {
    /// The standard OctoMap front-end: every ray-traced voxel observation is
    /// emitted, duplicates included.
    #[default]
    Standard,
    /// The OctoMap-RT–style deduplicating front-end (one observation per
    /// distinct voxel per batch, occupied wins).
    Dedup,
}

impl RayTracer {
    /// Suffix used in backend names (`""` or `"-rt"`).
    pub fn suffix(&self) -> &'static str {
        match self {
            RayTracer::Standard => "",
            RayTracer::Dedup => "-rt",
        }
    }
}

/// The vanilla OctoMap baseline (optionally with the `-RT` front-end):
/// the scan-lifecycle [`Engine`] over a [`BaselineExecutor`].
pub type OctoMapSystem = Engine<BaselineExecutor>;

/// Scan execution for the vanilla OctoMap baseline: ray-trace, optionally
/// dedup, and apply every observation straight to the octree — no cache,
/// no worker.
#[derive(Debug)]
pub struct BaselineExecutor {
    tree: OccupancyOcTree,
    ray_tracer: RayTracer,
    batch: insert::VoxelBatch,
    events: Option<EventBuffer>,
}

impl OctoMapSystem {
    /// Creates the baseline with the standard ray tracer.
    pub fn new(grid: VoxelGrid, params: OccupancyParams) -> Self {
        Self::with_ray_tracer(grid, params, RayTracer::Standard)
    }

    /// Creates the baseline with a chosen ray-tracing front-end.
    pub fn with_ray_tracer(grid: VoxelGrid, params: OccupancyParams, rt: RayTracer) -> Self {
        Self::from_tree(OccupancyOcTree::new(grid, params), rt)
    }

    /// Resumes the baseline on an existing octree — e.g. one reconstructed
    /// by crash recovery ([`crate::durable::recover`]) — keeping the tree's
    /// grid and params. Telemetry restarts from scan 0;
    /// durable scan epochs are tracked by [`crate::durable::DurableMap`].
    pub fn from_tree(tree: OccupancyOcTree, rt: RayTracer) -> Self {
        Engine::from_executor(BaselineExecutor {
            tree,
            ray_tracer: rt,
            batch: insert::VoxelBatch::new(),
            events: None,
        })
    }

    /// Enables sub-scan event recording (octree-update spans on lane 0;
    /// the baseline has no cache or queues). The cache-backed systems
    /// enable this through `CacheConfig::events` instead.
    pub fn enable_events(&mut self) {
        self.exec.events = Some(EventSink::new().buffer(0));
    }

    /// The backing octree.
    pub fn tree(&self) -> &OccupancyOcTree {
        &self.exec.tree
    }

    /// Consumes the system, returning the octree.
    pub fn into_tree(self) -> OccupancyOcTree {
        self.exec.tree
    }
}

impl ScanExecutor for BaselineExecutor {
    fn backend_name(&self) -> String {
        format!("octomap{}", self.ray_tracer.suffix())
    }

    fn grid(&self) -> &VoxelGrid {
        self.tree.grid()
    }

    fn execute_scan(
        &mut self,
        origin: Point3,
        cloud: &[Point3],
        max_range: f64,
        scan_seq: u64,
        metrics: &mut ScanMetrics,
    ) -> Result<ScanOutput, PipelineError> {
        let tree_before = self.tree.stats().snapshot();
        if let Some(buf) = &mut self.events {
            buf.set_scan(scan_seq);
        }
        let t0 = Instant::now();
        let batch = engine::trace_scan(
            self.ray_tracer,
            self.tree.grid(),
            origin,
            cloud,
            max_range,
            &mut self.batch,
        )?;
        let observations = batch.len();
        let ray_tracing = t0.elapsed();
        let t1 = Instant::now();
        if let Some(buf) = &mut self.events {
            buf.emit_plain(EventKind::BatchBegin, observations as u64);
        }
        insert::apply_batch(&mut self.tree, &batch);
        if let Some(buf) = &mut self.events {
            buf.emit_plain(EventKind::BatchEnd, observations as u64);
            buf.drain();
        }
        let octree_update = t1.elapsed();
        metrics.times = PhaseTimes {
            ray_tracing,
            octree_update,
            ..Default::default()
        };
        metrics.observations = observations as u64;
        engine::stamp_tree_delta(metrics, &self.tree.stats().snapshot().since(&tree_before));
        metrics.memory_bytes = self.tree.memory_usage() as u64;
        Ok(ScanOutput {
            cache_hits: 0,
            octree_updates: observations,
            deferred: None,
        })
    }

    fn snapshot_tree(&self) -> OccupancyOcTree {
        self.tree.deep_clone()
    }

    fn occupancy(&mut self, key: VoxelKey) -> Option<f32> {
        self.tree.search(key)
    }

    fn is_occupied(&mut self, key: VoxelKey) -> Option<bool> {
        self.tree.is_occupied(key)
    }

    fn flush(&mut self) -> FlushTimes {
        FlushTimes::default()
    }

    fn tree_stats(&self) -> Option<StatsSnapshot> {
        Some(self.tree.stats().snapshot())
    }

    fn take_events(&mut self) -> Option<EventLog> {
        self.events.as_mut().map(EventBuffer::take_log)
    }

    fn take_tree(self) -> OccupancyOcTree {
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> VoxelGrid {
        VoxelGrid::new(0.5, 8).unwrap()
    }

    fn wall_cloud() -> Vec<Point3> {
        (0..20)
            .map(|i| Point3::new(5.0, -2.0 + i as f64 * 0.2, 0.25))
            .collect()
    }

    #[test]
    fn names() {
        let a = OctoMapSystem::new(grid(), OccupancyParams::default());
        assert_eq!(a.name(), "octomap");
        let b =
            OctoMapSystem::with_ray_tracer(grid(), OccupancyParams::default(), RayTracer::Dedup);
        assert_eq!(b.name(), "octomap-rt");
    }

    #[test]
    fn baseline_inserts_and_queries() {
        let mut sys = OctoMapSystem::new(grid(), OccupancyParams::default());
        let report = sys.insert_scan(Point3::ZERO, &wall_cloud(), 20.0).unwrap();
        assert!(report.observations > 0);
        assert!(report.times.octree_update > std::time::Duration::ZERO);
        assert_eq!(
            sys.is_occupied_at(Point3::new(5.0, 0.0, 0.25)).unwrap(),
            Some(true)
        );
        assert_eq!(
            sys.is_occupied_at(Point3::new(2.0, 0.0, 0.25)).unwrap(),
            Some(false)
        );
        assert_eq!(sys.finish(), PhaseTimes::default());
        assert!(sys.phase_times().octree_update > std::time::Duration::ZERO);
    }

    #[test]
    fn baseline_event_spans_pair_up() {
        let mut sys = OctoMapSystem::new(grid(), OccupancyParams::default());
        assert!(sys.take_events().is_none(), "events default off");
        sys.enable_events();
        sys.insert_scan(Point3::ZERO, &wall_cloud(), 20.0).unwrap();
        sys.insert_scan(Point3::ZERO, &wall_cloud(), 20.0).unwrap();
        sys.finish();
        let log = sys.take_events().unwrap();
        let begins = log
            .events
            .iter()
            .filter(|e| e.kind == EventKind::BatchBegin)
            .count();
        let ends = log
            .events
            .iter()
            .filter(|e| e.kind == EventKind::BatchEnd)
            .count();
        assert_eq!(begins, 2);
        assert_eq!(ends, 2);
        assert!(log.events.iter().all(|e| e.worker == 0));
        assert_eq!(log.events.last().unwrap().scan, 1);
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn rt_variant_applies_fewer_updates() {
        let cloud = wall_cloud();
        let mut raw = OctoMapSystem::new(grid(), OccupancyParams::default());
        let mut ded =
            OctoMapSystem::with_ray_tracer(grid(), OccupancyParams::default(), RayTracer::Dedup);
        let r1 = raw.insert_scan(Point3::ZERO, &cloud, 20.0).unwrap();
        let r2 = ded.insert_scan(Point3::ZERO, &cloud, 20.0).unwrap();
        assert!(r2.octree_updates <= r1.octree_updates);
        // Both mark the wall occupied.
        for p in &cloud {
            assert_eq!(raw.is_occupied_at(*p).unwrap(), Some(true));
            assert_eq!(ded.is_occupied_at(*p).unwrap(), Some(true));
        }
    }
}
