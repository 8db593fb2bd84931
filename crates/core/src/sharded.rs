//! The "naive software parallelization" baseline of the paper's Table 1.
//!
//! The obvious way to parallelise OctoMap is to shard the octree: partition
//! space by top-level octant, give each shard its own subtree, and update
//! shards on separate threads. The paper dismisses this approach ("deploying
//! multiple CPU cores to parallelize octree does not help due to data
//! imbalance", §4.4): a sensor's scan cone is spatially local, so nearly all
//! of a batch lands in one or two shards and the other threads idle. This
//! module implements the baseline so the claim is measurable —
//! [`ShardedOctoMap::imbalance`] reports exactly the skew the paper blames.
//!
//! The scan lifecycle around the shard updates (telemetry, snapshot
//! republish, record assembly) lives in the shared [`Engine`]; this module
//! contributes the [`ShardedExecutor`].

use std::time::Instant;

use octocache_geom::{Point3, VoxelGrid, VoxelKey};
use octocache_octomap::stats::StatsSnapshot;
use octocache_octomap::{insert, OccupancyOcTree, OccupancyParams};
use octocache_telemetry::{EventKind, EventLog, EventSink, ScanMetrics};

use crate::engine::{self, Engine, FlushTimes, ScanExecutor, ScanOutput};
use crate::fault::PipelineError;
use crate::pipeline::RayTracer;
use crate::routing::{self, OctantRouter};

/// OctoMap sharded by spatial octant, with per-scan parallel shard
/// updates: the scan-lifecycle [`Engine`] over a [`ShardedExecutor`].
pub type ShardedOctoMap = Engine<ShardedExecutor>;

/// Scan execution for the octant-sharded baseline: serial partition of the
/// traced batch by shard, then one scoped update thread per non-empty
/// shard (each owning its subtree exclusively — no locks).
#[derive(Debug)]
pub struct ShardedExecutor {
    shards: Vec<OccupancyOcTree>,
    /// Key → shard mapping, shared with the parallel pipeline.
    router: OctantRouter,
    grid: VoxelGrid,
    params: OccupancyParams,
    ray_tracer: RayTracer,
    batch: insert::VoxelBatch,
    shard_updates: Vec<u64>,
    /// Summed shard counters at the end of the previous scan.
    last_tree_stats: StatsSnapshot,
    /// Sub-scan event sink when tracing is enabled: shard `s` emits its
    /// update spans on lane `s + 1` (lane 0 is the scan-driving thread).
    event_sink: Option<std::sync::Arc<EventSink>>,
}

impl ShardedOctoMap {
    /// Creates a sharded OctoMap with `num_shards` ∈ {1, 2, 4, 8} subtrees.
    ///
    /// Key-to-shard routing is [`OctantRouter`], the helper shared with the
    /// N-worker [`crate::parallel::ParallelOctoCache`], so the two backends
    /// always partition the key space identically.
    ///
    /// # Panics
    ///
    /// Panics for shard counts other than 1, 2, 4 or 8 (the router's
    /// validity rule — a shard is a bit-mask over the eight root octants).
    pub fn new(grid: VoxelGrid, params: OccupancyParams, num_shards: usize) -> Self {
        Self::with_ray_tracer(grid, params, num_shards, RayTracer::Standard)
    }

    /// As [`ShardedOctoMap::new`] with a chosen ray-tracing front-end.
    pub fn with_ray_tracer(
        grid: VoxelGrid,
        params: OccupancyParams,
        num_shards: usize,
        ray_tracer: RayTracer,
    ) -> Self {
        let router = OctantRouter::new(num_shards, &grid);
        Engine::from_executor(ShardedExecutor {
            shards: (0..num_shards)
                .map(|_| OccupancyOcTree::new(grid, params))
                .collect(),
            router,
            grid,
            params,
            ray_tracer,
            batch: insert::VoxelBatch::new(),
            shard_updates: vec![0; num_shards],
            last_tree_stats: StatsSnapshot::default(),
            event_sink: None,
        })
    }

    /// Turns on sub-scan event tracing (per-shard batch spans). The sharded
    /// baseline takes no [`crate::config::CacheConfig`], so the switch is a
    /// method rather than a config field.
    pub fn enable_events(&mut self) {
        if self.exec.event_sink.is_none() {
            self.exec.event_sink = Some(EventSink::new());
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.exec.shards.len()
    }

    /// The shard a voxel belongs to: the top octant bits of its key
    /// (delegates to the shared [`OctantRouter`]).
    #[inline]
    pub fn shard_of(&self, key: VoxelKey) -> usize {
        self.exec.router.shard_of(key)
    }

    /// Updates routed to each shard so far.
    pub fn shard_update_counts(&self) -> &[u64] {
        &self.exec.shard_updates
    }

    /// Load imbalance: busiest shard's share of updates divided by the fair
    /// share `1/num_shards`. A value of `num_shards` means one shard did
    /// all the work (total imbalance); `1.0` is perfect balance.
    pub fn imbalance(&self) -> f64 {
        routing::skew(&self.exec.shard_updates)
    }
}

impl ShardedExecutor {
    /// Sums the instrumentation counters of every shard.
    fn summed_tree_stats(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for shard in &self.shards {
            total.merge(&shard.stats().snapshot());
        }
        total
    }
}

impl ScanExecutor for ShardedExecutor {
    fn backend_name(&self) -> String {
        format!(
            "octomap-sharded{}x{}",
            self.ray_tracer.suffix(),
            self.shards.len()
        )
    }

    fn grid(&self) -> &VoxelGrid {
        &self.grid
    }

    fn execute_scan(
        &mut self,
        origin: Point3,
        cloud: &[Point3],
        max_range: f64,
        scan_seq: u64,
        metrics: &mut ScanMetrics,
    ) -> Result<ScanOutput, PipelineError> {
        let t0 = Instant::now();
        let batch = engine::trace_scan(
            self.ray_tracer,
            &self.grid,
            origin,
            cloud,
            max_range,
            &mut self.batch,
        )?;
        // Partition by shard (serial, like a naive implementation would).
        let mut parts: Vec<Vec<insert::VoxelUpdate>> =
            vec![Vec::with_capacity(batch.len() / self.shards.len() + 1); self.shards.len()];
        for u in batch.iter() {
            let s = self.router.shard_of(u.key);
            parts[s].push(*u);
            self.shard_updates[s] += 1;
        }
        let observations = batch.len();
        let ray_tracing = t0.elapsed();

        // Parallel shard update: one scoped thread per non-empty shard,
        // each owning its subtree exclusively (no locks needed — this is
        // the best case for the naive approach).
        let t1 = Instant::now();
        let event_sink = self.event_sink.as_ref();
        std::thread::scope(|scope| {
            for (s, (tree, updates)) in self.shards.iter_mut().zip(&parts).enumerate() {
                if updates.is_empty() {
                    continue;
                }
                let events = event_sink.map(|sink| {
                    let mut buf = sink.buffer(s as u32 + 1);
                    buf.set_scan(scan_seq);
                    buf
                });
                scope.spawn(move || {
                    let mut events = events;
                    if let Some(buf) = &mut events {
                        buf.emit_plain(EventKind::BatchBegin, updates.len() as u64);
                    }
                    for u in updates {
                        tree.update_node(u.key, u.occupied);
                    }
                    if let Some(buf) = &mut events {
                        buf.emit_plain(EventKind::BatchEnd, updates.len() as u64);
                    }
                    // Dropping the buffer drains it into the sink.
                });
            }
        });
        let octree_update = t1.elapsed();

        metrics.times.ray_tracing = ray_tracing;
        metrics.times.octree_update = octree_update;
        metrics.observations = observations as u64;
        let tree_after = self.summed_tree_stats();
        engine::stamp_tree_delta(metrics, &tree_after.since(&self.last_tree_stats));
        self.last_tree_stats = tree_after;
        metrics.memory_bytes = self.shards.iter().map(|s| s.memory_usage() as u64).sum();
        // This scan's per-shard routing: the same shape the N-worker
        // parallel backend reports, so trace analysis can compare the two
        // parallelisation strategies' balance directly.
        metrics.shard_batch_sizes = parts.iter().map(|p| p.len() as u64).collect();
        metrics.shard_skew = routing::skew(&metrics.shard_batch_sizes);
        Ok(ScanOutput {
            cache_hits: 0,
            octree_updates: observations,
            deferred: None,
        })
    }

    fn snapshot_tree(&self) -> OccupancyOcTree {
        engine::merge_shards(&self.shards)
    }

    fn occupancy(&mut self, key: VoxelKey) -> Option<f32> {
        self.shards[self.router.shard_of(key)].search(key)
    }

    fn is_occupied(&mut self, key: VoxelKey) -> Option<bool> {
        let params = self.params;
        self.occupancy(key).map(|l| params.is_occupied(l))
    }

    fn flush(&mut self) -> FlushTimes {
        FlushTimes::default()
    }

    fn tree_stats(&self) -> Option<StatsSnapshot> {
        Some(self.summed_tree_stats())
    }

    fn take_events(&mut self) -> Option<EventLog> {
        // Shard buffers are scoped to each scan and drain on drop, so the
        // sink is complete whenever no scan is in flight.
        self.event_sink.as_ref().map(|s| s.take())
    }

    fn take_tree(self) -> OccupancyOcTree {
        // Shards populate disjoint top-level octants (for 8 shards; for
        // fewer, disjoint octant groups, which still never collide because
        // a voxel routes to exactly one shard), so a structural merge
        // reassembles the map.
        engine::merge_shards(&self.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{MappingSystem, OctoMapSystem};

    fn grid() -> VoxelGrid {
        VoxelGrid::new(0.5, 8).unwrap()
    }

    fn cloud() -> Vec<Point3> {
        (0..40)
            .map(|i| Point3::new(6.0, -2.0 + i as f64 * 0.1, 0.25))
            .collect()
    }

    #[test]
    #[should_panic(expected = "must be 1, 2, 4 or 8")]
    fn rejects_odd_shard_counts() {
        ShardedOctoMap::new(grid(), OccupancyParams::default(), 3);
    }

    #[test]
    fn name_reflects_shards() {
        let s = ShardedOctoMap::new(grid(), OccupancyParams::default(), 4);
        assert_eq!(s.name(), "octomap-sharded x4".replace(' ', ""));
    }

    #[test]
    fn queries_agree_with_plain_octomap() {
        let mut sharded = ShardedOctoMap::new(grid(), OccupancyParams::default(), 8);
        let mut plain = OctoMapSystem::new(grid(), OccupancyParams::default());
        // Scans in two different octants (positive and negative x).
        for origin in [Point3::new(-0.5, 0.0, 0.0), Point3::new(0.5, 0.0, 0.0)] {
            sharded.insert_scan(origin, &cloud(), 20.0).unwrap();
            plain.insert_scan(origin, &cloud(), 20.0).unwrap();
            let mirror: Vec<Point3> = cloud().iter().map(|p| *p * -1.0).collect();
            sharded.insert_scan(origin, &mirror, 20.0).unwrap();
            plain.insert_scan(origin, &mirror, 20.0).unwrap();
        }
        for x in (0..256u16).step_by(5) {
            for y in (100..156u16).step_by(3) {
                let key = VoxelKey::new(x, y, 128);
                let a = sharded.occupancy(key);
                let b = plain.occupancy(key);
                match (a, b) {
                    (None, None) => {}
                    (Some(a), Some(b)) => assert!((a - b).abs() < 1e-5, "{key}"),
                    other => panic!("{key}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn imbalance_reflects_scan_locality() {
        let mut sharded = ShardedOctoMap::new(grid(), OccupancyParams::default(), 8);
        // A forward-looking scan cone: everything lands in one or two
        // octants — the paper's imbalance argument.
        sharded
            .insert_scan(Point3::new(0.5, 0.5, 0.5), &cloud(), 20.0)
            .unwrap();
        let imbalance = sharded.imbalance();
        assert!(
            imbalance > 2.0,
            "expected heavy skew for a local scan, got {imbalance:.2}"
        );
    }

    #[test]
    fn single_shard_equals_plain() {
        let mut one = ShardedOctoMap::new(grid(), OccupancyParams::default(), 1);
        one.insert_scan(Point3::ZERO, &cloud(), 20.0).unwrap();
        assert_eq!(one.imbalance(), 1.0);
        assert_eq!(
            one.is_occupied_at(Point3::new(6.0, 0.0, 0.25)).unwrap(),
            Some(true)
        );
    }
}
