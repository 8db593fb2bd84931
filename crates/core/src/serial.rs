//! The serial OctoCache pipeline (paper §4.2–4.3, Figure 11/13(a)).
//!
//! One thread runs the whole workflow per scan: ray tracing → cache
//! insertion → (queries) → cache eviction → octree update. The win over
//! vanilla OctoMap comes from the cache absorbing duplicated voxel updates
//! (most observations become O(1) bucket probes instead of octree round
//! trips) and from the Morton-aligned eviction order speeding up the octree
//! updates that remain.
//!
//! The scan lifecycle around this (telemetry, snapshot republish, the
//! per-scan record) lives in the shared [`Engine`]; this module contributes
//! the [`SerialExecutor`].

use std::time::Instant;

use octocache_geom::{Point3, VoxelGrid, VoxelKey};
use octocache_octomap::stats::StatsSnapshot;
use octocache_octomap::{insert, OccupancyOcTree, OccupancyParams};
use octocache_telemetry::{EventBuffer, EventLog, EventSink, PhaseTimes, ScanRecord};

use crate::cache::{CacheStats, EvictedCell, VoxelCache};
use crate::config::CacheConfig;
use crate::engine::{self, Engine, FlushTimes, ScanExecutor};
use crate::fault::PipelineError;
use crate::pipeline::{MappingSystem, RayTracer};

/// The serial OctoCache mapping system: the scan-lifecycle [`Engine`] over
/// a [`SerialExecutor`].
///
/// See the [crate-level example](crate) for typical usage.
pub type SerialOctoCache = Engine<SerialExecutor>;

/// Scan execution for the serial OctoCache pipeline: ray tracing → cache
/// insertion → τ-eviction → Morton-ordered octree update, all on the
/// calling thread.
#[derive(Debug)]
pub struct SerialExecutor {
    cache: VoxelCache,
    tree: OccupancyOcTree,
    ray_tracer: RayTracer,
    batch: insert::VoxelBatch,
    evict_buf: Vec<EvictedCell>,
    /// The lane-0 event buffer, present iff the config enabled event
    /// recording: the cache's events are recorded from each scan's batch
    /// and evicted run.
    events: Option<EventBuffer>,
}

/// The timed post-ray-tracing workflow for one pre-traced batch: cache
/// insertion (misses seeded through one read cursor on the tree) →
/// τ-eviction into `evict_buf` → octree update, writing the three phase
/// times and the cursor's node visits into `record`, and recording the
/// cache's events when `events` is present. Free-standing so callers can
/// pass a batch that borrows a sibling field of the executor.
fn integrate(
    cache: &mut VoxelCache,
    tree: &mut OccupancyOcTree,
    evict_buf: &mut Vec<EvictedCell>,
    mut events: Option<&mut EventBuffer>,
    batch: &insert::VoxelBatch,
    record: &mut ScanRecord,
) {
    let t1 = Instant::now();
    record.octree_seed_visits = engine::insert_seeded(cache, tree, events.as_deref_mut(), batch);
    record.times.cache_insert = t1.elapsed();

    let t2 = Instant::now();
    evict_buf.clear();
    cache.evict_into(evict_buf);
    record.times.cache_evict = t2.elapsed();

    let t3 = Instant::now();
    engine::apply_evictions(events, cache, tree, evict_buf);
    record.times.octree_update = t3.elapsed();
}

impl SerialOctoCache {
    /// Creates a serial OctoCache with the standard ray tracer.
    pub fn new(grid: VoxelGrid, params: OccupancyParams, config: CacheConfig) -> Self {
        Self::with_ray_tracer(grid, params, config, RayTracer::Standard)
    }

    /// Creates a serial OctoCache with a chosen ray-tracing front-end
    /// (`RayTracer::Dedup` gives the paper's OctoCache-RT).
    pub fn with_ray_tracer(
        grid: VoxelGrid,
        params: OccupancyParams,
        config: CacheConfig,
        ray_tracer: RayTracer,
    ) -> Self {
        Engine::from_executor(SerialExecutor {
            cache: VoxelCache::new(config, params),
            tree: OccupancyOcTree::new(grid, params),
            ray_tracer,
            batch: insert::VoxelBatch::new(),
            evict_buf: Vec::new(),
            events: config.events().then(|| EventSink::new().buffer(0)),
        })
    }

    /// The cache layer.
    pub fn cache(&self) -> &VoxelCache {
        &self.exec.cache
    }

    /// Cache behaviour counters.
    pub fn cache_stats(&self) -> &CacheStats {
        self.exec.cache.stats()
    }

    /// The backing octree. Note that pending cache contents are *not* yet in
    /// the tree; call [`MappingSystem::finish`] first when you need the tree
    /// alone to be complete.
    pub fn tree(&self) -> &OccupancyOcTree {
        &self.exec.tree
    }

    /// Consumes the system, flushing the cache, and returns the octree.
    pub fn into_tree(mut self) -> OccupancyOcTree {
        self.finish();
        self.exec.tree
    }
}

impl ScanExecutor for SerialExecutor {
    fn backend_name(&self) -> String {
        format!("octocache-serial{}", self.ray_tracer.suffix())
    }

    fn grid(&self) -> &VoxelGrid {
        self.tree.grid()
    }

    fn execute_scan(
        &mut self,
        origin: Point3,
        cloud: &[Point3],
        max_range: f64,
        record: &mut ScanRecord,
    ) -> Result<Option<PipelineError>, PipelineError> {
        let cache_before = *self.cache.stats();
        let tree_before = self.tree.stats().snapshot();
        if let Some(buf) = &mut self.events {
            buf.set_scan(record.seq);
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
        record.times = PhaseTimes {
            ray_tracing: t0.elapsed(),
            ..Default::default()
        };
        record.observations = batch.len() as u64;

        integrate(
            &mut self.cache,
            &mut self.tree,
            &mut self.evict_buf,
            self.events.as_mut(),
            &batch,
            record,
        );
        engine::stamp_deltas(
            record,
            &self.cache.stats().since(&cache_before),
            &self.tree.stats().snapshot().since(&tree_before),
        );
        record.memory_bytes = self.tree.memory_usage() as u64;
        Ok(None)
    }

    fn snapshot_tree(&self) -> OccupancyOcTree {
        // Deep-copy plus cache overlay: the snapshot answers exactly what
        // the live cache→tree fall-through path answers at this boundary.
        let mut t = self.tree.deep_clone();
        engine::overlay_cache(&mut t, &self.cache);
        t
    }

    fn occupancy(&mut self, key: VoxelKey) -> Option<f32> {
        // Cache first (accumulated value = what OctoMap would hold), octree
        // on a miss — the paper's consistency path.
        match self.cache.get(key) {
            Some(v) => Some(v),
            None => self.tree.search(key),
        }
    }

    fn is_occupied(&mut self, key: VoxelKey) -> Option<bool> {
        let params = *self.tree.params();
        self.occupancy(key).map(|l| params.is_occupied(l))
    }

    fn flush(&mut self) -> FlushTimes {
        let t0 = Instant::now();
        self.evict_buf.clear();
        self.cache.drain_into(&mut self.evict_buf);
        let cache_evict = t0.elapsed();
        let t1 = Instant::now();
        engine::apply_evictions(
            self.events.as_mut(),
            &self.cache,
            &mut self.tree,
            &self.evict_buf,
        );
        let octree_update = t1.elapsed();
        let times = PhaseTimes {
            cache_evict,
            octree_update,
            ..Default::default()
        };
        FlushTimes {
            returned: times,
            recorded: times,
        }
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(*self.cache.stats())
    }

    fn tree_stats(&self) -> Option<StatsSnapshot> {
        Some(self.tree.stats().snapshot())
    }

    fn take_events(&mut self) -> Option<EventLog> {
        self.events.as_mut().map(EventBuffer::take_log)
    }

    fn config(&self) -> Option<&CacheConfig> {
        Some(self.cache.config())
    }

    fn resident_bytes(&self) -> u64 {
        (self.tree.memory_usage() + self.cache.memory_usage()) as u64
    }

    fn take_tree(self) -> OccupancyOcTree {
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use octocache_telemetry::{is_sampled, EventKind};

    use super::*;

    fn system(w: usize, tau: usize) -> SerialOctoCache {
        let grid = VoxelGrid::new(0.5, 8).unwrap();
        let config = CacheConfig::builder()
            .num_buckets(w)
            .tau(tau)
            .build()
            .unwrap();
        SerialOctoCache::new(grid, OccupancyParams::default(), config)
    }

    fn wall_cloud() -> Vec<Point3> {
        // Dense sampling of a wall: many points per voxel -> duplicates.
        (0..60)
            .map(|i| Point3::new(6.0, -1.5 + i as f64 * 0.05, 0.25))
            .collect()
    }

    #[test]
    fn name_includes_rt_suffix() {
        assert_eq!(system(64, 4).name(), "octocache-serial");
        let grid = VoxelGrid::new(0.5, 8).unwrap();
        let cfg = CacheConfig::builder()
            .num_buckets(64)
            .tau(4)
            .build()
            .unwrap();
        let s = SerialOctoCache::with_ray_tracer(
            grid,
            OccupancyParams::default(),
            cfg,
            RayTracer::Dedup,
        );
        assert_eq!(s.name(), "octocache-serial-rt");
    }

    #[test]
    fn scan_generates_cache_hits_on_duplicates() {
        let mut s = system(1 << 10, 4);
        let report = s.insert_scan(Point3::ZERO, &wall_cloud(), 20.0).unwrap();
        assert!(report.observations > 0);
        assert!(
            report.cache_hits > 0,
            "dense scan must produce duplicate hits"
        );
        // Fewer octree updates than observations — the cache absorbed them.
        assert!(report.octree_updates < report.observations);
    }

    #[test]
    fn queries_answered_before_octree_update() {
        let mut s = system(1 << 12, 64); // huge tau: nothing evicts
        s.insert_scan(Point3::ZERO, &wall_cloud(), 20.0).unwrap();
        // Nothing (or nearly nothing) reached the tree yet…
        assert!(s.tree().num_nodes() <= 1);
        // …but queries already see the scan through the cache.
        assert_eq!(
            s.is_occupied_at(Point3::new(6.0, 0.0, 0.25)).unwrap(),
            Some(true)
        );
        assert_eq!(
            s.is_occupied_at(Point3::new(3.0, 0.0, 0.25)).unwrap(),
            Some(false)
        );
    }

    #[test]
    fn finish_flushes_cache_into_tree() {
        let mut s = system(1 << 10, 4);
        s.insert_scan(Point3::ZERO, &wall_cloud(), 20.0).unwrap();
        s.finish();
        assert!(s.cache().is_empty());
        // The tree alone answers correctly now.
        assert_eq!(
            s.tree()
                .is_occupied_at(Point3::new(6.0, 0.0, 0.25))
                .unwrap(),
            Some(true)
        );
    }

    #[test]
    fn into_tree_matches_octomap_semantics() {
        // After finish(), the map must agree voxel-for-voxel with vanilla
        // OctoMap fed the same scans.
        let grid = VoxelGrid::new(0.5, 8).unwrap();
        let params = OccupancyParams::default();
        let cfg = CacheConfig::builder()
            .num_buckets(1 << 8)
            .tau(2)
            .build()
            .unwrap();
        let mut cached = SerialOctoCache::new(grid, params, cfg);
        let mut plain = OccupancyOcTree::new(grid, params);

        let scans: Vec<(Point3, Vec<Point3>)> = (0..5)
            .map(|s| {
                let origin = Point3::new(s as f64 * 0.6, 0.0, 0.0);
                let cloud = (0..30)
                    .map(|i| Point3::new(8.0, -1.0 + i as f64 * 0.07, 0.25))
                    .collect();
                (origin, cloud)
            })
            .collect();

        for (origin, cloud) in &scans {
            cached.insert_scan(*origin, cloud, 30.0).unwrap();
            insert::insert_point_cloud(&mut plain, *origin, cloud, 30.0).unwrap();
        }
        let tree = cached.into_tree();

        // Compare decisions over the whole relevant region.
        for x in 0..40u16 {
            for y in 0..40u16 {
                let key = VoxelKey::new(120 + x, 100 + y, 128);
                assert_eq!(
                    tree.is_occupied(key),
                    plain.is_occupied(key),
                    "mismatch at {key}"
                );
            }
        }
    }

    #[test]
    fn query_consistency_with_octomap_mid_stream() {
        // At any point between scans, OctoCache answers must equal vanilla
        // OctoMap's (the cache serves accumulated values).
        let grid = VoxelGrid::new(0.5, 8).unwrap();
        let params = OccupancyParams::default();
        let cfg = CacheConfig::builder()
            .num_buckets(1 << 6)
            .tau(2)
            .build()
            .unwrap();
        let mut cached = SerialOctoCache::new(grid, params, cfg);
        let mut plain = OccupancyOcTree::new(grid, params);

        for s in 0..4 {
            let origin = Point3::new(0.0, s as f64 * 0.3, 0.0);
            let cloud: Vec<Point3> = (0..25)
                .map(|i| Point3::new(7.0, -1.0 + i as f64 * 0.09, 0.25))
                .collect();
            cached.insert_scan(origin, &cloud, 30.0).unwrap();
            insert::insert_point_cloud(&mut plain, origin, &cloud, 30.0).unwrap();

            for x in 0..36u16 {
                let key = VoxelKey::new(112 + x, 126, 128);
                let got = cached.occupancy(key);
                let want = plain.search(key);
                match (got, want) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert!((a - b).abs() < 1e-5, "key {key}: {a} vs {b}")
                    }
                    other => panic!("key {key}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn event_stream_covers_cache_and_update_path() {
        let grid = VoxelGrid::new(0.5, 8).unwrap();
        let config = CacheConfig::builder()
            .num_buckets(64)
            .tau(1)
            .events(true)
            .build()
            .unwrap();
        let mut s = SerialOctoCache::new(grid, OccupancyParams::default(), config);
        s.insert_scan(Point3::ZERO, &wall_cloud(), 20.0).unwrap();
        s.insert_scan(Point3::ZERO, &wall_cloud(), 20.0).unwrap();
        s.finish();
        let log = s.take_events().expect("events enabled");
        assert_eq!(log.dropped, 0);
        let count = |k: EventKind| log.events.iter().filter(|e| e.kind == k).count();
        assert!(count(EventKind::CacheMiss) > 0);
        assert!(
            count(EventKind::CacheHit) > 0,
            "wall scan must produce hits"
        );
        assert!(count(EventKind::CacheEvict) > 0, "tau=1 must evict");
        // One span per scan plus one for the finish flush.
        assert_eq!(count(EventKind::BatchBegin), 3);
        assert_eq!(count(EventKind::BatchEnd), 3);
        assert!(log.events.iter().all(|e| e.worker == 0));
        // Scan stamps advance with the telemetry sequence.
        assert!(log.events.iter().any(|e| e.scan == 1));
        // Cache events are the lattice's share of what the counters count.
        let stats = MappingSystem::cache_stats(&s).unwrap();
        assert!(count(EventKind::CacheHit) as u64 <= stats.hits);
        assert!(count(EventKind::CacheMiss) as u64 <= stats.misses);
        assert!(count(EventKind::CacheEvict) as u64 <= stats.evictions);
        assert!(log.events.iter().all(|e| is_sampled(e.key)));
    }

    #[test]
    fn events_do_not_change_the_map() {
        let grid = VoxelGrid::new(0.5, 8).unwrap();
        let params = OccupancyParams::default();
        let mut base = CacheConfig::builder();
        base.num_buckets(64).tau(2);
        let mut plain = SerialOctoCache::new(grid, params, base.build().unwrap());
        let mut recorded = SerialOctoCache::new(grid, params, base.events(true).build().unwrap());
        for i in 0..4 {
            let origin = Point3::new(0.0, i as f64 * 0.3, 0.0);
            plain.insert_scan(origin, &wall_cloud(), 20.0).unwrap();
            recorded.insert_scan(origin, &wall_cloud(), 20.0).unwrap();
        }
        let a = plain.into_tree();
        let b = recorded.into_tree();
        for x in 0..40u16 {
            for y in 0..40u16 {
                let key = VoxelKey::new(110 + x, 100 + y, 128);
                assert_eq!(a.search(key), b.search(key), "mismatch at {key}");
            }
        }
    }

    /// Builds each dataset's map at its benchmark workload's parameters
    /// (scale, scans, resolution, buckets, τ = 4) through this backend and
    /// prints one `pool:` line each: live nodes, inner blocks (64 bytes)
    /// and leaf bricks (32 bytes) in use, what sits on the free lists, and
    /// the bytes of the map's copy per live node (`map_mb` is that copy's
    /// `memory_usage`). The campus must stay at ≤ 9 bytes a node: 8-byte
    /// inner nodes with four-byte leaves in bricks, against 12-byte nodes
    /// with 96-byte blocks before the pools split.
    #[test]
    fn pool_census_on_the_benchmark_datasets() {
        use octocache_datasets::{Dataset, DatasetConfig};
        for (dataset, scale, scans, resolution, buckets) in [
            (Dataset::FreiburgCampus, 0.25, 8, 0.1, 1 << 19),
            (Dataset::Fr079Corridor, 1.0, 66, 0.1, 1 << 16),
            (Dataset::NewCollege, 0.25, 16, 0.2, 1 << 16),
        ] {
            let seq = dataset.generate(&DatasetConfig {
                scale,
                seed: 0xC0FFEE,
            });
            let grid = VoxelGrid::new(resolution, 16).unwrap();
            let config = CacheConfig::builder()
                .num_buckets(buckets)
                .tau(4)
                .build()
                .unwrap();
            let mut system = SerialOctoCache::new(grid, OccupancyParams::default(), config);
            for scan in &seq.scans()[..scans] {
                system
                    .insert_scan(scan.origin, &scan.points, seq.max_range())
                    .unwrap();
            }
            let tree = system.into_tree().deep_clone();
            let census = tree.pool_census();
            assert_eq!(census.bytes, tree.memory_usage());
            assert_eq!(
                census.bytes,
                64 * (census.inner_blocks + census.free_inner_blocks)
                    + 32 * (census.bricks + census.free_bricks)
                    + 4 * (census.free_inner_blocks + census.free_bricks),
                "{dataset}: the copy's bytes are its blocks, bricks and free lists"
            );
            let per_node = census.bytes as f64 / census.nodes as f64;
            println!(
                "pool: {dataset} scale {scale}, {scans} scans at {resolution} m: {} nodes \
                 ({} leaves), {} inner blocks + {} free, {} bricks + {} free, \
                 {:.2} MB, {per_node:.2} bytes per live node",
                census.nodes,
                census.leaves,
                census.inner_blocks,
                census.free_inner_blocks,
                census.bricks,
                census.free_bricks,
                census.bytes as f64 / 1e6,
            );
            if dataset == Dataset::FreiburgCampus {
                assert!(per_node <= 9.0, "{dataset}: {per_node:.2} bytes per node");
            }
        }
    }

    #[test]
    fn phase_times_accumulate() {
        let mut s = system(1 << 8, 4);
        s.insert_scan(Point3::ZERO, &wall_cloud(), 20.0).unwrap();
        let t1 = s.phase_times();
        s.insert_scan(Point3::ZERO, &wall_cloud(), 20.0).unwrap();
        let t2 = s.phase_times();
        assert!(t2.cache_insert >= t1.cache_insert);
        assert!(t2.ray_tracing >= t1.ray_tracing);
    }
}
