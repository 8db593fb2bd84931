//! The parallel OctoCache pipeline (paper §4.4, Figures 13(b)/14): the
//! caller's thread runs ray tracing, cache insertion, queries and cache
//! eviction, and a scoped octree thread applies each evicted batch,
//! overlapping the next scan's ray tracing. DESIGN.md §5.1 holds the
//! N-worker sweep that kept it at the paper's two threads.
//!
//! The paper's timeline runs queries when no batch is in flight: everything
//! evicted earlier is in the octree, everything newer in the cache. To keep
//! that through a call-based API, each scan ([`MappingSystem::insert_scan`]
//! on [`ParallelOctoCache`]) is one fork-join that **defers the eviction of
//! the just-inserted batch to the start of the next call**:
//!
//! 1. evict the previous batch into the one reused buffer,
//! 2. spawn a scoped thread that applies it to the octree, and ray-trace
//!    the new scan meanwhile,
//! 3. join the thread (the paper's thread-1 "gap", [`PhaseTimes::wait`]),
//! 4. insert the new batch into the cache, seeding misses from the octree.
//!
//! Between `insert_scan` calls nothing is in flight, so queries are
//! OctoMap-consistent at every point the caller can observe.
//!
//! A panicking octree thread is `join`'s `Err`: the caller re-applies the
//! batch inline and `insert_scan` returns [`PipelineError::WorkerPanicked`]
//! for it, once. A thread that cannot be spawned has its batch applied
//! inline, and the scan stays `Ok`. Re-applying is exact because evicted
//! cells carry the voxel's absolute log-odds and the batch apply
//! overwrites, whatever prefix a dead thread already wrote. Either way the
//! next scan spawns a thread again, and the map stays exact.

use std::time::{Duration, Instant};

use octocache_geom::{Point3, VoxelGrid, VoxelKey};
use octocache_octomap::stats::StatsSnapshot;
use octocache_octomap::{insert, rt, OccupancyOcTree, OccupancyParams};
use octocache_telemetry::{EventBuffer, EventKind, EventLog, EventSink, PhaseTimes, ScanRecord};

use crate::cache::{CacheStats, EvictedCell, VoxelCache};
use crate::config::CacheConfig;
use crate::engine::{self, Engine, FlushTimes, ScanExecutor};
use crate::fault::{FaultCounters, FaultPlan, PipelineError};
use crate::pipeline::{MappingSystem, RayTracer};

/// The octree thread's event lane; lane 0 is the caller's.
const WORKER_LANE: u32 = 1;

/// The parallel OctoCache mapping system: the caller's thread plus one
/// scoped octree thread per scan, run through the shared scan-lifecycle
/// [`Engine`].
///
/// See the [module docs](self) for the phase ordering; the public API is the
/// same [`MappingSystem`] as every other backend.
pub type ParallelOctoCache = Engine<ParallelExecutor>;

/// The scan-execution strategy behind [`ParallelOctoCache`]: the voxel
/// cache, the octree, and the fork-join that applies each eviction batch on
/// a scoped thread. The scan lifecycle around it lives in the [`Engine`].
#[derive(Debug)]
pub struct ParallelExecutor {
    cache: VoxelCache,
    tree: OccupancyOcTree,
    ray_tracer: RayTracer,
    batch: insert::VoxelBatch,
    /// The one eviction buffer: filled at the start of each scan, applied
    /// by that scan's octree thread.
    evict_buf: Vec<EvictedCell>,
    /// The test-only fault schedule ([`CacheConfig::fault_plan`]).
    plan: FaultPlan,
    /// Batches handed over so far, so the next batch's 0-based index.
    batches: u64,
    /// Cumulative fault counters (`fault_counters`).
    faults: FaultCounters,
    /// The caller's lane-0 event buffer when built with
    /// `CacheConfig::events(true)`: it records the cache's events from each
    /// scan's batch and evicted run.
    events: Option<EventBuffer>,
    /// The [`WORKER_LANE`] buffer on the same sink, lent to each octree
    /// thread, which drains it at the end of its batch.
    worker_events: Option<EventBuffer>,
}

/// What one hand-off measured, after any inline re-apply.
struct Handoff {
    /// The caller's spawn of the octree thread.
    enqueue: Duration,
    /// The caller's join of the octree thread.
    wait: Duration,
    /// The octree thread's `dequeue` (its start, measured from the spawn)
    /// and `octree_update` (its apply); zero when it panicked or never ran.
    worker: PhaseTimes,
    /// The caller's inline apply of a batch the thread did not apply.
    inline: Duration,
    /// Batches the thread took: 1, or 0 when the spawn failed.
    depth: u64,
    /// The panic to surface, once.
    error: Option<PipelineError>,
}

impl ParallelOctoCache {
    /// Creates a parallel OctoCache with the standard ray tracer.
    pub fn new(grid: VoxelGrid, params: OccupancyParams, config: CacheConfig) -> Self {
        Self::with_ray_tracer(grid, params, config, RayTracer::Standard)
    }

    /// Creates a parallel OctoCache with a chosen ray-tracing front-end
    /// (`RayTracer::Dedup` gives the paper's parallel OctoCache-RT).
    pub fn with_ray_tracer(
        grid: VoxelGrid,
        params: OccupancyParams,
        config: CacheConfig,
        ray_tracer: RayTracer,
    ) -> Self {
        let events = config.events().then(|| EventSink::new().buffer(0));
        let worker_events = events.as_ref().map(|b| b.lane(WORKER_LANE));
        Engine::from_executor(ParallelExecutor {
            cache: VoxelCache::new(config, params),
            tree: OccupancyOcTree::new(grid, params),
            ray_tracer,
            batch: insert::VoxelBatch::new(),
            evict_buf: Vec::new(),
            plan: config.fault_plan().unwrap_or_default(),
            batches: 0,
            faults: FaultCounters::default(),
            events,
            worker_events,
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

    /// Flushes the cache and returns the completed octree.
    pub fn into_tree(mut self) -> OccupancyOcTree {
        self.finish();
        self.exec.tree
    }
}

/// Fires any fault `plan` schedules for `batch`: the octree thread's one
/// failpoint, checked once per batch.
fn fire_faults(plan: &FaultPlan, batch: u64) {
    if plan.kill == Some(batch) {
        panic!("fault injection: killing the octree thread at batch {batch}");
    }
    if let Some(every) = plan.kill_every {
        if (batch + 1).is_multiple_of(every) {
            panic!("fault injection: periodic kill at batch {batch}");
        }
    }
}

/// The octree thread's body: apply `cells` as batch `batch`, recording its
/// span on `lane`. Returns the batch's `dequeue` (from `handed`, the
/// caller's spawn, to the thread's start) and `octree_update` times.
fn apply_batch(
    tree: &mut OccupancyOcTree,
    cells: &[EvictedCell],
    lane: Option<&mut EventBuffer>,
    plan: &FaultPlan,
    batch: u64,
    handed: Instant,
) -> PhaseTimes {
    let dequeue = handed.elapsed();
    fire_faults(plan, batch);
    // The thread stamps the batch index as the scan: one batch is handed
    // over per scan, so the two sequences align (plus the two batches of
    // `finish`).
    let mut lane = lane;
    if let Some(buf) = lane.as_deref_mut() {
        buf.set_scan(batch);
        buf.emit_plain(EventKind::BatchBegin, 0);
        buf.emit_plain(EventKind::QueueDequeue, 1);
    }
    let t0 = Instant::now();
    engine::apply_cells(tree, cells);
    let octree_update = t0.elapsed();
    if let Some(buf) = lane {
        buf.emit_plain(EventKind::BatchEnd, cells.len() as u64);
        buf.drain();
    }
    PhaseTimes {
        dequeue,
        octree_update,
        ..Default::default()
    }
}

impl ParallelExecutor {
    /// Evicts the pending batch (with `drain`, the whole cache) into
    /// [`Self::evict_buf`], returning the time it took.
    fn evict(&mut self, drain: bool) -> Duration {
        let t0 = Instant::now();
        self.evict_buf.clear();
        if drain {
            self.cache.drain_into(&mut self.evict_buf);
        } else {
            self.cache.evict_into(&mut self.evict_buf);
        }
        if let Some(events) = &mut self.events {
            engine::record_evictions(events, &self.cache, &self.evict_buf);
        }
        t0.elapsed()
    }

    /// Applies [`Self::evict_buf`] on a scoped octree thread while
    /// `overlap` runs on the caller's thread with the trace buffer, then
    /// joins. A thread that panicked (the octree is a valid tree: its open
    /// path closed as it unwound) or never spawned has the batch applied
    /// inline here, after the join.
    fn hand_off<R>(&mut self, overlap: impl FnOnce(&mut insert::VoxelBatch) -> R) -> (R, Handoff) {
        let index = self.batches;
        self.batches += 1;
        let ParallelExecutor {
            tree,
            evict_buf,
            batch,
            plan,
            events,
            worker_events,
            ..
        } = self;
        let (cells, plan): (&[EvictedCell], FaultPlan) = (evict_buf, *plan);
        let (result, enqueue, wait, joined) = std::thread::scope(|s| {
            let handed = Instant::now();
            let spawned = if plan.fail_spawn {
                Err(std::io::Error::other(
                    "fault injection: forced spawn failure",
                ))
            } else {
                let lane = worker_events.as_mut();
                std::thread::Builder::new()
                    .name("octocache-octree".to_string())
                    .spawn_scoped(s, move || {
                        apply_batch(tree, cells, lane, &plan, index, handed)
                    })
            };
            let enqueue = handed.elapsed();
            if let (Ok(_), Some(buf)) = (&spawned, events.as_mut()) {
                buf.emit_for(WORKER_LANE, EventKind::QueueEnqueue, 1);
            }
            let result = overlap(batch);
            let t0 = Instant::now();
            let joined = spawned.map(|handle| handle.join());
            (result, enqueue, t0.elapsed(), joined)
        });
        let mut handoff = Handoff {
            enqueue,
            wait,
            worker: PhaseTimes::default(),
            inline: Duration::ZERO,
            depth: u64::from(joined.is_ok()),
            error: None,
        };
        if let Ok(Ok(worker)) = joined {
            handoff.worker = worker;
        } else {
            if joined.is_ok() {
                self.faults.worker_panics += 1;
                handoff.error = Some(PipelineError::WorkerPanicked { batch: index });
            } else {
                self.faults.spawn_failures += 1;
            }
            let t0 = Instant::now();
            engine::apply_cells(&mut self.tree, &self.evict_buf);
            handoff.inline = t0.elapsed();
            self.faults.cells_reapplied += self.evict_buf.len() as u64;
            self.faults.batches_rerouted += u64::from(!self.evict_buf.is_empty());
        }
        (result, handoff)
    }
}

impl ScanExecutor for ParallelExecutor {
    fn backend_name(&self) -> String {
        format!("octocache-parallel{}", self.ray_tracer.suffix())
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
        // A rejected scan must touch nothing: checked before phase 1 so no
        // batch is evicted when the error returns.
        let grid = *self.tree.grid();
        insert::check_origin(&grid, origin)?;
        let started = Instant::now();
        let cache_before = *self.cache.stats();
        let tree_before = self.tree.stats().snapshot();
        let faults_before = self.faults;
        if let Some(buf) = &mut self.events {
            buf.set_scan(record.seq);
        }

        // Phase 1: evict the previous batch.
        let cache_evict = self.evict(false);

        // Phase 2: apply it on the octree thread while ray-tracing the new
        // scan; phase 3: join.
        let ray_tracer = self.ray_tracer;
        let (traced, handoff) = self.hand_off(|batch| {
            let t0 = Instant::now();
            let traced = insert::compute_update(&grid, origin, cloud, max_range, batch).map(|()| {
                match ray_tracer {
                    RayTracer::Standard => None,
                    RayTracer::Dedup => Some(rt::dedup_batch(batch)),
                }
            });
            (traced, t0.elapsed())
        });
        let (deduped, ray_tracing) = (traced.0?, traced.1);
        let batch: &insert::VoxelBatch = deduped.as_ref().unwrap_or(&self.batch);

        // Phase 4: cache insertion, seeding misses from the octree.
        let t0 = Instant::now();
        record.octree_seed_visits =
            engine::insert_seeded(&mut self.cache, &self.tree, self.events.as_mut(), batch);
        let cache_insert = t0.elapsed();

        // This scan's times carry the octree thread's cost of the batch it
        // applied, so cross-scan totals cover both sides of the pipeline.
        record.times = PhaseTimes {
            ray_tracing,
            cache_insert,
            cache_evict,
            octree_update: handoff.inline,
            enqueue: handoff.enqueue,
            wait: handoff.wait,
            ..Default::default()
        } + handoff.worker;
        record.observations = batch.len() as u64;
        record.memory_bytes = self.tree.memory_usage() as u64;
        record.queue_depth_enqueue = handoff.depth;
        record.queue_depth_dequeue = handoff.depth;
        record.worker_queue_depths = vec![handoff.depth];
        let busy = (handoff.worker.dequeue + handoff.worker.octree_update).as_nanos() as u64;
        record.worker_busy_ns = vec![busy];
        record.worker_idle_ns = vec![(started.elapsed().as_nanos() as u64).saturating_sub(busy)];
        engine::stamp_deltas(
            record,
            &self.cache.stats().since(&cache_before),
            &self.tree.stats().snapshot().since(&tree_before),
        );
        let faults = self.faults.since(&faults_before);
        record.worker_panics = faults.worker_panics;
        record.spawn_failures = faults.spawn_failures;
        record.batches_rerouted = faults.batches_rerouted;

        if let Some(buf) = &mut self.events {
            buf.drain();
        }
        // A panic is surfaced after the engine has recorded the scan.
        Ok(handoff.error)
    }

    fn occupancy(&mut self, key: VoxelKey) -> Option<f32> {
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
        // The pending eviction batch, then everything left in the cache,
        // each handed over like a scan's batch.
        let evict1 = self.evict(false);
        let ((), first) = self.hand_off(|_| ());
        let evict2 = self.evict(true);
        let ((), second) = self.hand_off(|_| ());

        let times = PhaseTimes {
            cache_evict: evict1 + evict2,
            octree_update: first.inline + second.inline,
            enqueue: first.enqueue + second.enqueue,
            wait: first.wait + second.wait,
            ..Default::default()
        };
        if let Some(buf) = &mut self.events {
            buf.drain();
        }
        // The final flush belongs to no scan: its octree-thread time goes
        // into the totals only (`recorded`), never into what the `finish`
        // caller gets back.
        FlushTimes {
            returned: times,
            recorded: times + first.worker + second.worker,
        }
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(*self.cache.stats())
    }

    fn tree_stats(&self) -> Option<StatsSnapshot> {
        Some(self.tree.stats().snapshot())
    }

    fn fault_counters(&self) -> FaultCounters {
        self.faults
    }

    fn config(&self) -> Option<&CacheConfig> {
        Some(self.cache.config())
    }

    fn resident_bytes(&self) -> u64 {
        (self.tree.memory_usage() + self.cache.memory_usage()) as u64
    }

    /// Builds a self-contained read tree: a deep copy of the octree with
    /// the cache's accumulated values overlaid on top. Called between
    /// scans, when no batch is in flight.
    fn snapshot_tree(&self) -> OccupancyOcTree {
        let mut tree = self.tree.deep_clone();
        engine::overlay_cache(&mut tree, &self.cache);
        tree
    }

    fn take_events(&mut self) -> Option<EventLog> {
        // The octree thread drains its lane after every batch, so the sink
        // holds everything once the caller's buffer is flushed.
        self.events.as_mut().map(EventBuffer::take_log)
    }

    fn take_tree(self) -> OccupancyOcTree {
        self.tree
    }
}

// What the unit tests below inspect of a pipeline.
#[cfg(test)]
impl ParallelOctoCache {
    /// The backing octree. Pending cache contents are not included; call
    /// [`MappingSystem::finish`] first for a complete tree.
    pub(crate) fn tree(&self) -> &OccupancyOcTree {
        &self.exec.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(w: usize, tau: usize) -> ParallelOctoCache {
        let grid = VoxelGrid::new(0.5, 8).unwrap();
        let config = CacheConfig::builder()
            .num_buckets(w)
            .tau(tau)
            .build()
            .unwrap();
        ParallelOctoCache::new(grid, OccupancyParams::default(), config)
    }

    fn wall_cloud(offset: f64) -> Vec<Point3> {
        (0..50)
            .map(|i| Point3::new(6.0, -1.5 + offset + i as f64 * 0.05, 0.25))
            .collect()
    }

    /// A cloud spanning several octants (both sides of the grid centre on
    /// every axis).
    fn spread_cloud(offset: f64) -> Vec<Point3> {
        (0..60)
            .map(|i| {
                let a = i as f64 * 0.41 + offset;
                Point3::new(
                    12.0 * a.sin(),
                    12.0 * a.cos(),
                    if i % 2 == 0 { 4.0 } else { -4.0 },
                )
            })
            .collect()
    }

    #[test]
    fn name() {
        let mut s = system(64, 4);
        assert_eq!(s.name(), "octocache-parallel");
        s.finish();
    }

    #[test]
    fn insert_and_query() {
        let mut s = system(1 << 10, 4);
        for i in 0..5 {
            s.insert_scan(Point3::ZERO, &wall_cloud(i as f64 * 0.1), 20.0)
                .unwrap();
            // Queries between scans must already see the latest scan.
            assert_eq!(
                s.is_occupied_at(Point3::new(6.0, 0.0, 0.25)).unwrap(),
                Some(true)
            );
            assert_eq!(
                s.is_occupied_at(Point3::new(3.0, 0.0, 0.25)).unwrap(),
                Some(false)
            );
        }
    }

    #[test]
    fn insert_and_query_across_octants() {
        let mut s = system(1 << 6, 1); // tiny cache: constant eviction
        let mut last = Vec::new();
        for i in 0..6 {
            let origin = Point3::new(0.0, 0.0, if i % 2 == 0 { 1.0 } else { -1.0 });
            last = spread_cloud(i as f64 * 0.13);
            s.insert_scan(origin, &last, 40.0).unwrap();
        }
        // The latest scan's endpoints span several octants, so these
        // queries exercise the cache-miss fall-through all over the octree.
        // All of them are known to the map, and most were just hit.
        let mut occupied = 0;
        for p in &last {
            match s.is_occupied_at(*p).unwrap() {
                Some(true) => occupied += 1,
                Some(false) => {}
                None => panic!("endpoint {p:?} unknown to the map"),
            }
        }
        assert!(occupied > last.len() / 2, "{occupied}/{}", last.len());
    }

    #[test]
    fn finish_completes_tree() {
        let mut s = system(1 << 8, 2);
        for i in 0..4 {
            s.insert_scan(Point3::ZERO, &wall_cloud(i as f64 * 0.05), 20.0)
                .unwrap();
        }
        s.finish();
        // The tree alone now answers (no cache consultation).
        assert_eq!(
            s.tree()
                .is_occupied_at(Point3::new(6.0, 0.0, 0.25))
                .unwrap(),
            Some(true)
        );
    }

    #[test]
    fn into_tree_matches_serial_and_octomap() {
        let grid = VoxelGrid::new(0.5, 8).unwrap();
        let params = OccupancyParams::default();
        let cfg = CacheConfig::builder()
            .num_buckets(1 << 8)
            .tau(2)
            .build()
            .unwrap();
        let mut par = ParallelOctoCache::new(grid, params, cfg);
        let mut ser = crate::serial::SerialOctoCache::new(grid, params, cfg);
        let mut plain = OccupancyOcTree::new(grid, params);

        for i in 0..6 {
            let origin = Point3::new(0.0, i as f64 * 0.2, 0.0);
            let cloud = wall_cloud(i as f64 * 0.03);
            par.insert_scan(origin, &cloud, 30.0).unwrap();
            ser.insert_scan(origin, &cloud, 30.0).unwrap();
            insert::insert_point_cloud(&mut plain, origin, &cloud, 30.0).unwrap();
        }
        let t_par = par.into_tree();
        let t_ser = ser.into_tree();
        for x in 100..160u16 {
            for y in 110..140u16 {
                let key = VoxelKey::new(x, y, 128);
                let a = t_par.search(key);
                let b = t_ser.search(key);
                let c = plain.search(key);
                match (a, b, c) {
                    (None, None, None) => {}
                    (Some(a), Some(b), Some(c)) => {
                        assert!((a - b).abs() < 1e-5, "{key}: par {a} vs ser {b}");
                        assert!((a - c).abs() < 1e-5, "{key}: par {a} vs plain {c}");
                    }
                    other => panic!("{key}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn worker_times_are_recorded() {
        let mut s = system(1 << 6, 1); // tiny cache: lots of evictions
        for i in 0..8 {
            s.insert_scan(Point3::ZERO, &wall_cloud(i as f64 * 0.07), 20.0)
                .unwrap();
        }
        s.finish();
        let t = s.phase_times();
        assert!(t.octree_update > std::time::Duration::ZERO);
        assert!(t.dequeue > std::time::Duration::ZERO);
    }

    #[test]
    fn tree_stats_reset_between_scans_records_no_wrapped_delta() {
        use octocache_telemetry::SharedRecorder;
        let recorder = SharedRecorder::new();
        let mut s = system(1 << 6, 1); // tiny cache: the tree is written every scan
        s.set_recorder(Box::new(recorder.clone()));
        for i in 0..3 {
            s.insert_scan(Point3::ZERO, &wall_cloud(i as f64 * 0.07), 20.0)
                .unwrap();
        }
        // The counters drop below the snapshot the last record was taken
        // against; the next scan's delta must not underflow.
        s.tree().stats().reset();
        s.insert_scan(Point3::ZERO, &wall_cloud(0.21), 20.0)
            .unwrap();
        s.finish();
        let records = recorder.records();
        assert_eq!(records.len(), 4);
        for r in &records {
            assert!(
                r.octree_node_visits < 1 << 32 && r.octree_leaf_updates < 1 << 32,
                "wrapped tree delta: {} visits, {} updates",
                r.octree_node_visits,
                r.octree_leaf_updates
            );
        }
    }

    #[test]
    fn per_worker_telemetry_is_recorded() {
        use octocache_telemetry::SharedRecorder;
        let recorder = SharedRecorder::new();
        let mut s = system(1 << 6, 1);
        s.set_recorder(Box::new(recorder.clone()));
        for i in 0..6 {
            s.insert_scan(Point3::ZERO, &spread_cloud(i as f64 * 0.17), 40.0)
                .unwrap();
        }
        s.finish();
        let records = recorder.records();
        assert!(!records.is_empty());
        // One worker: the per-worker vectors carry exactly one element.
        for r in &records {
            assert_eq!(r.worker_queue_depths.len(), 1);
            assert_eq!(r.worker_busy_ns.len(), 1);
            assert_eq!(r.worker_idle_ns.len(), 1);
        }
        assert!(records.iter().any(|r| r.worker_busy_ns[0] > 0));
    }

    #[test]
    fn drop_without_finish_is_clean() {
        let mut s = system(1 << 6, 2);
        s.insert_scan(Point3::ZERO, &spread_cloud(0.0), 40.0)
            .unwrap();
        drop(s); // must not hang or panic
    }

    #[test]
    fn rt_variant_name_and_behaviour() {
        let grid = VoxelGrid::new(0.5, 8).unwrap();
        let cfg = CacheConfig::builder()
            .num_buckets(1 << 8)
            .tau(4)
            .build()
            .unwrap();
        let mut s = ParallelOctoCache::with_ray_tracer(
            grid,
            OccupancyParams::default(),
            cfg,
            RayTracer::Dedup,
        );
        assert_eq!(s.name(), "octocache-parallel-rt");
        let report = s.insert_scan(Point3::ZERO, &wall_cloud(0.0), 20.0).unwrap();
        // Dedup front-end: observations are distinct.
        assert!(report.observations > 0);
        s.finish();
    }

    // ---- fault injection (a failpoint every build carries) ----

    use octocache_octomap::compare;

    /// A pipeline with a fault plan and a tiny cache (constant eviction).
    fn faulty_system(plan: FaultPlan) -> ParallelOctoCache {
        let grid = VoxelGrid::new(0.5, 8).unwrap();
        let config = CacheConfig::builder()
            .num_buckets(1 << 6)
            .tau(1)
            .fault_plan(plan)
            .build()
            .unwrap();
        ParallelOctoCache::new(grid, OccupancyParams::default(), config)
    }

    /// Replays the standard fault-test scan sequence, collecting errors.
    fn run_scans(s: &mut ParallelOctoCache) -> Vec<PipelineError> {
        let mut errors = Vec::new();
        for i in 0..6 {
            let origin = Point3::new(0.0, 0.0, if i % 2 == 0 { 1.0 } else { -1.0 });
            if let Err(e) = s.insert_scan(origin, &spread_cloud(i as f64 * 0.13), 40.0) {
                errors.push(e);
            }
        }
        errors
    }

    /// The no-fault reference tree for [`run_scans`]'s sequence.
    fn reference_tree() -> OccupancyOcTree {
        let mut s = faulty_system(FaultPlan::default());
        assert!(run_scans(&mut s).is_empty());
        s.into_tree()
    }

    #[test]
    fn spawn_failure_degrades_to_inline_apply() {
        let plan = FaultPlan {
            fail_spawn: true,
            ..Default::default()
        };
        let mut s = faulty_system(plan);
        // Scans succeed throughout: every batch a failed spawn left is
        // applied inline, which is no error the caller must handle.
        assert!(run_scans(&mut s).is_empty());
        let f = s.fault_counters();
        assert_eq!(f.spawn_failures, 6, "one failed spawn per scan: {f:?}");
        assert_eq!(f.worker_panics, 0);
        assert!(f.batches_rerouted >= 1 && f.cells_reapplied > 0, "{f:?}");
        let d = compare::diff(&reference_tree(), &s.into_tree(), 0.0);
        assert!(
            d.is_identical(),
            "inline apply diverged: {} value / {} coverage mismatches",
            d.value_mismatches,
            d.coverage_mismatches
        );
    }

    #[test]
    fn killed_worker_is_reported_and_rerouted() {
        let plan = FaultPlan {
            kill: Some(1),
            ..Default::default()
        };
        let mut s = faulty_system(plan);
        let errors = run_scans(&mut s);
        // Exactly one scan surfaces the fault; later scans spawn a thread
        // again and succeed.
        assert_eq!(errors, [PipelineError::WorkerPanicked { batch: 1 }]);
        let f = s.fault_counters();
        assert_eq!(f.worker_panics, 1);
        assert_eq!(f.batches_rerouted, 1);
        assert!(f.cells_reapplied > 0);
        // The batch was re-applied inline: the map must be exact.
        let d = compare::diff(&reference_tree(), &s.into_tree(), 0.0);
        assert!(
            d.is_identical(),
            "re-apply diverged: {} value / {} coverage mismatches",
            d.value_mismatches,
            d.coverage_mismatches
        );
    }

    #[test]
    fn killed_single_worker_still_completes_the_run() {
        let plan = FaultPlan {
            kill: Some(2),
            ..Default::default()
        };
        let mut s = faulty_system(plan);
        let errors = run_scans(&mut s);
        assert_eq!(errors.len(), 1, "{errors:?}");
        let d = compare::diff(&reference_tree(), &s.into_tree(), 0.0);
        assert!(d.is_identical());
    }

    /// One valid scan, a NaN-origin scan, then two more valid ones.
    fn scans_around_a_rejected_one() -> Vec<(Point3, Vec<Point3>)> {
        let nan = Point3::new(f64::NAN, 0.0, 0.0);
        [Point3::ZERO, nan, Point3::ZERO, Point3::ZERO]
            .into_iter()
            .enumerate()
            .map(|(i, origin)| (origin, spread_cloud(i as f64 * 0.13)))
            .collect()
    }

    /// What a serial twin that never saw the rejected scan answers.
    fn serial_twin(scans: &[(Point3, Vec<Point3>)]) -> crate::serial::SerialOctoCache {
        let cfg = CacheConfig::builder()
            .num_buckets(1 << 6)
            .tau(1)
            .build()
            .unwrap();
        let grid = VoxelGrid::new(0.5, 8).unwrap();
        let mut twin = crate::serial::SerialOctoCache::new(grid, OccupancyParams::default(), cfg);
        for (origin, cloud) in scans.iter().filter(|(o, _)| o.is_finite()) {
            twin.insert_scan(*origin, cloud, 40.0).unwrap();
        }
        twin
    }

    #[test]
    fn kill_at_the_rejected_scans_batch_reapplies_the_right_batch() {
        // Batch 1 carries scan 0's evictions. The rejected scan must not
        // evict or hand over anything, or the batch indices would shift
        // under the plan.
        let plan = FaultPlan {
            kill: Some(1),
            ..Default::default()
        };
        let mut s = faulty_system(plan);
        let scans = scans_around_a_rejected_one();
        let results: Vec<_> = scans
            .iter()
            .map(|(origin, cloud)| s.insert_scan(*origin, cloud, 40.0))
            .collect();
        assert!(results[0].is_ok(), "{:?}", results[0]);
        assert!(matches!(results[1], Err(PipelineError::Geom(_))));
        // The kill lands on the scan that really sent batch 1.
        assert!(
            matches!(results[2], Err(PipelineError::WorkerPanicked { batch: 1 })),
            "{:?}",
            results[2]
        );
        assert!(results[3].is_ok(), "{:?}", results[3]);
        let d = compare::diff(&serial_twin(&scans).into_tree(), &s.into_tree(), 0.0);
        assert!(
            d.is_identical(),
            "{} value / {} coverage mismatches",
            d.value_mismatches,
            d.coverage_mismatches
        );
    }

    #[test]
    fn fault_deltas_reach_telemetry_records() {
        use octocache_telemetry::SharedRecorder;
        let plan = FaultPlan {
            kill: Some(1),
            ..Default::default()
        };
        let mut s = faulty_system(plan);
        let recorder = SharedRecorder::new();
        s.set_recorder(Box::new(recorder.clone()));
        let _ = run_scans(&mut s);
        s.finish();
        let records = recorder.records();
        let panics: u64 = records.iter().map(|r| r.worker_panics).sum();
        assert_eq!(panics, 1, "panic delta must land on exactly one record");
        // On scan 1's record, whose batch the thread did not apply.
        assert_eq!(records[1].worker_panics, 1);
        assert_eq!(records[1].batches_rerouted, 1);
        assert_eq!(records[1].worker_busy_ns, [0]);
        assert!(records[1].times.octree_update > Duration::ZERO);
    }
}
