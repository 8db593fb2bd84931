//! The parallel OctoCache pipeline (paper §4.4, Figures 13(b)/14): two
//! threads, one SPSC ring, one octree.
//!
//! Thread 1 (the caller's thread) runs ray tracing, cache insertion, queries
//! and cache eviction; the octree worker dequeues evicted voxels from the
//! SPSC buffer and applies them to the octree. One mutex serialises the
//! octree's reads (cache-miss seeding, queries) against the worker's batch
//! updates.
//!
//! The paper fixes the pipeline at two threads and dismisses octree
//! sharding "due to data imbalance" (§4.4); DESIGN.md §5.1 holds the
//! N-worker sweep that agrees with it (N = 1 fastest on every dataset,
//! half the workers idle at N = 4).
//!
//! ## Phase ordering and consistency
//!
//! The paper's timeline runs, per batch: ray tracing → cache insertion →
//! *queries* → cache eviction → (worker: octree update, overlapping the
//! next batch's ray tracing). Queries therefore always execute when the
//! shared buffer is empty: everything evicted earlier has been applied to
//! the octree, and everything newer is in the cache. To expose the same
//! guarantee through a call-based API, the parallel executor's scan path
//! ([`MappingSystem::insert_scan`] on [`ParallelOctoCache`]) **defers the
//! eviction of the just-inserted batch to the start of the next call**:
//!
//! 1. evict the previous batch and hand it to the worker — one ring
//!    message carrying the whole finished run,
//! 2. ray-trace the new scan — concurrently with the worker's update,
//! 3. wait for the worker (the paper's thread-1 "gap", reported as
//!    [`PhaseTimes::wait`]),
//! 4. insert the new batch into the cache (octree reads are safe: the
//!    queue is empty and the octree mutex is free).
//!
//! Between `insert_scan` calls the queue is thus always drained, so
//! queries are OctoMap-consistent at every point the caller can observe.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use octocache_geom::{Point3, VoxelGrid, VoxelKey};
use octocache_octomap::stats::StatsSnapshot;
use octocache_octomap::{insert, rt, OccupancyOcTree, OccupancyParams};
use octocache_telemetry::{EventBuffer, EventKind, EventLog, EventSink, PhaseTimes, ScanRecord};
use parking_lot::{Mutex, MutexGuard};

use crate::cache::{CacheStats, EvictedCell, VoxelCache};
use crate::config::CacheConfig;
use crate::engine::{self, Engine, FlushTimes, ScanExecutor};
use crate::fault::{
    FaultCounters, FaultPlan, Integrity, IntegrityState, IntegrityTransition, PipelineError,
};
use crate::pipeline::{MappingSystem, RayTracer};
use crate::spsc::{self, Backoff, Producer};

/// The ring's one message: a finished, Morton-ordered eviction batch,
/// shared with the producer's retained copy. The counting drain needs the
/// whole run before it can place a cell, so there is nothing to stream.
type Batch = Arc<Vec<EvictedCell>>;

/// Ring capacity in batches. The producer waits for `batches_done` before
/// it sends again (the retained copy must cover the one batch in flight),
/// so the ring never holds more than one message.
const QUEUE_CAPACITY: usize = 1;

/// The worker's event lane; lane 0 is the producer.
const WORKER_LANE: u32 = 1;

/// Counters shared with the worker thread.
#[derive(Debug, Default)]
struct WorkerShared {
    batches_done: AtomicU64,
    dequeue_nanos: AtomicU64,
    octree_nanos: AtomicU64,
    /// Time spent waiting for a batch (no work queued).
    idle_nanos: AtomicU64,
    /// Queue depth (in batches, including the one just popped) observed by
    /// the worker at its most recent pop.
    queue_depth_dequeue: AtomicU64,
    shutdown: AtomicBool,
    /// Set (last) by the worker thread when it exits, for any reason.
    dead: AtomicBool,
    /// Set when the worker body unwound ([`std::panic::catch_unwind`]).
    panicked: AtomicBool,
}

/// Thread-1 state for the octree-update worker: its queue producer, the
/// octree, the shared counters, and the attribution bookmarks.
#[derive(Debug)]
struct Worker {
    producer: Producer<Batch>,
    tree: Arc<Mutex<OccupancyOcTree>>,
    shared: Arc<WorkerShared>,
    handle: Option<JoinHandle<()>>,
    /// Batches handed to the worker.
    batches_sent: u64,
    /// Why the worker left the rotation; `Some` means evictions are now
    /// applied inline on the producer thread.
    failed: Option<PipelineError>,
    /// Worker nanos already attributed to recorded scans; the difference to
    /// the live atomics is the not-yet-attributed residual.
    dequeue_seen: u64,
    octree_seen: u64,
    idle_seen: u64,
    /// The generation-0 fault plan; respawned generations keep only its
    /// periodic kill ([`ParallelExecutor::try_respawn`]).
    faults: FaultPlan,
    /// Times the worker has been respawned (counts against
    /// [`ParallelExecutor::max_restarts`]).
    restarts: u32,
}

impl Worker {
    /// Locks the octree for the producer thread. A worker out of rotation
    /// may be wedged holding the mutex, so its octree is only ever tried —
    /// `None` means "skip it": the map is already
    /// [`Integrity::Compromised`] by the wedge itself.
    fn lock_tree(&self) -> Option<MutexGuard<'_, OccupancyOcTree>> {
        if self.failed.is_some() {
            self.tree.try_lock()
        } else {
            Some(self.tree.lock())
        }
    }
}

/// The parallel OctoCache mapping system: one mapping thread plus one
/// octree-update worker, run through the shared scan-lifecycle [`Engine`].
///
/// See the [module docs](self) for the phase ordering; the public API is the
/// same [`MappingSystem`] as every other backend.
pub type ParallelOctoCache = Engine<ParallelExecutor>;

/// The parallel scan-execution strategy behind [`ParallelOctoCache`]: the
/// voxel cache and the octree worker behind its SPSC ring, including all
/// fault detection and degraded-mode machinery. The scan lifecycle around
/// it (telemetry sequencing, snapshot republish, the per-scan record)
/// lives in the [`Engine`].
#[derive(Debug)]
pub struct ParallelExecutor {
    cache: VoxelCache,
    worker: Worker,
    grid: VoxelGrid,
    params: OccupancyParams,
    ray_tracer: RayTracer,
    batch: insert::VoxelBatch,
    /// The batch in flight, retained until the next send so a dead
    /// worker's batch can be re-applied inline (cells carry absolute
    /// log-odds, so re-application is idempotent). The worker holds the
    /// other reference only while it applies the batch.
    evict_buf: Batch,
    /// Deadline for every producer-side bounded wait
    /// ([`CacheConfig::stall_timeout`]).
    stall_timeout: Duration,
    /// Cumulative fault counters (`fault_counters`).
    faults: FaultCounters,
    /// Counter values already attributed to recorded scans.
    faults_reported: FaultCounters,
    /// Map-consistency verdict (`integrity`) plus its transition history,
    /// so heals stay visible after the sticky flag recovers.
    integrity: IntegrityState,
    /// Worker-respawn budget ([`CacheConfig::max_restarts`]); `0` disables
    /// respawn.
    max_restarts: u32,
    /// Nanos spent respawning the worker, not yet attributed to a scan.
    restart_ns_pending: u64,
    /// First pipeline fault observed during the current scan, surfaced by
    /// `insert_scan` exactly once (returned as `execute_scan`'s deferred
    /// fault).
    scan_error: Option<PipelineError>,
    /// Octree counters at the end of the previous scan, for per-scan
    /// deltas.
    last_tree_stats: StatsSnapshot,
    /// The producer's lane-0 event buffer when built with
    /// `CacheConfig::events(true)`: it records the cache's events from each
    /// scan's batch and evicted run. The worker owns a [`WORKER_LANE`]
    /// buffer on the same sink and drains it per batch.
    events: Option<EventBuffer>,
}

/// What `evict_and_enqueue` produced.
struct EnqueueOutcome {
    evict: Duration,
    enqueue: Duration,
    /// Batches in the ring right after the hand-off: 1, or 0 when the
    /// batch was applied inline.
    queue_depth: u64,
}

/// Spawns the octree worker thread over `tree`.
fn spawn_worker(
    consumer: spsc::Consumer<Batch>,
    tree: &Arc<Mutex<OccupancyOcTree>>,
    shared: &Arc<WorkerShared>,
    faults: FaultPlan,
    producer_events: Option<&EventBuffer>,
) -> std::io::Result<JoinHandle<()>> {
    let tree = Arc::clone(tree);
    let shared = Arc::clone(shared);
    let events = producer_events.map(|b| b.lane(WORKER_LANE));
    std::thread::Builder::new()
        .name("octocache-octree-0".to_string())
        .spawn(move || worker_thread(consumer, tree, shared, faults, events))
}

/// Fires any fault `plan` schedules for `batch` (kill = panic, stall =
/// sleep): the worker's one failpoint, checked once per batch. A periodic
/// kill fires when `(batch + 1) % every == 0`, so a respawned thread
/// (local batch index restarts at 0) survives `every - 1` batches before
/// dying again.
fn fire_faults(plan: &FaultPlan, batch: u64) {
    if plan.kill == Some(batch) {
        panic!("fault injection: killing worker at batch {batch}");
    }
    if let Some(stall) = plan.stall {
        if stall.batch == batch {
            std::thread::sleep(Duration::from_micros(stall.micros));
        }
    }
    if let Some(every) = plan.kill_every {
        if (batch + 1).is_multiple_of(every) {
            panic!("fault injection: periodic kill at batch {batch}");
        }
    }
}

impl ParallelOctoCache {
    /// Creates a parallel OctoCache with the standard ray tracer.
    pub fn new(grid: VoxelGrid, params: OccupancyParams, config: CacheConfig) -> Self {
        Self::with_ray_tracer(grid, params, config, RayTracer::Standard)
    }

    /// Creates a parallel OctoCache with a chosen ray-tracing front-end
    /// (`RayTracer::Dedup` gives the paper's parallel OctoCache-RT).
    ///
    /// A worker thread that cannot be spawned does not abort construction:
    /// evictions are applied inline on the producer thread, the downgrade
    /// is counted ([`FaultCounters::spawn_failures`]) and the instance
    /// starts [`Integrity::Degraded`].
    pub fn with_ray_tracer(
        grid: VoxelGrid,
        params: OccupancyParams,
        config: CacheConfig,
        ray_tracer: RayTracer,
    ) -> Self {
        let stall_timeout = config.stall_timeout();
        let events = config.events().then(|| EventSink::new().buffer(0));
        let mut faults = FaultCounters::default();
        let mut integrity = IntegrityState::default();
        let tree = Arc::new(Mutex::new(OccupancyOcTree::new(grid, params)));
        let shared = Arc::new(WorkerShared::default());
        let plan = config.fault_plan().unwrap_or_default();
        let (producer, consumer) = spsc::channel::<Batch>(QUEUE_CAPACITY);
        let spawned = if plan.fail_spawn {
            Err(std::io::Error::other(
                "fault injection: forced spawn failure",
            ))
        } else {
            spawn_worker(consumer, &tree, &shared, plan, events.as_ref())
        };
        let (handle, failed) = match spawned {
            Ok(handle) => (Some(handle), None),
            Err(e) => {
                // Degrade instead of panicking: evictions are served
                // inline from the start.
                faults.spawn_failures += 1;
                integrity.escalate(Integrity::Degraded);
                let err = PipelineError::WorkerSpawn {
                    reason: e.to_string(),
                };
                (None, Some(err))
            }
        };
        let worker = Worker {
            producer,
            tree,
            shared,
            handle,
            batches_sent: 0,
            failed,
            dequeue_seen: 0,
            octree_seen: 0,
            idle_seen: 0,
            faults: plan,
            restarts: 0,
        };
        let cache = VoxelCache::new(config, params);
        let max_restarts = cache.config().max_restarts();
        Engine::from_executor(ParallelExecutor {
            cache,
            worker,
            grid,
            params,
            ray_tracer,
            batch: insert::VoxelBatch::new(),
            evict_buf: Batch::default(),
            stall_timeout,
            faults,
            faults_reported: FaultCounters::default(),
            integrity,
            max_restarts,
            restart_ns_pending: 0,
            scan_error: None,
            last_tree_stats: StatsSnapshot::default(),
            events,
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

    /// Shuts the worker down and returns the octree (flushing the cache
    /// first, so the tree is complete).
    pub fn into_tree(mut self) -> OccupancyOcTree {
        self.finish();
        self.exec.take_tree()
    }
}

impl ParallelExecutor {
    /// Takes the dead worker out of rotation: joins the thread, re-applies
    /// the retained batch inline, and records the first error of the scan.
    fn fail_dead_worker(&mut self) {
        let w = &mut self.worker;
        if let Some(handle) = w.handle.take() {
            let _ = handle.join();
        }
        // A worker that exited without unwinding (it saw shutdown between
        // batches) is reported against the in-flight batch all the same.
        if w.shared.panicked.load(Ordering::Acquire) {
            self.faults.worker_panics += 1;
        }
        let batch = w.shared.batches_done.load(Ordering::Acquire);
        // The thread has exited, so the octree mutex is free (parking_lot
        // does not poison) and nothing races the inline re-apply. Evicted
        // cells carry the voxel's absolute accumulated log-odds and the
        // batch apply overwrites, so this restores exactly the state a
        // healthy worker would have produced, whatever prefix of the batch
        // was already applied (a worker that died mid-batch closed its open
        // path on unwind, so the octree is a valid tree).
        engine::apply_cells(&mut w.tree.lock(), self.evict_buf.iter());
        self.note_reapplied();
        self.integrity.escalate(Integrity::Degraded);
        self.fail_worker(PipelineError::WorkerPanicked { batch });
    }

    /// Takes the stalled worker out of rotation after a bounded wait
    /// expired. The thread may be wedged (it cannot be joined here), so the
    /// re-apply is best-effort: if the octree mutex is unavailable the
    /// batch is unconfirmed and the map is [`Integrity::Compromised`].
    fn fail_stalled_worker(&mut self, waited: Duration) {
        self.faults.stall_timeouts += 1;
        // Ask the worker to exit whenever it wakes; the handle is joined later
        // only once the worker is observed dead (a wedged thread must never
        // hang the producer).
        self.worker.shared.shutdown.store(true, Ordering::Release);
        let applied = match self.worker.tree.try_lock() {
            Some(mut tree) => {
                engine::apply_cells(&mut tree, self.evict_buf.iter());
                true
            }
            None => false,
        };
        if applied {
            self.note_reapplied();
            self.integrity.escalate(Integrity::Degraded);
        } else {
            // The wedged worker holds the octree mutex; the batch could not
            // be confirmed applied.
            self.integrity.escalate(Integrity::Compromised);
        }
        self.fail_worker(PipelineError::QueueStalled { waited });
    }

    /// Counts the retained batch as applied inline by the producer.
    fn note_reapplied(&mut self) {
        self.faults.cells_reapplied += self.evict_buf.len() as u64;
        if !self.evict_buf.is_empty() {
            self.faults.batches_rerouted += 1;
        }
    }

    /// Marks the worker out of rotation and keeps the scan's first error.
    fn fail_worker(&mut self, err: PipelineError) {
        self.scan_error.get_or_insert_with(|| err.clone());
        self.worker.failed = Some(err);
    }

    /// Applies the retained batch inline while the worker is out of
    /// rotation (degraded mode). If the worker may still be alive (a
    /// stalled thread that never exited), it gets a bounded window to die;
    /// applying newer values while it could still write stale ones
    /// compromises the map.
    fn apply_inline(&mut self) {
        let w = &mut self.worker;
        if w.handle.is_some() {
            let mut backoff = Backoff::new(self.stall_timeout);
            while !w.shared.dead.load(Ordering::Acquire) {
                if !backoff.snooze() {
                    break;
                }
            }
            if w.shared.dead.load(Ordering::Acquire) {
                if let Some(handle) = w.handle.take() {
                    let _ = handle.join();
                }
            } else {
                self.integrity.escalate(Integrity::Compromised);
            }
        }
        if self.evict_buf.is_empty() {
            return;
        }
        match w.tree.try_lock() {
            Some(mut guard) => engine::apply_cells(&mut guard, self.evict_buf.iter()),
            None => {
                // The wedged worker holds the octree mutex; these cells
                // cannot be applied at all.
                self.faults.partial_batches += 1;
                self.integrity.escalate(Integrity::Compromised);
                self.scan_error.get_or_insert(PipelineError::PartialScan {
                    batch: w.batches_sent,
                    cells_dropped: self.evict_buf.len() as u64,
                });
                return;
            }
        }
        self.note_reapplied();
    }

    /// Whether the supervisor may respawn the worker: its thread must have
    /// provably exited (`handle` is `None` — a stalled worker's wedged
    /// thread keeps its handle and could still write stale values), its
    /// failure must be a clean-exit class, and its restart budget must not
    /// be exhausted.
    fn respawn_eligible(&self) -> bool {
        let w = &self.worker;
        if w.handle.is_some() || w.restarts >= self.max_restarts {
            return false;
        }
        matches!(
            w.failed,
            Some(PipelineError::WorkerPanicked { .. } | PipelineError::WorkerSpawn { .. })
        )
    }

    /// Supervisor pass: respawn the dead worker if its restart budget
    /// allows it, then heal the integrity verdict once it is back in
    /// rotation. Runs at the top of each scan, when the queue is drained
    /// and the retained batch has already been re-applied inline — so the
    /// fresh thread starts from an exact octree and an empty ring.
    fn try_respawn(&mut self) {
        if self.max_restarts == 0 {
            return;
        }
        if self.respawn_eligible() {
            let t0 = Instant::now();
            let w = &mut self.worker;
            let shared = Arc::new(WorkerShared::default());
            let (producer, consumer) = spsc::channel::<Batch>(QUEUE_CAPACITY);
            // One-shot faults already fired on generation 0 (and a
            // respawned thread's batch index restarts at 0, so they would
            // re-fire spuriously); only the periodic kill survives — it is
            // the chaos workload that exhausts restart budgets.
            let faults = FaultPlan {
                kill_every: w.faults.kill_every,
                ..FaultPlan::default()
            };
            let spawned = spawn_worker(consumer, &w.tree, &shared, faults, self.events.as_ref());
            match spawned {
                Ok(handle) => {
                    // Fresh ring, fresh counters: the new generation's
                    // `batches_done` starts at 0, so `batches_sent` must
                    // restart with it. Attribution bookmarks reset too —
                    // the old generation's nanos were already taken.
                    w.producer = producer;
                    w.shared = shared;
                    w.handle = Some(handle);
                    w.batches_sent = 0;
                    w.failed = None;
                    w.dequeue_seen = 0;
                    w.octree_seen = 0;
                    w.idle_seen = 0;
                    w.restarts += 1;
                    self.faults.restarts += 1;
                }
                Err(_) => {
                    // Spawn failed again: burn one unit of the budget (so
                    // a persistently failing environment converges to the
                    // permanent-degrade path) and stay failed.
                    w.restarts += 1;
                    self.faults.spawn_failures += 1;
                }
            }
            self.restart_ns_pending += t0.elapsed().as_nanos() as u64;
        }
        if self.worker.failed.is_none() && self.integrity.heal() {
            self.faults.heals += 1;
        }
    }

    /// Waits (bounded) until the worker has applied every batch enqueued to
    /// it — the thread-1 "gap" of the paper's Figure 13(b). A worker that
    /// dies here has the retained batch re-applied inline; one that exceeds
    /// [`Self::stall_timeout`] is taken out of rotation as stalled.
    fn wait_for_worker(&mut self) {
        if self.worker.failed.is_some() {
            return;
        }
        let mut backoff = Backoff::new(self.stall_timeout);
        loop {
            let shared = &self.worker.shared;
            if shared.batches_done.load(Ordering::Acquire) >= self.worker.batches_sent {
                break;
            }
            if shared.dead.load(Ordering::Acquire) {
                self.fail_dead_worker();
                break;
            }
            if !backoff.snooze() {
                self.fail_stalled_worker(backoff.waited());
                break;
            }
        }
    }

    /// Hands the retained batch ([`Self::evict_buf`]) to the worker as one
    /// message — even when empty, so `batches_done` stays aligned. While
    /// the worker is out of rotation the batch is applied inline; a worker
    /// found dead is failed over the same way.
    fn send_batch(&mut self) -> EnqueueOutcome {
        let t1 = Instant::now();
        let mut queue_depth = 0;
        if self.worker.failed.is_some() {
            self.apply_inline();
        } else if self.worker.shared.dead.load(Ordering::Acquire) {
            self.fail_dead_worker();
        } else {
            match self.worker.producer.push(Arc::clone(&self.evict_buf)) {
                Ok(()) => {
                    self.worker.batches_sent += 1;
                    queue_depth = 1;
                    if let Some(buf) = &mut self.events {
                        buf.emit_for(WORKER_LANE, EventKind::QueueEnqueue, queue_depth);
                    }
                }
                // Every send follows a completed wait, so a full ring is a
                // worker that never took the previous batch.
                Err(spsc::Full(_)) => self.fail_stalled_worker(Duration::ZERO),
            }
        }
        EnqueueOutcome {
            evict: Duration::ZERO,
            enqueue: t1.elapsed(),
            queue_depth,
        }
    }

    /// Evicts the pending batch into the retained buffer and hands it to
    /// the worker.
    fn evict_and_enqueue(&mut self) -> EnqueueOutcome {
        let t0 = Instant::now();
        // The worker drops its reference before it publishes
        // `batches_done`, so this reclaims the buffer in place; only a
        // worker that stalled mid-apply still shares it and costs a copy.
        let buf = Arc::make_mut(&mut self.evict_buf);
        buf.clear();
        self.cache.evict_into(buf);
        if let Some(events) = &mut self.events {
            engine::record_evictions(events, &self.cache, buf);
        }
        let evict = t0.elapsed();
        let mut out = self.send_batch();
        out.evict = evict;
        out
    }

    fn shutdown_worker(&mut self) {
        let w = &mut self.worker;
        if let Some(handle) = w.handle.take() {
            w.shared.shutdown.store(true, Ordering::Release);
            if w.failed.is_none() || w.shared.dead.load(Ordering::Acquire) {
                let _ = handle.join();
            }
            // else: detach — a wedged worker must never hang shutdown;
            // it exits on its own when (if) it wakes and sees the flag.
        }
    }

    /// Worker time accumulated since the last attribution, folded into a
    /// [`PhaseTimes`] plus the worker's busy/idle nanos, and marked as
    /// attributed. Called once per scan, so each scan's record carries the
    /// worker time of the batch it waited on (the batch evicted one scan
    /// earlier — the pipeline offset of the paper's Figure 13(b)).
    fn take_worker_delta(&mut self) -> (PhaseTimes, u64, u64) {
        let w = &mut self.worker;
        let dq = w.shared.dequeue_nanos.load(Ordering::Relaxed);
        let oc = w.shared.octree_nanos.load(Ordering::Relaxed);
        let id = w.shared.idle_nanos.load(Ordering::Relaxed);
        let d_dq = dq.saturating_sub(w.dequeue_seen);
        let d_oc = oc.saturating_sub(w.octree_seen);
        let d_id = id.saturating_sub(w.idle_seen);
        w.dequeue_seen = dq;
        w.octree_seen = oc;
        w.idle_seen = id;
        let times = PhaseTimes {
            dequeue: Duration::from_nanos(d_dq),
            octree_update: Duration::from_nanos(d_oc),
            ..Default::default()
        };
        (times, d_dq + d_oc, d_id)
    }
}

impl ScanExecutor for ParallelExecutor {
    fn backend_name(&self) -> String {
        format!("octocache-parallel{}", self.ray_tracer.suffix())
    }

    fn grid(&self) -> &VoxelGrid {
        &self.grid
    }

    fn execute_scan(
        &mut self,
        origin: Point3,
        cloud: &[Point3],
        max_range: f64,
        record: &mut ScanRecord,
    ) -> Result<Option<PipelineError>, PipelineError> {
        // A rejected scan must touch nothing: checked before phase 1 so
        // no batch is left in flight when the error returns.
        insert::check_origin(&self.grid, origin)?;
        let cache_before = *self.cache.stats();
        self.integrity.set_scan(record.seq);
        if let Some(buf) = &mut self.events {
            buf.set_scan(record.seq);
        }

        // Phase 0: the supervisor pass — respawn the dead worker if its
        // restart budget allows it, healing the integrity verdict once it
        // is back. A no-op unless `max_restarts > 0`.
        self.try_respawn();

        // Phase 1: evict the previous batch and hand it to the worker.
        let enq = self.evict_and_enqueue();

        // Phase 2: ray-trace the new scan, overlapping the worker's update.
        let grid = self.grid;
        let t0 = Instant::now();
        insert::compute_update(&grid, origin, cloud, max_range, &mut self.batch)?;
        let deduped: Option<insert::VoxelBatch> = match self.ray_tracer {
            RayTracer::Standard => None,
            RayTracer::Dedup => Some(rt::dedup_batch(&self.batch)),
        };
        let ray_tracing = t0.elapsed();

        // Phase 3: wait for the worker — the paper's thread-1 gap.
        let t1 = Instant::now();
        self.wait_for_worker();
        let wait = t1.elapsed();
        let batch: &insert::VoxelBatch = deduped.as_ref().unwrap_or(&self.batch);

        // Phase 4: cache insertion under the octree mutex (seeding misses
        // from the octree). The queue is drained, so the lock is
        // uncontended — except a wedged worker's, which is skipped (misses
        // seed as unknown; the map is already Compromised).
        let t2 = Instant::now();
        let (mutex_wait, tree_after, memory_bytes, octree_seed_visits) = {
            let guard = self.worker.lock_tree();
            if guard.is_none() {
                self.integrity.escalate(Integrity::Compromised);
            }
            let mutex_wait = t2.elapsed();
            if let Some(events) = &mut self.events {
                engine::record_accesses(events, &self.cache, batch.updates());
            }
            let mut seed = guard.as_ref().map(|g| g.read_cursor());
            self.cache.insert_batch(batch.updates(), |k| {
                seed.as_mut().and_then(|cursor| cursor.search(k))
            });
            let seed_visits = seed.as_ref().map_or(0, |c| c.nodes_visited());
            // Dropped before the octree stats are read: the cursor adds
            // its visits to them on the way out.
            drop(seed);
            // A wedged worker's octree cannot be read: its counters stand
            // still rather than reading as zero (a negative delta).
            let (tree_after, memory_bytes) = guard
                .as_ref()
                .map(|g| (g.stats().snapshot(), g.memory_usage() as u64))
                .unwrap_or((self.last_tree_stats, 0));
            (mutex_wait, tree_after, memory_bytes, seed_visits)
        };
        let cache_insert = t2.elapsed();
        let observations = batch.len();

        // This scan's times carry the worker-side cost of the batch it
        // waited on, so cross-scan totals cover both sides of the pipeline.
        let (worker_times, worker_busy_ns, worker_idle_ns) = self.take_worker_delta();
        record.times = PhaseTimes {
            ray_tracing,
            cache_insert,
            cache_evict: enq.evict,
            enqueue: enq.enqueue,
            wait,
            ..Default::default()
        } + worker_times;
        record.observations = observations as u64;
        record.octree_seed_visits = octree_seed_visits;
        record.memory_bytes = memory_bytes;
        record.mutex_wait = mutex_wait;
        record.queue_depth_enqueue = enq.queue_depth;
        record.queue_depth_dequeue = self
            .worker
            .shared
            .queue_depth_dequeue
            .load(Ordering::Relaxed);
        record.worker_queue_depths = vec![enq.queue_depth];
        record.worker_busy_ns = vec![worker_busy_ns];
        record.worker_idle_ns = vec![worker_idle_ns];

        let tree_delta = tree_after.since(&self.last_tree_stats);
        self.last_tree_stats = tree_after;
        engine::stamp_deltas(
            record,
            &self.cache.stats().since(&cache_before),
            &tree_delta,
        );
        // Fault counters accrued since the last record (including a
        // construction-time spawn failure, which lands on scan 0).
        let fault_delta = self.faults.since(&self.faults_reported);
        self.faults_reported = self.faults;
        record.worker_panics = fault_delta.worker_panics;
        record.spawn_failures = fault_delta.spawn_failures;
        record.stall_timeouts = fault_delta.stall_timeouts;
        record.partial_batches = fault_delta.partial_batches;
        record.batches_rerouted = fault_delta.batches_rerouted;
        record.degraded = self.integrity.is_degraded();
        record.restarts = fault_delta.restarts;
        record.heals = fault_delta.heals;
        record.restart_ns = std::mem::take(&mut self.restart_ns_pending);

        if let Some(buf) = &mut self.events {
            buf.drain();
        }

        // A fault that degraded (but did not abort) this scan is deferred:
        // the engine records the scan, republishes, and then surfaces it
        // exactly once; the map state behind it is described by
        // `integrity`.
        Ok(self.scan_error.take())
    }

    fn occupancy(&mut self, key: VoxelKey) -> Option<f32> {
        match self.cache.get(key) {
            Some(v) => Some(v),
            // Never blocks on a possibly-wedged worker's mutex.
            None => self.worker.lock_tree().and_then(|g| g.search(key)),
        }
    }

    fn is_occupied(&mut self, key: VoxelKey) -> Option<bool> {
        let params = self.params;
        self.occupancy(key).map(|l| params.is_occupied(l))
    }

    fn flush(&mut self) -> FlushTimes {
        // Flush the pending eviction batch, and wait it out so the retained
        // copy stays valid for the whole batch (one batch in flight at a
        // time is what makes dead-worker re-application exact).
        let enq1 = self.evict_and_enqueue();
        let t_w = Instant::now();
        self.wait_for_worker();
        let wait1 = t_w.elapsed();
        // …then drain everything left in the cache as a final batch.
        let t0 = Instant::now();
        self.evict_buf = Arc::new(self.cache.drain_all());
        if let Some(events) = &mut self.events {
            engine::record_evictions(events, &self.cache, &self.evict_buf);
        }
        let evict2 = t0.elapsed();
        let enq2 = self.send_batch();

        let t1 = Instant::now();
        self.wait_for_worker();
        let wait = wait1 + t1.elapsed();

        let times = PhaseTimes {
            cache_evict: enq1.evict + evict2,
            enqueue: enq1.enqueue + enq2.enqueue,
            wait,
            ..Default::default()
        };
        // The final flush belongs to no scan: fold its thread-1 times and
        // the worker time it triggered into the totals only (`recorded`),
        // never into what the `finish` caller gets back.
        let recorded = times + self.take_worker_delta().0;
        if let Some(buf) = &mut self.events {
            buf.drain();
        }
        FlushTimes {
            returned: times,
            recorded,
        }
    }

    /// Worker time not yet attributed to any scan.
    fn residual_times(&self) -> PhaseTimes {
        let w = &self.worker;
        let dq = w.shared.dequeue_nanos.load(Ordering::Relaxed);
        let oc = w.shared.octree_nanos.load(Ordering::Relaxed);
        PhaseTimes {
            dequeue: Duration::from_nanos(dq.saturating_sub(w.dequeue_seen)),
            octree_update: Duration::from_nanos(oc.saturating_sub(w.octree_seen)),
            ..Default::default()
        }
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(*self.cache.stats())
    }

    fn tree_stats(&self) -> Option<StatsSnapshot> {
        // A wedged worker's octree is skipped rather than risking a hang.
        let guard = self.worker.lock_tree();
        Some(guard.map(|g| g.stats().snapshot()).unwrap_or_default())
    }

    fn integrity(&self) -> Integrity {
        self.integrity.current()
    }

    fn integrity_transitions(&self) -> Vec<IntegrityTransition> {
        self.integrity.history().to_vec()
    }

    fn fault_counters(&self) -> FaultCounters {
        self.faults
    }

    fn config(&self) -> Option<&CacheConfig> {
        Some(self.cache.config())
    }

    fn resident_bytes(&self) -> u64 {
        // Between scans the queue is drained, so the octree mutex is free —
        // except a wedged worker's, whose octree is skipped (its size is
        // frozen anyway: nothing can be applied to it).
        let tree = self.worker.lock_tree();
        self.cache.memory_usage() as u64 + tree.map_or(0, |g| g.memory_usage() as u64)
    }

    /// Builds a self-contained read tree: a deep copy of the octree with
    /// the cache's accumulated values overlaid on top. Called between
    /// scans, when the queue is drained and the octree mutex is free; a
    /// wedged worker's octree is skipped via `try_lock` (matching the
    /// degraded [`MappingSystem::occupancy`] path — the map is already
    /// [`Integrity::Compromised`] by then).
    fn snapshot_tree(&self) -> OccupancyOcTree {
        let mut tree = match self.worker.lock_tree() {
            Some(g) => g.deep_clone(),
            None => OccupancyOcTree::new(self.grid, self.params),
        };
        engine::overlay_cache(&mut tree, &self.cache);
        tree
    }

    fn take_events(&mut self) -> Option<EventLog> {
        // The worker's buffer drains at every batch boundary and the queue
        // is empty between `insert_scan` calls, so the sink already holds
        // everything once the producer buffer is flushed.
        self.events.as_mut().map(EventBuffer::take_log)
    }

    /// Shuts the worker down and takes the octree (the engine has already
    /// flushed the cache through [`ScanExecutor::flush`]).
    fn take_tree(mut self) -> OccupancyOcTree {
        self.shutdown_worker();
        let (grid, params) = (self.grid, self.params);
        let tree = Arc::clone(&self.worker.tree);
        drop(self); // drops the producer & our other Arc clone
        match Arc::try_unwrap(tree) {
            Ok(mutex) => mutex.into_inner(),
            // A wedged (unjoinable) worker still holds an Arc clone; take
            // the octree without risking a hang on its mutex. The map was
            // already flagged Compromised when the worker wedged.
            Err(arc) => match arc.try_lock() {
                Some(mut guard) => {
                    std::mem::replace(&mut *guard, OccupancyOcTree::new(grid, params))
                }
                None => OccupancyOcTree::new(grid, params),
            },
        }
    }
}

impl Drop for ParallelExecutor {
    fn drop(&mut self) {
        self.shutdown_worker();
    }
}

/// The worker thread body: runs [`worker_loop`] under `catch_unwind` so a
/// panic (organic or injected) never unwinds into the runtime, and always
/// publishes the death flags last — the producer detects `dead`, joins, and
/// re-applies the retained batch.
fn worker_thread(
    consumer: spsc::Consumer<Batch>,
    tree: Arc<Mutex<OccupancyOcTree>>,
    shared: Arc<WorkerShared>,
    faults: FaultPlan,
    events: Option<EventBuffer>,
) {
    // The buffer drains on drop, so even a panicking worker's events reach
    // the sink (the unwind runs destructors before `catch_unwind` returns).
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        worker_loop(consumer, &tree, &shared, faults, events)
    }));
    if result.is_err() {
        shared.panicked.store(true, Ordering::Release);
    }
    shared.dead.store(true, Ordering::Release);
}

/// The octree-update worker: pop a batch and apply it to the octree,
/// holding its mutex for the batch.
fn worker_loop(
    mut consumer: spsc::Consumer<Batch>,
    tree: &Mutex<OccupancyOcTree>,
    shared: &WorkerShared,
    faults: FaultPlan,
    mut events: Option<EventBuffer>,
) {
    let mut batch_index: u64 = 0;
    loop {
        // Wait for work; this is idle time, not dequeue cost, and is
        // reported separately so the worker's utilization is measurable.
        let idle_start = Instant::now();
        while consumer.is_empty() && !shared.shutdown.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let pop_start = Instant::now();
        let idle = pop_start - idle_start;
        shared
            .idle_nanos
            .fetch_add(idle.as_nanos() as u64, Ordering::Relaxed);
        // Empty only once shutdown was observed; a batch pushed before the
        // flag was raised is still taken.
        let Some(batch) = consumer.try_pop() else {
            break;
        };
        let dequeue = pop_start.elapsed();
        let depth = consumer.len() as u64 + 1;
        shared.queue_depth_dequeue.store(depth, Ordering::Relaxed);
        fire_faults(&faults, batch_index);
        // Workers stamp the batch index as the scan; one batch is sent per
        // producer scan, so the two sequences align (plus the final flush
        // batches from `finish`).
        if let Some(buf) = &mut events {
            buf.set_scan(batch_index);
            buf.emit_plain(EventKind::BatchBegin, 0);
            buf.emit_plain(EventKind::QueueDequeue, depth);
        }
        let apply_start = Instant::now();
        engine::apply_cells(&mut tree.lock(), batch.iter());
        let octree = apply_start.elapsed();
        shared
            .dequeue_nanos
            .fetch_add(dequeue.as_nanos() as u64, Ordering::Relaxed);
        shared
            .octree_nanos
            .fetch_add(octree.as_nanos() as u64, Ordering::Relaxed);
        if let Some(buf) = &mut events {
            buf.emit_plain(EventKind::BatchEnd, batch.len() as u64);
            buf.drain();
        }
        // Released before `batches_done` is published: the producer
        // reclaims the buffer as soon as it sees the batch done.
        drop(batch);
        shared.batches_done.fetch_add(1, Ordering::Release);
        batch_index += 1;
    }
}

// What the unit tests below inspect of a running pipeline.
#[cfg(test)]
impl ParallelOctoCache {
    /// Workers still in rotation: 1 while the octree worker is alive and
    /// fed through its queue, 0 once evictions are applied inline.
    pub(crate) fn live_workers(&self) -> usize {
        usize::from(self.exec.worker.failed.is_none())
    }

    /// Runs `f` with shared access to the backing octree (its mutex is held
    /// for the duration). Pending cache contents are not included; call
    /// [`MappingSystem::finish`] first for a complete tree.
    pub(crate) fn with_tree<R>(&self, f: impl FnOnce(&OccupancyOcTree) -> R) -> R {
        f(&self.exec.worker.tree.lock())
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
        s.with_tree(|t| {
            assert_eq!(
                t.is_occupied_at(Point3::new(6.0, 0.0, 0.25)).unwrap(),
                Some(true)
            );
        });
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
        s.with_tree(|t| t.stats().reset());
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
        drop(s); // must join the worker without hanging or panicking
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

    // ---- fault injection (hooks are active under cfg(test)) ----

    use crate::fault::StallAt;
    use octocache_octomap::compare;

    /// A pipeline with a fault plan, a tiny cache (constant eviction) and a
    /// short stall budget so stall tests converge quickly.
    fn faulty_system(plan: FaultPlan, stall_ms: u64) -> ParallelOctoCache {
        let grid = VoxelGrid::new(0.5, 8).unwrap();
        let config = CacheConfig::builder()
            .num_buckets(1 << 6)
            .tau(1)
            .stall_timeout(Duration::from_millis(stall_ms))
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
        let mut s = faulty_system(FaultPlan::default(), 5_000);
        assert!(run_scans(&mut s).is_empty());
        s.into_tree()
    }

    #[test]
    fn spawn_failure_degrades_to_inline_apply() {
        let plan = FaultPlan {
            fail_spawn: true,
            ..Default::default()
        };
        let mut s = faulty_system(plan, 1_000);
        assert_eq!(s.live_workers(), 0);
        // Scans succeed throughout: evictions are applied inline, so
        // degraded mode is not an error the caller must handle.
        assert!(run_scans(&mut s).is_empty());
        assert_eq!(s.integrity(), Integrity::Degraded);
        let f = s.fault_counters();
        assert_eq!(f.spawn_failures, 1);
        assert_eq!(f.worker_panics, 0);
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
        let mut s = faulty_system(plan, 1_000);
        let errors = run_scans(&mut s);
        // Exactly one scan surfaces the fault; subsequent scans run in
        // degraded mode and succeed.
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            matches!(errors[0], PipelineError::WorkerPanicked { .. }),
            "{:?}",
            errors[0]
        );
        assert_eq!(s.live_workers(), 0);
        assert_eq!(s.integrity(), Integrity::Degraded);
        let f = s.fault_counters();
        assert_eq!(f.worker_panics, 1);
        // The retained batch was re-applied: the map must be exact.
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
        let mut s = faulty_system(plan, 1_000);
        let errors = run_scans(&mut s);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(s.live_workers(), 0);
        assert_eq!(s.integrity(), Integrity::Degraded);
        let d = compare::diff(&reference_tree(), &s.into_tree(), 0.0);
        assert!(d.is_identical());
    }

    #[test]
    fn stalled_worker_times_out_into_typed_error() {
        // The worker sleeps 400 ms at batch 1; the producer's stall budget is
        // 20 ms, so the bounded wait expires long before the worker wakes.
        let plan = FaultPlan {
            stall: Some(StallAt {
                batch: 1,
                micros: 400_000,
            }),
            ..Default::default()
        };
        let mut s = faulty_system(plan, 20);
        let errors = run_scans(&mut s);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            matches!(errors[0], PipelineError::QueueStalled { .. }),
            "{:?}",
            errors[0]
        );
        assert!(s.fault_counters().stall_timeouts >= 1);
        assert!(s.integrity().is_degraded());
        // The sleeping worker does not hold the octree mutex, so the batch
        // was re-applied inline and the map stays exact (Degraded, not
        // Compromised); its stale writes after waking are idempotent.
        let integrity = s.integrity();
        let d = compare::diff(&reference_tree(), &s.into_tree(), 0.0);
        if integrity == Integrity::Degraded {
            assert!(
                d.is_identical(),
                "degraded map diverged: {} value / {} coverage mismatches",
                d.value_mismatches,
                d.coverage_mismatches
            );
        }
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
    fn rejected_scan_leaves_no_batch_in_flight_behind_a_stalled_worker() {
        // The worker would sleep 300 ms on batch 1 — the batch the rejected
        // scan must not send. Were it sent, the `Err` would return with
        // scan 0's evicted voxels in neither the cache nor the octree.
        let plan = FaultPlan {
            stall: Some(StallAt {
                batch: 1,
                micros: 300_000,
            }),
            ..Default::default()
        };
        let mut s = faulty_system(plan, 5_000);
        let scans = scans_around_a_rejected_one();
        let mut twin = serial_twin(&scans[..1]);
        s.insert_scan(scans[0].0, &scans[0].1, 40.0).unwrap();
        let err = s.insert_scan(scans[1].0, &scans[1].1, 40.0);
        assert!(matches!(err, Err(PipelineError::Geom(_))), "{err:?}");
        let mut traced = insert::VoxelBatch::new();
        let grid = *s.grid();
        insert::compute_update(&grid, scans[0].0, &scans[0].1, 40.0, &mut traced).unwrap();
        let differing = traced
            .updates()
            .iter()
            .filter(|u| s.occupancy(u.key) != twin.occupancy(u.key))
            .count();
        assert_eq!(differing, 0, "of {} observations", traced.len());
        let w = &s.exec.worker;
        assert_eq!(
            w.shared.batches_done.load(Ordering::Acquire),
            w.batches_sent,
            "a batch is in flight after the rejected scan"
        );
        assert!(!s.fault_counters().any());
    }

    #[test]
    fn kill_at_the_rejected_scans_batch_reapplies_the_right_batch() {
        // Batch 1 carries scan 0's evictions. The rejected scan must not
        // send it: the next call would overwrite the retained copy while
        // the worker lay dead on it, and re-apply the wrong batch.
        let plan = FaultPlan {
            kill: Some(1),
            ..Default::default()
        };
        let mut s = faulty_system(plan, 1_000);
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
        assert_eq!(s.integrity(), Integrity::Degraded);
        let d = compare::diff(&serial_twin(&scans).into_tree(), &s.into_tree(), 0.0);
        assert!(
            d.is_identical(),
            "{} value / {} coverage mismatches",
            d.value_mismatches,
            d.coverage_mismatches
        );
    }

    #[test]
    fn wedged_octree_mutex_drops_the_batch_loudly_and_never_blocks() {
        // The worker never spawned, so evictions are applied inline; the
        // test thread holds the octree mutex the way a worker wedged inside
        // its batch apply would.
        let plan = FaultPlan {
            fail_spawn: true,
            ..Default::default()
        };
        let mut s = faulty_system(plan, 20);
        s.insert_scan(Point3::ZERO, &spread_cloud(0.0), 40.0)
            .unwrap();
        let tree = Arc::clone(&s.exec.worker.tree);
        let wedge = tree.lock();
        let err = s.insert_scan(Point3::ZERO, &spread_cloud(0.13), 40.0);
        assert!(
            matches!(err, Err(PipelineError::PartialScan { cells_dropped, .. }) if cells_dropped > 0),
            "{err:?}"
        );
        assert_eq!(s.integrity(), Integrity::Compromised);
        assert_eq!(s.fault_counters().partial_batches, 1);
        // Reads go around the wedged octree instead of waiting for it.
        let _ = s.is_occupied_at(Point3::new(12.0, 0.0, 4.0)).unwrap();
        drop(wedge);
    }

    #[test]
    fn fault_deltas_reach_telemetry_records() {
        use octocache_telemetry::SharedRecorder;
        let plan = FaultPlan {
            kill: Some(1),
            ..Default::default()
        };
        let mut s = faulty_system(plan, 1_000);
        let recorder = SharedRecorder::new();
        s.set_recorder(Box::new(recorder.clone()));
        let _ = run_scans(&mut s);
        s.finish();
        let records = recorder.records();
        let panics: u64 = records.iter().map(|r| r.worker_panics).sum();
        assert_eq!(panics, 1, "panic delta must land on exactly one record");
        assert!(records.iter().any(|r| r.degraded));
        // Records before the fault are not flagged.
        assert!(!records[0].degraded);
    }
}
