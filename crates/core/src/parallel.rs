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
//! 1. evict the previous batch and enqueue it for the worker,
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
use octocache_telemetry::{EventBuffer, EventKind, EventLog, EventSink, PhaseTimes, ScanMetrics};
use parking_lot::{Mutex, MutexGuard};

use crate::cache::{CacheStats, EvictedCell, VoxelCache};
use crate::config::CacheConfig;
use crate::engine::{self, Engine, FlushTimes, ScanExecutor, ScanOutput};
#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::FaultPlan;
use crate::fault::{FaultCounters, Integrity, IntegrityState, IntegrityTransition, PipelineError};
use crate::pipeline::{MappingSystem, RayTracer};
use crate::spsc::{self, Backoff, Producer};
use crate::supervisor::{PressureLevel, SupervisorParams};

/// Items flowing through the worker's buffer.
///
/// Evicted voxels travel in chunks — the C++ `readerwriterqueue` the paper
/// uses is itself a block-based ring, so chunking preserves its behaviour
/// while keeping the producer/consumer cacheline traffic per *chunk* rather
/// than per voxel.
#[derive(Debug)]
enum Item {
    /// A run of evicted voxels with their accumulated log-odds.
    Chunk(Vec<EvictedCell>),
    /// Marks the end of a batch; the worker releases the octree mutex here.
    BatchEnd,
}

/// Evicted voxels per queue message.
const CHUNK_CELLS: usize = 1024;

/// The worker's event lane; lane 0 is the producer.
const WORKER_LANE: u32 = 1;

/// Counters shared with the worker thread.
#[derive(Debug, Default)]
struct WorkerShared {
    batches_done: AtomicU64,
    dequeue_nanos: AtomicU64,
    octree_nanos: AtomicU64,
    /// Time spent waiting for the first item of a batch (no work queued).
    idle_nanos: AtomicU64,
    cells_applied: AtomicU64,
    /// Queue depth (in chunk messages, including the one just popped)
    /// observed by the worker at the start of the most recent batch drain.
    queue_depth_dequeue: AtomicU64,
    shutdown: AtomicBool,
    /// Set (last) by the worker thread when it exits, for any reason.
    dead: AtomicBool,
    /// Set when the worker body unwound ([`std::panic::catch_unwind`]).
    panicked: AtomicBool,
    /// True while the worker is applying a batch (between popping a batch's
    /// first item and publishing `batches_done`).
    in_batch: AtomicBool,
    /// Batches the worker abandoned midway (shutdown observed or the
    /// mid-batch deadline expired before `BatchEnd` arrived).
    partial_batches: AtomicU64,
    /// Cells the worker had applied of the batch it abandoned.
    partial_cells_applied: AtomicU64,
    /// 0-based index of the abandoned batch.
    partial_batch_index: AtomicU64,
}

/// Thread-1 state for the octree-update worker: its queue producer, the
/// octree, the shared counters, and the attribution bookmarks.
#[derive(Debug)]
struct Worker {
    producer: Producer<Item>,
    tree: Arc<Mutex<OccupancyOcTree>>,
    shared: Arc<WorkerShared>,
    handle: Option<JoinHandle<()>>,
    /// Batches fully enqueued (closed with `BatchEnd`) to the worker.
    batches_sent: u64,
    /// `partial_batches` already folded into the pipeline counters.
    partials_seen: u64,
    /// Why the worker left the rotation; `Some` means evictions are now
    /// applied inline on the producer thread.
    failed: Option<PipelineError>,
    /// Worker nanos already attributed to recorded scans; the difference to
    /// the live atomics is the not-yet-attributed residual.
    dequeue_seen: u64,
    octree_seen: u64,
    idle_seen: u64,
    /// The generation-0 fault schedule; respawned generations keep only the
    /// periodic component ([`WorkerFaults::respawned`]).
    faults: WorkerFaults,
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

/// Capacity of the worker's buffer in chunk messages (≥ a million voxels
/// in flight before the producer ever blocks — the paper reports enqueue
/// overhead as negligible, and a full queue would violate that).
const QUEUE_CAPACITY: usize = 1 << 12;

/// The parallel OctoCache mapping system: one mapping thread plus one
/// octree-update worker, run through the shared scan-lifecycle [`Engine`].
///
/// See the [module docs](self) for the phase ordering; the public API is the
/// same [`MappingSystem`] as every other backend.
pub type ParallelOctoCache = Engine<ParallelExecutor>;

/// The parallel scan-execution strategy behind [`ParallelOctoCache`]: the
/// voxel cache and the octree worker behind its SPSC ring, including all
/// fault detection and degraded-mode machinery. The scan lifecycle around
/// it (telemetry sequencing, snapshot republish, record assembly) lives in
/// the [`Engine`].
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
    /// log-odds, so re-application is idempotent).
    evict_buf: Vec<EvictedCell>,
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
    /// `insert_scan` exactly once ([`ScanOutput::deferred`]).
    scan_error: Option<PipelineError>,
    /// Octree counters at the end of the previous scan, for per-scan
    /// deltas.
    last_tree_stats: StatsSnapshot,
    /// Shared sub-scan event sink when built with `CacheConfig::events(true)`.
    /// Lane 0 (the producer) is the cache's buffer; the worker owns
    /// [`WORKER_LANE`] and drains per batch.
    event_sink: Option<Arc<EventSink>>,
}

/// What `evict_and_enqueue` produced.
///
/// Back-pressure — waiting for the worker to make room in a full queue — is
/// reported separately from the enqueue cost proper, matching the paper's
/// Table 3 where enqueue is the pure buffer-write overhead.
struct EnqueueOutcome {
    /// Evicted (and enqueued) voxels.
    count: usize,
    evict: Duration,
    enqueue: Duration,
    backpressure: Duration,
    /// Largest producer-side queue depth seen while enqueueing, in chunk
    /// messages.
    queue_depth: u64,
}

/// How a guarded push ended.
enum PushOutcome {
    /// Enqueued; carries the post-push queue depth in messages.
    Pushed(u64),
    /// The worker thread exited; the item was not delivered.
    Dead,
    /// The bounded backoff expired; carries how long the producer waited.
    Stalled(Duration),
}

/// Pushes one item with bounded back-pressure: spins → yields → gives up
/// after `stall_timeout`, and bails out early if the worker dies. Stall
/// time is added to `backpressure`.
fn push_guarded(
    w: &mut Worker,
    item: Item,
    backpressure: &mut Duration,
    stall_timeout: Duration,
) -> PushOutcome {
    use crate::spsc::Full;
    let mut item = item;
    loop {
        if w.shared.dead.load(Ordering::Acquire) {
            return PushOutcome::Dead;
        }
        match w.producer.push(item) {
            Ok(()) => return PushOutcome::Pushed(w.producer.len() as u64),
            Err(Full(v)) => {
                item = v;
                let tb = Instant::now();
                let mut backoff = Backoff::new(stall_timeout);
                loop {
                    if w.shared.dead.load(Ordering::Acquire) {
                        *backpressure += tb.elapsed();
                        return PushOutcome::Dead;
                    }
                    if w.producer.len() < w.producer.capacity() {
                        break;
                    }
                    if !backoff.snooze() {
                        *backpressure += tb.elapsed();
                        return PushOutcome::Stalled(backoff.waited());
                    }
                }
                *backpressure += tb.elapsed();
            }
        }
    }
}

/// Spawns the octree worker thread over `tree`.
fn spawn_worker(
    consumer: spsc::Consumer<Item>,
    tree: &Arc<Mutex<OccupancyOcTree>>,
    shared: &Arc<WorkerShared>,
    stall_timeout: Duration,
    faults: WorkerFaults,
    event_sink: Option<&Arc<EventSink>>,
) -> std::io::Result<JoinHandle<()>> {
    // The worker gives a silent producer 4x the producer's own stall budget
    // before abandoning a mid-batch wait, so under a producer failure the
    // producer-side deadline always fires first.
    let mid_batch_deadline = stall_timeout.saturating_mul(4);
    let tree = Arc::clone(tree);
    let shared = Arc::clone(shared);
    let events = event_sink.map(|s| s.buffer(WORKER_LANE));
    std::thread::Builder::new()
        .name("octocache-octree-0".to_string())
        .spawn(move || worker_thread(consumer, tree, shared, mid_batch_deadline, faults, events))
}

/// The worker's fault-injection schedule, derived from the instance's
/// [`FaultPlan`]. Without `cfg(any(test, feature = "fault-injection"))`
/// this is a fieldless no-op and [`WorkerFaults::at_batch_start`] compiles
/// to nothing.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug, Default, Clone, Copy)]
struct WorkerFaults {
    /// Panic at the start of this batch index.
    kill_at: Option<u64>,
    /// Sleep this many µs at the start of this batch index.
    stall_at: Option<(u64, u64)>,
    /// Panic every N batches: fires when `(batch + 1) % every == 0`, so a
    /// respawned thread (local batch index restarts at 0) survives
    /// `every - 1` batches before dying again.
    kill_every: Option<u64>,
}

#[cfg(not(any(test, feature = "fault-injection")))]
#[derive(Debug, Default, Clone, Copy)]
struct WorkerFaults;

impl WorkerFaults {
    /// The schedule a plan gives the worker.
    #[cfg(any(test, feature = "fault-injection"))]
    fn from_plan(plan: &FaultPlan) -> Self {
        WorkerFaults {
            kill_at: plan.kill,
            stall_at: plan.stall.map(|s| (s.batch, s.micros)),
            kill_every: plan.kill_every,
        }
    }

    /// The schedule for a respawned generation: one-shot faults already
    /// fired on generation 0 (and a respawned thread's batch index restarts
    /// at 0, so they would re-fire spuriously); only the periodic kill
    /// survives — it is the chaos workload that exhausts restart budgets.
    fn respawned(&self) -> Self {
        #[cfg(any(test, feature = "fault-injection"))]
        {
            WorkerFaults {
                kill_every: self.kill_every,
                ..Default::default()
            }
        }
        #[cfg(not(any(test, feature = "fault-injection")))]
        {
            *self
        }
    }

    /// Fires any fault scheduled for `batch` (kill = panic, stall = sleep).
    #[inline]
    fn at_batch_start(&self, batch: u64) {
        #[cfg(any(test, feature = "fault-injection"))]
        {
            if self.kill_at == Some(batch) {
                panic!("fault injection: killing worker at batch {batch}");
            }
            if let Some((b, micros)) = self.stall_at {
                if b == batch {
                    std::thread::sleep(Duration::from_micros(micros));
                }
            }
            if let Some(every) = self.kill_every {
                if (batch + 1).is_multiple_of(every) {
                    panic!("fault injection: periodic kill at batch {batch}");
                }
            }
        }
        #[cfg(not(any(test, feature = "fault-injection")))]
        let _ = batch;
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
        let event_sink: Option<Arc<EventSink>> = if config.events() {
            Some(EventSink::new())
        } else {
            None
        };
        let mut faults = FaultCounters::default();
        let mut integrity = IntegrityState::default();
        let tree = Arc::new(Mutex::new(OccupancyOcTree::new(grid, params)));
        let shared = Arc::new(WorkerShared::default());
        #[cfg(any(test, feature = "fault-injection"))]
        let (wf, inject_spawn_fail, capacity) = {
            let plan = config.fault_plan().unwrap_or_default();
            // `fill_ring` shrinks the ring to near zero: back-pressure fires
            // on every chunk, exercising the bounded backoff without any
            // failure.
            let capacity = if plan.fill_ring { 2 } else { QUEUE_CAPACITY };
            (WorkerFaults::from_plan(&plan), plan.fail_spawn, capacity)
        };
        #[cfg(not(any(test, feature = "fault-injection")))]
        let (wf, inject_spawn_fail, capacity) = (WorkerFaults, false, QUEUE_CAPACITY);
        let (producer, consumer) = spsc::channel::<Item>(capacity);
        let spawned = if inject_spawn_fail {
            Err(std::io::Error::other(
                "fault injection: forced spawn failure",
            ))
        } else {
            spawn_worker(
                consumer,
                &tree,
                &shared,
                stall_timeout,
                wf,
                event_sink.as_ref(),
            )
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
            partials_seen: 0,
            failed,
            dequeue_seen: 0,
            octree_seen: 0,
            idle_seen: 0,
            faults: wf,
            restarts: 0,
        };
        let mut cache = VoxelCache::new(config, params);
        if let Some(sink) = &event_sink {
            cache.attach_events(sink.buffer(0));
        }
        let max_restarts = cache.config().max_restarts();
        Engine::from_executor(ParallelExecutor {
            cache,
            worker,
            grid,
            params,
            ray_tracer,
            batch: insert::VoxelBatch::new(),
            evict_buf: Vec::new(),
            stall_timeout,
            faults,
            faults_reported: FaultCounters::default(),
            integrity,
            max_restarts,
            restart_ns_pending: 0,
            scan_error: None,
            last_tree_stats: StatsSnapshot::default(),
            event_sink,
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

    /// Workers still in rotation: 1 while the octree worker is alive and
    /// fed through its queue, 0 once evictions are applied inline.
    pub fn live_workers(&self) -> usize {
        usize::from(self.exec.worker.failed.is_none())
    }

    /// The map-consistency verdict after any faults. [`Integrity::Degraded`]
    /// means parallelism was lost but the map is still voxel-for-voxel what
    /// the serial backend would hold; [`Integrity::Compromised`] means it
    /// may have diverged.
    pub fn integrity(&self) -> Integrity {
        self.exec.integrity.current()
    }

    /// Every recorded change of the integrity verdict, in scan order —
    /// the only place a degrade-then-heal run differs from a clean one.
    pub fn integrity_history(&self) -> Vec<IntegrityTransition> {
        self.exec.integrity.history().to_vec()
    }

    /// Cumulative fault and degraded-mode counters.
    pub fn fault_counters(&self) -> FaultCounters {
        self.exec.faults
    }

    /// Runs `f` with shared access to the backing octree (its mutex is held
    /// for the duration). Pending cache contents are not included; call
    /// [`MappingSystem::finish`] first for a complete tree.
    pub fn with_tree<R>(&self, f: impl FnOnce(&OccupancyOcTree) -> R) -> R {
        f(&self.exec.worker.tree.lock())
    }

    /// Shuts the worker down and returns the octree (flushing the cache
    /// first, so the tree is complete).
    pub fn into_tree(mut self) -> OccupancyOcTree {
        self.finish();
        self.exec.take_tree()
    }
}

impl ParallelExecutor {
    /// Takes the dead worker out of rotation: joins the thread, classifies
    /// the death (panic vs mid-batch abandonment), re-applies the retained
    /// batch inline, and records the first error of the scan.
    fn fail_dead_worker(&mut self) {
        let w = &mut self.worker;
        if let Some(handle) = w.handle.take() {
            let _ = handle.join();
        }
        let batch = w.shared.batches_done.load(Ordering::Acquire);
        let partials = w.shared.partial_batches.load(Ordering::Acquire);
        let err = if w.shared.panicked.load(Ordering::Acquire) {
            self.faults.worker_panics += 1;
            PipelineError::WorkerPanicked { batch }
        } else if partials > w.partials_seen {
            self.faults.partial_batches += partials - w.partials_seen;
            let applied = w.shared.partial_cells_applied.load(Ordering::Acquire);
            PipelineError::PartialScan {
                batch: w.shared.partial_batch_index.load(Ordering::Acquire),
                cells_dropped: (self.evict_buf.len() as u64).saturating_sub(applied),
            }
        } else {
            // Exited without a panic or a recorded partial (it saw shutdown
            // between batches); report the in-flight batch.
            PipelineError::WorkerPanicked { batch }
        };
        w.partials_seen = partials;
        // The thread has exited, so the octree mutex is free (parking_lot
        // does not poison) and nothing races the inline re-apply. Evicted
        // cells carry the voxel's absolute accumulated log-odds and the
        // batch apply overwrites, so this restores exactly the state a
        // healthy worker would have produced, whatever prefix of the batch
        // was already applied (a worker that died mid-chunk closed its open
        // path on unwind, so the octree is a valid tree).
        engine::apply_cells(&mut w.tree.lock(), &self.evict_buf);
        self.note_reapplied();
        self.integrity.escalate(Integrity::Degraded);
        self.fail_worker(err);
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
                engine::apply_cells(&mut tree, &self.evict_buf);
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
            Some(mut guard) => engine::apply_cells(&mut guard, &self.evict_buf),
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
            Some(
                PipelineError::WorkerPanicked { .. }
                    | PipelineError::WorkerSpawn { .. }
                    | PipelineError::PartialScan { .. }
            )
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
            let (producer, consumer) = spsc::channel::<Item>(QUEUE_CAPACITY);
            let spawned = spawn_worker(
                consumer,
                &w.tree,
                &shared,
                self.stall_timeout,
                w.faults.respawned(),
                self.event_sink.as_ref(),
            );
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
                    w.partials_seen = 0;
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

    /// Enqueues the retained batch ([`Self::evict_buf`]) to the worker in
    /// chunks, closing it with a `BatchEnd` (even when empty) so
    /// `batches_done` stays aligned. While the worker is out of rotation
    /// the batch is applied inline; a worker that dies or stalls mid-send
    /// is failed over the same way.
    fn send_batch(&mut self) -> EnqueueOutcome {
        let t1 = Instant::now();
        let mut backpressure = Duration::ZERO;
        let mut queue_depth = 0u64;
        if self.worker.failed.is_some() {
            self.apply_inline();
        } else if self.worker.shared.dead.load(Ordering::Acquire) {
            self.fail_dead_worker();
        } else {
            let stall_timeout = self.stall_timeout;
            let mut outcome = PushOutcome::Pushed(0);
            for chunk in self.evict_buf.chunks(CHUNK_CELLS) {
                let item = Item::Chunk(chunk.to_vec());
                outcome = push_guarded(&mut self.worker, item, &mut backpressure, stall_timeout);
                let PushOutcome::Pushed(depth) = outcome else {
                    break;
                };
                queue_depth = queue_depth.max(depth);
                if let Some(buf) = self.cache.events_mut() {
                    buf.emit_for(WORKER_LANE, EventKind::QueueEnqueue, depth);
                }
            }
            if let PushOutcome::Pushed(_) = outcome {
                let end = Item::BatchEnd;
                outcome = push_guarded(&mut self.worker, end, &mut backpressure, stall_timeout);
            }
            match outcome {
                PushOutcome::Pushed(depth) => {
                    queue_depth = queue_depth.max(depth);
                    self.worker.batches_sent += 1;
                }
                PushOutcome::Dead => self.fail_dead_worker(),
                PushOutcome::Stalled(waited) => self.fail_stalled_worker(waited),
            }
        }
        if !backpressure.is_zero() {
            if let Some(buf) = self.cache.events_mut() {
                buf.emit_plain(EventKind::QueueStall, backpressure.as_nanos() as u64);
            }
        }
        let enqueue = t1.elapsed().saturating_sub(backpressure);
        EnqueueOutcome {
            count: self.evict_buf.len(),
            evict: Duration::ZERO,
            enqueue,
            backpressure,
            queue_depth,
        }
    }

    /// Evicts the pending batch into the retained buffer and enqueues it
    /// for the worker, sampling the producer-side queue depth along the
    /// way.
    fn evict_and_enqueue(&mut self) -> EnqueueOutcome {
        let t0 = Instant::now();
        self.evict_buf.clear();
        self.cache.evict_into(&mut self.evict_buf);
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
        // Fold any mid-batch abandonment observed during shutdown into
        // the counters: an abandoned batch is reported, never silent.
        let partials = w.shared.partial_batches.load(Ordering::Acquire);
        if partials > w.partials_seen {
            self.faults.partial_batches += partials - w.partials_seen;
            w.partials_seen = partials;
            self.integrity.escalate(Integrity::Compromised);
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
        scan_seq: u64,
        metrics: &mut ScanMetrics,
    ) -> Result<ScanOutput, PipelineError> {
        let cache_before = *self.cache.stats();
        self.integrity.set_scan(scan_seq);
        if let Some(buf) = self.cache.events_mut() {
            buf.set_scan(scan_seq);
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

        // Phase 3: wait for the worker — the paper's thread-1 gap
        // (including any back-pressure absorbed during enqueue).
        let t1 = Instant::now();
        self.wait_for_worker();
        let wait = t1.elapsed() + enq.backpressure;
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
            let mut seed = guard.as_ref().map(|g| g.read_cursor());
            self.cache.insert_batch(batch.updates(), |k| {
                seed.as_mut().and_then(|cursor| cursor.search(k))
            });
            let seed_visits = seed.as_ref().map_or(0, |c| c.nodes_visited());
            // Dropped before the octree stats are read: the cursor adds
            // its visits to them on the way out.
            drop(seed);
            let (tree_after, memory_bytes) = guard
                .as_ref()
                .map(|g| (g.stats().snapshot(), g.memory_usage() as u64))
                .unwrap_or_default();
            (mutex_wait, tree_after, memory_bytes, seed_visits)
        };
        let cache_insert = t2.elapsed();
        let observations = batch.len();

        // This scan's times carry the worker-side cost of the batch it
        // waited on, so cross-scan totals cover both sides of the pipeline.
        let (worker_times, worker_busy_ns, worker_idle_ns) = self.take_worker_delta();
        let times = PhaseTimes {
            ray_tracing,
            cache_insert,
            cache_evict: enq.evict,
            enqueue: enq.enqueue,
            wait,
            ..Default::default()
        } + worker_times;

        let tree_delta = tree_after.since(&self.last_tree_stats);
        self.last_tree_stats = tree_after;
        let cache_delta = self.cache.stats().since(&cache_before);
        // Fault counters accrued since the last record (including a
        // construction-time spawn failure, which lands on scan 0).
        let fault_delta = self.faults.since(&self.faults_reported);
        self.faults_reported = self.faults;
        let shared = &self.worker.shared;
        *metrics = ScanMetrics {
            times,
            observations: observations as u64,
            queue_depth_enqueue: enq.queue_depth,
            queue_depth_dequeue: shared.queue_depth_dequeue.load(Ordering::Relaxed),
            mutex_wait,
            octree_seed_visits,
            worker_queue_depths: vec![enq.queue_depth],
            worker_busy_ns: vec![worker_busy_ns],
            worker_idle_ns: vec![worker_idle_ns],
            worker_panics: fault_delta.worker_panics,
            spawn_failures: fault_delta.spawn_failures,
            stall_timeouts: fault_delta.stall_timeouts,
            partial_batches: fault_delta.partial_batches,
            batches_rerouted: fault_delta.batches_rerouted,
            degraded: self.integrity.is_degraded(),
            restarts: fault_delta.restarts,
            heals: fault_delta.heals,
            restart_ns: std::mem::take(&mut self.restart_ns_pending),
            ..Default::default()
        };
        engine::stamp_cache_delta(metrics, &cache_delta);
        engine::stamp_tree_delta(metrics, &tree_delta);
        metrics.memory_bytes = memory_bytes;

        if let Some(buf) = self.cache.events_mut() {
            buf.drain();
        }

        // A fault that degraded (but did not abort) this scan is deferred:
        // the engine records the scan, republishes, and then surfaces it
        // exactly once; the map state behind it is described by
        // `integrity`.
        Ok(ScanOutput {
            cache_hits: cache_delta.hits,
            octree_updates: enq.count,
            deferred: self.scan_error.take(),
        })
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
        self.evict_buf = self.cache.drain_all();
        let evict2 = t0.elapsed();
        let enq2 = self.send_batch();

        let t1 = Instant::now();
        self.wait_for_worker();
        let wait = wait1 + t1.elapsed() + enq1.backpressure + enq2.backpressure;

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
        if let Some(buf) = self.cache.events_mut() {
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

    fn supervisor_params(&self) -> SupervisorParams {
        SupervisorParams::from_config(self.cache.config())
    }

    fn resident_bytes(&self) -> u64 {
        // Between scans the queue is drained, so the octree mutex is free —
        // except a wedged worker's, whose octree is skipped (its size is
        // frozen anyway: nothing can be applied to it).
        let tree = self.worker.lock_tree();
        self.cache.memory_usage() as u64 + tree.map_or(0, |g| g.memory_usage() as u64)
    }

    fn relieve_memory(&mut self, level: PressureLevel) {
        // Runs between scans (queue drained, retained batch already
        // applied), so applying drained cells inline under the octree
        // mutex is race-free and map-neutral: cells carry absolute
        // log-odds and the batch apply overwrites. The retained batch
        // predates this drain, but a later re-apply only ever uses the
        // batch in flight at failure time, which post-dates it.
        let drained = (level >= PressureLevel::Critical).then(|| self.cache.drain_all());
        // A wedged worker's cells are undeliverable; the map is already
        // Compromised by the wedge itself.
        if let Some(mut g) = self.worker.lock_tree() {
            if let Some(cells) = &drained {
                engine::apply_cells(&mut g, cells);
            }
            // Pruning the octree is the step that durably shrinks resident
            // bytes; merged-away nodes re-expand on demand.
            g.prune();
        }
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
        if let Some(buf) = self.cache.events_mut() {
            buf.drain();
        }
        self.event_sink.as_ref().map(|s| s.take())
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
    consumer: spsc::Consumer<Item>,
    tree: Arc<Mutex<OccupancyOcTree>>,
    shared: Arc<WorkerShared>,
    mid_batch_deadline: Duration,
    faults: WorkerFaults,
    events: Option<EventBuffer>,
) {
    // The buffer drains on drop, so even a panicking worker's events reach
    // the sink (the unwind runs destructors before `catch_unwind` returns).
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        worker_loop(consumer, &tree, &shared, mid_batch_deadline, faults, events)
    }));
    if result.is_err() {
        shared.panicked.store(true, Ordering::Release);
    }
    shared.in_batch.store(false, Ordering::Release);
    shared.dead.store(true, Ordering::Release);
}

/// The octree-update worker: dequeue evicted voxels and apply them to the
/// octree, holding its mutex per batch.
fn worker_loop(
    mut consumer: spsc::Consumer<Item>,
    tree: &Mutex<OccupancyOcTree>,
    shared: &WorkerShared,
    mid_batch_deadline: Duration,
    faults: WorkerFaults,
    mut events: Option<EventBuffer>,
) {
    let mut batch_index: u64 = 0;
    'outer: loop {
        // Wait for work; this is idle time, not dequeue cost, and is
        // reported separately so per-worker utilization is measurable.
        let idle_start = Instant::now();
        let first = loop {
            if let Some(item) = consumer.try_pop() {
                break Some(item);
            }
            if shared.shutdown.load(Ordering::Acquire) {
                // Final double-check to avoid losing a racing push.
                break consumer.try_pop();
            }
            std::thread::yield_now();
        };
        shared
            .idle_nanos
            .fetch_add(idle_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let first = match first {
            Some(item) => item,
            None => break 'outer,
        };
        shared.in_batch.store(true, Ordering::Release);
        faults.at_batch_start(batch_index);
        // Workers stamp the batch index as the scan; one batch is enqueued
        // per producer scan, so the two sequences align (plus the final
        // flush batches from `finish`).
        if let Some(buf) = &mut events {
            buf.set_scan(batch_index);
        }

        match first {
            Item::BatchEnd => {
                if let Some(buf) = &mut events {
                    buf.emit_plain(EventKind::BatchBegin, 0);
                    buf.emit_plain(EventKind::BatchEnd, 0);
                    buf.drain();
                }
                shared.batches_done.fetch_add(1, Ordering::Release);
            }
            Item::Chunk(chunk) => {
                // Depth at the start of the drain, counting the popped chunk.
                let depth = consumer.len() as u64 + 1;
                shared.queue_depth_dequeue.store(depth, Ordering::Relaxed);
                if let Some(buf) = &mut events {
                    buf.emit_plain(EventKind::BatchBegin, 0);
                    buf.emit_plain(EventKind::QueueDequeue, depth);
                }
                // Per-cell `Instant` calls would dominate the work at these
                // batch sizes, so timing is per segment: total drain time,
                // minus measured producer-stall spins, split into octree
                // and dequeue components via a calibrated per-pop cost.
                let mut cells = chunk.len() as u64;
                let mut pops = 1u64;
                let mut stall = std::time::Duration::ZERO;
                let mut abandoned_mid_batch = false;
                let guard_start = Instant::now();
                let mut guard = tree.lock();
                engine::apply_cells(&mut guard, &chunk);
                loop {
                    match consumer.try_pop() {
                        Some(Item::Chunk(chunk)) => {
                            if let Some(buf) = &mut events {
                                buf.emit_plain(EventKind::QueueDequeue, consumer.len() as u64 + 1);
                            }
                            engine::apply_cells(&mut guard, &chunk);
                            cells += chunk.len() as u64;
                            pops += 1;
                        }
                        Some(Item::BatchEnd) => {
                            pops += 1;
                            break;
                        }
                        None => {
                            // Producer is still enqueueing this batch; wait
                            // (measured, attributed to neither component),
                            // bounded: a dead or wedged producer must not
                            // pin this worker forever.
                            let t = Instant::now();
                            let mut abandoned = false;
                            let mut backoff = Backoff::new(mid_batch_deadline);
                            while consumer.is_empty() {
                                if shared.shutdown.load(Ordering::Acquire) {
                                    // Producer is gone (panic on thread 1 or
                                    // shutdown mid-batch).
                                    abandoned = true;
                                    break;
                                }
                                if !backoff.snooze() {
                                    abandoned = true;
                                    break;
                                }
                            }
                            let waited = t.elapsed();
                            stall += waited;
                            if let Some(buf) = &mut events {
                                buf.emit_plain(EventKind::QueueStall, waited.as_nanos() as u64);
                            }
                            if abandoned && consumer.is_empty() {
                                abandoned_mid_batch = true;
                                break;
                            }
                        }
                    }
                }
                let busy_ns = guard_start.elapsed().saturating_sub(stall).as_nanos() as u64;
                drop(guard);
                let dequeue_ns = pops * pop_cost_ns();
                shared
                    .octree_nanos
                    .fetch_add(busy_ns.saturating_sub(dequeue_ns), Ordering::Relaxed);
                shared
                    .dequeue_nanos
                    .fetch_add(dequeue_ns.min(busy_ns), Ordering::Relaxed);
                shared.cells_applied.fetch_add(cells, Ordering::Relaxed);
                if let Some(buf) = &mut events {
                    // Close the span even on abandonment so begins/ends pair
                    // up; `cells` is what was actually applied.
                    buf.emit_plain(EventKind::BatchEnd, cells);
                    buf.drain();
                }
                if abandoned_mid_batch {
                    // Record exactly what was cut short — which batch, and
                    // how much of it was applied — then exit. A live
                    // producer re-applies the retained batch and reports
                    // `PipelineError::PartialScan`; a dying one folds these
                    // counters in during shutdown. Never a silent drop.
                    shared
                        .partial_batch_index
                        .store(batch_index, Ordering::Relaxed);
                    shared.partial_cells_applied.store(cells, Ordering::Relaxed);
                    shared.partial_batches.fetch_add(1, Ordering::Release);
                    break 'outer;
                }
                shared.batches_done.fetch_add(1, Ordering::Release);
            }
        }
        batch_index += 1;
        shared.in_batch.store(false, Ordering::Release);
    }
}

/// One-time calibration of the SPSC pop cost, used to attribute worker time
/// between "dequeue" and "octree update" without per-cell timestamps
/// (Table 3 of the paper reports these as separate, both tiny).
fn pop_cost_ns() -> u64 {
    use std::sync::OnceLock;
    static POP_NS: OnceLock<u64> = OnceLock::new();
    *POP_NS.get_or_init(|| {
        const N: usize = 64 * 1024;
        let (mut tx, mut rx) = spsc::channel::<Item>(N);
        for _ in 0..N - 1 {
            tx.push(Item::BatchEnd).expect("capacity reserved");
        }
        let t = Instant::now();
        let mut popped = 0u64;
        while rx.try_pop().is_some() {
            popped += 1;
        }
        (t.elapsed().as_nanos() as u64 / popped.max(1)).max(1)
    })
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
        assert!(s.exec.worker.shared.cells_applied.load(Ordering::Relaxed) > 0);
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

    #[test]
    fn full_ring_is_backpressure_not_a_fault() {
        let plan = FaultPlan {
            fill_ring: true,
            ..Default::default()
        };
        let mut s = faulty_system(plan, 5_000);
        assert!(run_scans(&mut s).is_empty());
        assert_eq!(s.integrity(), Integrity::Intact);
        assert!(!s.fault_counters().any());
        let d = compare::diff(&reference_tree(), &s.into_tree(), 0.0);
        assert!(d.is_identical());
    }

    #[test]
    fn mid_batch_abandonment_is_recorded_not_silent() {
        // Drive a worker thread directly: send a chunk but never the
        // BatchEnd, then request shutdown. The worker must record exactly
        // which batch was cut short and how much of it had been applied.
        let grid = VoxelGrid::new(0.5, 8).unwrap();
        let tree = Arc::new(Mutex::new(OccupancyOcTree::new(
            grid,
            OccupancyParams::default(),
        )));
        let shared = Arc::new(WorkerShared::default());
        let (mut producer, consumer) = spsc::channel::<Item>(16);
        let handle = {
            let tree = Arc::clone(&tree);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                worker_thread(
                    consumer,
                    tree,
                    shared,
                    Duration::from_secs(10),
                    WorkerFaults::default(),
                    None,
                )
            })
        };
        let cells: Vec<EvictedCell> = (0..10)
            .map(|i| EvictedCell {
                key: VoxelKey::new(100 + i as u16, 100, 100),
                log_odds: 0.5,
            })
            .collect();
        producer.push(Item::Chunk(cells)).unwrap();
        while shared.cells_applied.load(Ordering::Acquire) < 10 {
            std::thread::yield_now();
        }
        shared.shutdown.store(true, Ordering::Release);
        handle.join().unwrap();
        assert!(shared.dead.load(Ordering::Acquire));
        assert!(!shared.panicked.load(Ordering::Acquire));
        assert_eq!(shared.batches_done.load(Ordering::Acquire), 0);
        assert_eq!(shared.partial_batches.load(Ordering::Acquire), 1);
        assert_eq!(shared.partial_batch_index.load(Ordering::Acquire), 0);
        assert_eq!(shared.partial_cells_applied.load(Ordering::Acquire), 10);
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
