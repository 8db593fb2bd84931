//! The unified scan-lifecycle engine shared by every mapping backend.
//!
//! Historically each backend (OctoMap baseline, serial OctoCache,
//! parallel OctoCache) carried its own copy of the scan lifecycle: telemetry sequencing, snapshot republish, per-scan
//! [`ScanRecord`] assembly, durable-latency stamping and the final flush.
//! This module owns that lifecycle once. A backend now only implements
//! [`ScanExecutor`] — *how* one scan's voxel work is executed — and
//! [`Engine`] wraps it with everything around the scan:
//!
//! ```text
//!  insert_scan(origin, cloud, max_range)
//!     │
//!     ├─ 0. admit(): deadline gate, then budget      (engine; a refusal
//!     │                                               returns Shed here)
//!     ├─ 1. scan_seq = telemetry.scans()            (engine)
//!     ├─ 2. execute_scan(...) → ScanMetrics          (executor: ray trace,
//!     │                                               cache, evict, octree)
//!     ├─ 3. republish read snapshot                  (engine, via the
//!     │                                               executor's snapshot_tree)
//!     ├─ 4. ScanRecord::assemble(metrics, snapshot,  (engine)
//!     │                          durable) → record
//!     ├─ 5. telemetry.record(record)                 (engine)
//!     └─ 6. surface any deferred fault               (engine)
//! ```
//!
//! The engine also implements [`MappingSystem`] once, generically — each
//! backend type is a [`Engine`] instantiation (`SerialOctoCache =
//! Engine<SerialExecutor>`, …), so the trait surface, the publish
//! ordering and the record schema can never drift between backends again.
//!
//! `insert_scan` is the only way a scan enters a backend. A scan the
//! supervisor refuses returns [`PipelineError::Shed`] before step 1: it
//! leaves the map unchanged, records nothing, and is counted once in the
//! next applied scan's `ScanRecord::sheds`.
//!
//! Durability ([`crate::durable::DurableMap`]) plugs in as an engine layer:
//! the wrapper asks [`MappingSystem::admit`] before it journals, stamps
//! each scan's journal/checkpoint latencies through
//! [`MappingSystem::stamp_durable`] *before* delegating `insert_scan`, and
//! the engine folds them into the assembled record.

use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::sync::Arc;
use std::time::Instant;

use octocache_geom::{morton, GeomError, Point3, VoxelGrid, VoxelKey};
use octocache_octomap::insert::VoxelUpdate;
use octocache_octomap::stats::StatsSnapshot;
use octocache_octomap::{insert, rt, OccupancyOcTree};
use octocache_telemetry::{
    DurableMetrics, EventBuffer, EventKind, EventLog, PhaseHistograms, PhaseTimes, Recorder,
    ScanMetrics, ScanRecord, SnapshotMetrics, Telemetry,
};

use crate::cache::{CacheStats, CodeHasher, EvictedCell, VoxelCache};
use crate::config::CacheConfig;
use crate::fault::{FaultCounters, Integrity, IntegrityTransition, PipelineError};
use crate::pipeline::RayTracer;
use crate::query::{BatchStats, MapSnapshot, PublishStats, QueryHandle, SnapshotPublisher};
use crate::supervisor::{AdmissionGate, ShedReason};

/// Outcome of inserting one scan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScanReport {
    /// Per-phase wall-clock times for this scan.
    pub times: PhaseTimes,
    /// Voxel observations produced by ray tracing (after any dedup).
    pub observations: usize,
    /// Observations that hit the cache (0 for cache-less backends).
    pub cache_hits: u64,
    /// Voxels evicted toward the octree this scan (for cache backends) or
    /// applied directly (for plain backends).
    pub octree_updates: usize,
}

/// A 3D occupancy mapping backend.
///
/// The query methods take `&mut self` because cache-based backends update
/// hit/miss statistics on lookups; results are identical to what vanilla
/// OctoMap would return (the paper's consistency guarantee, verified by the
/// cross-backend tests in `tests/consistency.rs`).
pub trait MappingSystem {
    /// A short, stable backend name (e.g. `"octomap"`, `"octocache-serial"`).
    fn name(&self) -> String;

    /// The world↔key mapping.
    fn grid(&self) -> &VoxelGrid;

    /// Ray-traces and integrates one sensor scan.
    ///
    /// Scan application is transactional at scan granularity: on `Ok` the
    /// scan is applied voxel-for-voxel identically to the serial backend; on
    /// `Err` the failure is typed and [`MappingSystem::integrity`] reports
    /// whether the map may have diverged. The scan is first put to
    /// [`MappingSystem::admit`]; a refused scan is never applied.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Shed`] when the deadline gate or the memory budget
    /// refused the scan (the map is unchanged by it), and
    /// [`PipelineError::Geom`] for invalid origins; parallel backends
    /// additionally surface worker panics, spawn failures, stalls and
    /// batches left unapplied behind a wedged worker.
    fn insert_scan(
        &mut self,
        origin: Point3,
        cloud: &[Point3],
        max_range: f64,
    ) -> Result<ScanReport, PipelineError>;

    /// The supervisor's verdict on the next scan, without applying
    /// anything: the deadline gate first, then the memory budget.
    /// [`MappingSystem::insert_scan`] asks it first; layered backends
    /// ([`crate::durable::DurableMap`]) ask it *before* their own side
    /// effects, so the journal records each scan with the decision that was
    /// made. While it admits, asking again gives the same answer. Each
    /// refusal counts as one shed in the backend's telemetry.
    ///
    /// The default admits unconditionally, for backends without a
    /// supervisor.
    ///
    /// # Errors
    ///
    /// The [`ShedReason`] when the next scan must be shed.
    fn admit(&mut self) -> Result<(), ShedReason> {
        Ok(())
    }

    /// Accumulated occupancy log-odds at a voxel; `None` = unknown space.
    fn occupancy(&mut self, key: VoxelKey) -> Option<f32>;

    /// Occupancy decision at a voxel.
    fn is_occupied(&mut self, key: VoxelKey) -> Option<bool>;

    /// Occupancy decision at a world point.
    ///
    /// # Errors
    ///
    /// Propagates [`GeomError`] for out-of-map points.
    fn is_occupied_at(&mut self, p: Point3) -> Result<Option<bool>, GeomError> {
        let key = self.grid().key_of(p)?;
        Ok(self.is_occupied(key))
    }

    /// Flushes all pending state into the backing octree and returns the
    /// residual phase times. After `finish`, the backing octree alone
    /// answers every query.
    fn finish(&mut self) -> PhaseTimes;

    /// Cumulative phase times over the backend's lifetime (including
    /// thread-2 work for parallel backends).
    fn phase_times(&self) -> PhaseTimes;

    /// Attaches a telemetry [`Recorder`] that receives one
    /// [`ScanRecord`] per `insert_scan`.
    /// Recording must never change mapping behaviour. The default
    /// implementation drops the recorder, for implementors without
    /// telemetry wiring.
    fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        drop(recorder);
    }

    /// Per-phase latency histograms over every scan inserted so far, when
    /// the backend tracks them.
    fn phase_histograms(&self) -> Option<&PhaseHistograms> {
        None
    }

    /// Voxel-cache counters; `None` for cache-less backends.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Octree instrumentation counters (read through the pipeline mutex
    /// on the parallel backend), when the backend can reach them.
    fn tree_stats(&self) -> Option<StatsSnapshot> {
        None
    }

    /// Takes the sub-scan event stream collected so far, when the backend
    /// was built with `CacheConfig::events(true)`. Pending per-thread
    /// buffers are drained first, so after [`MappingSystem::finish`] the
    /// returned log is complete. `None` when event recording is off (the
    /// default) or the backend has no event wiring.
    fn take_events(&mut self) -> Option<EventLog> {
        None
    }

    /// Whether the backend has degraded after a fault, and if so how far.
    ///
    /// Backends without failure modes (everything single-threaded) are
    /// always [`Integrity::Intact`].
    fn integrity(&self) -> Integrity {
        Integrity::Intact
    }

    /// Cumulative fault/degraded-mode counters over the backend's lifetime.
    /// All-zero for backends without failure modes.
    fn fault_counters(&self) -> FaultCounters {
        FaultCounters::default()
    }

    /// Every [`Integrity`] transition the backend has taken, oldest first
    /// — including heals, which the sticky [`MappingSystem::integrity`]
    /// verdict alone cannot show. Empty for backends without failure
    /// modes.
    fn integrity_transitions(&self) -> Vec<IntegrityTransition> {
        Vec::new()
    }

    /// A cloneable handle for lock-free concurrent reads
    /// ([`crate::query`]). The first call arms the backend's snapshot
    /// publisher (publishing the current map as epoch 0); every subsequent
    /// `insert_scan` then republishes at its scan boundary, so readers are
    /// never more than one scan stale and never take the octree mutex.
    /// Backends without a publisher pay nothing until this is called.
    fn query_handle(&mut self) -> QueryHandle;

    /// The current published [`MapSnapshot`] (arming the publisher on
    /// first use, like [`MappingSystem::query_handle`]). Between
    /// `insert_scan` calls the snapshot answers every query identically to
    /// the backend's own locked query path.
    fn snapshot(&mut self) -> Arc<MapSnapshot> {
        self.query_handle().snapshot()
    }

    /// Stamps the durable-layer latencies for the *next* `insert_scan`:
    /// its journal-append time, any checkpoint written before it, and the
    /// epoch of the last checkpoint. Called by
    /// [`crate::durable::DurableMap`] immediately before it delegates the
    /// scan; the engine folds the values into that scan's record. The
    /// default implementation discards them, for implementors without
    /// telemetry wiring.
    fn stamp_durable(
        &mut self,
        journal_append_ns: u64,
        checkpoint_write_ns: u64,
        checkpoint_epoch: u64,
    ) {
        let _ = (journal_append_ns, checkpoint_write_ns, checkpoint_epoch);
    }

    /// Consumes the backend, flushing all pending state, and returns the
    /// completed octree (for serialisation, diffing, offline queries).
    fn take_tree(self: Box<Self>) -> OccupancyOcTree;
}

impl<M: MappingSystem + ?Sized> MappingSystem for Box<M> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn grid(&self) -> &VoxelGrid {
        (**self).grid()
    }
    fn insert_scan(
        &mut self,
        origin: Point3,
        cloud: &[Point3],
        max_range: f64,
    ) -> Result<ScanReport, PipelineError> {
        (**self).insert_scan(origin, cloud, max_range)
    }
    fn admit(&mut self) -> Result<(), ShedReason> {
        (**self).admit()
    }
    fn occupancy(&mut self, key: VoxelKey) -> Option<f32> {
        (**self).occupancy(key)
    }
    fn is_occupied(&mut self, key: VoxelKey) -> Option<bool> {
        (**self).is_occupied(key)
    }
    fn is_occupied_at(&mut self, p: Point3) -> Result<Option<bool>, GeomError> {
        (**self).is_occupied_at(p)
    }
    fn finish(&mut self) -> PhaseTimes {
        (**self).finish()
    }
    fn phase_times(&self) -> PhaseTimes {
        (**self).phase_times()
    }
    fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        (**self).set_recorder(recorder)
    }
    fn phase_histograms(&self) -> Option<&PhaseHistograms> {
        (**self).phase_histograms()
    }
    fn cache_stats(&self) -> Option<CacheStats> {
        (**self).cache_stats()
    }
    fn tree_stats(&self) -> Option<StatsSnapshot> {
        (**self).tree_stats()
    }
    fn take_events(&mut self) -> Option<EventLog> {
        (**self).take_events()
    }
    fn integrity(&self) -> Integrity {
        (**self).integrity()
    }
    fn fault_counters(&self) -> FaultCounters {
        (**self).fault_counters()
    }
    fn integrity_transitions(&self) -> Vec<IntegrityTransition> {
        (**self).integrity_transitions()
    }
    fn query_handle(&mut self) -> QueryHandle {
        (**self).query_handle()
    }
    fn snapshot(&mut self) -> Arc<MapSnapshot> {
        (**self).snapshot()
    }
    fn stamp_durable(
        &mut self,
        journal_append_ns: u64,
        checkpoint_write_ns: u64,
        checkpoint_epoch: u64,
    ) {
        (**self).stamp_durable(journal_append_ns, checkpoint_write_ns, checkpoint_epoch)
    }
    fn take_tree(self: Box<Self>) -> OccupancyOcTree {
        (*self).take_tree()
    }
}

/// What one executed scan produced, beyond the metrics: the
/// [`ScanReport`] counters the caller sees, and any fault to surface
/// *after* the scan has been recorded.
#[derive(Debug, Default)]
pub struct ScanOutput {
    /// Observations absorbed by the cache (0 for cache-less executors).
    pub cache_hits: u64,
    /// Voxels evicted toward (or applied directly to) the octree.
    pub octree_updates: usize,
    /// A fault that degraded this scan but did not abort it (the parallel
    /// executor's worker faults): the engine records the scan normally,
    /// republishes, and *then* returns this as the `insert_scan` error —
    /// exactly once, with the map state described by
    /// [`ScanExecutor::integrity`]. Errors that abort the scan (invalid
    /// geometry) are returned as `Err` from
    /// [`ScanExecutor::execute_scan`] instead and skip recording entirely.
    pub deferred: Option<PipelineError>,
}

/// Phase times reported by [`ScanExecutor::flush`]: what the caller of
/// [`MappingSystem::finish`] gets back, and what the telemetry totals
/// absorb (the parallel executor folds otherwise-unattributed worker time
/// into the totals only).
#[derive(Debug, Default, Clone, Copy)]
pub struct FlushTimes {
    /// Residual phase times returned to the `finish` caller.
    pub returned: PhaseTimes,
    /// Phase times folded into the cumulative telemetry totals (equal to
    /// `returned` unless the executor has off-thread time to attribute).
    pub recorded: PhaseTimes,
}

/// One backend's scan-execution strategy.
///
/// Implementations own the mapping state (cache, octree, worker
/// pipeline) and the per-scan voxel work; the [`Engine`] owns everything
/// around it (telemetry sequencing, snapshot republish, record assembly,
/// durable stamping, the final flush ordering). Executors never construct
/// a [`ScanRecord`] and never talk to a [`Recorder`].
pub trait ScanExecutor {
    /// The short, stable backend name (e.g. `"octocache-serial"`); also
    /// the telemetry backend label.
    fn backend_name(&self) -> String;

    /// The world↔key mapping.
    fn grid(&self) -> &VoxelGrid;

    /// Executes one scan: ray tracing and voxel integration, filling
    /// `metrics` with everything measured (phase times, cache and octree
    /// deltas, queue/worker samples, fault deltas).
    ///
    /// `scan_seq` is the 0-based telemetry sequence of this scan, for
    /// stamping sub-scan event streams.
    ///
    /// # Errors
    ///
    /// An `Err` means the scan was aborted (e.g. invalid geometry): the
    /// engine records nothing and republishes nothing, matching a scan
    /// that never happened. Faults that leave the scan applied (degraded
    /// parallel execution) belong in [`ScanOutput::deferred`] instead.
    fn execute_scan(
        &mut self,
        origin: Point3,
        cloud: &[Point3],
        max_range: f64,
        scan_seq: u64,
        metrics: &mut ScanMetrics,
    ) -> Result<ScanOutput, PipelineError>;

    /// Builds a self-contained read tree of the current map state:
    /// octree with any pending cache contents overlaid, answering exactly what the live query path answers at
    /// this scan boundary. Called by the engine at publish points.
    fn snapshot_tree(&self) -> OccupancyOcTree;

    /// Accumulated occupancy log-odds at a voxel (`None` = unknown),
    /// through the executor's consistency path (cache first, octree on a
    /// miss).
    fn occupancy(&mut self, key: VoxelKey) -> Option<f32>;

    /// Occupancy decision at a voxel.
    fn is_occupied(&mut self, key: VoxelKey) -> Option<bool>;

    /// Flushes all pending mapping state into the backing octree (cache
    /// drain, final worker batches) and reports the residual phase times.
    /// The engine folds [`FlushTimes::recorded`] into the telemetry
    /// totals and flushes the recorder afterwards.
    fn flush(&mut self) -> FlushTimes;

    /// Executor time spent but not yet attributed to any scan or flush
    /// (the parallel workers' in-flight batch time). Added to the
    /// telemetry totals by [`MappingSystem::phase_times`].
    fn residual_times(&self) -> PhaseTimes {
        PhaseTimes::default()
    }

    /// Voxel-cache counters; `None` for cache-less executors.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Octree instrumentation counters, when reachable.
    fn tree_stats(&self) -> Option<StatsSnapshot> {
        None
    }

    /// Takes the sub-scan event stream, when event recording is wired.
    fn take_events(&mut self) -> Option<EventLog> {
        None
    }

    /// The map-consistency verdict after any faults.
    fn integrity(&self) -> Integrity {
        Integrity::Intact
    }

    /// Cumulative fault/degraded-mode counters.
    fn fault_counters(&self) -> FaultCounters {
        FaultCounters::default()
    }

    /// Every integrity transition taken so far, when the executor tracks
    /// them.
    fn integrity_transitions(&self) -> Vec<IntegrityTransition> {
        Vec::new()
    }

    /// The cache configuration, whose memory budget and admission
    /// deadline the engine reads once at construction; `None` (the
    /// baselines) leaves both off.
    fn config(&self) -> Option<&CacheConfig> {
        None
    }

    /// Bytes resident in the executor's mapping state (octree storage
    /// plus the cache). Only called when a memory budget is configured,
    /// once per admission verdict; executors without a budget report 0.
    fn resident_bytes(&self) -> u64 {
        0
    }

    /// Consumes the executor and returns the completed backing octree.
    /// The engine has already run [`ScanExecutor::flush`] by the time
    /// this is called, so no mapping state is pending.
    fn take_tree(self) -> OccupancyOcTree
    where
        Self: Sized;
}

/// The scan-lifecycle engine: one executor plus the shared lifecycle
/// state (telemetry, snapshot publisher, pending durable stamps).
///
/// Every mapping backend is an instantiation of this type; see the
/// module docs for the lifecycle it owns.
#[derive(Debug)]
pub struct Engine<E: ScanExecutor> {
    /// The execution strategy. Crate-visible so backend modules can offer
    /// inherent accessors (and their tests can reach internals).
    pub(crate) exec: E,
    telemetry: Telemetry,
    /// Armed lazily by the first [`MappingSystem::query_handle`] call;
    /// `None` keeps the no-reader fast path free of per-scan deep copies.
    publisher: Option<SnapshotPublisher>,
    /// Durable latencies stamped for the scan about to be inserted
    /// ([`MappingSystem::stamp_durable`]); all zeros without a
    /// durability layer.
    pending_durable: DurableMetrics,
    /// The memory budget in bytes ([`CacheConfig::mem_budget`]).
    budget: Option<u64>,
    /// The admission gate, armed when the config carries a deadline
    /// ([`CacheConfig::shed_deadline`]).
    gate: Option<AdmissionGate>,
    /// Scans shed since the last applied scan; folded into the next
    /// applied scan's record.
    pending_sheds: u64,
}

impl<E: ScanExecutor> Engine<E> {
    /// Wraps an executor with fresh lifecycle state.
    pub(crate) fn from_executor(exec: E) -> Self {
        let telemetry = Telemetry::new(exec.backend_name());
        let config = exec.config();
        let budget = config.and_then(CacheConfig::mem_budget);
        let gate = config
            .and_then(CacheConfig::shed_deadline)
            .map(AdmissionGate::new);
        Engine {
            exec,
            telemetry,
            publisher: None,
            pending_durable: DurableMetrics::default(),
            budget,
            gate,
            pending_sheds: 0,
        }
    }

    /// Runs one scan through the full lifecycle: sequence → execute →
    /// republish → assemble → record → surface any deferred fault.
    fn run_scan(
        &mut self,
        origin: Point3,
        cloud: &[Point3],
        max_range: f64,
    ) -> Result<ScanReport, PipelineError> {
        let scan_seq = self.telemetry.scans();
        let mut metrics = ScanMetrics::default();
        // An executor error aborts the scan before any lifecycle side
        // effects: nothing recorded, nothing republished.
        let started = Instant::now();
        let out = self
            .exec
            .execute_scan(origin, cloud, max_range, scan_seq, &mut metrics)?;
        if let Some(gate) = &mut self.gate {
            gate.observe_scan(started.elapsed());
        }
        // The supervisor's per-scan stamps: sheds accumulated since the
        // last applied scan, and "normal" when a budget admitted this one.
        metrics.sheds = std::mem::take(&mut self.pending_sheds);
        if self.budget.is_some() {
            metrics.pressure_level = "normal".to_string();
        }

        let (publish, batch_stats) = self.republish(scan_seq + 1);
        let snapshot = SnapshotMetrics {
            snapshot_publish_ns: publish.map_or(0, |p| p.latency.as_nanos() as u64),
            snapshot_age_ns: publish.map_or(0, |p| p.replaced_age.as_nanos() as u64),
            batch_queries: batch_stats.queries,
            batch_nodes_visited: batch_stats.nodes_visited,
            batch_nodes_reused: batch_stats.nodes_reused,
        };
        let times = metrics.times;
        let observations = metrics.observations as usize;
        self.telemetry.record(ScanRecord::assemble(
            metrics,
            snapshot,
            self.pending_durable,
        ));

        // Surface the first deferred fault exactly once — after the scan
        // was recorded, so degraded scans still reach the trace.
        if let Some(err) = out.deferred {
            return Err(err);
        }
        Ok(ScanReport {
            times,
            observations,
            cache_hits: out.cache_hits,
            octree_updates: out.octree_updates,
        })
    }

    /// Republishes the read snapshot when a publisher is armed, returning
    /// its stats plus the batch-query counters drained since last scan.
    fn republish(&mut self, scans: u64) -> (Option<PublishStats>, BatchStats) {
        let Engine {
            exec, publisher, ..
        } = self;
        match publisher.as_mut() {
            Some(p) => {
                let stats = p.publish_with(scans, || exec.snapshot_tree());
                (Some(stats), p.take_batch_stats())
            }
            None => (None, BatchStats::default()),
        }
    }
}

impl<E: ScanExecutor> MappingSystem for Engine<E> {
    fn name(&self) -> String {
        self.exec.backend_name()
    }

    fn grid(&self) -> &VoxelGrid {
        self.exec.grid()
    }

    fn insert_scan(
        &mut self,
        origin: Point3,
        cloud: &[Point3],
        max_range: f64,
    ) -> Result<ScanReport, PipelineError> {
        self.admit().map_err(PipelineError::Shed)?;
        self.run_scan(origin, cloud, max_range)
    }

    fn admit(&mut self) -> Result<(), ShedReason> {
        // Deadline gate first (cheapest), then the memory budget; both are
        // one `None` branch when unconfigured.
        let reason = self
            .gate
            .as_mut()
            .and_then(AdmissionGate::admit)
            .or_else(|| {
                let budget_bytes = self.budget?;
                let resident_bytes = self.exec.resident_bytes();
                (resident_bytes >= budget_bytes).then_some(ShedReason::OverBudget {
                    resident_bytes,
                    budget_bytes,
                })
            });
        match reason {
            Some(reason) => {
                self.pending_sheds += 1;
                Err(reason)
            }
            None => Ok(()),
        }
    }

    fn occupancy(&mut self, key: VoxelKey) -> Option<f32> {
        self.exec.occupancy(key)
    }

    fn is_occupied(&mut self, key: VoxelKey) -> Option<bool> {
        self.exec.is_occupied(key)
    }

    fn finish(&mut self) -> PhaseTimes {
        let flushed = self.exec.flush();
        self.telemetry.add_times(flushed.recorded);
        self.telemetry.flush();
        flushed.returned
    }

    fn phase_times(&self) -> PhaseTimes {
        self.telemetry.totals() + self.exec.residual_times()
    }

    fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.telemetry.set_recorder(recorder);
    }

    fn phase_histograms(&self) -> Option<&PhaseHistograms> {
        Some(self.telemetry.histograms())
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.exec.cache_stats()
    }

    fn tree_stats(&self) -> Option<StatsSnapshot> {
        self.exec.tree_stats()
    }

    fn take_events(&mut self) -> Option<EventLog> {
        self.exec.take_events()
    }

    fn integrity(&self) -> Integrity {
        self.exec.integrity()
    }

    fn fault_counters(&self) -> FaultCounters {
        self.exec.fault_counters()
    }

    fn integrity_transitions(&self) -> Vec<IntegrityTransition> {
        self.exec.integrity_transitions()
    }

    fn query_handle(&mut self) -> QueryHandle {
        if self.publisher.is_none() {
            let scans = self.telemetry.scans();
            self.publisher = Some(SnapshotPublisher::new(self.exec.snapshot_tree(), scans));
        }
        self.publisher
            .as_ref()
            .expect("publisher armed above")
            .handle()
    }

    fn stamp_durable(
        &mut self,
        journal_append_ns: u64,
        checkpoint_write_ns: u64,
        checkpoint_epoch: u64,
    ) {
        self.pending_durable = DurableMetrics {
            journal_append_ns,
            checkpoint_write_ns,
            checkpoint_epoch,
        };
    }

    fn take_tree(self: Box<Self>) -> OccupancyOcTree {
        let mut this = *self;
        this.finish();
        this.exec.take_tree()
    }
}

/// A ray-traced scan batch: the executor's reusable buffer, or a
/// dedup-folded copy of it for the `-rt` front-ends.
#[derive(Debug)]
pub(crate) enum TracedBatch<'a> {
    /// The raw traced batch, borrowed from the executor's buffer.
    Raw(&'a insert::VoxelBatch),
    /// A dedup-folded copy (one observation per distinct voxel).
    Deduped(insert::VoxelBatch),
}

impl std::ops::Deref for TracedBatch<'_> {
    type Target = insert::VoxelBatch;
    fn deref(&self) -> &insert::VoxelBatch {
        match self {
            TracedBatch::Raw(b) => b,
            TracedBatch::Deduped(b) => b,
        }
    }
}

/// The shared ray-tracing front-end: traces one scan into `batch` and
/// applies the executor's dedup policy. Inline executors start
/// `execute_scan` here; the parallel executor open-codes the same steps
/// because its trace overlaps the workers' previous batch.
pub(crate) fn trace_scan<'a>(
    ray_tracer: RayTracer,
    grid: &VoxelGrid,
    origin: Point3,
    cloud: &[Point3],
    max_range: f64,
    batch: &'a mut insert::VoxelBatch,
) -> Result<TracedBatch<'a>, GeomError> {
    insert::compute_update(grid, origin, cloud, max_range, batch)?;
    Ok(match ray_tracer {
        RayTracer::Standard => TracedBatch::Raw(batch),
        RayTracer::Dedup => TracedBatch::Deduped(rt::dedup_batch(batch)),
    })
}

/// Stamps the octree-side instrumentation delta onto `metrics`.
pub(crate) fn stamp_tree_delta(metrics: &mut ScanMetrics, delta: &StatsSnapshot) {
    metrics.octree_node_visits = delta.node_visits;
    metrics.octree_leaf_updates = delta.leaf_updates;
    metrics.octree_nodes_created = delta.nodes_created;
}

/// Stamps the cache-counter delta onto `metrics`.
pub(crate) fn stamp_cache_delta(metrics: &mut ScanMetrics, delta: &CacheStats) {
    metrics.cache_hits = delta.hits;
    metrics.cache_misses = delta.misses;
    metrics.cache_insertions = delta.insertions;
    metrics.cache_evictions = delta.evictions;
}

/// Overlays the cache's accumulated cells onto a read tree. Cells hold
/// absolute log-odds — the same values eviction would write — so the
/// overlaid tree answers exactly what the live cache→tree fall-through
/// path answers at this scan boundary.
pub(crate) fn overlay_cache(tree: &mut OccupancyOcTree, cache: &VoxelCache) {
    for cell in cache.iter() {
        tree.set_node_log_odds(cell.key, cell.log_odds);
    }
}

/// Writes evicted cells to the tree — the one way an eviction reaches an
/// octree, on the serial path, the workers and every fail-over. Cells hold
/// absolute log-odds, so re-applying a share is idempotent; they arrive in
/// Morton order ([`VoxelCache::evict_into`]), which is what makes the batch
/// cheap, not what makes it correct.
pub(crate) fn apply_cells<'a>(
    tree: &mut OccupancyOcTree,
    cells: impl IntoIterator<Item = &'a EvictedCell>,
) {
    tree.set_log_odds_batch(cells.into_iter().map(|c| (c.key, c.log_odds)));
}

/// Applies evicted cells to the tree. With an event buffer, the cells'
/// `CacheEvict`s are recorded first ([`record_evictions`]), the apply is
/// wrapped in a batch span, and the buffer drains.
pub(crate) fn apply_evictions(
    events: Option<&mut EventBuffer>,
    cache: &VoxelCache,
    tree: &mut OccupancyOcTree,
    cells: &[EvictedCell],
) {
    let Some(buf) = events else {
        return apply_cells(tree, cells);
    };
    record_evictions(buf, cache, cells);
    let count = cells.len() as u64;
    buf.emit_plain(EventKind::BatchBegin, count);
    apply_cells(tree, cells);
    buf.emit_plain(EventKind::BatchEnd, count);
    buf.drain();
}

/// Records a batch's cache accesses before `cache` takes it: one
/// `CacheHit` or `CacheMiss` per observation, in batch order. An
/// observation hits when its voxel is resident ([`VoxelCache::peek`]) or
/// came earlier in the batch — exact, because nothing is evicted within a
/// batch — so the stream is what one `insert` per observation would meet,
/// however the cache folds the batch.
pub fn record_accesses(events: &mut EventBuffer, cache: &VoxelCache, batch: &[VoxelUpdate]) {
    // The batch's voxels so far, by Morton code; it grows with the distinct
    // voxels, and a stopped lane never fills it.
    let mut seen: HashSet<u64, BuildHasherDefault<CodeHasher>> = HashSet::default();
    events.emit_cache_run(batch.iter().map(|u| {
        let code = morton::encode(u.key);
        let hit = !seen.insert(code) || cache.peek(u.key).is_some();
        let kind = if hit {
            EventKind::CacheHit
        } else {
            EventKind::CacheMiss
        };
        (kind, code, cache.bucket_of_code(code) as u32)
    }));
}

/// Records one `CacheEvict` per cell `cache` handed back from an eviction
/// pass or a drain, in the order it handed them (Morton order).
pub fn record_evictions(events: &mut EventBuffer, cache: &VoxelCache, cells: &[EvictedCell]) {
    events.emit_cache_run(cells.iter().map(|c| {
        let code = morton::encode(c.key);
        (
            EventKind::CacheEvict,
            code,
            cache.bucket_of_code(code) as u32,
        )
    }));
}
