//! The unified scan-lifecycle engine shared by every mapping backend.
//!
//! Historically each backend (OctoMap baseline, serial OctoCache,
//! parallel OctoCache) carried its own copy of the scan lifecycle: telemetry sequencing, snapshot republish, the per-scan
//! [`ScanRecord`], durable-latency stamping and the final flush.
//! This module owns that lifecycle once. A backend now only implements
//! [`ScanExecutor`] — *how* one scan's voxel work is executed — and
//! [`Engine`] wraps it with everything around the scan:
//!
//! ```text
//!  insert_scan(origin, cloud, max_range)
//!     │
//!     ├─ 0. admit(): deadline gate, then budget      (engine; a refusal
//!     │                                               returns Shed here and
//!     │                                               counts in record.sheds)
//!     ├─ 1. record.seq = telemetry.scans()          (engine)
//!     ├─ 2. execute_scan(..., &mut record)           (executor: ray trace,
//!     │                                               cache, evict, octree;
//!     │                                               fills its own fields)
//!     ├─ 3. republish read snapshot                  (engine, via the
//!     │                                               executor's snapshot_tree;
//!     │                                               fills the publish fields)
//!     ├─ 4. telemetry.record(record)                 (engine)
//!     └─ 5. surface any deferred fault               (engine)
//! ```
//!
//! The engine owns one pending [`ScanRecord`], the only per-scan struct:
//! every layer writes its own fields into it in place, and the
//! [`ScanReport`] the caller gets is read off it.
//!
//! The engine also implements [`MappingSystem`] once, generically — each
//! backend type is a [`Engine`] instantiation (`SerialOctoCache =
//! Engine<SerialExecutor>`, …), so the trait surface, the publish
//! ordering and the record schema can never drift between backends again.
//!
//! `insert_scan` is the only way a scan enters a backend. A scan the
//! supervisor refuses returns [`PipelineError::Shed`] before step 1: it
//! leaves the map unchanged, records nothing, and is counted once in the
//! pending record's `sheds`, which the next applied scan carries. Refusals
//! after the last applied scan reach the trace at [`MappingSystem::finish`]
//! as one trailing record with no observations.
//!
//! Durability ([`crate::durable::DurableMap`]) plugs in as an engine layer:
//! the wrapper asks [`MappingSystem::admit`] before it journals, and writes
//! each scan's journal/checkpoint latencies into the pending record through
//! [`MappingSystem::stamp_durable`] *before* delegating `insert_scan`.

use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::sync::Arc;
use std::time::Instant;

use octocache_geom::{morton, GeomError, Point3, VoxelGrid, VoxelKey};
use octocache_octomap::insert::VoxelUpdate;
use octocache_octomap::stats::StatsSnapshot;
use octocache_octomap::{insert, rt, OccupancyOcTree};
use octocache_telemetry::{
    EventBuffer, EventKind, EventLog, PhaseHistograms, PhaseTimes, Recorder, ScanRecord, Telemetry,
};

use crate::cache::{CacheStats, CodeHasher, EvictedCell, VoxelCache};
use crate::config::CacheConfig;
use crate::fault::{FaultCounters, Integrity, IntegrityTransition, PipelineError};
use crate::pipeline::RayTracer;
use crate::query::{MapSnapshot, QueryHandle, SnapshotPublisher};
use crate::supervisor::{AdmissionGate, ShedReason};

/// Outcome of inserting one scan: four values read off its [`ScanRecord`].
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
    /// scan; the engine writes the values into that scan's pending record.
    /// The default implementation discards them, for implementors without
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
/// around it (telemetry sequencing, snapshot republish, the pending
/// record, durable stamping, the final flush ordering). Executors write
/// their own fields of the engine's [`ScanRecord`], never construct one and
/// never talk to a [`Recorder`].
pub trait ScanExecutor {
    /// The short, stable backend name (e.g. `"octocache-serial"`); also
    /// the telemetry backend label.
    fn backend_name(&self) -> String;

    /// The world↔key mapping.
    fn grid(&self) -> &VoxelGrid;

    /// Executes one scan: ray tracing and voxel integration, setting the
    /// fields of `record` it measures (phase times, cache and octree
    /// deltas, queue/worker samples, fault deltas) and no others. It
    /// assigns every field it owns on every scan, so nothing carries over
    /// from an aborted one. `record.seq` is the 0-based telemetry sequence
    /// of this scan, for stamping sub-scan event streams.
    ///
    /// `Ok(Some(err))` is a fault that degraded this scan but did not abort
    /// it (the parallel executor's worker faults): the engine records the
    /// scan, republishes, and *then* returns `err` from `insert_scan` —
    /// exactly once, with the map state described by
    /// [`ScanExecutor::integrity`].
    ///
    /// # Errors
    ///
    /// An `Err` means the scan was aborted (e.g. invalid geometry): the
    /// engine records nothing and republishes nothing, matching a scan
    /// that never happened.
    fn execute_scan(
        &mut self,
        origin: Point3,
        cloud: &[Point3],
        max_range: f64,
        record: &mut ScanRecord,
    ) -> Result<Option<PipelineError>, PipelineError>;

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
    /// cache-less baselines) leaves both off, and makes every observation
    /// an octree update in the [`ScanReport`].
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
/// state (telemetry, snapshot publisher, the next scan's record).
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
    /// The next applied scan's record. Refusals count into its `sheds`
    /// ([`MappingSystem::admit`]) and the durability layer writes its three
    /// durable fields ([`MappingSystem::stamp_durable`]) before the scan
    /// runs; the executor and the publish fill the rest.
    record: ScanRecord,
    /// Whether the executor has a cache in front of its octree: its
    /// octree updates are then the cache's evictions, not every
    /// observation.
    cached: bool,
    /// The memory budget in bytes ([`CacheConfig::mem_budget`]).
    budget: Option<u64>,
    /// The admission gate, armed when the config carries a deadline
    /// ([`CacheConfig::shed_deadline`]).
    gate: Option<AdmissionGate>,
}

impl<E: ScanExecutor> Engine<E> {
    /// Wraps an executor with fresh lifecycle state.
    pub(crate) fn from_executor(exec: E) -> Self {
        let telemetry = Telemetry::new(exec.backend_name());
        let config = exec.config();
        let cached = config.is_some();
        let budget = config.and_then(CacheConfig::mem_budget);
        let gate = config
            .and_then(CacheConfig::shed_deadline)
            .map(AdmissionGate::new);
        Engine {
            exec,
            telemetry,
            publisher: None,
            record: ScanRecord::default(),
            cached,
            budget,
            gate,
        }
    }

    /// Runs one scan through the full lifecycle: sequence → execute →
    /// republish → record → surface any deferred fault.
    fn run_scan(
        &mut self,
        origin: Point3,
        cloud: &[Point3],
        max_range: f64,
    ) -> Result<ScanReport, PipelineError> {
        self.record.seq = self.telemetry.scans();
        // An executor error aborts the scan before any lifecycle side
        // effects: nothing recorded, nothing republished.
        let started = Instant::now();
        let deferred = self
            .exec
            .execute_scan(origin, cloud, max_range, &mut self.record)?;
        if let Some(gate) = &mut self.gate {
            gate.observe_scan(started.elapsed());
        }
        if self.budget.is_some() {
            self.record.pressure_level = "normal".to_string();
        }
        self.republish();

        let record = std::mem::take(&mut self.record);
        let report = ScanReport {
            times: record.times,
            observations: record.observations as usize,
            cache_hits: record.cache_hits,
            octree_updates: if self.cached {
                record.cache_evictions
            } else {
                record.observations
            } as usize,
        };
        self.telemetry.record(record);
        // Surface the first deferred fault exactly once — after the scan
        // was recorded, so degraded scans still reach the trace.
        match deferred {
            Some(err) => Err(err),
            None => Ok(report),
        }
    }

    /// Republishes the read snapshot when a publisher is armed, writing
    /// its cost and the batch-query counters drained since the last scan
    /// into the pending record.
    fn republish(&mut self) {
        let Engine {
            exec,
            publisher,
            record,
            ..
        } = self;
        if let Some(p) = publisher.as_mut() {
            let publish = p.publish_with(record.seq + 1, || exec.snapshot_tree());
            let batch = p.take_batch_stats();
            record.snapshot_publish_ns = publish.latency.as_nanos() as u64;
            record.snapshot_age_ns = publish.replaced_age.as_nanos() as u64;
            record.batch_queries = batch.queries;
            record.batch_nodes_visited = batch.nodes_visited;
            record.batch_nodes_reused = batch.nodes_reused;
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
                self.record.sheds += 1;
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
        // Refusals after the last applied scan have no scan to ride on:
        // they reach the trace as one trailing record with no observations.
        if self.record.sheds > 0 {
            let mut record = std::mem::take(&mut self.record);
            if self.budget.is_some() {
                record.pressure_level = "normal".to_string();
            }
            self.telemetry.record_trailing(record);
        }
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
        self.record.journal_append_ns = journal_append_ns;
        self.record.checkpoint_write_ns = checkpoint_write_ns;
        self.record.checkpoint_epoch = checkpoint_epoch;
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

/// Writes a scan's cache-counter and octree-counter deltas into its
/// record (the cache-less baseline passes a zero cache delta).
pub(crate) fn stamp_deltas(record: &mut ScanRecord, cache: &CacheStats, tree: &StatsSnapshot) {
    record.cache_hits = cache.hits;
    record.cache_misses = cache.misses;
    record.cache_insertions = cache.insertions;
    record.cache_evictions = cache.evictions;
    record.octree_node_visits = tree.node_visits;
    record.octree_leaf_updates = tree.leaf_updates;
    record.octree_nodes_created = tree.nodes_created;
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

/// Whether `key` is on the 4×4×4 lattice whose cache events are recorded —
/// its Morton code's low 6 bits are zero
/// ([`octocache_telemetry::is_sampled`]), tested without encoding it.
#[inline]
fn sampled(key: VoxelKey) -> bool {
    (key.x | key.y | key.z) & 3 == 0
}

/// Records a batch's sampled cache accesses before `cache` takes it: one
/// `CacheHit` or `CacheMiss` per observation of a sampled voxel, in
/// batch order. An observation hits when its voxel is resident
/// ([`VoxelCache::peek`]) or came earlier in the batch — exact, because
/// nothing is evicted within a batch — so the stream is what one `insert`
/// per observation would meet, however the cache folds the batch.
pub fn record_accesses(events: &mut EventBuffer, cache: &VoxelCache, batch: &[VoxelUpdate]) {
    // The batch's sampled voxels so far, by Morton code.
    let mut seen: HashSet<u64, BuildHasherDefault<CodeHasher>> = HashSet::default();
    events.emit_cache_run(batch.iter().filter(|u| sampled(u.key)).map(|u| {
        let code = morton::encode(u.key);
        let hit = !seen.insert(code) || cache.peek_coded(code).is_some();
        let kind = if hit {
            EventKind::CacheHit
        } else {
            EventKind::CacheMiss
        };
        (kind, code, cache.bucket_of_code(code) as u32)
    }));
}

/// Records one `CacheEvict` per sampled cell `cache` handed back from
/// an eviction pass or a drain, in the order it handed them (Morton order).
pub fn record_evictions(events: &mut EventBuffer, cache: &VoxelCache, cells: &[EvictedCell]) {
    events.emit_cache_run(cells.iter().filter(|c| sampled(c.key)).map(|c| {
        let code = morton::encode(c.key);
        (
            EventKind::CacheEvict,
            code,
            cache.bucket_of_code(code) as u32,
        )
    }));
}
