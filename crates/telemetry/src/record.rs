//! The per-scan trace event emitted by every mapping backend.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::phase::PhaseTimes;

/// Everything one `insert_scan` call did, in one flat event.
///
/// Every backend emits the same schema; fields that do not apply to a
/// backend stay zero (e.g. queue depths on the serial backend). A recorded
/// run is a JSONL stream of these, one per line — see
/// [`crate::write_jsonl`] / [`crate::read_jsonl`] and [`crate::TraceSummary`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScanRecord {
    /// Scan index within the run (0-based, assigned by
    /// [`crate::Telemetry`]).
    pub seq: u64,
    /// Backend name (e.g. `octocache-serial`), assigned by
    /// [`crate::Telemetry`].
    pub backend: String,
    /// Per-phase wall-clock durations of this scan.
    pub times: PhaseTimes,
    /// Voxel observations produced by ray tracing this scan.
    pub observations: u64,
    /// Observations absorbed by the cache (hits).
    pub cache_hits: u64,
    /// Cache misses (entry allocated / octree fall-through).
    pub cache_misses: u64,
    /// Cache insertions performed.
    pub cache_insertions: u64,
    /// Cells evicted from the cache to the octree this scan.
    pub cache_evictions: u64,
    /// Octree nodes visited (descents) this scan.
    pub octree_node_visits: u64,
    /// The share of `octree_node_visits` paid seeding cache misses from the
    /// octree: nodes the seeding read cursor descended into, whether or not
    /// the walk found a value (0 on the cache-less baselines).
    pub octree_seed_visits: u64,
    /// Octree leaf log-odds updates this scan.
    pub octree_leaf_updates: u64,
    /// Octree nodes created this scan.
    pub octree_nodes_created: u64,
    /// Bytes resident in the backend's octree storage after this scan
    /// O(1) to sample: it is the node pool's allocated capacity.
    pub memory_bytes: u64,
    /// SPSC queue depth sampled right after this scan's enqueue
    /// (parallel backend only).
    pub queue_depth_enqueue: u64,
    /// SPSC queue depth sampled by the worker when it dequeued a batch
    /// (parallel backend only).
    pub queue_depth_dequeue: u64,
    /// Time thread 1 spent blocked acquiring the octree mutex this scan
    /// (parallel backend only; the serial backends have no mutex).
    pub mutex_wait: Duration,
    /// Producer-side queue depth per worker right after this scan's
    /// hand-off (one element on the parallel backend, which has one
    /// worker; empty elsewhere).
    pub worker_queue_depths: Vec<u64>,
    /// Per-worker busy time (dequeue + octree update) attributed to this
    /// scan, in nanoseconds (one element on the parallel backend; empty
    /// elsewhere).
    pub worker_busy_ns: Vec<u64>,
    /// Per-worker idle time attributed to this scan, in nanoseconds
    /// (one element on the parallel backend; empty elsewhere).
    pub worker_idle_ns: Vec<u64>,
    /// Worker threads observed dead by panic during this scan (parallel
    /// backend; fault counters are deltas, zero on healthy scans).
    pub worker_panics: u64,
    /// Worker threads that failed to spawn (reported on the first scan).
    pub spawn_failures: u64,
    /// Bounded waits that expired into `QueueStalled` during this scan.
    pub stall_timeouts: u64,
    /// Batches left unapplied during this scan: a wedged worker held the
    /// octree mutex, so the inline apply could not run.
    pub partial_batches: u64,
    /// Batches applied inline on the producer because the worker was out of
    /// rotation.
    pub batches_rerouted: u64,
    /// True once the backend has left the intact state (any fault so far —
    /// sticky, unlike the per-scan counters above).
    pub degraded: bool,
    /// Dead workers respawned by the supervisor during this scan (delta).
    pub restarts: u64,
    /// Integrity transitions back to intact during this scan (delta).
    pub heals: u64,
    /// Time the supervisor spent respawning workers before this scan, in
    /// nanoseconds (thread spawn).
    pub restart_ns: u64,
    /// Scans shed by the admission gate or memory budget since the
    /// previous applied scan (shed scans get no record of their own; the
    /// next applied scan carries the count).
    pub sheds: u64,
    /// `"normal"` when a memory budget is configured (every recorded scan
    /// was admitted under it), empty otherwise. Traces written while the
    /// budget walked a pressure ladder may also carry `"elevated"`,
    /// `"critical"` or `"over-budget"`.
    pub pressure_level: String,
    /// Time to build and publish this scan's read snapshot, in nanoseconds
    /// (0 when no query handle is armed on the backend).
    pub snapshot_publish_ns: u64,
    /// Age of the snapshot this scan's publication replaced, in
    /// nanoseconds — the staleness concurrent readers had been accepting.
    pub snapshot_age_ns: u64,
    /// Snapshot batch-query lookups served by readers since the previous
    /// scan.
    pub batch_queries: u64,
    /// Octree nodes those batched lookups actually descended through.
    pub batch_nodes_visited: u64,
    /// Root-to-leaf path nodes Morton-adjacent batched lookups reused
    /// instead of re-descending (the read-path locality win).
    pub batch_nodes_reused: u64,
    /// Time spent journaling this scan before applying it, in nanoseconds
    /// (0 when the backend runs without a durability layer).
    pub journal_append_ns: u64,
    /// Time spent writing the periodic checkpoint that preceded this scan,
    /// in nanoseconds (0 on scans that triggered no checkpoint).
    pub checkpoint_write_ns: u64,
    /// Scan epoch of the newest durable checkpoint when this scan was
    /// journaled (0 when none or no durability layer).
    pub checkpoint_epoch: u64,
}

impl ScanRecord {
    /// Cache hit ratio of this scan (0 when it saw no observations).
    pub fn hit_ratio(&self) -> f64 {
        if self.observations == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.observations as f64
        }
    }

    /// Assembles the full per-scan record from the three metric groups the
    /// scan lifecycle produces: what the executor measured while running
    /// the scan, what the snapshot republish cost, and what the durability
    /// layer (if any) stamped for it.
    ///
    /// This is the **only** sanctioned way for a mapping backend to build a
    /// [`ScanRecord`] — backends report [`ScanMetrics`] and the engine fills
    /// in the rest, so the schema can grow without touching every backend.
    /// `seq` and `backend` stay at their defaults; [`crate::Telemetry`]
    /// stamps them on `record()`.
    pub fn assemble(
        scan: ScanMetrics,
        snapshot: SnapshotMetrics,
        durable: DurableMetrics,
    ) -> ScanRecord {
        ScanRecord {
            seq: 0,
            backend: String::new(),
            times: scan.times,
            observations: scan.observations,
            cache_hits: scan.cache_hits,
            cache_misses: scan.cache_misses,
            cache_insertions: scan.cache_insertions,
            cache_evictions: scan.cache_evictions,
            octree_node_visits: scan.octree_node_visits,
            octree_seed_visits: scan.octree_seed_visits,
            octree_leaf_updates: scan.octree_leaf_updates,
            octree_nodes_created: scan.octree_nodes_created,
            memory_bytes: scan.memory_bytes,
            queue_depth_enqueue: scan.queue_depth_enqueue,
            queue_depth_dequeue: scan.queue_depth_dequeue,
            mutex_wait: scan.mutex_wait,
            worker_queue_depths: scan.worker_queue_depths,
            worker_busy_ns: scan.worker_busy_ns,
            worker_idle_ns: scan.worker_idle_ns,
            worker_panics: scan.worker_panics,
            spawn_failures: scan.spawn_failures,
            stall_timeouts: scan.stall_timeouts,
            partial_batches: scan.partial_batches,
            batches_rerouted: scan.batches_rerouted,
            degraded: scan.degraded,
            restarts: scan.restarts,
            heals: scan.heals,
            restart_ns: scan.restart_ns,
            sheds: scan.sheds,
            pressure_level: scan.pressure_level,
            snapshot_publish_ns: snapshot.snapshot_publish_ns,
            snapshot_age_ns: snapshot.snapshot_age_ns,
            batch_queries: snapshot.batch_queries,
            batch_nodes_visited: snapshot.batch_nodes_visited,
            batch_nodes_reused: snapshot.batch_nodes_reused,
            journal_append_ns: durable.journal_append_ns,
            checkpoint_write_ns: durable.checkpoint_write_ns,
            checkpoint_epoch: durable.checkpoint_epoch,
        }
    }
}

/// What a scan executor measured while running one scan: the phase
/// timings plus every counter the execution strategy itself owns.
///
/// Field semantics mirror the identically named [`ScanRecord`] fields.
/// Fields that do not apply to an execution strategy stay at their
/// defaults — the serial backends leave the queue/worker group empty, the
/// cache-less baselines leave the cache group zero. The snapshot and
/// durability groups are deliberately *absent*: those belong to the engine
/// ([`SnapshotMetrics`], [`DurableMetrics`]), not to executors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanMetrics {
    /// Per-phase wall-clock durations of this scan.
    pub times: PhaseTimes,
    /// Voxel observations produced by ray tracing this scan.
    pub observations: u64,
    /// Observations absorbed by the cache (hits).
    pub cache_hits: u64,
    /// Cache misses (entry allocated / octree fall-through).
    pub cache_misses: u64,
    /// Cache insertions performed.
    pub cache_insertions: u64,
    /// Cells evicted from the cache to the octree this scan.
    pub cache_evictions: u64,
    /// Octree nodes visited (descents) this scan.
    pub octree_node_visits: u64,
    /// Of those, the nodes the miss-seeding read cursor descended into.
    pub octree_seed_visits: u64,
    /// Octree leaf log-odds updates this scan.
    pub octree_leaf_updates: u64,
    /// Octree nodes created this scan.
    pub octree_nodes_created: u64,
    /// Bytes resident in the backend's octree storage after this scan.
    pub memory_bytes: u64,
    /// SPSC queue depth sampled right after this scan's enqueue.
    pub queue_depth_enqueue: u64,
    /// SPSC queue depth sampled by the worker at the first dequeue.
    pub queue_depth_dequeue: u64,
    /// Time spent blocked acquiring the octree mutex this scan.
    pub mutex_wait: Duration,
    /// Largest producer-side queue depth seen per worker this scan.
    pub worker_queue_depths: Vec<u64>,
    /// Per-worker busy nanoseconds attributed to this scan.
    pub worker_busy_ns: Vec<u64>,
    /// Per-worker idle nanoseconds attributed to this scan.
    pub worker_idle_ns: Vec<u64>,
    /// Worker threads observed dead by panic during this scan.
    pub worker_panics: u64,
    /// Worker threads that failed to spawn (reported on the first scan).
    pub spawn_failures: u64,
    /// Bounded waits that expired into a stall fault during this scan.
    pub stall_timeouts: u64,
    /// Batches left unapplied during this scan: a wedged worker held the
    /// octree mutex, so the inline apply could not run.
    pub partial_batches: u64,
    /// Batches applied inline because the worker was out of rotation.
    pub batches_rerouted: u64,
    /// True once the backend has left the intact state.
    pub degraded: bool,
    /// Dead workers respawned by the supervisor during this scan (delta).
    pub restarts: u64,
    /// Integrity transitions back to intact during this scan (delta).
    pub heals: u64,
    /// Nanoseconds spent respawning workers before this scan.
    pub restart_ns: u64,
    /// Scans shed since the previous applied scan (stamped by the engine;
    /// executors leave it zero).
    pub sheds: u64,
    /// `"normal"` under a memory budget (stamped by the engine; executors
    /// leave it empty).
    pub pressure_level: String,
}

/// What one snapshot republish cost, measured by the engine around the
/// executor: publish latency, the staleness of the snapshot replaced, and
/// the reader-side batch-query counters drained at the publish boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotMetrics {
    /// Time to build and publish this scan's read snapshot, in nanoseconds.
    pub snapshot_publish_ns: u64,
    /// Age of the snapshot this publication replaced, in nanoseconds.
    pub snapshot_age_ns: u64,
    /// Snapshot batch-query lookups served by readers since the previous
    /// scan.
    pub batch_queries: u64,
    /// Octree nodes those batched lookups actually descended through.
    pub batch_nodes_visited: u64,
    /// Root-to-leaf path nodes Morton-adjacent batched lookups reused.
    pub batch_nodes_reused: u64,
}

/// What the durability layer did for the scan about to be recorded —
/// stamped onto the engine via `MappingSystem::stamp_durable` *before* the
/// scan is applied (write-ahead ordering), and folded into the record at
/// assembly. All zeros when no durability layer wraps the backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableMetrics {
    /// Time spent journaling this scan before applying it, in nanoseconds.
    pub journal_append_ns: u64,
    /// Time spent writing the periodic checkpoint that preceded this scan,
    /// in nanoseconds.
    pub checkpoint_write_ns: u64,
    /// Scan epoch of the newest durable checkpoint when this scan was
    /// journaled.
    pub checkpoint_epoch: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_round_trip() {
        let r = ScanRecord {
            seq: 7,
            backend: "octocache-parallel".to_string(),
            times: PhaseTimes {
                ray_tracing: Duration::from_micros(120),
                wait: Duration::from_nanos(35),
                ..Default::default()
            },
            observations: 4096,
            cache_hits: 3000,
            cache_misses: 1096,
            cache_insertions: 4096,
            cache_evictions: 800,
            octree_node_visits: 12_000,
            octree_seed_visits: 4_000,
            octree_leaf_updates: 800,
            octree_nodes_created: 20,
            memory_bytes: 1_234_567,
            queue_depth_enqueue: 3,
            queue_depth_dequeue: 1,
            mutex_wait: Duration::from_nanos(90),
            worker_queue_depths: vec![3, 1],
            worker_busy_ns: vec![900, 450],
            worker_idle_ns: vec![10, 460],
            worker_panics: 1,
            spawn_failures: 0,
            stall_timeouts: 2,
            partial_batches: 1,
            batches_rerouted: 3,
            degraded: true,
            restarts: 1,
            heals: 1,
            restart_ns: 42_000,
            sheds: 2,
            pressure_level: "elevated".to_string(),
            snapshot_publish_ns: 52_000,
            snapshot_age_ns: 1_400_000,
            batch_queries: 256,
            batch_nodes_visited: 700,
            batch_nodes_reused: 3_400,
            journal_append_ns: 8_500,
            checkpoint_write_ns: 1_200_000,
            checkpoint_epoch: 64,
        };
        let json = serde::json::to_string(&r);
        let back: ScanRecord = serde::json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert!((back.hit_ratio() - 3000.0 / 4096.0).abs() < 1e-12);
    }

    #[test]
    fn hit_ratio_handles_empty_scan() {
        assert_eq!(ScanRecord::default().hit_ratio(), 0.0);
    }

    #[test]
    fn assemble_covers_every_field() {
        let scan = ScanMetrics {
            times: PhaseTimes {
                ray_tracing: Duration::from_micros(10),
                ..Default::default()
            },
            observations: 100,
            cache_hits: 60,
            cache_misses: 40,
            cache_insertions: 100,
            cache_evictions: 12,
            octree_node_visits: 320,
            octree_seed_visits: 110,
            octree_leaf_updates: 12,
            octree_nodes_created: 3,
            memory_bytes: 4096,
            queue_depth_enqueue: 2,
            queue_depth_dequeue: 1,
            mutex_wait: Duration::from_nanos(7),
            worker_queue_depths: vec![2],
            worker_busy_ns: vec![500],
            worker_idle_ns: vec![20],
            worker_panics: 0,
            spawn_failures: 0,
            stall_timeouts: 0,
            partial_batches: 0,
            batches_rerouted: 0,
            degraded: false,
            restarts: 2,
            heals: 1,
            restart_ns: 6_000,
            sheds: 3,
            pressure_level: "critical".to_string(),
        };
        let snapshot = SnapshotMetrics {
            snapshot_publish_ns: 900,
            snapshot_age_ns: 40,
            batch_queries: 8,
            batch_nodes_visited: 24,
            batch_nodes_reused: 16,
        };
        let durable = DurableMetrics {
            journal_append_ns: 1_000,
            checkpoint_write_ns: 2_000,
            checkpoint_epoch: 5,
        };
        let r = ScanRecord::assemble(scan.clone(), snapshot, durable);
        // Telemetry stamps these two on record().
        assert_eq!(r.seq, 0);
        assert!(r.backend.is_empty());
        assert_eq!(r.times, scan.times);
        assert_eq!(r.observations, 100);
        assert_eq!(r.cache_hits, 60);
        assert_eq!(r.octree_seed_visits, 110);
        assert_eq!(r.memory_bytes, 4096);
        assert_eq!(r.worker_busy_ns, vec![500]);
        assert_eq!(r.snapshot_publish_ns, 900);
        assert_eq!(r.batch_nodes_reused, 16);
        assert_eq!(r.journal_append_ns, 1_000);
        assert_eq!(r.checkpoint_epoch, 5);
        assert_eq!(r.restarts, 2);
        assert_eq!(r.heals, 1);
        assert_eq!(r.restart_ns, 6_000);
        assert_eq!(r.sheds, 3);
        assert_eq!(r.pressure_level, "critical");
        // The default groups assemble to the default record.
        assert_eq!(
            ScanRecord::assemble(
                ScanMetrics::default(),
                SnapshotMetrics::default(),
                DurableMetrics::default()
            ),
            ScanRecord::default()
        );
    }
}
