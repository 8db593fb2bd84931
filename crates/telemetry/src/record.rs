//! The per-scan trace event emitted by every mapping backend.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::phase::PhaseTimes;

/// Everything one `insert_scan` call did, in one flat event.
///
/// Every backend emits the same schema; fields that do not apply to a
/// backend stay zero (e.g. queue depths on the serial backend). It is the
/// one per-scan struct: the scan-lifecycle engine owns the next scan's
/// record, each layer writes its own fields into it in place (supervisor
/// sheds, durable stamps, the executor's measurements, the publish cost),
/// and the engine hands it to [`crate::Telemetry::record`]. A recorded run
/// is a JSONL stream of these, one per line — see
/// [`crate::JsonlRecorder`], [`crate::read_jsonl_prefix_path`] and
/// [`crate::TraceSummary`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScanRecord {
    /// Scan index within the run (0-based, assigned by
    /// [`crate::Telemetry`]); a trailing record carries the index the next
    /// scan would have had.
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
    /// next applied scan carries the count, and refusals after the last one
    /// ride a trailing record with no observations).
    pub sheds: u64,
    /// True on the one record that carries no scan: the refusals after
    /// the last applied scan, recorded at `finish`
    /// ([`crate::Telemetry::record_trailing`]). Absent, and so false, in
    /// traces written before it existed.
    #[serde(default)]
    pub trailing: bool,
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
            trailing: false,
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
}
