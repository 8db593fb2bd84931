//! The per-scan trace event emitted by every mapping backend.

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
    /// Bytes the backend's octree storage holds after this scan: its
    /// pools' live entries and free lists, not their spare capacity.
    pub memory_bytes: u64,
    /// Batches this scan handed to an octree thread: 1, or 0 when the
    /// spawn failed (parallel backend only).
    pub queue_depth_enqueue: u64,
    /// Batches the octree thread took this scan, as `queue_depth_enqueue`
    /// (parallel backend only).
    pub queue_depth_dequeue: u64,
    /// `queue_depth_enqueue` per octree thread (one element on the
    /// parallel backend, which has one; empty elsewhere).
    pub worker_queue_depths: Vec<u64>,
    /// Per-thread busy time (dequeue + octree update) of the batch this
    /// scan applied, in nanoseconds (one element on the parallel backend;
    /// empty elsewhere).
    pub worker_busy_ns: Vec<u64>,
    /// Per-thread idle time: the scan's wall time minus
    /// `worker_busy_ns`, in nanoseconds (one element on the parallel
    /// backend; empty elsewhere).
    pub worker_idle_ns: Vec<u64>,
    /// Octree threads that panicked during this scan (parallel backend;
    /// fault counters are deltas, zero on healthy scans).
    pub worker_panics: u64,
    /// Octree threads that failed to spawn during this scan.
    pub spawn_failures: u64,
    /// Batches applied inline on the caller's thread after a panic or a
    /// failed spawn.
    pub batches_rerouted: u64,
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
    use std::time::Duration;

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
            worker_queue_depths: vec![3, 1],
            worker_busy_ns: vec![900, 450],
            worker_idle_ns: vec![10, 460],
            worker_panics: 1,
            spawn_failures: 0,
            batches_rerouted: 3,
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
