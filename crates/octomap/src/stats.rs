//! Node-visit instrumentation.
//!
//! The paper's bottleneck analysis (§3.2) is about *memory accesses*: a voxel
//! update performs a root-to-leaf round trip, touching up to `2 × depth`
//! nodes. Wall-clock time on any particular host is a noisy proxy for that;
//! these counters record the node touches directly, giving a
//! hardware-independent signal that benches report alongside timings.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Counters accumulated by an [`OccupancyOcTree`](crate::OccupancyOcTree).
///
/// Interior-mutable (relaxed atomics) so that read-only operations like
/// queries can also be counted — including concurrent queries against an
/// immutable published snapshot, which is why the tree must stay `Sync`.
/// All accesses use `Ordering::Relaxed`: the counters are statistics, not
/// synchronisation, and on the write path the tree is behind `&mut self`
/// or a mutex anyway (paper §4.4), so relaxed increments cost the same as
/// the plain `Cell` stores they replaced.
#[derive(Debug, Default)]
pub struct TreeStats {
    node_visits: AtomicU64,
    nodes_created: AtomicU64,
    leaf_updates: AtomicU64,
    queries: AtomicU64,
    prunes: AtomicU64,
    expansions: AtomicU64,
}

impl TreeStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        TreeStats::default()
    }

    /// Total tree nodes touched (descent + unwind), the paper's
    /// memory-access proxy.
    pub fn node_visits(&self) -> u64 {
        self.node_visits.load(Ordering::Relaxed)
    }

    /// Nodes allocated.
    pub fn nodes_created(&self) -> u64 {
        self.nodes_created.load(Ordering::Relaxed)
    }

    /// Leaf-level occupancy updates applied.
    pub fn leaf_updates(&self) -> u64 {
        self.leaf_updates.load(Ordering::Relaxed)
    }

    /// Point queries served.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Prune operations performed.
    pub fn prunes(&self) -> u64 {
        self.prunes.load(Ordering::Relaxed)
    }

    /// Expansions of pruned nodes during descent.
    pub fn expansions(&self) -> u64 {
        self.expansions.load(Ordering::Relaxed)
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.node_visits.store(0, Ordering::Relaxed);
        self.nodes_created.store(0, Ordering::Relaxed);
        self.leaf_updates.store(0, Ordering::Relaxed);
        self.queries.store(0, Ordering::Relaxed);
        self.prunes.store(0, Ordering::Relaxed);
        self.expansions.store(0, Ordering::Relaxed);
    }

    /// Takes a copyable snapshot of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            node_visits: self.node_visits(),
            nodes_created: self.nodes_created(),
            leaf_updates: self.leaf_updates(),
            queries: self.queries(),
            prunes: self.prunes(),
            expansions: self.expansions(),
        }
    }

    #[inline]
    pub(crate) fn count_visit(&self) {
        self.node_visits.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_visits(&self, n: u64) {
        self.node_visits.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_created(&self) {
        self.nodes_created.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_leaf_update(&self) {
        self.leaf_updates.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_queries(&self, n: u64) {
        self.queries.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_prune(&self) {
        self.prunes.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_expansion(&self) {
        self.expansions.fetch_add(1, Ordering::Relaxed);
    }
}

/// A plain-data snapshot of [`TreeStats`], safe to move across threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Total tree nodes touched.
    pub node_visits: u64,
    /// Nodes allocated.
    pub nodes_created: u64,
    /// Leaf-level occupancy updates applied.
    pub leaf_updates: u64,
    /// Point queries served.
    pub queries: u64,
    /// Prune operations performed.
    pub prunes: u64,
    /// Expansions of pruned nodes during descent.
    pub expansions: u64,
}

impl StatsSnapshot {
    /// Difference between two snapshots (`self` minus the earlier `base`).
    pub fn since(&self, base: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            node_visits: self.node_visits - base.node_visits,
            nodes_created: self.nodes_created - base.nodes_created,
            leaf_updates: self.leaf_updates - base.leaf_updates,
            queries: self.queries - base.queries,
            prunes: self.prunes - base.prunes,
            expansions: self.expansions - base.expansions,
        }
    }

    /// Adds another snapshot's counters into `self` (aggregating runs).
    pub fn merge(&mut self, other: &StatsSnapshot) {
        self.node_visits += other.node_visits;
        self.nodes_created += other.nodes_created;
        self.leaf_updates += other.leaf_updates;
        self.queries += other.queries;
        self.prunes += other.prunes;
        self.expansions += other.expansions;
    }

    /// Average node visits per leaf update (the paper's per-voxel memory
    /// access count). Returns 0 when no updates occurred.
    pub fn visits_per_update(&self) -> f64 {
        if self.leaf_updates == 0 {
            0.0
        } else {
            self.node_visits as f64 / self.leaf_updates as f64
        }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "visits={} created={} updates={} queries={} prunes={} expansions={}",
            self.node_visits,
            self.nodes_created,
            self.leaf_updates,
            self.queries,
            self.prunes,
            self.expansions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = TreeStats::new();
        s.count_visit();
        s.count_visits(4);
        s.count_created();
        s.count_leaf_update();
        s.count_queries(1);
        s.count_prune();
        s.count_expansion();
        assert_eq!(s.node_visits(), 5);
        assert_eq!(s.nodes_created(), 1);
        assert_eq!(s.leaf_updates(), 1);
        assert_eq!(s.queries(), 1);
        assert_eq!(s.prunes(), 1);
        assert_eq!(s.expansions(), 1);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn snapshot_since_subtracts() {
        let s = TreeStats::new();
        s.count_visits(10);
        let base = s.snapshot();
        s.count_visits(7);
        s.count_leaf_update();
        let diff = s.snapshot().since(&base);
        assert_eq!(diff.node_visits, 7);
        assert_eq!(diff.leaf_updates, 1);
    }

    #[test]
    fn snapshot_merge_adds_and_serde_round_trips() {
        let mut a = StatsSnapshot {
            node_visits: 10,
            leaf_updates: 2,
            ..Default::default()
        };
        let b = StatsSnapshot {
            node_visits: 5,
            nodes_created: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.node_visits, 15);
        assert_eq!(a.nodes_created, 3);
        assert_eq!(a.leaf_updates, 2);
        let back: StatsSnapshot = serde::json::from_str(&serde::json::to_string(&a)).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn visits_per_update_handles_zero() {
        assert_eq!(StatsSnapshot::default().visits_per_update(), 0.0);
        let s = StatsSnapshot {
            node_visits: 32,
            leaf_updates: 2,
            ..Default::default()
        };
        assert_eq!(s.visits_per_update(), 16.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!StatsSnapshot::default().to_string().is_empty());
    }
}
