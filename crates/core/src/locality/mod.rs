//! The tree-distance locality functional 𝓕(S) and voxel ordering strategies
//! (paper §4.3 and Figure 10).
//!
//! For a sequence `S = a₁ … a_N` of leaf voxels, the paper defines
//!
//! ```text
//! 𝓕(S) = D(a₁,a₂) + D(a₂,a₃) + … + D(a_{N−1},a_N)
//! ```
//!
//! where `D(a,b)` is the shortest-path distance between the two leaves in the
//! octree — twice the height of their closest common ancestor. Smaller 𝓕
//! means consecutive insertions share more of the root-to-leaf path, which
//! stays hot in the CPU cache; the paper's main theorem states that ordering
//! by Morton code minimises 𝓕. [`morton_is_optimal_for`] verifies the theorem
//! exhaustively on small inputs and is exercised by this module's tests.

use octocache_geom::{morton, VoxelKey};

/// Computes 𝓕(S): the summed tree distance between consecutive voxels.
///
/// `depth` is the octree depth (common-ancestor heights saturate there).
///
/// # Example
///
/// ```
/// # use octocache::locality::locality_f;
/// # use octocache_geom::VoxelKey;
/// let siblings = [VoxelKey::new(0, 0, 0), VoxelKey::new(1, 0, 0)];
/// assert_eq!(locality_f(&siblings, 16), 2); // one hop up, one down
/// ```
pub fn locality_f(sequence: &[VoxelKey], depth: u8) -> u64 {
    sequence
        .windows(2)
        .map(|w| w[0].tree_distance(w[1], depth) as u64)
        .sum()
}

/// The voxel orderings evaluated in the paper's Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoxelOrder {
    /// Leave the sequence as produced (the "original order in OctoMap
    /// generated from ray tracing").
    Original,
    /// Uniform random shuffle with the given seed (the paper's worst case).
    Random {
        /// Shuffle seed, for reproducibility.
        seed: u64,
    },
    /// Lexicographic sort by (x, y, z).
    AxisX,
    /// Lexicographic sort by (y, z, x).
    AxisY,
    /// Lexicographic sort by (z, x, y).
    AxisZ,
    /// Ascending Morton code — the paper's optimal order.
    Morton,
}

impl VoxelOrder {
    /// All orders, in the presentation order of Figure 10.
    pub const ALL: [VoxelOrder; 6] = [
        VoxelOrder::Random { seed: 7 },
        VoxelOrder::AxisX,
        VoxelOrder::AxisY,
        VoxelOrder::AxisZ,
        VoxelOrder::Original,
        VoxelOrder::Morton,
    ];

    /// A short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            VoxelOrder::Original => "original",
            VoxelOrder::Random { .. } => "random",
            VoxelOrder::AxisX => "sort-x",
            VoxelOrder::AxisY => "sort-y",
            VoxelOrder::AxisZ => "sort-z",
            VoxelOrder::Morton => "morton",
        }
    }

    /// Rearranges `keys` in place according to this order.
    pub fn apply(&self, keys: &mut [VoxelKey]) {
        match self {
            VoxelOrder::Original => {}
            VoxelOrder::Random { seed } => shuffle(keys, *seed),
            VoxelOrder::AxisX => keys.sort_unstable_by_key(|k| (k.x, k.y, k.z)),
            VoxelOrder::AxisY => keys.sort_unstable_by_key(|k| (k.y, k.z, k.x)),
            VoxelOrder::AxisZ => keys.sort_unstable_by_key(|k| (k.z, k.x, k.y)),
            VoxelOrder::Morton => keys.sort_unstable_by_key(|k| morton::encode(*k)),
        }
    }
}

/// Fisher–Yates shuffle driven by a SplitMix64 stream (self-contained so the
/// core crate needs no RNG dependency).
fn shuffle(keys: &mut [VoxelKey], seed: u64) {
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..keys.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        keys.swap(i, j);
    }
}

/// Exhaustively checks the paper's main theorem on a small voxel set:
/// no permutation of `keys` achieves a strictly smaller 𝓕 than the
/// Morton-sorted order. Returns the Morton 𝓕 and the true minimum.
///
/// Intended for tests and the documentation of the theorem; the search is
/// `O(n!)`, so `keys.len()` must be at most 8.
///
/// # Panics
///
/// Panics when given more than 8 keys.
pub fn morton_is_optimal_for(keys: &[VoxelKey], depth: u8) -> (u64, u64) {
    assert!(keys.len() <= 8, "exhaustive search limited to 8 keys");
    let mut morton_sorted = keys.to_vec();
    VoxelOrder::Morton.apply(&mut morton_sorted);
    let morton_f = locality_f(&morton_sorted, depth);

    let mut best = u64::MAX;
    let mut perm = keys.to_vec();
    permute(&mut perm, 0, depth, &mut best);
    (morton_f, best)
}

fn permute(keys: &mut [VoxelKey], start: usize, depth: u8, best: &mut u64) {
    if start == keys.len() {
        *best = (*best).min(locality_f(keys, depth));
        return;
    }
    for i in start..keys.len() {
        keys.swap(start, i);
        permute(keys, start + 1, depth, best);
        keys.swap(start, i);
    }
}

/// Summary of 𝓕 across the standard orders for one key set — handy for the
/// Figure 10 bench and for reports.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderReport {
    /// (order label, 𝓕 value) pairs in [`VoxelOrder::ALL`] order.
    pub entries: Vec<(&'static str, u64)>,
}

/// Computes 𝓕 for every standard order applied to `keys`.
pub fn order_report(keys: &[VoxelKey], depth: u8) -> OrderReport {
    let entries = VoxelOrder::ALL
        .iter()
        .map(|order| {
            let mut v = keys.to_vec();
            order.apply(&mut v);
            (order.label(), locality_f(&v, depth))
        })
        .collect();
    OrderReport { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octocache_geom::VoxelGrid;
    use octocache_octomap::{OccupancyOcTree, OccupancyParams};
    use proptest::prelude::*;

    fn keys_from(coords: &[(u16, u16, u16)]) -> Vec<VoxelKey> {
        coords
            .iter()
            .map(|&(x, y, z)| VoxelKey::new(x, y, z))
            .collect()
    }

    #[test]
    fn f_of_short_sequences() {
        assert_eq!(locality_f(&[], 16), 0);
        assert_eq!(locality_f(&keys_from(&[(1, 2, 3)]), 16), 0);
        // Two identical keys: distance 0.
        assert_eq!(locality_f(&keys_from(&[(1, 2, 3), (1, 2, 3)]), 16), 0);
        // Siblings: distance 2.
        assert_eq!(locality_f(&keys_from(&[(0, 0, 0), (1, 0, 0)]), 16), 2);
    }

    #[test]
    fn morton_beats_or_ties_other_orders() {
        // A 4x4x2 block of voxels.
        let keys: Vec<VoxelKey> = (0..4u16)
            .flat_map(|x| {
                (0..4u16).flat_map(move |y| (0..2u16).map(move |z| VoxelKey::new(x, y, z)))
            })
            .collect();
        let report = order_report(&keys, 16);
        let morton_f = report
            .entries
            .iter()
            .find(|(l, _)| *l == "morton")
            .unwrap()
            .1;
        for (label, f) in &report.entries {
            assert!(
                morton_f <= *f,
                "morton {} should not exceed {} ({})",
                morton_f,
                f,
                label
            );
        }
    }

    #[test]
    fn theorem_exhaustive_on_sibling_octant() {
        // All 8 children of one parent: Morton must hit the global optimum.
        let keys: Vec<VoxelKey> = (0..8u16)
            .map(|c| VoxelKey::new(c & 1, (c >> 1) & 1, (c >> 2) & 1))
            .collect();
        let (morton_f, best) = morton_is_optimal_for(&keys, 16);
        assert_eq!(morton_f, best);
        // 7 sibling transitions at distance 2 each.
        assert_eq!(morton_f, 14);
    }

    #[test]
    fn theorem_exhaustive_on_spread_keys() {
        let keys = keys_from(&[
            (0, 0, 0),
            (1, 0, 0),
            (0, 4, 0),
            (5, 5, 5),
            (2, 2, 2),
            (7, 0, 3),
        ]);
        let (morton_f, best) = morton_is_optimal_for(&keys, 16);
        assert_eq!(morton_f, best, "morton order must minimise F");
    }

    #[test]
    #[should_panic(expected = "exhaustive search limited")]
    fn exhaustive_guard() {
        let keys = vec![VoxelKey::default(); 9];
        morton_is_optimal_for(&keys, 16);
    }

    #[test]
    fn orders_are_permutations() {
        let keys: Vec<VoxelKey> = (0..50u16).map(|i| VoxelKey::new(i, i / 3, i / 7)).collect();
        for order in VoxelOrder::ALL {
            let mut v = keys.clone();
            order.apply(&mut v);
            let mut a = keys.clone();
            let mut b = v.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{} is not a permutation", order.label());
        }
    }

    #[test]
    fn shuffle_is_deterministic_per_seed() {
        let keys: Vec<VoxelKey> = (0..20u16).map(|i| VoxelKey::new(i, 0, 0)).collect();
        let mut a = keys.clone();
        let mut b = keys.clone();
        VoxelOrder::Random { seed: 42 }.apply(&mut a);
        VoxelOrder::Random { seed: 42 }.apply(&mut b);
        assert_eq!(a, b);
        let mut c = keys.clone();
        VoxelOrder::Random { seed: 43 }.apply(&mut c);
        assert_ne!(a, c, "different seeds should (almost surely) differ");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The theorem: Morton order achieves the exhaustive minimum of 𝓕
        /// for any random small key set.
        #[test]
        fn prop_morton_minimises_f(
            coords in proptest::collection::hash_set((0u16..16, 0u16..16, 0u16..16), 2..7)
        ) {
            let keys = keys_from(&coords.into_iter().collect::<Vec<_>>());
            let (morton_f, best) = morton_is_optimal_for(&keys, 16);
            prop_assert_eq!(morton_f, best);
        }

        /// The theorem against the real octree, not only the functional:
        /// on a fresh tree where nothing expands or prunes (distinct values,
        /// so no eight siblings ever agree), one eviction batch costs
        /// exactly 𝓕(S) plus one root-to-leaf round trip in node visits —
        /// so the Morton order of a key set is the cheapest of the six
        /// orders to apply.
        #[test]
        fn prop_batch_visits_are_f_plus_one_round_trip(
            coords in proptest::collection::hash_set((0u16..64, 0u16..64, 0u16..64), 2..80)
        ) {
            let grid = VoxelGrid::new(0.1, 16).unwrap();
            let keys = keys_from(&coords.into_iter().collect::<Vec<_>>());
            let visits = |order: VoxelOrder| {
                let mut ordered = keys.clone();
                order.apply(&mut ordered);
                let mut tree = OccupancyOcTree::new(grid, OccupancyParams::default());
                let cells = ordered.iter().enumerate().map(|(i, k)| (*k, i as f32 * 0.01));
                tree.set_log_odds_batch(cells);
                let stats = tree.stats().snapshot();
                assert_eq!((stats.expansions, stats.prunes), (0, 0));
                (stats.node_visits, locality_f(&ordered, grid.depth()))
            };
            let (morton_visits, _) = visits(VoxelOrder::Morton);
            for order in VoxelOrder::ALL {
                let (node_visits, f) = visits(order);
                prop_assert_eq!(node_visits, f + 2 * grid.depth() as u64 + 1, "{}", order.label());
                prop_assert!(morton_visits <= node_visits, "{} beats morton", order.label());
            }
        }

        /// 𝓕 is invariant under sequence reversal.
        #[test]
        fn prop_f_reversal_invariant(
            coords in proptest::collection::vec((0u16..64, 0u16..64, 0u16..64), 0..40)
        ) {
            let keys = keys_from(&coords);
            let mut rev = keys.clone();
            rev.reverse();
            prop_assert_eq!(locality_f(&keys, 16), locality_f(&rev, 16));
        }

        /// Morton sorting never increases 𝓕 relative to the identity order.
        #[test]
        fn prop_morton_never_worse_than_original(
            coords in proptest::collection::vec((0u16..256, 0u16..256, 0u16..256), 2..100)
        ) {
            let keys = keys_from(&coords);
            let mut sorted = keys.clone();
            VoxelOrder::Morton.apply(&mut sorted);
            prop_assert!(locality_f(&sorted, 16) <= locality_f(&keys, 16));
        }
    }
}

/// Machine-checked instances of the supplementary lemmas (A2–A6).
pub mod lemmas;
