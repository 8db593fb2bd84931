//! Executable instances of the lemmas behind the paper's §4.3 main theorem.
//!
//! The paper proves Morton-order optimality through Lemmas A2–A6 (deferred
//! to its supplementary material). This module states each lemma as a
//! checkable predicate over concrete voxel keys and verifies them by
//! property-based testing — a machine-checked companion to the paper-proof:
//!
//! * **A2** — for any three leaves, their three pairwise closest common
//!   ancestors comprise at most two distinct nodes.
//! * **A3** — for any three leaves, the three pairwise tree distances take
//!   at most two distinct values (with the two largest equal — the
//!   ultrametric triangle).
//! * **A4** — for two distinct nodes at the same level, every
//!   cross-descendant leaf pair has one fixed distance, strictly larger
//!   than any intra-descendant distance.
//! * **A5/A6** — in an 𝓕-optimal sequence, the descendants of any node are
//!   contiguous (verified on exhaustively optimised small sequences).

use octocache_geom::VoxelKey;

/// A node of the implicit tree, identified by its level and the ancestor
/// key (low `level` bits cleared).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeNode {
    /// Levels above the leaves.
    pub level: u8,
    /// Minimum-corner key of the node's cube.
    pub key: VoxelKey,
}

/// The closest common ancestor of two leaves as a [`TreeNode`].
pub(crate) fn common_ancestor(a: VoxelKey, b: VoxelKey, depth: u8) -> TreeNode {
    let level = a.common_ancestor_level(b, depth);
    TreeNode {
        level,
        key: a.ancestor_at(level),
    }
}

/// Lemma A2: `A(a,b)`, `A(a,c)`, `A(b,c)` are at most two distinct nodes.
pub(crate) fn lemma_a2(a: VoxelKey, b: VoxelKey, c: VoxelKey, depth: u8) -> bool {
    let ab = common_ancestor(a, b, depth);
    let ac = common_ancestor(a, c, depth);
    let bc = common_ancestor(b, c, depth);
    let mut distinct = vec![ab];
    if !distinct.contains(&ac) {
        distinct.push(ac);
    }
    if !distinct.contains(&bc) {
        distinct.push(bc);
    }
    distinct.len() <= 2
}

/// Lemma A3: the three pairwise tree distances take at most two distinct
/// values, and the two largest are equal (the ultrametric property).
pub(crate) fn lemma_a3(a: VoxelKey, b: VoxelKey, c: VoxelKey, depth: u8) -> bool {
    let mut d = [
        a.tree_distance(b, depth),
        a.tree_distance(c, depth),
        b.tree_distance(c, depth),
    ];
    d.sort_unstable();
    // At most two distinct values…
    let distinct = if d[0] == d[1] || d[1] == d[2] { 2 } else { 3 };
    // …and the two largest equal.
    distinct <= 2 && d[1] == d[2]
}

/// Lemma A4: for two *distinct* ancestors `a`, `b` at the same `level`,
/// every cross pair of descendant leaves has the same distance, strictly
/// larger than every intra-`a` pair distance. Verified over the given
/// descendant samples (must actually descend from the stated ancestors).
pub(crate) fn lemma_a4(
    a_descendants: &[VoxelKey],
    b_descendants: &[VoxelKey],
    level: u8,
    depth: u8,
) -> bool {
    let Some(&a0) = a_descendants.first() else {
        return true;
    };
    let Some(&b0) = b_descendants.first() else {
        return true;
    };
    debug_assert!(a_descendants
        .iter()
        .all(|k| k.ancestor_at(level) == a0.ancestor_at(level)));
    debug_assert!(b_descendants
        .iter()
        .all(|k| k.ancestor_at(level) == b0.ancestor_at(level)));
    debug_assert_ne!(a0.ancestor_at(level), b0.ancestor_at(level));

    let cross_distance = a0.tree_distance(b0, depth);
    for &a in a_descendants {
        for &b in b_descendants {
            if a.tree_distance(b, depth) != cross_distance {
                return false;
            }
        }
    }
    for (i, &x) in a_descendants.iter().enumerate() {
        for &y in &a_descendants[i + 1..] {
            if x != y && x.tree_distance(y, depth) >= cross_distance {
                return false;
            }
        }
    }
    true
}

/// Lemma A6 (which subsumes A5's conclusion): in a sequence, for every
/// ancestor level, keys sharing an ancestor appear contiguously.
pub(crate) fn descendants_contiguous(sequence: &[VoxelKey], depth: u8) -> bool {
    for level in 1..=depth {
        let mut seen: Vec<VoxelKey> = Vec::new();
        let mut current: Option<VoxelKey> = None;
        for key in sequence {
            let anc = key.ancestor_at(level);
            match current {
                Some(c) if c == anc => {}
                _ => {
                    if seen.contains(&anc) {
                        return false; // ancestor group resumed after a gap
                    }
                    seen.push(anc);
                    current = Some(anc);
                }
            }
        }
    }
    true
}

/// All 𝓕-optimal orderings of a small key set (exhaustive; `keys.len()`
/// must be at most 8).
///
/// # Panics
///
/// Panics when given more than 8 keys.
pub(crate) fn optimal_sequences(keys: &[VoxelKey], depth: u8) -> Vec<Vec<VoxelKey>> {
    assert!(keys.len() <= 8, "exhaustive search limited to 8 keys");
    let mut best = u64::MAX;
    let mut optima: Vec<Vec<VoxelKey>> = Vec::new();
    let mut perm = keys.to_vec();
    fn recurse(
        keys: &mut Vec<VoxelKey>,
        start: usize,
        depth: u8,
        best: &mut u64,
        optima: &mut Vec<Vec<VoxelKey>>,
    ) {
        if start == keys.len() {
            let f = super::locality_f(keys, depth);
            match f.cmp(best) {
                std::cmp::Ordering::Less => {
                    *best = f;
                    optima.clear();
                    optima.push(keys.clone());
                }
                std::cmp::Ordering::Equal => optima.push(keys.clone()),
                std::cmp::Ordering::Greater => {}
            }
            return;
        }
        for i in start..keys.len() {
            keys.swap(start, i);
            recurse(keys, start + 1, depth, best, optima);
            keys.swap(start, i);
        }
    }
    recurse(&mut perm, 0, depth, &mut best, &mut optima);
    optima
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_key16() -> impl Strategy<Value = VoxelKey> {
        (0u16..16, 0u16..16, 0u16..16).prop_map(|(x, y, z)| VoxelKey::new(x, y, z))
    }

    #[test]
    fn lemma_a2_concrete() {
        // Two siblings and a distant leaf: A(a,b) is the parent; A(a,c) and
        // A(b,c) coincide higher up.
        let a = VoxelKey::new(0, 0, 0);
        let b = VoxelKey::new(1, 0, 0);
        let c = VoxelKey::new(8, 8, 8);
        assert!(lemma_a2(a, b, c, 16));
        let ab = common_ancestor(a, b, 16);
        let ac = common_ancestor(a, c, 16);
        let bc = common_ancestor(b, c, 16);
        assert_eq!(ab.level, 1);
        assert_eq!(ac, bc);
    }

    #[test]
    fn lemma_a3_concrete() {
        let a = VoxelKey::new(0, 0, 0);
        let b = VoxelKey::new(1, 0, 0);
        let c = VoxelKey::new(8, 8, 8);
        assert!(lemma_a3(a, b, c, 16));
        assert_eq!(a.tree_distance(c, 16), b.tree_distance(c, 16));
    }

    #[test]
    fn lemma_a4_concrete() {
        // Ancestors at level 2: blocks [0,4) and [4,8) on x.
        let a_desc: Vec<VoxelKey> = (0..4u16).map(|x| VoxelKey::new(x, 0, 0)).collect();
        let b_desc: Vec<VoxelKey> = (4..8u16).map(|x| VoxelKey::new(x, 0, 0)).collect();
        assert!(lemma_a4(&a_desc, &b_desc, 2, 16));
    }

    #[test]
    fn contiguity_checker_detects_violation() {
        // a, c share the level-1 parent; b does not. a,b,c is a violation.
        let a = VoxelKey::new(0, 0, 0);
        let c = VoxelKey::new(1, 0, 0);
        let b = VoxelKey::new(4, 4, 4);
        assert!(descendants_contiguous(&[a, c, b], 16));
        assert!(!descendants_contiguous(&[a, b, c], 16));
    }

    #[test]
    fn morton_order_satisfies_a6() {
        let mut keys: Vec<VoxelKey> = (0..4u16)
            .flat_map(|x| (0..4u16).map(move |y| VoxelKey::new(x, y, 1)))
            .collect();
        super::super::VoxelOrder::Morton.apply(&mut keys);
        assert!(descendants_contiguous(&keys, 16));
    }

    #[test]
    fn all_optima_of_small_sets_satisfy_a6() {
        let keys = [
            VoxelKey::new(0, 0, 0),
            VoxelKey::new(1, 0, 0),
            VoxelKey::new(4, 4, 0),
            VoxelKey::new(5, 4, 0),
            VoxelKey::new(2, 2, 2),
        ];
        let optima = optimal_sequences(&keys, 16);
        assert!(!optima.is_empty());
        for seq in &optima {
            assert!(
                descendants_contiguous(seq, 16),
                "optimal sequence violates A6: {seq:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_lemma_a2(a in arb_key16(), b in arb_key16(), c in arb_key16()) {
            prop_assert!(lemma_a2(a, b, c, 16));
        }

        #[test]
        fn prop_lemma_a3(a in arb_key16(), b in arb_key16(), c in arb_key16()) {
            prop_assert!(lemma_a3(a, b, c, 16));
        }

        #[test]
        fn prop_lemma_a4(
            ax in 0u16..4, ay in 0u16..4,
            offsets in proptest::collection::vec((0u16..4, 0u16..4, 0u16..4), 1..6),
        ) {
            // Two distinct level-2 ancestors: (4ax, 4ay, 0) and its +x
            // neighbour block.
            let a_base = VoxelKey::new(ax * 4, ay * 4, 0);
            let b_base = VoxelKey::new(ax * 4 + 16, ay * 4, 0);
            let a_desc: Vec<VoxelKey> = offsets
                .iter()
                .map(|&(x, y, z)| VoxelKey::new(a_base.x + x, a_base.y + y, z))
                .collect();
            let b_desc: Vec<VoxelKey> = offsets
                .iter()
                .map(|&(x, y, z)| VoxelKey::new(b_base.x + x, b_base.y + y, z))
                .collect();
            prop_assert!(lemma_a4(&a_desc, &b_desc, 2, 16));
        }

        /// A5/A6 on exhaustive optima of random small sets: every optimal
        /// sequence keeps ancestor groups contiguous.
        #[test]
        fn prop_optima_satisfy_a6(
            coords in proptest::collection::hash_set((0u16..8, 0u16..8, 0u16..8), 2..6)
        ) {
            let keys: Vec<VoxelKey> = coords
                .into_iter()
                .map(|(x, y, z)| VoxelKey::new(x, y, z))
                .collect();
            for seq in optimal_sequences(&keys, 16) {
                prop_assert!(descendants_contiguous(&seq, 16));
            }
        }
    }
}
