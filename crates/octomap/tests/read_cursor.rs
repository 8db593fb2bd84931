//! The read cursor answers exactly what `search` answers.
//!
//! [`OccupancyOcTree::read_cursor`] keeps the previous lookup's root-to-leaf
//! path and restarts below the common ancestor, so what it returns depends
//! on the *sequence* of keys as well as on the tree. The property drives it
//! with sequences built from the moves that stress the kept path — the same
//! key again, a Morton neighbour, a nearby voxel, a jump across the map, a
//! return to mapped space — over empty, freshly written and pruned trees
//! whose content straddles the `0x8000` centre of the key space (where the
//! two keys share nothing but the root), and holds every answer, and the
//! counters the cursor leaves in `TreeStats`, against a per-call `search`
//! loop on a twin tree.

use octocache_geom::{morton, VoxelGrid, VoxelKey};
use octocache_octomap::{OccupancyOcTree, OccupancyParams};
use proptest::prelude::*;

const CENTRE: u16 = 0x8000;

/// How the next key of a sequence derives from the previous one.
#[derive(Debug, Clone)]
enum Move {
    Repeat,
    /// The key `delta` places along the Morton curve.
    Morton(i64),
    /// A few voxels away on each axis.
    Near(i16, i16, i16),
    /// Anywhere in the key space.
    Far(u16, u16, u16),
    /// A few voxels from the `n`-th key the tree was written at.
    Content(usize, i16, i16, i16),
}

fn arb_move() -> impl Strategy<Value = Move> {
    prop_oneof![
        2 => Just(Move::Repeat),
        4 => (-3i64..4).prop_map(Move::Morton),
        4 => (-4i16..5, -4i16..5, -4i16..5).prop_map(|(x, y, z)| Move::Near(x, y, z)),
        1 => (any::<u16>(), any::<u16>(), any::<u16>()).prop_map(|(x, y, z)| Move::Far(x, y, z)),
        4 => (0usize..64, -2i16..3, -2i16..3, -2i16..3)
            .prop_map(|(n, x, y, z)| Move::Content(n, x, y, z)),
    ]
}

fn offset(key: VoxelKey, dx: i16, dy: i16, dz: i16) -> VoxelKey {
    VoxelKey::new(
        key.x.wrapping_add_signed(dx),
        key.y.wrapping_add_signed(dy),
        key.z.wrapping_add_signed(dz),
    )
}

/// The keys a sequence of moves visits, starting at the centre.
fn keys_of(moves: &[Move], content: &[VoxelKey]) -> Vec<VoxelKey> {
    let mut key = VoxelKey::new(CENTRE, CENTRE, CENTRE);
    moves
        .iter()
        .map(|m| {
            key = match *m {
                Move::Repeat => key,
                Move::Morton(delta) => {
                    let code = morton::encode(key).wrapping_add_signed(delta);
                    morton::decode(code & ((1 << 48) - 1))
                }
                Move::Near(x, y, z) => offset(key, x, y, z),
                Move::Far(x, y, z) => VoxelKey::new(x, y, z),
                Move::Content(n, x, y, z) => match content.get(n % content.len().max(1)) {
                    Some(&at) => offset(at, x, y, z),
                    None => key,
                },
            };
            key
        })
        .collect()
}

/// The `2^level`-voxel cube around `key`, every voxel of it.
fn cube(key: VoxelKey, level: u8) -> impl Iterator<Item = VoxelKey> {
    let base = key.ancestor_at(level);
    let edge = 1u16 << level;
    (0..edge).flat_map(move |x| {
        (0..edge).flat_map(move |y| {
            (0..edge).map(move |z| VoxelKey::new(base.x + x, base.y + y, base.z + z))
        })
    })
}

/// A tree written at `content`: `kind` 0 leaves it empty, 1 observes each
/// key once, 2 also saturates the cube around every third key (alternately
/// 2 and 4 voxels wide) so the tree holds pruned aggregates at two levels.
fn build(kind: u8, content: &[VoxelKey]) -> OccupancyOcTree {
    let grid = VoxelGrid::new(0.1, 16).unwrap();
    let mut tree = OccupancyOcTree::new(grid, OccupancyParams::default());
    if kind == 0 {
        return tree;
    }
    for (i, &key) in content.iter().enumerate() {
        tree.update_node(key, i % 2 == 0);
        if kind == 2 && i % 3 == 0 {
            let max = tree.params().clamp_max;
            let level = 1 + (i / 3 % 2) as u8;
            tree.set_log_odds_batch(cube(key, level).map(|k| (k, max)));
        }
    }
    tree.prune();
    tree
}

/// Holds one cursor over `keys` against a per-call loop on a twin tree.
fn check(tree: &OccupancyOcTree, keys: &[VoxelKey]) {
    let twin = tree.deep_clone();
    let tree = tree.deep_clone(); // counters start at zero
    let mut cursor = tree.read_cursor();
    for (i, &key) in keys.iter().enumerate() {
        let want = twin.search(key).map(f32::to_bits);
        let got = cursor.search(key).map(f32::to_bits);
        assert_eq!(got, want, "lookup {i} at {key} after {:?}", &keys[..i]);
    }
    let per_call = twin.stats().snapshot();
    // Every node of every root-to-leaf path is either fetched or kept.
    assert_eq!(
        cursor.nodes_visited() + cursor.nodes_reused(),
        per_call.node_visits
    );
    // Nothing reaches the tree's counters before the cursor is dropped…
    let visited = cursor.nodes_visited();
    assert_eq!(tree.stats().queries(), 0);
    assert_eq!(tree.stats().node_visits(), 0);
    drop(cursor);
    // …and then the queries are the per-call loop's, the visits the cursor's.
    assert_eq!(per_call.queries, keys.len() as u64);
    assert_eq!(tree.stats().queries(), per_call.queries);
    assert_eq!(tree.stats().node_visits(), visited);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cursor_search_equals_search_for_any_key_sequence(
        kind in 0u8..3,
        content in proptest::collection::vec((-24i16..24, -24i16..24, -6i16..6), 1..40),
        moves in proptest::collection::vec(arb_move(), 1..120),
    ) {
        let centre = VoxelKey::new(CENTRE, CENTRE, CENTRE);
        let content: Vec<VoxelKey> =
            content.into_iter().map(|(x, y, z)| offset(centre, x, y, z)).collect();
        let tree = build(kind, &content);
        tree.check_invariants().unwrap();
        check(&tree, &keys_of(&moves, &content));
    }
}

#[test]
fn a_walk_that_ended_early_is_a_valid_prefix_for_the_next_key() {
    let at = |x: u16, y: u16, z: u16| VoxelKey::new(CENTRE + x, CENTRE + y, CENTRE + z);
    let mut tree = build(1, &[at(0, 0, 0)]);
    let max = tree.params().clamp_max;
    tree.set_log_odds_batch(cube(at(8, 8, 8), 2).map(|k| (k, max)));
    assert_eq!(tree.num_leaves(), 2, "one voxel and one 4-voxel aggregate");
    check(
        &tree,
        &[
            // Ends at a missing child three levels up; the sibling of the
            // written voxel then continues below that node, and its own
            // sibling finds the leaf level's missing child.
            at(7, 0, 0),
            at(1, 0, 0),
            at(0, 0, 0),
            at(0, 1, 0),
            // Ends on the aggregate, twice: the second lookup keeps all of it.
            at(9, 9, 9),
            at(11, 8, 10),
            // From inside the aggregate to unknown space beside it and back.
            at(12, 8, 8),
            at(8, 8, 8),
            // Across the centre: only the root is shared, in both directions.
            VoxelKey::new(CENTRE - 1, CENTRE - 1, CENTRE - 1),
            at(0, 0, 0),
            at(0, 0, 0),
        ],
    );
    // An empty tree answers nothing and is never visited.
    check(&build(0, &[]), &[at(0, 0, 0), at(0, 0, 0), at(1, 0, 0)]);
}
