//! Adversarial decode battery for the `.ot` / `.bt` readers.
//!
//! The durable subsystem feeds these readers bytes straight off disk after
//! a crash, so they must treat every input as hostile: arbitrary byte soup,
//! valid streams with flipped bits, and truncations at every length must
//! return a typed [`ReadError`] (or a correct tree) — never panic, never
//! silently decode a *different* map from a checksummed v2 stream.

use octocache_geom::{VoxelGrid, VoxelKey};
use octocache_octomap::{io, io_bt, OccupancyOcTree, OccupancyParams};
use proptest::prelude::*;

fn grid() -> VoxelGrid {
    VoxelGrid::new(0.25, 8).unwrap()
}

/// A small deterministic tree with mixed occupied/free regions.
fn sample_tree() -> OccupancyOcTree {
    let mut tree = OccupancyOcTree::new(grid(), OccupancyParams::default());
    for i in 0u16..40 {
        let key = VoxelKey::new(i % 16, (i * 7) % 16, (i * 3) % 16);
        tree.update_node(key, i % 3 != 0);
    }
    tree
}

/// Runs every public reader over `bytes`; the only acceptable outcomes are
/// `Ok` or a typed `ReadError` (a panic fails the property).
fn feed_all_readers(bytes: &[u8]) {
    let _ = io::read_tree(bytes);
    let _ = io::read_tree_with_meta(bytes);
    let _ = io_bt::read_binary_tree(bytes);
    let _ = io_bt::read_binary_tree_with_meta(bytes);
    let _ = io::peek_footer(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pure byte soup: the readers return errors, they don't crash or
    /// over-allocate.
    #[test]
    fn prop_byte_soup_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        feed_all_readers(&bytes);
    }

    /// Soup behind a valid magic: exercises the header/node-stream parsing
    /// paths rather than bailing at the first four bytes.
    #[test]
    fn prop_magic_prefixed_soup_never_panics(
        ot in any::<bool>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let mut stream = if ot { b"OCT1".to_vec() } else { b"OCB1".to_vec() };
        stream.extend_from_slice(&bytes);
        feed_all_readers(&stream);
    }

    /// Single-bit flips in a checksummed v2 `.ot` stream: decoding either
    /// fails with a typed error or yields the *original* map — a flipped
    /// stream never silently becomes a different map. (The only undetected
    /// bits are the footer's epoch field, which does not affect the tree.)
    #[test]
    fn prop_v2_ot_bit_flips_never_yield_a_different_map(bit in 0usize..usize::MAX) {
        let tree = sample_tree();
        let reference = tree.leaf_checksum();
        let mut bytes = io::write_tree_v2(&tree, 42).to_vec();
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        if let Ok((decoded, _)) = io::read_tree_with_meta(&bytes) {
            prop_assert_eq!(
                decoded.leaf_checksum(),
                reference,
                "flipped bit {} decoded to a different map",
                bit
            );
        }
    }

    /// The same single-bit-flip guarantee for v2 `.bt` streams, relative to
    /// the maximum-likelihood tree the unflipped stream reconstructs.
    #[test]
    fn prop_v2_bt_bit_flips_never_yield_a_different_map(bit in 0usize..usize::MAX) {
        let tree = sample_tree();
        let clean = io_bt::write_binary_tree_v2(&tree, 7).to_vec();
        let reference = io_bt::read_binary_tree(&clean).unwrap().leaf_checksum();
        let mut bytes = clean;
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        if let Ok(decoded) = io_bt::read_binary_tree(&bytes) {
            prop_assert_eq!(
                decoded.leaf_checksum(),
                reference,
                "flipped bit {} decoded to a different ML map",
                bit
            );
        }
    }

    /// Truncations of a valid v2 stream at every length: a typed error, or
    /// (when the cut lands exactly on the v1 payload boundary) the original
    /// map read as a legacy stream.
    #[test]
    fn prop_v2_truncations_error_cleanly_or_decode_v1(cut in 0usize..usize::MAX) {
        let tree = sample_tree();
        let reference = tree.leaf_checksum();
        let bytes = io::write_tree_v2(&tree, 3).to_vec();
        let cut = cut % bytes.len();
        if let Ok((decoded, meta)) = io::read_tree_with_meta(&bytes[..cut]) {
            prop_assert_eq!(decoded.leaf_checksum(), reference);
            prop_assert!(meta.is_none(), "a truncated stream cannot keep its footer");
        }
    }

    /// Mutations of legacy v1 streams (no checksum to catch them) must
    /// still never panic, whatever they decode to.
    #[test]
    fn prop_v1_mutations_never_panic(
        bit in 0usize..usize::MAX,
        extra in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let tree = sample_tree();
        let mut ot = io::write_tree(&tree).to_vec();
        let b = bit % (ot.len() * 8);
        ot[b / 8] ^= 1 << (b % 8);
        ot.extend_from_slice(&extra);
        feed_all_readers(&ot);

        let mut bt = io_bt::write_binary_tree(&tree).to_vec();
        let b = bit % (bt.len() * 8);
        bt[b / 8] ^= 1 << (b % 8);
        bt.extend_from_slice(&extra);
        feed_all_readers(&bt);
    }
}

#[test]
fn v1_streams_read_back_with_no_footer() {
    let tree = sample_tree();
    let ot = io::write_tree(&tree);
    assert_eq!(io::peek_footer(&ot).unwrap(), None);
    let (decoded, meta) = io::read_tree_with_meta(&ot).unwrap();
    assert!(meta.is_none());
    assert_eq!(decoded.leaf_checksum(), tree.leaf_checksum());

    let bt = io_bt::write_binary_tree(&tree);
    let (ml, meta) = io_bt::read_binary_tree_with_meta(&bt).unwrap();
    assert!(meta.is_none());
    assert!(ml.num_leaves() > 0);
}

#[test]
fn v2_footer_round_trips_epoch_and_checksums() {
    let tree = sample_tree();
    let ot = io::write_tree_v2(&tree, 17);
    let footer = io::peek_footer(&ot)
        .unwrap()
        .expect("v2 stream has a footer");
    assert_eq!(footer.epoch, 17);
    assert_eq!(footer.leaf_checksum, tree.leaf_checksum());
    let (decoded, meta) = io::read_tree_with_meta(&ot).unwrap();
    assert_eq!(meta, Some(footer));
    assert_eq!(decoded.leaf_checksum(), tree.leaf_checksum());

    let bt = io_bt::write_binary_tree_v2(&tree, 23);
    let footer = io::peek_footer(&bt)
        .unwrap()
        .expect("v2 .bt stream has a footer");
    assert_eq!(footer.epoch, 23);
    let (ml, meta) = io_bt::read_binary_tree_with_meta(&bt).unwrap();
    assert_eq!(meta, Some(footer));
    assert_eq!(ml.leaf_checksum(), footer.leaf_checksum);
}

#[test]
fn swapped_magics_are_rejected_not_misparsed() {
    let tree = sample_tree();
    let ot = io::write_tree_v2(&tree, 1);
    let bt = io_bt::write_binary_tree_v2(&tree, 1);
    // Feeding each format to the other reader must fail on the magic, not
    // decode garbage.
    assert!(matches!(
        io_bt::read_binary_tree(&ot),
        Err(octocache_octomap::io::ReadError::BadMagic)
    ));
    assert!(matches!(
        io::read_tree(&bt),
        Err(octocache_octomap::io::ReadError::BadMagic)
    ));
}
