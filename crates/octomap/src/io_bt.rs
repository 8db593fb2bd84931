//! Compact "bonsai-tree" serialisation (the analogue of OctoMap's `.bt`).
//!
//! Reference OctoMap ships two formats: `.ot` streams full log-odds (our
//! [`crate::io`]), and `.bt` stores only the ternary occupancy decision with
//! **two bits per child**, reconstructing a maximum-likelihood tree on read.
//! The `.bt` file is what most consumers (visualisers, planners) exchange,
//! at a fraction of the size. This module reproduces that trade:
//!
//! * occupied leaves decode to `clamp_max`, free leaves to `clamp_min`
//!   (maximum-likelihood values, exactly like OctoMap's `readBinary`);
//! * inner nodes are recomputed from children;
//! * the value-level information lost is precisely what `.bt` loses.
//!
//! Child codes: `00` absent, `01` free leaf, `10` occupied leaf, `11` inner
//! child follows (depth-first).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use octocache_geom::{ChildIndex, VoxelGrid};

use crate::arena::ArenaTree;
use crate::io::{append_footer, read_verified, MapFooter, ReadError};
use crate::occupancy::OccupancyParams;
use crate::tree::{NodeRef, OccupancyOcTree};

const MAGIC: &[u8; 4] = b"OCB1";

/// Serialises the occupancy *decisions* of a tree (2 bits per child) as a
/// legacy v1 stream with no footer.
///
/// The output reconstructs to a maximum-likelihood tree: every occupied
/// region at `clamp_max`, every free region at `clamp_min`.
pub fn write_binary_tree(tree: &OccupancyOcTree) -> Bytes {
    write_payload(tree).freeze()
}

/// As [`write_binary_tree`], with the checksummed v2 footer appended (see
/// [`crate::io::MapFooter`]).
///
/// Because `.bt` streams are lossy, the footer's leaf checksum describes
/// the **maximum-likelihood tree the reader reconstructs**, not the source
/// tree — that is the only tree whose sum the reader can recompute.
pub fn write_binary_tree_v2(tree: &OccupancyOcTree, epoch: u64) -> Bytes {
    let mut buf = write_payload(tree);
    let ml = read_payload(&buf[..]).expect("freshly written .bt payload must decode");
    append_footer(&mut buf, ml.leaf_checksum(), epoch);
    buf.freeze()
}

fn write_payload(tree: &OccupancyOcTree) -> BytesMut {
    let mut buf = BytesMut::with_capacity(64 + tree.num_nodes());
    buf.put_slice(MAGIC);
    buf.put_f64(tree.grid().resolution());
    buf.put_u8(tree.grid().depth());
    let p = tree.params();
    buf.put_f32(p.clamp_min);
    buf.put_f32(p.clamp_max);
    buf.put_f32(p.threshold);
    match tree.root_ref() {
        Some(root) => {
            buf.put_u8(1);
            write_node(root, tree.params(), &mut buf);
        }
        None => buf.put_u8(0),
    }
    buf
}

fn child_code(node: NodeRef<'_>, i: ChildIndex, params: &OccupancyParams) -> u16 {
    match node.child(i) {
        None => 0b00,
        Some(c) if c.has_children() => 0b11,
        Some(c) if params.is_occupied(c.log_odds()) => 0b10,
        Some(_) => 0b01,
    }
}

fn write_node(node: NodeRef<'_>, params: &OccupancyParams, buf: &mut BytesMut) {
    let mut mask = 0u16;
    for i in ChildIndex::all() {
        mask |= child_code(node, i, params) << (2 * i.as_usize());
    }
    buf.put_u16(mask);
    for i in ChildIndex::all() {
        if child_code(node, i, params) == 0b11 {
            write_node(node.child(i).expect("inner child"), params, buf);
        }
    }
}

/// Deserialises a `.bt`-style stream (v1 or v2) into a maximum-likelihood
/// tree.
///
/// # Errors
///
/// Returns a [`ReadError`] for malformed input; never panics on untrusted
/// bytes.
pub fn read_binary_tree(bytes: &[u8]) -> Result<OccupancyOcTree, ReadError> {
    read_binary_tree_with_meta(bytes).map(|(tree, _)| tree)
}

/// As [`read_binary_tree`], additionally returning the v2 footer when the
/// stream carries one (`None` for legacy v1 streams). The footer's payload
/// CRC and reconstructed-tree leaf checksum are verified.
///
/// # Errors
///
/// Returns a [`ReadError`] for malformed input or failed integrity checks.
pub fn read_binary_tree_with_meta(
    bytes: &[u8],
) -> Result<(OccupancyOcTree, Option<MapFooter>), ReadError> {
    read_verified(bytes, read_payload)
}

fn read_payload(bytes: &[u8]) -> Result<OccupancyOcTree, ReadError> {
    let mut buf = bytes;
    if buf.remaining() < 4 || &buf[..4] != MAGIC {
        return Err(ReadError::BadMagic);
    }
    buf.advance(4);
    if buf.remaining() < 8 + 1 + 3 * 4 + 1 {
        return Err(ReadError::Truncated);
    }
    let resolution = buf.get_f64();
    let depth = buf.get_u8();
    let grid = VoxelGrid::new(resolution, depth).map_err(|e| ReadError::BadGrid(e.to_string()))?;
    let params = OccupancyParams {
        clamp_min: buf.get_f32(),
        clamp_max: buf.get_f32(),
        threshold: buf.get_f32(),
        ..OccupancyParams::default()
    };
    if params.validate().is_err() {
        return Err(ReadError::BadGrid("inconsistent occupancy params".into()));
    }
    let has_root = buf.get_u8() == 1;
    let mut pool = ArenaTree::new();
    if has_root {
        pool.push_root(params.threshold);
        read_node(&mut buf, &mut pool, 0, &params, depth)?;
    }
    if buf.has_remaining() {
        return Err(ReadError::TrailingBytes(buf.remaining()));
    }
    Ok(OccupancyOcTree::from_pool(grid, params, pool))
}

/// Decodes the child codes of node `idx` at `level` straight into the pool:
/// leaf children get their maximum-likelihood value, inner children recurse
/// (bounded by the header's tree depth), and the node is then refreshed to
/// the maximum over its children.
fn read_node(
    buf: &mut &[u8],
    pool: &mut ArenaTree,
    idx: u32,
    params: &OccupancyParams,
    level: u8,
) -> Result<(), ReadError> {
    if buf.remaining() < 2 {
        return Err(ReadError::Truncated);
    }
    let codes = buf.get_u16();
    let code = |i: u32| (codes >> (2 * i)) & 0b11;
    let mask = (0..8u32).fold(0u8, |m, i| m | (u8::from(code(i) != 0) << i));
    if mask == 0 {
        return Ok(());
    }
    let first = pool.add_children(idx, level, mask);
    let child_level = level - 1;
    for i in 0..8u32 {
        match code(i) {
            0b00 => {}
            0b01 => pool.set_log_odds(first + i, child_level, params.clamp_min),
            0b10 => pool.set_log_odds(first + i, child_level, params.clamp_max),
            _ => {
                if child_level == 0 {
                    return Err(ReadError::DepthOverflow);
                }
                pool.set_log_odds(first + i, child_level, params.threshold);
                read_node(buf, pool, first + i, params, child_level)?;
            }
        }
    }
    pool.refresh_from_children(idx, level);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insert;
    use octocache_geom::{Point3, VoxelKey};

    fn sample_tree() -> OccupancyOcTree {
        let grid = VoxelGrid::new(0.25, 8).unwrap();
        let mut tree = OccupancyOcTree::new(grid, OccupancyParams::default());
        let cloud: Vec<Point3> = (0..60)
            .map(|i| {
                let a = i as f64 * 0.11;
                Point3::new(6.0 + a.sin(), a.cos() * 4.0, (i % 5) as f64 * 0.3)
            })
            .collect();
        for origin in [Point3::ZERO, Point3::new(0.5, 0.5, 0.2)] {
            insert::insert_point_cloud(&mut tree, origin, &cloud, 30.0).unwrap();
        }
        tree
    }

    #[test]
    fn decisions_survive_roundtrip() {
        let tree = sample_tree();
        let bytes = write_binary_tree(&tree);
        let restored = read_binary_tree(&bytes).unwrap();
        restored.check_invariants().unwrap();
        // Every voxel's ternary decision (occupied / free / unknown) is
        // preserved even though values are maximum-likelihood.
        for x in (0..256u16).step_by(3) {
            for y in (96..160u16).step_by(3) {
                let key = VoxelKey::new(x, y, 130);
                assert_eq!(
                    tree.is_occupied(key),
                    restored.is_occupied(key),
                    "decision flip at {key}"
                );
            }
        }
    }

    #[test]
    fn binary_is_smaller_than_full() {
        let tree = sample_tree();
        let full = crate::io::write_tree(&tree);
        let binary = write_binary_tree(&tree);
        assert!(
            binary.len() * 2 < full.len(),
            "bt {} vs ot {}",
            binary.len(),
            full.len()
        );
    }

    #[test]
    fn restored_values_are_maximum_likelihood() {
        let tree = sample_tree();
        let restored = read_binary_tree(&write_binary_tree(&tree)).unwrap();
        let p = *restored.params();
        for leaf in restored.leaves() {
            assert!(
                leaf.log_odds == p.clamp_min || leaf.log_odds == p.clamp_max,
                "non-ML leaf value {}",
                leaf.log_odds
            );
        }
    }

    #[test]
    fn empty_tree_roundtrips() {
        let grid = VoxelGrid::new(0.1, 16).unwrap();
        let tree = OccupancyOcTree::new(grid, OccupancyParams::default());
        let restored = read_binary_tree(&write_binary_tree(&tree)).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn v2_roundtrip_checksums_ml_tree() {
        let tree = sample_tree();
        let bytes = write_binary_tree_v2(&tree, 9);
        let (restored, meta) = read_binary_tree_with_meta(&bytes).unwrap();
        let meta = meta.expect("footer present");
        assert_eq!(meta.epoch, 9);
        // The footer checksums the reconstructed ML tree, not the source.
        assert_eq!(meta.leaf_checksum, restored.leaf_checksum());
        // Decisions still survive, as with v1.
        let v1 = read_binary_tree(&write_binary_tree(&tree)).unwrap();
        assert_eq!(v1.leaf_checksum(), restored.leaf_checksum());
    }

    #[test]
    fn v2_corruption_detected() {
        let tree = sample_tree();
        let bytes = write_binary_tree_v2(&tree, 1).to_vec();
        let mut corrupted = bytes.clone();
        corrupted[30] ^= 0x10;
        assert!(matches!(
            read_binary_tree(&corrupted),
            Err(ReadError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn malformed_input_rejected_without_panic() {
        assert!(matches!(
            read_binary_tree(b"XXXX"),
            Err(ReadError::BadMagic)
        ));
        let tree = sample_tree();
        let bytes = write_binary_tree(&tree).to_vec();
        for cut in [3usize, 10, 18, bytes.len() - 1] {
            assert!(read_binary_tree(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for i in (0..bytes.len().min(300)).step_by(7) {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x55;
            let _ = read_binary_tree(&corrupted); // must not panic
        }
    }
}
