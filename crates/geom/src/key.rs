use std::fmt;

use serde::{Deserialize, Serialize};

/// Index of a child voxel within its parent (0..8).
///
/// The encoding follows OctoMap: bit 0 is the X half, bit 1 the Y half and
/// bit 2 the Z half, so child `0b101` is the voxel in the upper-Z, lower-Y,
/// upper-X octant.
///
/// # Example
///
/// ```
/// # use octocache_geom::{ChildIndex, VoxelKey};
/// let key = VoxelKey::new(0b1, 0b0, 0b1);
/// // At the deepest level the child bits are the lowest key bits: x=1, z=1.
/// assert_eq!(key.child_index(0).as_usize(), 0b101);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChildIndex(u8);

impl ChildIndex {
    /// Creates a child index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    #[inline]
    pub fn new(i: u8) -> Self {
        assert!(i < 8, "child index {i} out of range 0..8");
        ChildIndex(i)
    }

    /// The index as a `usize`, suitable for indexing a `[T; 8]` child array.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Iterates over all eight child indices in order.
    pub fn all() -> impl Iterator<Item = ChildIndex> {
        (0..8).map(ChildIndex)
    }
}

impl fmt::Display for ChildIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The discrete address of a voxel at the finest level of a 16-level octree.
///
/// Following OctoMap's convention, each component is an unsigned 16-bit
/// integer obtained by offsetting the signed voxel index with the tree's
/// half-range (`32768` for depth 16), so the world origin sits at key
/// `(32768, 32768, 32768)`. See [`VoxelGrid`](crate::VoxelGrid) for the
/// world-coordinate conversion.
///
/// Keys are `Ord` by (x, y, z) lexicographic order — the "XYZ order" baseline
/// evaluated in the paper's Figure 10. Morton (Z-)order is provided separately
/// by [`morton`](crate::morton).
///
/// The layout is fixed (`x`, `y`, `z` at byte offsets 0, 2, 4): the ray
/// tracer's lanes store a key as one 64-bit word
/// ([`ray::VoxelUpdate`](crate::ray::VoxelUpdate)).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
#[repr(C)]
pub struct VoxelKey {
    /// Discrete X index.
    pub x: u16,
    /// Discrete Y index.
    pub y: u16,
    /// Discrete Z index.
    pub z: u16,
}

impl VoxelKey {
    /// Creates a key from its components.
    #[inline]
    pub const fn new(x: u16, y: u16, z: u16) -> Self {
        VoxelKey { x, y, z }
    }

    /// The key of the world origin for a tree of the given depth.
    #[inline]
    pub const fn origin(depth: u8) -> Self {
        let c = 1u16 << (depth - 1);
        VoxelKey { x: c, y: c, z: c }
    }

    /// Child index taken by this key when descending from tree level
    /// `bit + 1` to level `bit` (i.e. inspecting bit `bit` of each component).
    ///
    /// For a tree of depth `d`, descending from the root inspects bit `d - 1`
    /// first and bit `0` last.
    #[inline]
    pub fn child_index(self, bit: u8) -> ChildIndex {
        let b = ((self.x >> bit) & 1) | (((self.y >> bit) & 1) << 1) | (((self.z >> bit) & 1) << 2);
        ChildIndex(b as u8)
    }

    /// The key of this voxel's ancestor node at `level` levels above the
    /// leaves, with the low bits cleared. Level 0 returns the key itself.
    #[inline]
    pub fn ancestor_at(self, level: u8) -> VoxelKey {
        if level == 0 {
            return self;
        }
        if level >= 16 {
            return VoxelKey::new(0, 0, 0);
        }
        let mask = !0u16 << level;
        VoxelKey::new(self.x & mask, self.y & mask, self.z & mask)
    }

    /// Offsets the key by signed steps along each axis, saturating at the
    /// key-space boundary.
    #[inline]
    pub fn offset(self, dx: i32, dy: i32, dz: i32) -> VoxelKey {
        fn add(v: u16, d: i32) -> u16 {
            (v as i32 + d).clamp(0, u16::MAX as i32) as u16
        }
        VoxelKey::new(add(self.x, dx), add(self.y, dy), add(self.z, dz))
    }

    /// Chebyshev (L∞) distance between two keys, in voxels.
    #[inline]
    pub fn chebyshev_distance(self, other: VoxelKey) -> u16 {
        let dx = self.x.abs_diff(other.x);
        let dy = self.y.abs_diff(other.y);
        let dz = self.z.abs_diff(other.z);
        dx.max(dy).max(dz)
    }

    /// Manhattan (L1) distance between two keys, in voxels.
    #[inline]
    pub fn manhattan_distance(self, other: VoxelKey) -> u32 {
        self.x.abs_diff(other.x) as u32
            + self.y.abs_diff(other.y) as u32
            + self.z.abs_diff(other.z) as u32
    }

    /// The level of the closest common ancestor of `self` and `other` in a
    /// tree of depth `depth` (0 means the keys are equal at the leaf level;
    /// `depth` means they only share the root).
    ///
    /// This is the quantity behind the paper's tree distance `D(a, b)`:
    /// `D(a, b) = 2 * common_ancestor_level`.
    #[inline]
    pub fn common_ancestor_level(self, other: VoxelKey, depth: u8) -> u8 {
        let diff = (self.x ^ other.x) | (self.y ^ other.y) | (self.z ^ other.z);
        if diff == 0 {
            0
        } else {
            let highest = 15 - diff.leading_zeros() as u8;
            (highest + 1).min(depth)
        }
    }

    /// Tree ("shortest-path") distance between two leaves of a perfect tree
    /// of depth `depth`: twice the level of the closest common ancestor.
    ///
    /// This is `D(a, b)` from the paper's §4.3 locality functional 𝓕.
    #[inline]
    pub fn tree_distance(self, other: VoxelKey, depth: u8) -> u32 {
        2 * self.common_ancestor_level(other, depth) as u32
    }
}

impl fmt::Display for VoxelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}, {}]", self.x, self.y, self.z)
    }
}

impl From<(u16, u16, u16)> for VoxelKey {
    #[inline]
    fn from(t: (u16, u16, u16)) -> Self {
        VoxelKey::new(t.0, t.1, t.2)
    }
}

impl From<VoxelKey> for (u16, u16, u16) {
    #[inline]
    fn from(k: VoxelKey) -> Self {
        (k.x, k.y, k.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn child_index_extracts_bits() {
        let k = VoxelKey::new(0b10, 0b01, 0b11);
        // bit 0: x=0, y=1, z=1 -> 0b110
        assert_eq!(k.child_index(0).as_usize(), 0b110);
        // bit 1: x=1, y=0, z=1 -> 0b101
        assert_eq!(k.child_index(1).as_usize(), 0b101);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn child_index_rejects_large() {
        ChildIndex::new(8);
    }

    #[test]
    fn child_index_all_covers_each_octant() {
        let v: Vec<usize> = ChildIndex::all().map(|c| c.as_usize()).collect();
        assert_eq!(v, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn origin_is_half_range() {
        assert_eq!(VoxelKey::origin(16), VoxelKey::new(32768, 32768, 32768));
        assert_eq!(VoxelKey::origin(4), VoxelKey::new(8, 8, 8));
    }

    #[test]
    fn ancestor_clears_low_bits() {
        let k = VoxelKey::new(0b1011, 0b0110, 0b1111);
        assert_eq!(k.ancestor_at(0), k);
        assert_eq!(k.ancestor_at(2), VoxelKey::new(0b1000, 0b0100, 0b1100));
        assert_eq!(k.ancestor_at(16), VoxelKey::new(0, 0, 0));
    }

    #[test]
    fn offset_saturates() {
        let k = VoxelKey::new(0, 5, u16::MAX);
        let moved = k.offset(-3, 2, 10);
        assert_eq!(moved, VoxelKey::new(0, 7, u16::MAX));
    }

    #[test]
    fn distances() {
        let a = VoxelKey::new(0, 0, 0);
        let b = VoxelKey::new(3, 1, 2);
        assert_eq!(a.chebyshev_distance(b), 3);
        assert_eq!(a.manhattan_distance(b), 6);
        assert_eq!(b.chebyshev_distance(a), 3);
    }

    #[test]
    fn common_ancestor_level_cases() {
        let depth = 16;
        let a = VoxelKey::new(0b0000, 0, 0);
        assert_eq!(a.common_ancestor_level(a, depth), 0);
        // differ in bit 0 -> parent is one level up
        let b = VoxelKey::new(0b0001, 0, 0);
        assert_eq!(a.common_ancestor_level(b, depth), 1);
        // differ in bit 3 -> ancestor at level 4
        let c = VoxelKey::new(0b1000, 0, 0);
        assert_eq!(a.common_ancestor_level(c, depth), 4);
        // difference in y dominates
        let d = VoxelKey::new(0b0001, 0b100000, 0);
        assert_eq!(a.common_ancestor_level(d, depth), 6);
    }

    #[test]
    fn tree_distance_matches_paper_definition() {
        // Two siblings share a parent: distance 2 (one hop up, one down).
        let a = VoxelKey::new(0, 0, 0);
        let b = VoxelKey::new(1, 0, 0);
        assert_eq!(a.tree_distance(b, 16), 2);
        // Identical leaves: distance 0.
        assert_eq!(a.tree_distance(a, 16), 0);
    }

    #[test]
    fn common_ancestor_saturates_at_depth() {
        let a = VoxelKey::new(0, 0, 0);
        let b = VoxelKey::new(u16::MAX, 0, 0);
        // Highest differing bit is 15 -> level 16, capped at depth.
        assert_eq!(a.common_ancestor_level(b, 16), 16);
        assert_eq!(a.common_ancestor_level(b, 8), 8);
    }

    #[test]
    fn ordering_is_xyz_lexicographic() {
        let mut keys = vec![
            VoxelKey::new(2, 0, 0),
            VoxelKey::new(1, 9, 9),
            VoxelKey::new(1, 2, 5),
            VoxelKey::new(1, 2, 3),
        ];
        keys.sort();
        assert_eq!(
            keys,
            vec![
                VoxelKey::new(1, 2, 3),
                VoxelKey::new(1, 2, 5),
                VoxelKey::new(1, 9, 9),
                VoxelKey::new(2, 0, 0),
            ]
        );
    }

    fn arb_key() -> impl Strategy<Value = VoxelKey> {
        (any::<u16>(), any::<u16>(), any::<u16>()).prop_map(|(x, y, z)| VoxelKey::new(x, y, z))
    }

    proptest! {
        #[test]
        fn prop_common_ancestor_symmetric(a in arb_key(), b in arb_key()) {
            prop_assert_eq!(
                a.common_ancestor_level(b, 16),
                b.common_ancestor_level(a, 16)
            );
        }

        #[test]
        fn prop_tree_distance_triangle(a in arb_key(), b in arb_key(), c in arb_key()) {
            // Tree distance is a metric on leaves of the tree.
            let ab = a.tree_distance(b, 16);
            let bc = b.tree_distance(c, 16);
            let ac = a.tree_distance(c, 16);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn prop_ancestor_at_is_prefix(k in arb_key(), level in 0u8..16) {
            let anc = k.ancestor_at(level);
            // The ancestor agrees with the key on all bits >= level.
            prop_assert_eq!(anc.x >> level, k.x >> level);
            prop_assert_eq!(anc.y >> level, k.y >> level);
            prop_assert_eq!(anc.z >> level, k.z >> level);
            // And is zero below.
            if level > 0 {
                let mask = (1u16 << level) - 1;
                prop_assert_eq!(anc.x & mask, 0);
            }
        }

        #[test]
        fn prop_child_indices_reconstruct_key(k in arb_key()) {
            let mut x = 0u16;
            let mut y = 0u16;
            let mut z = 0u16;
            for bit in (0..16u8).rev() {
                let c = k.child_index(bit).as_usize() as u16;
                x |= (c & 1) << bit;
                y |= ((c >> 1) & 1) << bit;
                z |= ((c >> 2) & 1) << bit;
            }
            prop_assert_eq!(VoxelKey::new(x, y, z), k);
        }
    }
}
