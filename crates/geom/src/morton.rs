//! Morton (Z-order) codes for voxel keys.
//!
//! Morton codes transform 3D integer coordinates into a single integer by
//! interleaving the coordinate bits (Stocco & Schrack's integer dilation).
//! Ordering voxels by their Morton code is the eviction order that the paper
//! proves optimal for octree insertion locality (§4.3): leaf nodes with small
//! Morton-code differences share more common ancestors, so inserting them
//! consecutively re-uses the upper tree path that is already hot in the CPU
//! cache.
//!
//! Bit layout: within each 3-bit group, **Z is the most significant bit,
//! then Y, then X**, matching the worked example in the paper's §4.3 where
//! voxel `(1, 5, 3)` encodes to `167`. (The binary string printed in the
//! paper's prose contains a typo — `000110111₂` is 55 — but its stated
//! decimal result 167 corresponds exactly to this z,y,x layout.)
//!
//! # Example
//!
//! ```
//! # use octocache_geom::{morton, VoxelKey};
//! let code = morton::encode(VoxelKey::new(1, 5, 3));
//! assert_eq!(code, 167);
//! assert_eq!(morton::decode(code), VoxelKey::new(1, 5, 3));
//! ```

use crate::VoxelKey;

/// Spreads the 16 bits of `v` so that bit `i` moves to bit `3 * i`.
///
/// This is the classic magic-mask integer dilation; the masks below are the
/// standard constants for dilating up to 21 bits into a 63-bit word.
#[inline]
pub(crate) fn dilate(v: u16) -> u64 {
    let mut v = v as u64;
    v = (v | (v << 32)) & 0x001f_0000_0000_ffff;
    v = (v | (v << 16)) & 0x001f_0000_ff00_00ff;
    v = (v | (v << 8)) & 0x100f_00f0_0f00_f00f;
    v = (v | (v << 4)) & 0x10c3_0c30_c30c_30c3;
    v = (v | (v << 2)) & 0x1249_2492_4924_9249;
    v
}

/// Inverse of `dilate`: collects every third bit back into a compact `u16`.
#[inline]
pub fn contract(v: u64) -> u16 {
    let mut v = v & 0x1249_2492_4924_9249;
    v = (v | (v >> 2)) & 0x10c3_0c30_c30c_30c3;
    v = (v | (v >> 4)) & 0x100f_00f0_0f00_f00f;
    v = (v | (v >> 8)) & 0x001f_0000_ff00_00ff;
    v = (v | (v >> 16)) & 0x001f_0000_0000_ffff;
    v = (v | (v >> 32)) & 0xffff;
    v as u16
}

/// Encodes a voxel key into its 48-bit Morton code.
///
/// Within each 3-bit group Z occupies the most significant position, then Y,
/// then X (see module docs).
#[inline]
pub fn encode(key: VoxelKey) -> u64 {
    dilate(key.x) | (dilate(key.y) << 1) | (dilate(key.z) << 2)
}

/// Decodes a Morton code back into a voxel key.
///
/// Bits above position 47 are ignored.
#[inline]
pub fn decode(code: u64) -> VoxelKey {
    VoxelKey::new(contract(code), contract(code >> 1), contract(code >> 2))
}

/// Compares two keys by Morton order without materialising the codes.
///
/// Uses the classic "most significant differing dimension" trick: the
/// dimension whose XOR has the highest set bit decides the comparison.
/// Equivalent to `encode(a).cmp(&encode(b))` but branchier and
/// allocation-free; kept for use in hot comparators.
#[inline]
pub fn cmp_keys(a: VoxelKey, b: VoxelKey) -> std::cmp::Ordering {
    // Dimension priority on equal MSB positions follows the bit layout
    // (z > y > x), so start from z and only switch on a strictly higher MSB.
    let (mut msd_xor, mut av, mut bv) = (a.z ^ b.z, a.z, b.z);
    let y_xor = a.y ^ b.y;
    if less_msb(msd_xor, y_xor) {
        msd_xor = y_xor;
        av = a.y;
        bv = b.y;
    }
    let x_xor = a.x ^ b.x;
    if less_msb(msd_xor, x_xor) {
        av = a.x;
        bv = b.x;
    }
    av.cmp(&bv)
}

/// True when the most significant set bit of `a` is strictly below that of
/// `b` (including ties broken toward `b` when `a < a ^ b`).
#[inline]
fn less_msb(a: u16, b: u16) -> bool {
    a < b && a < (a ^ b)
}

/// Returns the permutation that visits `keys` in ascending Morton order:
/// `out[i]` is the index into `keys` of the `i`-th key in z-order.
///
/// The sort is stable, so duplicate keys keep their input order. Batched
/// octree reads walk this permutation to maximise root-to-leaf prefix
/// sharing between consecutive queries (the locality argument of §4.3
/// applied to the read path) while still reporting results in input order.
pub fn sort_index(keys: &[VoxelKey]) -> Vec<u32> {
    debug_assert!(keys.len() <= u32::MAX as usize);
    let mut idx: Vec<u32> = (0..keys.len() as u32).collect();
    idx.sort_by_key(|&i| encode(keys[i as usize]));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit-by-bit reference implementation used to validate the dilated one.
    fn encode_naive(key: VoxelKey) -> u64 {
        let mut code = 0u64;
        for i in 0..16 {
            code |= (((key.x >> i) & 1) as u64) << (3 * i);
            code |= (((key.y >> i) & 1) as u64) << (3 * i + 1);
            code |= (((key.z >> i) & 1) as u64) << (3 * i + 2);
        }
        code
    }

    #[test]
    fn paper_worked_example() {
        // Paper §4.3: voxel (1, 5, 3) has Morton code 167.
        assert_eq!(encode(VoxelKey::new(1, 5, 3)), 167);
    }

    #[test]
    fn origin_encodes_to_zero() {
        assert_eq!(encode(VoxelKey::new(0, 0, 0)), 0);
    }

    #[test]
    fn unit_axes() {
        assert_eq!(encode(VoxelKey::new(1, 0, 0)), 0b001);
        assert_eq!(encode(VoxelKey::new(0, 1, 0)), 0b010);
        assert_eq!(encode(VoxelKey::new(0, 0, 1)), 0b100);
    }

    #[test]
    fn max_key_uses_48_bits() {
        let code = encode(VoxelKey::new(u16::MAX, u16::MAX, u16::MAX));
        assert_eq!(code, (1u64 << 48) - 1);
    }

    #[test]
    fn dilate_contract_roundtrip_exhaustive_byte() {
        for v in 0..=u8::MAX as u16 {
            assert_eq!(contract(dilate(v)), v);
        }
    }

    #[test]
    fn siblings_are_consecutive_codes() {
        // The 8 children of one parent occupy 8 consecutive Morton codes.
        let base = VoxelKey::new(4, 6, 2); // even coordinates -> aligned parent
        let mut codes: Vec<u64> = (0..8)
            .map(|c| {
                let k = VoxelKey::new(
                    base.x | (c & 1),
                    base.y | ((c >> 1) & 1),
                    base.z | ((c >> 2) & 1),
                );
                encode(k)
            })
            .collect();
        codes.sort_unstable();
        for w in codes.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn sort_index_is_a_stable_morton_permutation() {
        let keys = vec![
            VoxelKey::new(3, 3, 3),
            VoxelKey::new(0, 0, 0),
            VoxelKey::new(3, 3, 3), // duplicate of index 0
            VoxelKey::new(2, 0, 1),
        ];
        let idx = sort_index(&keys);
        // A permutation of 0..len…
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        // …visiting keys in ascending Morton order…
        let codes: Vec<u64> = idx.iter().map(|&i| encode(keys[i as usize])).collect();
        assert!(codes.windows(2).all(|w| w[0] <= w[1]));
        // …with duplicates kept in input order (stability).
        let a = idx.iter().position(|&i| i == 0).unwrap();
        let b = idx.iter().position(|&i| i == 2).unwrap();
        assert!(a < b);
        assert!(sort_index(&[]).is_empty());
    }

    fn arb_key() -> impl Strategy<Value = VoxelKey> {
        (any::<u16>(), any::<u16>(), any::<u16>()).prop_map(|(x, y, z)| VoxelKey::new(x, y, z))
    }

    proptest! {
        #[test]
        fn prop_encode_matches_naive(k in arb_key()) {
            prop_assert_eq!(encode(k), encode_naive(k));
        }

        #[test]
        fn prop_roundtrip(k in arb_key()) {
            prop_assert_eq!(decode(encode(k)), k);
        }

        #[test]
        fn prop_cmp_keys_matches_code_order(a in arb_key(), b in arb_key()) {
            prop_assert_eq!(cmp_keys(a, b), encode(a).cmp(&encode(b)));
        }

        #[test]
        fn prop_morton_locality_bound(a in arb_key(), b in arb_key()) {
            // Keys sharing an ancestor at level L differ by < 8^L in code.
            let level = a.common_ancestor_level(b, 16) as u32;
            let diff = encode(a).abs_diff(encode(b));
            prop_assert!(diff < 1u64 << (3 * level).min(63));
        }

        #[test]
        fn prop_code_prefix_is_ancestor(k in arb_key(), level in 0u8..16) {
            // Truncating 3*level low bits of the code corresponds to the
            // ancestor key at that level.
            let code = encode(k);
            let anc = k.ancestor_at(level);
            prop_assert_eq!(code >> (3 * level as u32), encode(anc) >> (3 * level as u32));
        }
    }
}
