//! Integrity checksums shared by the serialisation formats and the
//! durability layer.
//!
//! Two independent sums are used by the v2 map footer ([`crate::io`]) and the
//! scan journal (`octocache::durable`):
//!
//! * [`crc32`] — the IEEE 802.3 CRC-32 over raw bytes, guarding a byte
//!   *payload* against torn writes and bit rot. Implemented from scratch
//!   (table-driven, reflected polynomial `0xEDB88320`) because the workspace
//!   vendors no compression/CRC crate.
//! * [`OccupancyOcTree::leaf_checksum`](crate::OccupancyOcTree::leaf_checksum)
//!   — an FNV-1a fold over the *decoded* leaf set `(key, level, log-odds)`,
//!   guarding semantic round-trip fidelity. It does not depend on where nodes
//!   sit in the pool, so a map keeps its sum across a write and a re-read.

/// Streaming CRC-32 (IEEE) state.
///
/// ```
/// # use octocache_octomap::checksum::Crc32;
/// let mut c = Crc32::new();
/// c.update(b"123456789");
/// assert_eq!(c.finish(), 0xCBF4_3926); // the canonical check value
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

/// 256-entry lookup table for the reflected IEEE polynomial, built at
/// compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

impl Crc32 {
    /// Starts a fresh CRC computation.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the running sum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut s = self.state;
        for &b in bytes {
            s = TABLE[((s ^ b as u32) & 0xFF) as usize] ^ (s >> 8);
        }
        self.state = s;
    }

    /// Final CRC value (state is not consumed; more updates keep folding).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// One FNV-1a fold step over a 64-bit word (offset basis is supplied by the
/// caller; the standard 64-bit basis is `0xcbf2_9ce4_8422_2325`).
#[inline]
pub(crate) fn fnv1a(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_check_value() {
        // The universal CRC-32/IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_empty_and_zeroes() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(&[0u8]), 0xD202_EF8D);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1031).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data: Vec<u8> = (0..64u8).collect();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "undetected flip at {i}.{bit}");
            }
        }
    }
}
