//! CRC-64 (the XZ/GO-ECMA variant: reflected, polynomial
//! 0x42F0E1EBA9EA3693, init and xorout all-ones).
//!
//! One implementation shared by every layer that checksums bytes:
//! Pilaf's self-verifying data structures use CRC64 to let clients
//! detect get-put races on one-sided reads (§1, §2.3 of the paper's
//! related work), and the RFP core wire path stamps the same checksum
//! into its extended response header so remote fetches detect torn DMA
//! and in-flight corruption. Table-driven, one table, byte-at-a-time —
//! plenty for simulation workloads.

/// Reflected form of the ECMA-182 polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// The 256-entry lookup table, built at compile time.
const TABLE: [u64; 256] = build_table();

const fn build_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Streaming CRC-64 state.
#[derive(Clone, Copy, Debug)]
struct Crc64 {
    state: u64,
}

impl Crc64 {
    /// Starts a fresh checksum.
    fn new() -> Self {
        Crc64 { state: !0 }
    }

    /// Feeds `bytes` into the checksum.
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            let idx = ((self.state ^ b as u64) & 0xFF) as usize;
            self.state = (self.state >> 8) ^ TABLE[idx];
        }
    }

    /// Finalises and returns the checksum.
    fn finish(self) -> u64 {
        !self.state
    }
}

/// One-shot CRC-64 of `bytes`.
///
/// # Examples
///
/// ```
/// assert_eq!(rfp_simnet::crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
/// ```
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut c = Crc64::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn known_check_value() {
        // The standard CRC-64/XZ check vector.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = b"remote fetching paradigm";
        let mut c = Crc64::new();
        c.update(&data[..7]);
        c.update(&data[7..]);
        assert_eq!(c.finish(), crc64(data));
    }

    proptest! {
        /// CRC64 is split-invariant: any cut of the input streams to the
        /// one-shot checksum.
        #[test]
        fn any_split_equals_one_shot(data in vec(any::<u8>(), 0..200), split in any::<prop::sample::Index>()) {
            let cut = if data.is_empty() { 0 } else { split.index(data.len()) };
            let mut c = Crc64::new();
            c.update(&data[..cut]);
            c.update(&data[cut..]);
            prop_assert_eq!(c.finish(), crc64(&data));
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0x5Au8; 64];
        let clean = crc64(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc64(&data), clean, "missed flip at {byte}:{bit}");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn detects_torn_write() {
        // The exact failure Pilaf guards against: half-old, half-new.
        let old = [1u8; 32];
        let new = [2u8; 32];
        let sum_new = crc64(&new);
        let mut torn = new;
        torn[16..].copy_from_slice(&old[16..]);
        assert_ne!(crc64(&torn), sum_new);
    }
}
