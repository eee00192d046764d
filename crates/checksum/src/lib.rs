//! # efactory-checksum — CRC32C (Castagnoli)
//!
//! eFactory and the comparison systems (Erda, Forca) detect torn RDMA writes
//! by storing a CRC of the value in the object metadata and re-computing it
//! over the fetched/stored bytes. This crate provides the checksum: CRC32C
//! (polynomial `0x1EDC6A41`, reflected `0x82F63B78`), the variant used by
//! iSCSI and most storage systems.
//!
//! Two implementations are provided:
//!
//! * [`crc32c`] — table-driven *slice-by-8*, processing 8 bytes per step;
//!   this is the production path.
//! * [`crc32c_bitwise`] — the 1-bit-at-a-time reference used to validate the
//!   fast path in tests (including property tests over arbitrary inputs).
//!
//! Note: the *simulated CPU cost* of a verification in the experiments comes
//! from the cost model in `efactory-rnic` (the paper's CRC costs ≈1.07 ns/B),
//! not from how fast this code runs on the host.

/// Reflected CRC32C polynomial.
pub const POLY: u32 = 0x82F6_3B78;

/// Build the 8 lookup tables for slice-by-8 at compile time.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut b = 0;
        while b < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            b += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC32C of `data` (one-shot, slice-by-8).
#[inline]
pub fn crc32c(data: &[u8]) -> u32 {
    update(!0, data) ^ !0
}

/// Bit-at-a-time reference implementation. Slow; for verification only.
pub fn crc32c_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
    }
    crc ^ !0
}

/// Advance the raw (pre/post-inverted) CRC state over `data`.
fn update(mut crc: u32, mut data: &[u8]) -> u32 {
    // Slice-by-8 main loop.
    while data.len() >= 8 {
        let lo = u32::from_le_bytes([data[0], data[1], data[2], data[3]]) ^ crc;
        let hi = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
        data = &data[8..];
    }
    for &byte in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // Known-answer vectors for CRC32C (RFC 3720 appendix + common vectors).
    #[test]
    fn known_vectors() {
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"a"), 0xC1D0_4330);
        assert_eq!(crc32c(b"abc"), 0x364B_3FB7);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        // 32 bytes of zeros (iSCSI test vector).
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // 32 bytes of 0xFF.
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        // 0..=31 ascending (iSCSI test vector).
        let asc: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&asc), 0x46DD_794E);
    }

    #[test]
    fn bitwise_matches_known_vectors() {
        assert_eq!(crc32c_bitwise(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c_bitwise(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0x5Au8; 64];
        let base = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32c(&corrupted), base, "missed flip at {byte}.{bit}");
            }
        }
    }

    #[test]
    fn detects_torn_8_byte_writes() {
        // The failure mode the stores care about: an RDMA write torn at
        // 8-byte granularity (some words new, some stale/zero).
        let new = vec![0xABu8; 64];
        let expect = crc32c(&new);
        for torn_words in 1..8 {
            let mut torn = new.clone();
            for w in torn_words..8 {
                torn[w * 8..(w + 1) * 8].fill(0);
            }
            assert_ne!(crc32c(&torn), expect, "torn at word {torn_words}");
        }
    }

    proptest! {
        #[test]
        fn slice_by_8_equals_bitwise(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
            prop_assert_eq!(crc32c(&data), crc32c_bitwise(&data));
        }
    }
}
