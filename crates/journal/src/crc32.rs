//! CRC-32 (IEEE 802.3 polynomial), table-driven, slicing-by-8.
//!
//! Self-contained so the journal has no external dependency for frame
//! checksums; the tables are built at compile time. `TABLES[0]` is the
//! classic byte-at-a-time table; `TABLES[k][b]` is the checksum state after
//! byte `b` followed by `k` zero bytes, which lets eight input bytes be
//! folded with eight independent lookups instead of a chain of eight
//! dependent ones.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// The CRC-32 checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let low = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        crc = TABLES[7][(low & 0xFF) as usize]
            ^ TABLES[6][((low >> 8) & 0xFF) as usize]
            ^ TABLES[5][((low >> 16) & 0xFF) as usize]
            ^ TABLES[4][(low >> 24) as usize]
            ^ TABLES[3][word[4] as usize]
            ^ TABLES[2][word[5] as usize]
            ^ TABLES[1][word[6] as usize]
            ^ TABLES[0][word[7] as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::crc32;
    use rand::{Rng, SeedableRng};

    /// The definition, one bit at a time (no table to share a mistake
    /// with): the checksum of a message extended by `byte`, from the
    /// checksum `crc` of the message.
    fn bitwise_extend(crc: u32, byte: u8) -> u32 {
        let mut crc = !crc ^ byte as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn sensitive_to_single_bit() {
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        assert_ne!(crc32(b"abc"), crc32(b"abcd"));
    }

    /// Every length 0..=4096 at every alignment of the slice start within
    /// an eight-byte word, so every split between whole words and tail
    /// bytes is taken.
    #[test]
    fn slicing_by_8_equals_the_bitwise_definition() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
        let data: Vec<u8> = (0..4096 + 8).map(|_| rng.gen()).collect();
        for align in 0..8 {
            let mut expected = 0;
            for len in 0..=4096 {
                assert_eq!(crc32(&data[align..align + len]), expected, "align {align} len {len}");
                expected = bitwise_extend(expected, data[align + len]);
            }
        }
    }
}
