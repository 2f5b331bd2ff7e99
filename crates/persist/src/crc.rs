//! CRC-32C (Castagnoli polynomial) used to frame every WAL, checkpoint and
//! protection record, every net frame and every repl message.
//!
//! Two kernels, one definition. On x86-64 with SSE4.2 — detected at run
//! time, no build flag — the checksum is the `crc32` instruction, eight
//! bytes per step (≈ 9 GB/s on the reference box; restart checksums a 1.9 MB
//! image in 0.2 ms). Everywhere else it is table-driven slicing-by-8 (eight
//! bytes per step through eight 256-entry tables built at compile time,
//! ≈ 1.4 GB/s). Both take the tail of fewer than eight bytes one at a time,
//! and the tests hold both to the byte-at-a-time definition on every length
//! and alignment. The polynomial is the one the instruction implements
//! (iSCSI, ext4, Btrfs); the build environment is offline, so the codec is
//! in-tree.

/// Castagnoli polynomial, reflected.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32C of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32_sse42` requires only that the CPU implements
        // SSE4.2, which the line above has just established.
        return unsafe { crc32_sse42(data) };
    }
    crc32_portable(data)
}

/// The `crc32` instruction, eight bytes per step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32_sse42(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut c = u64::from(!0u32);
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        c = _mm_crc32_u64(c, u64::from_le_bytes(chunk.try_into().expect("8")));
    }
    let mut c = c as u32;
    for &b in chunks.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

/// Slicing-by-8: the kernel of every CPU without the instruction.
fn crc32_portable(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition both kernels must equal: one byte per step.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn sliced_kernel_equals_the_bytewise_reference_on_every_length_and_alignment() {
        // A fixed pseudo-random buffer; every length 0..=4096 at each of the
        // eight start offsets, so every split into 8-byte steps + tail and
        // every alignment of those steps is covered. `crc32` is whichever
        // kernel this CPU selects; the portable one is called by name so it
        // is held to the definition on hardware that never runs it.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=4096 {
                let data = &buf[start..start + len];
                let want = crc32_bytewise(data);
                assert_eq!(crc32(data), want, "selected: start {start} len {len}");
                assert_eq!(
                    crc32_portable(data),
                    want,
                    "portable: start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32C check values (RFC 3720 appendix B.4 for the
        // 32-byte blocks).
        for crc in [crc32, crc32_portable] {
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"123456789"), 0xE306_9283);
            assert_eq!(crc(&[0u8; 32]), 0x8A91_36AA);
            assert_eq!(crc(&[0xFFu8; 32]), 0x62A8_AB43);
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"terp-persist");
        let mut flipped = b"terp-persist".to_vec();
        for i in 0..flipped.len() * 8 {
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&flipped), base, "bit {i} flip undetected");
            flipped[i / 8] ^= 1 << (i % 8);
        }
    }
}
