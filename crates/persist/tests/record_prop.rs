//! Property tests for the WAL record decoder on payloads that pass the
//! frame checksum. The frame CRC stops a corrupted frame before its payload
//! is decoded, so every payload here — arbitrary bytes, or a valid record's
//! payload overwritten, cut short or extended — is wrapped in a frame with
//! a *valid* CRC, and reaches the decoder. It must end the log (torn) or
//! decode, never panic, and a decoded record may own at most as many heap
//! bytes as its payload is long.

use proptest::prelude::*;
use terp_persist::crc::crc32;
use terp_persist::{read_log, WalRecord};
use terp_pmo::{OpenMode, PmoId};

/// One frame around `payload`, with the CRC it needs to be decoded.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn heap(record: &WalRecord) -> usize {
    match record {
        WalRecord::PoolCreate { name, .. } => name.capacity(),
        WalRecord::DataWrite { data, .. } | WalRecord::PageDelta { data, .. } => data.capacity(),
        WalRecord::AllocTable { live, .. } => live.capacity() * std::mem::size_of::<(u64, u64)>(),
        _ => 0,
    }
}

/// Decodes `payload` as a one-frame log: at most one record, owning at most
/// `payload.len()` heap bytes.
fn decode(payload: &[u8]) -> Option<WalRecord> {
    let mut log = read_log(&frame(payload));
    assert!(log.records.len() <= 1);
    let (_, record) = log.records.pop()?;
    assert!(
        heap(&record) <= payload.len(),
        "{record:?} from a {}-byte payload",
        payload.len()
    );
    Some(record)
}

fn pmo(rng: &mut TestRng) -> PmoId {
    PmoId::new(1 + rng.below(1023) as u16).expect("non-zero id")
}

fn bytes(rng: &mut TestRng) -> Vec<u8> {
    (0..rng.below(96)).map(|_| rng.next_u64() as u8).collect()
}

fn record(rng: &mut TestRng) -> WalRecord {
    match rng.below(10) {
        0 => WalRecord::PoolCreate {
            id: pmo(rng),
            name: (0..rng.below(16))
                .map(|_| char::from(b'a' + rng.below(26) as u8))
                .collect(),
            size: rng.next_u64(),
            mode: OpenMode::ReadWrite,
        },
        1 => WalRecord::Alloc {
            pmo: pmo(rng),
            size: rng.next_u64(),
            offset: rng.next_u64(),
        },
        2 => WalRecord::Free {
            pmo: pmo(rng),
            offset: rng.next_u64(),
        },
        3 => WalRecord::DataWrite {
            pmo: pmo(rng),
            offset: rng.next_u64(),
            data: bytes(rng),
        },
        4 => WalRecord::WindowOpen { pmo: pmo(rng) },
        5 => WalRecord::WindowClose { pmo: pmo(rng) },
        6 => WalRecord::Checkpoint {
            ckpt_len: rng.next_u64(),
        },
        7 => WalRecord::RootSet {
            pmo: pmo(rng),
            key: rng.next_u64() as u32,
            oid: rng.next_u64(),
        },
        8 => WalRecord::PageDelta {
            pmo: pmo(rng),
            page: rng.next_u64(),
            data: bytes(rng),
        },
        _ => WalRecord::AllocTable {
            pmo: pmo(rng),
            live: (0..rng.below(8))
                .map(|_| (rng.next_u64(), rng.next_u64()))
                .collect(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary payloads: a sequence number, any byte as the tag (mostly
    /// a real one), then arbitrary fields.
    #[test]
    fn arbitrary_payloads_in_valid_frames_decode_or_end_the_log(
        seq in any::<u64>(),
        tag in prop_oneof![0u8..16, any::<u8>()],
        fields in collection::vec(any::<u8>(), 0..160),
    ) {
        let mut payload = seq.to_le_bytes().to_vec();
        payload.push(tag);
        payload.extend_from_slice(&fields);
        decode(&payload);
    }

    /// A valid record's payload, re-framed with a valid CRC after it is
    /// overwritten or extended, decodes within the bound or ends the log;
    /// cut short, it never decodes.
    #[test]
    fn mutated_valid_payloads_decode_or_end_the_log(seed in any::<u64>()) {
        let rng = &mut TestRng::new(seed);
        let rec = record(rng);
        let payload = rec.encode(rng.next_u64())[8..].to_vec();
        prop_assert_eq!(decode(&payload), Some(rec));

        let cut = rng.below(payload.len() as u64) as usize;
        prop_assert_eq!(decode(&payload[..cut]), None, "a strict prefix decoded");

        let mut damaged = payload.clone();
        for _ in 0..1 + rng.below(4) {
            let i = rng.below(damaged.len() as u64) as usize;
            damaged[i] = rng.next_u64() as u8;
        }
        decode(&damaged);

        let mut extended = payload;
        extended.extend((0..1 + rng.below(16)).map(|_| rng.next_u64() as u8));
        prop_assert_eq!(decode(&extended), None, "trailing bytes decoded");
    }
}
