//! Property tests for the WAL record decoder on payloads that pass the
//! frame checksum. The frame CRC stops a corrupted frame before its payload
//! is decoded, so every payload here — arbitrary bytes, or a valid record's
//! payload overwritten, cut short or extended — is wrapped in a frame with
//! a *valid* CRC, and reaches the decoder. It must end the log (torn) or
//! decode, never panic, and a decoded record may own at most as many heap
//! bytes as its payload is long.
//!
//! The decoder is also exact: every record of every variant comes back
//! from `read_log` as it was written, with its sequence number, and every
//! payload the decoder accepts is the one bytes `WalRecord::encode` writes
//! for what it decoded.

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

/// The one-record log of `payload`: its sequence number and record, or
/// `None` if the log ends there.
fn accept(payload: &[u8]) -> Option<(u64, WalRecord)> {
    read_log(&frame(payload)).records.pop()
}

/// Any valid pool id (1 through 1023), the extremes as often as the rest.
fn pmo(rng: &mut TestRng) -> PmoId {
    let raw = match rng.below(4) {
        0 => 1,
        1 => 1023,
        _ => 1 + rng.below(1023) as u16,
    };
    PmoId::new(raw).expect("non-zero id")
}

/// A name of one- to four-byte UTF-8 characters.
fn name(rng: &mut TestRng) -> String {
    (0..rng.below(16))
        .map(|_| match rng.below(4) {
            0 => char::from(b'a' + rng.below(26) as u8),
            1 => 'é',
            2 => '名',
            _ => '🦀',
        })
        .collect()
}

fn bytes(rng: &mut TestRng) -> Vec<u8> {
    (0..rng.below(96)).map(|_| rng.next_u64() as u8).collect()
}

fn record(rng: &mut TestRng) -> WalRecord {
    match rng.below(10) {
        0 => WalRecord::PoolCreate {
            id: pmo(rng),
            name: name(rng),
            size: rng.next_u64(),
            mode: if rng.below(2) == 0 {
                OpenMode::ReadOnly
            } else {
                OpenMode::ReadWrite
            },
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

    /// Every variant, every field value: a log of records with increasing
    /// sequence numbers reads back as it was written.
    #[test]
    fn every_record_round_trips(seed in any::<u64>()) {
        let rng = &mut TestRng::new(seed);
        let mut seq = rng.below(1 << 40);
        let mut log = Vec::new();
        let mut written = Vec::new();
        for _ in 0..1 + rng.below(8) {
            seq += 1 + rng.below(1 << 20);
            let rec = record(rng);
            rec.encode_into(seq, &mut log);
            written.push((seq, rec));
        }
        let read = read_log(&log);
        prop_assert!(read.is_clean());
        prop_assert_eq!(read.consumed, log.len());
        prop_assert_eq!(read.records, written);
    }

    /// Whatever payload the decoder accepts — an arbitrary one, or a valid
    /// record's with any one byte changed to a small, a large or a random
    /// value — re-encodes to itself: no two payloads decode to the same
    /// record.
    #[test]
    fn accepted_payloads_re_encode_to_themselves(
        seed in any::<u64>(),
        fields in collection::vec(any::<u8>(), 0..64),
    ) {
        let rng = &mut TestRng::new(seed);
        let mut arbitrary = rng.next_u64().to_le_bytes().to_vec();
        arbitrary.push(rng.below(16) as u8);
        arbitrary.extend_from_slice(&fields);
        let valid = record(rng).encode(rng.next_u64())[8..].to_vec();
        let mut payloads = vec![arbitrary];
        for i in 0..valid.len() {
            for b in [0, 1, 2, 3, 0x7f, 0xff, rng.next_u64() as u8] {
                let mut changed = valid.clone();
                changed[i] = b;
                payloads.push(changed);
            }
        }
        for payload in payloads {
            if let Some((seq, rec)) = accept(&payload) {
                prop_assert_eq!(&rec.encode(seq)[8..], &payload[..], "{:?}", rec);
            }
        }
    }
}
