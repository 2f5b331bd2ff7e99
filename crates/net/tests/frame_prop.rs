//! Property and fuzz-style tests for the frame codec: arbitrary payload
//! sizes, arbitrary read chunking (partial reads, torn length prefixes),
//! and corruption anywhere in the stream must produce either correct
//! payloads or a clean error — never a panic, never a wrong payload. The
//! payloads are lent out of the decoder's buffer, which drops consumed
//! frames as bytes are pushed: what it holds stays bounded by what is
//! still pending.

use proptest::prelude::*;
use terp_net::frame::{encode_frame, frame_into, FrameDecoder, FrameError, FRAME_OVERHEAD};
use terp_net::proto::{Request, Response};
use terp_net::ReplMsg;

/// Splits `wire` into chunks at pseudo-random boundaries drawn from `rng`.
fn chunked<'a>(wire: &'a [u8], rng: &mut TestRng) -> Vec<&'a [u8]> {
    let mut chunks = Vec::new();
    let mut pos = 0;
    while pos < wire.len() {
        let take = 1 + rng.below((wire.len() - pos) as u64) as usize;
        chunks.push(&wire[pos..pos + take]);
        pos += take;
    }
    chunks
}

proptest! {
    /// Any frame sequence survives any chunking of the byte stream, and
    /// after every push the decoder holds at most twice its pending bytes.
    #[test]
    fn roundtrip_under_arbitrary_chunking(
        sizes in collection::vec(0usize..2000, 1..8),
        split_seed in any::<u64>(),
    ) {
        let payloads: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|j| (i * 31 + j) as u8).collect())
            .collect();
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend_from_slice(&encode_frame(p));
        }
        let mut rng = TestRng::new(split_seed);
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for chunk in chunked(&wire, &mut rng) {
            dec.push(chunk);
            prop_assert!(dec.buffered() <= 2 * dec.pending());
            while let Some(p) = dec.next_frame().expect("clean stream") {
                got.push(p.to_vec());
            }
        }
        prop_assert_eq!(got, payloads);
        prop_assert_eq!(dec.pending(), 0);
    }

    /// A single flipped bit anywhere inside a frame is either caught by the
    /// CRC, rejected as oversized, or (if it hits only the length prefix in
    /// a way that still parses) fails CRC on the shifted payload — in every
    /// case a clean error or a stall, never a panic or a wrong payload.
    #[test]
    fn bit_flip_never_yields_wrong_payload(
        size in 0usize..512,
        flip_seed in any::<u64>(),
    ) {
        let payload: Vec<u8> = (0..size).map(|i| i as u8).collect();
        let mut wire = encode_frame(&payload);
        let mut rng = TestRng::new(flip_seed);
        let bit = rng.below((wire.len() * 8) as u64) as usize;
        wire[bit / 8] ^= 1 << (bit % 8);

        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        match dec.next_frame() {
            // Stall: the flip grew the advertised length; more bytes needed.
            Ok(None) => {}
            // The flip must not produce a different payload undetected.
            Ok(Some(p)) => prop_assert_eq!(p, &payload[..]),
            Err(FrameError::Crc { .. }) | Err(FrameError::TooLarge { .. }) => {}
        }
    }

    /// Garbage byte streams (fuzz regression): the decoder and both message
    /// decoders must never panic, whatever bytes arrive.
    #[test]
    fn garbage_streams_never_panic(
        bytes in collection::vec(any::<u8>(), 0..600),
    ) {
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        // Pull frames until the decoder stalls or errors; feed whatever
        // comes out to both message-layer decoders.
        loop {
            match dec.next_frame() {
                Ok(Some(p)) => {
                    let _ = Request::decode(p);
                    let _ = Response::decode(p);
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }

    /// Garbage payloads inside frames with a valid CRC: unlike a garbage
    /// stream, which rarely passes the frame checksum, every one reaches
    /// the message decoders, which must refuse it or decode it, never panic.
    #[test]
    fn garbage_payloads_in_valid_frames_reach_the_decoders(
        payloads in collection::vec(collection::vec(any::<u8>(), 0..80), 1..6),
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend_from_slice(&encode_frame(p));
        }
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        for p in &payloads {
            let got = dec.next_frame().expect("valid frames").expect("complete");
            prop_assert_eq!(got, &p[..]);
            let _ = Request::decode(got);
            let _ = Response::decode(got);
            let _ = ReplMsg::decode(got);
        }
    }

    /// Torn length prefix: delivering any strict prefix of a frame yields
    /// `Ok(None)` (waiting), and completing the bytes yields the payload.
    #[test]
    fn torn_prefix_then_completion(
        size in 0usize..300,
        cut_seed in any::<u64>(),
    ) {
        let payload: Vec<u8> = (0..size).map(|i| (i * 7) as u8).collect();
        let wire = encode_frame(&payload);
        let mut rng = TestRng::new(cut_seed);
        let cut = rng.below(wire.len() as u64) as usize;
        let mut dec = FrameDecoder::new();
        dec.push(&wire[..cut]);
        prop_assert_eq!(dec.next_frame().expect("prefix is not an error"), None);
        dec.push(&wire[cut..]);
        prop_assert_eq!(dec.next_frame().expect("completed frame"), Some(&payload[..]));
    }
}

/// Fixed malformed-frame regressions distilled from the generators above:
/// each case previously plausible as a panic path must return cleanly.
#[test]
fn malformed_frame_regressions() {
    // Length prefix claiming u32::MAX.
    let mut dec = FrameDecoder::new();
    dec.push(&u32::MAX.to_le_bytes());
    assert!(matches!(
        dec.next_frame(),
        Err(FrameError::TooLarge { len: u32::MAX })
    ));

    // Valid length, truncated trailer: stalls, then completes after a
    // corrupted CRC arrives -> Crc error, not a panic.
    let wire = encode_frame(b"abc");
    let mut dec = FrameDecoder::new();
    dec.push(&wire[..wire.len() - 2]);
    assert_eq!(dec.next_frame().unwrap(), None);
    dec.push(&[0xFF, 0xFF]);
    assert!(matches!(dec.next_frame(), Err(FrameError::Crc { .. })));

    // Empty-payload frame with corrupt CRC.
    let mut wire = encode_frame(b"");
    wire[4] ^= 1;
    let mut dec = FrameDecoder::new();
    dec.push(&wire);
    assert!(matches!(dec.next_frame(), Err(FrameError::Crc { .. })));

    // A frame whose payload is itself a torn frame header: the outer layer
    // must hand it through intact (no recursive interpretation).
    let inner = [0xEE, 0xFF, 0x00];
    let wire = encode_frame(&inner);
    let mut dec = FrameDecoder::new();
    dec.push(&wire);
    assert_eq!(dec.next_frame().unwrap(), Some(&inner[..]));

    // The message layer rejects a zero-length payload cleanly.
    assert!(Request::decode(&[]).is_err());
    assert!(Response::decode(&[]).is_err());

    // Overhead constant matches the encoder's actual envelope.
    assert_eq!(encode_frame(b"xyzw").len(), 4 + FRAME_OVERHEAD);
}

/// A long stream of small frames fed in 7-byte chunks: every payload comes
/// back byte-equal, and the decoder never holds more than two frames and
/// two chunks — consumed frames go at the next push, however many pass.
#[test]
fn ten_thousand_small_frames_in_seven_byte_chunks_stay_bounded() {
    const CHUNK: usize = 7;
    let payloads: Vec<Vec<u8>> = (0..10_000u32)
        .map(|i| i.to_le_bytes().repeat(1 + i as usize % 5))
        .collect();
    let mut wire = Vec::new();
    for p in &payloads {
        frame_into(&mut wire, |o| o.extend_from_slice(p)).expect("small frame");
    }
    let largest = payloads.iter().map(Vec::len).max().expect("frames") + FRAME_OVERHEAD;
    let mut dec = FrameDecoder::new();
    let (mut got, mut held) = (0, 0);
    for chunk in wire.chunks(CHUNK) {
        dec.push(chunk);
        held = held.max(dec.buffered());
        while let Some(p) = dec.next_frame().expect("clean stream") {
            assert_eq!(p, &payloads[got][..], "frame {got}");
            got += 1;
        }
    }
    assert_eq!(got, payloads.len());
    assert_eq!(dec.pending(), 0);
    assert!(
        held <= 2 * (largest + CHUNK),
        "held {held} bytes for {largest}-byte frames"
    );
}
