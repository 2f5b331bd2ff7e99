//! The frame layer: CRC-framed, length-prefixed byte envelopes.
//!
//! Every protocol message travels in one frame:
//!
//! ```text
//! [len: u32 LE] [payload: len bytes] [crc: u32 LE]
//! ```
//!
//! `len` covers the payload only; `crc` is the CRC-32C (Castagnoli) of the
//! payload (the same codec that frames the WAL, [`terp_persist::crc`]: the
//! `crc32` instruction where the CPU has it), so a flipped bit anywhere in the payload is detected before the message layer
//! ever parses it. Frames larger than [`MAX_FRAME`] are refused outright —
//! a garbage length prefix must not turn into a giant allocation.
//!
//! Decoding is *incremental*: [`FrameDecoder`] consumes arbitrary byte
//! chunks ([`FrameDecoder::read_from`]) exactly as a socket delivers them —
//! partial length prefixes, payloads split across reads, many frames per
//! read — and lends out complete payloads via [`FrameDecoder::next_frame`],
//! borrowed from its buffer rather than copied. Corruption (CRC mismatch,
//! oversized length) is a clean [`FrameError`], never a panic; the
//! connection layer treats it as fatal for the stream.
//!
//! Encoding is in place: [`frame_into`] frames a message whose
//! `encode_into` appends its payload straight into the caller's write
//! buffer, so a batch of messages costs no allocation per message.

use terp_persist::crc::crc32;

/// Hard cap on one frame's payload size (1 MiB). Bounds per-connection
/// memory and converts a torn/garbage length prefix into a protocol error
/// instead of an allocation attempt.
pub const MAX_FRAME: usize = 1 << 20;

/// Bytes of envelope around one payload (length prefix + CRC trailer).
pub const FRAME_OVERHEAD: usize = 8;

/// The bytes the client's outbox queues before it leaves without waiting
/// for a wait to block.
pub(crate) const WRITE_COALESCE: usize = 64 * 1024;

/// A framing violation: the byte stream cannot be parsed into frames.
/// Always connection-fatal — after a framing error the stream offset is
/// unreliable and resynchronization is impossible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLarge {
        /// The advertised payload length.
        len: u32,
    },
    /// The payload failed its CRC check.
    Crc {
        /// CRC recorded in the frame trailer.
        stored: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Crc { stored, computed } => {
                write!(
                    f,
                    "frame CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one payload into a complete frame (`len ∥ payload ∥ crc`).
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME`] — callers build payloads and
/// control their size; an oversized one is a logic error, not input.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    frame_into(&mut out, |o| o.extend_from_slice(payload)).expect("payload exceeds MAX_FRAME");
    out
}

/// Appends one frame to `out` whose payload `write` appends in place — a
/// message's `encode_into` — so a batch of messages is framed straight into
/// the buffer one socket write sends. Returns the payload length. A payload
/// over [`MAX_FRAME`] is taken back out: `out` is left as it was and the
/// error is [`FrameError::TooLarge`].
///
/// ```
/// use terp_net::frame::{frame_into, FrameDecoder};
/// use terp_net::Request;
///
/// let mut out = Vec::new();
/// frame_into(&mut out, |o| Request::Ping.encode_into(7, o)).unwrap();
/// let mut dec = FrameDecoder::new();
/// dec.push(&out);
/// let payload = dec.next_frame().unwrap().expect("one whole frame");
/// assert_eq!(Request::decode(payload).unwrap(), (7, Request::Ping));
/// ```
pub fn frame_into(
    out: &mut Vec<u8>,
    write: impl FnOnce(&mut Vec<u8>),
) -> Result<usize, FrameError> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    write(out);
    let len = out.len() - start - 4;
    if len > MAX_FRAME {
        out.truncate(start);
        return Err(FrameError::TooLarge {
            len: u32::try_from(len).unwrap_or(u32::MAX),
        });
    }
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32(&out[start + 4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(len)
}

/// Incremental frame parser over an arbitrary chunking of the byte stream.
///
/// ```
/// use terp_net::frame::{encode_frame, FrameDecoder};
///
/// let wire = encode_frame(b"hello");
/// let mut dec = FrameDecoder::new();
/// dec.push(&wire[..3]); // torn mid-length-prefix
/// assert_eq!(dec.next_frame().unwrap(), None);
/// dec.push(&wire[3..]);
/// assert_eq!(dec.next_frame().unwrap(), Some(&b"hello"[..]));
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// `buf[..end]` is received bytes, `buf[end..]` zeroed room for more.
    buf: Vec<u8>,
    end: usize,
    /// Consumed prefix of `buf`, dropped by the next push or read once it
    /// is at least as long as what remains.
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes as received from the transport. The payloads
    /// [`FrameDecoder::next_frame`] lent out are consumed here: their bytes
    /// go once they are at least as many as the bytes still pending, so
    /// right after a push the decoder holds at most twice its pending bytes,
    /// and each byte moves O(1) times on average.
    pub fn push(&mut self, bytes: &[u8]) {
        self.room(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One read from `src` straight into 16 KiB or more of room, retried if
    /// interrupted: the bytes read, 0 at the end of the stream.
    pub fn read_from<R: std::io::Read + ?Sized>(&mut self, src: &mut R) -> std::io::Result<usize> {
        loop {
            match src.read(self.room(16 << 10)) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                read => return read.inspect(|n| self.end += n),
            }
        }
    }

    /// Drops the consumed prefix if it is at least as long as what remains,
    /// then the room behind the received bytes, at least `want` long.
    fn room(&mut self, want: usize) -> &mut [u8] {
        if self.pos > 0 && self.pos >= self.end - self.pos {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        self.buf.resize(self.buf.len().max(self.end + want), 0);
        &mut self.buf[self.end..]
    }

    /// Bytes buffered but not yet returned as part of a complete frame.
    pub fn pending(&self) -> usize {
        self.end - self.pos
    }

    /// Bytes the decoder holds, the consumed frames not yet dropped by
    /// [`FrameDecoder::push`] included.
    pub fn buffered(&self) -> usize {
        self.end
    }

    /// The next complete payload, borrowed from the decoder until the next
    /// call; `Ok(None)` while more bytes are needed, or a [`FrameError`] on
    /// corruption (fatal: the decoder must be discarded with its
    /// connection).
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let avail = &self.buf[self.pos..self.end];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            return Err(FrameError::TooLarge { len: len as u32 });
        }
        if avail.len() < len + FRAME_OVERHEAD {
            return Ok(None);
        }
        let payload = &avail[4..4 + len];
        let stored = u32::from_le_bytes(avail[4 + len..4 + len + 4].try_into().expect("4 bytes"));
        let computed = crc32(payload);
        if stored != computed {
            return Err(FrameError::Crc { stored, computed });
        }
        let start = self.pos + 4;
        self.pos += len + FRAME_OVERHEAD;
        Ok(Some(&self.buf[start..start + len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{self, Read};

    #[test]
    fn roundtrip_single_and_back_to_back() {
        let mut dec = FrameDecoder::new();
        let mut wire = encode_frame(b"first");
        wire.extend_from_slice(&encode_frame(b""));
        wire.extend_from_slice(&encode_frame(&[0xAB; 1000]));
        dec.push(&wire);
        assert_eq!(dec.next_frame().unwrap(), Some(&b"first"[..]));
        assert_eq!(dec.next_frame().unwrap(), Some(&b""[..]));
        assert_eq!(dec.next_frame().unwrap(), Some(&[0xAB; 1000][..]));
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let wire = encode_frame(b"drip");
        let mut dec = FrameDecoder::new();
        for &b in &wire[..wire.len() - 1] {
            dec.push(&[b]);
            assert_eq!(dec.next_frame().unwrap(), None);
        }
        dec.push(&wire[wire.len() - 1..]);
        assert_eq!(dec.next_frame().unwrap(), Some(&b"drip"[..]));
    }

    #[test]
    fn crc_corruption_is_a_clean_error() {
        let mut wire = encode_frame(b"payload");
        wire[6] ^= 0x40; // flip one payload bit
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert!(matches!(dec.next_frame(), Err(FrameError::Crc { .. })));
    }

    #[test]
    fn oversized_length_prefix_is_refused() {
        let mut dec = FrameDecoder::new();
        dec.push(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::TooLarge {
                len: MAX_FRAME as u32 + 1
            })
        );
    }

    #[test]
    fn an_oversized_payload_is_taken_back_out() {
        let mut out = encode_frame(b"kept");
        let before = out.clone();
        let err = frame_into(&mut out, |o| o.resize(o.len() + MAX_FRAME + 1, 0));
        assert_eq!(
            err,
            Err(FrameError::TooLarge {
                len: MAX_FRAME as u32 + 1
            })
        );
        assert_eq!(out, before);
        assert_eq!(frame_into(&mut out, |o| o.push(9)), Ok(1));
        let mut dec = FrameDecoder::new();
        dec.push(&out);
        assert_eq!(dec.next_frame().unwrap(), Some(&b"kept"[..]));
        assert_eq!(dec.next_frame().unwrap(), Some(&[9][..]));
    }

    /// Yields its bytes one per read, then one `Interrupted`, then EOF.
    struct Drip {
        bytes: Vec<u8>,
        at: usize,
        interrupted: bool,
    }

    impl Read for Drip {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if let Some(&b) = self.bytes.get(self.at) {
                buf[0] = b;
                self.at += 1;
                return Ok(1);
            }
            if !self.interrupted {
                self.interrupted = true;
                return Err(io::ErrorKind::Interrupted.into());
            }
            Ok(0)
        }
    }

    #[test]
    fn read_from_takes_one_byte_reads_retries_an_interrupt_and_sees_eof() {
        let mut wire = encode_frame(b"first");
        wire.extend_from_slice(&encode_frame(b"second"));
        let mut src = Drip {
            bytes: wire.clone(),
            at: 0,
            interrupted: false,
        };
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for _ in 0..wire.len() {
            assert_eq!(dec.read_from(&mut src).unwrap(), 1);
            while let Some(p) = dec.next_frame().unwrap() {
                got.push(p.to_vec());
            }
        }
        assert_eq!(got, [b"first".to_vec(), b"second".to_vec()]);
        assert_eq!(dec.read_from(&mut src).unwrap(), 0, "retried, then EOF");
        assert!(src.interrupted);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn compaction_preserves_stream_position() {
        let mut dec = FrameDecoder::new();
        // Enough traffic to trigger compaction several times.
        for i in 0..100u32 {
            let payload = vec![i as u8; 200];
            dec.push(&encode_frame(&payload));
            assert_eq!(dec.next_frame().unwrap(), Some(&payload[..]));
        }
        assert_eq!(dec.pending(), 0);
    }
}
