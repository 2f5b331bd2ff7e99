//! WAL record types and their CRC-framed binary encoding.
//!
//! The log is a byte stream of frames:
//!
//! ```text
//! frame   := [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! payload := [seq: u64 LE] [tag: u8] [fields…]
//! ```
//!
//! `crc` is the CRC-32C of the payload, so a frame is valid iff its length
//! fits the remaining bytes *and* its checksum matches.
//!
//! **A log is valid frames, then zeros** — the writer reserves its file in
//! zero-filled blocks and truncates by zeroing — and it ends in one of three
//! ways, decided here for everything that reads one:
//!
//! * an 8-byte header of zeros is the *clean* end: no legal frame has
//!   `len == 0` (a payload is at least seq + tag), so what follows is
//!   reservation, never read;
//! * a frame whose length, checksum or payload fails is a *torn* tail: the
//!   crash landed mid-frame, or the media lied — the two are treated
//!   identically, everything from the first bad byte onward is discarded,
//!   exactly the contract group commit gives (records are durable in log
//!   order; a suffix may be lost);
//! * in a write-ahead log, a frame whose sequence number is not greater
//!   than its predecessor's is torn too: a log's numbers only grow, so it is
//!   *stale* — a whole frame of an earlier generation, not a successor.
//!   (The frames of one `ckpt.log` batch share a sequence number and are
//!   read without this rule; that file is never recycled.)
//!
//! The rules say where a log ends, not what lies behind the end, and a crash
//! can leave whole frames behind the zeros. Those of a zeroing cut short
//! carry numbers below every later one: the third rule stops an append that
//! runs into one from making it the log's next frame. Those of a
//! multi-sector write that lost its first sector carry numbers the next open
//! assigns again, so no rule here can tell them from successors; the writer
//! zeroes them before its first write lands ([`crate::wal`]). Readers need
//! only never read past the end, which they do not.
//!
//! A stream that simply stops on a frame boundary (a file that was never
//! reserved, an in-memory image) is the same shape with a zero-length tail.
//!
//! The log records two kinds of events, which is the point of the TERP
//! persist layer: *data* mutations (`PoolCreate`/`Alloc`/`Free`/`DataWrite`)
//! and *protection-state* mutations (`WindowOpen`/`WindowClose` for the
//! process exposure window). Recovery replays the first kind to rebuild pool
//! bytes and the second kind to learn which exposure windows were open at
//! crash time — those must be force-closed and re-randomized, never resumed.
//! Client sessions (per-client grants) are not logged: recovery resurrects
//! none, so there is nothing for a record of one to restore.

use std::io::{self, Read};
use std::marker::PhantomData;

use terp_pmo::{OpenMode, PmoId};

use crate::crc::crc32;
use crate::error::PersistError;
use crate::reader::Reader;

/// Frame header size: length + checksum.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on one payload; frames claiming more are invalid (protects
/// the decoder from allocating on a garbage length field).
pub const MAX_PAYLOAD: usize = 16 << 20;

/// One write-ahead-log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A pool was created (logged with its assigned id so replay restores
    /// identical ids and relocatable ObjectIDs stay valid).
    PoolCreate {
        /// Assigned pool id.
        id: PmoId,
        /// Registry name.
        name: String,
        /// Data-area size in bytes.
        size: u64,
        /// Open mode.
        mode: OpenMode,
    },
    /// `pmalloc` succeeded; the offset is logged so replay can verify it
    /// reproduces the allocator decision.
    Alloc {
        /// Pool allocated from.
        pmo: PmoId,
        /// Requested size in bytes.
        size: u64,
        /// Offset the allocator returned.
        offset: u64,
    },
    /// `pfree` of the allocation starting at `offset`.
    Free {
        /// Pool freed into.
        pmo: PmoId,
        /// Offset of the freed allocation.
        offset: u64,
    },
    /// Raw bytes written to the pool data area.
    DataWrite {
        /// Pool written.
        pmo: PmoId,
        /// Byte offset of the write.
        offset: u64,
        /// The bytes written.
        data: Vec<u8>,
    },
    /// Protection state: the pool was mapped — a process exposure window
    /// opened.
    WindowOpen {
        /// Pool mapped.
        pmo: PmoId,
    },
    /// Protection state: the pool was unmapped — the window closed.
    WindowClose {
        /// Pool unmapped.
        pmo: PmoId,
    },
    /// A checkpoint at this record's sequence number, whose image is the
    /// first `ckpt_len` bytes of the checkpoint log, this frame's own copy
    /// there included. Appended (and synced) to the WAL when the checkpoint
    /// begins; written again as the frame that closes — and commits — the
    /// checkpoint's batch in `ckpt.log`; and a third time at offset 0 of the
    /// WAL the checkpoint truncates, which it then opens.
    Checkpoint {
        /// Length of `ckpt.log` through this checkpoint's closing frame.
        ckpt_len: u64,
    },
    /// A typed root-directory entry: data-structure root `key` in pool
    /// `pmo` now points at the object with packed id `oid` (0 clears the
    /// entry). The checkpoint image captures pool *bytes* only, so without
    /// this record a recovered registry has no way to find a persistent
    /// structure's root again — the root directory is replayed
    /// last-writer-wins and carried across every checkpoint truncation in
    /// the checkpoint's batch.
    RootSet {
        /// Pool the root lives in.
        pmo: PmoId,
        /// Application-chosen root slot (e.g. one per data structure).
        key: u32,
        /// Packed [`terp_pmo::ObjectId`] (`ObjectId::to_packed`), or 0 to
        /// clear the slot.
        oid: u64,
    },
    /// Checkpoint record: the full current contents of one data page.
    /// Unlike [`WalRecord::DataWrite`] (a byte-range delta in operation
    /// order), a `PageDelta` is absolute and page-aligned — replay writes
    /// the bytes at `page * PAGE_SIZE`, after checking that the page lies
    /// inside the pool. A checkpoint emits one per page of its page set
    /// into the checkpoint log (`ckpt.log`), which recovery replays before
    /// the WAL proper.
    PageDelta {
        /// Pool the page belongs to.
        pmo: PmoId,
        /// Page index (byte offset is `page * terp_pmo::PAGE_SIZE`).
        page: u64,
        /// The page's bytes at checkpoint time.
        data: Vec<u8>,
    },
    /// Checkpoint record: the pool's complete allocator live-block list at
    /// checkpoint time. Replay restores the allocator
    /// absolutely (idempotent) and raises the pool's replay watermark to
    /// this record's sequence number, so data records the checkpoint
    /// already reflects are skipped instead of double-applied.
    AllocTable {
        /// Pool whose allocator is captured.
        pmo: PmoId,
        /// Live blocks, `(offset, len)` in address order.
        live: Vec<(u64, u64)>,
    },
}

fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(data);
}

/// The fields of a [`WalRecord::PageDelta`].
fn put_page(out: &mut Vec<u8>, pmo: PmoId, page: u64, data: &[u8]) {
    out.extend_from_slice(&pmo.raw().to_le_bytes());
    out.extend_from_slice(&page.to_le_bytes());
    put_bytes(out, data);
}

const TAG_PAGE_DELTA: u8 = 12;

/// Bytes of a [`WalRecord::Checkpoint`] frame, whatever its fields hold:
/// header, seq, tag, `ckpt_len`.
pub(crate) const CHECKPOINT_FRAME: usize = FRAME_HEADER + 8 + 1 + 8;

fn mode_byte(mode: OpenMode) -> u8 {
    match mode {
        OpenMode::ReadOnly => 0,
        OpenMode::ReadWrite => 1,
    }
}

impl WalRecord {
    fn tag(&self) -> u8 {
        match self {
            WalRecord::PoolCreate { .. } => 1,
            WalRecord::Alloc { .. } => 2,
            WalRecord::Free { .. } => 3,
            WalRecord::DataWrite { .. } => 4,
            WalRecord::WindowOpen { .. } => 7,
            WalRecord::WindowClose { .. } => 8,
            WalRecord::Checkpoint { .. } => 10,
            WalRecord::RootSet { .. } => 11,
            WalRecord::PageDelta { .. } => TAG_PAGE_DELTA,
            WalRecord::AllocTable { .. } => 13,
        }
    }

    /// Pool the record concerns, if any.
    pub fn pmo(&self) -> Option<PmoId> {
        match self {
            WalRecord::PoolCreate { id, .. } => Some(*id),
            WalRecord::Alloc { pmo, .. }
            | WalRecord::Free { pmo, .. }
            | WalRecord::DataWrite { pmo, .. }
            | WalRecord::WindowOpen { pmo }
            | WalRecord::WindowClose { pmo }
            | WalRecord::RootSet { pmo, .. }
            | WalRecord::PageDelta { pmo, .. }
            | WalRecord::AllocTable { pmo, .. } => Some(*pmo),
            WalRecord::Checkpoint { .. } => None,
        }
    }

    /// Whether the record is protection state — what a checkpoint's
    /// protection snapshot replaces wholesale — rather than pool data or a
    /// checkpoint marker.
    pub(crate) fn is_protection(&self) -> bool {
        matches!(
            self,
            WalRecord::WindowOpen { .. }
                | WalRecord::WindowClose { .. }
                | WalRecord::RootSet { .. }
        )
    }

    /// Encodes one CRC-framed record with sequence number `seq`.
    pub fn encode(&self, seq: u64) -> Vec<u8> {
        let mut frame = Vec::with_capacity(FRAME_HEADER + 32);
        self.encode_into(seq, &mut frame);
        frame
    }

    /// Encodes one CRC-framed record directly onto the end of `out` —
    /// the allocation-free variant of [`Self::encode`] that group-commit
    /// submitters use to coalesce frames into a shared batch buffer. The
    /// frame header (length + CRC) is back-filled once the payload length
    /// is known.
    pub fn encode_into(&self, seq: u64, out: &mut Vec<u8>) {
        frame(seq, self.tag(), out, |payload| match self {
            WalRecord::PoolCreate {
                id,
                name,
                size,
                mode,
            } => {
                payload.extend_from_slice(&id.raw().to_le_bytes());
                put_bytes(payload, name.as_bytes());
                payload.extend_from_slice(&size.to_le_bytes());
                payload.push(mode_byte(*mode));
            }
            WalRecord::Alloc { pmo, size, offset } => {
                payload.extend_from_slice(&pmo.raw().to_le_bytes());
                payload.extend_from_slice(&size.to_le_bytes());
                payload.extend_from_slice(&offset.to_le_bytes());
            }
            WalRecord::Free { pmo, offset } => {
                payload.extend_from_slice(&pmo.raw().to_le_bytes());
                payload.extend_from_slice(&offset.to_le_bytes());
            }
            WalRecord::DataWrite { pmo, offset, data } => {
                payload.extend_from_slice(&pmo.raw().to_le_bytes());
                payload.extend_from_slice(&offset.to_le_bytes());
                put_bytes(payload, data);
            }
            WalRecord::WindowOpen { pmo } | WalRecord::WindowClose { pmo } => {
                payload.extend_from_slice(&pmo.raw().to_le_bytes());
            }
            WalRecord::Checkpoint { ckpt_len } => {
                payload.extend_from_slice(&ckpt_len.to_le_bytes());
            }
            WalRecord::RootSet { pmo, key, oid } => {
                payload.extend_from_slice(&pmo.raw().to_le_bytes());
                payload.extend_from_slice(&key.to_le_bytes());
                payload.extend_from_slice(&oid.to_le_bytes());
            }
            WalRecord::PageDelta { pmo, page, data } => put_page(payload, *pmo, *page, data),
            WalRecord::AllocTable { pmo, live } => {
                payload.extend_from_slice(&pmo.raw().to_le_bytes());
                payload.extend_from_slice(&(live.len() as u32).to_le_bytes());
                for (off, len) in live {
                    payload.extend_from_slice(&off.to_le_bytes());
                    payload.extend_from_slice(&len.to_le_bytes());
                }
            }
        });
    }

    /// Encodes the frame of a [`WalRecord::PageDelta`] straight from the
    /// page's bytes — what [`Self::encode_into`] writes for the record,
    /// without building it (and copying the page) first.
    pub(crate) fn encode_page_delta(
        pmo: PmoId,
        page: u64,
        data: &[u8],
        seq: u64,
        out: &mut Vec<u8>,
    ) {
        frame(seq, TAG_PAGE_DELTA, out, |payload| {
            put_page(payload, pmo, page, data)
        });
    }
}

/// Appends one frame to `out`: `seq`, `tag` and whatever `fields` writes
/// are the payload; the header (length + CRC) is back-filled once the
/// payload length is known.
fn frame(seq: u64, tag: u8, out: &mut Vec<u8>, fields: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    out.extend_from_slice(&seq.to_le_bytes());
    out.push(tag);
    fields(out);
    let len = out.len() - start - FRAME_HEADER;
    let crc = crc32(&out[start + FRAME_HEADER..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..start + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// A pool id field.
fn pmo(r: &mut Reader<'_>) -> Option<PmoId> {
    PmoId::new(r.u16().ok()?)
}

/// A `u32`-length-prefixed byte field.
fn bytes<'a>(r: &mut Reader<'a>) -> Option<&'a [u8]> {
    let len = r.u32().ok()?;
    r.take(len as usize).ok()
}

/// A record's fields as they lie in its checksummed payload: the byte
/// fields borrowed, everything else decoded whole. Validating a frame goes
/// this far and copies nothing; the [`Keep`] of [`WalRecord`] copies the
/// rest.
enum RecordRef<'a> {
    /// A record without a byte field.
    Plain(WalRecord),
    PoolCreate {
        id: PmoId,
        name: &'a str,
        size: u64,
        mode: OpenMode,
    },
    DataWrite {
        pmo: PmoId,
        offset: u64,
        data: &'a [u8],
    },
    PageDelta {
        pmo: PmoId,
        page: u64,
        data: &'a [u8],
    },
    /// `live` holds the `(offset, len)` pairs, 16 bytes each.
    AllocTable { pmo: PmoId, live: &'a [u8] },
}

impl RecordRef<'_> {
    #[inline(always)]
    fn into_owned(self) -> WalRecord {
        match self {
            RecordRef::Plain(record) => record,
            RecordRef::PoolCreate {
                id,
                name,
                size,
                mode,
            } => WalRecord::PoolCreate {
                id,
                name: name.to_string(),
                size,
                mode,
            },
            RecordRef::DataWrite { pmo, offset, data } => WalRecord::DataWrite {
                pmo,
                offset,
                data: data.to_vec(),
            },
            RecordRef::PageDelta { pmo, page, data } => WalRecord::PageDelta {
                pmo,
                page,
                data: data.to_vec(),
            },
            RecordRef::AllocTable { pmo, live } => WalRecord::AllocTable {
                pmo,
                live: live
                    .chunks_exact(16)
                    .map(|pair| {
                        let (off, len) = pair.split_at(8);
                        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8"));
                        (word(off), word(len))
                    })
                    .collect(),
            },
        }
    }
}

/// Parses one checksummed payload; `None` when it is structurally invalid
/// (a reader error, an unknown tag or enum byte, trailing bytes). Inlined,
/// with [`RecordRef::into_owned`], into each [`Keep`]: a restart then builds
/// each record in place, with no view in between (measured: without it a
/// WAL replay decodes several per cent slower).
#[inline(always)]
fn parse_payload(payload: &[u8]) -> Option<(u64, RecordRef<'_>)> {
    let mut r = Reader::new(payload);
    let seq = r.u64().ok()?;
    let tag = r.u8().ok()?;
    let record = match tag {
        1 => {
            let id = pmo(&mut r)?;
            let name = std::str::from_utf8(bytes(&mut r)?).ok()?;
            let size = r.u64().ok()?;
            let mode = match r.u8().ok()? {
                0 => OpenMode::ReadOnly,
                1 => OpenMode::ReadWrite,
                _ => return None,
            };
            RecordRef::PoolCreate {
                id,
                name,
                size,
                mode,
            }
        }
        2 => RecordRef::Plain(WalRecord::Alloc {
            pmo: pmo(&mut r)?,
            size: r.u64().ok()?,
            offset: r.u64().ok()?,
        }),
        3 => RecordRef::Plain(WalRecord::Free {
            pmo: pmo(&mut r)?,
            offset: r.u64().ok()?,
        }),
        4 => RecordRef::DataWrite {
            pmo: pmo(&mut r)?,
            offset: r.u64().ok()?,
            data: bytes(&mut r)?,
        },
        7 => RecordRef::Plain(WalRecord::WindowOpen { pmo: pmo(&mut r)? }),
        8 => RecordRef::Plain(WalRecord::WindowClose { pmo: pmo(&mut r)? }),
        10 => RecordRef::Plain(WalRecord::Checkpoint {
            ckpt_len: r.u64().ok()?,
        }),
        11 => RecordRef::Plain(WalRecord::RootSet {
            pmo: pmo(&mut r)?,
            key: r.u32().ok()?,
            oid: r.u64().ok()?,
        }),
        TAG_PAGE_DELTA => RecordRef::PageDelta {
            pmo: pmo(&mut r)?,
            page: r.u64().ok()?,
            data: bytes(&mut r)?,
        },
        13 => {
            let pmo = pmo(&mut r)?;
            let count = r.u32().ok()? as usize;
            let live = r.take(count.checked_mul(16)?).ok()?;
            RecordRef::AllocTable { pmo, live }
        }
        _ => return None,
    };
    // No trailing garbage inside a checksummed frame.
    r.finish().ok()?;
    Some((seq, record))
}

/// What a reader keeps of each valid frame, decoded from its checksummed
/// payload together with its sequence number; `None` when the payload is
/// structurally invalid.
pub(crate) trait Keep: Sized {
    fn keep(payload: &[u8]) -> Option<(u64, Self)>;
}

/// The whole record, copied out of its frame.
impl Keep for WalRecord {
    fn keep(payload: &[u8]) -> Option<(u64, Self)> {
        parse_payload(payload).map(|(seq, record)| (seq, record.into_owned()))
    }
}

/// The `ckpt_len` of a checkpoint marker, nothing of any other record: the
/// frame is validated as for the whole record, and copied nowhere.
impl Keep for Option<u64> {
    fn keep(payload: &[u8]) -> Option<(u64, Self)> {
        parse_payload(payload).map(|(seq, record)| match record {
            RecordRef::Plain(WalRecord::Checkpoint { ckpt_len }) => (seq, Some(ckpt_len)),
            _ => (seq, None),
        })
    }
}

/// How a log ended (see the module docs for the three rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LogEnd {
    /// On a frame boundary: a header of zeros, or the end of the stream.
    Clean,
    /// In a frame that is cut short, damaged or stale.
    Torn,
}

/// The decoded prefix of a log byte stream.
#[derive(Debug)]
pub struct LogContents {
    /// Valid records in log order, with their sequence numbers.
    pub records: Vec<(u64, WalRecord)>,
    /// Bytes consumed by valid frames.
    pub consumed: usize,
    /// Bytes discarded behind a torn end: from the first invalid frame
    /// through the last non-zero byte (0 for a clean log — the zeros of a
    /// reservation are not part of the log).
    pub dropped: usize,
}

impl LogContents {
    /// Whether the log ended cleanly, with no torn tail.
    pub fn is_clean(&self) -> bool {
        self.dropped == 0
    }

    /// Sequence number of the last valid record, if any.
    pub fn last_seq(&self) -> Option<u64> {
        self.records.last().map(|(seq, _)| *seq)
    }
}

/// Sequence number of the frame `bytes` starts with, read without
/// checking the frame (`None` when fewer than 16 bytes are there, or when
/// they open with the header of zeros that ends a log).
/// Sequence numbers keep growing across truncation, so the first frame's names
/// the *generation* of a log file: it changes exactly when the file is
/// truncated behind a new checkpoint marker (the WAL) or replaced by rename
/// (`ckpt.log`).
pub fn first_seq(bytes: &[u8]) -> Option<u64> {
    let seq = bytes.get(FRAME_HEADER..FRAME_HEADER + 8)?;
    if bytes[..FRAME_HEADER] == [0; FRAME_HEADER] {
        return None;
    }
    Some(u64::from_le_bytes(seq.try_into().expect("8")))
}

/// What a log holds at some position: a frame's record is what the
/// [`FrameDecoder`] keeps of it.
pub(crate) enum Step<T = WalRecord> {
    /// A valid frame of `len` bytes (header included).
    Frame { seq: u64, record: T, len: usize },
    /// The log ends here.
    End(LogEnd),
}

/// The end-of-log rule, one frame at a time.
#[derive(Debug)]
pub(crate) struct FrameDecoder<T = WalRecord> {
    /// Sequence number of the last frame accepted; `None` before the first.
    last_seq: Option<u64>,
    /// Whether a frame must carry a higher sequence number than the last.
    increasing: bool,
    keep: PhantomData<T>,
}

impl FrameDecoder {
    /// For a write-ahead log whose last frame before this position carried
    /// `after`: sequence numbers strictly increase.
    pub(crate) fn wal(after: Option<u64>) -> Self {
        FrameDecoder {
            last_seq: after,
            increasing: true,
            keep: PhantomData,
        }
    }

    /// For `ckpt.log`, whose batches share a sequence number each.
    pub(crate) fn image() -> Self {
        FrameDecoder {
            last_seq: None,
            increasing: false,
            keep: PhantomData,
        }
    }

    /// The same rule, keeping of each frame only the `ckpt_len` of a
    /// checkpoint marker: frames are validated whole and copied nowhere.
    pub(crate) fn markers(self) -> FrameDecoder<Option<u64>> {
        FrameDecoder {
            last_seq: self.last_seq,
            increasing: self.increasing,
            keep: PhantomData,
        }
    }
}

impl<T: Keep> FrameDecoder<T> {
    /// Decodes the frame `window` starts with. `None`: undecided until the
    /// window holds more bytes — at the end of the stream that is an end
    /// too, clean if what is left is zeros (fewer than a header's worth),
    /// torn otherwise.
    pub(crate) fn step(&mut self, window: &[u8]) -> Option<Step<T>> {
        let header = window.get(..FRAME_HEADER)?;
        if header == [0; FRAME_HEADER] {
            return Some(Step::End(LogEnd::Clean));
        }
        let len = u32::from_le_bytes(header[..4].try_into().expect("4")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4"));
        if len > MAX_PAYLOAD {
            return Some(Step::End(LogEnd::Torn)); // no frame is this long
        }
        let payload = window.get(FRAME_HEADER..FRAME_HEADER + len)?;
        if crc32(payload) != crc {
            return Some(Step::End(LogEnd::Torn)); // cut short or corrupted
        }
        // Checksum ok but structurally invalid is treated as torn as well.
        let Some((seq, record)) = T::keep(payload) else {
            return Some(Step::End(LogEnd::Torn));
        };
        if self.increasing && self.last_seq.is_some_and(|last| seq <= last) {
            return Some(Step::End(LogEnd::Torn)); // stale: an earlier generation's
        }
        self.last_seq = Some(seq);
        Some(Step::Frame {
            seq,
            record,
            len: FRAME_HEADER + len,
        })
    }
}

/// Bytes from the start of `tail` through its last non-zero byte. Compares a
/// page at a time from the back — this runs over whole reservations — and
/// looks at single bytes only inside the page that differs.
fn through_last_nonzero(tail: &[u8]) -> usize {
    static ZERO_PAGE: [u8; 4096] = [0; 4096];
    let mut end = tail.len();
    while end > 0 {
        let start = end.saturating_sub(ZERO_PAGE.len());
        let page = &tail[start..end];
        if page != &ZERO_PAGE[..page.len()] {
            let last = page.iter().rposition(|&b| b != 0).expect("not all zeros");
            return start + last + 1;
        }
        end = start;
    }
    0
}

/// Reads `src` to its end in [`READ_CHUNK`]s: how many bytes lie between
/// its position and its last non-zero byte, inclusive, and how many were
/// read.
pub(crate) fn nonzero_extent(mut src: impl Read) -> io::Result<(u64, u64)> {
    let mut buf = vec![0u8; READ_CHUNK];
    let (mut extent, mut read) = (0u64, 0u64);
    loop {
        let n = src.read(&mut buf)?;
        if n == 0 {
            return Ok((extent, read));
        }
        if let found @ 1.. = through_last_nonzero(&buf[..n]) {
            extent = read + found as u64;
        }
        read += n as u64;
    }
}

/// The frames of an image held in memory, decoded where they lie: the same
/// [`FrameDecoder::step`] a [`FrameStream`] takes, without the copy into
/// its read buffer.
fn decode_stream(bytes: &[u8], mut decoder: FrameDecoder) -> LogContents {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let end = loop {
        match decoder.step(&bytes[pos..]) {
            Some(Step::Frame { seq, record, len }) => {
                records.push((seq, record));
                pos += len;
            }
            Some(Step::End(end)) => break end,
            // Zeros short of a header drop nothing and so read as clean.
            None => break LogEnd::Torn,
        }
    };
    LogContents {
        records,
        consumed: pos,
        dropped: match end {
            LogEnd::Clean => 0,
            LogEnd::Torn => through_last_nonzero(&bytes[pos..]),
        },
    }
}

/// Decodes a write-ahead log image up to where it ends: a header of zeros,
/// the end of `bytes`, or the first torn or stale frame.
pub fn read_log(bytes: &[u8]) -> LogContents {
    decode_stream(bytes, FrameDecoder::wal(None))
}

/// Largest single read a [`FrameStream`] issues. The first is
/// [`FIRST_READ`] and they double up to this: a poll of a log with nothing
/// new costs a page, a restart reads in chunks that amortize the calls.
pub(crate) const READ_CHUNK: usize = 64 << 10;
const FIRST_READ: usize = 4 << 10;

/// Streams the frames of a log out of a reader in bounded reads: at most
/// [`READ_CHUNK`] bytes at a time, and nothing past the chunk holding the
/// header that ends the log — a reservation of any size behind it is never
/// read. The buffer holds one chunk, or one frame when a frame is longer;
/// it grows with the bytes that actually arrive, never with what a length
/// field claims.
#[derive(Debug)]
pub(crate) struct FrameStream<R, T = WalRecord> {
    src: R,
    decoder: FrameDecoder<T>,
    buf: Vec<u8>,
    /// First undecoded byte of `buf`.
    head: usize,
    /// Size of the next read.
    chunk: usize,
    eof: bool,
    /// Bytes of valid frames decoded so far.
    pub(crate) consumed: u64,
    /// Bytes read from `src` so far.
    pub(crate) bytes_read: u64,
    /// Frames decoded so far.
    pub(crate) frames: u64,
}

impl<R: Read, T: Keep> FrameStream<R, T> {
    /// A stream over `src`, which is positioned on a frame boundary.
    pub(crate) fn new(src: R, decoder: FrameDecoder<T>) -> Self {
        FrameStream {
            src,
            decoder,
            buf: Vec::new(),
            head: 0,
            chunk: FIRST_READ,
            eof: false,
            consumed: 0,
            bytes_read: 0,
            frames: 0,
        }
    }

    /// Sequence number of the last frame returned.
    pub(crate) fn last_seq(&self) -> Option<u64> {
        self.decoder.last_seq
    }

    /// Drops the decoded prefix of the buffer and reads one more chunk
    /// behind what is left.
    fn fill(&mut self) -> io::Result<()> {
        self.buf.drain(..self.head);
        self.head = 0;
        let old = self.buf.len();
        self.buf.resize(old + self.chunk, 0);
        self.chunk = (2 * self.chunk).min(READ_CHUNK);
        let n = self.src.read(&mut self.buf[old..])?;
        self.buf.truncate(old + n);
        self.bytes_read += n as u64;
        self.eof = n == 0;
        Ok(())
    }

    /// The next frame (its raw bytes are [`Self::frame_bytes`]), or how the
    /// log ends.
    pub(crate) fn next(&mut self) -> io::Result<Step<T>> {
        loop {
            let window = &self.buf[self.head..];
            match self.decoder.step(window) {
                Some(Step::Frame { seq, record, len }) => {
                    self.head += len;
                    self.consumed += len as u64;
                    self.frames += 1;
                    return Ok(Step::Frame { seq, record, len });
                }
                Some(end) => return Ok(end),
                None if self.eof => {
                    return Ok(Step::End(if through_last_nonzero(window) == 0 {
                        LogEnd::Clean
                    } else {
                        LogEnd::Torn
                    }));
                }
                None => self.fill()?,
            }
        }
    }

    /// The raw bytes of the frame of `len` bytes [`Self::next`] just
    /// returned.
    pub(crate) fn frame_bytes(&self, len: usize) -> &[u8] {
        &self.buf[self.head - len..self.head]
    }

    /// After a torn end: how many bytes lie between it and the last
    /// non-zero byte of the stream, inclusive — the debris a writer must
    /// zero before it appends behind the valid frames. Reads the rest of
    /// the stream; a crash leaves this to do, a clean log never.
    fn debris_len(&mut self) -> io::Result<u64> {
        let window = &self.buf[self.head..];
        let (behind, read) = nonzero_extent(&mut self.src)?;
        self.bytes_read += read;
        Ok(match behind {
            0 => through_last_nonzero(window) as u64,
            n => window.len() as u64 + n,
        })
    }
}

impl<R: Read> FrameStream<R> {
    /// Decodes the log to its end, handing each record to `apply`: the one
    /// pass a restart makes over a write-ahead log, whoever drives it.
    pub(crate) fn drain(
        mut self,
        mut apply: impl FnMut(u64, WalRecord) -> Result<(), PersistError>,
    ) -> Result<LogScan, PersistError> {
        let end = loop {
            match self.next()? {
                Step::Frame { seq, record, .. } => apply(seq, record)?,
                Step::End(end) => break end,
            }
        };
        Ok(LogScan {
            consumed: self.consumed,
            dropped: match end {
                LogEnd::Clean => 0,
                LogEnd::Torn => self.debris_len()?,
            },
            frames: self.frames,
            last_seq: self.last_seq(),
            bytes_read: self.bytes_read,
        })
    }
}

/// What one pass over a write-ahead log found ([`FrameStream::drain`]).
#[derive(Debug)]
pub(crate) struct LogScan {
    /// Bytes of valid frames: where a writer appends.
    pub(crate) consumed: u64,
    /// Bytes of debris behind a torn end: from the first invalid frame
    /// through the last non-zero byte of the stream.
    pub(crate) dropped: u64,
    /// Frames decoded, each once.
    pub(crate) frames: u64,
    /// Bytes read from the stream.
    pub(crate) bytes_read: u64,
    /// Sequence number of the last valid frame.
    pub(crate) last_seq: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        let p = PmoId::new(7).unwrap();
        vec![
            WalRecord::PoolCreate {
                id: p,
                name: "ledger".into(),
                size: 1 << 20,
                mode: OpenMode::ReadWrite,
            },
            WalRecord::Alloc {
                pmo: p,
                size: 64,
                offset: 0,
            },
            WalRecord::DataWrite {
                pmo: p,
                offset: 0,
                data: b"hello".to_vec(),
            },
            WalRecord::WindowOpen { pmo: p },
            WalRecord::WindowClose { pmo: p },
            WalRecord::Free { pmo: p, offset: 0 },
            WalRecord::RootSet {
                pmo: p,
                key: 2,
                oid: 0x001C_0000_0000_0040,
            },
            WalRecord::PageDelta {
                pmo: p,
                page: 3,
                data: vec![0x5A; 4096],
            },
            WalRecord::AllocTable {
                pmo: p,
                live: vec![(0, 64), (4096, 512)],
            },
            WalRecord::Checkpoint { ckpt_len: 4242 },
        ]
    }

    fn encode_all(records: &[WalRecord]) -> Vec<u8> {
        let mut log = Vec::new();
        for (seq, r) in records.iter().enumerate() {
            log.extend_from_slice(&r.encode(seq as u64));
        }
        log
    }

    #[test]
    fn round_trip_every_record_kind() {
        let records = sample_records();
        let log = encode_all(&records);
        let decoded = read_log(&log);
        assert!(decoded.is_clean());
        assert_eq!(decoded.consumed, log.len());
        assert_eq!(decoded.records.len(), records.len());
        for (i, (seq, rec)) in decoded.records.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(rec, &records[i]);
        }
        for ckpt_len in [0, u64::MAX] {
            let marker = WalRecord::Checkpoint { ckpt_len }.encode(u64::MAX);
            assert_eq!(marker.len(), CHECKPOINT_FRAME);
        }
    }

    #[test]
    fn page_delta_framed_from_a_slice_is_the_records_own_encoding() {
        let p = PmoId::new(7).unwrap();
        for data in [&[][..], &[0xA5; 1][..], &[0x5A; 4096][..]] {
            // Onto a non-empty buffer: the back-fill must find its own frame.
            let (mut direct, mut owned) = (vec![1, 2, 3], vec![1, 2, 3]);
            WalRecord::encode_page_delta(p, 3, data, 99, &mut direct);
            let record = WalRecord::PageDelta {
                pmo: p,
                page: 3,
                data: data.to_vec(),
            };
            record.encode_into(99, &mut owned);
            assert_eq!(direct, owned);
            assert_eq!(read_log(&direct[3..]).records, [(99, record)]);
        }
    }

    #[test]
    fn truncation_at_any_byte_keeps_a_valid_prefix() {
        let records = sample_records();
        let log = encode_all(&records);
        for cut in 0..log.len() {
            let decoded = read_log(&log[..cut]);
            assert!(decoded.records.len() <= records.len());
            for (i, (_, rec)) in decoded.records.iter().enumerate() {
                assert_eq!(rec, &records[i], "cut at {cut}: prefix must be exact");
            }
            // What is dropped runs from the first bad byte through the last
            // non-zero one: zeros behind it are tail, not log.
            let tail = &log[decoded.consumed..cut];
            assert_eq!(decoded.dropped, through_last_nonzero(tail), "cut at {cut}");
            assert_eq!(decoded.is_clean(), tail.iter().all(|&b| b == 0));
        }
        // Full log, no truncation: everything decodes.
        assert_eq!(read_log(&log).records.len(), records.len());
    }

    #[test]
    fn corruption_stops_decoding_at_the_corrupt_frame() {
        let records = sample_records();
        let log = encode_all(&records);
        for victim in 0..log.len() {
            let mut bad = log.clone();
            bad[victim] ^= 0x40;
            let decoded = read_log(&bad);
            // Whatever decodes must be an exact prefix of the original.
            for (i, (_, rec)) in decoded.records.iter().enumerate() {
                assert_eq!(rec, &records[i], "byte {victim} corrupt");
            }
            assert!(
                decoded.records.len() < records.len(),
                "byte {victim}: corruption detected"
            );
        }
        // So does a frame whose checksum holds but whose tag is retired,
        // with the fields it used to carry: 5 and 6 (a client session opened
        // or closed, which recovery never resurrected) and 9 (a relocation
        // that never had a replay effect). Each is a bad frame.
        let session = [&3u64.to_le_bytes()[..], &7u16.to_le_bytes()].concat();
        let retired = [
            (5, [&session[..], &[2]].concat()),
            (6, session),
            (9, 7u16.to_le_bytes().to_vec()),
        ];
        for (tag, fields) in retired {
            let mut bad = log.clone();
            frame(99, tag, &mut bad, |payload| {
                payload.extend_from_slice(&fields)
            });
            let decoded = read_log(&bad);
            assert_eq!(decoded.records.len(), records.len(), "tag {tag}");
            assert_eq!(decoded.consumed, log.len(), "tag {tag}");
            assert!(!decoded.is_clean(), "tag {tag}");
        }
    }

    #[test]
    fn garbage_length_field_does_not_panic_or_allocate() {
        let mut log = vec![0xFFu8; 32];
        log[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let decoded = read_log(&log);
        assert!(decoded.records.is_empty());
        assert_eq!(decoded.dropped, 32);
    }
}
