//! WAL record types and their CRC-framed binary encoding.
//!
//! The log is a byte stream of frames:
//!
//! ```text
//! frame   := [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! payload := [seq: u64 LE] [tag: u8] [fields…]
//! ```
//!
//! `crc` is the CRC-32 of the payload, so a frame is valid iff its length
//! fits the remaining bytes *and* its checksum matches. Decoding stops at
//! the first invalid frame: a torn tail (the crash landed mid-frame) and a
//! corrupted record are treated identically — everything from the first bad
//! byte onward is discarded, exactly the contract group commit gives
//! (records are durable in log order; a suffix may be lost).
//!
//! The log records two kinds of events, which is the point of the TERP
//! persist layer: *data* mutations (`PoolCreate`/`Alloc`/`Free`/`DataWrite`)
//! and *protection-state* mutations (`SessionOpen`/`SessionClose` for
//! per-client grants, `WindowOpen`/`WindowClose` for the process exposure
//! window). Recovery replays the first kind to rebuild pool bytes and the
//! second kind to learn which exposure windows were open at crash time —
//! those must be force-closed and re-randomized, never resumed. A
//! relocation inside an open window (`Randomize`) changes neither, so the
//! service does not journal it; the record still decodes and replays as a
//! no-op.

use terp_pmo::{OpenMode, Permission, PmoId};

use crate::crc::crc32;

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
    /// Protection state: a client session opened (thread permission grant).
    SessionOpen {
        /// Client id.
        client: u64,
        /// Pool attached.
        pmo: PmoId,
        /// Permission granted to the client.
        perm: Permission,
    },
    /// Protection state: a client session closed (grant revoked).
    SessionClose {
        /// Client id.
        client: u64,
        /// Pool detached.
        pmo: PmoId,
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
    /// Protection state: the mapping was re-randomized in place (MERR
    /// relocation; the window splits but stays open). Replay ignores it —
    /// an open window is resealed and re-randomized whatever its history —
    /// so the service no longer emits it; it stays decodable for the logs
    /// that hold one.
    Randomize {
        /// Pool relocated.
        pmo: PmoId,
    },
    /// A checkpoint at this record's sequence number, whose image is the
    /// first `ckpt_len` bytes of the checkpoint log. Appended (and synced)
    /// to the WAL when the checkpoint begins, and written again as the
    /// first record of `prot.log`, whose rename commits it.
    Checkpoint {
        /// Committed length of `ckpt.log` once this checkpoint is published.
        ckpt_len: u64,
    },
    /// A typed root-directory entry: data-structure root `key` in pool
    /// `pmo` now points at the object with packed id `oid` (0 clears the
    /// entry). The checkpoint image captures pool *bytes* only, so without
    /// this record a recovered registry has no way to find a persistent
    /// structure's root again — the root directory is replayed
    /// last-writer-wins and carried across every checkpoint truncation in
    /// `prot.log`.
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

fn mode_byte(mode: OpenMode) -> u8 {
    match mode {
        OpenMode::ReadOnly => 0,
        OpenMode::ReadWrite => 1,
    }
}

fn perm_byte(perm: Permission) -> u8 {
    match perm {
        Permission::None => 0,
        Permission::Read => 1,
        Permission::ReadWrite => 2,
    }
}

impl WalRecord {
    fn tag(&self) -> u8 {
        match self {
            WalRecord::PoolCreate { .. } => 1,
            WalRecord::Alloc { .. } => 2,
            WalRecord::Free { .. } => 3,
            WalRecord::DataWrite { .. } => 4,
            WalRecord::SessionOpen { .. } => 5,
            WalRecord::SessionClose { .. } => 6,
            WalRecord::WindowOpen { .. } => 7,
            WalRecord::WindowClose { .. } => 8,
            WalRecord::Randomize { .. } => 9,
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
            | WalRecord::SessionOpen { pmo, .. }
            | WalRecord::SessionClose { pmo, .. }
            | WalRecord::WindowOpen { pmo }
            | WalRecord::WindowClose { pmo }
            | WalRecord::Randomize { pmo }
            | WalRecord::RootSet { pmo, .. }
            | WalRecord::PageDelta { pmo, .. }
            | WalRecord::AllocTable { pmo, .. } => Some(*pmo),
            WalRecord::Checkpoint { .. } => None,
        }
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
            WalRecord::SessionOpen { client, pmo, perm } => {
                payload.extend_from_slice(&client.to_le_bytes());
                payload.extend_from_slice(&pmo.raw().to_le_bytes());
                payload.push(perm_byte(*perm));
            }
            WalRecord::SessionClose { client, pmo } => {
                payload.extend_from_slice(&client.to_le_bytes());
                payload.extend_from_slice(&pmo.raw().to_le_bytes());
            }
            WalRecord::WindowOpen { pmo }
            | WalRecord::WindowClose { pmo }
            | WalRecord::Randomize { pmo } => {
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

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|s| u16::from_le_bytes(s.try_into().expect("2")))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().expect("4")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().expect("8")))
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self
            .take(4)
            .map(|s| u32::from_le_bytes(s.try_into().expect("4")))?;
        self.take(len as usize)
    }

    fn pmo(&mut self) -> Option<PmoId> {
        PmoId::new(self.u16()?)
    }
}

fn decode_payload(payload: &[u8]) -> Option<(u64, WalRecord)> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let seq = c.u64()?;
    let tag = c.u8()?;
    let record = match tag {
        1 => {
            let id = c.pmo()?;
            let name = String::from_utf8(c.bytes()?.to_vec()).ok()?;
            let size = c.u64()?;
            let mode = match c.u8()? {
                0 => OpenMode::ReadOnly,
                1 => OpenMode::ReadWrite,
                _ => return None,
            };
            WalRecord::PoolCreate {
                id,
                name,
                size,
                mode,
            }
        }
        2 => WalRecord::Alloc {
            pmo: c.pmo()?,
            size: c.u64()?,
            offset: c.u64()?,
        },
        3 => WalRecord::Free {
            pmo: c.pmo()?,
            offset: c.u64()?,
        },
        4 => WalRecord::DataWrite {
            pmo: c.pmo()?,
            offset: c.u64()?,
            data: c.bytes()?.to_vec(),
        },
        5 => WalRecord::SessionOpen {
            client: c.u64()?,
            pmo: c.pmo()?,
            perm: match c.u8()? {
                0 => Permission::None,
                1 => Permission::Read,
                2 => Permission::ReadWrite,
                _ => return None,
            },
        },
        6 => WalRecord::SessionClose {
            client: c.u64()?,
            pmo: c.pmo()?,
        },
        7 => WalRecord::WindowOpen { pmo: c.pmo()? },
        8 => WalRecord::WindowClose { pmo: c.pmo()? },
        9 => WalRecord::Randomize { pmo: c.pmo()? },
        10 => WalRecord::Checkpoint { ckpt_len: c.u64()? },
        11 => WalRecord::RootSet {
            pmo: c.pmo()?,
            key: c.u32()?,
            oid: c.u64()?,
        },
        TAG_PAGE_DELTA => WalRecord::PageDelta {
            pmo: c.pmo()?,
            page: c.u64()?,
            data: c.bytes()?.to_vec(),
        },
        13 => {
            let pmo = c.pmo()?;
            let count = c.u32()? as usize;
            // Bound the allocation by what the payload can actually hold.
            if payload.len() - c.pos < count.checked_mul(16)? {
                return None;
            }
            let mut live = Vec::with_capacity(count);
            for _ in 0..count {
                live.push((c.u64()?, c.u64()?));
            }
            WalRecord::AllocTable { pmo, live }
        }
        _ => return None,
    };
    if c.pos != payload.len() {
        return None; // trailing garbage inside a checksummed frame
    }
    Some((seq, record))
}

/// The decoded prefix of a log byte stream.
#[derive(Debug)]
pub struct LogContents {
    /// Valid records in log order, with their sequence numbers.
    pub records: Vec<(u64, WalRecord)>,
    /// Bytes consumed by valid frames.
    pub consumed: usize,
    /// Bytes discarded after the first invalid frame (0 for a clean log).
    pub dropped: usize,
}

impl LogContents {
    /// Whether the log decoded end to end with no torn tail.
    pub fn is_clean(&self) -> bool {
        self.dropped == 0
    }

    /// Sequence number of the last valid record, if any.
    pub fn last_seq(&self) -> Option<u64> {
        self.records.last().map(|(seq, _)| *seq)
    }
}

/// Sequence number of the frame `bytes` starts with, read without
/// checking the frame (`None` when fewer than 16 bytes are there).
/// Sequence numbers never repeat within a store, so the first frame's names
/// the *generation* of a log file: it changes exactly when the file is
/// truncated and regrown (the WAL) or replaced by rename (`ckpt.log`).
pub fn first_seq(bytes: &[u8]) -> Option<u64> {
    let seq = bytes.get(FRAME_HEADER..FRAME_HEADER + 8)?;
    Some(u64::from_le_bytes(seq.try_into().expect("8")))
}

/// Decodes `bytes` up to the first invalid frame (torn tail or corruption).
pub fn read_log(bytes: &[u8]) -> LogContents {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= FRAME_HEADER {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4"));
        if len > MAX_PAYLOAD || pos + FRAME_HEADER + len > bytes.len() {
            break; // torn tail: length runs past the stream
        }
        let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if crc32(payload) != crc {
            break; // corrupted record
        }
        let Some(decoded) = decode_payload(payload) else {
            break; // checksum ok but structurally invalid: treat as torn
        };
        records.push(decoded);
        pos += FRAME_HEADER + len;
    }
    LogContents {
        records,
        consumed: pos,
        dropped: bytes.len() - pos,
    }
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
            WalRecord::SessionOpen {
                client: 3,
                pmo: p,
                perm: Permission::ReadWrite,
            },
            WalRecord::WindowOpen { pmo: p },
            WalRecord::Randomize { pmo: p },
            WalRecord::SessionClose { client: 3, pmo: p },
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
            assert_eq!(decoded.consumed + decoded.dropped, cut);
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
