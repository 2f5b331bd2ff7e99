//! Segmented, checksummed pool snapshots.
//!
//! A snapshot is the durable image of one pool at a checkpoint. On-disk
//! layout:
//!
//! ```text
//! file    := magic "TERPSNP1" segment…
//! segment := [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! payload := [kind: u8] [fields…]
//! kind 1  := header  [id u16] [name: bytes] [size u64] [mode u8] [wal_seq u64]
//! kind 2  := alloc   [count u32] ([offset u64] [len u64])…
//! kind 3  := page    [page_idx u64] [bytes]
//! ```
//!
//! Every segment carries its own CRC-32, so a bit flip pinpoints the
//! damaged segment instead of silently restoring bad data. The header's
//! `wal_seq` is the checkpoint watermark: all WAL records for this pool
//! with `seq <= wal_seq` are already reflected in the snapshot, and replay
//! must skip them (otherwise `Alloc` records would double-apply).
//!
//! Snapshot files are written to a temp name and atomically renamed into
//! place, so a crash mid-checkpoint leaves the previous snapshot intact.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use terp_pmo::{OpenMode, Pmo, PmoId, PmoRegistry, PAGE_SIZE};

use crate::crc::crc32;
use crate::error::PersistError;

const MAGIC: &[u8; 8] = b"TERPSNP1";
const KIND_HEADER: u8 = 1;
const KIND_ALLOC: u8 = 2;
const KIND_PAGE: u8 = 3;

/// The decoded image of one pool at a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Pool id (explicit, so restore keeps relocatable ObjectIDs valid).
    pub id: PmoId,
    /// Registry name.
    pub name: String,
    /// Data-area size in bytes.
    pub size: u64,
    /// Open mode.
    pub mode: OpenMode,
    /// Checkpoint watermark: WAL records for this pool with sequence numbers
    /// at or below this are already reflected here.
    pub wal_seq: u64,
    /// Exported allocator live blocks, `(offset, len)` in address order.
    pub live: Vec<(u64, u64)>,
    /// Resident data pages, `(page index, bytes)` in address order.
    pub pages: Vec<(u64, Vec<u8>)>,
}

fn push_segment(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

fn corrupt(why: impl Into<String>) -> PersistError {
    PersistError::SnapshotCorrupt(why.into())
}

/// Byte offset of page `idx`, unless it overflows.
fn page_start(idx: u64) -> Option<u64> {
    idx.checked_mul(PAGE_SIZE)
}

impl PoolSnapshot {
    /// Captures a pool's current state through its export hooks.
    pub fn capture(pool: &Pmo, wal_seq: u64) -> Self {
        PoolSnapshot {
            id: pool.id(),
            name: pool.name().to_string(),
            size: pool.size(),
            mode: pool.mode(),
            wal_seq,
            live: pool.allocator().live_blocks().collect(),
            pages: pool
                .export_pages()
                .map(|(idx, bytes)| (idx, bytes.to_vec()))
                .collect(),
        }
    }

    /// Encodes the snapshot into its on-disk byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.pages.len() * (PAGE_SIZE as usize + 24));
        out.extend_from_slice(MAGIC);

        let mut header = vec![KIND_HEADER];
        header.extend_from_slice(&self.id.raw().to_le_bytes());
        header.extend_from_slice(&(self.name.len() as u32).to_le_bytes());
        header.extend_from_slice(self.name.as_bytes());
        header.extend_from_slice(&self.size.to_le_bytes());
        header.push(match self.mode {
            OpenMode::ReadOnly => 0,
            OpenMode::ReadWrite => 1,
        });
        header.extend_from_slice(&self.wal_seq.to_le_bytes());
        push_segment(&mut out, &header);

        let mut alloc = vec![KIND_ALLOC];
        alloc.extend_from_slice(&(self.live.len() as u32).to_le_bytes());
        for &(off, len) in &self.live {
            alloc.extend_from_slice(&off.to_le_bytes());
            alloc.extend_from_slice(&len.to_le_bytes());
        }
        push_segment(&mut out, &alloc);

        for (idx, bytes) in &self.pages {
            let mut page = Vec::with_capacity(9 + bytes.len());
            page.push(KIND_PAGE);
            page.extend_from_slice(&idx.to_le_bytes());
            page.extend_from_slice(bytes);
            push_segment(&mut out, &page);
        }
        out
    }

    /// Decodes an on-disk snapshot, verifying every segment checksum.
    ///
    /// # Errors
    ///
    /// [`PersistError::SnapshotCorrupt`] naming the damaged segment. Unlike
    /// the WAL, a snapshot is all-or-nothing: it was written at a quiescent
    /// checkpoint behind an atomic rename, so damage means the file is bad,
    /// not that a crash tore a valid prefix.
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        let rest = bytes
            .strip_prefix(MAGIC.as_slice())
            .ok_or_else(|| corrupt("bad magic"))?;

        let mut header: Option<(PmoId, String, u64, OpenMode, u64)> = None;
        let mut live = Vec::new();
        let mut pages = Vec::new();
        let mut pos = 0usize;
        let mut segment_no = 0usize;
        while pos < rest.len() {
            segment_no += 1;
            if rest.len() - pos < 8 {
                return Err(corrupt(format!("segment {segment_no}: truncated frame")));
            }
            let len = u32::from_le_bytes(rest[pos..pos + 4].try_into().expect("4")) as usize;
            let crc = u32::from_le_bytes(rest[pos + 4..pos + 8].try_into().expect("4"));
            if rest.len() - pos - 8 < len {
                return Err(corrupt(format!(
                    "segment {segment_no}: length overruns file"
                )));
            }
            let payload = &rest[pos + 8..pos + 8 + len];
            if crc32(payload) != crc {
                return Err(corrupt(format!("segment {segment_no}: checksum mismatch")));
            }
            pos += 8 + len;

            let (&kind, body) = payload
                .split_first()
                .ok_or_else(|| corrupt(format!("segment {segment_no}: empty payload")))?;
            match kind {
                KIND_HEADER => {
                    if header.is_some() {
                        return Err(corrupt("duplicate header segment"));
                    }
                    header = Some(Self::decode_header(body, segment_no)?);
                }
                KIND_ALLOC => {
                    if body.len() < 4 {
                        return Err(corrupt(format!("segment {segment_no}: short alloc")));
                    }
                    let count = u32::from_le_bytes(body[..4].try_into().expect("4")) as usize;
                    if body.len() != 4 + count * 16 {
                        return Err(corrupt(format!("segment {segment_no}: alloc count lies")));
                    }
                    for i in 0..count {
                        let at = 4 + i * 16;
                        live.push((
                            u64::from_le_bytes(body[at..at + 8].try_into().expect("8")),
                            u64::from_le_bytes(body[at + 8..at + 16].try_into().expect("8")),
                        ));
                    }
                }
                KIND_PAGE => {
                    if body.len() < 8 {
                        return Err(corrupt(format!("segment {segment_no}: short page")));
                    }
                    let idx = u64::from_le_bytes(body[..8].try_into().expect("8"));
                    let bytes = &body[8..];
                    if bytes.len() > PAGE_SIZE as usize {
                        return Err(corrupt(format!(
                            "segment {segment_no}: page {idx} carries {} bytes",
                            bytes.len()
                        )));
                    }
                    pages.push((idx, bytes.to_vec()));
                }
                other => {
                    return Err(corrupt(format!(
                        "segment {segment_no}: unknown kind {other}"
                    )))
                }
            }
        }
        let (id, name, size, mode, wal_seq) =
            header.ok_or_else(|| corrupt("missing header segment"))?;
        // Checked here, once the pool size is known whatever the segment
        // order: a page must start inside the pool (and its byte offset
        // must exist at all — the index is 64 bits of outside input).
        if let Some((idx, _)) = pages
            .iter()
            .find(|(idx, _)| page_start(*idx).is_none_or(|start| start >= size))
        {
            return Err(corrupt(format!(
                "page {idx} lies outside the {size}-byte pool"
            )));
        }
        Ok(PoolSnapshot {
            id,
            name,
            size,
            mode,
            wal_seq,
            live,
            pages,
        })
    }

    fn decode_header(
        body: &[u8],
        segment_no: usize,
    ) -> Result<(PmoId, String, u64, OpenMode, u64), PersistError> {
        let short = || corrupt(format!("segment {segment_no}: short header"));
        if body.len() < 6 {
            return Err(short());
        }
        let raw = u16::from_le_bytes(body[..2].try_into().expect("2"));
        let id = PmoId::new(raw).ok_or_else(|| corrupt(format!("invalid pool id {raw}")))?;
        let name_len = u32::from_le_bytes(body[2..6].try_into().expect("4")) as usize;
        if body.len() != 6 + name_len + 17 {
            return Err(short());
        }
        let name = String::from_utf8(body[6..6 + name_len].to_vec())
            .map_err(|_| corrupt("pool name is not UTF-8"))?;
        let at = 6 + name_len;
        let size = u64::from_le_bytes(body[at..at + 8].try_into().expect("8"));
        let mode = match body[at + 8] {
            0 => OpenMode::ReadOnly,
            1 => OpenMode::ReadWrite,
            m => return Err(corrupt(format!("invalid open mode {m}"))),
        };
        let wal_seq = u64::from_le_bytes(body[at + 9..at + 17].try_into().expect("8"));
        Ok((id, name, size, mode, wal_seq))
    }

    /// Recreates the pool inside `registry` at its original id and restores
    /// allocator state and data pages.
    ///
    /// # Errors
    ///
    /// [`PersistError::Substrate`] if the registry refuses the id/name pair,
    /// the block list fails validation or a page does not fit the pool;
    /// [`PersistError::SnapshotCorrupt`] for a page index whose byte offset
    /// overflows (a hand-built snapshot — [`Self::decode`] never yields one).
    pub fn install_into(&self, registry: &mut PmoRegistry) -> Result<(), PersistError> {
        let pool = registry.restore_pool(self.id, &self.name, self.size, self.mode)?;
        pool.restore_allocator(&self.live)?;
        for (idx, bytes) in &self.pages {
            let start = page_start(*idx).ok_or_else(|| corrupt(format!("page {idx} overflows")))?;
            pool.write_bytes(start, bytes)?;
        }
        Ok(())
    }

    /// The snapshot file name for a pool id (`pool-<raw>.snap`).
    pub fn file_name(id: PmoId) -> String {
        format!("pool-{}.snap", id.raw())
    }

    /// Writes the snapshot into `dir` atomically: encode to `.tmp`, fsync,
    /// rename over the final name. A crash mid-write leaves the previous
    /// snapshot (if any) untouched.
    pub fn write_to(&self, dir: &Path) -> Result<PathBuf, PersistError> {
        let final_path = dir.join(Self::file_name(self.id));
        let tmp_path = dir.join(format!("{}.tmp", Self::file_name(self.id)));
        let mut f = fs::File::create(&tmp_path)?;
        f.write_all(&self.encode())?;
        f.sync_data()?;
        drop(f);
        fs::rename(&tmp_path, &final_path)?;
        Ok(final_path)
    }
}

/// Loads every `pool-*.snap` in `dir`, sorted by pool id. Leftover `.tmp`
/// files from an interrupted checkpoint are ignored (and removed).
pub fn load_snapshots(dir: &Path) -> Result<Vec<PoolSnapshot>, PersistError> {
    let mut snaps = Vec::new();
    if !dir.exists() {
        return Ok(snaps);
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.ends_with(".tmp") {
            let _ = fs::remove_file(&path);
            continue;
        }
        if !(name.starts_with("pool-") && name.ends_with(".snap")) {
            continue;
        }
        let bytes = fs::read(&path)?;
        snaps.push(PoolSnapshot::decode(&bytes)?);
    }
    snaps.sort_by_key(|s| s.id);
    Ok(snaps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_pool(reg: &mut PmoRegistry) -> PmoId {
        let id = reg.create("snap-me", 1 << 18, OpenMode::ReadWrite).unwrap();
        let pool = reg.pool_mut(id).unwrap();
        let a = pool.pmalloc(100).unwrap();
        let b = pool.pmalloc(5000).unwrap();
        pool.write_bytes(a.offset(), b"alpha").unwrap();
        pool.write_bytes(b.offset() + 4000, &[0xAB; 512]).unwrap();
        id
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut reg = PmoRegistry::new();
        let id = sample_pool(&mut reg);
        let snap = PoolSnapshot::capture(reg.pool(id).unwrap(), 42);
        let decoded = PoolSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.wal_seq, 42);
    }

    #[test]
    fn install_restores_data_and_allocator() {
        let mut reg = PmoRegistry::new();
        let id = sample_pool(&mut reg);
        let snap = PoolSnapshot::capture(reg.pool(id).unwrap(), 0);

        let mut fresh = PmoRegistry::new();
        snap.install_into(&mut fresh).unwrap();
        let pool = fresh.pool(id).unwrap();
        let mut buf = [0u8; 5];
        let (a_off, _) = pool.allocator().live_blocks().next().unwrap();
        pool.read_bytes(a_off, &mut buf).unwrap();
        assert_eq!(&buf, b"alpha");
        assert_eq!(
            pool.allocator().live_count(),
            reg.pool(id).unwrap().allocator().live_count()
        );
        // The restored allocator must not re-hand-out live space.
        let next = fresh.pool_mut(id).unwrap().pmalloc(64).unwrap();
        assert!(!snap
            .live
            .iter()
            .any(|&(off, len)| next.offset() >= off && next.offset() < off + len));
    }

    #[test]
    fn any_single_byte_corruption_is_detected() {
        let mut reg = PmoRegistry::new();
        let id = sample_pool(&mut reg);
        let encoded = PoolSnapshot::capture(reg.pool(id).unwrap(), 7).encode();
        // Flip a byte in every region of the file (step keeps the test fast).
        for victim in (0..encoded.len()).step_by(97) {
            let mut bad = encoded.clone();
            bad[victim] ^= 0x01;
            assert!(
                PoolSnapshot::decode(&bad).is_err(),
                "byte {victim} corruption undetected"
            );
        }
    }

    /// A well-framed file (valid CRCs) whose page segment lies about where
    /// or how big the page is: typed error at decode, never a panic or a
    /// wrapped offset.
    #[test]
    fn hostile_page_segments_are_rejected_at_decode() {
        let mut reg = PmoRegistry::new();
        let id = sample_pool(&mut reg);
        let good = PoolSnapshot::capture(reg.pool(id).unwrap(), 3);
        let pool_pages = good.size / PAGE_SIZE;
        let with_page = |idx: u64, len: usize| {
            let mut snap = good.clone();
            snap.pages = vec![(idx, vec![0x5A; len])];
            snap.encode()
        };
        let cases = [
            (
                "page longer than a page",
                with_page(0, PAGE_SIZE as usize + 1),
            ),
            ("byte offset overflows u64", with_page(u64::MAX, 16)),
            ("byte offset wraps to 0", with_page(1 << 52, 16)),
            ("first page past the pool", with_page(pool_pages, 16)),
            ("far past the pool", with_page(pool_pages + 1_000_000, 4096)),
        ];
        for (what, bytes) in cases {
            assert!(
                matches!(
                    PoolSnapshot::decode(&bytes),
                    Err(PersistError::SnapshotCorrupt(_))
                ),
                "{what}"
            );
        }
        // The last page of the pool and a short page are fine.
        let ok = PoolSnapshot::decode(&with_page(pool_pages - 1, 100)).unwrap();
        ok.install_into(&mut PmoRegistry::new()).unwrap();

        // A hand-built snapshot never reaches an unchecked multiply either.
        let mut wild = good.clone();
        wild.pages = vec![(u64::MAX, vec![1])];
        assert!(matches!(
            wild.install_into(&mut PmoRegistry::new()),
            Err(PersistError::SnapshotCorrupt(_))
        ));
    }

    #[test]
    fn write_and_load_dir_round_trip() {
        let dir = std::env::temp_dir().join(format!("terp-snap-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();

        let mut reg = PmoRegistry::new();
        let id = sample_pool(&mut reg);
        let snap = PoolSnapshot::capture(reg.pool(id).unwrap(), 9);
        snap.write_to(&dir).unwrap();
        // A stale tmp file from an interrupted checkpoint is ignored.
        fs::write(dir.join("pool-9.snap.tmp"), b"half-written").unwrap();

        let loaded = load_snapshots(&dir).unwrap();
        assert_eq!(loaded, vec![snap]);
        assert!(!dir.join("pool-9.snap.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
