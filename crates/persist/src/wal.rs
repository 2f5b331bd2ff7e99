//! Write-ahead log writer.
//!
//! A [`WalWriter`] appends [`WalRecord`]s to a sink — a file on disk or an
//! in-memory buffer (used by tests and the crash-injection harness).
//! [`WalWriter::append`] only encodes the frame into a buffer; records
//! become *durable* when [`WalWriter::sync`] writes the buffer to the sink
//! and fsyncs it. The owner decides when that is: the inline durable path
//! syncs before it acknowledges an operation (or a batch of them), the
//! pipelined path hands whole batches to [`WalWriter::append_frames`] from
//! its background thread. A crash loses at most the unsynced tail, which
//! the frame format is designed to detect.
//!
//! **The file is reserved ahead of the records.** An `fdatasync` of a file
//! that grew also commits the file system's journal for the new size and
//! extent; of a file whose blocks were written and synced beforehand it
//! flushes the data and nothing else (measured: −35 % per sync, CHANGES.md
//! PR 23). So the file sink never appends: before the first record, and
//! whenever a write would pass the reservation, it writes zeros up to the
//! next multiple of [`WAL_RESERVE`], `sync_all`s the file and fsyncs its
//! directory — inode, extents and directory entry are durable before any
//! record relies on them — and records then land at a tracked position
//! inside those blocks. Truncation writes the checkpoint's marker over the
//! head and zeroes the rest of the used prefix instead of shrinking the
//! file, so the steady state never extends. The file is
//! therefore *valid frames, then zeros* ([`crate::record`] has the rule by
//! which every reader finds the end), and its length says nothing about how
//! much log it holds — [`WalStats::bytes`] does.
//!
//! **What a crash leaves behind the zeros.** Whole frames can lie *behind*
//! the header of zeros that ends the log, where no reader looks. Those of a
//! zeroing that did not finish carry sequence numbers below every number
//! assigned afterwards, so the end-of-log rule refuses them as successors
//! should an append ever run into them. Those of a torn append do not: a
//! write of several sectors can lose the sector holding its first frame's
//! header while later sectors land, the log then ends cleanly in front of
//! the survivors, and the next open assigns their numbers again — an
//! equal-sized re-append would make an unacknowledged frame the log's next.
//! So the writer removes them before it writes: a write is never longer
//! than `WRITE_SPAN`, 256 KiB (a longer buffer goes down in synced pieces),
//! hence a torn one leaves nothing further than that behind the end of the
//! log, and the first write of every open reads that far ahead, zeroes what
//! is not zero and syncs the zeroing before anything lands
//! (`ReservedFile::scrub` — ≈ 20 µs of page cache, once per open that
//! writes; the restart itself reads nothing behind the log's end).
//!
//! Sequence numbers are assigned at append time and keep increasing across
//! checkpoint truncation, so checkpoint watermarks stay comparable
//! to every later record.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::PersistError;
use crate::record::{nonzero_extent, FrameDecoder, FrameStream, LogContents, LogScan, WalRecord};

/// Granule of the WAL file's reservation: the file is zero-filled and
/// synced this far ahead of the records. A constant, not a setting: picked
/// from the measured table in CHANGES.md (PR 23) — 8 192 records
/// ([`crate::CHECKPOINT_TRIGGER`]) are 0.8–2.6 MB on the benchmark's
/// workloads, so with 1 MiB a shard extends one to three times in its life;
/// 256 KiB extends two to three times as often and 4 MiB quadruples a quiet
/// shard's footprint, and neither set-up nor restart time tells the three
/// apart.
pub const WAL_RESERVE: u64 = 1 << 20;

/// Counters describing writer activity since creation.
#[derive(Debug, Default, Clone, Copy)]
pub struct WalStats {
    /// Records appended.
    pub appended: u64,
    /// Batches written to the sink.
    pub flushes: u64,
    /// fsync calls issued to make records (or a truncation) durable. A
    /// reservation's own `sync_all` is not one of them: see `extensions`.
    pub syncs: u64,
    /// Bytes of records written to the sink.
    pub bytes: u64,
    /// Times the file's reservation was extended (zero-fill, `sync_all`,
    /// directory fsync). One when a shard first logs; none between two
    /// checkpoints in steady state.
    pub extensions: u64,
}

/// The most one `write` puts in flight; a longer buffer goes down in pieces
/// of this size, each synced before the next. It bounds how far behind the
/// end of the log a torn write can leave whole frames, and so what the first
/// write of the next open has to look at ([`ReservedFile::scrub`]). Far above
/// any batch the service commits, so the extra syncs are never bought.
const WRITE_SPAN: usize = 256 << 10;

static ZEROS: [u8; 64 << 10] = [0; 64 << 10];

fn write_zeros(file: &mut File, mut count: u64) -> std::io::Result<()> {
    while count > 0 {
        let n = count.min(ZEROS.len() as u64) as usize;
        file.write_all(&ZEROS[..n])?;
        count -= n as u64;
    }
    Ok(())
}

/// Makes a created, renamed or extended entry of `dir` durable.
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// The file sink: a log written into blocks reserved ahead of it.
#[derive(Debug)]
struct ReservedFile {
    file: File,
    /// The directory holding the file, fsynced with every extension.
    dir: PathBuf,
    /// End of the valid frames, where the next write lands. The file cursor
    /// rests here.
    pos: u64,
    /// Length of the file: everything in `pos..reserved` is zeros, but for
    /// what a crash left there.
    reserved: u64,
    /// Whether the [`WRITE_SPAN`] behind `pos` is known to be zeros. Not
    /// after an open that found a clean end: it stopped reading there.
    scrubbed: bool,
}

impl ReservedFile {
    /// Zeroes whatever a torn write left within [`WRITE_SPAN`] of the
    /// position, before the first write of this open. Left there, an append
    /// that ends where such a frame begins would make it — never
    /// acknowledged, its sequence number assigned again since — the log's
    /// next frame. The zeroing is synced before any record is written
    /// behind it.
    fn scrub(&mut self) -> std::io::Result<()> {
        if !self.scrubbed {
            let (debris, _) = nonzero_extent((&self.file).take(WRITE_SPAN as u64))?;
            self.file.seek(SeekFrom::Start(self.pos))?;
            if debris > 0 {
                self.zero_ahead(debris)?;
                self.file.sync_data()?;
            }
            self.scrubbed = true;
        }
        Ok(())
    }

    /// Writes `buf` at the position, behind a reservation extension if it
    /// would not fit; returns whether it extended.
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<bool> {
        self.scrub()?;
        let end = self.pos + buf.len() as u64;
        let extend = end > self.reserved;
        if extend {
            let target = end.div_ceil(WAL_RESERVE) * WAL_RESERVE;
            self.file.seek(SeekFrom::Start(self.reserved))?;
            write_zeros(&mut self.file, target - self.reserved)?;
            // Size, extents and directory entry first; only then records.
            self.file.sync_all()?;
            sync_dir(&self.dir)?;
            self.reserved = target;
            self.file.seek(SeekFrom::Start(self.pos))?;
        }
        let mut pieces = buf.chunks(WRITE_SPAN).peekable();
        while let Some(piece) = pieces.next() {
            self.file.write_all(piece)?;
            if pieces.peek().is_some() {
                self.file.sync_data()?;
            }
        }
        self.pos = end;
        Ok(extend)
    }

    /// Zeroes `count` bytes from the position on, leaving the position
    /// where it is.
    fn zero_ahead(&mut self, count: u64) -> std::io::Result<()> {
        write_zeros(&mut self.file, count)?;
        self.file.seek(SeekFrom::Start(self.pos))?;
        Ok(())
    }
}

#[derive(Debug)]
enum Sink {
    File(ReservedFile),
    /// In memory: the log, and how many of the next writes and syncs fail.
    Mem(Vec<u8>, (u32, u32)),
}

/// Takes one failure off `left`, if any is left to inject.
fn injected(left: &mut u32) -> std::io::Result<()> {
    if *left == 0 {
        return Ok(());
    }
    *left -= 1;
    Err(std::io::Error::other("injected failure"))
}

impl Sink {
    fn write_all(&mut self, buf: &[u8]) -> Result<bool, PersistError> {
        match self {
            Sink::File(f) => Ok(f.write_all(buf)?),
            Sink::Mem(v, (writes, _)) => {
                injected(writes)?;
                v.extend_from_slice(buf);
                Ok(false)
            }
        }
    }

    fn sync(&mut self) -> Result<(), PersistError> {
        match self {
            Sink::File(f) => f.file.sync_data()?,
            Sink::Mem(_, (_, syncs)) => injected(syncs)?,
        }
        Ok(())
    }

    /// Empties the log down to `head`: the file keeps its blocks, `head` is
    /// written at offset 0 and the rest of the used prefix zeroed, in one
    /// pass. Any subset of those blocks may reach the disk before a crash;
    /// the frames that survive are superseded by the checkpoint the
    /// truncation belongs to and carry sequence numbers below every one
    /// assigned after it. Returns whether `head` extended the reservation.
    fn truncate(&mut self, head: &[u8]) -> Result<bool, PersistError> {
        match self {
            Sink::File(f) => {
                f.scrub()?;
                let used = std::mem::take(&mut f.pos);
                f.file.seek(SeekFrom::Start(0))?;
                let extended = f.write_all(head)?;
                f.zero_ahead(used.saturating_sub(head.len() as u64))?;
                Ok(extended)
            }
            Sink::Mem(v, _) => {
                v.clear();
                v.extend_from_slice(head);
                Ok(false)
            }
        }
    }
}

/// Append-only writer over one log sink.
#[derive(Debug)]
pub struct WalWriter {
    sink: Sink,
    /// Encoded frames appended but not yet written to the sink — the bytes
    /// a crash right now would lose.
    pending: Vec<u8>,
    pending_records: usize,
    next_seq: u64,
    stats: WalStats,
    /// The first failed write or sync: the file past the last good sync is
    /// unknown, so every later call is refused.
    failed: Option<String>,
}

impl WalWriter {
    /// Opens (creating if absent) a file-backed log at `path`, reads and
    /// validates its existing contents, and positions the writer after the
    /// last valid record. Returns the writer and the decoded contents;
    /// a torn tail is zeroed away so the file is valid frames, then zeros.
    pub fn open(path: &Path) -> Result<(Self, LogContents), PersistError> {
        let mut records = Vec::new();
        let (wal, scan) = Self::open_with(path, |seq, record| {
            records.push((seq, record));
            Ok(())
        })?;
        let contents = LogContents {
            records,
            consumed: scan.consumed as usize,
            dropped: scan.dropped as usize,
        };
        Ok((wal, contents))
    }

    /// [`Self::open`], handing each record to `apply` as it is decoded
    /// instead of collecting them: the file is read once, in bounded
    /// chunks, up to the header that ends the log — never its reservation —
    /// and every frame is decoded once.
    pub(crate) fn open_with(
        path: &Path,
        apply: impl FnMut(u64, WalRecord) -> Result<(), PersistError>,
    ) -> Result<(Self, LogScan), PersistError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let reserved = file.metadata()?.len();
        let scan = FrameStream::new(&file, FrameDecoder::wal(None)).drain(apply)?;
        file.seek(SeekFrom::Start(scan.consumed))?;
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        let mut sink = ReservedFile {
            file,
            dir: dir.to_path_buf(),
            pos: scan.consumed,
            reserved,
            // A torn end was followed to the last non-zero byte of the file.
            scrubbed: scan.dropped > 0,
        };
        if scan.dropped > 0 {
            // Nothing the next append does may complete the debris into
            // something that reads as a frame.
            sink.zero_ahead(scan.dropped)?;
            sink.file.sync_data()?;
        }
        let next_seq = scan.last_seq.map_or(0, |s| s + 1);
        Ok((Self::with_sink(Sink::File(sink), next_seq), scan))
    }

    /// Creates an in-memory log (tests and the crash-injection harness).
    pub fn in_memory() -> Self {
        Self::failing(0, 0)
    }

    /// An in-memory log whose first `writes` writes and `syncs` syncs fail.
    pub(crate) fn failing(writes: u32, syncs: u32) -> Self {
        Self::with_sink(Sink::Mem(Vec::new(), (writes, syncs)), 0)
    }

    fn with_sink(sink: Sink, next_seq: u64) -> Self {
        WalWriter {
            sink,
            pending: Vec::new(),
            pending_records: 0,
            next_seq,
            stats: WalStats::default(),
            failed: None,
        }
    }

    /// Refuses the call if the sink failed before.
    fn check(&self) -> Result<(), PersistError> {
        self.failed
            .clone()
            .map_or(Ok(()), |why| Err(PersistError::WriterFailed(why)))
    }

    /// Runs `op` unless the sink failed before, and remembers its failure.
    fn guarded(
        &mut self,
        op: impl FnOnce(&mut Self) -> Result<(), PersistError>,
    ) -> Result<(), PersistError> {
        self.check()?;
        op(self).inspect_err(|e| self.failed = Some(e.to_string()))
    }

    /// Appends one record, returning its sequence number. The record is
    /// only buffered (not yet durable) when this returns; call
    /// [`Self::sync`] to force it down.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, PersistError> {
        self.check()?;
        let seq = self.next_seq;
        self.next_seq += 1;
        record.encode_into(seq, &mut self.pending);
        self.pending_records += 1;
        self.stats.appended += 1;
        Ok(seq)
    }

    /// Appends `count` pre-encoded frames (already CRC-framed, sequence
    /// numbers assigned by the caller) and forces them to media. This is the
    /// background-writer entry point: the async pipeline encodes and
    /// sequences records on the submission side and hands the writer thread
    /// opaque batches to write + fsync in one go.
    pub fn append_frames(&mut self, frames: &[u8], count: u64) -> Result<(), PersistError> {
        self.check()?;
        self.pending.extend_from_slice(frames);
        self.pending_records += count as usize;
        self.stats.appended += count;
        self.sync()
    }

    /// Writes buffered records to the sink (one write) and fsyncs it —
    /// everything appended so far is durable when this returns. The fsync
    /// is data-only: the blocks the records land in were reserved, and the
    /// reservation synced, before the write.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.guarded(|w| {
            if !w.pending.is_empty() {
                w.stats.extensions += u64::from(w.sink.write_all(&w.pending)?);
                w.stats.flushes += 1;
                w.stats.bytes += w.pending.len() as u64;
                w.pending.clear();
                w.pending_records = 0;
            }
            w.sink.sync()?;
            w.stats.syncs += 1;
            Ok(())
        })
    }

    /// Truncates the log after a checkpoint down to `head`, the
    /// checkpoint's marker, which then opens it (a file keeps its blocks;
    /// synced here). Sequence numbers keep increasing, so checkpoint
    /// watermarks remain comparable to post-checkpoint records. Buffered
    /// records are dropped too — the checkpoint already made their effects
    /// durable.
    pub fn truncate(&mut self, head: &[u8]) -> Result<(), PersistError> {
        self.guarded(|w| {
            w.pending.clear();
            w.pending_records = 0;
            w.stats.extensions += u64::from(w.sink.truncate(head)?);
            w.sink.sync()?;
            w.stats.syncs += 1;
            Ok(())
        })
    }

    /// Sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Restarts sequence numbering at `seq` (recovery continuation: the new
    /// writer picks up after the highest replayed record).
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = seq;
    }

    /// Number of appended-but-unsynced records (would be lost by a crash).
    pub fn pending_records(&self) -> usize {
        self.pending_records
    }

    /// Activity counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The *durable* byte image of an in-memory log: what a crash right now
    /// would leave on "disk" (buffered records excluded). Returns `None`
    /// for file-backed sinks — read the file instead.
    pub fn durable_bytes(&self) -> Option<&[u8]> {
        match &self.sink {
            Sink::Mem(v, _) => Some(v),
            Sink::File(_) => None,
        }
    }
}

impl Drop for WalWriter {
    /// Best-effort flush of buffered records. Without this, dropping a
    /// writer mid-operation silently lost every record appended since
    /// the last sync — records whose `append` already returned `Ok`. Clean
    /// shutdown paths still must call [`Self::sync`] (or checkpoint)
    /// explicitly: a `Drop` cannot report an I/O failure, it can only try.
    fn drop(&mut self) {
        if self.pending_records > 0 {
            let _ = self.sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::read_log;
    use terp_pmo::PmoId;

    fn rec(n: u64) -> WalRecord {
        WalRecord::DataWrite {
            pmo: PmoId::new(1).unwrap(),
            offset: n,
            data: vec![n as u8; 8],
        }
    }

    #[test]
    fn appends_are_buffered_until_sync() {
        let mut w = WalWriter::in_memory();
        for n in 0..3 {
            w.append(&rec(n)).unwrap();
        }
        assert_eq!(w.pending_records(), 3);
        assert_eq!(w.durable_bytes().unwrap().len(), 0, "not yet durable");
        w.sync().unwrap();
        assert_eq!(w.pending_records(), 0);
        let decoded = read_log(w.durable_bytes().unwrap());
        assert_eq!(decoded.records.len(), 3);
        assert_eq!(w.stats().flushes, 1, "one write for the whole batch");
        assert_eq!(w.stats().syncs, 1);
    }

    #[test]
    fn sequence_numbers_survive_truncation() {
        let mut w = WalWriter::in_memory();
        w.append(&rec(0)).unwrap();
        w.append(&rec(1)).unwrap();
        w.sync().unwrap();
        w.truncate(&[]).unwrap();
        assert_eq!(w.durable_bytes().unwrap().len(), 0);
        let seq = w.append(&rec(2)).unwrap();
        assert_eq!(seq, 2, "seq continues across checkpoint truncation");
    }

    /// A sink that fails one write, or one sync, and then would succeed: the
    /// writer must not take it up again. A retried write would repeat frames
    /// behind a torn copy, a retried sync vouch for pages the kernel may
    /// have dropped.
    #[test]
    fn a_writer_whose_sink_failed_once_refuses_every_later_call() {
        for (writes, syncs) in [(1, 0), (0, 1)] {
            let what = format!("{writes} write / {syncs} sync failing");
            let mut w = WalWriter::failing(writes, syncs);
            w.append(&rec(0)).unwrap();
            w.sync().unwrap_err();
            let refused = |r: Result<(), PersistError>| {
                assert!(
                    matches!(r, Err(PersistError::WriterFailed(ref why)) if why.contains("injected failure")),
                    "{what}: {r:?}"
                )
            };
            refused(w.sync());
            refused(w.append(&rec(1)).map(drop));
            refused(w.append_frames(&rec(1).encode(1), 1));
            refused(w.truncate(&[]));
            refused(w.sync());
            assert_eq!(w.stats().syncs, 0, "{what}: nothing was vouched for");
        }
    }

    #[test]
    fn drop_flushes_buffered_records() {
        let dir = std::env::temp_dir().join(format!("terp-wal-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("drop.wal");
        let _ = std::fs::remove_file(&path);

        {
            let (mut w, _) = WalWriter::open(&path).unwrap();
            for n in 0..5 {
                w.append(&rec(n)).unwrap();
            }
            assert_eq!(w.pending_records(), 5, "still buffered");
            // Dropped without an explicit sync: the Drop impl
            // must not silently lose the 5 acknowledged appends.
        }
        let (_, contents) = WalWriter::open(&path).unwrap();
        assert_eq!(contents.records.len(), 5, "flush-on-drop preserved them");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explicit_sync_leaves_nothing_for_drop() {
        // The clean-shutdown contract: sync() empties the buffer, so the
        // best-effort Drop has nothing left to rescue.
        let mut w = WalWriter::in_memory();
        for n in 0..3 {
            w.append(&rec(n)).unwrap();
        }
        w.sync().unwrap();
        assert_eq!(w.pending_records(), 0);
    }

    #[test]
    fn append_frames_writes_and_syncs_preencoded_batches() {
        let mut w = WalWriter::in_memory();
        let mut batch = Vec::new();
        for n in 0..4u64 {
            batch.extend_from_slice(&rec(n).encode(n));
        }
        w.append_frames(&batch, 4).unwrap();
        assert_eq!(w.pending_records(), 0, "append_frames is write+fsync");
        let decoded = read_log(w.durable_bytes().unwrap());
        assert_eq!(decoded.records.len(), 4);
        assert_eq!(w.stats().appended, 4);
        assert_eq!(w.stats().syncs, 1);
    }

    #[test]
    fn file_log_round_trips_and_truncates_torn_tail() {
        let dir = std::env::temp_dir().join(format!("terp-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        let _ = std::fs::remove_file(&path);

        let (mut w, initial) = WalWriter::open(&path).unwrap();
        assert!(initial.records.is_empty());
        for n in 0..4 {
            w.append(&rec(n)).unwrap();
        }
        w.sync().unwrap();
        assert_eq!(w.stats().extensions, 1, "reserved before the first record");
        let written = w.stats().bytes;
        drop(w);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), WAL_RESERVE);

        // Tear the tail mid-record: its last 3 bytes never reached the disk.
        let mut image = std::fs::read(&path).unwrap();
        image[written as usize - 3..written as usize].fill(0);
        std::fs::write(&path, &image).unwrap();

        let (w2, contents) = WalWriter::open(&path).unwrap();
        assert_eq!(contents.records.len(), 3, "torn final record dropped");
        assert_eq!(w2.next_seq(), 3);
        // The tear was physically zeroed away; the file kept its blocks.
        assert_eq!(contents.consumed + contents.dropped, written as usize - 3);
        let image = std::fs::read(&path).unwrap();
        assert_eq!(image.len() as u64, WAL_RESERVE);
        assert!(image[contents.consumed..].iter().all(|&b| b == 0));
        drop(w2);
        let (_, again) = WalWriter::open(&path).unwrap();
        assert_eq!(again.records.len(), 3);
        assert!(again.is_clean(), "reported once");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A buffer longer than [`WRITE_SPAN`] goes down in pieces — so that a
    /// torn write never leaves frames further than that behind the log's end
    /// — and is still one flush and one acknowledging sync to its caller.
    #[test]
    fn a_write_longer_than_the_span_lands_whole() {
        let dir = std::env::temp_dir().join(format!("terp-wal-span-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("span.wal");
        let _ = std::fs::remove_file(&path);
        let big = |n: u64| WalRecord::DataWrite {
            pmo: PmoId::new(1).unwrap(),
            offset: n,
            data: vec![n as u8 + 1; 100_000],
        };
        let (mut w, _) = WalWriter::open(&path).unwrap();
        for n in 0..7 {
            w.append(&big(n)).unwrap();
        }
        w.sync().unwrap();
        let stats = w.stats();
        assert!(stats.bytes as usize > 2 * WRITE_SPAN);
        assert_eq!((stats.flushes, stats.syncs, stats.extensions), (1, 1, 1));
        drop(w);
        let log = read_log(&std::fs::read(&path).unwrap());
        assert!(log.is_clean());
        assert_eq!(log.consumed as u64, stats.bytes);
        let expected: Vec<_> = (0..7).map(|n| (n, big(n))).collect();
        assert_eq!(log.records, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A file that simply ends — never reserved — is the same shape with a
    /// zero-length tail, and is reserved on its first append.
    #[test]
    fn plain_file_is_adopted_and_reserved_on_first_append() {
        let dir = std::env::temp_dir().join(format!("terp-wal-plain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plain.wal");
        let mut frames = rec(0).encode(0);
        frames.extend_from_slice(&rec(1).encode(1));
        let torn = rec(2).encode(2);
        frames.extend_from_slice(&torn[..torn.len() - 3]);
        std::fs::write(&path, &frames).unwrap();

        let (mut w, contents) = WalWriter::open(&path).unwrap();
        assert_eq!(contents.records.len(), 2);
        assert_eq!(contents.dropped, torn.len() - 3);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), frames.len() as u64);
        w.append(&rec(2)).unwrap();
        w.sync().unwrap();
        assert_eq!(w.stats().extensions, 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), WAL_RESERVE);
        let log = read_log(&std::fs::read(&path).unwrap());
        assert_eq!(log.records.len(), 3);
        assert!(log.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
