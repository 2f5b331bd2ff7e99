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
//! Sequence numbers are assigned at append time and keep increasing across
//! checkpoint truncation, so checkpoint watermarks stay comparable
//! to every later record.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::error::PersistError;
use crate::record::{read_log, LogContents, WalRecord};

/// Counters describing writer activity since creation.
#[derive(Debug, Default, Clone, Copy)]
pub struct WalStats {
    /// Records appended.
    pub appended: u64,
    /// Batches written to the sink.
    pub flushes: u64,
    /// fsync calls issued.
    pub syncs: u64,
    /// Bytes written to the sink.
    pub bytes: u64,
}

#[derive(Debug)]
enum Sink {
    File(File),
    Mem(Vec<u8>),
}

impl Sink {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), PersistError> {
        match self {
            Sink::File(f) => f.write_all(buf)?,
            Sink::Mem(v) => v.extend_from_slice(buf),
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), PersistError> {
        if let Sink::File(f) = self {
            f.sync_data()?;
        }
        Ok(())
    }

    fn truncate(&mut self) -> Result<(), PersistError> {
        match self {
            Sink::File(f) => {
                f.set_len(0)?;
                f.seek(SeekFrom::Start(0))?;
            }
            Sink::Mem(v) => v.clear(),
        }
        Ok(())
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
}

impl WalWriter {
    /// Opens (creating if absent) a file-backed log at `path`, reads and
    /// validates its existing contents, and positions the writer after the
    /// last valid record. Returns the writer and the decoded contents;
    /// a torn tail is physically truncated away so the file ends on a
    /// record boundary.
    pub fn open(path: &Path) -> Result<(Self, LogContents), PersistError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let contents = read_log(&bytes);
        if contents.dropped > 0 {
            file.set_len(contents.consumed as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(contents.consumed as u64))?;
        let next_seq = contents.last_seq().map_or(0, |s| s + 1);
        Ok((Self::with_sink(Sink::File(file), next_seq), contents))
    }

    /// Creates an in-memory log (tests and the crash-injection harness).
    pub fn in_memory() -> Self {
        Self::with_sink(Sink::Mem(Vec::new()), 0)
    }

    fn with_sink(sink: Sink, next_seq: u64) -> Self {
        WalWriter {
            sink,
            pending: Vec::new(),
            pending_records: 0,
            next_seq,
            stats: WalStats::default(),
        }
    }

    /// Appends one record, returning its sequence number. The record is
    /// only buffered (not yet durable) when this returns; call
    /// [`Self::sync`] to force it down.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, PersistError> {
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
        self.pending.extend_from_slice(frames);
        self.pending_records += count as usize;
        self.stats.appended += count;
        self.sync()
    }

    /// Writes buffered records to the sink (one write) and fsyncs it —
    /// everything appended so far is durable when this returns.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        if !self.pending.is_empty() {
            self.sink.write_all(&self.pending)?;
            self.stats.flushes += 1;
            self.stats.bytes += self.pending.len() as u64;
            self.pending.clear();
            self.pending_records = 0;
        }
        self.sink.sync()?;
        self.stats.syncs += 1;
        Ok(())
    }

    /// Truncates the log after a checkpoint: the sink is emptied but
    /// sequence numbers keep increasing, so checkpoint watermarks remain
    /// comparable to post-checkpoint records. Buffered records are dropped
    /// too — the checkpoint already made their effects durable.
    pub fn truncate(&mut self) -> Result<(), PersistError> {
        self.pending.clear();
        self.pending_records = 0;
        self.sink.truncate()?;
        self.sink.sync()?;
        self.stats.syncs += 1;
        Ok(())
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
            Sink::Mem(v) => Some(v),
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
        w.truncate().unwrap();
        assert_eq!(w.durable_bytes().unwrap().len(), 0);
        let seq = w.append(&rec(2)).unwrap();
        assert_eq!(seq, 2, "seq continues across checkpoint truncation");
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
        drop(w);

        // Tear the tail mid-record.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let (w2, contents) = WalWriter::open(&path).unwrap();
        assert_eq!(contents.records.len(), 3, "torn final record dropped");
        assert!(contents.dropped > 0);
        assert_eq!(w2.next_seq(), 3);
        // The tear was physically truncated away.
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            contents.consumed as u64
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
