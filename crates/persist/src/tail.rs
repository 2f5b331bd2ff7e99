//! Stable WAL tail reads for log shipping.
//!
//! A replication leader tails each shard's live WAL file while the service
//! keeps appending to it under group commit. That concurrency is exactly
//! what makes a naive "read the file, decode, error on bad CRC" reader
//! wrong: the reader can observe a *torn tail* — the prefix of a frame the
//! writer is mid-`write(2)` on — which is indistinguishable, byte for byte,
//! from the torn tail a crash leaves. Both must mean "not yet", never
//! "corrupt": [`TailReader::poll`] returns the valid frame prefix it could
//! decode plus [`TailStatus::NeedMore`], and the next poll re-examines the
//! same offset once the writer has finished the frame.
//!
//! The other thing a live file can do that a crashed one cannot is *start
//! over*: a checkpoint truncates the WAL once its image is committed, down
//! to its marker at byte 0. A reader positioned in the old log is not torn,
//! it is obsolete — [`TailStatus::Truncated`] tells the shipper to send the
//! checkpoint the marker names and restart the log from byte 0. File
//! length cannot say so (the file keeps its reserved blocks); the reader
//! remembers the sequence number of the log's first frame instead, which
//! never repeats ([`crate::record::first_seq`]): a head that is zeros, or
//! another frame, is another log.
//!
//! The file is *valid frames, then zeros* ([`crate::record`]): a poll reads
//! from its offset in bounded chunks and stops at the header that ends the
//! log, whatever the size of the reservation behind it. It carries the last
//! sequence number it returned across polls, so a stale frame of an earlier
//! generation can never follow a newer one out of the reader.
//!
//! Chunks carry the raw validated frame bytes (so a follower can append them
//! verbatim and end up with a byte-identical log prefix) and what a shipper
//! reads of them: the frame count, the last sequence number (for watermark
//! accounting) and the checkpoint marker the chunk opens with. Every frame
//! is checksummed, sequence-checked and parsed, but no record is copied out
//! of its frame.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use crate::error::PersistError;
use crate::record::{first_seq, FrameDecoder, FrameStream, LogEnd, Step};

/// What [`TailReader::poll`] observed past the returned frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// Every byte up to the log's clean end decoded into valid frames; the
    /// reader is caught up with the writer's durable prefix.
    CaughtUp,
    /// Trailing bytes did not (yet) form a complete valid frame — a torn
    /// tail, which under a live group-commit writer simply means the frame
    /// is still being written. Poll again; never treat as corruption.
    NeedMore,
    /// The log the reader was positioned in is gone (checkpoint
    /// truncation): the file no longer starts with the frame it started
    /// with. The offset has been reset to zero; the records in between live
    /// in the checkpoint that truncated them.
    Truncated,
}

/// One batch of tailed frames: the valid frames between the reader's
/// previous offset and the end of the log.
#[derive(Debug)]
pub struct TailChunk {
    /// The checkpoint marker the chunk's first frame is, as `(seq,
    /// ckpt_len)`: what a log read from byte 0 opens with.
    pub marker: Option<(u64, u64)>,
    /// Sequence number of the chunk's last frame.
    pub last_seq: Option<u64>,
    /// Frames in the chunk.
    pub frames: usize,
    /// The raw bytes of exactly those frames, verbatim from the file —
    /// appending them to another log reproduces the prefix byte for byte.
    pub bytes: Vec<u8>,
    /// What the reader saw past the last valid frame.
    pub status: TailStatus,
}

impl TailChunk {
    fn empty(status: TailStatus) -> Self {
        TailChunk {
            marker: None,
            last_seq: None,
            frames: 0,
            bytes: Vec::new(),
            status,
        }
    }
}

/// Incremental reader over a live WAL file.
///
/// ```
/// use terp_persist::{TailReader, TailStatus, WalRecord, WalWriter};
/// # fn main() -> Result<(), terp_persist::PersistError> {
/// let dir = std::env::temp_dir().join(format!("terp-tail-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("wal.log");
/// let (mut w, _) = WalWriter::open(&path)?;
/// w.append(&WalRecord::WindowOpen { pmo: terp_pmo::PmoId::new(1).unwrap() })?;
/// w.sync()?;
///
/// let mut tail = TailReader::new(&path);
/// let chunk = tail.poll()?;
/// assert_eq!((chunk.frames, chunk.last_seq), (1, Some(0)));
/// assert_eq!(chunk.status, TailStatus::CaughtUp);
/// assert_eq!(tail.poll()?.frames, 0); // nothing new
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TailReader {
    path: PathBuf,
    offset: u64,
    /// Sequence number of the log's first frame, once one has been read:
    /// the generation the offset belongs to.
    generation: Option<u64>,
    /// Sequence number of the last frame returned from this generation.
    last_seq: Option<u64>,
}

impl TailReader {
    /// A reader positioned at the start of `path` (which may not exist yet —
    /// a missing file reads as empty).
    pub fn new(path: &Path) -> Self {
        TailReader {
            path: path.to_path_buf(),
            offset: 0,
            generation: None,
            last_seq: None,
        }
    }

    /// Byte offset of the next unread frame.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Reads and validates everything appended since the last poll.
    ///
    /// Returns the raw bytes of the valid frames and what they hold; the
    /// offset advances past exactly those frames, so a frame that is torn in
    /// this poll is retried whole in the next. Only real I/O failures are
    /// errors — an undecodable tail is [`TailStatus::NeedMore`] by design.
    pub fn poll(&mut self) -> Result<TailChunk, PersistError> {
        let mut file = match File::open(&self.path) {
            Ok(f) => f,
            // A shard that has never logged has no file yet: empty, not an
            // error — the writer creates it on first append.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(TailChunk::empty(TailStatus::CaughtUp))
            }
            Err(e) => return Err(e.into()),
        };
        file.seek(SeekFrom::Start(self.offset))?;
        let mut stream = FrameStream::new(&file, FrameDecoder::wal(self.last_seq).markers());
        let (mut first, mut marker, mut last_seq) = (None, None, None);
        let mut bytes = Vec::new();
        let end = loop {
            match stream.next()? {
                Step::Frame { seq, record, len } => {
                    if first.is_none() {
                        first = Some(seq);
                        marker = record.map(|ckpt_len| (seq, ckpt_len));
                    }
                    last_seq = Some(seq);
                    bytes.extend_from_slice(stream.frame_bytes(len));
                }
                Step::End(end) => break end,
            }
        };
        let frames = stream.frames as usize;
        // Still the log the offset belongs to? Asked after the read: a head
        // that is intact now was intact while the bytes behind it were read,
        // because a truncation zeroes from the head on.
        if self.offset > 0 {
            let mut head = [0u8; 16];
            file.seek(SeekFrom::Start(0))?;
            let same_log = match file.read_exact(&mut head) {
                Ok(()) => first_seq(&head) == self.generation,
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => false,
                Err(e) => return Err(e.into()),
            };
            if !same_log {
                // A checkpoint truncated the log out from under us.
                *self = TailReader::new(&self.path);
                return Ok(TailChunk::empty(TailStatus::Truncated));
            }
        } else if first.is_some() {
            self.generation = first;
        }
        self.offset += bytes.len() as u64;
        self.last_seq = last_seq.or(self.last_seq);
        Ok(TailChunk {
            marker,
            last_seq,
            frames,
            bytes,
            status: match end {
                LogEnd::Clean => TailStatus::CaughtUp,
                LogEnd::Torn => TailStatus::NeedMore,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{read_log, WalRecord};
    use crate::wal::WalWriter;
    use terp_pmo::PmoId;

    fn rec(n: u64) -> WalRecord {
        WalRecord::DataWrite {
            pmo: PmoId::new(1).unwrap(),
            offset: n,
            data: vec![n as u8; 16],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("terp-tail-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let dir = temp_dir("missing");
        let mut tail = TailReader::new(&dir.join("nope.log"));
        let chunk = tail.poll().unwrap();
        assert_eq!((chunk.frames, chunk.last_seq), (0, None));
        assert_eq!(chunk.status, TailStatus::CaughtUp);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_polls_return_only_new_frames() {
        let dir = temp_dir("incr");
        let path = dir.join("wal.log");
        let (mut w, _) = WalWriter::open(&path).unwrap();
        w.append(&rec(0)).unwrap();
        w.append(&rec(1)).unwrap();
        w.sync().unwrap();

        let mut tail = TailReader::new(&path);
        let c1 = tail.poll().unwrap();
        assert_eq!((c1.frames, c1.last_seq), (2, Some(1)));
        assert_eq!(c1.status, TailStatus::CaughtUp);

        w.append(&rec(2)).unwrap();
        w.sync().unwrap();
        let c2 = tail.poll().unwrap();
        assert_eq!((c2.frames, c2.last_seq), (1, Some(2)));
        assert_eq!(read_log(&c2.bytes).records, [(2, rec(2))]);
        // Raw bytes match the file slice exactly, and stop where the log
        // does: the reservation behind it is not the reader's to return.
        let all = std::fs::read(&path).unwrap();
        let end = c1.bytes.len() + c2.bytes.len();
        assert_eq!(c2.bytes, all[c1.bytes.len()..end]);
        assert_eq!(tail.offset(), end as u64);
        assert!(all[end..].iter().all(|&b| b == 0) && all.len() > end);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_need_more_then_completes() {
        let dir = temp_dir("torn");
        let path = dir.join("wal.log");
        let frame = rec(0).encode(0);
        // Simulate the writer mid-append: only half the frame is visible.
        std::fs::write(&path, &frame[..frame.len() / 2]).unwrap();

        let mut tail = TailReader::new(&path);
        let c1 = tail.poll().unwrap();
        assert_eq!((c1.frames, c1.last_seq), (0, None));
        assert_eq!(c1.status, TailStatus::NeedMore, "torn tail is not an error");
        assert_eq!(tail.offset(), 0, "offset holds at the torn frame");

        // Writer finishes the frame; the retry decodes it whole.
        std::fs::write(&path, &frame).unwrap();
        let c2 = tail.poll().unwrap();
        assert_eq!((c2.frames, c2.last_seq), (1, Some(0)));
        assert_eq!(c2.status, TailStatus::CaughtUp);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncation_is_reported_and_resets() {
        let dir = temp_dir("trunc");
        let path = dir.join("wal.log");
        let (mut w, _) = WalWriter::open(&path).unwrap();
        for n in 0..4 {
            w.append(&rec(n)).unwrap();
        }
        let marker = WalRecord::Checkpoint { ckpt_len: 0 };
        let seq = w.append(&marker).unwrap();
        w.sync().unwrap();
        let mut tail = TailReader::new(&path);
        let chunk = tail.poll().unwrap();
        assert_eq!((chunk.frames, chunk.last_seq), (5, Some(seq)));
        assert_eq!(chunk.marker, None, "the log opens with a write");

        // A checkpoint's truncation: the marker again, at the head.
        w.truncate(&marker.encode(seq)).unwrap();
        let chunk = tail.poll().unwrap();
        assert_eq!(chunk.status, TailStatus::Truncated);
        assert_eq!((chunk.frames, chunk.last_seq), (0, None));
        assert_eq!(tail.offset(), 0);

        // Post-checkpoint appends read from the top, behind the marker.
        w.append(&rec(9)).unwrap();
        w.sync().unwrap();
        let chunk = tail.poll().unwrap();
        assert_eq!(chunk.marker, Some((seq, 0)));
        assert_eq!((chunk.frames, chunk.last_seq), (2, Some(seq + 1)));
        assert_eq!(
            read_log(&chunk.bytes).records,
            [(seq, marker), (seq + 1, rec(9))]
        );
        assert_eq!(chunk.status, TailStatus::CaughtUp);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Truncation is recognised by what the log starts with, not by its
    /// length: a log that regrew past the reader between two polls must not
    /// be read from the old offset.
    #[test]
    fn truncation_is_seen_even_after_the_log_regrew() {
        let dir = temp_dir("regrow");
        let path = dir.join("wal.log");
        let (mut w, _) = WalWriter::open(&path).unwrap();
        for n in 0..4 {
            w.append(&rec(n)).unwrap();
        }
        w.sync().unwrap();
        let mut tail = TailReader::new(&path);
        assert_eq!(tail.poll().unwrap().last_seq, Some(3));

        w.truncate(&[]).unwrap();
        for n in 4..12 {
            w.append(&rec(n)).unwrap();
        }
        w.sync().unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() > tail.offset());
        let chunk = tail.poll().unwrap();
        assert_eq!(chunk.status, TailStatus::Truncated);
        assert_eq!((chunk.frames, chunk.last_seq), (0, None));
        let chunk = tail.poll().unwrap();
        assert_eq!((chunk.frames, chunk.last_seq), (8, Some(11)));
        let seqs: Vec<u64> = read_log(&chunk.bytes)
            .records
            .iter()
            .map(|(seq, _)| *seq)
            .collect();
        assert_eq!(
            seqs,
            (4..12).collect::<Vec<_>>(),
            "the new log, from the top"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The satellite regression: a reader polling a WAL under concurrent
    /// multi-frame appends must never see an error — torn observations are
    /// `NeedMore` — and must eventually observe every record, in order,
    /// exactly once.
    #[test]
    fn concurrent_appender_never_yields_an_error() {
        let dir = temp_dir("race");
        let path = dir.join("wal.log");
        let total: u64 = 600;

        std::thread::scope(|scope| {
            let writer_path = path.clone();
            scope.spawn(move || {
                // Sync every 7 records so multi-frame batches hit the file
                // in single writes the reader can race against.
                let (mut w, _) = WalWriter::open(&writer_path).unwrap();
                for n in 0..total {
                    w.append(&rec(n)).unwrap();
                    if n % 7 == 6 {
                        w.sync().unwrap();
                    }
                    if n % 13 == 0 {
                        std::thread::yield_now();
                    }
                }
                w.sync().unwrap();
            });

            let mut tail = TailReader::new(&path);
            let mut seen: Vec<u64> = Vec::new();
            while seen.len() < total as usize {
                let chunk = tail.poll().expect("tail poll must never error");
                assert_ne!(chunk.status, TailStatus::Truncated);
                let records = read_log(&chunk.bytes).records;
                assert_eq!(records.len(), chunk.frames);
                assert_eq!(records.last().map(|(seq, _)| *seq), chunk.last_seq);
                seen.extend(records.iter().map(|(seq, _)| *seq));
                if chunk.frames == 0 {
                    std::thread::yield_now();
                }
            }
            let expected: Vec<u64> = (0..total).collect();
            assert_eq!(seen, expected, "in order, exactly once");
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
