//! The durable store: one directory holding a write-ahead log and the
//! checkpoint log.
//!
//! [`DurableStore::open`] is the single entry point: it loads whatever the
//! directory contains (possibly nothing, possibly the debris of a crash),
//! replays it — the pass of [`crate::recovery::recover_from`], made over the
//! log file by the writer that will append behind it — and hands back both
//! the recovered state and that writer, positioned after the last durable
//! record. From then on the owner logs every mutation through
//! [`DurableStore::log`] and checkpoints — when [`DurableStore::checkpoint_due`]
//! says so at the end of an operation, and when it drains — to bound log
//! length and therefore recovery time.
//!
//! **One setting.** [`Visibility`] — which effects may be visible before
//! they are durable — is the only durable policy, and it picks the log
//! writer. Under [`Visibility::Durable`] appends are buffered and the
//! owner's [`DurableStore::commit`] — at the end of an operation, or of a
//! batch of operations it acknowledges together — writes and fsyncs them
//! inline on the calling thread (one `write` + one `fdatasync`, data-only:
//! the blocks were reserved beforehand). Under
//! [`Visibility::Submit`] appends return at submit and a per-store
//! background thread
//! ([`crate::writer::AsyncWalWriter`]) batches, writes and fsyncs behind
//! the caller's back. Either way [`DurableStore::watermark`] says how far
//! durability has got.
//!
//! **One checkpoint** ([`DurableStore::checkpoint`]), crash-safe at every
//! step, with no quiescent point required:
//!
//! 1. append a [`WalRecord::Checkpoint`] to the WAL and sync — its seq is
//!    the watermark, its `ckpt_len` the length `ckpt.log` is about to have;
//! 2. append the checkpoint's batch to `ckpt.log` under one sync, every
//!    frame at the watermark seq: for each pool of the page set
//!    `PoolCreate` + one [`WalRecord::PageDelta`] per page + a final
//!    [`WalRecord::AllocTable`]; then the caller's protection records and
//!    the live root directory; then a closing copy of the step-1 frame.
//!    Dirty pools and dirty pages only — or, when the checkpoint compacts,
//!    every resident page of every pool, the batch written to a temp file,
//!    synced and renamed over `ckpt.log`, and the directory synced. **The
//!    closing frame commits the checkpoint**: the committed image is
//!    `ckpt.log` through its last closing frame;
//! 3. truncate the WAL: the step-1 frame is written back at offset 0 and
//!    the rest of the used prefix zeroed, in one pass and one sync — the
//!    file keeps the blocks it reserved ([`crate::wal`]) and the commit.
//!
//! So a checkpoint that appends costs three syncs and creates, renames and
//! directory-syncs nothing; one that compacts costs four
//! ([`DurableStore::checkpoint_syncs`]).
//!
//! Recovery installs `ckpt.log` through its last closing frame, then
//! replays `wal.log` — one read of the written prefix, each frame decoded
//! once, by the same pass that positions the writer. A crash inside step 2
//! leaves `ckpt.log` bytes behind the last closing frame, or a temp file,
//! both dropped at the next open; a crash inside step 3 — the blocks reach
//! the disk in any order — leaves block 0 old or already holding the
//! marker, and a WAL whose reachable records the watermarks skip (the open
//! then finishes the truncation) and whose frames stranded behind a gap of
//! zeros no later record can be followed by (their sequence numbers lie
//! below the checkpoint's: [`crate::record`]). Damage *inside* the
//! committed region is an error, never a shorter image: the marker at the
//! WAL's head says which checkpoint the image must reach — see
//! [`CheckpointImage::decode`]. Which page set a checkpoint writes is the
//! store's own rule: see [`DurableStore::checkpoint`].

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use terp_pmo::{Pmo, PmoId};

use crate::error::PersistError;
use crate::record::{read_log, WalRecord, CHECKPOINT_FRAME};
use crate::recovery::{CheckpointImage, RecoveredState, RecoveryReport, Replay};
use crate::wal::{sync_dir, WalStats, WalWriter};
use crate::writer::AsyncWalWriter;

/// File name of the write-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the checkpoint log: a WAL-framed stream of checkpoint
/// batches, each closed by its `Checkpoint` frame, appended to by
/// checkpoints and replaced whole when one compacts.
pub const CKPT_FILE: &str = "ckpt.log";

/// Records logged since the last checkpoint at which
/// [`DurableStore::checkpoint_due`] turns true. A constant, not a setting:
/// picked from the measured table in CHANGES.md (PR 18) — 8 192 bounds a
/// restart to a few milliseconds of replay and costs the write path nothing
/// measurable; larger values only lengthen recovery.
pub const CHECKPOINT_TRIGGER: u64 = 8192;

/// When a logged operation's effects may become externally visible — i.e.
/// when the mutating call that journaled them returns to its caller (and
/// therefore when a net response or repl ack may be sent). This is the one
/// durable-mode policy: it also selects the log writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Visibility {
    /// Return at *submit*: the mutation is handed to the pipelined
    /// background writer and the call does not wait for the fsync. Highest
    /// throughput; a crash can lose the tail of acknowledged-but-unfsynced
    /// operations. Recovery still reseals every crash-open window — the
    /// TERP invariant never depends on this setting.
    #[default]
    Submit,
    /// Return only once the operation's log records are *durable*: the
    /// caller writes and fsyncs them inline — at operation end, or once at
    /// the end of a batch of operations whose results it holds back until
    /// then — so attach acks, detach acks and writes never precede their
    /// records' fsync (read-your-durable-writes). A silent grant and a
    /// delayed detach have no record, so their acks wait for no fsync:
    /// sessions are not logged, because recovery resurrects none. What
    /// acknowledges nobody buys no fsync either: the `WindowClose` of a
    /// window the service's sweeper expired waits in the buffer for the
    /// owner's next commit (the sweeper makes one itself when none comes),
    /// because a crash that loses it only reseals that window once more.
    Durable,
}

/// The log writer [`Visibility`] selected.
#[derive(Debug)]
enum Backend {
    /// [`Visibility::Durable`]: buffered appends, synced by the caller.
    Inline(WalWriter),
    /// [`Visibility::Submit`]: the pipelined background writer.
    Pipelined(AsyncWalWriter),
}

/// A directory-backed durable store for a set of pools.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    backend: Backend,
    /// Live image of the root directory (`RootSet` records seen so far).
    /// Checkpoint truncation discards the log, and the image captures pool
    /// bytes only — so every checkpoint writes this map into its batch,
    /// keeping data-structure roots findable across any number of them.
    roots: BTreeMap<(PmoId, u32), u64>,
    /// Records appended since the last checkpoint.
    records_since_ckpt: u64,
    /// Committed length of `ckpt.log`.
    ckpt_len: u64,
    /// Length `ckpt.log` had when it was last compacted (at open: its
    /// committed length) — the size of the image it encodes.
    image_len: u64,
    /// File and directory syncs issued by [`Self::checkpoint`].
    checkpoint_syncs: u64,
}

/// `read`, with a file that does not exist read as empty.
fn or_absent<T: Default>(read: std::io::Result<T>) -> Result<T, PersistError> {
    match read {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(T::default()),
        read => Ok(read?),
    }
}

/// The `(seq, ckpt_len)` of the [`WalRecord::Checkpoint`] frame the WAL at
/// `dir` opens with — a checkpoint's truncation writes it there — if any.
fn wal_head(dir: &Path) -> Result<Option<(u64, u64)>, PersistError> {
    let mut head = Vec::with_capacity(CHECKPOINT_FRAME);
    or_absent(
        fs::File::open(dir.join(WAL_FILE))
            .and_then(|f| f.take(CHECKPOINT_FRAME as u64).read_to_end(&mut head)),
    )?;
    Ok(match read_log(&head).records[..] {
        [(seq, WalRecord::Checkpoint { ckpt_len })] => Some((seq, ckpt_len)),
        _ => None,
    })
}

/// `ckpt.log` of the store at `dir`, decoded against `head` as it streams
/// in (see [`CheckpointImage::decode`]), and the file's length.
fn load(dir: &Path, head: Option<(u64, u64)>) -> Result<(CheckpointImage, u64), PersistError> {
    let Some(ckpt) = or_absent(fs::File::open(dir.join(CKPT_FILE)).map(Some))? else {
        return Ok((CheckpointImage::decode(std::io::empty(), head)?, 0));
    };
    Ok((
        CheckpointImage::decode(&ckpt, head)?,
        ckpt.metadata()?.len(),
    ))
}

/// Reads and decodes the committed checkpoint of the store at `dir`
/// against the marker its WAL opens with; a directory that never
/// checkpointed yields the empty image.
pub fn load_checkpoint(dir: &Path) -> Result<CheckpointImage, PersistError> {
    Ok(load(dir, wal_head(dir)?)?.0)
}

impl DurableStore {
    /// Opens (creating if needed) the store at `dir`, recovering whatever
    /// state its checkpoint and log describe, with the log writer
    /// `visibility` calls for. The returned [`RecoveredState`] holds the
    /// rebuilt registry — with every crash-open exposure window
    /// force-closed and resealed — and the [`RecoveryReport`] the metrics
    /// of the run.
    ///
    /// # Errors
    ///
    /// I/O failures, damage inside a completed checkpoint, or checkpoint/log
    /// inconsistency (see [`crate::recovery::Replay::apply`]). A torn WAL
    /// tail is *not* an error: it is zeroed away and reported, and the
    /// `ckpt.log` bytes of a checkpoint that never committed are cut off.
    pub fn open(
        dir: &Path,
        visibility: Visibility,
    ) -> Result<(Self, RecoveredState, RecoveryReport), PersistError> {
        let start = std::time::Instant::now();
        fs::create_dir_all(dir)?;
        // A compaction cut short leaves a temp file nothing ever reads.
        or_absent(fs::remove_file(dir.join(format!("{CKPT_FILE}.tmp"))))?;
        let head = wal_head(dir)?;
        let (image, on_disk) = load(dir, head)?;
        // The WAL is read once: each frame is decoded and replayed as the
        // writer that will append behind it finds its position. A torn tail
        // is zeroed away on the spot.
        let mut replay = Replay::new();
        replay.install_checkpoint(&image)?;
        let (mut wal, scan) = WalWriter::open_with(&dir.join(WAL_FILE), |seq, record| {
            replay.apply(seq, &record)
        })?;
        let (state, mut report) = replay.finish_scanned(&scan)?;
        // So is an uncommitted checkpoint's.
        if on_disk > image.ckpt_len {
            let f = OpenOptions::new().write(true).open(dir.join(CKPT_FILE))?;
            f.set_len(image.ckpt_len)?;
            f.sync_data()?;
        }
        // The checkpoint's seq may exceed every surviving record's (the WAL
        // is truncated at checkpoints); keep seq strictly increasing past
        // all durable sources. A WAL holding nothing newer than the image
        // and not opening with its marker is the checkpoint's own step 3
        // cut short: finish it, so the new records follow the commit
        // instead of dead ones.
        let commit = image.seq.map(|seq| (seq, image.ckpt_len));
        if let Some((seq, ckpt_len)) = commit.filter(|_| head != commit) {
            if scan.last_seq <= image.seq {
                wal.truncate(&WalRecord::Checkpoint { ckpt_len }.encode(seq))?;
            }
        }
        let floor = image.seq.map_or(0, |seq| seq + 1);
        if floor > wal.next_seq() {
            wal.set_next_seq(floor);
        }
        let backend = match visibility {
            Visibility::Durable => Backend::Inline(wal),
            Visibility::Submit => Backend::Pipelined(AsyncWalWriter::spawn(wal)),
        };
        report.recovery_ns = start.elapsed().as_nanos();
        Ok((
            DurableStore {
                dir: dir.to_path_buf(),
                backend,
                roots: state.roots.clone(),
                records_since_ckpt: 0,
                ckpt_len: image.ckpt_len,
                image_len: image.ckpt_len,
                checkpoint_syncs: 0,
            },
            state,
            report,
        ))
    }

    /// Appends one record and returns its sequence number. The record is
    /// durable once [`DurableStore::watermark`] passes its seq: after the
    /// owner's next [`DurableStore::sync`] under [`Visibility::Durable`],
    /// whenever the background writer gets to it under
    /// [`Visibility::Submit`].
    pub fn log(&mut self, record: &WalRecord) -> Result<u64, PersistError> {
        if let WalRecord::RootSet { pmo, key, oid } = record {
            if *oid == 0 {
                self.roots.remove(&(*pmo, *key));
            } else {
                self.roots.insert((*pmo, *key), *oid);
            }
        }
        let seq = match &mut self.backend {
            Backend::Inline(wal) => wal.append(record)?,
            Backend::Pipelined(writer) => writer.append(record)?,
        };
        self.records_since_ckpt += 1;
        Ok(seq)
    }

    /// Forces everything appended so far to durable media: the inline
    /// writer writes and fsyncs its buffer on this thread, the pipelined
    /// one blocks until the watermark catches up with the last submission.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        match &mut self.backend {
            Backend::Inline(wal) => wal.sync(),
            Backend::Pipelined(writer) => writer.sync(),
        }
    }

    /// Ends one operation, or one batch of them: under
    /// [`Visibility::Durable`] every record logged since the last commit is
    /// written and fsynced before this returns (a no-op when there is
    /// none); under [`Visibility::Submit`] nothing waits.
    pub fn commit(&mut self) -> Result<(), PersistError> {
        if self.has_uncommitted() {
            self.sync()
        } else {
            Ok(())
        }
    }

    /// Whether records logged so far still wait for the owner's
    /// [`DurableStore::commit`]: the inline writer with buffered records.
    /// Always `false` under [`Visibility::Submit`], where nothing ever waits
    /// for the owner.
    pub fn has_uncommitted(&self) -> bool {
        matches!(&self.backend, Backend::Inline(wal) if wal.pending_records() > 0)
    }

    /// The durability watermark: every record with `seq < watermark()` is
    /// durable.
    pub fn watermark(&self) -> u64 {
        match &self.backend {
            Backend::Inline(wal) => wal.next_seq() - wal.pending_records() as u64,
            Backend::Pipelined(writer) => writer.gate().watermark(),
        }
    }

    /// Whether the owner should checkpoint at the end of the operation in
    /// progress: [`CHECKPOINT_TRIGGER`] records have been logged since the
    /// last one, which is what bounds the WAL and the replay of a restart.
    pub fn checkpoint_due(&self) -> bool {
        self.records_since_ckpt >= CHECKPOINT_TRIGGER
    }

    /// Checkpoints the given pools and truncates the log. Returns the
    /// number of page images written.
    ///
    /// The page set is the store's choice. When the trigger forced the
    /// checkpoint ([`Self::checkpoint_due`]) somebody's operation is
    /// waiting: only pools and pages dirtied since the last checkpoint are
    /// appended to `ckpt.log`. When it did not — the owner drains, or asks
    /// explicitly — or `ckpt.log` has outgrown twice the image it encodes,
    /// the checkpoint compacts: every resident page of every pool, written
    /// behind a temp file + rename that replaces `ckpt.log`.
    ///
    /// No quiescent point is needed: pass the current protection state
    /// (`WindowOpen` for every open window) in `protection` — it is
    /// preserved in the checkpoint's batch so a later crash still knows
    /// exactly what to reseal. The live root directory is
    /// carried automatically. Every pool whose mutations were logged through
    /// this store must be passed; clean pools cost an append nothing.
    ///
    /// A store that never logged a record has nothing to checkpoint: its
    /// marker would land at the WAL's head and read as a truncation's.
    ///
    /// # Errors
    ///
    /// I/O failures; the store stays usable and the WAL intact if the
    /// checkpoint fails before it is committed.
    pub fn checkpoint<'a>(
        &mut self,
        pools: impl IntoIterator<Item = &'a mut Pmo>,
        protection: &[WalRecord],
    ) -> Result<usize, PersistError> {
        if self.next_seq() == 0 {
            return Ok(0);
        }
        let compact = !self.checkpoint_due() || self.ckpt_len >= 2 * self.image_len;
        let watermark = self.next_seq();

        let mut batch: Vec<u8> = Vec::new();
        let mut pages = 0usize;
        let mut seen: Vec<&'a mut Pmo> = Vec::new();
        for pool in pools {
            if compact || pool.is_checkpoint_dirty() {
                WalRecord::PoolCreate {
                    id: pool.id(),
                    name: pool.name().to_string(),
                    size: pool.size(),
                    mode: pool.mode(),
                }
                .encode_into(watermark, &mut batch);
                let mut page_delta = |(page, bytes): (u64, &[u8])| {
                    WalRecord::encode_page_delta(pool.id(), page, bytes, watermark, &mut batch);
                    pages += 1;
                };
                if compact {
                    pool.export_pages().for_each(&mut page_delta);
                } else {
                    pool.export_dirty_pages().for_each(&mut page_delta);
                }
                // AllocTable LAST within the pool's batch: its replay
                // raises the pool's watermark to this seq, which would
                // self-skip the PageDeltas above if it came first.
                WalRecord::AllocTable {
                    pmo: pool.id(),
                    live: pool.allocator().live_blocks().collect(),
                }
                .encode_into(watermark, &mut batch);
            }
            seen.push(pool);
        }
        // Protection + roots, always written, so windows closed since the
        // last checkpoint stop being resealed.
        for rec in protection {
            rec.encode_into(watermark, &mut batch);
        }
        for (&(pmo, key), &oid) in &self.roots {
            WalRecord::RootSet { pmo, key, oid }.encode_into(watermark, &mut batch);
        }
        let base = if compact { 0 } else { self.ckpt_len };
        let ckpt_len = base + (batch.len() + CHECKPOINT_FRAME) as u64;
        let marker = WalRecord::Checkpoint { ckpt_len };
        marker.encode_into(watermark, &mut batch);

        // Step 1: the marker, and with it everything logged so far.
        let seq = self.log(&marker)?;
        debug_assert_eq!(seq, watermark);
        self.sync()?;
        self.checkpoint_syncs += 1;

        // Step 2: the batch, closed by the marker's copy — the commit. Bytes
        // short of that frame are ignorable debris after a crash.
        let ckpt_path = self.dir.join(CKPT_FILE);
        if compact {
            let tmp = self.dir.join(format!("{CKPT_FILE}.tmp"));
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&batch)?;
            f.sync_data()?;
            drop(f);
            fs::rename(&tmp, &ckpt_path)?;
            // The rename is volatile until its directory is synced.
            sync_dir(&self.dir)?;
            self.checkpoint_syncs += 2;
            self.image_len = ckpt_len;
        } else {
            // At the committed length, not wherever an earlier checkpoint
            // that failed half-way left the end of the file.
            let mut f = OpenOptions::new().write(true).open(&ckpt_path)?;
            f.set_len(self.ckpt_len)?;
            f.seek(SeekFrom::End(0))?;
            f.write_all(&batch)?;
            f.sync_data()?;
            self.checkpoint_syncs += 1;
        }
        self.ckpt_len = ckpt_len;

        // Step 3: the WAL's records are superseded (data by the image and
        // its AllocTable watermarks, protection by the snapshot); the marker
        // stays, at its head.
        let head = &batch[batch.len() - CHECKPOINT_FRAME..];
        match &mut self.backend {
            Backend::Inline(wal) => wal.truncate(head)?,
            Backend::Pipelined(writer) => writer.truncate(head)?,
        }
        self.checkpoint_syncs += 1;
        for pool in seen {
            pool.clear_dirty();
        }
        self.records_since_ckpt = 0;
        Ok(pages)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the write-ahead log file.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// File and directory syncs the checkpoints of this store have issued:
    /// three for each that appended, four for each that compacted.
    pub fn checkpoint_syncs(&self) -> u64 {
        self.checkpoint_syncs
    }

    /// Writer activity counters.
    pub fn stats(&self) -> WalStats {
        match &self.backend {
            Backend::Inline(wal) => wal.stats(),
            Backend::Pipelined(writer) => writer.stats(),
        }
    }

    /// Sequence number the next logged record will receive.
    pub fn next_seq(&self) -> u64 {
        match &self.backend {
            Backend::Inline(wal) => wal.next_seq(),
            Backend::Pipelined(writer) => writer.next_seq(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terp_pmo::{OpenMode, PmoId, PmoRegistry};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("terp-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn id(raw: u16) -> PmoId {
        PmoId::new(raw).unwrap()
    }

    /// Drives a live registry + store pair through a small workload.
    fn workload(store: &mut DurableStore, reg: &mut PmoRegistry) {
        let pid = reg.create("wk", 1 << 18, OpenMode::ReadWrite).unwrap();
        store
            .log(&WalRecord::PoolCreate {
                id: pid,
                name: "wk".into(),
                size: 1 << 18,
                mode: OpenMode::ReadWrite,
            })
            .unwrap();
        let oid = reg.pool_mut(pid).unwrap().pmalloc(128).unwrap();
        store
            .log(&WalRecord::Alloc {
                pmo: pid,
                size: 128,
                offset: oid.offset(),
            })
            .unwrap();
        reg.pool_mut(pid)
            .unwrap()
            .write_bytes(oid.offset(), b"durable bytes")
            .unwrap();
        store
            .log(&WalRecord::DataWrite {
                pmo: pid,
                offset: oid.offset(),
                data: b"durable bytes".to_vec(),
            })
            .unwrap();
        store.log(&WalRecord::WindowOpen { pmo: pid }).unwrap();
        store.sync().unwrap();
    }

    fn assert_recovered(state: &RecoveredState) {
        let pool = state.registry.pool(id(1)).unwrap();
        let (off, _) = pool.allocator().live_blocks().next().unwrap();
        let mut buf = [0u8; 13];
        pool.read_bytes(off, &mut buf).unwrap();
        assert_eq!(&buf, b"durable bytes");
        assert_eq!(state.resealed, vec![id(1)], "crash-open window resealed");
    }

    #[test]
    fn reopen_after_crash_recovers_logged_state() {
        let dir = tmp_dir("reopen");
        {
            let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
            // Store dropped without checkpoint = crash.
        }
        let (store, state, report) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        assert_recovered(&state);
        assert_eq!(report.pools_recovered, 1);
        assert_eq!(report.windows_resealed, 1);
        assert!(report.recovery_ns > 0);
        assert!(store.next_seq() >= 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Root slot [`FILLER_KEY`] of pool 1, rewritten by [`fill_to_trigger`].
    const FILLER_KEY: u32 = 9;

    /// Rewrites one root slot until the trigger fires, so that the next
    /// checkpoint is a forced one: it appends instead of compacting. Returns
    /// what the slot holds last.
    fn fill_to_trigger(store: &mut DurableStore) -> u64 {
        let mut oid = 0;
        while !store.checkpoint_due() {
            oid = 0x0040_0000_0000_0000 + store.next_seq();
            let root = WalRecord::RootSet {
                pmo: id(1),
                key: FILLER_KEY,
                oid,
            };
            store.log(&root).unwrap();
        }
        oid
    }

    fn file_len(dir: &Path, name: &str) -> u64 {
        fs::metadata(dir.join(name)).unwrap().len()
    }

    /// Whether `wal.log` reads as a truncated log: the committed
    /// checkpoint's marker, then zeros. (Its length is the reservation's,
    /// whatever it holds.)
    fn wal_is_truncated(dir: &Path) -> bool {
        let log = crate::record::read_log(&fs::read(dir.join(WAL_FILE)).unwrap());
        let image = load_checkpoint(dir).unwrap();
        log.is_clean()
            && log.records
                == [(
                    image.seq.unwrap(),
                    WalRecord::Checkpoint {
                        ckpt_len: image.ckpt_len,
                    },
                )]
    }

    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    fn read_first_block(state: &RecoveredState) -> [u8; 13] {
        let pool = state.registry.pool(id(1)).unwrap();
        let (off, _) = pool.allocator().live_blocks().next().unwrap();
        let mut buf = [0u8; 13];
        pool.read_bytes(off, &mut buf).unwrap();
        buf
    }

    #[test]
    fn checkpoint_truncates_log_and_survives_reopen() {
        let dir = tmp_dir("ckpt");
        {
            let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
            assert_eq!(store.checkpoint(reg.iter_mut(), &[]).unwrap(), 1);
            assert!(wal_is_truncated(&dir));
            assert_eq!(file_names(&dir), [CKPT_FILE, WAL_FILE], "nothing else");
        }
        let (_, state, report) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        // The image of one pool: PoolCreate, one page, AllocTable.
        assert_eq!(report.records_replayed, 3, "log was truncated");
        // The caller listed no open window — it checkpointed at a quiescent
        // point — so nothing needs resealing...
        assert_eq!(report.windows_resealed, 0);
        // ...but the data is all there.
        assert_eq!(&read_first_block(&state), b"durable bytes");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn records_after_checkpoint_replay_on_top_of_snapshot() {
        let dir = tmp_dir("post-ckpt");
        {
            let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
            store.checkpoint(reg.iter_mut(), &[]).unwrap();
            // More work after the checkpoint.
            let pid = id(1);
            let oid2 = reg.pool_mut(pid).unwrap().pmalloc(32).unwrap();
            store
                .log(&WalRecord::Alloc {
                    pmo: pid,
                    size: 32,
                    offset: oid2.offset(),
                })
                .unwrap();
            store.sync().unwrap();
        }
        let (_, state, report) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        assert_eq!(report.records_replayed, 3 + 1);
        assert_eq!(
            report.records_skipped, 0,
            "truncated log holds no stale records"
        );
        assert_eq!(
            state.registry.pool(id(1)).unwrap().allocator().live_count(),
            2
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn roots_survive_checkpoint_truncation_and_reopen() {
        let dir = tmp_dir("roots");
        let packed = 0x0040_0000_0000_0080u64;
        {
            let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
            store.log(&WalRecord::WindowClose { pmo: id(1) }).unwrap();
            store
                .log(&WalRecord::RootSet {
                    pmo: id(1),
                    key: 7,
                    oid: packed,
                })
                .unwrap();
            store
                .log(&WalRecord::RootSet {
                    pmo: id(1),
                    key: 8,
                    oid: 0x0040_0000_0000_00C0,
                })
                .unwrap();
            store
                .log(&WalRecord::RootSet {
                    pmo: id(1),
                    key: 8,
                    oid: 0,
                })
                .unwrap();
            // Checkpoint truncates the WAL; only the live root is carried,
            // in the protection snapshot.
            store.checkpoint(reg.iter_mut(), &[]).unwrap();
            assert!(wal_is_truncated(&dir));
            let image = load_checkpoint(&dir).unwrap();
            assert_eq!(
                image.protection.iter().map(|(_, r)| r).collect::<Vec<_>>(),
                [&WalRecord::RootSet {
                    pmo: id(1),
                    key: 7,
                    oid: packed
                }]
            );
        }
        let (mut store, state, report) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        assert_eq!(report.roots_recovered, 1);
        assert_eq!(state.roots.get(&(id(1), 7)), Some(&packed));
        assert!(!state.roots.contains_key(&(id(1), 8)), "cleared slot gone");
        // The reopened store carries the recovered root into its next
        // checkpoint, past one more truncation.
        store.log(&WalRecord::WindowOpen { pmo: id(1) }).unwrap();
        let mut reg = state.registry;
        store.checkpoint(reg.iter_mut(), &[]).unwrap();
        drop(store);
        let (_, state, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        assert_eq!(state.roots.get(&(id(1), 7)), Some(&packed));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_reported_and_physically_truncated() {
        let dir = tmp_dir("torn");
        let written = {
            let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
            store.stats().bytes as usize
        };
        // The last record's final two bytes never reached the disk.
        let wal_path = dir.join(WAL_FILE);
        let mut image = fs::read(&wal_path).unwrap();
        image[written - 2..written].fill(0);
        fs::write(&wal_path, &image).unwrap();

        let (store, state, report) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        assert!(report.torn_tail);
        assert!(report.bytes_dropped > 0 && report.bytes_dropped <= written);
        // The torn record was the WindowOpen → nothing to reseal, data intact.
        assert!(state.resealed.is_empty());
        // What was dropped is gone from the file, which kept its blocks.
        let image = fs::read(store.wal_path()).unwrap();
        let log = crate::record::read_log(&image);
        assert_eq!(log.records.len(), 3);
        assert!(image[log.consumed..].iter().all(|&b| b == 0));
        assert_eq!(image.len() as u64, crate::WAL_RESERVE);
        drop(store);
        let (_, _, again) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        assert!(!again.torn_tail, "reported once");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Workload, a compacting checkpoint with the window carried, one more
    /// dirtied page, then a trigger-forced (appending) checkpoint.
    fn incremental_on_top_of_full(store: &mut DurableStore, reg: &mut PmoRegistry) {
        let open = [WalRecord::WindowOpen { pmo: id(1) }];
        workload(store, reg);
        store.checkpoint(reg.iter_mut(), &open).unwrap();
        let image = file_len(store.dir(), CKPT_FILE);
        reg.pool_mut(id(1))
            .unwrap()
            .write_bytes(2 * terp_pmo::PAGE_SIZE, b"second page")
            .unwrap();
        store
            .log(&WalRecord::DataWrite {
                pmo: id(1),
                offset: 2 * terp_pmo::PAGE_SIZE,
                data: b"second page".to_vec(),
            })
            .unwrap();
        fill_to_trigger(store);
        let pages = store.checkpoint(reg.iter_mut(), &open).unwrap();
        assert_eq!(pages, 1, "only the page dirtied since the last checkpoint");
        assert!(wal_is_truncated(store.dir()));
        assert!(file_len(store.dir(), CKPT_FILE) > image, "appended");
    }

    #[test]
    fn incremental_checkpoint_truncates_wal_and_preserves_protection() {
        let dir = tmp_dir("inc-ckpt");
        {
            let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
            incremental_on_top_of_full(&mut store, &mut PmoRegistry::new());
            // Crash here (drop without further checkpoint).
        }
        let (_, state, report) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        // Data comes back from the checkpoint log, and so does the open
        // window — which is resealed, the TERP invariant.
        assert_recovered(&state);
        assert_eq!(report.windows_resealed, 1);
        let mut buf = [0u8; 11];
        let pool = state.registry.pool(id(1)).unwrap();
        pool.read_bytes(2 * terp_pmo::PAGE_SIZE, &mut buf).unwrap();
        assert_eq!(&buf, b"second page");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_checkpoint_only_writes_dirty_pages() {
        let dir = tmp_dir("inc-dirty");
        let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        let mut reg = PmoRegistry::new();
        workload(&mut store, &mut reg);
        store.log(&WalRecord::WindowClose { pmo: id(1) }).unwrap();
        assert!(store.checkpoint(reg.iter_mut(), &[]).unwrap() >= 1);
        let first_len = file_len(&dir, CKPT_FILE);

        // Nothing dirtied since: a forced checkpoint appends no page, only
        // its protection snapshot (the filler's root) and its closing frame.
        let oid = fill_to_trigger(&mut store);
        assert_eq!(store.checkpoint(reg.iter_mut(), &[]).unwrap(), 0);
        let root = WalRecord::RootSet {
            pmo: id(1),
            key: FILLER_KEY,
            oid,
        };
        assert_eq!(
            file_len(&dir, CKPT_FILE),
            first_len + (root.encode(0).len() + CHECKPOINT_FRAME) as u64
        );
        assert_eq!(load_checkpoint(&dir).unwrap().protection.len(), 1);

        // One small write dirties exactly one page.
        reg.pool_mut(id(1)).unwrap().write_bytes(64, b"x").unwrap();
        store
            .log(&WalRecord::DataWrite {
                pmo: id(1),
                offset: 64,
                data: b"x".to_vec(),
            })
            .unwrap();
        fill_to_trigger(&mut store);
        assert_eq!(store.checkpoint(reg.iter_mut(), &[]).unwrap(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn records_after_incremental_checkpoint_replay_on_top_of_deltas() {
        let dir = tmp_dir("inc-post");
        {
            let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
            let mut reg = PmoRegistry::new();
            incremental_on_top_of_full(&mut store, &mut reg);
            // More work after the checkpoint: must replay on top of the
            // restored allocator without divergence.
            let oid2 = reg.pool_mut(id(1)).unwrap().pmalloc(32).unwrap();
            store
                .log(&WalRecord::Alloc {
                    pmo: id(1),
                    size: 32,
                    offset: oid2.offset(),
                })
                .unwrap();
            store.sync().unwrap();
        }
        let (_, state, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        assert_eq!(
            state.registry.pool(id(1)).unwrap().allocator().live_count(),
            2
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn full_checkpoint_supersedes_incremental_files() {
        let dir = tmp_dir("inc-full");
        let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        let mut reg = PmoRegistry::new();
        incremental_on_top_of_full(&mut store, &mut reg);
        let appended = file_len(&dir, CKPT_FILE);
        // Nobody forced this one: it compacts, and the image that replaces
        // the batches holds each page once.
        assert_eq!(store.checkpoint(reg.iter_mut(), &[]).unwrap(), 2);
        assert!(file_len(&dir, CKPT_FILE) < appended, "batches replaced");
        drop(store);
        let (_, state, report) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        assert_eq!(
            report.records_replayed, 5,
            "PoolCreate, 2 pages, AllocTable, the filler's root"
        );
        assert!(state.roots.contains_key(&(id(1), FILLER_KEY)));
        assert_eq!(report.windows_resealed, 0, "the last snapshot listed none");
        let pool = state.registry.pool(id(1)).unwrap();
        assert_eq!(pool.allocator().live_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `ckpt.log` is compacted once it has outgrown twice the image, also
    /// when every checkpoint is a forced one — the log stays bounded.
    #[test]
    fn forced_checkpoints_compact_once_the_log_doubles() {
        let dir = tmp_dir("inc-bound");
        let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        let mut reg = PmoRegistry::new();
        workload(&mut store, &mut reg);
        let mut lens = Vec::new();
        for round in 0u8..6 {
            reg.pool_mut(id(1))
                .unwrap()
                .write_bytes(64, &[round])
                .unwrap();
            store
                .log(&WalRecord::DataWrite {
                    pmo: id(1),
                    offset: 64,
                    data: vec![round],
                })
                .unwrap();
            fill_to_trigger(&mut store);
            store.checkpoint(reg.iter_mut(), &[]).unwrap();
            lens.push(file_len(&dir, CKPT_FILE));
        }
        let image = lens[0];
        assert_eq!(lens, [image, 2 * image, image, 2 * image, image, 2 * image]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Flipping any byte of a drained store's `ckpt.log` makes `open` fail —
    /// never succeed with fewer pools, pages, roots or resealed windows.
    /// The marker the WAL opens with says which checkpoint must be there.
    #[test]
    fn any_single_byte_corruption_is_detected() {
        let dir = tmp_dir("flip");
        {
            let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
            store
                .log(&WalRecord::RootSet {
                    pmo: id(1),
                    key: 3,
                    oid: 0x0040_0000_0000_0080,
                })
                .unwrap();
            let protection = [WalRecord::WindowOpen { pmo: id(1) }];
            store.checkpoint(reg.iter_mut(), &protection).unwrap();
        }
        let path = dir.join(CKPT_FILE);
        let good = fs::read(&path).unwrap();
        for victim in 0..good.len() {
            let mut bad = good.clone();
            bad[victim] ^= 0x01;
            fs::write(&path, &bad).unwrap();
            assert!(
                matches!(
                    DurableStore::open(&dir, Visibility::Durable),
                    Err(PersistError::CheckpointCorrupt(_))
                ),
                "byte {victim} corruption undetected"
            );
        }
        // So is a checkpoint log cut short, at any length: the WAL's head
        // commits its exact size.
        for cut in 0..good.len() {
            fs::write(&path, &good[..cut]).unwrap();
            assert!(
                matches!(
                    DurableStore::open(&dir, Visibility::Durable),
                    Err(PersistError::CheckpointCorrupt(_))
                ),
                "cut at {cut} undetected"
            );
        }
        fs::write(&path, &good).unwrap();
        let (_, state, report) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        assert_recovered(&state);
        assert_eq!(report.windows_resealed, 1);
        assert_eq!(report.roots_recovered, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A store that never logged anything checkpoints nothing: no file is
    /// written, and a crash anywhere leaves a store that opens empty.
    #[test]
    fn a_store_that_never_logged_checkpoints_nothing() {
        let dir = tmp_dir("never-logged");
        let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        let open = [WalRecord::WindowOpen { pmo: id(1) }];
        assert_eq!(
            store
                .checkpoint(PmoRegistry::new().iter_mut(), &open)
                .unwrap(),
            0
        );
        assert_eq!(store.checkpoint_syncs(), 0);
        assert_eq!(file_names(&dir), [WAL_FILE]);
        drop(store);
        let (store, state, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        assert_eq!((store.next_seq(), state.registry.len()), (0, 0));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A forced checkpoint is one append: the WAL marker, the batch, the
    /// WAL's truncation — three syncs, two of them the WAL's — and the
    /// directory keeps its two files, `ckpt.log` the same inode. A
    /// compacting one renames a new `ckpt.log` into place: one sync more,
    /// the directory's.
    #[cfg(unix)]
    #[test]
    fn a_forced_checkpoint_is_three_syncs_and_no_new_file() {
        use std::os::unix::fs::MetadataExt;
        let inode = |dir: &Path| fs::metadata(dir.join(CKPT_FILE)).unwrap().ino();
        for visibility in [Visibility::Durable, Visibility::Submit] {
            let dir = tmp_dir(&format!("syncs-{visibility:?}"));
            let (mut store, _, _) = DurableStore::open(&dir, visibility).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
            // The checkpoint's own syncs: what was logged before it is
            // durable first (the background writer may take several).
            let counts = |store: &mut DurableStore, reg: &mut PmoRegistry| {
                store.sync().unwrap();
                let (ckpt, wal) = (store.checkpoint_syncs(), store.stats().syncs);
                store.checkpoint(reg.iter_mut(), &[]).unwrap();
                (store.checkpoint_syncs() - ckpt, store.stats().syncs - wal)
            };
            assert_eq!(counts(&mut store, &mut reg), (4, 2), "{visibility:?}");
            let (names, first) = (file_names(&dir), inode(&dir));
            assert_eq!(names, [CKPT_FILE, WAL_FILE]);

            reg.pool_mut(id(1)).unwrap().write_bytes(64, b"x").unwrap();
            store
                .log(&WalRecord::DataWrite {
                    pmo: id(1),
                    offset: 64,
                    data: b"x".to_vec(),
                })
                .unwrap();
            fill_to_trigger(&mut store);
            let before = file_len(&dir, CKPT_FILE);
            assert_eq!(counts(&mut store, &mut reg), (3, 2), "{visibility:?}");
            assert_eq!(file_names(&dir), names, "{visibility:?}");
            assert_eq!(inode(&dir), first, "{visibility:?}: appended in place");
            assert!(file_len(&dir, CKPT_FILE) > before);
            assert!(wal_is_truncated(&dir));

            // Nobody forced the next one: it compacts, behind a rename.
            assert_eq!(counts(&mut store, &mut reg), (4, 2), "{visibility:?}");
            assert_eq!(file_names(&dir), names, "{visibility:?}");
            assert_ne!(inode(&dir), first, "{visibility:?}: replaced");
            drop(store);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// The hostile `PageDelta` cases of the recovery unit test, through the
    /// front door: as a WAL record and inside a committed checkpoint.
    #[test]
    fn hostile_page_deltas_are_refused_at_open() {
        let create = WalRecord::PoolCreate {
            id: id(1),
            name: "h".into(),
            size: 1 << 16,
            mode: OpenMode::ReadWrite,
        };
        let pool_pages = (1u64 << 16) / terp_pmo::PAGE_SIZE;
        let cases = [
            (0, terp_pmo::PAGE_SIZE as usize + 1),
            (u64::MAX, 16),
            (1 << 52, 16),
            (pool_pages, 16),
            (pool_pages + 1_000_000, 4096),
        ];
        for (page, len) in cases {
            let delta = WalRecord::PageDelta {
                pmo: id(1),
                page,
                data: vec![0x5A; len],
            };
            let mut frames = create.encode(0);
            frames.extend_from_slice(&delta.encode(1));

            let dir = tmp_dir("hostile-wal");
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join(WAL_FILE), &frames).unwrap();
            let opened = DurableStore::open(&dir, Visibility::Durable);
            assert!(
                matches!(opened, Err(PersistError::ReplayDivergence { .. })),
                "wal: page {page}, {len} bytes"
            );
            fs::remove_dir_all(&dir).unwrap();

            let dir = tmp_dir("hostile-ckpt");
            fs::create_dir_all(&dir).unwrap();
            let close = WalRecord::Checkpoint {
                ckpt_len: (frames.len() + CHECKPOINT_FRAME) as u64,
            };
            frames.extend_from_slice(&close.encode(1));
            fs::write(dir.join(CKPT_FILE), &frames).unwrap();
            let opened = DurableStore::open(&dir, Visibility::Durable);
            assert!(
                matches!(opened, Err(PersistError::ReplayDivergence { .. })),
                "ckpt: page {page}, {len} bytes"
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn async_store_gates_visibility_on_the_watermark() {
        let dir = tmp_dir("async");
        {
            let (mut store, _, _) = DurableStore::open(&dir, Visibility::Submit).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
            // workload ends with sync(): everything submitted is durable.
            assert_eq!(store.watermark(), store.next_seq());
            let seq = store.log(&WalRecord::WindowClose { pmo: id(1) }).unwrap();
            store.sync().unwrap();
            assert!(store.watermark() > seq);
        }
        let (_, state, report) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        assert_eq!(report.windows_resealed, 0, "window closed before crash");
        let pool = state.registry.pool(id(1)).unwrap();
        let (off, _) = pool.allocator().live_blocks().next().unwrap();
        let mut buf = [0u8; 13];
        pool.read_bytes(off, &mut buf).unwrap();
        assert_eq!(&buf, b"durable bytes");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn only_the_inline_writer_ever_has_uncommitted_records() {
        for visibility in [Visibility::Durable, Visibility::Submit] {
            let dir = tmp_dir(&format!("uncommitted-{visibility:?}"));
            let (mut store, _, _) = DurableStore::open(&dir, visibility).unwrap();
            assert!(!store.has_uncommitted());
            store.log(&WalRecord::WindowOpen { pmo: id(1) }).unwrap();
            store.log(&WalRecord::WindowClose { pmo: id(1) }).unwrap();
            assert_eq!(
                store.has_uncommitted(),
                visibility == Visibility::Durable,
                "{visibility:?}"
            );
            store.commit().unwrap();
            assert!(!store.has_uncommitted());
            if visibility == Visibility::Durable {
                assert_eq!(store.watermark(), store.next_seq());
                assert_eq!(store.stats().syncs, 1, "one fsync for both records");
            }
            drop(store);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn async_store_incremental_checkpoint_roundtrip() {
        let dir = tmp_dir("async-inc");
        {
            let (mut store, _, _) = DurableStore::open(&dir, Visibility::Submit).unwrap();
            incremental_on_top_of_full(&mut store, &mut PmoRegistry::new());
        }
        let (_, state, report) = DurableStore::open(&dir, Visibility::Submit).unwrap();
        assert_recovered(&state);
        assert_eq!(report.windows_resealed, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
