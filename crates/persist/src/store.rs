//! The durable store: one directory holding a write-ahead log, the
//! checkpoint log and the protection snapshot.
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
//! 1. append a [`WalRecord::Checkpoint`] and sync — its seq is the
//!    watermark, its `ckpt_len` the length `ckpt.log` is about to have;
//! 2. for each pool of the page set, `PoolCreate` + one
//!    [`WalRecord::PageDelta`] per page + a final [`WalRecord::AllocTable`]
//!    (all at the watermark seq) go to `ckpt.log` — *appended*, dirty pools
//!    and dirty pages only, one fsync for the batch; or, when the checkpoint
//!    compacts, every resident page of every pool written to a temp file
//!    and renamed over `ckpt.log`;
//! 3. `prot.log` is atomically rewritten (temp + fsync + rename + fsync of
//!    the directory, as is a compacted `ckpt.log`): the same `Checkpoint`
//!    record, the caller's current protection records, the live root
//!    directory. **This rename commits the checkpoint**, and it is durable
//!    before step 4 destroys what it supersedes.
//! 4. the WAL is truncated: its used prefix is zeroed and synced — the file
//!    keeps the blocks it reserved ([`crate::wal`]).
//!
//! Recovery installs `ckpt.log` up to the committed length, then `prot.log`,
//! then replays `wal.log` — one read of the written prefix, each frame
//! decoded once, by the same pass that positions the writer. A crash before
//! step 3 leaves `ckpt.log` bytes past the committed length (dropped at the
//! next open) or a compacted image newer than `prot.log` (complete, and
//! consistent with the full WAL); a crash between 3 and 4, or anywhere
//! inside 4 — the zeroed blocks reach the disk in any order — leaves a WAL
//! whose reachable records the watermarks skip (the open then finishes the
//! zeroing) and whose frames stranded behind a gap of zeros no later record
//! can be followed by (their sequence numbers lie below the checkpoint's:
//! [`crate::record`]). Damage *inside* the
//! committed region is an error, never a shorter image — see
//! [`CheckpointImage::decode`]. Which page set a checkpoint writes is the
//! store's own rule: see [`DurableStore::checkpoint`].

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use terp_pmo::{Pmo, PmoId};

use crate::error::PersistError;
use crate::record::WalRecord;
use crate::recovery::{CheckpointImage, RecoveredState, RecoveryReport, Replay};
use crate::wal::{sync_dir, WalStats, WalWriter};
use crate::writer::AsyncWalWriter;

/// File name of the write-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the checkpoint log: a WAL-framed stream of
/// `PoolCreate`/`PageDelta`/`AllocTable` batches, appended to by
/// checkpoints and replaced whole when one compacts.
pub const CKPT_FILE: &str = "ckpt.log";
/// File name of the protection snapshot atomically rewritten by each
/// checkpoint: the [`WalRecord::Checkpoint`] that commits it, then the
/// current `WindowOpen`/`SessionOpen`/`RootSet` records — the state the
/// truncated WAL would otherwise forget.
pub const PROT_FILE: &str = "prot.log";

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
    /// then — so grant acks, detach acks and writes never precede their
    /// records' fsync (read-your-durable-writes). What acknowledges nobody
    /// buys no fsync: the `WindowClose` of a window the service's sweeper
    /// expired waits in the buffer for the owner's next commit (the sweeper
    /// makes one itself when none comes), because a crash that loses it
    /// only reseals that window once more.
    Durable,
}

impl Visibility {
    /// Parses a visibility name (`submit` / `durable`), as used by CLI
    /// flags.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "submit" => Some(Visibility::Submit),
            "durable" => Some(Visibility::Durable),
            _ => None,
        }
    }
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
    /// bytes only — so every checkpoint writes this map into `prot.log`,
    /// keeping data-structure roots findable across any number of them.
    roots: BTreeMap<(PmoId, u32), u64>,
    /// Records appended since the last checkpoint.
    records_since_ckpt: u64,
    /// Committed length of `ckpt.log`.
    ckpt_len: u64,
    /// Length `ckpt.log` had when it was last compacted (at open: its
    /// committed length) — the size of the image it encodes.
    image_len: u64,
}

fn read_file_opt(path: &Path) -> Result<Option<Vec<u8>>, PersistError> {
    match fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Replaces `dir/name` atomically and durably: temp file, fsync, rename,
/// directory fsync. A crash leaves the old file or the new one, never a
/// mixture — and once this returns, the new one.
fn publish(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut f = fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    drop(f);
    fs::rename(&tmp, dir.join(name))?;
    // The rename is the commit; it is volatile until its directory is synced.
    sync_dir(dir)?;
    Ok(())
}

/// Reads and decodes the committed checkpoint of the store at `dir` (see
/// [`CheckpointImage::decode`]); a directory that never checkpointed yields
/// the empty image.
pub fn load_checkpoint(dir: &Path) -> Result<CheckpointImage, PersistError> {
    let ckpt = read_file_opt(&dir.join(CKPT_FILE))?.unwrap_or_default();
    let prot = read_file_opt(&dir.join(PROT_FILE))?;
    CheckpointImage::decode(&ckpt, prot.as_deref())
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
        // A crash mid-`publish` leaves a temp file nothing ever reads.
        for name in [CKPT_FILE, PROT_FILE] {
            match fs::remove_file(dir.join(format!("{name}.tmp"))) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
                _ => {}
            }
        }
        let image = load_checkpoint(dir)?;
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
        match OpenOptions::new().write(true).open(dir.join(CKPT_FILE)) {
            Ok(f) if f.metadata()?.len() > image.ckpt_len => {
                f.set_len(image.ckpt_len)?;
                f.sync_data()?;
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        // The checkpoint's seq may exceed every surviving record's (the WAL
        // is truncated at checkpoints); keep seq strictly increasing past
        // all durable sources. Records that do survive below it are the
        // checkpoint's own step 4 cut short: finish it, so the new records
        // start the log instead of following dead ones.
        if scan.last_seq.is_some_and(|last| Some(last) <= image.seq) {
            wal.truncate()?;
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

    fn truncate_backend(&mut self) -> Result<(), PersistError> {
        match &mut self.backend {
            Backend::Inline(wal) => wal.truncate(),
            Backend::Pipelined(writer) => writer.truncate(),
        }
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
    /// (`WindowOpen`/`SessionOpen` for every open window/session) in
    /// `protection` — it is preserved in `prot.log` so a later crash still
    /// knows exactly what to reseal. The live root directory is carried
    /// automatically. Every pool whose mutations were logged through this
    /// store must be passed; clean pools cost an append nothing.
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
        let ckpt_len = batch.len() as u64 + if compact { 0 } else { self.ckpt_len };

        // Step 1: the marker, and with it everything logged so far.
        let marker = WalRecord::Checkpoint { ckpt_len };
        let seq = self.log(&marker)?;
        debug_assert_eq!(seq, watermark);
        self.sync()?;

        // Step 2: the image. Bytes appended here lie past the committed
        // length until step 3; a compacted image carries a seq above
        // prot.log's until then. Either is ignorable debris after a crash.
        let ckpt_path = self.dir.join(CKPT_FILE);
        if compact {
            publish(&self.dir, CKPT_FILE, &batch)?;
        } else if !batch.is_empty() {
            // At the committed length, not wherever an earlier checkpoint
            // that failed half-way left the end of the file.
            let mut f = OpenOptions::new().write(true).open(&ckpt_path)?;
            f.set_len(self.ckpt_len)?;
            f.seek(SeekFrom::End(0))?;
            f.write_all(&batch)?;
            f.sync_data()?;
        }

        // Step 3: protection + roots, atomic rewrite — the commit. Always
        // rewritten, so windows closed since the last checkpoint stop
        // being resealed.
        let mut prot = marker.encode(watermark);
        for rec in protection {
            rec.encode_into(watermark, &mut prot);
        }
        for (&(pmo, key), &oid) in &self.roots {
            WalRecord::RootSet { pmo, key, oid }.encode_into(watermark, &mut prot);
        }
        publish(&self.dir, PROT_FILE, &prot)?;
        self.ckpt_len = ckpt_len;
        if compact {
            self.image_len = ckpt_len;
        }

        // Step 4: the WAL's records are superseded (data by the image and
        // its AllocTable watermarks, protection by prot.log).
        self.truncate_backend()?;
        for pool in seen {
            pool.clear_dirty();
        }
        self.records_since_ckpt = 0;
        Ok(pages)
    }

    /// The live root directory (every `RootSet` logged or recovered,
    /// last-writer-wins, cleared slots removed).
    pub fn roots(&self) -> &BTreeMap<(PmoId, u32), u64> {
        &self.roots
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the write-ahead log file.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
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

    /// Logs harmless records until the trigger fires, so that the next
    /// checkpoint is a forced one: it appends instead of compacting.
    fn fill_to_trigger(store: &mut DurableStore) {
        while !store.checkpoint_due() {
            store.log(&WalRecord::Randomize { pmo: id(1) }).unwrap();
        }
    }

    fn file_len(dir: &Path, name: &str) -> u64 {
        fs::metadata(dir.join(name)).unwrap().len()
    }

    /// Whether `wal.log` reads as an empty log: zeros from byte 0. (Its
    /// length is the reservation's, whatever it holds.)
    fn wal_is_empty(dir: &Path) -> bool {
        let log = crate::record::read_log(&fs::read(dir.join(WAL_FILE)).unwrap());
        log.records.is_empty() && log.is_clean()
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
            assert!(wal_is_empty(&dir));
            let mut names: Vec<_> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            assert_eq!(names, [CKPT_FILE, PROT_FILE, WAL_FILE], "nothing else");
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
            assert!(wal_is_empty(&dir));
            let image = load_checkpoint(&dir).unwrap();
            assert_eq!(
                image.protection.iter().map(|(_, r)| r).collect::<Vec<_>>(),
                [&WalRecord::RootSet {
                    pmo: id(1),
                    key: 7,
                    oid: packed
                }]
            );
            assert_eq!(store.roots().len(), 1);
        }
        let (store, state, report) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        assert_eq!(report.roots_recovered, 1);
        assert_eq!(state.roots.get(&(id(1), 7)), Some(&packed));
        assert!(!state.roots.contains_key(&(id(1), 8)), "cleared slot gone");
        assert_eq!(store.roots().get(&(id(1), 7)), Some(&packed));
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
        assert!(wal_is_empty(store.dir()));
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
        // Data comes back from the checkpoint log, the open window from
        // prot.log — and is resealed, the TERP invariant.
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

        // Nothing dirtied since: a forced checkpoint appends nothing at all.
        fill_to_trigger(&mut store);
        assert_eq!(store.checkpoint(reg.iter_mut(), &[]).unwrap(), 0);
        assert_eq!(file_len(&dir, CKPT_FILE), first_len);

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
            report.records_replayed, 4,
            "PoolCreate, 2 pages, AllocTable"
        );
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

    /// Flipping any byte of a drained store's `ckpt.log` or `prot.log` makes
    /// `open` fail — never succeed with fewer pools, pages, roots or
    /// resealed windows.
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
            let protection = [
                WalRecord::WindowOpen { pmo: id(1) },
                WalRecord::SessionOpen {
                    client: 4,
                    pmo: id(1),
                    perm: terp_pmo::Permission::ReadWrite,
                },
            ];
            store.checkpoint(reg.iter_mut(), &protection).unwrap();
        }
        for name in [CKPT_FILE, PROT_FILE] {
            let path = dir.join(name);
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
                    "{name}: byte {victim} corruption undetected"
                );
            }
            fs::write(&path, &good).unwrap();
        }
        // So is a checkpoint log cut short, at any length: prot.log commits
        // its exact size.
        let path = dir.join(CKPT_FILE);
        let good = fs::read(&path).unwrap();
        for cut in 0..good.len() {
            fs::write(&path, &good[..cut]).unwrap();
            assert!(
                DurableStore::open(&dir, Visibility::Durable).is_err(),
                "cut at {cut} undetected"
            );
        }
        fs::write(&path, &good).unwrap();
        let (_, state, report) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        assert_recovered(&state);
        assert_eq!(report.sessions_discarded, 1);
        assert_eq!(report.roots_recovered, 1);
        fs::remove_dir_all(&dir).unwrap();
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
            fs::write(dir.join(CKPT_FILE), &frames).unwrap();
            let commit = WalRecord::Checkpoint {
                ckpt_len: frames.len() as u64,
            };
            fs::write(dir.join(PROT_FILE), commit.encode(1)).unwrap();
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
