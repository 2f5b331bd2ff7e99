//! The durable store: one directory holding a WAL, pool snapshots, and
//! (with incremental checkpoints) a delta log + protection snapshot.
//!
//! [`DurableStore::open`] is the single entry point: it loads whatever the
//! directory contains (possibly nothing, possibly the debris of a crash),
//! runs full [`crate::recovery::recover_segments`], and hands back both the
//! recovered state and a live writer positioned after the last durable
//! record. From then on the owner logs every mutation through
//! [`DurableStore::log`] and periodically checkpoints to bound log length
//! (and therefore recovery time).
//!
//! **One setting.** [`Visibility`] — which effects may be visible before
//! they are durable — is the only durable policy, and it picks the log
//! writer. Under [`Visibility::Durable`] appends are buffered and the
//! owner's [`DurableStore::commit`] — at the end of an operation, or of a
//! batch of operations it acknowledges together — writes and fsyncs them
//! inline on the calling thread (one `write` + one `fdatasync`). Under
//! [`Visibility::Submit`] appends return at submit and a per-store
//! background thread
//! ([`crate::writer::AsyncWalWriter`]) batches, writes and fsyncs behind
//! the caller's back. Either way [`DurableStore::watermark`] says how far
//! durability has got.
//!
//! **Full checkpoint** protocol, crash-safe at every step:
//!
//! 1. append a `Checkpoint` record and sync — this seq is the watermark;
//! 2. snapshot every pool (temp file + atomic rename, per pool);
//! 3. truncate the WAL and delete any incremental-checkpoint files.
//!
//! A crash before step 3 leaves old *and* new snapshots valid: each
//! snapshot's embedded watermark tells replay which log records it already
//! reflects, so nothing double-applies.
//!
//! **Incremental checkpoint** ([`DurableStore::checkpoint_incremental`])
//! replaces the full-pool snapshot pass with a delta append, bounding the
//! stall by the number of pages dirtied since the last checkpoint:
//!
//! 1. append a `Checkpoint` record and sync — this seq is the watermark;
//! 2. for each dirty pool, append `PoolCreate` + one [`WalRecord::PageDelta`]
//!    per dirty page + a final [`WalRecord::AllocTable`] (all at the
//!    watermark seq) to `ckpt.log`, one fsync for the batch;
//! 3. atomically rewrite `prot.log` (temp + rename) with the caller's
//!    current protection records and the live root directory;
//! 4. truncate the WAL.
//!
//! Recovery replays snapshots, then `ckpt.log`, then `prot.log`, then
//! `wal.log` — each decoded independently, so a torn tail in one never
//! discards another. `AllocTable` replay raises the pool's watermark, which
//! is what keeps a crash between steps 2 and 4 safe: the WAL's surviving
//! records at or below the watermark are recognized as already-checkpointed
//! and skipped.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use terp_pmo::{Pmo, PmoId};

use crate::error::PersistError;
use crate::record::{read_log, WalRecord};
use crate::recovery::{recover_segments, RecoveredState, RecoveryReport};
use crate::snapshot::{load_snapshots, PoolSnapshot};
use crate::wal::{WalStats, WalWriter};
use crate::writer::AsyncWalWriter;

/// File name of the write-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the incremental-checkpoint delta log: an append-only,
/// WAL-framed stream of `PoolCreate`/`PageDelta`/`AllocTable` batches.
pub const CKPT_FILE: &str = "ckpt.log";
/// File name of the protection/roots snapshot atomically rewritten by each
/// incremental checkpoint (current `WindowOpen`/`SessionOpen`/`RootSet`
/// records — the state the truncated WAL would otherwise forget).
pub const PROT_FILE: &str = "prot.log";

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
    /// then — so grant acks, detach/expiry resealing acks, and writes never
    /// precede their records' fsync (read-your-durable-writes).
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
    /// Checkpoint truncation discards the log, and snapshots capture pool
    /// bytes only — so the store re-logs this map right after truncating,
    /// keeping data-structure roots findable across any number of
    /// checkpoints.
    roots: BTreeMap<(PmoId, u32), u64>,
    /// Records appended since the last checkpoint of either kind — the
    /// owner's trigger signal for incremental checkpoints.
    records_since_ckpt: u64,
}

fn read_file_opt(path: &Path) -> Result<Vec<u8>, PersistError> {
    match fs::read(path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e.into()),
    }
}

impl DurableStore {
    /// Opens (creating if needed) the store at `dir`, recovering whatever
    /// state its snapshots and logs describe, with the log writer
    /// `visibility` calls for. The returned [`RecoveredState`] holds the
    /// rebuilt registry — with every crash-open exposure window
    /// force-closed and resealed — and the [`RecoveryReport`] the metrics
    /// of the run.
    ///
    /// # Errors
    ///
    /// I/O failures, snapshot corruption, or snapshot/log inconsistency
    /// (see [`crate::recovery::recover`]). A torn log tail is *not* an
    /// error: it is truncated away and reported.
    pub fn open(
        dir: &Path,
        visibility: Visibility,
    ) -> Result<(Self, RecoveredState, RecoveryReport), PersistError> {
        fs::create_dir_all(dir)?;
        let snapshots = load_snapshots(dir)?;
        let ckpt_bytes = read_file_opt(&dir.join(CKPT_FILE))?;
        let prot_bytes = read_file_opt(&dir.join(PROT_FILE))?;
        let wal_path = dir.join(WAL_FILE);
        let log_bytes = read_file_opt(&wal_path)?;
        let (state, report) =
            recover_segments(&snapshots, &[&ckpt_bytes, &prot_bytes, &log_bytes])?;
        // Reopening truncates the torn tail physically and positions the
        // writer after the last valid record.
        let (mut wal, _contents) = WalWriter::open(&wal_path)?;
        // Snapshot and checkpoint watermarks may exceed every surviving
        // record's seq (the WAL is truncated at checkpoints); keep seq
        // strictly increasing past all durable sources.
        let mut floor = snapshots.iter().map(|s| s.wal_seq + 1).max().unwrap_or(0);
        for seg in [&ckpt_bytes, &prot_bytes] {
            if let Some(last) = read_log(seg).last_seq() {
                floor = floor.max(last + 1);
            }
        }
        if floor > wal.next_seq() {
            wal.set_next_seq(floor);
        }
        let backend = match visibility {
            Visibility::Durable => Backend::Inline(wal),
            Visibility::Submit => Backend::Pipelined(AsyncWalWriter::spawn(wal)),
        };
        Ok((
            DurableStore {
                dir: dir.to_path_buf(),
                backend,
                roots: state.roots.clone(),
                records_since_ckpt: 0,
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

    /// Records appended since the last checkpoint of either kind.
    pub fn records_since_checkpoint(&self) -> u64 {
        self.records_since_ckpt
    }

    fn truncate_backend(&mut self) -> Result<(), PersistError> {
        match &mut self.backend {
            Backend::Inline(wal) => wal.truncate(),
            Backend::Pipelined(writer) => writer.truncate(),
        }
    }

    /// Checkpoints the given pools in full: snapshots them and truncates
    /// the log (and any incremental-checkpoint files, which the snapshots
    /// supersede). Returns the number of snapshots written.
    ///
    /// The caller must pass the *current* state of every pool whose
    /// mutations were logged through this store — a pool left out keeps
    /// replaying from its last snapshot (or from scratch), which stays
    /// correct only while its old records are still in the log.
    ///
    /// Truncation also discards protection-state records, so a checkpoint
    /// must be taken at a protection-quiescent point (no exposure window or
    /// session open — e.g. a service drain); if any window is still open,
    /// re-log its `WindowOpen` immediately after this returns, or a later
    /// crash will not know to reseal it. (Non-quiescent checkpoints belong
    /// to [`DurableStore::checkpoint_incremental`], which carries the
    /// protection state explicitly.)
    ///
    /// # Errors
    ///
    /// I/O failures; the store stays usable and the log intact if a
    /// snapshot fails to write.
    pub fn checkpoint<'a>(
        &mut self,
        pools: impl IntoIterator<Item = &'a mut Pmo>,
    ) -> Result<usize, PersistError> {
        let watermark = self.log(&WalRecord::Checkpoint)?;
        self.sync()?;
        let mut written = 0usize;
        let mut seen: Vec<&'a mut Pmo> = Vec::new();
        for pool in pools {
            PoolSnapshot::capture(pool, watermark).write_to(&self.dir)?;
            written += 1;
            seen.push(pool);
        }
        self.truncate_backend()?;
        for name in [CKPT_FILE, PROT_FILE] {
            match fs::remove_file(self.dir.join(name)) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        // Re-seed the fresh log with the root directory: RootSet records
        // are watermark-exempt (snapshots never carry them), so without
        // this a recovery after the next crash would find no roots at all.
        if !self.roots.is_empty() {
            for ((pmo, key), oid) in self.roots.clone() {
                self.log(&WalRecord::RootSet { pmo, key, oid })?;
            }
            self.sync()?;
        }
        for pool in seen {
            pool.clear_dirty();
        }
        self.records_since_ckpt = 0;
        Ok(written)
    }

    /// Incremental checkpoint: appends only state dirtied since the last
    /// checkpoint to the delta log, rewrites the protection snapshot, and
    /// truncates the WAL. Returns the number of page deltas written.
    ///
    /// Unlike [`DurableStore::checkpoint`] this does *not* require a
    /// protection-quiescent point: pass the current protection state
    /// (`WindowOpen`/`SessionOpen` records for every open window/session)
    /// in `protection` — it is preserved in `prot.log` so a later crash
    /// still knows exactly what to reseal. The live root directory is
    /// carried automatically.
    ///
    /// As with the full checkpoint, every pool whose mutations were logged
    /// through this store must be passed; clean pools cost nothing.
    ///
    /// # Errors
    ///
    /// I/O failures; the store stays usable and the WAL intact if a delta
    /// write fails.
    pub fn checkpoint_incremental<'a>(
        &mut self,
        pools: impl IntoIterator<Item = &'a mut Pmo>,
        protection: &[WalRecord],
    ) -> Result<usize, PersistError> {
        let watermark = self.log(&WalRecord::Checkpoint)?;
        self.sync()?;

        // Step 1: dirty state → delta log, one fsync for the whole batch.
        let mut delta: Vec<u8> = Vec::new();
        let mut pages = 0usize;
        let mut seen: Vec<&'a mut Pmo> = Vec::new();
        for pool in pools {
            if pool.is_checkpoint_dirty() {
                delta.extend_from_slice(
                    &WalRecord::PoolCreate {
                        id: pool.id(),
                        name: pool.name().to_string(),
                        size: pool.size(),
                        mode: pool.mode(),
                    }
                    .encode(watermark),
                );
                for (page, bytes) in pool.export_dirty_pages() {
                    delta.extend_from_slice(
                        &WalRecord::PageDelta {
                            pmo: pool.id(),
                            page,
                            data: bytes.to_vec(),
                        }
                        .encode(watermark),
                    );
                    pages += 1;
                }
                // AllocTable LAST within the pool's batch: its replay
                // raises the pool's watermark to this seq, which would
                // self-skip the PageDeltas above if it came first.
                let live: Vec<(u64, u64)> = pool.allocator().live_blocks().collect();
                delta.extend_from_slice(
                    &WalRecord::AllocTable {
                        pmo: pool.id(),
                        live,
                    }
                    .encode(watermark),
                );
            }
            seen.push(pool);
        }
        if !delta.is_empty() {
            let mut f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join(CKPT_FILE))?;
            f.write_all(&delta)?;
            f.sync_data()?;
        }

        // Step 2: protection + roots snapshot, atomic rewrite. Always
        // rewritten — even to empty — so windows closed since the last
        // incremental checkpoint stop being re-resealed. (A stale prot.log
        // after a crash mid-step only over-reseals, which is safe.)
        let mut prot: Vec<u8> = Vec::new();
        for rec in protection {
            prot.extend_from_slice(&rec.encode(watermark));
        }
        for ((pmo, key), oid) in &self.roots {
            prot.extend_from_slice(
                &WalRecord::RootSet {
                    pmo: *pmo,
                    key: *key,
                    oid: *oid,
                }
                .encode(watermark),
            );
        }
        let tmp = self.dir.join(format!("{PROT_FILE}.tmp"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&prot)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, self.dir.join(PROT_FILE))?;

        // Step 3: the WAL's records are superseded (data by the deltas +
        // AllocTable watermark, protection by prot.log).
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
    use std::fs::OpenOptions;
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

    #[test]
    fn checkpoint_truncates_log_and_survives_reopen() {
        let dir = tmp_dir("ckpt");
        {
            let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
            assert_eq!(store.checkpoint(reg.iter_mut()).unwrap(), 1);
            assert_eq!(fs::metadata(store.wal_path()).unwrap().len(), 0);
        }
        let (_, state, report) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        assert_eq!(report.snapshots_installed, 1);
        assert_eq!(report.records_replayed, 0, "log was truncated");
        // The window state lived only in the truncated log — the checkpoint
        // is a quiescent point, so nothing needs resealing...
        assert_eq!(report.windows_resealed, 0);
        // ...but the data is all there.
        let pool = state.registry.pool(id(1)).unwrap();
        let (off, _) = pool.allocator().live_blocks().next().unwrap();
        let mut buf = [0u8; 13];
        pool.read_bytes(off, &mut buf).unwrap();
        assert_eq!(&buf, b"durable bytes");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn records_after_checkpoint_replay_on_top_of_snapshot() {
        let dir = tmp_dir("post-ckpt");
        {
            let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
            store.checkpoint(reg.iter_mut()).unwrap();
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
        assert_eq!(report.records_replayed, 1);
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
            // Checkpoint truncates the WAL; only the live root must be
            // re-seeded into the fresh log.
            store.checkpoint(reg.iter_mut()).unwrap();
            assert!(
                fs::metadata(store.wal_path()).unwrap().len() > 0,
                "checkpoint must re-log live roots after truncation"
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
        {
            let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
        }
        let wal_path = dir.join(WAL_FILE);
        let len = fs::metadata(&wal_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(len - 2).unwrap();
        drop(f);

        let (store, state, report) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        assert!(report.torn_tail);
        assert!(report.bytes_dropped > 0);
        // The torn record was the WindowOpen → nothing to reseal, data intact.
        assert!(state.resealed.is_empty());
        assert_eq!(
            fs::metadata(store.wal_path()).unwrap().len(),
            (len - 2) - report.bytes_dropped as u64
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_checkpoint_truncates_wal_and_preserves_protection() {
        let dir = tmp_dir("inc-ckpt");
        {
            let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
            // The window from the workload is still open — carry it.
            let pages = store
                .checkpoint_incremental(reg.iter_mut(), &[WalRecord::WindowOpen { pmo: id(1) }])
                .unwrap();
            assert!(pages >= 1, "the dirtied data page must be delta-logged");
            assert_eq!(fs::metadata(store.wal_path()).unwrap().len(), 0);
            assert!(fs::metadata(dir.join(CKPT_FILE)).unwrap().len() > 0);
            assert!(fs::metadata(dir.join(PROT_FILE)).unwrap().len() > 0);
            // Crash here (drop without further checkpoint).
        }
        let (_, state, report) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        // Data comes back from the delta log, the open window from
        // prot.log — and is resealed, the TERP invariant.
        assert_recovered(&state);
        assert_eq!(report.windows_resealed, 1);
        assert_eq!(report.snapshots_installed, 0, "no full snapshot written");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_checkpoint_only_writes_dirty_pages() {
        let dir = tmp_dir("inc-dirty");
        let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        let mut reg = PmoRegistry::new();
        workload(&mut store, &mut reg);
        store.log(&WalRecord::WindowClose { pmo: id(1) }).unwrap();
        assert!(store.checkpoint_incremental(reg.iter_mut(), &[]).unwrap() >= 1);
        let first_len = fs::metadata(dir.join(CKPT_FILE)).unwrap().len();

        // Nothing dirtied since: the next incremental checkpoint appends no
        // page deltas at all.
        assert_eq!(
            store.checkpoint_incremental(reg.iter_mut(), &[]).unwrap(),
            0
        );
        assert_eq!(fs::metadata(dir.join(CKPT_FILE)).unwrap().len(), first_len);

        // One small write dirties exactly one page.
        reg.pool_mut(id(1)).unwrap().write_bytes(64, b"x").unwrap();
        store
            .log(&WalRecord::DataWrite {
                pmo: id(1),
                offset: 64,
                data: b"x".to_vec(),
            })
            .unwrap();
        assert_eq!(
            store.checkpoint_incremental(reg.iter_mut(), &[]).unwrap(),
            1
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn records_after_incremental_checkpoint_replay_on_top_of_deltas() {
        let dir = tmp_dir("inc-post");
        {
            let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
            store
                .checkpoint_incremental(reg.iter_mut(), &[WalRecord::WindowOpen { pmo: id(1) }])
                .unwrap();
            // More work after the checkpoint: must replay on top of the
            // delta-restored allocator without divergence.
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
        workload(&mut store, &mut reg);
        store.log(&WalRecord::WindowClose { pmo: id(1) }).unwrap();
        store.checkpoint_incremental(reg.iter_mut(), &[]).unwrap();
        assert!(dir.join(CKPT_FILE).exists());
        store.checkpoint(reg.iter_mut()).unwrap();
        assert!(!dir.join(CKPT_FILE).exists(), "delta log deleted");
        assert!(!dir.join(PROT_FILE).exists(), "protection snapshot deleted");
        drop(store);
        let (_, state, report) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        assert_eq!(report.snapshots_installed, 1);
        let pool = state.registry.pool(id(1)).unwrap();
        assert_eq!(pool.allocator().live_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
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
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
            store
                .checkpoint_incremental(reg.iter_mut(), &[WalRecord::WindowOpen { pmo: id(1) }])
                .unwrap();
            assert_eq!(fs::metadata(store.wal_path()).unwrap().len(), 0);
        }
        let (_, state, report) = DurableStore::open(&dir, Visibility::Submit).unwrap();
        assert_recovered(&state);
        assert_eq!(report.windows_resealed, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
