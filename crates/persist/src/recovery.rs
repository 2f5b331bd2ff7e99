//! Crash recovery: one replayer for restart, bootstrap, warm standby and
//! promotion.
//!
//! [`Replay`] rebuilds a [`PmoRegistry`] from what a crash (or a leader)
//! left, one record at a time:
//!
//! 1. **Install the checkpoint.** The committed image ([`CheckpointImage`]:
//!    the `PoolCreate`/`PageDelta`/`AllocTable` records of every batch of
//!    `ckpt.log` through its last closing frame, plus the protection and
//!    root records of that last batch) restores each pool at its original
//!    id. Every `AllocTable` raises its pool's replay watermark to its
//!    checkpoint's sequence number; the protection snapshot replaces the
//!    open-window and root sets outright and raises the protection
//!    watermark.
//! 2. **Replay the log.** Data records (`PoolCreate`/`Alloc`/`Free`/
//!    `DataWrite`/`PageDelta`) at or below their pool's watermark, and
//!    protection records at or below the protection watermark, are skipped
//!    — the checkpoint already reflects them (a crash can land between the
//!    checkpoint's commit and the WAL truncation; replaying an `Alloc`
//!    twice would diverge); `Checkpoint` markers mutate nothing. Later
//!    records re-execute against the real substrate, and `Alloc` replay
//!    *verifies* the allocator reproduces the logged offset (a mismatch
//!    means log and image disagree — [`PersistError::ReplayDivergence`]).
//! 3. **Roll back transactions** ([`Replay::finish`]). Every recovered pool
//!    runs [`terp_pmo::txn::recover`], undoing writes of transactions that
//!    were in flight at the crash. The undo log lives in pool bytes, so it
//!    was itself rebuilt by steps 1–2.
//! 4. **Reseal windows.** The TERP-specific invariant: any exposure window
//!    open at crash time is force-closed — the recovered registry exposes
//!    *no* mapped pools — and each such pool's attach generation is bumped
//!    ([`terp_pmo::Pmo::reseal`]) so the next attach re-randomizes its MERR
//!    placement instead of resuming the pre-crash mapping. No client session
//!    comes back: sessions are not logged, so a recovered registry holds no
//!    grant and every client re-attaches through the permission path.
//!
//! A follower's warm standby state is a `Replay` that is never finished:
//! it applies shipped records as they arrive and installs each checkpoint
//! the leader commits — which is also how it survives the WAL tail a
//! checkpoint truncated before it shipped.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Read;
use std::time::Instant;

use terp_pmo::{txn, ObjectId, PmoId, PmoRegistry, PAGE_SIZE};

use crate::error::PersistError;
use crate::record::{FrameDecoder, FrameStream, LogScan, Step, WalRecord};

/// What recovery produced.
#[derive(Debug)]
pub struct RecoveredState {
    /// The rebuilt registry. No pool in it is attached or exposed; every
    /// pool that had an open window at crash time has been resealed.
    pub registry: PmoRegistry,
    /// Pools whose exposure window was open at crash time (force-closed and
    /// re-randomized).
    pub resealed: Vec<PmoId>,
    /// The recovered root directory: `(pool, key) → packed ObjectId`,
    /// rebuilt last-writer-wins from [`WalRecord::RootSet`] records.
    /// Persistent data structures re-find their roots here after a crash.
    pub roots: BTreeMap<(PmoId, u32), u64>,
}

/// Metrics describing one recovery run.
#[derive(Debug, Default, Clone)]
pub struct RecoveryReport {
    /// Pools restored (from the checkpoint image and replayed creations).
    pub pools_recovered: usize,
    /// Records re-executed: the checkpoint's image and protection records
    /// plus the WAL's.
    pub records_replayed: usize,
    /// Records skipped as already reflected in the checkpoint.
    pub records_skipped: usize,
    /// Bytes discarded from the torn/corrupt log tail.
    pub bytes_dropped: usize,
    /// Whether the log ended in a torn or corrupt frame.
    pub torn_tail: bool,
    /// Undo records rolled back by in-pool transaction recovery.
    pub txns_rolled_back: usize,
    /// Exposure windows open at crash time, force-closed and re-randomized.
    pub windows_resealed: usize,
    /// Wall-clock nanoseconds the recovery took.
    pub recovery_ns: u128,
    /// Root-directory entries live after replay (cleared slots excluded).
    pub roots_recovered: usize,
    /// Bytes of the WAL that were read: the written prefix and at most one
    /// chunk behind it, never the reservation (a torn tail adds the scan
    /// for the end of its debris).
    pub wal_bytes_read: u64,
    /// WAL frames decoded. Each is decoded once, so this is the number of
    /// records the WAL held.
    pub frames_decoded: u64,
}

/// The committed checkpoint of a store directory, decoded: what `ckpt.log`
/// holds through its last closing frame, once the WAL's head has vouched
/// for it ([`CheckpointImage::decode`]).
#[derive(Debug, Default, Clone)]
pub struct CheckpointImage {
    /// Sequence number of the committed checkpoint (`None`: the directory
    /// never completed one).
    pub seq: Option<u64>,
    /// Committed length of `ckpt.log` in bytes, through the last closing
    /// frame; anything past it belongs to a checkpoint that was in flight
    /// and never committed.
    pub ckpt_len: u64,
    /// The image: `PoolCreate`, `PageDelta`*, `AllocTable` per pool, of
    /// every committed batch, oldest batch first.
    pub pools: Vec<(u64, WalRecord)>,
    /// The protection snapshot of the last committed batch:
    /// `WindowOpen` for every window open at the checkpoint, and the live
    /// root directory.
    pub protection: Vec<(u64, WalRecord)>,
}

fn corrupt(why: impl Into<String>) -> PersistError {
    PersistError::CheckpointCorrupt(why.into())
}

impl CheckpointImage {
    /// Decodes `ckpt.log` against `head`, the `(seq, ckpt_len)` of the
    /// [`WalRecord::Checkpoint`] frame the WAL opens with, if any.
    ///
    /// The log is a sequence of batches — data records, then protection
    /// records, at one sequence number — each closed by a copy of its
    /// checkpoint's marker, whose `ckpt_len` is the log's length through
    /// that frame. The image is the prefix through the last closing frame
    /// the decoder reaches: the data records of every batch, the protection
    /// records of the last. Bytes behind it never committed.
    ///
    /// Damage inside the committed region would stop the decoder early too,
    /// so a checkpoint's truncation writes its marker at the WAL's head: the
    /// image must be at least that checkpoint, and exactly its `ckpt_len`
    /// bytes when it is that one (a newer one committed before a crash cut
    /// its truncation short). Without a head no checkpoint ever truncated
    /// the WAL, which still holds what the image lacks.
    ///
    /// # Errors
    ///
    /// [`PersistError::CheckpointCorrupt`] when the image falls short of
    /// `head`, or a closing frame disagrees with its own position — never a
    /// shorter image.
    pub fn decode(ckpt: impl Read, head: Option<(u64, u64)>) -> Result<Self, PersistError> {
        let mut image = CheckpointImage::default();
        let mut batch = Vec::new();
        // Streamed in bounded reads: a restart holds no copy of the file.
        let mut stream = FrameStream::new(ckpt, FrameDecoder::image());
        while let Step::Frame { seq, record, .. } = stream.next()? {
            let WalRecord::Checkpoint { ckpt_len } = record else {
                batch.push((seq, record));
                continue;
            };
            if ckpt_len != stream.consumed {
                return Err(corrupt(format!(
                    "ckpt.log: the checkpoint closed at byte {} claims {ckpt_len}",
                    stream.consumed
                )));
            }
            let (protection, pools): (Vec<_>, Vec<_>) = batch
                .drain(..)
                .partition(|(_, record)| record.is_protection());
            image.seq = Some(seq);
            image.ckpt_len = ckpt_len;
            image.pools.extend(pools);
            image.protection = protection;
        }
        if let Some((seq, ckpt_len)) = head {
            if image.seq < Some(seq) || image.seq == Some(seq) && image.ckpt_len != ckpt_len {
                return Err(corrupt(format!(
                    "the WAL opens with checkpoint {seq} of {ckpt_len} bytes, \
                     ckpt.log commits {:?} of {}",
                    image.seq, image.ckpt_len
                )));
            }
        }
        Ok(image)
    }
}

/// The one replayer: applies records to a registry under the watermark
/// rules, whether they come from disk at restart or from a socket on a warm
/// standby.
#[derive(Debug, Default)]
pub struct Replay {
    registry: PmoRegistry,
    /// Per-pool data watermark: data records at or below it are already
    /// reflected in the checkpoint image.
    watermark: Vec<Option<u64>>,
    /// Protection watermark: the sequence number of the installed
    /// protection snapshot.
    prot_mark: Option<u64>,
    open_windows: BTreeSet<PmoId>,
    roots: BTreeMap<(PmoId, u32), u64>,
    applied_seq: Option<u64>,
    /// The report under construction: the replayed/skipped counts.
    report: RecoveryReport,
}

impl Replay {
    /// A replayer over an empty registry.
    pub fn new() -> Self {
        Replay::default()
    }

    /// The registry as replayed so far. Until [`Self::finish`] it may show
    /// an in-flight transaction's writes and knows nothing of resealing.
    pub fn registry(&self) -> &PmoRegistry {
        &self.registry
    }

    /// Exposure windows open after the records applied so far — exactly
    /// what [`Self::finish`] would reseal.
    pub fn open_windows(&self) -> &BTreeSet<PmoId> {
        &self.open_windows
    }

    /// Highest sequence number applied (or installed) so far.
    pub fn applied_seq(&self) -> Option<u64> {
        self.applied_seq
    }

    fn raise(&mut self, pmo: PmoId, seq: u64) {
        let idx = pmo.index();
        if self.watermark.len() <= idx {
            self.watermark.resize(idx + 1, None);
        }
        self.watermark[idx] = Some(self.watermark[idx].map_or(seq, |old| old.max(seq)));
    }

    /// Installs a committed checkpoint: its image batches, then its
    /// protection snapshot as *clear + apply* — the snapshot is the whole
    /// truth at its sequence number, and whoever tails a live store can
    /// have missed the WAL tail the checkpoint truncated, closes included.
    /// Installing over state that already reflects part of the image is
    /// idempotent: the per-pool watermarks skip the batches seen before.
    ///
    /// # Errors
    ///
    /// As [`Self::apply`].
    pub fn install_checkpoint(&mut self, image: &CheckpointImage) -> Result<(), PersistError> {
        let Some(seq) = image.seq else {
            return Ok(());
        };
        for (seq, record) in &image.pools {
            self.apply(*seq, record)?;
        }
        self.open_windows.clear();
        self.roots.clear();
        self.prot_mark = None;
        for (seq, record) in &image.protection {
            self.apply(*seq, record)?;
        }
        self.prot_mark = Some(seq);
        self.applied_seq = self.applied_seq.max(Some(seq));
        Ok(())
    }

    /// Applies one record.
    ///
    /// # Errors
    ///
    /// [`PersistError::ReplayDivergence`] if an `Alloc` replays to a
    /// different offset than logged, or a `PageDelta` names a page outside
    /// its pool or carries more than a page; [`PersistError::Substrate`] if
    /// the PMO layer rejects the operation. All mean the record stream is
    /// inconsistent with the state it is applied to, not merely torn.
    pub fn apply(&mut self, seq: u64, record: &WalRecord) -> Result<(), PersistError> {
        self.applied_seq = self.applied_seq.max(Some(seq));
        let skip = if record.is_protection() {
            self.prot_mark
        } else {
            record
                .pmo()
                .and_then(|id| self.watermark.get(id.index()).copied().flatten())
        };
        if skip.is_some_and(|mark| seq <= mark) {
            self.report.records_skipped += 1;
            return Ok(());
        }
        match record {
            WalRecord::PoolCreate {
                id,
                name,
                size,
                mode,
            } => {
                self.registry.restore_pool(*id, name, *size, *mode)?;
            }
            WalRecord::Alloc { pmo, size, offset } => {
                let got = self.registry.pool_mut(*pmo)?.pmalloc(*size)?;
                if got.offset() != *offset {
                    return Err(PersistError::ReplayDivergence {
                        pmo: *pmo,
                        detail: format!(
                            "alloc of {size} B replayed to {:#x}, log says {offset:#x}",
                            got.offset()
                        ),
                    });
                }
            }
            WalRecord::Free { pmo, offset } => {
                self.registry
                    .pool_mut(*pmo)?
                    .pfree(ObjectId::new(*pmo, *offset))?;
            }
            WalRecord::DataWrite { pmo, offset, data } => {
                self.registry.pool_mut(*pmo)?.write_bytes(*offset, data)?;
            }
            WalRecord::PageDelta { pmo, page, data } => {
                // `page` is 64 bits of outside input (disk or socket) behind
                // a valid CRC: the byte offset must exist, start inside the
                // pool, and the image must not exceed the page it names.
                let pool = self.registry.pool_mut(*pmo)?;
                let start = page
                    .checked_mul(PAGE_SIZE)
                    .filter(|&start| start < pool.size() && data.len() as u64 <= PAGE_SIZE)
                    .ok_or_else(|| PersistError::ReplayDivergence {
                        pmo: *pmo,
                        detail: format!(
                            "page {page} ({} bytes) does not fit the {}-byte pool",
                            data.len(),
                            pool.size()
                        ),
                    })?;
                pool.write_bytes(start, data)?;
            }
            WalRecord::AllocTable { pmo, live } => {
                // Checkpoint boundary for this pool: install the absolute
                // allocator image and raise the watermark, so the WAL's
                // surviving records at or below this seq — and the rest of
                // an older batch — do not double-apply.
                self.registry.pool_mut(*pmo)?.restore_allocator(live)?;
                self.raise(*pmo, seq);
            }
            WalRecord::WindowOpen { pmo } => {
                self.open_windows.insert(*pmo);
            }
            WalRecord::WindowClose { pmo } => {
                self.open_windows.remove(pmo);
            }
            // A checkpoint marker mutates nothing: it is neither replayed
            // nor skipped.
            WalRecord::Checkpoint { .. } => return Ok(()),
            WalRecord::RootSet { pmo, key, oid } => {
                if *oid == 0 {
                    self.roots.remove(&(*pmo, *key));
                } else {
                    self.roots.insert((*pmo, *key), *oid);
                }
            }
        }
        self.report.records_replayed += 1;
        Ok(())
    }

    /// Ends the replay: rolls back every in-flight transaction, then
    /// force-closes and reseals every window still open.
    ///
    /// # Errors
    ///
    /// [`PersistError::Substrate`] if a pool's undo log cannot be read.
    pub fn finish(mut self) -> Result<(RecoveredState, RecoveryReport), PersistError> {
        let mut report = self.report;
        for pool in self.registry.iter_mut() {
            report.txns_rolled_back += txn::recover(pool)?;
        }
        let mut resealed = Vec::new();
        for pmo in &self.open_windows {
            if let Ok(pool) = self.registry.pool_mut(*pmo) {
                pool.reseal();
                resealed.push(*pmo);
            }
        }
        report.windows_resealed = resealed.len();
        report.pools_recovered = self.registry.len();
        report.roots_recovered = self.roots.len();
        Ok((
            RecoveredState {
                registry: self.registry,
                resealed,
                roots: self.roots,
            },
            report,
        ))
    }

    /// [`Self::finish`], with what the pass over the WAL found entered into
    /// the report.
    pub(crate) fn finish_scanned(
        self,
        scan: &LogScan,
    ) -> Result<(RecoveredState, RecoveryReport), PersistError> {
        let (state, mut report) = self.finish()?;
        report.bytes_dropped = scan.dropped as usize;
        report.torn_tail = scan.dropped > 0;
        report.wal_bytes_read = scan.bytes_read;
        report.frames_decoded = scan.frames;
        Ok((state, report))
    }
}

/// Rebuilds state from a WAL image alone (a store that never completed a
/// checkpoint); see [`recover_from`].
pub fn recover(wal: &[u8]) -> Result<(RecoveredState, RecoveryReport), PersistError> {
    recover_from(&CheckpointImage::default(), wal)
}

/// Rebuilds state from a committed checkpoint and an image of the WAL
/// written since: install, replay, finish. The WAL is decoded up to where
/// it ends ([`crate::read_log`]'s rule) — a torn tail is what a crash
/// legitimately leaves, and is reported rather than refused. This is the
/// pass [`crate::DurableStore::open`] makes over the file, made over bytes.
///
/// # Errors
///
/// As [`Replay::apply`] and [`Replay::finish`].
pub fn recover_from(
    image: &CheckpointImage,
    wal: &[u8],
) -> Result<(RecoveredState, RecoveryReport), PersistError> {
    let start = Instant::now();
    let mut replay = Replay::new();
    replay.install_checkpoint(image)?;
    let scan = FrameStream::new(wal, FrameDecoder::wal(None))
        .drain(|seq, record| replay.apply(seq, &record))?;
    let (state, mut report) = replay.finish_scanned(&scan)?;
    report.recovery_ns = start.elapsed().as_nanos();
    Ok((state, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::read_log;
    use crate::wal::WalWriter;
    use terp_pmo::OpenMode;

    fn id(raw: u16) -> PmoId {
        PmoId::new(raw).unwrap()
    }

    /// Runs a small workload against a live registry while logging it, and
    /// returns (registry, durable log bytes).
    fn logged_workload() -> (PmoRegistry, Vec<u8>) {
        let mut reg = PmoRegistry::new();
        let mut wal = WalWriter::in_memory();
        let pid = reg.create("wk", 1 << 18, OpenMode::ReadWrite).unwrap();
        wal.append(&WalRecord::PoolCreate {
            id: pid,
            name: "wk".into(),
            size: 1 << 18,
            mode: OpenMode::ReadWrite,
        })
        .unwrap();
        let oid = reg.pool_mut(pid).unwrap().pmalloc(256).unwrap();
        wal.append(&WalRecord::Alloc {
            pmo: pid,
            size: 256,
            offset: oid.offset(),
        })
        .unwrap();
        reg.pool_mut(pid)
            .unwrap()
            .write_bytes(oid.offset(), b"payload")
            .unwrap();
        wal.append(&WalRecord::DataWrite {
            pmo: pid,
            offset: oid.offset(),
            data: b"payload".to_vec(),
        })
        .unwrap();
        wal.append(&WalRecord::WindowOpen { pmo: pid }).unwrap();
        reg.pool_mut(pid)
            .unwrap()
            .write_bytes(oid.offset() + 7, b"!")
            .unwrap();
        wal.append(&WalRecord::DataWrite {
            pmo: pid,
            offset: oid.offset() + 7,
            data: b"!".to_vec(),
        })
        .unwrap();
        wal.sync().unwrap();
        let bytes = wal.durable_bytes().unwrap().to_vec();
        (reg, bytes)
    }

    #[test]
    fn replay_rebuilds_data_and_reseals_open_windows() {
        let (live, log) = logged_workload();
        let pid = id(1);
        let gen_before = live.pool(pid).unwrap().attach_generation();

        let (state, report) = recover(&log).unwrap();
        assert_eq!(report.pools_recovered, 1);
        assert_eq!(report.windows_resealed, 1);
        assert_eq!(state.resealed, vec![pid]);

        let pool = state.registry.pool(pid).unwrap();
        let mut buf = [0u8; 8];
        let (off, _) = pool.allocator().live_blocks().next().unwrap();
        pool.read_bytes(off, &mut buf).unwrap();
        assert_eq!(&buf, b"payload!");
        assert!(
            pool.attach_generation() > gen_before,
            "resealed pool must re-randomize on next attach"
        );
    }

    #[test]
    fn closed_windows_are_not_resealed() {
        let (_, mut log) = logged_workload();
        let mut wal = WalWriter::in_memory();
        wal.set_next_seq(5);
        wal.append(&WalRecord::WindowClose { pmo: id(1) }).unwrap();
        wal.sync().unwrap();
        log.extend_from_slice(wal.durable_bytes().unwrap());

        let (state, report) = recover(&log).unwrap();
        assert_eq!(report.windows_resealed, 0);
        assert!(state.resealed.is_empty());
    }

    /// The image batch of one pool at `seq`, as a checkpoint writes it.
    fn image_batch(pool: &terp_pmo::Pmo, seq: u64) -> Vec<(u64, WalRecord)> {
        let mut batch = vec![WalRecord::PoolCreate {
            id: pool.id(),
            name: pool.name().to_string(),
            size: pool.size(),
            mode: pool.mode(),
        }];
        batch.extend(
            pool.export_pages()
                .map(|(page, bytes)| WalRecord::PageDelta {
                    pmo: pool.id(),
                    page,
                    data: bytes.to_vec(),
                }),
        );
        batch.push(WalRecord::AllocTable {
            pmo: pool.id(),
            live: pool.allocator().live_blocks().collect(),
        });
        batch.into_iter().map(|r| (seq, r)).collect()
    }

    #[test]
    fn snapshot_watermark_suppresses_double_replay() {
        let (live, log) = logged_workload();
        let pid = id(1);
        // Checkpoint after the whole log (last seq = 4), window still open.
        let image = CheckpointImage {
            seq: Some(4),
            ckpt_len: 0,
            pools: image_batch(live.pool(pid).unwrap(), 4),
            protection: vec![(4, WalRecord::WindowOpen { pmo: pid })],
        };

        let (state, report) = recover_from(&image, &log).unwrap();
        // Every record of the un-truncated WAL is skipped: data below the
        // pool's watermark, protection below the snapshot's.
        assert_eq!(report.records_skipped, 5);
        assert_eq!(report.windows_resealed, 1, "carried by the snapshot");
        let pool = state.registry.pool(pid).unwrap();
        assert_eq!(pool.allocator().live_count(), 1, "alloc not double-applied");
        assert_eq!(fingerprint(&state.registry), fingerprint(&live));
    }

    /// A snapshot is *clear + apply*: a tailer that missed the WAL tail a
    /// checkpoint truncated must not keep a window the snapshot knows closed.
    #[test]
    fn installing_a_checkpoint_replaces_the_protection_state() {
        let (live, log) = logged_workload();
        let pid = id(1);
        let mut replay = Replay::new();
        for (seq, record) in &read_log(&log).records {
            replay.apply(*seq, record).unwrap();
        }
        assert_eq!(replay.open_windows().len(), 1);
        assert_eq!(replay.applied_seq(), Some(4));
        // The leader closed the window at seq 5 and checkpointed at 6; the
        // close was truncated away before it shipped.
        let image = CheckpointImage {
            seq: Some(6),
            ckpt_len: 0,
            pools: image_batch(live.pool(pid).unwrap(), 6),
            protection: Vec::new(),
        };
        replay.install_checkpoint(&image).unwrap();
        assert!(replay.open_windows().is_empty());
        assert_eq!(replay.applied_seq(), Some(6));
        // Installing it again changes nothing (watermarks skip the batch).
        replay.install_checkpoint(&image).unwrap();
        assert_eq!(fingerprint(replay.registry()), fingerprint(&live));
        let (state, _) = replay.finish().unwrap();
        assert!(state.resealed.is_empty());
    }

    type PoolPrint = (u16, Vec<(u64, u64)>, Vec<(u64, Vec<u8>)>);

    fn fingerprint(reg: &PmoRegistry) -> Vec<PoolPrint> {
        reg.iter()
            .map(|p| {
                (
                    p.id().raw(),
                    p.allocator().live_blocks().collect(),
                    p.export_pages().map(|(i, b)| (i, b.to_vec())).collect(),
                )
            })
            .collect()
    }

    /// A CRC-valid `PageDelta` that lies about where or how big its page
    /// is: a typed error, never a panic or a wrapped offset (this runs in
    /// release mode too, where overflow checks are off).
    #[test]
    fn hostile_page_deltas_are_rejected() {
        let (live, log) = logged_workload();
        let pid = id(1);
        let pool_pages = live.pool(pid).unwrap().size() / PAGE_SIZE;
        let with_page = |page: u64, len: usize| {
            let mut bytes = log.clone();
            let delta = WalRecord::PageDelta {
                pmo: pid,
                page,
                data: vec![0x5A; len],
            };
            bytes.extend_from_slice(&delta.encode(6));
            recover(&bytes)
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
        for (what, result) in cases {
            assert!(
                matches!(result, Err(PersistError::ReplayDivergence { .. })),
                "{what}: {:?}",
                result.map(|(_, report)| report)
            );
        }
        // The last page of the pool and a short page are fine.
        let (state, _) = with_page(pool_pages - 1, 100).unwrap();
        let mut buf = [0u8; 100];
        state
            .registry
            .pool(pid)
            .unwrap()
            .read_bytes((pool_pages - 1) * PAGE_SIZE, &mut buf)
            .unwrap();
        assert_eq!(buf, [0x5A; 100]);
    }

    #[test]
    fn root_directory_replays_last_writer_wins_and_survives_torn_tails() {
        let (_, mut log) = logged_workload();
        let pid = id(1);
        let mut wal = WalWriter::in_memory();
        wal.set_next_seq(6);
        // Two sets on key 1 (second wins), a set+clear on key 2, and a set
        // on key 3 whose frame we then tear mid-payload.
        for rec in [
            WalRecord::RootSet {
                pmo: pid,
                key: 1,
                oid: 0x0040_0000_0000_0100,
            },
            WalRecord::RootSet {
                pmo: pid,
                key: 1,
                oid: 0x0040_0000_0000_0200,
            },
            WalRecord::RootSet {
                pmo: pid,
                key: 2,
                oid: 0x0040_0000_0000_0300,
            },
            WalRecord::RootSet {
                pmo: pid,
                key: 2,
                oid: 0,
            },
        ] {
            wal.append(&rec).unwrap();
        }
        wal.sync().unwrap();
        log.extend_from_slice(wal.durable_bytes().unwrap());
        let torn_frame = WalRecord::RootSet {
            pmo: pid,
            key: 3,
            oid: 0x0040_0000_0000_0400,
        }
        .encode(10);
        log.extend_from_slice(&torn_frame[..torn_frame.len() - 3]);

        let (state, report) = recover(&log).unwrap();
        assert!(report.torn_tail, "tail must register as torn");
        assert_eq!(report.roots_recovered, 1);
        assert_eq!(
            state.roots.get(&(pid, 1)),
            Some(&0x0040_0000_0000_0200),
            "later RootSet must win"
        );
        assert!(
            !state.roots.contains_key(&(pid, 2)),
            "oid 0 must clear the slot"
        );
        assert!(
            !state.roots.contains_key(&(pid, 3)),
            "a torn RootSet frame must not resurrect a root"
        );
    }

    #[test]
    fn root_directory_is_watermark_exempt() {
        let (live, mut log) = logged_workload();
        let pid = id(1);
        let mut wal = WalWriter::in_memory();
        wal.set_next_seq(6);
        wal.append(&WalRecord::RootSet {
            pmo: pid,
            key: 0,
            oid: 0x0040_0000_0000_0500,
        })
        .unwrap();
        wal.sync().unwrap();
        log.extend_from_slice(wal.durable_bytes().unwrap());
        // The pool's data watermark covers the whole log, including the
        // RootSet — which only a protection snapshot may supersede.
        let mut replay = Replay::new();
        for (seq, record) in &image_batch(live.pool(pid).unwrap(), 6) {
            replay.apply(*seq, record).unwrap();
        }
        for (seq, record) in &read_log(&log).records {
            replay.apply(*seq, record).unwrap();
        }
        let (state, _) = replay.finish().unwrap();
        assert_eq!(
            state.roots.get(&(pid, 0)),
            Some(&0x0040_0000_0000_0500),
            "roots below a pool's data watermark must still replay"
        );
    }

    #[test]
    fn alloc_divergence_is_detected() {
        let mut wal = WalWriter::in_memory();
        wal.append(&WalRecord::PoolCreate {
            id: id(1),
            name: "dv".into(),
            size: 1 << 16,
            mode: OpenMode::ReadWrite,
        })
        .unwrap();
        wal.append(&WalRecord::Alloc {
            pmo: id(1),
            size: 64,
            offset: 0xDEAD00, // not what a fresh allocator will hand out
        })
        .unwrap();
        wal.sync().unwrap();
        let err = recover(wal.durable_bytes().unwrap()).unwrap_err();
        assert!(
            matches!(err, PersistError::ReplayDivergence { .. }),
            "{err}"
        );
    }

    #[test]
    fn uncommitted_transaction_rolls_back_during_recovery() {
        use terp_pmo::Transaction;
        let mut reg = PmoRegistry::new();
        let mut wal = WalWriter::in_memory();
        let pid = reg.create("tx", 1 << 18, OpenMode::ReadWrite).unwrap();
        wal.append(&WalRecord::PoolCreate {
            id: pid,
            name: "tx".into(),
            size: 1 << 18,
            mode: OpenMode::ReadWrite,
        })
        .unwrap();

        // Mirror every pool mutation into the WAL, exactly as a durable
        // service does, then crash mid-transaction (no commit).
        let target = reg.pool_mut(pid).unwrap().pmalloc(64).unwrap();
        reg.pool_mut(pid)
            .unwrap()
            .write_bytes(target.offset(), b"original")
            .unwrap();
        wal.append(&WalRecord::Alloc {
            pmo: pid,
            size: 64,
            offset: target.offset(),
        })
        .unwrap();
        wal.append(&WalRecord::DataWrite {
            pmo: pid,
            offset: target.offset(),
            data: b"original".to_vec(),
        })
        .unwrap();

        let live_before: Vec<(u64, u64)> =
            reg.pool(pid).unwrap().allocator().live_blocks().collect();
        let pages_before: Vec<(u64, Vec<u8>)> = reg
            .pool(pid)
            .unwrap()
            .export_pages()
            .map(|(i, b)| (i, b.to_vec()))
            .collect();
        {
            let mut txn = Transaction::begin(reg.pool_mut(pid).unwrap()).unwrap();
            txn.write(target.offset(), b"clobber!").unwrap();
            txn.crash(); // power failure before commit
        }
        // Log the crash's physical footprint: the new allocation (the
        // transaction's undo-log area) and every changed page.
        let live_after: Vec<(u64, u64)> =
            reg.pool(pid).unwrap().allocator().live_blocks().collect();
        for &(off, len) in live_after.iter().filter(|b| !live_before.contains(b)) {
            wal.append(&WalRecord::Alloc {
                pmo: pid,
                size: len,
                offset: off,
            })
            .unwrap();
        }
        let pages_after: Vec<(u64, Vec<u8>)> = reg
            .pool(pid)
            .unwrap()
            .export_pages()
            .map(|(i, b)| (i, b.to_vec()))
            .collect();
        for (idx, bytes) in &pages_after {
            let changed = pages_before
                .iter()
                .find(|(i, _)| i == idx)
                .is_none_or(|(_, old)| old != bytes);
            if changed {
                wal.append(&WalRecord::DataWrite {
                    pmo: pid,
                    offset: idx * terp_pmo::PAGE_SIZE,
                    data: bytes.clone(),
                })
                .unwrap();
            }
        }

        wal.sync().unwrap();
        let (state, report) = recover(wal.durable_bytes().unwrap()).unwrap();
        assert!(report.txns_rolled_back > 0, "in-flight txn must roll back");
        let mut buf = [0u8; 8];
        state
            .registry
            .pool(pid)
            .unwrap()
            .read_bytes(target.offset(), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"original", "uncommitted write must be undone");
    }
}
