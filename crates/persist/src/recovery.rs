//! Crash recovery: snapshots + log replay + window resealing.
//!
//! Recovery rebuilds a fresh [`PmoRegistry`] in four steps:
//!
//! 1. **Install snapshots.** Each pool snapshot restores the pool at its
//!    original id with its allocator state and data pages, and contributes a
//!    per-pool `wal_seq` watermark.
//! 2. **Replay the log.** Data records (`PoolCreate`/`Alloc`/`Free`/
//!    `DataWrite`) with sequence numbers at or below the pool's watermark
//!    are skipped — the snapshot already reflects them; replaying an `Alloc`
//!    twice would diverge. Later records re-execute against the real
//!    substrate, and `Alloc` replay *verifies* the allocator reproduces the
//!    logged offset (a mismatch means log and snapshot disagree —
//!    [`PersistError::ReplayDivergence`]). Protection-state records always
//!    replay: they only mutate idempotent session/window sets.
//! 3. **Roll back transactions.** Every recovered pool runs
//!    [`terp_pmo::txn::recover`], undoing writes of transactions that were
//!    in flight at the crash. The undo log lives in pool bytes, so it was
//!    itself rebuilt by steps 1–2.
//! 4. **Reseal windows.** The TERP-specific invariant: any exposure window
//!    open at crash time is force-closed — the recovered registry exposes
//!    *no* mapped pools — and each such pool's attach generation is bumped
//!    ([`terp_pmo::Pmo::reseal`]) so the next attach re-randomizes its MERR
//!    placement instead of resuming the pre-crash mapping. Sessions are
//!    discarded, never resurrected: clients must re-attach through the
//!    permission path.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use terp_pmo::{txn, ObjectId, PmoId, PmoRegistry};

use crate::error::PersistError;
use crate::record::{read_log, WalRecord};
use crate::snapshot::PoolSnapshot;

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
    /// Pools restored (snapshots + replayed creations).
    pub pools_recovered: usize,
    /// Snapshot files installed.
    pub snapshots_installed: usize,
    /// Log records re-executed.
    pub records_replayed: usize,
    /// Log records skipped as already reflected in a snapshot.
    pub records_skipped: usize,
    /// Bytes discarded from the torn/corrupt log tail.
    pub bytes_dropped: usize,
    /// Whether the log ended in a torn or corrupt frame.
    pub torn_tail: bool,
    /// Undo records rolled back by in-pool transaction recovery.
    pub txns_rolled_back: usize,
    /// Exposure windows open at crash time, force-closed and re-randomized.
    pub windows_resealed: usize,
    /// Client sessions open at crash time, discarded (not resurrected).
    pub sessions_discarded: usize,
    /// Wall-clock nanoseconds the recovery took.
    pub recovery_ns: u128,
    /// Root-directory entries live after replay (cleared slots excluded).
    pub roots_recovered: usize,
}

/// Rebuilds state from `snapshots` and a single durable log image.
///
/// Shorthand for [`recover_segments`] with one segment; see there for the
/// full contract.
pub fn recover(
    snapshots: &[PoolSnapshot],
    log_bytes: &[u8],
) -> Result<(RecoveredState, RecoveryReport), PersistError> {
    recover_segments(snapshots, &[log_bytes])
}

/// Rebuilds state from `snapshots` and an ordered sequence of durable log
/// segments.
///
/// Segments are replayed oldest-first in the order given: for a store with
/// incremental checkpoints that is the delta log (`ckpt.log`), then the
/// protection snapshot (`prot.log`), then the live WAL (`wal.log`). Each
/// segment is decoded **independently** — a torn tail in one segment stops
/// that segment's replay at the tear but does not discard later segments,
/// which were written by different (and possibly earlier, already-fsynced)
/// protocol steps.
///
/// [`WalRecord::AllocTable`] records raise the pool's replay watermark:
/// they mark a checkpoint boundary, so data records at or below their
/// sequence number are already reflected in the delta state and must not
/// double-apply.
///
/// # Errors
///
/// [`PersistError::ReplayDivergence`] if an `Alloc` record replays to a
/// different offset than logged, [`PersistError::Substrate`] if the PMO
/// layer rejects a replayed operation — both mean the snapshot/log pair is
/// inconsistent, not merely torn (torn tails are handled by truncation).
pub fn recover_segments(
    snapshots: &[PoolSnapshot],
    segments: &[&[u8]],
) -> Result<(RecoveredState, RecoveryReport), PersistError> {
    let start = Instant::now();
    let mut report = RecoveryReport::default();
    let mut registry = PmoRegistry::new();

    // Step 1: snapshots, with per-pool replay watermarks.
    let mut watermark: Vec<Option<u64>> = Vec::new();
    let raise = |watermark: &mut Vec<Option<u64>>, idx: usize, seq: u64| {
        if watermark.len() <= idx {
            watermark.resize(idx + 1, None);
        }
        watermark[idx] = Some(watermark[idx].map_or(seq, |old| old.max(seq)));
    };
    for snap in snapshots {
        snap.install_into(&mut registry)?;
        raise(&mut watermark, snap.id.index(), snap.wal_seq);
        report.snapshots_installed += 1;
    }

    // Step 2: log replay. Decode every segment up front so torn-tail
    // accounting covers all of them before any record executes.
    let decoded: Vec<_> = segments.iter().map(|bytes| read_log(bytes)).collect();
    for contents in &decoded {
        report.bytes_dropped += contents.dropped;
        report.torn_tail |= !contents.is_clean();
    }
    let torn_any = report.torn_tail;
    let mut open_windows: BTreeSet<PmoId> = BTreeSet::new();
    let mut sessions: BTreeSet<(u64, PmoId)> = BTreeSet::new();
    let mut roots: BTreeMap<(PmoId, u32), u64> = BTreeMap::new();
    for (seq, record) in decoded.iter().flat_map(|c| c.records.iter()) {
        let below_watermark = record
            .pmo()
            .and_then(|id| watermark.get(id.index()).copied().flatten())
            .is_some_and(|mark| *seq <= mark);
        match record {
            WalRecord::PoolCreate {
                id,
                name,
                size,
                mode,
            } => {
                // restore_pool is idempotent, so replaying a creation that
                // the snapshot already made is harmless even below the
                // watermark; skipping keeps the counters honest.
                if below_watermark {
                    report.records_skipped += 1;
                    continue;
                }
                registry.restore_pool(*id, name, *size, *mode)?;
                report.records_replayed += 1;
            }
            WalRecord::Alloc { pmo, size, offset } => {
                if below_watermark {
                    report.records_skipped += 1;
                    continue;
                }
                let got = registry.pool_mut(*pmo)?.pmalloc(*size)?;
                if got.offset() != *offset {
                    return Err(PersistError::ReplayDivergence {
                        pmo: *pmo,
                        detail: format!(
                            "alloc of {size} B replayed to {:#x}, log says {offset:#x}",
                            got.offset()
                        ),
                    });
                }
                report.records_replayed += 1;
            }
            WalRecord::Free { pmo, offset } => {
                if below_watermark {
                    report.records_skipped += 1;
                    continue;
                }
                registry
                    .pool_mut(*pmo)?
                    .pfree(ObjectId::new(*pmo, *offset))?;
                report.records_replayed += 1;
            }
            WalRecord::DataWrite { pmo, offset, data } => {
                if below_watermark {
                    report.records_skipped += 1;
                    continue;
                }
                registry.pool_mut(*pmo)?.write_bytes(*offset, data)?;
                report.records_replayed += 1;
            }
            WalRecord::PageDelta { pmo, page, data } => {
                // Incremental-checkpoint page image: an absolute overwrite,
                // so replay is idempotent; watermark-skippable exactly like
                // DataWrite (a later AllocTable/full snapshot supersedes it).
                if below_watermark {
                    report.records_skipped += 1;
                    continue;
                }
                registry
                    .pool_mut(*pmo)?
                    .write_bytes(*page * terp_pmo::PAGE_SIZE, data)?;
                report.records_replayed += 1;
            }
            WalRecord::AllocTable { pmo, live } => {
                // Checkpoint boundary for this pool: install the absolute
                // allocator image and raise the replay watermark so the live
                // WAL's surviving records at or below this seq (a crash can
                // land between the delta fsync and the WAL truncation) do
                // not double-apply — replaying their Allocs against the
                // restored allocator would diverge.
                if below_watermark {
                    report.records_skipped += 1;
                    continue;
                }
                registry.pool_mut(*pmo)?.restore_allocator(live)?;
                raise(&mut watermark, pmo.index(), *seq);
                report.records_replayed += 1;
            }
            // Protection-state records: pure set mutations, idempotent and
            // watermark-exempt (window state is never part of a snapshot —
            // a snapshot is a checkpoint of *data*, exposure is runtime
            // state that recovery must re-derive to know what to reseal).
            WalRecord::SessionOpen { client, pmo, .. } => {
                sessions.insert((*client, *pmo));
                report.records_replayed += 1;
            }
            WalRecord::SessionClose { client, pmo } => {
                sessions.remove(&(*client, *pmo));
                report.records_replayed += 1;
            }
            WalRecord::WindowOpen { pmo } => {
                open_windows.insert(*pmo);
                report.records_replayed += 1;
            }
            WalRecord::WindowClose { pmo } => {
                open_windows.remove(pmo);
                report.records_replayed += 1;
            }
            WalRecord::Randomize { pmo } => {
                // The window splits but stays open; nothing to re-derive
                // beyond what WindowOpen already recorded.
                debug_assert!(open_windows.contains(pmo) || torn_any);
                report.records_replayed += 1;
            }
            WalRecord::Checkpoint => {
                report.records_replayed += 1;
            }
            // Root-directory records are watermark-exempt like the other
            // protection-adjacent state: a snapshot captures pool bytes,
            // not the directory, so every surviving RootSet replays
            // (last-writer-wins; oid 0 clears the slot).
            WalRecord::RootSet { pmo, key, oid } => {
                if *oid == 0 {
                    roots.remove(&(*pmo, *key));
                } else {
                    roots.insert((*pmo, *key), *oid);
                }
                report.records_replayed += 1;
            }
        }
    }

    // Step 3: in-pool transaction rollback, every recovered pool.
    for pool in registry.iter_mut() {
        report.txns_rolled_back += txn::recover(pool)?;
    }

    // Step 4: reseal. Windows open at crash are force-closed (the recovered
    // registry has no mapping state at all) and the pools re-randomize on
    // next attach. Sessions are discarded, not resurrected.
    let mut resealed = Vec::new();
    for pmo in &open_windows {
        if let Ok(pool) = registry.pool_mut(*pmo) {
            pool.reseal();
            resealed.push(*pmo);
            report.windows_resealed += 1;
        }
    }
    report.sessions_discarded = sessions.len();
    report.pools_recovered = registry.len();
    report.roots_recovered = roots.len();
    report.recovery_ns = start.elapsed().as_nanos();

    Ok((
        RecoveredState {
            registry,
            resealed,
            roots,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalWriter;
    use terp_pmo::{OpenMode, Permission};

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
        wal.append(&WalRecord::SessionOpen {
            client: 9,
            pmo: pid,
            perm: Permission::ReadWrite,
        })
        .unwrap();
        wal.append(&WalRecord::WindowOpen { pmo: pid }).unwrap();
        wal.append(&WalRecord::Randomize { pmo: pid }).unwrap();
        wal.sync().unwrap();
        let bytes = wal.durable_bytes().unwrap().to_vec();
        (reg, bytes)
    }

    #[test]
    fn replay_rebuilds_data_and_reseals_open_windows() {
        let (live, log) = logged_workload();
        let pid = id(1);
        let gen_before = live.pool(pid).unwrap().attach_generation();

        let (state, report) = recover(&[], &log).unwrap();
        assert_eq!(report.pools_recovered, 1);
        assert_eq!(report.windows_resealed, 1);
        assert_eq!(report.sessions_discarded, 1);
        assert_eq!(state.resealed, vec![pid]);

        let pool = state.registry.pool(pid).unwrap();
        let mut buf = [0u8; 7];
        let (off, _) = pool.allocator().live_blocks().next().unwrap();
        pool.read_bytes(off, &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
        assert!(
            pool.attach_generation() > gen_before,
            "resealed pool must re-randomize on next attach"
        );
    }

    #[test]
    fn closed_windows_are_not_resealed() {
        let (_, mut log) = logged_workload();
        let mut wal = WalWriter::in_memory();
        wal.set_next_seq(6);
        wal.append(&WalRecord::WindowClose { pmo: id(1) }).unwrap();
        wal.append(&WalRecord::SessionClose {
            client: 9,
            pmo: id(1),
        })
        .unwrap();
        wal.sync().unwrap();
        log.extend_from_slice(wal.durable_bytes().unwrap());

        let (state, report) = recover(&[], &log).unwrap();
        assert_eq!(report.windows_resealed, 0);
        assert_eq!(report.sessions_discarded, 0);
        assert!(state.resealed.is_empty());
    }

    #[test]
    fn snapshot_watermark_suppresses_double_replay() {
        let (live, log) = logged_workload();
        let pid = id(1);
        // Checkpoint after the whole log (last seq = 5).
        let snap = PoolSnapshot::capture(live.pool(pid).unwrap(), 5);

        let (state, report) = recover(&[snap], &log).unwrap();
        // All data records skipped; protection records still replayed.
        assert_eq!(report.records_skipped, 3);
        assert_eq!(report.windows_resealed, 1);
        let pool = state.registry.pool(pid).unwrap();
        assert_eq!(pool.allocator().live_count(), 1, "alloc not double-applied");
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

        let (state, report) = recover(&[], &log).unwrap();
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
        // Snapshot watermark covers the whole log, including the RootSet.
        let snap = PoolSnapshot::capture(live.pool(pid).unwrap(), 6);
        let (state, _) = recover(&[snap], &log).unwrap();
        assert_eq!(
            state.roots.get(&(pid, 0)),
            Some(&0x0040_0000_0000_0500),
            "roots below the snapshot watermark must still replay"
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
        let err = recover(&[], wal.durable_bytes().unwrap()).unwrap_err();
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
        let (state, report) = recover(&[], wal.durable_bytes().unwrap()).unwrap();
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
