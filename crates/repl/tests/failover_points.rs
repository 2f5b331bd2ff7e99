//! The failover-point enumerator: kill the leader at every enumerated WAL
//! position and prove the promoted follower is safe at each one.
//!
//! Built on the PR-3 crash-injection harness: [`enumerate_crash_points`]
//! walks the leader's durable log image and yields every record-boundary
//! truncation, torn write, and byte corruption. For each point the test
//! materializes exactly what a follower mirror can hold at that instant —
//! the leader's bytes *verbatim*, including a tail torn mid-frame by a
//! leader dying mid-send — and promotes it through the real recovery path.
//!
//! Asserted at **every** point:
//!
//! 1. **No resumed exposure**: the set of pools recovery reseals equals
//!    exactly the set of exposure windows open in the durable prefix — the
//!    promoted follower exposes no window the leader had open, and reseals
//!    nothing it shouldn't.
//! 2. **Byte-identical committed state**: the promoted registry equals a
//!    reference recovery of the leader's valid durable prefix, page for
//!    page and block for block, and the mirror WAL is physically truncated
//!    to that prefix.
//! 3. **No uncommitted effects**: once the in-flight transaction's full
//!    footprint is durable, its uncommitted write is rolled back; the
//!    torn-away tail never resurrects it.
//! 4. **The promoted service takes traffic**: a real `PmoServer` opens
//!    over the mirror in standby mode (mutations refused), promotes, and
//!    accepts writes.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use terp_core::config::Scheme;
use terp_persist::store::WAL_FILE;
use terp_persist::{
    enumerate_crash_points, inject, read_log, recover, DurableStore, Visibility, WalRecord,
    WalWriter,
};
use terp_pmo::{OpenMode, Permission, PmoId, PmoRegistry, Transaction};
use terp_service::{PmoServer, ServiceConfig, ServiceError};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("terp-failover-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// One pool's identity: id, name, size, live blocks, page bytes.
type PoolPrint = (u16, String, u64, Vec<(u64, u64)>, Vec<(u64, Vec<u8>)>);

/// A pool-state fingerprint: byte-identical means equal fingerprints.
fn fingerprint(reg: &PmoRegistry) -> Vec<PoolPrint> {
    let mut pools: Vec<_> = reg
        .iter()
        .map(|p| {
            (
                p.id().raw(),
                p.name().to_string(),
                p.size(),
                p.allocator().live_blocks().collect::<Vec<_>>(),
                p.export_pages()
                    .map(|(i, b)| (i, b.to_vec()))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    pools.sort_by_key(|p| p.0);
    pools
}

/// The leader's life up to its death: two pools, a completed exposure
/// window on A, a window left open on B, and an in-flight transaction on A
/// crashed before commit — all mirrored into the WAL exactly as the
/// durable service logs them. Returns the durable log image, the offset of
/// A's first allocation, and the WAL seq of the transaction footprint's
/// last record.
fn build_leader_log() -> (Vec<u8>, u64, u64) {
    let mut reg = PmoRegistry::new();
    let mut wal = WalWriter::in_memory();
    let mut log = |rec: &WalRecord| wal.append(rec).unwrap();

    // Pool A: committed data and a full window open/close cycle.
    let a = reg.create("acct", 1 << 18, OpenMode::ReadWrite).unwrap();
    log(&WalRecord::PoolCreate {
        id: a,
        name: "acct".into(),
        size: 1 << 18,
        mode: OpenMode::ReadWrite,
    });
    let a1 = reg.pool_mut(a).unwrap().pmalloc(128).unwrap();
    log(&WalRecord::Alloc {
        pmo: a,
        size: 128,
        offset: a1.offset(),
    });
    reg.pool_mut(a)
        .unwrap()
        .write_bytes(a1.offset(), b"committed-v1")
        .unwrap();
    log(&WalRecord::DataWrite {
        pmo: a,
        offset: a1.offset(),
        data: b"committed-v1".to_vec(),
    });
    log(&WalRecord::SessionOpen {
        client: 9,
        pmo: a,
        perm: Permission::ReadWrite,
    });
    log(&WalRecord::WindowOpen { pmo: a });
    reg.pool_mut(a)
        .unwrap()
        .write_bytes(a1.offset(), b"committed-v2")
        .unwrap();
    log(&WalRecord::DataWrite {
        pmo: a,
        offset: a1.offset(),
        data: b"committed-v2".to_vec(),
    });
    log(&WalRecord::Randomize { pmo: a });
    log(&WalRecord::WindowClose { pmo: a });
    log(&WalRecord::SessionClose { client: 9, pmo: a });

    // Pool B: exposure window open at the crash.
    let b = reg.create("scratch", 1 << 16, OpenMode::ReadWrite).unwrap();
    log(&WalRecord::PoolCreate {
        id: b,
        name: "scratch".into(),
        size: 1 << 16,
        mode: OpenMode::ReadWrite,
    });
    let b1 = reg.pool_mut(b).unwrap().pmalloc(64).unwrap();
    log(&WalRecord::Alloc {
        pmo: b,
        size: 64,
        offset: b1.offset(),
    });
    log(&WalRecord::SessionOpen {
        client: 4,
        pmo: b,
        perm: Permission::ReadWrite,
    });
    log(&WalRecord::WindowOpen { pmo: b });
    reg.pool_mut(b)
        .unwrap()
        .write_bytes(b1.offset(), b"exposed!")
        .unwrap();
    log(&WalRecord::DataWrite {
        pmo: b,
        offset: b1.offset(),
        data: b"exposed!".to_vec(),
    });

    // In-flight transaction on A, crashed before commit. Log its physical
    // footprint (the undo-log allocation and every dirtied page) exactly
    // as the durable service journals pool mutations.
    let live_before: Vec<(u64, u64)> = reg.pool(a).unwrap().allocator().live_blocks().collect();
    let pages_before: Vec<(u64, Vec<u8>)> = reg
        .pool(a)
        .unwrap()
        .export_pages()
        .map(|(i, p)| (i, p.to_vec()))
        .collect();
    {
        let mut txn = Transaction::begin(reg.pool_mut(a).unwrap()).unwrap();
        txn.write(a1.offset(), b"clobber!clobb").unwrap();
        txn.crash(); // leader died mid-transaction
    }
    let live_after: Vec<(u64, u64)> = reg.pool(a).unwrap().allocator().live_blocks().collect();
    for &(off, len) in live_after.iter().filter(|blk| !live_before.contains(blk)) {
        log(&WalRecord::Alloc {
            pmo: a,
            size: len,
            offset: off,
        });
    }
    for (idx, bytes) in reg.pool(a).unwrap().export_pages() {
        let changed = pages_before
            .iter()
            .find(|(i, _)| *i == idx)
            .is_none_or(|(_, old)| old != bytes);
        if changed {
            log(&WalRecord::DataWrite {
                pmo: a,
                offset: idx * terp_pmo::PAGE_SIZE,
                data: bytes.to_vec(),
            });
        }
    }

    let txn_last_seq = wal.next_seq() - 1;
    wal.sync().unwrap();
    let image = wal.durable_bytes().unwrap().to_vec();
    (image, a1.offset(), txn_last_seq)
}

/// Windows open in a valid record prefix — exactly what promotion must
/// reseal.
fn open_windows_in(records: &[(u64, WalRecord)]) -> BTreeSet<PmoId> {
    let mut open = BTreeSet::new();
    for (_, rec) in records {
        match rec {
            WalRecord::WindowOpen { pmo } => {
                open.insert(*pmo);
            }
            WalRecord::WindowClose { pmo } => {
                open.remove(pmo);
            }
            _ => {}
        }
    }
    open
}

#[test]
fn every_kill_point_promotes_safely() {
    let (log, a1_offset, txn_last_seq) = build_leader_log();
    let points = enumerate_crash_points(&log);
    assert!(points.len() > 50, "workload must enumerate a real matrix");
    let root = temp_root("matrix");

    for (i, point) in points.iter().enumerate() {
        // The follower mirror at the kill point: the leader's bytes
        // verbatim, torn tail and all.
        let damaged = inject(&log, *point);
        let prefix = read_log(&damaged);
        let expected_open = open_windows_in(&prefix.records);

        let dir = root.join(format!("point-{i}"));
        let shard0 = dir.join("shard-0");
        fs::create_dir_all(&shard0).unwrap();
        fs::write(shard0.join(WAL_FILE), &damaged).unwrap();

        // Promotion's substance is ordinary durable recovery over the
        // mirror (ReplFollower::promote wraps exactly this open).
        let (store, state, report) = DurableStore::open(&shard0, Visibility::Durable).unwrap();

        // 1. Reseal set == windows the leader had open. Nothing resumed.
        let resealed: BTreeSet<PmoId> = state.resealed.iter().copied().collect();
        assert_eq!(
            resealed,
            expected_open,
            "{}: promoted follower must reseal exactly the leader's open windows",
            point.describe()
        );
        assert_eq!(report.windows_resealed, expected_open.len());

        // 2. Byte-identical committed state: the mirror recovers to the
        // same registry as a reference recovery of the leader's valid
        // durable prefix, and the mirror WAL is physically that prefix.
        let (reference, _) = recover(&[], &damaged[..prefix.consumed]).unwrap();
        assert_eq!(
            fingerprint(&state.registry),
            fingerprint(&reference.registry),
            "{}: promoted state diverges from the leader's durable prefix",
            point.describe()
        );
        assert_eq!(
            fs::metadata(store.wal_path()).unwrap().len(),
            prefix.consumed as u64,
            "{}: mirror WAL not truncated to the valid prefix",
            point.describe()
        );
        drop(store);

        // 3. Uncommitted transactions absent: wherever pool A's state is
        // recovered past the full transaction footprint, the uncommitted
        // write has been rolled back to the committed value.
        if prefix.last_seq() == Some(txn_last_seq) {
            let pool = state.registry.pool(PmoId::new(1).unwrap()).unwrap();
            let mut buf = [0u8; 12];
            pool.read_bytes(a1_offset, &mut buf).unwrap();
            assert_eq!(
                &buf,
                b"committed-v2",
                "{}: uncommitted transaction leaked into the promoted state",
                point.describe()
            );
        }

        // 4. The real service promotion path over the same mirror: standby
        // refuses mutations, promote() opens the gates.
        let server = PmoServer::try_start(
            ServiceConfig::for_tests(Scheme::terp_full())
                .with_shards(1)
                .with_durable(&dir)
                .with_standby(true),
        )
        .unwrap();
        let svc = server.service();
        assert_eq!(
            svc.recovery_stats().map(|r| r.windows_resealed as usize),
            Some(expected_open.len())
        );
        assert!(matches!(
            svc.create_pool("refused", 4096, OpenMode::ReadWrite),
            Err(ServiceError::ReadOnly)
        ));
        server.promote();
        let p = svc
            .create_pool("accepted", 4096, OpenMode::ReadWrite)
            .unwrap();
        svc.attach(0, p, Permission::ReadWrite).unwrap();
        let oid = svc.alloc(0, p, 32).unwrap();
        svc.write(0, oid, b"post-failover").unwrap();
        drop(server);

        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&root).unwrap();
}
