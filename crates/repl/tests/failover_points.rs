//! The failover-point enumerator: kill the leader at every enumerated WAL
//! position — and, across checkpoints, after every message it ships — and
//! prove the promoted follower is safe at each one.
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
//!
//! The second test takes the byte positions for granted and moves the kill
//! point across checkpoint boundaries instead: a real leader ships a
//! history that crosses a compacting and an appending checkpoint through a
//! proxy that forwards one message at a time, and after **every** message
//! the follower's mirror — image half shipped, staged, or committed ahead of
//! its WAL's head, WAL not yet restarted — is promoted and held to points 1
//! and 2 against the uncheckpointed reference.

mod common;

use std::collections::BTreeSet;
use std::fs;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use terp_core::config::Scheme;
use terp_net::repl::ReplMsg;
use terp_net::{encode_frame, FrameDecoder};
use terp_persist::{
    enumerate_crash_points, inject, load_checkpoint, read_log, recover, DurableStore, Visibility,
    WalRecord, WalWriter, WAL_FILE,
};
use terp_pmo::{OpenMode, Permission, PmoId, PmoRegistry, Transaction};
use terp_repl::{ReplFollower, ReplFollowerConfig, ReplLeader, ReplLeaderConfig};
use terp_service::{PmoServer, ServiceConfig, ServiceError};

use common::{fingerprint, shard_dir, temp_dir as temp_root};

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
    log(&WalRecord::RootSet {
        pmo: a,
        key: 1,
        oid: a1.to_packed(),
    });
    log(&WalRecord::WindowClose { pmo: a });

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
        let (reference, _) = recover(&damaged[..prefix.consumed]).unwrap();
        assert_eq!(
            fingerprint(&state.registry),
            fingerprint(&reference.registry),
            "{}: promoted state diverges from the leader's durable prefix",
            point.describe()
        );
        assert_eq!(state.roots, reference.roots, "{}", point.describe());
        let mirror = fs::read(store.wal_path()).unwrap();
        assert!(
            mirror[..prefix.consumed] == damaged[..prefix.consumed]
                && mirror[prefix.consumed..].iter().all(|&b| b == 0),
            "{}: mirror WAL not cut back to the valid prefix",
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

/// A hand-driven leader store plus the uncheckpointed reference: every
/// record it ever logged, with its sequence number, never truncated.
struct Scripted<'a> {
    reg: PmoRegistry,
    store: DurableStore,
    reference: &'a Reference,
}

type Reference = Mutex<Vec<(u64, Vec<u8>)>>;

impl Scripted<'_> {
    /// Logs and commits one record; a moment's pause lets the leader ship
    /// it as a message of its own.
    fn log(&mut self, record: WalRecord) {
        let seq = self.store.log(&record).unwrap();
        // Into the reference before it can reach the disk, let alone the
        // mirror: a promoted prefix never outruns its reference.
        self.reference
            .lock()
            .unwrap()
            .push((seq, record.encode(seq)));
        self.store.commit().unwrap();
        std::thread::sleep(Duration::from_micros(300));
    }

    fn create(&mut self, name: &str) -> PmoId {
        let id = self.reg.create(name, 1 << 16, OpenMode::ReadWrite).unwrap();
        self.log(WalRecord::PoolCreate {
            id,
            name: name.into(),
            size: 1 << 16,
            mode: OpenMode::ReadWrite,
        });
        id
    }

    fn alloc(&mut self, pmo: PmoId, size: u64) -> u64 {
        let offset = self
            .reg
            .pool_mut(pmo)
            .unwrap()
            .pmalloc(size)
            .unwrap()
            .offset();
        self.log(WalRecord::Alloc { pmo, size, offset });
        offset
    }

    fn write(&mut self, pmo: PmoId, offset: u64, data: &[u8]) {
        self.reg
            .pool_mut(pmo)
            .unwrap()
            .write_bytes(offset, data)
            .unwrap();
        self.log(WalRecord::DataWrite {
            pmo,
            offset,
            data: data.to_vec(),
        });
    }

    /// The protection records a service would hand a checkpoint: whatever
    /// the reference has open right now.
    fn checkpoint(&mut self) {
        let frames: Vec<u8> = self
            .reference
            .lock()
            .unwrap()
            .iter()
            .flat_map(|(_, frame)| frame.clone())
            .collect();
        let records = read_log(&frames).records;
        let protection: Vec<WalRecord> = open_windows_in(&records)
            .into_iter()
            .map(|pmo| WalRecord::WindowOpen { pmo })
            .collect();
        self.store
            .checkpoint(self.reg.iter_mut(), &protection)
            .unwrap();
    }
}

fn read_frame(
    stream: &mut TcpStream,
    dec: &mut FrameDecoder,
    stop: &AtomicBool,
) -> Option<Vec<u8>> {
    loop {
        if let Some(payload) = dec.next_frame().expect("well-formed frame") {
            return Some(payload.to_vec());
        }
        let mut buf = [0u8; 64 * 1024];
        match stream.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => dec.push(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Acquire) {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

/// Sits between a real leader and a real follower and makes the stream
/// single-step: one leader message forwarded, the follower's ack awaited
/// (it acks only after applying), `after` called, then the next. Returns
/// the number of log batches that went through.
fn stepping_proxy(
    listener: TcpListener,
    leader: std::net::SocketAddr,
    stop: &AtomicBool,
    mut after: impl FnMut(&ReplMsg),
) -> usize {
    let (mut down, _) = listener.accept().unwrap();
    let mut up = TcpStream::connect(leader).unwrap();
    for s in [&down, &up] {
        s.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        s.set_nodelay(true).unwrap();
    }
    let (mut from_down, mut from_up) = (FrameDecoder::new(), FrameDecoder::new());
    let forward = |from: &mut TcpStream, dec: &mut FrameDecoder, to: &mut TcpStream| {
        let payload = read_frame(from, dec, stop)?;
        to.write_all(&encode_frame(&payload)).ok()?;
        Some(ReplMsg::decode(&payload).expect("well-formed message"))
    };
    // Hello, Welcome, Subscribe.
    forward(&mut down, &mut from_down, &mut up).unwrap();
    forward(&mut up, &mut from_up, &mut down).unwrap();
    forward(&mut down, &mut from_down, &mut up).unwrap();
    let mut batches = 0;
    while let Some(msg) = forward(&mut up, &mut from_up, &mut down) {
        if forward(&mut down, &mut from_down, &mut up).is_none() {
            break;
        }
        if matches!(msg, ReplMsg::LogBatch { .. }) {
            batches += 1;
            after(&msg);
        }
    }
    batches
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

#[test]
fn every_shipped_message_across_checkpoints_promotes_safely() {
    let root = temp_root("per-message");
    let (leader_dir, mirror_dir, scratch) = (
        root.join("leader"),
        root.join("mirror"),
        root.join("promoted"),
    );
    let (store, _, _) =
        DurableStore::open(&shard_dir(&leader_dir, 0), Visibility::Durable).unwrap();
    let reference = Reference::default();
    let mut s = Scripted {
        reg: PmoRegistry::new(),
        store,
        reference: &reference,
    };

    let leader = ReplLeader::start(ReplLeaderConfig::new(&leader_dir, 1), "127.0.0.1:0").unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let follower = ReplFollower::start(ReplFollowerConfig::new(
        listener.local_addr().unwrap(),
        &mirror_dir,
        3,
    ));
    let stop = AtomicBool::new(false);
    let mut seen_states = BTreeSet::new();

    let (batches, last_seq) = std::thread::scope(|scope| {
        let proxy = scope.spawn(|| {
            stepping_proxy(listener, leader.local_addr(), &stop, |msg| {
                // The mirror as it stands after this message, promoted.
                copy_dir(&shard_dir(&mirror_dir, 0), &scratch);
                // Its committed image, and whether its WAL opens with that
                // image's marker (or is behind it, as the leader's is
                // between a checkpoint's append and its truncation).
                let image = load_checkpoint(&scratch).unwrap().seq;
                let wal = fs::read(scratch.join(WAL_FILE)).unwrap_or_default();
                let head = match read_log(&wal).records.first() {
                    Some(&(seq, WalRecord::Checkpoint { .. })) => Some(seq),
                    _ => None,
                };
                let (store, state, report) = DurableStore::open(&scratch, Visibility::Durable)
                    .unwrap_or_else(|e| panic!("after {msg:?}: mirror does not open: {e}"));
                let Some(upto) = store.next_seq().checked_sub(1) else {
                    return;
                };
                let prefix = reference_upto(&reference, upto);
                let records = read_log(&prefix).records;
                let (expected, _) = recover(&prefix).unwrap();
                assert_eq!(
                    fingerprint(&state.registry),
                    fingerprint(&expected.registry),
                    "after {msg:?}: promoted state is not the leader's at seq {upto}"
                );
                let resealed: BTreeSet<PmoId> = state.resealed.iter().copied().collect();
                assert_eq!(
                    resealed,
                    open_windows_in(&records),
                    "after {msg:?}: resealed set at seq {upto}"
                );
                assert_eq!(state.roots, expected.roots, "after {msg:?}");
                assert!(!report.torn_tail, "whole frames only in this history");
                seen_states.insert((image.is_some(), head == image));
            })
        });

        // The leader's life: two pools, windows that open, close and stay
        // open, a root — and two checkpoints under the follower's feet.
        let a = s.create("acct");
        let b = s.create("scratch");
        let a1 = s.alloc(a, 128);
        s.write(a, a1, b"committed-v1");
        s.log(WalRecord::WindowOpen { pmo: a });
        s.write(a, a1, b"committed-v2");
        s.log(WalRecord::RootSet {
            pmo: a,
            key: 1,
            oid: terp_pmo::ObjectId::new(a, a1).to_packed(),
        });
        s.checkpoint(); // nobody forced it: compacts, window on A open
        let b1 = s.alloc(b, 64);
        s.log(WalRecord::WindowOpen { pmo: b });
        s.write(b, b1, b"exposed!");
        s.log(WalRecord::WindowClose { pmo: a });
        // Up to the trigger in one burst of root rewrites, then a forced
        // (appending) checkpoint with only B's window open.
        while !s.store.checkpoint_due() {
            let root = WalRecord::RootSet {
                pmo: b,
                key: 2,
                oid: terp_pmo::ObjectId::new(b, b1).to_packed(),
            };
            let seq = s.store.log(&root).unwrap();
            s.reference.lock().unwrap().push((seq, root.encode(seq)));
        }
        s.store.commit().unwrap();
        s.checkpoint();
        s.write(a, a1, b"committed-v3");
        s.log(WalRecord::WindowOpen { pmo: a });
        s.write(b, b1, b"last word");
        let last_seq = s.store.next_seq() - 1;

        // Let the stream drain, then stop the proxy.
        let start = Instant::now();
        while follower
            .lag()
            .first()
            .is_none_or(|l| l.applied_seq < last_seq)
        {
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "{:?}",
                follower.lag()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Release);
        (proxy.join().unwrap(), last_seq)
    });
    assert!(
        batches >= 12,
        "only {batches} messages were stepped through"
    );
    assert!(
        seen_states.contains(&(true, false)) && seen_states.contains(&(true, true)),
        "a mirror whose image is ahead of its WAL's head was promoted, and one level \
         with it: {seen_states:?}"
    );

    // And the real thing, at the end of the stream.
    leader.shutdown();
    drop(s);
    let promoted = follower
        .promote(
            ServiceConfig::for_tests(Scheme::terp_full())
                .with_shards(1)
                .with_durable(&leader_dir),
        )
        .unwrap();
    let rec = promoted.service().recovery_stats().unwrap();
    assert_eq!(rec.windows_resealed, 2, "A (reopened) and B");
    assert_eq!(rec.pools_recovered, 2);
    assert!(last_seq > terp_persist::CHECKPOINT_TRIGGER);
    promoted.shutdown();
    fs::remove_dir_all(&root).unwrap();
}

/// The reference's frames up to and including `upto`.
fn reference_upto(reference: &Reference, upto: u64) -> Vec<u8> {
    reference
        .lock()
        .unwrap()
        .iter()
        .take_while(|(seq, _)| *seq <= upto)
        .flat_map(|(_, frame)| frame.clone())
        .collect()
}
