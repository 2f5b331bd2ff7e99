//! Unit tests of the service: scheme semantics, the fast/locked path
//! agreement, and the `visibility = durable` audit.

use std::sync::Arc;
use std::time::Duration;

use terp_core::config::Scheme;
use terp_pmo::{AccessKind, ObjectId, OpenMode, Permission, PmoError, PmoId};
use terp_trace::time;

use super::{Batch, PmoService};
use crate::config::ServiceConfig;
use crate::error::ServiceError;
use crate::ClientId;

fn service(scheme: Scheme) -> PmoService {
    PmoService::new(ServiceConfig::for_tests(scheme))
}

/// A service whose EW target is far in the future, so conditional
/// detaches are reliably *delayed* regardless of scheduler noise.
fn service_long_ew(scheme: Scheme) -> PmoService {
    PmoService::new(ServiceConfig::for_tests(scheme).with_ew_target_us(10_000_000))
}

/// A service with a 2 ms EW: long against back-to-back calls, short
/// against an explicit 5 ms sleep — the expiry-path configuration.
fn service_expiring(scheme: Scheme) -> PmoService {
    PmoService::new(ServiceConfig::for_tests(scheme).with_ew_target_us(2_000))
}

#[test]
fn tt_attach_lowering_and_delayed_detach() {
    let svc = service_long_ew(Scheme::terp_full());
    let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();

    svc.attach(0, p, Permission::ReadWrite).unwrap();
    svc.attach(1, p, Permission::ReadWrite).unwrap();
    let oid = svc.alloc(0, p, 64).unwrap();
    svc.write(0, oid, b"hello").unwrap();
    assert_eq!(svc.read(1, oid, 5).unwrap(), b"hello");

    // Client 1 detaches: partial — pool stays mapped, client 1 loses
    // access immediately.
    svc.detach(1, p).unwrap();
    assert!(svc.process_can(p, AccessKind::Read));
    assert!(!svc.client_can(1, p, AccessKind::Read));
    assert!(svc.client_can(0, p, AccessKind::Read));
    assert!(
        svc.read(1, oid, 5).is_err(),
        "revoked client must be denied"
    );

    // Client 0 detaches early: delayed — mapped, but nobody can access.
    svc.detach(0, p).unwrap();
    assert!(svc.process_can(p, AccessKind::Read));
    assert!(!svc.client_can(0, p, AccessKind::Read));

    let r = svc.report();
    assert_eq!(r.attach_syscalls, 1, "one real map for two attaches");
    assert_eq!(r.cond.subsequent_attach, 1);
    assert_eq!(r.cond.delayed_detach, 1);
}

#[test]
fn tt_sweep_closes_expired_windows() {
    let svc = service_expiring(Scheme::terp_full());
    let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
    svc.attach(0, p, Permission::ReadWrite).unwrap();
    svc.detach(0, p).unwrap(); // delayed
    assert!(svc.process_can(p, AccessKind::Read));
    std::thread::sleep(Duration::from_millis(5));
    assert!(svc.sweep_all() >= 1);
    assert!(!svc.process_can(p, AccessKind::Read), "expired idle window");
    assert_eq!(svc.attached_total(), 0);
    assert_eq!(svc.report().cond.sweep_detach, 1);
}

#[test]
fn tt_sweep_randomizes_live_windows() {
    let svc = service_expiring(Scheme::terp_full());
    let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
    svc.attach(0, p, Permission::ReadWrite).unwrap();
    let oid = svc.alloc(0, p, 32).unwrap();
    svc.write(0, oid, b"sticky").unwrap();
    std::thread::sleep(Duration::from_millis(5));
    assert_eq!(svc.sweep_all(), 1);
    let r = svc.report();
    assert_eq!(r.randomizations, 1, "live holder → randomize, not detach");
    // The holder can still read through the relocated mapping.
    assert_eq!(svc.read(0, oid, 6).unwrap(), b"sticky");
    assert!(r.ew.count >= 1, "randomization split the window");
}

#[test]
fn no_combining_ablation_detaches_eagerly() {
    let svc = service_long_ew(Scheme::TerpFull {
        window_combining: false,
    });
    let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
    svc.attach(0, p, Permission::ReadWrite).unwrap();
    svc.detach(0, p).unwrap();
    assert!(!svc.process_can(p, AccessKind::Read), "no delayed detach");
    assert_eq!(svc.attached_total(), 0);
}

#[test]
fn mm_blocks_conflicting_attach_until_owner_detaches() {
    let svc = Arc::new(service(Scheme::Merr));
    let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
    svc.attach(0, p, Permission::ReadWrite).unwrap();
    assert!(svc.client_can(0, p, AccessKind::Write));

    let svc2 = Arc::clone(&svc);
    let waiter = std::thread::spawn(move || {
        let waited = svc2.attach_with_wait(1, p, Permission::ReadWrite).unwrap();
        svc2.detach(1, p).unwrap();
        waited
    });
    std::thread::sleep(Duration::from_millis(5));
    svc.detach(0, p).unwrap();
    let waited = waiter.join().unwrap();
    assert!(waited > 0, "the conflicting attach reports its queue wait");

    let r = svc.report();
    assert_eq!(r.ops.attaches, 2);
    assert_eq!(r.ops.attach_conflicts, 1);
    assert!(r.blocked_ns > 0, "the waiter's block time is accounted");
    assert_eq!(
        r.queue_wait.count(),
        1,
        "one queue-wait sample for one conflict"
    );
    assert!(r.queue_wait.max() >= waited.min(r.queue_wait.max()));
    assert!(!svc.process_can(p, AccessKind::Read));
}

#[test]
fn mm_second_client_is_denied_access_while_owner_holds() {
    let svc = service(Scheme::Merr);
    let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
    svc.attach(0, p, Permission::ReadWrite).unwrap();
    let oid = svc.alloc(0, p, 16).unwrap();
    assert!(matches!(
        svc.read(9, oid, 8).unwrap_err(),
        ServiceError::PermissionDenied { client: 9, .. }
    ));
    assert_eq!(svc.report().ops.denials, 1);
}

#[test]
fn unprotected_keeps_pools_mapped() {
    let svc = service(Scheme::Unprotected);
    let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
    svc.attach(0, p, Permission::ReadWrite).unwrap();
    svc.detach(0, p).unwrap();
    assert_eq!(svc.attached_total(), 1, "unprotected never unmaps");
    svc.begin_shutdown();
    svc.drain();
    assert_eq!(svc.attached_total(), 0, "drain unmaps even unprotected");
}

#[test]
fn drain_closes_everything_and_refuses_new_work() {
    let svc = service(Scheme::terp_full());
    let a = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
    let b = svc.create_pool("b", 1 << 16, OpenMode::ReadWrite).unwrap();
    svc.attach(0, a, Permission::ReadWrite).unwrap();
    svc.attach(1, b, Permission::Read).unwrap();
    svc.begin_shutdown();
    assert_eq!(
        svc.attach(2, a, Permission::Read).unwrap_err(),
        ServiceError::ShuttingDown
    );
    svc.drain();
    assert_eq!(svc.attached_total(), 0);
    assert!(!svc.client_can(0, a, AccessKind::Read));
    assert!(!svc.client_can(1, b, AccessKind::Read));
    let r = svc.report();
    assert_eq!(r.ew.count, 2, "both windows closed and accounted");
}

#[test]
fn errors_are_specific() {
    let svc = service(Scheme::terp_full());
    let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
    let ghost = PmoId::new(999).unwrap();
    assert_eq!(
        svc.attach(0, ghost, Permission::Read).unwrap_err(),
        ServiceError::UnknownPmo(ghost)
    );
    assert_eq!(
        svc.detach(0, p).unwrap_err(),
        ServiceError::NotAttached { client: 0, pmo: p }
    );
    svc.attach(0, p, Permission::Read).unwrap();
    assert_eq!(
        svc.attach(0, p, Permission::Read).unwrap_err(),
        ServiceError::AlreadyAttached { client: 0, pmo: p }
    );
    // Read-only session: writes are denied at the thread-permission
    // layer.
    let oid = ObjectId::new(p, 0);
    assert!(matches!(
        svc.write(0, oid, b"x").unwrap_err(),
        ServiceError::PermissionDenied { .. }
    ));
}

#[test]
fn duplicate_names_and_id_allocation_stay_sharded() {
    let svc = service(Scheme::terp_full());
    let a = svc
        .create_pool("dup", 1 << 12, OpenMode::ReadWrite)
        .unwrap();
    assert!(matches!(
        svc.create_pool("dup", 1 << 12, OpenMode::ReadWrite),
        Err(ServiceError::Substrate(PmoError::NameExists(_)))
    ));
    let b = svc
        .create_pool("other", 1 << 12, OpenMode::ReadWrite)
        .unwrap();
    assert!(b.raw() > a.raw(), "ids are monotone and never reused");
}

#[test]
fn fastpath_and_locked_paths_agree() {
    // The locked path is the seqlock's fallback, not a configuration:
    // crowd the pool past its 8 published grant slots and every client
    // decision goes through the shard mutex. Both sides must give the
    // same answers, errors, and counts.
    for crowded in [false, true] {
        let svc = service_long_ew(Scheme::terp_full());
        let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
        if crowded {
            for c in 100..109 {
                svc.attach(c, p, Permission::ReadWrite).unwrap();
            }
        }
        svc.attach(3, p, Permission::ReadWrite).unwrap();
        let snap = svc.index.get(p).unwrap().snapshot().unwrap();
        assert_eq!(snap.crowded(), crowded, "the mirror decides the path");
        let oid = svc.alloc(3, p, 64).unwrap();
        svc.write(3, oid, b"same answer").unwrap();
        assert_eq!(svc.read(3, oid, 11).unwrap(), b"same answer");
        assert!(svc.client_can(3, p, AccessKind::Write));
        assert!(!svc.client_can(4, p, AccessKind::Read));
        assert!(matches!(
            svc.read(4, oid, 1).unwrap_err(),
            ServiceError::PermissionDenied { client: 4, .. }
        ));
        svc.detach(3, p).unwrap();
        assert!(!svc.client_can(3, p, AccessKind::Read));
        assert!(svc.read(3, oid, 1).is_err());
        let r = svc.report();
        assert_eq!(r.ops.reads, 1, "crowded={crowded}");
        assert_eq!(r.ops.writes, 1);
        assert_eq!(r.ops.denials, 2, "client 4, then client 3 post-detach");
    }
}

#[test]
fn a_read_only_mapping_refuses_a_read_write_holder() {
    // The process right is the mapping's permission: a silent read-write
    // attach to a pool mapped read-only holds write rights it cannot use,
    // on the fast path and (crowded past the grant slots) on the locked one.
    for crowded in [false, true] {
        let svc = service_expiring(Scheme::terp_full());
        let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
        let (reader, writer) = (1, 2);
        svc.attach(reader, p, Permission::Read).unwrap();
        let crowd: Vec<ClientId> = if crowded {
            (100..109).collect()
        } else {
            Vec::new()
        };
        for &c in &crowd {
            svc.attach(c, p, Permission::ReadWrite).unwrap();
        }
        svc.attach(writer, p, Permission::ReadWrite).unwrap();
        let snap = svc.index.get(p).unwrap().snapshot().unwrap();
        assert_eq!(snap.crowded(), crowded, "the mirror decides the path");
        assert_eq!(svc.report().attach_syscalls, 1, "one real, read-only map");
        let oid = svc.alloc(writer, p, 8).unwrap();
        let denied = ServiceError::PermissionDenied {
            client: writer,
            pmo: p,
            kind: AccessKind::Write,
        };
        assert_eq!(svc.write(writer, oid, b"x").unwrap_err(), denied);
        assert_eq!(svc.cas_u64(writer, oid, 0, 1).unwrap_err(), denied);
        assert!(!svc.client_can(writer, p, AccessKind::Write));
        assert!(svc.client_can(writer, p, AccessKind::Read));
        assert!(!svc.process_can(p, AccessKind::Write));
        assert_eq!(svc.read(writer, oid, 8).unwrap(), [0; 8]);
        assert_eq!(svc.report().ops.denials, 2, "crowded={crowded}");

        // Everyone leaves and the window expires: the next attach maps the
        // pool afresh, read-write.
        for c in crowd.into_iter().chain([reader, writer]) {
            svc.detach(c, p).unwrap();
        }
        std::thread::sleep(Duration::from_millis(5));
        svc.sweep_all();
        assert!(!svc.process_can(p, AccessKind::Read));
        svc.attach(writer, p, Permission::ReadWrite).unwrap();
        assert!(svc.process_can(p, AccessKind::Write));
        assert!(svc.client_can(writer, p, AccessKind::Write));
        svc.write(writer, oid, &7u64.to_le_bytes()).unwrap();
        assert_eq!(svc.cas_u64(writer, oid, 7, 8).unwrap(), 7);
        assert_eq!(svc.read(writer, oid, 8).unwrap(), 8u64.to_le_bytes());
    }
}

#[test]
fn crowded_pool_falls_back_to_the_locked_path() {
    // More concurrent holders than published grant slots: the mirror
    // overflows and client checks must stay correct via the slow path.
    let svc = service_long_ew(Scheme::terp_full());
    let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
    let clients: Vec<ClientId> = (0..12).collect();
    for &c in &clients {
        svc.attach(c, p, Permission::ReadWrite).unwrap();
    }
    let oid = svc.alloc(0, p, 32).unwrap();
    svc.write(11, oid, b"crowded").unwrap();
    for &c in &clients {
        assert!(svc.client_can(c, p, AccessKind::Write), "client {c}");
        assert_eq!(svc.read(c, oid, 7).unwrap(), b"crowded");
    }
    assert!(!svc.client_can(99, p, AccessKind::Read));
    // Detaching everyone clears the crowd; the pool stays usable.
    for &c in &clients {
        svc.detach(c, p).unwrap();
        assert!(!svc.client_can(c, p, AccessKind::Read), "client {c}");
    }
    svc.attach(42, p, Permission::Read).unwrap();
    assert_eq!(svc.read(42, oid, 7).unwrap(), b"crowded");
}

/// The audit behind `visibility = durable`: no journaling entry point
/// acknowledges ahead of its records. After each plain call returns,
/// every shard store's durability watermark has caught up with its log;
/// inside a [`Batch`] the same entry points leave their records
/// unsynced and the batch dirty until its one commit settles every
/// shard it touched.
#[test]
fn durable_visibility_leaves_no_unsynced_record_behind_any_entry_point() {
    let dir = std::env::temp_dir().join(format!("terp-svc-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig::for_tests(Scheme::terp_full());
    let durable = config.clone().with_durable(dir.join("durable"));
    let svc = PmoService::new(durable.with_visibility(crate::Visibility::Durable));
    let mut logged = 0;
    let mut settled = |what: &str| {
        let stores = svc.shards.iter().map(|shard| {
            let state = svc.lock(shard);
            let store = state.store.as_ref().unwrap();
            assert_eq!(store.watermark(), store.next_seq(), "after {what}");
            store.next_seq()
        });
        let total: u64 = stores.sum();
        assert!(total > logged, "{what} journaled nothing");
        logged = total;
    };
    let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
    settled("create_pool");
    svc.attach(0, p, Permission::ReadWrite).unwrap();
    settled("attach");
    let oid = svc.alloc(0, p, 64).unwrap();
    settled("alloc");
    svc.write(0, oid, &7u64.to_le_bytes()).unwrap();
    settled("write");
    assert_eq!(svc.cas_u64(0, oid, 7, 8).unwrap(), 7);
    settled("cas_u64");
    svc.set_root(0, p, 1, Some(oid)).unwrap();
    settled("set_root");
    svc.free(0, oid).unwrap();
    settled("free");
    // A held window past its target is relocated by every pass, and a
    // relocation is not journaled: nothing appended, nothing synced — and
    // every one of them invalidates the fast path's snapshots.
    let before = svc.report();
    let slot = svc.index.get(p).unwrap();
    for _ in 0..3 {
        let snap = slot.snapshot().unwrap();
        time::spin_ns(svc.config.ew_target_ns());
        assert_eq!(svc.sweep_all(), 1, "held window is past its 1 us target");
        assert!(slot.epoch() > snap.epoch() && !slot.still_valid(&snap));
    }
    let after = svc.report();
    assert_eq!(after.randomizations, before.randomizations + 3);
    assert_eq!(after.ew_over_target, before.ew_over_target + 3);
    let (before, after) = (before.wal.unwrap(), after.wal.unwrap());
    assert_eq!(
        after.appended, before.appended,
        "relocations journal nothing"
    );
    assert_eq!(after.syncs, before.syncs, "and sync nothing");
    svc.detach(0, p).unwrap();
    settled("detach");

    // The same entry points inside a batch. `unsynced(pmo)` = records of
    // the pool's shard store still ahead of its watermark.
    let unsynced = |pmo: PmoId| {
        let state = svc.lock(svc.shard(pmo));
        let store = state.store.as_ref().unwrap();
        store.next_seq() - store.watermark()
    };
    let mut batch = svc.batch();
    assert!(!batch.is_dirty());
    let q = batch
        .create_pool("b", 1 << 16, OpenMode::ReadWrite)
        .unwrap();
    assert!(!std::ptr::eq(svc.shard(p), svc.shard(q)), "the other shard");
    assert!(batch.is_dirty());
    assert_eq!(unsynced(q), 1, "create_pool in a batch");
    assert_eq!(svc.sweep_all(), 0, "nothing is tracked");
    assert_eq!(unsynced(q), 1, "an idle sweeper pass commits for nobody");
    let mut behind = 0;
    let mut deferred = |what: &str, batch: &Batch<'_>| {
        assert!(batch.is_dirty(), "{what}");
        assert!(unsynced(p) > behind, "{what} in a batch journaled nothing");
        behind = unsynced(p);
    };
    batch.attach(0, p, Permission::ReadWrite).unwrap();
    deferred("attach", &batch);
    let oid = batch.alloc(0, p, 64).unwrap();
    deferred("alloc", &batch);
    batch.write(0, oid, &7u64.to_le_bytes()).unwrap();
    deferred("write", &batch);
    assert_eq!(batch.cas_u64(0, oid, 7, 8).unwrap(), 7);
    deferred("cas_u64", &batch);
    batch.set_root(0, p, 1, Some(oid)).unwrap();
    deferred("set_root", &batch);
    batch.free(0, oid).unwrap();
    deferred("free", &batch);
    batch.detach(0, p).unwrap();
    deferred("detach", &batch);
    batch.commit().unwrap();
    settled("batch commit");
    drop(svc);

    // Under `submit` nothing ever waits for the caller: never dirty.
    let submit = config.with_durable(dir.join("submit"));
    let svc = PmoService::new(submit.with_visibility(crate::Visibility::Submit));
    let mut batch = svc.batch();
    let p = batch
        .create_pool("a", 1 << 16, OpenMode::ReadWrite)
        .unwrap();
    batch.attach(0, p, Permission::ReadWrite).unwrap();
    let oid = batch.alloc(0, p, 64).unwrap();
    batch.write(0, oid, b"submit").unwrap();
    batch.detach(0, p).unwrap();
    assert!(!batch.is_dirty());
    batch.commit().unwrap();
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}

/// The sweeper's half of the `visibility = durable` rule, as counts: an
/// expiry's `WindowClose` is journaled but buys no fsync — it is written
/// by the shard's next commit, ahead of that commit's own records, or by
/// the sweeper itself once one EW target has passed without one.
#[test]
fn sweeper_expiry_rides_the_next_commit_or_waits_one_target() {
    use terp_persist::{read_log, WalRecord, WAL_FILE};

    let dir = std::env::temp_dir().join(format!("terp-svc-leftover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // 50 ms: long against an attach and detach inside one batch (so the
    // detach is delayed and only a sweep can close the window).
    let target = Duration::from_millis(50);
    let config = ServiceConfig::for_tests(Scheme::terp_full())
        .with_shards(1)
        .with_ew_target_us(target.as_micros() as u64)
        .with_durable(&dir)
        .with_visibility(crate::Visibility::Durable);
    let svc = PmoService::new(config);
    // (appended, syncs, sweeper_syncs, records still ahead of the watermark)
    let counts = || {
        let r = svc.report();
        let wal = r.wal.unwrap();
        let state = svc.lock(&svc.shards[0]);
        let store = state.store.as_ref().unwrap();
        let behind = store.next_seq() - store.watermark();
        (wal.appended, wal.syncs, r.sweeper_syncs, behind)
    };
    // Opens a window and leaves it to the sweeper, which expires it.
    let expire = |name: &str| {
        let p = svc.create_pool(name, 1 << 16, OpenMode::ReadWrite).unwrap();
        let mut batch = svc.batch();
        batch.attach(0, p, Permission::ReadWrite).unwrap();
        batch.detach(0, p).unwrap();
        batch.commit().unwrap();
        assert!(svc.process_can(p, AccessKind::Read), "detach was delayed");
        std::thread::sleep(target);
        let (appended, syncs, own, behind) = counts();
        assert_eq!(behind, 0);
        assert_eq!(svc.sweep_all(), 1);
        assert!(!svc.process_can(p, AccessKind::Read), "window expired");
        assert_eq!(
            counts(),
            (appended + 1, syncs, own, 1),
            "journaled, not synced"
        );
        p
    };

    // Someone else's commit carries the close, ahead of their own records.
    let a = expire("a");
    let (appended, syncs, own, _) = counts();
    let b = svc.create_pool("b", 1 << 16, OpenMode::ReadWrite).unwrap();
    assert_eq!(counts(), (appended + 1, syncs + 1, own, 0));
    let wal = std::fs::read(dir.join("shard-0").join(WAL_FILE)).unwrap();
    let tail: Vec<WalRecord> = read_log(&wal).records.into_iter().map(|(_, r)| r).collect();
    assert!(
        matches!(
            &tail[tail.len() - 2..],
            [WalRecord::WindowClose { pmo }, WalRecord::PoolCreate { id, .. }] if (*pmo, *id) == (a, b)
        ),
        "the close precedes the records of the call that committed it"
    );
    assert!(svc.next_expiry_ns().is_none(), "nothing left to wake for");

    // Nobody commits: the sweeper does, one target later, once.
    expire("c");
    let due = svc.next_expiry_ns().expect("the leftover is a deadline");
    let (appended, syncs, own, _) = counts();
    std::thread::sleep(target);
    assert!(time::now_ns() >= due);
    assert_eq!(svc.sweep_all(), 0);
    assert_eq!(counts(), (appended, syncs + 1, own + 1, 0));
    assert!(
        svc.next_expiry_ns().is_none(),
        "an idle service parks again"
    );
    assert_eq!(svc.sweep_all(), 0);
    assert_eq!(counts(), (appended, syncs + 1, own + 1, 0));
    assert_eq!(svc.report().sweeper_errors, 0);
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distinct_pools_land_in_distinct_shards() {
    let svc = service(Scheme::terp_full()); // 4 shards
    let ids: Vec<PmoId> = (0..8)
        .map(|i| {
            svc.create_pool(&format!("p{i}"), 1 << 12, OpenMode::ReadWrite)
                .unwrap()
        })
        .collect();
    // Sequential ids round-robin across the shard mask.
    let shards: std::collections::BTreeSet<usize> = ids
        .iter()
        .map(|id| (id.raw() as usize) & (svc.shard_count() - 1))
        .collect();
    assert_eq!(shards.len(), svc.shard_count());
}

/// Every client-level right, decided by one rule: for each scheme, both
/// attach permissions, in memory and durable (where `write` and `cas_u64`
/// always take the locked path), the outcome of each entry point for the
/// pool's holder, a stranger, and the holder after its detach. A 10 s EW
/// target and no sweeper keep every row deterministic.
///
/// Each cell reads `read write cas_u64 set_root alloc free` (`Y` ok, `D`
/// [`ServiceError::PermissionDenied`], `E` any other error), then
/// `client_can(Read/Write)` and `process_can(Read/Write)` (`Y`/`N`).
#[test]
fn rights_table_every_scheme_memory_and_durable() {
    use Permission::{Read, ReadWrite};
    let no_combining = Scheme::TerpFull {
        window_combining: false,
    };
    // (scheme, attach permission, [holder, stranger, holder after detach])
    #[rustfmt::skip]
    let table = [
        (Scheme::Unprotected, ReadWrite, ["YYYYYY YY YY", "YYYYYY YY YY", "YYYYYY YY YY"]),
        (Scheme::Unprotected, Read,      ["YYYYYY YY YN", "YYYYYY YY YN", "YYYYYY YY YN"]),
        (Scheme::Merr, ReadWrite,        ["YYYYYY YY YY", "DDDDDD NN YY", "EEEDDD NN NN"]),
        (Scheme::Merr, Read,             ["YDDDDD YN YN", "DDDDDD NN YN", "EEEDDD NN NN"]),
        (Scheme::BasicSemantics, ReadWrite, ["YYYYYY YY YY", "DDDDDD NN YY", "EEEDDD NN NN"]),
        (Scheme::BasicSemantics, Read,   ["YDDDDD YN YN", "DDDDDD NN YN", "EEEDDD NN NN"]),
        (Scheme::TerpSoftware, ReadWrite, ["YYYYYY YY YY", "DDDDDD NN YY", "DDDDDD NN YY"]),
        (Scheme::TerpSoftware, Read,     ["YDDDDD YN YN", "DDDDDD NN YN", "DDDDDD NN YN"]),
        (Scheme::terp_full(), ReadWrite, ["YYYYYY YY YY", "DDDDDD NN YY", "DDDDDD NN YY"]),
        (Scheme::terp_full(), Read,      ["YDDDDD YN YN", "DDDDDD NN YN", "DDDDDD NN YN"]),
        (no_combining, ReadWrite,        ["YYYYYY YY YY", "DDDDDD NN YY", "EEEDDD NN NN"]),
        (no_combining, Read,             ["YDDDDD YN YN", "DDDDDD NN YN", "EEEDDD NN NN"]),
    ];
    let dir = std::env::temp_dir().join(format!("terp-svc-rights-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mark = |ok: Result<(), ServiceError>| match ok {
        Ok(()) => 'Y',
        Err(ServiceError::PermissionDenied { .. }) => 'D',
        Err(_) => 'E',
    };
    let yes = |b: bool| if b { 'Y' } else { 'N' };
    // Runs every entry point as `client` and renders the cell.
    let cell = |svc: &PmoService, client: ClientId, p: PmoId| {
        let alloc = svc.alloc(client, p, 64);
        let oid = alloc.as_ref().map_or(ObjectId::new(p, 0), |&o| o);
        let read = svc.read(client, oid, 8).map(drop);
        let write = svc.write(client, oid, &7u64.to_le_bytes());
        let cas = svc.cas_u64(client, oid, 7, 8).map(drop);
        let root = svc.set_root(client, p, 1, Some(oid));
        let free = svc.free(client, oid);
        format!(
            "{}{}{}{}{}{} {}{} {}{}",
            mark(read),
            mark(write),
            mark(cas),
            mark(root),
            mark(alloc.map(drop)),
            mark(free),
            yes(svc.client_can(client, p, AccessKind::Read)),
            yes(svc.client_can(client, p, AccessKind::Write)),
            yes(svc.process_can(p, AccessKind::Read)),
            yes(svc.process_can(p, AccessKind::Write)),
        )
    };
    for (i, (scheme, perm, expected)) in table.into_iter().enumerate() {
        for durable in [false, true] {
            let mut config = ServiceConfig::for_tests(scheme).with_ew_target_us(10_000_000);
            if durable {
                config = config
                    .with_durable(dir.join(i.to_string()))
                    .with_visibility(crate::Visibility::Durable);
            }
            let svc = PmoService::new(config);
            let p = svc.create_pool("t", 1 << 16, OpenMode::ReadWrite).unwrap();
            svc.attach(1, p, perm).unwrap();
            let holder = cell(&svc, 1, p);
            let stranger = cell(&svc, 2, p);
            svc.detach(1, p).unwrap();
            let after = cell(&svc, 1, p);
            assert_eq!(
                [holder.as_str(), stranger.as_str(), after.as_str()],
                expected,
                "{scheme}, attached {perm:?}, durable={durable}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
