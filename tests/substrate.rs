//! Cross-crate substrate tests: the PMO properties of Section II working
//! *together* — crash consistency, pointer-rich persistent structures,
//! namespace permissions, and protection windows over real pool bytes.

use std::collections::BTreeSet;
use std::thread;
use std::time::Duration;

use terp_service::{PmoService, ServiceConfig, ServiceError};
use terp_suite::prelude::*;
use terp_suite::terp_pmo::acl::{AclRegistry, PoolAcl};
use terp_suite::terp_pmo::txn::{recover, Transaction};
use terp_suite::terp_pmo::{Pmo, PmoError};

fn read_u64(pool: &Pmo, offset: u64) -> u64 {
    let mut buf = [0u8; 8];
    pool.read_bytes(offset, &mut buf).unwrap();
    u64::from_le_bytes(buf)
}

/// Allocates an array of `values` in `pool`; slot `i` lives at the returned
/// offset + 8 * i.
fn alloc_u64s(pool: &mut Pmo, values: &[u64]) -> u64 {
    let base = pool.pmalloc(8 * values.len() as u64).unwrap().offset();
    for (i, v) in values.iter().enumerate() {
        pool.write_bytes(base + 8 * i as u64, &v.to_le_bytes())
            .unwrap();
    }
    base
}

fn read_u64s(pool: &Pmo, base: u64, len: u64) -> Vec<u64> {
    (0..len).map(|i| read_u64(pool, base + 8 * i)).collect()
}

#[test]
fn transactional_updates_to_a_persistent_vector_survive_crashes() {
    // An array updated through undo-log transactions: a committed transfer
    // sticks, a crashed one rolls back.
    let mut reg = PmoRegistry::new();
    let pmo = reg.create("txvec", 1 << 20, OpenMode::ReadWrite).unwrap();
    let values: Vec<u64> = (0..8).map(|i| i * 10).collect();
    let base = alloc_u64s(reg.pool_mut(pmo).unwrap(), &values);
    let slot = |i: u64| base + 8 * i;

    // Committed: swap slots 2 and 5 atomically.
    {
        let mut tx = Transaction::begin(reg.pool_mut(pmo).unwrap()).unwrap();
        tx.write(slot(2), &50u64.to_le_bytes()).unwrap();
        tx.write(slot(5), &20u64.to_le_bytes()).unwrap();
        tx.commit().unwrap();
    }
    assert_eq!(read_u64(reg.pool(pmo).unwrap(), slot(2)), 50);
    assert_eq!(read_u64(reg.pool(pmo).unwrap(), slot(5)), 20);

    // Crashed: half-applied swap must disappear after recovery.
    let before = read_u64s(reg.pool(pmo).unwrap(), base, 8);
    {
        let mut tx = Transaction::begin(reg.pool_mut(pmo).unwrap()).unwrap();
        tx.write(slot(0), &999u64.to_le_bytes()).unwrap();
        tx.crash();
    }
    assert_eq!(recover(reg.pool_mut(pmo).unwrap()).unwrap(), 1);
    assert_eq!(read_u64s(reg.pool(pmo).unwrap(), base, 8), before);
}

#[test]
fn linked_list_survives_close_reopen_and_relocation() {
    // A singly-linked list whose every link — head slot included — is a
    // packed ObjectId, never a virtual address. Node: [value | next].
    fn push_front(pool: &mut Pmo, head_slot: u64, value: u64) {
        let node = pool.pmalloc(16).unwrap();
        let next = read_u64(pool, head_slot);
        pool.write_bytes(node.offset(), &value.to_le_bytes())
            .unwrap();
        pool.write_bytes(node.offset() + 8, &next.to_le_bytes())
            .unwrap();
        pool.write_bytes(head_slot, &node.to_packed().to_le_bytes())
            .unwrap();
    }
    fn walk(pool: &Pmo, head_slot: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut link = read_u64(pool, head_slot);
        while let Some(node) = ObjectId::from_packed(link) {
            out.push(read_u64(pool, node.offset()));
            link = read_u64(pool, node.offset() + 8);
        }
        out
    }

    let mut reg = PmoRegistry::new();
    let pmo = reg.create("plist", 1 << 20, OpenMode::ReadWrite).unwrap();
    let head_slot = alloc_u64s(reg.pool_mut(pmo).unwrap(), &[0]); // 0 = nil
    for i in 0..16u64 {
        push_front(reg.pool_mut(pmo).unwrap(), head_slot, i);
    }

    // "Process restart": close, reopen by name, walk again from the
    // persistent head-slot offset.
    reg.close(pmo).unwrap();
    reg.open("plist", OpenMode::ReadWrite).unwrap();
    let walked = walk(reg.pool(pmo).unwrap(), head_slot);
    assert_eq!(walked.len(), 16);
    assert_eq!(walked[0], 15, "LIFO order preserved across reopen");

    // And across randomized re-mapping.
    let mut space = ProcessAddressSpace::with_seed(9);
    space
        .attach(reg.pool_mut(pmo).unwrap(), Permission::ReadWrite)
        .unwrap();
    space.randomize(reg.pool_mut(pmo).unwrap()).unwrap();
    assert_eq!(walk(reg.pool(pmo).unwrap(), head_slot), walked);
}

#[test]
fn acl_gates_the_namespace_before_any_window_exists() {
    // The Figure 2 poset top level: a user without an ACL grant cannot even
    // open the pool, regardless of attach/thread state below.
    let mut reg = PmoRegistry::new();
    let pmo = reg
        .create("classified", 1 << 16, OpenMode::ReadWrite)
        .unwrap();

    let mut acls = AclRegistry::new();
    acls.set(pmo, PoolAcl::new(1000));
    acls.acl_mut(pmo)
        .unwrap()
        .grant_group(77, OpenMode::ReadOnly);

    let analysts: BTreeSet<u32> = [77].into_iter().collect();
    let nobody: BTreeSet<u32> = BTreeSet::new();

    // Owner: read-write. Group member: read-only. Stranger: nothing.
    assert!(acls
        .check_open(pmo, 1000, &nobody, OpenMode::ReadWrite)
        .is_ok());
    assert!(acls
        .check_open(pmo, 2000, &analysts, OpenMode::ReadOnly)
        .is_ok());
    assert!(acls
        .check_open(pmo, 2000, &analysts, OpenMode::ReadWrite)
        .is_err());
    assert!(acls
        .check_open(pmo, 3000, &nobody, OpenMode::ReadOnly)
        .is_err());

    // Revoking the group is the coarsest depriving construct.
    acls.acl_mut(pmo).unwrap().revoke_group(77);
    assert!(acls
        .check_open(pmo, 2000, &analysts, OpenMode::ReadOnly)
        .is_err());
}

#[test]
fn session_protected_kv_round_trip_with_expiring_windows() {
    // A miniature protected application on the in-process service under
    // full TERP: a counter array updated across many short windows, with a
    // long-lived reader session forcing in-place randomizations. No sweeper
    // thread runs; the test waits past the EW target and sweeps itself.
    let target = Duration::from_micros(500);
    let svc = PmoService::new(
        ServiceConfig::for_tests(Scheme::terp_full())
            .with_ew_target_us(500)
            .with_seed(0xfeed),
    );
    let pmo = svc
        .create_pool("counters", 1 << 20, OpenMode::ReadWrite)
        .unwrap();
    let (writer, reader) = (0, 1);
    // The writer's first attach maps the pool read-write; the reader's
    // joins it silently and holds its session throughout.
    svc.attach(writer, pmo, Permission::ReadWrite).unwrap();
    let counters = svc.alloc(writer, pmo, 32).unwrap().offset();
    svc.attach(reader, pmo, Permission::Read).unwrap();
    let counter = |idx: u64| ObjectId::new(pmo, counters + 8 * idx);
    let read_u64 =
        |client, oid| u64::from_le_bytes(svc.read(client, oid, 8).unwrap().try_into().unwrap());
    for round in 0..20u64 {
        if round > 0 {
            svc.attach(writer, pmo, Permission::ReadWrite).unwrap();
        }
        let oid = counter(round % 4);
        let current = read_u64(writer, oid);
        svc.write(writer, oid, &(current + 1).to_le_bytes())
            .unwrap();
        svc.detach(writer, pmo).unwrap();
        // Past the target: the reader still holds the pool → randomize.
        thread::sleep(target * 2);
        svc.sweep_all();
    }
    let randomizations = svc.report().randomizations;
    assert!(
        randomizations >= 10,
        "expired shared windows must randomize in place (got {randomizations})"
    );

    // The reader sees the accumulated counts across every relocation; each
    // counter was hit 5 times.
    for idx in 0..4u64 {
        assert_eq!(read_u64(reader, counter(idx)), 5, "counter {idx}");
    }
    svc.detach(reader, pmo).unwrap();
    thread::sleep(target * 2);
    svc.sweep_all();

    // All windows closed: the pool is unmapped and its data unreachable.
    assert!(!svc.process_can(pmo, AccessKind::Read));
    assert_eq!(
        svc.read(reader, counter(0), 8).unwrap_err(),
        ServiceError::Substrate(PmoError::NotAttached(pmo))
    );
}

#[test]
fn transaction_inside_a_session_window() {
    // Crash consistency and temporal protection compose: the transaction
    // runs against the pool while its window is open; recovery works in a
    // later window, at another randomized address.
    let mut reg = PmoRegistry::new();
    let pmo = reg.create("combo", 1 << 20, OpenMode::ReadWrite).unwrap();
    let cell = reg.pool_mut(pmo).unwrap().pmalloc(16).unwrap();
    reg.pool_mut(pmo)
        .unwrap()
        .write_bytes(cell.offset(), b"stable!!")
        .unwrap();
    let mut space = ProcessAddressSpace::with_seed(0xc0b0);

    // Window 1: a transaction crashes mid-update.
    let first = space
        .attach(reg.pool_mut(pmo).unwrap(), Permission::ReadWrite)
        .unwrap();
    {
        let pool = reg.pool_mut(pmo).unwrap();
        let mut tx = Transaction::begin(pool).unwrap();
        tx.write(cell.offset(), b"torn....").unwrap();
        tx.crash();
    }
    space.detach(reg.pool_mut(pmo).unwrap()).unwrap();
    assert!(space.oid_direct(cell).is_err(), "closed window: unmapped");

    // Window 2: recover, then read through the mapping.
    let second = space
        .attach(reg.pool_mut(pmo).unwrap(), Permission::ReadWrite)
        .unwrap();
    assert_ne!(first.base_va(), second.base_va(), "re-randomized");
    let rolled = recover(reg.pool_mut(pmo).unwrap()).unwrap();
    assert_eq!(rolled, 1);
    assert_eq!(space.oid_direct(cell).unwrap(), second.va_of(cell));
    let mut buf = [0u8; 8];
    reg.pool(pmo)
        .unwrap()
        .read_bytes(cell.offset(), &mut buf)
        .unwrap();
    assert_eq!(&buf, b"stable!!");
    space.detach(reg.pool_mut(pmo).unwrap()).unwrap();
}
