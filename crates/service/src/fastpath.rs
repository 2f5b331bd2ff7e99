//! The lock-free fast path: seqlock-published per-pool window state.
//!
//! TERP's cost hierarchy (Table II) prices a permission-matrix check at one
//! cycle and a silent conditional op at 27 — numbers a shard mutex cannot
//! approach once several clients share a shard. This module publishes the
//! *decision-relevant* slice of a pool's protection state (is it mapped,
//! with which process permission, which clients hold it and with what
//! permission — the pool's holder list, whose entries are thread rights
//! under TERP and the one owner under Basic semantics) through a per-pool
//! seqlock so data-path readers never touch the shard mutex. Writers — attach, detach, the sweeper, recovery, drain —
//! already serialize on the shard lock; they additionally bump the pool's
//! epoch before and after every mutation so a concurrent reader either sees
//! the pre-state, the post-state, or retries.
//!
//! The memory-ordering argument is spelled out in DESIGN.md §11. In short:
//!
//! * the writer makes the epoch odd (`Relaxed`) and issues a `Release`
//!   fence *before* touching any published field, so a reader that observes
//!   a field mutation also observes the odd epoch;
//! * published fields are individual atomics written/read `Relaxed` —
//!   torn values are impossible at the field level, and the seqlock makes
//!   mixed *generations* detectable;
//! * the reader loads the epoch with `Acquire`, copies the fields, issues
//!   an `Acquire` fence, and re-loads the epoch: any interleaved writer
//!   leaves the two loads unequal (or odd) and the snapshot is discarded;
//! * the writer's final even store is `Release`, pairing with the reader's
//!   initial `Acquire` load, so a reader that sees the new epoch also sees
//!   every field store that preceded it.
//!
//! A reader retries a bounded number of times and then reports failure; the
//! caller falls back to the locked slow path, so writer starvation of
//! readers is impossible and the fast path is strictly an optimization.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use terp_pmo::id::MAX_POOL_ID;
use terp_pmo::{AccessKind, Permission, Pmo, PmoId};

use crate::ClientId;

/// Published holder slots per pool. Pools with more concurrent holders
/// than this set the *crowded* bit and push every client-level
/// check back to the locked slow path until the pool quiesces.
pub(crate) const GRANT_SLOTS: usize = 8;

/// Bounded seqlock retries before the reader gives up and takes the locked
/// slow path.
const SNAPSHOT_RETRIES: usize = 8;

// Published state-word bits.
const MAPPED: u64 = 1 << 0;
const PROC_READ: u64 = 1 << 1;
const PROC_WRITE: u64 = 1 << 2;
const CROWDED: u64 = 1 << 3;

// Grant-slot encoding: 0 is empty, otherwise ((client + 1) << 2) | rights.
const GRANT_READ: u64 = 1 << 0;
const GRANT_WRITE: u64 = 1 << 1;
const GRANT_CLIENT_SHIFT: u32 = 2;

fn grant_word(client: ClientId, read: bool, write: bool) -> u64 {
    let mut w = ((client as u64).wrapping_add(1)) << GRANT_CLIENT_SHIFT;
    if read {
        w |= GRANT_READ;
    }
    if write {
        w |= GRANT_WRITE;
    }
    w
}

fn grant_client(word: u64) -> u64 {
    word >> GRANT_CLIENT_SHIFT
}

/// One pool's shared ownership cell: the seqlock-published window state
/// plus the pool data behind a `RwLock` (readers of *data* share; the
/// shard lock is never required for a data op).
///
/// Lock order where both are taken: shard mutex → pool `RwLock`. The fast
/// path takes only the pool lock; writers under the shard mutex take the
/// pool lock briefly for substrate calls, which cannot deadlock because
/// fast-path readers never acquire the shard mutex while holding the pool
/// lock.
pub(crate) struct PoolSlot {
    /// Seqlock epoch: odd while a writer is mid-publish.
    seq: AtomicU64,
    /// Packed MAPPED / PROC_READ / PROC_WRITE / CROWDED bits.
    state: AtomicU64,
    /// Holder mirror: up to [`GRANT_SLOTS`] live holders and their rights.
    grants: [AtomicU64; GRANT_SLOTS],
    /// The pool itself. Data reads take the read half; data writes and
    /// substrate mutations (attach/detach/alloc/free) take the write half.
    pool: RwLock<Pmo>,
}

impl std::fmt::Debug for PoolSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolSlot")
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .field("state", &self.state.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl PoolSlot {
    /// Wraps a pool in an unpublished (unmapped, grantless) slot.
    pub(crate) fn new(pool: Pmo) -> Self {
        PoolSlot {
            seq: AtomicU64::new(0),
            state: AtomicU64::new(0),
            grants: Default::default(),
            pool: RwLock::new(pool),
        }
    }

    /// Shared access to the pool data (poison-tolerant, like the shard
    /// mutex).
    pub(crate) fn pool(&self) -> RwLockReadGuard<'_, Pmo> {
        self.pool.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Exclusive access to the pool data.
    pub(crate) fn pool_mut(&self) -> RwLockWriteGuard<'_, Pmo> {
        self.pool.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` inside a seqlock write-side critical section. Callers must
    /// hold the owning shard's mutex — the seqlock protects readers from
    /// writers, not writers from each other.
    pub(crate) fn publish<R>(&self, f: impl FnOnce(&WindowWriter<'_>) -> R) -> R {
        self.begin_publish();
        let r = f(&WindowWriter { slot: self });
        self.end_publish();
        r
    }

    /// Makes the epoch odd. Split out of [`Self::publish`] so tests can
    /// interleave readers with a half-finished write.
    fn begin_publish(&self) {
        self.seq.fetch_add(1, Ordering::Relaxed);
        // A reader that observes any following field store must also
        // observe the odd epoch (pairs with the reader's Acquire fence).
        fence(Ordering::Release);
    }

    /// Makes the epoch even again, releasing every field store to readers.
    fn end_publish(&self) {
        self.seq.fetch_add(1, Ordering::Release);
    }

    /// Takes a consistent snapshot of the published window state, or `None`
    /// after [`SNAPSHOT_RETRIES`] collisions with writers (the caller then
    /// falls back to the locked slow path).
    pub(crate) fn snapshot(&self) -> Option<WindowSnapshot> {
        for _ in 0..SNAPSHOT_RETRIES {
            let seq = self.seq.load(Ordering::Acquire);
            if seq & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let state = self.state.load(Ordering::Relaxed);
            let mut grants = [0u64; GRANT_SLOTS];
            for (g, slot) in grants.iter_mut().zip(&self.grants) {
                *g = slot.load(Ordering::Relaxed);
            }
            // Order the field loads before the epoch re-check (pairs with
            // the writer's Release fence in `begin_publish`).
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == seq {
                return Some(WindowSnapshot { seq, state, grants });
            }
            std::hint::spin_loop();
        }
        None
    }

    /// Whether no writer has published since `snap` was taken. Used to
    /// re-validate a snapshot *after* acquiring the pool data lock: a true
    /// result proves the permission decision still holds while the guard
    /// pins the data.
    pub(crate) fn still_valid(&self, snap: &WindowSnapshot) -> bool {
        fence(Ordering::Acquire);
        self.seq.load(Ordering::Relaxed) == snap.seq
    }

    /// The current seqlock epoch. Only meaningful under the owning shard's
    /// mutex (no publish in flight), where it is the even epoch installed
    /// by the last write-side critical section — the value recorded in
    /// `Publish` trace events.
    pub(crate) fn epoch(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }
}

/// Write-side setters, only reachable through [`PoolSlot::publish`].
pub(crate) struct WindowWriter<'a> {
    slot: &'a PoolSlot,
}

impl WindowWriter<'_> {
    /// Publishes the mapped bit and the process-level permission mirror
    /// (`None` = unmapped, no process access).
    pub(crate) fn set_mapped(&self, perm: Option<Permission>) {
        let mut state = self.slot.state.load(Ordering::Relaxed);
        state &= !(MAPPED | PROC_READ | PROC_WRITE);
        if let Some(perm) = perm {
            state |= MAPPED | PROC_READ;
            if perm == Permission::ReadWrite {
                state |= PROC_WRITE;
            }
        }
        self.slot.state.store(state, Ordering::Relaxed);
    }

    /// Mirrors a holder and its permission. Falls back to the sticky crowded
    /// bit when every slot is taken, which sends client-level checks to the
    /// locked slow path until [`Self::clear_grants`].
    pub(crate) fn grant(&self, client: ClientId, perm: Permission) {
        let word = grant_word(client, true, perm == Permission::ReadWrite);
        let key = grant_client(word);
        // Update in place if the client already holds a slot.
        for slot in &self.slot.grants {
            if grant_client(slot.load(Ordering::Relaxed)) == key {
                slot.store(word, Ordering::Relaxed);
                return;
            }
        }
        for slot in &self.slot.grants {
            if slot.load(Ordering::Relaxed) == 0 {
                slot.store(word, Ordering::Relaxed);
                return;
            }
        }
        self.slot.state.fetch_or(CROWDED, Ordering::Relaxed);
    }

    /// Mirrors a holder leaving.
    pub(crate) fn revoke(&self, client: ClientId) {
        let key = (client as u64).wrapping_add(1);
        for slot in &self.slot.grants {
            if grant_client(slot.load(Ordering::Relaxed)) == key {
                slot.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Clears every grant and the crowded bit — called when the pool has no
    /// holders left, the point where overflowed state is known stale.
    pub(crate) fn clear_grants(&self) {
        for slot in &self.slot.grants {
            slot.store(0, Ordering::Relaxed);
        }
        self.slot.state.fetch_and(!CROWDED, Ordering::Relaxed);
    }
}

/// A consistent copy of one pool's published window state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowSnapshot {
    seq: u64,
    state: u64,
    grants: [u64; GRANT_SLOTS],
}

impl WindowSnapshot {
    /// The (even) seqlock epoch this snapshot validated against: the trace
    /// epoch of fast-path data events, pairing each lock-free access with
    /// the `Publish` that made its permission decision visible.
    pub(crate) fn epoch(&self) -> u64 {
        self.seq
    }

    /// Whether the pool was mapped into the process address space.
    pub(crate) fn mapped(&self) -> bool {
        self.state & MAPPED != 0
    }

    /// Whether the grant mirror overflowed (client checks must go to the
    /// locked slow path).
    pub(crate) fn crowded(&self) -> bool {
        self.state & CROWDED != 0
    }

    /// Process-level permission check: the mirror of the mapping's
    /// permission (`ShardState::process_may`).
    pub(crate) fn proc_allows(&self, kind: AccessKind) -> bool {
        let bit = match kind {
            AccessKind::Read => PROC_READ,
            AccessKind::Write => PROC_WRITE,
        };
        self.state & bit != 0
    }

    /// Client-level permission check: the mirror of
    /// `ShardState::client_may` for a scheme that checks permissions. Only
    /// meaningful when `!crowded()`.
    pub(crate) fn client_allows(&self, client: ClientId, kind: AccessKind) -> bool {
        let key = (client as u64).wrapping_add(1);
        let bit = match kind {
            AccessKind::Read => GRANT_READ,
            AccessKind::Write => GRANT_WRITE,
        };
        self.grants
            .iter()
            .any(|&g| grant_client(g) == key && g & bit != 0)
    }
}

/// The lock-free cross-shard pool index: a fixed array of once-published
/// slots addressed by raw pool id. Ids are globally unique and never
/// reused (the registry contract), and the service never destroys pools,
/// so a slot is written exactly once and reads need no synchronization
/// beyond `OnceLock`'s own publication ordering.
pub(crate) struct PoolIndex {
    slots: Box<[OnceLock<std::sync::Arc<PoolSlot>>]>,
}

impl std::fmt::Debug for PoolIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let live = self.slots.iter().filter(|s| s.get().is_some()).count();
        f.debug_struct("PoolIndex").field("live", &live).finish()
    }
}

impl PoolIndex {
    /// An index covering the whole pool-id space (`MAX_POOL_ID` slots).
    pub(crate) fn new() -> Self {
        PoolIndex {
            slots: (0..usize::from(MAX_POOL_ID))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// Lock-free lookup by id.
    pub(crate) fn get(&self, id: PmoId) -> Option<&std::sync::Arc<PoolSlot>> {
        self.slots.get(usize::from(id.raw()))?.get()
    }

    /// Publishes a freshly created pool's slot. Panics on double publish —
    /// the id allocator hands every id out exactly once.
    pub(crate) fn insert(&self, id: PmoId, slot: std::sync::Arc<PoolSlot>) {
        self.slots[usize::from(id.raw())]
            .set(slot)
            .expect("pool id published twice");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use terp_pmo::OpenMode;

    fn slot() -> PoolSlot {
        let id = PmoId::new(1).unwrap();
        PoolSlot::new(Pmo::new(id, "t".into(), 1 << 12, OpenMode::ReadWrite).unwrap())
    }

    #[test]
    fn snapshot_reflects_published_state() {
        let s = slot();
        assert!(!s.snapshot().unwrap().mapped());
        s.publish(|w| {
            w.set_mapped(Some(Permission::ReadWrite));
            w.grant(7, Permission::Read);
        });
        let snap = s.snapshot().unwrap();
        assert!(snap.mapped());
        assert!(snap.proc_allows(AccessKind::Read));
        assert!(snap.proc_allows(AccessKind::Write));
        assert!(snap.client_allows(7, AccessKind::Read));
        assert!(!snap.client_allows(7, AccessKind::Write));
        assert!(!snap.client_allows(8, AccessKind::Read));

        s.publish(|w| {
            w.revoke(7);
            w.set_mapped(None);
        });
        let snap = s.snapshot().unwrap();
        assert!(!snap.mapped());
        assert!(!snap.proc_allows(AccessKind::Read));
        assert!(!snap.client_allows(7, AccessKind::Read));
    }

    #[test]
    fn read_only_mapping_publishes_no_write_bit() {
        let s = slot();
        s.publish(|w| w.set_mapped(Some(Permission::Read)));
        let snap = s.snapshot().unwrap();
        assert!(snap.proc_allows(AccessKind::Read));
        assert!(!snap.proc_allows(AccessKind::Write));
    }

    #[test]
    fn grant_overflow_sets_sticky_crowded_bit() {
        let s = slot();
        s.publish(|w| {
            for c in 0..GRANT_SLOTS {
                w.grant(c, Permission::ReadWrite);
            }
        });
        assert!(!s.snapshot().unwrap().crowded());
        s.publish(|w| w.grant(99, Permission::Read));
        assert!(s.snapshot().unwrap().crowded(), "9th grant overflows");
        // Revoking one client does not clear the bit: client 99's right is
        // real but unpublished, so checks must stay on the slow path.
        s.publish(|w| w.revoke(3));
        assert!(s.snapshot().unwrap().crowded());
        s.publish(|w| w.clear_grants());
        let snap = s.snapshot().unwrap();
        assert!(!snap.crowded());
        assert!(!snap.client_allows(0, AccessKind::Read));
    }

    #[test]
    fn reader_retries_on_odd_epoch_and_fails_bounded() {
        let s = slot();
        s.begin_publish();
        assert!(
            s.snapshot().is_none(),
            "mid-publish epoch is odd: the reader must refuse the snapshot"
        );
        s.end_publish();
        assert!(s.snapshot().is_some(), "even epoch reads cleanly again");
    }

    #[test]
    fn snapshot_taken_before_publish_is_invalidated() {
        let s = slot();
        let snap = s.snapshot().unwrap();
        assert!(s.still_valid(&snap));
        s.publish(|w| w.set_mapped(Some(Permission::Read)));
        assert!(!s.still_valid(&snap), "epoch moved by two");
    }

    /// Seqlock torn-read property: with a writer flipping between two
    /// randomly drawn full states, every successful reader snapshot equals
    /// one of the two generations exactly — never a mix. Randomized over
    /// many (stateA, stateB) pairs with a fixed seed; iteration count
    /// scales with `TERP_STRESS_ITERS` so CI can lean on it in release
    /// mode as the thread-sanitizer-free fallback.
    #[test]
    fn torn_reads_are_impossible_under_concurrent_publish() {
        use proptest::TestRng;

        let iters: u64 = std::env::var("TERP_STRESS_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200);
        let mut rng = TestRng::new(0x5e9_10c4 ^ 0x7e2f_c0de);
        for case in 0..8 {
            // Two distinguishable generations: distinct process write bits
            // and grants.
            let client_a = rng.below(1 << 20) as ClientId;
            let client_b = client_a + 1 + rng.below(1 << 20) as ClientId;
            let s = Arc::new(slot());
            let stop = Arc::new(AtomicBool::new(false));
            std::thread::scope(|scope| {
                let writer = {
                    let s = Arc::clone(&s);
                    let stop = Arc::clone(&stop);
                    scope.spawn(move || {
                        for i in 0..iters {
                            let (client, perm) = if i % 2 == 0 {
                                (client_a, Permission::ReadWrite)
                            } else {
                                (client_b, Permission::Read)
                            };
                            s.publish(|w| {
                                w.clear_grants();
                                w.set_mapped(Some(perm));
                                w.grant(client, perm);
                            });
                        }
                        stop.store(true, Ordering::Release);
                    })
                };
                for _ in 0..2 {
                    let s = Arc::clone(&s);
                    let stop = Arc::clone(&stop);
                    scope.spawn(move || {
                        while !stop.load(Ordering::Acquire) {
                            let Some(snap) = s.snapshot() else { continue };
                            if !snap.mapped() {
                                continue; // initial generation
                            }
                            let gen_a = snap.proc_allows(AccessKind::Write)
                                && snap.client_allows(client_a, AccessKind::Write)
                                && !snap.client_allows(client_b, AccessKind::Read);
                            let gen_b = !snap.proc_allows(AccessKind::Write)
                                && snap.client_allows(client_b, AccessKind::Read)
                                && !snap.client_allows(client_a, AccessKind::Read);
                            assert!(gen_a || gen_b, "torn snapshot in case {case}: {snap:?}");
                        }
                    });
                }
                writer.join().unwrap();
            });
        }
    }

    #[test]
    fn index_publishes_each_id_once() {
        let idx = PoolIndex::new();
        let id = PmoId::new(5).unwrap();
        assert!(idx.get(id).is_none());
        let s = Arc::new(slot());
        idx.insert(id, Arc::clone(&s));
        assert!(Arc::ptr_eq(idx.get(id).unwrap(), &s));
        assert!(idx.get(PmoId::new(6).unwrap()).is_none());
    }
}
