//! One session shard: the pools it owns plus every piece of per-shard
//! protection state, all behind a single mutex.
//!
//! The service routes each pool id to exactly one shard
//! (`raw_id & (shards - 1)`), so operations on PMOs in different shards
//! take different locks and never contend — the sharding requirement of the
//! service design (DESIGN.md §9). Everything keyed by pool therefore lives
//! *inside* the shard: the address-space slice, the conditional engine with
//! its circular buffer, the window tracker, and each pool's holder list.
//! Each fact is kept once. The address space's mapping is the process's
//! right to a pool (its permission is the permission-matrix entry of the
//! paper's Fig. 1b, as a PTE's bits would be), and the holder list is the
//! one record of who holds a pool and with what permission, from which
//! [`ShardState::client_may`] decides every client-level right under every
//! scheme — including the Basic owner, the pool's one holder.
//!
//! Per-pool state is indexed by [`PmoId::index`], not hashed: an id has 10
//! bits and is never reused, so an index cannot alias, and each table grows
//! on first touch to the highest id it has seen. Walks over the pools run in
//! ascending id order; nothing depends on that order.
//!
//! Pools themselves are held as [`PoolSlot`]s shared with the lock-free
//! [`crate::fastpath`] index: the shard mutex still serializes every
//! *mutation*, but each mutator additionally publishes the new window state
//! through the pool's seqlock (epoch bump before and after, DESIGN.md §11)
//! so data-path readers can decide permissions without the mutex.
//! Revocations (unmap, revoke) publish *before* the substrate teardown;
//! grants (map, grant) publish *after* the substrate is ready — errors on
//! either side can only leave the mirror more restrictive than the truth,
//! never less.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use terp_arch::CondEngine;
use terp_core::config::Scheme;
use terp_core::window::WindowTracker;
use terp_persist::{DurableStore, WalRecord};
use terp_pmo::{AccessKind, Permission, PmoError, PmoId, ProcessAddressSpace};
use terp_trace::{EventKind, TraceRecorder};

use crate::error::ServiceError;
use crate::fastpath::PoolSlot;
use crate::ClientId;

/// Circular-buffer entries per shard (the paper's default).
const CB_CAPACITY: usize = 32;

/// A shard: its state mutex plus the condvar Basic-semantics attach waiters
/// sleep on.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) state: Mutex<ShardState>,
    pub(crate) cvar: Condvar,
}

impl Shard {
    pub(crate) fn new(
        seed: u64,
        max_ew_ns: u64,
        idx: u32,
        tracer: Option<Arc<TraceRecorder>>,
    ) -> Self {
        Shard {
            state: Mutex::new(ShardState {
                pools: Vec::new(),
                space: ProcessAddressSpace::with_seed(seed),
                engine: CondEngine::with_capacity(max_ew_ns, CB_CAPACITY),
                windows: WindowTracker::new(),
                roots: HashMap::new(),
                attach_syscalls: 0,
                detach_syscalls: 0,
                randomizations: 0,
                ew_over_target: 0,
                sweeper_syncs: 0,
                sweeper_errors: 0,
                drain_errors: 0,
                leftover_since: None,
                store: None,
                idx,
                lock_seq: 0,
                lock_pending: std::cell::Cell::new(false),
                tracer,
            }),
            cvar: Condvar::new(),
        }
    }
}

/// One pool a shard owns.
#[derive(Debug)]
pub(crate) struct PoolEntry {
    pub pmo: PmoId,
    /// The same `Arc` is published in the service's lock-free
    /// [`crate::fastpath::PoolIndex`].
    pub slot: Arc<PoolSlot>,
    /// Who holds an open session on the pool, and the permission each
    /// attached with (all schemes), sorted by client. Under Basic semantics
    /// the only holder is the owner; under TERP semantics a holder's entry
    /// is its thread permission (Definition 1). The fast path mirrors it in
    /// the pool's grant slots. The list keeps its allocation when it
    /// empties, so a session that reopens allocates nothing.
    holders: Vec<(ClientId, Permission)>,
}

impl PoolEntry {
    /// Where `client` sits in the holder list (`Err`: where it would go).
    fn find(&self, client: ClientId) -> Result<usize, usize> {
        self.holders.binary_search_by_key(&client, |&(c, _)| c)
    }
}

/// Everything a shard protects with its mutex.
#[derive(Debug)]
pub(crate) struct ShardState {
    /// Pools owned by this shard and their holders, indexed by
    /// [`PmoId::index`] (`None`: another shard's pool, or none yet): the
    /// authoritative membership list the locked paths use.
    pools: Vec<Option<PoolEntry>>,
    /// This shard's slice of the process address space.
    pub space: ProcessAddressSpace,
    /// CONDAT/CONDDT engine with the circular buffer (TERP schemes).
    pub engine: CondEngine,
    /// EW/TEW tracker; times are process-clock nanoseconds
    /// ([`terp_trace::time::now_ns`]).
    pub windows: WindowTracker,
    /// Root directory for this shard's pools: `(pool, key) → packed
    /// ObjectId` of a persistent data structure's root. Journaled as
    /// [`WalRecord::RootSet`] in durable mode and rebuilt by recovery, so
    /// structures can re-find their roots after a crash.
    pub roots: HashMap<(PmoId, u32), u64>,
    /// Real attach syscalls performed by this shard.
    pub attach_syscalls: u64,
    /// Real detach syscalls performed by this shard.
    pub detach_syscalls: u64,
    /// In-place randomizations performed by this shard.
    pub randomizations: u64,
    /// Process windows (and split halves) that closed longer than the EW
    /// target.
    pub ew_over_target: u64,
    /// Commits the sweeper made alone, for records nobody else committed
    /// within one EW target (see [`Self::finish_sweep`]).
    pub sweeper_syncs: u64,
    /// Sweeper actions and commits that failed; the sweeper has no caller
    /// to hand the error to.
    pub sweeper_errors: u64,
    /// Drain steps that failed; like the sweeper, the drain has no caller
    /// to hand the error to.
    pub drain_errors: u64,
    /// When the sweeper first left records in the store's buffer for the
    /// shard's next commit to carry (service ns); any commit clears it.
    pub leftover_since: Option<u64>,
    /// Durable mode: this shard's write-ahead log + checkpoint directory,
    /// opened under the service's visibility rule. `None` keeps the shard
    /// purely in-memory.
    pub store: Option<DurableStore>,
    /// This shard's index: the lock identity in trace events.
    pub idx: u32,
    /// Mutex acquisition counter. Protected by the mutex itself, so its
    /// order *is* the acquisition order — the happens-before checker pairs
    /// `LockRelease{seq: k}` with every later `LockAcquire{seq > k}`.
    pub lock_seq: u64,
    /// True while the current critical section has not yet emitted its
    /// `LockAcquire` event: the pair is written lazily, on the section's
    /// first recorded event, so quiet sections stay off the ring entirely.
    /// Protected by the mutex (a `Cell` only because [`Self::trace`] takes
    /// `&self`).
    pub lock_pending: std::cell::Cell<bool>,
    /// Flight recorder shared with the service (`None` = tracing off).
    pub tracer: Option<Arc<TraceRecorder>>,
}

impl ShardState {
    /// `pmo`'s entry, when this shard holds the pool.
    fn entry(&self, pmo: PmoId) -> Option<&PoolEntry> {
        self.pools.get(pmo.index())?.as_ref()
    }

    fn entry_mut(&mut self, pmo: PmoId) -> Option<&mut PoolEntry> {
        self.pools.get_mut(pmo.index())?.as_mut()
    }

    /// Whether this shard holds `pmo`.
    pub(crate) fn holds(&self, pmo: PmoId) -> bool {
        self.entry(pmo).is_some()
    }

    /// Every pool this shard holds, in ascending id order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &PoolEntry> {
        self.pools.iter().flatten()
    }

    /// Adds a pool, growing the table to reach its index.
    pub(crate) fn add_pool(&mut self, pmo: PmoId, slot: Arc<PoolSlot>) {
        let i = pmo.index();
        if self.pools.len() <= i {
            self.pools.resize_with(i + 1, || None);
        }
        self.pools[i] = Some(PoolEntry {
            pmo,
            slot,
            holders: Vec::new(),
        });
    }

    /// `pmo`'s slot, for callers past `lock_pool`, which refused a pool this
    /// shard does not hold.
    ///
    /// # Panics
    ///
    /// If this shard does not hold `pmo`.
    pub(crate) fn slot(&self, pmo: PmoId) -> &PoolSlot {
        &self.entry(pmo).expect("pool checked by lock_pool").slot
    }

    /// `pmo`'s slot, shared, for a caller that also mutates the shard.
    fn shared_slot(&self, pmo: PmoId) -> Result<Arc<PoolSlot>, PmoError> {
        self.entry(pmo)
            .map(|e| Arc::clone(&e.slot))
            .ok_or(PmoError::UnknownPmo(pmo))
    }

    /// Records one trace event on the calling thread's ring (no-op when
    /// tracing is off), flushing the critical section's lazy `LockAcquire`
    /// first so the lock pair brackets every recorded event. The recorder
    /// stamps the timestamp itself.
    #[inline]
    pub(crate) fn trace(&self, kind: EventKind) {
        if let Some(t) = &self.tracer {
            if self.lock_pending.replace(false) {
                t.record(EventKind::LockAcquire {
                    obj: self.idx,
                    seq: self.lock_seq,
                });
            }
            t.record(kind);
        }
    }

    /// Records one trace event *without* flushing a pending `LockAcquire`
    /// — only for the release path, which must not reopen the section it
    /// is closing.
    #[inline]
    pub(crate) fn trace_raw(&self, kind: EventKind) {
        if let Some(t) = &self.tracer {
            t.record(kind);
        }
    }

    /// Records a (sampled) data event — slow-path reads/writes under the
    /// lock (no-op when tracing is off). The sampling decision runs first:
    /// a sampled-out op emits nothing, not even the lazy lock pair.
    #[inline]
    pub(crate) fn trace_data(&self, kind: EventKind) {
        if let Some(t) = &self.tracer {
            if t.data_sample_keep() {
                self.trace(kind);
            }
        }
    }

    /// Records the post-publish seqlock epoch of `slot` as a `Publish`
    /// event. Callers hold the shard mutex, so no publish is in flight and
    /// the loaded epoch is the even value the critical section installed.
    fn trace_publish(&self, pmo: PmoId) {
        if self.tracer.is_some() {
            if let Some(entry) = self.entry(pmo) {
                self.trace(EventKind::Publish {
                    pmo: pmo.raw(),
                    epoch: entry.slot.epoch(),
                });
            }
        }
    }

    /// Appends `record` to this shard's WAL when durable mode is on.
    /// A write failure surfaces as [`ServiceError::Persist`] — the caller
    /// must not apply the mutation it failed to journal.
    pub(crate) fn log(&mut self, record: &WalRecord) -> Result<(), ServiceError> {
        if let Some(store) = self.store.as_mut() {
            store.log(record)?;
        }
        Ok(())
    }

    /// Closes out one mutating operation while the shard lock is still
    /// held: checkpoints if the store says one is due and reports whether
    /// the store is left holding records that only [`Self::commit`] will
    /// make durable — true under `visibility = durable` when the operation
    /// (or an earlier one nobody committed yet) journaled anything, never
    /// under `submit` or in memory.
    ///
    /// The trigger runs at *operation end* — never mid-operation, where a
    /// journaled protection record (e.g. the `WindowOpen` written before
    /// the mapping is published) could be truncated before the shard state
    /// it describes exists.
    pub(crate) fn finish_op(&mut self) -> Result<bool, ServiceError> {
        if self
            .store
            .as_ref()
            .is_some_and(DurableStore::checkpoint_due)
        {
            self.checkpoint()?;
        }
        Ok(self
            .store
            .as_ref()
            .is_some_and(DurableStore::has_uncommitted))
    }

    /// Settles the visibility rule for everything journaled so far: under
    /// `visibility = durable` the buffered records are written and fsynced
    /// here, before any caller acknowledges them; under `submit` the
    /// pipelined writer has them already and nothing waits.
    pub(crate) fn commit(&mut self) -> Result<(), ServiceError> {
        self.leftover_since = None;
        if let Some(store) = self.store.as_mut() {
            store.commit()?;
        }
        Ok(())
    }

    /// Checkpoints this shard's durable store (a no-op in memory): the
    /// store writes its page set, the protection snapshot rebuilt here from
    /// live shard state — the open windows, exactly what recovery needs to
    /// reseal — and truncates the WAL. No quiescent point is needed; call
    /// between operations.
    pub(crate) fn checkpoint(&mut self) -> Result<(), ServiceError> {
        let ShardState {
            store,
            pools,
            space,
            leftover_since,
            ..
        } = self;
        let Some(store) = store.as_mut() else {
            return Ok(());
        };
        // The checkpoint's first step syncs everything journaled so far.
        *leftover_since = None;
        let entries = || pools.iter().flatten();
        let protection: Vec<WalRecord> = entries()
            .filter(|e| space.is_attached(e.pmo))
            .map(|e| WalRecord::WindowOpen { pmo: e.pmo })
            .collect();
        let mut guards: Vec<_> = entries().map(|e| e.slot.pool_mut()).collect();
        store.checkpoint(guards.iter_mut().map(|g| &mut **g), &protection)?;
        Ok(())
    }

    /// Performs the real `attach()`: maps the pool at a random base with
    /// `perm` as its process permission, opens the process EW, and
    /// publishes the mapping to the fast path (grant direction: publish
    /// last).
    ///
    /// The `WindowOpen` record is journaled only once the address space has
    /// accepted the mapping — a refused attach (mode mismatch, already
    /// attached, closed pool) opens no window and must leave none in the
    /// log for recovery to reseal — and still before the mapping is
    /// published; a failed append takes the mapping back.
    pub(crate) fn map_pool(
        &mut self,
        pmo: PmoId,
        perm: Permission,
        now: u64,
    ) -> Result<(), ServiceError> {
        let slot = self.shared_slot(pmo)?;
        self.space.attach(&mut slot.pool_mut(), perm)?;
        if let Err(e) = self.log(&WalRecord::WindowOpen { pmo }) {
            let _ = self.space.detach(&mut slot.pool_mut());
            return Err(e);
        }
        self.windows.open_ew(pmo, now);
        self.attach_syscalls += 1;
        slot.publish(|w| w.set_mapped(Some(perm)));
        self.trace_publish(pmo);
        Ok(())
    }

    /// Performs the real `detach()`: unpublishes the mapping first
    /// (revocation direction: fast-path readers lose access before the
    /// teardown starts), then unmaps and closes the process EW.
    pub(crate) fn unmap_pool(&mut self, pmo: PmoId, now: u64) -> Result<(), ServiceError> {
        let slot = self.shared_slot(pmo)?;
        slot.publish(|w| w.set_mapped(None));
        self.trace_publish(pmo);
        self.space.detach(&mut slot.pool_mut())?;
        let closed = self.windows.close_ew(pmo, now);
        self.count_window(closed);
        self.detach_syscalls += 1;
        self.log(&WalRecord::WindowClose { pmo })?;
        Ok(())
    }

    /// Re-randomizes an attached pool in place: new base, split EW (the
    /// attacker's location knowledge resets). The
    /// pool's write lock drains in-flight fast readers for the relocation;
    /// the final epoch bump invalidates any snapshot taken before it.
    ///
    /// Nothing is journaled: a relocation leaves recovery nothing to
    /// re-derive (every crash-open window is resealed and re-randomized
    /// anyway), so nothing can fail between the move and its publish.
    pub(crate) fn randomize_pool(&mut self, pmo: PmoId, now: u64) -> Result<(), ServiceError> {
        let slot = self.shared_slot(pmo)?;
        self.space.randomize(&mut slot.pool_mut())?;
        let closed = self.windows.split_ew(pmo, now);
        self.count_window(closed);
        self.randomizations += 1;
        slot.publish(|_| {});
        self.trace_publish(pmo);
        Ok(())
    }

    /// Counts a closed process window (or split half) that outlived the EW
    /// target.
    fn count_window(&mut self, closed: Option<u64>) {
        self.ew_over_target += u64::from(closed.is_some_and(|len| len > self.engine.max_ew()));
    }

    /// Ends the sweeper's pass over this shard; `expired` says whether it
    /// closed a window. An expiry's `WindowClose` is no acknowledgement —
    /// recovery reseals every window the log leaves open, so a crash that
    /// loses an unsynced close changes nothing a client could have
    /// observed — and buys no fsync of its own: it waits in the store's
    /// buffer for the shard's next commit, whoever makes it, ahead of any
    /// later record of that pool. Only when nobody has committed for one EW
    /// target since the sweeper first left records behind does the pass
    /// commit the shard itself, so a shard gone quiet still tells its disk
    /// (and a follower) about every expiry within two targets.
    pub(crate) fn finish_sweep(&mut self, now: u64, expired: bool) -> Result<(), ServiceError> {
        if expired && self.finish_op()? {
            self.leftover_since.get_or_insert(now);
        }
        if self.leftover_deadline().is_some_and(|at| now >= at) {
            self.commit()?;
            self.sweeper_syncs += 1;
        }
        Ok(())
    }

    /// When the sweeper must commit what it left behind itself, unless
    /// somebody else's commit gets there first.
    pub(crate) fn leftover_deadline(&self) -> Option<u64> {
        Some(self.leftover_since?.saturating_add(self.engine.max_ew()))
    }

    /// The earliest moment this shard has work for the sweeper: a tracked
    /// circular-buffer entry expires, or [`Self::leftover_deadline`].
    /// `None` when nothing is tracked or left behind.
    pub(crate) fn next_deadline(&self) -> Option<u64> {
        let max_ew = self.engine.max_ew();
        self.engine
            .buffer()
            .iter()
            .map(|e| e.ts.saturating_add(max_ew))
            .chain(self.leftover_deadline())
            .min()
    }

    /// Opens `client`'s TERP session: records it as a holder with `perm` as
    /// its thread permission (published to the fast path) and opens its
    /// TEW. Nothing is journaled: recovery resurrects no session, so a
    /// grant leaves it nothing to re-derive and a silent attach buys no
    /// fsync.
    pub(crate) fn grant_client(
        &mut self,
        client: ClientId,
        pmo: PmoId,
        perm: Permission,
        now: u64,
    ) {
        self.add_holder(client, pmo, perm);
        self.windows.open_tew(client, pmo, now);
        self.trace(EventKind::Grant {
            pmo: pmo.raw(),
            client: client as u64,
            writable: perm == Permission::ReadWrite,
        });
    }

    /// Closes `client`'s TERP session: drops the holder and its fast-path
    /// mirror first, so a reader racing this call is denied as soon as the
    /// revocation begins, then closes its TEW. Nothing is journaled, as for
    /// the grant: a delayed detach buys no fsync.
    pub(crate) fn revoke_client(&mut self, client: ClientId, pmo: PmoId, now: u64) {
        self.remove_holder(client, pmo);
        self.trace(EventKind::Revoke {
            pmo: pmo.raw(),
            client: client as u64,
        });
        self.windows.close_tew(client, pmo, now);
    }

    /// The process-level rule: `pmo` is mapped with a permission allowing
    /// `kind`. The mapping is the one record of the process's right.
    pub(crate) fn process_may(&self, pmo: PmoId, kind: AccessKind) -> bool {
        self.space.permission(pmo).is_some_and(|p| p.allows(kind))
    }

    /// The one client-level rights rule, for every scheme and every entry
    /// point: `client` may perform `kind` on `pmo` when the scheme checks
    /// nothing, or when it holds the pool with a permission allowing `kind`.
    pub(crate) fn client_may(
        &self,
        scheme: Scheme,
        client: ClientId,
        pmo: PmoId,
        kind: AccessKind,
    ) -> bool {
        !scheme.checks_permissions() || self.holder(client, pmo).is_some_and(|p| p.allows(kind))
    }

    /// The permission `client` holds `pmo` with, if it holds an open
    /// session.
    fn holder(&self, client: ClientId, pmo: PmoId) -> Option<Permission> {
        let entry = self.entry(pmo)?;
        entry.find(client).ok().map(|i| entry.holders[i].1)
    }

    /// Whether `client` currently holds an open session on `pmo`.
    pub(crate) fn is_holder(&self, client: ClientId, pmo: PmoId) -> bool {
        self.holder(client, pmo).is_some()
    }

    /// Whether anyone holds an open session on `pmo` — under Basic
    /// semantics, whether the pool has its one holder, the owner.
    pub(crate) fn is_held(&self, pmo: PmoId) -> bool {
        self.entry(pmo).is_some_and(|e| !e.holders.is_empty())
    }

    /// Every open session, as `(pool, client)`: pools in ascending id
    /// order, each pool's clients in ascending order.
    pub(crate) fn sessions(&self) -> Vec<(PmoId, ClientId)> {
        self.entries()
            .flat_map(|e| e.holders.iter().map(move |&(client, _)| (e.pmo, client)))
            .collect()
    }

    /// Records a session open with the permission it attached with, and
    /// mirrors it to the pool's grant slots (publish last).
    pub(crate) fn add_holder(&mut self, client: ClientId, pmo: PmoId, perm: Permission) {
        let Some(entry) = self.entry_mut(pmo) else {
            return;
        };
        match entry.find(client) {
            Ok(i) => entry.holders[i].1 = perm,
            Err(i) => entry.holders.insert(i, (client, perm)),
        }
        entry.slot.publish(|w| w.grant(client, perm));
        self.trace_publish(pmo);
    }

    /// Records a session close and unpublishes it. When the last holder
    /// leaves, the pool's whole grant mirror (including a sticky crowded
    /// bit) is known stale and is cleared instead.
    pub(crate) fn remove_holder(&mut self, client: ClientId, pmo: PmoId) {
        let Some(entry) = self.entry_mut(pmo) else {
            return;
        };
        let Ok(i) = entry.find(client) else {
            return;
        };
        entry.holders.remove(i);
        let last = entry.holders.is_empty();
        entry.slot.publish(|w| {
            if last {
                w.clear_grants()
            } else {
                w.revoke(client)
            }
        });
        self.trace_publish(pmo);
    }
}
