//! The data plane: permission decisions (locked and against a published
//! snapshot), the lock-free fast path, and read/write/compare-and-swap
//! (plain entry points and their [`Batch`] bodies).

use terp_persist::WalRecord;
use terp_pmo::{AccessKind, ObjectId, PmoId};
use terp_trace::EventKind;

use super::{Batch, PmoService, StateGuard};
use crate::error::ServiceError;
use crate::fastpath::WindowSnapshot;
use crate::metrics::ThreadSlab;
use crate::ClientId;

impl PmoService {
    /// The fast-path permission decision against a published snapshot:
    /// the locked rule (`ShardState::process_may` plus
    /// `ShardState::client_may`) read from the pool's mirror. Returns
    /// `true` only when the op may proceed lock-free; every other case
    /// (unmapped, denied, crowded mirror) falls back to the locked slow
    /// path, which recomputes the decision authoritatively and emits the
    /// exact error.
    fn snapshot_allows(&self, snap: &WindowSnapshot, client: ClientId, kind: AccessKind) -> bool {
        snap.mapped()
            && (!self.config.scheme.checks_permissions()
                || (snap.proc_allows(kind) && !snap.crowded() && snap.client_allows(client, kind)))
    }

    /// Lock-free read attempt. `None` means "take the locked slow path" —
    /// on index miss, seqlock collision, permission failure (the slow path
    /// owns denial accounting and error shapes), or a raced epoch.
    fn fast_read(&self, client: ClientId, oid: ObjectId, buf: &mut [u8]) -> Option<()> {
        let slot = self.index.get(oid.pmo())?;
        let snap = slot.snapshot()?;
        if !self.snapshot_allows(&snap, client, AccessKind::Read) {
            return None;
        }
        let pool = slot.pool();
        // Re-validate under the data lock: if a writer published between
        // the snapshot and the lock, the decision may be stale — retry
        // through the slow path.
        if !slot.still_valid(&snap) {
            return None;
        }
        match pool.read_bytes(oid.offset(), buf) {
            Ok(()) => {
                self.metrics.with_slab(|s| ThreadSlab::bump(&s.reads));
                self.trace_data(EventKind::Read {
                    pmo: oid.pmo().raw(),
                    client: client as u64,
                    offset: oid.offset(),
                    len: buf.len() as u32,
                    epoch: snap.epoch(),
                });
                Some(())
            }
            // Bounds errors: defer to the slow path for the exact error.
            Err(_) => None,
        }
    }

    /// Lock-free write attempt; additionally refuses durable mode, where
    /// every write must be journaled under the shard store.
    fn fast_write(&self, client: ClientId, oid: ObjectId, data: &[u8]) -> Option<()> {
        if self.config.durable.is_some() {
            return None;
        }
        let slot = self.index.get(oid.pmo())?;
        let snap = slot.snapshot()?;
        if !self.snapshot_allows(&snap, client, AccessKind::Write) {
            return None;
        }
        let mut pool = slot.pool_mut();
        if !slot.still_valid(&snap) {
            return None;
        }
        match pool.write_bytes(oid.offset(), data) {
            Ok(()) => {
                self.metrics.with_slab(|s| ThreadSlab::bump(&s.writes));
                self.trace_data(EventKind::Write {
                    pmo: oid.pmo().raw(),
                    client: client as u64,
                    offset: oid.offset(),
                    len: data.len() as u32,
                    epoch: snap.epoch(),
                });
                Some(())
            }
            Err(_) => None,
        }
    }

    /// Reads `buf.len()` bytes at `oid` into a caller-provided buffer,
    /// subject to the scheme's permission checks — the allocation-free
    /// data-plane primitive ([`Self::read`] wraps it).
    ///
    /// # Errors
    ///
    /// [`ServiceError::PermissionDenied`], [`ServiceError::UnknownPmo`], or
    /// a substrate error (unmapped pool, out-of-bounds offset).
    pub fn read_into(
        &self,
        client: ClientId,
        oid: ObjectId,
        buf: &mut [u8],
    ) -> Result<(), ServiceError> {
        if self.fast_read(client, oid, buf).is_some() {
            return Ok(());
        }
        let pmo = oid.pmo();
        let state = self.lock_for(client, pmo, Some(oid), AccessKind::Read)?;
        state.slot(pmo).pool().read_bytes(oid.offset(), buf)?;
        self.metrics.with_slab(|s| ThreadSlab::bump(&s.reads));
        // Slow-path epoch 0: the lock events already order this access.
        state.trace_data(EventKind::Read {
            pmo: pmo.raw(),
            client: client as u64,
            offset: oid.offset(),
            len: buf.len() as u32,
            epoch: 0,
        });
        Ok(())
    }

    /// Reads `len` bytes at `oid` on behalf of `client`, subject to the
    /// scheme's permission checks.
    ///
    /// # Errors
    ///
    /// Same as [`Self::read_into`].
    pub fn read(
        &self,
        client: ClientId,
        oid: ObjectId,
        len: usize,
    ) -> Result<Vec<u8>, ServiceError> {
        let mut buf = vec![0u8; len];
        self.read_into(client, oid, &mut buf)?;
        Ok(buf)
    }

    /// Writes `data` at `oid` on behalf of `client`, subject to the
    /// scheme's permission checks.
    ///
    /// # Errors
    ///
    /// Same as [`Self::read`], with [`AccessKind::Write`] required.
    pub fn write(&self, client: ClientId, oid: ObjectId, data: &[u8]) -> Result<(), ServiceError> {
        self.one(|b| b.write(client, oid, data))
    }

    /// Atomically compares-and-swaps the little-endian `u64` at `oid`:
    /// when the stored value equals `expected`, `new` is written (and
    /// journaled in durable mode); either way the *observed* prior value is
    /// returned, so `Ok(v) where v == expected` means the swap happened.
    /// Requires the rights a write would. Always takes the locked path —
    /// the shard mutex is what makes the read-compare-write sequence
    /// atomic against every other mutator; the seqlock fast path cannot
    /// provide that.
    ///
    /// This is the linchpin primitive for the persistent lock-free
    /// structures (`terp-structures`): every commit point is a single CAS
    /// on a root, link, or owner word inside an exposure window.
    ///
    /// # Errors
    ///
    /// Same as [`Self::write`].
    pub fn cas_u64(
        &self,
        client: ClientId,
        oid: ObjectId,
        expected: u64,
        new: u64,
    ) -> Result<u64, ServiceError> {
        self.one(|b| b.cas_u64(client, oid, expected, new))
    }

    /// Whether the *process* currently holds `kind` access to the pool —
    /// i.e. the pool is mapped with a permission allowing it. This is the
    /// probe the soak test uses: after a full detach or sweep expiry it must
    /// be `false`. Lock-free unless the seqlock snapshot collides.
    pub fn process_can(&self, pmo: PmoId, kind: AccessKind) -> bool {
        let Some(slot) = self.index.get(pmo) else {
            return false; // never created: never mapped
        };
        if let Some(snap) = slot.snapshot() {
            return snap.mapped() && snap.proc_allows(kind);
        }
        // Persistent seqlock collision: fall through to the lock.
        self.lock(self.shard(pmo)).process_may(pmo, kind)
    }

    /// Whether `client` can currently perform `kind` on the pool: the pool
    /// must be mapped, and under a checking scheme its process permission
    /// must allow `kind` *and* the client's holder entry must
    /// (`ShardState::client_may`).
    /// Lock-free unless the pool's grant mirror has overflowed (or the
    /// seqlock snapshot collides).
    pub fn client_can(&self, client: ClientId, pmo: PmoId, kind: AccessKind) -> bool {
        let Some(slot) = self.index.get(pmo) else {
            return false; // never created
        };
        match slot.snapshot() {
            // The same decision the data path takes on this snapshot.
            Some(snap) if !snap.crowded() => return self.snapshot_allows(&snap, client, kind),
            // Crowded mirror (or seqlock collision): only the slow path knows.
            _ => {}
        }
        let state = self.lock(self.shard(pmo));
        let scheme = self.config.scheme;
        state.space.permission(pmo).is_some_and(|p| {
            !scheme.checks_permissions()
                || (p.allows(kind) && state.client_may(scheme, client, pmo, kind))
        })
    }
}

impl Batch<'_> {
    /// [`PmoService::write`] without its end-of-operation commit.
    pub fn write(
        &mut self,
        client: ClientId,
        oid: ObjectId,
        data: &[u8],
    ) -> Result<(), ServiceError> {
        let svc = self.svc;
        svc.check_writable()?;
        if svc.fast_write(client, oid, data).is_some() {
            return Ok(());
        }
        let state = svc.lock_for(client, oid.pmo(), Some(oid), AccessKind::Write)?;
        self.write_locked(state, client, oid, data)
    }

    /// [`PmoService::cas_u64`] without its end-of-operation commit.
    pub fn cas_u64(
        &mut self,
        client: ClientId,
        oid: ObjectId,
        expected: u64,
        new: u64,
    ) -> Result<u64, ServiceError> {
        let svc = self.svc;
        svc.check_writable()?;
        let state = svc.lock_for(client, oid.pmo(), Some(oid), AccessKind::Write)?;
        let mut buf = [0u8; 8];
        state
            .slot(oid.pmo())
            .pool()
            .read_bytes(oid.offset(), &mut buf)?;
        let observed = u64::from_le_bytes(buf);
        if observed == expected {
            self.write_locked(state, client, oid, &new.to_le_bytes())?;
        }
        Ok(observed)
    }

    /// The locked tail of `write` and `cas_u64`: stores `data` at `oid`
    /// under the shard lock `lock_for` granted, journals it in durable
    /// mode, and ends the operation.
    fn write_locked(
        &mut self,
        mut state: StateGuard<'_>,
        client: ClientId,
        oid: ObjectId,
        data: &[u8],
    ) -> Result<(), ServiceError> {
        let pmo = oid.pmo();
        state.slot(pmo).pool_mut().write_bytes(oid.offset(), data)?;
        self.svc.metrics.with_slab(|s| ThreadSlab::bump(&s.writes));
        state.trace_data(EventKind::Write {
            pmo: pmo.raw(),
            client: client as u64,
            offset: oid.offset(),
            len: data.len() as u32,
            epoch: 0,
        });
        if state.store.is_some() {
            state.log(&WalRecord::DataWrite {
                pmo,
                offset: oid.offset(),
                data: data.to_vec(),
            })?;
        }
        self.finish(state)
    }
}
