//! Pools, objects and roots: `create_pool`, `alloc`/`free` and the root
//! directory (plain entry points and their [`Batch`] bodies).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use terp_persist::WalRecord;
use terp_pmo::id::MAX_POOL_ID;
use terp_pmo::{AccessKind, ObjectId, OpenMode, Pmo, PmoError, PmoId};

use super::{Batch, PmoService};
use crate::error::ServiceError;
use crate::fastpath::PoolSlot;
use crate::metrics::ThreadSlab;
use crate::ClientId;

impl PmoService {
    /// Creates a pool and hands it to its shard. Uniqueness lives in the
    /// hash-sharded name maps; ids come from the global atomic allocator
    /// (unique, never reused), so two creates only contend when their names
    /// hash to the same shard.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShuttingDown`] after shutdown began, or a substrate
    /// error for duplicate names / invalid sizes / id exhaustion.
    pub fn create_pool(
        &self,
        name: &str,
        size: u64,
        mode: OpenMode,
    ) -> Result<PmoId, ServiceError> {
        self.one(|b| b.create_pool(name, size, mode))
    }

    /// Registers (or clears, with `None`) root slot `key` of `pmo` in the
    /// service's root directory. In durable mode the entry is journaled as
    /// a [`WalRecord::RootSet`] and survives crashes and checkpoints, so a
    /// persistent structure's root ObjectID can be re-found after
    /// recovery. Requires the client-level rights a write would.
    ///
    /// # Errors
    ///
    /// Same as [`Self::alloc`].
    pub fn set_root(
        &self,
        client: ClientId,
        pmo: PmoId,
        key: u32,
        oid: Option<ObjectId>,
    ) -> Result<(), ServiceError> {
        self.one(|b| b.set_root(client, pmo, key, oid))
    }

    /// Looks up root slot `key` of `pmo` in the root directory. `None` for
    /// an unset (or cleared) slot. Any client may read the directory — the
    /// ObjectID it returns is still subject to the scheme's checks on
    /// every dereference.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownPmo`] when the pool is not served here.
    pub fn root(&self, pmo: PmoId, key: u32) -> Result<Option<ObjectId>, ServiceError> {
        let state = self.lock_pool(pmo)?;
        Ok(state
            .roots
            .get(&(pmo, key))
            .copied()
            .and_then(ObjectId::from_packed))
    }

    /// Allocates `size` bytes in the pool (`pmalloc`). Requires the
    /// client-level rights a write would; like the other pool operations it
    /// does not consult the mapping's process permission.
    ///
    /// # Errors
    ///
    /// [`ServiceError::PermissionDenied`] without write rights, or a
    /// substrate error (pool full).
    pub fn alloc(&self, client: ClientId, pmo: PmoId, size: u64) -> Result<ObjectId, ServiceError> {
        self.one(|b| b.alloc(client, pmo, size))
    }

    /// Frees an object (`pfree`). Requires the client-level rights a write
    /// would.
    ///
    /// # Errors
    ///
    /// Same as [`Self::alloc`].
    pub fn free(&self, client: ClientId, oid: ObjectId) -> Result<(), ServiceError> {
        self.one(|b| b.free(client, oid))
    }
}

impl Batch<'_> {
    /// [`PmoService::create_pool`] without its end-of-operation commit.
    pub fn create_pool(
        &mut self,
        name: &str,
        size: u64,
        mode: OpenMode,
    ) -> Result<PmoId, ServiceError> {
        let svc = self.svc;
        if svc.is_down() {
            return Err(ServiceError::ShuttingDown);
        }
        svc.check_writable()?;
        let name_shard = PmoService::name_shard_of(&svc.names, name);
        let mut names = name_shard.lock().unwrap_or_else(|e| e.into_inner());
        if names.contains_key(name) {
            return Err(PmoError::NameExists(name.to_string()).into());
        }
        let raw = svc.next_id.fetch_add(1, Ordering::Relaxed);
        if raw >= u64::from(MAX_POOL_ID) {
            return Err(PmoError::PoolIdsExhausted.into());
        }
        let id = PmoId::new(raw as u16).expect("allocator stays in 1..MAX_POOL_ID");
        let pool = Pmo::new(id, name.to_string(), size, mode)?;
        names.insert(name.to_string(), id);
        drop(names);
        let slot = Arc::new(PoolSlot::new(pool));
        let mut state = svc.lock(svc.shard(id));
        state.add_pool(id, Arc::clone(&slot));
        state.log(&WalRecord::PoolCreate {
            id,
            name: name.to_string(),
            size,
            mode,
        })?;
        self.finish(state)?;
        svc.index.insert(id, slot);
        Ok(id)
    }

    /// [`PmoService::set_root`] without its end-of-operation commit.
    pub fn set_root(
        &mut self,
        client: ClientId,
        pmo: PmoId,
        key: u32,
        oid: Option<ObjectId>,
    ) -> Result<(), ServiceError> {
        let svc = self.svc;
        svc.check_writable()?;
        let mut state = svc.lock_for(client, pmo, None, AccessKind::Write)?;
        let packed = oid.map_or(0, |o| o.to_packed());
        state.log(&WalRecord::RootSet {
            pmo,
            key,
            oid: packed,
        })?;
        if packed == 0 {
            state.roots.remove(&(pmo, key));
        } else {
            state.roots.insert((pmo, key), packed);
        }
        self.finish(state)?;
        Ok(())
    }

    /// [`PmoService::alloc`] without its end-of-operation commit.
    pub fn alloc(
        &mut self,
        client: ClientId,
        pmo: PmoId,
        size: u64,
    ) -> Result<ObjectId, ServiceError> {
        let svc = self.svc;
        svc.check_writable()?;
        let mut state = svc.lock_for(client, pmo, None, AccessKind::Write)?;
        let oid = state.slot(pmo).pool_mut().pmalloc(size)?;
        svc.metrics.with_slab(|s| ThreadSlab::bump(&s.allocs));
        state.log(&WalRecord::Alloc {
            pmo,
            size,
            offset: oid.offset(),
        })?;
        self.finish(state)?;
        Ok(oid)
    }

    /// [`PmoService::free`] without its end-of-operation commit.
    pub fn free(&mut self, client: ClientId, oid: ObjectId) -> Result<(), ServiceError> {
        let svc = self.svc;
        svc.check_writable()?;
        let pmo = oid.pmo();
        let mut state = svc.lock_for(client, pmo, None, AccessKind::Write)?;
        state.slot(pmo).pool_mut().pfree(oid)?;
        state.log(&WalRecord::Free {
            pmo,
            offset: oid.offset(),
        })?;
        self.finish(state)?;
        Ok(())
    }
}
