//! The memory boundary the structures run against.
//!
//! Every structure operation is expressed over [`DsMem`]: allocate, free,
//! read, write, CAS a 64-bit word, and register a root in the typed root
//! directory — and every mutating structure operation runs those calls
//! inside one [`DsMem::unit`], its *persist unit*. Two implementations
//! exist:
//!
//! * [`ServiceMem`] — a thin view of a live [`PmoService`] on behalf of
//!   one client. Data plane ops go through the scheme's permission checks
//!   (so every push/pop really lands inside an exposure window), CAS takes
//!   the shard-locked path, and in durable mode everything is journaled:
//!   a unit's records share one [`Batch`] and one `fdatasync`, a call
//!   outside any unit is a plain service call with its own.
//! * [`LocalMem`] — a bare [`PmoRegistry`] plus a mirrored in-memory WAL,
//!   exactly the PR-3 crash-harness shape: every mutation both applies to
//!   the registry and appends the corresponding [`WalRecord`], and
//!   [`DsMem::mark`] counts records so a structure's commit CAS can be
//!   located in the log byte-for-byte. The crash-point suite enumerates
//!   damage over [`LocalMem::durable_bytes`] and replays recovery.

use std::cell::RefCell;
use std::collections::BTreeMap;

use terp_persist::{RecoveredState, WalRecord, WalWriter};
use terp_pmo::{ObjectId, OpenMode, PmoId, PmoRegistry};
use terp_service::{Batch, ClientId, PmoService};

use crate::DsError;

/// Memory operations a persistent structure needs. All methods take
/// `&self` so one memory handle can be shared by a structure and its
/// traversals; implementations provide their own interior mutability
/// (the service via its shard locks, [`LocalMem`] via a `RefCell`).
pub trait DsMem {
    /// Allocates `size` bytes in `pmo`.
    fn alloc(&self, pmo: PmoId, size: u64) -> Result<ObjectId, DsError>;
    /// Frees the allocation at `oid`.
    fn free(&self, oid: ObjectId) -> Result<(), DsError>;
    /// Reads `buf.len()` bytes at `oid`.
    fn read(&self, oid: ObjectId, buf: &mut [u8]) -> Result<(), DsError>;
    /// Writes `data` at `oid`. One call is one WAL record, so a write that
    /// must be crash-atomic (a descriptor transition) must be one call.
    fn write(&self, oid: ObjectId, data: &[u8]) -> Result<(), DsError>;
    /// Atomically compares-and-swaps the little-endian u64 at `oid`.
    /// Returns the observed prior value; `== expected` means it swapped.
    fn cas_u64(&self, oid: ObjectId, expected: u64, new: u64) -> Result<u64, DsError>;
    /// Registers (`Some`) or clears (`None`) root slot `key` of `pmo`.
    fn set_root(&self, pmo: PmoId, key: u32, oid: Option<ObjectId>) -> Result<(), DsError>;
    /// Looks up root slot `key` of `pmo`.
    fn root(&self, pmo: PmoId, key: u32) -> Result<Option<ObjectId>, DsError>;
    /// Number of WAL records mirrored so far (0 for memories that do not
    /// count). A structure samples this right after its commit CAS.
    fn mark(&self) -> u64 {
        0
    }
    /// The allocator's live blocks `(offset, size)` for `pmo`, when the
    /// memory can enumerate them — recovery's orphan sweep needs this;
    /// `None` (the service case) skips the sweep.
    fn live_blocks(&self, _pmo: PmoId) -> Option<Vec<(u64, u64)>> {
        None
    }
    /// Runs `f` as one **persist unit** against a view of this memory.
    ///
    /// * Inside the unit the view's calls are *ordered*: they reach one log
    ///   in call order and that log is prefix-durable, so a crash keeps a
    ///   prefix of the unit — never a later call without an earlier one.
    /// * The unit's return is its *persist point*: when `unit` returns
    ///   `Ok`, everything the closure wrote is on media. Nothing the
    ///   closure did may be acknowledged to anyone before that. The commit
    ///   runs when the closure fails too (what it did write is ordinary
    ///   unfinished-operation state that recovery decides); the closure's
    ///   error wins over the commit's.
    /// * Ordering is per pool. A unit that touches pools on two shard logs
    ///   gets two syncs and no atomicity across them; a structure lives in
    ///   one pool.
    /// * Other clients may read a unit's CAS before its sync, exactly as
    ///   they can read a plain call's. Their own commit then covers those
    ///   records first (same pool, same log), so nothing they acknowledge
    ///   builds on a record that is not on media.
    /// * Units nest by joining: the [`UnitView`] is itself a [`DsMem`], so a
    ///   structure operation called on it opens its unit there, runs in
    ///   the outer unit, and the outer return is the one persist point.
    ///
    /// The default runs `f` against `self` as it is — right for memories
    /// whose every call is its own persist point ([`LocalMem`], wrappers
    /// that forward call by call). [`ServiceMem`] overrides it.
    fn unit<R>(&self, f: impl FnOnce(&UnitView<'_>) -> Result<R, DsError>) -> Result<R, DsError>
    where
        Self: Sized,
    {
        f(&UnitView(self))
    }
}

/// The memory a [`DsMem::unit`] closure runs against. It forwards every
/// call to the memory behind the unit and keeps the provided `unit`, so a
/// unit opened on it runs in place — inside the unit it belongs to.
pub struct UnitView<'a>(&'a dyn DsMem);

impl DsMem for UnitView<'_> {
    fn alloc(&self, pmo: PmoId, size: u64) -> Result<ObjectId, DsError> {
        self.0.alloc(pmo, size)
    }
    fn free(&self, oid: ObjectId) -> Result<(), DsError> {
        self.0.free(oid)
    }
    fn read(&self, oid: ObjectId, buf: &mut [u8]) -> Result<(), DsError> {
        self.0.read(oid, buf)
    }
    fn write(&self, oid: ObjectId, data: &[u8]) -> Result<(), DsError> {
        self.0.write(oid, data)
    }
    fn cas_u64(&self, oid: ObjectId, expected: u64, new: u64) -> Result<u64, DsError> {
        self.0.cas_u64(oid, expected, new)
    }
    fn set_root(&self, pmo: PmoId, key: u32, oid: Option<ObjectId>) -> Result<(), DsError> {
        self.0.set_root(pmo, key, oid)
    }
    fn root(&self, pmo: PmoId, key: u32) -> Result<Option<ObjectId>, DsError> {
        self.0.root(pmo, key)
    }
    fn mark(&self) -> u64 {
        self.0.mark()
    }
    fn live_blocks(&self, pmo: PmoId) -> Option<Vec<(u64, u64)>> {
        self.0.live_blocks(pmo)
    }
}

/// Convenience: reads the little-endian u64 at `oid`.
pub fn read_u64(mem: &impl DsMem, oid: ObjectId) -> Result<u64, DsError> {
    let mut buf = [0u8; 8];
    mem.read(oid, &mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Convenience: writes the little-endian u64 at `oid`.
pub fn write_u64(mem: &impl DsMem, oid: ObjectId, v: u64) -> Result<(), DsError> {
    mem.write(oid, &v.to_le_bytes())
}

/// [`DsMem`] over a live service, on behalf of one client. The client must
/// hold an attached session with write permission on the pool for any
/// mutating call to pass the scheme's checks — which is the point: the
/// harness opens real MM/TT windows around batches of structure ops.
#[derive(Clone, Copy)]
pub struct ServiceMem<'a> {
    svc: &'a PmoService,
    client: ClientId,
}

impl<'a> ServiceMem<'a> {
    /// A view of `svc` as seen by `client`.
    pub fn new(svc: &'a PmoService, client: ClientId) -> Self {
        ServiceMem { svc, client }
    }

    /// The client this view acts as.
    pub fn client(&self) -> ClientId {
        self.client
    }
}

impl DsMem for ServiceMem<'_> {
    fn alloc(&self, pmo: PmoId, size: u64) -> Result<ObjectId, DsError> {
        Ok(self.svc.alloc(self.client, pmo, size)?)
    }

    fn free(&self, oid: ObjectId) -> Result<(), DsError> {
        Ok(self.svc.free(self.client, oid)?)
    }

    fn read(&self, oid: ObjectId, buf: &mut [u8]) -> Result<(), DsError> {
        Ok(self.svc.read_into(self.client, oid, buf)?)
    }

    fn write(&self, oid: ObjectId, data: &[u8]) -> Result<(), DsError> {
        Ok(self.svc.write(self.client, oid, data)?)
    }

    fn cas_u64(&self, oid: ObjectId, expected: u64, new: u64) -> Result<u64, DsError> {
        Ok(self.svc.cas_u64(self.client, oid, expected, new)?)
    }

    fn set_root(&self, pmo: PmoId, key: u32, oid: Option<ObjectId>) -> Result<(), DsError> {
        Ok(self.svc.set_root(self.client, pmo, key, oid)?)
    }

    fn root(&self, pmo: PmoId, key: u32) -> Result<Option<ObjectId>, DsError> {
        Ok(self.svc.root(pmo, key)?)
    }

    /// One [`Batch`] for the whole closure, committed once before the unit
    /// returns: under `visibility = durable` one `write` + one `fdatasync`
    /// for however many records the operation logged, none when it logged
    /// nothing.
    fn unit<R>(&self, f: impl FnOnce(&UnitView<'_>) -> Result<R, DsError>) -> Result<R, DsError> {
        let batched = BatchedMem {
            mem: *self,
            batch: RefCell::new(self.svc.batch()),
        };
        let out = f(&UnitView(&batched));
        let committed = batched.batch.into_inner().commit();
        let value = out?;
        committed?;
        Ok(value)
    }
}

/// The memory behind a [`ServiceMem`] unit: the same client on the same
/// service, with every mutating call going through the unit's one
/// [`Batch`]. Reads go straight to the service.
struct BatchedMem<'a> {
    mem: ServiceMem<'a>,
    batch: RefCell<Batch<'a>>,
}

impl DsMem for BatchedMem<'_> {
    fn alloc(&self, pmo: PmoId, size: u64) -> Result<ObjectId, DsError> {
        Ok(self.batch.borrow_mut().alloc(self.mem.client, pmo, size)?)
    }

    fn free(&self, oid: ObjectId) -> Result<(), DsError> {
        Ok(self.batch.borrow_mut().free(self.mem.client, oid)?)
    }

    fn read(&self, oid: ObjectId, buf: &mut [u8]) -> Result<(), DsError> {
        self.mem.read(oid, buf)
    }

    fn write(&self, oid: ObjectId, data: &[u8]) -> Result<(), DsError> {
        Ok(self.batch.borrow_mut().write(self.mem.client, oid, data)?)
    }

    fn cas_u64(&self, oid: ObjectId, expected: u64, new: u64) -> Result<u64, DsError> {
        let mut batch = self.batch.borrow_mut();
        Ok(batch.cas_u64(self.mem.client, oid, expected, new)?)
    }

    fn set_root(&self, pmo: PmoId, key: u32, oid: Option<ObjectId>) -> Result<(), DsError> {
        let mut batch = self.batch.borrow_mut();
        Ok(batch.set_root(self.mem.client, pmo, key, oid)?)
    }

    fn root(&self, pmo: PmoId, key: u32) -> Result<Option<ObjectId>, DsError> {
        self.mem.root(pmo, key)
    }
}

struct LocalInner {
    reg: PmoRegistry,
    /// Mirrored WAL; `None` for a memory rebuilt from recovered state
    /// (post-crash runs do not re-journal).
    wal: Option<WalWriter>,
    nrecords: u64,
    roots: BTreeMap<(PmoId, u32), u64>,
}

impl LocalInner {
    fn log(&mut self, record: &WalRecord) {
        if let Some(wal) = &mut self.wal {
            wal.append(record).expect("in-memory WAL append");
            self.nrecords += 1;
        }
    }
}

/// [`DsMem`] over a bare registry with a mirrored in-memory WAL — the
/// deterministic single-threaded build the crash-point enumerator damages.
/// See the module docs.
pub struct LocalMem {
    inner: RefCell<LocalInner>,
}

impl LocalMem {
    /// A fresh, empty, journaling memory.
    pub fn new() -> Self {
        LocalMem {
            inner: RefCell::new(LocalInner {
                reg: PmoRegistry::new(),
                wal: Some(WalWriter::in_memory()),
                nrecords: 0,
                roots: BTreeMap::new(),
            }),
        }
    }

    /// A non-journaling memory over state rebuilt by
    /// [`terp_persist::recover`] — what a post-crash process sees.
    pub fn from_recovered(state: RecoveredState) -> Self {
        LocalMem {
            inner: RefCell::new(LocalInner {
                reg: state.registry,
                wal: None,
                nrecords: 0,
                roots: state.roots,
            }),
        }
    }

    /// Creates a pool and journals its creation.
    pub fn create_pool(&self, name: &str, size: u64) -> Result<PmoId, DsError> {
        let mut inner = self.inner.borrow_mut();
        let id = inner.reg.create(name, size, OpenMode::ReadWrite)?;
        inner.log(&WalRecord::PoolCreate {
            id,
            name: name.to_string(),
            size,
            mode: OpenMode::ReadWrite,
        });
        Ok(id)
    }

    /// Appends a protection-state record (window bookkeeping the
    /// crash suite interleaves with data ops) without touching the
    /// registry.
    pub fn log_protection(&self, record: &WalRecord) {
        self.inner.borrow_mut().log(record);
    }

    /// The durable log image so far (what survives a crash, before the
    /// enumerator's damage).
    pub fn durable_bytes(&self) -> Vec<u8> {
        self.inner
            .borrow_mut()
            .wal
            .as_mut()
            .and_then(|w| {
                w.sync().expect("in-memory WAL sync");
                w.durable_bytes().map(<[u8]>::to_vec)
            })
            .unwrap_or_default()
    }
}

impl Default for LocalMem {
    fn default() -> Self {
        Self::new()
    }
}

impl DsMem for LocalMem {
    fn alloc(&self, pmo: PmoId, size: u64) -> Result<ObjectId, DsError> {
        let mut inner = self.inner.borrow_mut();
        let oid = inner.reg.pool_mut(pmo)?.pmalloc(size)?;
        inner.log(&WalRecord::Alloc {
            pmo,
            size,
            offset: oid.offset(),
        });
        Ok(oid)
    }

    fn free(&self, oid: ObjectId) -> Result<(), DsError> {
        let mut inner = self.inner.borrow_mut();
        inner.reg.pool_mut(oid.pmo())?.pfree(oid)?;
        inner.log(&WalRecord::Free {
            pmo: oid.pmo(),
            offset: oid.offset(),
        });
        Ok(())
    }

    fn read(&self, oid: ObjectId, buf: &mut [u8]) -> Result<(), DsError> {
        Ok(self
            .inner
            .borrow()
            .reg
            .pool(oid.pmo())?
            .read_bytes(oid.offset(), buf)?)
    }

    fn write(&self, oid: ObjectId, data: &[u8]) -> Result<(), DsError> {
        let mut inner = self.inner.borrow_mut();
        inner
            .reg
            .pool_mut(oid.pmo())?
            .write_bytes(oid.offset(), data)?;
        inner.log(&WalRecord::DataWrite {
            pmo: oid.pmo(),
            offset: oid.offset(),
            data: data.to_vec(),
        });
        Ok(())
    }

    fn cas_u64(&self, oid: ObjectId, expected: u64, new: u64) -> Result<u64, DsError> {
        let mut inner = self.inner.borrow_mut();
        let mut buf = [0u8; 8];
        inner
            .reg
            .pool(oid.pmo())?
            .read_bytes(oid.offset(), &mut buf)?;
        let observed = u64::from_le_bytes(buf);
        if observed == expected {
            inner
                .reg
                .pool_mut(oid.pmo())?
                .write_bytes(oid.offset(), &new.to_le_bytes())?;
            inner.log(&WalRecord::DataWrite {
                pmo: oid.pmo(),
                offset: oid.offset(),
                data: new.to_le_bytes().to_vec(),
            });
        }
        Ok(observed)
    }

    fn set_root(&self, pmo: PmoId, key: u32, oid: Option<ObjectId>) -> Result<(), DsError> {
        let mut inner = self.inner.borrow_mut();
        let packed = oid.map_or(0, ObjectId::to_packed);
        inner.log(&WalRecord::RootSet {
            pmo,
            key,
            oid: packed,
        });
        if packed == 0 {
            inner.roots.remove(&(pmo, key));
        } else {
            inner.roots.insert((pmo, key), packed);
        }
        Ok(())
    }

    fn root(&self, pmo: PmoId, key: u32) -> Result<Option<ObjectId>, DsError> {
        Ok(self
            .inner
            .borrow()
            .roots
            .get(&(pmo, key))
            .copied()
            .and_then(ObjectId::from_packed))
    }

    fn mark(&self) -> u64 {
        self.inner.borrow().nrecords
    }

    fn live_blocks(&self, pmo: PmoId) -> Option<Vec<(u64, u64)>> {
        let inner = self.inner.borrow();
        let pool = inner.reg.pool(pmo).ok()?;
        Some(pool.allocator().live_blocks().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terp_persist::read_log;

    #[test]
    fn local_mem_mirrors_every_mutation_to_the_wal() {
        let mem = LocalMem::new();
        let pid = mem.create_pool("m", 1 << 16).unwrap();
        let oid = mem.alloc(pid, 64).unwrap();
        write_u64(&mem, oid, 7).unwrap();
        assert_eq!(mem.cas_u64(oid, 7, 9).unwrap(), 7);
        assert_eq!(mem.cas_u64(oid, 7, 11).unwrap(), 9, "failed CAS observes");
        mem.set_root(pid, 1, Some(oid)).unwrap();
        mem.free(oid).unwrap();

        let log = read_log(&mem.durable_bytes());
        assert!(log.is_clean());
        // PoolCreate, Alloc, DataWrite, DataWrite (CAS), RootSet, Free —
        // the failed CAS journals nothing.
        assert_eq!(log.records.len(), 6);
        assert_eq!(mem.mark(), 6);
        assert!(matches!(
            log.records[4].1,
            WalRecord::RootSet { key: 1, .. }
        ));
    }

    #[test]
    fn recovered_mem_exposes_roots_without_journaling() {
        let mem = LocalMem::new();
        let pid = mem.create_pool("r", 1 << 16).unwrap();
        let oid = mem.alloc(pid, 32).unwrap();
        mem.set_root(pid, 4, Some(oid)).unwrap();
        let (state, _) = terp_persist::recover(&mem.durable_bytes()).unwrap();

        let post = LocalMem::from_recovered(state);
        assert_eq!(post.root(pid, 4).unwrap(), Some(oid));
        assert_eq!(post.mark(), 0);
        assert_eq!(post.live_blocks(pid).unwrap().len(), 1);
    }
}
