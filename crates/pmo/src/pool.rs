//! The pool type: persistent byte storage plus embedded metadata.
//!
//! A [`Pmo`] is a named container for one pointer-rich data structure
//! (Section II of the paper). It owns:
//!
//! * a sparse page store standing in for the NVM data area (pages materialize
//!   on first touch so gigabyte pools are cheap to model),
//! * a [`PoolAllocator`] implementing `pmalloc`/`pfree`,
//! * bookkeeping used by upper layers: attach generation (bumped at every
//!   real attach or randomization) and open/closed state.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::alloc::PoolAllocator;
use crate::error::PmoError;
use crate::id::{ObjectId, PmoId};
use crate::perm::OpenMode;
use crate::space::PAGE_SIZE;

/// A persistent memory object: a named pool of byte-addressable persistent
/// storage.
///
/// Pools are created through [`crate::PmoRegistry::create`] and survive
/// close/reopen (the registry keeps them, modelling persistence across
/// process runs).
///
/// ```
/// use terp_pmo::{PmoRegistry, OpenMode};
/// # fn main() -> Result<(), terp_pmo::PmoError> {
/// let mut reg = PmoRegistry::new();
/// let id = reg.create("tree", 1 << 16, OpenMode::ReadWrite)?;
/// let pool = reg.pool_mut(id)?;
/// let node = pool.pmalloc(48)?;
/// pool.write_bytes(node.offset(), b"persistent")?;
/// let mut buf = [0u8; 10];
/// pool.read_bytes(node.offset(), &mut buf)?;
/// assert_eq!(&buf, b"persistent");
/// # Ok(())
/// # }
/// ```
pub struct Pmo {
    id: PmoId,
    name: String,
    size: u64,
    mode: OpenMode,
    open: bool,
    allocator: PoolAllocator,
    /// Sparse data pages, index → 4 KiB page. Materialized on first write.
    pages: BTreeMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
    /// Pages written since the last checkpoint ([`Self::clear_dirty`]) —
    /// the incremental-checkpoint hook of `terp-persist`. Tracking is
    /// conservative: a page is dirty if it *may* differ from its last
    /// checkpointed image.
    dirty_pages: BTreeSet<u64>,
    /// Whether the allocator state changed since the last checkpoint.
    alloc_dirty: bool,
    /// Monotonic count of real attaches/randomizations; lets cached
    /// translations detect staleness.
    attach_generation: u64,
}

impl fmt::Debug for Pmo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pmo")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("size", &self.size)
            .field("mode", &self.mode)
            .field("open", &self.open)
            .field("live_objects", &self.allocator.live_count())
            .field("resident_pages", &self.pages.len())
            .field("attach_generation", &self.attach_generation)
            .finish()
    }
}

impl Pmo {
    /// Creates a pool with a caller-assigned id. Callers own id/name
    /// uniqueness: [`crate::PmoRegistry::create`] provides both for
    /// single-allocator setups, while the service layer brings its own
    /// sharded name maps and atomic id allocator.
    pub fn new(id: PmoId, name: String, size: u64, mode: OpenMode) -> Result<Self, PmoError> {
        if size == 0 || size >= crate::id::MAX_OFFSET {
            return Err(PmoError::InvalidSize(size));
        }
        Ok(Pmo {
            id,
            name,
            size,
            mode,
            open: true,
            allocator: PoolAllocator::new(size),
            pages: BTreeMap::new(),
            dirty_pages: BTreeSet::new(),
            // A fresh pool has never been checkpointed: its (empty)
            // allocator state is itself un-checkpointed information.
            alloc_dirty: true,
            attach_generation: 0,
        })
    }

    /// The pool's id.
    pub fn id(&self) -> PmoId {
        self.id
    }

    /// The pool's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Data-area size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The open mode this pool was created/opened with.
    pub fn mode(&self) -> OpenMode {
        self.mode
    }

    /// Whether the pool is currently open (usable).
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// The pool's allocator state (read-only view, e.g. for live-object
    /// statistics).
    pub fn allocator(&self) -> &PoolAllocator {
        &self.allocator
    }

    /// Generation counter incremented at each real attach and each
    /// randomization; stale virtual-address caches compare against it.
    pub fn attach_generation(&self) -> u64 {
        self.attach_generation
    }

    pub(crate) fn bump_attach_generation(&mut self) {
        self.attach_generation += 1;
    }

    pub(crate) fn set_open(&mut self, open: bool, mode: OpenMode) {
        self.open = open;
        self.mode = mode;
    }

    /// Allocates `size` bytes of persistent data in this pool and returns the
    /// ObjectID of the first byte (Table I's `pmalloc`).
    ///
    /// # Errors
    ///
    /// [`PmoError::Closed`] if the pool is closed; [`PmoError::InvalidSize`]
    /// for zero-size requests; [`PmoError::OutOfMemory`] if no free block
    /// fits.
    pub fn pmalloc(&mut self, size: u64) -> Result<ObjectId, PmoError> {
        self.ensure_open()?;
        if size == 0 {
            return Err(PmoError::InvalidSize(0));
        }
        let offset = self.allocator.alloc(size).ok_or(PmoError::OutOfMemory {
            pmo: self.id,
            requested: size,
        })?;
        self.alloc_dirty = true;
        Ok(ObjectId::new(self.id, offset))
    }

    /// Frees persistent data previously returned by [`Self::pmalloc`]
    /// (Table I's `pfree`).
    ///
    /// # Errors
    ///
    /// [`PmoError::InvalidFree`] for double frees, interior pointers, or ids
    /// from another pool; [`PmoError::Closed`] if the pool is closed.
    pub fn pfree(&mut self, oid: ObjectId) -> Result<(), PmoError> {
        self.ensure_open()?;
        if oid.pmo() != self.id {
            return Err(PmoError::InvalidFree(oid));
        }
        self.allocator
            .free(oid.offset())
            .map(|_| self.alloc_dirty = true)
            .map_err(|_| PmoError::InvalidFree(oid))
    }

    /// Reads bytes at `offset` into `buf`.
    ///
    /// Untouched (never-written) bytes read as zero, matching fresh PM pages.
    ///
    /// # Errors
    ///
    /// [`PmoError::OutOfBounds`] if the range exceeds the data area.
    pub fn read_bytes(&self, offset: u64, buf: &mut [u8]) -> Result<(), PmoError> {
        self.check_range(offset, buf.len() as u64)?;
        let mut pos = 0usize;
        while pos < buf.len() {
            let addr = offset + pos as u64;
            let page_idx = addr / PAGE_SIZE;
            let in_page = (addr % PAGE_SIZE) as usize;
            let chunk = (PAGE_SIZE as usize - in_page).min(buf.len() - pos);
            match self.pages.get(&page_idx) {
                Some(page) => {
                    buf[pos..pos + chunk].copy_from_slice(&page[in_page..in_page + chunk])
                }
                None => buf[pos..pos + chunk].fill(0),
            }
            pos += chunk;
        }
        Ok(())
    }

    /// Writes `data` at `offset`, materializing pages on first touch.
    ///
    /// # Errors
    ///
    /// [`PmoError::OutOfBounds`] if the range exceeds the data area.
    pub fn write_bytes(&mut self, offset: u64, data: &[u8]) -> Result<(), PmoError> {
        self.check_range(offset, data.len() as u64)?;
        let mut pos = 0usize;
        while pos < data.len() {
            let addr = offset + pos as u64;
            let page_idx = addr / PAGE_SIZE;
            let in_page = (addr % PAGE_SIZE) as usize;
            let chunk = (PAGE_SIZE as usize - in_page).min(data.len() - pos);
            let page = self
                .pages
                .entry(page_idx)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]));
            page[in_page..in_page + chunk].copy_from_slice(&data[pos..pos + chunk]);
            self.dirty_pages.insert(page_idx);
            pos += chunk;
        }
        Ok(())
    }

    /// Number of data pages actually resident (materialized by writes).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Exports every resident data page as `(page index, bytes)` in address
    /// order — the snapshot hook used by `terp-persist` so external layers
    /// never reach into the sparse page store directly.
    pub fn export_pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.pages.iter().map(|(&idx, page)| (idx, &page[..]))
    }

    /// Restores the allocator from an exported live-block list (see
    /// [`PoolAllocator::restore`]); the snapshot-install hook of
    /// `terp-persist`.
    ///
    /// # Errors
    ///
    /// [`PmoError::InvalidSize`] if the block list is inconsistent with the
    /// pool's data area.
    pub fn restore_allocator(&mut self, live: &[(u64, u64)]) -> Result<(), PmoError> {
        self.allocator =
            PoolAllocator::restore(self.size, live).ok_or(PmoError::InvalidSize(self.size))?;
        self.alloc_dirty = true;
        Ok(())
    }

    /// Exports the resident pages written since the last
    /// [`Self::clear_dirty`], as `(page index, bytes)` in address order —
    /// the incremental-checkpoint hook: only these pages need
    /// re-snapshotting.
    pub fn export_dirty_pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.dirty_pages
            .iter()
            .filter_map(|&idx| self.pages.get(&idx).map(|page| (idx, &page[..])))
    }

    /// Number of pages currently marked dirty.
    pub fn dirty_page_count(&self) -> usize {
        self.dirty_pages.len()
    }

    /// Whether the pool carries any un-checkpointed state (dirty pages or
    /// allocator changes). A clean pool can be skipped by an incremental
    /// checkpoint entirely.
    pub fn is_checkpoint_dirty(&self) -> bool {
        self.alloc_dirty || !self.dirty_pages.is_empty()
    }

    /// Marks every page and the allocator clean — called by the persist
    /// layer once a checkpoint durably captured the pool's current state.
    pub fn clear_dirty(&mut self) {
        self.dirty_pages.clear();
        self.alloc_dirty = false;
    }

    /// Reseals the pool after crash recovery: any pre-crash knowledge of the
    /// pool's mapped location is invalidated by bumping the attach
    /// generation, so the next attach randomizes afresh instead of resuming
    /// the pre-crash placement. Protection state that survives a crash must
    /// be re-sealed, not resumed — the TERP recovery invariant.
    pub fn reseal(&mut self) {
        self.attach_generation += 1;
    }

    fn ensure_open(&self) -> Result<(), PmoError> {
        if self.open {
            Ok(())
        } else {
            Err(PmoError::Closed(self.id))
        }
    }

    fn check_range(&self, offset: u64, len: u64) -> Result<(), PmoError> {
        if offset.checked_add(len).is_none_or(|end| end > self.size) {
            Err(PmoError::OutOfBounds {
                pmo: self.id,
                offset,
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Pmo {
        Pmo::new(
            PmoId::new(1).unwrap(),
            "t".into(),
            1 << 20,
            OpenMode::ReadWrite,
        )
        .unwrap()
    }

    #[test]
    fn rejects_bad_sizes() {
        assert_eq!(
            Pmo::new(PmoId::new(1).unwrap(), "t".into(), 0, OpenMode::ReadWrite).unwrap_err(),
            PmoError::InvalidSize(0)
        );
    }

    #[test]
    fn pmalloc_pfree_round_trip() {
        let mut p = pool();
        let oid = p.pmalloc(100).unwrap();
        assert_eq!(oid.pmo(), p.id());
        p.pfree(oid).unwrap();
        assert_eq!(p.pfree(oid).unwrap_err(), PmoError::InvalidFree(oid));
    }

    #[test]
    fn pfree_rejects_foreign_pool_oid() {
        let mut p = pool();
        let foreign = ObjectId::new(PmoId::new(2).unwrap(), 0);
        assert_eq!(
            p.pfree(foreign).unwrap_err(),
            PmoError::InvalidFree(foreign)
        );
    }

    #[test]
    fn unwritten_bytes_read_zero() {
        let p = pool();
        let mut buf = [0xFFu8; 32];
        p.read_bytes(4096, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(p.resident_pages(), 0);
    }

    #[test]
    fn write_read_spanning_pages() {
        let mut p = pool();
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        p.write_bytes(PAGE_SIZE - 100, &data).unwrap();
        assert!(p.resident_pages() >= 2);
        let mut back = vec![0u8; data.len()];
        p.read_bytes(PAGE_SIZE - 100, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut p = pool();
        let size = p.size();
        assert!(matches!(
            p.write_bytes(size - 1, &[1, 2]),
            Err(PmoError::OutOfBounds { .. })
        ));
        let mut buf = [0u8; 2];
        assert!(matches!(
            p.read_bytes(size, &mut buf),
            Err(PmoError::OutOfBounds { .. })
        ));
        // Overflowing offset must not wrap.
        assert!(matches!(
            p.read_bytes(u64::MAX - 1, &mut buf),
            Err(PmoError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn closed_pool_rejects_allocation() {
        let mut p = pool();
        p.set_open(false, OpenMode::ReadWrite);
        assert_eq!(p.pmalloc(16).unwrap_err(), PmoError::Closed(p.id()));
    }

    #[test]
    fn attach_generation_increments() {
        let mut p = pool();
        let g0 = p.attach_generation();
        p.bump_attach_generation();
        assert_eq!(p.attach_generation(), g0 + 1);
    }

    #[test]
    fn dirty_tracking_follows_writes_and_clears() {
        let mut p = pool();
        assert!(p.is_checkpoint_dirty(), "fresh pool is un-checkpointed");
        p.clear_dirty();
        assert!(!p.is_checkpoint_dirty());
        assert_eq!(p.dirty_page_count(), 0);

        // A write spanning two pages dirties both.
        p.write_bytes(PAGE_SIZE - 8, &[1u8; 16]).unwrap();
        assert_eq!(p.dirty_page_count(), 2);
        let dirty: Vec<u64> = p.export_dirty_pages().map(|(i, _)| i).collect();
        assert_eq!(dirty, vec![0, 1]);

        // Allocator changes dirty the pool without touching pages.
        p.clear_dirty();
        let oid = p.pmalloc(64).unwrap();
        assert!(p.is_checkpoint_dirty());
        assert_eq!(p.dirty_page_count(), 0);
        p.clear_dirty();
        p.pfree(oid).unwrap();
        assert!(p.is_checkpoint_dirty());

        // Rewriting an already-dirty page does not double-count.
        p.clear_dirty();
        p.write_bytes(0, b"a").unwrap();
        p.write_bytes(1, b"b").unwrap();
        assert_eq!(p.dirty_page_count(), 1);
    }
}
