//! The process address space: attach/detach with layout randomization.
//!
//! Attaching a PMO memory-maps it into the process address space at a
//! page-aligned base chosen *uniformly at random* inside a dedicated PMO
//! region — the PMO space-layout randomization MERR introduced and TERP
//! relies on (Theorem 6: randomize before the attacker's probe time elapses
//! and probing cannot carry over between exposure windows).
//!
//! The model uses the canonical lower-half region `0x6000_0000_0000 ..
//! 0x7000_0000_0000` (16 TiB) for PMO mappings, giving ~32 bits of placement
//! entropy for 1 GiB pools. The paper's Table V uses a different, smaller
//! quantity — the 18 bits of *intra-pool page* entropy (2^18 pages in a 1 GB
//! PMO) an attacker must defeat to locate a target object; that quantity is
//! exposed as [`ProcessAddressSpace::probe_entropy_bits`].

use std::collections::BTreeMap;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::PmoError;
use crate::id::{ObjectId, PmoId};
use crate::perm::Permission;
use crate::pool::Pmo;

/// A virtual address in the modelled process address space.
pub type VirtAddr = u64;

/// Page size used for mapping granularity and entropy computations.
pub const PAGE_SIZE: u64 = crate::pagetable::PAGE_SIZE;

/// Inclusive start of the PMO mapping region.
pub const PMO_REGION_BASE: VirtAddr = 0x6000_0000_0000;
/// Exclusive end of the PMO mapping region (a 16 TiB region).
pub const PMO_REGION_END: VirtAddr = 0x7000_0000_0000;

/// The immutable handle returned by an attach (paper assumption (1) in
/// Section II: "attach() returns an immutable handler that records the
/// current virtual address of this PMO").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttachHandle {
    pmo: PmoId,
    base_va: VirtAddr,
    size: u64,
    permission: Permission,
    generation: u64,
}

impl AttachHandle {
    /// The attached pool.
    pub fn pmo(self) -> PmoId {
        self.pmo
    }

    /// Base virtual address of the mapping this handle was created under.
    pub fn base_va(self) -> VirtAddr {
        self.base_va
    }

    /// Mapped size in bytes.
    pub fn size(self) -> u64 {
        self.size
    }

    /// Process-wide permission of the mapping.
    pub fn permission(self) -> Permission {
        self.permission
    }

    /// Attach generation this handle belongs to; a randomization or
    /// re-attach bumps the pool's generation, invalidating older handles.
    pub fn generation(self) -> u64 {
        self.generation
    }

    /// Virtual address of an object under this handle's mapping.
    ///
    /// # Panics
    ///
    /// Panics if `oid` belongs to a different pool.
    pub fn va_of(self, oid: ObjectId) -> VirtAddr {
        assert_eq!(oid.pmo(), self.pmo, "object id from a different pool");
        self.base_va + oid.offset()
    }
}

#[derive(Debug, Clone, Copy)]
struct Mapping {
    pmo: PmoId,
    base: VirtAddr,
    size: u64,
    permission: Permission,
}

/// The per-process virtual address space for PMO mappings.
///
/// Tracks which PMOs are attached, where, and with what process-wide
/// permission; performs randomized placement on attach and on
/// [`Self::randomize`] (re-randomization without a detach, used by TERP's
/// partial window combining).
pub struct ProcessAddressSpace {
    /// One entry per attached pool, in address order: the range query of
    /// [`Self::resolve`] and the free-range test of placement need it.
    mappings: BTreeMap<VirtAddr, Mapping>,
    /// Each attached pool's base, indexed by [`PmoId::index`]: the lookup
    /// every attach, detach and translation makes is an index, not a tree
    /// walk. Ids are never reused, so it grows to the highest id attached.
    by_pmo: Vec<Option<VirtAddr>>,
    rng: StdRng,
    attach_count: u64,
    randomize_count: u64,
}

impl fmt::Debug for ProcessAddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcessAddressSpace")
            .field("attached", &self.attached_count())
            .field("attach_count", &self.attach_count)
            .field("randomize_count", &self.randomize_count)
            .finish()
    }
}

impl Default for ProcessAddressSpace {
    fn default() -> Self {
        Self::with_seed(0x7e2f)
    }
}

impl ProcessAddressSpace {
    /// Creates an address space with a deterministic randomization seed, so
    /// experiments are reproducible.
    pub fn with_seed(seed: u64) -> Self {
        ProcessAddressSpace {
            mappings: BTreeMap::new(),
            by_pmo: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            attach_count: 0,
            randomize_count: 0,
        }
    }

    /// Attaches (memory-maps) a pool at a randomized base address with the
    /// requested process-wide permission (Table I's `attach`).
    ///
    /// # Errors
    ///
    /// * [`PmoError::Closed`] — pool is closed.
    /// * [`PmoError::AlreadyAttached`] — the pool is already mapped; the
    ///   semantics layers decide whether that is an error (Basic) or a
    ///   lowering opportunity (EW-Conscious).
    /// * [`PmoError::ModeMismatch`] — requested permission exceeds the open
    ///   mode.
    /// * [`PmoError::AddressSpaceExhausted`] — no free slot found.
    pub fn attach(
        &mut self,
        pool: &mut Pmo,
        permission: Permission,
    ) -> Result<AttachHandle, PmoError> {
        if !pool.is_open() {
            return Err(PmoError::Closed(pool.id()));
        }
        if self.is_attached(pool.id()) {
            return Err(PmoError::AlreadyAttached(pool.id()));
        }
        if !pool.mode().permits(permission) {
            return Err(PmoError::ModeMismatch(pool.id()));
        }
        let base = self.pick_random_base(pool.size())?;
        self.mappings.insert(
            base,
            Mapping {
                pmo: pool.id(),
                base,
                size: pool.size(),
                permission,
            },
        );
        let i = pool.id().index();
        if self.by_pmo.len() <= i {
            self.by_pmo.resize(i + 1, None);
        }
        self.by_pmo[i] = Some(base);
        pool.bump_attach_generation();
        self.attach_count += 1;
        Ok(AttachHandle {
            pmo: pool.id(),
            base_va: base,
            size: pool.size(),
            permission,
            generation: pool.attach_generation(),
        })
    }

    /// Detaches (unmaps) a pool (Table I's `detach`).
    ///
    /// # Errors
    ///
    /// [`PmoError::NotAttached`] if the pool is not currently mapped.
    pub fn detach(&mut self, pool: &mut Pmo) -> Result<(), PmoError> {
        let base = self
            .take_base(pool.id())
            .ok_or(PmoError::NotAttached(pool.id()))?;
        self.mappings.remove(&base);
        Ok(())
    }

    /// Re-randomizes the mapping of an attached pool *without* detaching it:
    /// the pool moves to a fresh random base and older handles/translations
    /// become stale (generation bump).
    ///
    /// This is the operation TERP's architecture triggers when the maximum
    /// exposure window is reached while threads still hold access (Figure 6c
    /// partial combining and the circular-buffer sweep).
    ///
    /// # Errors
    ///
    /// [`PmoError::NotAttached`] if the pool is not currently mapped.
    pub fn randomize(&mut self, pool: &mut Pmo) -> Result<AttachHandle, PmoError> {
        let old_base = self
            .take_base(pool.id())
            .ok_or(PmoError::NotAttached(pool.id()))?;
        let mapping = self
            .mappings
            .remove(&old_base)
            .expect("mapping table out of sync");
        let new_base = self.pick_random_base(mapping.size)?;
        self.mappings.insert(
            new_base,
            Mapping {
                base: new_base,
                ..mapping
            },
        );
        self.by_pmo[pool.id().index()] = Some(new_base);
        pool.bump_attach_generation();
        self.randomize_count += 1;
        Ok(AttachHandle {
            pmo: pool.id(),
            base_va: new_base,
            size: mapping.size,
            permission: mapping.permission,
            generation: pool.attach_generation(),
        })
    }

    /// Whether a pool is currently attached.
    pub fn is_attached(&self, pmo: PmoId) -> bool {
        self.base(pmo).is_some()
    }

    /// The process-wide permission the pool is mapped with (`None`: not
    /// attached) — the mapping's permission-matrix entry (Fig. 1b).
    pub fn permission(&self, pmo: PmoId) -> Option<Permission> {
        Some(self.mappings[&self.base(pmo)?].permission)
    }

    /// The attached pool's base address.
    fn base(&self, pmo: PmoId) -> Option<VirtAddr> {
        self.by_pmo.get(pmo.index()).copied().flatten()
    }

    /// Forgets the attached pool's base, returning it.
    fn take_base(&mut self, pmo: PmoId) -> Option<VirtAddr> {
        self.by_pmo.get_mut(pmo.index())?.take()
    }

    /// Translates an ObjectID to its current virtual address (Table I's
    /// `oid_direct`).
    ///
    /// # Errors
    ///
    /// [`PmoError::NotAttached`] if the object's pool is not mapped,
    /// [`PmoError::OutOfBounds`] if the offset exceeds the mapping.
    pub fn oid_direct(&self, oid: ObjectId) -> Result<VirtAddr, PmoError> {
        let base = self
            .base(oid.pmo())
            .ok_or(PmoError::NotAttached(oid.pmo()))?;
        let mapping = &self.mappings[&base];
        if oid.offset() >= mapping.size {
            return Err(PmoError::OutOfBounds {
                pmo: oid.pmo(),
                offset: oid.offset(),
            });
        }
        Ok(base + oid.offset())
    }

    /// Reverse translation: which attached pool (and intra-pool offset) does
    /// a virtual address fall in?
    ///
    /// # Errors
    ///
    /// [`PmoError::UnmappedAddress`] if no mapping covers `va` — the model of
    /// a segmentation fault on access to a detached PMO.
    pub fn resolve(&self, va: VirtAddr) -> Result<ObjectId, PmoError> {
        let (_, mapping) = self
            .mappings
            .range(..=va)
            .next_back()
            .ok_or(PmoError::UnmappedAddress(va))?;
        if va < mapping.base + mapping.size {
            Ok(ObjectId::new(mapping.pmo, va - mapping.base))
        } else {
            Err(PmoError::UnmappedAddress(va))
        }
    }

    /// Number of attached pools.
    pub fn attached_count(&self) -> usize {
        self.mappings.len()
    }

    /// Total in-place randomizations performed.
    pub fn randomize_total(&self) -> u64 {
        self.randomize_count
    }

    /// Bits of placement entropy available to a pool of `size` bytes in the
    /// PMO region: log2(number of page-aligned, non-wrapping slots).
    ///
    /// ```
    /// use terp_pmo::ProcessAddressSpace;
    /// // 1 GiB pool in the 16 TiB region → about 2^32 slots → ~32 bits.
    /// let bits = ProcessAddressSpace::placement_entropy_bits(1 << 30);
    /// assert!((bits - 32.0).abs() < 0.01);
    /// ```
    pub fn placement_entropy_bits(size: u64) -> f64 {
        let region = PMO_REGION_END - PMO_REGION_BASE;
        if size == 0 || size > region {
            return 0.0;
        }
        let slots = (region - size) / PAGE_SIZE + 1;
        (slots as f64).log2()
    }

    /// Bits of entropy an attacker must overcome to locate a *target page
    /// inside* a pool of `size` bytes: log2(pages in the pool).
    ///
    /// This is the quantity the paper's Table V analysis uses ("18-bit
    /// (1 GB PMO) entropy"): having guessed or leaked nothing, the attacker
    /// must distinguish among `size / PAGE_SIZE` candidate page positions.
    ///
    /// ```
    /// use terp_pmo::ProcessAddressSpace;
    /// let bits = ProcessAddressSpace::probe_entropy_bits(1 << 30);
    /// assert!((bits - 18.0).abs() < 1e-9);
    /// ```
    pub fn probe_entropy_bits(size: u64) -> f64 {
        if size < PAGE_SIZE {
            return 0.0;
        }
        ((size / PAGE_SIZE) as f64).log2()
    }

    fn pick_random_base(&mut self, size: u64) -> Result<VirtAddr, PmoError> {
        let region = PMO_REGION_END - PMO_REGION_BASE;
        if size == 0 || size > region {
            return Err(PmoError::AddressSpaceExhausted);
        }
        let slots = (region - size) / PAGE_SIZE + 1;
        // Rejection-sample a non-overlapping randomized slot; fall back to a
        // linear scan if the space is badly fragmented.
        for _ in 0..64 {
            let slot = self.rng.gen_range(0..slots);
            let base = PMO_REGION_BASE + slot * PAGE_SIZE;
            if self.range_free(base, size) {
                return Ok(base);
            }
        }
        let mut base = PMO_REGION_BASE;
        while base + size <= PMO_REGION_END {
            if self.range_free(base, size) {
                return Ok(base);
            }
            base += PAGE_SIZE;
        }
        Err(PmoError::AddressSpaceExhausted)
    }

    fn range_free(&self, base: VirtAddr, size: u64) -> bool {
        // A conflicting mapping either starts inside [base, base+size) or
        // starts before base and extends into it.
        if self.mappings.range(base..base + size).next().is_some() {
            return false;
        }
        self.mappings
            .range(..base)
            .next_back()
            .is_none_or(|(_, m)| m.base + m.size <= base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::OpenMode;
    use crate::registry::PmoRegistry;

    fn setup(n: usize, size: u64) -> (PmoRegistry, Vec<PmoId>, ProcessAddressSpace) {
        let mut reg = PmoRegistry::new();
        let ids = (0..n)
            .map(|i| {
                reg.create(&format!("p{i}"), size, OpenMode::ReadWrite)
                    .unwrap()
            })
            .collect();
        (reg, ids, ProcessAddressSpace::with_seed(42))
    }

    #[test]
    fn attach_maps_at_page_aligned_base_in_region() {
        let (mut reg, ids, mut space) = setup(1, 1 << 20);
        let h = space
            .attach(reg.pool_mut(ids[0]).unwrap(), Permission::Read)
            .unwrap();
        assert_eq!(h.base_va() % PAGE_SIZE, 0);
        assert!(h.base_va() >= PMO_REGION_BASE);
        assert!(h.base_va() + h.size() <= PMO_REGION_END);
    }

    #[test]
    fn double_attach_is_rejected_at_this_layer() {
        let (mut reg, ids, mut space) = setup(1, 1 << 20);
        space
            .attach(reg.pool_mut(ids[0]).unwrap(), Permission::Read)
            .unwrap();
        assert_eq!(
            space
                .attach(reg.pool_mut(ids[0]).unwrap(), Permission::Read)
                .unwrap_err(),
            PmoError::AlreadyAttached(ids[0])
        );
    }

    #[test]
    fn detach_unmaps_and_oid_direct_faults() {
        let (mut reg, ids, mut space) = setup(1, 1 << 20);
        let oid = reg.pool_mut(ids[0]).unwrap().pmalloc(64).unwrap();
        space
            .attach(reg.pool_mut(ids[0]).unwrap(), Permission::ReadWrite)
            .unwrap();
        assert!(space.oid_direct(oid).is_ok());
        space.detach(reg.pool_mut(ids[0]).unwrap()).unwrap();
        assert_eq!(
            space.oid_direct(oid).unwrap_err(),
            PmoError::NotAttached(ids[0])
        );
        assert_eq!(
            space.detach(reg.pool_mut(ids[0]).unwrap()).unwrap_err(),
            PmoError::NotAttached(ids[0])
        );
    }

    #[test]
    fn reattach_lands_at_a_new_random_base() {
        let (mut reg, ids, mut space) = setup(1, 1 << 20);
        let h1 = space
            .attach(reg.pool_mut(ids[0]).unwrap(), Permission::Read)
            .unwrap();
        space.detach(reg.pool_mut(ids[0]).unwrap()).unwrap();
        let h2 = space
            .attach(reg.pool_mut(ids[0]).unwrap(), Permission::Read)
            .unwrap();
        // With 28 bits of slot entropy a collision is vanishingly unlikely.
        assert_ne!(h1.base_va(), h2.base_va());
        assert!(h2.generation() > h1.generation());
    }

    #[test]
    fn randomize_moves_mapping_without_detach() {
        let (mut reg, ids, mut space) = setup(1, 1 << 20);
        let oid = reg.pool_mut(ids[0]).unwrap().pmalloc(64).unwrap();
        let h1 = space
            .attach(reg.pool_mut(ids[0]).unwrap(), Permission::ReadWrite)
            .unwrap();
        let va1 = space.oid_direct(oid).unwrap();
        let h2 = space.randomize(reg.pool_mut(ids[0]).unwrap()).unwrap();
        let va2 = space.oid_direct(oid).unwrap();
        assert!(space.is_attached(ids[0]));
        assert_ne!(va1, va2);
        assert_ne!(h1.base_va(), h2.base_va());
        assert_eq!(h2.permission(), Permission::ReadWrite);
        assert_eq!(space.randomize_total(), 1);
        // The offset relationship is preserved under relocation.
        assert_eq!(va2 - h2.base_va(), oid.offset());
    }

    #[test]
    fn mappings_never_overlap() {
        let (mut reg, ids, mut space) = setup(64, 1 << 24);
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for &id in &ids {
            let h = space
                .attach(reg.pool_mut(id).unwrap(), Permission::Read)
                .unwrap();
            for &(b, s) in &ranges {
                assert!(h.base_va() + h.size() <= b || b + s <= h.base_va());
            }
            ranges.push((h.base_va(), h.size()));
        }
    }

    #[test]
    fn resolve_is_inverse_of_oid_direct() {
        let (mut reg, ids, mut space) = setup(3, 1 << 20);
        for &id in &ids {
            space
                .attach(reg.pool_mut(id).unwrap(), Permission::ReadWrite)
                .unwrap();
        }
        let oid = ObjectId::new(ids[1], 0x1234);
        let va = space.oid_direct(oid).unwrap();
        assert_eq!(space.resolve(va).unwrap(), oid);
        // An address outside every mapping is a fault.
        assert!(space.resolve(PMO_REGION_END + 1).is_err());
    }

    #[test]
    fn mode_caps_attach_permission() {
        let mut reg = PmoRegistry::new();
        let id = reg.create("ro", 1 << 20, OpenMode::ReadOnly).unwrap();
        let mut space = ProcessAddressSpace::with_seed(1);
        assert_eq!(
            space
                .attach(reg.pool_mut(id).unwrap(), Permission::ReadWrite)
                .unwrap_err(),
            PmoError::ModeMismatch(id)
        );
        assert!(space
            .attach(reg.pool_mut(id).unwrap(), Permission::Read)
            .is_ok());
    }

    #[test]
    fn probe_entropy_matches_paper_for_1gib_pool() {
        // Table V assumes 18-bit entropy for a 1 GB PMO: 2^18 pages.
        let bits = ProcessAddressSpace::probe_entropy_bits(1 << 30);
        assert!((bits - 18.0).abs() < 1e-9, "got {bits}");
        // Placement entropy in the 16 TiB region is much larger.
        assert!(ProcessAddressSpace::placement_entropy_bits(1 << 30) > 31.0);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let (mut reg_a, ids_a, mut sa) = setup(4, 1 << 20);
        let (mut reg_b, ids_b, mut sb) = setup(4, 1 << 20);
        for (&a, &b) in ids_a.iter().zip(&ids_b) {
            let ha = sa
                .attach(reg_a.pool_mut(a).unwrap(), Permission::Read)
                .unwrap();
            let hb = sb
                .attach(reg_b.pool_mut(b).unwrap(), Permission::Read)
                .unwrap();
            assert_eq!(ha.base_va(), hb.base_va());
        }
    }
}
