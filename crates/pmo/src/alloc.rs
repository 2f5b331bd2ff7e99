//! First-fit free-list allocator backing `pmalloc`/`pfree`.
//!
//! The allocator manages the data area of a single pool. Allocation metadata
//! is kept *outside* the pool bytes (in ordinary maps), which keeps the model
//! simple while preserving the two properties the evaluation relies on:
//! object lifetimes (allocation → last write → free, used by the Figure 8
//! dead-time study) and stable intra-pool offsets (relocatable ObjectIDs).
//!
//! Invariants maintained (and property-tested in this module):
//! * live allocations never overlap,
//! * free blocks are disjoint, sorted, and coalesced (no two adjacent),
//! * `bytes_free + bytes_live == capacity` at all times.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Minimum allocation granule, in bytes. Requests are rounded up to this, so
/// every block offset and size is granule-aligned.
pub const ALLOC_GRANULE: u64 = 16;

/// A first-fit free-list allocator over a fixed-size byte range `[0, capacity)`.
///
/// ```
/// use terp_pmo::alloc::PoolAllocator;
/// let mut a = PoolAllocator::new(1024);
/// let x = a.alloc(100).unwrap();
/// let y = a.alloc(100).unwrap();
/// assert_ne!(x, y);
/// a.free(x).unwrap();
/// assert!(a.free(x).is_err()); // double free detected
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoolAllocator {
    capacity: u64,
    /// Free blocks: offset → length. Disjoint, coalesced.
    free: BTreeMap<u64, u64>,
    /// Live allocations: offset → length.
    live: BTreeMap<u64, u64>,
    bytes_live: u64,
}

/// Error from [`PoolAllocator::free`]: the offset is not the start of a live
/// allocation (double free or wild free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidFree(pub u64);

impl std::fmt::Display for InvalidFree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "offset {:#x} is not a live allocation", self.0)
    }
}

impl std::error::Error for InvalidFree {}

impl PoolAllocator {
    /// Creates an allocator managing `capacity` bytes. Capacity is rounded
    /// down to the allocation granule.
    pub fn new(capacity: u64) -> Self {
        let capacity = capacity - capacity % ALLOC_GRANULE;
        let mut free = BTreeMap::new();
        if capacity > 0 {
            free.insert(0, capacity);
        }
        PoolAllocator {
            capacity,
            free,
            live: BTreeMap::new(),
            bytes_live: 0,
        }
    }

    /// Total managed capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn bytes_live(&self) -> u64 {
        self.bytes_live
    }

    /// Bytes currently free.
    pub fn bytes_free(&self) -> u64 {
        self.capacity - self.bytes_live
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Allocates `size` bytes (rounded up to the granule), returning the
    /// offset of the first byte, or `None` if no free block can satisfy the
    /// request (first-fit; the allocator does not compact).
    pub fn alloc(&mut self, size: u64) -> Option<u64> {
        if size == 0 {
            return None;
        }
        let size = size.div_ceil(ALLOC_GRANULE) * ALLOC_GRANULE;
        let (&offset, &len) = self.free.iter().find(|&(_, &len)| len >= size)?;
        self.free.remove(&offset);
        if len > size {
            self.free.insert(offset + size, len - size);
        }
        self.live.insert(offset, size);
        self.bytes_live += size;
        Some(offset)
    }

    /// Frees the allocation starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidFree`] if `offset` is not the start of a live
    /// allocation (catching double frees and wild frees).
    pub fn free(&mut self, offset: u64) -> Result<u64, InvalidFree> {
        let size = self.live.remove(&offset).ok_or(InvalidFree(offset))?;
        self.bytes_live -= size;
        self.insert_free_coalescing(offset, size);
        Ok(size)
    }

    /// Size of the live allocation starting at `offset`, if any.
    pub fn live_size(&self, offset: u64) -> Option<u64> {
        self.live.get(&offset).copied()
    }

    /// Whether `offset` falls inside any live allocation (not necessarily at
    /// its start).
    pub fn is_live_address(&self, offset: u64) -> bool {
        self.live
            .range(..=offset)
            .next_back()
            .is_some_and(|(&start, &len)| offset < start + len)
    }

    /// Iterates over `(offset, len)` of live allocations in address order.
    pub fn live_blocks(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.live.iter().map(|(&o, &l)| (o, l))
    }

    /// Rebuilds an allocator from an exported live-block list (the snapshot
    /// restore path of `terp-persist`): every listed block becomes live and
    /// the complement becomes the coalesced free list.
    ///
    /// Returns `None` if the list is invalid: unsorted, overlapping,
    /// zero-length, granule-misaligned, or out of capacity.
    pub fn restore(capacity: u64, live: &[(u64, u64)]) -> Option<Self> {
        let capacity = capacity - capacity % ALLOC_GRANULE;
        // One validating pass that also lists the gaps; both lists come out
        // in address order, so each map is built in one bulk load instead
        // of one tree insert per block.
        let mut free = Vec::new();
        let mut bytes_live = 0u64;
        let mut cursor = 0u64;
        for &(off, len) in live {
            let aligned =
                len > 0 && off % ALLOC_GRANULE == 0 && len % ALLOC_GRANULE == 0 && off >= cursor;
            if !aligned || off.checked_add(len).is_none_or(|end| end > capacity) {
                return None;
            }
            if off > cursor {
                free.push((cursor, off - cursor));
            }
            bytes_live += len;
            cursor = off + len;
        }
        if cursor < capacity {
            free.push((cursor, capacity - cursor));
        }
        let a = PoolAllocator {
            capacity,
            free: free.into_iter().collect(),
            live: live.iter().copied().collect(),
            bytes_live,
        };
        debug_assert!(a.check_invariants().is_ok());
        Some(a)
    }

    fn insert_free_coalescing(&mut self, mut offset: u64, mut len: u64) {
        // Merge with predecessor if adjacent.
        if let Some((&prev_off, &prev_len)) = self.free.range(..offset).next_back() {
            debug_assert!(prev_off + prev_len <= offset, "free list overlap");
            if prev_off + prev_len == offset {
                self.free.remove(&prev_off);
                offset = prev_off;
                len += prev_len;
            }
        }
        // Merge with successor if adjacent.
        if let Some((&next_off, &next_len)) = self.free.range(offset + len..).next() {
            if offset + len == next_off {
                self.free.remove(&next_off);
                len += next_len;
            }
        }
        self.free.insert(offset, len);
    }

    /// Verifies internal invariants; used by tests and `debug_assert!` hooks.
    ///
    /// Checks block disjointness, coalescing, and byte accounting. Returns a
    /// description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut cursor = 0u64;
        let mut free_total = 0u64;
        let mut prev_free_end: Option<u64> = None;
        for (&off, &len) in &self.free {
            if len == 0 {
                return Err(format!("zero-length free block at {off:#x}"));
            }
            if off < cursor {
                return Err(format!("free block at {off:#x} overlaps previous block"));
            }
            if prev_free_end == Some(off) {
                return Err(format!("uncoalesced free blocks meeting at {off:#x}"));
            }
            prev_free_end = Some(off + len);
            cursor = off + len;
            free_total += len;
        }
        let mut live_total = 0u64;
        let mut last_end = 0u64;
        for (&off, &len) in &self.live {
            if off < last_end {
                return Err(format!("live block at {off:#x} overlaps previous"));
            }
            last_end = off + len;
            live_total += len;
        }
        if last_end > self.capacity {
            return Err("live block beyond capacity".into());
        }
        if live_total != self.bytes_live {
            return Err("bytes_live accounting mismatch".into());
        }
        if free_total + live_total != self.capacity {
            return Err(format!(
                "free ({free_total}) + live ({live_total}) != capacity ({})",
                self.capacity
            ));
        }
        // Free and live must not overlap.
        for (&off, &len) in &self.free {
            if self
                .live
                .range(..off + len)
                .next_back()
                .is_some_and(|(&lo, &ll)| lo + ll > off)
            {
                return Err(format!("free block at {off:#x} overlaps a live block"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_rounds_to_granule() {
        let mut a = PoolAllocator::new(1024);
        let off = a.alloc(1).unwrap();
        assert_eq!(off % ALLOC_GRANULE, 0);
        assert_eq!(a.live_size(off), Some(ALLOC_GRANULE));
    }

    #[test]
    fn zero_size_alloc_fails() {
        let mut a = PoolAllocator::new(1024);
        assert_eq!(a.alloc(0), None);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = PoolAllocator::new(64);
        assert!(a.alloc(64).is_some());
        assert_eq!(a.alloc(16), None);
    }

    #[test]
    fn free_coalesces_neighbours() {
        let mut a = PoolAllocator::new(256);
        let x = a.alloc(64).unwrap();
        let y = a.alloc(64).unwrap();
        let z = a.alloc(64).unwrap();
        a.free(y).unwrap();
        a.free(x).unwrap();
        a.free(z).unwrap();
        a.check_invariants().unwrap();
        // Everything coalesced back into a single block covering the pool.
        assert_eq!(a.bytes_free(), 256);
        let w = a.alloc(256).unwrap();
        assert_eq!(w, 0);
    }

    #[test]
    fn double_free_is_detected() {
        let mut a = PoolAllocator::new(256);
        let x = a.alloc(32).unwrap();
        a.free(x).unwrap();
        assert_eq!(a.free(x), Err(InvalidFree(x)));
    }

    #[test]
    fn wild_free_is_detected() {
        let mut a = PoolAllocator::new(256);
        let x = a.alloc(64).unwrap();
        // Interior pointer is not a valid free target.
        assert_eq!(a.free(x + 16), Err(InvalidFree(x + 16)));
    }

    #[test]
    fn is_live_address_covers_interior() {
        let mut a = PoolAllocator::new(256);
        let x = a.alloc(64).unwrap();
        assert!(a.is_live_address(x));
        assert!(a.is_live_address(x + 63));
        assert!(!a.is_live_address(x + 64));
    }

    #[test]
    fn restore_round_trips_exported_state() {
        let mut a = PoolAllocator::new(4096);
        let x = a.alloc(100).unwrap();
        let y = a.alloc(50).unwrap();
        let _z = a.alloc(200).unwrap();
        a.free(y).unwrap();
        let live: Vec<(u64, u64)> = a.live_blocks().collect();
        let b = PoolAllocator::restore(a.capacity(), &live).unwrap();
        assert_eq!(b.bytes_live(), a.bytes_live());
        assert_eq!(b.bytes_free(), a.bytes_free());
        assert!(b.check_invariants().is_ok());
        assert!(b.is_live_address(x));
        assert!(!b.is_live_address(y));
        // The restored allocator behaves like the original: the hole where
        // `y` lived is reusable.
        let mut b = b;
        assert_eq!(b.alloc(32), Some(y));
    }

    #[test]
    fn restore_rejects_invalid_block_lists() {
        assert!(PoolAllocator::restore(1024, &[(0, 32), (16, 32)]).is_none());
        assert!(PoolAllocator::restore(1024, &[(32, 32), (0, 16)]).is_none());
        assert!(PoolAllocator::restore(1024, &[(0, 0)]).is_none());
        assert!(PoolAllocator::restore(1024, &[(8, 16)]).is_none());
        assert!(PoolAllocator::restore(1024, &[(1008, 32)]).is_none());
        assert!(PoolAllocator::restore(1024, &[]).is_some());
    }

    /// The definition `restore` must equal: one tree insert per block.
    fn restore_incremental(capacity: u64, live: &[(u64, u64)]) -> PoolAllocator {
        let mut a = PoolAllocator {
            capacity: capacity - capacity % ALLOC_GRANULE,
            free: BTreeMap::new(),
            live: BTreeMap::new(),
            bytes_live: 0,
        };
        let mut cursor = 0u64;
        for &(off, len) in live {
            if off > cursor {
                a.free.insert(cursor, off - cursor);
            }
            a.live.insert(off, len);
            a.bytes_live += len;
            cursor = off + len;
        }
        if cursor < a.capacity {
            a.free.insert(cursor, a.capacity - cursor);
        }
        a
    }

    #[test]
    fn first_fit_reuses_earliest_hole() {
        let mut a = PoolAllocator::new(1024);
        let x = a.alloc(64).unwrap();
        let _y = a.alloc(64).unwrap();
        a.free(x).unwrap();
        let z = a.alloc(32).unwrap();
        assert_eq!(z, x, "first fit should land in the earliest hole");
    }

    proptest! {
        /// Random alloc/free interleavings preserve all allocator invariants
        /// and alloc/free round-trips restore the free byte count.
        #[test]
        fn random_ops_preserve_invariants(ops in proptest::collection::vec(
            (0u8..2, 1u64..512), 1..200,
        )) {
            let mut a = PoolAllocator::new(16 * 1024);
            let mut live: Vec<u64> = Vec::new();
            for (kind, arg) in ops {
                if kind == 0 {
                    if let Some(off) = a.alloc(arg) {
                        // New allocation must not overlap existing ones.
                        prop_assert!(!live.contains(&off));
                        live.push(off);
                    }
                } else if !live.is_empty() {
                    let idx = (arg as usize) % live.len();
                    let off = live.swap_remove(idx);
                    prop_assert!(a.free(off).is_ok());
                }
                prop_assert!(a.check_invariants().is_ok(), "{:?}", a.check_invariants());
            }
            for off in live {
                a.free(off).unwrap();
            }
            prop_assert_eq!(a.bytes_free(), a.capacity());
            prop_assert!(a.check_invariants().is_ok());
        }

        /// The bulk-built restore is the incremental build: same maps, same
        /// accounting, and the next allocation lands on the same offset.
        #[test]
        fn restore_equals_the_incremental_build(
            blocks in proptest::collection::vec((0u64..4, 1u64..40), 0..300),
            tail in 0u64..64,
            probe in 1u64..700,
        ) {
            let mut live = Vec::new();
            let mut cursor = 0u64;
            for (gap, len) in blocks {
                let off = cursor + gap * ALLOC_GRANULE;
                live.push((off, len * ALLOC_GRANULE));
                cursor = off + len * ALLOC_GRANULE;
            }
            let capacity = cursor + tail * ALLOC_GRANULE + 7;
            let mut a = PoolAllocator::restore(capacity, &live).expect("valid list");
            let mut b = restore_incremental(capacity, &live);
            prop_assert!(a.check_invariants().is_ok(), "{:?}", a.check_invariants());
            prop_assert_eq!(a.capacity, b.capacity);
            prop_assert_eq!(a.bytes_live, b.bytes_live);
            prop_assert_eq!(&a.free, &b.free);
            prop_assert_eq!(&a.live, &b.live);
            prop_assert!(a.live_blocks().eq(live.iter().copied()));
            prop_assert_eq!(a.alloc(probe), b.alloc(probe));
            prop_assert!(a.check_invariants().is_ok());
        }

        /// Allocations never overlap, pairwise, under arbitrary sequences.
        #[test]
        fn allocations_are_disjoint(sizes in proptest::collection::vec(1u64..256, 1..64)) {
            let mut a = PoolAllocator::new(64 * 1024);
            let mut blocks: Vec<(u64, u64)> = Vec::new();
            for size in sizes {
                if let Some(off) = a.alloc(size) {
                    let len = a.live_size(off).unwrap();
                    for &(o, l) in &blocks {
                        prop_assert!(off + len <= o || o + l <= off, "overlap");
                    }
                    blocks.push((off, len));
                }
            }
        }
    }
}
