//! Embedded page-table subtree (Figure 1 of the paper).
//!
//! A classical attach must initialize one leaf PTE per 4 KiB page of the
//! pool, so its cost grows linearly with pool size. MERR (and TERP on top of
//! it) instead *embeds the page-table subtree in the PMO itself* as
//! persistent metadata: attach only installs a single entry in the process
//! page table pointing at the subtree root, making attach/detach O(1).
//!
//! This module models the subtree shape of a 4-level x86-64 page table: leaf
//! (L1) tables hold 512 entries of 4 KiB translations each, L2 tables hold
//! 512 L1 pointers, and so on. It exposes PTE counts so tests and the cost
//! model can contrast legacy (linear) and embedded (constant) attach costs.

use serde::{Deserialize, Serialize};

/// Bytes mapped by one leaf PTE.
pub const PAGE_SIZE: u64 = 4096;
/// Entries per page-table node (x86-64: 512 eight-byte entries per 4 KiB node).
pub const ENTRIES_PER_TABLE: u64 = 512;

/// The page-table subtree embedded in a PMO.
///
/// ```
/// use terp_pmo::pagetable::EmbeddedPageTable;
/// // A 1 GiB pool: 262144 leaf PTEs, but attaching it costs ONE entry.
/// let pt = EmbeddedPageTable::for_size(1 << 30);
/// assert_eq!(pt.leaf_ptes(), 262_144);
/// assert_eq!(pt.attach_entry_writes_embedded(), 1);
/// // Legacy attach writes every leaf PTE plus the interior dictionaries.
/// assert!(pt.attach_entry_writes_legacy() >= 262_144);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmbeddedPageTable {
    pool_size: u64,
    leaf_ptes: u64,
    /// Node count at each level, leaf level first.
    level_nodes: Vec<u64>,
}

impl EmbeddedPageTable {
    /// Builds the subtree description for a pool of `pool_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `pool_size` is zero.
    pub fn for_size(pool_size: u64) -> Self {
        assert!(pool_size > 0, "page table for empty pool");
        let leaf_ptes = pool_size.div_ceil(PAGE_SIZE);
        let mut level_nodes = Vec::new();
        let mut entries = leaf_ptes;
        // Build levels until a single node suffices to cover the pool.
        loop {
            let nodes = entries.div_ceil(ENTRIES_PER_TABLE);
            level_nodes.push(nodes);
            if nodes == 1 {
                break;
            }
            entries = nodes;
        }
        EmbeddedPageTable {
            pool_size,
            leaf_ptes,
            level_nodes,
        }
    }

    /// Pool size this subtree covers, in bytes.
    pub fn pool_size(&self) -> u64 {
        self.pool_size
    }

    /// Number of leaf (4 KiB-granularity) PTEs in the subtree.
    pub fn leaf_ptes(&self) -> u64 {
        self.leaf_ptes
    }

    /// Number of subtree levels (1 for pools ≤ 2 MiB, 2 up to 1 GiB, ...).
    pub fn levels(&self) -> usize {
        self.level_nodes.len()
    }

    /// Total page-table nodes persisted inside the PMO.
    pub fn total_nodes(&self) -> u64 {
        self.level_nodes.iter().sum()
    }

    /// Process-page-table entry writes needed to attach with the embedded
    /// subtree: always exactly one (link the subtree root).
    pub fn attach_entry_writes_embedded(&self) -> u64 {
        1
    }

    /// Entry writes a legacy (non-embedded) attach would need: one per leaf
    /// PTE plus the interior nodes, i.e. linear in pool size.
    pub fn attach_entry_writes_legacy(&self) -> u64 {
        self.leaf_ptes + self.total_nodes() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn one_page_pool_has_single_level() {
        let pt = EmbeddedPageTable::for_size(100);
        assert_eq!(pt.leaf_ptes(), 1);
        assert_eq!(pt.levels(), 1);
        assert_eq!(pt.total_nodes(), 1);
    }

    #[test]
    fn two_mib_pool_fits_one_leaf_table() {
        // 2 MiB = 512 pages = exactly one full leaf table.
        let pt = EmbeddedPageTable::for_size(2 << 20);
        assert_eq!(pt.leaf_ptes(), 512);
        assert_eq!(pt.levels(), 1);
    }

    #[test]
    fn one_gib_pool_is_two_levels() {
        let pt = EmbeddedPageTable::for_size(1 << 30);
        assert_eq!(pt.leaf_ptes(), 262_144);
        assert_eq!(pt.levels(), 2);
        // 512 leaf tables + 1 L2 dictionary.
        assert_eq!(pt.total_nodes(), 513);
    }

    #[test]
    fn embedded_attach_is_constant_legacy_is_linear() {
        let small = EmbeddedPageTable::for_size(1 << 20);
        let large = EmbeddedPageTable::for_size(1 << 30);
        assert_eq!(
            small.attach_entry_writes_embedded(),
            large.attach_entry_writes_embedded()
        );
        assert!(large.attach_entry_writes_legacy() > 100 * small.attach_entry_writes_legacy());
    }

    #[test]
    #[should_panic(expected = "empty pool")]
    fn zero_size_panics() {
        let _ = EmbeddedPageTable::for_size(0);
    }

    proptest! {
        /// The subtree always covers the pool: leaf PTEs map at least
        /// pool_size bytes and fewer than pool_size + one page.
        #[test]
        fn leaf_ptes_cover_pool(size in 1u64..(8u64 << 30)) {
            let pt = EmbeddedPageTable::for_size(size);
            prop_assert!(pt.leaf_ptes() * PAGE_SIZE >= size);
            prop_assert!((pt.leaf_ptes() - 1) * PAGE_SIZE < size);
        }

        /// Each level has enough entries to index the level below.
        #[test]
        fn levels_form_a_tree(size in 1u64..(8u64 << 30)) {
            let pt = EmbeddedPageTable::for_size(size);
            prop_assert!(pt.levels() >= 1);
            prop_assert!(pt.total_nodes() >= pt.levels() as u64);
            // Root level is a single node.
            prop_assert_eq!(pt.attach_entry_writes_embedded(), 1);
        }
    }
}
