//! Two-level data-TLB model (Table II: 64-entry L1, 1536-entry L2, 30-cycle
//! miss penalty) plus shootdown support.
//!
//! TLB behaviour matters to TERP in two ways: every detach/randomization
//! triggers an invalidation (charged at the Table II fixed cost by the
//! `Machine`), and the subsequent relearning of translations adds miss
//! latency that shows up in the "Other"/base overheads.

use serde::{Deserialize, Serialize};

use crate::cache::SetAssocCache;
use crate::params::{Cycles, SimParams};

/// Outcome of a TLB lookup, carrying the latency incurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbOutcome {
    /// Hit in the L1 TLB.
    L1Hit(Cycles),
    /// Miss in L1, hit in L2.
    L2Hit(Cycles),
    /// Full miss; page walk charged.
    Miss(Cycles),
}

impl TlbOutcome {
    /// Total lookup latency in cycles.
    pub fn cycles(self) -> Cycles {
        match self {
            TlbOutcome::L1Hit(c) | TlbOutcome::L2Hit(c) | TlbOutcome::Miss(c) => c,
        }
    }
}

/// A two-level TLB for 4 KiB pages.
///
/// ```
/// use terp_sim::tlb::{Tlb, TlbOutcome};
/// use terp_sim::SimParams;
/// let p = SimParams::default();
/// let mut tlb = Tlb::new(&p);
/// assert!(matches!(tlb.translate(0x1000), TlbOutcome::Miss(_)));
/// assert!(matches!(tlb.translate(0x1fff), TlbOutcome::L1Hit(_))); // same page
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tlb {
    l1: SetAssocCache,
    l2: SetAssocCache,
    l1_latency: Cycles,
    l2_latency: Cycles,
    miss_penalty: Cycles,
    shootdowns: u64,
}

/// Bytes covered by one TLB entry.
pub const TLB_PAGE: u64 = 4096;

impl Tlb {
    /// Builds the TLB pair from simulation parameters.
    pub fn new(params: &SimParams) -> Self {
        let l1_sets = (params.l1_tlb_entries / params.l1_tlb_ways).max(1);
        let l2_sets = (params.l2_tlb_entries / params.l2_tlb_ways).max(1);
        // The "line size" of a TLB is the page size: one entry per page.
        Tlb {
            l1: SetAssocCache::new(l1_sets.next_power_of_two(), params.l1_tlb_ways, TLB_PAGE),
            l2: SetAssocCache::new(l2_sets.next_power_of_two(), params.l2_tlb_ways, TLB_PAGE),
            l1_latency: params.l1_tlb_latency,
            l2_latency: params.l2_tlb_latency,
            miss_penalty: params.tlb_miss_penalty,
            shootdowns: 0,
        }
    }

    /// Translates a virtual address, updating TLB state and returning the
    /// lookup outcome with its latency.
    pub fn translate(&mut self, va: u64) -> TlbOutcome {
        if self.l1.access(va) {
            return TlbOutcome::L1Hit(self.l1_latency);
        }
        if self.l2.access(va) {
            // Fill into L1 happened via the access above only for L2; L1 was
            // already filled by its own miss path in `access`. The latency is
            // the serialized L1 + L2 lookup.
            TlbOutcome::L2Hit(self.l1_latency + self.l2_latency)
        } else {
            TlbOutcome::Miss(self.l1_latency + self.l2_latency + self.miss_penalty)
        }
    }

    /// Invalidates all entries (TLB shootdown after detach/randomization).
    pub fn shootdown(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.shootdowns += 1;
    }

    /// Number of shootdowns performed.
    pub fn shootdowns(&self) -> u64 {
        self.shootdowns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Tlb {
        Tlb::new(&SimParams::default())
    }

    #[test]
    fn cold_miss_then_hits() {
        let mut t = tlb();
        let m = t.translate(0x4000);
        assert_eq!(m, TlbOutcome::Miss(1 + 4 + 30));
        let h = t.translate(0x4008);
        assert_eq!(h, TlbOutcome::L1Hit(1));
    }

    #[test]
    fn l2_catches_l1_capacity_victims() {
        let mut t = tlb();
        // Touch far more pages than L1 holds (64) but fewer than L2 (1536).
        for i in 0..512u64 {
            t.translate(i * TLB_PAGE);
        }
        // Re-walk: most should be at least L2 hits, never full misses.
        let mut misses = 0;
        for i in 0..512u64 {
            if matches!(t.translate(i * TLB_PAGE), TlbOutcome::Miss(_)) {
                misses += 1;
            }
        }
        assert_eq!(misses, 0, "512 pages fit in the 1536-entry L2");
    }

    #[test]
    fn shootdown_forces_rewalk() {
        let mut t = tlb();
        t.translate(0x1000);
        assert!(matches!(t.translate(0x1000), TlbOutcome::L1Hit(_)));
        t.shootdown();
        assert!(matches!(t.translate(0x1000), TlbOutcome::Miss(_)));
        assert_eq!(t.shootdowns(), 1);
    }

    #[test]
    fn latencies_are_ordered() {
        let mut t = tlb();
        let miss = t.translate(0x9000).cycles();
        let hit = t.translate(0x9000).cycles();
        assert!(miss > hit);
    }
}
