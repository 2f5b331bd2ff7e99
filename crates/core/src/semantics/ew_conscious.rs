//! EW-conscious semantics (Section IV-C) — TERP's chosen semantics.
//!
//! Within a thread, attach-detach pairs must not overlap; across threads they
//! may. At an attach, a *real* attach (address mapping) happens iff the PMO
//! is not yet mapped; otherwise the call **lowers** (on the TERP poset) to a
//! thread-permission grant. At a detach, a *real* detach happens iff
//!
//! 1. the time since the most recent real attach exceeds the predefined
//!    constant `L` (near the target exposure-window size), **and**
//! 2. no other thread can access the PMO;
//!
//! otherwise the detach lowers to a thread-permission revoke. When (1) holds
//! but (2) does not, the randomization augmentation remaps the PMO in place
//! so it never sits at one address longer than a window.
//!
//! The state machine reproduces the Figure 4 walk-through exactly (see the
//! tests).

use std::collections::HashMap;

use terp_pmo::{AccessKind, Permission};
use terp_sim::Cycles;

use super::{AccessOutcome, CallOutcome};

/// Effect of an EW-conscious detach call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetachEffect {
    /// The semantics verdict (Performed = real detach, Lowered = thread
    /// revoke, Invalid = no open window for this thread).
    pub outcome: CallOutcome,
    /// Condition (1) held but (2) did not: the randomization augmentation
    /// should remap the PMO now.
    pub randomize: bool,
}

/// The EW-conscious state machine for one PMO.
#[derive(Debug, Clone)]
pub struct EwConsciousSemantics {
    l_cycles: Cycles,
    mapped: bool,
    last_real_attach: Cycles,
    grants: HashMap<usize, Permission>,
}

impl EwConsciousSemantics {
    /// Creates the machine with window constant `L` in cycles.
    pub fn new(l_cycles: Cycles) -> Self {
        EwConsciousSemantics {
            l_cycles,
            mapped: false,
            last_real_attach: 0,
            grants: HashMap::new(),
        }
    }

    /// An `attach(perm)` call by `thread` at time `now`.
    ///
    /// Returns [`CallOutcome::Performed`] when a real attach (mapping)
    /// happened, [`CallOutcome::Lowered`] when the call became a thread
    /// grant, [`CallOutcome::Invalid`] on intra-thread overlap.
    pub fn attach(&mut self, thread: usize, perm: Permission, now: Cycles) -> CallOutcome {
        if self.grants.contains_key(&thread) {
            return CallOutcome::Invalid; // overlapping pair within a thread
        }
        self.grants.insert(thread, perm);
        if self.mapped {
            CallOutcome::Lowered
        } else {
            self.mapped = true;
            self.last_real_attach = now;
            CallOutcome::Performed
        }
    }

    /// A `detach()` call by `thread` at time `now`.
    pub fn detach(&mut self, thread: usize, now: Cycles) -> DetachEffect {
        if self.grants.remove(&thread).is_none() {
            return DetachEffect {
                outcome: CallOutcome::Invalid,
                randomize: false,
            };
        }
        let window_expired = now.saturating_sub(self.last_real_attach) >= self.l_cycles;
        let others = !self.grants.is_empty();
        if window_expired && !others {
            self.mapped = false;
            DetachEffect {
                outcome: CallOutcome::Performed,
                randomize: false,
            }
        } else {
            DetachEffect {
                outcome: CallOutcome::Lowered,
                // (1) holds, (2) fails → randomize in place.
                randomize: window_expired && others,
            }
        }
    }

    /// A load/store by `thread`.
    ///
    /// Denied when the PMO is unmapped (segmentation fault) or when the
    /// thread lacks (sufficient) permission — the three data states of
    /// Section VII-D.
    pub fn access(&self, thread: usize, kind: AccessKind) -> AccessOutcome {
        if !self.mapped {
            return AccessOutcome::Invalid; // detached: not even mapped
        }
        match self.grants.get(&thread) {
            Some(p) if p.allows(kind) => AccessOutcome::Valid,
            _ => AccessOutcome::Invalid, // attached without (enough) thread permission
        }
    }

    /// Acknowledges an in-place randomization: the window clock restarts.
    pub fn note_randomized(&mut self, now: Cycles) {
        self.last_real_attach = now;
    }

    /// Whether the PMO is currently mapped.
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// Number of threads currently holding permission.
    pub fn holders(&self) -> usize {
        self.grants.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: Cycles = 1000;

    /// Reproduces Figure 4: three threads, addresses A/B/C in PMO1.
    #[test]
    fn figure_4_walkthrough() {
        let mut s = EwConsciousSemantics::new(L);

        // Thread 1 attaches with READ: PMO was unmapped → real attach.
        assert_eq!(s.attach(1, Permission::Read, 0), CallOutcome::Performed);
        // ld A permitted, st B denied (insufficient thread permission).
        assert_eq!(s.access(1, AccessKind::Read), AccessOutcome::Valid);
        assert_eq!(s.access(1, AccessKind::Write), AccessOutcome::Invalid);

        // Thread 2 attaches RW: already mapped → lowered to a thread grant.
        assert_eq!(s.attach(2, Permission::ReadWrite, 10), CallOutcome::Lowered);
        assert_eq!(s.access(2, AccessKind::Write), AccessOutcome::Valid);

        // Thread 1 detaches: thread 2 still holds → lowered (no unmap).
        let e = s.detach(1, 20);
        assert_eq!(e.outcome, CallOutcome::Lowered);
        assert!(s.is_mapped());
        // ld C by thread 1 now denied (no permission, though mapped).
        assert_eq!(s.access(1, AccessKind::Read), AccessOutcome::Invalid);

        // Thread 2 detaches after L expired and is the last holder → real
        // detach (unmap).
        let e = s.detach(2, L + 30);
        assert_eq!(e.outcome, CallOutcome::Performed);
        assert!(!s.is_mapped());
        // st C segfaults: PMO no longer mapped.
        assert_eq!(s.access(2, AccessKind::Write), AccessOutcome::Invalid);

        // Thread 3 never attached: all its accesses are denied.
        assert_eq!(s.access(3, AccessKind::Read), AccessOutcome::Invalid);
    }

    #[test]
    fn early_detach_lowers_without_unmap() {
        let mut s = EwConsciousSemantics::new(L);
        s.attach(0, Permission::Read, 0);
        // Detach long before L: condition (1) fails → lowered, stays mapped.
        let e = s.detach(0, L / 2);
        assert_eq!(e.outcome, CallOutcome::Lowered);
        assert!(!e.randomize);
        assert!(s.is_mapped());
    }

    #[test]
    fn expired_window_with_other_holders_randomizes() {
        let mut s = EwConsciousSemantics::new(L);
        s.attach(0, Permission::Read, 0);
        s.attach(1, Permission::Read, 1);
        let e = s.detach(0, L + 5);
        assert_eq!(e.outcome, CallOutcome::Lowered);
        assert!(e.randomize, "condition (1) holds, (2) fails");
        s.note_randomized(L + 5);
        // The next early detach no longer randomizes (clock restarted).
        let e = s.detach(1, L + 10);
        assert_eq!(e.outcome, CallOutcome::Lowered);
        assert!(!e.randomize);
    }

    #[test]
    fn intra_thread_overlap_is_invalid() {
        let mut s = EwConsciousSemantics::new(L);
        assert_eq!(s.attach(0, Permission::Read, 0), CallOutcome::Performed);
        assert_eq!(s.attach(0, Permission::Read, 1), CallOutcome::Invalid);
        // Cross-thread overlap is fine (that's the composability win).
        assert_eq!(s.attach(1, Permission::Read, 2), CallOutcome::Lowered);
    }

    #[test]
    fn detach_without_window_is_invalid() {
        let mut s = EwConsciousSemantics::new(L);
        assert_eq!(s.detach(0, 0).outcome, CallOutcome::Invalid);
    }

    #[test]
    fn thread_composability_interleaving() {
        // Two well-formed threads interleave arbitrarily without errors —
        // the property Basic semantics lacks.
        let mut s = EwConsciousSemantics::new(L);
        assert!(s.attach(0, Permission::Read, 0).is_valid());
        assert!(s.attach(1, Permission::ReadWrite, 1).is_valid());
        assert!(s.detach(0, 2).outcome.is_valid());
        assert!(s.attach(0, Permission::Read, 3).is_valid());
        assert!(s.detach(1, 4).outcome.is_valid());
        assert!(s.detach(0, 5).outcome.is_valid());
        assert_eq!(s.holders(), 0);
    }
}
