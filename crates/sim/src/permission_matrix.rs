//! Permission-checking hardware models.
//!
//! Two structures from the paper:
//!
//! * [`PermissionMatrix`] — MERR's process-wide permission matrix
//!   (Figure 1b): one entry per attached PMO mapping, checked alongside the
//!   TLB on every load/store at a 1-cycle cost.
//! * [`ThreadPermissionTable`] — the per-thread access control TERP layers on
//!   top (Intel-MPK-style protection domains, Section V-B: "each attached
//!   PMO is assigned its own protection domain ... which allows per-thread
//!   access control"). This is what a *lowered* (silent) attach/detach
//!   updates.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use terp_pmo::{AccessKind, Permission, PmoId, VirtAddr};

/// One entry of the process-wide permission matrix: a VA range and the
/// permission the process holds over it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatrixEntry {
    /// The PMO mapped at this range.
    pub pmo: PmoId,
    /// Inclusive range start.
    pub base: VirtAddr,
    /// Range length in bytes.
    pub size: u64,
    /// Process-wide permission for the range.
    pub permission: Permission,
}

/// MERR's process-wide permission matrix (Figure 1b).
///
/// `attach(pmo, perm)` adds an entry; `detach(pmo)` removes it. Every
/// load/store checks the matrix in parallel with the TLB (1-cycle charge is
/// applied by the machine, not here).
///
/// ```
/// use terp_sim::PermissionMatrix;
/// use terp_pmo::{AccessKind, Permission, PmoId};
/// let pmo = PmoId::new(1).unwrap();
/// let mut m = PermissionMatrix::new();
/// m.insert(pmo, 0x1000, 0x1000, Permission::Read);
/// assert!(m.check(0x1800, AccessKind::Read));
/// assert!(!m.check(0x1800, AccessKind::Write));
/// m.remove(pmo);
/// assert!(!m.check(0x1800, AccessKind::Read));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PermissionMatrix {
    entries: Vec<MatrixEntry>,
    checks: u64,
    denials: u64,
}

impl PermissionMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) the entry for a PMO's current mapping.
    pub fn insert(&mut self, pmo: PmoId, base: VirtAddr, size: u64, permission: Permission) {
        self.entries.retain(|e| e.pmo != pmo);
        self.entries.push(MatrixEntry {
            pmo,
            base,
            size,
            permission,
        });
    }

    /// Removes the entry for a PMO. Returns whether one was present.
    pub fn remove(&mut self, pmo: PmoId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.pmo != pmo);
        self.entries.len() != before
    }

    /// Updates the VA range of a PMO entry after randomization, keeping its
    /// permission. Returns whether the entry existed.
    pub fn relocate(&mut self, pmo: PmoId, new_base: VirtAddr) -> bool {
        for e in &mut self.entries {
            if e.pmo == pmo {
                e.base = new_base;
                return true;
            }
        }
        false
    }

    /// Checks an access against the matrix. Records statistics.
    pub fn check(&mut self, va: VirtAddr, access: AccessKind) -> bool {
        self.checks += 1;
        let allowed = self
            .entries
            .iter()
            .find(|e| va >= e.base && va < e.base + e.size)
            .is_some_and(|e| e.permission.allows(access));
        if !allowed {
            self.denials += 1;
        }
        allowed
    }

    /// Lifetime check count.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Lifetime denial count.
    pub fn denials(&self) -> u64 {
        self.denials
    }
}

/// Per-thread PMO access permissions (the MPK-style protection-domain layer).
///
/// TERP's EW-conscious semantics lowers inner attach/detach calls to updates
/// of this table: `grant` corresponds to opening the calling thread's
/// permission to a PMO's domain, `revoke` to closing it. An access succeeds
/// only if **both** the process-wide mapping (permission matrix) and the
/// thread permission allow it.
///
/// ```
/// use terp_sim::ThreadPermissionTable;
/// use terp_pmo::{AccessKind, Permission, PmoId};
/// let pmo = PmoId::new(2).unwrap();
/// let mut t = ThreadPermissionTable::new();
/// t.grant(0, pmo, Permission::ReadWrite);
/// assert!(t.check(0, pmo, AccessKind::Write));
/// assert!(!t.check(1, pmo, AccessKind::Read)); // other thread: no grant
/// t.revoke(0, pmo);
/// assert!(!t.check(0, pmo, AccessKind::Read));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ThreadPermissionTable {
    grants: HashMap<(usize, PmoId), Permission>,
    checks: u64,
    denials: u64,
}

impl ThreadPermissionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens `thread`'s permission to `pmo` at the given level.
    pub fn grant(&mut self, thread: usize, pmo: PmoId, permission: Permission) {
        if permission == Permission::None {
            self.grants.remove(&(thread, pmo));
        } else {
            self.grants.insert((thread, pmo), permission);
        }
    }

    /// Closes `thread`'s permission to `pmo`. Returns the previous level.
    pub fn revoke(&mut self, thread: usize, pmo: PmoId) -> Permission {
        self.grants
            .remove(&(thread, pmo))
            .unwrap_or(Permission::None)
    }

    /// Permission `thread` currently holds over `pmo`.
    pub fn permission(&self, thread: usize, pmo: PmoId) -> Permission {
        self.grants
            .get(&(thread, pmo))
            .copied()
            .unwrap_or(Permission::None)
    }

    /// Checks an access, recording statistics.
    pub fn check(&mut self, thread: usize, pmo: PmoId, access: AccessKind) -> bool {
        self.checks += 1;
        let ok = self.permission(thread, pmo).allows(access);
        if !ok {
            self.denials += 1;
        }
        ok
    }

    /// Number of threads holding any permission on `pmo`.
    pub fn holders(&self, pmo: PmoId) -> usize {
        self.grants.keys().filter(|&&(_, p)| p == pmo).count()
    }

    /// Revokes every grant on `pmo` (used by forced detach). Returns how many
    /// grants were dropped.
    pub fn revoke_all(&mut self, pmo: PmoId) -> usize {
        let before = self.grants.len();
        self.grants.retain(|&(_, p), _| p != pmo);
        before - self.grants.len()
    }

    /// Lifetime denial count.
    pub fn denials(&self) -> u64 {
        self.denials
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pmo(n: u16) -> PmoId {
        PmoId::new(n).unwrap()
    }

    #[test]
    fn matrix_checks_range_and_permission() {
        let mut m = PermissionMatrix::new();
        m.insert(pmo(1), 0x10_000, 0x1000, Permission::ReadWrite);
        assert!(m.check(0x10_000, AccessKind::Write));
        assert!(m.check(0x10_FFF, AccessKind::Read));
        assert!(!m.check(0x11_000, AccessKind::Read), "one past end");
        assert!(!m.check(0xF_FFF, AccessKind::Read), "one before start");
        assert_eq!(m.checks(), 4);
        assert_eq!(m.denials(), 2);
    }

    #[test]
    fn matrix_insert_replaces_existing_entry() {
        let mut m = PermissionMatrix::new();
        m.insert(pmo(1), 0x1000, 0x1000, Permission::Read);
        m.insert(pmo(1), 0x5000, 0x1000, Permission::ReadWrite);
        assert!(!m.check(0x1800, AccessKind::Read), "old range gone");
        assert!(m.check(0x5800, AccessKind::Write));
    }

    #[test]
    fn matrix_relocate_preserves_permission() {
        let mut m = PermissionMatrix::new();
        m.insert(pmo(3), 0x1000, 0x1000, Permission::Read);
        assert!(m.relocate(pmo(3), 0x9000));
        assert!(m.check(0x9800, AccessKind::Read));
        assert!(!m.check(0x9800, AccessKind::Write));
        assert!(!m.relocate(pmo(4), 0x2000));
    }

    #[test]
    fn thread_table_isolates_threads() {
        let mut t = ThreadPermissionTable::new();
        t.grant(0, pmo(1), Permission::Read);
        t.grant(1, pmo(1), Permission::ReadWrite);
        assert!(t.check(0, pmo(1), AccessKind::Read));
        assert!(!t.check(0, pmo(1), AccessKind::Write));
        assert!(t.check(1, pmo(1), AccessKind::Write));
        assert_eq!(t.holders(pmo(1)), 2);
        assert_eq!(t.revoke(0, pmo(1)), Permission::Read);
        assert_eq!(t.holders(pmo(1)), 1);
    }

    #[test]
    fn grant_none_is_revoke() {
        let mut t = ThreadPermissionTable::new();
        t.grant(0, pmo(1), Permission::ReadWrite);
        t.grant(0, pmo(1), Permission::None);
        assert_eq!(t.permission(0, pmo(1)), Permission::None);
        assert_eq!(t.holders(pmo(1)), 0);
    }

    #[test]
    fn revoke_all_clears_every_holder() {
        let mut t = ThreadPermissionTable::new();
        for thread in 0..4 {
            t.grant(thread, pmo(2), Permission::Read);
        }
        t.grant(0, pmo(3), Permission::Read);
        assert_eq!(t.revoke_all(pmo(2)), 4);
        assert_eq!(t.holders(pmo(2)), 0);
        assert_eq!(t.holders(pmo(3)), 1, "other pools untouched");
    }
}
