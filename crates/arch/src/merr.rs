//! The MERR baseline architecture (paper Section II and its reference \[5\]).
//!
//! MERR provides fast O(1) attach/detach via the embedded page-table subtree
//! and the process-wide permission matrix, and randomizes the PMO location
//! at every attach — but it has **no** conditional instructions, **no**
//! circular buffer, and **no** thread-level permissions. Every attach and
//! detach construct executes fully as a system call, and the attach/detach
//! state is process-wide: a second attach while attached is a semantics
//! violation (Basic semantics), which in multithreaded runs forces threads
//! to serialize on the PMO (the "basic semantics" bars of Figure 11).

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use terp_pmo::PmoId;

/// Error from a MERR attach/detach in Basic semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MerrError {
    /// `attach()` on an already-attached PMO.
    AlreadyAttached(PmoId),
    /// `detach()` on a PMO that is not attached.
    NotAttached(PmoId),
}

impl std::fmt::Display for MerrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MerrError::AlreadyAttached(p) => write!(f, "merr: {p} already attached"),
            MerrError::NotAttached(p) => write!(f, "merr: {p} not attached"),
        }
    }
}

impl std::error::Error for MerrError {}

/// Process-wide MERR attach state.
///
/// ```
/// use terp_arch::MerrArch;
/// use terp_pmo::PmoId;
/// let pmo = PmoId::new(1).unwrap();
/// let mut merr = MerrArch::new();
/// merr.attach(pmo).unwrap();
/// assert!(merr.attach(pmo).is_err()); // Basic semantics: no double attach
/// merr.detach(pmo).unwrap();
/// assert!(merr.detach(pmo).is_err());
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MerrArch {
    attached: HashSet<PmoId>,
}

impl MerrArch {
    /// Creates an empty MERR state machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Performs a full attach (always a system call; the caller charges the
    /// cost and performs the randomized mapping).
    ///
    /// # Errors
    ///
    /// [`MerrError::AlreadyAttached`] under Basic semantics. Multithreaded
    /// callers use this signal to serialize (block until detached).
    pub fn attach(&mut self, pmo: PmoId) -> Result<(), MerrError> {
        if !self.attached.insert(pmo) {
            return Err(MerrError::AlreadyAttached(pmo));
        }
        Ok(())
    }

    /// Performs a full detach.
    ///
    /// # Errors
    ///
    /// [`MerrError::NotAttached`] if the PMO is not attached (Basic
    /// semantics: a detach must follow an attach).
    pub fn detach(&mut self, pmo: PmoId) -> Result<(), MerrError> {
        if !self.attached.remove(&pmo) {
            return Err(MerrError::NotAttached(pmo));
        }
        Ok(())
    }

    /// Number of currently attached PMOs.
    pub fn attached_count(&self) -> usize {
        self.attached.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pmo(n: u16) -> PmoId {
        PmoId::new(n).unwrap()
    }

    #[test]
    fn attach_detach_pairs() {
        let mut m = MerrArch::new();
        m.attach(pmo(1)).unwrap();
        assert_eq!(m.attached_count(), 1);
        m.detach(pmo(1)).unwrap();
        assert_eq!(m.attached_count(), 0);
        m.attach(pmo(1)).unwrap();
    }

    #[test]
    fn double_attach_is_conflict() {
        let mut m = MerrArch::new();
        m.attach(pmo(1)).unwrap();
        assert_eq!(m.attach(pmo(1)), Err(MerrError::AlreadyAttached(pmo(1))));
        // The conflicting attach changed nothing.
        assert_eq!(m.attached_count(), 1);
        m.detach(pmo(1)).unwrap();
        assert_eq!(m.detach(pmo(1)), Err(MerrError::NotAttached(pmo(1))));
    }

    #[test]
    fn detach_without_attach_is_error() {
        let mut m = MerrArch::new();
        assert_eq!(m.detach(pmo(2)), Err(MerrError::NotAttached(pmo(2))));
    }

    #[test]
    fn independent_pmos_do_not_conflict() {
        let mut m = MerrArch::new();
        m.attach(pmo(1)).unwrap();
        m.attach(pmo(2)).unwrap();
        assert_eq!(m.attached_count(), 2);
        m.detach(pmo(1)).unwrap();
        assert_eq!(m.attach(pmo(2)), Err(MerrError::AlreadyAttached(pmo(2))));
    }
}
