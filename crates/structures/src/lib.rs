//! Persistent lock-free data structures over terp-pmo pools.
//!
//! The paper's TERP windows protect PMO contents *while attached*; this
//! crate supplies the workloads that actually live inside those windows:
//! recoverable lock-free structures in the shape of the Memento family —
//! a Treiber stack ([`Stack`]), a Michael-Scott queue ([`Queue`]), and a
//! fixed-bucket hash map ([`HashMap`]). Three rules govern every one of
//! them:
//!
//! * **ObjectIDs, never addresses.** Every inter-node link is a packed
//!   [`terp_pmo::ObjectId`] (or a [`tagged`] variant for CAS roots), so a
//!   structure survives MERR re-randomization and relocating recovery —
//!   there is no raw pointer anywhere in pool bytes.
//! * **One-CAS commit points.** Each mutating operation has exactly one
//!   atomic compare-and-swap that commits it ([`mem::DsMem::cas_u64`]);
//!   everything before it is preparation that recovery can discard,
//!   everything after is cleanup that recovery can finish.
//! * **Detectable recovery.** Every client owns a persistent descriptor
//!   slot ([`desc`]) written *before* the commit CAS. After a crash,
//!   [`Stack::recover`] (and friends) decide per descriptor whether the
//!   commit landed — by reachability for pushes/inserts/enqueues, by an
//!   owner/state stamp for dequeues/removes — then complete or roll back,
//!   and sweep orphaned allocations so the reachable set equals the
//!   committed-op set exactly.
//!
//! The structures are generic over [`mem::DsMem`]: [`mem::ServiceMem`]
//! drives them through a live [`terp_service::PmoService`] (real exposure
//! windows, real permission checks, durable journaling), while
//! [`mem::LocalMem`] drives a bare registry with a mirrored in-memory WAL
//! — the deterministic build the crash-point enumerator bites into.
//!
//! Test support is a first-class deliverable here: [`harness`] records
//! concurrent histories through real service sessions, and [`linearize`]
//! searches them for a sequential witness (Wing & Gong style), which is
//! what the `linearizability` integration suite gates all three
//! structures on.

pub mod desc;
pub mod harness;
pub mod hashmap;
pub mod linearize;
pub mod mem;
pub mod queue;
pub mod stack;
pub mod tagged;

pub use desc::{Descriptor, OpKind, OP_STATE_DONE, OP_STATE_IDLE, OP_STATE_PENDING};
pub use harness::{DsKind, DsOp, DsResp, HarnessConfig, HarnessRun, HistOp};
pub use hashmap::HashMap;
pub use linearize::{check_history, LinearizeError, Model};
pub use mem::{DsMem, LocalMem, ServiceMem, UnitView};
pub use queue::Queue;
pub use stack::Stack;

use terp_pmo::PmoError;
use terp_service::ServiceError;

/// Magic tag stored in the first root word of every structure (upper 32
/// bits; the low byte is the structure kind).
pub const DS_MAGIC: u64 = 0x7E59_D500 << 32;

/// Errors surfaced by structure operations.
#[derive(Debug)]
pub enum DsError {
    /// The service boundary refused the operation (permission, unknown
    /// pool, read-only standby, …).
    Service(ServiceError),
    /// The PMO substrate refused it (bounds, invalid free, pool full).
    Substrate(PmoError),
    /// Pool bytes violate the structure's layout invariants (bad magic,
    /// cyclic chain, link outside the pool).
    Corrupt(String),
}

impl std::fmt::Display for DsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DsError::Service(e) => write!(f, "structures: {e}"),
            DsError::Substrate(e) => write!(f, "structures: {e}"),
            DsError::Corrupt(msg) => write!(f, "structures: corrupt layout: {msg}"),
        }
    }
}

impl std::error::Error for DsError {}

impl From<ServiceError> for DsError {
    fn from(e: ServiceError) -> Self {
        DsError::Service(e)
    }
}

impl From<PmoError> for DsError {
    fn from(e: PmoError) -> Self {
        DsError::Substrate(e)
    }
}

/// The value-plus-receipt a mutating operation returns. `commit_mark` is
/// the [`mem::DsMem::mark`] taken immediately after the commit CAS — under
/// [`mem::LocalMem`] that is the count of WAL records at commit time, which
/// is what lets the crash-point suite decide, for any log prefix, exactly
/// which operations had committed. Marks are 0 for operations that
/// committed nothing (an empty pop) and under memories that do not count
/// records ([`mem::ServiceMem`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpResult<T> {
    /// The operation's logical result.
    pub value: T,
    /// WAL mark at the commit point (see above).
    pub commit_mark: u64,
}

/// What a structure's [`Stack::recover`]-style pass did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Descriptors found `PENDING` whose commit CAS had landed: the
    /// operation was completed (cleanup finished, descriptor sealed
    /// `DONE`).
    pub completed: usize,
    /// Descriptors found `PENDING` whose commit had *not* landed: the
    /// operation was rolled back (preparation undone, descriptor reset).
    pub rolled_back: usize,
    /// Allocated blocks reachable from neither the structure nor any
    /// descriptor, freed by the orphan sweep (only under memories that
    /// expose [`mem::DsMem::live_blocks`]).
    pub orphans_freed: usize,
}

impl RecoveryOutcome {
    /// Folds another outcome into this one.
    pub fn merge(&mut self, other: RecoveryOutcome) {
        self.completed += other.completed;
        self.rolled_back += other.rolled_back;
        self.orphans_freed += other.orphans_freed;
    }
}
