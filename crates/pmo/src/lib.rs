//! # terp-pmo — Persistent Memory Object substrate
//!
//! This crate implements the persistent-memory-object (PMO) abstraction that
//! the TERP paper (HPCA 2022) builds on: named pools of byte-addressable
//! persistent memory that are *attached* (mapped) into a process address
//! space for direct load/store access and *detached* (unmapped) when not in
//! use. It provides every API from Table I of the paper:
//!
//! | Paper API | This crate |
//! |---|---|
//! | `PMO_create(size, mode)` | [`PmoRegistry::create`] |
//! | `PMO_open(name, mode)` | [`PmoRegistry::open`] |
//! | `PMO_close(p)` | [`PmoRegistry::close`] |
//! | `pmalloc(p, size)` | [`Pmo::pmalloc`] |
//! | `pfree(oid)` | [`Pmo::pfree`] |
//! | `oid_direct(oid)` | [`ProcessAddressSpace::oid_direct`] |
//! | `attach(p, perm)` | [`ProcessAddressSpace::attach`] |
//! | `detach(p)` | [`ProcessAddressSpace::detach`] |
//!
//! Pools are *relocatable*: data-structure pointers are [`ObjectId`]s — a
//! (pool-id, offset) pair packed into 64 bits — so a PMO can be attached at a
//! different virtual address on every attach. That property is what lets the
//! TERP/MERR protection layers randomize the mapped location of a PMO at
//! every (re)attach.
//!
//! The pool's page-table subtree ([`pagetable::EmbeddedPageTable`]) is
//! embedded in the PMO itself, mirroring the MERR design of Figure 1: a full
//! attach only needs to install a single upper-level PTE, making attach and
//! detach O(1) in pool size.
//!
//! Storage is a sparse page store ([`pool::Pmo`] materializes 4 KiB pages on
//! first touch), so gigabyte-scale pools used by the paper's evaluation cost
//! only as much host memory as they actually touch.
//!
//! ## Quick example
//!
//! ```
//! use terp_pmo::{PmoRegistry, ProcessAddressSpace, Permission, OpenMode};
//!
//! # fn main() -> Result<(), terp_pmo::PmoError> {
//! let mut registry = PmoRegistry::new();
//! let id = registry.create("accounts", 1 << 20, OpenMode::ReadWrite)?;
//!
//! // Allocate a persistent object inside the pool.
//! let oid = registry.pool_mut(id)?.pmalloc(64)?;
//!
//! // Map the PMO into the process address space at a randomized base.
//! let mut space = ProcessAddressSpace::with_seed(7);
//! let handle = space.attach(registry.pool_mut(id)?, Permission::ReadWrite)?;
//!
//! // Translate the relocatable ObjectID to a (current) virtual address.
//! let va = space.oid_direct(oid)?;
//! assert_eq!(va, handle.base_va() + oid.offset());
//!
//! space.detach(registry.pool_mut(id)?)?;
//! assert!(space.oid_direct(oid).is_err()); // no longer mapped
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod acl;
pub mod alloc;
pub mod error;
pub mod id;
pub mod pagetable;
pub mod perm;
pub mod pool;
pub mod registry;
pub mod space;
pub mod txn;

pub use error::PmoError;
pub use id::{ObjectId, PmoId};
pub use perm::{AccessKind, OpenMode, Permission};
pub use pool::Pmo;
pub use registry::PmoRegistry;
pub use space::{AttachHandle, ProcessAddressSpace, VirtAddr, PAGE_SIZE};
pub use txn::Transaction;
