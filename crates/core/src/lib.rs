//! # terp-core — the TERP framework
//!
//! The paper's primary contribution (HPCA 2022): *temporal exposure
//! reduction protection* for persistent memory objects. This crate holds the
//! formal framework and the runtime that enforces it on the simulated
//! machine:
//!
//! * [`window`] — Definition 5: exposure windows (EW) and thread exposure
//!   windows (TEW), with the ER/TER metrics of Tables III–IV.
//! * [`semantics`] — the semantics design space of Section IV: Basic,
//!   Outermost, FCFS (Figure 3), and the chosen EW-Conscious semantics
//!   (Figure 4), as executable state machines.
//! * [`config`] — the evaluated configurations: unprotected, MM (MERR
//!   insertion + MERR architecture), TM (TERP insertion on MERR
//!   architecture), TT (TERP insertion + TERP architecture), and the
//!   Figure 11 ablations (Basic semantics, +Cond, +CB).
//! * [`runtime`] — the executor: interprets per-thread traces, drives the
//!   protection hardware ([`terp_arch`]) and the timing model
//!   ([`terp_sim`]), and produces a [`report::RunReport`] with the overhead
//!   breakdown and exposure statistics the paper's tables report.
//!
//! ## Quick example: protecting a trace under full TERP
//!
//! ```
//! use terp_core::config::{ProtectionConfig, Scheme};
//! use terp_core::runtime::Executor;
//! use terp_pmo::{OpenMode, Permission, PmoRegistry, AccessKind, ObjectId};
//! use terp_sim::{SimParams, ThreadTrace, TraceOp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut registry = PmoRegistry::new();
//! let pmo = registry.create("data", 1 << 20, OpenMode::ReadWrite)?;
//!
//! let trace = ThreadTrace::from_ops(vec![
//!     TraceOp::Attach { pmo, perm: Permission::ReadWrite },
//!     TraceOp::PmoAccess { oid: ObjectId::new(pmo, 64), kind: AccessKind::Write, tag: None },
//!     TraceOp::Detach { pmo },
//! ]);
//!
//! let config = ProtectionConfig::new(Scheme::terp_full(), 40.0, 2.0);
//! let report = Executor::new(SimParams::default(), config)
//!     .run(&mut registry, vec![trace])?;
//! assert!(report.total_cycles > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod report;
pub mod runtime;
pub mod semantics;
pub mod window;

pub use config::{ProtectionConfig, Scheme};
pub use report::RunReport;
pub use runtime::Executor;
pub use window::WindowTracker;
