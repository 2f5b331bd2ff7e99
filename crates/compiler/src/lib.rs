//! # terp-compiler — automatic TERP construct insertion
//!
//! The compiler half of TERP's co-design (HPCA 2022, Section V-A). The paper
//! implements an LLVM pass; this crate reimplements the same analyses over a
//! small control-flow-graph IR so the whole pipeline (workload program →
//! construct insertion → lowering → timing simulation) is self-contained:
//!
//! * [`ir`] — functions as CFGs of basic blocks; instructions are compute
//!   batches, PMO/DRAM accesses, and the protection constructs themselves.
//! * [`mod@cfg`] — successor/predecessor maps and reverse postorder.
//! * [`dom`] — dominators and post-dominators (Cooper–Harvey–Kennedy).
//! * [`loops`] — natural-loop detection and trip-count estimates, with the
//!   paper's "assume 1k iterations when unknown" convention.
//! * [`let_est`] — longest-execution-time (LET) estimation per block and per
//!   region under a conservative cost model.
//! * [`regions`] — single-entry single-exit region hierarchy (the "classic
//!   code region analysis" Algorithm 1 builds on).
//! * [`wfg`] — PMO window-flow-graph construction: grow a region around each
//!   PMO-accessing block while its LET stays under the exposure-window
//!   threshold (Algorithm 1, lines 4–10).
//! * [`insertion`] — localized path-sensitive placement of `attach`/`detach`
//!   (or `CONDAT`/`CONDDT`) at region entry/exit edges, with critical-edge
//!   splitting so constructs never execute on paths that skip the region.
//! * [`verify`] — a dataflow checker proving the inserted program has
//!   matched, non-overlapping pairs on **every** path and that every PMO
//!   access is covered — the property EW-conscious semantics requires.
//! * [`lower`] — deterministic lowering of an IR function to per-thread
//!   [`terp_sim::ThreadTrace`]s for the timing simulator.
//!
//! ```
//! use terp_compiler::builder::FunctionBuilder;
//! use terp_compiler::{insertion, verify};
//! use terp_pmo::{AccessKind, PmoId};
//!
//! let pmo = PmoId::new(1).unwrap();
//! let mut b = FunctionBuilder::new("demo");
//! b.compute(100);
//! b.pmo_access(pmo, AccessKind::Write, 64);
//! b.compute(100);
//! let func = b.finish();
//!
//! let inserted = insertion::insert_protection(&func, &insertion::InsertionConfig::default());
//! verify::verify_protection(&inserted.function).expect("pairs matched on every path");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod cfg;
pub mod dom;
pub mod insertion;
pub mod ir;
pub mod let_est;
pub mod loops;
pub mod lower;
pub mod regions;
pub mod rng;
pub mod verify;
pub mod wfg;

pub use builder::FunctionBuilder;
pub use insertion::{InsertionConfig, InsertionResult};
pub use ir::{AddrPattern, BlockId, Function, Instr, Terminator};
pub use verify::{ProtectionError, VerifiedProtection};
