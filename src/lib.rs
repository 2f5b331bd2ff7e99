//! # terp-suite — umbrella crate for the TERP reproduction
//!
//! Re-exports the component crates of the workspace so examples and
//! integration tests can use one coherent namespace:
//!
//! * [`terp_pmo`] — persistent-memory-object substrate (pools, ObjectIDs,
//!   attach/detach with layout randomization);
//! * [`terp_sim`] — the timing simulator (caches, TLBs, permission
//!   hardware, overhead accounting);
//! * [`terp_arch`] — TERP's architecture support (circular buffer,
//!   CONDAT/CONDDT, window combining) and the MERR baseline;
//! * [`terp_compiler`] — the IR, region analyses, and automatic construct
//!   insertion (paper Algorithm 1);
//! * [`terp_core`] — the TERP framework itself: semantics, exposure
//!   windows, and the protection runtime;
//! * [`terp_workloads`] — WHISPER-like / SPEC-like / churn workloads;
//! * [`terp_security`] — attack models and quantitative security analysis.
//!
//! See `examples/quickstart.rs` for the fastest way in, and DESIGN.md for
//! the full system inventory and experiment index.

#![warn(missing_docs)]

pub use terp_arch;
pub use terp_compiler;
pub use terp_core;
pub use terp_pmo;
pub use terp_security;
pub use terp_sim;
pub use terp_workloads;

/// Convenience prelude with the most-used types.
pub mod prelude {
    pub use terp_compiler::{FunctionBuilder, InsertionConfig};
    pub use terp_core::config::{ProtectionConfig, Scheme};
    pub use terp_core::runtime::Executor;
    pub use terp_core::RunReport;
    pub use terp_pmo::{
        AccessKind, ObjectId, OpenMode, Permission, PmoId, PmoRegistry, ProcessAddressSpace,
    };
    pub use terp_sim::{SimParams, ThreadTrace, TraceOp};
    pub use terp_workloads::{Variant, Workload};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_core_types() {
        use crate::prelude::*;
        let _ = SimParams::default();
        let _ = ProtectionConfig::terp_default();
        let _: Option<PmoId> = PmoId::new(1);
    }
}
