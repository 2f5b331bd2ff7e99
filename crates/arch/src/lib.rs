//! # terp-arch — TERP architecture support
//!
//! The hardware half of TERP's co-design (HPCA 2022, Section V-B):
//!
//! * [`CircularBuffer`] — the 32-entry on-chip structure of Figure 7a. Each
//!   entry tracks `(PMO id, timestamp of last real attach, thread counter,
//!   delayed-detach bit)`.
//! * [`CondEngine`] — execution logic of the two user-space instructions
//!   `CONDAT` (conditional attach) and `CONDDT` (conditional detach),
//!   implementing cases 1–6 of Figures 7b/7c, plus the periodic sweep that
//!   closes or randomizes combined windows (Figure 6).
//! * [`MerrArch`] — the MERR baseline: every attach/detach is a full system
//!   call; placement is randomized at each attach; no window combining, no
//!   thread-level permissions.
//! * [`cost`] — the hardware cost model (32 × 34-bit entries ≈ 140 bytes,
//!   0.006 % of a 45 nm Nehalem die).
//!
//! This crate holds only the *hardware state machines*; charging their costs
//! on the timing model and enforcing language-level semantics happen in
//! `terp-core`'s runtime, which drives these engines.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod circular_buffer;
pub mod cond;
pub mod cost;
pub mod merr;

pub use circular_buffer::{CbEntry, CircularBuffer};
pub use cond::{AttachOutcome, CondEngine, CondStats, DetachOutcome, SweepAction};
pub use merr::MerrArch;
