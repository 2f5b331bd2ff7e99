//! terp-net: the TCP front-end and client library for the PMO service.
//!
//! The in-process [`terp_service::PmoService`] enforces the paper's
//! temporal-exposure semantics for threads inside one address space; this
//! crate puts those semantics on a socket without weakening them. The load
//! that matters — an MM/Basic-semantics attach parking on another holder's
//! exposure window — blocks the *request*, never the connection or a shard:
//! the protocol pipelines by request id and completes out of order
//! (DESIGN.md §13).
//!
//! Layers, bottom-up:
//!
//! * [`frame`] — length-prefixed, CRC-32C-framed byte envelopes with an
//!   incremental decoder (same CRC codec as the WAL).
//! * [`proto`] — versioned request/response messages and the
//!   [`ServiceError`] wire mapping.
//! * [`server`] — [`server::NetServer`]: accept loop, a reader thread per
//!   connection, per-shard batched executor whose workers write their own
//!   replies (a per-connection flusher thread takes only what a full
//!   socket refused), dedicated threads for blocking attaches,
//!   drain-before-close shutdown.
//! * [`client`] — [`client::Client`]: sync calls and pipelined
//!   [`client::Pending`] tickets over one multiplexed connection with no
//!   thread of its own (a waiting caller reads for every caller). A
//!   client whose connection died stays dead; recovery is a new
//!   [`client::Client::connect`].
//! * [`repl`] — the log-shipping message set used by the `terp-repl`
//!   leader/follower stream (shares the frame codec, not the proto
//!   request/response machinery).

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod proto;
pub mod repl;
pub mod server;
#[cfg(target_os = "linux")]
mod sys;

#[cfg(not(target_os = "linux"))]
compile_error!("terp-net calls Linux's `send` flags and `poll` directly (src/sys.rs)");

pub use client::{Client, Pending, WireCounts};
pub use frame::{encode_frame, frame_into, FrameDecoder, FrameError, MAX_FRAME};
pub use proto::{Request, Response, MAGIC, VERSION};
pub use repl::{LogFile, ReplMsg, LOG_CHUNK};
pub use server::{NetServer, ServerWireCounts};
pub use terp_service::ServiceError;

/// Locks `m`. The crate's mutexes guard plain queues, counters and maps
/// that every step leaves valid, so a panicked holder's data is still
/// usable.
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
