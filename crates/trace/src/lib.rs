//! # terp-trace — always-on flight recorder for the TERP service
//!
//! The static analyzer's W002 check (terp-analysis) proves conservatively
//! that exposure windows cannot be misused across threads; this crate is
//! its dynamic counterpart. The service records every window-plane
//! operation (attach/detach/grant/revoke/expire/read/write) and every
//! synchronization event (shard lock acquisitions, seqlock publishes,
//! sweeper unparks) into per-thread lock-free rings. An offline checker
//! (`terp-analysis::hb`) replays the dump, reconstructs the happens-before
//! partial order from the sync edges, and flags *witnessed* races — window
//! overlaps, stranger reads, use-after-close — as TERP-D2xx diagnostics.
//!
//! Design constraints (DESIGN.md §12):
//!
//! * **Bounded overhead** — recording is one thread-local lookup plus a
//!   push into a single-producer ring of plain atomics: no shared
//!   cache-line traffic, no locks, no allocation on the hot path. Cheap
//!   enough to leave on under production load ("flight recorder").
//! * **Bounded memory** — rings are fixed-size and overwrite-oldest;
//!   overflow drops the *oldest* events and counts them, so a dump is
//!   always a truthful suffix of each thread's history.
//! * **No runtime clocks** — vector clocks are reconstructed offline by
//!   the checker; the recorder stamps nanoseconds from the process clock
//!   ([`time`]: a calibrated `rdtsc` where the TSC is invariant), the one
//!   the service times its windows with, and a snapshot copies the stamps
//!   as they are. Flight mode additionally samples data events 1-in-16
//!   (window and sync events are always recorded), keeping the hot-path
//!   cost a few ns/op.
//!
//! ```
//! use terp_trace::{EventKind, TraceConfig, TraceRecorder};
//!
//! let rec = TraceRecorder::new(TraceConfig::flight());
//! rec.record(EventKind::Attach { pmo: 1, client: 7, writable: true });
//! rec.record(EventKind::Detach { pmo: 1, client: 7 });
//! let set = rec.snapshot();
//! assert_eq!(set.total_events(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod dump;
pub mod event;
pub mod recorder;
pub mod ring;
pub mod time;

pub use clock::VectorClock;
pub use dump::{ThreadTrace, TraceSet};
pub use event::{Event, EventKind, PoolId};
pub use recorder::{TraceConfig, TraceRecorder};
pub use ring::EventRing;
