//! `terp-persist` — durable file-backed storage for TERP PMO pools.
//!
//! The in-process [`terp_pmo`] substrate models persistent memory, but its
//! pools live in the process heap: a real crash loses everything, which
//! makes the crash-consistency story of the paper untestable end to end.
//! This crate closes that gap with a classic log + checkpoint design,
//! extended with the piece specific to TERP: the log records
//! *protection-state* mutations alongside data, so recovery can enforce the
//! temporal-exposure invariant across crashes.
//!
//! # Pieces
//!
//! * [`record`] — the WAL record set, its CRC-framed binary encoding, and
//!   the one rule by which every reader finds where a log ends: a header of
//!   zeros (clean), an invalid frame (torn), or a frame whose sequence
//!   number does not exceed its predecessor's (stale, therefore torn).
//! * [`wal`] — [`WalWriter`]: buffered append + explicit sync, in memory or
//!   into a file reserved ahead of the records in zero-filled, synced
//!   blocks of [`WAL_RESERVE`] bytes, so that the sync an acknowledgement
//!   waits for is data-only; truncation zeroes, it does not shrink, and the
//!   first write of an open zeroes whatever a torn write left behind the
//!   log's end before it lands; a failed write or sync is final.
//! * [`crash`] — deterministic crash injection: [`enumerate_crash_points`]
//!   walks a durable log image and yields every truncation and corruption
//!   point; [`inject`] applies one.
//! * [`recovery`] — [`Replay`], the one replayer behind restart, follower
//!   bootstrap, the warm standby and promotion: install the committed
//!   checkpoint ([`CheckpointImage`]), apply the log record by record (with
//!   `Alloc` divergence checking and bounds-checked page images), roll back
//!   in-flight transactions via [`terp_pmo::txn::recover`], then
//!   **reseal**: every exposure window open at crash time is force-closed
//!   and its pool's MERR placement re-randomized
//!   ([`terp_pmo::Pmo::reseal`]) before any session can reattach. Windows
//!   are re-sealed, never resumed. [`recover`] / [`recover_from`] run it
//!   over byte images.
//! * [`writer`] — the pipelined asynchronous log path:
//!   [`AsyncWalWriter`] accepts appends at *submit* through a bounded
//!   queue, batches adaptively on a background thread, and publishes a
//!   monotonic durability watermark ([`DurabilityGate`]) that callers wait
//!   on only when they need durability.
//! * [`store`] — [`DurableStore`]: one directory (`wal.log`, `ckpt.log`
//!   and nothing else) with open-time recovery, the one durable policy
//!   ([`Visibility`]: ack at submit through the pipelined writer, or ack
//!   once durable through the inline one), and the one crash-safe
//!   checkpoint — one batch appended to `ckpt.log`, committed by a closing
//!   copy of its WAL marker: the dirty pages when its trigger
//!   ([`CHECKPOINT_TRIGGER`] records) forces it at the end of an operation,
//!   the whole image when nobody is waiting or the log has doubled. Damage
//!   inside a completed checkpoint is [`PersistError::CheckpointCorrupt`],
//!   never a shorter image.
//! * [`tail`] — [`TailReader`]: stable tail reads over a *live* WAL for log
//!   shipping; a torn tail under a racing append reads as
//!   [`TailStatus::NeedMore`], never as corruption, and a checkpoint's
//!   truncation as [`TailStatus::Truncated`] even when the log has regrown
//!   past the reader since. It reads in bounded chunks up to the end of the
//!   log, never the reservation behind it.
//!
//! # Quick start
//!
//! ```
//! use terp_persist::{DurableStore, Visibility, WalRecord};
//! use terp_pmo::{OpenMode, PmoRegistry};
//! # fn main() -> Result<(), terp_persist::PersistError> {
//! let dir = std::env::temp_dir().join(format!("terp-doc-{}", std::process::id()));
//! let (mut store, recovered, report) = DurableStore::open(&dir, Visibility::Durable)?;
//! assert_eq!(report.pools_recovered, 0); // fresh directory
//!
//! // Mirror every mutation into the log…
//! let mut reg = recovered.registry;
//! let id = reg.create("ledger", 1 << 20, OpenMode::ReadWrite)?;
//! store.log(&WalRecord::PoolCreate {
//!     id,
//!     name: "ledger".into(),
//!     size: 1 << 20,
//!     mode: OpenMode::ReadWrite,
//! })?;
//! store.sync()?;
//!
//! // …and the next open replays it.
//! let (_, recovered, _) = DurableStore::open(&dir, Visibility::Durable)?;
//! assert!(recovered.registry.lookup("ledger").is_some());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod crash;
pub mod crc;
pub mod error;
pub mod reader;
pub mod record;
pub mod recovery;
pub mod store;
pub mod tail;
pub mod wal;
pub mod writer;

pub use crash::{enumerate_crash_points, inject, CrashMode, CrashPoint};
pub use error::PersistError;
pub use reader::{ReadError, Reader};
pub use record::{first_seq, read_log, LogContents, WalRecord};
pub use recovery::{
    recover, recover_from, CheckpointImage, RecoveredState, RecoveryReport, Replay,
};
pub use store::{
    load_checkpoint, DurableStore, Visibility, CHECKPOINT_TRIGGER, CKPT_FILE, WAL_FILE,
};
pub use tail::{TailChunk, TailReader, TailStatus};
pub use wal::{WalStats, WalWriter, WAL_RESERVE};
pub use writer::{AsyncWalWriter, DurabilityGate};
