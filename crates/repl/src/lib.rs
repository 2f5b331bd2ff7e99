//! # terp-repl — WAL-shipping replication, warm standby, and failover
//!
//! The durable service (terp-service + terp-persist) survives a crash of
//! its own process; this crate makes the service survive the loss of its
//! whole *machine* without weakening the paper's temporal-exposure
//! invariant. A replication **leader** ([`ReplLeader`]) tails the two
//! files of every shard's durable store — the live write-ahead log through
//! [`terp_persist::TailReader`], and the checkpoint log whenever a
//! checkpoint commits — and streams their raw bytes to
//! **followers** ([`ReplFollower`]) over the terp-net frame codec (message
//! set: [`terp_net::repl`]). Bootstrap is not a separate protocol: it is
//! the same stream from byte 0. A follower writes shipped bytes *verbatim*
//! into its mirror — so the mirror is byte-identical to the leader's
//! durable prefix by construction — and keeps a warm standby registry by
//! feeding them to the same [`terp_persist::Replay`] a restart runs,
//! reporting a per-shard applied watermark. A checkpoint truncating the
//! leader's log neither drops the connection nor loses a record.
//!
//! **Failover** is where TERP differs from a stock log-shipping design.
//! Promotion ([`ReplFollower::promote`]) does not resume the leader's
//! runtime state: it opens the mirror through the ordinary durable
//! recovery path ([`terp_persist::DurableStore::open`] via
//! [`terp_service::PmoServer::try_start`]), which force-closes every
//! exposure window the leader had open at its death and reseals the
//! affected pools — their MERR placement re-randomizes on next attach. A
//! promoted follower therefore *never* exposes a window the dead leader
//! had open (DESIGN.md §14). Until promotion the standby's service is
//! read-only: every client mutation is refused with
//! [`terp_service::ServiceError::ReadOnly`].
//!
//! Observability: when a [`terp_trace::TraceRecorder`] is configured, the
//! leader records a `ReplShip{shard, seq}` event per shipped record and
//! the follower a matching `ReplApply{shard, seq}` — the offline
//! happens-before checker (terp-analysis) joins the two as a
//! synchronization edge, extending race detection across the replication
//! boundary.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod conn;
pub mod follower;
pub mod leader;

pub use follower::{ReplFollower, ReplFollowerConfig, ReplLag};
pub use leader::{ReplLeader, ReplLeaderConfig, ShardLag};
