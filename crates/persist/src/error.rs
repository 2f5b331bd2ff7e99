//! Error type for the persist layer.

use std::fmt;
use std::io;

use terp_pmo::{PmoError, PmoId};

/// Errors produced by WAL, checkpoint, and recovery operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// The underlying file system failed.
    Io(io::Error),
    /// A *completed* checkpoint is damaged: `ckpt.log` does not decode
    /// through the checkpoint the WAL's head marker commits (it stops short,
    /// or closes that checkpoint at another length), or a closing frame
    /// disagrees with its own position. Unlike a torn WAL tail this is never
    /// truncated away — the WAL that could have rebuilt the lost state is
    /// already gone.
    CheckpointCorrupt(String),
    /// Replaying the log diverged from the logged outcome (e.g. an `Alloc`
    /// record whose replayed offset differs) — the log and the pool state it
    /// describes are inconsistent.
    ReplayDivergence {
        /// Pool being replayed.
        pmo: PmoId,
        /// What diverged.
        detail: String,
    },
    /// The PMO substrate rejected a replayed operation.
    Substrate(PmoError),
    /// The log writer failed a write or sync before, and refuses every call.
    WriterFailed(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist: io error: {e}"),
            PersistError::CheckpointCorrupt(why) => {
                write!(f, "persist: corrupt checkpoint: {why}")
            }
            PersistError::ReplayDivergence { pmo, detail } => {
                write!(f, "persist: replay diverged on pool {pmo}: {detail}")
            }
            PersistError::Substrate(e) => write!(f, "persist: {e}"),
            PersistError::WriterFailed(why) => write!(f, "persist: log writer failed: {why}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Substrate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<PmoError> for PersistError {
    fn from(e: PmoError) -> Self {
        PersistError::Substrate(e)
    }
}
