//! [`Batch`]: the commit protocol. The mutating bodies themselves live
//! with their plain twins in `windows`, `data` and `alloc`.

#[cfg(doc)]
use terp_persist::DurableStore;

use super::{PmoService, StateGuard};
use crate::error::ServiceError;

/// A run of mutating operations sharing one commit.
///
/// Each entry point is the [`PmoService`] method of the same name minus its
/// end-of-operation [`DurableStore::commit`]: the operation is applied and
/// journaled, and the batch remembers which shard stores it left holding
/// uncommitted records. [`Batch::commit`] then does one `write` + one
/// `fdatasync` per such store. Until it returns, nothing the batch did —
/// nor anything read after [`Batch::is_dirty`] turned true — may be
/// acknowledged to anyone: that is the `visibility = durable` rule, moved
/// from operation end to batch end. Under `submit` and in memory no store
/// ever holds uncommitted records, so a batch never gets dirty and its
/// commit is free.
///
/// Another caller of the same shard (a plain call, another batch, the
/// sweeper committing an expiry nobody else did) may sync this batch's
/// records early; that only makes them durable sooner.
#[derive(Debug)]
#[must_use = "a dropped batch leaves its records unsynced until the shard's next commit"]
pub struct Batch<'a> {
    pub(super) svc: &'a PmoService,
    /// Indices of the shards whose stores this batch left uncommitted.
    pub(super) dirty: Vec<usize>,
}

impl<'a> Batch<'a> {
    /// The service this batch runs against (reads go straight to it).
    pub fn service(&self) -> &'a PmoService {
        self.svc
    }

    /// Whether an operation of this batch left a shard store with
    /// uncommitted records — from here on every result, reads included,
    /// must wait for [`Self::commit`].
    pub fn is_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Commits every shard store the batch left uncommitted: one `write` +
    /// one `fdatasync` each, under the shard lock.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Persist`] when a store fails to write or sync; none
    /// of the batch's results may then be acknowledged as durable.
    pub fn commit(self) -> Result<(), ServiceError> {
        for idx in self.dirty {
            self.svc.lock(&self.svc.shards[idx]).commit()?;
        }
        Ok(())
    }

    /// Ends one operation's critical section: the shard's end-of-op hook
    /// (incremental-checkpoint trigger), a note if the store now holds
    /// uncommitted records, and the lock drop.
    pub(super) fn finish(&mut self, mut state: StateGuard<'_>) -> Result<(), ServiceError> {
        if state.finish_op()? {
            let idx = state.idx as usize;
            if !self.dirty.contains(&idx) {
                self.dirty.push(idx);
            }
        }
        Ok(())
    }
}
