//! Service lifecycle: shutdown and drain, standby promotion, and the
//! merged report.

use std::sync::atomic::Ordering;

use terp_arch::CondStats;
use terp_pmo::PmoId;
use terp_trace::time;

use super::PmoService;
use crate::error::ServiceError;
use crate::metrics::{merge_cond_stats, merge_wal_stats, merge_window_stats, ServiceReport};

impl PmoService {
    /// Whether the service is a warm standby still refusing mutations.
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Acquire)
    }

    /// Promotes a standby to leader: the read-only gate opens and every
    /// mutating entry point starts accepting traffic. Idempotent; a no-op
    /// on a service that never was a standby. The durable-mode open-time
    /// recovery (which force-reseals crash-open exposure windows) has
    /// already run by construction — promotion only flips the gate.
    pub fn promote(&self) {
        self.read_only.store(false, Ordering::Release);
    }

    /// Flags the service as shutting down: new sessions are refused and
    /// Basic-semantics waiters wake with [`ServiceError::ShuttingDown`].
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.cvar.notify_all();
        }
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.is_down()
    }

    /// Force-closes every window: drains the circular buffers, detaches
    /// every mapped pool, revokes every client grant, finalizes window
    /// statistics, and checkpoints each durable store. Nobody is left to
    /// hand an error to, so each failed step counts in
    /// [`ServiceReport::drain_errors`] and the drain goes on. Call after
    /// [`Self::begin_shutdown`] and after the sweeper has stopped.
    pub fn drain(&self) {
        for shard in &self.shards {
            let mut state = self.lock(shard);
            let now = time::now_ns();
            // TERP: retire every tracked entry, live holders included.
            for pmo in state.engine.drain() {
                let done = state.unmap_pool(pmo, now);
                state.drain_errors += u64::from(done.is_err());
            }
            // Anything still mapped: Basic-semantics owners' pools,
            // unprotected pools, untracked attaches.
            let mapped: Vec<PmoId> = state
                .entries()
                .map(|e| e.pmo)
                .filter(|&p| state.space.is_attached(p))
                .collect();
            for pmo in mapped {
                let done = state.unmap_pool(pmo, now);
                state.drain_errors += u64::from(done.is_err());
            }
            // Close every remaining client session; the last one out clears
            // its pool's grant mirror.
            for (pmo, client) in state.sessions() {
                state.revoke_client(client, pmo, now);
            }
            state.windows.finalize(now);
            shard.cvar.notify_all();
            // Durable mode: nobody is waiting on this checkpoint, so it
            // compacts — the next startup replays the image and nothing
            // else. On failure the WAL still recovers everything.
            let done = state.checkpoint();
            state.drain_errors += u64::from(done.is_err());
        }
    }

    /// Checkpoints every shard's durable store now (a no-op in memory): the
    /// same protocol the stores' own trigger runs at the end of an
    /// operation, with windows and sessions open or not. [`Self::drain`]
    /// ends each shard with it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Persist`] from the first shard that fails (its WAL
    /// is intact); the shards after it are still attempted.
    pub fn checkpoint(&self) -> Result<(), ServiceError> {
        let mut outcome = Ok(());
        for shard in &self.shards {
            let result = self.lock(shard).checkpoint();
            outcome = outcome.and(result);
        }
        outcome
    }

    /// Merges every shard's statistics — and every thread's metric slab —
    /// into one report.
    pub fn report(&self) -> ServiceReport {
        let (ops, blocked_ns, queue_wait, threads_observed) = self.metrics.merged();
        let mut cond = CondStats::default();
        let mut attach_syscalls = 0;
        let mut detach_syscalls = 0;
        let mut randomizations = 0;
        let mut ew_over_target = 0;
        let mut sweeper_syncs = 0;
        let mut sweeper_errors = 0;
        let mut drain_errors = 0;
        let mut ew = Default::default();
        let mut tew = Default::default();
        let mut wal = None;
        for shard in &self.shards {
            let state = self.lock(shard);
            merge_cond_stats(&mut cond, state.engine.stats());
            attach_syscalls += state.attach_syscalls;
            detach_syscalls += state.detach_syscalls;
            randomizations += state.randomizations;
            ew_over_target += state.ew_over_target;
            sweeper_syncs += state.sweeper_syncs;
            sweeper_errors += state.sweeper_errors;
            drain_errors += state.drain_errors;
            ew = merge_window_stats(ew, state.windows.ew_stats());
            tew = merge_window_stats(tew, state.windows.tew_stats());
            if let Some(store) = &state.store {
                merge_wal_stats(wal.get_or_insert_with(Default::default), store.stats());
            }
        }
        ServiceReport {
            scheme: self.config.scheme,
            ops,
            cond,
            attach_syscalls,
            detach_syscalls,
            randomizations,
            ew_over_target,
            sweeper_syncs,
            sweeper_errors,
            drain_errors,
            blocked_ns,
            queue_wait,
            sweep_passes: self.sweep_passes.load(Ordering::Relaxed),
            sweeper_unparks: self.sweeper_unparks.load(Ordering::Relaxed),
            threads_observed,
            ew,
            tew,
            recovery: self.recovery,
            wal,
        }
    }
}
