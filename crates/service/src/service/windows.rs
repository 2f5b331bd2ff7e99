//! Exposure windows: attach and detach under the three scheme families
//! (plain entry points and their [`Batch`] bodies), the circular-buffer
//! sweep, and the sweeper thread's registration and wake-up.

use std::sync::atomic::Ordering;
use std::time::Duration;

use terp_arch::{AttachOutcome, DetachOutcome, SweepAction};
use terp_core::config::Scheme;
use terp_pmo::{Permission, PmoId};
use terp_trace::{time, EventKind};

use super::{Batch, PmoService, PASS_RUNNING};
use crate::error::ServiceError;
use crate::metrics::ThreadSlab;
use crate::ClientId;

impl PmoService {
    /// Opens a session: the client attaches to the pool with the requested
    /// permission, under the scheme's contention semantics. Under Basic
    /// semantics this call *blocks* while another client owns the pool.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownPmo`], [`ServiceError::AlreadyAttached`],
    /// [`ServiceError::ShuttingDown`], or a substrate error (e.g. mode
    /// mismatch).
    pub fn attach(
        &self,
        client: ClientId,
        pmo: PmoId,
        perm: Permission,
    ) -> Result<(), ServiceError> {
        self.attach_with_wait(client, pmo, perm).map(|_| ())
    }

    /// [`Self::attach`], additionally returning the nanoseconds the client
    /// spent *queued* on Basic-semantics serialization (always 0 for
    /// non-blocking schemes). Load generators use this to attribute condvar
    /// wait and service time to separate latency series.
    pub fn attach_with_wait(
        &self,
        client: ClientId,
        pmo: PmoId,
        perm: Permission,
    ) -> Result<u64, ServiceError> {
        self.one(|b| b.attach_with_wait(client, pmo, perm))
    }

    /// Closes a session. Under EW-conscious semantics the detach may be
    /// *delayed* (the pool stays mapped for window combining; the sweeper
    /// finishes the job), but the client's own permission is always revoked
    /// before this call returns.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownPmo`] or [`ServiceError::NotAttached`].
    pub fn detach(&self, client: ClientId, pmo: PmoId) -> Result<(), ServiceError> {
        self.one(|b| b.detach(client, pmo))
    }

    /// Runs one circular-buffer expiry walk over every shard (the sweeper
    /// thread runs it between parks; tests with `sweep_period_us == 0`
    /// call it directly). Returns the number of actions performed.
    pub fn sweep_all(&self) -> usize {
        self.sweep_pass().0
    }

    /// One pass of the sweeper thread, bracketed by its plan: publishes
    /// [`PASS_RUNNING`] before the first shard lock, sweeps, then publishes
    /// and returns how long the thread parks — until the earliest deadline
    /// the pass found, but at least `floor_ns`, or (`None`) until an attach
    /// or shutdown wakes it. The plan is stored before the thread parks; an
    /// unpark that lands in between makes the park return at once.
    pub(crate) fn sweeper_pass(&self, floor_ns: u64) -> Option<Duration> {
        // Sequenced before the first shard lock: every attach that takes a
        // shard's lock after this pass scanned it reads PASS_RUNNING or a
        // later plan (see `wake_sweeper_for`). That order comes from the
        // shard lock; the plan word publishes no other data, and its
        // Release stores / Acquire load pair only the plan itself.
        self.sweeper_plan.store(PASS_RUNNING, Ordering::Release);
        let Some(deadline) = self.sweep_pass().1 else {
            self.sweeper_plan.store(u64::MAX, Ordering::Release);
            return None;
        };
        let now = time::now_ns();
        let wait = deadline.saturating_sub(now).max(floor_ns);
        self.sweeper_plan
            .store(now.saturating_add(wait), Ordering::Release);
        Some(Duration::from_nanos(wait))
    }

    /// The sweeper's published plan word, for tests that poll it.
    #[cfg(test)]
    pub(crate) fn sweeper_plan(&self) -> u64 {
        self.sweeper_plan.load(Ordering::Acquire)
    }

    /// The pass itself: actions performed, and the earliest next deadline
    /// over every shard, each read under the lock its sweep already holds.
    fn sweep_pass(&self) -> (usize, Option<u64>) {
        // Stamp the wake tickets observed at pass start: every Unpark with
        // a ticket <= this one really happens-before this pass (the
        // AcqRel fetch_add / Acquire load pair on `unpark_tokens`).
        if self.tracer.is_some() {
            let token = self.unpark_tokens.load(Ordering::Acquire);
            self.trace(EventKind::Wakeup { token });
        }
        let mut total = 0;
        let mut earliest: Option<u64> = None;
        if self.config.scheme.has_thread_permissions() {
            for shard in &self.shards {
                let mut state = self.lock(shard);
                let now = time::now_ns();
                let actions = state.engine.sweep(now);
                total += actions.len();
                let mut expired = false;
                for action in actions {
                    let done = match action {
                        SweepAction::Detach(pmo) => {
                            expired = true;
                            let done = state.unmap_pool(pmo, now);
                            state.trace(EventKind::Expire { pmo: pmo.raw() });
                            time::spin_ns(self.config.cost.detach_ns);
                            done
                        }
                        SweepAction::Randomize(pmo) => {
                            let done = state.randomize_pool(pmo, now);
                            // The charge runs under the shard lock: every
                            // client of the pool stalls during a relocation,
                            // as in the paper's multithreaded model.
                            time::spin_ns(self.config.cost.randomize_ns);
                            done
                        }
                    };
                    state.sweeper_errors += u64::from(done.is_err());
                }
                // A pass that expired nothing journals nothing: whatever
                // sits in the store's buffer is some caller's open batch,
                // theirs to commit — or an earlier expiry's close, which
                // the pass commits once it has waited one EW target.
                let done = state.finish_sweep(now, expired);
                state.sweeper_errors += u64::from(done.is_err());
                earliest = earliest.into_iter().chain(state.next_deadline()).min();
            }
        }
        self.sweep_passes.fetch_add(1, Ordering::Relaxed);
        (total, earliest)
    }

    /// The earliest moment (service ns) at which the sweeper has work: a
    /// tracked circular-buffer entry can expire, or records it left for a
    /// shard's next commit fall to it to commit. `None` when nothing is
    /// tracked or left behind. The sweeper thread parks on the same value,
    /// computed by its pass under the locks the pass already holds; this
    /// is that fold on its own. Entry starts only move via a first attach
    /// (which wakes the sweeper when its plan would miss the new expiry) or
    /// a sweep itself, and only a sweep leaves records behind, so the plan
    /// never becomes stale-late.
    pub fn next_expiry_ns(&self) -> Option<u64> {
        if !self.config.scheme.has_thread_permissions() {
            return None;
        }
        self.shards
            .iter()
            .filter_map(|shard| self.lock(shard).next_deadline())
            .min()
    }

    /// Registers the sweeper's thread handle so attach paths can wake it
    /// (called by the sweeper itself before its first pass).
    pub(crate) fn register_sweeper(&self, thread: std::thread::Thread) {
        // `Sweeper::spawn` refuses a second sweeper; should two spawns race
        // past that check, the first registration stands.
        let _ = self.sweeper_thread.set(thread);
    }

    /// Whether a sweeper thread has registered with this service.
    pub(crate) fn has_sweeper(&self) -> bool {
        self.sweeper_thread.get().is_some()
    }

    /// Wakes the sweeper unless its published plan already catches a
    /// window that expires at `expiry`. Called by a first attach after its
    /// shard lock is released.
    ///
    /// No wake is lost. The shard lock orders the attach's buffer insert
    /// against the sweeper pass's scan of that shard. If the scan comes
    /// second, it sees the entry and the pass plans for it. If the scan
    /// comes first, the pass's `PASS_RUNNING` store was sequenced before
    /// that lock and so happens-before this load: the attach reads
    /// `PASS_RUNNING` (and wakes), that pass's plan, or a later one. A plan
    /// at or before `expiry` wakes the sweeper in time for a pass that
    /// scans the shard after the insert; a later plan makes the attach wake
    /// it now. An unpark that lands before the park makes the park return
    /// at once.
    fn wake_sweeper_for(&self, expiry: u64) {
        let plan = self.sweeper_plan.load(Ordering::Acquire);
        if plan != PASS_RUNNING && plan <= expiry {
            return;
        }
        let Some(thread) = self.sweeper_thread.get() else {
            return;
        };
        if self.tracer.is_some() {
            // Issue the wake ticket before the unpark so the edge exists
            // by the time the sweeper stamps its Wakeup.
            let token = self.unpark_tokens.fetch_add(1, Ordering::AcqRel) + 1;
            self.trace(EventKind::Unpark { token });
        }
        thread.unpark();
        self.sweeper_unparks.fetch_add(1, Ordering::Relaxed);
    }
}

impl Batch<'_> {
    /// [`PmoService::attach`] without its end-of-operation commit.
    pub fn attach(
        &mut self,
        client: ClientId,
        pmo: PmoId,
        perm: Permission,
    ) -> Result<(), ServiceError> {
        self.attach_with_wait(client, pmo, perm).map(|_| ())
    }

    /// [`PmoService::attach_with_wait`] without its end-of-operation commit.
    pub fn attach_with_wait(
        &mut self,
        client: ClientId,
        pmo: PmoId,
        perm: Permission,
    ) -> Result<u64, ServiceError> {
        let svc = self.svc;
        svc.check_writable()?;
        let (cost, waited) = match svc.config.scheme {
            Scheme::Unprotected => (self.attach_unprotected(client, pmo, perm)?, 0),
            Scheme::Merr | Scheme::BasicSemantics => self.attach_basic(client, pmo, perm)?,
            Scheme::TerpSoftware | Scheme::TerpFull { .. } => {
                (self.attach_terp(client, pmo, perm)?, 0)
            }
        };
        time::spin_ns(cost);
        Ok(waited)
    }

    fn attach_unprotected(
        &mut self,
        client: ClientId,
        pmo: PmoId,
        perm: Permission,
    ) -> Result<u64, ServiceError> {
        let svc = self.svc;
        let mut state = svc.lock_pool(pmo)?;
        if svc.is_down() {
            return Err(ServiceError::ShuttingDown);
        }
        if state.is_holder(client, pmo) {
            return Err(ServiceError::AlreadyAttached { client, pmo });
        }
        let mut cost = 0;
        if !state.space.is_attached(pmo) {
            state.map_pool(pmo, perm, time::now_ns())?;
            cost = svc.config.cost.attach_ns;
        }
        state.add_holder(client, pmo, perm);
        state.trace(EventKind::Attach {
            pmo: pmo.raw(),
            client: client as u64,
            writable: perm == Permission::ReadWrite,
        });
        self.finish(state)?;
        svc.metrics.with_slab(|s| ThreadSlab::bump(&s.attaches));
        Ok(cost)
    }

    fn attach_basic(
        &mut self,
        client: ClientId,
        pmo: PmoId,
        perm: Permission,
    ) -> Result<(u64, u64), ServiceError> {
        let svc = self.svc;
        let shard = svc.shard(pmo);
        let mut state = svc.lock_pool(pmo)?;
        let mut waited_from = None;
        loop {
            if svc.is_down() {
                return Err(ServiceError::ShuttingDown);
            }
            if state.is_holder(client, pmo) {
                return Err(ServiceError::AlreadyAttached { client, pmo });
            }
            if !state.is_held(pmo) {
                break;
            }
            // Basic semantics: serialize on the owner's window. Sleep on the
            // shard condvar; the timeout bounds shutdown latency.
            if waited_from.is_none() {
                waited_from = Some(time::now_ns());
                svc.metrics
                    .with_slab(|s| ThreadSlab::bump(&s.attach_conflicts));
            }
            state = state.wait_on(&shard.cvar, Duration::from_millis(1));
        }
        let mut waited = 0;
        if let Some(from) = waited_from {
            waited = time::now_ns().saturating_sub(from);
            svc.metrics.with_slab(|s| {
                s.blocked_ns.fetch_add(waited, Ordering::Relaxed);
                s.queue_wait
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .record(waited);
            });
        }
        state.map_pool(pmo, perm, time::now_ns())?;
        // The owner is the pool's only holder: never a crowded mirror.
        state.add_holder(client, pmo, perm);
        state.trace(EventKind::Attach {
            pmo: pmo.raw(),
            client: client as u64,
            writable: perm == Permission::ReadWrite,
        });
        self.finish(state)?;
        svc.metrics.with_slab(|s| ThreadSlab::bump(&s.attaches));
        Ok((svc.config.cost.attach_ns, waited))
    }

    fn attach_terp(
        &mut self,
        client: ClientId,
        pmo: PmoId,
        perm: Permission,
    ) -> Result<u64, ServiceError> {
        let svc = self.svc;
        let mut state = svc.lock_pool(pmo)?;
        if svc.is_down() {
            return Err(ServiceError::ShuttingDown);
        }
        if state.is_holder(client, pmo) {
            return Err(ServiceError::AlreadyAttached { client, pmo });
        }
        let now = time::now_ns();
        let outcome = state.engine.condat(pmo, now);
        if outcome.needs_syscall() && !state.space.is_attached(pmo) {
            if let Err(e) = state.map_pool(pmo, perm, now) {
                // Undo the speculative buffer entry: the attach never
                // happened.
                state.engine.evict(pmo);
                return Err(e);
            }
        }
        state.grant_client(client, pmo, perm, now);
        state.trace(EventKind::Attach {
            pmo: pmo.raw(),
            client: client as u64,
            writable: perm == Permission::ReadWrite,
        });
        // A fresh circular-buffer entry expires one EW target from now.
        let expiry = (outcome == AttachOutcome::FirstAttach)
            .then(|| now.saturating_add(state.engine.max_ew()));
        let done = self.finish(state);
        // The entry stays tracked even if the commit failed, so the
        // sweeper must hear of it either way.
        if let Some(expiry) = expiry {
            svc.wake_sweeper_for(expiry);
        }
        done?;
        svc.metrics.with_slab(|s| ThreadSlab::bump(&s.attaches));
        let syscall = outcome.needs_syscall() || svc.config.scheme.cond_is_syscall();
        Ok(if syscall {
            svc.config.cost.attach_ns
        } else {
            svc.config.cost.cond_ns
        })
    }

    /// [`PmoService::detach`] without its end-of-operation commit.
    pub fn detach(&mut self, client: ClientId, pmo: PmoId) -> Result<(), ServiceError> {
        let svc = self.svc;
        let cost = match svc.config.scheme {
            Scheme::Unprotected => self.detach_unprotected(client, pmo)?,
            Scheme::Merr | Scheme::BasicSemantics => self.detach_basic(client, pmo)?,
            Scheme::TerpSoftware | Scheme::TerpFull { .. } => self.detach_terp(client, pmo)?,
        };
        time::spin_ns(cost);
        Ok(())
    }

    fn detach_unprotected(&mut self, client: ClientId, pmo: PmoId) -> Result<u64, ServiceError> {
        let svc = self.svc;
        let mut state = svc.lock_pool(pmo)?;
        if !state.is_holder(client, pmo) {
            return Err(ServiceError::NotAttached { client, pmo });
        }
        // Unprotected never unmaps: the pool stays exposed (that is the
        // point of the baseline).
        state.remove_holder(client, pmo);
        state.trace(EventKind::Detach {
            pmo: pmo.raw(),
            client: client as u64,
        });
        drop(state);
        svc.metrics.with_slab(|s| ThreadSlab::bump(&s.detaches));
        Ok(0)
    }

    fn detach_basic(&mut self, client: ClientId, pmo: PmoId) -> Result<u64, ServiceError> {
        let svc = self.svc;
        let mut state = svc.lock_pool(pmo)?;
        if !state.is_holder(client, pmo) {
            return Err(ServiceError::NotAttached { client, pmo });
        }
        state.unmap_pool(pmo, time::now_ns())?;
        state.remove_holder(client, pmo);
        state.trace(EventKind::Detach {
            pmo: pmo.raw(),
            client: client as u64,
        });
        self.finish(state)?;
        svc.metrics.with_slab(|s| ThreadSlab::bump(&s.detaches));
        svc.shard(pmo).cvar.notify_all();
        Ok(svc.config.cost.detach_ns)
    }

    fn detach_terp(&mut self, client: ClientId, pmo: PmoId) -> Result<u64, ServiceError> {
        let svc = self.svc;
        let mut state = svc.lock_pool(pmo)?;
        if !state.is_holder(client, pmo) {
            return Err(ServiceError::NotAttached { client, pmo });
        }
        let now = time::now_ns();
        let mut outcome = state.engine.conddt(pmo, now);
        if matches!(
            svc.config.scheme,
            Scheme::TerpFull {
                window_combining: false
            }
        ) && outcome == DetachOutcome::DelayedDetach
        {
            // The +Cond ablation has no delayed-detach hardware: retire the
            // entry and detach for real.
            state.engine.evict(pmo);
            outcome = DetachOutcome::FullDetach;
        }
        state.revoke_client(client, pmo, now);
        state.trace(EventKind::Detach {
            pmo: pmo.raw(),
            client: client as u64,
        });
        if outcome.needs_syscall() && state.space.is_attached(pmo) {
            state.unmap_pool(pmo, now)?;
        }
        self.finish(state)?;
        svc.metrics.with_slab(|s| ThreadSlab::bump(&s.detaches));
        let syscall = outcome.needs_syscall() || svc.config.scheme.cond_is_syscall();
        Ok(if syscall {
            svc.config.cost.detach_ns
        } else {
            svc.config.cost.cond_ns
        })
    }
}
