//! The service proper: scheme semantics enforced at the shard boundary.
//!
//! * **Basic semantics** (MM / basic-semantics ablation): a pool has at most
//!   one holder, its owner; a conflicting attach *blocks* on the shard
//!   condvar until the owner detaches or the service shuts down.
//! * **EW-conscious semantics** (TM / TT): attach/detach run through the
//!   shard's [`terp_arch::CondEngine`]; lowered operations update only the pool's
//!   holder list (a *silent* conditional op), and only first-attach /
//!   full-detach outcomes touch the address space.
//! * **Unprotected**: constructs are bookkeeping only — pools stay mapped
//!   once touched, nothing is checked.
//!
//! Whatever the scheme, a client's right to a pool is decided from one
//! record by one rule: its entry in the pool's holder list, read by
//! `ShardState::client_may` on the locked paths and through the pool's
//! published grant slots on the fast path.
//!
//! Hot-path layering (DESIGN.md §11): data ops and permission probes first
//! try the lock-free fast path — a `fastpath::PoolIndex` lookup
//! plus a seqlock snapshot of the pool's published window state — and fall
//! back to the locked slow path on any miss, mid-publish collision,
//! crowded-pool overflow, or would-be failure, so every error and denial is
//! produced by exactly the same code as before. Pool creation is sharded
//! too: a global atomic id allocator plus hash-sharded name maps replace
//! the old global registry mutex. Metrics go to per-thread slabs
//! (`metrics::MetricsHub`) merged at report time.
//!
//! Every operation computes its cost charge (see [`crate::CostModel`])
//! under the shard lock but *spins it off after the lock is released*, so
//! modeled syscall latency does not serialize unrelated clients of the same
//! shard.
//!
//! The service is one type, [`PmoService`], and its batched twin [`Batch`];
//! their `impl` blocks are split by concern. This file holds the struct,
//! construction and recovery adoption, the shard-lock guard, and the private
//! gates and helpers every entry point calls (`lock`, `lock_pool`,
//! `lock_for`, `one`, `is_down`, `check_writable`, the trace shims); the
//! rest is in `batch` (the commit protocol), `windows` (attach/detach per
//! scheme and the sweeper), `data` (read/write/cas and the lock-free fast
//! path), `alloc` (pools, objects, roots) and `lifecycle` (shutdown, drain,
//! promotion, report).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use terp_core::config::Scheme;
use terp_persist::DurableStore;
use terp_pmo::{AccessKind, ObjectId, PmoId};
use terp_trace::{EventKind, TraceRecorder};

use crate::clock::ServiceClock;
use crate::config::ServiceConfig;
use crate::error::ServiceError;
use crate::fastpath::{PoolIndex, PoolSlot};
use crate::metrics::{MetricsHub, RecoveryStats, ThreadSlab};
use crate::shard::{Shard, ShardState};
use crate::ClientId;

mod alloc;
mod batch;
mod data;
mod lifecycle;
#[cfg(test)]
mod tests;
mod windows;

pub use batch::Batch;

/// [`PmoService::sweeper_plan`] while a sweep pass runs (and before the
/// sweeper's first pass): every first attach must wake the sweeper, since
/// the pass may already have scanned the attach's shard.
const PASS_RUNNING: u64 = 0;

/// A shard-state guard that records `LockAcquire`/`LockRelease` trace
/// events around the mutex critical section. When tracing is off it is a
/// transparent wrapper adding one branch per lock transition.
///
/// The acquisition index (`ShardState::lock_seq`) is incremented *under*
/// the mutex, so index order is acquisition order: the offline checker
/// derives `release(k) happens-before acquire(k')` for every `k < k'` on
/// the same shard.
///
/// Lock pairs are emitted *lazily*: the `LockAcquire` is written to the
/// ring only when the critical section records its first event (see
/// `ShardState::trace`), and the matching `LockRelease` only if that
/// happened. A section that recorded nothing contributes no lock events —
/// which is happens-before-equivalent (edges are `release(k) → acquire(k')`
/// for every `k < k'`, so empty sections never carry an edge between
/// recorded events) and keeps quiet sections (alloc/free, sampled-out data
/// ops) free of ring traffic.
struct StateGuard<'a> {
    /// `Some` between acquisition and drop; taken by [`Self::wait_on`].
    guard: Option<MutexGuard<'a, ShardState>>,
}

impl<'a> StateGuard<'a> {
    fn acquire(mut guard: MutexGuard<'a, ShardState>) -> Self {
        if guard.tracer.is_some() {
            guard.lock_seq += 1;
            guard.lock_pending.set(true);
        }
        StateGuard { guard: Some(guard) }
    }

    fn record_release(state: &ShardState) {
        // Only close sections that actually opened (recorded an event).
        if !state.lock_pending.replace(false) && state.tracer.is_some() {
            state.trace_raw(EventKind::LockRelease {
                obj: state.idx,
                seq: state.lock_seq,
            });
        }
    }

    /// Sleeps on `cvar` (bounded), releasing and re-acquiring the mutex —
    /// with the release/acquire trace events a plain
    /// [`Condvar::wait_timeout`] would silently skip.
    fn wait_on(mut self, cvar: &Condvar, timeout: Duration) -> Self {
        let guard = self.guard.take().expect("guard present until drop");
        Self::record_release(&guard);
        let (guard, _) = cvar
            .wait_timeout(guard, timeout)
            .unwrap_or_else(|e| e.into_inner());
        Self::acquire(guard)
    }
}

impl Deref for StateGuard<'_> {
    type Target = ShardState;
    fn deref(&self) -> &ShardState {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl DerefMut for StateGuard<'_> {
    fn deref_mut(&mut self) -> &mut ShardState {
        self.guard.as_mut().expect("guard present until drop")
    }
}

impl Drop for StateGuard<'_> {
    fn drop(&mut self) {
        if let Some(guard) = self.guard.take() {
            Self::record_release(&guard);
        }
    }
}

/// The in-process PMO service. Shareable across worker threads via `Arc`;
/// every method takes `&self`.
#[derive(Debug)]
pub struct PmoService {
    config: ServiceConfig,
    clock: ServiceClock,
    /// Hash-sharded name → id maps: pool creation in different name shards
    /// never contends (the old global registry mutex is gone).
    names: Vec<Mutex<HashMap<String, PmoId>>>,
    /// Global id allocator; ids are unique and never reused, which is what
    /// lets the [`PoolIndex`] publish each slot exactly once.
    next_id: AtomicU64,
    /// Lock-free cross-shard pool index for the fast path.
    index: PoolIndex,
    shards: Vec<Shard>,
    shard_mask: usize,
    shutting_down: AtomicBool,
    /// Warm-standby gate (terp-repl): while set, every client mutation is
    /// refused with [`ServiceError::ReadOnly`]; [`Self::promote`] clears it.
    read_only: AtomicBool,
    sweep_passes: AtomicU64,
    /// The adaptive sweeper's thread handle, registered once by the sweeper
    /// itself so first attaches can wake it.
    sweeper_thread: OnceLock<std::thread::Thread>,
    /// The sweeper's planned wake-up (service ns): [`PASS_RUNNING`] while a
    /// pass runs, the instant its timed park ends, or `u64::MAX` while it
    /// parks indefinitely. A first attach reads it to decide whether the
    /// sweeper would miss the new window's expiry (DESIGN.md §11).
    sweeper_plan: AtomicU64,
    /// Wake-ups first attaches actually delivered to the sweeper.
    sweeper_unparks: AtomicU64,
    metrics: MetricsHub,
    recovery: Option<RecoveryStats>,
    /// Flight recorder shared with every shard (`None` = tracing off).
    tracer: Option<Arc<TraceRecorder>>,
    /// Monotonic sweeper wake tickets: each [`Self::wake_sweeper`] issues
    /// the next ticket (`Unpark` event) and each sweep pass stamps the
    /// highest ticket it observed (`Wakeup` event), giving the checker the
    /// unpark → wakeup happens-before edge.
    unpark_tokens: AtomicU64,
}

impl PmoService {
    /// Builds a service with `config.effective_shards()` shards. Each shard
    /// gets its own randomization seed (`config.seed + shard index`).
    ///
    /// # Panics
    ///
    /// In durable mode, panics if a shard store fails to open or recover;
    /// use [`Self::try_new`] to handle those errors.
    pub fn new(config: ServiceConfig) -> Self {
        Self::try_new(config).expect("durable store open/recovery failed")
    }

    /// Fallible constructor. In durable mode each shard opens (creating if
    /// needed) its store at `durable/shard-<i>`, recovers whatever the
    /// directory holds — force-closing and resealing every exposure window
    /// that was open at crash time — and adopts the recovered pools. The
    /// aggregated recovery metrics are available via
    /// [`Self::recovery_stats`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::Persist`] for I/O or corruption in a shard store, or
    /// when the directory was written under a different shard count (pool
    /// ids would route to different shards than the ones that logged them).
    pub fn try_new(config: ServiceConfig) -> Result<Self, ServiceError> {
        let n = config.effective_shards();
        let mask = n - 1;
        let clock = ServiceClock::start();
        let tracer = config.trace.map(|tc| Arc::new(TraceRecorder::new(tc)));
        let shards: Vec<Shard> = (0..n)
            .map(|i| {
                Shard::new(
                    config.seed.wrapping_add(i as u64),
                    config.ew_target_ns(),
                    i as u32,
                    tracer.clone(),
                )
            })
            .collect();
        let names: Vec<Mutex<HashMap<String, PmoId>>> =
            (0..n).map(|_| Mutex::new(HashMap::new())).collect();
        let index = PoolIndex::new();
        let mut max_raw: u16 = 0;
        let mut recovery = None;
        if let Some(durable) = &config.durable {
            let mut stats = RecoveryStats::default();
            for (i, shard) in shards.iter().enumerate() {
                let dir = durable.join(format!("shard-{i}"));
                let (store, recovered, report) = DurableStore::open(&dir, config.visibility)?;
                stats.absorb(&report);
                let mut state = shard.state.lock().unwrap_or_else(|e| e.into_inner());
                let mut rec_reg = recovered.registry;
                let ids: Vec<PmoId> = rec_reg.iter().map(|p| p.id()).collect();
                for id in ids {
                    if (id.raw() as usize) & mask != i {
                        return Err(ServiceError::Persist(format!(
                            "{}: recovered pool {id} does not route to shard {i} of {n}; \
                             the directory was written under a different shard count",
                            dir.display()
                        )));
                    }
                    let pool = rec_reg.take(id)?;
                    let name = pool.name().to_string();
                    let slot = Arc::new(PoolSlot::new(pool));
                    Self::name_shard_of(&names, &name)
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(name, id);
                    state.add_pool(id, Arc::clone(&slot));
                    index.insert(id, slot);
                    max_raw = max_raw.max(id.raw());
                }
                state.store = Some(store);
                // Adopt the recovered root directory: structures re-find
                // their roots through `Self::root` after a crash.
                state.roots.extend(recovered.roots);
            }
            // Refuse directories written under a *larger* shard count: their
            // extra shard-* stores would otherwise be silently ignored (the
            // routing check above only catches the shrinking direction).
            let io = |e: std::io::Error| ServiceError::Persist(e.to_string());
            for entry in std::fs::read_dir(durable).map_err(io)? {
                let name = entry.map_err(io)?.file_name();
                let name = name.to_string_lossy();
                if let Some(k) = name
                    .strip_prefix("shard-")
                    .and_then(|s| s.parse::<usize>().ok())
                {
                    if k >= n {
                        return Err(ServiceError::Persist(format!(
                            "{}: found {name} but this service runs {n} shards; \
                             the directory was written under a different shard count",
                            durable.display()
                        )));
                    }
                }
            }
            recovery = Some(stats);
        }
        Ok(PmoService {
            clock,
            names,
            next_id: AtomicU64::new(u64::from(max_raw) + 1),
            index,
            shards,
            shard_mask: mask,
            shutting_down: AtomicBool::new(false),
            read_only: AtomicBool::new(config.standby),
            sweep_passes: AtomicU64::new(0),
            sweeper_thread: OnceLock::new(),
            sweeper_plan: AtomicU64::new(PASS_RUNNING),
            sweeper_unparks: AtomicU64::new(0),
            metrics: MetricsHub::new(),
            recovery,
            tracer,
            unpark_tokens: AtomicU64::new(0),
            config,
        })
    }

    /// Durable-mode startup recovery statistics (`None` when in-memory).
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.recovery
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The scheme in force.
    pub fn scheme(&self) -> Scheme {
        self.config.scheme
    }

    /// The service clock (nanoseconds since start).
    pub fn clock(&self) -> &ServiceClock {
        &self.clock
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, pmo: PmoId) -> &Shard {
        &self.shards[(pmo.raw() as usize) & self.shard_mask]
    }

    fn name_shard_of<'a>(
        names: &'a [Mutex<HashMap<String, PmoId>>],
        name: &str,
    ) -> &'a Mutex<HashMap<String, PmoId>> {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        &names[(h.finish() as usize) % names.len()]
    }

    fn lock<'a>(&self, shard: &'a Shard) -> StateGuard<'a> {
        StateGuard::acquire(shard.state.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Takes `pmo`'s shard lock, refusing a pool this service does not
    /// hold.
    fn lock_pool(&self, pmo: PmoId) -> Result<StateGuard<'_>, ServiceError> {
        let state = self.lock(self.shard(pmo));
        if state.holds(pmo) {
            Ok(state)
        } else {
            Err(ServiceError::UnknownPmo(pmo))
        }
    }

    /// [`Self::lock_pool`], then the rights `client` needs for `kind` on
    /// `pmo`: the client-level rule and, for a data access to `oid`, a
    /// mapping covering it whose process permission allows `kind`. A
    /// refusal counts as a denial.
    fn lock_for(
        &self,
        client: ClientId,
        pmo: PmoId,
        oid: Option<ObjectId>,
        kind: AccessKind,
    ) -> Result<StateGuard<'_>, ServiceError> {
        let state = self.lock_pool(pmo)?;
        let scheme = self.config.scheme;
        let process = match oid {
            Some(oid) => {
                state.space.oid_direct(oid)?;
                !scheme.checks_permissions() || state.process_may(pmo, kind)
            }
            None => true,
        };
        if process && state.client_may(scheme, client, pmo, kind) {
            return Ok(state);
        }
        self.metrics.with_slab(|s| ThreadSlab::bump(&s.denials));
        Err(ServiceError::PermissionDenied { client, pmo, kind })
    }

    /// Opens a [`Batch`]: the mutating entry points with their commit
    /// deferred to one [`Batch::commit`] at the end.
    pub fn batch(&self) -> Batch<'_> {
        Batch {
            svc: self,
            dirty: Vec::new(),
        }
    }

    /// A plain mutating call is a batch of one: the operation, then its
    /// commit — under `visibility = durable` the operation's journal
    /// records are fsynced before this returns.
    fn one<T>(
        &self,
        op: impl FnOnce(&mut Batch<'_>) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let mut batch = self.batch();
        let out = op(&mut batch)?;
        batch.commit()?;
        Ok(out)
    }

    /// The flight recorder, when tracing is enabled — callers hold on to it
    /// (clone the `Arc`) to snapshot or dump rings after shutdown.
    pub fn tracer(&self) -> Option<&Arc<TraceRecorder>> {
        self.tracer.as_ref()
    }

    /// Records one trace event on the calling thread's ring (no-op when
    /// tracing is off). Lock-path events go through
    /// [`ShardState::trace`] instead so they order inside the critical
    /// section. The recorder stamps the timestamp itself.
    #[inline]
    fn trace(&self, kind: EventKind) {
        if let Some(t) = &self.tracer {
            t.record(kind);
        }
    }

    /// Records a (sampled) fast-path data event (no-op when tracing is
    /// off). Flight mode keeps 1-in-16 of these; window/sync events always
    /// go through [`Self::trace`].
    #[inline]
    fn trace_data(&self, kind: EventKind) {
        if let Some(t) = &self.tracer {
            t.record_data(kind);
        }
    }

    fn is_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Rejects mutations while the service is a standby.
    fn check_writable(&self) -> Result<(), ServiceError> {
        if self.is_read_only() {
            Err(ServiceError::ReadOnly)
        } else {
            Ok(())
        }
    }

    /// Total pools currently mapped across all shards.
    pub fn attached_total(&self) -> usize {
        self.shards
            .iter()
            .map(|s| self.lock(s).space.attached_count())
            .sum()
    }
}
