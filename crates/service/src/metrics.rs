//! Latency histograms, per-thread metric slabs, and the merged service
//! report.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use terp_arch::CondStats;
use terp_core::config::Scheme;
use terp_core::window::WindowStats;
pub use terp_persist::WalStats;

const SUB: usize = 16; // sub-buckets per power of two
const BUCKETS: usize = 61 * SUB; // covers the full u64 nanosecond range

/// A fixed-size log-bucketed latency histogram (HDR-style: power-of-two
/// major buckets, 16 linear sub-buckets each, ~3% relative error).
///
/// Values are nanoseconds. Recording is O(1) with no allocation, so worker
/// threads can keep one per thread and merge at the end of a run.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            v as usize
        } else {
            let exp = 63 - v.leading_zeros() as usize; // ≥ 4
            let sub = ((v >> (exp - 4)) & 0xF) as usize;
            ((exp - 3) * SUB + sub).min(BUCKETS - 1)
        }
    }

    fn bucket_value(idx: usize) -> u64 {
        if idx < SUB {
            idx as u64
        } else {
            let exp = idx / SUB + 3;
            let sub = (idx % SUB) as u64;
            let width = 1u64 << (exp - 4);
            (1u64 << exp) + sub * width + width / 2
        }
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(ns);
        self.max = self.max.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]` (bucket midpoint; exact max for
    /// `q = 1`). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(idx).min(self.max);
            }
        }
        self.max
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Operation counters accumulated by the service (successful ops unless
/// noted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Sessions opened (service-level attaches).
    pub attaches: u64,
    /// Sessions closed (service-level detaches).
    pub detaches: u64,
    /// Read operations.
    pub reads: u64,
    /// Write operations.
    pub writes: u64,
    /// `pmalloc` operations.
    pub allocs: u64,
    /// Operations rejected by a permission check.
    pub denials: u64,
    /// Basic-semantics attach conflicts that put a client to sleep.
    pub attach_conflicts: u64,
}

impl OpCounters {
    /// Total successful operations.
    pub fn total(&self) -> u64 {
        self.attaches + self.detaches + self.reads + self.writes + self.allocs
    }

    pub(crate) fn merge(&mut self, o: &OpCounters) {
        self.attaches += o.attaches;
        self.detaches += o.detaches;
        self.reads += o.reads;
        self.writes += o.writes;
        self.allocs += o.allocs;
        self.denials += o.denials;
        self.attach_conflicts += o.attach_conflicts;
    }
}

/// One thread's private metric shard. Only its owner thread writes the
/// counters (`Relaxed` stores on uncontended cache lines — no shared-atomic
/// ping-pong on the hot path); the report-time merge reads them from
/// another thread, which the atomics make sound.
#[derive(Debug, Default)]
pub(crate) struct ThreadSlab {
    pub attaches: AtomicU64,
    pub detaches: AtomicU64,
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub allocs: AtomicU64,
    pub denials: AtomicU64,
    pub attach_conflicts: AtomicU64,
    pub blocked_ns: AtomicU64,
    /// Basic-semantics condvar queue-wait samples (rare: conflict path
    /// only, so a mutexed histogram costs nothing on the fast path).
    pub queue_wait: Mutex<LatencyHistogram>,
}

impl ThreadSlab {
    /// Bumps a counter; `Relaxed` is enough because only the owner thread
    /// writes and the merge only needs eventual per-counter totals.
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn counters(&self) -> OpCounters {
        OpCounters {
            attaches: self.attaches.load(Ordering::Relaxed),
            detaches: self.detaches.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            denials: self.denials.load(Ordering::Relaxed),
            attach_conflicts: self.attach_conflicts.load(Ordering::Relaxed),
        }
    }
}

/// Registry of per-thread slabs for one service instance. Each worker
/// thread gets its own [`ThreadSlab`] on first use (cached in TLS keyed by
/// the hub's unique id), so recording an op never touches shared state;
/// [`MetricsHub::merged`] folds every slab together at report time.
#[derive(Debug, Default)]
pub(crate) struct MetricsHub {
    id: u64,
    slabs: Mutex<Vec<Arc<ThreadSlab>>>,
}

thread_local! {
    /// (hub id, slab) pairs this thread has registered with. Usually one
    /// entry; entries for dropped hubs are pruned on the next miss.
    static TLS_SLABS: RefCell<Vec<(u64, Arc<ThreadSlab>)>> = const { RefCell::new(Vec::new()) };
}

impl MetricsHub {
    pub(crate) fn new() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        MetricsHub {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            slabs: Mutex::new(Vec::new()),
        }
    }

    /// The calling thread's slab for this hub, registering one on first
    /// use. The registration path takes the hub mutex once per (thread,
    /// hub) pair; every later call is a TLS vector scan.
    pub(crate) fn slab(&self) -> Arc<ThreadSlab> {
        TLS_SLABS.with(|cell| {
            let mut tls = cell.borrow_mut();
            if let Some((_, slab)) = tls.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(slab);
            }
            // Drop cached slabs whose hub is gone (their registry vector
            // released the other reference).
            tls.retain(|(_, slab)| Arc::strong_count(slab) > 1);
            let slab = Arc::new(ThreadSlab::default());
            self.slabs
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&slab));
            tls.push((self.id, Arc::clone(&slab)));
            slab
        })
    }

    /// Runs `f` against the calling thread's slab without touching the
    /// `Arc` refcount — the data-plane variant of [`Self::slab`] (per-op
    /// refcount churn is measurable at ~100 ns/op rates).
    pub(crate) fn with_slab<R>(&self, f: impl FnOnce(&ThreadSlab) -> R) -> R {
        TLS_SLABS.with(|cell| {
            let tls = cell.borrow();
            if let Some((_, slab)) = tls.iter().find(|(id, _)| *id == self.id) {
                return f(slab);
            }
            drop(tls);
            f(&self.slab())
        })
    }

    /// Folds every registered slab into one `(ops, blocked_ns,
    /// queue-wait histogram, threads)` tuple. `threads` is the number of
    /// slabs that contributed — a thread that never recorded an op has no
    /// slab and is invisible to the merge, so the count is surfaced in
    /// [`ServiceReport::threads_observed`] rather than silently folded
    /// away: a load harness expecting N workers can assert it saw N.
    pub(crate) fn merged(&self) -> (OpCounters, u64, LatencyHistogram, u64) {
        let mut ops = OpCounters::default();
        let mut blocked_ns = 0;
        let mut queue_wait = LatencyHistogram::new();
        let slabs = self.slabs.lock().unwrap_or_else(|e| e.into_inner());
        for slab in slabs.iter() {
            ops.merge(&slab.counters());
            blocked_ns += slab.blocked_ns.load(Ordering::Relaxed);
            queue_wait.merge(&slab.queue_wait.lock().unwrap_or_else(|e| e.into_inner()));
        }
        (ops, blocked_ns, queue_wait, slabs.len() as u64)
    }
}

pub(crate) fn merge_window_stats(a: WindowStats, b: WindowStats) -> WindowStats {
    let count = a.count + b.count;
    let total_cycles = a.total_cycles + b.total_cycles;
    WindowStats {
        count,
        avg_cycles: if count == 0 {
            0.0
        } else {
            total_cycles as f64 / count as f64
        },
        max_cycles: a.max_cycles.max(b.max_cycles),
        total_cycles,
    }
}

pub(crate) fn merge_cond_stats(a: &mut CondStats, b: CondStats) {
    a.first_attach += b.first_attach;
    a.subsequent_attach += b.subsequent_attach;
    a.silent_attach += b.silent_attach;
    a.untracked_attach += b.untracked_attach;
    a.partial_detach += b.partial_detach;
    a.full_detach += b.full_detach;
    a.delayed_detach += b.delayed_detach;
    a.untracked_detach += b.untracked_detach;
    a.sweep_detach += b.sweep_detach;
    a.sweep_randomize += b.sweep_randomize;
}

pub(crate) fn merge_wal_stats(a: &mut WalStats, b: WalStats) {
    a.appended += b.appended;
    a.flushes += b.flushes;
    a.syncs += b.syncs;
    a.bytes += b.bytes;
    a.extensions += b.extensions;
}

/// Durable-mode recovery statistics, aggregated over every shard's store
/// at startup. All-zero for a fresh durable directory; absent entirely
/// (`ServiceReport::recovery == None`) for an in-memory service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Pools rebuilt from the checkpoint image and/or log replay.
    pub pools_recovered: u64,
    /// Records replayed: the checkpoint's image and protection records
    /// plus the WAL's.
    pub records_replayed: u64,
    /// Stale records skipped below a checkpoint watermark.
    pub records_skipped: u64,
    /// Bytes discarded from torn log tails.
    pub bytes_dropped: u64,
    /// Shards whose log ended in a torn tail.
    pub torn_tails: u64,
    /// In-flight transactions rolled back by undo-log recovery.
    pub txns_rolled_back: u64,
    /// Exposure windows open at crash time, force-closed and re-randomized.
    pub windows_resealed: u64,
    /// Wall-clock nanoseconds spent in recovery, summed over shards.
    pub recovery_ns: u128,
}

impl RecoveryStats {
    /// Folds one shard store's recovery report into the aggregate.
    pub(crate) fn absorb(&mut self, r: &terp_persist::RecoveryReport) {
        self.pools_recovered += r.pools_recovered as u64;
        self.records_replayed += r.records_replayed as u64;
        self.records_skipped += r.records_skipped as u64;
        self.bytes_dropped += r.bytes_dropped as u64;
        self.torn_tails += u64::from(r.torn_tail);
        self.txns_rolled_back += r.txns_rolled_back as u64;
        self.windows_resealed += r.windows_resealed as u64;
        self.recovery_ns += r.recovery_ns;
    }
}

/// End-of-run summary merged over every shard at shutdown.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// The scheme the service ran under.
    pub scheme: Scheme,
    /// Operation counters.
    pub ops: OpCounters,
    /// Conditional-instruction statistics (all shards; zero for non-TERP
    /// schemes).
    pub cond: CondStats,
    /// Real attach system calls performed.
    pub attach_syscalls: u64,
    /// Real detach system calls performed.
    pub detach_syscalls: u64,
    /// In-place randomizations performed by the sweeper.
    pub randomizations: u64,
    /// Process exposure windows — whole, or the half a randomization split
    /// off — that closed longer than the EW target.
    pub ew_over_target: u64,
    /// Fsyncs the sweeper issued alone: an expiry's `WindowClose` rides the
    /// shard's next commit, and only when none came within one EW target
    /// does the sweeper commit the shard itself. Part of `wal.syncs`.
    pub sweeper_syncs: u64,
    /// Sweeper actions (unmap, relocation, leftover commit) that failed.
    pub sweeper_errors: u64,
    /// Steps of [`crate::PmoService::drain`] (unmap, the closing
    /// checkpoint) that failed.
    pub drain_errors: u64,
    /// Nanoseconds clients spent blocked on Basic-semantics attach
    /// serialization.
    pub blocked_ns: u64,
    /// Basic-semantics attach queue-wait distribution (ns): time spent
    /// parked on the shard condvar, separated from attach service time.
    pub queue_wait: LatencyHistogram,
    /// Sweeper passes executed.
    pub sweep_passes: u64,
    /// Wake-ups a first attach delivered to the sweeper because its planned
    /// wake-up would have missed the new window's expiry. The other passes
    /// (`sweep_passes` less these, roughly) are timer-driven.
    pub sweeper_unparks: u64,
    /// Threads that recorded at least one metric (one slab each). Threads
    /// that never issued an op register no slab; this count makes that
    /// visible instead of silently merging fewer threads than ran.
    pub threads_observed: u64,
    /// Process exposure-window statistics (ns).
    pub ew: WindowStats,
    /// Thread (client) exposure-window statistics (ns).
    pub tew: WindowStats,
    /// Durable-mode startup recovery statistics (`None` when in-memory).
    pub recovery: Option<RecoveryStats>,
    /// Durable-mode log-writer activity, summed over every shard's store
    /// (`None` when in-memory). `appended / syncs` is the records one fsync
    /// covers: 1 for plain calls under `visibility = durable`, the batch
    /// size for [`crate::Batch`] callers and the pipelined writer.
    pub wal: Option<WalStats>,
}

impl std::fmt::Display for ServiceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "[{}] {} ops ({} at / {} dt / {} rd / {} wr / {} al), {} denials, \
             {} threads observed",
            self.scheme,
            self.ops.total(),
            self.ops.attaches,
            self.ops.detaches,
            self.ops.reads,
            self.ops.writes,
            self.ops.allocs,
            self.ops.denials,
            self.threads_observed,
        )?;
        write!(
            f,
            "  syscalls {}/{} (attach/detach), {} randomizations, silent {:.1}%, \
             EW avg {:.1} µs (n={}), TEW avg {:.1} µs (n={})",
            self.attach_syscalls,
            self.detach_syscalls,
            self.randomizations,
            self.cond.silent_fraction() * 100.0,
            self.ew.avg_cycles / 1_000.0,
            self.ew.count,
            self.tew.avg_cycles / 1_000.0,
            self.tew.count,
        )?;
        if self.queue_wait.count() > 0 {
            write!(
                f,
                "\n  attach queue wait: n={} p50 {:.1} µs p99 {:.1} µs max {:.1} µs",
                self.queue_wait.count(),
                self.queue_wait.quantile(0.50) as f64 / 1_000.0,
                self.queue_wait.quantile(0.99) as f64 / 1_000.0,
                self.queue_wait.max() as f64 / 1_000.0,
            )?;
        }
        if let Some(rec) = &self.recovery {
            write!(
                f,
                "\n  recovery: {} pools ({} records), \
                 {} windows resealed, {:.2} ms",
                rec.pools_recovered,
                rec.records_replayed,
                rec.windows_resealed,
                rec.recovery_ns as f64 / 1e6,
            )?;
        }
        if let Some(wal) = &self.wal {
            write!(
                f,
                "\n  wal: {} records in {} fsyncs ({:.2} records/fsync), {} bytes, {} reservations",
                wal.appended,
                wal.syncs,
                wal.appended as f64 / wal.syncs.max(1) as f64,
                wal.bytes,
                wal.extensions,
            )?;
        }
        write!(
            f,
            "\n  sweeper: {} passes ({} attach wake-ups), {} fsyncs of its own, {} errors; \
             {} windows over target; {} drain errors",
            self.sweep_passes,
            self.sweeper_unparks,
            self.sweeper_syncs,
            self.sweeper_errors,
            self.ew_over_target,
            self.drain_errors,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_monotone_and_accurate() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p95 && p95 <= p99 && p99 <= h.quantile(1.0));
        // Log-bucketed: ≤ ~6% relative error at these magnitudes.
        assert!((p50 as f64 - 500.0).abs() / 500.0 < 0.07, "p50={p50}");
        assert!((p99 as f64 - 990.0).abs() / 990.0 < 0.07, "p99={p99}");
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.quantile(0.01), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut c = LatencyHistogram::new();
        for v in [5u64, 70, 900, 12_345, 1_000_000] {
            a.record(v);
            c.record(v);
        }
        for v in [17u64, 250, 4_000] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.max(), c.max());
        for q in [0.25, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), c.quantile(q));
        }
    }

    #[test]
    fn hub_merges_slabs_across_threads_exactly() {
        let hub = std::sync::Arc::new(MetricsHub::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let hub = std::sync::Arc::clone(&hub);
                s.spawn(move || {
                    let slab = hub.slab();
                    for _ in 0..(t + 1) * 10 {
                        ThreadSlab::bump(&slab.reads);
                    }
                    slab.blocked_ns.fetch_add(t, Ordering::Relaxed);
                    // Re-fetching from the same thread reuses the slab.
                    let again = hub.slab();
                    ThreadSlab::bump(&again.attaches);
                });
            }
        });
        let (ops, blocked, _, threads) = hub.merged();
        assert_eq!(ops.reads, 10 + 20 + 30 + 40);
        assert_eq!(ops.attaches, 4);
        assert_eq!(blocked, 6);
        assert_eq!(threads, 4, "one slab per recording thread");
    }

    #[test]
    fn distinct_hubs_get_distinct_slabs_on_one_thread() {
        let a = MetricsHub::new();
        let b = MetricsHub::new();
        ThreadSlab::bump(&a.slab().writes);
        ThreadSlab::bump(&b.slab().writes);
        ThreadSlab::bump(&b.slab().writes);
        assert_eq!(a.merged().0.writes, 1);
        assert_eq!(b.merged().0.writes, 2);
        assert_eq!(a.merged().3, 1, "both hubs saw exactly this thread");
        assert_eq!(b.merged().3, 1);
    }

    #[test]
    fn threads_that_never_record_are_counted_as_unobserved() {
        let hub = std::sync::Arc::new(MetricsHub::new());
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let hub = std::sync::Arc::clone(&hub);
                s.spawn(move || {
                    if t == 0 {
                        // This worker never touches the hub: it must not
                        // appear in the merge, and the observed-thread
                        // count must expose the shortfall.
                        return;
                    }
                    ThreadSlab::bump(&hub.slab().writes);
                });
            }
        });
        let (ops, _, _, threads) = hub.merged();
        assert_eq!(ops.writes, 2);
        assert_eq!(threads, 2, "3 workers ran, 2 recorded");
    }

    #[test]
    fn window_stats_merge_recomputes_mean() {
        let a = WindowStats {
            count: 2,
            avg_cycles: 100.0,
            max_cycles: 150,
            total_cycles: 200,
        };
        let b = WindowStats {
            count: 2,
            avg_cycles: 300.0,
            max_cycles: 400,
            total_cycles: 600,
        };
        let m = merge_window_stats(a, b);
        assert_eq!(m.count, 4);
        assert_eq!(m.total_cycles, 800);
        assert_eq!(m.max_cycles, 400);
        assert!((m.avg_cycles - 200.0).abs() < 1e-12);
    }
}
