//! The recorder: per-thread ring registry behind a thread-local cache.
//!
//! Mirrors the service's `MetricsHub` discipline: each recorder gets a
//! process-unique id; a thread's first `record` against a recorder
//! registers a fresh ring (assigning the thread its trace id in
//! registration order) and caches the `Arc` in a thread-local, so the
//! steady-state cost of recording is one TLS lookup plus a ring push —
//! no shared atomics, no locks.
//!
//! ## Timestamps
//!
//! The recorder stamps events itself from the cheapest monotonic source the
//! target offers (`rdtsc` on x86-64, `Instant` elsewhere): calling
//! `clock_gettime` per event would cost more than the ring push it
//! timestamps. Even `rdtsc` is a large fraction of a push, so each thread
//! caches its last tick and refreshes it only every `TICK_REFRESH`-th
//! record: an event's stamp may be up to `TICK_REFRESH - 1` events stale,
//! but never goes backwards on its thread. Events carry raw *ticks* in the
//! ring; `snapshot` / `dump` calibrate ticks against wall time over the
//! recorder's lifetime and convert to nanoseconds-since-recorder-start.
//! The happens-before checker only uses timestamps for the consistency cut
//! and stuck-event tie-breaks — per-thread order comes from ring order and
//! cross-thread order from sync edges — so neither the staleness nor the
//! calibration precision is load-bearing.
//!
//! ## Data-op sampling
//!
//! Flight mode additionally *samples* data events (reads/writes) 1-in-16
//! via [`TraceRecorder::record_data`]: window and sync events (attach,
//! detach, grant, revoke, expire, lock, publish, unpark) are always
//! recorded, so TERP-D201 race witnessing loses nothing, while the
//! dominant event class costs one thread-local counter bump 15 times out
//! of 16. Use-after-close / stranger detection (D202/D203) still *never*
//! false-positives on a sampled trace — it just witnesses fewer individual
//! operations.

use std::cell::{Cell, RefCell};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::dump::{ThreadTrace, TraceSet};
use crate::event::{Event, EventKind};
use crate::ring::EventRing;

/// Raw monotonic tick counter. On x86-64 this is `rdtsc` (~a few ns, not
/// serializing — event timestamps are advisory, see the module docs); on
/// other targets it falls back to nanoseconds from a process-wide
/// [`Instant`] epoch, in which case ticks *are* nanoseconds and the
/// snapshot-time calibration factor comes out ≈ 1.
#[inline]
fn raw_ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: rdtsc has no memory or validity preconditions.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Flight-recorder sizing. The capacity bounds memory per thread ring
/// (`capacity * 64` bytes — one cache line per slot); when a ring fills,
/// the oldest events are overwritten and counted as dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Events retained per thread ring (rounded up to a power of two,
    /// minimum 8).
    pub capacity: usize,
    /// Data events (reads/writes via [`TraceRecorder::record_data`]) are
    /// kept 1-in-`2^data_sample_shift`. 0 records every data op.
    pub data_sample_shift: u32,
}

impl TraceConfig {
    /// Flight-recorder mode: 64 Ki events per thread (4 MiB), data ops
    /// sampled 1-in-16 — cheap enough to leave on under load; keeps the
    /// most recent window of history.
    pub fn flight() -> Self {
        TraceConfig {
            capacity: 1 << 16,
            data_sample_shift: 4,
        }
    }

    /// Full-capture mode: 1 Mi events per thread (64 MiB), every data op
    /// recorded. Sized so short runs (tests, bounded benches) retain their
    /// entire history for exact race checking.
    pub fn full() -> Self {
        TraceConfig {
            capacity: 1 << 20,
            data_sample_shift: 0,
        }
    }

    /// Overrides the per-thread ring capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Overrides the data-op sampling rate (keep 1-in-`2^shift`).
    pub fn with_data_sample_shift(mut self, shift: u32) -> Self {
        self.data_sample_shift = shift;
        self
    }
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

/// Records between tick-cache refreshes (see the module docs): every
/// `TICK_REFRESH`-th event on a thread pays the real clock read, the rest
/// reuse the cached tick.
const TICK_REFRESH: u32 = 4;

thread_local! {
    /// Cache of (recorder id → ring) for rings this thread produces into.
    static TLS_RINGS: RefCell<Vec<(u64, Arc<EventRing>)>> = const { RefCell::new(Vec::new()) };
    /// Per-thread data-op counter driving the sampling decision. Shared
    /// across recorders — sampling only needs the *rate* to hold.
    static TLS_DATA_SEQ: Cell<u64> = const { Cell::new(0) };
    /// Per-thread (refresh countdown, cached tick) pair for event stamps.
    static TLS_TICK: Cell<(u32, u64)> = const { Cell::new((0, 0)) };
}

/// This thread's event-stamp tick: refreshed from [`raw_ticks`] every
/// `TICK_REFRESH`-th call, cached (never decreasing) in between.
#[inline]
fn cached_ticks() -> u64 {
    TLS_TICK.with(|c| {
        let (left, tick) = c.get();
        if left == 0 {
            let fresh = raw_ticks();
            c.set((TICK_REFRESH - 1, fresh));
            fresh
        } else {
            c.set((left - 1, tick));
            tick
        }
    })
}

/// A process-wide event recorder: one ring per recording thread, created on
/// that thread's first record and readable (snapshot/dump) from any thread
/// at any time.
pub struct TraceRecorder {
    id: u64,
    capacity: usize,
    /// `2^data_sample_shift - 1`; a data op is recorded when
    /// `seq & data_mask == 0`.
    data_mask: u64,
    /// Tick value at construction; event timestamps are relative to it.
    epoch_ticks: u64,
    /// Wall-clock partner of `epoch_ticks`, for snapshot-time calibration.
    epoch: Instant,
    rings: Mutex<Vec<Arc<EventRing>>>,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("id", &self.id)
            .field("capacity", &self.capacity)
            .field("threads", &self.thread_count())
            .finish()
    }
}

impl TraceRecorder {
    /// Creates a recorder whose per-thread rings follow `config`.
    pub fn new(config: TraceConfig) -> Self {
        TraceRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            capacity: config.capacity,
            data_mask: (1u64 << config.data_sample_shift.min(63)) - 1,
            epoch_ticks: raw_ticks(),
            epoch: Instant::now(),
            rings: Mutex::new(Vec::new()),
        }
    }

    /// Number of threads that have recorded at least one event.
    pub fn thread_count(&self) -> usize {
        self.rings.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Records one event on the calling thread's ring (registering the
    /// thread on first use), stamped from the recorder's tick source.
    /// Window and sync events go through here unconditionally; data ops
    /// should use [`Self::record_data`] so flight-mode sampling applies.
    #[inline]
    pub fn record(&self, kind: EventKind) {
        // saturating: a cached tick can predate a just-created recorder's
        // epoch by a few events; clamp those stamps to the epoch.
        let ev = Event {
            ts_ns: cached_ticks().saturating_sub(self.epoch_ticks),
            kind,
        };
        TLS_RINGS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, ring)) = cache.iter().find(|(id, _)| *id == self.id) {
                ring.push(&ev);
                return;
            }
            let ring = self.register();
            ring.push(&ev);
            // Drop cache entries whose recorder has gone away (the registry
            // Arc was the only other holder), so long-lived worker threads
            // that outlive many recorders don't accumulate dead rings.
            cache.retain(|(_, r)| Arc::strong_count(r) > 1);
            cache.push((self.id, ring));
        });
    }

    /// Draws one ticket from this thread's data-op sampling sequence and
    /// returns whether the op should be recorded (true 1-in-
    /// `2^data_sample_shift`). Callers that need to skip side work for
    /// sampled-out ops (e.g. a lazily-emitted lock pair) consult this
    /// before building the event; [`Self::record_data`] wraps it.
    #[inline]
    pub fn data_sample_keep(&self) -> bool {
        if self.data_mask == 0 {
            return true;
        }
        let seq = TLS_DATA_SEQ.with(|c| {
            let v = c.get().wrapping_add(1);
            c.set(v);
            v
        });
        seq & self.data_mask == 0
    }

    /// Records a data event (read/write), subject to the config's sampling
    /// rate: kept 1-in-`2^data_sample_shift` per thread. Sampled-out events
    /// cost one thread-local counter bump and are *not* counted as dropped
    /// — sampling is a configured rate, loss is not.
    #[inline]
    pub fn record_data(&self, kind: EventKind) {
        if self.data_sample_keep() {
            self.record(kind);
        }
    }

    fn register(&self) -> Arc<EventRing> {
        let mut rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        let ring = Arc::new(EventRing::new(rings.len() as u32, self.capacity));
        rings.push(Arc::clone(&ring));
        ring
    }

    /// Copies every thread ring into an in-memory [`TraceSet`], converting
    /// raw tick timestamps to nanoseconds since recorder start (ticks are
    /// calibrated against wall time over the recorder's lifetime). For race
    /// checking, snapshot after the traced workload has quiesced — a live
    /// producer shows up as torn/dropped slots, which degrade the checker
    /// to coverage warnings (TERP-D204).
    pub fn snapshot(&self) -> TraceSet {
        let elapsed_ticks = raw_ticks().wrapping_sub(self.epoch_ticks);
        let elapsed_ns = self.epoch.elapsed().as_nanos() as u64;
        let ns_per_tick = if elapsed_ticks == 0 {
            1.0
        } else {
            elapsed_ns as f64 / elapsed_ticks as f64
        };
        let rings: Vec<Arc<EventRing>> =
            self.rings.lock().unwrap_or_else(|e| e.into_inner()).clone();
        TraceSet {
            threads: rings
                .iter()
                .map(|r| {
                    let snap = r.snapshot();
                    ThreadTrace {
                        tid: snap.tid,
                        events: snap
                            .events
                            .into_iter()
                            .map(|mut ev| {
                                ev.ts_ns = (ev.ts_ns as f64 * ns_per_tick).round() as u64;
                                ev
                            })
                            .collect(),
                        dropped: snap.dropped,
                        torn: snap.torn,
                    }
                })
                .collect(),
        }
    }

    /// Dumps every thread ring as `thread-<tid>.trace` text files under
    /// `dir` (created if missing). Returns the number of threads written.
    pub fn dump(&self, dir: &Path) -> io::Result<usize> {
        let set = self.snapshot();
        set.save(dir)?;
        Ok(set.threads.len())
    }
}

/// Writes one thread trace as a text file (shared by recorder dump and
/// `TraceSet::save`).
pub(crate) fn write_thread_trace(dir: &Path, t: &ThreadTrace) -> io::Result<()> {
    let path = dir.join(format!("thread-{}.trace", t.tid));
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "# terp-trace v1 tid={} dropped={} torn={}",
        t.tid, t.dropped, t.torn
    )?;
    for ev in &t.events {
        writeln!(out, "{}", ev.render_line())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn unpark(token: u64) -> EventKind {
        EventKind::Unpark { token }
    }

    #[test]
    fn threads_register_distinct_rings() {
        let rec = Arc::new(TraceRecorder::new(TraceConfig::flight().with_capacity(64)));
        let n = 4;
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let rec = Arc::clone(&rec);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for k in 0..10 {
                        rec.record(unpark(i as u64 * 100 + k));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.thread_count(), n);
        let set = rec.snapshot();
        assert_eq!(set.threads.len(), n);
        let mut tids: Vec<u32> = set.threads.iter().map(|t| t.tid).collect();
        tids.sort_unstable();
        assert_eq!(tids, vec![0, 1, 2, 3]);
        for t in &set.threads {
            assert_eq!(t.events.len(), 10, "tid {}", t.tid);
            assert_eq!(t.dropped, 0);
            assert_eq!(t.torn, 0);
        }
    }

    #[test]
    fn two_recorders_keep_separate_streams() {
        let a = TraceRecorder::new(TraceConfig::flight().with_capacity(32));
        let b = TraceRecorder::new(TraceConfig::flight().with_capacity(32));
        a.record(unpark(1));
        b.record(unpark(2));
        a.record(unpark(3));
        let sa = a.snapshot();
        let sb = b.snapshot();
        assert_eq!(sa.threads[0].events.len(), 2);
        assert_eq!(sb.threads[0].events.len(), 1);
    }

    #[test]
    fn snapshot_timestamps_are_monotonic_nanoseconds() {
        let rec = TraceRecorder::new(TraceConfig::full().with_capacity(1024));
        for k in 0..500 {
            rec.record(unpark(k));
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        for k in 500..504 {
            rec.record(unpark(k));
        }
        let set = rec.snapshot();
        let evs = &set.threads[0].events;
        assert_eq!(evs.len(), 504);
        for w in evs.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns, "timestamps went backwards");
        }
        // The 5 ms sleep must survive tick→ns calibration within 50 %.
        // Stamps can be up to TICK_REFRESH - 1 events stale, so measure
        // across the 4 post-sleep events: at least one refreshed its tick
        // after the sleep, and ticks never decrease.
        let gap = evs[503].ts_ns - evs[499].ts_ns;
        assert!(
            (2_500_000..50_000_000).contains(&gap),
            "calibrated gap {gap} ns, expected ≈5 ms"
        );
    }

    #[test]
    fn data_sampling_keeps_one_in_rate_and_all_sync_events() {
        let rec = TraceRecorder::new(
            TraceConfig::flight()
                .with_capacity(4096)
                .with_data_sample_shift(3),
        );
        for k in 0..800u64 {
            rec.record_data(EventKind::Read {
                pmo: 1,
                client: 0,
                offset: k,
                len: 8,
                epoch: 2,
            });
            rec.record(unpark(k));
        }
        let set = rec.snapshot();
        let evs = &set.threads[0].events;
        let reads = evs
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Read { .. }))
            .count();
        let unparks = evs
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Unpark { .. }))
            .count();
        assert_eq!(unparks, 800, "sync events are never sampled out");
        // The per-thread counter may carry phase from earlier activity on
        // this thread, so allow ±1 around the exact 1-in-8 rate.
        assert!(
            (99..=101).contains(&reads),
            "data events kept ≈1-in-8, got {reads}"
        );
        assert_eq!(set.total_dropped(), 0, "sampling is not loss");
    }

    #[test]
    fn zero_shift_records_every_data_event() {
        let rec = TraceRecorder::new(TraceConfig::full().with_capacity(256));
        for k in 0..100u64 {
            rec.record_data(EventKind::Write {
                pmo: 1,
                client: 0,
                offset: k,
                len: 8,
                epoch: 2,
            });
        }
        assert_eq!(rec.snapshot().total_events(), 100);
    }
}
