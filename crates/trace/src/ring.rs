//! The per-thread lock-free event ring.
//!
//! Each recording thread owns exactly one [`EventRing`] per recorder: only
//! that thread pushes, while any thread (the dumper) may snapshot
//! concurrently. The ring is an overwrite-oldest circular buffer — the
//! flight-recorder discipline: bounded memory, the newest `capacity` events
//! survive, and everything older is dropped *and counted*.
//!
//! Every slot is protected by its own seqlock-style version word, mirroring
//! the service fast path's `PoolSlot` protocol (DESIGN.md §11): the writer
//! bumps the version to odd, stores the event's wire words as relaxed
//! atomics, then bumps it to even with release ordering. A concurrent
//! snapshot that observes an odd or changed version discards the slot as
//! torn rather than reading a mixed event. Because slots hold only plain
//! `AtomicU64`s, a torn write is detectable but never undefined behavior.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::dump::ThreadTrace;
use crate::event::{Event, EVENT_WORDS};

/// One ring slot: a version word plus the event's wire words.
///
/// Version protocol: the slot starts at 0 (never written); write number `w`
/// (1-based) leaves the version at `2 * w`. A consistent read of version
/// `2 * w` at index `i` therefore corresponds to the globally `(w - 1) *
/// capacity + i`-th push, which lets the snapshot detect writer laps exactly.
///
/// Aligned to a cache line so a push touches exactly one line (the natural
/// 48-byte layout would straddle lines every fourth slot) and the
/// next-slot prefetch below fetches precisely the line the next push
/// writes.
#[repr(align(64))]
struct Slot {
    version: AtomicU64,
    words: [AtomicU64; EVENT_WORDS],
}

impl Slot {
    fn new() -> Self {
        Slot {
            version: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A fixed-capacity, overwrite-oldest event ring for a single producer
/// thread with lock-free concurrent snapshots.
pub struct EventRing {
    tid: u32,
    mask: u64,
    slots: Box<[Slot]>,
    /// Total number of pushes ever (the next slot index is `head & mask`).
    head: AtomicU64,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("tid", &self.tid)
            .field("capacity", &self.capacity())
            .field("pushed", &self.pushed())
            .finish()
    }
}

impl EventRing {
    /// Creates a ring holding the newest `capacity` events (rounded up to a
    /// power of two, minimum 8) for recorder-assigned thread `tid`.
    pub fn new(tid: u32, capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        EventRing {
            tid,
            mask: cap as u64 - 1,
            slots: (0..cap).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Recorder-assigned thread id of the producing thread.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Ring capacity in events (power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total number of events ever pushed.
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Number of events already lost to overwriting.
    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.capacity() as u64)
    }

    /// Records one event. Must only be called from the ring's producer
    /// thread (the recorder's thread-local registry enforces this); slots
    /// are overwritten oldest-first when the ring is full.
    pub fn push(&self, ev: &Event) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h & self.mask) as usize];
        let v = slot.version.load(Ordering::Relaxed);
        // Mark the slot mid-write (odd) before touching its words, so a
        // concurrent snapshot that sees any new word also sees the odd
        // version when it re-checks.
        slot.version.store(v + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (w, val) in slot.words.iter().zip(ev.encode_words()) {
            w.store(val, Ordering::Relaxed);
        }
        slot.version.store(v + 2, Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
        // Warm the next slot's line now: events arrive interleaved with real
        // work, so without this every push eats a cold-cache miss walking
        // the ring. A stale prefetch is harmless.
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the slot pointer is in-bounds; prefetch has no other
        // preconditions.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                (&self.slots[((h + 1) & self.mask) as usize] as *const Slot).cast::<i8>(),
                core::arch::x86_64::_MM_HINT_T0,
            );
        }
    }

    /// Copies out the retained suffix of the event stream. Safe to call from
    /// any thread while the producer is still pushing; slots the producer is
    /// mid-write on (or laps during the copy) are counted as torn/dropped
    /// instead of being returned inconsistently.
    pub fn snapshot(&self) -> ThreadTrace {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.capacity() as u64;
        let start = head.saturating_sub(cap);
        let mut events = Vec::with_capacity((head - start) as usize);
        let mut dropped = start;
        let mut torn = 0u64;
        for i in start..head {
            let slot = &self.slots[(i & self.mask) as usize];
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                torn += 1;
                continue;
            }
            let mut words = [0u64; EVENT_WORDS];
            for (dst, w) in words.iter_mut().zip(&slot.words) {
                *dst = w.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if slot.version.load(Ordering::Relaxed) != v1 {
                torn += 1;
                continue;
            }
            // A consistent slot may still hold a *newer* event if the
            // producer lapped us: recover the push number it corresponds to
            // and only accept the one we came for.
            let writes = v1 / 2;
            if writes == 0 || (writes - 1) * cap + (i & self.mask) != i {
                dropped += 1;
                continue;
            }
            match Event::decode_words(&words) {
                Some(ev) => events.push(ev),
                None => torn += 1,
            }
        }
        ThreadTrace {
            tid: self.tid,
            events,
            dropped,
            torn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(i: u64) -> Event {
        Event {
            ts_ns: i,
            kind: EventKind::Unpark { token: i },
        }
    }

    #[test]
    fn capacity_rounds_up_and_has_floor() {
        assert_eq!(EventRing::new(0, 0).capacity(), 8);
        assert_eq!(EventRing::new(0, 9).capacity(), 16);
        assert_eq!(EventRing::new(0, 64).capacity(), 64);
    }

    #[test]
    fn snapshot_returns_events_in_push_order() {
        let ring = EventRing::new(3, 16);
        for i in 0..10 {
            ring.push(&ev(i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.tid, 3);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.torn, 0);
        assert_eq!(snap.events.len(), 10);
        for (i, e) in snap.events.iter().enumerate() {
            assert_eq!(e.ts_ns, i as u64);
        }
    }

    #[test]
    fn wraparound_keeps_latest_and_counts_drops() {
        let ring = EventRing::new(0, 16);
        let cap = ring.capacity() as u64;
        let extra = 5;
        for i in 0..cap + extra {
            ring.push(&ev(i));
        }
        assert_eq!(ring.pushed(), cap + extra);
        assert_eq!(ring.dropped(), extra);
        let snap = ring.snapshot();
        assert_eq!(snap.dropped, extra);
        assert_eq!(snap.torn, 0);
        assert_eq!(snap.events.len(), cap as usize);
        // The retained suffix is exactly the newest `cap` events, in order.
        for (k, e) in snap.events.iter().enumerate() {
            assert_eq!(e.ts_ns, extra + k as u64);
        }
    }

    #[test]
    fn multiple_laps_still_account_exactly() {
        let ring = EventRing::new(0, 8);
        let cap = ring.capacity() as u64;
        let total = cap * 7 + 3;
        for i in 0..total {
            ring.push(&ev(i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.dropped, total - cap);
        assert_eq!(snap.events.len(), cap as usize);
        assert_eq!(snap.events[0].ts_ns, total - cap);
        assert_eq!(snap.events.last().unwrap().ts_ns, total - 1);
    }
}
