//! `WindowTracker` keeps running aggregates, not a history: a service that
//! closes windows for as long as it runs must not pay for them in memory,
//! nor in the time a report takes. Alone in its test binary, because it
//! counts the process's live heap bytes through a global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use terp_core::WindowTracker;
use terp_pmo::PmoId;

static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and touches no memory
// the allocator hands out. `realloc` keeps its default (`alloc` + copy +
// `dealloc`), so it is counted through the two methods below.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `Self::alloc`, i.e. from `System::alloc`
        // with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_million_windows_leave_the_heap_flat_and_the_stats_constant_time() {
    const WINDOWS: usize = 1_000_000;
    const WARM_UP: usize = 64;
    let pools: Vec<PmoId> = (1..=8).map(|n| PmoId::new(n).unwrap()).collect();
    let mut w = WindowTracker::new();
    let mut now = 0;
    let mut splits = 0;
    let mut window = |w: &mut WindowTracker, i: usize| {
        let (pmo, thread) = (pools[i % pools.len()], i % 4);
        w.open_ew(pmo, now);
        w.open_tew(thread, pmo, now);
        now += 40;
        if i.is_multiple_of(3) {
            w.split_ew(pmo, now);
            splits += 1;
            now += 2;
        }
        w.close_tew(thread, pmo, now);
        w.close_ew(pmo, now);
    };
    // Every pool and thread once: the maps reach their final capacity.
    (0..WARM_UP).for_each(|i| window(&mut w, i));
    let before = LIVE.load(Ordering::Relaxed);
    let mut seen = 0;
    for i in WARM_UP..WARM_UP + WINDOWS {
        window(&mut w, i);
        // Asked after every close: statistics that walked the closed
        // windows would make this loop quadratic (5e11 steps) — it would
        // not finish.
        seen = w.ew_stats().count + w.tew_stats().count;
    }
    let grown = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    // A 16-byte entry per closed window would be 40 MB here; the slack is
    // for whatever the test harness allocates on its own threads meanwhile.
    assert!(grown < 64 << 10, "the heap grew by {grown} bytes");
    let total = (WARM_UP + WINDOWS) as u64;
    assert_eq!(seen, 2 * total + splits);
    assert_eq!(w.ew_stats().max_cycles, 40, "a split caps the window");
    assert_eq!(w.tew_stats().max_cycles, 42);
    assert_eq!(w.tew_stats().total_cycles, 40 * total + 2 * splits);
    assert!(w.exposure_rate(now) > 0.0);
}
