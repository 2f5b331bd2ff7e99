//! A silent window allocates nothing. Once a pool's window is open and each
//! of its tables has grown to the pool, a session that attaches silently,
//! writes, reads and detaches with a delay does its bookkeeping in place:
//! per-pool state is indexed by pool id and a holder list keeps its
//! allocation when it empties. Alone in its test binary, because it counts
//! the calling thread's allocator calls through a global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use terp_core::config::Scheme;
use terp_pmo::{ObjectId, OpenMode, Permission, PmoId};
use terp_service::{PmoService, ServiceConfig};

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) made by this
    /// thread: the harness's own threads cannot disturb the count.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread past its TLS teardown still allocates.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    CALLS.with(Cell::get)
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local statistic and
// touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller's `new_size` obligations are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn silent_windows_on_the_in_memory_service_make_no_allocation() {
    const WINDOWS: usize = 1_000;
    // A 1 s EW target and no sweeper: every detach is delayed and every
    // attach after the first combines with the pool's open window.
    let config = ServiceConfig::for_tests(Scheme::terp_full())
        .with_ew_target_us(1_000_000)
        .with_sweep_period_us(0);
    let svc = PmoService::new(config);
    let client = 0;
    let pools: Vec<(PmoId, ObjectId)> = (0..4)
        .map(|i| {
            let pmo = svc
                .create_pool(&format!("p{i}"), 1 << 16, OpenMode::ReadWrite)
                .unwrap();
            svc.attach(client, pmo, Permission::ReadWrite).unwrap();
            let oid = svc.alloc(client, pmo, 64).unwrap();
            svc.detach(client, pmo).unwrap();
            (pmo, oid)
        })
        .collect();
    let mut buf = [0u8; 8];
    let mut window = |i: usize| {
        let (pmo, oid) = pools[i % pools.len()];
        svc.attach(client, pmo, Permission::ReadWrite).unwrap();
        svc.write(client, oid, &(i as u64).to_le_bytes()).unwrap();
        for _ in 0..7 {
            svc.read_into(client, oid, &mut buf).unwrap();
        }
        assert_eq!(u64::from_le_bytes(buf), i as u64);
        svc.detach(client, pmo).unwrap();
    };
    // One round over every pool: this thread's metric slab, the data
    // pages and every table reach their final size.
    (0..pools.len()).for_each(&mut window);

    let before = svc.report();
    let start = allocations();
    (0..WINDOWS).for_each(&mut window);
    let made = allocations() - start;
    let after = svc.report();

    let silent = after.cond.silent_attach - before.cond.silent_attach;
    let delayed = after.cond.delayed_detach - before.cond.delayed_detach;
    assert_eq!(silent, WINDOWS as u64, "every attach must combine windows");
    assert_eq!(delayed, WINDOWS as u64, "every detach must be delayed");
    assert_eq!(after.attach_syscalls, before.attach_syscalls);
    assert_eq!(
        made, 0,
        "{WINDOWS} silent windows made {made} allocator calls"
    );
}
