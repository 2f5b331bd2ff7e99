//! A pipelined request allocates nothing on the calling thread. Once the
//! connection's ticket slab, outbox and read buffers have grown to the
//! pipeline, a ping submitted and waited on at depth 32 is framed in place,
//! takes a slab entry and gives it back, and its reply is decoded straight
//! from the read buffer. Alone in its test binary, because it counts the
//! calling thread's allocator calls through a global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use terp_core::Scheme;
use terp_net::{Client, NetServer, Pending};
use terp_service::config::ServiceConfig;
use terp_service::PmoServer;

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) made by this
    /// thread: the server's threads cannot disturb the count.
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
fn depth_32_pings_make_no_allocation_on_the_calling_thread() {
    const DEPTH: usize = 32;
    const PINGS: usize = 1_000;
    let config = ServiceConfig::for_tests(Scheme::terp_full());
    let net = NetServer::start(PmoServer::start(config), "127.0.0.1:0").expect("bind loopback");
    let client = Client::connect(net.local_addr(), 7).expect("connect");
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(DEPTH);
    // A closed loop: wait on the oldest ticket, submit a new one.
    let mut pings = |n: usize| {
        for _ in 0..n {
            if inflight.len() == DEPTH {
                let oldest = inflight.pop_front().expect("a full pipeline");
                oldest.wait_unit().expect("ping");
            }
            inflight.push_back(client.ping_pipelined().expect("submit"));
        }
    };
    // Warm-up: the slab, its free list, the outbox, the decoder and this
    // thread's handle reach their final size.
    pings(20 * PINGS);

    let start = allocations();
    pings(PINGS);
    let made = allocations() - start;

    for ticket in inflight.drain(..) {
        ticket.wait_unit().expect("ping");
    }
    net.shutdown();
    assert_eq!(
        made, 0,
        "{PINGS} pipelined pings made {made} allocator calls"
    );
}
