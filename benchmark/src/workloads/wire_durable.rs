//! `wire_durable` — the same path over the durable configuration.
//!
//! 256 B objects, 90 % writes / 10 % reads, windows of 8; depth 1 then depth
//! 16; then a clean shutdown, a reopen of the directory and everything read
//! back. This is the socket-to-fsync budget: fsync (≈ 190 µs on this
//! sandbox's disk) dominates the wire (≈ 17 µs), so a WAL gain must survive
//! the wire here, and a net gain should barely move it.

use super::wire::{self, Params};
use super::{Ctx, Outcome};

pub fn run(ctx: &Ctx) -> Outcome {
    wire::run(
        ctx,
        &Params {
            name: "wire_durable",
            durable: true,
            payload: 256,
            write_pct: 90,
            sat_depth: 16,
        },
    )
}
