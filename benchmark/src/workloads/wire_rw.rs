//! `wire_rw` — loopback TCP → net server → in-memory service.
//!
//! 1 connection, two 1 MiB pools (one per shard) of 256 × 64 B objects;
//! windows of `attach, 8 × (50 % read / 50 % write), detach`, all pipelined;
//! depth 1 then depth 32. Net does nearly all the work (≈ 17 µs per request
//! against ≈ 0.1–0.4 µs of service), persist none: a net change shows here
//! and nowhere else.

use super::wire::{self, Params};
use super::{Ctx, Outcome};

pub fn run(ctx: &Ctx) -> Outcome {
    wire::run(
        ctx,
        &Params {
            name: "wire_rw",
            durable: false,
            payload: 64,
            write_pct: 50,
            sat_depth: 32,
        },
    )
}
