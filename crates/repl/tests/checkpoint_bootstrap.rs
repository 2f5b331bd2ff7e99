//! Checkpoint bootstrap: a follower joining mid-stream — after the leader
//! has checkpointed, so part of history exists only in the checkpoint image
//! — must converge to byte-identical state via image + log-suffix replay.
//!
//! Property-style: random op mixes under a seeded LCG, several seeds. The
//! reference state for each shard is the store-level offline recovery of
//! the leader's durable directory (`load_checkpoint` + `recover_from`, what
//! `DurableStore::open` runs); the follower's warm registry must
//! fingerprint identically.

mod common;

use std::fs;

use terp_core::config::Scheme;
use terp_pmo::{ObjectId, OpenMode, Permission, PmoId};
use terp_repl::{ReplFollower, ReplFollowerConfig, ReplLeader, ReplLeaderConfig};
use terp_service::{PmoServer, PmoService, ServiceConfig, Visibility};

use common::{assert_warm_matches, durable_seqs, temp_dir, wait_applied};

const SHARDS: usize = 2;
const CLIENT: usize = 0;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Runs `n` random ops against the service, tracking live allocations so
/// frees and writes stay valid.
fn random_ops(
    svc: &PmoService,
    rng: &mut Lcg,
    live: &mut Vec<(PmoId, ObjectId, u64)>,
    pools: &mut Vec<PmoId>,
    n: usize,
) {
    for _ in 0..n {
        match rng.below(10) {
            0 if pools.len() < 6 => {
                let name = format!("pool-{}", rng.next());
                let p = svc
                    .create_pool(&name, 1 << 18, OpenMode::ReadWrite)
                    .unwrap();
                svc.attach(CLIENT, p, Permission::ReadWrite).unwrap();
                pools.push(p);
            }
            1..=3 if !pools.is_empty() => {
                let p = pools[rng.below(pools.len() as u64) as usize];
                let size = 16 + rng.below(240);
                if let Ok(oid) = svc.alloc(CLIENT, p, size) {
                    live.push((p, oid, size));
                }
            }
            4..=7 if !live.is_empty() => {
                let (_, oid, size) = live[rng.below(live.len() as u64) as usize];
                let len = 1 + rng.below(size) as usize;
                let byte = (rng.next() & 0xff) as u8;
                svc.write(CLIENT, oid, &vec![byte; len]).unwrap();
            }
            8 if live.len() > 2 => {
                let (_, oid, _) = live.swap_remove(rng.below(live.len() as u64) as usize);
                svc.free(CLIENT, oid).unwrap();
            }
            _ => {}
        }
    }
}

fn run_seed(seed: u64) {
    let leader_dir = temp_dir(&format!("boot-leader-{seed}"));
    let mirror_dir = temp_dir(&format!("boot-mirror-{seed}"));
    let mut rng = Lcg(seed);
    let mut live = Vec::new();
    let mut pools = Vec::new();

    let config = || {
        ServiceConfig::for_tests(Scheme::terp_full())
            .with_shards(SHARDS)
            .with_durable(&leader_dir)
            .with_visibility(Visibility::Durable)
    };

    // Phase 1: random history, then a clean shutdown — which checkpoints,
    // leaving the compacted image plus truncated WALs. A follower joining
    // later can only learn this part of history from the image.
    let server = PmoServer::try_start(config()).unwrap();
    random_ops(&server.service(), &mut rng, &mut live, &mut pools, 120);
    server.shutdown();

    // Phase 2: the leader reopens and keeps mutating — this part is the
    // log suffix the follower replays past the image's watermarks.
    let server = PmoServer::try_start(config()).unwrap();
    let svc = server.service();
    for &p in &pools {
        svc.attach(CLIENT, p, Permission::ReadWrite).unwrap();
    }
    random_ops(&svc, &mut rng, &mut live, &mut pools, 120);

    // The follower joins mid-stream.
    let leader =
        ReplLeader::start(ReplLeaderConfig::new(&leader_dir, SHARDS), "127.0.0.1:0").unwrap();
    let follower = ReplFollower::start(ReplFollowerConfig::new(
        leader.local_addr(),
        &mirror_dir,
        seed,
    ));

    // A little more traffic while it catches up.
    random_ops(&svc, &mut rng, &mut live, &mut pools, 60);

    wait_applied(&follower, &durable_seqs(&leader_dir, SHARDS));
    drop(server); // freeze the leader's files (no drain: seqs stay as read)
    leader.shutdown();

    // Reference per shard: offline recovery of image + full WAL.
    assert_warm_matches(&follower, &leader_dir, SHARDS, &format!("seed {seed}"));

    follower.shutdown();
    fs::remove_dir_all(&leader_dir).ok();
    fs::remove_dir_all(&mirror_dir).ok();
}

#[test]
fn mid_stream_join_converges_byte_identical_across_seeds() {
    for seed in [0x5eed_0001u64, 0x5eed_0002, 0x5eed_0003, 0x5eed_0004] {
        run_seed(seed);
    }
}
