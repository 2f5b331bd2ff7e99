//! Helpers shared by the replication tests.
#![allow(dead_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use terp_persist::{load_checkpoint, read_log, recover_from, WAL_FILE};
use terp_pmo::PmoRegistry;
use terp_repl::ReplFollower;

pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("terp-repl-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

pub fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}"))
}

/// One pool's identity: id, name, size, live blocks, page bytes.
pub type PoolPrint = (u16, String, u64, Vec<(u64, u64)>, Vec<(u64, Vec<u8>)>);

/// A pool-state fingerprint: byte-identical means equal fingerprints.
pub fn fingerprint(reg: &PmoRegistry) -> Vec<PoolPrint> {
    let mut pools: Vec<_> = reg
        .iter()
        .map(|p| {
            (
                p.id().raw(),
                p.name().to_string(),
                p.size(),
                p.allocator().live_blocks().collect::<Vec<_>>(),
                p.export_pages()
                    .map(|(i, b)| (i, b.to_vec()))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    pools.sort_by_key(|p| p.0);
    pools
}

/// Highest durable seq of each shard, read straight from the leader's
/// files: its last WAL record, or the checkpoint that truncated the WAL.
/// (`visibility = durable` makes this exact: an acknowledged operation is
/// already on disk.)
pub fn durable_seqs(dir: &Path, shards: usize) -> Vec<Option<u64>> {
    (0..shards)
        .map(|i| {
            let sdir = shard_dir(dir, i);
            let wal = fs::read(sdir.join(WAL_FILE)).unwrap_or_default();
            read_log(&wal)
                .last_seq()
                .max(load_checkpoint(&sdir).unwrap().seq)
        })
        .collect()
}

/// Spins until the follower has bootstrapped every shard and applied at
/// least the given per-shard seqs.
pub fn wait_applied(follower: &ReplFollower, want: &[Option<u64>]) {
    let start = Instant::now();
    loop {
        let lag = follower.lag();
        let ok = lag.len() == want.len()
            && lag
                .iter()
                .zip(want)
                .all(|(l, w)| l.bootstrapped && w.is_none_or(|seq| l.applied_seq >= seq));
        if ok {
            return;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "follower did not converge: lag={lag:?} want={want:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Store-level offline recovery of one shard of a leader directory —
/// exactly what `DurableStore::open` replays, without touching a file.
pub fn offline_recovery(dir: &Path, shard: usize) -> Vec<PoolPrint> {
    let sdir = shard_dir(dir, shard);
    let image = load_checkpoint(&sdir).unwrap();
    let wal = fs::read(sdir.join(WAL_FILE)).unwrap_or_default();
    let (state, _) = recover_from(&image, &wal).unwrap();
    fingerprint(&state.registry)
}

/// Asserts every shard of the follower's warm registry equals offline
/// recovery of the leader's directory.
pub fn assert_warm_matches(follower: &ReplFollower, dir: &Path, shards: usize, what: &str) {
    for shard in 0..shards {
        let got = follower
            .inspect(shard as u32, fingerprint)
            .expect("shard mirror exists");
        assert_eq!(
            got,
            offline_recovery(dir, shard),
            "{what}: shard {shard}: warm registry diverged from offline recovery"
        );
    }
}
