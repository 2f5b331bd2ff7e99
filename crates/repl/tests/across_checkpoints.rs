//! Replication across checkpoint boundaries: a standby never lies.
//!
//! The leader's stores checkpoint on their own trigger, truncating the WAL
//! the leader ships from. Whenever the follower says `is_caught_up()`, its
//! warm registry must fingerprint equal to offline recovery of the leader's
//! directory — joining after a checkpoint (when all the data lives in
//! `ckpt.log`), attached while checkpoints truncate the log under it, across
//! a compaction that replaces `ckpt.log`, and across a restart of the
//! leader's service. And no checkpoint costs it its connection.

mod common;

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use terp_core::config::Scheme;
use terp_persist::{first_seq, load_checkpoint, DurableStore, CKPT_FILE};
use terp_pmo::{ObjectId, OpenMode, Permission, PmoId};
use terp_repl::{ReplFollower, ReplFollowerConfig, ReplLeader, ReplLeaderConfig};
use terp_service::{PmoServer, PmoService, ServiceConfig, Visibility};

use common::{assert_warm_matches, durable_seqs, fingerprint, shard_dir, temp_dir, wait_applied};

const SHARDS: usize = 1;
const POOLS: usize = 4;
const OBJECTS: usize = 8;

fn config(dir: &Path) -> ServiceConfig {
    ServiceConfig::for_tests(Scheme::terp_full())
        .with_shards(SHARDS)
        .with_durable(dir)
        .with_visibility(Visibility::Durable)
}

/// The leader's working set: every pool's window held open by client 0.
struct Load {
    objects: Vec<(ObjectId, Vec<u8>)>,
    round: u32,
}

impl Load {
    fn create(svc: &PmoService) -> Load {
        let mut objects = Vec::new();
        for p in 0..POOLS {
            let pool = svc
                .create_pool(&format!("across-{p}"), 1 << 16, OpenMode::ReadWrite)
                .unwrap();
            svc.attach(0, pool, Permission::ReadWrite).unwrap();
            for _ in 0..OBJECTS {
                objects.push((svc.alloc(0, pool, 512).unwrap(), vec![0; 512]));
            }
        }
        Load { objects, round: 0 }
    }

    fn pools(&self) -> Vec<PmoId> {
        let mut pools: Vec<PmoId> = self.objects.iter().map(|(oid, _)| oid.pmo()).collect();
        pools.dedup();
        pools
    }

    /// About `records` log records in one batch (one fsync): overwrites of
    /// the working set, with a second client's session coming and going.
    fn round(&mut self, svc: &PmoService, records: usize) {
        self.round += 1;
        let pool = self.objects[0].0.pmo();
        let mut batch = svc.batch();
        batch.attach(1, pool, Permission::ReadWrite).unwrap();
        for n in 0..records {
            let k = (n * 7 + self.round as usize) % self.objects.len();
            let (oid, bytes) = &mut self.objects[k];
            bytes.fill((self.round % 251) as u8);
            bytes[0] = n as u8;
            batch.write(0, *oid, bytes).unwrap();
        }
        batch.detach(1, pool).unwrap();
        batch.commit().unwrap();
    }
}

/// What the committed checkpoint of shard 0 is: its seq, and which
/// `ckpt.log` it lives in.
fn checkpoint_of(dir: &Path) -> (Option<u64>, Option<u64>) {
    let sdir = shard_dir(dir, 0);
    let generation = first_seq(&fs::read(sdir.join(CKPT_FILE)).unwrap_or_default());
    (load_checkpoint(&sdir).unwrap().seq, generation)
}

/// Waits for the follower to say it is caught up with an idle leader and
/// holds it to its word.
fn assert_caught_up_means_equal(follower: &ReplFollower, dir: &Path, what: &str) {
    wait_applied(follower, &durable_seqs(dir, SHARDS));
    let start = Instant::now();
    while !follower.is_caught_up() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{what}: never caught up"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_warm_matches(follower, dir, SHARDS, what);
}

/// Kills the leader, then checks the warm registry against a real restart
/// of its directory and the promoted follower against both.
fn kill_and_promote(
    server: PmoServer,
    leader: ReplLeader,
    follower: ReplFollower,
    load: &Load,
    leader_dir: &Path,
) {
    let held = load.pools().len();
    assert_eq!(
        follower.open_windows(),
        held,
        "the standby saw every window"
    );
    drop(server); // no drain: the windows stay open on disk
    leader.shutdown();

    let warm = follower.inspect(0, fingerprint).unwrap();
    let (_, restarted, report) =
        DurableStore::open(&shard_dir(leader_dir, 0), Visibility::Durable).unwrap();
    assert_eq!(warm, fingerprint(&restarted.registry), "warm vs. restart");
    assert_eq!(report.windows_resealed, held);

    let promoted = follower.promote(config(leader_dir)).unwrap();
    let svc = promoted.service();
    let rec = svc.recovery_stats().unwrap();
    assert_eq!(
        rec.windows_resealed as usize, held,
        "promotion reseals them all"
    );
    assert_eq!(rec.pools_recovered as usize, POOLS);
    for (oid, bytes) in &load.objects {
        svc.attach(7, oid.pmo(), Permission::Read).unwrap();
        assert_eq!(&svc.read(7, *oid, bytes.len()).unwrap(), bytes);
        svc.detach(7, oid.pmo()).unwrap();
    }
    promoted.shutdown();
}

/// With the data in `ckpt.log` and only a short WAL behind it, a follower
/// that joins must not report "caught up" over an empty mirror.
#[test]
fn a_follower_joining_after_a_checkpoint_bootstraps_from_the_image() {
    let leader_dir = temp_dir("join-leader");
    let mirror_dir = temp_dir("join-mirror");
    let trigger = terp_persist::CHECKPOINT_TRIGGER as usize;

    let server = PmoServer::try_start(config(&leader_dir)).unwrap();
    let svc = server.service();
    let mut load = Load::create(&svc);
    while checkpoint_of(&leader_dir).0.is_none() {
        load.round(&svc, trigger / 4);
    }
    load.round(&svc, 64); // a short WAL on top of the image

    let leader =
        ReplLeader::start(ReplLeaderConfig::new(&leader_dir, SHARDS), "127.0.0.1:0").unwrap();
    let follower =
        ReplFollower::start(ReplFollowerConfig::new(leader.local_addr(), &mirror_dir, 1));
    // From the first moment it claims to be caught up, it is: the leader is
    // idle, so there is exactly one state to be level with.
    let start = Instant::now();
    while !follower.is_caught_up() {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "{:?}",
            follower.lag()
        );
        std::thread::yield_now();
    }
    assert_warm_matches(&follower, &leader_dir, SHARDS, "first caught-up");
    let lag = follower.lag();
    assert_eq!(
        Some(lag[0].applied_seq),
        durable_seqs(&leader_dir, SHARDS)[0]
    );
    assert!(
        lag[0].leader_seq > 0,
        "the leader advertised its checkpoint"
    );
    assert_eq!(follower.connections(), 1);

    kill_and_promote(server, leader, follower, &load, &leader_dir);
    fs::remove_dir_all(&leader_dir).ok();
    fs::remove_dir_all(&mirror_dir).ok();
}

/// Attached while the leader's log is truncated under
/// it — three automatic checkpoints and more, a compaction among them, a
/// restart of the leader's service in the middle — on one connection.
#[test]
fn a_follower_attached_across_checkpoints_keeps_its_connection_and_its_word() {
    let leader_dir = temp_dir("attached-leader");
    let mirror_dir = temp_dir("attached-mirror");
    let trigger = terp_persist::CHECKPOINT_TRIGGER as usize;

    let mut server = PmoServer::try_start(config(&leader_dir)).unwrap();
    let mut svc = server.service();
    let mut load = Load::create(&svc);
    let leader =
        ReplLeader::start(ReplLeaderConfig::new(&leader_dir, SHARDS), "127.0.0.1:0").unwrap();
    let follower =
        ReplFollower::start(ReplFollowerConfig::new(leader.local_addr(), &mirror_dir, 2));
    assert_caught_up_means_equal(&follower, &leader_dir, "bootstrap");

    let (mut checkpoints, mut compactions) = (0, 0);
    let mut last = checkpoint_of(&leader_dir);
    let mut restarted = false;
    while checkpoints < 4 || compactions < 2 || !restarted {
        // Less than a trigger per round: at most one checkpoint in each.
        load.round(&svc, trigger / 3);
        let now = checkpoint_of(&leader_dir);
        checkpoints += usize::from(now.0 != last.0);
        // The first image is a "compaction" of nothing; count the ones that
        // replaced an image.
        compactions += usize::from(now.1 != last.1 && last.1.is_some());
        last = now;
        assert_caught_up_means_equal(
            &follower,
            &leader_dir,
            &format!("round {} ({checkpoints} checkpoints)", load.round),
        );
        assert!(follower.is_connected());

        if checkpoints == 2 && !restarted {
            // The leader's service dies and restarts on its directory; the
            // log shipper and the follower's connection live through it.
            drop(svc);
            drop(server);
            server = PmoServer::try_start(config(&leader_dir)).unwrap();
            svc = server.service();
            assert_eq!(
                svc.recovery_stats().unwrap().windows_resealed as usize,
                POOLS
            );
            for pool in load.pools() {
                svc.attach(0, pool, Permission::ReadWrite).unwrap();
            }
            restarted = true;
            assert_caught_up_means_equal(&follower, &leader_dir, "after the restart");
        }
    }
    assert_eq!(
        follower.connections(),
        1,
        "a checkpoint never drops the connection or restarts the mirror"
    );
    assert_eq!(leader.followers(), 1);

    kill_and_promote(server, leader, follower, &load, &leader_dir);
    fs::remove_dir_all(&leader_dir).ok();
    fs::remove_dir_all(&mirror_dir).ok();
}
