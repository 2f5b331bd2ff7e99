//! Live leader → follower → kill → promote, over real loopback sockets.

mod common;

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use terp_core::config::Scheme;
use terp_pmo::{OpenMode, Permission};
use terp_repl::{ReplFollower, ReplFollowerConfig, ReplLeader, ReplLeaderConfig};
use terp_service::{PmoServer, ServiceConfig, Visibility};

use common::{durable_seqs, temp_dir, wait_applied};

fn durable_config(dir: &Path, shards: usize) -> ServiceConfig {
    ServiceConfig::for_tests(Scheme::terp_full())
        .with_shards(shards)
        .with_durable(dir)
        .with_visibility(Visibility::Durable)
}

#[test]
fn kill_leader_promote_follower_reseal_and_serve() {
    let leader_dir = temp_dir("failover-leader");
    let mirror_dir = temp_dir("failover-mirror");
    let shards = 2;

    // Leader service under load: committed data plus a window left open.
    let server = PmoServer::try_start(durable_config(&leader_dir, shards)).unwrap();
    let svc = server.service();
    let p = svc
        .create_pool("ledger", 1 << 16, OpenMode::ReadWrite)
        .unwrap();
    svc.attach(0, p, Permission::ReadWrite).unwrap();
    let oid = svc.alloc(0, p, 64).unwrap();
    svc.write(0, oid, b"replicate-me").unwrap();

    // Replication comes up against the live directory.
    let leader =
        ReplLeader::start(ReplLeaderConfig::new(&leader_dir, shards), "127.0.0.1:0").unwrap();
    let follower =
        ReplFollower::start(ReplFollowerConfig::new(leader.local_addr(), &mirror_dir, 1));

    let want = durable_seqs(&leader_dir, shards);
    assert!(
        want.iter().any(|w| w.is_some()),
        "workload must have logged"
    );
    wait_applied(&follower, &want);
    assert!(follower.is_connected());
    assert!(
        follower.open_windows() >= 1,
        "warm standby must witness the leader's open window"
    );
    // The warm registry already holds the data (standby reads).
    let seen = follower
        .inspect(0, |reg| reg.lookup("ledger").is_some())
        .unwrap_or(false)
        || follower
            .inspect(1, |reg| reg.lookup("ledger").is_some())
            .unwrap_or(false);
    assert!(seen, "warm registry must hold the replicated pool");

    // Leader dies: no drain, no checkpoint, window still open on disk.
    drop(server);
    leader.shutdown();

    // Promote: recovery over the mirror, reseal, then serve.
    let promoted = follower
        .promote(durable_config(&leader_dir, shards)) // durable dir is overridden with the mirror
        .unwrap();
    let svc2 = promoted.service();
    let rec = svc2.recovery_stats().expect("durable recovery ran");
    assert!(
        rec.windows_resealed >= 1,
        "the leader's open window must be force-resealed: {rec:?}"
    );
    assert_eq!(rec.pools_recovered, 1);

    // Committed data survived, byte for byte.
    svc2.attach(7, p, Permission::ReadWrite).unwrap();
    assert_eq!(svc2.read(7, oid, 12).unwrap(), b"replicate-me");
    // And the promoted leader accepts new mutations.
    let oid2 = svc2.alloc(7, p, 32).unwrap();
    svc2.write(7, oid2, b"after-failover").unwrap();

    promoted.shutdown();
    fs::remove_dir_all(&leader_dir).ok();
    fs::remove_dir_all(&mirror_dir).ok();
}

#[test]
fn follower_reconnects_and_rebootstraps_after_leader_restart() {
    let leader_dir = temp_dir("reconnect-leader");
    let mirror_dir = temp_dir("reconnect-mirror");
    let shards = 1;

    let server = PmoServer::try_start(durable_config(&leader_dir, shards)).unwrap();
    let svc = server.service();
    let p = svc
        .create_pool("log", 1 << 16, OpenMode::ReadWrite)
        .unwrap();
    svc.attach(0, p, Permission::ReadWrite).unwrap();
    let oid = svc.alloc(0, p, 64).unwrap();
    svc.write(0, oid, b"epoch-one").unwrap();

    let leader1 =
        ReplLeader::start(ReplLeaderConfig::new(&leader_dir, shards), "127.0.0.1:0").unwrap();
    let addr = leader1.local_addr();
    let follower = ReplFollower::start(ReplFollowerConfig::new(addr, &mirror_dir, 2));
    wait_applied(&follower, &durable_seqs(&leader_dir, shards));

    // The replication endpoint dies (say, its process restarts)…
    leader1.shutdown();
    let gone = Instant::now();
    while follower.is_connected() {
        assert!(
            gone.elapsed() < Duration::from_secs(10),
            "follower must notice"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // …the service keeps writing meanwhile…
    svc.write(0, oid, b"epoch-two").unwrap();

    // …and a restarted endpoint on the same address picks the follower
    // back up via its exponential-backoff reconnect, with a fresh
    // bootstrap.
    let leader2 = ReplLeader::start(ReplLeaderConfig::new(&leader_dir, shards), addr).unwrap();
    wait_applied(&follower, &durable_seqs(&leader_dir, shards));
    let data = follower
        .inspect(0, |reg| {
            let pool = reg.pool(p).unwrap();
            let mut buf = [0u8; 9];
            pool.read_bytes(oid.offset(), &mut buf).unwrap();
            buf.to_vec()
        })
        .unwrap();
    assert_eq!(data, b"epoch-two");

    follower.shutdown();
    leader2.shutdown();
    server.shutdown();
    fs::remove_dir_all(&leader_dir).ok();
    fs::remove_dir_all(&mirror_dir).ok();
}

/// An expiry's `WindowClose` waits in the leader's log buffer for the
/// shard's next commit. When none comes the sweeper commits it itself one EW
/// target later, so a standby's open-window set still falls to the leader's
/// true one after the leader goes quiet — promotion reseals what is open,
/// not what once was.
#[test]
fn follower_sees_an_expiry_after_the_leader_goes_quiet() {
    let leader_dir = temp_dir("quiet-leader");
    let mirror_dir = temp_dir("quiet-mirror");
    let target = Duration::from_millis(50);
    // No sweeper thread: the test makes the passes itself.
    let config = durable_config(&leader_dir, 1).with_ew_target_us(target.as_micros() as u64);
    let server = PmoServer::try_start(config).unwrap();
    let svc = server.service();
    let pool = |name| svc.create_pool(name, 1 << 16, OpenMode::ReadWrite).unwrap();
    let (held, idle) = (pool("held"), pool("idle"));
    svc.attach(0, held, Permission::ReadWrite).unwrap();
    // Opened and closed inside the target: the detach is delayed, the
    // window the sweeper's to close. The leader's last client call.
    let mut batch = svc.batch();
    batch.attach(1, idle, Permission::ReadWrite).unwrap();
    batch.detach(1, idle).unwrap();
    batch.commit().unwrap();

    let leader = ReplLeader::start(ReplLeaderConfig::new(&leader_dir, 1), "127.0.0.1:0").unwrap();
    let follower =
        ReplFollower::start(ReplFollowerConfig::new(leader.local_addr(), &mirror_dir, 1));
    wait_applied(&follower, &durable_seqs(&leader_dir, 1));
    assert_eq!(follower.open_windows(), 2);

    std::thread::sleep(target);
    assert_eq!(svc.sweep_all(), 2, "one relocated, one expired");
    assert_eq!(svc.attached_total(), 1);
    let syncs = svc.report().wal.unwrap().syncs;
    std::thread::sleep(target);
    svc.sweep_all();
    let report = svc.report();
    assert_eq!(report.sweeper_syncs, 1, "nobody else committed the close");
    assert_eq!(report.wal.unwrap().syncs, syncs + 1);

    let start = Instant::now();
    while follower.open_windows() != 1 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the standby still counts the expired window as open"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    follower.shutdown();
    leader.shutdown();
    server.shutdown();
    fs::remove_dir_all(&leader_dir).ok();
    fs::remove_dir_all(&mirror_dir).ok();
}

#[test]
fn standby_service_is_read_only_until_promoted() {
    let server =
        PmoServer::try_start(ServiceConfig::for_tests(Scheme::terp_full()).with_standby(true))
            .unwrap();
    let svc = server.service();
    assert!(svc.is_read_only());
    assert!(matches!(
        svc.create_pool("nope", 4096, OpenMode::ReadWrite),
        Err(terp_service::ServiceError::ReadOnly)
    ));
    server.promote();
    assert!(!svc.is_read_only());
    let p = svc.create_pool("yep", 4096, OpenMode::ReadWrite).unwrap();
    svc.attach(0, p, Permission::ReadWrite).unwrap();
    let oid = svc.alloc(0, p, 16).unwrap();
    svc.write(0, oid, b"writable").unwrap();
    server.shutdown();
}
