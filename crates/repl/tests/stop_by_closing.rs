//! Replication threads stop because their socket is closed or their park
//! is unparked, never because a timeout fired: a leader behind a follower
//! that stopped reading, and a follower deep in its reconnect wait, both
//! stop at once.

mod common;

use std::fs;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use terp_core::config::Scheme;
use terp_net::encode_frame;
use terp_net::repl::ReplMsg;
use terp_pmo::{OpenMode, Permission};
use terp_repl::{ReplFollower, ReplFollowerConfig, ReplLeader, ReplLeaderConfig};
use terp_service::{PmoServer, ServiceConfig};

use common::temp_dir;

#[test]
fn leader_shutdown_behind_a_follower_that_stopped_reading() {
    let dir = temp_dir("stalled-follower");
    let server = PmoServer::try_start(
        ServiceConfig::for_tests(Scheme::terp_full())
            .with_shards(1)
            .with_durable(&dir),
    )
    .unwrap();
    let svc = server.service();
    let p = svc
        .create_pool("bulk", 1 << 16, OpenMode::ReadWrite)
        .unwrap();
    svc.attach(0, p, Permission::ReadWrite).unwrap();
    let oid = svc.alloc(0, p, 60_000).unwrap();
    // ≈ 30 MiB of WAL: far more than the socket buffers on both ends hold.
    for i in 0..512u32 {
        svc.write(0, oid, &[i as u8; 60_000]).unwrap();
    }

    let leader = ReplLeader::start(ReplLeaderConfig::new(&dir, 1), "127.0.0.1:0").unwrap();
    let mut stalled = TcpStream::connect(leader.local_addr()).unwrap();
    for msg in [ReplMsg::hello(1), ReplMsg::Subscribe] {
        stalled.write_all(&encode_frame(&msg.encode())).unwrap();
    }
    // The follower never reads: the feeder fills the socket and blocks in
    // a send.
    std::thread::sleep(Duration::from_millis(500));

    let (done, stopped) = mpsc::channel();
    let start = Instant::now();
    std::thread::spawn(move || {
        leader.shutdown();
        let _ = done.send(());
    });
    assert!(
        stopped.recv_timeout(Duration::from_secs(10)).is_ok(),
        "leader shutdown hung behind a follower that stopped reading"
    );
    eprintln!(
        "leader shutdown behind a stalled follower: {:?}",
        start.elapsed()
    );

    drop(stalled);
    server.shutdown();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_follower_in_a_long_reconnect_wait_halts_at_once() {
    let mirror = temp_dir("reconnect-wait");
    // A port nobody listens on: every connect is refused at once.
    let nobody = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let follower = ReplFollower::start(ReplFollowerConfig::new(nobody, &mirror, 1));
    // Waits of 10 + 20 + 40 + 80 + 160 ms are behind it; it is inside the
    // 320 ms one.
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(follower.connections(), 0);

    let start = Instant::now();
    follower.shutdown();
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(100),
        "follower halt waited out its reconnect delay: {took:?}"
    );
    fs::remove_dir_all(&mirror).ok();
}
