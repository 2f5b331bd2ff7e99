//! Semantics over the wire: the paper's MM-blocking / TT-silent contrasts
//! must survive the network boundary. A parked attach blocks its *request*,
//! never the connection; a drained server answers in-flight requests with
//! `ShuttingDown` instead of a hung socket; and the request lifecycle shows
//! up as `NetRecv -> NetExec` happens-before edges in the trace. Under
//! `visibility = durable` an ack on the socket means the record is already
//! in the shard's on-disk log, however many acks shared that fsync.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use terp_core::Scheme;
use terp_net::proto::MAX_STRING;
use terp_net::{Client, NetServer, ServiceError};
use terp_persist::{read_log, WalRecord, WAL_FILE};
use terp_pmo::{ObjectId, OpenMode, Permission};
use terp_service::config::ServiceConfig;
use terp_service::{PmoServer, TraceConfig, Visibility};

fn net_server(scheme: Scheme) -> NetServer {
    let config = ServiceConfig::for_tests(scheme);
    NetServer::start(PmoServer::start(config), "127.0.0.1:0").expect("bind loopback")
}

#[test]
fn loopback_roundtrip_all_ops() {
    let net = net_server(Scheme::terp_full());
    let addr = net.local_addr();
    let client = Client::connect(addr, 7).expect("connect");
    assert_eq!(client.server_version(), terp_net::VERSION);
    assert_eq!(client.server_scheme(), "TT");

    let pmo = client
        .create_pool("wire-pool", 1 << 16, OpenMode::ReadWrite)
        .expect("create");
    let waited = client.attach(pmo, Permission::ReadWrite).expect("attach");
    assert_eq!(waited, 0, "TT attach never queues");
    let oid = client.alloc(pmo, 256).expect("alloc");
    client.write(oid, b"over the wire").expect("write");
    assert_eq!(client.read(oid, 13).expect("read"), b"over the wire");
    client.free(oid).expect("free");
    client.detach(pmo).expect("detach");
    client.ping().expect("ping");

    // Service-level failures come back as the same typed enum in-process
    // callers see.
    let unknown = terp_pmo::PmoId::new(999).unwrap();
    assert_eq!(
        client.detach(unknown),
        Err(ServiceError::UnknownPmo(unknown))
    );
    assert!(matches!(
        client
            .attach(pmo, Permission::ReadWrite)
            .and_then(|_| { client.attach(pmo, Permission::ReadWrite).map(|_| ()) }),
        Err(ServiceError::AlreadyAttached { .. })
    ));

    net.shutdown();
}

#[test]
fn pipelined_ops_complete_while_attach_is_parked() {
    // Basic semantics: at most one client holds a pool; a second attach
    // parks server-side until the holder detaches.
    let net = net_server(Scheme::BasicSemantics);
    let addr = net.local_addr();
    let holder = Client::connect(addr, 1).expect("connect holder");
    let waiter = Client::connect(addr, 2).expect("connect waiter");

    let pmo = holder
        .create_pool("contended", 1 << 12, OpenMode::ReadWrite)
        .expect("create");
    assert_eq!(holder.attach(pmo, Permission::ReadWrite).expect("hold"), 0);

    // The waiter's attach parks on the holder's exposure window...
    let parked = waiter
        .attach_pipelined(pmo, Permission::ReadWrite)
        .expect("submit attach");
    // ...while later pipelined ops on the SAME connection complete. If the
    // parked attach head-of-line-blocked the connection, these would hang
    // with it (the test harness would time out).
    for _ in 0..3 {
        waiter.ping().expect("ping past a parked attach");
    }
    let probe = waiter
        .create_pool("side-pool", 1 << 12, OpenMode::ReadWrite)
        .expect("later op completes before the earlier attach");

    // Release the window after a measurable delay; the parked request then
    // completes with the queue wait attributed.
    let released = Arc::new(AtomicBool::new(false));
    let release_flag = Arc::clone(&released);
    let holder2 = holder.clone();
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        release_flag.store(true, Ordering::Release);
        holder2.detach(pmo).expect("release");
    });
    let waited_ns = parked.wait_attached().expect("parked attach completes");
    assert!(
        released.load(Ordering::Acquire),
        "attach completed before the holder released"
    );
    assert!(
        waited_ns > 0,
        "queue wait must be attributed to the parked attach"
    );
    releaser.join().unwrap();

    // The waiter now holds the contended pool and can open the side pool
    // it created while parked.
    waiter
        .attach(probe, Permission::ReadWrite)
        .expect("attach side pool");
    let oid = waiter.alloc(probe, 64).expect("alloc on side pool");
    waiter.write(oid, &[3; 16]).expect("write");
    waiter.detach(probe).expect("side detach");
    waiter.detach(pmo).expect("waiter detach");
    net.shutdown();
}

#[test]
fn drain_mid_request_returns_shutting_down_not_hung_socket() {
    let net = net_server(Scheme::BasicSemantics);
    let addr = net.local_addr();
    let holder = Client::connect(addr, 1).expect("connect holder");
    let waiter = Client::connect(addr, 2).expect("connect waiter");

    let pmo = holder
        .create_pool("drained", 1 << 12, OpenMode::ReadWrite)
        .expect("create");
    holder.attach(pmo, Permission::ReadWrite).expect("hold");

    // Park an attach, then drain the server out from under it.
    let parked = waiter
        .attach_pipelined(pmo, Permission::ReadWrite)
        .expect("submit attach");
    waiter.ping().expect("attach is parked, connection is live");

    let verdict = std::thread::spawn(move || parked.wait_attached());
    net.shutdown();
    let result = verdict.join().unwrap();
    assert_eq!(
        result,
        Err(ServiceError::ShuttingDown),
        "a drained request must get an explicit error response, not a dead socket"
    );

    // Post-shutdown submissions fail fast with a connection-level error.
    assert!(waiter.ping().is_err());
}

#[test]
fn protocol_violations_are_connection_fatal_and_typed() {
    let net = net_server(Scheme::terp_full());
    let addr = net.local_addr();

    // A raw socket speaking garbage gets an error frame, then the close.
    use std::io::{Read, Write};
    let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
    raw.write_all(&terp_net::encode_frame(&[0x42; 12])).unwrap();
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf)
        .expect("server responds then closes");
    let mut dec = terp_net::FrameDecoder::new();
    dec.push(&buf);
    let payload = dec
        .next_frame()
        .expect("clean frame")
        .expect("error frame before close");
    let (id, resp) = terp_net::Response::decode(payload).expect("decodable");
    assert_eq!(id, 0, "connection-level errors ride request id 0");
    assert!(matches!(
        resp,
        terp_net::Response::Err(ServiceError::Protocol(_))
    ));

    // A well-behaved client on the same server still works.
    let client = Client::connect(addr, 9).expect("connect");
    client.ping().expect("healthy connection unaffected");
    net.shutdown();
}

/// A pool name crosses the wire whole or not at all. One no message can
/// carry is refused before it is framed, and nothing is created under a
/// cut-down name. The longest that fits arrives whole, and the server's
/// refusal of a duplicate, which quotes it and so is longer than a message
/// carries, arrives cut at a character boundary on a live connection.
#[test]
fn pool_names_cross_the_wire_whole_or_not_at_all() {
    let net = net_server(Scheme::terp_full());
    let client = Client::connect(net.local_addr(), 7).expect("connect");
    let rw = OpenMode::ReadWrite;
    for name in ["n".repeat(70_000), "é".repeat(40_000)] {
        assert!(matches!(
            client.create_pool(&name, 1 << 12, rw),
            Err(ServiceError::Protocol(_))
        ));
    }
    assert_eq!(client.wire_counts().requests, 0, "refused before framing");
    client
        .create_pool(&"n".repeat(MAX_STRING), 1 << 12, rw)
        .expect("no pool was created under the first name cut short");
    let longest = "é".repeat(MAX_STRING / 2) + "a";
    client
        .create_pool(&longest, 1 << 12, rw)
        .expect("the longest name");
    match client.create_pool(&longest, 1 << 12, rw) {
        Err(ServiceError::RemoteSubstrate(msg)) => {
            assert!(msg.len() <= MAX_STRING && msg.contains("éé"), "{msg}")
        }
        other => panic!("a duplicate name: {other:?}"),
    }
    client.ping().expect("the connection is alive");
    net.shutdown();
}

#[test]
fn request_lifecycle_appears_as_hb_edges_in_the_trace() {
    let config = ServiceConfig::for_tests(Scheme::terp_full()).with_trace(TraceConfig::full());
    let net = NetServer::start(PmoServer::start(config), "127.0.0.1:0").expect("bind");
    let service = net.service();
    let tracer = service.tracer().cloned().expect("tracing enabled");

    let client = Client::connect(net.local_addr(), 5).expect("connect");
    let pmo = client
        .create_pool("traced", 1 << 12, OpenMode::ReadWrite)
        .expect("create");
    client.attach(pmo, Permission::ReadWrite).expect("attach");
    let oid = client.alloc(pmo, 64).expect("alloc");
    client.write(oid, &[1; 8]).expect("write");
    client.detach(pmo).expect("detach");
    net.shutdown();

    let set = tracer.snapshot();
    let (mut recvs, mut execs) = (Vec::new(), Vec::new());
    for t in &set.threads {
        for ev in &t.events {
            match ev.kind {
                terp_trace::EventKind::NetRecv { conn, req } => recvs.push((conn, req)),
                terp_trace::EventKind::NetExec { conn, req } => execs.push((conn, req)),
                _ => {}
            }
        }
    }
    assert!(
        recvs.len() >= 5,
        "every decoded request records NetRecv (got {recvs:?})"
    );
    // Every executed request's edge has its source: exec ⊆ recv.
    for pair in &execs {
        assert!(recvs.contains(pair), "NetExec {pair:?} without NetRecv");
    }
    assert!(!execs.is_empty(), "service-bound ops record NetExec");

    // The offline checker consumes the trace without flagging the
    // network-driven windows (single client, no overlap).
    let report = terp_analysis::hb::check_trace(&set);
    assert_eq!(report.stats.races(), 0, "{:?}", report.diagnostics);
    assert!(report.stats.events > 0);
}

/// The wire end of the `visibility = durable` audit (the in-process end is
/// `service/tests/durable.rs`): the executor commits a whole drained batch
/// with one fsync, and still no response — a write's ack, or a read that
/// saw the write — reaches the client before the record it depends on is
/// in the shard's `wal.log`.
#[test]
fn durable_acks_follow_their_fsync_and_a_batch_shares_one() {
    const WRITES: u64 = 128;
    const DEPTH: usize = 16;
    let dir = std::env::temp_dir().join(format!("terp-net-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig::for_tests(Scheme::terp_full())
        .with_durable(&dir)
        .with_visibility(Visibility::Durable);
    let server = PmoServer::try_start(config).expect("open durable store");
    let net = NetServer::start(server, "127.0.0.1:0").expect("bind loopback");
    let client = Client::connect(net.local_addr(), 3).expect("connect");

    let pmo = client
        .create_pool("durable-wire", 1 << 16, OpenMode::ReadWrite)
        .expect("create");
    client.attach(pmo, Permission::ReadWrite).expect("attach");
    let slots: Vec<ObjectId> = (0..DEPTH)
        .map(|_| client.alloc(pmo, 16).expect("alloc"))
        .collect();
    let shard = pmo.raw() as usize & (client.server_shards() as usize - 1);
    let wal = dir.join(format!("shard-{shard}")).join(WAL_FILE);
    // Whether the write of `stamp` at `oid` is in the on-disk log right now.
    let on_disk = |oid: ObjectId, stamp: &[u8]| {
        let log = read_log(&std::fs::read(&wal).expect("read wal.log"));
        log.records.iter().any(|(_, rec)| {
            matches!(rec, WalRecord::DataWrite { pmo, offset, data }
                if *pmo == oid.pmo() && *offset == oid.offset() && data == stamp)
        })
    };
    let stamp = |i: u64| [i.to_le_bytes(), (!i).to_le_bytes()].concat();

    // Depth-16 pipeline of stamped writes; every ack is checked against the
    // log the moment it arrives.
    let acked = |(oid, sent, pending): (ObjectId, Vec<u8>, terp_net::Pending)| {
        pending.wait_unit().expect("write acked");
        assert!(on_disk(oid, &sent), "ack preceded the fsync of {sent:?}");
    };
    let mut inflight = VecDeque::new();
    for i in 0..WRITES {
        if inflight.len() == DEPTH {
            acked(inflight.pop_front().unwrap());
        }
        let oid = slots[i as usize % DEPTH];
        let pending = client.write_pipelined(oid, &stamp(i)).expect("submit");
        inflight.push_back((oid, stamp(i), pending));
    }
    inflight.into_iter().for_each(acked);

    // Read-after-write at the tail of a burst, so both sit in one batch:
    // the read returns the new bytes, and by the time it does the write it
    // saw is on disk.
    let burst: Vec<_> = (0..DEPTH as u64)
        .map(|k| client.write_pipelined(slots[k as usize], &stamp(WRITES + k)))
        .collect();
    let (tail, last) = (slots[DEPTH - 1], stamp(WRITES + DEPTH as u64 - 1));
    let read = client.read_pipelined(tail, 16).expect("submit");
    assert_eq!(read.wait_data().expect("read"), last);
    assert!(on_disk(tail, &last), "a read saw an unsynced write");
    for write in burst {
        write.expect("submit").wait_unit().expect("write acked");
    }

    // The pipeline formed batches: fewer fsyncs than records. (Read before
    // shutdown, whose checkpoints add syncs of their own.)
    let wal_stats = net.service().report().wal.expect("durable service");
    assert!(
        wal_stats.syncs < wal_stats.appended,
        "{WRITES} pipelined writes never shared an fsync: {wal_stats:?}"
    );
    client.detach(pmo).expect("detach");
    net.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
