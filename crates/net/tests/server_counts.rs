//! The server's hand-offs, counted by `NetServer::wire_counts()`. At depth 1
//! every request is one batch and one socket write. In memory, a burst that
//! arrives in one client write is one batch, whatever shards it spans: the
//! reader runs it itself and answers it in one write, and the server starts
//! no shard worker. Under `visibility = durable` a burst is handed to each
//! shard's worker in one push per socket read. The thread that ran a batch
//! writes its replies itself unless a client stops reading: then, and only
//! then, the connection's flusher takes over, and only that connection
//! waits.

mod common;

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::watchdog;
use terp_core::Scheme;
use terp_net::server::MAX_INFLIGHT;
use terp_net::{
    frame_into, Client, FrameDecoder, NetServer, Pending, Request, Response, ServerWireCounts,
    MAGIC, VERSION,
};
use terp_pmo::{ObjectId, OpenMode, Permission, PmoId};
use terp_service::config::ServiceConfig;
use terp_service::{PmoServer, Visibility};

fn net_server() -> NetServer {
    let config = ServiceConfig::for_tests(Scheme::terp_full());
    NetServer::start(PmoServer::start(config), "127.0.0.1:0").expect("bind loopback")
}

fn since(base: ServerWireCounts, now: ServerWireCounts) -> ServerWireCounts {
    ServerWireCounts {
        requests: now.requests - base.requests,
        handoffs: now.handoffs - base.handoffs,
        writes: now.writes - base.writes,
        stalled: now.stalled - base.stalled,
    }
}

/// Frames `reqs` into one buffer and sends it in one write.
fn send_all(sock: &mut TcpStream, reqs: &[(u64, Request)]) {
    let mut out = Vec::new();
    for (id, req) in reqs {
        frame_into(&mut out, |o| req.encode_into(*id, o)).expect("small request");
    }
    sock.write_all(&out).expect("send");
}

/// A raw connection past its handshake, with a read timeout.
fn raw(net: &NetServer, client: u64) -> (TcpStream, FrameDecoder) {
    let mut sock = TcpStream::connect(net.local_addr()).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut dec = FrameDecoder::new();
    let hello = Request::Hello {
        magic: MAGIC,
        version: VERSION,
        client,
    };
    send_all(&mut sock, &[(1, hello)]);
    let replies = recv_n(&mut sock, &mut dec, 1);
    assert!(matches!(replies[..], [(1, Response::Hello { .. })]));
    (sock, dec)
}

/// One request over a raw connection, answered before it returns.
fn call(sock: &mut TcpStream, dec: &mut FrameDecoder, id: u64, req: Request) -> Response {
    send_all(sock, &[(id, req)]);
    let (got, resp) = recv_n(sock, dec, 1).pop().expect("one reply");
    assert_eq!(got, id);
    resp
}

/// Reads until `n` replies have arrived.
fn recv_n(sock: &mut TcpStream, dec: &mut FrameDecoder, n: usize) -> Vec<(u64, Response)> {
    let mut replies = Vec::new();
    let mut buf = [0u8; 4096];
    while replies.len() < n {
        while let Some(p) = dec.next_frame().expect("clean stream") {
            replies.push(Response::decode(p).expect("well-formed reply"));
        }
        if replies.len() < n {
            let got = sock.read(&mut buf).expect("reply within the timeout");
            assert!(got > 0, "server closed after {} replies", replies.len());
            dec.push(&buf[..got]);
        }
    }
    replies
}

#[test]
fn at_depth_one_requests_hand_offs_and_writes_are_equal() {
    let net = net_server();
    let client = Client::connect(net.local_addr(), 7).expect("connect");
    let base = net.wire_counts();
    for n in 1..=50 {
        client.ping().expect("ping");
        assert_eq!(
            since(base, net.wire_counts()),
            ServerWireCounts {
                requests: n,
                handoffs: n,
                writes: n,
                stalled: 0
            }
        );
    }
    net.shutdown();
}

#[test]
fn a_burst_in_one_client_write_takes_fewer_hand_offs_and_writes_than_requests() {
    const BURST: u64 = 64;
    let net = net_server();
    let (mut sock, mut dec) = raw(&net, 7);

    let base = net.wire_counts();
    let burst: Vec<(u64, Request)> = (2..2 + BURST).map(|id| (id, Request::Ping)).collect();
    send_all(&mut sock, &burst);
    let mut replies = recv_n(&mut sock, &mut dec, BURST as usize);
    replies.sort_by_key(|(id, _)| *id);
    let want: Vec<(u64, Response)> = (2..2 + BURST).map(|id| (id, Response::Unit)).collect();
    assert_eq!(replies, want);

    let counts = since(base, net.wire_counts());
    assert_eq!(counts.requests, BURST);
    assert!(
        counts.handoffs < BURST && counts.writes < BURST,
        "one hand-off or write per request: {counts:?}"
    );
    assert_eq!(counts.stalled, 0);
    net.shutdown();
}

/// Pools on both shards of a two-shard server, an object in each, and a
/// client attached to them.
fn two_shard_objects(net: &NetServer, client: &Client, len: u64) -> Vec<ObjectId> {
    let pools: Vec<PmoId> = (0..2)
        .map(|i| {
            client
                .create_pool(&format!("shard-{i}"), 1 << 20, OpenMode::ReadWrite)
                .expect("create")
        })
        .collect();
    let shards: Vec<usize> = pools.iter().map(|p| p.raw() as usize & 1).collect();
    assert_ne!(shards[0], shards[1], "pools {pools:?} share a shard");
    assert_eq!(net.service().shard_count(), 2);
    pools
        .iter()
        .map(|&pool| {
            client.attach(pool, Permission::ReadWrite).expect("attach");
            client.alloc(pool, len).expect("alloc")
        })
        .collect()
}

fn two_shard_server() -> NetServer {
    let config = ServiceConfig::for_tests(Scheme::terp_full()).with_shards(2);
    NetServer::start(PmoServer::start(config), "127.0.0.1:0").expect("bind loopback")
}

/// A burst of writes and reads over pools on both shards, sent in one
/// client write, is one batch: the reader runs it and answers it in one
/// write. (Shard workers would take one push and make one delivery per
/// shard.)
#[test]
fn an_in_memory_burst_across_shards_is_one_batch_and_one_write() {
    const BURST: u64 = 16;
    let net = two_shard_server();
    let client = Client::connect(net.local_addr(), 8).expect("connect");
    let objs = two_shard_objects(&net, &client, 8);
    let (mut sock, mut dec) = raw(&net, 8);

    let base = net.wire_counts();
    let burst: Vec<(u64, Request)> = (0..BURST)
        .map(|i| {
            let oid = objs[i as usize % 2];
            let req = if i < BURST / 2 {
                Request::Write {
                    oid,
                    data: i.to_le_bytes().to_vec(),
                }
            } else {
                Request::Read { oid, len: 8 }
            };
            (100 + i, req)
        })
        .collect();
    send_all(&mut sock, &burst);
    let replies = recv_n(&mut sock, &mut dec, BURST as usize);
    assert_eq!(replies.len(), BURST as usize);
    for (id, resp) in replies {
        let i = id - 100;
        let want = match i {
            _ if i < BURST / 2 => Response::Unit,
            // The last write to the read's object, which precedes it in
            // the batch.
            _ => Response::Data((BURST / 2 - 2 + i % 2).to_le_bytes().to_vec()),
        };
        assert_eq!(resp, want, "reply {id}");
    }

    let counts = since(base, net.wire_counts());
    assert_eq!(
        counts,
        ServerWireCounts {
            requests: BURST,
            handoffs: 1,
            writes: 1,
            stalled: 0
        }
    );
    drop(client);
    net.shutdown();
}

/// Threads of this process whose name starts with `prefix`.
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with(prefix))
        .count()
}

/// An in-memory server runs its batches on its readers and starts no shard
/// worker; a `visibility = durable` server starts one per shard. (No other
/// test in this file starts a durable server.)
#[test]
fn only_a_durable_server_starts_shard_workers() {
    const WORKER: &str = "terp-net-exec-";
    let net = two_shard_server();
    let client = Client::connect(net.local_addr(), 9).expect("connect");
    let objs = two_shard_objects(&net, &client, 8);
    for oid in objs {
        client.write(oid, &[1; 8]).expect("write");
    }
    assert_eq!(threads_named(WORKER), 0);
    drop(client);
    net.shutdown();

    let dir = std::env::temp_dir().join(format!("terp-net-workers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig::for_tests(Scheme::terp_full())
        .with_shards(2)
        .with_durable(&dir)
        .with_visibility(Visibility::Durable);
    let server = PmoServer::try_start(config).expect("open durable store");
    let net = NetServer::start(server, "127.0.0.1:0").expect("bind loopback");
    // A worker names itself once it runs.
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads_named(WORKER) < 2 {
        assert!(Instant::now() < deadline, "the shard workers never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    let client = Client::connect(net.local_addr(), 9).expect("connect");
    client.ping().expect("ping");
    assert_eq!(threads_named(WORKER), 2);
    drop(client);
    net.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_depth_32_pipeline_is_written_without_the_flusher() {
    const OPS: u64 = 20_000;
    const DEPTH: usize = 32;
    let net = two_shard_server();
    let client = Client::connect(net.local_addr(), 7).expect("connect");
    let objs = two_shard_objects(&net, &client, 64);
    let base = net.wire_counts();
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(DEPTH);
    for i in 0..OPS {
        if inflight.len() == DEPTH {
            inflight.pop_front().expect("non-empty").wait().expect("op");
        }
        let oid = objs[i as usize % 2];
        let ticket = if i % 2 == 0 {
            client.write_pipelined(oid, &i.to_le_bytes())
        } else {
            client.read_pipelined(oid, 8)
        };
        inflight.push_back(ticket.expect("submit"));
    }
    for ticket in inflight {
        ticket.wait().expect("op");
    }
    let counts = since(base, net.wire_counts());
    assert_eq!(counts.requests, OPS);
    assert_eq!(counts.stalled, 0, "{counts:?}");
    assert!(counts.writes < OPS, "one write per request: {counts:?}");
    drop(client);
    net.shutdown();
}

/// A raw connection pipelines twice the server's in-flight gate of 32 KiB
/// reads and reads none of the replies, so its socket fills and its reader
/// stops at the gate. Meanwhile a second client, with pools on both shards,
/// completes its reads and writes: the reader that answered the stalled
/// connection left what its socket refused to that connection's flusher.
/// Then the raw connection reads every reply, intact and once each. A thread
/// that blocks on a full socket while running a batch hangs this test.
#[test]
fn a_connection_that_stops_reading_stalls_only_itself() {
    watchdog(Duration::from_secs(60), || {
        const LEN: usize = 32 << 10;
        const READS: u64 = 2 * MAX_INFLIGHT as u64;
        let net = two_shard_server();
        let (mut sock, mut dec) = raw(&net, 7);
        let create = Request::CreatePool {
            name: "stalled".to_string(),
            size: 1 << 20,
            mode: OpenMode::ReadWrite,
        };
        let Response::Pool(pool) = call(&mut sock, &mut dec, 2, create) else {
            panic!("create refused");
        };
        let attach = Request::Attach {
            pmo: pool,
            perm: Permission::ReadWrite,
        };
        call(&mut sock, &mut dec, 3, attach);
        let alloc = Request::Alloc {
            pmo: pool,
            size: LEN as u64,
        };
        let Response::Oid(oid) = call(&mut sock, &mut dec, 4, alloc) else {
            panic!("alloc refused");
        };
        let stamp = vec![0x5A; LEN];
        let write = Request::Write {
            oid,
            data: stamp.clone(),
        };
        assert_eq!(call(&mut sock, &mut dec, 5, write), Response::Unit);

        let base = net.wire_counts();
        let first = 100;
        let reads: Vec<(u64, Request)> = (first..first + READS)
            .map(|id| {
                let read = Request::Read {
                    oid,
                    len: LEN as u32,
                };
                (id, read)
            })
            .collect();
        send_all(&mut sock, &reads);
        // A gate's worth of replies is more than the socket buffers hold.
        let deadline = Instant::now() + Duration::from_secs(10);
        while net.wire_counts().requests < base.requests + MAX_INFLIGHT as u64 {
            assert!(Instant::now() < deadline, "the reads were never decoded");
            std::thread::sleep(Duration::from_millis(1));
        }

        let client = Client::connect(net.local_addr(), 8).expect("connect");
        let objs = two_shard_objects(&net, &client, 8);
        for i in 0..1_000u64 {
            let oid = objs[i as usize % 2];
            client.write(oid, &i.to_le_bytes()).expect("write");
            assert_eq!(client.read(oid, 8).expect("read"), i.to_le_bytes());
        }
        drop(client);

        let mut replies = recv_n(&mut sock, &mut dec, READS as usize);
        replies.sort_by_key(|(id, _)| *id);
        let ids: Vec<u64> = replies.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, (first..first + READS).collect::<Vec<_>>());
        for (id, resp) in replies {
            assert!(resp == Response::Data(stamp.clone()), "reply {id}");
        }
        let stalled = net.wire_counts().stalled - base.stalled;
        assert!(stalled > 0, "the socket never refused a reply");
        net.shutdown();
    });
}
