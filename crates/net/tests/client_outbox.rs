//! The client's outbox. A request submitted on an idle connection is
//! written at once; one submitted behind an owed reply — one whose ticket
//! has not taken it yet, read or not — is queued and leaves with the rest
//! of the outbox in one write when a wait would block, a ticket is dropped
//! unwaited, 64 KiB are queued or the last handle goes. The connection has
//! no reader thread: a waiting caller reads for everyone. A reader never
//! blocks on the outbox, and a write the socket refuses reads while it
//! waits, so a pipeline deeper than the server's in-flight gate cannot
//! deadlock it. Requests are framed in place, so one too large for a frame
//! is refused before it reaches the outbox.

mod common;

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use common::watchdog;

use terp_core::Scheme;
use terp_net::server::MAX_INFLIGHT;
use terp_net::{
    encode_frame, Client, FrameDecoder, NetServer, Pending, Request, Response, ServiceError,
    WireCounts, MAX_FRAME, VERSION,
};
use terp_pmo::{ObjectId, OpenMode, Permission, PmoId};
use terp_service::config::ServiceConfig;
use terp_service::PmoServer;

const RW: Permission = Permission::ReadWrite;

fn net_server(scheme: Scheme) -> NetServer {
    let config = ServiceConfig::for_tests(scheme);
    NetServer::start(PmoServer::start(config), "127.0.0.1:0").expect("bind loopback")
}

/// Polls `cond` for up to ten seconds.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A Basic-semantics server on which `waiter` owes a reply: its attach of
/// `holder`'s pool is parked until the holder detaches. `side` is a 16 KiB
/// object in a pool the waiter holds.
struct Parked {
    net: NetServer,
    holder: Client,
    waiter: Client,
    contended: PmoId,
    attach: Pending,
    side: ObjectId,
}

fn parked() -> Parked {
    let net = net_server(Scheme::BasicSemantics);
    let holder = Client::connect(net.local_addr(), 1).expect("connect holder");
    let waiter = Client::connect(net.local_addr(), 2).expect("connect waiter");
    let side_pool = waiter
        .create_pool("side", 1 << 16, OpenMode::ReadWrite)
        .expect("create side pool");
    waiter.attach(side_pool, RW).expect("attach side pool");
    let side = waiter.alloc(side_pool, 16 << 10).expect("alloc");
    let contended = holder
        .create_pool("contended", 1 << 12, OpenMode::ReadWrite)
        .expect("create");
    holder.attach(contended, RW).expect("hold");
    let attach = waiter
        .attach_pipelined(contended, RW)
        .expect("submit attach");
    let svc = net.service();
    eventually("the attach to park", || {
        svc.report().ops.attach_conflicts > 0
    });
    Parked {
        net,
        holder,
        waiter,
        contended,
        attach,
        side,
    }
}

impl Parked {
    /// Lets the parked attach through and closes everything.
    fn release(self) {
        self.holder.detach(self.contended).expect("release");
        self.attach
            .wait_attached()
            .expect("parked attach completes");
        self.net.shutdown();
    }
}

#[test]
fn a_request_on_an_idle_connection_executes_without_a_wait() {
    let net = net_server(Scheme::terp_full());
    let client = Client::connect(net.local_addr(), 7).expect("connect");
    let pool = client
        .create_pool("idle", 1 << 12, OpenMode::ReadWrite)
        .expect("create");
    client.attach(pool, RW).expect("attach");
    let oid = client.alloc(pool, 64).expect("alloc");
    let svc = net.service();
    let before = svc.report().ops.writes;
    let ticket = client.write_pipelined(oid, b"no wait").expect("submit");
    eventually("the unwaited write to execute", || {
        svc.report().ops.writes > before
    });
    ticket.wait_unit().expect("write acked");
    net.shutdown();
}

#[test]
fn a_ticket_dropped_unwaited_behind_a_parked_attach_still_executes() {
    let p = parked();
    let svc = p.net.service();
    let (before, sent) = (svc.report().ops.writes, p.waiter.wire_counts().writes);
    let ticket = p
        .waiter
        .write_pipelined(p.side, b"dropped")
        .expect("submit");
    assert_eq!(p.waiter.wire_counts().writes, sent, "queued, not sent");
    drop(ticket);
    assert_eq!(p.waiter.wire_counts().writes, sent + 1, "the drop sent it");
    eventually("the dropped write to execute", || {
        svc.report().ops.writes > before
    });
    assert_eq!(p.waiter.read(p.side, 7).expect("read"), b"dropped");
    p.release();
}

#[test]
fn depth_one_writes_each_request_as_it_is_submitted() {
    let net = net_server(Scheme::terp_full());
    let client = Client::connect(net.local_addr(), 7).expect("connect");
    for n in 1..=50 {
        let ticket = client.ping_pipelined().expect("submit");
        // The previous ping's reply was taken by its wait, so this one
        // found the connection idle.
        assert_eq!(
            client.wire_counts(),
            WireCounts {
                requests: n,
                writes: n
            }
        );
        ticket.wait_unit().expect("ping");
    }
    net.shutdown();
}

/// A reply that was read but not taken is still owed. t2's wait reads
/// both replies, so t1 is settled but not taken: t3 and t4 then queue, and
/// leave together when t3's wait blocks. The turn costs one write, where
/// writing t3 at once because nothing was unread cost two.
#[test]
fn a_settled_reply_not_yet_taken_keeps_the_next_submits_queued() {
    watchdog(Duration::from_secs(60), || {
        let net = net_server(Scheme::terp_full());
        let client = Client::connect(net.local_addr(), 7).expect("connect");
        let base = client.wire_counts().writes;
        let t1 = client.ping_pipelined().expect("submit t1");
        let t2 = client.ping_pipelined().expect("submit t2");
        t2.wait_unit().expect("t2, read with t1's reply");
        assert_eq!(client.wire_counts().writes, base + 2);
        let t3 = client.ping_pipelined().expect("submit t3");
        let t4 = client.ping_pipelined().expect("submit t4");
        assert_eq!(
            client.wire_counts().writes,
            base + 2,
            "t1 is settled but not taken, so t3 and t4 queue"
        );
        t1.wait_unit().expect("t1, already read");
        t3.wait_unit().expect("t3");
        t4.wait_unit().expect("t4");
        assert_eq!(
            client.wire_counts(),
            WireCounts {
                requests: 4,
                writes: base + 3
            }
        );
        net.shutdown();
    });
}

/// The owed reply that keeps a submit queued may belong to another thread,
/// which holds its settled ticket without taking it. The submit's own wait
/// still gets the request out: it flushes before it blocks.
#[test]
fn a_settled_ticket_another_thread_holds_does_not_stall_a_submit() {
    watchdog(Duration::from_secs(60), || {
        let net = net_server(Scheme::terp_full());
        let client = Client::connect(net.local_addr(), 7).expect("connect");
        let held = client.ping_pipelined().expect("submit the held ticket");
        // Queued behind `held`; its wait sends it and reads both replies.
        client
            .ping_pipelined()
            .expect("submit")
            .wait_unit()
            .expect("ping");
        let writes = client.wire_counts().writes;
        let other = client.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                let ticket = other.ping_pipelined().expect("submit");
                assert_eq!(other.wire_counts().writes, writes, "queued, not sent");
                ticket.wait_unit().expect("the blocking wait sent it");
                assert_eq!(other.wire_counts().writes, writes + 1);
            });
        });
        held.wait_unit().expect("the held ping");
        net.shutdown();
    });
}

#[test]
fn behind_a_parked_attach_a_hundred_pings_and_one_wait_are_one_write() {
    let p = parked();
    let base = p.waiter.wire_counts();
    let pings: Vec<Pending> = (0..100)
        .map(|_| p.waiter.ping_pipelined().expect("submit"))
        .collect();
    assert_eq!(
        p.waiter.wire_counts(),
        WireCounts {
            requests: base.requests + 100,
            writes: base.writes
        }
    );
    for ping in pings {
        ping.wait_unit().expect("ping past the parked attach");
    }
    assert_eq!(
        p.waiter.wire_counts(),
        WireCounts {
            requests: base.requests + 100,
            writes: base.writes + 1
        }
    );

    // A full outbox leaves without anyone waiting: the fourth 16 KiB write
    // takes the queue past 64 KiB.
    let data = vec![0x5A; 16 << 10];
    let writes: Vec<Pending> = (1..=4)
        .map(|k| {
            let w = p.waiter.write_pipelined(p.side, &data).expect("submit");
            let expect = base.writes + 1 + u64::from(k == 4);
            assert_eq!(p.waiter.wire_counts().writes, expect, "after write {k}");
            w
        })
        .collect();
    for w in writes {
        w.wait_unit().expect("write acked");
    }
    p.release();
}

/// A request too large for one frame must never reach the outbox, where
/// requests are framed in place: behind a queued ping, the refusal leaves
/// the counts as they were, the ping goes out whole, and the next request
/// round-trips.
#[test]
fn an_oversized_request_is_refused_and_leaves_the_outbox_as_it_was() {
    let p = parked();
    let queued = p.waiter.ping_pipelined().expect("submit");
    let counts = p.waiter.wire_counts();
    let oversized = vec![0xA5; MAX_FRAME];
    assert!(matches!(
        p.waiter.write_pipelined(p.side, &oversized),
        Err(ServiceError::Protocol(_))
    ));
    assert_eq!(p.waiter.wire_counts(), counts);
    queued.wait_unit().expect("the queued ping went out whole");
    p.waiter.write(p.side, b"after").expect("write round-trips");
    assert_eq!(p.waiter.read(p.side, 5).expect("read"), b"after");
    p.release();
}

/// Twice the server's in-flight gate of 32 KiB writes, each followed by a
/// 32 KiB read of it, none waited until all are submitted. The submitter
/// spends much of this in a write the server will not read until the
/// client reads its replies, so the write must read them while it waits. A
/// write that blocks without reading, or a reader that waits on the outbox
/// lock, hangs in most rounds, so several rounds make that a certain
/// failure.
#[test]
fn a_pipeline_twice_the_server_gate_deep_finishes() {
    watchdog(Duration::from_secs(60), || {
        const ROUNDS: usize = 8;
        const N: usize = 2 * MAX_INFLIGHT;
        const LEN: usize = 32 << 10;
        const OBJECTS: usize = 8;
        let net = net_server(Scheme::terp_full());
        let client = Client::connect(net.local_addr(), 7).expect("connect");
        let pool = client
            .create_pool("deep", 1 << 20, OpenMode::ReadWrite)
            .expect("create");
        client.attach(pool, RW).expect("attach");
        let objs: Vec<ObjectId> = (0..OBJECTS)
            .map(|_| client.alloc(pool, LEN as u64).expect("alloc"))
            .collect();
        let stamp = |i: usize| vec![i as u8 ^ (i >> 8) as u8; LEN];
        for round in 0..ROUNDS {
            let tickets: Vec<(Pending, Pending)> = (0..N)
                .map(|i| {
                    let oid = objs[i % OBJECTS];
                    let w = client
                        .write_pipelined(oid, &stamp(round + i))
                        .expect("submit write");
                    let r = client.read_pipelined(oid, LEN as u32).expect("submit read");
                    (w, r)
                })
                .collect();
            for (i, (w, r)) in tickets.into_iter().enumerate() {
                w.wait_unit().expect("write acked");
                let data = r.wait_data().expect("read");
                assert!(data == stamp(round + i), "round {round}, read {i}");
            }
        }
        let counts = client.wire_counts();
        assert!(
            counts.writes * 2 < counts.requests,
            "the pipeline was not coalesced: {counts:?}"
        );
        client.detach(pool).expect("detach");
        net.shutdown();
    });
}

/// One thread waits on a parked attach, so it holds the read half and reads
/// for the connection the whole time. Another thread pipelines twice the
/// server's in-flight gate of 32 KiB writes, each followed by a 32 KiB read
/// of it, on the same connection. Its writes are refused whenever the
/// server's gate is full, and only the waiter's reads free it: a reader that
/// waits on the outbox lock, which the refused write holds, hangs here.
#[test]
fn a_waiter_holding_the_read_half_reads_for_a_pipeline_twice_the_gate_deep() {
    watchdog(Duration::from_secs(60), || {
        const ROUNDS: usize = 4;
        const N: usize = 2 * MAX_INFLIGHT;
        const LEN: usize = 32 << 10;
        let Parked {
            net,
            holder,
            waiter,
            contended,
            attach,
            ..
        } = parked();
        let pool = waiter
            .create_pool("deep", 1 << 16, OpenMode::ReadWrite)
            .expect("create");
        waiter.attach(pool, RW).expect("attach");
        let oid = waiter.alloc(pool, LEN as u64).expect("alloc");
        let reader = std::thread::spawn(move || attach.wait_attached());
        // Long enough for the attach's waiter to take the read half. Nothing
        // outside the client shows that, so this is a sleep, not a barrier:
        // too short a one only lets this thread read for itself.
        std::thread::sleep(Duration::from_millis(20));
        let stamp = |i: usize| vec![i as u8 ^ (i >> 8) as u8; LEN];
        for round in 0..ROUNDS {
            let tickets: Vec<(Pending, Pending)> = (0..N)
                .map(|i| {
                    let w = waiter
                        .write_pipelined(oid, &stamp(round + i))
                        .expect("submit write");
                    let r = waiter.read_pipelined(oid, LEN as u32).expect("submit read");
                    (w, r)
                })
                .collect();
            for (i, (w, r)) in tickets.into_iter().enumerate() {
                w.wait_unit().expect("write acked");
                let data = r.wait_data().expect("read");
                assert!(data == stamp(round + i), "round {round}, read {i}");
            }
        }
        holder.detach(contended).expect("release");
        reader
            .join()
            .expect("waiter thread")
            .expect("parked attach completes");
        net.shutdown();
    });
}

/// Twice the server's in-flight gate of pings in one client write, behind a
/// parked attach. One socket read then holds more requests than the gate
/// admits, so the server's reader reaches the cap with decoded requests it
/// has not handed off yet. It must hand them off before it blocks on the
/// gate: their replies are what free it. A reader that blocks first hangs
/// here in every run.
#[test]
fn twice_the_server_gate_of_pings_in_one_write_finishes() {
    watchdog(Duration::from_secs(60), || {
        let p = parked();
        let base = p.waiter.wire_counts();
        let pings: Vec<Pending> = (0..2 * MAX_INFLIGHT)
            .map(|_| p.waiter.ping_pipelined().expect("submit"))
            .collect();
        for ping in pings {
            ping.wait_unit().expect("ping past the parked attach");
        }
        assert_eq!(p.waiter.wire_counts().writes, base.writes + 1);
        p.release();
    });
}

#[test]
fn a_server_shut_down_mid_pipeline_fails_every_ticket() {
    watchdog(Duration::from_secs(60), || {
        let Parked {
            net,
            holder,
            waiter,
            attach,
            side,
            ..
        } = parked();
        let tickets: Vec<Pending> = (0..64)
            .map(|i| {
                if i % 2 == 0 {
                    waiter.ping_pipelined()
                } else {
                    waiter.write_pipelined(side, b"never acked")
                }
                .expect("submit")
            })
            .collect();
        net.shutdown();
        assert!(attach.wait_attached().is_err(), "the parked attach failed");
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert!(ticket.wait().is_err(), "ticket {i} succeeded");
        }
        assert!(waiter.ping().is_err());
        drop(holder);
    });
}

#[test]
fn four_threads_on_one_cloned_client_each_get_their_own_replies() {
    const THREADS: usize = 4;
    const OPS: u64 = 400;
    const DEPTH: usize = 8;
    let net = net_server(Scheme::terp_full());
    let client = Client::connect(net.local_addr(), 7).expect("connect");
    let pool = client
        .create_pool("shared", 1 << 12, OpenMode::ReadWrite)
        .expect("create");
    client.attach(pool, RW).expect("attach");
    let objs: Vec<ObjectId> = (0..THREADS)
        .map(|_| client.alloc(pool, 16).expect("alloc"))
        .collect();
    std::thread::scope(|s| {
        for (t, &oid) in objs.iter().enumerate() {
            let client = client.clone();
            s.spawn(move || {
                let stamp = |i: u64| [(t as u64).to_le_bytes(), i.to_le_bytes()].concat();
                let check = |(w, r, i): (Pending, Pending, u64)| {
                    w.wait_unit().expect("write acked");
                    assert_eq!(r.wait_data().expect("read"), stamp(i), "thread {t}");
                };
                let mut inflight = VecDeque::new();
                for i in 0..OPS {
                    if inflight.len() == DEPTH {
                        check(inflight.pop_front().expect("non-empty"));
                    }
                    let w = client.write_pipelined(oid, &stamp(i)).expect("submit");
                    let r = client.read_pipelined(oid, 16).expect("submit");
                    inflight.push_back((w, r, i));
                }
                inflight.into_iter().for_each(check);
            });
        }
    });
    // create + attach + the allocs, then a write and a read per op.
    let counts = client.wire_counts();
    assert_eq!(
        counts.requests,
        2 + THREADS as u64 + 2 * THREADS as u64 * OPS
    );
    assert!(counts.writes <= counts.requests);
    client.detach(pool).expect("detach");
    net.shutdown();
}

/// An open loop: one thread submits and hands each ticket to a reaper that
/// waits on them in order; the submitter never waits on or drops a ticket.
/// The reaper holds the read half, and whenever it has read every reply on
/// the wire its next ticket is still queued, often while a submit holds
/// the outbox. If it then read without that ticket sent, it would block
/// with nothing in flight for good: a round queues far less than 64 KiB,
/// and nothing else would send it.
#[test]
fn a_reaper_waiting_while_another_thread_submits_gets_every_reply() {
    watchdog(Duration::from_secs(60), || {
        const ROUNDS: usize = 200;
        const PER_ROUND: usize = 500;
        let net = net_server(Scheme::terp_full());
        let client = Client::connect(net.local_addr(), 8).expect("connect");
        for _ in 0..ROUNDS {
            let (tx, rx) = mpsc::channel::<Pending>();
            let reaper = std::thread::spawn(move || {
                for ticket in rx {
                    ticket.wait_unit().expect("ping");
                }
            });
            for _ in 0..PER_ROUND {
                let ticket = client.ping_pipelined().expect("submit");
                tx.send(ticket).expect("reaper alive");
            }
            drop(tx);
            reaper.join().expect("reaper");
        }
        let counts = client.wire_counts();
        assert_eq!(counts.requests, (ROUNDS * PER_ROUND) as u64);
        net.shutdown();
    });
}

/// Four threads on one cloned client each wait on an attach parked behind
/// another client's hold, and the server shuts down. One waiter holds the
/// read half and the others are parked on their tickets. Each must come
/// back with an error: the drain's replies, or the close, reach the thread
/// holding the read half, and its hand-off reaches the rest.
#[test]
fn a_shutdown_reaches_every_parked_waiter() {
    watchdog(Duration::from_secs(60), || {
        const THREADS: usize = 4;
        let net = net_server(Scheme::BasicSemantics);
        let holder = Client::connect(net.local_addr(), 1).expect("connect holder");
        let waiter = Client::connect(net.local_addr(), 2).expect("connect waiter");
        let pools: Vec<PmoId> = (0..THREADS)
            .map(|i| {
                let pool = holder
                    .create_pool(&format!("held-{i}"), 1 << 12, OpenMode::ReadWrite)
                    .expect("create");
                holder.attach(pool, RW).expect("hold");
                pool
            })
            .collect();
        let svc = net.service();
        let base = svc.report().ops.attach_conflicts;
        let threads: Vec<_> = pools
            .into_iter()
            .map(|pool| {
                let waiter = waiter.clone();
                std::thread::spawn(move || {
                    waiter
                        .attach_pipelined(pool, RW)
                        .expect("submit attach")
                        .wait_attached()
                })
            })
            .collect();
        eventually("every attach to park", || {
            svc.report().ops.attach_conflicts >= base + THREADS as u64
        });
        // Long enough for every waiter to block in its wait. Nothing outside
        // the client shows that, so this is a sleep, not a barrier: too
        // short a one only lets a waiter find its verdict already there.
        std::thread::sleep(Duration::from_millis(50));
        net.shutdown();
        for t in threads {
            let verdict = t.join().expect("waiter thread");
            assert!(
                matches!(
                    verdict,
                    Err(ServiceError::ShuttingDown | ServiceError::Disconnected(_))
                ),
                "{verdict:?}"
            );
        }
        drop(holder);
    });
}

/// The same with a peer that reads four requests and closes without
/// answering any: only the read that sees the close can wake anyone.
#[test]
fn a_close_with_every_request_unanswered_reaches_every_waiter() {
    watchdog(Duration::from_secs(60), || {
        const THREADS: usize = 4;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("address");
        let peer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            let mut dec = FrameDecoder::new();
            let mut buf = [0u8; 4096];
            let mut frames = 0;
            // The hello, then one request per waiter.
            loop {
                while dec.next_frame().expect("clean stream").is_some() {
                    frames += 1;
                    if frames == 1 {
                        let hello = Response::Hello {
                            version: VERSION,
                            scheme: "TT".to_string(),
                            shards: 1,
                        };
                        sock.write_all(&encode_frame(&hello.encode(1)))
                            .expect("answer the hello");
                    }
                }
                if frames == 1 + THREADS {
                    break;
                }
                let n = sock.read(&mut buf).expect("read requests");
                assert!(n > 0, "client closed after {frames} frames");
                dec.push(&buf[..n]);
            }
            // Long enough for every waiter to block in its wait (a sleep, as
            // above).
            std::thread::sleep(Duration::from_millis(50));
        });
        let client = Client::connect(addr, 3).expect("connect");
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                let client = client.clone();
                std::thread::spawn(move || client.ping_pipelined().expect("submit").wait())
            })
            .collect();
        peer.join().expect("peer");
        for t in threads {
            let verdict = t.join().expect("waiter thread");
            assert!(
                matches!(verdict, Err(ServiceError::Disconnected(_))),
                "{verdict:?}"
            );
        }
    });
}

/// A reply for an id no live ticket holds — a second reply to an id
/// already answered, or an id never issued — is a protocol violation: the
/// connection dies with `Protocol`, and a ticket still waiting gets it. The
/// ticket answered first still gets its own reply.
#[test]
fn a_reply_for_a_stale_or_unknown_id_is_fatal() {
    watchdog(Duration::from_secs(60), || {
        for stale in [true, false] {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr().expect("address");
            let peer = std::thread::spawn(move || {
                let (mut sock, _) = listener.accept().expect("accept");
                let mut dec = FrameDecoder::new();
                let mut buf = [0u8; 4096];
                let mut ids = Vec::new();
                // The hello, then the two pings.
                while ids.len() < 3 {
                    while let Some(payload) = dec.next_frame().expect("clean stream") {
                        ids.push(Request::decode(payload).expect("a request").0);
                        if ids.len() == 1 {
                            let hello = Response::Hello {
                                version: VERSION,
                                scheme: "TT".to_string(),
                                shards: 1,
                            };
                            sock.write_all(&encode_frame(&hello.encode(1)))
                                .expect("answer the hello");
                        }
                    }
                    if ids.len() < 3 {
                        let n = sock.read(&mut buf).expect("read requests");
                        assert!(n > 0, "client closed early");
                        dec.push(&buf[..n]);
                    }
                }
                let (first, second) = (ids[1], ids[2]);
                let bogus = if stale {
                    first
                } else {
                    first ^ second ^ (1 << 40)
                };
                assert!(bogus != second);
                let mut out = encode_frame(&Response::Unit.encode(first));
                out.extend_from_slice(&encode_frame(&Response::Unit.encode(bogus)));
                sock.write_all(&out).expect("answer");
                // Hold the socket open until the client lets go.
                while sock.read(&mut buf).is_ok_and(|n| n > 0) {}
            });
            let client = Client::connect(addr, 3).expect("connect");
            let first = client.ping_pipelined().expect("submit");
            let second = client.ping_pipelined().expect("submit");
            first.wait_unit().expect("the first reply is its own");
            let verdict = second.wait();
            assert!(
                matches!(verdict, Err(ServiceError::Protocol(_))),
                "stale {stale}: {verdict:?}"
            );
            assert!(matches!(client.ping(), Err(ServiceError::Protocol(_))));
            drop(client);
            peer.join().expect("peer");
        }
    });
}
