//! The server's hand-offs, counted by `NetServer::wire_counts()`. At depth 1
//! every request is one hand-off to an executing thread and one socket
//! write. A burst that arrives in one client write is handed to its shard
//! queue in one push per socket read, runs as one batch, and is answered in
//! fewer writes than requests.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use terp_core::Scheme;
use terp_net::{
    frame_into, Client, FrameDecoder, NetServer, Request, Response, ServerWireCounts, MAGIC,
    VERSION,
};
use terp_service::config::ServiceConfig;
use terp_service::PmoServer;

fn net_server() -> NetServer {
    let config = ServiceConfig::for_tests(Scheme::terp_full());
    NetServer::start(PmoServer::start(config), "127.0.0.1:0").expect("bind loopback")
}

fn since(base: ServerWireCounts, now: ServerWireCounts) -> ServerWireCounts {
    ServerWireCounts {
        requests: now.requests - base.requests,
        handoffs: now.handoffs - base.handoffs,
        writes: now.writes - base.writes,
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
                writes: n
            }
        );
    }
    net.shutdown();
}

#[test]
fn a_burst_in_one_client_write_takes_fewer_hand_offs_and_writes_than_requests() {
    const BURST: u64 = 64;
    let net = net_server();
    let mut sock = TcpStream::connect(net.local_addr()).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut dec = FrameDecoder::new();
    let hello = Request::Hello {
        magic: MAGIC,
        version: VERSION,
        client: 7,
    };
    send_all(&mut sock, &[(1, hello)]);
    let replies = recv_n(&mut sock, &mut dec, 1);
    assert!(matches!(replies[..], [(1, Response::Hello { .. })]));

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
    net.shutdown();
}
