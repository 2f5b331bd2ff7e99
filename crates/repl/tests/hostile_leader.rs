//! What a follower does with a leader that lies.
//!
//! Everything a follower writes and replays comes off a socket. A fake
//! leader speaks the handshake and then sends well-framed messages that are
//! wrong: a `PageDelta` naming a page outside its pool (five cases, each as
//! a WAL record and inside a shipped checkpoint), a shard that does not exist,
//! a batch that skips bytes. Each must end in a dropped connection and a
//! typed error — never a panic, a wrapped offset, a write outside the
//! mirror directory, or bad bytes in the warm registry.

mod common;

use std::fs;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use terp_core::config::Scheme;
use terp_net::repl::{LogFile, ReplMsg};
use terp_net::{encode_frame, FrameDecoder, VERSION};
use terp_persist::WalRecord;
use terp_pmo::{OpenMode, PmoId, PAGE_SIZE};
use terp_repl::{ReplFollower, ReplFollowerConfig};
use terp_service::{ServiceConfig, ServiceError};

use common::temp_dir;

const POOL_SIZE: u64 = 1 << 16;

fn recv(stream: &mut TcpStream, dec: &mut FrameDecoder) -> Option<ReplMsg> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(payload) = dec.next_frame().unwrap() {
            return Some(ReplMsg::decode(payload).unwrap());
        }
        let mut buf = [0u8; 4096];
        match stream.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => dec.push(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                assert!(
                    Instant::now() < deadline,
                    "follower neither answered nor hung up"
                );
            }
            Err(_) => return None,
        }
    }
}

/// Accepts one follower, shakes hands as a one-shard leader, sends
/// `messages`, and returns once the follower has hung up. The listener
/// closes with it, so the follower's reconnects find nobody and the mirror
/// stays as the conversation left it.
fn lie_to_follower(listener: TcpListener, messages: &[ReplMsg]) {
    let (mut stream, _) = listener.accept().unwrap();
    drop(listener);
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let mut dec = FrameDecoder::new();
    let send = |stream: &mut TcpStream, msg: &ReplMsg| {
        // The follower may hang up mid-conversation: that is the point.
        let _ = stream.write_all(&encode_frame(&msg.encode()));
    };
    assert!(matches!(
        recv(&mut stream, &mut dec),
        Some(ReplMsg::Hello { .. })
    ));
    send(
        &mut stream,
        &ReplMsg::Welcome {
            version: VERSION,
            shards: 1,
        },
    );
    assert_eq!(recv(&mut stream, &mut dec), Some(ReplMsg::Subscribe));
    for msg in messages {
        send(&mut stream, msg);
    }
    while recv(&mut stream, &mut dec).is_some() {}
}

fn batch(file: LogFile, offset: u64, bytes: Vec<u8>) -> ReplMsg {
    ReplMsg::LogBatch {
        shard: 0,
        file,
        offset,
        bytes,
    }
}

fn pool() -> PmoId {
    PmoId::new(1).unwrap()
}

fn create_frame() -> Vec<u8> {
    WalRecord::PoolCreate {
        id: pool(),
        name: "victim".into(),
        size: POOL_SIZE,
        mode: OpenMode::ReadWrite,
    }
    .encode(0)
}

/// Runs one conversation against a fresh follower and returns it, stream
/// dead, mirror as left.
fn follower_told(tag: &str, messages: &[ReplMsg]) -> (ReplFollower, std::path::PathBuf) {
    let mirror = temp_dir(tag);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let follower = ReplFollower::start(ReplFollowerConfig::new(
        listener.local_addr().unwrap(),
        &mirror,
        7,
    ));
    lie_to_follower(listener, messages);
    let start = Instant::now();
    while follower.is_connected() {
        assert!(start.elapsed() < Duration::from_secs(10));
        std::thread::sleep(Duration::from_millis(1));
    }
    (follower, mirror)
}

#[test]
fn hostile_page_deltas_drop_the_connection_and_fail_promotion() {
    let pool_pages = POOL_SIZE / PAGE_SIZE;
    let cases = [
        ("page longer than a page", 0, PAGE_SIZE as usize + 1),
        ("byte offset overflows u64", u64::MAX, 16),
        ("byte offset wraps to 0", 1 << 52, 16),
        ("first page past the pool", pool_pages, 16),
        ("far past the pool", pool_pages + 1_000_000, 4096),
    ];
    for (what, page, len) in cases {
        let delta = WalRecord::PageDelta {
            pmo: pool(),
            page,
            data: vec![0x5A; len],
        }
        .encode(1);
        let mut image = [create_frame(), delta.clone()].concat();
        // The frame that closes — and commits — the checkpoint's batch.
        let close = WalRecord::Checkpoint {
            ckpt_len: (image.len() + 25) as u64,
        }
        .encode(1);
        assert_eq!(close.len(), 25);
        image.extend_from_slice(&close);
        let conversations = [
            // In the log stream…
            vec![
                batch(LogFile::Wal, 0, create_frame()),
                batch(LogFile::Wal, create_frame().len() as u64, delta),
            ],
            // …and inside a checkpoint, which takes effect as the WAL
            // starts over.
            vec![
                batch(LogFile::Ckpt, 0, image),
                batch(LogFile::Wal, 0, Vec::new()),
            ],
        ];
        for (i, messages) in conversations.iter().enumerate() {
            let (follower, mirror) = follower_told("hostile-page", messages);
            // The warm registry holds no byte of it.
            let clean = follower
                .inspect(0, |reg| reg.pool(pool()).map_or(0, |p| p.resident_pages()))
                .unwrap();
            assert_eq!(clean, 0, "{what} / conversation {i}");
            // The mirror took the bytes verbatim; opening it is a typed
            // error, not a panic or a silently wrapped write.
            let promoted = follower.promote(
                ServiceConfig::for_tests(Scheme::terp_full())
                    .with_shards(1)
                    .with_durable(&mirror),
            );
            assert!(
                matches!(promoted, Err(ServiceError::Persist(_))),
                "{what} / conversation {i}"
            );
            fs::remove_dir_all(&mirror).ok();
        }
    }
}

#[test]
fn out_of_range_shards_and_gaps_are_refused_without_touching_the_disk() {
    let stray = ReplMsg::LogBatch {
        shard: 5,
        file: LogFile::Wal,
        offset: 0,
        bytes: create_frame(),
    };
    let (follower, mirror) = follower_told("hostile-shard", &[stray]);
    let mut names: Vec<_> = fs::read_dir(&mirror)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["shard-0"], "only the shards the leader announced");
    assert_eq!(fs::read_dir(mirror.join("shard-0")).unwrap().count(), 0);
    follower.shutdown();
    fs::remove_dir_all(&mirror).ok();

    // A batch that does not continue the file: bytes were lost on the way.
    let gap = [
        batch(LogFile::Wal, 0, create_frame()),
        batch(
            LogFile::Wal,
            create_frame().len() as u64 + 1,
            create_frame(),
        ),
    ];
    let (follower, mirror) = follower_told("hostile-gap", &gap);
    assert_eq!(
        fs::read(mirror.join("shard-0").join(terp_persist::WAL_FILE)).unwrap(),
        create_frame(),
        "the batch before the gap is all the mirror holds"
    );
    assert_eq!(follower.lag()[0].applied_seq, 0);
    follower.shutdown();
    fs::remove_dir_all(&mirror).ok();
}
