//! Property tests for the message decoders — `Request::decode`,
//! `Response::decode` and `ReplMsg::decode` — on bytes from outside:
//! arbitrary payloads, and valid encodings mutated, truncated or extended.
//! Each decoder must return `Ok` or a `ServiceError::Protocol` without
//! panicking, and a decoded value may own at most as many heap bytes as
//! its payload is long (no length field can make it allocate more).

use proptest::prelude::*;
use terp_net::{LogFile, ReplMsg, Request, Response, ServiceError, MAGIC, VERSION};
use terp_pmo::{AccessKind, ObjectId, OpenMode, Permission, PmoId};

fn pmo(rng: &mut TestRng) -> PmoId {
    PmoId::new(1 + rng.below(1023) as u16).expect("non-zero id")
}

fn oid(rng: &mut TestRng) -> ObjectId {
    ObjectId::new(pmo(rng), rng.below(1 << 20))
}

fn bytes(rng: &mut TestRng) -> Vec<u8> {
    (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect()
}

fn text(rng: &mut TestRng) -> String {
    (0..rng.below(24))
        .map(|_| char::from(b'a' + rng.below(26) as u8))
        .collect()
}

fn request(rng: &mut TestRng) -> Request {
    match rng.below(9) {
        0 => Request::Hello {
            magic: MAGIC,
            version: VERSION,
            client: rng.next_u64(),
        },
        1 => Request::CreatePool {
            name: text(rng),
            size: rng.next_u64(),
            mode: OpenMode::ReadWrite,
        },
        2 => Request::Attach {
            pmo: pmo(rng),
            perm: Permission::Read,
        },
        3 => Request::Detach { pmo: pmo(rng) },
        4 => Request::Read {
            oid: oid(rng),
            len: rng.below(4096) as u32,
        },
        5 => Request::Write {
            oid: oid(rng),
            data: bytes(rng),
        },
        6 => Request::Alloc {
            pmo: pmo(rng),
            size: rng.next_u64(),
        },
        7 => Request::Free { oid: oid(rng) },
        _ => Request::Ping,
    }
}

fn response(rng: &mut TestRng) -> Response {
    match rng.below(8) {
        0 => Response::Unit,
        1 => Response::Pool(pmo(rng)),
        2 => Response::Oid(oid(rng)),
        3 => Response::Data(bytes(rng)),
        4 => Response::Attached {
            waited_ns: rng.next_u64(),
        },
        5 => Response::Hello {
            version: VERSION,
            scheme: text(rng),
            shards: rng.below(64) as u16,
        },
        6 => Response::Err(ServiceError::PermissionDenied {
            client: rng.below(1 << 16) as usize,
            pmo: pmo(rng),
            kind: AccessKind::Write,
        }),
        _ => Response::Err(ServiceError::Persist(text(rng))),
    }
}

fn repl_msg(rng: &mut TestRng) -> ReplMsg {
    match rng.below(6) {
        0 => ReplMsg::hello(rng.next_u64()),
        1 => ReplMsg::Welcome {
            version: VERSION,
            shards: rng.below(64) as u32,
        },
        2 => ReplMsg::Subscribe,
        3 => ReplMsg::LogBatch {
            shard: rng.below(64) as u32,
            file: if rng.below(2) == 0 {
                LogFile::Wal
            } else {
                LogFile::Ckpt
            },
            offset: rng.next_u64(),
            bytes: bytes(rng),
        },
        4 => ReplMsg::Heartbeat {
            shard: rng.below(64) as u32,
            durable_seq: rng.next_u64(),
        },
        _ => ReplMsg::Ack {
            shard: rng.below(64) as u32,
            applied_seq: rng.next_u64(),
        },
    }
}

/// A valid encoding damaged one of three ways: bytes overwritten, cut
/// short, or extended with garbage.
fn mutate(mut wire: Vec<u8>, rng: &mut TestRng) -> Vec<u8> {
    match rng.below(3) {
        0 => {
            for _ in 0..1 + rng.below(4) {
                let i = rng.below(wire.len() as u64) as usize;
                wire[i] = rng.next_u64() as u8;
            }
        }
        1 => wire.truncate(rng.below(wire.len() as u64) as usize),
        _ => wire.extend((0..1 + rng.below(16)).map(|_| rng.next_u64() as u8)),
    }
    wire
}

fn error_heap(e: &ServiceError) -> usize {
    match e {
        ServiceError::RemoteSubstrate(s)
        | ServiceError::Persist(s)
        | ServiceError::Protocol(s)
        | ServiceError::Disconnected(s) => s.capacity(),
        _ => 0,
    }
}

fn request_heap(r: &Request) -> usize {
    match r {
        Request::CreatePool { name, .. } => name.capacity(),
        Request::Write { data, .. } => data.capacity(),
        _ => 0,
    }
}

fn response_heap(r: &Response) -> usize {
    match r {
        Response::Data(data) => data.capacity(),
        Response::Hello { scheme, .. } => scheme.capacity(),
        Response::Err(e) => error_heap(e),
        _ => 0,
    }
}

fn repl_heap(m: &ReplMsg) -> usize {
    match m {
        ReplMsg::LogBatch { bytes, .. } => bytes.capacity(),
        _ => 0,
    }
}

/// Runs every decoder on `payload`: each returns `Ok` within the heap
/// bound or a protocol error, and none panics.
fn decode_all(payload: &[u8]) {
    let bound = payload.len();
    match Request::decode(payload) {
        Ok((_, r)) => assert!(request_heap(&r) <= bound, "{r:?} from {payload:?}"),
        Err(e) => assert!(matches!(e, ServiceError::Protocol(_)), "{e:?}"),
    }
    match Response::decode(payload) {
        Ok((_, r)) => assert!(response_heap(&r) <= bound, "{r:?} from {payload:?}"),
        Err(e) => assert!(matches!(e, ServiceError::Protocol(_)), "{e:?}"),
    }
    match ReplMsg::decode(payload) {
        Ok(m) => assert!(repl_heap(&m) <= bound, "{m:?} from {payload:?}"),
        Err(e) => assert!(matches!(e, ServiceError::Protocol(_)), "{e:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary payloads.
    #[test]
    fn arbitrary_payloads_decode_or_refuse(
        payload in collection::vec(any::<u8>(), 0..200),
    ) {
        decode_all(&payload);
    }

    /// Arbitrary payloads behind each decoder's valid kind bytes, so most
    /// cases get past the first field.
    #[test]
    fn arbitrary_bodies_behind_valid_kinds_decode_or_refuse(
        kind in prop_oneof![
            0x01u8..0x02, 0x10u8..0x18, 0x40u8..0x43, 0x80u8..0x86,
            0xC0u8..0xC1, 0xC3u8..0xC5, 0xEEu8..0xEF,
        ],
        body in collection::vec(any::<u8>(), 0..120),
    ) {
        let mut payload = vec![kind];
        payload.extend_from_slice(&body);
        decode_all(&payload);
    }

    /// Valid encodings round-trip; mutated, truncated or extended ones
    /// decode within the bound or refuse.
    #[test]
    fn mutated_valid_encodings_decode_or_refuse(seed in any::<u64>()) {
        let rng = &mut TestRng::new(seed);
        let req = request(rng);
        let wire = req.encode(7);
        prop_assert_eq!(Request::decode(&wire).expect("valid request"), (7, req));
        decode_all(&mutate(wire, rng));

        let resp = response(rng);
        let wire = resp.encode(9);
        prop_assert_eq!(Response::decode(&wire).expect("valid response"), (9, resp));
        decode_all(&mutate(wire, rng));

        let msg = repl_msg(rng);
        let wire = msg.encode();
        prop_assert_eq!(ReplMsg::decode(&wire).expect("valid message"), msg);
        decode_all(&mutate(wire, rng));
    }
}
