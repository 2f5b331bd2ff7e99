//! Property tests for the message decoders — `Request::decode`,
//! `Response::decode` and `ReplMsg::decode` — on bytes from outside:
//! arbitrary payloads, error bodies built field by field, and valid
//! encodings mutated, truncated or extended. Each decoder must return `Ok`
//! or a `ServiceError::Protocol` without panicking, a decoded value may own
//! at most as many heap bytes as its payload is long (no length field can
//! make it allocate more), and a payload it accepts must be exactly what
//! encoding the decoded value writes. Every value of each message type —
//! every request `Request::check` passes — decodes from its encoding back
//! to itself.

use proptest::prelude::*;
use terp_net::proto::{MAX_READ, MAX_STRING};
use terp_net::{LogFile, ReplMsg, Request, Response, ServiceError, MAGIC};
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

/// Up to 24 characters of one to four UTF-8 bytes each.
fn text(rng: &mut TestRng) -> String {
    const CHARS: [char; 6] = ['a', 'z', '_', 'é', '€', '𝄞'];
    (0..rng.below(24))
        .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
        .collect()
}

/// A pool name: usually short, sometimes as long as a message carries.
fn name(rng: &mut TestRng) -> String {
    if rng.below(32) == 0 {
        "n".repeat(MAX_STRING)
    } else {
        text(rng)
    }
}

fn mode(rng: &mut TestRng) -> OpenMode {
    [OpenMode::ReadOnly, OpenMode::ReadWrite][rng.below(2) as usize]
}

fn perm(rng: &mut TestRng) -> Permission {
    [Permission::None, Permission::Read, Permission::ReadWrite][rng.below(3) as usize]
}

fn kind(rng: &mut TestRng) -> AccessKind {
    [AccessKind::Read, AccessKind::Write][rng.below(2) as usize]
}

/// Any request `Request::check` passes.
fn request(rng: &mut TestRng) -> Request {
    match rng.below(9) {
        0 => Request::Hello {
            magic: if rng.below(2) == 0 {
                MAGIC
            } else {
                rng.next_u64() as u32
            },
            version: rng.next_u64() as u16,
            client: rng.next_u64(),
        },
        1 => Request::CreatePool {
            name: name(rng),
            size: rng.next_u64(),
            mode: mode(rng),
        },
        2 => Request::Attach {
            pmo: pmo(rng),
            perm: perm(rng),
        },
        3 => Request::Detach { pmo: pmo(rng) },
        4 => Request::Read {
            oid: oid(rng),
            len: rng.below(u64::from(MAX_READ) + 1) as u32,
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

/// Any error that crosses the wire as itself: a local `Substrate` error
/// arrives as `RemoteSubstrate`.
fn error(rng: &mut TestRng) -> ServiceError {
    let client = rng.next_u64() as usize;
    match rng.below(10) {
        0 => ServiceError::UnknownPmo(pmo(rng)),
        1 => ServiceError::AlreadyAttached {
            client,
            pmo: pmo(rng),
        },
        2 => ServiceError::NotAttached {
            client,
            pmo: pmo(rng),
        },
        3 => ServiceError::PermissionDenied {
            client,
            pmo: pmo(rng),
            kind: kind(rng),
        },
        4 => ServiceError::ShuttingDown,
        5 => ServiceError::RemoteSubstrate(text(rng)),
        6 => ServiceError::Persist(text(rng)),
        7 => ServiceError::Protocol(text(rng)),
        8 => ServiceError::Disconnected(text(rng)),
        _ => ServiceError::ReadOnly,
    }
}

fn response(rng: &mut TestRng) -> Response {
    match rng.below(7) {
        0 => Response::Unit,
        1 => Response::Pool(pmo(rng)),
        2 => Response::Oid(oid(rng)),
        3 => Response::Data(bytes(rng)),
        4 => Response::Attached {
            waited_ns: rng.next_u64(),
        },
        5 => Response::Hello {
            version: rng.next_u64() as u16,
            scheme: text(rng),
            shards: rng.next_u64() as u16,
        },
        _ => Response::Err(error(rng)),
    }
}

fn repl_msg(rng: &mut TestRng) -> ReplMsg {
    match rng.below(6) {
        0 => ReplMsg::Hello {
            magic: rng.next_u64() as u32,
            version: rng.next_u64() as u16,
            follower: rng.next_u64(),
        },
        1 => ReplMsg::Welcome {
            version: rng.next_u64() as u16,
            shards: rng.next_u64() as u32,
        },
        2 => ReplMsg::Subscribe,
        3 => ReplMsg::LogBatch {
            shard: rng.next_u64() as u32,
            file: if rng.below(2) == 0 {
                LogFile::Wal
            } else {
                LogFile::Ckpt
            },
            offset: rng.next_u64(),
            bytes: bytes(rng),
        },
        4 => ReplMsg::Heartbeat {
            shard: rng.next_u64() as u32,
            durable_seq: rng.next_u64(),
        },
        _ => ReplMsg::Ack {
            shard: rng.next_u64() as u32,
            applied_seq: rng.next_u64(),
        },
    }
}

/// A word of an error body: zero, a small value, one just past a `u16`
/// pool id, or anything.
fn word(rng: &mut TestRng) -> u64 {
    match rng.below(4) {
        0 => 0,
        1 => rng.below(1 << 10),
        2 => (1 << 16) | rng.below(1 << 10),
        _ => rng.next_u64(),
    }
}

/// A response error body (kind 0xEE) from its fields: a code near the
/// defined ones, two words and a message, any of which may be one the code
/// does not carry.
fn error_body(rng: &mut TestRng) -> Vec<u8> {
    let mut payload = vec![0xEE];
    payload.extend_from_slice(&rng.next_u64().to_le_bytes());
    payload.extend_from_slice(&(rng.below(12) as u16).to_le_bytes());
    payload.extend_from_slice(&word(rng).to_le_bytes());
    let b = match rng.below(3) {
        0 => word(rng),
        // A permission-denied pair: pool id, access kind above bit 32.
        1 => rng.below(1 << 10) | (rng.below(3) << 32),
        _ => rng.below(1 << 10) | (rng.below(2) << 32) | (rng.below(2) << 20),
    };
    payload.extend_from_slice(&b.to_le_bytes());
    let msg = if rng.below(2) == 0 {
        String::new()
    } else {
        text(rng)
    };
    payload.extend_from_slice(&(msg.len() as u16).to_le_bytes());
    payload.extend_from_slice(msg.as_bytes());
    payload
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
/// bound, for a value that encodes back to `payload`, or a protocol error,
/// and none panics.
fn decode_all(payload: &[u8]) {
    let bound = payload.len();
    match Request::decode(payload) {
        Ok((id, r)) => {
            assert!(request_heap(&r) <= bound, "{r:?} from {payload:?}");
            assert_eq!(r.encode(id), payload, "{r:?} re-encodes differently");
        }
        Err(e) => assert!(matches!(e, ServiceError::Protocol(_)), "{e:?}"),
    }
    match Response::decode(payload) {
        Ok((id, r)) => {
            assert!(response_heap(&r) <= bound, "{r:?} from {payload:?}");
            assert_eq!(r.encode(id), payload, "{r:?} re-encodes differently");
        }
        Err(e) => assert!(matches!(e, ServiceError::Protocol(_)), "{e:?}"),
    }
    match ReplMsg::decode(payload) {
        Ok(m) => {
            assert!(repl_heap(&m) <= bound, "{m:?} from {payload:?}");
            assert_eq!(m.encode(), payload, "{m:?} re-encodes differently");
        }
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

    /// Every value decodes from its encoding back to itself, and a request
    /// `Request::check` refuses — a name no `u16` length can carry, a read
    /// the server would refuse — is refused before anything is encoded.
    #[test]
    fn every_value_round_trips(seed in any::<u64>()) {
        let rng = &mut TestRng::new(seed);
        let req = request(rng);
        prop_assert!(req.check().is_ok(), "{req:?}");
        let id = rng.next_u64();
        prop_assert_eq!(Request::decode(&req.encode(id)).expect("valid request"), (id, req));
        let resp = response(rng);
        prop_assert_eq!(Response::decode(&resp.encode(id)).expect("valid response"), (id, resp));
        let msg = repl_msg(rng);
        prop_assert_eq!(ReplMsg::decode(&msg.encode()).expect("valid message"), msg);

        let over = 1 + rng.below(1 << 10) as usize;
        let refused = [
            Request::CreatePool {
                name: "é".repeat((MAX_STRING + over).div_ceil(2)),
                size: 1 << 12,
                mode: OpenMode::ReadWrite,
            },
            Request::Read {
                oid: oid(rng),
                len: MAX_READ + over as u32,
            },
        ];
        for req in refused {
            prop_assert!(matches!(req.check(), Err(ServiceError::Protocol(_))), "{req:?}");
        }
    }

    /// Error bodies built field by field, with words and messages their
    /// code does not carry and ids past a `u16`: each decodes to an error
    /// that re-encodes to it, or is refused.
    #[test]
    fn accepted_error_bodies_re_encode_to_themselves(seed in any::<u64>()) {
        decode_all(&error_body(&mut TestRng::new(seed)));
    }
}
