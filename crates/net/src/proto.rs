//! The message layer: requests, responses, and the error code space.
//!
//! A message is one frame payload:
//!
//! ```text
//! [kind: u8] [req_id: u64 LE] [body...]
//! ```
//!
//! Request ids are assigned by the client, unique per connection and never
//! 0, and echoed verbatim in the matching response — that is the whole
//! pipelining contract. The server may complete requests *out of
//! order* (a Basic-semantics attach that blocks on an exposure window must
//! not head-of-line-block later ops on the same connection), so clients
//! match responses by id, never by position.
//!
//! A connection opens with a [`Request::Hello`] carrying the protocol magic,
//! version, and the client id every subsequent op on the connection acts
//! as. Any other first message — or a magic/version mismatch — is a
//! protocol error and the server closes the stream.
//!
//! Every decode is bounds-checked, total and exact: malformed bodies produce
//! [`ServiceError::Protocol`], never a panic; trailing bytes after a
//! well-formed body are rejected (they would mean a framing bug); and so is
//! any field the decoded value would not encode back the same way, so a
//! payload either decodes to a value that re-encodes to it or is refused.
//! The one encoding that is not exact is on the sending side: a string's
//! length travels as a `u16`, so a pool name longer than [`MAX_STRING`] is
//! refused before it is framed ([`Request::check`]), and only a message the
//! server composes itself is cut, at a character boundary.

use std::borrow::Cow;

use terp_persist::{ReadError, Reader};
use terp_pmo::{AccessKind, ObjectId, OpenMode, Permission, PmoId};
use terp_service::{ClientId, ServiceError};

use crate::frame::MAX_FRAME;

/// Protocol magic, first field of the hello body (`"TERP"` little-endian).
pub const MAGIC: u32 = 0x5052_4554;

/// Wire protocol version. Bumped on any incompatible layout change; the
/// server refuses hellos carrying a different version.
pub const VERSION: u16 = 1;

/// Longest string a message carries, in bytes: its length travels as a
/// `u16`.
pub const MAX_STRING: usize = u16::MAX as usize;

/// Cap on one read's requested length: the response data must fit a frame
/// alongside its header.
pub const MAX_READ: u32 = (MAX_FRAME - 64) as u32;

// Request kinds.
const K_HELLO: u8 = 0x01;
const K_CREATE: u8 = 0x10;
const K_ATTACH: u8 = 0x11;
const K_DETACH: u8 = 0x12;
const K_READ: u8 = 0x13;
const K_WRITE: u8 = 0x14;
const K_ALLOC: u8 = 0x15;
const K_FREE: u8 = 0x16;
const K_PING: u8 = 0x17;

// Response kinds.
const K_OK_UNIT: u8 = 0x80;
const K_OK_POOL: u8 = 0x81;
const K_OK_OID: u8 = 0x82;
const K_OK_DATA: u8 = 0x83;
const K_OK_ATTACHED: u8 = 0x84;
const K_OK_HELLO: u8 = 0x85;
const K_ERR: u8 = 0xEE;

// Error codes inside a `K_ERR` body.
const E_UNKNOWN_PMO: u16 = 1;
const E_ALREADY_ATTACHED: u16 = 2;
const E_NOT_ATTACHED: u16 = 3;
const E_PERMISSION: u16 = 4;
const E_SHUTTING_DOWN: u16 = 5;
const E_SUBSTRATE: u16 = 6;
const E_PERSIST: u16 = 7;
const E_PROTOCOL: u16 = 8;
const E_DISCONNECTED: u16 = 9;
const E_READ_ONLY: u16 = 10;

/// One client → server operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Connection handshake: magic, version, and the client id this
    /// connection speaks for.
    Hello {
        /// Must equal [`MAGIC`].
        magic: u32,
        /// Must equal [`VERSION`].
        version: u16,
        /// Client id for every op on this connection.
        client: u64,
    },
    /// `create_pool(name, size, mode)`.
    CreatePool {
        /// Pool name (uniqueness enforced by the service registry).
        name: String,
        /// Pool size in bytes.
        size: u64,
        /// Open mode.
        mode: OpenMode,
    },
    /// `attach(pmo, perm)` — may block server-side under Basic semantics.
    Attach {
        /// Pool to attach.
        pmo: PmoId,
        /// Requested permission.
        perm: Permission,
    },
    /// `detach(pmo)`.
    Detach {
        /// Pool to detach.
        pmo: PmoId,
    },
    /// `read(oid, len)`.
    Read {
        /// Object to read.
        oid: ObjectId,
        /// Bytes to read (≤ [`MAX_READ`]).
        len: u32,
    },
    /// `write(oid, data)`.
    Write {
        /// Object to write.
        oid: ObjectId,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// `alloc(pmo, size)`.
    Alloc {
        /// Pool to allocate in.
        pmo: PmoId,
        /// Allocation size in bytes.
        size: u64,
    },
    /// `free(oid)`.
    Free {
        /// Object to free.
        oid: ObjectId,
    },
    /// Liveness probe; completes with [`Response::Unit`].
    Ping,
}

/// One server → client completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success with no payload (detach, write, free, ping).
    Unit,
    /// `create_pool` succeeded.
    Pool(PmoId),
    /// `alloc` succeeded.
    Oid(ObjectId),
    /// `read` succeeded.
    Data(Vec<u8>),
    /// `attach` succeeded; carries the nanoseconds the request spent queued
    /// on Basic-semantics serialization (0 for non-blocking schemes).
    Attached {
        /// Queue wait attributable to a conflicting holder.
        waited_ns: u64,
    },
    /// Handshake accepted.
    Hello {
        /// Server's protocol version (equals [`VERSION`] on success).
        version: u16,
        /// Scheme tag (display only).
        scheme: String,
        /// Server shard count.
        shards: u16,
    },
    /// The operation failed; see [`ServiceError`].
    Err(ServiceError),
}

/// A payload that did not decode: the [`Reader`] ran short or was left with
/// bytes, or a field holds a value the format forbids. It becomes a
/// [`ServiceError::Protocol`] naming what was being decoded
/// ([`Malformed::protocol`]).
#[derive(Debug)]
pub(crate) enum Malformed {
    Read(ReadError),
    Field(String),
}

impl From<ReadError> for Malformed {
    fn from(e: ReadError) -> Self {
        Malformed::Read(e)
    }
}

impl Malformed {
    /// The protocol error for a malformed `what` ("message body", …).
    pub(crate) fn protocol(self, what: &str) -> ServiceError {
        ServiceError::Protocol(match self {
            Malformed::Read(ReadError::Truncated) => format!("truncated {what}"),
            Malformed::Read(ReadError::Trailing(n)) => format!("{n} trailing bytes after {what}"),
            Malformed::Field(msg) => msg,
        })
    }
}

pub(crate) fn bad(msg: impl Into<String>) -> Malformed {
    Malformed::Field(msg.into())
}

fn get_pmo(r: &mut Reader<'_>) -> Result<PmoId, Malformed> {
    let raw = r.u16()?;
    PmoId::new(raw).ok_or_else(|| bad(format!("invalid pool id {raw} on the wire")))
}

fn get_oid(r: &mut Reader<'_>) -> Result<ObjectId, Malformed> {
    let packed = r.u64()?;
    ObjectId::from_packed(packed)
        .ok_or_else(|| bad(format!("invalid packed object id {packed:#x} on the wire")))
}

/// A `u16`-length-prefixed UTF-8 string.
fn get_string(r: &mut Reader<'_>) -> Result<String, Malformed> {
    let len = r.u16()?;
    let bytes = r.take(usize::from(len))?;
    String::from_utf8(bytes.to_vec()).map_err(|_| bad("non-UTF-8 string on the wire"))
}

/// A `u16`-length-prefixed string of at most [`MAX_STRING`] bytes.
fn put_string(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("names are checked and texts clipped to MAX_STRING");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Text the server composes — an error message, its scheme tag — cut to
/// [`MAX_STRING`] bytes at a character boundary, so it still decodes.
fn clip(s: &str) -> &str {
    let mut end = s.len().min(MAX_STRING);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn mode_byte(mode: OpenMode) -> u8 {
    match mode {
        OpenMode::ReadOnly => 0,
        OpenMode::ReadWrite => 1,
    }
}

fn mode_from(b: u8) -> Result<OpenMode, Malformed> {
    match b {
        0 => Ok(OpenMode::ReadOnly),
        1 => Ok(OpenMode::ReadWrite),
        _ => Err(bad(format!("invalid open mode {b}"))),
    }
}

fn perm_byte(perm: Permission) -> u8 {
    match perm {
        Permission::None => 0,
        Permission::Read => 1,
        Permission::ReadWrite => 2,
    }
}

fn perm_from(b: u8) -> Result<Permission, Malformed> {
    match b {
        0 => Ok(Permission::None),
        1 => Ok(Permission::Read),
        2 => Ok(Permission::ReadWrite),
        _ => Err(bad(format!("invalid permission {b}"))),
    }
}

fn kind_byte(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    }
}

fn kind_from(b: u8) -> Result<AccessKind, Malformed> {
    match b {
        0 => Ok(AccessKind::Read),
        1 => Ok(AccessKind::Write),
        _ => Err(bad(format!("invalid access kind {b}"))),
    }
}

impl Request {
    /// Refuses a request the server would not take as it stands: a pool
    /// name over [`MAX_STRING`] bytes, which no message can carry whole, a
    /// write too large for one frame, or a read over [`MAX_READ`], which
    /// the server's decoder refuses as a fatal protocol error.
    /// [`crate::Client::submit`] checks before it frames.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] naming the field.
    pub fn check(&self) -> Result<(), ServiceError> {
        match self {
            Request::CreatePool { name, .. } if name.len() > MAX_STRING => {
                Err(ServiceError::Protocol(format!(
                    "pool name of {} bytes exceeds {MAX_STRING}",
                    name.len()
                )))
            }
            // Kind, request id and object id ahead of the data.
            Request::Write { data, .. } if 17 + data.len() > MAX_FRAME => Err(
                ServiceError::Protocol(format!("write of {} bytes exceeds a frame", data.len())),
            ),
            Request::Read { len, .. } if *len > MAX_READ => Err(ServiceError::Protocol(format!(
                "read length {len} exceeds {MAX_READ}"
            ))),
            _ => Ok(()),
        }
    }

    /// Serializes the request as one frame payload.
    ///
    /// # Panics
    ///
    /// On a pool name [`Request::check`] refuses: it cannot be encoded
    /// whole, and it is never truncated.
    pub fn encode(&self, req_id: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(req_id, &mut out);
        out
    }

    /// [`Request::encode`] appended to `out`: with
    /// [`crate::frame::frame_into`], a request framed in place.
    ///
    /// # Panics
    ///
    /// As [`Request::encode`].
    pub fn encode_into(&self, req_id: u64, out: &mut Vec<u8>) {
        let kind = match self {
            Request::Hello { .. } => K_HELLO,
            Request::CreatePool { .. } => K_CREATE,
            Request::Attach { .. } => K_ATTACH,
            Request::Detach { .. } => K_DETACH,
            Request::Read { .. } => K_READ,
            Request::Write { .. } => K_WRITE,
            Request::Alloc { .. } => K_ALLOC,
            Request::Free { .. } => K_FREE,
            Request::Ping => K_PING,
        };
        out.push(kind);
        out.extend_from_slice(&req_id.to_le_bytes());
        match self {
            Request::Hello {
                magic,
                version,
                client,
            } => {
                out.extend_from_slice(&magic.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&client.to_le_bytes());
            }
            Request::CreatePool { name, size, mode } => {
                out.extend_from_slice(&size.to_le_bytes());
                out.push(mode_byte(*mode));
                put_string(out, name);
            }
            Request::Attach { pmo, perm } => {
                out.extend_from_slice(&pmo.raw().to_le_bytes());
                out.push(perm_byte(*perm));
            }
            Request::Detach { pmo } => out.extend_from_slice(&pmo.raw().to_le_bytes()),
            Request::Read { oid, len } => {
                out.extend_from_slice(&oid.to_packed().to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            Request::Write { oid, data } => {
                out.extend_from_slice(&oid.to_packed().to_le_bytes());
                out.extend_from_slice(data);
            }
            Request::Alloc { pmo, size } => {
                out.extend_from_slice(&pmo.raw().to_le_bytes());
                out.extend_from_slice(&size.to_le_bytes());
            }
            Request::Free { oid } => out.extend_from_slice(&oid.to_packed().to_le_bytes()),
            Request::Ping => {}
        }
    }

    /// Parses one frame payload into `(req_id, request)`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on truncation, unknown kinds, invalid
    /// enum bytes, or trailing garbage.
    pub fn decode(payload: &[u8]) -> Result<(u64, Request), ServiceError> {
        Self::decode_body(&mut Reader::new(payload)).map_err(|e| e.protocol("message body"))
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<(u64, Request), Malformed> {
        let kind = r.u8()?;
        let req_id = r.u64()?;
        let req = match kind {
            K_HELLO => Request::Hello {
                magic: r.u32()?,
                version: r.u16()?,
                client: r.u64()?,
            },
            K_CREATE => {
                let size = r.u64()?;
                let mode = mode_from(r.u8()?)?;
                let name = get_string(r)?;
                Request::CreatePool { name, size, mode }
            }
            K_ATTACH => Request::Attach {
                pmo: get_pmo(r)?,
                perm: perm_from(r.u8()?)?,
            },
            K_DETACH => Request::Detach { pmo: get_pmo(r)? },
            K_READ => {
                let oid = get_oid(r)?;
                let len = r.u32()?;
                if len > MAX_READ {
                    return Err(bad(format!("read length {len} exceeds {MAX_READ}")));
                }
                Request::Read { oid, len }
            }
            K_WRITE => {
                let oid = get_oid(r)?;
                let data = r.rest().to_vec();
                Request::Write { oid, data }
            }
            K_ALLOC => Request::Alloc {
                pmo: get_pmo(r)?,
                size: r.u64()?,
            },
            K_FREE => Request::Free { oid: get_oid(r)? },
            K_PING => Request::Ping,
            other => return Err(bad(format!("unknown request kind {other:#04x}"))),
        };
        r.finish()?;
        Ok((req_id, req))
    }
}

/// An error body's fields: code, two words and a message.
fn err_fields(e: &ServiceError) -> (u16, u64, u64, Cow<'_, str>) {
    let none = Cow::Borrowed("");
    match e {
        ServiceError::UnknownPmo(p) => (E_UNKNOWN_PMO, u64::from(p.raw()), 0, none),
        ServiceError::AlreadyAttached { client, pmo } => (
            E_ALREADY_ATTACHED,
            *client as u64,
            u64::from(pmo.raw()),
            none,
        ),
        ServiceError::NotAttached { client, pmo } => {
            (E_NOT_ATTACHED, *client as u64, u64::from(pmo.raw()), none)
        }
        ServiceError::PermissionDenied { client, pmo, kind } => (
            E_PERMISSION,
            *client as u64,
            u64::from(pmo.raw()) | (u64::from(kind_byte(*kind)) << 32),
            none,
        ),
        ServiceError::ShuttingDown => (E_SHUTTING_DOWN, 0, 0, none),
        ServiceError::Substrate(e) => (E_SUBSTRATE, 0, 0, Cow::Owned(e.to_string())),
        ServiceError::RemoteSubstrate(msg) => (E_SUBSTRATE, 0, 0, Cow::Borrowed(msg)),
        ServiceError::Persist(msg) => (E_PERSIST, 0, 0, Cow::Borrowed(msg)),
        ServiceError::Protocol(msg) => (E_PROTOCOL, 0, 0, Cow::Borrowed(msg)),
        ServiceError::Disconnected(msg) => (E_DISCONNECTED, 0, 0, Cow::Borrowed(msg)),
        ServiceError::ReadOnly => (E_READ_ONLY, 0, 0, none),
    }
}

fn encode_err(out: &mut Vec<u8>, e: &ServiceError) {
    let (code, a, b, msg) = err_fields(e);
    out.extend_from_slice(&code.to_le_bytes());
    out.extend_from_slice(&a.to_le_bytes());
    out.extend_from_slice(&b.to_le_bytes());
    put_string(out, clip(&msg));
}

fn decode_err(r: &mut Reader<'_>) -> Result<ServiceError, Malformed> {
    let code = r.u16()?;
    let a = r.u64()?;
    let b = r.u64()?;
    let msg = get_string(r)?;
    let msg_len = msg.len();
    let wire_pmo = |raw: u64| {
        u16::try_from(raw)
            .ok()
            .and_then(PmoId::new)
            .ok_or_else(|| bad(format!("invalid pool id {raw} in error body")))
    };
    let client =
        |raw: u64| ClientId::try_from(raw).map_err(|_| bad(format!("invalid client id {raw}")));
    let e = match code {
        E_UNKNOWN_PMO => ServiceError::UnknownPmo(wire_pmo(a)?),
        E_ALREADY_ATTACHED => ServiceError::AlreadyAttached {
            client: client(a)?,
            pmo: wire_pmo(b)?,
        },
        E_NOT_ATTACHED => ServiceError::NotAttached {
            client: client(a)?,
            pmo: wire_pmo(b)?,
        },
        E_PERMISSION => ServiceError::PermissionDenied {
            client: client(a)?,
            pmo: wire_pmo(b & 0xFFFF_FFFF)?,
            kind: kind_from(u8::try_from(b >> 32).map_err(|_| bad("invalid access kind"))?)?,
        },
        E_SHUTTING_DOWN => ServiceError::ShuttingDown,
        E_SUBSTRATE => ServiceError::RemoteSubstrate(msg),
        E_PERSIST => ServiceError::Persist(msg),
        E_PROTOCOL => ServiceError::Protocol(msg),
        E_DISCONNECTED => ServiceError::Disconnected(msg),
        E_READ_ONLY => ServiceError::ReadOnly,
        other => return Err(bad(format!("unknown error code {other}"))),
    };
    // Exact: a word or message the code does not carry, or bits beside a
    // field, would not encode back.
    let (_, ea, eb, emsg) = err_fields(&e);
    if (ea, eb, emsg.len()) != (a, b, msg_len) {
        return Err(bad(format!(
            "error code {code} with fields it does not carry"
        )));
    }
    Ok(e)
}

impl Response {
    /// Serializes the response as one frame payload.
    pub fn encode(&self, req_id: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(req_id, &mut out);
        out
    }

    /// [`Response::encode`] appended to `out`: with
    /// [`crate::frame::frame_into`], a response framed in place.
    pub fn encode_into(&self, req_id: u64, out: &mut Vec<u8>) {
        let kind = match self {
            Response::Unit => K_OK_UNIT,
            Response::Pool(_) => K_OK_POOL,
            Response::Oid(_) => K_OK_OID,
            Response::Data(_) => K_OK_DATA,
            Response::Attached { .. } => K_OK_ATTACHED,
            Response::Hello { .. } => K_OK_HELLO,
            Response::Err(_) => K_ERR,
        };
        out.push(kind);
        out.extend_from_slice(&req_id.to_le_bytes());
        match self {
            Response::Unit => {}
            Response::Pool(p) => out.extend_from_slice(&p.raw().to_le_bytes()),
            Response::Oid(oid) => out.extend_from_slice(&oid.to_packed().to_le_bytes()),
            Response::Data(data) => out.extend_from_slice(data),
            Response::Attached { waited_ns } => out.extend_from_slice(&waited_ns.to_le_bytes()),
            Response::Hello {
                version,
                scheme,
                shards,
            } => {
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&shards.to_le_bytes());
                put_string(out, clip(scheme));
            }
            Response::Err(e) => encode_err(out, e),
        }
    }

    /// Parses one frame payload into `(req_id, response)`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on truncation, unknown kinds, or trailing
    /// garbage.
    pub fn decode(payload: &[u8]) -> Result<(u64, Response), ServiceError> {
        Self::decode_body(&mut Reader::new(payload)).map_err(|e| e.protocol("message body"))
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<(u64, Response), Malformed> {
        let kind = r.u8()?;
        let req_id = r.u64()?;
        let resp = match kind {
            K_OK_UNIT => Response::Unit,
            K_OK_POOL => Response::Pool(get_pmo(r)?),
            K_OK_OID => Response::Oid(get_oid(r)?),
            K_OK_DATA => Response::Data(r.rest().to_vec()),
            K_OK_ATTACHED => Response::Attached {
                waited_ns: r.u64()?,
            },
            K_OK_HELLO => {
                let version = r.u16()?;
                let shards = r.u16()?;
                let scheme = get_string(r)?;
                Response::Hello {
                    version,
                    scheme,
                    shards,
                }
            }
            K_ERR => Response::Err(decode_err(r)?),
            other => return Err(bad(format!("unknown response kind {other:#04x}"))),
        };
        r.finish()?;
        Ok((req_id, resp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terp_pmo::PmoError;

    fn pmo(raw: u16) -> PmoId {
        PmoId::new(raw).unwrap()
    }

    #[test]
    fn request_roundtrip_all_kinds() {
        let reqs = vec![
            Request::Hello {
                magic: MAGIC,
                version: VERSION,
                client: 42,
            },
            Request::CreatePool {
                name: "ledger".into(),
                size: 1 << 20,
                mode: OpenMode::ReadWrite,
            },
            Request::Attach {
                pmo: pmo(7),
                perm: Permission::ReadWrite,
            },
            Request::Detach { pmo: pmo(1023) },
            Request::Read {
                oid: ObjectId::new(pmo(3), 0x40),
                len: 128,
            },
            Request::Write {
                oid: ObjectId::new(pmo(3), 0),
                data: vec![1, 2, 3],
            },
            Request::Alloc {
                pmo: pmo(9),
                size: 64,
            },
            Request::Free {
                oid: ObjectId::new(pmo(9), 0x80),
            },
            Request::Ping,
        ];
        for (i, req) in reqs.into_iter().enumerate() {
            let id = i as u64 * 13 + 1;
            let wire = req.encode(id);
            assert_eq!(Request::decode(&wire).unwrap(), (id, req));
        }
    }

    #[test]
    fn response_roundtrip_all_kinds() {
        let resps = vec![
            Response::Unit,
            Response::Pool(pmo(12)),
            Response::Oid(ObjectId::new(pmo(1), 0x1234)),
            Response::Data(vec![9; 300]),
            Response::Attached { waited_ns: 12345 },
            Response::Hello {
                version: VERSION,
                scheme: "tt".into(),
                shards: 16,
            },
            Response::Err(ServiceError::UnknownPmo(pmo(99))),
            Response::Err(ServiceError::AlreadyAttached {
                client: 3,
                pmo: pmo(4),
            }),
            Response::Err(ServiceError::NotAttached {
                client: 5,
                pmo: pmo(6),
            }),
            Response::Err(ServiceError::PermissionDenied {
                client: 7,
                pmo: pmo(8),
                kind: AccessKind::Write,
            }),
            Response::Err(ServiceError::ShuttingDown),
            Response::Err(ServiceError::Persist("wal: torn record".into())),
            Response::Err(ServiceError::Protocol("bad frame".into())),
            Response::Err(ServiceError::Disconnected("peer reset".into())),
            Response::Err(ServiceError::ReadOnly),
        ];
        for (i, resp) in resps.into_iter().enumerate() {
            let id = i as u64;
            let wire = resp.encode(id);
            assert_eq!(Response::decode(&wire).unwrap(), (id, resp));
        }
    }

    #[test]
    fn substrate_errors_lose_structure_but_keep_the_message() {
        let e = ServiceError::Substrate(PmoError::NameExists("dup".into()));
        let wire = Response::Err(e.clone()).encode(1);
        let (_, decoded) = Response::decode(&wire).unwrap();
        match decoded {
            Response::Err(ServiceError::RemoteSubstrate(msg)) => {
                assert_eq!(msg, PmoError::NameExists("dup".into()).to_string());
            }
            other => panic!("expected RemoteSubstrate, got {other:?}"),
        }
    }

    #[test]
    fn malformed_bodies_are_clean_protocol_errors() {
        // Truncated everywhere.
        for req in [
            Request::Attach {
                pmo: pmo(7),
                perm: Permission::Read,
            },
            Request::CreatePool {
                name: "x".into(),
                size: 4096,
                mode: OpenMode::ReadWrite,
            },
        ] {
            let wire = req.encode(5);
            for cut in 0..wire.len() {
                let r = Request::decode(&wire[..cut]);
                assert!(
                    matches!(r, Err(ServiceError::Protocol(_))),
                    "cut at {cut} must be a protocol error, got {r:?}"
                );
            }
        }
        // Unknown kind, trailing garbage, bad enum bytes, zero pool id.
        assert!(matches!(
            Request::decode(&[0x7F, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(ServiceError::Protocol(_))
        ));
        let mut wire = Request::Ping.encode(1);
        wire.push(0xAA);
        assert!(matches!(
            Request::decode(&wire),
            Err(ServiceError::Protocol(_))
        ));
        let mut wire = Request::Attach {
            pmo: pmo(7),
            perm: Permission::Read,
        }
        .encode(1);
        *wire.last_mut().unwrap() = 9; // invalid permission byte
        assert!(matches!(
            Request::decode(&wire),
            Err(ServiceError::Protocol(_))
        ));
        let mut wire = Request::Detach { pmo: pmo(7) }.encode(1);
        wire[9] = 0;
        wire[10] = 0; // pool id 0 is the reserved null id
        assert!(matches!(
            Request::decode(&wire),
            Err(ServiceError::Protocol(_))
        ));
    }

    /// An error body `(code, a, b, msg)` as the wire carries it.
    fn err_body(code: u16, a: u64, b: u64, msg: &str) -> Vec<u8> {
        let mut wire = vec![K_ERR];
        wire.extend_from_slice(&3u64.to_le_bytes());
        wire.extend_from_slice(&code.to_le_bytes());
        wire.extend_from_slice(&a.to_le_bytes());
        wire.extend_from_slice(&b.to_le_bytes());
        put_string(&mut wire, msg);
        wire
    }

    #[test]
    fn error_bodies_decode_exactly_or_refuse() {
        assert_eq!(
            Response::decode(&err_body(E_UNKNOWN_PMO, 5, 0, "")).unwrap(),
            (3, Response::Err(ServiceError::UnknownPmo(pmo(5))))
        );
        let permission = 9 | (1 << 32);
        assert_eq!(
            Response::decode(&err_body(E_PERMISSION, 2, permission, "")).unwrap(),
            (
                3,
                Response::Err(ServiceError::PermissionDenied {
                    client: 2,
                    pmo: pmo(9),
                    kind: AccessKind::Write,
                })
            )
        );
        for (code, a, b, msg) in [
            // A pool id past a `u16`, which a narrowing cast would read as 5.
            (E_UNKNOWN_PMO, (1 << 16) | 5, 0, ""),
            (E_NOT_ATTACHED, 1, (1 << 16) | 5, ""),
            // Bits between the pool id and the access kind, or above it.
            (E_PERMISSION, 2, permission | (1 << 20), ""),
            (E_PERMISSION, 2, permission | (1 << 48), ""),
            // Words and messages the code does not carry.
            (E_UNKNOWN_PMO, 5, 1, ""),
            (E_SHUTTING_DOWN, 1, 0, ""),
            (E_READ_ONLY, 0, 0, "stray"),
            (E_ALREADY_ATTACHED, 1, 5, "stray"),
            (E_PERSIST, 0, 7, "wal"),
        ] {
            assert!(
                matches!(
                    Response::decode(&err_body(code, a, b, msg)),
                    Err(ServiceError::Protocol(_))
                ),
                "code {code}, words {a:#x} {b:#x}, message {msg:?}"
            );
        }
    }

    #[test]
    fn an_oversized_name_is_refused_before_it_is_framed() {
        for name in ["n".repeat(70_000), "é".repeat(40_000)] {
            let req = Request::CreatePool {
                name,
                size: 1 << 12,
                mode: OpenMode::ReadWrite,
            };
            assert!(matches!(req.check(), Err(ServiceError::Protocol(_))));
        }
        let longest = Request::CreatePool {
            name: "é".repeat(MAX_STRING / 2) + "a",
            size: 1 << 12,
            mode: OpenMode::ReadWrite,
        };
        assert!(longest.check().is_ok());
        assert_eq!(Request::decode(&longest.encode(2)).unwrap(), (2, longest));
        let read = |len| Request::Read {
            oid: ObjectId::new(pmo(1), 0),
            len,
        };
        let write = |len| Request::Write {
            oid: ObjectId::new(pmo(1), 0),
            data: vec![7; len],
        };
        let largest = write(MAX_FRAME - 17);
        assert!(largest.check().is_ok());
        assert_eq!(largest.encode(2).len(), MAX_FRAME);
        assert!(matches!(
            write(MAX_FRAME - 16).check(),
            Err(ServiceError::Protocol(_))
        ));
        assert!(read(MAX_READ).check().is_ok());
        assert!(matches!(
            read(MAX_READ + 1).check(),
            Err(ServiceError::Protocol(_))
        ));
    }

    /// A message the server composes — here one quoting a name as long as
    /// a message carries — is cut at a character boundary, so it decodes.
    #[test]
    fn an_overlong_message_is_cut_at_a_character_boundary() {
        let msg = "é".repeat(MAX_STRING);
        let wire = Response::Err(ServiceError::Persist(msg.clone())).encode(4);
        match Response::decode(&wire).unwrap() {
            (4, Response::Err(ServiceError::Persist(cut))) => {
                assert_eq!(cut.len(), MAX_STRING - 1);
                assert!(msg.starts_with(&cut));
            }
            other => panic!("{other:?}"),
        }
    }
}
