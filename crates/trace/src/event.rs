//! Trace events: the flight recorder's vocabulary.
//!
//! Every event carries a nanosecond timestamp from the service clock plus an
//! [`EventKind`]. Events serialize two ways:
//!
//! * **wire words** — a fixed `[u64; 5]` encoding stored in the lock-free
//!   ring slots ([`Event::encode_words`] / [`Event::decode_words`]), so ring
//!   slots are plain atomics and torn writes are detectable but never UB;
//! * **text lines** — a whitespace-separated line per event in the dump
//!   files ([`Event::render_line`] / [`Event::parse_line`]), so dumps are
//!   greppable and diffable.

/// Raw pool id as published in trace events (`PmoId::raw()` on the service
/// side).
pub type PoolId = u16;

/// Number of `u64` words in the fixed wire encoding of one [`Event`].
pub const EVENT_WORDS: usize = 5;

/// One recorded operation or synchronization stamp.
///
/// The first seven kinds are *window/data plane* events the checker analyzes
/// for races; the other seven are *sync edges* it uses to reconstruct the
/// happens-before partial order (DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A client's attach succeeded at the service boundary: a window on
    /// `pmo` is now open for `client`.
    Attach {
        /// Pool the window opened on.
        pmo: PoolId,
        /// Client holding the window.
        client: u64,
        /// Whether the window permits writes.
        writable: bool,
    },
    /// A client's detach succeeded: its window on `pmo` closed.
    Detach {
        /// Pool the window closed on.
        pmo: PoolId,
        /// Client whose window closed.
        client: u64,
    },
    /// A thread permission was granted on the pool's published window state
    /// (TERP conditional attach lowering).
    Grant {
        /// Pool the grant applies to.
        pmo: PoolId,
        /// Client granted access.
        client: u64,
        /// Whether the grant permits writes.
        writable: bool,
    },
    /// A thread permission was revoked from the pool's published window
    /// state (conditional detach lowering, drain, or sweeper eviction).
    Revoke {
        /// Pool the revocation applies to.
        pmo: PoolId,
        /// Client revoked.
        client: u64,
    },
    /// The sweeper force-closed the pool's process window (expiry).
    Expire {
        /// Pool whose window expired.
        pmo: PoolId,
    },
    /// A data read completed. `epoch` is the seqlock epoch the fast path
    /// validated against (0 when the op took the locked slow path, whose
    /// ordering is captured by the lock events instead).
    Read {
        /// Pool read from.
        pmo: PoolId,
        /// Client issuing the read.
        client: u64,
        /// Byte offset of the access within the pool.
        offset: u64,
        /// Access length in bytes.
        len: u32,
        /// Validated seqlock epoch (fast path) or 0 (slow path).
        epoch: u64,
    },
    /// A data write completed. Fields as for [`EventKind::Read`].
    Write {
        /// Pool written to.
        pmo: PoolId,
        /// Client issuing the write.
        client: u64,
        /// Byte offset of the access within the pool.
        offset: u64,
        /// Access length in bytes.
        len: u32,
        /// Validated seqlock epoch (fast path) or 0 (slow path).
        epoch: u64,
    },
    /// The thread acquired shard lock `obj`; `seq` is the per-shard
    /// acquisition index (1, 2, 3, …). Release `k` happens-before acquire
    /// `k+1` on the same `obj`.
    LockAcquire {
        /// Lock identity (shard index).
        obj: u32,
        /// Acquisition index on this lock.
        seq: u64,
    },
    /// The thread released shard lock `obj` after acquisition `seq`.
    LockRelease {
        /// Lock identity (shard index).
        obj: u32,
        /// Acquisition index being released.
        seq: u64,
    },
    /// The pool's seqlock slot published a new even `epoch`. A publish
    /// happens-before every data op that validated an epoch `>=` it.
    Publish {
        /// Pool whose published window state changed.
        pmo: PoolId,
        /// New (even) seqlock epoch.
        epoch: u64,
    },
    /// A thread unparked the sweeper; `token` is the monotonically
    /// increasing wake ticket.
    Unpark {
        /// Wake ticket issued by this unpark.
        token: u64,
    },
    /// A sweep pass began having observed wake tickets up to `token`; every
    /// [`EventKind::Unpark`] with a ticket `<= token` happens-before it.
    Wakeup {
        /// Highest wake ticket observed at pass start.
        token: u64,
    },
    /// A network reader thread decoded request `req` from connection `conn`
    /// (terp-net). The decode happens-before the request's execution
    /// ([`EventKind::NetExec`] with the same `conn`/`req`), wherever that
    /// execution lands — inline, on an executor worker, or on a dedicated
    /// blocking-attach thread.
    NetRecv {
        /// Server-side connection id.
        conn: u32,
        /// Client-assigned request id (unique per connection).
        req: u64,
    },
    /// Execution of request `req` from connection `conn` began (terp-net).
    /// Recorded on the executing thread, which may differ from the reader's;
    /// the matching [`EventKind::NetRecv`] happens-before this.
    NetExec {
        /// Server-side connection id.
        conn: u32,
        /// Client-assigned request id (unique per connection).
        req: u64,
    },
}

/// One recorded event: a service-clock timestamp plus the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since service start when the event was recorded. Per
    /// thread, timestamps are monotonically non-decreasing in ring order.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

impl EventKind {
    /// The kind's wire tag. Tags 15 and 16 (mnemonics `rs` and `ra`) were
    /// the replication ship/apply events, which nothing recorded; they are
    /// retired, decode as unknown and are never reused.
    fn tag(&self) -> u64 {
        match self {
            EventKind::Attach { .. } => 1,
            EventKind::Detach { .. } => 2,
            EventKind::Grant { .. } => 3,
            EventKind::Revoke { .. } => 4,
            EventKind::Expire { .. } => 5,
            EventKind::Read { .. } => 6,
            EventKind::Write { .. } => 7,
            EventKind::LockAcquire { .. } => 8,
            EventKind::LockRelease { .. } => 9,
            EventKind::Publish { .. } => 10,
            EventKind::Unpark { .. } => 11,
            EventKind::Wakeup { .. } => 12,
            EventKind::NetRecv { .. } => 13,
            EventKind::NetExec { .. } => 14,
        }
    }

    /// Short mnemonic used as the leading token of a dump line.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            EventKind::Attach { .. } => "at",
            EventKind::Detach { .. } => "dt",
            EventKind::Grant { .. } => "gr",
            EventKind::Revoke { .. } => "rv",
            EventKind::Expire { .. } => "ex",
            EventKind::Read { .. } => "rd",
            EventKind::Write { .. } => "wr",
            EventKind::LockAcquire { .. } => "la",
            EventKind::LockRelease { .. } => "lr",
            EventKind::Publish { .. } => "pb",
            EventKind::Unpark { .. } => "up",
            EventKind::Wakeup { .. } => "wk",
            EventKind::NetRecv { .. } => "nr",
            EventKind::NetExec { .. } => "nx",
        }
    }
}

impl Event {
    /// Encodes the event into the fixed wire layout:
    /// `[ts, tag | pmo << 8 | flag << 24 | len << 32, a, b, c]`.
    pub fn encode_words(&self) -> [u64; EVENT_WORDS] {
        let tag = self.kind.tag();
        let (pmo, flag, len, a, b, c) = match self.kind {
            EventKind::Attach {
                pmo,
                client,
                writable,
            } => (pmo, writable as u64, 0, client, 0, 0),
            EventKind::Detach { pmo, client } => (pmo, 0, 0, client, 0, 0),
            EventKind::Grant {
                pmo,
                client,
                writable,
            } => (pmo, writable as u64, 0, client, 0, 0),
            EventKind::Revoke { pmo, client } => (pmo, 0, 0, client, 0, 0),
            EventKind::Expire { pmo } => (pmo, 0, 0, 0, 0, 0),
            EventKind::Read {
                pmo,
                client,
                offset,
                len,
                epoch,
            } => (pmo, 0, len, client, offset, epoch),
            EventKind::Write {
                pmo,
                client,
                offset,
                len,
                epoch,
            } => (pmo, 0, len, client, offset, epoch),
            EventKind::LockAcquire { obj, seq } => (0, 0, 0, obj as u64, seq, 0),
            EventKind::LockRelease { obj, seq } => (0, 0, 0, obj as u64, seq, 0),
            EventKind::Publish { pmo, epoch } => (pmo, 0, 0, 0, epoch, 0),
            EventKind::Unpark { token } => (0, 0, 0, token, 0, 0),
            EventKind::Wakeup { token } => (0, 0, 0, token, 0, 0),
            EventKind::NetRecv { conn, req } => (0, 0, 0, conn as u64, req, 0),
            EventKind::NetExec { conn, req } => (0, 0, 0, conn as u64, req, 0),
        };
        let packed = tag | ((pmo as u64) << 8) | (flag << 24) | ((len as u64) << 32);
        [self.ts_ns, packed, a, b, c]
    }

    /// Decodes the wire layout produced by [`Event::encode_words`]. Returns
    /// `None` on an unknown tag (e.g. an all-zero or corrupt slot).
    pub fn decode_words(words: &[u64; EVENT_WORDS]) -> Option<Event> {
        let ts_ns = words[0];
        let packed = words[1];
        let tag = packed & 0xff;
        let pmo = ((packed >> 8) & 0xffff) as PoolId;
        let flag = (packed >> 24) & 0xff != 0;
        let len = (packed >> 32) as u32;
        let (a, b, c) = (words[2], words[3], words[4]);
        let kind = match tag {
            1 => EventKind::Attach {
                pmo,
                client: a,
                writable: flag,
            },
            2 => EventKind::Detach { pmo, client: a },
            3 => EventKind::Grant {
                pmo,
                client: a,
                writable: flag,
            },
            4 => EventKind::Revoke { pmo, client: a },
            5 => EventKind::Expire { pmo },
            6 => EventKind::Read {
                pmo,
                client: a,
                offset: b,
                len,
                epoch: c,
            },
            7 => EventKind::Write {
                pmo,
                client: a,
                offset: b,
                len,
                epoch: c,
            },
            8 => EventKind::LockAcquire {
                obj: a as u32,
                seq: b,
            },
            9 => EventKind::LockRelease {
                obj: a as u32,
                seq: b,
            },
            10 => EventKind::Publish { pmo, epoch: b },
            11 => EventKind::Unpark { token: a },
            12 => EventKind::Wakeup { token: a },
            13 => EventKind::NetRecv {
                conn: a as u32,
                req: b,
            },
            14 => EventKind::NetExec {
                conn: a as u32,
                req: b,
            },
            _ => return None,
        };
        Some(Event { ts_ns, kind })
    }

    /// Renders the event as one dump line (no trailing newline), e.g.
    /// `rd 1042 7 3 128 48 6`.
    pub fn render_line(&self) -> String {
        let ts = self.ts_ns;
        let m = self.kind.mnemonic();
        match self.kind {
            EventKind::Attach {
                pmo,
                client,
                writable,
            }
            | EventKind::Grant {
                pmo,
                client,
                writable,
            } => format!("{m} {ts} {pmo} {client} {}", writable as u8),
            EventKind::Detach { pmo, client } | EventKind::Revoke { pmo, client } => {
                format!("{m} {ts} {pmo} {client}")
            }
            EventKind::Expire { pmo } => format!("{m} {ts} {pmo}"),
            EventKind::Read {
                pmo,
                client,
                offset,
                len,
                epoch,
            }
            | EventKind::Write {
                pmo,
                client,
                offset,
                len,
                epoch,
            } => format!("{m} {ts} {pmo} {client} {offset} {len} {epoch}"),
            EventKind::LockAcquire { obj, seq } | EventKind::LockRelease { obj, seq } => {
                format!("{m} {ts} {obj} {seq}")
            }
            EventKind::Publish { pmo, epoch } => format!("{m} {ts} {pmo} {epoch}"),
            EventKind::Unpark { token } | EventKind::Wakeup { token } => {
                format!("{m} {ts} {token}")
            }
            EventKind::NetRecv { conn, req } | EventKind::NetExec { conn, req } => {
                format!("{m} {ts} {conn} {req}")
            }
        }
    }

    /// Parses a line produced by [`Event::render_line`]. Returns `None` on
    /// malformed input: an unknown mnemonic, a missing or trailing token, a
    /// number out of its field's range, or a `writable` flag other than `0`
    /// or `1`.
    pub fn parse_line(line: &str) -> Option<Event> {
        let mut it = line.split_whitespace();
        let m = it.next()?;
        let ts_ns = field(&mut it)?;
        let kind = match m {
            "at" | "gr" => {
                let pmo = field(&mut it)?;
                let client = field(&mut it)?;
                let writable = match it.next()? {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                };
                if m == "at" {
                    EventKind::Attach {
                        pmo,
                        client,
                        writable,
                    }
                } else {
                    EventKind::Grant {
                        pmo,
                        client,
                        writable,
                    }
                }
            }
            "dt" | "rv" => {
                let pmo = field(&mut it)?;
                let client = field(&mut it)?;
                if m == "dt" {
                    EventKind::Detach { pmo, client }
                } else {
                    EventKind::Revoke { pmo, client }
                }
            }
            "ex" => EventKind::Expire {
                pmo: field(&mut it)?,
            },
            "rd" | "wr" => {
                let pmo = field(&mut it)?;
                let client = field(&mut it)?;
                let offset = field(&mut it)?;
                let len = field(&mut it)?;
                let epoch = field(&mut it)?;
                if m == "rd" {
                    EventKind::Read {
                        pmo,
                        client,
                        offset,
                        len,
                        epoch,
                    }
                } else {
                    EventKind::Write {
                        pmo,
                        client,
                        offset,
                        len,
                        epoch,
                    }
                }
            }
            "la" | "lr" => {
                let obj = field(&mut it)?;
                let seq = field(&mut it)?;
                if m == "la" {
                    EventKind::LockAcquire { obj, seq }
                } else {
                    EventKind::LockRelease { obj, seq }
                }
            }
            "pb" => {
                let pmo = field(&mut it)?;
                let epoch = field(&mut it)?;
                EventKind::Publish { pmo, epoch }
            }
            "up" => EventKind::Unpark {
                token: field(&mut it)?,
            },
            "wk" => EventKind::Wakeup {
                token: field(&mut it)?,
            },
            "nr" | "nx" => {
                let conn = field(&mut it)?;
                let req = field(&mut it)?;
                if m == "nr" {
                    EventKind::NetRecv { conn, req }
                } else {
                    EventKind::NetExec { conn, req }
                }
            }
            _ => return None,
        };
        it.next().is_none().then_some(Event { ts_ns, kind })
    }
}

/// The next token as a number of the field's own width: a token out of
/// that range is refused, not narrowed.
fn field<T: std::str::FromStr>(it: &mut std::str::SplitWhitespace<'_>) -> Option<T> {
    it.next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<EventKind> {
        vec![
            EventKind::Attach {
                pmo: 7,
                client: 42,
                writable: true,
            },
            EventKind::Detach { pmo: 7, client: 42 },
            EventKind::Grant {
                pmo: 65535,
                client: u64::MAX,
                writable: false,
            },
            EventKind::Revoke { pmo: 1, client: 0 },
            EventKind::Expire { pmo: 300 },
            EventKind::Read {
                pmo: 9,
                client: 3,
                offset: 1 << 40,
                len: u32::MAX,
                epoch: 88,
            },
            EventKind::Write {
                pmo: 9,
                client: 3,
                offset: 0,
                len: 48,
                epoch: 0,
            },
            EventKind::LockAcquire {
                obj: 15,
                seq: 1 << 50,
            },
            EventKind::LockRelease { obj: 0, seq: 1 },
            EventKind::Publish {
                pmo: 12,
                epoch: 1 << 33,
            },
            EventKind::Unpark { token: 5 },
            EventKind::Wakeup { token: u64::MAX },
            EventKind::NetRecv {
                conn: 3,
                req: 1 << 45,
            },
            EventKind::NetExec {
                conn: u32::MAX,
                req: 0,
            },
        ]
    }

    #[test]
    fn wire_roundtrip_all_kinds() {
        for (i, kind) in all_kinds().into_iter().enumerate() {
            let ev = Event {
                ts_ns: i as u64 * 1000 + 1,
                kind,
            };
            let words = ev.encode_words();
            assert_eq!(Event::decode_words(&words), Some(ev), "kind {kind:?}");
        }
    }

    #[test]
    fn text_roundtrip_all_kinds() {
        for (i, kind) in all_kinds().into_iter().enumerate() {
            let ev = Event {
                ts_ns: i as u64,
                kind,
            };
            let line = ev.render_line();
            assert_eq!(Event::parse_line(&line), Some(ev), "line {line}");
        }
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        assert_eq!(Event::decode_words(&[0; EVENT_WORDS]), None);
        assert_eq!(Event::decode_words(&[1, 99, 0, 0, 0]), None);
        assert_eq!(Event::parse_line(""), None);
        assert_eq!(Event::parse_line("zz 1 2 3"), None);
        assert_eq!(Event::parse_line("rd 1 2"), None);
    }

    #[test]
    fn out_of_range_fields_and_trailing_tokens_are_refused() {
        // Each would narrow or be ignored if parsed loosely: a pool id past
        // u16 on an attach and on an expiry, a length past u32, and an
        // attach with a junk token after it.
        assert_eq!(Event::parse_line("at 5 70000 3 1"), None);
        assert_eq!(Event::parse_line("rd 9 1 2 3 4294967297 5"), None);
        assert_eq!(Event::parse_line("ex 1 65537"), None);
        assert_eq!(Event::parse_line("at 5 7 3 1 junk"), None);
        // `writable` is a flag: only 0 and 1.
        assert_eq!(Event::parse_line("gr 5 7 3 2"), None);
        assert!(Event::parse_line("gr 5 7 3 1").is_some());
    }

    #[test]
    fn retired_tags_and_mnemonics_are_refused() {
        // Tags 1..=14 are live; 0 is an empty slot, and 15 and 16 (the
        // replication ship/apply events) are retired.
        for tag in 0..=16u64 {
            let words = [1, tag | (3 << 8), 4, 5, 6];
            let decoded = Event::decode_words(&words);
            if (1..=14).contains(&tag) {
                let event = decoded.unwrap_or_else(|| panic!("live tag {tag} refused"));
                assert_eq!(event.encode_words()[1] & 0xff, tag);
            } else {
                assert_eq!(decoded, None, "tag {tag} decoded");
            }
        }
        assert_eq!(Event::parse_line("rs 1 2 3"), None);
        assert_eq!(Event::parse_line("ra 1 2 3"), None);
    }
}
