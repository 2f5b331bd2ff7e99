//! The replication message layer (terp-repl, DESIGN.md §14).
//!
//! Log shipping is a *stream*, not a request/response exchange, so it does
//! not ride the [`crate::proto`] pipelining protocol (whose server releases
//! one gate slot per response — a subscription answering forever would
//! starve the connection). Instead the replication leader runs its own
//! listener speaking this message set over the same CRC frame codec
//! ([`crate::frame`]): one frame, one [`ReplMsg`].
//!
//! Stream shape, follower's view:
//!
//! ```text
//! --> Hello{magic, version, follower}
//! <-- Welcome{version, shards}
//! --> Subscribe
//! <-- LogBatch | Heartbeat ...      (the store's two files, tailed)
//! --> Ack{shard, applied_seq}       (follower progress, drives lag metrics)
//! ```
//!
//! There is no separate bootstrap: the leader tails each shard store's two
//! files ([`LogFile`]) from byte 0, and a cold start, steady shipping and a
//! checkpoint's truncation are the same messages. [`ReplMsg::LogBatch`]
//! bodies are raw bytes copied verbatim from the leader's files and written
//! verbatim at `offset` of the follower's mirror — the mirror is
//! byte-identical to the leader's durable prefix *by construction*. A batch
//! at offset 0 starts its file over; the WAL starting over is the moment a
//! shipped checkpoint takes effect (DESIGN.md §14). Batches may split at
//! **arbitrary byte positions** (a record larger than one frame still
//! ships); the follower re-frames with the WAL's own torn-tail-tolerant
//! decoder. Batches chunk under [`LOG_CHUNK`] so every message fits
//! [`crate::frame::MAX_FRAME`].

use terp_persist::Reader;
use terp_service::ServiceError;

use crate::proto::{bad, Malformed, MAGIC, VERSION};

/// Chunk size for log batches (512 KiB): comfortably under
/// [`crate::frame::MAX_FRAME`] with header room to spare.
pub const LOG_CHUNK: usize = 512 << 10;

/// Which of a shard store's files a [`ReplMsg::LogBatch`] carries. The wire
/// names files by this code only — never by a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFile {
    /// The write-ahead log (`wal.log`).
    Wal,
    /// The checkpoint log (`ckpt.log`).
    Ckpt,
}

impl LogFile {
    fn code(self) -> u8 {
        match self {
            LogFile::Wal => 0,
            LogFile::Ckpt => 1,
        }
    }

    fn from_code(code: u8) -> Result<Self, Malformed> {
        match code {
            0 => Ok(LogFile::Wal),
            1 => Ok(LogFile::Ckpt),
            other => Err(bad(format!("unknown log file code {other}"))),
        }
    }
}

// Follower → leader kinds.
const K_HELLO: u8 = 0x40;
const K_SUBSCRIBE: u8 = 0x41;
const K_ACK: u8 = 0x42;
// Leader → follower kinds.
const K_WELCOME: u8 = 0xC0;
const K_LOG_BATCH: u8 = 0xC3;
const K_HEARTBEAT: u8 = 0xC4;

/// One replication stream message (either direction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplMsg {
    /// Follower handshake: protocol magic/version plus the follower's
    /// self-assigned identity (diagnostics only).
    Hello {
        /// Must equal [`MAGIC`].
        magic: u32,
        /// Must equal [`VERSION`].
        version: u16,
        /// Follower identity tag.
        follower: u64,
    },
    /// Leader accepts the handshake.
    Welcome {
        /// Leader's protocol version.
        version: u16,
        /// Leader shard count — the follower mirrors one WAL per shard.
        shards: u32,
    },
    /// Follower requests the stream of every shard's store files.
    Subscribe,
    /// Raw bytes of one of the shard store's files, to be written verbatim
    /// at `offset` of the mirror's copy: `offset` equals the length shipped
    /// so far, or is 0 when the file starts over (the WAL after a
    /// checkpoint's truncation, `ckpt.log` after a compaction). May split
    /// mid-record; the mirror's decoder tolerates the seam. Possibly empty:
    /// a WAL batch at offset 0 with no bytes says "starts over, nothing
    /// logged yet".
    LogBatch {
        /// Shard whose store these bytes belong to.
        shard: u32,
        /// Which of its files.
        file: LogFile,
        /// Byte offset of `bytes` in the leader's file.
        offset: u64,
        /// Verbatim file bytes (≤ [`LOG_CHUNK`]).
        bytes: Vec<u8>,
    },
    /// Leader progress mark: the highest durable seq of `shard` — its last
    /// WAL record, or the checkpoint that truncated it.
    /// Shipped even when no new bytes exist so lag is measurable at idle.
    Heartbeat {
        /// Shard the mark describes.
        shard: u32,
        /// Highest durable sequence number on the leader.
        durable_seq: u64,
    },
    /// Follower progress mark: every record of `shard` up to `applied_seq`
    /// has been applied to the warm standby.
    Ack {
        /// Shard the mark describes.
        shard: u32,
        /// Highest applied sequence number on the follower.
        applied_seq: u64,
    },
}

impl ReplMsg {
    /// Serializes the message as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    /// [`ReplMsg::encode`] appended to `out`: with
    /// [`crate::frame::frame_into`], a message framed in place.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            ReplMsg::Hello {
                magic,
                version,
                follower,
            } => {
                out.push(K_HELLO);
                out.extend_from_slice(&magic.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&follower.to_le_bytes());
            }
            ReplMsg::Welcome { version, shards } => {
                out.push(K_WELCOME);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&shards.to_le_bytes());
            }
            ReplMsg::Subscribe => out.push(K_SUBSCRIBE),
            ReplMsg::LogBatch {
                shard,
                file,
                offset,
                bytes,
            } => {
                out.push(K_LOG_BATCH);
                out.extend_from_slice(&shard.to_le_bytes());
                out.push(file.code());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(bytes);
            }
            ReplMsg::Heartbeat { shard, durable_seq } => {
                out.push(K_HEARTBEAT);
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&durable_seq.to_le_bytes());
            }
            ReplMsg::Ack { shard, applied_seq } => {
                out.push(K_ACK);
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&applied_seq.to_le_bytes());
            }
        }
    }

    /// Deserializes one frame payload.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on truncation, unknown kinds, or trailing
    /// bytes — always connection-fatal, as for the proto layer.
    pub fn decode(payload: &[u8]) -> Result<ReplMsg, ServiceError> {
        Self::decode_body(&mut Reader::new(payload)).map_err(|e| e.protocol("replication message"))
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<ReplMsg, Malformed> {
        let msg = match r.u8()? {
            K_HELLO => ReplMsg::Hello {
                magic: r.u32()?,
                version: r.u16()?,
                follower: r.u64()?,
            },
            K_WELCOME => ReplMsg::Welcome {
                version: r.u16()?,
                shards: r.u32()?,
            },
            K_SUBSCRIBE => ReplMsg::Subscribe,
            K_LOG_BATCH => ReplMsg::LogBatch {
                shard: r.u32()?,
                file: LogFile::from_code(r.u8()?)?,
                offset: r.u64()?,
                bytes: r.rest().to_vec(),
            },
            K_HEARTBEAT => ReplMsg::Heartbeat {
                shard: r.u32()?,
                durable_seq: r.u64()?,
            },
            K_ACK => ReplMsg::Ack {
                shard: r.u32()?,
                applied_seq: r.u64()?,
            },
            other => return Err(bad(format!("unknown replication kind {other:#04x}"))),
        };
        r.finish()?;
        Ok(msg)
    }

    /// The well-formed handshake a follower opens with.
    pub fn hello(follower: u64) -> ReplMsg {
        ReplMsg::Hello {
            magic: MAGIC,
            version: VERSION,
            follower,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_msgs() -> Vec<ReplMsg> {
        vec![
            ReplMsg::hello(42),
            ReplMsg::Welcome {
                version: VERSION,
                shards: 16,
            },
            ReplMsg::Subscribe,
            ReplMsg::LogBatch {
                shard: 3,
                file: LogFile::Ckpt,
                offset: 1 << 40,
                bytes: vec![0xAB; 100],
            },
            ReplMsg::LogBatch {
                shard: u32::MAX,
                file: LogFile::Wal,
                offset: 0,
                bytes: Vec::new(),
            },
            ReplMsg::Heartbeat {
                shard: 7,
                durable_seq: u64::MAX,
            },
            ReplMsg::Ack {
                shard: 0,
                applied_seq: 1 << 50,
            },
        ]
    }

    #[test]
    fn roundtrip_all_kinds() {
        for msg in all_msgs() {
            let wire = msg.encode();
            assert_eq!(ReplMsg::decode(&wire).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn truncation_at_every_cut_is_a_protocol_error() {
        for msg in all_msgs() {
            let wire = msg.encode();
            for cut in 0..wire.len() {
                let r = ReplMsg::decode(&wire[..cut]);
                // Shorter prefixes of the byte-greedy message (a LogBatch
                // tail) may still parse — but only into the same kind with
                // a shorter body; anything else must be a clean Protocol
                // error.
                if let Err(e) = r {
                    assert!(
                        matches!(e, ServiceError::Protocol(_)),
                        "{msg:?} cut {cut}: {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_are_refused() {
        assert!(matches!(
            ReplMsg::decode(&[0x7F]),
            Err(ServiceError::Protocol(_))
        ));
        let mut wire = ReplMsg::Subscribe.encode();
        wire.push(0);
        assert!(matches!(
            ReplMsg::decode(&wire),
            Err(ServiceError::Protocol(_))
        ));
        assert!(matches!(
            ReplMsg::decode(&[]),
            Err(ServiceError::Protocol(_))
        ));
        // A file is one of two codes, never a name or a path: code 2 (the
        // retired protection snapshot) is refused like any other.
        for code in [2, 3, 0xFF] {
            let mut wire = ReplMsg::LogBatch {
                shard: 0,
                file: LogFile::Ckpt,
                offset: 0,
                bytes: vec![1],
            }
            .encode();
            wire[5] = code;
            assert!(matches!(
                ReplMsg::decode(&wire),
                Err(ServiceError::Protocol(_))
            ));
        }
    }

    #[test]
    fn bad_handshake_fields_still_decode_for_the_leader_to_refuse() {
        // Version negotiation happens above the codec: a wrong magic still
        // *decodes*; the leader inspects and refuses it.
        let msg = ReplMsg::Hello {
            magic: 0xDEAD_BEEF,
            version: 99,
            follower: 1,
        };
        assert_eq!(ReplMsg::decode(&msg.encode()).unwrap(), msg);
    }
}
