//! The warm standby: verbatim mirroring of the store files plus continuous
//! replay.
//!
//! A follower keeps two representations of the leader's state and the
//! failover guarantees come from which one promotion uses:
//!
//! * **The mirror** — per shard, the two files of a durable store
//!   (`wal.log`, `ckpt.log`) whose bytes are written *verbatim* as shipped:
//!   byte-identical to the leader's durable prefix by construction, with
//!   no re-encoding step to disagree with it. After every message
//!   processed it is a state the leader's own checkpoint protocol passes
//!   through (`apply_batch` says how), so it can be promoted at any of
//!   them.
//! * **The warm registry** — a [`terp_persist::Replay`] per shard, the
//!   same replayer a restart runs, fed each record as it arrives and each
//!   checkpoint as the WAL starts over behind it. This is what makes the
//!   standby *warm*: the applied watermark and lag are always current, and
//!   reads can be served without touching disk.
//!
//! [`ReplFollower::promote`] deliberately ignores the warm registry and
//! reopens the *mirror* through the ordinary durable recovery path — so a
//! promoted follower inherits exactly the guarantees of a local restart:
//! uncommitted transactions roll back, and every exposure window open at
//! the leader's death is force-closed and resealed before the first client
//! attaches. The server comes up in standby (read-only) mode and is
//! flipped writable only after recovery has finished.
//!
//! Stopping waits on no timeout: the stream thread registers a clone of
//! each socket it connects before it reads the shutdown flag, and `halt`
//! sets the flag, then shuts down whatever is registered and unparks the
//! thread from its reconnect wait.

use std::fs;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use terp_net::repl::{LogFile, ReplMsg};
use terp_net::{ServiceError, VERSION};
use terp_persist::{load_checkpoint, read_log, Replay, CKPT_FILE, WAL_FILE};
use terp_pmo::PmoRegistry;
use terp_service::{PmoServer, ServiceConfig};

use crate::conn::{disconnected, Conn};

/// The first reconnect wait; each failed attempt doubles it.
const RETRY_FIRST: Duration = Duration::from_millis(10);
/// The longest reconnect wait.
const RETRY_MAX: Duration = Duration::from_secs(1);

/// Configuration for a [`ReplFollower`].
#[derive(Debug, Clone)]
pub struct ReplFollowerConfig {
    /// The leader's replication address ([`crate::ReplLeader::local_addr`]).
    pub leader: SocketAddr,
    /// Mirror root: the follower writes `shard-<i>/` stores here, laid out
    /// exactly like the leader's durable directory.
    pub dir: PathBuf,
    /// Follower identity tag (diagnostics only).
    pub follower: u64,
}

impl ReplFollowerConfig {
    /// A follower of `leader` mirroring into `dir`, tagged `follower`.
    pub fn new(leader: SocketAddr, dir: impl Into<PathBuf>, follower: u64) -> Self {
        ReplFollowerConfig {
            leader,
            dir: dir.into(),
            follower,
        }
    }
}

/// One shard's replication progress as the follower sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplLag {
    /// Shard index.
    pub shard: u32,
    /// Leader's highest durable sequence number (from heartbeats).
    pub leader_seq: u64,
    /// Highest sequence number replayed into the warm registry.
    pub applied_seq: u64,
    /// Whether the shard's first pass has completed on this connection: the
    /// leader's committed checkpoint (if it has one) and the log it read
    /// behind it have arrived, and with them its first progress mark.
    pub bootstrapped: bool,
}

impl ReplLag {
    /// Records the leader has made durable that this follower has not yet
    /// applied.
    pub fn records(&self) -> u64 {
        self.leader_seq.saturating_sub(self.applied_seq)
    }
}

/// Per-shard standby state: the warm replayer and the stream's position.
#[derive(Debug, Default)]
struct ShardMirror {
    replay: Replay,
    /// Shipped WAL bytes not yet forming a complete frame (batches may
    /// split mid-record).
    pending: Vec<u8>,
    leader_seq: u64,
    bootstrapped: bool,
}

impl ShardMirror {
    fn applied_seq(&self) -> u64 {
        self.replay.applied_seq().unwrap_or(0)
    }
}

#[derive(Debug)]
struct FollowerState {
    mirrors: Mutex<Vec<ShardMirror>>,
    connected: AtomicBool,
    connections: AtomicU64,
    shutdown: AtomicBool,
    /// A clone of the current leader socket, for `halt` to shut down.
    live: Mutex<Option<TcpStream>>,
}

/// A running warm standby.
#[derive(Debug)]
pub struct ReplFollower {
    config: ReplFollowerConfig,
    state: Arc<FollowerState>,
    thread: Option<JoinHandle<()>>,
}

impl ReplFollower {
    /// Starts the standby: a background thread connects to the leader
    /// (retrying with a doubling wait, forever — a standby never gives up
    /// on its leader), bootstraps, and mirrors continuously. Connection
    /// death triggers reconnect and a fresh bootstrap.
    pub fn start(config: ReplFollowerConfig) -> Self {
        let state = Arc::new(FollowerState {
            mirrors: Mutex::new(Vec::new()),
            connected: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            live: Mutex::new(None),
        });
        let thread_state = Arc::clone(&state);
        let thread_config = config.clone();
        let thread = std::thread::Builder::new()
            .name("repl-follow".into())
            .spawn(move || follower_loop(&thread_config, &thread_state))
            .expect("spawn repl follower");
        ReplFollower {
            config,
            state,
            thread: Some(thread),
        }
    }

    /// Whether a leader connection is currently up.
    pub fn is_connected(&self) -> bool {
        self.state.connected.load(Ordering::Acquire)
    }

    /// Leader connections established so far. Every one after the first was
    /// a reconnect, and a mirror started over from byte 0.
    pub fn connections(&self) -> u64 {
        self.state.connections.load(Ordering::Acquire)
    }

    /// Per-shard replication lag. Empty until the first Welcome arrives.
    pub fn lag(&self) -> Vec<ReplLag> {
        self.state
            .mirrors
            .lock()
            .expect("mirrors lock")
            .iter()
            .enumerate()
            .map(|(i, m)| ReplLag {
                shard: i as u32,
                leader_seq: m.leader_seq,
                applied_seq: m.applied_seq(),
                bootstrapped: m.bootstrapped,
            })
            .collect()
    }

    /// Whether every shard has bootstrapped and applied everything the
    /// leader has advertised as durable.
    pub fn is_caught_up(&self) -> bool {
        let mirrors = self.state.mirrors.lock().expect("mirrors lock");
        !mirrors.is_empty()
            && mirrors
                .iter()
                .all(|m| m.bootstrapped && m.applied_seq() >= m.leader_seq)
    }

    /// Exposure windows the leader currently holds open, as witnessed by
    /// replay. These are precisely the windows promotion will reseal.
    pub fn open_windows(&self) -> usize {
        self.state
            .mirrors
            .lock()
            .expect("mirrors lock")
            .iter()
            .map(|m| m.replay.open_windows().len())
            .sum()
    }

    /// Read access to one shard's warm registry.
    pub fn inspect<R>(&self, shard: u32, f: impl FnOnce(&PmoRegistry) -> R) -> Option<R> {
        let mirrors = self.state.mirrors.lock().expect("mirrors lock");
        mirrors.get(shard as usize).map(|m| f(m.replay.registry()))
    }

    /// The mirror root directory.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Stops mirroring and discards the standby without promoting.
    pub fn shutdown(mut self) {
        self.halt();
    }

    /// Promotes the standby to a serving leader.
    ///
    /// The replication stream is stopped, then the *mirror* (not the warm
    /// registry) is opened through the ordinary durable recovery path: the
    /// checkpoint installs, the log replays, in-flight transactions roll
    /// back, and — the TERP invariant — every exposure window the dead
    /// leader had open is force-closed and its pool resealed
    /// ([`terp_pmo::Pmo::reseal`]) so the next attach re-randomizes. The
    /// server starts in standby (read-only) mode and is flipped writable
    /// only after recovery completes, so no client mutation can slip in
    /// mid-promotion.
    ///
    /// `base` supplies the serving configuration (scheme, shards, sweeper,
    /// visibility rule…); its durable directory is overridden with the mirror.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Persist`] if mirror recovery fails.
    pub fn promote(mut self, base: ServiceConfig) -> Result<PmoServer, ServiceError> {
        self.halt();
        let mirror = base.with_durable(&self.config.dir).with_standby(true);
        let server = PmoServer::try_start(mirror)?;
        server.promote();
        Ok(server)
    }

    fn halt(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        if let Some(socket) = &*self.state.live.lock().expect("live lock") {
            let _ = socket.shutdown(Shutdown::Both);
        }
        if let Some(h) = self.thread.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

impl Drop for ReplFollower {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Outer loop: connect (waiting longer after each failure), stream until
/// the connection dies, reconnect. Every reconnect starts the mirror over
/// from byte 0.
fn follower_loop(config: &ReplFollowerConfig, state: &FollowerState) {
    let mut delay = RETRY_FIRST;
    while !state.shutdown.load(Ordering::Acquire) {
        let Ok((socket, stream)) =
            TcpStream::connect_timeout(&config.leader, Duration::from_secs(1))
                .and_then(|s| Ok((s.try_clone()?, s)))
        else {
            std::thread::park_timeout(delay);
            delay = (delay * 2).min(RETRY_MAX);
            continue;
        };
        // Registered before the flag is read: a `halt` that comes later
        // shuts this socket down, and one that came earlier is seen here.
        *state.live.lock().expect("live lock") = Some(socket);
        if state.shutdown.load(Ordering::Acquire) {
            return;
        }
        delay = RETRY_FIRST;
        state.connected.store(true, Ordering::Release);
        state.connections.fetch_add(1, Ordering::AcqRel);
        let _ = run_stream(stream, config, state);
        state.connected.store(false, Ordering::Release);
    }
}

/// One connection's lifetime: handshake, subscribe, apply until it dies.
fn run_stream(
    stream: TcpStream,
    config: &ReplFollowerConfig,
    state: &FollowerState,
) -> Result<(), ServiceError> {
    let mut conn = Conn::new(stream)?;
    conn.send(&ReplMsg::hello(config.follower))?;
    let shards = match conn.recv()? {
        ReplMsg::Welcome { version, shards } if version == VERSION => shards as usize,
        ReplMsg::Welcome { version, .. } => {
            return Err(ServiceError::Protocol(format!(
                "leader speaks version {version}, expected {VERSION}"
            )))
        }
        other => {
            return Err(ServiceError::Protocol(format!(
                "expected Welcome, got {other:?}"
            )))
        }
    };
    conn.handshake_done()?;

    // Start over: reset warm state and clear the mirror stores (files of a
    // previous leader epoch must not survive into the new image). The
    // leader's heartbeat marks survive so lag stays truthful meanwhile.
    {
        let mut mirrors = state.mirrors.lock().expect("mirrors lock");
        mirrors.resize_with(shards, ShardMirror::default);
        for m in mirrors.iter_mut() {
            *m = ShardMirror {
                leader_seq: m.leader_seq,
                ..ShardMirror::default()
            };
        }
    }
    for shard in 0..shards {
        let sdir = shard_dir(config, shard as u32);
        let _ = fs::remove_dir_all(&sdir);
        fs::create_dir_all(&sdir).map_err(disconnected)?;
    }
    conn.send(&ReplMsg::Subscribe)?;

    loop {
        let (shard, applied) = match conn.recv()? {
            ReplMsg::LogBatch {
                shard,
                file,
                offset,
                bytes,
            } => {
                check_shard(shard, shards)?;
                let mut mirrors = state.mirrors.lock().expect("mirrors lock");
                let m = &mut mirrors[shard as usize];
                apply_batch(config, m, shard, file, offset, &bytes)?;
                (shard, m.applied_seq())
            }
            ReplMsg::Heartbeat { shard, durable_seq } => {
                check_shard(shard, shards)?;
                let mut mirrors = state.mirrors.lock().expect("mirrors lock");
                let m = &mut mirrors[shard as usize];
                m.leader_seq = m.leader_seq.max(durable_seq);
                // The leader marks a shard only behind a complete pass.
                m.bootstrapped = true;
                (shard, m.applied_seq())
            }
            other => {
                return Err(ServiceError::Protocol(format!(
                    "unexpected message from leader: {other:?}"
                )))
            }
        };
        conn.send(&ReplMsg::Ack {
            shard,
            applied_seq: applied,
        })?;
    }
}

fn check_shard(shard: u32, shards: usize) -> Result<(), ServiceError> {
    if (shard as usize) < shards {
        Ok(())
    } else {
        Err(ServiceError::Protocol(format!(
            "shard {shard} out of range ({shards} shards)"
        )))
    }
}

fn shard_dir(config: &ReplFollowerConfig, shard: u32) -> PathBuf {
    config.dir.join(format!("shard-{shard}"))
}

/// Writes one shipped batch into the shard's mirror store and advances the
/// warm replayer.
///
/// The wire names a file by [`LogFile`] only, so every path written is one
/// of three fixed names inside the shard's directory. `offset` must continue
/// the file (a gap is a protocol error) or be 0, which starts it over:
///
/// * `ckpt.log` bytes append in place — a batch not yet closed is debris
///   an open cuts off, a closed one a checkpoint newer than the mirror's WAL
///   head, as on the leader between its append and its truncation — unless
///   the image starts over, which gathers in `ckpt.log.tmp`;
/// * the WAL starting over publishes what was gathered (the rename, the
///   leader's own), installs the checkpoint into the warm replayer, and only
///   then truncates the mirror's WAL.
///
/// WAL bytes are then replayed frame by frame; bytes past the last complete
/// frame stay pending until the next batch completes them.
fn apply_batch(
    config: &ReplFollowerConfig,
    m: &mut ShardMirror,
    shard: u32,
    file: LogFile,
    offset: u64,
    bytes: &[u8],
) -> Result<(), ServiceError> {
    let dir = shard_dir(config, shard);
    let staged = dir.join(format!("{CKPT_FILE}.tmp"));
    let path = match file {
        LogFile::Wal => {
            if offset == 0 {
                if staged.exists() {
                    fs::rename(&staged, dir.join(CKPT_FILE)).map_err(disconnected)?;
                }
                m.replay.install_checkpoint(&load_checkpoint(&dir)?)?;
                m.pending.clear();
            }
            dir.join(WAL_FILE)
        }
        LogFile::Ckpt if offset == 0 || staged.exists() => staged,
        LogFile::Ckpt => dir.join(CKPT_FILE),
    };
    let mut out = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(disconnected)?;
    if offset == 0 {
        out.set_len(0).map_err(disconnected)?;
    }
    let len = out.metadata().map_err(disconnected)?.len();
    if len != offset {
        return Err(ServiceError::Protocol(format!(
            "{file:?} batch at offset {offset} does not continue the {len} bytes mirrored"
        )));
    }
    out.write_all(bytes).map_err(disconnected)?;

    if file == LogFile::Wal {
        m.pending.extend_from_slice(bytes);
        let decoded = read_log(&m.pending);
        for (seq, record) in &decoded.records {
            m.replay.apply(*seq, record)?;
        }
        m.pending.drain(..decoded.consumed);
    }
    Ok(())
}
