//! The warm standby: verbatim WAL mirroring plus continuous replay.
//!
//! A follower keeps two representations of the leader's state and the
//! failover guarantees come from which one promotion uses:
//!
//! * **The mirror** — on-disk snapshot files plus a WAL per shard whose
//!   bytes are appended *verbatim* as shipped. The mirror's durable prefix
//!   is byte-identical to the leader's by construction: there is no
//!   re-encoding step to disagree with it.
//! * **The warm registry** — an in-memory [`PmoRegistry`] per shard,
//!   advanced by replaying each record as it arrives (the same replay
//!   rules as [`terp_persist::recover`], including snapshot watermark
//!   skipping and `Alloc` divergence checking). This is what makes the
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

use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use terp_net::repl::ReplMsg;
use terp_net::{Backoff, ServiceError, VERSION};
use terp_persist::store::WAL_FILE;
use terp_persist::{read_log, WalRecord};
use terp_pmo::{ObjectId, PmoId, PmoRegistry};
use terp_service::{DurableConfig, PmoServer, ServiceConfig};
use terp_trace::{EventKind, TraceRecorder};

use crate::conn::{disconnected, Conn};

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
    /// Optional flight recorder for `ReplApply` events.
    pub tracer: Option<Arc<TraceRecorder>>,
}

impl ReplFollowerConfig {
    /// Defaults: no tracer.
    pub fn new(leader: SocketAddr, dir: impl Into<PathBuf>, follower: u64) -> Self {
        ReplFollowerConfig {
            leader,
            dir: dir.into(),
            follower,
            tracer: None,
        }
    }

    /// Attaches a flight recorder.
    pub fn with_tracer(mut self, tracer: Arc<TraceRecorder>) -> Self {
        self.tracer = Some(tracer);
        self
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
    /// Whether the shard's snapshot bootstrap has completed.
    pub bootstrapped: bool,
}

impl ReplLag {
    /// Records the leader has made durable that this follower has not yet
    /// applied.
    pub fn records(&self) -> u64 {
        self.leader_seq.saturating_sub(self.applied_seq)
    }
}

/// Per-shard standby state: warm registry + mirror bookkeeping.
#[derive(Debug)]
struct ShardMirror {
    registry: PmoRegistry,
    /// Per-pool snapshot watermark: records at or below it are already
    /// reflected by the installed snapshot and must not re-apply.
    watermark: Vec<Option<u64>>,
    /// Shipped bytes not yet forming a complete frame (batches may split
    /// mid-record).
    pending: Vec<u8>,
    applied_seq: u64,
    leader_seq: u64,
    open_windows: BTreeSet<PmoId>,
    bootstrapped: bool,
}

impl ShardMirror {
    fn new() -> Self {
        ShardMirror {
            registry: PmoRegistry::new(),
            watermark: Vec::new(),
            pending: Vec::new(),
            applied_seq: 0,
            leader_seq: 0,
            open_windows: BTreeSet::new(),
            bootstrapped: false,
        }
    }

    /// Resets for a re-bootstrap (reconnect); the leader's heartbeat marks
    /// survive so lag stays truthful while the snapshot streams.
    fn reset(&mut self) {
        let leader_seq = self.leader_seq;
        *self = ShardMirror::new();
        self.leader_seq = leader_seq;
    }
}

#[derive(Debug)]
struct FollowerState {
    mirrors: Mutex<Vec<ShardMirror>>,
    connected: AtomicBool,
    shutdown: AtomicBool,
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
    /// (retrying with exponential backoff, forever — a standby never gives
    /// up on its leader), bootstraps, and mirrors continuously. Connection
    /// death triggers reconnect and a fresh bootstrap.
    pub fn start(config: ReplFollowerConfig) -> Self {
        let state = Arc::new(FollowerState {
            mirrors: Mutex::new(Vec::new()),
            connected: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
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
                applied_seq: m.applied_seq,
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
                .all(|m| m.bootstrapped && m.applied_seq >= m.leader_seq)
    }

    /// Exposure windows the leader currently holds open, as witnessed by
    /// replay. These are precisely the windows promotion will reseal.
    pub fn open_windows(&self) -> usize {
        self.state
            .mirrors
            .lock()
            .expect("mirrors lock")
            .iter()
            .map(|m| m.open_windows.len())
            .sum()
    }

    /// Read access to one shard's warm registry.
    pub fn inspect<R>(&self, shard: u32, f: impl FnOnce(&PmoRegistry) -> R) -> Option<R> {
        let mirrors = self.state.mirrors.lock().expect("mirrors lock");
        mirrors.get(shard as usize).map(|m| f(&m.registry))
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
    /// registry) is opened through the ordinary durable recovery path:
    /// snapshots install, the log replays, in-flight transactions roll
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
        let durable = match base.durable.clone() {
            Some(d) => DurableConfig {
                dir: self.config.dir.clone(),
                ..d
            },
            None => DurableConfig::new(self.config.dir.clone()),
        };
        let server = PmoServer::try_start(base.with_durable_config(durable).with_standby(true))?;
        server.promote();
        Ok(server)
    }

    fn halt(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReplFollower {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Outer loop: connect (with backoff), stream until the connection dies,
/// reconnect. Every reconnect re-bootstraps — the leader may have
/// checkpointed away log records we never saw.
fn follower_loop(config: &ReplFollowerConfig, state: &FollowerState) {
    let mut backoff = Backoff::default_reconnect().with_budget(Duration::MAX);
    while !state.shutdown.load(Ordering::Acquire) {
        let stream = match TcpStream::connect_timeout(&config.leader, Duration::from_secs(1)) {
            Ok(s) => s,
            Err(_) => {
                match backoff.next_delay() {
                    Some(delay) => std::thread::sleep(delay),
                    None => return, // unreachable with an unbounded budget
                }
                continue;
            }
        };
        backoff = Backoff::default_reconnect().with_budget(Duration::MAX);
        state.connected.store(true, Ordering::Release);
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
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    conn.send(&ReplMsg::hello(config.follower))?;
    let shards = match conn.recv_deadline(deadline)? {
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

    // Fresh bootstrap: reset warm state and clear the mirror stores (stale
    // snapshot files from a previous leader epoch must not survive into
    // the new image).
    {
        let mut mirrors = state.mirrors.lock().expect("mirrors lock");
        if mirrors.len() != shards {
            *mirrors = (0..shards).map(|_| ShardMirror::new()).collect();
        } else {
            for m in mirrors.iter_mut() {
                m.reset();
            }
        }
    }
    for shard in 0..shards {
        let sdir = config.dir.join(format!("shard-{shard}"));
        let _ = fs::remove_dir_all(&sdir);
        fs::create_dir_all(&sdir).map_err(disconnected)?;
    }
    conn.send(&ReplMsg::Subscribe)?;

    // Snapshot files under assembly: (shard, name) → (next index, total,
    // bytes so far).
    let mut partial: HashMap<(u32, String), (u32, u32, Vec<u8>)> = HashMap::new();

    loop {
        if state.shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        let msg = match conn.recv()? {
            Some(m) => m,
            None => continue, // read timeout; re-check shutdown
        };
        match msg {
            ReplMsg::SnapshotChunk {
                shard,
                file,
                index,
                total,
                bytes,
            } => {
                check_shard(shard, shards)?;
                if file.contains('/') || file.contains('\\') || file.contains("..") {
                    return Err(ServiceError::Protocol(format!(
                        "snapshot file name escapes the store: {file:?}"
                    )));
                }
                let entry = partial
                    .entry((shard, file.clone()))
                    .or_insert((0, total, Vec::new()));
                if index != entry.0 || total != entry.1 {
                    return Err(ServiceError::Protocol(format!(
                        "snapshot chunk {index}/{total} out of order (expected {}/{})",
                        entry.0, entry.1
                    )));
                }
                entry.0 += 1;
                entry.2.extend_from_slice(&bytes);
                if entry.0 == entry.1 {
                    let (_, _, image) = partial.remove(&(shard, file.clone())).expect("entry");
                    install_snapshot(config, state, shard, &file, &image)?;
                }
            }
            ReplMsg::SnapshotDone { shard } => {
                check_shard(shard, shards)?;
                // Bootstrap of this shard is complete; the log now ships
                // from byte 0 of the leader's current WAL into an empty
                // mirror WAL.
                fs::write(wal_path(config, shard), []).map_err(disconnected)?;
                let mut mirrors = state.mirrors.lock().expect("mirrors lock");
                mirrors[shard as usize].bootstrapped = true;
            }
            ReplMsg::LogBatch { shard, bytes } => {
                check_shard(shard, shards)?;
                apply_batch(config, state, shard, &bytes)?;
                let applied =
                    state.mirrors.lock().expect("mirrors lock")[shard as usize].applied_seq;
                conn.send(&ReplMsg::Ack {
                    shard,
                    applied_seq: applied,
                })?;
            }
            ReplMsg::Heartbeat { shard, durable_seq } => {
                check_shard(shard, shards)?;
                let applied = {
                    let mut mirrors = state.mirrors.lock().expect("mirrors lock");
                    let m = &mut mirrors[shard as usize];
                    m.leader_seq = m.leader_seq.max(durable_seq);
                    m.applied_seq
                };
                conn.send(&ReplMsg::Ack {
                    shard,
                    applied_seq: applied,
                })?;
            }
            other => {
                return Err(ServiceError::Protocol(format!(
                    "unexpected message from leader: {other:?}"
                )))
            }
        }
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

fn wal_path(config: &ReplFollowerConfig, shard: u32) -> PathBuf {
    config.dir.join(format!("shard-{shard}")).join(WAL_FILE)
}

/// Verifies a fully assembled snapshot (every segment checksum), writes it
/// into the mirror store, and installs it into the warm registry.
fn install_snapshot(
    config: &ReplFollowerConfig,
    state: &FollowerState,
    shard: u32,
    file: &str,
    image: &[u8],
) -> Result<(), ServiceError> {
    let snap = terp_persist::PoolSnapshot::decode(image)?;
    fs::write(config.dir.join(format!("shard-{shard}")).join(file), image).map_err(disconnected)?;
    let mut mirrors = state.mirrors.lock().expect("mirrors lock");
    let m = &mut mirrors[shard as usize];
    snap.install_into(&mut m.registry)?;
    if m.watermark.len() <= snap.id.index() {
        m.watermark.resize(snap.id.index() + 1, None);
    }
    m.watermark[snap.id.index()] = Some(snap.wal_seq);
    Ok(())
}

/// Appends shipped bytes verbatim to the mirror WAL, then replays every
/// complete frame into the warm registry. Bytes past the last complete
/// frame stay pending until the next batch completes them.
fn apply_batch(
    config: &ReplFollowerConfig,
    state: &FollowerState,
    shard: u32,
    bytes: &[u8],
) -> Result<(), ServiceError> {
    let mut wal = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(wal_path(config, shard))
        .map_err(disconnected)?;
    wal.write_all(bytes).map_err(disconnected)?;
    drop(wal);

    let mut mirrors = state.mirrors.lock().expect("mirrors lock");
    let m = &mut mirrors[shard as usize];
    m.pending.extend_from_slice(bytes);
    let decoded = read_log(&m.pending);
    for (seq, record) in &decoded.records {
        apply_record(m, *seq, record)?;
        if let Some(tracer) = &config.tracer {
            tracer.record(EventKind::ReplApply { shard, seq: *seq });
        }
        m.applied_seq = m.applied_seq.max(*seq);
    }
    m.pending.drain(..decoded.consumed);
    Ok(())
}

/// Replays one record into the warm registry — the same rules as
/// [`terp_persist::recover`]: snapshot watermarks suppress double-apply of
/// data records, `Alloc` replay verifies the allocator reproduces the
/// logged offset, protection records maintain the open-window set.
fn apply_record(m: &mut ShardMirror, seq: u64, record: &WalRecord) -> Result<(), ServiceError> {
    let below_watermark = record
        .pmo()
        .and_then(|id| m.watermark.get(id.index()).copied().flatten())
        .is_some_and(|mark| seq <= mark);
    match record {
        WalRecord::PoolCreate {
            id,
            name,
            size,
            mode,
        } => {
            if !below_watermark {
                m.registry.restore_pool(*id, name, *size, *mode)?;
            }
        }
        WalRecord::Alloc { pmo, size, offset } => {
            if !below_watermark {
                let got = m.registry.pool_mut(*pmo)?.pmalloc(*size)?;
                if got.offset() != *offset {
                    return Err(ServiceError::Persist(format!(
                        "replicated alloc diverged on {pmo}: got {:#x}, log says {offset:#x}",
                        got.offset()
                    )));
                }
            }
        }
        WalRecord::Free { pmo, offset } => {
            if !below_watermark {
                m.registry
                    .pool_mut(*pmo)?
                    .pfree(ObjectId::new(*pmo, *offset))?;
            }
        }
        WalRecord::DataWrite { pmo, offset, data } => {
            if !below_watermark {
                m.registry.pool_mut(*pmo)?.write_bytes(*offset, data)?;
            }
        }
        WalRecord::WindowOpen { pmo } => {
            m.open_windows.insert(*pmo);
        }
        WalRecord::WindowClose { pmo } => {
            m.open_windows.remove(pmo);
        }
        // Incremental-checkpoint deltas only appear in the leader's
        // `ckpt.log`, never in the shipped WAL stream — but apply them
        // anyway (same replay rules as recovery) so a mirror stays correct
        // if a future shipping path forwards checkpoint segments.
        WalRecord::PageDelta { pmo, page, data } => {
            if !below_watermark {
                m.registry
                    .pool_mut(*pmo)?
                    .write_bytes(*page * terp_pmo::PAGE_SIZE, data)?;
            }
        }
        WalRecord::AllocTable { pmo, live } => {
            if !below_watermark {
                m.registry.pool_mut(*pmo)?.restore_allocator(live)?;
                let idx = pmo.index();
                if m.watermark.len() <= idx {
                    m.watermark.resize(idx + 1, None);
                }
                m.watermark[idx] = Some(m.watermark[idx].map_or(seq, |old| old.max(seq)));
            }
        }
        // Sessions and randomizations carry no standby-visible state beyond
        // what the open-window set already tracks; checkpoints are
        // watermarks, not mutations. Root-directory entries live in the
        // shipped WAL itself, and promotion re-runs full durable recovery,
        // which rebuilds the root map from those records — the warm mirror
        // has no reader for them in the meantime.
        WalRecord::SessionOpen { .. }
        | WalRecord::SessionClose { .. }
        | WalRecord::Randomize { .. }
        | WalRecord::Checkpoint
        | WalRecord::RootSet { .. } => {}
    }
    Ok(())
}
