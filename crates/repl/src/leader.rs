//! The replication leader: snapshot bootstrap plus continuous WAL tailing.
//!
//! The leader is deliberately *outside* the service process's lock domain:
//! it watches the durable directory the service writes (per-shard
//! `shard-<i>/` stores) through [`TailReader`], so shipping adds zero work
//! to the service hot path — the WAL bytes the log writer already
//! produces *are* the replication stream. A torn tail under a racing
//! append reads as `NeedMore` and is retried; a checkpoint truncation
//! closes the follower connection, whose reconnect re-bootstraps from the
//! fresh snapshots (the truncated records are, by the checkpoint protocol,
//! already reflected in them).
//!
//! Each follower connection gets its own feeder thread and its own tail
//! offsets, so a slow follower never stalls a fast one. Acks flow back on
//! the same socket and update the per-shard `acked` marks;
//! [`ReplLeader::lag`] reports `shipped - acked` per shard.

use std::fs;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use terp_net::repl::{ReplMsg, SNAP_CHUNK};
use terp_net::{ServiceError, MAGIC, VERSION};
use terp_persist::store::WAL_FILE;
use terp_persist::{TailReader, TailStatus};
use terp_trace::{EventKind, TraceRecorder};

use crate::conn::{disconnected, Conn};

/// Configuration for a [`ReplLeader`].
#[derive(Debug, Clone)]
pub struct ReplLeaderConfig {
    /// Durable root the service writes: one `shard-<i>/` store per shard.
    pub dir: PathBuf,
    /// Shard count (must match the service's `effective_shards()`).
    pub shards: usize,
    /// Feeder pacing when a pass over every shard ships nothing.
    pub idle_poll: Duration,
    /// Optional flight recorder for `ReplShip` events.
    pub tracer: Option<Arc<TraceRecorder>>,
}

impl ReplLeaderConfig {
    /// Defaults: 500 µs idle poll, no tracer.
    pub fn new(dir: impl Into<PathBuf>, shards: usize) -> Self {
        ReplLeaderConfig {
            dir: dir.into(),
            shards: shards.max(1),
            idle_poll: Duration::from_micros(500),
            tracer: None,
        }
    }

    /// Sets the idle poll interval.
    pub fn with_idle_poll(mut self, idle_poll: Duration) -> Self {
        self.idle_poll = idle_poll;
        self
    }

    /// Attaches a flight recorder.
    pub fn with_tracer(mut self, tracer: Arc<TraceRecorder>) -> Self {
        self.tracer = Some(tracer);
        self
    }
}

/// One shard's replication progress as the leader sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLag {
    /// Shard index.
    pub shard: u32,
    /// Highest WAL sequence number shipped to any follower.
    pub shipped_seq: u64,
    /// Highest sequence number acknowledged as applied by a follower.
    pub acked_seq: u64,
}

impl ShardLag {
    /// Records shipped but not yet acknowledged.
    pub fn records(&self) -> u64 {
        self.shipped_seq.saturating_sub(self.acked_seq)
    }
}

#[derive(Debug)]
struct LeaderShared {
    config: ReplLeaderConfig,
    shutdown: AtomicBool,
    shipped: Vec<AtomicU64>,
    acked: Vec<AtomicU64>,
    followers: AtomicUsize,
}

/// A running replication leader: accept loop plus one feeder per follower.
#[derive(Debug)]
pub struct ReplLeader {
    addr: SocketAddr,
    shared: Arc<LeaderShared>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ReplLeader {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// followers over the durable directory in `config`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Disconnected`] if the listener cannot bind.
    pub fn start(config: ReplLeaderConfig, addr: impl ToSocketAddrs) -> Result<Self, ServiceError> {
        let listener = TcpListener::bind(addr).map_err(disconnected)?;
        listener.set_nonblocking(true).map_err(disconnected)?;
        let addr = listener.local_addr().map_err(disconnected)?;
        let shards = config.shards;
        let shared = Arc::new(LeaderShared {
            config,
            shutdown: AtomicBool::new(false),
            shipped: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            acked: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            followers: AtomicUsize::new(0),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conns);
        let accept = std::thread::Builder::new()
            .name("repl-accept".into())
            .spawn(move || {
                while !accept_shared.shutdown.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let conn_shared = Arc::clone(&accept_shared);
                            let handle = std::thread::Builder::new()
                                .name("repl-feed".into())
                                .spawn(move || {
                                    conn_shared.followers.fetch_add(1, Ordering::AcqRel);
                                    // A dying follower is not a leader
                                    // error: drop the connection and let
                                    // its reconnect re-bootstrap.
                                    let _ = serve_follower(stream, &conn_shared);
                                    conn_shared.followers.fetch_sub(1, Ordering::AcqRel);
                                })
                                .expect("spawn repl feeder");
                            accept_conns.lock().expect("conns lock").push(handle);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn repl accept loop");

        Ok(ReplLeader {
            addr,
            shared,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address followers connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Followers currently connected.
    pub fn followers(&self) -> usize {
        self.shared.followers.load(Ordering::Acquire)
    }

    /// Per-shard shipped/acked progress.
    pub fn lag(&self) -> Vec<ShardLag> {
        (0..self.shared.config.shards)
            .map(|i| ShardLag {
                shard: i as u32,
                shipped_seq: self.shared.shipped[i].load(Ordering::Acquire),
                acked_seq: self.shared.acked[i].load(Ordering::Acquire),
            })
            .collect()
    }

    /// Stops the accept loop and every feeder, then joins them.
    pub fn shutdown(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.conns.lock().expect("conns lock").drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ReplLeader {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Serves one follower: handshake, snapshot bootstrap, continuous tailing.
fn serve_follower(stream: TcpStream, shared: &LeaderShared) -> Result<(), ServiceError> {
    let mut conn = Conn::new(stream)?;
    let handshake_deadline = Instant::now() + Duration::from_secs(10);

    match conn.recv_deadline(handshake_deadline)? {
        ReplMsg::Hello {
            magic,
            version,
            follower: _,
        } if magic == MAGIC && version == VERSION => {}
        ReplMsg::Hello { magic, version, .. } => {
            return Err(ServiceError::Protocol(format!(
                "follower handshake mismatch: magic {magic:#x} version {version}"
            )))
        }
        other => {
            return Err(ServiceError::Protocol(format!(
                "expected Hello, got {other:?}"
            )))
        }
    }
    conn.send(&ReplMsg::Welcome {
        version: VERSION,
        shards: shared.config.shards as u32,
    })?;
    match conn.recv_deadline(handshake_deadline)? {
        ReplMsg::Subscribe => {}
        other => {
            return Err(ServiceError::Protocol(format!(
                "expected Subscribe, got {other:?}"
            )))
        }
    }

    // Ack reader on a second handle; it only touches the acked marks.
    let mut ack_conn = conn.split()?;
    let ack_shared_shutdown = &shared.shutdown;
    let ack_acked = &shared.acked;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while !ack_shared_shutdown.load(Ordering::Acquire) {
                match ack_conn.recv() {
                    Ok(Some(ReplMsg::Ack { shard, applied_seq })) => {
                        if let Some(mark) = ack_acked.get(shard as usize) {
                            mark.fetch_max(applied_seq, Ordering::AcqRel);
                        }
                    }
                    Ok(Some(_)) | Ok(None) => {}
                    Err(_) => break,
                }
            }
        });
        feed(&mut conn, shared)
        // Scope exit joins the ack thread: `feed` only returns once the
        // connection is dead or the leader is shutting down, and either
        // condition ends the ack loop.
    })
}

/// Bootstrap + tail loop. Any send error means the follower is gone.
fn feed(conn: &mut Conn, shared: &LeaderShared) -> Result<(), ServiceError> {
    let shards = shared.config.shards;
    let mut tails: Vec<TailReader> = Vec::with_capacity(shards);

    // Snapshot bootstrap, shard by shard. The WAL then ships from byte 0:
    // records a snapshot already reflects are skipped by the follower via
    // the snapshot's embedded watermark, exactly as local recovery does.
    for shard in 0..shards {
        let sdir = shared.config.dir.join(format!("shard-{shard}"));
        for (name, bytes) in snapshot_files(&sdir)? {
            let total = bytes.chunks(SNAP_CHUNK).count().max(1) as u32;
            if bytes.is_empty() {
                conn.send(&ReplMsg::SnapshotChunk {
                    shard: shard as u32,
                    file: name.clone(),
                    index: 0,
                    total,
                    bytes: Vec::new(),
                })?;
            }
            for (index, piece) in bytes.chunks(SNAP_CHUNK).enumerate() {
                conn.send(&ReplMsg::SnapshotChunk {
                    shard: shard as u32,
                    file: name.clone(),
                    index: index as u32,
                    total,
                    bytes: piece.to_vec(),
                })?;
            }
        }
        conn.send(&ReplMsg::SnapshotDone {
            shard: shard as u32,
        })?;
        tails.push(TailReader::new(&sdir.join(WAL_FILE)));
    }

    let mut last_seq = vec![0u64; shards];
    let mut idle_passes = 0u32;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut shipped_any = false;
        for shard in 0..shards {
            let chunk = tails[shard].poll()?;
            if chunk.status == TailStatus::Truncated {
                // A checkpoint truncated this shard's WAL. The records are
                // in the fresh snapshots, not in any tail we can resume —
                // drop the connection; the follower's reconnect
                // re-bootstraps from those snapshots.
                return Err(disconnected(format!(
                    "shard {shard} checkpoint-truncated; follower must re-bootstrap"
                )));
            }
            if chunk.bytes.is_empty() {
                continue;
            }
            for piece in chunk.bytes.chunks(SNAP_CHUNK) {
                conn.send(&ReplMsg::LogBatch {
                    shard: shard as u32,
                    bytes: piece.to_vec(),
                })?;
            }
            if let Some(tracer) = &shared.config.tracer {
                for (seq, _) in &chunk.records {
                    tracer.record(EventKind::ReplShip {
                        shard: shard as u32,
                        seq: *seq,
                    });
                }
            }
            if let Some((seq, _)) = chunk.records.last() {
                last_seq[shard] = *seq;
                shared.shipped[shard].fetch_max(*seq, Ordering::AcqRel);
                conn.send(&ReplMsg::Heartbeat {
                    shard: shard as u32,
                    durable_seq: *seq,
                })?;
            }
            shipped_any = true;
        }
        if !shipped_any {
            // Periodic heartbeats keep follower lag measurable at idle and
            // double as a liveness probe of the socket.
            if idle_passes.is_multiple_of(16) {
                for (shard, &durable_seq) in last_seq.iter().enumerate() {
                    conn.send(&ReplMsg::Heartbeat {
                        shard: shard as u32,
                        durable_seq,
                    })?;
                }
            }
            idle_passes = idle_passes.wrapping_add(1);
            std::thread::sleep(shared.config.idle_poll);
        } else {
            idle_passes = 0;
        }
    }
}

/// Lists `pool-*.snap` files in a shard store, sorted by name. A missing
/// directory (shard never logged) is empty, not an error.
fn snapshot_files(dir: &std::path::Path) -> Result<Vec<(String, Vec<u8>)>, ServiceError> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(disconnected(e)),
    };
    for entry in entries {
        let path = entry.map_err(disconnected)?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("pool-") && name.ends_with(".snap") {
            out.push((name.to_string(), fs::read(&path).map_err(disconnected)?));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}
