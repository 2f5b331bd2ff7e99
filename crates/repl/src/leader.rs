//! The replication leader: the store's two files, tailed from byte 0.
//!
//! The leader is deliberately *outside* the service process's lock domain:
//! it watches the durable directory the service writes (per-shard
//! `shard-<i>/` stores), so shipping adds zero work to the service hot path
//! — the bytes the log writer and the checkpoint already produce *are* the
//! replication stream. The WAL is tailed through [`TailReader`]: a torn
//! tail under a racing append reads as `NeedMore` and is retried. A cold
//! bootstrap and a checkpoint's truncation are one case: the WAL read from
//! byte 0 opens with the marker of the checkpoint it continues, `(seq,
//! ckpt_len)`, and the leader ships that checkpoint — `ckpt.log` up to
//! `ckpt_len`, from where it left off or from the top after a compaction —
//! then the WAL from offset 0. The batch was committed before the
//! truncation wrote the marker, so nothing is lost in between and the
//! connection never drops for a checkpoint.
//!
//! Each follower connection gets its own feeder thread and its own tail
//! offsets, so a slow follower never stalls a fast one. Acks flow back on
//! the same socket and update the per-shard `acked` marks;
//! [`ReplLeader::lag`] reports `shipped - acked` per shard.
//!
//! Stopping waits on no timeout. The accept loop blocks in `accept`, and
//! [`ReplLeader::shutdown`] wakes it with one connection of its own. Every
//! feeder is listed with a clone of its socket; shutdown closes each
//! socket, which ends a feeder blocked in a send to a follower that stopped
//! reading, and the feeder's own close then ends its ack reader.

use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use terp_net::repl::{LogFile, ReplMsg, LOG_CHUNK};
use terp_net::{ServiceError, MAGIC, VERSION};
use terp_persist::{first_seq, TailReader, TailStatus, CKPT_FILE, WAL_FILE};

use crate::conn::{disconnected, Conn};

/// Feeder pacing when a pass over every shard ships nothing.
const IDLE_POLL: Duration = Duration::from_micros(500);

/// Feeder threads, each with a clone of its follower's socket.
type Feeders = Arc<Mutex<Vec<(JoinHandle<()>, TcpStream)>>>;

/// Configuration for a [`ReplLeader`].
#[derive(Debug, Clone)]
pub struct ReplLeaderConfig {
    /// Durable root the service writes: one `shard-<i>/` store per shard.
    pub dir: PathBuf,
    /// Shard count (must match the service's `effective_shards()`).
    pub shards: usize,
}

impl ReplLeaderConfig {
    /// A leader over `dir` with `shards` shards (at least one).
    pub fn new(dir: impl Into<PathBuf>, shards: usize) -> Self {
        ReplLeaderConfig {
            dir: dir.into(),
            shards: shards.max(1),
        }
    }
}

/// One shard's replication progress as the leader sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLag {
    /// Shard index.
    pub shard: u32,
    /// Highest sequence number shipped to any follower.
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
    conns: Feeders,
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
        let addr = listener.local_addr().map_err(disconnected)?;
        let shards = config.shards;
        let shared = Arc::new(LeaderShared {
            config,
            shutdown: AtomicBool::new(false),
            shipped: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            acked: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            followers: AtomicUsize::new(0),
        });
        let conns = Feeders::default();

        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conns);
        let accept = std::thread::Builder::new()
            .name("repl-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok((stream, socket)) = stream.and_then(|s| Ok((s.try_clone()?, s))) else {
                        break;
                    };
                    // Finished feeders leave the list here, so it holds
                    // the live connections and not every one ever made.
                    let mut conns = accept_conns.lock().expect("conns lock");
                    conns.retain(|(h, _)| !h.is_finished());
                    let conn_shared = Arc::clone(&accept_shared);
                    let handle = std::thread::Builder::new()
                        .name("repl-feed".into())
                        .spawn(move || {
                            conn_shared.followers.fetch_add(1, Ordering::AcqRel);
                            // A dying follower is not a leader error: drop
                            // the connection and let its reconnect
                            // re-bootstrap.
                            let _ = serve_follower(stream, &conn_shared);
                            conn_shared.followers.fetch_sub(1, Ordering::AcqRel);
                        })
                        .expect("spawn repl feeder");
                    conns.push((handle, socket));
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
            // `accept` blocks: a connection of our own wakes it to the flag.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
        let feeders = std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        for (_, socket) in &feeders {
            let _ = socket.shutdown(Shutdown::Both);
        }
        for (h, _) in feeders {
            let _ = h.join();
        }
    }
}

impl Drop for ReplLeader {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Serves one follower: handshake, then the shipping loop.
fn serve_follower(stream: TcpStream, shared: &LeaderShared) -> Result<(), ServiceError> {
    let mut conn = Conn::new(stream)?;
    match conn.recv()? {
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
    match conn.recv()? {
        ReplMsg::Subscribe => {}
        other => {
            return Err(ServiceError::Protocol(format!(
                "expected Subscribe, got {other:?}"
            )))
        }
    }

    conn.handshake_done()?;

    // Ack reader on a second handle; it only touches the acked marks.
    let mut ack_conn = conn.split()?;
    let ack_acked = &shared.acked;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(msg) = ack_conn.recv() {
                if let ReplMsg::Ack { shard, applied_seq } = msg {
                    if let Some(mark) = ack_acked.get(shard as usize) {
                        mark.fetch_max(applied_seq, Ordering::AcqRel);
                    }
                }
            }
        });
        let fed = feed(&mut conn, shared);
        // Dropping the feeder's handle shuts the socket down, which ends
        // the ack reader the scope joins.
        drop(conn);
        fed
    })
}

/// One shard's shipping position on one follower connection.
struct ShardFeed {
    dir: PathBuf,
    wal: TailReader,
    /// The follower's WAL must start over: at connect, and whenever a
    /// checkpoint truncated the leader's.
    restart: bool,
    /// Sequence number of the checkpoint last shipped.
    ckpt_seq: Option<u64>,
    /// Which `ckpt.log` the shipped bytes came from (its first frame's
    /// sequence number) and how many of them were shipped.
    ckpt_gen: Option<u64>,
    ckpt_sent: u64,
    /// Highest sequence number shipped: a WAL record's or a checkpoint's.
    last_seq: u64,
}

/// Ships `bytes` as the contents of `file` from `offset` on. A file that
/// starts over (offset 0) is announced even when it is empty.
fn send_file(
    conn: &mut Conn,
    shard: u32,
    file: LogFile,
    offset: u64,
    bytes: &[u8],
) -> Result<(), ServiceError> {
    if bytes.is_empty() && offset == 0 {
        return conn.send(&ReplMsg::LogBatch {
            shard,
            file,
            offset,
            bytes: Vec::new(),
        });
    }
    for (i, piece) in bytes.chunks(LOG_CHUNK).enumerate() {
        conn.send(&ReplMsg::LogBatch {
            shard,
            file,
            offset: offset + (i * LOG_CHUNK) as u64,
            bytes: piece.to_vec(),
        })?;
    }
    Ok(())
}

/// Ships the checkpoint `(seq, ckpt_len)` the WAL opens with: the
/// `ckpt.log` bytes the follower lacks. Returns `false` when there is no
/// head (a truncation caught mid-write), or a compaction has replaced
/// `ckpt.log` since the WAL was read — the image on disk is newer than its
/// head. Either way the next pass reads both again.
fn ship_checkpoint(
    conn: &mut Conn,
    shard: u32,
    feed: &mut ShardFeed,
    head: Option<(u64, u64)>,
) -> Result<bool, ServiceError> {
    let Some((seq, ckpt_len)) = head else {
        return Ok(false);
    };
    // Whatever ckpt.log is opened now is the file the head commits, grown
    // since, or compacted since — never older.
    let mut ckpt = fs::File::open(feed.dir.join(CKPT_FILE)).map_err(disconnected)?;
    let mut head = [0u8; 16];
    ckpt.read_exact(&mut head).map_err(disconnected)?;
    let generation = first_seq(&head);
    if generation.is_some_and(|newer| newer > seq) {
        return Ok(false);
    }
    let from = if generation == feed.ckpt_gen && feed.ckpt_sent <= ckpt_len {
        feed.ckpt_sent
    } else {
        0
    };
    let mut bytes = Vec::new();
    ckpt.seek(SeekFrom::Start(from)).map_err(disconnected)?;
    ckpt.take(ckpt_len - from)
        .read_to_end(&mut bytes)
        .map_err(disconnected)?;
    if bytes.len() as u64 != ckpt_len - from {
        return Err(ServiceError::Persist(format!(
            "ckpt.log is shorter than the {ckpt_len} bytes the WAL's head commits"
        )));
    }
    send_file(conn, shard, LogFile::Ckpt, from, &bytes)?;
    feed.ckpt_seq = Some(seq);
    feed.ckpt_gen = generation;
    feed.ckpt_sent = ckpt_len;
    feed.last_seq = feed.last_seq.max(seq);
    Ok(true)
}

/// The shipping loop. Any send error means the follower is gone.
fn feed(conn: &mut Conn, shared: &LeaderShared) -> Result<(), ServiceError> {
    let mut feeds: Vec<ShardFeed> = (0..shared.config.shards)
        .map(|shard| {
            let dir = shared.config.dir.join(format!("shard-{shard}"));
            ShardFeed {
                wal: TailReader::new(&dir.join(WAL_FILE)),
                dir,
                restart: true,
                ckpt_seq: None,
                ckpt_gen: None,
                ckpt_sent: 0,
                last_seq: 0,
            }
        })
        .collect();

    let mut idle_passes = 0u32;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut shipped_any = false;
        for (shard, feed) in feeds.iter_mut().enumerate() {
            let shard = shard as u32;
            let offset = feed.wal.offset();
            let chunk = feed.wal.poll()?;
            if chunk.status == TailStatus::Truncated {
                feed.restart = true;
                shipped_any = true;
                continue;
            }
            // The log read from byte 0 opens with the marker of the
            // checkpoint it continues. One the follower lacks goes first,
            // and the follower's WAL then starts over with this one.
            if offset == 0
                && (feed.restart || !chunk.bytes.is_empty())
                && chunk.marker.map(|(seq, _)| seq) != feed.ckpt_seq
            {
                if !ship_checkpoint(conn, shard, feed, chunk.marker)? {
                    feed.wal = TailReader::new(&feed.dir.join(WAL_FILE));
                    continue;
                }
                feed.restart = true;
            }
            let restarted = std::mem::take(&mut feed.restart);
            if chunk.bytes.is_empty() && !restarted {
                continue;
            }
            if let Some(seq) = chunk.last_seq {
                feed.last_seq = seq;
            }
            send_file(conn, shard, LogFile::Wal, offset, &chunk.bytes)?;
            // The mark follows the bytes it covers: after a (re)start, the
            // checkpoint *and* the log read behind it — a follower is not
            // level with this shard before it has both.
            shared.shipped[shard as usize].fetch_max(feed.last_seq, Ordering::AcqRel);
            conn.send(&ReplMsg::Heartbeat {
                shard,
                durable_seq: feed.last_seq,
            })?;
            shipped_any = true;
        }
        if !shipped_any {
            // Periodic heartbeats keep follower lag measurable at idle and
            // double as a liveness probe of the socket.
            if idle_passes.is_multiple_of(16) {
                for (shard, feed) in feeds.iter().enumerate().filter(|(_, f)| !f.restart) {
                    conn.send(&ReplMsg::Heartbeat {
                        shard: shard as u32,
                        durable_seq: feed.last_seq,
                    })?;
                }
            }
            idle_passes = idle_passes.wrapping_add(1);
            std::thread::sleep(IDLE_POLL);
        } else {
            idle_passes = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_feeder_list_drops_finished_connections() {
        // No follower here subscribes, so no feeder reads the directory.
        let leader = ReplLeader::start(ReplLeaderConfig::new("unread", 1), "127.0.0.1:0").unwrap();
        let all_finished = |leader: &ReplLeader| {
            let conns = leader.conns.lock().unwrap();
            conns.iter().all(|(h, _)| h.is_finished())
        };
        for _ in 0..50 {
            let mut conn = Conn::new(TcpStream::connect(leader.local_addr()).unwrap()).unwrap();
            conn.send(&ReplMsg::hello(1)).unwrap();
            assert!(matches!(conn.recv().unwrap(), ReplMsg::Welcome { .. }));
            drop(conn);
            // The feeder was spawned under the list's lock and has
            // answered, so it is listed: wait until it has seen the hang-up.
            let start = std::time::Instant::now();
            while !all_finished(&leader) {
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "feeder outlived its follower"
                );
                std::thread::yield_now();
            }
        }
        assert_eq!(leader.followers(), 0);
        assert!(leader.conns.lock().unwrap().len() <= 1);
        leader.shutdown();
    }
}
