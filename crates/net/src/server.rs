//! The TCP front-end over [`PmoServer`].
//!
//! ## Threading model
//!
//! Each accepted connection gets a **reader** thread (socket → frames →
//! requests) and a **flusher** thread that stays parked unless the socket
//! refuses reply bytes. Whichever thread executed a batch writes its replies
//! itself. Where a request executes depends on whether its batch can ever
//! turn dirty:
//!
//! * **A batch that never turns dirty** — every batch of an in-memory
//!   service and of a `visibility = submit` store — runs on the reader that
//!   decoded it. The reader runs everything one socket read decoded, across
//!   all shards, as one service [`Batch`] and answers it in one delivery. Its
//!   data ops hit the seqlock fast path, its window ops take their shard's
//!   lock, as in-process callers do. Such a server starts no executor
//!   thread, and its side of a round trip wakes one thread: the reader.
//! * **Under `durable` + `visibility = durable`** requests go to a per-shard
//!   batched executor: one worker per service shard, routed by the op's
//!   pool id with the same `raw & mask` rule the service's own shard map
//!   uses. A worker drains its whole queue, from every connection, into one
//!   batch per wakeup and commits it once: one fsync for the whole batch,
//!   with the responses that depend on it held until it returns
//!   (`run_batch`). Sharing that fsync across connections is what the extra
//!   hop buys; the reader only decodes and routes.
//! * **Blocking-capable attaches** (Merr / Basic semantics, where an attach
//!   parks on a conflicting holder's exposure window) run on a dedicated
//!   spawned thread per request, in either mode. A parked attach therefore
//!   blocks only its own request — later pipelined ops on the same
//!   connection keep flowing and may complete first (out-of-order
//!   completion is the protocol's contract, see [`crate::proto`]).
//!
//! ## One hand-off per batch
//!
//! Every step between socket and service moves a batch, not a request, and
//! a wake-up is paid only when its thread is actually asleep:
//!
//! * The reader gathers the frames of one socket read into one batch — one
//!   local list per shard when workers run them — and hands each off once:
//!   it runs it, or pushes it onto its queue under one lock, and the queue
//!   wakes its worker only if the worker is parked.
//! * A batch answers each connection with one delivery: its clean replies
//!   when the batch turns dirty or ends, its held replies after the commit.
//! * A delivery frames its replies in place into the connection's reply
//!   buffer and sends them in one non-blocking write, under the
//!   connection's reply lock, then releases the in-flight gate once for
//!   all of them.
//!
//! [`NetServer::wire_counts`] counts requests, hand-offs and writes.
//!
//! ## Backpressure
//!
//! A per-connection gate caps decoded-but-uncompleted requests at
//! [`MAX_INFLIGHT`]. At the cap the reader stops decoding, the kernel
//! receive buffer fills, and TCP flow control pushes back on the client —
//! a slow or stalled client bounds its own server-side memory to one gate
//! of requests plus one socket buffer, and never stalls other connections.
//! Before it blocks on a full gate the reader hands off the jobs it holds:
//! their replies are what frees the gate.
//!
//! No executing thread blocks on a connection: its write is a `send` that
//! returns when the socket is full. What the socket refuses stays in the
//! reply buffer for the connection's flusher, which writes it with
//! blocking writes; until the buffer is empty again, deliveries only
//! append to it, so frames never interleave. A connection that stops
//! reading its replies stalls only its own flusher and reader
//! ([`ServerWireCounts::stalled`] counts the deliveries left to one).
//!
//! ## Tracing
//!
//! When the service runs with tracing enabled, the reader records
//! `NetRecv{conn, req}` at decode and every executing thread records
//! `NetExec{conn, req}` before touching the service — on a batch the reader
//! runs itself, both on the reader's thread. The pair is a happens-before
//! edge for the offline checker, so cross-thread windows driven by network
//! requests order through their dispatch points.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use terp_core::Scheme;
use terp_service::metrics::ServiceReport;
use terp_service::{Batch, ClientId, PmoServer, PmoService, TraceRecorder, Visibility};
use terp_trace::EventKind;

use crate::frame::{frame_into, FrameDecoder};
use crate::proto::{Request, Response, MAGIC, VERSION};
use crate::sys::send_now;
use crate::{lock, ServiceError};

/// Per-connection cap on requests decoded but not yet responded to. At the
/// cap the reader stops pulling bytes off the socket and TCP flow control
/// takes over.
pub const MAX_INFLIGHT: usize = 256;

/// One connection's replies from one batch, in the order they finished:
/// what one delivery frames and sends.
type Replies = Vec<(u64, Response)>;

/// Counts in-flight requests on one connection; acquired by the reader per
/// request, released once per delivery whose bytes reached the socket.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    inflight: usize,
    /// The reader waits in [`Gate::acquire`]: only then does a release
    /// pay for a wake-up.
    blocked: bool,
}

impl Gate {
    fn new() -> Self {
        Gate {
            state: Mutex::new(GateState {
                inflight: 0,
                blocked: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Takes a slot if one is free, without blocking.
    fn try_acquire(&self) -> bool {
        let mut g = lock(&self.state);
        let free = g.inflight < MAX_INFLIGHT;
        g.inflight += usize::from(free);
        free
    }

    fn acquire(&self) {
        let mut g = lock(&self.state);
        while g.inflight >= MAX_INFLIGHT {
            g.blocked = true;
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        g.blocked = false;
        g.inflight += 1;
    }

    fn release(&self, n: usize) {
        let mut g = lock(&self.state);
        g.inflight -= n;
        if g.blocked {
            self.cv.notify_one();
        }
    }

    fn idle(&self) -> bool {
        lock(&self.state).inflight == 0
    }
}

/// One connection's reply path. Whichever thread finished a batch frames
/// and sends that connection's replies itself ([`Replier::deliver`]); the
/// connection's flusher thread ([`Replier::flush_loop`]) writes only what
/// the socket refused.
struct Replier {
    /// The write half. Sent on under `out`'s lock, or by the flusher while
    /// `flushing` is set.
    sock: TcpStream,
    out: Mutex<ReplyBuf>,
    /// The flusher parks here.
    cv: Condvar,
    gate: Gate,
    counts: Arc<Counts>,
}

struct ReplyBuf {
    /// Framed replies the socket has not taken yet; empty unless
    /// `flushing`.
    bytes: Vec<u8>,
    /// Replies in `bytes`: the gate slots their write releases.
    replies: usize,
    /// The flusher owns the next write: a delivery only appends.
    flushing: bool,
    /// A write failed: replies are dropped, their slots still released.
    broken: bool,
    /// The reader has stopped, so the flusher may leave once every slot is
    /// free.
    reader_done: bool,
}

impl Replier {
    fn new(sock: TcpStream, counts: Arc<Counts>) -> Self {
        Replier {
            sock,
            out: Mutex::new(ReplyBuf {
                bytes: Vec::new(),
                replies: 0,
                flushing: false,
                broken: false,
                reader_done: false,
            }),
            cv: Condvar::new(),
            gate: Gate::new(),
            counts,
        }
    }

    /// Frames `replies` in place into the reply buffer and sends them in
    /// one write that never blocks. Bytes the socket refuses stay for the
    /// flusher, and while it holds any a delivery only appends.
    fn deliver(&self, replies: &[(u64, Response)]) {
        let mut out = lock(&self.out);
        if out.broken {
            // Nothing reaches a dead socket: the slots are free at once.
            self.release(&out, replies.len());
            return;
        }
        for (req_id, resp) in replies {
            frame_into(&mut out.bytes, |o| resp.encode_into(*req_id, o))
                .expect("a response fits a frame: reads are capped at MAX_READ");
        }
        out.replies += replies.len();
        if out.flushing {
            self.counts.stalled.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        match send_now(&self.sock, &out.bytes) {
            Ok(n) if n < out.bytes.len() => {
                out.bytes.drain(..n);
                out.flushing = true;
                self.counts.stalled.fetch_add(1, Ordering::Relaxed);
                self.cv.notify_one();
            }
            sent => {
                out.broken |= sent.is_err();
                out.bytes.clear();
                let n = std::mem::take(&mut out.replies);
                self.release(&out, n);
            }
        }
    }

    /// Releases the slots of `n` replies that left the buffer (written, or
    /// dropped on a broken socket, so a reader blocked on the gate can
    /// notice the connection died). Once the reader has finished, the
    /// flusher checks whether that was the last. Called under `out`'s lock.
    fn release(&self, out: &ReplyBuf, n: usize) {
        self.gate.release(n);
        if out.reader_done {
            self.cv.notify_one();
        }
    }

    /// The reader has stopped: no slot will be taken again.
    fn reader_done(&self) {
        lock(&self.out).reader_done = true;
        self.cv.notify_one();
    }

    /// Writes, with blocking writes, whatever the socket refused a
    /// delivery, until the reader has finished and every slot is free:
    /// every decoded request has been answered. Then closes the socket.
    fn flush_loop(&self) {
        let mut pending = Vec::new();
        let mut out = lock(&self.out);
        loop {
            if out.flushing {
                std::mem::swap(&mut out.bytes, &mut pending);
                let replies = std::mem::take(&mut out.replies);
                let broken = out.broken;
                drop(out);
                let sent = broken || {
                    self.counts.writes.fetch_add(1, Ordering::Relaxed);
                    (&self.sock).write_all(&pending).is_ok()
                };
                pending.clear();
                out = lock(&self.out);
                out.broken |= !sent;
                self.release(&out, replies);
                out.flushing = !out.bytes.is_empty();
                continue;
            }
            if out.reader_done && self.gate.idle() {
                break;
            }
            out = self.cv.wait(out).unwrap_or_else(|e| e.into_inner());
        }
        drop(out);
        let _ = self.sock.shutdown(Shutdown::Both);
    }
}

/// One decoded operation bound for a batch.
struct Job {
    conn: u32,
    req_id: u64,
    client: ClientId,
    req: Request,
    to: Arc<Replier>,
}

struct WorkQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

struct QueueState {
    jobs: Vec<Job>,
    stopped: bool,
    /// The worker waits in [`WorkQueue::take_batch`]: only then does a
    /// push pay for a wake-up.
    parked: bool,
}

impl WorkQueue {
    fn new() -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                jobs: Vec::new(),
                stopped: false,
                parked: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Moves every job in `jobs` onto the queue under one lock, leaving
    /// `jobs` empty with its capacity.
    fn push_all(&self, jobs: &mut Vec<Job>) {
        let mut g = lock(&self.state);
        g.jobs.append(jobs);
        if std::mem::take(&mut g.parked) {
            self.cv.notify_one();
        }
    }

    fn stop(&self) {
        let mut g = lock(&self.state);
        g.stopped = true;
        self.cv.notify_all();
    }

    /// Blocks for work, then swaps the *entire* queue into `batch` (empty
    /// on entry) so a worker wakeup amortizes over every op queued behind
    /// it. Returns false when stopped and drained.
    fn take_batch(&self, batch: &mut Vec<Job>) -> bool {
        let mut g = lock(&self.state);
        loop {
            if !g.jobs.is_empty() {
                std::mem::swap(&mut g.jobs, batch);
                return true;
            }
            if g.stopped {
                return false;
            }
            g.parked = true;
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Per-shard batched op execution for a service whose batches can turn
/// dirty: one worker per service shard, routed by pool id with the service's
/// own sharding rule, so requests of every connection share its commits.
struct Executor {
    queues: Vec<Arc<WorkQueue>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    mask: usize,
}

impl Executor {
    fn start(service: &Arc<PmoService>, tracer: Option<Arc<TraceRecorder>>) -> Self {
        let shards = service.shard_count();
        let mut queues = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for i in 0..shards {
            let q = Arc::new(WorkQueue::new());
            let svc = Arc::clone(service);
            let tr = tracer.clone();
            let worker_q = Arc::clone(&q);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("terp-net-exec-{i}"))
                    .spawn(move || {
                        let mut jobs = Vec::new();
                        while worker_q.take_batch(&mut jobs) {
                            run_batch(&svc, tr.as_deref(), &mut jobs);
                        }
                    })
                    .expect("spawn executor worker"),
            );
            queues.push(q);
        }
        Executor {
            queues,
            workers: Mutex::new(workers),
            mask: shards - 1,
        }
    }

    /// The queue `req` runs on: by the op's pool id (the service's
    /// `raw & mask` rule); pool-less ops (create, ping) spread by
    /// connection id.
    fn shard_of(&self, conn: u32, req: &Request) -> usize {
        match req {
            Request::Attach { pmo, .. } | Request::Detach { pmo } | Request::Alloc { pmo, .. } => {
                pmo.raw() as usize & self.mask
            }
            Request::Read { oid, .. } | Request::Write { oid, .. } | Request::Free { oid } => {
                oid.pmo().raw() as usize & self.mask
            }
            _ => conn as usize & self.mask,
        }
    }

    /// Drains every queue (queued jobs still execute and respond) and joins
    /// the workers. Idempotent.
    fn stop(&self) {
        for q in &self.queues {
            q.stop();
        }
        let handles: Vec<_> = lock(&self.workers).drain(..).collect();
        for w in handles {
            let _ = w.join();
        }
    }
}

/// Replies gathered per connection while a batch runs, each connection's
/// sent as one delivery.
#[derive(Default)]
struct Outgoing(Vec<(u32, Arc<Replier>, Replies)>);

impl Outgoing {
    fn add(&mut self, conn: u32, to: Arc<Replier>, reply: (u64, Response)) {
        // A connection's jobs arrive together, so its list is nearly always
        // the last one.
        match self.0.iter_mut().rev().find(|(c, ..)| *c == conn) {
            Some((_, _, replies)) => replies.push(reply),
            None => self.0.push((conn, to, vec![reply])),
        }
    }

    fn send(&mut self) {
        for (_, to, replies) in self.0.drain(..) {
            to.deliver(&replies);
        }
    }
}

/// Runs `jobs` (drained, capacity kept) through one [`Batch`] and one
/// commit, and answers each connection, from this thread, once for its
/// clean replies and once for its held ones. While the batch is clean —
/// always, in memory and under `visibility = submit` — replies are gathered
/// per connection and leave when the batch ends. Once an operation has left a shard store with
/// unsynced records the batch is dirty: the clean replies gathered so far
/// leave at once, and every later reply, reads included (they may have seen
/// an unsynced write), is held until the commit has fsynced what it depends
/// on; if the commit fails, each held reply becomes the commit's error
/// instead. Runs on the reader that decoded `jobs` when no batch of the
/// service can turn dirty, else on an executor worker; and, as a batch of
/// one, on a dedicated blocking-attach thread.
fn run_batch(service: &PmoService, tracer: Option<&TraceRecorder>, jobs: &mut Vec<Job>) {
    let mut batch = service.batch();
    let mut clean = Outgoing::default();
    let mut held = Outgoing::default();
    for job in jobs.drain(..) {
        if let Some(t) = tracer {
            t.record(EventKind::NetExec {
                conn: job.conn,
                req: job.req_id,
            });
        }
        let resp = execute(&mut batch, job.client, &job.req);
        if batch.is_dirty() {
            clean.send();
            held.add(job.conn, job.to, (job.req_id, resp));
        } else {
            clean.add(job.conn, job.to, (job.req_id, resp));
        }
    }
    clean.send();
    if let Err(e) = batch.commit() {
        for (_, _, replies) in &mut held.0 {
            for (_, resp) in replies {
                *resp = Response::Err(e.clone());
            }
        }
    }
    held.send();
}

/// Executes one request inside `batch`, mapping the result onto the wire
/// response.
fn execute(batch: &mut Batch<'_>, client: ClientId, req: &Request) -> Response {
    let r = match req {
        Request::CreatePool { name, size, mode } => {
            batch.create_pool(name, *size, *mode).map(Response::Pool)
        }
        Request::Attach { pmo, perm } => batch
            .attach_with_wait(client, *pmo, *perm)
            .map(|waited_ns| Response::Attached { waited_ns }),
        Request::Detach { pmo } => batch.detach(client, *pmo).map(|()| Response::Unit),
        Request::Read { oid, len } => batch
            .service()
            .read(client, *oid, *len as usize)
            .map(Response::Data),
        Request::Write { oid, data } => batch.write(client, *oid, data).map(|()| Response::Unit),
        Request::Alloc { pmo, size } => batch.alloc(client, *pmo, *size).map(Response::Oid),
        Request::Free { oid } => batch.free(client, *oid).map(|()| Response::Unit),
        Request::Ping => Ok(Response::Unit),
        Request::Hello { .. } => Err(ServiceError::Protocol("hello after handshake".to_string())),
    };
    r.unwrap_or_else(Response::Err)
}

struct Shared {
    service: Arc<PmoService>,
    tracer: Option<Arc<TraceRecorder>>,
    /// The shard workers, for a service whose batches can turn dirty
    /// (`durable` + `visibility = durable`); `None` runs every batch on the
    /// reader that decoded it.
    exec: Option<Executor>,
    stopping: AtomicBool,
    conns: Mutex<Vec<Conn>>,
    next_conn: AtomicU32,
    counts: Arc<Counts>,
}

/// The live counters behind [`NetServer::wire_counts`] (statistics only:
/// they publish no other data).
#[derive(Default)]
struct Counts {
    requests: AtomicU64,
    handoffs: AtomicU64,
    writes: AtomicU64,
    stalled: AtomicU64,
}

/// What a [`NetServer`] has moved since it started, over every connection:
/// the server's mirror of [`crate::WireCounts`]. The handshake is decoded
/// and answered by the reader itself: a request and a write, no hand-off.
/// `handoffs < requests` is one batch per socket read (per shard, when
/// shard workers run them); `writes < requests` is one write per batch and
/// connection.
/// `stalled` is 0 unless a client falls behind on reading its replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerWireCounts {
    /// Request frames decoded.
    pub requests: u64,
    /// Batches handed to execution: each batch a reader runs itself, each
    /// push onto a shard worker's queue, and each blocking attach's
    /// dedicated thread.
    pub handoffs: u64,
    /// Socket writes that carried the replies.
    pub writes: u64,
    /// Deliveries — one batch's replies to one connection — whose bytes
    /// the socket refused in whole or in part, or that queued behind such
    /// bytes: the connection's flusher thread wrote them.
    pub stalled: u64,
}

struct Conn {
    stream: TcpStream,
    reader: JoinHandle<()>,
    flusher: JoinHandle<()>,
}

/// The network front-end: owns the in-process [`PmoServer`], the listener,
/// and every connection's threads. [`NetServer::shutdown`] drains in an
/// order that guarantees every request already decoded gets a response
/// (typically [`ServiceError::ShuttingDown`]) before its socket closes.
pub struct NetServer {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
    server: Option<PmoServer>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting
    /// connections against `server`'s service.
    ///
    /// # Errors
    ///
    /// The bind error, when the address is unavailable.
    pub fn start(server: PmoServer, addr: &str) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let service = server.service();
        let tracer = service.tracer().cloned();
        let config = service.config();
        let exec = (config.durable.is_some() && config.visibility == Visibility::Durable)
            .then(|| Executor::start(&service, tracer.clone()));
        let shared = Arc::new(Shared {
            service,
            tracer,
            exec,
            stopping: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            next_conn: AtomicU32::new(1),
            counts: Arc::default(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("terp-net-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shared.stopping.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(stream) = stream else { continue };
                    spawn_conn(&accept_shared, stream);
                }
            })
            .expect("spawn accept thread");
        Ok(NetServer {
            addr: local,
            accept: Some(accept),
            shared,
            server: Some(server),
        })
    }

    /// The bound address — connect clients here (port is kernel-assigned
    /// when `start` was given port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying service, for in-process baseline comparisons against
    /// the same instance the network clients hit.
    pub fn service(&self) -> Arc<PmoService> {
        Arc::clone(&self.shared.service)
    }

    /// Requests decoded, batches handed off, socket writes and stalled
    /// deliveries so far, over every connection.
    pub fn wire_counts(&self) -> ServerWireCounts {
        let c = &self.shared.counts;
        ServerWireCounts {
            requests: c.requests.load(Ordering::Relaxed),
            handoffs: c.handoffs.load(Ordering::Relaxed),
            writes: c.writes.load(Ordering::Relaxed),
            stalled: c.stalled.load(Ordering::Relaxed),
        }
    }

    /// Drains and stops everything, returning the service report.
    ///
    /// Ordering matters: shutdown begins *service-side first* (parked
    /// Basic-semantics attaches wake with [`ServiceError::ShuttingDown`]),
    /// then the accept loop stops, readers are unblocked via read-half
    /// shutdown and run or hand off what they decoded, the executor (if
    /// any) drains its queues, and each connection's
    /// flusher waits until every decoded request is answered and written
    /// before the socket closes — a client mid-request sees an error
    /// response, never a silently hung socket.
    pub fn shutdown(mut self) -> ServiceReport {
        self.stop_net();
        self.server.take().expect("server present").shutdown()
    }

    fn stop_net(&mut self) {
        if self.shared.stopping.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake parked attaches and fail new ops with ShuttingDown.
        self.shared.service.begin_shutdown();
        // Unblock accept() with a self-connection; the loop observes
        // `stopping` and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *lock(&self.shared.conns));
        // Close read halves so readers see EOF and stop submitting.
        for c in &conns {
            let _ = c.stream.shutdown(Shutdown::Read);
        }
        let mut flushers = Vec::with_capacity(conns.len());
        for c in conns {
            let _ = c.reader.join();
            flushers.push((c.stream, c.flusher));
        }
        // No submitter remains; drain the shard queues (queued ops still
        // execute, returning ShuttingDown from the service) and join the
        // workers.
        if let Some(exec) = &self.shared.exec {
            exec.stop();
        }
        // A flusher exits once its reader is done and every in-flight slot
        // is free (workers stopped, blocking attaches woken by shutdown) —
        // after writing every reply the socket refused.
        for (stream, flusher) in flushers {
            let _ = flusher.join();
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.server.is_some() {
            self.stop_net();
            if let Some(server) = self.server.take() {
                let _ = server.shutdown();
            }
        }
    }
}

fn spawn_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let replier = Arc::new(Replier::new(write_half, Arc::clone(&shared.counts)));
    let reader = Reader {
        shared: Arc::clone(shared),
        conn: conn_id,
        to: Arc::clone(&replier),
        client: None,
        routed: (0..shared.exec.as_ref().map_or(1, |e| e.queues.len()))
            .map(|_| Vec::new())
            .collect(),
    };
    let reader = std::thread::Builder::new()
        .name(format!("terp-net-read-{conn_id}"))
        .spawn(move || reader.run(read_half))
        .expect("spawn reader");
    let flusher = std::thread::Builder::new()
        .name(format!("terp-net-flush-{conn_id}"))
        .spawn(move || replier.flush_loop())
        .expect("spawn flusher");
    lock(&shared.conns).push(Conn {
        stream,
        reader,
        flusher,
    });
}

/// Whether `scheme` can park an attach on a conflicting holder — those run
/// on a dedicated thread so the park blocks only their own request.
fn attach_can_block(scheme: Scheme) -> bool {
    matches!(scheme, Scheme::Merr | Scheme::BasicSemantics)
}

/// A fatal protocol violation: the reply's request id (0 when the frame
/// had none) and the error it carries.
type Fatal = (u64, ServiceError);

/// One connection's reader thread: socket → frames → jobs.
struct Reader {
    shared: Arc<Shared>,
    conn: u32,
    /// The connection's reply path, which holds its in-flight gate.
    to: Arc<Replier>,
    /// Set by the handshake.
    client: Option<ClientId>,
    /// Jobs decoded and not yet handed off: one list per shard worker, or
    /// the one list this reader runs itself when there are none.
    routed: Vec<Vec<Job>>,
}

impl Reader {
    /// Reads until EOF, a socket error or a protocol violation, which is
    /// answered on request id 0 (or the offending request's) before the
    /// reader stops. Every decoded job is handed off first.
    fn run(mut self, sock: TcpStream) {
        let fatal = self.read_all(sock);
        self.hand_off();
        if let Some((req_id, e)) = fatal {
            self.reply(req_id, Response::Err(e));
        }
        self.to.reader_done();
    }

    fn read_all(&mut self, mut sock: TcpStream) -> Option<Fatal> {
        let mut dec = FrameDecoder::new();
        while let Ok(1..) = dec.read_from(&mut sock) {
            loop {
                match dec.next_frame() {
                    Ok(Some(payload)) => {
                        if let Err(fatal) = self.dispatch(payload) {
                            return Some(fatal);
                        }
                    }
                    Ok(None) => break,
                    Err(e) => return Some((0, ServiceError::Protocol(e.to_string()))),
                }
            }
            // Nothing decoded waits behind the next read.
            self.hand_off();
        }
        None
    }

    /// Decodes one request and routes it: onto its batch's list, or, for an
    /// attach that may park, onto a dedicated thread.
    fn dispatch(&mut self, payload: &[u8]) -> Result<(), Fatal> {
        let (req_id, req) = Request::decode(payload).map_err(|e| (0, e))?;
        if req_id == 0 {
            return Err((
                0,
                ServiceError::Protocol("request id 0 is reserved".to_string()),
            ));
        }
        self.shared.counts.requests.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.shared.tracer {
            t.record(EventKind::NetRecv {
                conn: self.conn,
                req: req_id,
            });
        }
        let Some(client) = self.client else {
            return self.handshake(req_id, req);
        };
        if matches!(req, Request::Hello { .. }) {
            return Err((
                req_id,
                ServiceError::Protocol("duplicate hello".to_string()),
            ));
        }
        self.admit();
        let job = Job {
            conn: self.conn,
            req_id,
            client,
            req,
            to: Arc::clone(&self.to),
        };
        if matches!(job.req, Request::Attach { .. })
            && attach_can_block(self.shared.service.scheme())
        {
            // A parked attach must block only its own request: run it on
            // a dedicated thread so this reader keeps decoding and later
            // pipelined ops can complete first. What was decoded before it
            // is handed off first, keeping dispatch in arrival order.
            self.hand_off();
            self.shared.counts.handoffs.fetch_add(1, Ordering::Relaxed);
            let svc = Arc::clone(&self.shared.service);
            let tr = self.shared.tracer.clone();
            let _ = std::thread::Builder::new()
                .name(format!("terp-net-attach-{}-{req_id}", self.conn))
                .spawn(move || run_batch(&svc, tr.as_deref(), &mut vec![job]));
        } else {
            let exec = self.shared.exec.as_ref();
            let shard = exec.map_or(0, |e| e.shard_of(self.conn, &job.req));
            self.routed[shard].push(job);
        }
        Ok(())
    }

    /// The first message must be a hello with this build's magic and
    /// version.
    fn handshake(&mut self, req_id: u64, req: Request) -> Result<(), Fatal> {
        match req {
            Request::Hello {
                magic,
                version,
                client,
            } if magic == MAGIC && version == VERSION => {
                self.client = Some(client as ClientId);
                let service = &self.shared.service;
                let hello = Response::Hello {
                    version: VERSION,
                    scheme: service.scheme().to_string(),
                    shards: service.shard_count() as u16,
                };
                self.reply(req_id, hello);
                Ok(())
            }
            Request::Hello { magic, version, .. } => Err((
                req_id,
                ServiceError::Protocol(format!(
                    "handshake mismatch: magic {magic:#010x} version {version} \
                     (want {MAGIC:#010x} version {VERSION})"
                )),
            )),
            _ => Err((
                req_id,
                ServiceError::Protocol("first message must be hello".to_string()),
            )),
        }
    }

    /// Takes an in-flight slot. Before blocking on a full gate it hands off
    /// the jobs it holds: their replies are what frees the gate.
    fn admit(&mut self) {
        if !self.to.gate.try_acquire() {
            self.hand_off();
            self.to.gate.acquire();
        }
    }

    /// A reply from the reader itself (handshake, protocol violation).
    fn reply(&mut self, req_id: u64, resp: Response) {
        self.admit();
        self.to.deliver(&[(req_id, resp)]);
    }

    /// Hands off each routed list as one batch: onto its shard worker's
    /// queue in one push, or, without workers, run right here.
    fn hand_off(&mut self) {
        let shared = &self.shared;
        for (shard, jobs) in self.routed.iter_mut().enumerate() {
            if jobs.is_empty() {
                continue;
            }
            shared.counts.handoffs.fetch_add(1, Ordering::Relaxed);
            match &shared.exec {
                Some(exec) => exec.queues[shard].push_all(jobs),
                None => run_batch(&shared.service, shared.tracer.as_deref(), jobs),
            }
        }
    }
}
