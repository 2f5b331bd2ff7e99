//! The TCP front-end over [`PmoServer`].
//!
//! ## Threading model
//!
//! Each accepted connection gets a **reader** thread (socket → frames →
//! requests) and a **writer** thread (responses → frames → socket), joined
//! by an unbounded completion channel. Requests *execute* elsewhere:
//!
//! * **Blocking-capable attaches** (Merr / Basic semantics, where an attach
//!   parks on a conflicting holder's exposure window) run on a dedicated
//!   spawned thread per request. A parked attach therefore blocks only its
//!   own request — later pipelined ops on the same connection keep flowing
//!   and may complete first (out-of-order completion is the protocol's
//!   contract, see [`crate::proto`]).
//! * **Everything else** is submitted to a per-shard batched executor: one
//!   worker per service shard, routed by the op's pool id with the same
//!   `raw & mask` rule the service's own shard map uses. Workers drain
//!   their whole queue into a local batch per wakeup, so pool-lock traffic
//!   comes only from executor threads — network reader threads never touch
//!   a shard lock, they ride the frame decoder and the submission queues.
//!   Data ops still hit the seqlock fast path inside the service, which
//!   never takes the shard lock at all. Each drained batch runs through one
//!   service [`Batch`] and commits once: under `visibility = durable` that
//!   is one fsync for the whole batch, and the responses that depend on it
//!   are held until it returns (`run_batch`); a clean batch — always,
//!   in memory and under `submit` — answers each request as it finishes.
//!
//! The writer drains every response already queued into one socket write,
//! so a committed batch leaves in one syscall.
//!
//! ## Backpressure
//!
//! A per-connection gate caps decoded-but-uncompleted requests at
//! [`MAX_INFLIGHT`]. At the cap the reader stops decoding, the kernel
//! receive buffer fills, and TCP flow control pushes back on the client —
//! a slow or stalled client bounds its own server-side memory to one gate
//! of requests plus one socket buffer, and never stalls other connections.
//!
//! ## Tracing
//!
//! When the service runs with tracing enabled, the reader records
//! `NetRecv{conn, req}` at decode and every executing thread records
//! `NetExec{conn, req}` before touching the service. The pair is a
//! happens-before edge for the offline checker, so cross-thread windows
//! driven by network requests order through their dispatch points.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use terp_core::Scheme;
use terp_service::metrics::ServiceReport;
use terp_service::{Batch, ClientId, PmoServer, PmoService, TraceRecorder};
use terp_trace::EventKind;

use crate::frame::{encode_frame, FrameDecoder, WRITE_COALESCE};
use crate::proto::{Request, Response, MAGIC, VERSION};
use crate::ServiceError;

/// Per-connection cap on requests decoded but not yet responded to. At the
/// cap the reader stops pulling bytes off the socket and TCP flow control
/// takes over.
pub const MAX_INFLIGHT: usize = 256;

/// Counts in-flight requests on one connection; acquired by the reader at
/// dispatch, released by the writer per response written.
struct Gate {
    n: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Self {
        Gate {
            n: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut n = self.n.lock().unwrap_or_else(|e| e.into_inner());
        while *n >= MAX_INFLIGHT {
            n = self.cv.wait(n).unwrap_or_else(|e| e.into_inner());
        }
        *n += 1;
    }

    fn release(&self) {
        let mut n = self.n.lock().unwrap_or_else(|e| e.into_inner());
        *n -= 1;
        self.cv.notify_one();
    }
}

/// One queued operation bound for a shard worker.
struct Job {
    conn: u32,
    req_id: u64,
    client: ClientId,
    req: Request,
    tx: Sender<(u64, Response)>,
}

struct WorkQueue {
    state: Mutex<(VecDeque<Job>, bool)>,
    cv: Condvar,
}

impl WorkQueue {
    fn new() -> Self {
        WorkQueue {
            state: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        g.0.push_back(job);
        self.cv.notify_one();
    }

    fn stop(&self) {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        g.1 = true;
        self.cv.notify_all();
    }

    /// Blocks for work, then drains the *entire* queue into one batch so a
    /// worker wakeup amortizes over every op queued behind it. Returns an
    /// empty vec when stopped and drained.
    fn take_batch(&self) -> Vec<Job> {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !g.0.is_empty() {
                return g.0.drain(..).collect();
            }
            if g.1 {
                return Vec::new();
            }
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Per-shard batched op execution: one worker per service shard, routed by
/// pool id with the service's own sharding rule.
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
                    .spawn(move || loop {
                        let jobs = worker_q.take_batch();
                        if jobs.is_empty() {
                            return;
                        }
                        run_batch(&svc, tr.as_deref(), jobs);
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

    /// Routes by the op's pool id (the service's `raw & mask` rule);
    /// pool-less ops (create, ping) spread by connection id.
    fn submit(&self, job: Job) {
        let idx = match &job.req {
            Request::Attach { pmo, .. } | Request::Detach { pmo } | Request::Alloc { pmo, .. } => {
                pmo.raw() as usize & self.mask
            }
            Request::Read { oid, .. } | Request::Write { oid, .. } | Request::Free { oid } => {
                oid.pmo().raw() as usize & self.mask
            }
            _ => job.conn as usize & self.mask,
        };
        self.queues[idx].push(job);
    }

    /// Drains every queue (queued jobs still execute and respond) and joins
    /// the workers. Idempotent.
    fn stop(&self) {
        for q in &self.queues {
            q.stop();
        }
        let handles: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for w in handles {
            let _ = w.join();
        }
    }
}

/// Runs `jobs` through one [`Batch`] and one commit. A response leaves
/// straight away while the batch is clean — always, in memory and under
/// `visibility = submit`. Once an operation has left a shard store with
/// unsynced records the batch is dirty and every later response, reads
/// included (they may have seen an unsynced write), is held until the commit
/// has fsynced what it depends on; if the commit fails, each held response
/// becomes the commit's error instead. Runs on an executor worker or, as a
/// batch of one, on a dedicated blocking-attach thread — never on a network
/// reader thread.
fn run_batch(service: &PmoService, tracer: Option<&TraceRecorder>, jobs: Vec<Job>) {
    let mut batch = service.batch();
    let mut held = Vec::new();
    for job in jobs {
        if let Some(t) = tracer {
            t.record(EventKind::NetExec {
                conn: job.conn,
                req: job.req_id,
            });
        }
        let resp = execute(&mut batch, job.client, &job.req);
        if batch.is_dirty() {
            held.push((job.tx, job.req_id, resp));
        } else {
            let _ = job.tx.send((job.req_id, resp));
        }
    }
    let committed = batch.commit();
    for (tx, req_id, resp) in held {
        let resp = match &committed {
            Ok(()) => resp,
            Err(e) => Response::Err(e.clone()),
        };
        let _ = tx.send((req_id, resp));
    }
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
    exec: Executor,
    stopping: AtomicBool,
    conns: Mutex<Vec<Conn>>,
    next_conn: AtomicU32,
}

struct Conn {
    stream: TcpStream,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
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
        let exec = Executor::start(&service, tracer.clone());
        let shared = Arc::new(Shared {
            service,
            tracer,
            exec,
            stopping: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            next_conn: AtomicU32::new(1),
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

    /// Drains and stops everything, returning the service report.
    ///
    /// Ordering matters: shutdown begins *service-side first* (parked
    /// Basic-semantics attaches wake with [`ServiceError::ShuttingDown`]),
    /// then the accept loop stops, readers are unblocked via read-half
    /// shutdown, the executor drains its queues, and writers flush every
    /// pending response before the sockets close — a client mid-request
    /// sees an error response, never a silently hung socket.
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
        let conns =
            std::mem::take(&mut *self.shared.conns.lock().unwrap_or_else(|e| e.into_inner()));
        // Close read halves so readers see EOF and stop submitting.
        for c in &conns {
            let _ = c.stream.shutdown(Shutdown::Read);
        }
        let mut writers = Vec::with_capacity(conns.len());
        for c in conns {
            let _ = c.reader.join();
            writers.push((c.stream, c.writer));
        }
        // No submitter remains; drain the shard queues (queued ops still
        // execute, returning ShuttingDown from the service) and join the
        // workers.
        self.shared.exec.stop();
        // Writers exit once every response sender is dropped (readers are
        // joined, workers stopped, blocking attaches woken by shutdown) —
        // and they flush every pending response first.
        for (stream, writer) in writers {
            let _ = writer.join();
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
    let (tx, rx) = channel::<(u64, Response)>();
    let gate = Arc::new(Gate::new());
    let reader_shared = Arc::clone(shared);
    let reader_gate = Arc::clone(&gate);
    let reader = std::thread::Builder::new()
        .name(format!("terp-net-read-{conn_id}"))
        .spawn(move || reader_loop(reader_shared, conn_id, read_half, tx, reader_gate))
        .expect("spawn reader");
    let writer = std::thread::Builder::new()
        .name(format!("terp-net-write-{conn_id}"))
        .spawn(move || writer_loop(write_half, rx, gate))
        .expect("spawn writer");
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(Conn {
            stream,
            reader,
            writer,
        });
}

/// Whether `scheme` can park an attach on a conflicting holder — those run
/// on a dedicated thread so the park blocks only their own request.
fn attach_can_block(scheme: Scheme) -> bool {
    matches!(scheme, Scheme::Merr | Scheme::BasicSemantics)
}

fn reader_loop(
    shared: Arc<Shared>,
    conn: u32,
    mut sock: TcpStream,
    tx: Sender<(u64, Response)>,
    gate: Arc<Gate>,
) {
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 16 * 1024];
    let mut client: Option<ClientId> = None;
    let fatal = |tx: &Sender<(u64, Response)>, gate: &Gate, req_id: u64, e: ServiceError| {
        gate.acquire();
        let _ = tx.send((req_id, Response::Err(e)));
    };
    loop {
        let n = match sock.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        dec.push(&buf[..n]);
        loop {
            let payload = match dec.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(e) => {
                    fatal(&tx, &gate, 0, ServiceError::Protocol(e.to_string()));
                    return;
                }
            };
            let (req_id, req) = match Request::decode(&payload) {
                Ok(ok) => ok,
                Err(e) => {
                    fatal(&tx, &gate, 0, e);
                    return;
                }
            };
            if req_id == 0 {
                fatal(
                    &tx,
                    &gate,
                    0,
                    ServiceError::Protocol("request id 0 is reserved".to_string()),
                );
                return;
            }
            if let Some(t) = &shared.tracer {
                t.record(EventKind::NetRecv { conn, req: req_id });
            }
            let Some(client_id) = client else {
                // First message must be the handshake.
                match req {
                    Request::Hello {
                        magic,
                        version,
                        client: c,
                    } if magic == MAGIC && version == VERSION => {
                        client = Some(c as ClientId);
                        gate.acquire();
                        let _ = tx.send((
                            req_id,
                            Response::Hello {
                                version: VERSION,
                                scheme: shared.service.scheme().to_string(),
                                shards: shared.service.shard_count() as u16,
                            },
                        ));
                    }
                    Request::Hello { magic, version, .. } => {
                        fatal(
                            &tx,
                            &gate,
                            req_id,
                            ServiceError::Protocol(format!(
                                "handshake mismatch: magic {magic:#010x} version {version} \
                                 (want {MAGIC:#010x} version {VERSION})"
                            )),
                        );
                        return;
                    }
                    _ => {
                        fatal(
                            &tx,
                            &gate,
                            req_id,
                            ServiceError::Protocol("first message must be hello".to_string()),
                        );
                        return;
                    }
                }
                continue;
            };
            if matches!(req, Request::Hello { .. }) {
                fatal(
                    &tx,
                    &gate,
                    req_id,
                    ServiceError::Protocol("duplicate hello".to_string()),
                );
                return;
            }
            gate.acquire();
            let job = Job {
                conn,
                req_id,
                client: client_id,
                req,
                tx: tx.clone(),
            };
            if matches!(job.req, Request::Attach { .. })
                && attach_can_block(shared.service.scheme())
            {
                // A parked attach must block only its own request: run it on
                // a dedicated thread so this reader keeps decoding and later
                // pipelined ops can complete first.
                let svc = Arc::clone(&shared.service);
                let tr = shared.tracer.clone();
                let _ = std::thread::Builder::new()
                    .name(format!("terp-net-attach-{conn}-{req_id}"))
                    .spawn(move || run_batch(&svc, tr.as_deref(), vec![job]));
            } else {
                shared.exec.submit(job);
            }
        }
    }
}

fn writer_loop(mut sock: TcpStream, rx: Receiver<(u64, Response)>, gate: Arc<Gate>) {
    let mut broken = false;
    let mut out = Vec::new();
    while let Ok(first) = rx.recv() {
        // Everything already queued (a committed batch releases its held
        // responses together) leaves in one write.
        let mut next = Some(first);
        let mut responses = 0;
        while let Some((req_id, resp)) = next {
            if !broken {
                out.extend_from_slice(&encode_frame(&resp.encode(req_id)));
            }
            responses += 1;
            next = if out.len() < WRITE_COALESCE {
                rx.try_recv().ok()
            } else {
                None
            };
        }
        if !broken {
            broken = sock.write_all(&out).is_err();
        }
        out.clear();
        // Release even on a broken socket so a reader blocked on the gate
        // can notice the connection died instead of parking forever.
        for _ in 0..responses {
            gate.release();
        }
    }
    let _ = sock.shutdown(Shutdown::Both);
}
