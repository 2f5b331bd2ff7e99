//! The client library: a sync handle over a pipelined multiplexer.
//!
//! One [`Client`] owns one TCP connection ([`Client`] is `Clone`; any
//! thread may submit) and a background demultiplexer thread that routes
//! responses — which the server may deliver **out of order** — back to
//! their callers by request id.
//!
//! Two calling styles share the connection:
//!
//! * **Sync**: [`Client::attach`], [`Client::read`], … submit and block for
//!   the matching response.
//! * **Pipelined**: the `*_pipelined` variants return a [`Pending`] ticket
//!   immediately; many tickets can be in flight at once and each
//!   [`Pending::wait`] blocks only for its own response. A server-side
//!   blocking attach therefore stalls just its ticket while later tickets
//!   on the same connection complete.
//!
//! ## When a request reaches the socket
//!
//! A request submitted while the connection owes no reply is written at
//! once: sync calls, depth-1 loops and open-loop callers pay one socket
//! write per request. A request submitted behind an unanswered one joins
//! the connection's outbox instead, and the whole outbox leaves in one
//! write — the client half of the server's one write per batch — as soon
//! as
//!
//! * a [`Pending::wait`] on this connection is about to block,
//! * a [`Pending`] is dropped without being waited on,
//! * the outbox holds 64 KiB, the server's own coalescing bound, or
//! * the last [`Client`] handle is dropped (best effort, before the socket
//!   shuts down).
//!
//! So a queued request is on the wire by the time its own ticket is waited
//! on or dropped, and whenever any wait on the connection blocks. A caller
//! that holds a ticket and blocks on something else — another connection, a
//! channel — must wait on or drop that ticket first if what it blocks on
//! depends on the request. [`Client::wire_counts`] shows the effect: at
//! depth 1 writes equal requests; behind a busy pipeline they fall.
//!
//! The demultiplexer never touches the outbox. A submitter holds the outbox
//! lock across its socket write, and when the server has stopped reading
//! (its in-flight gate is full because the client is not reading its
//! replies) only the demultiplexer's reads can unblock that write. All the
//! demultiplexer shares with submitters is the reply map and the count of
//! replies owed, which it decrements before it wakes a ticket.
//!
//! ## What a request costs between caller and socket
//!
//! A request is framed in place into the outbox (no payload or frame
//! buffer of its own; one that would exceed [`crate::frame::MAX_FRAME`] is
//! taken back out and refused). Its reply lands in a slot the ticket
//! shares with the reply map — waiting, done or dead — and the demultiplexer
//! decodes it straight from its read buffer. A waiter parks on the slot
//! only if the reply is not already there, and the demultiplexer unparks
//! only a parked waiter: a reply that beats its wait costs no wake-up
//! syscall and no channel.
//!
//! Connection death (peer reset, protocol violation, server shutdown racing
//! a read, a failed write — the queued requests of other callers included)
//! surfaces as [`ServiceError::Disconnected`] / [`ServiceError::Protocol`]
//! on every outstanding and subsequent call — the same error enum
//! in-process callers see, per the design's "errors cross the wire as
//! values" rule.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

use terp_pmo::{ObjectId, OpenMode, Permission, PmoId};

use crate::frame::{encode_frame, frame_into, FrameDecoder, WRITE_COALESCE};
use crate::proto::{Request, Response, MAGIC, VERSION};
use crate::{lock, ServiceError};

/// Where one request's reply lands: the demux thread settles it once, and
/// the ticket's waiter parks on it only while it is still waiting.
struct Slot(Mutex<SlotState>);

enum SlotState {
    /// No reply yet; holds the waiter once it has parked.
    Waiting(Option<Thread>),
    Done(Response),
    /// The connection died first; [`Demux::dead`] says why.
    Dead,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot(Mutex::new(SlotState::Waiting(None))))
    }

    /// Settles the slot, unparking its waiter if one is parked: the only
    /// wake-up syscall a reply costs.
    fn settle(&self, to: SlotState) {
        if let SlotState::Waiting(Some(waiter)) = std::mem::replace(&mut *lock(&self.0), to) {
            waiter.unpark();
        }
    }

    fn is_settled(&self) -> bool {
        !matches!(*lock(&self.0), SlotState::Waiting(_))
    }

    /// Blocks until settled; `None` when the connection died.
    fn wait(&self) -> Option<Response> {
        let mut st = lock(&self.0);
        while let SlotState::Waiting(waiter) = &mut *st {
            if waiter.is_none() {
                *waiter = Some(std::thread::current());
            }
            drop(st);
            // Returns at once if the unpark came first; a spurious return
            // rechecks.
            std::thread::park();
            st = lock(&self.0);
        }
        match std::mem::replace(&mut *st, SlotState::Dead) {
            SlotState::Done(resp) => Some(resp),
            _ => None,
        }
    }
}

/// Response routing state: everything the demux thread can reach.
struct Demux {
    /// In-flight tickets by request id. The demux thread removes an entry
    /// to settle it with its reply; connection death settles every entry
    /// left as dead.
    pending: Mutex<PendingMap>,
    /// Requests submitted and not yet answered. The demux decrements it
    /// before it wakes the ticket, so the caller's next submit finds the
    /// connection idle and writes at once.
    owed: AtomicU64,
}

struct PendingMap {
    map: HashMap<u64, Arc<Slot>>,
    /// Set once on connection death; every later submit/wait returns it.
    dead: Option<ServiceError>,
}

impl Demux {
    fn fail_all(&self, err: ServiceError) {
        let mut p = lock(&self.pending);
        if p.dead.is_none() {
            p.dead = Some(err);
        }
        // Every waiter wakes to a dead slot and reads `dead` for the cause.
        for (_, slot) in p.map.drain() {
            slot.settle(SlotState::Dead);
        }
    }

    fn dead(&self) -> ServiceError {
        lock(&self.pending)
            .dead
            .clone()
            .unwrap_or_else(|| ServiceError::Disconnected("connection closed".to_string()))
    }
}

/// The write half and the frames queued behind an unanswered request.
struct Outbox {
    sock: TcpStream,
    queued: Vec<u8>,
}

/// What submitters and tickets share: the outbox and the demux state.
/// Lock order is outbox, then the demux's map; the demux thread holds only
/// the latter.
struct Wire {
    demux: Arc<Demux>,
    out: Mutex<Outbox>,
    requests: AtomicU64,
    writes: AtomicU64,
}

impl Wire {
    fn outbox(&self) -> MutexGuard<'_, Outbox> {
        lock(&self.out)
    }

    /// Frames request `id` in place into the outbox and files `slot` for
    /// its reply. It leaves at once when the connection owed nothing before
    /// it, or when it fills the outbox. A request too large for a frame, or
    /// one on a dead connection, is taken back out of the outbox.
    fn send(&self, id: u64, req: &Request, slot: &Arc<Slot>) -> Result<(), ServiceError> {
        let mut out = self.outbox();
        let start = out.queued.len();
        frame_into(&mut out.queued, |o| req.encode_into(id, o))
            .map_err(|e| ServiceError::Protocol(format!("request refused: {e}")))?;
        {
            let mut p = lock(&self.demux.pending);
            if let Some(e) = &p.dead {
                out.queued.truncate(start);
                return Err(e.clone());
            }
            p.map.insert(id, Arc::clone(slot));
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        let idle = self.demux.owed.fetch_add(1, Ordering::AcqRel) == 0;
        if !idle && out.queued.len() < WRITE_COALESCE {
            return Ok(());
        }
        let sent = self.write_out(&mut out);
        drop(out);
        if sent {
            Ok(())
        } else {
            Err(self.demux.dead())
        }
    }

    /// Writes whatever is queued.
    fn flush(&self) {
        let mut out = self.outbox();
        if !out.queued.is_empty() {
            self.write_out(&mut out);
        }
    }

    /// The whole outbox in one socket write. A failure kills the
    /// connection, failing every outstanding ticket; returns whether the
    /// write went through.
    fn write_out(&self, out: &mut Outbox) -> bool {
        self.writes.fetch_add(1, Ordering::Relaxed);
        let Outbox { sock, queued } = out;
        let sent = sock.write_all(queued);
        queued.clear();
        match sent {
            Ok(()) => true,
            Err(e) => {
                self.demux.fail_all(io_err("send", e));
                false
            }
        }
    }
}

struct Mux {
    wire: Arc<Wire>,
    /// Original stream, for shutdown on drop.
    stream: TcpStream,
    reader: Mutex<Option<JoinHandle<()>>>,
    next_id: AtomicU64,
    server_version: u16,
    server_scheme: String,
    server_shards: u16,
}

impl Drop for Mux {
    fn drop(&mut self) {
        // Best effort: what is still queued leaves before the socket closes.
        self.wire.flush();
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = lock(&self.reader).take() {
            let _ = h.join();
        }
    }
}

/// What a [`Client`] has put on its socket since it connected, handshake
/// excluded: every request it framed and every socket write it issued.
/// `writes < requests` is the outbox at work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireCounts {
    /// Requests framed by [`Client::submit`].
    pub requests: u64,
    /// Socket writes that carried them.
    pub writes: u64,
}

/// A pipelined in-flight request. Obtain from the `*_pipelined` methods;
/// redeem with [`Pending::wait`] or a typed `wait_*` helper. Dropping it
/// unwaited discards the response but still sends the request.
pub struct Pending {
    id: u64,
    slot: Arc<Slot>,
    wire: Arc<Wire>,
    waited: bool,
}

impl Drop for Pending {
    fn drop(&mut self) {
        // Its request may still be in the outbox, and nobody will wait for it.
        if !self.waited {
            self.wire.flush();
        }
    }
}

impl Pending {
    /// The wire request id (diagnostic; ids are per-connection).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks for this request's response, first sending whatever the
    /// connection has queued. A [`Response::Err`] becomes the `Err` branch,
    /// so protocol- and service-level failures read the same.
    pub fn wait(mut self) -> Result<Response, ServiceError> {
        self.waited = true;
        if !self.slot.is_settled() {
            // A failed write settles this ticket as dead too.
            self.wire.flush();
        }
        match self.slot.wait() {
            Some(Response::Err(e)) => Err(e),
            Some(r) => Ok(r),
            None => Err(self.wire.demux.dead()),
        }
    }

    /// Waits for a bare success (detach, write, free, ping).
    pub fn wait_unit(self) -> Result<(), ServiceError> {
        match self.wait()? {
            Response::Unit => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Waits for a `create_pool` response.
    pub fn wait_pool(self) -> Result<PmoId, ServiceError> {
        match self.wait()? {
            Response::Pool(p) => Ok(p),
            other => Err(unexpected(&other)),
        }
    }

    /// Waits for an `alloc` response.
    pub fn wait_oid(self) -> Result<ObjectId, ServiceError> {
        match self.wait()? {
            Response::Oid(oid) => Ok(oid),
            other => Err(unexpected(&other)),
        }
    }

    /// Waits for a `read` response.
    pub fn wait_data(self) -> Result<Vec<u8>, ServiceError> {
        match self.wait()? {
            Response::Data(d) => Ok(d),
            other => Err(unexpected(&other)),
        }
    }

    /// Waits for an `attach` response, yielding the server-side queue wait
    /// in nanoseconds (0 under non-blocking schemes).
    pub fn wait_attached(self) -> Result<u64, ServiceError> {
        match self.wait()? {
            Response::Attached { waited_ns } => Ok(waited_ns),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(resp: &Response) -> ServiceError {
    ServiceError::Protocol(format!("unexpected response kind: {resp:?}"))
}

fn io_err(what: &str, e: std::io::Error) -> ServiceError {
    ServiceError::Disconnected(format!("{what}: {e}"))
}

/// A connection to a [`crate::server::NetServer`], cheap to clone across
/// threads (clones share the socket and multiplexer).
#[derive(Clone)]
pub struct Client {
    mux: Arc<Mux>,
}

impl Client {
    /// Connects, handshakes (magic + version + `client` identity), and
    /// starts the demux thread.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Disconnected`] on socket failure,
    /// [`ServiceError::Protocol`] on a handshake the server refused.
    pub fn connect(addr: impl ToSocketAddrs, client: u64) -> Result<Client, ServiceError> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        let _ = stream.set_nodelay(true);
        let mut write = stream.try_clone().map_err(|e| io_err("clone socket", e))?;
        let mut handshake = stream.try_clone().map_err(|e| io_err("clone socket", e))?;

        // Synchronous handshake: id 1, nothing else is in flight, so read
        // directly off the socket (bounded by a temporary timeout).
        let hello = Request::Hello {
            magic: MAGIC,
            version: VERSION,
            client,
        };
        write
            .write_all(&encode_frame(&hello.encode(1)))
            .map_err(|e| io_err("handshake send", e))?;
        let _ = handshake.set_read_timeout(Some(Duration::from_secs(10)));
        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 4096];
        let (id, resp) = loop {
            if let Some(p) = dec
                .next_frame()
                .map_err(|e| ServiceError::Protocol(e.to_string()))?
            {
                break Response::decode(p)?;
            }
            let n = handshake
                .read(&mut buf)
                .map_err(|e| io_err("handshake recv", e))?;
            if n == 0 {
                return Err(ServiceError::Disconnected(
                    "server closed during handshake".to_string(),
                ));
            }
            dec.push(&buf[..n]);
        };
        let _ = handshake.set_read_timeout(None);
        if id != 1 {
            return Err(ServiceError::Protocol(format!(
                "handshake response for id {id}, want 1"
            )));
        }
        let (server_version, server_scheme, server_shards) = match resp {
            Response::Hello {
                version,
                scheme,
                shards,
            } => (version, scheme, shards),
            Response::Err(e) => return Err(e),
            other => return Err(unexpected(&other)),
        };

        let demux = Arc::new(Demux {
            pending: Mutex::new(PendingMap {
                map: HashMap::new(),
                dead: None,
            }),
            owed: AtomicU64::new(0),
        });
        let demux_for_reader = Arc::clone(&demux);
        let reader = std::thread::Builder::new()
            .name("terp-net-client-demux".to_string())
            .spawn(move || demux_loop(handshake, dec, demux_for_reader))
            .map_err(|e| ServiceError::Disconnected(format!("spawn demux: {e}")))?;

        Ok(Client {
            mux: Arc::new(Mux {
                wire: Arc::new(Wire {
                    demux,
                    out: Mutex::new(Outbox {
                        sock: write,
                        queued: Vec::new(),
                    }),
                    requests: AtomicU64::new(0),
                    writes: AtomicU64::new(0),
                }),
                stream,
                reader: Mutex::new(Some(reader)),
                next_id: AtomicU64::new(2),
                server_version,
                server_scheme,
                server_shards,
            }),
        })
    }

    /// The server's protocol version from the handshake.
    pub fn server_version(&self) -> u16 {
        self.mux.server_version
    }

    /// The server's scheme tag from the handshake (e.g. `"TT"`, `"MM"`).
    pub fn server_scheme(&self) -> &str {
        &self.mux.server_scheme
    }

    /// The server's shard count from the handshake.
    pub fn server_shards(&self) -> u16 {
        self.mux.server_shards
    }

    /// Requests framed and socket writes issued on this connection so far
    /// (shared by every clone).
    pub fn wire_counts(&self) -> WireCounts {
        let wire = &self.mux.wire;
        WireCounts {
            requests: wire.requests.load(Ordering::Relaxed),
            writes: wire.writes.load(Ordering::Relaxed),
        }
    }

    /// Submits a raw request without waiting: written at once on an idle
    /// connection, queued behind an unanswered request otherwise (see the
    /// module doc for when it leaves). Prefer the typed wrappers.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Disconnected`] when the connection is already dead or
    /// the write this submit issued fails; [`ServiceError::Protocol`] for an
    /// oversized request.
    pub fn submit(&self, req: Request) -> Result<Pending, ServiceError> {
        let id = self.mux.next_id.fetch_add(1, Ordering::Relaxed);
        let wire = &self.mux.wire;
        let slot = Slot::new();
        wire.send(id, &req, &slot)?;
        Ok(Pending {
            id,
            slot,
            wire: Arc::clone(wire),
            waited: false,
        })
    }

    /// `create_pool` over the wire.
    pub fn create_pool(
        &self,
        name: &str,
        size: u64,
        mode: OpenMode,
    ) -> Result<PmoId, ServiceError> {
        self.submit(Request::CreatePool {
            name: name.to_string(),
            size,
            mode,
        })?
        .wait_pool()
    }

    /// Blocking attach; returns the server-side queue wait in nanoseconds.
    pub fn attach(&self, pmo: PmoId, perm: Permission) -> Result<u64, ServiceError> {
        self.attach_pipelined(pmo, perm)?.wait_attached()
    }

    /// Pipelined attach: returns immediately; under MM/Basic semantics the
    /// *ticket* blocks while the server parks, not the connection.
    pub fn attach_pipelined(&self, pmo: PmoId, perm: Permission) -> Result<Pending, ServiceError> {
        self.submit(Request::Attach { pmo, perm })
    }

    /// `detach` over the wire.
    pub fn detach(&self, pmo: PmoId) -> Result<(), ServiceError> {
        self.submit(Request::Detach { pmo })?.wait_unit()
    }

    /// `read` over the wire.
    pub fn read(&self, oid: ObjectId, len: u32) -> Result<Vec<u8>, ServiceError> {
        self.read_pipelined(oid, len)?.wait_data()
    }

    /// Pipelined read.
    pub fn read_pipelined(&self, oid: ObjectId, len: u32) -> Result<Pending, ServiceError> {
        self.submit(Request::Read { oid, len })
    }

    /// `write` over the wire.
    pub fn write(&self, oid: ObjectId, data: &[u8]) -> Result<(), ServiceError> {
        self.write_pipelined(oid, data)?.wait_unit()
    }

    /// Pipelined write.
    pub fn write_pipelined(&self, oid: ObjectId, data: &[u8]) -> Result<Pending, ServiceError> {
        self.submit(Request::Write {
            oid,
            data: data.to_vec(),
        })
    }

    /// `alloc` over the wire.
    pub fn alloc(&self, pmo: PmoId, size: u64) -> Result<ObjectId, ServiceError> {
        self.submit(Request::Alloc { pmo, size })?.wait_oid()
    }

    /// `free` over the wire.
    pub fn free(&self, oid: ObjectId) -> Result<(), ServiceError> {
        self.submit(Request::Free { oid })?.wait_unit()
    }

    /// Round-trip liveness probe.
    pub fn ping(&self) -> Result<(), ServiceError> {
        self.ping_pipelined()?.wait_unit()
    }

    /// Pipelined liveness probe.
    pub fn ping_pipelined(&self) -> Result<Pending, ServiceError> {
        self.submit(Request::Ping)
    }

    /// Whether the connection has died (`fail_all` ran): every in-flight
    /// ticket has completed with an error and every later submit will be
    /// refused. The recovery path is a *new* connection —
    /// [`Client::connect_with_retry`] — not this handle.
    pub fn is_dead(&self) -> bool {
        lock(&self.mux.wire.demux.pending).dead.is_some()
    }

    /// [`Client::connect`] with exponential backoff: retries transient
    /// failures ([`ServiceError::Disconnected`], e.g. the server not
    /// listening yet or a dropped handshake) on the `backoff` schedule
    /// until it expires. Non-transient failures (a protocol or version
    /// refusal) abort immediately — retrying cannot fix those.
    ///
    /// This is how a replication follower survives `fail_all`: the dead
    /// [`Client`] is discarded and this reconnects to the (possibly
    /// restarting) peer.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        client: u64,
        mut backoff: Backoff,
    ) -> Result<Client, ServiceError> {
        loop {
            match Client::connect(addr.clone(), client) {
                Ok(c) => return Ok(c),
                Err(e @ ServiceError::Disconnected(_)) => match backoff.next_delay() {
                    Some(delay) => std::thread::sleep(delay),
                    None => return Err(e),
                },
                Err(e) => return Err(e),
            }
        }
    }
}

/// An exponential-backoff schedule for reconnects: delays start at
/// `initial`, double per attempt, cap at `max_delay`, and stop when the
/// accumulated sleep would exceed `budget`.
///
/// ```
/// use std::time::Duration;
/// use terp_net::Backoff;
///
/// let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(80))
///     .with_budget(Duration::from_millis(200));
/// assert_eq!(b.next_delay(), Some(Duration::from_millis(10)));
/// assert_eq!(b.next_delay(), Some(Duration::from_millis(20)));
/// assert_eq!(b.next_delay(), Some(Duration::from_millis(40)));
/// assert_eq!(b.next_delay(), Some(Duration::from_millis(80)));
/// assert_eq!(b.next_delay(), Some(Duration::from_millis(50))); // budget remainder
/// assert_eq!(b.next_delay(), None); // budget exhausted
/// ```
#[derive(Debug, Clone)]
pub struct Backoff {
    next: Duration,
    max_delay: Duration,
    remaining: Duration,
}

impl Backoff {
    /// A schedule from `initial` doubling up to `max_delay`, with a default
    /// 30-second total budget.
    pub fn new(initial: Duration, max_delay: Duration) -> Self {
        Backoff {
            next: initial.max(Duration::from_millis(1)),
            max_delay,
            remaining: Duration::from_secs(30),
        }
    }

    /// The follower default: 10 ms → 1 s doubling, 30 s budget.
    pub fn default_reconnect() -> Self {
        Backoff::new(Duration::from_millis(10), Duration::from_secs(1))
    }

    /// Caps the total time spent sleeping across all attempts.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.remaining = budget;
        self
    }

    /// The next delay to sleep, or `None` once the budget is exhausted.
    /// The final delay is clipped to the budget remainder so the schedule
    /// never overshoots it.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.remaining.is_zero() {
            return None;
        }
        let delay = self.next.min(self.max_delay).min(self.remaining);
        self.remaining -= delay;
        self.next = self.next.saturating_mul(2);
        Some(delay)
    }
}

/// Reads responses and settles their tickets, decoding each straight from
/// the decoder's buffer. Holds only the [`Demux`]: it must keep reading
/// whatever a submitter's blocked write is waiting on.
fn demux_loop(mut sock: TcpStream, mut dec: FrameDecoder, demux: Arc<Demux>) {
    let mut buf = vec![0u8; 16 * 1024];
    loop {
        // Drain complete frames before reading more.
        loop {
            let payload = match dec.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(e) => {
                    demux.fail_all(ServiceError::Protocol(e.to_string()));
                    return;
                }
            };
            let (id, resp) = match Response::decode(payload) {
                Ok(ok) => ok,
                Err(e) => {
                    demux.fail_all(e);
                    return;
                }
            };
            // Id 0 is the server's connection-level error channel: fatal.
            if id == 0 {
                let err = match resp {
                    Response::Err(e) => e,
                    other => unexpected(&other),
                };
                demux.fail_all(err);
                return;
            }
            let slot = lock(&demux.pending).map.remove(&id);
            match slot {
                // A dropped Pending is fine; the response is discarded.
                Some(slot) => {
                    demux.owed.fetch_sub(1, Ordering::AcqRel);
                    slot.settle(SlotState::Done(resp));
                }
                None => {
                    demux.fail_all(ServiceError::Protocol(format!(
                        "response for unknown request id {id}"
                    )));
                    return;
                }
            }
        }
        match sock.read(&mut buf) {
            Ok(0) => {
                demux.fail_all(ServiceError::Disconnected(
                    "server closed the connection".to_string(),
                ));
                return;
            }
            Ok(n) => dec.push(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                demux.fail_all(io_err("recv", e));
                return;
            }
        }
    }
}
