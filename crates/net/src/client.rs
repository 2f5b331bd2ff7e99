//! The client library: a sync handle over a pipelined multiplexer.
//!
//! One [`Client`] owns one TCP connection ([`Client`] is `Clone`; any
//! thread may submit). Responses — which the server may deliver **out of
//! order** — reach their callers by request id, read by the callers
//! themselves: the connection has no thread of its own.
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
//! ## Who reads the replies
//!
//! A [`Pending::wait`] whose reply has not arrived takes the connection's
//! read half if it is free, then reads and settles *every* ticket's replies
//! until its own is settled. When it gives the read half up it unparks one
//! waiter parked for it, to take over. A wait that finds the read half
//! taken parks on its ticket. So a reply reaches a waiting caller with no
//! thread hop in between, and a caller whose reply was read by another
//! thread costs one wake-up.
//!
//! ## When a request reaches the socket
//!
//! A request submitted while the connection owes no reply is written at
//! once: sync calls, depth-1 loops and open-loop callers pay one socket
//! write per request. A request submitted behind an unanswered one joins
//! the connection's outbox instead, and the whole outbox leaves in one
//! write as soon as
//!
//! * a [`Pending::wait`] on this connection is about to block, in a socket
//!   read or a park (never on entry: replies already read are taken first),
//! * a [`Pending`] is dropped without being waited on,
//! * the outbox holds 64 KiB, or
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
//! Reads and writes never wait on each other. When the server has stopped
//! reading (its in-flight gate is full because the client is not reading
//! its replies), a write can finish only after someone reads. So the thread
//! holding the read half only try-locks the outbox, and a write the socket
//! refuses does not block: it polls for both directions and reads the
//! replies itself when it holds the read half or finds it free. If another
//! thread holds it, that thread is reading. A reader that finds the outbox
//! held does not read blind: the holder either writes everything queued,
//! or is a submit that only queued, and that submit sends the outbox as it
//! lets go because the reader flagged that it is about to block.
//!
//! ## What a request costs between caller and socket
//!
//! A request is framed in place into the outbox (no payload or frame
//! buffer of its own; one that would exceed [`crate::frame::MAX_FRAME`] is
//! taken back out and refused). Its reply lands in a slot the ticket
//! shares with the reply map — waiting, done or dead — decoded straight
//! from the read buffer. A waiter parks on the slot only if the reply is
//! not already there and another thread is reading, and the reader unparks
//! only a parked waiter: a reply that beats its wait costs no wake-up
//! syscall and no channel.
//!
//! Connection death (peer reset, protocol violation, server shutdown racing
//! a read, a failed write — the queued requests of other callers included)
//! surfaces as [`ServiceError::Disconnected`] / [`ServiceError::Protocol`]
//! on every outstanding and subsequent call — the same error enum
//! in-process callers see, per the design's "errors cross the wire as
//! values" rule. The read or write that sees it settles every ticket,
//! which unparks every parked waiter.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::thread::Thread;
use std::time::Duration;

use terp_pmo::{ObjectId, OpenMode, Permission, PmoId};

use crate::frame::{encode_frame, frame_into, FrameDecoder, WRITE_COALESCE};
use crate::proto::{Request, Response, MAGIC, VERSION};
use crate::sys::{send_now, wait_ready};
use crate::{lock, ServiceError};

/// Takes `m` if it is free.
fn try_lock<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Where one request's reply lands: whichever thread reads the reply
/// settles it once, and the ticket's waiter parks on it only while it is
/// still waiting.
struct Slot(Mutex<SlotState>);

enum SlotState {
    /// No reply yet; holds the waiter once it has parked.
    Waiting(Option<Thread>),
    Done(Response),
    /// The connection died first; [`PendingMap::dead`] says why.
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

    /// The reply once settled: `Some(None)` when the connection died.
    fn take(&self) -> Option<Option<Response>> {
        let mut st = lock(&self.0);
        match std::mem::replace(&mut *st, SlotState::Dead) {
            SlotState::Done(resp) => Some(Some(resp)),
            SlotState::Dead => Some(None),
            waiting => {
                *st = waiting;
                None
            }
        }
    }

    /// Records the calling thread as the one to unpark; false if the slot
    /// is already settled.
    fn register(&self) -> bool {
        match &mut *lock(&self.0) {
            SlotState::Waiting(waiter) => {
                *waiter = Some(std::thread::current());
                true
            }
            _ => false,
        }
    }

    /// Unparks the slot's waiter if it is still waiting; false if the slot
    /// is settled.
    fn wake(&self) -> bool {
        match &*lock(&self.0) {
            SlotState::Waiting(waiter) => {
                if let Some(w) = waiter {
                    w.unpark();
                }
                true
            }
            _ => false,
        }
    }
}

struct PendingMap {
    /// In-flight tickets by request id. A reader removes an entry to
    /// settle it with its reply; connection death settles every entry left
    /// as dead.
    map: HashMap<u64, Arc<Slot>>,
    /// Set once on connection death; every later submit/wait returns it.
    dead: Option<ServiceError>,
    /// The slots of waiters that parked because another thread held the
    /// read half: giving the half up wakes one still waiting.
    parked: Vec<Arc<Slot>>,
    /// Set by the holder of the read half when it found the outbox held
    /// right before a blocking read: the submit holding it, if it only
    /// queued, sends the outbox as soon as it lets go.
    flush_wanted: bool,
}

/// The write half and the frames queued behind an unanswered request.
struct Outbox {
    sock: TcpStream,
    queued: Vec<u8>,
}

/// The read half: the socket, the decoder and its read buffer. Only ever
/// try-locked; whoever holds it reads for every ticket.
struct Inbox {
    sock: TcpStream,
    dec: FrameDecoder,
    buf: Vec<u8>,
}

/// What submitters and tickets share. Blocking lock order is outbox, then
/// the pending map, then a slot; the read half is only try-locked, and its
/// holder only try-locks the outbox ([`Wire::try_outbox`]).
struct Wire {
    pending: Mutex<PendingMap>,
    /// Requests submitted and not yet answered. A reader decrements it
    /// before it settles the ticket, so the caller's next submit finds the
    /// connection idle and writes at once.
    owed: AtomicU64,
    out: Mutex<Outbox>,
    inbox: Mutex<Inbox>,
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
            let mut p = lock(&self.pending);
            if let Some(e) = &p.dead {
                out.queued.truncate(start);
                return Err(e.clone());
            }
            p.map.insert(id, Arc::clone(slot));
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        let idle = self.owed.fetch_add(1, Ordering::AcqRel) == 0;
        if !idle && out.queued.len() < WRITE_COALESCE {
            drop(out);
            // The holder of the read half may have found the outbox held
            // here and be blocked in a read that waits on what is queued.
            if std::mem::take(&mut lock(&self.pending).flush_wanted) {
                self.flush();
            }
            return Ok(());
        }
        let sent = self.write_out(&mut out, None);
        drop(out);
        if sent {
            Ok(())
        } else {
            Err(self.dead())
        }
    }

    /// Writes whatever is queued.
    fn flush(&self) {
        let mut out = self.outbox();
        if !out.queued.is_empty() {
            self.write_out(&mut out, None);
        }
    }

    /// The whole outbox in one write that never blocks without reading:
    /// while the socket refuses bytes — the server stops reading when its
    /// in-flight gate is full, and only the replies read here free it —
    /// replies are read through `half` if the caller holds the read half,
    /// or through the read half taken if it is free. If another thread
    /// holds it, that thread is reading. A failure kills the connection,
    /// failing every outstanding ticket; returns whether the write went
    /// through.
    fn write_out<'w>(&'w self, out: &mut Outbox, mut half: Option<&mut ReadHalf<'w>>) -> bool {
        self.writes.fetch_add(1, Ordering::Relaxed);
        let Outbox { sock, queued } = out;
        let mut taken = None;
        let mut sent = 0;
        let result = loop {
            match send_now(sock, &queued[sent..]) {
                Ok(n) if sent + n == queued.len() => break Ok(()),
                Ok(n) => sent += n,
                Err(e) => break Err(io_err("send", e)),
            }
            let ready = match wait_ready(sock) {
                Ok(ready) => ready,
                Err(e) => break Err(io_err("poll", e)),
            };
            if !ready.readable || ready.writable {
                continue;
            }
            if half.is_none() && taken.is_none() {
                taken = self.try_read_half();
            }
            match half.as_deref_mut().or(taken.as_mut()) {
                Some(reader) => {
                    if !reader.read_once() || !reader.settle_decoded() {
                        break Err(self.dead());
                    }
                }
                // The holder reads what is there; let it run.
                None => std::thread::yield_now(),
            }
        };
        queued.clear();
        drop(taken);
        match result {
            Ok(()) => true,
            Err(e) => {
                self.fail_all(e);
                false
            }
        }
    }

    /// The outbox, for the holder of the read half, which must never wait
    /// for it. `None` when another thread holds it: that thread either
    /// writes everything queued, or it is a submit that only queues and
    /// then finds `flush_wanted` set once it lets go.
    fn try_outbox(&self) -> Option<MutexGuard<'_, Outbox>> {
        if let Some(out) = try_lock(&self.out) {
            return Some(out);
        }
        // Under the map's lock, where a queuing submit reads the flag after
        // it lets the outbox go: either it sees the flag, or it let go
        // before the second try below, which then cannot fail on it.
        lock(&self.pending).flush_wanted = true;
        let out = try_lock(&self.out)?;
        // This thread sends what is queued itself.
        lock(&self.pending).flush_wanted = false;
        Some(out)
    }

    fn try_read_half(&self) -> Option<ReadHalf<'_>> {
        try_lock(&self.inbox).map(|inbox| ReadHalf {
            wire: self,
            inbox: Some(inbox),
        })
    }

    /// Blocks until `slot` is settled: reading for every ticket while this
    /// thread holds the read half, parked while another thread does.
    /// `None` when the connection died.
    fn wait_for(&self, slot: &Arc<Slot>) -> Option<Response> {
        loop {
            if let Some(settled) = slot.take() {
                return settled;
            }
            // Under the map's lock, so a holder giving the read half up
            // either is seen here or sees this waiter in `parked`.
            let half = {
                let mut p = lock(&self.pending);
                let half = self.try_read_half();
                if half.is_none() {
                    if !slot.register() {
                        continue;
                    }
                    p.parked.retain(|s| !s.is_settled());
                    p.parked.push(Arc::clone(slot));
                }
                half
            };
            match half {
                Some(mut half) => half.read_until(slot),
                None => {
                    // Right before a park: what this thread queued may be
                    // what the holder's read is waiting on.
                    self.flush();
                    std::thread::park();
                }
            }
        }
    }

    /// The read half was given up: wakes one waiter still parked for it.
    fn hand_off(&self) {
        let mut p = lock(&self.pending);
        while let Some(slot) = p.parked.pop() {
            if slot.wake() {
                break;
            }
        }
    }

    /// Settles reply `id`; false if no ticket is waiting for it.
    fn settle(&self, id: u64, resp: Response) -> bool {
        let Some(slot) = lock(&self.pending).map.remove(&id) else {
            return false;
        };
        self.owed.fetch_sub(1, Ordering::AcqRel);
        slot.settle(SlotState::Done(resp));
        true
    }

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

/// The read half, held. Dropping it gives the half up and wakes one parked
/// waiter to take it over.
struct ReadHalf<'a> {
    wire: &'a Wire,
    inbox: Option<MutexGuard<'a, Inbox>>,
}

impl Drop for ReadHalf<'_> {
    fn drop(&mut self) {
        // Let go first: a waiter woken while the half is still held would
        // find it taken and park again, with no one left to wake it.
        drop(self.inbox.take());
        self.wire.hand_off();
    }
}

impl ReadHalf<'_> {
    fn inbox(&mut self) -> &mut Inbox {
        self.inbox.as_mut().expect("held until dropped")
    }

    /// Reads and settles every ticket's replies until `slot` is settled.
    /// Before each blocking read it sends what is queued, unless another
    /// thread holds the outbox: then that thread sends it.
    fn read_until(&mut self, slot: &Slot) {
        let wire = self.wire;
        while self.settle_decoded() && !slot.is_settled() {
            if let Some(mut out) = wire.try_outbox() {
                if !out.queued.is_empty() {
                    // It may read while it writes.
                    wire.write_out(&mut out, Some(self));
                    continue;
                }
            }
            if !self.read_once() {
                return;
            }
        }
    }

    /// One socket read into the decoder; false, after failing every
    /// ticket, when the connection is gone.
    fn read_once(&mut self) -> bool {
        let inbox = self.inbox();
        let err = loop {
            match inbox.sock.read(&mut inbox.buf) {
                Ok(0) => {
                    break ServiceError::Disconnected("server closed the connection".to_string())
                }
                Ok(n) => {
                    inbox.dec.push(&inbox.buf[..n]);
                    return true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => break io_err("recv", e),
            }
        };
        self.wire.fail_all(err);
        false
    }

    /// Settles every reply the decoder holds, decoding each straight from
    /// its buffer; false, after failing every ticket, when the stream is
    /// broken or the server reported a connection-level error.
    fn settle_decoded(&mut self) -> bool {
        let wire = self.wire;
        let inbox = self.inbox();
        let err = loop {
            let payload = match inbox.dec.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => return true,
                Err(e) => break ServiceError::Protocol(e.to_string()),
            };
            match Response::decode(payload) {
                // Id 0 is the server's connection-level error channel:
                // fatal.
                Ok((0, Response::Err(e))) => break e,
                Ok((0, other)) => break unexpected(&other),
                Ok((id, resp)) => {
                    if !wire.settle(id, resp) {
                        break ServiceError::Protocol(format!(
                            "response for unknown request id {id}"
                        ));
                    }
                }
                Err(e) => break e,
            }
        };
        wire.fail_all(err);
        false
    }
}

struct Mux {
    wire: Arc<Wire>,
    /// Original stream, for shutdown on drop.
    stream: TcpStream,
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

    /// Blocks for this request's response. A reply already read returns
    /// at once; otherwise this thread reads the connection's replies, or
    /// parks while another thread does, and sends whatever the connection
    /// has queued before it blocks. A [`Response::Err`] becomes the `Err`
    /// branch, so protocol- and service-level failures read the same.
    pub fn wait(mut self) -> Result<Response, ServiceError> {
        self.waited = true;
        match self.wire.wait_for(&self.slot) {
            Some(Response::Err(e)) => Err(e),
            Some(r) => Ok(r),
            None => Err(self.wire.dead()),
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
    /// Connects and handshakes (magic + version + `client` identity). The
    /// connection has no thread of its own: callers waiting on it read its
    /// replies.
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

        Ok(Client {
            mux: Arc::new(Mux {
                wire: Arc::new(Wire {
                    pending: Mutex::new(PendingMap {
                        map: HashMap::new(),
                        dead: None,
                        parked: Vec::new(),
                        flush_wanted: false,
                    }),
                    owed: AtomicU64::new(0),
                    out: Mutex::new(Outbox {
                        sock: write,
                        queued: Vec::new(),
                    }),
                    inbox: Mutex::new(Inbox {
                        sock: handshake,
                        dec,
                        buf: vec![0; 16 * 1024],
                    }),
                    requests: AtomicU64::new(0),
                    writes: AtomicU64::new(0),
                }),
                stream,
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
}
