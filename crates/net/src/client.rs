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
//! The connection owes a reply from a request's submit until its ticket
//! takes it (a [`Pending::wait`] that returns) or is dropped; a reply read
//! but not yet taken is still owed. A request submitted while the
//! connection owes nothing is written at once: sync calls, depth-1 loops
//! and open-loop callers below saturation pay one socket write per request.
//! Behind any owed reply it joins the connection's outbox instead, and the
//! whole outbox leaves in one write as soon as
//!
//! * a [`Pending::wait`] on this connection is about to block, in a socket
//!   read or a park (never on entry: replies already read are taken first),
//! * a [`Pending`] is dropped without being waited on,
//! * the outbox holds 64 KiB, or
//! * the last [`Client`] handle is dropped (best effort, before the socket
//!   shuts down).
//!
//! So a pipeline turn costs one write, made by its first wait that blocks.
//! A caller that holds a ticket and blocks on something else — another
//! connection, a channel — must wait on or drop that ticket first if what
//! it blocks on depends on the request. [`Client::wire_counts`] shows
//! requests against writes.
//!
//! Reads and writes never wait on each other: while the server's in-flight
//! gate is full, a write finishes only after someone reads. So the holder
//! of the read half only try-locks the outbox, and a write the socket
//! refuses reads the replies itself, or lets the holder of the read half
//! read them, instead of blocking. A reader that finds the outbox held
//! flags that it is about to block, and the submit holding the outbox then
//! sends it as it lets go.
//!
//! ## What a request costs between caller and socket
//!
//! A request [`Request::check`] passes is framed in place into the outbox
//! and takes one entry of the connection's ticket slab, under the lock that
//! also tells whether the connection is idle; a [`Pending`] is that entry's
//! id and a handle on the connection. The reader reads each chunk straight
//! into its frame decoder and decodes replies where they lie, settles all
//! of one socket read under one lock of the slab, and unparks only waiters
//! that parked, after letting it go. Once the slab and buffers have grown to the
//! pipeline, a pipelined request allocates nothing.
//!
//! Connection death (peer reset, protocol violation, server shutdown racing
//! a read, a failed write — the queued requests of other callers included)
//! surfaces as [`ServiceError::Disconnected`] / [`ServiceError::Protocol`]
//! on every outstanding and subsequent call — the same error enum
//! in-process callers see, per the design's "errors cross the wire as
//! values" rule. The read or write that sees it settles every ticket,
//! which unparks every parked waiter.

use std::io::Write;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
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

/// Where a ticket stands: whichever thread reads its reply settles it once,
/// and its waiter parks on it only while it is still waiting.
enum State {
    /// Not in use; listed in [`Tickets::free`].
    Free,
    /// No reply yet; holds the waiter while it is parked for the read half.
    Waiting(Option<Thread>),
    Done(Response),
    /// The connection died first; [`Tickets::dead`] says why.
    Dead,
    /// Dropped unwaited: freed when its reply arrives or the connection dies.
    Dropped,
}

struct Entry {
    /// The high half of the entry's id, bumped each time it is freed.
    gen: u32,
    state: State,
}

/// Every ticket of a connection, one slab entry each. Its id is the entry's
/// generation above its index: unique per connection (a spent generation
/// retires its entry), never 0 (the server's channel) and never 1 (hello).
#[derive(Default)]
struct Tickets {
    slab: Vec<Entry>,
    free: Vec<u32>,
    /// Tickets submitted and neither taken nor dropped: the replies the
    /// connection owes. A submit finding none writes at once.
    owed: usize,
    /// Waiters registered as parked for the read half: giving it up wakes
    /// one, which is then registered no longer.
    parked: usize,
    /// Requests framed, for [`Client::wire_counts`].
    requests: u64,
    /// Set once on connection death; every later submit/wait returns it.
    dead: Option<ServiceError>,
}

impl Tickets {
    /// `id`'s state while its ticket lives.
    fn state(&mut self, id: u64) -> Option<&mut State> {
        let e = self.slab.get_mut(id as u32 as usize)?;
        let live = e.gen == (id >> 32) as u32 && !matches!(e.state, State::Free);
        live.then_some(&mut e.state)
    }

    /// A new ticket: its id, and whether the connection owed nothing before
    /// it.
    fn open(&mut self) -> Result<(u64, bool), ServiceError> {
        if let Some(e) = &self.dead {
            return Err(e.clone());
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slab.push(Entry {
                gen: 1,
                state: State::Free,
            });
            u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 requests in flight")
        });
        let e = &mut self.slab[idx as usize];
        e.state = State::Waiting(None);
        self.owed += 1;
        self.requests += 1;
        Ok(((u64::from(e.gen) << 32) | u64::from(idx), self.owed == 1))
    }

    fn free(&mut self, idx: u32) {
        let e = &mut self.slab[idx as usize];
        e.state = State::Free;
        if let Some(gen) = e.gen.checked_add(1) {
            e.gen = gen;
            self.free.push(idx);
        }
    }

    /// `id`'s reply once settled, which frees its entry.
    fn take(&mut self, id: u64) -> Option<Result<Response, ServiceError>> {
        let state = self.state(id).expect("a ticket's entry lives until taken");
        let reply = match std::mem::replace(state, State::Free) {
            State::Done(resp) => Ok(resp),
            State::Dead => Err(self.dead.clone().expect("set before any entry dies")),
            waiting => {
                *state = waiting;
                return None;
            }
        };
        self.owed -= 1;
        self.free(id as u32);
        Some(reply)
    }

    /// `id`'s ticket is gone unwaited: owed no longer, its entry awaits the reply.
    fn drop_ticket(&mut self, id: u64) {
        match self.state(id) {
            Some(state @ State::Waiting(_)) => *state = State::Dropped,
            Some(_) => self.free(id as u32),
            None => return,
        }
        self.owed -= 1;
    }

    /// Every waiter wakes to a dead entry and reads `dead` for the cause.
    fn fail_all(&mut self, err: ServiceError) {
        self.dead.get_or_insert(err);
        self.parked = 0;
        for idx in 0..self.slab.len() {
            match std::mem::replace(&mut self.slab[idx].state, State::Dead) {
                State::Waiting(waiter) => waiter.iter().for_each(Thread::unpark),
                State::Dropped => self.free(idx as u32),
                other => self.slab[idx].state = other,
            }
        }
    }
}

/// The write half and the frames queued behind an owed reply.
struct Outbox {
    sock: TcpStream,
    queued: Vec<u8>,
}

/// The read half: the socket and the decoder it reads into. Only ever
/// try-locked; whoever holds it reads for every ticket.
struct Inbox {
    sock: TcpStream,
    dec: FrameDecoder,
    /// Waiters of replies just settled, unparked once the tickets' lock goes.
    wake: Vec<Thread>,
}

/// What submitters and tickets share. Blocking lock order is outbox, then
/// the tickets; the read half is only try-locked, and its holder only
/// try-locks the outbox ([`Wire::try_outbox`]).
struct Wire {
    tickets: Mutex<Tickets>,
    /// Set by the holder of the read half when it found the outbox held
    /// right before a blocking read: the submit holding it, if it only
    /// queued, sends the outbox as soon as it lets go.
    flush_wanted: AtomicBool,
    out: Mutex<Outbox>,
    inbox: Mutex<Inbox>,
    writes: AtomicU64,
}

impl Wire {
    /// Frames `req` in place into the outbox under a new ticket and returns
    /// its id. It leaves at once when the connection owed nothing before
    /// it, or when it fills the outbox.
    fn send(&self, req: &Request) -> Result<u64, ServiceError> {
        req.check()?;
        let mut out = lock(&self.out);
        let (id, idle) = lock(&self.tickets).open()?;
        frame_into(&mut out.queued, |o| req.encode_into(id, o))
            .expect("a request `check` passes fits a frame");
        if !idle && out.queued.len() < WRITE_COALESCE {
            drop(out);
            // The holder of the read half may have found the outbox held
            // here and be blocked in a read that waits on what is queued.
            // This fence pairs with the one in `try_outbox`.
            fence(Ordering::SeqCst);
            if self.flush_wanted.load(Ordering::Relaxed)
                && self.flush_wanted.swap(false, Ordering::Relaxed)
            {
                self.flush();
            }
            return Ok(id);
        }
        if !self.write_out(&mut out, None) {
            let _ = lock(&self.tickets).take(id);
            return Err(self.dead());
        }
        Ok(id)
    }

    /// Writes whatever is queued.
    fn flush(&self) {
        let mut out = lock(&self.out);
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
                    if !reader.read_once() || reader.settle_decoded(0).is_none() {
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
                lock(&self.tickets).fail_all(e);
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
        // With the fence a queuing submit makes after it lets the outbox
        // go: either it sees the flag, or it let go before the second try
        // below, which then cannot fail on it.
        self.flush_wanted.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let out = try_lock(&self.out)?;
        // This thread sends what is queued itself.
        self.flush_wanted.store(false, Ordering::Relaxed);
        Some(out)
    }

    fn try_read_half(&self) -> Option<ReadHalf<'_>> {
        try_lock(&self.inbox).map(|inbox| ReadHalf {
            wire: self,
            inbox: Some(inbox),
        })
    }

    /// Blocks until `id` is settled and takes its reply: reading for every
    /// ticket while this thread holds the read half, parked while another
    /// thread does.
    fn wait_for(&self, id: u64) -> Result<Response, ServiceError> {
        loop {
            let half = {
                let mut t = lock(&self.tickets);
                if let Some(reply) = t.take(id) {
                    return reply;
                }
                // Under the tickets' lock, so a holder giving the read half
                // up either is seen here or sees this waiter registered.
                let half = self.try_read_half();
                if let (None, Some(State::Waiting(waiter @ None))) = (&half, t.state(id)) {
                    *waiter = Some(std::thread::current());
                    t.parked += 1;
                }
                half
            };
            match half {
                Some(mut half) => half.read_until(id),
                None => {
                    // Right before a park: what this thread queued may be
                    // what the holder's read is waiting on.
                    self.flush();
                    std::thread::park();
                }
            }
        }
    }

    fn dead(&self) -> ServiceError {
        lock(&self.tickets)
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
        let mut t = lock(&self.wire.tickets);
        if t.parked > 0 {
            t.parked -= 1;
            let parked = t.slab.iter_mut().find_map(|e| match &mut e.state {
                State::Waiting(waiter) => waiter.take(),
                _ => None,
            });
            parked.iter().for_each(Thread::unpark);
        }
    }
}

impl ReadHalf<'_> {
    fn inbox(&mut self) -> &mut Inbox {
        self.inbox.as_mut().expect("held until dropped")
    }

    /// Reads and settles every ticket's replies until `id` is settled.
    /// Before each blocking read it sends what is queued, unless another
    /// thread holds the outbox: then that thread sends it.
    fn read_until(&mut self, id: u64) {
        let wire = self.wire;
        while self.settle_decoded(id) == Some(true) {
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
        let Inbox { sock, dec, .. } = self.inbox();
        let err = match dec.read_from(sock) {
            Ok(0) => ServiceError::Disconnected("server closed the connection".to_string()),
            Ok(_) => return true,
            Err(e) => io_err("recv", e),
        };
        lock(&self.wire.tickets).fail_all(err);
        false
    }

    /// Settles every reply the decoder holds, decoded straight from its
    /// buffer, under one lock of the tickets, then unparks their parked
    /// waiters. Whether ticket `mine` (0: none) is still waiting; `None`
    /// once the connection is dead, failed here if the stream broke.
    fn settle_decoded(&mut self, mine: u64) -> Option<bool> {
        let wire = self.wire;
        let Inbox { dec, wake, .. } = self.inbox();
        let mut t = lock(&wire.tickets);
        let err = loop {
            let payload = match dec.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break None,
                Err(e) => break Some(ServiceError::Protocol(e.to_string())),
            };
            match Response::decode(payload) {
                // Id 0 is the server's connection-level error channel:
                // fatal.
                Ok((0, Response::Err(e))) => break Some(e),
                Ok((0, other)) => break Some(unexpected(&other)),
                Ok((id, resp)) => match t.state(id) {
                    Some(state @ State::Waiting(_)) => {
                        if let State::Waiting(Some(waiter)) =
                            std::mem::replace(state, State::Done(resp))
                        {
                            t.parked -= 1;
                            wake.push(waiter);
                        }
                    }
                    Some(State::Dropped) => t.free(id as u32),
                    _ => {
                        break Some(ServiceError::Protocol(format!(
                            "response for unknown request id {id}"
                        )))
                    }
                },
                Err(e) => break Some(e),
            }
        };
        if let Some(err) = err {
            t.fail_all(err);
        }
        let waiting = t
            .dead
            .is_none()
            .then(|| matches!(t.state(mine), Some(State::Waiting(_))));
        drop(t);
        wake.drain(..).for_each(|waiter| waiter.unpark());
        waiting
    }
}

struct Mux {
    wire: Arc<Wire>,
    /// Original stream, for shutdown on drop.
    stream: TcpStream,
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
    /// 0 once [`Pending::wait`] has taken the reply.
    id: u64,
    wire: Arc<Wire>,
}

impl Drop for Pending {
    fn drop(&mut self) {
        if self.id != 0 {
            lock(&self.wire.tickets).drop_ticket(self.id);
            // Its request may still be in the outbox, and nobody will wait
            // for it.
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
        let reply = self.wire.wait_for(self.id);
        self.id = 0;
        match reply? {
            Response::Err(e) => Err(e),
            r => Ok(r),
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
        let (id, resp) = loop {
            match dec.next_frame() {
                Ok(Some(p)) => break Response::decode(p)?,
                Ok(None) => {}
                Err(e) => return Err(ServiceError::Protocol(e.to_string())),
            }
            let read = dec.read_from(&mut handshake);
            if read.map_err(|e| io_err("handshake recv", e))? == 0 {
                let closed = "server closed during handshake".to_string();
                return Err(ServiceError::Disconnected(closed));
            }
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
                    tickets: Mutex::default(),
                    flush_wanted: AtomicBool::new(false),
                    out: Mutex::new(Outbox {
                        sock: write,
                        queued: Vec::new(),
                    }),
                    inbox: Mutex::new(Inbox {
                        sock: handshake,
                        dec,
                        wake: Vec::new(),
                    }),
                    writes: AtomicU64::new(0),
                }),
                stream,
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
            requests: lock(&wire.tickets).requests,
            writes: wire.writes.load(Ordering::Relaxed),
        }
    }

    /// Submits a raw request without waiting: written at once on an idle
    /// connection, queued behind an owed reply otherwise (see the module
    /// doc for when it leaves). Prefer the typed wrappers.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Disconnected`] when the connection is already dead or
    /// the write this submit issued fails; [`ServiceError::Protocol`] for a
    /// request [`Request::check`] refuses or one too large for a frame.
    pub fn submit(&self, req: Request) -> Result<Pending, ServiceError> {
        let wire = &self.mux.wire;
        let id = wire.send(&req)?;
        Ok(Pending {
            id,
            wire: Arc::clone(wire),
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
