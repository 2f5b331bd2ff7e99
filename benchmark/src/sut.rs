//! The system under test, behind one adapter.
//!
//! This is the only file of the benchmark that names `terp_*` items, and it
//! sticks to the API the ROADMAP's refactors keep: `ServiceConfig::{new,
//! with_shards, with_durable, with_visibility, with_trace}`, the server and
//! service window/data calls and `report()`, the net server, client and
//! codec, the persistent map and queue over `ServiceMem`, and the repl pair.
//! It deliberately stays off every knob those refactors delete (the unit
//! test `sut_stays_off_doomed_api` holds it to that), so the yardstick can
//! not block the PRs it is there to measure.

use std::cell::RefCell;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use terp_core::config::Scheme;
use terp_net::{encode_frame, Client, FrameDecoder, NetServer, Pending, Request, Response};
use terp_pmo::{ObjectId, OpenMode, Permission, PmoId};
use terp_repl::{ReplFollower, ReplFollowerConfig, ReplLeader, ReplLeaderConfig};
use terp_service::{
    PmoServer, PmoService, ServiceConfig, ServiceError, Sweeper, TraceConfig, Visibility,
};
use terp_structures::{DsError, DsMem, HashMap, Queue, ServiceMem};

use crate::span::SpanLog;

/// Shards of every configuration the benchmark runs: one per core of the
/// 2-core reference box.
pub const SHARDS: usize = 2;

/// The flush policy, as the outputs state it.
pub const FLUSH_POLICY: &str = "durable workloads: ServiceConfig::new(TT).with_shards(2)\
.with_durable(dir).with_visibility(Durable) and nothing else - the default log writer, and a \
mutating call is acknowledged only once its log record is fsynced (ack = on media)";

pub type Pool = PmoId;
pub type Obj = ObjectId;
pub type SutError = ServiceError;
pub type KvError = DsError;
pub use terp_structures::DsMem as Mem;

/// Which of the fixed configurations to start.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Durable directory; `None` is the in-memory service.
    pub durable: Option<PathBuf>,
    /// Run with the flight recorder on.
    pub flight: bool,
    /// `Scheme::Unprotected` instead of TT (only for the paper's overhead
    /// ratio).
    pub unprotected: bool,
}

impl Config {
    pub fn memory() -> Self {
        Config::default()
    }

    pub fn durable(dir: &Path) -> Self {
        Config {
            durable: Some(dir.to_path_buf()),
            ..Config::default()
        }
    }

    pub fn with_flight(mut self, flight: bool) -> Self {
        self.flight = flight;
        self
    }

    fn build(&self) -> ServiceConfig {
        let scheme = if self.unprotected {
            Scheme::Unprotected
        } else {
            Scheme::terp_full()
        };
        let mut cfg = ServiceConfig::new(scheme).with_shards(SHARDS);
        if let Some(dir) = &self.durable {
            cfg = cfg.with_durable(dir).with_visibility(Visibility::Durable);
        }
        if self.flight {
            cfg = cfg.with_trace(TraceConfig::flight());
        }
        cfg
    }
}

/// Exposure-window target of the fixed configuration, µs.
pub fn ew_target_us() -> f64 {
    Config::memory().build().ew_target_us as f64
}

/// The slice of the service's own report the benchmark turns into metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Report {
    pub ops: u64,
    pub denials: u64,
    pub silent_frac: f64,
    pub attach_syscalls: u64,
    pub randomizations: u64,
    pub ew_count: u64,
    pub ew_avg_us: f64,
    pub ew_max_us: f64,
    pub tew_avg_us: f64,
}

impl Report {
    /// Mean length, µs, of the exposure windows closed since `earlier`.
    pub fn ew_avg_us_since(&self, earlier: &Report) -> f64 {
        let closed = self.ew_count.saturating_sub(earlier.ew_count);
        let total =
            self.ew_avg_us * self.ew_count as f64 - earlier.ew_avg_us * earlier.ew_count as f64;
        total.max(0.0) / closed.max(1) as f64
    }
}

/// What start-up recovery found.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recovery {
    pub records_replayed: u64,
    pub windows_resealed: u64,
    pub torn_tails: u64,
    pub txns_rolled_back: u64,
}

/// A cheap, clonable handle for issuing in-process calls.
#[derive(Clone)]
pub struct Svc(Arc<PmoService>);

impl Svc {
    pub fn create_pool(&self, name: &str, size: u64) -> Result<Pool, SutError> {
        self.0.create_pool(name, size, OpenMode::ReadWrite)
    }

    #[inline]
    pub fn attach(&self, client: usize, pool: Pool) -> Result<(), SutError> {
        self.0.attach(client, pool, Permission::ReadWrite)
    }

    #[inline]
    pub fn detach(&self, client: usize, pool: Pool) -> Result<(), SutError> {
        self.0.detach(client, pool)
    }

    pub fn alloc(&self, client: usize, pool: Pool, size: u64) -> Result<Obj, SutError> {
        self.0.alloc(client, pool, size)
    }

    #[inline]
    pub fn write(&self, client: usize, obj: Obj, data: &[u8]) -> Result<(), SutError> {
        self.0.write(client, obj, data)
    }

    #[inline]
    pub fn read_into(&self, client: usize, obj: Obj, buf: &mut [u8]) -> Result<(), SutError> {
        self.0.read_into(client, obj, buf)
    }

    pub fn mem(&self, client: usize) -> ServiceMem<'_> {
        ServiceMem::new(&self.0, client)
    }

    pub fn report(&self) -> Report {
        let r = self.0.report();
        Report {
            ops: r.ops.total(),
            denials: r.ops.denials,
            silent_frac: r.cond.silent_fraction(),
            attach_syscalls: r.attach_syscalls,
            randomizations: r.randomizations,
            ew_count: r.ew.count,
            ew_avg_us: r.ew.avg_cycles / 1e3,
            ew_max_us: r.ew.max_cycles as f64 / 1e3,
            tew_avg_us: r.tew.avg_cycles / 1e3,
        }
    }

    pub fn recovery(&self) -> Option<Recovery> {
        self.0.recovery_stats().map(|r| Recovery {
            records_replayed: r.records_replayed,
            windows_resealed: r.windows_resealed,
            torn_tails: r.torn_tails,
            txns_rolled_back: r.txns_rolled_back,
        })
    }

    /// Flight-recorder totals `(events recorded, events overwritten)`, when
    /// the recorder is on.
    pub fn trace_counts(&self) -> Option<(u64, u64)> {
        self.0.tracer().map(|t| {
            let snap = t.snapshot();
            let dropped = snap.total_dropped();
            (snap.total_events() as u64 + dropped, dropped)
        })
    }
}

enum Life {
    Server(PmoServer),
    /// Service and sweeper held apart, so the instance can die without the
    /// drain and checkpoint a `PmoServer` always runs.
    Killable(Option<Sweeper>),
}

/// An in-process service instance.
pub struct Inproc {
    svc: Svc,
    life: Life,
}

impl Inproc {
    pub fn start(cfg: &Config) -> Result<Inproc, SutError> {
        let server = PmoServer::try_start(cfg.build())?;
        Ok(Inproc {
            svc: Svc(server.service()),
            life: Life::Server(server),
        })
    }

    /// The same service and sweeper threads as [`Inproc::start`], but one
    /// that [`Inproc::kill`] can stop dead.
    pub fn start_killable(cfg: &Config) -> Result<Inproc, SutError> {
        let cfg = cfg.build();
        let period = cfg.sweep_period_us;
        let svc = Arc::new(PmoService::try_new(cfg)?);
        let sweeper = (period > 0).then(|| Sweeper::spawn(Arc::clone(&svc), period));
        Ok(Inproc {
            svc: Svc(svc),
            life: Life::Killable(sweeper),
        })
    }

    pub fn svc(&self) -> Svc {
        self.svc.clone()
    }

    /// Clean shutdown: drain and checkpoint.
    ///
    /// # Panics
    ///
    /// On a killable instance, which has no clean shutdown.
    pub fn shutdown(self) {
        match self.life {
            Life::Server(server) => {
                server.shutdown();
            }
            Life::Killable(_) => panic!("a killable instance is killed, not shut down"),
        }
    }

    /// Process death, as near as one process can stage it: the sweeper
    /// stops, nothing drains, nothing checkpoints, open windows stay open on
    /// disk.
    pub fn kill(self) {
        match self.life {
            Life::Killable(sweeper) => {
                if let Some(s) = sweeper {
                    s.stop();
                }
            }
            // A dropped `PmoServer` leaks its sweeper thread, which would
            // keep journaling into the "dead" directory.
            Life::Server(_) => panic!("only a killable instance can be killed"),
        }
    }
}

/// A service behind the TCP front-end on loopback.
pub struct Wire {
    net: NetServer,
}

impl Wire {
    pub fn start(cfg: &Config) -> Result<Wire, SutError> {
        let server = PmoServer::try_start(cfg.build())?;
        let net = NetServer::start(server, "127.0.0.1:0")
            .map_err(|e| ServiceError::Disconnected(format!("bind loopback: {e}")))?;
        Ok(Wire { net })
    }

    pub fn addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    pub fn svc(&self) -> Svc {
        Svc(self.net.service())
    }

    pub fn shutdown(self) {
        self.net.shutdown();
    }
}

/// Well-formed ids for exercising the codec, which never looks them up.
pub fn sample_ids() -> (Pool, Obj) {
    let pool = PmoId::new(1).expect("1 is a valid pool id");
    (pool, ObjectId::new(pool, 64))
}

/// One request of the wire workloads.
#[derive(Debug, Clone, Copy)]
pub enum Req<'a> {
    Attach(Pool),
    Detach(Pool),
    Read(Obj, u32),
    Write(Obj, &'a [u8]),
    Ping,
}

impl Req<'_> {
    fn to_wire(self) -> Request {
        match self {
            Req::Attach(pmo) => Request::Attach {
                pmo,
                perm: Permission::ReadWrite,
            },
            Req::Detach(pmo) => Request::Detach { pmo },
            Req::Read(oid, len) => Request::Read { oid, len },
            Req::Write(oid, data) => Request::Write {
                oid,
                data: data.to_vec(),
            },
            Req::Ping => Request::Ping,
        }
    }
}

/// What came back.
#[derive(Debug)]
pub enum Reply {
    Done,
    Data(Vec<u8>),
}

/// One client connection.
pub struct Conn(Client);

impl Conn {
    pub fn connect(addr: SocketAddr, client: u64) -> Result<Conn, SutError> {
        Client::connect(addr, client).map(Conn)
    }

    #[inline]
    pub fn submit(&self, req: Req<'_>) -> Result<Ticket, SutError> {
        self.0.submit(req.to_wire()).map(Ticket)
    }

    pub fn create_pool(&self, name: &str, size: u64) -> Result<Pool, SutError> {
        self.0.create_pool(name, size, OpenMode::ReadWrite)
    }

    pub fn alloc(&self, pool: Pool, size: u64) -> Result<Obj, SutError> {
        self.0.alloc(pool, size)
    }
}

/// An in-flight request.
pub struct Ticket(Pending);

impl Ticket {
    #[inline]
    pub fn wait(self) -> Result<Reply, SutError> {
        match self.0.wait()? {
            Response::Data(d) => Ok(Reply::Data(d)),
            Response::Unit | Response::Attached { .. } => Ok(Reply::Done),
            other => Err(ServiceError::Protocol(format!(
                "unexpected response kind: {other:?}"
            ))),
        }
    }
}

/// The wire codec with no wire: what a request and its response cost to
/// encode, frame, de-frame and decode.
#[derive(Default)]
pub struct Codec {
    dec: FrameDecoder,
}

impl Codec {
    /// Round-trips `req` and a response of the kind and size it gets.
    /// Returns the bytes that would have crossed the socket.
    pub fn round_trip(&mut self, req: Req<'_>, id: u64) -> usize {
        let resp = match req {
            Req::Attach(_) => Response::Attached { waited_ns: 0 },
            Req::Read(_, len) => Response::Data(vec![0xA5; len as usize]),
            Req::Detach(_) | Req::Write(..) | Req::Ping => Response::Unit,
        };
        let out = encode_frame(&req.to_wire().encode(id));
        self.dec.push(&out);
        let payload = self.dec.next_frame().expect("own frame").expect("whole");
        let (rid, decoded) = Request::decode(&payload).expect("own request");
        let back = encode_frame(&resp.encode(rid));
        self.dec.push(&back);
        let payload = self.dec.next_frame().expect("own frame").expect("whole");
        let decoded_resp = Response::decode(&payload).expect("own response");
        std::hint::black_box((decoded, decoded_resp));
        out.len() + back.len()
    }
}

/// Counters and spans a [`TimedMem`] collects for the structure op in
/// progress.
pub struct MemTrace {
    pub log: SpanLog,
    /// Request id and span id of the structure op the calls belong to.
    pub req: u64,
    pub parent: u64,
    pub calls: u64,
    pub child_ns: u64,
    pub cas: u64,
    pub cas_failed: u64,
}

impl MemTrace {
    pub fn new(log: SpanLog) -> RefCell<MemTrace> {
        RefCell::new(MemTrace {
            log,
            req: 0,
            parent: 0,
            calls: 0,
            child_ns: 0,
            cas: 0,
            cas_failed: 0,
        })
    }
}

/// A memory that records one child span per call into the memory below:
/// how a structure op's time splits between the structure's own code and the
/// service (and, in durable mode, the log) under it.
pub struct TimedMem<'a, M: DsMem> {
    inner: M,
    trace: &'a RefCell<MemTrace>,
}

impl<'a, M: DsMem> TimedMem<'a, M> {
    pub fn new(inner: M, trace: &'a RefCell<MemTrace>) -> Self {
        TimedMem { inner, trace }
    }

    fn timed<R>(&self, name: &'static str, call: impl FnOnce(&M) -> R) -> R {
        let t0 = self.trace.borrow().log.now();
        let out = call(&self.inner);
        let mut t = self.trace.borrow_mut();
        let (req, parent) = (t.req, t.parent);
        let t1 = t.log.child(req, parent, "service", name, t0);
        t.calls += 1;
        t.child_ns += t1 - t0;
        out
    }
}

impl<M: DsMem> DsMem for TimedMem<'_, M> {
    fn alloc(&self, pmo: PmoId, size: u64) -> Result<ObjectId, DsError> {
        self.timed("mem.alloc", |m| m.alloc(pmo, size))
    }

    fn free(&self, oid: ObjectId) -> Result<(), DsError> {
        self.timed("mem.free", |m| m.free(oid))
    }

    fn read(&self, oid: ObjectId, buf: &mut [u8]) -> Result<(), DsError> {
        self.timed("mem.read", |m| m.read(oid, buf))
    }

    fn write(&self, oid: ObjectId, data: &[u8]) -> Result<(), DsError> {
        self.timed("mem.write", |m| m.write(oid, data))
    }

    fn cas_u64(&self, oid: ObjectId, expected: u64, new: u64) -> Result<u64, DsError> {
        let seen = self.timed("mem.cas", |m| m.cas_u64(oid, expected, new))?;
        let mut t = self.trace.borrow_mut();
        t.cas += 1;
        t.cas_failed += u64::from(seen != expected);
        Ok(seen)
    }

    fn set_root(&self, pmo: PmoId, key: u32, oid: Option<ObjectId>) -> Result<(), DsError> {
        self.timed("mem.set_root", |m| m.set_root(pmo, key, oid))
    }

    fn root(&self, pmo: PmoId, key: u32) -> Result<Option<ObjectId>, DsError> {
        self.timed("mem.root", |m| m.root(pmo, key))
    }
}

const MAP_ROOT: u32 = 1;
const QUEUE_ROOT: u32 = 2;

/// Queues of [`Kv`]: one per client thread.
pub const KV_QUEUES: usize = 2;

/// The persistent structures of `kv_durable`, in one pool: one map shared by
/// the client threads and a queue for each of them.
///
/// The queues are private on purpose. The Michael-Scott queue frees a node
/// two dequeues after it left the queue (DESIGN.md §15 documents the reuse
/// window this leaves), so a second thread working on the same queue can,
/// after a long enough stall, act on a block that has since been reused. A
/// benchmark has to be a workload on which no operation fails; each thread
/// keeps to its own queue, and every answer can be checked exactly.
#[derive(Clone, Copy)]
pub struct Kv {
    map: HashMap,
    queues: [Queue; KV_QUEUES],
}

impl Kv {
    pub fn create(mem: &impl DsMem, pool: Pool, clients: u32, buckets: u32) -> Result<Kv, KvError> {
        Ok(Kv {
            map: HashMap::create(mem, pool, clients, buckets, MAP_ROOT)?,
            queues: [
                Queue::create(mem, pool, clients, QUEUE_ROOT)?,
                Queue::create(mem, pool, clients, QUEUE_ROOT + 1)?,
            ],
        })
    }

    /// Re-finds the structures through the pool's root directory.
    pub fn attach(mem: &impl DsMem, pool: Pool) -> Result<Kv, KvError> {
        Ok(Kv {
            map: HashMap::attach(mem, pool, MAP_ROOT)?,
            queues: [
                Queue::attach(mem, pool, QUEUE_ROOT)?,
                Queue::attach(mem, pool, QUEUE_ROOT + 1)?,
            ],
        })
    }

    /// The structures' own post-crash pass. Returns `(operations completed,
    /// operations rolled back)`.
    pub fn recover(&self, mem: &impl DsMem) -> Result<(usize, usize), KvError> {
        let mut out = self.map.recover(mem)?;
        for q in &self.queues {
            out.merge(q.recover(mem)?);
        }
        Ok((out.completed, out.rolled_back))
    }

    #[inline]
    pub fn get(&self, mem: &impl DsMem, key: u64) -> Result<Option<u64>, KvError> {
        self.map.get(mem, key)
    }

    #[inline]
    pub fn insert(&self, mem: &impl DsMem, c: u32, key: u64, value: u64) -> Result<(), KvError> {
        self.map.insert(mem, c, key, value).map(|_| ())
    }

    #[inline]
    pub fn remove(&self, mem: &impl DsMem, c: u32, key: u64) -> Result<Option<u64>, KvError> {
        self.map.remove(mem, c, key).map(|r| r.value)
    }

    /// Enqueues on client `c`'s own queue.
    #[inline]
    pub fn enqueue(&self, mem: &impl DsMem, c: u32, value: u64) -> Result<(), KvError> {
        self.queues[c as usize % KV_QUEUES]
            .enqueue(mem, c, value)
            .map(|_| ())
    }

    /// Dequeues from client `c`'s own queue.
    #[inline]
    pub fn dequeue(&self, mem: &impl DsMem, c: u32) -> Result<Option<u64>, KvError> {
        self.queues[c as usize % KV_QUEUES]
            .dequeue(mem, c)
            .map(|r| r.value)
    }

    /// Every live `(key, value)` of the map.
    pub fn items(&self, mem: &impl DsMem) -> Result<Vec<(u64, u64)>, KvError> {
        self.map.items(mem)
    }

    /// Client `c`'s queue, front first.
    pub fn queued(&self, mem: &impl DsMem, c: u32) -> Result<Vec<u64>, KvError> {
        self.queues[c as usize % KV_QUEUES].items(mem)
    }
}

/// The log-shipping side of a durable leader.
pub struct Leader(ReplLeader);

impl Leader {
    pub fn start(dir: &Path) -> Result<Leader, SutError> {
        ReplLeader::start(ReplLeaderConfig::new(dir, SHARDS), "127.0.0.1:0").map(Leader)
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// A warm standby mirroring a [`Leader`] over loopback.
pub struct Follower(ReplFollower);

impl Follower {
    pub fn start(leader: SocketAddr, dir: &Path) -> Follower {
        Follower(ReplFollower::start(ReplFollowerConfig::new(leader, dir, 1)))
    }

    /// Bootstrapped on every shard and level with what the leader has
    /// advertised.
    pub fn caught_up(&self) -> bool {
        self.0.is_caught_up()
    }

    /// Windows the standby has seen the leader open and not close.
    pub fn open_windows(&self) -> usize {
        self.0.open_windows()
    }

    /// Reads `obj` out of the standby's warm copy; `false` while the pool
    /// has not arrived yet.
    pub fn read(&self, obj: Obj, buf: &mut [u8]) -> bool {
        let shard = (obj.pmo().raw() as usize & (SHARDS - 1)) as u32;
        self.0
            .inspect(shard, |reg| {
                reg.pool(obj.pmo())
                    .and_then(|p| p.read_bytes(obj.offset(), buf))
                    .is_ok()
            })
            .unwrap_or(false)
    }

    /// Stops mirroring and discards the standby.
    pub fn shutdown(self) {
        self.0.shutdown();
    }

    /// Failover: stop mirroring, recover the mirror the ordinary durable
    /// way (resealing every window the leader died holding), start serving.
    pub fn promote(self, cfg: &Config) -> Result<Inproc, SutError> {
        let server = self.0.promote(cfg.build())?;
        Ok(Inproc {
            svc: Svc(server.service()),
            life: Life::Server(server),
        })
    }
}

#[cfg(test)]
mod tests {
    /// The "delete the loser" refactors remove these; the yardstick must not
    /// be what keeps them alive. And no other file may reach past this one.
    #[test]
    fn sut_stays_off_doomed_api() {
        let src = env!("CARGO_MANIFEST_DIR").to_string() + "/src";
        let sut = std::fs::read_to_string(format!("{src}/sut.rs")).unwrap();
        // Split so this list does not find itself.
        let doomed = [
            ["with_", "fastpath"],
            ["Wal", "Mode"],
            ["Fsync", "Policy"],
            ["Durable", "Config"],
            ["Durable", "Store"],
            ["Local", "Mem"],
            ["pmo::", "collections"],
            ["Latency", "Histogram"],
            ["for_", "tests"],
        ];
        for [a, b] in doomed {
            let name = format!("{a}{b}");
            assert!(!sut.contains(&name), "sut.rs names {name}");
        }

        let mut stack = vec![std::path::PathBuf::from(&src)];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.file_name().unwrap() != "sut.rs" {
                    let text = std::fs::read_to_string(&path).unwrap();
                    let needle = ["terp", "_"].concat();
                    let hit = text
                        .lines()
                        .find(|l| !l.trim_start().starts_with("//") && l.contains(&needle));
                    assert!(hit.is_none(), "{} names {:?}", path.display(), hit);
                }
            }
        }
    }
}
