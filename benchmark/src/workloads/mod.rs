//! The five workloads and the drivers they share.
//!
//! Every workload has the same skeleton, so every end-to-end metric means
//! something on each of them: set up (repeated, `setup_s`) → a latency
//! reading and a rate (`p50_us`, `tput_ops_s`, and the ungated
//! `cpu_us_per_op` and `ew_avg_us`; on the wire two phases, depth 1 and
//! saturation, in process one closed-loop phase of one thread) → stop and
//! restart (`recover_ms`), with the flight recorder on → the load again
//! (`tput_flight_ops_s`). One thread drives every end-to-end phase.
//! Outputs are checked all the way through; a wrong answer is a failed op.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::gen::{fill_payload, Op, WindowGen};
use crate::hist::Hist;
use crate::host::Load;
use crate::measure::{timed_ms, with_disk, Around, Disk, Lane, Phase, Slice};
use crate::metrics;
use crate::span::{Span, SpanLog};
use crate::sut::{Conn, Obj, Pool, Reply, Req, SutError, Svc, Ticket};

pub mod crash_recover;
pub mod inproc_hot;
pub mod kv_durable;
mod wire;
pub mod wire_durable;
pub mod wire_rw;

/// Spans kept per thread for the dump; histograms see every span.
pub const SPAN_CAP: usize = 20_000;

/// What a run was asked to do.
pub struct Ctx {
    pub seed: u64,
    /// Seconds of measuring the run's timed phases add up to.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, for the ≤ 1 s per workload smoke run.
    pub smoke: bool,
    /// Private scratch directory of this run, under `benchmark/out/data/`.
    pub data_root: PathBuf,
    /// Makes one expected value wrong, to prove a wrong answer fails the run.
    pub corrupt: bool,
}

impl Ctx {
    /// `share` of the measuring budget.
    pub fn dur(&self, share: f64) -> Duration {
        Duration::from_secs_f64((self.seconds * share).max(0.01))
    }

    /// `full` normally, `small` in a smoke run.
    pub fn size(&self, full: u64, small: u64) -> u64 {
        if self.smoke {
            small
        } else {
            full
        }
    }

    /// The disk the run's data lives on, for timing it.
    pub fn disk(&self) -> Disk {
        let burst_ms = self.size(40, 3);
        Disk::beside(&self.data_root, Duration::from_millis(burst_ms))
    }

    /// A fresh, empty directory under the run's scratch root.
    pub fn dir(&self, tag: &str) -> PathBuf {
        let dir = self.data_root.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create data dir");
        dir
    }
}

/// One slice as the output file shows it.
pub struct SliceNote {
    pub ops_s: f64,
    pub p50_us: f64,
    /// Cost of the reference work around the slice over its reference.
    pub ref_work_cost: f64,
    pub disk_calm: bool,
}

/// What a run found.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// First few reasons a check failed, for the log.
    pub failures: Vec<String>,
    pub load: Load,
    pub spans: Vec<Span>,
    /// Extra figures for the output file that are not registered metrics
    /// (sample counts, tails of the untraced run).
    pub extra: Vec<(String, f64)>,
    /// Per-slice figures of every timed phase as measured, for whoever wants
    /// to look at a run's noise.
    pub slices: Vec<(String, Vec<SliceNote>)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(metrics::find(name).is_some(), "unregistered metric {name}");
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.extra.push((name.to_string(), value));
    }

    /// Folds a batch of checked operations in.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 8 {
            self.failures
                .push(format!("{what}: {failed} of {attempted} wrong"));
        }
    }

    /// One yes/no verification.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.tally(1, u64::from(!ok), what);
    }

    pub fn phase(&mut self, name: &str, length: f64, what: &str) {
        self.load
            .phases
            .push((name.to_string(), length, what.to_string()));
    }

    /// Books a finished timed phase: its length for the host block, its ops
    /// and failures, and what it measured before the host was taken out.
    pub fn timed(&mut self, name: &str, p: &Phase, what: &str) {
        self.phase(name, p.secs(), what);
        self.tally(p.total_ops(), p.failed(), name);
        self.note(&format!("{name}.raw_tput_ops_s"), p.raw_tput());
        self.note(&format!("{name}.raw_p50_us"), p.raw_p50_us());
        let timed = if p.disk_timed { "disk" } else { "cpu" };
        self.note(&format!("{name}.{timed}_factor"), p.cost());
        self.note(&format!("{name}.slices_left_out"), p.left_out() as f64);
        self.note(&format!("{name}.raw_ew_avg_us"), p.raw_aux_us());
        let each = p
            .slices
            .iter()
            .map(|s| SliceNote {
                ops_s: s.ops as f64 / s.secs,
                p50_us: s.lat.p50_us(),
                ref_work_cost: s.cost,
                disk_calm: s.calm,
            })
            .collect();
        self.slices.push((name.to_string(), each));
    }

    /// Service-report figures every workload reports the same way.
    pub fn service_report(&mut self, r: &crate::sut::Report, over_s: f64) {
        self.set("service.silent_frac", r.silent_frac);
        self.set(
            "service.attach_syscalls_per_kop",
            r.attach_syscalls as f64 * 1e3 / r.ops.max(1) as f64,
        );
        self.set(
            "service.randomizations_per_s",
            r.randomizations as f64 / over_s.max(1e-9),
        );
        self.set("service.ew_max_us", r.ew_max_us);
        self.set(
            "service.ew_max_over_target",
            r.ew_max_us / crate::sut::ew_target_us(),
        );
        self.set("service.tew_avg_us", r.tew_avg_us);
        self.set("service.denials", r.denials as f64);
    }
}

/// Sets a system up repeatedly and returns the last instance and every
/// set-up's time in seconds (with the disk timed around it when given), for
/// [`steady_time`]: `make` builds instance `i`, `discard` tears a spare one
/// down.
pub fn repeated_setup<S>(
    ctx: &Ctx,
    disk: Option<&Disk>,
    mut make: impl FnMut(usize) -> S,
    mut discard: impl FnMut(S),
) -> (S, Vec<Around<f64>>) {
    let mut times: Vec<Around<f64>> = Vec::new();
    let mut total = 0.0;
    loop {
        let i = times.len();
        let (sut, timed) = with_disk(disk, || {
            let t0 = Instant::now();
            let sut = make(i);
            (sut, t0.elapsed().as_secs_f64())
        })
        .split();
        let dt = timed.out;
        times.push(timed);
        total += dt;
        // Cheap set-ups repeat until half a second is spent (at most 200
        // times); dear ones at least three times unless one alone takes a
        // second.
        let more =
            !ctx.smoke && times.len() < 200 && (total < 0.5 || (times.len() < 3 && dt < 1.0));
        if !more {
            return (sut, times);
        }
        discard(sut);
    }
}

/// Restarts and set-ups of throwaway in-memory instances, a few after every
/// slice of a run: the host slows everything for seconds at a time, and
/// repetitions made back to back all land in one such moment or all miss it.
#[derive(Default)]
pub struct Spares {
    pub cold_ms: Vec<f64>,
    pub setups: Vec<Around<f64>>,
}

impl Spares {
    /// `colds` cold starts (`cold` returns one's milliseconds) and one
    /// `setup`, timed here.
    pub fn sample(&mut self, colds: usize, cold: impl Fn() -> f64, setup: impl FnOnce()) {
        self.cold_ms.extend((0..colds).map(|_| cold()));
        let ((), ms) = timed_ms(setup);
        self.setups.push(with_disk(None, || ms / 1e3));
    }
}

/// One optional trace per worker: the traces given, or `n` times none.
pub fn trace_slots<T>(traces: Option<&mut Vec<T>>, n: usize) -> Vec<Option<&mut T>> {
    match traces {
        Some(v) => v.iter_mut().map(Some).collect(),
        None => (0..n).map(|_| None).collect(),
    }
}

/// Runs one slice and notes the mean length of the exposure windows the
/// service closed during it.
pub fn with_ew(svc: &Svc, slice: impl FnOnce() -> Slice) -> Slice {
    let before = svc.report();
    let mut s = slice();
    s.aux_us = svc.report().ew_avg_us_since(&before);
    s
}

/// One lane's pools and objects, and the model of what each object holds.
pub struct PoolSet {
    pub lane: u32,
    pub pools: Vec<Pool>,
    pub objs: Vec<Vec<Obj>>,
    pub payload: usize,
    /// Sequence of the last write submitted per (pool, object); 0 is the
    /// set-up prefill.
    pub last: Vec<Vec<u32>>,
    /// Writes submitted so far, prefill included.
    pub writes: u64,
}

impl PoolSet {
    fn pool_tag(&self, pool: u32) -> u32 {
        self.lane << 16 | pool
    }

    pub(super) fn fill(&self, buf: &mut [u8], pool: u32, obj: u32, seq: u32) {
        fill_payload(buf, self.pool_tag(pool), obj, seq);
    }

    /// Whether `data` is the payload of write `seq` to the object.
    pub fn matches(
        &self,
        pool: u32,
        obj: u32,
        seq: u32,
        data: &[u8],
        scratch: &mut Vec<u8>,
    ) -> bool {
        scratch.resize(self.payload, 0);
        self.fill(scratch, pool, obj, seq);
        data == &scratch[..]
    }

    /// Whether `data` is what the last write to the object left.
    pub fn holds(&self, pool: u32, obj: u32, data: &[u8], scratch: &mut Vec<u8>) -> bool {
        self.matches(
            pool,
            obj,
            self.last[pool as usize][obj as usize],
            data,
            scratch,
        )
    }

    fn new(lane: u32, s: Shape) -> PoolSet {
        PoolSet {
            lane,
            pools: Vec::new(),
            objs: Vec::new(),
            payload: s.payload,
            last: vec![vec![0; s.objects as usize]; s.pools as usize],
            writes: u64::from(s.pools * s.objects),
        }
    }

    /// Notes write `seq` to the object as submitted.
    pub(super) fn wrote(&mut self, pool: u32, obj: u32, seq: u32) {
        self.last[pool as usize][obj as usize] = seq;
        self.writes += 1;
    }

    /// Bytes of payload this lane has had acknowledged, prefill included.
    pub fn acked_bytes(&self) -> u64 {
        self.writes * self.payload as u64
    }

    /// Makes the model disagree with the system on one object.
    pub fn corrupt(&mut self) {
        self.last[0][0] += 1;
    }
}

/// Shape of a lane's data.
#[derive(Clone, Copy)]
pub struct Shape {
    pub pools: u32,
    pub objects: u32,
    pub payload: usize,
    pub pool_bytes: u64,
}

/// Creates and prefills a lane's pools through direct calls.
pub fn setup_inproc(
    svc: &Svc,
    client: usize,
    lane: u32,
    tag: &str,
    s: Shape,
) -> Result<PoolSet, SutError> {
    let mut set = PoolSet::new(lane, s);
    let mut buf = vec![0u8; s.payload];
    for p in 0..s.pools {
        let pool = svc.create_pool(&format!("{tag}-{lane}-{p}"), s.pool_bytes)?;
        svc.attach(client, pool)?;
        let mut objs = Vec::with_capacity(s.objects as usize);
        for o in 0..s.objects {
            let obj = svc.alloc(client, pool, s.payload as u64)?;
            set.fill(&mut buf, p, o, 0);
            svc.write(client, obj, &buf)?;
            objs.push(obj);
        }
        svc.detach(client, pool)?;
        set.pools.push(pool);
        set.objs.push(objs);
    }
    Ok(set)
}

/// Creates and prefills a lane's pools over its connection.
pub fn setup_wire(conn: &Conn, lane: u32, tag: &str, s: Shape) -> Result<PoolSet, SutError> {
    let mut set = PoolSet::new(lane, s);
    let mut buf = vec![0u8; s.payload];
    for p in 0..s.pools {
        let pool = conn.create_pool(&format!("{tag}-{lane}-{p}"), s.pool_bytes)?;
        conn.submit(Req::Attach(pool))?.wait()?;
        let mut objs = Vec::with_capacity(s.objects as usize);
        // Allocations answer with the object id, so they go one by one; the
        // prefill writes are pipelined behind them.
        for _ in 0..s.objects {
            objs.push(conn.alloc(pool, s.payload as u64)?);
        }
        let mut pending = VecDeque::new();
        for (o, &obj) in objs.iter().enumerate() {
            set.fill(&mut buf, p, o as u32, 0);
            pending.push_back(conn.submit(Req::Write(obj, &buf))?);
            if pending.len() >= 32 {
                pending.pop_front().expect("non-empty").wait()?;
            }
        }
        for t in pending {
            t.wait()?;
        }
        conn.submit(Req::Detach(pool))?.wait()?;
        set.pools.push(pool);
        set.objs.push(objs);
    }
    Ok(set)
}

/// Per-call timings and spans of a traced in-process drive.
pub struct CallTrace {
    pub log: SpanLog,
    pub attach: Hist,
    pub detach: Hist,
    pub read: Hist,
    pub write: Hist,
}

impl CallTrace {
    pub fn new(epoch: Instant, lane: u64) -> Self {
        CallTrace {
            log: SpanLog::new(epoch, lane, SPAN_CAP),
            attach: Hist::default(),
            detach: Hist::default(),
            read: Hist::default(),
            write: Hist::default(),
        }
    }

    /// Reads and writes together.
    pub fn data(&self) -> Hist {
        let mut h = self.read.clone();
        h.merge(&self.write);
        h
    }

    /// Every call.
    pub fn all(&self) -> Hist {
        let mut h = self.data();
        h.merge(&self.attach);
        h.merge(&self.detach);
        h
    }
}

/// Drives whole windows of `gen` through direct calls until the phase ends.
/// The latency sample is one window transaction; with `trace`, every call is
/// also timed and recorded as a `service` span under the window's span.
pub fn inproc_drive(
    svc: &Svc,
    client: usize,
    set: &mut PoolSet,
    gen: &mut WindowGen,
    lane: &mut Lane,
    mut trace: Option<&mut CallTrace>,
) {
    let mut wbuf = vec![0u8; set.payload];
    let mut rbuf = vec![0u8; set.payload];
    let mut scratch = Vec::new();
    let window = u64::from(gen.window_len());
    let mut req = 0u64;
    let mut t0 = Instant::now();
    while lane.open_at(t0) {
        req += 1;
        let mut bad = 0u64;
        let (root, root_start) = match trace.as_deref_mut() {
            Some(t) => (t.log.id(), t.log.now()),
            None => (0, 0),
        };
        for _ in 0..window {
            let op = gen.next().expect("endless");
            let c0 = trace.as_deref().map_or(0, |t| t.log.now());
            let (name, ok) = match op {
                Op::Attach { pool } => (
                    "attach",
                    svc.attach(client, set.pools[pool as usize]).is_ok(),
                ),
                Op::Detach { pool } => (
                    "detach",
                    svc.detach(client, set.pools[pool as usize]).is_ok(),
                ),
                Op::Write { pool, obj, seq } => {
                    set.fill(&mut wbuf, pool, obj, seq);
                    set.wrote(pool, obj, seq);
                    let oid = set.objs[pool as usize][obj as usize];
                    ("write", svc.write(client, oid, &wbuf).is_ok())
                }
                Op::Read { pool, obj } => {
                    let oid = set.objs[pool as usize][obj as usize];
                    let ok = svc.read_into(client, oid, &mut rbuf).is_ok()
                        && set.holds(pool, obj, &rbuf, &mut scratch);
                    ("read", ok)
                }
            };
            bad += u64::from(!ok);
            if let Some(t) = trace.as_deref_mut() {
                let c1 = t.log.child(req, root, "service", name, c0);
                match op {
                    Op::Attach { .. } => &mut t.attach,
                    Op::Detach { .. } => &mut t.detach,
                    Op::Read { .. } => &mut t.read,
                    Op::Write { .. } => &mut t.write,
                }
                .record(c1 - c0);
            }
        }
        let t1 = Instant::now();
        if let Some(t) = trace.as_deref_mut() {
            let end_ns = t.log.now();
            t.log.push(Span {
                req,
                id: root,
                parent: 0,
                layer: "bench",
                name: "window",
                start_ns: root_start,
                end_ns,
            });
        }
        lane.lat.record((t1 - t0).as_nanos() as u64);
        lane.done(window, bad);
        t0 = t1;
    }
}

/// Reads every object of the lane back and checks it against the model.
pub fn verify_inproc(svc: &Svc, client: usize, set: &PoolSet) -> (u64, u64) {
    let (mut n, mut bad) = (0, 0);
    let mut buf = vec![0u8; set.payload];
    let mut scratch = Vec::new();
    for (p, &pool) in set.pools.iter().enumerate() {
        let attached = svc.attach(client, pool).is_ok();
        for (o, &obj) in set.objs[p].iter().enumerate() {
            let ok = attached
                && svc.read_into(client, obj, &mut buf).is_ok()
                && set.holds(p as u32, o as u32, &buf, &mut scratch);
            n += 1;
            bad += u64::from(!ok);
        }
        if attached {
            let _ = svc.detach(client, pool);
        }
    }
    (n, bad)
}

/// Submit and wait timings and spans of a traced wire drive.
pub struct WireTrace {
    pub log: SpanLog,
    pub submit: Hist,
}

impl WireTrace {
    pub fn new(epoch: Instant, lane: u64) -> Self {
        WireTrace {
            log: SpanLog::new(epoch, lane, SPAN_CAP),
            submit: Hist::default(),
        }
    }
}

enum Expect {
    Done,
    /// The payload of write `seq`: the last one submitted before the read
    /// (one connection's requests to one pool execute in order).
    Data {
        pool: u32,
        obj: u32,
        seq: u32,
    },
}

struct InFlight {
    ticket: Ticket,
    expect: Expect,
    sent: Instant,
    /// Span bookkeeping of a traced request: `(req, root id, root start,
    /// submit end)`.
    span: (u64, u64, u64, u64),
}

/// Closed loop over one connection, `depth` requests in flight: sends the
/// ops of `gen` as requests and checks each reply. The latency sample is one
/// request, submit to reply. Ends on a window boundary so the connection's
/// session is detached when the phase is over.
pub fn wire_drive(
    conn: &Conn,
    set: &mut PoolSet,
    gen: &mut WindowGen,
    depth: usize,
    lane: &mut Lane,
    mut trace: Option<&mut WireTrace>,
) {
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(depth);
    let mut wbuf = vec![0u8; set.payload];
    let mut scratch = Vec::new();
    let mut req = 0u64;
    let mut in_window = false;
    loop {
        let open = lane.open_at(Instant::now());
        while inflight.len() < depth && (open || in_window) {
            let op = gen.next().expect("endless");
            req += 1;
            let (request, expect) = match op {
                Op::Attach { pool } => {
                    in_window = true;
                    (Req::Attach(set.pools[pool as usize]), Expect::Done)
                }
                Op::Detach { pool } => {
                    in_window = false;
                    (Req::Detach(set.pools[pool as usize]), Expect::Done)
                }
                Op::Write { pool, obj, seq } => {
                    set.fill(&mut wbuf, pool, obj, seq);
                    set.wrote(pool, obj, seq);
                    (
                        Req::Write(set.objs[pool as usize][obj as usize], &wbuf),
                        Expect::Done,
                    )
                }
                Op::Read { pool, obj } => (
                    Req::Read(set.objs[pool as usize][obj as usize], set.payload as u32),
                    Expect::Data {
                        pool,
                        obj,
                        seq: set.last[pool as usize][obj as usize],
                    },
                ),
            };
            let sent = Instant::now();
            let mut root = trace
                .as_deref_mut()
                .map_or((0, 0, 0, 0), |t| (req, t.log.id(), t.log.now(), 0));
            let ticket = conn.submit(request);
            if let Some(t) = trace.as_deref_mut() {
                root.3 = t.log.child(req, root.1, "net", "submit", root.2);
                t.submit.record(root.3 - root.2);
            }
            match ticket {
                Ok(ticket) => inflight.push_back(InFlight {
                    ticket,
                    expect,
                    sent,
                    span: root,
                }),
                Err(_) => {
                    // A dead connection fails everything from here on.
                    lane.done(1, 1);
                    return;
                }
            }
            if !open && !in_window {
                break;
            }
        }
        let Some(f) = inflight.pop_front() else {
            return;
        };
        let reply = f.ticket.wait();
        let now = Instant::now();
        if let Some(t) = trace.as_deref_mut() {
            // In flight from the end of submit until its reply is in hand:
            // at depth > 1 that includes replies queued behind earlier ones.
            let (req, root, start_ns, submitted_ns) = f.span;
            let end_ns = t.log.child(req, root, "net", "wait", submitted_ns);
            t.log.push(Span {
                req,
                id: root,
                parent: 0,
                layer: "bench",
                name: "request",
                start_ns,
                end_ns,
            });
        }
        let ok = match (reply, f.expect) {
            (Ok(Reply::Done), Expect::Done) => true,
            (Ok(Reply::Data(d)), Expect::Data { pool, obj, seq }) => {
                set.matches(pool, obj, seq, &d, &mut scratch)
            }
            _ => false,
        };
        lane.lat.record((now - f.sent).as_nanos() as u64);
        lane.done(1, u64::from(!ok));
    }
}

/// Reads every object of the lane back over the wire and checks it.
pub fn verify_wire(conn: &Conn, set: &PoolSet) -> (u64, u64) {
    let (mut n, mut bad) = (0, 0);
    let mut scratch = Vec::new();
    for (p, &pool) in set.pools.iter().enumerate() {
        let attached = conn
            .submit(Req::Attach(pool))
            .and_then(Ticket::wait)
            .is_ok();
        for (o, &obj) in set.objs[p].iter().enumerate() {
            let got = conn
                .submit(Req::Read(obj, set.payload as u32))
                .and_then(Ticket::wait);
            let ok = attached
                && matches!(&got, Ok(Reply::Data(d)) if set.holds(p as u32, o as u32, d, &mut scratch));
            n += 1;
            bad += u64::from(!ok);
        }
        if attached {
            let _ = conn.submit(Req::Detach(pool)).and_then(Ticket::wait);
        }
    }
    (n, bad)
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                dir_bytes(&path)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}

/// Copies a directory tree byte for byte.
pub fn copy_dir(from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_repeats_and_keeps_the_last_instance() {
        let ctx = Ctx {
            seed: 1,
            seconds: 1.0,
            trace: false,
            smoke: false,
            data_root: std::env::temp_dir(),
            corrupt: false,
        };
        let mut discarded = Vec::new();
        let (kept, times) = repeated_setup(&ctx, None, |i| i, |i| discarded.push(i));
        assert_eq!(kept, 199, "instant set-ups repeat 200 times");
        assert_eq!(discarded, (0..199).collect::<Vec<_>>());
        assert_eq!(times.len(), 200);
        assert!(times
            .iter()
            .all(|t| t.out >= 0.0 && t.calm && t.factor == 1.0));
        let smoke = Ctx { smoke: true, ..ctx };
        assert_eq!(repeated_setup(&smoke, None, |i| i, |_| ()).1.len(), 1);
        let mut spares = Spares::default();
        spares.sample(3, || 2.0, || ());
        assert_eq!(spares.cold_ms, [2.0; 3]);
        assert_eq!(spares.setups.len(), 1);
    }

    #[test]
    fn model_tracks_the_last_write() {
        let shape = Shape {
            pools: 2,
            objects: 4,
            payload: 64,
            pool_bytes: 1 << 16,
        };
        let mut set = PoolSet::new(1, shape);
        let mut buf = vec![0u8; 64];
        let mut scratch = Vec::new();
        set.fill(&mut buf, 1, 2, 0);
        assert!(set.holds(1, 2, &buf, &mut scratch));
        set.wrote(1, 2, 5);
        assert!(
            !set.holds(1, 2, &buf, &mut scratch),
            "stale payload is caught"
        );
        assert!(set.matches(1, 2, 0, &buf, &mut scratch));
        assert_eq!(set.acked_bytes(), (8 + 1) * 64);
        set.corrupt();
        assert_eq!(set.last[0][0], 1);
    }
}
