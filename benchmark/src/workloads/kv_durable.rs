//! `kv_durable` — the persistent hash map and queue through the service's
//! memory interface, on the durable configuration, no net.
//!
//! One 64 MiB pool; map of 65 536 buckets over 16 384 keys, 1 024 preloaded,
//! 90 % of key picks in 10 % of the keys; two clients owning disjoint key
//! halves and a queue each, of which one drives the load (the second joins
//! only for the traced run's contention figure); windows of `attach, 8 ops,
//! detach`: 50 % get / 20 % insert / 10 % remove / 10 % enqueue / 10 %
//! dequeue. Each op is 1–5 log records, so this drives the log with
//! multi-record commits where `wire_durable` has one record per request.
//! Ends with a kill (no drain), a restart, and the structures' own recovery
//! pass.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use crate::gen::{KvGen, KvOp};
use crate::hist::Hist;
use crate::measure::{
    run_slice, steady_time, timed_ms, with_disk, Around, Disk, Lane, Phase, Worker,
};
use crate::span::{attribute, Span, SpanLog};
use crate::sut::{Config, Inproc, Kv, Mem, MemTrace, Pool, Svc, TimedMem, KV_QUEUES};

use super::{dir_bytes, repeated_setup, trace_slots, with_ew, Ctx, Outcome, SPAN_CAP};

/// Clients set up; the traced run's `structures.cas_retry_frac` drives both.
const THREADS: usize = KV_QUEUES;
/// Threads that drive everything else.
const DRIVERS: usize = 1;
const WINDOW: usize = 8;
/// Descriptor slot and service client id of the set-up and recovery passes.
const BOOT: usize = THREADS;

struct Sizes {
    pool_bytes: u64,
    buckets: u32,
    keys: u32,
    preload: u32,
}

fn sizes(ctx: &Ctx) -> Sizes {
    Sizes {
        pool_bytes: ctx.size(64 << 20, 4 << 20),
        buckets: ctx.size(65_536, 1024) as u32,
        keys: ctx.size(16_384, 512) as u32,
        preload: ctx.size(1_024, 64) as u32,
    }
}

/// One client thread's stream and its model of the keys and the queue it
/// owns. The map keeps duplicates as a per-key stack (an insert shadows, a
/// remove unshadows), so the model does too.
struct Client {
    gen: KvGen,
    model: HashMap<u64, Vec<u64>>,
    queue: VecDeque<u64>,
    user_bytes: u64,
    ops: u64,
}

impl Client {
    fn new(ctx: &Ctx, t: usize, s: &Sizes) -> Client {
        let half = s.keys / THREADS as u32;
        Client {
            gen: KvGen::new(ctx.seed, t as u64, u64::from(half) * t as u64, half),
            model: HashMap::new(),
            queue: VecDeque::new(),
            user_bytes: 0,
            ops: 0,
        }
    }
}

/// Per-op-kind timings and spans of a traced drive.
struct KvTrace {
    mem: RefCell<MemTrace>,
    get: Hist,
    insert: Hist,
    remove: Hist,
    enq: Hist,
    deq: Hist,
    op_ns: u64,
    ops: u64,
}

impl KvTrace {
    fn new(epoch: Instant, lane: u64) -> KvTrace {
        KvTrace {
            mem: MemTrace::new(SpanLog::new(epoch, lane, SPAN_CAP)),
            get: Hist::default(),
            insert: Hist::default(),
            remove: Hist::default(),
            enq: Hist::default(),
            deq: Hist::default(),
            op_ns: 0,
            ops: 0,
        }
    }
}

/// Applies one op and checks its answer against the model.
fn apply(kv: &Kv, mem: &impl Mem, slot: u32, c: &mut Client, op: KvOp) -> bool {
    c.ops += 1;
    match op {
        KvOp::Get(k) => {
            let want = c.model.get(&k).and_then(|v| v.last().copied());
            kv.get(mem, k).is_ok_and(|got| got == want)
        }
        KvOp::Insert(k, v) => {
            c.user_bytes += 16;
            c.model.entry(k).or_default().push(v);
            kv.insert(mem, slot, k, v).is_ok()
        }
        KvOp::Remove(k) => {
            c.user_bytes += 8;
            let want = c.model.get_mut(&k).and_then(Vec::pop);
            kv.remove(mem, slot, k).is_ok_and(|got| got == want)
        }
        KvOp::Enqueue(v) => {
            c.user_bytes += 8;
            c.queue.push_back(v);
            kv.enqueue(mem, slot, v).is_ok()
        }
        KvOp::Dequeue => {
            let want = c.queue.pop_front();
            kv.dequeue(mem, slot).is_ok_and(|got| got == want)
        }
    }
}

/// Windows of `attach, 8 structure ops, detach` until the phase ends. The
/// latency sample is one whole window transaction: half the ops are reads
/// that never touch the log, so the median single op would sit on the edge
/// between a 2 µs get and a 700 µs insert and say nothing about either.
fn drive(
    svc: &Svc,
    pool: Pool,
    kv: &Kv,
    t: usize,
    c: &mut Client,
    lane: &mut Lane,
    mut trace: Option<&mut KvTrace>,
) {
    let plain = svc.mem(t);
    let mut req = 0u64;
    let mut t0 = Instant::now();
    while lane.open_at(t0) {
        let mut bad = u64::from(svc.attach(t, pool).is_err());
        for _ in 0..WINDOW {
            let op = c.gen.next().expect("endless");
            let ok = match trace.as_deref_mut() {
                None => apply(kv, &plain, t as u32, c, op),
                Some(tr) => {
                    req += 1;
                    let (root, start_ns) = {
                        let mut m = tr.mem.borrow_mut();
                        let root = m.log.id();
                        (m.req, m.parent) = (req, root);
                        (root, m.log.now())
                    };
                    let ok = apply(kv, &TimedMem::new(plain, &tr.mem), t as u32, c, op);
                    let mut m = tr.mem.borrow_mut();
                    let end_ns = m.log.now();
                    let name = match op {
                        KvOp::Get(_) => "map.get",
                        KvOp::Insert(..) => "map.insert",
                        KvOp::Remove(_) => "map.remove",
                        KvOp::Enqueue(_) => "queue.enqueue",
                        KvOp::Dequeue => "queue.dequeue",
                    };
                    m.log.push(Span {
                        req,
                        id: root,
                        parent: 0,
                        layer: "structures",
                        name,
                        start_ns,
                        end_ns,
                    });
                    drop(m);
                    match op {
                        KvOp::Get(_) => &mut tr.get,
                        KvOp::Insert(..) => &mut tr.insert,
                        KvOp::Remove(_) => &mut tr.remove,
                        KvOp::Enqueue(_) => &mut tr.enq,
                        KvOp::Dequeue => &mut tr.deq,
                    }
                    .record(end_ns - start_ns);
                    tr.op_ns += end_ns - start_ns;
                    tr.ops += 1;
                    ok
                }
            };
            bad += u64::from(!ok);
        }
        bad += u64::from(svc.detach(t, pool).is_err());
        let t1 = Instant::now();
        lane.lat.record((t1 - t0).as_nanos() as u64);
        lane.done(WINDOW as u64, bad);
        t0 = t1;
    }
}

/// A started instance with the structures created and preloaded.
struct Rig {
    sut: Inproc,
    pool: Pool,
    kv: Kv,
    clients: Vec<Client>,
}

fn build(cfg: &Config, ctx: &Ctx, killable: bool) -> Rig {
    let s = sizes(ctx);
    let sut = if killable {
        Inproc::start_killable(cfg)
    } else {
        Inproc::start(cfg)
    }
    .expect("start");
    let svc = sut.svc();
    let pool = svc.create_pool("kv", s.pool_bytes).expect("pool");
    svc.attach(BOOT, pool).expect("attach");
    let mem = svc.mem(BOOT);
    let kv = Kv::create(&mem, pool, THREADS as u32 + 1, s.buckets).expect("create structures");
    let mut clients: Vec<Client> = (0..THREADS).map(|t| Client::new(ctx, t, &s)).collect();
    // Preload every (keys / preload)-th key; values are the key's own hash.
    let half = u64::from(s.keys) / THREADS as u64;
    let step = u64::from((s.keys / s.preload).max(1));
    for k in (0..u64::from(s.keys)).step_by(step as usize) {
        let v = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        kv.insert(&mem, BOOT as u32, k, v).expect("preload");
        let owner = &mut clients[(k / half) as usize];
        owner.model.entry(k).or_default().push(v);
        owner.user_bytes += 16;
        owner.ops += 1;
    }
    svc.detach(BOOT, pool).expect("detach");
    Rig {
        sut,
        pool,
        kv,
        clients,
    }
}

fn phase(
    rig: &mut Rig,
    threads: usize,
    dur: Duration,
    disk: Option<&Disk>,
    mut traces: Option<&mut Vec<KvTrace>>,
) -> Phase {
    let svc = rig.sut.svc();
    let (pool, kv) = (rig.pool, rig.kv);
    Phase::run(dur, disk, |each| {
        let mut slots = trace_slots(traces.as_deref_mut(), threads);
        let workers: Vec<Worker<'_>> = rig
            .clients
            .iter_mut()
            .take(threads)
            .zip(slots.drain(..))
            .enumerate()
            .map(|(t, (client, trace))| {
                let svc = svc.clone();
                Box::new(move |lane: &mut Lane| drive(&svc, pool, &kv, t, client, lane, trace))
                    as Worker<'_>
            })
            .collect();
        with_ew(&svc, || run_slice(each, workers))
    })
}

/// The map must hold exactly the model's pairs and each thread's queue
/// exactly what its thread enqueued and has not dequeued, in order.
fn verify(svc: &Svc, pool: Pool, kv: &Kv, clients: &[Client], out: &mut Outcome, what: &str) {
    let attached = svc.attach(BOOT, pool).is_ok();
    let mem = svc.mem(BOOT);
    let mut want: Vec<(u64, u64)> = clients
        .iter()
        .flat_map(|c| {
            c.model
                .iter()
                .flat_map(|(k, vs)| vs.iter().map(|v| (*k, *v)))
        })
        .collect();
    want.sort_unstable();
    let mut got = kv.items(&mem).unwrap_or_default();
    got.sort_unstable();
    let wrong = if got == want {
        0
    } else {
        let missing = want
            .iter()
            .filter(|p| got.binary_search(p).is_err())
            .count();
        let extra = got
            .iter()
            .filter(|p| want.binary_search(p).is_err())
            .count();
        (missing + extra).max(1) as u64
    };
    out.tally(
        want.len().max(1) as u64,
        wrong,
        &format!("{what}: map items against the model"),
    );
    for (t, c) in clients.iter().enumerate() {
        let got = kv.queued(&mem, t as u32).unwrap_or_default();
        let ok = attached && got.iter().eq(c.queue.iter());
        out.check(
            ok,
            &format!(
                "{what}: queue {t} holds {} items, the model {}",
                got.len(),
                c.queue.len()
            ),
        );
    }
    if attached {
        let _ = svc.detach(BOOT, pool);
    }
}

/// Restarts over `dir` and re-finds the structures.
fn restart(cfg: &Config, pool: Pool) -> (Inproc, Kv) {
    let sut = Inproc::start(cfg).expect("restart");
    let svc = sut.svc();
    svc.attach(BOOT, pool).expect("attach after restart");
    let kv = Kv::attach(&svc.mem(BOOT), pool).expect("re-find structures");
    svc.detach(BOOT, pool).expect("detach");
    (sut, kv)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    out.load.driver_threads = if ctx.trace { THREADS } else { DRIVERS };
    let mut dir = ctx.dir("kv0");
    let disk = ctx.disk();
    let (mut rig, setups) = repeated_setup(
        ctx,
        Some(&disk),
        |i| {
            dir = ctx.dir(&format!("kv{i}"));
            build(&Config::durable(&dir), ctx, true)
        },
        |r| r.sut.kill(),
    );
    let setup_s = steady_time(&setups, true);
    out.phase(
        "setup",
        setup_s,
        "median of repeated set-ups (preload included), s",
    );
    if ctx.trace {
        traced(ctx, &mut out, &mut rig, &disk);
    } else {
        untraced(ctx, &mut out, &mut rig, &disk, setup_s);
    }
    if ctx.corrupt {
        rig.clients[0].queue.push_back(1);
    }
    let svc = rig.sut.svc();
    verify(
        &svc,
        rig.pool,
        &rig.kv,
        &rig.clients,
        &mut out,
        "before the kill",
    );

    // Kill with one window open, restart, let the structures recover.
    let acked_ops: u64 = rig.clients.iter().map(|c| c.ops).sum();
    let user_bytes: u64 = rig.clients.iter().map(|c| c.user_bytes).sum();
    let disk_bytes = dir_bytes(&dir);
    svc.attach(BOOT, rig.pool)
        .expect("open a window to die with");
    drop(svc);
    let Rig {
        sut, pool, clients, ..
    } = rig;
    sut.kill();
    let cfg = Config::durable(&dir).with_flight(!ctx.trace);
    let ((sut, kv), restart_ms) = timed_ms(|| restart(&cfg, pool));
    let svc = sut.svc();
    let recovery = svc.recovery().expect("durable restart reports recovery");
    svc.attach(BOOT, pool).expect("attach");
    let recovered = kv.recover(&svc.mem(BOOT));
    svc.detach(BOOT, pool).expect("detach");
    out.check(recovered.is_ok(), "structure recovery pass");
    out.check(
        recovery.windows_resealed == 1,
        "the one window open at the kill was resealed",
    );
    verify(&svc, pool, &kv, &clients, &mut out, "after recovery");
    let mut rig = Rig {
        sut,
        pool,
        kv,
        clients,
    };

    if ctx.trace {
        out.set(
            "persist.records_per_op",
            recovery.records_replayed as f64 / acked_ops.max(1) as f64,
        );
        out.set(
            "persist.recover_krecords_per_s",
            recovery.records_replayed as f64 / restart_ms.max(1e-9),
        );
        out.set(
            "persist.windows_resealed_ok",
            f64::from(u8::from(recovery.windows_resealed == 1)),
        );
        out.set("persist.torn_tails", recovery.torn_tails as f64);
        out.set("persist.txns_rolled_back", recovery.txns_rolled_back as f64);
        out.set(
            "disk_bytes_per_user_byte",
            disk_bytes as f64 / user_bytes.max(1) as f64,
        );
        out.note("restart_after_kill_ms", restart_ms);
        out.note("records_replayed", recovery.records_replayed as f64);
    } else {
        // Serve again on the recovered state, flight recorder on.
        let flight = phase(&mut rig, DRIVERS, ctx.dur(0.45), Some(&disk), None);
        out.timed(
            "flight",
            &flight,
            "the same load on the recovered state, flight recorder on",
        );
        out.set("tput_flight_ops_s", flight.tput());
        verify(
            &rig.sut.svc(),
            pool,
            &rig.kv,
            &rig.clients,
            &mut out,
            "after the flight phase",
        );
    }

    // Clean shutdown and reopen: the restart a planned stop costs.
    let ((), drain_ms) = timed_ms(|| rig.sut.shutdown());
    let plain = Config::durable(&dir);
    let reopens: Vec<Around<f64>> = (0..ctx.size(15, 1))
        .map(|_| {
            let ((sut, _), timed) =
                with_disk(Some(&disk), || timed_ms(|| restart(&plain, pool))).split();
            sut.shutdown();
            timed
        })
        .collect();
    if ctx.trace {
        out.set("persist.drain_ms", drain_ms);
        out.set("persist.reopen_clean_ms", steady_time(&reopens, false));
    } else {
        out.set("recover_ms", steady_time(&reopens, false));
        out.note("drain_ms", drain_ms);
        out.note("restart_after_kill_ms", restart_ms);
    }
    out
}

fn untraced(ctx: &Ctx, out: &mut Outcome, rig: &mut Rig, disk: &Disk, setup_s: f64) {
    // One thread, closed loop: with one caller the median window transaction
    // and the rate are two readings of the same phase.
    let load = phase(rig, DRIVERS, ctx.dur(0.55), Some(disk), None);
    out.load.observe_threads(0);
    out.timed(
        "load",
        &load,
        "1 thread, closed loop, one window transaction (attach, 8 ops, detach) per latency sample",
    );
    let report = rig.sut.svc().report();
    out.set("setup_s", setup_s);
    out.set("tput_ops_s", load.tput());
    out.set("p50_us", load.p50_us());
    out.set("cpu_us_per_op", load.cpu_us_per_op());
    out.set("ew_avg_us", load.aux_us());
    let all = load.all_lat();
    out.note("load.samples", all.count() as f64);
    out.note("load.p99_us", all.p99_us());
    out.note("load.ops", load.total_ops() as f64);
    out.note("ew.windows", report.ew_count as f64);
}

fn traced(ctx: &Ctx, out: &mut Outcome, rig: &mut Rig, disk: &Disk) {
    let epoch = Instant::now();
    let t_load = Instant::now();
    // The load with a span per structure op and per memory call under it.
    let mut one = vec![KvTrace::new(epoch, 0)];
    let spanned = phase(rig, DRIVERS, ctx.dur(0.25), Some(disk), Some(&mut one));
    out.timed(
        "load.traced",
        &spanned,
        "1 thread, span per op and memory call",
    );
    // The same without spans: what tracing costs.
    let plain = phase(rig, DRIVERS, ctx.dur(0.20), Some(disk), None);
    out.load.observe_threads(0);
    out.timed("load", &plain, "1 thread, no spans");
    // Both clients at once, only to see how often they collide on the map.
    let mut two: Vec<KvTrace> = (0..THREADS)
        .map(|t| KvTrace::new(epoch, 1 + t as u64))
        .collect();
    let pair = phase(rig, THREADS, ctx.dur(0.15), Some(disk), Some(&mut two));
    out.timed("load.2t.traced", &pair, "2 threads, spans");
    let report = rig.sut.svc().report();
    out.service_report(&report, t_load.elapsed().as_secs_f64());

    // The same stream on the in-memory configuration: what durability costs.
    let mut mem_rig = build(&Config::memory(), ctx, false);
    for (fresh, live) in mem_rig.clients.iter_mut().zip(rig.clients.iter_mut()) {
        // Continue each client's stream where the durable run left it.
        std::mem::swap(&mut fresh.gen, &mut live.gen);
    }
    let mem_load = phase(&mut mem_rig, DRIVERS, ctx.dur(0.15), None, None);
    out.timed("load.mem", &mem_load, "1 thread, in-memory configuration");
    verify(
        &mem_rig.sut.svc(),
        mem_rig.pool,
        &mem_rig.kv,
        &mem_rig.clients,
        out,
        "in-memory replay",
    );
    for (fresh, live) in mem_rig.clients.iter_mut().zip(rig.clients.iter_mut()) {
        std::mem::swap(&mut fresh.gen, &mut live.gen);
    }
    mem_rig.sut.shutdown();

    let k = one.pop().expect("one trace");
    let m = k.mem.into_inner();
    // Mutating ops wait on the log; report them at the reference disk too.
    let f = spanned.cost();
    out.set("structures.map_get_us_p50", k.get.p50_us());
    out.set("structures.map_insert_us_p50", k.insert.p50_us() / f);
    out.set("structures.map_remove_us_p50", k.remove.p50_us());
    out.set("structures.queue_enq_us_p50", k.enq.p50_us() / f);
    out.set("structures.queue_deq_us_p50", k.deq.p50_us() / f);
    out.set(
        "structures.self_frac",
        1.0 - m.child_ns as f64 / k.op_ns.max(1) as f64,
    );
    out.set(
        "structures.mem_calls_per_op",
        m.calls as f64 / k.ops.max(1) as f64,
    );
    let (cas, cas_failed) = two
        .iter()
        .map(|t| {
            let m = t.mem.borrow();
            (m.cas, m.cas_failed)
        })
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    out.set(
        "structures.cas_retry_frac",
        cas_failed as f64 / cas.max(1) as f64,
    );
    out.set(
        "persist.durable_over_mem",
        mem_load.tput() / plain.tput().max(1e-9),
    );
    out.set(
        "bench.trace_overhead_frac",
        plain.tput() / spanned.tput().max(1e-9) - 1.0,
    );
    out.set("cpu_us_per_op", plain.cpu_us_per_op());
    out.set("ew_avg_us", plain.aux_us());
    out.spans = m.log.spans;
    for t in two {
        out.spans.append(&mut t.mem.into_inner().log.spans);
    }
    let a = attribute(&out.spans);
    out.set("bench.span_coverage_frac", a.coverage());
    out.set("bench.driver_self_frac", a.layer_frac("bench"));
    out.note("load.traced.p50_us", spanned.p50_us());
    out.note("load.mem.tput_ops_s", mem_load.tput());
    out.note("load.tput_ops_s", plain.tput());
}
