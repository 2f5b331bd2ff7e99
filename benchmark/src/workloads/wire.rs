//! The two wire workloads, which differ only in their parameters: loopback
//! TCP → net server → service, one connection with one driver thread and
//! two pools (one per shard), windows of `attach, 8 data ops, detach`, every
//! op a pipelined request. One connection, because it already brings seven
//! threads with it (driver, client demultiplexer, the server's reader,
//! writer and two shard workers, the sweeper) and the box has two vCPUs.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::gen::{fill_payload, Mix, Op, WindowGen};
use crate::hist::Hist;
use crate::measure::{
    quiet_time, run_slice, steady_time, timed_ms, with_disk, Around, Disk, Lane, Phase, Worker,
};
use crate::span::attribute;
use crate::sut::{sample_ids, Codec, Config, Conn, Inproc, Req, Ticket, Wire, SHARDS};

use super::{
    dir_bytes, inproc_drive, repeated_setup, setup_inproc, setup_wire, trace_slots, verify_inproc,
    verify_wire, wire_drive, with_ew, CallTrace, Ctx, Outcome, PoolSet, Shape, Spares, WireTrace,
};

pub const CONNS: usize = 1;

pub struct Params {
    pub name: &'static str,
    pub durable: bool,
    pub payload: usize,
    pub write_pct: u32,
    pub sat_depth: usize,
}

impl Params {
    fn shape(&self, ctx: &Ctx) -> Shape {
        Shape {
            pools: SHARDS as u32,
            objects: ctx.size(256, 16) as u32,
            payload: self.payload,
            pool_bytes: 1 << 20,
        }
    }

    fn mix(&self) -> Mix {
        Mix::WritePct {
            len: 8,
            pct: self.write_pct,
        }
    }

    fn gens(&self, ctx: &Ctx) -> Vec<WindowGen> {
        let s = self.shape(ctx);
        (0..CONNS)
            .map(|c| WindowGen::new(ctx.seed, c as u64, s.pools, s.objects, self.mix()))
            .collect()
    }

    fn config(&self, dir: &Option<PathBuf>) -> Config {
        match dir {
            Some(d) => Config::durable(d),
            None => Config::memory(),
        }
    }
}

/// A running server, its connections and their data.
struct Rig {
    wire: Wire,
    conns: Vec<Conn>,
    sets: Vec<PoolSet>,
}

/// What every step of a run needs to know.
struct Env<'a> {
    ctx: &'a Ctx,
    p: &'a Params,
    /// Data directory and disk timer of a durable run.
    dir: Option<PathBuf>,
    disk: Option<Disk>,
}

fn connect(wire: &Wire) -> Vec<Conn> {
    (0..CONNS)
        .map(|c| Conn::connect(wire.addr(), c as u64 + 1).expect("connect"))
        .collect()
}

fn build_rig(cfg: &Config, ctx: &Ctx, p: &Params, tag: &str) -> Rig {
    let wire = Wire::start(cfg).expect("start server");
    let conns = connect(&wire);
    let sets = conns
        .iter()
        .enumerate()
        .map(|(c, conn)| setup_wire(conn, c as u32, tag, p.shape(ctx)).expect("set up pools"))
        .collect();
    Rig { wire, conns, sets }
}

/// Runs a phase; `spares`, when given, takes its samples after every slice.
fn phase(
    env: &Env,
    rig: &mut Rig,
    gens: &mut [WindowGen],
    depth: usize,
    dur: Duration,
    mut traces: Option<&mut Vec<WireTrace>>,
    mut spares: Option<&mut Spares>,
) -> Phase {
    let svc = rig.wire.svc();
    Phase::run(dur, env.disk.as_ref(), |each| {
        let mut slots = trace_slots(traces.as_deref_mut(), CONNS);
        let workers: Vec<Worker<'_>> = rig
            .conns
            .iter()
            .zip(rig.sets.iter_mut())
            .zip(gens.iter_mut())
            .zip(slots.drain(..))
            .map(|(((conn, set), gen), trace)| {
                Box::new(move |lane: &mut Lane| wire_drive(conn, set, gen, depth, lane, trace))
                    as Worker<'_>
            })
            .collect();
        let slice = with_ew(&svc, || run_slice(each, workers));
        if let Some(spares) = spares.as_deref_mut() {
            spares.sample(3, cold_start_ms, || {
                build_rig(&Config::memory(), env.ctx, env.p, "spare")
                    .wire
                    .shutdown()
            });
        }
        slice
    })
}

fn verify(rig: &Rig, out: &mut Outcome, what: &str) {
    for (conn, set) in rig.conns.iter().zip(&rig.sets) {
        let (n, bad) = verify_wire(conn, set);
        out.tally(n, bad, what);
    }
}

/// Cold start of an in-memory server to its first acknowledged write over a
/// fresh connection.
fn cold_start_ms() -> f64 {
    let (wire, ms) = timed_ms(|| {
        let wire = Wire::start(&Config::memory()).expect("start");
        let conn = Conn::connect(wire.addr(), 1).expect("connect");
        let pool = conn.create_pool("cold", 1 << 16).expect("pool");
        conn.submit(Req::Attach(pool))
            .and_then(Ticket::wait)
            .expect("attach");
        let obj = conn.alloc(pool, 64).expect("alloc");
        conn.submit(Req::Write(obj, &[7u8; 64]))
            .and_then(Ticket::wait)
            .expect("write");
        conn.submit(Req::Detach(pool))
            .and_then(Ticket::wait)
            .expect("detach");
        wire
    });
    wire.shutdown();
    ms
}

/// Reopens a cleanly shut down directory, to the first object read back over
/// a fresh connection. Returns the server still running.
fn reopen(cfg: &Config, set: &PoolSet) -> (Wire, f64) {
    timed_ms(|| {
        let wire = Wire::start(cfg).expect("reopen");
        let conn = Conn::connect(wire.addr(), 1).expect("connect");
        conn.submit(Req::Attach(set.pools[0]))
            .and_then(Ticket::wait)
            .expect("attach");
        conn.submit(Req::Read(set.objs[0][0], set.payload as u32))
            .and_then(Ticket::wait)
            .expect("read");
        conn.submit(Req::Detach(set.pools[0]))
            .and_then(Ticket::wait)
            .expect("detach");
        wire
    })
}

pub fn run(ctx: &Ctx, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    out.load.driver_threads = CONNS;
    out.load.connections = CONNS;
    let mut dir = None;
    let disk = p.durable.then(|| ctx.disk());
    let (rig, setups) = repeated_setup(
        ctx,
        disk.as_ref(),
        |i| {
            dir = p.durable.then(|| ctx.dir(&format!("wire{i}")));
            build_rig(&p.config(&dir), ctx, p, p.name)
        },
        |r| r.wire.shutdown(),
    );
    out.phase(
        "setup",
        steady_time(&setups, p.durable),
        "repeated set-ups before the first timed op, s",
    );
    let mut gens = p.gens(ctx);
    let env = Env { ctx, p, dir, disk };
    if ctx.trace {
        traced(&env, &mut out, rig, &mut gens);
    } else {
        untraced(&env, &mut out, rig, &mut gens, setups);
    }
    out
}

fn untraced(
    env: &Env,
    out: &mut Outcome,
    mut rig: Rig,
    gens: &mut [WindowGen],
    mut setups: Vec<Around<f64>>,
) {
    let (ctx, p, disk) = (env.ctx, env.p, env.disk.as_ref());
    // In memory, restarts and more set-ups are sampled all through the run.
    let mut spares = (!p.durable).then(Spares::default);
    // One request at a time.
    let rtt = phase(env, &mut rig, gens, 1, ctx.dur(0.25), None, spares.as_mut());
    out.timed("rtt", &rtt, "1 connection, depth 1");

    let sat = phase(
        env,
        &mut rig,
        gens,
        p.sat_depth,
        ctx.dur(0.40),
        None,
        spares.as_mut(),
    );
    out.load.observe_threads(CONNS);
    out.timed("sat", &sat, &format!("1 connection, depth {}", p.sat_depth));
    verify(&rig, out, "read-back before stop");

    // Stop, then restart: a cold start in memory, a reopen of the cleanly
    // shut down directory when durable.
    let Rig { wire, conns, sets } = rig;
    drop(conns);
    wire.shutdown();
    let cfg = p.config(&env.dir);
    let restarts: Vec<Around<f64>> = if p.durable {
        (0..ctx.size(15, 2))
            .map(|_| {
                let (wire, timed) = with_disk(disk, || reopen(&cfg, &sets[0])).split();
                wire.shutdown();
                timed
            })
            .collect()
    } else {
        Vec::new()
    };

    // Serve again, flight recorder on: the durable server over the same
    // directory (everything acknowledged must still be there), the in-memory
    // one from scratch.
    let flight_cfg = cfg.with_flight(true);
    let mut frig = if p.durable {
        let wire = Wire::start(&flight_cfg).expect("reopen with flight recorder");
        let conns = connect(&wire);
        Rig { wire, conns, sets }
    } else {
        build_rig(&flight_cfg, ctx, p, "again")
    };
    if ctx.corrupt {
        frig.sets[0].corrupt();
    }
    verify(&frig, out, "read-back after restart");
    let flight = phase(
        env,
        &mut frig,
        gens,
        p.sat_depth,
        ctx.dur(0.35),
        None,
        spares.as_mut(),
    );
    out.timed(
        "flight",
        &flight,
        "sat again after restart, flight recorder on",
    );
    verify(&frig, out, "read-back after flight phase");
    frig.wire.shutdown();

    let mut spares = spares.unwrap_or_default();
    setups.append(&mut spares.setups);
    out.set("setup_s", steady_time(&setups, p.durable));
    out.set("tput_ops_s", sat.tput());
    out.set("p50_us", rtt.p50_us());
    out.set("cpu_us_per_op", sat.cpu_us_per_op());
    // Windows closed during the saturation phase. They are held across log
    // writes, so their length scales with the disk like any durable latency.
    out.set("ew_avg_us", sat.aux_us());
    out.set("tput_flight_ops_s", flight.tput());
    out.set(
        "recover_ms",
        if p.durable {
            steady_time(&restarts, false)
        } else {
            quiet_time(&spares.cold_ms)
        },
    );
    out.note("restarts", (restarts.len() + spares.cold_ms.len()) as f64);
    out.note("setups", setups.len() as f64);
    let all = rtt.all_lat();
    out.note("rtt.samples", all.count() as f64);
    out.note("rtt.p99_us", all.p99_us());
    out.note("rtt.over_1ms_frac", all.frac_above(1_000_000));
    out.note("sat.ops", sat.total_ops() as f64);
}

fn traced(env: &Env, out: &mut Outcome, mut rig: Rig, gens: &mut [WindowGen]) {
    let (ctx, p) = (env.ctx, env.p);
    let epoch = Instant::now();
    let t_load = Instant::now();
    // Depth 1 with spans: request → net.submit / net.wait.
    let mut traces: Vec<WireTrace> = (0..CONNS)
        .map(|c| WireTrace::new(epoch, c as u64))
        .collect();
    let rtt = phase(
        env,
        &mut rig,
        gens,
        1,
        ctx.dur(0.15),
        Some(&mut traces),
        None,
    );
    out.timed("rtt.traced", &rtt, "1 connection, depth 1, spans");

    // Saturation without and with spans: what tracing costs.
    let plain = phase(env, &mut rig, gens, p.sat_depth, ctx.dur(0.12), None, None);
    out.load.observe_threads(CONNS);
    let mut sat_traces: Vec<WireTrace> = (0..CONNS)
        .map(|c| WireTrace::new(epoch, (CONNS + c) as u64))
        .collect();
    let spanned = phase(
        env,
        &mut rig,
        gens,
        p.sat_depth,
        ctx.dur(0.12),
        Some(&mut sat_traces),
        None,
    );
    out.timed("sat", &plain, "no spans");
    out.timed("sat.traced", &spanned, "spans");
    let report = rig.wire.svc().report();
    out.service_report(&report, t_load.elapsed().as_secs_f64());

    // Peel 2: the whole wire path with no service work.
    let ping = ping_phase(&rig, ctx.dur(0.08));
    out.timed("ping", &ping, "1 connection, depth 1, no service work");

    // Peel 1: the codec alone, one thread, this workload's requests.
    let codec_ns = codec_ns_per_req(ctx, p);

    // Peel 3: the same stream in process, in memory.
    let (mem_calls, mem_phase) = inproc_replay(env, out, gens, false, 0.08, epoch);

    let mut submit = Hist::default();
    for t in &traces {
        submit.merge(&t.submit);
    }
    let all = rtt.all_lat();
    out.set("net.codec_ns_per_req", codec_ns);
    out.set("net.ping_rtt_p50_us", ping.p50_us());
    out.set("net.ping_rtt_p99_us", ping.all_lat().p99_us());
    out.set("net.submit_ns_p50", submit.quantile(0.5));
    // Against the same calls made in process on the same configuration.
    let mut inproc_p50_us = mem_calls.all().p50_us() / mem_phase.cost();
    out.set("net.rtt_p99_us", all.p99_us());
    out.set("net.over_1ms_frac", all.frac_above(1_000_000));
    out.set("net.sat_depth_gain", plain.tput() / rtt.tput().max(1e-9));
    out.set("service.attach_ns_p50", mem_calls.attach.quantile(0.5));
    out.set("service.detach_ns_p50", mem_calls.detach.quantile(0.5));
    out.set("service.read_ns_p50", mem_calls.read.quantile(0.5));
    out.set("service.write_ns_p50", mem_calls.write.quantile(0.5));
    out.set("service.data_ns_p99", mem_calls.data().quantile(0.99));
    out.set(
        "bench.trace_overhead_frac",
        plain.tput() / spanned.tput().max(1e-9) - 1.0,
    );
    out.set("cpu_us_per_op", plain.cpu_us_per_op());
    out.set("ew_avg_us", plain.aux_us());
    out.note("rtt.traced.p50_us", rtt.p50_us());
    out.note("replay.mem.tput_ops_s", mem_phase.tput());

    if p.durable {
        // Peel 4: the same stream in process on the durable configuration;
        // the difference to peel 3 is what persistence adds to each call.
        let (dur_calls, replay) = inproc_replay(env, out, gens, true, 0.15, epoch);
        let f = replay.cost();
        let us = |h: &Hist| h.quantile(0.5) / 1e3;
        out.set(
            "persist.write_added_us_p50",
            us(&dur_calls.write) / f - us(&mem_calls.write),
        );
        out.set(
            "persist.attach_added_us_p50",
            us(&dur_calls.attach) / f - us(&mem_calls.attach),
        );
        out.set(
            "persist.detach_added_us_p50",
            us(&dur_calls.detach) / f - us(&mem_calls.detach),
        );
        inproc_p50_us = dur_calls.all().p50_us() / f;
    } else {
        // One open-loop diagnostic: a fixed 8000 req/s from a single
        // scheduling thread, timed from when each request was due.
        open_loop(out, &mut rig, gens, 8000.0, ctx.dur(0.12));
    }

    out.set("net.wire_added_us_p50", rtt.p50_us() - inproc_p50_us);

    for t in traces.iter_mut().chain(sat_traces.iter_mut()) {
        out.spans.append(&mut t.log.spans);
    }
    let a = attribute(&out.spans);
    out.set("bench.span_coverage_frac", a.coverage());
    out.set("bench.driver_self_frac", a.layer_frac("bench"));
    out.note("spans.roots", a.roots as f64);

    verify(&rig, out, "read-back before stop");
    let Rig {
        wire,
        conns,
        mut sets,
    } = rig;
    drop(conns);
    if ctx.corrupt {
        sets[0].corrupt();
    }
    let Some(dir) = &env.dir else {
        wire.shutdown();
        return;
    };
    // Clean shutdown and reopen, timed, and everything read back.
    let acked: u64 = sets.iter().map(PoolSet::acked_bytes).sum();
    out.set(
        "disk_bytes_per_user_byte",
        dir_bytes(dir) as f64 / acked.max(1) as f64,
    );
    let ((), drain_ms) = timed_ms(|| wire.shutdown());
    let (wire, reopen_ms) = reopen(&Config::durable(dir), &sets[0]);
    let conns = connect(&wire);
    let reopened = Rig { wire, conns, sets };
    verify(&reopened, out, "read-back after reopen");
    out.set("persist.drain_ms", drain_ms);
    out.set("persist.reopen_clean_ms", reopen_ms);
    reopened.wire.shutdown();
}

fn ping_phase(rig: &Rig, dur: Duration) -> Phase {
    Phase::run(dur, None, |each| {
        let workers: Vec<Worker<'_>> = rig
            .conns
            .iter()
            .map(|conn| {
                Box::new(move |lane: &mut Lane| {
                    let mut t0 = Instant::now();
                    while lane.open_at(t0) {
                        let ok = conn.submit(Req::Ping).and_then(Ticket::wait).is_ok();
                        let t1 = Instant::now();
                        lane.lat.record((t1 - t0).as_nanos() as u64);
                        lane.done(1, u64::from(!ok));
                        t0 = t1;
                    }
                }) as Worker<'_>
            })
            .collect();
        run_slice(each, workers)
    })
}

/// Encode + frame + de-frame + decode of this workload's requests and their
/// responses, ns per request, one thread, no socket.
fn codec_ns_per_req(ctx: &Ctx, p: &Params) -> f64 {
    let s = p.shape(ctx);
    let n = ctx.size(200_000, 2_000);
    let mut gen = WindowGen::new(ctx.seed, 0, s.pools, s.objects, p.mix());
    let mut codec = Codec::default();
    let mut buf = vec![0u8; p.payload];
    let (pool, obj) = sample_ids();
    let t0 = Instant::now();
    let mut bytes = 0usize;
    for (id, op) in gen.by_ref().take(n as usize).enumerate() {
        let req = match op {
            Op::Attach { .. } => Req::Attach(pool),
            Op::Detach { .. } => Req::Detach(pool),
            Op::Read { .. } => Req::Read(obj, p.payload as u32),
            Op::Write {
                pool: pl,
                obj: o,
                seq,
            } => {
                fill_payload(&mut buf, pl, o, seq);
                Req::Write(obj, &buf)
            }
        };
        bytes += codec.round_trip(req, id as u64 + 2);
    }
    let ns = t0.elapsed().as_nanos() as f64 / n as f64;
    std::hint::black_box(bytes);
    ns
}

/// Replays the workload's stream through direct calls on a fresh instance,
/// in memory or durable, one thread per connection of the depth-1 phase, a
/// span per call.
fn inproc_replay(
    env: &Env,
    out: &mut Outcome,
    gens: &mut [WindowGen],
    durable: bool,
    share: f64,
    epoch: Instant,
) -> (CallTrace, Phase) {
    let (ctx, p) = (env.ctx, env.p);
    let (tag, cfg, disk) = if durable {
        let dir = ctx.dir("replay-durable");
        ("replay.durable", Config::durable(&dir), env.disk.as_ref())
    } else {
        ("replay.mem", Config::memory(), None)
    };
    let sut = Inproc::start(&cfg).expect("start replay instance");
    let svc = sut.svc();
    let mut sets: Vec<PoolSet> = (0..CONNS)
        .map(|c| setup_inproc(&svc, c, c as u32, tag, p.shape(ctx)).expect("pools"))
        .collect();
    let lane0 = (2 * CONNS) as u64 + if disk.is_some() { CONNS as u64 } else { 0 };
    let mut traces: Vec<CallTrace> = (0..CONNS)
        .map(|c| CallTrace::new(epoch, lane0 + c as u64))
        .collect();
    let phase = Phase::run(ctx.dur(share), disk, |each| {
        let workers: Vec<Worker<'_>> = sets
            .iter_mut()
            .zip(gens.iter_mut())
            .zip(traces.iter_mut())
            .enumerate()
            .map(|(c, ((set, gen), trace))| {
                let svc = svc.clone();
                Box::new(move |lane: &mut Lane| inproc_drive(&svc, c, set, gen, lane, Some(trace)))
                    as Worker<'_>
            })
            .collect();
        run_slice(each, workers)
    });
    out.timed(
        tag,
        &phase,
        "the same stream through direct calls, 1 thread, span per call",
    );
    for (c, set) in sets.iter().enumerate() {
        let (n, bad) = verify_inproc(&svc, c, set);
        out.tally(n, bad, tag);
    }
    sut.shutdown();
    let mut merged = traces.pop().expect("a trace per connection");
    for t in &mut traces {
        merged.attach.merge(&t.attach);
        merged.detach.merge(&t.detach);
        merged.read.merge(&t.read);
        merged.write.merge(&t.write);
        out.spans.append(&mut t.log.spans);
    }
    out.spans.append(&mut merged.log.spans);
    (merged, phase)
}

/// Open loop at `rate` requests per second from one scheduling thread,
/// taking the connections in turn; a second thread collects replies. Latency runs
/// from the moment a request was due, so a stall is charged to every request
/// it delays.
fn open_loop(out: &mut Outcome, rig: &mut Rig, gens: &mut [WindowGen], rate: f64, dur: Duration) {
    let (tx, rx) = mpsc::channel::<(Ticket, Instant)>();
    let start = Instant::now() + Duration::from_millis(1);
    let gap = Duration::from_secs_f64(1.0 / rate);
    let (lat, late, sent, failed) = std::thread::scope(|scope| {
        let reaper = scope.spawn(move || {
            let mut lat = Hist::default();
            let mut failed = 0u64;
            for (ticket, due) in rx {
                failed += u64::from(ticket.wait().is_err());
                lat.record(due.elapsed().as_nanos() as u64);
            }
            (lat, failed)
        });
        let mut late = Hist::default();
        let mut wbuf = vec![0u8; rig.sets[0].payload];
        let mut in_window = [false; CONNS];
        let (mut sent, mut turn) = (0u64, 0usize);
        let mut due = start;
        loop {
            let c = turn;
            turn = if turn + 1 == CONNS { 0 } else { turn + 1 };
            // Past the end, only finish the windows still open.
            let over = due >= start + dur;
            if over && !in_window.iter().any(|&w| w) {
                break;
            }
            if over && !in_window[c] {
                continue;
            }
            // Sleep through most of a long gap, spin through the rest.
            loop {
                let now = Instant::now();
                if now >= due {
                    late.record((now - due).as_nanos() as u64);
                    break;
                }
                if due - now > Duration::from_micros(300) {
                    std::thread::sleep(due - now - Duration::from_micros(200));
                } else {
                    std::hint::spin_loop();
                }
            }
            let set = &mut rig.sets[c];
            let req = match gens[c].next().expect("endless") {
                Op::Attach { pool } => {
                    in_window[c] = true;
                    Req::Attach(set.pools[pool as usize])
                }
                Op::Detach { pool } => {
                    in_window[c] = false;
                    Req::Detach(set.pools[pool as usize])
                }
                Op::Read { pool, obj } => {
                    Req::Read(set.objs[pool as usize][obj as usize], set.payload as u32)
                }
                Op::Write { pool, obj, seq } => {
                    set.fill(&mut wbuf, pool, obj, seq);
                    set.wrote(pool, obj, seq);
                    Req::Write(set.objs[pool as usize][obj as usize], &wbuf)
                }
            };
            match rig.conns[c].submit(req) {
                Ok(ticket) => tx.send((ticket, due)).expect("reaper alive"),
                Err(_) => break,
            }
            sent += 1;
            due += gap;
        }
        drop(tx);
        let (lat, failed) = reaper.join().expect("reaper");
        (lat, late, sent, failed)
    });
    out.tally(sent, failed, "open-loop phase");
    out.phase(
        "open8k",
        dur.as_secs_f64(),
        "open loop, 8000 req/s, one scheduling thread, timed from due time",
    );
    out.set("net.open8k_p50_us", lat.p50_us());
    out.set("net.open8k_p99_us", lat.p99_us());
    out.set("net.open8k_gen_late_p99_us", late.p99_us());
    out.note("open8k.samples", lat.count() as f64);
}
