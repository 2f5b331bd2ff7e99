//! `inproc_hot` — direct service calls on the in-memory configuration.
//!
//! One driver thread over 32 private pools × 8 × 64 B objects; each loop
//! picks a pool (seeded) and runs `attach, 1 write, 7 read_into, detach`.
//! Service, pmo and arch+core do all the work; net and persist none. (A
//! second lane exists for the traced run's two-thread diagnostic.)

use std::time::Instant;

use crate::gen::{Mix, WindowGen};
use crate::measure::{quiet_time, run_slice, steady_time, timed_ms, Around, Lane, Phase, Worker};
use crate::span::attribute;
use crate::sut::{Config, Inproc, Svc};

use super::{
    inproc_drive, repeated_setup, setup_inproc, trace_slots, verify_inproc, with_ew, CallTrace,
    Ctx, Outcome, PoolSet, Shape, Spares,
};

/// Lanes set up; the traced run's `service.scale_2t` drives both.
const THREADS: usize = 2;
/// Threads that drive everything else.
const DRIVERS: usize = 1;
const MIX: Mix = Mix::WriteThenReads { reads: 7 };

fn shape(ctx: &Ctx) -> Shape {
    Shape {
        pools: ctx.size(32, 4) as u32,
        objects: 8,
        payload: 64,
        pool_bytes: 1 << 16,
    }
}

struct Lanes {
    sets: Vec<PoolSet>,
    gens: Vec<WindowGen>,
}

fn setup(svc: &Svc, ctx: &Ctx, tag: &str) -> Lanes {
    let s = shape(ctx);
    Lanes {
        sets: (0..THREADS)
            .map(|t| setup_inproc(svc, t, t as u32, tag, s).expect("set up pools"))
            .collect(),
        gens: (0..THREADS)
            .map(|t| WindowGen::new(ctx.seed, t as u64, s.pools, s.objects, MIX))
            .collect(),
    }
}

/// Runs the first `threads` lanes for `dur`, with a span per call into
/// `traces` when given; `spares`, when given, takes its samples after every
/// slice.
fn phase(
    ctx: &Ctx,
    svc: &Svc,
    lanes: &mut Lanes,
    threads: usize,
    dur: std::time::Duration,
    mut traces: Option<&mut Vec<CallTrace>>,
    mut spares: Option<&mut Spares>,
) -> Phase {
    Phase::run(dur, None, |each| {
        let mut slots = trace_slots(traces.as_deref_mut(), threads);
        let workers: Vec<Worker<'_>> = lanes
            .sets
            .iter_mut()
            .zip(lanes.gens.iter_mut())
            .take(threads)
            .zip(slots.drain(..))
            .enumerate()
            .map(|(t, ((set, gen), trace))| {
                let svc = svc.clone();
                Box::new(move |lane: &mut Lane| inproc_drive(&svc, t, set, gen, lane, trace))
                    as Worker<'_>
            })
            .collect();
        let slice = with_ew(svc, || run_slice(each, workers));
        if let Some(spares) = spares.as_deref_mut() {
            spares.sample(10, cold_start_ms, || {
                let sut = Inproc::start(&Config::memory()).expect("start");
                setup(&sut.svc(), ctx, "spare");
                sut.shutdown();
            });
        }
        slice
    })
}

/// Cold start of an in-memory service to its first acknowledged write.
fn cold_start_ms() -> f64 {
    let (sut, ms) = timed_ms(|| {
        let sut = Inproc::start(&Config::memory()).expect("start");
        let svc = sut.svc();
        let pool = svc.create_pool("cold", 1 << 16).expect("pool");
        svc.attach(0, pool).expect("attach");
        let obj = svc.alloc(0, pool, 64).expect("alloc");
        svc.write(0, obj, &[7u8; 64]).expect("write");
        svc.detach(0, pool).expect("detach");
        sut
    });
    sut.shutdown();
    ms
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    out.load.driver_threads = if ctx.trace { THREADS } else { DRIVERS };

    let ((sut, mut lanes), setups) = repeated_setup(
        ctx,
        None,
        |i| {
            let sut = Inproc::start(&Config::memory()).expect("start");
            let lanes = setup(&sut.svc(), ctx, &format!("hot{i}"));
            (sut, lanes)
        },
        |(sut, _)| sut.shutdown(),
    );
    let svc = sut.svc();
    out.phase(
        "setup",
        steady_time(&setups, false),
        "repeated set-ups before the first timed op, s",
    );

    if ctx.trace {
        traced(ctx, &mut out, &svc, &mut lanes);
    } else {
        untraced(ctx, &mut out, &svc, &mut lanes, setups);
    }

    // Every object must hold the last value its thread wrote.
    if ctx.corrupt {
        lanes.sets[0].corrupt();
    }
    for (t, set) in lanes.sets.iter().enumerate() {
        let (n, bad) = verify_inproc(&svc, t, set);
        out.tally(n, bad, "final read-back");
    }
    sut.shutdown();
    out
}

fn untraced(
    ctx: &Ctx,
    out: &mut Outcome,
    svc: &Svc,
    lanes: &mut Lanes,
    mut setups: Vec<Around<f64>>,
) {
    // Restarts (an in-memory service has nothing to recover, so its restart
    // cost is a cold start) and more set-ups are sampled all through the run.
    let mut spares = Spares::default();
    // One thread, closed loop: with one caller the median window transaction
    // and the rate are two readings of the same phase.
    let t_load = Instant::now();
    let load = phase(
        ctx,
        svc,
        lanes,
        DRIVERS,
        ctx.dur(0.55),
        None,
        Some(&mut spares),
    );
    out.load.observe_threads(0);
    out.timed(
        "load",
        &load,
        "1 thread, closed loop, one window transaction per latency sample",
    );
    let report = svc.report();
    out.service_report(&report, t_load.elapsed().as_secs_f64());

    let fsut = Inproc::start(&Config::memory().with_flight(true)).expect("start flight");
    let fsvc = fsut.svc();
    let mut flanes = setup(&fsvc, ctx, "flight");
    flanes.gens = std::mem::take(&mut lanes.gens);
    let flight = phase(
        ctx,
        &fsvc,
        &mut flanes,
        DRIVERS,
        ctx.dur(0.45),
        None,
        Some(&mut spares),
    );
    out.timed(
        "flight",
        &flight,
        "the same load on a fresh instance, flight recorder on",
    );
    for (t, set) in flanes.sets.iter().enumerate() {
        let (n, bad) = verify_inproc(&fsvc, t, set);
        out.tally(n, bad, "flight read-back");
    }
    lanes.gens = flanes.gens;
    fsut.shutdown();

    setups.append(&mut spares.setups);
    out.set("setup_s", steady_time(&setups, false));
    out.set("tput_ops_s", load.tput());
    out.set("p50_us", load.p50_us());
    out.set("cpu_us_per_op", load.cpu_us_per_op());
    out.set("ew_avg_us", load.aux_us());
    out.set("tput_flight_ops_s", flight.tput());
    out.set("recover_ms", quiet_time(&spares.cold_ms));
    out.note("restarts", spares.cold_ms.len() as f64);
    out.note("setups", setups.len() as f64);
    let all = load.all_lat();
    out.note("load.samples", all.count() as f64);
    out.note("load.p99_us", all.p99_us());
    out.note("load.ops", load.total_ops() as f64);
    out.note("ew.windows", report.ew_count as f64);
}

fn traced(ctx: &Ctx, out: &mut Outcome, svc: &Svc, lanes: &mut Lanes) {
    let epoch = Instant::now();
    // The load with a span per call: where a window transaction's time goes.
    let t_load = Instant::now();
    let mut one = vec![CallTrace::new(epoch, 0)];
    let spanned = phase(
        ctx,
        svc,
        lanes,
        DRIVERS,
        ctx.dur(0.25),
        Some(&mut one),
        None,
    );
    out.timed("load.traced", &spanned, "1 thread, span per call");
    // The same without spans: what tracing costs.
    let plain = phase(ctx, svc, lanes, DRIVERS, ctx.dur(0.20), None, None);
    out.load.observe_threads(0);
    out.timed("load", &plain, "1 thread, no spans");
    let pair = phase(ctx, svc, lanes, THREADS, ctx.dur(0.10), None, None);
    out.timed("load.2t", &pair, "2 threads, no spans");
    let report = svc.report();
    out.service_report(&report, t_load.elapsed().as_secs_f64());

    // The same stream with protection off: the paper's headline overhead.
    let tput_of = |cfg: Config, tag: &str, gens: &mut Vec<WindowGen>, out: &mut Outcome| {
        let sut = Inproc::start(&cfg).expect("start");
        let svc = sut.svc();
        let mut l = setup(&svc, ctx, tag);
        l.gens = std::mem::take(gens);
        let p = phase(ctx, &svc, &mut l, DRIVERS, ctx.dur(0.15), None, None);
        out.timed(tag, &p, "1 thread, other configuration");
        *gens = l.gens;
        let counts = svc.trace_counts();
        sut.shutdown();
        (p, counts)
    };
    let unprotected = Config {
        unprotected: true,
        ..Config::memory()
    };
    let (bare, _) = tput_of(unprotected, "load.unprotected", &mut lanes.gens, out);
    let (flight, counts) = tput_of(
        Config::memory().with_flight(true),
        "load.flight",
        &mut lanes.gens,
        out,
    );

    let mut calls = one.pop().expect("one trace");
    let a = attribute(&calls.log.spans);
    out.set("service.attach_ns_p50", calls.attach.quantile(0.5));
    out.set("service.detach_ns_p50", calls.detach.quantile(0.5));
    out.set("service.read_ns_p50", calls.read.quantile(0.5));
    out.set("service.write_ns_p50", calls.write.quantile(0.5));
    out.set("service.data_ns_p99", calls.data().quantile(0.99));
    out.set("service.scale_2t", pair.tput() / plain.tput().max(1e-9));
    out.set(
        "service.protect_overhead_frac",
        bare.tput() / plain.tput().max(1e-9) - 1.0,
    );
    out.set(
        "trace.flight_overhead_frac",
        plain.tput() / flight.tput().max(1e-9) - 1.0,
    );
    if let Some((events, dropped)) = counts {
        out.set(
            "trace.events_per_op",
            events as f64 / flight.total_ops().max(1) as f64,
        );
        out.set("trace.dropped_frac", dropped as f64 / events.max(1) as f64);
    }
    out.set(
        "bench.trace_overhead_frac",
        plain.tput() / spanned.tput().max(1e-9) - 1.0,
    );
    out.set("cpu_us_per_op", plain.cpu_us_per_op());
    out.set("ew_avg_us", plain.aux_us());
    out.set("bench.span_coverage_frac", a.coverage());
    out.set("bench.driver_self_frac", a.layer_frac("bench"));
    out.note("load.traced.p50_us", spanned.p50_us());
    out.note("spans.roots", a.roots as f64);
    out.spans = std::mem::take(&mut calls.log.spans);
}
