//! `crash_recover` — the persist layer used the other way round (replay
//! beside append), plus replication.
//!
//! A durable leader with a log-shipping leader and one follower on loopback.
//! A fixed count of acknowledged 256 B writes (2 000 per second of budget:
//! 36 000 at the driver's 18 s) over 64 pools in windows of `attach, 8
//! writes, detach` from one thread; then 16 windows are left open and the
//! leader is killed. The follower is promoted (kill → first accepted write,
//! once), 20 byte-copies of the crashed directory are recovered, and
//! the promoted follower takes a burst of writes with the flight recorder on.
//! The count is fixed so the log the recoveries replay has the same length
//! whatever the write path's speed: a write-path or checkpoint change that
//! makes restart or failover slower shows only here.

use std::time::{Duration, Instant};

use crate::gen::{Mix, Op, WindowGen};
use crate::hist::Hist;
use crate::measure::{
    process_cpu_s, quiet_time, steady_time, timed_ms, with_cpu, Disk, Phase, Slice, SLICES,
};
use crate::sut::{Config, Follower, Inproc, Leader, Svc};

use super::{
    copy_dir, dir_bytes, repeated_setup, setup_inproc, verify_inproc, with_ew, Ctx, Outcome,
    PoolSet, Shape,
};

const THREADS: usize = 1;
const PAYLOAD: usize = 256;
const WRITES_PER_WINDOW: u32 = 8;
/// Service client id of the windows left open at the kill.
const HOLDER: usize = THREADS;

fn shape(ctx: &Ctx) -> Shape {
    Shape {
        pools: ctx.size(64, 4) as u32,
        objects: ctx.size(16, 4) as u32,
        payload: PAYLOAD,
        pool_bytes: 1 << 16,
    }
}

fn gens(ctx: &Ctx) -> Vec<WindowGen> {
    let s = shape(ctx);
    let mix = Mix::WritePct {
        len: WRITES_PER_WINDOW,
        pct: 100,
    };
    (0..THREADS)
        .map(|t| WindowGen::new(ctx.seed, t as u64, s.pools, s.objects, mix))
        .collect()
}

struct Rig {
    sut: Inproc,
    leader: Leader,
    follower: Follower,
    sets: Vec<PoolSet>,
    dir: std::path::PathBuf,
    bootstrap_ms: f64,
}

fn wait_until(what: &str, limit: Duration, mut ready: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while !ready() {
        if t0.elapsed() > limit {
            eprintln!("crash_recover: gave up waiting for {what}");
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

fn build(ctx: &Ctx, i: usize) -> Rig {
    let dir = ctx.dir(&format!("leader{i}"));
    let mirror = ctx.dir(&format!("mirror{i}"));
    let sut = Inproc::start_killable(&Config::durable(&dir)).expect("start leader");
    let svc = sut.svc();
    let sets = (0..THREADS)
        .map(|t| setup_inproc(&svc, t, t as u32, "cr", shape(ctx)).expect("pools"))
        .collect();
    let leader = Leader::start(&dir).expect("start log shipping");
    let t0 = Instant::now();
    let follower = Follower::start(leader.addr(), &mirror);
    wait_until("follower bootstrap", Duration::from_secs(30), || {
        follower.caught_up()
    });
    Rig {
        sut,
        leader,
        follower,
        sets,
        dir,
        bootstrap_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// One thread's tallies of one count-slice of the load.
struct LoadLane {
    ops: u64,
    lat: Hist,
    failed: u64,
    lag: Hist,
}

/// Runs `windows` windows of `gen` against `svc`; the latency sample is one
/// whole window transaction. With
/// `probe`, every `probe.1`-th write also waits until the follower's copy
/// shows it; those windows are left out of the latencies.
fn load(
    svc: &Svc,
    t: usize,
    set: &mut PoolSet,
    gen: &mut WindowGen,
    windows: u64,
    probe: Option<(&Follower, u64)>,
) -> LoadLane {
    let mut lane = LoadLane {
        ops: 0,
        lat: Hist::default(),
        failed: 0,
        lag: Hist::default(),
    };
    let mut buf = vec![0u8; set.payload];
    let mut seen = vec![0u8; set.payload];
    let mut opened = Instant::now();
    let mut probed = false;
    for _ in 0..windows * u64::from(gen.window_len()) {
        let ok = match gen.next().expect("endless") {
            Op::Attach { pool } => {
                (opened, probed) = (Instant::now(), false);
                svc.attach(t, set.pools[pool as usize]).is_ok()
            }
            Op::Detach { pool } => {
                let ok = svc.detach(t, set.pools[pool as usize]).is_ok();
                if !probed {
                    lane.lat.record(opened.elapsed().as_nanos() as u64);
                }
                ok
            }
            Op::Read { .. } => unreachable!("an all-write mix"),
            Op::Write { pool, obj, seq } => {
                set.fill(&mut buf, pool, obj, seq);
                set.wrote(pool, obj, seq);
                let oid = set.objs[pool as usize][obj as usize];
                let t0 = Instant::now();
                let ok = svc.write(t, oid, &buf).is_ok();
                if let Some((follower, every)) = probe {
                    if set.writes.is_multiple_of(every) {
                        probed = true;
                        // Acknowledged here; how long until the standby has
                        // applied it?
                        let applied = wait_until("follower apply", Duration::from_secs(10), || {
                            follower.read(oid, &mut seen) && seen == buf
                        });
                        lane.lag.record(t0.elapsed().as_nanos() as u64);
                        lane.failed += u64::from(!applied);
                    }
                }
                ok
            }
        };
        lane.ops += 1;
        lane.failed += u64::from(!ok);
    }
    lane
}

/// A fixed-count load from [`THREADS`] threads, `windows` windows each, cut
/// by count into [`SLICES`] slices with the disk timed between them. Returns
/// the phase and the write → applied-on-the-standby lags sampled.
fn run_load(
    svc: &Svc,
    sets: &mut [PoolSet],
    gens: &mut [WindowGen],
    windows: u64,
    disk: &Disk,
    follower: Option<(&Follower, u64)>,
) -> (Phase, Hist) {
    let mut lag = Hist::default();
    let phase = Phase::run(Duration::ZERO, Some(disk), |_| {
        with_ew(svc, || {
            let cpu0 = process_cpu_s();
            let t0 = Instant::now();
            let lanes: Vec<LoadLane> = std::thread::scope(|scope| {
                let handles: Vec<_> = sets
                    .iter_mut()
                    .zip(gens.iter_mut())
                    .enumerate()
                    .map(|(t, (set, gen))| {
                        let svc = svc.clone();
                        // One prober is enough to sample lag.
                        let probe = follower.filter(|_| t == 0);
                        scope.spawn(move || load(&svc, t, set, gen, windows / SLICES as u64, probe))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("load thread"))
                    .collect()
            });
            let mut slice = Slice {
                secs: t0.elapsed().as_secs_f64(),
                ops: 0,
                lat: Hist::default(),
                failed: 0,
                cpu_s: process_cpu_s() - cpu0,
                cost: 1.0,
                calm: true,
                aux_us: 0.0,
            };
            for l in &lanes {
                slice.ops += l.ops;
                slice.lat.merge(&l.lat);
                slice.failed += l.failed;
                lag.merge(&l.lag);
            }
            slice
        })
    });
    (phase, lag)
}

fn verify_all(svc: &Svc, sets: &[PoolSet], out: &mut Outcome, what: &str) {
    for (t, set) in sets.iter().enumerate() {
        let (n, bad) = verify_inproc(svc, t, set);
        out.tally(n, bad, what);
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    out.load.driver_threads = THREADS;
    let disk = ctx.disk();
    let (rig, setups) = repeated_setup(
        ctx,
        Some(&disk),
        |i| build(ctx, i),
        |r| {
            r.follower.shutdown();
            r.leader.shutdown();
            r.sut.kill();
        },
    );
    let setup_s = steady_time(&setups, true);
    out.phase(
        "setup",
        setup_s,
        "median of repeated set-ups (follower bootstrap included), s",
    );
    let Rig {
        sut,
        leader,
        follower,
        mut sets,
        dir,
        bootstrap_ms,
    } = rig;
    let svc = sut.svc();
    let mut gens = gens(ctx);

    // The fixed-count load.
    let writes = if ctx.smoke {
        640
    } else {
        (2000.0 * ctx.seconds) as u64
    };
    let per_slice = (writes / u64::from(WRITES_PER_WINDOW) / (THREADS * SLICES) as u64).max(1);
    let windows = per_slice * SLICES as u64;
    let probe_every = ctx.size(200, 40);
    let probe = ctx.trace.then_some((&follower, probe_every));
    let t_load = Instant::now();
    let (loaded, lag) = run_load(&svc, &mut sets, &mut gens, windows, &disk, probe);
    out.load.observe_threads(0);
    out.timed(
        "load",
        &loaded,
        "fixed count of acknowledged 256 B writes, 1 thread, follower attached",
    );
    out.note(
        "load.writes",
        // The warm-up slice writes its share too.
        ((windows + per_slice) * THREADS as u64 * u64::from(WRITES_PER_WINDOW)) as f64,
    );
    let report = svc.report();
    out.service_report(&report, t_load.elapsed().as_secs_f64());
    verify_all(&svc, &sets, &mut out, "leader read-back");

    // The standby must have applied every acknowledged write.
    let mut seen = vec![0u8; PAYLOAD];
    let mut scratch = Vec::new();
    for set in &sets {
        let (mut n, mut bad) = (0, 0);
        for (p, objs) in set.objs.iter().enumerate() {
            for (o, &obj) in objs.iter().enumerate() {
                let ok = wait_until("follower to catch up", Duration::from_secs(20), || {
                    follower.read(obj, &mut seen)
                        && set.holds(p as u32, o as u32, &seen, &mut scratch)
                });
                n += 1;
                bad += u64::from(!ok);
            }
        }
        out.tally(n, bad, "follower copy of every acknowledged write");
    }
    let acked_bytes: u64 = sets.iter().map(PoolSet::acked_bytes).sum();
    let disk_bytes = dir_bytes(&dir);

    // Leave windows open, make sure the standby has seen them, and die.
    let open = ctx.size(16, 4) as usize;
    for &pool in sets[0].pools.iter().take(open) {
        svc.attach(HOLDER, pool).expect("open a window to die with");
    }
    let standby_saw_them = wait_until(
        "follower to see the open windows",
        Duration::from_secs(10),
        || follower.open_windows() >= open,
    );
    out.check(
        standby_saw_them,
        "standby saw every window the leader died holding",
    );
    let t_kill = Instant::now();
    drop(svc);
    sut.kill();
    leader.shutdown();

    // Failover: promote, first accepted write.
    let promoted = follower
        .promote(&Config::durable(&dir).with_flight(true))
        .expect("promote the follower over its mirror");
    let psvc = promoted.svc();
    // The first accepted write goes to a pool of its own, so the model of
    // what the dead leader acknowledged stays as it was.
    let first_ok = (|| {
        let pool = psvc.create_pool("after-failover", 1 << 16)?;
        psvc.attach(HOLDER, pool)?;
        let obj = psvc.alloc(HOLDER, pool, PAYLOAD as u64)?;
        psvc.write(HOLDER, obj, &[0x5a; PAYLOAD])?;
        psvc.detach(HOLDER, pool)
    })()
    .is_ok();
    let failover_ms = t_kill.elapsed().as_secs_f64() * 1e3;
    out.check(first_ok, "first write on the promoted follower");
    let precovery = psvc.recovery().expect("promotion runs recovery");
    out.check(
        precovery.windows_resealed == open as u64,
        &format!(
            "promotion resealed {} windows, {open} were open",
            precovery.windows_resealed
        ),
    );
    if ctx.corrupt {
        sets[0].corrupt();
    }
    verify_all(&psvc, &sets, &mut out, "promoted follower read-back");

    // Crash recovery of byte-copies of the killed leader's directory.
    let copies = ctx.size(20, 2);
    let (mut recover, mut raw_recover) = (Vec::new(), Vec::new());
    let mut records = 0u64;
    let mut all_resealed = true;
    let (mut torn, mut rolled_back) = (0, 0);
    for i in 0..copies {
        let copy = ctx.data_root.join(format!("copy{i}"));
        copy_dir(&dir, &copy).expect("copy the crashed directory");
        let (sut, timed) = with_cpu(|| {
            timed_ms(|| Inproc::start_killable(&Config::durable(&copy)).expect("recover a copy"))
        })
        .split();
        recover.push(timed.out / timed.factor);
        raw_recover.push(timed.out);
        let csvc = sut.svc();
        let r = csvc.recovery().expect("durable start reports recovery");
        records = r.records_replayed;
        all_resealed &= r.windows_resealed == open as u64;
        torn += r.torn_tails;
        rolled_back += r.txns_rolled_back;
        verify_all(&csvc, &sets, &mut out, "recovered copy read-back");
        drop(csvc);
        sut.kill();
        let _ = std::fs::remove_dir_all(&copy);
    }
    out.check(
        all_resealed,
        "every recovered copy resealed exactly the windows open at the kill",
    );

    // The promoted follower serves a burst, flight recorder on.
    let burst = (per_slice / 4).max(1) * SLICES as u64;
    let (flight, _) = run_load(&psvc, &mut sets, &mut gens, burst, &disk, None);
    out.timed(
        "flight",
        &flight,
        "fixed count of writes on the promoted follower, flight recorder on",
    );
    verify_all(
        &psvc,
        &sets,
        &mut out,
        "promoted follower read-back after the burst",
    );
    drop(psvc);
    promoted.shutdown();

    // Replay is CPU work on bytes the copy just put in the page cache: the
    // disk's speed does not enter, the CPU's does, and the host can only
    // slow it.
    let recover_ms = quiet_time(&recover);
    out.note("recover.raw_ms", quiet_time(&raw_recover));
    out.set("setup_s", setup_s);
    out.set("tput_ops_s", loaded.tput());
    out.set("p50_us", loaded.p50_us());
    out.set("cpu_us_per_op", loaded.cpu_us_per_op());
    out.set("ew_avg_us", loaded.aux_us());
    out.set("tput_flight_ops_s", flight.tput());
    out.set("recover_ms", recover_ms);
    out.set(
        "persist.records_per_op",
        records as f64 / loaded.total_ops().max(1) as f64,
    );
    out.set(
        "persist.recover_krecords_per_s",
        records as f64 / recover_ms.max(1e-9),
    );
    out.set(
        "persist.windows_resealed_ok",
        f64::from(u8::from(all_resealed)),
    );
    out.set("persist.torn_tails", torn as f64);
    out.set("persist.txns_rolled_back", rolled_back as f64);
    out.set(
        "disk_bytes_per_user_byte",
        disk_bytes as f64 / acked_bytes.max(1) as f64,
    );
    out.set("repl.apply_lag_p50_us", lag.p50_us());
    out.set("repl.apply_lag_p99_us", lag.p99_us());
    out.set("repl.bootstrap_ms", bootstrap_ms);
    out.set("repl.failover_ms", failover_ms);
    out.note("load.wall_s", loaded.secs());
    out.note("lag.samples", lag.count() as f64);
    out.note("records_replayed", records as f64);
    out.note("failover_ms", failover_ms);
    out
}
