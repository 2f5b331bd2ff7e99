//! `terp-repl-bench` — replication lag and failover time for the terp-repl
//! warm-standby pair (DESIGN.md §14).
//!
//! Two measurements, one run:
//!
//! * **Steady-state replication lag** — a closed-loop writer drives a
//!   durable leader while a follower mirrors it over loopback TCP. Every
//!   `--probe-every` ops the driver timestamps a write, reads the shard's
//!   new durable WAL seq off the leader's own log tail, and spins until the
//!   follower reports that seq applied: the elapsed time is the end-to-end
//!   write→standby-applied latency. Between probes, a sampler records the
//!   raw seq gap (leader shipped − follower acked) per shard.
//! * **Failover time** — the leader process "dies" (dropped without drain,
//!   exposure windows still open on disk), and the follower promotes: full
//!   durable recovery over its mirror, force-resealing every crash-open
//!   window, then standby→leader gate flip and a first accepted write. The
//!   wall-clock from kill to that first write is the failover time;
//!   recovery's own nanoseconds come from the promoted service's
//!   [`RecoveryStats`].
//!
//! Results land in `results/BENCH_repl.json`.
//!
//! ```text
//! terp-repl-bench --ops 4000 --shards 2 --visibility durable
//! ```

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use terp_analysis::Json;
use terp_bench::cli::Cli;
use terp_core::config::Scheme;
use terp_persist::store::WAL_FILE;
use terp_persist::{TailReader, TailStatus};
use terp_pmo::{ObjectId, OpenMode, Permission, PmoId};
use terp_repl::{ReplFollower, ReplFollowerConfig, ReplLeader, ReplLeaderConfig};
use terp_service::{LatencyHistogram, PmoServer, ServiceConfig, Visibility};

const CLIENT: usize = 1;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("terp-repl-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

/// Tracks each shard's durable WAL tail so a probe can learn the exact seq
/// its write landed at without re-reading whole log files.
struct SeqTracker {
    tails: Vec<TailReader>,
    last: Vec<Option<u64>>,
}

impl SeqTracker {
    fn new(dir: &Path, shards: usize) -> Self {
        let tails = (0..shards)
            .map(|i| TailReader::new(&dir.join(format!("shard-{i}")).join(WAL_FILE)))
            .collect();
        SeqTracker {
            tails,
            last: vec![None; shards],
        }
    }

    /// Drains every tail; returns the current per-shard durable last seq.
    fn poll(&mut self) -> &[Option<u64>] {
        for (i, tail) in self.tails.iter_mut().enumerate() {
            loop {
                let chunk = tail.poll().expect("leader WAL readable");
                if let Some((seq, _)) = chunk.records.last() {
                    self.last[i] = Some(*seq);
                }
                if !matches!(chunk.status, TailStatus::NeedMore) || chunk.records.is_empty() {
                    break;
                }
            }
        }
        &self.last
    }
}

/// Spins until the follower has applied at least `want` on every shard;
/// returns the elapsed time.
fn wait_follower_at(follower: &ReplFollower, want: &[Option<u64>], t0: Instant) -> Duration {
    loop {
        let lag = follower.lag();
        let ok = lag.len() == want.len()
            && lag
                .iter()
                .zip(want)
                .all(|(l, w)| l.bootstrapped && w.is_none_or(|seq| l.applied_seq >= seq));
        if ok {
            return t0.elapsed();
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "follower stalled: lag={lag:?} want={want:?}"
        );
        std::hint::spin_loop();
    }
}

fn hist_json(hist: &LatencyHistogram) -> Json {
    Json::obj([
        ("p50_ns", Json::Num(hist.quantile(0.50) as f64)),
        ("p95_ns", Json::Num(hist.quantile(0.95) as f64)),
        ("p99_ns", Json::Num(hist.quantile(0.99) as f64)),
        ("mean_ns", Json::Num(hist.mean())),
        ("max_ns", Json::Num(hist.max() as f64)),
    ])
}

fn main() {
    let cli = Cli::new(
        "terp-repl-bench",
        "replication lag and failover time for the WAL-shipping warm-standby pair",
    )
    .opt_uint(
        "--ops",
        "N",
        "closed-loop write ops to drive (default: 4000)",
    )
    .opt_uint("--shards", "N", "service shards (default: 2)")
    .opt_uint("--payload", "BYTES", "write payload size (default: 64)")
    .opt_uint(
        "--probe-every",
        "N",
        "ops between write→applied latency probes (default: 16)",
    )
    .opt_choice(
        "--visibility",
        &["submit", "durable"],
        "leader ack rule (default: durable)",
    )
    .opt_str(
        "--out",
        "PATH",
        "output path (default: results/BENCH_repl.json)",
    )
    .parse_env();

    let ops = cli.uint("--ops").unwrap_or(4000).max(1);
    let shards = cli.uint("--shards").unwrap_or(2).max(1) as usize;
    let payload = cli.uint("--payload").unwrap_or(64).max(1) as usize;
    let probe_every = cli.uint("--probe-every").unwrap_or(16).max(1);
    let visibility_key = cli.choice("--visibility", "durable").to_string();
    let visibility = Visibility::parse(&visibility_key).expect("valid visibility");
    let out_path = cli.choice("--out", "results/BENCH_repl.json");

    let leader_dir = temp_dir("leader");
    let mirror_dir = temp_dir("mirror");
    let config = ServiceConfig::for_tests(Scheme::terp_full())
        .with_shards(shards)
        .with_durable(&leader_dir)
        .with_visibility(visibility);

    println!(
        "terp-repl-bench: {shards} shard(s), visibility {visibility_key}, {ops} ops, \
         {payload}-byte writes, probe every {probe_every}"
    );

    // Leader service + replication pair over loopback.
    let server = PmoServer::try_start(config.clone()).expect("start leader");
    let svc = server.service();
    let leader = ReplLeader::start(ReplLeaderConfig::new(&leader_dir, shards), "127.0.0.1:0")
        .expect("start repl leader");
    let follower =
        ReplFollower::start(ReplFollowerConfig::new(leader.local_addr(), &mirror_dir, 1));

    // One pool per shard's worth of traffic; objects cycled round-robin.
    let pools: Vec<PmoId> = (0..shards.max(2))
        .map(|i| {
            let p = svc
                .create_pool(&format!("repl-bench-{i}"), 1 << 20, OpenMode::ReadWrite)
                .expect("create pool");
            svc.attach(CLIENT, p, Permission::ReadWrite)
                .expect("attach");
            p
        })
        .collect();
    let objects: Vec<ObjectId> = pools
        .iter()
        .map(|&p| svc.alloc(CLIENT, p, payload as u64).expect("alloc"))
        .collect();
    let data = vec![0xA5u8; payload];

    // Background sampler: raw per-shard seq gap (shipped − acked), sampled
    // every millisecond while the writer runs.
    let stop = AtomicBool::new(false);
    let (lag_hist, probe_hist, steady_secs) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut gaps = LatencyHistogram::default();
            let mut max_gap = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for l in leader.lag() {
                    let gap = l.shipped_seq.saturating_sub(l.acked_seq);
                    gaps.record(gap);
                    max_gap = max_gap.max(gap);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            (gaps, max_gap)
        });

        // Closed-loop writer with periodic write→applied probes.
        let mut tracker = SeqTracker::new(&leader_dir, shards);
        let mut probe_hist = LatencyHistogram::default();
        let t_start = Instant::now();
        for i in 0..ops {
            let oid = objects[(i % objects.len() as u64) as usize];
            let probing = i.is_multiple_of(probe_every);
            let t0 = Instant::now();
            svc.write(CLIENT, oid, &data).expect("write");
            if probing {
                let want = tracker.poll().to_vec();
                let applied = wait_follower_at(&follower, &want, t0);
                probe_hist.record(applied.as_nanos() as u64);
            }
        }
        let steady_secs = t_start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let (gaps, max_gap) = sampler.join().expect("sampler");
        let _ = max_gap;
        (gaps, probe_hist, steady_secs)
    });

    println!(
        "  steady state: {:.0} writes/s, write→applied p50 {} ns, p99 {} ns, \
         seq gap p99 {} records",
        ops as f64 / steady_secs.max(f64::MIN_POSITIVE),
        probe_hist.quantile(0.50),
        probe_hist.quantile(0.99),
        lag_hist.quantile(0.99),
    );

    // Make sure the standby is fully caught up, then kill the leader: drop
    // without drain (windows stay open on disk), exactly a process death.
    let mut tracker = SeqTracker::new(&leader_dir, shards);
    let want = tracker.poll().to_vec();
    wait_follower_at(&follower, &want, Instant::now());
    let open_before = follower.open_windows();

    let t_kill = Instant::now();
    drop(server);
    leader.shutdown();
    let promoted = follower
        .promote(config)
        .expect("promote follower over its mirror");
    let svc2 = promoted.service();
    // First accepted write on the promoted leader ends the outage.
    let p = svc2
        .create_pool("post-failover", 1 << 16, OpenMode::ReadWrite)
        .expect("create pool after failover");
    svc2.attach(CLIENT, p, Permission::ReadWrite)
        .expect("attach");
    let oid = svc2.alloc(CLIENT, p, 64).expect("alloc");
    svc2.write(CLIENT, oid, b"serving-again")
        .expect("first write");
    let failover = t_kill.elapsed();

    let rec = svc2.recovery_stats().expect("promotion ran recovery");
    println!(
        "  failover: kill→first-write {:.3} ms (recovery {:.3} ms, {} windows resealed, \
         {} records replayed, {} open at kill)",
        failover.as_secs_f64() * 1e3,
        rec.recovery_ns as f64 / 1e6,
        rec.windows_resealed,
        rec.records_replayed,
        open_before,
    );
    promoted.shutdown();

    let doc = Json::obj([
        // Matches terp-analyze's JSON schema version (the result documents
        // evolve together; see that binary's docs).
        ("schema_version", Json::Num(2.0)),
        ("benchmark", Json::Str("terp-repl-bench".to_string())),
        // Closed loop: the writer issues the next op after the previous one
        // completes; probe latencies are per-op write→standby-applied.
        ("loop_mode", Json::Str("closed".to_string())),
        ("shards", Json::Num(shards as f64)),
        ("visibility", Json::Str(visibility_key)),
        ("ops", Json::Num(ops as f64)),
        ("payload_bytes", Json::Num(payload as f64)),
        (
            "steady_state",
            Json::obj([
                (
                    "writes_per_sec",
                    Json::Num(ops as f64 / steady_secs.max(f64::MIN_POSITIVE)),
                ),
                ("write_to_applied", hist_json(&probe_hist)),
                (
                    "seq_gap_records",
                    Json::obj([
                        ("p50", Json::Num(lag_hist.quantile(0.50) as f64)),
                        ("p99", Json::Num(lag_hist.quantile(0.99) as f64)),
                        ("max", Json::Num(lag_hist.max() as f64)),
                    ]),
                ),
            ]),
        ),
        (
            "failover",
            Json::obj([
                (
                    "kill_to_first_write_ms",
                    Json::Num(failover.as_secs_f64() * 1e3),
                ),
                ("recovery_ms", Json::Num(rec.recovery_ns as f64 / 1e6)),
                ("windows_resealed", Json::Num(rec.windows_resealed as f64)),
                ("records_replayed", Json::Num(rec.records_replayed as f64)),
                ("open_windows_at_kill", Json::Num(open_before as f64)),
            ]),
        ),
    ]);
    if let Some(dir) = Path::new(out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    std::fs::write(out_path, format!("{}\n", doc.render())).expect("write results");
    println!("wrote {out_path}");

    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&mirror_dir).ok();
}
