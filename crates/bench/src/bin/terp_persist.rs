//! `terp-persist` — durability benchmark for the file-backed PMO store
//! (DESIGN.md §10, §16).
//!
//! Three experiments, all landing in `results/BENCH_persist.json`:
//!
//! 1. **Durable vs in-memory service throughput** — the same closed-loop
//!    attach/data/detach workload as `terp-serve`, run against a purely
//!    in-memory TERP-full service and against a durable one under each
//!    visibility rule: `submit` (ack at submit, pipelined background
//!    writer) and `durable` (ack after the caller's inline write + fsync).
//! 2. **Ack latency** — per-write latency percentiles (p50/p95/p99) under
//!    each rule: what a caller actually waits for its acknowledgement.
//! 3. **Recovery time vs log length** — un-checkpointed WALs of increasing
//!    record counts are re-opened through full recovery (replay, rollback,
//!    window resealing), reporting wall-clock recovery latency per length.
//!
//! ```text
//! terp-persist --threads 4 --duration-ms 400 --recovery-scale 2
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use terp_analysis::Json;
use terp_bench::cli::Cli;
use terp_core::config::Scheme;
use terp_persist::{DurableStore, WalRecord};
use terp_pmo::{OpenMode, Permission, PmoId};
use terp_service::{CostModel, LatencyHistogram, PmoServer, PmoService, ServiceConfig, Visibility};

struct RunSettings {
    threads: usize,
    duration: Duration,
    pools: usize,
    shards: usize,
    seed: u64,
    rounds: usize,
}

/// Closed loop: attach → `rounds` × (alloc/write/read/free) → detach.
fn worker(svc: &PmoService, tid: usize, pools: &[PmoId], deadline: Instant, rounds: usize) -> u64 {
    let mut ops = 0u64;
    let mut i = 0usize;
    while Instant::now() < deadline {
        let pmo = pools[(tid * 31 + i * 7) % pools.len()];
        i += 1;
        if svc.attach(tid, pmo, Permission::ReadWrite).is_err() {
            break; // shutting down
        }
        ops += 1;
        for _ in 0..rounds {
            let Ok(oid) = svc.alloc(tid, pmo, 64) else {
                break;
            };
            let payload = [tid as u8; 48];
            let ok = svc.write(tid, oid, &payload).is_ok() && svc.read(tid, oid, 48).is_ok();
            let _ = svc.free(tid, oid);
            ops += 4;
            if !ok {
                break;
            }
        }
        if svc.detach(tid, pmo).is_err() {
            break;
        }
        ops += 1;
    }
    ops
}

fn key(visibility: Visibility) -> &'static str {
    match visibility {
        Visibility::Submit => "submit",
        Visibility::Durable => "durable",
    }
}

/// The service configuration every experiment shares; `durable` adds a
/// (freshly emptied) store directory under the given visibility rule.
fn config(s: &RunSettings, durable: Option<(&Path, Visibility)>) -> ServiceConfig {
    let config = ServiceConfig::new(Scheme::terp_full())
        .with_shards(s.shards)
        .with_sweep_period_us(0)
        .with_seed(s.seed)
        .with_cost(CostModel::zero());
    match durable {
        None => config,
        Some((dir, visibility)) => {
            let _ = std::fs::remove_dir_all(dir);
            config.with_durable(dir).with_visibility(visibility)
        }
    }
}

/// Experiment 1 cell: runs the closed-loop workload against one service
/// configuration and returns its `modes` entry plus the throughput.
fn run_mode(label: &str, durable: Option<(&Path, Visibility)>, s: &RunSettings) -> (Json, f64) {
    let server = PmoServer::try_start(config(s, durable)).expect("service start");
    let svc = server.service();
    let pools: Vec<PmoId> = (0..s.pools)
        .map(|i| {
            svc.create_pool(&format!("persist-{i}"), 1 << 20, OpenMode::ReadWrite)
                .expect("pool creation")
        })
        .collect();

    let started = Instant::now();
    let deadline = started + s.duration;
    let mut ops = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..s.threads)
            .map(|tid| {
                let svc = Arc::clone(&svc);
                let pools = &pools;
                scope.spawn(move || worker(&svc, tid, pools, deadline, s.rounds))
            })
            .collect();
        for h in handles {
            ops += h.join().expect("worker panicked");
        }
    });
    let secs = started.elapsed().as_secs_f64();
    server.shutdown();
    if let Some((dir, _)) = durable {
        let _ = std::fs::remove_dir_all(dir);
    }
    let tput = ops as f64 / secs.max(f64::MIN_POSITIVE);
    let cell = Json::obj([
        ("mode", Json::Str(label.to_string())),
        ("ops", Json::Num(ops as f64)),
        ("elapsed_s", Json::Num(secs)),
        ("throughput_ops_per_s", Json::Num(tput)),
    ]);
    (cell, tput)
}

/// Experiment 2: per-write ack latency under one visibility rule. Each
/// thread hammers its own pre-allocated object with timed `write()` calls;
/// under `durable` the service only acks once the record is fsynced, so the
/// timed call *is* the commit.
fn run_ack_latency(visibility: Visibility, s: &RunSettings, scratch: &Path) -> Json {
    let dir = scratch.join(format!("lat-{}", key(visibility)));
    let server = PmoServer::try_start(config(s, Some((&dir, visibility)))).expect("service start");
    let svc = server.service();
    let pools: Vec<PmoId> = (0..s.threads)
        .map(|i| {
            svc.create_pool(&format!("lat-{i}"), 1 << 20, OpenMode::ReadWrite)
                .expect("pool creation")
        })
        .collect();
    let deadline = Instant::now() + s.duration;
    let mut hist = LatencyHistogram::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..s.threads)
            .map(|tid| {
                let svc = Arc::clone(&svc);
                let pmo = pools[tid];
                scope.spawn(move || {
                    let mut h = LatencyHistogram::new();
                    svc.attach(tid, pmo, Permission::ReadWrite).expect("attach");
                    let oid = svc.alloc(tid, pmo, 64).expect("alloc");
                    let payload = [tid as u8; 48];
                    while Instant::now() < deadline {
                        let t0 = Instant::now();
                        if svc.write(tid, oid, &payload).is_err() {
                            break;
                        }
                        h.record(t0.elapsed().as_nanos() as u64);
                    }
                    let _ = svc.detach(tid, pmo);
                    h
                })
            })
            .collect();
        for h in handles {
            hist.merge(&h.join().expect("worker panicked"));
        }
    });
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let us = |ns: u64| ns as f64 / 1e3;
    println!(
        "  ack-{:<8} p50 {:>8.1} us   p95 {:>8.1} us   p99 {:>8.1} us   ({} writes)",
        key(visibility),
        us(hist.quantile(0.50)),
        us(hist.quantile(0.95)),
        us(hist.quantile(0.99)),
        hist.count(),
    );
    Json::obj([
        ("mode", Json::Str(key(visibility).to_string())),
        ("commits", Json::Num(hist.count() as f64)),
        ("p50_us", Json::Num(us(hist.quantile(0.50)))),
        ("p95_us", Json::Num(us(hist.quantile(0.95)))),
        ("p99_us", Json::Num(us(hist.quantile(0.99)))),
        ("mean_us", Json::Num(hist.mean() / 1e3)),
        ("max_us", Json::Num(us(hist.max()))),
    ])
}

/// Writes an un-checkpointed WAL of `records` total records into `dir`:
/// a pool creation, an open exposure window, periodic in-place
/// randomizations, and data writes cycling through the pool.
fn build_recovery_log(dir: &Path, records: usize) {
    let _ = std::fs::remove_dir_all(dir);
    let (mut store, _, _) = DurableStore::open(dir, Visibility::Submit).expect("store open");
    let pmo = PmoId::new(1).expect("pmo id");
    store
        .log(&WalRecord::PoolCreate {
            id: pmo,
            name: "recovery".into(),
            size: 1 << 21,
            mode: OpenMode::ReadWrite,
        })
        .expect("log");
    store
        .log(&WalRecord::SessionOpen {
            client: 1,
            pmo,
            perm: Permission::ReadWrite,
        })
        .expect("log");
    store.log(&WalRecord::WindowOpen { pmo }).expect("log");
    let payload = vec![0xA5u8; 64];
    for i in 3..records {
        let record = if i % 64 == 0 {
            WalRecord::Randomize { pmo }
        } else {
            WalRecord::DataWrite {
                pmo,
                offset: ((i * 64) % ((1 << 21) - 64)) as u64,
                data: payload.clone(),
            }
        };
        store.log(&record).expect("log");
    }
    store.sync().expect("sync");
    // Dropped without a checkpoint: recovery must replay the whole log.
}

fn recovery_json(dir: &Path, records: usize) -> Json {
    build_recovery_log(dir, records);
    let wal_bytes = std::fs::metadata(dir.join("wal.log"))
        .map(|m| m.len())
        .unwrap_or(0);
    let (_, recovered, report) = DurableStore::open(dir, Visibility::Submit).expect("recovery");
    assert_eq!(recovered.resealed.len(), 1, "crash-open window resealed");
    let ms = report.recovery_ns as f64 / 1e6;
    println!(
        "  recovery  {:>8} records  {:>10} B wal   {:>9.3} ms   ({} resealed)",
        records, wal_bytes, ms, report.windows_resealed
    );
    let _ = std::fs::remove_dir_all(dir);
    Json::obj([
        ("records", Json::Num(records as f64)),
        ("wal_bytes", Json::Num(wal_bytes as f64)),
        (
            "records_replayed",
            Json::Num(report.records_replayed as f64),
        ),
        (
            "windows_resealed",
            Json::Num(report.windows_resealed as f64),
        ),
        ("recovery_ms", Json::Num(ms)),
    ])
}

fn main() {
    let cli = Cli::new(
        "terp-persist",
        "durability benchmark: durable vs in-memory throughput, ack latency, recovery latency",
    )
    .opt_uint("--threads", "N", "worker threads (default: 4)")
    .opt_uint("--duration-ms", "MS", "run length per mode (default: 400)")
    .opt_uint("--pools", "N", "distinct PMO pools (default: 32)")
    .opt_uint("--shards", "N", "service shards (default: 8)")
    .opt_uint("--rounds", "N", "data rounds per attach (default: 4)")
    .opt_uint("--seed", "SEED", "placement RNG seed (default: 0x7e2f)")
    .opt_choice(
        "--visibility",
        &["submit", "durable", "all"],
        "visibility rules to compare against memory (default: all)",
    )
    .opt_uint(
        "--recovery-scale",
        "K",
        "multiplier on the recovery log lengths (default: 1)",
    )
    .opt_str(
        "--out",
        "PATH",
        "output path (default: results/BENCH_persist.json)",
    )
    .parse_env();

    let settings = RunSettings {
        threads: cli.uint("--threads").unwrap_or(4) as usize,
        duration: Duration::from_millis(cli.uint("--duration-ms").unwrap_or(400)),
        pools: cli.uint("--pools").unwrap_or(32) as usize,
        shards: cli.uint("--shards").unwrap_or(8) as usize,
        seed: cli.uint("--seed").unwrap_or(0x7e2f),
        rounds: cli.uint("--rounds").unwrap_or(4) as usize,
    };
    let scale = cli.uint("--recovery-scale").unwrap_or(1).max(1) as usize;
    let out_path = cli.choice("--out", "results/BENCH_persist.json");
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("terp-persist-bench-{}", std::process::id()));

    println!(
        "terp-persist: {} thread(s), {} pool(s), {} ms per mode",
        settings.threads,
        settings.pools,
        settings.duration.as_millis(),
    );

    // Experiment 1: in-memory baseline vs each visibility rule.
    let (cell, memory_tput) = run_mode("memory", None, &settings);
    println!("  memory       {:>12.0} ops/s", memory_tput);
    let mut modes = vec![cell];
    let rules: Vec<Visibility> = match cli.choice("--visibility", "all") {
        "all" => vec![Visibility::Submit, Visibility::Durable],
        one => vec![Visibility::parse(one).expect("choice list matches parse")],
    };
    for &rule in &rules {
        let dir = scratch.join(format!("mode-{}", key(rule)));
        let (cell, tput) = run_mode(key(rule), Some((&dir, rule)), &settings);
        println!(
            "  {:<12} {:>12.0} ops/s   ({:.1}% of memory)",
            key(rule),
            tput,
            100.0 * tput / memory_tput.max(f64::MIN_POSITIVE),
        );
        modes.push(cell);
    }

    // Experiment 2: per-write ack latency under each rule.
    let commit_latency: Vec<Json> = rules
        .iter()
        .map(|&rule| run_ack_latency(rule, &settings, &scratch))
        .collect();

    // Experiment 3: recovery latency vs log length.
    let recovery: Vec<Json> = [1_000usize, 8_000, 32_000]
        .iter()
        .map(|n| recovery_json(&scratch.join(format!("rec-{n}")), n * scale))
        .collect();

    let doc = Json::obj([
        // 4: cells are `memory` / `submit` / `durable`.
        ("schema_version", Json::Num(4.0)),
        ("benchmark", Json::Str("terp-persist".to_string())),
        ("threads", Json::Num(settings.threads as f64)),
        ("pools", Json::Num(settings.pools as f64)),
        ("shards", Json::Num(settings.shards as f64)),
        (
            "duration_ms",
            Json::Num(settings.duration.as_millis() as f64),
        ),
        ("data_rounds", Json::Num(settings.rounds as f64)),
        ("modes", Json::Arr(modes)),
        ("commit_latency", Json::Arr(commit_latency)),
        ("recovery", Json::Arr(recovery)),
    ]);
    if let Some(dir) = Path::new(out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    std::fs::write(out_path, format!("{}\n", doc.render())).expect("write results");
    let _ = std::fs::remove_dir_all(&scratch);
    println!("wrote {out_path}");
}
