//! `terp-hotpath` — microbenchmark for the lock-free data path
//! (DESIGN.md §11).
//!
//! Phase A runs a read-mostly data-op loop over the seqlock fast path
//! across a 1/2/4/8-thread sweep, with and without attach/detach churn on
//! sibling shards, reporting per-thread ns/op. Timing is *batched* —
//! `Instant::now()` brackets the whole loop, never a single op — so the
//! measurement doesn't drown the ~100 ns ops it measures.
//!
//! Phase B samples per-op fast-path read latency into a histogram, and
//! phase C churns attach/detach under the full server (sweeper on,
//! simulator-derived cost charges) to confirm the registry/metrics
//! overhaul kept attach latency at the PR-2 baseline (p99 ≤ 6016 ns).
//!
//! Results land in `results/BENCH_hotpath.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use terp_analysis::Json;
use terp_bench::cli::Cli;
use terp_bench::Scale;
use terp_core::config::Scheme;
use terp_pmo::{ObjectId, OpenMode, Permission, PmoId};
use terp_service::{CostModel, LatencyHistogram, PmoServer, PmoService, ServiceConfig};
use terp_sim::SimParams;

/// Pools (and pre-allocated objects) per worker. Stays below the published
/// grant-slot count per pool (each pool has exactly one client), so the
/// fast path never falls back on crowding.
const POOLS_PER_WORKER: usize = 8;

/// Ops per deadline check in the batched loop.
const BATCH: usize = 256;

/// The PR-2 locked-baseline attach p99 from `results/BENCH_service.json`;
/// phase C must not regress past it.
const BASELINE_ATTACH_P99_NS: u64 = 6016;

/// Client id of the phase-A churn antagonist (never a data worker).
const CHURN_CLIENT: usize = 900;

/// Shards for the phase-A service: 8, so the 8 data pools (ids 1–8) and
/// the 8 churn pools (ids 9–16) land pairwise on the same shards and the
/// churner's attach/detach critical sections hold the mutexes a locked
/// data op would queue behind, the way live window churn does.
const DATA_SHARDS: usize = 8;

/// One worker's pools, each holding one 8-byte object.
fn setup_worker_pools(svc: &PmoService, tid: usize) -> Vec<ObjectId> {
    (0..POOLS_PER_WORKER)
        .map(|i| {
            let p = svc
                .create_pool(&format!("hp-{tid}-{i}"), 1 << 16, OpenMode::ReadWrite)
                .expect("pool");
            svc.attach(tid, p, Permission::ReadWrite).expect("attach");
            let oid = svc.alloc(tid, p, 8).expect("alloc");
            svc.write(tid, oid, &[tid as u8; 8]).expect("seed write");
            oid
        })
        .collect()
}

/// A service for the data-path phases: TT, windows pinned open (10 s EW, no
/// sweeper), zero cost charges — nothing but the permission/data machinery
/// itself is on the clock.
fn data_service() -> Arc<PmoService> {
    Arc::new(PmoService::new(
        ServiceConfig::new(Scheme::terp_full())
            .with_shards(DATA_SHARDS)
            .with_ew_target_us(10_000_000)
            .with_sweep_period_us(0)
            .with_cost(CostModel::zero()),
    ))
}

/// Shared working set for phase A: `POOLS_PER_WORKER` pools that **every**
/// worker attaches to — the paper's TT sharing story, and the shape where
/// a locked data path would serialize all clients of a shard on its mutex
/// while the fast path reads the published window state lock-free. With at
/// most 8 workers the grant mirror never overflows its 8 slots.
fn setup_shared_pools(svc: &PmoService, threads: usize) -> Vec<ObjectId> {
    (0..POOLS_PER_WORKER)
        .map(|i| {
            let p = svc
                .create_pool(&format!("hp-shared-{i}"), 1 << 16, OpenMode::ReadWrite)
                .expect("pool");
            for tid in 0..threads {
                svc.attach(tid, p, Permission::ReadWrite).expect("attach");
            }
            let oid = svc.alloc(0, p, 8).expect("alloc");
            svc.write(0, oid, &[i as u8; 8]).expect("seed write");
            oid
        })
        .collect()
}

/// Sibling pools for the churn antagonists: same shards as the data pools
/// (ids 9–16 against 1–8 with [`DATA_SHARDS`] = 8), never read by workers.
/// Sized like real application pools (1 MiB), so each attach/detach holds
/// the shard mutex for a realistic page-mapping critical section.
fn setup_churn_pools(svc: &PmoService) -> Vec<PmoId> {
    (0..POOLS_PER_WORKER)
        .map(|i| {
            svc.create_pool(&format!("hp-churn-{i}"), 1 << 20, OpenMode::ReadWrite)
                .expect("churn pool")
        })
        .collect()
}

/// Phase A cell: `threads` workers hammer reads (1 write per 16 ops) on the
/// shared pool set until the deadline; returns per-thread ns/op
/// (wall × threads ÷ ops, churn thread excluded from the normalization).
///
/// With `churn` set, antagonist threads (one per two workers, as window
/// churn scales with client count) attach/detach-cycle the sibling pools
/// throughout — the steady-state TERP condition, where window churn holds
/// the shard mutexes that the fast path never touches.
fn data_cell(threads: usize, duration: Duration, churn: bool) -> f64 {
    let svc = data_service();
    let oids = setup_shared_pools(&svc, threads);
    let churn_pools = setup_churn_pools(&svc);
    let churners = if churn { threads.div_ceil(2) } else { 0 };
    let started = Instant::now();
    let deadline = started + duration;
    let total_ops: u64 = std::thread::scope(|s| {
        let churn_handles: Vec<_> = (0..churners)
            .map(|c| {
                let svc = Arc::clone(&svc);
                let pools = &churn_pools;
                s.spawn(move || {
                    let mut cycles = 0u64;
                    while Instant::now() < deadline {
                        for &p in pools {
                            svc.attach(CHURN_CLIENT + c, p, Permission::ReadWrite)
                                .expect("churn attach");
                            svc.detach(CHURN_CLIENT + c, p).expect("churn detach");
                            cycles += 1;
                        }
                    }
                    cycles
                })
            })
            .collect();
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let svc = Arc::clone(&svc);
                let oids = &oids;
                s.spawn(move || {
                    let mut ops = 0u64;
                    let mut buf = [0u8; 8];
                    // Stagger start offsets so workers fan over the pools.
                    let mut buf_i = tid * 3;
                    while Instant::now() < deadline {
                        for _ in 0..BATCH {
                            let oid = oids[buf_i % POOLS_PER_WORKER];
                            buf_i += 1;
                            if buf_i % 16 == 0 {
                                svc.write(tid, oid, &[buf_i as u8; 8]).expect("write");
                            } else {
                                svc.read_into(tid, oid, &mut buf).expect("read");
                            }
                        }
                        ops += BATCH as u64;
                    }
                    ops
                })
            })
            .collect();
        let ops = handles.map_join_sum();
        if churners > 0 {
            let cycles = churn_handles.map_join_sum();
            assert!(cycles > 0, "churn antagonists never ran");
        }
        ops
    });
    let wall_ns = started.elapsed().as_nanos() as f64;
    wall_ns * threads as f64 / total_ops.max(1) as f64
}

/// Joins worker handles and sums their op counts.
trait JoinSum {
    fn map_join_sum(self) -> u64;
}

impl JoinSum for Vec<std::thread::ScopedJoinHandle<'_, u64>> {
    fn map_join_sum(self) -> u64 {
        self.into_iter().map(|h| h.join().expect("worker")).sum()
    }
}

/// Phase B: per-op timed fast-path reads.
fn read_latency(threads: usize, per_thread_ops: u64) -> LatencyHistogram {
    let svc = data_service();
    let oids: Vec<Vec<ObjectId>> = (0..threads).map(|t| setup_worker_pools(&svc, t)).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let svc = Arc::clone(&svc);
                let oids = &oids[tid];
                s.spawn(move || {
                    let mut h = LatencyHistogram::default();
                    let mut buf = [0u8; 8];
                    for i in 0..per_thread_ops {
                        let oid = oids[i as usize % POOLS_PER_WORKER];
                        let t0 = Instant::now();
                        svc.read_into(tid, oid, &mut buf).expect("read");
                        h.record(t0.elapsed().as_nanos() as u64);
                    }
                    h
                })
            })
            .collect();
        let mut merged = LatencyHistogram::default();
        for h in handles {
            merged.merge(&h.join().expect("worker"));
        }
        merged
    })
}

/// Phase C: attach/detach churn under the full server (sweeper on,
/// simulator cost charges — the PR-2 measurement conditions).
fn attach_churn(threads: usize, duration: Duration) -> LatencyHistogram {
    let server = PmoServer::start(
        ServiceConfig::new(Scheme::terp_full())
            .with_ew_target_us(40)
            .with_sweep_period_us(10)
            .with_cost(CostModel::from_sim(&SimParams::default())),
    );
    let svc = server.service();
    let pools: Vec<Vec<PmoId>> = (0..threads)
        .map(|t| {
            (0..POOLS_PER_WORKER)
                .map(|i| {
                    svc.create_pool(&format!("churn-{t}-{i}"), 1 << 16, OpenMode::ReadWrite)
                        .expect("pool")
                })
                .collect()
        })
        .collect();
    let deadline = Instant::now() + duration;
    let merged = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let svc = Arc::clone(&svc);
                let pools = &pools[tid];
                s.spawn(move || {
                    let mut h = LatencyHistogram::default();
                    let mut i = 0usize;
                    while Instant::now() < deadline {
                        let p = pools[i % POOLS_PER_WORKER];
                        i += 1;
                        let t0 = Instant::now();
                        if svc.attach(tid, p, Permission::ReadWrite).is_err() {
                            break;
                        }
                        h.record(t0.elapsed().as_nanos() as u64);
                        let _ = svc.detach(tid, p);
                    }
                    h
                })
            })
            .collect();
        let mut merged = LatencyHistogram::default();
        for h in handles {
            merged.merge(&h.join().expect("worker"));
        }
        merged
    });
    server.shutdown();
    merged
}

fn hist_json(h: &LatencyHistogram) -> Json {
    Json::obj([
        ("count", Json::Num(h.count() as f64)),
        ("mean_ns", Json::Num(h.mean())),
        ("p50_ns", Json::Num(h.quantile(0.50) as f64)),
        ("p99_ns", Json::Num(h.quantile(0.99) as f64)),
        ("max_ns", Json::Num(h.max() as f64)),
    ])
}

fn main() {
    let cli = Cli::standard("terp-hotpath", "lock-free data-path microbenchmark")
        .opt_uint(
            "--duration-ms",
            "MS",
            "per-cell run length (default 300; scale test: 40)",
        )
        .opt_str(
            "--out",
            "PATH",
            "output path (default: results/BENCH_hotpath.json)",
        )
        .parse_env();
    let scale = cli.scale();
    // --threads caps the sweep here (default 8) rather than sizing a pool.
    let max_threads = if cli.uint("--threads").is_some() {
        cli.threads()
    } else {
        8
    };
    let cell_ms = cli.uint("--duration-ms").unwrap_or(match scale {
        Scale::Test => 40,
        Scale::Paper => 300,
    });
    let cell = Duration::from_millis(cell_ms);
    let out_path = cli.choice("--out", "results/BENCH_hotpath.json");

    println!(
        "terp-hotpath ({scale:?} scale): thread sweep up to {max_threads}, {cell_ms} ms per cell\n"
    );
    println!("— phase A: data-path ns/op, with and without attach/detach churn —");
    let sweep: Vec<usize> = [1, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= max_threads)
        .collect();
    let cells: Vec<Json> = sweep
        .iter()
        .map(|&t| {
            let churned = data_cell(t, cell, true);
            let quiescent = data_cell(t, cell, false);
            println!(
                "  {t} thread(s): under churn {churned:8.1} ns/op   quiescent {quiescent:8.1} ns/op"
            );
            Json::obj([
                ("threads", Json::Num(t as f64)),
                ("churn_ns_per_op", Json::Num(churned)),
                ("quiescent_ns_per_op", Json::Num(quiescent)),
            ])
        })
        .collect();

    println!("\n— phase B: fast-path read latency —");
    let lat_threads = sweep.iter().copied().max().unwrap_or(1).min(4);
    let read_hist = read_latency(
        lat_threads,
        match scale {
            Scale::Test => 20_000,
            Scale::Paper => 200_000,
        },
    );
    println!(
        "  {} reads: p50 {} ns  p99 {} ns  max {} ns",
        read_hist.count(),
        read_hist.quantile(0.50),
        read_hist.quantile(0.99),
        read_hist.max()
    );

    println!("\n— phase C: attach/detach churn under the full server —");
    let attach_hist = attach_churn(lat_threads, cell.max(Duration::from_millis(100)));
    let attach_p99 = attach_hist.quantile(0.99);
    println!(
        "  {} attaches: p50 {} ns  p99 {} ns (baseline p99 {} ns) — {}",
        attach_hist.count(),
        attach_hist.quantile(0.50),
        attach_p99,
        BASELINE_ATTACH_P99_NS,
        if attach_p99 <= BASELINE_ATTACH_P99_NS {
            "within baseline"
        } else {
            "REGRESSION"
        }
    );

    let doc = Json::obj([
        // 3: per cell, ns/op under churn and quiescent.
        ("schema_version", Json::Num(3.0)),
        ("benchmark", Json::Str("terp-hotpath".to_string())),
        ("scale", Json::Str(format!("{scale:?}").to_lowercase())),
        ("max_threads", Json::Num(max_threads as f64)),
        ("cell_duration_ms", Json::Num(cell_ms as f64)),
        ("data_path", Json::Arr(cells)),
        ("fast_read_latency", hist_json(&read_hist)),
        (
            "attach",
            Json::obj([
                ("count", Json::Num(attach_hist.count() as f64)),
                ("mean_ns", Json::Num(attach_hist.mean())),
                ("p50_ns", Json::Num(attach_hist.quantile(0.50) as f64)),
                ("p99_ns", Json::Num(attach_p99 as f64)),
                ("max_ns", Json::Num(attach_hist.max() as f64)),
                ("baseline_p99_ns", Json::Num(BASELINE_ATTACH_P99_NS as f64)),
                (
                    "within_baseline",
                    Json::Bool(attach_p99 <= BASELINE_ATTACH_P99_NS),
                ),
            ]),
        ),
    ]);
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    std::fs::write(out_path, format!("{}\n", doc.render())).expect("write results");
    println!("\nwrote {out_path}");
}
