//! End-to-end flight-recorder tests: run real multi-threaded workloads with
//! the trace rings enabled, then replay the dump through the offline
//! happens-before checker (`terp-analysis::hb`).
//!
//! Two directions are asserted:
//!
//! * **Clean runs stay clean** — partitioned TT workloads (each thread owns
//!   its pools) must produce zero TERP-D201/D202/D203 findings, and the
//!   static cross-check must agree.
//! * **Injected races are caught** — a deliberately barrier-overlapped
//!   shared-pool schedule must be flagged by TERP-D201, and the static W002
//!   analyzer must also predict it (`CrossCheck::is_sound`).
//!
//! Iteration counts scale with `TERP_STRESS_ITERS` (default 100) so CI can
//! lean on the same file in release mode.

use std::sync::{Arc, Barrier};

use terp_analysis::hb::{check_trace, cross_check};
use terp_core::config::Scheme;
use terp_pmo::{OpenMode, Permission};
use terp_service::{PmoServer, PmoService, ServiceConfig, TraceConfig, TraceRecorder};
use terp_trace::{time, EventKind, TraceSet};

const THREADS: usize = 4;

fn iters() -> usize {
    std::env::var("TERP_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100)
}

fn traced_config() -> ServiceConfig {
    ServiceConfig::for_tests(Scheme::terp_full())
        .with_shards(4)
        .with_ew_target_us(500)
        .with_sweep_period_us(200)
        .with_trace(TraceConfig::full())
}

/// Runs the workload, shuts the server down (joining the sweeper so no
/// thread is mid-record), and returns the quiesced trace.
fn run_and_snapshot(
    config: ServiceConfig,
    workload: impl FnOnce(&PmoServer),
) -> (TraceSet, terp_service::ServiceReport) {
    let server = PmoServer::start(config);
    let tracer: Arc<TraceRecorder> = Arc::clone(
        server
            .service()
            .tracer()
            .expect("config enabled the flight recorder"),
    );
    workload(&server);
    let report = server.shutdown();
    (tracer.snapshot(), report)
}

/// Partitioned TT workload: each worker thread attaches, writes, reads and
/// detaches only its own pool. No window ever overlaps across threads, so
/// the checker must report zero races — and the static analyzer must agree
/// that nothing is contended.
#[test]
fn clean_partitioned_run_has_zero_races() {
    let (set, report) = run_and_snapshot(traced_config(), |server| {
        let svc = server.service();
        let pools: Vec<_> = (0..THREADS)
            .map(|i| {
                svc.create_pool(&format!("own-{i}"), 1 << 16, OpenMode::ReadWrite)
                    .unwrap()
            })
            .collect();
        std::thread::scope(|s| {
            for (tid, &pmo) in pools.iter().enumerate() {
                let svc = Arc::clone(&svc);
                s.spawn(move || {
                    for _ in 0..iters() {
                        svc.attach(tid, pmo, Permission::ReadWrite).unwrap();
                        let oid = svc.alloc(tid, pmo, 64).unwrap();
                        svc.write(tid, oid, &[tid as u8; 16]).unwrap();
                        assert_eq!(svc.read(tid, oid, 16).unwrap(), vec![tid as u8; 16]);
                        svc.free(tid, oid).unwrap();
                        svc.detach(tid, pmo).unwrap();
                    }
                });
            }
        });
    });

    assert_eq!(set.total_torn(), 0, "quiesced dump must not tear");
    assert!(
        report.threads_observed >= THREADS as u64,
        "all {THREADS} workers recorded metrics, saw {}",
        report.threads_observed
    );

    let hb = check_trace(&set);
    assert_eq!(
        hb.stats.races(),
        0,
        "partitioned run must be race-free; diagnostics: {:?}",
        hb.diagnostics
    );
    let diff = cross_check(&hb);
    assert!(diff.is_sound());
    assert!(
        diff.static_only.is_empty(),
        "disjoint profiles must not be statically contended: {:?}",
        diff.static_only
    );
}

/// Injected race: two threads hold writable windows on the *same* pool at
/// the same time, with a barrier pinning the overlap so the schedule is
/// deterministic. The checker must witness TERP-D201 on exactly that pool,
/// and the static W002 analyzer must have predicted it (soundness).
#[test]
fn shared_pool_overlap_is_flagged_d201() {
    let mut shared_raw = 0u16;
    let (set, _report) = {
        let shared_raw = &mut shared_raw;
        run_and_snapshot(traced_config(), move |server| {
            let svc = server.service();
            let shared = svc
                .create_pool("shared", 1 << 16, OpenMode::ReadWrite)
                .unwrap();
            *shared_raw = shared.raw();
            let barrier = Barrier::new(2);
            std::thread::scope(|s| {
                for tid in 0..2 {
                    let svc = Arc::clone(&svc);
                    let barrier = &barrier;
                    s.spawn(move || {
                        svc.attach(tid, shared, Permission::ReadWrite).unwrap();
                        let oid = svc.alloc(tid, shared, 64).unwrap();
                        // Both windows are now open; hold the overlap
                        // across a data op on each side.
                        barrier.wait();
                        svc.write(tid, oid, &[0xAB; 8]).unwrap();
                        barrier.wait();
                        svc.free(tid, oid).unwrap();
                        svc.detach(tid, shared).unwrap();
                    });
                }
            });
        })
    };

    let hb = check_trace(&set);
    assert!(
        hb.stats.window_races >= 1,
        "overlapping writable windows must trip D201; stats: {:?}",
        hb.stats
    );
    assert!(
        hb.racy_pools.contains(&shared_raw),
        "the shared pool must be the one flagged: {:?}",
        hb.racy_pools
    );
    assert!(
        hb.diagnostics.iter().any(|d| d.code == "TERP-D201"),
        "a TERP-D201 diagnostic must be rendered"
    );
    // Stranger/use-after-close must NOT fire: both clients attached first
    // and never touched the pool after detach.
    assert_eq!(hb.stats.stranger_ops, 0);
    assert_eq!(hb.stats.use_after_close, 0);

    let diff = cross_check(&hb);
    assert!(
        diff.is_sound(),
        "W002 must statically predict the witnessed race: {:?}",
        diff.dynamic_only
    );
    assert!(diff.static_pools.contains(&shared_raw));
}

/// The dump → load roundtrip used by `terp-analyze --trace-dir`: the
/// on-disk form must replay to the same verdict as the in-memory snapshot.
#[test]
fn dump_roundtrips_through_trace_dir() {
    let dir = std::env::temp_dir().join(format!("terp-trace-rt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (set, _report) = run_and_snapshot(traced_config(), |server| {
        let svc = server.service();
        let pmo = svc
            .create_pool("solo", 1 << 16, OpenMode::ReadWrite)
            .unwrap();
        svc.attach(0, pmo, Permission::ReadWrite).unwrap();
        let oid = svc.alloc(0, pmo, 32).unwrap();
        svc.write(0, oid, b"durable").unwrap();
        svc.detach(0, pmo).unwrap();
    });

    set.save(&dir).unwrap();
    let loaded = TraceSet::load(&dir).unwrap();
    assert_eq!(loaded.total_events(), set.total_events());

    let a = check_trace(&set);
    let b = check_trace(&loaded);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stats.races(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// One axis: the service and the recorder read one clock, so an attach's
/// event is stamped inside the call, between two `time::now_ns` reads that
/// bracket it. The thread is fresh, so its cached stamp cannot predate the
/// call, and its ring is small, so registering it keeps the bracket tight
/// (a 1 ms offset between the two clocks falls outside it).
#[test]
fn one_axis_an_attach_event_is_stamped_inside_its_call() {
    let svc = PmoService::new(
        ServiceConfig::for_tests(Scheme::terp_full())
            .with_trace(TraceConfig::full().with_capacity(64)),
    );
    let pmo = svc
        .create_pool("axis", 1 << 16, OpenMode::ReadWrite)
        .unwrap();
    let (before, after) = std::thread::scope(|s| {
        s.spawn(|| {
            let before = time::now_ns();
            svc.attach(7, pmo, Permission::ReadWrite).unwrap();
            (before, time::now_ns())
        })
        .join()
        .unwrap()
    });
    let set = svc.tracer().expect("tracing is on").snapshot();
    let stamps: Vec<u64> = set
        .threads
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| matches!(e.kind, EventKind::Attach { client: 7, .. }))
        .map(|e| e.ts_ns)
        .collect();
    assert_eq!(stamps.len(), 1, "one attach recorded");
    assert!(
        (before..=after).contains(&stamps[0]),
        "attach stamped {} outside its call [{before}, {after}]",
        stamps[0]
    );
}

/// Flight-mode stress: bounded rings under a mixed shared/partitioned load.
/// Rings may wrap (dropped events), in which case the checker runs from its
/// consistency cut — the assertion is that *partitioned* pools still never
/// produce false races, even from a lossy trace.
#[test]
fn flight_mode_stress_stays_clean_on_partitioned_pools() {
    let config = traced_config().with_trace(TraceConfig::flight());
    let (set, _report) = run_and_snapshot(config, |server| {
        let svc = server.service();
        let pools: Vec<_> = (0..THREADS)
            .map(|i| {
                svc.create_pool(&format!("stress-{i}"), 1 << 16, OpenMode::ReadWrite)
                    .unwrap()
            })
            .collect();
        std::thread::scope(|s| {
            for (tid, &pmo) in pools.iter().enumerate() {
                let svc = Arc::clone(&svc);
                s.spawn(move || {
                    for i in 0..(iters() * 4) {
                        svc.attach(tid, pmo, Permission::ReadWrite).unwrap();
                        let oid = svc.alloc(tid, pmo, 64).unwrap();
                        if i % 3 == 0 {
                            svc.write(tid, oid, &[i as u8; 32]).unwrap();
                        } else {
                            let _ = svc.read(tid, oid, 32).unwrap();
                        }
                        svc.free(tid, oid).unwrap();
                        svc.detach(tid, pmo).unwrap();
                    }
                });
            }
        });
    });

    assert_eq!(set.total_torn(), 0, "quiesced dump must not tear");
    let hb = check_trace(&set);
    assert_eq!(
        hb.stats.races(),
        0,
        "no false positives from a lossy flight-mode trace; stats: {:?}",
        hb.stats
    );
}
