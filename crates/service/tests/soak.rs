//! Multi-thread soak: real OS threads hammer the service and we assert the
//! paper's core safety property at every step — **no window is ever
//! readable after detach or expiry** — via the mappings' process
//! permissions and the holder lists.
//!
//! All parameters are small so the whole file stays well under 10 s in CI,
//! and every assertion is invariant (no timing-sensitive expectations):
//! deterministic across repeated runs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use terp_core::config::Scheme;
use terp_pmo::{AccessKind, OpenMode, Permission, PmoId};
use terp_service::{PmoServer, PmoService, ServiceConfig, ServiceError};

const THREADS: usize = 8;
const ITERS: usize = 300;
const POOLS: usize = 16;

fn make_pools(svc: &PmoService, n: usize) -> Vec<PmoId> {
    (0..n)
        .map(|i| {
            svc.create_pool(&format!("soak-{i}"), 1 << 20, OpenMode::ReadWrite)
                .unwrap()
        })
        .collect()
}

/// TERP (TT): after *this client's* detach, the client must never pass the
/// permission check again, even though the pool may stay mapped (delayed
/// detach) and other clients keep working.
#[test]
fn tt_no_window_readable_after_detach() {
    let config = ServiceConfig::for_tests(Scheme::terp_full())
        .with_shards(8)
        .with_ew_target_us(500)
        .with_sweep_period_us(200);
    let server = PmoServer::start(config);
    let svc = server.service();
    let pools = make_pools(&svc, POOLS);

    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let svc = Arc::clone(&svc);
            let pools = &pools;
            s.spawn(move || {
                for i in 0..ITERS {
                    let pmo = pools[(tid * 31 + i * 7) % pools.len()];
                    svc.attach(tid, pmo, Permission::ReadWrite).unwrap();
                    assert!(svc.client_can(tid, pmo, AccessKind::Write));
                    let oid = svc.alloc(tid, pmo, 64).unwrap();
                    svc.write(tid, oid, &[tid as u8; 16]).unwrap();
                    assert_eq!(svc.read(tid, oid, 16).unwrap(), vec![tid as u8; 16]);
                    svc.free(tid, oid).unwrap();
                    svc.detach(tid, pmo).unwrap();

                    // The safety property, checked on every iteration.
                    assert!(
                        !svc.client_can(tid, pmo, AccessKind::Read),
                        "client {tid} still readable after detach of {pmo}"
                    );
                    assert!(
                        matches!(
                            svc.read(tid, oid, 1).unwrap_err(),
                            ServiceError::PermissionDenied { .. } | ServiceError::Substrate(_)
                        ),
                        "read after detach must fail"
                    );
                }
            });
        }
    });

    let report = server.shutdown();
    assert_eq!(report.ops.attaches as usize, THREADS * ITERS);
    assert_eq!(report.ops.detaches as usize, THREADS * ITERS);
    // Each iteration issues exactly one deliberately-denied probe read; a
    // probe against an already-unmapped pool fails earlier in the substrate
    // without counting a denial, so the counter is bounded above.
    assert!(report.ops.denials as usize <= THREADS * ITERS);

    // Post-quiesce: nothing mapped, nobody can access anything.
    assert_eq!(svc.attached_total(), 0);
    for &pmo in &pools {
        assert!(!svc.process_can(pmo, AccessKind::Read));
        for tid in 0..THREADS {
            assert!(!svc.client_can(tid, pmo, AccessKind::Read));
        }
    }
    // Every opened window was closed and accounted.
    assert!(report.ew.count >= 1);
    assert_eq!(report.tew.count as usize, THREADS * ITERS);
}

/// TERP (TT): an idle delayed-detach window *expires* — the background
/// sweeper must close it, after which the process-level permission is gone.
/// Bounded poll, so the test is deterministic: it fails only if the sweeper
/// never acts within the (generous) deadline.
#[test]
fn tt_expired_window_is_closed_by_sweeper() {
    let config = ServiceConfig::for_tests(Scheme::terp_full())
        .with_shards(2)
        .with_ew_target_us(300)
        .with_sweep_period_us(100);
    let server = PmoServer::start(config);
    let svc = server.service();
    let pmo = svc
        .create_pool("expiring", 1 << 16, OpenMode::ReadWrite)
        .unwrap();

    svc.attach(0, pmo, Permission::ReadWrite).unwrap();
    svc.detach(0, pmo).unwrap();
    // Regardless of whether the detach was delayed (window still open) or
    // full (already closed), the window must be gone shortly after the EW
    // target elapses.
    let deadline = Instant::now() + Duration::from_secs(5);
    while svc.process_can(pmo, AccessKind::Read) {
        assert!(
            Instant::now() < deadline,
            "sweeper failed to close an expired idle window"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(svc.attached_total(), 0);
    assert!(!svc.client_can(0, pmo, AccessKind::Read));
    server.shutdown();
}

/// Basic semantics (MM): conflicting attaches serialize; after a client's
/// own detach that client can never access the pool, and after shutdown no
/// mapping survives.
#[test]
fn mm_serialized_attaches_leave_no_residual_windows() {
    let config = ServiceConfig::for_tests(Scheme::Merr).with_shards(4);
    let server = PmoServer::start(config);
    let svc = server.service();
    // Few pools + many threads: guaranteed contention on the blocking path.
    let pools = make_pools(&svc, 4);

    std::thread::scope(|s| {
        for tid in 0..4 {
            let svc = Arc::clone(&svc);
            let pools = &pools;
            s.spawn(move || {
                for i in 0..100 {
                    let pmo = pools[(tid + i) % pools.len()];
                    svc.attach(tid, pmo, Permission::ReadWrite).unwrap();
                    let oid = svc.alloc(tid, pmo, 32).unwrap();
                    svc.write(tid, oid, b"mm").unwrap();
                    svc.free(tid, oid).unwrap();
                    svc.detach(tid, pmo).unwrap();
                    assert!(
                        !svc.client_can(tid, pmo, AccessKind::Read),
                        "client {tid} kept access to {pmo} after detach"
                    );
                }
            });
        }
    });

    let report = server.shutdown();
    assert_eq!(report.ops.attaches, 400);
    assert_eq!(report.attach_syscalls, 400);
    assert_eq!(svc.attached_total(), 0);
    for &pmo in &pools {
        assert!(!svc.process_can(pmo, AccessKind::Read));
    }
}

/// Shutdown under load: workers keep issuing requests while the server
/// shuts down; they must only ever observe clean errors, and the drain must
/// still leave nothing attached.
#[test]
fn shutdown_under_load_is_clean() {
    let config = ServiceConfig::for_tests(Scheme::terp_full())
        .with_shards(4)
        .with_ew_target_us(500)
        .with_sweep_period_us(200);
    let server = PmoServer::start(config);
    let svc = server.service();
    let pools = make_pools(&svc, 8);

    std::thread::scope(|s| {
        for tid in 0..4 {
            let svc = Arc::clone(&svc);
            let pools = &pools;
            s.spawn(move || {
                for i in 0.. {
                    let pmo = pools[(tid + i) % pools.len()];
                    match svc.attach(tid, pmo, Permission::ReadWrite) {
                        Ok(()) => {
                            // Detach may race shutdown's drain; both
                            // outcomes are acceptable, panics are not.
                            let _ = svc.detach(tid, pmo);
                        }
                        Err(ServiceError::ShuttingDown) => break,
                        Err(e) => panic!("unexpected error under shutdown: {e}"),
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(10));
        let _ = server.shutdown();
    });

    assert!(svc.is_shutting_down());
    assert_eq!(svc.attached_total(), 0);
}
