//! Hot-path stress: the lock-free fast path must never observe a window
//! that protection has closed.
//!
//! Every test churns attach/detach/sweep traffic against pools while
//! asserting the two revocation invariants of DESIGN.md §11 from the
//! client's side:
//!
//! 1. a client's *own* detach revokes its fast-path access before the
//!    detach call returns (the revoke publishes before the teardown);
//! 2. a client that never attached — or whose window the sweeper expired —
//!    never reads data through the fast path, no matter how the seqlock
//!    epochs interleave.
//!
//! A last test guards the sweeper's side: it wakes for expiries, not for
//! attaches, and no first attach may leave a window the sweeper never
//! hears of.
//!
//! Iteration counts scale with `TERP_STRESS_ITERS` (default 200); CI runs
//! the release-mode high-iteration variant as the TSan-free fallback.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use terp_core::config::Scheme;
use terp_pmo::{AccessKind, ObjectId, OpenMode, Permission, PmoId};
use terp_service::{PmoService, ServiceConfig, Sweeper};

const THREADS: usize = 4;
const POOLS: usize = 4;

fn iters() -> u64 {
    std::env::var("TERP_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

/// TT service with a short enough EW that the sweeper actually expires and
/// randomizes windows mid-churn.
fn churn_service() -> Arc<PmoService> {
    Arc::new(PmoService::new(
        ServiceConfig::for_tests(Scheme::terp_full()).with_ew_target_us(2_000),
    ))
}

/// Creates `POOLS` pools, each seeded with one object holding a marker
/// byte, and returns `(pool, oid)` pairs. The setup client detaches, so
/// the windows it opened are delayed/expired by the time workers start.
fn seed_pools(svc: &PmoService) -> Vec<(PmoId, ObjectId)> {
    (0..POOLS)
        .map(|i| {
            let p = svc
                .create_pool(&format!("pool-{i}"), 1 << 16, OpenMode::ReadWrite)
                .unwrap();
            let setup = 1000 + i;
            svc.attach(setup, p, Permission::ReadWrite).unwrap();
            let oid = svc.alloc(setup, p, 64).unwrap();
            svc.write(setup, oid, &[i as u8; 8]).unwrap();
            svc.detach(setup, p).unwrap();
            (p, oid)
        })
        .collect()
}

#[test]
fn own_detach_revokes_fast_path_before_returning() {
    let svc = churn_service();
    let pools = seed_pools(&svc);
    let stop = Arc::new(AtomicBool::new(false));

    // A sweeper look-alike keeps expiring idle windows and randomizing live
    // ones throughout, so fast-path readers race real epoch bumps.
    let sweeper = {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                svc.sweep_all();
                std::thread::sleep(Duration::from_micros(500));
            }
        })
    };

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let pools = pools.clone();
            std::thread::spawn(move || {
                let n = iters();
                for i in 0..n {
                    let (p, oid) = pools[(t + i as usize) % POOLS];
                    svc.attach(t, p, Permission::ReadWrite).unwrap();
                    // While attached, access always works: live windows are
                    // randomized by the sweeper, never closed.
                    svc.write(t, oid, &[t as u8; 4]).unwrap();
                    let got = svc.read(t, oid, 4).unwrap();
                    assert_eq!(got.len(), 4, "thread {t} iter {i}");
                    assert!(svc.client_can(t, p, AccessKind::Write));
                    svc.detach(t, p).unwrap();
                    // Invariant 1: the moment detach returns, this client's
                    // window is gone — the published revoke beat us here.
                    assert!(
                        !svc.client_can(t, p, AccessKind::Read),
                        "thread {t} iter {i}: client_can after own detach"
                    );
                    // Denied at the permission layer while the window
                    // lingers, or NotAttached once it fully closed — but
                    // never data.
                    match svc.read(t, oid, 4) {
                        Err(_) => {}
                        Ok(data) => {
                            panic!("thread {t} iter {i}: read after own detach → {data:?}")
                        }
                    }
                }
            })
        })
        .collect();

    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    sweeper.join().unwrap();
}

#[test]
fn stranger_never_reads_through_epoch_churn() {
    let svc = churn_service();
    let pools = seed_pools(&svc);
    let stop = Arc::new(AtomicBool::new(false));

    // Churners hammer attach/write/detach, forcing grant/revoke publishes.
    let churners: Vec<_> = (0..THREADS)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let pools = pools.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Acquire) {
                    let (p, oid) = pools[(t + i) % POOLS];
                    svc.attach(t, p, Permission::ReadWrite).unwrap();
                    svc.write(t, oid, &[0xAB; 4]).unwrap();
                    svc.detach(t, p).unwrap();
                    if i.is_multiple_of(16) {
                        svc.sweep_all();
                    }
                    i += 1;
                }
            })
        })
        .collect();

    // Invariant 2: a client that never attached is denied on every probe,
    // regardless of which mid-publish epoch its snapshots land on.
    let stranger = 777;
    let n = iters() * 4;
    for i in 0..n {
        let (p, oid) = pools[i as usize % POOLS];
        assert!(
            !svc.client_can(stranger, p, AccessKind::Read),
            "iter {i}: stranger gained client_can"
        );
        match svc.read(stranger, oid, 4) {
            Err(_) => {}
            Ok(data) => panic!("iter {i}: stranger read → {data:?}"),
        }
    }
    stop.store(true, Ordering::Release);
    for c in churners {
        c.join().unwrap();
    }
}

#[test]
fn expired_windows_are_unreadable_after_sweep() {
    let svc = churn_service();
    let pools = seed_pools(&svc);
    let n = iters().min(50);
    for round in 0..n {
        for (i, &(p, oid)) in pools.iter().enumerate() {
            let client = i;
            svc.attach(client, p, Permission::ReadWrite).unwrap();
            svc.write(client, oid, &[round as u8; 4]).unwrap();
            svc.detach(client, p).unwrap(); // delayed: EW still open
        }
        // Let every window expire, then sweep: the process loses the pages.
        std::thread::sleep(Duration::from_millis(5));
        svc.sweep_all();
        for (i, &(p, oid)) in pools.iter().enumerate() {
            assert!(
                !svc.process_can(p, AccessKind::Read),
                "round {round}: window survived expiry"
            );
            assert!(svc.read(i, oid, 4).is_err(), "round {round} pool {i}");
        }
    }
    assert_eq!(svc.attached_total(), 0);
}

/// Runs `body` on its own thread and fails the test if it has not finished
/// within `limit` (a lost sweeper wake would otherwise show as a hang).
fn watchdog(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(limit) {
        Ok(()) => runner.join().expect("body"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("body panicked"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("still running after {limit:?}"),
    }
}

/// A first attach unparks the sweeper only when the sweeper's planned
/// wake-up would miss the new window, so a wake lost between a pass's scan
/// and its park would leave windows open with nobody coming for them.
/// Bursts of attach/detach churn over 16 pools (EW target 200 µs, the real
/// sweeper) alternate with idle gaps in which the sweeper parks for good;
/// after every burst every pool must be unmapped within a bound that is
/// ample for a sweeper that woke — and never reached by one that did not.
#[test]
fn the_sweeper_closes_every_burst_without_a_lost_wake() {
    const CHURNERS: usize = 2;
    const BURST_POOLS: usize = 16;
    const BOUND: Duration = Duration::from_millis(500);
    watchdog(Duration::from_secs(120), || {
        let config = ServiceConfig::for_tests(Scheme::terp_full())
            .with_ew_target_us(200)
            .with_sweep_period_us(10);
        let svc = Arc::new(PmoService::new(config));
        let pools: Vec<PmoId> = (0..BURST_POOLS)
            .map(|i| {
                svc.create_pool(&format!("burst-{i}"), 1 << 16, OpenMode::ReadWrite)
                    .unwrap()
            })
            .collect();
        let sweeper = Sweeper::spawn(Arc::clone(&svc), 10);
        let rounds = (iters() / 4).max(20);
        for round in 0..rounds {
            let churners: Vec<_> = (0..CHURNERS)
                .map(|t| {
                    let svc = Arc::clone(&svc);
                    let pools = pools.clone();
                    std::thread::spawn(move || {
                        // Varying lengths put the burst's end at a different
                        // point of the sweeper's cycle each round.
                        let ops = 1 + (round as usize * 7 + t * 3) % 40;
                        for i in 0..ops {
                            let p = pools[(t * 5 + i * 3 + round as usize) % BURST_POOLS];
                            svc.attach(t, p, Permission::ReadWrite).unwrap();
                            svc.detach(t, p).unwrap();
                            // Pauses around the EW target let windows expire
                            // mid-burst, so passes that close the last
                            // tracked window race the next first attach.
                            let pause =
                                Duration::from_micros(((i + round as usize) % 4) as u64 * 100);
                            let until = Instant::now() + pause;
                            while Instant::now() < until {
                                std::hint::spin_loop();
                            }
                        }
                    })
                })
                .collect();
            for c in churners {
                c.join().unwrap();
            }
            let deadline = Instant::now() + BOUND;
            while svc.attached_total() > 0 {
                assert!(
                    Instant::now() < deadline,
                    "round {round}: {} pools still mapped {BOUND:?} after the burst \
                     (a first attach's wake was lost)",
                    svc.attached_total()
                );
                std::thread::sleep(Duration::from_micros(50));
            }
            // Idle gap: the sweeper's last pass found nothing and parks
            // until the next burst's first attach wakes it. Every other
            // round skips the gap, so that attach may land while the pass
            // that closed the last window is still running.
            if round % 2 == 1 {
                std::thread::sleep(Duration::from_micros(100 + (round % 7) * 150));
            }
        }
        assert!(
            svc.report().sweeper_unparks > 0,
            "bursts that start against a parked sweeper must wake it"
        );
        sweeper.stop();
    });
}
