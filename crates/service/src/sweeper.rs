//! The background sweeper thread.
//!
//! TERP's hardware walks the circular buffer on a timer (Figure 7a); the
//! service models that with one OS thread that runs
//! [`PmoService::sweep_all`]'s pass: expired idle entries are detached for
//! real, expired live entries are randomized in place.
//!
//! The wake-up schedule is *adaptive*, not periodic: each pass also
//! returns the earliest moment any tracked window can expire (the fold
//! [`PmoService::next_expiry_ns`] computes, read under the shard locks the
//! pass already holds), and the thread parks exactly until then — or
//! indefinitely when no windows are tracked. The configured period only
//! floors how tightly the thread may spin. Under `visibility = durable` an
//! expiry's `WindowClose` waits for the shard's next commit, and the
//! deadline counts the moment — one EW target later — at which that commit
//! falls to the sweeper: one more wake-up, at most, after the last window
//! closes. An idle service therefore costs zero wakeups.
//!
//! The thread wakes when a window *expires*, not when one opens. It
//! publishes its plan in one word: `0` while a pass runs (stored before
//! the pass takes its first shard lock), then the instant its timed park
//! ends, or `u64::MAX` for an indefinite park (stored before it parks). A
//! first attach unparks the thread only when the word is `0` or the new
//! window expires before the plan; otherwise the planned wake-up already
//! catches it. Why the shard lock makes this lose no wake is written down
//! at the wake path (`PmoService::wake_sweeper_for`) and in DESIGN.md §11.
//! `ServiceReport::sweeper_unparks` counts the wakes attaches delivered.
//!
//! The thread supports clean shutdown: flag, wake, join — and dropping the
//! handle does the same, so no detached thread (with its service `Arc` and
//! open WAL files) survives the server.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::service::PmoService;

/// Handle to the running sweeper thread.
#[derive(Debug)]
pub struct Sweeper {
    stop: Arc<AtomicBool>,
    /// `Some` until the thread has been joined (by `stop` or by `Drop`).
    handle: Option<JoinHandle<u64>>,
}

impl Sweeper {
    /// Spawns the sweeper over `service`. `period_us` floors the time
    /// between passes; actual wake-ups track the earliest window expiry.
    ///
    /// # Panics
    ///
    /// If `service` already has a sweeper, running or stopped: attaches
    /// wake the first one registered, for the service's lifetime.
    pub fn spawn(service: Arc<PmoService>, period_us: u64) -> Self {
        assert!(
            !service.has_sweeper(),
            "a service has one sweeper for its lifetime"
        );
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let floor_ns = period_us.max(1).saturating_mul(1_000);
        let handle = std::thread::Builder::new()
            .name("terp-sweeper".into())
            .spawn(move || {
                // Register before the first pass: an attach that lands after
                // this point can always wake us. `unpark` tokens make the
                // plan→park window race-free — a wake delivered while
                // sweeping or before the park just makes the park return
                // immediately.
                service.register_sweeper(std::thread::current());
                let mut passes = 0u64;
                while !stop_flag.load(Ordering::Acquire) {
                    let wait = service.sweeper_pass(floor_ns);
                    passes += 1;
                    match wait {
                        // Nothing tracked: sleep until an attach or shutdown
                        // wakes us. Zero idle wakeups.
                        None => std::thread::park(),
                        Some(wait) => std::thread::park_timeout(wait),
                    }
                }
                passes
            })
            .expect("failed to spawn sweeper thread");
        Sweeper {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the thread and joins it, returning how many sweep passes it
    /// ran.
    pub fn stop(mut self) -> u64 {
        self.halt()
    }

    /// Flag, unpark, join; 0 once already joined.
    fn halt(&mut self) -> u64 {
        let Some(handle) = self.handle.take() else {
            return 0;
        };
        self.stop.store(true, Ordering::Release);
        handle.thread().unpark();
        handle.join().unwrap_or(0)
    }
}

impl Drop for Sweeper {
    /// A dropped server is a dead server: the thread stops (no drain, no
    /// checkpoint) instead of journaling on into the abandoned directory.
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use std::time::Duration;
    use terp_core::config::Scheme;
    use terp_pmo::{AccessKind, OpenMode, Permission};

    #[test]
    fn sweeper_expires_windows_without_manual_sweeps() {
        // A 2 ms EW: long against the back-to-back attach/detach (so the
        // detach really is delayed and only a sweep pass can close it),
        // short against the poll below.
        let config = ServiceConfig::for_tests(Scheme::terp_full())
            .with_ew_target_us(2_000)
            .with_sweep_period_us(200);
        let svc = Arc::new(PmoService::new(config));
        let sweeper = Sweeper::spawn(Arc::clone(&svc), 200);

        let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
        svc.attach(0, p, Permission::ReadWrite).unwrap();
        svc.detach(0, p).unwrap(); // delayed: EW still open

        // Poll (bounded) until the background sweep closes the window.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while svc.process_can(p, AccessKind::Read) {
            assert!(
                std::time::Instant::now() < deadline,
                "sweeper never closed the expired window"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let passes = sweeper.stop();
        assert!(passes > 0);
        assert_eq!(svc.attached_total(), 0);
    }

    #[test]
    fn stop_joins_cleanly_even_when_idle() {
        let svc = Arc::new(PmoService::new(ServiceConfig::for_tests(
            Scheme::terp_full(),
        )));
        let sweeper = Sweeper::spawn(Arc::clone(&svc), 50_000);
        // Let the thread reach its park (a loaded host may not have started
        // it within any fixed sleep).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while svc.report().sweep_passes == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let passes = sweeper.stop();
        assert!(passes >= 1, "at least the initial pass ran");
    }

    #[test]
    fn idle_sweeper_parks_instead_of_polling() {
        // With nothing tracked the sweeper parks indefinitely: pass count
        // must not grow with wall time the way a periodic 200 µs poll would
        // (≈ 150 passes over 30 ms).
        let config = ServiceConfig::for_tests(Scheme::terp_full()).with_sweep_period_us(200);
        let svc = Arc::new(PmoService::new(config));
        let sweeper = Sweeper::spawn(Arc::clone(&svc), 200);
        std::thread::sleep(Duration::from_millis(30));
        let passes = sweeper.stop();
        assert!(
            passes < 20,
            "idle sweeper should park, not poll (ran {passes} passes)"
        );
    }

    #[test]
    fn expiry_on_an_idle_durable_service_costs_one_more_wakeup_then_parks() {
        let dir = std::env::temp_dir().join(format!("terp-sweeper-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServiceConfig::for_tests(Scheme::terp_full())
            .with_shards(1)
            .with_ew_target_us(5_000)
            .with_sweep_period_us(200)
            .with_durable(&dir)
            .with_visibility(crate::Visibility::Durable);
        let svc = Arc::new(PmoService::new(config));
        let sweeper = Sweeper::spawn(Arc::clone(&svc), 200);
        let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
        // Parked for good before the attach: only the attach's wake-up can
        // get the sweeper to the window.
        wait_until("the idle sweeper never parked indefinitely", || {
            svc.sweeper_plan() == u64::MAX
        });
        // One commit for both: the detach is delayed, the close the
        // sweeper's — and nobody calls the service again.
        let mut batch = svc.batch();
        batch.attach(0, p, Permission::ReadWrite).unwrap();
        batch.detach(0, p).unwrap();
        batch.commit().unwrap();
        assert_eq!(
            svc.report().sweeper_unparks,
            1,
            "the attach must wake the parked sweeper"
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while svc.report().sweeper_syncs == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the sweeper never committed the close it left behind"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(svc.attached_total(), 0);
        assert!(svc.next_expiry_ns().is_none(), "nothing left to wake for");
        // Parked for good: a 200 us poll would add ~150 passes here.
        std::thread::sleep(Duration::from_millis(30));
        let report = svc.report();
        assert_eq!(report.sweeper_syncs, 1);
        let syncs = report.wal.unwrap().syncs;
        assert_eq!(syncs, 3, "create_pool's, the batch's, the sweeper's one");
        let passes = sweeper.stop();
        assert!(
            passes < 20,
            "first pass, attach wake-up, expiry, leftover — not a poll (ran {passes} passes)"
        );
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attach_wakes_a_parked_sweeper() {
        let config = ServiceConfig::for_tests(Scheme::terp_full())
            .with_ew_target_us(500)
            .with_sweep_period_us(100);
        let svc = Arc::new(PmoService::new(config));
        let sweeper = Sweeper::spawn(Arc::clone(&svc), 100);
        wait_until("the idle sweeper never parked indefinitely", || {
            svc.sweeper_plan() == u64::MAX
        });
        let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
        svc.attach(0, p, Permission::ReadWrite).unwrap();
        svc.detach(0, p).unwrap(); // delayed — only a sweep can close it
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while svc.process_can(p, AccessKind::Read) {
            assert!(
                std::time::Instant::now() < deadline,
                "attach did not wake the parked sweeper"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        sweeper.stop();
        assert_eq!(svc.attached_total(), 0);
    }

    /// Polls `cond` (bounded) instead of sleeping a fixed time.
    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_first_attach_wakes_the_sweeper_only_if_its_plan_would_miss_the_window() {
        // A 1 s EW target: the second window opens long before the first
        // one expires, so it expires after the wake-up the sweeper already
        // plans for the first.
        let config = ServiceConfig::for_tests(Scheme::terp_full())
            .with_ew_target_us(1_000_000)
            .with_sweep_period_us(100);
        let svc = Arc::new(PmoService::new(config));
        let a = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
        let b = svc.create_pool("b", 1 << 16, OpenMode::ReadWrite).unwrap();
        let sweeper = Sweeper::spawn(Arc::clone(&svc), 100);
        wait_until("the idle sweeper never parked indefinitely", || {
            svc.sweeper_plan() == u64::MAX
        });

        svc.attach(0, a, Permission::ReadWrite).unwrap();
        assert_eq!(
            svc.report().sweeper_unparks,
            1,
            "a first attach must wake an indefinitely parked sweeper"
        );
        // The woken pass finds a's entry and plans to wake at its expiry.
        wait_until("the woken sweeper never planned a timed wake-up", || {
            let plan = svc.sweeper_plan();
            plan != 0 && plan != u64::MAX
        });
        svc.attach(0, b, Permission::ReadWrite).unwrap();
        assert_eq!(
            svc.report().sweeper_unparks,
            1,
            "b expires after the planned wake-up: its attach must not unpark the sweeper"
        );

        // Delayed detaches: only the sweeper can close the windows now.
        svc.detach(0, a).unwrap();
        svc.detach(0, b).unwrap();
        wait_until("a window never expired", || svc.attached_total() == 0);
        assert!(!svc.process_can(a, AccessKind::Read));
        assert!(!svc.process_can(b, AccessKind::Read));
        assert_eq!(svc.report().sweeper_unparks, 1, "expiries need no unpark");
        sweeper.stop();
    }

    #[test]
    #[should_panic(expected = "one sweeper for its lifetime")]
    fn a_second_sweeper_is_refused_even_after_the_first_stopped() {
        let svc = Arc::new(PmoService::new(ServiceConfig::for_tests(
            Scheme::terp_full(),
        )));
        let first = Sweeper::spawn(Arc::clone(&svc), 100);
        // It registers before its first pass.
        wait_until("the sweeper never ran", || svc.report().sweep_passes > 0);
        first.stop();
        let _second = Sweeper::spawn(svc, 100);
    }
}
