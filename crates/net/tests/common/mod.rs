//! Helpers shared by the wire test binaries.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Runs `body` on a thread of its own and fails if it has not returned
/// within `limit`. A hang is the failure these tests look for: the stuck
/// thread, server included, is abandoned rather than joined.
pub fn watchdog(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(limit) {
        Ok(()) => runner.join().expect("body"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("body panicked"))
        }
        Err(RecvTimeoutError::Timeout) => panic!("still blocked after {limit:?}"),
    }
}
