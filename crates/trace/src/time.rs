//! The process clock: nanoseconds since a process-wide epoch, one time axis
//! for the service and the flight recorder.
//!
//! A window's open time, the deadline the sweeper parks on, a cost-model
//! charge and a recorded event's `ts_ns` are all read here, so a dumped
//! event and the window it belongs to can be compared directly.
//!
//! Where CPUID leaf `0x8000_0007` reports an invariant TSC (EDX bit 8: the
//! counter ticks at one rate in every power state), a read is one `rdtsc`
//! scaled by a fixed-point multiplier, calibrated once per process against
//! [`Instant`] over 1 ms (on the first read, or at [`calibrate`]).
//! Anywhere else a read is [`Instant`] elapsed since the epoch. The
//! platform decides; nothing configures it.
//!
//! Stamps never go backwards on one thread. Taken on two threads, a
//! synchronised TSC can still read a few nanoseconds apart, so a
//! difference of two such stamps must be a `saturating_sub`.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The epoch, and where the TSC is invariant `(tsc at the epoch,
/// nanoseconds per tick << 32)`.
static CLOCK: OnceLock<(Instant, Option<(u64, u64)>)> = OnceLock::new();

/// Calibrates the clock now if nothing has read it yet, so that the first
/// timed operation does not pay for it.
pub fn calibrate() {
    CLOCK.get_or_init(start);
}

/// Nanoseconds since the process epoch.
#[inline]
pub fn now_ns() -> u64 {
    match CLOCK.get_or_init(start) {
        &(_, Some((base, mult))) => {
            ((u128::from(rdtsc().saturating_sub(base)) * u128::from(mult)) >> 32) as u64
        }
        (epoch, None) => epoch.elapsed().as_nanos() as u64,
    }
}

/// Busy-waits `ns` nanoseconds (a cost-model charge). Spinning rather than
/// sleeping: the charges are microsecond-scale, far below reliable OS
/// sleep granularity.
pub fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let until = now_ns().saturating_add(ns);
    while now_ns() < until {
        std::hint::spin_loop();
    }
}

/// Takes the epoch and, where the TSC is invariant, times it against
/// `Instant` for 1 ms.
fn start() -> (Instant, Option<(u64, u64)>) {
    if !invariant_tsc() {
        return (Instant::now(), None);
    }
    let (epoch, base) = pair();
    let (end, ticks) = loop {
        let (end, ticks) = pair();
        if end - epoch >= Duration::from_millis(1) {
            break (end, ticks);
        }
    };
    let ticks = u128::from(ticks.saturating_sub(base)).max(1);
    let per_tick = ((end - epoch).as_nanos() << 32) / ticks;
    (epoch, Some((base, per_tick as u64)))
}

/// An `Instant` and the TSC at one moment: the midpoint of the tightest of
/// three pairs of TSC reads around an `Instant::now`.
fn pair() -> (Instant, u64) {
    (0..3)
        .map(|_| {
            let (before, now, after) = (rdtsc(), Instant::now(), rdtsc());
            // Wrapping: a pair split across two cores' counters loses.
            (after.wrapping_sub(before), now, before / 2 + after / 2)
        })
        .min_by_key(|&(width, ..)| width)
        .map(|(_, now, tsc)| (now, tsc))
        .expect("three pairs")
}

#[cfg(target_arch = "x86_64")]
fn invariant_tsc() -> bool {
    use std::arch::x86_64::__cpuid;
    // The extended leaf is read only after leaf 0x8000_0000 reports it.
    __cpuid(0x8000_0000).eax >= 0x8000_0007 && __cpuid(0x8000_0007).edx & (1 << 8) != 0
}

#[cfg(not(target_arch = "x86_64"))]
fn invariant_tsc() -> bool {
    false
}

#[inline]
fn rdtsc() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: rdtsc has no memory or validity preconditions.
    unsafe {
        std::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("read only where CPUID reports an invariant TSC")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ns_never_goes_backwards_on_one_thread() {
        let mut last = now_ns();
        for _ in 0..1_000_000 {
            let t = now_ns();
            assert!(t >= last, "{t} after {last}");
            last = t;
        }
    }

    /// `now_ns` and an `Instant` read together: the `Instant` is the
    /// midpoint of two that bracket the read within 10 µs.
    fn with_instant() -> (u64, Instant) {
        loop {
            let before = Instant::now();
            let t = now_ns();
            let width = before.elapsed();
            if width < Duration::from_micros(10) {
                return (t, before + width / 2);
            }
        }
    }

    #[test]
    fn now_ns_keeps_pace_with_instant_over_a_sleep() {
        let (t0, i0) = with_instant();
        std::thread::sleep(Duration::from_millis(50));
        let (t1, i1) = with_instant();
        let ours = (t1 - t0) as f64;
        let theirs = i1.duration_since(i0).as_nanos() as f64;
        let err = (ours - theirs).abs() / theirs;
        assert!(
            err < 1e-3,
            "{ours} ns against Instant's {theirs} ns: off by {err:.2e}"
        );
    }

    #[test]
    fn spin_ns_spins_at_least_the_requested_time() {
        let before = now_ns();
        spin_ns(50_000);
        assert!(now_ns() - before >= 50_000);
        spin_ns(0); // no-op
    }
}
