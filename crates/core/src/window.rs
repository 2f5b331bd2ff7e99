//! Exposure-window tracking (Definition 5) and the ER/TER metrics of
//! Tables III and IV.
//!
//! * **EW** (exposure window): a contiguous interval during which a PMO is
//!   mapped in the process address space. A randomization *splits* the
//!   window for size statistics — the PMO moved, so an attacker's knowledge
//!   resets — while the exposure *time* continues (ER counts both halves).
//! * **TEW** (thread exposure window): the interval during which one thread
//!   holds access permission to the PMO — the finer-grained window TERP adds.
//! * **ER** = exposed time / total time, averaged over pools;
//!   **TER** = thread-exposed time / total time, averaged over pools.

use serde::{Deserialize, Serialize};

use terp_pmo::PmoId;
use terp_sim::Cycles;

/// Aggregate statistics for a set of closed windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Number of windows observed.
    pub count: u64,
    /// Mean window length, cycles.
    pub avg_cycles: f64,
    /// Longest window, cycles.
    pub max_cycles: Cycles,
    /// Sum of window lengths, cycles.
    pub total_cycles: Cycles,
}

/// Tracks open/closed EWs and TEWs over a run.
///
/// ```
/// use terp_core::WindowTracker;
/// use terp_pmo::PmoId;
/// let pmo = PmoId::new(1).unwrap();
/// let mut w = WindowTracker::new();
/// w.open_ew(pmo, 100);
/// w.close_ew(pmo, 400);
/// let stats = w.ew_stats();
/// assert_eq!(stats.count, 1);
/// assert_eq!(stats.max_cycles, 300);
/// ```
///
/// Every table is indexed by [`PmoId::index`] and grows on first touch to
/// the highest pool seen: an id has 10 bits and is never reused, so a
/// window opens and closes with an index where a map would hash.
#[derive(Debug, Clone, Default)]
pub struct WindowTracker {
    /// Start of each pool's open EW (`None`: not mapped).
    open_ew: Vec<Option<Cycles>>,
    closed_ew: Closed,
    /// Each pool's open TEWs as `(thread, start)`. A list keeps its
    /// allocation when it empties, so a session that reopens allocates
    /// nothing.
    open_tew: Vec<Vec<(usize, Cycles)>>,
    closed_tew: Closed,
}

/// `table`'s entry at index `i`, growing the table to reach it.
fn grown<T: Clone + Default>(table: &mut Vec<T>, i: usize) -> &mut T {
    if table.len() <= i {
        table.resize(i + 1, T::default());
    }
    &mut table[i]
}

/// Running aggregates over every closed window of one kind. A long-lived
/// service closes windows forever, so nothing here grows with their number.
#[derive(Debug, Clone, Default)]
struct Closed {
    count: u64,
    total: Cycles,
    max: Cycles,
    /// Exposed time per pool — all the exposure rates read — indexed by
    /// [`PmoId::index`] (`None`: no window of that pool closed yet). An id
    /// has 10 bits, so this stops growing at 16 KiB.
    per_pool: Vec<Option<Cycles>>,
}

impl Closed {
    /// Records a closed window of `len` of the pool at index `pool`.
    fn record(&mut self, pool: usize, len: Cycles) {
        self.count += 1;
        self.total += len;
        self.max = self.max.max(len);
        *grown(&mut self.per_pool, pool).get_or_insert(0) += len;
    }

    fn stats(&self) -> WindowStats {
        WindowStats {
            count: self.count,
            avg_cycles: if self.count == 0 {
                0.0
            } else {
                self.total as f64 / self.count as f64
            },
            max_cycles: self.max,
            total_cycles: self.total,
        }
    }

    fn rate(&self, total: Cycles) -> f64 {
        let exposed = self.per_pool.iter().flatten();
        let pools = exposed.clone().count();
        if total == 0 || pools == 0 {
            return 0.0;
        }
        let sum: f64 = exposed.map(|&t| t as f64 / total as f64).sum();
        sum / pools as f64
    }
}

impl WindowTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a real attach: the pool's exposure window opens at `now`.
    ///
    /// Opening an already-open window is a logic error upstream and panics
    /// in debug builds.
    pub fn open_ew(&mut self, pmo: PmoId, now: Cycles) {
        let prev = grown(&mut self.open_ew, pmo.index()).replace(now);
        debug_assert!(prev.is_none(), "double EW open for {pmo}");
    }

    /// Marks a real detach: closes the exposure window at `now` and returns
    /// its length (`None` when no window was open).
    pub fn close_ew(&mut self, pmo: PmoId, now: Cycles) -> Option<Cycles> {
        let start = self.open_ew.get_mut(pmo.index()).and_then(Option::take);
        debug_assert!(start.is_some(), "EW close without open for {pmo}");
        let len = now.saturating_sub(start?);
        self.closed_ew.record(pmo.index(), len);
        Some(len)
    }

    /// Marks an in-place randomization: the window is split at `now` (closed
    /// and immediately reopened), since the location knowledge resets.
    /// Returns the length of the half that closed.
    pub fn split_ew(&mut self, pmo: PmoId, now: Cycles) -> Option<Cycles> {
        let start = self.open_ew.get_mut(pmo.index())?.as_mut()?;
        let len = now.saturating_sub(std::mem::replace(start, now));
        self.closed_ew.record(pmo.index(), len);
        Some(len)
    }

    /// Whether an EW is currently open for `pmo`.
    pub fn ew_open(&self, pmo: PmoId) -> bool {
        self.open_ew.get(pmo.index()).is_some_and(Option::is_some)
    }

    /// Opens a thread exposure window (`thread` gains permission) at `now`.
    pub fn open_tew(&mut self, thread: usize, pmo: PmoId, now: Cycles) {
        let open = grown(&mut self.open_tew, pmo.index());
        debug_assert!(
            open.iter().all(|&(t, _)| t != thread),
            "double TEW open for t{thread}/{pmo}"
        );
        open.push((thread, now));
    }

    /// Closes a thread exposure window at `now`.
    pub fn close_tew(&mut self, thread: usize, pmo: PmoId, now: Cycles) {
        let Some(open) = self.open_tew.get_mut(pmo.index()) else {
            return;
        };
        if let Some(i) = open.iter().position(|&(t, _)| t == thread) {
            let (_, start) = open.swap_remove(i);
            self.closed_tew
                .record(pmo.index(), now.saturating_sub(start));
        }
    }

    /// Force-closes every window at end of run (`now` = final time) so the
    /// statistics include still-open tails. Pools close in ascending id
    /// order; nothing the statistics report depends on it.
    pub fn finalize(&mut self, now: Cycles) {
        for (i, start) in self.open_ew.iter_mut().enumerate() {
            if let Some(start) = start.take() {
                self.closed_ew.record(i, now.saturating_sub(start));
            }
        }
        for (i, open) in self.open_tew.iter_mut().enumerate() {
            for (_, start) in open.drain(..) {
                self.closed_tew.record(i, now.saturating_sub(start));
            }
        }
    }

    /// Statistics over all closed EWs.
    pub fn ew_stats(&self) -> WindowStats {
        self.closed_ew.stats()
    }

    /// Statistics over all closed TEWs.
    pub fn tew_stats(&self) -> WindowStats {
        self.closed_tew.stats()
    }

    /// Exposure rate: per-pool exposed time / `total`, averaged over the
    /// pools that appear in the data. Zero when no windows closed.
    pub fn exposure_rate(&self, total: Cycles) -> f64 {
        self.closed_ew.rate(total)
    }

    /// Thread exposure rate (TER), same convention as [`Self::exposure_rate`].
    pub fn thread_exposure_rate(&self, total: Cycles) -> f64 {
        self.closed_tew.rate(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pmo(n: u16) -> PmoId {
        PmoId::new(n).unwrap()
    }

    #[test]
    fn ew_open_close_measures_duration() {
        let mut w = WindowTracker::new();
        w.open_ew(pmo(1), 1000);
        w.close_ew(pmo(1), 5000);
        let s = w.ew_stats();
        assert_eq!(s.count, 1);
        assert_eq!(s.total_cycles, 4000);
        assert_eq!(s.max_cycles, 4000);
        assert_eq!(s.avg_cycles, 4000.0);
    }

    #[test]
    fn split_preserves_total_but_caps_max() {
        let mut w = WindowTracker::new();
        w.open_ew(pmo(1), 0);
        w.split_ew(pmo(1), 40_000); // randomization at 40k
        w.close_ew(pmo(1), 70_000);
        let s = w.ew_stats();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_cycles, 70_000, "exposure time unaffected by split");
        assert_eq!(s.max_cycles, 40_000, "window size capped at split point");
    }

    #[test]
    fn exposure_rate_averages_over_pools() {
        let mut w = WindowTracker::new();
        // Pool 1 exposed 50% of a 1000-cycle run; pool 2 exposed 10%.
        w.open_ew(pmo(1), 0);
        w.close_ew(pmo(1), 500);
        w.open_ew(pmo(2), 100);
        w.close_ew(pmo(2), 200);
        let er = w.exposure_rate(1000);
        assert!((er - 0.3).abs() < 1e-12, "mean of 0.5 and 0.1, got {er}");
    }

    #[test]
    fn tew_is_tracked_per_thread() {
        let mut w = WindowTracker::new();
        w.open_tew(0, pmo(1), 0);
        w.open_tew(1, pmo(1), 100);
        w.close_tew(0, pmo(1), 300);
        w.close_tew(1, pmo(1), 150);
        let s = w.tew_stats();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_cycles, 300 + 50);
        assert_eq!(s.max_cycles, 300);
    }

    #[test]
    fn finalize_closes_dangling_windows() {
        let mut w = WindowTracker::new();
        w.open_ew(pmo(1), 100);
        w.open_tew(3, pmo(1), 200);
        w.finalize(1100);
        assert_eq!(w.ew_stats().total_cycles, 1000);
        assert_eq!(w.tew_stats().total_cycles, 900);
        assert!(!w.ew_open(pmo(1)));
    }

    #[test]
    fn empty_tracker_reports_zeroes() {
        let w = WindowTracker::new();
        assert_eq!(w.ew_stats(), WindowStats::default());
        assert_eq!(w.exposure_rate(100), 0.0);
        assert_eq!(w.thread_exposure_rate(0), 0.0);
    }
}
