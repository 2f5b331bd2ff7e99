//! Timed phases: a worker thread, slices, and how a phase's slices become one
//! steady number.
//!
//! The whole run is pinned to one CPU (`host::pin_to_one_cpu`) and one
//! thread drives the load, so the scheduler has nothing to decide. What is
//! left is the host. The vCPU itself runs at different speeds, for seconds to
//! minutes at a time: a fifth slower when a neighbour is busy, a tenth faster
//! when the host is idle. And the virtual disk's fsync drifts by a factor of
//! two within the hour and jumps to ten or twenty times that for seconds on
//! end. Both move everything the system does, and neither is the system.
//!
//! So every phase runs one warm-up slice and then [`SLICES`] equal slices,
//! and between the slices it times a short burst of fixed reference work on
//! the resource the phase's speed hangs on:
//!
//! * a phase in memory, the CPU ([`cpu_cost`]: a dependent-load walk over
//!   256 KiB with a hash step per load, [`REF_CPU_US`] per burst on this box
//!   in its usual state);
//! * a durable phase, the disk ([`Disk`]: plain append + fdatasync on a
//!   scratch file beside the data, [`REF_FSYNC_US`] per sync).
//!
//! Each slice is then reported at the reference machine: rates are
//! multiplied, and times divided, by `measured cost / reference cost` (the
//! mean of the bursts before and after the slice). A durable slice counts
//! only if the disk was calm on both sides of it (within [`CALM`] times the
//! reference), as long as at least half the slices were: the rejection goes
//! by the disk's own timing, never by the slice's result. A rate is the mean
//! over the middle half of the slices, a latency the median of the per-slice
//! medians weighted by their sample counts (the phase's own median request,
//! which does not jump when slow slices, with few requests each, outnumber
//! fast ones). The raw figures go to the output file. What is left is what
//! the system does per unit of reference work, which is what a change to it
//! can move.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::hist::{median, midmean, quantile_of, Hist};
use std::sync::OnceLock;

pub const SLICES: usize = 25;

/// A disk is calm while a sync costs at most this many times the reference.
pub const CALM: f64 = 2.5;

/// The fsync cost durable results are reported at, µs (about what this
/// sandbox's disk does on a quiet day).
pub const REF_FSYNC_US: f64 = 200.0;

/// What one [`cpu_cost`] burst takes on this box in its usual state, µs: the
/// CPU in-memory results are reported at.
pub const REF_CPU_US: f64 = 3150.0;

/// Loads of one CPU burst.
const CPU_BURST: u32 = 600_000;

/// One worker's view of a running slice and its private tallies.
pub struct Lane {
    end: Instant,
    pub ops: u64,
    pub lat: Hist,
    pub failed: u64,
}

impl Lane {
    /// Whether the slice is still running at `now`.
    #[inline]
    pub fn open_at(&self, now: Instant) -> bool {
        now < self.end
    }

    /// Tallies `n` completed operations, `bad` of them failed or wrong.
    #[inline]
    pub fn done(&mut self, n: u64, bad: u64) {
        self.ops += n;
        self.failed += bad;
    }
}

/// The merged outcome of one slice.
pub struct Slice {
    pub secs: f64,
    pub ops: u64,
    pub lat: Hist,
    pub failed: u64,
    /// Process CPU seconds (user + system) over the slice.
    pub cpu_s: f64,
    /// Cost of the reference work (a CPU burst in memory, a sync when
    /// durable) around this slice over its reference cost.
    pub cost: f64,
    /// Whether the disk was calm both before and after the slice.
    pub calm: bool,
    /// A figure of the workload's own for this slice, scaled like a time
    /// (the mean length of the exposure windows closed during it, µs).
    pub aux_us: f64,
}

pub type Worker<'a> = Box<dyn FnOnce(&mut Lane) + Send + 'a>;

/// Runs `workers`, one thread each, for `dur` and merges their lanes. Each
/// worker loops until [`Lane::open_at`] says the slice is over.
pub fn run_slice(dur: Duration, workers: Vec<Worker<'_>>) -> Slice {
    let cpu0 = process_cpu_s();
    // Threads start a moment after this; give them that moment so every
    // worker measures for the full length.
    let start = Instant::now() + Duration::from_millis(1);
    let lanes: Vec<Lane> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|work| {
                scope.spawn(move || {
                    let mut lane = Lane {
                        end: start + dur,
                        ops: 0,
                        lat: Hist::default(),
                        failed: 0,
                    };
                    while Instant::now() < start {
                        std::hint::spin_loop();
                    }
                    work(&mut lane);
                    lane
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    let mut slice = Slice {
        secs: dur.as_secs_f64(),
        ops: 0,
        lat: Hist::default(),
        failed: 0,
        cpu_s: process_cpu_s() - cpu0,
        cost: 1.0,
        calm: true,
        aux_us: 0.0,
    };
    for lane in &lanes {
        slice.ops += lane.ops;
        slice.lat.merge(&lane.lat);
        slice.failed += lane.failed;
    }
    slice
}

/// One burst of fixed CPU work - [`CPU_BURST`] dependent loads around a random
/// cycle through 256 KiB, a multiply-rotate hash step on each - as a multiple
/// of [`REF_CPU_US`]. Run to run this tracks what the vCPU is worth at the
/// moment: over 120 pinned runs its correlation with `inproc_hot`'s rate was
/// 0.9, with `wire_rw`'s 0.8.
pub fn cpu_cost() -> f64 {
    static CYCLE: OnceLock<Vec<u32>> = OnceLock::new();
    let cycle = CYCLE.get_or_init(|| {
        // A seeded shuffle, then each entry points at its successor in it.
        let n = 1usize << 16;
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..n).rev() {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let j = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut next = vec![0u32; n];
        for w in 0..n {
            next[order[w] as usize] = order[(w + 1) % n];
        }
        next
    });
    let t0 = Instant::now();
    let (mut at, mut hash) = (0u32, 0u64);
    for i in 0..u64::from(CPU_BURST) {
        at = cycle[at as usize];
        hash = (hash ^ u64::from(at))
            .wrapping_mul(0x0100_0000_01b3)
            .rotate_left(13)
            ^ i;
    }
    std::hint::black_box((at, hash));
    t0.elapsed().as_secs_f64() * 1e6 / REF_CPU_US
}

/// Times the disk through a scratch file beside the workload's data, kept
/// open for the run and synced the way the log is (`sync_data`).
pub struct Disk {
    file: std::fs::File,
    path: PathBuf,
    burst: Duration,
}

impl Disk {
    /// A disk timer under `data_root` whose bursts last `burst`.
    pub fn beside(data_root: &Path, burst: Duration) -> Disk {
        let path = data_root.join("fsync-calibration");
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("open calibration scratch file");
        Disk { file, path, burst }
    }

    /// Mean cost of one 256-byte append + sync over one burst, as a multiple
    /// of the reference cost. Call it only while the system under test is
    /// idle.
    fn cost(&self) -> f64 {
        let mut f = &self.file;
        let t0 = Instant::now();
        let mut n = 0u64;
        while t0.elapsed() < self.burst {
            f.write_all(&[0x5a; 256]).expect("append");
            f.sync_data().expect("sync");
            n += 1;
        }
        t0.elapsed().as_secs_f64() * 1e6 / n as f64 / REF_FSYNC_US
    }
}

/// The factor results are scaled by for reference work that cost `before` and
/// `after` around them: the mean, held within what scaling can account for (a
/// disk ten times slower does not make the system ten times slower).
fn scale(before: f64, after: f64) -> f64 {
    ((before + after) / 2.0).clamp(1.0 / CALM, CALM)
}

impl Drop for Disk {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One thing timed with the disk timed before and after it.
pub struct Around<R> {
    pub out: R,
    /// Mean disk factor around it; 1 without a disk.
    pub factor: f64,
    pub calm: bool,
}

impl<T> Around<(T, f64)> {
    /// Splits a timed construction into what was built and its time.
    pub fn split(self) -> (T, Around<f64>) {
        let (built, time) = self.out;
        let timed = Around {
            out: time,
            factor: self.factor,
            calm: self.calm,
        };
        (built, timed)
    }
}

/// Runs `f` with the disk timed before and after.
pub fn with_disk<R>(disk: Option<&Disk>, f: impl FnOnce() -> R) -> Around<R> {
    let before = disk.map(Disk::cost);
    let out = f();
    match (before, disk) {
        (Some(b), Some(d)) => {
            let after = d.cost();
            Around {
                out,
                factor: scale(b, after),
                calm: b.max(after) <= CALM,
            }
        }
        _ => Around {
            out,
            factor: 1.0,
            calm: true,
        },
    }
}

/// Runs `f` with the CPU timed before and after.
pub fn with_cpu<R>(f: impl FnOnce() -> R) -> Around<R> {
    let before = cpu_cost();
    let out = f();
    Around {
        out,
        factor: scale(before, cpu_cost()),
        calm: true,
    }
}

/// The time a repeated step (a set-up, a restart) takes, from the
/// repetitions made on a calm disk, or from all of them when fewer than half
/// were. With `at_reference` each time is first divided by the disk factor
/// around it and the median is taken: right for work that is mostly syncs (a
/// preload). Without, the times stand as measured and the lower quartile is
/// taken: right for work that is mostly CPU, replay and page cache (a cold
/// start, a reopen), which the host can only slow.
pub fn steady_time(reps: &[Around<f64>], at_reference: bool) -> f64 {
    let value = |r: &Around<f64>| {
        if at_reference {
            r.out / r.factor
        } else {
            r.out
        }
    };
    let mut counted: Vec<f64> = reps.iter().filter(|r| r.calm).map(value).collect();
    if counted.len() * 2 < reps.len() {
        counted = reps.iter().map(value).collect();
    }
    if at_reference {
        median(&counted)
    } else {
        quiet_time(&counted)
    }
}

/// The lower quartile of repeated timings of a step the host can only slow.
pub fn quiet_time(times: &[f64]) -> f64 {
    quantile_of(times, 0.25)
}

/// A phase: one warm-up slice, then [`SLICES`] slices run one after the
/// other, the disk timed between them when the workload is durable.
#[derive(Default)]
pub struct Phase {
    pub slices: Vec<Slice>,
    /// Whether the disk was timed around the slices (a durable phase).
    pub disk_timed: bool,
    /// Operations and failures of the warm-up slice: checked and counted
    /// like any other, timed by nobody.
    pub warm_ops: u64,
    pub warm_failed: u64,
}

impl Phase {
    /// Runs `slice(dur / SLICES)` once to warm up (caches, the allocator,
    /// the log's buffers, a freshly started instance's lazy set-up) and then
    /// [`SLICES`] times for the record, the disk timed between them when
    /// given, else the CPU. `slice` builds its workers afresh each time and
    /// hands them to [`run_slice`].
    pub fn run(
        dur: Duration,
        disk: Option<&Disk>,
        mut slice: impl FnMut(Duration) -> Slice,
    ) -> Phase {
        let each = dur / SLICES as u32;
        let warm = slice(each);
        let cost = || disk.map_or_else(cpu_cost, Disk::cost);
        let mut before = cost();
        let mut slices = Vec::with_capacity(SLICES);
        for _ in 0..SLICES {
            let mut s = slice(each);
            let after = cost();
            s.cost = scale(before, after);
            s.calm = disk.is_none() || before.max(after) <= CALM;
            before = after;
            slices.push(s);
        }
        Phase {
            slices,
            disk_timed: disk.is_some(),
            warm_ops: warm.ops,
            warm_failed: warm.failed,
        }
    }

    /// The slices that count: those run on a calm disk, or all of them when
    /// fewer than half were.
    fn counted(&self) -> impl Iterator<Item = &Slice> {
        let calm = self.slices.iter().filter(|s| s.calm).count();
        let all = calm * 2 < self.slices.len();
        self.slices
            .iter()
            .filter(move |s| (all || s.calm) && s.ops > 0)
    }

    /// Operations per second over the middle half of the slices, at the
    /// reference machine.
    pub fn tput(&self) -> f64 {
        midmean(&self.each(|s| s.ops as f64 / s.secs * s.cost))
    }

    /// The same as measured.
    pub fn raw_tput(&self) -> f64 {
        midmean(&self.each(|s| s.ops as f64 / s.secs))
    }

    /// Median of the per-slice median latencies weighted by their sample
    /// counts, µs, at the reference machine.
    pub fn p50_us(&self) -> f64 {
        self.weighted_p50(|s| s.lat.p50_us() / s.cost)
    }

    pub fn raw_p50_us(&self) -> f64 {
        self.weighted_p50(|s| s.lat.p50_us())
    }

    fn weighted_p50(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        let mut v: Vec<(f64, u64)> = self
            .counted()
            .filter(|s| s.lat.count() > 0)
            .map(|s| (f(s), s.lat.count()))
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        let half = v.iter().map(|x| x.1).sum::<u64>() / 2;
        let mut seen = 0;
        for (value, n) in v {
            seen += n;
            if seen > half {
                return value;
            }
        }
        0.0
    }

    fn each(&self, f: impl Fn(&Slice) -> f64) -> Vec<f64> {
        self.counted().map(f).collect()
    }

    /// Every latency sample of the phase in one histogram (as measured).
    pub fn all_lat(&self) -> Hist {
        let mut all = Hist::default();
        for s in &self.slices {
            all.merge(&s.lat);
        }
        all
    }

    pub fn total_ops(&self) -> u64 {
        self.warm_ops + self.slices.iter().map(|s| s.ops).sum::<u64>()
    }

    pub fn failed(&self) -> u64 {
        self.warm_failed + self.slices.iter().map(|s| s.failed).sum::<u64>()
    }

    pub fn secs(&self) -> f64 {
        self.slices.iter().map(|s| s.secs).sum()
    }

    /// Process CPU µs per operation of the median slice, generator included,
    /// at the reference machine (durable: the sweeper and the log's waiters
    /// burn CPU for as long as an operation waits for the disk, so a durable
    /// op's CPU scales with it).
    pub fn cpu_us_per_op(&self) -> f64 {
        let per_slice = median(&self.each(|s| s.cpu_s * 1e6 / s.ops as f64 / s.cost));
        if per_slice > 0.0 {
            return per_slice;
        }
        // Slices shorter than the 10 ms CPU tick (a smoke run): the whole
        // phase at once.
        let cpu: f64 = self.counted().map(|s| s.cpu_s / s.cost).sum();
        cpu * 1e6 / self.counted().map(|s| s.ops).sum::<u64>().max(1) as f64
    }

    /// Median over the slices of the workload's own per-slice figure: at the
    /// reference disk when durable (windows are held across log writes), as
    /// measured in memory (the sweeper closes them by the clock).
    pub fn aux_us(&self) -> f64 {
        if self.disk_timed {
            median(&self.each(|s| s.aux_us / s.cost))
        } else {
            self.raw_aux_us()
        }
    }

    pub fn raw_aux_us(&self) -> f64 {
        median(&self.each(|s| s.aux_us))
    }

    /// Mean cost of the reference work over the slices that count.
    pub fn cost(&self) -> f64 {
        let n = self.counted().count().max(1);
        self.counted().map(|s| s.cost).sum::<f64>() / n as f64
    }

    /// How many slices were left out because the disk was not calm.
    pub fn left_out(&self) -> usize {
        self.slices.len() - self.counted().count()
    }
}

/// User + system CPU seconds this process has used, from `/proc/self/stat`
/// (10 ms ticks; exited threads included).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, so the 12th and 13th after the ")".
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let ticks: u64 = fields
        .by_ref()
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Runs `f`, returns its result and the milliseconds it took.
pub fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(ops: u64, secs: f64, p50_ns: u64, cost: f64) -> Slice {
        let mut lat = Hist::default();
        lat.record(p50_ns);
        Slice {
            secs,
            ops,
            lat,
            failed: 0,
            cpu_s: 0.5,
            cost,
            calm: cost <= CALM,
            aux_us: 100.0 * cost,
        }
    }

    fn durable(slices: Vec<Slice>) -> Phase {
        Phase {
            slices,
            disk_timed: true,
            ..Phase::default()
        }
    }

    #[test]
    fn the_middle_half_ignores_one_stalled_slice() {
        // Four steady slices and one that lost 80 % of its time to a stall.
        let phase = Phase {
            slices: [1000, 1010, 200, 990, 1005]
                .iter()
                .map(|&n| slice(n, 0.5, 1000, 1.0))
                .collect(),
            ..Phase::default()
        };
        assert!((phase.tput() - (990.0 + 1000.0 + 1005.0) / 3.0 / 0.5).abs() < 1e-9);
        assert_eq!(phase.raw_tput(), phase.tput());
        assert_eq!(phase.total_ops(), 4205);
        assert!((phase.cpu_us_per_op() - 0.5e6 / 1000.0).abs() < 1e-9);
        assert_eq!(phase.left_out(), 0);
        // Even count: mean of the middle two.
        let even = Phase {
            slices: [100, 300, 200, 400]
                .iter()
                .map(|&n| slice(n, 1.0, 1, 1.0))
                .collect(),
            ..Phase::default()
        };
        assert_eq!(even.tput(), 250.0);
    }

    #[test]
    fn a_slow_machine_is_taken_out_slice_by_slice() {
        // The same system while the reference work costs 1x, 2x and 1.5x its
        // reference: half the rate and double the latency at 2x.
        let slices = || {
            vec![
                slice(1000, 1.0, 20_000, 1.0),
                slice(500, 1.0, 40_000, 2.0),
                slice(667, 1.0, 30_000, 1.5),
            ]
        };
        for phase in [
            durable(slices()),
            Phase {
                slices: slices(),
                ..Phase::default()
            },
        ] {
            assert!((phase.tput() - 1000.0).abs() < 1.0, "{}", phase.tput());
            assert!((phase.p50_us() - 20.0).abs() < 1.0, "{}", phase.p50_us());
            assert!(
                (phase.raw_p50_us() - 30.0).abs() < 1.0,
                "{}",
                phase.raw_p50_us()
            );
            assert!((phase.raw_tput() - (1000.0 + 500.0 + 667.0) / 3.0).abs() < 1e-9);
            assert!((phase.cost() - 1.5).abs() < 1e-12);
            assert_eq!(phase.raw_aux_us(), 150.0);
            // Windows stretch with the disk, not with the CPU.
            let aux = if phase.disk_timed { 100.0 } else { 150.0 };
            assert!((phase.aux_us() - aux).abs() < 1e-9);
        }
    }

    #[test]
    fn latency_is_the_median_request_not_the_median_slice() {
        // Three slow slices of 10 requests and two fast ones of 100: most
        // requests were fast.
        let mut slices = Vec::new();
        for (n, ns) in [
            (10, 90_000),
            (100, 20_000),
            (10, 95_000),
            (100, 21_000),
            (10, 92_000),
        ] {
            let mut s = slice(n, 1.0, ns, 1.0);
            for _ in 1..n {
                s.lat.record(ns);
            }
            slices.push(s);
        }
        let p50 = durable(slices).p50_us();
        assert!((20.0..22.0).contains(&p50), "{p50}");
    }

    #[test]
    fn slices_run_on_a_wild_disk_are_left_out_while_most_are_calm() {
        let mut slices: Vec<Slice> = (0..6).map(|_| slice(1000, 1.0, 20_000, 1.0)).collect();
        // Two slices on a disk 10x the reference, whose results scale less
        // than the disk did: they would pull the figures up.
        slices.push(slice(300, 1.0, 60_000, 10.0));
        slices.push(slice(300, 1.0, 60_000, 10.0));
        let phase = durable(slices);
        assert_eq!(phase.left_out(), 2);
        assert_eq!(phase.tput(), 1000.0);
        assert!((phase.cost() - 1.0).abs() < 1e-12);
        // When the disk is wild most of the time there is nothing better.
        let wild = durable(vec![
            slice(300, 1.0, 60_000, 10.0),
            slice(300, 1.0, 60_000, 10.0),
            slice(1000, 1.0, 20_000, 1.0),
        ]);
        assert_eq!(wild.left_out(), 0);
        assert!((wild.tput() - 7000.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn repetitions_on_a_wild_disk_are_left_out() {
        let rep = |out, factor: f64| Around {
            out,
            factor,
            calm: factor <= CALM,
        };
        let mostly_calm = [rep(2.0, 1.0), rep(4.0, 2.0), rep(90.0, 30.0)];
        assert_eq!(steady_time(&mostly_calm, true), 2.0);
        // As measured: the lower quartile of the calm ones.
        assert_eq!(steady_time(&mostly_calm, false), 2.5);
        assert_eq!(
            steady_time(&[rep(90.0, 30.0), rep(60.0, 30.0), rep(2.0, 1.0)], true),
            2.0
        );
        assert_eq!(steady_time(&[], true), 0.0);
        assert_eq!(quiet_time(&[5.0, 1.0, 2.0, 3.0, 4.0]), 2.0);
        // Scaling stops where it stops being true.
        assert_eq!(scale(1.0, 2.0), 1.5);
        assert_eq!(scale(30.0, 50.0), CALM);
        assert_eq!(scale(0.01, 0.01), 1.0 / CALM);
    }

    #[test]
    fn the_disk_is_timed_around_every_slice() {
        let dir = std::env::temp_dir().join(format!("terp-bench-slices-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let disk = Disk::beside(&dir, Duration::from_millis(2));
        let phase = Phase::run(Duration::ZERO, Some(&disk), |_| slice(1, 1.0, 1, 1.0));
        assert_eq!(phase.slices.len(), SLICES);
        assert!(phase.slices.iter().all(|s| s.cost > 0.0 && s.cost != 1.0));
        drop(disk);
        assert!(
            !dir.join("fsync-calibration").exists(),
            "scratch file is removed"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn slices_run_for_their_length_and_merge_their_lanes() {
        let work = |lane: &mut Lane| {
            let mut t0 = Instant::now();
            while lane.open_at(t0) {
                std::thread::sleep(Duration::from_millis(1));
                let t1 = Instant::now();
                lane.lat.record((t1 - t0).as_nanos() as u64);
                lane.done(2, 1);
                t0 = t1;
            }
        };
        let mut runs = 0;
        let phase = Phase::run(Duration::from_millis(100), None, |each| {
            runs += 1;
            assert_eq!(each, Duration::from_millis(100) / SLICES as u32);
            run_slice(each, vec![Box::new(work), Box::new(work)])
        });
        assert_eq!(runs, SLICES + 1, "one warm-up slice first");
        // No disk given: the CPU was timed instead, and nothing is left out.
        assert!(phase
            .slices
            .iter()
            .all(|s| s.ops > 0 && s.cost > 0.0 && s.calm));
        assert!(!phase.disk_timed);
        assert_eq!(phase.failed() * 2, phase.total_ops());
        assert!(phase.warm_ops > 0, "the warm-up's operations are counted");
        assert_eq!(
            phase.all_lat().count() * 2,
            phase.total_ops() - phase.warm_ops,
            "and timed by nobody"
        );
        assert!((phase.secs() - 0.1).abs() < 1e-9);
        assert!(phase.p50_us() >= 1000.0);
        assert!(phase.tput() > 0.0);
    }

    #[test]
    fn timing_around_a_call_needs_a_disk() {
        let dir = std::env::temp_dir().join(format!("terp-bench-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let disk = Disk::beside(&dir, Duration::from_millis(5));
        let timed = with_disk(Some(&disk), || 7);
        assert!(timed.out == 7 && timed.factor > 0.0 && timed.factor.is_finite());
        let plain = with_disk(None, || 7);
        assert!(plain.out == 7 && plain.factor == 1.0 && plain.calm);
        let (built, time) = with_disk(None, || ("built", 2.5)).split();
        assert!(built == "built" && time.out == 2.5 && time.factor == 1.0);
        drop(disk);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let c0 = process_cpu_s();
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(
            process_cpu_s() > c0,
            "60 ms of spinning is at least one tick"
        );
    }
}
