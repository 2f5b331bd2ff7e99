//! The benchmark's own latency histogram and the small order statistics the
//! reports are built from.
//!
//! Log-bucketed (power-of-two majors, 32 linear sub-buckets, ≤ 3.2 % bucket
//! width), values in nanoseconds. Quantiles interpolate inside the bucket by
//! rank, so a reported p50 is a measured quantity with all its digits and not
//! a bucket label that repeats from run to run.

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// A fixed-size log-bucket histogram of nanosecond samples.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) as usize) & (SUB - 1);
    (msb - SUB_BITS + 1) as usize * SUB + sub
}

/// Lower bound and width of bucket `idx`.
fn bucket_range(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, 1);
    }
    let shift = (idx / SUB - 1) as u32;
    (((SUB + idx % SUB) as u64) << shift, 1u64 << shift)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
        self.max = self.max.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.max = self.max.max(other.max);
    }

    /// Value at quantile `q` in `[0, 1]`, in nanoseconds; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        // Rank of the wanted sample, 0-based, fractional.
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < (before + c) as f64 {
                let (lo, width) = bucket_range(idx);
                let within = (rank - before as f64 + 0.5) / c as f64;
                return (lo as f64 + width as f64 * within).min(self.max as f64);
            }
            before += c;
        }
        self.max as f64
    }

    /// Share of samples strictly above `ns` (bucket-granular).
    pub fn frac_above(&self, ns: u64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let above: u64 = self.counts[bucket_of(ns) + 1..].iter().sum();
        above as f64 / self.n as f64
    }

    pub fn p50_us(&self) -> f64 {
        self.quantile(0.50) / 1e3
    }

    pub fn p99_us(&self) -> f64 {
        self.quantile(0.99) / 1e3
    }
}

/// Median of a sample (mean of the two middle values when even); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of the middle half of a sample (the lowest and the highest quarter
/// are left out); 0 when empty. As deaf to a few outliers as the median, and
/// it averages where the median picks one value.
pub fn midmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Value at quantile `q` in `[0, 1]` of a sample, interpolated between the
/// two nearest ranks; 0 when empty.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = (below + 1).min(v.len() - 1);
    v[below] + (v[above] - v[below]) * (rank - below as f64)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median: the spread the driver
/// holds against a metric's bound.
pub fn rel_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::XorShift;

    #[test]
    fn buckets_tile_the_range() {
        let mut prev_end = 0u64;
        for idx in 0..BUCKETS - SUB {
            let (lo, width) = bucket_range(idx);
            assert_eq!(lo, prev_end, "bucket {idx} starts where the last ended");
            assert_eq!(bucket_of(lo), idx);
            assert_eq!(bucket_of(lo + width - 1), idx);
            prev_end = lo + width;
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_track_an_exact_sort() {
        let mut rng = XorShift::new(7);
        let mut h = Hist::default();
        let mut exact = Vec::new();
        for _ in 0..50_000 {
            // Spread over five decades, like latencies are.
            let v = 100 + (rng.next_u64() % 1000) * (1 << (rng.below(5) * 3));
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let want = exact[(q * (exact.len() - 1) as f64) as usize] as f64;
            let got = h.quantile(q);
            assert!(
                (got - want).abs() <= want / 16.0,
                "q{q}: histogram {got} vs exact {want}"
            );
        }
        assert_eq!(h.quantile(1.0), *exact.last().unwrap() as f64);
        assert_eq!(h.count(), 50_000);
        let over = exact.iter().filter(|&&v| v > 1_000_000).count() as f64 / 50_000.0;
        assert!((h.frac_above(1_000_000) - over).abs() < 0.02);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (Hist::default(), Hist::default(), Hist::default());
        for v in 1..2000u64 {
            if v % 3 == 0 { &mut a } else { &mut b }.record(v * 17);
            both.record(v * 17);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.quantile(0.5), both.quantile(0.5));
        assert_eq!(a.quantile(0.99), both.quantile(0.99));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(midmean(&[9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 700.0]), 4.5);
        assert_eq!(midmean(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(midmean(&[]), 0.0);
        let v: Vec<f64> = (0..=20).map(f64::from).collect();
        assert_eq!(quantile_of(&v, 0.9), 18.0);
        assert_eq!(quantile_of(&v, 0.0), 0.0);
        assert_eq!(quantile_of(&[10.0, 20.0], 0.25), 12.5);
        assert_eq!(quantile_of(&[7.0], 0.9), 7.0);
        assert_eq!(quantile_of(&[], 0.5), 0.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(rel_spread(&v), Some(1.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
