//! Arithmetic the benchmark reports with: a fixed-size latency histogram,
//! quantiles of small sample sets, medians over reps, and the seeded
//! generator every input is drawn from.

/// Sub-buckets per power of two: 64 gives buckets 1.6 % wide, and
/// [`Hist::quantile`] interpolates inside the bucket it lands in.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values at or above 2^40 ns (18 minutes) share the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = (MAX_EXP - SUB_BITS + 1) as usize * SUB;

/// Log-linear histogram of nanosecond samples. Recording is O(1) and
/// allocation-free, so it can sit on a measured path.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    count: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            max: 0,
        }
    }
}

/// `(index, lower bound, width)` of the bucket holding `value`.
fn bucket(value: u64) -> (usize, u64, u64) {
    if value < SUB as u64 {
        return (value as usize, value, 1);
    }
    let exp = (63 - value.leading_zeros()).min(MAX_EXP - 1);
    let shift = exp - SUB_BITS;
    let sub = ((value >> shift) as usize).min(2 * SUB - 1) - SUB;
    let index = (exp - SUB_BITS + 1) as usize * SUB + sub;
    (index, ((SUB + sub) as u64) << shift, 1 << shift)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns).0] += 1;
        self.count += 1;
        self.max = self.max.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile in nanoseconds (0 when empty), interpolated
    /// linearly inside its bucket and never above the recorded maximum.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (seen + n) as f64 >= rank {
                let (lower, width) = bucket_bounds(i);
                let inside = ((rank - seen as f64) / n as f64).clamp(0.0, 1.0);
                return (lower as f64 + inside * width as f64).min(self.max as f64);
            }
            seen += n;
        }
        self.max as f64
    }
}

fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB {
        return (index as u64, 1);
    }
    let shift = (index / SUB - 1) as u32;
    (((SUB + index % SUB) as u64) << shift, 1 << shift)
}

/// The `q`-quantile of a small sample set by linear interpolation between
/// order statistics (0 when empty). Used over reps, not over requests.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `(max − min) ÷ median`: how far the reps of one run disagree.
pub fn rep_spread(values: &[f64]) -> f64 {
    let med = median(values);
    if values.is_empty() || med == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / med.abs()
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (its default "exclusive" method) — the spread the acceptance rule for
/// this benchmark is written in. 0 for fewer than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let med = median(values);
    if values.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(3) - cut(1)) / med.abs()
}

/// SplitMix64: every benchmark input (keys, op mix, arrival gaps) is a
/// pure function of the `--seed` through this generator.
#[derive(Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_invert_bucket() {
        for v in [0, 1, 63, 64, 65, 127, 128, 1000, 123_456, 9_999_999_999] {
            let (i, lower, width) = bucket(v);
            assert_eq!(bucket_bounds(i), (lower, width), "value {v}");
            assert!(lower <= v && v < lower + width, "value {v}");
        }
        // Out-of-range values clamp into the last bucket instead of
        // indexing past the table.
        assert_eq!(bucket(u64::MAX).0, BUCKETS - 1);
    }

    #[test]
    fn hist_quantiles_are_within_bucket_precision() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.max(), 1_000_000);
        for (q, want) in [(0.5, 500_000.0), (0.9, 900_000.0), (0.99, 990_000.0)] {
            let got = h.quantile(q);
            assert!(
                (got - want).abs() / want < 0.01,
                "q{q}: got {got}, want {want}"
            );
        }
        assert_eq!(h.quantile(1.0), 1_000_000.0);
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn hist_merge_adds_counts() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        a.record(100);
        b.record(300);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 500);
    }

    #[test]
    fn median_of_reps_and_spread() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[10.0, 20.0, 30.0, 40.0, 50.0], 0.9), 46.0);
        assert_eq!(rep_spread(&[90.0, 100.0, 110.0]), 0.2);
        assert_eq!(rep_spread(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert!((quartile_spread(&[50.0, 10.0, 30.0, 20.0, 40.0]) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
    }

    #[test]
    fn splitmix_is_a_pure_function_of_its_seed() {
        let draw = |seed| {
            let mut r = SplitMix64(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut r = SplitMix64(1);
        assert!((0..1000).all(|_| r.below(10) < 10 && (0.0..1.0).contains(&r.unit())));
    }
}
