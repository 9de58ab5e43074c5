//! Order statistics used by every workload: nearest-rank percentiles with
//! the sample-count rule, medians, geometric means, and a seeded
//! SplitMix64 stream for reproducible inputs and arrival schedules.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`: the smallest
/// sample such that at least `p`% of the samples are ≤ it. Returns `None`
/// for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median by the nearest-rank rule.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Samples a run needs before percentile `p` has at least `beyond`
/// samples above it (the "ten samples beyond p95" rule: 200 for p95).
pub fn samples_needed(p: f64, beyond: usize) -> usize {
    (beyond as f64 * 100.0 / (100.0 - p)).ceil() as usize
}

/// Whether `n` samples support reporting percentile `p`, i.e. leave at
/// least ten samples beyond it.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n >= samples_needed(p, 10)
}

/// The tail percentile `n` samples support: p95 when at least 200 samples
/// leave ten beyond it, else the highest percentile that still leaves ten
/// samples beyond it, but never below the median.
pub fn tail_percentile(n: usize) -> f64 {
    if n == 0 {
        return 50.0;
    }
    (100.0 * (1.0 - 10.0 / n as f64)).clamp(50.0, 95.0)
}

/// Geometric mean of strictly positive values (`None` if empty).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// SplitMix64: a tiny, fully specified generator, so workload inputs and
/// arrival schedules depend on the seed alone, never on a library version.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_picks_a_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 95.0), Some(10.0));
        assert_eq!(percentile(&v, 10.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 90.0), Some(9.0));
    }

    #[test]
    fn p95_of_200_samples_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&v, 95.0).unwrap();
        assert_eq!(v.iter().filter(|&&x| x > p95).count(), 10);
    }

    #[test]
    fn sample_count_rule() {
        assert_eq!(samples_needed(95.0, 10), 200);
        assert_eq!(samples_needed(50.0, 10), 20);
        assert_eq!(samples_needed(99.0, 10), 1000);
        assert!(percentile_supported(200, 95.0));
        assert!(!percentile_supported(199, 95.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1000), 95.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
        for n in [20usize, 40, 100, 200, 500] {
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let t = percentile(&v, tail_percentile(n)).unwrap();
            assert!(v.iter().filter(|&&x| x > t).count() >= 10, "n={n}");
        }
    }

    #[test]
    fn geomean_of_equal_values_is_that_value() {
        assert!((geomean(&[4.0, 4.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn splitmix_is_reproducible_from_the_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = SplitMix64::new(7);
        assert!((0..1000)
            .map(|_| r.next_f64())
            .all(|u| (0.0..1.0).contains(&u)));
    }
}
