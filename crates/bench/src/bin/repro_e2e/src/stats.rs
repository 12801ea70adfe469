//! Seeded draws and the order statistics every metric is built from.

/// SplitMix64: the benchmark's only source of randomness, so one
/// `--seed` fixes URL order, popularity draws and which URLs are fresh.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(1.0) over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / (k + 1) as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// FNV-1a, the in-loop payload fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`):
/// the smallest sample with at least `p` percent of the samples at or
/// below it. Zero for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The `q`-quantile by the exclusive method Python's
/// `statistics.quantiles` uses (linear interpolation at `q·(n+1)`,
/// clamped to the extremes), so `--repeat` reports the spread the
/// driver will compute.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = (q * (n + 1) as f64 - 1.0).clamp(0.0, (n - 1) as f64);
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The run's value for a metric measured once per round: the fast-side
/// quartile across rounds (lower quartile of times, upper quartile of
/// rates). On a shared machine interference only ever slows a round, so
/// the fast side is the steadier estimate of what the code costs.
pub fn fast_quartile(per_round: &[f64], better: Better) -> f64 {
    match better {
        Better::Lower => quantile(per_round, 0.25),
        Better::Higher => quantile(per_round, 0.75),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // 1 000 samples leave ten beyond the 99th percentile.
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&v, 99.0), 989.0);
    }

    #[test]
    fn quantile_matches_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.75);
        assert_eq!(quantile(&v, 0.5), 5.5);
        assert_eq!(quantile(&v, 0.75), 8.25);
        // Order of the input does not matter, and small inputs clamp.
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.25), 1.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.75), 3.0);
        assert_eq!(quantile(&[4.0], 0.25), 4.0);
    }

    #[test]
    fn fast_quartile_picks_the_fast_side() {
        let rounds: Vec<f64> = (1..=12).map(f64::from).collect();
        assert!(fast_quartile(&rounds, Better::Lower) < median(&rounds));
        assert!(fast_quartile(&rounds, Better::Higher) > median(&rounds));
        // One slow round out of twelve does not move a time's estimate.
        let mut slowed = rounds.clone();
        slowed[11] = 1000.0;
        assert_eq!(
            fast_quartile(&rounds, Better::Lower),
            fast_quartile(&slowed, Better::Lower)
        );
    }

    #[test]
    fn rng_is_reproducible_and_shuffle_permutes() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut items: Vec<u32> = (0..100).collect();
        a.shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<u32>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<u32>>());
        assert!((0..1000).all(|_| a.below(7) < 7));
    }

    #[test]
    fn zipf_favours_low_ranks_in_proportion() {
        let z = Zipf::new(100);
        let mut rng = Rng::new(1);
        let mut counts = [0u32; 100];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // P(rank 0) = 1/H(100) ≈ 0.1928; rank 1 gets half of that.
        let p0 = counts[0] as f64 / 200_000.0;
        assert!((p0 - 0.1928).abs() < 0.01, "p0 = {p0}");
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.0).abs() < 0.15, "ratio = {ratio}");
        assert!(counts[99] > 0);
    }

    #[test]
    fn fnv_distinguishes_payloads() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"class A"), fnv1a(b"class B"));
    }
}
