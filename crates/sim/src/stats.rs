//! Online statistics: Welford mean/variance, exact percentiles over bounded
//! reservoirs, and fixed-bin histograms.

use serde::{Deserialize, Serialize};

/// Streaming mean/variance/min/max via Welford's algorithm.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact percentiles over all recorded samples, with an optional uniform
/// subsampling cap so epoch-scale DES runs stay memory-bounded.
///
/// Below the cap this is exact; above it, reservoir sampling (Algorithm R)
/// keeps a uniform sample, so percentiles remain unbiased estimates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReservoirPercentiles {
    samples: Vec<f64>,
    cap: usize,
    seen: u64,
    /// Cheap xorshift state for reservoir replacement decisions; the
    /// percentile estimator keeps its own stream so callers' `SimRng`
    /// sequences are unaffected by sampling internals.
    rng_state: u64,
}

impl ReservoirPercentiles {
    /// Create with a sample cap (use e.g. 100_000 for epoch latencies).
    pub fn with_cap(cap: usize) -> Self {
        assert!(cap > 0, "reservoir cap must be positive");
        ReservoirPercentiles {
            samples: Vec::new(),
            cap,
            seen: 0,
            rng_state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(x);
        } else {
            // Algorithm R: replace a random slot with probability cap/seen.
            let j = self.next_u64() % self.seen;
            if (j as usize) < self.cap {
                self.samples[j as usize] = x;
            }
        }
    }

    /// Total number of observations recorded (not just retained).
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// The `q`-quantile (`q` in `[0,1]`) by the nearest-rank method;
    /// `None` if no samples were recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let mut samples = self.samples.clone();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        // Selection, not a full sort: the rank's value is the same.
        let (_, &mut at_rank, _) = samples.select_nth_unstable_by(rank - 1, |a, b| {
            a.partial_cmp(b).expect("NaN in percentile samples")
        });
        Some(at_rank)
    }

    /// Convenience: the `p`-th percentile (`p` in `[0,100]`).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        self.quantile(p / 100.0)
    }

    /// Fraction of recorded samples `<= threshold`, estimated from the
    /// retained reservoir. `None` if empty.
    pub fn fraction_at_most(&self, threshold: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let k = self.samples.iter().filter(|&&x| x <= threshold).count();
        Some(k as f64 / self.samples.len() as f64)
    }
}

/// A fixed-width-bin histogram over `[lo, hi)` with under/overflow bins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Create a histogram of `n_bins` equal-width bins spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, n_bins: usize) -> Self {
        assert!(hi > lo && n_bins > 0, "invalid histogram bounds");
        Histogram {
            lo,
            hi,
            bins: vec![0; n_bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let i = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[i] += 1;
        }
    }

    /// Counts per bin (excluding under/overflow).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Observations below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total recorded observations, including under/overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        self.lo + (self.hi - self.lo) * i as f64 / self.bins.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        data.iter().for_each(|&x| whole.record(x));
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        data[..37].iter().for_each(|&x| a.record(x));
        data[37..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn percentiles_exact_below_cap() {
        let mut p = ReservoirPercentiles::with_cap(1000);
        for i in 1..=100 {
            p.record(i as f64);
        }
        assert_eq!(p.percentile(50.0), Some(50.0));
        assert_eq!(p.percentile(99.0), Some(99.0));
        assert_eq!(p.percentile(100.0), Some(100.0));
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.fraction_at_most(10.0), Some(0.10));
    }

    #[test]
    fn percentiles_empty_is_none() {
        let p = ReservoirPercentiles::with_cap(10);
        assert_eq!(p.percentile(50.0), None);
        assert_eq!(p.fraction_at_most(1.0), None);
    }

    #[test]
    fn reservoir_approximates_above_cap() {
        let mut p = ReservoirPercentiles::with_cap(2_000);
        for i in 0..100_000 {
            p.record(i as f64);
        }
        assert_eq!(p.count(), 100_000);
        let med = p.percentile(50.0).unwrap();
        assert!((med - 50_000.0).abs() < 5_000.0, "med={med}");
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [-1.0, 0.0, 0.5, 5.0, 9.99, 10.0, 42.0] {
            h.record(x);
        }
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bins()[0], 2);
        assert_eq!(h.bins()[5], 1);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.total(), 7);
        assert!((h.bin_lo(5) - 5.0).abs() < 1e-12);
    }
}
