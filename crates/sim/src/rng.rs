//! Seeded random number generation and the distributions the simulator needs.
//!
//! The generator is a self-contained xoshiro256++ (seeded through
//! SplitMix64, the construction its authors recommend), so the kernel has
//! no external RNG dependency and the stream is reproducible across
//! platforms for a given seed. The non-uniform distributions (exponential,
//! normal, log-normal, Poisson, Pareto) are implemented with standard,
//! well-understood methods (inverse transform, Marsaglia polar,
//! Knuth/inversion-by-chop).

/// Expand a 64-bit seed into successive SplitMix64 outputs.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The simulator's random source: xoshiro256++ with convenience samplers.
///
/// Serializable so a checkpoint can capture the exact stream position: a
/// generator restored from its serialized form continues with the same
/// outputs the original would have produced.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second value from the Marsaglia polar method.
    cached_gaussian: Option<f64>,
}

impl std::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimRng").finish_non_exhaustive()
    }
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            cached_gaussian: None,
        }
    }

    /// Next raw 64-bit output (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Derive an independent child generator (e.g. one per server) from
    /// this generator's stream. Children created in the same order are
    /// identical across runs.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64())
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits → the standard double in [0, 1) with full mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(hi >= lo, "uniform_range requires hi >= lo");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires a non-empty range");
        // Lemire-style widening multiply: unbiased enough for simulation
        // (bias < 2^-64 relative) and branch-free.
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Exponential with the given mean (inverse-transform sampling).
    /// A non-positive mean returns 0 (degenerate distribution).
    pub fn exp(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // 1 - U is in (0, 1], so ln() is finite.
        -mean * (1.0 - self.uniform()).ln()
    }

    /// Standard normal via the Marsaglia polar method (caches the spare).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.cached_gaussian.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                self.cached_gaussian = Some(v * factor);
                return u * factor;
            }
        }
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Log-normal parameterized by the *target* mean and coefficient of
    /// variation (see [`LogNormal::from_mean_cv`]). Draws many samples of
    /// one shape through a [`LogNormal`] built once instead.
    pub fn lognormal_mean_cv(&mut self, mean: f64, cv: f64) -> f64 {
        LogNormal::from_mean_cv(mean, cv).sample(self)
    }

    /// Poisson-distributed count with the given mean.
    ///
    /// Uses Knuth's product method for small means and a normal
    /// approximation (continuity-corrected, clamped at zero) for large ones.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        if mean < 30.0 {
            let l = (-mean).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.uniform();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            let x = self.normal(mean, mean.sqrt()) + 0.5;
            if x < 0.0 {
                0
            } else {
                x as u64
            }
        }
    }

    /// Bounded Pareto sample (heavy-tailed burst magnitudes). `alpha > 0`.
    pub fn bounded_pareto(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        assert!(
            alpha > 0.0 && lo > 0.0 && hi > lo,
            "invalid Pareto parameters"
        );
        let u = self.uniform();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }
}

/// A log-normal distribution, built once from the *target* mean and
/// coefficient of variation of the resulting distribution (not of the
/// underlying normal), which is the natural parameterization for service
/// times. Sampling costs one standard normal and one `exp`.
#[derive(Debug, Clone, Copy)]
pub enum LogNormal {
    /// Degenerate: every draw is this value and consumes no randomness.
    Fixed(f64),
    /// `exp(mu + sigma·Z)` for a standard normal `Z`.
    Shaped {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
}

impl LogNormal {
    /// The log-normal with the given mean and CV. A non-positive mean
    /// always draws 0 and a non-positive CV always draws the mean.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        if mean <= 0.0 {
            return LogNormal::Fixed(0.0);
        }
        if cv <= 0.0 {
            return LogNormal::Fixed(mean);
        }
        let sigma2 = (1.0 + cv * cv).ln();
        LogNormal::Shaped {
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    }

    /// One draw from `rng`.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            LogNormal::Fixed(x) => x,
            LogNormal::Shaped { mu, sigma } => (mu + sigma * rng.standard_normal()).exp(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_reproducible_and_independent() {
        let mut root1 = SimRng::seed_from_u64(42);
        let mut root2 = SimRng::seed_from_u64(42);
        let mut c1 = root1.fork();
        let mut c2 = root2.fork();
        assert_eq!(c1.uniform(), c2.uniform());
        // A second fork differs from the first.
        let mut c3 = root1.fork();
        assert_ne!(c1.uniform(), c3.uniform());
    }

    #[test]
    fn exp_mean_converges() {
        let mut r = SimRng::seed_from_u64(3);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp(2.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.5).abs() < 0.03, "mean={mean}");
    }

    #[test]
    fn exp_degenerate_mean() {
        let mut r = SimRng::seed_from_u64(3);
        assert_eq!(r.exp(0.0), 0.0);
        assert_eq!(r.exp(-1.0), 0.0);
    }

    #[test]
    fn normal_moments_converge() {
        let mut r = SimRng::seed_from_u64(4);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean={mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.05, "sd={}", var.sqrt());
    }

    #[test]
    fn lognormal_mean_and_cv_converge() {
        let mut r = SimRng::seed_from_u64(5);
        let n = 400_000;
        let samples: Vec<f64> = (0..n).map(|_| r.lognormal_mean_cv(4.0, 0.5)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        assert!((mean - 4.0).abs() < 0.05, "mean={mean}");
        assert!((cv - 0.5).abs() < 0.02, "cv={cv}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn lognormal_zero_cv_is_deterministic() {
        let mut r = SimRng::seed_from_u64(5);
        assert_eq!(r.lognormal_mean_cv(4.0, 0.0), 4.0);
    }

    #[test]
    fn poisson_small_and_large_means() {
        let mut r = SimRng::seed_from_u64(6);
        for &mean in &[0.5, 5.0, 80.0] {
            let n = 100_000;
            let avg = (0..n).map(|_| r.poisson(mean)).sum::<u64>() as f64 / n as f64;
            assert!(
                (avg - mean).abs() < 0.05 * mean.max(1.0),
                "mean={mean} avg={avg}"
            );
        }
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let mut r = SimRng::seed_from_u64(8);
        for _ in 0..10_000 {
            let x = r.bounded_pareto(1.5, 1.0, 100.0);
            assert!((1.0..=100.0).contains(&x), "x={x}");
        }
    }

    #[test]
    fn serialized_rng_continues_the_stream() {
        let mut r = SimRng::seed_from_u64(11);
        // Burn an odd number of gaussians so the polar-method cache is hot.
        let _ = r.standard_normal();
        for _ in 0..17 {
            let _ = r.uniform();
        }
        let json = serde_json::to_string(&r).unwrap();
        let mut restored: SimRng = serde_json::from_str(&json).unwrap();
        for _ in 0..64 {
            assert_eq!(r.next_u64(), restored.next_u64());
        }
        assert_eq!(r.standard_normal(), restored.standard_normal());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(9);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
