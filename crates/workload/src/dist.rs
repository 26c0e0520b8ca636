//! Empirical service-time distributions.
//!
//! The built-in profiles use log-normal service times with a calibrated
//! mean and CV. Users reproducing against *their own* services can instead
//! replay measured per-request service times: an [`EmpiricalDist`] built
//! from samples plugs into the application profile, the DES samples from
//! it by inverse-CDF, and the analytic plane is matched on mean and CV.

use serde::{Deserialize, Serialize};

/// A distribution defined by observed samples, with linear interpolation
/// between order statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmpiricalDist {
    /// Sorted, strictly positive samples.
    sorted: Vec<f64>,
    mean: f64,
    cv: f64,
}

/// Why sample ingestion failed.
#[derive(Debug, PartialEq, Eq)]
pub enum EmpiricalError {
    /// No samples supplied.
    Empty,
    /// A sample was zero, negative, or not finite.
    NonPositiveSample,
}

impl std::fmt::Display for EmpiricalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmpiricalError::Empty => f.write_str("empirical distribution needs samples"),
            EmpiricalError::NonPositiveSample => {
                f.write_str("service-time samples must be positive and finite")
            }
        }
    }
}

impl std::error::Error for EmpiricalError {}

impl EmpiricalDist {
    /// Build from raw samples (e.g. parsed from a service log).
    pub fn from_samples(mut samples: Vec<f64>) -> Result<Self, EmpiricalError> {
        if samples.is_empty() {
            return Err(EmpiricalError::Empty);
        }
        if samples.iter().any(|&x| !x.is_finite() || x <= 0.0) {
            return Err(EmpiricalError::NonPositiveSample);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        Ok(EmpiricalDist {
            sorted: samples,
            mean,
            cv: var.sqrt() / mean,
        })
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample coefficient of variation.
    pub fn cv(&self) -> f64 {
        self.cv
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if built from a single sample (degenerate but legal).
    pub fn is_empty(&self) -> bool {
        false // construction guarantees at least one sample
    }

    /// The `q`-quantile (`q ∈ [0,1]`) with linear interpolation between
    /// order statistics.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// The quantile rescaled so the distribution's mean equals
    /// `mean_target` (service times scale with frequency/contention, so
    /// the shape is reused at every sprint setting). At a uniform random
    /// `q` this is an inverse-CDF sample.
    pub fn quantile_scaled(&self, q: f64, mean_target: f64) -> f64 {
        self.quantile(q) * (mean_target / self.mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_sim::SimRng;

    fn dist() -> EmpiricalDist {
        EmpiricalDist::from_samples(vec![4.0, 1.0, 2.0, 3.0]).unwrap()
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(
            EmpiricalDist::from_samples(vec![]).unwrap_err(),
            EmpiricalError::Empty
        );
        assert_eq!(
            EmpiricalDist::from_samples(vec![1.0, -2.0]).unwrap_err(),
            EmpiricalError::NonPositiveSample
        );
        assert_eq!(
            EmpiricalDist::from_samples(vec![f64::NAN]).unwrap_err(),
            EmpiricalError::NonPositiveSample
        );
    }

    #[test]
    fn moments() {
        let d = dist();
        assert!((d.mean() - 2.5).abs() < 1e-12);
        // Population sd of {1,2,3,4} is sqrt(1.25).
        assert!((d.cv() - (1.25_f64.sqrt() / 2.5)).abs() < 1e-12);
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn quantiles_interpolate() {
        let d = dist();
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(1.0), 4.0);
        assert!((d.quantile(0.5) - 2.5).abs() < 1e-12);
        // Monotone.
        let mut prev = 0.0;
        for i in 0..=20 {
            let v = d.quantile(i as f64 / 20.0);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn scaled_sampling_hits_target_mean() {
        let d = dist();
        let mut rng = SimRng::seed_from_u64(5);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| d.quantile_scaled(rng.uniform(), 10.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        // Every sample is within the scaled support.
        let m = 10.0 / d.mean();
        for _ in 0..1_000 {
            let x = d.quantile_scaled(rng.uniform(), 10.0);
            assert!((1.0 * m..=4.0 * m).contains(&x));
        }
    }

    #[test]
    fn single_sample_is_degenerate() {
        let d = EmpiricalDist::from_samples(vec![7.0]).unwrap();
        assert_eq!(d.quantile(0.3), 7.0);
        assert_eq!(d.cv(), 0.0);
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(d.quantile_scaled(rng.uniform(), 14.0), 14.0);
    }
}
