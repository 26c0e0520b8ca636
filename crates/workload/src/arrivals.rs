//! Open-loop arrival processes.
//!
//! Two generators feed the evaluation:
//!
//! * [`BurstPattern`] — the controlled bursts of §IV: the cluster is
//!   saturated for 10/15/30/60 minutes at an intensity `Int=k`, defined by
//!   the paper as "the maximal processing capability of running workloads
//!   on *k* cores at 2.0 GHz";
//! * [`DiurnalTrace`] — a Google-datacenter-style diurnal load curve
//!   (paper Fig. 1) with a configurable number of load spikes, used by the
//!   motivation figure and the long-horizon examples.

use gs_sim::{SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// A square workload burst: `Int=k` intensity for a fixed duration, with
/// a light background load outside the burst. The paper's `Int=k` rates
/// are read from the offline profile table, which holds every setting's
/// SLO capacity (`ProfileTable::burst_pattern` in the `greensprint`
/// crate).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BurstPattern {
    /// Offered per-server rate during the burst (req/s).
    pub burst_rps: f64,
    /// Offered per-server rate outside the burst (req/s).
    pub background_rps: f64,
    /// Burst start.
    pub start: SimTime,
    /// Burst end.
    pub end: SimTime,
}

impl BurstPattern {
    /// Offered per-server rate at time `t`.
    pub fn offered_rps(&self, t: SimTime) -> f64 {
        if t >= self.start && t < self.end {
            self.burst_rps
        } else {
            self.background_rps
        }
    }

    /// True while the burst is active.
    pub fn in_burst(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }
}

/// A normalized (peak = 1.0) diurnal workload-intensity curve at
/// one-minute resolution, shaped like the Google trace of paper Fig. 1:
/// a low overnight trough, a broad daytime plateau, and several sharp
/// load spikes of varying intensity and duration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiurnalTrace {
    samples: Vec<f64>,
}

impl DiurnalTrace {
    /// Generate a `days`-long trace with `spikes_per_day` bursts at random
    /// daytime positions. Reproducible by seed.
    pub fn generate(days: u32, spikes_per_day: u32, rng: &mut SimRng) -> Self {
        let n = days as usize * 24 * 60;
        let mut samples = vec![0.0; n];
        // Base diurnal shape: trough at 4 am, plateau 9 am – 9 pm.
        for (i, s) in samples.iter_mut().enumerate() {
            let h = (i as f64 / 60.0) % 24.0;
            let phase = (h - 4.0).rem_euclid(24.0) / 24.0 * std::f64::consts::TAU;
            let base = 0.45 - 0.25 * phase.cos(); // 0.2 .. 0.7
            *s = base + rng.normal(0.0, 0.01);
        }
        // Spikes: breaking-news / flash-sale style bursts.
        for day in 0..days {
            for _ in 0..spikes_per_day {
                let hour = rng.uniform_range(7.0, 23.0);
                let center = day as usize * 24 * 60 + (hour * 60.0) as usize;
                let half_width = rng.uniform_range(10.0, 45.0) as usize; // minutes
                let peak = rng.uniform_range(0.5, 0.8);
                let lo = center.saturating_sub(half_width);
                let hi = (center + half_width).min(n - 1);
                for (j, s) in samples.iter_mut().enumerate().take(hi + 1).skip(lo) {
                    let d = (j as f64 - center as f64) / half_width as f64;
                    *s += peak * (-2.5 * d * d).exp();
                }
            }
        }
        for s in &mut samples {
            *s = s.clamp(0.05, 1.0);
        }
        DiurnalTrace { samples }
    }

    /// Number of minute samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Normalized intensity in `[0, 1]` at time `t` (cyclic).
    pub fn at(&self, t: SimTime) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let idx = (t.as_secs() / 60) as usize % self.samples.len();
        self.samples[idx]
    }

    /// Raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Offered per-server rate at `t` when the cluster's peak demand is
    /// `peak_rps` per server.
    pub fn offered_rps(&self, t: SimTime, peak_rps: f64) -> f64 {
        self.at(t) * peak_rps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_trace_shape() {
        let mut rng = SimRng::seed_from_u64(13);
        let t = DiurnalTrace::generate(1, 4, &mut rng);
        assert_eq!(t.len(), 24 * 60);
        assert!(t.samples().iter().all(|&v| (0.05..=1.0).contains(&v)));
        // Overnight trough is lower than the daytime plateau.
        let night = t.at(SimTime::from_hours(4));
        let day = t.at(SimTime::from_hours(14));
        assert!(night < day, "night={night} day={day}");
        // Spikes push some samples well above the base curve.
        let max = t.samples().iter().cloned().fold(0.0, f64::max);
        assert!(max > 0.8, "max={max}");
    }

    #[test]
    fn diurnal_trace_reproducible() {
        let a = DiurnalTrace::generate(1, 3, &mut SimRng::seed_from_u64(1));
        let b = DiurnalTrace::generate(1, 3, &mut SimRng::seed_from_u64(1));
        assert_eq!(a.samples(), b.samples());
    }

    #[test]
    fn diurnal_offered_rate_scales() {
        let t = DiurnalTrace::generate(1, 0, &mut SimRng::seed_from_u64(2));
        let at = SimTime::from_hours(12);
        assert!((t.offered_rps(at, 100.0) - 100.0 * t.at(at)).abs() < 1e-12);
    }
}
