//! Per-application profiles (paper Table II) and their scaling behaviour.
//!
//! Each application is characterized by how its request service time reacts
//! to the two sprint knobs:
//!
//! * **frequency** — a power law `(f_max / f)^φ`: compute-bound code
//!   (Web-Search scoring/sorting) has φ ≈ 1, memory-bound code (Memcached)
//!   much lower;
//! * **core count** — a linear contention term `1 + σ·(c−6)/6` capturing
//!   shared-cache/memory-bandwidth pressure as the second hexa-core socket
//!   lights up.
//!
//! The absolute service-time scale is set relative to each SLO deadline so
//! the model reproduces the paper's measured sprint gains (4.8× SPECjbb,
//! 4.1× Web-Search, 4.7× Memcached): interactive services run with tail
//! headroom, so Normal mode (slow cores) must be throttled well below raw
//! capacity to protect the percentile, while max sprint can run near
//! saturation — that asymmetry is what pushes the gain beyond the raw
//! 2 × 1.67 = 3.33× capacity ratio.

use crate::dist::EmpiricalDist;
use crate::queueing::Station;
use gs_cluster::{PowerModel, ServerSetting};
use gs_sim::{LogNormal, SimRng};
use serde::{Deserialize, Serialize};

/// The three evaluated applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Application {
    /// SPECjbb 2013-style Java business benchmark.
    SpecJbb,
    /// CloudSuite Web-Search query serving.
    WebSearch,
    /// Memcached key-value caching.
    Memcached,
}

impl Application {
    /// All applications, in the paper's order.
    pub const ALL: [Application; 3] = [
        Application::SpecJbb,
        Application::WebSearch,
        Application::Memcached,
    ];

    /// The paper-calibrated profile.
    pub fn profile(self) -> AppProfile {
        match self {
            Application::SpecJbb => AppProfile {
                app: self,
                name: "SPECjbb",
                metric: "jops",
                memory_gb: 10.0,
                slo_deadline_s: 0.500,
                slo_percentile: 0.99,
                base_service_ms: 148.1,
                service_cv: 0.32,
                freq_exponent: 0.95,
                core_contention: 0.10,
                max_sprint_power_w: 155.0,
                service_dist: None,
            },
            Application::WebSearch => AppProfile {
                app: self,
                name: "Web-Search",
                metric: "ops",
                memory_gb: 20.0,
                slo_deadline_s: 0.500,
                slo_percentile: 0.90,
                base_service_ms: 164.0,
                service_cv: 0.45,
                freq_exponent: 1.00,
                core_contention: 0.06,
                max_sprint_power_w: 156.0,
                service_dist: None,
            },
            Application::Memcached => AppProfile {
                app: self,
                name: "Memcached",
                metric: "rps",
                memory_gb: 20.0,
                slo_deadline_s: 0.010,
                slo_percentile: 0.95,
                base_service_ms: 4.83,
                service_cv: 0.20,
                freq_exponent: 0.75,
                core_contention: 0.05,
                max_sprint_power_w: 146.0,
                service_dist: None,
            },
        }
    }
}

impl std::fmt::Display for Application {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.profile().name)
    }
}

/// The full per-application model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppProfile {
    /// Which application this profiles.
    pub app: Application,
    /// Human-readable name.
    pub name: &'static str,
    /// The paper's throughput metric name (jops / ops / rps).
    pub metric: &'static str,
    /// Resident memory footprint (Table II).
    pub memory_gb: f64,
    /// SLO latency deadline (seconds).
    pub slo_deadline_s: f64,
    /// SLO percentile (e.g. 0.99 for a 99 %-ile constraint).
    pub slo_percentile: f64,
    /// Mean per-request service time on one core at 2.0 GHz with only the
    /// Normal 6 cores active (ms).
    pub base_service_ms: f64,
    /// Coefficient of variation of service times.
    pub service_cv: f64,
    /// Frequency sensitivity φ: `s ∝ (f_max/f)^φ`.
    pub freq_exponent: f64,
    /// Contention σ: `s ∝ 1 + σ·(c−6)/6`.
    pub core_contention: f64,
    /// Measured full-sprint server power (paper §IV).
    pub max_sprint_power_w: f64,
    /// Optional empirical service-time shape replayed by the DES (the
    /// analytic plane is matched on mean and CV). `None` = log-normal.
    pub service_dist: Option<EmpiricalDist>,
}

impl AppProfile {
    /// Mean service time (seconds) at a sprint setting.
    ///
    /// The contention term is scaled by the frequency fraction: shared
    /// cache/memory pressure grows with the cores' issue rate, so extra
    /// cores at a low clock interfere less than at full speed.
    pub fn mean_service_s(&self, setting: ServerSetting) -> f64 {
        let freq_slowdown = (1.0 / setting.freq_fraction()).powf(self.freq_exponent);
        let contention = 1.0
            + self.core_contention
                * setting.freq_fraction()
                * (setting.cores - gs_cluster::NORMAL_CORES) as f64
                / gs_cluster::NORMAL_CORES as f64;
        self.base_service_ms / 1e3 * freq_slowdown * contention
    }

    /// The queueing station this application forms at a sprint setting.
    pub fn station(&self, setting: ServerSetting) -> Station {
        Station {
            cores: setting.cores as u32,
            mean_service_s: self.mean_service_s(setting),
            service_cv: self.service_cv,
        }
    }

    /// Raw (saturation) capacity at a setting (req/s).
    pub fn raw_capacity(&self, setting: ServerSetting) -> f64 {
        self.station(setting).raw_capacity()
    }

    /// The service-time quantile grid at a setting, honouring the
    /// configured shape: empirical quantiles (rescaled to the setting's
    /// mean) when a measured distribution is attached, log-normal
    /// otherwise. Both the analytic solvers and the SLO-capacity metric
    /// run on this grid, so the two measurement planes share one shape.
    pub fn service_grid(&self, setting: ServerSetting) -> Vec<f64> {
        match &self.service_dist {
            Some(d) => {
                let mean = self.mean_service_s(setting);
                let n = crate::queueing::QUAD_POINTS;
                (0..n)
                    .map(|i| d.quantile_scaled((i as f64 + 0.5) / n as f64, mean))
                    .collect()
            }
            None => self.station(setting).service_grid(),
        }
    }

    /// SLO-constrained capacity at a setting (req/s): the paper's
    /// performance metric.
    pub fn slo_capacity(&self, setting: ServerSetting) -> f64 {
        self.station(setting).slo_capacity_with_grid(
            &self.service_grid(setting),
            self.slo_deadline_s,
            self.slo_percentile,
        )
    }

    /// The calibrated power model for a server running this application.
    pub fn power_model(&self) -> PowerModel {
        PowerModel::from_max_sprint_power(self.max_sprint_power_w)
    }

    /// Full-load power at a setting (W) — the paper's `LoadPower(L_max, S)`.
    pub fn load_power_w(&self, setting: ServerSetting) -> f64 {
        self.power_model().full_load_power_w(setting)
    }

    /// Replace the service-time shape with an empirical distribution
    /// (e.g. parsed from a production service log). The analytic queueing
    /// plane is matched on the distribution's CV; the DES replays the
    /// exact shape via inverse-CDF sampling.
    pub fn with_empirical_service(mut self, dist: EmpiricalDist) -> Self {
        self.service_cv = dist.cv();
        self.service_dist = Some(dist);
        self
    }

    /// The service-time sampler at `setting`, honouring the configured
    /// shape. The DES builds one per epoch, so the setting's mean and the
    /// shape's parameters are computed once, not once per request.
    pub(crate) fn service_sampler(&self, setting: ServerSetting) -> ServiceSampler<'_> {
        let mean = self.mean_service_s(setting);
        match &self.service_dist {
            Some(dist) => ServiceSampler::Empirical {
                dist,
                scale: mean / dist.mean(),
            },
            None => ServiceSampler::LogNormal(LogNormal::from_mean_cv(mean, self.service_cv)),
        }
    }

    /// The maximum sprint speedup over Normal mode (SLO capacities).
    pub fn max_speedup(&self) -> f64 {
        self.slo_capacity(ServerSetting::max_sprint()) / self.slo_capacity(ServerSetting::normal())
    }
}

/// One sprint setting's service-time distribution, ready to draw from
/// (see [`AppProfile::service_sampler`]).
pub(crate) enum ServiceSampler<'a> {
    /// The calibrated log-normal at the setting's mean.
    LogNormal(LogNormal),
    /// A measured shape, inverse-CDF sampled and rescaled to the
    /// setting's mean.
    Empirical {
        /// The measured distribution.
        dist: &'a EmpiricalDist,
        /// Setting mean over the distribution's own mean.
        scale: f64,
    },
}

impl ServiceSampler<'_> {
    /// Draw one service time (seconds), never below 1 µs.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> f64 {
        match self {
            ServiceSampler::LogNormal(shape) => shape.sample(rng),
            ServiceSampler::Empirical { dist, scale } => dist.quantile(rng.uniform()) * scale,
        }
        .max(1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_scales_with_knobs() {
        let p = Application::SpecJbb.profile();
        let slow = p.mean_service_s(ServerSetting::normal());
        let fast = p.mean_service_s(ServerSetting::new(6, 8));
        assert!(slow > fast, "lower frequency must be slower");
        let contended = p.mean_service_s(ServerSetting::new(12, 8));
        assert!(contended > fast, "more cores add contention");
    }

    #[test]
    fn memcached_is_least_frequency_sensitive() {
        let ratio = |app: Application| {
            let p = app.profile();
            p.mean_service_s(ServerSetting::new(6, 0)) / p.mean_service_s(ServerSetting::new(6, 8))
        };
        assert!(ratio(Application::Memcached) < ratio(Application::SpecJbb));
        assert!(ratio(Application::SpecJbb) <= ratio(Application::WebSearch));
    }

    #[test]
    fn slo_capacity_positive_at_usable_settings() {
        // One corner is legitimately infeasible: SPECjbb's p99 ≤ 500 ms
        // cannot be met with all 12 cores crawling at 1.2 GHz (contention
        // stacked on the slowest clock pushes the service tail past the
        // deadline). Every other (app, setting) pair must be serviceable,
        // and the PMK simply never selects a zero-capacity setting.
        for app in Application::ALL {
            let p = app.profile();
            for s in ServerSetting::all() {
                let cap = p.slo_capacity(s);
                let infeasible_corner =
                    app == Application::SpecJbb && s == ServerSetting::new(12, 0);
                if infeasible_corner {
                    assert_eq!(cap, 0.0, "expected the corner to be infeasible");
                } else {
                    assert!(cap > 0.0, "{} has zero SLO capacity at {s}", p.name);
                }
            }
        }
    }

    #[test]
    fn max_sprint_speedups_match_paper() {
        // Paper abstract: up to 4.8× SPECjbb, 4.1× Web-Search, 4.7×
        // Memcached with sufficient renewable supply.
        let tol = 0.25;
        let s = Application::SpecJbb.profile().max_speedup();
        assert!((s - 4.8).abs() < tol, "SPECjbb speedup {s}");
        let w = Application::WebSearch.profile().max_speedup();
        assert!((w - 4.1).abs() < tol, "Web-Search speedup {w}");
        let m = Application::Memcached.profile().max_speedup();
        assert!((m - 4.7).abs() < tol, "Memcached speedup {m}");
    }

    #[test]
    fn speedups_exceed_raw_capacity_ratio() {
        for app in Application::ALL {
            let p = app.profile();
            let raw = p.raw_capacity(ServerSetting::max_sprint())
                / p.raw_capacity(ServerSetting::normal());
            assert!(
                p.max_speedup() > raw,
                "{}: SLO speedup {} <= raw {raw}",
                p.name,
                p.max_speedup()
            );
        }
    }

    #[test]
    fn empirical_distribution_reshapes_the_analytic_capacity() {
        use crate::dist::EmpiricalDist;
        // A heavy-tailed bimodal shape with the same mean must cost SLO
        // capacity relative to the calibrated log-normal: the analytic
        // plane sees the measured tail, not just its first two moments.
        let base = Application::SpecJbb.profile();
        let mut samples = vec![1.0_f64; 900];
        samples.extend(std::iter::repeat_n(15.0, 100));
        let heavy = base
            .clone()
            .with_empirical_service(EmpiricalDist::from_samples(samples).unwrap());
        let s = ServerSetting::max_sprint();
        // Means agree by construction (the grid is rescaled).
        let grid = heavy.service_grid(s);
        let grid_mean: f64 = grid.iter().sum::<f64>() / grid.len() as f64;
        assert!((grid_mean - heavy.mean_service_s(s)).abs() / grid_mean < 0.02);
        // Capacity drops under the heavier tail.
        assert!(
            heavy.slo_capacity(s) < base.slo_capacity(s) * 0.9,
            "heavy {} vs lognormal {}",
            heavy.slo_capacity(s),
            base.slo_capacity(s)
        );
    }

    #[test]
    fn load_power_matches_measured_peaks() {
        for (app, peak) in [
            (Application::SpecJbb, 155.0),
            (Application::WebSearch, 156.0),
            (Application::Memcached, 146.0),
        ] {
            let p = app.profile();
            assert!((p.load_power_w(ServerSetting::max_sprint()) - peak).abs() < 1e-9);
        }
    }

    #[test]
    fn table2_constants() {
        let p = Application::SpecJbb.profile();
        assert_eq!(p.memory_gb, 10.0);
        assert_eq!(p.metric, "jops");
        assert!((p.slo_deadline_s - 0.5).abs() < 1e-12);
        assert!((p.slo_percentile - 0.99).abs() < 1e-12);
        let m = Application::Memcached.profile();
        assert!((m.slo_deadline_s - 0.010).abs() < 1e-12);
        assert!((m.slo_percentile - 0.95).abs() < 1e-12);
        assert_eq!(Application::WebSearch.to_string(), "Web-Search");
    }
}
