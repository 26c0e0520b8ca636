//! The Predictor (paper Fig. 3 / Eq. 1).
//!
//! Two EWMA filters with the paper's α = 0.3: one over the observed
//! renewable power production, one over the observed workload intensity.
//! "Most solar prediction algorithms are accurate when weather conditions
//! are stable" — the EWMA leans toward the most recent observation.

use gs_power::solar::WeatherModel;
use gs_sim::{Ewma, SimTime};
use serde::{Deserialize, Serialize};

/// Per stale epoch, [`Predictor::re_supply_conservative`] widens its
/// pessimism by this factor — matching the PSS safe-mode decay so both
/// layers degrade in step.
pub const STALENESS_DECAY: f64 = 0.8;

/// EWMA predictor for renewable supply and workload intensity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Predictor {
    re_supply: Ewma,
    workload: Ewma,
    /// Consecutive epochs the supply signal has been stale (no verified
    /// observation fed).
    stale_epochs: u32,
}

impl Default for Predictor {
    fn default() -> Self {
        Self::new()
    }
}

impl Predictor {
    /// A predictor with the paper's α = 0.3 on both signals.
    pub fn new() -> Self {
        Predictor {
            re_supply: Ewma::paper_default(),
            workload: Ewma::paper_default(),
            stale_epochs: 0,
        }
    }

    /// A predictor with a custom α (ablation experiments).
    pub fn with_alpha(alpha: f64) -> Self {
        Predictor {
            re_supply: Ewma::new(alpha),
            workload: Ewma::new(alpha),
            stale_epochs: 0,
        }
    }

    /// Feed the epoch's observed renewable production (W); returns the
    /// prediction for the next epoch. A verified observation ends any
    /// staleness streak.
    pub fn observe_re_supply(&mut self, watts: f64) -> f64 {
        self.stale_epochs = 0;
        self.re_supply.observe(watts)
    }

    /// Note an epoch with no verified supply observation: the EWMA holds
    /// its last-good state, and conservative predictions widen.
    pub fn mark_re_stale(&mut self) {
        self.stale_epochs = self.stale_epochs.saturating_add(1);
    }

    /// Consecutive epochs the supply signal has been stale.
    pub fn re_stale_epochs(&self) -> u32 {
        self.stale_epochs
    }

    /// Feed the epoch's observed workload intensity (req/s); returns the
    /// prediction for the next epoch.
    pub fn observe_workload(&mut self, rps: f64) -> f64 {
        self.workload.observe(rps)
    }

    /// Predicted renewable supply for the next epoch (`fallback` before
    /// any observation).
    pub fn re_supply_w(&self, fallback: f64) -> f64 {
        self.re_supply.prediction_or(fallback)
    }

    /// The staleness-widened supply prediction: the last-good EWMA value
    /// discounted by [`STALENESS_DECAY`] per epoch without a verified
    /// observation. Equals [`Predictor::re_supply_w`] when fresh.
    pub fn re_supply_conservative(&self, fallback: f64) -> f64 {
        self.re_supply_w(fallback) * STALENESS_DECAY.powi(self.stale_epochs as i32)
    }

    /// Predicted workload intensity for the next epoch.
    pub fn workload_rps(&self, fallback: f64) -> f64 {
        self.workload.prediction_or(fallback)
    }
}

/// A clear-sky-indexed solar predictor — the standard upgrade over a raw
/// EWMA in solar forecasting, and an extension beyond the paper.
///
/// Raw EWMA lags the deterministic part of the signal: at dawn and dusk
/// the sun ramps predictably, yet the filter only sees "yesterday's
/// value". Indexing fixes that: smooth the *clear-sky index*
/// `observed / clear_sky(t)` (the stochastic cloud attenuation) and
/// multiply the smoothed index back onto the known clear-sky curve at the
/// prediction time. Under stable weather the index is nearly constant, so
/// the ramp is predicted almost exactly — the regime the paper notes
/// "most solar prediction algorithms are accurate" in.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClearSkyIndexedPredictor {
    index: Ewma,
    sky: WeatherModel,
    /// Peak AC watts the clear-sky curve scales to.
    peak_w: f64,
}

impl ClearSkyIndexedPredictor {
    /// A predictor for an array with the given peak AC output, using the
    /// paper's α = 0.3 on the cloud index.
    pub fn new(peak_w: f64) -> Self {
        ClearSkyIndexedPredictor {
            index: Ewma::paper_default(),
            sky: WeatherModel::default(),
            peak_w,
        }
    }

    fn clear_sky_w(&self, t: SimTime) -> f64 {
        self.peak_w * self.sky.clear_sky(t.hour_of_day())
    }

    /// Feed the production observed over the epoch that *ended* at `t`.
    pub fn observe(&mut self, t: SimTime, watts: f64) {
        let cs = self.clear_sky_w(t);
        if cs > 1.0 {
            self.index.observe((watts / cs).clamp(0.0, 1.2));
        }
        // At night there is no index information; keep the last estimate.
    }

    /// Predicted production (W) for the epoch starting at `t`.
    pub fn predict_w(&self, t: SimTime) -> f64 {
        self.clear_sky_w(t) * self.index.prediction_or(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_constant_signals_exactly() {
        let mut p = Predictor::new();
        for _ in 0..20 {
            p.observe_re_supply(400.0);
            p.observe_workload(50.0);
        }
        assert!((p.re_supply_w(0.0) - 400.0).abs() < 1e-6);
        assert!((p.workload_rps(0.0) - 50.0).abs() < 1e-6);
    }

    #[test]
    fn fallbacks_before_observations() {
        let p = Predictor::new();
        assert_eq!(p.re_supply_w(123.0), 123.0);
        assert_eq!(p.workload_rps(7.0), 7.0);
    }

    #[test]
    fn reacts_quickly_with_paper_alpha() {
        // α = 0.3 weights the new observation at 0.7: a supply collapse is
        // mostly reflected after a single epoch.
        let mut p = Predictor::new();
        p.observe_re_supply(600.0);
        let after = p.observe_re_supply(0.0);
        assert!(after < 600.0 * 0.35, "after={after}");
    }

    #[test]
    fn custom_alpha_smooths_more() {
        let mut fast = Predictor::new();
        let mut slow = Predictor::with_alpha(0.9);
        fast.observe_re_supply(600.0);
        slow.observe_re_supply(600.0);
        fast.observe_re_supply(0.0);
        slow.observe_re_supply(0.0);
        assert!(slow.re_supply_w(0.0) > fast.re_supply_w(0.0));
    }

    #[test]
    fn clear_sky_indexing_beats_raw_ewma_on_the_ramp() {
        use gs_power::solar::{PvArray, SolarTrace};
        // A clear day: the raw EWMA lags the morning ramp, the indexed
        // predictor rides it.
        let trace = SolarTrace::clear_days(1, &WeatherModel::default());
        let pv = PvArray::paper_spec(3);
        let mut raw = Predictor::new();
        let mut indexed = ClearSkyIndexedPredictor::new(pv.peak_ac_watts());
        let (mut err_raw, mut err_idx) = (0.0, 0.0);
        for minute in 6 * 60..12 * 60 {
            let t = SimTime::from_mins(minute);
            let actual = pv.output_at(&trace, t);
            err_raw += (raw.re_supply_w(actual) - actual).abs();
            err_idx += (indexed.predict_w(t) - actual).abs();
            raw.observe_re_supply(actual);
            indexed.observe(t, actual);
        }
        assert!(
            err_idx < err_raw * 0.25,
            "indexed {err_idx:.0} vs raw {err_raw:.0}"
        );
    }

    #[test]
    fn indexed_predictor_tracks_attenuation_not_level() {
        let mut p = ClearSkyIndexedPredictor::new(635.25);
        // Observe 50 % attenuation mid-morning.
        for minute in 0..60 {
            let t = SimTime::from_mins(9 * 60 + minute);
            let cs = 635.25 * WeatherModel::default().clear_sky(t.hour_of_day());
            p.observe(t, 0.5 * cs);
        }
        // The noon prediction applies the learned 50 % to the noon curve.
        let noon = SimTime::from_hours(12);
        assert!((p.predict_w(noon) - 0.5 * 635.25).abs() < 635.25 * 0.02);
        // And predicts darkness at night.
        assert!(p.predict_w(SimTime::from_hours(2)) < 1.0);
    }

    #[test]
    fn signals_are_independent() {
        let mut p = Predictor::new();
        p.observe_re_supply(100.0);
        assert_eq!(p.workload_rps(0.0), 0.0);
    }

    #[test]
    fn staleness_widens_conservatism_and_holds_last_good() {
        let mut p = Predictor::new();
        for _ in 0..20 {
            p.observe_re_supply(400.0);
        }
        p.mark_re_stale();
        p.mark_re_stale();
        assert_eq!(p.re_stale_epochs(), 2);
        // The raw EWMA holds its last-good value...
        assert!((p.re_supply_w(0.0) - 400.0).abs() < 1e-6);
        // ...while the conservative view decays per stale epoch.
        let want = 400.0 * STALENESS_DECAY * STALENESS_DECAY;
        assert!((p.re_supply_conservative(0.0) - want).abs() < 1e-6);
        // A verified observation clears the streak.
        p.observe_re_supply(400.0);
        assert_eq!(p.re_stale_epochs(), 0);
        assert!((p.re_supply_conservative(0.0) - 400.0).abs() < 1e-6);
    }
}
