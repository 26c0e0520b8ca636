//! Lumped thermal RC model of the chip → heatsink → ambient path.
//!
//! `C · dT/dt = P_in − (T − T_amb) / R`
//!
//! Steady state sits at `T_amb + P·R`; the exponential time constant is
//! `τ = R·C`. Integrated with the exact per-step solution, so step size
//! does not affect accuracy.

use serde::{Deserialize, Serialize};

/// One thermal node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RcNode {
    /// Thermal resistance to ambient (K/W).
    pub resistance_k_per_w: f64,
    /// Thermal capacitance (J/K).
    pub capacitance_j_per_k: f64,
    /// Ambient temperature (°C).
    pub ambient_c: f64,
    /// Current node temperature (°C).
    temp_c: f64,
}

impl RcNode {
    /// A node starting in equilibrium with ambient.
    pub fn new(resistance_k_per_w: f64, capacitance_j_per_k: f64, ambient_c: f64) -> Self {
        assert!(resistance_k_per_w > 0.0 && capacitance_j_per_k > 0.0);
        RcNode {
            resistance_k_per_w,
            capacitance_j_per_k,
            ambient_c,
            temp_c: ambient_c,
        }
    }

    /// Current temperature (°C).
    pub fn temp_c(&self) -> f64 {
        self.temp_c
    }

    /// Force the temperature (tests / initial conditions).
    pub fn set_temp_c(&mut self, t: f64) {
        self.temp_c = t;
    }

    /// Steady-state temperature under constant `power_w`.
    pub fn steady_state_c(&self, power_w: f64) -> f64 {
        self.ambient_c + power_w * self.resistance_k_per_w
    }

    /// The time constant τ = R·C (seconds).
    pub fn time_constant_s(&self) -> f64 {
        self.resistance_k_per_w * self.capacitance_j_per_k
    }

    /// Heat currently flowing to ambient (W).
    pub fn dissipation_w(&self) -> f64 {
        (self.temp_c - self.ambient_c) / self.resistance_k_per_w
    }

    /// Advance by `dt_s` seconds under constant `power_w`, using the exact
    /// exponential solution. Returns the new temperature.
    pub fn advance(&mut self, power_w: f64, dt_s: f64) -> f64 {
        self.advance_decayed(power_w, self.decay(dt_s))
    }

    /// The factor by which the gap to steady state shrinks over `dt_s`
    /// seconds: `exp(−dt_s / τ)`.
    pub(crate) fn decay(&self, dt_s: f64) -> f64 {
        (-dt_s / self.time_constant_s()).exp()
    }

    /// [`Self::advance`] over the step whose [`Self::decay`] is `decay`,
    /// for callers that take many steps of one length.
    pub(crate) fn advance_decayed(&mut self, power_w: f64, decay: f64) -> f64 {
        let t_ss = self.steady_state_c(power_w);
        self.temp_c = t_ss + (self.temp_c - t_ss) * decay;
        self.temp_c
    }

    /// Time (s) until the node reaches `target_c` under constant
    /// `power_w`; `None` if it never will (steady state below target).
    pub fn time_to_reach_s(&self, power_w: f64, target_c: f64) -> Option<f64> {
        if self.temp_c >= target_c {
            return Some(0.0);
        }
        let t_ss = self.steady_state_c(power_w);
        if t_ss <= target_c {
            return None;
        }
        // target = t_ss + (T0 - t_ss) e^{-t/τ}
        let frac = (target_c - t_ss) / (self.temp_c - t_ss);
        Some(-self.time_constant_s() * frac.ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> RcNode {
        // Calibration: Normal (100 W) settles at 75 °C, max sprint (155 W)
        // would settle at 102.5 °C — far past an 85 °C junction limit.
        RcNode::new(0.5, 240.0, 25.0)
    }

    #[test]
    fn starts_at_ambient_and_approaches_steady_state() {
        let mut n = node();
        assert_eq!(n.temp_c(), 25.0);
        assert_eq!(n.steady_state_c(100.0), 75.0);
        for _ in 0..100 {
            n.advance(100.0, 30.0);
        }
        assert!((n.temp_c() - 75.0).abs() < 0.01);
        assert!((n.dissipation_w() - 100.0).abs() < 0.1);
    }

    #[test]
    fn exact_integration_is_step_size_invariant() {
        let mut coarse = node();
        let mut fine = node();
        coarse.advance(155.0, 100.0);
        for _ in 0..100 {
            fine.advance(155.0, 1.0);
        }
        assert!((coarse.temp_c() - fine.temp_c()).abs() < 1e-9);
    }

    #[test]
    fn time_to_reach_matches_advance() {
        let mut n = node();
        n.advance(100.0, 1e6); // settle at 75 °C
        let t = n.time_to_reach_s(155.0, 85.0).expect("sprint overheats");
        assert!((30.0..120.0).contains(&t), "time to limit {t}s");
        n.advance(155.0, t);
        assert!((n.temp_c() - 85.0).abs() < 0.01);
        // A sustainable power never reaches the limit (fresh node: the one
        // above sits numerically *at* the target already).
        assert_eq!(node().time_to_reach_s(100.0, 85.0), None);
        // Already past the target.
        n.set_temp_c(90.0);
        assert_eq!(n.time_to_reach_s(155.0, 85.0), Some(0.0));
    }

    #[test]
    fn cooling_when_power_drops() {
        let mut n = node();
        n.set_temp_c(85.0);
        n.advance(0.0, 240.0); // two time constants
        assert!(n.temp_c() < 40.0);
        assert!(n.temp_c() > 25.0);
    }
}
