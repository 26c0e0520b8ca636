//! The composed thermal package: chip RC node + PCM buffer + junction
//! limit, with the sprint-headroom query the engine uses.

use crate::pcm::PcmBuffer;
use crate::rc::RcNode;
use gs_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Static thermal parameters of one server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThermalSpec {
    /// Chip→ambient thermal resistance (K/W).
    pub resistance_k_per_w: f64,
    /// Chip+heatsink thermal capacitance (J/K).
    pub capacitance_j_per_k: f64,
    /// Machine-room ambient (°C).
    pub ambient_c: f64,
    /// Junction/package limit that forces a throttle (°C).
    pub limit_c: f64,
}

impl ThermalSpec {
    /// Calibrated to the prototype: Normal full load (≈100 W) settles at
    /// 75 °C, comfortably under the 85 °C limit; max sprint (155 W) would
    /// settle at 102.5 °C, i.e. is unsustainable without buffering — the
    /// dark-silicon premise.
    pub fn paper_server() -> Self {
        ThermalSpec {
            resistance_k_per_w: 0.5,
            capacitance_j_per_k: 240.0,
            ambient_c: 25.0,
            limit_c: 85.0,
        }
    }

    /// Largest power sustainable indefinitely (steady state at the limit).
    pub fn sustainable_power_w(&self) -> f64 {
        (self.limit_c - self.ambient_c) / self.resistance_k_per_w
    }
}

/// One server's live thermal state.
///
/// # Example
///
/// ```
/// use gs_thermal::ThermalPackage;
/// use gs_sim::SimDuration;
///
/// let mut pkg = ThermalPackage::paper_spec();
/// pkg.advance(155.0, SimDuration::from_mins(30)); // full sprint
/// // The PCM clamps the chip near its 80 degC melt point: no throttle.
/// assert!(!pkg.is_throttling());
/// assert!(pkg.pcm_melted_fraction() > 0.0);
/// ```

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThermalPackage {
    spec: ThermalSpec,
    node: RcNode,
    pcm: PcmBuffer,
}

impl ThermalPackage {
    /// Compose a package.
    pub fn new(spec: ThermalSpec, pcm: PcmBuffer) -> Self {
        let node = RcNode::new(
            spec.resistance_k_per_w,
            spec.capacitance_j_per_k,
            spec.ambient_c,
        );
        ThermalPackage { spec, node, pcm }
    }

    /// The paper's assumed configuration: prototype server + wax buffer.
    pub fn paper_spec() -> Self {
        Self::new(ThermalSpec::paper_server(), PcmBuffer::paper_spec())
    }

    /// The same server with no PCM (classic seconds-scale sprinting).
    pub fn without_pcm() -> Self {
        Self::new(ThermalSpec::paper_server(), PcmBuffer::none())
    }

    /// Static parameters.
    pub fn spec(&self) -> &ThermalSpec {
        &self.spec
    }

    /// Current chip temperature (°C).
    pub fn temp_c(&self) -> f64 {
        self.node.temp_c()
    }

    /// Fraction of the PCM melted.
    pub fn pcm_melted_fraction(&self) -> f64 {
        self.pcm.melted_fraction()
    }

    /// True when the junction limit is reached — the server must drop to
    /// Normal mode regardless of available power.
    pub fn is_throttling(&self) -> bool {
        self.node.temp_c() >= self.spec.limit_c - 1e-9
    }

    /// Advance the package by `dt` under constant chip `power_w`.
    ///
    /// While the chip sits at or above the PCM melt point and the buffer
    /// has headroom, heat beyond what the heatsink dissipates at the melt
    /// point flows into the phase change, clamping the chip there. Below
    /// the melt point, spare cooling capacity refreezes the buffer.
    pub fn advance(&mut self, power_w: f64, dt: SimDuration) {
        // Sub-step for the piecewise regimes (1 s is far below τ = 120 s;
        // each sub-step still uses the exact RC solution). Every whole
        // second shares one decay factor.
        let decay_1s = self.node.decay(1.0);
        let mut remaining = dt.as_secs_f64();
        while remaining > 0.0 {
            let step = remaining.min(1.0);
            remaining -= step;
            self.sub_step(power_w, step, decay_1s);
        }
    }

    /// Advance up to `secs` whole seconds under constant chip `power_w`,
    /// stopping at the first second that starts at the junction limit.
    /// Returns that second (`None` if the limit never held). The state is
    /// bit-for-bit what one [`ThermalPackage::advance`] of one second per
    /// elapsed second leaves, checking [`ThermalPackage::is_throttling`]
    /// before each, but the decay factor is computed once.
    pub fn advance_until_limit(&mut self, power_w: f64, secs: u64) -> Option<u64> {
        let decay_1s = self.node.decay(1.0);
        for s in 0..secs {
            if self.is_throttling() {
                return Some(s);
            }
            self.sub_step(power_w, 1.0, decay_1s);
        }
        None
    }

    /// One sub-step of `step` seconds (at most 1); `decay_1s` is the RC
    /// node's decay over one second.
    fn sub_step(&mut self, power_w: f64, step: f64, decay_1s: f64) {
        let melt = self.pcm.melt_temp_c;
        let at_melt_band = self.node.temp_c() >= melt;
        if at_melt_band && !self.pcm.is_spent() {
            // Clamp at the melt point; excess heat melts wax.
            let dissipation = (melt - self.spec.ambient_c) / self.spec.resistance_k_per_w;
            let excess_w = power_w - dissipation;
            if excess_w > 0.0 {
                let absorbed = self.pcm.absorb(excess_w * step);
                let leftover_j = excess_w * step - absorbed;
                self.node
                    .set_temp_c(melt + leftover_j / self.spec.capacitance_j_per_k);
            } else {
                // Power dropped below the melt-point dissipation:
                // refreeze with the spare capacity, temperature holds.
                self.pcm.release(-excess_w * step);
                self.node.set_temp_c(melt);
            }
        } else {
            if step == 1.0 {
                self.node.advance_decayed(power_w, decay_1s);
            } else {
                self.node.advance(power_w, step);
            }
            // Refreeze opportunistically when below the melt point.
            if self.node.temp_c() < melt {
                let spare_w = self.node.dissipation_w() - power_w;
                if spare_w > 0.0 {
                    self.pcm.release(spare_w * step);
                }
            }
        }
    }

    /// How long constant `power_w` can run from the current state before
    /// the junction limit trips (capped at 24 h; `None` means the power is
    /// sustainable for at least that long).
    pub fn sprint_headroom(&self, power_w: f64) -> Option<SimDuration> {
        if power_w <= self.spec.sustainable_power_w() {
            return None;
        }
        let mut probe = self.clone();
        let mut elapsed = 0u64;
        const CAP_S: u64 = 24 * 3_600;
        const STEP_S: u64 = 5;
        while elapsed < CAP_S {
            if probe.is_throttling() {
                return Some(SimDuration::from_secs(elapsed));
            }
            probe.advance(power_w, SimDuration::from_secs(STEP_S));
            elapsed += STEP_S;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustainable_power_matches_calibration() {
        let spec = ThermalSpec::paper_server();
        assert!((spec.sustainable_power_w() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn without_pcm_full_sprint_throttles_in_minutes() {
        let mut pkg = ThermalPackage::without_pcm();
        // Pre-warm at Normal load.
        pkg.advance(100.0, SimDuration::from_mins(30));
        let headroom = pkg.sprint_headroom(155.0).expect("sprint must overheat");
        let mins = headroom.as_secs_f64() / 60.0;
        assert!(mins < 5.0, "headroom {mins:.1} min");
        // Actually driving it there throttles.
        pkg.advance(155.0, SimDuration::from_mins(5));
        assert!(pkg.is_throttling());
    }

    #[test]
    fn paper_pcm_delays_the_limit_by_hours() {
        let mut pkg = ThermalPackage::paper_spec();
        pkg.advance(100.0, SimDuration::from_mins(30));
        let headroom = pkg.sprint_headroom(155.0).expect("eventually overheats");
        let hours = headroom.as_secs_f64() / 3_600.0;
        assert!(hours > 2.0, "headroom only {hours:.2} h");
        // A 60-minute full sprint never throttles — the paper's working
        // assumption for every burst it evaluates.
        pkg.advance(155.0, SimDuration::from_mins(60));
        assert!(!pkg.is_throttling(), "temp {}", pkg.temp_c());
        assert!(pkg.pcm_melted_fraction() > 0.0);
    }

    #[test]
    fn pcm_clamps_temperature_at_melt_point() {
        let mut pkg = ThermalPackage::paper_spec();
        pkg.advance(155.0, SimDuration::from_mins(30));
        assert!((pkg.temp_c() - 80.0).abs() < 0.5, "temp {}", pkg.temp_c());
    }

    #[test]
    fn pcm_refreezes_during_normal_operation() {
        let mut pkg = ThermalPackage::paper_spec();
        pkg.advance(155.0, SimDuration::from_mins(30));
        let melted = pkg.pcm_melted_fraction();
        assert!(melted > 0.0);
        // Cool-down at Normal load refreezes the wax (excess cooling
        // capacity during non-sprinting periods, paper §II).
        pkg.advance(76.0, SimDuration::from_hours(2));
        assert!(pkg.pcm_melted_fraction() < melted);
    }

    #[test]
    fn sustainable_power_never_trips() {
        let mut pkg = ThermalPackage::without_pcm();
        assert!(pkg.sprint_headroom(110.0).is_none());
        pkg.advance(110.0, SimDuration::from_hours(4));
        assert!(!pkg.is_throttling());
    }

    #[test]
    fn advance_until_limit_matches_one_second_advances() {
        for (mut pkg, power) in [
            (ThermalPackage::without_pcm(), 155.0),
            (ThermalPackage::paper_spec(), 155.0),
            (ThermalPackage::paper_spec(), 60.0),
        ] {
            pkg.advance(100.0, SimDuration::from_mins(30));
            for _ in 0..40 {
                let mut want = pkg.clone();
                let mut crossed = None;
                for s in 0..60 {
                    if want.is_throttling() {
                        crossed = Some(s);
                        break;
                    }
                    want.advance(power, SimDuration::from_secs(1));
                }
                assert_eq!(pkg.advance_until_limit(power, 60), crossed);
                assert_eq!(pkg.temp_c().to_bits(), want.temp_c().to_bits());
                assert_eq!(
                    pkg.pcm_melted_fraction().to_bits(),
                    want.pcm_melted_fraction().to_bits()
                );
                if crossed.is_some() {
                    break;
                }
            }
        }
    }

    #[test]
    fn headroom_shrinks_as_pcm_depletes() {
        let mut pkg = ThermalPackage::paper_spec();
        pkg.advance(100.0, SimDuration::from_mins(30));
        let fresh = pkg.sprint_headroom(155.0).unwrap();
        pkg.advance(155.0, SimDuration::from_hours(1));
        let depleted = pkg.sprint_headroom(155.0).unwrap();
        assert!(depleted < fresh);
    }
}
