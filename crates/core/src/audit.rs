//! Runtime invariant auditor: an independent check that the simulated
//! physics stayed sane, epoch by epoch.
//!
//! The engine settles energy flows against batteries and meters; the
//! auditor re-derives the conservation law from the settled per-epoch
//! flows and flags any epoch where the books do not balance, a battery
//! leaves its legal state-of-charge band, the grid draw exceeds the
//! breaker cap, or a power term goes negative. It runs inside the epoch
//! loop (enabled by [`EngineConfig::audit`](crate::engine::EngineConfig),
//! on by default) and accumulates human-readable violation strings into
//! [`BurstOutcome::audit_violations`](crate::engine::BurstOutcome) — a
//! tripwire for physics regressions under PR churn, and a hard failure
//! for `chaos` runs.
//!
//! The auditor is a pure checker over [`EpochFlows`] records, so tests
//! can feed it deliberately corrupted flows and watch it fire without
//! running an engine at all.

/// One epoch's settled physical energy flows, as the engine booked them.
///
/// All energies are in watt-hours over the epoch; state-of-charge entries
/// are fractions of rated capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochFlows {
    /// Which epoch of the window this is (for violation messages).
    pub epoch_index: usize,
    /// Renewable energy the bus physically delivered.
    pub supply_wh: f64,
    /// Energy discharged from the batteries into servers.
    pub battery_discharge_wh: f64,
    /// Energy drawn from the grid (serving + recharge).
    pub grid_wh: f64,
    /// Energy delivered into servers, accumulated source-side at
    /// settlement time.
    pub server_wh: f64,
    /// Energy drawn into battery charging (renewable surplus plus grid
    /// recharge), measured on the drawn side of the charger.
    pub charge_wh: f64,
    /// Renewable energy curtailed.
    pub curtailed_wh: f64,
    /// Per-battery `(soc_fraction, max_dod)` after settlement.
    pub socs: Vec<(f64, f64)>,
    /// Breaker cap on mean grid draw over an epoch (W).
    pub grid_cap_w: f64,
    /// Epoch length in hours (converts the energy terms to mean power).
    pub epoch_hours: f64,
    /// During a guardrail failover epoch: `(rack goodput, required
    /// Normal-floor goodput)`, both in req/s. `None` when the guardrail
    /// is off or the configured strategy is steering. Failover exists to
    /// degrade *to* the Normal floor, never below it — scaled by the live
    /// fleet, because a dead server owes nothing.
    pub failover_floor: Option<(f64, f64)>,
    /// Servers carrying load this epoch (fleet faults shrink this below
    /// the configured rack size).
    pub live_servers: usize,
    /// Energy the settlement attributed to servers that were down this
    /// epoch. Must be zero: a crashed server draws 0 W, not an idle floor.
    pub dead_server_wh: f64,
    /// `(rack goodput, live-capacity ceiling)`, both in req/s: aggregate
    /// goodput can never exceed what the live servers could serve flat-out
    /// at max sprint. `None` when the engine has no capacity model for the
    /// epoch (e.g. DES measurement noise makes the bound advisory).
    pub goodput_capacity: Option<(f64, f64)>,
}

/// One epoch's settled cross-rack routing state, as the datacenter broker
/// booked it. The broker feeds one of these per epoch to
/// [`InvariantAuditor::check_site_epoch`].
#[derive(Debug, Clone, PartialEq)]
pub struct SiteFlows {
    /// Which epoch of the run this is (for violation messages).
    pub epoch_index: usize,
    /// The load factor the broker *computed* for each rack this epoch
    /// (stale applied factors under link delay are counted separately,
    /// not treated as conservation violations).
    pub factors: Vec<f64>,
    /// True for racks that must draw nothing: inside an active rack
    /// blackout, with a fresh (not partition-held) belief.
    pub dark: Vec<bool>,
    /// Each rack's settled power demand this epoch (W).
    pub rack_demand_w: Vec<f64>,
}

/// Relative tolerance for the energy-conservation balance. The settlement
/// arithmetic is exact up to floating-point rounding, so anything beyond
/// parts-per-million is a genuine accounting bug, not noise.
const ENERGY_REL_TOL: f64 = 1e-6;
/// Absolute tolerance on state-of-charge bounds.
const SOC_TOL: f64 = 1e-6;
/// Watts of slack on the breaker cap (absorbs rounding in the Wh→W
/// conversion).
const GRID_CAP_TOL_W: f64 = 1e-6;
/// Negative-energy slack: settlement never produces meaningful negatives,
/// but `a - b` of equal floats can land a hair below zero.
const NEG_TOL_WH: f64 = 1e-9;
/// Watts of slack on a blacked-out rack's settled demand: a dark rack's
/// servers are all crashed, so its draw is exactly zero up to rounding.
const SITE_DARK_TOL_W: f64 = 1e-6;

/// Accumulates invariant violations across a run.
///
/// # Example
///
/// ```
/// use greensprint::audit::{EpochFlows, InvariantAuditor};
///
/// let mut aud = InvariantAuditor::new();
/// aud.check_epoch(&EpochFlows {
///     epoch_index: 0,
///     supply_wh: 10.0,
///     battery_discharge_wh: 2.0,
///     grid_wh: 1.0,
///     server_wh: 9.0,
///     charge_wh: 3.0,
///     curtailed_wh: 1.0,
///     socs: vec![(0.8, 0.4)],
///     grid_cap_w: 500.0,
///     epoch_hours: 1.0 / 60.0,
///     failover_floor: None,
///     live_servers: 3,
///     dead_server_wh: 0.0,
///     goodput_capacity: None,
/// });
/// assert!(aud.violations().is_empty());
/// ```
#[derive(Debug, Default, Clone)]
pub struct InvariantAuditor {
    violations: Vec<String>,
}

impl InvariantAuditor {
    /// A fresh auditor with no violations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild an auditor mid-run from previously recorded violations
    /// (checkpoint resume).
    pub fn with_violations(violations: Vec<String>) -> Self {
        Self { violations }
    }

    /// Check one epoch's settled flows against every invariant,
    /// accumulating a message per violation.
    // The negated comparisons are deliberate: a NaN flow must land in the
    // violation branch, which `<`/`>` would silently pass.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn check_epoch(&mut self, f: &EpochFlows) {
        let k = f.epoch_index;

        // Non-negative energy terms. A negative flow means a meter or the
        // settlement code ran backwards.
        for (name, v) in [
            ("renewable supply", f.supply_wh),
            ("battery discharge", f.battery_discharge_wh),
            ("grid draw", f.grid_wh),
            ("server draw", f.server_wh),
            ("battery charge", f.charge_wh),
            ("curtailment", f.curtailed_wh),
        ] {
            if !(v >= -NEG_TOL_WH) {
                self.violations
                    .push(format!("epoch {k}: negative {name}: {v} Wh"));
            }
        }

        // Energy conservation: everything the sources delivered must land
        // in a server, a battery, or the curtailment bucket.
        let inflow = f.supply_wh + f.battery_discharge_wh + f.grid_wh;
        let outflow = f.server_wh + f.charge_wh + f.curtailed_wh;
        let tol = ENERGY_REL_TOL * inflow.abs().max(outflow.abs()).max(1.0);
        if !((inflow - outflow).abs() <= tol) {
            self.violations.push(format!(
                "epoch {k}: energy imbalance: inflow {inflow:.9} Wh \
                 (supply {:.9} + battery {:.9} + grid {:.9}) != outflow {outflow:.9} Wh \
                 (servers {:.9} + charge {:.9} + curtailed {:.9})",
                f.supply_wh,
                f.battery_discharge_wh,
                f.grid_wh,
                f.server_wh,
                f.charge_wh,
                f.curtailed_wh,
            ));
        }

        // State of charge stays inside [reserve, full]: the DoD cap is the
        // discharge floor and a charger cannot overfill the plates.
        for (i, &(soc, max_dod)) in f.socs.iter().enumerate() {
            let reserve = 1.0 - max_dod;
            if !(soc >= reserve - SOC_TOL && soc <= 1.0 + SOC_TOL) {
                self.violations.push(format!(
                    "epoch {k}: battery {i} SoC {soc} outside [{reserve}, 1]"
                ));
            }
        }

        // Breaker cap: mean grid draw over the epoch never exceeds every
        // server at Normal mode plus every charger at its C-rate limit.
        if f.epoch_hours > 0.0 {
            let grid_w = f.grid_wh / f.epoch_hours;
            if !(grid_w <= f.grid_cap_w + GRID_CAP_TOL_W) {
                self.violations.push(format!(
                    "epoch {k}: grid draw {grid_w:.6} W exceeds breaker cap {:.6} W",
                    f.grid_cap_w
                ));
            }
        }

        // Guardrail failover floor: a demoted epoch whose goodput lands
        // under the Normal floor means the ladder made things worse than
        // never sprinting at all.
        if let Some((goodput, floor)) = f.failover_floor {
            if !(goodput >= floor) {
                self.violations.push(format!(
                    "epoch {k}: failover goodput {goodput:.6} req/s \
                     below Normal floor {floor:.6} req/s"
                ));
            }
        }

        // Dead servers draw nothing: any energy settled against a downed
        // server means the fleet bookkeeping and the power settlement
        // disagree about who was alive.
        if !(f.dead_server_wh.abs() <= NEG_TOL_WH) {
            self.violations.push(format!(
                "epoch {k}: {:.9} Wh attributed to dead servers \
                 ({} live)",
                f.dead_server_wh, f.live_servers
            ));
        }

        // Live-capacity ceiling: the rack cannot serve more goodput than
        // its live servers could at max sprint, no matter what the
        // redistribution arithmetic claims.
        if let Some((goodput, ceiling)) = f.goodput_capacity {
            let tol = ENERGY_REL_TOL * ceiling.abs().max(1.0);
            if !(goodput <= ceiling + tol) {
                self.violations.push(format!(
                    "epoch {k}: goodput {goodput:.6} req/s exceeds \
                     live-capacity ceiling {ceiling:.6} req/s \
                     ({} live server(s))",
                    f.live_servers
                ));
            }
        }
    }

    /// Check one epoch's site-level routing state from the datacenter
    /// broker: routed load is conserved across the fleet, every factor is a
    /// finite non-negative scale, and a blacked-out rack draws no power.
    // Negated comparisons again so NaN factors land in the violation branch.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn check_site_epoch(&mut self, f: &SiteFlows) {
        let k = f.epoch_index;
        let n = f.factors.len();

        let mut sum = 0.0;
        for (r, &factor) in f.factors.iter().enumerate() {
            if !(factor.is_finite() && factor >= -ENERGY_REL_TOL) {
                self.violations.push(format!(
                    "epoch {k}: rack {r} routed factor {factor} is not a \
                     finite non-negative scale"
                ));
            }
            sum += factor;
        }

        // Conservation of routed load: scaling one rack up must have come
        // out of another rack's share. The broker hands out exactly the
        // fleet's nominal demand, N rack-units, every epoch.
        let expected = n as f64;
        let tol = ENERGY_REL_TOL * expected.max(1.0);
        if !((sum - expected).abs() <= tol) {
            self.violations.push(format!(
                "epoch {k}: routed load not conserved: factors sum to \
                 {sum:.9} across {n} rack(s), expected {expected:.9}"
            ));
        }

        // A blacked-out rack has no inverter output and no live servers:
        // any settled demand against it means the site bookkeeping and the
        // rack settlement disagree.
        for (r, (&dark, &demand_w)) in f.dark.iter().zip(f.rack_demand_w.iter()).enumerate() {
            if dark && !(demand_w.abs() <= SITE_DARK_TOL_W) {
                self.violations.push(format!(
                    "epoch {k}: blacked-out rack {r} drew {demand_w:.9} W"
                ));
            }
        }
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Consume the auditor, yielding its violations.
    pub fn into_violations(self) -> Vec<String> {
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced() -> EpochFlows {
        EpochFlows {
            epoch_index: 3,
            supply_wh: 12.0,
            battery_discharge_wh: 4.0,
            grid_wh: 6.0,
            server_wh: 15.0,
            charge_wh: 5.0,
            curtailed_wh: 2.0,
            socs: vec![(0.85, 0.40), (0.61, 0.40)],
            grid_cap_w: 1_000.0,
            epoch_hours: 1.0 / 60.0,
            failover_floor: None,
            live_servers: 2,
            dead_server_wh: 0.0,
            goodput_capacity: None,
        }
    }

    #[test]
    fn clean_flows_pass() {
        let mut aud = InvariantAuditor::new();
        for _ in 0..10 {
            aud.check_epoch(&balanced());
        }
        assert!(aud.violations().is_empty(), "{:?}", aud.violations());
    }

    #[test]
    fn rounding_noise_is_tolerated() {
        let mut aud = InvariantAuditor::new();
        let mut f = balanced();
        f.server_wh += 1e-9;
        aud.check_epoch(&f);
        // A term a hair below zero from float cancellation is noise, not a
        // violation (books kept balanced: the 2 Wh move to the servers).
        let mut f = balanced();
        f.curtailed_wh = -1e-12;
        f.server_wh += 2.0;
        aud.check_epoch(&f);
        assert!(aud.violations().is_empty(), "{:?}", aud.violations());
    }

    #[test]
    fn energy_imbalance_fires() {
        let mut aud = InvariantAuditor::new();
        let mut f = balanced();
        // A watt-hour vanishes into thin air.
        f.server_wh -= 1.0;
        aud.check_epoch(&f);
        assert_eq!(aud.violations().len(), 1, "{:?}", aud.violations());
        assert!(aud.violations()[0].contains("energy imbalance"));
        assert!(aud.violations()[0].contains("epoch 3"));
    }

    #[test]
    fn soc_bounds_fire_on_both_sides() {
        let mut aud = InvariantAuditor::new();
        let mut f = balanced();
        f.socs = vec![(0.55, 0.40), (1.02, 0.40), (0.61, 0.40)];
        aud.check_epoch(&f);
        let v = aud.into_violations();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("battery 0 SoC"), "{v:?}");
        assert!(v[1].contains("battery 1 SoC"), "{v:?}");
    }

    #[test]
    fn grid_cap_fires() {
        let mut aud = InvariantAuditor::new();
        let mut f = balanced();
        // Rebalance so only the breaker cap trips: bump grid inflow and
        // sink it into servers.
        f.grid_wh += 100.0;
        f.server_wh += 100.0;
        f.grid_cap_w = 500.0;
        aud.check_epoch(&f);
        let v = aud.into_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("breaker cap"), "{v:?}");
    }

    #[test]
    fn negative_terms_fire() {
        let mut aud = InvariantAuditor::new();
        let mut f = balanced();
        f.battery_discharge_wh = -4.0;
        f.server_wh -= 8.0; // keep the books balanced; only the sign check trips
        aud.check_epoch(&f);
        let v = aud.into_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("negative battery discharge"), "{v:?}");
    }

    #[test]
    fn failover_floor_fires_only_when_goodput_falls_below_it() {
        let mut aud = InvariantAuditor::new();
        let mut f = balanced();
        f.failover_floor = Some((900.0, 1_000.0));
        aud.check_epoch(&f);
        let v = aud.into_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("failover goodput"), "{v:?}");

        let mut aud = InvariantAuditor::new();
        let mut f = balanced();
        f.failover_floor = Some((1_000.0, 1_000.0));
        aud.check_epoch(&f);
        f.failover_floor = None;
        aud.check_epoch(&f);
        assert!(aud.violations().is_empty(), "{:?}", aud.violations());

        // NaN goodput during failover is a violation, not a pass.
        let mut aud = InvariantAuditor::new();
        let mut f = balanced();
        f.failover_floor = Some((f64::NAN, 1_000.0));
        aud.check_epoch(&f);
        assert_eq!(aud.violations().len(), 1);
    }

    #[test]
    fn dead_server_energy_fires() {
        let mut aud = InvariantAuditor::new();
        let mut f = balanced();
        f.live_servers = 1;
        f.dead_server_wh = 0.25;
        aud.check_epoch(&f);
        let v = aud.into_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("attributed to dead servers"), "{v:?}");

        // Float-cancellation dust and NaN behave as for the other terms.
        let mut aud = InvariantAuditor::new();
        let mut f = balanced();
        f.dead_server_wh = 1e-12;
        aud.check_epoch(&f);
        assert!(aud.violations().is_empty(), "{:?}", aud.violations());
        let mut aud = InvariantAuditor::new();
        let mut f = balanced();
        f.dead_server_wh = f64::NAN;
        aud.check_epoch(&f);
        assert_eq!(aud.violations().len(), 1);
    }

    #[test]
    fn goodput_capacity_ceiling_fires_only_when_exceeded() {
        let mut aud = InvariantAuditor::new();
        let mut f = balanced();
        f.live_servers = 1;
        f.goodput_capacity = Some((1_500.0, 1_000.0));
        aud.check_epoch(&f);
        let v = aud.into_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("live-capacity ceiling"), "{v:?}");

        let mut aud = InvariantAuditor::new();
        let mut f = balanced();
        f.goodput_capacity = Some((1_000.0, 1_000.0));
        aud.check_epoch(&f);
        f.goodput_capacity = None;
        aud.check_epoch(&f);
        assert!(aud.violations().is_empty(), "{:?}", aud.violations());

        // NaN goodput cannot sneak under the ceiling.
        let mut aud = InvariantAuditor::new();
        let mut f = balanced();
        f.goodput_capacity = Some((f64::NAN, 1_000.0));
        aud.check_epoch(&f);
        assert_eq!(aud.violations().len(), 1);
    }

    fn site_balanced() -> SiteFlows {
        SiteFlows {
            epoch_index: 7,
            factors: vec![1.2, 0.8, 1.0],
            dark: vec![false, false, false],
            rack_demand_w: vec![900.0, 650.0, 780.0],
        }
    }

    #[test]
    fn clean_site_flows_pass() {
        let mut aud = InvariantAuditor::new();
        for _ in 0..10 {
            aud.check_site_epoch(&site_balanced());
        }
        assert!(aud.violations().is_empty(), "{:?}", aud.violations());
    }

    #[test]
    fn unconserved_routed_load_fires() {
        let mut aud = InvariantAuditor::new();
        let mut f = site_balanced();
        // A tenth of a rack-unit of load vanishes in routing.
        f.factors[1] = 0.7;
        aud.check_site_epoch(&f);
        let v = aud.into_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("routed load not conserved"), "{v:?}");
    }

    #[test]
    fn degenerate_site_factors_fire() {
        // Negative factor: fails the per-factor check AND throws the sum
        // off, so two violations land.
        let mut aud = InvariantAuditor::new();
        let mut f = site_balanced();
        f.factors[0] = -0.5;
        aud.check_site_epoch(&f);
        assert_eq!(aud.violations().len(), 2, "{:?}", aud.violations());

        // NaN factor poisons the per-factor check and the sum.
        let mut aud = InvariantAuditor::new();
        let mut f = site_balanced();
        f.factors[2] = f64::NAN;
        aud.check_site_epoch(&f);
        assert_eq!(aud.violations().len(), 2, "{:?}", aud.violations());
    }

    #[test]
    fn dark_rack_drawing_power_fires() {
        let mut aud = InvariantAuditor::new();
        let mut f = site_balanced();
        f.dark[1] = true;
        f.factors = vec![1.5, 0.0, 1.5];
        f.rack_demand_w[1] = 0.0;
        aud.check_site_epoch(&f);
        assert!(aud.violations().is_empty(), "{:?}", aud.violations());

        // Same shape but the dark rack's meter shows real watts.
        f.rack_demand_w[1] = 120.0;
        aud.check_site_epoch(&f);
        let v = aud.into_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("blacked-out rack 1 drew"), "{v:?}");
    }

    #[test]
    fn nan_flows_are_violations_not_passes() {
        // NaN comparisons are false both ways; the checks are written so a
        // NaN lands in the violation branch.
        let mut aud = InvariantAuditor::new();
        let mut f = balanced();
        f.server_wh = f64::NAN;
        aud.check_epoch(&f);
        assert!(
            aud.violations()
                .iter()
                .any(|v| v.contains("energy imbalance")),
            "{:?}",
            aud.violations()
        );
    }
}
