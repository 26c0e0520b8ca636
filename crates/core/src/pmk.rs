//! The Power Management Knob (PMK) strategies (paper §III-B).
//!
//! Given the epoch's predicted workload and the power the PSS can supply,
//! each strategy picks a sprint setting `S_j` per server:
//!
//! * **Normal** — never sprint (the evaluation's baseline).
//! * **Greedy** — "simply activate all cores and set the highest
//!   frequency"; needs the full sprint power *now*, otherwise it falls
//!   back to Normal. No prediction, no pacing of the battery.
//! * **Parallel** — scales only the core count (frequency pinned at max),
//!   budgeting the battery over a planning horizon so discharge can last.
//! * **Pacing** — scales only the frequency (all 12 cores active), same
//!   horizon-budgeted battery use.
//! * **Hybrid** — Q-learning over the full 2-D setting space
//!   (see [`crate::qlearning`]), masked to currently-feasible settings.
//!
//! Every strategy keeps Normal mode as a fallback: "when the power source
//! can no longer sustain the power demand, we finish sprinting by
//! deactivating the additional active cores and setting the frequency to
//! the lowest level."

use crate::profiler::ProfileTable;
use crate::qlearning::QLearner;
use gs_cluster::ServerSetting;
use gs_sim::SimRng;
use serde::{Deserialize, Serialize};

/// The five evaluated strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Baseline: 6 cores at 1.2 GHz, grid powered.
    Normal,
    /// Maximum sprint whenever instantaneously affordable.
    Greedy,
    /// Core-count scaling only.
    Parallel,
    /// Frequency scaling only.
    Pacing,
    /// Reinforcement-learned combination of both knobs.
    Hybrid,
}

impl Strategy {
    /// The four sprinting strategies compared in Figs. 6–10 (everything
    /// but the Normal baseline).
    pub const SPRINTING: [Strategy; 4] = [
        Strategy::Greedy,
        Strategy::Parallel,
        Strategy::Pacing,
        Strategy::Hybrid,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Normal => "Normal",
            Strategy::Greedy => "Greedy",
            Strategy::Parallel => "Parallel",
            Strategy::Pacing => "Pacing",
            Strategy::Hybrid => "Hybrid",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-epoch, per-server decision inputs.
#[derive(Debug, Clone, Copy)]
pub struct PmkContext {
    /// Predicted offered load for the next epoch (req/s).
    pub predicted_load_rps: f64,
    /// This server's share of the predicted renewable supply (W).
    pub re_share_w: f64,
    /// Battery power available *right now* (W) — the instantaneous
    /// discharge limit Greedy and the Hybrid feasibility mask use.
    pub battery_instant_w: f64,
    /// Battery power sustainable over the planning horizon (W) — what the
    /// pacing strategies budget with.
    pub battery_sustained_w: f64,
}

impl PmkContext {
    /// Instantaneously available sprint power (W).
    pub fn instant_budget_w(&self) -> f64 {
        self.re_share_w + self.battery_instant_w
    }

    /// Horizon-sustainable sprint power (W).
    pub fn sustained_budget_w(&self) -> f64 {
        self.re_share_w + self.battery_sustained_w
    }
}

/// The PMK decision engine for one application.
#[derive(Debug)]
pub struct Pmk {
    strategy: Strategy,
    /// Switching hysteresis: keep the incumbent setting when its expected
    /// performance is within this fraction of the newly chosen one's
    /// (0 disables). Counters the knob churn the paper warns small
    /// quantization steps cause ("frequent changes in configuration for
    /// small changes in workload intensity and power supply", §III-B);
    /// core on/off and P-state transitions are not free on real machines.
    pub hysteresis: f64,
    /// Parallel's action slice (cores at max frequency) plus Normal.
    parallel_actions: Vec<ServerSetting>,
    /// Pacing's action slice (max cores, frequencies) plus Normal.
    pacing_actions: Vec<ServerSetting>,
    /// The full 2-D space for Hybrid.
    all_actions: Vec<ServerSetting>,
    /// Hybrid's learner (present only for [`Strategy::Hybrid`]).
    learner: Option<QLearner>,
    /// Reusable buffer for Hybrid's per-decision feasible-action filter,
    /// so `choose` allocates nothing on the epoch loop's hot path.
    feasible_buf: Vec<ServerSetting>,
}

impl Pmk {
    /// Build a PMK for a strategy; Hybrid gets a profile-bootstrapped
    /// learner.
    pub fn new(strategy: Strategy, profiles: &ProfileTable) -> Self {
        let mut parallel_actions = ServerSetting::parallel_axis();
        parallel_actions.push(ServerSetting::normal());
        let mut pacing_actions = ServerSetting::pacing_axis();
        pacing_actions.push(ServerSetting::normal());
        // When `profiles` is a process-wide cached table this clones the
        // matching cached bootstrap instead of re-running the 21×21×63
        // sweep — the bootstrap is a pure function of the table, so this
        // changes nothing but wall-clock.
        let learner =
            (strategy == Strategy::Hybrid).then(|| QLearner::bootstrapped(profiles).into_owned());
        Pmk {
            strategy,
            hysteresis: 0.0,
            parallel_actions,
            pacing_actions,
            all_actions: ServerSetting::all(),
            learner,
            feasible_buf: Vec::new(),
        }
    }

    /// Decide whether to keep the incumbent setting instead of switching
    /// to `chosen`: the incumbent survives if it is still affordable and
    /// performs within the hysteresis band of the new choice.
    pub fn apply_hysteresis(
        &self,
        profiles: &ProfileTable,
        ctx: &PmkContext,
        incumbent: ServerSetting,
        chosen: ServerSetting,
    ) -> ServerSetting {
        if self.hysteresis <= 0.0 || incumbent == chosen {
            return chosen;
        }
        let affordable = incumbent == ServerSetting::normal()
            || profiles.planned_power_w(incumbent, ctx.predicted_load_rps)
                <= ctx.instant_budget_w();
        if !affordable {
            return chosen;
        }
        let perf_incumbent = profiles.expected_perf(incumbent, ctx.predicted_load_rps);
        let perf_chosen = profiles.expected_perf(chosen, ctx.predicted_load_rps);
        if perf_incumbent >= perf_chosen * (1.0 - self.hysteresis) {
            incumbent
        } else {
            chosen
        }
    }

    /// The strategy this PMK runs.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Hybrid's learner, if this PMK carries one.
    pub(crate) fn learner(&self) -> Option<&QLearner> {
        self.learner.as_ref()
    }

    /// Mutable access to Hybrid's learner for online updates.
    pub fn learner_mut(&mut self) -> Option<&mut QLearner> {
        self.learner.as_mut()
    }

    /// True when this PMK carries no learner — its decisions are then a
    /// pure function of `(profiles, ctx, incumbent)` and consume no
    /// randomness, which is what makes per-epoch decision memoization
    /// sound (see `FleetState::decision_memo`).
    pub fn is_learner_free(&self) -> bool {
        self.learner.is_none()
    }

    /// Choose the sprint setting for one server this epoch.
    pub fn choose(
        &mut self,
        profiles: &ProfileTable,
        ctx: &PmkContext,
        rng: &mut SimRng,
    ) -> ServerSetting {
        match self.strategy {
            Strategy::Normal => ServerSetting::normal(),
            Strategy::Greedy => {
                let max = ServerSetting::max_sprint();
                let need = profiles.planned_power_w(max, ctx.predicted_load_rps);
                if need <= ctx.instant_budget_w() {
                    max
                } else {
                    ServerSetting::normal()
                }
            }
            Strategy::Parallel => self.budgeted(profiles, &self.parallel_actions, ctx),
            Strategy::Pacing => self.budgeted(profiles, &self.pacing_actions, ctx),
            Strategy::Hybrid => {
                let learner = self.learner.as_ref().expect("hybrid has a learner");
                self.feasible_buf.clear();
                self.feasible_buf
                    .extend(self.all_actions.iter().copied().filter(|&s| {
                        s == ServerSetting::normal()
                            || profiles.planned_power_w(s, ctx.predicted_load_rps)
                                <= ctx.instant_budget_w()
                    }));
                let state = learner.state(ctx.instant_budget_w(), ctx.predicted_load_rps);
                learner.best_action(state, &self.feasible_buf, rng)
            }
        }
    }

    /// Parallel/Pacing: the best setting on the axis whose planned power
    /// fits the horizon-sustainable budget (ties go to lower power).
    fn budgeted(
        &self,
        profiles: &ProfileTable,
        actions: &[ServerSetting],
        ctx: &PmkContext,
    ) -> ServerSetting {
        profiles
            .best_within_budget(actions, ctx.predicted_load_rps, ctx.sustained_budget_w())
            .unwrap_or_else(ServerSetting::normal)
    }
}

/// Default number of consecutive commanded-vs-observed mismatches before
/// the watchdog clamps a server to Normal (and matches before it releases
/// the clamp). Configurable per run via `EngineConfig::watchdog_threshold`.
pub const WATCHDOG_THRESHOLD: u32 = 3;

/// Commanded-vs-observed actuation watchdog.
///
/// Real DVFS knobs fail: commands get lost, sysfs writes stick, core
/// hot-plug times out. A controller that keeps planning sprints for a
/// server that is not actually obeying burns battery against phantom
/// performance. The watchdog compares what the PMK commanded against what
/// the control plane reports applied; after `threshold` consecutive
/// mismatches on a server (default [`WATCHDOG_THRESHOLD`]) it clamps that
/// server's commands to Normal — the one setting that requires no
/// actuation — until the same number of consecutive clean matches shows
/// the knob is back.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActuationWatchdog {
    mismatch_streak: Vec<u32>,
    match_streak: Vec<u32>,
    clamped: Vec<bool>,
    /// Streak length that trips (and releases) the clamp. Serialized with
    /// the watchdog; checkpoints from before the field existed are
    /// already rejected by the config fingerprint.
    threshold: u32,
}

impl ActuationWatchdog {
    /// A watchdog for `n` servers, all trusted, with the default
    /// [`WATCHDOG_THRESHOLD`].
    pub fn new(n: usize) -> Self {
        Self::with_threshold(n, WATCHDOG_THRESHOLD)
    }

    /// A watchdog for `n` servers with a custom mismatch threshold
    /// (clamped to ≥ 1; a zero threshold would clamp healthy servers).
    pub fn with_threshold(n: usize, threshold: u32) -> Self {
        ActuationWatchdog {
            mismatch_streak: vec![0; n],
            match_streak: vec![0; n],
            clamped: vec![false; n],
            threshold: threshold.max(1),
        }
    }

    /// The configured mismatch threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Whether every per-server vector has exactly `n` entries.
    pub(crate) fn tracks(&self, n: usize) -> bool {
        [
            self.mismatch_streak.len(),
            self.match_streak.len(),
            self.clamped.len(),
        ] == [n; 3]
    }

    /// Report one epoch's commanded and observed settings for server `i`.
    pub fn observe(&mut self, i: usize, commanded: ServerSetting, applied: ServerSetting) {
        if commanded == applied {
            self.mismatch_streak[i] = 0;
            self.match_streak[i] += 1;
            if self.clamped[i] && self.match_streak[i] >= self.threshold {
                self.clamped[i] = false;
            }
        } else {
            self.match_streak[i] = 0;
            self.mismatch_streak[i] += 1;
            if self.mismatch_streak[i] >= self.threshold {
                self.clamped[i] = true;
            }
        }
    }

    /// Forget everything known about server `i` — streaks and clamp. A
    /// crashed server reboots with fresh knobs; holding a clamp (or a
    /// half-built streak) against the replacement would punish hardware
    /// that no longer exists.
    pub fn reset(&mut self, i: usize) {
        self.mismatch_streak[i] = 0;
        self.match_streak[i] = 0;
        self.clamped[i] = false;
    }

    /// True while server `i`'s commands are clamped to Normal.
    pub fn is_clamped(&self, i: usize) -> bool {
        self.clamped[i]
    }

    /// How many servers are currently clamped.
    pub fn clamped_count(&self) -> usize {
        self.clamped.iter().filter(|&&c| c).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_workload::apps::Application;

    fn profiles() -> ProfileTable {
        ProfileTable::build(&Application::SpecJbb.profile())
    }

    fn ctx(re: f64, instant: f64, sustained: f64) -> PmkContext {
        PmkContext {
            predicted_load_rps: 1e9, // saturating burst
            re_share_w: re,
            battery_instant_w: instant,
            battery_sustained_w: sustained,
        }
    }

    #[test]
    fn normal_never_sprints() {
        let p = profiles();
        let mut pmk = Pmk::new(Strategy::Normal, &p);
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(
            pmk.choose(&p, &ctx(1e9, 1e9, 1e9), &mut rng),
            ServerSetting::normal()
        );
    }

    #[test]
    fn greedy_is_all_or_nothing() {
        let p = profiles();
        let mut pmk = Pmk::new(Strategy::Greedy, &p);
        let mut rng = SimRng::seed_from_u64(2);
        // Plenty of instantaneous power: max sprint.
        assert_eq!(
            pmk.choose(&p, &ctx(211.75, 0.0, 0.0), &mut rng),
            ServerSetting::max_sprint()
        );
        // 120 W would allow an intermediate setting, but Greedy can't use it.
        assert_eq!(
            pmk.choose(&p, &ctx(120.0, 0.0, 0.0), &mut rng),
            ServerSetting::normal()
        );
    }

    #[test]
    fn parallel_stays_on_its_axis() {
        let p = profiles();
        let mut pmk = Pmk::new(Strategy::Parallel, &p);
        let mut rng = SimRng::seed_from_u64(3);
        for budget in [90.0, 120.0, 135.0, 155.0, 300.0] {
            let s = pmk.choose(&p, &ctx(budget, 0.0, 0.0), &mut rng);
            assert!(
                s == ServerSetting::normal() || (s.freq_ghz() - 2.0).abs() < 1e-9,
                "parallel chose {s}"
            );
            assert!(p.planned_power_w(s, 1e9) <= budget.max(100.0) + 1e-9);
        }
        // Full budget: all 12 cores.
        let s = pmk.choose(&p, &ctx(300.0, 0.0, 0.0), &mut rng);
        assert_eq!(s, ServerSetting::max_sprint());
    }

    #[test]
    fn pacing_stays_on_its_axis() {
        let p = profiles();
        let mut pmk = Pmk::new(Strategy::Pacing, &p);
        let mut rng = SimRng::seed_from_u64(4);
        for budget in [130.0, 140.0, 155.0] {
            let s = pmk.choose(&p, &ctx(budget, 0.0, 0.0), &mut rng);
            assert!(
                s == ServerSetting::normal() || s.cores == 12,
                "pacing chose {s}"
            );
        }
        let s = pmk.choose(&p, &ctx(140.0, 0.0, 0.0), &mut rng);
        // 140 W fits 12 cores at a reduced frequency.
        assert_eq!(s.cores, 12);
        assert!(s.freq_ghz() < 2.0);
    }

    #[test]
    fn pacing_uses_sustained_budget_not_instant() {
        let p = profiles();
        let mut pmk = Pmk::new(Strategy::Pacing, &p);
        let mut rng = SimRng::seed_from_u64(5);
        // Instantaneously the battery could deliver 400 W, but only 130 W
        // is sustainable over the horizon — Pacing must budget with 130 W.
        let s = pmk.choose(&p, &ctx(0.0, 400.0, 130.0), &mut rng);
        assert!(p.planned_power_w(s, 1e9) <= 130.0 + 1e-9, "chose {s}");
    }

    #[test]
    fn greedy_uses_instant_budget() {
        let p = profiles();
        let mut pmk = Pmk::new(Strategy::Greedy, &p);
        let mut rng = SimRng::seed_from_u64(6);
        // Same situation: Greedy happily burns the 400 W instant power.
        let s = pmk.choose(&p, &ctx(0.0, 400.0, 130.0), &mut rng);
        assert_eq!(s, ServerSetting::max_sprint());
    }

    #[test]
    fn hybrid_sprints_hard_under_burst_with_power() {
        let p = profiles();
        let mut pmk = Pmk::new(Strategy::Hybrid, &p);
        let mut rng = SimRng::seed_from_u64(7);
        let s = pmk.choose(&p, &ctx(211.75, 0.0, 0.0), &mut rng);
        let perf = p.expected_perf(s, 1e9);
        let normal = p.expected_perf(ServerSetting::normal(), 1e9);
        assert!(perf > 3.0 * normal, "hybrid chose {s} with perf {perf}");
    }

    #[test]
    fn hybrid_respects_feasibility_mask() {
        let p = profiles();
        let mut pmk = Pmk::new(Strategy::Hybrid, &p);
        let mut rng = SimRng::seed_from_u64(8);
        let s = pmk.choose(&p, &ctx(0.0, 0.0, 0.0), &mut rng);
        assert_eq!(s, ServerSetting::normal());
        let s = pmk.choose(&p, &ctx(120.0, 0.0, 0.0), &mut rng);
        assert!(p.planned_power_w(s, 1e9) <= 120.0 + 1e-9, "chose {s}");
    }

    #[test]
    fn all_strategies_fall_back_to_normal_without_power() {
        let p = profiles();
        let mut rng = SimRng::seed_from_u64(9);
        for strat in Strategy::SPRINTING {
            let mut pmk = Pmk::new(strat, &p);
            let s = pmk.choose(&p, &ctx(0.0, 0.0, 0.0), &mut rng);
            assert_eq!(s, ServerSetting::normal(), "{strat}");
        }
    }

    #[test]
    fn labels_and_sets() {
        assert_eq!(Strategy::Hybrid.to_string(), "Hybrid");
        assert_eq!(Strategy::SPRINTING.len(), 4);
        assert!(!Strategy::SPRINTING.contains(&Strategy::Normal));
    }

    #[test]
    fn watchdog_clamps_after_repeated_mismatches_and_releases_after_matches() {
        let mut w = ActuationWatchdog::new(2);
        let cmd = ServerSetting::max_sprint();
        let stuck = ServerSetting::normal();
        for _ in 0..WATCHDOG_THRESHOLD - 1 {
            w.observe(0, cmd, stuck);
            assert!(!w.is_clamped(0), "below threshold");
        }
        w.observe(0, cmd, stuck);
        assert!(w.is_clamped(0));
        assert_eq!(w.clamped_count(), 1);
        // The untouched server is unaffected.
        assert!(!w.is_clamped(1));
        // While clamped, commanded == applied (both Normal): the clamp
        // releases only after a full streak of clean matches.
        for i in 0..WATCHDOG_THRESHOLD {
            assert!(w.is_clamped(0) || i == WATCHDOG_THRESHOLD - 1);
            w.observe(0, stuck, stuck);
        }
        assert!(!w.is_clamped(0));
    }

    #[test]
    fn watchdog_custom_threshold_clamps_and_releases_on_its_own_schedule() {
        let mut w = ActuationWatchdog::with_threshold(1, 1);
        assert_eq!(w.threshold(), 1);
        let cmd = ServerSetting::max_sprint();
        w.observe(0, cmd, ServerSetting::normal());
        assert!(w.is_clamped(0), "threshold 1 clamps on the first mismatch");
        w.observe(0, ServerSetting::normal(), ServerSetting::normal());
        assert!(!w.is_clamped(0), "and releases after one clean match");
        // A zero threshold is coerced to 1 rather than clamping healthy
        // servers on their first epoch.
        let w = ActuationWatchdog::with_threshold(1, 0);
        assert_eq!(w.threshold(), 1);
    }

    #[test]
    fn watchdog_single_glitch_does_not_clamp() {
        let mut w = ActuationWatchdog::new(1);
        let cmd = ServerSetting::max_sprint();
        w.observe(0, cmd, ServerSetting::normal());
        w.observe(0, cmd, cmd); // knob recovered
        w.observe(0, cmd, ServerSetting::normal());
        w.observe(0, cmd, cmd);
        assert!(!w.is_clamped(0), "alternating glitches never clamp");
    }
}
