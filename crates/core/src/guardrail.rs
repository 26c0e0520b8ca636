//! Policy guardrails: a shadow fallback controller, deterministic
//! misbehavior detectors, and a failover ladder with Q-table quarantine.
//!
//! The learned Hybrid PMK is the one component of the controller whose
//! behavior is not certified by construction: a poisoned or diverging
//! Q-table can burn the battery against phantom reward, violate the SLO
//! for epochs on end, or simply crash into NaN. The paper's own strategy
//! set supplies certified simple policies to fall back onto — and
//! constraint-controlled RL scheduling work argues learned controllers in
//! green data centers need exactly this supervision to be deployable.
//!
//! The subsystem has three parts:
//!
//! * **Shadow scoring** — every epoch the engine evaluates a certified
//!   fallback strategy ([`GuardrailConfig::fallback`], Pacing by default)
//!   on the same planning context the active policy saw, on the analytic
//!   measurement plane, and scores both with the paper's reward function
//!   (Algorithm 1). The shadow is a pure counterfactual: it never touches
//!   physical state and its strategies are rng-free, so runs with the
//!   guardrail enabled remain byte-identical at any `--jobs` and across
//!   checkpoint/resume.
//! * **Detectors** ([`GuardrailState::observe`]) — deterministic, streak-based:
//!   SLO-violation streaks the shadow would have avoided, reward
//!   regression against the shadow, SoC depletion beyond the planned
//!   sustainable budget, and Q-table corruption (NaN/inf cells, value
//!   explosion, out-of-range pending states — immediate, no streak).
//! * **Failover ladder** — on a trigger, control demotes one rung down a
//!   deterministic ladder (e.g. Hybrid → Parallel → Pacing → Normal),
//!   quarantining the offending Q-table to a checksummed sidecar file
//!   ([`QuarantineRecord`]). After [`GuardrailConfig::probation_epochs`]
//!   consecutive clean epochs the ladder re-promotes one rung; a
//!   re-promotion into Hybrid restarts from the deterministic profile
//!   bootstrap, never the quarantined table.
//!
//! All ladder and detector state lives in [`GuardrailState`]. The engine's
//! epoch loop reads and writes it in place inside its `LoopState`, which
//! is what a snapshot stores, so a resumed run replays failovers
//! byte-identically.

use crate::checkpoint::fingerprint;
use crate::pmk::Strategy;
use gs_cluster::ServerSetting;
use serde::{Deserialize, Serialize};

/// Schema tag for quarantine sidecar files.
pub const QUARANTINE_SCHEMA: &str = "gs-quarantine-1";

/// Guardrail configuration, embedded in `EngineConfig`.
///
/// Disabled by default: the paper's controller runs unsupervised, and a
/// paper-faithful run must stay byte-identical to the seed behavior.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct GuardrailConfig {
    /// Master switch (`--guardrail on|off`).
    pub enabled: bool,
    /// The certified strategy run in shadow and compared against
    /// (`--fallback`). Must not be Hybrid — the point is a policy whose
    /// behavior is certified by construction, not another learner.
    pub fallback: Strategy,
    /// Consecutive epochs the active policy must violate the SLO while
    /// the shadow meets it before failover.
    pub slo_streak_epochs: u32,
    /// Consecutive epochs of shadow reward exceeding active reward by
    /// more than [`Self::reward_margin`] before failover.
    pub reward_regression_epochs: u32,
    /// Reward slack before an epoch counts as a regression; absorbs
    /// honest tie-breaking noise between near-equivalent settings.
    pub reward_margin: f64,
    /// Consecutive epochs of battery discharge beyond plan before
    /// failover.
    pub soc_divergence_epochs: u32,
    /// Discharge beyond `factor ×` the planned sustainable budget counts
    /// as SoC divergence.
    pub soc_divergence_factor: f64,
    /// A finite Q-value with absolute value above this cap counts as
    /// table corruption (value explosion).
    pub value_explosion_cap: f64,
    /// Consecutive clean epochs at a demoted level before re-promotion
    /// one rung up (the ladder's hysteresis).
    pub probation_epochs: u32,
    /// Directory for quarantined Q-table sidecar files
    /// (`--quarantine-dir`); `None` keeps quarantine accounting only.
    pub quarantine_dir: Option<String>,
}

impl Default for GuardrailConfig {
    fn default() -> Self {
        GuardrailConfig {
            enabled: false,
            fallback: Strategy::Pacing,
            slo_streak_epochs: 3,
            reward_regression_epochs: 3,
            reward_margin: 1.0,
            soc_divergence_epochs: 3,
            soc_divergence_factor: 1.5,
            value_explosion_cap: 1e6,
            probation_epochs: 6,
            quarantine_dir: None,
        }
    }
}

impl GuardrailConfig {
    /// Reject configurations that cannot supervise anything: a learned
    /// fallback, zero-length streaks (which would fail over on the first
    /// epoch), or non-finite thresholds.
    pub fn validate(&self) -> Result<(), String> {
        if self.fallback == Strategy::Hybrid {
            return Err("fallback must be a certified non-learned strategy, not Hybrid".into());
        }
        for (name, v) in [
            ("slo_streak_epochs", self.slo_streak_epochs),
            ("reward_regression_epochs", self.reward_regression_epochs),
            ("soc_divergence_epochs", self.soc_divergence_epochs),
            ("probation_epochs", self.probation_epochs),
        ] {
            if v == 0 {
                return Err(format!("{name} must be at least 1"));
            }
        }
        if !(self.reward_margin.is_finite() && self.reward_margin >= 0.0) {
            return Err(format!(
                "reward_margin must be finite and non-negative, got {}",
                self.reward_margin
            ));
        }
        if !(self.soc_divergence_factor.is_finite() && self.soc_divergence_factor >= 1.0) {
            return Err(format!(
                "soc_divergence_factor must be finite and at least 1, got {}",
                self.soc_divergence_factor
            ));
        }
        if !(self.value_explosion_cap.is_finite() && self.value_explosion_cap > 0.0) {
            return Err(format!(
                "value_explosion_cap must be finite and positive, got {}",
                self.value_explosion_cap
            ));
        }
        Ok(())
    }
}

/// The deterministic failover ladder for an active strategy: the strategy
/// itself, then strictly simpler certified strategies down to the Normal
/// floor. `None` for Normal — it already *is* the floor, there is nothing
/// to guard or fall back to.
pub fn ladder_for(active: Strategy) -> Option<Vec<Strategy>> {
    match active {
        Strategy::Normal => None,
        Strategy::Hybrid => Some(vec![
            Strategy::Hybrid,
            Strategy::Parallel,
            Strategy::Pacing,
            Strategy::Normal,
        ]),
        Strategy::Greedy => Some(vec![
            Strategy::Greedy,
            Strategy::Parallel,
            Strategy::Pacing,
            Strategy::Normal,
        ]),
        Strategy::Parallel => Some(vec![Strategy::Parallel, Strategy::Pacing, Strategy::Normal]),
        Strategy::Pacing => Some(vec![Strategy::Pacing, Strategy::Normal]),
    }
}

/// One epoch's detector inputs, assembled by the engine.
#[derive(Debug, Clone, Copy)]
pub struct EpochSignals {
    /// Scheduling-epoch index (diagnostics only).
    pub epoch_index: u64,
    /// Algorithm 1 reward of the active policy's epoch (server 0).
    pub active_reward: f64,
    /// Algorithm 1 reward of the shadow fallback's counterfactual epoch.
    pub shadow_reward: f64,
    /// The active policy met the SLO percentile on the offered load.
    pub active_slo_ok: bool,
    /// The shadow's counterfactual epoch would have met it.
    pub shadow_slo_ok: bool,
    /// Rack battery discharge this epoch (W).
    pub battery_discharge_w: f64,
    /// Planned horizon-sustainable battery budget this epoch (W).
    pub planned_battery_w: f64,
    /// The active Q-table is corrupt (NaN/inf cells, value explosion, or
    /// an out-of-range pending state). Always `false` while a
    /// learner-free ladder level is steering.
    pub table_corrupt: bool,
    /// Load-carrying servers as a fraction of the configured rack
    /// (`1.0` on a healthy fleet). Below 1.0 the comparative detectors
    /// freeze: an SLO miss on a shrunken fleet is capacity-driven, not
    /// policy misbehavior, and must not quarantine a healthy Q-table.
    pub live_fraction: f64,
}

/// What the ladder decided this epoch. `Demote`/`Promote` take effect for
/// the *next* epoch's decisions; the engine swaps controllers on receipt.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardrailAction {
    /// No change of level.
    Hold,
    /// One rung down the ladder; the engine quarantines the active
    /// learner (if the demoted level carried one).
    Demote {
        /// Human-readable detector verdict.
        reason: String,
    },
    /// Probation passed: one rung up the ladder.
    Promote,
}

/// Serializable ladder + detector state, persisted in `LoopState`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuardrailState {
    /// The failover ladder (level 0 = the configured strategy).
    pub ladder: Vec<Strategy>,
    /// Current ladder level.
    pub level: usize,
    /// Deepest level reached so far.
    pub peak_level: usize,
    /// Consecutive active-SLO-violated / shadow-compliant epochs.
    pub slo_streak: u32,
    /// Consecutive reward-regression epochs.
    pub reward_streak: u32,
    /// Consecutive SoC-divergence epochs.
    pub soc_streak: u32,
    /// Consecutive clean epochs at the current demoted level.
    pub clean_streak: u32,
    /// Epochs spent at level > 0.
    pub failover_epochs: usize,
    /// Q-tables quarantined so far.
    pub quarantined_tables: usize,
    /// Human-readable failover/promotion/quarantine log.
    pub events: Vec<String>,
    /// The shadow controller's previous setting (its hysteresis
    /// incumbent).
    pub shadow_prev: ServerSetting,
}

/// The ladder and detectors themselves, on the bare state. The engine's
/// epoch loop keeps the state inside its `LoopState` and calls these with
/// the run's configuration.
impl GuardrailState {
    /// The state of a fresh guardrail supervising `active`; `None` when
    /// there is no ladder (the Normal floor).
    pub fn new(active: Strategy) -> Option<Self> {
        Some(GuardrailState {
            ladder: ladder_for(active)?,
            level: 0,
            peak_level: 0,
            slo_streak: 0,
            reward_streak: 0,
            soc_streak: 0,
            clean_streak: 0,
            failover_epochs: 0,
            quarantined_tables: 0,
            events: Vec::new(),
            shadow_prev: ServerSetting::normal(),
        })
    }

    /// The strategy steering at the current level.
    pub fn active_strategy(&self) -> Strategy {
        self.ladder[self.level]
    }

    /// Position of the fallback strategy on the ladder. The comparative
    /// detectors (SLO streak, reward regression) only arm *above* this
    /// level: at or below it the active controller is the fallback or
    /// something strictly simpler, so "the shadow would have done better"
    /// carries no signal and would pin the ladder down forever.
    fn fallback_pos(&self, cfg: &GuardrailConfig) -> usize {
        self.ladder
            .iter()
            .position(|&s| s == cfg.fallback)
            .unwrap_or(self.ladder.len() - 1)
    }

    /// Record a quarantined table (the engine owns serialization and the
    /// sidecar write; `detail` carries the file path or write error).
    pub fn note_quarantine(&mut self, epoch: u64, checksum: &str, detail: &str) {
        self.quarantined_tables += 1;
        self.events.push(format!(
            "epoch {epoch}: quarantined q-table {checksum}{detail}"
        ));
    }

    /// Demote one rung down the ladder for an externally detected reason
    /// — serve mode's tick-deadline overruns under `--overrun degrade`
    /// use this, where the signal (wall-clock or a disturbance plan, not
    /// epoch telemetry) never flows through [`GuardrailState::observe`].
    ///
    /// Bookkeeping mirrors an observe-driven demotion exactly: the clean
    /// streak and detector streaks reset, peak level is tracked, and an
    /// event line is recorded. Returns `true` if a rung remained to
    /// demote to; at the Normal floor it records nothing and holds.
    pub fn force_demote(&mut self, epoch_index: u64, reason: &str) -> bool {
        self.clean_streak = 0;
        if self.level + 1 < self.ladder.len() {
            self.level += 1;
            self.peak_level = self.peak_level.max(self.level);
            self.slo_streak = 0;
            self.reward_streak = 0;
            self.soc_streak = 0;
            self.events.push(format!(
                "epoch {epoch_index}: demoted to {} ({reason})",
                self.ladder[self.level]
            ));
            true
        } else {
            false
        }
    }

    /// Feed one epoch's signals through the detectors and the ladder,
    /// under `cfg`.
    ///
    /// Detector streaks are NaN-safe: a NaN reward or discharge never
    /// *clears* a streak by accident because every comparison is phrased
    /// so NaN counts as misbehavior where it plausibly is one.
    pub fn observe(&mut self, cfg: &GuardrailConfig, sig: &EpochSignals) -> GuardrailAction {
        // While the fleet is degraded (live_fraction < 1), the shadow
        // comparison loses meaning in both directions — the active policy
        // and the shadow both serve redistributed load on fewer servers,
        // so an SLO miss or reward gap is capacity, not policy. The
        // comparative streaks freeze: they neither grow nor clear until
        // the fleet is whole again. A NaN live_fraction counts as
        // degraded. The absolute detectors (SoC overdraw, corruption)
        // keep full authority at any fleet size.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let degraded = !(sig.live_fraction >= 1.0);
        let comparative = self.level < self.fallback_pos(cfg) && !degraded;
        let st = self;
        let corrupt = sig.table_corrupt;
        let slo_bad = comparative && !sig.active_slo_ok && sig.shadow_slo_ok;
        // NaN active reward compares false under `>=`, so the negated
        // phrasing counts it as a regression.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let reward_bad =
            comparative && !(sig.active_reward >= sig.shadow_reward - cfg.reward_margin);
        let soc_bad =
            sig.battery_discharge_w > cfg.soc_divergence_factor * sig.planned_battery_w + 1.0;
        st.slo_streak = if slo_bad {
            st.slo_streak + 1
        } else if degraded {
            st.slo_streak
        } else {
            0
        };
        st.reward_streak = if reward_bad {
            st.reward_streak + 1
        } else if degraded {
            st.reward_streak
        } else {
            0
        };
        st.soc_streak = if soc_bad { st.soc_streak + 1 } else { 0 };

        let trigger = if corrupt {
            Some("q-table corruption".to_string())
        } else if st.slo_streak >= cfg.slo_streak_epochs {
            Some(format!(
                "SLO violated {} epochs while the shadow complied",
                st.slo_streak
            ))
        } else if st.reward_streak >= cfg.reward_regression_epochs {
            Some(format!(
                "reward regressed vs shadow for {} epochs",
                st.reward_streak
            ))
        } else if st.soc_streak >= cfg.soc_divergence_epochs {
            Some(format!(
                "battery discharge exceeded plan for {} epochs",
                st.soc_streak
            ))
        } else {
            None
        };

        let action = if let Some(reason) = trigger {
            st.clean_streak = 0;
            if st.level + 1 < st.ladder.len() {
                st.level += 1;
                st.peak_level = st.peak_level.max(st.level);
                st.slo_streak = 0;
                st.reward_streak = 0;
                st.soc_streak = 0;
                st.events.push(format!(
                    "epoch {}: demoted to {} ({reason})",
                    sig.epoch_index, st.ladder[st.level]
                ));
                GuardrailAction::Demote { reason }
            } else {
                // Already on the Normal floor; nothing left to demote to.
                GuardrailAction::Hold
            }
        } else if st.level > 0 {
            if corrupt || slo_bad || reward_bad || soc_bad {
                st.clean_streak = 0;
                GuardrailAction::Hold
            } else if degraded {
                // A degraded fleet can neither incriminate nor exonerate
                // the demoted policy: hold probation where it stands.
                GuardrailAction::Hold
            } else {
                st.clean_streak += 1;
                if st.clean_streak >= cfg.probation_epochs {
                    st.level -= 1;
                    st.clean_streak = 0;
                    st.slo_streak = 0;
                    st.reward_streak = 0;
                    st.soc_streak = 0;
                    st.events.push(format!(
                        "epoch {}: probation passed, re-promoted to {}",
                        sig.epoch_index, st.ladder[st.level]
                    ));
                    GuardrailAction::Promote
                } else {
                    GuardrailAction::Hold
                }
            }
        } else {
            GuardrailAction::Hold
        };

        if st.level > 0 {
            st.failover_epochs += 1;
        }
        action
    }
}

/// A quarantined Q-table sidecar record: the serialized policy plus an
/// FNV-1a checksum (the checkpoint module's fingerprint), so offline
/// tooling (`greensprint qtable validate|dump`) can verify the capture
/// was not itself corrupted in transit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// Always [`QUARANTINE_SCHEMA`].
    pub schema: String,
    /// Scheduling-epoch index of the demotion.
    pub epoch: u64,
    /// The detector verdict that triggered it.
    pub reason: String,
    /// Fingerprint of `policy`.
    pub checksum: String,
    /// The offending policy, as [`crate::qlearning::QLearner::to_json`]
    /// emitted it.
    pub policy: String,
}

impl QuarantineRecord {
    /// Wrap a policy capture with its checksum.
    pub fn new(epoch: u64, reason: &str, policy: String) -> Self {
        let checksum = fingerprint(&[&policy]);
        QuarantineRecord {
            schema: QUARANTINE_SCHEMA.to_string(),
            epoch,
            reason: reason.to_string(),
            checksum,
            policy,
        }
    }

    /// Verify the schema tag and that the policy matches its checksum.
    pub fn verify(&self) -> Result<(), String> {
        if self.schema != QUARANTINE_SCHEMA {
            return Err(format!(
                "unknown quarantine schema {:?} (expected {QUARANTINE_SCHEMA:?})",
                self.schema
            ));
        }
        let computed = fingerprint(&[&self.policy]);
        if computed != self.checksum {
            return Err(format!(
                "checksum mismatch: recorded {}, computed {computed}",
                self.checksum
            ));
        }
        Ok(())
    }

    /// The sidecar file name: `qtable-e{epoch}-{checksum}.json`.
    pub fn file_name(&self) -> String {
        format!("qtable-e{}-{}.json", self.epoch, self.checksum)
    }

    /// Serialize the record.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("quarantine records serialize")
    }

    /// Parse and verify a record.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let rec: QuarantineRecord = serde_json::from_str(text).map_err(|e| e.to_string())?;
        rec.verify()?;
        Ok(rec)
    }

    /// Write the sidecar into `dir` (created if needed) atomically via a
    /// temp file + rename; concurrent identical writes from parallel
    /// sweep workers land on the same final name and content. Returns
    /// the path written.
    pub fn write_to(&self, dir: &str) -> Result<String, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
        let path = std::path::Path::new(dir).join(self.file_name());
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, self.to_json())
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))?;
        Ok(path.display().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GuardrailConfig {
        GuardrailConfig {
            enabled: true,
            ..GuardrailConfig::default()
        }
    }

    fn quiet(epoch: u64) -> EpochSignals {
        EpochSignals {
            epoch_index: epoch,
            active_reward: 3.0,
            shadow_reward: 2.5,
            active_slo_ok: true,
            shadow_slo_ok: true,
            battery_discharge_w: 50.0,
            planned_battery_w: 100.0,
            table_corrupt: false,
            live_fraction: 1.0,
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_guardrails() {
        assert!(cfg().validate().is_ok());
        let mut c = cfg();
        c.fallback = Strategy::Hybrid;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.slo_streak_epochs = 0;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.probation_epochs = 0;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.reward_margin = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.soc_divergence_factor = 0.5;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.value_explosion_cap = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn ladders_end_at_normal_and_normal_has_none() {
        for s in Strategy::SPRINTING {
            let ladder = ladder_for(s).unwrap();
            assert_eq!(ladder[0], s);
            assert_eq!(*ladder.last().unwrap(), Strategy::Normal);
            // Strictly descending in sophistication: no duplicates.
            let unique: std::collections::HashSet<_> = ladder.iter().collect();
            assert_eq!(unique.len(), ladder.len());
        }
        assert!(ladder_for(Strategy::Normal).is_none());
        assert!(GuardrailState::new(Strategy::Normal).is_none());
    }

    #[test]
    fn corruption_demotes_immediately_without_a_streak() {
        let mut g = GuardrailState::new(Strategy::Hybrid).unwrap();
        let action = g.observe(
            &cfg(),
            &EpochSignals {
                table_corrupt: true,
                ..quiet(0)
            },
        );
        assert!(
            matches!(action, GuardrailAction::Demote { ref reason } if reason.contains("corruption"))
        );
        assert_eq!(g.level, 1);
        assert_eq!(g.active_strategy(), Strategy::Parallel);
        assert_eq!(g.failover_epochs, 1);
        assert_eq!(g.peak_level, 1);
    }

    #[test]
    fn slo_streak_needs_the_full_streak_and_a_compliant_shadow() {
        let mut g = GuardrailState::new(Strategy::Hybrid).unwrap();
        let bad = EpochSignals {
            active_slo_ok: false,
            shadow_slo_ok: true,
            ..quiet(0)
        };
        assert_eq!(g.observe(&cfg(), &bad), GuardrailAction::Hold);
        assert_eq!(g.observe(&cfg(), &bad), GuardrailAction::Hold);
        // A clean epoch resets the streak (trigger hysteresis).
        assert_eq!(g.observe(&cfg(), &quiet(2)), GuardrailAction::Hold);
        assert_eq!(g.slo_streak, 0);
        assert_eq!(g.observe(&cfg(), &bad), GuardrailAction::Hold);
        assert_eq!(g.observe(&cfg(), &bad), GuardrailAction::Hold);
        assert!(matches!(
            g.observe(&cfg(), &bad),
            GuardrailAction::Demote { .. }
        ));
        assert_eq!(g.level, 1);

        // When the shadow *also* violates, the streak never arms — the
        // fallback would do no better, so failover buys nothing.
        let mut g = GuardrailState::new(Strategy::Hybrid).unwrap();
        let both_bad = EpochSignals {
            active_slo_ok: false,
            shadow_slo_ok: false,
            ..quiet(0)
        };
        for _ in 0..10 {
            assert_eq!(g.observe(&cfg(), &both_bad), GuardrailAction::Hold);
        }
        assert_eq!(g.level, 0);
    }

    #[test]
    fn reward_regression_respects_the_margin_and_catches_nan() {
        let mut g = GuardrailState::new(Strategy::Hybrid).unwrap();
        // Within the margin: not a regression.
        let close = EpochSignals {
            active_reward: 2.0,
            shadow_reward: 2.5,
            ..quiet(0)
        };
        for _ in 0..10 {
            assert_eq!(g.observe(&cfg(), &close), GuardrailAction::Hold);
        }
        assert_eq!(g.reward_streak, 0);
        // Beyond the margin for the full streak: demote.
        let regressed = EpochSignals {
            active_reward: 0.0,
            shadow_reward: 2.5,
            ..quiet(0)
        };
        assert_eq!(g.observe(&cfg(), &regressed), GuardrailAction::Hold);
        assert_eq!(g.observe(&cfg(), &regressed), GuardrailAction::Hold);
        assert!(matches!(
            g.observe(&cfg(), &regressed),
            GuardrailAction::Demote { .. }
        ));

        // NaN active reward counts as regressed, not as a tie.
        let mut g = GuardrailState::new(Strategy::Hybrid).unwrap();
        let nan = EpochSignals {
            active_reward: f64::NAN,
            ..quiet(0)
        };
        g.observe(&cfg(), &nan);
        assert_eq!(g.reward_streak, 1);
    }

    #[test]
    fn soc_divergence_is_absolute_and_streaked() {
        let mut g = GuardrailState::new(Strategy::Hybrid).unwrap();
        let draining = EpochSignals {
            battery_discharge_w: 400.0,
            planned_battery_w: 100.0,
            ..quiet(0)
        };
        assert_eq!(g.observe(&cfg(), &draining), GuardrailAction::Hold);
        assert_eq!(g.observe(&cfg(), &draining), GuardrailAction::Hold);
        assert!(matches!(
            g.observe(&cfg(), &draining),
            GuardrailAction::Demote { .. }
        ));
        // Discharge within factor × plan (+1 W slack) never arms.
        let mut g = GuardrailState::new(Strategy::Hybrid).unwrap();
        let fine = EpochSignals {
            battery_discharge_w: 149.0,
            planned_battery_w: 100.0,
            ..quiet(0)
        };
        for _ in 0..10 {
            g.observe(&cfg(), &fine);
        }
        assert_eq!(g.soc_streak, 0);
        assert_eq!(g.level, 0);
    }

    #[test]
    fn degraded_fleet_freezes_comparative_detectors_but_not_absolute_ones() {
        // Capacity-driven SLO misses while servers are down must not
        // quarantine a healthy policy: comparative detectors disarm and
        // their streaks freeze for as long as live_fraction < 1.
        let mut g = GuardrailState::new(Strategy::Hybrid).unwrap();
        let capacity_miss = EpochSignals {
            active_slo_ok: false,
            shadow_slo_ok: true,
            active_reward: -5.0,
            shadow_reward: 2.5,
            live_fraction: 0.7,
            ..quiet(0)
        };
        for _ in 0..10 {
            assert_eq!(g.observe(&cfg(), &capacity_miss), GuardrailAction::Hold);
        }
        assert_eq!(g.level, 0);
        assert_eq!(g.slo_streak, 0);
        assert_eq!(g.reward_streak, 0);

        // Freeze, not reset: two bad full-fleet epochs, one degraded
        // epoch in between, then a third bad epoch completes the streak.
        let bad = EpochSignals {
            active_slo_ok: false,
            shadow_slo_ok: true,
            ..quiet(1)
        };
        g.observe(&cfg(), &bad);
        g.observe(&cfg(), &bad);
        assert_eq!(g.slo_streak, 2);
        assert_eq!(
            g.observe(
                &cfg(),
                &EpochSignals {
                    live_fraction: 0.5,
                    ..bad
                }
            ),
            GuardrailAction::Hold
        );
        assert_eq!(g.slo_streak, 2, "degraded epoch froze the streak");
        assert!(matches!(
            g.observe(&cfg(), &bad),
            GuardrailAction::Demote { .. }
        ));

        // Absolute detectors keep their authority at any fleet size:
        // corruption demotes immediately...
        let mut g = GuardrailState::new(Strategy::Hybrid).unwrap();
        assert!(matches!(
            g.observe(
                &cfg(),
                &EpochSignals {
                    table_corrupt: true,
                    live_fraction: 0.5,
                    ..quiet(0)
                }
            ),
            GuardrailAction::Demote { .. }
        ));
        // ...and SoC overdraw still streaks to a demotion.
        let mut g = GuardrailState::new(Strategy::Hybrid).unwrap();
        let draining = EpochSignals {
            battery_discharge_w: 400.0,
            planned_battery_w: 100.0,
            live_fraction: 0.5,
            ..quiet(0)
        };
        g.observe(&cfg(), &draining);
        g.observe(&cfg(), &draining);
        assert!(matches!(
            g.observe(&cfg(), &draining),
            GuardrailAction::Demote { .. }
        ));

        // A NaN live_fraction is treated as degraded, never as healthy.
        let mut g = GuardrailState::new(Strategy::Hybrid).unwrap();
        let nan_fleet = EpochSignals {
            active_slo_ok: false,
            shadow_slo_ok: true,
            live_fraction: f64::NAN,
            ..quiet(0)
        };
        for _ in 0..10 {
            assert_eq!(g.observe(&cfg(), &nan_fleet), GuardrailAction::Hold);
        }
        assert_eq!(g.level, 0);
    }

    #[test]
    fn probation_holds_but_does_not_reset_while_the_fleet_is_degraded() {
        let mut g = GuardrailState::new(Strategy::Hybrid).unwrap();
        g.observe(
            &cfg(),
            &EpochSignals {
                table_corrupt: true,
                ..quiet(0)
            },
        );
        assert_eq!(g.level, 1);
        for k in 1..=4 {
            assert_eq!(g.observe(&cfg(), &quiet(k)), GuardrailAction::Hold);
        }
        assert_eq!(g.clean_streak, 4);
        // Degraded epochs neither advance nor reset the probation clock.
        for k in 5..=8 {
            assert_eq!(
                g.observe(
                    &cfg(),
                    &EpochSignals {
                        live_fraction: 0.7,
                        ..quiet(k)
                    }
                ),
                GuardrailAction::Hold
            );
        }
        assert_eq!(g.clean_streak, 4, "probation held, not reset");
        // Full-fleet clean epochs finish the window and promote.
        assert_eq!(g.observe(&cfg(), &quiet(9)), GuardrailAction::Hold);
        assert_eq!(g.observe(&cfg(), &quiet(10)), GuardrailAction::Promote);
        assert_eq!(g.level, 0);
    }

    #[test]
    fn comparative_detectors_disarm_at_and_below_the_fallback_level() {
        // Demote twice: Hybrid -> Parallel -> Pacing (the fallback).
        let mut g = GuardrailState::new(Strategy::Hybrid).unwrap();
        g.observe(
            &cfg(),
            &EpochSignals {
                table_corrupt: true,
                ..quiet(0)
            },
        );
        let regressed = EpochSignals {
            active_reward: -5.0,
            shadow_reward: 2.5,
            active_slo_ok: false,
            shadow_slo_ok: true,
            ..quiet(1)
        };
        for _ in 0..3 {
            g.observe(&cfg(), &regressed);
        }
        assert_eq!(g.level, 2, "comparative detectors still arm at level 1");
        assert_eq!(g.active_strategy(), Strategy::Pacing);
        // At the fallback level the same signals are ignored: the active
        // controller IS the shadow, so "the shadow would win" is vacuous
        // and probation must be able to complete.
        for k in 0..20 {
            let a = g.observe(
                &cfg(),
                &EpochSignals {
                    epoch_index: 10 + k,
                    ..regressed
                },
            );
            if a == GuardrailAction::Promote {
                break;
            }
        }
        assert!(
            g.level <= 1,
            "probation completed despite shadow-vs-active noise"
        );
    }

    #[test]
    fn probation_requires_consecutive_clean_epochs_then_promotes_one_rung() {
        let mut g = GuardrailState::new(Strategy::Hybrid).unwrap();
        g.observe(
            &cfg(),
            &EpochSignals {
                table_corrupt: true,
                ..quiet(0)
            },
        );
        assert_eq!(g.level, 1);
        // 5 clean epochs, then a dirty one: streak resets.
        for k in 1..=5 {
            assert_eq!(g.observe(&cfg(), &quiet(k)), GuardrailAction::Hold);
        }
        assert_eq!(g.clean_streak, 5);
        g.observe(
            &cfg(),
            &EpochSignals {
                battery_discharge_w: 500.0,
                planned_battery_w: 10.0,
                ..quiet(6)
            },
        );
        assert_eq!(g.clean_streak, 0, "dirty epoch resets probation");
        assert_eq!(g.level, 1, "one dirty epoch is not a new streak");
        // A full clean probation window promotes exactly one rung.
        for k in 7..=11 {
            assert_eq!(g.observe(&cfg(), &quiet(k)), GuardrailAction::Hold);
        }
        assert_eq!(g.observe(&cfg(), &quiet(12)), GuardrailAction::Promote);
        assert_eq!(g.level, 0);
        assert_eq!(g.active_strategy(), Strategy::Hybrid);
        // Peak level and failover accounting survive the recovery.
        assert_eq!(g.peak_level, 1);
        assert!(g.failover_epochs >= 12);
        // Back at level 0, clean epochs do not "promote" further.
        assert_eq!(g.observe(&cfg(), &quiet(13)), GuardrailAction::Hold);
        assert_eq!(g.level, 0);
    }

    #[test]
    fn the_normal_floor_absorbs_triggers_without_further_demotion() {
        let mut g = GuardrailState::new(Strategy::Pacing).unwrap();
        assert_eq!(g.ladder, [Strategy::Pacing, Strategy::Normal]);
        g.observe(
            &cfg(),
            &EpochSignals {
                battery_discharge_w: 1e4,
                planned_battery_w: 0.0,
                ..quiet(0)
            },
        );
        g.observe(
            &cfg(),
            &EpochSignals {
                battery_discharge_w: 1e4,
                planned_battery_w: 0.0,
                ..quiet(1)
            },
        );
        let a = g.observe(
            &cfg(),
            &EpochSignals {
                battery_discharge_w: 1e4,
                planned_battery_w: 0.0,
                ..quiet(2)
            },
        );
        assert!(matches!(a, GuardrailAction::Demote { .. }));
        assert_eq!(g.active_strategy(), Strategy::Normal);
        // Keep signalling SoC divergence at the floor: Hold, not panic.
        for k in 3..10 {
            let a = g.observe(
                &cfg(),
                &EpochSignals {
                    battery_discharge_w: 1e4,
                    planned_battery_w: 0.0,
                    ..quiet(k)
                },
            );
            assert_eq!(a, GuardrailAction::Hold);
            assert_eq!(g.clean_streak, 0, "dirty floor epochs are not probation");
        }
        assert_eq!(g.level, 1);
    }

    #[test]
    fn state_roundtrips_through_snapshot_serialization() {
        let mut g = GuardrailState::new(Strategy::Hybrid).unwrap();
        g.observe(
            &cfg(),
            &EpochSignals {
                table_corrupt: true,
                ..quiet(0)
            },
        );
        g.note_quarantine(0, "abc123", " -> /tmp/q.json");
        g.shadow_prev = ServerSetting::max_sprint();
        g.observe(&cfg(), &quiet(1));
        let json = serde_json::to_string(&g).unwrap();
        let restored: GuardrailState = serde_json::from_str(&json).unwrap();
        assert_eq!(g, restored);
        assert_eq!(restored.shadow_prev, ServerSetting::max_sprint());
    }

    #[test]
    fn quarantine_records_checksum_and_verify() {
        let rec = QuarantineRecord::new(7, "q-table corruption", "{\"fake\":1}".to_string());
        assert_eq!(rec.schema, QUARANTINE_SCHEMA);
        assert!(rec.verify().is_ok());
        assert!(rec.file_name().starts_with("qtable-e7-"));
        let back = QuarantineRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(rec, back);
        // Tampering with the policy breaks verification.
        let mut tampered = rec.clone();
        tampered.policy.push(' ');
        assert!(tampered.verify().is_err());
        assert!(QuarantineRecord::from_json(&tampered.to_json()).is_err());
        let mut bad_schema = rec.clone();
        bad_schema.schema = "nope".to_string();
        assert!(bad_schema.verify().is_err());
    }

    #[test]
    fn quarantine_write_is_atomic_and_readable_back() {
        let dir = std::env::temp_dir().join(format!("gs-quarantine-test-{}", std::process::id()));
        let dir_s = dir.display().to_string();
        let rec = QuarantineRecord::new(3, "test", "{\"p\":2}".to_string());
        let path = rec.write_to(&dir_s).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back = QuarantineRecord::from_json(&text).unwrap();
        assert_eq!(rec, back);
        // Idempotent: a second (concurrent-worker) write lands cleanly.
        let path2 = rec.write_to(&dir_s).unwrap();
        assert_eq!(path, path2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
