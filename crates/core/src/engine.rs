//! The scheduling-epoch engine.
//!
//! Reproduces the prototype's control loop (paper §III/§IV): a workload
//! burst hits the cluster; every epoch the Monitor publishes observations,
//! the Predictor forecasts the next epoch, the PSS classifies the supply
//! case and allocates renewable/battery/grid power, and the PMK picks each
//! green server's sprint setting. The workload layer then *measures* the
//! epoch — by request-level DES by default, or by the analytic queueing
//! model for fast sweeps — and the energy flows are settled against the
//! battery and the meters.
//!
//! Performance is reported exactly as in the paper: the mean goodput of
//! the green-provisioned servers over the burst, normalized to a Normal
//! (no-sprint) run of the same burst.

use crate::audit::{EpochFlows, InvariantAuditor};
use crate::checkpoint::{
    EngineSnapshot, ExperimentState, LoopState, SnapshotScope, CHECKPOINT_SCHEMA,
};
use crate::config::{AvailabilityLevel, GreenConfig};
use crate::faults::{ActiveFaults, FaultPlan};
use crate::fleet::{AdmittedPerf, AnalyticCache, EngineScratch, ServerPerf};
use crate::guardrail::{
    ladder_for, EpochSignals, GuardrailAction, GuardrailConfig, GuardrailState, QuarantineRecord,
};
use crate::monitor::{Monitor, Observation, ObservationQuality};
use crate::pmk::{ActuationWatchdog, Pmk, PmkContext, Strategy};
use crate::predictor::Predictor;
use crate::profiler::ProfileTable;
use crate::qlearning::{corrupt_value, reward, QLearner, QState, RewardInputs};
use gs_cluster::{PowerModel, ServerSetting, MAX_CORES, NORMAL_CORES};
use gs_power::battery::Battery;
use gs_power::meter::{PowerMeter, Source};
use gs_power::pss::{PowerSourceSelector, SupplyCase, SupplyPlan};
use gs_power::solar::{PvArray, SolarTrace};
use gs_sim::{SimDuration, SimRng, SimTime};
use gs_workload::apps::{AppProfile, Application};
use gs_workload::des::ServerSim;
use gs_workload::metrics::EpochPerf;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Why a configuration cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The scheduling epoch is zero.
    ZeroEpoch,
    /// The burst is shorter than one epoch.
    SubEpochBurst,
    /// `warm_policy_json` is not a valid exported policy.
    InvalidWarmPolicy(String),
    /// A campaign was asked to run zero days.
    ZeroDays,
    /// `trace_override` is unusable (empty or non-finite samples — e.g. a
    /// scenario file that deserialized garbage straight into the trace).
    InvalidTrace(String),
    /// `fault_plan` contains a physically meaningless event.
    InvalidFaultPlan(String),
    /// The green cluster has zero servers — every per-server share would
    /// divide by zero.
    ZeroServers,
    /// A numeric threshold (named inside) is NaN or outside its legal
    /// range.
    InvalidThreshold(String),
    /// The guardrail configuration cannot supervise anything (a learned
    /// fallback, zero-length streaks, non-finite thresholds).
    InvalidGuardrail(String),
    /// Snapshots capture the full controller state, which the DES
    /// measurement plane cannot serialize — checkpointed runs must use
    /// `MeasurementMode::Analytic`.
    SnapshotRequiresAnalytic,
    /// A snapshot cannot resume here: its fingerprint (code + config) no
    /// longer matches, or its shape is inconsistent.
    SnapshotMismatch(String),
    /// An `Int=k` intensity (the config field, then `k`) is not a core
    /// count of the setting space, so no profile entry holds its rate.
    InvalidIntensity(&'static str, u8),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ZeroEpoch => f.write_str("epoch must be positive"),
            EngineError::SubEpochBurst => f.write_str("burst must span at least one epoch"),
            EngineError::InvalidWarmPolicy(e) => write!(f, "invalid warm_policy_json: {e}"),
            EngineError::ZeroDays => f.write_str("campaign needs at least one day"),
            EngineError::InvalidTrace(e) => write!(f, "invalid trace_override: {e}"),
            EngineError::InvalidFaultPlan(e) => write!(f, "invalid fault_plan: {e}"),
            EngineError::ZeroServers => f.write_str("green cluster needs at least one server"),
            EngineError::InvalidThreshold(e) => write!(f, "invalid threshold: {e}"),
            EngineError::InvalidGuardrail(e) => write!(f, "invalid guardrail: {e}"),
            EngineError::SnapshotRequiresAnalytic => f.write_str(
                "snapshots require analytic measurement (DES state is not serializable)",
            ),
            EngineError::SnapshotMismatch(e) => write!(f, "snapshot mismatch: {e}"),
            EngineError::InvalidIntensity(field, k) => write!(
                f,
                "invalid intensity: {field} must be a core count in \
                 {NORMAL_CORES}..={MAX_CORES}, got {k}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Which thermal package the green servers carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThermalModel {
    /// The paper's assumption: PCM-buffered package; sprints of the
    /// evaluated durations never hit the junction limit.
    PaperPcm,
    /// No phase-change buffer: classic minutes-scale sprint headroom; the
    /// engine throttles to Normal when the junction limit trips.
    NoPcm,
    /// Skip thermal simulation entirely (fast sweeps).
    Disabled,
}

impl ThermalModel {
    /// One server's package under this model, pre-warmed for 2 h at
    /// Normal-mode load (100 W) so a burst does not start from a cold
    /// heatsink; `None` when thermal simulation is off. The warm-up
    /// depends on the model alone, so it runs once per process and every
    /// loop clones the result.
    fn prewarmed_package(self) -> Option<&'static gs_thermal::ThermalPackage> {
        static WARM: [std::sync::OnceLock<gs_thermal::ThermalPackage>; 2] =
            [std::sync::OnceLock::new(), std::sync::OnceLock::new()];
        let (slot, cold): (usize, fn() -> gs_thermal::ThermalPackage) = match self {
            ThermalModel::PaperPcm => (0, gs_thermal::ThermalPackage::paper_spec),
            ThermalModel::NoPcm => (1, gs_thermal::ThermalPackage::without_pcm),
            ThermalModel::Disabled => return None,
        };
        Some(WARM[slot].get_or_init(|| {
            let mut pkg = cold();
            pkg.advance(100.0, SimDuration::from_hours(2));
            pkg
        }))
    }
}

/// Which renewable-supply predictor the controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PredictorKind {
    /// The paper's raw EWMA over observed production (Eq. 1, α = 0.3).
    PaperEwma,
    /// Clear-sky-indexed EWMA: smooth the cloud attenuation and project it
    /// onto the known solar-geometry curve (extension; strictly better on
    /// dawn/dusk ramps).
    ClearSkyIndexed,
}

/// How epochs are measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MeasurementMode {
    /// Request-level discrete-event simulation (the default; slower,
    /// higher fidelity, stochastic).
    Des,
    /// Closed-form queueing model (deterministic, fast; used for wide
    /// parameter sweeps and quick tests).
    Analytic,
}

/// Everything one burst experiment needs.
///
/// Deserializes with per-field defaults, so a scenario file only needs to
/// name the fields it changes.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct EngineConfig {
    /// The hosted application.
    pub app: Application,
    /// Green-provisioning option (Table I).
    pub green: GreenConfig,
    /// The PMK strategy under test.
    pub strategy: Strategy,
    /// Renewable availability level (paper Fig. 5 windows).
    pub availability: AvailabilityLevel,
    /// Burst length (the paper sweeps 10/15/30/60 minutes).
    pub burst_duration: SimDuration,
    /// Burst intensity `Int=k`: offered load equals the capacity of `k`
    /// cores at 2.0 GHz (paper §IV-D).
    pub burst_intensity_cores: u8,
    /// Scheduling epoch (the paper uses minutes-scale epochs).
    pub epoch: SimDuration,
    /// Horizon over which Parallel/Pacing budget battery energy.
    pub planning_horizon: SimDuration,
    /// Epoch measurement mode.
    pub measurement: MeasurementMode,
    /// Thermal package on the green servers.
    pub thermal: ThermalModel,
    /// Hour of day the burst starts (near solar noon by default so the
    /// Maximum availability window is genuinely maximal).
    pub burst_start_hour: f64,
    /// PMK switching hysteresis: keep the previous epoch's setting when
    /// its expected performance is within this fraction of the new
    /// choice's (0 = always switch, the paper's behaviour).
    pub switch_hysteresis: f64,
    /// Replay a specific irradiance trace (e.g. loaded from an NREL CSV
    /// via `gs_power::trace_io`) instead of the synthetic one implied by
    /// `availability`.
    pub trace_override: Option<SolarTrace>,
    /// Renewable-supply predictor (the paper's EWMA by default).
    pub predictor: PredictorKind,
    /// Warm-start the Hybrid learner from a policy exported by a previous
    /// run (`QLearner::to_json`); `None` bootstraps from the profiling
    /// tables as in the paper. Ignored by the other strategies.
    pub warm_policy_json: Option<String>,
    /// Deterministic fault-injection schedule replayed over the run
    /// (telemetry, supply, and actuation faults); `None` runs fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Run the invariant auditor inside the epoch loop (energy
    /// conservation, SoC bounds, breaker cap, non-negative flows),
    /// accumulating violations into the outcome. On by default; the cost
    /// is a handful of additions per epoch.
    pub audit: bool,
    /// Consecutive commanded-vs-observed actuation mismatches before the
    /// watchdog clamps a server to Normal (must be at least 1).
    pub watchdog_threshold: u32,
    /// Policy guardrail: shadow fallback scoring, misbehavior detectors,
    /// and the failover ladder. Disabled by default — the paper-faithful
    /// controller runs unsupervised.
    pub guardrail: GuardrailConfig,
    /// Master seed; all stochastic components derive from it.
    pub seed: u64,
}

impl EngineConfig {
    /// Checks shared by every epoch loop this config can drive (bursts
    /// and campaigns): a positive epoch and a parseable warm policy.
    pub(crate) fn validate_base(&self) -> Result<(), EngineError> {
        if self.epoch.is_zero() {
            return Err(EngineError::ZeroEpoch);
        }
        if self.green.green_servers == 0 {
            return Err(EngineError::ZeroServers);
        }
        if !(0.0..=1.0).contains(&self.switch_hysteresis) {
            // NaN is not contained in any range, so it fails here too.
            return Err(EngineError::InvalidThreshold(format!(
                "switch_hysteresis must be in [0, 1], got {}",
                self.switch_hysteresis
            )));
        }
        if let Some(json) = &self.warm_policy_json {
            if let Err(e) = crate::qlearning::QLearner::from_json(json) {
                return Err(EngineError::InvalidWarmPolicy(e.to_string()));
            }
        }
        // Scenario JSON deserializes the trace's private samples directly,
        // bypassing the clamping constructors — validate before running.
        if let Some(trace) = &self.trace_override {
            if let Err(e) = trace.validate() {
                return Err(EngineError::InvalidTrace(e.to_string()));
            }
        }
        if let Some(plan) = &self.fault_plan {
            // Validate against this rack's size too: an event targeting a
            // server the rack does not have would silently no-op (or
            // worse, index out of range) mid-burst.
            if let Err(e) = plan.validate_for(self.green.green_servers) {
                return Err(EngineError::InvalidFaultPlan(e));
            }
        }
        if self.watchdog_threshold == 0 {
            return Err(EngineError::InvalidThreshold(
                "watchdog_threshold must be at least 1, got 0".to_string(),
            ));
        }
        if let Err(e) = self.guardrail.validate() {
            return Err(EngineError::InvalidGuardrail(e));
        }
        Ok(())
    }

    /// Validate this configuration for a single-burst run.
    pub fn validate(&self) -> Result<(), EngineError> {
        self.validate_base()?;
        check_intensity("burst_intensity_cores", self.burst_intensity_cores)?;
        if self.burst_duration.div_duration(self.epoch).unwrap_or(0) < 1 {
            return Err(EngineError::SubEpochBurst);
        }
        if !(0.0..24.0).contains(&self.burst_start_hour) {
            // NaN is not contained in any range, so it fails here too.
            return Err(EngineError::InvalidThreshold(format!(
                "burst_start_hour must be in [0, 24), got {}",
                self.burst_start_hour
            )));
        }
        Ok(())
    }
}

/// Check an `Int=k` intensity read from config `field`: the run reads its
/// rate from profile entry `(k, 2.0 GHz)`, so `k` must be a core count of
/// the setting space.
pub(crate) fn check_intensity(field: &'static str, k_cores: u8) -> Result<(), EngineError> {
    if (NORMAL_CORES..=MAX_CORES).contains(&k_cores) {
        Ok(())
    } else {
        Err(EngineError::InvalidIntensity(field, k_cores))
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            app: Application::SpecJbb,
            green: GreenConfig::re_batt(),
            strategy: Strategy::Hybrid,
            availability: AvailabilityLevel::Maximum,
            burst_duration: SimDuration::from_mins(10),
            burst_intensity_cores: 12,
            epoch: SimDuration::from_secs(60),
            planning_horizon: SimDuration::from_mins(10),
            measurement: MeasurementMode::Des,
            thermal: ThermalModel::PaperPcm,
            burst_start_hour: 11.0,
            switch_hysteresis: 0.0,
            predictor: PredictorKind::PaperEwma,
            trace_override: None,
            warm_policy_json: None,
            fault_plan: None,
            audit: true,
            watchdog_threshold: crate::pmk::WATCHDOG_THRESHOLD,
            guardrail: GuardrailConfig::default(),
            seed: 7,
        }
    }
}

/// Consecutive healthy epochs a returning server must string together
/// before it rejoins the plan and regains load — the fleet's rejoin
/// hysteresis. A flapping server keeps resetting its streak, so it can
/// never oscillate the capacity plan.
pub const REJOIN_EPOCHS: u32 = 3;

/// One epoch's record for reporting.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch start time.
    pub t: SimTime,
    /// The setting chosen for the green servers this epoch.
    pub setting: ServerSetting,
    /// The PSS supply case this epoch fell into.
    pub case: SupplyCase,
    /// Renewable power available (W).
    pub re_supply_w: f64,
    /// Renewable power consumed by the sprint (W).
    pub re_used_w: f64,
    /// Battery power consumed (W).
    pub battery_w: f64,
    /// Aggregate green-server demand (W).
    pub demand_w: f64,
    /// Mean battery state of charge after the epoch.
    pub battery_soc: f64,
    /// Offered load per server (req/s).
    pub offered_rps: f64,
    /// Goodput summed over the green servers (req/s).
    pub goodput_rps: f64,
    /// How many green servers were sprinting this epoch.
    pub sprinting_servers: u8,
    /// True if the controller planned this epoch in safe mode (no verified
    /// supply observation).
    pub safe_mode: bool,
    /// The guardrail ladder level that steered this epoch (0 = the
    /// configured strategy; always 0 with the guardrail off).
    pub ladder_level: u8,
    /// Servers carrying load this epoch (the full rack minus crashed,
    /// flapping, and rejoin-probation servers).
    pub live_servers: u8,
}

/// The result of one burst experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BurstOutcome {
    /// Mean per-server goodput over the burst (req/s).
    pub mean_goodput_rps: f64,
    /// The Normal baseline's mean per-server goodput (req/s).
    pub normal_baseline_rps: f64,
    /// The paper's headline metric: goodput normalized to Normal.
    pub speedup_vs_normal: f64,
    /// Fraction of offered requests that met the SLO over the burst.
    pub slo_attainment: f64,
    /// Renewable energy used for serving (Wh).
    pub re_used_wh: f64,
    /// Renewable energy stored into batteries (Wh).
    pub re_charged_wh: f64,
    /// Renewable energy curtailed (Wh).
    pub curtailed_wh: f64,
    /// Battery energy discharged (Wh).
    pub battery_used_wh: f64,
    /// Emergency grid-overload energy (Wh).
    pub grid_overload_wh: f64,
    /// Grid energy to recharge the batteries after the burst (Wh).
    pub grid_recharge_wh: f64,
    /// Mean equivalent battery cycles consumed per unit.
    pub battery_cycles: f64,
    /// Total sprint-setting changes across green servers and epochs
    /// (knob churn; hysteresis reduces it).
    pub setting_transitions: usize,
    /// Epochs in which any green server was thermally throttled.
    pub thermal_throttle_epochs: usize,
    /// Hottest chip temperature reached during the burst (°C; ambient if
    /// thermal simulation is disabled).
    pub peak_temp_c: f64,
    /// Epochs during which at least one injected fault was active.
    pub fault_epochs: usize,
    /// Epochs the controller planned in safe mode (no verified supply
    /// observation: sensor dropout, or a delayed reading not yet arrived).
    pub safe_mode_epochs: usize,
    /// Epochs with at least one server clamped to Normal by the
    /// commanded-vs-observed actuation watchdog.
    pub watchdog_clamped_epochs: usize,
    /// Whether goodput stayed at or above the Normal-mode degradation
    /// floor (within measurement tolerance) — the invariant that defines
    /// graceful degradation under faults.
    pub floor_held: bool,
    /// Invariant-auditor violations (energy conservation, SoC bounds,
    /// breaker cap, negative flows). Empty on a healthy run — and when
    /// the auditor is disabled.
    pub audit_violations: Vec<String>,
    /// Epochs steered by a demoted ladder level (0 with the guardrail
    /// off or never triggered).
    pub failover_epochs: usize,
    /// Deepest guardrail ladder level reached during the burst.
    pub ladder_level: usize,
    /// Q-tables quarantined by the guardrail during the burst.
    pub quarantined_tables: usize,
    /// Human-readable guardrail demotion/promotion/quarantine log.
    pub guardrail_events: Vec<String>,
    /// Server-epochs spent physically down (crashed or flapping). Zero
    /// without fleet faults.
    pub dead_server_epochs: usize,
    /// Server-epochs spent alive but goodput-degraded by a straggler
    /// fault.
    pub straggler_epochs: usize,
    /// Smallest number of load-carrying servers seen in any epoch (the
    /// full rack size on a healthy run).
    pub min_live_servers: usize,
    /// Human-readable fleet crash/flap/rejoin log.
    pub fleet_events: Vec<String>,
    /// Per-epoch records.
    pub epochs: Vec<EpochRecord>,
}

/// The burst engine.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
}

impl Engine {
    /// Create an engine for a configuration, panicking on an invalid one.
    /// The panic message carries the full [`EngineError`] display so
    /// callers bypassing [`Engine::try_new`] still learn what was wrong.
    pub fn new(cfg: EngineConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("invalid engine configuration: {e}"))
    }

    /// Create an engine for a configuration, reporting what is wrong with
    /// an invalid one instead of panicking — the entry point for callers
    /// handling untrusted input (the CLI, scenario files).
    pub fn try_new(cfg: EngineConfig) -> Result<Self, EngineError> {
        cfg.validate()?;
        Ok(Engine { cfg })
    }

    /// The configuration under test.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Run the experiment: the strategy run plus, stepped beside it, a
    /// Normal floor of the same burst, returning the normalized outcome.
    pub fn run(self) -> BurstOutcome {
        self.run_with_monitor().0
    }

    /// As [`Engine::run`], reusing a caller-provided [`EngineScratch`]
    /// arena. Purely an allocation optimization: a run begins by
    /// resetting the arena, so the outcome is byte-identical to
    /// [`Engine::run`] whatever the arena previously ran.
    pub fn run_with_scratch(self, scratch: &mut EngineScratch) -> BurstOutcome {
        self.run_in(scratch, false).0
    }

    /// As [`Engine::run`], also returning the Monitor streams of the
    /// strategy run (paper Fig. 5).
    pub fn run_with_monitor(self) -> (BurstOutcome, Monitor) {
        let (outcome, monitor, _) = self.run_in(&mut EngineScratch::new(), false);
        (outcome, monitor)
    }

    /// As [`Engine::run_with_monitor`], additionally returning the Hybrid
    /// learner's post-burst policy (JSON) so the next burst can warm-start
    /// from it — the paper's "we also continue to update the values in
    /// the lookup table" carried across sprints.
    pub fn run_full(self) -> (BurstOutcome, Monitor, Option<String>) {
        self.run_in(&mut EngineScratch::new(), true)
    }

    /// The fresh burst, exporting the learner's policy only when asked.
    fn run_in(
        self,
        scratch: &mut EngineScratch,
        export_policy: bool,
    ) -> (BurstOutcome, Monitor, Option<String>) {
        run_burst(&self.cfg, None, None, scratch, export_policy)
            .expect("a fresh burst resumes no snapshot")
    }

    /// As [`Engine::run_full`], emitting a resumable [`EngineSnapshot`]
    /// of the strategy run and its Normal floor at every
    /// `every_epochs`-th epoch boundary (0 = never). A run killed between
    /// two snapshots can be continued from the last one with
    /// [`resume_snapshot`] and finishes with a byte-identical outcome.
    ///
    /// Snapshots capture the full controller state, which the DES
    /// measurement plane cannot serialize — requires
    /// [`MeasurementMode::Analytic`].
    pub fn run_full_with_snapshots(
        self,
        every_epochs: u64,
        sink: &mut dyn FnMut(&EngineSnapshot),
    ) -> Result<(BurstOutcome, Monitor, Option<String>), EngineError> {
        if self.cfg.measurement != MeasurementMode::Analytic {
            return Err(EngineError::SnapshotRequiresAnalytic);
        }
        let mut out = SnapshotOut {
            every: every_epochs,
            fingerprint: burst_fingerprint(&self.cfg),
            scope: SnapshotScope::Burst(self.cfg.clone()),
            sink,
        };
        run_burst(
            &self.cfg,
            None,
            Some(&mut out),
            &mut EngineScratch::new(),
            true,
        )
    }
}

/// Apply the Normal-baseline normalization and the graceful-degradation
/// floor judgment to a finished strategy run.
pub(crate) fn judge(
    cfg: &EngineConfig,
    mut outcome: BurstOutcome,
    baseline: Option<BurstOutcome>,
) -> BurstOutcome {
    let normal_mean = match baseline {
        None => outcome.mean_goodput_rps,
        Some(b) => {
            // The floor audits too; its violations are just as much a
            // physics regression as the strategy run's.
            outcome
                .audit_violations
                .extend(b.audit_violations.iter().map(|v| format!("baseline: {v}")));
            b.mean_goodput_rps
        }
    };
    outcome.normal_baseline_rps = normal_mean;
    outcome.speedup_vs_normal = if normal_mean > 0.0 {
        outcome.mean_goodput_rps / normal_mean
    } else {
        1.0
    };
    // Graceful-degradation floor: even under faults, the sprint must
    // not end up below a Normal run of the same burst. The tolerance
    // absorbs analytic blend rounding (and, for DES, the different rng
    // streams the strategy run and its floor consume).
    let floor_tolerance = match cfg.measurement {
        MeasurementMode::Analytic => 0.99,
        MeasurementMode::Des => 0.95,
    };
    outcome.floor_held = outcome.speedup_vs_normal >= floor_tolerance;
    outcome
}

/// One burst experiment, fresh or resumed from `resume`: the strategy
/// run stepped beside its Normal floor, then the judgment. Returns the
/// judged outcome, the strategy run's Monitor streams and, when
/// `export_policy`, the learner's policy after the last epoch.
fn run_burst(
    cfg: &EngineConfig,
    resume: Option<EngineSnapshot>,
    out: Option<&mut SnapshotOut<'_>>,
    scratch: &mut EngineScratch,
    export_policy: bool,
) -> Result<(BurstOutcome, Monitor, Option<String>), EngineError> {
    let window = RunWindow::burst(cfg);
    let ex = run_experiment(cfg, &window, resume, out, scratch)?;
    let policy = if export_policy { ex.policy() } else { None };
    let (main, monitor, floor) = ex.finish();
    Ok((judge(cfg, main, floor), monitor, policy))
}

/// The checkpoint fingerprint of a burst configuration.
fn burst_fingerprint(cfg: &EngineConfig) -> String {
    let json = serde_json::to_string(cfg).expect("config serializes");
    crate::checkpoint::config_fingerprint(&json)
}

/// The completed result of resuming a snapshot, whichever experiment
/// kind it came from.
// One value exists per resumed process; boxing the bigger variant would
// complicate every caller to save bytes that never multiply.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ResumedRun {
    /// A resumed single-burst experiment.
    Burst {
        /// The normalized outcome, identical to the uninterrupted run's.
        outcome: BurstOutcome,
        /// The strategy run's Monitor streams.
        monitor: Monitor,
        /// The learner's policy after the last epoch, if any.
        policy: Option<String>,
    },
    /// A resumed multi-day campaign.
    Campaign(crate::campaign::CampaignOutcome),
}

/// Resume a checkpointed run from its last snapshot, finishing with
/// output byte-identical to the uninterrupted run. Continues emitting
/// snapshots at the same cadence through `sink`.
///
/// Refuses a snapshot whose fingerprint no longer matches the current
/// code + embedded configuration, and one whose loop state does not fit
/// that configuration.
pub fn resume_snapshot(
    snap: EngineSnapshot,
    every_epochs: u64,
    sink: &mut dyn FnMut(&EngineSnapshot),
) -> Result<ResumedRun, EngineError> {
    let expected = snap.expected_fingerprint();
    if snap.fingerprint != expected {
        return Err(EngineError::SnapshotMismatch(format!(
            "checkpoint fingerprint {} does not match this build/config ({expected}); \
             the code or configuration changed since the checkpoint was written",
            snap.fingerprint
        )));
    }
    match snap.scope.clone() {
        SnapshotScope::Burst(cfg) => resume_burst(cfg, snap, every_epochs, sink),
        SnapshotScope::Campaign(ccfg) => {
            crate::campaign::resume_campaign_snapshot(&ccfg, snap, every_epochs, sink)
                .map(ResumedRun::Campaign)
        }
    }
}

fn resume_burst(
    cfg: EngineConfig,
    snap: EngineSnapshot,
    every_epochs: u64,
    sink: &mut dyn FnMut(&EngineSnapshot),
) -> Result<ResumedRun, EngineError> {
    cfg.validate()?;
    if cfg.measurement != MeasurementMode::Analytic {
        return Err(EngineError::SnapshotRequiresAnalytic);
    }
    let mut out = SnapshotOut {
        every: every_epochs,
        fingerprint: snap.fingerprint.clone(),
        scope: SnapshotScope::Burst(cfg.clone()),
        sink,
    };
    let (outcome, monitor, policy) = run_burst(
        &cfg,
        Some(snap),
        Some(&mut out),
        &mut EngineScratch::new(),
        true,
    )?;
    Ok(ResumedRun::Burst {
        outcome,
        monitor,
        policy,
    })
}

/// Where an experiment's snapshots go: the cadence, the stamp every
/// snapshot carries, and the sink.
pub(crate) struct SnapshotOut<'s> {
    /// Snapshot at every `every`-th epoch boundary (0 = never).
    pub every: u64,
    /// The experiment's checkpoint fingerprint.
    pub fingerprint: String,
    /// The experiment, with its configuration.
    pub scope: SnapshotScope,
    /// Receives every snapshot.
    pub sink: &'s mut dyn FnMut(&EngineSnapshot),
}

impl SnapshotOut<'_> {
    fn emit(&mut self, state: ExperimentState) {
        (self.sink)(&EngineSnapshot {
            schema: CHECKPOINT_SCHEMA.to_string(),
            fingerprint: self.fingerprint.clone(),
            scope: self.scope.clone(),
            state,
        });
    }
}

/// The experiment driver bursts and campaigns share: the configured
/// strategy over `window` beside its Normal floor, fresh or picked up
/// from `resume`, to the end of the window with no-op directives, each
/// step on `scratch`. `out` receives a snapshot at every cadence boundary
/// after the one the run started from. Returns the experiment after its
/// last epoch.
pub(crate) fn run_experiment<'a>(
    cfg: &'a EngineConfig,
    window: &'a RunWindow,
    resume: Option<EngineSnapshot>,
    mut out: Option<&mut SnapshotOut<'_>>,
    scratch: &mut EngineScratch,
) -> Result<Experiment<'a>, EngineError> {
    let mut ex = Experiment::new(cfg, window, true, scratch);
    if let Some(snap) = resume {
        ex = ex
            .resume(snap.state)
            .map_err(EngineError::SnapshotMismatch)?;
    }
    let start = ex.next_epoch();
    let dir = TickDirective::default();
    while !ex.done() {
        // Capture at the epoch boundary: nothing of epoch k has happened
        // yet, so a resume from this state replays epoch k first. The
        // resume boundary itself is not re-captured (`k > start`).
        let k = ex.next_epoch();
        if let Some(out) = out.as_deref_mut() {
            if out.every > 0 && k > start && k.is_multiple_of(out.every) {
                out.emit(ex.snapshot());
            }
        }
        ex.step(&dir, scratch);
    }
    Ok(ex)
}

/// A simulation window: when it runs, which sky it sees, and the offered
/// load at every instant. Single bursts and long campaigns share the same
/// epoch loop through this.
pub(crate) struct RunWindow {
    /// Offered per-server load (req/s) at a given time. Shared, like the
    /// rest of the window, by every thread that steps a rack of a site.
    pub offered_rps: Box<dyn Fn(SimTime) -> f64 + Send + Sync>,
    /// Normalized irradiance trace.
    pub trace: SolarTrace,
    /// Window start.
    pub start: SimTime,
    /// Window length (must be a multiple of the epoch).
    pub duration: SimDuration,
}

impl RunWindow {
    /// The window of one burst of `cfg`: its sky and its burst pattern.
    pub(crate) fn burst(cfg: &EngineConfig) -> Self {
        let trace = cfg
            .trace_override
            .clone()
            .unwrap_or_else(|| cfg.availability.trace(cfg.seed));
        let start = SimTime::from_secs_f64(cfg.burst_start_hour * 3_600.0);
        let end = start + cfg.burst_duration;
        let burst =
            ProfileTable::cached(cfg.app).burst_pattern(cfg.burst_intensity_cores, start, end);
        RunWindow {
            offered_rps: Box::new(move |t| burst.offered_rps(t)),
            trace,
            start,
            duration: cfg.burst_duration,
        }
    }
}

/// What an external driver injects into one epoch, decided before the
/// epoch executes. The default directive is a strict no-op: every field
/// leaves the loop's own arithmetic untouched, so a driver that steps
/// with `TickDirective::default()` forever reproduces a batch run
/// bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct TickDirective {
    /// Replace the trace-derived renewable AC supply with a live reading
    /// (watts, clamped non-negative; plan-driven supply faults still
    /// scale it — a live feed does not bypass the physical fault layer).
    pub supply_w: Option<f64>,
    /// Declare the telemetry feed stale for this epoch: the controller
    /// sees no fresh supply observation and the PSS routes into safe
    /// mode, exactly as under a sensor-dropout fault.
    pub telemetry_stale: bool,
    /// Force one rung of failover-ladder demotion before this epoch
    /// plans (serve's `--overrun degrade` policy). Ignored when the
    /// guardrail is off or already at the Normal floor.
    pub demote: Option<String>,
    /// Scale the window's nominal offered load by this factor for the
    /// epoch (clamped non-negative). The datacenter broker's routing
    /// seam: `Some(0.0)` drains a rack, `Some(2.0)` doubles its share.
    /// `None` leaves the nominal stream untouched.
    pub load_factor: Option<f64>,
}

/// A PMK for `strategy` with the configured switching hysteresis — every
/// controller the loop runs (the strategy's, the shadow, a demoted rung).
fn pmk_for(cfg: &EngineConfig, strategy: Strategy, profiles: &ProfileTable) -> Pmk {
    let mut pmk = Pmk::new(strategy, profiles);
    pmk.hysteresis = cfg.switch_hysteresis;
    pmk
}

/// Check that `st` is a loop state of an `n_epochs`-epoch window of `cfg`
/// under `strategy`: every per-server vector has one entry per server,
/// the thermal packages match the thermal model, the fault cursor
/// matches the fault plan, the learner and the guardrail are present
/// exactly when the run carries them (a pending learner update inside
/// the table, the guardrail on the strategy's ladder), the Monitor is
/// present exactly when the run keeps `history`, and the records (one
/// per executed epoch when it does, else none) and counters agree with
/// the epoch it resumes at. A state that passes cannot index out of
/// bounds in [`EpochLoop::step`].
pub(crate) fn check_state(
    st: &LoopState,
    cfg: &EngineConfig,
    strategy: Strategy,
    n_epochs: u64,
    history: bool,
) -> Result<(), String> {
    let n = cfg.green.green_servers;
    let thermals = if cfg.thermal == ThermalModel::Disabled {
        0
    } else {
        n
    };
    let events = cfg.fault_plan.as_ref().map_or(0, |p| p.events.len());
    for (name, len, want) in [
        ("prev_settings", st.prev_settings.len(), n),
        ("batteries", st.batteries.len(), n),
        ("grid_recharging", st.grid_recharging.len(), n),
        ("down_left", st.down_left.len(), n),
        ("health_streak", st.health_streak.len(), n),
        ("thermals", st.thermals.len(), thermals),
        ("fade_done", st.fade_done.len(), events),
    ] {
        if len != want {
            return Err(format!(
                "loop state {name} has {len} entries where this {n}-server configuration needs {want}"
            ));
        }
    }
    if !st.watchdog.tracks(n) {
        return Err(format!(
            "loop state watchdog does not track exactly {n} servers"
        ));
    }
    let presence = |want: bool| if want { "missing" } else { "unexpected" };
    // Only Hybrid carries a learner (`Pmk::new`).
    let learned = strategy == Strategy::Hybrid;
    if st.learner.is_some() != learned {
        return Err(format!(
            "loop state learner is {} for a {strategy} run",
            presence(learned)
        ));
    }
    if let Some((s, _)) = st.pending_q.filter(|(s, _)| !s.in_range()) {
        return Err(format!(
            "loop state pending learner update is from state ({}, {}), outside the table",
            s.power_level, s.load_level
        ));
    }
    // An enabled guardrail supervises every strategy with a ladder
    // (`GuardrailState::new`), and its level indexes that ladder.
    match (
        &st.guardrail,
        ladder_for(strategy).filter(|_| cfg.guardrail.enabled),
    ) {
        (None, None) => {}
        (Some(g), Some(ladder)) if g.ladder == ladder && g.level < ladder.len() => {}
        (Some(g), Some(_)) => {
            return Err(format!(
                "loop state guardrail level {} of ladder {:?} is off a {strategy} run's ladder",
                g.level, g.ladder
            ))
        }
        (g, _) => {
            return Err(format!(
                "loop state guardrail is {} for this configuration",
                presence(g.is_none())
            ))
        }
    }
    let records = if history { st.next_epoch } else { 0 };
    if st.epochs.len() as u64 != records || st.next_epoch > n_epochs {
        return Err(format!(
            "loop state holds {} epoch records where {records} are kept, resuming at epoch {} \
             of {n_epochs}",
            st.epochs.len(),
            st.next_epoch
        ));
    }
    if st.monitor.is_some() != history {
        return Err(format!(
            "loop state monitor is {} for a run that keeps {} history",
            presence(history),
            if history { "its" } else { "no" }
        ));
    }
    if st.min_live_servers > n {
        return Err(format!(
            "loop state saw {} live servers on a {n}-server rack",
            st.min_live_servers
        ));
    }
    Ok(())
}

/// Check that `st` is the state of an experiment of `cfg` over an
/// `n_epochs`-epoch window: the strategy run passes [`check_state`]
/// (keeping history when `history`), and the Normal floor is present
/// exactly for a strategy other than Normal, passes [`check_state`] as a
/// history-free Normal run, and is about to run the same epoch.
pub(crate) fn check_experiment(
    st: &ExperimentState,
    cfg: &EngineConfig,
    n_epochs: u64,
    history: bool,
) -> Result<(), String> {
    check_state(&st.main, cfg, cfg.strategy, n_epochs, history)?;
    let floored = cfg.strategy != Strategy::Normal;
    match &st.baseline {
        Some(b) if floored => {
            check_state(b, cfg, Strategy::Normal, n_epochs, false)
                .map_err(|e| format!("Normal floor {e}"))?;
            if b.next_epoch != st.main.next_epoch {
                return Err(format!(
                    "Normal floor resumes at epoch {} but the strategy run at epoch {}",
                    b.next_epoch, st.main.next_epoch
                ));
            }
            Ok(())
        }
        None if !floored => Ok(()),
        b => Err(format!(
            "experiment state's Normal floor is {} for a {} run",
            if b.is_some() { "unexpected" } else { "missing" },
            cfg.strategy
        )),
    }
}

/// One experiment: the strategy run and, for any strategy but Normal, the
/// Normal floor it is judged against, stepped in lockstep from one
/// directive per epoch. The floor gets the directive without its
/// demotion: no ladder supervises Normal.
///
/// Each step lends both loops, in turn, the scratch arena the experiment
/// was created on. Its analytic cache is pure in `(setting, admitted
/// rate)`, so the floor hits the strategy run's solves and a hit returns
/// the bits a solve would; nothing else in it outlives the step that
/// wrote it. Each loop keeps its own rng (`seed ^ strategy_salt`) and DES
/// simulators, so interleaving the two moves no bit of either. The
/// experiment holds no borrow of the arena, so a driver can own it as a
/// value beside its arena (a site's rack).
pub(crate) struct Experiment<'a> {
    main: EpochLoop<'a>,
    floor: Option<EpochLoop<'a>>,
}

impl<'a> Experiment<'a> {
    /// A fresh experiment of `cfg` over `window`, beginning by resetting
    /// `scratch`, the arena every [`Experiment::step`] is then lent. The
    /// strategy run keeps its per-epoch history (epoch records and
    /// Monitor streams) when `history`; the floor's outcome is read only
    /// for its mean goodput and audit, so it never keeps one.
    pub(crate) fn new(
        cfg: &'a EngineConfig,
        window: &'a RunWindow,
        history: bool,
        scratch: &mut EngineScratch,
    ) -> Self {
        // Analytic measurements are pure in (app, setting, rps) on the
        // application's cached table, so runs of the same application may
        // share the scratch's cache.
        scratch.begin_run(cfg.green.green_servers, Some(cfg.app));
        Experiment {
            main: EpochLoop::new(cfg, cfg.strategy, window, history),
            floor: (cfg.strategy != Strategy::Normal)
                .then(|| EpochLoop::new(cfg, Strategy::Normal, window, false)),
        }
    }

    /// Continue this fresh experiment from a snapshot's state instead: the
    /// inverse of [`Experiment::snapshot`]. Refuses a state that does not
    /// fit the experiment ([`check_experiment`]).
    pub(crate) fn resume(mut self, state: ExperimentState) -> Result<Self, String> {
        let main = &self.main;
        check_experiment(&state, main.cfg, main.n_epochs, main.history)?;
        self.main.install(state.main);
        if let (Some(floor), Some(b)) = (self.floor.as_mut(), state.baseline) {
            floor.install(b);
        }
        Ok(self)
    }

    /// The index of the next epoch [`Experiment::step`] runs.
    pub(crate) fn next_epoch(&self) -> u64 {
        self.main.st.next_epoch
    }

    /// Whether every epoch of the window has run.
    pub(crate) fn done(&self) -> bool {
        self.main.st.next_epoch >= self.main.n_epochs
    }

    /// The per-server settings the strategy run's last epoch applied.
    pub(crate) fn settings(&self) -> &[ServerSetting] {
        &self.main.st.prev_settings
    }

    /// Both loops' state at this epoch boundary.
    pub(crate) fn snapshot(&self) -> ExperimentState {
        ExperimentState {
            main: self.main.snapshot(),
            baseline: self.floor.as_ref().map(EpochLoop::snapshot),
        }
    }

    /// Run the next epoch of both loops under `dir`, on the arena the
    /// experiment was created on, and return the strategy run's record.
    pub(crate) fn step(&mut self, dir: &TickDirective, scratch: &mut EngineScratch) -> EpochRecord {
        let rec = self.main.step(dir, scratch);
        if let Some(floor) = self.floor.as_mut() {
            let floor_dir = TickDirective {
                supply_w: dir.supply_w,
                telemetry_stale: dir.telemetry_stale,
                demote: None,
                load_factor: dir.load_factor,
            };
            floor.step(&floor_dir, scratch);
        }
        rec
    }

    /// The strategy run's learned policy as it stands (JSON), for a
    /// caller that exports it after the last epoch.
    pub(crate) fn policy(&self) -> Option<String> {
        self.main.pmk.learner().map(QLearner::to_json)
    }

    /// End both runs: the strategy run's raw outcome (not yet judged) and
    /// Monitor streams, and the floor's outcome (`None` for a Normal
    /// strategy, which is its own).
    pub(crate) fn finish(self) -> (BurstOutcome, Monitor, Option<BurstOutcome>) {
        let (main, monitor) = self.main.finish();
        (main, monitor, self.floor.map(|f| f.finish().0))
    }
}

/// The scheduling-epoch loop of one run, advanced one epoch per
/// [`EpochLoop::step`]: Monitor, Predictor, PSS and PMK, then measure,
/// settle and observe (paper Fig. 3).
///
/// The run's persistent state is its [`LoopState`], which `step` reads
/// and writes in place: [`EpochLoop::snapshot`] is a clone of it plus the
/// learner's delta from the table it started from, and
/// [`EpochLoop::resume`] installs one. Everything else here is fixed for
/// the run, is rebuilt from the state (the controllers), or is scratch the
/// next epoch overwrites; the scratch arena is lent to each step.
pub(crate) struct EpochLoop<'a> {
    cfg: &'a EngineConfig,
    strategy: Strategy,
    profiles: &'static ProfileTable,
    window: &'a RunWindow,
    app: AppProfile,
    power_model: PowerModel,
    pv: PvArray,
    /// Servers in the rack.
    n: usize,
    /// Epochs in the window.
    n_epochs: u64,
    /// Whether the run keeps its per-epoch history: the epoch records
    /// and the Monitor streams. Its outcome's scalars do not read them.
    history: bool,
    /// The auditor's breaker cap: every server at Normal mode full-tilt
    /// plus every charger at its C-rate limit — fades only ever lower the
    /// real draw below the cap computed from the fresh specs.
    grid_cap_w: f64,
    /// The percentile latency has two readers: the learner's reward and
    /// the guardrail's detectors. A run with neither never bisects for
    /// it. Both are fixed for the run: a quarantine rebuilds `pmk` with
    /// the same strategy, and the guardrail is never dropped.
    reads_latency: bool,
    /// The table Hybrid's learner starts from: the warm policy, else the
    /// profile bootstrap `Pmk::new` installed (borrowed from the
    /// process-wide cache). Snapshots store the learner as its delta from
    /// this table, and a resume rebuilds the table the same way before
    /// applying the delta.
    q_base: Option<Cow<'static, QLearner>>,
    /// The configured strategy's controller.
    pmk: Pmk,
    /// The guardrail's certified fallback, scored in shadow every epoch.
    shadow_pmk: Option<Pmk>,
    /// The demoted rung's controller, steering instead of `pmk` while the
    /// ladder level is above 0. Rebuilt from the guardrail level rather
    /// than persisted: every rung below the top is learner-free, so the
    /// strategy name is its entire state.
    fallback_pmk: Option<Pmk>,
    /// The guardrail's corruption verdict on `pmk`'s table, kept
    /// incrementally: set once a full scan finds no corrupt cell, and kept
    /// across clean `update`s by checking the one cell each writes. A
    /// poison, a quarantine reset, every ladder change, and run start or
    /// resume (it is never snapshotted) clear it, so the next check scans.
    table_known_clean: bool,
    /// Per-server request-level simulators; empty under analytic
    /// measurement, which is the only mode that snapshots.
    sims: Vec<ServerSim>,
    st: LoopState,
}

/// One epoch's intermediates, handed from phase to phase. Never
/// serialized: the next epoch rebuilds all of it.
#[derive(Default)]
struct Epoch {
    k: u64,
    t: SimTime,
    /// Planning lookahead: the time to the window's end, capped at an
    /// hour (a campaign's controller cannot know a day ahead when load
    /// will subside).
    remaining: SimDuration,
    faults: ActiveFaults,
    /// What the bus physically delivers from the renewable side (W).
    re_actual_w: f64,
    /// Servers carrying load, and the capacity the plan divides by.
    live_count: usize,
    plan_n: usize,
    /// The representative server for reward scoring: the first live
    /// (else first up) one.
    rep: Option<usize>,
    /// This epoch's sensor reading, and the one the controller sees.
    fresh_obs_w: Option<f64>,
    obs_w: Option<f64>,
    re_believed_w: f64,
    offered: f64,
    re_pred_w: f64,
    load_pred: f64,
    /// The ladder level steering this epoch (0 = the configured strategy).
    steering_level: usize,
    waterfall: bool,
    use_instant: bool,
    /// The learner state the representative server decided from.
    q_state: Option<QState>,
    /// Per-server offered load once redistributed onto the live fleet.
    served_rps: f64,
    re_used_w: f64,
    battery_w: f64,
    charged_w: f64,
    /// Source-side deliveries into servers, settled independently of the
    /// meters so the auditor can balance the books against them.
    settled_server_wh: f64,
    dead_server_wh: f64,
    epoch_grid_recharge_wh: f64,
    goodput: f64,
    soc: f64,
}

impl<'a> EpochLoop<'a> {
    /// A fresh run of `strategy` over `window`, measured against the
    /// application's process-wide profile table, keeping its per-epoch
    /// history when `history`.
    pub(crate) fn new(
        cfg: &'a EngineConfig,
        strategy: Strategy,
        window: &'a RunWindow,
        history: bool,
    ) -> Self {
        let profiles = ProfileTable::cached(cfg.app);
        let app = cfg.app.profile();
        let n = cfg.green.green_servers;
        let mut rng = SimRng::seed_from_u64(cfg.seed ^ strategy_salt(strategy));
        // Forking the per-server DES streams is part of the pinned master rng
        // sequence whether or not the run is analytic; only DES mode pays to
        // materialize the simulators themselves.
        let sims: Vec<ServerSim> = match cfg.measurement {
            MeasurementMode::Des => (0..n).map(|_| ServerSim::new(rng.fork())).collect(),
            MeasurementMode::Analytic => {
                for _ in 0..n {
                    let _ = rng.fork();
                }
                Vec::new()
            }
        };
        let batteries: Vec<Option<Battery>> = (0..n)
            .map(|_| cfg.green.battery_spec().map(Battery::new_full))
            .collect();
        let pv = cfg.green.pv_array();
        let mut pmk = pmk_for(cfg, strategy, profiles);
        let q_base: Option<Cow<'static, QLearner>> =
            pmk.learner_mut()
                .map(|learner| match &cfg.warm_policy_json {
                    Some(json) => match QLearner::from_json(json) {
                        Ok(warm) => {
                            *learner = warm.clone();
                            Cow::Owned(warm)
                        }
                        Err(e) => panic!("invalid warm_policy_json: {e}"),
                    },
                    None => QLearner::bootstrapped(profiles),
                });
        // Policy guardrail: shadow-score a certified fallback each epoch and
        // demote down the failover ladder when the active policy misbehaves.
        // Normal has no ladder, so the floor is never supervised.
        let guardrail = if cfg.guardrail.enabled {
            GuardrailState::new(strategy)
        } else {
            None
        };
        let shadow_pmk = guardrail
            .as_ref()
            .map(|_| pmk_for(cfg, cfg.guardrail.fallback, profiles));
        let reads_latency = !pmk.is_learner_free() || guardrail.is_some();
        let power_model = app.power_model();
        let grid_cap_w = n as f64 * power_model.power_w(ServerSetting::normal(), 1.0)
            + batteries
                .iter()
                .flatten()
                .map(|b| b.spec().max_charge_power_w())
                .sum::<f64>();
        let thermals: Vec<gs_thermal::ThermalPackage> = cfg
            .thermal
            .prewarmed_package()
            .map_or_else(Vec::new, |pkg| vec![pkg.clone(); n]);
        let n_epochs = window
            .duration
            .div_duration(cfg.epoch)
            .expect("validated in Engine::new");
        let mut st = LoopState {
            next_epoch: 0,
            rng,
            batteries,
            // Paper case 3: "Recharging is activated when battery depth of
            // discharge reaches the set goal (40% DoD)" — a latch per
            // battery; once triggered, the grid tops the unit back up
            // whenever its server is not sprinting, until full.
            grid_recharging: vec![false; n],
            in_burst_grid_recharge_wh: 0.0,
            predictor: Predictor::new(),
            cs_predictor: crate::predictor::ClearSkyIndexedPredictor::new(pv.peak_ac_watts()),
            learner: None,
            pending_q: None,
            prev_settings: vec![ServerSetting::normal(); n],
            setting_transitions: 0,
            fade_done: cfg
                .fault_plan
                .as_ref()
                .map_or_else(Vec::new, |p| vec![false; p.events.len()]),
            watchdog: ActuationWatchdog::with_threshold(n, cfg.watchdog_threshold),
            safe_supply: gs_power::pss::SafeSupplyEstimator::new(),
            last_raw_obs_w: None,
            fault_epochs: 0,
            safe_mode_epochs: 0,
            watchdog_clamped_epochs: 0,
            meter: PowerMeter::new(),
            monitor: history.then(Monitor::new),
            // Pre-sized (capacity only — none of it is serialized) so the
            // loop never reallocates it; the monitor likewise below.
            epochs: Vec::with_capacity(if history { n_epochs as usize } else { 0 }),
            // `-0.0`, the start value of a float `Sum`.
            re_produced_wh: -0.0,
            goodput_sum: 0.0,
            offered_sum: 0.0,
            re_sum_w: 0.0,
            peak_temp_c: thermals.first().map_or(0.0, |p| p.temp_c()),
            thermals,
            thermal_throttle_epochs: 0,
            audit_violations: Vec::new(),
            audited_grid_wh: 0.0,
            audited_curtailed_wh: 0.0,
            guardrail,
            // A full fleet starts with every health streak at the rejoin
            // threshold: every server is trusted with load from epoch 0.
            down_left: vec![0; n],
            health_streak: vec![REJOIN_EPOCHS; n],
            dead_server_epochs: 0,
            straggler_epochs: 0,
            min_live_servers: n,
            fleet_events: Vec::new(),
        };
        if let Some(monitor) = st.monitor.as_mut() {
            monitor.reserve_epochs(n, n_epochs as usize);
        }
        EpochLoop {
            cfg,
            strategy,
            profiles,
            window,
            app,
            power_model,
            pv,
            n,
            n_epochs,
            history,
            grid_cap_w,
            reads_latency,
            q_base,
            pmk,
            shadow_pmk,
            fallback_pmk: None,
            table_known_clean: false,
            sims,
            st,
        }
    }

    /// Continue this fresh loop from a snapshot's state instead: the
    /// inverse of [`EpochLoop::snapshot`]. The caller has checked that the
    /// state fits the run ([`check_state`]).
    fn install(&mut self, mut state: LoopState) {
        // The learner still holds `q_base`, the delta's base.
        if let (Some(delta), Some(l)) = (state.learner.take(), self.pmk.learner_mut()) {
            l.apply_delta(&delta);
        }
        self.fallback_pmk = state
            .guardrail
            .as_ref()
            .filter(|g| g.level > 0)
            .map(|g| pmk_for(self.cfg, g.active_strategy(), self.profiles));
        if let Some(monitor) = state.monitor.as_mut() {
            let left = (self.n_epochs - state.next_epoch) as usize;
            state.epochs.reserve(left);
            monitor.reserve_epochs(self.n, left);
        }
        self.st = state;
    }

    /// The loop's state at this epoch boundary: resuming from it replays
    /// the next epoch first and finishes byte-identically.
    fn snapshot(&self) -> LoopState {
        let mut state = self.st.clone();
        state.learner = self
            .pmk
            .learner()
            .zip(self.q_base.as_deref())
            .map(|(l, base)| l.delta_from(base));
        state
    }

    /// Run the next epoch under `dir`, on the lent scratch arena `sc`, and
    /// return its record.
    fn step(&mut self, dir: &TickDirective, sc: &mut EngineScratch) -> EpochRecord {
        let k = self.st.next_epoch;
        debug_assert!(k < self.n_epochs, "stepped past the window");
        let t = self.window.start + SimDuration::from_micros(self.cfg.epoch.as_micros() * k);
        if let Some(reason) = &dir.demote {
            self.forced_demotion(k, reason);
        }
        let mut e = self.faults_and_health(k, t, dir, sc);
        self.sense_and_predict(&mut e, dir);
        self.battery_budgets(&e, sc);
        let case = self.decide(&mut e, sc);
        self.actuate(&e, sc);
        self.measure(&mut e, sc);
        self.settle(&mut e, sc);
        self.grid_recharge(&mut e, sc);
        self.audit(&e, sc);
        self.thermal(&e, sc);
        self.observe(&mut e, sc);
        self.learn_and_guard(&e, sc);
        self.record(&e, case, sc)
    }

    /// A driver-forced demotion (serve's `--overrun degrade`), applied
    /// before the epoch plans.
    fn forced_demotion(&mut self, k: u64, reason: &str) {
        let Some(g) = self.st.guardrail.as_mut() else {
            return;
        };
        if g.force_demote(k, reason) {
            self.table_known_clean = false;
            self.fallback_pmk = Some(pmk_for(self.cfg, g.active_strategy(), self.profiles));
            // The learner is not suspect (the trigger was a deadline
            // overrun, not corruption), so it is benched rather than
            // quarantined — but a Bellman update graded on an epoch the
            // fallback steered would be bogus, so the pending update is
            // dropped.
            self.st.pending_q = None;
        }
    }

    /// Faults and fleet health: which injected faults are in force, what
    /// the bus physically delivers, and which servers are up and carry
    /// load.
    fn faults_and_health(
        &mut self,
        k: u64,
        t: SimTime,
        dir: &TickDirective,
        sc: &mut EngineScratch,
    ) -> Epoch {
        let cfg = self.cfg;
        let n = self.n;
        let st = &mut self.st;
        let fleet = &mut sc.fleet;
        let end = self.window.start + self.window.duration;
        let remaining = (end - t).min(SimDuration::from_mins(60));
        let faults = cfg
            .fault_plan
            .as_ref()
            .map_or_else(ActiveFaults::default, |p| p.active_during(t, t + cfg.epoch));
        if faults.any() {
            st.fault_epochs += 1;
        }
        // Supply faults are physical: the inverter/breaker shapes what the
        // bus actually delivers, before any sensor sees it. A live-feed
        // directive replaces the trace-derived input, not the fault layer.
        let re_actual_w = match dir.supply_w {
            Some(w) => w.max(0.0) * faults.supply_factor,
            None => {
                self.pv
                    .ac_output(self.window.trace.window_mean(t, t + cfg.epoch))
                    * faults.supply_factor
            }
        };
        // Battery fade is permanent; each fade event applies exactly once,
        // when it first overlaps an epoch.
        for &(idx, factor) in &faults.fades {
            if !st.fade_done[idx] {
                st.fade_done[idx] = true;
                for b in st.batteries.iter_mut().flatten() {
                    b.fade_capacity(factor);
                }
            }
        }
        // Q-table poisoning is software corruption: it hits whichever
        // policy is steering, once per event. While a learner-free ladder
        // level steers there is nothing to poison and the event is spent.
        for &(idx, magnitude) in &faults.poisons {
            if !st.fade_done[idx] {
                st.fade_done[idx] = true;
                let steering = self.fallback_pmk.as_mut().unwrap_or(&mut self.pmk);
                if let Some(l) = steering.learner_mut() {
                    l.poison(magnitude);
                    self.table_known_clean = false;
                }
            }
        }
        // Fleet faults. A crash charges its outage onto the server's
        // countdown exactly once; a flap takes the server down on
        // alternating epochs of its window; either way the server's health
        // streak resets, and it only regains load after `REJOIN_EPOCHS`
        // consecutive healthy epochs.
        for &(idx, server, crash_epochs) in &faults.crashes {
            let i = usize::from(server);
            if i < n && !st.fade_done[idx] {
                st.fade_done[idx] = true;
                st.down_left[i] = st.down_left[i].max(crash_epochs);
                st.fleet_events.push(format!(
                    "epoch {k}: server {i} crashed for {crash_epochs} epoch(s)"
                ));
            }
        }
        for i in 0..n {
            fleet.up[i] = st.down_left[i] == 0 && !faults.flap_down(i, t, cfg.epoch);
        }
        for i in 0..n {
            if fleet.up[i] {
                if st.health_streak[i] + 1 == REJOIN_EPOCHS {
                    st.fleet_events
                        .push(format!("epoch {k}: server {i} rejoined the plan"));
                }
                st.health_streak[i] = (st.health_streak[i] + 1).min(REJOIN_EPOCHS);
            } else {
                if st.health_streak[i] > 0 {
                    st.fleet_events
                        .push(format!("epoch {k}: server {i} went down"));
                }
                st.health_streak[i] = 0;
                st.dead_server_epochs += 1;
                // A dead server's control state is gone with it: the
                // watchdog forgets its streaks and the hysteresis
                // incumbent resets to Normal (it reboots into Normal).
                st.watchdog.reset(i);
                st.prev_settings[i] = ServerSetting::normal();
                if st.down_left[i] > 0 {
                    st.down_left[i] -= 1;
                }
            }
        }
        // `live` servers carry load and are sprint-planned; `up` servers
        // that have not yet served their rejoin probation idle at Normal.
        for i in 0..n {
            fleet.live[i] = fleet.up[i] && st.health_streak[i] >= REJOIN_EPOCHS;
        }
        let live_count = fleet.live.iter().filter(|&&l| l).count();
        st.min_live_servers = st.min_live_servers.min(live_count);
        Epoch {
            k,
            t,
            remaining,
            faults,
            re_actual_w,
            live_count,
            // Plan against the believed live capacity.
            plan_n: live_count.max(1),
            rep: fleet
                .live
                .iter()
                .position(|&l| l)
                .or_else(|| fleet.up.iter().position(|&u| u)),
            ..Epoch::default()
        }
    }

    /// Sensing and prediction: what the controller believes the supply
    /// is, the offered load, and the Predictor's forecasts.
    fn sense_and_predict(&mut self, e: &mut Epoch, dir: &TickDirective) {
        let st = &mut self.st;
        // Telemetry faults shape what the controller *believes*: a dropout
        // yields no reading at all; a delay serves last epoch's raw
        // reading; meter bias scales whatever the sensor outputs. A
        // driver-declared stale feed is indistinguishable from a dropout.
        e.fresh_obs_w = (!e.faults.sensor_dropout && !dir.telemetry_stale)
            .then_some(e.re_actual_w * e.faults.meter_factor);
        e.obs_w = if e.faults.telemetry_delay {
            st.last_raw_obs_w
        } else {
            e.fresh_obs_w
        };
        let in_safe_mode = e.obs_w.is_none();
        e.re_believed_w = match e.obs_w {
            Some(w) => {
                st.safe_supply.observe_good(w);
                w
            }
            None => {
                // Safe mode: never plan against unverified supply — assume
                // the worst recent verified observation, decayed.
                st.safe_supply.mark_stale();
                st.predictor.mark_re_stale();
                st.safe_mode_epochs += 1;
                st.safe_supply.planning_supply_w()
            }
        };
        // The broker's routing seam: a driver-supplied load factor scales
        // the nominal offered stream (None — every batch path — is exactly
        // the nominal stream, so routing-free runs stay byte-identical).
        let route_factor = dir.load_factor.map(|f| f.max(0.0));
        e.offered = (self.window.offered_rps)(e.t) * route_factor.unwrap_or(1.0);
        if let (Some(f), Some(monitor)) = (route_factor, st.monitor.as_mut()) {
            monitor.record_route(e.t, f);
        }

        // Predictions (fall back to the live observation on the first
        // epoch — the Monitor publishes it either way). In safe mode every
        // prediction is capped by the safe-mode supply estimate.
        let re_believed_w = e.re_believed_w;
        e.re_pred_w = match self.cfg.predictor {
            PredictorKind::PaperEwma => {
                if in_safe_mode {
                    st.predictor
                        .re_supply_conservative(re_believed_w)
                        .min(re_believed_w)
                } else {
                    st.predictor.re_supply_w(re_believed_w)
                }
            }
            PredictorKind::ClearSkyIndexed => {
                let p = if e.k == 0 {
                    re_believed_w
                } else {
                    st.cs_predictor.predict_w(e.t)
                };
                if in_safe_mode {
                    p.min(re_believed_w)
                } else {
                    p
                }
            }
        };
        e.load_pred = st.predictor.workload_rps(e.offered);
    }

    /// Battery budgets: what each pack can sustain for this epoch, over
    /// the planning horizon, and over the rest of the window.
    fn battery_budgets(&mut self, e: &Epoch, sc: &mut EngineScratch) {
        let cfg = self.cfg;
        let batteries = &self.st.batteries;
        let fleet = &mut sc.fleet;
        let horizon = e.remaining.min(cfg.planning_horizon).max(cfg.epoch);
        for (slot, b) in fleet.instant_w.iter_mut().zip(batteries) {
            *slot = b.as_ref().map_or(0.0, |b| {
                sustainable_power_memo(&mut fleet.budget_memo[0], b, cfg.epoch)
            });
        }
        for (slot, b) in fleet.sustained_horizon_w.iter_mut().zip(batteries) {
            *slot = b.as_ref().map_or(0.0, |b| {
                sustainable_power_memo(&mut fleet.budget_memo[1], b, horizon)
            });
        }
        for (slot, b) in fleet.sustained_remaining_w.iter_mut().zip(batteries) {
            *slot = b.as_ref().map_or(0.0, |b| {
                sustainable_power_memo(&mut fleet.budget_memo[2], b, e.remaining.max(cfg.epoch))
            });
        }
        // SoC misreport scales the *controller's view* of every battery
        // budget; the physical packs (and settlement) are untouched.
        if e.faults.soc_report_factor != 1.0 {
            for v in fleet
                .instant_w
                .iter_mut()
                .chain(fleet.sustained_horizon_w.iter_mut())
                .chain(fleet.sustained_remaining_w.iter_mut())
            {
                *v *= e.faults.soc_report_factor;
            }
        }
    }

    /// The PMK decision per green server with the PSS check, approximating
    /// the paper's per-server optimization (Eq. 2–3):
    ///
    /// * If every battery can cover its share of the full-sprint deficit
    ///   for the *whole remaining burst*, the optimum is the uniform one —
    ///   everyone sprints, renewable split evenly, batteries topping up
    ///   (the budget then uses the remaining-burst sustainable power).
    /// * Otherwise scarce green power is allocated *waterfall*-style:
    ///   earlier servers claim what they need and later ones plan with the
    ///   remainder, concentrating supply on a subset of full-sprint servers
    ///   instead of spreading it below the idle floor.
    ///
    /// Greedy is uniform by definition ("simply activate all cores") and
    /// always splits the supply evenly. Returns the epoch's supply case.
    fn decide(&mut self, e: &mut Epoch, sc: &mut EngineScratch) -> SupplyCase {
        let n = self.n;
        // A demoted ladder level plans as the strategy actually steering.
        let guard = self.st.guardrail.as_ref();
        let steering_strategy = guard.map_or(self.strategy, |g| g.active_strategy());
        e.steering_level = guard.map_or(0, |g| g.level);
        let planning = matches!(
            steering_strategy,
            Strategy::Parallel | Strategy::Pacing | Strategy::Hybrid
        );
        // Cumulative renewable production over the burst so far — the
        // planners' estimate of the *future mean* supply (the reactive
        // EWMA would thrash the sustainability test on every cloud
        // flicker).
        self.st.re_sum_w += e.re_believed_w;
        let re_mean_w = self.st.re_sum_w / (e.k + 1) as f64;
        let full_sprint_w = self
            .profiles
            .planned_power_w(ServerSetting::max_sprint(), e.load_pred);
        // Capacity re-plan: the deficit and the sustainability test are
        // taken over the *live* fleet — dead servers neither claim supply
        // nor owe battery coverage. `plan_n == n` on a healthy fleet, so
        // the arithmetic (and its float bits) is unchanged there.
        let deficit_share = (full_sprint_w - re_mean_w / e.plan_n as f64).max(0.0);
        let fleet = &sc.fleet;
        let uniform_sustainable = deficit_share <= 1e-9
            || (0..n).all(|i| !fleet.live[i] || fleet.sustained_remaining_w[i] >= deficit_share);
        e.waterfall = planning && !uniform_sustainable;
        // When the whole remaining burst is energetically covered, sprint
        // freely (instantaneous battery budget); otherwise hedge with the
        // planning-horizon sustainable power.
        e.use_instant = planning && uniform_sustainable;

        sc.fleet.begin_epoch();
        let re_pred_w = e.re_pred_w;
        self.plan_settings(e, re_pred_w, sc);

        // Rack-level PSS check against the *observed* renewable supply
        // (identical to the physical supply while telemetry is clean; the
        // safe-mode estimate when it is not — the PSS never plans against
        // unverified supply). The PSS "performs switch tuning based on the
        // discrepancy between the workload power demand and the green
        // power supply" (paper §II): when the prediction overshot, the PMK
        // re-plans against the power the sensors can vouch for before the
        // epoch commits.
        let batt_accept: f64 = self
            .st
            .batteries
            .iter()
            .map(|b| {
                b.as_ref().map_or(0.0, |b| {
                    if b.is_full() {
                        0.0
                    } else {
                        b.spec().max_charge_power_w()
                    }
                })
            })
            .sum();
        let mut plan = self.pss_plan(e, batt_accept, sc);
        if plan.unmet_w > 1.0 {
            let re_believed_w = e.re_believed_w;
            self.plan_settings(e, re_believed_w, sc);
            plan = self.pss_plan(e, batt_accept, sc);
            if plan.unmet_w > 1.0 {
                // Genuine power emergency: finish sprinting (paper §III-B).
                for s in &mut sc.fleet.settings {
                    *s = ServerSetting::normal();
                }
            }
        }
        plan.case
    }

    /// The steering controller's setting for every live server, planned
    /// against `re_plan_w` of renewable supply.
    fn plan_settings(&mut self, e: &mut Epoch, re_plan_w: f64, sc: &mut EngineScratch) {
        let profiles = self.profiles;
        let pmk = self.fallback_pmk.as_mut().unwrap_or(&mut self.pmk);
        let fleet = &mut sc.fleet;
        let st = &mut self.st;
        // Learner-free strategies decide as a pure function of (renewable
        // share, battery budgets, hysteresis incumbent) — everything else
        // is epoch-constant — so one memo entry serves every server
        // presenting the same inputs. Hybrid consumes rng inside
        // `choose`, so it is never memoized.
        let memoize = pmk.is_learner_free();
        let mut re_unclaimed = re_plan_w;
        for i in 0..self.n {
            if !fleet.live[i] {
                // Dead and rejoin-probation servers take no part in sprint
                // planning — and consume no decision randomness, so
                // liveness alone steers the stream.
                fleet.settings[i] = ServerSetting::normal();
                continue;
            }
            let re_share = if e.waterfall {
                re_unclaimed
            } else {
                re_plan_w / e.plan_n as f64
            };
            let sustained = if e.use_instant {
                fleet.instant_w[i]
            } else {
                fleet.sustained_horizon_w[i]
            };
            let key = (
                re_share.to_bits(),
                fleet.instant_w[i].to_bits(),
                sustained.to_bits(),
                st.prev_settings[i],
            );
            let memo_hit = if memoize {
                fleet.decision_memo.get(key)
            } else {
                None
            };
            let s = match memo_hit {
                Some(s) => s,
                None => {
                    let ctx = PmkContext {
                        predicted_load_rps: e.load_pred,
                        re_share_w: re_share,
                        battery_instant_w: fleet.instant_w[i],
                        battery_sustained_w: sustained,
                    };
                    if Some(i) == e.rep {
                        if let Some(learner) = pmk.learner_mut() {
                            e.q_state =
                                Some(learner.state(ctx.instant_budget_w(), ctx.predicted_load_rps));
                        }
                    }
                    let s = pmk.choose(profiles, &ctx, &mut st.rng);
                    let s = pmk.apply_hysteresis(profiles, &ctx, st.prev_settings[i], s);
                    if memoize {
                        fleet.decision_memo.insert(key, s);
                    }
                    s
                }
            };
            if e.waterfall && s.is_sprinting() {
                re_unclaimed = (re_unclaimed - profiles.planned_power_w(s, e.load_pred)).max(0.0);
            }
            fleet.settings[i] = s;
        }
    }

    /// The PSS plan for the sprinting servers' planned demand.
    fn pss_plan(&self, e: &Epoch, batt_accept: f64, sc: &EngineScratch) -> SupplyPlan {
        let fleet = &sc.fleet;
        let sprinting = || (0..self.n).filter(|&i| fleet.settings[i].is_sprinting());
        let demand: f64 = sprinting()
            .map(|i| {
                self.profiles
                    .planned_power_w(fleet.settings[i], e.load_pred)
            })
            .sum();
        let batt_avail: f64 = sprinting().map(|i| fleet.instant_w[i]).sum();
        PowerSourceSelector::new().plan(demand, e.re_believed_w, batt_avail, batt_accept, 0.0)
    }

    /// Actuation: what the control plane *applies* can differ from what
    /// the PMK commanded. Servers the watchdog has clamped are commanded
    /// Normal (the only setting needing no actuation); lost commands and
    /// stuck servers keep their previous setting; a core-activation
    /// failure caps how many cores can come up (deactivation always works
    /// and Normal's cores are already active, so the effective cap never
    /// drops below Normal). A server at its junction limit cannot sprint.
    fn actuate(&mut self, e: &Epoch, sc: &mut EngineScratch) {
        let st = &mut self.st;
        let fleet = &mut sc.fleet;
        for i in 0..self.n {
            fleet.commanded[i] = if st.watchdog.is_clamped(i) {
                ServerSetting::normal()
            } else {
                fleet.settings[i]
            };
        }
        if st.watchdog.clamped_count() > 0 {
            st.watchdog_clamped_epochs += 1;
        }
        for i in 0..self.n {
            if !fleet.up[i] {
                // A dead server applies nothing and the watchdog stays
                // quiet (it was reset on the down transition); it reboots
                // into Normal.
                fleet.settings[i] = ServerSetting::normal();
                continue;
            }
            let applied = if e.faults.command_lost(i) || e.faults.is_stuck(i) {
                st.prev_settings[i]
            } else if let Some(cap) = e.faults.core_cap {
                let cap = cap.clamp(gs_cluster::NORMAL_CORES, gs_cluster::MAX_CORES);
                let c = fleet.commanded[i];
                if c.cores > cap {
                    ServerSetting::new(cap, c.freq_idx)
                } else {
                    c
                }
            } else {
                fleet.commanded[i]
            };
            st.watchdog.observe(i, fleet.commanded[i], applied);
            fleet.settings[i] = applied;
        }

        // Thermal guard: a server at its junction limit cannot sprint,
        // whatever the power situation (paper §II assumes the PCM package
        // keeps this from ever firing during the evaluated bursts; the
        // NoPcm model shows why that assumption was needed).
        for (setting, th) in fleet.settings.iter_mut().zip(&st.thermals) {
            if setting.is_sprinting() && th.is_throttling() {
                *setting = ServerSetting::normal();
            }
        }
    }

    /// Measure the epoch. The offered load redistributes onto the live
    /// servers (a shrunken fleet serves the same rack-level demand); the
    /// `live_count == n` guard keeps the healthy-fleet arithmetic
    /// bit-identical to the pre-fleet code path.
    fn measure(&mut self, e: &mut Epoch, sc: &mut EngineScratch) {
        let cfg = self.cfg;
        let n = self.n;
        e.served_rps = if e.live_count == n || e.live_count == 0 {
            e.offered
        } else {
            e.offered * n as f64 / e.live_count as f64
        };
        let (fleet, analytic_cache) = (&mut sc.fleet, &mut sc.analytic_cache);
        // SoA walk over several parallel arrays; the index form is the
        // clearest way to touch them all in lockstep.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            if !fleet.live[i] {
                // Dead servers serve nothing; probation servers idle at
                // Normal without load until their streak completes.
                fleet.perfs[i] = ServerPerf::IDLE;
                continue;
            }
            let setting = fleet.settings[i];
            let perf = match cfg.measurement {
                MeasurementMode::Des => {
                    let admit = self.profiles.get(setting).slo_capacity;
                    ServerPerf::from(&self.sims[i].advance_epoch(
                        &self.app,
                        setting,
                        e.served_rps,
                        admit,
                        cfg.epoch,
                    ))
                }
                // Within one epoch the served rate is constant, so the
                // per-epoch memo (a short linear scan) answers repeats
                // without hashing into the run-scoped cache.
                MeasurementMode::Analytic => {
                    match fleet.perf_memo.iter().find(|(s, _)| *s == setting) {
                        Some(&(_, p)) => p,
                        None => {
                            let p = cached_analytic(
                                analytic_cache,
                                &self.app,
                                self.profiles,
                                setting,
                                e.served_rps,
                                self.reads_latency,
                            );
                            fleet.perf_memo.push((setting, p));
                            p
                        }
                    }
                }
            };
            fleet.perfs[i] = perf;
        }
        // Stragglers degrade delivered goodput on an otherwise-alive
        // server (slow disk, thermal neighbor, NIC trouble) — applied
        // after measurement so power and latency stay those of the chosen
        // setting.
        if !e.faults.stragglers.is_empty() {
            for i in 0..n {
                if fleet.up[i] {
                    let factor = e.faults.straggler_factor(i);
                    if factor != 1.0 {
                        fleet.perfs[i].goodput_rps *= factor;
                        self.st.straggler_epochs += 1;
                    }
                }
            }
        }
    }

    /// Settle the actual energy flows: renewable and battery into the
    /// sprinting servers, the grid into the rest, and surplus renewable
    /// into the batteries or curtailment.
    fn settle(&mut self, e: &mut Epoch, sc: &mut EngineScratch) {
        let cfg = self.cfg;
        let n = self.n;
        let epoch_hours = cfg.epoch.as_hours_f64();
        let st = &mut self.st;
        let (fleet, analytic_cache) = (&mut sc.fleet, &mut sc.analytic_cache);
        fleet.sprinting.clear();
        for i in 0..n {
            if fleet.settings[i].is_sprinting() {
                fleet.sprinting.push(i);
            }
        }
        // A dead server draws nothing — 0 W, not an idle floor; the
        // auditor checks the settled books agree.
        for i in 0..n {
            fleet.actual_power[i] = if fleet.up[i] {
                self.power_model
                    .power_w(fleet.settings[i], fleet.perfs[i].utilization)
            } else {
                0.0
            };
        }
        e.dead_server_wh = (0..n)
            .filter(|&i| !fleet.up[i])
            .map(|i| fleet.actual_power[i] * epoch_hours)
            .sum();
        let mut re_left = e.re_actual_w;
        let mut re_used_w = 0.0;
        let mut battery_w = 0.0;
        let mut settled_server_wh = 0.0;
        for &i in &fleet.sprinting {
            // Mirror the planning-time allocation: waterfall strategies
            // let earlier servers claim their full draw; uniform ones
            // split the supply evenly.
            let re_share = if e.waterfall {
                re_left
            } else {
                re_left.min(e.re_actual_w / fleet.sprinting.len() as f64)
            };
            let from_re = fleet.actual_power[i].min(re_share);
            re_left -= from_re;
            re_used_w += from_re;
            settled_server_wh += from_re * epoch_hours;
            let shortfall = fleet.actual_power[i] - from_re;
            if shortfall > 0.0 {
                let drain_memo = &mut fleet.drain_memo;
                let out = st.batteries[i]
                    .as_mut()
                    .map(|b| {
                        b.discharge_memoized(shortfall, cfg.epoch, &mut |spec, current| {
                            let key = (current.to_bits(), spec.capacity_ah.to_bits());
                            drain_memo
                                .get_or_insert_with(key, || spec.peukert_drain_ah_per_hour(current))
                        })
                    })
                    .unwrap_or(gs_power::battery::DischargeOutcome {
                        delivered_wh: 0.0,
                        sustained: SimDuration::ZERO,
                    });
                battery_w += out.delivered_wh / epoch_hours;
                settled_server_wh += out.delivered_wh;
                let gap_wh = shortfall * epoch_hours - out.delivered_wh;
                if gap_wh > 1e-9 {
                    // The battery (or a renewable prediction error) could
                    // not carry the sprint through the whole epoch: the
                    // server drops back to Normal mode on the grid for the
                    // remainder, and the epoch's performance is settled as
                    // the time-weighted blend of the two regimes.
                    let w = (out.sustained.as_secs_f64() / cfg.epoch.as_secs_f64()).clamp(0.0, 1.0);
                    let normal_perf = cached_analytic(
                        analytic_cache,
                        &self.app,
                        self.profiles,
                        ServerSetting::normal(),
                        e.served_rps,
                        self.reads_latency,
                    );
                    fleet.perfs[i] = fleet.perfs[i].blend(&normal_perf, w);
                    let normal_power = self
                        .power_model
                        .power_w(ServerSetting::normal(), normal_perf.utilization);
                    st.meter
                        .record(Source::Grid, normal_power * (1.0 - w), epoch_hours);
                    settled_server_wh += normal_power * (1.0 - w) * epoch_hours;
                }
            }
        }
        st.meter.record(Source::Renewable, re_used_w, epoch_hours);
        st.meter.record(Source::Battery, battery_w, epoch_hours);
        // Normal-mode servers ride the grid budget; dead servers draw
        // nothing and are never metered.
        for i in 0..n {
            if !fleet.settings[i].is_sprinting() && fleet.up[i] {
                st.meter
                    .record(Source::Grid, fleet.actual_power[i], epoch_hours);
                settled_server_wh += fleet.actual_power[i] * epoch_hours;
            }
        }
        // Surplus renewable charges the batteries; the rest is curtailed.
        let mut charged_w = 0.0;
        if re_left > 0.0 {
            fleet.open.clear();
            for (i, b) in st.batteries.iter().enumerate() {
                if b.as_ref().is_some_and(|b| !b.is_full()) {
                    fleet.open.push(i);
                }
            }
            if !fleet.open.is_empty() {
                let share = re_left / fleet.open.len() as f64;
                for &i in &fleet.open {
                    let drawn = st.batteries[i]
                        .as_mut()
                        .expect("filtered to Some")
                        .charge(share, cfg.epoch);
                    charged_w += drawn;
                }
            }
            st.meter
                .record_curtailment(re_left - charged_w, epoch_hours);
        }
        e.re_used_w = re_used_w;
        e.battery_w = battery_w;
        e.settled_server_wh = settled_server_wh;
        e.charged_w = charged_w;
    }

    /// Grid recharge (paper case 3): once a battery reaches its DoD goal
    /// it recharges from the grid — but only "if the workload burst can be
    /// completed in this period", i.e. while no sprint-worthy demand is
    /// pending. Recharging *during* a burst would amortize grid energy
    /// into the sprint, exactly the budget overdraw the green bus exists
    /// to avoid.
    fn grid_recharge(&mut self, e: &mut Epoch, sc: &EngineScratch) {
        let cfg = self.cfg;
        let epoch_hours = cfg.epoch.as_hours_f64();
        let st = &mut self.st;
        let fleet = &sc.fleet;
        let burst_pending = e.offered > self.profiles.get(ServerSetting::normal()).slo_capacity;
        for i in 0..self.n {
            let Some(b) = st.batteries[i].as_mut() else {
                continue;
            };
            // Trigger at (or within a whisker of) the DoD goal — exact
            // floor equality rarely happens because the PSS re-plan backs
            // off just before the last milliamp-hour.
            if b.dod_fraction() >= b.spec().max_dod - 0.02 {
                st.grid_recharging[i] = true;
            }
            if st.grid_recharging[i] && !fleet.settings[i].is_sprinting() && !burst_pending {
                let drawn = b.charge(b.spec().max_charge_power_w(), cfg.epoch);
                if drawn > 0.0 {
                    st.meter.record(Source::Grid, drawn, epoch_hours);
                    st.in_burst_grid_recharge_wh += drawn * epoch_hours;
                    e.epoch_grid_recharge_wh += drawn * epoch_hours;
                }
            }
            if b.is_full() {
                st.grid_recharging[i] = false;
            }
        }
    }

    /// Audit the epoch's settled books before anything else runs.
    fn audit(&mut self, e: &Epoch, sc: &mut EngineScratch) {
        if !self.cfg.audit {
            return;
        }
        let cfg = self.cfg;
        let n = self.n;
        let epoch_hours = cfg.epoch.as_hours_f64();
        let st = &mut self.st;
        let (fleet, analytic_cache) = (&mut sc.fleet, &mut sc.analytic_cache);
        let grid_now = st.meter.energy_wh(Source::Grid);
        let curtailed_now = st.meter.curtailed_wh();
        fleet.socs.clear();
        fleet.socs.extend(
            st.batteries
                .iter()
                .flatten()
                .map(|b| (b.soc_fraction(), b.spec().max_dod)),
        );
        let mut flows = EpochFlows {
            epoch_index: e.k as usize,
            supply_wh: e.re_actual_w * epoch_hours,
            battery_discharge_wh: e.battery_w * epoch_hours,
            grid_wh: grid_now - st.audited_grid_wh,
            server_wh: e.settled_server_wh,
            charge_wh: e.charged_w * epoch_hours + e.epoch_grid_recharge_wh,
            curtailed_wh: curtailed_now - st.audited_curtailed_wh,
            socs: std::mem::take(&mut fleet.socs),
            grid_cap_w: self.grid_cap_w,
            epoch_hours,
            // While a demoted ladder level steers, the rack must never
            // serve below the Normal floor — failover is a degradation
            // bound, not a license to collapse. The floor is owed by the
            // *live* fleet: a dead server serves nothing and owes nothing.
            // The tolerance absorbs blend rounding (and DES stochasticity
            // vs the analytic floor estimate).
            failover_floor: match st.guardrail.as_ref() {
                Some(g) if g.level > 0 => {
                    // The floor reads goodput only.
                    let normal_perf = cached_analytic(
                        analytic_cache,
                        &self.app,
                        self.profiles,
                        ServerSetting::normal(),
                        e.served_rps,
                        false,
                    );
                    let tol = match cfg.measurement {
                        MeasurementMode::Analytic => 0.99,
                        MeasurementMode::Des => 0.85,
                    };
                    // A straggler degrades Normal-mode serving just as much
                    // as demoted serving; weight its share of the floor
                    // accordingly (1.0 per healthy server).
                    let live_weight: f64 = (0..n)
                        .filter(|&i| fleet.live[i])
                        .map(|i| e.faults.straggler_factor(i))
                        .sum();
                    Some((
                        fleet.perfs.iter().map(|p| p.goodput_rps).sum::<f64>(),
                        normal_perf.goodput_rps * live_weight * tol,
                    ))
                }
                _ => None,
            },
            live_servers: e.live_count,
            dead_server_wh: e.dead_server_wh,
            // The capacity ceiling is exact only on the analytic plane;
            // DES queue drain can legitimately complete a few requests
            // above the per-epoch steady-state capacity.
            goodput_capacity: matches!(cfg.measurement, MeasurementMode::Analytic).then(|| {
                (
                    fleet.perfs.iter().map(|p| p.goodput_rps).sum::<f64>(),
                    e.live_count as f64
                        * self.profiles.get(ServerSetting::max_sprint()).slo_capacity,
                )
            }),
        };
        let mut auditor =
            InvariantAuditor::with_violations(std::mem::take(&mut st.audit_violations));
        auditor.check_epoch(&flows);
        st.audit_violations = auditor.into_violations();
        // Reclaim the SoC list's allocation for the next epoch.
        fleet.socs = std::mem::take(&mut flows.socs);
        st.audited_grid_wh = grid_now;
        st.audited_curtailed_wh = curtailed_now;
    }

    /// Advance the thermal state under the power actually drawn. A sprint
    /// that crosses the junction limit mid-epoch throttles to Normal for
    /// the remainder (hardware DVFS reacts in milliseconds) and the
    /// epoch's performance is blended accordingly.
    fn thermal(&mut self, e: &Epoch, sc: &mut EngineScratch) {
        let epoch = self.cfg.epoch;
        let st = &mut self.st;
        let (fleet, analytic_cache) = (&mut sc.fleet, &mut sc.analytic_cache);
        let mut any_thermal_throttle = false;
        for (i, pkg) in st.thermals.iter_mut().enumerate() {
            if !fleet.settings[i].is_sprinting() {
                pkg.advance(fleet.actual_power[i], epoch);
                st.peak_temp_c = st.peak_temp_c.max(pkg.temp_c());
                continue;
            }
            let total_s = epoch.as_secs().max(1);
            if let Some(s) = pkg.advance_until_limit(fleet.actual_power[i], total_s) {
                any_thermal_throttle = true;
                let w = s as f64 / total_s as f64;
                let normal_perf = cached_analytic(
                    analytic_cache,
                    &self.app,
                    self.profiles,
                    ServerSetting::normal(),
                    e.served_rps,
                    self.reads_latency,
                );
                fleet.perfs[i] = fleet.perfs[i].blend(&normal_perf, w);
                let normal_power = self
                    .power_model
                    .power_w(ServerSetting::normal(), normal_perf.utilization);
                pkg.advance(normal_power, SimDuration::from_secs(total_s - s));
            }
            st.peak_temp_c = st.peak_temp_c.max(pkg.temp_c());
        }
        if any_thermal_throttle {
            st.thermal_throttle_epochs += 1;
        }
    }

    /// Observations → Monitor → Predictor. The Monitor (and everything
    /// downstream of it) sees what the *sensors* report — held-over
    /// last-good values during dropout, biased readings under meter faults
    /// — with quality flags saying which readings to trust. The
    /// EpochRecord keeps the physical values for energy audits.
    fn observe(&mut self, e: &mut Epoch, sc: &EngineScratch) {
        let st = &mut self.st;
        let fleet = &sc.fleet;
        e.goodput = fleet.perfs.iter().map(|p| p.goodput_rps).sum();
        e.soc = mean_soc(&st.batteries);
        if let Some(monitor) = st.monitor.as_mut() {
            let soc_reported = (e.soc * e.faults.soc_report_factor).min(1.0);
            monitor.record_q(
                e.t,
                Observation {
                    re_supply_w: e.obs_w.unwrap_or(0.0),
                    demand_w: fleet.actual_power.iter().sum(),
                    battery_w: e.battery_w,
                    battery_soc: soc_reported,
                    goodput_rps: e.goodput,
                    offered_rps: e.offered,
                },
                ObservationQuality {
                    re_fresh: e.obs_w.is_some(),
                    soc_trusted: e.faults.soc_report_factor == 1.0,
                },
            );
            monitor.record_fleet(e.t, &fleet.up);
        }
        // The EWMA holds its last-good state through dropouts: only
        // verified readings are fed.
        if let Some(w) = e.obs_w {
            st.predictor.observe_re_supply(w);
            st.cs_predictor.observe(e.t, w);
        }
        st.predictor.observe_workload(e.offered);
        // The telemetry delay line advances every epoch; a reading lost to
        // a dropout stays lost (a delayed read of nothing is nothing).
        st.last_raw_obs_w = e.fresh_obs_w;
    }

    /// The learner's Bellman update and the guardrail's verdict, both
    /// graded with Algorithm 1's reward on the representative server. With
    /// the whole fleet down there is nothing to score and no detector has
    /// signal.
    fn learn_and_guard(&mut self, e: &Epoch, sc: &mut EngineScratch) {
        let EpochLoop {
            cfg,
            strategy,
            profiles,
            app,
            power_model,
            n,
            q_base,
            pmk,
            shadow_pmk,
            fallback_pmk,
            table_known_clean,
            st,
            ..
        } = self;
        let (cfg, profiles, strategy, n) = (*cfg, *profiles, *strategy, *n);
        let (app, power_model): (&AppProfile, &PowerModel) = (app, power_model);
        let (fleet, analytic_cache) = (&sc.fleet, &mut sc.analytic_cache);
        let Some(r0) = e.rep else {
            // Whole fleet down: drop any pending Bellman update (there is
            // no epoch to grade it against) and keep the ladder stream
            // continuous for the Monitor.
            st.pending_q = None;
            if let (Some(g), Some(monitor)) = (st.guardrail.as_ref(), st.monitor.as_mut()) {
                monitor.record_ladder(e.t, g.level);
            }
            return;
        };
        let explosion_cap = cfg.guardrail.value_explosion_cap;
        let supply0_w = e.re_believed_w / e.plan_n as f64 + fleet.instant_w[r0];
        // Algorithm 1's reward on the representative server, built only
        // for its two readers below.
        let active_reward = || {
            reward(&reward_inputs(
                app,
                supply0_w,
                fleet.actual_power[r0],
                &fleet.perfs[r0],
            ))
        };

        // Hybrid: reward and Bellman update on the representative server.
        // While a demoted ladder level steers, `pending_q` stays `None`
        // (the steering controller is learner-free), so no update fires.
        if let Some(learner) = pmk.learner_mut() {
            let r = active_reward();
            let next_state = learner.state(supply0_w, e.offered);
            if let Some((s_prev, a_prev)) = st.pending_q {
                let written = learner.update(s_prev, a_prev, r, next_state);
                *table_known_clean &= !corrupt_value(written, explosion_cap);
            }
            st.pending_q = e.q_state.map(|s| (s, fleet.settings[r0]));
        }

        // Guardrail: score the shadow fallback on the same planning
        // context, feed the detectors, and act on the ladder verdict.
        // Demotions and promotions take effect from the next epoch.
        let Some(g) = st.guardrail.as_mut() else {
            return;
        };
        // Shadow decision for the representative server. The fallback
        // strategies are rng-free by construction (GuardrailConfig
        // validation rejects Hybrid), so the throwaway rng preserves the
        // run's main stream byte-for-byte.
        let shadow = shadow_pmk.as_mut().expect("guardrail carries a shadow");
        let shadow_ctx = PmkContext {
            predicted_load_rps: e.load_pred,
            re_share_w: e.re_believed_w / e.plan_n as f64,
            battery_instant_w: fleet.instant_w[r0],
            battery_sustained_w: if e.use_instant {
                fleet.instant_w[r0]
            } else {
                fleet.sustained_horizon_w[r0]
            },
        };
        let mut throwaway = SimRng::seed_from_u64(0);
        let chosen = shadow.choose(profiles, &shadow_ctx, &mut throwaway);
        let shadow_setting = shadow.apply_hysteresis(profiles, &shadow_ctx, g.shadow_prev, chosen);
        g.shadow_prev = shadow_setting;
        let shadow_perf = cached_analytic(
            analytic_cache,
            app,
            profiles,
            shadow_setting,
            e.served_rps,
            true,
        );
        let shadow_inputs = reward_inputs(
            app,
            supply0_w,
            power_model.power_w(shadow_setting, shadow_perf.utilization),
            &shadow_perf,
        );
        let slo_ok = |p: &ServerPerf| {
            p.latency_s() <= app.slo_deadline_s
                && (p.offered_rps <= 0.0 || p.goodput_rps >= 0.9 * p.offered_rps)
        };
        // Corruption check on whichever policy is steering; a learner-free
        // rung has no table to corrupt, so a table here is `pmk`'s and
        // `table_known_clean` speaks for it.
        let table_corrupt = {
            let steering = fallback_pmk.as_mut().unwrap_or(&mut *pmk);
            steering.learner_mut().is_some_and(|l| {
                if !*table_known_clean {
                    *table_known_clean = !l.any_corrupt(explosion_cap);
                }
                debug_assert_eq!(
                    *table_known_clean,
                    !l.any_corrupt(explosion_cap),
                    "the kept corruption verdict drifted from a full scan"
                );
                !*table_known_clean || st.pending_q.is_some_and(|(s, _)| !s.in_range())
            })
        };
        if let Some(monitor) = st.monitor.as_mut() {
            monitor.record_ladder(e.t, e.steering_level);
        }
        let signals = EpochSignals {
            epoch_index: e.k,
            active_reward: active_reward(),
            shadow_reward: reward(&shadow_inputs),
            active_slo_ok: slo_ok(&fleet.perfs[r0]),
            shadow_slo_ok: slo_ok(&shadow_perf),
            battery_discharge_w: e.battery_w,
            planned_battery_w: if e.use_instant {
                fleet.instant_w.iter().sum()
            } else {
                fleet.sustained_horizon_w.iter().sum()
            },
            table_corrupt,
            live_fraction: e.live_count as f64 / n as f64,
        };
        match g.observe(&cfg.guardrail, &signals) {
            GuardrailAction::Demote { reason } => {
                *table_known_clean = false;
                // Quarantine the learner the demoted rung steered with;
                // rungs below the top are learner-free.
                if fallback_pmk.is_none() {
                    if let Some(l) = pmk.learner() {
                        // The event carries the checksum streamed from the
                        // run's start table; the policy's full JSON is
                        // built only for a sidecar.
                        let base = q_base.as_deref().expect("a learner has a start table");
                        let checksum = l.checksum_against(base);
                        debug_assert_eq!(
                            checksum,
                            crate::checkpoint::fingerprint(&[&l.to_json()]),
                            "the streamed quarantine checksum drifted from the full one"
                        );
                        let detail = match cfg.guardrail.quarantine_dir.as_deref() {
                            Some(dir) => {
                                let rec = QuarantineRecord::new(e.k, &reason, l.to_json());
                                match rec.write_to(dir) {
                                    Ok(path) => format!(" -> {path}"),
                                    Err(err) => format!(" (sidecar write failed: {err})"),
                                }
                            }
                            None => String::new(),
                        };
                        g.note_quarantine(e.k, &checksum, &detail);
                        // The quarantined table never steers again: a
                        // future re-promotion restarts from the
                        // deterministic profile bootstrap.
                        *pmk = pmk_for(cfg, strategy, profiles);
                        st.pending_q = None;
                    }
                }
                *fallback_pmk = Some(pmk_for(cfg, g.active_strategy(), profiles));
            }
            GuardrailAction::Promote => {
                *table_known_clean = false;
                *fallback_pmk = (g.level > 0).then(|| pmk_for(cfg, g.active_strategy(), profiles));
                st.pending_q = None;
            }
            GuardrailAction::Hold => {}
        }
    }

    /// Record the epoch: knob transitions, the hysteresis incumbents for
    /// the next epoch, the accumulators, and the epoch's record (kept
    /// only by a run that keeps its history).
    fn record(&mut self, e: &Epoch, case: SupplyCase, sc: &EngineScratch) -> EpochRecord {
        let n = self.n;
        let st = &mut self.st;
        let fleet = &sc.fleet;
        for i in 0..n {
            if fleet.settings[i] != st.prev_settings[i] {
                st.setting_transitions += 1;
            }
        }
        st.prev_settings.copy_from_slice(&fleet.settings);
        st.goodput_sum += e.goodput / n as f64;
        st.offered_sum += e.offered;
        st.re_produced_wh += e.re_actual_w * self.cfg.epoch.as_hours_f64();
        let rec = EpochRecord {
            t: e.t,
            setting: e
                .rep
                .map_or_else(ServerSetting::normal, |r| fleet.settings[r]),
            case,
            re_supply_w: e.re_actual_w,
            re_used_w: e.re_used_w,
            battery_w: e.battery_w,
            demand_w: fleet.actual_power.iter().sum(),
            battery_soc: e.soc,
            offered_rps: e.offered,
            goodput_rps: e.goodput,
            sprinting_servers: fleet.settings.iter().filter(|s| s.is_sprinting()).count() as u8,
            safe_mode: e.obs_w.is_none(),
            ladder_level: e.steering_level as u8,
            live_servers: e.live_count as u8,
        };
        if self.history {
            st.epochs.push(rec);
        }
        st.next_epoch += 1;
        rec
    }

    /// End the run: recharge the batteries from the grid (paper case 3:
    /// "we charge the battery with grid power in anticipation of future
    /// sprints") and assemble the outcome and the Monitor streams.
    fn finish(self) -> (BurstOutcome, Monitor) {
        let st = self.st;
        let mut grid_recharge_wh = st.in_burst_grid_recharge_wh;
        for b in st.batteries.iter().flatten() {
            let missing_ah = (1.0 - b.soc_fraction()) * b.spec().capacity_ah;
            grid_recharge_wh += missing_ah * b.spec().voltage_v / b.spec().charge_efficiency;
        }
        // Completed-epoch count, not the window's nominal count: identical
        // (`== n_epochs`) for every run that finishes the window, and the
        // honest divisor for a drain-stopped serve run.
        let completed = st.next_epoch.max(1);
        let mean_goodput = st.goodput_sum / completed as f64;
        let (failover_epochs, ladder_level, quarantined_tables, guardrail_events) =
            match st.guardrail {
                Some(g) => (
                    g.failover_epochs,
                    g.peak_level,
                    g.quarantined_tables,
                    g.events,
                ),
                None => (0, 0, 0, Vec::new()),
            };
        let outcome = BurstOutcome {
            mean_goodput_rps: mean_goodput,
            normal_baseline_rps: mean_goodput, // replaced by judge()
            speedup_vs_normal: 1.0,
            slo_attainment: if st.offered_sum > 0.0 {
                mean_goodput / (st.offered_sum / completed as f64)
            } else {
                1.0
            },
            re_used_wh: st.meter.energy_wh(Source::Renewable),
            re_charged_wh: {
                // Charged energy is tracked inside the batteries; report the
                // drawn side of it (what left the green bus).
                let used = st.meter.energy_wh(Source::Renewable);
                let avail = used + st.meter.curtailed_wh();
                // Anything produced, not used and not curtailed went to charge.
                (st.re_produced_wh - avail).max(0.0)
            },
            curtailed_wh: st.meter.curtailed_wh(),
            battery_used_wh: st.meter.energy_wh(Source::Battery),
            grid_overload_wh: 0.0,
            grid_recharge_wh,
            battery_cycles: st
                .batteries
                .iter()
                .flatten()
                .map(Battery::equivalent_cycles)
                .sum::<f64>()
                / st.batteries.iter().flatten().count().max(1) as f64,
            setting_transitions: st.setting_transitions,
            thermal_throttle_epochs: st.thermal_throttle_epochs,
            peak_temp_c: st.peak_temp_c,
            fault_epochs: st.fault_epochs,
            safe_mode_epochs: st.safe_mode_epochs,
            watchdog_clamped_epochs: st.watchdog_clamped_epochs,
            floor_held: true, // judged against Normal by judge()
            audit_violations: st.audit_violations,
            failover_epochs,
            ladder_level,
            quarantined_tables,
            guardrail_events,
            dead_server_epochs: st.dead_server_epochs,
            straggler_epochs: st.straggler_epochs,
            min_live_servers: st.min_live_servers,
            fleet_events: st.fleet_events,
            epochs: st.epochs,
        };
        (outcome, st.monitor.unwrap_or_default())
    }
}

/// Deterministic analytic measurement of one epoch: both solves, the
/// goodput and the percentile latency.
pub(crate) fn measure_analytic(
    app: &AppProfile,
    profiles: &ProfileTable,
    setting: ServerSetting,
    offered_rps: f64,
) -> EpochPerf {
    let admitted = offered_rps.min(profiles.get(setting).slo_capacity);
    let perf = analytic_goodput(app, profiles, setting, offered_rps);
    EpochPerf {
        offered_rps,
        admitted_rps: admitted,
        completed_rps: admitted,
        goodput_rps: perf.goodput_rps,
        shed_rps: offered_rps - admitted,
        mean_latency_s: app.station(setting).mean_service_s, // lower bound; diagnostics only
        slo_percentile_latency_s: analytic_latency(app, profiles, setting, offered_rps),
        utilization: perf.utilization,
    }
}

/// The goodput solve of [`measure_analytic`]: the sojourn tail at the SLO
/// deadline on the full quadrature grid. The percentile latency is left
/// unsolved.
fn analytic_goodput(
    app: &AppProfile,
    profiles: &ProfileTable,
    setting: ServerSetting,
    offered_rps: f64,
) -> AdmittedPerf {
    let e = profiles.get(setting);
    let admitted = offered_rps.min(e.slo_capacity);
    let station = app.station(setting);
    let grids = profiles.quad_grids(app.app, setting, station);
    let tail = station.sojourn_tail_with(&grids.full, admitted, app.slo_deadline_s);
    AdmittedPerf::without_latency(
        admitted * (1.0 - tail),
        (admitted / e.raw_capacity).clamp(0.0, 1.0),
    )
}

/// The percentile-latency solve of [`measure_analytic`]. The latency only
/// grades the Hybrid reward's magnitude and the guardrail's SLO check, so
/// a decimated quadrature grid and a short bisection are plenty. The
/// bracket's first probe already holds for every calibrated application
/// and setting, so a bisection makes 26 tail comparisons. One pass of
/// running sums answers them (see [`gs_workload::queueing::TailAtMost`]),
/// each exactly as the full tail sum would.
fn analytic_latency(
    app: &AppProfile,
    profiles: &ProfileTable,
    setting: ServerSetting,
    offered_rps: f64,
) -> f64 {
    let admitted = offered_rps.min(profiles.get(setting).slo_capacity);
    let station = app.station(setting);
    let coarse = &profiles.quad_grids(app.app, setting, station).coarse;
    let target = 1.0 - app.slo_percentile;
    let within = station.tail_at_most(coarse, admitted, target);
    let met = |d: f64| {
        let met = within.at(d);
        debug_assert_eq!(
            met,
            station.sojourn_tail_with(coarse, admitted, d) <= target
        );
        met
    };
    let mut hi = station.mean_service_s * 4.0;
    for _ in 0..40 {
        if met(hi) {
            break;
        }
        hi *= 2.0;
    }
    let mut lo = 0.0;
    for _ in 0..25 {
        let mid = 0.5 * (lo + hi);
        if met(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// The analytic measurement of `setting` at `served_rps` through a run's
/// cache, keyed by the admitted rate `min(served_rps, SLO capacity)`:
/// both solves read the rate only in that form, so every served rate at
/// or above the capacity shares one entry. The goodput solve runs on a
/// miss, and the percentile latency only when `latency` asks for it. An
/// entry a reader-free run cached without a latency gets it filled in
/// here, with the bits [`measure_analytic`] gives, so every later reader
/// hits. The result carries the caller's own `served_rps` as its offered
/// rate, which the reward and the guardrail's SLO check read.
fn cached_analytic(
    cache: &mut AnalyticCache,
    app: &AppProfile,
    profiles: &ProfileTable,
    setting: ServerSetting,
    served_rps: f64,
    latency: bool,
) -> ServerPerf {
    let admitted = served_rps.min(profiles.get(setting).slo_capacity);
    let p = cache
        .entry((setting, admitted.to_bits()))
        .or_insert_with(|| analytic_goodput(app, profiles, setting, admitted));
    if latency {
        p.fill_latency(|| analytic_latency(app, profiles, setting, admitted));
    }
    p.offered(served_rps)
}

/// Algorithm 1's reward inputs for one server's measured epoch.
fn reward_inputs(app: &AppProfile, supply_w: f64, power_w: f64, perf: &ServerPerf) -> RewardInputs {
    RewardInputs {
        power_supply_w: supply_w,
        power_current_w: power_w,
        qos_target_s: app.slo_deadline_s,
        qos_current_s: perf.latency_s(),
        offered_slo_fraction: if perf.offered_rps > 0.0 {
            perf.goodput_rps / perf.offered_rps
        } else {
            1.0
        },
        slo_percentile: app.slo_percentile,
    }
}

/// Per-epoch memoized [`Battery::sustainable_power`]. The Peukert math
/// is pure in the battery's `(usable_rated_ah, capacity_ah)` — every
/// other input is a per-run spec constant — so equal keys provably give
/// equal results. A short linear scan: fleets cluster into a handful of
/// battery states.
fn sustainable_power_memo(
    memo: &mut crate::fleet::InlineMemo<(u64, u64), f64>,
    b: &Battery,
    d: SimDuration,
) -> f64 {
    let key = (
        b.usable_rated_ah().to_bits(),
        b.spec().capacity_ah.to_bits(),
    );
    memo.get_or_insert_with(key, || b.sustainable_power(d))
}

fn mean_soc(batteries: &[Option<Battery>]) -> f64 {
    let count = batteries.iter().flatten().count();
    if count == 0 {
        return 1.0;
    }
    batteries
        .iter()
        .flatten()
        .map(Battery::soc_fraction)
        .sum::<f64>()
        / count as f64
}

/// Decorrelate the strategy run from its Normal floor while keeping
/// both reproducible from the master seed.
fn strategy_salt(s: Strategy) -> u64 {
    match s {
        Strategy::Normal => 0x6e6f_726d,
        Strategy::Greedy => 0x6772_6565,
        Strategy::Parallel => 0x7061_7261,
        Strategy::Pacing => 0x7061_6369,
        Strategy::Hybrid => 0x6879_6272,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> EngineConfig {
        EngineConfig {
            app: Application::SpecJbb,
            green: GreenConfig::re_batt(),
            strategy: Strategy::Greedy,
            availability: AvailabilityLevel::Maximum,
            burst_duration: SimDuration::from_mins(5),
            measurement: MeasurementMode::Analytic,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn max_availability_reaches_full_sprint_speedup() {
        let out = Engine::new(quick_cfg()).run();
        let expect = Application::SpecJbb.profile().max_speedup();
        assert!(
            (out.speedup_vs_normal - expect).abs() < 0.25,
            "speedup {} vs model {expect}",
            out.speedup_vs_normal
        );
        // All epochs ran green-only.
        assert!(out
            .epochs
            .iter()
            .all(|e| e.case == SupplyCase::GreenOnly && e.setting == ServerSetting::max_sprint()));
        assert_eq!(out.grid_overload_wh, 0.0);
    }

    #[test]
    fn min_availability_without_battery_is_normal() {
        let cfg = EngineConfig {
            green: GreenConfig::re_only(),
            availability: AvailabilityLevel::Minimum,
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert!(
            (out.speedup_vs_normal - 1.0).abs() < 0.05,
            "speedup {}",
            out.speedup_vs_normal
        );
        assert!(out
            .epochs
            .iter()
            .all(|e| e.setting == ServerSetting::normal()));
        assert_eq!(out.battery_used_wh, 0.0);
    }

    #[test]
    fn min_availability_short_burst_runs_on_battery() {
        let cfg = EngineConfig {
            availability: AvailabilityLevel::Minimum,
            burst_duration: SimDuration::from_mins(10),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        // 10 Ah batteries carry a full 10-minute sprint (paper Fig. 6a).
        assert!(
            out.speedup_vs_normal > 4.0,
            "speedup {}",
            out.speedup_vs_normal
        );
        assert!(out.battery_used_wh > 0.0);
        assert!(out.epochs.iter().all(|e| e.case == SupplyCase::BatteryOnly));
        assert!(out.battery_cycles > 0.0);
        assert!(out.grid_recharge_wh > 0.0);
    }

    #[test]
    fn long_battery_only_burst_degrades() {
        let cfg = EngineConfig {
            availability: AvailabilityLevel::Minimum,
            burst_duration: SimDuration::from_mins(60),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        // Battery carries ~11 of 60 minutes at full sprint: the average
        // sits well below the 10-minute case but above Normal.
        assert!(
            out.speedup_vs_normal > 1.2,
            "speedup {}",
            out.speedup_vs_normal
        );
        assert!(
            out.speedup_vs_normal < 3.0,
            "speedup {}",
            out.speedup_vs_normal
        );
        // Late epochs are back to Normal mode.
        assert_eq!(out.epochs.last().unwrap().setting, ServerSetting::normal());
    }

    #[test]
    fn des_and_analytic_agree_at_max_availability() {
        let a = Engine::new(quick_cfg()).run();
        let d = Engine::new(EngineConfig {
            measurement: MeasurementMode::Des,
            ..quick_cfg()
        })
        .run();
        let rel = (a.speedup_vs_normal - d.speedup_vs_normal).abs() / a.speedup_vs_normal;
        assert!(
            rel < 0.12,
            "analytic {} vs DES {}",
            a.speedup_vs_normal,
            d.speedup_vs_normal
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            Engine::new(EngineConfig {
                seed,
                measurement: MeasurementMode::Des,
                ..quick_cfg()
            })
            .run()
            .mean_goodput_rps
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn hybrid_runs_and_beats_normal_at_medium() {
        let cfg = EngineConfig {
            strategy: Strategy::Hybrid,
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(15),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert!(
            out.speedup_vs_normal > 1.5,
            "speedup {}",
            out.speedup_vs_normal
        );
    }

    #[test]
    fn monitor_streams_cover_every_epoch() {
        let (out, monitor) = Engine::new(quick_cfg()).run_with_monitor();
        assert_eq!(monitor.re_supply().len(), out.epochs.len());
        assert_eq!(monitor.goodput().len(), out.epochs.len());
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn rejects_sub_epoch_burst() {
        Engine::new(EngineConfig {
            burst_duration: SimDuration::from_secs(10),
            ..quick_cfg()
        });
    }

    #[test]
    fn paper_pcm_never_throttles_evaluated_bursts() {
        // The paper's standing assumption: with the PCM package, thermal
        // limits never bind during its 10–60 minute bursts.
        let cfg = EngineConfig {
            burst_duration: SimDuration::from_mins(60),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert_eq!(out.thermal_throttle_epochs, 0);
        assert!(out.peak_temp_c < 85.0, "peak {}", out.peak_temp_c);
        assert!(
            out.peak_temp_c > 70.0,
            "thermals look unsimulated: {}",
            out.peak_temp_c
        );
    }

    #[test]
    fn without_pcm_long_sprints_thermally_throttle() {
        let base = EngineConfig {
            burst_duration: SimDuration::from_mins(60),
            ..quick_cfg()
        };
        let with_pcm = Engine::new(base.clone()).run();
        let without = Engine::new(EngineConfig {
            thermal: ThermalModel::NoPcm,
            ..base
        })
        .run();
        assert!(without.thermal_throttle_epochs > 0);
        assert!(
            without.speedup_vs_normal < with_pcm.speedup_vs_normal - 0.5,
            "no-PCM {} vs PCM {}",
            without.speedup_vs_normal,
            with_pcm.speedup_vs_normal
        );
        assert!(without.peak_temp_c >= 85.0 - 1.0);
    }

    #[test]
    fn disabled_thermals_report_nothing() {
        let out = Engine::new(EngineConfig {
            thermal: ThermalModel::Disabled,
            ..quick_cfg()
        })
        .run();
        assert_eq!(out.thermal_throttle_epochs, 0);
        assert_eq!(out.peak_temp_c, 0.0);
    }

    #[test]
    fn hybrid_policy_persists_across_bursts() {
        // Burst 1 exports its learned policy; burst 2 warm-starts from it.
        let cfg = EngineConfig {
            strategy: Strategy::Hybrid,
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(10),
            measurement: MeasurementMode::Analytic,
            ..quick_cfg()
        };
        let (out1, _, policy) = Engine::new(cfg.clone()).run_full();
        let policy = policy.expect("hybrid exports a policy");
        assert!(policy.len() > 100);
        let warm_cfg = EngineConfig {
            warm_policy_json: Some(policy),
            seed: cfg.seed + 1, // different weather, same learned table
            ..cfg
        };
        let out2 = Engine::new(warm_cfg).run();
        // The warm-started controller still sprints competitively.
        assert!(out2.speedup_vs_normal > out1.speedup_vs_normal * 0.8);
        assert!(out2.speedup_vs_normal > 2.0);
    }

    #[test]
    fn non_hybrid_strategies_export_no_policy() {
        let (_, _, policy) = Engine::new(quick_cfg()).run_full();
        assert!(policy.is_none()); // quick_cfg is Greedy
    }

    #[test]
    #[should_panic(expected = "invalid warm_policy_json")]
    fn garbage_warm_policy_is_rejected() {
        let cfg = EngineConfig {
            strategy: Strategy::Hybrid,
            warm_policy_json: Some("{broken".to_string()),
            measurement: MeasurementMode::Analytic,
            ..quick_cfg()
        };
        let _ = Engine::new(cfg).run();
    }

    #[test]
    fn try_new_reports_config_errors_instead_of_panicking() {
        let bad_policy = EngineConfig {
            warm_policy_json: Some("{broken".to_string()),
            ..quick_cfg()
        };
        assert!(matches!(
            Engine::try_new(bad_policy).unwrap_err(),
            EngineError::InvalidWarmPolicy(_)
        ));

        let zero_epoch = EngineConfig {
            epoch: SimDuration::ZERO,
            ..quick_cfg()
        };
        assert_eq!(
            Engine::try_new(zero_epoch).unwrap_err(),
            EngineError::ZeroEpoch
        );

        let sub_epoch = EngineConfig {
            burst_duration: SimDuration::from_secs(1),
            ..quick_cfg()
        };
        assert_eq!(
            Engine::try_new(sub_epoch).unwrap_err(),
            EngineError::SubEpochBurst
        );

        assert!(Engine::try_new(quick_cfg()).is_ok());
    }

    #[test]
    fn zero_server_configs_are_rejected() {
        let mut cfg = quick_cfg();
        cfg.green.green_servers = 0;
        assert_eq!(Engine::try_new(cfg).unwrap_err(), EngineError::ZeroServers);
    }

    #[test]
    fn nan_hysteresis_is_rejected() {
        for bad in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let cfg = EngineConfig {
                switch_hysteresis: bad,
                ..quick_cfg()
            };
            assert!(
                matches!(
                    Engine::try_new(cfg).unwrap_err(),
                    EngineError::InvalidThreshold(ref m) if m.contains("switch_hysteresis")
                ),
                "hysteresis {bad} slipped through"
            );
        }
    }

    #[test]
    fn out_of_range_intensity_is_refused_naming_the_value() {
        for bad in [0, 4, 5, 13, 20, u8::MAX] {
            let cfg = EngineConfig {
                burst_intensity_cores: bad,
                ..quick_cfg()
            };
            let err = Engine::try_new(cfg).unwrap_err();
            assert_eq!(
                err,
                EngineError::InvalidIntensity("burst_intensity_cores", bad)
            );
            assert_eq!(
                err.to_string(),
                format!(
                    "invalid intensity: burst_intensity_cores must be a core count in 6..=12, \
                     got {bad}"
                )
            );
        }
        for good in NORMAL_CORES..=MAX_CORES {
            let cfg = EngineConfig {
                burst_intensity_cores: good,
                ..quick_cfg()
            };
            assert!(cfg.validate().is_ok(), "Int={good} refused");
        }
    }

    #[test]
    fn nan_burst_start_hour_is_rejected() {
        for bad in [f64::NAN, -1.0, 24.0, f64::NEG_INFINITY] {
            let cfg = EngineConfig {
                burst_start_hour: bad,
                ..quick_cfg()
            };
            assert!(
                matches!(
                    Engine::try_new(cfg).unwrap_err(),
                    EngineError::InvalidThreshold(ref m) if m.contains("burst_start_hour")
                ),
                "start hour {bad} slipped through"
            );
        }
    }

    #[test]
    fn grid_never_recharges_while_burst_demand_is_pending() {
        // Paper case 3's conditional: recharge happens "if the workload
        // burst can be completed in this period" — during a battery-only
        // burst the SoC is monotone non-increasing.
        let cfg = EngineConfig {
            availability: AvailabilityLevel::Minimum,
            burst_duration: SimDuration::from_mins(40),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        for w in out.epochs.windows(2) {
            assert!(
                w[1].battery_soc <= w[0].battery_soc + 1e-9,
                "SoC rose mid-burst at {}",
                w[1].t
            );
        }
    }

    #[test]
    fn sprinting_servers_field_tracks_settings() {
        let out = Engine::new(quick_cfg()).run();
        for e in &out.epochs {
            if e.setting.is_sprinting() {
                assert!(e.sprinting_servers >= 1, "at {}", e.t);
            }
        }
        // Max availability: all three green servers sprint.
        assert!(out.epochs.iter().all(|e| e.sprinting_servers == 3));
    }

    #[test]
    fn cached_profiles_are_shared_and_consistent() {
        let a = ProfileTable::cached(Application::SpecJbb);
        let b = ProfileTable::cached(Application::SpecJbb);
        assert!(std::ptr::eq(a, b), "cached tables must be the same object");
        let fresh = ProfileTable::build(&Application::SpecJbb.profile());
        for s in ServerSetting::all() {
            assert_eq!(a.get(s).slo_capacity, fresh.get(s).slo_capacity);
        }
    }

    /// `measure_analytic` as written before the shared grids: both
    /// quadrature grids rebuilt from the station on every call.
    fn measure_analytic_from_scratch(
        app: &AppProfile,
        profiles: &ProfileTable,
        setting: ServerSetting,
        offered_rps: f64,
    ) -> EpochPerf {
        let e = profiles.get(setting);
        let admitted = offered_rps.min(e.slo_capacity);
        let station = app.station(setting);
        let grid = station.service_grid();
        let tail = station.sojourn_tail_with(&grid, admitted, app.slo_deadline_s);
        let coarse: Vec<f64> = grid.iter().step_by(8).copied().collect();
        let target = 1.0 - app.slo_percentile;
        let mut hi = station.mean_service_s * 4.0;
        for _ in 0..40 {
            if station.sojourn_tail_with(&coarse, admitted, hi) <= target {
                break;
            }
            hi *= 2.0;
        }
        let mut lo = 0.0;
        for _ in 0..25 {
            let mid = 0.5 * (lo + hi);
            if station.sojourn_tail_with(&coarse, admitted, mid) <= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        EpochPerf {
            offered_rps,
            admitted_rps: admitted,
            completed_rps: admitted,
            goodput_rps: admitted * (1.0 - tail),
            shed_rps: offered_rps - admitted,
            mean_latency_s: station.mean_service_s,
            slo_percentile_latency_s: hi,
            utilization: (admitted / e.raw_capacity).clamp(0.0, 1.0),
        }
    }

    fn perf_bits(p: &EpochPerf) -> [u64; 8] {
        [
            p.offered_rps,
            p.admitted_rps,
            p.completed_rps,
            p.goodput_rps,
            p.shed_rps,
            p.mean_latency_s,
            p.slo_percentile_latency_s,
            p.utilization,
        ]
        .map(f64::to_bits)
    }

    #[test]
    fn shared_grids_measure_bit_identically_to_a_from_scratch_solve() {
        for app_id in Application::ALL {
            let app = app_id.profile();
            let cached = ProfileTable::cached(app_id);
            // An uncached table builds its grids per call.
            let uncached = (app_id == Application::SpecJbb).then(|| ProfileTable::build(&app));
            for setting in ServerSetting::all() {
                let e = cached.get(setting);
                let cap = e.slo_capacity;
                for rps in [
                    0.0,
                    f64::from_bits(1),
                    0.1 * cap,
                    0.25 * cap,
                    0.5 * cap,
                    0.75 * cap,
                    0.9 * cap,
                    0.99 * cap,
                    cap.next_down(),
                    cap,
                    cap.next_up(),
                    1.2 * e.raw_capacity,
                ] {
                    let want =
                        perf_bits(&measure_analytic_from_scratch(&app, cached, setting, rps));
                    let got = perf_bits(&measure_analytic(&app, cached, setting, rps));
                    assert_eq!(got, want, "{app_id:?} {setting:?} at {rps} req/s");
                    if let Some(t) = &uncached {
                        let got = perf_bits(&measure_analytic(&app, t, setting, rps));
                        assert_eq!(got, want, "uncached {setting:?} at {rps} req/s");
                    }
                }
            }
        }
    }

    #[test]
    fn a_latency_reader_fills_a_reader_free_runs_cache_to_fresh_bits() {
        let hybrid = guarded_hybrid_cfg();
        let pacing = EngineConfig {
            strategy: Strategy::Pacing,
            guardrail: GuardrailConfig::default(),
            ..hybrid.clone()
        };
        let mut shared = EngineScratch::new();
        Engine::new(pacing).run_with_scratch(&mut shared);
        let unsolved: Vec<_> = shared
            .analytic_cache
            .iter()
            .filter(|(_, p)| !p.has_latency())
            .map(|(&k, _)| k)
            .collect();
        assert!(
            !unsolved.is_empty(),
            "an unguarded Pacing run bisects nothing"
        );
        assert!(shared.analytic_cache.values().all(|p| !p.has_latency()));

        let after = Engine::new(hybrid.clone()).run_with_scratch(&mut shared);
        let fresh = Engine::new(hybrid.clone()).run_with_scratch(&mut EngineScratch::new());
        assert_eq!(json(&after), json(&fresh));
        // The Hybrid run read some of the Pacing run's entries, filled
        // their latencies in, and every solved entry holds the full
        // solve's bits.
        assert!(unsolved
            .iter()
            .any(|k| shared.analytic_cache[k].has_latency()));
        let app = hybrid.app.profile();
        let profiles = ProfileTable::cached(hybrid.app);
        for (&(setting, admitted), p) in shared
            .analytic_cache
            .iter()
            .filter(|(_, p)| p.has_latency())
        {
            let admitted = f64::from_bits(admitted);
            let full = measure_analytic(&app, profiles, setting, admitted);
            assert_eq!(full.admitted_rps.to_bits(), admitted.to_bits());
            assert_eq!(
                [
                    p.goodput_rps,
                    p.utilization,
                    p.offered(admitted).latency_s()
                ]
                .map(f64::to_bits),
                [
                    full.goodput_rps,
                    full.utilization,
                    full.slo_percentile_latency_s
                ]
                .map(f64::to_bits),
                "{setting:?} admitting {admitted} req/s"
            );
        }
    }

    #[test]
    fn overloaded_rates_share_one_cache_entry_and_keep_their_offered_rate() {
        let app = Application::SpecJbb.profile();
        let profiles = ProfileTable::cached(Application::SpecJbb);
        let setting = ServerSetting::normal();
        let cap = profiles.get(setting).slo_capacity;
        let key = (setting, cap.to_bits());
        let mut cache = AnalyticCache::default();
        let a = cached_analytic(&mut cache, &app, profiles, setting, 1.5 * cap, false);
        let b = cached_analytic(&mut cache, &app, profiles, setting, 3.0 * cap, false);
        assert_eq!(cache.len(), 1, "both rates admit the capacity");
        assert!(!cache[&key].has_latency());
        // A latency reader at a third overloaded rate fills that entry.
        let c = cached_analytic(&mut cache, &app, profiles, setting, 2.0 * cap, true);
        assert_eq!(cache.len(), 1);
        assert!(cache[&key].has_latency());
        // Each result is the full solve at its caller's own offered rate.
        for (rps, got) in [(1.5 * cap, a), (3.0 * cap, b), (2.0 * cap, c)] {
            let full = measure_analytic(&app, profiles, setting, rps);
            assert_eq!(
                [got.offered_rps, got.goodput_rps, got.utilization].map(f64::to_bits),
                [full.offered_rps, full.goodput_rps, full.utilization].map(f64::to_bits),
                "{rps} req/s"
            );
        }
        assert_eq!(
            c.latency_s().to_bits(),
            measure_analytic(&app, profiles, setting, 2.0 * cap)
                .slo_percentile_latency_s
                .to_bits()
        );
        // A rate below the capacity admits itself: an entry of its own.
        cached_analytic(&mut cache, &app, profiles, setting, 0.5 * cap, false);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn energy_conservation_roughly_holds() {
        let cfg = EngineConfig {
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(20),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        let epoch_hours = 60.0 / 3600.0;
        let produced: f64 = out.epochs.iter().map(|e| e.re_supply_w * epoch_hours).sum();
        let accounted = out.re_used_wh + out.re_charged_wh + out.curtailed_wh;
        assert!(
            (produced - accounted).abs() < produced * 0.02 + 1.0,
            "produced {produced} vs accounted {accounted}"
        );
    }

    #[test]
    fn auditor_is_clean_on_healthy_runs() {
        for strategy in [Strategy::Greedy, Strategy::Pacing, Strategy::Hybrid] {
            let out = Engine::new(EngineConfig {
                strategy,
                availability: AvailabilityLevel::Medium,
                ..quick_cfg()
            })
            .run();
            assert!(
                out.audit_violations.is_empty(),
                "{strategy:?}: {:?}",
                out.audit_violations
            );
        }
        // The DES settlement path balances the same books.
        let out = Engine::new(EngineConfig {
            measurement: MeasurementMode::Des,
            ..quick_cfg()
        })
        .run();
        assert!(
            out.audit_violations.is_empty(),
            "{:?}",
            out.audit_violations
        );
    }

    #[test]
    fn auditor_can_be_disabled() {
        let out = Engine::new(EngineConfig {
            audit: false,
            ..quick_cfg()
        })
        .run();
        assert!(out.audit_violations.is_empty());
    }

    // ---- checkpoint snapshots ----

    fn json<T: Serialize>(v: &T) -> String {
        serde_json::to_string(v).expect("serializes")
    }

    #[test]
    fn snapshot_resume_is_byte_identical_for_bursts() {
        // Hybrid at Medium exercises everything a snapshot must carry:
        // the RNG stream (ε-greedy exploration), the Q-table, the EWMA
        // predictors, battery state, and the meters.
        let cfg = EngineConfig {
            strategy: Strategy::Hybrid,
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(10),
            ..quick_cfg()
        };
        let (want_out, want_mon, want_pol) = Engine::new(cfg.clone()).run_full();

        let mut snaps = Vec::new();
        let (out, mon, pol) = Engine::new(cfg)
            .run_full_with_snapshots(7, &mut |s| snaps.push(s.clone()))
            .unwrap();
        assert_eq!(json(&out), json(&want_out), "snapshotting changed the run");
        assert_eq!(json(&mon), json(&want_mon));
        assert_eq!(pol, want_pol);
        // One boundary (epoch 7) of a ten-epoch burst, holding both the
        // strategy run and its Normal floor.
        assert_eq!(snaps.len(), 1);
        assert!(snaps[0].state.baseline.is_some());

        // Resume from every captured snapshot through a JSON round trip
        // (the on-disk checkpoint): all must converge on the same bytes.
        for snap in snaps {
            let snap = EngineSnapshot::from_json(&snap.to_json()).unwrap();
            match resume_snapshot(snap, 0, &mut |_| {}).unwrap() {
                ResumedRun::Burst {
                    outcome,
                    monitor,
                    policy,
                } => {
                    assert_eq!(json(&outcome), json(&want_out));
                    assert_eq!(json(&monitor), json(&want_mon));
                    assert_eq!(policy, want_pol);
                }
                other => panic!("expected a burst, got {other:?}"),
            }
        }
    }

    #[test]
    fn snapshot_resume_is_byte_identical_under_faults() {
        // The fault-plan cursor (fade_done), the watchdog, and the
        // safe-mode estimator all live in the snapshot too.
        let cfg = EngineConfig {
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(10),
            fault_plan: Some(FaultPlan::generate(
                77,
                SimTime::from_hours(11),
                SimDuration::from_mins(10),
                4,
            )),
            ..quick_cfg()
        };
        let (want_out, want_mon, _) = Engine::new(cfg.clone()).run_full();
        let mut snaps = Vec::new();
        Engine::new(cfg)
            .run_full_with_snapshots(5, &mut |s| snaps.push(s.clone()))
            .unwrap();
        let snap = snaps.swap_remove(snaps.len() / 2);
        let snap = EngineSnapshot::from_json(&snap.to_json()).unwrap();
        match resume_snapshot(snap, 0, &mut |_| {}).unwrap() {
            ResumedRun::Burst {
                outcome, monitor, ..
            } => {
                assert_eq!(json(&outcome), json(&want_out));
                assert_eq!(json(&monitor), json(&want_mon));
            }
            other => panic!("expected a burst, got {other:?}"),
        }
    }

    #[test]
    fn snapshots_require_analytic_measurement() {
        let err = Engine::new(EngineConfig {
            measurement: MeasurementMode::Des,
            ..quick_cfg()
        })
        .run_full_with_snapshots(5, &mut |_| {})
        .unwrap_err();
        assert_eq!(err, EngineError::SnapshotRequiresAnalytic);
    }

    #[test]
    fn resume_refuses_a_stale_fingerprint() {
        let mut snaps = Vec::new();
        Engine::new(EngineConfig {
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(10),
            ..quick_cfg()
        })
        .run_full_with_snapshots(5, &mut |s| snaps.push(s.clone()))
        .unwrap();
        let mut snap = snaps.swap_remove(0);
        snap.fingerprint = "0000000000000000".to_string();
        match resume_snapshot(snap, 0, &mut |_| {}) {
            Err(EngineError::SnapshotMismatch(m)) => {
                assert!(m.contains("fingerprint"), "{m}");
            }
            other => panic!("expected SnapshotMismatch, got {other:?}"),
        }
    }

    #[test]
    fn resume_refuses_every_cut_loop_state_vector() {
        // Guarded Hybrid with a fault plan and thermals on: every vector
        // and presence the check covers is populated.
        let cfg = EngineConfig {
            fault_plan: Some(poison_at_epoch_1()),
            ..guarded_hybrid_cfg()
        };
        let mut snaps = Vec::new();
        Engine::new(cfg)
            .run_full_with_snapshots(2, &mut |s| snaps.push(s.clone()))
            .unwrap();
        let good = &snaps[0];
        let refused = |snap: EngineSnapshot, what: &str| {
            let snap = EngineSnapshot::from_json(&snap.to_json()).unwrap();
            match resume_snapshot(snap, 0, &mut |_| {}) {
                Err(EngineError::SnapshotMismatch(m)) => assert!(m.contains(what), "{m}"),
                other => panic!("{what} resumed: {other:?}"),
            }
        };
        type Cut = fn(&mut LoopState);
        let cuts: [(&str, Cut); 17] = [
            ("prev_settings", |s| {
                s.prev_settings.pop();
            }),
            ("batteries", |s| {
                s.batteries.pop();
            }),
            ("grid_recharging", |s| {
                s.grid_recharging.pop();
            }),
            ("down_left", |s| {
                s.down_left.pop();
            }),
            ("health_streak", |s| {
                s.health_streak.pop();
            }),
            ("watchdog", |s| s.watchdog = ActuationWatchdog::new(2)),
            ("thermals", |s| {
                s.thermals.pop();
            }),
            ("thermals", |s| s.thermals.clear()),
            ("fade_done", |s| s.fade_done.clear()),
            ("learner", |s| s.learner = None),
            ("guardrail", |s| s.guardrail = None),
            ("epoch records", |s| {
                s.epochs.pop();
            }),
            ("epoch records", |s| s.next_epoch += 1),
            ("live servers", |s| s.min_live_servers = 4),
            ("pending", |s| {
                let state = crate::qlearning::QState {
                    power_level: 999,
                    load_level: 0,
                };
                s.pending_q = Some((state, ServerSetting::normal()));
            }),
            ("guardrail", |s| {
                if let Some(g) = s.guardrail.as_mut() {
                    g.level = 9;
                }
            }),
            ("guardrail", |s| {
                if let Some(g) = s.guardrail.as_mut() {
                    g.ladder.clear();
                }
            }),
        ];
        for (name, cut) in cuts {
            let mut snap = good.clone();
            cut(&mut snap.state.main);
            refused(snap, name);
            // The floor keeps no epoch records, and carries neither a
            // learner nor a guardrail to cut.
            if !matches!(name, "learner" | "guardrail" | "epoch records") {
                let mut snap = good.clone();
                cut(snap.state.baseline.as_mut().unwrap());
                refused(snap, name);
            }
        }
        // A Normal floor carries neither a learner nor a guardrail, and no
        // epoch records.
        let main = &good.state.main;
        for (name, add) in [
            ("learner", main.learner.is_some()),
            ("guardrail", main.guardrail.is_some()),
            ("epoch records", !main.epochs.is_empty()),
        ] {
            assert!(add, "the strategy run carries {name}");
            let mut snap = good.clone();
            let floor = snap.state.baseline.as_mut().unwrap();
            match name {
                "learner" => floor.learner = main.learner.clone(),
                "guardrail" => floor.guardrail = main.guardrail.clone(),
                _ => floor.epochs = main.epochs.clone(),
            }
            refused(snap, name);
        }
        // The floor runs the same epoch as the strategy run, and exists
        // exactly when the strategy is not Normal.
        let mut snap = good.clone();
        snap.state.baseline.as_mut().unwrap().next_epoch -= 1;
        refused(snap, "Normal floor");
        let mut snap = good.clone();
        snap.state.baseline = None;
        refused(snap, "Normal floor");
    }

    // ---- fault injection ----

    use crate::faults::{FaultEvent, FaultKind, FleetMix};

    /// An event active across the whole default burst window.
    fn whole_burst(kind: FaultKind) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_hours(11),
            duration: SimDuration::from_hours(1),
            kind,
        }
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let clean = Engine::new(quick_cfg()).run();
        let cfg = EngineConfig {
            fault_plan: Some(FaultPlan::new(vec![])),
            ..quick_cfg()
        };
        let with_plan = Engine::new(cfg).run();
        assert_eq!(
            serde_json::to_string(&clean).unwrap(),
            serde_json::to_string(&with_plan).unwrap(),
            "an empty plan must be bit-identical to no plan"
        );
        assert_eq!(with_plan.fault_epochs, 0);
        assert!(with_plan.floor_held);
    }

    #[test]
    fn sensor_dropout_enters_safe_mode_and_holds_the_floor() {
        let cfg = EngineConfig {
            fault_plan: Some(FaultPlan::new(vec![whole_burst(
                FaultKind::ReSensorDropout,
            )])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert!(out.safe_mode_epochs > 0, "dropout must trigger safe mode");
        assert_eq!(out.fault_epochs, out.epochs.len());
        assert!(out.epochs.iter().all(|e| e.safe_mode));
        // With no verified observation ever, safe mode plans against 0 W:
        // the rack rides batteries down and lands on Normal — never below.
        assert!(out.floor_held, "speedup {}", out.speedup_vs_normal);
        assert_eq!(out.grid_overload_wh, 0.0);
    }

    #[test]
    fn breaker_trip_mid_burst_degrades_gracefully() {
        let trip = FaultEvent {
            at: SimTime::from_hours(11) + SimDuration::from_mins(2),
            duration: SimDuration::from_mins(10),
            kind: FaultKind::BreakerTrip,
        };
        let cfg = EngineConfig {
            burst_duration: SimDuration::from_mins(10),
            fault_plan: Some(FaultPlan::new(vec![trip])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert!(out.fault_epochs >= 8);
        // The physical record shows the outage...
        assert!(out.epochs[3].re_supply_w < 1.0, "breaker open");
        // ...and the first post-trip epochs still beat or match Normal.
        assert!(out.floor_held, "speedup {}", out.speedup_vs_normal);
        assert_eq!(out.grid_overload_wh, 0.0);
    }

    #[test]
    fn meter_over_report_never_overdraws_the_grid() {
        // The meter claims 3× the real supply: the controller plans rich,
        // settlement finds the gap, servers blend down to Normal-on-grid
        // at their baseline share — never grid overload.
        let cfg = EngineConfig {
            availability: AvailabilityLevel::Medium,
            fault_plan: Some(FaultPlan::new(vec![whole_burst(FaultKind::MeterBias {
                factor: 3.0,
            })])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert_eq!(out.grid_overload_wh, 0.0);
        assert!(out.floor_held, "speedup {}", out.speedup_vs_normal);
    }

    #[test]
    fn stuck_server_trips_the_watchdog() {
        let cfg = EngineConfig {
            burst_duration: SimDuration::from_mins(10),
            fault_plan: Some(FaultPlan::new(vec![whole_burst(FaultKind::StuckServer {
                server: 0,
            })])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        // Server 0 starts at Normal and stays stuck there; commands to
        // sprint keep missing, so the watchdog clamps it within a few
        // epochs and the epochs-with-clamp counter reflects that.
        assert!(
            out.watchdog_clamped_epochs > 0,
            "watchdog never clamped: {out:?}"
        );
        assert!(out.floor_held);
        assert_eq!(out.grid_overload_wh, 0.0);
    }

    #[test]
    fn core_activation_cap_limits_the_sprint() {
        let cfg = EngineConfig {
            fault_plan: Some(FaultPlan::new(vec![whole_burst(
                FaultKind::CoreActivationFail { max_cores: 8 },
            )])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert!(out.epochs.iter().all(|e| e.setting.cores <= 8));
        // 8 cores at full frequency still beats Normal.
        assert!(out.speedup_vs_normal > 1.0);
        assert!(out.floor_held);
    }

    #[test]
    fn battery_fade_applies_once_and_shortens_the_ride() {
        let night = EngineConfig {
            availability: AvailabilityLevel::Minimum,
            burst_duration: SimDuration::from_mins(10),
            ..quick_cfg()
        };
        let clean = Engine::new(night.clone()).run();
        let faded = Engine::new(EngineConfig {
            fault_plan: Some(FaultPlan::new(vec![whole_burst(FaultKind::BatteryFade {
                factor: 0.5,
            })])),
            ..night
        })
        .run();
        assert!(
            faded.battery_used_wh < clean.battery_used_wh,
            "faded {} vs clean {}",
            faded.battery_used_wh,
            clean.battery_used_wh
        );
        assert!(faded.floor_held);
        assert_eq!(faded.grid_overload_wh, 0.0);
    }

    #[test]
    fn soc_misreport_is_contained() {
        for factor in [0.5, 1.4] {
            let cfg = EngineConfig {
                availability: AvailabilityLevel::Minimum,
                burst_duration: SimDuration::from_mins(10),
                fault_plan: Some(FaultPlan::new(vec![whole_burst(FaultKind::SocMisreport {
                    factor,
                })])),
                ..quick_cfg()
            };
            let out = Engine::new(cfg).run();
            assert!(out.floor_held, "factor {factor}: {}", out.speedup_vs_normal);
            assert_eq!(out.grid_overload_wh, 0.0, "factor {factor}");
        }
    }

    #[test]
    fn telemetry_delay_is_softer_than_dropout() {
        let delay = EngineConfig {
            fault_plan: Some(FaultPlan::new(vec![whole_burst(FaultKind::TelemetryDelay)])),
            ..quick_cfg()
        };
        let out = Engine::new(delay).run();
        // The first epoch has no prior reading (degrades to a dropout);
        // afterwards the one-epoch-old readings keep the controller fed.
        assert_eq!(out.safe_mode_epochs, 1);
        assert!(out.floor_held);
        assert!(
            out.speedup_vs_normal > 1.0,
            "stale-but-present telemetry still sprints"
        );
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let plan = FaultPlan::generate(99, SimTime::from_hours(11), SimDuration::from_mins(5), 3);
        let cfg = EngineConfig {
            fault_plan: Some(plan),
            ..quick_cfg()
        };
        let a = Engine::new(cfg.clone()).run();
        let b = Engine::new(cfg).run();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn invalid_fault_plan_is_rejected() {
        let cfg = EngineConfig {
            fault_plan: Some(FaultPlan::new(vec![whole_burst(FaultKind::MeterBias {
                factor: f64::NAN,
            })])),
            ..quick_cfg()
        };
        let err = Engine::try_new(cfg).unwrap_err();
        assert!(matches!(err, EngineError::InvalidFaultPlan(_)));
        assert!(err.to_string().contains("invalid fault_plan"), "{err}");
    }

    #[test]
    fn invalid_trace_override_is_rejected() {
        let cfg = EngineConfig {
            trace_override: Some(SolarTrace::from_samples(vec![])),
            ..quick_cfg()
        };
        let err = Engine::try_new(cfg).unwrap_err();
        assert!(matches!(err, EngineError::InvalidTrace(_)));
        assert!(err.to_string().contains("invalid trace_override"), "{err}");
    }

    #[test]
    #[should_panic(expected = "invalid engine configuration")]
    fn new_panics_with_configuration_context() {
        let cfg = EngineConfig {
            burst_duration: SimDuration::from_secs(1),
            ..quick_cfg()
        };
        let _ = Engine::new(cfg);
    }

    // ---- fleet fault domains ----

    /// A crash event: `duration` only marks the injection instant; the
    /// outage length is carried by `down_epochs`.
    fn crash_at(offset_mins: u64, server: u8, down_epochs: u32) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_hours(11) + SimDuration::from_mins(offset_mins),
            duration: SimDuration::from_mins(1),
            kind: FaultKind::ServerCrash {
                server,
                down_epochs,
            },
        }
    }

    #[test]
    fn server_crash_sheds_load_to_survivors_and_rejoins_with_hysteresis() {
        let cfg = EngineConfig {
            burst_duration: SimDuration::from_mins(10),
            fault_plan: Some(FaultPlan::new(vec![crash_at(2, 1, 3)])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        // Down for exactly the commanded outage; probation epochs are
        // powered (up) but carry no load, so they are not "dead".
        assert_eq!(out.dead_server_epochs, 3, "{:?}", out.fleet_events);
        assert_eq!(out.min_live_servers, 2);
        // Epochs 2..=4 down, 5..=6 probation: five epochs at 2 live
        // servers, then full strength from epoch 7 on.
        let degraded = out.epochs.iter().filter(|e| e.live_servers == 2).count();
        assert_eq!(degraded, 3 + REJOIN_EPOCHS as usize - 1);
        assert_eq!(out.epochs.last().unwrap().live_servers, 3);
        assert!(out
            .fleet_events
            .iter()
            .any(|e| e.contains("server 1 crashed")));
        assert!(out
            .fleet_events
            .iter()
            .any(|e| e.contains("server 1 rejoined")));
        // Survivors absorb the load without dropping below Normal and
        // without drawing grid power beyond the baseline share.
        assert!(out.floor_held, "speedup {}", out.speedup_vs_normal);
        assert_eq!(out.grid_overload_wh, 0.0);
        assert!(
            out.audit_violations.is_empty(),
            "{:?}",
            out.audit_violations
        );
    }

    #[test]
    fn three_of_ten_servers_crash_mid_sprint_and_the_run_stays_clean() {
        // The ISSUE acceptance scenario: a 10-server green rack loses 3
        // servers mid-sprint, holds the Normal floor, books no energy to
        // the dead servers, and replans back to full strength after the
        // hysteretic rejoin.
        let cfg = EngineConfig {
            green: GreenConfig {
                name: "RE-Batt-10".into(),
                green_servers: 10,
                panels: 10,
                battery_ah: 10.0,
            },
            burst_duration: SimDuration::from_mins(12),
            fault_plan: Some(FaultPlan::new(vec![
                crash_at(2, 2, 2),
                crash_at(2, 5, 2),
                crash_at(3, 7, 2),
            ])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert_eq!(out.min_live_servers, 7);
        assert_eq!(out.dead_server_epochs, 6);
        assert!(out.floor_held, "speedup {}", out.speedup_vs_normal);
        assert_eq!(out.grid_overload_wh, 0.0);
        assert!(
            out.audit_violations.is_empty(),
            "{:?}",
            out.audit_violations
        );
        // Hot rejoin restores full-fleet planning before the burst ends.
        assert_eq!(out.epochs.last().unwrap().live_servers, 10);
        for server in [2, 5, 7] {
            assert!(
                out.fleet_events
                    .iter()
                    .any(|e| e.contains(&format!("server {server} rejoined"))),
                "{:?}",
                out.fleet_events
            );
        }
    }

    #[test]
    fn whole_fleet_crash_is_survivable() {
        // Every server down at once: no load is served, no power flows,
        // and the books still balance. The baseline suffers identically,
        // so the floor comparison stays fair.
        let cfg = EngineConfig {
            burst_duration: SimDuration::from_mins(10),
            fault_plan: Some(FaultPlan::new(vec![
                crash_at(2, 0, 2),
                crash_at(2, 1, 2),
                crash_at(2, 2, 2),
            ])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert_eq!(out.min_live_servers, 0);
        assert_eq!(out.dead_server_epochs, 6);
        assert!(out.floor_held, "speedup {}", out.speedup_vs_normal);
        assert_eq!(out.grid_overload_wh, 0.0);
        assert!(
            out.audit_violations.is_empty(),
            "{:?}",
            out.audit_violations
        );
        assert_eq!(out.epochs.last().unwrap().live_servers, 3);
    }

    #[test]
    fn flapping_server_is_held_out_until_it_stays_healthy() {
        // A flapping server alternates power states every epoch, so its
        // health streak never reaches REJOIN_EPOCHS inside the flap
        // window: the planner treats it as out for the whole window plus
        // the probation tail.
        let flap = FaultEvent {
            at: SimTime::from_hours(11) + SimDuration::from_mins(1),
            duration: SimDuration::from_mins(4),
            kind: FaultKind::ServerFlap { server: 0 },
        };
        let cfg = EngineConfig {
            burst_duration: SimDuration::from_mins(10),
            fault_plan: Some(FaultPlan::new(vec![flap])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert_eq!(out.min_live_servers, 2);
        assert!(out.dead_server_epochs >= 2, "{}", out.dead_server_epochs);
        assert!(out
            .fleet_events
            .iter()
            .any(|e| e.contains("server 0 rejoined")));
        assert_eq!(out.epochs.last().unwrap().live_servers, 3);
        assert!(out.floor_held, "speedup {}", out.speedup_vs_normal);
        assert!(
            out.audit_violations.is_empty(),
            "{:?}",
            out.audit_violations
        );
    }

    #[test]
    fn straggler_degrades_goodput_but_stays_in_the_plan() {
        let clean = Engine::new(quick_cfg()).run();
        let cfg = EngineConfig {
            fault_plan: Some(FaultPlan::new(vec![whole_burst(
                FaultKind::ServerStraggler {
                    server: 0,
                    goodput_factor: 0.5,
                },
            )])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        // A straggler still counts as live — it carries load, just slowly.
        assert_eq!(out.min_live_servers, 3);
        assert_eq!(out.dead_server_epochs, 0);
        assert_eq!(out.straggler_epochs, out.epochs.len());
        assert!(
            out.mean_goodput_rps < clean.mean_goodput_rps,
            "straggler {} vs clean {}",
            out.mean_goodput_rps,
            clean.mean_goodput_rps
        );
        // The baseline straggles identically, so the floor stays fair,
        // and the audit floor is weighted by the degraded capacity.
        assert!(out.floor_held, "speedup {}", out.speedup_vs_normal);
        assert!(
            out.audit_violations.is_empty(),
            "{:?}",
            out.audit_violations
        );
    }

    #[test]
    fn fleet_plan_out_of_range_server_is_rejected() {
        let cfg = EngineConfig {
            fault_plan: Some(FaultPlan::new(vec![crash_at(1, 9, 1)])),
            ..quick_cfg()
        };
        let err = Engine::try_new(cfg).unwrap_err();
        assert!(matches!(err, EngineError::InvalidFaultPlan(_)));
        assert!(err.to_string().contains("targets server"), "{err}");
    }

    #[test]
    fn generated_fleet_plans_run_deterministically() {
        for seed in [3, 17, 99] {
            let plan = FaultPlan::generate_fleet(
                seed,
                SimTime::from_hours(11),
                SimDuration::from_mins(10),
                3,
                FleetMix::default(),
            );
            let cfg = EngineConfig {
                burst_duration: SimDuration::from_mins(10),
                fault_plan: Some(plan),
                ..quick_cfg()
            };
            let a = Engine::new(cfg.clone()).run();
            let b = Engine::new(cfg).run();
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap()
            );
            assert!(a.floor_held, "seed {seed}: {}", a.speedup_vs_normal);
            assert!(
                a.audit_violations.is_empty(),
                "seed {seed}: {:?}",
                a.audit_violations
            );
        }
    }

    #[test]
    fn snapshot_resume_is_byte_identical_through_a_crash() {
        // The liveness vectors (down_left, health_streak) and the fleet
        // counters all live in the snapshot: resuming from an epoch while
        // a server is down or on probation must replay the same rejoin.
        let flap = FaultEvent {
            at: SimTime::from_hours(11) + SimDuration::from_mins(5),
            duration: SimDuration::from_mins(2),
            kind: FaultKind::ServerFlap { server: 0 },
        };
        let straggle = whole_burst(FaultKind::ServerStraggler {
            server: 2,
            goodput_factor: 0.7,
        });
        let cfg = EngineConfig {
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(10),
            fault_plan: Some(FaultPlan::new(vec![crash_at(2, 1, 2), flap, straggle])),
            ..quick_cfg()
        };
        let (want_out, want_mon, _) = Engine::new(cfg.clone()).run_full();
        assert!(want_out.dead_server_epochs > 0, "scenario must bite");
        let mut snaps = Vec::new();
        Engine::new(cfg)
            .run_full_with_snapshots(2, &mut |s| snaps.push(s.clone()))
            .unwrap();
        for snap in snaps {
            let snap = EngineSnapshot::from_json(&snap.to_json()).unwrap();
            match resume_snapshot(snap, 0, &mut |_| {}).unwrap() {
                ResumedRun::Burst {
                    outcome, monitor, ..
                } => {
                    assert_eq!(json(&outcome), json(&want_out));
                    assert_eq!(json(&monitor), json(&want_mon));
                }
                other => panic!("expected a burst, got {other:?}"),
            }
        }
    }

    // ---- policy guardrails ----

    use crate::guardrail::GuardrailConfig;

    fn guarded_hybrid_cfg() -> EngineConfig {
        EngineConfig {
            strategy: Strategy::Hybrid,
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(15),
            measurement: MeasurementMode::Analytic,
            guardrail: GuardrailConfig {
                enabled: true,
                ..GuardrailConfig::default()
            },
            ..quick_cfg()
        }
    }

    /// A poison event landing exactly in epoch 1 of the default burst.
    fn poison_at_epoch_1() -> FaultPlan {
        FaultPlan::new(vec![FaultEvent {
            at: SimTime::from_hours(11) + SimDuration::from_secs(60),
            duration: SimDuration::from_secs(60),
            kind: FaultKind::QTablePoison { magnitude: 1e9 },
        }])
    }

    #[test]
    fn zero_watchdog_threshold_is_rejected() {
        let cfg = EngineConfig {
            watchdog_threshold: 0,
            ..quick_cfg()
        };
        assert!(matches!(
            Engine::try_new(cfg).unwrap_err(),
            EngineError::InvalidThreshold(ref m) if m.contains("watchdog_threshold")
        ));
        let cfg = EngineConfig {
            watchdog_threshold: 5,
            ..quick_cfg()
        };
        assert!(Engine::try_new(cfg).is_ok());
    }

    #[test]
    fn degenerate_guardrail_configs_are_rejected() {
        let mut cfg = guarded_hybrid_cfg();
        cfg.guardrail.fallback = Strategy::Hybrid;
        let err = Engine::try_new(cfg).unwrap_err();
        assert!(matches!(err, EngineError::InvalidGuardrail(_)));
        assert!(err.to_string().contains("invalid guardrail"), "{err}");

        let mut cfg = guarded_hybrid_cfg();
        cfg.guardrail.probation_epochs = 0;
        assert!(matches!(
            Engine::try_new(cfg).unwrap_err(),
            EngineError::InvalidGuardrail(_)
        ));
    }

    #[test]
    fn guardrail_is_quiet_on_healthy_runs() {
        let out = Engine::new(guarded_hybrid_cfg()).run();
        assert_eq!(out.failover_epochs, 0, "events: {:?}", out.guardrail_events);
        assert_eq!(out.ladder_level, 0);
        assert_eq!(out.quarantined_tables, 0);
        assert!(out.guardrail_events.is_empty());
        assert!(out.epochs.iter().all(|e| e.ladder_level == 0));
        assert!(
            out.audit_violations.is_empty(),
            "{:?}",
            out.audit_violations
        );
        assert!(out.speedup_vs_normal > 1.5, "{}", out.speedup_vs_normal);
    }

    #[test]
    fn poisoned_qtable_fails_over_quarantines_and_recovers() {
        let cfg = EngineConfig {
            fault_plan: Some(poison_at_epoch_1()),
            ..guarded_hybrid_cfg()
        };
        let out = Engine::new(cfg.clone()).run();
        // Corruption fires in the poisoned epoch itself: the table is
        // quarantined and the next rung (Parallel) steers.
        assert_eq!(
            out.quarantined_tables, 1,
            "events: {:?}",
            out.guardrail_events
        );
        assert!(out.ladder_level >= 1);
        assert!(out.failover_epochs > 0);
        assert!(out
            .guardrail_events
            .iter()
            .any(|e| e.contains("corruption")));
        assert_eq!(out.epochs[1].ladder_level, 0, "demotion lands next epoch");
        assert_eq!(out.epochs[2].ladder_level, 1);
        // Probation (6 clean epochs) passes and control re-promotes to
        // the fresh Hybrid bootstrap before the burst ends.
        assert!(out
            .guardrail_events
            .iter()
            .any(|e| e.contains("re-promoted")));
        assert_eq!(out.epochs.last().unwrap().ladder_level, 0);
        // The failover never violates the Normal floor or the books.
        assert!(out.floor_held, "speedup {}", out.speedup_vs_normal);
        assert_eq!(out.grid_overload_wh, 0.0);
        assert!(
            out.audit_violations.is_empty(),
            "{:?}",
            out.audit_violations
        );
        // Deterministic: same plan, same bytes.
        let again = Engine::new(cfg).run();
        assert_eq!(json(&out), json(&again));
    }

    #[test]
    fn quarantine_sidecar_lands_in_the_configured_dir() {
        let dir = std::env::temp_dir().join(format!("gs-engine-quar-{}", std::process::id()));
        let dir_s = dir.display().to_string();
        let mut cfg = EngineConfig {
            fault_plan: Some(poison_at_epoch_1()),
            ..guarded_hybrid_cfg()
        };
        cfg.guardrail.quarantine_dir = Some(dir_s.clone());
        let out = Engine::new(cfg).run();
        assert_eq!(out.quarantined_tables, 1);
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("quarantine dir exists")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(files.len(), 1, "{files:?}");
        assert!(files[0].starts_with("qtable-e1-"), "{files:?}");
        let text = std::fs::read_to_string(dir.join(&files[0])).unwrap();
        let rec = crate::guardrail::QuarantineRecord::from_json(&text).unwrap();
        // The captured table carries the poison signature and is
        // loadable for forensics but rejected for reuse.
        let learner = crate::qlearning::QLearner::from_json_unchecked(&rec.policy).unwrap();
        assert!(learner.table_stats().non_finite > 0);
        assert!(crate::qlearning::QLearner::from_json(&rec.policy).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_resume_is_byte_identical_across_a_failover() {
        let cfg = EngineConfig {
            fault_plan: Some(poison_at_epoch_1()),
            ..guarded_hybrid_cfg()
        };
        let (want_out, want_mon, want_pol) = Engine::new(cfg.clone()).run_full();
        assert!(want_out.failover_epochs > 0, "fixture must fail over");

        let mut snaps = Vec::new();
        let (out, ..) = Engine::new(cfg)
            .run_full_with_snapshots(3, &mut |s| snaps.push(s.clone()))
            .unwrap();
        assert_eq!(json(&out), json(&want_out), "snapshotting changed the run");
        // Resume from every boundary — before, during, and after the
        // failover window — and converge on the same bytes.
        for snap in snaps {
            let snap = EngineSnapshot::from_json(&snap.to_json()).unwrap();
            match resume_snapshot(snap, 0, &mut |_| {}).unwrap() {
                ResumedRun::Burst {
                    outcome,
                    monitor,
                    policy,
                } => {
                    assert_eq!(json(&outcome), json(&want_out));
                    assert_eq!(json(&monitor), json(&want_mon));
                    assert_eq!(policy, want_pol);
                }
                other => panic!("expected a burst, got {other:?}"),
            }
        }
    }

    #[test]
    fn snapshots_of_an_unguarded_poisoned_table_resume_byte_identically() {
        // No guardrail: the poisoned table, NaN cells included, steers to
        // the end of the burst and sits in every later snapshot.
        let cfg = EngineConfig {
            strategy: Strategy::Hybrid,
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(10),
            fault_plan: Some(poison_at_epoch_1()),
            ..quick_cfg()
        };
        let (want_out, want_mon, want_pol) = Engine::new(cfg.clone()).run_full();
        let mut snaps = Vec::new();
        Engine::new(cfg)
            .run_full_with_snapshots(2, &mut |s| snaps.push(s.clone()))
            .unwrap();
        let poisoned = snaps.iter().filter(|s| s.state.main.next_epoch > 1).count();
        assert!(poisoned >= 4, "{poisoned} snapshots after the poison");
        for snap in snaps {
            let snap = EngineSnapshot::from_json(&snap.to_json()).expect("snapshot parses");
            match resume_snapshot(snap, 0, &mut |_| {}).unwrap() {
                ResumedRun::Burst {
                    outcome,
                    monitor,
                    policy,
                } => {
                    assert_eq!(json(&outcome), json(&want_out));
                    assert_eq!(json(&monitor), json(&want_mon));
                    assert_eq!(policy, want_pol);
                }
                other => panic!("expected a burst, got {other:?}"),
            }
        }
    }

    #[test]
    fn guardrail_supervises_non_learned_strategies_too() {
        // Greedy has no Q-table to poison, but the ladder still arms for
        // its comparative detectors; a healthy run never triggers.
        let cfg = EngineConfig {
            strategy: Strategy::Greedy,
            ..guarded_hybrid_cfg()
        };
        let out = Engine::new(cfg).run();
        assert_eq!(out.quarantined_tables, 0);
        assert_eq!(out.failover_epochs, 0, "events: {:?}", out.guardrail_events);
        assert!(out.floor_held);
    }
}
