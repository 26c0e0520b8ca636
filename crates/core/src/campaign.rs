//! Long-horizon campaigns: days of diurnal operation instead of one
//! controlled burst.
//!
//! The paper's TCO argument (§IV-F) prices green provisioning against the
//! *yearly hours of sprinting* a real workload generates — breaking even
//! near 14 h/year. A campaign runs the controller against the Google-style
//! diurnal load curve of Fig. 1 (daily plateau plus flash spikes) under
//! generated weather for multiple days, counts sprint hours, and
//! extrapolates them to a year so [`gs_tco`]-style models can be fed with
//! *measured* sprint activity instead of an assumption.

use crate::checkpoint::{EngineSnapshot, SnapshotScope};
use crate::engine::{
    check_intensity, run_experiment, BurstOutcome, EngineConfig, EngineError, MeasurementMode,
    RunWindow, SnapshotOut,
};
use crate::fleet::EngineScratch;
use crate::profiler::ProfileTable;
use gs_power::solar::{SolarTrace, WeatherModel};
use gs_sim::{SimDuration, SimRng, SimTime};
use gs_workload::arrivals::DiurnalTrace;
use serde::{Deserialize, Serialize};

/// Configuration of a multi-day campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct CampaignConfig {
    /// The burst-level engine configuration supplying app, provisioning,
    /// strategy, epoch, measurement, thermal model, and seed. Its burst
    /// fields (`availability`, `burst_duration`, `burst_intensity_cores`,
    /// `burst_start_hour`) are ignored — the campaign provides its own
    /// load and sky.
    pub engine: EngineConfig,
    /// Days of operation.
    pub days: u32,
    /// Daily flash spikes in the diurnal load (paper Fig. 1 shows several).
    pub spikes_per_day: u32,
    /// Peak offered load as a core-equivalent intensity (12 = the paper's
    /// saturating `Int=12`).
    pub peak_intensity_cores: u8,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            engine: EngineConfig::default(),
            days: 3,
            spikes_per_day: 4,
            peak_intensity_cores: 12,
        }
    }
}

/// What a campaign produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// Days simulated.
    pub days: u32,
    /// Server-hours of sprinting (sum over green servers).
    pub sprint_server_hours: f64,
    /// Wall-clock hours during which at least one server sprinted.
    pub sprint_hours: f64,
    /// Extrapolation of `sprint_hours` to a 365-day year.
    pub sprint_hours_per_year: f64,
    /// Total goodput relative to a Normal-mode run of the same days.
    pub goodput_vs_normal: f64,
    /// The underlying strategy-run outcome (energy accounting etc.).
    pub run: BurstOutcome,
}

impl CampaignConfig {
    /// Validate this configuration without running it.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.days < 1 {
            return Err(EngineError::ZeroDays);
        }
        check_intensity("peak_intensity_cores", self.peak_intensity_cores)?;
        self.engine.validate_base()
    }
}

/// Run a campaign: the configured strategy plus a Normal floor over
/// identical load and weather. Panics on an invalid configuration; see
/// [`try_run_campaign`] for the reporting variant.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignOutcome {
    try_run_campaign(cfg).unwrap_or_else(|e| panic!("invalid campaign configuration: {e}"))
}

/// As [`run_campaign`], surfacing configuration errors instead of
/// panicking — for callers handling untrusted input (the CLI).
pub fn try_run_campaign(cfg: &CampaignConfig) -> Result<CampaignOutcome, EngineError> {
    let mut scratch = EngineScratch::new();
    try_run_campaign_in(cfg, &mut scratch)
}

/// As [`try_run_campaign`], reusing a caller-provided scratch arena
/// (sweep workers thread one arena through every task).
pub(crate) fn try_run_campaign_in(
    cfg: &CampaignConfig,
    scratch: &mut EngineScratch,
) -> Result<CampaignOutcome, EngineError> {
    cfg.validate()?;
    run(cfg, None, None, scratch)
}

/// The campaign's deterministic load and sky, rebuilt from its seed — the
/// one place both fresh runs and snapshot resumes derive the environment,
/// so they cannot diverge.
fn campaign_window(cfg: &CampaignConfig) -> RunWindow {
    let mut rng = SimRng::seed_from_u64(cfg.engine.seed ^ 0xCA3A_16E5);
    let load = DiurnalTrace::generate(cfg.days, cfg.spikes_per_day, &mut rng);
    let sky = SolarTrace::generate(cfg.days, &WeatherModel::default(), &mut rng);
    let peak_rps = ProfileTable::cached(cfg.engine.app).intensity_rps(cfg.peak_intensity_cores);
    RunWindow {
        offered_rps: Box::new(move |t: SimTime| load.offered_rps(t, peak_rps)),
        trace: sky,
        start: SimTime::ZERO,
        duration: SimDuration::from_hours(cfg.days as u64 * 24),
    }
}

/// The campaign's strategy run beside its Normal floor over one window,
/// fresh or resumed from `resume`, snapshotting through `out`.
fn run(
    cfg: &CampaignConfig,
    resume: Option<EngineSnapshot>,
    out: Option<&mut SnapshotOut<'_>>,
    scratch: &mut EngineScratch,
) -> Result<CampaignOutcome, EngineError> {
    let window = campaign_window(cfg);
    let (main, _, floor) = run_experiment(&cfg.engine, &window, resume, out, scratch)?.finish();
    Ok(assemble_outcome(cfg, main, floor))
}

/// Derive the campaign-level metrics from the finished strategy run and
/// its Normal floor. A Normal campaign is its own floor: a second Normal
/// run of the same days would be the identical run. The floor's auditor
/// findings fold into the strategy outcome — a physics violation in
/// either run taints the result.
fn assemble_outcome(
    cfg: &CampaignConfig,
    mut run: BurstOutcome,
    floor: Option<BurstOutcome>,
) -> CampaignOutcome {
    let (normal_rps, normal_violations) = match floor {
        Some(f) => (f.mean_goodput_rps, f.audit_violations),
        None => (run.mean_goodput_rps, run.audit_violations.clone()),
    };
    run.audit_violations
        .extend(normal_violations.iter().map(|v| format!("baseline: {v}")));
    let epoch_hours = cfg.engine.epoch.as_hours_f64();
    let sprint_server_hours: f64 = run
        .epochs
        .iter()
        .map(|e| e.sprinting_servers as f64 * epoch_hours)
        .sum();
    let sprint_hours: f64 = run
        .epochs
        .iter()
        .filter(|e| e.sprinting_servers > 0)
        .count() as f64
        * epoch_hours;
    let goodput_vs_normal = if normal_rps > 0.0 {
        run.mean_goodput_rps / normal_rps
    } else {
        1.0
    };
    CampaignOutcome {
        days: cfg.days,
        sprint_server_hours,
        sprint_hours,
        sprint_hours_per_year: sprint_hours * 365.0 / cfg.days as f64,
        goodput_vs_normal,
        run,
    }
}

/// The checkpoint fingerprint of a campaign configuration.
fn campaign_fingerprint(cfg: &CampaignConfig) -> String {
    let json = serde_json::to_string(cfg).expect("config serializes");
    crate::checkpoint::config_fingerprint(&json)
}

/// As [`try_run_campaign`], emitting a resumable [`EngineSnapshot`] of the
/// strategy run and its Normal floor at every `every_epochs`-th epoch
/// boundary (0 = never). Requires analytic measurement (snapshots
/// serialize the full controller state; DES state cannot).
pub fn try_run_campaign_with_snapshots(
    cfg: &CampaignConfig,
    every_epochs: u64,
    sink: &mut dyn FnMut(&EngineSnapshot),
) -> Result<CampaignOutcome, EngineError> {
    resume_or_run(cfg, campaign_fingerprint(cfg), None, every_epochs, sink)
}

/// Resume a campaign from a mid-run snapshot; called through
/// [`crate::engine::resume_snapshot`] after the fingerprint check.
pub(crate) fn resume_campaign_snapshot(
    cfg: &CampaignConfig,
    snap: EngineSnapshot,
    every_epochs: u64,
    sink: &mut dyn FnMut(&EngineSnapshot),
) -> Result<CampaignOutcome, EngineError> {
    resume_or_run(
        cfg,
        snap.fingerprint.clone(),
        Some(snap),
        every_epochs,
        sink,
    )
}

/// A snapshotting campaign run, fresh or resumed from `resume`.
fn resume_or_run(
    cfg: &CampaignConfig,
    fingerprint: String,
    resume: Option<EngineSnapshot>,
    every_epochs: u64,
    sink: &mut dyn FnMut(&EngineSnapshot),
) -> Result<CampaignOutcome, EngineError> {
    cfg.validate()?;
    if cfg.engine.measurement != MeasurementMode::Analytic {
        return Err(EngineError::SnapshotRequiresAnalytic);
    }
    let mut out = SnapshotOut {
        every: every_epochs,
        fingerprint,
        scope: SnapshotScope::Campaign(cfg.clone()),
        sink,
    };
    run(cfg, resume, Some(&mut out), &mut EngineScratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GreenConfig;
    use crate::pmk::Strategy;

    fn campaign(strategy: Strategy) -> CampaignOutcome {
        let cfg = CampaignConfig {
            engine: EngineConfig {
                strategy,
                green: GreenConfig::re_batt(),
                measurement: MeasurementMode::Analytic,
                seed: 3,
                ..EngineConfig::default()
            },
            days: 1,
            spikes_per_day: 3,
            peak_intensity_cores: 12,
        };
        run_campaign(&cfg)
    }

    #[test]
    fn hybrid_campaign_sprints_and_outperforms_normal() {
        let out = campaign(Strategy::Hybrid);
        assert!(out.sprint_hours > 0.5, "sprint hours {}", out.sprint_hours);
        assert!(out.sprint_hours < 24.0);
        assert!(
            out.goodput_vs_normal > 1.3,
            "gain {}",
            out.goodput_vs_normal
        );
        assert!(out.sprint_server_hours >= out.sprint_hours);
        // Extrapolation is consistent.
        assert!((out.sprint_hours_per_year - out.sprint_hours * 365.0).abs() < 1e-6);
    }

    #[test]
    fn normal_campaign_never_sprints() {
        let out = campaign(Strategy::Normal);
        assert_eq!(out.sprint_hours, 0.0);
        assert!((out.goodput_vs_normal - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_single_day_of_real_load_clears_the_tco_crossover() {
        // The paper's punchline: break-even is ~14 sprint-hours a year; a
        // bursty interactive service generates that in days.
        let out = campaign(Strategy::Hybrid);
        let tco = gs_tco::TcoParams::paper();
        assert!(
            out.sprint_hours_per_year > tco.crossover_hours(),
            "{} h/yr vs crossover {}",
            out.sprint_hours_per_year,
            tco.crossover_hours()
        );
    }

    #[test]
    fn batteries_grid_recharge_in_the_overnight_valley() {
        // After daytime sprinting drains the packs, the diurnal trough
        // (offered load below Normal capacity, zero sun) lets the paper's
        // case-3 grid recharge run — visible as SoC climbing through
        // epochs with no renewable supply.
        let out = campaign(Strategy::Hybrid);
        let recharged_in_the_dark = out.run.epochs.windows(2).any(|w| {
            w[1].re_supply_w < 1.0
                && w[1].battery_soc > w[0].battery_soc + 1e-4
                && !w[1].setting.is_sprinting()
        });
        assert!(recharged_in_the_dark, "no overnight grid recharge observed");
    }

    #[test]
    #[should_panic(expected = "at least one day")]
    fn rejects_zero_days() {
        let cfg = CampaignConfig {
            days: 0,
            ..CampaignConfig::default()
        };
        run_campaign(&cfg);
    }

    #[test]
    fn campaign_snapshot_resume_is_byte_identical() {
        let cfg = CampaignConfig {
            engine: EngineConfig {
                strategy: Strategy::Hybrid,
                green: GreenConfig::re_batt(),
                measurement: MeasurementMode::Analytic,
                seed: 3,
                ..EngineConfig::default()
            },
            days: 1,
            spikes_per_day: 3,
            peak_intensity_cores: 12,
        };
        let want = serde_json::to_string(&try_run_campaign(&cfg).unwrap()).unwrap();

        let mut snaps = Vec::new();
        let direct =
            try_run_campaign_with_snapshots(&cfg, 500, &mut |s| snaps.push(s.clone())).unwrap();
        assert_eq!(serde_json::to_string(&direct).unwrap(), want);
        // 1,440 one-minute epochs: boundaries 500 and 1000, each holding
        // the strategy run and its floor.
        assert_eq!(snaps.len(), 2);
        assert!(snaps.iter().all(|s| s.state.baseline.is_some()));

        // Resume from each, through the on-disk JSON form.
        for snap in &snaps {
            let snap = EngineSnapshot::from_json(&snap.to_json()).unwrap();
            match crate::engine::resume_snapshot(snap, 0, &mut |_| {}).unwrap() {
                crate::engine::ResumedRun::Campaign(out) => {
                    assert_eq!(serde_json::to_string(&out).unwrap(), want);
                }
                other => panic!("expected a campaign, got {other:?}"),
            }
        }
    }

    #[test]
    fn try_run_campaign_reports_instead_of_panicking() {
        let cfg = CampaignConfig {
            days: 0,
            ..CampaignConfig::default()
        };
        assert_eq!(try_run_campaign(&cfg).unwrap_err(), EngineError::ZeroDays);

        let mut cfg = CampaignConfig::default();
        cfg.engine.warm_policy_json = Some("not json".to_string());
        assert!(matches!(
            try_run_campaign(&cfg).unwrap_err(),
            EngineError::InvalidWarmPolicy(_)
        ));
    }

    #[test]
    fn out_of_range_peak_intensity_is_refused_naming_the_value() {
        for bad in [4, 5, 13, 20] {
            let cfg = CampaignConfig {
                peak_intensity_cores: bad,
                ..CampaignConfig::default()
            };
            assert_eq!(
                try_run_campaign(&cfg).unwrap_err(),
                EngineError::InvalidIntensity("peak_intensity_cores", bad)
            );
        }
        // A campaign ignores the engine's burst fields, its intensity too.
        let mut cfg = CampaignConfig::default();
        cfg.engine.burst_intensity_cores = 4;
        assert!(cfg.validate().is_ok());
    }

    /// The campaign's offered load is its diurnal curve scaled by the
    /// `Int=k` rate, which carries the bits of a fresh SLO-capacity solve.
    #[test]
    fn campaign_peak_is_the_k_core_slo_capacity() {
        let cfg = CampaignConfig {
            days: 1,
            peak_intensity_cores: 9,
            ..CampaignConfig::default()
        };
        let window = campaign_window(&cfg);
        let mut rng = SimRng::seed_from_u64(cfg.engine.seed ^ 0xCA3A_16E5);
        let load = DiurnalTrace::generate(cfg.days, cfg.spikes_per_day, &mut rng);
        let peak = cfg
            .engine
            .app
            .profile()
            .slo_capacity(gs_cluster::ServerSetting::new(9, 8));
        for mins in [0, 300, 720, 1_000, 1_439] {
            let t = SimTime::from_mins(mins);
            assert_eq!(
                (window.offered_rps)(t).to_bits(),
                load.offered_rps(t, peak).to_bits()
            );
        }
    }

    #[test]
    fn campaigns_reject_degenerate_engine_configs_too() {
        let mut cfg = CampaignConfig::default();
        cfg.engine.green.green_servers = 0;
        assert_eq!(cfg.validate().unwrap_err(), EngineError::ZeroServers);

        let mut cfg = CampaignConfig::default();
        cfg.engine.switch_hysteresis = f64::NAN;
        assert!(matches!(
            cfg.validate().unwrap_err(),
            EngineError::InvalidThreshold(_)
        ));
    }
}
