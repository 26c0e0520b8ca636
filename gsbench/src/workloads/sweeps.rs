//! `paper_grid` and `campaign`: sweeps through `run_sweep_streaming`.
//!
//! * `paper_grid` is the paper's own experiment: {jbb, websearch,
//!   memcached} × {Greedy, Parallel, Pacing, Hybrid} × {min, med, max}
//!   availability, RE-Batt, request-level DES. Burst lengths are scaled
//!   down from the paper's 10–60 min so one grid fits a run's time box
//!   several times over; the DES does nearly all the work.
//! * `campaign` is two diurnal campaigns (jbb, memcached) with Hybrid,
//!   the guardrail on, Analytic measurement and the PCM thermal model on
//!   a 10-server rack: the DES is bypassed and the per-epoch engine path
//!   (predictor, PSS, Hybrid's RNG-coupled learner, battery, thermal,
//!   audit, guardrail shadow, monitor) does the work.

use std::time::Instant;

use greensprint::campaign::CampaignConfig;
use greensprint::config::{AvailabilityLevel, GreenConfig};
use greensprint::engine::{EngineConfig, MeasurementMode, ThermalModel};
use greensprint::pmk::Strategy;
use greensprint::sweep::{run_sweep_streaming, SweepOutcome, SweepPoint, SweepResult, SweepTask};
use gs_sim::SimDuration;
use gs_workload::apps::Application;

use super::{guarded, rack10, Rep, Runner, JOBS};
use crate::digest::digest_lines;
use crate::metrics::Values;
use crate::stats::median;
use crate::trace::Tracer;

/// Burst lengths (minutes) of the benchmark's paper grid.
pub const GRID_MINUTES: &[u64] = &[1, 2];
/// Days per campaign of the benchmark's campaign workload.
pub const CAMPAIGN_DAYS: u32 = 2;

const GRID_APPS: &[Application] = &Application::ALL;
const CAMPAIGN_APPS: &[Application] = &[Application::SpecJbb, Application::Memcached];

/// A sweep workload: its points, and for the paper grid the same points
/// in Analytic mode (the DES-free twin that splits DES from engine time).
pub struct SweepBench {
    seed: u64,
    apps: &'static [Application],
    points: Vec<SweepPoint>,
    analytic_twin: Option<Vec<SweepPoint>>,
    /// Racks × window epochs per sweep (every point is one rack).
    sim_epochs: u64,
    last: Vec<SweepResult>,
}

impl SweepBench {
    /// The paper grid with bursts of `minutes`.
    pub fn paper_grid(seed: u64, minutes: &[u64]) -> Self {
        let grid = |measurement| {
            let mut points = Vec::new();
            for &app in GRID_APPS {
                for strategy in [
                    Strategy::Greedy,
                    Strategy::Parallel,
                    Strategy::Pacing,
                    Strategy::Hybrid,
                ] {
                    for availability in [
                        AvailabilityLevel::Minimum,
                        AvailabilityLevel::Medium,
                        AvailabilityLevel::Maximum,
                    ] {
                        for &m in minutes {
                            let cfg = EngineConfig {
                                app,
                                green: GreenConfig::re_batt(),
                                strategy,
                                availability,
                                burst_duration: SimDuration::from_mins(m),
                                measurement,
                                ..EngineConfig::default()
                            };
                            points.push(SweepPoint::burst(
                                format!("{app}/{strategy}/{availability:?}/{m}min"),
                                cfg,
                            ));
                        }
                    }
                }
            }
            points
        };
        let points = grid(MeasurementMode::Des);
        SweepBench {
            seed,
            apps: GRID_APPS,
            sim_epochs: window_epochs(&points),
            analytic_twin: Some(grid(MeasurementMode::Analytic)),
            points,
            last: Vec::new(),
        }
    }

    /// One `days`-day campaign per campaign app.
    pub fn campaign(seed: u64, days: u32) -> Self {
        let points: Vec<SweepPoint> = CAMPAIGN_APPS
            .iter()
            .map(|&app| {
                SweepPoint::campaign(format!("{app}/{days}day"), campaign_config(app, days))
            })
            .collect();
        SweepBench {
            seed,
            apps: CAMPAIGN_APPS,
            sim_epochs: window_epochs(&points),
            analytic_twin: None,
            points,
            last: Vec::new(),
        }
    }

    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Digest of one sweep of this workload at `jobs` workers.
    pub fn digest_at(&self, jobs: usize) -> String {
        digest_lines(&result_lines(
            &timed_sweep(&self.points, self.seed, jobs).results,
        ))
    }
}

/// The campaign workload's configuration for `app`: Hybrid with the
/// guardrail on, Analytic, PCM thermal, on a 10-server rack.
pub fn campaign_config(app: Application, days: u32) -> CampaignConfig {
    CampaignConfig {
        engine: guarded(EngineConfig {
            app,
            green: rack10(),
            strategy: Strategy::Hybrid,
            measurement: MeasurementMode::Analytic,
            thermal: ThermalModel::PaperPcm,
            ..EngineConfig::default()
        }),
        days,
        spikes_per_day: 4,
        peak_intensity_cores: 12,
    }
}

/// Window epochs of a point list (burst minutes, or campaign days).
fn window_epochs(points: &[SweepPoint]) -> u64 {
    points
        .iter()
        .map(|p| match &p.task {
            SweepTask::Burst(cfg) => cfg.burst_duration.as_secs_f64() / cfg.epoch.as_secs_f64(),
            SweepTask::Campaign(c) => f64::from(c.days) * 86_400.0 / c.engine.epoch.as_secs_f64(),
        } as u64)
        .sum()
}

/// A completed sweep with each result's completion time.
pub struct SweepRun {
    pub results: Vec<SweepResult>,
    pub wall_s: f64,
    /// Milliseconds from submission to each result, in completion order.
    pub done_ms: Vec<f64>,
}

/// Run `points` through the library's sweep executor, timing each
/// streamed result from submission.
pub fn timed_sweep(points: &[SweepPoint], seed: u64, jobs: usize) -> SweepRun {
    let points = points.to_vec();
    let mut done_ms = Vec::with_capacity(points.len());
    let t0 = Instant::now();
    let results = run_sweep_streaming(points, seed, jobs, |_| {
        done_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    });
    SweepRun {
        results,
        wall_s: t0.elapsed().as_secs_f64(),
        done_ms,
    }
}

/// One JSON line per result, in submission order.
pub fn result_lines(results: &[SweepResult]) -> Vec<String> {
    results
        .iter()
        .map(|r| serde_json::to_string(r).expect("sweep results serialize"))
        .collect()
}

/// Results that failed, audited dirty, or produced a non-finite outcome.
pub fn failed_results(results: &[SweepResult]) -> u64 {
    results
        .iter()
        .filter(|r| {
            let violations = match &r.outcome {
                SweepOutcome::Burst(b) => b.audit_violations.len(),
                SweepOutcome::Campaign(c) => c.run.audit_violations.len(),
                SweepOutcome::Failed(_) => 1,
            };
            violations > 0 || !r.outcome.vs_normal().is_finite()
        })
        .count() as u64
}

/// Request-level events the DES simulated, as implied by the results:
/// arrivals plus SLO-meeting completions of each strategy run (from its
/// `EpochRecord`s) and of its Normal baseline (same arrivals, baseline
/// goodput). Exact for a given seed.
pub fn des_events(points: &[SweepPoint], results: &[SweepResult]) -> u64 {
    let mut events = 0.0;
    for (p, r) in points.iter().zip(results) {
        let (SweepTask::Burst(cfg), SweepOutcome::Burst(b)) = (&p.task, &r.outcome) else {
            continue;
        };
        let n = cfg.green.green_servers as f64;
        let secs = cfg.epoch.as_secs_f64();
        for rec in &b.epochs {
            let arrivals = rec.offered_rps * n * secs;
            events += 2.0 * arrivals + rec.goodput_rps * secs;
            events += b.normal_baseline_rps * n * secs;
        }
    }
    events.round() as u64
}

impl Runner for SweepBench {
    fn setup_apps(&self) -> (&'static [Application], bool) {
        (self.apps, true)
    }

    fn rep(&mut self, tracer: &mut Tracer) -> Result<Rep, String> {
        let run = tracer.span("sweep.run_sweep_streaming", |_| {
            timed_sweep(&self.points, self.seed, JOBS)
        });
        let t = Instant::now();
        let lines = result_lines(&run.results);
        let digest = digest_lines(&lines);
        let encode_s = t.elapsed().as_secs_f64();
        let rep = Rep {
            wall_s: run.wall_s,
            sim_epochs: self.sim_epochs,
            latencies_ms: run.done_ms,
            attempted: run.results.len() as u64,
            failed: failed_results(&run.results),
            digests: vec![digest],
            encode_s,
            bytes: lines.iter().map(|l| l.len() as u64 + 1).sum(),
        };
        self.last = run.results;
        Ok(rep)
    }

    fn reference(&mut self) -> Result<String, String> {
        Ok(self.digest_at(JOBS))
    }

    fn layers(
        &mut self,
        reps: &[Rep],
        tracer: &mut Tracer,
        out: &mut Values,
    ) -> Result<u64, String> {
        let wall = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let serial = tracer.span("sweep.jobs1", |_| timed_sweep(&self.points, self.seed, 1));
        // Jobs-invariance: the serial rerun must reproduce the parallel
        // reps byte for byte.
        let mut failed = 0;
        if digest_lines(&result_lines(&serial.results)) != reps[0].digests[0] {
            failed = serial.results.len() as u64;
        }
        let busy = serial.done_ms.last().copied().unwrap_or(0.0) / 1e3;
        out.set("sweep.points", self.points.len() as f64);
        out.set("sweep.busy_s", busy);
        out.set("sweep.idle_s", JOBS as f64 * wall - busy);
        let engine_epochs = 2 * self.sim_epochs;
        out.set("engine.epochs", engine_epochs as f64);
        let engine_busy = match &self.analytic_twin {
            Some(twin) => {
                let analytic =
                    tracer.span("engine.analytic_jobs1", |_| timed_sweep(twin, self.seed, 1));
                let des_busy = serial.wall_s - analytic.wall_s;
                let events = des_events(&self.points, &self.last);
                out.set("des.events", events as f64);
                out.set("des.busy_s", des_busy);
                out.set("des.ns_per_event", des_busy * 1e9 / events.max(1) as f64);
                out.set("des.share", des_busy / serial.wall_s);
                analytic.wall_s
            }
            None => serial.wall_s,
        };
        out.set("engine.busy_s", engine_busy);
        out.set(
            "engine.ns_per_epoch",
            engine_busy * 1e9 / engine_epochs as f64,
        );
        Ok(failed)
    }
}
