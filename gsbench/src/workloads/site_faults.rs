//! `site_faults`: a 32-rack datacenter through the partition-tolerant
//! broker under a seeded site fault plan.
//!
//! Apps cycle jbb/websearch/memcached and strategies Pacing/Parallel/
//! Greedy, Analytic with thermal off: the broker's lockstep threads,
//! routing and site audit, and the learner-free memoized decision path.
//! It takes no snapshots, so checkpoint cost is zero here.

use std::time::Instant;

use greensprint::broker::try_run_datacenter;
use greensprint::config::AvailabilityLevel;
use greensprint::datacenter::{DatacenterConfig, DatacenterOutcome, RackSpec};
use greensprint::engine::{Engine, EngineConfig, MeasurementMode, ThermalModel};
use greensprint::faults::FaultPlan;
use greensprint::pmk::Strategy;
use gs_sim::{SimDuration, SimTime};
use gs_workload::apps::Application;

use super::{rack10, Rep, Runner, JOBS};
use crate::digest::digest_lines;
use crate::metrics::Values;
use crate::stats::median;
use crate::trace::Tracer;

/// Racks of the benchmark's site.
pub const RACKS: usize = 32;
/// Burst window of the benchmark's site, in minutes (one-minute epochs).
pub const MINUTES: u64 = 240;

const STRATEGIES: [Strategy; 3] = [Strategy::Pacing, Strategy::Parallel, Strategy::Greedy];

/// The site workload.
pub struct SiteFaults {
    cfg: DatacenterConfig,
    last: Option<DatacenterOutcome>,
}

/// The datacenter of `racks` 10-server racks over a `minutes` window,
/// with the site fault plan generated from `seed`.
pub fn config(seed: u64, racks: usize, minutes: u64) -> DatacenterConfig {
    let template = EngineConfig {
        availability: AvailabilityLevel::Medium,
        burst_duration: SimDuration::from_mins(minutes),
        measurement: MeasurementMode::Analytic,
        thermal: ThermalModel::Disabled,
        seed,
        ..EngineConfig::default()
    };
    let start = SimTime::from_secs_f64(template.burst_start_hour * 3_600.0);
    let n = u8::try_from(racks).expect("a site has at most 255 racks");
    DatacenterConfig {
        racks: (0..racks)
            .map(|i| RackSpec {
                app: Application::ALL[i % Application::ALL.len()],
                green: rack10(),
                strategy: STRATEGIES[i % STRATEGIES.len()],
            })
            .collect(),
        site_fault_plan: Some(FaultPlan::generate_site(
            seed,
            start,
            template.burst_duration,
            n,
        )),
        template,
    }
}

impl SiteFaults {
    pub fn new(seed: u64, racks: usize, minutes: u64) -> Self {
        SiteFaults {
            cfg: config(seed, racks, minutes),
            last: None,
        }
    }

    fn run(&self, jobs: usize) -> Result<(DatacenterOutcome, f64), String> {
        let t = Instant::now();
        let out = try_run_datacenter(&self.cfg, jobs)?;
        Ok((out, t.elapsed().as_secs_f64()))
    }

    /// Rack `i` run alone: the broker's per-rack config (template, rack
    /// fields, decorrelated seed) without the site plan or routing.
    fn solo_config(&self, i: usize) -> EngineConfig {
        let rack = &self.cfg.racks[i];
        EngineConfig {
            app: rack.app,
            green: rack.green.clone(),
            strategy: rack.strategy,
            seed: self.cfg.template.seed.wrapping_add(i as u64 * 0x9E37_79B9),
            ..self.cfg.template.clone()
        }
    }
}

/// One line per rack outcome, then the site-level fields.
pub fn outcome_lines(out: &DatacenterOutcome) -> Vec<String> {
    let mut lines: Vec<String> = out
        .racks
        .iter()
        .map(|r| serde_json::to_string(r).expect("rack outcomes serialize"))
        .collect();
    let site = DatacenterOutcome {
        racks: Vec::new(),
        ..out.clone()
    };
    lines.push(serde_json::to_string(&site).expect("site outcomes serialize"));
    lines
}

/// Racks that lost the Normal floor, audited dirty or produced a
/// non-finite speedup; every rack when the site audit found a violation.
pub fn failed_racks(out: &DatacenterOutcome) -> u64 {
    if !out.site_audit_violations.is_empty() {
        return out.racks.len() as u64;
    }
    out.racks
        .iter()
        .filter(|r| {
            !r.floor_held || !r.audit_violations.is_empty() || !r.speedup_vs_normal.is_finite()
        })
        .count() as u64
}

impl Runner for SiteFaults {
    fn setup_apps(&self) -> (&'static [Application], bool) {
        (&Application::ALL, false)
    }

    fn rep(&mut self, tracer: &mut Tracer) -> Result<Rep, String> {
        let (out, wall_s) = tracer.span("broker.try_run_datacenter", |_| self.run(JOBS))?;
        let t = Instant::now();
        let lines = outcome_lines(&out);
        let digest = digest_lines(&lines);
        let encode_s = t.elapsed().as_secs_f64();
        let rep = Rep {
            wall_s,
            sim_epochs: self.cfg.racks.len() as u64 * window_epochs(&self.cfg),
            latencies_ms: vec![wall_s * 1e3],
            attempted: out.racks.len() as u64,
            failed: failed_racks(&out),
            digests: vec![digest],
            encode_s,
            bytes: lines.iter().map(|l| l.len() as u64 + 1).sum(),
        };
        self.last = Some(out);
        Ok(rep)
    }

    fn reference(&mut self) -> Result<String, String> {
        let (out, _) = self.run(JOBS)?;
        Ok(digest_lines(&outcome_lines(&out)))
    }

    fn layers(
        &mut self,
        reps: &[Rep],
        tracer: &mut Tracer,
        out: &mut Values,
    ) -> Result<u64, String> {
        let racks = self.cfg.racks.len();
        let solo_busy_s = tracer.span("engine.solo_racks", |_| {
            (0..racks)
                .map(|i| {
                    let t = Instant::now();
                    std::hint::black_box(Engine::new(self.solo_config(i)).run());
                    t.elapsed().as_secs_f64()
                })
                .sum::<f64>()
        });
        let (serial, dc_busy_s) = tracer.span("broker.jobs1", |_| self.run(1))?;
        // Jobs-invariance: the serial broker must reproduce the reps.
        let failed = if digest_lines(&outcome_lines(&serial)) == reps[0].digests[0] {
            0
        } else {
            racks as u64
        };
        let wall = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let engine_epochs = 2 * racks as u64 * window_epochs(&self.cfg);
        out.set("engine.epochs", engine_epochs as f64);
        out.set("engine.busy_s", solo_busy_s);
        out.set(
            "engine.ns_per_epoch",
            solo_busy_s * 1e9 / engine_epochs as f64,
        );
        out.set("broker.solo_busy_s", solo_busy_s);
        out.set("broker.dc_busy_s", dc_busy_s);
        out.set("broker.overhead_s", dc_busy_s - solo_busy_s);
        out.set("broker.parallel_eff", dc_busy_s / (JOBS as f64 * wall));
        let last = self.last.as_ref().unwrap_or(&serial);
        out.set("broker.rerouted_epochs", last.rerouted_epochs as f64);
        out.set("broker.link_retries", last.link_retries as f64);
        out.set("broker.partition_epochs", last.partition_epochs as f64);
        out.set("broker.blackout_epochs", last.blackout_epochs as f64);
        out.set(
            "audit.site_violations",
            last.site_audit_violations.len() as f64,
        );
        Ok(failed)
    }
}

fn window_epochs(cfg: &DatacenterConfig) -> u64 {
    (cfg.template.burst_duration.as_secs_f64() / cfg.template.epoch.as_secs_f64()) as u64
}
