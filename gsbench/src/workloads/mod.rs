//! The four workloads and the run loop they share.
//!
//! A run times set-up cold and then again between reps, repeats the
//! workload's unit of work ("rep") until `--seconds` have passed, checks
//! every rep's output digest, and reports medians over the reps. A traced
//! run alternates traced and untraced reps and then runs the extra calls
//! its per-layer metrics need.

pub mod serve_fleet;
pub mod site_faults;
pub mod sweeps;

use std::path::{Path, PathBuf};
use std::time::Instant;

use greensprint::config::GreenConfig;
use greensprint::engine::EngineConfig;
use greensprint::qlearning::QLearner;
use greensprint::ProfileTable;
use gs_cluster::ServerSetting;
use gs_workload::apps::Application;

use crate::digest;
use crate::metrics::{RunReport, Values, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{median, peak_rss_mb, tail};
use crate::trace::Tracer;

/// Worker threads (sweeps, broker) — the 2 cores of the reference box.
pub const JOBS: usize = 2;

/// The 10-server green rack of the campaign and site workloads: one
/// panel and one 10 Ah battery per server.
pub fn rack10() -> GreenConfig {
    GreenConfig {
        name: "rack10".into(),
        green_servers: 10,
        panels: 10,
        battery_ah: 10.0,
    }
}

/// `cfg` with the policy guardrail switched on.
pub fn guarded(mut cfg: EngineConfig) -> EngineConfig {
    cfg.guardrail.enabled = true;
    cfg
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperGrid,
    Campaign,
    SiteFaults,
    ServeFleet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::Campaign,
        Workload::SiteFaults,
        Workload::ServeFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::Campaign => "campaign",
            Workload::SiteFaults => "site_faults",
            Workload::ServeFleet => "serve_fleet",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload at its benchmark size. `dir` holds any files it writes.
    pub fn runner(self, seed: u64, dir: &Path) -> Box<dyn Runner> {
        match self {
            Workload::PaperGrid => {
                Box::new(sweeps::SweepBench::paper_grid(seed, sweeps::GRID_MINUTES))
            }
            Workload::Campaign => {
                Box::new(sweeps::SweepBench::campaign(seed, sweeps::CAMPAIGN_DAYS))
            }
            Workload::SiteFaults => Box::new(site_faults::SiteFaults::new(
                seed,
                site_faults::RACKS,
                site_faults::MINUTES,
            )),
            Workload::ServeFleet => Box::new(serve_fleet::ServeFleet::new(
                seed,
                serve_fleet::RACKS,
                serve_fleet::EPOCHS,
                dir,
            )),
        }
    }
}

/// One repetition of a workload's unit of work.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall time of the timed library calls.
    pub wall_s: f64,
    /// Racks × simulated window epochs (Normal baselines excluded).
    pub sim_epochs: u64,
    /// Latency of each result the workload's consumer received.
    pub latencies_ms: Vec<f64>,
    /// Units attempted: points, campaigns, racks or ticks.
    pub attempted: u64,
    /// Units that broke an invariant.
    pub failed: u64,
    /// Digests of the rep's outputs; each must equal the expected one.
    pub digests: Vec<String>,
    /// Serializing the outputs for the digest (outside `wall_s`).
    pub encode_s: f64,
    pub bytes: u64,
}

/// A workload the run loop can drive.
pub trait Runner {
    /// Applications whose profile tables (and, with `true`, Hybrid
    /// learners) set-up builds.
    fn setup_apps(&self) -> (&'static [Application], bool);
    /// Run one rep.
    fn rep(&mut self, tracer: &mut Tracer) -> Result<Rep, String>;
    /// Digest of one uninterrupted run, as pinned in `digests.json`.
    fn reference(&mut self) -> Result<String, String>;
    /// Fill this workload's per-layer metrics after the reps; returns
    /// extra failed units (a rerun whose digest disagreed).
    fn layers(
        &mut self,
        reps: &[Rep],
        tracer: &mut Tracer,
        out: &mut Values,
    ) -> Result<u64, String>;
}

/// Set-up samples taken after each rep.
const SETUPS_PER_REP: usize = 2;

/// One timed set-up: `(profiler_s, qlearning_s)`.
type SetupSample = (f64, f64);

/// Time one set-up: building the profile tables of `apps` and, for
/// Hybrid workloads, bootstrapping their learners. The `cold` sample
/// fills the library's process-wide caches (what the workload then
/// uses); later samples rebuild the same tables and learners through the
/// uncached constructors.
fn setup_sample(apps: &[Application], hybrid: bool, cold: bool) -> SetupSample {
    let (mut p, mut q) = (0.0, 0.0);
    for &app in apps {
        let t = Instant::now();
        let table = if cold {
            std::hint::black_box(ProfileTable::cached(app));
            None
        } else {
            Some(std::hint::black_box(ProfileTable::build(&app.profile())))
        };
        p += t.elapsed().as_secs_f64();
        if !hybrid {
            continue;
        }
        let t = Instant::now();
        match &table {
            None => {
                std::hint::black_box(QLearner::bootstrapped_cached(app));
            }
            Some(table) => {
                let max = table.get(ServerSetting::max_sprint());
                let mut l = QLearner::new(max.full_load_power_w, max.slo_capacity);
                l.bootstrap(table);
                std::hint::black_box(l);
            }
        }
        q += t.elapsed().as_secs_f64();
    }
    (p, q)
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub spans_out: Option<PathBuf>,
    /// Scratch directory for files the workload writes.
    pub work_dir: PathBuf,
}

/// The check of a run's outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub invariant_failures: u64,
    /// The digest every output had to match.
    pub expected: String,
    pub agree: bool,
}

/// Check `reps`: every output digest must equal `pinned` (without one,
/// the first rep's), or every unit fails; otherwise the units that
/// broke an invariant fail.
pub fn judge(reps: &[Rep], pinned: Option<&str>) -> Verdict {
    let expected = pinned.map_or_else(|| reps[0].digests[0].clone(), str::to_string);
    let agree = reps
        .iter()
        .all(|r| r.digests.iter().all(|d| *d == expected));
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let invariant_failures: u64 = reps.iter().map(|r| r.failed).sum();
    Verdict {
        attempted,
        failed: digest::failed_units(attempted, invariant_failures, agree),
        invariant_failures,
        expected,
        agree,
    }
}

/// Run one workload: set-up, timed reps, digest checks, metrics.
/// Returns the report and human-readable notes about it.
pub fn run(args: &RunArgs) -> Result<(RunReport, Vec<String>), String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    let name = args.workload.name();
    let mut runner = args.workload.runner(args.seed, &args.work_dir);
    let (apps, hybrid) = runner.setup_apps();
    let mut setups = vec![setup_sample(apps, hybrid, true)];

    let mut tracer = Tracer::new(name, args.trace);
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Vec<bool> = Vec::new();
    let mut first_rep_rss_mb = None;
    let start = Instant::now();
    loop {
        let on = args.trace && reps.len().is_multiple_of(2);
        tracer.set_enabled(on);
        let rep = tracer.span("bench.rep", |t| runner.rep(t))?;
        reps.push(rep);
        traced.push(on);
        // Memory is read after the first rep: later reps start new worker
        // threads whose allocator arenas add a few MB at random, which
        // would make the peak grow with the number of reps a run fits.
        if reps.len() == 1 {
            first_rep_rss_mb = peak_rss_mb();
        }
        // Set-up is timed again between reps rather than back to back,
        // so a slow spell of the machine skews a few samples, not all.
        for _ in 0..SETUPS_PER_REP {
            setups.push(setup_sample(apps, hybrid, false));
        }
        let paired = !args.trace || reps.len() >= 2;
        if paired && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    tracer.set_enabled(args.trace);
    let setup_s = |f: fn(&SetupSample) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    let pinned = digest::reference(name, args.seed);
    let verdict = judge(&reps, pinned.as_deref());
    let (attempted, invariant_failures) = (verdict.attempted, verdict.invariant_failures);
    let mut failed = verdict.failed;

    let mut notes = vec![format!(
        "{name}: seed {}, {} reps in {:.1} s, jobs {JOBS}, {} cpus",
        args.seed,
        reps.len(),
        start.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )];
    notes.push(match (&pinned, verdict.agree) {
        (Some(d), true) => format!("digest {d}: matches digests.json"),
        (Some(d), false) => format!("digest MISMATCH: digests.json pins {d}; every unit fails"),
        (None, true) => format!(
            "digest {}: every rep agrees (no pinned digest at this seed)",
            verdict.expected
        ),
        (None, false) => "digest MISMATCH between reps; every unit fails".to_string(),
    });
    if invariant_failures > 0 {
        notes.push(format!("{invariant_failures} unit(s) broke an invariant"));
    }
    let walls: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    notes.push(format!("rep walls (s): {}", walls.join(" ")));

    let mut values = Values::default();
    let catalogue = if args.trace {
        values.set("profiler.build_s", setup_s(|s| s.0));
        values.set("qlearning.bootstrap_s", setup_s(|s| s.1));
        values.set(
            "output.encode_s",
            median(&reps.iter().map(|r| r.encode_s).collect::<Vec<_>>()),
        );
        values.set("output.bytes", reps[0].bytes as f64);
        let walls = |on: bool| -> Vec<f64> {
            reps.iter()
                .zip(&traced)
                .filter(|(_, &t)| t == on)
                .map(|(r, _)| r.wall_s)
                .collect()
        };
        values.set(
            "trace.overhead_frac",
            median(&walls(true)) / median(&walls(false)) - 1.0,
        );
        let extra = runner.layers(&reps, &mut tracer, &mut values)?;
        failed = (failed + extra).min(attempted);
        if extra > 0 {
            notes.push(format!("{extra} unit(s) failed in the per-layer reruns"));
        }
        let records = tracer.span("bench.probe_inputs", |_| probes::jbb_day(args.seed))?;
        for p in probes::run_all(&records, rack10().green_servers, args.seed, &mut tracer) {
            values.set(catalogue_name(p.layer, "calls"), p.calls as f64);
            values.set(catalogue_name(p.layer, "ns_per_call"), p.ns_per_call);
        }
        notes.push("self time by layer (s):".to_string());
        for (layer, s) in tracer.self_time_s() {
            notes.push(format!("  {layer:<12} {s:.6}"));
        }
        if let Some(path) = &args.spans_out {
            tracer
                .write_jsonl(path)
                .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
            notes.push(format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            ));
        }
        PER_LAYER
    } else {
        let tput: Vec<f64> = reps
            .iter()
            .map(|r| r.sim_epochs as f64 / r.wall_s)
            .collect();
        let lat: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect();
        let (tail_ms, p) = tail(&lat);
        values.set("setup_s", setup_s(|s| s.0 + s.1));
        values.set("sim_epochs_per_s", median(&tput));
        values.set("latency_p50_ms", median(&lat));
        values.set("latency_tail_ms", tail_ms);
        values.set("peak_rss_mb", first_rep_rss_mb.unwrap_or(0.0));
        notes.push(format!(
            "latency_tail_ms is p{p:.1} of {} results",
            lat.len()
        ));
        END_TO_END
    };
    Ok((
        RunReport {
            correct: failed == 0,
            attempted,
            failed,
            catalogue,
            values,
        },
        notes,
    ))
}

/// The catalogue name `<layer>.<suffix>` of a probe metric.
fn catalogue_name(layer: &str, suffix: &str) -> &'static str {
    let want = format!("{layer}.{suffix}");
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| *n == want)
        .unwrap_or_else(|| panic!("probe metric {want} is not in the catalogue"))
}
