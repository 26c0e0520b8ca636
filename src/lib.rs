//! # greensprint-repro — GreenSprint (IPDPS 2018), reproduced in Rust
//!
//! A full reimplementation of *GreenSprint: Effective Computational
//! Sprinting in Green Data Centers* and every substrate it depends on:
//!
//! * [`sim`] — deterministic simulation kernel (clock, events, RNG, stats);
//! * [`power`] — solar generation, VRLA batteries with Peukert's law,
//!   power-source selection, PDU/breaker hierarchy;
//! * [`cluster`] — the 10-server prototype: DVFS states, core scaling,
//!   calibrated power models, cpufreq/sysfs control plane;
//! * [`workload`] — SPECjbb / Web-Search / Memcached as SLO-constrained
//!   queueing stations with a request-level DES;
//! * [`core`] — the GreenSprint controller: Monitor, Predictor, PSS, the
//!   four PMK strategies (Greedy/Parallel/Pacing/Hybrid Q-learning), and
//!   the scheduling-epoch engine;
//! * [`tco`] — the profit-over-investment model.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results. The `experiments`
//! binary regenerates every table and figure of the paper's evaluation.
//!
//! ## Example
//!
//! ```
//! use greensprint_repro::prelude::*;
//!
//! let cfg = EngineConfig {
//!     app: Application::SpecJbb,
//!     green: GreenConfig::re_batt(),
//!     strategy: Strategy::Hybrid,
//!     availability: AvailabilityLevel::Maximum,
//!     burst_duration: SimDuration::from_mins(5),
//!     measurement: MeasurementMode::Analytic,
//!     ..EngineConfig::default()
//! };
//! let outcome = Engine::new(cfg).run();
//! assert!(outcome.speedup_vs_normal > 4.0);
//! ```

pub use greensprint as core;
pub use gs_cluster as cluster;
pub use gs_power as power;
pub use gs_sim as sim;
pub use gs_tco as tco;
pub use gs_workload as workload;

/// The commonly-used types in one import.
pub mod prelude {
    pub use greensprint::audit::{EpochFlows, InvariantAuditor, SiteFlows};
    pub use greensprint::broker::{
        resume_datacenter_snapshot, run_datacenter_with_snapshots, try_run_datacenter,
        DirectiveRow, RackRouteStats, SiteSnapshot, SiteState,
    };
    pub use greensprint::campaign::{
        run_campaign, try_run_campaign, try_run_campaign_with_snapshots, CampaignConfig,
        CampaignOutcome,
    };
    pub use greensprint::checkpoint::{
        config_fingerprint, points_digest, EngineSnapshot, Journal, JournalError, JournalHeader,
        LoadedJournal, SnapshotError, CHECKPOINT_SCHEMA, SITE_SCHEMA,
    };
    pub use greensprint::config::{AvailabilityLevel, GreenConfig};
    pub use greensprint::datacenter::{
        run_datacenter, DatacenterConfig, DatacenterOutcome, RackSpec,
    };
    pub use greensprint::engine::{resume_snapshot, ResumedRun};
    pub use greensprint::engine::{
        BurstOutcome, Engine, EngineConfig, EngineError, MeasurementMode, ThermalModel,
        REJOIN_EPOCHS,
    };
    pub use greensprint::faults::{ActiveFaults, FaultEvent, FaultKind, FaultPlan, FleetMix};
    pub use greensprint::guardrail::{GuardrailConfig, GuardrailState, QuarantineRecord};
    pub use greensprint::net::{
        admin_request, run_fault_plan, subscribe_collect, NetAddrs, NetConfig, NetFaultOp,
        NetFaultPlan, NetHarnessReport, NetPlane, NetSummary, RackStat,
    };
    pub use greensprint::pmk::Strategy;
    pub use greensprint::profiler::ProfileTable;
    pub use greensprint::qlearning::{PolicyError, QDelta, QLearner, TableStats};
    pub use greensprint::serve::{
        serve, ControlBackend, DisturbancePlan, OverrunPolicy, ServeArgs, ServeError, ServeOptions,
        ServeSideState, ServeSnapshot, ServeSummary,
    };
    pub use greensprint::supervisor::{
        epoch_budget, run_supervised_sweep, RackHealth, RackSupervisor, SupervisorPolicy,
        SweepReport,
    };
    pub use greensprint::sweep::{
        default_jobs, derive_seed, run_sweep, run_sweep_streaming, SweepOutcome, SweepPoint,
        SweepResult, SweepTask,
    };
    pub use gs_cluster::ServerSetting;
    pub use gs_power::battery::{Battery, BatterySpec};
    pub use gs_power::solar::{PvArray, SolarTrace, WeatherModel};
    pub use gs_sim::{SimDuration, SimRng, SimTime};
    pub use gs_tco::TcoParams;
    pub use gs_workload::apps::Application;
}
