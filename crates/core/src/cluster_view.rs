//! The full 10-server cluster view.
//!
//! The paper's figures measure the green-provisioned servers, but its
//! setup (§IV-A) also has the *grid-side* servers sprinting
//! "conservatively … at sub-optimal performance (e.g., 12 core-sprinting
//! with 1.5GHz or 7 core-sprinting with 2GHz)" inside the 1000 W grid
//! budget. This module runs that complete picture: the green rack through
//! the normal engine, the utility-dependent servers at the best uniform
//! setting the grid budget admits, and the PDU breaker over the aggregate
//! grid draw.

use crate::engine::{measure_analytic, BurstOutcome, Engine, EngineConfig};
use crate::profiler::ProfileTable;
use gs_cluster::cluster::PAPER_CLUSTER_SIZE;
use gs_cluster::ServerSetting;
use gs_power::pdu::CircuitBreaker;
use serde::{Deserialize, Serialize};

/// How the utility-dependent servers behave during the burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GridSprintPolicy {
    /// Stay at Normal mode (strictly inside the provisioned budget).
    NormalOnly,
    /// The paper's setup: sprint at the best uniform setting whose
    /// aggregate full-load power fits the grid budget.
    SubOptimal,
    /// Ignore the budget and sprint flat out — demonstrates why the
    /// breaker exists (failure injection).
    Reckless,
}

/// Outcome of a full-cluster burst.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterOutcome {
    /// The green rack's outcome (as from [`Engine::run`]).
    pub green: BurstOutcome,
    /// Setting the grid servers ran at.
    pub grid_setting: ServerSetting,
    /// Number of utility-dependent servers.
    pub grid_servers: usize,
    /// Their aggregate goodput (req/s).
    pub grid_goodput_rps: f64,
    /// Their aggregate power draw (W).
    pub grid_power_w: f64,
    /// Whether the PDU breaker tripped during the burst (after a trip the
    /// grid servers are counted at zero goodput for the remainder —
    /// exactly the revenue catastrophe the paper's budget discipline
    /// avoids).
    pub breaker_tripped: bool,
    /// Whole-cluster speedup over an all-Normal cluster.
    pub cluster_speedup_vs_normal: f64,
    /// Smallest live green-server count seen during the burst (the full
    /// green subset unless the fault plan crashed or flapped servers).
    pub green_min_live_servers: usize,
}

/// The grid budget of the prototype: 100 W × 10 servers.
pub const PAPER_GRID_BUDGET_W: f64 = 1000.0;

/// Run the full cluster for one burst configuration.
pub fn run_cluster(cfg: &EngineConfig, policy: GridSprintPolicy) -> ClusterOutcome {
    let profiles = ProfileTable::cached(cfg.app);
    let app = cfg.app.profile();
    let green = Engine::new(cfg.clone()).run();

    let n_grid = PAPER_CLUSTER_SIZE - cfg.green.green_servers;
    let offered = profiles.intensity_rps(cfg.burst_intensity_cores);
    let budget_per_server = PAPER_GRID_BUDGET_W / n_grid.max(1) as f64;

    let grid_setting = match policy {
        GridSprintPolicy::NormalOnly => ServerSetting::normal(),
        GridSprintPolicy::SubOptimal => profiles
            .best_within_budget(&ServerSetting::all(), offered, budget_per_server)
            .unwrap_or_else(ServerSetting::normal),
        GridSprintPolicy::Reckless => ServerSetting::max_sprint(),
    };

    // Steady-state per-server epoch under the burst (deterministic).
    let perf = measure_analytic(&app, profiles, grid_setting, offered);
    let per_server_power = app.power_model().power_w(grid_setting, perf.utilization);
    let grid_power_w = per_server_power * n_grid as f64;

    // Drive the breaker across the burst at that draw.
    let mut breaker = CircuitBreaker::new(PAPER_GRID_BUDGET_W);
    let tripped = breaker.advance(grid_power_w, cfg.burst_duration);

    let grid_goodput = if tripped {
        0.0
    } else {
        perf.goodput_rps * n_grid as f64
    };
    let normal_perf = measure_analytic(&app, profiles, ServerSetting::normal(), offered);
    let cluster_normal = normal_perf.goodput_rps * PAPER_CLUSTER_SIZE as f64;
    let cluster_goodput = green.mean_goodput_rps * cfg.green.green_servers as f64 + grid_goodput;

    let green_min_live_servers = green.min_live_servers.min(cfg.green.green_servers);
    ClusterOutcome {
        green,
        grid_setting,
        grid_servers: n_grid,
        grid_goodput_rps: grid_goodput,
        grid_power_w,
        breaker_tripped: tripped,
        cluster_speedup_vs_normal: cluster_goodput / cluster_normal,
        green_min_live_servers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AvailabilityLevel, GreenConfig};
    use crate::engine::MeasurementMode;
    use crate::pmk::Strategy;
    use gs_sim::SimDuration;
    use gs_workload::apps::Application;

    fn cfg() -> EngineConfig {
        EngineConfig {
            app: Application::SpecJbb,
            green: GreenConfig::re_batt(),
            strategy: Strategy::Hybrid,
            availability: AvailabilityLevel::Maximum,
            burst_duration: SimDuration::from_mins(10),
            measurement: MeasurementMode::Analytic,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn suboptimal_grid_sprint_matches_paper_example() {
        let out = run_cluster(&cfg(), GridSprintPolicy::SubOptimal);
        assert_eq!(out.grid_servers, 7);
        // Paper: 1000 W supports 7 servers at e.g. 12 cores @ 1.5 GHz.
        assert!(
            out.grid_setting.is_sprinting(),
            "chose {}",
            out.grid_setting
        );
        assert!(
            out.grid_power_w <= PAPER_GRID_BUDGET_W + 1e-6,
            "{}",
            out.grid_power_w
        );
        assert!(!out.breaker_tripped);
        // The grid side contributes real speedup but less than the green
        // side's full sprint.
        let per_grid = out.grid_goodput_rps / 7.0;
        assert!(per_grid > out.green.normal_baseline_rps * 1.5);
        assert!(per_grid < out.green.mean_goodput_rps);
    }

    #[test]
    fn cluster_speedup_sits_between_grid_and_green() {
        let out = run_cluster(&cfg(), GridSprintPolicy::SubOptimal);
        assert!(
            out.cluster_speedup_vs_normal > 2.0,
            "{}",
            out.cluster_speedup_vs_normal
        );
        assert!(
            out.cluster_speedup_vs_normal < out.green.speedup_vs_normal,
            "cluster {} vs green {}",
            out.cluster_speedup_vs_normal,
            out.green.speedup_vs_normal
        );
    }

    #[test]
    fn normal_only_grid_contributes_baseline() {
        let out = run_cluster(&cfg(), GridSprintPolicy::NormalOnly);
        assert_eq!(out.grid_setting, ServerSetting::normal());
        assert!(!out.breaker_tripped);
        assert!(out.cluster_speedup_vs_normal > 1.0);
    }

    #[test]
    fn reckless_grid_sprinting_trips_the_breaker() {
        // 7 servers at 155 W = 1085 W against a 1000 W breaker: the paper's
        // "serious power emergencies" (§I) made concrete.
        let out = run_cluster(&cfg(), GridSprintPolicy::Reckless);
        assert!(out.grid_power_w > PAPER_GRID_BUDGET_W);
        assert!(out.breaker_tripped);
        assert_eq!(out.grid_goodput_rps, 0.0);
        // Tripping the grid side costs more cluster throughput than the
        // sub-optimal discipline earns.
        let disciplined = run_cluster(&cfg(), GridSprintPolicy::SubOptimal);
        assert!(disciplined.cluster_speedup_vs_normal > out.cluster_speedup_vs_normal);
    }

    #[test]
    fn a_green_server_crash_degrades_but_does_not_sink_the_cluster() {
        use crate::faults::{FaultEvent, FaultKind, FaultPlan};
        use gs_sim::SimTime;
        let healthy = run_cluster(&cfg(), GridSprintPolicy::SubOptimal);
        assert_eq!(healthy.green_min_live_servers, 3);
        let crash = FaultEvent {
            at: SimTime::from_hours(11) + SimDuration::from_mins(2),
            duration: SimDuration::from_mins(1),
            kind: FaultKind::ServerCrash {
                server: 1,
                down_epochs: 3,
            },
        };
        let out = run_cluster(
            &EngineConfig {
                fault_plan: Some(FaultPlan::new(vec![crash])),
                ..cfg()
            },
            GridSprintPolicy::SubOptimal,
        );
        assert_eq!(out.green_min_live_servers, 2);
        assert!(out.green.floor_held);
        assert!(!out.breaker_tripped, "a green crash is not a grid event");
        assert!(
            out.cluster_speedup_vs_normal < healthy.cluster_speedup_vs_normal,
            "degraded {} vs healthy {}",
            out.cluster_speedup_vs_normal,
            healthy.cluster_speedup_vs_normal
        );
        assert!(
            out.cluster_speedup_vs_normal > 1.0,
            "still beats all-Normal"
        );
    }

    #[test]
    fn sre_config_has_eight_grid_servers() {
        let out = run_cluster(
            &EngineConfig {
                green: GreenConfig::sre_sbatt(),
                ..cfg()
            },
            GridSprintPolicy::SubOptimal,
        );
        assert_eq!(out.grid_servers, 8);
        assert!(out.grid_power_w <= PAPER_GRID_BUDGET_W + 1e-6);
    }
}
