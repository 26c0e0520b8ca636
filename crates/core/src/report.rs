//! Human-readable rendering of run outcomes — one place for the textual
//! presentation the CLI, the examples, and the experiment harness share.

use crate::campaign::CampaignOutcome;
use crate::datacenter::DatacenterOutcome;
use crate::engine::BurstOutcome;
use crate::net::NetSummary;
use crate::serve::ServeSummary;
use std::fmt::Write as _;

/// Render a burst outcome as an aligned multi-line summary.
pub fn burst_summary(out: &BurstOutcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "speedup vs Normal : {:.2}x", out.speedup_vs_normal);
    let _ = writeln!(
        s,
        "goodput           : {:.1} req/s/server (Normal {:.1})",
        out.mean_goodput_rps, out.normal_baseline_rps
    );
    let _ = writeln!(s, "SLO attainment    : {:.1}%", out.slo_attainment * 100.0);
    let _ = writeln!(
        s,
        "energy            : {:.1} Wh renewable + {:.1} Wh battery ({:.1} Wh curtailed)",
        out.re_used_wh, out.battery_used_wh, out.curtailed_wh
    );
    let _ = writeln!(
        s,
        "battery           : {:.3} cycles, {:.1} Wh grid recharge",
        out.battery_cycles, out.grid_recharge_wh
    );
    let _ = writeln!(
        s,
        "thermals          : peak {:.1} degC, {} throttled epochs",
        out.peak_temp_c, out.thermal_throttle_epochs
    );
    let _ = writeln!(
        s,
        "knob churn        : {} transitions",
        out.setting_transitions
    );
    s
}

/// Render the epoch-by-epoch trace as an aligned table.
pub fn epoch_table(out: &BurstOutcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<9} {:<12} {:<15} {:>8} {:>8} {:>6} {:>9}",
        "time", "setting", "supply case", "RE (W)", "batt(W)", "SoC", "goodput"
    );
    for e in &out.epochs {
        let _ = writeln!(
            s,
            "{:<9} {:<12} {:<15} {:>8.0} {:>8.0} {:>5.0}% {:>9.1}",
            e.t.to_string(),
            e.setting.to_string(),
            e.case.to_string(),
            e.re_supply_w,
            e.battery_w,
            e.battery_soc * 100.0,
            e.goodput_rps,
        );
    }
    s
}

/// Render a campaign outcome.
pub fn campaign_summary(out: &CampaignOutcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "days simulated    : {}", out.days);
    let _ = writeln!(
        s,
        "sprint hours      : {:.1} ({:.1} server-hours)",
        out.sprint_hours, out.sprint_server_hours
    );
    let _ = writeln!(s, "per year          : {:.0} h", out.sprint_hours_per_year);
    let _ = writeln!(s, "goodput vs Normal : {:.2}x", out.goodput_vs_normal);
    let _ = writeln!(
        s,
        "renewable         : {:.0} Wh used, {:.0} Wh curtailed",
        out.run.re_used_wh, out.run.curtailed_wh
    );
    s
}

/// Render a datacenter outcome: fleet aggregates, per-rack routing
/// lines, and the site fault counters.
pub fn datacenter_summary(out: &DatacenterOutcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "racks             : {}", out.racks.len());
    let _ = writeln!(s, "mean speedup      : {:.2}x", out.mean_speedup);
    let _ = writeln!(
        s,
        "energy            : {:.1} Wh renewable + {:.1} Wh battery ({:.1} Wh curtailed)",
        out.re_used_wh, out.battery_used_wh, out.curtailed_wh
    );
    let _ = writeln!(
        s,
        "site faults       : {} partition, {} degraded, {} blackout rack-epochs",
        out.partition_epochs, out.degraded_epochs, out.blackout_epochs
    );
    let _ = writeln!(
        s,
        "links             : {} retries ({} ms virtual latency), {} stale-factor epochs",
        out.link_retries, out.link_latency_ms, out.stale_factor_epochs
    );
    let _ = writeln!(
        s,
        "routing           : {} rerouted epochs, {} rejoins",
        out.rerouted_epochs, out.rejoins
    );
    for (r, (o, rs)) in out.racks.iter().zip(&out.route_stats).enumerate() {
        let _ = writeln!(
            s,
            "rack {r:<2}           : {:.2}x, factor {:.2} [{:.2}, {:.2}], floor {}",
            o.speedup_vs_normal,
            rs.mean_factor,
            rs.min_factor,
            rs.max_factor,
            if o.floor_held { "held" } else { "BROKEN" },
        );
    }
    if !out.site_audit_violations.is_empty() {
        let _ = writeln!(
            s,
            "AUDIT             : {} site violation(s)",
            out.site_audit_violations.len()
        );
    }
    s
}

/// Render serve's rack supervision counters: one fleet line,
/// one health line per rack, and the tail of the supervision event log.
pub fn rack_fleet_summary(s: &ServeSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "racks             : {} served, {} restart(s), {} quarantined",
        s.racks, s.rack_restarts, s.racks_quarantined
    );
    let _ = writeln!(
        out,
        "rack deaths       : {} panic(s), {} stall(s); {} rerouted epoch(s)",
        s.rack_panics, s.rack_stalls, s.rerouted_epochs
    );
    for (r, h) in s.rack_health.iter().enumerate() {
        let _ = writeln!(out, "  rack {r}          : {h}");
    }
    // The last few supervision events tell the operator what happened
    // without re-reading the whole journal.
    for e in s.rack_events.iter().rev().take(5).rev() {
        let _ = writeln!(out, "  event           : {e}");
    }
    out
}

/// Render the serve network-plane counters.
pub fn net_plane_summary(n: &NetSummary) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "net conns         : {} accepted, {} dropped, {} timed out",
        n.conns_accepted, n.conns_dropped, n.conns_timed_out
    );
    let _ = writeln!(
        s,
        "net frames        : {} received, {} malformed, {} discarded",
        n.frames_received, n.malformed_frames, n.frames_discarded
    );
    let _ = writeln!(
        s,
        "net subscribers   : {} total, {} lines dropped",
        n.subscribers, n.subscriber_drops
    );
    let _ = writeln!(
        s,
        "net admin         : {} auth rejects, {} drains",
        n.auth_rejects, n.drain_requests
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use crate::config::{AvailabilityLevel, GreenConfig};
    use crate::engine::{Engine, EngineConfig, MeasurementMode};
    use crate::pmk::Strategy;
    use gs_sim::SimDuration;

    fn outcome() -> BurstOutcome {
        Engine::new(EngineConfig {
            green: GreenConfig::re_batt(),
            strategy: Strategy::Hybrid,
            availability: AvailabilityLevel::Maximum,
            burst_duration: SimDuration::from_mins(5),
            measurement: MeasurementMode::Analytic,
            ..EngineConfig::default()
        })
        .run()
    }

    #[test]
    fn burst_summary_contains_the_load_bearing_lines() {
        let s = burst_summary(&outcome());
        for needle in ["speedup vs Normal", "goodput", "SLO attainment", "thermals"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
        assert!(s.contains("4."), "expected a ~4.6x speedup rendered:\n{s}");
    }

    #[test]
    fn epoch_table_has_one_row_per_epoch() {
        let out = outcome();
        let table = epoch_table(&out);
        // Header + one line per epoch.
        assert_eq!(table.lines().count(), 1 + out.epochs.len());
        assert!(table.contains("12c@2.0GHz"));
        assert!(table.contains("green-only"));
    }

    #[test]
    fn datacenter_summary_renders_per_rack_routing() {
        let out = crate::datacenter::run_datacenter(&crate::datacenter::DatacenterConfig {
            racks: vec![
                crate::datacenter::RackSpec {
                    app: gs_workload::apps::Application::SpecJbb,
                    green: GreenConfig::re_batt(),
                    strategy: Strategy::Hybrid,
                },
                crate::datacenter::RackSpec {
                    app: gs_workload::apps::Application::WebSearch,
                    green: GreenConfig::re_sbatt(),
                    strategy: Strategy::Pacing,
                },
            ],
            template: EngineConfig {
                availability: AvailabilityLevel::Maximum,
                burst_duration: SimDuration::from_mins(5),
                measurement: MeasurementMode::Analytic,
                ..EngineConfig::default()
            },
            site_fault_plan: None,
        });
        let s = datacenter_summary(&out);
        for needle in [
            "racks",
            "mean speedup",
            "site faults",
            "rack 0",
            "rack 1",
            "held",
        ] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
        assert!(!s.contains("AUDIT"), "{s}");
    }

    #[test]
    fn rack_fleet_summary_renders_health_and_events() {
        let s = rack_fleet_summary(&ServeSummary {
            racks: 3,
            rack_restarts: 2,
            rack_panics: 1,
            rack_stalls: 1,
            racks_quarantined: 1,
            rerouted_epochs: 4,
            rack_health: vec![
                crate::supervisor::RackHealth::Live,
                crate::supervisor::RackHealth::Quarantined,
                crate::supervisor::RackHealth::Degraded,
            ],
            rack_events: vec!["rack 1: quarantined after 0 restart(s)".to_string()],
            ..ServeSummary::default()
        });
        for needle in [
            "3 served",
            "2 restart(s)",
            "1 quarantined",
            "1 panic(s)",
            "1 stall(s)",
            "4 rerouted",
            "rack 0",
            "live",
            "quarantined",
            "degraded",
            "event",
        ] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn net_plane_summary_renders_every_counter_group() {
        let s = net_plane_summary(&NetSummary {
            conns_accepted: 7,
            malformed_frames: 3,
            subscriber_drops: 2,
            auth_rejects: 1,
            ..NetSummary::default()
        });
        for needle in [
            "net conns",
            "7 accepted",
            "3 malformed",
            "2 lines dropped",
            "1 auth rejects",
        ] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn campaign_summary_renders() {
        let out = run_campaign(&CampaignConfig {
            engine: EngineConfig {
                measurement: MeasurementMode::Analytic,
                ..EngineConfig::default()
            },
            days: 1,
            spikes_per_day: 2,
            peak_intensity_cores: 12,
        });
        let s = campaign_summary(&out);
        assert!(s.contains("sprint hours"));
        assert!(s.contains("per year"));
    }
}
