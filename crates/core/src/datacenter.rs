//! Datacenter scale-out: many green racks under one sky.
//!
//! The prototype is one 10-server rack-equivalent; the paper's premise is
//! a *data center* ("provisioning renewable energy on the PDU level allows
//! us to apply computational sprinting in a data center on a per-rack
//! basis", §II). This module runs many racks — possibly hosting different
//! applications and strategies — against the same weather, and aggregates
//! the result. Racks step in lockstep on the [`crate::broker`] rack
//! driver — the one `serve` runs on too, here with a sim clock and no
//! site tick: a deterministic coordinator that routes the fleet's offered
//! load toward racks with renewable surplus and rides through site-level
//! faults (rack blackouts, broker↔rack partitions, lossy/laggy control
//! links) declared in [`DatacenterConfig::site_fault_plan`]. A rack whose
//! worker panics ends the run with an error naming it.

use crate::broker::{rack_engine_config, try_run_datacenter, RackRouteStats};
use crate::engine::{BurstOutcome, EngineConfig};
use crate::faults::FaultPlan;
use crate::pmk::Strategy;
use gs_workload::apps::Application;
use serde::{Deserialize, Serialize};

/// One rack's configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RackSpec {
    /// The application this rack serves.
    pub app: Application,
    /// Its green provisioning.
    pub green: crate::config::GreenConfig,
    /// Its PMK strategy.
    pub strategy: Strategy,
}

/// A datacenter of racks sharing burst timing and weather.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatacenterConfig {
    /// The racks.
    pub racks: Vec<RackSpec>,
    /// Everything else (availability, burst, epoch, measurement, seed) is
    /// taken from this template; its app/green/strategy are ignored. A
    /// template `fault_plan` (rack-local kinds only) replicates to every
    /// rack.
    pub template: EngineConfig,
    /// Site-level fault schedule: rack blackouts, inverter derates,
    /// broker↔rack partitions, link loss/delay (the site kinds of
    /// [`crate::faults::FaultKind`]), plus rack-local kinds replicated to
    /// every rack. `None` runs the site fault-free.
    pub site_fault_plan: Option<FaultPlan>,
}

impl DatacenterConfig {
    /// Validate the whole datacenter: at least one rack, every rack's
    /// derived engine configuration valid (including its translated fault
    /// plan), and the site fault plan well-formed for this rack list.
    pub fn validate(&self) -> Result<(), String> {
        if self.racks.is_empty() {
            return Err("datacenter needs at least one rack".to_string());
        }
        if self.racks.len() > usize::from(u8::MAX) {
            return Err(format!(
                "datacenter supports at most {} racks, got {}",
                u8::MAX,
                self.racks.len()
            ));
        }
        if let Some(site) = &self.site_fault_plan {
            site.validate()
                .map_err(|e| format!("site fault plan: {e}"))?;
            let sizes: Vec<usize> = self.racks.iter().map(|r| r.green.green_servers).collect();
            site.validate_for_racks(&sizes)
                .map_err(|e| format!("site fault plan: {e}"))?;
        }
        for i in 0..self.racks.len() {
            rack_engine_config(self, i)
                .validate()
                .map_err(|e| format!("rack {i}: {e}"))?;
        }
        Ok(())
    }
}

/// Aggregated datacenter outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatacenterOutcome {
    /// Per-rack results, in configuration order.
    pub racks: Vec<BurstOutcome>,
    /// Mean speedup across racks.
    pub mean_speedup: f64,
    /// Total renewable energy used (Wh).
    pub re_used_wh: f64,
    /// Total battery energy used (Wh).
    pub battery_used_wh: f64,
    /// Total curtailed renewable energy (Wh).
    pub curtailed_wh: f64,
    /// Rack-epochs spent partitioned from the broker.
    pub partition_epochs: usize,
    /// Rack-epochs run degraded: partitioned, on rejoin probation, or
    /// applying a held factor after directive loss.
    pub degraded_epochs: usize,
    /// Rack-epochs inside an active rack-blackout event.
    pub blackout_epochs: usize,
    /// Rack-epochs that applied a stale (link-delayed) factor.
    pub stale_factor_epochs: usize,
    /// Epochs in which load was re-routed away from a drained rack.
    pub rerouted_epochs: usize,
    /// Directive retransmissions attempted on lossy links.
    pub link_retries: usize,
    /// Virtual retransmission latency accumulated from
    /// [`crate::supervisor::backoff_ms`] (bookkeeping only).
    pub link_latency_ms: u64,
    /// Racks re-admitted to routing after probationary hysteresis.
    pub rejoins: usize,
    /// Human-readable partition/degrade/rejoin log.
    pub site_events: Vec<String>,
    /// Site-level audit violations (routed-load conservation, factor
    /// sanity, dark racks drawing power). Empty on a healthy run.
    pub site_audit_violations: Vec<String>,
    /// Per-rack routing statistics, in configuration order.
    pub route_stats: Vec<RackRouteStats>,
    /// The broker's computed (conserved) factors, one row per epoch.
    pub factors: Vec<Vec<f64>>,
    /// The factors each rack actually applied, one row per epoch.
    pub applied_factors: Vec<Vec<f64>>,
}

/// Run every rack through the rack driver (racks parallelize across OS
/// threads; results are byte-identical at any parallelism) and aggregate.
/// Panics on an invalid configuration — use
/// [`crate::broker::try_run_datacenter`] to handle untrusted input.
pub fn run_datacenter(cfg: &DatacenterConfig) -> DatacenterOutcome {
    try_run_datacenter(cfg, crate::sweep::default_jobs())
        .unwrap_or_else(|e| panic!("invalid datacenter configuration: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AvailabilityLevel, GreenConfig};
    use crate::engine::MeasurementMode;
    use gs_sim::SimDuration;

    fn template() -> EngineConfig {
        EngineConfig {
            availability: AvailabilityLevel::Maximum,
            burst_duration: SimDuration::from_mins(5),
            measurement: MeasurementMode::Analytic,
            seed: 17,
            ..EngineConfig::default()
        }
    }

    fn mixed_racks() -> Vec<RackSpec> {
        vec![
            RackSpec {
                app: Application::SpecJbb,
                green: GreenConfig::re_batt(),
                strategy: Strategy::Hybrid,
            },
            RackSpec {
                app: Application::WebSearch,
                green: GreenConfig::re_sbatt(),
                strategy: Strategy::Pacing,
            },
            RackSpec {
                app: Application::Memcached,
                green: GreenConfig::re_batt(),
                strategy: Strategy::Greedy,
            },
        ]
    }

    #[test]
    fn heterogeneous_datacenter_sprints_every_rack() {
        let out = run_datacenter(&DatacenterConfig {
            racks: mixed_racks(),
            template: template(),
            site_fault_plan: None,
        });
        assert_eq!(out.racks.len(), 3);
        for (rack, o) in mixed_racks().iter().zip(&out.racks) {
            assert!(
                o.speedup_vs_normal > 3.5,
                "{:?} rack got {}",
                rack.app,
                o.speedup_vs_normal
            );
        }
        assert!(out.mean_speedup > 3.5);
        assert!(out.re_used_wh > 0.0);
        // A healthy fleet routes cleanly: factors stay conserved, no rack
        // degrades, nothing is audited as wrong.
        assert!(
            out.site_audit_violations.is_empty(),
            "{:?}",
            out.site_audit_violations
        );
        assert_eq!(out.partition_epochs, 0);
        assert_eq!(out.degraded_epochs, 0);
        assert_eq!(out.route_stats.len(), 3);
    }

    #[test]
    fn datacenter_is_deterministic() {
        let cfg = DatacenterConfig {
            racks: mixed_racks(),
            template: template(),
            site_fault_plan: None,
        };
        let a = run_datacenter(&cfg);
        let b = run_datacenter(&cfg);
        assert_eq!(a.mean_speedup, b.mean_speedup);
        assert_eq!(a.re_used_wh, b.re_used_wh);
    }

    #[test]
    fn racks_are_seed_decorrelated() {
        // Two identical racks must not produce bit-identical DES noise.
        let cfg = DatacenterConfig {
            racks: vec![
                RackSpec {
                    app: Application::SpecJbb,
                    green: GreenConfig::re_batt(),
                    strategy: Strategy::Hybrid,
                },
                RackSpec {
                    app: Application::SpecJbb,
                    green: GreenConfig::re_batt(),
                    strategy: Strategy::Hybrid,
                },
            ],
            template: EngineConfig {
                measurement: MeasurementMode::Des,
                ..template()
            },
            site_fault_plan: None,
        };
        let out = run_datacenter(&cfg);
        assert_ne!(out.racks[0].mean_goodput_rps, out.racks[1].mean_goodput_rps);
    }

    #[test]
    fn scales_to_many_racks() {
        let racks: Vec<RackSpec> = (0..16)
            .map(|i| RackSpec {
                app: Application::ALL[i % 3],
                green: GreenConfig::re_sbatt(),
                strategy: Strategy::Hybrid,
            })
            .collect();
        let out = run_datacenter(&DatacenterConfig {
            racks,
            template: template(),
            site_fault_plan: None,
        });
        assert_eq!(out.racks.len(), 16);
        assert!(out.mean_speedup > 3.0);
    }

    #[test]
    #[should_panic(expected = "at least one rack")]
    fn rejects_empty_datacenter() {
        run_datacenter(&DatacenterConfig {
            racks: vec![],
            template: template(),
            site_fault_plan: None,
        });
    }

    #[test]
    fn validate_rejects_bad_racks_and_site_plans() {
        // A rack whose engine config is invalid names the rack.
        let mut cfg = DatacenterConfig {
            racks: mixed_racks(),
            template: template(),
            site_fault_plan: None,
        };
        cfg.racks[1].green.green_servers = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("rack 1"), "{err}");

        // A site plan targeting a rack the datacenter does not have.
        let mut cfg = DatacenterConfig {
            racks: mixed_racks(),
            template: template(),
            site_fault_plan: Some(crate::faults::FaultPlan::new(vec![
                crate::faults::FaultEvent {
                    at: gs_sim::SimTime::from_hours(11),
                    duration: SimDuration::from_mins(1),
                    kind: crate::faults::FaultKind::RackBlackout { rack: 9, epochs: 2 },
                },
            ])),
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("site fault plan"), "{err}");
        assert!(err.contains("rack 9"), "{err}");
        cfg.site_fault_plan = None;
        assert!(cfg.validate().is_ok());
    }
}
