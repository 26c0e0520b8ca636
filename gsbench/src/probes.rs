//! Per-call cost of the epoch loop's layers, each probed through its
//! public function on inputs rebuilt from recorded `EpochRecord`s of a
//! jbb campaign. These are per-call costs, not shares of an epoch.

use std::hint::black_box;
use std::time::Instant;

use greensprint::audit::{EpochFlows, InvariantAuditor};
use greensprint::campaign::try_run_campaign;
use greensprint::engine::EpochRecord;
use greensprint::monitor::{Monitor, Observation};
use greensprint::pmk::{Pmk, PmkContext, Strategy};
use greensprint::predictor::Predictor;
use greensprint::ProfileTable;
use gs_power::{Battery, BatterySpec, PowerSourceSelector, PvArray, SolarTrace, WeatherModel};
use gs_sim::{SimDuration, SimRng};
use gs_thermal::ThermalPackage;
use gs_workload::apps::Application;

use crate::trace::Tracer;
use crate::workloads::rack10;
use crate::workloads::sweeps::campaign_config;

/// Passes over the recorded epochs per probe.
const PASSES: u64 = 10;

/// One layer's probe result.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub layer: &'static str,
    pub calls: u64,
    pub ns_per_call: f64,
}

/// The records the probes replay: one day of the campaign workload's jbb
/// configuration.
pub fn jbb_day(seed: u64) -> Result<Vec<EpochRecord>, String> {
    let mut cfg = campaign_config(Application::SpecJbb, 1);
    cfg.engine.seed = seed;
    try_run_campaign(&cfg)
        .map(|out| out.run.epochs)
        .map_err(|e| format!("probe campaign: {e}"))
}

/// Probe every layer over `records` of a `servers`-server rack.
pub fn run_all(
    records: &[EpochRecord],
    servers: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> Vec<Probe> {
    let n = servers.max(1) as f64;
    let dt = SimDuration::from_secs(60);
    let profiles = ProfileTable::cached(Application::SpecJbb);
    let spec = BatterySpec::paper_vrla(rack10().battery_ah);
    let ctx = |r: &EpochRecord| PmkContext {
        predicted_load_rps: r.offered_rps,
        re_share_w: r.re_supply_w / n,
        battery_instant_w: spec.max_discharge_power_w() * r.battery_soc,
        battery_sustained_w: r.battery_w / n,
    };
    let mut probes = Vec::new();
    let mut probe =
        |tracer: &mut Tracer, layer, name, calls_per_record: u64, body: &mut dyn FnMut()| {
            let t = Instant::now();
            tracer.span(name, |_| {
                for _ in 0..PASSES {
                    body();
                }
            });
            let calls = PASSES * calls_per_record * records.len() as u64;
            probes.push(Probe {
                layer,
                calls,
                ns_per_call: t.elapsed().as_nanos() as f64 / calls.max(1) as f64,
            });
        };

    let days = (records.len() as u32).div_ceil(1440).max(1);
    let sky = SolarTrace::generate(
        days,
        &WeatherModel::default(),
        &mut SimRng::seed_from_u64(seed),
    );
    let pv = PvArray::paper_spec(servers as u32);
    probe(tracer, "solar", "solar.window_mean", 1, &mut || {
        for r in records {
            black_box(pv.ac_output(sky.window_mean(r.t, r.t + dt)));
        }
    });

    probe(tracer, "predictor", "predictor.observe", 1, &mut || {
        let mut p = Predictor::new();
        for r in records {
            black_box(p.observe_re_supply(r.re_supply_w));
            black_box(p.observe_workload(r.offered_rps));
            black_box(p.re_supply_conservative(r.re_supply_w));
        }
    });

    let pss = PowerSourceSelector::new();
    probe(tracer, "pss", "pss.plan", 1, &mut || {
        for r in records {
            let accepts = spec.max_charge_power_w() * n * (1.0 - r.battery_soc);
            black_box(pss.plan(
                r.demand_w,
                r.re_supply_w,
                spec.max_discharge_power_w() * n,
                accepts,
                0.0,
            ));
        }
    });

    for (layer, name, strategy) in [
        ("pmk", "pmk.choose_hybrid", Strategy::Hybrid),
        ("pmk_pacing", "pmk_pacing.choose", Strategy::Pacing),
    ] {
        let mut pmk = Pmk::new(strategy, profiles);
        let mut rng = SimRng::seed_from_u64(seed);
        probe(tracer, layer, name, 1, &mut || {
            for r in records {
                black_box(pmk.choose(profiles, &ctx(r), &mut rng));
            }
        });
    }

    probe(
        tracer,
        "battery",
        "battery.discharge_charge",
        2,
        &mut || {
            let mut b = Battery::new_full(spec.clone());
            for r in records {
                black_box(b.discharge(r.battery_w / n, dt));
                black_box(b.charge((r.re_supply_w - r.re_used_w).max(0.0) / n, dt));
            }
        },
    );

    probe(tracer, "thermal", "thermal.advance", 1, &mut || {
        let mut th = ThermalPackage::paper_spec();
        for r in records {
            th.advance(r.demand_w / n, dt);
            black_box(th.temp_c());
        }
    });

    let h = dt.as_hours_f64();
    let flows: Vec<EpochFlows> = records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let re = r.re_supply_w.max(r.re_used_w);
            let grid = (r.demand_w - r.re_used_w - r.battery_w).max(0.0);
            EpochFlows {
                epoch_index: i,
                supply_wh: re * h,
                battery_discharge_wh: r.battery_w * h,
                grid_wh: grid * h,
                server_wh: (r.re_used_w + r.battery_w + grid) * h,
                charge_wh: 0.0,
                curtailed_wh: (re - r.re_used_w) * h,
                socs: vec![(r.battery_soc.clamp(0.2, 1.0), 0.8); servers],
                grid_cap_w: f64::MAX,
                epoch_hours: h,
                failover_floor: None,
                live_servers: servers,
                dead_server_wh: 0.0,
                goodput_capacity: None,
            }
        })
        .collect();
    probe(tracer, "audit", "audit.check_epoch", 1, &mut || {
        let mut aud = InvariantAuditor::new();
        for f in &flows {
            aud.check_epoch(f);
        }
        black_box(aud);
    });

    probe(tracer, "monitor", "monitor.record", 1, &mut || {
        let mut mon = Monitor::new();
        for r in records {
            mon.record(
                r.t,
                Observation {
                    re_supply_w: r.re_supply_w,
                    demand_w: r.demand_w,
                    battery_w: r.battery_w,
                    battery_soc: r.battery_soc,
                    goodput_rps: r.goodput_rps,
                    offered_rps: r.offered_rps,
                },
            );
        }
        black_box(mon);
    });
    probes
}
