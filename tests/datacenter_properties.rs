//! Property and end-to-end tests for the partition-tolerant datacenter
//! broker: under *any* seeded site fault plan the fleet degrades — routed
//! load stays conserved, every rack holds its Normal floor, the site
//! audit stays clean — and the outcome is byte-identical for any `--jobs`
//! and through a snapshot/resume cycle.

use greensprint_repro::prelude::*;
use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};

fn template(minutes: u64) -> EngineConfig {
    EngineConfig {
        availability: AvailabilityLevel::Maximum,
        burst_duration: SimDuration::from_mins(minutes),
        measurement: MeasurementMode::Analytic,
        seed: 17,
        ..EngineConfig::default()
    }
}

fn racks(n: usize) -> Vec<RackSpec> {
    (0..n)
        .map(|i| RackSpec {
            app: Application::ALL[i % Application::ALL.len()],
            green: GreenConfig::re_batt(),
            strategy: [Strategy::Hybrid, Strategy::Pacing, Strategy::Greedy][i % 3],
        })
        .collect()
}

fn site_cfg(seed: u64, n_racks: usize, minutes: u64) -> DatacenterConfig {
    let template = template(minutes);
    let start = SimTime::from_secs_f64(template.burst_start_hour * 3_600.0);
    DatacenterConfig {
        racks: racks(n_racks),
        site_fault_plan: Some(FaultPlan::generate_site(
            seed,
            start,
            template.burst_duration,
            n_racks as u8,
        )),
        template,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated site plans are always well-formed for the fleet they
    /// were generated for.
    #[test]
    fn generated_site_plans_validate(seed in 0_u64..u64::MAX) {
        let cfg = site_cfg(seed, 4, 5);
        prop_assert!(cfg.validate().is_ok(), "seed {seed}: {:?}", cfg.validate());
        let plan = cfg.site_fault_plan.as_ref().unwrap();
        prop_assert!(!plan.events.is_empty());
        let back = FaultPlan::from_json(&plan.to_json()).expect("round trip");
        prop_assert_eq!(plan.clone(), back);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole invariant: any seeded site plan — blackouts,
    /// partitions, lossy/laggy links — and the broker's computed factors
    /// stay conserved every epoch, every rack holds the Normal floor,
    /// and the site audit records nothing.
    #[test]
    fn any_site_plan_conserves_load_and_holds_floors(seed in 0_u64..10_000) {
        let cfg = site_cfg(seed, 3, 5);
        let out = try_run_datacenter(&cfg, 2).expect("valid config");
        prop_assert!(
            out.site_audit_violations.is_empty(),
            "seed {seed}: {:?}",
            out.site_audit_violations
        );
        for (r, o) in out.racks.iter().enumerate() {
            prop_assert!(o.floor_held, "seed {seed}: rack {r} lost the floor");
            prop_assert!(o.audit_violations.is_empty(), "seed {seed}: rack {r}");
            prop_assert_eq!(o.grid_overload_wh, 0.0);
        }
        let n = cfg.racks.len() as f64;
        for (k, row) in out.factors.iter().enumerate() {
            let sum: f64 = row.iter().sum();
            prop_assert!(
                (sum - n).abs() <= 1e-6 * n,
                "seed {seed}: epoch {k} factors sum to {sum}"
            );
        }
    }

    /// Byte-identity across job counts, fault plan and all.
    #[test]
    fn outcomes_are_byte_identical_across_jobs(seed in 0_u64..10_000) {
        let cfg = site_cfg(seed, 3, 5);
        let a = try_run_datacenter(&cfg, 1).expect("valid config");
        let b = try_run_datacenter(&cfg, 3).expect("valid config");
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}

/// A rack blackout sheds its load to the survivors within two epochs of
/// the lights going out, and the drained rack draws no power while dark.
#[test]
fn blackout_load_reroutes_to_survivors() {
    let template = template(10);
    let start = SimTime::from_secs_f64(template.burst_start_hour * 3_600.0);
    let cfg = DatacenterConfig {
        racks: racks(3),
        site_fault_plan: Some(FaultPlan::new(vec![FaultEvent {
            at: start + SimDuration::from_mins(2),
            duration: SimDuration::from_mins(3),
            kind: FaultKind::RackBlackout { rack: 1, epochs: 3 },
        }])),
        template,
    };
    let out = try_run_datacenter(&cfg, 2).expect("valid config");
    assert!(
        out.site_audit_violations.is_empty(),
        "{:?}",
        out.site_audit_violations
    );
    assert!(out.blackout_epochs >= 3, "{}", out.blackout_epochs);
    assert!(out.rerouted_epochs >= 1, "{}", out.rerouted_epochs);
    // The dark rack is drained within two epochs of the blackout start
    // (epoch 2), and the survivors pick its share up.
    let drained = out
        .factors
        .iter()
        .position(|row| row[1] <= 0.01)
        .expect("rack 1 was never drained");
    assert!(drained <= 4, "drained only at epoch {drained}");
    let row = &out.factors[drained];
    assert!(row[0] > 1.01 && row[2] > 1.01, "{row:?}");
    for o in &out.racks {
        assert!(o.floor_held);
    }
}

/// A partitioned rack degrades to local autonomy — it holds its last
/// good directive, keeps serving, and rejoins through probation.
#[test]
fn partitioned_rack_runs_local_autonomy_and_rejoins() {
    let template = template(10);
    let start = SimTime::from_secs_f64(template.burst_start_hour * 3_600.0);
    let cfg = DatacenterConfig {
        racks: racks(3),
        site_fault_plan: Some(FaultPlan::new(vec![FaultEvent {
            at: start + SimDuration::from_mins(2),
            duration: SimDuration::from_mins(2),
            kind: FaultKind::BrokerPartition { rack: 1, epochs: 2 },
        }])),
        template,
    };
    let out = try_run_datacenter(&cfg, 2).expect("valid config");
    assert_eq!(out.partition_epochs, 2);
    assert_eq!(out.rejoins, 1);
    assert_eq!(out.degraded_epochs, 2 + REJOIN_EPOCHS as usize);
    // Held factor through the partition and the probation window.
    let held = out.applied_factors[2][1];
    for k in 2..2 + 2 + REJOIN_EPOCHS as usize {
        assert_eq!(out.applied_factors[k][1], held, "epoch {k}");
    }
    assert!(out.site_events.iter().any(|e| e.contains("partitioned")));
    assert!(out.site_events.iter().any(|e| e.contains("rejoined")));
    for o in &out.racks {
        assert!(o.floor_held);
        assert!(o.speedup_vs_normal > 1.0);
    }
}

/// Snapshot/resume through the middle of a partition is byte-identical
/// to the uninterrupted run, at a different job count.
#[test]
fn resume_through_a_partition_is_byte_identical() {
    let template = template(10);
    let start = SimTime::from_secs_f64(template.burst_start_hour * 3_600.0);
    let cfg = DatacenterConfig {
        racks: racks(3),
        site_fault_plan: Some(FaultPlan::new(vec![FaultEvent {
            at: start + SimDuration::from_mins(3),
            duration: SimDuration::from_mins(3),
            kind: FaultKind::BrokerPartition { rack: 0, epochs: 3 },
        }])),
        template,
    };
    let mut snaps: Vec<SiteSnapshot> = Vec::new();
    let golden = run_datacenter_with_snapshots(&cfg, 3, 2, &mut |s| snaps.push(s.clone()))
        .expect("valid config");
    // A snapshot taken while rack 0 was pinned behind the partition.
    let mid = snaps
        .iter()
        .find(|s| s.site.pinned[0].is_some())
        .expect("no snapshot landed inside the partition");
    let back = SiteSnapshot::from_json(&mid.to_json().expect("serialize")).expect("round trip");
    let resumed = resume_datacenter_snapshot(back, 1, 2, &mut |_| {}).expect("resume");
    assert_eq!(
        serde_json::to_string(&golden).unwrap(),
        serde_json::to_string(&resumed).unwrap()
    );
}
