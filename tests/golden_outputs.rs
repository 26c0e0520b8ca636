//! Golden-output equivalence suite: the hot-path optimization program's
//! safety net.
//!
//! Each fixture under `tests/golden/` was captured from the build before
//! the optimization it guards landed: the Analytic planes before the SoA
//! epoch loop and the sweep arenas, the DES planes before the DES kernel's
//! per-epoch sampler, in-service heap and selection percentile. Every test
//! serializes today's output with the same `serde_json` the capture used
//! and asserts the bytes are identical — so any optimization that changes
//! a single bit of arithmetic, RNG consumption, or serialization order
//! fails loudly here.
//!
//! Covered planes, per the determinism contract:
//! * `BurstOutcome` JSON for 3 seeds × {plain, fault-plan, fleet-fault,
//!   guarded} configurations (Hybrid strategy, so the learner's RNG stream
//!   is pinned too; `guarded` runs the policy guardrail over a poisoned
//!   Q-table, so its demote/quarantine/re-promote path is pinned as well);
//! * scripted single-server DES epochs (`des_epochs.jsonl`): every
//!   `EpochPerf` and the carried backlog through overload, a 12 → 6-core
//!   switch and a drain, past the latency reservoir's cap for Memcached,
//!   and once with a measured (empirical) service shape;
//! * a `MeasurementMode::Des` sweep (`des_sweep.jsonl`), 3 apps × {Pacing,
//!   Hybrid}, at `jobs = 1` and `jobs = 4`;
//! * `SweepResult` JSON-lines for a mixed burst/campaign grid, run at
//!   `jobs = 1` and `jobs = 4` (jobs-invariance against golden bytes);
//! * chaos JSON-lines (fault-plan points through the same executor, the
//!   `greensprint chaos` output format);
//! * a routed datacenter site under a seeded site fault plan, one JSON
//!   line per rack plus the site line, at `jobs = 1` and `jobs = 4`;
//! * a snapshot/resume cycle of each burst family at every seed: the
//!   outcome resumed from the snapshot at any epoch boundary of either
//!   phase must reproduce the same golden bytes.
//!
//! Regenerating fixtures is only legitimate when the *intended* output
//! changes (never for an optimization): `GOLDEN_REGEN=1 cargo test --test
//! golden_outputs`, then justify the diff in the PR.

use greensprint_repro::prelude::*;
use greensprint_repro::workload::des::ServerSim;
use std::path::{Path, PathBuf};

const SEEDS: [u64; 3] = [11, 22, 33];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn regen() -> bool {
    std::env::var_os("GOLDEN_REGEN").is_some_and(|v| v == "1")
}

/// Compare `actual` against the named fixture byte-for-byte (or rewrite the
/// fixture under `GOLDEN_REGEN=1`).
fn check(name: &str, actual: &str) {
    let path = fixture_dir().join(name);
    if regen() {
        std::fs::create_dir_all(fixture_dir()).expect("create fixture dir");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    if expected != actual {
        // Find the first divergence for a readable failure.
        let at = expected
            .bytes()
            .zip(actual.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| expected.len().min(actual.len()));
        let lo = at.saturating_sub(60);
        panic!(
            "{name}: output diverged from the pre-refactor golden bytes at offset {at}\n\
             expected …{}…\n\
             actual   …{}…\n\
             (an optimization must be byte-identical; if the output was *meant* to change, \
             regenerate with GOLDEN_REGEN=1 and justify the diff)",
            &expected[lo..(at + 60).min(expected.len())],
            &actual[lo..(at + 60).min(actual.len())],
        );
    }
}

/// The burst families, all Analytic (snapshot-capable) and all on the
/// Hybrid strategy so the learner's RNG stream is part of the contract.
const FAMILIES: [&str; 4] = ["plain", "faults", "fleet", "guarded"];

fn family_cfg(family: &str, seed: u64) -> EngineConfig {
    let start = SimTime::from_hours(11);
    let dur = SimDuration::from_mins(10);
    let base = EngineConfig {
        app: Application::SpecJbb,
        green: GreenConfig::re_batt(),
        strategy: Strategy::Hybrid,
        availability: AvailabilityLevel::Medium,
        burst_duration: dur,
        measurement: MeasurementMode::Analytic,
        seed,
        ..EngineConfig::default()
    };
    match family {
        "plain" => base,
        "faults" => EngineConfig {
            fault_plan: Some(FaultPlan::generate(seed ^ 0xfau64, start, dur, 3)),
            ..base
        },
        "fleet" => EngineConfig {
            fault_plan: Some(FaultPlan::generate_fleet(
                seed ^ 0xf1u64,
                start,
                dur,
                3,
                FleetMix::default(),
            )),
            ..base
        },
        // The guardrail supervising a poisoned table: demote on
        // corruption, quarantine, re-promote to a fresh bootstrap.
        "guarded" => {
            let mut cfg = EngineConfig {
                fault_plan: Some(FaultPlan::generate_poison(seed, start, dur)),
                ..base
            };
            cfg.guardrail.enabled = true;
            cfg
        }
        other => panic!("unknown family {other}"),
    }
}

fn outcome_json(cfg: EngineConfig) -> String {
    let out = Engine::try_new(cfg).expect("valid golden config").run();
    serde_json::to_string(&out).expect("outcome serializes")
}

#[test]
fn golden_burst_outcomes_are_byte_identical() {
    for family in FAMILIES {
        for seed in SEEDS {
            let json = outcome_json(family_cfg(family, seed));
            check(&format!("burst_{family}_seed{seed}.json"), &json);
        }
    }
}

/// A mixed sweep grid: bursts across strategies plus one campaign, the
/// shape `greensprint sweep` emits. Serialized as JSON-lines exactly like
/// the CLI's per-point output.
fn sweep_points() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for strategy in [Strategy::Greedy, Strategy::Pacing, Strategy::Hybrid] {
        for availability in [AvailabilityLevel::Medium, AvailabilityLevel::Maximum] {
            let cfg = EngineConfig {
                strategy,
                availability,
                burst_duration: SimDuration::from_mins(5),
                measurement: MeasurementMode::Analytic,
                ..EngineConfig::default()
            };
            points.push(SweepPoint::burst(
                format!("golden/{strategy}/{availability}"),
                cfg,
            ));
        }
    }
    points.push(SweepPoint::campaign(
        "golden/campaign/1day",
        CampaignConfig {
            engine: EngineConfig {
                strategy: Strategy::Pacing,
                burst_duration: SimDuration::from_mins(5),
                measurement: MeasurementMode::Analytic,
                ..EngineConfig::default()
            },
            days: 1,
            spikes_per_day: 2,
            peak_intensity_cores: 12,
        },
    ));
    points
}

fn jsonl(results: &[SweepResult]) -> String {
    let mut s = String::new();
    for r in results {
        s.push_str(&serde_json::to_string(r).expect("result serializes"));
        s.push('\n');
    }
    s
}

#[test]
fn golden_sweep_results_are_byte_identical_at_any_jobs() {
    let serial = run_sweep(sweep_points(), 7, 1);
    check("sweep.jsonl", &jsonl(&serial));
    // Jobs-invariance against the same golden bytes: the parallel executor
    // must reproduce the serial capture exactly.
    let parallel = run_sweep(sweep_points(), 7, 4);
    check("sweep.jsonl", &jsonl(&parallel));
}

#[test]
fn golden_chaos_lines_are_byte_identical() {
    // The `greensprint chaos` shape: fault-plan bursts through the
    // executor, one JSON line per run.
    let start = SimTime::from_hours(11);
    let dur = SimDuration::from_mins(5);
    let mut points = Vec::new();
    for r in 0..3u64 {
        let plan = FaultPlan::generate(derive_seed(42, r), start, dur, 3);
        let cfg = EngineConfig {
            strategy: Strategy::Hybrid,
            availability: AvailabilityLevel::Medium,
            burst_duration: dur,
            measurement: MeasurementMode::Analytic,
            fault_plan: Some(plan),
            ..EngineConfig::default()
        };
        points.push(SweepPoint::burst(format!("chaos/golden/plan{r}"), cfg));
    }
    let results = run_sweep(points, 7, 2);
    check("chaos.jsonl", &jsonl(&results));
}

/// The `serve --sim-time` metrics stream for a disturbed run, captured
/// as golden bytes — then reproduced byte-for-byte with the network
/// plane listening and a client injecting frames mid-run. Sim-time
/// ingest is counted by the plane but never routed into the stream;
/// this is the determinism contract the net layer must honor.
#[test]
fn golden_serve_metrics_are_byte_identical_with_and_without_networking() {
    use std::sync::{Arc, OnceLock};

    let dir = std::env::temp_dir().join(format!("gs-golden-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    let cfg = EngineConfig {
        burst_duration: SimDuration::from_mins(30),
        measurement: MeasurementMode::Analytic,
        seed: SEEDS[0],
        ..EngineConfig::default()
    };
    let n_epochs = cfg.burst_duration.div_duration(cfg.epoch).unwrap();
    let args = |metrics: PathBuf| ServeArgs {
        cfg: cfg.clone(),
        options: ServeOptions {
            disturbances: Some(DisturbancePlan::generate(3, n_epochs)),
            ..ServeOptions::default()
        },
        sim_time: true,
        control: ControlBackend::Sim,
        metrics_path: Some(metrics),
        ..ServeArgs::default()
    };

    let quiet = dir.join("quiet.jsonl");
    let summary = serve(args(quiet.clone())).expect("quiet serve");
    assert_eq!(summary.audit_violations, 0);
    let quiet_text = std::fs::read_to_string(&quiet).expect("metrics written");
    check("serve_metrics.jsonl", &quiet_text);

    // Same run with listeners up and a client hammering the ingest
    // port: the stream must still hit the same golden bytes.
    let ready: Arc<OnceLock<NetAddrs>> = Arc::new(OnceLock::new());
    let client = {
        let ready = ready.clone();
        std::thread::spawn(move || {
            use std::io::Write as _;
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(15);
            let addr = loop {
                if let Some(a) = ready.get().and_then(|a| a.listen) {
                    break a;
                }
                assert!(std::time::Instant::now() < deadline, "plane never bound");
                std::thread::sleep(std::time::Duration::from_millis(2));
            };
            let mut s = std::net::TcpStream::connect(addr).expect("connect");
            for k in 0..20 {
                let frame: &[u8] = if k % 3 == 2 {
                    b"gibberish\n"
                } else {
                    b"123.0\n"
                };
                if s.write_all(frame).is_err() {
                    break;
                }
            }
        })
    };
    let noisy = dir.join("noisy.jsonl");
    let mut noisy_args = args(noisy.clone());
    noisy_args.throttle_ms = 5; // pacing only; never enters the stream
    noisy_args.net = Some(NetConfig {
        listen: Some("127.0.0.1:0".to_string()),
        ready: Some(ready.clone()),
        ..NetConfig::default()
    });
    let summary = serve(noisy_args).expect("noisy serve");
    client.join().expect("client thread");
    let net = summary.net.expect("net summary present");
    assert!(
        net.frames_received > 0,
        "the client's frames landed: {net:?}"
    );
    let noisy_text = std::fs::read_to_string(&noisy).expect("metrics written");
    check("serve_metrics.jsonl", &noisy_text);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A small routed site: 6 ten-server racks cycling the three apps and
/// the learner-free strategies over 30 one-minute epochs, under a seeded
/// site fault plan. Every epoch's routed load factor is new, so this pins
/// the broker's routed analytic path and its Normal-baseline replay.
fn datacenter_site_cfg() -> DatacenterConfig {
    const RACKS: usize = 6;
    let template = EngineConfig {
        availability: AvailabilityLevel::Medium,
        burst_duration: SimDuration::from_mins(30),
        measurement: MeasurementMode::Analytic,
        thermal: ThermalModel::Disabled,
        seed: SEEDS[1],
        ..EngineConfig::default()
    };
    let start = SimTime::from_secs_f64(template.burst_start_hour * 3_600.0);
    let strategies = [Strategy::Pacing, Strategy::Parallel, Strategy::Greedy];
    DatacenterConfig {
        racks: (0..RACKS)
            .map(|i| RackSpec {
                app: Application::ALL[i % Application::ALL.len()],
                green: GreenConfig {
                    name: "rack10".into(),
                    green_servers: 10,
                    panels: 10,
                    battery_ah: 10.0,
                },
                strategy: strategies[i % strategies.len()],
            })
            .collect(),
        site_fault_plan: Some(FaultPlan::generate_site(
            SEEDS[1],
            start,
            template.burst_duration,
            RACKS as u8,
        )),
        template,
    }
}

/// One JSON line per rack outcome, then the site line (the rack list
/// emptied so each rack is serialized once).
fn datacenter_jsonl(out: &DatacenterOutcome) -> String {
    let mut s = String::new();
    for rack in &out.racks {
        s.push_str(&serde_json::to_string(rack).expect("rack outcome serializes"));
        s.push('\n');
    }
    let site = DatacenterOutcome {
        racks: Vec::new(),
        ..out.clone()
    };
    s.push_str(&serde_json::to_string(&site).expect("site outcome serializes"));
    s.push('\n');
    s
}

#[test]
fn golden_datacenter_site_is_byte_identical_at_any_jobs() {
    let cfg = datacenter_site_cfg();
    for jobs in [1, 4] {
        let out = try_run_datacenter(&cfg, jobs).expect("routed site runs");
        assert!(
            out.factors.iter().flatten().any(|&f| f != 1.0),
            "the site must route load"
        );
        check("datacenter_site.jsonl", &datacenter_jsonl(&out));
    }
}

/// Completed requests past which a DES epoch's latency reservoir starts
/// replacing samples (the DES's per-epoch reservoir cap).
const DES_RESERVOIR_CAP: f64 = 20_000.0;

/// Scripted single-server DES runs, one JSON line per epoch: per app,
/// three overloaded max-sprint epochs (offered 1.2× the SLO capacity,
/// admission at it), a Normal 6-core epoch that inherits the 12-core
/// backlog, then a zero-load drain. Pins service sampling, RNG
/// consumption, completion order, the carried backlog and the
/// reservoir percentile — past the reservoir cap for Memcached. A fourth
/// run replays a measured (empirical) service shape on SPECjbb.
fn des_epoch_lines() -> String {
    let epoch = SimDuration::from_secs(10);
    let sprint = ServerSetting::max_sprint();
    let normal = ServerSetting::normal();
    // Cheap hits and 2.5× heavier misses: a shape no log-normal has, mild
    // enough to keep an SLO capacity at both settings.
    let mut bimodal = vec![1.0_f64; 700];
    bimodal.extend(std::iter::repeat_n(2.5, 300));
    let measured = Application::SpecJbb.profile().with_empirical_service(
        greensprint_repro::workload::EmpiricalDist::from_samples(bimodal)
            .expect("positive samples"),
    );
    let profiles = Application::ALL.map(Application::profile);
    let mut s = String::new();
    for (profile, seed) in profiles.into_iter().chain([measured]).zip([11, 22, 33, 44]) {
        let app = profile.app;
        let shape = match profile.service_dist {
            Some(_) => "empirical",
            None => "lognormal",
        };
        let (sprint_cap, normal_cap) = (profile.slo_capacity(sprint), profile.slo_capacity(normal));
        let offered = 1.2 * sprint_cap;
        let mut sim = ServerSim::new(SimRng::seed_from_u64(seed));
        let script = [
            (sprint, offered, sprint_cap),
            (sprint, offered, sprint_cap),
            (sprint, offered, sprint_cap),
            (normal, offered, normal_cap),
            (normal, 0.0, 0.0),
        ];
        for (i, (setting, offered, admit)) in script.into_iter().enumerate() {
            let backlog_in = sim.backlog();
            let perf = sim.advance_epoch(&profile, setting, offered, admit, epoch);
            if i == 3 {
                assert!(backlog_in > 0, "{app}: no backlog reached the 6-core epoch");
            }
            if app == Application::Memcached && i < 3 {
                assert!(
                    perf.completed_rps * epoch.as_secs_f64() > DES_RESERVOIR_CAP,
                    "{app}: epoch {i} stayed under the reservoir cap"
                );
            }
            s.push_str(&format!(
                "{{\"app\":\"{app}\",\"shape\":\"{shape}\",\"epoch\":{i},\"setting\":\"{setting}\",\"backlog\":{},\"perf\":{}}}\n",
                sim.backlog(),
                serde_json::to_string(&perf).expect("perf serializes"),
            ));
        }
    }
    s
}

#[test]
fn golden_des_epochs_are_byte_identical() {
    check("des_epochs.jsonl", &des_epoch_lines());
}

/// The paper's measurement plane end to end: a request-level DES sweep
/// over every app on Pacing and Hybrid (Hybrid's reward reads the
/// SLO-percentile latency, so the percentile reaches the bytes).
fn des_sweep_points() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for app in Application::ALL {
        for strategy in [Strategy::Pacing, Strategy::Hybrid] {
            let cfg = EngineConfig {
                app,
                strategy,
                availability: AvailabilityLevel::Medium,
                burst_duration: SimDuration::from_mins(2),
                measurement: MeasurementMode::Des,
                ..EngineConfig::default()
            };
            points.push(SweepPoint::burst(
                format!("golden/des/{app}/{strategy}"),
                cfg,
            ));
        }
    }
    points
}

#[test]
fn golden_des_sweep_is_byte_identical_at_any_jobs() {
    for jobs in [1, 4] {
        check(
            "des_sweep.jsonl",
            &jsonl(&run_sweep(des_sweep_points(), 7, jobs)),
        );
    }
}

#[test]
fn golden_outcomes_survive_snapshot_resume() {
    // Every family at every seed: snapshot at every epoch boundary (each
    // snapshot holds the strategy run and its Normal floor), resume from
    // each captured state, and require the resumed outcome to hit the
    // same golden bytes as the uninterrupted run. The guarded family's
    // snapshots include mid-demotion and mid-quarantine states.
    for family in FAMILIES {
        for seed in SEEDS {
            let cfg = family_cfg(family, seed);
            let fixture = fixture_dir().join(format!("burst_{family}_seed{seed}.json"));
            let mut snaps: Vec<EngineSnapshot> = Vec::new();
            let (uninterrupted, _, _) = Engine::try_new(cfg)
                .expect("valid golden config")
                .run_full_with_snapshots(1, &mut |s| snaps.push(s.clone()))
                .expect("analytic run snapshots");
            let golden = serde_json::to_string(&uninterrupted).expect("outcome serializes");
            if !regen() {
                let expected = std::fs::read_to_string(&fixture).unwrap_or_else(|e| {
                    panic!("missing golden fixture {}: {e}", fixture.display())
                });
                assert_eq!(
                    expected, golden,
                    "{family}/{seed}: snapshotting run diverged from golden bytes"
                );
            }
            // Nine boundaries of a ten-epoch burst.
            assert_eq!(snaps.len(), 9, "{family}/{seed}: snapshot count");
            for snap in snaps {
                let epoch = snap.state.main.next_epoch;
                assert_eq!(
                    snap.state.baseline.as_ref().map(|b| b.next_epoch),
                    Some(epoch),
                    "{family}/{seed}: epoch {epoch} snapshot lacks its Normal floor"
                );
                // Through a JSON round trip, as an on-disk checkpoint resumes.
                let snap =
                    EngineSnapshot::from_json(&snap.to_json()).expect("snapshot parses back");
                match resume_snapshot(snap, 1, &mut |_| {}).expect("resume") {
                    ResumedRun::Burst { outcome, .. } => {
                        let resumed = serde_json::to_string(&outcome).expect("outcome serializes");
                        assert_eq!(
                            golden, resumed,
                            "{family}/{seed}: resume from epoch {epoch} broke byte-identity"
                        );
                    }
                    other => panic!("expected burst resume, got {other:?}"),
                }
            }
        }
    }
}
