//! End-to-end tests for multi-rack `greensprint serve`: supervised
//! rack-worker isolation (an injected panic or stall recovers via a
//! bounded restart-from-snapshot with byte-identical aggregate metrics),
//! quarantine + conserved rerouting within two epochs, whole-daemon site
//! snapshots (drain/SIGKILL + `--resume` byte-identity, including
//! mid-rack-outage), the tick watchdog, and a golden multi-rack stream.

mod common;

use greensprint_repro::prelude::*;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gs-serve-dc-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Newline-terminated lines in `path` so far (0 if it does not exist).
fn complete_lines(path: &Path) -> usize {
    std::fs::read(path).map_or(0, |b| b.iter().filter(|&&c| c == b'\n').count())
}

/// The epoch a serve snapshot resumes at (every rack's `next_epoch`
/// agrees at a boundary, so the first one is the site's).
fn snapshot_next_epoch(snap: &Path) -> usize {
    let text = std::fs::read_to_string(snap).expect("snapshot readable");
    let tail = text
        .split("\"next_epoch\":")
        .nth(1)
        .expect("snapshot has next_epoch");
    tail.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

/// SIGKILL a throttled daemon mid-stream: once its first snapshot has
/// landed and the metrics file holds at least `lines` complete lines.
/// Polls against a deadline instead of sleeping a fixed time that a slow
/// build can outrun.
fn kill_mid_stream(child: &mut Child, snap: &Path, metrics: &Path, lines: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !(snap.exists() && complete_lines(metrics) >= lines) && Instant::now() < deadline {
        if child.try_wait().expect("poll the daemon").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill();
    let _ = child.wait();
}

fn serve_cfg(minutes: u64) -> EngineConfig {
    EngineConfig {
        burst_duration: SimDuration::from_mins(minutes),
        measurement: MeasurementMode::Analytic,
        seed: 11,
        ..EngineConfig::default()
    }
}

/// Multi-rack `--sim-time` args with a hand-written disturbance plan
/// (`DisturbancePlan::generate` never schedules rack faults, so every
/// rack-fault test constructs its plan explicitly).
fn dc_args(cfg: EngineConfig, racks: u32, plan: DisturbancePlan) -> ServeArgs {
    ServeArgs {
        cfg,
        options: ServeOptions {
            disturbances: Some(plan),
            snapshot_every: 5,
            racks,
            ..ServeOptions::default()
        },
        sim_time: true,
        control: ControlBackend::Sim,
        ..ServeArgs::default()
    }
}

#[test]
fn multi_rack_clean_run_reports_rack_counters() {
    let dir = tmp_dir("clean");
    let metrics = dir.join("metrics.jsonl");

    let mut args = dc_args(serve_cfg(12), 3, DisturbancePlan::default());
    args.metrics_path = Some(metrics.clone());
    let summary = serve(args).expect("clean multi-rack serve");

    assert_eq!(summary.epochs_executed, 12);
    assert_eq!(summary.racks, 3);
    assert_eq!(summary.rack_restarts, 0);
    assert_eq!(summary.rack_panics, 0);
    assert_eq!(summary.rack_stalls, 0);
    assert_eq!(summary.racks_quarantined, 0);
    assert_eq!(summary.rerouted_epochs, 0);
    assert_eq!(summary.audit_violations, 0, "{summary:?}");
    assert_eq!(summary.rack_health, vec![RackHealth::Live; 3]);
    assert_ne!(summary.floor_held, Some(false), "{summary:?}");

    // One aggregate line per epoch; per-rack topics are hub-only and
    // must never leak into the durable stream.
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert_eq!(text.lines().count(), 12);
    assert!(
        !text.contains("{\"rack\":"),
        "per-rack topic lines leaked into the aggregate file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole determinism contract: a worker panic *and* a worker
/// stall, each recovered by a restart-from-snapshot that replays the
/// directive history, leave the aggregate `--sim-time` stream
/// byte-identical to an unfaulted run — for a lone rack as for a fleet.
#[test]
fn injected_rack_faults_recover_byte_identical() {
    // (racks, panicked rack, stalled rack)
    for (racks, panicked, stalled) in [(1, 0, 0), (3, 1, 2)] {
        let dir = tmp_dir(&format!("faults-{racks}"));
        let clean = dir.join("clean.jsonl");
        let faulted = dir.join("faulted.jsonl");

        let mut want = dc_args(serve_cfg(16), racks, DisturbancePlan::default());
        want.metrics_path = Some(clean.clone());
        let want = serve(want).expect("unfaulted serve");
        assert_eq!(want.epochs_executed, 16);

        let plan = DisturbancePlan {
            rack_panics: vec![(3, panicked)],
            rack_stalls: vec![(7, stalled)],
            ..DisturbancePlan::default()
        };
        let mut got = dc_args(serve_cfg(16), racks, plan);
        got.metrics_path = Some(faulted.clone());
        let got = serve(got).expect("faulted serve");

        assert_eq!(got.rack_panics, 1, "{racks} racks: {got:?}");
        assert_eq!(got.rack_stalls, 1, "{racks} racks: {got:?}");
        assert_eq!(got.rack_restarts, 2, "one restart per injected death");
        assert_eq!(got.racks_quarantined, 0);
        assert_eq!(got.rerouted_epochs, 0, "recovered racks never reroute");
        assert_eq!(got.audit_violations, 0);
        // A restart restores and replays each rack's Normal floor with its
        // strategy loop, so the verdict is the unfaulted run's.
        assert_eq!(got.floor_held, want.floor_held, "{racks} racks");
        assert!(want.floor_held.is_some(), "a finished run is judged");
        assert_eq!(
            got.mean_goodput_rps, want.mean_goodput_rps,
            "{racks} racks: a recovered restart changed the goodput"
        );
        assert!(
            got.rack_events.iter().any(|e| e.contains("restart")),
            "supervision log records the restarts: {:?}",
            got.rack_events
        );

        let want_bytes = std::fs::read(&clean).unwrap();
        let got_bytes = std::fs::read(&faulted).unwrap();
        assert!(!want_bytes.is_empty());
        assert_eq!(
            want_bytes, got_bytes,
            "{racks} racks: a recovered rack restart changed the aggregate stream bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Restart-budget exhaustion quarantines the rack and the broker's
/// conserved factors route its load to the survivors by the next epoch
/// (the ≤ 2-epoch failover bar), with zero conservation-audit
/// violations.
#[test]
fn exhausted_restarts_quarantine_and_reroute_within_two_epochs() {
    let dir = tmp_dir("quarantine");
    let snap = dir.join("snap.json");

    let plan = DisturbancePlan {
        rack_panics: vec![(3, 1)],
        ..DisturbancePlan::default()
    };
    let mut args = dc_args(serve_cfg(12), 3, plan);
    args.options.rack_restarts = 0;
    args.snapshot_path = Some(snap.clone());
    args.drain_after_epochs = Some(8);
    let summary = serve(args).expect("quarantine serve");

    assert!(summary.drained);
    assert_eq!(summary.racks_quarantined, 1, "{summary:?}");
    assert_eq!(summary.rack_health[1], RackHealth::Quarantined);
    assert_eq!(summary.rack_health[0], RackHealth::Live);
    assert_eq!(summary.audit_violations, 0, "{summary:?}");
    assert_eq!(
        summary.rerouted_epochs, 4,
        "panic at epoch 3 reroutes epochs 4..8: {summary:?}"
    );
    assert!(
        summary.rack_events.iter().any(|e| e.contains("quarantin")),
        "supervision log records the quarantine: {:?}",
        summary.rack_events
    );

    // The drained snapshot's directive log shows the failover landing
    // within two epochs of the death: the dead rack's factor collapses to
    // zero and the survivors absorb its load.
    let snap = ServeSnapshot::from_json(&std::fs::read_to_string(&snap).unwrap())
        .expect("snapshot parses");
    assert_eq!(snap.schema, SITE_SCHEMA);
    let dc = snap.site;
    assert_eq!(dc.rows.len(), 8, "one directive row per executed epoch");
    assert!(
        dc.rows[3].factors[1] > 0.5,
        "the panic epoch itself was still routed normally: {:?}",
        dc.rows[3]
    );
    let rerouted = &dc.rows[4];
    assert!(
        rerouted.factors[1] <= 0.01,
        "dead rack not dark by epoch 4: {rerouted:?}"
    );
    assert!(
        rerouted.factors.iter().any(|&f| f > 1.01),
        "survivors absorbed no load: {rerouted:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A site snapshot stores each rack's two loops without per-epoch
/// history, each Q-table as its delta from the table the run started
/// from, and only the directive rows a restart can replay: a 4-rack
/// guarded Hybrid fleet's drained snapshot stays small however long the
/// daemon has run.
#[test]
fn a_drained_guarded_hybrid_fleet_snapshot_stays_small() {
    for drain in [30, 300] {
        let dir = tmp_dir(&format!("small-snapshot-{drain}"));
        let snap = dir.join("snap.json");
        let mut cfg = serve_cfg(480);
        cfg.guardrail.enabled = true;
        assert_eq!(cfg.strategy, Strategy::Hybrid);
        let mut args = dc_args(cfg, 4, DisturbancePlan::default());
        args.snapshot_path = Some(snap.clone());
        args.drain_after_epochs = Some(drain);
        assert!(serve(args).expect("drained serve").drained);

        let text = std::fs::read_to_string(&snap).expect("drain snapshot written");
        assert!(
            text.len() < 50 * 1024,
            "a {}-byte snapshot for 4 racks at epoch {drain}",
            text.len()
        );
        let snap = ServeSnapshot::from_json(&text).expect("snapshot parses");
        assert_eq!(snap.site.next_epoch, drain);
        assert!(
            snap.racks.iter().all(|r| r.as_ref().is_some_and(|s| {
                s.main.learner.is_some()
                    && s.baseline.as_ref().is_some_and(|b| b.next_epoch == drain)
            })),
            "every rack carries its learner and its Normal floor"
        );
        // Neither loop keeps history, so neither carries a Monitor.
        assert!(
            snap.racks.iter().flatten().all(|s| {
                s.main.monitor.is_none() && s.baseline.as_ref().is_some_and(|b| b.monitor.is_none())
            }),
            "a serve rack or its floor carries a Monitor"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Drain + `--resume` mid-rack-outage: a daemon checkpointed *while* a
/// rack is quarantined resumes to a stream byte-identical to the same
/// faulted run executed without interruption.
#[test]
fn drain_resume_mid_quarantine_is_byte_identical() {
    let dir = tmp_dir("resume-quarantine");
    let full = dir.join("full.jsonl");
    let part = dir.join("part.jsonl");
    let snap = dir.join("snap.json");
    let plan = DisturbancePlan {
        rack_panics: vec![(3, 1)],
        ..DisturbancePlan::default()
    };

    let mut uninterrupted = dc_args(serve_cfg(20), 3, plan.clone());
    uninterrupted.options.rack_restarts = 0;
    uninterrupted.metrics_path = Some(full.clone());
    let want = serve(uninterrupted).expect("uninterrupted faulted serve");
    assert_eq!(want.racks_quarantined, 1);
    assert_eq!(want.epochs_executed, 20);

    let mut first = dc_args(serve_cfg(20), 3, plan);
    first.options.rack_restarts = 0;
    first.metrics_path = Some(part.clone());
    first.snapshot_path = Some(snap.clone());
    first.drain_after_epochs = Some(6);
    let drained = serve(first).expect("drained serve");
    assert!(drained.drained);
    assert_eq!(drained.racks_quarantined, 1, "outage predates the drain");

    let resumed = serve(ServeArgs {
        metrics_path: Some(part.clone()),
        resume_path: Some(snap.clone()),
        control: ControlBackend::Sim,
        sim_time: true,
        ..ServeArgs::default()
    })
    .expect("resumed serve");
    assert_eq!(resumed.resumed_from_epoch, Some(6));
    assert_eq!(resumed.epochs_executed, 20);
    assert_eq!(
        resumed.floor_held, want.floor_held,
        "a resumed run is judged over the full window"
    );
    assert_eq!(resumed.racks, 3, "rack count rides the snapshot");
    assert_eq!(
        resumed.rack_health[1],
        RackHealth::Quarantined,
        "quarantine survives the restart"
    );
    assert_eq!(resumed.audit_violations, 0);

    let want_bytes = std::fs::read(&full).unwrap();
    let got_bytes = std::fs::read(&part).unwrap();
    assert!(!want_bytes.is_empty());
    assert_eq!(
        want_bytes, got_bytes,
        "drain + resume mid-quarantine changed the stream bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGKILL (no drain, no destructor) on a multi-rack daemon, then
/// `--resume` from the periodic site snapshot: bytes identical to an
/// uninterrupted run.
#[test]
fn multi_rack_sigkilled_then_resumed_stream_is_byte_identical() {
    let dir = tmp_dir("sigkill");
    let full = dir.join("full.jsonl");
    let part = dir.join("part.jsonl");
    let snap = dir.join("snap.json");
    let base = [
        "serve",
        "--sim-time",
        "--analytic",
        "--minutes",
        "30",
        "--seed",
        "11",
        "--disturb-seed",
        "3",
        "--control",
        "sim",
        "--snapshot-every",
        "5",
        "--racks",
        "3",
    ];

    let status = Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args(base)
        .args(["--metrics", full.to_str().unwrap()])
        .status()
        .expect("uninterrupted run");
    assert!(status.success());

    // Throttled purely so SIGKILL lands mid-stream; pacing never enters
    // the metrics bytes.
    let mut child = Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args(base)
        .args(["--metrics", part.to_str().unwrap()])
        .args(["--snapshot", snap.to_str().unwrap()])
        .args(["--throttle-ms", "40"])
        .spawn()
        .expect("throttled run");
    // Kill two lines past the epoch-5 snapshot, so the metrics file runs
    // ahead of the snapshot and resume must skip lines already on disk.
    kill_mid_stream(&mut child, &snap, &part, 7);
    assert!(snap.exists(), "the run died before its first snapshot");
    let on_disk = complete_lines(&part);
    let next = snapshot_next_epoch(&snap);
    assert!(
        on_disk > next,
        "metrics file ({on_disk} lines) not ahead of the snapshot (epoch {next})"
    );
    let text = std::fs::read_to_string(&snap).unwrap();
    assert!(
        text.contains(SITE_SCHEMA),
        "daemon snapshot lacks the {SITE_SCHEMA} schema"
    );

    let status = Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args([
            "serve",
            "--sim-time",
            "--control",
            "sim",
            "--resume",
            snap.to_str().unwrap(),
            "--metrics",
            part.to_str().unwrap(),
        ])
        .status()
        .expect("resumed run");
    assert!(status.success());

    let want_bytes = std::fs::read(&full).unwrap();
    let got_bytes = std::fs::read(&part).unwrap();
    assert_eq!(
        want_bytes, got_bytes,
        "SIGKILL + resume changed the multi-rack stream bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The admin plane's `KILL-RACK` through a supervised restart, a SIGKILL
/// and a `--resume`: a throttled 4-rack daemon on an ephemeral port has
/// rack 2 killed over TCP, `STATUS` reports the restart, the daemon is
/// SIGKILLed once a snapshot holds it, and the resumed stream is
/// byte-identical to an uninterrupted, unkilled run's.
#[test]
fn admin_kill_rack_restart_then_sigkill_resume_is_byte_identical() {
    let dir = tmp_dir("admin-kill");
    let golden = dir.join("golden.jsonl");
    let part = dir.join("part.jsonl");
    let snap = dir.join("snap.json");
    let base = [
        "serve",
        "--sim-time",
        "--analytic",
        "--minutes",
        "40",
        "--seed",
        "11",
        "--disturb-seed",
        "3",
        "--control",
        "sim",
        "--snapshot-every",
        "5",
        "--racks",
        "4",
    ];
    let status = Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args(base)
        .args(["--metrics", golden.to_str().unwrap()])
        .stdout(Stdio::null())
        .status()
        .expect("uninterrupted run");
    assert!(status.success());

    // Throttled pacing keeps the run alive for the admin client and the
    // kill; it never enters the metrics bytes.
    let (mut child, addr) = common::spawn_listening(
        Command::new(env!("CARGO_BIN_EXE_greensprint"))
            .args(base)
            .args(["--metrics", part.to_str().unwrap()])
            .args(["--snapshot", snap.to_str().unwrap()])
            .args(["--listen", "127.0.0.1:0", "--admin-token", "kill-secret"])
            .args(["--throttle-ms", "60"])
            .stdout(Stdio::null()),
    );

    let t = Duration::from_secs(5);
    assert_eq!(
        admin_request(addr, "KILL-RACK 2 kill-secret", t).expect("admin kill"),
        "ok kill-rack 2"
    );
    // The supervised restart shows in STATUS, then in a snapshot.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = admin_request(addr, "STATUS kill-secret", t).expect("admin status");
        if status.contains("\"restarts\":1") {
            break;
        }
        assert!(Instant::now() < deadline, "rack never restarted: {status}");
        std::thread::sleep(Duration::from_millis(10));
    }
    while !std::fs::read_to_string(&snap).is_ok_and(|s| s.contains("\"rack_restarts\":1")) {
        assert!(
            Instant::now() < deadline,
            "no snapshot recorded the restart"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill();
    let _ = child.wait();
    let text = std::fs::read_to_string(&snap).expect("the snapshot survives a SIGKILL");
    assert!(text.contains(&format!("\"schema\":\"{SITE_SCHEMA}\"")));
    assert!(text.contains("\"rack_restarts\":1"), "{text}");

    let out = Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args(["serve", "--sim-time", "--control", "sim"])
        .args(["--resume", snap.to_str().unwrap()])
        .args(["--metrics", part.to_str().unwrap()])
        .output()
        .expect("resumed run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = String::from_utf8_lossy(&out.stdout);
    assert!(summary.contains("\"racks\": 4"), "{summary}");
    assert!(summary.contains("\"rack_restarts\": 1"), "{summary}");
    assert!(summary.contains("\"racks_quarantined\": 0"), "{summary}");
    assert!(summary.contains("\"audit_violations\": 0"), "{summary}");
    assert_eq!(
        std::fs::read(&golden).unwrap(),
        std::fs::read(&part).unwrap(),
        "admin kill + SIGKILL + resume changed the stream bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A wedged site tick trips the watchdog: counted, logged through the
/// guardrail, and answered with a one-rung ladder demotion on the next
/// epoch.
#[test]
fn watchdog_stall_is_counted_and_demotes() {
    let mut cfg = serve_cfg(12);
    cfg.guardrail.enabled = true;
    let plan = DisturbancePlan {
        wedges: vec![4],
        ..DisturbancePlan::default()
    };
    let summary = serve(ServeArgs {
        cfg,
        options: ServeOptions {
            disturbances: Some(plan),
            ..ServeOptions::default()
        },
        sim_time: true,
        control: ControlBackend::Sim,
        ..ServeArgs::default()
    })
    .expect("wedged serve");

    assert_eq!(summary.epochs_executed, 12);
    assert_eq!(summary.watchdog_stalls, 1, "{summary:?}");
    assert!(
        summary
            .guardrail_events
            .iter()
            .any(|e| e.contains("watchdog")),
        "watchdog demotion missing from the guardrail log: {:?}",
        summary.guardrail_events
    );
    assert!(summary.ladder_level >= 1, "{summary:?}");
}

/// `--racks >= 2` cannot drive one physical rack's sysfs tree.
#[test]
fn multi_rack_rejects_sysfs_control() {
    let err = serve(ServeArgs {
        cfg: serve_cfg(5),
        options: ServeOptions {
            racks: 2,
            ..ServeOptions::default()
        },
        sim_time: true,
        control: ControlBackend::Sysfs(std::env::temp_dir().join("gs-serve-dc-sysfs")),
        ..ServeArgs::default()
    })
    .expect_err("sysfs multi-rack must be rejected");
    assert!(
        matches!(&err, ServeError::Config(m) if m.contains("sysfs")),
        "{err:?}"
    );
}

/// The multi-rack aggregate stream for a disturbed (stale/overrun)
/// 3-rack run, pinned as golden bytes. Regenerate only when the
/// intended stream changes: `GOLDEN_REGEN=1 cargo test --test serve_dc`.
#[test]
fn golden_multi_rack_stream_is_byte_identical() {
    let dir = tmp_dir("golden");
    let metrics = dir.join("metrics.jsonl");

    let cfg = serve_cfg(20);
    let n_epochs = cfg.burst_duration.div_duration(cfg.epoch).unwrap();
    let mut args = dc_args(cfg, 3, DisturbancePlan::generate(3, n_epochs));
    args.metrics_path = Some(metrics.clone());
    let summary = serve(args).expect("golden multi-rack serve");
    assert_eq!(summary.audit_violations, 0);

    let actual = std::fs::read_to_string(&metrics).unwrap();
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_dc_metrics.jsonl");
    if std::env::var_os("GOLDEN_REGEN").is_some_and(|v| v == "1") {
        std::fs::write(&fixture, &actual).expect("write fixture");
    } else {
        let expected = std::fs::read_to_string(&fixture)
            .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", fixture.display()));
        assert_eq!(
            expected, actual,
            "multi-rack serve stream diverged from golden bytes \
             (if the change is intended, regenerate with GOLDEN_REGEN=1)"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A whole-rack crash that recovers through rejoin probation is not a
/// dark draw: after the outage the rack's servers draw idle power while
/// they serve out the hysteresis window with no load, which is correct.
/// Only a rack inside an active site blackout counts as dark.
#[test]
fn whole_rack_crash_recovery_is_not_a_dark_draw() {
    let start = SimTime::from_hours(11);
    let mut cfg = serve_cfg(12);
    cfg.fault_plan = Some(FaultPlan {
        seed: 0,
        events: (0..cfg.green.green_servers)
            .map(|s| FaultEvent {
                at: start + SimDuration::from_mins(3),
                duration: SimDuration::from_mins(1),
                kind: FaultKind::ServerCrash {
                    server: s as u8,
                    down_epochs: 2,
                },
            })
            .collect(),
    });
    for racks in [1, 3] {
        let summary = serve(dc_args(cfg.clone(), racks, DisturbancePlan::default()))
            .expect("crashed-rack serve");
        assert_eq!(summary.epochs_executed, 12);
        assert_eq!(summary.audit_violations, 0, "{racks} racks: {summary:?}");
        assert_eq!(summary.floor_held, Some(true), "{racks} racks: {summary:?}");
    }
}
