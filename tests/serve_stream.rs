//! End-to-end tests for `greensprint serve`: the kill/restart contract
//! (an interrupted-then-resumed `--sim-time` serve emits a metrics
//! stream byte-identical to an uninterrupted run) and the fault-storm
//! acceptance bar (stale telemetry + actuation failures + a mid-run
//! server crash: no panic, Normal floor held, zero audit violations,
//! every robustness counter reported in the summary).

use greensprint_repro::prelude::*;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gs-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Newline-terminated lines in `path` so far (0 if it does not exist).
fn complete_lines(path: &Path) -> usize {
    std::fs::read(path).map_or(0, |b| b.iter().filter(|&&c| c == b'\n').count())
}

/// The epoch a serve snapshot resumes at.
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

fn sim_args(cfg: EngineConfig, disturb_seed: u64) -> ServeArgs {
    let n_epochs = cfg.burst_duration.div_duration(cfg.epoch).unwrap();
    ServeArgs {
        cfg,
        options: ServeOptions {
            disturbances: Some(DisturbancePlan::generate(disturb_seed, n_epochs)),
            snapshot_every: 5,
            ..ServeOptions::default()
        },
        sim_time: true,
        control: ControlBackend::Sim,
        ..ServeArgs::default()
    }
}

#[test]
fn drained_then_resumed_stream_is_byte_identical() {
    let dir = tmp_dir("drain");
    let full = dir.join("full.jsonl");
    let part = dir.join("part.jsonl");
    let snap = dir.join("snap.json");

    let mut uninterrupted = sim_args(serve_cfg(20), 3);
    uninterrupted.metrics_path = Some(full.clone());
    let want = serve(uninterrupted).expect("uninterrupted serve");
    assert!(!want.drained);
    assert_eq!(want.epochs_executed, 20);
    assert_eq!(want.audit_violations, 0);

    let mut first = sim_args(serve_cfg(20), 3);
    first.metrics_path = Some(part.clone());
    first.snapshot_path = Some(snap.clone());
    first.drain_after_epochs = Some(7);
    let drained = serve(first).expect("drained serve");
    assert!(drained.drained);
    assert_eq!(drained.epochs_executed, 7);
    assert_eq!(
        drained.floor_held, None,
        "a truncated window has no comparable Normal baseline"
    );

    // Resume needs nothing beyond the snapshot: config and options ride
    // inside it.
    let resumed = serve(ServeArgs {
        metrics_path: Some(part.clone()),
        resume_path: Some(snap.clone()),
        control: ControlBackend::Sim,
        sim_time: true,
        ..ServeArgs::default()
    })
    .expect("resumed serve");
    assert_eq!(resumed.resumed_from_epoch, Some(7));
    assert_eq!(resumed.epochs_executed, 20);
    assert!(!resumed.drained);
    assert_eq!(
        resumed.floor_held, want.floor_held,
        "a resumed run is judged over the full window"
    );

    let want_bytes = std::fs::read(&full).unwrap();
    let got_bytes = std::fs::read(&part).unwrap();
    assert!(!want_bytes.is_empty());
    assert_eq!(
        want_bytes, got_bytes,
        "drain + resume changed the metrics stream bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_then_resumed_stream_is_byte_identical() {
    let dir = tmp_dir("sigkill");
    let full = dir.join("full.jsonl");
    let part = dir.join("part.jsonl");
    let snap = dir.join("snap.json");
    let hb = dir.join("heartbeat.json");
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
    ];

    let status = Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args(base)
        .args(["--metrics", full.to_str().unwrap()])
        .status()
        .expect("uninterrupted run");
    assert!(status.success());

    // The throttled run is paced (~40 ms/epoch) purely so SIGKILL lands
    // mid-stream; the throttle never enters the metrics bytes.
    let mut child = Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args(base)
        .args(["--metrics", part.to_str().unwrap()])
        .args(["--snapshot", snap.to_str().unwrap()])
        .args(["--heartbeat", hb.to_str().unwrap()])
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
    let hb_before = std::fs::read_to_string(&hb).expect("heartbeat written");

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
            "--heartbeat",
            hb.to_str().unwrap(),
        ])
        .status()
        .expect("resumed run");
    assert!(status.success());

    let want_bytes = std::fs::read(&full).unwrap();
    let got_bytes = std::fs::read(&part).unwrap();
    assert_eq!(
        want_bytes, got_bytes,
        "SIGKILL + resume changed the metrics stream bytes"
    );

    // Liveness advanced across the restart.
    let hb_after = std::fs::read_to_string(&hb).unwrap();
    let epoch_of = |s: &str| -> u64 {
        let tail = s.split("\"epoch\":").nth(1).expect("heartbeat has epoch");
        tail.chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    };
    assert!(
        epoch_of(&hb_after) > epoch_of(&hb_before),
        "heartbeat did not advance: {hb_before} -> {hb_after}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// In real time the deadline budget measures each tick's own work. One
/// injected actuation failure per server makes epoch 3 back off for real
/// (50 ms per server) — far past a 20 ms budget and its 4x watchdog — so
/// that tick's own metrics line is flagged, the stall is counted, and its
/// demotion reaches the guardrail on the next tick. The plan schedules no
/// overruns of its own.
#[test]
fn real_time_tick_budget_flags_the_slow_tick() {
    let dir = tmp_dir("tick-budget");
    let metrics = dir.join("m.jsonl");
    let mut cfg = serve_cfg(6);
    cfg.guardrail.enabled = true;
    let summary = serve(ServeArgs {
        cfg,
        options: ServeOptions {
            disturbances: Some(DisturbancePlan {
                actuation: vec![(3, 1)],
                ..DisturbancePlan::default()
            }),
            ..ServeOptions::default()
        },
        sim_time: false,
        rate: 1e6,
        tick_budget_ms: Some(20),
        metrics_path: Some(metrics.clone()),
        control: ControlBackend::Sim,
        ..ServeArgs::default()
    })
    .expect("real-time serve");

    assert_eq!(summary.epochs_executed, 6);
    assert!(summary.watchdog_stalls >= 1, "{summary:?}");
    assert!(
        summary
            .guardrail_events
            .iter()
            .any(|e| e.contains("watchdog")),
        "the measured stall never demoted: {:?}",
        summary.guardrail_events
    );
    let text = std::fs::read_to_string(&metrics).unwrap();
    let slow = text.lines().nth(3).expect("epoch 3 line");
    assert!(
        slow.starts_with("{\"epoch\":3,\"overrun\":true,"),
        "the slow tick's own line is not flagged: {slow}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An empty `--feed` file is a live-but-silent sensor: nothing parses,
/// nothing crashes, and the PSS staleness path engages once the silence
/// outlasts `stale_after_epochs`. No disturbance plan here, so the
/// staleness arithmetic is exact.
#[test]
fn empty_feed_file_counts_nothing_and_goes_stale() {
    let dir = tmp_dir("feed-empty");
    let feed = dir.join("feed.txt");
    std::fs::write(&feed, "").unwrap();

    let mut args = sim_args(serve_cfg(20), 3);
    args.options.disturbances = None;
    args.feed_path = Some(feed);
    let summary = serve(args).expect("empty feed must not error");

    assert_eq!(summary.epochs_executed, 20);
    assert_eq!(summary.feed_malformed, 0, "an empty file has no bad lines");
    // The silence streak hits stale_after_epochs (3) at epoch 2 and
    // never recovers: 18 of 20 epochs are declared stale.
    assert_eq!(summary.stale_epochs, 18, "{summary:?}");
    assert_eq!(summary.audit_violations, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Oversized frames, interleaved garbage, and an EOF-mid-line tail are
/// counted as malformed — never fatal — while the valid lines between
/// them keep telemetry fresh and short silences ride the held reading.
#[test]
fn malformed_feed_lines_are_counted_not_fatal() {
    let dir = tmp_dir("feed-bad");
    let feed = dir.join("feed.txt");
    let oversized = "9".repeat(300); // digits, so only the cap rejects it
                                     // 6 malformed: oversized, corrupt JSON, prose, an empty line, a JSON
                                     // frame without a supply field, and a line truncated by EOF.
    let mut text = format!(
        "250.0\n{oversized}\n{{\"supply_w\": bogus}}\n275.5\nnot a number\n\n\
         {{\"epoch\": 7}}\n{{\"supply_w\":300.0}}\n"
    );
    text.push_str("{\"supply_w\": 2"); // EOF mid-line, no newline
    std::fs::write(&feed, text).unwrap();

    let mut args = sim_args(serve_cfg(20), 3);
    args.options.disturbances = None;
    args.options.max_line_len = 128;
    args.feed_path = Some(feed);
    let summary = serve(args).expect("malformed feed must not error");

    assert_eq!(summary.epochs_executed, 20);
    assert_eq!(summary.feed_malformed, 6, "{summary:?}");
    // Valid samples land at epochs 0, 3, and 7 (one line per epoch);
    // the malformed runs around them stay under the 3-epoch threshold
    // except epoch 6, and the post-EOF silence goes stale from epoch 10.
    assert_eq!(summary.stale_epochs, 11, "{summary:?}");
    assert_eq!(summary.audit_violations, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_storm_never_panics_and_holds_the_floor() {
    // The acceptance storm: engine-level faults (stale RE telemetry, lost
    // commands, a mid-run server crash) layered under serve-level
    // disturbances (deadline overruns with the degrade policy, actuation
    // failures, sink stalls against a 1-line buffer).
    let start = SimTime::from_hours(11);
    let mut cfg = serve_cfg(30);
    cfg.guardrail.enabled = true;
    cfg.fault_plan = Some(FaultPlan {
        seed: 0,
        events: vec![
            FaultEvent {
                at: start + SimDuration::from_mins(3),
                duration: SimDuration::from_mins(6),
                kind: FaultKind::ReSensorDropout,
            },
            FaultEvent {
                at: start + SimDuration::from_mins(10),
                duration: SimDuration::from_mins(5),
                kind: FaultKind::CommandLoss { server: None },
            },
            FaultEvent {
                at: start + SimDuration::from_mins(15),
                duration: SimDuration::from_mins(1),
                kind: FaultKind::ServerCrash {
                    server: 2,
                    down_epochs: 4,
                },
            },
        ],
    });

    let dir = tmp_dir("storm");
    let metrics = dir.join("m.jsonl");
    let mut args = sim_args(cfg, 9);
    args.options.overrun = OverrunPolicy::Degrade;
    args.options.metrics_buffer = 1;
    args.metrics_path = Some(metrics.clone());

    let summary = serve(args).expect("the storm must not error the daemon");

    assert_eq!(summary.epochs_executed, 30, "the daemon ran the window out");
    assert_eq!(
        summary.audit_violations, 0,
        "invariant auditor stayed clean"
    );
    assert_eq!(
        summary.floor_held,
        Some(true),
        "the Normal floor must hold through the storm"
    );
    // Every robustness counter is reported and the storm actually
    // exercised it.
    assert!(summary.overrun_ticks > 0, "plan guarantees overruns");
    assert!(summary.stale_epochs > 0, "plan guarantees staleness");
    assert!(summary.actuation_retries > 0, "plan guarantees retries");
    assert!(
        summary.dropped_metrics_lines > 0,
        "1-line buffer + stalls guarantee drops"
    );
    assert!(
        summary.ladder_level > 0,
        "degrade policy demoted at least one rung"
    );
    // The degrade demotions are visible in the guardrail event log.
    assert!(summary
        .guardrail_events
        .iter()
        .any(|e| e.contains("tick deadline overrun")));
    let _ = std::fs::remove_dir_all(&dir);
}
