//! Smoke tests for the operator CLI (the `greensprint` binary).

use greensprint_repro::prelude::{EngineSnapshot, CHECKPOINT_SCHEMA, SITE_SCHEMA};
use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn simulate_prints_a_result() {
    let (stdout, _, ok) = run(&[
        "simulate",
        "--app",
        "jbb",
        "--minutes",
        "5",
        "--availability",
        "max",
        "--analytic",
    ]);
    assert!(ok);
    assert!(stdout.contains("speedup vs Normal"), "{stdout}");
    // Max availability: a real sprint happened.
    let speedup_line = stdout
        .lines()
        .find(|l| l.contains("speedup"))
        .expect("speedup line");
    assert!(
        speedup_line.contains("4."),
        "expected ~4.6x: {speedup_line}"
    );
}

#[test]
fn resume_refuses_a_cut_engine_snapshot_without_panicking() {
    let ckpt = std::env::temp_dir().join(format!("gs-cli-cut-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let path = ckpt.to_str().unwrap();
    let (_, stderr, ok) = run(&[
        "simulate",
        "--app",
        "jbb",
        "--strategy",
        "hybrid",
        "--availability",
        "med",
        "--minutes",
        "5",
        "--analytic",
        "--checkpoint",
        path,
        "--snapshot-every",
        "2",
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&ckpt).unwrap();
    let refuse = |snap: EngineSnapshot, what: &str| {
        std::fs::write(&ckpt, snap.to_json()).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_greensprint"))
            .args(["resume", path])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains(what), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    };
    let mut snap = EngineSnapshot::from_json(&text).unwrap();
    snap.state.main.prev_settings.pop();
    refuse(snap, "prev_settings");
    // The Normal floor keeps no history, so it carries no Monitor; the
    // strategy run keeps its own.
    let mut snap = EngineSnapshot::from_json(&text).unwrap();
    let monitor = snap.state.main.monitor.clone();
    assert!(monitor.is_some(), "the burst keeps its history");
    snap.state
        .baseline
        .as_mut()
        .expect("a Hybrid floor")
        .monitor = monitor;
    refuse(snap, "Normal floor loop state monitor is unexpected");
    let mut snap = EngineSnapshot::from_json(&text).unwrap();
    snap.state.main.monitor = None;
    refuse(snap, "monitor is missing");
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn resume_refuses_an_out_of_range_setting_without_panicking() {
    let ckpt = std::env::temp_dir().join(format!("gs-cli-setting-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let path = ckpt.to_str().unwrap();
    let (_, stderr, ok) = run(&[
        "campaign",
        "--days",
        "1",
        "--analytic",
        "--checkpoint",
        path,
        "--snapshot-every",
        "100",
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&ckpt).unwrap();
    let refuse = |contents: &str| {
        std::fs::write(&ckpt, contents).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_greensprint"))
            .args(["resume", path])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(
            stderr.contains(&format!("cannot resume engine snapshot {path}")),
            "a refused snapshot is named as one: {stderr}"
        );
        assert!(!stderr.contains("neither"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(out.stdout.is_empty(), "a refused snapshot printed a result");
        stderr
    };

    let mut snap = EngineSnapshot::from_json(&text).unwrap();
    snap.state.main.prev_settings[0].cores = 200;
    let stderr = refuse(&snap.to_json());
    assert!(stderr.contains("core count 200 out of range"), "{stderr}");

    // The previous tagged schema, which stored a Monitor on every loop.
    let stderr = refuse(&text.replacen(CHECKPOINT_SCHEMA, "gs-ckpt-3", 1));
    assert!(stderr.contains("gs-ckpt-3"), "{stderr}");
    assert!(stderr.contains(CHECKPOINT_SCHEMA), "{stderr}");

    // The previous schema's shape: no schema tag, one run's state, and
    // the phase that run was in.
    let value: serde_json::Value = serde_json::from_str(&text).unwrap();
    let field = |key: &str| value.get(key).cloned().expect("snapshot field");
    let old = serde_json::Value::Object(vec![
        ("fingerprint".to_string(), field("fingerprint")),
        ("scope".to_string(), field("scope")),
        (
            "phase".to_string(),
            serde_json::Value::String("Strategy".to_string()),
        ),
        ("main_carry".to_string(), serde_json::Value::Null),
        (
            "state".to_string(),
            field("state").get("main").cloned().expect("strategy run"),
        ),
    ]);
    let stderr = refuse(&serde_json::to_string(&old).unwrap());
    assert!(stderr.contains("gs-ckpt-2"), "{stderr}");
    assert!(stderr.contains(CHECKPOINT_SCHEMA), "{stderr}");
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn trace_roundtrips_through_simulate() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("gs-cli-trace-{}.csv", std::process::id()));
    let (stdout, _, ok) = run(&[
        "trace",
        "solar",
        "--days",
        "1",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("1440 minute-samples"));
    let (stdout, _, ok) = run(&[
        "simulate",
        "--trace",
        trace.to_str().unwrap(),
        "--minutes",
        "5",
        "--analytic",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("renewable"));
    std::fs::remove_file(trace).ok();
}

#[test]
fn policy_saves_and_warm_starts() {
    let dir = std::env::temp_dir();
    let policy = dir.join(format!("gs-cli-policy-{}.json", std::process::id()));
    let (stdout, _, ok) = run(&[
        "simulate",
        "--strategy",
        "hybrid",
        "--minutes",
        "5",
        "--analytic",
        "--save-policy",
        policy.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    assert!(policy.exists(), "policy file written");
    let (stdout, _, ok) = run(&[
        "simulate",
        "--strategy",
        "hybrid",
        "--minutes",
        "5",
        "--analytic",
        "--warm-policy",
        policy.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("speedup"));
    std::fs::remove_file(policy).ok();
}

#[test]
fn tco_and_campaign_run() {
    let (stdout, _, ok) = run(&["tco", "--hours", "30"]);
    assert!(ok);
    assert!(stdout.contains("break-even"));
    let (stdout, _, ok) = run(&["campaign", "--days", "1", "--analytic"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("sprint hours"));
}

#[test]
fn scenario_file_drives_a_simulation() {
    let dir = std::env::temp_dir();
    let scenario = dir.join(format!("gs-cli-scenario-{}.json", std::process::id()));
    std::fs::write(
        &scenario,
        r#"{
            "app": "Memcached",
            "green": {"name": "lab", "green_servers": 2, "panels": 3, "battery_ah": 5.0},
            "strategy": "Pacing",
            "availability": "Maximum",
            "burst_duration": 300000000,
            "measurement": "Analytic"
        }"#,
    )
    .unwrap();
    let (stdout, _, ok) = run(&["simulate", "--scenario", scenario.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Memcached"), "{stdout}");
    assert!(stdout.contains("lab"), "{stdout}");
    // Flag overrides beat the file.
    let (stdout, _, ok) = run(&[
        "simulate",
        "--scenario",
        scenario.to_str().unwrap(),
        "--app",
        "jbb",
    ]);
    assert!(ok);
    assert!(stdout.contains("SPECjbb"), "{stdout}");
    // Garbage files fail cleanly.
    std::fs::write(&scenario, "{nope").unwrap();
    let (_, stderr, ok) = run(&["simulate", "--scenario", scenario.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("invalid scenario"), "{stderr}");
    std::fs::remove_file(scenario).ok();
}

#[test]
fn sweep_emits_one_json_line_per_point() {
    // 2 strategies × 2 availabilities × 1 duration = 4 points.
    let (stdout, stderr, ok) = run(&[
        "sweep",
        "--strategies",
        "greedy,hybrid",
        "--availabilities",
        "min,med",
        "--minutes",
        "5",
        "--analytic",
        "--jobs",
        "2",
    ]);
    assert!(ok, "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{stdout}");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"label\""), "{line}");
        assert!(line.contains("\"seed\""), "{line}");
        assert!(line.contains("speedup_vs_normal"), "{line}");
    }
}

#[test]
fn sweep_rejects_zero_jobs_and_unknown_flag_values() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args(["sweep", "--jobs", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--jobs must be at least 1"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let (_, stderr, ok) = run(&["sweep", "--strategies", "turbo"]);
    assert!(!ok);
    assert!(stderr.contains("unknown --strategy"), "{stderr}");
}

#[test]
fn malformed_warm_policy_is_a_usage_error_not_a_panic() {
    let dir = std::env::temp_dir();
    let policy = dir.join(format!("gs-cli-badpolicy-{}.json", std::process::id()));
    std::fs::write(&policy, "{this is not a policy").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args([
            "simulate",
            "--strategy",
            "hybrid",
            "--minutes",
            "5",
            "--analytic",
            "--warm-policy",
            policy.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "should exit via usage, not panic"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid warm_policy_json"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_file(policy).ok();
}

#[test]
fn chaos_emits_json_lines_and_holds_the_floor() {
    // A seeded telemetry/supply/actuation plan, then a seeded fleet plan
    // (crashes, flaps, stragglers) whose servers must go down somewhere.
    let seeded: &[&str] = &["--minutes", "5", "--runs", "3", "--fault-seed", "42"];
    let fleet: &[&str] = &[
        "--fleet",
        "--fault-seed",
        "1042",
        "--crashes",
        "2",
        "--flaps",
        "1",
        "--stragglers",
        "1",
        "--minutes",
        "8",
        "--runs",
        "4",
    ];
    for (flags, runs) in [(seeded, 3), (fleet, 4)] {
        let mut args = vec!["chaos", "--analytic", "--jobs", "2"];
        args.extend_from_slice(flags);
        let (stdout, stderr, ok) = run(&args);
        assert!(ok, "{args:?}: {stderr}");
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), runs, "{stdout}");
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"label\":\"chaos/"), "{line}");
            assert!(line.contains("fault_epochs"), "{line}");
            assert!(line.contains("\"floor_held\":true"), "{line}");
            assert!(line.contains("\"grid_overload_wh\":0.0"), "{line}");
        }
        assert!(stderr.contains("all held the Normal floor"), "{stderr}");
        if flags == fleet {
            let lost_a_server = lines.iter().any(|l| {
                l.split("\"dead_server_epochs\":")
                    .nth(1)
                    .is_some_and(|t| t.starts_with(|c: char| c.is_ascii_digit() && c != '0'))
            });
            assert!(lost_a_server, "no fleet run ever lost a server: {stdout}");
        }
    }
}

#[test]
fn chaos_accepts_a_plan_file_and_rejects_garbage_plans() {
    let dir = std::env::temp_dir();
    let plan = dir.join(format!("gs-cli-plan-{}.json", std::process::id()));
    std::fs::write(
        &plan,
        r#"{"seed": 1, "events": [
            {"at": 39600000000, "duration": 600000000, "kind": "ReSensorDropout"}
        ]}"#,
    )
    .unwrap();
    let (stdout, stderr, ok) = run(&[
        "chaos",
        "--plan",
        plan.to_str().unwrap(),
        "--minutes",
        "5",
        "--analytic",
        "--runs",
        "2",
        "--jobs",
        "1",
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout.lines().count(), 2, "{stdout}");
    assert!(stdout.contains("safe_mode_epochs"), "{stdout}");

    // A malformed plan is a usage error (exit 2), not a panic.
    std::fs::write(&plan, "{not a plan").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args(["chaos", "--plan", plan.to_str().unwrap(), "--analytic"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid fault plan"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_file(plan).ok();
}

#[test]
fn guardrail_chaos_fails_over_and_exits_clean() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let plan = dir.join(format!("gs-cli-poison-{pid}.json"));
    let quarantine = dir.join(format!("gs-cli-quarantine-{pid}"));
    // One Q-table poisoning event one epoch into an 11:00 burst.
    std::fs::write(
        &plan,
        r#"{"seed": 0, "events": [
            {"at": 39660000000, "duration": 60000000,
             "kind": {"QTablePoison": {"magnitude": 1000000000.0}}}
        ]}"#,
    )
    .unwrap();
    let (stdout, stderr, ok) = run(&[
        "chaos",
        "--plan",
        plan.to_str().unwrap(),
        "--strategy",
        "hybrid",
        "--minutes",
        "15",
        "--analytic",
        "--runs",
        "2",
        "--jobs",
        "2",
        "--guardrail",
        "on",
        "--quarantine-dir",
        quarantine.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    for line in &lines {
        // Every run failed over, quarantined the table, and still passed
        // the chaos gate (floor, grid cap, audit).
        assert!(!line.contains("\"failover_epochs\":0,"), "{line}");
        assert!(line.contains("\"quarantined_tables\":1"), "{line}");
        assert!(line.contains("\"floor_held\":true"), "{line}");
        assert!(line.contains("\"audit_violations\":[]"), "{line}");
    }
    assert!(stderr.contains("all held the Normal floor"), "{stderr}");
    // Each run's quarantine event carries the checksum streamed from the
    // run's start table, and names the sidecar written from the policy's
    // full JSON, whose file name carries that JSON's checksum: the two
    // must agree.
    let mut streamed = Vec::new();
    for line in &lines {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        let events = ["outcome", "Burst", "guardrail_events"]
            .iter()
            .try_fold(&v, |v, key| v.get(key))
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("no guardrail_events: {line}"));
        let event = events
            .iter()
            .filter_map(|e| e.as_str())
            .find_map(|e| e.split_once("quarantined q-table "))
            .map(|(_, rest)| rest)
            .unwrap_or_else(|| panic!("no quarantine event: {line}"));
        let (checksum, path) = event
            .split_once(" -> ")
            .expect("the event names its sidecar");
        let name = std::path::Path::new(path)
            .file_name()
            .unwrap()
            .to_str()
            .unwrap();
        assert!(name.ends_with(&format!("-{checksum}.json")), "{event}");
        assert!(std::path::Path::new(path).exists(), "{event}");
        streamed.push(checksum.to_string());
    }
    // Every sidecar landed, is one a run reported, and carries the
    // corrupt table.
    let sidecars: Vec<_> = std::fs::read_dir(&quarantine)
        .expect("quarantine dir created")
        .map(|e| e.unwrap().path())
        .collect();
    assert!(!sidecars.is_empty(), "no sidecars in {quarantine:?}");
    for sidecar in &sidecars {
        let name = sidecar.file_stem().unwrap().to_str().unwrap();
        let checksum = name.rsplit('-').next().unwrap();
        assert!(
            streamed.iter().any(|c| c == checksum),
            "{name} vs {streamed:?}"
        );
        let (stdout, _, ok) = run(&["qtable", "dump", sidecar.to_str().unwrap()]);
        assert!(ok, "{stdout}");
        assert!(stdout.contains("quarantine sidecar"), "{stdout}");
        assert!(stdout.contains("checksum ok"), "{stdout}");
        assert!(stdout.contains("verdict: CORRUPT"), "{stdout}");
        // validate refuses the same table with exit 2.
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_greensprint"))
            .args(["qtable", "validate", sidecar.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2));
    }
    std::fs::remove_file(plan).ok();
    std::fs::remove_dir_all(quarantine).ok();
}

#[test]
fn qtable_validates_healthy_policies_and_rejects_garbage() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let policy = dir.join(format!("gs-cli-qtable-{pid}.json"));
    let (stdout, _, ok) = run(&[
        "simulate",
        "--strategy",
        "hybrid",
        "--minutes",
        "5",
        "--analytic",
        "--save-policy",
        policy.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    let (stdout, _, ok) = run(&["qtable", "validate", policy.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("verdict: ok"), "{stdout}");
    assert!(stdout.contains("non-finite  : 0"), "{stdout}");

    // Garbage → exit 2 with the typed rejection, no panic.
    std::fs::write(&policy, r#"{"not": "a table"}"#).unwrap();
    for action in ["validate", "dump"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_greensprint"))
            .args(["qtable", action, policy.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{action}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("Q-table"), "{action}: {stderr}");
        assert!(!stderr.contains("panicked"), "{action}: {stderr}");
    }
    // Missing operands are usage errors.
    let (_, stderr, ok) = run(&["qtable", "validate"]);
    assert!(!ok);
    assert!(stderr.contains("qtable needs a FILE"), "{stderr}");
    let (_, stderr, ok) = run(&["qtable"]);
    assert!(!ok);
    assert!(stderr.contains("validate | dump"), "{stderr}");
    std::fs::remove_file(policy).ok();
}

#[test]
fn guardrail_flag_rejects_bad_values() {
    let (_, stderr, ok) = run(&["simulate", "--analytic", "--guardrail", "maybe"]);
    assert!(!ok);
    assert!(stderr.contains("--guardrail takes on|off"), "{stderr}");
    // A Hybrid fallback cannot be certified (it is the learned strategy
    // the guardrail exists to supervise) — rejected up front.
    let (_, stderr, ok) = run(&[
        "simulate",
        "--analytic",
        "--guardrail",
        "on",
        "--fallback",
        "hybrid",
    ]);
    assert!(!ok);
    assert!(stderr.contains("guardrail"), "{stderr}");
}

#[test]
fn missing_input_files_are_usage_errors() {
    for args in [
        ["simulate", "--trace", "/nonexistent/gs-trace.csv"],
        ["simulate", "--scenario", "/nonexistent/gs-scenario.json"],
        ["simulate", "--warm-policy", "/nonexistent/gs-policy.json"],
        ["chaos", "--plan", "/nonexistent/gs-plan.json"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_greensprint"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cannot read"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn malformed_trace_csv_is_a_usage_error() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("gs-cli-badtrace-{}.csv", std::process::id()));
    std::fs::write(&trace, "minute,irradiance\n0,0.5\n1,not-a-number\n").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args(["simulate", "--trace", trace.to_str().unwrap(), "--analytic"])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "should exit via usage, not panic"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read trace"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_file(trace).ok();
}

#[test]
fn serve_net_flags_validate_with_exit_2() {
    // Each bad knob is a usage error (exit 2) before any socket binds.
    let cases: [(&[&str], &str); 4] = [
        (
            &[
                "serve",
                "--sim-time",
                "--listen",
                "127.0.0.1:0",
                "--max-conns",
                "0",
            ],
            "--max-conns must be >= 1",
        ),
        (
            &[
                "serve",
                "--sim-time",
                "--listen",
                "127.0.0.1:0",
                "--conn-timeout-ms",
                "0",
            ],
            "--conn-timeout-ms must be > 0",
        ),
        (
            &[
                "serve",
                "--sim-time",
                "--listen",
                "127.0.0.1:0",
                "--max-line-len",
                "8",
            ],
            "max line length must be >= 64",
        ),
        // Net knobs without a listener are a contradiction, not a no-op.
        (
            &["serve", "--sim-time", "--max-conns", "4"],
            "need a listener",
        ),
    ];
    for (args, want) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_greensprint"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn bad_arguments_fail_cleanly() {
    let (_, stderr, ok) = run(&["simulate", "--app", "quake"]);
    assert!(!ok);
    assert!(stderr.contains("unknown --app"), "{stderr}");
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"), "{stderr}");
    let (_, stderr, ok) = run(&["trace", "solar", "--days", "1"]);
    assert!(!ok);
    assert!(stderr.contains("--out"), "{stderr}");
}

/// An `Int=k` outside 6..=12 names no profiled setting. Every command
/// that takes `--intensity` refuses it with exit 2 and names the value;
/// none panics, and `serve` no longer quarantines its only rack over it
/// and exits 0.
#[test]
fn out_of_range_intensity_exits_2_naming_the_value() {
    let burst = "burst_intensity_cores must be a core count in 6..=12, got";
    let peak = "peak_intensity_cores must be a core count in 6..=12, got";
    let cases: [(&[&str], &str, u8); 5] = [
        (&["simulate", "--analytic", "--minutes", "5"], burst, 4),
        (&["campaign", "--analytic", "--days", "1"], peak, 20),
        (
            &[
                "sweep",
                "--apps",
                "jbb",
                "--strategies",
                "pacing",
                "--availabilities",
                "med",
            ],
            burst,
            3,
        ),
        (
            &["datacenter", "--racks", "2", "--minutes", "5", "--analytic"],
            burst,
            5,
        ),
        (
            &[
                "serve",
                "--sim-time",
                "--analytic",
                "--control",
                "sim",
                "--minutes",
                "5",
            ],
            burst,
            4,
        ),
    ];
    for (args, want, k) in cases {
        let k = k.to_string();
        let out = Command::new(env!("CARGO_BIN_EXE_greensprint"))
            .args(args)
            .args(["--intensity", &k])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{want} {k}")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// The seeded multi-rack recipe the datacenter CLI tests share.
const DATACENTER: [&str; 8] = [
    "datacenter",
    "--racks",
    "4",
    "--minutes",
    "8",
    "--analytic",
    "--site-seed",
    "9",
];

/// Run `datacenter` with the shared recipe plus `extra` flags; returns
/// stdout, stderr and the exit code.
fn datacenter(extra: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args(DATACENTER)
        .args(extra)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn datacenter_resume_matches_an_uninterrupted_run() {
    let ckpt = std::env::temp_dir().join(format!("gs-cli-dc-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let (golden, stderr, code) = datacenter(&["--jobs", "1"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(
        golden.lines().count(),
        4,
        "one JSON line per rack: {golden}"
    );

    let path = ckpt.to_str().unwrap();
    let (_, stderr, code) =
        datacenter(&["--checkpoint", path, "--snapshot-every", "3", "--jobs", "4"]);
    assert_eq!(code, Some(0), "{stderr}");
    // A second run refuses to clobber the checkpoint.
    let (_, stderr, code) = datacenter(&["--checkpoint", path, "--snapshot-every", "3"]);
    assert_eq!(code, Some(2), "{stderr}");

    let out = Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args([
            "datacenter",
            "--resume",
            path,
            "--snapshot-every",
            "3",
            "--jobs",
            "1",
        ])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("continuing at epoch 6"), "{stderr}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden,
        "resume is not byte-identical to the uninterrupted --jobs 1 run"
    );
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn datacenter_site_plan_targeting_a_missing_rack_exits_2() {
    let plan = std::env::temp_dir().join(format!("gs-cli-dc-plan-{}.json", std::process::id()));
    std::fs::write(
        &plan,
        r#"{"seed":1,"events":[{"at":39600000000,"duration":60000000,"kind":{"RackBlackout":{"rack":9,"epochs":2}}}]}"#,
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args(&DATACENTER[..6])
        .args(["--site-plan", plan.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("rack 9"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_file(&plan);
}

#[test]
fn datacenter_rejects_a_retired_checkpoint_schema() {
    let ckpt = std::env::temp_dir().join(format!("gs-cli-dc-old-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let path = ckpt.to_str().unwrap();
    let (_, stderr, code) = datacenter(&["--checkpoint", path, "--snapshot-every", "3"]);
    assert_eq!(code, Some(0), "{stderr}");
    // Rewrite the checkpoint into the retired `gs-dc-ckpt-1` layout: no
    // schema tag, and the broker state under `broker`.
    let text = std::fs::read_to_string(&ckpt).unwrap();
    let old = text
        .replacen(&format!("\"schema\":\"{SITE_SCHEMA}\","), "", 1)
        .replacen("\"site\":{", "\"broker\":{", 1);
    assert_ne!(old, text, "the checkpoint layout changed under this test");
    std::fs::write(&ckpt, old).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args(["datacenter", "--resume", path])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("schema"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_file(&ckpt);
}
