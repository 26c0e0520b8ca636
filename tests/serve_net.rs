//! End-to-end tests for the serve network plane: a seeded fault storm
//! against a live `--sim-time` run must leave the metrics stream
//! byte-identical to a networking-disabled run (determinism contract),
//! a killed-and-reconnected subscriber must get a gap-free stream via
//! `?from_epoch=`, admin `DRAIN` over TCP must ride the graceful-drain
//! path, real-time ingest frames must actually enter the supply path, and
//! the CLI daemon under a live client must write the bytes of a run with
//! no network.

mod common;

use greensprint_repro::core::net::line_epoch;
use greensprint_repro::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gs-servenet-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
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

/// Block until the plane has bound its listeners and published the
/// real `:0` ports through the `ready` latch.
fn wait_addrs(ready: &Arc<OnceLock<NetAddrs>>) -> NetAddrs {
    let deadline = Instant::now() + Duration::from_secs(15);
    while Instant::now() < deadline {
        if let Some(addrs) = ready.get() {
            return *addrs;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("the network plane never published its addresses");
}

fn listen_addr(ready: &Arc<OnceLock<NetAddrs>>) -> SocketAddr {
    wait_addrs(ready).listen.expect("ingest listener bound")
}

/// The acceptance bar from the issue: a seeded `NetFaultPlan` storm
/// (mid-frame drops, stalls, oversized frames, reconnect storms, an
/// accept burst past `max_conns`, a killed subscriber, a bad admin
/// token) against a `--sim-time` run completes with no panic, zero
/// audit violations, every net counter exercised — and the metrics
/// stream byte-identical to the same run with networking disabled.
/// A reconnecting subscriber asking `?from_epoch=0` then reads the
/// whole stream gap-free across the file/ring/live replay segments.
#[test]
fn net_fault_storm_keeps_the_stream_byte_identical_and_counters_honest() {
    const EPOCHS: u64 = 360;
    let dir = tmp_dir("storm");
    let base = dir.join("base.jsonl");
    let netm = dir.join("net.jsonl");

    let mut baseline = sim_args(serve_cfg(EPOCHS), 3);
    baseline.metrics_path = Some(base.clone());
    let want = serve(baseline).expect("baseline serve");
    assert_eq!(want.epochs_executed, EPOCHS);
    assert!(want.net.is_none(), "no listener => no net summary");

    // One op of every kind; pin the timing-sensitive ones so the storm
    // reliably crosses the plane's thresholds (stall > read timeout,
    // burst > max_conns) without stretching past the run.
    let mut plan = NetFaultPlan::generate(7, 0, 128, 200);
    for op in &mut plan.ops {
        match op {
            NetFaultOp::StallWriter { ms } => *ms = 320,
            NetFaultOp::AcceptBurst { conns } => *conns = 12,
            NetFaultOp::KillSubscriber { after_lines } => *after_lines = 2,
            _ => {}
        }
    }

    let ready: Arc<OnceLock<NetAddrs>> = Arc::new(OnceLock::new());
    let harness = {
        let ready = ready.clone();
        let plan = plan.clone();
        std::thread::spawn(move || {
            let addrs = wait_addrs(&ready);
            let ingest = addrs.listen.expect("ingest listener");
            let metrics = addrs.metrics.expect("metrics listener");
            let rep = run_fault_plan(ingest, &plan);
            // The gap-free reconnect: a fresh subscriber on the
            // metrics-only listener replays from epoch 0 and rides the
            // live stream to the graceful end-of-run flush.
            let lines = subscribe_collect(metrics, Some(0), Duration::from_secs(5))
                .expect("reconnect subscriber");
            (rep, lines)
        })
    };

    let mut stormy = sim_args(serve_cfg(EPOCHS), 3);
    stormy.metrics_path = Some(netm.clone());
    // Pacing only (never enters the stream): keeps the run alive long
    // enough for the storm and the reconnecting subscriber.
    stormy.throttle_ms = 20;
    stormy.net = Some(NetConfig {
        listen: Some("127.0.0.1:0".to_string()),
        metrics_listen: Some("127.0.0.1:0".to_string()),
        admin_token: Some("storm-secret".to_string()),
        max_conns: 6,
        conn_timeout_ms: 200,
        max_line_len: 128,
        ready: Some(ready.clone()),
        ..NetConfig::default()
    });
    let got = serve(stormy).expect("the storm must not error the daemon");
    let (rep, lines) = harness.join().expect("harness thread");

    assert_eq!(got.epochs_executed, EPOCHS, "the daemon ran the window out");
    assert_eq!(got.audit_violations, 0, "invariant auditor stayed clean");
    assert_eq!(rep.ops_run, plan.ops.len(), "every storm op executed");

    // Determinism contract: the network storm left the stream bytes
    // untouched.
    let want_bytes = std::fs::read(&base).unwrap();
    let got_bytes = std::fs::read(&netm).unwrap();
    assert!(!want_bytes.is_empty());
    assert_eq!(
        want_bytes, got_bytes,
        "a network fault storm changed the --sim-time metrics bytes"
    );

    // Every robustness counter was exercised by the storm.
    let net = got.net.expect("net summary present with listeners");
    assert!(net.conns_accepted > 0, "{net:?}");
    assert!(net.frames_received > 0, "valid frames landed: {net:?}");
    assert!(
        net.malformed_frames > 0,
        "corrupt/oversized counted: {net:?}"
    );
    assert!(
        net.conns_timed_out > 0,
        "the stalled writer timed out: {net:?}"
    );
    assert!(net.conns_dropped > 0, "the accept burst was shed: {net:?}");
    assert!(net.auth_rejects > 0, "the bad token was refused: {net:?}");
    assert!(net.subscribers >= 2, "killed + reconnected: {net:?}");
    assert!(
        net.subscriber_drops > 0,
        "the killed subscriber dropped lines: {net:?}"
    );
    assert_eq!(
        net.drain_requests, 0,
        "a bad token must never drain: {net:?}"
    );

    // Gap-free replay: epoch 0 through the final epoch, contiguous.
    let epochs: Vec<u64> = lines
        .iter()
        .map(|l| line_epoch(l).unwrap_or_else(|| panic!("line without epoch: {l}")))
        .collect();
    assert!(!epochs.is_empty(), "the reconnect subscriber saw nothing");
    assert_eq!(epochs[0], 0, "?from_epoch=0 must replay from the start");
    assert_eq!(
        *epochs.last().unwrap(),
        EPOCHS - 1,
        "subscriber missed the tail"
    );
    for w in epochs.windows(2) {
        assert_eq!(w[1], w[0] + 1, "gap in the replayed stream: {w:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `DRAIN <token>` over TCP latches the same graceful-drain path as
/// SIGTERM: the run stops at an epoch boundary with `drained: true`.
#[test]
fn admin_drain_over_tcp_stops_the_run_at_an_epoch_boundary() {
    let ready: Arc<OnceLock<NetAddrs>> = Arc::new(OnceLock::new());
    let harness = {
        let ready = ready.clone();
        std::thread::spawn(move || {
            let addr = listen_addr(&ready);
            let t = Duration::from_secs(2);
            // Wait for the first executed epoch to show in STATUS, so
            // the drain provably lands mid-run.
            let deadline = Instant::now() + Duration::from_secs(15);
            loop {
                if let Ok(status) = admin_request(addr, "STATUS drain-secret", t) {
                    assert!(status.starts_with('{'), "{status}");
                    assert!(status.contains("greensprint-serve"), "{status}");
                    if line_epoch(&status).is_some() {
                        break;
                    }
                }
                assert!(Instant::now() < deadline, "no epoch ever reached STATUS");
                std::thread::sleep(Duration::from_millis(20));
            }
            assert_eq!(
                admin_request(addr, "DRAIN wrong-secret", t).unwrap(),
                "err unauthorized"
            );
            assert_eq!(
                admin_request(addr, "DRAIN drain-secret", t).unwrap(),
                "ok drain"
            );
        })
    };

    let mut args = sim_args(serve_cfg(5000), 3);
    args.throttle_ms = 10;
    args.net = Some(NetConfig {
        listen: Some("127.0.0.1:0".to_string()),
        admin_token: Some("drain-secret".to_string()),
        ready: Some(ready.clone()),
        ..NetConfig::default()
    });
    let summary = serve(args).expect("drained serve");
    harness.join().expect("harness thread");

    assert!(summary.drained, "DRAIN must stop the run gracefully");
    assert!(summary.epochs_executed > 0);
    assert!(summary.epochs_executed < 5000, "drain landed mid-run");
    let net = summary.net.expect("net summary");
    assert_eq!(net.drain_requests, 1);
    assert_eq!(net.auth_rejects, 1);
    assert_eq!(summary.audit_violations, 0);
}

/// In real time (no `--sim-time`) a socket frame is live telemetry: the
/// reading replaces the trace-derived supply for the epoch it lands in,
/// exactly like a `--feed` line.
#[test]
fn real_time_net_frames_enter_the_supply_path() {
    let dir = tmp_dir("rt");
    let metrics = dir.join("m.jsonl");
    let ready: Arc<OnceLock<NetAddrs>> = Arc::new(OnceLock::new());
    let harness = {
        let ready = ready.clone();
        std::thread::spawn(move || {
            use std::io::Write as _;
            let addr = listen_addr(&ready);
            let mut s = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(5))
                .expect("connect");
            // Keep fresh readings flowing for the whole (short) window;
            // a write error just means the run finished first.
            for _ in 0..120 {
                if writeln!(s, "321.5").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        })
    };

    let summary = serve(ServeArgs {
        cfg: serve_cfg(4),
        sim_time: false,
        rate: 240.0, // 60 sim-seconds per epoch -> 250 ms wall per epoch
        metrics_path: Some(metrics.clone()),
        control: ControlBackend::Sim,
        net: Some(NetConfig {
            listen: Some("127.0.0.1:0".to_string()),
            ready: Some(ready.clone()),
            ..NetConfig::default()
        }),
        ..ServeArgs::default()
    })
    .expect("real-time serve");
    harness.join().expect("harness thread");

    assert_eq!(summary.epochs_executed, 4);
    let net = summary.net.expect("net summary");
    assert!(net.frames_received > 0, "{net:?}");
    assert_eq!(summary.stale_epochs, 0, "frames every 25 ms never go stale");
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        text.contains("\"re_supply_w\":321.5"),
        "the live reading never reached the supply path:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The first counter `name` in a pretty-printed serve summary.
fn summary_count(summary: &str, name: &str) -> u64 {
    let tail = summary
        .split(&format!("\"{name}\": "))
        .nth(1)
        .unwrap_or_else(|| panic!("summary has no {name}: {summary}"));
    tail.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{name} is not a count: {summary}"))
}

/// The CLI daemon under a live client: a throttled `--sim-time` serve
/// listening on an ephemeral port has a subscriber read three lines and
/// vanish, takes 20 ingest frames (every 5th malformed) and answers
/// `STATUS`; its metrics file is byte-identical to a run with no
/// network, and its summary counts the drop, the frames and the junk.
#[test]
fn the_cli_daemon_under_a_live_client_writes_the_no_network_bytes() {
    let dir = tmp_dir("cli-client");
    let golden = dir.join("golden.jsonl");
    let net = dir.join("net.jsonl");
    let base = [
        "serve",
        "--sim-time",
        "--analytic",
        "--minutes",
        "60",
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
        .args(["--metrics", golden.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("no-network run");
    assert!(status.success());

    // Throttled pacing keeps the run alive for the client; the throttle
    // never enters the metrics bytes.
    let (child, addr) = common::spawn_listening(
        Command::new(env!("CARGO_BIN_EXE_greensprint"))
            .args(base)
            .args(["--metrics", net.to_str().unwrap()])
            .args(["--listen", "127.0.0.1:0", "--admin-token", "smoke-secret"])
            .args(["--throttle-ms", "50"])
            .stdout(Stdio::piped()),
    );
    let t = Duration::from_secs(5);

    // Subscribe, read a few lines, then vanish mid-stream: the daemon
    // must charge `subscriber_drops`, never stall or crash.
    let mut sub = TcpStream::connect_timeout(&addr, t).expect("subscriber connects");
    sub.set_read_timeout(Some(t)).unwrap();
    sub.write_all(b"SUB\n").unwrap();
    let mut lines = BufReader::new(sub);
    for _ in 0..3 {
        let mut line = String::new();
        let read = lines.read_line(&mut line).expect("a metrics line");
        assert!(read > 0, "the subscriber starved before it vanished");
    }
    drop(lines);

    // Telemetry at the ingest role, valid frames interleaved with junk:
    // counted by the plane, discarded by the sim-time serve loop, so the
    // metrics bytes cannot move.
    let mut ingest = TcpStream::connect_timeout(&addr, t).expect("ingest connects");
    for k in 0..20 {
        let frame = if k % 5 == 4 {
            "garbage\n".to_string()
        } else {
            format!("{}.0\n", 200 + k)
        };
        ingest.write_all(frame.as_bytes()).unwrap();
    }
    drop(ingest);

    let reply = admin_request(addr, "STATUS smoke-secret", t).expect("status reply");
    assert!(reply.contains("greensprint-serve"), "{reply}");

    let out = child.wait_with_output().expect("the daemon exits");
    assert!(out.status.success(), "the daemon failed");
    let summary = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        std::fs::read(&golden).unwrap(),
        std::fs::read(&net).unwrap(),
        "a live client changed the metrics bytes"
    );
    for counter in ["subscriber_drops", "frames_received", "malformed_frames"] {
        assert!(
            summary_count(&summary, counter) >= 1,
            "{counter}: {summary}"
        );
    }
    assert_eq!(summary_count(&summary, "audit_violations"), 0, "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}
