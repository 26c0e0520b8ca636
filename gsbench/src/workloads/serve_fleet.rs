//! `serve_fleet`: the supervised multi-rack `serve` daemon in sim time,
//! interrupted and resumed, with live TCP ingest and a subscriber.
//!
//! One rep is two legs of `serve`: leg 1 drains a tenth of the way in,
//! leg 2 resumes from its snapshot to the end. Parsing the snapshot
//! costs about 25 ms per drained epoch, so an early drain leaves most of
//! the rep to ticks. Each leg runs with a `NetPlane` on
//! `127.0.0.1:0`, one ingest connection sending frames open-loop at
//! 1000 frames/s, and one subscriber on `SUB ?from_epoch=`. Serve is
//! closed-loop: each tick starts when the previous one finishes. This is
//! the operator path: supervision and restart replay, snapshot writes
//! and reads, heartbeat I/O and net fan-out.

use std::io::{BufRead, BufReader, ErrorKind, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use greensprint::config::AvailabilityLevel;
use greensprint::engine::{Engine, EngineConfig, MeasurementMode};
use greensprint::net::{NetAddrs, NetConfig, NetSummary};
use greensprint::pmk::Strategy;
use greensprint::serve::{
    serve, ControlBackend, DisturbancePlan, OverrunPolicy, ServeArgs, ServeOptions, ServeSnapshot,
    ServeSummary,
};
use gs_sim::{SimDuration, SimRng};
use gs_workload::apps::Application;

use super::{guarded, Rep, Runner};
use crate::digest::digest_lines;
use crate::metrics::Values;
use crate::stats::{lateness_ms, median, percentile};
use crate::trace::Tracer;

/// Racks of the benchmark's daemon.
pub const RACKS: u32 = 4;
/// Epochs (ticks) of one rep.
pub const EPOCHS: u64 = 300;
/// Snapshot cadence in epochs (serve's default).
pub const SNAPSHOT_EVERY: u64 = 10;
/// Open-loop ingest period: 1000 frames/s.
const FRAME_PERIOD: Duration = Duration::from_millis(1);
/// Frames skipped at the start of each leg before tick gaps count: the
/// subscriber may connect a few ticks late and receive those as a burst.
const SKIP_FRAMES: usize = 20;
/// Injected rack-worker panics per rep.
const RACK_PANICS: usize = 2;

/// The serve workload.
pub struct ServeFleet {
    seed: u64,
    racks: u32,
    epochs: u64,
    dir: PathBuf,
    /// Pooled over reps: tick gaps at snapshot epochs and elsewhere, and
    /// the ingest generator's lateness.
    snapshot_gaps_ms: Vec<f64>,
    plain_gaps_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    last: Option<RepDetail>,
}

/// What the per-layer metrics need from the last rep.
struct RepDetail {
    snapshot_text: String,
    resume_s: f64,
    finish_s: f64,
    summary: ServeSummary,
    net: NetSummary,
    frames_sent: u64,
    sub_lines: u64,
}

/// One metrics frame as the subscriber received it.
struct Frame {
    epoch: Option<u64>,
    at: Instant,
    line: String,
}

/// One `serve` call with its net traffic.
struct Leg {
    summary: ServeSummary,
    started: Instant,
    returned: Instant,
    frames: Vec<Frame>,
    sent_at_s: Vec<f64>,
}

impl ServeFleet {
    pub fn new(seed: u64, racks: u32, epochs: u64, dir: &Path) -> Self {
        ServeFleet {
            seed,
            racks,
            epochs,
            dir: dir.to_path_buf(),
            snapshot_gaps_ms: Vec::new(),
            plain_gaps_ms: Vec::new(),
            lateness_ms: Vec::new(),
            last: None,
        }
    }

    fn drain_at(&self) -> u64 {
        self.epochs / 10
    }

    fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    /// The served configuration: Hybrid on RE-Batt racks with the
    /// guardrail on, so `OverrunPolicy::Degrade` can demote.
    fn engine_config(&self) -> EngineConfig {
        guarded(EngineConfig {
            app: Application::SpecJbb,
            strategy: Strategy::Hybrid,
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(self.epochs),
            measurement: MeasurementMode::Analytic,
            seed: self.seed,
            ..EngineConfig::default()
        })
    }

    /// The seeded disturbance plan plus the seeded rack panics.
    pub fn disturbances(&self) -> DisturbancePlan {
        let mut plan = DisturbancePlan::generate(self.seed, self.epochs);
        let mut rng = SimRng::seed_from_u64(self.seed ^ 0x7261_636b);
        plan.rack_panics = (0..RACK_PANICS)
            .map(|_| {
                (
                    rng.index(self.epochs as usize) as u64,
                    rng.index(self.racks as usize) as u32,
                )
            })
            .collect();
        plan.rack_panics.sort_unstable();
        plan
    }

    fn args(&self, drain_after: Option<u64>, resume: bool) -> ServeArgs {
        ServeArgs {
            cfg: self.engine_config(),
            options: ServeOptions {
                overrun: OverrunPolicy::Degrade,
                disturbances: Some(self.disturbances()),
                snapshot_every: SNAPSHOT_EVERY,
                racks: self.racks,
                ..ServeOptions::default()
            },
            sim_time: true,
            metrics_path: Some(self.path("metrics.jsonl")),
            heartbeat_path: Some(self.path("heartbeat.json")),
            snapshot_path: Some(self.path("snapshot.json")),
            control: ControlBackend::Sim,
            resume_path: resume.then(|| self.path("snapshot.json")),
            drain_after_epochs: drain_after,
            ..ServeArgs::default()
        }
    }

    /// One leg with its ingest connection and subscriber; frames expected
    /// are epochs `from..to`.
    fn leg(&self, mut args: ServeArgs, from: u64, to: u64) -> Result<Leg, String> {
        let ready = Arc::new(OnceLock::new());
        args.net = Some(NetConfig {
            listen: Some("127.0.0.1:0".to_string()),
            // The queue holds a whole leg, so a subscriber briefly
            // descheduled on a busy box still sees every frame.
            sub_queue_cap: (to - from) as usize + 1,
            ready: Some(ready.clone()),
            ..NetConfig::default()
        });
        let serve_done = AtomicBool::new(false);
        let leg_done = AtomicBool::new(false);
        let frame_seed = self.seed ^ from;
        std::thread::scope(|s| {
            let sub = s.spawn(|| subscribe(&ready, &serve_done, &leg_done, from, to - 1));
            let ing = s.spawn(|| ingest(&ready, &serve_done, &leg_done, frame_seed));
            let started = Instant::now();
            let result = serve(args);
            let returned = Instant::now();
            serve_done.store(true, Ordering::SeqCst);
            leg_done.store(true, Ordering::SeqCst);
            let frames = sub
                .join()
                .map_err(|_| "subscriber thread panicked".to_string())?;
            let sent_at_s = ing
                .join()
                .map_err(|_| "ingest thread panicked".to_string())?;
            let summary = result.map_err(|e| format!("serve: {e}"))?;
            Ok(Leg {
                summary,
                started,
                returned,
                frames: frames?,
                sent_at_s: sent_at_s?,
            })
        })
    }

    fn snapshot_count(&self) -> u64 {
        let every = |lo: u64, hi: u64| (lo..hi).filter(|k| k % SNAPSHOT_EVERY == 0).count() as u64;
        // Leg 1: boundaries after epoch 0, plus the drain snapshot; leg 2:
        // boundaries after its resume epoch.
        every(1, self.drain_at()) + 1 + every(self.drain_at() + 1, self.epochs)
    }
}

/// Frames out of sequence: missing, duplicated or out-of-order epochs
/// against the expected `from..=last`, and lines without an epoch.
pub fn sequence_faults(epochs: &[Option<u64>], from: u64, last: u64) -> u64 {
    let mut faults = 0;
    let mut next = from;
    for e in epochs {
        match *e {
            Some(e) if e == next => next += 1,
            Some(e) if e > next => {
                faults += e - next;
                next = e + 1;
            }
            _ => faults += 1,
        }
    }
    faults + (last + 1).saturating_sub(next)
}

/// The epoch of a metrics line (`{"epoch":K,...}`), without a JSON parse.
fn line_epoch(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"epoch\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

fn wait_ready(ready: &OnceLock<NetAddrs>, serve_done: &AtomicBool) -> Option<SocketAddr> {
    loop {
        if let Some(a) = ready.get() {
            return a.listen;
        }
        if serve_done.load(Ordering::SeqCst) {
            return None;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Subscribe from epoch `from` and collect frames until the plane closes
/// the stream; flags `leg_done` on seeing epoch `last`.
fn subscribe(
    ready: &OnceLock<NetAddrs>,
    serve_done: &AtomicBool,
    leg_done: &AtomicBool,
    from: u64,
    last: u64,
) -> Result<Vec<Frame>, String> {
    let Some(addr) = wait_ready(ready, serve_done) else {
        return Ok(Vec::new());
    };
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("subscriber connect: {e}"))?;
    stream
        .write_all(format!("SUB ?from_epoch={from}\n").as_bytes())
        .map_err(|e| format!("subscribe: {e}"))?;
    // A read timeout lets the subscriber notice a daemon that returned
    // without closing the stream.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut reader = BufReader::new(stream);
    let mut frames = Vec::new();
    let mut buf = String::new();
    loop {
        match reader.read_line(&mut buf) {
            Ok(0) => break,
            Ok(_) if buf.ends_with('\n') => {
                let at = Instant::now();
                let line = buf.trim_end().to_string();
                buf.clear();
                let epoch = line_epoch(&line);
                if epoch == Some(last) {
                    leg_done.store(true, Ordering::SeqCst);
                }
                frames.push(Frame { epoch, at, line });
            }
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if serve_done.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e) => return Err(format!("subscriber read: {e}")),
        }
    }
    Ok(frames)
}

/// Send seeded supply frames open-loop every [`FRAME_PERIOD`] until the
/// leg is done; returns each frame's send time from the generator start.
fn ingest(
    ready: &OnceLock<NetAddrs>,
    serve_done: &AtomicBool,
    leg_done: &AtomicBool,
    seed: u64,
) -> Result<Vec<f64>, String> {
    let Some(addr) = wait_ready(ready, serve_done) else {
        return Ok(Vec::new());
    };
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("ingest connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut sent_at = Vec::new();
    let t0 = Instant::now();
    while !leg_done.load(Ordering::SeqCst) {
        // Open loop: frame i is due at i periods, whatever the daemon does.
        let due = t0 + FRAME_PERIOD * sent_at.len() as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let frame = format!("{:.3}\n", rng.uniform_range(0.0, 700.0));
        if stream.write_all(frame.as_bytes()).is_err() {
            break;
        }
        sent_at.push(t0.elapsed().as_secs_f64());
    }
    let _ = stream.shutdown(Shutdown::Write);
    Ok(sent_at)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Runner for ServeFleet {
    fn setup_apps(&self) -> (&'static [Application], bool) {
        (&[Application::SpecJbb], true)
    }

    fn rep(&mut self, tracer: &mut Tracer) -> Result<Rep, String> {
        let metrics = self.path("metrics.jsonl");
        let snapshot = self.path("snapshot.json");
        let _ = std::fs::remove_file(&snapshot);
        let drain = self.drain_at();
        let leg1 = tracer.span("serve.leg1", |_| {
            self.leg(self.args(Some(drain), false), 0, drain)
        })?;
        let snapshot_text = std::fs::read_to_string(&snapshot)
            .map_err(|e| format!("leg 1 left no snapshot at {}: {e}", snapshot.display()))?;
        let leg2 = tracer.span("serve.leg2", |_| {
            self.leg(self.args(None, true), drain, self.epochs)
        })?;

        let t = Instant::now();
        let file = std::fs::read_to_string(&metrics)
            .map_err(|e| format!("cannot read {}: {e}", metrics.display()))?;
        let file_lines: Vec<&str> = file.lines().collect();
        let sub_lines: Vec<&str> = leg1
            .frames
            .iter()
            .chain(&leg2.frames)
            .map(|f| f.line.as_str())
            .collect();
        let digests = vec![digest_lines(&file_lines), digest_lines(&sub_lines)];
        let encode_s = t.elapsed().as_secs_f64();

        let mut faults = 0;
        let mut gaps = Vec::new();
        for (leg, from, to) in [(&leg1, 0, drain), (&leg2, drain, self.epochs)] {
            let epochs: Vec<Option<u64>> = leg.frames.iter().map(|f| f.epoch).collect();
            faults += sequence_faults(&epochs, from, to - 1);
            for w in leg.frames.windows(2).skip(SKIP_FRAMES) {
                let gap = ms(w[1].at - w[0].at);
                gaps.push(gap);
                let at_snapshot = w[1]
                    .epoch
                    .is_some_and(|k| k > from && k % SNAPSHOT_EVERY == 0);
                if at_snapshot {
                    self.snapshot_gaps_ms.push(gap);
                } else {
                    self.plain_gaps_ms.push(gap);
                }
            }
            self.lateness_ms
                .extend(lateness_ms(&leg.sent_at_s, FRAME_PERIOD.as_secs_f64()));
        }
        let audit = leg1.summary.audit_violations + leg2.summary.audit_violations;
        let failed = if audit > 0 {
            self.epochs
        } else {
            faults.min(self.epochs)
        };

        let first2 = leg2.frames.first().map_or(leg2.returned, |f| f.at);
        let last2 = leg2.frames.last().map_or(leg2.returned, |f| f.at);
        let mut net = leg1.summary.net.unwrap_or_default();
        let n2 = leg2.summary.net.unwrap_or_default();
        net.frames_received += n2.frames_received;
        net.frames_discarded += n2.frames_discarded;
        net.subscriber_drops += n2.subscriber_drops;
        self.last = Some(RepDetail {
            snapshot_text,
            resume_s: (first2 - leg2.started).as_secs_f64(),
            finish_s: (leg2.returned - last2).as_secs_f64(),
            summary: leg2.summary.clone(),
            net,
            frames_sent: (leg1.sent_at_s.len() + leg2.sent_at_s.len()) as u64,
            sub_lines: sub_lines.len() as u64,
        });
        Ok(Rep {
            wall_s: ((leg1.returned - leg1.started) + (leg2.returned - leg2.started)).as_secs_f64(),
            sim_epochs: u64::from(self.racks) * self.epochs,
            latencies_ms: gaps,
            attempted: self.epochs,
            failed,
            digests,
            encode_s,
            bytes: file.len() as u64,
        })
    }

    /// The metrics stream of one uninterrupted run (no drain, no plane).
    fn reference(&mut self) -> Result<String, String> {
        let metrics = self.path("metrics.jsonl");
        let _ = std::fs::remove_file(self.path("snapshot.json"));
        serve(self.args(None, false)).map_err(|e| format!("serve: {e}"))?;
        let file = std::fs::read_to_string(&metrics)
            .map_err(|e| format!("cannot read {}: {e}", metrics.display()))?;
        Ok(digest_lines(&file.lines().collect::<Vec<_>>()))
    }

    fn layers(
        &mut self,
        _reps: &[Rep],
        tracer: &mut Tracer,
        out: &mut Values,
    ) -> Result<u64, String> {
        let d = self.last.as_ref().ok_or("serve_fleet ran no rep")?;
        let t = Instant::now();
        tracer
            .span("checkpoint.from_json", |_| {
                ServeSnapshot::from_json(&d.snapshot_text)
            })
            .map_err(|e| format!("leg 1 snapshot does not parse: {e}"))?;
        out.set("checkpoint.parse_s", t.elapsed().as_secs_f64());
        out.set("checkpoint.snapshots", self.snapshot_count() as f64);
        out.set("checkpoint.last_bytes", d.snapshot_text.len() as f64);
        out.set("checkpoint.resume_s", d.resume_s);
        out.set("serve.snapshot_tick_p50_ms", median(&self.snapshot_gaps_ms));
        out.set("serve.plain_tick_p50_ms", median(&self.plain_gaps_ms));
        out.set("serve.ticks", d.summary.ticks as f64);
        out.set("serve.overrun_ticks", d.summary.overrun_ticks as f64);
        out.set("serve.stale_epochs", d.summary.stale_epochs as f64);
        out.set("serve.rack_restarts", d.summary.rack_restarts as f64);
        out.set("serve.rerouted_epochs", d.summary.rerouted_epochs as f64);
        out.set("serve.finish_s", d.finish_s);
        out.set("net.frames_sent", d.frames_sent as f64);
        out.set("net.frames_received", d.net.frames_received as f64);
        out.set("net.frames_discarded", d.net.frames_discarded as f64);
        out.set("net.subscriber_drops", d.net.subscriber_drops as f64);
        out.set("net.sub_lines", d.sub_lines as f64);
        out.set("net.ingest_lag_p99_ms", percentile(&self.lateness_ms, 99.0));
        let reached = d.net.frames_received.saturating_sub(d.net.frames_discarded);
        out.set(
            "net.ingest_loss_frac",
            d.frames_sent.saturating_sub(reached) as f64 / d.frames_sent.max(1) as f64,
        );

        // The engine alone: each rack's config run solo (strategy run and
        // Normal baseline), without serve's ticks, I/O or supervision.
        let cfg = self.engine_config();
        let t = Instant::now();
        tracer.span("engine.solo_racks", |_| {
            for r in 0..u64::from(self.racks) {
                let rack = EngineConfig {
                    seed: cfg.seed.wrapping_add(r * 0x9E37_79B9),
                    ..cfg.clone()
                };
                std::hint::black_box(Engine::new(rack).run());
            }
        });
        let busy = t.elapsed().as_secs_f64();
        let engine_epochs = 2 * u64::from(self.racks) * self.epochs;
        out.set("engine.epochs", engine_epochs as f64);
        out.set("engine.busy_s", busy);
        out.set("engine.ns_per_epoch", busy * 1e9 / engine_epochs as f64);
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_faults_count_missing_duplicate_and_reordered_frames() {
        let s = |v: &[u64]| v.iter().map(|&e| Some(e)).collect::<Vec<_>>();
        assert_eq!(sequence_faults(&s(&[3, 4, 5, 6]), 3, 6), 0);
        assert_eq!(sequence_faults(&s(&[3, 5, 6]), 3, 6), 1, "4 missing");
        assert_eq!(sequence_faults(&s(&[3, 4, 4, 5, 6]), 3, 6), 1, "4 twice");
        assert_eq!(
            sequence_faults(&s(&[3, 5, 4, 6]), 3, 6),
            2,
            "4 late: a gap and a stray"
        );
        assert_eq!(sequence_faults(&s(&[3, 4]), 3, 6), 2, "tail missing");
        assert_eq!(
            sequence_faults(&[Some(3), None, Some(4)], 3, 4),
            1,
            "unparsable line"
        );
    }

    #[test]
    fn line_epoch_reads_the_leading_field() {
        assert_eq!(line_epoch("{\"epoch\":1234,\"overrun\":false}"), Some(1234));
        assert_eq!(line_epoch("{\"rack\":1,\"epoch\":3}"), None);
        assert_eq!(line_epoch("garbage"), None);
    }
}
