//! `greensprint serve`: the epoch loop as a crash-tolerant rack
//! controller daemon.
//!
//! The batch engine answers "what would the controller have done"; serve
//! answers "do it, now, and survive the real world doing it". The same
//! [`crate::engine`] loop runs tick-by-tick against a clock — one
//! supervised worker thread per rack, `--racks 1` included, on the
//! [`crate::broker`] rack driver that `datacenter` uses too; serve plugs
//! its site tick into that driver as its site hooks — with:
//!
//! * **Live telemetry** — trace replay at a configurable real-time rate,
//!   plus an optional line-delimited supply feed (file or stdin) whose
//!   readings override the trace. A feed that goes quiet routes into the
//!   existing PSS safe mode via a staleness timeout instead of blocking.
//! * **Deadline budgets** — each tick has an explicit overrun policy:
//!   `skip` logs the overrun in the metrics stream and carries on;
//!   `degrade` additionally demotes one rung down the PR-4 failover
//!   ladder (the controller trades policy sophistication for headroom).
//! * **Hardened actuation** — per-server settings are applied through
//!   the [`gs_cluster::control`] retry layer: transient I/O errors back
//!   off deterministically and bounded; a server that keeps failing is
//!   clamped to Normal by a serve-level watchdog. Nothing panics the
//!   control loop.
//! * **Backpressured metrics** — one JSON line per epoch through a
//!   bounded drop-oldest buffer with a drop counter; a stalled sink
//!   never blocks the control path.
//! * **Liveness + restart** — a heartbeat file for external supervisors,
//!   a graceful SIGTERM drain that writes a final snapshot, and
//!   crash-restart (`--resume`) from the last [`ServeSnapshot`] with
//!   zero warmup.
//!
//! `--sim-time` runs the *identical* code path at full speed with no
//! wall-clock input anywhere in the stream: overruns, staleness, sink
//! stalls, and actuation failures come only from a seeded
//! [`DisturbancePlan`], so an interrupted-then-resumed serve emits a
//! metrics stream byte-identical to an uninterrupted run. The metrics
//! buffer is flushed before every snapshot write, which is the whole
//! restart guarantee: every epoch the snapshot believes executed is
//! already durable in the metrics file, so resume emission can start
//! exactly one line after the last durable one.

use std::collections::VecDeque;
use std::fs;
use std::io::{BufRead, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gs_cluster::control::{
    apply_with_retry, FlakyControl, RetryPolicy, ServerControl, SimControl, SysfsControl,
};
use gs_cluster::ServerSetting;
use gs_sim::{SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::broker::{run_site, DirectiveRow, RackReport, SiteHooks, SiteRun};
use crate::datacenter::{DatacenterConfig, RackSpec};
use crate::engine::{BurstOutcome, EngineConfig, EpochRecord, MeasurementMode, TickDirective};
use crate::net::{
    parse_frame, NetConfig, NetPlane, NetShared, NetSummary, RackStat, DEFAULT_MAX_LINE_LEN,
};
use crate::supervisor::{RackHealth, RackSupervisor};

/// Serve-level watchdog: consecutive actuation failures on one server
/// before serve stops commanding sprint settings to it.
const CLAMP_AFTER_FAILURES: u32 = 3;

/// Tick watchdog: a tick that exceeds this multiple of its deadline
/// budget is a *stall* (a wedged feed reader or actuation backend), not
/// a mere overrun — counted separately and demoted one ladder rung.
const WATCHDOG_FACTOR: u32 = 4;

/// What to do when a tick overruns its deadline budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverrunPolicy {
    /// Log the overrun in the metrics stream and carry on.
    Skip,
    /// Log it *and* demote one rung down the failover ladder — requires
    /// the guardrail.
    Degrade,
}

/// A seeded, serializable schedule of real-world misbehavior, replayed
/// deterministically so `--sim-time` runs exercise every robustness path
/// without a wall clock. All epoch lists are sorted and deduplicated.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct DisturbancePlan {
    /// Generator seed (`0` for hand-written plans; provenance only).
    pub seed: u64,
    /// Epochs whose telemetry feed is declared stale.
    pub stale: Vec<u64>,
    /// Epochs whose tick overruns its deadline budget.
    pub overruns: Vec<u64>,
    /// Epochs where the metrics sink stalls (lines stay buffered).
    pub stalls: Vec<u64>,
    /// `(epoch, failures)`: injected transient actuation failures per
    /// server on that epoch.
    pub actuation: Vec<(u64, u32)>,
    /// `(epoch, rack)`: panic that rack's worker thread at the top of
    /// that epoch.
    pub rack_panics: Vec<(u64, u32)>,
    /// `(epoch, rack)`: wedge that rack's worker thread at the top of
    /// that epoch. Serve cannot un-wedge a thread, so a stall is
    /// surfaced the same way as a panic (the worker dies) but counted
    /// separately.
    pub rack_stalls: Vec<(u64, u32)>,
    /// Epochs whose site tick is wedged past the watchdog threshold
    /// (deterministic stand-in for a real-time tick exceeding
    /// `WATCHDOG_FACTOR`× its deadline budget).
    pub wedges: Vec<u64>,
}

impl DisturbancePlan {
    /// Generate a plan over `n_epochs` epochs. Pure function of the
    /// arguments: the same seed always yields the same plan.
    pub fn generate(seed: u64, n_epochs: u64) -> Self {
        if n_epochs == 0 {
            return DisturbancePlan {
                seed,
                ..DisturbancePlan::default()
            };
        }
        let mut rng = SimRng::seed_from_u64(seed ^ 0x7365_7276_6521); // "serve!"
        let pick = |rng: &mut SimRng, count: usize| -> Vec<u64> {
            let mut v: Vec<u64> = (0..count)
                .map(|_| rng.index(n_epochs as usize) as u64)
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let budget = (n_epochs as usize / 8).max(1);
        let n_stale = 1 + rng.index(budget);
        let stale = pick(&mut rng, n_stale);
        let n_over = 1 + rng.index(budget);
        let overruns = pick(&mut rng, n_over);
        let n_stall = 1 + rng.index(budget);
        let stalls = pick(&mut rng, n_stall);
        let n_act = 1 + rng.index(budget);
        let actuation = pick(&mut rng, n_act)
            .into_iter()
            .map(|k| {
                let fails = 1 + rng.index(2) as u32;
                (k, fails)
            })
            .collect();
        // Rack-fault fields stay empty here: generating them would spend
        // extra RNG draws and silently shift every existing golden
        // stream keyed to a seed. Multi-rack fault tests write them
        // explicitly.
        DisturbancePlan {
            seed,
            stale,
            overruns,
            stalls,
            actuation,
            ..DisturbancePlan::default()
        }
    }

    fn is_stale(&self, k: u64) -> bool {
        self.stale.binary_search(&k).is_ok()
    }
    fn is_overrun(&self, k: u64) -> bool {
        self.overruns.binary_search(&k).is_ok()
    }
    fn is_stalled(&self, k: u64) -> bool {
        self.stalls.binary_search(&k).is_ok()
    }
    fn actuation_failures(&self, k: u64) -> u32 {
        self.actuation
            .iter()
            .find(|&&(e, _)| e == k)
            .map_or(0, |&(_, f)| f)
    }
    // The rack-fault lists may be hand-written (and so unsorted): scan,
    // don't binary-search.
    fn rack_panic_at(&self, k: u64, rack: u32) -> bool {
        self.rack_panics.iter().any(|&(e, r)| e == k && r == rack)
    }
    fn rack_stall_at(&self, k: u64, rack: u32) -> bool {
        self.rack_stalls.iter().any(|&(e, r)| e == k && r == rack)
    }
    fn is_wedged(&self, k: u64) -> bool {
        self.wedges.contains(&k)
    }
}

/// The deterministic, snapshot-persisted half of serve's configuration:
/// everything that shapes the *content* of the metrics stream. Runtime
/// pacing (rate, throttle, tick budget) and file paths live in
/// [`ServeArgs`] instead — they may differ between an interrupted run
/// and its resume without breaking byte-identity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct ServeOptions {
    /// Deadline-overrun policy.
    pub overrun: OverrunPolicy,
    /// Feed-silence epochs before telemetry is declared stale.
    pub stale_after_epochs: u32,
    /// Seeded misbehavior schedule (None = clean run).
    pub disturbances: Option<DisturbancePlan>,
    /// Metrics buffer capacity in lines (drop-oldest beyond it).
    pub metrics_buffer: usize,
    /// Snapshot every N epochs (0 = only the drain snapshot). Per-rack
    /// [`ExperimentState`](crate::checkpoint::ExperimentState) captures
    /// and whole-daemon snapshots share this cadence so every checkpoint
    /// is mutually consistent.
    pub snapshot_every: u64,
    /// Bounded retries per actuation failure.
    pub control_retries: u32,
    /// Max accepted telemetry line length in bytes; longer feed frames
    /// count as malformed (the network plane enforces its own copy of
    /// this cap at the socket layer).
    pub max_line_len: usize,
    /// Racks served by this daemon (at least 1). Each rack's epoch loop
    /// runs on a supervised worker thread, with the conserved-routing
    /// broker math between them.
    pub racks: u32,
    /// Restarts allowed per rack worker before it is quarantined and its
    /// load rerouted to the survivors.
    pub rack_restarts: u32,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            overrun: OverrunPolicy::Skip,
            stale_after_epochs: 3,
            disturbances: None,
            metrics_buffer: 1024,
            snapshot_every: 10,
            control_retries: 2,
            max_line_len: DEFAULT_MAX_LINE_LEN,
            racks: 1,
            rack_restarts: 2,
        }
    }
}

/// Serve's own mutable state alongside the racks'
/// [`ExperimentState`](crate::checkpoint::ExperimentState)s —
/// snapshotted with them so counters and the feed cursor survive a
/// crash.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct ServeSideState {
    /// Ticks driven (== epochs entered, across resumes).
    pub ticks: u64,
    /// Ticks that overran their deadline budget.
    pub overrun_ticks: u64,
    /// Epochs the driver declared telemetry-stale.
    pub stale_epochs: u64,
    /// Metrics lines dropped to backpressure.
    pub dropped_metrics_lines: u64,
    /// Actuation retries consumed (across all servers).
    pub actuation_retries: u64,
    /// Actuation attempts that exhausted their retries.
    pub actuation_failures: u64,
    /// Epoch-server pairs clamped to Normal by the serve watchdog.
    pub control_clamped: u64,
    /// Next unread feed line (sim-time file feeds).
    pub feed_cursor: u64,
    /// Malformed feed lines skipped.
    pub feed_malformed: u64,
    /// Consecutive epochs without a fresh feed sample.
    pub feed_stale_streak: u32,
    /// Last good feed reading, held while the streak is short.
    pub last_feed_w: Option<f64>,
    /// Per-server consecutive actuation-failure streaks.
    pub fail_streaks: Vec<u32>,
    /// Ticks the watchdog judged wedged (>= `WATCHDOG_FACTOR`× the
    /// deadline budget, or plan-scheduled in sim time).
    pub watchdog_stalls: u64,
}

/// A serve checkpoint is the rack driver's one
/// [`SiteSnapshot`](crate::broker::SiteSnapshot): every rack's engine
/// state, the broker's state, and — serve only — the daemon's options and
/// its own counters, enough to restart with no flags beyond `--resume`.
pub use crate::broker::SiteSnapshot as ServeSnapshot;

/// Which control plane the applied settings are mirrored onto.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlBackend {
    /// No mirroring (pure simulation).
    None,
    /// In-memory [`SimControl`] per server.
    Sim,
    /// Sysfs-format trees under `root/server<i>/` (created if missing).
    Sysfs(PathBuf),
}

/// Everything the CLI hands to [`serve`]. Paths and pacing are runtime
/// knobs; [`ServeArgs::options`] is the deterministic half.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// The engine configuration (measurement is forced to Analytic).
    pub cfg: EngineConfig,
    /// Deterministic serve options (ignored on resume — the snapshot's
    /// embedded options win).
    pub options: ServeOptions,
    /// Full-speed deterministic mode (no wall clock in the stream).
    pub sim_time: bool,
    /// Sim-seconds per wall-second in real-time mode.
    pub rate: f64,
    /// Extra sleep per tick in milliseconds (pacing only — lets tests
    /// SIGKILL a `--sim-time` run mid-flight; never enters the stream).
    pub throttle_ms: u64,
    /// Tick deadline budget in wall milliseconds (real-time mode only;
    /// in sim-time, overruns come only from the disturbance plan).
    pub tick_budget_ms: Option<u64>,
    /// JSON-lines metrics stream (appended; `None` = discard).
    pub metrics_path: Option<PathBuf>,
    /// Heartbeat file rewritten atomically each tick.
    pub heartbeat_path: Option<PathBuf>,
    /// Snapshot file rewritten atomically every `snapshot_every` epochs
    /// and on drain.
    pub snapshot_path: Option<PathBuf>,
    /// Line-delimited supply feed (`Some("-")` = stdin).
    pub feed_path: Option<PathBuf>,
    /// Control plane to mirror applied settings onto.
    pub control: ControlBackend,
    /// Resume from this [`ServeSnapshot`] file.
    pub resume_path: Option<PathBuf>,
    /// Stop gracefully after this many executed epochs (this run).
    pub drain_after_epochs: Option<u64>,
    /// TCP network plane (`None` = no listeners). Runtime-only: network
    /// activity never shapes the `--sim-time` metrics stream.
    pub net: Option<NetConfig>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            cfg: EngineConfig::default(),
            options: ServeOptions::default(),
            sim_time: true,
            rate: 1.0,
            throttle_ms: 0,
            tick_budget_ms: None,
            metrics_path: None,
            heartbeat_path: None,
            snapshot_path: None,
            feed_path: None,
            control: ControlBackend::None,
            resume_path: None,
            drain_after_epochs: None,
            net: None,
        }
    }
}

/// Why serve could not run (or finish).
#[derive(Debug)]
pub enum ServeError {
    /// Invalid configuration or flag combination.
    Config(String),
    /// A snapshot that failed to load or verify.
    Snapshot(String),
    /// An I/O failure on a serve-owned file.
    Io(std::io::Error),
    /// The rack driver could not finish the run.
    Rack(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(s) => write!(f, "serve config error: {s}"),
            ServeError::Snapshot(s) => write!(f, "serve snapshot error: {s}"),
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
            ServeError::Rack(s) => write!(f, "serve rack error: {s}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// The end-of-run report printed by the CLI (stdout, never the metrics
/// stream).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServeSummary {
    /// Epochs executed across the run's whole life (resumes included).
    pub epochs_executed: u64,
    /// Epoch the run resumed from (`None` for a fresh start).
    pub resumed_from_epoch: Option<u64>,
    /// True if the run stopped at a drain boundary instead of finishing.
    pub drained: bool,
    /// Ticks driven.
    pub ticks: u64,
    /// Deadline overruns.
    pub overrun_ticks: u64,
    /// Driver-declared stale-telemetry epochs.
    pub stale_epochs: u64,
    /// Engine safe-mode epochs (driver-declared staleness lands here).
    pub safe_mode_epochs: usize,
    /// Metrics lines dropped to backpressure.
    pub dropped_metrics_lines: u64,
    /// Actuation retries consumed.
    pub actuation_retries: u64,
    /// Actuation attempts that exhausted their retries.
    pub actuation_failures: u64,
    /// Serve-watchdog clamps to Normal.
    pub control_clamped: u64,
    /// Malformed feed lines skipped.
    pub feed_malformed: u64,
    /// Runtime invariant-audit violations (must be zero).
    pub audit_violations: usize,
    /// Peak failover-ladder level reached.
    pub ladder_level: usize,
    /// Guardrail event log.
    pub guardrail_events: Vec<String>,
    /// Normal-floor judgment over the full window (`None` when drained
    /// early — the truncated window has no comparable baseline).
    pub floor_held: Option<bool>,
    /// Mean goodput over executed epochs (rps per server).
    pub mean_goodput_rps: f64,
    /// Ticks the watchdog judged wedged.
    pub watchdog_stalls: u64,
    /// Racks this daemon served.
    pub racks: u32,
    /// Rack-worker restarts performed.
    pub rack_restarts: u64,
    /// Rack-worker deaths classified as panics.
    pub rack_panics: u64,
    /// Rack-worker deaths classified as stalls.
    pub rack_stalls: u64,
    /// Racks quarantined after restart exhaustion.
    pub racks_quarantined: u64,
    /// Epochs in which load was actively rerouted around a dead rack.
    pub rerouted_epochs: u64,
    /// Final per-rack health ladder positions.
    pub rack_health: Vec<RackHealth>,
    /// Supervision event log (restarts, quarantines, re-admissions).
    pub rack_events: Vec<String>,
    /// Network-plane counters (`None` when no listener was configured).
    pub net: Option<NetSummary>,
}

/// SIGTERM latch. Registering a handler that only stores an atomic is
/// async-signal-safe; the loop polls it at each epoch boundary.
static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_sigterm(_signum: i32) {
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// Atomic file replace: write to a sibling tmp, fsync, rename. The tmp
/// name carries the pid so two daemons pointed at the same path can
/// never interleave halves of each other's writes; a reader (watchdog,
/// subscriber replay) sees either the old file or the new one, whole.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// One metrics line: the epoch record plus serve's per-epoch robustness
/// annotations. Every field derives from the epoch index, the engine
/// record, and the disturbance plan — never from a wall clock — so the
/// line bytes are identical across interrupted and uninterrupted runs.
#[derive(Serialize)]
struct MetricsLine {
    epoch: u64,
    overrun: bool,
    stale: bool,
    retries: u64,
    failures: u64,
    clamped: u64,
    record: EpochRecord,
}

/// Bounded drop-oldest metrics buffer over an append-only file.
struct MetricsSink {
    path: Option<PathBuf>,
    buf: VecDeque<String>,
    cap: usize,
}

impl MetricsSink {
    fn new(path: Option<PathBuf>, cap: usize) -> Self {
        MetricsSink {
            path,
            buf: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueue a line; returns how many old lines were dropped to make
    /// room. Never blocks, never errors.
    fn push(&mut self, line: String) -> u64 {
        let mut dropped = 0;
        while self.buf.len() >= self.cap {
            self.buf.pop_front();
            dropped += 1;
        }
        self.buf.push_back(line);
        dropped
    }

    /// Append every buffered line to the file. A write error leaves the
    /// unwritten tail buffered for the next attempt — the control path
    /// never sees it.
    fn drain(&mut self) -> bool {
        let Some(path) = &self.path else {
            self.buf.clear();
            return true;
        };
        if self.buf.is_empty() {
            return true;
        }
        let Ok(mut f) = fs::OpenOptions::new().create(true).append(true).open(path) else {
            return false;
        };
        while let Some(line) = self.buf.front() {
            if writeln!(f, "{line}").is_err() {
                return false;
            }
            self.buf.pop_front();
        }
        f.sync_all().is_ok()
    }
}

/// The telemetry feed: pre-read lines in sim-time (deterministic cursor),
/// a reader thread in real time.
enum FeedSource {
    /// All lines up front; `ServeSideState::feed_cursor` indexes it.
    Preloaded(Vec<String>),
    /// Live channel drained non-blockingly each tick.
    Live(mpsc::Receiver<String>),
}

fn open_feed(path: &Path, sim_time: bool) -> Result<FeedSource, ServeError> {
    let is_stdin = path.as_os_str() == "-";
    if sim_time {
        let text = if is_stdin {
            let mut s = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut s)?;
            s
        } else {
            fs::read_to_string(path)?
        };
        Ok(FeedSource::Preloaded(
            text.lines().map(str::to_string).collect(),
        ))
    } else {
        let (tx, rx) = mpsc::channel();
        if is_stdin {
            std::thread::spawn(move || {
                let stdin = std::io::stdin();
                for line in stdin.lock().lines().map_while(Result::ok) {
                    if tx.send(line).is_err() {
                        break;
                    }
                }
            });
        } else {
            let file = fs::File::open(path)?;
            std::thread::spawn(move || {
                let reader = std::io::BufReader::new(file);
                for line in reader.lines().map_while(Result::ok) {
                    if tx.send(line).is_err() {
                        break;
                    }
                }
            });
        }
        Ok(FeedSource::Live(rx))
    }
}

/// A control backend per server, wrapped for deterministic fault
/// injection.
enum AnyControl {
    Sim(SimControl),
    Sysfs(SysfsControl),
}

impl ServerControl for AnyControl {
    fn apply(&mut self, setting: ServerSetting) -> Result<(), gs_cluster::ControlError> {
        match self {
            AnyControl::Sim(c) => c.apply(setting),
            AnyControl::Sysfs(c) => c.apply(setting),
        }
    }
    fn read(&self) -> Result<ServerSetting, gs_cluster::ControlError> {
        match self {
            AnyControl::Sim(c) => c.read(),
            AnyControl::Sysfs(c) => c.read(),
        }
    }
}

/// The serve driver's handle on a running network plane: the shared
/// state for publish/drain/counters, plus the bounded ingest channel.
struct NetHandle {
    shared: Arc<NetShared>,
    rx: mpsc::Receiver<f64>,
}

/// Serve's site hooks on the rack driver, run once per epoch for the
/// whole site: telemetry, deadline accounting, admin requests, fault
/// injection, actuation, metrics, heartbeat and snapshot files, pacing.
struct ServeDriver {
    opts: ServeOptions,
    /// The served rack's configuration (every rack runs a copy).
    cfg: EngineConfig,
    sim_time: bool,
    rate: f64,
    throttle: Duration,
    tick_budget: Option<Duration>,
    /// Wall-clock start of the tick in flight (real time only).
    tick_started: Option<Instant>,
    /// Demotion owed by the last tick's measured overrun or stall: its
    /// epoch had already executed when the clock caught it.
    late_demote: Option<String>,
    feed: Option<FeedSource>,
    net: Option<NetHandle>,
    /// The running network plane, stopped once the loop ends.
    net_plane: Option<NetPlane>,
    /// The stopped plane's counters.
    net_summary: Option<NetSummary>,
    metrics: MetricsSink,
    heartbeat_path: Option<PathBuf>,
    snapshot_path: Option<PathBuf>,
    controls: Vec<FlakyControl<AnyControl>>,
    side: ServeSideState,
    /// Suppress metrics emission for epochs below this (already durable
    /// from the interrupted run).
    emit_from: u64,
    /// The epoch this process started at (0, or the resume epoch).
    start_k: u64,
    /// Drain after this many epochs of this process.
    drain_after: Option<u64>,
    /// Stale/overrun annotation for the epoch in flight (the tick
    /// decides, the metrics line records).
    cur_stale: bool,
    cur_overrun: bool,
}

impl ServeDriver {
    /// Drain the network ingest channel. In sim-time the frames were
    /// already validated and counted by the plane but may not shape the
    /// deterministic stream, so the freshest reading is discarded here;
    /// in real time it outranks the file feed (a socket sensor is the
    /// more live source).
    fn poll_net_sample(&mut self) -> Option<f64> {
        let net = self.net.as_ref()?;
        let mut fresh: Option<f64> = None;
        while let Ok(w) = net.rx.try_recv() {
            fresh = Some(w);
        }
        if self.sim_time {
            None
        } else {
            fresh
        }
    }

    /// Drain the `--feed` source: one line per tick from a preloaded
    /// file (deterministic cursor), everything pending from a live
    /// reader. Oversized and unparseable lines count as malformed.
    fn poll_feed_sample(&mut self) -> Option<f64> {
        let feed = self.feed.as_mut()?;
        let cap = self.opts.max_line_len;
        let mut fresh: Option<f64> = None;
        match feed {
            FeedSource::Preloaded(lines) => {
                if let Some(line) = lines.get(self.side.feed_cursor as usize) {
                    self.side.feed_cursor += 1;
                    match (line.len() <= cap).then(|| parse_frame(line)).flatten() {
                        Some(w) => fresh = Some(w),
                        None => self.side.feed_malformed += 1,
                    }
                }
            }
            FeedSource::Live(rx) => {
                // Drain everything pending; the newest reading wins.
                while let Ok(line) = rx.try_recv() {
                    self.side.feed_cursor += 1;
                    match (line.len() <= cap).then(|| parse_frame(&line)).flatten() {
                        Some(w) => fresh = Some(w),
                        None => self.side.feed_malformed += 1,
                    }
                }
            }
        }
        fresh
    }

    /// True when any telemetry source can go stale: a feed, or the
    /// network ingest in real time (sim-time network frames are counted
    /// but deliberately outside the stream).
    fn live_telemetry(&self) -> bool {
        self.feed.is_some() || (self.net.is_some() && !self.sim_time)
    }

    fn take_telemetry_sample(&mut self) -> Option<f64> {
        let net_fresh = self.poll_net_sample();
        let feed_fresh = self.poll_feed_sample();
        if !self.live_telemetry() {
            return None;
        }
        match net_fresh.or(feed_fresh) {
            Some(w) => {
                self.side.feed_stale_streak = 0;
                self.side.last_feed_w = Some(w);
                Some(w)
            }
            None => {
                self.side.feed_stale_streak = self.side.feed_stale_streak.saturating_add(1);
                // Short silences serve the held reading (a delayed
                // sensor, not a dead one); past the threshold the
                // directive declares staleness instead.
                if self.side.feed_stale_streak < self.opts.stale_after_epochs {
                    self.side.last_feed_w
                } else {
                    None
                }
            }
        }
    }

    fn telemetry_is_stale(&self) -> bool {
        self.live_telemetry() && self.side.feed_stale_streak >= self.opts.stale_after_epochs
    }

    fn write_heartbeat(&self, k: u64, t: SimTime) {
        let Some(path) = &self.heartbeat_path else {
            return;
        };
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        // The heartbeat carries the network counters so a watchdog sees
        // plane health without opening a socket of its own.
        let net_part = self
            .net
            .as_ref()
            .and_then(|n| serde_json::to_string(&n.shared.summary()).ok())
            .map_or(String::new(), |j| format!(",\"net\":{j}"));
        let line = format!(
            "{{\"epoch\":{k},\"sim_time_s\":{:.3},\"ticks\":{},\"wall_unix_ms\":{unix_ms}{net_part}}}\n",
            t.as_secs_f64(),
            self.side.ticks
        );
        // Liveness is advisory: a failed heartbeat write must not take
        // down the control loop it is supposed to vouch for.
        let _ = write_atomic(path, &line);
    }

    fn actuate(&mut self, k: u64, settings: &[ServerSetting]) {
        if self.controls.is_empty() {
            return;
        }
        let injected = self
            .opts
            .disturbances
            .as_ref()
            .map_or(0, |p| p.actuation_failures(k));
        let policy = RetryPolicy::with_retries(self.opts.control_retries);
        let real_time = !self.sim_time;
        for (i, control) in self.controls.iter_mut().enumerate() {
            if injected > 0 {
                control.fail_applies(injected, std::io::ErrorKind::Interrupted);
            }
            let clamped = self
                .side
                .fail_streaks
                .get(i)
                .is_some_and(|&s| s >= CLAMP_AFTER_FAILURES);
            let want = if clamped {
                ServerSetting::normal()
            } else {
                settings
                    .get(i)
                    .copied()
                    .unwrap_or_else(ServerSetting::normal)
            };
            if clamped {
                self.side.control_clamped += 1;
            }
            let mut sleeper = |ms: u64| {
                if real_time {
                    std::thread::sleep(Duration::from_millis(ms));
                }
            };
            match apply_with_retry(control, want, policy, &mut sleeper) {
                Ok(retries) => {
                    self.side.actuation_retries += u64::from(retries);
                    if let Some(s) = self.side.fail_streaks.get_mut(i) {
                        *s = 0;
                    }
                }
                Err(_) => {
                    // Bounded failure: count it, advance the watchdog
                    // streak, and keep the loop alive. The engine's own
                    // actuation watchdog handles the modelled side.
                    self.side.actuation_retries += u64::from(policy.max_retries);
                    self.side.actuation_failures += 1;
                    if let Some(s) = self.side.fail_streaks.get_mut(i) {
                        *s = s.saturating_add(1);
                    }
                }
            }
        }
    }

    /// Real-time deadline check on the tick's own work — boundary
    /// snapshot, telemetry, the racks' epoch and actuation — taken before
    /// its metrics line is built and before any throttle or rate sleep, so
    /// the late tick's own line carries the flag. The epoch has already
    /// executed, so the demotion lands on the next tick. A tick the
    /// disturbance plan already flagged keeps the plan's verdict.
    fn check_tick_budget(&mut self) {
        let (Some(budget), Some(started)) = (self.tick_budget, self.tick_started) else {
            return;
        };
        let work = started.elapsed();
        if self.cur_overrun || work <= budget {
            return;
        }
        self.cur_overrun = true;
        self.side.overrun_ticks += 1;
        let stalled = work > budget.saturating_mul(WATCHDOG_FACTOR);
        if stalled {
            self.side.watchdog_stalls += 1;
        }
        self.late_demote = self.demotion(stalled, true);
    }

    /// The ladder demotion a slow tick earns. A stall demotes even under
    /// `--overrun skip`: a tick that sat at WATCHDOG_FACTOR× its budget is
    /// evidence the control path itself is unhealthy, not just late. With
    /// the guardrail off the engine ignores the demotion (the counters
    /// still record it).
    fn demotion(&self, stalled: bool, overrun: bool) -> Option<String> {
        if stalled {
            Some(format!(
                "watchdog stall: tick exceeded {WATCHDOG_FACTOR}x its deadline budget"
            ))
        } else if overrun && self.opts.overrun == OverrunPolicy::Degrade {
            Some("tick deadline overrun".to_string())
        } else {
            None
        }
    }

    /// One site tick: plan-driven deadline/watchdog accounting, telemetry
    /// sampling, staleness, heartbeat — once per epoch for the whole site.
    fn tick_directive(&mut self, k: u64, t: SimTime) -> TickDirective {
        self.side.ticks += 1;
        // Plan-driven overruns stand in for a slow tick so the sim-time
        // stream stays deterministic; real time also measures the tick's
        // own work in `check_tick_budget`. A wedge is a stall, not a mere
        // overrun — counted separately and always worth a ladder rung.
        let plan = self.opts.disturbances.as_ref();
        let wedged = plan.is_some_and(|p| p.is_wedged(k));
        let overrun = wedged || plan.is_some_and(|p| p.is_overrun(k));
        if wedged {
            self.side.watchdog_stalls += 1;
        }
        self.cur_overrun = overrun;
        if overrun {
            self.side.overrun_ticks += 1;
        }

        let supply_w = self.take_telemetry_sample();
        let plan_stale = self
            .opts
            .disturbances
            .as_ref()
            .is_some_and(|p| p.is_stale(k));
        let stale = plan_stale || self.telemetry_is_stale();
        self.cur_stale = stale;
        if stale {
            self.side.stale_epochs += 1;
        }

        self.write_heartbeat(k, t);

        let demote = self
            .demotion(wedged, overrun)
            .or_else(|| self.late_demote.take());
        TickDirective {
            supply_w: if stale { None } else { supply_w },
            telemetry_stale: stale,
            demote,
            load_factor: None,
        }
    }

    /// Serialize and emit one epoch's aggregate metrics line — TCP
    /// fan-out plus the durable sink — honoring the resume emission gate
    /// and plan-scheduled sink stalls.
    fn emit_record(
        &mut self,
        k: u64,
        rec: &EpochRecord,
        retries: u64,
        failures: u64,
        clamped: u64,
    ) {
        if k < self.emit_from {
            return;
        }
        let line = MetricsLine {
            epoch: k,
            overrun: self.cur_overrun,
            stale: self.cur_stale,
            retries,
            failures,
            clamped,
            record: *rec,
        };
        match serde_json::to_string(&line) {
            Ok(json) => {
                // Fan the identical bytes out to TCP subscribers;
                // publish never blocks (drop-oldest per subscriber).
                if let Some(net) = &self.net {
                    net.shared.publish(k, json.clone());
                }
                self.side.dropped_metrics_lines += self.metrics.push(json);
            }
            // A line that cannot serialize is a dropped line, not a
            // dead control loop.
            Err(_) => self.side.dropped_metrics_lines += 1,
        }
        let stalled = self
            .opts
            .disturbances
            .as_ref()
            .is_some_and(|p| p.is_stalled(k));
        if !stalled {
            self.metrics.drain();
        }
    }
}

/// Trim a metrics file to its last complete line (a SIGKILL can land
/// mid-write) and return the last durable epoch index, if any.
fn prepare_metrics_for_resume(path: &Path) -> Result<Option<u64>, ServeError> {
    let Ok(text) = fs::read_to_string(path) else {
        return Ok(None); // no file yet — nothing durable
    };
    let complete = match text.rfind('\n') {
        Some(pos) => &text[..=pos],
        None => "",
    };
    if complete.len() != text.len() {
        fs::write(path, complete)?;
    }
    let last_epoch = complete
        .lines()
        .rfind(|l| !l.trim().is_empty())
        .and_then(|l| serde_json::from_str::<serde_json::Value>(l).ok())
        .and_then(|v| {
            v.get("epoch")
                .and_then(|e| e.as_number())
                .and_then(|n| n.as_u64())
        });
    Ok(last_epoch)
}

// ---------------------------------------------------------------------------
// The site hooks: serve's per-epoch work around the rack driver
// (`crate::broker::run_site`), which owns the rack workers, routing,
// supervision and the directive log.
// ---------------------------------------------------------------------------

impl SiteHooks for ServeDriver {
    /// The durable metrics stream holds the per-epoch history, and the
    /// summary reads only each rack's scalars.
    fn keeps_history(&self) -> bool {
        false
    }

    fn restart_budget(&self) -> Option<u32> {
        Some(self.opts.rack_restarts)
    }

    fn begin_tick(&mut self) {
        // The tick's wall clock (real time only) covers its boundary
        // snapshot, site tick, racks and actuation.
        if !self.sim_time {
            self.tick_started = Some(Instant::now());
        }
    }

    fn tick(&mut self, k: u64, t: SimTime) -> TickDirective {
        self.tick_directive(k, t)
    }

    fn admin_requests(&mut self) -> (Vec<u32>, Vec<u32>) {
        self.net
            .as_ref()
            .map_or((Vec::new(), Vec::new()), |n| n.shared.take_rack_requests())
    }

    fn inject(&self, k: u64, rack: usize) -> Option<String> {
        let plan = self.opts.disturbances.as_ref()?;
        if plan.rack_stall_at(k, rack as u32) {
            Some(format!("injected rack stall at epoch {k}"))
        } else if plan.rack_panic_at(k, rack as u32) {
            Some(format!("injected rack panic at epoch {k}"))
        } else {
            None
        }
    }

    fn drain_at(&mut self, k: u64) -> bool {
        TERM_REQUESTED.load(Ordering::SeqCst)
            || self
                .net
                .as_ref()
                .is_some_and(|n| n.shared.drain_requested())
            || self.drain_after.is_some_and(|d| k - self.start_k + 1 >= d)
    }

    fn settled(
        &mut self,
        k: u64,
        reports: &[Option<RackReport>],
        sup: &RackSupervisor,
        row: &DirectiveRow,
    ) {
        // Actuate the site's concatenated settings, emit the aggregate
        // line, then the per-rack topic lines (hub/ring only).
        let n_servers = self.cfg.green.green_servers;
        let mut all_settings: Vec<ServerSetting> = Vec::with_capacity(reports.len() * n_servers);
        for rep in reports {
            let settings = rep.as_ref().map_or(&[][..], |(_, s)| s.as_slice());
            all_settings.extend(settings.iter().copied());
            let missing = n_servers.saturating_sub(settings.len());
            all_settings.extend(std::iter::repeat_n(ServerSetting::normal(), missing));
        }
        let retries_before = self.side.actuation_retries;
        let failures_before = self.side.actuation_failures;
        let clamped_before = self.side.control_clamped;
        self.actuate(k, &all_settings);
        self.check_tick_budget();
        if let Some(agg) = aggregate_reports(reports) {
            self.emit_record(
                k,
                &agg,
                self.side.actuation_retries - retries_before,
                self.side.actuation_failures - failures_before,
                self.side.control_clamped - clamped_before,
            );
            if k >= self.emit_from {
                if let Some(net) = &self.net {
                    for (r, rep) in reports.iter().enumerate() {
                        if let Some((rec, _)) = rep {
                            if let Some(json) = rack_metrics_line(r, k, rec) {
                                net.shared.publish(k, json);
                            }
                        }
                    }
                }
            }
        }

        // Live rack-health mirror for the admin STATUS verb (runtime
        // observability only — never enters the deterministic stream).
        if let Some(net) = &self.net {
            net.shared.set_rack_status(
                (0..reports.len())
                    .map(|r| RackStat {
                        rack: r as u32,
                        health: sup.health[r].to_string(),
                        restarts: sup.restarts_used[r],
                        factor: row.applied[r],
                    })
                    .collect(),
            );
        }
    }

    /// Flush-before-snapshot: every epoch the snapshot believes executed
    /// must already be durable in the metrics file, or a crash right after
    /// the write would leave a gap no resume can fill. A stalled sink
    /// therefore skips the snapshot too.
    fn snapshot_due(&mut self) -> bool {
        self.metrics.drain() && self.snapshot_path.is_some()
    }

    fn on_snapshot(&mut self, mut snap: ServeSnapshot) {
        let Some(path) = &self.snapshot_path else {
            return;
        };
        snap.options = Some(self.opts.clone());
        snap.serve = Some(self.side.clone());
        if let Ok(text) = snap.to_json() {
            let _ = write_atomic(path, &text);
        }
    }

    fn pace(&mut self) {
        if !self.throttle.is_zero() {
            std::thread::sleep(self.throttle);
        }
        // Real-time replay: one epoch of sim time per (epoch / rate) of
        // wall time, measured from the tick's start.
        if let Some(started) = self.tick_started {
            let target =
                Duration::from_secs_f64(self.cfg.epoch.as_secs_f64()).div_f64(self.rate.max(1e-9));
            if let Some(rest) = target.checked_sub(started.elapsed()) {
                std::thread::sleep(rest);
            }
        }
    }

    fn finish(&mut self) {
        // Whatever the loop left buffered goes out now; then stop the
        // plane, so subscribers get every emitted line flushed before the
        // FIN.
        self.metrics.drain();
        self.net_summary = self.net_plane.take().map(NetPlane::stop);
    }
}

/// Render one per-rack metrics line for the TCP fan-out (the `?rack=N`
/// topic), never written to the durable aggregate file. The `rack` key
/// leads so every line starts `{"rack":N,` — the subscriber-side topic
/// filter is a prefix match on these bytes.
fn rack_metrics_line(rack: usize, epoch: u64, rec: &EpochRecord) -> Option<String> {
    let record = serde_json::to_string(rec).ok()?;
    Some(format!(
        "{{\"rack\":{rack},\"epoch\":{epoch},\"record\":{record}}}"
    ))
}

/// Sum the per-rack records into the site aggregate line (SoC is
/// averaged). Every field derives from the rack records alone, so the
/// aggregate is byte-identical whenever the per-rack records are.
/// `None` when no rack reported (all quarantined).
fn aggregate_reports(reports: &[Option<RackReport>]) -> Option<EpochRecord> {
    let mut it = reports.iter().flatten();
    let (first, _) = it.next()?;
    let mut agg = *first;
    let mut n = 1u32;
    for (rec, _) in it {
        agg.re_supply_w += rec.re_supply_w;
        agg.re_used_w += rec.re_used_w;
        agg.battery_w += rec.battery_w;
        agg.demand_w += rec.demand_w;
        agg.battery_soc += rec.battery_soc;
        agg.offered_rps += rec.offered_rps;
        agg.goodput_rps += rec.goodput_rps;
        agg.sprinting_servers = agg.sprinting_servers.saturating_add(rec.sprinting_servers);
        agg.live_servers = agg.live_servers.saturating_add(rec.live_servers);
        agg.safe_mode |= rec.safe_mode;
        agg.ladder_level = agg.ladder_level.max(rec.ladder_level);
        n += 1;
    }
    agg.battery_soc /= f64::from(n);
    Some(agg)
}

/// The homogeneous site `serve` runs: `racks` copies of the served rack,
/// with no site fault plan. The rack driver derives each rack's seed (rack
/// 0 keeps the served one) and replicates the served fault plan.
fn site_config(cfg: &EngineConfig, racks: u32) -> DatacenterConfig {
    DatacenterConfig {
        racks: (0..racks)
            .map(|_| RackSpec {
                app: cfg.app,
                green: cfg.green.clone(),
                strategy: cfg.strategy,
            })
            .collect(),
        template: cfg.clone(),
        site_fault_plan: None,
    }
}

/// Run the serve daemon to completion (or drain). See the module docs
/// for the architecture; the CLI wraps this with flag parsing and exit
/// codes.
pub fn serve(mut args: ServeArgs) -> Result<ServeSummary, ServeError> {
    // The snapshot layer requires analytic measurement; serve inherits
    // the constraint (and documents it) rather than offering a mode that
    // cannot restart.
    args.cfg.measurement = MeasurementMode::Analytic;
    args.cfg
        .validate()
        .map_err(|e| ServeError::Config(e.to_string()))?;

    // Resume: the snapshot's embedded site and options win wholesale; it
    // carries the per-rack states plus the broker state.
    let mut resume = None;
    let mut side = ServeSideState::default();
    let mut resumed_site = None;
    if let Some(path) = &args.resume_path {
        let text = fs::read_to_string(path)
            .map_err(|e| ServeError::Snapshot(format!("cannot read {}: {e}", path.display())))?;
        let snap = ServeSnapshot::from_json(&text).map_err(ServeError::Snapshot)?;
        let (Some(options), Some(serve_side)) = (snap.options, snap.serve) else {
            return Err(ServeError::Snapshot(format!(
                "{} is a datacenter snapshot; resume it with `greensprint datacenter --resume`",
                path.display()
            )));
        };
        args.cfg = snap.cfg.template.clone();
        args.options = options;
        side = serve_side;
        resume = Some((snap.site, snap.racks));
        resumed_site = Some(snap.cfg);
    }
    let resumed_from = resume.as_ref().map(|(st, _)| st.next_epoch);
    if args.options.overrun == OverrunPolicy::Degrade && !args.cfg.guardrail.enabled {
        return Err(ServeError::Config(
            "--overrun degrade needs the failover ladder: pass --guardrail on".to_string(),
        ));
    }
    if args.options.racks == 0 {
        return Err(ServeError::Config("--racks must be at least 1".to_string()));
    }
    let n_racks = args.options.racks as usize;
    if n_racks >= 2 && matches!(args.control, ControlBackend::Sysfs(_)) {
        return Err(ServeError::Config(
            "--control sysfs drives one physical rack; it cannot serve --racks >= 2".to_string(),
        ));
    }
    let site = match resumed_site {
        Some(site) => site,
        None => {
            let site = site_config(&args.cfg, args.options.racks);
            site.validate().map_err(ServeError::Config)?;
            site
        }
    };

    // Actuation covers the site's concatenated settings.
    let n = args.cfg.green.green_servers * n_racks;
    args.cfg
        .burst_duration
        .div_duration(args.cfg.epoch)
        .ok_or_else(|| ServeError::Config("burst duration must be whole epochs".to_string()))?;

    // Durable-metrics reconciliation: emission restarts one line after
    // the last complete line already on disk. The flush-before-snapshot
    // invariant guarantees last_epoch >= next_epoch - 1; anything less
    // means the file was tampered with — warn, then emit the gap's
    // epochs fresh (they are recomputed identically anyway).
    let mut emit_from = 0u64;
    if resumed_from.is_none() {
        // A fresh start owns its metrics file: stale lines from an
        // earlier run would corrupt the byte-identity contract.
        if let Some(path) = &args.metrics_path {
            if path.exists() {
                fs::write(path, "")?;
            }
        }
    } else {
        if let Some(path) = &args.metrics_path {
            if let Some(last) = prepare_metrics_for_resume(path)? {
                emit_from = last + 1;
            }
        }
        let next = resumed_from.unwrap_or(0);
        if emit_from < next {
            eprintln!(
                "serve: warning: metrics file ends at epoch {} but snapshot resumes at {} — \
                 re-emitting the missing lines",
                emit_from as i64 - 1,
                next
            );
        }
    }

    let feed = match &args.feed_path {
        Some(p) => Some(open_feed(p, args.sim_time)?),
        None => None,
    };

    // The network plane starts after the fresh-start metrics truncation
    // above, so `?from_epoch=` replay can never serve a stale run's
    // lines. Telemetry frames flow through a bounded channel; overflow
    // is counted by the plane, never blocking a sender or the loop.
    let mut net_plane: Option<NetPlane> = None;
    let mut net_handle: Option<NetHandle> = None;
    if let Some(netcfg) = &args.net {
        netcfg.validate().map_err(ServeError::Config)?;
        let (tx, rx) = mpsc::sync_channel(1024);
        let plane = NetPlane::start(netcfg, tx, args.metrics_path.clone())?;
        if let Some(a) = plane.addrs.listen {
            eprintln!("serve: listening on {a}");
        }
        if let Some(a) = plane.addrs.metrics {
            eprintln!("serve: metrics listener on {a}");
        }
        net_handle = Some(NetHandle {
            shared: plane.shared(),
            rx,
        });
        net_plane = Some(plane);
    }

    let controls: Vec<FlakyControl<AnyControl>> = match &args.control {
        ControlBackend::None => Vec::new(),
        ControlBackend::Sim => (0..n)
            .map(|_| FlakyControl::new(AnyControl::Sim(SimControl::new())))
            .collect(),
        ControlBackend::Sysfs(root) => (0..n)
            .map(|i| {
                let dir = root.join(format!("server{i}"));
                let c = if dir.join("cpu0").exists() {
                    SysfsControl::new(&dir)
                } else {
                    SysfsControl::create_fake_tree(&dir)?
                };
                Ok(FlakyControl::new(AnyControl::Sysfs(c)))
            })
            .collect::<Result<_, std::io::Error>>()?,
    };
    if side.fail_streaks.len() != n {
        side.fail_streaks = vec![0; n];
    }

    install_sigterm_handler();
    TERM_REQUESTED.store(false, Ordering::SeqCst);

    let mut driver = ServeDriver {
        cfg: args.cfg.clone(),
        sim_time: args.sim_time,
        rate: args.rate,
        throttle: Duration::from_millis(args.throttle_ms),
        tick_budget: args.tick_budget_ms.map(Duration::from_millis),
        tick_started: None,
        late_demote: None,
        feed,
        net: net_handle,
        net_plane,
        net_summary: None,
        metrics: MetricsSink::new(args.metrics_path.clone(), args.options.metrics_buffer),
        heartbeat_path: args.heartbeat_path.clone(),
        snapshot_path: args.snapshot_path.clone(),
        controls,
        emit_from,
        start_k: resumed_from.unwrap_or(0),
        drain_after: args.drain_after_epochs,
        cur_stale: false,
        cur_overrun: false,
        opts: args.options.clone(),
        side,
    };
    // One pool participant per core, at most one per rack: a helper
    // beyond the cores only waits for a core of its own.
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let run = run_site(
        &site,
        jobs.min(n_racks),
        args.options.snapshot_every,
        resume,
        &mut driver,
    )
    .map_err(ServeError::Rack)?;
    Ok(summarize(run, &driver, resumed_from))
}

/// The end-of-run report from the rack driver's result and serve's own
/// counters.
fn summarize(run: SiteRun, driver: &ServeDriver, resumed_from: Option<u64>) -> ServeSummary {
    let SiteRun { st, racks, drained } = run;
    let per_rack: Vec<(usize, BurstOutcome)> = racks
        .into_iter()
        .enumerate()
        .filter_map(|(r, o)| o.map(|o| (r, o)))
        .collect();
    // A drained run's truncated window has no comparable baseline.
    let floor_held =
        (!drained && !per_rack.is_empty()).then(|| per_rack.iter().all(|(_, o)| o.floor_held));
    let audit_violations = st.site_audit_violations.len()
        + per_rack
            .iter()
            .map(|(_, o)| o.audit_violations.len())
            .sum::<usize>();
    let mut guardrail_events = Vec::new();
    for (r, o) in &per_rack {
        guardrail_events.extend(o.guardrail_events.iter().map(|e| format!("rack {r}: {e}")));
    }
    let mean_goodput_rps = if per_rack.is_empty() {
        0.0
    } else {
        per_rack
            .iter()
            .map(|(_, o)| o.mean_goodput_rps)
            .sum::<f64>()
            / per_rack.len() as f64
    };
    let side = &driver.side;
    ServeSummary {
        epochs_executed: st.next_epoch,
        resumed_from_epoch: resumed_from,
        drained,
        ticks: side.ticks,
        overrun_ticks: side.overrun_ticks,
        stale_epochs: side.stale_epochs,
        safe_mode_epochs: per_rack
            .iter()
            .map(|(_, o)| o.safe_mode_epochs)
            .max()
            .unwrap_or(0),
        dropped_metrics_lines: side.dropped_metrics_lines,
        actuation_retries: side.actuation_retries,
        actuation_failures: side.actuation_failures,
        control_clamped: side.control_clamped,
        feed_malformed: side.feed_malformed,
        audit_violations,
        ladder_level: per_rack
            .iter()
            .map(|(_, o)| o.ladder_level)
            .max()
            .unwrap_or(0),
        guardrail_events,
        floor_held,
        mean_goodput_rps,
        watchdog_stalls: side.watchdog_stalls,
        racks: driver.opts.racks,
        rack_restarts: st.rack_restarts,
        rack_panics: st.rack_panics,
        rack_stalls: st.rack_stalls,
        racks_quarantined: st.racks_quarantined,
        rerouted_epochs: st.rerouted_epochs as u64,
        rack_health: st.health,
        rack_events: st.events,
        net: driver.net_summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::SITE_SCHEMA;

    #[test]
    fn disturbance_plan_is_a_pure_function_of_seed() {
        let a = DisturbancePlan::generate(42, 100);
        let b = DisturbancePlan::generate(42, 100);
        assert_eq!(a, b);
        let c = DisturbancePlan::generate(43, 100);
        assert_ne!(a, c, "different seeds should differ");
        // Lists come back sorted + deduplicated so binary_search lookups hold.
        for list in [&a.stale, &a.overruns, &a.stalls] {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "{list:?}");
            assert!(list.iter().all(|&k| k < 100));
        }
        // Every category is non-empty: a generated plan always exercises
        // each robustness path at least once.
        assert!(!a.stale.is_empty() && !a.overruns.is_empty());
        assert!(!a.stalls.is_empty() && !a.actuation.is_empty());
    }

    #[test]
    fn disturbance_plan_survives_a_json_roundtrip() {
        let plan = DisturbancePlan::generate(7, 30);
        let json = serde_json::to_string(&plan).unwrap();
        let back: DisturbancePlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn metrics_sink_drops_oldest_and_counts() {
        let mut sink = MetricsSink::new(None, 3);
        assert_eq!(sink.push("a".into()), 0);
        assert_eq!(sink.push("b".into()), 0);
        assert_eq!(sink.push("c".into()), 0);
        assert_eq!(sink.push("d".into()), 1, "capacity 3: the oldest goes");
        assert_eq!(
            sink.buf.iter().cloned().collect::<Vec<_>>(),
            vec!["b", "c", "d"],
            "drop-oldest keeps the newest lines"
        );
    }

    #[test]
    fn metrics_sink_unwritable_path_keeps_lines_buffered() {
        let dir = std::env::temp_dir().join("gs_serve_sink_test_dir");
        let _ = fs::create_dir_all(&dir);
        // The path is a directory: open-for-append fails, drain reports
        // the stall, and nothing is lost from the buffer.
        let mut sink = MetricsSink::new(Some(dir.clone()), 8);
        sink.push("line".into());
        assert!(!sink.drain());
        assert_eq!(sink.buf.len(), 1, "failed drain must not discard");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_writes_never_expose_a_torn_file() {
        let dir = std::env::temp_dir().join("gs_serve_atomic_test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("heartbeat.json");
        // Two payloads of very different lengths: a torn write would
        // show a prefix of the long one or a mix of both.
        let short = "{\"epoch\":1}\n".to_string();
        let long = format!("{{\"epoch\":2,\"pad\":\"{}\"}}\n", "x".repeat(4096));
        write_atomic(&path, &short).unwrap();
        let writer = {
            let (path, short, long) = (path.clone(), short.clone(), long.clone());
            std::thread::spawn(move || {
                for i in 0..200 {
                    let payload = if i % 2 == 0 { &long } else { &short };
                    write_atomic(&path, payload).unwrap();
                }
            })
        };
        let mut reads = 0u32;
        while !writer.is_finished() {
            let text = fs::read_to_string(&path).unwrap();
            assert!(
                text == short || text == long,
                "torn heartbeat observed ({} bytes)",
                text.len()
            );
            reads += 1;
        }
        writer.join().unwrap();
        assert!(reads > 0, "the reader must actually race the writer");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_trims_a_torn_metrics_tail() {
        let path = std::env::temp_dir().join("gs_serve_trim_test.jsonl");
        fs::write(
            &path,
            "{\"epoch\":0,\"x\":1}\n{\"epoch\":1,\"x\":2}\n{\"epoch\":2,\"x\"",
        )
        .unwrap();
        let last = prepare_metrics_for_resume(&path).unwrap();
        assert_eq!(last, Some(1), "the torn line does not count");
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.ends_with("{\"epoch\":1,\"x\":2}\n"), "{text:?}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_of_a_missing_metrics_file_is_a_fresh_stream() {
        let path = std::env::temp_dir().join("gs_serve_no_such_file.jsonl");
        let _ = fs::remove_file(&path);
        assert_eq!(prepare_metrics_for_resume(&path).unwrap(), None);
    }

    /// A drained serve's snapshot text, for `racks` racks after `epochs`.
    fn drained_snapshot(dir: &Path, racks: u32, epochs: u64) -> String {
        let _ = fs::create_dir_all(dir);
        let snap_path = dir.join("snap.json");
        let _ = fs::remove_file(&snap_path);
        let args = ServeArgs {
            options: ServeOptions {
                racks,
                ..ServeOptions::default()
            },
            snapshot_path: Some(snap_path.clone()),
            drain_after_epochs: Some(epochs),
            ..ServeArgs::default()
        };
        let summary = serve(args).expect("drain serve runs");
        assert!(summary.drained);
        fs::read_to_string(&snap_path).unwrap()
    }

    /// The error `serve --resume` fails with on a snapshot file holding
    /// `json`.
    fn resume_error(dir: &Path, json: &str) -> ServeError {
        let path = dir.join("resume.json");
        fs::write(&path, json).unwrap();
        match serve(ServeArgs {
            resume_path: Some(path),
            ..ServeArgs::default()
        }) {
            Ok(s) => panic!("resumed from a bad snapshot: {s:?}"),
            Err(e) => e,
        }
    }

    #[test]
    fn serve_snapshot_rejects_schema_and_fingerprint_drift() {
        let dir = std::env::temp_dir().join("gs_serve_snaptest");
        let json = drained_snapshot(&dir, 1, 1);
        let snap = ServeSnapshot::from_json(&json).expect("a real snapshot verifies");
        assert_eq!(snap.schema, SITE_SCHEMA);
        assert_eq!(snap.site.next_epoch, 1);
        assert_eq!(snap.racks.len(), 1);
        assert_eq!(
            snap.racks[0]
                .as_ref()
                .expect("rack 0 state")
                .main
                .next_epoch,
            1
        );

        // Every retired schema is rejected like any other.
        for schema in [
            "gs-serve-0",
            "gs-serve-1",
            "gs-serve-2",
            "gs-dc-ckpt-1",
            "gs-site-1",
            "gs-site-2",
            "gs-site-3",
        ] {
            let bad_schema = json.replacen(SITE_SCHEMA, schema, 1);
            assert!(
                matches!(resume_error(&dir, &bad_schema), ServeError::Snapshot(_)),
                "{schema} accepted"
            );
        }

        let mut tampered = snap.clone();
        tampered.fingerprint = "0000000000000000".to_string();
        let tampered_json = tampered.to_json().unwrap();
        assert!(matches!(
            resume_error(&dir, &tampered_json),
            ServeError::Snapshot(_)
        ));

        // A datacenter snapshot of the same site is not a serve snapshot.
        let mut batch = None;
        crate::broker::run_datacenter_with_snapshots(&snap.cfg, 1, 1, &mut |s| {
            batch.get_or_insert_with(|| s.clone());
        })
        .expect("the served site runs as a datacenter");
        let batch_json = batch.expect("a boundary snapshot").to_json().unwrap();
        assert!(ServeSnapshot::from_json(&batch_json).is_ok());
        assert!(matches!(
            resume_error(&dir, &batch_json),
            ServeError::Snapshot(m) if m.contains("datacenter")
        ));
        // Nor is a serve snapshot stripped of its daemon state: a
        // datacenter's racks keep the history serve's do not.
        let mut stripped = snap;
        stripped.options = None;
        stripped.serve = None;
        assert!(ServeSnapshot::from_json(&stripped.to_json().unwrap())
            .is_err_and(|m| m.contains("epoch records")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_every_truncated_per_rack_vector() {
        let dir = std::env::temp_dir().join("gs_serve_truncated");
        let good = ServeSnapshot::from_json(&drained_snapshot(&dir, 2, 3)).unwrap();
        type Cut = fn(&mut ServeSnapshot);
        fn rack1(s: &mut ServeSnapshot) -> &mut crate::checkpoint::LoopState {
            &mut s.racks[1].as_mut().expect("rack 1 is live").main
        }
        let cuts: [(&str, Cut); 20] = [
            ("racks", |s| {
                s.racks.pop();
            }),
            ("beliefs", |s| {
                s.site.beliefs.pop();
            }),
            ("pinned", |s| {
                s.site.pinned.pop();
            }),
            ("link_probation", |s| {
                s.site.link_probation.pop();
            }),
            ("health", |s| {
                s.site.health.pop();
            }),
            ("restarts_used", |s| s.site.restarts_used.clear()),
            ("probation_left", |s| {
                s.site.probation_left.pop();
            }),
            ("partition_epochs", |s| {
                s.site.partition_epochs.pop();
            }),
            ("degraded_epochs", |s| {
                s.site.degraded_epochs.pop();
            }),
            ("rows", |s| {
                s.site.rows.pop();
            }),
            ("options.racks", |s| {
                if let Some(o) = s.options.as_mut() {
                    o.racks = 3;
                }
            }),
            // Inside a rack's loop state.
            ("rack prev_settings", |s| {
                rack1(s).prev_settings.pop();
            }),
            ("rack batteries", |s| {
                rack1(s).batteries.pop();
            }),
            ("rack grid_recharging", |s| {
                rack1(s).grid_recharging.pop();
            }),
            ("rack down_left", |s| {
                rack1(s).down_left.pop();
            }),
            ("rack thermals", |s| {
                rack1(s).thermals.pop();
            }),
            ("rack fade_done", |s| {
                rack1(s).fade_done.push(false);
            }),
            // A serve rack keeps no history, so neither loop has a Monitor.
            ("rack monitor", |s| {
                rack1(s).monitor = Some(crate::monitor::Monitor::new());
            }),
            ("rack monitor", |s| {
                let rack = s.racks[1].as_mut().expect("rack 1 is live");
                rack.baseline
                    .as_mut()
                    .expect("a Hybrid rack has a floor")
                    .monitor = Some(crate::monitor::Monitor::new());
            }),
            // The rack's Normal floor, one epoch behind its strategy loop.
            ("rack Normal floor", |s| {
                let rack = s.racks[1].as_mut().expect("rack 1 is live");
                rack.baseline
                    .as_mut()
                    .expect("a Hybrid rack has a floor")
                    .next_epoch -= 1;
            }),
        ];
        for (name, cut) in cuts {
            let mut snap = good.clone();
            cut(&mut snap);
            let json = snap.to_json().unwrap();
            match resume_error(&dir, &json) {
                ServeError::Snapshot(m) => {
                    if name == "rack Normal floor" {
                        assert!(m.contains("Normal floor"), "{m}");
                    }
                    if name == "rack monitor" {
                        assert!(m.contains("monitor is unexpected"), "{m}");
                    }
                }
                other => panic!("truncated {name} resumed: {other:?}"),
            }
        }
        // A Q-table delta naming a cell past the table.
        let tampered =
            crate::qlearning::with_first_delta_cells(&good.to_json().unwrap(), "[[27783,0]]");
        assert!(
            matches!(resume_error(&dir, &tampered), ServeError::Snapshot(m) if m.contains("27783")),
            "tampered delta resumed"
        );
        // A setting outside the sprint-setting space.
        let mut snap = good.clone();
        rack1(&mut snap).prev_settings[0].cores = 200;
        assert!(
            matches!(resume_error(&dir, &snap.to_json().unwrap()),
                ServeError::Snapshot(m) if m.contains("core count 200 out of range")),
            "out-of-range setting resumed"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn degrade_without_guardrail_is_a_config_error() {
        let args = ServeArgs {
            options: ServeOptions {
                overrun: OverrunPolicy::Degrade,
                ..ServeOptions::default()
            },
            ..ServeArgs::default()
        };
        assert!(matches!(serve(args), Err(ServeError::Config(_))));
    }
}
