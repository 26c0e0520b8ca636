//! `greensprint::net` — the fault-tolerant TCP network plane for
//! [`mod@crate::serve`].
//!
//! A std-only (no async runtime; all deps vendored) JSON-lines plane
//! with three endpoint roles multiplexed over one line protocol, on one
//! listener or split across per-role ports:
//!
//! * **Telemetry ingest** — any line that is not a recognized command is
//!   a telemetry frame in the same formats as `--feed`: a plain finite
//!   f64 or a JSON object carrying `supply_w`/`re_supply_w`. Malformed
//!   frames are counted per connection and are never fatal; a
//!   per-connection read timeout and a max-line-length cap bound
//!   slowloris and memory-flood clients.
//! * **Metrics subscribe** — `SUB` (optionally `SUB ?from_epoch=N`)
//!   turns the connection into a fan-out of the serve metrics stream
//!   through a bounded per-subscriber drop-oldest queue, so one slow
//!   client can never stall the tick loop. `?from_epoch=` replays the
//!   catch-up window from the metrics file plus an in-memory replay
//!   ring, so a reconnecting subscriber sees a gap-free stream. Under
//!   `--racks N` the plane also carries per-rack topic lines (prefixed
//!   `{"rack":R,`): the default stream filters them out so existing
//!   tooling keeps seeing only the site aggregate, while
//!   `SUB ?rack=R` (combinable as `?from_epoch=N&rack=R`) selects one
//!   rack's topic. Rack topics are hub/ring-only — never in the durable
//!   file — so their catch-up window is bounded by the replay ring.
//! * **Control/admin** — `STATUS [token]` returns a one-line JSON
//!   status (including per-rack health under `--racks N`); `DRAIN
//!   token` requests a graceful drain that rides the same path as
//!   SIGTERM; `KILL-RACK R token` marks rack `R` for a worker kill at
//!   the next epoch (exercising the supervised restart path) and
//!   `RESTART-RACK R token` re-admits a quarantined rack. Every
//!   mutating verb requires a configured shared secret; a mismatch is
//!   counted in `auth_rejects`. Requests are subject to the same
//!   line-length cap.
//!
//! All I/O lives on dedicated threads. Telemetry flows to the tick loop
//! through a bounded channel (overflow counted, never blocking); metrics
//! flow out through per-subscriber bounded queues (overflow drops the
//! oldest line, counted, never blocking). The epoch loop therefore stays
//! byte-identical under `--sim-time` goldens regardless of network
//! activity — in sim-time, arriving frames are validated and counted but
//! never shape the deterministic stream.
//!
//! Robustness is testable without real chaos: [`NetFaultPlan`] is a
//! seeded, serializable storm (drops mid-frame, stalled writers, corrupt
//! and oversized frames, reconnect storms, accept-queue bursts, killed
//! subscribers, bad tokens) mirroring [`crate::serve::DisturbancePlan`],
//! executed against a live plane by the in-process [`run_fault_plan`]
//! harness client.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use gs_sim::SimRng;
use serde::{Deserialize, Serialize};

/// Default concurrent-connection cap (`--max-conns`).
pub const DEFAULT_MAX_CONNS: usize = 64;
/// Default per-connection read/write timeout (`--conn-timeout-ms`).
pub const DEFAULT_CONN_TIMEOUT_MS: u64 = 5_000;
/// Default max accepted line length in bytes (frames and commands).
pub const DEFAULT_MAX_LINE_LEN: usize = 8_192;
/// Default per-subscriber queue capacity in lines (drop-oldest beyond).
pub const DEFAULT_SUB_QUEUE_CAP: usize = 256;
/// Default in-memory replay ring capacity in lines.
pub const DEFAULT_REPLAY_RING_CAP: usize = 4_096;

/// Malformed frames tolerated on one connection before it is shed.
const MAX_MALFORMED_PER_CONN: u64 = 64;
/// An oversized frame may spill this many times the line cap before the
/// connection is shed as a flood instead of skipped to the next line.
const OVERSIZE_FLOOD_FACTOR: usize = 16;
/// Accept-loop poll interval while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Subscriber wakeup interval for shutdown checks.
const SUB_WAIT: Duration = Duration::from_millis(50);

/// Lock a mutex, riding through poisoning: a panicked peer thread must
/// not cascade into the control plane.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Parse one telemetry frame: a plain finite f64 or a JSON object with
/// `supply_w`/`re_supply_w`, clamped non-negative. Shared by the serve
/// `--feed` path and the TCP ingest path so both speak one format.
pub fn parse_frame(line: &str) -> Option<f64> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    if let Ok(v) = line.parse::<f64>() {
        return v.is_finite().then_some(v.max(0.0));
    }
    let v: serde_json::Value = serde_json::from_str(line).ok()?;
    let w = v.get("supply_w").or_else(|| v.get("re_supply_w"))?;
    let w = w.as_number()?.as_f64();
    w.is_finite().then_some(w.max(0.0))
}

/// Extract the `epoch` field from a metrics JSON line.
pub fn line_epoch(line: &str) -> Option<u64> {
    let v: serde_json::Value = serde_json::from_str(line).ok()?;
    v.get("epoch")
        .and_then(|e| e.as_number())
        .and_then(|n| n.as_u64())
}

/// The addresses a started plane actually bound (resolves `:0` ports).
#[derive(Debug, Clone, Copy, Default)]
pub struct NetAddrs {
    /// The ingest/admin/subscribe listener.
    pub listen: Option<SocketAddr>,
    /// The metrics-only listener (same protocol; separate port so
    /// operators can firewall the roles apart).
    pub metrics: Option<SocketAddr>,
}

/// Runtime configuration of the network plane. Lives in
/// [`crate::serve::ServeArgs`] (the runtime half): nothing here shapes
/// the content of the deterministic metrics stream.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Ingest/admin/subscribe listen address (e.g. `127.0.0.1:7070`).
    pub listen: Option<String>,
    /// Additional subscribe/status listen address.
    pub metrics_listen: Option<String>,
    /// Shared secret for admin commands (`DRAIN` refuses without one).
    pub admin_token: Option<String>,
    /// Concurrent-connection cap across both listeners.
    pub max_conns: usize,
    /// Per-connection read/write timeout in milliseconds.
    pub conn_timeout_ms: u64,
    /// Max accepted line length in bytes; longer frames are skipped.
    pub max_line_len: usize,
    /// Per-subscriber queue capacity in lines (drop-oldest beyond).
    pub sub_queue_cap: usize,
    /// In-memory replay ring capacity in lines.
    pub replay_ring_cap: usize,
    /// Set once bound, so a harness started before [`mod@crate::serve`]
    /// returns can learn the real `:0` ports.
    pub ready: Option<Arc<OnceLock<NetAddrs>>>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            listen: None,
            metrics_listen: None,
            admin_token: None,
            max_conns: DEFAULT_MAX_CONNS,
            conn_timeout_ms: DEFAULT_CONN_TIMEOUT_MS,
            max_line_len: DEFAULT_MAX_LINE_LEN,
            sub_queue_cap: DEFAULT_SUB_QUEUE_CAP,
            replay_ring_cap: DEFAULT_REPLAY_RING_CAP,
            ready: None,
        }
    }
}

impl NetConfig {
    /// True when at least one listener is requested.
    pub fn enabled(&self) -> bool {
        self.listen.is_some() || self.metrics_listen.is_some()
    }

    /// Validate the knobs; the CLI maps the message to exit code 2.
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled() {
            return Err("network plane enabled with no listen address".to_string());
        }
        if self.max_conns == 0 {
            return Err("--max-conns must be >= 1".to_string());
        }
        if self.conn_timeout_ms == 0 {
            return Err("--conn-timeout-ms must be > 0".to_string());
        }
        if self.max_line_len < 64 {
            return Err("max line length must be >= 64 bytes".to_string());
        }
        if self.sub_queue_cap == 0 {
            return Err("subscriber queue capacity must be >= 1".to_string());
        }
        if self.replay_ring_cap == 0 {
            return Err("replay ring capacity must be >= 1".to_string());
        }
        Ok(())
    }
}

/// Counters every robustness path increments; surfaced in the serve
/// summary, the heartbeat, and `STATUS` replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct NetSummary {
    /// Connections accepted across both listeners.
    pub conns_accepted: u64,
    /// Connections shed (over `max_conns`, flooding, malformed storms).
    pub conns_dropped: u64,
    /// Connections closed by the per-connection read timeout.
    pub conns_timed_out: u64,
    /// Well-formed telemetry frames received.
    pub frames_received: u64,
    /// Malformed/oversized frames counted (never fatal).
    pub malformed_frames: u64,
    /// Well-formed frames dropped because the ingest channel was full.
    pub frames_discarded: u64,
    /// Subscribers accepted (monotonic).
    pub subscribers: u64,
    /// Metrics lines dropped on slow/killed subscribers.
    pub subscriber_drops: u64,
    /// Admin requests rejected by the token check.
    pub auth_rejects: u64,
    /// Accepted `DRAIN` commands.
    pub drain_requests: u64,
    /// Accepted `KILL-RACK` commands.
    pub kill_rack_requests: u64,
    /// Accepted `RESTART-RACK` commands.
    pub restart_rack_requests: u64,
}

#[derive(Default)]
struct NetCounters {
    conns_accepted: AtomicU64,
    conns_dropped: AtomicU64,
    conns_timed_out: AtomicU64,
    frames_received: AtomicU64,
    malformed_frames: AtomicU64,
    frames_discarded: AtomicU64,
    subscribers: AtomicU64,
    subscriber_drops: AtomicU64,
    auth_rejects: AtomicU64,
    drain_requests: AtomicU64,
    kill_rack_requests: AtomicU64,
    restart_rack_requests: AtomicU64,
}

impl NetCounters {
    fn summary(&self) -> NetSummary {
        NetSummary {
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_dropped: self.conns_dropped.load(Ordering::Relaxed),
            conns_timed_out: self.conns_timed_out.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            malformed_frames: self.malformed_frames.load(Ordering::Relaxed),
            frames_discarded: self.frames_discarded.load(Ordering::Relaxed),
            subscribers: self.subscribers.load(Ordering::Relaxed),
            subscriber_drops: self.subscriber_drops.load(Ordering::Relaxed),
            auth_rejects: self.auth_rejects.load(Ordering::Relaxed),
            drain_requests: self.drain_requests.load(Ordering::Relaxed),
            kill_rack_requests: self.kill_rack_requests.load(Ordering::Relaxed),
            restart_rack_requests: self.restart_rack_requests.load(Ordering::Relaxed),
        }
    }
}

/// One rack's live health as published to `STATUS` clients. Runtime
/// observability only: nothing here enters the deterministic stream.
#[derive(Debug, Clone, Serialize)]
pub struct RackStat {
    /// Rack index.
    pub rack: u32,
    /// Supervision ladder rung: `live`, `degraded`, or `quarantined`.
    pub health: String,
    /// Restarts consumed out of the per-rack budget.
    pub restarts: u32,
    /// The rack's routed load factor this epoch.
    pub factor: f64,
}

/// One subscriber's bounded drop-oldest queue. It holds only its own
/// topic's lines, so its cap counts that topic's epochs however many
/// racks publish beside it.
struct SubQueue {
    cap: usize,
    /// `SUB ?rack=R`'s line prefix, `{"rack":R,`; `None` for the default
    /// (aggregate) stream.
    rack_prefix: Option<String>,
    state: Mutex<SubState>,
    cv: Condvar,
}

#[derive(Default)]
struct SubState {
    lines: VecDeque<Arc<String>>,
    closed: bool,
}

impl SubQueue {
    fn new(cap: usize, rack: Option<u32>) -> Self {
        SubQueue {
            cap: cap.max(1),
            rack_prefix: rack.map(|r| format!("{{\"rack\":{r},")),
            state: Mutex::new(SubState::default()),
            cv: Condvar::new(),
        }
    }

    /// Topic selection: `?rack=R` keeps only that rack's lines; the
    /// default stream keeps only non-rack (aggregate) lines, so adding
    /// `--racks N` never changes what existing subscribers receive.
    fn keeps(&self, line: &str) -> bool {
        match &self.rack_prefix {
            Some(p) => line.starts_with(p.as_str()),
            None => !line.starts_with("{\"rack\":"),
        }
    }
}

/// Fan-out hub: the replay ring plus the live subscriber queues.
struct HubInner {
    subs: Vec<Arc<SubQueue>>,
    recent: VecDeque<(u64, Arc<String>)>,
    ring_cap: usize,
    /// The next epoch `publish` will deliver; queues hold only epochs
    /// `>= next_epoch` as of a subscriber's registration instant.
    next_epoch: u64,
}

/// State shared between the serve driver and every network thread.
pub(crate) struct NetShared {
    admin_token: Option<String>,
    max_conns: usize,
    conn_timeout: Duration,
    max_line_len: usize,
    sub_queue_cap: usize,
    metrics_path: Option<PathBuf>,
    counters: NetCounters,
    shutdown: AtomicBool,
    drain: AtomicBool,
    active_conns: AtomicUsize,
    conn_seq: AtomicU64,
    /// Last published epoch (`u64::MAX` = none yet).
    last_epoch: AtomicU64,
    hub: Mutex<HubInner>,
    /// Force-shutdown registry: reader-role sockets slammed on `stop`.
    /// Subscribers deregister — they get a graceful flush instead.
    conns: Mutex<HashMap<u64, TcpStream>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    ingest: SyncSender<f64>,
    /// Racks marked for a worker kill (`KILL-RACK`), drained per epoch.
    kill_requests: Mutex<Vec<u32>>,
    /// Quarantined racks marked for re-admission (`RESTART-RACK`).
    restart_requests: Mutex<Vec<u32>>,
    /// The serve loop's last per-rack health mirror for `STATUS`.
    rack_status: Mutex<Option<Vec<RackStat>>>,
}

impl NetShared {
    /// Publish one metrics line to the ring and every live subscriber of
    /// its topic. Never blocks: a full subscriber queue drops its oldest
    /// line.
    pub(crate) fn publish(&self, epoch: u64, line: String) {
        self.last_epoch.store(epoch, Ordering::SeqCst);
        let line = Arc::new(line);
        let mut hub = lock(&self.hub);
        if hub.recent.len() >= hub.ring_cap {
            hub.recent.pop_front();
        }
        hub.recent.push_back((epoch, line.clone()));
        hub.next_epoch = epoch + 1;
        hub.subs.retain(|s| !lock(&s.state).closed);
        for sub in hub.subs.iter().filter(|s| s.keeps(&line)) {
            let mut st = lock(&sub.state);
            while st.lines.len() >= sub.cap {
                st.lines.pop_front();
                bump(&self.counters.subscriber_drops);
            }
            st.lines.push_back(line.clone());
            sub.cv.notify_one();
        }
    }

    /// True once an authenticated `DRAIN` arrived; serve polls this at
    /// each epoch boundary alongside the SIGTERM latch.
    pub(crate) fn drain_requested(&self) -> bool {
        self.drain.load(Ordering::SeqCst)
    }

    pub(crate) fn summary(&self) -> NetSummary {
        self.counters.summary()
    }

    /// Drain the queued admin rack requests: `(kills, re-admissions)`.
    /// The serve loop takes these once per epoch; rack indices beyond
    /// the fleet are ignored by the consumer.
    pub(crate) fn take_rack_requests(&self) -> (Vec<u32>, Vec<u32>) {
        (
            std::mem::take(&mut *lock(&self.kill_requests)),
            std::mem::take(&mut *lock(&self.restart_requests)),
        )
    }

    /// Refresh the per-rack health mirror returned by `STATUS`.
    pub(crate) fn set_rack_status(&self, racks: Vec<RackStat>) {
        *lock(&self.rack_status) = Some(racks);
    }
}

/// The running network plane: listeners, connection threads, hub.
pub struct NetPlane {
    shared: Arc<NetShared>,
    acceptors: Vec<JoinHandle<()>>,
    /// The bound addresses (resolves `:0` requests).
    pub addrs: NetAddrs,
}

impl NetPlane {
    /// Bind the configured listeners and start the acceptor threads.
    /// Well-formed telemetry frames flow into `ingest` (overflow counted
    /// in `frames_discarded`); `metrics_path` feeds `?from_epoch=`
    /// catch-up replay.
    pub fn start(
        cfg: &NetConfig,
        ingest: SyncSender<f64>,
        metrics_path: Option<PathBuf>,
    ) -> std::io::Result<NetPlane> {
        cfg.validate()
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e))?;
        let shared = Arc::new(NetShared {
            admin_token: cfg.admin_token.clone(),
            max_conns: cfg.max_conns,
            conn_timeout: Duration::from_millis(cfg.conn_timeout_ms),
            max_line_len: cfg.max_line_len,
            sub_queue_cap: cfg.sub_queue_cap,
            metrics_path,
            counters: NetCounters::default(),
            shutdown: AtomicBool::new(false),
            drain: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            conn_seq: AtomicU64::new(0),
            last_epoch: AtomicU64::new(u64::MAX),
            hub: Mutex::new(HubInner {
                subs: Vec::new(),
                recent: VecDeque::new(),
                ring_cap: cfg.replay_ring_cap.max(1),
                next_epoch: 0,
            }),
            conns: Mutex::new(HashMap::new()),
            workers: Mutex::new(Vec::new()),
            ingest,
            kill_requests: Mutex::new(Vec::new()),
            restart_requests: Mutex::new(Vec::new()),
            rack_status: Mutex::new(None),
        });
        let mut acceptors = Vec::new();
        let mut addrs = NetAddrs::default();
        if let Some(a) = &cfg.listen {
            let listener = TcpListener::bind(a)?;
            addrs.listen = listener.local_addr().ok();
            let sh = shared.clone();
            acceptors.push(std::thread::spawn(move || acceptor_loop(&sh, &listener)));
        }
        if let Some(a) = &cfg.metrics_listen {
            let listener = TcpListener::bind(a)?;
            addrs.metrics = listener.local_addr().ok();
            let sh = shared.clone();
            acceptors.push(std::thread::spawn(move || acceptor_loop(&sh, &listener)));
        }
        if let Some(ready) = &cfg.ready {
            let _ = ready.set(addrs);
        }
        Ok(NetPlane {
            shared,
            acceptors,
            addrs,
        })
    }

    pub(crate) fn shared(&self) -> Arc<NetShared> {
        self.shared.clone()
    }

    /// Publish one metrics line (serve calls this per emitted epoch).
    pub fn publish(&self, epoch: u64, line: String) {
        self.shared.publish(epoch, line);
    }

    /// True once an authenticated `DRAIN` command arrived.
    pub fn drain_requested(&self) -> bool {
        self.shared.drain_requested()
    }

    /// Live snapshot of the robustness counters.
    pub fn counters(&self) -> NetSummary {
        self.shared.summary()
    }

    /// Currently registered (not yet pruned) subscribers.
    pub fn subscriber_count(&self) -> usize {
        lock(&self.shared.hub).subs.len()
    }

    /// Stop the plane: slam reader connections, flush subscribers, join
    /// every thread (all exits are bounded by the connection timeouts),
    /// and return the final counters.
    pub fn stop(self) -> NetSummary {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let hub = lock(&self.shared.hub);
            for sub in &hub.subs {
                sub.cv.notify_all();
            }
        }
        for (_, s) in lock(&self.shared.conns).drain() {
            let _ = s.shutdown(Shutdown::Both);
        }
        for h in self.acceptors {
            let _ = h.join();
        }
        let workers = std::mem::take(&mut *lock(&self.shared.workers));
        for h in workers {
            let _ = h.join();
        }
        self.shared.counters.summary()
    }
}

fn acceptor_loop(shared: &Arc<NetShared>, listener: &TcpListener) {
    let _ = listener.set_nonblocking(true);
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => accept_conn(shared, stream),
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn accept_conn(shared: &Arc<NetShared>, stream: TcpStream) {
    let prev = shared.active_conns.fetch_add(1, Ordering::SeqCst);
    if prev >= shared.max_conns {
        shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        bump(&shared.counters.conns_dropped);
        let mut s = stream;
        let _ = s.set_write_timeout(Some(Duration::from_millis(100)));
        let _ = s.write_all(b"err busy\n");
        return;
    }
    bump(&shared.counters.conns_accepted);
    let id = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
    if let Ok(clone) = stream.try_clone() {
        lock(&shared.conns).insert(id, clone);
    }
    let sh = shared.clone();
    let handle = std::thread::spawn(move || conn_main(&sh, stream, id));
    let mut workers = lock(&shared.workers);
    // Dropping a finished handle detaches nothing live; this keeps the
    // registry bounded under reconnect storms.
    workers.retain(|h| !h.is_finished());
    workers.push(handle);
}

/// Decrements the live-connection count and clears the force-shutdown
/// registry entry however the connection thread exits.
struct ConnGuard {
    shared: Arc<NetShared>,
    id: u64,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        lock(&self.shared.conns).remove(&self.id);
    }
}

fn conn_main(shared: &Arc<NetShared>, stream: TcpStream, id: u64) {
    let _guard = ConnGuard {
        shared: shared.clone(),
        id,
    };
    let c = &shared.counters;
    let _ = stream.set_read_timeout(Some(shared.conn_timeout));
    let _ = stream.set_write_timeout(Some(shared.conn_timeout));
    let Ok(read_half) = stream.try_clone() else {
        bump(&c.conns_dropped);
        return;
    };
    let mut reader = BufReader::new(read_half);
    let first = match read_frame(&mut reader, shared.max_line_len) {
        FrameRead::Line(l) => l,
        FrameRead::Oversized => {
            bump(&c.malformed_frames);
            bump(&c.conns_dropped);
            return;
        }
        FrameRead::Eof => return,
        FrameRead::PartialEof => {
            bump(&c.malformed_frames);
            return;
        }
        FrameRead::TimedOut => {
            bump(&c.conns_timed_out);
            return;
        }
        FrameRead::Closed | FrameRead::Flooded => {
            bump(&c.conns_dropped);
            return;
        }
    };
    let trimmed = first.trim().to_string();
    let mut toks = trimmed.split_whitespace();
    match toks.next() {
        Some("SUB") => subscriber_main(shared, stream, id, toks.next()),
        Some("STATUS") => admin_status(shared, stream, toks.next()),
        Some("DRAIN") => admin_drain(shared, stream, toks.next()),
        Some("KILL-RACK") => admin_rack(shared, stream, toks.next(), toks.next(), true),
        Some("RESTART-RACK") => admin_rack(shared, stream, toks.next(), toks.next(), false),
        _ => ingest_main(shared, &mut reader, &first),
    }
}

fn ingest_main(shared: &Arc<NetShared>, reader: &mut BufReader<TcpStream>, first: &str) {
    let c = &shared.counters;
    let mut malformed_here: u64 = 0;
    let handle = |line: &str, malformed_here: &mut u64| match parse_frame(line) {
        Some(w) => {
            bump(&c.frames_received);
            if shared.ingest.try_send(w).is_err() {
                bump(&c.frames_discarded);
            }
        }
        None => {
            bump(&c.malformed_frames);
            *malformed_here += 1;
        }
    };
    handle(first, &mut malformed_here);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if malformed_here > MAX_MALFORMED_PER_CONN {
            bump(&c.conns_dropped);
            return;
        }
        match read_frame(reader, shared.max_line_len) {
            FrameRead::Line(l) => handle(&l, &mut malformed_here),
            FrameRead::Oversized => {
                bump(&c.malformed_frames);
                malformed_here += 1;
            }
            FrameRead::Eof => return,
            FrameRead::PartialEof => {
                bump(&c.malformed_frames);
                return;
            }
            FrameRead::TimedOut => {
                bump(&c.conns_timed_out);
                return;
            }
            FrameRead::Closed | FrameRead::Flooded => {
                bump(&c.conns_dropped);
                return;
            }
        }
    }
}

/// The one-line JSON reply to `STATUS`.
#[derive(Serialize)]
struct StatusReply {
    role: &'static str,
    /// Last published epoch (absent before the first one).
    epoch: Option<u64>,
    drain_pending: bool,
    active_conns: usize,
    subscribers_live: usize,
    /// Per-rack supervision ladder (`null` unless serving `--racks N`).
    racks: Option<Vec<RackStat>>,
    net: NetSummary,
}

fn admin_status(shared: &Arc<NetShared>, stream: TcpStream, token: Option<&str>) {
    let mut s = stream;
    // Read-only status is open when no secret is configured; once one
    // is, every admin verb requires it.
    let ok = match (&shared.admin_token, token) {
        (Some(want), Some(got)) => want == got,
        (Some(_), None) => false,
        (None, _) => true,
    };
    if !ok {
        bump(&shared.counters.auth_rejects);
        let _ = s.write_all(b"err unauthorized\n");
        return;
    }
    let last = shared.last_epoch.load(Ordering::SeqCst);
    let reply = StatusReply {
        role: "greensprint-serve",
        epoch: (last != u64::MAX).then_some(last),
        drain_pending: shared.drain.load(Ordering::SeqCst),
        active_conns: shared.active_conns.load(Ordering::SeqCst),
        subscribers_live: lock(&shared.hub).subs.len(),
        racks: lock(&shared.rack_status).clone(),
        net: shared.counters.summary(),
    };
    match serde_json::to_string(&reply) {
        Ok(json) => {
            let _ = writeln!(s, "{json}");
        }
        Err(_) => {
            let _ = s.write_all(b"err status\n");
        }
    }
}

fn admin_drain(shared: &Arc<NetShared>, stream: TcpStream, token: Option<&str>) {
    let mut s = stream;
    // A mutating verb never runs without a configured, matching secret.
    let ok = matches!((&shared.admin_token, token), (Some(want), Some(got)) if want == got);
    if !ok {
        bump(&shared.counters.auth_rejects);
        let _ = s.write_all(b"err unauthorized\n");
        return;
    }
    shared.drain.store(true, Ordering::SeqCst);
    bump(&shared.counters.drain_requests);
    let _ = s.write_all(b"ok drain\n");
}

/// `KILL-RACK R token` / `RESTART-RACK R token`: queue a rack request
/// for the serve loop to apply at its next epoch. Token-gated exactly
/// like `DRAIN` — both verbs mutate the fleet.
fn admin_rack(
    shared: &Arc<NetShared>,
    stream: TcpStream,
    rack: Option<&str>,
    token: Option<&str>,
    kill: bool,
) {
    let mut s = stream;
    let ok = matches!((&shared.admin_token, token), (Some(want), Some(got)) if want == got);
    if !ok {
        bump(&shared.counters.auth_rejects);
        let _ = s.write_all(b"err unauthorized\n");
        return;
    }
    let Some(r) = rack.and_then(|v| v.parse::<u32>().ok()) else {
        let _ = s.write_all(b"err bad rack\n");
        return;
    };
    if kill {
        lock(&shared.kill_requests).push(r);
        bump(&shared.counters.kill_rack_requests);
        let _ = writeln!(s, "ok kill-rack {r}");
    } else {
        lock(&shared.restart_requests).push(r);
        bump(&shared.counters.restart_rack_requests);
        let _ = writeln!(s, "ok restart-rack {r}");
    }
}

/// The parsed options of a `SUB` request.
#[derive(Debug, Default, PartialEq, Eq)]
struct SubOptions {
    from_epoch: Option<u64>,
    rack: Option<u32>,
}

/// Parse `SUB` options: nothing, `?from_epoch=N`, `?rack=R`, or both
/// joined with `&` in either order. `None` on anything else.
fn parse_sub_options(arg: Option<&str>) -> Option<SubOptions> {
    let mut opts = SubOptions::default();
    let Some(a) = arg else { return Some(opts) };
    for part in a.strip_prefix('?')?.split('&') {
        if let Some(v) = part.strip_prefix("from_epoch=") {
            opts.from_epoch = Some(v.parse().ok()?);
        } else if let Some(v) = part.strip_prefix("rack=") {
            opts.rack = Some(v.parse().ok()?);
        } else {
            return None;
        }
    }
    Some(opts)
}

fn subscriber_main(shared: &Arc<NetShared>, stream: TcpStream, id: u64, arg: Option<&str>) {
    let c = &shared.counters;
    let Some(opts) = parse_sub_options(arg) else {
        bump(&c.malformed_frames);
        let mut s = stream;
        let _ = s.write_all(b"err bad subscribe\n");
        return;
    };
    let from_epoch = opts.from_epoch;
    bump(&c.subscribers);
    // This socket now belongs to the graceful-flush path; the
    // force-shutdown registry must not slam it mid-replay.
    lock(&shared.conns).remove(&id);
    // `publish` fills the queue with its topic's lines only; the replay
    // below applies the same predicate to the file and the ring.
    let sub = Arc::new(SubQueue::new(shared.sub_queue_cap, opts.rack));
    // Register under the hub lock and snapshot the ring at the same
    // instant: the queue then holds exactly the epochs >= `live_from`,
    // the ring exactly a suffix of those below it — no overlap, no gap.
    let (ring, live_from) = {
        let mut hub = lock(&shared.hub);
        hub.subs.push(sub.clone());
        (hub.recent.clone(), hub.next_epoch)
    };
    let mut out = BufWriter::new(stream);
    let mut write_failed = false;
    if let Some(from) = from_epoch {
        let ring_first = ring.front().map_or(live_from, |&(e, _)| e);
        if from < ring_first {
            // The catch-up window below the ring comes from the durable
            // metrics file (the flush-before-snapshot invariant keeps it
            // at most a stall window behind the ring).
            if let Some(path) = &shared.metrics_path {
                if let Ok(text) = std::fs::read_to_string(path) {
                    for line in text.lines() {
                        let Some(e) = line_epoch(line) else { continue };
                        if e >= from
                            && e < ring_first
                            && sub.keeps(line)
                            && writeln!(out, "{line}").is_err()
                        {
                            write_failed = true;
                            break;
                        }
                    }
                }
            }
        }
        if !write_failed {
            for (e, l) in &ring {
                if *e >= from && sub.keeps(l) && writeln!(out, "{l}").is_err() {
                    write_failed = true;
                    break;
                }
            }
        }
    }
    if !write_failed {
        write_failed = out.flush().is_err();
    }
    while !write_failed {
        let next = {
            let mut st = lock(&sub.state);
            loop {
                if let Some(l) = st.lines.pop_front() {
                    break Some(l);
                }
                if st.closed || shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                st = match sub.cv.wait_timeout(st, SUB_WAIT) {
                    Ok((g, _)) => g,
                    Err(e) => e.into_inner().0,
                };
            }
        };
        match next {
            Some(l) => {
                if writeln!(out, "{l}").is_err() || out.flush().is_err() {
                    write_failed = true;
                }
            }
            None => break,
        }
    }
    // Unregister; a failed writer charges the line it lost plus every
    // line still queued behind it.
    let remaining = {
        let mut st = lock(&sub.state);
        st.closed = true;
        std::mem::take(&mut st.lines).len() as u64
    };
    if write_failed {
        c.subscriber_drops
            .fetch_add(1 + remaining, Ordering::Relaxed);
    }
    let _ = out.flush();
    if let Ok(s) = out.into_inner() {
        let _ = s.shutdown(Shutdown::Both);
    }
}

/// Outcome of one bounded line read.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FrameRead {
    /// A complete line within the cap (newline stripped).
    Line(String),
    /// A line over the cap: its bytes were discarded up to the newline.
    Oversized,
    /// Clean end of stream on a line boundary.
    Eof,
    /// End of stream mid-line (a drop mid-frame).
    PartialEof,
    /// The read timeout elapsed.
    TimedOut,
    /// The peer reset or an unrecoverable I/O error.
    Closed,
    /// An oversized line kept flowing past the flood bound.
    Flooded,
}

/// Read one newline-delimited frame with a hard length cap. Never
/// allocates more than `cap` bytes for the line itself; an oversized
/// line is skipped to its newline, bounded by [`OVERSIZE_FLOOD_FACTOR`].
pub(crate) fn read_frame<R: BufRead>(r: &mut R, cap: usize) -> FrameRead {
    let mut buf: Vec<u8> = Vec::new();
    let mut discarding = false;
    let mut discarded = 0usize;
    loop {
        let (consumed, done) = {
            let available = match r.fill_buf() {
                Ok(b) => b,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return FrameRead::TimedOut;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return FrameRead::Closed,
            };
            if available.is_empty() {
                if discarding {
                    return FrameRead::Oversized;
                }
                if buf.is_empty() {
                    return FrameRead::Eof;
                }
                return FrameRead::PartialEof;
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if !discarding {
                        buf.extend_from_slice(&available[..pos]);
                    }
                    (pos + 1, true)
                }
                None => {
                    if discarding {
                        discarded += available.len();
                    } else {
                        buf.extend_from_slice(available);
                    }
                    (available.len(), false)
                }
            }
        };
        r.consume(consumed);
        if done {
            if discarding || buf.len() > cap {
                return FrameRead::Oversized;
            }
            return FrameRead::Line(String::from_utf8_lossy(&buf).into_owned());
        }
        if !discarding && buf.len() > cap {
            discarding = true;
            discarded = buf.len();
            buf.clear();
        }
        if discarding && discarded > cap.saturating_mul(OVERSIZE_FLOOD_FACTOR) {
            return FrameRead::Flooded;
        }
    }
}

/// One operation of a seeded network fault storm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetFaultOp {
    /// A well-formed plain-f64 telemetry frame.
    ValidFrame {
        /// The supply reading to send.
        watts: f64,
    },
    /// A frame that parses as neither f64 nor telemetry JSON.
    CorruptFrame,
    /// A frame longer than the line cap.
    OversizedFrame {
        /// Total frame length in bytes.
        len: usize,
    },
    /// Write half a frame, then close the connection.
    DropMidFrame,
    /// Open a connection and go silent past the read timeout.
    StallWriter {
        /// How long to stall in milliseconds.
        ms: u64,
    },
    /// Rapid connect/send/disconnect cycles.
    ReconnectStorm {
        /// Number of cycles.
        conns: usize,
    },
    /// Many simultaneous held-open connections (exercises `max_conns`).
    AcceptBurst {
        /// Number of concurrent connections.
        conns: usize,
    },
    /// Subscribe, read a few lines, then vanish without unsubscribing.
    KillSubscriber {
        /// Lines to read before vanishing.
        after_lines: usize,
    },
    /// An admin command with a wrong shared secret.
    BadToken,
}

const NET_FAULT_KINDS: usize = 9;

/// A seeded, serializable schedule of network misbehavior, mirroring
/// [`crate::serve::DisturbancePlan`]: the same seed always yields the
/// same storm, and a generated plan exercises every op kind at least
/// once. Executed against a live plane by [`run_fault_plan`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct NetFaultPlan {
    /// Generator seed (`0` for hand-written plans; provenance only).
    pub seed: u64,
    /// The ops, executed in order by the harness.
    pub ops: Vec<NetFaultOp>,
}

impl NetFaultPlan {
    /// Generate a storm: one op of every kind plus `extra_ops` random
    /// ones, deterministically shuffled. `line_cap` and
    /// `conn_timeout_ms` should match the target plane so oversize and
    /// stall ops actually cross their thresholds.
    pub fn generate(seed: u64, extra_ops: usize, line_cap: usize, conn_timeout_ms: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x6e65_7466_6175); // "netfau"
        let mut ops: Vec<NetFaultOp> = (0..NET_FAULT_KINDS)
            .map(|k| Self::op(k, &mut rng, line_cap, conn_timeout_ms))
            .collect();
        for _ in 0..extra_ops {
            let k = rng.index(NET_FAULT_KINDS);
            ops.push(Self::op(k, &mut rng, line_cap, conn_timeout_ms));
        }
        for i in (1..ops.len()).rev() {
            let j = rng.index(i + 1);
            ops.swap(i, j);
        }
        NetFaultPlan { seed, ops }
    }

    fn op(kind: usize, rng: &mut SimRng, line_cap: usize, conn_timeout_ms: u64) -> NetFaultOp {
        match kind {
            0 => NetFaultOp::ValidFrame {
                watts: (50 + rng.index(450)) as f64,
            },
            1 => NetFaultOp::CorruptFrame,
            2 => NetFaultOp::OversizedFrame {
                len: line_cap * 2 + rng.index(line_cap.max(1)),
            },
            3 => NetFaultOp::DropMidFrame,
            4 => NetFaultOp::StallWriter {
                ms: conn_timeout_ms + conn_timeout_ms / 2,
            },
            5 => NetFaultOp::ReconnectStorm {
                conns: 2 + rng.index(4),
            },
            6 => NetFaultOp::AcceptBurst {
                conns: 4 + rng.index(8),
            },
            7 => NetFaultOp::KillSubscriber {
                after_lines: 1 + rng.index(3),
            },
            _ => NetFaultOp::BadToken,
        }
    }
}

/// What the in-process harness observed while executing a plan.
#[derive(Debug, Clone, Default, Serialize)]
pub struct NetHarnessReport {
    /// Ops executed (always the full plan; failures are counted, not fatal).
    pub ops_run: usize,
    /// Connection attempts the target refused or shed.
    pub connect_failures: u64,
    /// Mid-op write errors (expected under shedding).
    pub io_errors: u64,
    /// Metrics lines the killed subscribers read before vanishing.
    pub sub_lines_seen: u64,
}

/// Connect without caring whether the target sheds us (used for
/// accept bursts, where shedding is the point).
fn harness_connect_raw(addr: SocketAddr, rep: &mut NetHarnessReport) -> Option<TcpStream> {
    match TcpStream::connect_timeout(&addr, Duration::from_secs(2)) {
        Ok(s) => {
            let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = s.set_write_timeout(Some(Duration::from_secs(2)));
            Some(s)
        }
        Err(_) => {
            rep.connect_failures += 1;
            None
        }
    }
}

/// Connect and briefly probe for an `err busy` shed (the listener
/// accepts at the TCP level before deciding); retry until a connection
/// is genuinely held open. Bounded: gives up after a few attempts.
fn harness_connect(addr: SocketAddr, rep: &mut NetHarnessReport) -> Option<TcpStream> {
    use std::io::Read as _;
    for _ in 0..10 {
        let Some(s) = harness_connect_raw(addr, rep) else {
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        let _ = s.set_read_timeout(Some(Duration::from_millis(100)));
        let mut probe = [0u8; 16];
        match (&s).read(&mut probe) {
            // Silence is acceptance: a held connection gets no greeting.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
                return Some(s);
            }
            // Anything readable (or an immediate close) is a shed.
            _ => rep.connect_failures += 1,
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    None
}

/// Execute a [`NetFaultPlan`] against a live plane, best-effort: every
/// op runs, every failure is counted. The target must survive all of it
/// with nothing worse than incremented counters.
pub fn run_fault_plan(addr: SocketAddr, plan: &NetFaultPlan) -> NetHarnessReport {
    let mut rep = NetHarnessReport::default();
    let mut conn: Option<TcpStream> = None;
    for op in &plan.ops {
        rep.ops_run += 1;
        match op {
            NetFaultOp::ValidFrame { watts } => {
                if conn.is_none() {
                    conn = harness_connect(addr, &mut rep);
                }
                if let Some(s) = conn.as_mut() {
                    if writeln!(s, "{watts}").is_err() {
                        rep.io_errors += 1;
                        conn = None;
                    }
                }
            }
            NetFaultOp::CorruptFrame => {
                if conn.is_none() {
                    conn = harness_connect(addr, &mut rep);
                }
                if let Some(s) = conn.as_mut() {
                    if s.write_all(b"{\"supply_w\": bogus}\n").is_err() {
                        rep.io_errors += 1;
                        conn = None;
                    }
                }
            }
            NetFaultOp::OversizedFrame { len } => {
                if conn.is_none() {
                    conn = harness_connect(addr, &mut rep);
                }
                if let Some(s) = conn.as_mut() {
                    let mut frame = vec![b'x'; *len];
                    frame.push(b'\n');
                    if s.write_all(&frame).is_err() {
                        rep.io_errors += 1;
                        conn = None;
                    }
                }
            }
            NetFaultOp::DropMidFrame => {
                if let Some(mut s) = harness_connect(addr, &mut rep) {
                    let _ = s.write_all(b"777.0");
                    let _ = s.shutdown(Shutdown::Both);
                }
            }
            NetFaultOp::StallWriter { ms } => {
                if let Some(s) = harness_connect(addr, &mut rep) {
                    std::thread::sleep(Duration::from_millis(*ms));
                    drop(s);
                }
            }
            NetFaultOp::ReconnectStorm { conns } => {
                for _ in 0..*conns {
                    if let Some(mut s) = harness_connect(addr, &mut rep) {
                        if writeln!(s, "100.0").is_err() {
                            rep.io_errors += 1;
                        }
                    }
                }
            }
            NetFaultOp::AcceptBurst { conns } => {
                let held: Vec<TcpStream> = (0..*conns)
                    .filter_map(|_| harness_connect_raw(addr, &mut rep))
                    .collect();
                std::thread::sleep(Duration::from_millis(20));
                drop(held);
            }
            NetFaultOp::KillSubscriber { after_lines } => {
                if let Some(mut s) = harness_connect(addr, &mut rep) {
                    if writeln!(s, "SUB").is_ok() {
                        if let Ok(clone) = s.try_clone() {
                            let mut r = BufReader::new(clone);
                            for _ in 0..*after_lines {
                                let mut line = String::new();
                                match r.read_line(&mut line) {
                                    Ok(0) | Err(_) => break,
                                    Ok(_) => rep.sub_lines_seen += 1,
                                }
                            }
                        }
                    }
                    drop(s);
                }
            }
            NetFaultOp::BadToken => {
                if let Some(mut s) = harness_connect(addr, &mut rep) {
                    if writeln!(s, "DRAIN definitely-wrong-token").is_ok() {
                        let mut r = BufReader::new(s);
                        let mut line = String::new();
                        let _ = r.read_line(&mut line);
                    }
                }
            }
        }
    }
    drop(conn);
    rep
}

/// Subscribe to `addr` and collect metrics lines until the server
/// closes the stream or `idle` elapses with nothing new. Test/tooling
/// helper — the gap-free reconnect check is one call.
pub fn subscribe_collect(
    addr: SocketAddr,
    from_epoch: Option<u64>,
    idle: Duration,
) -> std::io::Result<Vec<String>> {
    let s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    s.set_read_timeout(Some(idle))?;
    s.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut w = s.try_clone()?;
    match from_epoch {
        Some(n) => writeln!(w, "SUB ?from_epoch={n}")?,
        None => writeln!(w, "SUB")?,
    }
    let mut r = BufReader::new(s);
    let mut out = Vec::new();
    loop {
        let mut line = String::new();
        match r.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => out.push(line.trim_end().to_string()),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

/// Send one admin request line and return the one-line reply.
pub fn admin_request(
    addr: SocketAddr,
    request: &str,
    timeout: Duration,
) -> std::io::Result<String> {
    let s = TcpStream::connect_timeout(&addr, timeout)?;
    s.set_read_timeout(Some(timeout))?;
    s.set_write_timeout(Some(timeout))?;
    let mut w = s.try_clone()?;
    writeln!(w, "{request}")?;
    let mut r = BufReader::new(s);
    let mut line = String::new();
    r.read_line(&mut line)?;
    Ok(line.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::sync::mpsc;
    use std::time::Instant;

    fn wait_until(what: &str, f: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if f() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("timed out waiting for {what}");
    }

    fn test_cfg() -> NetConfig {
        NetConfig {
            listen: Some("127.0.0.1:0".to_string()),
            conn_timeout_ms: 300,
            max_line_len: 128,
            max_conns: 4,
            sub_queue_cap: 4,
            ..NetConfig::default()
        }
    }

    fn start_plane(cfg: NetConfig) -> (NetPlane, mpsc::Receiver<f64>) {
        let (tx, rx) = mpsc::sync_channel(64);
        let plane = NetPlane::start(&cfg, tx, None).expect("plane binds");
        (plane, rx)
    }

    fn connect(addr: SocketAddr) -> TcpStream {
        let s = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        s.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
        s
    }

    #[test]
    fn config_validation_rejects_each_bad_knob() {
        assert!(NetConfig::default().validate().is_err(), "no listener");
        let ok = test_cfg();
        assert!(ok.validate().is_ok());
        for (name, cfg) in [
            (
                "max_conns",
                NetConfig {
                    max_conns: 0,
                    ..test_cfg()
                },
            ),
            (
                "conn_timeout_ms",
                NetConfig {
                    conn_timeout_ms: 0,
                    ..test_cfg()
                },
            ),
            (
                "max_line_len",
                NetConfig {
                    max_line_len: 16,
                    ..test_cfg()
                },
            ),
            (
                "sub_queue_cap",
                NetConfig {
                    sub_queue_cap: 0,
                    ..test_cfg()
                },
            ),
            (
                "replay_ring_cap",
                NetConfig {
                    replay_ring_cap: 0,
                    ..test_cfg()
                },
            ),
        ] {
            assert!(cfg.validate().is_err(), "{name} should be rejected");
        }
    }

    #[test]
    fn frames_parse_plain_json_and_garbage() {
        assert_eq!(parse_frame("412.5"), Some(412.5));
        assert_eq!(parse_frame("  300 "), Some(300.0));
        assert_eq!(parse_frame("-17"), Some(0.0), "supply clamps at zero");
        assert_eq!(parse_frame("{\"supply_w\": 250.0}"), Some(250.0));
        assert_eq!(parse_frame("{\"re_supply_w\": 99}"), Some(99.0));
        assert_eq!(parse_frame(""), None);
        assert_eq!(parse_frame("potato"), None);
        assert_eq!(parse_frame("{\"watts\": 5}"), None);
        assert_eq!(parse_frame("NaN"), None);
        // A line just under the ingest length cap, nested past the JSON
        // parser's depth bound: refused, not a stack overflow.
        let deep = "[".repeat(8_000);
        assert!(deep.len() <= DEFAULT_MAX_LINE_LEN);
        assert_eq!(parse_frame(&deep), None);
    }

    #[test]
    fn read_frame_bounds_lines_and_skips_oversize() {
        let long = "y".repeat(50);
        let text = format!("short\n{long}\nafter\npartial");
        let mut r = Cursor::new(text.into_bytes());
        assert_eq!(read_frame(&mut r, 16), FrameRead::Line("short".into()));
        assert_eq!(read_frame(&mut r, 16), FrameRead::Oversized);
        assert_eq!(
            read_frame(&mut r, 16),
            FrameRead::Line("after".into()),
            "an oversized line is skipped to its newline, not fatal"
        );
        assert_eq!(read_frame(&mut r, 16), FrameRead::PartialEof);
        assert_eq!(read_frame(&mut r, 16), FrameRead::Eof);
    }

    #[test]
    fn read_frame_sheds_a_newline_free_flood() {
        let flood = vec![b'z'; 16 * OVERSIZE_FLOOD_FACTOR + 64];
        let mut r = Cursor::new(flood);
        assert_eq!(read_frame(&mut r, 16), FrameRead::Flooded);
    }

    #[test]
    fn fault_plan_is_deterministic_covers_every_kind_and_roundtrips() {
        let a = NetFaultPlan::generate(42, 8, 128, 200);
        let b = NetFaultPlan::generate(42, 8, 128, 200);
        assert_eq!(a, b);
        let c = NetFaultPlan::generate(43, 8, 128, 200);
        assert_ne!(a, c, "different seeds should differ");
        assert_eq!(a.ops.len(), NET_FAULT_KINDS + 8);
        let kind = |op: &NetFaultOp| -> usize {
            match op {
                NetFaultOp::ValidFrame { .. } => 0,
                NetFaultOp::CorruptFrame => 1,
                NetFaultOp::OversizedFrame { .. } => 2,
                NetFaultOp::DropMidFrame => 3,
                NetFaultOp::StallWriter { .. } => 4,
                NetFaultOp::ReconnectStorm { .. } => 5,
                NetFaultOp::AcceptBurst { .. } => 6,
                NetFaultOp::KillSubscriber { .. } => 7,
                NetFaultOp::BadToken => 8,
            }
        };
        let mut seen = [false; NET_FAULT_KINDS];
        for op in &a.ops {
            seen[kind(op)] = true;
            if let NetFaultOp::OversizedFrame { len } = op {
                assert!(*len > 128, "oversize must cross the line cap");
            }
            if let NetFaultOp::StallWriter { ms } = op {
                assert!(*ms > 200, "stall must cross the read timeout");
            }
        }
        assert!(seen.iter().all(|&s| s), "every kind exercised: {seen:?}");
        let json = serde_json::to_string(&a).unwrap();
        let back: NetFaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn ingest_counts_frames_and_forwards_to_the_channel() {
        let (plane, rx) = start_plane(test_cfg());
        let addr = plane.addrs.listen.unwrap();
        let mut s = connect(addr);
        s.write_all(b"123.5\njunk frame\n").unwrap();
        s.write_all(format!("{}\n", "x".repeat(200)).as_bytes())
            .unwrap();
        s.write_all(b"{\"supply_w\": 50}\n").unwrap();
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, 123.5);
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, 50.0);
        wait_until("malformed counted", || {
            plane.counters().malformed_frames >= 2
        });
        drop(s);
        let summary = plane.stop();
        assert_eq!(summary.frames_received, 2);
        assert!(summary.malformed_frames >= 2, "{summary:?}");
        assert_eq!(summary.conns_accepted, 1);
    }

    #[test]
    fn a_silent_connection_times_out_and_a_half_frame_counts_malformed() {
        let (plane, _rx) = start_plane(test_cfg());
        let addr = plane.addrs.listen.unwrap();
        let silent = connect(addr);
        let mut half = connect(addr);
        half.write_all(b"42.0").unwrap(); // no newline
        half.shutdown(Shutdown::Both).unwrap();
        wait_until("timeout + malformed", || {
            let c = plane.counters();
            c.conns_timed_out >= 1 && c.malformed_frames >= 1
        });
        drop(silent);
        plane.stop();
    }

    #[test]
    fn connections_beyond_max_conns_are_shed_with_busy() {
        let (plane, _rx) = start_plane(test_cfg());
        let addr = plane.addrs.listen.unwrap();
        // Fill the 4 slots with silent conns, then overflow.
        let held: Vec<TcpStream> = (0..4).map(|_| connect(addr)).collect();
        wait_until("slots filled", || plane.counters().conns_accepted >= 4);
        let mut extra = connect(addr);
        let mut r = BufReader::new(extra.try_clone().unwrap());
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "err busy");
        let _ = extra.write_all(b"1.0\n");
        wait_until("shed counted", || plane.counters().conns_dropped >= 1);
        drop(held);
        plane.stop();
    }

    #[test]
    fn publish_drops_oldest_on_a_full_subscriber_queue() {
        let (plane, _rx) = start_plane(test_cfg());
        // Register a queue with no draining thread behind it.
        let sub = Arc::new(SubQueue::new(2, None));
        lock(&plane.shared.hub).subs.push(sub.clone());
        for k in 0..5u64 {
            plane.publish(k, format!("{{\"epoch\":{k}}}"));
        }
        {
            let st = lock(&sub.state);
            let got: Vec<String> = st.lines.iter().map(|l| l.as_str().to_string()).collect();
            assert_eq!(got, vec!["{\"epoch\":3}", "{\"epoch\":4}"]);
        }
        assert_eq!(plane.counters().subscriber_drops, 3);
        plane.stop();
    }

    #[test]
    fn a_subscriber_queue_holds_only_its_own_topic() {
        const K: u64 = 6;
        let (plane, _rx) = start_plane(test_cfg());
        // A default queue and a `?rack=1` queue, no draining thread behind
        // either, each with room for one line per epoch.
        let agg = Arc::new(SubQueue::new(K as usize, None));
        let rack1 = Arc::new(SubQueue::new(K as usize, Some(1)));
        lock(&plane.shared.hub)
            .subs
            .extend([agg.clone(), rack1.clone()]);
        // Each epoch of a 4-rack site: the aggregate line, then one line
        // per rack.
        for k in 0..K {
            plane.publish(k, format!("{{\"epoch\":{k}}}"));
            for rack in 0..4 {
                plane.publish(k, format!("{{\"rack\":{rack},\"epoch\":{k}}}"));
            }
        }
        let held = |q: &SubQueue| -> Vec<String> {
            lock(&q.state).lines.iter().map(|l| l.to_string()).collect()
        };
        let want: Vec<String> = (0..K).map(|k| format!("{{\"epoch\":{k}}}")).collect();
        assert_eq!(held(&agg), want);
        let want: Vec<String> = (0..K)
            .map(|k| format!("{{\"rack\":1,\"epoch\":{k}}}"))
            .collect();
        assert_eq!(held(&rack1), want);
        assert_eq!(plane.counters().subscriber_drops, 0);
        plane.stop();
    }

    #[test]
    fn subscriber_replay_is_gap_free_across_file_ring_and_live() {
        let dir = std::env::temp_dir().join("gs_net_replay_test");
        let _ = std::fs::create_dir_all(&dir);
        let metrics = dir.join("metrics.jsonl");
        // Epochs 0..=2 durable in the file only.
        let mut text = String::new();
        for k in 0..3u64 {
            text.push_str(&format!("{{\"epoch\":{k},\"src\":\"file\"}}\n"));
        }
        std::fs::write(&metrics, text).unwrap();
        let (tx, _rx) = mpsc::sync_channel(64);
        let cfg = NetConfig {
            replay_ring_cap: 16,
            ..test_cfg()
        };
        let plane = NetPlane::start(&cfg, tx, Some(metrics.clone())).expect("plane binds");
        let addr = plane.addrs.listen.unwrap();
        // Epochs 3..=5 in the ring (published before the subscriber).
        for k in 3..6u64 {
            plane.publish(k, format!("{{\"epoch\":{k},\"src\":\"ring\"}}"));
        }
        let collector = std::thread::spawn(move || {
            subscribe_collect(addr, Some(0), Duration::from_secs(5)).expect("collect")
        });
        wait_until("subscriber registered", || plane.subscriber_count() == 1);
        // Epochs 6..=7 live.
        for k in 6..8u64 {
            plane.publish(k, format!("{{\"epoch\":{k},\"src\":\"live\"}}"));
        }
        let summary = plane.stop(); // flushes and closes the subscriber
        let lines = collector.join().expect("collector thread");
        let epochs: Vec<u64> = lines.iter().filter_map(|l| line_epoch(l)).collect();
        assert_eq!(
            epochs,
            (0..8).collect::<Vec<u64>>(),
            "gap-free across file, ring, and live: {lines:?}"
        );
        assert_eq!(summary.subscribers, 1);
        assert_eq!(summary.subscriber_drops, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_file_line_is_skipped_without_a_gap() {
        // A SIGKILL mid-write leaves the durable metrics file ending in
        // a torn (truncated-JSON) line. The file replay must skip the
        // fragment — `line_epoch` refuses it — and the ring re-serves
        // that epoch intact, so `?from_epoch=0` stays gap-free and no
        // corrupt bytes ever reach a subscriber.
        let dir = std::env::temp_dir().join("gs_net_torn_test");
        let _ = std::fs::create_dir_all(&dir);
        let metrics = dir.join("metrics.jsonl");
        let mut text = String::new();
        for k in 0..5u64 {
            text.push_str(&format!("{{\"epoch\":{k},\"src\":\"file\"}}\n"));
        }
        text.push_str("{\"epoch\":5,\"src\":\"fi"); // torn: no close, no newline
        std::fs::write(&metrics, text).unwrap();
        let (tx, _rx) = mpsc::sync_channel(64);
        let cfg = NetConfig {
            replay_ring_cap: 4,
            ..test_cfg()
        };
        let plane = NetPlane::start(&cfg, tx, Some(metrics.clone())).expect("plane binds");
        let addr = plane.addrs.listen.unwrap();
        // The epoch the torn line belonged to, plus its successors, all
        // land in the ring before the subscriber connects.
        for k in 5..9u64 {
            plane.publish(k, format!("{{\"epoch\":{k},\"src\":\"ring\"}}"));
        }
        let collector = std::thread::spawn(move || {
            subscribe_collect(addr, Some(0), Duration::from_secs(5)).expect("collect")
        });
        wait_until("subscriber registered", || plane.subscriber_count() == 1);
        plane.stop();
        let lines = collector.join().expect("collector thread");
        let epochs: Vec<u64> = lines.iter().filter_map(|l| line_epoch(l)).collect();
        assert_eq!(
            epochs,
            (0..9).collect::<Vec<u64>>(),
            "gap-free despite the torn tail: {lines:?}"
        );
        assert!(
            lines.iter().all(|l| l.ends_with('}')),
            "the torn fragment leaked to a subscriber: {lines:?}"
        );
        assert_eq!(
            line_epoch("{\"epoch\":5,\"src\":\"fi"),
            None,
            "a torn line must never parse to an epoch"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admin_status_and_drain_enforce_the_shared_secret() {
        let cfg = NetConfig {
            admin_token: Some("s3cret".to_string()),
            ..test_cfg()
        };
        let (plane, _rx) = start_plane(cfg);
        let addr = plane.addrs.listen.unwrap();
        let t = Duration::from_secs(2);
        assert_eq!(
            admin_request(addr, "STATUS wrong", t).unwrap(),
            "err unauthorized"
        );
        assert_eq!(
            admin_request(addr, "DRAIN wrong", t).unwrap(),
            "err unauthorized"
        );
        assert!(!plane.drain_requested());
        let status = admin_request(addr, "STATUS s3cret", t).unwrap();
        assert!(status.starts_with('{'), "{status}");
        let v: serde_json::Value = serde_json::from_str(&status).unwrap();
        assert_eq!(
            v.get("role").and_then(|r| r.as_str()),
            Some("greensprint-serve")
        );
        let rejects = v
            .get("net")
            .and_then(|n| n.get("auth_rejects"))
            .and_then(|r| r.as_number())
            .and_then(|n| n.as_u64());
        assert_eq!(rejects, Some(2));
        assert_eq!(admin_request(addr, "DRAIN s3cret", t).unwrap(), "ok drain");
        wait_until("drain latched", || plane.drain_requested());
        let summary = plane.stop();
        assert_eq!(summary.auth_rejects, 2);
        assert_eq!(summary.drain_requests, 1);
    }

    #[test]
    fn sub_options_parse_each_shape_and_reject_garbage() {
        assert_eq!(parse_sub_options(None), Some(SubOptions::default()));
        assert_eq!(
            parse_sub_options(Some("?from_epoch=7")),
            Some(SubOptions {
                from_epoch: Some(7),
                rack: None
            })
        );
        assert_eq!(
            parse_sub_options(Some("?rack=2")),
            Some(SubOptions {
                from_epoch: None,
                rack: Some(2)
            })
        );
        assert_eq!(
            parse_sub_options(Some("?rack=2&from_epoch=7")),
            Some(SubOptions {
                from_epoch: Some(7),
                rack: Some(2)
            })
        );
        for bad in ["from_epoch=7", "?from_epoch=x", "?rack=", "?bogus=1"] {
            assert_eq!(parse_sub_options(Some(bad)), None, "{bad}");
        }
    }

    #[test]
    fn rack_verbs_queue_requests_and_enforce_the_shared_secret() {
        let cfg = NetConfig {
            admin_token: Some("s3cret".to_string()),
            ..test_cfg()
        };
        let (plane, _rx) = start_plane(cfg);
        let addr = plane.addrs.listen.unwrap();
        let t = Duration::from_secs(2);
        assert_eq!(
            admin_request(addr, "KILL-RACK 1 wrong", t).unwrap(),
            "err unauthorized"
        );
        assert_eq!(
            admin_request(addr, "KILL-RACK zero s3cret", t).unwrap(),
            "err bad rack"
        );
        assert_eq!(
            admin_request(addr, "KILL-RACK 1 s3cret", t).unwrap(),
            "ok kill-rack 1"
        );
        assert_eq!(
            admin_request(addr, "RESTART-RACK 3 s3cret", t).unwrap(),
            "ok restart-rack 3"
        );
        let (kills, readmits) = plane.shared.take_rack_requests();
        assert_eq!(kills, vec![1]);
        assert_eq!(readmits, vec![3]);
        let (kills, readmits) = plane.shared.take_rack_requests();
        assert!(kills.is_empty() && readmits.is_empty(), "take drains");
        let summary = plane.stop();
        assert_eq!(summary.kill_rack_requests, 1);
        assert_eq!(summary.restart_rack_requests, 1);
        assert_eq!(summary.auth_rejects, 1);
    }

    #[test]
    fn rack_topic_lines_are_filtered_by_subscription() {
        // Each queue holds only its own topic, so a cap of one line per
        // epoch covers the burst even if no writer thread drains a line
        // before the last publish: a drop here would lose a line.
        let (plane, _rx) = start_plane(NetConfig {
            sub_queue_cap: 3,
            ..test_cfg()
        });
        let addr = plane.addrs.listen.unwrap();
        let agg = std::thread::spawn(move || {
            subscribe_collect(addr, None, Duration::from_secs(5)).expect("collect")
        });
        let rack1 = std::thread::spawn(move || {
            let s = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut w = s.try_clone().unwrap();
            writeln!(w, "SUB ?from_epoch=0&rack=1").unwrap();
            let mut r = BufReader::new(s);
            let mut out = Vec::new();
            loop {
                let mut line = String::new();
                match r.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => out.push(line.trim_end().to_string()),
                }
            }
            out
        });
        wait_until("subscribers registered", || plane.subscriber_count() == 2);
        for k in 0..3u64 {
            plane.publish(k, format!("{{\"epoch\":{k},\"src\":\"agg\"}}"));
            for rack in 0..2u64 {
                plane.publish(k, format!("{{\"rack\":{rack},\"epoch\":{k}}}"));
            }
        }
        plane.stop();
        let agg_lines = agg.join().expect("agg thread");
        assert_eq!(agg_lines.len(), 3, "{agg_lines:?}");
        assert!(agg_lines.iter().all(|l| l.contains("\"src\":\"agg\"")));
        let rack_lines = rack1.join().expect("rack thread");
        assert_eq!(rack_lines.len(), 3, "{rack_lines:?}");
        assert!(rack_lines.iter().all(|l| l.starts_with("{\"rack\":1,")));
    }

    #[test]
    fn drain_without_a_configured_token_is_always_refused() {
        let (plane, _rx) = start_plane(test_cfg());
        let addr = plane.addrs.listen.unwrap();
        let t = Duration::from_secs(2);
        // Read-only status is open without a secret; the mutating verb
        // is not.
        let status = admin_request(addr, "STATUS", t).unwrap();
        assert!(status.starts_with('{'), "{status}");
        assert_eq!(
            admin_request(addr, "DRAIN anything", t).unwrap(),
            "err unauthorized"
        );
        assert!(!plane.drain_requested());
        let summary = plane.stop();
        assert_eq!(summary.auth_rejects, 1);
        assert_eq!(summary.drain_requests, 0);
    }

    #[test]
    fn a_fault_storm_never_panics_the_plane_and_exercises_counters() {
        let cfg = NetConfig {
            admin_token: Some("s3cret".to_string()),
            max_conns: 3,
            ..test_cfg()
        };
        let (plane, rx) = start_plane(cfg);
        let addr = plane.addrs.listen.unwrap();
        let plan = NetFaultPlan::generate(7, 6, 128, 300);
        let rep = run_fault_plan(addr, &plan);
        assert_eq!(rep.ops_run, plan.ops.len());
        // Publish a few lines so killed subscribers have something to miss.
        for k in 0..20u64 {
            plane.publish(k, format!("{{\"epoch\":{k}}}"));
            std::thread::sleep(Duration::from_millis(5));
        }
        while rx.try_recv().is_ok() {}
        wait_until("storm counters", || {
            let c = plane.counters();
            c.frames_received >= 1 && c.malformed_frames >= 2 && c.auth_rejects >= 1
        });
        let summary = plane.stop();
        assert!(summary.conns_accepted >= 5, "{summary:?}");
        assert!(summary.subscribers >= 1, "{summary:?}");
        assert_eq!(summary.drain_requests, 0, "bad tokens must not drain");
    }
}
