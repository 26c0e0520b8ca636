//! The datacenter broker: deterministic cross-rack load balancing with
//! site-level fault domains.
//!
//! The paper provisions renewables "on the PDU level … in a data center on
//! a per-rack basis" (§II). [`crate::datacenter`] runs those racks as
//! independent experiments; this module makes them a *fleet*: a broker
//! steps every rack through the scheduling-epoch loop in lockstep and
//! routes the datacenter's offered load toward the racks with renewable
//! surplus, while tolerating the site-level failures a real control plane
//! sees — rack blackouts, inverter derates, broker↔rack partitions, lossy
//! and laggy links ([`crate::faults::FaultKind::RackBlackout`] and
//! friends).
//!
//! # Architecture
//!
//! Each rack runs the unmodified engine epoch loop on its own OS thread,
//! driven through the engine's `EpochHooks` seam: at the top of
//! every epoch the rack blocks on a broker *directive* (its routed load
//! factor for the epoch), and after the epoch settles it reports
//! telemetry (believed supply, battery state of charge, live servers,
//! demand) back to the broker. The broker:
//!
//! 1. computes a *conserved* allocation — per-rack load factors summing
//!    exactly to the rack count — from last epoch's telemetry, favouring
//!    racks with renewable surplus;
//! 2. pushes each directive through a simulated control link (partition,
//!    loss with seeded retries and [`crate::supervisor::backoff_ms`]
//!    virtual latency, delay serving stale factors);
//! 3. collects telemetry in rack-index order and audits the settled epoch
//!    with [`crate::audit::InvariantAuditor::check_site_epoch`].
//!
//! A partitioned rack receives nothing and degrades to *local autonomy*:
//! it holds its last-good factor, which by construction keeps it at or
//! above the Normal floor (the Normal baseline replays the identical
//! applied factors). After the link heals the rack stays pinned for
//! [`crate::engine::REJOIN_EPOCHS`] probationary epochs — mirroring the
//! fleet's server-rejoin hysteresis — before fresh allocations resume.
//!
//! # Determinism and durability
//!
//! Results are byte-identical at any `jobs` level: concurrency only bounds
//! how many racks compute an epoch simultaneously (a counting gate), while
//! every RNG draw and every aggregation happens on the broker thread in
//! rack-index order. Mid-run [`DatacenterSnapshot`]s capture the broker
//! state plus every rack's [`LoopState`] at the same epoch boundary, so a
//! run killed mid-partition resumes to a byte-identical outcome.

use crate::audit::{InvariantAuditor, SiteFlows};
use crate::checkpoint::{fingerprint, LoopState, DC_CHECKPOINT_SCHEMA};
use crate::datacenter::{DatacenterConfig, DatacenterOutcome};
use crate::engine::{
    run_once_resumable, BurstOutcome, EngineConfig, EpochHooks, EpochRecord, MeasurementMode,
    TickDirective, REJOIN_EPOCHS,
};
use crate::faults::{FaultEvent, FaultKind, FaultPlan};
use crate::fleet::EngineScratch;
use crate::pmk::Strategy;
use crate::profiler::ProfileTable;
use crate::supervisor::{backoff_ms, panic_message};
use gs_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, PoisonError};

/// EWMA-style smoothing weight on the surplus-driven share: a factor is
/// `(1 − β)` of an even split plus `β` of the rack's surplus share, so
/// routing follows the sun without whiplashing the fleet.
const ROUTE_BETA: f64 = 0.3;
/// Watts of routable surplus one fully charged battery is credited with
/// when scoring racks (battery headroom counts toward surplus, scaled by
/// state of charge and rack size).
const SOC_WEIGHT_W: f64 = 50.0;
/// Directive retransmissions the broker attempts on a lossy link before
/// declaring the epoch's directive lost.
const LINK_RETRIES: u32 = 3;
/// Salt for the broker's link-loss RNG stream ("link!"), keeping it
/// decorrelated from every engine and generator stream.
const LINK_SALT: u64 = 0x006c_696e_6b21;
/// A computed factor at or below this is treated as "drained" when
/// counting re-routed epochs. Shared with [`crate::serve`]'s multi-rack
/// orchestrator so both planes count reroutes identically.
pub(crate) const REROUTE_EPS: f64 = 0.01;

/// The broker's belief about one rack, refreshed from telemetry each
/// epoch (or held stale across a partition).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RackBelief {
    /// Believed renewable supply (W).
    pub re_supply_w: f64,
    /// Mean battery state of charge.
    pub battery_soc: f64,
    /// Servers carrying load.
    pub live_servers: usize,
    /// Settled power demand (W).
    pub demand_w: f64,
    /// Goodput summed over the rack (req/s).
    pub goodput_rps: f64,
    /// True while the belief is held over from before a partition.
    pub stale: bool,
}

impl RackBelief {
    /// The pre-telemetry belief for a healthy rack of `n` servers.
    pub(crate) fn initial(n: usize) -> Self {
        RackBelief {
            re_supply_w: 0.0,
            battery_soc: 1.0,
            live_servers: n,
            demand_w: 0.0,
            goodput_rps: 0.0,
            stale: true,
        }
    }
}

/// Per-rack routing statistics, summarized into the outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RackRouteStats {
    /// Mean applied load factor over the run.
    pub mean_factor: f64,
    /// Smallest applied load factor in any epoch.
    pub min_factor: f64,
    /// Largest applied load factor in any epoch.
    pub max_factor: f64,
    /// Epochs this rack spent partitioned from the broker.
    pub partition_epochs: usize,
    /// Epochs this rack ran degraded (partitioned, on probation, or with
    /// its directive lost) — applying a held factor instead of a fresh
    /// allocation.
    pub degraded_epochs: usize,
}

/// Every piece of mutable state the broker carries across epochs.
/// Snapshotting it alongside each rack's [`LoopState`] and restoring both
/// later continues the datacenter run byte-identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BrokerState {
    /// The next epoch index to execute.
    pub next_epoch: u64,
    /// The link-loss RNG stream position.
    pub link_rng: SimRng,
    /// Per-rack beliefs from the latest telemetry.
    pub beliefs: Vec<RackBelief>,
    /// True once the first epoch's telemetry has been ingested.
    pub has_telemetry: bool,
    /// Per-rack pinned factor while partitioned or on rejoin probation.
    pub pinned: Vec<Option<f64>>,
    /// Per-rack probationary epochs left before rejoining routing.
    pub probation_left: Vec<u32>,
    /// Computed (conserved) factors, one row per epoch.
    pub computed: Vec<Vec<f64>>,
    /// Applied factors — what each rack actually ran — one row per epoch.
    pub applied: Vec<Vec<f64>>,
    /// Per-rack epochs spent partitioned.
    pub per_rack_partition: Vec<usize>,
    /// Per-rack epochs spent degraded (partition + probation + lost
    /// directives).
    pub per_rack_degraded: Vec<usize>,
    /// Rack-epochs spent inside an active blackout event.
    pub blackout_epochs: usize,
    /// Rack-epochs that applied a stale (link-delayed) factor.
    pub stale_factor_epochs: usize,
    /// Epochs in which load was re-routed away from a drained rack.
    pub rerouted_epochs: usize,
    /// Directive retransmissions attempted on lossy links.
    pub link_retries: usize,
    /// Virtual retransmission latency accumulated from
    /// [`backoff_ms`] (bookkeeping only — never part of results timing).
    pub link_latency_ms: u64,
    /// Racks re-admitted to routing after probation.
    pub rejoins: usize,
    /// Human-readable partition/degrade/rejoin log.
    pub site_events: Vec<String>,
    /// Site-level audit violations so far.
    pub site_audit_violations: Vec<String>,
}

impl BrokerState {
    /// A fresh broker for `n` racks under `master_seed`.
    fn fresh(n: usize, master_seed: u64) -> Self {
        BrokerState {
            next_epoch: 0,
            link_rng: SimRng::seed_from_u64(master_seed ^ LINK_SALT),
            beliefs: Vec::new(),
            has_telemetry: false,
            pinned: vec![None; n],
            probation_left: vec![0; n],
            computed: Vec::new(),
            applied: Vec::new(),
            per_rack_partition: vec![0; n],
            per_rack_degraded: vec![0; n],
            blackout_epochs: 0,
            stale_factor_epochs: 0,
            rerouted_epochs: 0,
            link_retries: 0,
            link_latency_ms: 0,
            rejoins: 0,
            site_events: Vec::new(),
            site_audit_violations: Vec::new(),
        }
    }
}

/// A resumable mid-run checkpoint of a datacenter run: the broker state
/// plus every rack's engine [`LoopState`], captured at the same epoch
/// boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatacenterSnapshot {
    /// [`datacenter_fingerprint`] of the embedded configuration at
    /// capture time; resume recomputes and compares.
    pub fingerprint: String,
    /// The full datacenter configuration, embedded so resume is
    /// self-contained.
    pub cfg: DatacenterConfig,
    /// The broker's state as of the snapshot epoch.
    pub broker: BrokerState,
    /// Each rack's engine loop state, in rack order.
    pub racks: Vec<LoopState>,
}

impl DatacenterSnapshot {
    /// Serialize to JSON. Serialization of a plain data snapshot only
    /// fails on allocator-level trouble; the error is surfaced (not
    /// panicked) so a checkpoint writer can log and continue the run.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| format!("datacenter snapshot serialize: {e}"))
    }

    /// Parse a snapshot from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

/// The compatibility fingerprint a datacenter checkpoint is stamped with:
/// schema tag, crate version, and the configuration JSON. A resume across
/// a code or config change fails fast instead of continuing a run whose
/// physics changed underneath it.
pub fn datacenter_fingerprint(cfg: &DatacenterConfig) -> String {
    // A config that cannot serialize fingerprints as "" on both the
    // write and the resume side, so the comparison still behaves.
    let json = serde_json::to_string(cfg).unwrap_or_default();
    fingerprint(&[DC_CHECKPOINT_SCHEMA, env!("CARGO_PKG_VERSION"), &json])
}

/// The engine configuration rack `i` of `cfg` runs: the rack's
/// app/green/strategy over the template, the decorrelated-but-reproducible
/// per-rack seed, and the rack's translated fault plan.
pub(crate) fn rack_engine_config(cfg: &DatacenterConfig, i: usize) -> EngineConfig {
    let rack = &cfg.racks[i];
    EngineConfig {
        app: rack.app,
        green: rack.green.clone(),
        strategy: rack.strategy,
        seed: cfg.template.seed.wrapping_add(i as u64 * 0x9E37_79B9),
        fault_plan: translate_plan(cfg, i),
        ..cfg.template.clone()
    }
}

/// Build rack `i`'s engine-level fault plan from the template plan plus
/// the site plan: site kinds targeting this rack translate to engine
/// kinds (blackout → per-server crashes, derate → inverter derate),
/// rack-local kinds in the site plan replicate to every rack, and the
/// broker-side kinds (partition, link loss/delay) stay out of the engine
/// entirely.
fn translate_plan(cfg: &DatacenterConfig, rack: usize) -> Option<FaultPlan> {
    let n_servers = cfg.racks[rack].green.green_servers;
    let mut events: Vec<FaultEvent> = cfg
        .template
        .fault_plan
        .as_ref()
        .map(|p| p.events.clone())
        .unwrap_or_default();
    let mut seed = cfg.template.fault_plan.as_ref().map_or(0, |p| p.seed);
    if let Some(site) = &cfg.site_fault_plan {
        if !site.events.is_empty() {
            seed = site.seed;
        }
        for e in &site.events {
            match e.kind {
                FaultKind::RackBlackout { rack: r, epochs } if usize::from(r) == rack => {
                    // Server indices are u8; DatacenterConfig::validate
                    // bounds blackout-target rack sizes accordingly.
                    for s in 0..n_servers.min(usize::from(u8::MAX) + 1) {
                        events.push(FaultEvent {
                            at: e.at,
                            duration: e.duration,
                            kind: FaultKind::ServerCrash {
                                server: s as u8,
                                down_epochs: epochs,
                            },
                        });
                    }
                }
                FaultKind::RackInverterDerate { rack: r, factor } if usize::from(r) == rack => {
                    events.push(FaultEvent {
                        at: e.at,
                        duration: e.duration,
                        kind: FaultKind::InverterDerate { factor },
                    });
                }
                ref k if k.is_site() => {} // other racks', or broker-side
                _ => events.push(*e),      // rack-local kinds replicate
            }
        }
    }
    (!events.is_empty()).then_some(FaultPlan { seed, events })
}

/// The epoch index containing `at` (clamped to the window start).
fn epoch_of(at: SimTime, start: SimTime, epoch: SimDuration) -> u64 {
    at.since(start).div_duration(epoch).unwrap_or(0)
}

/// True if a [`FaultKind::BrokerPartition`] on `rack` covers epoch `k`.
/// Epoch-counted faults start at the epoch containing the event start.
fn partitioned(site: &FaultPlan, k: u64, rack: usize, start: SimTime, epoch: SimDuration) -> bool {
    site.events.iter().any(|e| match e.kind {
        FaultKind::BrokerPartition { rack: r, epochs } if usize::from(r) == rack => {
            let e0 = epoch_of(e.at, start, epoch);
            k >= e0 && k < e0.saturating_add(u64::from(epochs))
        }
        _ => false,
    })
}

/// True if a [`FaultKind::RackBlackout`] on `rack` covers epoch `k`.
fn blackout_active(
    site: &FaultPlan,
    k: u64,
    rack: usize,
    start: SimTime,
    epoch: SimDuration,
) -> bool {
    site.events.iter().any(|e| match e.kind {
        FaultKind::RackBlackout { rack: r, epochs } if usize::from(r) == rack => {
            let e0 = epoch_of(e.at, start, epoch);
            k >= e0 && k < e0.saturating_add(u64::from(epochs))
        }
        _ => false,
    })
}

/// The loss probability of the first [`FaultKind::LinkLoss`] event on
/// `rack` overlapping epoch `k`'s window, if any.
fn link_loss_p(
    site: &FaultPlan,
    k: u64,
    rack: usize,
    start: SimTime,
    epoch: SimDuration,
) -> Option<f64> {
    let from = start + SimDuration::from_micros(epoch.as_micros() * k);
    let to = from + epoch;
    site.events.iter().find_map(|e| match e.kind {
        FaultKind::LinkLoss { rack: r, p } if usize::from(r) == rack && e.overlaps(from, to) => {
            Some(p)
        }
        _ => None,
    })
}

/// The delivery lag of the first [`FaultKind::LinkDelay`] event on `rack`
/// overlapping epoch `k`'s window, if any.
fn link_delay(
    site: &FaultPlan,
    k: u64,
    rack: usize,
    start: SimTime,
    epoch: SimDuration,
) -> Option<u32> {
    let from = start + SimDuration::from_micros(epoch.as_micros() * k);
    let to = from + epoch;
    site.events.iter().find_map(|e| match e.kind {
        FaultKind::LinkDelay { rack: r, epochs }
            if usize::from(r) == rack && e.overlaps(from, to) =>
        {
            Some(epochs)
        }
        _ => None,
    })
}

/// A counting gate bounding how many racks compute an epoch
/// simultaneously. Purely a concurrency throttle: acquisition order never
/// influences results, because the broker aggregates in rack-index order.
struct JobGate {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl JobGate {
    fn new(n: usize) -> Self {
        JobGate {
            permits: Mutex::new(n.max(1)),
            cv: Condvar::new(),
        }
    }

    // The gate only ever holds a counter, so a poisoned lock (some rack
    // panicked while holding it) still carries a usable value: ride the
    // poison rather than cascading the panic into every sibling rack.
    fn acquire(&self) {
        let mut p = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        while *p == 0 {
            p = self.cv.wait(p).unwrap_or_else(PoisonError::into_inner);
        }
        *p -= 1;
    }

    fn release(&self) {
        *self.permits.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.cv.notify_one();
    }
}

/// What the broker delivers to a rack for one epoch.
enum RackDirective {
    /// The routed load factor arrived.
    Deliver(f64),
    /// Nothing arrived (partition, or retries exhausted on a lossy
    /// link): the rack degrades to local autonomy.
    Lost,
}

/// What a rack sends back to the broker.
enum RackMsg {
    /// A captured loop state at a snapshot boundary.
    Snapshot(Box<LoopState>),
    /// One settled epoch's telemetry.
    Report(EpochRecord),
}

/// The rack-side epoch driver: block for the directive, apply it (or
/// hold the last-good factor on a lost link), and report telemetry.
struct RackHooks<'a> {
    dir_rx: mpsc::Receiver<RackDirective>,
    msg_tx: mpsc::Sender<RackMsg>,
    gate: &'a JobGate,
    /// Last factor actually applied — the rack's local autonomy when a
    /// directive is lost.
    last_factor: f64,
}

impl EpochHooks for RackHooks<'_> {
    fn before_epoch(&mut self, _k: u64, _t: SimTime) -> TickDirective {
        // A closed directive channel means the broker died mid-run. The
        // rack degrades to local autonomy (exactly as for a lost link)
        // and runs its window out, so the broker's error path can still
        // join every rack and report one coherent failure.
        let dir = self.dir_rx.recv().unwrap_or(RackDirective::Lost);
        self.gate.acquire();
        let f = match dir {
            RackDirective::Deliver(f) => {
                self.last_factor = f;
                f
            }
            RackDirective::Lost => self.last_factor,
        };
        TickDirective {
            load_factor: Some(f),
            ..TickDirective::default()
        }
    }

    fn after_epoch(
        &mut self,
        _k: u64,
        rec: &EpochRecord,
        _s: &[gs_cluster::ServerSetting],
    ) -> bool {
        self.gate.release();
        let _ = self.msg_tx.send(RackMsg::Report(*rec));
        true
    }

    fn on_snapshot(&mut self, state: &LoopState) {
        let _ = self.msg_tx.send(RackMsg::Snapshot(Box::new(state.clone())));
    }
}

/// The baseline driver: replay the applied factors of the strategy run so
/// the Normal floor is judged like-for-like through blackouts and
/// partitions. (Serve's floor judgment replays whole directive rows —
/// supply overrides and stale flags too — through its own hooks.)
pub(crate) struct ReplayHooks<'a> {
    pub(crate) factors: &'a [f64],
}

impl EpochHooks for ReplayHooks<'_> {
    fn before_epoch(&mut self, k: u64, _t: SimTime) -> TickDirective {
        TickDirective {
            load_factor: Some(self.factors.get(k as usize).copied().unwrap_or(1.0)),
            ..TickDirective::default()
        }
    }
}

/// Compute the conserved allocation for the next epoch from the current
/// beliefs: factors sum to exactly the rack count, dark racks get zero
/// (their load re-routes to survivors), and each survivor's share blends
/// an even split with its renewable-surplus share.
fn compute_factors(st: &BrokerState, cfg: &DatacenterConfig) -> Vec<f64> {
    let rack_servers: Vec<usize> = cfg.racks.iter().map(|r| r.green.green_servers).collect();
    conserved_factors(&st.beliefs, &rack_servers, st.has_telemetry)
}

/// The conserved-allocation core shared by the batch broker and
/// [`crate::serve`]'s orchestrator: given per-rack beliefs
/// and rack sizes, produce factors summing to exactly the rack count,
/// with dark racks at zero and survivors blending an even split with
/// their renewable-surplus share.
pub(crate) fn conserved_factors(
    beliefs: &[RackBelief],
    rack_servers: &[usize],
    has_telemetry: bool,
) -> Vec<f64> {
    let n = beliefs.len();
    if !has_telemetry {
        return vec![1.0; n];
    }
    let scores: Vec<f64> = beliefs
        .iter()
        .enumerate()
        .map(|(r, b)| {
            if b.live_servers == 0 {
                0.0
            } else {
                let n_srv = rack_servers.get(r).copied().unwrap_or(1) as f64;
                let live_frac = b.live_servers as f64 / n_srv.max(1.0);
                (b.re_supply_w.max(0.0) + SOC_WEIGHT_W * b.battery_soc.clamp(0.0, 1.0) * n_srv)
                    * live_frac
            }
        })
        .collect();
    let alive: Vec<usize> = (0..n).filter(|&r| beliefs[r].live_servers > 0).collect();
    if alive.is_empty() {
        // The whole fleet is believed dark: there is nowhere to shed load,
        // so every rack keeps its nominal share.
        return vec![1.0; n];
    }
    let m = alive.len() as f64;
    let total: f64 = alive.iter().map(|&r| scores[r]).sum();
    let mut factors = vec![0.0; n];
    for &r in &alive {
        let share = if total > 0.0 {
            scores[r] / total
        } else {
            1.0 / m
        };
        factors[r] = n as f64 * ((1.0 - ROUTE_BETA) / m + ROUTE_BETA * share);
    }
    factors
}

/// Run the datacenter through the stepped broker without snapshots.
pub fn try_run_datacenter(
    cfg: &DatacenterConfig,
    jobs: usize,
) -> Result<DatacenterOutcome, String> {
    run_datacenter_with_snapshots(cfg, jobs, 0, &mut |_| {})
}

/// Run the datacenter through the stepped broker, emitting a resumable
/// [`DatacenterSnapshot`] at every `snapshot_every`-th epoch boundary
/// (0 = never). Snapshots capture the full controller state, which the
/// DES measurement plane cannot serialize — `snapshot_every > 0` requires
/// [`MeasurementMode::Analytic`].
pub fn run_datacenter_with_snapshots(
    cfg: &DatacenterConfig,
    jobs: usize,
    snapshot_every: u64,
    sink: &mut dyn FnMut(&DatacenterSnapshot),
) -> Result<DatacenterOutcome, String> {
    cfg.validate()?;
    run_stepped(cfg, jobs, snapshot_every, None, sink)
}

/// Resume a checkpointed datacenter run from its snapshot, finishing with
/// output byte-identical to the uninterrupted run. Continues emitting
/// snapshots at the same cadence through `sink`.
pub fn resume_datacenter_snapshot(
    snap: DatacenterSnapshot,
    jobs: usize,
    snapshot_every: u64,
    sink: &mut dyn FnMut(&DatacenterSnapshot),
) -> Result<DatacenterOutcome, String> {
    let expected = datacenter_fingerprint(&snap.cfg);
    if snap.fingerprint != expected {
        return Err(format!(
            "checkpoint fingerprint {} does not match this build/config ({expected}); \
             the code or configuration changed since the checkpoint was written",
            snap.fingerprint
        ));
    }
    let cfg = snap.cfg.clone();
    cfg.validate()?;
    if snap.racks.len() != cfg.racks.len() || snap.broker.pinned.len() != cfg.racks.len() {
        return Err("checkpoint rack count does not match its configuration".to_string());
    }
    run_stepped(
        &cfg,
        jobs,
        snapshot_every,
        Some((snap.broker, snap.racks)),
        sink,
    )
}

/// The broker loop plus the per-rack baseline replays. `resume` restarts
/// from a snapshot's broker state and rack loop states.
fn run_stepped(
    cfg: &DatacenterConfig,
    jobs: usize,
    snapshot_every: u64,
    resume: Option<(BrokerState, Vec<LoopState>)>,
    sink: &mut dyn FnMut(&DatacenterSnapshot),
) -> Result<DatacenterOutcome, String> {
    if snapshot_every > 0 && cfg.template.measurement != MeasurementMode::Analytic {
        return Err(
            "datacenter snapshots capture full controller state and require analytic \
             measurement mode"
                .to_string(),
        );
    }
    let n = cfg.racks.len();
    let jobs = jobs.max(1);
    let start = SimTime::from_secs_f64(cfg.template.burst_start_hour * 3_600.0);
    let epoch = cfg.template.epoch;
    let n_epochs = cfg.template.burst_duration.div_duration(epoch).unwrap_or(0);
    let rack_cfgs: Vec<EngineConfig> = (0..n).map(|i| rack_engine_config(cfg, i)).collect();
    let empty_site = FaultPlan::default();
    let site = cfg.site_fault_plan.as_ref().unwrap_or(&empty_site);
    let fp = datacenter_fingerprint(cfg);

    let (mut st, rack_resume) = match resume {
        Some((broker, racks)) => (broker, Some(racks)),
        None => {
            let mut s = BrokerState::fresh(n, cfg.template.seed);
            s.beliefs = (0..n)
                .map(|r| RackBelief::initial(cfg.racks[r].green.green_servers))
                .collect();
            (s, None)
        }
    };
    let start_k = st.next_epoch;
    if let Some(states) = &rack_resume {
        if states.iter().any(|s| s.next_epoch != start_k) {
            return Err("checkpoint rack states are not aligned with the broker epoch".to_string());
        }
    }

    let gate = JobGate::new(jobs);
    let mut dir_txs: Vec<mpsc::Sender<RackDirective>> = Vec::with_capacity(n);
    let mut msg_rxs: Vec<mpsc::Receiver<RackMsg>> = Vec::with_capacity(n);
    // One arena per rack, lent to its strategy thread and then to its
    // baseline replay, which re-measures the points the strategy pass
    // already solved (the analytic cache carries over between them).
    let mut scratches: Vec<EngineScratch> = (0..n).map(|_| EngineScratch::new()).collect();

    let mains: Result<Vec<(BurstOutcome, crate::monitor::Monitor, Option<String>)>, String> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = scratches
                .iter_mut()
                .enumerate()
                .map(|(i, scratch)| {
                    let cfg_i = rack_cfgs[i].clone();
                    let (dtx, drx) = mpsc::channel();
                    let (mtx, mrx) = mpsc::channel();
                    dir_txs.push(dtx);
                    msg_rxs.push(mrx);
                    let resume_i = rack_resume.as_ref().map(|v| v[i].clone());
                    // On resume the rack's local-autonomy factor is the
                    // last applied one, exactly what the uninterrupted
                    // rack thread would be holding.
                    let last_factor = st.applied.last().map_or(1.0, |row| row[i]);
                    let gate = &gate;
                    scope.spawn(move || {
                        let profiles = ProfileTable::cached(cfg_i.app);
                        let mut hooks = RackHooks {
                            dir_rx: drx,
                            msg_tx: mtx,
                            gate,
                            last_factor,
                        };
                        run_once_resumable(
                            &cfg_i,
                            cfg_i.strategy,
                            profiles,
                            resume_i,
                            snapshot_every,
                            &mut |_| {},
                            scratch,
                            &mut hooks,
                        )
                    })
                })
                .collect();

            // A rack death (panicked worker, closed channel, protocol
            // slip) aborts the epoch loop with a typed failure; the
            // joined panic messages are appended below so the caller
            // sees one coherent error instead of a broker panic.
            let mut failure: Option<String> = None;
            'epochs: for k in start_k..n_epochs {
                // Snapshot boundary: every rack captures its LoopState at
                // the top of epoch k (before receiving the directive), so
                // the broker pairs those captures with its own
                // pre-epoch-k state.
                if snapshot_every > 0 && k > start_k && k % snapshot_every == 0 {
                    let mut rack_states = Vec::with_capacity(n);
                    for (r, rx) in msg_rxs.iter().enumerate() {
                        match rx.recv() {
                            Ok(RackMsg::Snapshot(s)) => rack_states.push(*s),
                            Ok(RackMsg::Report(_)) => {
                                failure = Some(format!(
                                    "protocol error: rack {r} sent telemetry in place of its \
                                     epoch {k} boundary snapshot"
                                ));
                                break 'epochs;
                            }
                            Err(_) => {
                                failure = Some(format!(
                                    "rack {r} disconnected at the epoch {k} snapshot boundary"
                                ));
                                break 'epochs;
                            }
                        }
                    }
                    sink(&DatacenterSnapshot {
                        fingerprint: fp.clone(),
                        cfg: cfg.clone(),
                        broker: st.clone(),
                        racks: rack_states,
                    });
                }

                let computed_k = compute_factors(&st, cfg);
                let mut applied_k = vec![0.0; n];
                for r in 0..n {
                    let prev_applied = st.applied.last().map_or(1.0, |row| row[r]);
                    if blackout_active(site, k, r, start, epoch) {
                        st.blackout_epochs += 1;
                    }
                    let (directive, applied) = if partitioned(site, k, r, start, epoch) {
                        if st.pinned[r].is_none() {
                            st.pinned[r] = Some(prev_applied);
                            st.site_events.push(format!(
                                "epoch {k}: rack {r} partitioned from broker; local autonomy \
                                 holds factor {prev_applied:.3}"
                            ));
                        }
                        st.probation_left[r] = REJOIN_EPOCHS;
                        st.per_rack_partition[r] += 1;
                        st.per_rack_degraded[r] += 1;
                        (RackDirective::Lost, prev_applied)
                    } else if let Some(pin) = st.pinned[r] {
                        if st.probation_left[r] == REJOIN_EPOCHS {
                            st.site_events.push(format!(
                                "epoch {k}: rack {r} link healed; {REJOIN_EPOCHS} probationary \
                                 epoch(s) at held factor {pin:.3}"
                            ));
                        }
                        st.probation_left[r] = st.probation_left[r].saturating_sub(1);
                        st.per_rack_degraded[r] += 1;
                        if st.probation_left[r] == 0 {
                            st.pinned[r] = None;
                            st.rejoins += 1;
                            st.site_events
                                .push(format!("epoch {k}: rack {r} rejoined routing"));
                        }
                        (RackDirective::Deliver(pin), pin)
                    } else if let Some(p) = link_loss_p(site, k, r, start, epoch) {
                        let mut lost_all = true;
                        for attempt in 0..=LINK_RETRIES {
                            if !st.link_rng.chance(p) {
                                lost_all = false;
                                break;
                            }
                            if attempt < LINK_RETRIES {
                                st.link_retries += 1;
                                st.link_latency_ms += backoff_ms(attempt);
                            }
                        }
                        if lost_all {
                            st.per_rack_degraded[r] += 1;
                            st.site_events.push(format!(
                                "epoch {k}: rack {r} directive lost after {LINK_RETRIES} \
                                 retries; local autonomy holds factor {prev_applied:.3}"
                            ));
                            (RackDirective::Lost, prev_applied)
                        } else {
                            (RackDirective::Deliver(computed_k[r]), computed_k[r])
                        }
                    } else if let Some(d) = link_delay(site, k, r, start, epoch) {
                        st.stale_factor_epochs += 1;
                        let f = if k >= u64::from(d) {
                            let row = (k - u64::from(d)) as usize;
                            st.computed.get(row).map_or(1.0, |c| c[r])
                        } else {
                            1.0
                        };
                        (RackDirective::Deliver(f), f)
                    } else {
                        (RackDirective::Deliver(computed_k[r]), computed_k[r])
                    };
                    applied_k[r] = applied;
                    if dir_txs[r].send(directive).is_err() {
                        failure = Some(format!(
                            "rack {r} disconnected receiving its epoch {k} directive"
                        ));
                        break 'epochs;
                    }
                }
                if computed_k.iter().any(|&f| f <= REROUTE_EPS)
                    && computed_k.iter().any(|&f| f > 1.0 + REROUTE_EPS)
                {
                    st.rerouted_epochs += 1;
                }
                st.computed.push(computed_k.clone());
                st.applied.push(applied_k);

                // Telemetry in rack-index order: the aggregation order —
                // not thread completion order — defines the result.
                for (r, rx) in msg_rxs.iter().enumerate() {
                    let rec = match rx.recv() {
                        Ok(RackMsg::Report(rec)) => rec,
                        Ok(RackMsg::Snapshot(_)) => {
                            failure = Some(format!(
                                "protocol error: rack {r} sent a snapshot in place of its \
                                 epoch {k} telemetry"
                            ));
                            break 'epochs;
                        }
                        Err(_) => {
                            failure = Some(format!("rack {r} disconnected during epoch {k}"));
                            break 'epochs;
                        }
                    };
                    if partitioned(site, k, r, start, epoch) {
                        // The partition blocks both directions: hold the
                        // last-good belief, marked stale.
                        st.beliefs[r].stale = true;
                    } else {
                        st.beliefs[r] = RackBelief {
                            re_supply_w: rec.re_supply_w,
                            battery_soc: rec.battery_soc,
                            live_servers: usize::from(rec.live_servers),
                            demand_w: rec.demand_w,
                            goodput_rps: rec.goodput_rps,
                            stale: false,
                        };
                    }
                }
                st.has_telemetry = true;

                let mut aud = InvariantAuditor::with_violations(std::mem::take(
                    &mut st.site_audit_violations,
                ));
                // "Dark" for the zero-draw invariant means *inside an
                // active blackout*: after the outage, servers on rejoin
                // probation draw power without carrying load, which is
                // correct behaviour, not a violation. A stale (partition-
                // held) belief cannot attest either way, so it is skipped.
                aud.check_site_epoch(&SiteFlows {
                    epoch_index: k as usize,
                    factors: st.computed.last().cloned().unwrap_or_default(),
                    dark: (0..n)
                        .map(|r| blackout_active(site, k, r, start, epoch) && !st.beliefs[r].stale)
                        .collect(),
                    rack_demand_w: st.beliefs.iter().map(|b| b.demand_w).collect(),
                });
                st.site_audit_violations = aud.into_violations();

                st.next_epoch = k + 1;
            }

            // All directives delivered (or the loop aborted); dropping
            // the senders releases any still-blocked rack into local
            // autonomy so every thread can be joined.
            drop(dir_txs);
            let mut outs = Vec::with_capacity(n);
            let mut panics: Vec<String> = Vec::new();
            for (r, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(out) => outs.push(out),
                    Err(p) => {
                        panics.push(format!("rack {r} panicked: {}", panic_message(p.as_ref())));
                    }
                }
            }
            match (failure, panics.is_empty()) {
                (None, true) => Ok(outs),
                (Some(msg), true) => Err(msg),
                (None, false) => Err(panics.join("; ")),
                (Some(msg), false) => Err(format!("{msg}: {}", panics.join("; "))),
            }
        });
    let mains = mains?;

    // Baseline phase: replay each rack's applied factors under Normal so
    // the floor judgment is like-for-like through site faults. A Normal
    // rack is its own baseline. Bounded by the same jobs level; snapshots
    // cover the strategy phase only — a resume re-runs the (deterministic)
    // baselines.
    let applied_cols: Vec<Vec<f64>> = (0..n)
        .map(|r| st.applied.iter().map(|row| row[r]).collect())
        .collect();
    let gate = JobGate::new(jobs);
    let baselines: Result<Vec<Option<BurstOutcome>>, String> = std::thread::scope(|scope| {
        let handles: Vec<_> = scratches
            .iter_mut()
            .enumerate()
            .map(|(r, scratch)| {
                let cfg_r = &rack_cfgs[r];
                let factors = &applied_cols[r];
                let gate = &gate;
                scope.spawn(move || {
                    if cfg_r.strategy == Strategy::Normal {
                        return None;
                    }
                    gate.acquire();
                    let profiles = ProfileTable::cached(cfg_r.app);
                    let mut hooks = ReplayHooks { factors };
                    let (outcome, _, _) = run_once_resumable(
                        cfg_r,
                        Strategy::Normal,
                        profiles,
                        None,
                        0,
                        &mut |_| {},
                        scratch,
                        &mut hooks,
                    );
                    gate.release();
                    Some(outcome)
                })
            })
            .collect();
        let mut outs = Vec::with_capacity(n);
        let mut panics: Vec<String> = Vec::new();
        for (r, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(out) => outs.push(out),
                Err(p) => panics.push(format!(
                    "rack {r} baseline panicked: {}",
                    panic_message(p.as_ref())
                )),
            }
        }
        if panics.is_empty() {
            Ok(outs)
        } else {
            Err(panics.join("; "))
        }
    });
    let baselines = baselines?;

    let outcomes: Vec<BurstOutcome> = mains
        .into_iter()
        .zip(baselines)
        .enumerate()
        .map(|(r, ((main, _, _), baseline))| crate::engine::judge(&rack_cfgs[r], main, baseline))
        .collect();

    let route_stats: Vec<RackRouteStats> = (0..n)
        .map(|r| {
            let col = &applied_cols[r];
            let sum: f64 = col.iter().sum();
            RackRouteStats {
                mean_factor: if col.is_empty() {
                    1.0
                } else {
                    sum / col.len() as f64
                },
                min_factor: col.iter().copied().fold(f64::INFINITY, f64::min),
                max_factor: col.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                partition_epochs: st.per_rack_partition[r],
                degraded_epochs: st.per_rack_degraded[r],
            }
        })
        .collect();

    let mean_speedup =
        outcomes.iter().map(|o| o.speedup_vs_normal).sum::<f64>() / outcomes.len() as f64;
    Ok(DatacenterOutcome {
        mean_speedup,
        re_used_wh: outcomes.iter().map(|o| o.re_used_wh).sum(),
        battery_used_wh: outcomes.iter().map(|o| o.battery_used_wh).sum(),
        curtailed_wh: outcomes.iter().map(|o| o.curtailed_wh).sum(),
        racks: outcomes,
        partition_epochs: st.per_rack_partition.iter().sum(),
        degraded_epochs: st.per_rack_degraded.iter().sum(),
        blackout_epochs: st.blackout_epochs,
        stale_factor_epochs: st.stale_factor_epochs,
        rerouted_epochs: st.rerouted_epochs,
        link_retries: st.link_retries,
        link_latency_ms: st.link_latency_ms,
        rejoins: st.rejoins,
        site_events: st.site_events,
        site_audit_violations: st.site_audit_violations,
        route_stats,
        factors: st.computed,
        applied_factors: st.applied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AvailabilityLevel, GreenConfig};
    use crate::datacenter::{DatacenterConfig, RackSpec};
    use gs_workload::apps::Application;

    fn template() -> EngineConfig {
        EngineConfig {
            availability: AvailabilityLevel::Maximum,
            burst_duration: SimDuration::from_mins(10),
            measurement: MeasurementMode::Analytic,
            seed: 17,
            ..EngineConfig::default()
        }
    }

    fn fleet(n: usize) -> DatacenterConfig {
        DatacenterConfig {
            racks: (0..n)
                .map(|i| RackSpec {
                    app: Application::ALL[i % 3],
                    green: GreenConfig::re_batt(),
                    strategy: Strategy::Hybrid,
                })
                .collect(),
            template: template(),
            site_fault_plan: None,
        }
    }

    /// A site event starting `mins` minutes into the burst.
    fn site_event(mins: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_hours(11) + SimDuration::from_mins(mins),
            duration: SimDuration::from_mins(2),
            kind,
        }
    }

    #[test]
    fn site_plans_translate_per_rack() {
        let mut cfg = fleet(3);
        cfg.site_fault_plan = Some(FaultPlan::new(vec![
            site_event(1, FaultKind::RackBlackout { rack: 1, epochs: 2 }),
            site_event(
                3,
                FaultKind::RackInverterDerate {
                    rack: 0,
                    factor: 0.5,
                },
            ),
            site_event(4, FaultKind::BrokerPartition { rack: 2, epochs: 2 }),
            site_event(5, FaultKind::ReSensorDropout),
        ]));
        // Rack 0: the derate, plus the replicated rack-local dropout.
        let p0 = translate_plan(&cfg, 0).unwrap();
        assert_eq!(p0.events.len(), 2);
        assert!(matches!(
            p0.events[0].kind,
            FaultKind::InverterDerate { factor } if factor == 0.5
        ));
        assert!(matches!(p0.events[1].kind, FaultKind::ReSensorDropout));
        // Rack 1: one crash per server from the blackout, plus the dropout.
        let p1 = translate_plan(&cfg, 1).unwrap();
        let crashes: Vec<_> = p1
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::ServerCrash {
                    server,
                    down_epochs,
                } => Some((server, down_epochs)),
                _ => None,
            })
            .collect();
        assert_eq!(crashes.len(), cfg.racks[1].green.green_servers);
        assert!(crashes.iter().all(|&(_, d)| d == 2));
        // Rack 2: the partition stays broker-side — only the dropout.
        let p2 = translate_plan(&cfg, 2).unwrap();
        assert_eq!(p2.events.len(), 1);
        assert!(matches!(p2.events[0].kind, FaultKind::ReSensorDropout));
        // Every translated plan passes engine validation.
        for i in 0..3 {
            rack_engine_config(&cfg, i).validate().unwrap();
        }
    }

    #[test]
    fn blackout_reroutes_load_within_two_epochs() {
        let mut cfg = fleet(3);
        cfg.site_fault_plan = Some(FaultPlan::new(vec![site_event(
            2,
            FaultKind::RackBlackout { rack: 1, epochs: 3 },
        )]));
        let out = try_run_datacenter(&cfg, 4).unwrap();
        assert!(
            out.site_audit_violations.is_empty(),
            "{:?}",
            out.site_audit_violations
        );
        assert!(out.blackout_epochs >= 3, "{}", out.blackout_epochs);
        // The blackout lands at epoch 2; within two epochs the broker must
        // have drained the dark rack and shifted its share to survivors.
        let drained = out
            .factors
            .iter()
            .enumerate()
            .find(|(_, row)| row[1] <= REROUTE_EPS);
        let (k, row) = drained.expect("dark rack never drained");
        assert!(k <= 4, "drained only at epoch {k}");
        assert!(
            row[0] > 1.0 + REROUTE_EPS && row[2] > 1.0 + REROUTE_EPS,
            "{row:?}"
        );
        assert!(out.rerouted_epochs >= 1);
        // Conservation holds every epoch, dark or not.
        for (k, row) in out.factors.iter().enumerate() {
            let sum: f64 = row.iter().sum();
            assert!((sum - 3.0).abs() < 1e-9, "epoch {k}: {row:?}");
        }
        // Every rack still holds its Normal floor, judged like-for-like.
        for (r, o) in out.racks.iter().enumerate() {
            assert!(
                o.floor_held,
                "rack {r} broke the floor: {}",
                o.speedup_vs_normal
            );
        }
    }

    #[test]
    fn partition_degrades_to_local_autonomy_then_rejoins() {
        let mut cfg = fleet(3);
        cfg.site_fault_plan = Some(FaultPlan::new(vec![site_event(
            2,
            FaultKind::BrokerPartition { rack: 1, epochs: 2 },
        )]));
        let out = try_run_datacenter(&cfg, 2).unwrap();
        assert!(
            out.site_audit_violations.is_empty(),
            "{:?}",
            out.site_audit_violations
        );
        // Two partitioned epochs, then REJOIN_EPOCHS of probation.
        assert_eq!(out.partition_epochs, 2);
        assert_eq!(
            out.degraded_epochs,
            2 + REJOIN_EPOCHS as usize,
            "events: {:?}",
            out.site_events
        );
        assert_eq!(out.rejoins, 1);
        // Local autonomy: the rack held its last-delivered factor through
        // the partition and the probation window (epochs 2..=6).
        let held = out.applied_factors[1][1];
        for k in 2..=6usize {
            assert_eq!(out.applied_factors[k][1], held, "epoch {k}");
        }
        // After rejoin the broker's fresh allocation flows again.
        assert_eq!(out.applied_factors[7][1], out.factors[7][1]);
        let log = out.site_events.join("\n");
        assert!(log.contains("partitioned"), "{log}");
        assert!(log.contains("rejoined"), "{log}");
        for o in &out.racks {
            assert!(o.floor_held);
        }
    }

    #[test]
    fn lossy_and_laggy_links_degrade_gracefully() {
        let mut cfg = fleet(2);
        cfg.site_fault_plan = Some(FaultPlan::new(vec![
            FaultEvent {
                at: SimTime::from_hours(11) + SimDuration::from_mins(1),
                duration: SimDuration::from_mins(3),
                kind: FaultKind::LinkLoss { rack: 0, p: 0.9 },
            },
            FaultEvent {
                at: SimTime::from_hours(11) + SimDuration::from_mins(5),
                duration: SimDuration::from_mins(3),
                kind: FaultKind::LinkDelay { rack: 1, epochs: 2 },
            },
        ]));
        let out = try_run_datacenter(&cfg, 2).unwrap();
        assert!(
            out.site_audit_violations.is_empty(),
            "{:?}",
            out.site_audit_violations
        );
        // p=0.9 over 3 epochs × 4 attempts: retries are all but certain
        // under the pinned seed.
        assert!(out.link_retries > 0);
        assert!(out.link_latency_ms > 0);
        assert_eq!(out.stale_factor_epochs, 3);
        for o in &out.racks {
            assert!(o.floor_held);
        }
    }

    #[test]
    fn outcome_is_byte_identical_across_jobs() {
        let mut cfg = fleet(4);
        cfg.site_fault_plan = Some(FaultPlan::generate_site(
            9,
            SimTime::from_hours(11),
            SimDuration::from_mins(10),
            4,
        ));
        let a = try_run_datacenter(&cfg, 1).unwrap();
        let b = try_run_datacenter(&cfg, 4).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn snapshot_resume_is_byte_identical_through_a_partition() {
        let mut cfg = fleet(3);
        cfg.site_fault_plan = Some(FaultPlan::new(vec![site_event(
            2,
            FaultKind::BrokerPartition { rack: 0, epochs: 3 },
        )]));
        let mut snaps: Vec<DatacenterSnapshot> = Vec::new();
        let uninterrupted =
            run_datacenter_with_snapshots(&cfg, 2, 2, &mut |s| snaps.push(s.clone())).unwrap();
        // Boundary snapshots at epochs 2, 4, 6, 8 — epoch 4 is
        // mid-partition.
        assert_eq!(snaps.len(), 4);
        let mid = snaps[1].clone();
        assert_eq!(mid.broker.next_epoch, 4);
        assert!(mid.broker.pinned[0].is_some(), "not mid-partition");
        // Round-trip through JSON, as a real crash recovery would.
        let restored = DatacenterSnapshot::from_json(&mid.to_json().unwrap()).unwrap();
        let resumed = resume_datacenter_snapshot(restored, 3, 2, &mut |_| {}).unwrap();
        assert_eq!(
            serde_json::to_string(&uninterrupted).unwrap(),
            serde_json::to_string(&resumed).unwrap()
        );
    }

    #[test]
    fn resume_mid_probation_replays_the_identical_rejoin_epoch() {
        let mut cfg = fleet(3);
        cfg.site_fault_plan = Some(FaultPlan::new(vec![site_event(
            2,
            FaultKind::BrokerPartition { rack: 0, epochs: 2 },
        )]));
        let mut snaps: Vec<DatacenterSnapshot> = Vec::new();
        let uninterrupted =
            run_datacenter_with_snapshots(&cfg, 2, 5, &mut |s| snaps.push(s.clone())).unwrap();
        // One boundary at epoch 5: the partition (epochs 2..4) has
        // healed, but rack 0 is still pinned, serving out its rejoin
        // probation — the resume must replay the held-factor epochs and
        // the identical rejoin epoch.
        assert_eq!(snaps.len(), 1);
        let mid = snaps[0].clone();
        assert_eq!(mid.broker.next_epoch, 5);
        assert!(mid.broker.pinned[0].is_some(), "not pinned mid-probation");
        assert!(
            mid.broker.probation_left[0] > 0 && mid.broker.probation_left[0] < REJOIN_EPOCHS,
            "snapshot not mid-probation: {} epochs left",
            mid.broker.probation_left[0]
        );
        let restored = DatacenterSnapshot::from_json(&mid.to_json().unwrap()).unwrap();
        let resumed = resume_datacenter_snapshot(restored, 2, 5, &mut |_| {}).unwrap();
        assert_eq!(
            serde_json::to_string(&uninterrupted).unwrap(),
            serde_json::to_string(&resumed).unwrap()
        );
        assert_eq!(resumed.rejoins, 1);
        // Local autonomy held one factor from the partition through the
        // end of probation (epochs 2..=6), then fresh allocations flow.
        let held = resumed.applied_factors[2][0];
        for k in 2..=6usize {
            assert_eq!(resumed.applied_factors[k][0], held, "epoch {k}");
        }
        assert_eq!(resumed.applied_factors[7][0], resumed.factors[7][0]);
    }

    #[test]
    fn resume_rejects_a_tampered_fingerprint() {
        let cfg = fleet(2);
        let mut snaps: Vec<DatacenterSnapshot> = Vec::new();
        run_datacenter_with_snapshots(&cfg, 2, 3, &mut |s| snaps.push(s.clone())).unwrap();
        let mut snap = snaps[0].clone();
        snap.cfg.template.seed ^= 1;
        let err = resume_datacenter_snapshot(snap, 2, 3, &mut |_| {}).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn snapshots_require_analytic_measurement() {
        let mut cfg = fleet(2);
        cfg.template.measurement = MeasurementMode::Des;
        let err = run_datacenter_with_snapshots(&cfg, 2, 2, &mut |_| {}).unwrap_err();
        assert!(err.contains("analytic"), "{err}");
        // Without snapshots DES is fine.
        assert!(try_run_datacenter(&cfg, 2).is_ok());
    }
}
