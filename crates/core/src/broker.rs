//! The rack driver: N racks stepped in lockstep under one broker, with
//! conserved cross-rack routing, site-level fault domains, and supervised
//! racks. `greensprint datacenter` and `greensprint serve` both run on it.
//!
//! The paper provisions renewables "on the PDU level … in a data center on
//! a per-rack basis" (§II). [`crate::datacenter`] describes such a fleet;
//! this module runs it: every rack steps through the scheduling-epoch loop
//! in lockstep while the broker routes the datacenter's offered load toward
//! the racks with renewable surplus, tolerating the site-level failures a
//! real control plane sees — rack blackouts, inverter derates, broker↔rack
//! partitions, lossy and laggy links ([`crate::faults::FaultKind::RackBlackout`]
//! and friends) — and racks that crash.
//!
//! # Architecture
//!
//! Each rack is a value the broker owns: the unmodified engine experiment
//! — its strategy loop beside its Normal floor — and the scratch arena
//! lent to each of its steps. The racks step on a pool of `jobs`
//! participants that lives for the whole run: the broker thread and
//! `jobs − 1` helpers. Once per epoch the broker:
//!
//! 1. runs the site tick through its site hooks (serve's telemetry,
//!    deadlines and heartbeat; a no-op for a batch `datacenter` run);
//! 2. computes a *conserved* allocation — per-rack load factors summing
//!    exactly to the rack count — from last epoch's beliefs, favouring
//!    racks with renewable surplus;
//! 3. pushes each factor through a simulated control link: a partitioned
//!    rack holds the factor it applied last epoch (local autonomy); a lossy
//!    link retries with [`crate::supervisor::backoff_ms`] virtual latency
//!    and falls back to the held factor; a laggy link serves a stale one.
//!    The resulting *applied* factor rides the rack's directive (with the
//!    site tick's supply override, staleness verdict and demotion), and
//!    both factors land in the directive log;
//! 4. starts one pass of the pool: every participant claims racks from an
//!    atomic cursor and runs `Experiment::step` on each behind
//!    `catch_unwind`, leaving the strategy loop's settled record in the
//!    rack's slot;
//! 5. reads the slots in rack-index order, rebuilding a dead rack from its
//!    last captured [`ExperimentState`] on this thread (or ending the run,
//!    for a batch datacenter), and audits the settled epoch with
//!    [`crate::audit::InvariantAuditor::check_site_epoch`].
//!
//! A rack that finishes the window is judged against its floor, which ran
//! the identical applied factors, supply and staleness (not the
//! demotions: no ladder supervises Normal).
//!
//! A partitioned rack keeps running its held factor, which keeps it at or
//! above the Normal floor (the floor runs the identical applied factors).
//! After the link heals the rack stays pinned for
//! [`crate::engine::REJOIN_EPOCHS`] probationary epochs — mirroring the
//! fleet's server-rejoin hysteresis — before fresh allocations resume.
//!
//! # Determinism and durability
//!
//! Results are byte-identical at any `jobs` level: a rack's step reads
//! and writes only its own slot, so which participant steps it never
//! reaches a result, while every RNG draw and every aggregation happens on
//! the broker thread in rack-index order. A [`SiteSnapshot`] captures the
//! [`SiteState`] plus every rack's [`ExperimentState`] at the same epoch
//! boundary, so a run killed mid-partition or mid-rack-outage resumes to a
//! byte-identical result, floor verdict included.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use gs_cluster::ServerSetting;
use gs_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::audit::{InvariantAuditor, SiteFlows};
use crate::checkpoint::{fingerprint, ExperimentState, SITE_SCHEMA};
use crate::datacenter::{DatacenterConfig, DatacenterOutcome};
use crate::engine::{
    check_experiment, judge, BurstOutcome, EngineConfig, EpochRecord, Experiment, MeasurementMode,
    RunWindow, TickDirective, REJOIN_EPOCHS,
};
use crate::faults::{FaultEvent, FaultKind, FaultPlan};
use crate::fleet::EngineScratch;
use crate::serve::{ServeOptions, ServeSideState};
use crate::supervisor::{backoff_ms, panic_message, RackHealth, RackSupervisor};

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
/// counting re-routed epochs.
const REROUTE_EPS: f64 = 0.01;

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
    fn initial(n: usize) -> Self {
        RackBelief {
            re_supply_w: 0.0,
            battery_soc: 1.0,
            live_servers: n,
            demand_w: 0.0,
            goodput_rps: 0.0,
            stale: true,
        }
    }

    /// The belief a settled epoch's record supports.
    fn from_record(rec: &EpochRecord) -> Self {
        RackBelief {
            re_supply_w: rec.re_supply_w,
            battery_soc: rec.battery_soc,
            live_servers: usize::from(rec.live_servers),
            demand_w: rec.demand_w,
            goodput_rps: rec.goodput_rps,
            stale: false,
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

/// One epoch's broker directive, logged so a restarted (or resumed) rack
/// can deterministically replay the epochs it missed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DirectiveRow {
    /// Live supply override handed to every rack (None = trace).
    pub supply_w: Option<f64>,
    /// Telemetry declared stale this epoch.
    pub stale: bool,
    /// Forced ladder demotion, if any.
    pub demote: Option<String>,
    /// Per-rack conserved load factors the broker computed.
    pub factors: Vec<f64>,
    /// Per-rack factors each rack actually ran, after the control link
    /// (held through a partition or a lost directive, stale under delay).
    pub applied: Vec<f64>,
}

impl DirectiveRow {
    /// What rack `rack` ran under this row.
    fn tick(&self, rack: usize) -> TickDirective {
        TickDirective {
            supply_w: self.supply_w,
            telemetry_stale: self.stale,
            demote: self.demote.clone(),
            load_factor: Some(self.applied[rack]),
        }
    }
}

/// Every piece of mutable state the broker carries across epochs.
/// Snapshotting it alongside each rack's [`ExperimentState`] and restoring
/// both later continues the run byte-identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteState {
    /// The next epoch index to execute. Explicit rather than derived from
    /// a rack state: every rack could be quarantined.
    pub next_epoch: u64,
    /// The link-loss RNG stream position.
    pub link_rng: SimRng,
    /// Per-rack beliefs from the latest telemetry (drive the routing).
    pub beliefs: Vec<RackBelief>,
    /// False until the first epoch settles (epoch 0 routes evenly).
    pub has_telemetry: bool,
    /// Per-rack pinned factor while partitioned or on rejoin probation.
    pub pinned: Vec<Option<f64>>,
    /// Per-rack probationary epochs left before a healed link rejoins
    /// routing.
    pub link_probation: Vec<u32>,
    /// Per-rack supervision ladder position.
    pub health: Vec<RackHealth>,
    /// Per-rack restarts consumed.
    pub restarts_used: Vec<u32>,
    /// Per-rack clean epochs left before a rebuilt rack is live again.
    pub probation_left: Vec<u32>,
    /// The directive log, one row per executed epoch from `rows_from`.
    /// A run that keeps its history keeps every row (`rows_from` is 0);
    /// one that does not keeps the rows a restart or re-admission can
    /// replay, from the oldest rack capture, plus the last row.
    pub rows: Vec<DirectiveRow>,
    /// The epoch of `rows[0]`.
    pub rows_from: u64,
    /// Per-rack epochs spent partitioned.
    pub partition_epochs: Vec<usize>,
    /// Per-rack epochs spent degraded (partition + probation + lost
    /// directives).
    pub degraded_epochs: Vec<usize>,
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
    /// Racks re-admitted to routing after link probation.
    pub rejoins: usize,
    /// Rack restarts performed.
    pub rack_restarts: u64,
    /// Rack deaths classified as panics.
    pub rack_panics: u64,
    /// Rack deaths classified as stalls.
    pub rack_stalls: u64,
    /// Racks pushed to quarantine (restart budget exhausted).
    pub racks_quarantined: u64,
    /// Human-readable partition/rejoin/restart/quarantine log.
    pub events: Vec<String>,
    /// Site-level audit violations so far.
    pub site_audit_violations: Vec<String>,
}

impl SiteState {
    /// The state before epoch 0 of `cfg`.
    fn fresh(cfg: &DatacenterConfig) -> Self {
        let n = cfg.racks.len();
        SiteState {
            next_epoch: 0,
            link_rng: SimRng::seed_from_u64(cfg.template.seed ^ LINK_SALT),
            beliefs: cfg
                .racks
                .iter()
                .map(|r| RackBelief::initial(r.green.green_servers))
                .collect(),
            has_telemetry: false,
            pinned: vec![None; n],
            link_probation: vec![0; n],
            health: vec![RackHealth::Live; n],
            restarts_used: vec![0; n],
            probation_left: vec![0; n],
            rows: Vec::new(),
            rows_from: 0,
            partition_epochs: vec![0; n],
            degraded_epochs: vec![0; n],
            blackout_epochs: 0,
            stale_factor_epochs: 0,
            rerouted_epochs: 0,
            link_retries: 0,
            link_latency_ms: 0,
            rejoins: 0,
            rack_restarts: 0,
            rack_panics: 0,
            rack_stalls: 0,
            racks_quarantined: 0,
            events: Vec::new(),
            site_audit_violations: Vec::new(),
        }
    }

    /// Epoch `k`'s logged row, if it is still kept.
    fn row_at(&self, k: u64) -> Option<&DirectiveRow> {
        let i = k.checked_sub(self.rows_from)?;
        self.rows.get(usize::try_from(i).ok()?)
    }

    /// Epoch `k`'s logged row, which every replay and audit of a kept epoch
    /// reads.
    fn row(&self, k: u64) -> &DirectiveRow {
        self.row_at(k)
            .unwrap_or_else(|| panic!("directive row {k} is not kept"))
    }

    /// Drop the rows before epoch `keep_from`, keeping the last row, whose
    /// applied factors routing holds through a partition or a lost
    /// directive. Only serve drops rows, and it has no site fault plan, so
    /// no link delay ever reads a dropped one.
    fn drop_rows_before(&mut self, keep_from: u64) {
        let keep_from = keep_from.min(self.next_epoch.saturating_sub(1));
        if keep_from > self.rows_from {
            self.rows.drain(..(keep_from - self.rows_from) as usize);
            self.rows_from = keep_from;
        }
    }

    /// Push epoch `k`'s computed factors through each rack's control link
    /// and return the factors the racks apply. Link-loss draws happen here,
    /// in rack-index order.
    fn route(&mut self, k: u64, computed: &[f64], site: &SiteWindow<'_>) -> Vec<f64> {
        (0..computed.len())
            .map(|r| {
                // What the rack ran last epoch — the factor local autonomy
                // holds when nothing fresh arrives.
                let held = self.rows.last().map_or(1.0, |row| row.applied[r]);
                if site.blackout_active(k, r) {
                    self.blackout_epochs += 1;
                }
                if site.partitioned(k, r) {
                    if self.pinned[r].is_none() {
                        self.pinned[r] = Some(held);
                        self.events.push(format!(
                            "epoch {k}: rack {r} partitioned from broker; local autonomy \
                             holds factor {held:.3}"
                        ));
                    }
                    self.link_probation[r] = REJOIN_EPOCHS;
                    self.partition_epochs[r] += 1;
                    self.degraded_epochs[r] += 1;
                    held
                } else if let Some(pin) = self.pinned[r] {
                    if self.link_probation[r] == REJOIN_EPOCHS {
                        self.events.push(format!(
                            "epoch {k}: rack {r} link healed; {REJOIN_EPOCHS} probationary \
                             epoch(s) at held factor {pin:.3}"
                        ));
                    }
                    self.link_probation[r] = self.link_probation[r].saturating_sub(1);
                    self.degraded_epochs[r] += 1;
                    if self.link_probation[r] == 0 {
                        self.pinned[r] = None;
                        self.rejoins += 1;
                        self.events
                            .push(format!("epoch {k}: rack {r} rejoined routing"));
                    }
                    pin
                } else if let Some(p) = site.link_loss_p(k, r) {
                    let mut lost_all = true;
                    for attempt in 0..=LINK_RETRIES {
                        if !self.link_rng.chance(p) {
                            lost_all = false;
                            break;
                        }
                        if attempt < LINK_RETRIES {
                            self.link_retries += 1;
                            self.link_latency_ms += backoff_ms(attempt);
                        }
                    }
                    if lost_all {
                        self.degraded_epochs[r] += 1;
                        self.events.push(format!(
                            "epoch {k}: rack {r} directive lost after {LINK_RETRIES} \
                             retries; local autonomy holds factor {held:.3}"
                        ));
                        held
                    } else {
                        computed[r]
                    }
                } else if let Some(d) = site.link_delay(k, r) {
                    self.stale_factor_epochs += 1;
                    k.checked_sub(u64::from(d))
                        .and_then(|j| self.row_at(j))
                        .map_or(1.0, |c| c.factors[r])
                } else {
                    computed[r]
                }
            })
            .collect()
    }
}

/// A resumable checkpoint of a site run — `datacenter` or `serve` —
/// captured at an epoch boundary: the configuration, the broker's
/// [`SiteState`], and every rack's [`ExperimentState`]. Serve snapshots
/// also carry the daemon's options and its own counters, so `--resume`
/// needs no other flag.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteSnapshot {
    /// Always [`SITE_SCHEMA`].
    pub schema: String,
    /// Build/config fingerprint of `cfg` (recomputed and checked on load).
    pub fingerprint: String,
    /// The full site configuration, embedded so resume is self-contained.
    pub cfg: DatacenterConfig,
    /// The broker's state as of the snapshot epoch.
    pub site: SiteState,
    /// Each rack's experiment state — its strategy loop and its Normal
    /// floor — in rack order (`None` for a rack quarantined before its
    /// first capture).
    pub racks: Vec<Option<ExperimentState>>,
    /// The serve daemon's deterministic options (`None` for `datacenter`).
    pub options: Option<ServeOptions>,
    /// The serve daemon's own counters and feed cursor (`None` for
    /// `datacenter`).
    pub serve: Option<ServeSideState>,
}

/// The fingerprint a [`SiteSnapshot`] of `cfg` carries: schema tag, crate
/// version and the configuration JSON. A resume across a code or config
/// change fails fast instead of continuing a run whose physics changed
/// underneath it.
fn site_fingerprint(cfg: &DatacenterConfig) -> String {
    // A config that cannot serialize fingerprints as "" on both the write
    // and the resume side, so the comparison still behaves.
    let json = serde_json::to_string(cfg).unwrap_or_default();
    fingerprint(&[SITE_SCHEMA, env!("CARGO_PKG_VERSION"), &json])
}

impl SiteSnapshot {
    /// Serialize to JSON. Serialization of a plain data snapshot only
    /// fails on allocator-level trouble; the error is surfaced (not
    /// panicked) so a checkpoint writer can log and continue the run.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| format!("site snapshot serialize: {e}"))
    }

    /// Parse a snapshot and [`validate`](Self::validate) it.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value: serde_json::Value = serde_json::from_str(text)
            .map_err(|e| format!("unparseable snapshot (this build reads {SITE_SCHEMA:?}): {e}"))?;
        let schema = value.get("schema").and_then(|s| s.as_str()).unwrap_or("");
        if schema != SITE_SCHEMA {
            return Err(format!(
                "snapshot schema {schema:?} is not {SITE_SCHEMA:?}; this build cannot resume it"
            ));
        }
        let snap: SiteSnapshot = serde_json::from_value(value)
            .map_err(|e| format!("malformed {SITE_SCHEMA:?} snapshot: {e}"))?;
        snap.validate()?;
        Ok(snap)
    }

    /// The resume validator: schema and fingerprint match this build, the
    /// configuration is valid, every per-rack vector has one entry per
    /// configured rack, the directive log ends at the last executed epoch
    /// and starts at or before every rack's capture (at epoch 0 for a
    /// datacenter, which reports every row), and every live rack's
    /// experiment sits at the resume epoch and fits its rack (the engine's
    /// experiment check: both loops, and the floor at the same epoch). A
    /// snapshot that passes cannot index out of bounds on resume.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SITE_SCHEMA {
            return Err(format!(
                "snapshot schema {:?} is not {SITE_SCHEMA:?}",
                self.schema
            ));
        }
        let expected = site_fingerprint(&self.cfg);
        if self.fingerprint != expected {
            return Err(format!(
                "snapshot fingerprint {} does not match this build/config ({expected}); \
                 the code or configuration changed since the snapshot was written",
                self.fingerprint
            ));
        }
        self.cfg.validate()?;
        let n = self.cfg.racks.len();
        let st = &self.site;
        for (name, len) in [
            ("racks", self.racks.len()),
            ("beliefs", st.beliefs.len()),
            ("pinned", st.pinned.len()),
            ("link_probation", st.link_probation.len()),
            ("health", st.health.len()),
            ("restarts_used", st.restarts_used.len()),
            ("probation_left", st.probation_left.len()),
            ("partition_epochs", st.partition_epochs.len()),
            ("degraded_epochs", st.degraded_epochs.len()),
        ] {
            if len != n {
                return Err(format!(
                    "snapshot {name} has {len} entries for a {n}-rack configuration"
                ));
            }
        }
        // A datacenter reports every row; serve keeps its history nowhere.
        let history = self.options.is_none();
        if st.rows_from + st.rows.len() as u64 != st.next_epoch || (history && st.rows_from != 0) {
            return Err(format!(
                "snapshot directive log has {} rows from epoch {} but resumes at epoch {}",
                st.rows.len(),
                st.rows_from,
                st.next_epoch
            ));
        }
        if let Some(r) =
            (0..n).find(|&r| self.racks[r].as_ref().map_or(0, |s| s.main.next_epoch) < st.rows_from)
        {
            return Err(format!(
                "snapshot directive log starts at epoch {} after rack {r}'s capture",
                st.rows_from
            ));
        }
        if let Some(k) = st
            .rows
            .iter()
            .position(|row| row.factors.len() != n || row.applied.len() != n)
        {
            return Err(format!(
                "snapshot directive row {k} does not hold one factor per rack"
            ));
        }
        let template = &self.cfg.template;
        let n_epochs = template
            .burst_duration
            .div_duration(template.epoch)
            .unwrap_or(0);
        for (r, s) in self.racks.iter().enumerate() {
            if st.health[r] == RackHealth::Quarantined {
                continue;
            }
            let Some(s) = s.as_ref().filter(|s| s.main.next_epoch == st.next_epoch) else {
                return Err(format!(
                    "rack {r} state is not aligned with the snapshot epoch {}",
                    st.next_epoch
                ));
            };
            let cfg = rack_engine_config(&self.cfg, r);
            check_experiment(s, &cfg, n_epochs, history).map_err(|e| format!("rack {r} {e}"))?;
        }
        match (&self.options, &self.serve) {
            (None, None) => Ok(()),
            (Some(o), Some(_)) if o.racks as usize == n => Ok(()),
            (Some(o), Some(_)) => Err(format!(
                "snapshot serves {} rack(s) but its configuration has {n}",
                o.racks
            )),
            _ => Err("snapshot carries only half of the serve daemon's state".to_string()),
        }
    }
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

/// The site fault plan over the run's epoch grid: which broker-side and
/// site-level faults cover each epoch.
struct SiteWindow<'a> {
    plan: &'a FaultPlan,
    start: SimTime,
    epoch: SimDuration,
}

impl SiteWindow<'_> {
    /// The epoch index containing `at` (clamped to the window start).
    fn epoch_of(&self, at: SimTime) -> u64 {
        at.since(self.start).div_duration(self.epoch).unwrap_or(0)
    }

    /// True if an epoch-counted event starting at `at` and lasting
    /// `epochs` covers epoch `k` (it starts at the epoch containing `at`).
    fn covers(&self, at: SimTime, epochs: u32, k: u64) -> bool {
        let e0 = self.epoch_of(at);
        k >= e0 && k < e0.saturating_add(u64::from(epochs))
    }

    /// True if a [`FaultKind::BrokerPartition`] on `rack` covers epoch `k`.
    fn partitioned(&self, k: u64, rack: usize) -> bool {
        self.plan.events.iter().any(|e| {
            matches!(e.kind, FaultKind::BrokerPartition { rack: r, epochs }
                if usize::from(r) == rack && self.covers(e.at, epochs, k))
        })
    }

    /// True if a [`FaultKind::RackBlackout`] on `rack` covers epoch `k`.
    fn blackout_active(&self, k: u64, rack: usize) -> bool {
        self.plan.events.iter().any(|e| {
            matches!(e.kind, FaultKind::RackBlackout { rack: r, epochs }
                if usize::from(r) == rack && self.covers(e.at, epochs, k))
        })
    }

    /// Epoch `k`'s wall-clock window.
    fn window(&self, k: u64) -> (SimTime, SimTime) {
        let from = self.start + SimDuration::from_micros(self.epoch.as_micros() * k);
        (from, from + self.epoch)
    }

    /// The loss probability of the first [`FaultKind::LinkLoss`] event on
    /// `rack` overlapping epoch `k`'s window, if any.
    fn link_loss_p(&self, k: u64, rack: usize) -> Option<f64> {
        let (from, to) = self.window(k);
        self.plan.events.iter().find_map(|e| match e.kind {
            FaultKind::LinkLoss { rack: r, p }
                if usize::from(r) == rack && e.overlaps(from, to) =>
            {
                Some(p)
            }
            _ => None,
        })
    }

    /// The delivery lag of the first [`FaultKind::LinkDelay`] event on
    /// `rack` overlapping epoch `k`'s window, if any.
    fn link_delay(&self, k: u64, rack: usize) -> Option<u32> {
        let (from, to) = self.window(k);
        self.plan.events.iter().find_map(|e| match e.kind {
            FaultKind::LinkDelay { rack: r, epochs }
                if usize::from(r) == rack && e.overlaps(from, to) =>
            {
                Some(epochs)
            }
            _ => None,
        })
    }
}

/// A settled epoch's record and applied per-server settings for one rack.
pub(crate) type RackReport = (EpochRecord, Vec<ServerSetting>);

/// One live rack: its engine experiment — the strategy loop beside its
/// Normal floor — and the scratch arena lent to each of its steps.
struct Rack<'a> {
    ex: Experiment<'a>,
    scratch: EngineScratch,
}

/// What a rack is built from: its engine configuration, its window
/// (built by the first build that needs it), whether it keeps its
/// history, and the capture it resumes from (`None`: epoch 0).
struct Build<'a> {
    cfg: &'a EngineConfig,
    window: &'a OnceLock<RunWindow>,
    history: bool,
    resume: Option<ExperimentState>,
}

impl<'a> Build<'a> {
    /// The rack, with a fresh scratch arena, ready for the epoch after
    /// its capture. `Err` names a capture it cannot resume.
    fn rack(self) -> Result<Rack<'a>, String> {
        let window = self.window.get_or_init(|| RunWindow::burst(self.cfg));
        let mut scratch = EngineScratch::new();
        let mut ex = Experiment::new(self.cfg, window, self.history, &mut scratch);
        if let Some(state) = self.resume {
            ex = ex
                .resume(state)
                .map_err(|e| format!("unresumable rack state: {e}"))?;
        }
        Ok(Rack { ex, scratch })
    }
}

/// Run one epoch of `rack` under `tick` behind `catch_unwind`. An injected
/// fault panics with its payload before the epoch executes (the
/// deterministic stand-in for a rack crash), so a rebuilt rack replays the
/// epoch identically and the stream never forks. `Err` carries the panic
/// message; the rack's state is then suspect and must be dropped.
fn step_rack(
    rack: &mut Rack<'_>,
    tick: &TickDirective,
    inject: Option<String>,
) -> Result<RackReport, String> {
    catch_unwind(AssertUnwindSafe(|| {
        if let Some(msg) = inject {
            panic!("{msg}");
        }
        let rec = rack.ex.step(tick, &mut rack.scratch);
        (rec, rack.ex.settings().to_vec())
    }))
    .map_err(|p| panic_message(p.as_ref()))
}

/// A rack's place in the pool: the rack while it lives (or what to build
/// it from, before its first epoch), the directive and injected fault of
/// the epoch about to run, and what the epoch left.
#[derive(Default)]
struct Slot<'a> {
    /// `None` for a rack that died this epoch or is quarantined.
    rack: Option<Rack<'a>>,
    /// A rack the run starts, built by the pass of its first epoch so the
    /// racks build in parallel.
    build: Option<Build<'a>>,
    tick: TickDirective,
    inject: Option<String>,
    /// The epoch's report, or the message the rack died with.
    out: Option<Result<RackReport, String>>,
}

impl Slot<'_> {
    /// Whether the slot holds a rack, built or still to build.
    fn live(&self) -> bool {
        self.rack.is_some() || self.build.is_some()
    }

    /// Step the live rack through the epoch, building it first if it is
    /// new, and drop it if it dies: the broker rebuilds it from its last
    /// capture.
    fn step(&mut self) {
        if let Some(build) = self.build.take() {
            match catch_unwind(AssertUnwindSafe(|| build.rack()))
                .unwrap_or_else(|p| Err(panic_message(p.as_ref())))
            {
                Ok(rack) => self.rack = Some(rack),
                Err(m) => {
                    self.out = Some(Err(m));
                    return;
                }
            }
        }
        let Some(rack) = self.rack.as_mut() else {
            return;
        };
        let out = step_rack(rack, &self.tick, self.inject.take());
        if out.is_err() {
            self.rack = None;
        }
        self.out = Some(out);
    }
}

/// Lock a rack slot. A rack dies inside [`step_rack`]'s `catch_unwind`,
/// never while a guard unwinds, so no slot is poisoned; ride it anyway.
fn lock<'m, 'a>(slot: &'m Mutex<Slot<'a>>) -> MutexGuard<'m, Slot<'a>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long a helper waits for the next pass, yielding its CPU, before it
/// sleeps: the broker's own work between passes is usually shorter, so
/// the helper starts the pass without a wake-up.
const YIELD_FOR: Duration = Duration::from_micros(100);

/// [`Crew::started`] once the broker has dismissed the crew.
const DISMISSED: u64 = u64::MAX;

/// The pool that steps a site's racks: the broker thread plus `jobs − 1`
/// helpers that live for the whole run. Each epoch is one pass: every
/// participant claims racks from an atomic cursor and steps each in its
/// slot until none is left, and the broker reads the slots in rack order
/// once every rack has stepped. Which participant steps which rack never
/// reaches a result: a step reads and writes only its own slot, under the
/// slot's lock, and the broker touches the slots only between passes.
struct Crew {
    /// Passes started so far, or [`DISMISSED`].
    started: AtomicU64,
    /// The next rack to claim in the current pass.
    cursor: AtomicUsize,
    /// Racks the current pass has stepped (or found without a live rack).
    finished: AtomicUsize,
    /// Where a helper sleeps once [`YIELD_FOR`] has passed without a pass.
    idle: Mutex<()>,
    wake: Condvar,
}

impl Crew {
    fn new() -> Self {
        Crew {
            started: AtomicU64::new(0),
            cursor: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            idle: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Claim and step racks until this pass has none left. A helper late
    /// for a pass finds the cursor spent and claims nothing; the broker
    /// resets it only after filling every slot for the next pass.
    fn claim(&self, slots: &[Mutex<Slot<'_>>]) {
        while let Some(slot) = slots.get(self.cursor.fetch_add(1, Ordering::AcqRel)) {
            lock(slot).step();
            self.finished.fetch_add(1, Ordering::Release);
        }
    }

    /// A helper's life: every pass the broker starts, until it dismisses
    /// the crew.
    fn help(&self, slots: &[Mutex<Slot<'_>>]) {
        let mut seen = 0;
        loop {
            seen = self.next_pass(seen);
            if seen == DISMISSED {
                return;
            }
            self.claim(slots);
        }
    }

    /// Wait for a pass after pass `seen` and return its number: yield
    /// for [`YIELD_FOR`], then sleep until the broker's wake-up. A yield, not
    /// a spin: a helper sharing the broker's CPU hands it over.
    fn next_pass(&self, seen: u64) -> u64 {
        let sleep_at = Instant::now() + YIELD_FOR;
        loop {
            let started = self.started.load(Ordering::Acquire);
            if started != seen {
                return started;
            }
            if Instant::now() >= sleep_at {
                break;
            }
            std::thread::yield_now();
        }
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let started = self.started.load(Ordering::Acquire);
            if started != seen {
                return started;
            }
            idle = self.wake.wait(idle).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Move `started` on to `next` and wake every sleeping helper.
    fn publish(&self, next: u64) {
        self.started.store(next, Ordering::Release);
        // Through the sleepers' lock: a helper that read the old value
        // under it is waiting by now, so the notification reaches it.
        drop(self.idle.lock().unwrap_or_else(PoisonError::into_inner));
        self.wake.notify_all();
    }

    /// The broker's side of a pass: start it, step racks beside the
    /// helpers, and return once every rack has run the epoch, yielding
    /// to the helpers still stepping (at most one rack each).
    fn pass(&self, slots: &[Mutex<Slot<'_>>]) {
        self.finished.store(0, Ordering::Relaxed);
        self.cursor.store(0, Ordering::Release);
        self.publish(self.started.load(Ordering::Relaxed) + 1);
        self.claim(slots);
        while self.finished.load(Ordering::Acquire) < slots.len() {
            std::thread::yield_now();
        }
    }
}

/// Dismisses the crew when the broker leaves the epoch loop, however it
/// leaves it: the helpers are waiting for the next pass.
struct Dismiss<'c>(&'c Crew);

impl Drop for Dismiss<'_> {
    fn drop(&mut self) {
        self.0.publish(DISMISSED);
    }
}

/// The per-epoch site work around the rack driver. Every method defaults
/// to a no-op, which is a batch `datacenter` run: no site tick, a sim
/// clock, no admin plane, a rack death that ends the run, and every
/// epoch's history kept for the outcome. `serve` overrides them with its
/// live telemetry, actuation, metrics, snapshot file and pacing.
pub(crate) trait SiteHooks {
    /// Whether the run keeps its per-epoch history: each rack's epoch
    /// records and Monitor streams, and every directive row. A batch run
    /// reports them. A run that keeps none holds each rack's scalars and
    /// only the rows a restart or re-admission replays, so its state, and
    /// each snapshot of it, stays the same size however long it runs.
    fn keeps_history(&self) -> bool {
        true
    }
    /// Restarts each rack may consume before it is quarantined and
    /// its load rerouted. `None` (batch): any rack death ends the run with
    /// an error naming the rack.
    fn restart_budget(&self) -> Option<u32> {
        None
    }
    /// Top of an epoch's tick, before its boundary snapshot.
    fn begin_tick(&mut self) {}
    /// The site tick for epoch `k` at sim time `t`: the supply override,
    /// staleness verdict and demotion every rack receives (its
    /// `load_factor` is ignored — routing decides that).
    fn tick(&mut self, _k: u64, _t: SimTime) -> TickDirective {
        TickDirective::default()
    }
    /// Admin requests queued since the last tick: `(kills, readmits)`.
    fn admin_requests(&mut self) -> (Vec<u32>, Vec<u32>) {
        (Vec::new(), Vec::new())
    }
    /// A fault to inject into rack `rack` at epoch `k`.
    fn inject(&self, _k: u64, _rack: usize) -> Option<String> {
        None
    }
    /// Whether epoch `k` is the last before a graceful drain.
    fn drain_at(&mut self, _k: u64) -> bool {
        false
    }
    /// Epoch `k` settled and audited: actuate, emit metrics, mirror status.
    fn settled(
        &mut self,
        _k: u64,
        _reports: &[Option<RackReport>],
        _sup: &RackSupervisor,
        _row: &DirectiveRow,
    ) {
    }
    /// Whether to build the snapshot due at this boundary.
    fn snapshot_due(&mut self) -> bool {
        true
    }
    /// Persist a boundary (or drain) snapshot.
    fn on_snapshot(&mut self, _snap: SiteSnapshot) {}
    /// Pace the tick before the next one starts.
    fn pace(&mut self) {}
    /// The epoch loop is over and every rack finished.
    fn finish(&mut self) {}
}

/// A batch run's hooks: the default no-ops plus a snapshot sink.
struct SnapshotSink<'a>(&'a mut dyn FnMut(&SiteSnapshot));

impl SiteHooks for SnapshotSink<'_> {
    fn on_snapshot(&mut self, snap: SiteSnapshot) {
        (self.0)(&snap);
    }
}

/// Where in epoch `k` a rack died — what its rebuilt replacement does once
/// it has caught up to `k`.
#[derive(Clone, Copy)]
enum DeathPhase {
    /// Before the epoch ran (an admin re-admission's catch-up): the
    /// replacement takes epoch `k` with the fleet.
    PreTick,
    /// Running the epoch: the replacement re-runs it without the injected
    /// fault, and its report stands in for the lost one.
    Tick,
}

/// The broker's mutable rack state, bundled so the restart protocol can
/// be a method instead of a 9-argument function.
struct Fleet<'s, 'a> {
    rack_cfgs: &'a [EngineConfig],
    windows: &'a [OnceLock<RunWindow>],
    every: u64,
    /// Whether the racks keep their strategy loops' history.
    history: bool,
    slots: &'s [Mutex<Slot<'a>>],
    /// Each rack's last boundary or drain capture, from which a dead or
    /// re-admitted rack is rebuilt (`None`: rebuilt from epoch 0).
    captures: Vec<Option<ExperimentState>>,
    sup: RackSupervisor,
    st: SiteState,
    /// False for a batch run: exhausting the restart budget ends the run
    /// instead of quarantining the rack.
    quarantine: bool,
    /// The death that ended a batch run.
    fatal: Option<String>,
}

impl<'a> Fleet<'_, 'a> {
    /// Mirror the supervisor's ladder into the snapshot-persisted state.
    fn sync_supervisor(&mut self) {
        self.st.health = self.sup.health.clone();
        self.st.restarts_used = self.sup.restarts_used.clone();
        self.st.probation_left = self.sup.probation_left.clone();
    }

    /// What rack `r` is built from: its last capture.
    fn build(&self, r: usize) -> Build<'a> {
        Build {
            cfg: &self.rack_cfgs[r],
            window: &self.windows[r],
            history: self.history,
            resume: self.captures[r].clone(),
        }
    }

    /// Build rack `r` afresh from its last capture and deterministically
    /// replay the logged directives up to (not including) epoch `k`,
    /// capturing at every boundary the replay reaches after the one it
    /// started from. The replayed reports are discarded — those epochs
    /// already settled into the aggregate stream. `Err` carries the
    /// message of a rebuild that died too.
    fn catch_up(&mut self, r: usize, k: u64) -> Result<Rack<'a>, String> {
        let (build, every) = (self.build(r), self.every);
        let from = build.resume.as_ref().map_or(0, |s| s.main.next_epoch);
        let st = &self.st;
        let capture = &mut self.captures[r];
        catch_unwind(AssertUnwindSafe(|| {
            let mut rack = build.rack()?;
            for j in from..=k {
                if every > 0 && j > from && j.is_multiple_of(every) {
                    *capture = Some(rack.ex.snapshot());
                }
                if j < k {
                    rack.ex.step(&st.row(j).tick(r), &mut rack.scratch);
                }
            }
            Ok(rack)
        }))
        .unwrap_or_else(|p| Err(panic_message(p.as_ref())))
    }

    /// Put a live rack in its slot.
    fn install(&self, r: usize, rack: Rack<'a>) {
        lock(&self.slots[r]).rack = Some(rack);
    }

    /// Rack `r` died at epoch `k`: classify the death, rebuild it from its
    /// last captured [`ExperimentState`] within the budget
    /// ([`Fleet::catch_up`], then the re-run of epoch `k` for a death at
    /// [`DeathPhase::Tick`]), or quarantine it and zero its belief so the
    /// next factor computation reroutes its share to the survivors. A
    /// batch run has no budget and no quarantine: the death becomes the
    /// run's error. Returns the re-run epoch's report, if any.
    fn handle_death(
        &mut self,
        r: usize,
        k: u64,
        mut msg: String,
        phase: DeathPhase,
    ) -> Option<RackReport> {
        loop {
            if msg.contains("injected rack stall") {
                self.st.rack_stalls += 1;
            } else {
                self.st.rack_panics += 1;
            }
            if !self.sup.record_death(r, msg.clone()) {
                if !self.quarantine {
                    self.fatal
                        .get_or_insert_with(|| format!("rack {r} panicked: {msg}"));
                    return None;
                }
                self.st.racks_quarantined += 1;
                self.st.events.push(format!(
                    "epoch {k}: rack {r} quarantined after exhausting {} restarts: {msg}",
                    self.sup.max_restarts
                ));
                self.st.beliefs[r] = RackBelief {
                    battery_soc: 0.0,
                    stale: false,
                    ..RackBelief::initial(0)
                };
                if self.sup.live_count() == 0 {
                    self.st.events.push(format!(
                        "epoch {k}: all racks quarantined; aggregate stream suspended"
                    ));
                }
                return None;
            }
            self.st.rack_restarts += 1;
            let from = self.captures[r].as_ref().map_or(0, |s| s.main.next_epoch);
            self.st.events.push(format!(
                "epoch {k}: rack {r} worker died ({msg}); restart {}/{} from snapshot epoch {from}",
                self.sup.restarts_used[r], self.sup.max_restarts
            ));
            let rebuilt = self.catch_up(r, k).and_then(|mut rack| {
                let report = match phase {
                    DeathPhase::PreTick => None,
                    DeathPhase::Tick => Some(step_rack(&mut rack, &self.st.row(k).tick(r), None)?),
                };
                self.install(r, rack);
                Ok(report)
            });
            match rebuilt {
                Ok(report) => return report,
                Err(m) => msg = m,
            }
        }
    }

    /// Capture every live rack's experiment at this epoch boundary — or,
    /// at a drain, after the last epoch. A run without history then drops
    /// the directive rows no capture can replay: those before the oldest
    /// (epoch 0 for a rack without one).
    fn capture(&mut self) {
        for (r, slot) in self.slots.iter().enumerate() {
            if let Some(rack) = lock(slot).rack.as_ref() {
                self.captures[r] = Some(rack.ex.snapshot());
            }
        }
        if !self.history {
            let oldest = self
                .captures
                .iter()
                .map(|s| s.as_ref().map_or(0, |s| s.main.next_epoch))
                .min()
                .unwrap_or(0);
            self.st.drop_rows_before(oldest);
        }
    }

    /// Hand every live rack epoch `k`'s logged directive and its injected
    /// fault, if any.
    fn dispatch(&self, k: u64, inject: Vec<Option<String>>) {
        let row = self.st.row(k);
        for (r, (slot, inject)) in self.slots.iter().zip(inject).enumerate() {
            let mut slot = lock(slot);
            if slot.live() {
                slot.tick = row.tick(r);
                slot.inject = inject;
            }
        }
    }

    /// Collect rack `r`'s epoch-`k` report, rebuilding it if it died.
    /// `None` means the rack is gone (quarantined, or the run failed).
    fn collect_report(&mut self, r: usize, k: u64) -> Option<RackReport> {
        // Out of the slot first: a rebuild locks the slot again.
        let out = lock(&self.slots[r]).out.take()?;
        match out {
            Ok(report) => Some(report),
            Err(m) => self.handle_death(r, k, m, DeathPhase::Tick),
        }
    }

    /// Admin re-admissions: a lifted rack catches up from its last
    /// snapshot and takes this epoch's directive.
    fn readmit(&mut self, k: u64, racks: Vec<u32>) {
        for r in racks {
            let r = r as usize;
            if r < self.slots.len() && self.sup.quarantined(r) {
                self.sup.lift_quarantine(r);
                self.st.events.push(format!(
                    "epoch {k}: admin re-admitted rack {r}; replaying from its last snapshot"
                ));
                match self.catch_up(r, k) {
                    Ok(rack) => self.install(r, rack),
                    Err(m) => {
                        let _ = self.handle_death(r, k, m, DeathPhase::PreTick);
                    }
                }
            }
        }
    }

    /// Settle epoch `k`'s reports into the beliefs (a partitioned rack's
    /// belief is held, marked stale; a quarantined rack's stays dark) and
    /// walk the restart probation ladder on clean epochs.
    fn settle_beliefs(&mut self, k: u64, reports: &[Option<RackReport>], site: &SiteWindow<'_>) {
        for (r, rep) in reports.iter().enumerate() {
            let Some((rec, _)) = rep else { continue };
            if site.partitioned(k, r) {
                // The partition blocks both directions.
                self.st.beliefs[r].stale = true;
            } else {
                self.st.beliefs[r] = RackBelief::from_record(rec);
            }
            if self.sup.record_clean_epoch(r) {
                self.st
                    .events
                    .push(format!("epoch {k}: rack {r} finished probation; live"));
            }
        }
        self.st.has_telemetry = true;
    }

    /// The site audit of settled epoch `k`: the computed row must route
    /// exactly the fleet's load, and a rack inside an active blackout must
    /// draw nothing. After the outage, servers on rejoin probation draw
    /// power without carrying load, which is correct behaviour, not a
    /// violation; a stale (partition-held) belief cannot attest either
    /// way, so it is skipped.
    fn audit(&mut self, k: u64, site: &SiteWindow<'_>) {
        let st = &mut self.st;
        let mut aud =
            InvariantAuditor::with_violations(std::mem::take(&mut st.site_audit_violations));
        aud.check_site_epoch(&SiteFlows {
            epoch_index: k as usize,
            factors: st.row(k).factors.clone(),
            dark: (0..st.beliefs.len())
                .map(|r| site.blackout_active(k, r) && !st.beliefs[r].stale)
                .collect(),
            rack_demand_w: st.beliefs.iter().map(|b| b.demand_w).collect(),
        });
        st.site_audit_violations = aud.into_violations();
    }
}

/// A finished run of the rack driver.
pub(crate) struct SiteRun {
    /// The final broker state (supervision ladder synced).
    pub(crate) st: SiteState,
    /// Per-rack outcomes in rack order — judged against their Normal floor
    /// unless the run drained; `None` for a quarantined rack.
    pub(crate) racks: Vec<Option<BurstOutcome>>,
    /// True if the run stopped at a drain boundary instead of finishing.
    pub(crate) drained: bool,
}

/// The rack driver: step every rack of `cfg` — its strategy loop beside
/// its Normal floor — in lockstep from epoch 0 (or from `resume`'s state
/// and rack captures) to the end of the window, where each rack is judged
/// against its floor, or to a drain. The racks step on a pool of `jobs`
/// participants: this thread and `jobs − 1` helpers (none at `jobs` 1,
/// and never more participants than racks). `snapshot_every` (0 = never)
/// is the boundary-capture cadence, which requires analytic measurement.
/// `hooks` supply the per-epoch site work. See DESIGN.md §6e/§8b for the
/// thread and ownership picture.
pub(crate) fn run_site(
    cfg: &DatacenterConfig,
    jobs: usize,
    snapshot_every: u64,
    resume: Option<(SiteState, Vec<Option<ExperimentState>>)>,
    hooks: &mut dyn SiteHooks,
) -> Result<SiteRun, String> {
    if snapshot_every > 0 && cfg.template.measurement != MeasurementMode::Analytic {
        return Err(
            "site snapshots capture full controller state and require analytic \
             measurement mode"
                .to_string(),
        );
    }
    let n = cfg.racks.len();
    let epoch = cfg.template.epoch;
    let start = SimTime::from_secs_f64(cfg.template.burst_start_hour * 3_600.0);
    let n_epochs = cfg.template.burst_duration.div_duration(epoch).unwrap_or(0);
    let empty_plan = FaultPlan::default();
    let site = SiteWindow {
        plan: cfg.site_fault_plan.as_ref().unwrap_or(&empty_plan),
        start,
        epoch,
    };
    let rack_servers: Vec<usize> = cfg.racks.iter().map(|r| r.green.green_servers).collect();
    let fp = site_fingerprint(cfg);

    let (mut st, captures) = resume.unwrap_or_else(|| (SiteState::fresh(cfg), vec![None; n]));
    let start_k = st.next_epoch;
    let budget = hooks.restart_budget();
    let sup = RackSupervisor::restore(
        budget.unwrap_or(0),
        std::mem::take(&mut st.health),
        std::mem::take(&mut st.restarts_used),
        std::mem::take(&mut st.probation_left),
    );
    let rack_cfgs: Vec<EngineConfig> = (0..n).map(|i| rack_engine_config(cfg, i)).collect();
    let windows: Vec<OnceLock<RunWindow>> = (0..n).map(|_| OnceLock::new()).collect();
    let slots: Vec<Mutex<Slot<'_>>> = (0..n).map(|_| Mutex::default()).collect();
    let mut fleet = Fleet {
        rack_cfgs: &rack_cfgs,
        windows: &windows,
        every: snapshot_every,
        history: hooks.keeps_history(),
        slots: &slots,
        captures,
        sup,
        st,
        quarantine: budget.is_some(),
        fatal: None,
    };
    for (r, slot) in slots.iter().enumerate() {
        if !fleet.sup.quarantined(r) {
            lock(slot).build = Some(fleet.build(r));
        }
    }
    let snapshot = |fleet: &Fleet| SiteSnapshot {
        schema: SITE_SCHEMA.to_string(),
        fingerprint: fp.clone(),
        cfg: cfg.clone(),
        site: fleet.st.clone(),
        racks: fleet.captures.clone(),
        options: None,
        serve: None,
    };

    let participants = jobs.min(n).max(1);
    let crew = Crew::new();
    let mut drained = false;
    std::thread::scope(|s| {
        for _ in 1..participants {
            s.spawn(|| crew.help(&slots));
        }
        let _dismiss = Dismiss(&crew);
        for k in start_k..n_epochs {
            if fleet.fatal.is_some() {
                break;
            }
            hooks.begin_tick();
            // Boundary: capture every live rack's experiment at the top of
            // epoch k, paired with the broker's pre-epoch-k state.
            if snapshot_every > 0 && k > start_k && k.is_multiple_of(snapshot_every) {
                fleet.capture();
                fleet.sync_supervisor();
                if hooks.snapshot_due() {
                    hooks.on_snapshot(snapshot(&fleet));
                }
            }

            let t = start + SimDuration::from_micros(epoch.as_micros() * k);
            let tick = hooks.tick(k, t);

            // Admin plane: re-admissions first (a lifted rack catches up and
            // takes this epoch's directive), then kill marks.
            let (kills, readmits) = hooks.admin_requests();
            fleet.readmit(k, readmits);
            let mut inject: Vec<Option<String>> = (0..n).map(|r| hooks.inject(k, r)).collect();
            for r in kills {
                let r = r as usize;
                if r < n && !fleet.sup.quarantined(r) {
                    fleet
                        .st
                        .events
                        .push(format!("epoch {k}: admin kill for rack {r}"));
                    inject[r].get_or_insert_with(|| format!("admin kill at epoch {k}"));
                }
            }
            let last = hooks.drain_at(k);

            // Conserved routing from the last settled beliefs, through the
            // control links, into the directive row every rebuild replays.
            let factors =
                conserved_factors(&fleet.st.beliefs, &rack_servers, fleet.st.has_telemetry);
            if factors.iter().any(|&f| f <= REROUTE_EPS)
                && factors.iter().any(|&f| f > 1.0 + REROUTE_EPS)
            {
                fleet.st.rerouted_epochs += 1;
            }
            let applied = fleet.st.route(k, &factors, &site);
            fleet.st.rows.push(DirectiveRow {
                supply_w: tick.supply_w,
                stale: tick.telemetry_stale,
                demote: tick.demote,
                factors,
                applied,
            });

            // One pass of the pool runs the epoch on every live rack; the
            // reports are then read in rack order, rebuilding dead racks.
            fleet.dispatch(k, inject);
            crew.pass(&slots);
            let reports: Vec<Option<RackReport>> =
                (0..n).map(|r| fleet.collect_report(r, k)).collect();
            if fleet.fatal.is_some() {
                break;
            }

            fleet.settle_beliefs(k, &reports, &site);
            fleet.audit(k, &site);
            hooks.settled(k, &reports, &fleet.sup, fleet.st.row(k));
            fleet.st.next_epoch = k + 1;
            if last {
                // Graceful drain: capture the would-be-next state exactly
                // as the next boundary would, so a resume starts with the
                // next unexecuted epoch.
                fleet.capture();
                drained = true;
                fleet.sync_supervisor();
                if hooks.snapshot_due() {
                    hooks.on_snapshot(snapshot(&fleet));
                }
                break;
            }
            hooks.pace();
        }
    });

    fleet.sync_supervisor();
    let Fleet { st, fatal, .. } = fleet;
    // Each surviving rack's outcome: judged against its floor once the
    // window finished, raw after a drain (a truncated window has no
    // comparable floor). Quarantined racks have none.
    let racks: Vec<Option<BurstOutcome>> = slots
        .into_iter()
        .zip(&rack_cfgs)
        .map(|(slot, rack_cfg)| {
            let rack = slot
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .rack?;
            let (main, _, floor) = rack.ex.finish();
            Some(if drained {
                main
            } else {
                judge(rack_cfg, main, floor)
            })
        })
        .collect();
    hooks.finish();
    if let Some(e) = fatal {
        return Err(e);
    }
    Ok(SiteRun { st, racks, drained })
}

/// The conserved allocation for the next epoch from the current beliefs:
/// factors sum to exactly the rack count, dark racks (no live servers)
/// get zero — their load re-routes to survivors — and each survivor's
/// share blends an even split with its share of the fleet's score, where
/// a rack scores `(max(re_supply, 0) + 50·SoC·servers) × live fraction`.
fn conserved_factors(
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

/// Assemble a completed datacenter run's outcome from the driver's state.
fn datacenter_outcome(run: SiteRun) -> DatacenterOutcome {
    let st = run.st;
    // A batch run never quarantines: every rack has an outcome.
    let outcomes: Vec<BurstOutcome> = run.racks.into_iter().flatten().collect();
    let route_stats: Vec<RackRouteStats> = (0..outcomes.len())
        .map(|r| {
            let col: Vec<f64> = st.rows.iter().map(|row| row.applied[r]).collect();
            let sum: f64 = col.iter().sum();
            RackRouteStats {
                mean_factor: if col.is_empty() {
                    1.0
                } else {
                    sum / col.len() as f64
                },
                min_factor: col.iter().copied().fold(f64::INFINITY, f64::min),
                max_factor: col.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                partition_epochs: st.partition_epochs[r],
                degraded_epochs: st.degraded_epochs[r],
            }
        })
        .collect();
    let (factors, applied_factors) = st
        .rows
        .into_iter()
        .map(|row| (row.factors, row.applied))
        .unzip();
    let mean_speedup =
        outcomes.iter().map(|o| o.speedup_vs_normal).sum::<f64>() / outcomes.len() as f64;
    DatacenterOutcome {
        mean_speedup,
        re_used_wh: outcomes.iter().map(|o| o.re_used_wh).sum(),
        battery_used_wh: outcomes.iter().map(|o| o.battery_used_wh).sum(),
        curtailed_wh: outcomes.iter().map(|o| o.curtailed_wh).sum(),
        racks: outcomes,
        partition_epochs: st.partition_epochs.iter().sum(),
        degraded_epochs: st.degraded_epochs.iter().sum(),
        blackout_epochs: st.blackout_epochs,
        stale_factor_epochs: st.stale_factor_epochs,
        rerouted_epochs: st.rerouted_epochs,
        link_retries: st.link_retries,
        link_latency_ms: st.link_latency_ms,
        rejoins: st.rejoins,
        site_events: st.events,
        site_audit_violations: st.site_audit_violations,
        route_stats,
        factors,
        applied_factors,
    }
}

/// Run the datacenter through the rack driver without snapshots.
pub fn try_run_datacenter(
    cfg: &DatacenterConfig,
    jobs: usize,
) -> Result<DatacenterOutcome, String> {
    run_datacenter_with_snapshots(cfg, jobs, 0, &mut |_| {})
}

/// Run the datacenter through the rack driver, emitting a resumable
/// [`SiteSnapshot`] at every `snapshot_every`-th epoch boundary
/// (0 = never). Snapshots capture the full controller state, which the
/// DES measurement plane cannot serialize — `snapshot_every > 0` requires
/// [`MeasurementMode::Analytic`].
pub fn run_datacenter_with_snapshots(
    cfg: &DatacenterConfig,
    jobs: usize,
    snapshot_every: u64,
    sink: &mut dyn FnMut(&SiteSnapshot),
) -> Result<DatacenterOutcome, String> {
    cfg.validate()?;
    run_site(cfg, jobs, snapshot_every, None, &mut SnapshotSink(sink)).map(datacenter_outcome)
}

/// Resume a checkpointed datacenter run from its snapshot, finishing with
/// output byte-identical to the uninterrupted run. Continues emitting
/// snapshots at the same cadence through `sink`.
pub fn resume_datacenter_snapshot(
    snap: SiteSnapshot,
    jobs: usize,
    snapshot_every: u64,
    sink: &mut dyn FnMut(&SiteSnapshot),
) -> Result<DatacenterOutcome, String> {
    snap.validate()?;
    if snap.options.is_some() {
        return Err(
            "this is a serve snapshot; resume it with `greensprint serve --resume`".to_string(),
        );
    }
    run_site(
        &snap.cfg,
        jobs,
        snapshot_every,
        Some((snap.site, snap.racks)),
        &mut SnapshotSink(sink),
    )
    .map(datacenter_outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::LoopState;
    use crate::config::{AvailabilityLevel, GreenConfig};
    use crate::datacenter::{DatacenterConfig, RackSpec};
    use crate::pmk::Strategy;
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
        // Five racks: uneven splits over the pool, and more jobs than
        // racks.
        let mut cfg = fleet(5);
        cfg.site_fault_plan = Some(FaultPlan::generate_site(
            9,
            SimTime::from_hours(11),
            SimDuration::from_mins(10),
            5,
        ));
        let want = serde_json::to_string(&try_run_datacenter(&cfg, 1).unwrap()).unwrap();
        for jobs in [2, 3, 4, 8] {
            let got = try_run_datacenter(&cfg, jobs).unwrap();
            assert_eq!(serde_json::to_string(&got).unwrap(), want, "jobs {jobs}");
        }
    }

    /// Hooks with a restart budget that inject rack deaths, drain at one
    /// epoch, and keep every snapshot's rack captures.
    struct Deaths {
        /// `(epoch, rack, payload)` of each injected death.
        plan: Vec<(u64, usize, &'static str)>,
        drain: u64,
        captures: Vec<String>,
    }

    impl SiteHooks for Deaths {
        fn restart_budget(&self) -> Option<u32> {
            Some(3)
        }
        fn inject(&self, k: u64, rack: usize) -> Option<String> {
            self.plan
                .iter()
                .find(|&&(e, r, _)| e == k && r == rack)
                .map(|(_, _, payload)| format!("{payload} at epoch {k}"))
        }
        fn drain_at(&mut self, k: u64) -> bool {
            k == self.drain
        }
        fn on_snapshot(&mut self, snap: SiteSnapshot) {
            self.captures
                .push(serde_json::to_string(&snap.racks).unwrap());
        }
        /// Longer than [`YIELD_FOR`]: the helpers sleep between passes
        /// and must be woken for each, and for their dismissal.
        fn pace(&mut self) {
            std::thread::sleep(YIELD_FOR * 10);
        }
    }

    #[test]
    fn injected_deaths_rebuild_to_the_uninjected_run_at_any_jobs() {
        // Boundaries every 3 epochs; the drain after epoch 7.
        let run = |jobs: usize, plan: Vec<(u64, usize, &'static str)>| {
            let mut hooks = Deaths {
                plan,
                drain: 7,
                captures: Vec::new(),
            };
            let run = run_site(&fleet(4), jobs, 3, None, &mut hooks).expect("the site runs");
            (run, hooks.captures)
        };
        let (want, want_captures) = run(1, Vec::new());
        assert!(want.drained);
        assert_eq!(want_captures.len(), 3, "boundaries 3 and 6, then the drain");
        let plan = vec![
            // At a snapshot boundary: rebuilt from the capture just taken.
            (6, 1, "injected rack panic"),
            // Mid-interval: rebuilt from epoch 3 and replayed.
            (4, 2, "injected rack stall"),
            // At the drain epoch: the re-run precedes the drain capture.
            (7, 3, "injected rack panic"),
        ];
        for jobs in [1, 2, 5] {
            let (tx, rx) = std::sync::mpsc::channel();
            let plan = plan.clone();
            std::thread::spawn(move || {
                let _ = tx.send(run(jobs, plan));
            });
            let (got, captures) = rx
                .recv_timeout(std::time::Duration::from_secs(300))
                .unwrap_or_else(|_| panic!("jobs {jobs}: the run never returned"));
            assert_eq!(
                (got.st.rack_panics, got.st.rack_stalls, got.st.rack_restarts),
                (2, 1, 3),
                "jobs {jobs}: {:?}",
                got.st.events
            );
            assert_eq!(got.st.racks_quarantined, 0, "jobs {jobs}");
            assert_eq!(
                serde_json::to_string(&got.racks).unwrap(),
                serde_json::to_string(&want.racks).unwrap(),
                "jobs {jobs}: rack outcomes"
            );
            assert_eq!(got.st.rows, want.st.rows, "jobs {jobs}: directive log");
            assert_eq!(got.st.beliefs, want.st.beliefs, "jobs {jobs}: beliefs");
            assert_eq!(captures, want_captures, "jobs {jobs}: rack captures");
        }
    }

    #[test]
    fn snapshot_resume_is_byte_identical_through_a_partition() {
        let mut cfg = fleet(3);
        cfg.site_fault_plan = Some(FaultPlan::new(vec![site_event(
            2,
            FaultKind::BrokerPartition { rack: 0, epochs: 3 },
        )]));
        let mut snaps: Vec<SiteSnapshot> = Vec::new();
        let uninterrupted =
            run_datacenter_with_snapshots(&cfg, 2, 2, &mut |s| snaps.push(s.clone())).unwrap();
        // Boundary snapshots at epochs 2, 4, 6, 8 — epoch 4 is
        // mid-partition.
        assert_eq!(snaps.len(), 4);
        let mid = snaps[1].clone();
        assert_eq!(mid.site.next_epoch, 4);
        assert!(mid.site.pinned[0].is_some(), "not mid-partition");
        // Round-trip through JSON, as a real crash recovery would.
        let restored = SiteSnapshot::from_json(&mid.to_json().unwrap()).unwrap();
        let resumed = resume_datacenter_snapshot(restored, 3, 2, &mut |_| {}).unwrap();
        assert_eq!(
            serde_json::to_string(&uninterrupted).unwrap(),
            serde_json::to_string(&resumed).unwrap()
        );

        // One more input: an unguarded Hybrid site whose template plan
        // poisons every rack's table at epoch 1, so NaN cells sit in each
        // later snapshot — resumed from every boundary.
        let mut cfg = fleet(2);
        cfg.template.fault_plan = Some(FaultPlan::new(vec![FaultEvent {
            at: SimTime::from_hours(11) + SimDuration::from_mins(1),
            duration: SimDuration::from_mins(1),
            kind: FaultKind::QTablePoison { magnitude: 1e9 },
        }]));
        let mut snaps: Vec<SiteSnapshot> = Vec::new();
        let uninterrupted =
            run_datacenter_with_snapshots(&cfg, 2, 2, &mut |s| snaps.push(s.clone())).unwrap();
        assert_eq!(snaps.len(), 4);
        for snap in snaps {
            let restored = SiteSnapshot::from_json(&snap.to_json().unwrap()).unwrap();
            let resumed = resume_datacenter_snapshot(restored, 1, 2, &mut |_| {}).unwrap();
            assert_eq!(
                serde_json::to_string(&uninterrupted).unwrap(),
                serde_json::to_string(&resumed).unwrap(),
                "resumed at epoch {}",
                snap.site.next_epoch
            );
        }
    }

    #[test]
    fn resume_mid_probation_replays_the_identical_rejoin_epoch() {
        let mut cfg = fleet(3);
        cfg.site_fault_plan = Some(FaultPlan::new(vec![site_event(
            2,
            FaultKind::BrokerPartition { rack: 0, epochs: 2 },
        )]));
        let mut snaps: Vec<SiteSnapshot> = Vec::new();
        let uninterrupted =
            run_datacenter_with_snapshots(&cfg, 2, 5, &mut |s| snaps.push(s.clone())).unwrap();
        // One boundary at epoch 5: the partition (epochs 2..4) has
        // healed, but rack 0 is still pinned, serving out its rejoin
        // probation — the resume must replay the held-factor epochs and
        // the identical rejoin epoch.
        assert_eq!(snaps.len(), 1);
        let mid = snaps[0].clone();
        assert_eq!(mid.site.next_epoch, 5);
        assert!(mid.site.pinned[0].is_some(), "not pinned mid-probation");
        assert!(
            mid.site.link_probation[0] > 0 && mid.site.link_probation[0] < REJOIN_EPOCHS,
            "snapshot not mid-probation: {} epochs left",
            mid.site.link_probation[0]
        );
        let restored = SiteSnapshot::from_json(&mid.to_json().unwrap()).unwrap();
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
        let mut snaps: Vec<SiteSnapshot> = Vec::new();
        run_datacenter_with_snapshots(&cfg, 2, 3, &mut |s| snaps.push(s.clone())).unwrap();
        let mut snap = snaps[0].clone();
        snap.cfg.template.seed ^= 1;
        let err = resume_datacenter_snapshot(snap, 2, 3, &mut |_| {}).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn resume_rejects_every_truncated_per_rack_vector() {
        let cfg = fleet(3);
        let mut snaps: Vec<SiteSnapshot> = Vec::new();
        run_datacenter_with_snapshots(&cfg, 2, 3, &mut |s| snaps.push(s.clone())).unwrap();
        let good = snaps[0].clone();
        good.validate().expect("a real snapshot validates");
        type Cut = fn(&mut SiteSnapshot);
        fn rack1(s: &mut SiteSnapshot) -> &mut LoopState {
            &mut s.racks[1].as_mut().expect("rack 1 is live").main
        }
        let cuts: [(&str, Cut); 22] = [
            ("racks", |s| {
                s.racks.pop();
            }),
            ("beliefs", |s| s.site.beliefs.clear()),
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
            ("row factors", |s| {
                s.site.rows[0].factors.pop();
            }),
            ("row applied", |s| {
                s.site.rows[1].applied.pop();
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
            ("rack health_streak", |s| {
                rack1(s).health_streak.pop();
            }),
            ("rack thermals", |s| {
                rack1(s).thermals.pop();
            }),
            ("rack epochs", |s| {
                rack1(s).epochs.pop();
            }),
            // A datacenter rack keeps its history, Monitor included.
            ("rack monitor", |s| {
                rack1(s).monitor = None;
            }),
            // The rack's Normal floor, one epoch behind its strategy loop.
            ("rack Normal floor", |s| {
                let rack = s.racks[1].as_mut().expect("rack 1 is live");
                rack.baseline
                    .as_mut()
                    .expect("a Hybrid rack has a floor")
                    .next_epoch -= 1;
            }),
            ("rack Normal floor", |s| {
                s.racks[1].as_mut().expect("rack 1 is live").baseline = None;
            }),
        ];
        for (name, cut) in cuts {
            let mut snap = good.clone();
            cut(&mut snap);
            let err = snap
                .validate()
                .expect_err(&format!("truncated {name} validated"));
            if name == "rack Normal floor" {
                assert!(err.contains("Normal floor"), "{err}");
            }
            if name == "rack monitor" {
                assert!(err.contains("monitor is missing"), "{err}");
            }
            let json = snap.to_json().unwrap();
            assert!(
                SiteSnapshot::from_json(&json).is_err(),
                "truncated {name} parsed"
            );
            assert!(
                resume_datacenter_snapshot(snap, 2, 3, &mut |_| {}).is_err(),
                "truncated {name} resumed"
            );
        }
        // A Q-table delta is outside input too: a cell index past the
        // table, or out of order, is refused at parse.
        let json = good.to_json().unwrap();
        for cells in ["[[27783,0]]", "[[5,0],[5,0]]", "[[9,0],[3,0]]"] {
            let tampered = crate::qlearning::with_first_delta_cells(&json, cells);
            assert_ne!(tampered, json);
            assert!(
                SiteSnapshot::from_json(&tampered).is_err(),
                "delta cells {cells} parsed"
            );
        }
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

    /// Batch hooks that panic one rack at one epoch.
    struct Crash(u64, usize);

    impl SiteHooks for Crash {
        fn inject(&self, k: u64, rack: usize) -> Option<String> {
            (k == self.0 && rack == self.1).then(|| "injected crash".to_string())
        }
    }

    #[test]
    fn a_rack_death_ends_a_batch_run_with_an_error() {
        let cfg = fleet(3);
        // The dying rack's participant must still finish the pass: a pool
        // that lost it would never reach the end-of-epoch barrier.
        for jobs in [1, 2, 3] {
            let err = match run_site(&cfg, jobs, 0, None, &mut Crash(2, 1)) {
                Ok(_) => panic!("jobs {jobs}: a dead rack still produced an outcome"),
                Err(e) => e,
            };
            assert!(err.contains("rack 1"), "jobs {jobs}: {err}");
            assert!(err.contains("injected crash"), "jobs {jobs}: {err}");
        }
    }
}
