//! Struct-of-arrays fleet state and the reusable engine scratch arena.
//!
//! The epoch loop in [`crate::engine`] touches a dozen per-server
//! quantities every epoch. Before this module existed each of them was a
//! fresh `Vec` per epoch (or per decision): at 1000 servers × thousands of
//! epochs the allocator dominated the profile. `FleetState` holds the
//! ones the next epoch rebuilds as parallel arrays — settings, liveness,
//! battery budgets, power draws — sized once per run and overwritten in
//! place each epoch, plus the per-epoch memo tables the hot loop uses to
//! avoid recomputing pure functions.
//!
//! [`EngineScratch`] wraps the fleet arrays together with the
//! analytic-measurement cache into the arena a caller can thread through
//! many runs (the sweep worker pool keeps one per worker, the datacenter
//! broker one per rack worker). An experiment lends it to its strategy
//! loop and its Normal floor in turn each epoch: nothing in it outlives
//! the step that wrote it except the analytic cache, whose entries are
//! pure. Every run begins with `EngineScratch::begin_run`, which resets
//! the fleet arrays and memo tables. The analytic cache survives
//! into the next run only when both runs measure the same application
//! against its process-wide cached profile table: its entries are then
//! the same pure function of `(setting, admitted rps)` in both runs, so
//! a hit returns exactly the bits a fresh measurement would. An entry
//! holds the percentile latency only once a run that reads latencies (a
//! learner or a guardrail) has asked for it: a reader-free run caches
//! the goodput solve alone, and a later reader fills the latency in on
//! read. Either way reuse is unobservable in the output: the determinism
//! contract (byte-identical outcomes, snapshot/resume, jobs-invariance)
//! is pinned by `tests/golden_outputs.rs`.
//!
//! None of this is serialized, and none of it outlives an epoch's
//! arithmetic. Everything that does — batteries, predictors, the
//! hysteresis incumbents, crash countdowns and health streaks — lives in
//! [`crate::checkpoint::LoopState`], which the epoch loop reads and
//! writes in place and a snapshot clones.

use gs_cluster::ServerSetting;
use gs_workload::apps::Application;
use gs_workload::metrics::EpochPerf;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Key of one memoized per-server sprint decision within an epoch: the
/// bits of `(re_share, battery_instant, battery_sustained)` plus the
/// hysteresis incumbent. Everything else a learner-free decision depends
/// on (predicted load, the profile table, the hysteresis band) is
/// constant within an epoch, so equal keys provably yield equal settings.
pub(crate) type DecisionKey = (u64, u64, u64, ServerSetting);

/// One server's measured epoch, cut to what the loop reads: the offered
/// and goodput rates, the utilization that sets the power draw, and the
/// SLO-percentile latency that the Hybrid reward and the guardrail grade.
///
/// The latency is `None` where an analytic run has neither reader and so
/// never bisected for it; [`ServerPerf::latency_s`] is the only way to
/// read it, and it refuses a missing one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServerPerf {
    pub offered_rps: f64,
    pub goodput_rps: f64,
    pub utilization: f64,
    slo_latency_s: Option<f64>,
}

impl ServerPerf {
    /// A server that serves nothing this epoch (dead, or idling through
    /// rejoin probation). Its latency is a known zero, not a skipped
    /// solve: a representative server on probation is graded with it.
    pub const IDLE: Self = Self {
        offered_rps: 0.0,
        goodput_rps: 0.0,
        utilization: 0.0,
        slo_latency_s: Some(0.0),
    };

    /// The SLO-percentile latency. Only a run with a latency reader asks,
    /// and such a run solves every latency it measures.
    pub fn latency_s(&self) -> f64 {
        self.slo_latency_s
            .expect("a latency-reading run solves every percentile latency")
    }

    /// The time-weighted blend of a sprint epoch that collapsed to Normal
    /// mode `w` of the way through: the rates and utilization mix, and
    /// the latency is the worse of the two, if both were solved.
    pub fn blend(&self, normal: &Self, w: f64) -> Self {
        let mix = |a: f64, b: f64| w * a + (1.0 - w) * b;
        Self {
            offered_rps: self.offered_rps,
            goodput_rps: mix(self.goodput_rps, normal.goodput_rps),
            utilization: mix(self.utilization, normal.utilization),
            slo_latency_s: self
                .slo_latency_s
                .zip(normal.slo_latency_s)
                .map(|(s, n)| s.max(n)),
        }
    }
}

/// An analytic measurement of one setting at one admitted rate: a
/// [`ServerPerf`] without the offered rate, which the solves never read.
/// Offered rates at or above the setting's SLO capacity all admit the
/// capacity, so they share one of these; [`Self::offered`] attaches each
/// caller's own offered rate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdmittedPerf {
    pub goodput_rps: f64,
    pub utilization: f64,
    slo_latency_s: Option<f64>,
}

impl AdmittedPerf {
    /// A measurement whose percentile latency is not solved (yet).
    pub fn without_latency(goodput_rps: f64, utilization: f64) -> Self {
        Self {
            goodput_rps,
            utilization,
            slo_latency_s: None,
        }
    }

    /// Whether the percentile latency has been solved.
    #[cfg(test)]
    pub fn has_latency(&self) -> bool {
        self.slo_latency_s.is_some()
    }

    /// Solve a percentile latency the measurement skipped.
    pub fn fill_latency(&mut self, solve: impl FnOnce() -> f64) {
        self.slo_latency_s.get_or_insert_with(solve);
    }

    /// The measurement as seen by a caller that offered `offered_rps`.
    pub fn offered(&self, offered_rps: f64) -> ServerPerf {
        ServerPerf {
            offered_rps,
            goodput_rps: self.goodput_rps,
            utilization: self.utilization,
            slo_latency_s: self.slo_latency_s,
        }
    }
}

impl From<&EpochPerf> for ServerPerf {
    fn from(p: &EpochPerf) -> Self {
        Self {
            offered_rps: p.offered_rps,
            goodput_rps: p.goodput_rps,
            utilization: p.utilization,
            slo_latency_s: Some(p.slo_percentile_latency_s),
        }
    }
}

/// Per-server scratch as parallel arrays, resized once per run and
/// overwritten in place every epoch.
#[derive(Debug, Default)]
pub(crate) struct FleetState {
    // --- rewritten every epoch -----------------------------------------
    /// Responding at all this epoch (not crashed/flapped down).
    pub up: Vec<bool>,
    /// Carrying load this epoch (`up` and past rejoin probation).
    pub live: Vec<bool>,
    /// The setting each server actually runs this epoch.
    pub settings: Vec<ServerSetting>,
    /// What the control plane commanded (before actuation faults).
    pub commanded: Vec<ServerSetting>,
    /// Battery power sustainable for one epoch (controller's view).
    pub instant_w: Vec<f64>,
    /// Battery power sustainable over the planning horizon.
    pub sustained_horizon_w: Vec<f64>,
    /// Battery power sustainable over the remaining burst.
    pub sustained_remaining_w: Vec<f64>,
    /// Physical power draw this epoch.
    pub actual_power: Vec<f64>,
    /// Measured per-server performance this epoch.
    pub perfs: Vec<ServerPerf>,
    /// Indices of sprinting servers (settlement order).
    pub sprinting: Vec<usize>,
    /// Indices of batteries open to charging (length varies per epoch).
    pub open: Vec<usize>,
    /// `(soc, max_dod)` per battery, lent to the invariant auditor.
    pub socs: Vec<(f64, f64)>,
    // --- per-epoch memo tables ------------------------------------------
    /// Learner-free sprint decisions already made this epoch.
    pub decision_memo: InlineMemo<DecisionKey, ServerSetting>,
    /// Analytic measurements already taken this epoch, by setting (the
    /// served rate is constant within an epoch). A short linear-scan
    /// list: epochs see a handful of distinct settings.
    pub perf_memo: Vec<(ServerSetting, ServerPerf)>,
    /// Memoized `Battery::sustainable_power` results, one slot per
    /// planning duration (epoch / horizon / remaining-burst). Keyed by
    /// the bits of `(usable_rated_ah, capacity_ah)` — the only battery
    /// state the Peukert computation reads beyond per-run spec constants
    /// — so one entry serves every battery in the same state and the
    /// `3n` powf-heavy calls per epoch collapse to one per distinct
    /// battery state.
    pub budget_memo: [InlineMemo<(u64, u64), f64>; 3],
    /// Memoized Peukert drain rates for settlement discharges, keyed by
    /// the bits of `(discharge current, capacity_ah)` — the drain is
    /// pure in those given the per-run spec constants (SoC never enters
    /// it), so sprinters drawing the same power share one `powf`.
    pub drain_memo: InlineMemo<(u64, u64), f64>,
}

impl FleetState {
    /// Size every per-server array for an `n`-server run. Values are
    /// engine-initialized afterwards; per-epoch arrays are fully
    /// overwritten before first read each epoch.
    fn begin_run(&mut self, n: usize) {
        fn fit<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) {
            v.clear();
            v.resize(n, fill);
        }
        fit(&mut self.up, n, true);
        fit(&mut self.live, n, true);
        fit(&mut self.settings, n, ServerSetting::normal());
        fit(&mut self.commanded, n, ServerSetting::normal());
        fit(&mut self.instant_w, n, 0.0);
        fit(&mut self.sustained_horizon_w, n, 0.0);
        fit(&mut self.sustained_remaining_w, n, 0.0);
        fit(&mut self.actual_power, n, 0.0);
        fit(&mut self.perfs, n, ServerPerf::IDLE);
        self.sprinting.clear();
        self.open.clear();
        self.socs.clear();
        self.decision_memo.clear();
        self.perf_memo.clear();
        for memo in &mut self.budget_memo {
            memo.clear();
        }
        self.drain_memo.clear();
    }

    /// Clear the per-epoch memo tables (start of every epoch).
    pub fn begin_epoch(&mut self) {
        self.decision_memo.clear();
        self.perf_memo.clear();
        for memo in &mut self.budget_memo {
            memo.clear();
        }
        self.drain_memo.clear();
    }
}

/// Reusable allocation arena for engine runs.
///
/// One experiment uses one scratch exclusively, lending it to its two
/// loops in turn; reusing the same scratch across sequential runs (a
/// sweep worker's tasks, the `bench` trajectory reps) skips the per-run
/// allocation and cache warm-up without affecting a single output byte.
/// Dropping it between runs is always safe — it carries no result state.
#[derive(Debug, Default)]
pub struct EngineScratch {
    pub(crate) fleet: FleetState,
    /// Memo of analytic epoch measurements, keyed by the setting and the
    /// bits of the admitted rate, `min(served rate, SLO capacity)`: the
    /// only form in which either solve reads the rate. Pure in the
    /// application and its profile table, so it is kept across runs that
    /// share both (see [`EngineScratch::begin_run`]). Shared by runs that
    /// read the percentile latency and runs that do not, so an entry may
    /// lack one; a reading run fills it in on read, with the bits a solve
    /// of both halves at once gives.
    pub(crate) analytic_cache: AnalyticCache,
    /// The application whose process-wide cached profile table filled
    /// `analytic_cache`; `None` for any other table.
    cache_app: Option<Application>,
}

/// The analytic-measurement memo: `(setting, admitted_rps.to_bits())` to
/// the measured epoch, less the offered rate.
pub(crate) type AnalyticCache = HashMap<(ServerSetting, u64), AdmittedPerf, FxBuildHasher>;

/// Past this many entries the analytic cache is dropped at the next run
/// start, bounding what a long-lived scratch (a sweep worker's) holds.
pub(crate) const ANALYTIC_CACHE_CAP: usize = 65_536;

impl EngineScratch {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset for an `n`-server run measuring against `cached_app`'s
    /// process-wide cached profile table (`None` for any other table):
    /// sizes the fleet arrays and clears the memo tables (capacity is
    /// retained). The analytic cache is kept only when the previous run
    /// used the same cached table and it holds at most
    /// [`ANALYTIC_CACHE_CAP`] entries.
    pub(crate) fn begin_run(&mut self, n: usize, cached_app: Option<Application>) {
        self.fleet.begin_run(n);
        if cached_app.is_none()
            || cached_app != self.cache_app
            || self.analytic_cache.len() > ANALYTIC_CACHE_CAP
        {
            self.analytic_cache.clear();
        }
        self.cache_app = cached_app;
    }
}

/// A hash-map memo fronted by a one-entry inline cache. The per-server
/// loops mostly present *runs* of identical keys (fleets cluster into a
/// handful of states), and the run case hits the inline slot with a key
/// compare instead of a hash-and-probe. Purely a lookup structure for
/// per-epoch pure-function memos — iteration order is never observed.
#[derive(Debug, Default)]
pub(crate) struct InlineMemo<K: Copy + Eq + std::hash::Hash, V: Copy> {
    last: Option<(K, V)>,
    map: HashMap<K, V, FxBuildHasher>,
}

impl<K: Copy + Eq + std::hash::Hash, V: Copy> InlineMemo<K, V> {
    /// Drop every entry (start of an epoch — durations and epoch-scoped
    /// inputs change, so stale values must not survive).
    pub fn clear(&mut self) {
        self.last = None;
        self.map.clear();
    }

    /// Look up `key`, refreshing the inline slot on a map hit.
    pub fn get(&mut self, key: K) -> Option<V> {
        if let Some((k, v)) = self.last {
            if k == key {
                return Some(v);
            }
        }
        let v = self.map.get(&key).copied();
        if let Some(v) = v {
            self.last = Some((key, v));
        }
        v
    }

    /// Record `key → v` and make it the inline entry.
    pub fn insert(&mut self, key: K, v: V) {
        self.last = Some((key, v));
        self.map.insert(key, v);
    }

    /// The memoized value for `key`, computing and recording it on miss.
    pub fn get_or_insert_with(&mut self, key: K, f: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(key) {
            return v;
        }
        let v = f();
        self.insert(key, v);
        v
    }

    /// True when no entry has been recorded since the last clear.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// `BuildHasher` for the hot-path hash maps.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The FxHash word-at-a-time multiply-xor hash (the rustc hash): not
/// DoS-resistant, which is fine for keys the simulation itself produces,
/// and several times faster than SipHash on the small fixed-size keys the
/// epoch loop uses. Hand-rolled because the workspace vendors no hashing
/// crate.
#[derive(Debug, Default, Clone)]
pub(crate) struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add_word(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_run_sizes_every_array() {
        let mut s = EngineScratch::new();
        s.begin_run(7, None);
        assert_eq!(s.fleet.settings.len(), 7);
        assert_eq!(s.fleet.perfs.len(), 7);
        assert_eq!(s.fleet.instant_w.len(), 7);
        s.fleet.sprinting.push(3);
        s.fleet.decision_memo.insert(
            (0, 0, 0, ServerSetting::normal()),
            ServerSetting::max_sprint(),
        );
        s.analytic_cache.insert(
            (ServerSetting::normal(), 0),
            AdmittedPerf::without_latency(0.0, 0.0),
        );
        // A new run clears per-epoch lists and, off a cached table, the
        // analytic cache.
        s.begin_run(3, None);
        assert_eq!(s.fleet.settings.len(), 3);
        assert!(s.fleet.sprinting.is_empty());
        assert!(s.fleet.decision_memo.is_empty());
        assert!(s.analytic_cache.is_empty());
    }

    fn fill(s: &mut EngineScratch, entries: usize) {
        for rps in 0..entries as u64 {
            s.analytic_cache.insert(
                (ServerSetting::normal(), rps),
                AdmittedPerf::without_latency(0.0, 0.0),
            );
        }
    }

    #[test]
    fn analytic_cache_is_kept_only_for_the_same_cached_app() {
        let jbb = Some(Application::SpecJbb);
        let mut s = EngineScratch::new();
        s.begin_run(3, jbb);
        fill(&mut s, 5);
        // Same cached table: the strategy pass's entries serve the next run.
        s.begin_run(3, jbb);
        assert_eq!(s.analytic_cache.len(), 5);
        // A different application's table: cleared.
        s.begin_run(3, Some(Application::Memcached));
        assert!(s.analytic_cache.is_empty());
        // An uncached table, then back to a cached one: cleared both times.
        fill(&mut s, 5);
        s.begin_run(3, None);
        assert!(s.analytic_cache.is_empty());
        fill(&mut s, 5);
        s.begin_run(3, jbb);
        assert!(s.analytic_cache.is_empty());
    }

    #[test]
    fn analytic_cache_is_dropped_past_its_cap() {
        let jbb = Some(Application::SpecJbb);
        let mut s = EngineScratch::new();
        s.begin_run(3, jbb);
        fill(&mut s, ANALYTIC_CACHE_CAP);
        s.begin_run(3, jbb);
        assert_eq!(s.analytic_cache.len(), ANALYTIC_CACHE_CAP);
        fill(&mut s, ANALYTIC_CACHE_CAP + 1);
        s.begin_run(3, jbb);
        assert!(s.analytic_cache.is_empty());
    }

    #[test]
    fn fx_hasher_distinguishes_and_repeats() {
        use std::hash::Hash;
        let h = |k: &DecisionKey| {
            let mut hasher = FxHasher::default();
            k.hash(&mut hasher);
            hasher.finish()
        };
        let a = (1u64, 2u64, 3u64, ServerSetting::normal());
        let b = (1u64, 2u64, 4u64, ServerSetting::normal());
        assert_eq!(h(&a), h(&a));
        assert_ne!(h(&a), h(&b));
    }
}
