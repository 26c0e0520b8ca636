//! Offline profiling tables.
//!
//! Paper §III-B: "We measure and collect the power demand
//! `LoadPower_j(L_{j,t}, S_{j,t})` of an individual workload for each
//! server setting `S_j` and workload intensity level `L_j` with a priori
//! knowledge using an exhaustive method on real servers." The PMK
//! strategies and the Hybrid learner's bootstrap all read these tables.
//!
//! Our "real servers" are the calibrated models of `gs-cluster` +
//! `gs-workload`; the exhaustive sweep enumerates all 63 sprint settings
//! once and caches SLO capacity, raw capacity, and full-load power. The
//! table is also the one owner of every load rate the paper derives from
//! a setting's capacity: the `Int=k` burst, its background and a
//! campaign's peak are reads of its entries, never fresh solves.

use gs_cluster::{ServerSetting, MAX_CORES, NORMAL_CORES, NUM_FREQ_LEVELS};
use gs_sim::SimTime;
use gs_workload::apps::{AppProfile, Application};
use gs_workload::arrivals::BurstPattern;
use gs_workload::queueing::Station;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::OnceLock;

/// Size of the sprint-setting space `S` (7 core counts × 9 frequencies).
const SETTINGS: usize = (MAX_CORES - NORMAL_CORES + 1) as usize * NUM_FREQ_LEVELS;

/// The process-wide cache, one slot per paper application: the profile
/// table plus, per setting, the analytic plane's quadrature grids. Both
/// depend only on the application's calibrated model — the measurement
/// mode (DES vs analytic) never enters them, so keying by application
/// alone is exact, not an approximation.
static CACHED: [AppCache; 3] = [const { AppCache::new() }; 3];

/// One application's cached table and its lazily-built per-setting grids.
/// The grids are built on first use rather than with the table: most runs
/// touch a handful of the 63 settings, and all of them would cost ~1 MB
/// per application.
struct AppCache {
    table: OnceLock<ProfileTable>,
    grids: [OnceLock<QuadGrids>; SETTINGS],
}

impl AppCache {
    const fn new() -> Self {
        AppCache {
            table: OnceLock::new(),
            grids: [const { OnceLock::new() }; SETTINGS],
        }
    }
}

/// The quadrature grids the analytic measurement integrates over for one
/// station: the full service-quantile grid (goodput tail) and its
/// every-8th-point decimation (percentile-latency bisection).
#[derive(Debug, Clone)]
pub(crate) struct QuadGrids {
    /// The station the grids were built from.
    station: Station,
    /// [`Station::service_grid`].
    pub full: Vec<f64>,
    /// Every 8th point of `full`.
    pub coarse: Vec<f64>,
}

impl QuadGrids {
    /// Build both grids for `station`.
    fn build(station: Station) -> Self {
        let full = station.service_grid();
        let coarse = full.iter().step_by(8).copied().collect();
        QuadGrids {
            station,
            full,
            coarse,
        }
    }
}

/// Cache slot for an application.
pub(crate) fn app_cache_index(app: Application) -> usize {
    match app {
        Application::SpecJbb => 0,
        Application::WebSearch => 1,
        Application::Memcached => 2,
    }
}

/// One profiled setting.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SettingProfile {
    /// The sprint setting.
    pub setting: ServerSetting,
    /// SLO-constrained capacity (req/s) — the performance entry.
    pub slo_capacity: f64,
    /// Saturation capacity (req/s) — used to convert load to utilization.
    pub raw_capacity: f64,
    /// Full-load power (W) — `LoadPower(L_max, S)`.
    pub full_load_power_w: f64,
    /// Idle power (W).
    pub idle_power_w: f64,
}

impl SettingProfile {
    /// Power (W) at an offered load of `rps`, interpolating linearly in
    /// utilization between idle and full load — the paper's
    /// `LoadPower(L, S)` with `L` quantized by the measured intensity.
    pub fn load_power_w(&self, rps: f64) -> f64 {
        let util = (rps / self.raw_capacity).clamp(0.0, 1.0);
        self.idle_power_w + util * (self.full_load_power_w - self.idle_power_w)
    }
}

/// The exhaustive per-application profile table, indexed by
/// [`ServerSetting::action_index`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileTable {
    entries: Vec<SettingProfile>,
}

impl ProfileTable {
    /// Run the exhaustive sweep for an application.
    pub fn build(app: &AppProfile) -> Self {
        let model = app.power_model();
        let entries = ServerSetting::all()
            .into_iter()
            .map(|setting| SettingProfile {
                setting,
                slo_capacity: app.slo_capacity(setting),
                raw_capacity: app.raw_capacity(setting),
                full_load_power_w: model.full_load_power_w(setting),
                idle_power_w: model.min_power_w(),
            })
            .collect();
        ProfileTable { entries }
    }

    /// The shared, lazily-built table for a paper application. The sweep
    /// is deterministic, so all engines can share one copy per process.
    pub fn cached(app: Application) -> &'static ProfileTable {
        CACHED[app_cache_index(app)]
            .table
            .get_or_init(|| ProfileTable::build(&app.profile()))
    }

    /// If `table` is one of the process-wide cached tables, the
    /// application it belongs to. Lets downstream caches (e.g. the
    /// Hybrid learner's bootstrap) key themselves by application without
    /// forcing any table to build.
    pub fn cached_app(table: &ProfileTable) -> Option<Application> {
        Application::ALL
            .into_iter()
            .find(|&app| table.is_cached_for(app))
    }

    /// True when `self` is `app`'s process-wide cached table.
    fn is_cached_for(&self, app: Application) -> bool {
        CACHED[app_cache_index(app)]
            .table
            .get()
            .is_some_and(|t| std::ptr::eq(t, self))
    }

    /// The quadrature grids of `station`, which runs `setting` under
    /// `app`: the process-wide copy (built on first use from the
    /// calibrated model) when `self` is `app`'s cached table and the
    /// copy was built for this very station, else freshly built ones.
    pub(crate) fn quad_grids(
        &self,
        app: Application,
        setting: ServerSetting,
        station: Station,
    ) -> Cow<'static, QuadGrids> {
        if self.is_cached_for(app) {
            let shared = CACHED[app_cache_index(app)].grids[setting.action_index()]
                .get_or_init(|| QuadGrids::build(app.profile().station(setting)));
            if shared.station == station {
                return Cow::Borrowed(shared);
            }
        }
        Cow::Owned(QuadGrids::build(station))
    }

    /// Profile of one setting.
    pub fn get(&self, setting: ServerSetting) -> &SettingProfile {
        &self.entries[setting.action_index()]
    }

    /// All profiled settings.
    pub fn entries(&self) -> &[SettingProfile] {
        &self.entries
    }

    /// The paper's `Int=k` offered rate (req/s per server): "the maximal
    /// processing capability of running workloads on *k* cores at
    /// 2.0 GHz" (§IV-D), the SLO capacity of entry `(k_cores, 2.0 GHz)`.
    /// Panics if `k_cores` is not a core count of the setting space;
    /// `EngineConfig::validate` and `CampaignConfig::validate` refuse
    /// such a configuration first.
    pub fn intensity_rps(&self, k_cores: u8) -> f64 {
        self.get(ServerSetting::new(k_cores, (NUM_FREQ_LEVELS - 1) as u8))
            .slo_capacity
    }

    /// The paper's `Int=k` burst from `start` to `end`: [`Self::intensity_rps`]
    /// inside the window and a light background outside it.
    pub fn burst_pattern(&self, k_cores: u8, start: SimTime, end: SimTime) -> BurstPattern {
        assert!(end > start, "burst must have positive duration");
        BurstPattern {
            burst_rps: self.intensity_rps(k_cores),
            // Outside bursts interactive services idle at a small fraction
            // of Normal capacity.
            background_rps: 0.2 * self.get(ServerSetting::normal()).slo_capacity,
            start,
            end,
        }
    }

    /// Expected goodput (req/s) at a setting under offered load `rps`:
    /// `min(load, SLO capacity)` — the per-epoch term of the paper's
    /// objective (Eq. 3).
    pub fn expected_perf(&self, setting: ServerSetting, offered_rps: f64) -> f64 {
        offered_rps.min(self.get(setting).slo_capacity)
    }

    /// Planning power (W) at a setting for offered load `rps`
    /// (`LoadPower(L_pre, S)` in Eq. 2).
    pub fn planned_power_w(&self, setting: ServerSetting, offered_rps: f64) -> f64 {
        let e = self.get(setting);
        let served = offered_rps.min(e.raw_capacity);
        e.load_power_w(served)
    }

    /// The cheapest setting (by planned power) among `candidates` that
    /// still delivers at least `target_perf` under `offered_rps`; `None`
    /// if no candidate reaches the target.
    pub fn cheapest_reaching(
        &self,
        candidates: &[ServerSetting],
        offered_rps: f64,
        target_perf: f64,
    ) -> Option<ServerSetting> {
        candidates
            .iter()
            .copied()
            .filter(|&s| self.expected_perf(s, offered_rps) >= target_perf)
            .min_by(|&a, &b| {
                self.planned_power_w(a, offered_rps)
                    .total_cmp(&self.planned_power_w(b, offered_rps))
            })
    }

    /// Among `candidates` whose planned power fits `budget_w`, the one with
    /// the highest expected performance; ties break toward lower power
    /// (energy efficiency). Returns `None` if nothing fits the budget.
    pub fn best_within_budget(
        &self,
        candidates: &[ServerSetting],
        offered_rps: f64,
        budget_w: f64,
    ) -> Option<ServerSetting> {
        candidates
            .iter()
            .copied()
            .filter(|&s| self.planned_power_w(s, offered_rps) <= budget_w)
            .max_by(|&a, &b| {
                let (pa, pb) = (
                    self.expected_perf(a, offered_rps),
                    self.expected_perf(b, offered_rps),
                );
                pa.total_cmp(&pb).then_with(|| {
                    // Prefer *lower* power on perf ties.
                    self.planned_power_w(b, offered_rps)
                        .total_cmp(&self.planned_power_w(a, offered_rps))
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_workload::apps::Application;

    fn table() -> ProfileTable {
        ProfileTable::build(&Application::SpecJbb.profile())
    }

    #[test]
    fn covers_all_63_settings() {
        let t = table();
        assert_eq!(t.entries().len(), 63);
        for s in ServerSetting::all() {
            assert_eq!(t.get(s).setting, s);
        }
    }

    #[test]
    fn load_power_interpolates() {
        let t = table();
        let e = t.get(ServerSetting::max_sprint());
        assert_eq!(e.load_power_w(0.0), e.idle_power_w);
        assert!((e.load_power_w(f64::INFINITY) - e.full_load_power_w).abs() < 1e-9);
        let half = e.load_power_w(e.raw_capacity / 2.0);
        assert!((half - (e.idle_power_w + e.full_load_power_w) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn expected_perf_caps_at_slo_capacity() {
        let t = table();
        let s = ServerSetting::normal();
        let cap = t.get(s).slo_capacity;
        assert_eq!(t.expected_perf(s, cap / 2.0), cap / 2.0);
        assert_eq!(t.expected_perf(s, cap * 10.0), cap);
    }

    #[test]
    fn best_within_budget_prefers_perf_then_low_power() {
        let t = table();
        let all = ServerSetting::all();
        let heavy_load = 1e9;
        // Huge budget: should pick the max-performance setting (max sprint).
        let best = t.best_within_budget(&all, heavy_load, 1e9).unwrap();
        assert_eq!(best, ServerSetting::max_sprint());
        // Budget below idle: nothing fits.
        assert_eq!(t.best_within_budget(&all, heavy_load, 10.0), None);
        // Budget of ~100 W: Normal-class settings only.
        let best = t.best_within_budget(&all, heavy_load, 100.0).unwrap();
        assert!(t.planned_power_w(best, heavy_load) <= 100.0);
        // With a tiny offered load every setting performs equally; the
        // tie-break must pick something idle-cheap.
        let light = t.best_within_budget(&all, 1.0, 1e9).unwrap();
        assert!(
            t.planned_power_w(light, 1.0) <= t.planned_power_w(ServerSetting::max_sprint(), 1.0)
        );
    }

    #[test]
    fn cheapest_reaching_finds_energy_efficient_setting() {
        let t = table();
        let all = ServerSetting::all();
        let normal_cap = t.get(ServerSetting::normal()).slo_capacity;
        // Reaching Normal-level perf should not require max sprint power.
        let s = t.cheapest_reaching(&all, 1e9, normal_cap).unwrap();
        assert!(t.planned_power_w(s, 1e9) < t.get(ServerSetting::max_sprint()).full_load_power_w);
        // An impossible target yields None.
        assert_eq!(t.cheapest_reaching(&all, 1e9, 1e12), None);
    }

    #[test]
    fn intensity_burst_rate_matches_k_core_capacity() {
        let app = Application::SpecJbb.profile();
        let t = ProfileTable::build(&app);
        let b = t.burst_pattern(9, SimTime::from_mins(5), SimTime::from_mins(15));
        let expect = app.slo_capacity(ServerSetting::new(9, 8));
        assert!((b.burst_rps - expect).abs() < 1e-9);
        // Int=12 is the full sprint capacity; Int=7 lower.
        let b12 = t.burst_pattern(12, SimTime::ZERO, SimTime::from_mins(1));
        let b7 = t.burst_pattern(7, SimTime::ZERO, SimTime::from_mins(1));
        assert!(b12.burst_rps > b.burst_rps && b.burst_rps > b7.burst_rps);
    }

    #[test]
    fn burst_window_semantics() {
        let t = ProfileTable::build(&Application::Memcached.profile());
        let b = t.burst_pattern(12, SimTime::from_mins(10), SimTime::from_mins(20));
        assert!(!b.in_burst(SimTime::from_mins(9)));
        assert!(b.in_burst(SimTime::from_mins(10)));
        assert!(!b.in_burst(SimTime::from_mins(20)));
        assert_eq!(b.offered_rps(SimTime::from_mins(15)), b.burst_rps);
        assert_eq!(b.offered_rps(SimTime::from_mins(25)), b.background_rps);
        assert!(b.background_rps < b.burst_rps);
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn rejects_empty_burst() {
        let _ = table().burst_pattern(12, SimTime::from_mins(5), SimTime::from_mins(5));
    }

    /// Every rate a run reads from the cached table carries the bits a
    /// fresh `AppProfile::slo_capacity` solve gives, for every paper
    /// application and every `Int=k` the configs accept.
    #[test]
    fn table_rates_are_the_slo_capacity_solves_bit_for_bit() {
        for app in Application::ALL {
            let profile = app.profile();
            let t = ProfileTable::cached(app);
            let background = 0.2 * profile.slo_capacity(ServerSetting::normal());
            for k in NORMAL_CORES..=MAX_CORES {
                let want = profile.slo_capacity(ServerSetting::new(k, 8));
                let b = t.burst_pattern(k, SimTime::ZERO, SimTime::from_mins(10));
                assert_eq!(b.burst_rps.to_bits(), want.to_bits(), "{app} Int={k}");
                assert_eq!(b.background_rps.to_bits(), background.to_bits(), "{app}");
                // A campaign's peak rate.
                assert_eq!(
                    t.intensity_rps(k).to_bits(),
                    want.to_bits(),
                    "{app} Int={k}"
                );
            }
        }
    }

    #[test]
    fn profiles_are_consistent_with_app_model() {
        let app = Application::Memcached.profile();
        let t = ProfileTable::build(&app);
        for s in [ServerSetting::normal(), ServerSetting::max_sprint()] {
            assert!((t.get(s).slo_capacity - app.slo_capacity(s)).abs() < 1e-9);
            assert!((t.get(s).full_load_power_w - app.load_power_w(s)).abs() < 1e-9);
        }
    }
}
