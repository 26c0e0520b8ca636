//! Request-level discrete-event simulation of one server.
//!
//! The measurement plane of the reproduction: Poisson arrivals are thinned
//! by admission control (interactive clusters shed load at the balancer to
//! protect tail latency), admitted requests queue FIFO for the active
//! cores, and each completion's latency is checked against the SLO.
//!
//! The simulator is *persistent*: in-flight requests survive epoch
//! boundaries, so consecutive epochs with different sprint settings see
//! realistic carry-over (no preemption — when the core count drops,
//! running requests finish and no new ones start until occupancy falls
//! below the new limit).
//!
//! The kernel is two event sources and no event queue: the next arrival is
//! one timestamp, and the in-service set holds at most one request per
//! core (`MAX_CORES`, 12). A binary heap that small beats any bucketed
//! queue. Each epoch builds its service-time sampler once
//! (`AppProfile::service_sampler`), and the epoch's SLO percentile is a
//! selection over the latency reservoir, not a sort.

use crate::apps::{AppProfile, ServiceSampler};
use crate::metrics::EpochPerf;
use gs_cluster::ServerSetting;
use gs_sim::{ReservoirPercentiles, SimDuration, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Maximum queued requests before overload shedding (beyond admission).
const QUEUE_CAP: usize = 50_000;

/// Latency reservoir size per epoch.
const LATENCY_RESERVOIR: usize = 20_000;

/// A single simulated server.
#[derive(Debug)]
pub struct ServerSim {
    rng: SimRng,
    now: SimTime,
    /// Arrival timestamps of queued requests (FIFO).
    queue: VecDeque<SimTime>,
    /// `(completion time, arrival time)` of in-service requests, popped
    /// earliest completion first. Requests enter service in arrival
    /// order, so equal completion times pop in arrival (FIFO) order.
    in_service: BinaryHeap<Reverse<(SimTime, SimTime)>>,
}

impl ServerSim {
    /// Create a server simulator with its own random stream.
    pub fn new(rng: SimRng) -> Self {
        ServerSim {
            rng,
            now: SimTime::ZERO,
            queue: VecDeque::new(),
            in_service: BinaryHeap::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Requests currently queued or in service.
    pub fn backlog(&self) -> usize {
        self.queue.len() + self.in_service.len()
    }

    /// Advance one scheduling epoch at fixed knobs and offered load.
    ///
    /// * `offered_rps` — open-loop Poisson arrival rate;
    /// * `admit_rps` — admission-controlled rate (requests beyond it are
    ///   shed at the balancer); pass `f64::INFINITY` to admit everything;
    /// * the sprint `setting` fixes core count and service speed.
    pub fn advance_epoch(
        &mut self,
        app: &AppProfile,
        setting: ServerSetting,
        offered_rps: f64,
        admit_rps: f64,
        epoch: SimDuration,
    ) -> EpochPerf {
        let end = self.now + epoch;
        let cores = setting.cores as usize;
        let admit_p = if offered_rps <= 0.0 {
            0.0
        } else {
            (admit_rps / offered_rps).clamp(0.0, 1.0)
        };

        let mut offered = 0u64;
        let mut admitted = 0u64;
        let mut shed = 0u64;
        let mut completed = 0u64;
        let mut slo_met = 0u64;
        let mut latency_sum = 0.0;
        let mut latencies = ReservoirPercentiles::with_cap(LATENCY_RESERVOIR);
        let mut busy_core_secs = 0.0;
        let service = app.service_sampler(setting);

        // Start any queued work the (possibly increased) core budget allows.
        self.fill_cores(&service, cores);

        let mut next_arrival = if offered_rps > 0.0 {
            self.now + SimDuration::from_secs_f64(self.rng.exp(1.0 / offered_rps))
        } else {
            end + SimDuration::from_secs(1) // never fires
        };

        loop {
            let next_completion = self.in_service.peek().map(|&Reverse((done, _))| done);
            // The next event is the earlier of arrival and completion,
            // bounded by the epoch end.
            let next_event = match next_completion {
                Some(c) => next_arrival.min(c),
                None => next_arrival,
            };
            if next_event >= end {
                busy_core_secs += self.in_service.len() as f64 * (end - self.now).as_secs_f64();
                self.now = end;
                break;
            }
            busy_core_secs += self.in_service.len() as f64 * (next_event - self.now).as_secs_f64();
            self.now = next_event;

            if Some(next_event) == next_completion && next_event <= next_arrival {
                // Completion first (ties prefer completions: frees a core
                // before the simultaneous arrival is placed).
                let Reverse((done, arrived)) = self.in_service.pop().expect("peeked above");
                debug_assert_eq!(done, next_event);
                let lat = (done - arrived).as_secs_f64();
                completed += 1;
                latency_sum += lat;
                latencies.record(lat);
                if lat <= app.slo_deadline_s {
                    slo_met += 1;
                }
                self.fill_cores(&service, cores);
            } else {
                // Arrival.
                offered += 1;
                if self.rng.chance(admit_p) && self.queue.len() < QUEUE_CAP {
                    admitted += 1;
                    self.queue.push_back(self.now);
                    self.fill_cores(&service, cores);
                } else {
                    shed += 1;
                }
                next_arrival =
                    self.now + SimDuration::from_secs_f64(self.rng.exp(1.0 / offered_rps));
            }
        }

        let secs = epoch.as_secs_f64();
        EpochPerf {
            offered_rps: offered as f64 / secs,
            admitted_rps: admitted as f64 / secs,
            completed_rps: completed as f64 / secs,
            goodput_rps: slo_met as f64 / secs,
            shed_rps: shed as f64 / secs,
            mean_latency_s: if completed > 0 {
                latency_sum / completed as f64
            } else {
                0.0
            },
            slo_percentile_latency_s: latencies.quantile(app.slo_percentile).unwrap_or(0.0),
            utilization: (busy_core_secs / (cores as f64 * secs)).clamp(0.0, 1.0),
        }
    }

    /// Move queued requests into service while cores are free.
    fn fill_cores(&mut self, service: &ServiceSampler<'_>, cores: usize) {
        while self.in_service.len() < cores {
            let Some(arrived) = self.queue.pop_front() else {
                break;
            };
            let done = self.now + SimDuration::from_secs_f64(service.sample(&mut self.rng));
            self.in_service.push(Reverse((done, arrived)));
        }
    }

    /// Drop all queued and in-flight work (burst teardown between
    /// independent experiments).
    pub fn drain(&mut self) {
        self.queue.clear();
        self.in_service.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::Application;

    fn sim(seed: u64) -> ServerSim {
        ServerSim::new(SimRng::seed_from_u64(seed))
    }

    #[test]
    fn light_load_completes_everything_within_slo() {
        let app = Application::SpecJbb.profile();
        let setting = ServerSetting::max_sprint();
        let mut s = sim(1);
        let cap = app.slo_capacity(setting);
        let perf = s.advance_epoch(
            &app,
            setting,
            cap * 0.3,
            f64::INFINITY,
            SimDuration::from_secs(120),
        );
        assert!(perf.completed_rps > 0.25 * cap);
        assert!(
            perf.slo_attainment() > 0.99,
            "attainment {}",
            perf.slo_attainment()
        );
        assert!(perf.shed_rps == 0.0);
        assert!(perf.utilization < 0.6);
    }

    #[test]
    fn admission_thinning_sheds_excess() {
        let app = Application::SpecJbb.profile();
        let setting = ServerSetting::normal();
        let mut s = sim(2);
        let cap = app.slo_capacity(setting);
        let perf = s.advance_epoch(&app, setting, cap * 3.0, cap, SimDuration::from_secs(120));
        // Roughly two thirds shed.
        let shed_frac = perf.shed_rps / perf.offered_rps;
        assert!((shed_frac - 2.0 / 3.0).abs() < 0.05, "shed {shed_frac}");
        // Admitted traffic still largely meets the SLO.
        assert!(
            perf.slo_attainment() > 0.95,
            "attainment {}",
            perf.slo_attainment()
        );
    }

    #[test]
    fn des_validates_analytic_slo_capacity() {
        // The DES run *at* the analytic SLO capacity should sit right at
        // the SLO boundary: attainment close to the percentile target.
        let app = Application::SpecJbb.profile();
        for setting in [ServerSetting::normal(), ServerSetting::max_sprint()] {
            let cap = app.slo_capacity(setting);
            let mut s = sim(3);
            let perf = s.advance_epoch(
                &app,
                setting,
                cap,
                f64::INFINITY,
                SimDuration::from_secs(600),
            );
            let met = perf.slo_attainment();
            assert!(
                met > app.slo_percentile - 0.035,
                "{setting}: attainment {met} far below {}",
                app.slo_percentile
            );
        }
    }

    #[test]
    fn saturation_throughput_matches_raw_capacity() {
        let app = Application::SpecJbb.profile();
        let setting = ServerSetting::normal();
        let raw = app.raw_capacity(setting);
        let mut s = sim(4);
        // Overload without admission: completions approach raw capacity.
        let perf = s.advance_epoch(
            &app,
            setting,
            raw * 2.0,
            f64::INFINITY,
            SimDuration::from_secs(300),
        );
        assert!(
            (perf.completed_rps - raw).abs() / raw < 0.05,
            "completed {} vs raw {raw}",
            perf.completed_rps
        );
        assert!(perf.utilization > 0.98);
        // And the SLO is devastated — the overload case the paper sprints
        // to avoid.
        assert!(perf.slo_attainment() < 0.6);
    }

    #[test]
    fn state_persists_across_epochs() {
        let app = Application::SpecJbb.profile();
        let setting = ServerSetting::normal();
        let mut s = sim(5);
        // Saturate briefly without admission control…
        s.advance_epoch(
            &app,
            setting,
            1000.0,
            f64::INFINITY,
            SimDuration::from_secs(5),
        );
        let backlog = s.backlog();
        assert!(backlog > 10, "backlog {backlog}");
        // …then the backlog drains in a zero-load epoch.
        let perf = s.advance_epoch(&app, setting, 0.0, 0.0, SimDuration::from_secs(60));
        assert!(perf.completed_rps > 0.0);
        assert!(s.backlog() < backlog);
        assert_eq!(s.now(), SimTime::from_secs(65));
    }

    #[test]
    fn core_count_reduction_is_non_preemptive() {
        let app = Application::SpecJbb.profile();
        let mut s = sim(6);
        s.advance_epoch(
            &app,
            ServerSetting::max_sprint(),
            500.0,
            f64::INFINITY,
            SimDuration::from_secs(2),
        );
        assert!(s.backlog() > 0);
        // Shrinking to 6 cores must not lose the in-flight requests.
        let before = s.backlog();
        let perf = s.advance_epoch(
            &app,
            ServerSetting::normal(),
            0.0,
            0.0,
            SimDuration::from_millis(10),
        );
        // Nothing shed, work conserved modulo completions.
        assert_eq!(perf.shed_rps, 0.0);
        assert!(s.backlog() <= before);
    }

    #[test]
    fn deterministic_given_seed() {
        let app = Application::Memcached.profile();
        let setting = ServerSetting::new(9, 4);
        let run = |seed| {
            let mut s = sim(seed);
            let p = s.advance_epoch(&app, setting, 800.0, 700.0, SimDuration::from_secs(30));
            (p.completed_rps, p.goodput_rps, p.mean_latency_s)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn drain_clears_state() {
        let app = Application::SpecJbb.profile();
        let mut s = sim(9);
        s.advance_epoch(
            &app,
            ServerSetting::normal(),
            1000.0,
            f64::INFINITY,
            SimDuration::from_secs(2),
        );
        s.drain();
        assert_eq!(s.backlog(), 0);
    }

    #[test]
    fn empirical_service_distribution_replays_through_the_des() {
        use crate::dist::EmpiricalDist;
        // A bimodal service shape: 80 % cheap requests, 20 % ten times
        // heavier (a cache-hit/miss pattern a log-normal cannot express).
        let mut samples = vec![1.0_f64; 800];
        samples.extend(std::iter::repeat_n(10.0, 200));
        let dist = EmpiricalDist::from_samples(samples).unwrap();
        let app = Application::SpecJbb.profile().with_empirical_service(dist);
        // The profile's CV was rebuilt from the samples.
        assert!(app.service_cv > 1.0, "bimodal cv {}", app.service_cv);
        let setting = ServerSetting::max_sprint();
        let mut s = sim(11);
        let perf = s.advance_epoch(
            &app,
            setting,
            app.raw_capacity(setting) * 0.3,
            f64::INFINITY,
            SimDuration::from_secs(300),
        );
        assert!(perf.completed_rps > 0.0);
        // The mean latency at light load approaches the (scaled) mean
        // service time, whatever the shape.
        let mean_s = app.mean_service_s(setting);
        assert!(
            (perf.mean_latency_s - mean_s).abs() / mean_s < 0.25,
            "mean latency {} vs service mean {mean_s}",
            perf.mean_latency_s
        );
        // And the bimodal tail shows: the p99-ish latency is several times
        // the mean (log-normal at the default cv 0.32 would be ~2x).
        assert!(
            perf.slo_percentile_latency_s > 2.5 * perf.mean_latency_s,
            "p99 {} vs mean {}",
            perf.slo_percentile_latency_s,
            perf.mean_latency_s
        );
    }

    #[test]
    fn zero_offered_rate_is_quiet() {
        let app = Application::SpecJbb.profile();
        let mut s = sim(10);
        let perf = s.advance_epoch(
            &app,
            ServerSetting::normal(),
            0.0,
            100.0,
            SimDuration::from_secs(10),
        );
        assert_eq!(perf.offered_rps, 0.0);
        assert_eq!(perf.completed_rps, 0.0);
        assert_eq!(perf.utilization, 0.0);
    }
}
