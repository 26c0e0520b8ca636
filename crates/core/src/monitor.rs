//! The Monitor (paper Fig. 3): collects the power and performance signals
//! the Predictor, PSS, and PMK consume, and retains them as time series
//! for reporting (paper Fig. 5 is drawn straight from these streams).

use gs_sim::{SimTime, TimeSeries};
use serde::{Deserialize, Serialize};

/// One epoch's observations for the green rack.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Observation {
    /// Renewable production available to the rack (W).
    pub re_supply_w: f64,
    /// Aggregate power demand of the green servers (W).
    pub demand_w: f64,
    /// Aggregate battery discharge (W).
    pub battery_w: f64,
    /// Mean battery state of charge across the rack (fraction).
    pub battery_soc: f64,
    /// Aggregate goodput of the green servers (req/s).
    pub goodput_rps: f64,
    /// Offered load per green server (req/s).
    pub offered_rps: f64,
}

/// Per-epoch trust annotations for an [`Observation`]. [`Default`] is
/// fully trusted; the engine downgrades flags when fault injection breaks
/// a sensor.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ObservationQuality {
    /// The supply reading is a fresh, verified sensor value (not a
    /// held-over last-good).
    pub re_fresh: bool,
    /// The SoC reading comes from a trusted BMS (no misreport active).
    pub soc_trusted: bool,
}

impl Default for ObservationQuality {
    fn default() -> Self {
        ObservationQuality {
            re_fresh: true,
            soc_trusted: true,
        }
    }
}

/// Time-series retention of every observation stream.
///
/// Deserializes with container-level defaults so serialized monitors from
/// before a stream existed load with that stream empty.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct Monitor {
    re_supply: TimeSeries,
    demand: TimeSeries,
    battery_power: TimeSeries,
    battery_soc: TimeSeries,
    goodput: TimeSeries,
    offered: TimeSeries,
    /// 1.0 where the supply reading was fresh, 0.0 where it was held over
    /// from the last good epoch.
    re_quality: TimeSeries,
    /// Timestamp and value of the last *fresh* supply reading.
    last_good_re: Option<(SimTime, f64)>,
    /// Timestamp and value of the last *trusted* SoC reading.
    last_good_soc: Option<(SimTime, f64)>,
    /// Epochs recorded without a fresh supply reading.
    stale_re_epochs: usize,
    /// Guardrail failover-ladder level per epoch (0 = active strategy).
    /// Only populated when the guardrail is enabled.
    ladder: TimeSeries,
    /// Live-server count per epoch (the fleet-size stream). Only
    /// populated when the engine tracks fleet faults.
    fleet_live: TimeSeries,
    /// Per-server liveness streams (1.0 live, 0.0 dead), one per green
    /// server, named `server<i>_live`. Empty until the first fleet
    /// recording.
    server_live: Vec<TimeSeries>,
    /// The broker-routed load factor applied per epoch (1.0 = the nominal
    /// stream). Only populated when a datacenter broker steers the rack.
    route_factor: TimeSeries,
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new()
    }
}

impl Monitor {
    /// An empty monitor.
    pub fn new() -> Self {
        Monitor {
            re_supply: TimeSeries::new("re_supply_w"),
            demand: TimeSeries::new("demand_w"),
            battery_power: TimeSeries::new("battery_w"),
            battery_soc: TimeSeries::new("battery_soc"),
            goodput: TimeSeries::new("goodput_rps"),
            offered: TimeSeries::new("offered_rps"),
            re_quality: TimeSeries::new("re_quality"),
            last_good_re: None,
            last_good_soc: None,
            stale_re_epochs: 0,
            ladder: TimeSeries::new("ladder_level"),
            fleet_live: TimeSeries::new("fleet_live"),
            server_live: Vec::new(),
            route_factor: TimeSeries::new("route_factor"),
        }
    }

    /// Record one epoch of fully-trusted observations.
    pub fn record(&mut self, t: SimTime, obs: Observation) {
        self.record_q(t, obs, ObservationQuality::default());
    }

    /// Record one epoch with explicit quality flags. When the supply
    /// reading is not fresh, the stream holds the last-good value (or the
    /// provided reading if no good value exists yet) and the quality
    /// stream drops to 0.
    pub fn record_q(&mut self, t: SimTime, obs: Observation, q: ObservationQuality) {
        let re_w = if q.re_fresh {
            self.last_good_re = Some((t, obs.re_supply_w));
            obs.re_supply_w
        } else {
            self.stale_re_epochs += 1;
            self.last_good_re.map(|(_, w)| w).unwrap_or(obs.re_supply_w)
        };
        if q.soc_trusted {
            self.last_good_soc = Some((t, obs.battery_soc));
        }
        self.re_supply.push(t, re_w);
        self.re_quality.push(t, if q.re_fresh { 1.0 } else { 0.0 });
        self.demand.push(t, obs.demand_w);
        self.battery_power.push(t, obs.battery_w);
        self.battery_soc.push(t, obs.battery_soc);
        self.goodput.push(t, obs.goodput_rps);
        self.offered.push(t, obs.offered_rps);
    }

    /// Renewable-production stream.
    pub fn re_supply(&self) -> &TimeSeries {
        &self.re_supply
    }

    /// Green-rack demand stream (paper Fig. 5's "Power Demand").
    pub fn demand(&self) -> &TimeSeries {
        &self.demand
    }

    /// Battery discharge stream.
    pub fn battery_power(&self) -> &TimeSeries {
        &self.battery_power
    }

    /// Battery state-of-charge stream.
    pub fn battery_soc(&self) -> &TimeSeries {
        &self.battery_soc
    }

    /// Goodput stream.
    pub fn goodput(&self) -> &TimeSeries {
        &self.goodput
    }

    /// Offered-load stream.
    pub fn offered(&self) -> &TimeSeries {
        &self.offered
    }

    /// Supply-reading quality stream (1.0 fresh, 0.0 held-over).
    pub fn re_quality(&self) -> &TimeSeries {
        &self.re_quality
    }

    /// Timestamp and value of the last fresh supply reading, if any.
    pub fn last_good_re(&self) -> Option<(SimTime, f64)> {
        self.last_good_re
    }

    /// Timestamp and value of the last trusted SoC reading, if any.
    pub fn last_good_soc(&self) -> Option<(SimTime, f64)> {
        self.last_good_soc
    }

    /// How many recorded epochs lacked a fresh supply reading.
    pub fn stale_re_epochs(&self) -> usize {
        self.stale_re_epochs
    }

    /// Record the broker-routed load factor applied to one epoch.
    pub fn record_route(&mut self, t: SimTime, factor: f64) {
        self.route_factor.push(t, factor);
    }

    /// Routed-load-factor stream (empty outside datacenter runs).
    pub fn route_factor(&self) -> &TimeSeries {
        &self.route_factor
    }

    /// Record the guardrail's failover-ladder level for one epoch.
    pub fn record_ladder(&mut self, t: SimTime, level: usize) {
        self.ladder.push(t, level as f64);
    }

    /// Failover-ladder level stream (empty when the guardrail is off).
    pub fn ladder(&self) -> &TimeSeries {
        &self.ladder
    }

    /// Record one epoch of per-server liveness: `up[i]` says whether green
    /// server `i` answered this epoch. Feeds the fleet-size stream and one
    /// liveness stream per server.
    pub fn record_fleet(&mut self, t: SimTime, up: &[bool]) {
        self.ensure_fleet_streams(up.len());
        for (i, &alive) in up.iter().enumerate() {
            self.server_live[i].push(t, if alive { 1.0 } else { 0.0 });
        }
        let live = up.iter().filter(|&&a| a).count();
        self.fleet_live.push(t, live as f64);
    }

    /// Materialize the per-server liveness streams for an `n`-server
    /// fleet (idempotent).
    fn ensure_fleet_streams(&mut self, n: usize) {
        while self.server_live.len() < n {
            let i = self.server_live.len();
            self.server_live
                .push(TimeSeries::new(format!("server{i}_live")));
        }
    }

    /// Capacity hint: pre-allocate every per-epoch stream for `epochs`
    /// more epochs of an `n`-server run, so the hot loop appends without
    /// reallocating. Purely an allocation optimization — capacity is not
    /// serialized and no recorded value changes.
    pub fn reserve_epochs(&mut self, n: usize, epochs: usize) {
        self.ensure_fleet_streams(n);
        for s in [
            &mut self.re_supply,
            &mut self.demand,
            &mut self.battery_power,
            &mut self.battery_soc,
            &mut self.goodput,
            &mut self.offered,
            &mut self.re_quality,
            &mut self.ladder,
            &mut self.fleet_live,
            &mut self.route_factor,
        ] {
            s.reserve(epochs);
        }
        for s in &mut self.server_live {
            s.reserve(epochs);
        }
    }

    /// Live-server-count stream (empty until fleet faults are tracked).
    pub fn fleet_live(&self) -> &TimeSeries {
        &self.fleet_live
    }

    /// Per-server liveness streams (1.0 live, 0.0 dead).
    pub fn server_live(&self) -> &[TimeSeries] {
        &self.server_live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_all_streams() {
        let mut m = Monitor::new();
        m.record(
            SimTime::from_secs(60),
            Observation {
                re_supply_w: 500.0,
                demand_w: 450.0,
                battery_w: 0.0,
                battery_soc: 1.0,
                goodput_rps: 120.0,
                offered_rps: 150.0,
            },
        );
        m.record(
            SimTime::from_secs(120),
            Observation {
                re_supply_w: 100.0,
                demand_w: 450.0,
                battery_w: 350.0,
                battery_soc: 0.9,
                goodput_rps: 110.0,
                offered_rps: 150.0,
            },
        );
        assert_eq!(m.re_supply().len(), 2);
        assert_eq!(m.demand().sample_at(SimTime::from_secs(90)), Some(450.0));
        assert_eq!(
            m.battery_power().sample_at(SimTime::from_secs(120)),
            Some(350.0)
        );
        assert_eq!(m.battery_soc().points().last().unwrap().1, 0.9);
        assert!(
            m.goodput()
                .window_mean(SimTime::ZERO, SimTime::from_secs(121))
                .unwrap()
                > 100.0
        );
        assert_eq!(m.offered().len(), 2);
        // Trusted recordings keep quality at 1 and track last-good.
        assert_eq!(m.re_quality().points().last().unwrap().1, 1.0);
        assert_eq!(m.last_good_re(), Some((SimTime::from_secs(120), 100.0)));
        assert_eq!(m.stale_re_epochs(), 0);
    }

    #[test]
    fn stale_readings_hold_last_good_and_flag_quality() {
        let mut m = Monitor::new();
        m.record(
            SimTime::from_secs(60),
            Observation {
                re_supply_w: 500.0,
                battery_soc: 0.95,
                ..Observation::default()
            },
        );
        // Sensor dropout: the engine passes a zeroed reading, not fresh.
        m.record_q(
            SimTime::from_secs(120),
            Observation {
                re_supply_w: 0.0,
                battery_soc: 0.90,
                ..Observation::default()
            },
            ObservationQuality {
                re_fresh: false,
                soc_trusted: false,
            },
        );
        // The supply stream held the last-good value...
        assert_eq!(m.re_supply().points().last().unwrap().1, 500.0);
        // ...the quality stream says why...
        assert_eq!(m.re_quality().points().last().unwrap().1, 0.0);
        // ...and the last-good markers did not advance.
        assert_eq!(m.last_good_re(), Some((SimTime::from_secs(60), 500.0)));
        assert_eq!(m.last_good_soc(), Some((SimTime::from_secs(60), 0.95)));
        assert_eq!(m.stale_re_epochs(), 1);
    }

    #[test]
    fn stale_before_any_good_reading_passes_the_raw_value() {
        let mut m = Monitor::new();
        m.record_q(
            SimTime::from_secs(60),
            Observation {
                re_supply_w: 42.0,
                ..Observation::default()
            },
            ObservationQuality {
                re_fresh: false,
                soc_trusted: true,
            },
        );
        assert_eq!(m.re_supply().points().last().unwrap().1, 42.0);
        assert_eq!(m.last_good_re(), None);
        assert_eq!(m.stale_re_epochs(), 1);
    }

    #[test]
    fn fleet_streams_record_liveness_and_are_optional() {
        let mut m = Monitor::new();
        assert_eq!(m.fleet_live().len(), 0);
        assert!(m.server_live().is_empty());
        m.record_fleet(SimTime::from_secs(60), &[true, true, false]);
        m.record_fleet(SimTime::from_secs(120), &[true, false, false]);
        assert_eq!(m.fleet_live().points().last().unwrap().1, 1.0);
        assert_eq!(m.server_live().len(), 3);
        assert_eq!(m.server_live()[0].points().last().unwrap().1, 1.0);
        assert_eq!(m.server_live()[2].points().last().unwrap().1, 0.0);
        assert_eq!(m.server_live()[1].name(), "server1_live");
        // Pre-fleet serialized monitors deserialize with empty fleet
        // streams rather than failing.
        let json = serde_json::to_string(&Monitor::new()).unwrap();
        let stripped = json
            .replace(
                ",\"fleet_live\":{\"points\":[],\"name\":\"fleet_live\"}",
                "",
            )
            .replace(",\"server_live\":[]", "");
        assert_ne!(json, stripped);
        let old: Monitor = serde_json::from_str(&stripped).unwrap();
        assert_eq!(old.fleet_live().len(), 0);
        assert!(old.server_live().is_empty());
    }

    #[test]
    fn ladder_stream_is_optional_and_records_levels() {
        let mut m = Monitor::new();
        assert_eq!(m.ladder().len(), 0);
        m.record_ladder(SimTime::from_secs(60), 0);
        m.record_ladder(SimTime::from_secs(120), 2);
        assert_eq!(m.ladder().len(), 2);
        assert_eq!(m.ladder().points().last().unwrap().1, 2.0);
        // Pre-guardrail serialized monitors deserialize with an empty
        // ladder stream rather than failing.
        let json = serde_json::to_string(&Monitor::new()).unwrap();
        let stripped = json.replace(",\"ladder\":{\"points\":[],\"name\":\"ladder_level\"}", "");
        assert_ne!(json, stripped);
        let old: Monitor = serde_json::from_str(&stripped).unwrap();
        assert_eq!(old.ladder().len(), 0);
    }

    #[test]
    fn route_stream_is_optional_and_records_factors() {
        let mut m = Monitor::new();
        assert_eq!(m.route_factor().len(), 0);
        m.record_route(SimTime::from_secs(60), 1.0);
        m.record_route(SimTime::from_secs(120), 1.4);
        assert_eq!(m.route_factor().len(), 2);
        assert_eq!(m.route_factor().points().last().unwrap().1, 1.4);
        // Pre-broker serialized monitors deserialize with an empty route
        // stream rather than failing.
        let json = serde_json::to_string(&Monitor::new()).unwrap();
        let stripped = json.replace(
            ",\"route_factor\":{\"points\":[],\"name\":\"route_factor\"}",
            "",
        );
        assert_ne!(json, stripped);
        let old: Monitor = serde_json::from_str(&stripped).unwrap();
        assert_eq!(old.route_factor().len(), 0);
    }
}
