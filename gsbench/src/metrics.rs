//! The metric catalogue — names and units exactly as `BENCHMARK.json`
//! lists them — and the one-line JSON result a run prints last.

use std::collections::BTreeMap;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the system sees; printed by every untraced run.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("sim_epochs_per_s", "rack-epochs/s"),
    m("latency_p50_ms", "ms"),
    m("latency_tail_ms", "ms"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics; printed by every traced run. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: &[Metric] = &[
    m("profiler.build_s", "s"),
    m("qlearning.bootstrap_s", "s"),
    m("sweep.points", "count"),
    m("sweep.busy_s", "s"),
    m("sweep.idle_s", "s"),
    m("engine.epochs", "count"),
    m("engine.busy_s", "s"),
    m("engine.ns_per_epoch", "ns"),
    m("des.events", "count"),
    m("des.busy_s", "s"),
    m("des.ns_per_event", "ns"),
    m("des.share", "fraction"),
    m("solar.calls", "count"),
    m("solar.ns_per_call", "ns"),
    m("predictor.calls", "count"),
    m("predictor.ns_per_call", "ns"),
    m("pss.calls", "count"),
    m("pss.ns_per_call", "ns"),
    m("pmk.calls", "count"),
    m("pmk.ns_per_call", "ns"),
    m("pmk_pacing.calls", "count"),
    m("pmk_pacing.ns_per_call", "ns"),
    m("battery.calls", "count"),
    m("battery.ns_per_call", "ns"),
    m("thermal.calls", "count"),
    m("thermal.ns_per_call", "ns"),
    m("audit.calls", "count"),
    m("audit.ns_per_call", "ns"),
    m("monitor.calls", "count"),
    m("monitor.ns_per_call", "ns"),
    m("broker.solo_busy_s", "s"),
    m("broker.dc_busy_s", "s"),
    m("broker.overhead_s", "s"),
    m("broker.parallel_eff", "fraction"),
    m("broker.rerouted_epochs", "count"),
    m("broker.link_retries", "count"),
    m("broker.partition_epochs", "count"),
    m("broker.blackout_epochs", "count"),
    m("audit.site_violations", "count"),
    m("checkpoint.snapshots", "count"),
    m("checkpoint.last_bytes", "bytes"),
    m("checkpoint.parse_s", "s"),
    m("checkpoint.resume_s", "s"),
    m("serve.snapshot_tick_p50_ms", "ms"),
    m("serve.plain_tick_p50_ms", "ms"),
    m("serve.ticks", "count"),
    m("serve.overrun_ticks", "count"),
    m("serve.stale_epochs", "count"),
    m("serve.rack_restarts", "count"),
    m("serve.rerouted_epochs", "count"),
    m("serve.finish_s", "s"),
    m("net.frames_sent", "count"),
    m("net.frames_received", "count"),
    m("net.frames_discarded", "count"),
    m("net.subscriber_drops", "count"),
    m("net.sub_lines", "count"),
    m("net.ingest_lag_p99_ms", "ms"),
    m("net.ingest_loss_frac", "fraction"),
    m("output.encode_s", "s"),
    m("output.bytes", "bytes"),
    m("trace.overhead_frac", "fraction"),
];

/// Metric values of one run by name. Unset metrics read as 0.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Set `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "{name} is not in the metric catalogue"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The catalogue this run reports ([`END_TO_END`] or [`PER_LAYER`]).
    pub catalogue: &'static [Metric],
    pub values: Values,
}

impl RunReport {
    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, with every catalogue metric as `{"value", "unit"}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .catalogue
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(self.values.get(m.name)),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// One line per metric: name, value with all its digits, unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in self.catalogue {
            out.push_str(&format!(
                "  {:<28} {:>22} {}\n",
                m.name,
                json_number(self.values.get(m.name)),
                m.unit
            ));
        }
        out
    }
}

/// A finite number as JSON, shortest round-trip form; non-finite values
/// (which no metric should produce) become 0 rather than invalid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_has_exactly_the_contract_keys_and_every_metric() {
        let mut values = Values::default();
        values.set("setup_s", 0.125);
        let r = RunReport {
            correct: true,
            attempted: 10,
            failed: 0,
            catalogue: END_TO_END,
            values,
        };
        let v: serde_json::Value = serde_json::from_str(&r.json()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(
            setup.get("value").unwrap().as_number().unwrap().as_f64(),
            0.125
        );
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let bench: serde_json::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = bench
                .get(key)
                .and_then(serde_json::Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap(),
                        m.get("unit").unwrap().as_str().unwrap(),
                    )
                })
                .collect();
            let ours: Vec<(&str, &str)> = catalogue.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, a) in all.iter().enumerate() {
            assert!(
                all[i + 1..].iter().all(|b| b.name != a.name),
                "{} twice",
                a.name
            );
            assert!(a.name.len() <= 64 && a.unit.len() <= 16, "{a:?}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
