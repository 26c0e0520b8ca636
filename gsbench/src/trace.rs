//! Spans recorded by the benchmark around its own calls into each layer
//! of the library. Spans stay in memory and are written when the run
//! ends; with tracing off, [`Tracer::span`] only calls through.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `name` is `<layer>.<call>`; the layer is the
/// library module the call enters.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span recorder of one run.
pub struct Tracer {
    enabled: bool,
    trace_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose spans all carry `trace_id` (the workload name).
    pub fn new(trace_id: &str, enabled: bool) -> Self {
        Tracer {
            enabled,
            trace_id: trace_id.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer::new("", false)
    }

    /// Switch recording on or off between spans (the runner alternates
    /// traced and untraced repetitions to measure the tracing overhead).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// part its child spans cover, summed by layer.
    pub fn self_time_s(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = s.dur_ns().saturating_sub(child_ns[s.id]);
            *out.entry(s.layer()).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let trace_id = serde_json::to_string(&self.trace_id).map_err(std::io::Error::other)?;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trace_id\":{trace_id},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new("w", true);
        t.span("sweep.run", |t| {
            t.span("des.grid", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        let st = t.self_time_s();
        assert!(st["des"] >= 0.019, "{st:?}");
        assert!(st["sweep"] >= 0.004 && st["sweep"] < st["des"], "{st:?}");
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_runs_the_body() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x.y", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
