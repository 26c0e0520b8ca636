//! `gs-bench compare`: judge a change's runs against its parent's with
//! the bounds in `BENCHMARK.json`.
//!
//! For each (workload, end-to-end metric), with run `i` of the parent
//! paired with run `i` of the change:
//! * **improved** — at least ten pairs, the change wins at least 9/10 of
//!   them (ties count for neither), and the medians differ by more than
//!   the parent's IQR — unless the change failed more units;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the metric's bound (a share of the parent's median);
//! * **unresolved** — the parent's IQR is wider than the bound and not
//!   every change run beats every parent run;
//! * **no-worse** — otherwise.

use serde_json::Value;

use crate::stats::{iqr, median, quartiles};

/// An end-to-end metric's regression bound from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Read the `end_to_end` bounds of a `BENCHMARK.json`.
pub fn load_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let v: Value =
        serde_json::from_str(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or("metric without `better`")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_number)
                .map(|n| n.as_f64())
                .ok_or("metric without a bound")?;
            let lower_is_better = match better {
                "lower" => true,
                "higher" => false,
                other => {
                    return Err(format!(
                        "{name}: better must be lower or higher, got {other}"
                    ))
                }
            };
            Ok(Bound {
                name: name.to_string(),
                lower_is_better,
                bound,
            })
        })
        .collect()
}

/// One run of one workload, as `gs-bench run --out` records it.
#[derive(Debug, Clone)]
pub struct RunLine {
    pub workload: String,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

impl RunLine {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Parse a runs file (one JSON object per line; blank lines skipped).
pub fn parse_runs(text: &str) -> Result<Vec<RunLine>, String> {
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let failed = v
            .get("failed")
            .and_then(Value::as_number)
            .and_then(|n| n.as_u64())
            .unwrap_or(0);
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("line {}: no metrics", i + 1))?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_number()?.as_f64())))
            .collect();
        runs.push(RunLine {
            workload: workload.to_string(),
            failed,
            metrics,
        });
    }
    Ok(runs)
}

/// How a change compares with its parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoWorse,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no-worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Minimum pairs for a claimed improvement.
pub const MIN_PAIRS: usize = 10;

/// Judge paired samples of one metric (`parent[i]` pairs `change[i]`).
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let (mp, mc) = (median(parent), median(change));
    let gain = if lower_is_better { mp - mc } else { mc - mp };
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain > iqr(parent) {
        return Verdict::Improved;
    }
    if -gain > bound * mp.abs() {
        return Verdict::Regressed;
    }
    let (worst_change, best_parent) = if lower_is_better {
        (
            change.iter().copied().fold(f64::MIN, f64::max),
            parent.iter().copied().fold(f64::MAX, f64::min),
        )
    } else {
        (
            change.iter().copied().fold(f64::MAX, f64::min),
            parent.iter().copied().fold(f64::MIN, f64::max),
        )
    };
    let every_change_run_better = better(worst_change, best_parent);
    if iqr(parent) > bound * mp.abs() && !every_change_run_better {
        return Verdict::Unresolved;
    }
    Verdict::NoWorse
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub parent: Vec<f64>,
    pub change: Vec<f64>,
    pub wins: usize,
    pub verdict: Verdict,
}

impl Row {
    pub fn render(&self) -> String {
        let (q1, q3) = quartiles(&self.parent);
        format!(
            "{:<12} {:<18} parent {:>12.6} [{:.6}, {:.6}]  change {:>12.6}  wins {}/{}  {}",
            self.workload,
            self.metric,
            median(&self.parent),
            q1,
            q3,
            median(&self.change),
            self.wins,
            self.parent.len().min(self.change.len()),
            self.verdict.label()
        )
    }
}

/// Compare every (workload, bounded metric) present on both sides, in
/// the parent file's workload order.
pub fn compare(bounds: &[Bound], parent: &[RunLine], change: &[RunLine]) -> Vec<Row> {
    let mut workloads: Vec<&str> = Vec::new();
    for r in parent {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut rows = Vec::new();
    for w in workloads {
        let p_runs: Vec<&RunLine> = parent.iter().filter(|r| r.workload == w).collect();
        let c_runs: Vec<&RunLine> = change.iter().filter(|r| r.workload == w).collect();
        let more_failures = c_runs.iter().map(|r| r.failed).sum::<u64>()
            > p_runs.iter().map(|r| r.failed).sum::<u64>();
        for b in bounds {
            let p: Vec<f64> = p_runs.iter().filter_map(|r| r.get(&b.name)).collect();
            let c: Vec<f64> = c_runs.iter().filter_map(|r| r.get(&b.name)).collect();
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let mut v = verdict(&p, &c, b.lower_is_better, b.bound);
            // A gain does not count when more units fail than at the parent.
            if v == Verdict::Improved && more_failures {
                v = Verdict::NoWorse;
            }
            let better = |c: f64, p: f64| if b.lower_is_better { c < p } else { c > p };
            let wins = p.iter().zip(&c).filter(|&(&p, &c)| better(c, p)).count();
            rows.push(Row {
                workload: w.to_string(),
                metric: b.name.clone(),
                parent: p,
                change: c,
                wins,
                verdict: v,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i % 5)).collect()
    }

    #[test]
    fn a_consistent_gain_beyond_the_parent_spread_is_improved() {
        let parent = series(100.0, 1.0); // 100..104, IQR 2.5
        let change: Vec<f64> = parent.iter().map(|p| p - 10.0).collect();
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Improved);
        // The same gain for a higher-is-better metric is a loss.
        assert_eq!(verdict(&parent, &change, false, 0.05), Verdict::Regressed);
    }

    #[test]
    fn improvement_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_iqr() {
        let parent = series(100.0, 1.0);
        let small: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        assert_eq!(
            verdict(&parent, &small, true, 0.1),
            Verdict::NoWorse,
            "gap 1 < IQR"
        );
        let mut eight = parent.iter().map(|p| p - 10.0).collect::<Vec<_>>();
        eight[0] = 200.0;
        eight[1] = 200.0;
        assert_eq!(
            verdict(&parent, &eight, true, 0.5),
            Verdict::NoWorse,
            "8/10 wins"
        );
        let nine_pairs: Vec<f64> = parent[..9].iter().map(|p| p - 10.0).collect();
        assert_eq!(
            verdict(&parent[..9], &nine_pairs, true, 0.1),
            Verdict::NoWorse
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = vec![10.0; 10];
        assert_eq!(verdict(&parent, &parent, true, 0.0), Verdict::NoWorse);
    }

    #[test]
    fn worse_by_more_than_the_bound_is_regressed_and_a_wide_spread_unresolved() {
        let parent = series(100.0, 1.0);
        let worse: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(verdict(&parent, &worse, true, 0.1), Verdict::Regressed);
        let noisy = series(100.0, 10.0); // IQR 25 > 10% of the median
        let same = noisy.clone();
        assert_eq!(verdict(&noisy, &same, true, 0.1), Verdict::Unresolved);
        let all_better: Vec<f64> = vec![50.0; 10];
        assert_eq!(verdict(&noisy, &all_better, true, 0.1), Verdict::Improved);
    }

    #[test]
    fn compare_pairs_runs_per_workload_and_reads_bounds_from_the_benchmark() {
        let bench = r#"{"end_to_end": [
            {"name": "sim_epochs_per_s", "unit": "rack-epochs/s", "better": "higher", "bound": 0.05},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;
        let bounds = load_bounds(bench).unwrap();
        assert_eq!(bounds.len(), 2);
        let line = |w: &str, tput: f64, failed: u64| {
            format!(
                "{{\"workload\":\"{w}\",\"failed\":{failed},\"metrics\":{{\"sim_epochs_per_s\":{{\"value\":{tput},\"unit\":\"rack-epochs/s\"}},\"setup_s\":{{\"value\":0.1,\"unit\":\"s\"}}}}}}"
            )
        };
        let parent: String = (0..10)
            .map(|i| line("a", 100.0 + f64::from(i % 3), 0) + "\n")
            .collect();
        let change: String = (0..10)
            .map(|i| line("a", 120.0 + f64::from(i % 3), 0) + "\n")
            .collect();
        let rows = compare(
            &bounds,
            &parse_runs(&parent).unwrap(),
            &parse_runs(&change).unwrap(),
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, Verdict::Improved);
        assert_eq!(rows[0].wins, 10);
        assert_eq!(rows[1].verdict, Verdict::NoWorse);

        let failing: String = (0..10)
            .map(|i| line("a", 120.0 + f64::from(i % 3), 1) + "\n")
            .collect();
        let rows = compare(
            &bounds,
            &parse_runs(&parent).unwrap(),
            &parse_runs(&failing).unwrap(),
        );
        assert_eq!(
            rows[0].verdict,
            Verdict::NoWorse,
            "more failures void the gain"
        );
    }
}
