//! Summary statistics shared by the runner and `compare`.

/// Median of a sample; NaN for an empty one.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so spreads quoted from this tool match that reference.
/// A single value is its own quartiles; NaN for an empty sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    match xs.len() {
        0 => return (f64::NAN, f64::NAN),
        1 => return (xs[0], xs[0]),
        _ => {}
    }
    let s = sorted(xs);
    let ld = s.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the first and third quartiles.
pub fn iqr(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    q3 - q1
}

/// Nearest-rank percentile `p` (0 < p <= 100) of a sample; NaN for an
/// empty one.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Percentiles a latency tail may be reported at, in tenths of a
/// percent, highest first.
const TAIL_LADDER: [usize; 4] = [999, 990, 950, 900];

/// A latency tail and the percentile it is: the highest percentile of
/// [`TAIL_LADDER`] with at least ten samples beyond it. The ladder keeps
/// the percentile fixed while a run's sample count drifts. When not even
/// p90 is supported the median stands in (reported as p50).
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    let s = sorted(xs);
    for p in TAIL_LADDER {
        let rank = (p * n).div_ceil(1000);
        if rank >= 1 && n - rank >= 10 {
            return (s[rank - 1], p as f64 / 10.0);
        }
    }
    (median(xs), 50.0)
}

/// Lateness of each open-loop send in milliseconds: how long after its
/// due time (`i * period_s` from the generator's start) send `i` left.
/// Early sends count as zero.
pub fn lateness_ms(sent_at_s: &[f64], period_s: f64) -> Vec<f64> {
    sent_at_s
        .iter()
        .enumerate()
        .map(|(i, &t)| ((t - i as f64 * period_s) * 1e3).max(0.0))
        .collect()
}

/// Extract `VmHWM` (peak resident set) in kB from `/proc/<pid>/status`
/// text. Absent, unparsable and zero values are all "unknown": a live
/// process has touched at least one page, so 0 only comes from a broken
/// or stubbed procfs.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    (kb > 0).then_some(kb)
}

/// This process's peak resident set in MB (`VmHWM`), if the platform
/// reports one.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(iqr(&xs), 5.5);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(iqr(&[3.0]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let upto = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        assert_eq!(tail(&upto(1000)), (990.0, 99.0));
        assert_eq!(
            tail(&upto(999)),
            (950.0, 95.0),
            "p99 has 9 beyond: named p95"
        );
        assert_eq!(tail(&upto(200)), (190.0, 95.0));
        assert_eq!(tail(&upto(150)), (135.0, 90.0));
        assert_eq!(tail(&upto(20_000)), (19_980.0, 99.9), "capped at p99.9");
        assert_eq!(
            tail(&upto(20)),
            (10.5, 50.0),
            "too few: the median stands in"
        );
        assert_eq!(tail(&[5.0, 1.0, 3.0]), (3.0, 50.0));
    }

    #[test]
    fn lateness_counts_from_each_sends_due_time() {
        // Period 1 ms. Send 0 on time; send 1 is 0.5 ms late; a stall
        // makes sends 2 and 3 leave together at 5 ms, so both are late
        // by their own distance from their due times.
        let sent = [0.0, 0.0015, 0.005, 0.005, 0.0039];
        let late = lateness_ms(&sent, 0.001);
        let want = [0.0, 0.5, 3.0, 2.0, 0.0];
        for (got, want) in late.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{late:?}");
        }
    }

    #[test]
    fn vm_hwm_parses_and_treats_absent_or_zero_as_unknown() {
        let status = "Name:\tgs-bench\nVmPeak:\t  201844 kB\nVmHWM:\t   73216 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(73_216));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t       0 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb(""), None);
    }
}
