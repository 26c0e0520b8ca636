//! Analytic queueing machinery.
//!
//! A server running an interactive application is modeled as a `c`-core
//! FIFO station with Poisson arrivals and log-normally distributed service
//! times (empirically, request service times in interactive services have
//! a coefficient of variation well below 1). The sojourn-time tail is
//! computed as
//!
//! `P(T > d) = E_S[ P(W > d − S) ]`
//!
//! where the waiting time `W` uses the M/M/c tail with the Allen–Cunneen
//! variability correction — exact for exponential service, a standard
//! approximation otherwise — and the expectation over the service time `S`
//! is evaluated by quantile quadrature of the log-normal.
//!
//! On top of that sits the **SLO-capacity solver**: the largest arrival
//! rate for which the `q`-percentile of sojourn time stays within the
//! deadline. This is the paper's performance metric (jops/ops/rps under a
//! latency constraint) and also what the PMK's profiling tables store.

/// Inverse standard normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 over (0,1)).
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile must be in (0,1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Quantile of a log-normal with the given *distribution* mean and
/// coefficient of variation.
pub fn lognormal_quantile(mean: f64, cv: f64, p: f64) -> f64 {
    assert!(mean > 0.0, "lognormal mean must be positive");
    if cv <= 0.0 {
        return mean;
    }
    let sigma2 = (1.0 + cv * cv).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    (mu + sigma2.sqrt() * inverse_normal_cdf(p)).exp()
}

/// Erlang-C: probability an arrival must wait in an M/M/c queue with
/// offered load `a = λ/μ` and `c` servers. Requires `a < c` (stability).
pub fn erlang_c(c: u32, a: f64) -> f64 {
    assert!(c >= 1, "need at least one server");
    if a <= 0.0 {
        return 0.0;
    }
    assert!(a < c as f64, "offered load must be below capacity");
    // Iteratively build the Erlang-B blocking probability, then convert.
    let mut b = 1.0;
    for k in 1..=c {
        b = a * b / (k as f64 + a * b);
    }
    let rho = a / c as f64;
    b / (1.0 - rho + rho * b)
}

/// Parameters of the per-server queueing station.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Station {
    /// Parallel service slots (active cores).
    pub cores: u32,
    /// Mean service time per request (seconds).
    pub mean_service_s: f64,
    /// Coefficient of variation of service times.
    pub service_cv: f64,
}

/// Quadrature points for the expectation over the service time. Tail SLOs
/// (p99) need fine resolution: each point carries `1/QUAD_POINTS` mass, so
/// this must be well above `1/(1-q)` to resolve the violation budget.
pub const QUAD_POINTS: usize = 2000;

/// How close to its target, relative to the target, a running-sum tail
/// estimate ([`TailAtMost`]) may fall before the exact sum decides the
/// comparison instead. Every term of the tail is non-negative, so both
/// the estimate and [`Station::sojourn_tail_with`] sit within a relative
/// ~1e-12 of the true sum on grids of up to [`QUAD_POINTS`] points;
/// outside this band the two cannot fall on different sides of the
/// target.
pub const TAIL_ESTIMATE_BAND: f64 = 1e-9;

impl Station {
    /// Per-core service rate (req/s).
    pub fn mu(&self) -> f64 {
        1.0 / self.mean_service_s
    }

    /// Raw capacity: the saturation throughput `c·μ` (req/s).
    pub fn raw_capacity(&self) -> f64 {
        self.cores as f64 * self.mu()
    }

    /// Tail of the waiting time: `P(W > t)` at arrival rate `lambda`,
    /// using the M/M/c tail with the Allen–Cunneen `(1+cv²)/2` mean-wait
    /// correction applied to the decay rate.
    pub fn waiting_tail(&self, lambda: f64, t: f64) -> f64 {
        if lambda <= 0.0 {
            return 0.0;
        }
        let mu = self.mu();
        let a = lambda / mu;
        let c = self.cores as f64;
        if a >= c {
            return 1.0; // unstable: waits grow without bound
        }
        let pw = erlang_c(self.cores, a);
        if t <= 0.0 {
            return pw;
        }
        // M/M/c: E[W] = pw / (cμ − λ); Allen–Cunneen scales E[W] by
        // (1+cv²)/2. Keep the exponential shape but stretch its mean.
        let correction = (1.0 + self.service_cv * self.service_cv) / 2.0;
        let theta = (c * mu - lambda) / correction;
        pw * (-theta * t).exp()
    }

    /// The quadrature grid of service-time quantiles. Independent of the
    /// arrival rate and the deadline, so callers that evaluate many tails
    /// (capacity solvers, percentile bisection) compute it once.
    pub fn service_grid(&self) -> Vec<f64> {
        (0..QUAD_POINTS)
            .map(|i| {
                let q = (i as f64 + 0.5) / QUAD_POINTS as f64;
                lognormal_quantile(self.mean_service_s, self.service_cv, q)
            })
            .collect()
    }

    /// Tail of the sojourn time: `P(T > d)` at arrival rate `lambda`,
    /// by quantile quadrature over the log-normal service time.
    pub fn sojourn_tail(&self, lambda: f64, d: f64) -> f64 {
        self.sojourn_tail_with(&self.service_grid(), lambda, d)
    }

    /// As [`Self::sojourn_tail`] with a precomputed [`Self::service_grid`].
    pub fn sojourn_tail_with(&self, grid: &[f64], lambda: f64, d: f64) -> f64 {
        let mu = self.mu();
        if lambda > 0.0 && lambda / mu >= self.cores as f64 {
            return 1.0;
        }
        // The waiting tail's Erlang-C prefactor is also λ-only; hoist it.
        let pw = if lambda <= 0.0 {
            0.0
        } else {
            erlang_c(self.cores, lambda / mu)
        };
        let correction = (1.0 + self.service_cv * self.service_cv) / 2.0;
        let theta = (self.cores as f64 * mu - lambda) / correction;
        let mut acc = 0.0;
        // The grid is sorted ascending; every point at or past the
        // deadline contributes exactly 1.
        for &s in grid {
            acc += if s >= d {
                1.0
            } else if lambda <= 0.0 {
                0.0
            } else {
                pw * (-theta * (d - s)).exp()
            };
        }
        acc / grid.len() as f64
    }

    /// `sojourn_tail_with(grid, lambda, d) <= target` for many deadlines
    /// `d` at one rate, from one O(n) pass over the grid (see
    /// [`TailAtMost`]).
    pub fn tail_at_most<'a>(&self, grid: &'a [f64], lambda: f64, target: f64) -> TailAtMost<'a> {
        let mu = self.mu();
        let correction = (1.0 + self.service_cv * self.service_cv) / 2.0;
        let theta = (self.cores as f64 * mu - lambda) / correction;
        let mut cmp = TailAtMost {
            station: *self,
            grid,
            lambda,
            target,
            pw: 0.0,
            theta,
            sums: Vec::new(),
        };
        // A rate that is not positive or not stable, a decay that is not
        // positive, or an unsorted grid leaves `sums` empty: the exact
        // sum answers every comparison.
        let stable = lambda > 0.0 && lambda / mu < self.cores as f64 && theta > 0.0;
        if stable && grid.windows(2).all(|w| w[0] <= w[1]) {
            cmp.pw = erlang_c(self.cores, lambda / mu);
            cmp.sums.reserve_exact(grid.len());
            let (mut r, mut prev) = (0.0, grid.first().copied().unwrap_or(0.0));
            for &s in grid {
                r = r * (-theta * (s - prev)).exp() + 1.0;
                cmp.sums.push(r);
                prev = s;
            }
        }
        cmp
    }

    /// The `q`-percentile of sojourn time at arrival rate `lambda`
    /// (seconds), by bisection on the tail; `None` when the station is
    /// unstable at `lambda` (the percentile grows without bound).
    pub fn sojourn_percentile(&self, lambda: f64, q: f64) -> Option<f64> {
        if lambda > 0.0 && lambda / self.mu() >= self.cores as f64 {
            return None;
        }
        let target = 1.0 - q;
        let grid = self.service_grid();
        // Upper bracket: grow until the tail falls below target.
        let mut hi = self.mean_service_s * 4.0;
        for _ in 0..60 {
            if self.sojourn_tail_with(&grid, lambda, hi) <= target {
                break;
            }
            hi *= 2.0;
        }
        let mut lo = 0.0;
        for _ in 0..50 {
            let mid = 0.5 * (lo + hi);
            if self.sojourn_tail_with(&grid, lambda, mid) <= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }

    /// The `q`-percentile SLO capacity: the largest arrival rate such that
    /// `P(T > deadline) ≤ 1 − q`. Returns 0 if even an idle station misses
    /// the percentile (service time alone exceeds the deadline too often).
    pub fn slo_capacity(&self, deadline_s: f64, q: f64) -> f64 {
        self.slo_capacity_with_grid(&self.service_grid(), deadline_s, q)
    }

    /// As [`Self::slo_capacity`] with a caller-supplied service-quantile
    /// grid (e.g. from an empirical distribution).
    pub fn slo_capacity_with_grid(&self, grid: &[f64], deadline_s: f64, q: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&(1.0 - q)),
            "percentile must be in (0,1)"
        );
        let viol_budget = 1.0 - q;
        if self.sojourn_tail_with(grid, 0.0, deadline_s) > viol_budget {
            return 0.0;
        }
        let hi_cap = self.raw_capacity();
        // P(T > d) is monotone increasing in λ: bisect.
        let (mut lo, mut hi) = (0.0, hi_cap * (1.0 - 1e-9));
        if self.sojourn_tail_with(grid, hi, deadline_s) <= viol_budget {
            return hi;
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.sojourn_tail_with(grid, mid, deadline_s) <= viol_budget {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// The comparison `sojourn_tail_with(grid, λ, d) <= target` at one rate
/// `λ`, answered for any deadline `d` by a binary search and one `exp`
/// instead of an O(n) sum.
///
/// With the grid sorted, the points below `d` are a prefix `s_0..s_k`,
/// and the tail is `(n − k − 1 + pw·Σ_{i≤k} e^{−θ(d − s_i)}) / n`. The
/// pass in [`Station::tail_at_most`] keeps the running sums
/// `R_j = Σ_{i≤j} e^{−θ(s_j − s_i)} = R_{j−1}·e^{−θ(s_j − s_{j−1})} + 1`,
/// each anchored at its own grid point, so every exponent is at most 0
/// and nothing overflows; the waiting sum at `d` is then
/// `e^{−θ(d − s_k)}·R_k`. Where that estimate is within
/// [`TAIL_ESTIMATE_BAND`] of the target, or is not finite, or `λ` is not
/// positive or not stable, the exact sum decides. So every answer is the
/// one [`Station::sojourn_tail_with`] gives.
#[derive(Debug)]
pub struct TailAtMost<'a> {
    station: Station,
    grid: &'a [f64],
    lambda: f64,
    target: f64,
    /// The Erlang-C prefactor at `lambda`.
    pw: f64,
    /// The waiting tail's decay rate at `lambda`.
    theta: f64,
    /// `R_j` per grid point; empty where only the exact sum answers.
    sums: Vec<f64>,
}

impl TailAtMost<'_> {
    /// Whether `P(T > d) <= target`, bit for bit as
    /// `sojourn_tail_with(grid, lambda, d) <= target` decides it.
    pub fn at(&self, d: f64) -> bool {
        self.estimate(d).unwrap_or_else(|| {
            self.station.sojourn_tail_with(self.grid, self.lambda, d) <= self.target
        })
    }

    /// The answer from the running sums, or `None` where only the exact
    /// sum may decide.
    fn estimate(&self, d: f64) -> Option<bool> {
        let tail = self.running_tail(d)?;
        let clear = (tail - self.target).abs() > TAIL_ESTIMATE_BAND * self.target.abs();
        (tail.is_finite() && clear).then_some(tail <= self.target)
    }

    /// The tail at `d` from the running sums; `None` without them.
    fn running_tail(&self, d: f64) -> Option<f64> {
        if self.sums.is_empty() || d.is_nan() {
            return None;
        }
        let below = self.grid.partition_point(|&s| s < d);
        let waiting = match below.checked_sub(1) {
            Some(k) => self.pw * (-self.theta * (d - self.grid[k])).exp() * self.sums[k],
            None => 0.0,
        };
        let n = self.grid.len();
        Some(((n - below) as f64 + waiting) / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_normal_known_values() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.99) - 2.326348).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.001) + 3.090232).abs() < 1e-4);
    }

    #[test]
    fn lognormal_quantile_properties() {
        // Median below mean for positive skew.
        let med = lognormal_quantile(10.0, 0.5, 0.5);
        assert!(med < 10.0);
        // Degenerate at cv = 0.
        assert_eq!(lognormal_quantile(10.0, 0.0, 0.99), 10.0);
        // Monotone in p.
        let q1 = lognormal_quantile(10.0, 0.3, 0.5);
        let q2 = lognormal_quantile(10.0, 0.3, 0.9);
        assert!(q2 > q1);
    }

    #[test]
    fn erlang_c_sanity() {
        // Single server: Erlang-C equals utilization ρ.
        assert!((erlang_c(1, 0.5) - 0.5).abs() < 1e-12);
        // Light load, many servers: waiting is rare.
        assert!(erlang_c(12, 1.0) < 0.001);
        // Near saturation waiting is almost certain.
        assert!(erlang_c(4, 3.96) > 0.9);
        assert_eq!(erlang_c(4, 0.0), 0.0);
    }

    fn station(cores: u32, mean_ms: f64) -> Station {
        Station {
            cores,
            mean_service_s: mean_ms / 1e3,
            service_cv: 0.3,
        }
    }

    #[test]
    fn waiting_tail_monotone_in_lambda_and_t() {
        let st = station(6, 50.0);
        let t = 0.1;
        let w1 = st.waiting_tail(40.0, t);
        let w2 = st.waiting_tail(100.0, t);
        assert!(w2 > w1);
        let w3 = st.waiting_tail(100.0, 0.3);
        assert!(w3 < w2);
        // Unstable load has certain waiting.
        assert_eq!(st.waiting_tail(st.raw_capacity() * 1.1, 0.1), 1.0);
    }

    #[test]
    fn sojourn_tail_bounds() {
        let st = station(6, 50.0);
        // At zero load only the service time matters; a 500 ms deadline
        // with 50 ms mean service is essentially always met.
        assert!(st.sojourn_tail(0.0, 0.5) < 1e-6);
        // A deadline shorter than typical service is mostly violated.
        assert!(st.sojourn_tail(0.0, 0.01) > 0.9);
    }

    #[test]
    fn sojourn_percentile_consistent_with_capacity() {
        let st = station(6, 50.0);
        let slo = st.slo_capacity(0.5, 0.99);
        // At the SLO capacity the p99 sits at the deadline.
        let p99 = st.sojourn_percentile(slo, 0.99).unwrap();
        assert!((p99 - 0.5).abs() < 0.02, "p99={p99}");
        // Lighter load → lower percentile; unstable load → None.
        let p99_light = st.sojourn_percentile(slo * 0.3, 0.99).unwrap();
        assert!(p99_light < p99);
        assert_eq!(st.sojourn_percentile(st.raw_capacity() * 1.01, 0.99), None);
    }

    #[test]
    fn sojourn_percentile_matches_per_step_grid_rebuild() {
        // The bisection builds the quadrature grid once; rebuilding it on
        // every step (as `sojourn_tail` does) must give the same bits.
        let reference = |st: &Station, lambda: f64, q: f64| {
            let target = 1.0 - q;
            let mut hi = st.mean_service_s * 4.0;
            for _ in 0..60 {
                if st.sojourn_tail(lambda, hi) <= target {
                    break;
                }
                hi *= 2.0;
            }
            let mut lo = 0.0;
            for _ in 0..50 {
                let mid = 0.5 * (lo + hi);
                if st.sojourn_tail(lambda, mid) <= target {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            hi
        };
        for st in [station(6, 50.0), station(12, 110.0)] {
            let slo = st.slo_capacity(0.5, 0.99);
            for lambda in [0.0, slo * 0.5, slo] {
                let got = st.sojourn_percentile(lambda, 0.99).unwrap();
                assert_eq!(got.to_bits(), reference(&st, lambda, 0.99).to_bits());
            }
        }
    }

    /// The deadlines a comparison is checked at: every grid point and its
    /// two f64 neighbours, deadlines at or below 0, and deadlines past
    /// the last grid point.
    fn probe_deadlines(grid: &[f64]) -> Vec<f64> {
        let last = grid[grid.len() - 1];
        let mut ds: Vec<f64> = grid
            .iter()
            .flat_map(|&s| [s.next_down(), s, s.next_up()])
            .collect();
        ds.extend([-1.0, -0.0, 0.0, 2.0 * last, 1e3 * last, f64::INFINITY]);
        ds
    }

    #[test]
    fn tail_at_most_answers_as_the_exact_sum_does() {
        for st in [station(6, 50.0), station(12, 110.0), station(1, 8.0)] {
            let grid: Vec<f64> = st.service_grid().into_iter().step_by(8).collect();
            let raw = st.raw_capacity();
            let slo = st.slo_capacity(0.5, 0.99);
            for lambda in [
                0.0,
                f64::from_bits(1),
                0.3 * slo,
                slo,
                0.999 * raw,
                raw.next_down(),
                raw,
                1.1 * raw,
            ] {
                for target in [0.01, 1.0 - 0.95, 1.0 - 0.90] {
                    let cmp = st.tail_at_most(&grid, lambda, target);
                    // An idle or unstable rate leaves every answer to
                    // the exact sum.
                    let exact_only = lambda == 0.0 || lambda >= raw;
                    for d in probe_deadlines(&grid) {
                        let want = st.sojourn_tail_with(&grid, lambda, d) <= target;
                        assert_eq!(cmp.at(d), want, "λ={lambda} target={target} d={d}");
                        if exact_only {
                            assert_eq!(cmp.estimate(d), None, "λ={lambda} d={d}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn an_estimate_at_its_target_defers_to_the_exact_sum() {
        let st = station(6, 50.0);
        let grid = st.service_grid();
        let lambda = 0.8 * st.slo_capacity(0.5, 0.99);
        for d in [0.04, 0.09, 0.2, 0.5] {
            let target = st.sojourn_tail_with(&grid, lambda, d);
            let cmp = st.tail_at_most(&grid, lambda, target);
            assert_eq!(cmp.estimate(d), None, "d={d}");
            assert!(cmp.at(d), "the exact tail is at most itself");
            // Just below the exact tail the comparison fails, again
            // decided by the exact sum.
            let cmp = st.tail_at_most(&grid, lambda, target.next_down());
            assert_eq!(cmp.estimate(d), None, "d={d}");
            assert!(!cmp.at(d));
        }
    }

    #[test]
    fn running_tails_stay_far_inside_the_band_of_the_exact_sum() {
        // The band is sound only while estimate and exact sum agree far
        // more closely than it: check a margin of 100 on full and
        // decimated grids, from light load up to the stability limit.
        let mut worst: f64 = 0.0;
        for st in [station(6, 50.0), station(12, 110.0), station(1, 8.0)] {
            let full = st.service_grid();
            let coarse: Vec<f64> = full.iter().step_by(8).copied().collect();
            let raw = st.raw_capacity();
            for grid in [&full, &coarse] {
                for lambda in [1e-3 * raw, 0.3 * raw, 0.8 * raw, 0.999 * raw] {
                    let cmp = st.tail_at_most(grid, lambda, 0.01);
                    for d in probe_deadlines(grid).into_iter().step_by(7) {
                        let exact = st.sojourn_tail_with(grid, lambda, d);
                        let est = cmp.running_tail(d).unwrap();
                        if exact > 0.0 {
                            worst = worst.max((est - exact).abs() / exact);
                        } else {
                            assert_eq!(est, 0.0, "λ={lambda} d={d}");
                        }
                    }
                }
            }
        }
        assert!(
            worst < TAIL_ESTIMATE_BAND / 100.0,
            "worst relative gap {worst:e}"
        );
    }

    #[test]
    fn slo_capacity_below_raw_capacity() {
        let st = station(6, 50.0);
        let slo = st.slo_capacity(0.5, 0.99);
        assert!(slo > 0.0);
        assert!(slo < st.raw_capacity());
        // Achieved rate keeps the tail within budget.
        assert!(st.sojourn_tail(slo * 0.999, 0.5) <= 0.01 + 1e-6);
    }

    #[test]
    fn slo_capacity_zero_when_service_misses_deadline() {
        let st = station(12, 200.0);
        // 100 ms deadline, 200 ms mean service: hopeless.
        assert_eq!(st.slo_capacity(0.1, 0.99), 0.0);
    }

    #[test]
    fn slo_capacity_increases_with_cores_and_speed() {
        let base = station(6, 50.0).slo_capacity(0.5, 0.99);
        let more_cores = station(12, 50.0).slo_capacity(0.5, 0.99);
        let faster = station(6, 25.0).slo_capacity(0.5, 0.99);
        assert!(more_cores > base * 1.9, "cores: {more_cores} vs {base}");
        assert!(faster > base * 1.9, "speed: {faster} vs {base}");
    }

    #[test]
    fn slo_capacity_looser_percentile_is_higher() {
        let st = station(6, 120.0);
        let p99 = st.slo_capacity(0.5, 0.99);
        let p90 = st.slo_capacity(0.5, 0.90);
        assert!(p90 > p99);
    }

    #[test]
    fn tight_deadline_creates_superlinear_sprint_gain() {
        // The effect the paper's 4.8× rests on: when Normal-mode service
        // times sit close to the deadline, the SLO capacity ratio between
        // max sprint and Normal far exceeds the raw capacity ratio.
        let normal = station(6, 200.0); // slow cores
        let sprint = station(12, 110.0); // 12 faster cores
        let raw_ratio = sprint.raw_capacity() / normal.raw_capacity();
        let slo_ratio = sprint.slo_capacity(0.5, 0.99) / normal.slo_capacity(0.5, 0.99).max(1e-9);
        assert!(slo_ratio > raw_ratio, "slo {slo_ratio} vs raw {raw_ratio}");
    }
}
