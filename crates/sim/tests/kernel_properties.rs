//! Property tests for the simulation kernel.

use gs_sim::{Ewma, OnlineStats, ReservoirPercentiles, SimDuration, SimRng};
use proptest::prelude::{prop, prop_assert, prop_assert_eq, proptest, ProptestConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Welford merge equals sequential accumulation for any split point.
    #[test]
    fn online_stats_merge_any_split(
        data in prop::collection::vec(-1e6_f64..1e6, 2..100),
        split_frac in 0.0_f64..1.0,
    ) {
        let split = ((data.len() as f64 * split_frac) as usize).min(data.len());
        let mut whole = OnlineStats::new();
        data.iter().for_each(|&x| whole.record(x));
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        data[..split].iter().for_each(|&x| a.record(x));
        data[split..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * whole.mean().abs().max(1.0));
        prop_assert!((a.variance() - whole.variance()).abs() <= 1e-4 * whole.variance().max(1.0));
        prop_assert_eq!(a.min(), whole.min());
        prop_assert_eq!(a.max(), whole.max());
    }

    /// Exact percentiles below the reservoir cap bracket the data and are
    /// bit for bit the nearest-rank value of a stable sort, on
    /// duplicate-heavy data (a few distinct levels, many repeats).
    #[test]
    fn percentiles_bracket_data(
        levels in prop::collection::vec(-1e3_f64..1e3, 1..12),
        picks in prop::collection::vec(0_usize..12, 1..500),
    ) {
        let data: Vec<f64> = picks.iter().map(|&i| levels[i % levels.len()]).collect();
        let mut p = ReservoirPercentiles::with_cap(1_000);
        data.iter().for_each(|&x| p.record(x));
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let v = p.quantile(q).unwrap();
            prop_assert!((lo..=hi).contains(&v), "q={q} gave {v} outside [{lo}, {hi}]");
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let want = sorted[rank - 1];
            prop_assert!(v.to_bits() == want.to_bits(), "q={q} gave {v}, stable sort {want}");
        }
        prop_assert_eq!(p.quantile(0.0).unwrap(), lo);
        prop_assert_eq!(p.quantile(1.0).unwrap(), hi);
    }

    /// EWMA output always lies between the previous estimate and the new
    /// observation (it is a convex combination).
    #[test]
    fn ewma_is_convex(alpha in 0.0_f64..=1.0, obs in prop::collection::vec(-1e3_f64..1e3, 1..50)) {
        let mut e = Ewma::new(alpha);
        let mut prev: Option<f64> = None;
        for &x in &obs {
            let out = e.observe(x);
            if let Some(p) = prev {
                let lo = p.min(x) - 1e-9;
                let hi = p.max(x) + 1e-9;
                prop_assert!((lo..=hi).contains(&out));
            } else {
                prop_assert_eq!(out, x);
            }
            prev = Some(out);
        }
    }

    /// Forked RNG streams are reproducible and distinct.
    #[test]
    fn rng_forks_reproduce(seed in 0_u64..1_000) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        let mut fa = a.fork();
        let mut fb = b.fork();
        for _ in 0..16 {
            prop_assert_eq!(fa.uniform(), fb.uniform());
        }
        // Parent and child streams differ.
        let x: Vec<f64> = (0..8).map(|_| a.uniform()).collect();
        let y: Vec<f64> = (0..8).map(|_| fa.uniform()).collect();
        prop_assert!(x != y);
    }

    /// Exponential samples are non-negative; Poisson counts are finite.
    #[test]
    fn distribution_supports(seed in 0_u64..500, mean in 0.001_f64..100.0) {
        let mut r = SimRng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(r.exp(mean) >= 0.0);
            let _ = r.poisson(mean); // must terminate and not panic
            prop_assert!(r.lognormal_mean_cv(mean, 0.4) > 0.0);
        }
    }

    /// Duration arithmetic: (a + b) - b == a, and saturating subtraction
    /// never underflows.
    #[test]
    fn duration_arithmetic(a in 0_u64..1_000_000, b in 0_u64..1_000_000) {
        let da = SimDuration::from_micros(a);
        let db = SimDuration::from_micros(b);
        prop_assert_eq!((da + db) - db, da);
        if b > a {
            prop_assert_eq!(da - db, SimDuration::ZERO);
        }
    }
}
