//! Deterministic parallel sweep executor.
//!
//! Every figure of the evaluation is a grid sweep over
//! (strategy × availability × duration × green-config), and learning
//! extensions need thousands of fast simulated episodes. This module fans
//! a list of [`SweepTask`]s (single bursts or multi-day campaigns) across
//! a scoped worker pool while keeping results **bit-identical to a serial
//! run**, whatever the worker count or OS scheduling order:
//!
//! * Each task's RNG seed is derived from `(master_seed, task_index)` with
//!   a SplitMix64-style hash ([`derive_seed`]), so no task's randomness
//!   depends on which worker ran it or on any other task.
//! * A task is a pure function of its (re-seeded) configuration. The only
//!   cross-task state is the process-wide profile cache
//!   ([`crate::profiler::ProfileTable::cached`] and
//!   [`crate::qlearning::QLearner::bootstrapped_cached`]), which is
//!   deterministic, initialized exactly once, and read-only afterwards.
//! * Workers pull task indices from an atomic counter and stream each
//!   finished result back over a channel tagged with its index and label;
//!   the collector re-orders by index before returning.

use crate::campaign::{CampaignConfig, CampaignOutcome};
use crate::engine::{BurstOutcome, Engine, EngineConfig};
use crate::fleet::EngineScratch;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One unit of sweep work.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SweepTask {
    /// A single controlled burst (one figure cell).
    Burst(EngineConfig),
    /// A multi-day diurnal campaign.
    Campaign(CampaignConfig),
}

/// A labelled sweep point: what to run and what to call it in the output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Human-readable cell label (e.g. `"jbb/Pacing/med/30min"`).
    pub label: String,
    /// The work itself.
    pub task: SweepTask,
}

impl SweepPoint {
    /// A burst point.
    pub fn burst(label: impl Into<String>, cfg: EngineConfig) -> Self {
        SweepPoint {
            label: label.into(),
            task: SweepTask::Burst(cfg),
        }
    }

    /// A campaign point.
    pub fn campaign(label: impl Into<String>, cfg: CampaignConfig) -> Self {
        SweepPoint {
            label: label.into(),
            task: SweepTask::Campaign(cfg),
        }
    }
}

/// What one task produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SweepOutcome {
    Burst(BurstOutcome),
    Campaign(CampaignOutcome),
    /// The task did not complete: it panicked on every allowed attempt or
    /// blew its epoch budget (supervised execution only). The error is
    /// recorded in place of a result so sibling tasks survive.
    Failed(String),
}

impl SweepOutcome {
    /// The headline metric, whichever kind of task ran: speedup vs the
    /// Normal baseline (bursts) or goodput vs Normal (campaigns). NaN for
    /// a failed task.
    pub fn vs_normal(&self) -> f64 {
        match self {
            SweepOutcome::Burst(b) => b.speedup_vs_normal,
            SweepOutcome::Campaign(c) => c.goodput_vs_normal,
            SweepOutcome::Failed(_) => f64::NAN,
        }
    }

    /// True when the task did not complete.
    pub fn is_failed(&self) -> bool {
        matches!(self, SweepOutcome::Failed(_))
    }
}

/// One completed sweep point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// Position in the submitted task list.
    pub index: usize,
    /// The point's label, copied through.
    pub label: String,
    /// The derived seed this task actually ran with.
    pub seed: u64,
    /// The task's outcome.
    pub outcome: SweepOutcome,
}

/// Derive task `index`'s seed from the sweep's master seed.
///
/// SplitMix64's output function over `master_seed + (index+1)·γ` (the
/// Weyl-sequence increment γ = 0x9e3779b97f4a7c15): statistically
/// independent streams for adjacent indices, and a pure function of
/// `(master_seed, index)` — worker count and completion order cannot
/// enter.
pub fn derive_seed(master_seed: u64, index: u64) -> u64 {
    let mut z =
        master_seed.wrapping_add((index.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The worker count to use when the caller does not specify one.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Run a sweep: every point re-seeded from `(master_seed, index)`, fanned
/// across `jobs` workers, results returned in submission order.
///
/// Panics if `jobs == 0` or a task panics.
pub fn run_sweep(points: Vec<SweepPoint>, master_seed: u64, jobs: usize) -> Vec<SweepResult> {
    run_sweep_streaming(points, master_seed, jobs, |_| {})
}

/// As [`run_sweep`], additionally invoking `on_result` on each result *in
/// completion order* as it streams off the worker channel — for live
/// output (e.g. the CLI's JSON-lines mode) without waiting for the
/// slowest task.
pub fn run_sweep_streaming(
    points: Vec<SweepPoint>,
    master_seed: u64,
    jobs: usize,
    mut on_result: impl FnMut(&SweepResult),
) -> Vec<SweepResult> {
    assert!(jobs >= 1, "sweep needs at least one worker");
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = jobs.min(n);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<SweepResult>();
    let points = &points;
    let next = &next;

    let mut results: Vec<Option<SweepResult>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            s.spawn(move || {
                // One scratch arena per worker, reused across every task
                // it claims: each engine run resets it, keeping only
                // analytic-cache entries that are exact for the next
                // point, so reuse cannot leak state between points
                // (pinned by the jobs-invariance golden test).
                let mut arena = EngineScratch::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let point = &points[i];
                    let seed = derive_seed(master_seed, i as u64);
                    let outcome = run_task_seeded_in(&point.task, seed, &mut arena);
                    // The receiver can only hang up by panicking; die
                    // quietly with it rather than double-panicking.
                    if tx
                        .send(SweepResult {
                            index: i,
                            label: point.label.clone(),
                            seed,
                            outcome,
                        })
                        .is_err()
                    {
                        break;
                    }
                }
            });
        }
        drop(tx); // the collector's recv() ends when the last worker exits
        for result in rx {
            on_result(&result);
            let slot = result.index;
            results[slot] = Some(result);
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("worker panicked before completing its task"))
        .collect()
}

/// Execute one task with its derived seed substituted in.
pub(crate) fn run_task_seeded(task: &SweepTask, seed: u64) -> SweepOutcome {
    let mut arena = EngineScratch::new();
    run_task_seeded_in(task, seed, &mut arena)
}

/// As [`run_task_seeded`], reusing a caller-provided scratch arena.
pub(crate) fn run_task_seeded_in(
    task: &SweepTask,
    seed: u64,
    arena: &mut EngineScratch,
) -> SweepOutcome {
    match task {
        SweepTask::Burst(cfg) => {
            let mut cfg = cfg.clone();
            cfg.seed = seed;
            SweepOutcome::Burst(Engine::new(cfg).run_with_scratch(arena))
        }
        SweepTask::Campaign(cfg) => {
            let mut cfg = cfg.clone();
            cfg.engine.seed = seed;
            let outcome = crate::campaign::try_run_campaign_in(&cfg, arena)
                .unwrap_or_else(|e| panic!("invalid campaign configuration: {e}"));
            SweepOutcome::Campaign(outcome)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AvailabilityLevel, GreenConfig};
    use crate::engine::MeasurementMode;
    use crate::pmk::Strategy;
    use gs_sim::SimDuration;
    use gs_workload::apps::Application;

    fn quick_cfg(strategy: Strategy) -> EngineConfig {
        EngineConfig {
            strategy,
            green: GreenConfig::re_batt(),
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(5),
            measurement: MeasurementMode::Analytic,
            ..EngineConfig::default()
        }
    }

    fn small_grid() -> Vec<SweepPoint> {
        let mut points = Vec::new();
        for strategy in [Strategy::Greedy, Strategy::Pacing, Strategy::Hybrid] {
            for app in [Application::SpecJbb, Application::Memcached] {
                let cfg = EngineConfig {
                    app,
                    ..quick_cfg(strategy)
                };
                points.push(SweepPoint::burst(format!("{app:?}/{strategy}"), cfg));
            }
        }
        points
    }

    #[test]
    fn derive_seed_is_stable_and_index_sensitive() {
        assert_eq!(derive_seed(7, 0), derive_seed(7, 0));
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let results = run_sweep(small_grid(), 7, 4);
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.seed, derive_seed(7, i as u64));
        }
    }

    #[test]
    fn worker_count_does_not_change_outcomes() {
        let serial = run_sweep(small_grid(), 7, 1);
        let parallel = run_sweep(small_grid(), 7, 4);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.seed, b.seed);
            assert_eq!(
                a.outcome.vs_normal(),
                b.outcome.vs_normal(),
                "{} diverged between jobs=1 and jobs=4",
                a.label
            );
        }
    }

    #[test]
    fn streaming_sees_every_result_once() {
        let mut seen = Vec::new();
        let results = run_sweep_streaming(small_grid(), 7, 3, |r| seen.push(r.index));
        seen.sort_unstable();
        assert_eq!(seen, (0..results.len()).collect::<Vec<_>>());
    }

    #[test]
    fn campaigns_run_through_the_sweep() {
        let campaign = CampaignConfig {
            engine: quick_cfg(Strategy::Greedy),
            days: 1,
            spikes_per_day: 2,
            peak_intensity_cores: 12,
        };
        let results = run_sweep(vec![SweepPoint::campaign("1day", campaign)], 3, 2);
        match &results[0].outcome {
            SweepOutcome::Campaign(c) => assert_eq!(c.days, 1),
            other => panic!("expected campaign outcome, got {other:?}"),
        }
    }

    #[test]
    fn empty_sweep_is_fine() {
        assert!(run_sweep(Vec::new(), 7, 8).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_jobs_is_rejected() {
        run_sweep(small_grid(), 7, 0);
    }
}
