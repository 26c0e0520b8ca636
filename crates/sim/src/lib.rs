//! # gs-sim — deterministic simulation kernel
//!
//! Shared infrastructure for the GreenSprint reproduction: a discrete
//! simulation clock, seeded random number generation with the
//! distributions the workload layer needs, online statistics
//! (mean/variance, percentiles, histograms), exponentially weighted moving
//! averages, and time-series buffers.
//!
//! Everything in this crate is deterministic given a seed: all randomness
//! flows through [`rng::SimRng`] instances created from explicit seeds.

pub mod ewma;
pub mod p2;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use ewma::Ewma;
pub use p2::P2Quantile;
pub use rng::{LogNormal, SimRng};
pub use series::TimeSeries;
pub use stats::{Histogram, OnlineStats, ReservoirPercentiles};
pub use time::{SimDuration, SimTime};
