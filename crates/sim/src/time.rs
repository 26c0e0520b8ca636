//! Simulation time: a monotonically increasing clock with microsecond
//! resolution, represented as an integer so that event ordering is exact
//! and reproducible (no floating-point tie ambiguity between events).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Microseconds per second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// A point in simulated time, measured in microseconds since the start of
/// the simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Construct from fractional seconds. Negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            SimTime(0)
        } else {
            SimTime((s * MICROS_PER_SEC as f64).round() as u64)
        }
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * 60 * MICROS_PER_SEC)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * 3_600 * MICROS_PER_SEC)
    }

    /// Microseconds since the simulation origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation origin, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Whole seconds since the simulation origin (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// Whole minutes since the simulation origin (truncating).
    pub const fn as_mins(self) -> u64 {
        self.0 / (60 * MICROS_PER_SEC)
    }

    /// Hours since the origin, as a float (useful for diurnal models).
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3_600.0
    }

    /// Duration since an earlier time; saturates at zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Time-of-day within a repeating 24 h cycle, in hours `[0, 24)`.
    pub fn hour_of_day(self) -> f64 {
        self.as_hours_f64() % 24.0
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Construct from fractional seconds. Negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration((s * MICROS_PER_SEC as f64).round() as u64)
        }
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * MICROS_PER_SEC)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600 * MICROS_PER_SEC)
    }

    /// Microseconds in this duration.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds in this duration, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Hours in this duration, as a float.
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3_600.0
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// Whole minutes (truncating).
    pub const fn as_mins(self) -> u64 {
        self.0 / (60 * MICROS_PER_SEC)
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked integer division of one duration by another (how many whole
    /// `other` fit into `self`); `None` if `other` is zero.
    pub const fn div_duration(self, other: SimDuration) -> Option<u64> {
        self.0.checked_div(other.0)
    }

    /// Scale by a non-negative float, rounding to the nearest microsecond.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(factor >= 0.0, "duration scale factor must be non-negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(d.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_s = self.as_secs();
        let (h, m, s) = (total_s / 3600, (total_s / 60) % 60, total_s % 60);
        write!(f, "{h:02}:{m:02}:{s:02}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(5).as_micros(), 5 * MICROS_PER_SEC);
        assert_eq!(SimTime::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(SimTime::from_mins(2).as_secs(), 120);
        assert_eq!(SimTime::from_hours(1).as_mins(), 60);
        assert_eq!(SimDuration::from_mins(10).as_secs(), 600);
    }

    #[test]
    fn from_secs_f64_clamps_negative() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.5), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t.as_secs(), 15);
        assert_eq!((t - SimTime::from_secs(5)).as_secs(), 10);
        // Saturating subtraction never panics or wraps.
        assert_eq!(
            SimTime::from_secs(1) - SimDuration::from_secs(100),
            SimTime::ZERO
        );
        assert_eq!(
            SimTime::from_secs(1).since(SimTime::from_secs(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn hour_of_day_wraps() {
        let t = SimTime::from_hours(26);
        assert!((t.hour_of_day() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn div_duration() {
        let epoch = SimDuration::from_secs(60);
        assert_eq!(SimDuration::from_mins(10).div_duration(epoch), Some(10));
        assert_eq!(SimDuration::from_secs(59).div_duration(epoch), Some(0));
        assert_eq!(epoch.div_duration(SimDuration::ZERO), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(3_725).to_string(), "01:02:05");
        assert_eq!(SimDuration::from_millis(1_500).to_string(), "1.500s");
    }

    #[test]
    fn mul_f64_scales() {
        assert_eq!(SimDuration::from_secs(10).mul_f64(0.5).as_secs(), 5);
        assert_eq!(SimDuration::from_secs(1).mul_f64(0.0), SimDuration::ZERO);
    }
}
