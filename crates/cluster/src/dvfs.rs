//! DVFS levels and the sprint-setting space.
//!
//! The prototype's Xeon E5-2620 exposes 9 frequency states and sprinting
//! scales the active core count from 6 to 12 (paper §IV). A *sprint
//! setting* `S_j` is the pair (core count, frequency level), ordered from
//! `S0` = Normal (6 cores @ 1.2 GHz) to `Sr` = maximum sprint (12 cores @
//! 2.0 GHz) — paper §III-B.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The nine DVFS states of the prototype, in kHz (1.2 → 2.0 GHz).
pub const FREQ_LEVELS_KHZ: [u32; 9] = [
    1_200_000, 1_300_000, 1_400_000, 1_500_000, 1_600_000, 1_700_000, 1_800_000, 1_900_000,
    2_000_000,
];

/// Number of DVFS states.
pub const NUM_FREQ_LEVELS: usize = FREQ_LEVELS_KHZ.len();

/// Core count in Normal (non-sprinting) mode.
pub const NORMAL_CORES: u8 = 6;

/// Core count at maximum sprint.
pub const MAX_CORES: u8 = 12;

/// The maximum frequency in GHz (used to normalize frequency scaling).
pub const MAX_FREQ_GHZ: f64 = 2.0;

/// A sprint setting: active core count and frequency-level index.
///
/// # Example
///
/// ```
/// use gs_cluster::ServerSetting;
/// let normal = ServerSetting::normal();       // 6 cores @ 1.2 GHz
/// let sprint = ServerSetting::max_sprint();   // 12 cores @ 2.0 GHz
/// assert_eq!(ServerSetting::all().len(), 63); // 7 core counts x 9 DVFS states
/// assert!(sprint.is_sprinting() && !normal.is_sprinting());
/// ```

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct ServerSetting {
    /// Active cores, `NORMAL_CORES ..= MAX_CORES`.
    pub cores: u8,
    /// Index into [`FREQ_LEVELS_KHZ`].
    pub freq_idx: u8,
}

/// Parsing validates as [`ServerSetting::new`] does, so a snapshot
/// naming a setting outside the space is refused at load instead of
/// indexing the frequency table or a Q-table row with it later.
impl Deserialize for ServerSetting {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Raw {
            cores: u8,
            freq_idx: u8,
        }
        let raw = Raw::from_value(v)?;
        ServerSetting::check(raw.cores, raw.freq_idx).map_err(serde::Error::msg)?;
        Ok(ServerSetting {
            cores: raw.cores,
            freq_idx: raw.freq_idx,
        })
    }
}

impl ServerSetting {
    /// Construct a setting, validating the ranges.
    pub fn new(cores: u8, freq_idx: u8) -> Self {
        if let Err(e) = Self::check(cores, freq_idx) {
            panic!("{e}");
        }
        ServerSetting { cores, freq_idx }
    }

    /// Whether `(cores, freq_idx)` names a setting in the space.
    fn check(cores: u8, freq_idx: u8) -> Result<(), String> {
        if !(NORMAL_CORES..=MAX_CORES).contains(&cores) {
            return Err(format!("core count {cores} out of range"));
        }
        if freq_idx as usize >= NUM_FREQ_LEVELS {
            return Err(format!("frequency index {freq_idx} out of range"));
        }
        Ok(())
    }

    /// `S0`: Normal mode — 6 cores at the lowest frequency (1.2 GHz).
    pub const fn normal() -> Self {
        ServerSetting {
            cores: NORMAL_CORES,
            freq_idx: 0,
        }
    }

    /// `Sr`: maximum sprint — 12 cores at 2.0 GHz.
    pub const fn max_sprint() -> Self {
        ServerSetting {
            cores: MAX_CORES,
            freq_idx: (NUM_FREQ_LEVELS - 1) as u8,
        }
    }

    /// Frequency of this setting in GHz.
    pub fn freq_ghz(&self) -> f64 {
        FREQ_LEVELS_KHZ[self.freq_idx as usize] as f64 / 1e6
    }

    /// Frequency of this setting in kHz (the sysfs unit).
    pub fn freq_khz(&self) -> u32 {
        FREQ_LEVELS_KHZ[self.freq_idx as usize]
    }

    /// Frequency as a fraction of the maximum (`f / 2.0 GHz`).
    pub fn freq_fraction(&self) -> f64 {
        self.freq_ghz() / MAX_FREQ_GHZ
    }

    /// True if this setting exceeds Normal mode in either dimension.
    pub fn is_sprinting(&self) -> bool {
        *self != Self::normal()
    }

    /// Size of the setting space `S`: 7 core counts × 9 frequencies.
    pub const COUNT: usize = (MAX_CORES - NORMAL_CORES + 1) as usize * NUM_FREQ_LEVELS;

    /// Every setting in the two-dimensional space `S`, ordered by
    /// (cores, frequency) — 7 core counts × 9 frequencies = 63 actions,
    /// in [`Self::action_index`] order.
    pub fn all() -> Vec<ServerSetting> {
        let mut v = Vec::with_capacity(Self::COUNT);
        for cores in NORMAL_CORES..=MAX_CORES {
            for f in 0..NUM_FREQ_LEVELS as u8 {
                v.push(ServerSetting::new(cores, f));
            }
        }
        v
    }

    /// The *Parallel* strategy's one-dimensional slice: frequency pinned to
    /// maximum, cores varying (paper §III-B).
    pub fn parallel_axis() -> Vec<ServerSetting> {
        (NORMAL_CORES..=MAX_CORES)
            .map(|c| ServerSetting::new(c, (NUM_FREQ_LEVELS - 1) as u8))
            .collect()
    }

    /// The *Pacing* strategy's one-dimensional slice: cores pinned to
    /// maximum, frequency varying.
    pub fn pacing_axis() -> Vec<ServerSetting> {
        (0..NUM_FREQ_LEVELS as u8)
            .map(|f| ServerSetting::new(MAX_CORES, f))
            .collect()
    }

    /// A stable dense index for lookup tables (Q-learning actions).
    pub fn action_index(&self) -> usize {
        (self.cores - NORMAL_CORES) as usize * NUM_FREQ_LEVELS + self.freq_idx as usize
    }

    /// Inverse of [`Self::action_index`].
    pub fn from_action_index(i: usize) -> Self {
        let cores = NORMAL_CORES + (i / NUM_FREQ_LEVELS) as u8;
        let freq = (i % NUM_FREQ_LEVELS) as u8;
        ServerSetting::new(cores, freq)
    }
}

impl Default for ServerSetting {
    fn default() -> Self {
        Self::normal()
    }
}

impl fmt::Display for ServerSetting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}c@{:.1}GHz", self.cores, self.freq_ghz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_and_max_match_paper() {
        let n = ServerSetting::normal();
        assert_eq!(n.cores, 6);
        assert!((n.freq_ghz() - 1.2).abs() < 1e-9);
        let m = ServerSetting::max_sprint();
        assert_eq!(m.cores, 12);
        assert!((m.freq_ghz() - 2.0).abs() < 1e-9);
        assert!(!n.is_sprinting());
        assert!(m.is_sprinting());
    }

    #[test]
    fn nine_freq_states() {
        assert_eq!(NUM_FREQ_LEVELS, 9);
        let ghz: Vec<f64> = (0..9)
            .map(|i| ServerSetting::new(6, i).freq_ghz())
            .collect();
        assert!((ghz[0] - 1.2).abs() < 1e-9);
        assert!((ghz[8] - 2.0).abs() < 1e-9);
        // Monotone, 0.1 GHz steps.
        for w in ghz.windows(2) {
            assert!((w[1] - w[0] - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn setting_space_has_63_actions() {
        let all = ServerSetting::all();
        assert_eq!(all.len(), 63);
        assert_eq!(ServerSetting::COUNT, 63);
        // First is Normal, last is max sprint.
        assert_eq!(all[0], ServerSetting::normal());
        assert_eq!(*all.last().unwrap(), ServerSetting::max_sprint());
        // Indices are a bijection.
        for (i, s) in all.iter().enumerate() {
            assert_eq!(s.action_index(), i);
            assert_eq!(ServerSetting::from_action_index(i), *s);
        }
    }

    #[test]
    fn strategy_axes() {
        let par = ServerSetting::parallel_axis();
        assert_eq!(par.len(), 7);
        assert!(par.iter().all(|s| (s.freq_ghz() - 2.0).abs() < 1e-9));
        let pac = ServerSetting::pacing_axis();
        assert_eq!(pac.len(), 9);
        assert!(pac.iter().all(|s| s.cores == 12));
    }

    #[test]
    fn freq_fraction() {
        assert!((ServerSetting::normal().freq_fraction() - 0.6).abs() < 1e-9);
        assert!((ServerSetting::max_sprint().freq_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "core count")]
    fn rejects_too_few_cores() {
        ServerSetting::new(5, 0);
    }

    #[test]
    #[should_panic(expected = "frequency index")]
    fn rejects_bad_freq() {
        ServerSetting::new(6, 9);
    }

    #[test]
    fn parsing_refuses_settings_outside_the_space() {
        for s in ServerSetting::all() {
            assert_eq!(ServerSetting::from_value(&s.to_value()).unwrap(), s);
        }
        let raw = |cores: u64, freq_idx: u64| {
            serde::Value::Object(vec![
                (
                    "cores".to_string(),
                    serde::Value::Number(serde::Number::from_u64(cores)),
                ),
                (
                    "freq_idx".to_string(),
                    serde::Value::Number(serde::Number::from_u64(freq_idx)),
                ),
            ])
        };
        for (cores, freq_idx, want) in [
            (200, 0, "core count 200 out of range"),
            (5, 0, "core count 5 out of range"),
            (6, 9, "frequency index 9 out of range"),
        ] {
            let err = ServerSetting::from_value(&raw(cores, freq_idx)).expect_err(want);
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn display() {
        assert_eq!(ServerSetting::max_sprint().to_string(), "12c@2.0GHz");
    }
}
