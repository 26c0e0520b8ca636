//! The tabular reinforcement learner behind the *Hybrid* strategy
//! (paper §III-B, Algorithm 1).
//!
//! The MDP: the state `c_t` is the (power supply, workload intensity) pair
//! observed during epoch `t−1`, both quantized in 5 % steps; the action
//! `a_t` is a sprint setting from the 63-element space `S`; the reward
//! combines a power-satisfaction ratio and a QoS ratio per Algorithm 1;
//! updates follow `R(c,a) += α[r + γ·max_a' R(c',a') − R(c,a)]` with the
//! paper's α = 0.7 and γ = 0.9.
//!
//! The table is bootstrapped from the profiling data (the paper seeds it
//! "from the profiling data collected by Parallel and Pacing"), so the
//! very first sprint decisions are already sensible and online learning
//! refines them.
//!
//! A decision reads one 63-cell row and an update writes one cell, so
//! the hot paths index the table with a constant row stride and allocate
//! nothing; a snapshot stores only the cells a run changed ([`QDelta`]).
//!
//! One interpretation note, recorded here because Algorithm 1 leaves it
//! implicit: `QoScurrent` must reflect the *offered* workload, not only the
//! requests a load balancer admitted — otherwise shedding to a trickle
//! would always look QoS-compliant. We therefore treat QoS as ensured when
//! the fraction of offered requests finishing within the deadline reaches
//! the SLO percentile, and use the measured tail latency for the magnitude
//! of the reward once it is.

use crate::checkpoint::Fnv;
use crate::profiler::ProfileTable;
use gs_cluster::ServerSetting;
use gs_sim::SimRng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::OnceLock;

/// The paper's learning rate.
pub const PAPER_LEARNING_RATE: f64 = 0.7;
/// The paper's discount factor.
pub const PAPER_DISCOUNT: f64 = 0.9;
/// The paper's state-quantization step ("we empirically determine the
/// step as 5%").
pub const QUANT_STEP: f64 = 0.05;

/// Number of quantization levels for one state dimension (0 %, 5 %, …, 100 %).
const LEVELS: usize = 21;

/// Actions per state — the table's row stride.
const ACTIONS: usize = ServerSetting::COUNT;

/// A quantized MDP state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QState {
    /// Power-supply level in `0..LEVELS` (fraction of max sprint power).
    pub power_level: usize,
    /// Workload-intensity level in `0..LEVELS` (fraction of max capacity).
    pub load_level: usize,
}

impl QState {
    fn index(self) -> usize {
        self.power_level * LEVELS + self.load_level
    }

    /// Total number of states.
    pub const COUNT: usize = LEVELS * LEVELS;

    /// Whether both levels lie inside the quantization grid. [`quantize`]
    /// never produces an out-of-range level, but a deserialized or
    /// corrupted state can carry one; indexing the table with it would
    /// read another state's cells (or panic).
    pub fn in_range(self) -> bool {
        self.power_level < LEVELS && self.load_level < LEVELS
    }
}

/// Quantize a fraction in `[0, 1]` to a 5 % level.
pub fn quantize(fraction: f64) -> usize {
    ((fraction.clamp(0.0, 1.0) / QUANT_STEP).round() as usize).min(LEVELS - 1)
}

/// Inputs to the reward computation for one epoch.
#[derive(Debug, Clone, Copy)]
pub struct RewardInputs {
    /// Power available to the server this epoch (W).
    pub power_supply_w: f64,
    /// Power the server actually demanded (W).
    pub power_current_w: f64,
    /// The SLO deadline (s).
    pub qos_target_s: f64,
    /// Measured latency at the SLO percentile, of admitted requests (s).
    pub qos_current_s: f64,
    /// Fraction of *offered* requests that finished within the deadline.
    pub offered_slo_fraction: f64,
    /// The SLO percentile (e.g. 0.99).
    pub slo_percentile: f64,
}

/// Algorithm 1's reward.
pub fn reward(inp: &RewardInputs) -> f64 {
    let r_power = if inp.power_current_w > 0.0 {
        inp.power_supply_w / inp.power_current_w
    } else {
        // No demand at all: supply trivially suffices.
        2.0
    };
    // QoS is ensured only if the offered workload met the percentile; the
    // latency ratio then grades how comfortably (capped to keep the table
    // bounded).
    //
    // Deviation from the literal Algorithm 1: in the violated branch the
    // paper subtracts `Rqos = QoStarget/QoScurrent`, which *shrinks* as QoS
    // worsens — i.e. the literal formula prefers the setting that violates
    // QoS the most. We read that as a typo for the inverse ratio and
    // subtract a penalty that *grows* with the violation (capped), which
    // matches the prose: "if the QoS can not been ensured, we add a
    // negative reward."
    let qos_ensured = inp.offered_slo_fraction >= inp.slo_percentile;
    if r_power > 1.0 {
        if qos_ensured {
            let r_qos = if inp.qos_current_s > 0.0 {
                (inp.qos_target_s / inp.qos_current_s).clamp(1.0, 3.0)
            } else {
                3.0
            };
            r_power + r_qos + 1.0
        } else {
            let violation = if inp.offered_slo_fraction > 0.0 {
                (inp.slo_percentile / inp.offered_slo_fraction).min(5.0)
            } else {
                5.0
            };
            r_power - violation + 1.0
        }
    } else {
        -r_power - 1.0
    }
}

/// Why an exported policy cannot be loaded.
///
/// Returned by [`QLearner::from_json`]; surfaced by the CLI as a usage
/// error (exit 2) and by the engine as `InvalidWarmPolicy`.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyError {
    /// The text does not parse as a policy at all.
    Parse(String),
    /// The table does not have `QState::COUNT × |S|` cells.
    WrongShape {
        /// Cells a well-formed table must have.
        expected: usize,
        /// Cells the table actually has.
        got: usize,
    },
    /// The table holds NaN or infinite values.
    NonFinite {
        /// Number of non-finite cells.
        cells: usize,
    },
    /// A hyper-parameter or quantization reference is out of range.
    BadParameter(String),
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::Parse(e) => write!(f, "policy does not parse: {e}"),
            PolicyError::WrongShape { expected, got } => {
                write!(f, "table has {got} cells, expected {expected}")
            }
            PolicyError::NonFinite { cells } => {
                write!(f, "table holds {cells} NaN/inf cells")
            }
            PolicyError::BadParameter(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PolicyError {}

/// Why a [`QDelta`] cannot apply to a table. Parsing a delta checks
/// both, so a snapshot carrying a tampered delta is refused at load
/// (the CLI exits 2) rather than indexing past the table on resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DeltaError {
    /// A cell index at or past [`QLearner::CELLS`].
    IndexOutOfRange {
        /// The offending index.
        index: u32,
    },
    /// A cell index that does not follow the previous one strictly
    /// upwards (a repeat or a step back).
    NotIncreasing {
        /// The index before it.
        after: u32,
        /// The offending index.
        index: u32,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::IndexOutOfRange { index } => write!(
                f,
                "q-table delta names cell {index} of a {}-cell table",
                QLearner::CELLS
            ),
            DeltaError::NotIncreasing { after, index } => write!(
                f,
                "q-table delta lists cell {index} after cell {after}; indices must strictly increase"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// A learner stored as its difference from a base table: the scalar
/// fields, plus each cell whose bits differ from the base's as a
/// `(cell index, f64::to_bits)` pair, in strictly increasing index order.
/// Bits rather than decimal floats, so every cell round-trips exactly —
/// NaN, ±inf and −0.0 included. Snapshots carry a learner this way
/// (`LoopState::learner`), and resume applies it onto the same base.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QDelta {
    learning_rate: f64,
    discount: f64,
    epsilon: f64,
    max_power_w: f64,
    max_load_rps: f64,
    cells: Vec<(u32, u64)>,
}

impl QDelta {
    /// Check every cell index against the table size and its
    /// predecessor.
    pub(crate) fn validate(&self) -> Result<(), DeltaError> {
        let mut prev: Option<u32> = None;
        for &(index, _) in &self.cells {
            if index as usize >= QLearner::CELLS {
                return Err(DeltaError::IndexOutOfRange { index });
            }
            if let Some(after) = prev.filter(|&p| index <= p) {
                return Err(DeltaError::NotIncreasing { after, index });
            }
            prev = Some(index);
        }
        Ok(())
    }
}

/// Parsing validates: a [`QDelta`] that deserialized applies to any
/// full-size table.
impl Deserialize for QDelta {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Raw {
            learning_rate: f64,
            discount: f64,
            epsilon: f64,
            max_power_w: f64,
            max_load_rps: f64,
            cells: Vec<(u32, u64)>,
        }
        let raw = Raw::from_value(v)?;
        let delta = QDelta {
            learning_rate: raw.learning_rate,
            discount: raw.discount,
            epsilon: raw.epsilon,
            max_power_w: raw.max_power_w,
            max_load_rps: raw.max_load_rps,
            cells: raw.cells,
        };
        delta.validate().map_err(serde::Error::msg)?;
        Ok(delta)
    }
}

/// `json` (a serialized snapshot) with its first Q-table delta's cell
/// list replaced by `cells`, a JSON array — a tampered snapshot for the
/// resume tests to refuse.
#[cfg(test)]
pub(crate) fn with_first_delta_cells(json: &str, cells: &str) -> String {
    let key = "\"cells\":";
    let at = json.find(key).expect("the snapshot holds a Q-table delta") + key.len();
    let len = if json[at..].starts_with("[]") {
        2
    } else {
        json[at..].find("]]").expect("a closed cell list") + 2
    };
    format!("{}{cells}{}", &json[..at], &json[at + len..])
}

/// Summary statistics over a Q-table, for `greensprint qtable dump`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TableStats {
    /// Total number of cells.
    pub cells: usize,
    /// Cells holding NaN or ±inf.
    pub non_finite: usize,
    /// Smallest finite value (`0.0` if none are finite).
    pub min: f64,
    /// Largest finite value (`0.0` if none are finite).
    pub max: f64,
    /// Mean over finite values (`0.0` if none are finite).
    pub mean: f64,
    /// Largest absolute finite value (`0.0` if none are finite).
    pub max_abs: f64,
}

/// The tabular Q-learner.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QLearner {
    /// `R(c, a)` lookup table, `QState::COUNT × 63`.
    table: Vec<f64>,
    /// Learning rate α.
    pub learning_rate: f64,
    /// Discount factor γ.
    pub discount: f64,
    /// Exploration probability (the paper runs pure greedy with continued
    /// updates; ε > 0 is available for ablations).
    pub epsilon: f64,
    /// Reference power for the state quantization (max sprint power, W).
    max_power_w: f64,
    /// Reference load for the state quantization (max SLO capacity, req/s).
    max_load_rps: f64,
}

/// Whether one cell value trips the guardrail's corruption detector:
/// NaN, ±inf, or a magnitude above `cap`. A table is corrupt when any
/// cell is — the verdict `table_stats` gives as
/// `non_finite > 0 || max_abs > cap`.
pub(crate) fn corrupt_value(v: f64, cap: f64) -> bool {
    !v.is_finite() || v.abs() > cap
}

/// [`QLearner::bootstrapped_cached`]'s tables, one slot per paper
/// application in `profiler::app_cache_index` order.
static BOOTSTRAPPED: [OnceLock<QLearner>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];

/// The [`BaseText`] of each [`BOOTSTRAPPED`] table, built at the first
/// checksum against it — a quarantine — and never at set-up.
static BOOTSTRAPPED_TEXT: [OnceLock<BaseText>; 3] =
    [OnceLock::new(), OnceLock::new(), OnceLock::new()];

/// A base table's [`QLearner::to_json`] text, indexed so that
/// [`QLearner::checksum_against`] can hash a learner's text while
/// formatting only the cells and scalar fields whose bits differ from
/// the base.
struct BaseText {
    json: String,
    /// Where each cell's text starts, then one past the table's `]`:
    /// cell `i` with the `,` (or `]`) after it is
    /// `json[cell_at[i]..cell_at[i + 1]]`.
    cell_at: Vec<u32>,
    /// The FNV state after every byte before each row's first cell.
    row_state: Vec<Fnv>,
    /// The byte span of each scalar field's value, in
    /// [`QLearner::scalars`] order.
    scalar_at: [(usize, usize); 5],
}

impl BaseText {
    /// One `to_json` and one scan. `table` is the first field, and no
    /// number's text holds a `,`, `]` or `}`, so each of those bytes ends
    /// a value.
    fn new(base: &QLearner) -> Self {
        let json = base.to_json();
        let bytes = json.as_bytes();
        let value_end = |from: usize| {
            from + bytes[from..]
                .iter()
                .position(|b| matches!(b, b',' | b']' | b'}'))
                .expect("every JSON value is followed by a delimiter")
        };
        let open = "{\"table\":[".len();
        debug_assert!(json.starts_with("{\"table\":["), "table is the first field");
        let offset = |at: usize| u32::try_from(at).expect("a Q-table's text fits in 4 GiB");
        let mut cell_at = Vec::with_capacity(base.table.len() + 1);
        let mut row_state = Vec::with_capacity(QState::COUNT);
        let mut h = Fnv::new();
        h.write(&bytes[..open]);
        let mut at = open;
        for i in 0..base.table.len() {
            if i % ACTIONS == 0 {
                row_state.push(h);
            }
            cell_at.push(offset(at));
            let next = value_end(at) + 1;
            h.write(&bytes[at..next]);
            at = next;
        }
        cell_at.push(offset(at));
        let mut scalar_at = [(0, 0); 5];
        for span in &mut scalar_at {
            let start = at
                + bytes[at..]
                    .iter()
                    .position(|&b| b == b':')
                    .expect("a scalar field follows the table")
                + 1;
            at = value_end(start);
            *span = (start, at);
        }
        BaseText {
            json,
            cell_at,
            row_state,
            scalar_at,
        }
    }
}

impl QLearner {
    /// Cells in a table: one row of 63 actions per state.
    pub(crate) const CELLS: usize = QState::COUNT * ACTIONS;

    /// A learner with the paper's constants, quantizing against the given
    /// application maxima.
    pub fn new(max_power_w: f64, max_load_rps: f64) -> Self {
        QLearner {
            table: vec![0.0; Self::CELLS],
            learning_rate: PAPER_LEARNING_RATE,
            discount: PAPER_DISCOUNT,
            epsilon: 0.0,
            max_power_w,
            max_load_rps,
        }
    }

    /// The process-wide bootstrapped learner for a paper application:
    /// [`QLearner::new`] against the cached profile maxima plus
    /// [`QLearner::bootstrap`], computed once per process and shared
    /// read-only. Sweeps clone it instead of re-running the
    /// 21×21×63-cell bootstrap per Hybrid run; the bootstrap is a pure
    /// function of the profile table, so the clone is bit-identical to a
    /// fresh bootstrap.
    pub fn bootstrapped_cached(app: gs_workload::apps::Application) -> &'static QLearner {
        BOOTSTRAPPED[crate::profiler::app_cache_index(app)]
            .get_or_init(|| Self::bootstrapped_fresh(ProfileTable::cached(app)))
    }

    /// The profile-bootstrapped learner for `profiles`: the process-wide
    /// [`Self::bootstrapped_cached`] copy, borrowed, for a cached table,
    /// else a fresh bootstrap.
    pub(crate) fn bootstrapped(profiles: &ProfileTable) -> Cow<'static, QLearner> {
        match ProfileTable::cached_app(profiles) {
            Some(app) => Cow::Borrowed(Self::bootstrapped_cached(app)),
            None => Cow::Owned(Self::bootstrapped_fresh(profiles)),
        }
    }

    /// [`QLearner::new`] against `profiles`' maxima, then
    /// [`QLearner::bootstrap`].
    fn bootstrapped_fresh(profiles: &ProfileTable) -> QLearner {
        let max = profiles.get(ServerSetting::max_sprint());
        let mut q = QLearner::new(max.full_load_power_w, max.slo_capacity);
        q.bootstrap(profiles);
        q
    }

    /// Quantize observed (supply, load) into an MDP state.
    pub fn state(&self, power_supply_w: f64, load_rps: f64) -> QState {
        QState {
            power_level: quantize(power_supply_w / self.max_power_w),
            load_level: quantize(load_rps / self.max_load_rps),
        }
    }

    fn cell(&self, s: QState, a: ServerSetting) -> usize {
        s.index() * ACTIONS + a.action_index()
    }

    /// State `s`'s row: one value per action, in action-index order.
    fn row(&self, s: QState) -> &[f64] {
        let start = s.index() * ACTIONS;
        &self.table[start..start + ACTIONS]
    }

    /// Current table value.
    pub fn value(&self, s: QState, a: ServerSetting) -> f64 {
        self.table[self.cell(s, a)]
    }

    /// Seed the table from profiling data: for every state and action,
    /// estimate Algorithm 1's one-step reward from the profiled power and
    /// SLO capacity (the paper bootstraps from Parallel/Pacing profiles).
    pub fn bootstrap(&mut self, profiles: &ProfileTable) {
        for power_level in 0..LEVELS {
            for load_level in 0..LEVELS {
                let s = QState {
                    power_level,
                    load_level,
                };
                let supply = power_level as f64 * QUANT_STEP * self.max_power_w;
                let offered = load_level as f64 * QUANT_STEP * self.max_load_rps;
                for a in ServerSetting::all() {
                    let e = profiles.get(a);
                    let demand = profiles.planned_power_w(a, offered);
                    let frac = if offered <= 0.0 {
                        1.0
                    } else {
                        (e.slo_capacity / offered).min(1.0)
                    };
                    let r = reward(&RewardInputs {
                        power_supply_w: supply,
                        power_current_w: demand,
                        qos_target_s: 1.0,
                        // Comfortable latency when capacity covers the load.
                        qos_current_s: if frac >= 1.0 { 0.6 } else { 1.5 },
                        offered_slo_fraction: frac,
                        slo_percentile: 0.99,
                    });
                    let cell = self.cell(s, a);
                    self.table[cell] = r;
                }
            }
        }
    }

    /// Greedy action for a state among `feasible` settings (the PMK masks
    /// actions whose planned power exceeds the supply); falls back to
    /// Normal when the feasible set is empty. With ε > 0, explores
    /// uniformly over the feasible set.
    pub fn best_action(
        &self,
        s: QState,
        feasible: &[ServerSetting],
        rng: &mut SimRng,
    ) -> ServerSetting {
        if feasible.is_empty() {
            return ServerSetting::normal();
        }
        if self.epsilon > 0.0 && rng.chance(self.epsilon) {
            return feasible[rng.index(feasible.len())];
        }
        let row = self.row(s);
        feasible
            .iter()
            .copied()
            .max_by(|a, b| row[a.action_index()].total_cmp(&row[b.action_index()]))
            .expect("feasible set is non-empty")
    }

    /// Serialize the learner (table and hyper-parameters) to JSON — the
    /// operational path for persisting a trained policy across restarts,
    /// complementing the paper's offline profiling bootstrap.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("QLearner serializes")
    }

    /// The scalar fields, in the order [`Self::to_json`] writes them
    /// after the table.
    fn scalars(&self) -> [f64; 5] {
        [
            self.learning_rate,
            self.discount,
            self.epsilon,
            self.max_power_w,
            self.max_load_rps,
        ]
    }

    /// `checkpoint::fingerprint(&[&self.to_json()])`, the quarantine
    /// checksum, streamed from `base`'s text without building this
    /// learner's: hashing resumes at the row holding the first cell whose
    /// bits differ from `base`, takes every unchanged cell and scalar
    /// field's bytes from the base text, and formats only the rest. The
    /// base text of a [`Self::bootstrapped_cached`] table is built once
    /// per process; any other base's is built here, which costs about
    /// what `to_json` does. `self` has `base`'s shape.
    pub(crate) fn checksum_against(&self, base: &QLearner) -> String {
        assert_eq!(
            self.table.len(),
            base.table.len(),
            "a learner and its base share a shape"
        );
        let owned;
        let text = match BOOTSTRAPPED
            .iter()
            .position(|slot| slot.get().is_some_and(|b| std::ptr::eq(b, base)))
        {
            Some(i) => BOOTSTRAPPED_TEXT[i].get_or_init(|| BaseText::new(base)),
            None => {
                owned = BaseText::new(base);
                &owned
            }
        };
        let bytes = text.json.as_bytes();
        let text_of = |v: f64| serde_json::to_string(&v).expect("a float serializes");
        let first = self
            .table
            .iter()
            .zip(&base.table)
            .position(|(v, b)| v.to_bits() != b.to_bits())
            .unwrap_or(self.table.len() - 1);
        let row = first / ACTIONS;
        let mut h = text.row_state[row];
        // Base bytes from the start of cell `copied_to` on are not hashed
        // yet.
        let mut copied_to = row * ACTIONS;
        for (i, (v, b)) in self.table.iter().zip(&base.table).enumerate().skip(first) {
            if v.to_bits() != b.to_bits() {
                h.write(&bytes[text.cell_at[copied_to] as usize..text.cell_at[i] as usize]);
                h.write(text_of(*v).as_bytes());
                h.write(if i + 1 < self.table.len() { b"," } else { b"]" });
                copied_to = i + 1;
            }
        }
        let mut at = text.cell_at[copied_to] as usize;
        for ((v, b), (start, end)) in self
            .scalars()
            .into_iter()
            .zip(base.scalars())
            .zip(text.scalar_at)
        {
            if v.to_bits() != b.to_bits() {
                h.write(&bytes[at..start]);
                h.write(text_of(v).as_bytes());
                at = end;
            }
        }
        h.write(&bytes[at..]);
        h.end_part();
        h.finish()
    }

    /// Restore a learner saved with [`Self::to_json`], rejecting any
    /// table no engine should ever run: wrong dimensions, NaN/inf
    /// cells, or out-of-range hyper-parameters / quantization maxima.
    pub fn from_json(json: &str) -> Result<Self, PolicyError> {
        let q = Self::from_json_unchecked(json)?;
        q.validate()?;
        Ok(q)
    }

    /// Parse without validation — the forensic path for inspecting
    /// quarantined (deliberately corrupt) tables; [`Self::validate`]
    /// reports what is wrong with the result.
    ///
    /// The serializer writes non-finite floats as `null` (JSON has no
    /// NaN), so `null` table cells are mapped back to NaN here — a
    /// quarantined table round-trips with its corruption intact.
    pub fn from_json_unchecked(json: &str) -> Result<Self, PolicyError> {
        let mut v: serde_json::Value =
            serde_json::from_str(json).map_err(|e| PolicyError::Parse(e.to_string()))?;
        if let serde_json::Value::Object(fields) = &mut v {
            if let Some((_, serde_json::Value::Array(cells))) =
                fields.iter_mut().find(|(k, _)| k == "table")
            {
                for c in cells.iter_mut() {
                    if matches!(c, serde_json::Value::Null) {
                        *c = serde_json::Value::Number(serde::Number::from_f64(f64::NAN));
                    }
                }
            }
        }
        serde_json::from_value(v).map_err(|e| PolicyError::Parse(e.to_string()))
    }

    /// Structural health check: table shape, cell finiteness, and
    /// hyper-parameter / quantization-reference ranges.
    pub fn validate(&self) -> Result<(), PolicyError> {
        let expected = Self::CELLS;
        if self.table.len() != expected {
            return Err(PolicyError::WrongShape {
                expected,
                got: self.table.len(),
            });
        }
        let cells = self.table.iter().filter(|v| !v.is_finite()).count();
        if cells > 0 {
            return Err(PolicyError::NonFinite { cells });
        }
        for (name, v) in [
            ("max_power_w", self.max_power_w),
            ("max_load_rps", self.max_load_rps),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(PolicyError::BadParameter(format!(
                    "{name} must be finite and positive, got {v}"
                )));
            }
        }
        for (name, v) in [
            ("learning_rate", self.learning_rate),
            ("discount", self.discount),
            ("epsilon", self.epsilon),
        ] {
            if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
                return Err(PolicyError::BadParameter(format!(
                    "{name} must be in [0, 1], got {v}"
                )));
            }
        }
        Ok(())
    }

    /// Whether any cell trips [`corrupt_value`] — the guardrail's full
    /// corruption scan.
    pub(crate) fn any_corrupt(&self, cap: f64) -> bool {
        self.table.iter().any(|&v| corrupt_value(v, cap))
    }

    /// This learner as a [`QDelta`] from `base`, a table of the same
    /// shape: the scalar fields and every cell whose bits differ.
    pub(crate) fn delta_from(&self, base: &QLearner) -> QDelta {
        QDelta {
            learning_rate: self.learning_rate,
            discount: self.discount,
            epsilon: self.epsilon,
            max_power_w: self.max_power_w,
            max_load_rps: self.max_load_rps,
            cells: self
                .table
                .iter()
                .zip(&base.table)
                .enumerate()
                .filter(|(_, (v, b))| v.to_bits() != b.to_bits())
                .map(|(i, (v, _))| (i as u32, v.to_bits()))
                .collect(),
        }
    }

    /// Restore a [`Self::delta_from`] capture onto `self`, which must
    /// hold the capture's base: afterwards `self` is bit-identical to the
    /// captured learner.
    pub(crate) fn apply_delta(&mut self, delta: &QDelta) {
        self.learning_rate = delta.learning_rate;
        self.discount = delta.discount;
        self.epsilon = delta.epsilon;
        self.max_power_w = delta.max_power_w;
        self.max_load_rps = delta.max_load_rps;
        // In range: a delta is built from a full table or validated when
        // parsed, and every table but a forensic unchecked load is full.
        for &(i, bits) in &delta.cells {
            self.table[i as usize] = f64::from_bits(bits);
        }
    }

    /// Summary statistics over the table (finite-value min/max/mean and
    /// the non-finite cell count).
    pub fn table_stats(&self) -> TableStats {
        let mut stats = TableStats {
            cells: self.table.len(),
            non_finite: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            mean: 0.0,
            max_abs: 0.0,
        };
        let mut finite = 0_usize;
        let mut sum = 0.0;
        for &v in &self.table {
            if v.is_finite() {
                finite += 1;
                sum += v;
                stats.min = stats.min.min(v);
                stats.max = stats.max.max(v);
                stats.max_abs = stats.max_abs.max(v.abs());
            } else {
                stats.non_finite += 1;
            }
        }
        if finite > 0 {
            stats.mean = sum / finite as f64;
        } else {
            stats.min = 0.0;
            stats.max = 0.0;
        }
        stats
    }

    /// Deterministically corrupt the table — the chaos `QTablePoison`
    /// fault. Every 13th cell becomes NaN and every other cell is
    /// overwritten with `magnitude`, exhibiting both corruption
    /// signatures (non-finite cells and value explosion) at once.
    pub fn poison(&mut self, magnitude: f64) {
        for (i, v) in self.table.iter_mut().enumerate() {
            *v = if i % 13 == 0 { f64::NAN } else { magnitude };
        }
    }

    /// The Bellman update of Algorithm 1 line 15. Returns the value it
    /// wrote, the only cell that changed.
    pub fn update(&mut self, s: QState, a: ServerSetting, r: f64, next: QState) -> f64 {
        let best_next = self
            .row(next)
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let cell = self.cell(s, a);
        let old = self.table[cell];
        let new = old + self.learning_rate * (r + self.discount * best_next - old);
        self.table[cell] = new;
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_workload::apps::Application;

    #[test]
    fn quantize_levels() {
        assert_eq!(quantize(0.0), 0);
        assert_eq!(quantize(0.049), 1); // rounds to nearest 5 %
        assert_eq!(quantize(0.5), 10);
        assert_eq!(quantize(1.0), 20);
        assert_eq!(quantize(2.0), 20);
        assert_eq!(quantize(-1.0), 0);
    }

    #[test]
    fn reward_follows_algorithm1_branches() {
        // Power satisfied + QoS satisfied: r = Rpower + Rqos + 1.
        let r = reward(&RewardInputs {
            power_supply_w: 150.0,
            power_current_w: 100.0,
            qos_target_s: 0.5,
            qos_current_s: 0.25,
            offered_slo_fraction: 1.0,
            slo_percentile: 0.99,
        });
        assert!((r - (1.5 + 2.0 + 1.0)).abs() < 1e-9);

        // Power satisfied + QoS violated: r = Rpower − penalty + 1, where
        // the penalty grows with the violation (see the typo note in
        // `reward`). Serving half of a p99 target is a ~2× violation.
        let r = reward(&RewardInputs {
            power_supply_w: 150.0,
            power_current_w: 100.0,
            qos_target_s: 0.5,
            qos_current_s: 1.0,
            offered_slo_fraction: 0.5,
            slo_percentile: 0.99,
        });
        let penalty = 0.99 / 0.5;
        assert!((r - (1.5 - penalty + 1.0)).abs() < 1e-9);
        // A worse violation is penalized harder.
        let worse = reward(&RewardInputs {
            offered_slo_fraction: 0.25,
            ..RewardInputs {
                power_supply_w: 150.0,
                power_current_w: 100.0,
                qos_target_s: 0.5,
                qos_current_s: 1.0,
                offered_slo_fraction: 0.5,
                slo_percentile: 0.99,
            }
        });
        assert!(worse < r);

        // Power not satisfied: r = −Rpower − 1 (negative).
        let r = reward(&RewardInputs {
            power_supply_w: 80.0,
            power_current_w: 155.0,
            qos_target_s: 0.5,
            qos_current_s: 0.2,
            offered_slo_fraction: 1.0,
            slo_percentile: 0.99,
        });
        assert!(r < 0.0);
        assert!((r - (-(80.0 / 155.0) - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn cached_bootstrap_is_bit_identical_to_fresh() {
        let app = Application::SpecJbb;
        let cached = QLearner::bootstrapped_cached(app);
        let profiles = ProfileTable::cached(app);
        let max = profiles.get(ServerSetting::max_sprint());
        let mut fresh = QLearner::new(max.full_load_power_w, max.slo_capacity);
        fresh.bootstrap(profiles);
        assert_eq!(cached.table, fresh.table, "cached bootstrap diverged");
        assert_eq!(cached.max_power_w, fresh.max_power_w);
        assert_eq!(cached.max_load_rps, fresh.max_load_rps);
        // And the cache really is a cache.
        assert!(std::ptr::eq(cached, QLearner::bootstrapped_cached(app)));
    }

    #[test]
    fn reward_handles_degenerate_inputs() {
        // Zero demand counts as satisfied supply.
        let r = reward(&RewardInputs {
            power_supply_w: 100.0,
            power_current_w: 0.0,
            qos_target_s: 0.5,
            qos_current_s: 0.0,
            offered_slo_fraction: 1.0,
            slo_percentile: 0.99,
        });
        assert!(r > 0.0);
    }

    fn learner() -> (QLearner, ProfileTable) {
        let app = Application::SpecJbb.profile();
        let profiles = ProfileTable::build(&app);
        let max_p = profiles.get(ServerSetting::max_sprint()).full_load_power_w;
        let max_l = profiles.get(ServerSetting::max_sprint()).slo_capacity;
        (QLearner::new(max_p, max_l), profiles)
    }

    #[test]
    fn bootstrap_prefers_sprinting_under_burst_with_ample_power() {
        let (mut q, profiles) = learner();
        q.bootstrap(&profiles);
        let s = q.state(
            155.0,
            1e9_f64.min(profiles.get(ServerSetting::max_sprint()).slo_capacity),
        );
        let mut rng = SimRng::seed_from_u64(1);
        let all = ServerSetting::all();
        let choice = q.best_action(s, &all, &mut rng);
        // With full supply and a saturating burst, the bootstrapped policy
        // must sprint hard (more cores *and* higher frequency than Normal).
        assert!(choice.cores > 6 || choice.freq_idx > 0, "chose {choice}");
        let perf = profiles.expected_perf(choice, 1e9);
        let normal_perf = profiles.expected_perf(ServerSetting::normal(), 1e9);
        assert!(
            perf > 2.0 * normal_perf,
            "perf {perf} vs normal {normal_perf}"
        );
    }

    #[test]
    fn bootstrap_prefers_frugality_at_light_load() {
        let (mut q, profiles) = learner();
        q.bootstrap(&profiles);
        // Light load, ample power: the reward's Rpower term favours low
        // draw, so the policy shouldn't burn max sprint.
        let light = 0.1 * profiles.get(ServerSetting::max_sprint()).slo_capacity;
        let s = q.state(155.0, light);
        let mut rng = SimRng::seed_from_u64(2);
        let choice = q.best_action(s, &ServerSetting::all(), &mut rng);
        let p_choice = profiles.planned_power_w(choice, light);
        let p_max = profiles.planned_power_w(ServerSetting::max_sprint(), light);
        assert!(p_choice <= p_max, "{p_choice} vs {p_max}");
        assert!(
            profiles.expected_perf(choice, light) >= light * 0.999,
            "still must serve the load"
        );
    }

    #[test]
    fn update_moves_value_towards_target() {
        let (mut q, _) = learner();
        let s = QState {
            power_level: 10,
            load_level: 10,
        };
        let next = QState {
            power_level: 10,
            load_level: 10,
        };
        let a = ServerSetting::max_sprint();
        assert_eq!(q.value(s, a), 0.0);
        q.update(s, a, 10.0, next);
        // α = 0.7, zero table: new value = 0.7 × 10.
        assert!((q.value(s, a) - 7.0).abs() < 1e-9);
        // A second update factors in the discounted max of the next state.
        q.update(s, a, 10.0, next);
        assert!(q.value(s, a) > 7.0);
    }

    #[test]
    fn empty_feasible_set_falls_back_to_normal() {
        let (q, _) = learner();
        let mut rng = SimRng::seed_from_u64(3);
        let s = QState {
            power_level: 0,
            load_level: 20,
        };
        assert_eq!(q.best_action(s, &[], &mut rng), ServerSetting::normal());
    }

    #[test]
    fn epsilon_explores() {
        let (mut q, _) = learner();
        q.epsilon = 1.0;
        let mut rng = SimRng::seed_from_u64(4);
        let s = QState {
            power_level: 5,
            load_level: 5,
        };
        let picks: std::collections::HashSet<ServerSetting> = (0..100)
            .map(|_| q.best_action(s, &ServerSetting::all(), &mut rng))
            .collect();
        assert!(
            picks.len() > 10,
            "exploration visited {} actions",
            picks.len()
        );
    }

    #[test]
    fn json_roundtrip_preserves_learned_policy() {
        let (mut q, profiles) = learner();
        q.bootstrap(&profiles);
        let s = QState {
            power_level: 12,
            load_level: 18,
        };
        q.update(s, ServerSetting::new(9, 5), 42.0, s);
        let restored = QLearner::from_json(&q.to_json()).expect("roundtrip");
        let mut rng_a = SimRng::seed_from_u64(6);
        let mut rng_b = SimRng::seed_from_u64(6);
        let all = ServerSetting::all();
        for pl in (0..21).step_by(4) {
            for ll in (0..21).step_by(4) {
                let st = QState {
                    power_level: pl,
                    load_level: ll,
                };
                assert_eq!(
                    q.best_action(st, &all, &mut rng_a),
                    restored.best_action(st, &all, &mut rng_b)
                );
            }
        }
        assert_eq!(
            restored.value(s, ServerSetting::new(9, 5)),
            q.value(s, ServerSetting::new(9, 5))
        );
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(QLearner::from_json("{not json").is_err());
    }

    #[test]
    fn from_json_rejects_nan_cells() {
        let (mut q, profiles) = learner();
        q.bootstrap(&profiles);
        q.poison(1.0);
        let err = QLearner::from_json(&q.to_json()).expect_err("NaN table must be rejected");
        assert!(
            matches!(err, PolicyError::NonFinite { cells } if cells > 0),
            "{err}"
        );
    }

    /// Overwrite one top-level field of a policy JSON object.
    fn set_field(json: &str, key: &str, val: serde_json::Value) -> String {
        let mut v: serde_json::Value = serde_json::from_str(json).unwrap();
        let serde_json::Value::Object(fields) = &mut v else {
            panic!("policy JSON is an object");
        };
        let slot = fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("field {key} missing"));
        slot.1 = val;
        serde_json::to_string(&v).unwrap()
    }

    #[test]
    fn from_json_rejects_wrong_shape_and_bad_references() {
        let (q, _) = learner();
        let json = q.to_json();

        // Truncate the table: drop one cell.
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        if let serde_json::Value::Object(fields) = &mut v {
            if let Some((_, serde_json::Value::Array(cells))) =
                fields.iter_mut().find(|(k, _)| k == "table")
            {
                cells.pop();
            }
        }
        let err = QLearner::from_json(&serde_json::to_string(&v).unwrap())
            .expect_err("short table must be rejected");
        assert!(matches!(err, PolicyError::WrongShape { .. }), "{err}");

        // Non-positive quantization reference.
        let bad = set_field(
            &json,
            "max_power_w",
            serde_json::Value::Number(serde::Number::from_f64(-1.0)),
        );
        let err = QLearner::from_json(&bad).expect_err("bad max_power_w");
        assert!(matches!(err, PolicyError::BadParameter(_)), "{err}");

        // Out-of-range hyper-parameter.
        let bad = set_field(
            &json,
            "learning_rate",
            serde_json::Value::Number(serde::Number::from_f64(3.5)),
        );
        let err = QLearner::from_json(&bad).expect_err("bad learning_rate");
        assert!(matches!(err, PolicyError::BadParameter(_)), "{err}");
    }

    #[test]
    fn unchecked_parse_loads_corrupt_tables_for_forensics() {
        let (mut q, _) = learner();
        q.poison(1e9);
        let json = q.to_json();
        assert!(QLearner::from_json(&json).is_err());
        let loaded = QLearner::from_json_unchecked(&json).expect("forensic load");
        let stats = loaded.table_stats();
        assert!(stats.non_finite > 0);
        assert_eq!(stats.max_abs, 1e9);
        assert!(loaded.validate().is_err());
    }

    #[test]
    fn table_stats_summarize_the_table() {
        let (mut q, profiles) = learner();
        q.bootstrap(&profiles);
        let stats = q.table_stats();
        assert_eq!(stats.cells, QState::COUNT * ServerSetting::all().len());
        assert_eq!(stats.non_finite, 0);
        assert!(stats.min <= stats.mean && stats.mean <= stats.max);
        assert!(stats.max_abs >= stats.max.abs());
    }

    #[test]
    fn poison_flips_both_corruption_signatures() {
        let (mut q, _) = learner();
        q.poison(1e8);
        let stats = q.table_stats();
        assert!(stats.non_finite > 0, "poison must plant NaN cells");
        assert_eq!(stats.max_abs, 1e8, "poison must plant exploded values");
        // A poisoned table still yields *some* feasible action — the
        // engine's floor never depends on table health.
        let mut rng = SimRng::seed_from_u64(9);
        let s = QState {
            power_level: 10,
            load_level: 10,
        };
        let all = ServerSetting::all();
        let pick = q.best_action(s, &all, &mut rng);
        assert!(all.contains(&pick));
    }

    #[test]
    fn qstate_range_check() {
        assert!(QState {
            power_level: 20,
            load_level: 0
        }
        .in_range());
        assert!(!QState {
            power_level: 21,
            load_level: 0
        }
        .in_range());
        assert!(!QState {
            power_level: 0,
            load_level: 99
        }
        .in_range());
    }

    /// `delta` through its JSON encoding, applied onto a copy of `base`.
    fn restored(base: &QLearner, delta: &QDelta) -> QLearner {
        let json = serde_json::to_string(delta).unwrap();
        let parsed: QDelta = serde_json::from_str(&json).expect("a built delta parses");
        assert_eq!(&parsed, delta);
        let mut q = base.clone();
        q.apply_delta(&parsed);
        q
    }

    fn bits(q: &QLearner) -> Vec<u64> {
        q.table.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn delta_round_trips_nan_infinities_and_signed_zero() {
        let (base, _) = learner(); // an all-zero table
        let mut q = base.clone();
        q.table[0] = f64::NAN;
        q.table[1] = -f64::NAN;
        q.table[2] = f64::from_bits(0x7ff0_0000_0000_0001); // signalling NaN
        q.table[3] = f64::INFINITY;
        q.table[4] = f64::NEG_INFINITY;
        q.table[5] = -0.0;
        q.table[QLearner::CELLS - 1] = 1e300;
        q.epsilon = 0.25;
        let delta = q.delta_from(&base);
        // −0.0 differs from the base's 0.0 in its bits; untouched cells
        // are left out.
        assert_eq!(delta.cells.len(), 7);
        let back = restored(&base, &delta);
        assert_eq!(bits(&back), bits(&q));
        assert_eq!(back.epsilon, 0.25);
        assert_eq!(back.table[5].to_bits(), (-0.0_f64).to_bits());
    }

    #[test]
    fn delta_of_a_table_where_every_cell_changed_round_trips() {
        let (mut base, profiles) = learner();
        base.bootstrap(&profiles);
        let mut q = base.clone();
        q.poison(1e9);
        for v in &mut q.table {
            *v = f64::from_bits(v.to_bits() ^ 1);
        }
        let delta = q.delta_from(&base);
        assert_eq!(delta.cells.len(), QLearner::CELLS);
        assert_eq!(bits(&restored(&base, &delta)), bits(&q));
        // And an unchanged learner is an empty delta.
        assert_eq!(base.delta_from(&base).cells.len(), 0);
    }

    #[test]
    fn deltas_with_bad_indices_are_refused() {
        let (q, _) = learner();
        let with_cells = |cells: Vec<(u32, u64)>| QDelta {
            cells,
            ..q.delta_from(&q)
        };
        let last = QLearner::CELLS as u32 - 1;
        assert_eq!(with_cells(vec![(0, 1), (last, 1)]).validate(), Ok(()));
        let bad = [
            (
                vec![(last + 1, 1)],
                DeltaError::IndexOutOfRange { index: last + 1 },
            ),
            (
                vec![(0, 1), (u32::MAX, 1)],
                DeltaError::IndexOutOfRange { index: u32::MAX },
            ),
            (
                vec![(5, 1), (5, 2)],
                DeltaError::NotIncreasing { after: 5, index: 5 },
            ),
            (
                vec![(9, 1), (3, 2)],
                DeltaError::NotIncreasing { after: 9, index: 3 },
            ),
        ];
        for (cells, want) in bad {
            let delta = with_cells(cells);
            assert_eq!(delta.validate(), Err(want.clone()));
            let json = serde_json::to_string(&delta).unwrap();
            let err = serde_json::from_str::<QDelta>(&json).expect_err("bad delta parsed");
            assert_eq!(err.to_string(), want.to_string());
        }
    }

    #[test]
    fn corruption_scan_matches_the_table_stats_verdict() {
        let (mut base, profiles) = learner();
        base.bootstrap(&profiles);
        let stats_verdict = |q: &QLearner, cap: f64| {
            q.table_stats().non_finite > 0 || q.table_stats().max_abs > cap
        };
        let mut poisoned = base.clone();
        poisoned.poison(1e8);
        let mut one_inf = base.clone();
        one_inf.table[77] = f64::NEG_INFINITY;
        let mut one_big = base.clone();
        one_big.table[78] = -2e6;
        for q in [&base, &poisoned, &one_inf, &one_big] {
            for cap in [1e6, 1e9, 0.5, -1.0, f64::NAN, f64::INFINITY] {
                assert_eq!(q.any_corrupt(cap), stats_verdict(q, cap), "cap {cap}");
            }
        }
    }

    /// Every learner's streamed checksum against `base` equals the
    /// fingerprint of its full JSON.
    fn assert_checksums_stream(base: &QLearner, learners: &[(String, QLearner)]) {
        for (case, q) in learners {
            assert_eq!(
                q.checksum_against(base),
                crate::checkpoint::fingerprint(&[&q.to_json()]),
                "{case}"
            );
        }
    }

    /// Learners that differ from `base` in the ways a quarantine can meet:
    /// no cell, an edge cell, every cell, seeded subsets holding every
    /// kind of float the writer special-cases, and each scalar field
    /// alone.
    fn checksum_cases(base: &QLearner, seed: u64) -> Vec<(String, QLearner)> {
        let last = QLearner::CELLS - 1;
        let mut cases = vec![("unchanged".to_string(), base.clone())];
        for (name, cell) in [("first cell", 0), ("last cell", last)] {
            let mut q = base.clone();
            q.table[cell] += 1.5;
            cases.push((name.to_string(), q));
        }
        let mut every = base.clone();
        every.poison(1e9);
        cases.push(("every cell".to_string(), every));
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 3.0,
            -5e-324,
            1e300,
            -1e300,
            3.0,
            0.1,
        ];
        let mut rng = SimRng::seed_from_u64(seed);
        for round in 0..24 {
            let mut q = base.clone();
            // Dense subsets (up to 2,000 cells) and sparse ones (up to 12).
            let changes = 1 + rng.index(if round % 3 == 0 { 2_000 } else { 12 });
            for _ in 0..changes {
                let cell = rng.index(QLearner::CELLS);
                q.table[cell] = if rng.chance(0.5) {
                    specials[rng.index(specials.len())]
                } else {
                    rng.uniform_range(-1e6, 1e6)
                };
            }
            cases.push((format!("seeded subset {round}"), q));
        }
        for field in 0..5 {
            let mut q = base.clone();
            let slot = match field {
                0 => &mut q.learning_rate,
                1 => &mut q.discount,
                2 => &mut q.epsilon,
                3 => &mut q.max_power_w,
                _ => &mut q.max_load_rps,
            };
            *slot = if field == 2 {
                f64::NAN
            } else {
                *slot * 0.5 + 1.0
            };
            cases.push((format!("scalar field {field}"), q));
        }
        cases
    }

    #[test]
    fn streamed_checksum_equals_the_full_json_fingerprint() {
        for app in [Application::SpecJbb, Application::Memcached] {
            let base = QLearner::bootstrapped_cached(app);
            assert_checksums_stream(base, &checksum_cases(base, 11));
            // The second pass reads the process-wide base text.
            assert_checksums_stream(base, &checksum_cases(base, 12));
        }
    }

    #[test]
    fn streamed_checksum_holds_against_an_owned_warm_policy_base() {
        // A trained policy round-tripped through its JSON, as a
        // `warm_policy_json` run loads it.
        let mut trained = QLearner::bootstrapped_cached(Application::SpecJbb).clone();
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..400 {
            let s = QState {
                power_level: rng.index(LEVELS),
                load_level: rng.index(LEVELS),
            };
            let a = ServerSetting::from_action_index(rng.index(ACTIONS));
            trained.update(s, a, rng.uniform_range(-3.0, 6.0), s);
        }
        let warm = QLearner::from_json(&trained.to_json()).expect("a trained policy loads");
        assert_checksums_stream(&warm, &checksum_cases(&warm, 13));
    }

    #[test]
    fn update_returns_the_one_cell_it_wrote() {
        let (mut q, profiles) = learner();
        q.bootstrap(&profiles);
        let before = q.clone();
        let s = QState {
            power_level: 3,
            load_level: 17,
        };
        let a = ServerSetting::new(8, 4);
        let written = q.update(s, a, 2.5, s);
        assert_eq!(written.to_bits(), q.value(s, a).to_bits());
        assert_eq!(q.delta_from(&before).cells.len(), 1);
    }

    #[test]
    fn learning_overrides_bootstrap() {
        let (mut q, profiles) = learner();
        q.bootstrap(&profiles);
        let s = QState {
            power_level: 20,
            load_level: 20,
        };
        let mut rng = SimRng::seed_from_u64(5);
        let initial = q.best_action(s, &ServerSetting::all(), &mut rng);
        // Hammer a different action with huge rewards.
        let target = ServerSetting::new(7, 3);
        for _ in 0..50 {
            q.update(s, target, 100.0, s);
        }
        let learned = q.best_action(s, &ServerSetting::all(), &mut rng);
        assert_eq!(learned, target);
        assert_ne!(learned, initial);
    }
}
