//! Crash-safe checkpointing: a write-ahead journal for sweep results and
//! serializable mid-run engine snapshots.
//!
//! Two durability mechanisms, for the two shapes of long work:
//!
//! * **Journal** — a JSON-lines write-ahead log of completed
//!   [`SweepResult`]s. The first line is a [`JournalHeader`] carrying the
//!   master seed, a digest of the point list, the full point list itself
//!   (so `greensprint resume FILE` needs no flags re-specified), and a
//!   code/config fingerprint. Every append is fsync'd before the executor
//!   moves on, so a SIGKILL loses at most the record being written — and
//!   reload tolerates exactly that: an unparseable *final* line is treated
//!   as a truncated tail and dropped; garbage anywhere earlier is
//!   corruption and a hard error.
//! * **Snapshot** — the full serializable state of a running experiment
//!   ([`ExperimentState`]: the strategy run's [`LoopState`] — predictor
//!   EWMAs, Q-table, battery state, fault cursor, RNG stream position,
//!   meters, and the per-epoch history where a reader needs it — plus its
//!   Normal floor's), wrapped with enough context ([`EngineSnapshot`]) to
//!   resume the run and finish with output byte-identical to the
//!   uninterrupted run. The Q-table is stored as a [`QDelta`] from the
//!   table the run started from, which resume rebuilds from the embedded
//!   configuration.
//!
//! Multi-rack runs (`datacenter`, `serve`) checkpoint one level up: a
//! [`crate::broker::SiteSnapshot`] holds the broker's state plus one
//! [`ExperimentState`] per rack, under its own schema tag, [`SITE_SCHEMA`].
//!
//! Snapshots carry a schema tag and embed a [`fingerprint`] of the crate
//! version, the schema and the originating configuration; resume refuses
//! a snapshot of another schema or whose fingerprint no longer matches,
//! instead of silently continuing a run whose physics changed underneath
//! it.

use crate::campaign::CampaignConfig;
use crate::engine::{EngineConfig, EpochRecord};
use crate::monitor::Monitor;
use crate::pmk::ActuationWatchdog;
use crate::predictor::{ClearSkyIndexedPredictor, Predictor};
use crate::qlearning::{QDelta, QState};
use crate::sweep::{SweepPoint, SweepResult};
use gs_cluster::ServerSetting;
use gs_power::battery::Battery;
use gs_power::meter::PowerMeter;
use gs_power::pss::SafeSupplyEstimator;
use gs_sim::SimRng;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};

/// Bump when the serialized shape of [`EngineSnapshot`] / [`LoopState`] /
/// [`JournalHeader`] changes incompatibly; old checkpoints then fail the
/// schema or fingerprint check instead of deserializing into nonsense.
/// (`gs-ckpt-1` stored the full Q-table; `gs-ckpt-2` stored a [`QDelta`]
/// and one run per snapshot, tagged with its phase; `gs-ckpt-3` stores
/// both runs of the experiment and tags the snapshot itself; `gs-ckpt-4`
/// stores a Monitor only for a run that keeps history.)
pub const CHECKPOINT_SCHEMA: &str = "gs-ckpt-4";

/// As [`CHECKPOINT_SCHEMA`], for site snapshots
/// ([`crate::broker::SiteSnapshot`]: broker state + per-rack experiment
/// states, written by both `datacenter` and `serve`) — bumped when
/// [`crate::broker::SiteState`] or [`ExperimentState`] changes
/// incompatibly.
pub const SITE_SCHEMA: &str = "gs-site-4";

/// FNV-1a over the given parts, rendered as a compact hex tag.
pub fn fingerprint(parts: &[&str]) -> String {
    let mut h = Fnv::new();
    for part in parts {
        h.write(part.as_bytes());
        h.end_part();
    }
    h.finish()
}

/// The incremental FNV-1a hasher behind [`fingerprint`]: feeding a
/// part's bytes in any number of [`Fnv::write`] calls and then
/// [`Fnv::end_part`] gives the same tag as passing the part whole. A
/// copy is a saved position in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fnv(u64);

impl Fnv {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The hasher before any byte.
    pub(crate) const fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Hash `bytes`.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// End a part, so the parts ("ab","c") and ("a","bc") differ.
    pub(crate) fn end_part(&mut self) {
        self.write(&[0xff]);
    }

    /// The tag, as [`fingerprint`] renders it.
    pub(crate) fn finish(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The compatibility fingerprint a checkpoint is stamped with: schema tag,
/// crate version, and the JSON of the configuration that produced it. A
/// resume across a code or config change fails fast.
pub fn config_fingerprint(cfg_json: &str) -> String {
    fingerprint(&[CHECKPOINT_SCHEMA, env!("CARGO_PKG_VERSION"), cfg_json])
}

/// Digest of a sweep's point list, stored in the journal header so resume
/// can verify it is continuing the same grid.
pub fn points_digest(points: &[SweepPoint]) -> String {
    let json = serde_json::to_string(&points).expect("sweep points serialize");
    fingerprint(&[&json])
}

// ---------------------------------------------------------------------------
// Engine snapshots
// ---------------------------------------------------------------------------

/// Every piece of state the scheduling-epoch loop carries across epochs.
/// `engine::EpochLoop` reads and writes these fields in place, so a
/// snapshot is a clone of the loop's state taken at an epoch boundary, and
/// resuming from it continues the run exactly — same RNG stream, same
/// learner, same batteries, same accumulated records — so the final
/// outcome is byte-identical to the uninterrupted run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoopState {
    /// The next epoch index to execute.
    pub next_epoch: u64,
    /// RNG stream position.
    pub rng: SimRng,
    /// Battery packs (charge state and wear).
    pub batteries: Vec<Option<Battery>>,
    /// Per-battery grid-recharge latches.
    pub grid_recharging: Vec<bool>,
    /// Grid energy already spent on in-burst recharge (Wh).
    pub in_burst_grid_recharge_wh: f64,
    /// The paper's EWMA predictor state.
    pub predictor: Predictor,
    /// The clear-sky-indexed predictor state.
    pub cs_predictor: ClearSkyIndexedPredictor,
    /// Hybrid's learner, if the strategy carries one, as its delta from
    /// the table the run started from: the profile bootstrap, or the
    /// configuration's `warm_policy_json`. Both are fixed by the
    /// configuration the snapshot's fingerprint covers. A running loop
    /// keeps the learner itself and leaves this `None`; the snapshot
    /// fills it in.
    pub learner: Option<QDelta>,
    /// Hybrid's pending (state, action) awaiting its Bellman update.
    pub pending_q: Option<(QState, ServerSetting)>,
    /// Last epoch's applied settings (hysteresis and actuation faults).
    pub prev_settings: Vec<ServerSetting>,
    /// Knob transitions so far.
    pub setting_transitions: usize,
    /// Which battery-fade fault events have already applied.
    pub fade_done: Vec<bool>,
    /// Commanded-vs-observed actuation watchdog state.
    pub watchdog: ActuationWatchdog,
    /// Safe-mode supply estimator state.
    pub safe_supply: SafeSupplyEstimator,
    /// The telemetry one-epoch delay line.
    pub last_raw_obs_w: Option<f64>,
    /// Epochs with an active fault so far.
    pub fault_epochs: usize,
    /// Epochs planned in safe mode so far.
    pub safe_mode_epochs: usize,
    /// Epochs with a watchdog clamp so far.
    pub watchdog_clamped_epochs: usize,
    /// Energy meters.
    pub meter: PowerMeter,
    /// Monitor observation streams, present exactly when the run keeps
    /// its per-epoch history.
    pub monitor: Option<Monitor>,
    /// Per-epoch records so far (empty for a run that keeps no history).
    pub epochs: Vec<EpochRecord>,
    /// Renewable energy produced so far (Wh): the physical supply times
    /// the epoch length, summed epoch by epoch from `-0.0`, as a sum over
    /// the epoch records would.
    pub re_produced_wh: f64,
    /// Goodput accumulator.
    pub goodput_sum: f64,
    /// Offered-load accumulator.
    pub offered_sum: f64,
    /// Cumulative believed renewable supply (planner mean).
    pub re_sum_w: f64,
    /// Thermal package states.
    pub thermals: Vec<gs_thermal::ThermalPackage>,
    /// Epochs with a thermal throttle so far.
    pub thermal_throttle_epochs: usize,
    /// Hottest temperature seen so far (°C).
    pub peak_temp_c: f64,
    /// Invariant-auditor violations so far.
    pub audit_violations: Vec<String>,
    /// Grid energy already audited (Wh).
    pub audited_grid_wh: f64,
    /// Curtailed energy already audited (Wh).
    pub audited_curtailed_wh: f64,
    /// Guardrail ladder/probation state, when the guardrail is enabled.
    pub guardrail: Option<crate::guardrail::GuardrailState>,
    /// Per-server remaining crash-outage epochs (fleet faults).
    pub down_left: Vec<u32>,
    /// Per-server consecutive-healthy-epoch streaks (rejoin hysteresis).
    pub health_streak: Vec<u32>,
    /// Server-epochs spent dead so far.
    pub dead_server_epochs: usize,
    /// Server-epochs spent straggling so far.
    pub straggler_epochs: usize,
    /// Smallest live-fleet size seen so far.
    pub min_live_servers: usize,
    /// Human-readable fleet crash/flap/rejoin log.
    pub fleet_events: Vec<String>,
}

/// The state of one experiment at an epoch boundary: the strategy run
/// and, for any strategy but Normal, the Normal floor it is judged
/// against, both about to run the same epoch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentState {
    /// The strategy-under-test run.
    pub main: LoopState,
    /// The Normal floor (`None` for a Normal strategy, which is its own).
    pub baseline: Option<LoopState>,
}

/// What kind of experiment the snapshot belongs to, with its full
/// configuration embedded — `greensprint resume FILE` needs nothing else.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SnapshotScope {
    /// A single controlled burst.
    Burst(EngineConfig),
    /// A multi-day campaign.
    Campaign(CampaignConfig),
}

/// A resumable mid-run checkpoint of a burst or campaign experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Always [`CHECKPOINT_SCHEMA`].
    pub schema: String,
    /// [`config_fingerprint`] of the embedded configuration at capture
    /// time; resume recomputes and compares.
    pub fingerprint: String,
    /// The experiment this snapshot belongs to.
    pub scope: SnapshotScope,
    /// Both runs of the experiment at the captured boundary.
    pub state: ExperimentState,
}

/// Why a file does not load as an [`EngineSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file is not an engine snapshot at all.
    Foreign(String),
    /// The file is an engine snapshot this build refuses: another schema,
    /// or a field that fails its check.
    Refused(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Foreign(m) | SnapshotError::Refused(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl EngineSnapshot {
    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serializes")
    }

    /// Parse a snapshot, checking its schema tag first. A file is an
    /// engine snapshot when it carries a `gs-ckpt-*` schema tag, or has
    /// the untagged shape of an older one (`scope` and `state`); any
    /// other file is [`SnapshotError::Foreign`].
    pub fn from_json(json: &str) -> Result<Self, SnapshotError> {
        let value: serde_json::Value =
            serde_json::from_str(json).map_err(|e| SnapshotError::Foreign(e.to_string()))?;
        let refused = match value.get("schema").and_then(|s| s.as_str()) {
            Some(CHECKPOINT_SCHEMA) => None,
            Some(schema) if schema.starts_with("gs-ckpt-") => Some(format!(
                "snapshot schema {schema:?} is not {CHECKPOINT_SCHEMA:?}; this build cannot \
                 resume it"
            )),
            None if value.get("scope").is_some() && value.get("state").is_some() => Some(format!(
                "snapshot has no schema tag: it was written in \"gs-ckpt-2\" or earlier, and \
                 this build resumes only {CHECKPOINT_SCHEMA:?}"
            )),
            _ => {
                return Err(SnapshotError::Foreign(format!(
                    "no {CHECKPOINT_SCHEMA:?} schema tag"
                )))
            }
        };
        if let Some(m) = refused {
            return Err(SnapshotError::Refused(m));
        }
        serde_json::from_value(value).map_err(|e| {
            SnapshotError::Refused(format!("malformed {CHECKPOINT_SCHEMA:?} snapshot: {e}"))
        })
    }

    /// The fingerprint the embedded configuration produces *now* — equal
    /// to `self.fingerprint` iff code and config still match.
    pub fn expected_fingerprint(&self) -> String {
        let cfg_json = match &self.scope {
            SnapshotScope::Burst(cfg) => serde_json::to_string(cfg),
            SnapshotScope::Campaign(cfg) => serde_json::to_string(cfg),
        }
        .expect("config serializes");
        config_fingerprint(&cfg_json)
    }
}

// ---------------------------------------------------------------------------
// The write-ahead sweep journal
// ---------------------------------------------------------------------------

/// First line of a journal file: what sweep this is.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JournalHeader {
    /// File-format tag.
    pub magic: String,
    /// Compatibility fingerprint ([`config_fingerprint`] of the serialized
    /// point list).
    pub fingerprint: String,
    /// `"sweep"` or `"chaos"` — which CLI mode wrote it.
    pub mode: String,
    /// The sweep's master seed (per-task seeds derive from it).
    pub master_seed: u64,
    /// [`points_digest`] of `points`.
    pub points_digest: String,
    /// The full point list, embedded so resume is self-contained.
    pub points: Vec<SweepPoint>,
}

/// The magic tag identifying a journal file.
pub const JOURNAL_MAGIC: &str = "greensprint-journal";

impl JournalHeader {
    /// Build a header for a sweep about to run.
    pub fn new(mode: &str, master_seed: u64, points: Vec<SweepPoint>) -> Self {
        let points_json = serde_json::to_string(&points).expect("sweep points serialize");
        JournalHeader {
            magic: JOURNAL_MAGIC.to_string(),
            fingerprint: config_fingerprint(&points_json),
            mode: mode.to_string(),
            master_seed,
            points_digest: points_digest(&points),
            points,
        }
    }
}

/// Why a journal could not be loaded.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem trouble.
    Io(std::io::Error),
    /// The file is not a journal (bad or missing header).
    NotAJournal(String),
    /// A record *before* the final line failed to parse — truncation can
    /// only eat the tail, so this is corruption, not a crash artifact.
    Corrupt {
        /// 1-based line number of the bad record.
        line: usize,
        /// Parser message.
        message: String,
    },
    /// The journal belongs to a different sweep than the caller expected.
    Mismatch(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::NotAJournal(m) => write!(f, "not a greensprint journal: {m}"),
            JournalError::Corrupt { line, message } => {
                write!(f, "journal corrupt at line {line}: {message}")
            }
            JournalError::Mismatch(m) => write!(f, "journal mismatch: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// A journal parsed back from disk.
#[derive(Debug)]
pub struct LoadedJournal {
    /// The header line.
    pub header: JournalHeader,
    /// Every intact result record, in file (completion) order.
    pub results: Vec<SweepResult>,
    /// Byte length of the valid prefix (header + intact records).
    pub valid_len: u64,
    /// True when a truncated final line was dropped.
    pub dropped_tail: bool,
}

impl LoadedJournal {
    /// Indices of the points that already have a journaled result.
    pub fn completed_indices(&self) -> std::collections::HashSet<usize> {
        self.results.iter().map(|r| r.index).collect()
    }
}

/// An open, append-only journal. Every append is flushed and fsync'd
/// before returning: once `append` comes back, that record survives a
/// SIGKILL.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Create a fresh journal at `path` (truncating anything there),
    /// writing and fsyncing the header line.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Journal, JournalError> {
        let mut file = File::create(path)?;
        let line = serde_json::to_string(header).expect("journal header serializes");
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_data()?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Parse the journal at `path` without modifying it.
    pub fn load(path: &Path) -> Result<LoadedJournal, JournalError> {
        let mut raw = Vec::new();
        File::open(path)?.read_to_end(&mut raw)?;
        let text = String::from_utf8_lossy(&raw);

        let mut results = Vec::new();
        let mut header: Option<JournalHeader> = None;
        let mut valid_len = 0u64;
        let mut dropped_tail = false;

        // Walk newline-terminated segments; a final segment without its
        // newline is by definition the interrupted tail.
        let mut offset = 0usize;
        let mut line_no = 0usize;
        let mut segments = text.split_inclusive('\n').peekable();
        while let Some(seg) = segments.next() {
            line_no += 1;
            let is_last = segments.peek().is_none();
            let complete = seg.ends_with('\n');
            let body = seg.trim_end_matches(['\n', '\r']);
            if body.is_empty() {
                offset += seg.len();
                if complete {
                    valid_len = offset as u64;
                }
                continue;
            }
            if line_no == 1 {
                let h: JournalHeader = serde_json::from_str(body)
                    .map_err(|e| JournalError::NotAJournal(e.to_string()))?;
                if h.magic != JOURNAL_MAGIC {
                    return Err(JournalError::NotAJournal(format!(
                        "unexpected magic {:?}",
                        h.magic
                    )));
                }
                if !complete {
                    return Err(JournalError::NotAJournal(
                        "header line is truncated".to_string(),
                    ));
                }
                header = Some(h);
                offset += seg.len();
                valid_len = offset as u64;
                continue;
            }
            match serde_json::from_str::<SweepResult>(body) {
                Ok(r) if complete => {
                    results.push(r);
                    offset += seg.len();
                    valid_len = offset as u64;
                }
                Ok(_) => {
                    // Parsed, but the newline never landed — the append
                    // was cut between its two writes. Appending after it
                    // would corrupt the line, so drop and re-run it.
                    dropped_tail = true;
                }
                Err(e) if is_last => {
                    // The crash artifact the journal is designed for.
                    dropped_tail = true;
                    let _ = e;
                }
                Err(e) => {
                    return Err(JournalError::Corrupt {
                        line: line_no,
                        message: e.to_string(),
                    });
                }
            }
        }

        let header = header
            .ok_or_else(|| JournalError::NotAJournal("empty file (no header)".to_string()))?;
        Ok(LoadedJournal {
            header,
            results,
            valid_len,
            dropped_tail,
        })
    }

    /// Reopen an existing journal for appending: parse it, truncate any
    /// damaged tail, and return the loaded state alongside the open
    /// handle.
    pub fn resume(path: &Path) -> Result<(Journal, LoadedJournal), JournalError> {
        let loaded = Self::load(path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(loaded.valid_len)?;
        file.seek(std::io::SeekFrom::End(0))?;
        file.sync_data()?;
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
            },
            loaded,
        ))
    }

    /// Append one result record durably (write + fsync).
    pub fn append(&mut self, result: &SweepResult) -> Result<(), JournalError> {
        let line = serde_json::to_string(result).expect("sweep result serializes");
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AvailabilityLevel, GreenConfig};
    use crate::engine::MeasurementMode;
    use crate::pmk::Strategy;
    use crate::sweep::{derive_seed, run_sweep};
    use gs_sim::SimDuration;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gs-journal-{}-{name}", std::process::id()))
    }

    fn points(n: usize) -> Vec<SweepPoint> {
        (0..n)
            .map(|i| {
                SweepPoint::burst(
                    format!("p{i}"),
                    EngineConfig {
                        strategy: Strategy::Greedy,
                        green: GreenConfig::re_batt(),
                        availability: AvailabilityLevel::Medium,
                        burst_duration: SimDuration::from_mins(5),
                        measurement: MeasurementMode::Analytic,
                        ..EngineConfig::default()
                    },
                )
            })
            .collect()
    }

    #[test]
    fn fingerprint_separates_parts_and_is_stable() {
        assert_eq!(fingerprint(&["a", "b"]), fingerprint(&["a", "b"]));
        assert_ne!(fingerprint(&["ab"]), fingerprint(&["a", "b"]));
        assert_ne!(fingerprint(&["a", "bc"]), fingerprint(&["ab", "c"]));
    }

    #[test]
    fn journal_round_trips() {
        let path = tmp("roundtrip");
        let pts = points(3);
        let results = run_sweep(pts.clone(), 7, 2);
        let header = JournalHeader::new("sweep", 7, pts);
        let mut j = Journal::create(&path, &header).unwrap();
        for r in &results {
            j.append(r).unwrap();
        }
        drop(j);

        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.header.master_seed, 7);
        assert_eq!(loaded.header.mode, "sweep");
        assert_eq!(
            loaded.header.points_digest,
            points_digest(&loaded.header.points)
        );
        assert!(!loaded.dropped_tail);
        assert_eq!(
            serde_json::to_string(&loaded.results).unwrap(),
            serde_json::to_string(&results).unwrap()
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_tail_is_dropped_and_resume_truncates_the_file() {
        let path = tmp("tail");
        let pts = points(2);
        let results = run_sweep(pts.clone(), 7, 1);
        let mut j = Journal::create(&path, &JournalHeader::new("sweep", 7, pts)).unwrap();
        for r in &results {
            j.append(r).unwrap();
        }
        drop(j);

        // Simulate a SIGKILL mid-append: chop the last record in half.
        let full = std::fs::read(&path).unwrap();
        let cut = full.len() - 37;
        std::fs::write(&path, &full[..cut]).unwrap();

        let loaded = Journal::load(&path).unwrap();
        assert!(loaded.dropped_tail);
        assert_eq!(loaded.results.len(), 1);
        assert_eq!(loaded.completed_indices().len(), 1);

        // Resume truncates the damage; the journal is appendable again.
        let (mut j, loaded) = Journal::resume(&path).unwrap();
        assert_eq!(loaded.results.len(), 1);
        j.append(&results[1]).unwrap();
        drop(j);
        let reloaded = Journal::load(&path).unwrap();
        assert!(!reloaded.dropped_tail);
        assert_eq!(
            serde_json::to_string(&reloaded.results).unwrap(),
            serde_json::to_string(&results).unwrap()
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let path = tmp("corrupt");
        let pts = points(2);
        let results = run_sweep(pts.clone(), 7, 1);
        let mut j = Journal::create(&path, &JournalHeader::new("sweep", 7, pts)).unwrap();
        for r in &results {
            j.append(r).unwrap();
        }
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "{mangled";
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        match Journal::load(&path) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn non_journal_files_are_rejected() {
        let path = tmp("notjournal");
        std::fs::write(&path, "just some text\n").unwrap();
        assert!(matches!(
            Journal::load(&path),
            Err(JournalError::NotAJournal(_))
        ));
        std::fs::write(&path, "").unwrap();
        assert!(matches!(
            Journal::load(&path),
            Err(JournalError::NotAJournal(_))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn derive_seed_matches_journal_expectations() {
        // The journal stores the master seed; re-derivation must give the
        // same per-task seeds the original run used.
        let pts = points(3);
        let results = run_sweep(pts, 99, 2);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.seed, derive_seed(99, i as u64));
        }
    }
}
