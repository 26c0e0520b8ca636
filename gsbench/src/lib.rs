//! `gs-bench`: the GreenSprint reproduction's benchmark.
//!
//! Four workloads drive the library through its public functions only —
//! `run_sweep_streaming`, `try_run_datacenter`, `serve` with a `NetPlane`
//! over TCP, `ServeSnapshot::from_json` — plus per-call probes of the
//! epoch loop's layers. Every run checks its outputs against pinned
//! digests and prints its metrics by name and unit; see `README.md`.

pub mod compare;
pub mod digest;
pub mod metrics;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;
