//! # gs-workload — interactive data-center workloads
//!
//! The paper evaluates three latency-critical applications (Table II):
//!
//! | Workload   | Memory | Metric (SLO)                        |
//! |------------|--------|--------------------------------------|
//! | SPECjbb    | 10 GB  | jops, 99 %-ile ≤ 500 ms              |
//! | Web-Search | 20 GB  | ops, 90 %-ile ≤ 500 ms               |
//! | Memcached  | 20 GB  | rps, 95 %-ile ≤ 10 ms                |
//!
//! Their *performance* is throughput counted under the tail-latency
//! constraint (SPECjbb's critical-jOPS style metric). This crate models
//! each application as a multi-core queueing station:
//!
//! * [`apps`] — per-application profiles: service times and how they scale
//!   with frequency (compute- vs memory-bound) and core count (contention),
//!   SLO percentile/deadline, and the measured peak sprint power.
//! * [`queueing`] — analytic machinery: Erlang-C, sojourn-time tail of the
//!   M/M/c queue generalized to low-variance service times, and the
//!   SLO-capacity solver (max sustainable rate meeting the percentile).
//! * [`arrivals`] — open-loop arrival processes: Poisson epochs, the burst
//!   intensities `Int=k` of §IV-D, and a Google-style diurnal trace
//!   (paper Fig. 1).
//! * [`des`] — a request-level discrete-event simulation of one server
//!   that measures goodput and latency percentiles directly.
//! * [`metrics`] — the per-epoch performance record.

pub mod apps;
pub mod arrivals;
pub mod des;
pub mod dist;
pub mod loadgen;
pub mod metrics;
pub mod queueing;

pub use apps::{AppProfile, Application};
pub use arrivals::{BurstPattern, DiurnalTrace};
pub use des::ServerSim;
pub use dist::EmpiricalDist;
pub use loadgen::{ClosedLoopDriver, Driver, DriverReport, RateSchedule};
pub use metrics::EpochPerf;
