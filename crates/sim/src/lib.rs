//! # br-sim — full-system composition and the experiment registry
//!
//! Assembles the substrates into the paper's evaluated system: the
//! out-of-order core (`br-ooo`, Table 1), the shared memory hierarchy
//! (`br-mem`), a baseline predictor (`br-predictor`), optionally Branch
//! Runahead (`br-core`, Table 2), running a synthetic benchmark kernel
//! (`br-workloads`).
//!
//! The [`experiments`] module regenerates every table and figure of the
//! paper's evaluation (§5): run
//! `cargo run --release -p br-bench --bin figures -- <exp>` or call
//! [`experiments::run`] with the experiment names.
//!
//! ```no_run
//! use br_sim::{SimConfig, System};
//! use br_workloads::{workload_by_name, WorkloadParams};
//!
//! let w = workload_by_name("leela_17").unwrap();
//! let image = w.build(&WorkloadParams::default());
//! let mut sys = System::new(SimConfig::mini_br(), &image);
//! let result = sys.run();
//! println!("IPC {:.3}, MPKI {:.2}", result.ipc(), result.mpki());
//! ```

#![warn(missing_docs)]
// Production paths report failures as typed `SimError`s; `unwrap`/`expect`
// are reserved for genuine impossibilities (tests keep their idiom).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod config;
pub mod experiments;
pub mod faults;
mod job;
mod runner;
mod system;
mod table;

pub use br_telemetry::TelemetryConfig;
pub use br_telemetry::TelemetryRun;
pub use config::PredictorKind;
pub use config::SimConfig;
pub use faults::run_soak;
pub use faults::FaultSpec;
pub use faults::SoakReport;
pub use job::SimError;
pub use job::SimJob;
pub use runner::run_jobs;
pub use runner::run_jobs_partial;
pub use system::RunResult;
pub use system::System;
pub use table::ExpTable;
