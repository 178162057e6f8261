//! # branch-runahead
//!
//! A from-scratch Rust reproduction of *"Branch Runahead: An Alternative
//! to Branch Prediction for Impossible to Predict Branches"* (Stephen
//! Pruett and Yale N. Patt, MICRO 2021).
//!
//! Branch Runahead pre-computes the outcomes of hard-to-predict,
//! data-dependent branches by continuously executing their *dependence
//! chains* — short backward dataflow slices — on a small dedicated engine
//! whose results override the baseline TAGE-SC-L prediction at fetch.
//!
//! This crate is a facade over the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`isa`] | `br-isa` | micro-op ISA, assembler, journaled emulator |
//! | [`predictor`] | `br-predictor` | TAGE-SC-L, MTAGE, bimodal |
//! | [`mem`] | `br-mem` | caches, MSHRs, prefetcher, DRAM |
//! | [`ooo`] | `br-ooo` | out-of-order core with wrong-path execution |
//! | [`runahead`] | `br-core` | the paper's contribution: HBT, CEB, WPB, DCE |
//! | [`workloads`] | `br-workloads` | 18 SPEC/GAP-like synthetic kernels |
//! | [`energy`] | `br-energy` | McPAT-substitute energy/area models |
//! | [`sim`] | `br-sim` | system composition + per-figure experiments |
//! | [`telemetry`] | `br-telemetry` | interval samples, event traces, exporters |
//!
//! ## Quick start
//!
//! ```no_run
//! use branch_runahead::sim::{SimConfig, System};
//! use branch_runahead::workloads::{workload_by_name, WorkloadParams};
//!
//! let leela = workload_by_name("leela_17").unwrap();
//! let image = leela.build(&WorkloadParams::default());
//!
//! let base = System::new(SimConfig::baseline(), &image).run();
//! let with = System::new(SimConfig::mini_br(), &image).run();
//!
//! println!(
//!     "MPKI {:.2} -> {:.2} ({:+.1}%), IPC {:.3} -> {:.3}",
//!     base.mpki(), with.mpki(), with.mpki_improvement_pct(&base),
//!     base.ipc(), with.ipc(),
//! );
//! ```
//!
//! See `examples/` for runnable walkthroughs and
//! `cargo run --release -p br-bench --bin figures -- all` to regenerate
//! every table and figure of the paper's evaluation.

#![warn(missing_docs)]

pub use br_core as runahead;
pub use br_energy as energy;
pub use br_isa as isa;
pub use br_mem as mem;
pub use br_ooo as ooo;
pub use br_predictor as predictor;
pub use br_sim as sim;
pub use br_telemetry as telemetry;
pub use br_workloads as workloads;
