//! # br-core — Branch Runahead
//!
//! The primary contribution of *"Branch Runahead: An Alternative to Branch
//! Prediction for Impossible to Predict Branches"* (Pruett & Patt,
//! MICRO 2021), reproduced from scratch on the `br-ooo` core:
//!
//! * [`HardBranchTable`] (§4.3) — identifies hard-to-predict branches with
//!   decaying saturating misprediction counters, and tracks affector/guard
//!   relationships with bias filtering,
//! * `ChainExtractionBuffer` + `extract_chain_with` (§4.3, Figure 9) — a
//!   512-entry retired-uop ring searched by a backwards dataflow walk,
//!   with store→load and move elimination and a one-time local rename
//!   into the [`DependenceChain`] the DCE runs, whose sources name op
//!   results and live-in registers,
//! * `WrongPathBuffer` (§4.4) — merge-point prediction by intersecting
//!   wrong-path PCs (captured by a ROB walk at flush) with the retired
//!   correct path; supplies both-path dest sets,
//! * `PoisonDetector` (§4.4) — the poison-propagation algorithm
//!   (adapted from Runahead Execution) that finds affector branches,
//! * [`DependenceChainCache`], `PredictionQueues` and the
//!   `DependenceChainEngine` (§4.2, Figure 7) — per-chain local register
//!   files and reservation stations, two-level rename, out-of-order
//!   intra-chain scheduling, shared D-cache access with core priority,
//!   and the three chain-initiation policies (§4.1),
//! * [`BranchRunahead`] — the composition, implemented as
//!   [`br_ooo::CoreHooks`] so it plugs into the core's fetch, flush, and
//!   retire streams exactly where the paper's hardware sits.
//!
//! [`BranchRunahead`] is the crate's interface: `br-sim` attaches it to a
//! core and ticks it once per cycle. The structures behind it are
//! crate-private; their unit tests (e.g. the `extract` module's, which
//! extract a chain from a functional run's retired stream) exercise
//! them directly.

#![warn(missing_docs)]

mod agdetect;
mod ceb;
mod chain;
mod chain_cache;
mod config;
mod dce;
mod extract;
mod hbt;
mod pqueue;
mod runahead;
mod stats;
mod wpb;

pub use chain::DependenceChain;
pub use chain_cache::DependenceChainCache;
pub use config::BranchRunaheadConfig;
pub use config::InitiationMode;
pub use extract::ExtractOutcome;
pub use hbt::HardBranchTable;
pub use hbt::HbtEntry;
pub use runahead::BrLiveState;
pub use runahead::BranchRunahead;
pub use stats::BrStats;
pub use stats::PredictionCategory;

#[cfg(test)]
mod dce_stress;
#[cfg(test)]
mod extraction_props;
