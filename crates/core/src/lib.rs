//! # br-core — Branch Runahead
//!
//! The primary contribution of *"Branch Runahead: An Alternative to Branch
//! Prediction for Impossible to Predict Branches"* (Pruett & Patt,
//! MICRO 2021), reproduced from scratch on the `br-ooo` core:
//!
//! * [`HardBranchTable`] (§4.3) — identifies hard-to-predict branches with
//!   decaying saturating misprediction counters, and tracks affector/guard
//!   relationships with bias filtering,
//! * [`ChainExtractionBuffer`] + [`extract_chain`] (§4.3, Figure 9) — a
//!   512-entry retired-uop ring searched by a backwards dataflow walk,
//!   with store→load and move elimination and a one-time local rename
//!   into the [`DependenceChain`] the DCE runs, whose sources name op
//!   results and live-in registers,
//! * [`WrongPathBuffer`] (§4.4) — merge-point prediction by intersecting
//!   wrong-path PCs (captured by a ROB walk at flush) with the retired
//!   correct path; supplies both-path dest sets,
//! * [`PoisonDetector`] (§4.4) — the poison-propagation algorithm
//!   (adapted from Runahead Execution) that finds affector branches,
//! * [`DependenceChainCache`], [`PredictionQueues`] and the
//!   [`DependenceChainEngine`] (§4.2, Figure 7) — per-chain local register
//!   files and reservation stations, two-level rename, out-of-order
//!   intra-chain scheduling, shared D-cache access with core priority,
//!   and the three chain-initiation policies (§4.1),
//! * [`BranchRunahead`] — the composition, implemented as
//!   [`br_ooo::CoreHooks`] so it plugs into the core's fetch, flush, and
//!   retire streams exactly where the paper's hardware sits.
//!
//! ## Example: extracting a chain from a retired-uop stream
//!
//! ```
//! use std::collections::BTreeSet;
//! use br_core::{extract_chain, CebRecord, ChainExtractionBuffer, ExtractLimits};
//! use br_isa::{reg, Cond, Machine, MemOperand, MemoryImage, ProgramBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A loop with a data-dependent branch: if (table[i & 7] != 0) ...
//! let mut b = ProgramBuilder::new();
//! let skip = b.new_label();
//! b.mov_imm(reg::R12, 0x1000);
//! let top = b.here();
//! b.addi(reg::R0, reg::R0, 1);
//! b.and(reg::R5, reg::R0, 7);
//! b.load(reg::R6, MemOperand::base_index(reg::R12, reg::R5, 8, 0));
//! b.cmpi(reg::R6, 0);
//! let branch_pc = b.br(Cond::Ne, skip);
//! b.bind(skip);
//! b.cmpi(reg::R0, 20);
//! b.br(Cond::Ne, top);
//! b.halt();
//! let program = b.build()?;
//!
//! // Run functionally, feeding the CEB the retired stream.
//! let mut img = MemoryImage::new();
//! img.write_u64_slice(0x1000, &[0, 3, 0, 1, 2, 0, 5, 0]);
//! let mut m = Machine::new(img.into_memory());
//! let mut ceb = ChainExtractionBuffer::new(512);
//! while !m.halted() {
//!     let rec = m.step(&program, None)?;
//!     let uop = *program.fetch(rec.pc).unwrap();
//!     ceb.push(CebRecord::from_retired(&br_ooo::RetiredUop {
//!         seq: m.steps(), uop, rec, cycle: m.steps(),
//!     }));
//! }
//!
//! // The backwards dataflow walk of §4.3.
//! let limits = ExtractLimits { max_chain_len: 16, local_regs: 8 };
//! let chain = extract_chain(&ceb, branch_pc, &BTreeSet::new(), &limits)
//!     .expect("slice fits the DCE constraints");
//! assert!(chain.tag.is_wildcard());       // self-terminated: <PC, *>
//! assert!(chain.len() <= 8);              // short, as Figure 2 promises
//! # Ok(())
//! # }
//! ```

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

pub use agdetect::PoisonDetector;
pub use ceb::{CebRecord, ChainExtractionBuffer};
pub use chain::{ChainOp, ChainSrc, ChainTag, DependenceChain};
pub use chain_cache::DependenceChainCache;
pub use config::{BranchRunaheadConfig, InitiationMode};
pub use dce::DependenceChainEngine;
pub use extract::{
    extract_chain, extract_chain_with, ExtractLimits, ExtractOutcome, ExtractScratch,
};
pub use hbt::{HardBranchTable, HbtEntry};
pub use pqueue::{FetchVerdict, PredictionQueues};
pub use runahead::{BrLiveState, BranchRunahead};
pub use stats::{BrStats, PredictionCategory};
pub use wpb::{MergeEvent, WrongPathBuffer};
