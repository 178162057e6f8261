//! # br-ooo — the out-of-order core substrate
//!
//! A from-scratch, cycle-level out-of-order core in the style of Scarab
//! (the execution-driven simulator the paper uses): the front end drives a
//! functional emulator down the *predicted* path — including wrong paths —
//! so the Reorder Buffer genuinely contains wrong-path micro-ops at the
//! moment a misprediction is detected. Branch Runahead's merge-point
//! predictor (§4.4) depends on exactly that property: its Wrong Path
//! Buffer is filled by a forward ROB walk at flush time.
//!
//! The core models (Table 1 configuration by default):
//! * 4-wide fetch with taken-branch breaks and a front-end pipeline depth,
//! * a 256-entry ROB and 92-entry reservation stations,
//! * dependence scheduling via last-writer tracking, multi-cycle ALUs,
//! * a load/store unit with store-to-load forwarding and MSHR back-pressure
//!   against the shared [`br_mem::MemorySystem`],
//! * full misprediction recovery: emulator checkpoint restore, predictor
//!   history restore, rename-state restore, and redirect latency.
//!
//! External machinery (Branch Runahead itself, in `br-core`) observes and
//! steers the pipeline through the [`CoreHooks`] trait: prediction
//! override at fetch, wrong-path delivery at flush, and the in-order
//! retirement stream.
//!
//! ## Example
//!
//! ```
//! use br_isa::{reg, Machine, MemoryImage, ProgramBuilder};
//! use br_mem::{MemoryConfig, MemorySystem};
//! use br_ooo::{Core, CoreConfig, NullHooks};
//! use br_predictor::Bimodal;
//!
//! # fn main() -> Result<(), br_isa::IsaError> {
//! let mut b = ProgramBuilder::new();
//! b.mov_imm(reg::R1, 6);
//! b.mul(reg::R2, reg::R1, 7i64);
//! b.halt();
//! let program = b.build()?;
//!
//! let mut core = Core::new(
//!     CoreConfig::default(),
//!     program,
//!     Machine::new(MemoryImage::new().into_memory()),
//!     Box::new(Bimodal::new(12)),
//! );
//! let mut mem = MemorySystem::new(MemoryConfig::default());
//! let mut hooks = NullHooks;
//! for cycle in 0..1000 {
//!     let responses = mem.tick(cycle);
//!     if core.tick(&responses, &mut mem, &mut hooks).done {
//!         break;
//!     }
//! }
//! assert_eq!(core.machine().reg(reg::R2), 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod config;
mod core_impl;
mod hooks;
mod stats;

pub use config::CoreConfig;
pub use core_impl::Core;
pub use core_impl::CycleReport;
pub use hooks::BranchOutcome;
pub use hooks::CoreHooks;
pub use hooks::FetchedBranch;
pub use hooks::MispredictInfo;
pub use hooks::NullHooks;
pub use hooks::PredictionProvenance;
pub use hooks::RetiredUop;
pub use hooks::WrongPathUop;
pub use stats::BranchSiteStats;
pub use stats::CoreStats;
