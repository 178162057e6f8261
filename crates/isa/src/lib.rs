//! # br-isa — the micro-op ISA substrate
//!
//! The Branch Runahead paper ([Pruett & Patt, MICRO 2021]) operates on the
//! *micro-op dataflow* of a program: dependence chains are backward
//! register/memory slices of branch instructions. The original evaluation
//! used x86 micro-ops supplied by a PIN-based frontend; this crate provides
//! an equivalent substrate built from scratch:
//!
//! * a small RISC-style micro-op ISA ([`Uop`], [`AluOp`], [`Cond`]) with
//!   16 general-purpose registers and an architectural flags register that
//!   participates in dataflow exactly like x86 condition codes,
//! * a program representation ([`Program`]) and an assembler-style builder
//!   ([`ProgramBuilder`]) with labels,
//! * a byte-addressable, journaled memory ([`JournaledMemory`]) supporting
//!   O(1) checkpoint and rollback, and
//! * a functional emulator ([`Machine`]) that can be *driven down a wrong
//!   path* (a fetch unit forces the direction of conditional branches) and
//!   later restored from a checkpoint — the property the simulator needs to
//!   model genuine wrong-path execution, which Branch Runahead's merge-point
//!   predictor depends on.
//!
//! ## Example
//!
//! ```
//! use br_isa::{ProgramBuilder, Machine, MemoryImage, Operand, Cond, reg};
//!
//! # fn main() -> Result<(), br_isa::IsaError> {
//! let mut b = ProgramBuilder::new();
//! let done = b.new_label();
//! b.mov_imm(reg::R0, 5);
//! let top = b.here();
//! b.addi(reg::R1, reg::R1, 3);
//! b.subi(reg::R0, reg::R0, 1);
//! b.cmpi(reg::R0, 0);
//! b.br(Cond::Ne, top);
//! b.bind(done);
//! b.halt();
//! let prog = b.build()?;
//!
//! let mut m = Machine::new(MemoryImage::new().into_memory());
//! while !m.halted() {
//!     m.step(&prog, None)?;
//! }
//! assert_eq!(m.reg(reg::R1), 15);
//! # Ok(())
//! # }
//! ```
//!
//! [Pruett & Patt, MICRO 2021]: https://doi.org/10.1145/3466752.3480053

#![warn(missing_docs)]

mod asm;
mod error;
mod machine;
mod memory;
mod program;
pub mod reg;
mod uop;

pub use asm::Label;
pub use asm::ProgramBuilder;
pub use error::IsaError;
pub use machine::BranchExec;
pub use machine::CpuState;
pub use machine::ExecRecord;
pub use machine::Machine;
pub use machine::MachineCheckpoint;
pub use machine::MemExec;
pub use memory::JournaledMemory;
pub use memory::MemoryImage;
pub use program::Program;
pub use reg::ArchReg;
pub use reg::RegSet;
pub use reg::NUM_ARCH_REGS;
pub use uop::AluOp;
pub use uop::Cond;
pub use uop::Flags;
pub use uop::MemOperand;
pub use uop::Operand;
pub use uop::Pc;
pub use uop::Uop;
pub use uop::UopKind;
pub use uop::Width;

#[cfg(test)]
mod model_props;
