//! The functional emulator.
//!
//! [`Machine`] executes one uop per [`Machine::step`] call and returns an
//! [`ExecRecord`] describing everything the timing simulator needs: the
//! resolved branch direction, effective address, loaded/stored value, and
//! the destination value. A fetch unit models speculation by passing a
//! *forced direction* for conditional branches — the machine then follows
//! the forced (predicted) path while still recording the direction the
//! branch would actually take given current state. Checkpoints taken at
//! branches allow the simulator to rewind the machine on a misprediction.

use std::fmt;

use crate::error::IsaError;
use crate::memory::{JournalMark, JournaledMemory};
use crate::program::Program;
use crate::reg::{ArchReg, FLAGS};
use crate::uop::{Flags, MemOperand, Operand, Pc, Uop, UopKind, Width};

/// The architectural register state of the machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CpuState {
    /// General-purpose register values.
    pub regs: [u64; 16],
    /// Condition codes.
    pub(crate) flags: Flags,
    /// Next PC to execute.
    pub(crate) pc: Pc,
    /// Whether a `halt` has executed.
    pub(crate) halted: bool,
}

impl CpuState {
    /// A reset state starting at `pc` 0 with zeroed registers.
    #[must_use]
    pub fn new() -> Self {
        CpuState {
            regs: [0; 16],
            flags: Flags::default(),
            pc: 0,
            halted: false,
        }
    }

    /// Reads a general-purpose register.
    ///
    /// # Panics
    ///
    /// Panics if `r` is the flags register.
    #[must_use]
    pub(crate) fn reg(&self, r: ArchReg) -> u64 {
        assert!(!r.is_flags(), "read flags via .flags");
        self.regs[r.index()]
    }

    fn set_reg(&mut self, r: ArchReg, v: u64) {
        self.regs[r.index()] = v;
    }
}

impl Default for CpuState {
    fn default() -> Self {
        Self::new()
    }
}

/// A rewindable snapshot of machine state (registers + a memory journal
/// mark). Taken by the fetch unit at every conditional branch.
#[derive(Clone, Debug)]
pub struct MachineCheckpoint {
    cpu: CpuState,
    mem_mark: JournalMark,
}

/// How a branch executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchExec {
    /// The direction the branch actually resolves to, given the machine
    /// state at execution. (Garbage-but-harmless if the machine was already
    /// on a wrong path; such records are squashed before use.)
    pub actual_taken: bool,
    /// The direction the machine *followed* (the forced/predicted one).
    pub followed_taken: bool,
    /// The taken-target PC of the branch.
    pub target: Pc,
    /// The PC execution would actually continue at (`target` or the
    /// fall-through). `rec.next_pc` is the *followed* next PC, which
    /// differs under a forced (mispredicted) fetch.
    pub actual_next: Pc,
}

/// How a memory access executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemExec {
    /// Effective address.
    pub addr: u64,
    /// Access width.
    pub width: Width,
    /// True for stores.
    pub is_store: bool,
    /// Value loaded or stored (post sign-extension for signed loads).
    pub value: u64,
}

/// Everything the timing simulator needs to know about one executed uop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecRecord {
    /// PC of the executed uop.
    pub pc: Pc,
    /// PC the machine will execute next.
    pub next_pc: Pc,
    /// Branch resolution, for control uops.
    pub branch: Option<BranchExec>,
    /// Memory access details, for loads and stores.
    pub mem: Option<MemExec>,
    /// The destination register and the value written, if any. For `cmp`
    /// the destination is `FLAGS` and the value is the packed flags.
    pub dst: Option<(ArchReg, u64)>,
    /// Whether this uop was `halt`.
    pub halt: bool,
}

/// The functional emulator: [`CpuState`] + [`JournaledMemory`].
pub struct Machine {
    cpu: CpuState,
    mem: JournaledMemory,
    steps: u64,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &self.cpu.pc)
            .field("halted", &self.cpu.halted)
            .field("steps", &self.steps)
            .finish()
    }
}

impl Machine {
    /// Creates a machine over the given memory, starting at PC 0.
    #[must_use]
    pub fn new(mem: JournaledMemory) -> Self {
        Machine {
            cpu: CpuState::new(),
            mem,
            steps: 0,
        }
    }

    /// Current next-PC.
    #[must_use]
    pub fn pc(&self) -> Pc {
        self.cpu.pc
    }

    /// Whether the machine has executed `halt`.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.cpu.halted
    }

    /// Total uops executed (including wrong-path ones).
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Reads a general-purpose register.
    #[must_use]
    pub fn reg(&self, r: ArchReg) -> u64 {
        self.cpu.reg(r)
    }

    /// The architectural register state.
    #[must_use]
    pub fn cpu(&self) -> &CpuState {
        &self.cpu
    }

    /// The data memory.
    #[must_use]
    pub fn memory(&self) -> &JournaledMemory {
        &self.mem
    }

    /// Takes a rewindable checkpoint of the full machine state.
    #[must_use]
    pub fn checkpoint(&self) -> MachineCheckpoint {
        MachineCheckpoint {
            cpu: self.cpu.clone(),
            mem_mark: self.mem.mark(),
        }
    }

    /// Rewinds to `cp`, undoing all register and memory updates since.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's memory mark was already released.
    pub fn restore(&mut self, cp: &MachineCheckpoint) {
        self.mem.rollback_to(cp.mem_mark);
        self.cpu = cp.cpu.clone();
    }

    /// Releases the ability to rewind to checkpoints older than `cp`
    /// (called as branches retire).
    pub fn release(&mut self, cp: &MachineCheckpoint) {
        self.mem.release_before(cp.mem_mark);
    }

    fn effective_addr(&self, m: MemOperand) -> u64 {
        let base = m.base.map_or(0, |r| self.cpu.reg(r));
        let index = m.index.map_or(0, |r| self.cpu.reg(r));
        base.wrapping_add(index.wrapping_mul(u64::from(m.scale)))
            .wrapping_add(m.disp as u64)
    }

    fn operand(&self, o: Operand) -> u64 {
        match o {
            Operand::Reg(r) => self.cpu.reg(r),
            Operand::Imm(v) => v as u64,
        }
    }

    /// Executes the uop at the current PC.
    ///
    /// `force` steers speculation: `Some(direction)` overrides a
    /// conditional branch's direction (the fetch unit's prediction).
    /// Other uops ignore it.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Halted`] if the machine already halted, or
    /// [`IsaError::PcOutOfRange`] if the PC fell off the program.
    pub fn step(&mut self, prog: &Program, force: Option<bool>) -> Result<ExecRecord, IsaError> {
        if self.cpu.halted {
            return Err(IsaError::Halted);
        }
        let pc = self.cpu.pc;
        let uop: &Uop = prog.fetch(pc).ok_or(IsaError::PcOutOfRange {
            pc,
            len: prog.len(),
        })?;
        self.steps += 1;

        let mut rec = ExecRecord {
            pc,
            next_pc: pc + 1,
            branch: None,
            mem: None,
            dst: None,
            halt: false,
        };

        match uop.kind {
            UopKind::Alu {
                op,
                dst,
                src1,
                src2,
            } => {
                let v = op.eval(self.cpu.reg(src1), self.operand(src2));
                self.cpu.set_reg(dst, v);
                rec.dst = Some((dst, v));
            }
            UopKind::Mov { dst, src } => {
                let v = self.operand(src);
                self.cpu.set_reg(dst, v);
                rec.dst = Some((dst, v));
            }
            UopKind::Load {
                dst,
                addr,
                width,
                signed,
            } => {
                let a = self.effective_addr(addr);
                let raw = self.mem.read(a, width);
                let v = if signed { width.sign_extend(raw) } else { raw };
                self.cpu.set_reg(dst, v);
                rec.mem = Some(MemExec {
                    addr: a,
                    width,
                    is_store: false,
                    value: v,
                });
                rec.dst = Some((dst, v));
            }
            UopKind::Store { src, addr, width } => {
                let a = self.effective_addr(addr);
                let v = width.truncate(self.operand(src));
                self.mem.write(a, width, v);
                rec.mem = Some(MemExec {
                    addr: a,
                    width,
                    is_store: true,
                    value: v,
                });
            }
            UopKind::Cmp { src1, src2 } => {
                let f = Flags::from_cmp(self.cpu.reg(src1), self.operand(src2));
                self.cpu.flags = f;
                rec.dst = Some((FLAGS, u64::from(f.pack())));
            }
            UopKind::Branch { cond, target } => {
                let actual = cond.eval(self.cpu.flags);
                let followed = force.unwrap_or(actual);
                rec.next_pc = if followed { target } else { pc + 1 };
                rec.branch = Some(BranchExec {
                    actual_taken: actual,
                    followed_taken: followed,
                    target,
                    actual_next: if actual { target } else { pc + 1 },
                });
            }
            UopKind::Jump { target } => {
                rec.next_pc = target;
                rec.branch = Some(BranchExec {
                    actual_taken: true,
                    followed_taken: true,
                    target,
                    actual_next: target,
                });
            }
            UopKind::Nop => {}
            UopKind::Halt => {
                self.cpu.halted = true;
                rec.halt = true;
            }
        }

        self.cpu.pc = rec.next_pc;
        Ok(rec)
    }

    /// Runs until `halt` or `max_steps`, following actual branch directions.
    /// Returns the number of uops executed.
    ///
    /// # Errors
    ///
    /// Propagates any [`IsaError`] from [`Machine::step`].
    pub fn run(&mut self, prog: &Program, max_steps: u64) -> Result<u64, IsaError> {
        let start = self.steps;
        while !self.cpu.halted && self.steps - start < max_steps {
            self.step(prog, None)?;
        }
        Ok(self.steps - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::memory::MemoryImage;
    use crate::reg::{R0, R1, R2, R3};
    use crate::uop::Cond;

    fn machine() -> Machine {
        Machine::new(MemoryImage::new().into_memory())
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 10);
        b.addi(R1, R0, 5);
        b.mul(R2, R1, 4i64);
        b.halt();
        let p = b.build().unwrap();
        let mut m = machine();
        m.run(&p, 100).unwrap();
        assert_eq!(m.reg(R2), 60);
        assert!(m.halted());
    }

    #[test]
    fn loop_executes_correct_count() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 8);
        let top = b.here();
        b.addi(R1, R1, 2);
        b.subi(R0, R0, 1);
        b.cmpi(R0, 0);
        b.br(Cond::Ne, top);
        b.halt();
        let p = b.build().unwrap();
        let mut m = machine();
        m.run(&p, 1000).unwrap();
        assert_eq!(m.reg(R1), 16);
    }

    #[test]
    fn memory_load_store() {
        let mut img = MemoryImage::new();
        img.write(0x100, Width::B8, 77);
        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 0x100);
        b.load(R1, MemOperand::base_disp(R0, 0));
        b.addi(R1, R1, 1);
        b.store(MemOperand::base_disp(R0, 8), R1);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(img.into_memory());
        m.run(&p, 100).unwrap();
        assert_eq!(m.reg(R1), 78);
        assert_eq!(m.memory().read(0x108, Width::B8), 78);
    }

    #[test]
    fn signed_load_extends() {
        let mut img = MemoryImage::new();
        img.write(0x10, Width::B2, 0xFFFE);
        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 0x10);
        b.load_w(R1, MemOperand::base_disp(R0, 0), Width::B2, true);
        b.load_w(R2, MemOperand::base_disp(R0, 0), Width::B2, false);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(img.into_memory());
        m.run(&p, 10).unwrap();
        assert_eq!(m.reg(R1) as i64, -2);
        assert_eq!(m.reg(R2), 0xFFFE);
    }

    #[test]
    fn forced_branch_goes_wrong_path_and_records_actual() {
        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.cmpi(R0, 0); // R0 == 0, so Eq is actually taken
        b.br(Cond::Eq, skip);
        b.mov_imm(R3, 0xbad);
        b.bind(skip);
        b.halt();
        let p = b.build().unwrap();
        let mut m = machine();
        m.step(&p, None).unwrap(); // cmp
        let rec = m.step(&p, Some(false)).unwrap(); // force not-taken
        let br = rec.branch.unwrap();
        assert!(br.actual_taken, "condition truly holds");
        assert!(!br.followed_taken, "machine followed the forced path");
        assert_eq!(rec.next_pc, 2, "fell through onto the wrong path");
        let rec = m.step(&p, None).unwrap();
        assert_eq!(rec.dst, Some((R3, 0xbad)), "wrong-path uop executed");
    }

    #[test]
    fn checkpoint_restore_rewinds_regs_and_memory() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 1);
        b.store(MemOperand::absolute(0x40), R0);
        b.mov_imm(R0, 2);
        b.store(MemOperand::absolute(0x40), R0);
        b.halt();
        let p = b.build().unwrap();
        let mut m = machine();
        m.step(&p, None).unwrap();
        m.step(&p, None).unwrap();
        let cp = m.checkpoint();
        m.step(&p, None).unwrap();
        m.step(&p, None).unwrap();
        assert_eq!(m.reg(R0), 2);
        assert_eq!(m.memory().read(0x40, Width::B8), 2);
        m.restore(&cp);
        assert_eq!(m.reg(R0), 1);
        assert_eq!(m.memory().read(0x40, Width::B8), 1);
        assert_eq!(m.pc(), 2);
        // Re-execution after restore proceeds normally.
        m.step(&p, None).unwrap();
        assert_eq!(m.reg(R0), 2);
    }

    #[test]
    fn step_after_halt_errors() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build().unwrap();
        let mut m = machine();
        let rec = m.step(&p, None).unwrap();
        assert!(rec.halt);
        assert_eq!(m.step(&p, None), Err(IsaError::Halted));
    }

    #[test]
    fn pc_off_end_errors() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(R1, 0);
        let p = b.build().unwrap();
        let mut m = machine();
        m.step(&p, None).unwrap();
        assert!(matches!(
            m.step(&p, None),
            Err(IsaError::PcOutOfRange { pc: 1, len: 1 })
        ));
    }

    #[test]
    fn base_index_scale_addressing() {
        let mut img = MemoryImage::new();
        img.write_u32_slice(0x1000, &[10, 20, 30, 40]);
        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 0x1000);
        b.mov_imm(R1, 2);
        b.load_w(R2, MemOperand::base_index(R0, R1, 4, 0), Width::B4, false);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(img.into_memory());
        m.run(&p, 10).unwrap();
        assert_eq!(m.reg(R2), 30);
    }
}
