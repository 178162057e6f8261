//! Assembler-style program builder with forward labels.

use crate::error::IsaError;
use crate::program::Program;
use crate::reg::ArchReg;
use crate::uop::{AluOp, Cond, MemOperand, Operand, Pc, Uop, UopKind, Width};

/// A label created by [`ProgramBuilder::new_label`], usable as a branch
/// target before it is bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Incrementally builds a [`Program`].
///
/// The builder hands out [`Label`]s for forward references; branches to a
/// label are patched when [`ProgramBuilder::build`] runs.
///
/// ```
/// use br_isa::{ProgramBuilder, Cond, reg};
/// # fn main() -> Result<(), br_isa::IsaError> {
/// let mut b = ProgramBuilder::new();
/// let out = b.new_label();
/// b.cmpi(reg::R0, 0);
/// b.br(Cond::Eq, out);
/// b.addi(reg::R1, reg::R1, 1);
/// b.bind(out);
/// b.halt();
/// let prog = b.build()?;
/// assert!(prog.fetch(3).is_some() && prog.fetch(4).is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct ProgramBuilder {
    uops: Vec<UopKind>,
    // (uop index, label) pairs needing patching.
    fixups: Vec<(usize, Label)>,
    labels: Vec<Option<Pc>>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a label already bound to the current position (for
    /// backward branches).
    pub fn here(&mut self) -> Label {
        self.labels.push(Some(self.uops.len() as Pc));
        Label(self.labels.len() - 1)
    }

    /// Allocates an unbound label for a forward reference.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.uops.len() as Pc);
    }

    fn emit(&mut self, kind: UopKind) -> Pc {
        let pc = self.uops.len() as Pc;
        self.uops.push(kind);
        pc
    }

    fn emit_branch(&mut self, cond: Cond, label: Label) -> Pc {
        let pc = self.emit(UopKind::Branch { cond, target: 0 });
        self.fixups.push((pc as usize, label));
        pc
    }

    /// Emits `dst = op(src1, src2)`. Returns the uop's PC.
    pub(crate) fn alu(
        &mut self,
        op: AluOp,
        dst: ArchReg,
        src1: ArchReg,
        src2: impl Into<Operand>,
    ) -> Pc {
        self.emit(UopKind::Alu {
            op,
            dst,
            src1,
            src2: src2.into(),
        })
    }

    /// Emits `dst = src1 + src2`.
    pub fn add(&mut self, dst: ArchReg, src1: ArchReg, src2: ArchReg) -> Pc {
        self.alu(AluOp::Add, dst, src1, src2)
    }

    /// Emits `dst = src + imm`.
    pub fn addi(&mut self, dst: ArchReg, src: ArchReg, imm: i64) -> Pc {
        self.alu(AluOp::Add, dst, src, imm)
    }

    /// Emits `dst = src1 - src2`.
    pub fn sub(&mut self, dst: ArchReg, src1: ArchReg, src2: ArchReg) -> Pc {
        self.alu(AluOp::Sub, dst, src1, src2)
    }

    /// Emits `dst = src - imm`.
    pub fn subi(&mut self, dst: ArchReg, src: ArchReg, imm: i64) -> Pc {
        self.alu(AluOp::Sub, dst, src, imm)
    }

    /// Emits `dst = src1 * src2` (register or immediate second operand).
    pub fn mul(&mut self, dst: ArchReg, src1: ArchReg, src2: impl Into<Operand>) -> Pc {
        self.alu(AluOp::Mul, dst, src1, src2)
    }

    /// Emits `dst = src1 & src2`.
    pub fn and(&mut self, dst: ArchReg, src1: ArchReg, src2: impl Into<Operand>) -> Pc {
        self.alu(AluOp::And, dst, src1, src2)
    }

    /// Emits `dst = src1 ^ src2`.
    pub fn xor(&mut self, dst: ArchReg, src1: ArchReg, src2: impl Into<Operand>) -> Pc {
        self.alu(AluOp::Xor, dst, src1, src2)
    }

    /// Emits `dst = src1 << src2`.
    pub fn shl(&mut self, dst: ArchReg, src1: ArchReg, src2: impl Into<Operand>) -> Pc {
        self.alu(AluOp::Shl, dst, src1, src2)
    }

    /// Emits `dst = src1 >> src2` (logical).
    pub fn shr(&mut self, dst: ArchReg, src1: ArchReg, src2: impl Into<Operand>) -> Pc {
        self.alu(AluOp::Shr, dst, src1, src2)
    }

    /// Emits `dst = src1 >> src2` (arithmetic).
    pub fn sar(&mut self, dst: ArchReg, src1: ArchReg, src2: impl Into<Operand>) -> Pc {
        self.alu(AluOp::Sar, dst, src1, src2)
    }

    /// Emits `dst = imm`.
    pub fn mov_imm(&mut self, dst: ArchReg, imm: i64) -> Pc {
        self.emit(UopKind::Mov {
            dst,
            src: Operand::Imm(imm),
        })
    }

    /// Emits an 8-byte load.
    pub fn load(&mut self, dst: ArchReg, addr: MemOperand) -> Pc {
        self.load_w(dst, addr, Width::B8, false)
    }

    /// Emits a load with explicit width and signedness.
    pub fn load_w(&mut self, dst: ArchReg, addr: MemOperand, width: Width, signed: bool) -> Pc {
        self.emit(UopKind::Load {
            dst,
            addr,
            width,
            signed,
        })
    }

    /// Emits an 8-byte store.
    pub fn store(&mut self, addr: MemOperand, src: impl Into<Operand>) -> Pc {
        self.store_w(addr, src, Width::B8)
    }

    /// Emits a store with explicit width.
    pub fn store_w(&mut self, addr: MemOperand, src: impl Into<Operand>, width: Width) -> Pc {
        self.emit(UopKind::Store {
            src: src.into(),
            addr,
            width,
        })
    }

    /// Emits `flags = cmp(src1, src2)`.
    pub fn cmp(&mut self, src1: ArchReg, src2: ArchReg) -> Pc {
        self.emit(UopKind::Cmp {
            src1,
            src2: Operand::Reg(src2),
        })
    }

    /// Emits `flags = cmp(src, imm)`.
    pub fn cmpi(&mut self, src: ArchReg, imm: i64) -> Pc {
        self.emit(UopKind::Cmp {
            src1: src,
            src2: Operand::Imm(imm),
        })
    }

    /// Emits a conditional branch to `label`.
    pub fn br(&mut self, cond: Cond, label: Label) -> Pc {
        self.emit_branch(cond, label)
    }

    /// Emits an unconditional jump to `label`.
    pub fn jmp(&mut self, label: Label) -> Pc {
        let pc = self.emit(UopKind::Jump { target: 0 });
        self.fixups.push((pc as usize, label));
        pc
    }

    /// Emits a halt.
    pub fn halt(&mut self) -> Pc {
        self.emit(UopKind::Halt)
    }

    /// Resolves labels and produces the validated [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UnboundLabel`] if a referenced label was never
    /// bound, or [`IsaError::BadBranchTarget`] if validation fails.
    pub fn build(mut self) -> Result<Program, IsaError> {
        for (idx, label) in std::mem::take(&mut self.fixups) {
            let target = self.labels[label.0].ok_or(IsaError::UnboundLabel { label: label.0 })?;
            match &mut self.uops[idx] {
                UopKind::Branch { target: t, .. } | UopKind::Jump { target: t } => *t = target,
                _ => unreachable!("fixups only attach to control uops"),
            }
        }
        let uops = self
            .uops
            .into_iter()
            .enumerate()
            .map(|(pc, kind)| Uop { pc: pc as Pc, kind })
            .collect();
        Program::new(uops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{R0, R1};

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut b = ProgramBuilder::new();
        let end = b.new_label();
        let top = b.here();
        b.addi(R0, R0, 1);
        b.cmpi(R0, 3);
        b.br(Cond::Eq, end);
        b.jmp(top);
        b.bind(end);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.len(), 5);
        match p.fetch(3).unwrap().kind {
            UopKind::Jump { target } => assert_eq!(target, 0),
            ref k => panic!("expected jump, got {k:?}"),
        }
        match p.fetch(2).unwrap().kind {
            UopKind::Branch { target, .. } => assert_eq!(target, 4),
            ref k => panic!("expected branch, got {k:?}"),
        }
    }

    #[test]
    fn unbound_label_errors() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.br(Cond::Ne, l);
        assert!(matches!(
            b.build(),
            Err(IsaError::UnboundLabel { label: 0 })
        ));
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn emit_returns_pcs_in_order() {
        let mut b = ProgramBuilder::new();
        assert_eq!(b.mov_imm(R1, 7), 0);
        assert_eq!(b.addi(R1, R1, 1), 1);
        assert_eq!(b.halt(), 2);
        assert_eq!(b.build().unwrap().len(), 3);
    }
}
