//! Micro-op definitions: opcodes, operands, addressing, and dataflow queries.

use std::fmt;

use crate::reg::{ArchReg, RegSet, FLAGS};

/// A program counter. PCs index directly into a [`crate::Program`]'s uop
/// vector; the fall-through successor of a uop at `pc` is `pc + 1`.
pub type Pc = u64;

/// Access width for loads and stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Width {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes.
    B8,
}

impl Width {
    /// The number of bytes accessed.
    #[must_use]
    pub fn bytes(self) -> u64 {
        match self {
            Width::B1 => 1,
            Width::B2 => 2,
            Width::B4 => 4,
            Width::B8 => 8,
        }
    }

    /// Truncates `v` to this width (zero-extended back to 64 bits).
    #[must_use]
    pub(crate) fn truncate(self, v: u64) -> u64 {
        match self {
            Width::B1 => v & 0xff,
            Width::B2 => v & 0xffff,
            Width::B4 => v & 0xffff_ffff,
            Width::B8 => v,
        }
    }

    /// Sign-extends the low `self` bytes of `v` to 64 bits.
    #[must_use]
    pub fn sign_extend(self, v: u64) -> u64 {
        match self {
            Width::B1 => v as u8 as i8 as i64 as u64,
            Width::B2 => v as u16 as i16 as i64 as u64,
            Width::B4 => v as u32 as i32 as i64 as u64,
            Width::B8 => v,
        }
    }
}

/// An ALU operation.
///
/// The set mirrors what the paper's Dependence Chain Engine supports
/// (Table 2): integer add/multiply/subtract/mov/load and logical
/// and/or/xor/not/shift/sign-extend. `Div` exists in the ISA so that chain
/// extraction has something to *reject* (chains must not contain expensive
/// operations, §1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division. Division by zero yields 0 (defined semantics for
    /// this research ISA). Excluded from dependence chains.
    Div,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT of the first source (second source ignored).
    Not,
    /// Logical shift left (shift amount masked to 6 bits).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
    /// Sign-extend the low byte of the first source.
    SextB,
    /// Sign-extend the low 16 bits of the first source.
    SextW,
    /// Sign-extend the low 32 bits of the first source.
    SextL,
}

impl AluOp {
    /// Evaluates the operation on two 64-bit inputs.
    #[must_use]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    ((a as i64).wrapping_div(b as i64)) as u64
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Not => !a,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Sar => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
            AluOp::SextB => Width::B1.sign_extend(a),
            AluOp::SextW => Width::B2.sign_extend(a),
            AluOp::SextL => Width::B4.sign_extend(a),
        }
    }

    /// Whether the Dependence Chain Engine may execute this operation
    /// (§1: chains "do not contain expensive operations such as integer
    /// divide or floating point operations").
    #[must_use]
    pub fn dce_allowed(self) -> bool {
        !matches!(self, AluOp::Div)
    }

    /// Execution latency in cycles on the core's functional units.
    #[must_use]
    pub fn latency(self) -> u32 {
        match self {
            AluOp::Mul => 3,
            AluOp::Div => 20,
            _ => 1,
        }
    }
}

/// A branch condition, evaluated against the architectural [`Flags`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal (`zf`).
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ult,
    /// Unsigned greater-or-equal.
    Uge,
}

impl Cond {
    /// Evaluates the condition.
    #[must_use]
    pub fn eval(self, flags: Flags) -> bool {
        match self {
            Cond::Eq => flags.zf,
            Cond::Ne => !flags.zf,
            Cond::Lt => flags.lt_s,
            Cond::Le => flags.lt_s || flags.zf,
            Cond::Gt => !(flags.lt_s || flags.zf),
            Cond::Ge => !flags.lt_s,
            Cond::Ult => flags.lt_u,
            Cond::Uge => !flags.lt_u,
        }
    }
}

/// The architectural condition codes, produced by `cmp`.
///
/// Encoded as three predicates rather than x86-style individual bits; this
/// is sufficient to express all the comparison conditions the ISA offers
/// and keeps checkpointing trivial.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Flags {
    /// Operands were equal.
    pub(crate) zf: bool,
    /// First operand signed-less-than second.
    pub(crate) lt_s: bool,
    /// First operand unsigned-less-than second.
    pub(crate) lt_u: bool,
}

impl Flags {
    /// Computes flags for `cmp a, b`.
    #[must_use]
    pub fn from_cmp(a: u64, b: u64) -> Flags {
        Flags {
            zf: a == b,
            lt_s: (a as i64) < (b as i64),
            lt_u: a < b,
        }
    }

    /// Packs the flags into a byte (for compact checkpoints).
    #[must_use]
    pub(crate) fn pack(self) -> u8 {
        (self.zf as u8) | (self.lt_s as u8) << 1 | (self.lt_u as u8) << 2
    }
}

/// A register-or-immediate source operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register source.
    Reg(ArchReg),
    /// A 64-bit immediate (stored sign-extended).
    Imm(i64),
}

impl Operand {
    /// The register this operand reads, if any.
    #[must_use]
    pub fn reg(self) -> Option<ArchReg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<ArchReg> for Operand {
    fn from(r: ArchReg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "${v}"),
        }
    }
}

/// An x86-style memory operand: `disp(base, index, scale)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MemOperand {
    /// Base register, if any.
    pub base: Option<ArchReg>,
    /// Index register, if any.
    pub index: Option<ArchReg>,
    /// Scale applied to the index register (1, 2, 4 or 8).
    pub scale: u8,
    /// Constant displacement.
    pub disp: i64,
}

impl MemOperand {
    /// `disp(base)` addressing.
    #[must_use]
    pub fn base_disp(base: ArchReg, disp: i64) -> Self {
        MemOperand {
            base: Some(base),
            index: None,
            scale: 1,
            disp,
        }
    }

    /// `disp(base, index, scale)` addressing.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not 1, 2, 4 or 8.
    #[must_use]
    pub fn base_index(base: ArchReg, index: ArchReg, scale: u8, disp: i64) -> Self {
        assert!(matches!(scale, 1 | 2 | 4 | 8), "invalid scale {scale}");
        MemOperand {
            base: Some(base),
            index: Some(index),
            scale,
            disp,
        }
    }

    /// An absolute address.
    #[must_use]
    pub fn absolute(addr: u64) -> Self {
        MemOperand {
            base: None,
            index: None,
            scale: 1,
            disp: addr as i64,
        }
    }

    /// The registers this operand reads.
    #[must_use]
    pub(crate) fn srcs(self) -> RegSet {
        let mut s = RegSet::empty();
        if let Some(b) = self.base {
            s.insert(b);
        }
        if let Some(i) = self.index {
            s.insert(i);
        }
        s
    }
}

impl fmt::Display for MemOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}(", self.disp)?;
        if let Some(b) = self.base {
            write!(f, "{b}")?;
        }
        if let Some(i) = self.index {
            write!(f, ",{i},{}", self.scale)?;
        }
        write!(f, ")")
    }
}

/// The operation performed by a micro-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UopKind {
    /// `dst = op(src1, src2)`.
    Alu {
        /// The ALU operation.
        op: AluOp,
        /// Destination register.
        dst: ArchReg,
        /// First source register.
        src1: ArchReg,
        /// Second source (register or immediate).
        src2: Operand,
    },
    /// Register or immediate move: `dst = src`.
    Mov {
        /// Destination register.
        dst: ArchReg,
        /// Source operand.
        src: Operand,
    },
    /// Memory load: `dst = mem[addr]` with optional sign extension.
    Load {
        /// Destination register.
        dst: ArchReg,
        /// Effective-address expression.
        addr: MemOperand,
        /// Access width.
        width: Width,
        /// Whether the loaded value is sign-extended to 64 bits.
        signed: bool,
    },
    /// Memory store: `mem[addr] = src`.
    Store {
        /// Value to store.
        src: Operand,
        /// Effective-address expression.
        addr: MemOperand,
        /// Access width.
        width: Width,
    },
    /// Flag-setting compare: `flags = cmp(src1, src2)`.
    Cmp {
        /// First source register.
        src1: ArchReg,
        /// Second source (register or immediate).
        src2: Operand,
    },
    /// Conditional branch to `target` if `cond` holds on the flags.
    Branch {
        /// The condition.
        cond: Cond,
        /// Taken target PC.
        target: Pc,
    },
    /// Unconditional jump.
    Jump {
        /// Target PC.
        target: Pc,
    },
    /// No operation.
    Nop,
    /// Stops the machine.
    Halt,
}

/// A static micro-op: a [`UopKind`] plus its program counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Uop {
    /// The uop's program counter (its index within the program).
    pub pc: Pc,
    /// What the uop does.
    pub kind: UopKind,
}

impl Uop {
    /// The set of registers written by this uop.
    ///
    /// `cmp` writes the `FLAGS` register; branches, stores, `nop` and
    /// `halt` write nothing.
    #[must_use]
    pub fn dsts(&self) -> RegSet {
        match self.kind {
            UopKind::Alu { dst, .. } | UopKind::Mov { dst, .. } | UopKind::Load { dst, .. } => {
                RegSet::single(dst)
            }
            UopKind::Cmp { .. } => RegSet::single(FLAGS),
            _ => RegSet::empty(),
        }
    }

    /// The set of registers read by this uop.
    ///
    /// Branches read `FLAGS`; loads and stores read their address
    /// registers; stores also read the stored value's register.
    #[must_use]
    pub fn srcs(&self) -> RegSet {
        let mut s = RegSet::empty();
        match self.kind {
            UopKind::Alu { src1, src2, .. } => {
                s.insert(src1);
                if let Some(r) = src2.reg() {
                    s.insert(r);
                }
            }
            UopKind::Mov { src, .. } => {
                if let Some(r) = src.reg() {
                    s.insert(r);
                }
            }
            UopKind::Load { addr, .. } => s = addr.srcs(),
            UopKind::Store { src, addr, .. } => {
                s = addr.srcs();
                if let Some(r) = src.reg() {
                    s.insert(r);
                }
            }
            UopKind::Cmp { src1, src2 } => {
                s.insert(src1);
                if let Some(r) = src2.reg() {
                    s.insert(r);
                }
            }
            UopKind::Branch { .. } => {
                s.insert(FLAGS);
            }
            UopKind::Jump { .. } | UopKind::Nop | UopKind::Halt => {}
        }
        s
    }

    /// Whether this uop is a conditional branch.
    #[must_use]
    pub fn is_cond_branch(&self) -> bool {
        matches!(self.kind, UopKind::Branch { .. })
    }

    /// Whether this uop reads memory.
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(self.kind, UopKind::Load { .. })
    }

    /// Execution latency of this uop's compute in cycles (memory latency is
    /// modelled by the cache hierarchy, not here).
    #[must_use]
    pub fn compute_latency(&self) -> u32 {
        match self.kind {
            UopKind::Alu { op, .. } => op.latency(),
            _ => 1,
        }
    }
}

impl fmt::Display for Uop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#06x}: ", self.pc)?;
        match self.kind {
            UopKind::Alu {
                op,
                dst,
                src1,
                src2,
            } => {
                let name = format!("{op:?}").to_lowercase();
                write!(f, "{name} {dst}, {src1}, {src2}")
            }
            UopKind::Mov { dst, src } => write!(f, "mov {dst}, {src}"),
            UopKind::Load {
                dst,
                addr,
                width,
                signed,
            } => {
                let suffix = if signed { "s" } else { "" };
                write!(f, "ld{}{} {dst}, {addr}", width.bytes(), suffix)
            }
            UopKind::Store { src, addr, width } => {
                write!(f, "st{} {addr}, {src}", width.bytes())
            }
            UopKind::Cmp { src1, src2 } => write!(f, "cmp {src1}, {src2}"),
            UopKind::Branch { cond, target } => {
                let name = format!("{cond:?}").to_lowercase();
                write!(f, "b{name} {target:#06x}")
            }
            UopKind::Jump { target } => write!(f, "jmp {target:#06x}"),
            UopKind::Nop => write!(f, "nop"),
            UopKind::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{R1, R2, R3};

    #[test]
    fn alu_eval_basics() {
        assert_eq!(AluOp::Add.eval(2, 3), 5);
        assert_eq!(AluOp::Sub.eval(2, 3), u64::MAX);
        assert_eq!(AluOp::Mul.eval(7, 6), 42);
        assert_eq!(AluOp::Div.eval(42, 6), 7);
        assert_eq!(AluOp::Div.eval(42, 0), 0, "div-by-zero is defined as 0");
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Not.eval(0, 99), u64::MAX);
        assert_eq!(AluOp::Shl.eval(1, 4), 16);
        assert_eq!(AluOp::Sar.eval(-16i64 as u64, 2), -4i64 as u64);
        assert_eq!(AluOp::SextB.eval(0xff, 0), u64::MAX);
    }

    #[test]
    fn alu_div_negative() {
        assert_eq!(AluOp::Div.eval(-42i64 as u64, 6), -7i64 as u64);
    }

    #[test]
    fn dce_rejects_div_only() {
        assert!(!AluOp::Div.dce_allowed());
        for op in [AluOp::Add, AluOp::Mul, AluOp::Shl, AluOp::SextL] {
            assert!(op.dce_allowed(), "{op:?} should be DCE-allowed");
        }
    }

    #[test]
    fn cond_eval_matrix() {
        let f = Flags::from_cmp(3, 5);
        assert!(!f.zf);
        assert!(Cond::Lt.eval(f) && Cond::Le.eval(f) && Cond::Ne.eval(f));
        assert!(!Cond::Gt.eval(f) && !Cond::Ge.eval(f) && !Cond::Eq.eval(f));
        let f = Flags::from_cmp(5, 5);
        assert!(Cond::Eq.eval(f) && Cond::Le.eval(f) && Cond::Ge.eval(f));
        assert!(!Cond::Lt.eval(f) && !Cond::Gt.eval(f));
        let f = Flags::from_cmp(-1i64 as u64, 1);
        assert!(Cond::Lt.eval(f), "signed -1 < 1");
        assert!(!Cond::Ult.eval(f), "unsigned max > 1");
        assert!(Cond::Uge.eval(f));
    }

    #[test]
    fn flags_pack_is_injective() {
        let mut seen = std::collections::HashMap::new();
        for a in [0u64, 1, 5, u64::MAX] {
            for b in [0u64, 1, 5, u64::MAX] {
                let f = Flags::from_cmp(a, b);
                assert_eq!(*seen.entry(f.pack()).or_insert(f), f);
            }
        }
    }

    #[test]
    fn width_extend() {
        assert_eq!(Width::B4.truncate(0x1_2345_6789), 0x2345_6789);
        assert_eq!(Width::B2.sign_extend(0x8000), 0xffff_ffff_ffff_8000);
        assert_eq!(Width::B2.sign_extend(0x7fff), 0x7fff);
    }

    #[test]
    fn uop_dataflow_sets() {
        let u = Uop {
            pc: 0,
            kind: UopKind::Cmp {
                src1: R1,
                src2: Operand::Imm(2),
            },
        };
        assert_eq!(u.dsts(), RegSet::single(FLAGS));
        assert_eq!(u.srcs(), RegSet::single(R1));

        let b = Uop {
            pc: 1,
            kind: UopKind::Branch {
                cond: Cond::Ne,
                target: 9,
            },
        };
        assert_eq!(b.srcs(), RegSet::single(FLAGS));
        assert!(b.dsts().is_empty());

        let st = Uop {
            pc: 2,
            kind: UopKind::Store {
                src: Operand::Reg(R3),
                addr: MemOperand::base_index(R1, R2, 8, 16),
                width: Width::B8,
            },
        };
        assert_eq!(st.srcs(), [R1, R2, R3].into_iter().collect());
        assert!(st.dsts().is_empty());
    }

    #[test]
    fn display_formats() {
        let u = Uop {
            pc: 3,
            kind: UopKind::Load {
                dst: R1,
                addr: MemOperand::base_index(R2, R3, 4, 0x6f0),
                width: Width::B4,
                signed: false,
            },
        };
        let s = u.to_string();
        assert!(s.contains("ld4 r1"), "{s}");
        assert!(s.contains("(r2,r3,4)"), "{s}");
    }

    #[test]
    #[should_panic(expected = "invalid scale")]
    fn bad_scale_panics() {
        let _ = MemOperand::base_index(R1, R2, 3, 0);
    }
}
