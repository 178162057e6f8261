//! Dependence-chain representation after extraction and local rename.
//!
//! A chain is the backward dataflow slice of a hard-to-predict branch,
//! renamed once, at extraction (§4.3): every source is an immediate, a
//! live-in architectural register, or the result of an earlier op of the
//! same chain. The live-in mask and live-out map name the architectural
//! registers an instance exchanges with its producer and successors;
//! global rename (at initiation) uses them to link an instance to its
//! producer's register file (§4.2, Figure 8).

use std::collections::BTreeSet;
use std::fmt;

use br_isa::{AluOp, ArchReg, Cond, Pc, Width};

/// Upper bound on ops per chain, sized for the largest `max-chain-len`
/// the Figure 13 sweep explores (the paper's budget is 16). The wakeup
/// masks hold a bit per op in a `u32`.
pub(crate) const MAX_CHAIN_OPS: usize = 32;

/// A source operand inside a chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ChainSrc {
    /// An immediate.
    Imm(i64),
    /// The chain's live-in value of an architectural register.
    LiveIn(ArchReg),
    /// The result of the chain's op with this index.
    Op(u8),
}

/// One executable chain micro-op. Chains contain no stores, no moves and
/// no control flow — guaranteed by construction (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ChainOp {
    /// ALU operation.
    Alu {
        /// Operation (never `Div` — rejected at extraction).
        op: AluOp,
        /// First source.
        src1: ChainSrc,
        /// Second source.
        src2: ChainSrc,
    },
    /// Memory load.
    Load {
        /// Base register.
        base: Option<ChainSrc>,
        /// Index register.
        index: Option<ChainSrc>,
        /// Index scale.
        scale: u8,
        /// Displacement.
        disp: i64,
        /// Access width.
        width: Width,
        /// Sign extension.
        signed: bool,
    },
    /// Flag-setting compare; the chain's final outcome is `cond(flags)`.
    Cmp {
        /// First source.
        src1: ChainSrc,
        /// Second source.
        src2: ChainSrc,
    },
}

impl ChainOp {
    /// The sources this op reads, in operand order (a load's base, then
    /// its index).
    #[must_use]
    pub(crate) fn srcs(&self) -> [Option<ChainSrc>; 2] {
        match *self {
            ChainOp::Alu { src1, src2, .. } | ChainOp::Cmp { src1, src2 } => {
                [Some(src1), Some(src2)]
            }
            ChainOp::Load { base, index, .. } => [base, index],
        }
    }

    /// Whether this op is a load.
    #[must_use]
    pub(crate) fn is_load(&self) -> bool {
        matches!(self, ChainOp::Load { .. })
    }

    /// Compute latency in cycles (memory latency modelled separately).
    #[must_use]
    pub(crate) fn latency(&self) -> u64 {
        match self {
            ChainOp::Alu { op, .. } => u64::from(op.latency()),
            _ => 1,
        }
    }
}

/// The tag that initiates a chain: a trigger branch PC and the outcome it
/// must produce. `outcome == None` is the wildcard `<PC, *>` of §3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct ChainTag {
    /// Triggering branch PC.
    pub(crate) pc: Pc,
    /// Required trigger outcome; `None` matches either direction.
    pub(crate) outcome: Option<bool>,
}

impl ChainTag {
    /// Whether an observed `(pc, outcome)` event matches this tag.
    #[must_use]
    pub(crate) fn matches(&self, pc: Pc, outcome: bool) -> bool {
        self.pc == pc && self.outcome.is_none_or(|o| o == outcome)
    }

    /// Whether this is a wildcard tag.
    #[must_use]
    pub(crate) fn is_wildcard(&self) -> bool {
        self.outcome.is_none()
    }
}

impl fmt::Display for ChainTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.outcome {
            None => write!(f, "<{:#x}, *>", self.pc),
            Some(true) => write!(f, "<{:#x}, T>", self.pc),
            Some(false) => write!(f, "<{:#x}, NT>", self.pc),
        }
    }
}

/// An extracted, locally renamed dependence chain.
///
/// `DependenceChain::new` derives the wakeup masks the DCE schedules by
/// from the ops, live-ins and live-outs, so those are read-only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DependenceChain {
    /// Initiation tag.
    pub(crate) tag: ChainTag,
    /// PC of the branch this chain pre-computes.
    pub(crate) branch_pc: Pc,
    /// The branch's condition, applied to the chain's final flags.
    pub(crate) cond: Cond,
    pub(crate) ops: Vec<ChainOp>,
    pub(crate) live_ins: u16,
    pub(crate) live_outs: Vec<(ArchReg, ChainSrc)>,
    /// Whether extraction terminated at an affector/guard branch (versus a
    /// second instance of the target itself). Drives Figure 5.
    pub(crate) guard_terminated: bool,
    /// Uops eliminated by move / store→load elimination (for stats).
    pub(crate) eliminated_uops: usize,
    /// Static PCs of every uop in the backward slice (including ones that
    /// move elimination removed). Diagnostic: shows *which* program
    /// instructions the chain covers.
    pub source_pcs: BTreeSet<Pc>,
    /// Bit `j` of `consumers[i]`: op `j` reads op `i`'s result.
    pub(crate) consumers: [u32; MAX_CHAIN_OPS],
    /// Bit `j` of `live_in_consumers[r]`: op `j` reads live-in `r`.
    pub(crate) live_in_consumers: [u32; 16],
    /// The ops whose results are live-outs.
    pub(crate) out_ops: u32,
}

impl DependenceChain {
    /// A chain of `ops` with the given live-ins and live-outs, and its
    /// wakeup masks. The diagnostic fields (`guard_terminated`,
    /// `eliminated_uops`, `source_pcs`) start empty.
    ///
    /// # Panics
    ///
    /// If the chain has more than 32 ops, an op reads an op that is not
    /// older than itself, or a source names a live-in outside `live_ins`.
    #[must_use]
    pub(crate) fn new(
        tag: ChainTag,
        branch_pc: Pc,
        cond: Cond,
        ops: Vec<ChainOp>,
        live_ins: u16,
        live_outs: Vec<(ArchReg, ChainSrc)>,
    ) -> Self {
        assert!(ops.len() <= MAX_CHAIN_OPS, "chain exceeds MAX_CHAIN_OPS");
        let mut consumers = [0u32; MAX_CHAIN_OPS];
        let mut live_in_consumers = [0u32; 16];
        for (i, op) in ops.iter().enumerate() {
            for src in op.srcs().into_iter().flatten() {
                match src {
                    ChainSrc::Imm(_) => {}
                    ChainSrc::LiveIn(r) => {
                        assert!(live_ins & (1 << r.index()) != 0, "{r:?} is no live-in");
                        live_in_consumers[r.index()] |= 1 << i;
                    }
                    ChainSrc::Op(p) => {
                        assert!(usize::from(p) < i, "op {i} reads a later op {p}");
                        consumers[usize::from(p)] |= 1 << i;
                    }
                }
            }
        }
        let out_ops = live_outs.iter().fold(0, |m, (_, s)| match s {
            ChainSrc::Op(i) => m | 1 << i,
            _ => m,
        });
        DependenceChain {
            tag,
            branch_pc,
            cond,
            ops,
            live_ins,
            live_outs,
            guard_terminated: false,
            eliminated_uops: 0,
            source_pcs: BTreeSet::new(),
            consumers,
            live_in_consumers,
            out_ops,
        }
    }

    /// Number of executable uops in the chain.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }
}

impl fmt::Display for DependenceChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chain tag {} -> branch {:#x} ({:?}), {} ops, {} live-ins",
            self.tag,
            self.branch_pc,
            self.cond,
            self.ops.len(),
            self.live_ins.count_ones()
        )?;
        for op in &self.ops {
            writeln!(f, "  {op:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DependenceChain {
        /// Chain ops in program order.
        #[must_use]
        pub(crate) fn ops(&self) -> &[ChainOp] {
            &self.ops
        }

        /// Architectural live-ins, bit per GPR index: copied from the
        /// producer at initiation.
        #[must_use]
        pub(crate) fn live_ins(&self) -> u16 {
            self.live_ins
        }

        /// Architectural live-outs: `(arch reg, final value)` pairs exposed
        /// to successor chains, sorted by register. A value may be an
        /// immediate when move elimination folded a constant into the
        /// register.
        #[must_use]
        pub(crate) fn live_outs(&self) -> &[(ArchReg, ChainSrc)] {
            &self.live_outs
        }
    }

    #[test]
    fn tag_matching() {
        let wild = ChainTag {
            pc: 0x10,
            outcome: None,
        };
        assert!(wild.is_wildcard());
        assert!(wild.matches(0x10, true) && wild.matches(0x10, false));
        assert!(!wild.matches(0x14, true));

        let nt = ChainTag {
            pc: 0x10,
            outcome: Some(false),
        };
        assert!(nt.matches(0x10, false));
        assert!(!nt.matches(0x10, true));
        assert_eq!(nt.to_string(), "<0x10, NT>");
        assert_eq!(wild.to_string(), "<0x10, *>");
    }

    #[test]
    fn new_wires_dependencies() {
        // live-in r3; op0: add r3 + 8; op1: load [op0]; op2: cmp op1, 0;
        // live-out r3 = op0.
        let r3 = ArchReg::new(3);
        let ops = vec![
            ChainOp::Alu {
                op: AluOp::Add,
                src1: ChainSrc::LiveIn(r3),
                src2: ChainSrc::Imm(8),
            },
            ChainOp::Load {
                base: Some(ChainSrc::Op(0)),
                index: None,
                scale: 1,
                disp: 0,
                width: Width::B8,
                signed: false,
            },
            ChainOp::Cmp {
                src1: ChainSrc::Op(1),
                src2: ChainSrc::Imm(0),
            },
        ];
        assert_eq!(ops[1].srcs(), [Some(ChainSrc::Op(0)), None]);
        assert!(ops[1].is_load() && !ops[2].is_load());
        let tag = ChainTag {
            pc: 0x50,
            outcome: None,
        };
        let live_outs = vec![(r3, ChainSrc::Op(0))];
        let chain = DependenceChain::new(tag, 0x50, Cond::Eq, ops, 1 << 3, live_outs);
        // Consumers mirror the sources; op 0 alone feeds the live-out.
        assert_eq!(chain.consumers[..3], [0b010, 0b100, 0]);
        assert_eq!(chain.live_in_consumers[3], 0b001);
        assert_eq!(chain.out_ops, 0b001);
    }
}
