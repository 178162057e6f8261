//! Dependence-chain extraction (§4.3, Figure 9).
//!
//! A backwards dataflow walk over the Chain Extraction Buffer, starting at
//! the most recently retired instance of a hard-to-predict branch:
//!
//! 1. the search list starts with the branch's source registers (the
//!    condition codes),
//! 2. older uops whose destinations intersect the search list join the
//!    chain; their sources join the search list,
//! 3. loads are matched against older stores by dynamic address (the CEB
//!    store buffer); a matching store joins the chain,
//! 4. the walk terminates at a second instance of the same branch (tag
//!    `<PC, *>`) or at an affector/guard branch (tag `<PC, taken>`).
//!
//! The collected slice is then locally renamed with move elimination and
//! store→load elimination (§4.3 "Dependence Chain Optimizations"), which
//! guarantees chains contain no stores, and the chain is kept only if its
//! values, held for their lifetimes, fit the local register file.

use std::collections::BTreeSet;

use br_isa::{ArchReg, Operand, Pc, RegSet, UopKind, NUM_ARCH_REGS};

use crate::ceb::{CebRecord, ChainExtractionBuffer};
use crate::chain::{ChainOp, ChainSrc, ChainTag, DependenceChain, MAX_CHAIN_OPS};

/// Why extraction produced no chain. The discriminants are stable codes:
/// a rejection is traced as `EventKind::ChainReject` with its code in the
/// event's `arg`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ExtractOutcome {
    /// A chain was produced (paired with the chain itself by the caller).
    Ok = 0,
    /// The walk ran off the CEB without finding a terminator.
    NoTermination = 1,
    /// The chain would exceed the uop cap (or the 32 ops a DCE instance
    /// holds).
    TooLong = 2,
    /// The chain needs more local registers than a local register file has.
    TooManyRegs = 3,
    /// The slice contains an operation the DCE cannot execute (§1: no
    /// divides / floating point).
    ForbiddenOp = 4,
    /// No flag-producing compare was found (the outcome would depend on
    /// live-in condition codes — not a computable chain).
    NoCmp = 5,
    /// The target branch was not found in the CEB.
    TargetMissing = 6,
}

/// Local registers per chain register file (Table 2: 8 in every
/// configuration): the most values a chain may hold live at once.
pub(crate) const LOCAL_REGS: usize = 8;

/// Limits applied during extraction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ExtractLimits {
    /// Maximum executable chain ops after elimination.
    pub(crate) max_chain_len: usize,
    /// Local register file size ([`LOCAL_REGS`] outside tests).
    pub(crate) local_regs: usize,
}

/// Local renamer over direct-indexed architectural-register tables (the
/// register file is 17 entries, so the maps are inline arrays — no
/// hashing, no heap).
struct Renamer {
    /// Each register's current value; `None` until read or written.
    bind: [Option<ChainSrc>; NUM_ARCH_REGS],
    /// The registers read before any write, bit per register index.
    live_ins: u16,
    written: [bool; NUM_ARCH_REGS],
}

impl Renamer {
    /// Resolves a read of `r`, making it a live-in on first touch.
    fn read(&mut self, r: ArchReg) -> ChainSrc {
        *self.bind[r.index()].get_or_insert_with(|| {
            self.live_ins |= 1 << r.index();
            ChainSrc::LiveIn(r)
        })
    }

    fn read_operand(&mut self, o: Operand) -> ChainSrc {
        match o {
            Operand::Reg(r) => self.read(r),
            Operand::Imm(v) => ChainSrc::Imm(v),
        }
    }

    /// Binds `r` to `src`: the result of a chain op, or an eliminated
    /// move's source.
    fn write(&mut self, r: ArchReg, src: ChainSrc) {
        self.bind[r.index()] = Some(src);
        self.written[r.index()] = true;
    }
}

/// Reusable buffers for [`extract_chain_with`]. Extraction runs on every
/// HBT saturation event; the walk and rename stages otherwise allocate
/// several collections per attempt. All buffers are cleared on entry, so
/// a long-lived scratch behaves identically to a fresh one
/// (`tests/extraction_props.rs` proves this by property test).
#[derive(Debug, Default)]
pub(crate) struct ExtractScratch {
    /// Collected CEB indices, youngest-first during the walk.
    collected: Vec<usize>,
    /// Loads awaiting an older matching store: `(addr, width, load idx)`.
    pending_loads: Vec<(u64, u64, usize)>,
    /// Store→load elimination pairs: `(load idx, store idx)`.
    pairs: Vec<(usize, usize)>,
    /// Stored value captured at the store's program position.
    store_value: Vec<(usize, ChainSrc)>,
    /// Renamed ops.
    ops: Vec<ChainOp>,
    /// Final values of written registers.
    live_outs: Vec<(ArchReg, ChainSrc)>,
}

/// Extracts the dependence chain of `target_pc` from the CEB, using
/// caller-owned scratch buffers (the engine reuses one scratch across
/// every extraction attempt).
///
/// `ag_set` is the (bias-filtered) affector/guard set of the target from
/// the Hard Branch Table. Returns the chain or the rejection reason.
///
/// # Errors
///
/// Returns the [`ExtractOutcome`] describing why no chain was produced.
pub(crate) fn extract_chain_with(
    scr: &mut ExtractScratch,
    ceb: &ChainExtractionBuffer,
    target_pc: Pc,
    ag_set: &BTreeSet<Pc>,
    limits: &ExtractLimits,
) -> Result<DependenceChain, ExtractOutcome> {
    let (slice_a, slice_b) = ceb.as_slices();
    let n = slice_a.len() + slice_b.len();
    // Direct indexing across the CEB's two ring segments (no collecting).
    let rec = |i: usize| -> &CebRecord {
        if i < slice_a.len() {
            &slice_a[i]
        } else {
            &slice_b[i - slice_a.len()]
        }
    };

    // Newest instance of the target.
    let end = (0..n)
        .rev()
        .find(|&i| {
            let r = rec(i);
            r.uop.pc == target_pc && r.uop.is_cond_branch()
        })
        .ok_or(ExtractOutcome::TargetMissing)?;
    let target = rec(end);
    let cond = match target.uop.kind {
        UopKind::Branch { cond, .. } => cond,
        _ => return Err(ExtractOutcome::TargetMissing),
    };

    // ---------------------------------------------------- backward walk
    let mut search: RegSet = target.srcs;
    scr.collected.clear();
    scr.pending_loads.clear();
    scr.pairs.clear();
    let mut tag: Option<ChainTag> = None;
    let mut guard_terminated = false;

    for i in (0..end).rev() {
        let r = rec(i);
        if r.uop.is_cond_branch() {
            if r.uop.pc == target_pc {
                tag = Some(ChainTag {
                    pc: target_pc,
                    outcome: None,
                });
                break;
            }
            if ag_set.contains(&r.uop.pc) {
                tag = Some(ChainTag {
                    pc: r.uop.pc,
                    outcome: r.taken,
                });
                guard_terminated = true;
                break;
            }
            continue;
        }

        // Store matching an already-collected load (the "CEB store
        // buffer" of Figure 9).
        if let Some((addr, width, is_store)) = r.mem {
            if is_store {
                if let Some(pos) = scr
                    .pending_loads
                    .iter()
                    .position(|&(la, lw, _)| la == addr && lw == width.bytes())
                {
                    let (_, _, load_idx) = scr.pending_loads.swap_remove(pos);
                    scr.pairs.push((load_idx, i));
                    scr.collected.push(i);
                    // Only the *value* source matters; the pair is
                    // move-eliminated so the address computation is
                    // dropped.
                    if let UopKind::Store { src, .. } = r.uop.kind {
                        if let Some(vr) = src.reg() {
                            search.insert(vr);
                        }
                    }
                    if scr.collected.len() > limits.max_chain_len * 3 {
                        return Err(ExtractOutcome::TooLong);
                    }
                }
                continue;
            }
        }

        if !r.dsts.intersects(search) {
            continue;
        }
        // Forbidden operations poison the chain.
        if let UopKind::Alu { op, .. } = r.uop.kind {
            if !op.dce_allowed() {
                return Err(ExtractOutcome::ForbiddenOp);
            }
        }
        scr.collected.push(i);
        if scr.collected.len() > limits.max_chain_len * 3 {
            return Err(ExtractOutcome::TooLong);
        }
        search = search.difference(r.dsts);
        search = search.union(r.srcs);
        if let Some((addr, width, false)) = r.mem {
            scr.pending_loads.push((addr, width.bytes(), i));
            // The load's address registers stay in the search set (they
            // are only dropped if the load pairs with a store, in which
            // case the chain never computes the address).
        }
    }

    let tag = tag.ok_or(ExtractOutcome::NoTermination)?;

    // ------------------------------------------- rename and elimination
    scr.collected.sort_unstable();
    scr.store_value.clear();
    scr.ops.clear();

    let mut rn = Renamer {
        bind: [None; NUM_ARCH_REGS],
        live_ins: 0,
        written: [false; NUM_ARCH_REGS],
    };
    let mut eliminated = 0usize;
    let mut cmp_found = false;
    // An op past the cap is dropped: the chain is rejected as `TooLong`
    // (after `NoCmp`). An instance holds at most `MAX_CHAIN_OPS` ops.
    let cap = limits.max_chain_len.min(MAX_CHAIN_OPS);
    let mut too_long = false;

    for &i in &scr.collected {
        let r = rec(i);
        if scr.pairs.iter().any(|&(_, st)| st == i) {
            if let UopKind::Store { src, .. } = r.uop.kind {
                scr.store_value.push((i, rn.read_operand(src)));
                eliminated += 1;
            }
            continue;
        }
        // The op this uop becomes, and the register its result binds.
        let (op, dst) = match r.uop.kind {
            UopKind::Mov { dst, src } => {
                let s = rn.read_operand(src);
                rn.write(dst, s);
                eliminated += 1;
                continue;
            }
            UopKind::Load {
                dst,
                addr,
                width,
                signed,
            } => {
                if let Some(st) = scr
                    .pairs
                    .iter()
                    .find_map(|&(ld, st)| (ld == i).then_some(st))
                {
                    // Store→load pair: logically a move (§4.3).
                    let v = scr
                        .store_value
                        .iter()
                        .find_map(|&(si, v)| (si == st).then_some(v))
                        .expect("store processed before its load");
                    rn.write(dst, v);
                    eliminated += 1;
                    continue;
                }
                let op = ChainOp::Load {
                    base: addr.base.map(|b| rn.read(b)),
                    index: addr.index.map(|x| rn.read(x)),
                    scale: addr.scale,
                    disp: addr.disp,
                    width,
                    signed,
                };
                (op, Some(dst))
            }
            UopKind::Alu {
                op,
                dst,
                src1,
                src2,
            } => {
                let op = ChainOp::Alu {
                    op,
                    src1: rn.read(src1),
                    src2: rn.read_operand(src2),
                };
                (op, Some(dst))
            }
            UopKind::Cmp { src1, src2 } => {
                let op = ChainOp::Cmp {
                    src1: rn.read(src1),
                    src2: rn.read_operand(src2),
                };
                cmp_found = true;
                (op, None)
            }
            UopKind::Store { .. }
            | UopKind::Branch { .. }
            | UopKind::Jump { .. }
            | UopKind::Nop
            | UopKind::Halt => continue,
        };
        if scr.ops.len() == cap {
            too_long = true;
            continue;
        }
        if let Some(dst) = dst {
            rn.write(dst, ChainSrc::Op(scr.ops.len() as u8));
        }
        scr.ops.push(op);
    }

    if !cmp_found {
        return Err(ExtractOutcome::NoCmp);
    }
    if too_long {
        return Err(ExtractOutcome::TooLong);
    }

    // Live-outs: every written (or aliased) register's final value, plus
    // untouched live-ins pass through implicitly via the instance context.
    // Index order equals `ArchReg`'s `Ord`, so iteration is sorted.
    scr.live_outs.clear();
    for r in ArchReg::gprs() {
        if rn.written[r.index()] {
            let v = rn.bind[r.index()].expect("written reg must be bound");
            scr.live_outs.push((r, v));
        }
    }

    let mut chain = DependenceChain::new(
        tag,
        target_pc,
        cond,
        scr.ops.clone(),
        rn.live_ins,
        scr.live_outs.clone(),
    );
    if peak_live_values(&chain) > limits.local_regs {
        return Err(ExtractOutcome::TooManyRegs);
    }
    chain.guard_terminated = guard_terminated;
    chain.eliminated_uops = eliminated;
    chain.source_pcs = scr.collected.iter().map(|&i| rec(i).uop.pc).collect();
    Ok(chain)
}

/// The most local registers `chain` holds at once (the paper's local
/// rename "minimizes physical register footprint"). Live-ins are held
/// from the start, a value dies after its last reader, live-outs stay
/// live to the end, and a source an op reads for the last time frees its
/// register for that op's result.
fn peak_live_values(chain: &DependenceChain) -> usize {
    // The values whose last reader is op `i`, by `i`.
    let mut dying = [0usize; MAX_CHAIN_OPS];
    let last_reader = |readers: u32| readers.checked_ilog2().map(|i| i as usize);
    let live_out_ins = chain.live_outs.iter().fold(0u16, |m, (_, s)| match s {
        ChainSrc::LiveIn(r) => m | 1 << r.index(),
        _ => m,
    });
    let mut live = chain.live_ins.count_ones() as usize;
    for r in 0..16 {
        if chain.live_ins & !live_out_ins & (1 << r) != 0 {
            // An unread live-in dies before the first result.
            dying[last_reader(chain.live_in_consumers[r]).unwrap_or(0)] += 1;
        }
    }
    let mut peak = live;
    for (i, op) in chain.ops.iter().enumerate() {
        live -= dying[i];
        if matches!(op, ChainOp::Cmp { .. }) {
            continue; // writes the chain's flags, not a register
        }
        live += 1;
        peak = peak.max(live);
        if chain.out_ops & (1 << i) == 0 {
            match last_reader(chain.consumers[i]) {
                Some(k) => dying[k] += 1,
                None => live -= 1,
            }
        }
    }
    peak
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ceb::{CebRecord, ChainExtractionBuffer};
    use br_isa::{
        reg, Cond as ICond, Machine, MemOperand, MemoryImage, ProgramBuilder, Uop, UopKind, Width,
    };

    /// [`extract_chain_with`] with fresh scratch buffers.
    pub(crate) fn extract_chain(
        ceb: &ChainExtractionBuffer,
        target_pc: Pc,
        ag_set: &BTreeSet<Pc>,
        limits: &ExtractLimits,
    ) -> Result<DependenceChain, ExtractOutcome> {
        extract_chain_with(
            &mut ExtractScratch::default(),
            ceb,
            target_pc,
            ag_set,
            limits,
        )
    }

    /// A loop with a data-dependent branch, `if (table[i & 7] != 0)`,
    /// run functionally with the retired stream fed to the CEB: the
    /// backwards dataflow walk of §4.3 yields a short self-terminated
    /// chain.
    #[test]
    fn data_dependent_loop_yields_short_wildcard_chain() {
        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R12, 0x1000);
        let top = b.here();
        b.addi(reg::R0, reg::R0, 1);
        b.and(reg::R5, reg::R0, 7);
        b.load(reg::R6, MemOperand::base_index(reg::R12, reg::R5, 8, 0));
        b.cmpi(reg::R6, 0);
        let branch_pc = b.br(ICond::Ne, skip);
        b.bind(skip);
        b.cmpi(reg::R0, 20);
        b.br(ICond::Ne, top);
        b.halt();
        let program = b.build().unwrap();

        let mut img = MemoryImage::new();
        img.write_u64_slice(0x1000, &[0, 3, 0, 1, 2, 0, 5, 0]);
        let mut m = Machine::new(img.into_memory());
        let mut ceb = ChainExtractionBuffer::new(512);
        while !m.halted() {
            let rec = m.step(&program, None).unwrap();
            let uop = *program.fetch(rec.pc).unwrap();
            ceb.push(CebRecord::from_retired(&br_ooo::RetiredUop {
                seq: m.steps(),
                uop,
                rec,
                cycle: m.steps(),
            }));
        }

        let limits = ExtractLimits {
            max_chain_len: 16,
            local_regs: 8,
        };
        let chain = extract_chain(&ceb, branch_pc, &BTreeSet::new(), &limits)
            .expect("slice fits the DCE constraints");
        assert!(chain.tag.is_wildcard()); // self-terminated: <PC, *>
        assert!(chain.len() <= 8); // short, as Figure 2 promises
    }

    /// Helper to hand-build CEB records.
    struct CebBuilder {
        ceb: ChainExtractionBuffer,
        seq: u64,
    }

    impl CebBuilder {
        fn new() -> Self {
            CebBuilder {
                ceb: ChainExtractionBuffer::new(512),
                seq: 0,
            }
        }

        fn push(
            &mut self,
            pc: Pc,
            kind: UopKind,
            mem: Option<(u64, Width, bool)>,
            taken: Option<bool>,
        ) {
            let uop = Uop { pc, kind };
            self.ceb.push(CebRecord {
                seq: self.seq,
                uop,
                dsts: uop.dsts(),
                srcs: uop.srcs(),
                mem,
                taken,
            });
            self.seq += 1;
        }
    }

    const LIMITS: ExtractLimits = ExtractLimits {
        max_chain_len: 16,
        local_regs: 8,
    };

    /// The leela-like loop from Figure 4: one iteration's uops.
    /// r3 = pointer into offsets, r4 = offset value, r5 = board index,
    /// r12 = board base.
    fn push_leela_iteration(b: &mut CebBuilder, a_taken: bool, board_val: u64) {
        // add r3, r3, 4          (induction)
        b.push(
            0x0,
            UopKind::Alu {
                op: br_isa::AluOp::Add,
                dst: reg::R3,
                src1: reg::R3,
                src2: Operand::Imm(4),
            },
            None,
            None,
        );
        // ld r4 <- [r3]
        b.push(
            0x1,
            UopKind::Load {
                dst: reg::R4,
                addr: MemOperand::base_disp(reg::R3, 0),
                width: Width::B4,
                signed: true,
            },
            Some((0x5000, Width::B4, false)),
            None,
        );
        // add r5, r4, r14
        b.push(
            0x2,
            UopKind::Alu {
                op: br_isa::AluOp::Add,
                dst: reg::R5,
                src1: reg::R4,
                src2: Operand::Reg(reg::R14),
            },
            None,
            None,
        );
        // ld r6 <- board[r5]  (the random board value)
        b.push(
            0x3,
            UopKind::Load {
                dst: reg::R6,
                addr: MemOperand::base_index(reg::R12, reg::R5, 4, 0x6f0),
                width: Width::B4,
                signed: false,
            },
            Some((0x9000 + board_val * 4, Width::B4, false)),
            None,
        );
        // cmp r6, 2
        b.push(
            0x4,
            UopKind::Cmp {
                src1: reg::R6,
                src2: Operand::Imm(2),
            },
            None,
            None,
        );
        // branch A at pc 5
        b.push(
            0x5,
            UopKind::Branch {
                cond: ICond::Ne,
                target: 0x9,
            },
            None,
            Some(a_taken),
        );
    }

    #[test]
    fn leela_chain_extracts_self_terminated() {
        let mut b = CebBuilder::new();
        push_leela_iteration(&mut b, true, 1);
        push_leela_iteration(&mut b, false, 2);
        let chain = extract_chain(&b.ceb, 0x5, &BTreeSet::new(), &LIMITS).unwrap();
        assert_eq!(
            chain.tag,
            ChainTag {
                pc: 0x5,
                outcome: None
            },
            "self-terminated chains get the wildcard tag of Figure 4c"
        );
        assert_eq!(chain.branch_pc, 0x5);
        assert_eq!(chain.cond, ICond::Ne);
        // add(induction), load, add, load, cmp = 5 ops.
        assert_eq!(chain.len(), 5);
        assert!(!chain.guard_terminated);
        // Live-ins: r3 (pointer), r14, r12. All three needed.
        let li = [reg::R3, reg::R14, reg::R12].map(|r| 1 << r.index());
        assert_eq!(chain.live_ins, li.iter().sum::<u16>());
        // The induction variable is a live-out so the chain self-sustains.
        assert_eq!(chain.live_outs[0], (reg::R3, ChainSrc::Op(0)));
    }

    #[test]
    fn guard_terminated_chain_tagged_with_outcome() {
        // Branch B (pc 0x8) guarded by A (pc 0x5): extraction for B stops
        // at A and tags <A, NT> like Figure 4d.
        let mut b = CebBuilder::new();
        push_leela_iteration(&mut b, false, 1); // A not-taken -> B executes
                                                // B's feeder: ld r7 <- [r12 + r5*2 + 0x1ba4]; cmp r7, 1; branch B
        b.push(
            0x6,
            UopKind::Load {
                dst: reg::R7,
                addr: MemOperand::base_index(reg::R12, reg::R5, 2, 0x1ba4),
                width: Width::B2,
                signed: false,
            },
            Some((0xa000, Width::B2, false)),
            None,
        );
        b.push(
            0x7,
            UopKind::Cmp {
                src1: reg::R7,
                src2: Operand::Imm(1),
            },
            None,
            None,
        );
        b.push(
            0x8,
            UopKind::Branch {
                cond: ICond::Le,
                target: 0x9,
            },
            None,
            Some(true),
        );
        let ag: BTreeSet<Pc> = [0x5u64].into_iter().collect();
        let chain = extract_chain(&b.ceb, 0x8, &ag, &LIMITS).unwrap();
        assert_eq!(
            chain.tag,
            ChainTag {
                pc: 0x5,
                outcome: Some(false)
            }
        );
        assert!(chain.guard_terminated);
        assert_eq!(chain.branch_pc, 0x8);
        // load + cmp (r5 is a live-in: its producer is beyond the guard).
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn store_load_pair_eliminated() {
        // st [0x100] <- r2 ; ld r4 <- [0x100] ; cmp r4,0 ; br ; (x2)
        let mut b = CebBuilder::new();
        for taken in [true, false] {
            b.push(
                0x0,
                UopKind::Alu {
                    op: br_isa::AluOp::Add,
                    dst: reg::R2,
                    src1: reg::R2,
                    src2: Operand::Imm(1),
                },
                None,
                None,
            );
            b.push(
                0x1,
                UopKind::Store {
                    src: Operand::Reg(reg::R2),
                    addr: MemOperand::absolute(0x100),
                    width: Width::B8,
                },
                Some((0x100, Width::B8, true)),
                None,
            );
            b.push(
                0x2,
                UopKind::Load {
                    dst: reg::R4,
                    addr: MemOperand::absolute(0x100),
                    width: Width::B8,
                    signed: false,
                },
                Some((0x100, Width::B8, false)),
                None,
            );
            b.push(
                0x3,
                UopKind::Cmp {
                    src1: reg::R4,
                    src2: Operand::Imm(0),
                },
                None,
                None,
            );
            b.push(
                0x4,
                UopKind::Branch {
                    cond: ICond::Eq,
                    target: 0x5,
                },
                None,
                Some(taken),
            );
        }
        let chain = extract_chain(&b.ceb, 0x4, &BTreeSet::new(), &LIMITS).unwrap();
        // add + cmp survive; store+load eliminated.
        assert_eq!(chain.len(), 2);
        assert!(chain.eliminated_uops >= 2);
        assert!(
            chain.ops.iter().all(|o| !o.is_load()),
            "store→load pairs must be move-eliminated: {chain}"
        );
    }

    #[test]
    fn mov_elimination() {
        let mut b = CebBuilder::new();
        for taken in [true, false] {
            b.push(
                0x0,
                UopKind::Alu {
                    op: br_isa::AluOp::Add,
                    dst: reg::R1,
                    src1: reg::R1,
                    src2: Operand::Imm(1),
                },
                None,
                None,
            );
            b.push(
                0x1,
                UopKind::Mov {
                    dst: reg::R2,
                    src: Operand::Reg(reg::R1),
                },
                None,
                None,
            );
            b.push(
                0x2,
                UopKind::Cmp {
                    src1: reg::R2,
                    src2: Operand::Imm(7),
                },
                None,
                None,
            );
            b.push(
                0x3,
                UopKind::Branch {
                    cond: ICond::Eq,
                    target: 0x4,
                },
                None,
                Some(taken),
            );
        }
        let chain = extract_chain(&b.ceb, 0x3, &BTreeSet::new(), &LIMITS).unwrap();
        assert_eq!(chain.len(), 2, "mov eliminated: add + cmp remain");
        assert_eq!(chain.eliminated_uops, 1);
    }

    #[test]
    fn divide_rejected() {
        let mut b = CebBuilder::new();
        for taken in [true, false] {
            b.push(
                0x0,
                UopKind::Alu {
                    op: br_isa::AluOp::Div,
                    dst: reg::R1,
                    src1: reg::R1,
                    src2: Operand::Imm(3),
                },
                None,
                None,
            );
            b.push(
                0x1,
                UopKind::Cmp {
                    src1: reg::R1,
                    src2: Operand::Imm(0),
                },
                None,
                None,
            );
            b.push(
                0x2,
                UopKind::Branch {
                    cond: ICond::Eq,
                    target: 0x3,
                },
                None,
                Some(taken),
            );
        }
        assert_eq!(
            extract_chain(&b.ceb, 0x2, &BTreeSet::new(), &LIMITS),
            Err(ExtractOutcome::ForbiddenOp)
        );
    }

    #[test]
    fn single_instance_no_termination() {
        let mut b = CebBuilder::new();
        push_leela_iteration(&mut b, true, 1);
        assert_eq!(
            extract_chain(&b.ceb, 0x5, &BTreeSet::new(), &LIMITS),
            Err(ExtractOutcome::NoTermination)
        );
    }

    #[test]
    fn missing_target_reported() {
        let b = CebBuilder::new();
        assert_eq!(
            extract_chain(&b.ceb, 0x5, &BTreeSet::new(), &LIMITS),
            Err(ExtractOutcome::TargetMissing)
        );
    }

    #[test]
    fn too_long_chain_rejected() {
        // Dependent adds feeding the cmp: past the cap, and past the 32
        // ops a DCE instance holds under a cap above it.
        for (adds, max_chain_len) in [(20, 16), (40, 64)] {
            let mut b = CebBuilder::new();
            for taken in [true, false] {
                for _ in 0..adds {
                    b.push(
                        0x0,
                        UopKind::Alu {
                            op: br_isa::AluOp::Add,
                            dst: reg::R1,
                            src1: reg::R1,
                            src2: Operand::Imm(1),
                        },
                        None,
                        None,
                    );
                }
                b.push(
                    0x1,
                    UopKind::Cmp {
                        src1: reg::R1,
                        src2: Operand::Imm(0),
                    },
                    None,
                    None,
                );
                b.push(
                    0x2,
                    UopKind::Branch {
                        cond: ICond::Eq,
                        target: 0x3,
                    },
                    None,
                    Some(taken),
                );
            }
            let limits = ExtractLimits {
                max_chain_len,
                local_regs: 8,
            };
            assert_eq!(
                extract_chain(&b.ceb, 0x2, &BTreeSet::new(), &limits),
                Err(ExtractOutcome::TooLong),
                "{adds} adds, cap {max_chain_len}"
            );
        }
    }

    #[test]
    fn register_budget_rejects_one_below_the_peak() {
        // One live-in (r1) and five ops; the live values before each
        // op's result is allocated, and after it:
        //   op0 r2 = r1 + 1   {r1}         -> {r1, a}
        //   op1 r3 = r1 + 2   {r1, a}      -> {r1, a, b}   peak 3
        //   op2 r4 = r1 + 3   {a, b}       -> {a, b, c}    (r1's last read)
        //   op3 r2 = r2 + r3  {c}          -> {c, d}       (a, b die)
        //   op4 r3 = r2 + r4  {c, d}       -> {c, d, e}    (c, d, e live-out)
        //   op5 cmp r3, 0
        let mut b = CebBuilder::new();
        let add = |dst, src1, src2| UopKind::Alu {
            op: br_isa::AluOp::Add,
            dst,
            src1,
            src2,
        };
        for taken in [true, false] {
            b.push(0x0, add(reg::R2, reg::R1, Operand::Imm(1)), None, None);
            b.push(0x1, add(reg::R3, reg::R1, Operand::Imm(2)), None, None);
            b.push(0x2, add(reg::R4, reg::R1, Operand::Imm(3)), None, None);
            b.push(
                0x3,
                add(reg::R2, reg::R2, Operand::Reg(reg::R3)),
                None,
                None,
            );
            b.push(
                0x4,
                add(reg::R3, reg::R2, Operand::Reg(reg::R4)),
                None,
                None,
            );
            b.push(
                0x5,
                UopKind::Cmp {
                    src1: reg::R3,
                    src2: Operand::Imm(0),
                },
                None,
                None,
            );
            b.push(
                0x6,
                UopKind::Branch {
                    cond: ICond::Eq,
                    target: 0x7,
                },
                None,
                Some(taken),
            );
        }
        let limits = |local_regs| ExtractLimits {
            max_chain_len: 16,
            local_regs,
        };
        assert_eq!(
            extract_chain(&b.ceb, 0x6, &BTreeSet::new(), &limits(2)),
            Err(ExtractOutcome::TooManyRegs)
        );
        let chain = extract_chain(&b.ceb, 0x6, &BTreeSet::new(), &limits(3)).unwrap();
        assert_eq!(chain.len(), 6);
    }

    #[test]
    fn dependent_adds_fit_one_register() {
        // A chain of dependent adds: each result can reuse the register of
        // the source it reads for the last time, so one local suffices.
        let mut b = CebBuilder::new();
        for taken in [true, false] {
            for _ in 0..10 {
                b.push(
                    0x0,
                    UopKind::Alu {
                        op: br_isa::AluOp::Add,
                        dst: reg::R1,
                        src1: reg::R1,
                        src2: Operand::Imm(1),
                    },
                    None,
                    None,
                );
            }
            b.push(
                0x1,
                UopKind::Cmp {
                    src1: reg::R1,
                    src2: Operand::Imm(0),
                },
                None,
                None,
            );
            b.push(
                0x2,
                UopKind::Branch {
                    cond: ICond::Eq,
                    target: 0x3,
                },
                None,
                Some(taken),
            );
        }
        let limits = ExtractLimits {
            max_chain_len: 16,
            local_regs: 1,
        };
        let chain = extract_chain(&b.ceb, 0x2, &BTreeSet::new(), &limits).unwrap();
        assert_eq!(chain.len(), 11);
    }
}
