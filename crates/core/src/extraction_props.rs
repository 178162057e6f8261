//! Property-based validation of dependence-chain extraction (§4.3).
//!
//! For randomly generated steady loops with a data-dependent,
//! control-independent branch, the chain extracted from the retired-uop
//! stream — executed repeatedly the way the DCE executes it, with
//! live-outs feeding the next instance — must predict the *actual* future
//! outcomes of the branch exactly. This is the core semantic guarantee
//! behind the whole system: a chain is the branch's future, computed
//! early.

use std::collections::BTreeSet;

use crate::ceb::{CebRecord, ChainExtractionBuffer};
use crate::chain::{ChainOp, ChainSrc, DependenceChain};
use crate::extract::tests::extract_chain;
use crate::extract::{extract_chain_with, ExtractLimits, ExtractOutcome, ExtractScratch};
use br_isa::{
    reg, ArchReg, Cond, Flags, JournaledMemory, Machine, MemOperand, MemoryImage, Program,
    ProgramBuilder,
};

/// Registers the generated loop body operates on.
const BODY_REGS: [ArchReg; 4] = [reg::R3, reg::R4, reg::R5, reg::R6];

fn breg(i: u8) -> ArchReg {
    BODY_REGS[i as usize % BODY_REGS.len()]
}

#[derive(Clone, Debug)]
enum BodyOp {
    Add(u8, u8, i8),
    Xor(u8, u8, u8),
    Shr(u8, u8, u8),
    Mul3(u8, u8),
    /// `dst = table[src & mask]` — the data-dependent load.
    Load(u8, u8),
}

/// Deterministic xorshift64 generator for case generation (the container
/// builds hermetically, so no external property-testing dependency).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn body_op(rng: &mut Rng) -> BodyOp {
    match rng.below(5) {
        0 => BodyOp::Add(rng.next() as u8, rng.next() as u8, rng.next() as i8),
        1 => BodyOp::Xor(rng.next() as u8, rng.next() as u8, rng.next() as u8),
        2 => BodyOp::Shr(rng.next() as u8, rng.next() as u8, 1 + rng.below(4) as u8),
        3 => BodyOp::Mul3(rng.next() as u8, rng.next() as u8),
        _ => BodyOp::Load(rng.next() as u8, rng.next() as u8),
    }
}

const TABLE: u64 = 0x8000;
const TABLE_LEN: u64 = 256;

/// Builds a steady loop: random body ops, then `cmp <reg>, <k>` and a
/// branch whose taken target *is* the fall-through (control-independent
/// by construction, so every iteration executes the same uops).
fn build_loop(ops: &[BodyOp], cmp_reg: u8, cmp_k: i8, trips: u64) -> (Program, u64) {
    let mut b = ProgramBuilder::new();
    b.mov_imm(reg::R0, trips as i64);
    b.mov_imm(reg::R12, TABLE as i64);
    for (i, r) in BODY_REGS.iter().enumerate() {
        b.mov_imm(*r, 0x9E37 + (i as i64) * 0x61c8);
    }
    let top = b.here();
    for op in ops {
        match *op {
            BodyOp::Add(d, s, i) => {
                b.addi(breg(d), breg(s), i64::from(i));
            }
            BodyOp::Xor(d, a, x) => {
                b.xor(breg(d), breg(a), breg(x));
            }
            BodyOp::Shr(d, s, k) => {
                b.shr(breg(d), breg(s), i64::from(k));
            }
            BodyOp::Mul3(d, s) => {
                b.mul(breg(d), breg(s), 3i64);
            }
            BodyOp::Load(d, s) => {
                b.and(reg::R14, breg(s), (TABLE_LEN - 1) as i64);
                b.load(breg(d), MemOperand::base_index(reg::R12, reg::R14, 8, 0));
            }
        }
    }
    b.cmpi(breg(cmp_reg), i64::from(cmp_k));
    // The branch's taken target is the next uop: both directions land on
    // the same instruction, so the branch guards nothing.
    let next = b.new_label();
    let branch_pc = b.br(Cond::Lt, next);
    b.bind(next);
    b.subi(reg::R0, reg::R0, 1);
    b.cmpi(reg::R0, 0);
    b.br(Cond::Ne, top);
    b.halt();
    (b.build().expect("generated loop assembles"), branch_pc)
}

fn table_image() -> MemoryImage {
    let mut img = MemoryImage::new();
    let mut x = 0x1234_5678_9abc_def0u64;
    for i in 0..TABLE_LEN {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        img.write(TABLE + i * 8, br_isa::Width::B8, x % 97);
    }
    img
}

/// Reference interpreter for an extracted chain: one DCE instance, with
/// `ctx` playing the role of the inherited architectural context.
fn run_chain_instance(chain: &DependenceChain, ctx: &mut [u64; 16], mem: &JournaledMemory) -> bool {
    let mut results = Vec::with_capacity(chain.len());
    let value = |s: &ChainSrc, results: &[u64]| -> u64 {
        match s {
            ChainSrc::Imm(v) => *v as u64,
            ChainSrc::LiveIn(r) => ctx[r.index()],
            ChainSrc::Op(i) => results[usize::from(*i)],
        }
    };
    let mut flags = Flags::default();
    for op in chain.ops() {
        let result = match op {
            ChainOp::Alu { op, src1, src2 } => {
                op.eval(value(src1, &results), value(src2, &results))
            }
            ChainOp::Load {
                base,
                index,
                scale,
                disp,
                width,
                signed,
            } => {
                let b = base.as_ref().map_or(0, |s| value(s, &results));
                let x = index.as_ref().map_or(0, |s| value(s, &results));
                let addr = b
                    .wrapping_add(x.wrapping_mul(u64::from(*scale)))
                    .wrapping_add(*disp as u64);
                let raw = mem.read(addr, *width);
                if *signed {
                    width.sign_extend(raw)
                } else {
                    raw
                }
            }
            ChainOp::Cmp { src1, src2 } => {
                flags = Flags::from_cmp(value(src1, &results), value(src2, &results));
                0
            }
        };
        results.push(result);
    }
    let outs: Vec<(ArchReg, u64)> = chain
        .live_outs()
        .iter()
        .map(|(a, s)| (*a, value(s, &results)))
        .collect();
    for (a, v) in outs {
        ctx[a.index()] = v;
    }
    chain.cond.eval(flags)
}

/// Whether the chain is *self-sustaining*: every live-in is either
/// loop-invariant (the table base) or reproduced by the chain's own
/// live-outs — where "reproduced" requires that the loop body's *last*
/// writer of that register is inside the slice (otherwise the chain's
/// live-out is an intermediate value and replay goes stale: the
/// divergence §3 of the paper describes, which the real system catches
/// with a resync).
fn self_sustaining(chain: &DependenceChain, program: &Program) -> bool {
    ArchReg::gprs().all(|a| {
        if chain.live_ins() & (1 << a.index()) == 0 || a == reg::R12 {
            return true;
        }
        if !chain.live_outs().iter().any(|(r, _)| *r == a) {
            return false;
        }
        // Find the last static writer of `a` before the branch.
        let last_writer = program
            .iter()
            .filter(|u| u.pc < chain.branch_pc && u.dsts().contains(a))
            .map(|u| u.pc)
            .max();
        last_writer.is_some_and(|pc| chain.source_pcs.contains(&pc))
    })
}

/// Runs the whole pipeline: functional execution feeding a CEB, chain
/// extraction at iteration `warmup`, then chain replay vs ground truth.
/// Returns `None` when extraction legitimately rejects the slice.
#[allow(clippy::type_complexity)]
fn extraction_predicts_future(
    ops: &[BodyOp],
    cmp_reg: u8,
    cmp_k: i8,
) -> Option<(Vec<bool>, Vec<bool>, bool)> {
    let warmup = 6u32;
    let check = 24u32;
    let (program, branch_pc) = build_loop(ops, cmp_reg, cmp_k, u64::from(warmup + check) + 2);
    let mut m = Machine::new(table_image().into_memory());
    let mut ceb = ChainExtractionBuffer::new(512);

    // Warm up, capturing retired uops.
    let mut seen = 0u32;
    let mut snapshot: Option<[u64; 16]> = None;
    let mut actual = Vec::new();
    while !m.halted() {
        let rec = m.step(&program, None).expect("loop runs");
        let uop = *program.fetch(rec.pc).expect("fetched");
        ceb.push(CebRecord::from_retired(&br_ooo::RetiredUop {
            seq: m.steps(),
            uop,
            rec,
            cycle: m.steps(),
        }));
        if rec.pc == branch_pc {
            seen += 1;
            if seen == warmup {
                snapshot = Some(m.cpu().regs);
            } else if seen > warmup && actual.len() < check as usize {
                actual.push(rec.branch.expect("branch record").actual_taken);
            }
        }
        if snapshot.is_some() && actual.len() >= check as usize {
            break;
        }
    }
    let mut ctx = snapshot?;

    let limits = ExtractLimits {
        max_chain_len: 32,
        local_regs: 24,
    };
    let chain = match extract_chain(&ceb, branch_pc, &BTreeSet::new(), &limits) {
        Ok(c) => c,
        Err(_) => return None, // legitimately rejected (e.g. too long)
    };

    let sustaining = self_sustaining(&chain, &program);
    let predicted: Vec<bool> = (0..actual.len())
        .map(|_| run_chain_instance(&chain, &mut ctx, m.memory()))
        .collect();
    Some((predicted, actual, sustaining))
}

/// The headline invariant, split by chain class:
/// * self-sustaining chains (live-ins reproduced by live-outs) must
///   predict the branch's entire future exactly;
/// * all chains must predict at least the *first* future instance
///   (their live-ins are exact at the synchronization point).
#[test]
fn chain_replay_predicts_branch_future() {
    for case in 0..48u64 {
        let mut rng = Rng::new(0xfeed_f00d ^ (case << 32) ^ case);
        let n_ops = 1 + rng.below(7) as usize;
        let ops: Vec<BodyOp> = (0..n_ops).map(|_| body_op(&mut rng)).collect();
        let cmp_reg = rng.next() as u8;
        let cmp_k = rng.next() as i8;
        if let Some((predicted, actual, sustaining)) =
            extraction_predicts_future(&ops, cmp_reg, cmp_k)
        {
            if sustaining {
                assert_eq!(predicted, actual, "case {case}: {ops:?}");
            } else {
                assert_eq!(
                    predicted[0], actual[0],
                    "case {case}: first instance must be exact: {ops:?}"
                );
            }
        }
    }
}

/// The property must not pass vacuously: this fixed case extracts.
#[test]
fn deterministic_case_extracts_and_predicts() {
    let ops = vec![
        BodyOp::Add(0, 0, 7),
        BodyOp::Load(1, 0),
        BodyOp::Xor(2, 2, 1),
    ];
    let (predicted, actual, sustaining) =
        extraction_predicts_future(&ops, 1, 40).expect("this case must extract");
    assert!(sustaining, "r3 feeds itself: the chain is self-sustaining");
    assert_eq!(predicted.len(), 24);
    assert_eq!(predicted, actual);
    // The branch must actually vary, or the test proves nothing.
    assert!(
        actual.iter().any(|t| *t) && actual.iter().any(|t| !*t),
        "branch is degenerate: {actual:?}"
    );
}

/// Scratch reuse is observationally invisible: running extractions
/// through one long-lived [`ExtractScratch`] — including attempts that
/// *reject* partway through and leave the buffers mid-state — must
/// produce exactly the chains a fresh-buffer [`extract_chain`] produces.
/// This is the contract the engine relies on when it reuses one scratch
/// across every extraction attempt of a run.
#[test]
fn scratch_reuse_matches_fresh_buffers() {
    let mut scratch = ExtractScratch::default();
    let mut compared = 0;
    for case in 0..24u64 {
        let mut rng = Rng::new(0xabad_cafe ^ (case << 24) ^ case);
        let n_ops = 1 + rng.below(7) as usize;
        let ops: Vec<BodyOp> = (0..n_ops).map(|_| body_op(&mut rng)).collect();
        let (program, branch_pc) = build_loop(&ops, rng.next() as u8, rng.next() as i8, 40);

        let mut m = Machine::new(table_image().into_memory());
        let mut ceb = ChainExtractionBuffer::new(512);
        while !m.halted() && m.steps() < 2_000 {
            let rec = m.step(&program, None).expect("loop runs");
            let uop = *program.fetch(rec.pc).expect("fetched");
            ceb.push(CebRecord::from_retired(&br_ooo::RetiredUop {
                seq: m.steps(),
                uop,
                rec,
                cycle: m.steps(),
            }));
        }

        let limits = ExtractLimits {
            max_chain_len: 32,
            local_regs: 24,
        };
        let ag = BTreeSet::new();
        // Interleave rejecting attempts between two real extractions:
        // a missing target aborts at the walk's first stage, and a
        // one-uop cap aborts mid-walk, both leaving the scratch dirty.
        let tight = ExtractLimits {
            max_chain_len: 1,
            local_regs: 24,
        };
        let first = extract_chain_with(&mut scratch, &ceb, branch_pc, &ag, &limits);
        assert!(
            extract_chain_with(&mut scratch, &ceb, 0xdead_0000, &ag, &limits).is_err(),
            "absent target must reject"
        );
        let mid = extract_chain_with(&mut scratch, &ceb, branch_pc, &ag, &tight);
        let second = extract_chain_with(&mut scratch, &ceb, branch_pc, &ag, &limits);

        let reference = extract_chain(&ceb, branch_pc, &ag, &limits);
        assert_eq!(first, reference, "case {case}: first reuse diverged");
        assert_eq!(second, reference, "case {case}: post-reject reuse diverged");
        if let Ok(c) = &reference {
            // The tight-cap interleave must reject whenever the real
            // chain is longer than one uop (it always is: cmp + branch
            // feeders), or match the reference otherwise.
            if c.len() > 1 {
                assert_eq!(mid, Err(ExtractOutcome::TooLong), "case {case}");
            }
            compared += 1;
        }
    }
    assert!(
        compared >= 12,
        "too few successful extractions to exercise reuse: {compared}/24"
    );
}

/// Measures non-vacuity across a fixed sample of generated cases: most
/// random loops must produce extractable chains.
#[test]
fn extraction_rate_is_high() {
    let mut x = 42u64;
    let mut rng = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut extracted = 0;
    let total = 40;
    for _ in 0..total {
        let n = 1 + (rng() % 6) as usize;
        let ops: Vec<BodyOp> = (0..n)
            .map(|_| match rng() % 5 {
                0 => BodyOp::Add((rng() % 4) as u8, (rng() % 4) as u8, (rng() % 9) as i8),
                1 => BodyOp::Xor((rng() % 4) as u8, (rng() % 4) as u8, (rng() % 4) as u8),
                2 => BodyOp::Shr((rng() % 4) as u8, (rng() % 4) as u8, 1 + (rng() % 4) as u8),
                3 => BodyOp::Mul3((rng() % 4) as u8, (rng() % 4) as u8),
                _ => BodyOp::Load((rng() % 4) as u8, (rng() % 4) as u8),
            })
            .collect();
        if extraction_predicts_future(&ops, (rng() % 4) as u8, (rng() % 64) as i8).is_some() {
            extracted += 1;
        }
    }
    assert!(
        extracted > total / 2,
        "too many rejections for the property to mean anything: {extracted}/{total}"
    );
}
