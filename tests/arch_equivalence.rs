//! Property-based architectural equivalence: for randomly generated
//! programs, the out-of-order core (with speculation, wrong-path
//! execution, recovery, and optionally Branch Runahead steering fetch)
//! must compute exactly the same architectural state as the functional
//! emulator. This is the strongest cross-crate invariant in the system.

use branch_runahead::isa::{
    reg, ArchReg, Cond, Machine, MemOperand, MemoryImage, Program, ProgramBuilder,
};
use branch_runahead::mem::{MemoryConfig, MemorySystem};
use branch_runahead::ooo::{Core, CoreConfig, NullHooks};
use branch_runahead::predictor::Bimodal;
use branch_runahead::runahead::{BranchRunahead, BranchRunaheadConfig};

/// One loop-body operation in the generated program.
#[derive(Clone, Debug)]
enum GenOp {
    Add(u8, u8, i16),
    Sub(u8, u8, u8),
    Mul(u8, u8),
    Xor(u8, u8, u8),
    Shift(u8, u8, u8),
    Load(u8, u8),
    Store(u8, u8),
    /// A data-dependent skip: `if (reg & mask) skip next ops`.
    Branch(u8, u8, u8),
    /// A forward `jmp` over the next ops: taken unconditional control
    /// flow, whose skipped block must never take effect.
    Jump(u8),
}

const GPRS: [ArchReg; 6] = [reg::R2, reg::R3, reg::R4, reg::R5, reg::R6, reg::R7];

fn gpr(i: u8) -> ArchReg {
    GPRS[i as usize % GPRS.len()]
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

fn gen_op(rng: &mut Rng) -> GenOp {
    // Weights 3×8 : 2, as in the original strategy.
    match rng.below(26) {
        0..=2 => GenOp::Add(rng.next() as u8, rng.next() as u8, rng.next() as i16),
        3..=5 => GenOp::Sub(rng.next() as u8, rng.next() as u8, rng.next() as u8),
        6..=8 => GenOp::Mul(rng.next() as u8, rng.next() as u8),
        9..=11 => GenOp::Xor(rng.next() as u8, rng.next() as u8, rng.next() as u8),
        12..=14 => GenOp::Shift(rng.next() as u8, rng.next() as u8, rng.below(6) as u8),
        15..=17 => GenOp::Load(rng.next() as u8, rng.next() as u8),
        18..=20 => GenOp::Store(rng.next() as u8, rng.next() as u8),
        21..=23 => GenOp::Branch(
            rng.next() as u8,
            1 + rng.below(7) as u8,
            1 + rng.below(3) as u8,
        ),
        _ => GenOp::Jump(1 + rng.below(3) as u8),
    }
}

/// Builds a bounded program: `trips` iterations of a loop whose body is
/// the generated op list. Memory accesses are masked into a small window
/// so loads and stores alias frequently (stressing forwarding).
fn build_program(ops: &[GenOp], trips: u8) -> Program {
    let mut b = ProgramBuilder::new();
    b.mov_imm(reg::R0, i64::from(trips));
    b.mov_imm(reg::R12, 0x1000); // data window base
    for (i, r) in GPRS.iter().enumerate() {
        b.mov_imm(*r, (i as i64 + 1) * 0x0001_2345);
    }
    let top = b.here();
    let mut pending_skip: Option<(branch_runahead::isa::Label, u8)> = None;
    for op in ops {
        if let Some((label, remaining)) = pending_skip {
            if remaining == 0 {
                b.bind(label);
                pending_skip = None;
            } else {
                pending_skip = Some((label, remaining - 1));
            }
        }
        match *op {
            GenOp::Add(d, s, i) => {
                b.addi(gpr(d), gpr(s), i64::from(i));
            }
            GenOp::Sub(d, a, s) => {
                b.sub(gpr(d), gpr(a), gpr(s));
            }
            GenOp::Mul(d, s) => {
                b.mul(gpr(d), gpr(s), 3i64);
            }
            GenOp::Xor(d, a, s) => {
                b.xor(gpr(d), gpr(a), gpr(s));
            }
            GenOp::Shift(d, s, k) => {
                b.shr(gpr(d), gpr(s), i64::from(k));
            }
            GenOp::Load(d, a) => {
                b.and(reg::R14, gpr(a), 0xf8i64);
                b.load(gpr(d), MemOperand::base_index(reg::R12, reg::R14, 1, 0));
            }
            GenOp::Store(v, a) => {
                b.and(reg::R14, gpr(a), 0xf8i64);
                b.store(MemOperand::base_index(reg::R12, reg::R14, 1, 0), gpr(v));
            }
            GenOp::Branch(r, m, n) => {
                if pending_skip.is_none() {
                    let l = b.new_label();
                    b.and(reg::R14, gpr(r), i64::from(m));
                    b.cmpi(reg::R14, 0);
                    b.br(Cond::Eq, l);
                    pending_skip = Some((l, n));
                }
            }
            GenOp::Jump(n) => {
                if pending_skip.is_none() {
                    let l = b.new_label();
                    b.jmp(l);
                    pending_skip = Some((l, n));
                }
            }
        }
    }
    if let Some((label, _)) = pending_skip {
        b.bind(label);
    }
    b.subi(reg::R0, reg::R0, 1);
    b.cmpi(reg::R0, 0);
    b.br(Cond::Ne, top);
    b.halt();
    b.build().expect("generated program assembles")
}

fn reference_state(program: &Program) -> Vec<u64> {
    let mut m = Machine::new(MemoryImage::new().into_memory());
    m.run(program, 5_000_000).expect("reference run");
    assert!(m.halted(), "reference must halt");
    GPRS.iter().map(|r| m.reg(*r)).collect()
}

fn core_state(program: &Program, with_br: bool) -> Vec<u64> {
    let machine = Machine::new(MemoryImage::new().into_memory());
    let mut core = Core::new(
        CoreConfig::default(),
        program.clone(),
        machine,
        Box::new(Bimodal::new(10)), // weak predictor => constant recovery stress
    );
    let mut mem = MemorySystem::new(MemoryConfig::default());
    let mut br = with_br.then(|| BranchRunahead::new(BranchRunaheadConfig::mini(), 4));
    for cycle in 0..3_000_000u64 {
        let resps = mem.tick(cycle);
        let report = match &mut br {
            Some(b) => {
                let report = core.tick(&resps, &mut mem, b);
                b.tick(cycle, core.machine(), &mut mem, &resps, &report);
                report
            }
            None => core.tick(&resps, &mut mem, &mut NullHooks),
        };
        if report.done {
            let m = core.machine();
            return GPRS.iter().map(|r| m.reg(*r)).collect();
        }
    }
    panic!("core did not finish");
}

#[test]
fn core_matches_functional_reference() {
    for case in 0..24u64 {
        let mut rng = Rng::new(0xa5a5_5a5a ^ (case << 32) ^ case);
        let n_ops = 1 + rng.below(23) as usize;
        let ops: Vec<GenOp> = (0..n_ops).map(|_| gen_op(&mut rng)).collect();
        let trips = 1 + rng.below(23) as u8;
        let program = build_program(&ops, trips);
        let expected = reference_state(&program);
        assert_eq!(
            core_state(&program, false),
            expected,
            "case {case}: {ops:?} trips={trips}"
        );
    }
}

#[test]
fn core_with_branch_runahead_matches_reference() {
    for case in 0..24u64 {
        let mut rng = Rng::new(0x1357_9bdf ^ (case << 32) ^ case);
        let n_ops = 1 + rng.below(19) as usize;
        let ops: Vec<GenOp> = (0..n_ops).map(|_| gen_op(&mut rng)).collect();
        let trips = 1 + rng.below(15) as u8;
        let program = build_program(&ops, trips);
        let expected = reference_state(&program);
        assert_eq!(
            core_state(&program, true),
            expected,
            "case {case}: {ops:?} trips={trips}"
        );
    }
}
