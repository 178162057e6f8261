//! SPEC CPU2006 Integer-like kernels.

use br_isa::{reg, Cond, MemOperand, MemoryImage, ProgramBuilder};

use crate::util::{emit_do_work, emit_xorshift, pow2_scale, XorShift64};
use crate::workload::{Suite, Workload, WorkloadImage, WorkloadParams};

const TABLE_A: u64 = 0x40_0000;
const TABLE_B: u64 = 0x50_0000;

/// `astar_06`: grid pathfinding. Loads a random cell's terrain cost and
/// branches on passability; a guarded branch consults the heuristic map.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Astar06;

impl Workload for Astar06 {
    fn name(&self) -> &'static str {
        "astar_06"
    }

    fn suite(&self) -> Suite {
        Suite::Spec2006
    }

    fn description(&self) -> &'static str {
        "grid expansion: branch on loaded terrain cost, guarded heuristic test"
    }

    fn build(&self, params: &WorkloadParams) -> WorkloadImage {
        let n = pow2_scale(params.scale, 256);
        let mut rng = XorShift64::new(params.seed ^ 0x6173_7436);
        let mut mem = MemoryImage::new();
        let grid: Vec<u64> = (0..n).map(|_| rng.below(16)).collect();
        mem.write_u64_slice(TABLE_A, &grid);
        let heur: Vec<u64> = (0..n).map(|_| rng.below(256)).collect();
        mem.write_u64_slice(TABLE_B, &heur);

        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R12, TABLE_A as i64);
        b.mov_imm(reg::R14, TABLE_B as i64);
        b.mov_imm(reg::R10, params.seed as i64);
        let top = b.here();
        emit_xorshift(&mut b, reg::R10, reg::R11);
        b.and(reg::R5, reg::R10, (n - 1) as i64);
        // if (grid[pos] < 8) — passable, ~50%
        b.load(reg::R6, MemOperand::base_index(reg::R12, reg::R5, 8, 0));
        b.cmpi(reg::R6, 8);
        b.br(Cond::Ge, skip);
        // guarded: if (heur[pos] & 1) open-list insert
        b.load(reg::R7, MemOperand::base_index(reg::R14, reg::R5, 8, 0));
        b.and(reg::R7, reg::R7, 1i64);
        b.cmpi(reg::R7, 0);
        b.br(Cond::Eq, skip);
        b.addi(reg::R2, reg::R2, 1);
        b.bind(skip);
        emit_do_work(&mut b, 4);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, params.iterations as i64);
        b.br(Cond::Ne, top);
        b.halt();
        WorkloadImage {
            program: b.build().expect("astar_06 assembles").into(),
            memory: mem,
        }
    }
}

/// `mcf_06`: like `mcf_17` but with a *two-deep* dependent-load chain
/// (node → arc → cost), stressing chain timeliness.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Mcf06;

impl Workload for Mcf06 {
    fn name(&self) -> &'static str {
        "mcf_06"
    }

    fn suite(&self) -> Suite {
        Suite::Spec2006
    }

    fn description(&self) -> &'static str {
        "network simplex: two dependent loads feeding the cost-sign branch"
    }

    fn build(&self, params: &WorkloadParams) -> WorkloadImage {
        // Like mcf_17: a large, cache-hostile footprint.
        let n = pow2_scale(params.scale * 16, 1024);
        let mut rng = XorShift64::new(params.seed ^ 0x6d63_6636);
        let mut mem = MemoryImage::new();
        let idx: Vec<u64> = (0..n).map(|_| rng.below(n)).collect();
        mem.write_u64_slice(TABLE_A, &idx);
        let costs: Vec<u64> = (0..n)
            .map(|_| (rng.next_u64() as i64 >> 1) as u64)
            .collect();
        mem.write_u64_slice(TABLE_B, &costs);

        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R12, TABLE_A as i64);
        b.mov_imm(reg::R14, TABLE_B as i64);
        b.mov_imm(reg::R10, params.seed as i64);
        let top = b.here();
        emit_xorshift(&mut b, reg::R10, reg::R11);
        b.and(reg::R5, reg::R10, (n - 1) as i64);
        // arc = idx[node]; cost = costs[arc]
        b.load(reg::R6, MemOperand::base_index(reg::R12, reg::R5, 8, 0));
        b.load(reg::R7, MemOperand::base_index(reg::R14, reg::R6, 8, 0));
        b.cmpi(reg::R7, 0);
        b.br(Cond::Ge, skip);
        b.addi(reg::R2, reg::R2, 1);
        b.bind(skip);
        emit_do_work(&mut b, 5);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, params.iterations as i64);
        b.br(Cond::Ne, top);
        b.halt();
        WorkloadImage {
            program: b.build().expect("mcf_06 assembles").into(),
            memory: mem,
        }
    }
}

/// `gcc_06`: IR-node dispatch. Loads a node kind (0..7) and resolves it
/// with a cascade of three compares — the first branches *guard* the
/// later ones, giving a rich affector/guard web.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Gcc06;

impl Workload for Gcc06 {
    fn name(&self) -> &'static str {
        "gcc_06"
    }

    fn suite(&self) -> Suite {
        Suite::Spec2006
    }

    fn description(&self) -> &'static str {
        "IR dispatch: compare cascade over a loaded node kind (guard web)"
    }

    fn build(&self, params: &WorkloadParams) -> WorkloadImage {
        let n = pow2_scale(params.scale, 256);
        let mut rng = XorShift64::new(params.seed ^ 0x6763_6336);
        let mut mem = MemoryImage::new();
        let kinds: Vec<u64> = (0..n).map(|_| rng.below(8)).collect();
        mem.write_u64_slice(TABLE_A, &kinds);

        let mut b = ProgramBuilder::new();
        let done = b.new_label();
        let c1 = b.new_label();
        let c2 = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R12, TABLE_A as i64);
        b.mov_imm(reg::R10, params.seed as i64);
        let top = b.here();
        emit_xorshift(&mut b, reg::R10, reg::R11);
        b.and(reg::R5, reg::R10, (n - 1) as i64);
        b.load(reg::R6, MemOperand::base_index(reg::R12, reg::R5, 8, 0));
        // kind == 0 ?
        b.cmpi(reg::R6, 0);
        b.br(Cond::Ne, c1);
        b.addi(reg::R2, reg::R2, 1);
        b.jmp(done);
        b.bind(c1);
        // kind < 3 ?
        b.cmpi(reg::R6, 3);
        b.br(Cond::Ge, c2);
        b.addi(reg::R3, reg::R3, 1);
        b.jmp(done);
        b.bind(c2);
        // kind < 6 ?
        b.cmpi(reg::R6, 6);
        b.br(Cond::Ge, done);
        b.addi(reg::R4, reg::R4, 1);
        b.bind(done);
        emit_do_work(&mut b, 4);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, params.iterations as i64);
        b.br(Cond::Ne, top);
        b.halt();
        WorkloadImage {
            program: b.build().expect("gcc_06 assembles").into(),
            memory: mem,
        }
    }
}

/// `gobmk_06`: GO board reading with *writes to the board* — the branch's
/// source data is modified by earlier guarded stores, exercising the
/// store→load pair handling in chain extraction.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Gobmk06;

impl Workload for Gobmk06 {
    fn name(&self) -> &'static str {
        "gobmk_06"
    }

    fn suite(&self) -> Suite {
        Suite::Spec2006
    }

    fn description(&self) -> &'static str {
        "board reading: branch on a board cell that guarded stores mutate"
    }

    fn build(&self, params: &WorkloadParams) -> WorkloadImage {
        let n = pow2_scale(params.scale, 256);
        let mut rng = XorShift64::new(params.seed ^ 0x676f_6236);
        let mut mem = MemoryImage::new();
        let board: Vec<u64> = (0..n).map(|_| rng.below(4)).collect();
        mem.write_u64_slice(TABLE_A, &board);

        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R12, TABLE_A as i64);
        b.mov_imm(reg::R10, params.seed as i64);
        let top = b.here();
        emit_xorshift(&mut b, reg::R10, reg::R11);
        b.and(reg::R5, reg::R10, (n - 1) as i64);
        // v = board[sq]; if ((v & 3) == 0) — stone placement
        b.load(reg::R6, MemOperand::base_index(reg::R12, reg::R5, 8, 0));
        b.and(reg::R7, reg::R6, 3i64);
        b.cmpi(reg::R7, 0);
        b.br(Cond::Ne, skip);
        // Guarded store: mutate a neighbouring cell (affects future reads).
        b.shr(reg::R4, reg::R10, 23i64);
        b.and(reg::R4, reg::R4, (n - 1) as i64);
        b.addi(reg::R6, reg::R6, 1);
        b.store(MemOperand::base_index(reg::R12, reg::R4, 8, 0), reg::R6);
        b.addi(reg::R2, reg::R2, 1);
        b.bind(skip);
        emit_do_work(&mut b, 4);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, params.iterations as i64);
        b.br(Cond::Ne, top);
        b.halt();
        WorkloadImage {
            program: b.build().expect("gobmk_06 assembles").into(),
            memory: mem,
        }
    }
}

/// `bzip2_06`: block-sort comparisons. Loads two elements at
/// pseudo-random positions and branches on their order; the guarded path
/// swaps them (stores), perturbing future comparisons.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Bzip206;

impl Workload for Bzip206 {
    fn name(&self) -> &'static str {
        "bzip2_06"
    }

    fn suite(&self) -> Suite {
        Suite::Spec2006
    }

    fn description(&self) -> &'static str {
        "block sort: order compare of two loaded keys with guarded swap"
    }

    fn build(&self, params: &WorkloadParams) -> WorkloadImage {
        let n = pow2_scale(params.scale, 256);
        let mut rng = XorShift64::new(params.seed ^ 0x627a_3036);
        let mut mem = MemoryImage::new();
        let keys: Vec<u64> = (0..n).map(|_| rng.below(1 << 30)).collect();
        mem.write_u64_slice(TABLE_A, &keys);

        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R12, TABLE_A as i64);
        b.mov_imm(reg::R10, params.seed as i64);
        let top = b.here();
        emit_xorshift(&mut b, reg::R10, reg::R11);
        b.and(reg::R5, reg::R10, (n - 1) as i64);
        b.shr(reg::R6, reg::R10, 29i64);
        b.and(reg::R6, reg::R6, (n - 1) as i64);
        // a = keys[i]; b = keys[j]; if (a < b) swap
        b.load(reg::R7, MemOperand::base_index(reg::R12, reg::R5, 8, 0));
        b.load(reg::R4, MemOperand::base_index(reg::R12, reg::R6, 8, 0));
        b.cmp(reg::R7, reg::R4);
        b.br(Cond::Uge, skip);
        b.store(MemOperand::base_index(reg::R12, reg::R5, 8, 0), reg::R4);
        b.store(MemOperand::base_index(reg::R12, reg::R6, 8, 0), reg::R7);
        b.addi(reg::R2, reg::R2, 1);
        b.bind(skip);
        emit_do_work(&mut b, 3);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, params.iterations as i64);
        b.br(Cond::Ne, top);
        b.halt();
        WorkloadImage {
            program: b.build().expect("bzip2_06 assembles").into(),
            memory: mem,
        }
    }
}

/// `sjeng_06`: chess evaluation. The branch compares the *difference* of
/// two table loads — a slightly longer arithmetic slice than a plain
/// probe.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Sjeng06;

impl Workload for Sjeng06 {
    fn name(&self) -> &'static str {
        "sjeng_06"
    }

    fn suite(&self) -> Suite {
        Suite::Spec2006
    }

    fn description(&self) -> &'static str {
        "evaluation: branch on the difference of two loaded piece values"
    }

    fn build(&self, params: &WorkloadParams) -> WorkloadImage {
        let n = pow2_scale(params.scale, 256);
        let mut rng = XorShift64::new(params.seed ^ 0x736a_3036);
        let mut mem = MemoryImage::new();
        let us: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
        mem.write_u64_slice(TABLE_A, &us);
        let them: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
        mem.write_u64_slice(TABLE_B, &them);

        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R12, TABLE_A as i64);
        b.mov_imm(reg::R14, TABLE_B as i64);
        b.mov_imm(reg::R10, params.seed as i64);
        let top = b.here();
        emit_xorshift(&mut b, reg::R10, reg::R11);
        b.and(reg::R5, reg::R10, (n - 1) as i64);
        b.shr(reg::R6, reg::R10, 31i64);
        b.and(reg::R6, reg::R6, (n - 1) as i64);
        // score = us[i] - them[j]; if (score < 0) prune
        b.load(reg::R7, MemOperand::base_index(reg::R12, reg::R5, 8, 0));
        b.load(reg::R4, MemOperand::base_index(reg::R14, reg::R6, 8, 0));
        b.sub(reg::R7, reg::R7, reg::R4);
        b.cmpi(reg::R7, 0);
        b.br(Cond::Ge, skip);
        b.addi(reg::R2, reg::R2, 1);
        b.bind(skip);
        emit_do_work(&mut b, 5);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, params.iterations as i64);
        b.br(Cond::Ne, top);
        b.halt();
        WorkloadImage {
            program: b.build().expect("sjeng_06 assembles").into(),
            memory: mem,
        }
    }
}

/// `omnetpp_06`: message scheduling with an accumulated virtual clock; the
/// branch tests a bit of the accumulated (data-dependent) time.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Omnetpp06;

impl Workload for Omnetpp06 {
    fn name(&self) -> &'static str {
        "omnetpp_06"
    }

    fn suite(&self) -> Suite {
        Suite::Spec2006
    }

    fn description(&self) -> &'static str {
        "scheduler: branch on a bit of an accumulated loaded delay"
    }

    fn build(&self, params: &WorkloadParams) -> WorkloadImage {
        let n = pow2_scale(params.scale, 256);
        let mut rng = XorShift64::new(params.seed ^ 0x6f6d_3036);
        let mut mem = MemoryImage::new();
        let delays: Vec<u64> = (0..n).map(|_| rng.below(512)).collect();
        mem.write_u64_slice(TABLE_A, &delays);

        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R3, 0); // virtual clock
        b.mov_imm(reg::R12, TABLE_A as i64);
        b.mov_imm(reg::R10, params.seed as i64);
        let top = b.here();
        emit_xorshift(&mut b, reg::R10, reg::R11);
        b.and(reg::R5, reg::R10, (n - 1) as i64);
        // clock += delays[msg]; if (clock & 0x100) deliver
        b.load(reg::R6, MemOperand::base_index(reg::R12, reg::R5, 8, 0));
        b.add(reg::R3, reg::R3, reg::R6);
        b.and(reg::R7, reg::R3, 0x100i64);
        b.cmpi(reg::R7, 0);
        b.br(Cond::Eq, skip);
        b.addi(reg::R2, reg::R2, 1);
        b.bind(skip);
        emit_do_work(&mut b, 4);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, params.iterations as i64);
        b.br(Cond::Ne, top);
        b.halt();
        WorkloadImage {
            program: b.build().expect("omnetpp_06 assembles").into(),
            memory: mem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_isa::Machine;

    #[test]
    fn gcc_cascade_covers_all_arms() {
        let image = Gcc06.build(&WorkloadParams {
            scale: 256,
            iterations: 800,
            seed: 21,
        });
        let mut m = Machine::new(image.memory.into_memory());
        m.run(&image.program, 2_000_000).unwrap();
        // kind==0 in r2, kind in 1..3 in r3, kind in 3..6 in r4.
        let (r2, r3, r4) = (m.reg(reg::R2), m.reg(reg::R3), m.reg(reg::R4));
        assert!(r2 > 40 && r3 > 100 && r4 > 150, "arms: {r2} {r3} {r4}");
        let rest = 800 - r2 - r3 - r4;
        assert!(rest > 100, "default arm starved: {rest}");
    }

    #[test]
    fn bzip2_swaps_progress_toward_sortedness() {
        let image = Bzip206.build(&WorkloadParams {
            scale: 128,
            iterations: 600,
            seed: 13,
        });
        let mut m = Machine::new(image.memory.into_memory());
        m.run(&image.program, 3_000_000).unwrap();
        assert!(m.reg(reg::R2) > 100, "swap branch should fire");
    }

    #[test]
    fn mcf06_has_dependent_loads() {
        let image = Mcf06.build(&WorkloadParams::default());
        // Two loads where the second's index register is the first's dst.
        let mut found = false;
        let uops: Vec<_> = image.program.iter().collect();
        for w in uops.windows(2) {
            if let (br_isa::UopKind::Load { dst, .. }, br_isa::UopKind::Load { addr, .. }) =
                (w[0].kind, w[1].kind)
            {
                if addr.index == Some(dst) || addr.base == Some(dst) {
                    found = true;
                }
            }
        }
        assert!(found, "dependent load pair missing");
    }
}
