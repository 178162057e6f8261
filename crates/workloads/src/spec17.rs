//! SPEC CPU2017 Integer Speed-like kernels.
//!
//! Each kernel mirrors the dominant hard-to-predict branch structure of
//! one benchmark (as characterised in the paper's §3 and Figure 1), built
//! on pseudo-random data so the branch outcomes carry no history
//! correlation.

use br_isa::{reg, Cond, MemOperand, MemoryImage, ProgramBuilder, Width};

use crate::util::{emit_do_work, emit_xorshift, pow2_scale, XorShift64};
use crate::workload::{Suite, Workload, WorkloadImage, WorkloadParams};

const TABLE_A: u64 = 0x10_0000;
const TABLE_B: u64 = 0x20_0000;
const TABLE_C: u64 = 0x30_0000;

/// `mcf_17`: minimum-cost-flow arc scanning. The hot loop chases a
/// permutation (pointer-like traversal) and branches on the sign of the
/// arc's reduced cost — a value loaded from memory with no history
/// correlation. A second, guarded branch checks residual capacity.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Mcf17;

impl Workload for Mcf17 {
    fn name(&self) -> &'static str {
        "mcf_17"
    }

    fn suite(&self) -> Suite {
        Suite::Spec2017
    }

    fn description(&self) -> &'static str {
        "arc scan: pointer-chase + branch on loaded cost sign, guarded capacity check"
    }

    fn build(&self, params: &WorkloadParams) -> WorkloadImage {
        // mcf is memory-bound: a large footprint keeps the arc data out of
        // the L1 and partially out of the L2.
        let n = pow2_scale(params.scale * 16, 1024);
        let mut rng = XorShift64::new(params.seed ^ 0x6d63_6631);
        let mut mem = MemoryImage::new();
        // A random permutation for pointer chasing.
        let mut perm: Vec<u64> = (0..n).collect();
        for i in (1..n as usize).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        mem.write_u64_slice(TABLE_A, &perm);
        // Reduced costs: signed, ~half negative.
        let costs: Vec<u64> = (0..n)
            .map(|_| (rng.next_u64() as i64 >> 1) as u64)
            .collect();
        mem.write_u64_slice(TABLE_B, &costs);
        // Residual capacities 0..15.
        let caps: Vec<u64> = (0..n).map(|_| rng.below(16)).collect();
        mem.write_u64_slice(TABLE_C, &caps);

        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R3, 1); // current arc
        b.mov_imm(reg::R12, TABLE_A as i64);
        b.mov_imm(reg::R14, TABLE_B as i64);
        b.mov_imm(reg::R15, TABLE_C as i64);
        let top = b.here();
        // arc = perm[arc]
        b.load(reg::R3, MemOperand::base_index(reg::R12, reg::R3, 8, 0));
        // cost = costs[arc]; if (cost < 0) — hard branch
        b.load(reg::R6, MemOperand::base_index(reg::R14, reg::R3, 8, 0));
        b.cmpi(reg::R6, 0);
        b.br(Cond::Ge, skip);
        // guarded: cap = caps[arc]; if (cap > 7) basket++
        b.load(reg::R7, MemOperand::base_index(reg::R15, reg::R3, 8, 0));
        b.cmpi(reg::R7, 7);
        b.br(Cond::Le, skip);
        b.addi(reg::R2, reg::R2, 1);
        b.bind(skip);
        emit_do_work(&mut b, 4);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, params.iterations as i64);
        b.br(Cond::Ne, top);
        b.halt();
        WorkloadImage {
            program: b.build().expect("mcf_17 assembles").into(),
            memory: mem,
        }
    }
}

/// `leela_17`: the paper's Figure 4 motivating example. Random probes of a
/// GO board; branch A tests board emptiness, branch B (guarded by A) tests
/// a second board property.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Leela17;

impl Workload for Leela17 {
    fn name(&self) -> &'static str {
        "leela_17"
    }

    fn suite(&self) -> Suite {
        Suite::Spec2017
    }

    fn description(&self) -> &'static str {
        "GO board probe (Fig. 4): empty-square branch guarding a self-atari branch"
    }

    fn build(&self, params: &WorkloadParams) -> WorkloadImage {
        let n = pow2_scale(params.scale, 256);
        let mut rng = XorShift64::new(params.seed ^ 0x6c65_656c);
        let mut mem = MemoryImage::new();
        // Board values 0..2; 2 == EMPTY.
        let board: Vec<u64> = (0..n).map(|_| rng.below(3)).collect();
        mem.write_u64_slice(TABLE_A, &board);
        // Atari counts 0..7.
        let atari: Vec<u64> = (0..n).map(|_| rng.below(8)).collect();
        mem.write_u64_slice(TABLE_B, &atari);

        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R12, TABLE_A as i64);
        b.mov_imm(reg::R14, TABLE_B as i64);
        b.mov_imm(reg::R10, params.seed as i64);
        let top = b.here();
        emit_xorshift(&mut b, reg::R10, reg::R11);
        b.and(reg::R5, reg::R10, (n - 1) as i64);
        // Branch A: board[sq] == EMPTY?
        b.load(reg::R6, MemOperand::base_index(reg::R12, reg::R5, 8, 0));
        b.cmpi(reg::R6, 2);
        b.br(Cond::Ne, skip);
        // Branch B (guarded by A): not self-atari?
        b.load(reg::R7, MemOperand::base_index(reg::R14, reg::R5, 8, 0));
        b.sar(reg::R4, reg::R7, 1i64);
        b.and(reg::R4, reg::R4, 3i64);
        b.cmpi(reg::R4, 1);
        b.br(Cond::Le, skip);
        b.addi(reg::R2, reg::R2, 1); // do_work() entered
        b.bind(skip);
        emit_do_work(&mut b, 5);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, params.iterations as i64);
        b.br(Cond::Ne, top);
        b.halt();
        WorkloadImage {
            program: b.build().expect("leela_17 assembles").into(),
            memory: mem,
        }
    }
}

/// `xz_17`: LZMA-style match scanning. An inner loop compares bytes at two
/// pseudo-random windows; its exit is data-dependent with a short,
/// erratic trip count — the classic hard inner-loop branch.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Xz17;

impl Workload for Xz17 {
    fn name(&self) -> &'static str {
        "xz_17"
    }

    fn suite(&self) -> Suite {
        Suite::Spec2017
    }

    fn description(&self) -> &'static str {
        "match-length scan: byte-compare loop with data-dependent exit"
    }

    fn build(&self, params: &WorkloadParams) -> WorkloadImage {
        let n = pow2_scale(params.scale * 4, 1024);
        let mut rng = XorShift64::new(params.seed ^ 0x787a_3137);
        let mut mem = MemoryImage::new();
        // Byte data with ~50% chance of matching at equal offsets: use a
        // 2-symbol alphabet so match runs are geometric.
        let data: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 1) as u8).collect();
        mem.write_bytes(TABLE_A, &data);

        let mut b = ProgramBuilder::new();
        let outer_end = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R12, TABLE_A as i64);
        b.mov_imm(reg::R10, params.seed as i64);
        let top = b.here();
        // Two random windows p (r5), q (r6).
        emit_xorshift(&mut b, reg::R10, reg::R11);
        b.and(reg::R5, reg::R10, (n / 2 - 1) as i64);
        b.shr(reg::R6, reg::R10, 17i64);
        b.and(reg::R6, reg::R6, (n / 2 - 1) as i64);
        b.mov_imm(reg::R4, 0); // k
        let scan = b.here();
        let mismatch = b.new_label();
        // data[p+k] vs data[q+k]
        b.add(reg::R3, reg::R5, reg::R4);
        b.load_w(
            reg::R7,
            MemOperand::base_index(reg::R12, reg::R3, 1, 0),
            Width::B1,
            false,
        );
        b.add(reg::R3, reg::R6, reg::R4);
        b.load_w(
            reg::R15,
            MemOperand::base_index(reg::R12, reg::R3, 1, 0),
            Width::B1,
            false,
        );
        b.cmp(reg::R7, reg::R15);
        b.br(Cond::Ne, mismatch); // hard: geometric exit
        b.addi(reg::R4, reg::R4, 1);
        b.cmpi(reg::R4, 8);
        b.br(Cond::Ne, scan);
        b.bind(mismatch);
        b.add(reg::R2, reg::R2, reg::R4); // total match length
        emit_do_work(&mut b, 3);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, params.iterations as i64);
        b.br(Cond::Ne, top);
        b.bind(outer_end);
        b.halt();
        WorkloadImage {
            program: b.build().expect("xz_17 assembles").into(),
            memory: mem,
        }
    }
}

/// `deepsjeng_17`: chess transposition-table probing. A hash lookup loads
/// an entry whose bound flag decides the branch; a guarded branch compares
/// the stored score.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Deepsjeng17;

impl Workload for Deepsjeng17 {
    fn name(&self) -> &'static str {
        "deepsjeng_17"
    }

    fn suite(&self) -> Suite {
        Suite::Spec2017
    }

    fn description(&self) -> &'static str {
        "transposition-table probe: branch on hashed entry flag, guarded score compare"
    }

    fn build(&self, params: &WorkloadParams) -> WorkloadImage {
        let n = pow2_scale(params.scale, 256);
        let mut rng = XorShift64::new(params.seed ^ 0x646a_3137);
        let mut mem = MemoryImage::new();
        // Entries: [flag (0..3), score (signed)] interleaved, 16B apart.
        let entries: Vec<u64> = (0..n)
            .flat_map(|_| [rng.below(4), (rng.next_u64() as i64 >> 1) as u64])
            .collect();
        mem.write_u64_slice(TABLE_A, &entries);

        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R12, TABLE_A as i64);
        b.mov_imm(reg::R10, params.seed as i64);
        let top = b.here();
        emit_xorshift(&mut b, reg::R10, reg::R11);
        b.and(reg::R5, reg::R10, (n - 1) as i64);
        b.shl(reg::R5, reg::R5, 4i64); // ×16
                                       // flag = entry.flag; if (flag >= 2) — hard branch (~50%)
        b.load(reg::R6, MemOperand::base_index(reg::R12, reg::R5, 1, 0));
        b.cmpi(reg::R6, 2);
        b.br(Cond::Lt, skip);
        // guarded: if (entry.score > 0) cutoffs++
        b.load(reg::R7, MemOperand::base_index(reg::R12, reg::R5, 1, 8));
        b.cmpi(reg::R7, 0);
        b.br(Cond::Le, skip);
        b.addi(reg::R2, reg::R2, 1);
        b.bind(skip);
        emit_do_work(&mut b, 5);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, params.iterations as i64);
        b.br(Cond::Ne, top);
        b.halt();
        WorkloadImage {
            program: b.build().expect("deepsjeng_17 assembles").into(),
            memory: mem,
        }
    }
}

/// `omnetpp_17`: discrete-event queue maintenance. Compares two event
/// timestamps loaded from a heap-like array and conditionally *stores* the
/// winner back — creating store→load (affector-through-memory) structure.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Omnetpp17;

impl Workload for Omnetpp17 {
    fn name(&self) -> &'static str {
        "omnetpp_17"
    }

    fn suite(&self) -> Suite {
        Suite::Spec2017
    }

    fn description(&self) -> &'static str {
        "event-queue sift: timestamp compare with conditional store-back"
    }

    fn build(&self, params: &WorkloadParams) -> WorkloadImage {
        let n = pow2_scale(params.scale, 256);
        let mut rng = XorShift64::new(params.seed ^ 0x6f6d_3137);
        let mut mem = MemoryImage::new();
        let stamps: Vec<u64> = (0..n).map(|_| rng.below(1 << 20)).collect();
        mem.write_u64_slice(TABLE_A, &stamps);

        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R12, TABLE_A as i64);
        b.mov_imm(reg::R10, params.seed as i64);
        let top = b.here();
        emit_xorshift(&mut b, reg::R10, reg::R11);
        b.and(reg::R5, reg::R10, (n - 2) as i64);
        // t1 = heap[j], t2 = heap[j+1]; if (t1 < t2) — hard branch
        b.load(reg::R6, MemOperand::base_index(reg::R12, reg::R5, 8, 0));
        b.load(reg::R7, MemOperand::base_index(reg::R12, reg::R5, 8, 8));
        b.cmp(reg::R6, reg::R7);
        b.br(Cond::Uge, skip);
        // Sift: write the smaller stamp upward (perturbs future loads —
        // the memory-aliasing behaviour §3 discusses).
        b.shr(reg::R4, reg::R5, 1i64);
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
            program: b.build().expect("omnetpp_17 assembles").into(),
            memory: mem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_isa::Machine;

    #[test]
    fn leela_guard_structure_present() {
        // Branch B executes only in iterations where branch A was
        // not-taken (board[sq] == EMPTY).
        let w = Leela17;
        let image = w.build(&WorkloadParams {
            scale: 256,
            iterations: 300,
            seed: 11,
        });
        let mut m = Machine::new(image.memory.into_memory());
        let mut a_nt = 0u64;
        let mut b_seen = 0u64;
        // Locate branch pcs: first two conditional branches in program
        // order are A then B.
        let branches: Vec<u64> = image
            .program
            .iter()
            .filter(|u| u.is_cond_branch())
            .map(|u| u.pc)
            .collect();
        let (a_pc, b_pc) = (branches[0], branches[1]);
        while !m.halted() {
            let rec = m.step(&image.program, None).unwrap();
            if let Some(br) = rec.branch {
                if rec.pc == a_pc && !br.actual_taken {
                    a_nt += 1;
                }
                if rec.pc == b_pc {
                    b_seen += 1;
                }
            }
        }
        assert_eq!(a_nt, b_seen, "B executes exactly when A is not-taken");
        assert!(a_nt > 30, "EMPTY hits should be ~1/3 of probes: {a_nt}");
    }

    #[test]
    fn xz_match_lengths_vary() {
        let w = Xz17;
        let image = w.build(&WorkloadParams {
            scale: 512,
            iterations: 200,
            seed: 5,
        });
        let mut m = Machine::new(image.memory.into_memory());
        m.run(&image.program, 2_000_000).unwrap();
        let total = m.reg(reg::R2);
        // Expected match length ~1 per iteration (2-symbol alphabet).
        assert!(
            total > 50 && total < 800,
            "match totals implausible: {total}"
        );
    }

    #[test]
    fn omnetpp_stores_perturb_memory() {
        let w = Omnetpp17;
        let image = w.build(&WorkloadParams {
            scale: 256,
            iterations: 500,
            seed: 9,
        });
        let mut m = Machine::new(image.memory.into_memory());
        m.run(&image.program, 2_000_000).unwrap();
        assert!(m.reg(reg::R2) > 100, "sift branch should fire often");
    }
}
