//! GAP benchmark suite-like graph kernels.
//!
//! The GAP workloads (run with `-g 19 -n 300` in the paper) are dominated
//! by data-dependent branches over graph structure: visited checks,
//! label compares, distance relaxations. These kernels stream a synthetic
//! edge list whose destinations are uniformly random vertices — the same
//! "load a random vertex's state and branch on it" pattern, which MTAGE
//! cannot predict (Figure 11's GAP columns) but dependence chains can.

use br_isa::{reg, Cond, MemOperand, MemoryImage, ProgramBuilder};

use crate::util::{emit_do_work, pow2_scale, XorShift64};
use crate::workload::{Suite, Workload, WorkloadImage, WorkloadParams};

const EDGES: u64 = 0x100_0000;
const VSTATE: u64 = 0x200_0000;
const VAUX: u64 = 0x300_0000;

/// Writes a random edge-destination array and a vertex-state array.
fn graph_data(
    seed: u64,
    vertices: u64,
    edges: u64,
    state_gen: impl Fn(&mut XorShift64) -> u64,
) -> MemoryImage {
    let mut rng = XorShift64::new(seed);
    let mut mem = MemoryImage::new();
    let dst: Vec<u64> = (0..edges).map(|_| rng.below(vertices)).collect();
    mem.write_u64_slice(EDGES, &dst);
    let st: Vec<u64> = (0..vertices).map(|_| state_gen(&mut rng)).collect();
    mem.write_u64_slice(VSTATE, &st);
    mem
}

/// Emits the edge-stream prologue: `r3` walks the edge list sequentially,
/// `r6` receives the (random) destination vertex.
fn emit_edge_walk(b: &mut ProgramBuilder, edges: u64) {
    b.addi(reg::R3, reg::R3, 1);
    b.and(reg::R3, reg::R3, (edges - 1) as i64);
    b.load(reg::R6, MemOperand::base_index(reg::R12, reg::R3, 8, 0));
}

/// `cc`: connected components (Shiloach–Vishkin flavour). Compares the
/// labels of an edge's endpoints; the guarded path writes the smaller
/// label forward (store → future loads).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Cc;

impl Workload for Cc {
    fn name(&self) -> &'static str {
        "cc"
    }

    fn suite(&self) -> Suite {
        Suite::Gap
    }

    fn description(&self) -> &'static str {
        "connected components: label compare with guarded propagation store"
    }

    fn build(&self, params: &WorkloadParams) -> WorkloadImage {
        let v = pow2_scale(params.scale * 8, 1024);
        let e = v * 4;
        let mut mem = graph_data(params.seed ^ 0x6363, v, e, |r| r.below(1 << 24));
        // Second endpoint per edge.
        let mut rng = XorShift64::new(params.seed ^ 0x6363_0002);
        let src: Vec<u64> = (0..e).map(|_| rng.below(v)).collect();
        mem.write_u64_slice(VAUX, &src);

        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R3, 0);
        b.mov_imm(reg::R12, EDGES as i64);
        b.mov_imm(reg::R14, VSTATE as i64);
        b.mov_imm(reg::R15, VAUX as i64);
        let top = b.here();
        emit_edge_walk(&mut b, e);
        b.load(reg::R5, MemOperand::base_index(reg::R15, reg::R3, 8, 0));
        // lu = label[u]; lv = label[v]; if (lu < lv) label[v] = lu
        b.load(reg::R7, MemOperand::base_index(reg::R14, reg::R5, 8, 0));
        b.load(reg::R4, MemOperand::base_index(reg::R14, reg::R6, 8, 0));
        b.cmp(reg::R7, reg::R4);
        b.br(Cond::Uge, skip);
        b.store(MemOperand::base_index(reg::R14, reg::R6, 8, 0), reg::R7);
        b.addi(reg::R2, reg::R2, 1);
        b.bind(skip);
        emit_do_work(&mut b, 3);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, params.iterations as i64);
        b.br(Cond::Ne, top);
        b.halt();
        WorkloadImage {
            program: b.build().expect("cc assembles").into(),
            memory: mem,
        }
    }
}

/// `bfs`: breadth-first search frontier expansion — the canonical GAP
/// hard branch: "is this random neighbour already visited?"
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Bfs;

impl Workload for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn suite(&self) -> Suite {
        Suite::Gap
    }

    fn description(&self) -> &'static str {
        "BFS: visited-check on a randomly-destined edge, guarded mark store"
    }

    fn build(&self, params: &WorkloadParams) -> WorkloadImage {
        let v = pow2_scale(params.scale * 4, 1024);
        let e = v * 2;
        // ~40% of vertices pre-visited; guarded stores mark more.
        let mem = graph_data(params.seed ^ 0x0062_6673, v, e, |r| {
            u64::from(r.below(5) < 2)
        });

        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R3, 0);
        b.mov_imm(reg::R12, EDGES as i64);
        b.mov_imm(reg::R14, VSTATE as i64);
        let top = b.here();
        emit_edge_walk(&mut b, e);
        // if (!visited[v]) { visited[v] = 1; frontier++ }
        b.load(reg::R7, MemOperand::base_index(reg::R14, reg::R6, 8, 0));
        b.cmpi(reg::R7, 0);
        b.br(Cond::Ne, skip);
        b.mov_imm(reg::R4, 1);
        b.store(MemOperand::base_index(reg::R14, reg::R6, 8, 0), reg::R4);
        b.addi(reg::R2, reg::R2, 1);
        b.bind(skip);
        emit_do_work(&mut b, 3);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, params.iterations as i64);
        b.br(Cond::Ne, top);
        b.halt();
        WorkloadImage {
            program: b.build().expect("bfs assembles").into(),
            memory: mem,
        }
    }
}

/// `tc`: triangle counting via sorted-adjacency intersection — the
/// two-pointer merge branch, whose direction also steers its own index
/// updates (a self-affecting branch).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Tc;

impl Workload for Tc {
    fn name(&self) -> &'static str {
        "tc"
    }

    fn suite(&self) -> Suite {
        Suite::Gap
    }

    fn description(&self) -> &'static str {
        "triangle counting: two-pointer intersection compare (self-affecting)"
    }

    fn build(&self, params: &WorkloadParams) -> WorkloadImage {
        let n = pow2_scale(params.scale, 256);
        let mut rng = XorShift64::new(params.seed ^ 0x7463);
        let mut mem = MemoryImage::new();
        // Two sorted random sequences (cumulative gaps).
        for (base, salt) in [(EDGES, 1u64), (VSTATE, 2)] {
            let mut acc = salt;
            let seq: Vec<u64> = (0..n)
                .map(|_| {
                    acc += 1 + rng.below(4);
                    acc
                })
                .collect();
            mem.write_u64_slice(base, &seq);
        }

        let mut b = ProgramBuilder::new();
        let advance_b = b.new_label();
        let after = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R3, 0); // i
        b.mov_imm(reg::R5, 0); // j
        b.mov_imm(reg::R12, EDGES as i64);
        b.mov_imm(reg::R14, VSTATE as i64);
        let top = b.here();
        // a = A[i]; b = B[j]; if (a < b) i++ else j++
        b.load(reg::R6, MemOperand::base_index(reg::R12, reg::R3, 8, 0));
        b.load(reg::R7, MemOperand::base_index(reg::R14, reg::R5, 8, 0));
        b.cmp(reg::R6, reg::R7);
        b.br(Cond::Uge, advance_b);
        b.addi(reg::R3, reg::R3, 1);
        b.and(reg::R3, reg::R3, (n - 1) as i64);
        b.jmp(after);
        b.bind(advance_b);
        b.addi(reg::R5, reg::R5, 1);
        b.and(reg::R5, reg::R5, (n - 1) as i64);
        b.bind(after);
        emit_do_work(&mut b, 3);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, params.iterations as i64);
        b.br(Cond::Ne, top);
        b.halt();
        WorkloadImage {
            program: b.build().expect("tc assembles").into(),
            memory: mem,
        }
    }
}

/// `bc`: betweenness centrality accumulation — a visited-style check on a
/// path-count parity, with a guarded update store.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Bc;

impl Workload for Bc {
    fn name(&self) -> &'static str {
        "bc"
    }

    fn suite(&self) -> Suite {
        Suite::Gap
    }

    fn description(&self) -> &'static str {
        "betweenness: branch on loaded path-count parity with guarded update"
    }

    fn build(&self, params: &WorkloadParams) -> WorkloadImage {
        let v = pow2_scale(params.scale * 8, 1024);
        let e = v * 4;
        let mem = graph_data(params.seed ^ 0x6263, v, e, |r| r.below(1 << 16));

        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R3, 0);
        b.mov_imm(reg::R12, EDGES as i64);
        b.mov_imm(reg::R14, VSTATE as i64);
        let top = b.here();
        emit_edge_walk(&mut b, e);
        // sigma = sig[v]; if (sigma & 1) { sig[v] = sigma + 3 }
        b.load(reg::R7, MemOperand::base_index(reg::R14, reg::R6, 8, 0));
        b.and(reg::R4, reg::R7, 1i64);
        b.cmpi(reg::R4, 0);
        b.br(Cond::Eq, skip);
        b.addi(reg::R7, reg::R7, 3);
        b.store(MemOperand::base_index(reg::R14, reg::R6, 8, 0), reg::R7);
        b.addi(reg::R2, reg::R2, 1);
        b.bind(skip);
        emit_do_work(&mut b, 3);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, params.iterations as i64);
        b.br(Cond::Ne, top);
        b.halt();
        WorkloadImage {
            program: b.build().expect("bc assembles").into(),
            memory: mem,
        }
    }
}

/// `pr`: PageRank — per-vertex convergence test comparing a scaled loaded
/// rank against a loaded threshold (a 2-load + arithmetic slice).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Pr;

impl Workload for Pr {
    fn name(&self) -> &'static str {
        "pr"
    }

    fn suite(&self) -> Suite {
        Suite::Gap
    }

    fn description(&self) -> &'static str {
        "PageRank: convergence compare of scaled rank vs per-vertex threshold"
    }

    fn build(&self, params: &WorkloadParams) -> WorkloadImage {
        let v = pow2_scale(params.scale * 8, 1024);
        let e = v * 4;
        let mut mem = graph_data(params.seed ^ 0x7072, v, e, |r| r.below(1 << 20));
        let mut rng = XorShift64::new(params.seed ^ 0x7072_0002);
        let thr: Vec<u64> = (0..v).map(|_| rng.below(1 << 18)).collect();
        mem.write_u64_slice(VAUX, &thr);

        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R3, 0);
        b.mov_imm(reg::R12, EDGES as i64);
        b.mov_imm(reg::R14, VSTATE as i64);
        b.mov_imm(reg::R15, VAUX as i64);
        let top = b.here();
        emit_edge_walk(&mut b, e);
        // delta = rank[v] >> 2; if (delta > thr[v]) active++
        b.load(reg::R7, MemOperand::base_index(reg::R14, reg::R6, 8, 0));
        b.shr(reg::R7, reg::R7, 2i64);
        b.load(reg::R4, MemOperand::base_index(reg::R15, reg::R6, 8, 0));
        b.cmp(reg::R7, reg::R4);
        b.br(Cond::Ult, skip);
        b.addi(reg::R2, reg::R2, 1);
        b.bind(skip);
        emit_do_work(&mut b, 3);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, params.iterations as i64);
        b.br(Cond::Ne, top);
        b.halt();
        WorkloadImage {
            program: b.build().expect("pr assembles").into(),
            memory: mem,
        }
    }
}

/// `sssp`: single-source shortest paths — the relaxation test
/// `dist[u] + w < dist[v]` over random edges, with the guarded
/// distance-update store.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Sssp;

impl Workload for Sssp {
    fn name(&self) -> &'static str {
        "sssp"
    }

    fn suite(&self) -> Suite {
        Suite::Gap
    }

    fn description(&self) -> &'static str {
        "SSSP: distance relaxation compare with guarded update store"
    }

    fn build(&self, params: &WorkloadParams) -> WorkloadImage {
        let v = pow2_scale(params.scale * 8, 1024);
        let e = v * 4;
        let mut mem = graph_data(params.seed ^ 0x7373, v, e, |r| r.below(1 << 20));
        let mut rng = XorShift64::new(params.seed ^ 0x7373_0002);
        let src: Vec<u64> = (0..e).map(|_| rng.below(v)).collect();
        mem.write_u64_slice(VAUX, &src);

        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R3, 0);
        b.mov_imm(reg::R12, EDGES as i64);
        b.mov_imm(reg::R14, VSTATE as i64);
        b.mov_imm(reg::R15, VAUX as i64);
        let top = b.here();
        emit_edge_walk(&mut b, e);
        b.load(reg::R5, MemOperand::base_index(reg::R15, reg::R3, 8, 0));
        // du = dist[u]; dv = dist[v]; w = (u ^ v) & 63
        b.load(reg::R7, MemOperand::base_index(reg::R14, reg::R5, 8, 0));
        b.load(reg::R4, MemOperand::base_index(reg::R14, reg::R6, 8, 0));
        b.xor(reg::R9, reg::R5, reg::R6);
        b.and(reg::R9, reg::R9, 63i64);
        b.add(reg::R7, reg::R7, reg::R9);
        // if (du + w < dv) dist[v] = du + w
        b.cmp(reg::R7, reg::R4);
        b.br(Cond::Uge, skip);
        b.store(MemOperand::base_index(reg::R14, reg::R6, 8, 0), reg::R7);
        b.addi(reg::R2, reg::R2, 1);
        b.bind(skip);
        emit_do_work(&mut b, 3);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, params.iterations as i64);
        b.br(Cond::Ne, top);
        b.halt();
        WorkloadImage {
            program: b.build().expect("sssp assembles").into(),
            memory: mem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_isa::Machine;

    fn run(w: &dyn Workload, iters: u64, seed: u64) -> Machine {
        let image = w.build(&WorkloadParams {
            scale: 512,
            iterations: iters,
            seed,
        });
        let mut m = Machine::new(image.memory.into_memory());
        m.run(&image.program, 5_000_000).unwrap();
        assert!(m.halted());
        m
    }

    #[test]
    fn bfs_frontier_shrinks_over_time() {
        // Visited marks accumulate, so the not-visited branch rate decays —
        // run long and confirm fewer discoveries than probes.
        let m = run(&Bfs, 4000, 3);
        let found = m.reg(reg::R2);
        assert!(found > 500, "BFS should discover vertices: {found}");
        assert!(found < 3500, "visited marking must suppress rediscovery");
    }

    #[test]
    fn sssp_relaxations_monotone() {
        let m = run(&Sssp, 3000, 5);
        let relaxed = m.reg(reg::R2);
        assert!(relaxed > 200, "relaxations should fire: {relaxed}");
        assert!(relaxed < 2800, "distances only shrink, rate must damp");
    }

    #[test]
    fn tc_two_pointer_advances_both() {
        let image = Tc.build(&WorkloadParams {
            scale: 512,
            iterations: 2000,
            seed: 9,
        });
        let mut m = Machine::new(image.memory.into_memory());
        m.run(&image.program, 5_000_000).unwrap();
        let (i, j) = (m.reg(reg::R3), m.reg(reg::R5));
        // Both pointers advance (mod mask); total advances = iterations.
        assert!(i > 0 && j > 0, "both sides must advance: i={i} j={j}");
    }

    #[test]
    fn cc_propagation_converges() {
        let m = run(&Cc, 4000, 7);
        let props = m.reg(reg::R2);
        assert!(props > 300, "label propagation should fire: {props}");
    }
}
