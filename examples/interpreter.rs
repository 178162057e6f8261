//! A bytecode-interpreter scenario (the perlbench/gcc shape): a dispatch
//! loop that compares each opcode and branches into its inline handler,
//! with a data-dependent branch inside one handler. Both the
//! bytecode-dependent dispatch branch and the handler's hard branch are
//! conditional, so Branch Runahead can cover them.
//!
//! ```text
//! cargo run --release --example interpreter
//! ```

use std::sync::Arc;

use branch_runahead::isa::{reg, Cond, MemOperand, MemoryImage, ProgramBuilder};
use branch_runahead::sim::{SimConfig, System};
use branch_runahead::workloads::WorkloadImage;

const BYTECODE: u64 = 0x1_0000;
const DATA: u64 = 0x2_0000;
const N: u64 = 4096;

fn build() -> WorkloadImage {
    let mut img = MemoryImage::new();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut ops = Vec::new();
    let mut vals = Vec::new();
    for _ in 0..N {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ops.push(x % 2); // opcode 0 or 1
        vals.push((x >> 13) % 5); // handler-1 operand
    }
    img.write_u64_slice(BYTECODE, &ops);
    img.write_u64_slice(DATA, &vals);

    let mut b = ProgramBuilder::new();
    b.mov_imm(reg::R0, 0);
    b.mov_imm(reg::R12, BYTECODE as i64);
    b.mov_imm(reg::R14, DATA as i64);
    let top = b.here();
    let op0 = b.new_label();
    let done_iter = b.new_label();
    b.and(reg::R5, reg::R0, (N - 1) as i64);
    b.load(reg::R7, MemOperand::base_index(reg::R12, reg::R5, 8, 0));
    b.cmpi(reg::R7, 0);
    b.br(Cond::Eq, op0); // bytecode-dependent dispatch branch

    // handler 1: data-dependent branch (the hard one BR should cover).
    b.load(reg::R6, MemOperand::base_index(reg::R14, reg::R5, 8, 0));
    b.cmpi(reg::R6, 2);
    b.br(Cond::Ge, done_iter);
    b.addi(reg::R3, reg::R3, 1);
    b.jmp(done_iter);

    // handler 0: cheap accumulate.
    b.bind(op0);
    b.addi(reg::R2, reg::R2, 1);
    b.bind(done_iter);
    // per-iteration work
    for _ in 0..3 {
        b.mul(reg::R8, reg::R8, 3i64);
        b.addi(reg::R9, reg::R9, 7);
    }
    b.addi(reg::R0, reg::R0, 1);
    b.cmpi(reg::R0, 200_000);
    b.br(Cond::Ne, top);
    b.halt();
    WorkloadImage {
        program: Arc::new(b.build().expect("interpreter assembles")),
        memory: img,
    }
}

fn run(image: &WorkloadImage, mut cfg: SimConfig) -> (f64, f64) {
    cfg.max_retired = 300_000;
    let r = System::new(cfg, image).run();
    (r.ipc(), r.mpki())
}

fn main() {
    println!("bytecode interpreter: dispatch loop with inline handlers\n");
    let image = build();
    let (ipc0, mpki0) = run(&image, SimConfig::baseline());
    let (ipc1, mpki1) = run(&image, SimConfig::mini_br());
    println!("{:<22}{:>10}{:>10}", "", "baseline", "mini-br");
    println!("{:<22}{:>10.3}{:>10.3}", "IPC", ipc0, ipc1);
    println!("{:<22}{:>10.2}{:>10.2}", "MPKI", mpki0, mpki1);
    println!(
        "\nBranch Runahead gain on the interpreter: MPKI {:+.1}%, IPC {:+.1}%",
        (mpki1 - mpki0) / mpki0 * 100.0,
        (ipc1 - ipc0) / ipc0 * 100.0
    );
}
