//! A bytecode-interpreter scenario (the perlbench/gcc shape): a dispatch
//! loop that compares each opcode and branches into its inline handler,
//! with a data-dependent branch inside one handler. Both the
//! bytecode-dependent dispatch branch and the handler's hard branch are
//! conditional, so Branch Runahead can cover them.
//!
//! ```text
//! cargo run --release --example interpreter
//! ```

use branch_runahead::isa::{reg, Cond, Machine, MemOperand, MemoryImage, ProgramBuilder};
use branch_runahead::mem::{MemoryConfig, MemorySystem};
use branch_runahead::ooo::{Core, CoreConfig, NullHooks};
use branch_runahead::predictor::{TageScl, TageSclConfig};
use branch_runahead::runahead::{BranchRunahead, BranchRunaheadConfig};

const BYTECODE: u64 = 0x1_0000;
const DATA: u64 = 0x2_0000;
const N: u64 = 4096;

fn build() -> (branch_runahead::isa::Program, MemoryImage) {
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
    (b.build().expect("interpreter assembles"), img)
}

fn run(with_br: bool) -> (f64, f64) {
    let (program, img) = build();
    let mut core = Core::new(
        CoreConfig::default(),
        program,
        Machine::new(img.into_memory()),
        Box::new(TageScl::new(TageSclConfig::kb64())),
    );
    core.set_max_retired(300_000);
    let mut mem = MemorySystem::new(MemoryConfig::default());
    let mut br = with_br.then(|| BranchRunahead::new(BranchRunaheadConfig::mini(), 4));
    for cycle in 0..30_000_000u64 {
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
            break;
        }
    }
    let s = core.stats();
    (s.ipc(), s.mpki())
}

fn main() {
    println!("bytecode interpreter: dispatch loop with inline handlers\n");
    let (ipc0, mpki0) = run(false);
    let (ipc1, mpki1) = run(true);
    println!("{:<22}{:>10}{:>10}", "", "baseline", "mini-br");
    println!("{:<22}{:>10.3}{:>10.3}", "IPC", ipc0, ipc1);
    println!("{:<22}{:>10.2}{:>10.2}", "MPKI", mpki0, mpki1);
    println!(
        "\nBranch Runahead gain on the interpreter: MPKI {:+.1}%, IPC {:+.1}%",
        (mpki1 - mpki0) / mpki0 * 100.0,
        (ipc1 - ipc0) / ipc0 * 100.0
    );
}
