//! Shared helpers: host-side data generation and guest-side code idioms.

use br_isa::{reg, ArchReg, ProgramBuilder};

/// A deterministic xorshift64 generator for building workload data.
#[derive(Clone, Debug)]
pub(crate) struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator; zero seeds are remapped.
    #[must_use]
    pub(crate) fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 { 0x9e3779b97f4a7c15 } else { seed },
        }
    }

    /// Next 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Uniform value in `0..bound` (bound > 0).
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// Emits the guest-side xorshift64 step on `state`, clobbering `tmp`.
/// This is the canonical "random probe" idiom: the resulting branch
/// outcomes carry no history correlation, but the dependence chain can
/// recompute them exactly.
pub(crate) fn emit_xorshift(b: &mut ProgramBuilder, state: ArchReg, tmp: ArchReg) {
    b.shl(tmp, state, 13i64);
    b.xor(state, state, tmp);
    b.shr(tmp, state, 7i64);
    b.xor(state, state, tmp);
    b.shl(tmp, state, 17i64);
    b.xor(state, state, tmp);
}

/// Emits `rounds` of filler ALU work on scratch registers `r8`, `r9`,
/// `r13` — the benchmark's "real work" per iteration, giving the DCE
/// slack to run ahead (each round is 3 uops).
pub(crate) fn emit_do_work(b: &mut ProgramBuilder, rounds: usize) {
    for _ in 0..rounds {
        b.mul(reg::R8, reg::R8, 3i64);
        b.addi(reg::R9, reg::R9, 7);
        b.xor(reg::R13, reg::R13, reg::R9);
    }
}

/// Returns `scale` clamped to at least `min` and rounded down to a power
/// of two (index masks stay cheap).
#[must_use]
pub(crate) fn pow2_scale(scale: usize, min: usize) -> u64 {
    let s = scale.max(min);
    let mut p = 1usize;
    while p * 2 <= s {
        p *= 2;
    }
    p as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_isa::{Machine, MemoryImage};

    #[test]
    fn xorshift_deterministic_and_spread() {
        let mut a = XorShift64::new(5);
        let mut b = XorShift64::new(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let v = a.next_u64();
            assert_eq!(v, b.next_u64());
            seen.insert(v % 64);
        }
        assert!(seen.len() > 50, "poor low-bit spread");
    }

    #[test]
    fn zero_seed_remapped() {
        assert_ne!(XorShift64::new(0).next_u64(), 0);
    }

    #[test]
    fn guest_xorshift_matches_host() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(reg::R1, 0x1234_5678);
        for _ in 0..3 {
            emit_xorshift(&mut b, reg::R1, reg::R2);
        }
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(MemoryImage::new().into_memory());
        m.run(&p, 100).unwrap();

        let mut host = 0x1234_5678u64;
        for _ in 0..3 {
            host ^= host << 13;
            host ^= host >> 7;
            host ^= host << 17;
        }
        assert_eq!(m.reg(reg::R1), host);
    }

    #[test]
    fn pow2_scale_bounds() {
        assert_eq!(pow2_scale(100, 64), 64);
        assert_eq!(pow2_scale(4096, 64), 4096);
        assert_eq!(pow2_scale(5000, 64), 4096);
        assert_eq!(pow2_scale(0, 128), 128);
    }
}
