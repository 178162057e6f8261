//! Model-based property tests for the ISA substrate, driven by a
//! deterministic xorshift generator (the container builds hermetically,
//! so no external property-testing dependency is used):
//!
//! * [`JournaledMemory`] against a plain `HashMap<u64, u8>` reference
//!   model, under random interleavings of writes, checkpoints, rollbacks
//!   and releases;
//! * [`MemoryImage`]'s width, byte and slice writes against the same
//!   model, at addresses that straddle pages, and the journaled memory
//!   built from the image;
//! * [`RegSet`] against a `BTreeSet<usize>` reference model;
//! * emulator determinism: re-running a program from a checkpoint must
//!   reproduce the identical execution.

use std::collections::{BTreeSet, HashMap};

use crate::asm::ProgramBuilder;
use crate::machine::Machine;
use crate::memory::{JournalMark, JournaledMemory, MemoryImage};
use crate::reg::{self, ArchReg, RegSet};
use crate::uop::{Cond, MemOperand, Width};

/// Deterministic xorshift64* generator for case generation.
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

#[derive(Clone, Debug)]
enum MemAction {
    Write {
        addr: u16,
        width_sel: u8,
        value: u64,
    },
    Checkpoint,
    /// Rollback to the i-th (mod live) outstanding mark.
    Rollback(u8),
    /// Release everything older than the oldest outstanding mark.
    ReleaseOldest,
}

fn mem_action(rng: &mut Rng) -> MemAction {
    // Weights 4:2:1:1, as in the original strategy.
    match rng.below(8) {
        0..=3 => MemAction::Write {
            addr: rng.next() as u16,
            width_sel: rng.below(4) as u8,
            value: rng.next(),
        },
        4 | 5 => MemAction::Checkpoint,
        6 => MemAction::Rollback(rng.next() as u8),
        _ => MemAction::ReleaseOldest,
    }
}

fn width_of(sel: u8) -> Width {
    match sel % 4 {
        0 => Width::B1,
        1 => Width::B2,
        2 => Width::B4,
        _ => Width::B8,
    }
}

/// Reference model: byte map + snapshots per outstanding mark.
#[derive(Clone, Default)]
struct MemModel {
    bytes: HashMap<u64, u8>,
}

impl MemModel {
    fn write(&mut self, addr: u64, width: Width, value: u64) {
        for i in 0..width.bytes() {
            self.bytes.insert(addr + i, (value >> (8 * i)) as u8);
        }
    }

    fn read(&self, addr: u64, width: Width) -> u64 {
        let mut v = 0u64;
        for i in 0..width.bytes() {
            v |= u64::from(*self.bytes.get(&(addr + i)).unwrap_or(&0)) << (8 * i);
        }
        v
    }
}

#[test]
fn journaled_memory_matches_model() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0x9e37_79b9 ^ (case << 32) ^ case);
        let n_actions = 1 + rng.below(59) as usize;
        let actions: Vec<MemAction> = (0..n_actions).map(|_| mem_action(&mut rng)).collect();
        let probes: Vec<u16> = (0..8).map(|_| rng.next() as u16).collect();

        let mut mem = JournaledMemory::new();
        let mut model = MemModel::default();
        // Outstanding marks, oldest first, paired with model snapshots.
        let mut marks: Vec<(JournalMark, MemModel)> = Vec::new();

        for a in &actions {
            match a {
                MemAction::Write {
                    addr,
                    width_sel,
                    value,
                } => {
                    let w = width_of(*width_sel);
                    mem.write(u64::from(*addr), w, *value);
                    model.write(u64::from(*addr), w, *value);
                }
                MemAction::Checkpoint => {
                    marks.push((mem.mark(), model.clone()));
                }
                MemAction::Rollback(i) => {
                    if !marks.is_empty() {
                        let idx = (*i as usize) % marks.len();
                        let (mark, snap) = marks[idx].clone();
                        mem.rollback_to(mark);
                        model = snap;
                        // Marks younger than the rollback target die.
                        marks.truncate(idx + 1);
                    }
                }
                MemAction::ReleaseOldest => {
                    if !marks.is_empty() {
                        let (mark, _) = marks.remove(0);
                        mem.release_before(mark);
                    }
                }
            }
            // Spot-check agreement after every action.
            for p in &probes {
                let w = width_of((*p % 4) as u8);
                assert_eq!(
                    mem.read(u64::from(*p), w),
                    model.read(u64::from(*p), w),
                    "case {case}: divergence at probe {p:#x}"
                );
            }
        }
    }
}

/// Random width, byte and slice writes into a [`MemoryImage`], clustered
/// at page edges so that values and slices straddle pages: the image, its
/// page list and the journaled memory built from it hold exactly the
/// model's bytes.
#[test]
fn image_writes_match_model() {
    const PAGE: u64 = 4096;
    let mut straddles = 0;
    for case in 0..64u64 {
        let mut rng = Rng::new(0x1a6e_5eed ^ (case << 40) ^ case);
        let mut img = MemoryImage::new();
        let mut model = MemModel::default();
        for _ in 0..1 + rng.below(24) {
            let off = if rng.below(2) == 0 {
                PAGE - 1 - rng.below(16)
            } else {
                rng.below(PAGE)
            };
            let addr = rng.below(4) * PAGE + off;
            let len = match rng.below(5) {
                0 => {
                    let w = width_of(rng.below(4) as u8);
                    let v = rng.next();
                    img.write(addr, w, v);
                    model.write(addr, w, v);
                    w.bytes()
                }
                1 => {
                    let b = rng.next() as u8;
                    img.write_byte(addr, b);
                    model.write(addr, Width::B1, u64::from(b));
                    1
                }
                2 => {
                    let values: Vec<u64> = (0..rng.below(700)).map(|_| rng.next()).collect();
                    img.write_u64_slice(addr, &values);
                    for (i, v) in values.iter().enumerate() {
                        model.write(addr + 8 * i as u64, Width::B8, *v);
                    }
                    8 * values.len() as u64
                }
                3 => {
                    let values: Vec<u32> =
                        (0..rng.below(1400)).map(|_| rng.next() as u32).collect();
                    img.write_u32_slice(addr, &values);
                    for (i, v) in values.iter().enumerate() {
                        model.write(addr + 4 * i as u64, Width::B4, u64::from(*v));
                    }
                    4 * values.len() as u64
                }
                _ => {
                    let bytes: Vec<u8> = (0..rng.below(5000)).map(|_| rng.next() as u8).collect();
                    img.write_bytes(addr, &bytes);
                    for (i, b) in bytes.iter().enumerate() {
                        model.write(addr + i as u64, Width::B1, u64::from(*b));
                    }
                    bytes.len() as u64
                }
            };
            straddles += u64::from(len > 0 && addr / PAGE != (addr + len - 1) / PAGE);
        }

        let mut touched: Vec<u64> = model.bytes.keys().map(|a| a / PAGE).collect();
        touched.sort_unstable();
        touched.dedup();
        let pages: Vec<(u64, Vec<u8>)> = img.pages().map(|(n, p)| (n, p.to_vec())).collect();
        let numbers: Vec<u64> = pages.iter().map(|&(n, _)| n).collect();
        assert_eq!(numbers, touched, "case {case}: touched pages");
        assert_eq!(img.page_count(), touched.len(), "case {case}");
        let mem = img.to_memory();
        for (n, bytes) in &pages {
            for (i, b) in bytes.iter().enumerate() {
                let addr = n * PAGE + i as u64;
                let want = model.read(addr, Width::B1);
                assert_eq!(u64::from(*b), want, "case {case}: page byte {addr:#x}");
                assert_eq!(img.read(addr, Width::B1), want, "case {case}: {addr:#x}");
                assert_eq!(mem.read(addr, Width::B1), want, "case {case}: {addr:#x}");
            }
        }
        for _ in 0..256 {
            let (addr, w) = (rng.below(6 * PAGE), width_of(rng.below(4) as u8));
            let want = model.read(addr, w);
            assert_eq!(img.read(addr, w), want, "case {case}: read {addr:#x}");
            assert_eq!(mem.read(addr, w), want, "case {case}: memory {addr:#x}");
        }
    }
    assert!(straddles > 100, "only {straddles} writes straddled a page");
}

#[test]
fn regset_matches_btreeset() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0x5151_7ea5 ^ (case << 24) ^ case);
        let n_ops = 1 + rng.below(63) as usize;
        let mut rs = RegSet::empty();
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for _ in 0..n_ops {
            let raw = rng.next() as u8;
            let insert = rng.below(2) == 0;
            let r = ArchReg::new(raw % 17);
            if insert {
                assert_eq!(rs.insert(r), model.insert(r.index()), "case {case}");
            } else {
                assert_eq!(rs.remove(r), model.remove(&r.index()), "case {case}");
            }
            assert_eq!(rs.len(), model.len(), "case {case}");
            let members: Vec<usize> = rs.iter().map(ArchReg::index).collect();
            let expect: Vec<usize> = model.iter().copied().collect();
            assert_eq!(members, expect, "case {case}");
        }
    }
}

/// Checkpoint/restore determinism: executing N steps, restoring, and
/// re-executing must produce bit-identical machine state.
#[test]
fn machine_restore_is_deterministic() {
    for case in 0..32u64 {
        let mut rng = Rng::new(0xdead_beef ^ (case << 16) ^ case);
        let values: Vec<u8> = (0..16).map(|_| rng.next() as u8).collect();
        let split = 1 + rng.below(39);

        let mut img = MemoryImage::new();
        for (i, v) in values.iter().enumerate() {
            img.write(0x100 + i as u64 * 8, Width::B8, u64::from(*v));
        }
        let mut b = ProgramBuilder::new();
        b.mov_imm(reg::R0, 16);
        b.mov_imm(reg::R12, 0x100);
        let top = b.here();
        b.load(reg::R2, MemOperand::base_index(reg::R12, reg::R0, 8, -8));
        b.add(reg::R3, reg::R3, reg::R2);
        b.store(MemOperand::base_disp(reg::R12, 0x80), reg::R3);
        b.subi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, 0);
        b.br(Cond::Ne, top);
        b.halt();
        let p = b.build().unwrap();

        let mut m = Machine::new(img.into_memory());
        for _ in 0..split.min(40) {
            if m.halted() {
                break;
            }
            m.step(&p, None).unwrap();
        }
        let cp = m.checkpoint();
        let mut trace_a = Vec::new();
        while !m.halted() {
            trace_a.push(m.step(&p, None).unwrap());
        }
        let final_r3 = m.reg(reg::R3);

        m.restore(&cp);
        let mut trace_b = Vec::new();
        while !m.halted() {
            trace_b.push(m.step(&p, None).unwrap());
        }
        assert_eq!(trace_a, trace_b, "case {case}");
        assert_eq!(m.reg(reg::R3), final_r3, "case {case}");
    }
}
