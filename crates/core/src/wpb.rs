//! The Wrong Path Buffer: dynamic merge-point prediction (§4.4).
//!
//! On every flush, the wrong-path instructions still sitting in the ROB
//! are copied (by a modelled multi-cycle ROB walk) into a small
//! set-associative buffer, together with the *dest set* accumulated up to
//! each instruction. After recovery, retired correct-path instructions
//! probe the buffer; the first hit is the predicted merge point. The
//! union of the hitting wrong-path dest set and the accumulated
//! correct-path dest set — the *both-path dest set* — seeds affector
//! detection ([`crate::PoisonDetector`]).

use br_isa::{Pc, RegSet};
use br_ooo::{RetiredUop, WrongPathUop};

/// Bloom-filter word tracking memory destinations (the paper uses a bloom
/// filter for store addresses on the wrong path).
pub(crate) type MemBloom = u64;

/// Hashes a store address into the bloom filter.
#[must_use]
pub(crate) fn bloom_insert(bloom: MemBloom, addr: u64) -> MemBloom {
    let a = addr >> 3;
    let b1 = (a ^ (a >> 7)) & 63;
    let b2 = (a.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) & 63;
    bloom | (1 << b1) | (1 << b2)
}

/// Tests a load address against the bloom filter.
#[must_use]
pub(crate) fn bloom_probe(bloom: MemBloom, addr: u64) -> bool {
    let a = addr >> 3;
    let b1 = (a ^ (a >> 7)) & 63;
    let b2 = (a.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) & 63;
    bloom & (1 << b1) != 0 && bloom & (1 << b2) != 0
}

#[derive(Clone, Copy, Debug, Default)]
struct WpbWay {
    valid: bool,
    pc: Pc,
    dest: RegSet,
    bloom: MemBloom,
    /// Position in the wrong-path walk (uops past the branch).
    pos: usize,
    lru: u64,
}

/// A detected merge point and its side products.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct MergeEvent {
    /// The merge-predicted (mispredicted) branch.
    pub(crate) branch_pc: Pc,
    /// The predicted merge point.
    pub(crate) merge_pc: Pc,
    /// Registers written on either side of the branch.
    pub(crate) both_path_dest: RegSet,
    /// Memory bloom of stores on either side.
    pub(crate) both_path_bloom: MemBloom,
    /// Conditional branches observed between the branch and the merge
    /// point (on either path): candidates guarded by `branch_pc`.
    pub(crate) guarded: Vec<Pc>,
    /// Correct-path distance to the merge point in uops.
    pub(crate) distance: usize,
}

/// The Wrong Path Buffer and its correct-path comparison state machine.
#[derive(Clone, Debug)]
pub(crate) struct WrongPathBuffer {
    sets: usize,
    ways: usize,
    table: Vec<WpbWay>,
    tick: u64,
    max_distance: usize,

    // Active comparison state.
    active: bool,
    branch_pc: Pc,
    /// Sequence number of the mispredicted branch: only younger retired
    /// uops are on the resumed correct path.
    branch_seq: u64,
    flush_cycle: u64,
    walk_rate: usize,
    correct_dest: RegSet,
    correct_bloom: MemBloom,
    /// Wrong-path conditional branches and their walk positions.
    wrong_branches: Vec<(Pc, usize)>,
    correct_branches: Vec<Pc>,
    distance: usize,

    // Statistics.
    arms: u64,
    merges_found: u64,
    searches_failed: u64,
}

impl WrongPathBuffer {
    /// Creates a WPB with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (sets must be a power of two).
    #[must_use]
    pub(crate) fn new(entries: usize, ways: usize, max_distance: usize) -> Self {
        assert!(ways > 0 && entries.is_multiple_of(ways), "bad WPB geometry");
        let sets = entries / ways;
        assert!(sets.is_power_of_two(), "WPB sets must be a power of two");
        WrongPathBuffer {
            sets,
            ways,
            table: vec![WpbWay::default(); entries],
            tick: 0,
            max_distance,
            active: false,
            branch_pc: 0,
            branch_seq: 0,
            flush_cycle: 0,
            walk_rate: 1,
            correct_dest: RegSet::empty(),
            correct_bloom: 0,
            wrong_branches: Vec::new(),
            correct_branches: Vec::new(),
            distance: 0,
            arms: 0,
            merges_found: 0,
            searches_failed: 0,
        }
    }

    fn set_of(&self, pc: Pc) -> usize {
        (pc as usize) & (self.sets - 1)
    }

    fn insert(&mut self, pc: Pc, dest: RegSet, bloom: MemBloom, pos: usize) {
        self.tick += 1;
        let s = self.set_of(pc);
        let ways = &mut self.table[s * self.ways..(s + 1) * self.ways];
        // Prefer an existing entry for this pc (keep the OLDEST dest set:
        // the first occurrence is closest to the branch).
        if ways.iter().any(|w| w.valid && w.pc == pc) {
            return;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru } else { 0 })
            .expect("ways nonempty");
        *victim = WpbWay {
            valid: true,
            pc,
            dest,
            bloom,
            pos,
            lru: self.tick,
        };
    }

    fn probe(&self, pc: Pc) -> Option<(RegSet, MemBloom, usize)> {
        let s = self.set_of(pc);
        self.table[s * self.ways..(s + 1) * self.ways]
            .iter()
            .find(|w| w.valid && w.pc == pc)
            .map(|w| (w.dest, w.bloom, w.pos))
    }

    fn invalidate(&mut self) {
        for w in &mut self.table {
            w.valid = false;
        }
        self.active = false;
    }

    /// Arms the buffer at a flush. `wrong_path` is the squashed ROB
    /// content in fetch order; `retire_width` models the ROB-walk copy
    /// rate (footnote 14: copy at retire bandwidth).
    pub(crate) fn arm(
        &mut self,
        branch_pc: Pc,
        branch_seq: u64,
        wrong_path: &[WrongPathUop],
        cycle: u64,
        retire_width: usize,
    ) {
        self.invalidate();
        self.arms += 1;
        self.active = true;
        self.branch_pc = branch_pc;
        self.branch_seq = branch_seq;
        self.correct_dest = RegSet::empty();
        self.correct_bloom = 0;
        self.wrong_branches.clear();
        self.correct_branches.clear();
        self.distance = 0;

        let mut dest = RegSet::empty();
        let mut bloom: MemBloom = 0;
        // `copied` counts *accepted* uops (the walk can break early), so
        // enumerate() would not be equivalent.
        let mut copied = 0usize;
        #[allow(clippy::explicit_counter_loop)]
        for u in wrong_path {
            if u.pc == branch_pc {
                break; // second dynamic instance: we are in a loop
            }
            if copied >= self.max_distance {
                break;
            }
            dest = dest.union(u.dsts);
            if let Some(a) = u.store_addr {
                bloom = bloom_insert(bloom, a);
            }
            if u.branch.is_some() {
                self.wrong_branches.push((u.pc, copied));
            }
            self.insert(u.pc, dest, bloom, copied);
            copied += 1;
        }
        self.flush_cycle = cycle;
        self.walk_rate = retire_width.max(1);
    }

    /// Feeds one retired correct-path uop; returns the merge event when
    /// the merge point is found.
    pub(crate) fn on_correct_retire(&mut self, u: &RetiredUop) -> Option<MergeEvent> {
        if !self.active {
            return None;
        }
        if u.seq <= self.branch_seq {
            // Pre-branch uops still draining from the ROB are not part of
            // the resumed correct path.
            return None;
        }
        if u.uop.pc == self.branch_pc {
            // Second correct-path instance before any merge: give up.
            self.searches_failed += 1;
            self.invalidate();
            return None;
        }
        if self.distance >= self.max_distance {
            self.searches_failed += 1;
            self.invalidate();
            return None;
        }
        self.distance += 1;

        // Probe before accumulating this uop's own dests: the merge point
        // instruction itself executes on both paths. The ROB walk copies
        // entries at retire bandwidth starting at the flush, so an entry
        // is only visible once the walk has reached its position — a race
        // the walk always wins in steady state because the correct path
        // must first refill the pipeline (footnote 13).
        let walked = (u.cycle.saturating_sub(self.flush_cycle) as usize) * self.walk_rate;
        let hit = self
            .probe(u.uop.pc)
            .filter(|(_, _, pos)| *pos < walked.max(1));

        if let Some((wrong_dest, wrong_bloom, merge_pos)) = hit {
            // Only branches *between* the mispredicted branch and the
            // merge point (on either path) are guarded by it.
            let ev = MergeEvent {
                branch_pc: self.branch_pc,
                merge_pc: u.uop.pc,
                both_path_dest: wrong_dest.union(self.correct_dest),
                both_path_bloom: wrong_bloom | self.correct_bloom,
                guarded: self
                    .wrong_branches
                    .iter()
                    .filter(|(_, pos)| *pos < merge_pos)
                    .map(|(pc, _)| *pc)
                    .chain(self.correct_branches.iter().copied())
                    .collect(),
                distance: self.distance,
            };
            self.merges_found += 1;
            self.invalidate();
            return Some(ev);
        }

        self.correct_dest = self.correct_dest.union(u.uop.dsts());
        if let Some(m) = u.rec.mem.filter(|m| m.is_store) {
            self.correct_bloom = bloom_insert(self.correct_bloom, m.addr);
        }
        if u.uop.is_cond_branch() {
            self.correct_branches.push(u.uop.pc);
        }
        None
    }

    /// (arms, merges found, searches failed).
    #[must_use]
    pub(crate) fn stats(&self) -> (u64, u64, u64) {
        (self.arms, self.merges_found, self.searches_failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_isa::{reg, ExecRecord, Uop, UopKind};

    fn wp(pc: Pc, dst: Option<br_isa::ArchReg>) -> WrongPathUop {
        WrongPathUop {
            pc,
            dsts: dst.map_or(RegSet::empty(), RegSet::single),
            store_addr: None,
            branch: None,
        }
    }

    fn retired(pc: Pc, dst: Option<br_isa::ArchReg>, cycle: u64) -> RetiredUop {
        let uop = Uop {
            pc,
            kind: match dst {
                Some(d) => UopKind::Mov {
                    dst: d,
                    src: br_isa::Operand::Imm(0),
                },
                None => UopKind::Nop,
            },
        };
        RetiredUop {
            seq: 1,
            uop,
            rec: ExecRecord {
                pc,
                next_pc: pc + 1,
                branch: None,
                mem: None,
                dst: None,
                halt: false,
            },
            cycle,
        }
    }

    #[test]
    fn finds_hammock_merge_point() {
        // if (b) { pc 10,11 } else { pc 20,21 } ; merge at 30.
        let mut wpb = WrongPathBuffer::new(128, 4, 100);
        wpb.arm(
            5,
            0,
            &[
                wp(10, Some(reg::R1)),
                wp(11, Some(reg::R2)),
                wp(30, Some(reg::R5)),
            ],
            0,
            4,
        );
        // Correct path: 20, 21, then 30 = merge.
        assert!(wpb
            .on_correct_retire(&retired(20, Some(reg::R3), 10))
            .is_none());
        assert!(wpb
            .on_correct_retire(&retired(21, Some(reg::R4), 10))
            .is_none());
        let ev = wpb
            .on_correct_retire(&retired(30, Some(reg::R5), 10))
            .expect("merge at 30");
        assert_eq!(ev.merge_pc, 30);
        assert_eq!(ev.branch_pc, 5);
        // Both-path dest set: wrong {r1,r2,r5-prefix? no: dest set at 30's
        // insertion includes r1,r2,r5} ∪ correct {r3,r4}.
        for r in [reg::R1, reg::R2, reg::R3, reg::R4] {
            assert!(ev.both_path_dest.contains(r), "{r} in both-path dest");
        }
        assert!(!wpb.active, "one-shot per arm");
    }

    #[test]
    fn loop_branch_terminates_walk_at_second_instance() {
        let mut wpb = WrongPathBuffer::new(128, 4, 100);
        // Wrong path re-encounters the branch (pc 5): stop copying there.
        wpb.arm(
            5,
            0,
            &[wp(6, Some(reg::R1)), wp(5, None), wp(7, Some(reg::R2))],
            0,
            4,
        );
        // pc 7 must not be in the buffer.
        assert!(wpb.probe(7).is_none());
        assert!(wpb.probe(6).is_some());
    }

    #[test]
    fn gives_up_at_second_correct_instance() {
        let mut wpb = WrongPathBuffer::new(128, 4, 100);
        wpb.arm(5, 0, &[wp(10, None)], 0, 4);
        assert!(wpb.on_correct_retire(&retired(20, None, 10)).is_none());
        assert!(wpb.on_correct_retire(&retired(5, None, 10)).is_none());
        assert!(!wpb.active);
        assert_eq!(wpb.stats().2, 1, "failure counted");
    }

    #[test]
    fn distance_bound_enforced() {
        let mut wpb = WrongPathBuffer::new(128, 4, 3);
        wpb.arm(5, 0, &[wp(99, None)], 0, 4);
        for pc in 10..13 {
            assert!(wpb.on_correct_retire(&retired(pc, None, 10)).is_none());
        }
        assert!(wpb.on_correct_retire(&retired(13, None, 10)).is_none());
        assert!(!wpb.active);
    }

    #[test]
    fn rob_walk_races_the_retire_stream() {
        let mut wpb = WrongPathBuffer::new(128, 4, 100);
        // 12 wrong-path uops; the walk copies 4 per cycle from the flush.
        let wrong: Vec<WrongPathUop> = (10..22).map(|p| wp(p, None)).collect();
        wpb.arm(5, 0, &wrong, 0, 4);
        // At cycle 1 only positions 0..4 are visible: pc 18 (pos 8) cannot
        // hit yet...
        assert!(wpb.on_correct_retire(&retired(18, None, 1)).is_none());
        // ...but pc 10 (pos 0) can, even this early.
        assert!(wpb.on_correct_retire(&retired(10, None, 1)).is_some());

        // Re-arm: by cycle 3 the walk has covered position 8.
        let wrong: Vec<WrongPathUop> = (10..22).map(|p| wp(p, None)).collect();
        wpb.arm(5, 0, &wrong, 0, 4);
        assert!(wpb.on_correct_retire(&retired(18, None, 3)).is_some());
    }

    #[test]
    fn bloom_filter_behaviour() {
        let mut bloom = 0;
        bloom = bloom_insert(bloom, 0x1000);
        bloom = bloom_insert(bloom, 0x2000);
        assert!(bloom_probe(bloom, 0x1000));
        assert!(bloom_probe(bloom, 0x2000));
        // Most other addresses miss.
        let misses = (0..100u64)
            .filter(|i| !bloom_probe(bloom, 0x9_0000 + i * 64))
            .count();
        assert!(misses > 80, "bloom too dense: {misses}/100 misses");
    }

    #[test]
    fn guarded_branches_collected_from_both_paths() {
        let mut wpb = WrongPathBuffer::new(128, 4, 100);
        let mut wrong = vec![wp(10, None)];
        wrong[0].branch = Some(true); // a branch on the wrong path
        wrong.push(wp(30, Some(reg::R5)));
        wpb.arm(5, 0, &wrong, 0, 4);
        // A conditional branch on the correct path.
        let mut br = retired(22, None, 10);
        br.uop = Uop {
            pc: 22,
            kind: UopKind::Branch {
                cond: br_isa::Cond::Eq,
                target: 0,
            },
        };
        br.rec.branch = Some(br_isa::BranchExec {
            actual_taken: false,
            followed_taken: false,
            target: 0,
            actual_next: 23,
        });
        assert!(wpb.on_correct_retire(&br).is_none());
        let ev = wpb
            .on_correct_retire(&retired(30, None, 10))
            .expect("merge");
        assert!(ev.guarded.contains(&10));
        assert!(ev.guarded.contains(&22));
    }
}
