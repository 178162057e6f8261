//! Affector detection via poison propagation (§4.4).
//!
//! Once the merge point of a mispredicted branch is known, every register
//! and store address in the *both-path dest set* is poisoned. Retired
//! correct-path instructions after the merge point propagate poison from
//! sources to destinations (and through memory via the bloom filter);
//! writes from clean sources *remove* register poison. Any branch that
//! sources poison is an affectee — the merge-predicted branch is its
//! affector. Detection stops at the second instance of the merge-predicted
//! branch or at the distance bound. The algorithm is adapted from Runahead
//! Execution's poison bits, as the paper notes.

use br_isa::{Pc, RegSet};
use br_ooo::RetiredUop;

use crate::wpb::{bloom_insert, bloom_probe, MemBloom, MergeEvent};

/// An active poison-propagation pass for one merge event.
#[derive(Clone, Debug)]
pub(crate) struct PoisonDetector {
    affector_pc: Pc,
    poison: RegSet,
    mem_poison: MemBloom,
    remaining: usize,
    affectees: Vec<Pc>,
    done: bool,
}

impl PoisonDetector {
    /// Starts detection from a merge event, with `max_distance` retired
    /// uops of budget.
    #[must_use]
    pub(crate) fn new(ev: &MergeEvent, max_distance: usize) -> Self {
        PoisonDetector {
            affector_pc: ev.branch_pc,
            poison: ev.both_path_dest,
            mem_poison: ev.both_path_bloom,
            remaining: max_distance,
            affectees: Vec::new(),
            done: false,
        }
    }

    /// The affector branch this pass is tracking.
    #[must_use]
    pub(crate) fn affector(&self) -> Pc {
        self.affector_pc
    }

    /// Whether the pass has terminated.
    #[must_use]
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// Feeds one retired uop. Returns `Some(affectee_pc)` when this uop is
    /// a branch sourcing poison.
    pub(crate) fn step(&mut self, u: &RetiredUop) -> Option<Pc> {
        if self.done {
            return None;
        }
        if u.uop.pc == self.affector_pc || self.remaining == 0 {
            // The affector branch itself is also checked for sourcing
            // poison ("Any branch, including the merge predicted branch,
            // that sources poison is an affectee") before terminating.
            let self_affected = u.uop.pc == self.affector_pc && self.sources_poison(u);
            self.done = true;
            if self_affected {
                self.affectees.push(self.affector_pc);
                return Some(self.affector_pc);
            }
            return None;
        }
        self.remaining -= 1;

        let dirty = self.sources_poison(u);
        // Propagate / clear register poison.
        for d in u.uop.dsts().iter() {
            if dirty {
                self.poison.insert(d);
            } else {
                self.poison.remove(d);
            }
        }
        // Stores with poisoned data poison their address.
        if let Some(m) = u.rec.mem.filter(|m| m.is_store) {
            if dirty {
                self.mem_poison = bloom_insert(self.mem_poison, m.addr);
            }
        }
        if u.uop.is_cond_branch() && dirty {
            if !self.affectees.contains(&u.uop.pc) {
                self.affectees.push(u.uop.pc);
            }
            return Some(u.uop.pc);
        }
        None
    }

    fn sources_poison(&self, u: &RetiredUop) -> bool {
        if u.uop.srcs().intersects(self.poison) {
            return true;
        }
        if let Some(m) = u.rec.mem.filter(|m| !m.is_store) {
            if bloom_probe(self.mem_poison, m.addr) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_isa::{reg, Cond, ExecRecord, MemOperand, Operand, Uop, UopKind, Width};

    fn merge_ev(dest: RegSet) -> MergeEvent {
        MergeEvent {
            branch_pc: 5,
            merge_pc: 30,
            both_path_dest: dest,
            both_path_bloom: 0,
            guarded: vec![],
            distance: 4,
        }
    }

    fn u(pc: Pc, kind: UopKind) -> RetiredUop {
        let uop = Uop { pc, kind };
        RetiredUop {
            seq: 0,
            uop,
            rec: ExecRecord {
                pc,
                next_pc: pc + 1,
                branch: None,
                mem: None,
                dst: None,
                halt: false,
            },
            cycle: 0,
        }
    }

    fn load(pc: Pc, dst: br_isa::ArchReg, addr: u64) -> RetiredUop {
        let mut r = u(
            pc,
            UopKind::Load {
                dst,
                addr: MemOperand::absolute(addr),
                width: Width::B8,
                signed: false,
            },
        );
        r.rec.mem = Some(br_isa::MemExec {
            addr,
            width: Width::B8,
            is_store: false,
            value: 0,
        });
        r
    }

    fn store(pc: Pc, src: br_isa::ArchReg, addr: u64) -> RetiredUop {
        let mut r = u(
            pc,
            UopKind::Store {
                src: Operand::Reg(src),
                addr: MemOperand::absolute(addr),
                width: Width::B8,
            },
        );
        r.rec.mem = Some(br_isa::MemExec {
            addr,
            width: Width::B8,
            is_store: true,
            value: 0,
        });
        r
    }

    #[test]
    fn branch_sourcing_poison_is_affectee() {
        let mut p = PoisonDetector::new(&merge_ev(RegSet::single(reg::R1)), 100);
        // cmp r1, 0 -> flags poisoned; branch reads flags -> affectee.
        assert!(p
            .step(&u(
                31,
                UopKind::Cmp {
                    src1: reg::R1,
                    src2: Operand::Imm(0)
                }
            ))
            .is_none());
        let hit = p.step(&u(
            32,
            UopKind::Branch {
                cond: Cond::Eq,
                target: 0,
            },
        ));
        assert_eq!(hit, Some(32));
        assert_eq!(p.affectees, [32]);
    }

    #[test]
    fn clean_overwrite_removes_poison() {
        let mut p = PoisonDetector::new(&merge_ev(RegSet::single(reg::R1)), 100);
        // r1 = 7 (clean immediate) -> poison cleared.
        p.step(&u(
            31,
            UopKind::Mov {
                dst: reg::R1,
                src: Operand::Imm(7),
            },
        ));
        p.step(&u(
            32,
            UopKind::Cmp {
                src1: reg::R1,
                src2: Operand::Imm(0),
            },
        ));
        let hit = p.step(&u(
            33,
            UopKind::Branch {
                cond: Cond::Eq,
                target: 0,
            },
        ));
        assert_eq!(hit, None, "poison was cleared by the clean write");
    }

    #[test]
    fn poison_propagates_through_registers() {
        let mut p = PoisonDetector::new(&merge_ev(RegSet::single(reg::R1)), 100);
        // r2 = r1 + 1 (poisoned); r3 = r2 * 2 (poisoned); cmp r3; branch.
        p.step(&u(
            31,
            UopKind::Alu {
                op: br_isa::AluOp::Add,
                dst: reg::R2,
                src1: reg::R1,
                src2: Operand::Imm(1),
            },
        ));
        p.step(&u(
            32,
            UopKind::Alu {
                op: br_isa::AluOp::Mul,
                dst: reg::R3,
                src1: reg::R2,
                src2: Operand::Imm(2),
            },
        ));
        p.step(&u(
            33,
            UopKind::Cmp {
                src1: reg::R3,
                src2: Operand::Imm(0),
            },
        ));
        assert!(p
            .step(&u(
                34,
                UopKind::Branch {
                    cond: Cond::Eq,
                    target: 0
                }
            ))
            .is_some());
    }

    #[test]
    fn poison_propagates_through_memory() {
        let mut p = PoisonDetector::new(&merge_ev(RegSet::single(reg::R1)), 100);
        p.step(&store(31, reg::R1, 0x4000)); // poisoned store
        p.step(&load(32, reg::R5, 0x4000)); // load from poisoned address
        p.step(&u(
            33,
            UopKind::Cmp {
                src1: reg::R5,
                src2: Operand::Imm(0),
            },
        ));
        assert!(p
            .step(&u(
                34,
                UopKind::Branch {
                    cond: Cond::Eq,
                    target: 0
                }
            ))
            .is_some());
    }

    #[test]
    fn terminates_at_second_affector_instance() {
        let mut p = PoisonDetector::new(&merge_ev(RegSet::single(reg::R1)), 100);
        assert!(p.step(&u(5, UopKind::Nop)).is_none());
        assert!(p.is_done());
    }

    #[test]
    fn self_affection_detected_at_termination() {
        // The affector branch's own next instance sources poison -> the
        // branch affects itself (a loop-carried data dependence).
        let mut p = PoisonDetector::new(&merge_ev(RegSet::single(reg::R1)), 100);
        p.step(&u(
            31,
            UopKind::Cmp {
                src1: reg::R1,
                src2: Operand::Imm(0),
            },
        ));
        let hit = p.step(&u(
            5,
            UopKind::Branch {
                cond: Cond::Eq,
                target: 0,
            },
        ));
        assert_eq!(hit, Some(5));
        assert!(p.is_done());
    }

    #[test]
    fn distance_budget_terminates() {
        let mut p = PoisonDetector::new(&merge_ev(RegSet::single(reg::R1)), 2);
        p.step(&u(31, UopKind::Nop));
        p.step(&u(32, UopKind::Nop));
        p.step(&u(33, UopKind::Nop));
        assert!(p.is_done());
    }
}
