//! Core-side statistics: IPC, MPKI, per-branch-site accounting.

use std::collections::HashMap;

use br_isa::Pc;

/// Per static-branch-site counters (drives Figure 1's "32 most
/// hard-to-predict branches" selection).
#[derive(Clone, Copy, Debug, Default)]
pub struct BranchSiteStats {
    /// Dynamic executions retired.
    pub executed: u64,
    /// Retired with a wrong fetch-time direction.
    pub mispredicted: u64,
    /// Retired where the *baseline predictor's* direction was wrong
    /// (regardless of what was followed).
    pub base_wrong: u64,
    /// Retired with the direction supplied by the DCE.
    pub dce_provided: u64,
}

impl BranchSiteStats {
    /// Misprediction rate of the followed direction.
    #[must_use]
    pub fn misp_rate(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.mispredicted as f64 / self.executed as f64
        }
    }
}

/// Aggregate core statistics. The `u64` event counts are listed once in
/// the [`br_mem::counters!`] call below; the fingerprint and the per-site
/// map are structural and stay out of that list.
#[derive(Clone, Debug)]
pub struct CoreStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Uops fetched (including wrong path).
    pub fetched_uops: u64,
    /// Conditional branches fetched (including wrong path) — every one is
    /// a predictor lookup.
    pub fetched_branches: u64,
    /// Uops issued to functional units (including wrong path).
    pub issued_uops: u64,
    /// Load uops issued to the memory system (including wrong path).
    pub issued_loads: u64,
    /// Uops retired (correct path only).
    pub retired_uops: u64,
    /// Conditional branches retired.
    pub retired_branches: u64,
    /// Retired conditional branches whose fetch direction was wrong.
    pub mispredicts: u64,
    /// Recoveries performed (includes recoveries later squashed).
    pub(crate) recoveries: u64,
    /// Instruction-cache misses (fetch stalls).
    pub(crate) icache_misses: u64,
    /// Wrong-path uops squashed across all recoveries.
    pub squashed_uops: u64,
    /// Work of the event-driven issue logic: ready-list entries the
    /// issue phase examined, stores the forwarding search examined, and
    /// consumers the wakeups examined.
    pub issue_visits: u64,
    /// Cycles in which the core fetched, issued, completed and retired
    /// nothing.
    pub(crate) idle_cycles: u64,
    /// FNV-1a fold over the architectural content of every retired uop:
    /// PC, destination write (register + value), memory access (address,
    /// value, store bit), actual branch resolution, and the halt bit.
    /// Deliberately excludes anything prediction- or timing-dependent
    /// (followed direction, fetch-time next PC, cycle numbers), so two
    /// runs that retire the same instructions must produce the same
    /// fingerprint regardless of how fetch was steered. This is the
    /// basis of the fault harness's architectural-equivalence check.
    pub retire_fingerprint: u64,
    /// Per-site branch accounting.
    pub branch_sites: HashMap<Pc, BranchSiteStats>,
}

br_mem::counters!(CoreStats {
    cycles,
    fetched_uops,
    fetched_branches,
    issued_uops,
    issued_loads,
    retired_uops,
    retired_branches,
    mispredicts,
    recoveries,
    icache_misses,
    squashed_uops,
    issue_visits,
    idle_cycles
});

impl Default for CoreStats {
    fn default() -> Self {
        Self {
            cycles: 0,
            fetched_uops: 0,
            fetched_branches: 0,
            issued_uops: 0,
            issued_loads: 0,
            retired_uops: 0,
            retired_branches: 0,
            mispredicts: 0,
            recoveries: 0,
            icache_misses: 0,
            squashed_uops: 0,
            issue_visits: 0,
            idle_cycles: 0,
            // FNV-1a offset basis: a zero start would make the hash
            // insensitive to leading zero bytes.
            retire_fingerprint: 0xcbf2_9ce4_8422_2325,
            branch_sites: HashMap::new(),
        }
    }
}

impl CoreStats {
    /// Folds one 64-bit word into [`CoreStats::retire_fingerprint`]
    /// (byte-wise FNV-1a).
    pub(crate) fn fold_retirement(&mut self, word: u64) {
        let mut h = self.retire_fingerprint;
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.retire_fingerprint = h;
    }

    /// Instructions (uops) per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired_uops as f64 / self.cycles as f64
        }
    }

    /// Branch mispredictions per 1000 retired uops.
    #[must_use]
    pub fn mpki(&self) -> f64 {
        if self.retired_uops == 0 {
            0.0
        } else {
            self.mispredicts as f64 * 1000.0 / self.retired_uops as f64
        }
    }

    /// The `n` branch sites with the most mispredictions, descending.
    #[must_use]
    pub fn hardest_branches(&self, n: usize) -> Vec<(Pc, BranchSiteStats)> {
        let mut v: Vec<_> = self.branch_sites.iter().map(|(k, s)| (*k, *s)).collect();
        v.sort_by(|a, b| b.1.mispredicted.cmp(&a.1.mispredicted).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let s = CoreStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mpki(), 0.0);
        assert_eq!(BranchSiteStats::default().misp_rate(), 0.0);
    }

    #[test]
    fn hardest_branches_sorted() {
        let mut s = CoreStats::default();
        for (pc, m) in [(1u64, 5u64), (2, 9), (3, 1)] {
            s.branch_sites.insert(
                pc,
                BranchSiteStats {
                    executed: 10,
                    mispredicted: m,
                    base_wrong: m,
                    dce_provided: 0,
                },
            );
        }
        let top = s.hardest_branches(2);
        assert_eq!(top[0].0, 2);
        assert_eq!(top[1].0, 1);
    }
}
