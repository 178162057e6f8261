//! The Hard Branch Table (§4.3, Figure 9 left).
//!
//! Detects hard-to-predict (HTP) branches with a 5-bit saturating
//! misprediction counter that decays by 15 every 1000 retired branches,
//! and tracks affector/guard relationships: AG branches stay resident,
//! each HTP entry carries an affector/guard list (AGL), and a 7-bit bias
//! counter (decayed by 9) filters out highly biased AG branches.

use std::collections::BTreeSet;

use br_isa::Pc;

/// Saturation point of the 5-bit misprediction counter.
const MISP_SATURATE: u8 = 31;
/// Decay applied to misprediction counters every [`DECAY_PERIOD`] branches.
const MISP_DECAY: u8 = 15;
/// Retired branches between decay events (footnote 7).
const DECAY_PERIOD: u64 = 1000;
/// Saturation point of the 7-bit bias counter.
const BIAS_SATURATE: u8 = 127;
/// Penalty applied to the bias counter when the direction breaks the
/// bias. Footnote 9's arithmetic model detects "a bias of 90% or more":
/// +1 per match, −9 per mismatch drifts positive exactly when the match
/// probability exceeds 0.9.
const BIAS_DECAY: u8 = 9;
/// A branch whose bias counter stays above this is considered biased.
const BIAS_THRESHOLD: u8 = 64;

/// One Hard Branch Table entry.
#[derive(Clone, Debug)]
pub struct HbtEntry {
    /// The branch PC.
    pub(crate) pc: Pc,
    /// 5-bit saturating misprediction counter.
    pub misp_counter: u8,
    /// Whether this branch is registered as an affector/guard of some HTP
    /// branch (keeps the entry resident).
    pub(crate) ag: bool,
    /// Set when this HTP branch's affector/guard list changed since the
    /// last chain extraction (AGC field).
    pub(crate) ag_changed: bool,
    /// Affector/guard list: PCs of branches that guard or affect this one.
    pub agl: BTreeSet<Pc>,
    /// 7-bit bias counter.
    pub(crate) bias_counter: u8,
    /// Last-seen biased direction (BD field).
    pub(crate) bias_direction: bool,
}

impl HbtEntry {
    fn new(pc: Pc) -> Self {
        HbtEntry {
            pc,
            misp_counter: 0,
            ag: false,
            ag_changed: false,
            agl: BTreeSet::new(),
            bias_counter: 0,
            bias_direction: false,
        }
    }

    /// Whether the misprediction counter has saturated (the branch is
    /// considered hard-to-predict).
    #[must_use]
    pub(crate) fn is_hard(&self) -> bool {
        self.misp_counter >= MISP_SATURATE
    }

    /// Whether the branch currently looks highly biased.
    #[must_use]
    pub fn is_biased(&self) -> bool {
        self.bias_counter >= BIAS_THRESHOLD
    }
}

/// The Hard Branch Table.
#[derive(Clone, Debug)]
pub struct HardBranchTable {
    capacity: usize,
    entries: Vec<HbtEntry>,
    retired_branches: u64,
    lfsr: u32,
    inserts: u64,
    evicts: u64,
}

impl HardBranchTable {
    /// Creates a table with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "HBT capacity must be nonzero");
        HardBranchTable {
            capacity,
            entries: Vec::new(),
            retired_branches: 0,
            lfsr: 0x1d5f,
            inserts: 0,
            evicts: 0,
        }
    }

    fn rand_percent(&mut self) -> u32 {
        let lsb = self.lfsr & 1;
        self.lfsr >>= 1;
        if lsb != 0 {
            self.lfsr ^= 0xB400;
        }
        self.lfsr % 100
    }

    /// Looks up an entry.
    #[must_use]
    pub fn get(&self, pc: Pc) -> Option<&HbtEntry> {
        self.entries.iter().find(|e| e.pc == pc)
    }

    fn get_mut(&mut self, pc: Pc) -> Option<&mut HbtEntry> {
        self.entries.iter_mut().find(|e| e.pc == pc)
    }

    /// The entry of `pc`, allocated if absent: in a free slot, else over
    /// the first dead entry (no mispredictions, not an affector/guard).
    /// `None` when the table is full of live entries.
    fn entry_or_insert(&mut self, pc: Pc) -> Option<&mut HbtEntry> {
        let i = match self.entries.iter().position(|e| e.pc == pc) {
            Some(i) => i,
            None => {
                let i = if self.entries.len() < self.capacity {
                    self.entries.push(HbtEntry::new(pc));
                    self.entries.len() - 1
                } else {
                    let i = self
                        .entries
                        .iter()
                        .position(|e| e.misp_counter == 0 && !e.ag)?;
                    self.entries[i] = HbtEntry::new(pc);
                    self.evicts += 1;
                    i
                };
                self.inserts += 1;
                i
            }
        };
        Some(&mut self.entries[i])
    }

    /// Records a retired conditional branch. Returns `true` when this
    /// retirement should trigger chain extraction for `pc` (counter
    /// saturated, or the AG set changed, or the 1% random refresh —
    /// footnote 10).
    pub(crate) fn on_branch_retire(&mut self, pc: Pc, taken: bool, mispredicted: bool) -> bool {
        self.retired_branches += 1;
        if self.retired_branches.is_multiple_of(DECAY_PERIOD) {
            self.decay();
        }
        // Allocate on retire if space (or a dead entry) is available.
        let Some(e) = self.entry_or_insert(pc) else {
            return false;
        };
        if mispredicted {
            e.misp_counter = (e.misp_counter + 1).min(MISP_SATURATE);
        }
        // Bias tracking: +1 on match, -9 on mismatch (footnote 9), so
        // only branches ~90% biased or more drift upward.
        if taken == e.bias_direction {
            e.bias_counter = (e.bias_counter + 1).min(BIAS_SATURATE);
        } else if e.bias_counter == 0 {
            e.bias_direction = taken;
            e.bias_counter = 1;
        } else {
            e.bias_counter = e.bias_counter.saturating_sub(BIAS_DECAY);
        }

        let hard = e.is_hard();
        let changed = e.ag_changed;
        if hard && changed {
            e.ag_changed = false;
            return true;
        }
        if hard && mispredicted {
            return true;
        }
        // Random 1% refresh of tracked branches.
        if hard && self.rand_percent() == 0 {
            return true;
        }
        false
    }

    fn decay(&mut self) {
        for e in &mut self.entries {
            e.misp_counter = e.misp_counter.saturating_sub(MISP_DECAY);
        }
        // Drop AG links to branches that have become biased (§4.3).
        let biased: Vec<Pc> = self
            .entries
            .iter()
            .filter(|e| e.ag && e.is_biased())
            .map(|e| e.pc)
            .collect();
        if !biased.is_empty() {
            for e in &mut self.entries {
                let before = e.agl.len();
                for b in &biased {
                    e.agl.remove(b);
                }
                if e.agl.len() != before {
                    e.ag_changed = true;
                }
            }
        }
    }

    /// Registers `ag_pc` as an affector/guard of the HTP branch `htp_pc`
    /// (§4.3 "Tracking Affector and Guard Branches"). Biased AG branches
    /// are ignored. Returns whether the AGL changed.
    pub(crate) fn add_affector_guard(&mut self, htp_pc: Pc, ag_pc: Pc) -> bool {
        if htp_pc == ag_pc {
            return false;
        }
        if self.is_biased(ag_pc) {
            return false;
        }
        // Ensure the AG branch is resident and flagged.
        if let Some(e) = self.entry_or_insert(ag_pc) {
            e.ag = true;
        }
        let Some(htp) = self.get_mut(htp_pc) else {
            return false;
        };
        let added = htp.agl.insert(ag_pc);
        if added {
            htp.ag_changed = true;
        }
        added
    }

    /// The affector/guard set of `pc` (empty if untracked).
    #[must_use]
    pub(crate) fn affector_guards(&self, pc: Pc) -> BTreeSet<Pc> {
        self.get(pc).map(|e| e.agl.clone()).unwrap_or_default()
    }

    /// Whether `pc` is currently considered biased (unknown branches are
    /// not biased).
    #[must_use]
    pub(crate) fn is_biased(&self, pc: Pc) -> bool {
        self.get(pc).is_some_and(HbtEntry::is_biased)
    }

    /// Lifetime allocation churn as `(inserts, evicts)`: every entry
    /// allocation counts as an insert, and an insert that overwrote a live
    /// victim also counts as an evict.
    #[must_use]
    pub(crate) fn churn(&self) -> (u64, u64) {
        (self.inserts, self.evicts)
    }

    /// Fault injection: forces an immediate decay event (a "decay
    /// storm" ages out misprediction history early, delaying HTP
    /// detection — a pure performance event).
    pub(crate) fn chaos_decay_storm(&mut self) {
        self.decay();
    }

    /// Validates structural invariants: entry count within capacity and
    /// both saturating counters within their bit widths.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        if self.entries.len() > self.capacity {
            return Err(format!(
                "hbt: {} entries exceed capacity {}",
                self.entries.len(),
                self.capacity
            ));
        }
        for e in &self.entries {
            if e.misp_counter > MISP_SATURATE {
                return Err(format!(
                    "hbt[{:#x}]: misp counter {} exceeds 5-bit saturation {MISP_SATURATE}",
                    e.pc, e.misp_counter
                ));
            }
            if e.bias_counter > BIAS_SATURATE {
                return Err(format!(
                    "hbt[{:#x}]: bias counter {} exceeds 7-bit saturation {BIAS_SATURATE}",
                    e.pc, e.bias_counter
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HardBranchTable {
        /// Number of resident entries.
        #[must_use]
        pub(crate) fn len(&self) -> usize {
            self.entries.len()
        }
    }

    #[test]
    fn frequent_mispredicts_saturate() {
        let mut hbt = HardBranchTable::new(16);
        let mut triggered = false;
        for i in 0..100 {
            triggered |= hbt.on_branch_retire(0x40, i % 2 == 0, true);
        }
        assert!(hbt.get(0x40).is_some_and(HbtEntry::is_hard));
        assert!(triggered, "saturation should trigger extraction");
    }

    #[test]
    fn rare_mispredicts_decay_away() {
        let mut hbt = HardBranchTable::new(16);
        // 1 mispredict per 100 branches: decay (-15/1000) dominates.
        for i in 0..5000u64 {
            let misp = i % 100 == 0;
            hbt.on_branch_retire(0x40, true, misp);
            hbt.on_branch_retire(0x44, true, false);
        }
        assert!(!hbt.get(0x40).is_some_and(HbtEntry::is_hard));
    }

    #[test]
    fn bias_tracking() {
        let mut hbt = HardBranchTable::new(16);
        for _ in 0..200 {
            hbt.on_branch_retire(0x80, true, false);
        }
        assert!(hbt.is_biased(0x80));
        // A 50/50 branch never becomes biased.
        for i in 0..400 {
            hbt.on_branch_retire(0x90, i % 2 == 0, false);
        }
        assert!(!hbt.is_biased(0x90));
    }

    #[test]
    fn affector_guard_registration() {
        let mut hbt = HardBranchTable::new(16);
        for _ in 0..40 {
            hbt.on_branch_retire(0x10, true, true);
        }
        assert!(hbt.add_affector_guard(0x10, 0x20));
        assert!(!hbt.add_affector_guard(0x10, 0x20), "idempotent");
        assert!(hbt.affector_guards(0x10).contains(&0x20));
        assert!(hbt.get(0x20).unwrap().ag, "AG branch resident and flagged");
        // Self-guard is meaningless.
        assert!(!hbt.add_affector_guard(0x10, 0x10));
    }

    #[test]
    fn biased_ag_branches_not_registered() {
        let mut hbt = HardBranchTable::new(16);
        for _ in 0..40 {
            hbt.on_branch_retire(0x10, true, true);
        }
        for _ in 0..200 {
            hbt.on_branch_retire(0x30, true, false); // heavily biased
        }
        assert!(!hbt.add_affector_guard(0x10, 0x30));
        assert!(hbt.affector_guards(0x10).is_empty());
    }

    #[test]
    fn capacity_bounded_and_ag_protected() {
        let mut hbt = HardBranchTable::new(4);
        for _ in 0..40 {
            hbt.on_branch_retire(0x10, true, true);
        }
        hbt.add_affector_guard(0x10, 0x20);
        for pc in 0x100..0x140u64 {
            hbt.on_branch_retire(pc, true, false);
        }
        assert!(hbt.len() <= 4);
        assert!(hbt.get(0x20).is_some(), "AG entries survive replacement");
    }

    #[test]
    fn agc_triggers_reextraction() {
        let mut hbt = HardBranchTable::new(16);
        for _ in 0..40 {
            hbt.on_branch_retire(0x10, true, true);
        }
        hbt.add_affector_guard(0x10, 0x20);
        // Next retirement of the (still hard) branch must trigger due to
        // the AG-changed flag even without a misprediction.
        assert!(hbt.on_branch_retire(0x10, true, false));
    }
}
