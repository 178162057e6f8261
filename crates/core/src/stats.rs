//! Branch Runahead statistics (drives Figures 2, 3, 5, 12 and the
//! merge-point accuracy claim).

use std::collections::HashMap;

/// Figure 12's prediction categories for covered branches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PredictionCategory {
    /// No chain instance had been activated for this dynamic branch.
    Inactive,
    /// A chain was active but its outcome arrived too late for fetch.
    Late,
    /// A prediction existed but the throttle counter suppressed it.
    Throttled,
    /// A DCE prediction was used and was correct.
    Correct,
    /// A DCE prediction was used and was wrong.
    Incorrect,
}

impl PredictionCategory {
    /// All categories in the paper's stacking order.
    pub const ALL: [PredictionCategory; 5] = [
        PredictionCategory::Inactive,
        PredictionCategory::Late,
        PredictionCategory::Throttled,
        PredictionCategory::Incorrect,
        PredictionCategory::Correct,
    ];

    /// Lower-case name, used in counter names
    /// (`prediction_breakdown.late`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PredictionCategory::Inactive => "inactive",
            PredictionCategory::Late => "late",
            PredictionCategory::Throttled => "throttled",
            PredictionCategory::Correct => "correct",
            PredictionCategory::Incorrect => "incorrect",
        }
    }
}

/// Aggregate Branch Runahead statistics. Every count, the Figure 12
/// categories included, is listed once in the [`br_mem::counters!`] call
/// below.
#[derive(Clone, Debug, Default)]
pub struct BrStats {
    /// Chain extraction attempts.
    pub extraction_attempts: u64,
    /// Chains successfully extracted and installed.
    pub chains_extracted: u64,
    /// Extractions rejected, for any reason (one counter: the
    /// [`ExtractOutcome`](crate::ExtractOutcome) reason is not kept).
    pub extraction_rejects: u64,
    /// Sum of installed chain lengths (uops), for Figure 2.
    pub chain_len_sum: u64,
    /// Installed chains that terminated at an affector/guard branch or
    /// whose target has registered affector/guards (Figure 5).
    pub chains_with_ag: u64,
    /// Uops eliminated by move / store→load elimination.
    pub uops_eliminated: u64,

    /// Chain instances initiated on the DCE.
    pub instances_initiated: u64,
    /// Instances flushed (mispredicted predictive initiation or sync).
    pub instances_flushed: u64,
    /// Instances that completed and produced an outcome.
    pub instances_completed: u64,
    /// Chain uops executed by the DCE (Figure 3's extra uops).
    pub dce_uops: u64,
    /// DCE load uops issued to the memory system.
    pub dce_loads: u64,
    /// Synchronizations (live-in copies from the core).
    pub syncs: u64,
    /// Whole-DCE flushes after a DCE-supplied misprediction (chain
    /// divergence).
    pub dce_flushes: u64,

    /// Per-category counts over retired covered branches (Figure 12).
    pub prediction_breakdown: HashMap<PredictionCategory, u64>,

    /// Merge-point predictions made.
    pub merge_points_found: u64,
    /// Merge-point searches that failed.
    pub merge_points_failed: u64,
    /// Merge-point validations performed (diagnostic sampling).
    pub merge_validated: u64,
    /// Of the validated ones, how many were correct.
    pub merge_correct: u64,
    /// Validations of the *static* code-layout heuristic (merge = the
    /// branch's taken target), the prior-work baseline §4.4 compares
    /// against (92% vs 78%).
    pub static_merge_validated: u64,
    /// Of those, how many were correct.
    pub static_merge_correct: u64,
    /// Affector/guard pairs registered in the HBT.
    pub ag_pairs: u64,
    /// HBT entry allocations.
    pub hbt_inserts: u64,
    /// HBT allocations that displaced a live entry.
    pub hbt_evicts: u64,
    /// Chain-cache lookups.
    pub chain_cache_lookups: u64,
    /// Chain-cache lookups that matched at least one chain.
    pub chain_cache_hits: u64,
    /// Machine-check invariant sweeps run.
    pub machine_checks: u64,

    /// Retired covered-branch executions (Figure 12 denominator).
    pub covered_branch_retires: u64,
}
br_mem::counters!(BrStats {
    extraction_attempts,
    chains_extracted,
    extraction_rejects,
    chain_len_sum,
    chains_with_ag,
    uops_eliminated,
    instances_initiated,
    instances_flushed,
    instances_completed,
    dce_uops,
    dce_loads,
    syncs,
    dce_flushes,
    merge_points_found,
    merge_points_failed,
    merge_validated,
    merge_correct,
    static_merge_validated,
    static_merge_correct,
    ag_pairs,
    hbt_inserts,
    hbt_evicts,
    chain_cache_lookups,
    chain_cache_hits,
    machine_checks,
    covered_branch_retires;
    keyed prediction_breakdown[PredictionCategory::ALL]
});

impl BrStats {
    /// Mean installed chain length (Figure 2).
    #[must_use]
    pub fn avg_chain_len(&self) -> f64 {
        if self.chains_extracted == 0 {
            0.0
        } else {
            self.chain_len_sum as f64 / self.chains_extracted as f64
        }
    }

    /// Fraction of chains impacted by affectors/guards (Figure 5).
    #[must_use]
    pub fn ag_fraction(&self) -> f64 {
        if self.chains_extracted == 0 {
            0.0
        } else {
            self.chains_with_ag as f64 / self.chains_extracted as f64
        }
    }

    /// Fraction of covered-branch retires in `cat` (Figure 12 bars).
    #[must_use]
    pub fn category_fraction(&self, cat: PredictionCategory) -> f64 {
        if self.covered_branch_retires == 0 {
            return 0.0;
        }
        let n = self.prediction_breakdown.get(&cat).copied().unwrap_or(0);
        n as f64 / self.covered_branch_retires as f64
    }

    /// Fraction of chain-cache lookups that matched a chain.
    #[must_use]
    pub fn chain_cache_hit_rate(&self) -> f64 {
        if self.chain_cache_lookups == 0 {
            0.0
        } else {
            self.chain_cache_hits as f64 / self.chain_cache_lookups as f64
        }
    }

    /// Merge-point prediction accuracy over validated samples (§4.4).
    #[must_use]
    pub fn merge_accuracy(&self) -> f64 {
        if self.merge_validated == 0 {
            0.0
        } else {
            self.merge_correct as f64 / self.merge_validated as f64
        }
    }

    /// Accuracy of the static code-layout merge heuristic (prior work).
    #[must_use]
    pub fn static_merge_accuracy(&self) -> f64 {
        if self.static_merge_validated == 0 {
            0.0
        } else {
            self.static_merge_correct as f64 / self.static_merge_validated as f64
        }
    }

    /// Bumps a prediction category counter.
    pub fn count_category(&mut self, cat: PredictionCategory) {
        *self.prediction_breakdown.entry(cat).or_insert(0) += 1;
        self.covered_branch_retires += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_zero_when_empty() {
        let s = BrStats::default();
        assert_eq!(s.avg_chain_len(), 0.0);
        assert_eq!(s.ag_fraction(), 0.0);
        assert_eq!(s.merge_accuracy(), 0.0);
        assert_eq!(s.category_fraction(PredictionCategory::Late), 0.0);
    }

    #[test]
    fn category_fractions_sum_to_one() {
        let mut s = BrStats::default();
        for (cat, n) in [
            (PredictionCategory::Correct, 6),
            (PredictionCategory::Late, 3),
            (PredictionCategory::Inactive, 1),
        ] {
            for _ in 0..n {
                s.count_category(cat);
            }
        }
        let total: f64 = PredictionCategory::ALL
            .iter()
            .map(|c| s.category_fraction(*c))
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((s.category_fraction(PredictionCategory::Correct) - 0.6).abs() < 1e-12);
    }
}
