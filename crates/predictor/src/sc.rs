//! The statistical corrector ("SC" of TAGE-SC-L).
//!
//! A GEHL-style bank of signed counters indexed by PC and by PC hashed
//! with several short folded global histories. The weighted sum, combined
//! with the TAGE direction's own vote, can invert a statistically weak
//! TAGE prediction.

use br_isa::Pc;

use crate::history::{GlobalHistory, HistoryCheckpoint};
use crate::inline_vec::InlineVec;

/// Hard cap on corrector tables (bias table plus history-indexed tables),
/// sized for the unlimited configuration so lookups stay inline.
pub(crate) const MAX_SC_TABLES: usize = 8;

/// Weight given to the TAGE direction in the sum.
const TAGE_WEIGHT: i32 = 6;
/// Update threshold: counters train when `|sum| <= THRESHOLD` or the
/// final direction was wrong.
const THRESHOLD: i32 = 10;

/// Configuration for [`StatisticalCorrector`].
#[derive(Clone, Debug)]
pub(crate) struct StatisticalCorrectorConfig {
    /// log2 entries per table.
    pub(crate) table_log2: u32,
    /// History lengths of the history-indexed tables (the bias table is
    /// always present and uses length 0).
    pub(crate) history_lengths: Vec<u32>,
}

impl Default for StatisticalCorrectorConfig {
    fn default() -> Self {
        StatisticalCorrectorConfig {
            table_log2: 10,
            history_lengths: vec![4, 10, 20],
        }
    }
}

/// The SC verdict for one branch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ScLookup {
    /// Final direction after the corrector's vote.
    pub(crate) taken: bool,
    /// Table indices used (bias table first).
    pub(crate) indices: InlineVec<u32, MAX_SC_TABLES>,
    /// The weighted sum (sign = direction).
    pub(crate) sum: i32,
}

/// A statistical corrector over its own (speculative) short history.
#[derive(Clone, Debug)]
pub(crate) struct StatisticalCorrector {
    cfg: StatisticalCorrectorConfig,
    /// `tables[0]` is the bias (PC-only) table.
    tables: Vec<Vec<i8>>,
    hist: GlobalHistory,
    folds: Vec<usize>,
}

impl StatisticalCorrector {
    /// Builds a corrector from `cfg`.
    #[must_use]
    pub(crate) fn new(cfg: StatisticalCorrectorConfig) -> Self {
        assert!(
            cfg.history_lengths.len() < MAX_SC_TABLES,
            "at most {MAX_SC_TABLES} corrector tables supported (incl. bias)"
        );
        let mut hist = GlobalHistory::new(256);
        let folds = cfg
            .history_lengths
            .iter()
            .map(|&l| hist.add_folded(l, cfg.table_log2))
            .collect();
        StatisticalCorrector {
            tables: vec![vec![0i8; 1 << cfg.table_log2]; cfg.history_lengths.len() + 1],
            hist,
            folds,
            cfg,
        }
    }

    fn indices(&self, pc: Pc) -> InlineVec<u32, MAX_SC_TABLES> {
        let mask = (1usize << self.cfg.table_log2) - 1;
        let mut v = InlineVec::new();
        v.push((pc as usize & mask) as u32);
        for (t, &f) in self.folds.iter().enumerate() {
            let folded = u64::from(self.hist.folded(f));
            v.push((((pc.rotate_left(t as u32 + 1) ^ folded) as usize) & mask) as u32);
        }
        v
    }

    /// Computes the corrected direction for a TAGE prediction.
    #[must_use]
    pub(crate) fn lookup(&self, pc: Pc, tage_taken: bool) -> ScLookup {
        let indices = self.indices(pc);
        let mut sum: i32 = if tage_taken {
            TAGE_WEIGHT
        } else {
            -TAGE_WEIGHT
        };
        for (t, &idx) in indices.iter().enumerate() {
            sum += 2 * i32::from(self.tables[t][idx as usize]) + 1;
        }
        ScLookup {
            taken: sum >= 0,
            indices,
            sum,
        }
    }

    /// Trains the counters with a retired outcome. `indices`/`sum` come
    /// from prediction time; `final_taken` is the direction the whole
    /// predictor ultimately chose.
    pub(crate) fn train(&mut self, taken: bool, final_taken: bool, indices: &[u32], sum: i32) {
        if final_taken != taken || sum.abs() <= THRESHOLD {
            for (t, &idx) in indices.iter().enumerate() {
                let c = &mut self.tables[t][idx as usize];
                if taken {
                    *c = (*c + 1).min(31);
                } else {
                    *c = (*c - 1).max(-32);
                }
            }
        }
    }

    /// Pushes a speculative outcome into the corrector's history.
    pub(crate) fn push_history(&mut self, pc: Pc, taken: bool) {
        self.hist.push(pc, taken);
    }

    /// Checkpoints the speculative history into an existing buffer.
    pub(crate) fn checkpoint_into(&self, cp: &mut HistoryCheckpoint) {
        self.hist.checkpoint_into(cp);
    }

    /// Restores the speculative history.
    pub(crate) fn restore(&mut self, cp: &HistoryCheckpoint) {
        self.hist.restore(cp);
    }

    /// Storage estimate in KiB (6-bit counters).
    #[must_use]
    pub(crate) fn storage_kib(&self) -> f64 {
        self.tables.len() as f64 * (1 << self.cfg.table_log2) as f64 * 6.0 / 8.0 / 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrects_statically_biased_branch_tage_misses() {
        // Feed a branch that is 100% taken but where "TAGE" always says
        // not-taken; the bias table must learn to invert.
        let mut sc = StatisticalCorrector::new(StatisticalCorrectorConfig::default());
        let mut inverted_late = 0;
        for i in 0..500 {
            let l = sc.lookup(0x40, false);
            if i >= 100 && l.taken {
                inverted_late += 1;
            }
            sc.train(true, l.taken, &l.indices, l.sum);
            sc.push_history(0x40, true);
        }
        assert_eq!(inverted_late, 400, "SC should learn the inversion");
    }

    #[test]
    fn leaves_agreeing_predictions_alone() {
        let mut sc = StatisticalCorrector::new(StatisticalCorrectorConfig::default());
        for _ in 0..200 {
            let l = sc.lookup(0x80, true);
            sc.train(true, l.taken, &l.indices, l.sum);
            sc.push_history(0x80, true);
        }
        let l = sc.lookup(0x80, true);
        assert!(l.taken, "an agreeing TAGE direction stays uninverted");
    }

    #[test]
    fn checkpoint_restores_indices() {
        let mut sc = StatisticalCorrector::new(StatisticalCorrectorConfig::default());
        for i in 0..50 {
            sc.push_history(i, i % 2 == 0);
        }
        let mut cp = HistoryCheckpoint::default();
        sc.checkpoint_into(&mut cp);
        let before = sc.indices(0x99);
        sc.push_history(7, true);
        sc.push_history(8, false);
        sc.restore(&cp);
        assert_eq!(sc.indices(0x99), before);
    }
}
