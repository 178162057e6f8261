//! TAGE-SC-L: the composed predictor used as the paper's baseline.
//!
//! Composition order follows Seznec's CBP-2016 design: TAGE produces a
//! direction; the statistical corrector may invert a statistically weak
//! one; a confident loop predictor overrides both.

use br_isa::Pc;

use crate::loop_pred::{LoopPredictor, LoopPredictorConfig};
use crate::sc::{StatisticalCorrector, StatisticalCorrectorConfig};
use crate::tage::{Tage, TageConfig};
use crate::traits::{ConditionalPredictor, PredMeta, Prediction, PredictorCheckpoint};

/// Configuration for [`TageScl`].
#[derive(Clone, Debug)]
pub struct TageSclConfig {
    /// TAGE component configuration.
    pub(crate) tage: TageConfig,
    /// Statistical-corrector configuration.
    pub(crate) sc: StatisticalCorrectorConfig,
    /// Loop-predictor configuration.
    pub(crate) loop_pred: LoopPredictorConfig,
    /// Display name (storage class).
    pub(crate) name: &'static str,
}

impl TageSclConfig {
    /// The paper's baseline: 64 KB-class TAGE-SC-L.
    #[must_use]
    pub fn kb64() -> Self {
        TageSclConfig {
            tage: TageConfig::kb64(),
            sc: StatisticalCorrectorConfig::default(),
            loop_pred: LoopPredictorConfig::default(),
            name: "tage-sc-l-64kb",
        }
    }

    /// The 80 KB-class variant used in Figure 10 (same storage as Mini
    /// Branch Runahead added to the 64 KB baseline).
    #[must_use]
    pub fn kb80() -> Self {
        TageSclConfig {
            tage: TageConfig::kb80(),
            sc: StatisticalCorrectorConfig::default(),
            loop_pred: LoopPredictorConfig::default(),
            name: "tage-sc-l-80kb",
        }
    }

    /// MTAGE-SC analogue: unlimited-storage history-based predictor
    /// (Figure 1 / Figure 11 comparison point).
    #[must_use]
    pub fn unlimited() -> Self {
        TageSclConfig {
            tage: TageConfig::unlimited(),
            sc: StatisticalCorrectorConfig {
                table_log2: 14,
                history_lengths: vec![4, 8, 13, 20, 32, 50],
                tage_weight: 6,
                threshold: 10,
            },
            loop_pred: LoopPredictorConfig {
                log2_entries: 9,
                ..LoopPredictorConfig::default()
            },
            name: "mtage-unlimited",
        }
    }
}

/// The TAGE-SC-L predictor.
pub struct TageScl {
    tage: Tage,
    sc: StatisticalCorrector,
    loop_pred: LoopPredictor,
    name: &'static str,
}

impl std::fmt::Debug for TageScl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TageScl").field("name", &self.name).finish()
    }
}

impl TageScl {
    /// Builds TAGE-SC-L from `cfg`.
    #[must_use]
    pub fn new(cfg: TageSclConfig) -> Self {
        TageScl {
            tage: Tage::new(cfg.tage),
            sc: StatisticalCorrector::new(cfg.sc),
            loop_pred: LoopPredictor::new(cfg.loop_pred),
            name: cfg.name,
        }
    }
}

impl ConditionalPredictor for TageScl {
    fn name(&self) -> &'static str {
        self.name
    }

    fn predict(&mut self, pc: Pc) -> Prediction {
        let (tage_taken, tage) = self.tage.lookup(pc);
        let sc = self.sc.lookup(pc, tage_taken);
        let (taken, loop_used) = match self.loop_pred.lookup(pc) {
            Some(l) if l.confident => (l.taken, true),
            _ => (sc.taken, false),
        };
        Prediction {
            taken,
            meta: PredMeta {
                tage,
                tage_taken,
                loop_used,
                sc_indices: sc.indices,
                sc_sum: sc.sum,
            },
        }
    }

    fn update_history(&mut self, pc: Pc, taken: bool) {
        self.tage.push_history(pc, taken);
        self.sc.push_history(pc, taken);
        self.loop_pred.spec_update(pc, taken);
    }

    fn checkpoint(&self) -> PredictorCheckpoint {
        let mut cp = PredictorCheckpoint::default();
        self.checkpoint_into(&mut cp);
        cp
    }

    fn checkpoint_into(&self, cp: &mut PredictorCheckpoint) {
        self.tage.history_checkpoint_into(&mut cp.tage);
        self.sc.checkpoint_into(&mut cp.sc);
        self.loop_pred.spec_checkpoint_into(&mut cp.loop_spec);
    }

    fn restore(&mut self, cp: &PredictorCheckpoint) {
        self.tage.restore_history(&cp.tage);
        self.sc.restore(&cp.sc);
        self.loop_pred.spec_restore(&cp.loop_spec);
    }

    fn train(&mut self, pc: Pc, taken: bool, pred: &Prediction) {
        let m = &pred.meta;
        self.tage.train(taken, m.tage_taken, &m.tage);
        self.sc.train(taken, pred.taken, &m.sc_indices, m.sc_sum);
        // The loop predictor allocates on branches the rest of the
        // predictor mispredicts and trains on everything it tracks.
        let mispredicted = pred.taken != taken;
        self.loop_pred
            .train(pc, taken, mispredicted && !m.loop_used);
    }

    fn storage_kib(&self) -> f64 {
        self.tage.config().storage_kib() + self.sc.storage_kib() + self.loop_pred.storage_kib()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(p: &mut TageScl, pc: Pc, taken: bool) -> bool {
        let pred = p.predict(pc);
        let hit = pred.taken == taken;
        p.update_history(pc, taken);
        p.train(pc, taken, &pred);
        hit
    }

    #[test]
    fn storage_classes_ordered() {
        let p64 = TageScl::new(TageSclConfig::kb64());
        let p80 = TageScl::new(TageSclConfig::kb80());
        let pu = TageScl::new(TageSclConfig::unlimited());
        assert!(p64.storage_kib() < p80.storage_kib());
        assert!(p80.storage_kib() < pu.storage_kib());
    }

    #[test]
    fn learns_long_fixed_loop_via_loop_predictor() {
        // Trip count 40 exceeds what the tagged tables track comfortably in
        // a small config; the loop predictor should nail the exit.
        let mut p = TageScl::new(TageSclConfig::kb64());
        let mut wrong_late = 0;
        for round in 0..60 {
            for i in 0..=40 {
                let taken = i < 40;
                let hit = step(&mut p, 0x1000, taken);
                if round >= 30 && !hit {
                    wrong_late += 1;
                }
            }
        }
        assert!(
            wrong_late <= 30,
            "loop exits still mispredicted {wrong_late} times after warmup"
        );
    }

    #[test]
    fn near_chance_on_data_dependent_branch() {
        let mut p = TageScl::new(TageSclConfig::kb64());
        let mut x: u64 = 0xdead;
        let mut correct = 0;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if step(&mut p, 0x2000, x & 4 == 4) {
                correct += 1;
            }
        }
        let rate = correct as f64 / 4000.0;
        assert!(
            (0.38..0.64).contains(&rate),
            "TAGE-SC-L should hover near chance on random outcomes: {rate}"
        );
    }

    #[test]
    fn checkpoint_restore_round_trip() {
        let mut p = TageScl::new(TageSclConfig::kb64());
        for i in 0..500 {
            step(&mut p, 0x30 + (i % 5), i % 3 != 0);
        }
        let cp = p.checkpoint();
        let before = p.predict(0x42).taken;
        for i in 0..30 {
            p.update_history(0x900 + i, i % 2 == 0);
        }
        p.restore(&cp);
        assert_eq!(p.predict(0x42).taken, before);
    }
}
