//! Bimodal (per-PC 2-bit counter) predictor — the simplest baseline.

use br_isa::Pc;

use crate::traits::{ConditionalPredictor, PredMeta, Prediction, PredictorCheckpoint};

/// A table of 2-bit saturating counters indexed by PC.
#[derive(Clone, Debug)]
pub struct Bimodal {
    counters: Vec<u8>,
    mask: usize,
}

impl Bimodal {
    /// Creates a bimodal predictor with `2^log2_entries` counters.
    ///
    /// # Panics
    ///
    /// Panics if `log2_entries` is 0 or greater than 28.
    #[must_use]
    pub fn new(log2_entries: u32) -> Self {
        assert!((1..=28).contains(&log2_entries));
        Bimodal {
            counters: vec![2; 1 << log2_entries],
            mask: (1 << log2_entries) - 1,
        }
    }
}

impl ConditionalPredictor for Bimodal {
    fn name(&self) -> &'static str {
        "bimodal"
    }

    fn predict(&mut self, pc: Pc) -> Prediction {
        Prediction {
            taken: self.counters[pc as usize & self.mask] >= 2,
            meta: PredMeta::default(),
        }
    }

    fn update_history(&mut self, _pc: Pc, _taken: bool) {}

    fn checkpoint(&self) -> PredictorCheckpoint {
        PredictorCheckpoint::default()
    }

    fn restore(&mut self, _cp: &PredictorCheckpoint) {}

    fn train(&mut self, pc: Pc, taken: bool, _pred: &Prediction) {
        let c = &mut self.counters[pc as usize & self.mask];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    fn storage_kib(&self) -> f64 {
        self.counters.len() as f64 * 2.0 / 8.0 / 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_bias_quickly() {
        let mut p = Bimodal::new(10);
        for _ in 0..4 {
            let pred = p.predict(0x10);
            p.train(0x10, false, &pred);
        }
        assert!(!p.predict(0x10).taken);
    }

    #[test]
    fn cannot_learn_alternation() {
        let mut p = Bimodal::new(10);
        let mut correct = 0;
        for i in 0..1000 {
            let taken = i % 2 == 0;
            let pred = p.predict(0x10);
            if pred.taken == taken {
                correct += 1;
            }
            p.train(0x10, taken, &pred);
        }
        assert!(correct <= 600, "bimodal should fail on alternation");
    }

    #[test]
    fn storage_is_quarter_byte_per_entry() {
        let p = Bimodal::new(12);
        assert!((p.storage_kib() - 1.0).abs() < 1e-9);
    }
}
