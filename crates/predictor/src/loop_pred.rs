//! The loop predictor ("L" of TAGE-SC-L).
//!
//! Detects branches with a constant trip count and predicts the loop exit
//! with high confidence — something counter- and history-based tables do
//! poorly for long loops. Iteration counts are tracked both speculatively
//! (advanced at fetch, checkpointed/restored across mispredictions) and
//! architecturally (advanced at retire, used for training).

use br_isa::Pc;

/// Confidence at which predictions are used.
const CONFIDENCE_MAX: u8 = 3;
/// Maximum trackable trip count.
const MAX_ITER: u16 = 1023;

/// Configuration for [`LoopPredictor`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct LoopPredictorConfig {
    /// log2 number of entries.
    pub(crate) log2_entries: u32,
}

impl Default for LoopPredictorConfig {
    fn default() -> Self {
        LoopPredictorConfig { log2_entries: 6 }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct LoopEntry {
    valid: bool,
    tag: u16,
    /// Learned trip count (number of `dir` outcomes before the exit).
    trip: u16,
    /// Architectural iteration counter (retire order).
    iter_retire: u16,
    /// Speculative iteration counter (fetch order).
    iter_spec: u16,
    /// The repeated (in-loop) direction.
    dir: bool,
    confidence: u8,
    age: u8,
}

/// A direct-mapped loop-exit predictor.
#[derive(Clone, Debug)]
pub(crate) struct LoopPredictor {
    cfg: LoopPredictorConfig,
    entries: Vec<LoopEntry>,
}

/// The loop predictor's verdict for a branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LoopLookup {
    /// Predicted direction.
    pub(crate) taken: bool,
    /// Whether confidence is high enough to override TAGE.
    pub(crate) confident: bool,
}

impl LoopPredictor {
    /// Creates a loop predictor.
    #[must_use]
    pub(crate) fn new(cfg: LoopPredictorConfig) -> Self {
        LoopPredictor {
            entries: vec![LoopEntry::default(); 1 << cfg.log2_entries],
            cfg,
        }
    }

    fn index(&self, pc: Pc) -> usize {
        (pc as usize) & ((1 << self.cfg.log2_entries) - 1)
    }

    fn tag(&self, pc: Pc) -> u16 {
        ((pc >> self.cfg.log2_entries) & 0x3fff) as u16
    }

    /// Looks up a prediction using the *speculative* iteration count.
    #[must_use]
    pub(crate) fn lookup(&self, pc: Pc) -> Option<LoopLookup> {
        let e = &self.entries[self.index(pc)];
        if !e.valid || e.tag != self.tag(pc) || e.trip == 0 {
            return None;
        }
        let exit = e.iter_spec + 1 > e.trip;
        Some(LoopLookup {
            taken: if exit { !e.dir } else { e.dir },
            confident: e.confidence >= CONFIDENCE_MAX,
        })
    }

    /// Advances the speculative iteration counter for a fetched branch.
    pub(crate) fn spec_update(&mut self, pc: Pc, taken: bool) {
        let idx = self.index(pc);
        let tag = self.tag(pc);
        let e = &mut self.entries[idx];
        if e.valid && e.tag == tag {
            if taken == e.dir {
                e.iter_spec = e.iter_spec.saturating_add(1).min(MAX_ITER);
            } else {
                e.iter_spec = 0;
            }
        }
    }

    /// Snapshots all speculative iteration counters (entry index, value)
    /// into `out`, reusing its allocation.
    pub(crate) fn spec_checkpoint_into(&self, out: &mut Vec<(usize, u16)>) {
        out.clear();
        out.extend(
            self.entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.valid)
                .map(|(i, e)| (i, e.iter_spec)),
        );
    }

    /// Restores a snapshot from [`Self::spec_checkpoint_into`]. Entries
    /// allocated since the snapshot keep their architectural count.
    pub(crate) fn spec_restore(&mut self, snap: &[(usize, u16)]) {
        // First, re-sync everything to the architectural count (covers
        // entries allocated after the checkpoint was taken)...
        for e in &mut self.entries {
            e.iter_spec = e.iter_retire;
        }
        // ...then overlay the checkpointed speculative counts.
        for &(i, v) in snap {
            if self.entries[i].valid {
                self.entries[i].iter_spec = v;
            }
        }
    }

    /// Trains with a retired outcome. `mispredicted` is whether the outer
    /// predictor got this branch wrong (allocation trigger).
    pub(crate) fn train(&mut self, pc: Pc, taken: bool, mispredicted: bool) {
        let idx = self.index(pc);
        let tag = self.tag(pc);
        let e = &mut self.entries[idx];
        if e.valid && e.tag == tag {
            if taken == e.dir {
                e.iter_retire = e.iter_retire.saturating_add(1).min(MAX_ITER);
                if e.iter_retire > e.trip && e.confidence > 0 {
                    // Ran past the learned trip count: trip was wrong.
                    e.confidence = 0;
                    e.trip = 0;
                }
            } else {
                // Exit observed: check the trip count.
                if e.trip == e.iter_retire && e.trip != 0 {
                    e.confidence = (e.confidence + 1).min(CONFIDENCE_MAX);
                } else {
                    if e.confidence == 0 {
                        e.trip = e.iter_retire;
                    } else {
                        e.confidence = 0;
                        e.trip = e.iter_retire;
                    }
                }
                e.iter_retire = 0;
                e.iter_spec = 0;
                e.age = e.age.saturating_add(1).min(7);
            }
        } else if mispredicted {
            // Allocate, evicting only aged-out entries.
            let evict = !e.valid || e.age == 0;
            if evict {
                // The mispredicted outcome is typically the loop *exit*,
                // so the repeated in-loop direction is its opposite.
                *e = LoopEntry {
                    valid: true,
                    tag,
                    trip: 0,
                    iter_retire: 0,
                    iter_spec: 0,
                    dir: !taken,
                    confidence: 0,
                    age: 7,
                };
            } else {
                e.age -= 1;
            }
        }
    }

    /// Storage estimate in KiB.
    #[must_use]
    pub(crate) fn storage_kib(&self) -> f64 {
        // tag(14) + trip(10) + 2x iter(10) + dir(1) + conf(2) + age(3) + v(1)
        self.entries.len() as f64 * 51.0 / 8.0 / 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a loop branch with a fixed trip count: `trip` taken outcomes
    /// then one not-taken (classic backward loop branch).
    fn run_loop(p: &mut LoopPredictor, pc: Pc, trip: u16, rounds: usize) -> (u32, u32) {
        let mut used = 0;
        let mut correct = 0;
        for _ in 0..rounds {
            for i in 0..=trip {
                let taken = i < trip;
                if let Some(l) = p.lookup(pc) {
                    if l.confident {
                        used += 1;
                        if l.taken == taken {
                            correct += 1;
                        }
                    }
                }
                p.spec_update(pc, taken);
                p.train(pc, taken, i == trip); // exit mispredicted by TAGE
            }
        }
        (used, correct)
    }

    #[test]
    fn learns_fixed_trip_count() {
        let mut p = LoopPredictor::new(LoopPredictorConfig::default());
        let (used, correct) = run_loop(&mut p, 0x40, 8, 50);
        assert!(used > 100, "loop predictor never became confident");
        assert_eq!(used, correct, "confident loop predictions must be right");
    }

    #[test]
    fn changing_trip_count_drops_confidence() {
        let mut p = LoopPredictor::new(LoopPredictorConfig::default());
        let _ = run_loop(&mut p, 0x40, 8, 20);
        // Switch to trip 5; the first confident exit prediction will be
        // wrong, after which confidence must reset (no more confident use
        // until re-learned).
        let (_, _) = run_loop(&mut p, 0x40, 5, 1);
        let (used2, correct2) = run_loop(&mut p, 0x40, 5, 20);
        assert!(correct2 + 2 >= used2, "at most the relearn transient wrong");
    }

    #[test]
    fn spec_checkpoint_restore() {
        let mut p = LoopPredictor::new(LoopPredictorConfig::default());
        let _ = run_loop(&mut p, 0x40, 8, 10);
        let mut snap = Vec::new();
        p.spec_checkpoint_into(&mut snap);
        p.spec_update(0x40, true);
        p.spec_update(0x40, true);
        p.spec_restore(&snap);
        let mut after = Vec::new();
        p.spec_checkpoint_into(&mut after);
        assert_eq!(after, snap);
    }

    #[test]
    fn no_prediction_for_unknown_pc() {
        let p = LoopPredictor::new(LoopPredictorConfig::default());
        assert!(p.lookup(0x1234).is_none());
    }
}
