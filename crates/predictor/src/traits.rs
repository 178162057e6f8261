//! The fetch-time predictor protocol.

use br_isa::Pc;

use crate::history::HistoryCheckpoint;
use crate::inline_vec::InlineVec;
use crate::sc::MAX_SC_TABLES;
use crate::tage::TageMeta;

/// Opaque per-prediction metadata, captured at predict time and handed back
/// at train time. Real hardware latches the same information (provider
/// table, indices, tags) in the branch's ROB/BIQ entry.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PredMeta {
    /// No metadata (static or table-free predictors).
    None,
    /// Bimodal index.
    Bimodal {
        /// Table index used.
        index: usize,
    },
    /// TAGE metadata (see [`TageMeta`]).
    Tage(TageMeta),
    /// TAGE-SC-L: TAGE metadata plus SC/loop decisions.
    TageScl {
        /// Inner TAGE metadata.
        tage: TageMeta,
        /// The raw TAGE direction before SC/loop overrides.
        tage_taken: bool,
        /// Whether the loop predictor supplied the final direction.
        loop_used: bool,
        /// Loop-predictor direction (valid when `loop_used`).
        loop_taken: bool,
        /// Whether the statistical corrector inverted the TAGE direction.
        sc_inverted: bool,
        /// SC per-table indices at prediction time.
        sc_indices: InlineVec<u32, MAX_SC_TABLES>,
        /// SC weighted sum at prediction time.
        sc_sum: i32,
    },
}

/// A prediction: the direction plus trainer metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Low confidence hint (provider counter weak). Used by diagnostics.
    pub low_confidence: bool,
    /// Metadata to pass back to [`ConditionalPredictor::train`].
    pub meta: PredMeta,
}

impl Prediction {
    /// A static prediction with no metadata.
    #[must_use]
    pub fn fixed(taken: bool) -> Self {
        Prediction {
            taken,
            low_confidence: false,
            meta: PredMeta::None,
        }
    }
}

/// Checkpoint of a predictor's speculative state (global history, folded
/// histories, loop-predictor speculative iteration counts).
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum PredictorCheckpoint {
    /// No speculative state.
    None,
    /// Global-history checkpoint only.
    History(HistoryCheckpoint),
    /// TAGE-SC-L composite: TAGE history, SC history, and the loop
    /// predictor's speculative iteration counters.
    Composite {
        /// TAGE global-history checkpoint.
        tage: HistoryCheckpoint,
        /// Statistical-corrector history checkpoint.
        sc: HistoryCheckpoint,
        /// Loop-predictor speculative counters snapshot.
        loop_spec: Vec<(usize, u16)>,
    },
}

/// A conditional branch direction predictor with speculative history.
///
/// Predictors are required to be [`Send`] so a whole simulation (core +
/// predictor + memory) is a self-contained unit of work that can move to
/// a worker thread; all implementations here are plain owned data.
///
/// Call sequence per fetched branch: [`predict`](Self::predict) →
/// [`checkpoint`](Self::checkpoint) (attach to the branch) →
/// [`update_history`](Self::update_history) with the *followed* direction.
/// On a misprediction, [`restore`](Self::restore) the mispredicted branch's
/// checkpoint and re-apply `update_history` with the corrected direction.
/// At retirement, [`train`](Self::train) with the actual direction and the
/// prediction's metadata.
pub trait ConditionalPredictor: Send {
    /// Short human-readable name (e.g. `"tage-sc-l-64kb"`).
    fn name(&self) -> &'static str;

    /// Predicts the direction of the conditional branch at `pc` using the
    /// current speculative history.
    fn predict(&mut self, pc: Pc) -> Prediction;

    /// Speculatively pushes the followed direction of the branch at `pc`
    /// into the global history.
    fn update_history(&mut self, pc: Pc, taken: bool);

    /// Captures the speculative state to restore on a misprediction.
    fn checkpoint(&self) -> PredictorCheckpoint;

    /// Captures the speculative state into an existing checkpoint buffer,
    /// reusing its allocations when the buffer's variant matches. The
    /// default falls back to a fresh [`Self::checkpoint`].
    fn checkpoint_into(&self, cp: &mut PredictorCheckpoint) {
        *cp = self.checkpoint();
    }

    /// Restores state captured by [`Self::checkpoint`].
    fn restore(&mut self, cp: &PredictorCheckpoint);

    /// Trains tables with the resolved direction. `pred` must be the value
    /// returned by [`Self::predict`] for this dynamic branch.
    fn train(&mut self, pc: Pc, taken: bool, pred: &Prediction);

    /// Approximate storage budget in KiB (for Table/figure labelling).
    fn storage_kib(&self) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_prediction_has_no_meta() {
        let p = Prediction::fixed(true);
        assert!(p.taken);
        assert_eq!(p.meta, PredMeta::None);
    }
}
