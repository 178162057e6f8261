//! # br-predictor — history-based conditional branch predictors
//!
//! The Branch Runahead paper's baseline is a 64 KB TAGE-SC-L (winner of the
//! CBP-2016 limited-storage track) and its unlimited-storage comparison
//! point is MTAGE-SC. This crate implements that predictor family from
//! scratch:
//!
//! * [`Tage`] — tagged geometric-history-length predictor with useful-bit
//!   management, allocation, and alternate-prediction policy,
//! * [`LoopPredictor`] — the "L" component: confident loop-exit prediction,
//! * [`StatisticalCorrector`] — the "SC" component: GEHL-style signed
//!   per-history bias tables that can veto a low-confidence TAGE output,
//! * [`TageScl`] — the composition, with 64 KB / 80 KB presets and an
//!   MTAGE-like unlimited preset ([`TageSclConfig`]),
//! * [`Bimodal`] — a per-PC 2-bit counter baseline used by tests.
//!
//! All predictors implement [`ConditionalPredictor`], which models the
//! fetch-time protocol of a real front end: predict, *speculatively* update
//! history with the followed direction, checkpoint at each branch, restore
//! the checkpoint on a misprediction, and train at retirement using the
//! metadata captured at prediction time.
//!
//! ```
//! use br_predictor::{ConditionalPredictor, TageScl, TageSclConfig};
//!
//! let mut p = TageScl::new(TageSclConfig::kb64());
//! // A strongly biased branch becomes predictable after a few outcomes.
//! for _ in 0..64 {
//!     let pred = p.predict(0x400);
//!     p.update_history(0x400, true);
//!     p.train(0x400, true, &pred);
//! }
//! let pred = p.predict(0x400);
//! assert!(pred.taken);
//! ```

#![warn(missing_docs)]

mod bimodal;
mod history;
mod inline_vec;
mod loop_pred;
mod sc;
mod tage;
mod tagescl;
mod traits;

pub use bimodal::Bimodal;
pub use history::{FoldedHistory, GlobalHistory, HistoryCheckpoint};
pub use inline_vec::InlineVec;
pub use loop_pred::{LoopPredictor, LoopPredictorConfig};
pub use sc::{StatisticalCorrector, StatisticalCorrectorConfig, MAX_SC_TABLES};
pub use tage::{Tage, TageConfig, TageMeta, MAX_TAGE_TABLES};
pub use tagescl::{TageScl, TageSclConfig};
pub use traits::{ConditionalPredictor, PredMeta, Prediction, PredictorCheckpoint};
