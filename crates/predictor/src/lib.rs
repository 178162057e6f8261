//! # br-predictor — history-based conditional branch predictors
//!
//! The Branch Runahead paper's baseline is a 64 KB TAGE-SC-L (winner of the
//! CBP-2016 limited-storage track) and its unlimited-storage comparison
//! point is MTAGE-SC. This crate implements that predictor family from
//! scratch:
//!
//! * `Tage` — tagged geometric-history-length predictor with useful-bit
//!   management, allocation, and alternate-prediction policy,
//! * `LoopPredictor` — the "L" component: confident loop-exit prediction,
//! * `StatisticalCorrector` — the "SC" component: GEHL-style signed
//!   per-history bias tables that can veto a low-confidence TAGE output,
//! * [`TageScl`] — the composition, with 64 KB / 80 KB presets and an
//!   MTAGE-like unlimited preset ([`TageSclConfig`]),
//! * [`Bimodal`] — a per-PC 2-bit counter baseline used by tests.
//!
//! [`TageScl`] and [`Bimodal`] implement [`ConditionalPredictor`], which
//! models the fetch-time protocol of a real front end: predict,
//! *speculatively* update history with the followed direction, checkpoint
//! at each branch, restore the checkpoint on a misprediction, and train at
//! retirement using the metadata captured at prediction time. The
//! protocol's metadata and checkpoint are TAGE-SC-L's; the components are
//! driven through their own methods.
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
pub use tagescl::TageScl;
pub use tagescl::TageSclConfig;
pub use traits::ConditionalPredictor;
pub use traits::Prediction;
pub use traits::PredictorCheckpoint;

#[cfg(test)]
mod history_props;
