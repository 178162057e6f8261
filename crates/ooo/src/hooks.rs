//! The observation/steering interface between the core and Branch Runahead.

use br_isa::{CpuState, ExecRecord, Pc, RegSet, Uop};

/// Who supplied the final direction used at fetch for a conditional branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PredictionProvenance {
    /// The baseline history predictor (TAGE-SC-L).
    BasePredictor,
    /// A Branch Runahead prediction queue.
    Dce,
}

/// A conditional branch as seen at fetch time.
#[derive(Clone, Copy, Debug)]
pub struct FetchedBranch {
    /// Dynamic sequence number (also its ROB identity).
    pub seq: u64,
    /// Branch PC.
    pub pc: Pc,
}

/// A retired (architecturally committed) micro-op.
#[derive(Clone, Copy, Debug)]
pub struct RetiredUop {
    /// Dynamic sequence number.
    pub seq: u64,
    /// The static uop.
    pub uop: Uop,
    /// Its resolved execution record (addresses, values, directions).
    pub rec: ExecRecord,
    /// Retirement cycle.
    pub cycle: u64,
}

/// Outcome information delivered when a conditional branch retires.
#[derive(Clone, Copy, Debug)]
pub struct BranchOutcome {
    /// Dynamic sequence number.
    pub seq: u64,
    /// Branch PC.
    pub pc: Pc,
    /// The resolved direction.
    pub taken: bool,
    /// Whether the fetch-time direction was wrong (a misprediction).
    pub mispredicted: bool,
    /// What the baseline predictor had said at fetch.
    pub base_prediction: bool,
    /// Retirement cycle.
    pub cycle: u64,
}

/// A summary of one wrong-path uop handed to the flush hook (the material
/// the Wrong Path Buffer ingests during its ROB walk, §4.4).
#[derive(Clone, Copy, Debug)]
pub struct WrongPathUop {
    /// The uop's PC.
    pub pc: Pc,
    /// Registers it wrote.
    pub dsts: RegSet,
    /// Memory address written, for stores.
    pub store_addr: Option<u64>,
    /// Whether it is a conditional branch, and its followed direction.
    pub branch: Option<bool>,
}

/// Details of a detected misprediction, delivered *after* the emulator has
/// been restored to the corrected point (so `CpuState` passed alongside is
/// the synchronized architectural register file the DCE copies live-ins
/// from, §4.1).
#[derive(Clone, Copy, Debug)]
pub struct MispredictInfo {
    /// Sequence number of the mispredicted branch.
    pub seq: u64,
    /// Branch PC.
    pub pc: Pc,
    /// The correct direction.
    pub actual_taken: bool,
    /// What the baseline predictor had said (for throttle maintenance:
    /// a DCE-caused misprediction where TAGE was right is the §4.2
    /// "DCE incorrect and TAGE correct" event).
    pub base_prediction: bool,
    /// Who provided the wrong direction.
    pub provenance: PredictionProvenance,
    /// Cycle of detection.
    pub cycle: u64,
}

/// Observation/steering callbacks invoked by [`crate::Core`].
///
/// The default implementations observe nothing and never override, so a
/// baseline (no Branch Runahead) simulation can pass [`NullHooks`].
pub trait CoreHooks {
    /// Asked once per fetched conditional branch, before the speculative
    /// history update: return `Some(direction)` to override the baseline
    /// prediction (the paper's prediction-queue MUX in front of TAGE).
    fn override_prediction(&mut self, _pc: Pc, _base: bool, _cycle: u64) -> Option<bool> {
        None
    }

    /// A conditional branch was fetched with the final direction decided.
    fn on_branch_fetch(&mut self, _b: &FetchedBranch) {}

    /// A misprediction was detected. `wrong_path` is the younger ROB
    /// content in fetch order (the ROB-walk source); `cpu` is the restored
    /// architectural register state (live-in source).
    fn on_mispredict(
        &mut self,
        _info: &MispredictInfo,
        _wrong_path: &[WrongPathUop],
        _cpu: &CpuState,
    ) {
    }

    /// A uop retired (called in program order for every retired uop).
    fn on_retire(&mut self, _u: &RetiredUop) {}

    /// A conditional branch retired (called after its `on_retire`).
    fn on_branch_retire(&mut self, _b: &BranchOutcome) {}
}

/// Hooks that do nothing: the baseline core.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullHooks;

impl CoreHooks for NullHooks {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_hooks_never_override() {
        let mut h = NullHooks;
        assert_eq!(h.override_prediction(0x40, true, 0), None);
    }
}
