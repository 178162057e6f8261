//! Pins the exact out-of-order core schedule without Branch Runahead:
//! for six kernels under the baseline configuration, the cycle count,
//! mispredictions, retire fingerprint and the core's issue and squash
//! counts must equal the values recorded here.
//!
//! Any change to when the core issues, forwards, completes or squashes a
//! uop moves at least one of these numbers. A change meant to leave the
//! schedule alone (a faster issue phase, a new data structure) must pass
//! this test unedited; a change that means to move the schedule updates
//! the table and says why.

use branch_runahead::sim::experiments::ExperimentSetup;
use branch_runahead::sim::{SimConfig, SimJob};

/// Retired uops per job.
const RETIRED: u64 = 20_000;

/// One job's pinned values: `(workload, cycles, mispredicts, retire
/// fingerprint, issued_uops, issued_loads, squashed_uops)`.
type Row = (&'static str, u64, u64, u64, u64, u64, u64);

#[rustfmt::skip]
const RECORDED: [Row; 6] = [
    ("mcf_06", 33501, 355, 11436921492616302529, 60426, 3159, 56574),
    ("sssp", 29658, 428, 480561086669249448, 47771, 7962, 50491),
    ("omnetpp_06", 15906, 340, 10303147104693864337, 35415, 1072, 30547),
    ("gobmk_06", 12703, 185, 16370104931216368540, 27891, 902, 14832),
    ("leela_17", 23135, 367, 1096326587984920819, 38748, 1498, 34027),
    ("xz_17", 16377, 540, 546028411559026996, 31282, 2892, 27320),
];

#[test]
fn core_schedule_matches_recorded() {
    let setup = ExperimentSetup::quick();
    let mut failures = Vec::new();
    for want in &RECORDED {
        let job = SimJob {
            config: SimConfig::baseline(),
            workload: want.0.into(),
            params: setup.params,
            region_seed: 0,
            weight: 1.0,
            max_retired: RETIRED,
        };
        let image = job.build_image().expect("known workload");
        let r = job.try_execute(&image).expect("job runs");
        let c = &r.core;
        let got = (
            want.0,
            c.cycles,
            c.mispredicts,
            c.retire_fingerprint,
            c.issued_uops,
            c.issued_loads,
            c.squashed_uops,
        );
        if got != *want {
            failures.push(format!("{}: got {got:?}, recorded {want:?}", want.0));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
