//! Work bound of the Dependence Chain Engine tick: the DCE counts every
//! instance its tick examines (`BrStats::dce_instance_visits`: list-walk
//! entries and dependents re-checked by events). A return to whole-window
//! scans, or an event that wakes far more instances than it reaches,
//! multiplies that count, which host timing on a shared machine would
//! hide in its noise.
//!
//! Each count must stay within 1.5x (plus 64) of the count recorded when
//! the deferred-spawn retries were gated (they walk only when a retry can
//! succeed or time out). A tick that walked every live instance five
//! times a cycle would examine several times more: about 5 x the average
//! live instances per cycle; one that walked its deferred spawns every
//! cycle would examine about 2-3 x more.

use branch_runahead::sim::experiments::ExperimentSetup;
use branch_runahead::sim::{SimConfig, SimJob};

/// Recorded instance visits per job at 60k retired uops: (workload,
/// Mini, Big).
const RECORDED: [(&str, u64, u64); 3] = [
    ("leela_17", 163_775, 120_867),
    ("mcf_06", 186_065, 155_153),
    ("xz_17", 325_990, 495_903),
];

#[test]
fn dce_instance_visits_stay_within_recorded_bound() {
    let setup = ExperimentSetup::quick();
    let mut failures = Vec::new();
    for (workload, mini, big) in RECORDED {
        for (config, recorded) in [(SimConfig::mini_br(), mini), (SimConfig::big_br(), big)] {
            let job = SimJob {
                config,
                workload: workload.into(),
                params: setup.params,
                region_seed: 0,
                weight: 1.0,
                max_retired: 60_000,
            };
            let image = job.build_image().expect("known workload");
            let result = job.try_execute(&image).expect("job runs");
            let label = job.label();
            let br = result.br.expect("Branch Runahead enabled");
            let visits = br.dce_instance_visits;
            println!(
                "{label}: {visits} instance visits over {} cycles (recorded {recorded})",
                result.core.cycles
            );
            assert!(result.core.retired_uops >= 60_000, "{label} ran its budget");
            if visits * 2 > recorded * 3 + 128 {
                failures.push(format!(
                    "{label}: {visits} instance visits, over 1.5x the recorded {recorded}"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
