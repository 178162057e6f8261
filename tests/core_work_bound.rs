//! Work bound of the out-of-order core's issue logic: the core counts
//! every ready-list entry its issue phase examines, every store its
//! forwarding search examines and every consumer its wakeups examine
//! (`CoreStats::issue_visits`). A return to per-cycle ROB walks, or a
//! wakeup that reaches far more consumers than it frees, multiplies that
//! count, which host timing on a shared machine would hide in its noise.
//!
//! Each count must stay within 1.5x (plus 64) of the count recorded when
//! issue was made event-driven. The per-cycle ROB walk it replaced
//! examined 4.4x (xz_17) to 52x (leela_17 under Mini) as many entries on
//! these jobs.

use branch_runahead::sim::experiments::ExperimentSetup;
use branch_runahead::sim::{SimConfig, SimJob};

/// Recorded issue visits per job at 60k retired uops: (workload,
/// baseline, Mini Branch Runahead).
const RECORDED: [(&str, u64, u64); 3] = [
    ("leela_17", 228_597, 176_283),
    ("mcf_06", 421_766, 183_646),
    ("xz_17", 217_502, 215_796),
];

#[test]
fn core_issue_visits_stay_within_recorded_bound() {
    let setup = ExperimentSetup::quick();
    let mut failures = Vec::new();
    for (workload, base, mini) in RECORDED {
        for (config, recorded) in [(SimConfig::baseline(), base), (SimConfig::mini_br(), mini)] {
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
            let visits = result.core.issue_visits;
            println!(
                "{label}: {visits} issue visits over {} cycles (recorded {recorded})",
                result.core.cycles
            );
            assert!(result.core.retired_uops >= 60_000, "{label} ran its budget");
            if visits * 2 > recorded * 3 + 128 {
                failures.push(format!(
                    "{label}: {visits} issue visits, over 1.5x the recorded {recorded}"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
