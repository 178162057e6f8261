//! Pins the exact Dependence Chain Engine schedule: for four kernels
//! under every DCE configuration the experiments run (Core-Only, Mini,
//! Big, and Mini with non-speculative initiation, independent early
//! initiation and in-order intra-chain scheduling), plus Mini with two
//! 8-slot prediction queues (queue pressure: full queues refuse spawns
//! and the least recently used queue is evicted), the cycle count,
//! mispredictions, retire fingerprint and the DCE's own counts must equal
//! the values recorded here.
//!
//! Any change to when the engine issues, completes, spawns or frees an
//! instance moves at least one of these numbers. A change meant to leave
//! the schedule alone (a faster tick, a new data structure) must pass
//! this test unedited; a change that means to move the schedule updates
//! the table and says why.

use branch_runahead::runahead::{BranchRunaheadConfig, InitiationMode};
use branch_runahead::sim::experiments::ExperimentSetup;
use branch_runahead::sim::{SimConfig, SimJob};

/// Retired uops per job.
const RETIRED: u64 = 20_000;

/// The configurations pinned, by label.
fn configs() -> Vec<(&'static str, SimConfig)> {
    let mini_with = |change: fn(&mut BranchRunaheadConfig)| {
        let mut cfg = SimConfig::mini_br();
        change(cfg.runahead.as_mut().expect("Mini runs Branch Runahead"));
        cfg
    };
    vec![
        ("core-only", SimConfig::core_only_br()),
        ("mini", SimConfig::mini_br()),
        ("big", SimConfig::big_br()),
        (
            "mini-nonspec",
            mini_with(|rc| rc.initiation = InitiationMode::NonSpeculative),
        ),
        (
            "mini-indep",
            mini_with(|rc| rc.initiation = InitiationMode::IndependentEarly),
        ),
        ("mini-inorder", mini_with(|rc| rc.dce_in_order = true)),
        (
            "mini-q2x8",
            mini_with(|rc| {
                rc.num_queues = 2;
                rc.queue_entries = 8;
            }),
        ),
    ]
}

/// One job's pinned values: `(workload, config label, cycles,
/// mispredicts, retire fingerprint, dce_uops, dce_loads,
/// instances_initiated, instances_completed, instances_flushed, syncs)`.
#[rustfmt::skip]
type Row = (&'static str, &'static str, u64, u64, u64, u64, u64, u64, u64, u64, u64);

#[rustfmt::skip]
const RECORDED: [Row; 28] = [
    ("leela_17", "core-only", 21951, 305, 1096326587984920819, 6444, 803, 889, 742, 398, 53),
    ("leela_17", "mini", 19340, 118, 1096326587984920819, 14656, 1779, 2136, 1757, 526, 12),
    ("leela_17", "big", 19670, 97, 1096326587984920819, 8721, 1090, 1595, 1088, 289, 4),
    ("leela_17", "mini-nonspec", 22127, 307, 1096326587984920819, 5436, 690, 726, 658, 127, 50),
    ("leela_17", "mini-indep", 19340, 118, 1096326587984920819, 14656, 1779, 2136, 1757, 526, 12),
    ("leela_17", "mini-inorder", 19340, 118, 1096326587984920819, 14656, 1779, 2136, 1757, 526, 12),
    ("leela_17", "mini-q2x8", 20692, 237, 1096326587984920819, 7261, 869, 956, 839, 374, 54),
    ("mcf_06", "core-only", 31049, 286, 11436921492616302529, 8940, 1756, 974, 842, 392, 57),
    ("mcf_06", "mini", 17171, 99, 11436921492616302529, 18603, 3689, 1998, 1816, 510, 10),
    ("mcf_06", "big", 14073, 54, 11436921492616302529, 11854, 2364, 1374, 1164, 39, 3),
    ("mcf_06", "mini-nonspec", 33163, 343, 11436921492616302529, 5954, 1170, 630, 571, 124, 59),
    ("mcf_06", "mini-indep", 17171, 99, 11436921492616302529, 18603, 3689, 1998, 1816, 510, 10),
    ("mcf_06", "mini-inorder", 17171, 99, 11436921492616302529, 18603, 3689, 1998, 1816, 510, 10),
    ("mcf_06", "mini-q2x8", 29261, 251, 11436921492616302529, 10008, 1955, 1088, 889, 524, 73),
    ("xz_17", "core-only", 16313, 535, 546028411559026996, 5864, 1214, 651, 604, 306, 45),
    ("xz_17", "mini", 16354, 542, 546028411559026996, 20771, 4038, 5600, 1904, 5013, 89),
    ("xz_17", "big", 16015, 521, 546028411559026996, 27926, 5583, 28754, 2610, 27477, 109),
    ("xz_17", "mini-nonspec", 16008, 516, 546028411559026996, 8806, 1931, 1012, 918, 188, 94),
    ("xz_17", "mini-indep", 16354, 542, 546028411559026996, 20771, 4038, 5600, 1904, 5013, 89),
    ("xz_17", "mini-inorder", 16354, 542, 546028411559026996, 21114, 4172, 5601, 1935, 5014, 89),
    ("xz_17", "mini-q2x8", 15840, 506, 546028411559026996, 18784, 3634, 1951, 1722, 1358, 143),
    ("gcc_06", "core-only", 16606, 416, 9677935302268625591, 4693, 433, 1217, 949, 413, 60),
    ("gcc_06", "mini", 13724, 274, 9677935302268625591, 7995, 750, 2547, 1704, 1079, 22),
    ("gcc_06", "big", 12445, 208, 9677935302268625591, 9241, 839, 4529, 2174, 1790, 6),
    ("gcc_06", "mini-nonspec", 17352, 453, 9677935302268625591, 3249, 299, 797, 742, 118, 73),
    ("gcc_06", "mini-indep", 15031, 344, 9677935302268625591, 4806, 450, 2555, 1040, 1713, 38),
    ("gcc_06", "mini-inorder", 13724, 274, 9677935302268625591, 7995, 750, 2547, 1704, 1079, 22),
    ("gcc_06", "mini-q2x8", 17413, 481, 9677935302268625591, 14211, 1319, 4620, 3128, 1957, 42),
];

#[test]
fn dce_schedule_matches_recorded() {
    let setup = ExperimentSetup::quick();
    let mut rows = Vec::new();
    for workload in ["leela_17", "mcf_06", "xz_17", "gcc_06"] {
        for (label, config) in configs() {
            let job = SimJob {
                config,
                workload: workload.into(),
                params: setup.params,
                region_seed: 0,
                weight: 1.0,
                max_retired: RETIRED,
            };
            let image = job.build_image().expect("known workload");
            let r = job.try_execute(&image).expect("job runs");
            let br = r.br.expect("Branch Runahead enabled");
            rows.push((
                workload,
                label,
                r.core.cycles,
                r.core.mispredicts,
                r.core.retire_fingerprint,
                br.dce_uops,
                br.dce_loads,
                br.instances_initiated,
                br.instances_completed,
                br.instances_flushed,
                br.syncs,
            ));
        }
    }
    let mut failures = Vec::new();
    for row in &rows {
        match RECORDED.iter().find(|r| (r.0, r.1) == (row.0, row.1)) {
            Some(want) if want == row => {}
            Some(want) => failures.push(format!(
                "{}/{}: got {row:?}, recorded {want:?}",
                row.0, row.1
            )),
            None => failures.push(format!("{}/{}: no recorded row", row.0, row.1)),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
