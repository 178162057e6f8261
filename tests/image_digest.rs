//! Workload image identity: every kernel, at the quick parameters and in
//! regions 0 and 1, builds the same program and the same initial memory,
//! byte for byte. A change to how images are stored or written (page map,
//! slice writes, generator loops) must leave these digests unchanged; a
//! change that means to alter a kernel's data re-records them.

use branch_runahead::sim::experiments::ExperimentSetup;
use branch_runahead::sim::{SimConfig, SimJob};
use branch_runahead::workloads::all_workloads;

/// FNV-1a, folded over bytes.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Recorded digests: (workload, region 0, region 1).
const RECORDED: [(&str, u64, u64); 18] = [
    ("mcf_17", 0xc7f370365b1880c2, 0x102a506029211f7d),
    ("leela_17", 0xb0965d9c1fb598b8, 0x2326947a2088df06),
    ("xz_17", 0xa34087982828a44e, 0xc4ff4289c5bed071),
    ("deepsjeng_17", 0xbe5502588f845ccb, 0x044e090d0bc099ec),
    ("omnetpp_17", 0x26f4e27eefe47f83, 0x8be4f5d8c4755810),
    ("astar_06", 0x4a4bdd722e22fb96, 0x8a8554a5f1c7e583),
    ("mcf_06", 0xc9ecf618a4a38f79, 0x5c19d759dcdc8be0),
    ("gcc_06", 0xdfca56bd3564c429, 0x18b908f95d10ad4f),
    ("gobmk_06", 0x9095a3815fe8b9a5, 0x2e3b17f7af3288a7),
    ("bzip2_06", 0xd96ce0ae734c5926, 0xfe772711319c6c04),
    ("sjeng_06", 0x15a6235c3e8e50bb, 0xb6d732cb35243faa),
    ("omnetpp_06", 0x6207998852186d12, 0xa0fa41b651830b2a),
    ("cc", 0x7c7bee54a0ecd509, 0x565ee88851977e13),
    ("bfs", 0xf09e570862b9f5ee, 0xb75790846a4770e7),
    ("tc", 0xe7a4ae9ff37d710d, 0x5eb655bbc59ebcc7),
    ("bc", 0x7cf0a9390122af84, 0x8c23ab5050151a19),
    ("pr", 0xdc6a521f8860f9b8, 0xeada3b4908e3b84f),
    ("sssp", 0x17a9a2daedfc658d, 0x80e0aefa2a5f0003),
];

fn digest(workload: &str, region_seed: u64) -> u64 {
    let job = SimJob {
        config: SimConfig::baseline(),
        workload: workload.into(),
        params: ExperimentSetup::quick().params,
        region_seed,
        weight: 1.0,
        max_retired: 0,
    };
    let image = job.build_image().expect("known workload");
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (number, bytes) in image.memory.pages() {
        h = fnv(h, &number.to_le_bytes());
        h = fnv(h, bytes);
    }
    for uop in image.program.iter() {
        h = fnv(h, format!("{uop:?}").as_bytes());
    }
    h
}

#[test]
fn workload_images_match_recorded_digests() {
    let names: Vec<_> = all_workloads().iter().map(|w| w.name()).collect();
    let recorded: Vec<_> = RECORDED.iter().map(|&(name, ..)| name).collect();
    assert_eq!(names, recorded, "the kernel list changed");
    let mut failures = Vec::new();
    for (workload, r0, r1) in RECORDED {
        let got = (digest(workload, 0), digest(workload, 1));
        println!("(\"{workload}\", {:#018x}, {:#018x}),", got.0, got.1);
        if got != (r0, r1) {
            failures.push(format!(
                "{workload}: digests {:#018x}, {:#018x}, recorded {r0:#018x}, {r1:#018x}",
                got.0, got.1
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
