//! # br-workloads — synthetic benchmark kernels
//!
//! The paper evaluates on branch-misprediction-intensive members of SPEC
//! CPU2017 Integer Speed, SPEC CPU2006 Integer, and the GAP benchmark
//! suite, run as SimPoint regions under a PIN-based frontend. Neither the
//! proprietary SPEC sources/inputs nor the x86 PIN toolchain is available
//! here, so this crate substitutes a *synthetic kernel per benchmark*,
//! written directly in the `br-isa` micro-op ISA.
//!
//! Each kernel reproduces its benchmark's dominant *branch character* —
//! the property Branch Runahead targets:
//!
//! * hard-to-predict branches whose outcome is a pure function of data
//!   loaded from memory (pseudo-random tables, graph adjacency, hash
//!   buckets), carrying no global-history correlation for TAGE,
//! * short backward dataflow slices reaching those branches (so chains
//!   are extractable under the 16-uop cap),
//! * natural guard/affector structure (nested data-dependent branches,
//!   store→load communication), and
//! * realistic per-iteration "work" so the DCE has slack to run ahead.
//!
//! The substitution preserves the behaviour the evaluation depends on:
//! TAGE-SC-L fails on these branches for the same reason it fails on the
//! originals (no history correlation), and dependence chains succeed for
//! the same reason (the slice recomputes the value).
//!
//! ```
//! use br_workloads::{all_workloads, WorkloadParams};
//!
//! let params = WorkloadParams::default();
//! for w in all_workloads() {
//!     let image = w.build(&params);
//!     assert!(image.program.fetch(0).is_some());
//! }
//! ```

#![warn(missing_docs)]

mod gap;
mod spec06;
mod spec17;
mod util;
mod workload;

pub use workload::Suite;
pub use workload::Workload;
pub use workload::WorkloadImage;
pub use workload::WorkloadParams;

/// Every workload in the paper's evaluation order (Figure 1's x-axis):
/// SPEC2017, then SPEC2006, then GAP.
#[must_use]
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        // SPEC CPU2017 Integer Speed (branch-intensive subset).
        Box::new(spec17::Mcf17),
        Box::new(spec17::Leela17),
        Box::new(spec17::Xz17),
        Box::new(spec17::Deepsjeng17),
        Box::new(spec17::Omnetpp17),
        // SPEC CPU2006 Integer (branch-intensive subset).
        Box::new(spec06::Astar06),
        Box::new(spec06::Mcf06),
        Box::new(spec06::Gcc06),
        Box::new(spec06::Gobmk06),
        Box::new(spec06::Bzip206),
        Box::new(spec06::Sjeng06),
        Box::new(spec06::Omnetpp06),
        // GAP benchmark suite.
        Box::new(gap::Cc),
        Box::new(gap::Bfs),
        Box::new(gap::Tc),
        Box::new(gap::Bc),
        Box::new(gap::Pr),
        Box::new(gap::Sssp),
    ]
}

/// Looks up a workload by name (e.g. `"leela_17"`, `"bfs"`).
#[must_use]
pub fn workload_by_name(name: &str) -> Option<Box<dyn Workload>> {
    all_workloads().into_iter().find(|w| w.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_isa::Machine;

    #[test]
    fn registry_complete_and_unique() {
        let ws = all_workloads();
        assert_eq!(ws.len(), 18);
        let mut names: Vec<_> = ws.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18, "duplicate workload names");
        assert!(workload_by_name("leela_17").is_some());
        assert!(workload_by_name("nope").is_none());
    }

    #[test]
    fn suites_partition_correctly() {
        let count = |s| all_workloads().iter().filter(|w| w.suite() == s).count();
        assert_eq!(count(Suite::Spec2017), 5);
        assert_eq!(count(Suite::Spec2006), 7);
        assert_eq!(count(Suite::Gap), 6);
    }

    #[test]
    fn every_workload_runs_functionally() {
        let params = WorkloadParams {
            scale: 256,
            iterations: 50,
            seed: 7,
        };
        for w in all_workloads() {
            let image = w.build(&params);
            let mut m = Machine::new(image.memory.into_memory());
            let steps = m
                .run(&image.program, 2_000_000)
                .unwrap_or_else(|e| panic!("{} faulted: {e}", w.name()));
            assert!(m.halted(), "{} did not halt in {steps} steps", w.name());
            assert!(steps > 500, "{} too trivial: {steps} uops", w.name());
        }
    }

    #[test]
    fn determinism_per_seed() {
        let params = WorkloadParams {
            scale: 128,
            iterations: 30,
            seed: 42,
        };
        for w in all_workloads() {
            let a = w.build(&params);
            let b = w.build(&params);
            assert_eq!(
                a.program,
                b.program,
                "{} program differs across builds",
                w.name()
            );
            let mut ma = Machine::new(a.memory.into_memory());
            let mut mb = Machine::new(b.memory.into_memory());
            ma.run(&a.program, 500_000).unwrap();
            mb.run(&b.program, 500_000).unwrap();
            assert_eq!(
                ma.cpu().regs,
                mb.cpu().regs,
                "{} nondeterministic",
                w.name()
            );
        }
    }

    /// The property the whole paper rests on: each workload must contain
    /// at least one genuinely hard-to-predict branch — one whose outcome
    /// stream has high flip entropy.
    #[test]
    fn every_workload_has_a_hard_branch() {
        let params = WorkloadParams {
            scale: 512,
            iterations: 400,
            seed: 3,
        };
        for w in all_workloads() {
            let image = w.build(&params);
            let mut m = Machine::new(image.memory.into_memory());
            let mut outcomes: std::collections::HashMap<u64, Vec<bool>> =
                std::collections::HashMap::new();
            while !m.halted() {
                let rec = match m.step(&image.program, None) {
                    Ok(r) => r,
                    Err(e) => panic!("{}: {e}", w.name()),
                };
                if let Some(b) = rec.branch {
                    if image.program.fetch(rec.pc).unwrap().is_cond_branch() {
                        outcomes.entry(rec.pc).or_default().push(b.actual_taken);
                    }
                }
                if m.steps() > 3_000_000 {
                    break;
                }
            }
            let hard = outcomes.values().any(|v| {
                if v.len() < 100 {
                    return false;
                }
                let taken = v.iter().filter(|t| **t).count() as f64 / v.len() as f64;
                let flips =
                    v.windows(2).filter(|w| w[0] != w[1]).count() as f64 / (v.len() - 1) as f64;
                (0.10..=0.90).contains(&taken) && flips > 0.10
            });
            assert!(hard, "{} has no hard-to-predict branch", w.name());
        }
    }
}
