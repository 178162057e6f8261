//! Allocation bound of the simulation loop: a per-cycle heap allocation
//! reintroduced anywhere in the core, the predictor, the memory system or
//! the Branch Runahead engine multiplies a job's allocation count, which
//! host timing on a shared machine would hide in its noise.
//!
//! A counting global allocator (this test binary only) counts every
//! allocation while each job constructs and runs its system; the image
//! is built before counting starts. Each count must stay within 1.5x (plus
//! 64 for small-count jitter) of its recorded count. The counts are not
//! flat in the uop budget, so the bound is a tripwire, not a zero-growth
//! claim.
//!
//! Keep this file to one `#[test]`: the counter is process-wide, so a
//! second test running concurrently would pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use branch_runahead::sim::experiments::ExperimentSetup;
use branch_runahead::sim::{SimConfig, SimJob};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the only addition is a
// relaxed counter increment, which cannot violate allocator invariants.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Recorded allocations per job at 60k retired uops: (workload,
/// baseline, Mini Branch Runahead). Recorded with each cache's ways in one
/// flat array: a per-set `Vec` of ways adds about 2,180 allocations per
/// system (the L2 alone has 2,048 sets), which trips every bound.
const RECORDED: [(&str, u64, u64); 4] = [
    ("leela_17", 600, 1248),
    ("mcf_06", 523, 1127),
    ("bfs", 1153, 1747),
    ("sssp", 1521, 2183),
];

#[test]
fn simulation_allocations_stay_within_recorded_bound() {
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
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let result = job.try_execute(&image).expect("job runs");
            let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
            let label = job.label();
            println!("{label}: {allocations} allocations (recorded {recorded})");
            assert!(result.core.retired_uops >= 60_000, "{label} ran its budget");
            if allocations * 2 > recorded * 3 + 128 {
                failures.push(format!(
                    "{label}: {allocations} allocations, over 1.5x the recorded {recorded}"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
