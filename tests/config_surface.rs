//! The configuration surface at zero: each settable numeric field of
//! `CoreConfig`, `MemoryConfig` and `BranchRunaheadConfig`, and the run's
//! cycle cap, set to 0 one at a time on Mini must either run or be
//! rejected as [`SimError::InvalidConfig`]. No value may panic.
//!
//! A field that only some values make safe needs a `validate` check; a
//! field that nothing varies is a constant instead.

use std::panic::{catch_unwind, AssertUnwindSafe};

use branch_runahead::sim::experiments::ExperimentSetup;
use branch_runahead::sim::{SimConfig, SimError, SimJob};

/// Retired uops per run.
const RETIRED: u64 = 5_000;

/// An edit that sets one field to 0, and the field's name.
type Zeroed = (&'static str, fn(&mut SimConfig));

macro_rules! zeroed {
    (runahead . $field:ident) => {
        (concat!("runahead.", stringify!($field)), |c: &mut SimConfig| {
            c.runahead.as_mut().expect("Mini has Branch Runahead").$field = 0
        })
    };
    ($($path:ident).+) => {
        (stringify!($($path).+), |c: &mut SimConfig| c.$($path).+ = 0)
    };
}

const FIELDS: [Zeroed; 30] = [
    zeroed!(core.issue_width),
    zeroed!(core.retire_width),
    zeroed!(core.rob_entries),
    zeroed!(core.rs_entries),
    zeroed!(core.num_alus),
    zeroed!(core.load_ports),
    zeroed!(core.frontend_depth),
    zeroed!(core.redirect_latency),
    zeroed!(memory.l1.size_bytes),
    zeroed!(memory.l1.ways),
    zeroed!(memory.l2.size_bytes),
    zeroed!(memory.l2.ways),
    zeroed!(memory.l1_hit_latency),
    zeroed!(memory.l2_hit_latency),
    zeroed!(memory.dram.banks),
    zeroed!(memory.dram.row_log2),
    zeroed!(memory.dram.t_cas),
    zeroed!(memory.dram.t_rcd),
    zeroed!(memory.dram.t_rp),
    zeroed!(memory.dram.queue_capacity),
    zeroed!(runahead.chain_cache_entries),
    zeroed!(runahead.window_instances),
    zeroed!(runahead.dce_alus),
    zeroed!(runahead.dce_mshrs),
    zeroed!(runahead.num_queues),
    zeroed!(runahead.queue_entries),
    zeroed!(runahead.hbt_entries),
    zeroed!(runahead.ceb_entries),
    zeroed!(runahead.max_chain_len),
    // Runs, and retires nothing: the cap ends the run before its first
    // cycle.
    zeroed!(max_cycles),
];

#[test]
fn every_field_at_zero_runs_or_is_invalid_config() {
    let setup = ExperimentSetup::quick();
    let mut failures = Vec::new();
    for workload in ["leela_17", "mcf_06"] {
        let mut job = SimJob {
            config: SimConfig::mini_br(),
            workload: workload.into(),
            params: setup.params,
            region_seed: 0,
            weight: 1.0,
            max_retired: RETIRED,
        };
        let image = job.build_image().expect("known workload");
        for (field, zero) in FIELDS {
            job.config = SimConfig::mini_br();
            zero(&mut job.config);
            match catch_unwind(AssertUnwindSafe(|| job.try_execute(&image))) {
                Ok(Ok(_) | Err(SimError::InvalidConfig(_))) => {}
                Ok(Err(e)) => failures.push(format!("{workload}, {field} = 0: {e}")),
                Err(_) => failures.push(format!("{workload}, {field} = 0: panicked")),
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
