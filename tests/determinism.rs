//! Parallel execution must be invisible in the results: the sharded
//! runner returns results in job order and every simulation is
//! deterministic, so any thread count must produce bit-identical tables.

use std::collections::HashSet;

use branch_runahead::sim::experiments::{self, ExperimentSetup};
use branch_runahead::sim::{run_jobs, ExpTable, SimConfig};
use branch_runahead::workloads::WorkloadParams;

fn tiny(threads: usize) -> ExperimentSetup {
    let mut s = ExperimentSetup::quick();
    s.params = WorkloadParams {
        scale: 512,
        iterations: 1_000_000,
        seed: 0xd15c,
    };
    s.max_retired = 8_000;
    s.workloads = vec!["leela_17".into(), "bfs".into()];
    s.threads = threads;
    s
}

/// `--threads 4` produces bit-identical experiment output to the
/// sequential path on the quick setup.
#[test]
fn threads_4_matches_sequential_tables() {
    // fig2's table, then fig10's MPKI and IPC tables.
    let render = |threads| -> Vec<String> {
        let campaign = experiments::run(&["fig2", "fig10"], &tiny(threads)).unwrap();
        let tables = campaign.outputs.iter().flat_map(|(_, out)| out.tables());
        tables.map(ExpTable::to_json).collect()
    };
    let (t1, t4) = (render(1), render(4));
    assert_eq!(t1.len(), 3);
    assert_eq!(t1[0], t4[0], "fig2 diverged across threads");
    assert_eq!(t1[1], t4[1], "fig10 MPKI diverged");
    assert_eq!(t1[2], t4[2], "fig10 IPC diverged");
}

/// A union campaign, which simulates each shared spec once, renders every
/// experiment byte-identically to running it alone, at 1 and 4 threads.
#[test]
fn union_matches_each_experiment_alone() {
    let names = ["fig3", "fig10", "fig13", "ablations"];
    for threads in [1, 4] {
        let setup = tiny(threads);
        let union = experiments::run(&names, &setup).unwrap();
        assert!(union.unique_jobs < union.jobs, "shared specs deduplicated");
        for (name, output) in &union.outputs {
            let alone = experiments::run(&[name], &setup).unwrap();
            assert_eq!(
                output.text(),
                alone.outputs[0].1.text(),
                "{name} diverged in the union at {threads} threads"
            );
        }
    }
}

/// Same property through the multi-region weighted-aggregation path.
#[test]
fn regions_aggregate_identically_across_thread_counts() {
    let seq = tiny(1).with_regions(3);
    let par = tiny(4).with_regions(3);
    let r1 = seq.run(SimConfig::mini_br(), "leela_17").unwrap();
    let r4 = par.run(SimConfig::mini_br(), "leela_17").unwrap();
    assert_eq!(r1.core.cycles, r4.core.cycles);
    assert_eq!(r1.core.retired_uops, r4.core.retired_uops);
    assert_eq!(r1.core.mispredicts, r4.core.mispredicts);
    assert_eq!(
        r1.br.as_ref().map(|b| b.dce_uops),
        r4.br.as_ref().map(|b| b.dce_uops)
    );
}

/// Telemetry rides the same guarantee: interval samples and merged event
/// traces of a campaign's runs — rendered through every exporter — must
/// be byte-identical between the sequential path and four worker
/// threads, and each run must have its own label although fig13's sweep
/// points share `SimJob::label`s.
#[test]
fn telemetry_exports_identical_across_thread_counts() {
    use branch_runahead::telemetry::export;

    let render = |threads: usize| {
        let mut setup = tiny(threads);
        setup.telemetry = branch_runahead::sim::TelemetryConfig {
            enabled: true,
            sample_interval: 1_000,
        };
        let campaign = experiments::run(&["fig2", "fig13"], &setup).unwrap();
        let runs = campaign.telemetry;
        assert_eq!(runs.len(), campaign.unique_jobs, "one run per job");
        let labels: HashSet<&str> = runs.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels.len(), runs.len(), "labels are unique");
        assert!(
            runs.iter().any(|(_, t)| !t.samples.is_empty()),
            "sampler produced nothing"
        );
        [
            export::chrome_trace(&runs),
            export::samples_jsonl(&runs),
            export::events_jsonl(&runs),
            export::counters_json(&runs),
        ]
    };
    let seq = render(1);
    let par = render(4);
    for (name, (a, b)) in ["trace", "samples.jsonl", "events", "counters"]
        .iter()
        .zip(seq.iter().zip(&par))
    {
        assert_eq!(a, b, "{name} export diverged across thread counts");
    }
}

/// Raw runner level: results come back in job order with auto threads.
#[test]
fn runner_preserves_job_order_with_auto_threads() {
    let setup = tiny(0);
    let mut jobs = Vec::new();
    for w in &setup.workloads {
        jobs.extend(setup.jobs(&SimConfig::baseline(), w));
        jobs.extend(setup.jobs(&SimConfig::mini_br(), w));
    }
    let auto = run_jobs(&jobs, 0).unwrap();
    let seq = run_jobs(&jobs, 1).unwrap();
    for (a, s) in auto.iter().zip(&seq) {
        assert_eq!(a.config_name, s.config_name);
        assert_eq!(a.core.cycles, s.core.cycles);
        assert_eq!(a.core.mispredicts, s.core.mispredicts);
    }
}
