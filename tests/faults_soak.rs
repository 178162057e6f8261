//! The prediction-as-hint contract, end to end: fault-injected runs must
//! retire the exact same instruction stream as fault-free runs (only
//! performance may move), machine checks must catch real structural
//! damage, and a batch with failing jobs must still deliver every other
//! job's results.

use branch_runahead::sim::experiments::ExperimentSetup;
use branch_runahead::sim::faults::{run_soak, schedule_seed};
use branch_runahead::sim::{run_jobs_partial, FaultSpec, SimConfig, SimError, SimJob, SoakReport};

/// One Mini-BR job on `workload`, sized for test runtime.
fn mini_job(workload: &str, max_retired: u64) -> SimJob {
    SimJob {
        config: SimConfig::mini_br(),
        workload: workload.into(),
        params: ExperimentSetup::quick().params,
        region_seed: 0,
        weight: 1.0,
        max_retired,
    }
}

#[test]
fn quick_workloads_hold_equivalence_under_default_faults() {
    let setup = ExperimentSetup::quick();
    let jobs: Vec<SimJob> = setup
        .workloads
        .iter()
        .map(|w| mini_job(w, 20_000))
        .collect();
    let report = run_soak(&jobs, FaultSpec::default(), 4, 4);
    assert!(
        report.passed(),
        "equivalence soak failed: {}",
        report.to_json()
    );
    assert_eq!(report.runs.len(), jobs.len() * 5, "reference + 4 schedules");
    let injected: u64 = report.runs.iter().map(|r| r.faults.total()).sum();
    assert!(injected > 0, "schedules must actually inject faults");
    // Every fault run carries its seed so any failure is replayable.
    assert_eq!(
        report
            .runs
            .iter()
            .filter(|r| r.fault_seed.is_some())
            .count(),
        jobs.len() * 4
    );
}

#[test]
fn one_job_soak_replays_that_job_of_a_four_job_soak() {
    // Seeds depend only on the job and the schedule index, so the replay
    // hint of a failed run ("rerun with --workloads <its workload>")
    // reproduces exactly the runs the wider soak made for that job.
    let jobs: Vec<SimJob> = ["leela_17", "mcf_06", "bfs", "sssp"]
        .iter()
        .map(|w| mini_job(w, 10_000))
        .collect();
    let four = run_soak(&jobs, FaultSpec::default(), 2, 2);
    let one = run_soak(&jobs[2..3], FaultSpec::default(), 2, 1);
    let third = SoakReport {
        runs: four.runs[6..9].to_vec(),
        failures: Vec::new(),
    };
    // The JSON carries each run's label, seed, fingerprint, IPC, MPKI and
    // fault total; the fault counts are also compared kind by kind.
    assert_eq!(one.to_json(), third.to_json());
    for (a, b) in one.runs.iter().zip(&third.runs) {
        assert_eq!(a.faults, b.faults);
    }
    assert!(
        one.runs[1].faults.total() > 0,
        "the schedules inject faults"
    );
}

#[test]
fn fault_schedule_replays_bit_identically() {
    let mut job = mini_job("leela_17", 15_000);
    job.config.machine_check = true;
    job.config.faults = Some(FaultSpec {
        seed: schedule_seed(&job, 2),
        ..FaultSpec::default()
    });
    let a = job.run().expect("faulted run completes");
    let b = job.run().expect("replay completes");
    assert_eq!(a.faults, b.faults, "same faults injected");
    assert_eq!(a.core.cycles, b.core.cycles, "same timing");
    assert_eq!(a.core.retire_fingerprint, b.core.retire_fingerprint);
    assert!(a.faults.expect("stats present").total() > 0);
}

#[test]
fn distinct_seeds_give_distinct_schedules() {
    let base = mini_job("bfs", 15_000);
    let mut seeds: Vec<u64> = (0..4).map(|k| schedule_seed(&base, k)).collect();
    seeds.dedup();
    assert_eq!(seeds.len(), 4, "four schedules, four distinct seeds");
    let run = |seed: u64| {
        let mut job = base.clone();
        job.config.faults = Some(FaultSpec {
            seed,
            ..FaultSpec::default()
        });
        job.run().expect("run completes")
    };
    let a = run(seeds[0]);
    let b = run(seeds[1]);
    // Different schedules perturb timing differently (while both retire
    // the same stream — covered by the soak test above).
    assert_ne!(
        (a.core.cycles, a.faults),
        (b.core.cycles, b.faults),
        "distinct seeds should exercise distinct schedules"
    );
}

#[test]
fn sabotage_fixture_trips_machine_check() {
    let mut job = mini_job("leela_17", 60_000);
    job.config.machine_check = true;
    job.config.faults = Some(FaultSpec {
        sabotage: true,
        ..FaultSpec::default()
    });
    let err = job.run().expect_err("corruption must be caught");
    match err {
        SimError::InvariantViolation {
            job: label,
            cycle,
            what,
        } => {
            assert!(label.contains("leela_17"), "names the job: {label}");
            assert!(cycle > 0);
            assert!(
                what.contains("fetch pointer"),
                "names the invariant: {what}"
            );
        }
        other => panic!("expected InvariantViolation, got {other:?}"),
    }
}

#[test]
fn machine_check_passes_on_clean_runs() {
    let mut job = mini_job("sssp", 20_000);
    job.config.machine_check = true;
    let clean = job.run().expect("clean run passes all sweeps");
    job.config.machine_check = false;
    let unchecked = job.run().expect("unchecked run");
    // The sweeps are observers: enabling them must not change the run.
    assert_eq!(clean.core.cycles, unchecked.core.cycles);
    assert_eq!(
        clean.core.retire_fingerprint,
        unchecked.core.retire_fingerprint
    );
}

#[test]
fn baseline_faults_have_no_engine_to_perturb() {
    // Every fault acts on the Branch Runahead engine; a baseline system
    // has none, so its fault schedule must inject nothing and leave the
    // run exactly as a clean one.
    let mut job = mini_job("leela_17", 20_000);
    job.config = SimConfig::baseline();
    let clean = job.run().expect("clean baseline run");
    job.config.faults = Some(FaultSpec::default());
    let faulted = job.run().expect("faulted baseline run");
    assert_eq!(faulted.faults.expect("stats present").total(), 0);
    assert_eq!(clean.core.cycles, faulted.core.cycles);
    assert_eq!(clean.core.mispredicts, faulted.core.mispredicts);
    assert_eq!(
        clean.core.retire_fingerprint,
        faulted.core.retire_fingerprint
    );
}

#[test]
fn multi_panic_batch_reports_each_job_and_keeps_the_rest() {
    let mut batch: Vec<SimJob> = ["leela_17", "mcf_06", "bfs", "sssp", "leela_17", "bfs"]
        .iter()
        .map(|w| mini_job(w, 4_000))
        .collect();
    // Two jobs panic concurrently: a CEB of `usize::MAX` entries passes
    // validation (sizes have no upper bound), but its ring buffer cannot
    // be sized, so the allocation panics up front.
    for i in [1, 4] {
        batch[i]
            .config
            .runahead
            .as_mut()
            .expect("mini config has BR")
            .ceb_entries = usize::MAX;
    }
    let partial = run_jobs_partial(&batch, 4);
    assert_eq!(partial.len(), batch.len());
    for (i, result) in partial.iter().enumerate() {
        if i == 1 || i == 4 {
            match result {
                Err(SimError::JobPanicked { job, message }) => {
                    assert_eq!(*job, batch[i].label(), "each panic names its own job");
                    assert!(
                        message.contains("capacity overflow"),
                        "payload kept: {message}"
                    );
                }
                other => panic!("job {i}: expected JobPanicked, got {other:?}"),
            }
        } else {
            assert!(result.is_ok(), "job {i} must survive its neighbours");
        }
    }
    // Survivors are bit-identical to a clean sequential run.
    let clean: Vec<SimJob> = batch
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 1 && *i != 4)
        .map(|(_, j)| j.clone())
        .collect();
    let sequential = run_jobs_partial(&clean, 1);
    let survivors: Vec<_> = partial.iter().filter_map(|r| r.as_ref().ok()).collect();
    assert_eq!(survivors.len(), sequential.len());
    for (p, s) in survivors.iter().zip(&sequential) {
        let s = s.as_ref().expect("clean sequential run succeeds");
        assert_eq!(p.core.cycles, s.core.cycles);
        assert_eq!(p.core.retire_fingerprint, s.core.retire_fingerprint);
    }
}
