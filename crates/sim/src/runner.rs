//! Sharded job execution and region aggregation.
//!
//! [`run_jobs`] executes a batch of [`SimJob`]s across worker threads.
//! Scheduling is self-stealing: workers pull the next un-started job index
//! from a shared atomic counter, so a worker that draws short jobs simply
//! takes more of them — no static partitioning, no idle tails. Results are
//! returned **in job order** regardless of completion order, and each job
//! is a deterministic simulation, so the output is bit-identical for any
//! thread count (including the in-place sequential path used for
//! `threads == 1`).
//!
//! [`aggregate`] is the pure SimPoint weighted-average combiner shared by
//! the sequential and parallel paths; keeping it out of the execution code
//! is what guarantees the two paths cannot diverge.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use br_mem::Counters;
use br_workloads::{WorkloadImage, WorkloadParams};

use crate::job::{SimError, SimJob};
use crate::system::RunResult;

/// Caches built workload images by `(workload, params)` so the many jobs
/// of an experiment (every configuration × every region) share one build
/// per distinct image. Generators are deterministic, so if two workers
/// race to build the same key the first insert wins and the duplicate is
/// dropped — wasted work, never wrong results.
#[derive(Debug, Default)]
struct ImageCache {
    map: Mutex<HashMap<(String, WorkloadParams), Arc<WorkloadImage>>>,
}

impl ImageCache {
    fn get_or_build(&self, job: &SimJob) -> Result<Arc<WorkloadImage>, SimError> {
        // Recover from poisoning instead of panicking: the cache is a map
        // of immutable `Arc`s, valid after any interrupted insert, and a
        // worker that panicked mid-job must not cascade into every other
        // job that happens to share its images.
        let key = job.image_key();
        if let Some(img) = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            return Ok(Arc::clone(img));
        }
        // Build outside the lock: image generation dominates, and holding
        // the lock across it would serialize every worker behind it.
        let built = job.build_image()?;
        let mut map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Ok(Arc::clone(map.entry(key).or_insert(built)))
    }
}

/// Renders a panic payload: the `&str`/`String` most panics carry, or a
/// placeholder for exotic payloads.
fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Resolves a thread-count knob: `0` means one worker per available CPU.
#[must_use]
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

/// Runs one job against the shared cache, converting panics and
/// machine-check violations into typed errors naming the job.
fn run_one_caught(job: &SimJob, cache: &ImageCache) -> Result<RunResult, SimError> {
    catch_unwind(AssertUnwindSafe(|| {
        let img = cache.get_or_build(job)?;
        job.try_execute(&img)
    }))
    .unwrap_or_else(|payload| {
        Err(SimError::JobPanicked {
            job: job.label(),
            message: describe_panic(payload.as_ref()),
        })
    })
}

/// Executes every job and returns a per-job outcome **in job order**: one
/// failing job (panic, machine-check violation, bad workload) never stops
/// the rest of the batch. Both the sequential (`threads <= 1`) and
/// sharded paths catch panics, so a batch with several concurrently
/// panicking jobs reports each failure under its own label while the
/// surviving jobs produce results bit-identical to a clean batch.
#[must_use]
pub fn run_jobs_partial(jobs: &[SimJob], threads: usize) -> Vec<Result<RunResult, SimError>> {
    let threads = resolve_threads(threads).min(jobs.len().max(1));
    let cache = ImageCache::default();
    if threads <= 1 {
        return jobs.iter().map(|job| run_one_caught(job, &cache)).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<RunResult, SimError>)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let cache = &cache;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                // Catch panics so one poisoned job surfaces as a
                // `SimError::JobPanicked` naming the job, instead of an
                // opaque scoped-thread abort that hides which simulation
                // died — and instead of taking the batch's other results
                // down with it.
                if tx.send((i, run_one_caught(&jobs[i], cache))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<Result<RunResult, SimError>>> = vec![None; jobs.len()];
        for (i, result) in rx {
            slots[i] = Some(result);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every job index reported exactly once"))
            .collect()
    })
}

/// Executes every job and returns the results in job order, failing the
/// whole batch on the first per-job error. Invalid workload names fail
/// *before* any simulation starts, so those errors are cheap and never
/// partial. Callers that want the other jobs' results despite a failure
/// use [`run_jobs_partial`] instead.
pub fn run_jobs(jobs: &[SimJob], threads: usize) -> Result<Vec<RunResult>, SimError> {
    for job in jobs {
        job.resolve()?;
    }
    run_jobs_partial(jobs, threads).into_iter().collect()
}

/// Combines weighted region runs into one result (the paper's SimPoint
/// methodology). Every listed counter — core, memory, Branch Runahead
/// and fault counts, the Figure 12 categories included — becomes the
/// weighted average `floor(Σ w·x / Σ w)`. Structural data that cannot be
/// averaged (the retire fingerprint, per-site branch maps) comes from the
/// heaviest region's run. A single run passes through untouched.
///
/// # Panics
///
/// Panics if `runs` is empty — an experiment with zero regions is a
/// driver bug, not a recoverable condition — or if the runs do not share
/// one configuration (their counter lists differ).
#[must_use]
pub(crate) fn aggregate(mut runs: Vec<(f64, RunResult)>) -> RunResult {
    assert!(!runs.is_empty(), "need at least one region run");
    if runs.len() == 1 {
        return runs.pop().expect("one run").1;
    }
    let total_w: f64 = runs.iter().map(|(w, _)| *w).sum();
    let heaviest = runs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
        .map(|(i, _)| i)
        .expect("nonempty");
    let values: Vec<(f64, Vec<u64>)> = runs.iter().map(|(w, r)| (*w, r.counter_values())).collect();
    assert!(
        values.iter().all(|(_, v)| v.len() == values[0].1.len()),
        "regions of one job must share a configuration"
    );
    // Move the heaviest run out instead of cloning it: RunResult carries
    // per-site maps that are expensive to duplicate.
    let mut out = runs.swap_remove(heaviest).1;
    let mut k = 0;
    out.for_each_counter_mut(&mut |_, x| {
        let sum: f64 = values.iter().map(|(w, v)| *w * v[k] as f64).sum();
        *x = (sum / total_w) as u64;
        k += 1;
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use br_core::PredictionCategory;

    fn jobs(n: u64) -> Vec<SimJob> {
        (0..n)
            .map(|k| SimJob {
                config: SimConfig::baseline(),
                workload: "leela_17".into(),
                params: WorkloadParams {
                    scale: 512,
                    iterations: 1_000_000,
                    seed: 11,
                },
                region_seed: k,
                weight: 1.0 / (k + 1) as f64,
                max_retired: 4_000,
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let batch = jobs(4);
        let seq = run_jobs(&batch, 1).unwrap();
        let par = run_jobs(&batch, 4).unwrap();
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.core.cycles, p.core.cycles);
            assert_eq!(s.core.retired_uops, p.core.retired_uops);
            assert_eq!(s.core.mispredicts, p.core.mispredicts);
            assert_eq!(s.config_name, p.config_name);
        }
    }

    #[test]
    fn bad_name_fails_whole_batch() {
        let mut batch = jobs(2);
        batch[1].workload = "bogus".into();
        assert!(matches!(
            run_jobs(&batch, 2),
            Err(SimError::UnknownWorkload { .. })
        ));
    }

    #[test]
    fn worker_panic_names_the_job() {
        let mut batch = jobs(2);
        let mut cfg = SimConfig::mini_br();
        // Passes validation (sizes have no upper bound), but the CEB's
        // ring buffer cannot be sized: its allocation panics up front.
        cfg.runahead.as_mut().unwrap().ceb_entries = usize::MAX;
        batch[1].config = cfg;
        let err = run_jobs(&batch, 2).unwrap_err();
        match err {
            SimError::JobPanicked { job, message } => {
                assert!(job.contains("leela_17"), "label names the workload: {job}");
                assert!(job.contains("r1"), "label names the region: {job}");
                assert!(
                    message.contains("capacity overflow"),
                    "payload preserved: {message}"
                );
            }
            other => panic!("expected JobPanicked, got {other:?}"),
        }
    }

    #[test]
    fn invalid_config_is_a_typed_error_not_a_panic() {
        let mut batch = jobs(2);
        let mut cfg = SimConfig::mini_br();
        cfg.runahead.as_mut().unwrap().window_instances = 0;
        batch[1].config = cfg;
        let err = run_jobs(&batch, 2).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");
        let what = err.to_string();
        assert!(what.contains(&batch[1].label()) && what.contains("window"));
    }

    /// Each single-field edit would panic in a constructor (or, for the
    /// DRAM queue, stall to the cycle cap) if validation let it through.
    #[test]
    fn edits_constructors_reject_are_invalid_configs() {
        let edits: [fn(&mut SimConfig); 3] = [
            |c| c.memory.dram.banks = 0,
            |c| c.memory.dram.banks = 3,
            |c| c.memory.dram.queue_capacity = 0,
        ];
        let mut job = jobs(1).remove(0);
        for (i, edit) in edits.into_iter().enumerate() {
            job.config = SimConfig::mini_br();
            edit(&mut job.config);
            let err = job.run().unwrap_err();
            assert!(
                matches!(err, SimError::InvalidConfig(_)),
                "edit {i}: {err:?}"
            );
        }
    }

    #[test]
    fn aggregate_single_is_identity() {
        let r = jobs(1)[0].run().unwrap();
        let agg = aggregate(vec![(0.7, r.clone())]);
        assert_eq!(agg.core.cycles, r.core.cycles);
        assert_eq!(agg.core.mispredicts, r.core.mispredicts);
    }

    #[test]
    fn aggregate_weighted_average_is_bounded() {
        let batch = jobs(2);
        let results = run_jobs(&batch, 1).unwrap();
        let lo = results.iter().map(|r| r.core.cycles).min().unwrap();
        let hi = results.iter().map(|r| r.core.cycles).max().unwrap();
        let weighted: Vec<(f64, RunResult)> = batch.iter().map(|j| j.weight).zip(results).collect();
        let agg = aggregate(weighted);
        assert!(agg.core.cycles >= lo && agg.core.cycles <= hi);
    }

    #[test]
    fn aggregate_averages_every_counter() {
        let batch: Vec<SimJob> = jobs(2)
            .into_iter()
            .map(|mut j| {
                j.config = SimConfig::mini_br();
                j.max_retired = 100_000;
                j
            })
            .collect();
        let results = run_jobs(&batch, 1).unwrap();
        let runs: Vec<(f64, RunResult)> = batch.iter().map(|j| j.weight).zip(results).collect();
        let by_hand = |f: fn(&RunResult) -> u64| -> u64 {
            let sum: f64 = runs.iter().map(|(w, r)| *w * f(r) as f64).sum();
            let total: f64 = runs.iter().map(|(w, _)| *w).sum();
            (sum / total) as u64
        };
        fn br(r: &RunResult) -> &br_core::BrStats {
            r.br.as_ref().expect("BR enabled")
        }
        let dce_uops = by_hand(|r| br(r).dce_uops);
        let covered = by_hand(|r| br(r).covered_branch_retires);
        let l1_misses = by_hand(|r| r.mem.l1.misses);
        assert_ne!(
            br(&runs[0].1).dce_uops,
            br(&runs[1].1).dce_uops,
            "the regions must differ for the average to be visible"
        );

        let agg = aggregate(runs);
        let agg_br = br(&agg);
        assert_eq!(agg_br.dce_uops, dce_uops);
        assert_eq!(agg_br.covered_branch_retires, covered);
        assert_eq!(agg.mem.l1.misses, l1_misses);
        // Each of the five categories floors separately, so their sum may
        // trail the floored total by up to 4 counts: within 1e-3 once more
        // than 4000 branches are covered.
        assert!(covered > 4_000, "enough covered branches: {covered}");
        let total: f64 = PredictionCategory::ALL
            .iter()
            .map(|c| agg_br.category_fraction(*c))
            .sum();
        assert!(
            (total - 1.0).abs() < 1e-3,
            "Figure 12 fractions sum to {total}"
        );
    }

    #[test]
    fn resolve_threads_auto_is_positive() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
