//! # br-bench — the benchmark harness
//!
//! Two entry points:
//!
//! * the **`figures` binary** regenerates every table and figure of the
//!   paper's evaluation:
//!
//!   ```text
//!   cargo run --release -p br-bench --bin figures -- all
//!   cargo run --release -p br-bench --bin figures -- --threads 4 fig10
//!   cargo run --release -p br-bench --bin figures -- --quick fig12
//!   ```
//!
//! * the **timing benches** (`cargo bench -p br-bench`) time component
//!   micro-benchmarks (predictor lookups, cache accesses, chain
//!   extraction) and the telemetry overhead.
//!
//! Simulator performance end to end and per layer is measured by the
//! stand-alone benchmark in `benchmark/` at the repository root.
//!
//! The experiment logic itself lives in [`br_sim::experiments`]; this
//! crate only drives it.

#![warn(missing_docs)]

use std::path::{Path, PathBuf};

use br_sim::experiments::{self, ExperimentSetup};
use br_sim::{run_jobs, SimConfig, SimError, TelemetryRun};
use br_telemetry::export;

/// Names accepted by the `figures` binary, in `figures all` order.
pub use br_sim::experiments::EXPERIMENTS;

/// Runs one named experiment and returns its rendered output.
///
/// # Errors
///
/// Propagates [`SimError`] from the experiment (e.g. an unknown workload
/// name in the setup), and reports an unknown *experiment* name as
/// [`SimError::InvalidConfig`] listing [`EXPERIMENTS`].
pub fn run_experiment(name: &str, setup: &ExperimentSetup) -> Result<String, SimError> {
    let mut campaign = experiments::run(&[name], setup)?;
    let (_, output) = campaign.outputs.pop().expect("one name renders one output");
    Ok(output.text())
}

/// Runs the setup's workloads under Mini Branch Runahead with telemetry
/// enabled and writes every exporter's output into `dir`:
/// `trace.json` (Chrome trace viewer), `samples.jsonl` (interval
/// samples), `events.jsonl` (the event ring), and
/// `counters.json` (final counter/gauge/histogram values). Jobs execute
/// on `setup.threads` workers; the files are assembled from results in
/// job order, so output is byte-identical for any thread count. Returns
/// the written paths.
///
/// # Errors
///
/// Propagates [`SimError`] from the runs; filesystem failures creating
/// `dir` or writing the files surface as [`SimError::Io`] naming the
/// path.
pub fn export_telemetry(setup: &ExperimentSetup, dir: &Path) -> Result<Vec<PathBuf>, SimError> {
    let io_err = |path: &Path, e: std::io::Error| SimError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    let mut setup = setup.clone();
    setup.telemetry.enabled = true;
    let jobs = mini_jobs(&setup);
    let results = run_jobs(&jobs, setup.threads)?;
    let runs: Vec<(String, TelemetryRun)> = jobs
        .iter()
        .zip(results)
        .filter_map(|(job, r)| r.telemetry.map(|t| (job.label(), t)))
        .collect();
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let files: [(&str, String); 4] = [
        ("trace.json", export::chrome_trace(&runs)),
        ("samples.jsonl", export::samples_jsonl(&runs)),
        ("events.jsonl", export::events_jsonl(&runs)),
        ("counters.json", export::counters_json(&runs)),
    ];
    let mut written = Vec::with_capacity(files.len());
    for (name, contents) in files {
        let path = dir.join(name);
        std::fs::write(&path, contents).map_err(|e| io_err(&path, e))?;
        written.push(path);
    }
    Ok(written)
}

/// Runs the architectural-equivalence soak over the setup's workloads
/// under Mini Branch Runahead: each `(workload, region)` job runs once
/// fault-free and `schedules` times under seeded fault schedules derived
/// from `spec`, with machine checks always on. See [`br_sim::run_soak`]
/// for the pass criterion (bit-identical retired instruction streams).
#[must_use]
pub fn run_faults_soak(
    setup: &ExperimentSetup,
    spec: br_sim::FaultSpec,
    schedules: u32,
) -> br_sim::SoakReport {
    br_sim::run_soak(&mini_jobs(setup), spec, schedules, setup.threads)
}

/// The setup's jobs under Mini Branch Runahead, workload by workload.
fn mini_jobs(setup: &ExperimentSetup) -> Vec<br_sim::SimJob> {
    let mini = SimConfig::mini_br();
    setup
        .workloads
        .iter()
        .flat_map(|w| setup.jobs(&mini, w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_experiments_render() {
        let setup = ExperimentSetup::quick();
        for name in ["table1", "table2", "area"] {
            let out = run_experiment(name, &setup).unwrap();
            assert!(!out.is_empty(), "{name} produced nothing");
        }
    }

    /// Every experiment's `--json` object is well-formed: balanced outside
    /// strings, and no raw control character inside them.
    #[test]
    fn json_is_well_formed_for_every_experiment() {
        fn well_formed(json: &str) -> bool {
            let (mut depth, mut in_string, mut escaped) = (0i32, false, false);
            let ok = json.chars().all(|c| {
                match (in_string, escaped, c) {
                    (true, true, _) => escaped = false,
                    (true, false, '\\') => escaped = true,
                    (true, false, '"') => in_string = false,
                    (true, false, c) => return c >= ' ',
                    (false, _, '"') => in_string = true,
                    (false, _, '{' | '[') => depth += 1,
                    (false, _, '}' | ']') => depth -= 1,
                    _ => {}
                }
                depth >= 0
            });
            ok && depth == 0 && !in_string
        }
        let mut setup = ExperimentSetup::quick();
        setup.workloads = vec!["leela_17".into()];
        setup.max_retired = 4_000;
        let campaign = experiments::run(EXPERIMENTS, &setup).unwrap();
        assert_eq!(campaign.outputs.len(), EXPERIMENTS.len());
        for (name, output) in &campaign.outputs {
            let (json, head) = (output.to_json(name), format!("{{\"name\": \"{name}\", "));
            assert!(json.starts_with(&head) && well_formed(&json), "{json}");
        }
    }

    #[test]
    fn unknown_workload_is_an_error_not_a_panic() {
        let mut setup = ExperimentSetup::quick();
        setup.workloads = vec!["nope".into()];
        let err = run_experiment("fig2", &setup).unwrap_err();
        assert!(err.to_string().contains("nope"));
        assert!(err.to_string().contains("leela_17"));
    }

    #[test]
    fn unknown_name_is_a_typed_error() {
        let err = run_experiment("fig99", &ExperimentSetup::quick()).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");
        assert!(err.to_string().contains("fig99"), "{err}");
        assert!(err.to_string().contains("fig10"), "lists known: {err}");
    }
}
