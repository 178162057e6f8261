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

/// Names accepted by the `figures` binary.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig5",
    "fig10",
    "fig11-top",
    "fig11-bottom",
    "fig12",
    "fig13",
    "fig14",
    "merge-point",
    "ablations",
    "area",
];

/// Runs one named experiment and returns its JSON rendering (tables and
/// static reports are wrapped as a string field). Every object carries a
/// `"seconds"` field: the wall-clock time the experiment took.
///
/// # Errors
///
/// Propagates [`SimError`] from the experiment (e.g. an unknown workload
/// name in the setup), and reports an unknown *experiment* name as
/// [`SimError::InvalidConfig`] listing [`EXPERIMENTS`].
pub fn run_experiment_json(name: &str, setup: &ExperimentSetup) -> Result<String, SimError> {
    let started = std::time::Instant::now();
    let body = match name {
        "table1" | "table2" | "area" => {
            let text = run_experiment(name, setup)?
                .replace('\n', "\\n")
                .replace('"', "\\\"");
            format!("\"name\": \"{name}\", \"text\": \"{text}\"")
        }
        "fig10" => {
            let (mpki, ipc) = experiments::fig10(setup)?;
            format!(
                "\"name\": \"fig10\", \"mpki\": {}, \"ipc\": {}",
                mpki.to_json(),
                ipc.to_json()
            )
        }
        other => {
            let t = match other {
                "fig1" => experiments::fig1(setup)?,
                "fig2" => experiments::fig2(setup)?,
                "fig3" => experiments::fig3(setup)?,
                "fig5" => experiments::fig5(setup)?,
                "fig11-top" => experiments::fig11_top(setup)?,
                "fig11-bottom" => experiments::fig11_bottom(setup)?,
                "fig12" => experiments::fig12(setup)?,
                "fig13" => experiments::fig13(setup)?,
                "fig14" => experiments::fig14(setup)?,
                "merge-point" => experiments::merge_point(setup)?,
                "ablations" => experiments::ablations(setup)?,
                _ => return Err(unknown_experiment(other)),
            };
            format!("\"name\": \"{other}\", \"table\": {}", t.to_json())
        }
    };
    Ok(format!(
        "{{{body}, \"seconds\": {:.3}}}",
        started.elapsed().as_secs_f64()
    ))
}

/// Reports an unknown experiment name as a typed, actionable error.
fn unknown_experiment(name: &str) -> SimError {
    SimError::InvalidConfig(format!(
        "unknown experiment {name:?}; known: {EXPERIMENTS:?}"
    ))
}

/// Runs one named experiment and returns its rendered output.
///
/// # Errors
///
/// Propagates [`SimError`] from the experiment (e.g. an unknown workload
/// name in the setup), and reports an unknown *experiment* name as
/// [`SimError::InvalidConfig`] listing [`EXPERIMENTS`].
pub fn run_experiment(name: &str, setup: &ExperimentSetup) -> Result<String, SimError> {
    Ok(match name {
        "table1" => br_sim::SimConfig::baseline().render_table1(),
        "table2" => br_sim::render_table2(),
        "fig1" => experiments::fig1(setup)?.to_string(),
        "fig2" => experiments::fig2(setup)?.to_string(),
        "fig3" => experiments::fig3(setup)?.to_string(),
        "fig5" => experiments::fig5(setup)?.to_string(),
        "fig10" => {
            let (mpki, ipc) = experiments::fig10(setup)?;
            format!("{mpki}\n{ipc}")
        }
        "fig11-top" => experiments::fig11_top(setup)?.to_string(),
        "fig11-bottom" => experiments::fig11_bottom(setup)?.to_string(),
        "fig12" => experiments::fig12(setup)?.to_string(),
        "fig13" => experiments::fig13(setup)?.to_string(),
        "fig14" => experiments::fig14(setup)?.to_string(),
        "merge-point" => experiments::merge_point(setup)?.to_string(),
        "ablations" => experiments::ablations(setup)?.to_string(),
        "area" => experiments::area_report(),
        other => return Err(unknown_experiment(other)),
    })
}

/// Runs the setup's workloads under Mini Branch Runahead with telemetry
/// enabled and writes every exporter's output into `dir`:
/// `trace.json` (Chrome trace viewer), `samples.jsonl` / `samples.csv`
/// (interval samples), `events.jsonl` (the event ring), and
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
    let jobs: Vec<br_sim::SimJob> = setup
        .workloads
        .clone()
        .iter()
        .flat_map(|w| setup.jobs(&SimConfig::mini_br(), w))
        .collect();
    let results = run_jobs(&jobs, setup.threads)?;
    let runs: Vec<(String, TelemetryRun)> = jobs
        .iter()
        .zip(results)
        .filter_map(|(job, r)| r.telemetry.map(|t| (job.label(), t)))
        .collect();
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let files: [(&str, String); 5] = [
        ("trace.json", export::chrome_trace(&runs)),
        ("samples.jsonl", export::samples_jsonl(&runs)),
        ("samples.csv", export::samples_csv(&runs)),
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
    let jobs: Vec<br_sim::SimJob> = setup
        .workloads
        .clone()
        .iter()
        .flat_map(|w| setup.jobs(&SimConfig::mini_br(), w))
        .collect();
    br_sim::run_soak(&jobs, spec, schedules, setup.threads)
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

    #[test]
    fn json_carries_timing() {
        let setup = ExperimentSetup::quick();
        let out = run_experiment_json("table1", &setup).unwrap();
        assert!(out.contains("\"seconds\": "), "missing timing: {out}");
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
        for f in [run_experiment, run_experiment_json] {
            let err = f("fig99", &ExperimentSetup::quick()).unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");
            assert!(err.to_string().contains("fig99"), "{err}");
            assert!(err.to_string().contains("fig10"), "lists known: {err}");
        }
    }
}
