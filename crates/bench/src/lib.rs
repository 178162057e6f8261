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
//! * the **telemetry bench** (`cargo bench -p br-bench`) times the
//!   telemetry overhead: the disabled facade and a full simulation with
//!   sampling and event tracing on.
//!
//! Simulator performance end to end and per layer is measured by the
//! stand-alone benchmark in `benchmark/` at the repository root.
//!
//! The experiment logic itself lives in [`br_sim::experiments`]; this
//! crate only drives it.

#![warn(missing_docs)]

use br_sim::experiments::{self, ExperimentSetup};
use br_sim::SimError;

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
