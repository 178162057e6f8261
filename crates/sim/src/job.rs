//! The unit of schedulable simulation work.
//!
//! A [`SimJob`] bundles everything one simulation run needs — the system
//! configuration, the workload name, the region's seed salt and SimPoint
//! weight, and the retired-uop budget — into a self-contained value that
//! is `Send` and independently executable. Experiments *enumerate* jobs up front
//! and hand them to a runner (sequential or the sharded thread pool in
//! [`crate::runner`]); they never interleave enumeration with execution,
//! which is what makes the parallel and sequential paths bit-identical.

use std::sync::Arc;

use br_workloads::{all_workloads, workload_by_name, Workload, WorkloadImage, WorkloadParams};

use crate::config::SimConfig;
use crate::system::{RunResult, System};

/// Errors from experiment setup or execution.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A workload name did not match any registered kernel.
    UnknownWorkload {
        /// The name that failed to resolve.
        name: String,
        /// Every valid workload name, for the error message.
        valid: Vec<&'static str>,
    },
    /// A worker thread panicked while executing a job. The runner converts
    /// the panic into this error so the caller learns *which* job died
    /// instead of seeing a bare thread-join abort.
    JobPanicked {
        /// [`SimJob::label`] of the failing job.
        job: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The machine-check layer caught a structural invariant violation
    /// mid-run (see `crate::faults`): the simulated hardware state became
    /// inconsistent, so the run's results cannot be trusted.
    InvariantViolation {
        /// [`SimJob::label`] of the failing job (the system itself only
        /// knows its config name; the runner patches in the full label).
        job: String,
        /// Cycle of the failing invariant sweep.
        cycle: u64,
        /// Which invariant broke, and how.
        what: String,
    },
    /// A fault-injected run broke the prediction-as-hint contract: its
    /// retired instruction stream diverged from the fault-free reference
    /// run. Seeds depend only on the job and the schedule index, so the
    /// same soak command restricted to the job's workload replays it.
    FaultedRun {
        /// [`SimJob::label`] of the failing job.
        job: String,
        /// Seed of the fault schedule that exposed the divergence.
        fault_seed: u64,
        /// How the run diverged.
        what: String,
    },
    /// A user-supplied option (CLI flag, fault spec, experiment name) did
    /// not parse or referred to something that does not exist.
    InvalidConfig(String),
    /// A filesystem operation failed. Stores the rendered OS error
    /// (`std::io::Error` is neither `Clone` nor `Eq`).
    Io {
        /// Path the operation targeted.
        path: String,
        /// The rendered I/O error.
        message: String,
    },
}

impl SimError {
    /// Stable snake_case discriminant name, used as the `kind` field of
    /// machine-readable failure reports.
    #[must_use]
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            SimError::UnknownWorkload { .. } => "unknown_workload",
            SimError::JobPanicked { .. } => "job_panicked",
            SimError::InvariantViolation { .. } => "invariant_violation",
            SimError::FaultedRun { .. } => "faulted_run",
            SimError::InvalidConfig(_) => "invalid_config",
            SimError::Io { .. } => "io",
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnknownWorkload { name, valid } => {
                write!(
                    f,
                    "unknown workload {name:?}; valid names: {}",
                    valid.join(", ")
                )
            }
            SimError::JobPanicked { job, message } => {
                write!(f, "job {job} panicked: {message}")
            }
            SimError::InvariantViolation { job, cycle, what } => {
                write!(
                    f,
                    "job {job}: machine check failed at cycle {cycle}: {what}"
                )
            }
            SimError::FaultedRun {
                job,
                fault_seed,
                what,
            } => {
                write!(
                    f,
                    "job {job} under fault seed {fault_seed}: {what} (replay: rerun \
                     the same soak command with --workloads <this job's workload>)"
                )
            }
            SimError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            SimError::Io { path, message } => write!(f, "io error on {path}: {message}"),
        }
    }
}

impl std::error::Error for SimError {}

/// One independently executable simulation: a configuration, a workload
/// region, and a budget. The SimPoint `weight` rides along so the caller
/// can aggregate region results without tracking a side table.
#[derive(Clone, Debug)]
pub struct SimJob {
    /// The full system configuration (its `max_retired` is overridden by
    /// [`SimJob::max_retired`] at execution time).
    pub config: SimConfig,
    /// Registered workload name (e.g. `"leela_17"`).
    pub workload: String,
    /// Base build parameters; [`SimJob::region_seed`] salts the seed.
    pub params: WorkloadParams,
    /// Region index/salt: region `k` rebuilds the kernel with a seed
    /// derived from `params.seed` and `k` (the SimPoint analogue).
    pub region_seed: u64,
    /// SimPoint weight of this region in the workload's aggregate.
    pub weight: f64,
    /// Retired-uop budget for this run.
    pub max_retired: u64,
}

impl SimJob {
    /// The build parameters for this job's region: the base parameters
    /// with the seed salted by the region index.
    #[must_use]
    pub(crate) fn effective_params(&self) -> WorkloadParams {
        WorkloadParams {
            seed: self.params.seed ^ (self.region_seed.wrapping_mul(0x9E37_79B9)),
            ..self.params
        }
    }

    /// Resolves the workload, or reports the valid names.
    pub(crate) fn resolve(&self) -> Result<Box<dyn Workload>, SimError> {
        workload_by_name(&self.workload).ok_or_else(|| SimError::UnknownWorkload {
            name: self.workload.clone(),
            valid: all_workloads().iter().map(|w| w.name()).collect(),
        })
    }

    /// Builds this job's workload image. Runners that execute many jobs
    /// should build each distinct `(workload, params)` image once and
    /// share it via [`SimJob::try_execute`] instead.
    pub fn build_image(&self) -> Result<Arc<WorkloadImage>, SimError> {
        Ok(Arc::new(self.resolve()?.build(&self.effective_params())))
    }

    /// Executes the job against an already built image (the image must
    /// match `SimJob::effective_params`), surfacing an
    /// invalid core, memory or Branch Runahead configuration as
    /// [`SimError::InvalidConfig`] and machine-check violations as
    /// [`SimError::InvariantViolation`], both with this job's label.
    pub fn try_execute(&self, image: &WorkloadImage) -> Result<RunResult, SimError> {
        self.config
            .core
            .validate()
            .and_then(|()| self.config.memory.validate())
            .and_then(|()| self.config.runahead.map_or(Ok(()), |rc| rc.validate()))
            .map_err(|what| SimError::InvalidConfig(format!("job {}: {what}", self.label())))?;
        let mut cfg = self.config.clone();
        cfg.max_retired = self.max_retired;
        System::new(cfg, image).try_run().map_err(|e| match e {
            SimError::InvariantViolation { cycle, what, .. } => SimError::InvariantViolation {
                job: self.label(),
                cycle,
                what,
            },
            other => other,
        })
    }

    /// Builds and runs the job in one step.
    pub fn run(&self) -> Result<RunResult, SimError> {
        let image = self.build_image()?;
        self.try_execute(&image)
    }

    /// A short human-readable identity for logs and panic reports, e.g.
    /// `"tage-sc-l-64kb+br-mini/leela_17/r2"`.
    #[must_use]
    pub fn label(&self) -> String {
        let predictor = self.config.predictor.name();
        match &self.config.runahead {
            Some(rc) => format!(
                "{predictor}+br-{}/{}/r{}",
                rc.name, self.workload, self.region_seed
            ),
            None => format!("{predictor}/{}/r{}", self.workload, self.region_seed),
        }
    }

    /// The cache key identifying this job's workload image: distinct keys
    /// build distinct images, equal keys may share one.
    #[must_use]
    pub fn image_key(&self) -> (String, WorkloadParams) {
        (self.workload.clone(), self.effective_params())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(workload: &str) -> SimJob {
        SimJob {
            config: SimConfig::baseline(),
            workload: workload.into(),
            params: WorkloadParams {
                scale: 512,
                iterations: 1_000_000,
                seed: 7,
            },
            region_seed: 0,
            weight: 1.0,
            max_retired: 5_000,
        }
    }

    #[test]
    fn job_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SimJob>();
        assert_send::<System>();
    }

    #[test]
    fn unknown_workload_lists_valid_names() {
        let err = job("no_such_kernel").run().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("no_such_kernel"));
        assert!(msg.contains("leela_17"), "must list valid names: {msg}");
    }

    #[test]
    fn job_runs_independently() {
        let r = job("leela_17").run().unwrap();
        assert!(r.core.retired_uops >= 5_000);
    }

    #[test]
    fn region_seed_salts_params() {
        let mut j = job("leela_17");
        let base = j.effective_params();
        j.region_seed = 1;
        assert_ne!(base.seed, j.effective_params().seed);
        assert_eq!(base.scale, j.effective_params().scale);
    }

    #[test]
    fn label_is_human_readable() {
        let mut j = job("leela_17");
        j.region_seed = 2;
        assert_eq!(j.label(), "tage-sc-l-64kb/leela_17/r2");
        j.config = SimConfig::mini_br();
        assert_eq!(j.label(), "tage-sc-l-64kb+br-mini/leela_17/r2");
    }

    /// Runs a leela_17 job with `edit` applied to its config and returns
    /// the message of the [`SimError::InvalidConfig`] it must fail with.
    fn invalid(edit: impl FnOnce(&mut SimConfig)) -> String {
        let mut j = job("leela_17");
        edit(&mut j.config);
        let image = j.build_image().unwrap();
        match j.try_execute(&image).map(|_| ()) {
            Err(SimError::InvalidConfig(what)) => what,
            other => panic!("expected an invalid configuration, got {other:?}"),
        }
    }

    #[test]
    fn zero_l1_size_is_invalid_config() {
        assert!(invalid(|c| c.memory.l1.size_bytes = 0).contains("L1"));
    }

    #[test]
    fn zero_l1_ways_is_invalid_config() {
        assert!(invalid(|c| c.memory.l1.ways = 0).contains("L1"));
    }

    #[test]
    fn non_power_of_two_l1_sets_is_invalid_config() {
        assert!(invalid(|c| c.memory.l1.ways = 3).contains("power-of-two"));
    }

    #[test]
    fn uneven_l1_size_is_invalid_config() {
        assert!(invalid(|c| c.memory.l1.size_bytes = 32 * 1024 + 64).contains("L1"));
    }

    #[test]
    fn too_small_l2_is_invalid_config() {
        assert!(invalid(|c| c.memory.l2.size_bytes = 1000).contains("L2"));
    }
}
