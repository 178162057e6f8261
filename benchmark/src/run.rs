//! Measurement passes and the output checks made on them.

use std::sync::Arc;
use std::time::Instant;

use br_bench::{run_experiment, EXPERIMENTS};
use br_sim::experiments::ExperimentSetup;
use br_sim::{RunResult, SimConfig, SimError, SimJob, System};
use br_workloads::{WorkloadImage, WorkloadParams};

use crate::trace::{run_traced, Layers};
use crate::workload::{Config, Workload};

/// Set-up repetitions before the first pass. More follow during the run,
/// so that set-up is sampled throughout it.
const SETUP_REPS: usize = 3;

/// Output checks. A unit is one simulation job or one rendered experiment;
/// it fails when any of its checks fails.
#[derive(Debug, Default)]
pub struct Checks {
    /// Units checked.
    pub attempted: u64,
    /// Units with at least one failed check.
    pub failed: u64,
}

impl Checks {
    /// Records one unit; `problems` lists its failed checks.
    pub fn unit(&mut self, label: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("check failed: {label}: {p}");
            }
        }
    }
}

/// The simulated statistics every run of one job must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Signature {
    cycles: u64,
    retired: u64,
    mispredicts: u64,
    fingerprint: u64,
    dce_uops: Option<u64>,
}

impl Signature {
    fn of(r: &RunResult) -> Self {
        Signature {
            cycles: r.core.cycles,
            retired: r.core.retired_uops,
            mispredicts: r.core.mispredicts,
            fingerprint: r.core.retire_fingerprint,
            dce_uops: r.br.as_ref().map(|b| b.dce_uops),
        }
    }

    /// The signature as the fields of a recorded line; `-` where the job
    /// has no DCE.
    fn fields(&self) -> String {
        let dce = self.dce_uops.map_or("-".to_string(), |u| u.to_string());
        format!(
            "{} {} {} {:016x} {dce}",
            self.cycles, self.retired, self.mispredicts, self.fingerprint
        )
    }

    fn parse(fields: &[&str]) -> Option<Self> {
        let [cycles, retired, mispredicts, fingerprint, dce] = fields else {
            return None;
        };
        Some(Signature {
            cycles: cycles.parse().ok()?,
            retired: retired.parse().ok()?,
            mispredicts: mispredicts.parse().ok()?,
            fingerprint: u64::from_str_radix(fingerprint, 16).ok()?,
            dce_uops: match *dce {
                "-" => None,
                n => Some(n.parse().ok()?),
            },
        })
    }
}

/// Path of the recorded signatures of `workload`'s jobs.
fn signatures_path(workload: Workload) -> String {
    format!(
        "{}/golden/signatures-{}.txt",
        env!("CARGO_MANIFEST_DIR"),
        workload.name()
    )
}

/// The recorded signatures of `workload`'s jobs for `seed`, in job order,
/// or an empty list when the seed's input was not recorded. A line reads
/// `<input> <job index> <job label> <cycles> <retired> <mispredicts>
/// <fingerprint> <dce uops>`.
///
/// # Errors
///
/// A missing file, a malformed line, or an input recorded for another
/// number of jobs than the workload runs.
pub fn recorded_signatures(workload: Workload, seed: u64) -> Result<Vec<Signature>, String> {
    let path = signatures_path(workload);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let key = workload.input(seed).to_string();
    let recorded = text
        .lines()
        .filter(|line| line.split_whitespace().next() == Some(key.as_str()))
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            fields
                .get(3..)
                .and_then(Signature::parse)
                .ok_or_else(|| format!("{path}: malformed line {line:?}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let jobs = workload.jobs(&workload.setup(seed)).len();
    if !recorded.is_empty() && recorded.len() != jobs {
        return Err(format!(
            "{path}: {} lines for input {key}, but {jobs} jobs",
            recorded.len()
        ));
    }
    Ok(recorded)
}

/// The lines [`recorded_signatures`] reads for `workload` on `seed`: one
/// `SimJob::try_execute` per job.
///
/// # Errors
///
/// The first job's error.
pub fn signature_lines(workload: Workload, seed: u64) -> Result<String, SimError> {
    let input = workload.input(seed);
    let mut out = String::new();
    for (i, (_, job)) in workload.jobs(&workload.setup(seed)).iter().enumerate() {
        let image = job.build_image()?;
        let result = job.try_execute(&image)?;
        let fields = Signature::of(&result).fields();
        out.push_str(&format!("{input} {i} {} {fields}\n", job.label()));
    }
    Ok(out)
}

/// One job of one pass.
pub struct JobRun {
    /// The configuration the job ran.
    pub config: Config,
    /// Its simulated statistics.
    pub result: RunResult,
    /// Host seconds of the cycle loop.
    pub sim_s: f64,
    /// Host seconds constructing the system.
    pub construct_s: f64,
    /// Host time by layer (traced passes only).
    pub layers: Option<Layers>,
}

/// One pass over a workload.
#[derive(Default)]
pub struct Pass {
    /// Whether the jobs ran through the traced loop.
    pub traced: bool,
    /// Host seconds building the jobs' workload images.
    pub build_s: f64,
    /// Per job in job order; `None` where the job failed.
    pub jobs: Vec<Option<JobRun>>,
    /// Host seconds per experiment and kernel of the sweep, in sweep order
    /// (`figures-quick` only).
    pub experiments: Vec<(&'static str, f64)>,
}

impl Pass {
    /// Host seconds constructing the jobs' systems.
    #[must_use]
    pub fn construct_s(&self) -> f64 {
        self.jobs.iter().flatten().map(|j| j.construct_s).sum()
    }
}

/// Everything one benchmark run measured.
#[derive(Default)]
pub struct Run {
    /// Host seconds of each set-up repetition, taken before the first
    /// pass, before every pass, and after each kernel of a sweep.
    pub setup_s: Vec<f64>,
    /// Measured passes; traced passes alternate with untraced ones.
    pub passes: Vec<Pass>,
    /// Output checks over all passes.
    pub checks: Checks,
}

/// `figures-quick` expected output: the sweep's sections, in order.
#[derive(Debug, Default)]
pub struct Golden {
    sections: Vec<String>,
}

impl Golden {
    /// Path of the golden for `variant`.
    #[must_use]
    pub fn path(variant: u64) -> String {
        format!(
            "{}/golden/figures-quick-v{variant}.txt",
            env!("CARGO_MANIFEST_DIR")
        )
    }

    /// Loads the golden for `variant`; a missing file yields an empty
    /// golden, against which every experiment fails its check.
    #[must_use]
    pub fn load(variant: u64) -> Self {
        let path = Self::path(variant);
        match std::fs::read_to_string(&path) {
            Ok(text) => Self::parse(&text),
            Err(e) => {
                eprintln!("no golden at {path}: {e}");
                Golden::default()
            }
        }
    }

    /// Splits sweep text at its `=== name ===` header lines.
    #[must_use]
    pub fn parse(text: &str) -> Self {
        let mut sections: Vec<String> = Vec::new();
        for line in text.split_inclusive('\n') {
            if line.starts_with("=== ") && line.ends_with(" ===\n") {
                sections.push(String::new());
            }
            if let Some(section) = sections.last_mut() {
                section.push_str(line);
            }
        }
        Golden { sections }
    }

    /// Section `i`, its header line included.
    #[must_use]
    pub fn section(&self, i: usize) -> Option<&str> {
        self.sections.get(i).map(String::as_str)
    }
}

/// One experiment's output as `figures` prints it.
fn render_section(name: &str, out: &str) -> String {
    format!("=== {name} ===\n{out}\n")
}

/// The sweep, kernel by kernel: every experiment of `figures all` on a
/// one-kernel copy of `setup`, for each of its kernels. Timing a kernel's
/// experiment rather than all kernels' keeps each sample short.
fn sweep_units(setup: &ExperimentSetup) -> Vec<(&'static str, ExperimentSetup)> {
    setup
        .workloads
        .iter()
        .flat_map(|kernel| {
            let one = ExperimentSetup {
                workloads: vec![kernel.clone()],
                ..setup.clone()
            };
            EXPERIMENTS.iter().map(move |name| (*name, one.clone()))
        })
        .collect()
}

/// Renders the sweep as `figures <setup> --workloads <kernel> all` prints
/// it to stdout, kernel after kernel.
///
/// # Errors
///
/// The first experiment's error.
pub fn render_sweep(setup: &ExperimentSetup) -> Result<String, SimError> {
    sweep_units(setup)
        .iter()
        .map(|(name, one)| run_experiment(name, one).map(|out| render_section(name, &out)))
        .collect()
}

/// Renders one experiment, checks it against `want`, and returns the host
/// seconds it took.
fn experiment(
    name: &'static str,
    setup: &ExperimentSetup,
    want: Option<&str>,
    checks: &mut Checks,
) -> f64 {
    let started = Instant::now();
    let out = run_experiment(name, setup);
    let seconds = started.elapsed().as_secs_f64();
    let problems = match out {
        Err(e) => vec![e.to_string()],
        Ok(out) if want != Some(render_section(name, &out).as_str()) => {
            vec!["output differs from its golden".to_string()]
        }
        Ok(_) => Vec::new(),
    };
    checks.unit(
        &format!("{name} on {}", setup.workloads.join(",")),
        &problems,
    );
    seconds
}

/// The configuration `SimJob::try_execute` runs.
fn job_config(job: &SimJob) -> SimConfig {
    let mut cfg = job.config.clone();
    cfg.max_retired = job.max_retired;
    cfg
}

/// `job`'s workload image: the cached one when the previous job used the
/// same, else a fresh build, timed into `build_s`.
fn image_for(
    cache: &mut Option<((String, WorkloadParams), Arc<WorkloadImage>)>,
    job: &SimJob,
    build_s: &mut f64,
) -> Arc<WorkloadImage> {
    let key = job.image_key();
    if let Some((cached, image)) = cache.as_ref() {
        if *cached == key {
            return Arc::clone(image);
        }
    }
    let started = Instant::now();
    let image = job
        .build_image()
        .expect("benchmark kernels are registered workloads");
    *build_s += started.elapsed().as_secs_f64();
    *cache = Some((key, Arc::clone(&image)));
    image
}

/// Host seconds to build every image and construct every system of `jobs`.
fn time_setup(jobs: &[(Config, SimJob)]) -> f64 {
    let started = Instant::now();
    let mut cache = None;
    let mut build_s = 0.0;
    for (_, job) in jobs {
        let image = image_for(&mut cache, job, &mut build_s);
        std::hint::black_box(System::new(job_config(job), &image));
    }
    started.elapsed().as_secs_f64()
}

/// Runs every job once, traced or not, and checks each against the
/// baseline job on the same image and against `reference`: the recorded
/// signatures, or else the first pass.
fn job_pass(
    jobs: &[(Config, SimJob)],
    pass: &mut Pass,
    reference: &mut Vec<Option<Signature>>,
    checks: &mut Checks,
) {
    let mut cache = None;
    let mut base_fingerprint = None;
    for (i, (config, job)) in jobs.iter().enumerate() {
        let image = image_for(&mut cache, job, &mut pass.build_s);
        let run = if pass.traced {
            let t = run_traced(job, &image);
            Ok(JobRun {
                config: *config,
                result: t.result,
                sim_s: t.layers.loop_ns as f64 * 1e-9,
                construct_s: t.construct_s,
                layers: Some(t.layers),
            })
        } else {
            let started = Instant::now();
            let mut system = System::new(job_config(job), &image);
            let construct_s = started.elapsed().as_secs_f64();
            let started = Instant::now();
            system.try_run().map(|result| JobRun {
                config: *config,
                result,
                sim_s: started.elapsed().as_secs_f64(),
                construct_s,
                layers: None,
            })
        };
        let mut problems = Vec::new();
        let signature = match &run {
            Ok(r) => Some(Signature::of(&r.result)),
            Err(e) => {
                problems.push(e.to_string());
                None
            }
        };
        if *config == Config::Base {
            base_fingerprint = signature.map(|s| s.fingerprint);
        }
        if let Some(sig) = signature {
            if sig.retired != job.max_retired {
                problems.push(format!(
                    "retired {} of {} uops",
                    sig.retired, job.max_retired
                ));
            }
            if base_fingerprint.is_some_and(|fp| fp != sig.fingerprint) {
                problems.push("retire fingerprint differs from the baseline job's".into());
            }
            if let Some(Some(want)) = reference.get(i) {
                if *want != sig {
                    problems.push(format!(
                        "{} run gives {sig:?}, expected {want:?}",
                        if pass.traced { "traced" } else { "untraced" }
                    ));
                }
            }
        }
        if reference.len() == i {
            reference.push(signature);
        }
        checks.unit(&job.label(), &problems);
        pass.jobs.push(run.ok());
    }
}

/// Runs `workload` with kernels seeded from `seed` for at least `seconds`
/// of measured passes. With `trace`, passes alternate untraced and traced,
/// ending on a traced one.
///
/// Every job is checked against its recorded signature when the seed's
/// input was recorded, else against the first pass.
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Run {
    let golden =
        (workload == Workload::FiguresQuick).then(|| Golden::load(workload.input(seed)));
    let recorded = recorded_signatures(workload, seed);
    if recorded.as_ref().is_ok_and(Vec::is_empty) {
        eprintln!("seed {seed} has no recorded signatures; passes are checked against the first");
    }
    let mut run = run_setup(
        workload,
        &workload.setup(seed),
        golden.as_ref(),
        recorded.as_deref().unwrap_or_default(),
        seconds,
        trace,
    );
    if let Err(e) = recorded {
        run.checks.unit("recorded signatures", &[e]);
    }
    run
}

/// [`run`] on an explicit setup (tests shrink its budget), with the
/// signatures its jobs must give, or none.
#[must_use]
pub fn run_setup(
    workload: Workload,
    setup: &ExperimentSetup,
    golden: Option<&Golden>,
    recorded: &[Signature],
    seconds: f64,
    trace: bool,
) -> Run {
    let jobs = workload.jobs(setup);
    let units = if golden.is_some() {
        sweep_units(setup)
    } else {
        Vec::new()
    };
    let mut run = Run {
        setup_s: (0..SETUP_REPS).map(|_| time_setup(&jobs)).collect(),
        ..Run::default()
    };
    let mut reference: Vec<Option<Signature>> = recorded.iter().copied().map(Some).collect();
    let started = Instant::now();
    loop {
        let mut pass = Pass {
            traced: trace && run.passes.len() % 2 == 1,
            ..Pass::default()
        };
        run.setup_s.push(time_setup(&jobs));
        for (i, (name, one)) in units.iter().enumerate() {
            let want = golden.and_then(|g| g.section(i));
            pass.experiments
                .push((name, experiment(name, one, want, &mut run.checks)));
            if (i + 1) % EXPERIMENTS.len() == 0 {
                run.setup_s.push(time_setup(&jobs));
            }
        }
        job_pass(&jobs, &mut pass, &mut reference, &mut run.checks);
        run.passes.push(pass);
        let paired = !trace || run.passes.len().is_multiple_of(2);
        if paired && started.elapsed().as_secs_f64() >= seconds {
            return run;
        }
    }
}
