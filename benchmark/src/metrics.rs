//! End-to-end and per-layer metrics computed from a [`Run`], and the JSON
//! result line.

use br_bench::EXPERIMENTS;
use br_core::PredictionCategory;
use br_sim::RunResult;

use crate::run::{Pass, Run};
use crate::trace::Layers;
use crate::workload::Config;

/// One named measurement.
#[derive(Debug)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, unique within a run.
    pub name: String,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Fastest of `v`; 0 for no samples. Host time on a shared machine only
/// ever gets slower than the code's own speed, and it does so in bursts of
/// about a second, so the fastest of samples taken throughout a run tracks
/// that speed where a median follows the bursts.
fn fastest(v: impl IntoIterator<Item = f64>) -> f64 {
    v.into_iter().reduce(f64::min).unwrap_or(0.0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn untraced(run: &Run) -> impl Iterator<Item = &Pass> + Clone {
    run.passes.iter().filter(|p| !p.traced)
}

fn traced(run: &Run) -> impl Iterator<Item = &Pass> + Clone {
    run.passes.iter().filter(|p| p.traced)
}

/// Host seconds of each job's cycle loop: the fastest over `passes`.
fn job_seconds<'a>(passes: impl Iterator<Item = &'a Pass> + Clone) -> Vec<f64> {
    let jobs = passes.clone().next().map_or(0, |p| p.jobs.len());
    (0..jobs)
        .map(|i| {
            fastest(
                passes
                    .clone()
                    .filter_map(|p| p.jobs[i].as_ref().map(|j| j.sim_s)),
            )
        })
        .collect()
}

/// Host seconds of each unit of the sweep (an experiment on one kernel):
/// the fastest over `passes`.
fn experiment_seconds<'a>(
    passes: impl Iterator<Item = &'a Pass> + Clone,
) -> Vec<(&'static str, f64)> {
    let first = passes.clone().next();
    first
        .iter()
        .flat_map(|p| &p.experiments)
        .enumerate()
        .map(|(i, (name, _))| (*name, fastest(passes.clone().map(|p| p.experiments[i].1))))
        .collect()
}

/// Metrics a user of the simulator sees, from the untraced passes.
#[must_use]
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let first = untraced(run).next();
    let job_s = job_seconds(untraced(run));
    let sweep_s: f64 = experiment_seconds(untraced(run))
        .iter()
        .map(|(_, s)| s)
        .sum();
    // The measured phase: the sweep where there is one, else the jobs.
    let wall_s = if sweep_s > 0.0 {
        sweep_s
    } else {
        job_s.iter().sum()
    };
    // Geometric mean over jobs of retired kilo-uops per host second.
    let (mut log_sum, mut timed) = (0.0, 0);
    let (mut retired, mut cycles, mut mispredicts) = (0, 0, 0);
    for (job, seconds) in first.iter().flat_map(|p| &p.jobs).zip(&job_s) {
        if let Some(job) = job {
            let core = &job.result.core;
            log_sum += (core.retired_uops as f64 / 1000.0 / seconds).ln();
            timed += 1;
            retired += core.retired_uops;
            cycles += core.cycles;
            mispredicts += core.mispredicts;
        }
    }
    let sim_kips = if timed == 0 {
        0.0
    } else {
        (log_sum / f64::from(timed)).exp()
    };
    vec![
        metric("wall_s", "s", wall_s),
        metric("setup_s", "s", fastest(run.setup_s.iter().copied())),
        metric("sim_kips", "kuop/s", sim_kips),
        metric("peak_rss_mib", "MiB", peak_rss_mib()),
        metric("sim_ipc", "uop/cycle", ratio(retired as f64, cycles as f64)),
        metric(
            "sim_mpki",
            "misp/kuop",
            ratio(mispredicts as f64 * 1000.0, retired as f64),
        ),
    ]
}

/// Simulated event counts behind the per-layer ratios.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    cycles: u64,
    retired: u64,
    fetched: u64,
    squashed: u64,
    core_requests: u64,
    dce_requests: u64,
    l1_hits: u64,
    l1_misses: u64,
    l2_hits: u64,
    l2_misses: u64,
    /// Retired conditional branches of runs with Branch Runahead.
    br_branches: u64,
    dce_uops: u64,
    initiated: u64,
    flushed: u64,
    extraction_attempts: u64,
    extraction_rejects: u64,
    covered: u64,
    correct: u64,
    late: u64,
    incorrect: u64,
}

impl Counts {
    fn add(&mut self, r: &RunResult) {
        self.cycles += r.core.cycles;
        self.retired += r.core.retired_uops;
        self.fetched += r.core.fetched_uops;
        self.squashed += r.core.squashed_uops;
        self.core_requests += r.mem.core_requests;
        self.dce_requests += r.mem.dce_requests;
        self.l1_hits += r.mem.l1.hits;
        self.l1_misses += r.mem.l1.misses;
        self.l2_hits += r.mem.l2.hits;
        self.l2_misses += r.mem.l2.misses;
        if let Some(br) = &r.br {
            let category = |c| br.prediction_breakdown.get(&c).copied().unwrap_or(0);
            self.br_branches += r.core.retired_branches;
            self.dce_uops += br.dce_uops;
            self.initiated += br.instances_initiated;
            self.flushed += br.instances_flushed;
            self.extraction_attempts += br.extraction_attempts;
            self.extraction_rejects += br.extraction_rejects;
            self.covered += br.covered_branch_retires;
            self.correct += category(PredictionCategory::Correct);
            self.late += category(PredictionCategory::Late);
            self.incorrect += category(PredictionCategory::Incorrect);
        }
    }
}

/// Host nanoseconds per simulated cycle of each timed layer.
fn ns_per_cycle(name_suffix: &str, l: &Layers) -> Vec<Metric> {
    let cycles = l.cycles as f64;
    let per_cycle = |ns: u64| ratio(ns as f64, cycles);
    [
        ("sim.loop_other_ns_per_cycle", l.loop_other_ns()),
        ("mem.tick_ns_per_cycle", l.mem_ns),
        ("ooo.tick_self_ns_per_cycle", l.ooo_self_ns()),
        ("predictor.ns_per_cycle", l.predictor_ns),
        ("core.dce_tick_ns_per_cycle", l.dce_tick_ns),
        ("core.retire_hooks_ns_per_cycle", l.retire_hooks_ns),
        ("core.mispredict_hook_ns_per_cycle", l.mispredict_hook_ns),
        ("core.fetch_hooks_ns_per_cycle", l.fetch_hooks_ns),
    ]
    .into_iter()
    .map(|(name, ns)| metric(format!("{name}{name_suffix}"), "ns/cycle", per_cycle(ns)))
    .collect()
}

/// Metrics of single layers, from the traced passes. Every workload
/// reports every name; a layer the workload does not run reads 0.
#[must_use]
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let mut total = (Layers::default(), Counts::default());
    let mut by_config = Config::ALL.map(|c| (c, Layers::default()));
    for job in traced(run).flat_map(|p| p.jobs.iter().flatten()) {
        let layers = job.layers.unwrap_or_default();
        total.0 += layers;
        total.1.add(&job.result);
        if let Some((_, l)) = by_config.iter_mut().find(|(c, _)| *c == job.config) {
            *l += layers;
        }
    }
    let (l, c) = total;
    let f = |n: u64| n as f64;

    let mut out = vec![
        metric(
            "workloads.build_s",
            "s",
            fastest(traced(run).map(|p| p.build_s)),
        ),
        metric(
            "sim.construct_s",
            "s",
            fastest(traced(run).map(Pass::construct_s)),
        ),
    ];
    let units = experiment_seconds(traced(run));
    for name in EXPERIMENTS {
        let seconds = units
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, s)| s)
            .sum();
        out.push(metric(format!("sim.experiment_s.{name}"), "s", seconds));
    }
    let untraced_s: f64 = job_seconds(untraced(run)).iter().sum();
    let traced_s: f64 = job_seconds(traced(run)).iter().sum();
    out.extend([
        metric(
            "trace_overhead_pct",
            "%",
            (ratio(traced_s, untraced_s) - 1.0) * 100.0,
        ),
        metric(
            "mem.requests_per_kcycle",
            "req/kcycle",
            ratio(f(c.core_requests + c.dce_requests) * 1000.0, f(c.cycles)),
        ),
        metric(
            "mem.dce_request_share",
            "ratio",
            ratio(f(c.dce_requests), f(c.core_requests + c.dce_requests)),
        ),
        metric(
            "mem.l1_miss_rate",
            "ratio",
            ratio(f(c.l1_misses), f(c.l1_hits + c.l1_misses)),
        ),
        metric(
            "mem.l2_miss_rate",
            "ratio",
            ratio(f(c.l2_misses), f(c.l2_hits + c.l2_misses)),
        ),
        metric(
            "ooo.fetched_per_retired",
            "uop/uop",
            ratio(f(c.fetched), f(c.retired)),
        ),
        metric(
            "ooo.squashed_per_kuop",
            "uop/kuop",
            ratio(f(c.squashed) * 1000.0, f(c.retired)),
        ),
        metric(
            "predictor.calls_per_kcycle",
            "call/kcycle",
            ratio(f(l.predictor_calls) * 1000.0, f(l.cycles)),
        ),
        metric(
            "core.dce_live_instances_avg",
            "instances",
            ratio(f(l.live_instance_cycles), f(l.br_cycles)),
        ),
        metric(
            "core.dce_ns_per_live_instance",
            "ns/instance",
            ratio(f(l.dce_tick_ns), f(l.live_instance_cycles)),
        ),
        metric(
            "core.dce_uops_per_kcycle",
            "uop/kcycle",
            ratio(f(c.dce_uops) * 1000.0, f(l.br_cycles)),
        ),
        metric(
            "core.correct_per_dce_kuop",
            "pred/kuop",
            ratio(f(c.correct) * 1000.0, f(c.dce_uops)),
        ),
        metric(
            "core.instances_flushed_share",
            "ratio",
            ratio(f(c.flushed), f(c.initiated)),
        ),
        metric(
            "core.extraction_reject_share",
            "ratio",
            ratio(f(c.extraction_rejects), f(c.extraction_attempts)),
        ),
        metric(
            "core.coverage",
            "ratio",
            ratio(f(c.covered), f(c.br_branches)),
        ),
        metric("core.late_share", "ratio", ratio(f(c.late), f(c.covered))),
        metric(
            "core.incorrect_share",
            "ratio",
            ratio(f(c.incorrect), f(c.covered)),
        ),
    ]);
    out.extend(ns_per_cycle("", &l));
    for (config, layers) in &by_config {
        out.extend(ns_per_cycle(&format!(".{}", config.label()), layers));
    }
    out
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`.
#[must_use]
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}
