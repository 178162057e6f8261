//! The paper's evaluation (§5) as data: one registry entry per table or
//! figure, with the `(configuration, budget)` specs it runs on each
//! workload and a pure render of the runs (rows are workloads, the
//! summary row reproduces the paper's mean). Absolute values differ from
//! the paper; the *shape* is the reproduction target (see
//! `EXPERIMENTS.md`).
//!
//! [`run`] unions the requested experiments' specs, simulates each
//! distinct one once as [`SimJob`]s (one per SimPoint region) on
//! [`ExperimentSetup::threads`] workers, and hands every renderer its runs
//! by reference, so output is bit-identical for any thread count and any
//! set of requested experiments.

use br_core::{BrStats, BranchRunaheadConfig, InitiationMode, PredictionCategory};
use br_energy::{AreaBreakdown, EnergyModel};
use br_telemetry::export::escape_json;
use br_telemetry::{TelemetryConfig, TelemetryRun};
use br_workloads::{all_workloads, WorkloadParams};

use crate::config::{render_table2, SimConfig};
use crate::job::{SimError, SimJob};
use crate::runner::{aggregate, run_jobs};
use crate::system::RunResult;
use crate::table::ExpTable;
use crate::table::MeanKind::{self, Arithmetic, GeometricPct};

/// Shared experiment parameters.
#[derive(Clone, Debug)]
pub struct ExperimentSetup {
    /// Workload build parameters.
    pub params: WorkloadParams,
    /// Retired-uop budget per run.
    pub max_retired: u64,
    /// Workload names to include (defaults to all 18).
    pub workloads: Vec<String>,
    /// SimPoint-style regions: `(seed, weight)` pairs. The paper runs
    /// one to five representative regions per benchmark and reports the
    /// weighted average; each region here is the kernel rebuilt with a
    /// different seed. Default: a single full-weight region.
    pub regions: Vec<(u64, f64)>,
    /// Worker threads for job execution: `1` = sequential (the default),
    /// `0` = one per available CPU, `n` = exactly `n`.
    pub threads: usize,
    /// Telemetry collection, stamped onto every enumerated job's
    /// configuration (disabled by default).
    pub telemetry: TelemetryConfig,
}

impl Default for ExperimentSetup {
    fn default() -> Self {
        ExperimentSetup {
            params: WorkloadParams::default(),
            max_retired: 400_000,
            workloads: all_workloads()
                .iter()
                .map(|w| w.name().to_string())
                .collect(),
            regions: vec![(0, 1.0)],
            threads: 1,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl ExperimentSetup {
    /// A reduced setup for fast smoke runs and CI.
    #[must_use]
    pub fn quick() -> Self {
        ExperimentSetup {
            params: WorkloadParams {
                scale: 1024,
                iterations: 1_000_000,
                seed: 0xfeed_beef,
            },
            max_retired: 60_000,
            workloads: vec![
                "leela_17".into(),
                "mcf_06".into(),
                "bfs".into(),
                "sssp".into(),
            ],
            regions: vec![(0, 1.0)],
            threads: 1,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// Replaces the region list with `k` regions of decaying SimPoint
    /// weight (`1, 1/2, …, 1/k`) — region `i` rebuilds the kernel with a
    /// seed salted by `i`. `k == 0` is clamped to one region.
    #[must_use]
    pub fn with_regions(mut self, k: usize) -> Self {
        self.regions = (0..k.max(1))
            .map(|i| (i as u64, 1.0 / (i + 1) as f64))
            .collect();
        self
    }

    /// Enumerates the jobs for one `(configuration, workload)` pair: one
    /// per region, carrying the region's weight.
    #[must_use]
    pub fn jobs(&self, cfg: &SimConfig, workload: &str) -> Vec<SimJob> {
        let mut config = cfg.clone();
        config.telemetry = self.telemetry;
        self.regions
            .iter()
            .map(|(salt, weight)| SimJob {
                config: config.clone(),
                workload: workload.to_string(),
                params: self.params,
                region_seed: *salt,
                weight: *weight,
                max_retired: self.max_retired,
            })
            .collect()
    }

    /// Runs a batch of specs and returns one aggregated result per spec,
    /// in spec order, and each job's telemetry in job order (empty with
    /// telemetry off). All regions of all specs execute as one job batch,
    /// so parallelism spans the whole campaign.
    fn run_specs(&self, specs: &[Spec]) -> Result<(Vec<RunResult>, Vec<Labelled>), SimError> {
        assert!(!self.regions.is_empty(), "need at least one region");
        let mut jobs = Vec::with_capacity(specs.len() * self.regions.len());
        for (cfg, workload, budget) in specs {
            for mut job in self.jobs(cfg, workload) {
                job.max_retired = *budget;
                jobs.push(job);
            }
        }
        let mut results = run_jobs(&jobs, self.threads)?;
        // Taken before `aggregate`, which keeps only the heaviest region.
        let mut telemetry: Vec<Labelled> = jobs
            .iter()
            .zip(&mut results)
            .filter_map(|(job, r)| r.telemetry.take().map(|t| (job.label(), t)))
            .collect();
        // Distinct specs can share a label (fig13's Mini sweep points), so
        // a repeat is numbered: `<label>#2`, `<label>#3`, ...
        let mut seen = std::collections::HashMap::new();
        for (label, _) in &mut telemetry {
            let n = seen.entry(label.clone()).or_insert(0_usize);
            *n += 1;
            if *n > 1 {
                label.push_str(&format!("#{n}"));
            }
        }
        let mut iter = results.into_iter();
        let results = specs
            .iter()
            .map(|_| {
                let runs: Vec<(f64, RunResult)> = self
                    .regions
                    .iter()
                    .map(|(_, w)| (*w, iter.next().expect("runner returns one result per job")))
                    .collect();
                aggregate(runs)
            })
            .collect();
        Ok((results, telemetry))
    }

    /// Runs one workload under one configuration. With multiple regions,
    /// scalar statistics are combined as the weighted average (the
    /// paper's SimPoint methodology); structural results (chains, branch
    /// sites, breakdowns) come from the heaviest region's run. The result
    /// carries no telemetry; a [`Campaign`] does.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownWorkload`] when `workload` is not registered;
    /// the error lists every valid name.
    pub fn run(&self, cfg: SimConfig, workload: &str) -> Result<RunResult, SimError> {
        Ok(self
            .run_specs(&[(cfg, workload, self.max_retired)])?
            .0
            .pop()
            .expect("one spec yields one result"))
    }
}

/// One simulation: a configuration on a workload with a retired-uop
/// budget. Equal specs are the same simulation.
type Spec<'a> = (SimConfig, &'a str, u64);

/// One job's telemetry under its campaign-unique label.
type Labelled = (String, TelemetryRun);

/// The `(configuration, budget)` pairs an experiment runs on every
/// workload, in the order its renderer reads them.
type Specs = fn(&ExperimentSetup) -> Vec<(SimConfig, u64)>;

/// An experiment's runs as its renderer sees them: per workload, its
/// name and the runs of the experiment's specs.
type Grid<'a> = [(&'a str, Vec<&'a RunResult>)];

/// A table with one row per workload: title, series, summary mean, and
/// the row computed from the workload's runs.
type Rows = (&'static str, &'static [&'static str], MeanKind, Row);
type Row = fn(&[&RunResult]) -> Vec<f64>;

/// How an experiment produces its output.
enum Render {
    /// A static report; nothing is simulated.
    Text(fn() -> String),
    /// Per-workload tables over the runs of the specs.
    Rows(Specs, &'static [Rows]),
    /// One table over the whole grid of the specs' runs.
    Table(Specs, fn(&Grid) -> ExpTable),
}

/// A registry entry: the experiment's name and how it renders.
struct Experiment(&'static str, Render);

/// Every experiment of the paper's evaluation, in `figures all` order.
#[rustfmt::skip]
const REGISTRY: &[Experiment] = &[
    Experiment("table1", Render::Text(|| SimConfig::baseline().render_table1())),
    Experiment("table2", Render::Text(render_table2)),
    Experiment("fig1", Render::Rows(
        |s| full(s, &[SimConfig::baseline, SimConfig::mtage, SimConfig::big_br]),
        &[("Figure 1: misprediction rate of the hardest branches (%)",
           &["tage-sc-l-64kb", "mtage-unlimited", "dep-chains"], Arithmetic, hardest_branch_rates)],
    )),
    Experiment("fig2", Render::Rows(
        |s| full(s, &[SimConfig::mini_br]),
        &[("Figure 2: average dependence chain length (uops)",
           &["chain-length"], Arithmetic, |runs| vec![mini_stats(runs).avg_chain_len()])],
    )),
    Experiment("fig3", Render::Rows(
        |s| full(s, &[SimConfig::baseline, SimConfig::mini_br]),
        &[("Figure 3: extra micro-ops issued due to Branch Runahead (%)",
           &["net-uops", "net-load-uops", "dce-overhead"], Arithmetic, extra_uops)],
    )),
    Experiment("fig5", Render::Rows(
        |s| full(s, &[SimConfig::mini_br]),
        &[("Figure 5: chains with affectors or guards (%)",
           &["with-ag"], Arithmetic, |runs| vec![mini_stats(runs).ag_fraction() * 100.0])],
    )),
    Experiment("fig10", Render::Rows(
        |s| full(s, &[SimConfig::baseline, SimConfig::tage80, SimConfig::core_only_br,
                      SimConfig::mini_br, SimConfig::big_br]),
        &[("Figure 10 (top): relative MPKI improvement (%)", FIG10, Arithmetic, mpki_gain),
          ("Figure 10 (bottom): relative IPC improvement (%)", FIG10, GeometricPct, ipc_gain)],
    )),
    Experiment("fig11-top", Render::Rows(
        |s| full(s, &[SimConfig::baseline, SimConfig::mtage, SimConfig::big_br,
                      SimConfig::mtage_plus_big_br]),
        &[("Figure 11 (top): MPKI improvement over 64KB TAGE-SC-L (%)",
           &["mtage", "big-br", "mtage+big-br"], Arithmetic, mpki_gain)],
    )),
    Experiment("fig11-bottom", Render::Rows(
        |s| full(s, &[SimConfig::baseline,
                      || mini_with(|rc| rc.initiation = InitiationMode::NonSpeculative),
                      || mini_with(|rc| rc.initiation = InitiationMode::IndependentEarly),
                      || mini_with(|rc| rc.initiation = InitiationMode::Predictive)]),
        &[("Figure 11 (bottom): MPKI improvement by initiation policy (%)",
           &["non-speculative", "independent-early", "predictive"], Arithmetic, mpki_gain)],
    )),
    Experiment("fig12", Render::Rows(
        |s| full(s, &[SimConfig::mini_br]),
        &[("Figure 12: prediction breakdown for covered branches (%)",
           &["inactive", "late", "throttled", "incorrect", "correct"], Arithmetic, breakdown)],
    )),
    Experiment("fig13", Render::Table(fig13_specs, fig13)),
    Experiment("fig14", Render::Rows(
        |s| full(s, &[SimConfig::baseline, SimConfig::core_only_br, SimConfig::mini_br,
                      SimConfig::big_br]),
        &[("Figure 14: energy change vs baseline (%) — lower is better",
           &["core-only", "mini", "big"], Arithmetic, energy_change)],
    )),
    Experiment("merge-point", Render::Rows(
        |s| full(s, &[SimConfig::mini_br]),
        &[("Merge-point prediction accuracy (%) [paper: WPB 92% vs prior-work 78%]",
           &["wpb", "static-heuristic", "validated"], Arithmetic, merge_accuracy)],
    )),
    // Design-choice ablations (DESIGN.md §5): Mini versus (a) in-order
    // intra-chain scheduling — §4.2 reports it "was not able to expose
    // enough MLP" — and (b) disabled affector/guard detection — "we
    // demonstrate the importance of accurately identifying affector and
    // guard dependencies".
    Experiment("ablations", Render::Rows(
        |s| full(s, &[SimConfig::baseline, SimConfig::mini_br,
                      || mini_with(|rc| rc.dce_in_order = true),
                      || mini_with(|rc| rc.enable_affector_guards = false)]),
        &[("Ablations: MPKI improvement over baseline (%)",
           &["mini", "mini-inorder-dce", "mini-no-ag"], Arithmetic, mpki_gain)],
    )),
    Experiment("area", Render::Text(area_report)),
];

/// Every experiment name, in registry (and `figures all`) order.
pub const EXPERIMENTS: &[&str] = &{
    let mut names = [""; REGISTRY.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = REGISTRY[i].0;
        i += 1;
    }
    names
};

/// One experiment's rendered result.
#[derive(Clone, Debug)]
pub enum Output {
    /// Result tables (Figure 10 has two: MPKI and IPC).
    Tables(Vec<ExpTable>),
    /// A static report (Tables 1 and 2, the area model).
    Text(String),
}

impl Output {
    /// The result tables; none for a static report.
    #[must_use]
    pub fn tables(&self) -> &[ExpTable] {
        match self {
            Output::Tables(tables) => tables,
            Output::Text(_) => &[],
        }
    }

    /// The human-readable rendering.
    #[must_use]
    pub fn text(&self) -> String {
        match self {
            Output::Tables(tables) => {
                let tables: Vec<String> = tables.iter().map(ExpTable::to_string).collect();
                tables.join("\n")
            }
            Output::Text(text) => text.clone(),
        }
    }

    /// One JSON object: `{"name", "tables": [...]}` (each table as
    /// [`ExpTable::to_json`]) or `{"name", "text"}`.
    #[must_use]
    pub fn to_json(&self, name: &str) -> String {
        let body = match self {
            Output::Tables(tables) => {
                let tables: Vec<String> = tables.iter().map(ExpTable::to_json).collect();
                format!("\"tables\": [{}]", tables.join(", "))
            }
            Output::Text(text) => format!("\"text\": \"{}\"", escape_json(text)),
        };
        format!("{{\"name\": \"{}\", {body}}}", escape_json(name))
    }
}

/// The outputs of one [`run`], in request order, with its job counts.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Each requested experiment's name and output.
    pub outputs: Vec<(&'static str, Output)>,
    /// Jobs the experiments asked for (specs × regions), with duplicates.
    pub jobs: usize,
    /// Jobs simulated: the distinct specs × regions.
    pub unique_jobs: usize,
    /// Each simulated job's telemetry, in plan order, under its
    /// [`SimJob::label`] plus `#n` on the label's `n`th use (empty unless
    /// [`ExperimentSetup::telemetry`] is enabled).
    pub telemetry: Vec<(String, TelemetryRun)>,
}

/// A campaign before execution: each requested experiment with its spec
/// count and, workload by workload, its specs' indices in `unique` (the
/// distinct specs in order of first request); and the specs requested.
struct Plan<'a> {
    experiments: Vec<(&'static Experiment, usize, Vec<usize>)>,
    unique: Vec<Spec<'a>>,
    requested: usize,
}

/// Resolves `names` and unions their specs over `setup`'s workloads.
fn plan<'a>(names: &[&str], setup: &'a ExperimentSetup) -> Result<Plan<'a>, SimError> {
    let mut plan = Plan {
        experiments: Vec::new(),
        unique: Vec::new(),
        requested: 0,
    };
    for name in names {
        let experiment = REGISTRY.iter().find(|e| e.0 == *name).ok_or_else(|| {
            SimError::InvalidConfig(format!(
                "unknown experiment {name:?}; known: {EXPERIMENTS:?}"
            ))
        })?;
        let specs = match experiment.1 {
            Render::Text(_) => Vec::new(),
            Render::Rows(specs, _) | Render::Table(specs, _) => specs(setup),
        };
        let mut slots = Vec::with_capacity(setup.workloads.len() * specs.len());
        for workload in &setup.workloads {
            for (config, budget) in &specs {
                let spec = (config.clone(), workload.as_str(), *budget);
                let unique = &mut plan.unique;
                slots.push(unique.iter().position(|u| *u == spec).unwrap_or_else(|| {
                    unique.push(spec);
                    unique.len() - 1
                }));
            }
        }
        plan.requested += slots.len();
        plan.experiments.push((experiment, specs.len(), slots));
    }
    Ok(plan)
}

/// Runs the named experiments as one campaign: each distinct spec they
/// need is simulated once, and every experiment renders from the shared
/// results. Nothing is cached across calls.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for an unknown experiment name (listing
/// [`EXPERIMENTS`]), and any [`SimError`] from the simulations, e.g. an
/// unknown workload name in the setup.
pub fn run(names: &[&str], setup: &ExperimentSetup) -> Result<Campaign, SimError> {
    let plan = plan(names, setup)?;
    let (results, telemetry) = setup.run_specs(&plan.unique)?;
    let outputs = plan
        .experiments
        .iter()
        .map(|(experiment, specs, slots)| {
            let grid: Vec<(&str, Vec<&RunResult>)> = setup
                .workloads
                .iter()
                .zip(slots.chunks((*specs).max(1)))
                .map(|(w, row)| (w.as_str(), row.iter().map(|&i| &results[i]).collect()))
                .collect();
            let output = match &experiment.1 {
                Render::Text(text) => Output::Text(text()),
                Render::Rows(_, tables) => {
                    Output::Tables(tables.iter().map(|t| per_workload(&grid, t)).collect())
                }
                Render::Table(_, table) => Output::Tables(vec![table(&grid)]),
            };
            (experiment.0, output)
        })
        .collect();
    let regions = setup.regions.len();
    Ok(Campaign {
        outputs,
        jobs: plan.requested * regions,
        unique_jobs: plan.unique.len() * regions,
        telemetry,
    })
}

/// Renders a [`Rows`] table over the grid.
fn per_workload(grid: &Grid, (title, series, mean, row): &Rows) -> ExpTable {
    let series = series.iter().map(|s| (*s).to_string()).collect();
    let mut t = ExpTable::new(*title, series, *mean);
    for (w, runs) in grid {
        t.push_row(*w, row(runs));
    }
    t
}

/// `configs` at the setup's full budget.
fn full(setup: &ExperimentSetup, configs: &[fn() -> SimConfig]) -> Vec<(SimConfig, u64)> {
    configs.iter().map(|c| (c(), setup.max_retired)).collect()
}

/// Mini Branch Runahead with some of its knobs changed.
fn mini_with(change: impl FnOnce(&mut BranchRunaheadConfig)) -> SimConfig {
    let mut cfg = SimConfig::mini_br();
    if let Some(rc) = &mut cfg.runahead {
        change(rc);
    }
    cfg
}

/// MPKI improvement (%) of `runs[1..]` over `runs[0]`.
fn mpki_gain(runs: &[&RunResult]) -> Vec<f64> {
    let base = runs[0];
    runs[1..]
        .iter()
        .map(|r| r.mpki_improvement_pct(base))
        .collect()
}

/// IPC improvement (%) of `runs[1..]` over `runs[0]`.
fn ipc_gain(runs: &[&RunResult]) -> Vec<f64> {
    let base = runs[0];
    runs[1..]
        .iter()
        .map(|r| r.ipc_improvement_pct(base))
        .collect()
}

/// Figure 10's series: 80 KB TAGE-SC-L and the three BR configurations.
const FIG10: &[&str] = &["80kb-tage", "core-only", "mini", "big"];

/// The BR statistics of the one run of a Mini-only experiment.
fn mini_stats<'a>(runs: &[&'a RunResult]) -> &'a BrStats {
    runs[0].br.as_ref().expect("Mini runs Branch Runahead")
}

/// Misprediction rate (%) of each run on the baseline's 32 most
/// mispredicted branches (Figure 1).
fn hardest_branch_rates(runs: &[&RunResult]) -> Vec<f64> {
    let sites: Vec<u64> = runs[0]
        .core
        .hardest_branches(32)
        .into_iter()
        .filter(|(_, s)| s.mispredicted > 0)
        .map(|(pc, _)| pc)
        .collect();
    let rate = |r: &&RunResult| {
        let hits = sites.iter().filter_map(|pc| r.core.branch_sites.get(pc));
        let (exec, misp) = hits.fold((0u64, 0u64), |(e, m), s| {
            (e + s.executed, m + s.mispredicted)
        });
        if exec == 0 {
            0.0
        } else {
            misp as f64 / exec as f64 * 100.0
        }
    };
    runs.iter().map(rate).collect()
}

/// Extra micro-ops issued (%), total and loads, due to Branch Runahead
/// (Figure 3). The net change includes the wrong-path work BR removes (it
/// can be negative); `dce-overhead` is the pure added work the paper's
/// +34.3% mean refers to, relative to retired uops.
fn extra_uops(runs: &[&RunResult]) -> Vec<f64> {
    let (base, with) = (runs[0], runs[1]);
    let br = with.br.as_ref().expect("BR enabled");
    let uops_pct =
        ((with.core.issued_uops + br.dce_uops) as f64 / base.core.issued_uops as f64 - 1.0) * 100.0;
    let loads_pct = ((with.core.issued_loads + br.dce_loads) as f64
        / base.core.issued_loads.max(1) as f64
        - 1.0)
        * 100.0;
    let overhead_pct = br.dce_uops as f64 / with.core.retired_uops.max(1) as f64 * 100.0;
    vec![uops_pct, loads_pct, overhead_pct]
}

/// Figure 12's breakdown (%) of DCE predictions for covered branches.
fn breakdown(runs: &[&RunResult]) -> Vec<f64> {
    let br = mini_stats(runs);
    PredictionCategory::ALL
        .iter()
        .map(|c| br.category_fraction(*c) * 100.0)
        .collect()
}

/// §4.4 merge-point prediction accuracy (%) and the validated count.
fn merge_accuracy(runs: &[&RunResult]) -> Vec<f64> {
    let br = mini_stats(runs);
    vec![
        br.merge_accuracy() * 100.0,
        br.static_merge_accuracy() * 100.0,
        br.merge_validated as f64,
    ]
}

/// Relative energy change (%) of `runs[1..]` over `runs[0]` (Figure 14;
/// negative = saves energy).
fn energy_change(runs: &[&RunResult]) -> Vec<f64> {
    let model = EnergyModel::default();
    let base = runs[0].energy_events();
    runs[1..]
        .iter()
        .map(|r| model.relative_change_pct(&base, &r.energy_events()))
        .collect()
}

/// Figure 13's sweeps from the Mini configuration toward Big: a knob,
/// its values, and how to set it.
type Sweep = (
    &'static str,
    &'static [usize],
    fn(&mut BranchRunaheadConfig, usize),
);

const SWEEPS: &[Sweep] = &[
    ("chain-cache", &[16, 32, 64, 256], |c, v| {
        c.chain_cache_entries = v;
    }),
    ("queue-entries", &[2, 8, 64, 256], |c, v| {
        c.queue_entries = v
    }),
    ("ceb", &[128, 512, 2048], |c, v| c.ceb_entries = v),
    ("window", &[8, 64, 256, 1024], |c, v| c.window_instances = v),
    ("hbt", &[16, 64, 1024], |c, v| c.hbt_entries = v),
    ("max-chain-len", &[8, 16, 32], |c, v| c.max_chain_len = v),
];

/// The baseline, then every sweep point. As in the paper (footnote 16),
/// sweeps run shorter regions than the other experiments.
fn fig13_specs(setup: &ExperimentSetup) -> Vec<(SimConfig, u64)> {
    let budget = (setup.max_retired / 4).max(10_000);
    let points = SWEEPS
        .iter()
        .flat_map(|(_, values, apply)| values.iter().map(move |v| mini_with(|rc| apply(rc, *v))));
    std::iter::once(SimConfig::baseline())
        .chain(points)
        .map(|c| (c, budget))
        .collect()
}

/// Figure 13: rows are `param=value`; the single column is the mean MPKI
/// improvement over the 64 KB baseline across the setup's workloads.
fn fig13(grid: &Grid) -> ExpTable {
    let mut t = ExpTable::new(
        "Figure 13: MPKI improvement across parameter sweeps (%)",
        vec!["mean-mpki-improvement".into()],
        Arithmetic,
    );
    let labels = SWEEPS
        .iter()
        .flat_map(|(name, values, _)| values.iter().map(move |v| format!("{name}={v}")));
    for (i, label) in labels.enumerate() {
        let mean = grid
            .iter()
            .map(|(_, runs)| runs[i + 1].mpki_improvement_pct(runs[0]))
            .sum::<f64>()
            / grid.len() as f64;
        t.push_row(label, vec![mean]);
    }
    t
}

/// §5.2 area report.
#[must_use]
pub(crate) fn area_report() -> String {
    let a = AreaBreakdown::paper_mini();
    format!(
        "Area model (22nm, McPAT-substitute):\n\
         baseline OoO core      {:.2} mm2\n\
         64KB TAGE-SC-L         {:.2} mm2\n\
         DCE chain cache        {:.2} mm2\n\
         DCE exec (FUs/RS/PRF)  {:.2} mm2\n\
         chain extraction + HBT {:.2} mm2\n\
         DCE total              {:.2} mm2 = {:.1}% of core (paper: 2.2%)\n\
         Core-Only adds         {:.1}% of core (paper: 1.4%)",
        a.core_mm2,
        a.tage_mm2,
        a.chain_cache_mm2,
        a.dce_exec_mm2,
        a.extraction_mm2,
        a.dce_mm2(),
        a.dce_fraction() * 100.0,
        a.core_only_fraction() * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_report_contains_paper_numbers() {
        let s = area_report();
        assert!(s.contains("16.96"));
        assert!(s.contains("0.38"));
    }

    #[test]
    fn quick_setup_is_small() {
        let q = ExperimentSetup::quick();
        assert!(q.workloads.len() <= 6);
        assert!(q.max_retired <= 100_000);
        assert_eq!(q.threads, 1, "quick() defaults to sequential");
    }

    #[test]
    fn with_regions_decays_weights() {
        let s = ExperimentSetup::quick().with_regions(3);
        assert_eq!(s.regions, vec![(0, 1.0), (1, 0.5), (2, 1.0 / 3.0)]);
        assert_eq!(ExperimentSetup::quick().with_regions(0).regions.len(), 1);
    }

    #[test]
    fn run_rejects_unknown_workload() {
        let setup = ExperimentSetup::quick();
        let err = setup
            .run(SimConfig::baseline(), "not_a_kernel")
            .unwrap_err();
        assert!(err.to_string().contains("not_a_kernel"));
    }

    #[test]
    fn quick_all_runs_112_unique_jobs_of_208() {
        // Telemetry settings do not change which jobs are the same.
        for enabled in [false, true] {
            let mut setup = ExperimentSetup::quick();
            setup.telemetry.enabled = enabled;
            let plan = plan(EXPERIMENTS, &setup).unwrap();
            assert_eq!((plan.requested, plan.unique.len()), (208, 112));
        }
    }

    #[test]
    fn fig13_runs_17_unique_specs_of_22_per_kernel() {
        let mut setup = ExperimentSetup::quick();
        setup.workloads.truncate(1);
        let plan = plan(&["fig13"], &setup).unwrap();
        assert_eq!((plan.requested, plan.unique.len()), (22, 17));
        // Six sweep points are Mini's own Table 2 values, at the quarter
        // budget.
        let mini = (SimConfig::mini_br(), setup.max_retired / 4);
        let specs = fig13_specs(&setup);
        assert_eq!(specs.iter().filter(|s| **s == mini).count(), 6);
    }

    #[test]
    fn jobs_enumerate_regions() {
        let setup = ExperimentSetup::quick().with_regions(3);
        let jobs = setup.jobs(&SimConfig::baseline(), "bfs");
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[2].region_seed, 2);
        assert!((jobs[1].weight - 0.5).abs() < 1e-12);
        // Each job names its own region.
        assert_ne!(jobs[0].label(), jobs[1].label());
    }
}
