//! The benchmark's workloads: which kernels run under which configurations,
//! built from `ExperimentSetup::quick()` with the seed the caller passes.

use br_sim::experiments::ExperimentSetup;
use br_sim::{SimConfig, SimJob};

/// Retired-uop budget of the `figures-quick` sweep. Figure 13 never runs
/// shorter regions than this, so every experiment runs the same budget.
pub const FIGURES_RETIRED: u64 = 10_000;

/// Number of recorded `figures-quick` goldens that ordinary seeds share;
/// the seed selects one.
pub const GOLDEN_VARIANTS: u64 = 8;

/// The seed held out for later claims: no run tuned the benchmark on it.
/// On `figures-quick` it selects a golden of its own, whose input no other
/// seed shares.
pub const HELD_OUT_SEED: u64 = 4242;

/// Retired-uop budget of each `h2p-br` region.
pub const H2P_RETIRED: u64 = 30_000;

/// SimPoint-style regions per `h2p-br` kernel. Two builds of each kernel
/// average out part of the host-time spread that one seed's data adds.
pub const H2P_REGIONS: usize = 2;

/// The Table 2 configurations, plus the baseline they are compared with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Config {
    /// 64 KB TAGE-SC-L, no Branch Runahead.
    Base,
    /// Core-Only Branch Runahead.
    CoreOnly,
    /// Mini Branch Runahead.
    Mini,
    /// Big Branch Runahead.
    Big,
}

impl Config {
    /// Every configuration, baseline first.
    pub const ALL: [Config; 4] = [Config::Base, Config::CoreOnly, Config::Mini, Config::Big];

    /// Suffix of the per-configuration metric names.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Config::Base => "base",
            Config::CoreOnly => "core-only",
            Config::Mini => "mini",
            Config::Big => "big",
        }
    }

    fn sim_config(self) -> SimConfig {
        match self {
            Config::Base => SimConfig::baseline(),
            Config::CoreOnly => SimConfig::core_only_br(),
            Config::Mini => SimConfig::mini_br(),
            Config::Big => SimConfig::big_br(),
        }
    }
}

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Hard-to-predict kernels under every Table 2 configuration.
    H2pBr,
    /// Kernels under the baseline only: core, predictor and memory.
    Baseline,
    /// Every experiment of `figures --quick all`, checked against a golden.
    FiguresQuick,
}

/// Spreads a small seed over all 64 bits; seed 0 keeps the quick setup's
/// own kernel seed.
fn mix(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::H2pBr, Workload::Baseline, Workload::FiguresQuick];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::H2pBr => "h2p-br",
            Workload::Baseline => "baseline",
            Workload::FiguresQuick => "figures-quick",
        }
    }

    /// Resolves a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The quick setup this workload runs, with kernels seeded from `seed`.
    /// `figures-quick` maps the seed onto one of its recorded goldens.
    #[must_use]
    pub fn setup(self, seed: u64) -> ExperimentSetup {
        let mut setup = ExperimentSetup::quick();
        let kernels: &[&str] = match self {
            Workload::H2pBr => {
                setup.max_retired = H2P_RETIRED;
                setup = setup.with_regions(H2P_REGIONS);
                &["leela_17", "mcf_06", "xz_17"]
            }
            Workload::Baseline => &["mcf_06", "sssp", "omnetpp_06", "gobmk_06"],
            Workload::FiguresQuick => {
                setup.params.seed ^= mix(self.input(seed));
                setup.max_retired = FIGURES_RETIRED;
                return setup;
            }
        };
        setup.params.seed ^= mix(seed);
        setup.workloads = kernels.iter().map(|k| (*k).to_string()).collect();
        setup
    }

    /// The input `seed` selects: the seed itself, except on `figures-quick`,
    /// where it is the golden variant the run is checked against.
    #[must_use]
    pub fn input(self, seed: u64) -> u64 {
        match self {
            Workload::FiguresQuick if seed != HELD_OUT_SEED => seed % GOLDEN_VARIANTS,
            _ => seed,
        }
    }

    fn configs(self) -> &'static [Config] {
        match self {
            Workload::Baseline => &[Config::Base],
            Workload::H2pBr | Workload::FiguresQuick => &Config::ALL,
        }
    }

    /// The simulation jobs of `setup`, image by image (kernel, then
    /// region), each image's baseline job first. On `figures-quick` these
    /// are the sweep's kernels under the Table 2 configurations; they give
    /// the sweep its simulated statistics, which `run_experiment` does not
    /// expose.
    #[must_use]
    pub fn jobs(self, setup: &ExperimentSetup) -> Vec<(Config, SimJob)> {
        let mut jobs = Vec::new();
        for kernel in &setup.workloads {
            for region in 0..setup.regions.len() {
                for c in self.configs() {
                    let job = setup.jobs(&c.sim_config(), kernel).swap_remove(region);
                    jobs.push((*c, job));
                }
            }
        }
        jobs
    }
}
