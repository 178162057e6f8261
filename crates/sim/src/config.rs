//! Simulation configurations (paper Tables 1 and 2).

use br_core::BranchRunaheadConfig;
use br_mem::MemoryConfig;
use br_ooo::CoreConfig;
use br_predictor::{ConditionalPredictor, TageScl, TageSclConfig};
use br_telemetry::TelemetryConfig;

/// Which baseline predictor the core uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredictorKind {
    /// 64 KB TAGE-SC-L (the paper's baseline, Table 1).
    TageScl64,
    /// 80 KB TAGE-SC-L (Figure 10's iso-storage comparison).
    TageScl80,
    /// MTAGE-SC analogue with unlimited storage (Figures 1 and 11).
    MtageUnlimited,
}

impl PredictorKind {
    /// Every predictor the paper evaluates.
    pub const ALL: [PredictorKind; 3] = [
        PredictorKind::TageScl64,
        PredictorKind::TageScl80,
        PredictorKind::MtageUnlimited,
    ];

    /// Instantiates the predictor.
    #[must_use]
    pub fn build(self) -> Box<dyn ConditionalPredictor> {
        match self {
            PredictorKind::TageScl64 => Box::new(TageScl::new(TageSclConfig::kb64())),
            PredictorKind::TageScl80 => Box::new(TageScl::new(TageSclConfig::kb80())),
            PredictorKind::MtageUnlimited => Box::new(TageScl::new(TageSclConfig::unlimited())),
        }
    }

    /// Display name.
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            PredictorKind::TageScl64 => "tage-sc-l-64kb",
            PredictorKind::TageScl80 => "tage-sc-l-80kb",
            PredictorKind::MtageUnlimited => "mtage-unlimited",
        }
    }
}

/// A complete system configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Core parameters (Table 1 defaults).
    pub core: CoreConfig,
    /// Memory hierarchy parameters (Table 1 defaults).
    pub memory: MemoryConfig,
    /// Baseline predictor.
    pub predictor: PredictorKind,
    /// Branch Runahead; `None` = baseline system.
    pub runahead: Option<BranchRunaheadConfig>,
    /// Retired-uop budget per run (the SimPoint-region analogue; the paper
    /// runs 200 M instructions per region, this reproduction defaults to
    /// a proportionally scaled-down region).
    pub max_retired: u64,
    /// Hard cycle cap (safety net).
    pub max_cycles: u64,
    /// Telemetry collection (disabled by default; when enabled the run
    /// produces a [`crate::RunResult::telemetry`] record).
    pub telemetry: TelemetryConfig,
    /// Run periodic machine-check invariant sweeps over the Branch
    /// Runahead structures; a violation aborts the run with
    /// [`crate::SimError::InvariantViolation`]. Off by default (it costs
    /// a full structure walk per sweep); always on in soak runs.
    pub machine_check: bool,
    /// Fault-injection schedule (see [`crate::faults`]); `None` = clean
    /// run.
    pub faults: Option<crate::faults::FaultSpec>,
}

impl SimConfig {
    /// Baseline: Table 1 core + 64 KB TAGE-SC-L, no Branch Runahead.
    #[must_use]
    pub fn baseline() -> Self {
        SimConfig {
            core: CoreConfig::default(),
            memory: MemoryConfig::default(),
            predictor: PredictorKind::TageScl64,
            runahead: None,
            max_retired: 400_000,
            max_cycles: 40_000_000,
            telemetry: TelemetryConfig::default(),
            machine_check: false,
            faults: None,
        }
    }

    /// Baseline core with the 80 KB TAGE-SC-L (Figure 10's leftmost bar).
    #[must_use]
    pub fn tage80() -> Self {
        SimConfig {
            predictor: PredictorKind::TageScl80,
            ..Self::baseline()
        }
    }

    /// Baseline core with the unlimited MTAGE-SC analogue.
    #[must_use]
    pub fn mtage() -> Self {
        SimConfig {
            predictor: PredictorKind::MtageUnlimited,
            ..Self::baseline()
        }
    }

    /// Core-Only Branch Runahead (9 KB, Table 2).
    #[must_use]
    pub fn core_only_br() -> Self {
        SimConfig {
            runahead: Some(BranchRunaheadConfig::core_only()),
            ..Self::baseline()
        }
    }

    /// Mini Branch Runahead (17 KB, Table 2).
    #[must_use]
    pub fn mini_br() -> Self {
        SimConfig {
            runahead: Some(BranchRunaheadConfig::mini()),
            ..Self::baseline()
        }
    }

    /// Big Branch Runahead (unlimited, Table 2).
    #[must_use]
    pub fn big_br() -> Self {
        SimConfig {
            runahead: Some(BranchRunaheadConfig::big()),
            ..Self::baseline()
        }
    }

    /// MTAGE + Big Branch Runahead (Figure 11 top, right bar).
    #[must_use]
    pub(crate) fn mtage_plus_big_br() -> Self {
        SimConfig {
            predictor: PredictorKind::MtageUnlimited,
            runahead: Some(BranchRunaheadConfig::big()),
            ..Self::baseline()
        }
    }

    /// Renders Table 1 (baseline configuration).
    #[must_use]
    pub(crate) fn render_table1(&self) -> String {
        let c = &self.core;
        let m = &self.memory;
        format!(
            "Table 1: Baseline Configuration\n\
             Core      | {}-wide issue, {}-entry ROB, {}-entry RS, {} ALUs,\n\
             \x20         | frontend depth {}, redirect latency {}, {} predictor\n\
             WPB       | managed by Branch Runahead (Table 2)\n\
             L1 Caches | {} KB D-cache, {} B lines, {} ports, {}-cycle hit, {}-way, write-back\n\
             L2 Cache  | {} MB {}-way, {}-cycle latency, write-back\n\
             MemQueue  | {}-entry memory queue\n\
             Prefetcher| stream: 64 streams, distance 16, into L2\n\
             DRAM      | {} banks, {} KB rows, tCAS/tRCD/tRP = {}/{}/{} cycles",
            c.issue_width,
            c.rob_entries,
            c.rs_entries,
            c.num_alus,
            c.frontend_depth,
            c.redirect_latency,
            self.predictor.name(),
            m.l1.size_bytes / 1024,
            m.l1.line_bytes,
            c.load_ports,
            m.l1_hit_latency,
            m.l1.ways,
            m.l2.size_bytes / 1024 / 1024,
            m.l2.ways,
            m.l2_hit_latency,
            m.dram.queue_capacity,
            m.dram.banks,
            (1u64 << m.dram.row_log2) / 1024,
            m.dram.t_cas,
            m.dram.t_rcd,
            m.dram.t_rp,
        )
    }
}

/// Renders Table 2 (the three Branch Runahead configurations).
#[must_use]
pub(crate) fn render_table2() -> String {
    let cfgs = [
        BranchRunaheadConfig::core_only(),
        BranchRunaheadConfig::mini(),
        BranchRunaheadConfig::big(),
    ];
    let mut s = String::from(
        "Table 2: Branch Runahead Configuration\n\
         field            | core-only | mini | big\n",
    );
    let row = |name: &str, f: &dyn Fn(&BranchRunaheadConfig) -> String| {
        format!(
            "{:<17}| {:>9} | {:>4} | {}\n",
            name,
            f(&cfgs[0]),
            f(&cfgs[1]),
            f(&cfgs[2])
        )
    };
    s += &row("chain cache", &|c| c.chain_cache_entries.to_string());
    s += &row("window (RF+RS)", &|c| c.window_instances.to_string());
    s += &row("dedicated ALUs", &|c| c.dce_alus.to_string());
    s += &row("MSHRs", &|c| c.dce_mshrs.to_string());
    s += &row("pred queues", &|c| {
        format!("{}x{}", c.num_queues, c.queue_entries)
    });
    s += &row("HBT", &|c| c.hbt_entries.to_string());
    s += &row("CEB", &|c| c.ceb_entries.to_string());
    s += &row("max chain len", &|c| c.max_chain_len.to_string());
    s += &row("storage (KiB)", &|c| format!("{:.1}", c.storage_kib()));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_construct() {
        for cfg in [
            SimConfig::baseline(),
            SimConfig::tage80(),
            SimConfig::mtage(),
            SimConfig::core_only_br(),
            SimConfig::mini_br(),
            SimConfig::big_br(),
            SimConfig::mtage_plus_big_br(),
        ] {
            assert_eq!(cfg.core.validate(), Ok(()));
            let _ = cfg.predictor.build();
        }
    }

    /// `PredictorKind` is the one predictor name table: each kind's
    /// display name is the name of the predictor it builds.
    #[test]
    fn every_kind_builds_the_predictor_it_names() {
        for kind in PredictorKind::ALL {
            assert_eq!(kind.build().name(), kind.name(), "{kind:?}");
        }
    }

    #[test]
    fn tables_render() {
        let t1 = SimConfig::baseline().render_table1();
        assert!(t1.contains("256-entry ROB"));
        assert!(t1.contains("92-entry RS"));
        let t2 = render_table2();
        assert!(t2.contains("core-only"));
        assert!(t2.contains("1024"));
    }
}
