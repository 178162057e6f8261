//! # br-energy — analytic energy and area models
//!
//! The paper models chip energy and area with McPAT at a 22 nm process
//! (§5.1, Figure 14, and the §5.2 area paragraph). McPAT is a large C++
//! framework that is not available here; this crate substitutes an
//! *event-energy* model of the same shape:
//!
//! * total energy = Σ (event count × per-event energy) + leakage × time,
//! * the DCE adds both new structures (static + dynamic power) and extra
//!   executed uops / memory accesses (Figure 3), while reduced run time
//!   cuts the leakage term — reproducing Figure 14's "faster run time
//!   usually wins" trade-off,
//! * area = Σ per-structure areas, calibrated so the baseline core is
//!   16.96 mm² and the DCE ≈ 0.38 mm² ≈ 2.2% (the McPAT numbers the
//!   paper reports), with the same chain-cache / execution / extraction
//!   breakdown.
//!
//! Absolute joules are not meaningful — only the *relative* energy change
//! between baseline and Branch Runahead runs, which is what Figure 14
//! plots.

#![warn(missing_docs)]

/// Event counts for one simulation run, filled from simulator statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct EnergyEvents {
    /// Cycles simulated.
    pub cycles: u64,
    /// Uops issued by the core (including wrong path).
    pub core_uops: u64,
    /// L1 data accesses.
    pub l1_accesses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// Branch predictor lookups (≈ fetched branches).
    pub predictor_lookups: u64,
    /// Uops executed by the DCE.
    pub dce_uops: u64,
    /// DCE memory accesses.
    pub dce_loads: u64,
    /// Chain extractions performed.
    pub chain_extractions: u64,
    /// Whether the Branch Runahead structures are present (their leakage
    /// applies whenever present, used or not).
    pub br_present: bool,
}

/// Per-event energies in picojoules and leakage in mW-equivalents.
/// Values are in the range of published 22 nm estimates; only ratios
/// matter for Figure 14.
#[derive(Clone, Copy, Debug)]
pub struct EnergyModel {
    /// Energy per core uop (schedule + execute + bypass), pJ.
    pub(crate) core_uop_pj: f64,
    /// Energy per L1 access, pJ.
    pub(crate) l1_pj: f64,
    /// Energy per L2 access, pJ.
    pub(crate) l2_pj: f64,
    /// Energy per DRAM access, pJ.
    pub(crate) dram_pj: f64,
    /// Energy per predictor lookup, pJ.
    pub(crate) predictor_pj: f64,
    /// Energy per DCE uop (narrower datapath, banked register file), pJ.
    pub(crate) dce_uop_pj: f64,
    /// Energy per chain extraction (CEB scan), pJ.
    pub(crate) extraction_pj: f64,
    /// Core + caches leakage per cycle, pJ.
    pub(crate) core_leak_pj_per_cycle: f64,
    /// Branch Runahead structures' leakage per cycle, pJ.
    pub(crate) br_leak_pj_per_cycle: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            core_uop_pj: 18.0,
            l1_pj: 12.0,
            l2_pj: 50.0,
            dram_pj: 1800.0,
            predictor_pj: 6.0,
            // The DCE datapath is far simpler than the core's (§2.3):
            // no decode, no ROB, single-ported banked register files.
            dce_uop_pj: 7.0,
            extraction_pj: 400.0,
            core_leak_pj_per_cycle: 55.0,
            // 2.2% of core area → proportional leakage.
            br_leak_pj_per_cycle: 1.3,
        }
    }
}

impl EnergyModel {
    /// Total energy for a run, in microjoules.
    #[must_use]
    pub(crate) fn total_uj(&self, e: &EnergyEvents) -> f64 {
        let dynamic = e.core_uops as f64 * self.core_uop_pj
            + e.l1_accesses as f64 * self.l1_pj
            + e.l2_accesses as f64 * self.l2_pj
            + e.dram_accesses as f64 * self.dram_pj
            + e.predictor_lookups as f64 * self.predictor_pj
            + e.dce_uops as f64 * self.dce_uop_pj
            + e.dce_loads as f64 * self.l1_pj
            + e.chain_extractions as f64 * self.extraction_pj;
        let leak_rate = self.core_leak_pj_per_cycle
            + if e.br_present {
                self.br_leak_pj_per_cycle
            } else {
                0.0
            };
        (dynamic + e.cycles as f64 * leak_rate) / 1e6
    }

    /// Relative energy change of `with` versus `base` in percent
    /// (negative = Branch Runahead saves energy), Figure 14's metric.
    #[must_use]
    pub fn relative_change_pct(&self, base: &EnergyEvents, with: &EnergyEvents) -> f64 {
        let b = self.total_uj(base);
        let w = self.total_uj(with);
        if b == 0.0 {
            0.0
        } else {
            (w - b) / b * 100.0
        }
    }
}

/// Area of one structure in mm² at the paper's 22 nm process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AreaBreakdown {
    /// Baseline out-of-order core (§5.2: 16.96 mm²).
    pub core_mm2: f64,
    /// 64 KB TAGE-SC-L (§5.2 footnote 17: 0.73 mm²).
    pub tage_mm2: f64,
    /// Dependence chain cache (0.09 mm²).
    pub chain_cache_mm2: f64,
    /// DCE functional units + reservation stations + registers (0.15 mm²).
    pub dce_exec_mm2: f64,
    /// Chain extraction + HBT (0.14 mm²).
    pub extraction_mm2: f64,
}

impl AreaBreakdown {
    /// The paper's reported numbers for the Mini configuration.
    #[must_use]
    pub fn paper_mini() -> Self {
        AreaBreakdown {
            core_mm2: 16.96,
            tage_mm2: 0.73,
            chain_cache_mm2: 0.09,
            dce_exec_mm2: 0.15,
            extraction_mm2: 0.14,
        }
    }

    /// Total DCE area.
    #[must_use]
    pub fn dce_mm2(&self) -> f64 {
        self.chain_cache_mm2 + self.dce_exec_mm2 + self.extraction_mm2
    }

    /// DCE area as a fraction of the core (§5.2: ≈ 2.2%).
    #[must_use]
    pub fn dce_fraction(&self) -> f64 {
        self.dce_mm2() / self.core_mm2
    }

    /// The Core-Only variant shares execution resources with the core:
    /// only the chain cache and extraction hardware are added (≈ 1.4%).
    #[must_use]
    pub fn core_only_fraction(&self) -> f64 {
        (self.chain_cache_mm2 + self.extraction_mm2) / self.core_mm2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_monotone_in_each_event_class() {
        let m = EnergyModel::default();
        let base = baseline_events();
        let base_uj = m.total_uj(&base);
        for bump in [
            EnergyEvents {
                cycles: base.cycles + 100_000,
                ..base
            },
            EnergyEvents {
                core_uops: base.core_uops + 100_000,
                ..base
            },
            EnergyEvents {
                l1_accesses: base.l1_accesses + 100_000,
                ..base
            },
            EnergyEvents {
                l2_accesses: base.l2_accesses + 100_000,
                ..base
            },
            EnergyEvents {
                dram_accesses: base.dram_accesses + 10_000,
                ..base
            },
            EnergyEvents {
                dce_uops: 100_000,
                ..base
            },
            EnergyEvents {
                chain_extractions: 10_000,
                ..base
            },
        ] {
            assert!(m.total_uj(&bump) > base_uj, "bump must cost energy");
        }
    }

    #[test]
    fn dram_dominates_per_event() {
        let m = EnergyModel::default();
        assert!(m.dram_pj > 10.0 * m.l2_pj);
        assert!(m.l2_pj > m.l1_pj);
        assert!(m.dce_uop_pj < m.core_uop_pj, "the DCE datapath is cheaper");
    }

    fn baseline_events() -> EnergyEvents {
        EnergyEvents {
            cycles: 1_000_000,
            core_uops: 2_000_000,
            l1_accesses: 600_000,
            l2_accesses: 60_000,
            dram_accesses: 6_000,
            predictor_lookups: 300_000,
            ..Default::default()
        }
    }

    #[test]
    fn faster_run_with_dce_saves_energy() {
        // Same work in 25% fewer cycles, plus DCE overhead: Figure 14's
        // typical outcome is a net saving.
        let base = baseline_events();
        let with = EnergyEvents {
            cycles: 750_000,
            dce_uops: 500_000,
            dce_loads: 80_000,
            chain_extractions: 500,
            br_present: true,
            ..base
        };
        let m = EnergyModel::default();
        let delta = m.relative_change_pct(&base, &with);
        assert!(delta < 0.0, "expected energy saving, got {delta:+.1}%");
    }

    #[test]
    fn no_speedup_costs_energy() {
        let base = baseline_events();
        let with = EnergyEvents {
            dce_uops: 700_000,
            dce_loads: 120_000,
            br_present: true,
            ..base
        };
        let m = EnergyModel::default();
        assert!(m.relative_change_pct(&base, &with) > 0.0);
    }

    #[test]
    fn area_matches_paper_numbers() {
        let a = AreaBreakdown::paper_mini();
        assert!((a.dce_mm2() - 0.38).abs() < 1e-9);
        assert!((a.dce_fraction() - 0.022).abs() < 0.002, "≈2.2% of core");
        assert!((a.core_only_fraction() - 0.014).abs() < 0.002, "≈1.4%");
        assert!(a.tage_mm2 < a.core_mm2);
    }

    #[test]
    fn energy_zero_base_guard() {
        let m = EnergyModel::default();
        let z = EnergyEvents::default();
        assert_eq!(m.relative_change_pct(&z, &z), 0.0);
    }
}
