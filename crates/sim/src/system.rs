//! System composition: core + memory + (optional) Branch Runahead.

use br_core::{BrLiveState, BrStats, BranchRunahead, PredictionCategory};
use br_energy::EnergyEvents;
use br_isa::Machine;
use br_mem::{Counters, MemResp, MemoryStats, MemorySystem};
use br_ooo::{Core, CoreStats, NullHooks};
use br_telemetry::{Sample, Telemetry, TelemetryRun};
use br_workloads::WorkloadImage;

use crate::config::SimConfig;
use crate::faults::{FaultInjector, FaultStats, FaultedHooks};
use crate::job::SimError;

/// Cycles between machine-check invariant sweeps (when enabled).
const MACHINE_CHECK_INTERVAL: u64 = 1024;

/// Results of one simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Core statistics.
    pub core: CoreStats,
    /// Memory statistics.
    pub mem: MemoryStats,
    /// Branch Runahead statistics (when enabled).
    pub br: Option<BrStats>,
    /// Configuration name the run used.
    pub config_name: String,
    /// Collected telemetry (when [`SimConfig::telemetry`] is enabled).
    pub telemetry: Option<TelemetryRun>,
    /// Faults injected (when [`SimConfig::faults`] set a schedule).
    pub faults: Option<FaultStats>,
}
// Every event count of a run, named `core.<field>`, `mem.<path>`,
// `br.<field>` and `faults.<field>`.
br_mem::counters!(RunResult {
    ;
    nested core, mem, br, faults
});

impl RunResult {
    /// The statistics of a system so far, without telemetry or a
    /// configuration name.
    fn snapshot(core: &Core, mem: &MemorySystem, br: Option<&BranchRunahead>) -> Self {
        RunResult {
            core: core.stats().clone(),
            mem: mem.stats(),
            br: br.map(BranchRunahead::stats),
            config_name: String::new(),
            telemetry: None,
            faults: None,
        }
    }

    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.core.ipc()
    }

    /// Branch mispredictions per kilo-uop.
    #[must_use]
    pub fn mpki(&self) -> f64 {
        self.core.mpki()
    }

    /// Fraction of retired conditional branches covered by a cached chain
    /// (Figure 12's denominator over all branches; 0 without BR).
    #[must_use]
    pub(crate) fn coverage(&self) -> f64 {
        let covered = self.br.as_ref().map_or(0, |b| b.covered_branch_retires);
        if self.core.retired_branches == 0 {
            0.0
        } else {
            covered as f64 / self.core.retired_branches as f64
        }
    }

    /// MPKI improvement of `self` over `base`, in percent (the paper's
    /// metric: `(base − this) / base × 100`).
    #[must_use]
    pub fn mpki_improvement_pct(&self, base: &RunResult) -> f64 {
        let b = base.mpki();
        if b == 0.0 {
            0.0
        } else {
            (b - self.mpki()) / b * 100.0
        }
    }

    /// IPC improvement over `base`, in percent.
    #[must_use]
    pub fn ipc_improvement_pct(&self, base: &RunResult) -> f64 {
        let b = base.ipc();
        if b == 0.0 {
            0.0
        } else {
            (self.ipc() - b) / b * 100.0
        }
    }

    /// Event counts for the energy model.
    #[must_use]
    pub(crate) fn energy_events(&self) -> EnergyEvents {
        let br = self.br.as_ref();
        EnergyEvents {
            cycles: self.core.cycles,
            core_uops: self.core.issued_uops,
            l1_accesses: self.mem.l1.hits + self.mem.l1.misses,
            l2_accesses: self.mem.l2.hits + self.mem.l2.misses,
            dram_accesses: self.mem.dram.reads + self.mem.dram.writes,
            predictor_lookups: self.core.fetched_branches,
            dce_uops: br.map_or(0, |b| b.dce_uops),
            dce_loads: br.map_or(0, |b| b.dce_loads),
            chain_extractions: br.map_or(0, |b| b.extraction_attempts),
            br_present: self.br.is_some(),
        }
    }
}

/// The interval sampler: snapshots the system every `interval` retired
/// uops, turning cumulative statistics into a time series of interval
/// rates (the time axis the end-of-run totals flatten away).
#[derive(Clone, Debug)]
struct Sampler {
    interval: u64,
    next: u64,
    samples: Vec<Sample>,
    /// Every counter of the run at the previous sample, in list order.
    prev: Vec<u64>,
}

impl Sampler {
    fn new(interval: u64) -> Self {
        Sampler {
            interval: interval.max(1),
            next: interval.max(1),
            samples: Vec::new(),
            prev: Vec::new(),
        }
    }

    /// Samples the interval since the previous sample; `retired` is the
    /// run's cumulative retired-uop count.
    fn take(
        &mut self,
        cycle: u64,
        retired: u64,
        core: &Core,
        mem: &MemorySystem,
        engine: Option<&BranchRunahead>,
    ) {
        // The interval's statistics: the run so far minus the previous
        // snapshot, counter by counter.
        let mut d = RunResult::snapshot(core, mem, engine);
        let now = d.counter_values();
        let mut prev = self.prev.iter();
        d.for_each_counter_mut(&mut |_, v| {
            *v = v.saturating_sub(prev.next().copied().unwrap_or(0));
        });
        self.prev = now;

        let live = engine.map_or_else(BrLiveState::default, BranchRunahead::live_state);
        let br = d.br.as_ref();
        let category = |cat| br.map_or(0.0, |s| s.category_fraction(cat));
        self.samples.push(Sample {
            cycle,
            retired_uops: retired,
            ipc: d.ipc(),
            mpki: d.mpki(),
            l1_miss_rate: d.mem.l1.miss_ratio(),
            mshr_in_use: mem.mshrs_in_use() as u64,
            dce_active: live.dce_active as u64,
            queue_slots: live.queue_slots as u64,
            cached_chains: live.cached_chains as u64,
            chain_cache_hit_rate: br.map_or(0.0, BrStats::chain_cache_hit_rate),
            coverage_rate: d.coverage(),
            late_rate: category(PredictionCategory::Late),
            throttle_rate: category(PredictionCategory::Throttled),
            correct_rate: category(PredictionCategory::Correct),
            incorrect_rate: category(PredictionCategory::Incorrect),
        });
        while self.next <= retired {
            self.next += self.interval;
        }
    }
}

/// A runnable system instance. `System` is `Send`: it is a fully
/// self-contained unit of work that a sharded runner can move to any
/// worker thread (see `crate::runner`).
pub struct System {
    core: Core,
    mem: MemorySystem,
    /// The Branch Runahead engine (boxed: it is large); `None` for the
    /// baseline system.
    br: Option<Box<BranchRunahead>>,
    max_cycles: u64,
    config_name: String,
    sampler: Option<Sampler>,
    machine_check: bool,
    injector: Option<FaultInjector>,
    /// Per-cycle memory-response buffer, reused across the run loop.
    resp_scratch: Vec<MemResp>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("config", &self.config_name)
            .finish()
    }
}

impl System {
    /// Builds a system from a configuration and a shared workload image.
    /// The image is not consumed: its program is reference-shared and its
    /// memory pages are copied, so one built image can seed every
    /// configuration and region of an experiment.
    #[must_use]
    pub fn new(cfg: SimConfig, image: &WorkloadImage) -> Self {
        let machine = Machine::new(image.memory.to_memory());
        let mut core = Core::new(
            cfg.core,
            image.program.clone(),
            machine,
            cfg.predictor.build(),
        );
        core.set_max_retired(cfg.max_retired);
        let mut br = cfg
            .runahead
            .map(|rc| Box::new(BranchRunahead::new(rc, cfg.core.retire_width)));
        let config_name = match &br {
            Some(br) => format!("{}+br-{}", cfg.predictor.name(), br.config().name),
            None => cfg.predictor.name().to_string(),
        };
        let sampler = if cfg.telemetry.enabled {
            core.attach_telemetry(Telemetry::from_config(&cfg.telemetry));
            if let Some(br) = &mut br {
                br.attach_telemetry(Telemetry::from_config(&cfg.telemetry));
            }
            Some(Sampler::new(cfg.telemetry.sample_interval))
        } else {
            None
        };
        System {
            core,
            mem: MemorySystem::new(cfg.memory),
            br,
            max_cycles: cfg.max_cycles,
            config_name,
            sampler,
            machine_check: cfg.machine_check,
            injector: cfg.faults.map(FaultInjector::new),
            resp_scratch: Vec::new(),
        }
    }

    /// Runs to completion like [`System::try_run`], panicking on a
    /// machine-check violation (kept for callers that treat a violated
    /// invariant as a bug, e.g. unit tests).
    ///
    /// # Panics
    ///
    /// Panics when a machine-check invariant sweep fails.
    pub fn run(&mut self) -> RunResult {
        match self.try_run() {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs periodic machine-check sweeps over the Branch Runahead
    /// structures and the core, surfacing the first violation as a typed
    /// error.
    fn check_machine(&mut self, cycle: u64) -> Result<(), SimError> {
        let result = match &mut self.br {
            Some(br) => br.check_invariants(cycle),
            None => Ok(()),
        };
        result
            .and_then(|()| self.core.check_invariants())
            .map_err(|what| SimError::InvariantViolation {
                job: self.config_name.clone(),
                cycle,
                what,
            })
    }

    /// Runs to completion (program halt, retired-uop budget, or the cycle
    /// safety cap) and returns the statistics. Baseline and Branch
    /// Runahead systems share this single loop: the engine, when there is
    /// one, observes the core through its hooks and then ticks in the
    /// core's shadow. When the configuration carries a fault schedule the
    /// injector perturbs the BR/core boundary each cycle; when machine
    /// checks are on, periodic invariant sweeps abort the run with
    /// [`SimError::InvariantViolation`] at the first inconsistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvariantViolation`] (with the config name as
    /// the job field; [`crate::SimJob::try_execute`] patches in the full
    /// job label) when a machine-check sweep fails.
    pub fn try_run(&mut self) -> Result<RunResult, SimError> {
        let mut last_cycle = 0;
        for cycle in 0..self.max_cycles {
            last_cycle = cycle;
            let mut responses = std::mem::take(&mut self.resp_scratch);
            self.mem.tick_into(cycle, &mut responses);
            let report = match (&mut self.br, &mut self.injector) {
                (Some(br), Some(inj)) => {
                    responses = inj.filter_responses(cycle, responses, br);
                    inj.chaos_tick(cycle, br);
                    let mut hooks = FaultedHooks::new(br, inj);
                    self.core.tick(&responses, &mut self.mem, &mut hooks)
                }
                (Some(br), None) => self.core.tick(&responses, &mut self.mem, &mut **br),
                (None, _) => self.core.tick(&responses, &mut self.mem, &mut NullHooks),
            };
            if let Some(br) = &mut self.br {
                // The DCE runs in the shadow of the core, consuming its
                // spare resources.
                br.tick(
                    cycle,
                    self.core.machine(),
                    &mut self.mem,
                    &responses,
                    &report,
                );
            }
            if let Some(s) = &mut self.sampler {
                let retired = self.core.stats().retired_uops;
                if retired >= s.next {
                    s.take(cycle, retired, &self.core, &self.mem, self.br.as_deref());
                }
            }
            if self.machine_check && cycle.is_multiple_of(MACHINE_CHECK_INTERVAL) {
                self.check_machine(cycle)?;
            }
            self.resp_scratch = responses;
            if report.done {
                break;
            }
        }
        if self.machine_check {
            // Terminal sweep: catch damage done after the last periodic one.
            self.check_machine(last_cycle)?;
        }
        let mut result = RunResult {
            config_name: self.config_name.clone(),
            faults: self.injector.as_ref().map(FaultInjector::stats),
            ..RunResult::snapshot(&self.core, &self.mem, self.br.as_deref())
        };
        if let Some(s) = self.sampler.take() {
            let core_t = self.core.take_telemetry();
            let br_t = self
                .br
                .as_deref_mut()
                .map_or_else(Telemetry::off, BranchRunahead::take_telemetry);
            let mut run = TelemetryRun::collect(s.samples, vec![core_t, br_t]);
            result.for_each_counter(&mut |name, v| run.counters.push((name.to_string(), v)));
            result.telemetry = Some(run);
        }
        Ok(result)
    }

    /// The core (for inspection after a run).
    #[must_use]
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// The Branch Runahead system, if enabled.
    #[must_use]
    pub fn runahead(&self) -> Option<&BranchRunahead> {
        self.br.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_workloads::{workload_by_name, WorkloadParams};

    fn small_params() -> WorkloadParams {
        WorkloadParams {
            scale: 512,
            iterations: 1_000_000,
            seed: 17,
        }
    }

    fn run_one(mut cfg: SimConfig, name: &str) -> RunResult {
        cfg.max_retired = 60_000;
        let w = workload_by_name(name).unwrap();
        System::new(cfg, &w.build(&small_params())).run()
    }

    #[test]
    fn baseline_runs_and_reports() {
        let r = run_one(SimConfig::baseline(), "leela_17");
        assert!(r.core.retired_uops >= 60_000);
        assert!(r.ipc() > 0.1 && r.ipc() <= 4.0);
        assert!(r.mpki() > 1.0, "leela-like kernel must mispredict");
        assert!(r.br.is_none());
    }

    #[test]
    #[ignore = "paper-shape tier (threshold assertion): run with --ignored"]
    fn mini_br_beats_baseline_on_leela() {
        let base = run_one(SimConfig::baseline(), "leela_17");
        let with = run_one(SimConfig::mini_br(), "leela_17");
        assert!(with.br.is_some());
        assert!(
            with.mpki_improvement_pct(&base) > 15.0,
            "mini BR should cut MPKI well: base {:.2} vs br {:.2}",
            base.mpki(),
            with.mpki()
        );
    }

    #[test]
    fn multi_region_weighted_average() {
        use crate::experiments::ExperimentSetup;
        let mut setup = ExperimentSetup::quick();
        setup.max_retired = 20_000;
        setup.workloads = vec!["leela_17".into()];
        let single = setup.run(SimConfig::baseline(), "leela_17").unwrap();
        setup.regions = vec![(0, 1.0), (1, 0.5)];
        let multi = setup.run(SimConfig::baseline(), "leela_17").unwrap();
        // Weighted result must lie between the two regions' extremes; a
        // loose sanity bound: within 50% of the single-region MPKI.
        assert!(multi.core.retired_uops >= 20_000);
        assert!(
            (multi.mpki() - single.mpki()).abs() / single.mpki() < 0.5,
            "weighted MPKI implausible: {} vs {}",
            multi.mpki(),
            single.mpki()
        );
    }

    #[test]
    fn energy_events_populated() {
        let r = run_one(SimConfig::mini_br(), "bfs");
        let e = r.energy_events();
        assert!(e.cycles > 0 && e.core_uops > 0 && e.l1_accesses > 0);
        assert!(e.br_present);
    }
}
