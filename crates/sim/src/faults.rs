//! Deterministic fault injection and the architectural-equivalence soak.
//!
//! Branch Runahead's core contract is that DCE chain outcomes are *hints*:
//! a wrong, late, or stale prediction may only cost performance, never
//! correctness (§3, §4.2 of the paper). This module turns that claim into
//! a testable property. A `FaultInjector`, seeded from the job so every
//! schedule replays bit-identically, perturbs the BR/core boundary in five
//! ways:
//!
//! * **outcome flips** — a chain-computed direction handed to fetch is
//!   inverted (`FaultKind::FlipOutcome`);
//! * **dropped pushes** — a DCE→prediction-queue fill is swallowed, so the
//!   slot stays empty and fetch sees `Late` (`FaultKind::DropFill`);
//! * **chain evictions** — a pseudo-random chain-cache entry vanishes
//!   (`FaultKind::EvictChain`);
//! * **decay storms** — the HBT decays early, delaying HTP detection
//!   (`FaultKind::DecayStorm`);
//! * **memory delays** — DCE D-cache responses are withheld for extra
//!   cycles, making chains late or stale (`FaultKind::DelayMem`).
//!
//! [`run_soak`] then runs every job once fault-free and `N` times under
//! seeded schedules, all with machine checks on, and demands the retired
//! instruction stream (via `CoreStats::retire_fingerprint`) be
//! bit-identical across all of them — only IPC/MPKI/coverage may move.

use br_core::BranchRunahead;
use br_isa::{CpuState, Pc};
use br_mem::MemResp;
use br_ooo::{BranchOutcome, CoreHooks, FetchedBranch, MispredictInfo, RetiredUop, WrongPathUop};
use br_telemetry::export::escape_json;

use crate::job::{SimError, SimJob};
use crate::runner::run_jobs_partial;

/// The fault taxonomy. Discriminants are the stable `arg` codes carried
/// by `EventKind::FaultInject` telemetry events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// A chain outcome delivered to fetch was bit-flipped.
    FlipOutcome = 0,
    /// A DCE→prediction-queue push was dropped.
    DropFill = 1,
    /// A chain-cache entry was spuriously evicted.
    EvictChain = 2,
    /// The HBT was forced through an early decay event.
    DecayStorm = 3,
    /// A DCE memory response was delayed.
    DelayMem = 4,
}

/// Chance (per 65536 opportunities) that an overridden prediction is
/// bit-flipped: 2%.
const FLIP_OUTCOME: u16 = 1311;
/// Chance (per 65536, rolled each chaos tick) that the next queue fill is
/// dropped: 10%.
const DROP_FILL: u16 = 6554;
/// Chance (per 65536, rolled each chaos tick) that a chain is evicted: 10%.
const EVICT_CHAIN: u16 = 6554;
/// Chance (per 65536, rolled each chaos tick) of an HBT decay storm: 2%.
const DECAY_STORM: u16 = 1311;
/// Chance (per 65536, per DCE response) that the response is delayed: 5%.
const DELAY_MEM: u16 = 3277;
/// Extra cycles a delayed DCE response is withheld.
const DELAY_CYCLES: u64 = 48;
/// Cycles between structural chaos ticks.
const PERIOD: u64 = 512;

/// One of the two named fault schedules, with the seed that makes it
/// reproducible. `default` rolls every fault class at the rates above,
/// often enough to fire many times per quick run without drowning it;
/// `sabotage` injects none of them and instead corrupts a
/// prediction-queue pointer on every chaos tick, the fixture proving that
/// machine checks catch real damage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed of the schedule's deterministic RNG. [`run_soak`] replaces it
    /// per run with [`schedule_seed`].
    pub seed: u64,
    /// The `sabotage` schedule rather than `default`.
    pub sabotage: bool,
}

impl Default for FaultSpec {
    /// The `--faults default` schedule.
    fn default() -> Self {
        FaultSpec {
            seed: 0xB12A_5EED,
            sabotage: false,
        }
    }
}

impl FaultSpec {
    /// Parses a `--faults` schedule name: `default` or `sabotage`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming both schedules.
    pub fn parse(spec: &str) -> Result<Self, SimError> {
        match spec {
            "default" => Ok(FaultSpec::default()),
            "sabotage" => Ok(FaultSpec {
                sabotage: true,
                ..FaultSpec::default()
            }),
            _ => Err(SimError::InvalidConfig(format!(
                "unknown --faults schedule {spec:?}; expected \"default\" or \"sabotage\""
            ))),
        }
    }
}

/// Counts of injected faults, by kind. Bit-identical across replays of
/// the same `(job, fault seed)` — the determinism tests compare these.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Chain outcomes bit-flipped on their way to fetch.
    pub(crate) outcome_flips: u64,
    /// DCE→queue pushes dropped.
    pub(crate) dropped_fills: u64,
    /// Chain-cache entries spuriously evicted.
    pub(crate) chain_evictions: u64,
    /// HBT decay storms forced.
    pub(crate) decay_storms: u64,
    /// DCE memory responses delayed.
    pub(crate) delayed_responses: u64,
}
br_mem::counters!(FaultStats {
    outcome_flips,
    dropped_fills,
    chain_evictions,
    decay_storms,
    delayed_responses
});

impl FaultStats {
    /// Total faults injected.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.outcome_flips
            + self.dropped_fills
            + self.chain_evictions
            + self.decay_storms
            + self.delayed_responses
    }
}

/// Executes one [`FaultSpec`] deterministically against a running system.
/// Owned by `System`; the run loop calls [`FaultInjector::filter_responses`]
/// and [`FaultInjector::chaos_tick`], and wraps the core's hooks in
/// [`FaultedHooks`] so outcome flips happen at the prediction hand-off.
#[derive(Clone, Debug)]
pub(crate) struct FaultInjector {
    spec: FaultSpec,
    rng: u64,
    /// Withheld DCE responses: `(deliver_at_cycle, response)`.
    held: Vec<(u64, MemResp)>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector for `spec`.
    #[must_use]
    pub(crate) fn new(spec: FaultSpec) -> Self {
        let mut rng = spec.seed ^ 0x9E37_79B9_7F4A_7C15;
        if rng == 0 {
            rng = 0x2545_F491_4F6C_DD1D;
        }
        FaultInjector {
            spec,
            rng,
            held: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Faults injected so far.
    #[must_use]
    pub(crate) fn stats(&self) -> FaultStats {
        self.stats
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Rolls one fault of chance `rate` per 65536. The sabotage schedule
    /// rolls nothing, so it draws no random numbers either.
    fn roll(&mut self, rate: u16) -> bool {
        !self.spec.sabotage && (self.next_rand() & 0xFFFF) < u64::from(rate)
    }

    /// Filters one cycle's memory responses: DCE-owned responses selected
    /// by the schedule are withheld for `DELAY_CYCLES`, and previously
    /// held responses that have come due are re-delivered (appended in
    /// hold order, so delivery is deterministic). Core responses are
    /// never touched — the fault boundary is strictly the assist engine.
    /// Each delay is traced into the engine's telemetry.
    pub(crate) fn filter_responses(
        &mut self,
        cycle: u64,
        responses: Vec<MemResp>,
        br: &mut BranchRunahead,
    ) -> Vec<MemResp> {
        let mut out = Vec::with_capacity(responses.len());
        for r in responses {
            if br.owns_mem_request(r.id) && self.roll(DELAY_MEM) {
                self.stats.delayed_responses += 1;
                br.record_external_fault(cycle, 0, FaultKind::DelayMem as u64);
                self.held.push((cycle + DELAY_CYCLES, r));
            } else {
                out.push(r);
            }
        }
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].0 <= cycle {
                out.push(self.held.remove(i).1);
            } else {
                i += 1;
            }
        }
        out
    }

    /// The structural chaos of one cycle: on every `PERIOD`-th cycle,
    /// rolls each structural fault class and applies the ones that fire
    /// to the engine. Sabotage (the CI fixture's deliberate corruption) is
    /// re-applied every chaos tick so a flush between ticks cannot hide it
    /// from the next invariant sweep.
    pub(crate) fn chaos_tick(&mut self, cycle: u64, br: &mut BranchRunahead) {
        if cycle == 0 || !cycle.is_multiple_of(PERIOD) {
            return;
        }
        if self.spec.sabotage {
            br.chaos_sabotage();
        }
        if self.roll(DROP_FILL) {
            self.stats.dropped_fills += 1;
            br.chaos_drop_next_fill();
            br.record_external_fault(cycle, 0, FaultKind::DropFill as u64);
        }
        if self.roll(EVICT_CHAIN) {
            let sel = self.next_rand();
            if br.chaos_evict_chain(sel) {
                self.stats.chain_evictions += 1;
                br.record_external_fault(cycle, 0, FaultKind::EvictChain as u64);
            }
        }
        if self.roll(DECAY_STORM) {
            self.stats.decay_storms += 1;
            br.chaos_decay_storm();
            br.record_external_fault(cycle, 0, FaultKind::DecayStorm as u64);
        }
    }
}

/// Wraps the Branch Runahead engine for one core tick, bit-flipping chain
/// outcomes on their way from the prediction queues to fetch. Every other
/// hook delegates untouched: the fault surface is exactly the prediction
/// hand-off, matching the paper's prediction-as-hint contract.
pub(crate) struct FaultedHooks<'a> {
    br: &'a mut BranchRunahead,
    inj: &'a mut FaultInjector,
}

impl<'a> FaultedHooks<'a> {
    /// Wraps `br`, perturbing it per `inj`'s schedule.
    pub(crate) fn new(br: &'a mut BranchRunahead, inj: &'a mut FaultInjector) -> Self {
        FaultedHooks { br, inj }
    }
}

impl CoreHooks for FaultedHooks<'_> {
    fn override_prediction(&mut self, pc: Pc, base: bool, cycle: u64) -> Option<bool> {
        let value = self.br.override_prediction(pc, base, cycle)?;
        if self.inj.roll(FLIP_OUTCOME) {
            self.inj.stats.outcome_flips += 1;
            self.br
                .record_external_fault(cycle, pc, FaultKind::FlipOutcome as u64);
            Some(!value)
        } else {
            Some(value)
        }
    }

    fn on_branch_fetch(&mut self, b: &FetchedBranch) {
        self.br.on_branch_fetch(b);
    }

    fn on_mispredict(
        &mut self,
        info: &MispredictInfo,
        wrong_path: &[WrongPathUop],
        cpu: &CpuState,
    ) {
        self.br.on_mispredict(info, wrong_path, cpu);
    }

    fn on_retire(&mut self, u: &RetiredUop) {
        self.br.on_retire(u);
    }

    fn on_branch_retire(&mut self, b: &BranchOutcome) {
        self.br.on_branch_retire(b);
    }
}

// --------------------------------------------------------------- soak

/// Summary of one soak run (the reference or one fault schedule).
#[derive(Clone, Debug)]
pub struct SoakRun {
    /// [`SimJob::label`] of the job.
    pub(crate) job: String,
    /// The fault schedule's seed; `None` for the fault-free reference.
    pub fault_seed: Option<u64>,
    /// Retired-instruction-stream fingerprint (when the run completed).
    pub(crate) retire_fingerprint: Option<u64>,
    /// IPC of the run (performance metrics are allowed to move).
    pub(crate) ipc: f64,
    /// MPKI of the run.
    pub(crate) mpki: f64,
    /// Faults actually injected.
    pub faults: FaultStats,
    /// `"ok"`, or the [`SimError::kind`] of the failure.
    pub(crate) status: String,
}

/// One failed soak run with its typed error.
#[derive(Clone, Debug)]
pub struct SoakFailure {
    /// [`SimJob::label`] of the failing job.
    pub(crate) job: String,
    /// The fault schedule's seed (`None`: the reference run failed).
    pub(crate) fault_seed: Option<u64>,
    /// What went wrong.
    pub error: SimError,
}

/// The result of an architectural-equivalence soak.
#[derive(Clone, Debug, Default)]
pub struct SoakReport {
    /// Every run performed, in job order (reference first per job).
    pub runs: Vec<SoakRun>,
    /// Every failure, in job order.
    pub failures: Vec<SoakFailure>,
}

impl SoakReport {
    /// Whether every run held the equivalence and invariant contract.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Machine-readable JSON: `{"total_runs", "fault_runs", "passed",
    /// "failures": [{"job", "fault_seed", "kind", "error"}], "runs":
    /// [...]}`. Parsed by `tools/check_soak.py`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let seed = |s: Option<u64>| s.map_or("null".to_string(), |v| v.to_string());
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| {
                format!(
                    "{{\"job\": \"{}\", \"fault_seed\": {}, \"kind\": \"{}\", \"error\": \"{}\"}}",
                    escape_json(&f.job),
                    seed(f.fault_seed),
                    f.error.kind(),
                    escape_json(&f.error.to_string())
                )
            })
            .collect();
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|r| {
                format!(
                    "{{\"job\": \"{}\", \"fault_seed\": {}, \"fingerprint\": {}, \
                     \"ipc\": {:.4}, \"mpki\": {:.4}, \"faults_injected\": {}, \
                     \"status\": \"{}\"}}",
                    escape_json(&r.job),
                    seed(r.fault_seed),
                    r.retire_fingerprint
                        .map_or("null".to_string(), |f| f.to_string()),
                    r.ipc,
                    r.mpki,
                    r.faults.total(),
                    escape_json(&r.status)
                )
            })
            .collect();
        format!(
            "{{\"total_runs\": {}, \"fault_runs\": {}, \"passed\": {}, \
             \"failures\": [{}], \"runs\": [{}]}}",
            self.runs.len(),
            self.runs.iter().filter(|r| r.fault_seed.is_some()).count(),
            self.passed(),
            failures.join(", "),
            runs.join(", ")
        )
    }
}

/// The seed of schedule `k` for `job`: a hash of what names the job (its
/// label, build parameters and budget) and `k`, so it is distinct per
/// `(job, k)` and does not depend on which other jobs run or on how the
/// configuration prints. A soak over one workload replays the same
/// schedules as a soak over many.
#[must_use]
pub fn schedule_seed(job: &SimJob, k: u32) -> u64 {
    let p = job.params;
    let name = format!(
        "{}|{}|{}|{}|{}|{k}",
        job.label(),
        p.scale,
        p.iterations,
        p.seed,
        job.max_retired
    );
    // FNV-1a, then a murmur3 finalizer so that names differing only in
    // their last bytes still differ in the low bits the rolls read.
    let mut h = name.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b53a_5a7e_6e2f);
    h ^ (h >> 33)
}

/// Runs the architectural-equivalence soak: each job once fault-free and
/// `schedules` times under derived fault seeds, all with machine checks
/// on. A fault run fails as [`SimError::FaultedRun`] when its retired
/// instruction stream differs from the reference, or surfaces its own
/// [`SimError::InvariantViolation`] / [`SimError::JobPanicked`]. Failing
/// runs never stop the rest of the batch — the report carries partial
/// results plus every failure, in job order.
#[must_use]
pub fn run_soak(jobs: &[SimJob], spec: FaultSpec, schedules: u32, threads: usize) -> SoakReport {
    let per_job = schedules as usize + 1;
    let mut batch: Vec<SimJob> = Vec::with_capacity(jobs.len() * per_job);
    for job in jobs {
        let mut reference = job.clone();
        reference.config.machine_check = true;
        reference.config.faults = None;
        batch.push(reference.clone());
        for k in 0..schedules {
            let mut faulted = reference.clone();
            faulted.config.faults = Some(FaultSpec {
                seed: schedule_seed(job, k),
                ..spec
            });
            batch.push(faulted);
        }
    }

    let mut results = run_jobs_partial(&batch, threads).into_iter();
    let mut report = SoakReport::default();
    // Each job's runs form one chunk, the reference first.
    for chunk in batch.chunks(per_job) {
        let label = chunk[0].label();
        // The reference's (fingerprint, retired uops), once it completed.
        let mut reference = None;
        for (job, result) in chunk.iter().zip(results.by_ref()) {
            let fault_seed = job.config.faults.map(|s| s.seed);
            let mut run = SoakRun {
                job: label.clone(),
                fault_seed,
                retire_fingerprint: None,
                ipc: 0.0,
                mpki: 0.0,
                faults: FaultStats::default(),
                status: "ok".to_string(),
            };
            let verdict = result.and_then(|r| {
                let got = (r.core.retire_fingerprint, r.core.retired_uops);
                run.retire_fingerprint = Some(got.0);
                run.ipc = r.ipc();
                run.mpki = r.mpki();
                run.faults = r.faults.unwrap_or_default();
                let Some(seed) = fault_seed else {
                    reference = Some(got);
                    return Ok(());
                };
                let what = match reference {
                    Some(want) if want == got => return Ok(()),
                    Some((ref_fp, ref_retired)) => format!(
                        "retired stream diverged from the fault-free run: \
                         fingerprint {:#018x} vs {ref_fp:#018x}, \
                         {} vs {ref_retired} uops retired",
                        got.0, got.1
                    ),
                    None => "no reference run to compare against (it failed)".to_string(),
                };
                Err(SimError::FaultedRun {
                    job: label.clone(),
                    fault_seed: seed,
                    what,
                })
            });
            if let Err(error) = verdict {
                run.status = error.kind().to_string();
                report.failures.push(SoakFailure {
                    job: label.clone(),
                    fault_seed,
                    error,
                });
            }
            report.runs.push(run);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_two_named_schedules() {
        assert_eq!(FaultSpec::parse("default").unwrap(), FaultSpec::default());
        let s = FaultSpec::parse("sabotage").unwrap();
        assert!(s.sabotage);
        assert_eq!(s.seed, FaultSpec::default().seed);
    }

    #[test]
    fn parse_rejects_anything_else_naming_both_schedules() {
        for bad in ["flip=0.5", "sabotage=1", "seed=7", "", "Default"] {
            let err = FaultSpec::parse(bad).unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig(_)), "{bad}: {err:?}");
            let msg = err.to_string();
            assert!(msg.contains("--faults"), "actionable: {msg}");
            assert!(
                msg.contains("\"default\"") && msg.contains("\"sabotage\""),
                "{msg}"
            );
        }
    }

    #[test]
    fn injector_replays_deterministically() {
        let mut a = FaultInjector::new(FaultSpec::default());
        let mut b = FaultInjector::new(FaultSpec::default());
        let rolls_a: Vec<bool> = (0..64).map(|_| a.roll(30000)).collect();
        let rolls_b: Vec<bool> = (0..64).map(|_| b.roll(30000)).collect();
        assert_eq!(rolls_a, rolls_b);
        assert!(rolls_a.iter().any(|r| *r) && rolls_a.iter().any(|r| !*r));
    }

    #[test]
    fn schedule_seeds_distinct_per_job_and_index() {
        let job = SimJob {
            config: crate::SimConfig::mini_br(),
            workload: "leela_17".into(),
            params: br_workloads::WorkloadParams::default(),
            region_seed: 0,
            weight: 1.0,
            max_retired: 1000,
        };
        let mut other_region = job.clone();
        other_region.region_seed = 1;
        let mut other_workload = job.clone();
        other_workload.workload = "mcf_06".into();
        let s0 = schedule_seed(&job, 0);
        assert_eq!(s0, schedule_seed(&job, 0), "replayable");
        assert_ne!(s0, schedule_seed(&job, 1));
        assert_ne!(s0, schedule_seed(&other_region, 0));
        assert_ne!(s0, schedule_seed(&other_workload, 0));
    }

    #[test]
    fn schedule_seed_is_pinned() {
        // Mini on leela_17 at the quick parameters and 20k uops: the first
        // seed of `figures --quick --retired 20000 --faults default`. It
        // moves only if the job's name or the hash changes.
        let job = SimJob {
            config: crate::SimConfig::mini_br(),
            workload: "leela_17".into(),
            params: crate::experiments::ExperimentSetup::quick().params,
            region_seed: 0,
            weight: 1.0,
            max_retired: 20_000,
        };
        assert_eq!(schedule_seed(&job, 0), 2_244_418_770_796_544_241);
    }

    #[test]
    fn report_json_is_well_formed() {
        let mut report = SoakReport::default();
        report.runs.push(SoakRun {
            job: "a/b/r0".into(),
            fault_seed: Some(7),
            retire_fingerprint: Some(0xabc),
            ipc: 1.5,
            mpki: 3.25,
            faults: FaultStats {
                outcome_flips: 2,
                ..FaultStats::default()
            },
            status: "ok".into(),
        });
        report.failures.push(SoakFailure {
            job: "a/b/r0".into(),
            fault_seed: Some(7),
            error: SimError::InvalidConfig("x \"quoted\"".into()),
        });
        report.failures.push(SoakFailure {
            job: "a/b/r1".into(),
            fault_seed: None,
            error: SimError::JobPanicked {
                job: "a/b/r1".into(),
                message: "assertion `left == right` failed\n  left: 1\n\tright: 2".into(),
            },
        });
        let json = report.to_json();
        assert!(json.contains("\"passed\": false"));
        assert!(json.contains("\"kind\": \"invalid_config\""));
        assert!(json.contains("\\\"quoted\\\""), "quotes escaped: {json}");
        let raw_control = json.chars().any(|c| c < ' ');
        assert!(!raw_control, "raw control character: {json}");
    }
}
