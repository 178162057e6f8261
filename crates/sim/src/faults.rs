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

use std::collections::HashMap;

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

/// A fault schedule: per-opportunity rates (16-bit fixed point, chances
/// out of 65536) plus the structural-chaos cadence and the seed that
/// makes the whole schedule reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed of the schedule's deterministic RNG. [`run_soak`] derives a
    /// distinct seed per `(job, schedule)` from this base.
    pub seed: u64,
    /// Chance (per 65536) an overridden prediction is bit-flipped.
    pub flip_outcome: u16,
    /// Chance (per 65536, rolled each chaos tick) a queue fill is dropped.
    pub drop_fill: u16,
    /// Chance (per 65536, rolled each chaos tick) a chain is evicted.
    pub evict_chain: u16,
    /// Chance (per 65536, rolled each chaos tick) of an HBT decay storm.
    pub decay_storm: u16,
    /// Chance (per 65536, per DCE response) the response is delayed.
    pub delay_mem: u16,
    /// Extra cycles a delayed DCE response is withheld.
    pub delay_cycles: u64,
    /// Cycles between structural chaos ticks (0 disables them).
    pub period: u64,
    /// Deliberately corrupt a prediction-queue pointer on every chaos
    /// tick — the CI fixture proving machine checks catch real damage.
    pub sabotage: bool,
}

impl Default for FaultSpec {
    /// The `--faults default` schedule: every fault class active at a
    /// rate that fires many times per quick run without drowning it.
    fn default() -> Self {
        FaultSpec {
            seed: 0xB12A_5EED,
            flip_outcome: rate_from_prob(0.02),
            drop_fill: rate_from_prob(0.10),
            evict_chain: rate_from_prob(0.10),
            decay_storm: rate_from_prob(0.02),
            delay_mem: rate_from_prob(0.05),
            delay_cycles: 48,
            period: 512,
            sabotage: false,
        }
    }
}

/// Converts a probability in `[0, 1]` to the 16-bit fixed-point rate.
#[must_use]
pub(crate) fn rate_from_prob(p: f64) -> u16 {
    (p.clamp(0.0, 1.0) * 65536.0).round().min(65535.0) as u16
}

impl FaultSpec {
    /// A schedule injecting nothing (useful as a parse base).
    #[must_use]
    pub fn none() -> Self {
        FaultSpec {
            seed: 0xB12A_5EED,
            flip_outcome: 0,
            drop_fill: 0,
            evict_chain: 0,
            decay_storm: 0,
            delay_mem: 0,
            delay_cycles: 48,
            period: 512,
            sabotage: false,
        }
    }

    /// Parses a `--faults` specification: `default` for the stock
    /// schedule, or a comma-separated `key=value` list over a silent
    /// base. Keys: `flip`, `drop`, `evict`, `decay`, `delaymem`
    /// (probabilities in `[0,1]`), `delay` (cycles), `period` (cycles),
    /// `seed` (u64), `sabotage` (`0`/`1`). Example:
    /// `flip=0.05,drop=0.2,period=256,seed=7`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending token and
    /// the accepted keys.
    pub fn parse(spec: &str) -> Result<Self, SimError> {
        if spec == "default" {
            return Ok(FaultSpec::default());
        }
        let mut out = FaultSpec::none();
        let bad = |token: &str, why: &str| {
            SimError::InvalidConfig(format!(
                "bad --faults token {token:?}: {why}; expected \"default\" or a \
                 comma list of flip/drop/evict/decay/delaymem=<prob 0..1>, \
                 delay/period/seed=<int>, sabotage=0|1"
            ))
        };
        for token in spec.split(',').filter(|t| !t.is_empty()) {
            let Some((key, value)) = token.split_once('=') else {
                return Err(bad(token, "missing '='"));
            };
            let prob = || -> Result<u16, SimError> {
                let p: f64 = value.parse().map_err(|_| bad(token, "not a probability"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(bad(token, "probability outside [0, 1]"));
                }
                Ok(rate_from_prob(p))
            };
            let int = || -> Result<u64, SimError> {
                value.parse().map_err(|_| bad(token, "not an integer"))
            };
            match key {
                "flip" => out.flip_outcome = prob()?,
                "drop" => out.drop_fill = prob()?,
                "evict" => out.evict_chain = prob()?,
                "decay" => out.decay_storm = prob()?,
                "delaymem" => out.delay_mem = prob()?,
                "delay" => out.delay_cycles = int()?,
                "period" => out.period = int()?,
                "seed" => out.seed = int()?,
                "sabotage" => out.sabotage = int()? != 0,
                _ => return Err(bad(token, "unknown key")),
            }
        }
        Ok(out)
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

    fn roll(&mut self, rate: u16) -> bool {
        rate > 0 && (self.next_rand() & 0xFFFF) < u64::from(rate)
    }

    /// Filters one cycle's memory responses: DCE-owned responses selected
    /// by the schedule are withheld for `delay_cycles`, and previously
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
            if br.owns_mem_request(r.id) && self.roll(self.spec.delay_mem) {
                self.stats.delayed_responses += 1;
                br.record_external_fault(cycle, 0, FaultKind::DelayMem as u64);
                self.held.push((cycle + self.spec.delay_cycles.max(1), r));
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

    /// The structural chaos of one cycle: on every `period`-th cycle,
    /// rolls each structural fault class and applies the ones that fire
    /// to the engine. Sabotage (the CI fixture's deliberate corruption) is
    /// re-applied every chaos tick so a flush between ticks cannot hide it
    /// from the next invariant sweep.
    pub(crate) fn chaos_tick(&mut self, cycle: u64, br: &mut BranchRunahead) {
        if self.spec.period == 0 || cycle == 0 || !cycle.is_multiple_of(self.spec.period) {
            return;
        }
        if self.spec.sabotage {
            br.chaos_sabotage();
        }
        if self.roll(self.spec.drop_fill) {
            self.stats.dropped_fills += 1;
            br.chaos_drop_next_fill();
            br.record_external_fault(cycle, 0, FaultKind::DropFill as u64);
        }
        if self.roll(self.spec.evict_chain) {
            let sel = self.next_rand();
            if br.chaos_evict_chain(sel) {
                self.stats.chain_evictions += 1;
                br.record_external_fault(cycle, 0, FaultKind::EvictChain as u64);
            }
        }
        if self.roll(self.spec.decay_storm) {
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
        if self.inj.roll(self.inj.spec.flip_outcome) {
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

/// The seed of schedule `k` for `job` under base spec seed `base`:
/// deterministic, distinct per `(job, k)`, replayable in isolation.
#[must_use]
pub fn schedule_seed(base: u64, job: &SimJob, k: u32) -> u64 {
    base ^ job
        .fingerprint()
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(k % 63)
        ^ u64::from(k + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
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
    let mut batch: Vec<SimJob> = Vec::with_capacity(jobs.len() * (schedules as usize + 1));
    let mut seeds: Vec<Option<u64>> = Vec::with_capacity(batch.capacity());
    for job in jobs {
        let mut reference = job.clone();
        reference.config.machine_check = true;
        reference.config.faults = None;
        batch.push(reference);
        seeds.push(None);
        for k in 0..schedules {
            let mut faulted = job.clone();
            faulted.config.machine_check = true;
            let mut s = spec;
            s.seed = schedule_seed(spec.seed, job, k);
            faulted.config.faults = Some(s);
            batch.push(faulted);
            seeds.push(Some(s.seed));
        }
    }

    let results = run_jobs_partial(&batch, threads);
    let mut report = SoakReport::default();
    // Reference fingerprints by job index into `jobs`.
    let mut references: HashMap<usize, (u64, u64)> = HashMap::new();
    let stride = schedules as usize + 1;
    for (i, (job, result)) in batch.iter().zip(results).enumerate() {
        let base_index = i / stride;
        let fault_seed = seeds[i];
        match result {
            Ok(r) => {
                let fp = r.core.retire_fingerprint;
                let mut status = "ok".to_string();
                if fault_seed.is_none() {
                    references.insert(base_index, (fp, r.core.retired_uops));
                } else {
                    match references.get(&base_index) {
                        Some(&(ref_fp, ref_retired)) => {
                            if fp != ref_fp || r.core.retired_uops != ref_retired {
                                let error = SimError::FaultedRun {
                                    job: job.label(),
                                    fault_seed: fault_seed.unwrap_or_default(),
                                    what: format!(
                                        "retired stream diverged from the fault-free run: \
                                         fingerprint {fp:#018x} vs {ref_fp:#018x}, \
                                         {} vs {ref_retired} uops retired",
                                        r.core.retired_uops
                                    ),
                                };
                                status = error.kind().to_string();
                                report.failures.push(SoakFailure {
                                    job: job.label(),
                                    fault_seed,
                                    error,
                                });
                            }
                        }
                        None => {
                            // The reference itself failed; every fault run
                            // of the job is unjudgeable.
                            let error = SimError::FaultedRun {
                                job: job.label(),
                                fault_seed: fault_seed.unwrap_or_default(),
                                what: "no reference run to compare against (it failed)".to_string(),
                            };
                            status = error.kind().to_string();
                            report.failures.push(SoakFailure {
                                job: job.label(),
                                fault_seed,
                                error,
                            });
                        }
                    }
                }
                report.runs.push(SoakRun {
                    job: job.label(),
                    fault_seed,
                    retire_fingerprint: Some(fp),
                    ipc: r.ipc(),
                    mpki: r.mpki(),
                    faults: r.faults.unwrap_or_default(),
                    status,
                });
            }
            Err(error) => {
                report.runs.push(SoakRun {
                    job: job.label(),
                    fault_seed,
                    retire_fingerprint: None,
                    ipc: 0.0,
                    mpki: 0.0,
                    faults: FaultStats::default(),
                    status: error.kind().to_string(),
                });
                report.failures.push(SoakFailure {
                    job: job.label(),
                    fault_seed,
                    error,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_default_and_overrides() {
        let d = FaultSpec::parse("default").unwrap();
        assert_eq!(d, FaultSpec::default());
        let s = FaultSpec::parse("flip=0.5,delay=7,period=128,seed=42,sabotage=1").unwrap();
        assert_eq!(s.flip_outcome, 32768);
        assert_eq!(s.delay_cycles, 7);
        assert_eq!(s.period, 128);
        assert_eq!(s.seed, 42);
        assert!(s.sabotage);
        assert_eq!(s.drop_fill, 0, "unset keys stay silent");
    }

    #[test]
    fn parse_rejects_bad_tokens() {
        for bad in ["flip", "flip=2.0", "nope=1", "delay=x"] {
            let err = FaultSpec::parse(bad).unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig(_)), "{bad}: {err:?}");
            assert!(err.to_string().contains("--faults"), "actionable: {err}");
        }
    }

    #[test]
    fn injector_replays_deterministically() {
        let spec = FaultSpec {
            flip_outcome: 30000,
            ..FaultSpec::default()
        };
        let mut a = FaultInjector::new(spec);
        let mut b = FaultInjector::new(spec);
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
        let mut other = job.clone();
        other.region_seed = 1;
        let s0 = schedule_seed(1, &job, 0);
        assert_eq!(s0, schedule_seed(1, &job, 0), "replayable");
        assert_ne!(s0, schedule_seed(1, &job, 1));
        assert_ne!(s0, schedule_seed(1, &other, 0));
        assert_ne!(s0, schedule_seed(2, &job, 0));
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
