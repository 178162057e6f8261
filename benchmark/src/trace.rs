//! Timing adapters and the traced cycle loop.
//!
//! [`run_traced`] drives one simulation through the simulator's public
//! per-cycle calls — `MemorySystem::tick_into`, `Core::tick` and
//! `BranchRunahead::tick` — in the order `System::try_run` makes them, and
//! brackets each call with a timestamp. Two adapters time the layers that
//! run inside `Core::tick`: [`TimedHooks`] wraps the Branch Runahead
//! engine's `CoreHooks`, and [`TimedPredictor`] wraps the baseline
//! predictor handed to `Core::new`. Neither changes what the simulator
//! does, so a traced run reproduces the untraced run's cycles and retire
//! fingerprint exactly; the benchmark checks that it does.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use br_core::BranchRunahead;
use br_isa::{CpuState, Machine, Pc};
use br_mem::MemorySystem;
use br_ooo::{
    BranchOutcome, Core, CoreHooks, FetchedBranch, MispredictInfo, NullHooks, RetiredUop,
    WrongPathUop,
};
use br_predictor::{ConditionalPredictor, Prediction, PredictorCheckpoint};
use br_sim::{RunResult, SimJob};
use br_workloads::WorkloadImage;

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Host nanoseconds since `t`.
fn ns_since(t: Instant) -> u64 {
    nanos(t.elapsed())
}

/// Host time and work of traced runs, by layer. Sums over runs add up
/// field by field.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated cycles of runs with Branch Runahead attached.
    pub br_cycles: u64,
    /// The whole cycle loop.
    pub loop_ns: u64,
    /// `MemorySystem::tick_into`.
    pub mem_ns: u64,
    /// `Core::tick`, including the hooks and the predictor it calls.
    pub core_tick_ns: u64,
    /// Baseline predictor calls made from `Core::tick`.
    pub predictor_ns: u64,
    /// Number of those predictor calls.
    pub predictor_calls: u64,
    /// `on_retire` and `on_branch_retire` (CEB, extraction, HBT, WPB).
    pub retire_hooks_ns: u64,
    /// `on_mispredict` (sync, WPB ROB walk, flushes).
    pub mispredict_hook_ns: u64,
    /// `override_prediction` and `on_branch_fetch` (prediction queues).
    pub fetch_hooks_ns: u64,
    /// `BranchRunahead::tick` (the Dependence Chain Engine).
    pub dce_tick_ns: u64,
    /// Live DCE chain instances summed over cycles (`live_state()`).
    pub live_instance_cycles: u64,
}

impl std::ops::AddAssign for Layers {
    fn add_assign(&mut self, o: Self) {
        self.cycles += o.cycles;
        self.br_cycles += o.br_cycles;
        self.loop_ns += o.loop_ns;
        self.mem_ns += o.mem_ns;
        self.core_tick_ns += o.core_tick_ns;
        self.predictor_ns += o.predictor_ns;
        self.predictor_calls += o.predictor_calls;
        self.retire_hooks_ns += o.retire_hooks_ns;
        self.mispredict_hook_ns += o.mispredict_hook_ns;
        self.fetch_hooks_ns += o.fetch_hooks_ns;
        self.dce_tick_ns += o.dce_tick_ns;
        self.live_instance_cycles += o.live_instance_cycles;
    }
}

impl Layers {
    /// `Core::tick` minus the time spent in hooks and predictor.
    #[must_use]
    pub fn ooo_self_ns(&self) -> u64 {
        self.core_tick_ns.saturating_sub(
            self.predictor_ns
                + self.retire_hooks_ns
                + self.mispredict_hook_ns
                + self.fetch_hooks_ns,
        )
    }

    /// The loop minus the three timed calls: loop control, the response
    /// buffer hand-off and the `live_state()` read.
    #[must_use]
    pub fn loop_other_ns(&self) -> u64 {
        self.loop_ns
            .saturating_sub(self.mem_ns + self.core_tick_ns + self.dce_tick_ns)
    }
}

/// A `CoreHooks` adapter that times each callback into the engine.
pub struct TimedHooks<'a> {
    br: &'a mut BranchRunahead,
    layers: &'a mut Layers,
}

impl CoreHooks for TimedHooks<'_> {
    fn override_prediction(&mut self, pc: Pc, base: bool, cycle: u64) -> Option<bool> {
        let t = Instant::now();
        let r = self.br.override_prediction(pc, base, cycle);
        self.layers.fetch_hooks_ns += ns_since(t);
        r
    }

    fn on_branch_fetch(&mut self, b: &FetchedBranch) {
        let t = Instant::now();
        self.br.on_branch_fetch(b);
        self.layers.fetch_hooks_ns += ns_since(t);
    }

    fn on_mispredict(
        &mut self,
        info: &MispredictInfo,
        wrong_path: &[WrongPathUop],
        cpu: &CpuState,
    ) {
        let t = Instant::now();
        self.br.on_mispredict(info, wrong_path, cpu);
        self.layers.mispredict_hook_ns += ns_since(t);
    }

    fn on_retire(&mut self, u: &RetiredUop) {
        let t = Instant::now();
        self.br.on_retire(u);
        self.layers.retire_hooks_ns += ns_since(t);
    }

    fn on_branch_retire(&mut self, b: &BranchOutcome) {
        let t = Instant::now();
        self.br.on_branch_retire(b);
        self.layers.retire_hooks_ns += ns_since(t);
    }
}

/// Predictor time and call count, published by [`TimedPredictor`] when the
/// core that owns it is dropped.
#[derive(Debug, Default)]
pub struct PredictorTotals {
    ns: AtomicU64,
    calls: AtomicU64,
}

/// Time and calls counted in plain cells (`checkpoint` takes `&self`).
#[derive(Default)]
struct Meter {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Meter {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns.set(self.ns.get() + ns_since(t));
        self.calls.set(self.calls.get() + 1);
        r
    }
}

/// A `ConditionalPredictor` adapter that times every call into the wrapped
/// predictor. The core owns it, so it publishes its totals on drop.
pub struct TimedPredictor {
    inner: Box<dyn ConditionalPredictor>,
    meter: Meter,
    out: Arc<PredictorTotals>,
}

impl TimedPredictor {
    /// Wraps `inner`; its totals land in `out` when the adapter drops.
    #[must_use]
    pub fn new(inner: Box<dyn ConditionalPredictor>, out: Arc<PredictorTotals>) -> Self {
        TimedPredictor {
            inner,
            meter: Meter::default(),
            out,
        }
    }
}

impl Drop for TimedPredictor {
    fn drop(&mut self) {
        self.out
            .ns
            .fetch_add(self.meter.ns.get(), Ordering::Relaxed);
        self.out
            .calls
            .fetch_add(self.meter.calls.get(), Ordering::Relaxed);
    }
}

impl ConditionalPredictor for TimedPredictor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict(&mut self, pc: Pc) -> Prediction {
        self.meter.time(|| self.inner.predict(pc))
    }

    fn update_history(&mut self, pc: Pc, taken: bool) {
        self.meter.time(|| self.inner.update_history(pc, taken));
    }

    fn checkpoint(&self) -> PredictorCheckpoint {
        self.meter.time(|| self.inner.checkpoint())
    }

    fn checkpoint_into(&self, cp: &mut PredictorCheckpoint) {
        self.meter.time(|| self.inner.checkpoint_into(cp));
    }

    fn restore(&mut self, cp: &PredictorCheckpoint) {
        self.meter.time(|| self.inner.restore(cp));
    }

    fn train(&mut self, pc: Pc, taken: bool, pred: &Prediction) {
        self.meter.time(|| self.inner.train(pc, taken, pred));
    }

    fn storage_kib(&self) -> f64 {
        self.inner.storage_kib()
    }
}

/// One traced simulation: its statistics, its layer times, and the host
/// seconds spent constructing the system.
pub struct Traced {
    /// Statistics in the shape `SimJob::try_execute` returns them.
    pub result: RunResult,
    /// Host time by layer.
    pub layers: Layers,
    /// Host seconds to construct core, memory system and engine.
    pub construct_s: f64,
}

/// Runs `job` on `image` through the traced loop. Mirrors `System::new`
/// and `System::try_run` for a configuration without telemetry, machine
/// checks or faults (the benchmark's jobs use none of them).
#[must_use]
pub fn run_traced(job: &SimJob, image: &WorkloadImage) -> Traced {
    let cfg = &job.config;
    let totals = Arc::new(PredictorTotals::default());
    let started = Instant::now();
    let predictor = TimedPredictor::new(cfg.predictor.build(), Arc::clone(&totals));
    let machine = Machine::new(image.memory.to_memory());
    let mut core = Core::new(
        cfg.core,
        Arc::clone(&image.program),
        machine,
        Box::new(predictor),
    );
    core.set_max_retired(job.max_retired);
    let mut mem = MemorySystem::new(cfg.memory);
    let mut br = cfg
        .runahead
        .map(|rc| BranchRunahead::new(rc, cfg.core.retire_width));
    let construct_s = started.elapsed().as_secs_f64();

    let mut layers = Layers::default();
    let mut responses = Vec::new();
    let loop_start = Instant::now();
    for cycle in 0..cfg.max_cycles {
        let t0 = Instant::now();
        mem.tick_into(cycle, &mut responses);
        let t1 = Instant::now();
        let report = match br.as_mut() {
            Some(br) => core.tick(
                &responses,
                &mut mem,
                &mut TimedHooks {
                    br,
                    layers: &mut layers,
                },
            ),
            None => core.tick(&responses, &mut mem, &mut NullHooks),
        };
        let t2 = Instant::now();
        let t3 = match br.as_mut() {
            Some(br) => {
                br.tick(cycle, core.machine(), &mut mem, &responses, &report);
                Instant::now()
            }
            None => t2,
        };
        layers.mem_ns += nanos(t1 - t0);
        layers.core_tick_ns += nanos(t2 - t1);
        layers.dce_tick_ns += nanos(t3 - t2);
        if let Some(br) = &br {
            layers.live_instance_cycles += br.live_state().dce_active as u64;
        }
        if report.done {
            break;
        }
    }
    layers.loop_ns = ns_since(loop_start);

    let core_stats = core.stats().clone();
    layers.cycles = core_stats.cycles;
    if br.is_some() {
        layers.br_cycles = core_stats.cycles;
    }
    drop(core);
    layers.predictor_ns = totals.ns.load(Ordering::Relaxed);
    layers.predictor_calls = totals.calls.load(Ordering::Relaxed);

    Traced {
        result: RunResult {
            core: core_stats,
            mem: mem.stats(),
            br: br.as_ref().map(BranchRunahead::stats),
            config_name: String::new(),
            telemetry: None,
            faults: None,
        },
        layers,
        construct_s,
    }
}
