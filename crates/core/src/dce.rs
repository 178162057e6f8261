//! The Dependence Chain Engine (§4.2, Figures 7 and 8).
//!
//! Executes dependence-chain instances out of order within a chain, with
//! chain-level parallelism across instances. The "window" — the number of
//! local register file / reservation station pairs — bounds how many
//! dynamic instances run concurrently. Global rename is modelled by
//! producer links: an instance reads live-in values from its producer
//! instance's (architectural) context, exactly the red/blue/orange
//! register-file linking of Figure 8.
//!
//! The engine shares the D-cache with the core and only uses ports the
//! core left idle this cycle; the Core-Only variant additionally executes
//! compute ops only in the core's idle issue slots.

use std::sync::Arc;

use br_isa::{ArchReg, CpuState, Flags, Machine, Pc, Width};
use br_mem::{MemResp, MemorySystem, ReqId, ReqSource};

use crate::chain::{ChainOp, ChainSrc, DependenceChain};
use crate::chain_cache::DependenceChainCache;
use crate::config::{BranchRunaheadConfig, InitiationMode};
use crate::pqueue::PredictionQueues;
use crate::stats::BrStats;

/// Where an op's source value comes from after dataflow analysis.
#[derive(Clone, Copy, Debug)]
enum SrcRef {
    Imm(i64),
    /// The chain's live-in value of an architectural register.
    LiveIn(ArchReg),
    /// The result of an earlier op in the same instance.
    Op(usize),
}

/// One byte per op: instances inline an op-state array, and a small state
/// keeps them cheap to move. ALU completion times live in the engine's
/// event list ([`DependenceChainEngine::alu_events`]), not here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpState {
    Waiting,
    Issued,
    MemPending,
    Done,
}

/// An op's resolved source references: at most two per op, stored inline
/// so a view never chases a per-op heap allocation.
#[derive(Clone, Copy, Debug)]
struct OpSrcs {
    refs: [SrcRef; 2],
    n: u8,
}

impl OpSrcs {
    fn as_slice(&self) -> &[SrcRef] {
        &self.refs[..usize::from(self.n)]
    }
}

/// Dataflow view of a chain: per-op source references and live-out
/// resolution, precomputed once per *chain* and shared by every instance
/// of it (the view cache keys on the chain's `Arc` identity).
#[derive(Clone, Debug)]
struct DataflowView {
    srcs: Vec<OpSrcs>,
    /// For each live-out `(arch, _)`: where its final value comes from.
    outs: Vec<(ArchReg, SrcRef)>,
    /// Index of the flag-producing cmp (the last one in the chain).
    flags_op: usize,
}

/// Per-local-reg resolution state while building a view. Local regs are
/// `u8`-indexed, so direct-indexed tables replace hash maps.
struct ResolveTables {
    /// Op index of the latest writer of each local, or `usize::MAX`.
    writer: [usize; 256],
    /// The live-in arch reg bound to each unwritten local, if any.
    live_in_of: [Option<ArchReg>; 256],
}

fn resolve_src(s: &ChainSrc, t: &ResolveTables) -> SrcRef {
    match s {
        ChainSrc::Imm(v) => SrcRef::Imm(*v),
        ChainSrc::Reg(l) => {
            let w = t.writer[usize::from(*l)];
            if w != usize::MAX {
                SrcRef::Op(w)
            } else {
                SrcRef::LiveIn(
                    t.live_in_of[usize::from(*l)].expect("unwritten local must be a live-in"),
                )
            }
        }
    }
}

fn build_dataflow(chain: &DependenceChain) -> DataflowView {
    let mut t = ResolveTables {
        writer: [usize::MAX; 256],
        live_in_of: [None; 256],
    };
    for (a, l) in &chain.live_ins {
        t.live_in_of[usize::from(*l)] = Some(*a);
    }
    let mut srcs = Vec::with_capacity(chain.ops.len());
    let mut flags_op = usize::MAX;
    for (i, op) in chain.ops.iter().enumerate() {
        let mut refs = OpSrcs {
            refs: [SrcRef::Imm(0); 2],
            n: 0,
        };
        let push = |r: SrcRef, refs: &mut OpSrcs| {
            refs.refs[usize::from(refs.n)] = r;
            refs.n += 1;
        };
        match op {
            ChainOp::Alu { src1, src2, .. } | ChainOp::Cmp { src1, src2 } => {
                push(resolve_src(src1, &t), &mut refs);
                push(resolve_src(src2, &t), &mut refs);
            }
            ChainOp::Mov { src, .. } => push(resolve_src(src, &t), &mut refs),
            ChainOp::Load { base, index, .. } => {
                if let Some(b) = base {
                    push(resolve_src(b, &t), &mut refs);
                }
                if let Some(x) = index {
                    push(resolve_src(x, &t), &mut refs);
                }
            }
        }
        srcs.push(refs);
        if let Some(d) = op.dst_reg() {
            t.writer[usize::from(d)] = i;
        }
        if matches!(op, ChainOp::Cmp { .. }) {
            flags_op = i;
        }
    }
    let outs = chain
        .live_outs
        .iter()
        .map(|(a, b)| (*a, resolve_src(b, &t)))
        .collect();
    DataflowView {
        srcs,
        outs,
        flags_op,
    }
}

/// Upper bound on ops per chain, sized for the largest `max-chain-len`
/// the Figure 13 sweep explores (the paper's budget is 16). Keeping op
/// state inline in the instance makes initiation allocation-free.
const MAX_CHAIN_OPS: usize = 32;

struct Instance {
    id: u64,
    chain: Arc<DependenceChain>,
    view: Arc<DataflowView>,
    op_state: [OpState; MAX_CHAIN_OPS],
    op_result: [u64; MAX_CHAIN_OPS],
    /// Bitmasks mirroring `op_state` (bit per op): ops not yet `Done`,
    /// ops still `Waiting`, ops in flight as `Issued`. They let the tick
    /// loops visit only ops that can actually make progress.
    undone: u32,
    waiting: u32,
    issued: u32,
    flags: Option<Flags>,
    /// Architectural context inherited from the producer (or the core at
    /// a sync). `ctx_ready[r]` gates reads.
    ctx: [u64; 16],
    ctx_ready: [bool; 16],
    /// Number of `ctx` entries still not ready (cached to skip the pull
    /// scan for satisfied instances — the Big window makes this hot).
    ctx_missing: u8,
    producer: Option<u64>,
    outcome: Option<bool>,
    /// Prediction-queue slot this instance fills.
    slot: Option<(Pc, u64)>,
    /// Required producer outcome (predictive initiation); `None` when the
    /// initiation was unconditional (sync, wildcard, outcome-based).
    assumption: Option<bool>,
    /// Chains spawned from this instance: (chain ptr key, assumption,
    /// spawned instance id).
    spawned: Vec<(usize, Option<bool>, u64)>,
    /// Outcome-based spawn performed.
    spawn_done: bool,
    /// Successor initiations deferred on window/queue pressure, with the
    /// cycle each entry was deferred at (entries time out individually).
    pending_spawn: Vec<(Arc<DependenceChain>, Option<bool>, u64)>,
    /// Pre-allocated queue slots for non-wildcard successor chains,
    /// resolved when this instance's outcome is known: `(chain, slot,
    /// required outcome)`. Allocating at initiation keeps every queue in
    /// program order even though instances complete out of order (§4.2:
    /// "slots must be allocated at initiation").
    placeholders: Vec<(Arc<DependenceChain>, u64, bool)>,
    dead: bool,
}

/// What happens to the queue slots of a killed instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Disposition {
    /// The corresponding branch executions will still happen: slots stay
    /// consumable (Late) so iteration correspondence is preserved.
    Dead,
    /// The corresponding executions will never happen (wrong-assumption
    /// speculation): fetch must skip the slots entirely.
    Cancelled,
}

impl Instance {
    fn completed(&self) -> bool {
        self.outcome.is_some()
    }

    /// Takes the instance's growable lists for reuse, cleared (dropping
    /// their `Arc`s now rather than when the pool entry is next used).
    fn recycle_vecs(&mut self) -> InstanceVecs {
        let mut spawned = std::mem::take(&mut self.spawned);
        let mut pending_spawn = std::mem::take(&mut self.pending_spawn);
        let mut placeholders = std::mem::take(&mut self.placeholders);
        spawned.clear();
        pending_spawn.clear();
        placeholders.clear();
        (spawned, pending_spawn, placeholders)
    }

    fn chain_key(c: &Arc<DependenceChain>) -> usize {
        Arc::as_ptr(c) as usize
    }

    /// Resolves a source reference to a value, if available.
    fn value_of(&self, s: SrcRef) -> Option<u64> {
        match s {
            SrcRef::Imm(v) => Some(v as u64),
            SrcRef::LiveIn(r) => self.ctx_ready[r.index()].then(|| self.ctx[r.index()]),
            SrcRef::Op(i) => (self.op_state[i] == OpState::Done).then(|| self.op_result[i]),
        }
    }

    /// This instance's end-of-chain value for arch reg `r`, if known:
    /// chain live-out if written, else the inherited context.
    fn arch_value(&self, r: ArchReg) -> Option<u64> {
        if let Some((_, src)) = self.view.outs.iter().find(|(a, _)| *a == r) {
            return self.value_of(*src);
        }
        self.ctx_ready[r.index()].then(|| self.ctx[r.index()])
    }
}

/// How an initiation request fared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Initiate {
    Ok(u64),
    WindowFull,
    QueueFull,
}

/// Reusable tick-path buffers owned by the engine and cleared per use, so
/// steady-state cycles never touch the heap. Buffers consumed while
/// `&mut self` methods run are `mem::take`n and restored (keeping their
/// capacity) rather than reallocated.
#[derive(Default)]
struct Scratch {
    /// Context pulls gathered in phase 2: `(inst idx, reg, val)`.
    pulls: Vec<(usize, usize, u64)>,
    /// Instances completing this cycle.
    completed: Vec<u64>,
    /// Instances with deferred spawns to retry.
    stuck: Vec<u64>,
    /// Producers blocked from freeing by a context-starved dependent.
    blocked: Vec<u64>,
    /// Work queue for `kill_recursive`.
    kill_work: Vec<u64>,
    /// Work queue for `spawn_early`.
    spawn_work: Vec<u64>,
    /// Wildcard / non-wildcard successor chains in `spawn_early`.
    chains_wild: Vec<Arc<DependenceChain>>,
    chains_nonwild: Vec<Arc<DependenceChain>>,
    /// Chain-cache lookup buffer for `spawn_early` (live across the
    /// buffers above, so it needs its own storage).
    spawn_lookup: Vec<Arc<DependenceChain>>,
    /// Chain-cache lookup buffer for `spawn_at_completion` / `sync_initiate`.
    lookup: Vec<Arc<DependenceChain>>,
    /// Wrong- then right-assumption successor ids in `spawn_at_completion`.
    judged: Vec<u64>,
    /// Newly spawned instance ids in `spawn_at_completion`.
    newly: Vec<u64>,
    /// Deferred-spawn entries being retried in tick phase 6.
    pending: Vec<(Arc<DependenceChain>, Option<bool>, u64)>,
}

/// The three per-instance growable lists, recycled between activations so
/// steady-state initiation performs no heap allocation.
type InstanceVecs = (
    Vec<(usize, Option<bool>, u64)>,
    Vec<(Arc<DependenceChain>, Option<bool>, u64)>,
    Vec<(Arc<DependenceChain>, u64, bool)>,
);

/// The Dependence Chain Engine.
pub struct DependenceChainEngine {
    cfg: BranchRunaheadConfig,
    instances: Vec<Instance>,
    next_id: u64,
    /// Outstanding DCE loads: `(req id, instance id, op idx, addr)`.
    /// Bounded by the DCE MSHR budget, so a linear scan beats hashing.
    pending_mem: Vec<(ReqId, u64, usize, u64)>,
    /// 3-bit initiation counters (Predictive mode, §4.1), keyed by branch
    /// PC. Hard branches are few (HBT-bounded): linear scan, no hashing.
    init_counters: Vec<(Pc, u8)>,
    /// Dataflow views built once per chain and shared by its instances,
    /// keyed by `Arc` identity (holding the `Arc` keeps the key stable).
    view_cache: Vec<(usize, Arc<DependenceChain>, Arc<DataflowView>)>,
    /// Live (non-dead) instance count, maintained incrementally so the
    /// per-initiation window check is O(1).
    live: usize,
    /// In-flight ALU ops: `(done_at, instance id, op idx)`. Bounded by the
    /// ALU issue rate times the max op latency; scanning it beats storing
    /// a completion cycle per op per instance.
    alu_events: Vec<(u64, u64, u8)>,
    /// Recycled `spawned`/`pending_spawn`/`placeholders` buffers from
    /// freed instances, reused by the next initiations.
    vec_pool: Vec<InstanceVecs>,
    scratch: Scratch,
    cycle: u64,
}

/// Cap on cached dataflow views; on overflow the cache resets (views are
/// cheap to rebuild and the big config's chain cache holds 1024 chains).
const VIEW_CACHE_CAP: usize = 2048;

impl std::fmt::Debug for DependenceChainEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DependenceChainEngine")
            .field("instances", &self.instances.len())
            .field("outstanding_loads", &self.pending_mem.len())
            .finish()
    }
}

impl DependenceChainEngine {
    /// Creates an engine for `cfg`.
    #[must_use]
    pub fn new(cfg: BranchRunaheadConfig) -> Self {
        DependenceChainEngine {
            cfg,
            instances: Vec::new(),
            next_id: 0,
            pending_mem: Vec::new(),
            init_counters: Vec::new(),
            view_cache: Vec::new(),
            live: 0,
            alu_events: Vec::new(),
            vec_pool: Vec::new(),
            scratch: Scratch::default(),
            cycle: 0,
        }
    }

    /// The (cached) dataflow view for `chain`. The cache is sorted by key
    /// for binary-search hits; a view is a pure function of its chain, so
    /// cache resets never change observable behaviour.
    fn dataflow_view(&mut self, chain: &Arc<DependenceChain>) -> Arc<DataflowView> {
        let key = Instance::chain_key(chain);
        match self.view_cache.binary_search_by_key(&key, |(k, _, _)| *k) {
            Ok(i) => Arc::clone(&self.view_cache[i].2),
            Err(i) => {
                let view = Arc::new(build_dataflow(chain));
                if self.view_cache.len() >= VIEW_CACHE_CAP {
                    self.view_cache.clear();
                    self.view_cache
                        .push((key, Arc::clone(chain), Arc::clone(&view)));
                } else {
                    self.view_cache
                        .insert(i, (key, Arc::clone(chain), Arc::clone(&view)));
                }
                view
            }
        }
    }

    /// Live (non-dead) instance count.
    #[must_use]
    pub fn active_instances(&self) -> usize {
        debug_assert_eq!(self.live, self.instances.iter().filter(|i| !i.dead).count());
        self.live
    }

    /// Whether memory request `id` is an outstanding DCE load (the fault
    /// harness uses this to delay only DCE traffic).
    #[must_use]
    pub fn owns_request(&self, id: ReqId) -> bool {
        self.pending_mem.iter().any(|(r, ..)| *r == id)
    }

    /// Validates structural invariants: the live-instance window bound,
    /// the DCE MSHR bound on outstanding loads, and initiation counters
    /// within their 3-bit range.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let recount = self.instances.iter().filter(|i| !i.dead).count();
        if self.live != recount {
            return Err(format!(
                "dce: live counter {} disagrees with recount {}",
                self.live, recount
            ));
        }
        if !self.instances.is_sorted_by_key(|i| i.id) {
            return Err("dce: instances not sorted by id".to_string());
        }
        if self.active_instances() > self.cfg.window_instances {
            return Err(format!(
                "dce: {} live instances exceed window {}",
                self.active_instances(),
                self.cfg.window_instances
            ));
        }
        if self.pending_mem.len() > self.cfg.dce_mshrs {
            return Err(format!(
                "dce: {} outstanding loads exceed {} MSHRs",
                self.pending_mem.len(),
                self.cfg.dce_mshrs
            ));
        }
        for (pc, c) in &self.init_counters {
            if *c > 7 {
                return Err(format!(
                    "dce[{pc:#x}]: initiation counter {c} exceeds 3-bit range"
                ));
            }
        }
        Ok(())
    }

    /// Updates the per-branch 3-bit initiation counter with a resolved
    /// outcome.
    pub fn train_init_counter(&mut self, pc: Pc, taken: bool) {
        let i = self
            .init_counters
            .iter()
            .position(|(p, _)| *p == pc)
            .unwrap_or_else(|| {
                self.init_counters.push((pc, 4));
                self.init_counters.len() - 1
            });
        let c = &mut self.init_counters[i].1;
        if taken {
            *c = (*c + 1).min(7);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    fn predict_init(&self, pc: Pc) -> bool {
        self.init_counters
            .iter()
            .find(|(p, _)| *p == pc)
            .map_or(4, |(_, c)| *c)
            >= 4
    }

    /// Flushes every instance (synchronization).
    pub fn flush_all(&mut self, queues: &mut PredictionQueues, stats: &mut BrStats) {
        for inst in &mut self.instances {
            if !inst.dead {
                inst.dead = true;
                stats.instances_flushed += 1;
                if let Some((pc, slot)) = inst.slot {
                    queues.kill(pc, slot);
                }
                for (chain, slot, _) in &inst.placeholders {
                    queues.kill(chain.branch_pc, *slot);
                }
            }
        }
        self.instances.clear();
        self.pending_mem.clear();
        self.alu_events.clear();
        self.live = 0;
    }

    fn kill_recursive(
        &mut self,
        id: u64,
        disposition: Disposition,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
    ) {
        let mut work = std::mem::take(&mut self.scratch.kill_work);
        work.clear();
        work.push(id);
        while let Some(cur) = work.pop() {
            let mut producer = None;
            if let Some(ci) = self.find(cur) {
                let inst = &mut self.instances[ci];
                if !inst.dead {
                    inst.dead = true;
                    self.live -= 1;
                    stats.instances_flushed += 1;
                    if let Some((pc, slot)) = inst.slot {
                        match disposition {
                            Disposition::Dead => queues.kill(pc, slot),
                            Disposition::Cancelled => queues.cancel(pc, slot),
                        }
                    }
                    // Placeholder slots of a cancelled lineage correspond
                    // to executions that will never happen; a flushed
                    // (Dead) lineage's placeholders stay consumable.
                    for (chain, slot, _) in &inst.placeholders {
                        match disposition {
                            Disposition::Dead => queues.kill(chain.branch_pc, *slot),
                            Disposition::Cancelled => queues.cancel(chain.branch_pc, *slot),
                        }
                    }
                    producer = inst.producer;
                }
            }
            for inst in &self.instances {
                if inst.producer == Some(cur) && !inst.dead {
                    work.push(inst.id);
                }
            }
            // Forget the killed instance in its producer's spawn record so
            // a later outcome can legitimately respawn the chain (only the
            // producer ever records `cur` in `spawned`).
            if let Some(pi) = producer.and_then(|p| self.find(p)) {
                self.instances[pi].spawned.retain(|(_, _, sid)| *sid != cur);
            }
        }
        let pool = &mut self.vec_pool;
        self.instances.retain_mut(|i| {
            if i.dead {
                pool.push(Instance::recycle_vecs(i));
            }
            !i.dead
        });
        self.scratch.kill_work = work;
    }

    /// Index of instance `id`. Instances are created with ascending ids
    /// and only removed by order-preserving `retain`, so the vector is
    /// always id-sorted and a binary search suffices.
    fn find(&self, id: u64) -> Option<usize> {
        self.instances.binary_search_by_key(&id, |i| i.id).ok()
    }

    /// Initiates a chain instance. `producer` is `None` for a core sync.
    fn initiate(
        &mut self,
        chain: &Arc<DependenceChain>,
        producer: Option<u64>,
        cpu: Option<&CpuState>,
        assumption: Option<bool>,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
    ) -> Initiate {
        if self.active_instances() >= self.cfg.window_instances {
            return Initiate::WindowFull;
        }
        let Some(slot) = queues.allocate_slot(chain.branch_pc) else {
            return Initiate::QueueFull;
        };
        self.initiate_with_slot(chain, producer, cpu, assumption, slot, stats)
    }

    /// Initiates a chain instance filling a pre-allocated queue slot.
    fn initiate_with_slot(
        &mut self,
        chain: &Arc<DependenceChain>,
        producer: Option<u64>,
        cpu: Option<&CpuState>,
        assumption: Option<bool>,
        slot: u64,
        stats: &mut BrStats,
    ) -> Initiate {
        if self.active_instances() >= self.cfg.window_instances {
            return Initiate::WindowFull;
        }
        let id = self.next_id;
        self.next_id += 1;
        let view = self.dataflow_view(chain);
        let n = chain.ops.len();
        assert!(n <= MAX_CHAIN_OPS, "chain exceeds MAX_CHAIN_OPS");
        let all_ops: u32 = if n == 32 { u32::MAX } else { (1 << n) - 1 };
        let mut ctx = [0u64; 16];
        let mut ctx_ready = [false; 16];
        let mut ctx_missing = 16u8;
        if let Some(cpu) = cpu {
            ctx.copy_from_slice(&cpu.regs);
            ctx_ready = [true; 16];
            ctx_missing = 0;
        }
        let (spawned, pending_spawn, placeholders) = self.vec_pool.pop().unwrap_or_default();
        self.instances.push(Instance {
            id,
            chain: Arc::clone(chain),
            view,
            op_state: [OpState::Waiting; MAX_CHAIN_OPS],
            op_result: [0; MAX_CHAIN_OPS],
            undone: all_ops,
            waiting: all_ops,
            issued: 0,
            flags: None,
            ctx,
            ctx_ready,
            ctx_missing,
            producer,
            outcome: None,
            slot: Some((chain.branch_pc, slot)),
            assumption,
            spawned,
            spawn_done: false,
            pending_spawn,
            placeholders,
            dead: false,
        });
        self.live += 1;
        stats.instances_initiated += 1;
        debug_assert!(
            self.instances
                .last()
                .is_some_and(|i| i.assumption == assumption),
            "assumption recorded on the new instance"
        );
        Initiate::Ok(id)
    }

    /// Synchronization entry point: a core misprediction on `pc` resolved
    /// to `outcome`; live-ins are copied from the restored register file
    /// (§4.1 "Entering Runahead Mode").
    pub fn sync_initiate(
        &mut self,
        pc: Pc,
        outcome: bool,
        cpu: &CpuState,
        cache: &mut DependenceChainCache,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
    ) {
        stats.syncs += 1;
        let mut chains = std::mem::take(&mut self.scratch.lookup);
        cache.lookup_into(pc, outcome, &mut chains);
        for chain in &chains {
            if let Initiate::Ok(id) = self.initiate(chain, None, Some(cpu), None, queues, stats) {
                self.spawn_early(id, cache, queues, stats);
            }
        }
        self.scratch.lookup = chains;
    }

    /// Window slots kept free of the eager wildcard cascade so that
    /// outcome-triggered spawns (guarded chains) can always enter.
    fn spawn_reserve(&self) -> usize {
        (self.cfg.window_instances / 8).max(2)
    }

    /// Early (initiation-time) successor spawning for wildcard chains and,
    /// in Predictive mode, predicted-outcome chains.
    fn spawn_early(
        &mut self,
        id: u64,
        cache: &mut DependenceChainCache,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
    ) {
        if self.cfg.initiation == InitiationMode::NonSpeculative {
            return;
        }
        // Work queue: spawning can cascade (self-triggering chains). The
        // cascade's *instance creation* stops short of the full window
        // (spawn_reserve) but placeholder slot allocation always proceeds
        // (slots cost no window space and must be allocated in program
        // order).
        let reserve = self.spawn_reserve();
        let mut work = std::mem::take(&mut self.scratch.spawn_work);
        work.clear();
        work.push(id);
        let mut to_spawn = std::mem::take(&mut self.scratch.chains_wild);
        let mut non_wild = std::mem::take(&mut self.scratch.chains_nonwild);
        let mut looked = std::mem::take(&mut self.scratch.spawn_lookup);
        while let Some(pid) = work.pop() {
            let Some(pidx) = self.find(pid) else { continue };
            let trigger_pc = self.instances[pidx].chain.branch_pc;
            if !self.instances[pidx].spawned.is_empty()
                || !self.instances[pidx].placeholders.is_empty()
            {
                continue; // early spawning already performed for pid
            }
            // Wildcard successors initiate immediately (they run no matter
            // how the trigger resolves).
            to_spawn.clear();
            non_wild.clear();
            cache.lookup_into(trigger_pc, true, &mut looked);
            for chain in looked.drain(..) {
                if chain.tag.is_wildcard() {
                    to_spawn.push(chain);
                } else {
                    non_wild.push(chain);
                }
            }
            cache.lookup_into(trigger_pc, false, &mut looked);
            for chain in looked.drain(..) {
                if !chain.tag.is_wildcard() {
                    non_wild.push(chain);
                }
            }
            for chain in to_spawn.drain(..) {
                let key = Instance::chain_key(&chain);
                let room = self.active_instances() + reserve <= self.cfg.window_instances;
                let attempt = if room {
                    self.initiate(&chain, Some(pid), None, None, queues, stats)
                } else {
                    Initiate::WindowFull
                };
                match attempt {
                    Initiate::Ok(nid) => {
                        if let Some(pidx) = self.find(pid) {
                            self.instances[pidx].spawned.push((key, None, nid));
                        }
                        work.push(nid);
                    }
                    Initiate::WindowFull | Initiate::QueueFull => {
                        if let Some(pidx) = self.find(pid) {
                            let at = self.cycle;
                            self.instances[pidx].pending_spawn.push((chain, None, at));
                        }
                    }
                }
            }
            // Non-wildcard successors get their queue slots NOW (program
            // order). Predictive mode also starts the predicted ones; the
            // rest wait as placeholders for the trigger outcome.
            let predicted = self.predict_init(trigger_pc);
            for chain in non_wild.drain(..) {
                let key = Instance::chain_key(&chain);
                let required = chain.tag.outcome.expect("non-wildcard tag");
                let Some(slot) = queues.allocate_slot(chain.branch_pc) else {
                    continue; // queue full: lose this iteration's coverage
                };
                let speculate = self.cfg.initiation == InitiationMode::Predictive
                    && required == predicted
                    && self.active_instances() + reserve <= self.cfg.window_instances;
                if speculate {
                    match self.initiate_with_slot(
                        &chain,
                        Some(pid),
                        None,
                        Some(required),
                        slot,
                        stats,
                    ) {
                        Initiate::Ok(nid) => {
                            if let Some(pidx) = self.find(pid) {
                                self.instances[pidx]
                                    .spawned
                                    .push((key, Some(required), nid));
                            }
                            work.push(nid);
                            continue;
                        }
                        _ => { /* fall through to placeholder */ }
                    }
                }
                if let Some(pidx) = self.find(pid) {
                    self.instances[pidx]
                        .placeholders
                        .push((chain, slot, required));
                } else {
                    queues.kill(chain.branch_pc, slot);
                }
            }
        }
        self.scratch.spawn_work = work;
        self.scratch.chains_wild = to_spawn;
        self.scratch.chains_nonwild = non_wild;
        self.scratch.spawn_lookup = looked;
    }

    /// Outcome-time successor handling: kill wrong-assumption speculative
    /// successors, then spawn the chains matching the real outcome.
    fn spawn_at_completion(
        &mut self,
        id: u64,
        cache: &mut DependenceChainCache,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
    ) {
        let Some(idx) = self.find(id) else { return };
        let outcome = self.instances[idx].outcome.expect("completed");
        let trigger_pc = self.instances[idx].chain.branch_pc;

        // Flush mispredicted speculative successors. Their (and their
        // descendants') queue slots are *cancelled*: those branch
        // executions never happen on the correct path.
        let mut judged = std::mem::take(&mut self.scratch.judged);
        judged.clear();
        judged.extend(
            self.instances[idx]
                .spawned
                .iter()
                .filter(|(_, a, _)| a.is_some_and(|a| a != outcome))
                .map(|(_, _, sid)| *sid),
        );
        for &sid in &judged {
            self.kill_recursive(sid, Disposition::Cancelled, queues, stats);
        }
        // Validate the surviving speculative successors: their assumption
        // held, so they may now complete and be freed normally.
        let Some(own) = self.find(id) else {
            self.scratch.judged = judged;
            return;
        };
        judged.clear();
        judged.extend(
            self.instances[own]
                .spawned
                .iter()
                .filter(|(_, a, _)| a.is_some())
                .map(|(_, _, sid)| *sid),
        );
        for &sid in &judged {
            if let Some(sidx) = self.find(sid) {
                self.instances[sidx].assumption = None;
            }
        }
        self.scratch.judged = judged;

        let mut newly = std::mem::take(&mut self.scratch.newly);
        newly.clear();

        // Resolve placeholder slots: matching chains start now (into their
        // pre-allocated, correctly ordered slots); non-matching slots are
        // cancelled so fetch skips them.
        let placeholders = {
            let Some(idx) = self.find(id) else {
                self.scratch.newly = newly;
                return;
            };
            std::mem::take(&mut self.instances[idx].placeholders)
        };
        for (chain, slot, required) in placeholders {
            if required != outcome {
                queues.cancel(chain.branch_pc, slot);
                continue;
            }
            let key = Instance::chain_key(&chain);
            let mut attempt = self.initiate_with_slot(&chain, Some(id), None, None, slot, stats);
            if attempt == Initiate::WindowFull {
                // Outcome-triggered successors are architecturally required
                // for continuous execution; preempt the youngest (furthest
                // ahead, least valuable) speculative instance.
                if self.preempt_youngest(id, queues, stats) {
                    attempt = self.initiate_with_slot(&chain, Some(id), None, None, slot, stats);
                }
            }
            match attempt {
                Initiate::Ok(nid) => {
                    if let Some(idx) = self.find(id) {
                        self.instances[idx].spawned.push((key, None, nid));
                    }
                    newly.push(nid);
                }
                _ => queues.kill(chain.branch_pc, slot),
            }
        }

        // Non-speculative mode does all successor work here (instances are
        // serial, so completion order *is* program order). The speculative
        // modes still extend *wildcard* lineages here: the early cascade
        // stops short of the window (spawn_reserve), so the lineage tail
        // grows at completion — and only the tail can lack a spawned
        // successor, so queue order is preserved.
        {
            let mut looked = std::mem::take(&mut self.scratch.lookup);
            cache.lookup_into(trigger_pc, outcome, &mut looked);
            for chain in looked.drain(..) {
                if !(self.cfg.initiation == InitiationMode::NonSpeculative
                    || chain.tag.is_wildcard())
                {
                    continue;
                }
                let key = Instance::chain_key(&chain);
                let Some(idx) = self.find(id) else { break };
                let already = self.instances[idx]
                    .spawned
                    .iter()
                    .any(|(k, _, _)| *k == key);
                let pending = self.instances[idx]
                    .pending_spawn
                    .iter()
                    .any(|(c, _, _)| Instance::chain_key(c) == key);
                if already || pending {
                    continue;
                }
                let room = self.cfg.initiation == InitiationMode::NonSpeculative
                    || self.active_instances() + self.spawn_reserve() <= self.cfg.window_instances;
                let attempt = if room {
                    self.initiate(&chain, Some(id), None, None, queues, stats)
                } else {
                    Initiate::WindowFull
                };
                match attempt {
                    Initiate::Ok(nid) => {
                        if let Some(idx) = self.find(id) {
                            self.instances[idx].spawned.push((key, None, nid));
                        }
                        newly.push(nid);
                    }
                    Initiate::WindowFull | Initiate::QueueFull => {
                        if let Some(idx) = self.find(id) {
                            let at = self.cycle;
                            self.instances[idx].pending_spawn.push((chain, None, at));
                        }
                    }
                }
            }
            self.scratch.lookup = looked;
        }

        if let Some(idx) = self.find(id) {
            self.instances[idx].spawn_done = true;
        }
        for &nid in &newly {
            self.spawn_early(nid, cache, queues, stats);
        }
        self.scratch.newly = newly;
    }

    /// Kills the youngest live, uncompleted *leaf* instance other than
    /// `exclude`. Restricting to leaves (no live successors) guarantees
    /// the kill cannot cascade into `exclude` or other useful work — a
    /// running ancestor may have already spawned completed descendants.
    /// Returns whether a slot was freed.
    fn preempt_youngest(
        &mut self,
        exclude: u64,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
    ) -> bool {
        // Rare path (window-full outcome spawns): a quadratic scan over a
        // window-bounded set beats building a hash set per call.
        let has_successor = |id: u64| {
            self.instances
                .iter()
                .any(|i| !i.dead && i.producer == Some(id))
        };
        let victim = self
            .instances
            .iter()
            .filter(|i| !i.dead && !i.completed() && i.id != exclude && !has_successor(i.id))
            .map(|i| i.id)
            .max();
        match victim {
            Some(v) => {
                self.kill_recursive(v, Disposition::Dead, queues, stats);
                true
            }
            None => false,
        }
    }

    /// Advances the engine one cycle.
    #[allow(clippy::too_many_arguments)]
    pub fn tick(
        &mut self,
        cycle: u64,
        machine: &Machine,
        mem: &mut MemorySystem,
        responses: &[MemResp],
        free_load_ports: usize,
        free_issue_slots: usize,
        cache: &mut DependenceChainCache,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
    ) {
        self.cycle = cycle;

        // 1. Memory completions: read the value *now* (arrival time).
        for r in responses {
            let pos = self.pending_mem.iter().position(|(rid, ..)| *rid == r.id);
            if let Some(pos) = pos {
                let (_, iid, op_idx, addr) = self.pending_mem.swap_remove(pos);
                if let Some(idx) = self.find(iid) {
                    let inst = &mut self.instances[idx];
                    if inst.op_state[op_idx] == OpState::MemPending {
                        let (width, signed) = match inst.chain.ops[op_idx] {
                            ChainOp::Load { width, signed, .. } => (width, signed),
                            _ => (Width::B8, false),
                        };
                        let raw = machine.memory().read(addr, width);
                        inst.op_result[op_idx] = if signed { width.sign_extend(raw) } else { raw };
                        inst.op_state[op_idx] = OpState::Done;
                        inst.undone &= !(1 << op_idx);
                    }
                }
            }
        }

        // 2. Context pulls: completed-or-running instances resolve their
        // live-ins (and, when completed, their full pass-through context)
        // from their producer chain. Two-phase to satisfy the borrow
        // checker: gather reads, then apply.
        let mut pulls = std::mem::take(&mut self.scratch.pulls); // (inst idx, reg, val)
        pulls.clear();
        for (i, inst) in self.instances.iter().enumerate() {
            if inst.dead || inst.ctx_missing == 0 {
                continue;
            }
            let Some(pid) = inst.producer else { continue };
            let Some(pidx) = self.find(pid) else { continue };
            // Which regs do we still need? Live-ins always; all 16 once
            // completed (so successors can pass through and the producer
            // can be freed).
            let want_all = inst.completed();
            for r in ArchReg::gprs() {
                if inst.ctx_ready[r.index()] {
                    continue;
                }
                let needed = want_all || inst.chain.live_in_local(r).is_some();
                if !needed {
                    continue;
                }
                if let Some(v) = self.instances[pidx].arch_value(r) {
                    pulls.push((i, r.index(), v));
                }
            }
        }
        for &(i, r, v) in &pulls {
            let inst = &mut self.instances[i];
            if !inst.ctx_ready[r] {
                inst.ctx[r] = v;
                inst.ctx_ready[r] = true;
                inst.ctx_missing -= 1;
            }
        }
        self.scratch.pulls = pulls;

        // 3. Issue ready ops.
        let mut alu_budget = if self.cfg.dce_alus > 0 {
            self.cfg.dce_alus
        } else {
            free_issue_slots
        };
        let mut load_budget = free_load_ports;
        for idx in 0..self.instances.len() {
            if alu_budget == 0 && load_budget == 0 {
                break;
            }
            if self.instances[idx].dead || self.instances[idx].completed() {
                continue;
            }
            let mut wm = self.instances[idx].waiting;
            while wm != 0 {
                let op_idx = wm.trailing_zeros() as usize;
                wm &= wm - 1;
                // In-order ablation: an op may only issue when every older
                // op in the chain has at least issued.
                if self.cfg.dce_in_order && self.instances[idx].waiting & ((1 << op_idx) - 1) != 0 {
                    break;
                }
                let ready = self.instances[idx].view.srcs[op_idx]
                    .as_slice()
                    .iter()
                    .all(|s| self.instances[idx].value_of(*s).is_some());
                if !ready {
                    continue;
                }
                let inst = &self.instances[idx];
                let op = inst.chain.ops[op_idx];
                if op.is_load() {
                    if load_budget == 0 || self.pending_mem.len() >= self.cfg.dce_mshrs {
                        continue;
                    }
                    let ChainOp::Load {
                        base,
                        index,
                        scale,
                        disp,
                        ..
                    } = op
                    else {
                        unreachable!()
                    };
                    let refs = inst.view.srcs[op_idx];
                    let mut it = refs.as_slice().iter();
                    let b = base
                        .map(|_| inst.value_of(*it.next().expect("base ref")).expect("ready"))
                        .unwrap_or(0);
                    let x = index
                        .map(|_| {
                            inst.value_of(*it.next().expect("index ref"))
                                .expect("ready")
                        })
                        .unwrap_or(0);
                    let addr = b
                        .wrapping_add(x.wrapping_mul(u64::from(scale)))
                        .wrapping_add(disp as u64);
                    let iid = inst.id;
                    match mem.request(addr, false, ReqSource::Dce, cycle) {
                        Ok(req) => {
                            self.pending_mem.push((req, iid, op_idx, addr));
                            self.instances[idx].op_state[op_idx] = OpState::MemPending;
                            self.instances[idx].waiting &= !(1 << op_idx);
                            load_budget -= 1;
                            stats.dce_uops += 1;
                            stats.dce_loads += 1;
                        }
                        Err(_) => continue,
                    }
                } else {
                    if alu_budget == 0 {
                        continue;
                    }
                    let lat = op.latency();
                    let iid = self.instances[idx].id;
                    self.alu_events.push((cycle + lat, iid, op_idx as u8));
                    self.instances[idx].op_state[op_idx] = OpState::Issued;
                    self.instances[idx].waiting &= !(1 << op_idx);
                    self.instances[idx].issued |= 1 << op_idx;
                    alu_budget -= 1;
                    stats.dce_uops += 1;
                }
            }
        }

        // 4. Compute completions: drain due ALU events (stale events for
        // killed/flushed instances fall out via the `find` miss).
        let mut ev = std::mem::take(&mut self.alu_events);
        let mut kept = 0;
        for k in 0..ev.len() {
            let (done_at, iid, op8) = ev[k];
            if done_at > cycle {
                ev[kept] = ev[k];
                kept += 1;
                continue;
            }
            let op_idx = usize::from(op8);
            let Some(idx) = self.find(iid) else { continue };
            if self.instances[idx].dead || self.instances[idx].op_state[op_idx] != OpState::Issued {
                continue;
            }
            let inst = &self.instances[idx];
            let mut vals = [0u64; 2];
            for (j, s) in inst.view.srcs[op_idx].as_slice().iter().enumerate() {
                vals[j] = inst.value_of(*s).expect("issued implies ready");
            }
            let op = inst.chain.ops[op_idx];
            let inst = &mut self.instances[idx];
            match op {
                ChainOp::Alu { op, .. } => {
                    inst.op_result[op_idx] = op.eval(vals[0], vals[1]);
                }
                ChainOp::Mov { .. } => inst.op_result[op_idx] = vals[0],
                ChainOp::Cmp { .. } => {
                    inst.flags = Some(Flags::from_cmp(vals[0], vals[1]));
                }
                ChainOp::Load { .. } => unreachable!("loads complete via memory"),
            }
            inst.op_state[op_idx] = OpState::Done;
            inst.issued &= !(1 << op_idx);
            inst.undone &= !(1 << op_idx);
        }
        ev.truncate(kept);
        self.alu_events = ev;

        // 5. Instance completion: all ops done -> outcome, fill queue,
        // spawn successors.
        let mut completed_now = std::mem::take(&mut self.scratch.completed);
        completed_now.clear();
        for idx in 0..self.instances.len() {
            let inst = &self.instances[idx];
            if inst.dead || inst.completed() {
                continue;
            }
            if inst.undone == 0 {
                debug_assert_eq!(
                    inst.op_state[inst.view.flags_op],
                    OpState::Done,
                    "flag producer must have executed"
                );
                let flags = inst.flags.expect("chains end in a cmp");
                let outcome = inst.chain.cond.eval(flags);
                let id = inst.id;
                let slot = inst.slot;
                let inst = &mut self.instances[idx];
                inst.outcome = Some(outcome);
                if let Some((pc, s)) = slot {
                    queues.fill(pc, s, outcome);
                }
                stats.instances_completed += 1;
                completed_now.push(id);
            }
        }
        for &id in &completed_now {
            self.spawn_at_completion(id, cache, queues, stats);
        }
        self.scratch.completed = completed_now;

        // 6. Retry deferred spawns (window/queue pressure), oldest first;
        // drop spawns stuck past the timeout so the engine can drain.
        let mut stuck = std::mem::take(&mut self.scratch.stuck);
        stuck.clear();
        stuck.extend(
            self.instances
                .iter()
                .filter(|i| !i.dead && !i.pending_spawn.is_empty())
                .map(|i| i.id),
        );
        let mut pending = std::mem::take(&mut self.scratch.pending);
        for &id in &stuck {
            let Some(idx) = self.find(id) else { continue };
            // `append` empties the instance's queue but keeps its capacity,
            // so requeued entries below don't reallocate it.
            pending.clear();
            pending.append(&mut self.instances[idx].pending_spawn);
            for (chain, assumption, since) in pending.drain(..) {
                let key = Instance::chain_key(&chain);
                let room = if chain.tag.is_wildcard()
                    && self.cfg.initiation != InitiationMode::NonSpeculative
                {
                    self.active_instances() + self.spawn_reserve() <= self.cfg.window_instances
                } else {
                    true
                };
                let attempt = if room {
                    self.initiate(&chain, Some(id), None, assumption, queues, stats)
                } else {
                    Initiate::WindowFull
                };
                match attempt {
                    Initiate::Ok(nid) => {
                        if let Some(idx) = self.find(id) {
                            self.instances[idx].spawned.push((key, assumption, nid));
                        }
                        self.spawn_early(nid, cache, queues, stats);
                    }
                    _ => {
                        if cycle.saturating_sub(since) < 256 {
                            if let Some(idx) = self.find(id) {
                                self.instances[idx]
                                    .pending_spawn
                                    .push((chain, assumption, since));
                            }
                        }
                        // else: dropped — runahead simply stops extending
                        // this lineage until the next synchronization.
                    }
                }
            }
        }
        self.scratch.pending = pending;
        self.scratch.stuck = stuck;

        // 7. Free drained instances: completed, successors spawned, and no
        // live dependent still missing context.
        self.scratch.blocked.clear();
        self.scratch.blocked.extend(
            self.instances
                .iter()
                .filter(|s| !s.dead && s.ctx_missing > 0)
                .filter_map(|s| s.producer),
        );
        self.scratch.blocked.sort_unstable();
        let blocked = &self.scratch.blocked;
        let pool = &mut self.vec_pool;
        let mut removed_live = 0usize;
        self.instances.retain_mut(|i| {
            if i.dead {
                pool.push(Instance::recycle_vecs(i));
                return false;
            }
            let drained = i.completed()
                && i.spawn_done
                // An unvalidated assumption means the producer hasn't
                // completed: stay killable until it does.
                && i.assumption.is_none()
                && i.pending_spawn.is_empty()
                && blocked.binary_search(&i.id).is_err();
            removed_live += usize::from(drained);
            if drained {
                pool.push(Instance::recycle_vecs(i));
            }
            !drained
        });
        self.live -= removed_live;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ChainOp, ChainSrc, ChainTag};
    use br_isa::{reg, Cond, MemoryImage};
    use br_mem::MemoryConfig;

    /// A self-triggering chain like leela's branch A:
    ///   l0 = live-in r3; op0: add l1 = l0 + 8; op1: load l2 = [l1];
    ///   op2: cmp l2, 0 -> branch Eq; live-out r3 = l1.
    fn self_chain() -> DependenceChain {
        DependenceChain {
            tag: ChainTag {
                pc: 0x50,
                outcome: None,
            },
            branch_pc: 0x50,
            cond: Cond::Eq,
            ops: vec![
                ChainOp::Alu {
                    op: br_isa::AluOp::Add,
                    dst: 1,
                    src1: ChainSrc::Reg(0),
                    src2: ChainSrc::Imm(8),
                },
                ChainOp::Load {
                    dst: 2,
                    base: Some(ChainSrc::Reg(1)),
                    index: None,
                    scale: 1,
                    disp: 0,
                    width: Width::B8,
                    signed: false,
                },
                ChainOp::Cmp {
                    src1: ChainSrc::Reg(2),
                    src2: ChainSrc::Imm(0),
                },
            ],
            live_ins: vec![(reg::R3, 0)],
            live_outs: vec![(reg::R3, ChainSrc::Reg(1))],
            num_local_regs: 3,
            guard_terminated: false,
            eliminated_uops: 0,
            source_pcs: std::collections::BTreeSet::new(),
        }
    }

    fn machine_with(data: &[(u64, u64)]) -> Machine {
        let mut img = MemoryImage::new();
        for (a, v) in data {
            img.write(*a, Width::B8, *v);
        }
        Machine::new(img.into_memory())
    }

    fn run_engine(
        dce: &mut DependenceChainEngine,
        machine: &Machine,
        mem: &mut MemorySystem,
        cache: &mut DependenceChainCache,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
        cycles: u64,
    ) {
        for c in 0..cycles {
            let resps = mem.tick(c);
            dce.tick(c, machine, mem, &resps, 2, 4, cache, queues, stats);
        }
    }

    #[test]
    fn single_chain_computes_outcome_and_chains_forward() {
        // Memory: [0x108]=0 (Eq -> taken), [0x110]=5 (-> not taken),
        // [0x118]=0 (taken).
        let machine = machine_with(&[(0x108, 0), (0x110, 5), (0x118, 0)]);
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut cache = DependenceChainCache::new(8);
        let mut queues = PredictionQueues::new(4, 16);
        let mut stats = BrStats::default();
        cache.install(self_chain());

        let mut cfg = BranchRunaheadConfig::mini();
        cfg.initiation = InitiationMode::Predictive;
        let mut dce = DependenceChainEngine::new(cfg);

        let mut cpu = CpuState::new();
        cpu.regs[reg::R3.index()] = 0x100;
        dce.sync_initiate(0x50, true, &cpu, &mut cache, &mut queues, &mut stats);
        run_engine(
            &mut dce,
            &machine,
            &mut mem,
            &mut cache,
            &mut queues,
            &mut stats,
            600,
        );

        assert!(stats.instances_completed >= 3, "chain must self-sustain");
        // Consume the first three predictions: T, NT, T.
        let expected = [true, false, true];
        for (i, want) in expected.iter().enumerate() {
            match queues.consume_at_fetch(0x50) {
                crate::pqueue::FetchVerdict::Use { value, .. } => {
                    assert_eq!(value, *want, "prediction {i}");
                }
                v => panic!("prediction {i}: expected Use, got {v:?}"),
            }
        }
    }

    #[test]
    fn window_bounds_concurrency() {
        let machine = machine_with(&[]);
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut cache = DependenceChainCache::new(8);
        let mut queues = PredictionQueues::new(4, 256);
        let mut stats = BrStats::default();
        cache.install(self_chain());

        let mut cfg = BranchRunaheadConfig::mini();
        cfg.window_instances = 4;
        let mut dce = DependenceChainEngine::new(cfg);
        let cpu = CpuState::new();
        dce.sync_initiate(0x50, true, &cpu, &mut cache, &mut queues, &mut stats);
        // Spawning cascades immediately but must stop at the window bound.
        assert!(dce.active_instances() <= 4);
        run_engine(
            &mut dce,
            &machine,
            &mut mem,
            &mut cache,
            &mut queues,
            &mut stats,
            200,
        );
        assert!(dce.active_instances() <= 4);
        assert!(stats.instances_completed > 4, "instances recycle");
    }

    #[test]
    fn flush_all_clears_engine() {
        let mut cache = DependenceChainCache::new(8);
        let mut queues = PredictionQueues::new(4, 16);
        let mut stats = BrStats::default();
        cache.install(self_chain());
        let mut dce = DependenceChainEngine::new(BranchRunaheadConfig::mini());
        let cpu = CpuState::new();
        dce.sync_initiate(0x50, true, &cpu, &mut cache, &mut queues, &mut stats);
        assert!(dce.active_instances() > 0);
        dce.flush_all(&mut queues, &mut stats);
        assert_eq!(dce.active_instances(), 0);
    }

    #[test]
    fn init_counter_predictions() {
        let mut dce = DependenceChainEngine::new(BranchRunaheadConfig::mini());
        for _ in 0..5 {
            dce.train_init_counter(0x50, false);
        }
        assert!(!dce.predict_init(0x50));
        for _ in 0..6 {
            dce.train_init_counter(0x50, true);
        }
        assert!(dce.predict_init(0x50));
    }

    #[test]
    fn non_speculative_is_serial() {
        let machine = machine_with(&[(0x108, 0)]);
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut cache = DependenceChainCache::new(8);
        let mut queues = PredictionQueues::new(4, 256);
        let mut stats = BrStats::default();
        cache.install(self_chain());
        let mut cfg = BranchRunaheadConfig::mini();
        cfg.initiation = InitiationMode::NonSpeculative;
        let mut dce = DependenceChainEngine::new(cfg);
        let mut cpu = CpuState::new();
        cpu.regs[reg::R3.index()] = 0x100;
        dce.sync_initiate(0x50, true, &cpu, &mut cache, &mut queues, &mut stats);
        // Only the sync instance exists until it completes.
        assert_eq!(dce.active_instances(), 1);
        run_engine(
            &mut dce,
            &machine,
            &mut mem,
            &mut cache,
            &mut queues,
            &mut stats,
            300,
        );
        assert!(stats.instances_completed >= 2, "successors follow serially");
    }

    #[test]
    fn dataflow_view_wires_dependencies() {
        let chain = self_chain();
        let view = build_dataflow(&chain);
        // op1 (load) reads op0's result; op2 (cmp) reads op1's.
        assert!(matches!(view.srcs[1].as_slice()[0], SrcRef::Op(0)));
        assert!(matches!(view.srcs[2].as_slice()[0], SrcRef::Op(1)));
        assert!(matches!(view.srcs[0].as_slice()[0], SrcRef::LiveIn(r) if r == reg::R3));
        assert_eq!(view.flags_op, 2);
        assert!(matches!(view.outs[0], (r, SrcRef::Op(0)) if r == reg::R3));
    }

    /// A guarded chain like leela's branch B: triggered by `<0x50, NT>`,
    /// reads the probe index the A-chain produced.
    ///   op0: load l2 = [l0 + 0x1000]; op1: cmp l2, 0 -> branch Eq @ 0x60.
    /// Live-in r3 (the A-chain's live-out pointer).
    fn guarded_chain() -> DependenceChain {
        DependenceChain {
            tag: ChainTag {
                pc: 0x50,
                outcome: Some(false),
            },
            branch_pc: 0x60,
            cond: Cond::Eq,
            ops: vec![
                ChainOp::Load {
                    dst: 2,
                    base: Some(ChainSrc::Reg(0)),
                    index: None,
                    scale: 1,
                    disp: 0x1000,
                    width: Width::B8,
                    signed: false,
                },
                ChainOp::Cmp {
                    src1: ChainSrc::Reg(2),
                    src2: ChainSrc::Imm(0),
                },
            ],
            live_ins: vec![(reg::R3, 0)],
            live_outs: vec![],
            num_local_regs: 3,
            guard_terminated: true,
            eliminated_uops: 0,
            source_pcs: std::collections::BTreeSet::new(),
        }
    }

    /// End-to-end ordering check for the guarded-chain machinery: B's
    /// queue must deliver outcomes exactly for the A-NT iterations, in
    /// iteration order, no matter how instances complete.
    #[test]
    fn guarded_chain_slots_align_with_trigger_outcomes() {
        // A-chain walks r3 by 8 per instance: r3 = 0x100, 0x108, ...
        // A outcome (Eq): mem[r3+8] == 0; B outcome (Eq): mem[r3+8+0x1000]==0
        // (regions are disjoint: A in 0x108.., B in 0x1108..).
        let mut data = Vec::new();
        let mut expected_b = Vec::new();
        let mut x = 0xabcdefu64;
        for i in 1..40u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a_taken = x & 0x10 != 0; // Eq outcome
            let b_taken = x & 0x20 != 0;
            data.push((0x100 + i * 8, u64::from(!a_taken)));
            data.push((0x1100 + i * 8, u64::from(!b_taken)));
            if !a_taken {
                // A not-taken triggers <0x50, NT>: B executes.
                expected_b.push(b_taken);
            }
        }
        let machine = machine_with(&data);
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut cache = DependenceChainCache::new(8);
        let mut queues = PredictionQueues::new(4, 256);
        let mut stats = BrStats::default();
        cache.install(self_chain());
        cache.install(guarded_chain());

        let mut cfg = BranchRunaheadConfig::mini();
        cfg.window_instances = 6; // tight window: stresses placeholders
        let mut dce = DependenceChainEngine::new(cfg);
        let mut cpu = CpuState::new();
        cpu.regs[reg::R3.index()] = 0x100;
        dce.sync_initiate(0x50, true, &cpu, &mut cache, &mut queues, &mut stats);
        // Drive until B produced everything it can.
        for c in 0..6000 {
            let resps = mem.tick(c);
            dce.tick(
                c,
                &machine,
                &mut mem,
                &resps,
                2,
                4,
                &mut cache,
                &mut queues,
                &mut stats,
            );
        }
        // Consume B's queue: every *filled* slot must match the A-NT
        // subsequence at its position. Late slots (instances preempted by
        // the deliberately tiny window) are gaps: they consume a position
        // but predict nothing — exactly how the core treats them.
        let mut used = 0;
        let mut pos = 0usize;
        loop {
            match queues.consume_at_fetch(0x60) {
                crate::pqueue::FetchVerdict::Use { value, .. } => {
                    assert!(
                        pos < expected_b.len(),
                        "B produced more outcomes than A-NT iterations"
                    );
                    assert_eq!(
                        value, expected_b[pos],
                        "B outcome at A-NT position {pos} misaligned"
                    );
                    used += 1;
                    pos += 1;
                }
                crate::pqueue::FetchVerdict::Late { .. } => pos += 1,
                _ => break,
            }
            if pos > expected_b.len() + 4 {
                break;
            }
        }
        assert!(
            used >= 6,
            "B must produce a healthy number of usable predictions: {used} over {pos} positions"
        );
    }

    #[test]
    fn wrong_assumption_speculation_cancels_slots() {
        // Predictive mode with a trigger that is always TAKEN but whose
        // counter initially predicts NT half the time: killed speculative
        // B instances must leave *no* consumable slots behind.
        let machine = machine_with(&[]); // all zero: A outcome Eq=taken
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut cache = DependenceChainCache::new(8);
        let mut queues = PredictionQueues::new(4, 64);
        let mut stats = BrStats::default();
        cache.install(self_chain());
        cache.install(guarded_chain());
        let mut dce = DependenceChainEngine::new(BranchRunaheadConfig::mini());
        // Bias the initiation counter toward NT so speculation fires.
        for _ in 0..8 {
            dce.train_init_counter(0x50, false);
        }
        let cpu = CpuState::new();
        dce.sync_initiate(0x50, true, &cpu, &mut cache, &mut queues, &mut stats);
        for c in 0..1500 {
            let resps = mem.tick(c);
            dce.tick(
                c,
                &machine,
                &mut mem,
                &resps,
                2,
                4,
                &mut cache,
                &mut queues,
                &mut stats,
            );
        }
        // A is always taken (mem is zero -> cmp 0 -> Eq -> taken), so B
        // never executes; every B slot must have been cancelled.
        match queues.consume_at_fetch(0x60) {
            crate::pqueue::FetchVerdict::Inactive | crate::pqueue::FetchVerdict::NoQueue => {}
            v => panic!("B queue must be empty after cancellations, got {v:?}"),
        }
        assert!(
            stats.instances_flushed > 0,
            "speculation must have fired and been killed"
        );
    }
}
