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

use crate::chain::{ChainOp, ChainSrc, DependenceChain, MAX_CHAIN_OPS};
use crate::chain_cache::DependenceChainCache;
use crate::config::{BranchRunaheadConfig, InitiationMode};
use crate::pqueue::PredictionQueues;
use crate::stats::BrStats;

/// The id of a free slab slot. Instance ids count up from 0 and are never
/// reused, so no instance ever has it.
const FREE: u64 = u64::MAX;

/// An instance's id and slab slot. Ids are never reused, so the id is the
/// slot's generation number: a handle whose slot now holds another id
/// refers to an instance that was freed or killed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Handle {
    id: u64,
    slot: u32,
}

struct Instance {
    /// The instance id, or [`FREE`] when the slot holds no instance.
    id: u64,
    chain: Arc<DependenceChain>,
    /// Op results, inline so initiation allocates nothing.
    op_result: [u64; MAX_CHAIN_OPS],
    /// Op state, bit per op: `undone` ops have no result yet, `waiting`
    /// ops have not issued, `issued` ALU ops are in flight. An undone op
    /// that is neither waiting nor issued is a load awaiting memory.
    undone: u32,
    waiting: u32,
    issued: u32,
    /// The waiting ops whose sources have all arrived. Only an arrival
    /// sets a bit (of the ops that read the arriving value) and only issue
    /// clears one.
    ready: u32,
    flags: Option<Flags>,
    /// Architectural context inherited from the producer (or the core at
    /// a sync). Bit `r` of `ctx_ready` gates reads of `ctx[r]`.
    ctx: [u64; 16],
    ctx_ready: u16,
    producer: Option<Handle>,
    /// Live dependents of this instance whose context is incomplete: they
    /// may still pull from it, so it cannot be freed while this is
    /// nonzero.
    starved: u32,
    outcome: Option<bool>,
    /// Prediction-queue slot this instance fills in the queue of
    /// `chain.branch_pc`.
    queue_slot: u64,
    /// Required producer outcome (predictive initiation); `None` when the
    /// initiation was unconditional (sync, wildcard, outcome-based).
    assumption: Option<bool>,
    /// Chains spawned from this instance, in id order: (chain ptr key,
    /// assumption, spawned instance). Every live instance whose producer
    /// is this one is listed.
    spawned: Vec<(usize, Option<bool>, Handle)>,
    /// Outcome-based spawn performed.
    spawn_done: bool,
    /// Successor initiations deferred on window/queue pressure, with the
    /// cycle each entry was deferred at (entries time out individually).
    pending_spawn: Vec<(Arc<DependenceChain>, u64)>,
    /// Pre-allocated queue slots for non-wildcard successor chains,
    /// resolved when this instance's outcome is known: `(chain, slot,
    /// required outcome)`. Allocating at initiation keeps every queue in
    /// program order even though instances complete out of order (§4.2:
    /// "slots must be allocated at initiation").
    placeholders: Vec<(Arc<DependenceChain>, u64, bool)>,
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

    /// Whether phase 7 may free this instance: completed, successors
    /// spawned, assumption validated (an unvalidated one means the
    /// producer hasn't completed, so it must stay killable), no deferred
    /// spawn, and no dependent still missing context.
    fn drained(&self) -> bool {
        self.completed()
            && self.spawn_done
            && self.assumption.is_none()
            && self.pending_spawn.is_empty()
            && self.starved == 0
    }

    fn chain_key(c: &Arc<DependenceChain>) -> usize {
        Arc::as_ptr(c) as usize
    }

    /// The context registers still to pull from the producer: the
    /// live-ins, or all 16 once completed (so successors can pass through
    /// and the producer can be freed).
    fn missing(&self) -> u16 {
        let wanted = if self.completed() {
            u16::MAX
        } else {
            self.chain.live_ins
        };
        wanted & !self.ctx_ready
    }

    /// The inherited context value of arch reg `r`, if it has arrived.
    fn ctx_value(&self, r: ArchReg) -> Option<u64> {
        (self.ctx_ready & (1 << r.index()) != 0).then(|| self.ctx[r.index()])
    }

    /// Resolves a source to a value, if available.
    fn value_of(&self, s: ChainSrc) -> Option<u64> {
        match s {
            ChainSrc::Imm(v) => Some(v as u64),
            ChainSrc::LiveIn(r) => self.ctx_value(r),
            ChainSrc::Op(i) => {
                let i = usize::from(i);
                (self.undone & (1 << i) == 0).then(|| self.op_result[i])
            }
        }
    }

    /// The source values of `op`, which must be ready (0 for a load's
    /// absent base or index).
    fn operands(&self, op: &ChainOp) -> [u64; 2] {
        op.srcs()
            .map(|s| s.map_or(0, |s| self.value_of(s).expect("ready")))
    }

    /// This instance's end-of-chain value for arch reg `r`, if known:
    /// chain live-out if written, else the inherited context.
    fn arch_value(&self, r: ArchReg) -> Option<u64> {
        if let Some((_, src)) = self.chain.live_outs.iter().find(|(a, _)| *a == r) {
            return self.value_of(*src);
        }
        self.ctx_value(r)
    }

    /// Frees the slot. The lists are cleared, dropping their `Arc`s now,
    /// but keep their capacity for the slot's next instance.
    fn vacate(&mut self) {
        self.id = FREE;
        self.spawned.clear();
        self.pending_spawn.clear();
        self.placeholders.clear();
    }

    /// The waiting ops among `ops` whose sources have all arrived.
    fn ready_among(&self, ops: u32) -> u32 {
        let mut m = ops & self.waiting;
        let mut ready = 0;
        while m != 0 {
            let op = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.chain.ops[op]
                .srcs()
                .into_iter()
                .flatten()
                .all(|s| self.value_of(s).is_some())
            {
                ready |= 1 << op;
            }
        }
        ready
    }

    /// Marks the ops among `ops` that an arrival made ready. Returns
    /// whether the instance just became ready (its mask was empty).
    fn wake(&mut self, ops: u32) -> bool {
        let was_idle = self.ready == 0;
        self.ready |= self.ready_among(ops & !self.ready);
        was_idle && self.ready != 0
    }
}

/// Inserts `h` into the id-ordered list `list` unless it is there.
fn insert_sorted(list: &mut Vec<Handle>, h: Handle) {
    if let Err(i) = list.binary_search(&h) {
        list.insert(i, h);
    }
}

/// Removes `h` from the id-ordered list `list` if it is there.
fn remove_sorted(list: &mut Vec<Handle>, h: Handle) {
    if let Ok(i) = list.binary_search(&h) {
        list.remove(i);
    }
}

/// How an initiation request fared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Initiate {
    Ok(Handle),
    WindowFull,
    QueueFull,
}

/// Reusable tick-path buffers owned by the engine and cleared per use, so
/// steady-state cycles never touch the heap. Buffers consumed while
/// `&mut self` methods run are `mem::take`n and restored (keeping their
/// capacity) rather than reallocated.
#[derive(Default)]
struct Scratch {
    /// The pull candidates phase 2 walks, swapped with `pulls`.
    pulling: Vec<Handle>,
    /// Context values gathered in phase 2: `(instance, reg, val)`.
    pulled: Vec<(Handle, usize, u64)>,
    /// The free candidates phase 7 judges, swapped with `drainable`.
    draining: Vec<Handle>,
    /// Snapshot of the deferred-spawn list that phase 6 retries.
    stuck: Vec<Handle>,
    /// Work stack and killed lineage for `kill_recursive`.
    kill_work: Vec<Handle>,
    killed: Vec<Handle>,
    /// Work queue for `spawn_early`.
    spawn_work: Vec<Handle>,
    /// Wildcard / non-wildcard successor chains in `spawn_early`.
    chains_wild: Vec<Arc<DependenceChain>>,
    chains_nonwild: Vec<Arc<DependenceChain>>,
    /// Chain-cache lookup buffer for `spawn_early` (live across the
    /// buffers above, so it needs its own storage).
    spawn_lookup: Vec<Arc<DependenceChain>>,
    /// Chain-cache lookup buffer for `spawn_at_completion` / `sync_initiate`.
    lookup: Vec<Arc<DependenceChain>>,
    /// Wrong- then right-assumption successors in `spawn_at_completion`.
    judged: Vec<Handle>,
    /// Newly spawned instances in `spawn_at_completion`.
    newly: Vec<Handle>,
    /// Placeholder slots being resolved in `spawn_at_completion`.
    placeholders: Vec<(Arc<DependenceChain>, u64, bool)>,
    /// Deferred-spawn entries being retried in tick phase 6.
    pending: Vec<(Arc<DependenceChain>, u64)>,
}

/// The Dependence Chain Engine.
///
/// Scheduling is event-driven: each value arrival re-checks only the ops
/// and dependents that read it, and each tick phase walks only a list of
/// the instances an event reached (see DESIGN.md §11).
pub(crate) struct DependenceChainEngine {
    cfg: BranchRunaheadConfig,
    /// Instance storage. A slot keeps its place, and the capacity of its
    /// lists, for the engine's life; freed slots go to `free_slots`.
    slots: Vec<Instance>,
    free_slots: Vec<u32>,
    /// The live instances in ascending id order. Issue, completion, spawn
    /// retry and free run in id order, so the event lists are id-ordered
    /// too.
    index: Vec<Handle>,
    /// The live instances with a nonzero `ready` mask (phase 3).
    ready: Vec<Handle>,
    /// The live instances with a deferred spawn (phase 6).
    deferred: Vec<Handle>,
    /// Instances that may pull context in the next phase 2: new instances
    /// with a producer, instances that completed, and the dependents of an
    /// instance whose live-out or context just became known. Unsorted,
    /// with duplicates and stale handles; phase 2 sorts it.
    pulls: Vec<Handle>,
    /// Instances whose last op finished this tick (phases 1 and 4).
    completing: Vec<Handle>,
    /// Instances an event may have made drainable (phase 7).
    drainable: Vec<Handle>,
    next_id: u64,
    /// Outstanding DCE loads: `(req id, instance, op idx, addr)`. Bounded
    /// by the DCE MSHR budget, so a linear scan beats hashing.
    pending_mem: Vec<(ReqId, Handle, usize, u64)>,
    /// 3-bit initiation counters (Predictive mode, §4.1), keyed by branch
    /// PC. Every retired conditional branch trains one, so the list holds
    /// every static conditional branch seen: a linear scan, no hashing.
    init_counters: Vec<(Pc, u8)>,
    /// In-flight ALU ops: `(done_at, instance, op idx)`. Bounded by the
    /// ALU issue rate times the max op latency; scanning it beats storing
    /// a completion cycle per op per instance.
    alu_events: Vec<(u64, Handle, u8)>,
    scratch: Scratch,
    cycle: u64,
}

impl std::fmt::Debug for DependenceChainEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DependenceChainEngine")
            .field("instances", &self.index.len())
            .field("outstanding_loads", &self.pending_mem.len())
            .finish()
    }
}

impl DependenceChainEngine {
    /// Creates an engine for `cfg`.
    #[must_use]
    pub(crate) fn new(cfg: BranchRunaheadConfig) -> Self {
        DependenceChainEngine {
            cfg,
            slots: Vec::new(),
            free_slots: Vec::new(),
            index: Vec::new(),
            ready: Vec::new(),
            deferred: Vec::new(),
            pulls: Vec::new(),
            completing: Vec::new(),
            drainable: Vec::new(),
            next_id: 0,
            pending_mem: Vec::new(),
            init_counters: Vec::new(),
            alu_events: Vec::new(),
            scratch: Scratch::default(),
            cycle: 0,
        }
    }

    /// Live instance count.
    #[must_use]
    pub(crate) fn active_instances(&self) -> usize {
        self.index.len()
    }

    /// Whether memory request `id` is an outstanding DCE load (the fault
    /// harness uses this to delay only DCE traffic).
    #[must_use]
    pub(crate) fn owns_request(&self, id: ReqId) -> bool {
        self.pending_mem.iter().any(|(r, ..)| *r == id)
    }

    /// The instance `h` refers to, if it is still live.
    fn get(&self, h: Handle) -> Option<&Instance> {
        let inst = &self.slots[h.slot as usize];
        (inst.id == h.id).then_some(inst)
    }

    fn get_mut(&mut self, h: Handle) -> Option<&mut Instance> {
        let inst = &mut self.slots[h.slot as usize];
        (inst.id == h.id).then_some(inst)
    }

    /// Validates structural invariants: the slab and its id index agree;
    /// each instance has consistent op-state masks, an outcome exactly
    /// when every op is done, and a `ready` mask equal to a recount; the
    /// ready and deferred-spawn lists hold exactly the instances they
    /// describe; every instance with a pullable missing register is on
    /// the pull list; each starved-dependent count matches a recount;
    /// every live instance with a live producer is in its `spawned`; the
    /// live-instance window bound; the DCE MSHR bound on outstanding
    /// loads; and initiation counters within their 3-bit range.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        if !self.index.windows(2).all(|w| w[0].id < w[1].id) {
            return Err("dce: instance index not sorted by id".to_string());
        }
        let vacant = self.slots.iter().filter(|i| i.id == FREE).count();
        if self.index.iter().any(|h| self.get(*h).is_none())
            || self.index.len() + vacant != self.slots.len()
            || self.free_slots.len() != vacant
        {
            return Err("dce: slab and instance index disagree".to_string());
        }
        let mut starved = vec![0u32; self.slots.len()];
        for &h in &self.index {
            let i = &self.slots[h.slot as usize];
            let producer = i.producer.and_then(|p| self.get(p).map(|pi| (p, pi)));
            if let Some((p, _)) = producer.filter(|_| i.ctx_ready != u16::MAX) {
                starved[p.slot as usize] += 1;
            }
            let ops = i.chain.ops.len();
            let what = if i.waiting & i.issued != 0 {
                "an op both waiting and issued"
            } else if (i.waiting | i.issued) & !i.undone != 0 {
                "a done op waiting or issued"
            } else if ops < 32 && i.undone >> ops != 0 {
                "an undone op past the chain end"
            } else if i.completed() != (i.undone == 0) {
                "an outcome disagreeing with the undone ops"
            } else if i.ready != i.ready_among(u32::MAX) {
                "a ready mask disagreeing with its sources"
            } else if producer.is_some_and(|(_, p)| !p.spawned.iter().any(|s| s.2 == h)) {
                "a live producer that does not list it"
            } else if producer.is_some_and(|(_, p)| {
                (0..16)
                    .any(|r| i.missing() & (1 << r) != 0 && p.arch_value(ArchReg::new(r)).is_some())
            }) && !self.pulls.contains(&h)
            {
                "a pullable context register but no pull pending"
            } else {
                continue;
            };
            return Err(format!(
                "dce: instance {} has {what} (undone {:#x}, waiting {:#x}, issued {:#x}, ready {:#x})",
                i.id, i.undone, i.waiting, i.issued, i.ready
            ));
        }
        if let Some(h) = self
            .index
            .iter()
            .find(|h| self.slots[h.slot as usize].starved != starved[h.slot as usize])
        {
            return Err(format!(
                "dce: instance {} counts {} starved dependents, {} by recount",
                h.id, self.slots[h.slot as usize].starved, starved[h.slot as usize]
            ));
        }
        let listed = |pred: fn(&Instance) -> bool| {
            self.index
                .iter()
                .filter(move |h| pred(&self.slots[h.slot as usize]))
        };
        if !self.ready.iter().eq(listed(|i| i.ready != 0)) {
            return Err("dce: ready list disagrees with the ready masks".to_string());
        }
        if !self
            .deferred
            .iter()
            .eq(listed(|i| !i.pending_spawn.is_empty()))
        {
            return Err("dce: deferred-spawn list disagrees with the instances".to_string());
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
    pub(crate) fn train_init_counter(&mut self, pc: Pc, taken: bool) {
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
    pub(crate) fn flush_all(&mut self, queues: &mut PredictionQueues, stats: &mut BrStats) {
        for &h in &self.index {
            let inst = &mut self.slots[h.slot as usize];
            stats.instances_flushed += 1;
            queues.kill(inst.chain.branch_pc, inst.queue_slot);
            for (chain, slot, _) in &inst.placeholders {
                queues.kill(chain.branch_pc, *slot);
            }
            inst.vacate();
            self.free_slots.push(h.slot);
        }
        self.index.clear();
        self.ready.clear();
        self.deferred.clear();
        self.pulls.clear();
        self.completing.clear();
        self.drainable.clear();
        self.pending_mem.clear();
        self.alu_events.clear();
    }

    /// Removes live instance `h` from the slab, the index and the event
    /// lists. A starved instance leaving unblocks its producer.
    fn release(&mut self, h: Handle) {
        let inst = &mut self.slots[h.slot as usize];
        if inst.ready != 0 {
            remove_sorted(&mut self.ready, h);
        }
        if !inst.pending_spawn.is_empty() {
            remove_sorted(&mut self.deferred, h);
        }
        let starving_producer = inst.producer.filter(|_| inst.ctx_ready != u16::MAX);
        inst.vacate();
        remove_sorted(&mut self.index, h);
        self.free_slots.push(h.slot);
        self.feed_producer(starving_producer);
    }

    /// One of `producer`'s starved dependents got its full context or
    /// left: a count reaching zero may make the producer drainable.
    fn feed_producer(&mut self, producer: Option<Handle>) {
        if let Some(p) = producer {
            if let Some(pi) = self.get_mut(p) {
                pi.starved -= 1;
                if pi.starved == 0 {
                    self.drainable.push(p);
                }
            }
        }
    }

    fn kill_recursive(
        &mut self,
        h: Handle,
        disposition: Disposition,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
    ) {
        // Depth-first over the lineage through the `spawned` lists. A
        // producer's id is smaller than its successors' ids, so each
        // instance is reached exactly once; the lineage leaves the engine
        // in one pass at the end.
        let mut work = std::mem::take(&mut self.scratch.kill_work);
        let mut killed = std::mem::take(&mut self.scratch.killed);
        work.clear();
        killed.clear();
        work.push(h);
        while let Some(cur) = work.pop() {
            killed.push(cur);
            let Some(inst) = self.get(cur) else { continue };
            stats.instances_flushed += 1;
            // Placeholder slots of a cancelled lineage correspond to
            // executions that will never happen; a flushed (Dead)
            // lineage's placeholders stay consumable.
            let own = (inst.chain.branch_pc, inst.queue_slot);
            let held = inst.placeholders.iter().map(|(c, s, _)| (c.branch_pc, *s));
            for (pc, slot) in std::iter::once(own).chain(held) {
                match disposition {
                    Disposition::Dead => queues.kill(pc, slot),
                    Disposition::Cancelled => queues.cancel(pc, slot),
                }
            }
            let producer = inst.producer;
            work.extend(
                inst.spawned
                    .iter()
                    .map(|s| s.2)
                    .filter(|s| self.get(*s).is_some()),
            );
            // Forget the killed instance in its producer's spawn record so
            // a later outcome can legitimately respawn the chain.
            if let Some(p) = producer.and_then(|p| self.get_mut(p)) {
                p.spawned.retain(|s| s.2 != cur);
            }
        }
        killed.sort_unstable();
        for &k in &killed {
            if self.get(k).is_some() {
                self.release(k);
            }
        }
        self.scratch.kill_work = work;
        self.scratch.killed = killed;
    }

    /// Initiates a chain instance. `producer` is `None` for a core sync.
    fn initiate(
        &mut self,
        chain: &Arc<DependenceChain>,
        producer: Option<Handle>,
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
        producer: Option<Handle>,
        cpu: Option<&CpuState>,
        assumption: Option<bool>,
        queue_slot: u64,
        stats: &mut BrStats,
    ) -> Initiate {
        if self.active_instances() >= self.cfg.window_instances {
            return Initiate::WindowFull;
        }
        let id = self.next_id;
        self.next_id += 1;
        let n = chain.ops.len();
        let all_ops: u32 = if n == 32 { u32::MAX } else { (1 << n) - 1 };
        let (ctx, ctx_ready) = match cpu {
            Some(cpu) => (cpu.regs, u16::MAX),
            None => ([0; 16], 0),
        };
        let mut inst = Instance {
            id,
            chain: Arc::clone(chain),
            op_result: [0; MAX_CHAIN_OPS],
            undone: all_ops,
            waiting: all_ops,
            issued: 0,
            ready: 0,
            flags: None,
            ctx,
            ctx_ready,
            producer,
            starved: 0,
            outcome: None,
            queue_slot,
            assumption,
            spawned: Vec::new(),
            spawn_done: false,
            pending_spawn: Vec::new(),
            placeholders: Vec::new(),
        };
        inst.wake(all_ops);
        let slot = match self.free_slots.pop() {
            Some(s) => {
                // Reuse the vacated slot's (empty) lists and their capacity.
                let old = &mut self.slots[s as usize];
                std::mem::swap(&mut inst.spawned, &mut old.spawned);
                std::mem::swap(&mut inst.pending_spawn, &mut old.pending_spawn);
                std::mem::swap(&mut inst.placeholders, &mut old.placeholders);
                *old = inst;
                s
            }
            None => {
                self.slots.push(inst);
                u32::try_from(self.slots.len() - 1).expect("slab fits u32 slots")
            }
        };
        // The id is the largest yet, so pushing keeps both lists in order.
        let h = Handle { id, slot };
        self.index.push(h);
        if self.slots[slot as usize].ready != 0 {
            self.ready.push(h);
        }
        if ctx_ready != u16::MAX {
            self.pulls.push(h);
            if let Some(p) = producer.and_then(|p| self.get_mut(p)) {
                p.starved += 1;
            }
        }
        stats.instances_initiated += 1;
        Initiate::Ok(h)
    }

    /// Synchronization entry point: a core misprediction on `pc` resolved
    /// to `outcome`; live-ins are copied from the restored register file
    /// (§4.1 "Entering Runahead Mode").
    pub(crate) fn sync_initiate(
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
            if let Initiate::Ok(h) = self.initiate(chain, None, Some(cpu), None, queues, stats) {
                self.spawn_early(h, cache, queues, stats);
            }
        }
        self.scratch.lookup = chains;
    }

    /// Window slots kept free of the eager wildcard cascade so that
    /// outcome-triggered spawns (guarded chains) can always enter.
    fn spawn_reserve(&self) -> usize {
        (self.cfg.window_instances / 8).max(2)
    }

    /// Records instance `nid`, initiated from `chain` under `assumption`,
    /// in its producer `pid`'s spawn list.
    fn record_spawn(
        &mut self,
        pid: Handle,
        chain: &Arc<DependenceChain>,
        assumption: Option<bool>,
        nid: Handle,
    ) {
        if let Some(p) = self.get_mut(pid) {
            p.spawned
                .push((Instance::chain_key(chain), assumption, nid));
        }
    }

    /// Whether the window has room for `chain` as a successor. A wildcard
    /// chain in a speculative mode keeps `spawn_reserve()` slots free.
    fn window_admits(&self, chain: &DependenceChain) -> bool {
        let reserve =
            if chain.tag.is_wildcard() && self.cfg.initiation != InitiationMode::NonSpeculative {
                self.spawn_reserve()
            } else {
                0
            };
        self.active_instances() + reserve <= self.cfg.window_instances
    }

    /// Initiates `chain` as a successor of instance `pid` and records it,
    /// if the window admits it. On window or queue pressure the spawn is
    /// deferred on `pid`, unless it has waited 256 cycles since `since`,
    /// the cycle it was first deferred: then it is dropped, and runahead
    /// stops extending this lineage until the next synchronization.
    fn spawn_successor(
        &mut self,
        pid: Handle,
        chain: Arc<DependenceChain>,
        since: u64,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
    ) -> Initiate {
        let attempt = if self.window_admits(&chain) {
            self.initiate(&chain, Some(pid), None, None, queues, stats)
        } else {
            Initiate::WindowFull
        };
        match attempt {
            Initiate::Ok(nid) => self.record_spawn(pid, &chain, None, nid),
            _ if self.cycle.saturating_sub(since) < 256 => {
                if let Some(p) = self.get_mut(pid) {
                    p.pending_spawn.push((chain, since));
                    if p.pending_spawn.len() == 1 {
                        insert_sorted(&mut self.deferred, pid);
                    }
                }
            }
            _ => {}
        }
        attempt
    }

    /// Early (initiation-time) successor spawning for wildcard chains and,
    /// in Predictive mode, predicted-outcome chains.
    fn spawn_early(
        &mut self,
        h: Handle,
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
        work.push(h);
        let mut to_spawn = std::mem::take(&mut self.scratch.chains_wild);
        let mut non_wild = std::mem::take(&mut self.scratch.chains_nonwild);
        let mut looked = std::mem::take(&mut self.scratch.spawn_lookup);
        while let Some(pid) = work.pop() {
            let Some(p) = self.get(pid) else { continue };
            if !p.spawned.is_empty() || !p.placeholders.is_empty() {
                continue; // early spawning already performed for pid
            }
            let trigger_pc = p.chain.branch_pc;
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
                if let Initiate::Ok(nid) =
                    self.spawn_successor(pid, chain, self.cycle, queues, stats)
                {
                    work.push(nid);
                }
            }
            // Non-wildcard successors get their queue slots NOW (program
            // order). Predictive mode also starts the predicted ones; the
            // rest wait as placeholders for the trigger outcome.
            let predicted = self.predict_init(trigger_pc);
            for chain in non_wild.drain(..) {
                let required = chain.tag.outcome.expect("non-wildcard tag");
                let Some(slot) = queues.allocate_slot(chain.branch_pc) else {
                    continue; // queue full: lose this iteration's coverage
                };
                let speculate = self.cfg.initiation == InitiationMode::Predictive
                    && required == predicted
                    && self.active_instances() + reserve <= self.cfg.window_instances;
                if speculate {
                    let attempt = self.initiate_with_slot(
                        &chain,
                        Some(pid),
                        None,
                        Some(required),
                        slot,
                        stats,
                    );
                    if let Initiate::Ok(nid) = attempt {
                        self.record_spawn(pid, &chain, Some(required), nid);
                        work.push(nid);
                        continue;
                    }
                }
                if let Some(p) = self.get_mut(pid) {
                    p.placeholders.push((chain, slot, required));
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
        h: Handle,
        cache: &mut DependenceChainCache,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
    ) {
        let mut judged = std::mem::take(&mut self.scratch.judged);
        let Some(inst) = self.get(h) else {
            self.scratch.judged = judged;
            return;
        };
        let outcome = inst.outcome.expect("completed");
        let trigger_pc = inst.chain.branch_pc;

        // Flush mispredicted speculative successors. Their (and their
        // descendants') queue slots are *cancelled*: those branch
        // executions never happen on the correct path.
        judged.clear();
        judged.extend(
            inst.spawned
                .iter()
                .filter(|(_, a, _)| a.is_some_and(|a| a != outcome))
                .map(|(_, _, sid)| *sid),
        );
        for &sid in &judged {
            self.kill_recursive(sid, Disposition::Cancelled, queues, stats);
        }
        // Validate the surviving speculative successors: their assumption
        // held, so they may now complete and be freed normally.
        let Some(own) = self.get(h) else {
            self.scratch.judged = judged;
            return;
        };
        judged.clear();
        judged.extend(
            own.spawned
                .iter()
                .filter(|(_, a, _)| a.is_some())
                .map(|(_, _, sid)| *sid),
        );
        for &sid in &judged {
            if let Some(s) = self.get_mut(sid) {
                s.assumption = None;
                self.drainable.push(sid);
            }
        }
        self.scratch.judged = judged;

        let mut newly = std::mem::take(&mut self.scratch.newly);
        newly.clear();

        // Resolve placeholder slots: matching chains start now (into their
        // pre-allocated, correctly ordered slots); non-matching slots are
        // cancelled so fetch skips them.
        let mut placeholders = std::mem::take(&mut self.scratch.placeholders);
        match self.get_mut(h) {
            Some(inst) => placeholders.append(&mut inst.placeholders),
            None => {
                self.scratch.newly = newly;
                self.scratch.placeholders = placeholders;
                return;
            }
        }
        for (chain, slot, required) in placeholders.drain(..) {
            if required != outcome {
                queues.cancel(chain.branch_pc, slot);
                continue;
            }
            let mut attempt = self.initiate_with_slot(&chain, Some(h), None, None, slot, stats);
            if attempt == Initiate::WindowFull {
                // Outcome-triggered successors are architecturally required
                // for continuous execution; preempt the youngest (furthest
                // ahead, least valuable) speculative instance.
                if self.preempt_youngest(h.id, queues, stats) {
                    attempt = self.initiate_with_slot(&chain, Some(h), None, None, slot, stats);
                }
            }
            match attempt {
                Initiate::Ok(nid) => {
                    self.record_spawn(h, &chain, None, nid);
                    newly.push(nid);
                }
                _ => queues.kill(chain.branch_pc, slot),
            }
        }
        self.scratch.placeholders = placeholders;

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
                let Some(inst) = self.get(h) else { break };
                let already = inst.spawned.iter().any(|(k, _, _)| *k == key);
                let pending = inst
                    .pending_spawn
                    .iter()
                    .any(|(c, _)| Instance::chain_key(c) == key);
                if already || pending {
                    continue;
                }
                if let Initiate::Ok(nid) = self.spawn_successor(h, chain, self.cycle, queues, stats)
                {
                    newly.push(nid);
                }
            }
            self.scratch.lookup = looked;
        }

        if let Some(inst) = self.get_mut(h) {
            inst.spawn_done = true;
            self.drainable.push(h);
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
        // Rare path (window-full outcome spawns): walk from the youngest,
        // which is usually a leaf.
        let victim = self.index.iter().rev().copied().find(|&h| {
            stats.dce_instance_visits += 1;
            let i = &self.slots[h.slot as usize];
            !i.completed() && h.id != exclude && !i.spawned.iter().any(|s| self.get(s.2).is_some())
        });
        match victim {
            Some(v) => {
                self.kill_recursive(v, Disposition::Dead, queues, stats);
                true
            }
            None => false,
        }
    }

    /// Op `op` of live instance `h` has its result: wake the ops that
    /// read it, the dependents that may pull it as a live-out, and the
    /// instance's completion once it was the last op.
    fn op_done(&mut self, h: Handle, op: usize, stats: &mut BrStats) {
        let inst = &mut self.slots[h.slot as usize];
        let consumers = inst.chain.consumers[op];
        if inst.wake(consumers) {
            insert_sorted(&mut self.ready, h);
        }
        if inst.undone == 0 {
            self.completing.push(h);
        }
        if inst.chain.out_ops & (1 << op) != 0 {
            self.wake_dependents(h, stats);
        }
    }

    /// The end-of-chain values of `h` changed: its live dependents that
    /// still miss context may pull in the next phase 2.
    fn wake_dependents(&mut self, h: Handle, stats: &mut BrStats) {
        let slots = &self.slots;
        for &(_, _, d) in &slots[h.slot as usize].spawned {
            stats.dce_instance_visits += 1;
            let di = &slots[d.slot as usize];
            if di.id == d.id && di.missing() != 0 {
                self.pulls.push(d);
            }
        }
    }

    /// Advances the engine one cycle.
    ///
    /// Seven phases run in order: load responses, context pulls, issue,
    /// ALU completions, instance completion, deferred-spawn retries and
    /// frees. Each walks only the list of instances that an event put on
    /// it, in id order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tick(
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
        if self.index.is_empty() && self.pending_mem.is_empty() && self.alu_events.is_empty() {
            return;
        }

        // 1. Memory completions: read the value *now* (arrival time).
        for r in responses {
            let pos = self.pending_mem.iter().position(|(rid, ..)| *rid == r.id);
            let Some(pos) = pos else { continue };
            let (_, h, op_idx, addr) = self.pending_mem.swap_remove(pos);
            let Some(inst) = self.get_mut(h) else {
                continue;
            };
            stats.dce_instance_visits += 1;
            let mem_pending = inst.undone & !(inst.waiting | inst.issued);
            if mem_pending & (1 << op_idx) != 0 {
                let (width, signed) = match inst.chain.ops[op_idx] {
                    ChainOp::Load { width, signed, .. } => (width, signed),
                    _ => (Width::B8, false),
                };
                let raw = machine.memory().read(addr, width);
                inst.op_result[op_idx] = if signed { width.sign_extend(raw) } else { raw };
                inst.undone &= !(1 << op_idx);
                self.op_done(h, op_idx, stats);
            }
        }

        // 2. Context pulls: the instances on the pull list resolve their
        // missing registers from their producer chain. Gather every read,
        // then apply, so a pass-through value moves one hop per cycle;
        // what this phase makes known is pulled next cycle.
        let mut cands =
            std::mem::replace(&mut self.pulls, std::mem::take(&mut self.scratch.pulling));
        cands.sort_unstable();
        cands.dedup();
        let mut pulled = std::mem::take(&mut self.scratch.pulled);
        pulled.clear();
        for &h in &cands {
            let Some(inst) = self.get(h) else { continue };
            stats.dce_instance_visits += 1;
            let mut missing = inst.missing();
            let Some(p) = inst.producer.and_then(|p| self.get(p)) else {
                continue;
            };
            while missing != 0 {
                let r = missing.trailing_zeros() as usize;
                missing &= missing - 1;
                if let Some(v) = p.arch_value(ArchReg::new(r as u8)) {
                    pulled.push((h, r, v));
                }
            }
        }
        for (k, &(h, r, v)) in pulled.iter().enumerate() {
            let inst = &mut self.slots[h.slot as usize];
            inst.ctx[r] = v;
            inst.ctx_ready |= 1 << r;
            if inst.wake(inst.chain.live_in_consumers[r]) {
                insert_sorted(&mut self.ready, h);
            }
            if inst.ctx_ready == u16::MAX {
                let producer = inst.producer;
                self.feed_producer(producer);
            }
            if pulled.get(k + 1).is_none_or(|next| next.0 != h) {
                self.wake_dependents(h, stats);
            }
        }
        cands.clear();
        self.scratch.pulling = cands;
        self.scratch.pulled = pulled;

        // 3. Issue ready ops, oldest instance first.
        let mut alu_budget = if self.cfg.dce_alus > 0 {
            self.cfg.dce_alus
        } else {
            free_issue_slots
        };
        let mut load_budget = free_load_ports;
        let mut k = 0;
        while k < self.ready.len() && (alu_budget > 0 || load_budget > 0) {
            let h = self.ready[k];
            let s = h.slot as usize;
            stats.dce_instance_visits += 1;
            let mut rm = self.slots[s].ready;
            while rm != 0 {
                let op_idx = rm.trailing_zeros() as usize;
                rm &= rm - 1;
                let bit = 1 << op_idx;
                let inst = &self.slots[s];
                // In-order ablation: an op may only issue when every older
                // op in the chain has at least issued.
                if self.cfg.dce_in_order && inst.waiting & (bit - 1) != 0 {
                    break;
                }
                let op = inst.chain.ops[op_idx];
                if op.is_load() {
                    if load_budget == 0 || self.pending_mem.len() >= self.cfg.dce_mshrs {
                        continue;
                    }
                    let ChainOp::Load { scale, disp, .. } = op else {
                        unreachable!()
                    };
                    let [b, x] = inst.operands(&op);
                    let addr = b
                        .wrapping_add(x.wrapping_mul(u64::from(scale)))
                        .wrapping_add(disp as u64);
                    match mem.request(addr, false, ReqSource::Dce, cycle) {
                        Ok(req) => {
                            self.pending_mem.push((req, h, op_idx, addr));
                            let inst = &mut self.slots[s];
                            inst.waiting &= !bit;
                            inst.ready &= !bit;
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
                    self.alu_events
                        .push((cycle + op.latency(), h, op_idx as u8));
                    let inst = &mut self.slots[s];
                    inst.waiting &= !bit;
                    inst.ready &= !bit;
                    inst.issued |= bit;
                    alu_budget -= 1;
                    stats.dce_uops += 1;
                }
            }
            if self.slots[s].ready == 0 {
                self.ready.remove(k);
            } else {
                k += 1;
            }
        }

        // 4. Compute completions: drain due ALU events (stale events for
        // killed/flushed instances fall out via the handle check).
        let mut ev = std::mem::take(&mut self.alu_events);
        let mut kept = 0;
        for k in 0..ev.len() {
            let (done_at, h, op8) = ev[k];
            if done_at > cycle {
                ev[kept] = ev[k];
                kept += 1;
                continue;
            }
            let op_idx = usize::from(op8);
            let Some(inst) = self.get_mut(h) else {
                continue;
            };
            if inst.issued & (1 << op_idx) == 0 {
                continue;
            }
            stats.dce_instance_visits += 1;
            let op = inst.chain.ops[op_idx];
            let [a, b] = inst.operands(&op);
            match op {
                ChainOp::Alu { op, .. } => inst.op_result[op_idx] = op.eval(a, b),
                ChainOp::Cmp { .. } => inst.flags = Some(Flags::from_cmp(a, b)),
                ChainOp::Load { .. } => unreachable!("loads complete via memory"),
            }
            inst.issued &= !(1 << op_idx);
            inst.undone &= !(1 << op_idx);
            self.op_done(h, op_idx, stats);
        }
        ev.truncate(kept);
        self.alu_events = ev;

        // 5. Instance completion: all ops done -> outcome, fill queue,
        // spawn successors.
        let mut done = std::mem::take(&mut self.completing);
        done.sort_unstable();
        for &h in &done {
            let Some(inst) = self.get_mut(h) else {
                continue;
            };
            stats.dce_instance_visits += 1;
            let flags = inst.flags.expect("chains end in a cmp");
            let outcome = inst.chain.cond.eval(flags);
            inst.outcome = Some(outcome);
            queues.fill(inst.chain.branch_pc, inst.queue_slot, outcome);
            stats.instances_completed += 1;
            // Completed, it now wants its whole context.
            if inst.producer.is_some() && inst.missing() != 0 {
                self.pulls.push(h);
            }
        }
        for &h in &done {
            self.spawn_at_completion(h, cache, queues, stats);
        }
        done.clear();
        self.completing = done;

        // 6. Retry deferred spawns (window/queue pressure), oldest first;
        // drop spawns stuck past the timeout so the engine can drain.
        let mut stuck = std::mem::take(&mut self.scratch.stuck);
        stuck.clear();
        stuck.extend_from_slice(&self.deferred);
        let mut pending = std::mem::take(&mut self.scratch.pending);
        for &h in &stuck {
            let Some(inst) = self.get(h) else { continue };
            stats.dce_instance_visits += 1;
            // While the window admits none of them, a retry only ages the
            // entries: drop the timed-out ones in place.
            if !inst
                .pending_spawn
                .iter()
                .any(|(c, _)| self.window_admits(c))
            {
                let cycle = self.cycle;
                let inst = &mut self.slots[h.slot as usize];
                inst.pending_spawn
                    .retain(|(_, since)| cycle.saturating_sub(*since) < 256);
                if inst.pending_spawn.is_empty() {
                    self.drainable.push(h);
                }
                continue;
            }
            // `append` empties the instance's queue but keeps its capacity,
            // so requeued entries below don't reallocate it.
            let inst = &mut self.slots[h.slot as usize];
            pending.clear();
            pending.append(&mut inst.pending_spawn);
            for (chain, since) in pending.drain(..) {
                if let Initiate::Ok(nid) = self.spawn_successor(h, chain, since, queues, stats) {
                    self.spawn_early(nid, cache, queues, stats);
                }
            }
            if self.get(h).is_some_and(|i| i.pending_spawn.is_empty()) {
                self.drainable.push(h);
            }
        }
        let slots = &self.slots;
        self.deferred.retain(|h| {
            let i = &slots[h.slot as usize];
            i.id == h.id && !i.pending_spawn.is_empty()
        });
        self.scratch.pending = pending;
        self.scratch.stuck = stuck;

        // 7. Free drained instances, judged on the state at phase entry:
        // a producer unblocked by a free here is a candidate next cycle.
        let mut cands = std::mem::replace(
            &mut self.drainable,
            std::mem::take(&mut self.scratch.draining),
        );
        cands.sort_unstable();
        cands.dedup();
        cands.retain(|&h| {
            stats.dce_instance_visits += 1;
            self.get(h).is_some_and(Instance::drained)
        });
        for &h in &cands {
            self.release(h);
        }
        cands.clear();
        self.scratch.draining = cands;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ChainOp, ChainSrc, ChainTag};
    use br_isa::{reg, Cond, MemoryImage};
    use br_mem::MemoryConfig;

    /// A self-triggering chain like leela's branch A:
    ///   op0: add r3 + 8; op1: load [op0]; op2: cmp op1, 0 -> branch Eq;
    ///   live-out r3 = op0.
    fn self_chain() -> DependenceChain {
        let tag = ChainTag {
            pc: 0x50,
            outcome: None,
        };
        let ops = vec![
            ChainOp::Alu {
                op: br_isa::AluOp::Add,
                src1: ChainSrc::LiveIn(reg::R3),
                src2: ChainSrc::Imm(8),
            },
            ChainOp::Load {
                base: Some(ChainSrc::Op(0)),
                index: None,
                scale: 1,
                disp: 0,
                width: Width::B8,
                signed: false,
            },
            ChainOp::Cmp {
                src1: ChainSrc::Op(1),
                src2: ChainSrc::Imm(0),
            },
        ];
        let live_outs = vec![(reg::R3, ChainSrc::Op(0))];
        DependenceChain::new(tag, 0x50, Cond::Eq, ops, 1 << reg::R3.index(), live_outs)
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
            assert_eq!(dce.check_invariants(), Ok(()), "cycle {c}");
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
    fn machine_check_catches_inconsistent_op_masks() {
        let mut cache = DependenceChainCache::new(8);
        let mut queues = PredictionQueues::new(4, 16);
        let mut stats = BrStats::default();
        cache.install(self_chain());
        let mut dce = DependenceChainEngine::new(BranchRunaheadConfig::mini());
        let cpu = CpuState::new();
        dce.sync_initiate(0x50, true, &cpu, &mut cache, &mut queues, &mut stats);
        assert_eq!(dce.check_invariants(), Ok(()));
        // Op 0 still waiting, yet marked in flight.
        dce.slots[0].issued |= 1;
        assert!(dce.check_invariants().is_err());
    }

    #[test]
    fn machine_check_catches_a_stale_ready_mask() {
        let mut cache = DependenceChainCache::new(8);
        let mut queues = PredictionQueues::new(4, 16);
        let mut stats = BrStats::default();
        cache.install(self_chain());
        let mut dce = DependenceChainEngine::new(BranchRunaheadConfig::mini());
        let cpu = CpuState::new();
        dce.sync_initiate(0x50, true, &cpu, &mut cache, &mut queues, &mut stats);
        assert_eq!(dce.check_invariants(), Ok(()));
        // The sync instance has its whole context, so op 0 (add from the
        // live-in) is ready; forget that.
        let h = dce.index[0];
        assert_eq!(dce.slots[h.slot as usize].ready & 1, 1);
        dce.slots[h.slot as usize].ready &= !1;
        assert!(dce.check_invariants().is_err());
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

    /// A guarded chain like leela's branch B: triggered by `<0x50, NT>`,
    /// reads the probe index the A-chain produced.
    ///   op0: load [r3 + 0x1000]; op1: cmp op0, 0 -> branch Eq @ 0x60.
    /// Live-in r3 (the A-chain's live-out pointer).
    fn guarded_chain() -> DependenceChain {
        let tag = ChainTag {
            pc: 0x50,
            outcome: Some(false),
        };
        let ops = vec![
            ChainOp::Load {
                base: Some(ChainSrc::LiveIn(reg::R3)),
                index: None,
                scale: 1,
                disp: 0x1000,
                width: Width::B8,
                signed: false,
            },
            ChainOp::Cmp {
                src1: ChainSrc::Op(0),
                src2: ChainSrc::Imm(0),
            },
        ];
        let mut chain =
            DependenceChain::new(tag, 0x60, Cond::Eq, ops, 1 << reg::R3.index(), vec![]);
        chain.guard_terminated = true;
        chain
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
            assert_eq!(dce.check_invariants(), Ok(()), "cycle {c}");
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
            assert_eq!(dce.check_invariants(), Ok(()), "cycle {c}");
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
