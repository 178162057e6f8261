//! The complete Branch Runahead system, wired into the core's hooks.
//!
//! Placement mirrors Figure 6: extraction hardware observes retirement
//! (CEB, HBT), the merge-point predictor observes flushes and retirement
//! (WPB + poison), the prediction queues sit in front of the branch
//! predictor at fetch, and the DCE runs asynchronously, synchronized by
//! mispredictions.

use std::collections::VecDeque;

use br_isa::{CpuState, Machine, Pc};
use br_mem::{MemResp, MemorySystem};
use br_ooo::{
    BranchOutcome, CoreHooks, CycleReport, FetchedBranch, MispredictInfo, RetiredUop, WrongPathUop,
};
use br_telemetry::{EventKind, Telemetry};

use crate::agdetect::PoisonDetector;
use crate::ceb::{CebRecord, ChainExtractionBuffer};
use crate::chain_cache::DependenceChainCache;
use crate::config::BranchRunaheadConfig;
use crate::dce::DependenceChainEngine;
use crate::extract::{extract_chain_with, ExtractLimits, ExtractScratch, LOCAL_REGS};
use crate::hbt::HardBranchTable;
use crate::pqueue::{FetchVerdict, PredictionQueues, QueueCheckpoint};
use crate::stats::{BrStats, PredictionCategory};
use crate::wpb::{WrongPathBuffer, MAX_MERGE_DISTANCE};

/// A fetched conditional branch that has neither retired nor been
/// squashed.
#[derive(Debug)]
struct InFlight {
    /// Fetch sequence number.
    seq: u64,
    /// The prediction queues' fetch pointers just after its fetch, which
    /// a misprediction of this branch restores.
    checkpoint: QueueCheckpoint,
    /// What its fetch consumed from its prediction queue, if the chain
    /// cache covered it then.
    consumed: Option<FetchVerdict>,
}

/// Diagnostic validation of merge-point predictions (the §4.4 "92%
/// accurate" measurement): a prediction is correct when the predicted
/// merge PC is observed on *both* future directions of the branch.
#[derive(Clone, Debug)]
struct MergeValidation {
    merge_pc: Pc,
    /// The prior-work static heuristic's merge point: the branch's taken
    /// target (filled in lazily from the first retired instance).
    static_pc: Option<Pc>,
    /// Found-on-path result per direction (index 0 = not-taken): (wpb
    /// merge found, static merge found).
    seen: [Option<(bool, bool)>; 2],
    /// Active scan: (direction, remaining uops, wpb found, static found).
    tracking: Option<(bool, usize, bool, bool)>,
}

/// Point-in-time occupancy of the Branch Runahead structures, read by the
/// interval sampler.
#[derive(Clone, Copy, Debug, Default)]
pub struct BrLiveState {
    /// Chain instances currently executing in the DCE.
    pub dce_active: usize,
    /// Live prediction-queue slots across all queues.
    pub queue_slots: usize,
    /// Chains resident in the dependence chain cache.
    pub cached_chains: usize,
}

/// The Branch Runahead system. Implements [`CoreHooks`]; call
/// [`BranchRunahead::tick`] once per cycle after the core's tick.
pub struct BranchRunahead {
    cfg: BranchRunaheadConfig,
    retire_width: usize,
    hbt: HardBranchTable,
    ceb: ChainExtractionBuffer,
    wpb: WrongPathBuffer,
    poison: Option<PoisonDetector>,
    cache: DependenceChainCache,
    queues: PredictionQueues,
    dce: DependenceChainEngine,
    stats: BrStats,

    /// The verdict `override_prediction` got for the branch being
    /// fetched, with its PC, until `on_branch_fetch` records it.
    pending_consumption: Option<(Pc, FetchVerdict)>,
    /// In-flight branches in fetch order. Branches retire oldest first
    /// and every squash funnels through [`CoreHooks::on_mispredict`]
    /// before sequence numbers are recycled, so retirement pops the
    /// front and a misprediction truncates the back.
    in_flight: VecDeque<InFlight>,
    /// Recycled checkpoint buffers: `on_branch_fetch` runs once per
    /// fetched branch, so pooling removes a per-branch allocation.
    checkpoint_pool: Vec<QueueCheckpoint>,
    validations: Vec<(Pc, MergeValidation)>,
    /// Scratch for [`BranchRunahead::feed_merge_validator`].
    finished_scans: Vec<(Pc, bool, bool, bool)>,
    /// Reusable extraction buffers.
    extract_scratch: ExtractScratch,

    tele: Telemetry,
}

impl std::fmt::Debug for BranchRunahead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BranchRunahead")
            .field("config", &self.cfg.name)
            .field("chains", &self.cache.len())
            .finish()
    }
}

impl BranchRunahead {
    /// Creates a Branch Runahead system. `retire_width` models the ROB
    /// walk copy rate into the WPB (footnote 14).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`BranchRunaheadConfig::validate`].
    #[must_use]
    pub fn new(cfg: BranchRunaheadConfig, retire_width: usize) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        BranchRunahead {
            retire_width,
            hbt: HardBranchTable::new(cfg.hbt_entries),
            ceb: ChainExtractionBuffer::new(cfg.ceb_entries),
            wpb: WrongPathBuffer::new(),
            poison: None,
            cache: DependenceChainCache::new(cfg.chain_cache_entries),
            queues: PredictionQueues::new(cfg.num_queues, cfg.queue_entries),
            dce: DependenceChainEngine::new(cfg),
            stats: BrStats::default(),
            pending_consumption: None,
            in_flight: VecDeque::new(),
            checkpoint_pool: Vec::new(),
            validations: Vec::new(),
            finished_scans: Vec::new(),
            extract_scratch: ExtractScratch::default(),
            tele: Telemetry::off(),
            cfg,
        }
    }

    /// Attaches a telemetry sink; the engine traces its events into it
    /// until [`BranchRunahead::take_telemetry`].
    pub fn attach_telemetry(&mut self, tele: Telemetry) {
        self.tele = tele;
    }

    /// Detaches and returns the telemetry sink (a disabled sink remains).
    pub fn take_telemetry(&mut self) -> Telemetry {
        std::mem::take(&mut self.tele)
    }

    /// Current occupancy of the engine's structures (interval sampling).
    #[must_use]
    pub fn live_state(&self) -> BrLiveState {
        BrLiveState {
            dce_active: self.dce.active_instances(),
            queue_slots: self.queues.occupied_slots(),
            cached_chains: self.cache.len(),
        }
    }

    /// Advances the DCE one cycle. Call after the core's tick with the
    /// same memory responses and the core's resource report.
    pub fn tick(
        &mut self,
        cycle: u64,
        machine: &Machine,
        mem: &mut MemorySystem,
        responses: &[MemResp],
        report: &CycleReport,
    ) {
        self.dce.tick(
            cycle,
            machine,
            mem,
            responses,
            report.free_load_ports,
            report.free_issue_slots,
            &mut self.cache,
            &mut self.queues,
            &mut self.stats,
        );
    }

    /// Accumulated statistics, with the counts the WPB, the HBT and the
    /// chain cache keep themselves folded in.
    #[must_use]
    pub fn stats(&self) -> BrStats {
        let mut s = self.stats.clone();
        (_, s.merge_points_found, s.merge_points_failed) = self.wpb.stats();
        (s.hbt_inserts, s.hbt_evicts) = self.hbt.churn();
        (s.chain_cache_lookups, s.chain_cache_hits) = self.cache.lookup_stats();
        s
    }

    /// The dependence chain cache (inspection / examples).
    #[must_use]
    pub fn chain_cache(&self) -> &DependenceChainCache {
        &self.cache
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &BranchRunaheadConfig {
        &self.cfg
    }

    /// The Hard Branch Table (inspection / examples).
    #[must_use]
    pub fn hard_branch_table(&self) -> &HardBranchTable {
        &self.hbt
    }

    // ---------------------------------------------- fault injection
    //
    // The `chaos_*` entry points below are driven by the simulator's
    // fault harness (`br_sim::faults`). Every one of them perturbs only
    // *speculative assist* state — chain outcomes are hints, so the
    // worst any of these can do is cost performance. The machine-check
    // layer (`check_invariants`) plus the harness's architectural-
    // equivalence comparison prove that claim under soak.

    /// Fault injection: evicts a pseudo-random chain-cache entry
    /// (selected by `sel`). Returns whether an entry existed to evict.
    pub fn chaos_evict_chain(&mut self, sel: u64) -> bool {
        self.cache.chaos_evict(sel)
    }

    /// Fault injection: forces an HBT decay storm.
    pub fn chaos_decay_storm(&mut self) {
        self.hbt.chaos_decay_storm();
    }

    /// Fault injection: swallows the next DCE→prediction-queue push.
    pub fn chaos_drop_next_fill(&mut self) {
        self.queues.chaos_drop_next_fill();
    }

    /// Whether memory request `id` is an outstanding DCE load (the fault
    /// harness delays only DCE traffic; core responses are never touched).
    #[must_use]
    pub fn owns_mem_request(&self, id: br_mem::ReqId) -> bool {
        self.dce.owns_request(id)
    }

    /// Traces a fault the simulator's fault harness injected (it also
    /// counts them). `kind_code` follows `br_sim::faults::FaultKind`.
    pub fn record_external_fault(&mut self, cycle: u64, pc: Pc, kind_code: u64) {
        self.tele
            .event(cycle, EventKind::FaultInject, pc, kind_code);
    }

    /// Deliberately corrupts a prediction-queue fetch pointer. Exists
    /// only so CI can prove the machine-check layer catches and reports
    /// real violations; never called outside that fixture.
    #[doc(hidden)]
    pub fn chaos_sabotage(&mut self) {
        self.queues.sabotage_fetch_pointer();
    }

    /// Runs a machine-check sweep over every structure's invariants:
    /// prediction-queue pointer ordering, chain-cache LRU consistency,
    /// HBT counter saturation bounds, CEB circularity, DCE window /
    /// MSHR bounds, and the DCE's event bookkeeping recounted.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant, described.
    pub fn check_invariants(&mut self, cycle: u64) -> Result<(), String> {
        self.stats.machine_checks += 1;
        let result = self
            .queues
            .check_invariants()
            .and_then(|()| self.cache.check_invariants())
            .and_then(|()| self.hbt.check_invariants())
            .and_then(|()| self.ceb.check_invariants())
            .and_then(|()| self.dce.check_invariants());
        self.tele.event(
            cycle,
            EventKind::MachineCheck,
            0,
            u64::from(result.is_err()),
        );
        result
    }

    fn run_extraction(&mut self, pc: Pc, cycle: u64) {
        self.stats.extraction_attempts += 1;
        let mut ag = self.hbt.affector_guards(pc);
        if !self.cfg.enable_affector_guards {
            ag.clear();
        }
        ag.retain(|p| !self.hbt.is_biased(*p));
        let limits = ExtractLimits {
            max_chain_len: self.cfg.max_chain_len,
            local_regs: LOCAL_REGS,
        };
        match extract_chain_with(&mut self.extract_scratch, &self.ceb, pc, &ag, &limits) {
            Ok(chain) => {
                self.stats.chains_extracted += 1;
                self.stats.chain_len_sum += chain.len() as u64;
                if chain.guard_terminated || !ag.is_empty() {
                    self.stats.chains_with_ag += 1;
                }
                self.stats.uops_eliminated += chain.eliminated_uops as u64;
                self.tele
                    .event(cycle, EventKind::ChainExtract, pc, chain.len() as u64);
                self.cache.install(chain);
            }
            Err(outcome) => {
                self.stats.extraction_rejects += 1;
                self.tele
                    .event(cycle, EventKind::ChainReject, pc, outcome as u64);
            }
        }
    }

    /// Traces the HBT allocations made since `before` (a
    /// [`HardBranchTable::churn`] reading) as insert/evict events at the
    /// retirement that caused them.
    fn trace_hbt_churn(&mut self, before: (u64, u64), cycle: u64, pc: Pc) {
        let (inserts, evicts) = self.hbt.churn();
        for _ in before.0..inserts {
            self.tele.event(cycle, EventKind::HbtInsert, pc, 0);
        }
        for _ in before.1..evicts {
            self.tele.event(cycle, EventKind::HbtEvict, pc, 0);
        }
    }

    fn feed_merge_validator(&mut self, u: &RetiredUop) {
        // Advance active scans.
        let mut finished = std::mem::take(&mut self.finished_scans);
        finished.clear();
        for (bpc, v) in &mut self.validations {
            if let Some((dir, remaining, found, found_static)) = &mut v.tracking {
                *found |= u.uop.pc == v.merge_pc;
                *found_static |= v.static_pc == Some(u.uop.pc);
                // The scan ends at the distance bound or at the next
                // dynamic instance of the branch itself (one control-flow
                // region, like the WPB's own walk).
                let at_next_instance = u.uop.pc == *bpc;
                if (*found && *found_static) || *remaining == 0 || at_next_instance {
                    finished.push((*bpc, *dir, *found, *found_static));
                    v.tracking = None;
                } else {
                    *remaining -= 1;
                }
            }
        }
        for &(bpc, dir, found, found_static) in &finished {
            if let Some(i) = self.validations.iter().position(|(p, _)| *p == bpc) {
                let v = &mut self.validations[i].1;
                v.seen[usize::from(dir)] = Some((found, found_static));
                if let [Some((nt, snt)), Some((t, st))] = v.seen {
                    self.stats.merge_validated += 1;
                    if nt && t {
                        self.stats.merge_correct += 1;
                    }
                    self.stats.static_merge_validated += 1;
                    if snt && st {
                        self.stats.static_merge_correct += 1;
                    }
                    self.validations.remove(i);
                }
            }
        }
        self.finished_scans = finished;
        // Start a scan when a validated branch retires in an unseen
        // direction.
        if u.uop.is_cond_branch() {
            if let Some(b) = u.rec.branch {
                let dir = b.actual_taken;
                if let Some(v) = self
                    .validations
                    .iter_mut()
                    .find_map(|(p, v)| (*p == u.uop.pc).then_some(v))
                {
                    // The static prior-work heuristic: merge = taken target.
                    if v.static_pc.is_none() {
                        v.static_pc = Some(b.target);
                    }
                    if v.tracking.is_none() && v.seen[usize::from(dir)].is_none() {
                        v.tracking = Some((dir, MAX_MERGE_DISTANCE, false, false));
                    }
                }
            }
        }
    }
}

impl CoreHooks for BranchRunahead {
    fn override_prediction(&mut self, pc: Pc, _base: bool, _cycle: u64) -> Option<bool> {
        if !self.cache.covers_branch(pc) {
            self.pending_consumption = None;
            return None;
        }
        let verdict = self.queues.consume_at_fetch(pc);
        self.pending_consumption = Some((pc, verdict));
        match verdict {
            FetchVerdict::Use { value, .. } => Some(value),
            _ => None,
        }
    }

    fn on_branch_fetch(&mut self, b: &FetchedBranch) {
        let consumed = self.pending_consumption.take().map(|(pc, verdict)| {
            debug_assert_eq!(pc, b.pc, "consumption/fetch pairing broke");
            verdict
        });
        let mut checkpoint = self.checkpoint_pool.pop().unwrap_or_default();
        self.queues.checkpoint_into(&mut checkpoint);
        debug_assert!(self.in_flight.back().is_none_or(|f| f.seq < b.seq));
        self.in_flight.push_back(InFlight {
            seq: b.seq,
            checkpoint,
            consumed,
        });
    }

    fn on_mispredict(
        &mut self,
        info: &MispredictInfo,
        wrong_path: &[WrongPathUop],
        cpu: &CpuState,
    ) {
        // Rewind prediction-queue fetch pointers to this branch, and drop
        // the younger branches it squashed.
        let keep = self.in_flight.partition_point(|f| f.seq <= info.seq);
        if let Some(f) = keep.checked_sub(1).map(|i| &self.in_flight[i]) {
            if f.seq == info.seq {
                self.queues.restore(&f.checkpoint);
            }
        }
        self.checkpoint_pool
            .extend(self.in_flight.drain(keep..).map(|f| f.checkpoint));

        // Merge-point prediction: capture the wrong path.
        self.wpb
            .arm(info.pc, info.seq, wrong_path, info.cycle, self.retire_width);

        // Synchronization policy (§3, §4.1): chains run asynchronously
        // "until a misprediction from the dependence chains is detected".
        // A misprediction the DCE caused means the chains diverged —
        // flush, then re-copy live-ins below. A TAGE misprediction while
        // the DCE is idle is the entry into runahead mode. A TAGE
        // misprediction while chains are already running leaves them
        // alone: the queue fetch-pointer restore above re-aligns
        // consumption.
        if info.provenance == br_ooo::PredictionProvenance::Dce {
            // Throttle bookkeeping must happen *before* the slots vanish
            // in the flush: a DCE-wrong/TAGE-right event silences this
            // branch's queue (§4.2 Prediction Throttling).
            if info.base_prediction == info.actual_taken {
                self.queues.penalize(info.pc);
            }
            self.stats.dce_flushes += 1;
            self.tele.event(
                info.cycle,
                EventKind::DceFlush,
                info.pc,
                self.dce.active_instances() as u64,
            );
            self.dce.flush_all(&mut self.queues, &mut self.stats);
            self.queues.clear_all();
        }
        // After a flush the DCE is idle, and a second `clear_all` changes
        // nothing, so one block serves both synchronizations.
        if self.dce.active_instances() == 0 && self.cache.has_match(info.pc, info.actual_taken) {
            self.queues.clear_all();
            self.tele.event(
                info.cycle,
                EventKind::DceSync,
                info.pc,
                u64::from(info.actual_taken),
            );
            self.dce.sync_initiate(
                info.pc,
                info.actual_taken,
                cpu,
                &mut self.cache,
                &mut self.queues,
                &mut self.stats,
            );
        }
    }

    fn on_retire(&mut self, u: &RetiredUop) {
        let churn = self.hbt.churn();
        self.ceb.push(CebRecord::from_retired(u));

        if let Some(ev) = self.wpb.on_correct_retire(u) {
            self.tele
                .event(u.cycle, EventKind::WpbMerge, ev.branch_pc, ev.merge_pc);
            // Guard registration: the merge-predicted branch guards every
            // branch observed before the merge point.
            if self.cfg.enable_affector_guards {
                for guarded in &ev.guarded {
                    if self.hbt.add_affector_guard(*guarded, ev.branch_pc) {
                        self.stats.ag_pairs += 1;
                    }
                }
            }
            // Begin affector detection from the merge point.
            self.poison = Some(PoisonDetector::new(&ev, MAX_MERGE_DISTANCE));
            // Register for diagnostic validation (bounded).
            if self.validations.len() < 64
                && !self.validations.iter().any(|(p, _)| *p == ev.branch_pc)
            {
                self.validations.push((
                    ev.branch_pc,
                    MergeValidation {
                        merge_pc: ev.merge_pc,
                        static_pc: None,
                        seen: [None, None],
                        tracking: None,
                    },
                ));
            }
        }

        if let Some(p) = &mut self.poison {
            if let Some(affectee) = p.step(u) {
                let affector = p.affector();
                if self.cfg.enable_affector_guards
                    && self.hbt.add_affector_guard(affectee, affector)
                {
                    self.stats.ag_pairs += 1;
                }
            }
            if p.is_done() {
                self.poison = None;
            }
        }

        self.feed_merge_validator(u);
        self.trace_hbt_churn(churn, u.cycle, u.uop.pc);
    }

    fn on_branch_retire(&mut self, b: &BranchOutcome) {
        let churn = self.hbt.churn();
        let consumed = self
            .in_flight
            .pop_front_if(|f| f.seq == b.seq)
            .and_then(|f| {
                self.checkpoint_pool.push(f.checkpoint);
                f.consumed
            });
        self.dce.train_init_counter(b.pc, b.taken);

        // Prediction-queue retirement + Figure 12 accounting.
        let tage_correct = b.base_prediction == b.taken;
        let category = match consumed {
            Some(FetchVerdict::Use { slot, value }) => {
                self.queues.retire(b.pc, slot, b.taken, tage_correct);
                Some(if value == b.taken {
                    PredictionCategory::Correct
                } else {
                    PredictionCategory::Incorrect
                })
            }
            Some(FetchVerdict::Late { slot }) => {
                self.queues.retire(b.pc, slot, b.taken, tage_correct);
                Some(PredictionCategory::Late)
            }
            Some(FetchVerdict::Throttled { slot, .. }) => {
                self.queues.retire(b.pc, slot, b.taken, tage_correct);
                Some(PredictionCategory::Throttled)
            }
            Some(FetchVerdict::Inactive | FetchVerdict::NoQueue) => {
                Some(PredictionCategory::Inactive)
            }
            None => self
                .cache
                .covers_branch(b.pc)
                .then_some(PredictionCategory::Inactive),
        };
        if let Some(c) = category {
            self.stats.count_category(c);
        }

        // HBT update; saturation or AG changes trigger chain extraction.
        if self.hbt.on_branch_retire(b.pc, b.taken, b.mispredicted) {
            self.run_extraction(b.pc, b.cycle);
        }

        self.trace_hbt_churn(churn, b.cycle, b.pc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_isa::{reg, Cond, Machine, MemOperand, MemoryImage, ProgramBuilder};
    use br_mem::MemoryConfig;
    use br_ooo::{Core, CoreConfig, NullHooks};
    use br_predictor::{TageScl, TageSclConfig};

    /// A leela-like kernel: loop over a table of pseudo-random values with
    /// a data-dependent branch (plus a guarded second branch), exactly the
    /// structure of Figure 4a.
    fn board_scan_program(n: u64) -> (br_isa::Program, MemoryImage) {
        let mut img = MemoryImage::new();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut board = Vec::new();
        for _ in 0..1024 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            board.push(x % 3); // values 0..2; "EMPTY" == 2
        }
        img.write_u64_slice(0x10000, &board);

        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0); // i
        b.mov_imm(reg::R12, 0x10000); // board base
        b.mov_imm(reg::R10, 0x243f_6a88); // xorshift state (random probe)
        let top = b.here();
        // xorshift: r10 ^= r10<<13; r10 ^= r10>>7; r10 ^= r10<<17
        b.shl(reg::R11, reg::R10, 13i64);
        b.xor(reg::R10, reg::R10, reg::R11);
        b.shr(reg::R11, reg::R10, 7i64);
        b.xor(reg::R10, reg::R10, reg::R11);
        b.shl(reg::R11, reg::R10, 17i64);
        b.xor(reg::R10, reg::R10, reg::R11);
        // r5 = random board position; r6 = board[r5]
        b.and(reg::R5, reg::R10, 1023i64);
        b.load(reg::R6, MemOperand::base_index(reg::R12, reg::R5, 8, 0));
        b.cmpi(reg::R6, 2);
        b.br(Cond::Ne, skip); // Branch A: data-dependent, ~2/3 taken
                              // Guarded work: a second data-dependent branch (Branch B).
        b.load(reg::R7, MemOperand::base_index(reg::R12, reg::R5, 8, 8));
        b.cmpi(reg::R7, 1);
        b.br(Cond::Ne, skip); // Branch B
        b.addi(reg::R2, reg::R2, 1);
        b.bind(skip);
        // do_work(): per-iteration work, as in Figure 4a. Gives the loop a
        // realistic body so the DCE has slack to run ahead.
        for _ in 0..4 {
            b.mul(reg::R8, reg::R8, 3i64);
            b.addi(reg::R9, reg::R9, 7);
            b.xor(reg::R13, reg::R13, reg::R9);
        }
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, n as i64);
        b.br(Cond::Ne, top);
        b.halt();
        (b.build().unwrap(), img)
    }

    fn run(with_br: bool, n: u64) -> (br_ooo::CoreStats, Option<BrStats>) {
        let (program, img) = board_scan_program(n);
        let machine = Machine::new(img.into_memory());
        let mut core = Core::new(
            CoreConfig::default(),
            program,
            machine,
            Box::new(TageScl::new(TageSclConfig::kb64())),
        );
        let mut mem = MemorySystem::new(MemoryConfig::default());
        if with_br {
            let mut br = BranchRunahead::new(BranchRunaheadConfig::mini(), 4);
            for c in 0..4_000_000u64 {
                let resps = mem.tick(c);
                let report = core.tick(&resps, &mut mem, &mut br);
                br.tick(c, core.machine(), &mut mem, &resps, &report);
                if report.done {
                    break;
                }
            }
            (core.stats().clone(), Some(br.stats()))
        } else {
            let mut hooks = NullHooks;
            for c in 0..4_000_000u64 {
                let resps = mem.tick(c);
                if core.tick(&resps, &mut mem, &mut hooks).done {
                    break;
                }
            }
            (core.stats().clone(), None)
        }
    }

    #[test]
    fn branch_runahead_reduces_mispredictions_end_to_end() {
        let n = 6000;
        let (base, _) = run(false, n);
        let (with, br) = run(true, n);
        let br = br.unwrap();

        assert!(
            base.mispredicts > 500,
            "baseline must struggle on the data-dependent branch: {}",
            base.mispredicts
        );
        assert!(br.chains_extracted > 0, "chains must be extracted");
        assert!(br.instances_completed > 100, "chains must run");
        assert!(
            (with.mpki()) < base.mpki() * 0.75,
            "Branch Runahead should cut MPKI by >25%: base {:.2}, BR {:.2}",
            base.mpki(),
            with.mpki()
        );
        assert!(
            with.ipc() > base.ipc(),
            "IPC should improve: base {:.3}, BR {:.3}",
            base.ipc(),
            with.ipc()
        );
        // Architectural correctness is implied by completing the program
        // (the functional machine is shared), but check the DCE actually
        // supplied predictions.
        let used = br.category_fraction(PredictionCategory::Correct)
            + br.category_fraction(PredictionCategory::Incorrect);
        assert!(used > 0.2, "DCE should supply predictions: {used:.3}");
        let correct = br.category_fraction(PredictionCategory::Correct);
        let incorrect = br.category_fraction(PredictionCategory::Incorrect);
        assert!(
            correct > incorrect * 5.0,
            "used predictions should be overwhelmingly correct: {correct:.3} vs {incorrect:.3}"
        );
    }

    #[test]
    fn chain_length_matches_figure2_shape() {
        let (_, br) = run(true, 4000);
        let br = br.unwrap();
        let len = br.avg_chain_len();
        assert!(
            (1.0..=16.0).contains(&len),
            "chains must be short (Fig 2): {len}"
        );
    }

    #[test]
    fn merge_point_prediction_mostly_correct() {
        let (_, br) = run(true, 4000);
        let br = br.unwrap();
        assert!(br.merge_points_found > 0, "merge points must be found");
        if br.merge_validated >= 3 {
            assert!(
                br.merge_accuracy() > 0.6,
                "merge accuracy too low: {:.2} over {}",
                br.merge_accuracy(),
                br.merge_validated
            );
        }
    }
}
