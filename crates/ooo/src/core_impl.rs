//! The cycle-level out-of-order core.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use br_isa::{AluOp, ExecRecord, Machine, MachineCheckpoint, Program, Uop, NUM_ARCH_REGS};
use br_mem::{Cache, CacheConfig, MemResp, MemorySystem, ReqId, ReqSource, RequestError};
use br_predictor::{ConditionalPredictor, Prediction, PredictorCheckpoint};
use br_telemetry::{EventKind, Telemetry};

use crate::config::CoreConfig;
use crate::hooks::{
    BranchOutcome, CoreHooks, FetchedBranch, MispredictInfo, PredictionProvenance, RetiredUop,
    WrongPathUop,
};
use crate::stats::CoreStats;

/// Instruction-cache size in bytes (Table 1: 32 KB).
const ICACHE_BYTES: u64 = 32 * 1024;
/// I-cache associativity.
const ICACHE_WAYS: usize = 8;
/// Fetch-stall cycles on an I-cache miss (L2 service).
const ICACHE_MISS_LATENCY: u64 = 15;
/// Uops fetched per cycle (fetch breaks on a taken branch).
const FETCH_WIDTH: usize = 4;
/// Store-to-load forwarding latency in cycles.
const FORWARD_LATENCY: u64 = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ExecState {
    /// In the reservation station, waiting for operands / a port.
    Waiting,
    /// Issued to a functional unit; completion scheduled.
    Issued,
    /// Waiting on the memory system.
    MemPending(ReqId),
    /// Result available.
    Done,
}

struct BranchCtl {
    prediction: Prediction,
    followed: bool,
    provenance: PredictionProvenance,
    machine_cp: MachineCheckpoint,
    predictor_cp: PredictorCheckpoint,
    writer_cp: [Option<u64>; NUM_ARCH_REGS],
    mispredicted: bool,
}

/// A store in the ROB, as the forwarding search sees it: its seq and
/// the bytes `[addr, end)` it writes.
#[derive(Clone, Copy, Debug)]
struct StoreRef {
    seq: u64,
    addr: u64,
    end: u64,
}

struct RobEntry {
    /// ROB position identity: contiguous within the ROB, and the entry's
    /// ring slot (`seq & mask`). Reused after squashes (`next_seq` rewinds
    /// on recovery).
    seq: u64,
    /// Never-reused identity, guarding against stale completion events
    /// addressed to a squashed uop whose `seq` was recycled.
    uid: u64,
    uop: Uop,
    rec: ExecRecord,
    fetch_cycle: u64,
    state: ExecState,
    completed_at: u64,
    /// Producers not yet `Done`: the entry is ready once this is 0.
    pending: u8,
    branch: Option<Box<BranchCtl>>,
}

impl RobEntry {
    fn wrong_path_summary(&self) -> WrongPathUop {
        WrongPathUop {
            pc: self.uop.pc,
            dsts: self.uop.dsts(),
            store_addr: self.rec.mem.filter(|m| m.is_store).map(|m| m.addr),
            branch: if self.uop.is_cond_branch() {
                self.rec.branch.map(|b| b.followed_taken)
            } else {
                None
            },
        }
    }
}

/// One slot of the ROB ring: the entry whose seq maps here, while it is
/// in the ROB, and the consumers registered on it as `(seq, uid)`. The
/// list is cleared when fetch refills the slot; the uid screens out
/// consumers squashed since they registered.
#[derive(Default)]
struct RobSlot {
    entry: Option<RobEntry>,
    consumers: Vec<(u64, u64)>,
}

/// Functional-unit completions as `(done_at, seq, uid)`, in per-cycle
/// buckets indexed by `done_at & mask`. Every latency is below the
/// wheel's span, so a bucket only ever holds one cycle's completions.
struct CompletionWheel {
    buckets: Vec<Vec<(u64, u64, u64)>>,
    mask: u64,
}

impl CompletionWheel {
    /// A wheel spanning the smallest power of two above `longest` cycles.
    fn new(longest: u64) -> Self {
        let span = (longest + 1).next_power_of_two();
        CompletionWheel {
            buckets: vec![Vec::new(); span as usize],
            mask: span - 1,
        }
    }

    /// Schedules `(seq, uid)` to complete at `done_at`, which must lie
    /// in `(now, now + span)`.
    fn push(&mut self, now: u64, done_at: u64, seq: u64, uid: u64) {
        debug_assert!(done_at > now && done_at - now <= self.mask);
        self.buckets[(done_at & self.mask) as usize].push((done_at, seq, uid));
    }

    /// Takes the completions due at `now` in `(done_at, seq, uid)` order;
    /// hand the buffer back with [`CompletionWheel::recycle`].
    fn take_due(&mut self, now: u64) -> Vec<(u64, u64, u64)> {
        let mut due = std::mem::take(&mut self.buckets[(now & self.mask) as usize]);
        due.sort_unstable();
        due
    }

    /// Returns `now`'s bucket buffer, emptied, so its capacity is reused.
    fn recycle(&mut self, now: u64, mut due: Vec<(u64, u64, u64)>) {
        due.clear();
        self.buckets[(now & self.mask) as usize] = due;
    }

    /// Checks that every entry sits in bucket `done_at & mask` and is due
    /// in `[now, now + span)`.
    fn check(&self, now: u64) -> Result<(), String> {
        for (b, bucket) in self.buckets.iter().enumerate() {
            for &(done_at, seq, _) in bucket {
                if (done_at & self.mask) as usize != b {
                    return Err(format!(
                        "core: seq {seq} due at {done_at} sits in wheel bucket {b}"
                    ));
                }
                if done_at < now || done_at - now > self.mask {
                    return Err(format!(
                        "core: seq {seq} due at {done_at}, outside the wheel's span at {now}"
                    ));
                }
            }
        }
        Ok(())
    }

    fn iter(&self) -> impl Iterator<Item = &(u64, u64, u64)> {
        self.buckets.iter().flatten()
    }
}

/// Summary of one core cycle, used by the composition layer to arbitrate
/// shared resources (D-cache ports) and detect completion.
#[derive(Clone, Copy, Debug)]
pub struct CycleReport {
    /// L1D ports the core left unused this cycle (available to the DCE —
    /// §4.2: "the main thread is given priority to the D-Cache ports").
    pub free_load_ports: usize,
    /// Issue slots the core left unused this cycle (the Core-Only DCE
    /// variant executes chains in these).
    pub free_issue_slots: usize,
    /// Whether the program has fully drained.
    pub done: bool,
}

/// The out-of-order core. Construct with [`Core::new`], then call
/// [`Core::tick`] once per cycle, passing the shared memory system's
/// responses for this cycle.
pub struct Core {
    cfg: CoreConfig,
    program: Arc<Program>,
    machine: Machine,
    predictor: Box<dyn ConditionalPredictor>,
    /// The ROB: a ring of `rob_entries.next_power_of_two()` slots holding
    /// seqs `rob_head..next_seq`, the entry with seq `s` in slot
    /// `s & rob_mask`. Fetch appends each slot the first time it reaches
    /// it, so building a core touches none of the ring's memory.
    rob: Vec<RobSlot>,
    rob_mask: u64,
    /// The oldest entry's seq (`next_seq` when the ROB is empty).
    rob_head: u64,
    /// Entries in the reservation station: the `Waiting` ones.
    rs_used: usize,
    /// `Waiting` entries with no pending producer, in seq order.
    ready: Vec<u64>,
    /// The stores in the ROB, in seq order.
    stores: VecDeque<StoreRef>,
    last_writer: [Option<u64>; NUM_ARCH_REGS],
    next_seq: u64,
    next_uid: u64,
    cycle: u64,
    fetch_stall_until: u64,
    /// In-flight core loads, keyed by memory-request id. Bounded by the
    /// MSHR count, so a linear-scan list beats hashing.
    pending_mem: Vec<(ReqId, u64, u64)>,
    completions: CompletionWheel,
    /// Scratch for `recover`'s wrong-path summary (reused across squashes).
    wrong_path_scratch: Vec<WrongPathUop>,
    /// Recycled branch-control boxes: checkpoint buffers (predictor
    /// history) are reused instead of reallocated per fetched branch.
    /// The boxes are deliberate — ROB entries store `Option<Box<BranchCtl>>`
    /// to stay small, and pooling the box itself is what avoids the
    /// per-branch heap round trip.
    #[allow(clippy::vec_box)]
    ctl_pool: Vec<Box<BranchCtl>>,
    icache: Cache,
    stats: CoreStats,
    max_retired: u64,
    tele: Telemetry,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("cycle", &self.cycle)
            .field("rob", &self.rob_len())
            .field("retired", &self.stats.retired_uops)
            .finish()
    }
}

impl Core {
    /// Creates a core executing `program` on `machine` with the given
    /// baseline predictor. The program is taken as (anything convertible
    /// to) an [`Arc`] so a shared workload image need not be copied per
    /// core instance.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    #[must_use]
    pub fn new(
        cfg: CoreConfig,
        program: impl Into<Arc<Program>>,
        machine: Machine,
        predictor: Box<dyn ConditionalPredictor>,
    ) -> Self {
        let program = program.into();
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let icache = Cache::new(CacheConfig {
            size_bytes: ICACHE_BYTES,
            ways: ICACHE_WAYS,
        });
        let ring = cfg.rob_entries.next_power_of_two();
        let longest = u64::from(AluOp::Div.latency()).max(FORWARD_LATENCY);
        Core {
            icache,
            program,
            machine,
            predictor,
            rob: Vec::with_capacity(ring),
            rob_mask: ring as u64 - 1,
            rob_head: 0,
            rs_used: 0,
            ready: Vec::new(),
            stores: VecDeque::new(),
            last_writer: [None; NUM_ARCH_REGS],
            next_seq: 0,
            next_uid: 0,
            cycle: 0,
            fetch_stall_until: 0,
            pending_mem: Vec::new(),
            completions: CompletionWheel::new(longest),
            wrong_path_scratch: Vec::new(),
            ctl_pool: Vec::new(),
            stats: CoreStats::default(),
            max_retired: u64::MAX,
            tele: Telemetry::off(),
            cfg,
        }
    }

    /// Attaches a telemetry sink; the core traces its events into it
    /// until [`Core::take_telemetry`].
    pub fn attach_telemetry(&mut self, tele: Telemetry) {
        self.tele = tele;
    }

    /// Detaches and returns the telemetry sink (a disabled sink remains).
    pub fn take_telemetry(&mut self) -> Telemetry {
        std::mem::take(&mut self.tele)
    }

    /// Caps the simulation at `n` retired uops ([`Core::tick`] reports
    /// `done` once reached).
    pub fn set_max_retired(&mut self, n: u64) {
        self.max_retired = n;
    }

    /// The functional emulator (registers + data memory), positioned at the
    /// current *speculative* fetch point.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The program being executed.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Whether the program has halted and the pipeline drained.
    #[must_use]
    pub(crate) fn is_done(&self) -> bool {
        (self.machine.halted() && self.rob_head == self.next_seq)
            || self.stats.retired_uops >= self.max_retired
    }

    /// Machine check of the issue bookkeeping: the ROB ring (exactly the
    /// slots of seqs `rob_head..next_seq` hold entries, each its own seq),
    /// the completion wheel (each entry in its cycle's bucket and within
    /// the span, one live entry per `Issued` uop), and recounts, against
    /// the ROB, every pending count (from the consumer lists of the
    /// entries not yet `Done`), the ready list (exactly the `Waiting`
    /// entries with nothing pending, in seq order), the store queue and
    /// the RS count.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant, described.
    pub fn check_invariants(&self) -> Result<(), String> {
        let (head, tail) = (self.rob_head, self.next_seq);
        if tail < head || self.rob_len() > self.cfg.rob_entries {
            return Err(format!("core: ROB ring head {head}, tail {tail}"));
        }
        for seq in self.rob_seqs() {
            let slot = self.rob.get(self.ring_index(seq));
            let held = slot.and_then(|s| s.entry.as_ref()).map(|e| e.seq);
            if held != Some(seq) {
                return Err(format!("core: ring slot of seq {seq} holds {held:?}"));
            }
        }
        let occupied = self.rob.iter().filter(|s| s.entry.is_some()).count();
        if occupied != self.rob_len() {
            return Err(format!(
                "core: {occupied} ring slots occupied, {} seqs in the ROB",
                self.rob_len()
            ));
        }
        self.completions.check(self.cycle)?;
        let live_completions = self
            .completions
            .iter()
            .filter(|&&(_, seq, uid)| self.is_live(seq, uid, ExecState::Issued))
            .count();

        let mut pending = vec![0u32; self.rob_len()];
        for p in self.rob_seqs().map(|s| self.entry(s)) {
            if p.state == ExecState::Done {
                continue;
            }
            for &(seq, uid) in &self.rob[self.ring_index(p.seq)].consumers {
                if !self.in_rob(seq) || self.entry(seq).uid != uid {
                    continue; // squashed since it registered
                }
                if seq <= p.seq {
                    return Err(format!("core: seq {seq} waits on the younger {}", p.seq));
                }
                pending[(seq - head) as usize] += 1;
            }
        }
        let mut ready = Vec::new();
        let mut stores = Vec::new();
        let mut waiting = 0;
        let mut issued = 0;
        for (i, e) in self.rob_seqs().map(|s| self.entry(s)).enumerate() {
            if u32::from(e.pending) != pending[i] {
                return Err(format!(
                    "core: seq {} counts {} pending producers, its producers list {}",
                    e.seq, e.pending, pending[i]
                ));
            }
            if e.state == ExecState::Waiting {
                waiting += 1;
                if e.pending == 0 {
                    ready.push(e.seq);
                }
            } else if e.pending != 0 {
                return Err(format!(
                    "core: seq {} left the RS with producers pending",
                    e.seq
                ));
            }
            issued += usize::from(e.state == ExecState::Issued);
            if let Some(m) = e.rec.mem.filter(|m| m.is_store) {
                stores.push((e.seq, m.addr, m.addr + m.width.bytes()));
            }
        }
        if live_completions != issued {
            return Err(format!(
                "core: {live_completions} live wheel entries, {issued} entries issued"
            ));
        }
        if self.ready != ready {
            return Err(format!(
                "core: ready list {:?}, the ROB's ready entries {ready:?}",
                self.ready
            ));
        }
        if !self
            .stores
            .iter()
            .map(|s| (s.seq, s.addr, s.end))
            .eq(stores.iter().copied())
        {
            return Err("core: store queue disagrees with the ROB's stores".to_string());
        }
        if self.rs_used != waiting {
            return Err(format!(
                "core: RS count {}, {waiting} entries waiting",
                self.rs_used
            ));
        }
        Ok(())
    }

    /// The seqs in the ROB, oldest first.
    fn rob_seqs(&self) -> Range<u64> {
        self.rob_head..self.next_seq
    }

    fn rob_len(&self) -> usize {
        (self.next_seq - self.rob_head) as usize
    }

    fn in_rob(&self, seq: u64) -> bool {
        self.rob_seqs().contains(&seq)
    }

    /// The ring slot of `seq`.
    fn ring_index(&self, seq: u64) -> usize {
        (seq & self.rob_mask) as usize
    }

    /// The entry with this seq, which must be in the ROB.
    fn entry(&self, seq: u64) -> &RobEntry {
        self.rob[self.ring_index(seq)]
            .entry
            .as_ref()
            .expect("seq in the ROB")
    }

    fn entry_mut(&mut self, seq: u64) -> &mut RobEntry {
        let i = self.ring_index(seq);
        self.rob[i].entry.as_mut().expect("seq in the ROB")
    }

    /// Whether `(seq, uid)` names an entry still in the ROB, in `state`.
    fn is_live(&self, seq: u64, uid: u64, state: ExecState) -> bool {
        self.in_rob(seq) && {
            let e = self.entry(seq);
            e.uid == uid && e.state == state
        }
    }

    /// Marks the entry with this seq `Done` and wakes its consumers: each
    /// one still in the ROB loses a pending producer and, at none left,
    /// joins the ready list in seq order.
    fn mark_done(&mut self, seq: u64, now: u64) {
        let e = self.entry_mut(seq);
        e.state = ExecState::Done;
        e.completed_at = now;
        let slot = self.ring_index(seq);
        let consumers = std::mem::take(&mut self.rob[slot].consumers);
        self.stats.issue_visits += consumers.len() as u64;
        for &(seq, uid) in &consumers {
            if !self.in_rob(seq) {
                continue; // squashed
            }
            let c = self.entry_mut(seq);
            if c.uid != uid {
                continue; // squashed; the seq was refetched
            }
            debug_assert!(c.state == ExecState::Waiting && c.pending > 0);
            c.pending -= 1;
            if c.pending == 0 {
                let at = self.ready.partition_point(|&s| s < seq);
                self.ready.insert(at, seq);
            }
        }
        self.rob[slot].consumers = consumers;
    }

    /// Advances the core one cycle. `responses` are this cycle's memory
    /// completions (the composition layer ticks the shared memory system
    /// and fans responses out to core and DCE).
    pub fn tick(
        &mut self,
        responses: &[MemResp],
        mem: &mut MemorySystem,
        hooks: &mut dyn CoreHooks,
    ) -> CycleReport {
        let now = self.cycle;
        let fetched_before = self.stats.fetched_uops;

        let completed = self.complete_phase(responses, now, hooks);
        let retired = self.retire_phase(now, mem, hooks);
        let (loads_issued, total_issued) = self.issue_phase(now, mem);
        self.fetch_phase(now, hooks);

        if completed + retired + total_issued == 0 && self.stats.fetched_uops == fetched_before {
            self.stats.idle_cycles += 1;
        }
        self.cycle += 1;
        self.stats.cycles += 1;
        CycleReport {
            free_load_ports: self.cfg.load_ports.saturating_sub(loads_issued),
            free_issue_slots: self.cfg.issue_width.saturating_sub(total_issued),
            done: self.is_done(),
        }
    }

    // ---------------------------------------------------------- complete

    /// Applies this cycle's memory responses and functional-unit
    /// completions; returns how many entries became `Done`.
    fn complete_phase(
        &mut self,
        responses: &[MemResp],
        now: u64,
        hooks: &mut dyn CoreHooks,
    ) -> usize {
        let mut completed = 0;
        // Memory completions.
        for r in responses {
            if let Some(p) = self.pending_mem.iter().position(|&(id, _, _)| id == r.id) {
                let (_, seq, uid) = self.pending_mem.swap_remove(p);
                if self.is_live(seq, uid, ExecState::MemPending(r.id)) {
                    self.mark_done(seq, now);
                    completed += 1;
                }
            }
        }
        // Functional-unit completions, in (seq, uid) order so the oldest
        // mispredicting branch recovers first.
        let due = self.completions.take_due(now);
        for &(_, seq, uid) in &due {
            if !self.is_live(seq, uid, ExecState::Issued) {
                continue; // squashed
            }
            self.mark_done(seq, now);
            completed += 1;
            // Branch resolution: a conditional branch whose followed
            // next-PC differs from its actual next-PC mispredicted.
            let e = self.entry(seq);
            let mispredict = match (&e.branch, e.rec.branch) {
                (Some(_), Some(b)) => e.rec.next_pc != b.actual_next,
                _ => false,
            };
            if mispredict {
                self.recover(seq, now, hooks);
            }
        }
        self.completions.recycle(now, due);
        completed
    }

    /// Squashes every entry younger than the mispredicted branch `seq`
    /// and restarts fetch down its correct path.
    fn recover(&mut self, seq: u64, now: u64, hooks: &mut dyn CoreHooks) {
        self.stats.recoveries += 1;
        let squashed = seq + 1..self.next_seq;
        let mut wrong_path = std::mem::take(&mut self.wrong_path_scratch);
        wrong_path.clear();
        wrong_path.extend(squashed.clone().map(|s| self.entry(s).wrong_path_summary()));
        self.stats.squashed_uops += wrong_path.len() as u64;

        // Release resources held by squashed entries and recycle their
        // branch-control boxes.
        for s in squashed {
            let i = self.ring_index(s);
            let mut e = self.rob[i].entry.take().expect("seq in the ROB");
            if e.state == ExecState::Waiting {
                self.rs_used -= 1;
            }
            if let ExecState::MemPending(id) = e.state {
                if let Some(p) = self.pending_mem.iter().position(|&(pid, _, _)| pid == id) {
                    self.pending_mem.swap_remove(p);
                }
            }
            if let Some(ctl) = e.branch.take() {
                self.ctl_pool.push(ctl);
            }
        }
        // Sequence numbers are ROB positions: rewind so they stay
        // contiguous (uids preserve global uniqueness).
        self.next_seq = seq + 1;
        self.ready
            .truncate(self.ready.partition_point(|&s| s <= seq));
        self.stores
            .truncate(self.stores.partition_point(|s| s.seq <= seq));

        let i = self.ring_index(seq);
        let e = self.rob[i].entry.as_mut().expect("branch entry present");
        let bx = e.rec.branch.expect("control uop has a branch record");
        let actual = bx.actual_taken;
        let ctl = e.branch.as_mut().expect("recover only on branches");
        ctl.mispredicted = true;
        let info = MispredictInfo {
            seq: e.seq,
            pc: e.uop.pc,
            actual_taken: actual,
            base_prediction: ctl.prediction.taken,
            provenance: ctl.provenance,
            cycle: now,
        };

        // Rewind the emulator to just before the branch and re-execute it
        // down the correct path.
        self.machine.restore(&ctl.machine_cp);
        self.predictor.restore(&ctl.predictor_cp);
        self.last_writer = ctl.writer_cp;
        let pc = e.uop.pc;
        let rec = self
            .machine
            .step(&self.program, Some(actual))
            .expect("re-execution of a fetched branch cannot fault");
        debug_assert_eq!(rec.pc, pc);
        e.rec = rec;
        self.predictor.update_history(pc, actual);

        self.fetch_stall_until = now + self.cfg.redirect_latency;
        self.tele
            .event(now, EventKind::Recovery, info.pc, wrong_path.len() as u64);
        hooks.on_mispredict(&info, &wrong_path, self.machine.cpu());
        self.wrong_path_scratch = wrong_path;
    }

    // ------------------------------------------------------------ retire

    fn retire_phase(
        &mut self,
        now: u64,
        mem: &mut MemorySystem,
        hooks: &mut dyn CoreHooks,
    ) -> usize {
        let mut retired = 0;
        while retired < self.cfg.retire_width && self.rob_head < self.next_seq {
            let i = self.ring_index(self.rob_head);
            let head = &mut self.rob[i].entry;
            if head
                .as_ref()
                .is_some_and(|e| e.state != ExecState::Done || e.completed_at >= now)
            {
                break;
            }
            let mut e = head.take().expect("head in the ROB");
            self.rob_head += 1;
            retired += 1;
            self.stats.retired_uops += 1;

            // Architectural-equivalence fingerprint: fold only content
            // that is independent of prediction and timing. `next_pc`
            // and `followed_taken` reflect fetch steering, so they are
            // deliberately excluded.
            self.stats.fold_retirement(e.rec.pc);
            self.stats.fold_retirement(u64::from(e.rec.halt));
            if let Some((r, v)) = e.rec.dst {
                self.stats.fold_retirement(r.index() as u64);
                self.stats.fold_retirement(v);
            }
            if let Some(m) = e.rec.mem {
                self.stats.fold_retirement(m.addr);
                self.stats.fold_retirement(m.value);
                self.stats.fold_retirement(u64::from(m.is_store));
            }
            if let Some(b) = e.rec.branch {
                self.stats.fold_retirement(u64::from(b.actual_taken));
                self.stats.fold_retirement(b.actual_next);
            }

            // Clear the writer map if this uop is still recorded (a
            // later consumer finds it nowhere in the ROB and does not
            // wait on it).
            for r in e.uop.dsts().iter() {
                if self.last_writer[r.index()] == Some(e.seq) {
                    self.last_writer[r.index()] = None;
                }
            }

            // Stores update cache timing state at retirement.
            if let Some(m) = e.rec.mem.filter(|m| m.is_store) {
                let s = self.stores.pop_front();
                debug_assert_eq!(s.map(|s| s.seq), Some(e.seq));
                // Value correctness is handled functionally; if the MSHRs
                // are busy we skip only the *timing* side effect.
                let _ = mem.request(m.addr, true, ReqSource::Core, now);
            }

            let retired_uop = RetiredUop {
                seq: e.seq,
                uop: e.uop,
                rec: e.rec,
                cycle: now,
            };
            hooks.on_retire(&retired_uop);

            if let Some(ctl) = e.branch.take() {
                let actual = e.rec.branch.expect("branch record present").actual_taken;
                self.machine.release(&ctl.machine_cp);
                self.stats.retired_branches += 1;
                if ctl.mispredicted {
                    self.stats.mispredicts += 1;
                }
                let site = self.stats.branch_sites.entry(e.uop.pc).or_default();
                site.executed += 1;
                if ctl.mispredicted {
                    site.mispredicted += 1;
                }
                if ctl.prediction.taken != actual {
                    site.base_wrong += 1;
                }
                if ctl.provenance == PredictionProvenance::Dce {
                    site.dce_provided += 1;
                }
                self.predictor.train(e.uop.pc, actual, &ctl.prediction);
                hooks.on_branch_retire(&BranchOutcome {
                    seq: e.seq,
                    pc: e.uop.pc,
                    taken: actual,
                    mispredicted: ctl.mispredicted,
                    base_prediction: ctl.prediction.taken,
                    cycle: now,
                });
                self.ctl_pool.push(ctl);
            }
            if self.stats.retired_uops >= self.max_retired {
                break;
            }
        }
        retired
    }

    // ------------------------------------------------------------- issue

    /// Issues from the ready list, oldest first, up to the issue width
    /// and each class's ports. A refused entry (port taken, MSHRs full, or
    /// its forwarding store not yet executed) stays ready for next cycle.
    fn issue_phase(&mut self, now: u64, mem: &mut MemorySystem) -> (usize, usize) {
        let mut issued = 0;
        let mut alu_issued = 0;
        let mut loads_issued = 0;
        let mut ready = std::mem::take(&mut self.ready);
        // `ready[..kept]` stays ready; `ready[kept..next]` issued.
        let mut kept = 0;
        let mut next = 0;
        while next < ready.len() && issued < self.cfg.issue_width {
            let seq = ready[next];
            self.stats.issue_visits += 1;
            let e = self.entry(seq);
            if e.fetch_cycle + self.cfg.frontend_depth > now {
                // Younger entries were fetched even later.
                break;
            }
            let went = if e.uop.is_load() {
                let went = loads_issued < self.cfg.load_ports && self.issue_load(seq, now, mem);
                loads_issued += usize::from(went);
                went
            } else {
                let went = alu_issued < self.cfg.num_alus;
                if went {
                    let done_at = now + u64::from(e.uop.compute_latency());
                    self.completions.push(now, done_at, seq, e.uid);
                    self.begin_exec(seq, ExecState::Issued);
                    alu_issued += 1;
                }
                went
            };
            if went {
                issued += 1;
            } else {
                ready[kept] = seq;
                kept += 1;
            }
            next += 1;
        }
        ready.drain(kept..next);
        self.ready = ready;
        (loads_issued, issued)
    }

    /// Moves the `Waiting` entry with this seq out of the reservation
    /// station into `state`.
    fn begin_exec(&mut self, seq: u64, state: ExecState) {
        self.entry_mut(seq).state = state;
        self.rs_used -= 1;
        self.stats.issued_uops += 1;
    }

    /// Issues the ready load with this seq: forwarded from the youngest
    /// older overlapping store if there is one, else sent to memory.
    /// Returns false if it must wait (store not executed, MSHRs full).
    fn issue_load(&mut self, seq: u64, now: u64, mem: &mut MemorySystem) -> bool {
        let e = self.entry(seq);
        let uid = e.uid;
        let m = e.rec.mem.expect("loads carry a memory record");
        match self.forwarding_store(seq, m.addr, m.addr + m.width.bytes()) {
            Some(true) => {
                // Forwarded from the store buffer.
                let done_at = now + FORWARD_LATENCY;
                self.completions.push(now, done_at, seq, uid);
                self.begin_exec(seq, ExecState::Issued);
            }
            // Producing store not executed yet: stall.
            Some(false) => return false,
            None => match mem.request(m.addr, false, ReqSource::Core, now) {
                Ok(id) => {
                    self.pending_mem.push((id, seq, uid));
                    self.begin_exec(seq, ExecState::MemPending(id));
                }
                Err(RequestError::MshrFull) => return false,
            },
        }
        self.stats.issued_loads += 1;
        true
    }

    /// The youngest store older than `seq` that overlaps bytes
    /// `[addr, end)`: `Some(executed?)`, or `None` if no store does.
    fn forwarding_store(&mut self, seq: u64, addr: u64, end: u64) -> Option<bool> {
        let older = self.stores.partition_point(|s| s.seq < seq);
        for s in self.stores.range(..older).rev() {
            self.stats.issue_visits += 1;
            if s.addr < end && addr < s.end {
                return Some(self.entry(s.seq).state == ExecState::Done);
            }
        }
        None
    }

    // ------------------------------------------------------------- fetch

    /// A branch-control block capturing the current speculative state
    /// (machine, predictor, writer map). Recycled from the pool when
    /// possible so the checkpoint buffers' heap allocations are reused.
    fn make_branch_ctl(
        &mut self,
        prediction: Prediction,
        followed: bool,
        provenance: PredictionProvenance,
    ) -> Box<BranchCtl> {
        match self.ctl_pool.pop() {
            Some(mut ctl) => {
                ctl.machine_cp = self.machine.checkpoint();
                self.predictor.checkpoint_into(&mut ctl.predictor_cp);
                ctl.writer_cp = self.last_writer;
                ctl.prediction = prediction;
                ctl.followed = followed;
                ctl.provenance = provenance;
                ctl.mispredicted = false;
                ctl
            }
            None => Box::new(BranchCtl {
                machine_cp: self.machine.checkpoint(),
                predictor_cp: self.predictor.checkpoint(),
                writer_cp: self.last_writer,
                prediction,
                followed,
                provenance,
                mispredicted: false,
            }),
        }
    }

    fn has_unresolved_branch(&self) -> bool {
        self.rob_seqs().any(|s| {
            let e = self.entry(s);
            e.branch.is_some() && e.state != ExecState::Done
        })
    }

    fn fetch_phase(&mut self, now: u64, hooks: &mut dyn CoreHooks) {
        if now < self.fetch_stall_until {
            return;
        }
        for _ in 0..FETCH_WIDTH {
            if self.rob_len() >= self.cfg.rob_entries || self.rs_used >= self.cfg.rs_entries {
                break;
            }
            if self.machine.halted() {
                // End of the (possibly wrong-path) instruction stream.
                break;
            }
            let pc = self.machine.pc();
            // Instruction-cache lookup (uops are 4 bytes apart).
            let iaddr = pc * 4;
            if !self.icache.access(iaddr, false).hit {
                self.icache.fill(iaddr, false);
                self.stats.icache_misses += 1;
                self.fetch_stall_until = now + ICACHE_MISS_LATENCY;
                break;
            }
            let Some(uop) = self.program.fetch(pc).copied() else {
                assert!(
                    self.has_unresolved_branch(),
                    "fetch fell off the program at pc {pc:#x} on the correct path \
                     (programs must end in halt)"
                );
                break; // wrong path ran off the program: stall until recovery
            };

            let seq = self.next_seq;
            let mut branch_ctl = None;
            let rec = if uop.is_cond_branch() {
                let prediction = self.predictor.predict(pc);
                let override_dir = hooks.override_prediction(pc, prediction.taken, now);
                let followed = override_dir.unwrap_or(prediction.taken);
                let provenance = if override_dir.is_some() {
                    PredictionProvenance::Dce
                } else {
                    PredictionProvenance::BasePredictor
                };
                branch_ctl = Some(self.make_branch_ctl(prediction, followed, provenance));
                let rec = self
                    .machine
                    .step(&self.program, Some(followed))
                    .expect("fetchable uop cannot fault");
                self.predictor.update_history(pc, followed);
                hooks.on_branch_fetch(&FetchedBranch { seq, pc });
                rec
            } else {
                self.machine
                    .step(&self.program, None)
                    .expect("fetchable uop cannot fault")
            };

            // Wait on each source's last writer unless it is `Done` or
            // already retired (a restored `writer_cp` can name one).
            let uid = self.next_uid;
            self.next_uid += 1;
            let slot = self.ring_index(seq);
            if slot == self.rob.len() {
                self.rob.push(RobSlot::default());
            }
            self.rob[slot].consumers.clear();
            let mut pending = 0;
            for r in uop.srcs().iter() {
                let producer = self.last_writer[r.index()]
                    .filter(|&p| self.in_rob(p) && self.entry(p).state != ExecState::Done);
                if let Some(p) = producer {
                    pending += 1;
                    let ps = self.ring_index(p);
                    self.rob[ps].consumers.push((seq, uid));
                }
            }
            for r in uop.dsts().iter() {
                self.last_writer[r.index()] = Some(seq);
            }
            if pending == 0 {
                self.ready.push(seq);
            }
            if let Some(m) = rec.mem.filter(|m| m.is_store) {
                self.stores.push_back(StoreRef {
                    seq,
                    addr: m.addr,
                    end: m.addr + m.width.bytes(),
                });
            }

            let taken_control = rec.branch.is_some_and(|b| b.followed_taken);
            let was_halt = rec.halt;
            debug_assert!(self.rob[slot].entry.is_none());
            self.rob[slot].entry = Some(RobEntry {
                seq,
                uid,
                uop,
                rec,
                fetch_cycle: now,
                state: ExecState::Waiting,
                completed_at: 0,
                pending,
                branch: branch_ctl,
            });
            self.next_seq += 1;
            self.rs_used += 1;
            self.stats.fetched_uops += 1;
            if uop.is_cond_branch() {
                self.stats.fetched_branches += 1;
            }

            if taken_control || was_halt {
                break; // fetch break on taken branch / end of stream
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NullHooks;

    impl Core {
        /// Current cycle.
        fn cycle(&self) -> u64 {
            self.cycle
        }
    }
    use br_isa::{reg, Cond, CpuState, MemOperand, MemoryImage, ProgramBuilder};
    use br_mem::MemoryConfig;
    use br_predictor::Bimodal;

    fn run_core(program: Program, image: MemoryImage, max_cycles: u64) -> (Core, MemorySystem) {
        let machine = Machine::new(image.into_memory());
        let mut core = Core::new(
            CoreConfig::default(),
            program,
            machine,
            Box::new(Bimodal::new(12)),
        );
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut hooks = NullHooks;
        for c in 0..max_cycles {
            let resps = mem.tick(c);
            let report = core.tick(&resps, &mut mem, &mut hooks);
            if report.done {
                return (core, mem);
            }
        }
        panic!(
            "core did not finish in {max_cycles} cycles (retired {})",
            core.stats().retired_uops
        );
    }

    #[test]
    fn straight_line_program_retires_everything() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(reg::R0, 5);
        b.addi(reg::R1, reg::R0, 10);
        b.mul(reg::R2, reg::R1, 3i64);
        b.halt();
        let (core, _) = run_core(b.build().unwrap(), MemoryImage::new(), 1000);
        assert_eq!(core.stats().retired_uops, 4);
        assert_eq!(core.machine().reg(reg::R2), 45);
        assert_eq!(core.stats().mispredicts, 0);
    }

    #[test]
    fn counted_loop_architectural_state_correct() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(reg::R0, 50);
        let top = b.here();
        b.addi(reg::R1, reg::R1, 7);
        b.subi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, 0);
        b.br(Cond::Ne, top);
        b.halt();
        let (core, _) = run_core(b.build().unwrap(), MemoryImage::new(), 20_000);
        assert_eq!(core.machine().reg(reg::R1), 350);
        assert_eq!(core.stats().retired_branches, 50);
        // The final iteration's not-taken exit is mispredictable, but the
        // body iterations should quickly become correct.
        assert!(core.stats().mispredicts <= 6);
    }

    #[test]
    fn misprediction_recovery_preserves_correctness() {
        // A data-dependent branch pattern a bimodal predictor gets wrong
        // half the time; verify the architectural result is still exact.
        let mut img = MemoryImage::new();
        let vals: Vec<u64> = (0..64).map(|i| (i * 2654435761u64) >> 7 & 1).collect();
        img.write_u64_slice(0x1000, &vals);
        let expected: u64 = vals.iter().sum();

        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0); // i
        b.mov_imm(reg::R2, 0); // acc
        let top = b.here();
        b.mov_imm(reg::R3, 0x1000);
        b.load(reg::R4, MemOperand::base_index(reg::R3, reg::R0, 8, 0));
        b.cmpi(reg::R4, 1);
        b.br(Cond::Ne, skip);
        b.addi(reg::R2, reg::R2, 1);
        b.bind(skip);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, 64);
        b.br(Cond::Ne, top);
        b.halt();
        let (core, _) = run_core(b.build().unwrap(), img, 200_000);
        assert_eq!(core.machine().reg(reg::R2), expected);
        assert!(
            core.stats().mispredicts > 5,
            "the data-dependent branch should mispredict: {}",
            core.stats().mispredicts
        );
        assert!(core.stats().squashed_uops > 0);
        assert!(
            core.stats().fetched_uops > core.stats().retired_uops,
            "wrong-path fetch must be visible"
        );
    }

    #[test]
    fn store_load_forwarding_value_and_timing() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(reg::R0, 0x2000);
        b.mov_imm(reg::R1, 99);
        b.store(MemOperand::base_disp(reg::R0, 0), reg::R1);
        b.load(reg::R2, MemOperand::base_disp(reg::R0, 0));
        b.addi(reg::R3, reg::R2, 1);
        b.halt();
        let (core, _) = run_core(b.build().unwrap(), MemoryImage::new(), 1000);
        assert_eq!(core.machine().reg(reg::R3), 100);
        // Forwarded loads never touch the memory system; core demand
        // requests = the store's retirement write only.
        assert!(core.cycle() < 60, "forwarding should avoid DRAM latency");
    }

    #[test]
    fn ipc_bounded_by_issue_width() {
        // A warm loop of independent adds (straight-line code this long
        // would be dominated by cold I-cache misses instead).
        let mut b = ProgramBuilder::new();
        let acc = [reg::R1, reg::R2, reg::R3, reg::R4];
        b.mov_imm(reg::R0, 200);
        let top = b.here();
        for i in 0..24 {
            let r = acc[i % 4];
            b.addi(r, r, 1);
        }
        b.subi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, 0);
        b.br(Cond::Ne, top);
        b.halt();
        let (core, _) = run_core(b.build().unwrap(), MemoryImage::new(), 100_000);
        let ipc = core.stats().ipc();
        assert!(ipc <= 4.0 + 1e-9);
        assert!(ipc > 2.0, "independent adds should sustain ILP: {ipc}");
    }

    #[test]
    fn cold_icache_limits_straight_line_fetch() {
        // 2000 uops of straight-line code = ~125 cold I-cache lines; the
        // front end must pay those misses.
        let mut b = ProgramBuilder::new();
        for _ in 0..2000 {
            b.addi(reg::R1, reg::R1, 1);
        }
        b.halt();
        let (core, _) = run_core(b.build().unwrap(), MemoryImage::new(), 100_000);
        assert!(
            core.stats().icache_misses >= 100,
            "cold code should miss: {}",
            core.stats().icache_misses
        );
    }

    #[test]
    fn dependent_chain_serializes() {
        // A strict dependence chain of multiplies: IPC ~ 1/3 (3-cycle mul).
        let mut b = ProgramBuilder::new();
        b.mov_imm(reg::R1, 1);
        for _ in 0..500 {
            b.mul(reg::R1, reg::R1, 1i64);
        }
        b.halt();
        let (core, _) = run_core(b.build().unwrap(), MemoryImage::new(), 100_000);
        let ipc = core.stats().ipc();
        assert!(ipc < 0.6, "dependent muls must serialize: {ipc}");
    }

    #[test]
    fn cold_load_stalls_pipeline() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(reg::R0, 0x80000);
        b.load(reg::R1, MemOperand::base_disp(reg::R0, 0));
        b.addi(reg::R2, reg::R1, 1);
        b.halt();
        let (core, _) = run_core(b.build().unwrap(), MemoryImage::new(), 5000);
        assert!(
            core.cycle() > 80,
            "cold miss should pay DRAM latency: {}",
            core.cycle()
        );
    }

    #[test]
    fn wrong_path_off_program_end_recovers() {
        // A branch whose wrong path falls off the program: fetch must
        // stall, then recover when the branch resolves.
        let mut img = MemoryImage::new();
        img.write(0x1000, br_isa::Width::B8, 1);
        let mut b = ProgramBuilder::new();
        let end = b.new_label();
        b.mov_imm(reg::R0, 0x1000);
        b.load(reg::R1, MemOperand::base_disp(reg::R0, 0));
        b.cmpi(reg::R1, 0);
        b.br(Cond::Eq, end); // actually not-taken; predict could go either way
        b.addi(reg::R2, reg::R2, 5);
        b.bind(end);
        b.halt();
        let (core, _) = run_core(b.build().unwrap(), img, 5000);
        assert_eq!(core.machine().reg(reg::R2), 5);
    }

    /// Regression: sequence numbers are ROB positions and must stay
    /// contiguous across squashes (`next_seq` rewinds on recovery). The
    /// original bug desynchronized dependency lookups after the first
    /// recovery and froze the pipeline within a few hundred uops.
    #[test]
    fn sustained_mispredict_storm_makes_progress() {
        let mut img = MemoryImage::new();
        let vals: Vec<u64> = (0..256)
            .map(|i: u64| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 61) & 1)
            .collect();
        img.write_u64_slice(0x4000, &vals);
        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R3, 0x4000);
        let top = b.here();
        b.and(reg::R5, reg::R0, 255i64);
        b.load(reg::R6, MemOperand::base_index(reg::R3, reg::R5, 8, 0));
        b.cmpi(reg::R6, 0);
        b.br(Cond::Eq, skip); // ~50/50 data-dependent
        b.addi(reg::R2, reg::R2, 1);
        b.bind(skip);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, 4000);
        b.br(Cond::Ne, top);
        b.halt();
        let (core, _) = run_core(b.build().unwrap(), img, 400_000);
        assert!(core.stats().recoveries > 200, "storm must actually storm");
        // run_core only returns when the program drained: reaching here at
        // all is the regression check. Sanity-check the volume too.
        assert!(
            core.stats().retired_uops > 25_000,
            "suspiciously few uops: {}",
            core.stats().retired_uops
        );
    }

    #[test]
    fn max_retired_caps_run() {
        let mut b = ProgramBuilder::new();
        let top = b.here();
        b.addi(reg::R0, reg::R0, 1);
        b.jmp(top);
        let program = b.build().unwrap();
        let machine = Machine::new(MemoryImage::new().into_memory());
        let mut core = Core::new(
            CoreConfig::default(),
            program,
            machine,
            Box::new(Bimodal::new(10)),
        );
        core.set_max_retired(100);
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut hooks = NullHooks;
        for c in 0..100_000 {
            let resps = mem.tick(c);
            if core.tick(&resps, &mut mem, &mut hooks).done {
                break;
            }
        }
        assert!(core.stats().retired_uops >= 100);
        assert!(core.stats().retired_uops < 120);
    }

    /// Counts the stores squashed on wrong paths.
    #[derive(Default)]
    struct SquashedStores(u64);

    impl CoreHooks for SquashedStores {
        fn on_mispredict(&mut self, _: &MispredictInfo, wrong_path: &[WrongPathUop], _: &CpuState) {
            self.0 += wrong_path.iter().filter(|u| u.store_addr.is_some()).count() as u64;
        }
    }

    /// Runs `program` to completion with the machine check after every
    /// cycle, calling `each` after it.
    fn run_checked(
        program: Program,
        image: MemoryImage,
        hooks: &mut dyn CoreHooks,
        mut each: impl FnMut(&mut Core),
    ) -> Core {
        let mut core = Core::new(
            CoreConfig::default(),
            program,
            Machine::new(image.into_memory()),
            Box::new(Bimodal::new(12)),
        );
        let mut mem = MemorySystem::new(MemoryConfig::default());
        for c in 0..400_000 {
            let resps = mem.tick(c);
            let done = core.tick(&resps, &mut mem, hooks).done;
            assert_eq!(core.check_invariants(), Ok(()), "cycle {c}");
            each(&mut core);
            if done {
                return core;
            }
        }
        panic!("core did not finish");
    }

    #[test]
    fn machine_check_catches_a_stale_ready_list_and_pending_count() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(reg::R0, 5);
        b.addi(reg::R1, reg::R0, 10);
        b.mul(reg::R2, reg::R1, 3i64);
        b.halt();
        let mut core = Core::new(
            CoreConfig::default(),
            b.build().unwrap(),
            Machine::new(MemoryImage::new().into_memory()),
            Box::new(Bimodal::new(12)),
        );
        let mut mem = MemorySystem::new(MemoryConfig::default());
        // Tick until the head is ready and its consumer waits on it.
        for c in 0.. {
            let resps = mem.tick(c);
            core.tick(&resps, &mut mem, &mut NullHooks);
            if core.rob_len() >= 2
                && core.entry(core.rob_head + 1).pending == 1
                && !core.ready.is_empty()
            {
                break;
            }
            assert!(c < 1000, "the program never reached the ROB");
        }
        assert_eq!(core.check_invariants(), Ok(()));
        let ready = core.ready.pop().expect("checked non-empty");
        assert!(core.check_invariants().is_err(), "a dropped ready entry");
        core.ready.push(ready);
        core.entry_mut(core.rob_head + 1).pending = 0;
        assert!(core.check_invariants().is_err(), "a lost pending producer");
        core.entry_mut(core.rob_head + 1).pending = 1;
        assert_eq!(core.check_invariants(), Ok(()));
    }

    #[test]
    fn machine_check_catches_a_misplaced_wheel_entry_and_a_bad_ring_head() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(reg::R0, 5);
        b.mul(reg::R1, reg::R0, 3i64);
        b.mul(reg::R2, reg::R1, 7i64);
        b.halt();
        let mut core = Core::new(
            CoreConfig::default(),
            b.build().unwrap(),
            Machine::new(MemoryImage::new().into_memory()),
            Box::new(Bimodal::new(12)),
        );
        let mut mem = MemorySystem::new(MemoryConfig::default());
        // Tick until a completion is on the wheel.
        for c in 0.. {
            let resps = mem.tick(c);
            core.tick(&resps, &mut mem, &mut NullHooks);
            if core.completions.iter().next().is_some() {
                break;
            }
            assert!(c < 1000, "nothing ever issued");
        }
        assert_eq!(core.check_invariants(), Ok(()));
        let w = &mut core.completions;
        let b = w
            .buckets
            .iter()
            .position(|b| !b.is_empty())
            .expect("an entry");
        let entry = w.buckets[b].pop().expect("checked non-empty");
        let wrong = (b + 1) & w.mask as usize;
        w.buckets[wrong].push(entry);
        let err = core.check_invariants().unwrap_err();
        assert!(err.contains("wheel bucket"), "{err}");
        let w = &mut core.completions;
        w.buckets[wrong].pop();
        let span = w.mask + 1;
        w.buckets[b].push((entry.0 + span, entry.1, entry.2));
        let err = core.check_invariants().unwrap_err();
        assert!(err.contains("span"), "{err}");
        core.completions.buckets[b].pop();
        let err = core.check_invariants().unwrap_err();
        assert!(
            err.contains("live wheel entries"),
            "a lost completion: {err}"
        );
        core.completions.buckets[b].push(entry);
        assert_eq!(core.check_invariants(), Ok(()));
        core.rob_head += 1;
        assert!(core.check_invariants().is_err(), "a head past an entry");
        core.rob_head -= 1;
        assert_eq!(core.check_invariants(), Ok(()));
    }

    #[test]
    fn completion_wheel_drains_in_the_heap_order() {
        // Random pushes at the core's latencies (1, 2 for a forward, 3,
        // and a 20-cycle divide) with many same-cycle ties, drained one
        // cycle at a time, against a min-heap of `(done_at, seq, uid)`.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut wheel = CompletionWheel::new(u64::from(AluOp::Div.latency()));
        let mut heap = BinaryHeap::new();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let (mut drained, mut ties) = (0, 0);
        for now in 0..20_000u64 {
            let due = wheel.take_due(now);
            let mut want = Vec::new();
            while heap.peek().is_some_and(|&Reverse((at, _, _))| at <= now) {
                want.push(heap.pop().expect("peeked").0);
            }
            assert_eq!(due, want, "cycle {now}");
            drained += due.len();
            ties += due.len().saturating_sub(1);
            wheel.recycle(now, due);
            for _ in 0..next(5) {
                let latency = [1, 2, 3, 20][next(4) as usize];
                let (seq, uid) = (next(16), next(4));
                wheel.push(now, now + latency, seq, uid);
                heap.push(Reverse((now + latency, seq, uid)));
            }
            assert_eq!(wheel.check(now + 1), Ok(()));
        }
        assert!(
            drained > 30_000 && ties > 10_000,
            "{drained} drained, {ties} ties"
        );
    }

    /// The old forwarding search: a backward walk of the ROB from the load.
    fn forwarding_by_rob_walk(core: &Core, load: u64) -> Option<bool> {
        let m = core.entry(load).rec.mem.expect("a load");
        (core.rob_head..load).rev().find_map(|s| {
            let s = core.entry(s);
            let sm = s.rec.mem.filter(|sm| sm.is_store)?;
            let overlap = sm.addr < m.addr + m.width.bytes() && m.addr < sm.addr + sm.width.bytes();
            overlap.then_some(s.state == ExecState::Done)
        })
    }

    #[test]
    fn forwarding_picks_the_youngest_older_overlapping_store_across_squashes() {
        // Each iteration stores 8 bytes to a slot, then on a data-dependent
        // path 4 more bytes into its upper half, and loads both halves
        // back: the youngest older overlapping store depends on the path,
        // and mispredicts squash wrong-path stores out of the queue.
        let mut img = MemoryImage::new();
        let bits: Vec<u64> = (0..256u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61) & 1)
            .collect();
        img.write_u64_slice(0x4000, &bits);
        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0);
        b.mov_imm(reg::R3, 0x4000);
        b.mov_imm(reg::R8, 0x9000);
        let top = b.here();
        b.and(reg::R5, reg::R0, 255i64);
        b.load(reg::R6, MemOperand::base_index(reg::R3, reg::R5, 8, 0));
        b.and(reg::R7, reg::R0, 7i64);
        b.store(MemOperand::base_index(reg::R8, reg::R7, 8, 0), reg::R0);
        b.cmpi(reg::R6, 0);
        b.br(Cond::Eq, skip);
        b.store_w(
            MemOperand::base_index(reg::R8, reg::R7, 8, 4),
            reg::R6,
            br_isa::Width::B4,
        );
        b.addi(reg::R2, reg::R2, 1);
        b.bind(skip);
        b.load_w(
            reg::R9,
            MemOperand::base_index(reg::R8, reg::R7, 8, 4),
            br_isa::Width::B4,
            false,
        );
        b.load(reg::R10, MemOperand::base_index(reg::R8, reg::R7, 8, 0));
        b.add(reg::R11, reg::R9, reg::R10);
        b.addi(reg::R0, reg::R0, 1);
        b.cmpi(reg::R0, 300);
        b.br(Cond::Ne, top);
        b.halt();
        let mut hooks = SquashedStores::default();
        let (mut checked, mut matched) = (0u64, 0u64);
        let core = run_checked(b.build().unwrap(), img, &mut hooks, |core| {
            for seq in core.rob_seqs() {
                let e = core.entry(seq);
                if e.state != ExecState::Waiting || !e.uop.is_load() {
                    continue;
                }
                let m = e.rec.mem.expect("a load");
                let want = forwarding_by_rob_walk(core, seq);
                let got = core.forwarding_store(seq, m.addr, m.addr + m.width.bytes());
                assert_eq!(got, want, "load seq {seq}");
                checked += 1;
                matched += u64::from(got.is_some());
            }
        });
        let stored_high: u64 = (0..300).map(|i| bits[i % 256]).sum();
        assert_eq!(core.machine().reg(reg::R2), stored_high);
        assert!(
            hooks.0 > 50,
            "squashes must drop queued stores: {}",
            hooks.0
        );
        assert!(matched > 100 && matched < checked, "{matched} of {checked}");
    }

    #[test]
    fn restored_writer_map_naming_a_retired_producer_is_met() {
        // r1's writer retires while the branch waits on a cold load; the
        // mispredict restores a writer map that still names it.
        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.mov_imm(reg::R0, 0x80000);
        let producer = b.mov_imm(reg::R1, 5);
        b.load(reg::R3, MemOperand::base_disp(reg::R0, 0));
        b.cmpi(reg::R3, 1);
        b.br(Cond::Eq, skip); // predicted taken (cold bimodal), falls through
        b.addi(reg::R2, reg::R1, 1);
        b.bind(skip);
        b.addi(reg::R4, reg::R1, 2);
        b.halt();
        let mut seen = false;
        let core = run_checked(
            b.build().unwrap(),
            MemoryImage::new(),
            &mut NullHooks,
            |core| {
                if core.stats().recoveries == 1 && !seen {
                    seen = true;
                    let p = core.last_writer[reg::R1.index()].expect("restored writer");
                    assert_eq!(p, producer, "seqs match pcs before the first squash");
                    assert!(!core.in_rob(p), "the producer has retired");
                }
            },
        );
        assert!(seen, "the branch must mispredict");
        assert_eq!(core.machine().reg(reg::R2), 6);
        assert_eq!(core.machine().reg(reg::R4), 7);
    }
}
