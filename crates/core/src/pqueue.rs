//! Per-branch prediction queues (§4.2).
//!
//! Queues synchronize DCE-computed outcomes with fetch. Slots are
//! allocated at chain initiation (so predictions appear in program
//! order), filled at chain completion, consumed at fetch, and released at
//! retirement. Three pointers per queue — DCE-push (implicit in slot
//! ids), core-fetch, and core-retire (the deque front) — plus a 2-bit
//! throttle counter that silences the DCE when TAGE is doing better.

use std::collections::VecDeque;

use br_isa::Pc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotState {
    /// Allocated, outcome not yet computed.
    Empty,
    /// Outcome available.
    Filled(bool),
    /// The producing chain instance was flushed but the branch execution
    /// it corresponds to will still happen: consumed as a (useless) slot
    /// so iteration correspondence is preserved.
    Dead,
    /// The branch execution this slot corresponds to will never happen
    /// (its guard resolved the other way): fetch skips it entirely.
    Cancelled,
}

#[derive(Clone, Debug)]
struct PredQueue {
    /// Absolute id of `slots[0]`.
    base: u64,
    slots: VecDeque<SlotState>,
    /// Absolute id of the next slot fetch will consume.
    fetch: u64,
    /// 2-bit throttle counter in `-2..=1`; negative = ignore the DCE.
    throttle: i8,
    lru: u64,
}

impl PredQueue {
    fn new() -> Self {
        PredQueue {
            base: 0,
            slots: VecDeque::new(),
            fetch: 0,
            throttle: 0,
            lru: 0,
        }
    }
}

/// What the queue had for a fetched branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FetchVerdict {
    /// No queue exists for this branch.
    NoQueue,
    /// No chain instance has been initiated for this dynamic branch
    /// (fetch pointer beyond all allocated slots).
    Inactive,
    /// A chain was initiated but hasn't produced the outcome yet; the
    /// slot is consumed anyway (§4.2) and may be filled later.
    Late {
        /// The consumed slot's absolute id.
        slot: u64,
    },
    /// A prediction was available but the throttle counter silenced it.
    Throttled {
        /// The consumed slot's absolute id.
        slot: u64,
        /// The suppressed value.
        value: bool,
    },
    /// A prediction was consumed and used.
    Use {
        /// The consumed slot's absolute id.
        slot: u64,
        /// The predicted direction.
        value: bool,
    },
}

/// A checkpoint of every queue's fetch pointer, taken at each fetched
/// branch and restored on its misprediction.
pub(crate) type QueueCheckpoint = Vec<(Pc, u64)>;

/// The prediction-queue file.
#[derive(Clone, Debug)]
pub(crate) struct PredictionQueues {
    num_queues: usize,
    entries_per_queue: usize,
    /// Linear-scanned association list: the queue count is the paper's
    /// small hardware budget (16 in the Mini config), so a scan beats
    /// hashing and keeps iteration order deterministic.
    queues: Vec<(Pc, PredQueue)>,
    tick: u64,
    /// Pending fault-injection drops: while nonzero, the next `fill`
    /// calls are swallowed (the slot stays `Empty`, so fetch sees a
    /// `Late` verdict — a pure performance event).
    drop_fills: u32,
}

impl PredictionQueues {
    /// Creates `num_queues` queues of `entries_per_queue` slots each.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes.
    #[must_use]
    pub(crate) fn new(num_queues: usize, entries_per_queue: usize) -> Self {
        assert!(num_queues > 0 && entries_per_queue > 0);
        PredictionQueues {
            num_queues,
            entries_per_queue,
            queues: Vec::with_capacity(num_queues),
            tick: 0,
            drop_fills: 0,
        }
    }

    fn queue_mut(&mut self, pc: Pc, create: bool) -> Option<&mut PredQueue> {
        self.tick += 1;
        let tick = self.tick;
        let pos = match self.queues.iter().position(|(p, _)| *p == pc) {
            Some(i) => i,
            None if create => {
                if self.queues.len() >= self.num_queues {
                    // Evict the LRU queue (a different branch loses
                    // tracking). LRU stamps are unique (each touch gets a
                    // fresh tick), so the victim is unambiguous.
                    if let Some(victim) = self
                        .queues
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (_, q))| q.lru)
                        .map(|(i, _)| i)
                    {
                        self.queues.swap_remove(victim);
                    }
                }
                self.queues.push((pc, PredQueue::new()));
                self.queues.len() - 1
            }
            None => return None,
        };
        let q = &mut self.queues[pos].1;
        q.lru = tick;
        Some(q)
    }

    /// Allocates a slot for a newly initiated chain instance targeting
    /// branch `pc`. Returns the slot's absolute id, or `None` when the
    /// queue is full (the initiation must wait — §4.2: queue size limits
    /// how far ahead the DCE runs).
    pub(crate) fn allocate_slot(&mut self, pc: Pc) -> Option<u64> {
        let cap = self.entries_per_queue;
        let q = self.queue_mut(pc, true)?;
        if q.slots.len() >= cap {
            return None;
        }
        q.slots.push_back(SlotState::Empty);
        Some(q.base + q.slots.len() as u64 - 1)
    }

    /// Whether [`Self::allocate_slot`] would refuse `pc`: its queue exists
    /// and is full. A refusal stamps the queue as recently used, as the
    /// refused allocation would.
    pub(crate) fn refuses_slot(&mut self, pc: Pc) -> bool {
        let cap = self.entries_per_queue;
        let full = self
            .queues
            .iter()
            .any(|(p, q)| *p == pc && q.slots.len() >= cap);
        if full {
            self.queue_mut(pc, false);
        }
        full
    }

    /// Fills a slot with a computed outcome. Silently ignores stale slot
    /// ids (queue cleared or entry retired since allocation).
    pub(crate) fn fill(&mut self, pc: Pc, slot: u64, outcome: bool) {
        if self.drop_fills > 0 {
            self.drop_fills -= 1;
            return;
        }
        if let Some(q) = self.queue_mut(pc, false) {
            if slot >= q.base {
                if let Some(s) = q.slots.get_mut((slot - q.base) as usize) {
                    if *s == SlotState::Empty {
                        *s = SlotState::Filled(outcome);
                    }
                }
            }
        }
    }

    /// Marks a slot dead (its producing instance was flushed but the
    /// corresponding branch execution will still occur).
    pub(crate) fn kill(&mut self, pc: Pc, slot: u64) {
        self.set_state(pc, slot, SlotState::Dead);
    }

    /// Cancels a slot: the branch execution it corresponds to will never
    /// happen (e.g. its guard resolved the other way), so fetch skips it.
    /// Unlike [`Self::kill`], cancellation overrides an already-filled
    /// value — the instance may have completed before its wrong
    /// assumption was discovered.
    pub(crate) fn cancel(&mut self, pc: Pc, slot: u64) {
        if let Some(q) = self.queue_mut(pc, false) {
            if slot >= q.base {
                if let Some(s) = q.slots.get_mut((slot - q.base) as usize) {
                    *s = SlotState::Cancelled;
                }
            }
        }
    }

    fn set_state(&mut self, pc: Pc, slot: u64, state: SlotState) {
        if let Some(q) = self.queue_mut(pc, false) {
            if slot >= q.base {
                if let Some(s) = q.slots.get_mut((slot - q.base) as usize) {
                    if *s == SlotState::Empty {
                        *s = state;
                    }
                }
            }
        }
    }

    /// Consumes the next slot for a fetched branch at `pc`.
    pub(crate) fn consume_at_fetch(&mut self, pc: Pc) -> FetchVerdict {
        let Some(q) = self.queue_mut(pc, false) else {
            return FetchVerdict::NoQueue;
        };
        let idx = q.fetch.checked_sub(q.base).map(|d| d as usize);
        let Some(mut idx) = idx else {
            // Fetch pointer behind base can only happen transiently after
            // a clear; resynchronize.
            q.fetch = q.base;
            return FetchVerdict::Inactive;
        };
        // Cancelled slots correspond to branch executions that never
        // happen; fetch steps over them transparently.
        while idx < q.slots.len() && q.slots[idx] == SlotState::Cancelled {
            idx += 1;
            q.fetch += 1;
        }
        if idx >= q.slots.len() {
            return FetchVerdict::Inactive;
        }
        let slot_id = q.fetch;
        q.fetch += 1;
        match q.slots[idx] {
            SlotState::Empty | SlotState::Dead => FetchVerdict::Late { slot: slot_id },
            SlotState::Cancelled => unreachable!("skipped above"),
            SlotState::Filled(v) => {
                if q.throttle < 0 {
                    FetchVerdict::Throttled {
                        slot: slot_id,
                        value: v,
                    }
                } else {
                    FetchVerdict::Use {
                        slot: slot_id,
                        value: v,
                    }
                }
            }
        }
    }

    /// Allocation-free [`PredictionQueues::checkpoint`]: clears `cp` and
    /// fills it (the fetch path recycles checkpoint buffers through a
    /// pool).
    pub(crate) fn checkpoint_into(&self, cp: &mut QueueCheckpoint) {
        cp.clear();
        cp.extend(self.queues.iter().map(|(pc, q)| (*pc, q.fetch)));
    }

    /// Restores fetch pointers from a checkpoint. Pointers are clamped to
    /// the queue's current base (slots retired since the checkpoint stay
    /// retired).
    pub(crate) fn restore(&mut self, cp: &QueueCheckpoint) {
        for (pc, fetch) in cp {
            if let Some(q) = self
                .queues
                .iter_mut()
                .find_map(|(p, q)| (p == pc).then_some(q))
            {
                q.fetch = (*fetch).max(q.base);
            }
        }
    }

    /// Retires the consumed slot `slot` of branch `pc`, comparing the DCE
    /// outcome against the resolved direction and TAGE's direction for
    /// throttle maintenance. Returns the slot's filled value if any.
    pub(crate) fn retire(
        &mut self,
        pc: Pc,
        slot: u64,
        actual: bool,
        tage_correct: bool,
    ) -> Option<bool> {
        let q = self.queue_mut(pc, false)?;
        if slot < q.base {
            return None; // already gone (queue cleared)
        }
        // In-order consumption means the retiring slot is the oldest.
        let mut value = None;
        while q.base <= slot {
            let s = q.slots.pop_front()?;
            if q.base == slot {
                if let SlotState::Filled(v) = s {
                    value = Some(v);
                }
            }
            q.base += 1;
            q.fetch = q.fetch.max(q.base);
        }
        if let Some(v) = value {
            let dce_correct = v == actual;
            if dce_correct && !tage_correct {
                q.throttle = (q.throttle + 1).min(1);
            } else if !dce_correct && tage_correct {
                q.throttle = (q.throttle - 1).max(-2);
            }
        }
        value
    }

    /// Applies the "DCE incorrect and TAGE correct" throttle decrement
    /// directly (used at divergence detection, where the offending slots
    /// are about to be cleared and would otherwise never be compared at
    /// retirement).
    pub(crate) fn penalize(&mut self, pc: Pc) {
        if let Some(q) = self.queue_mut(pc, false) {
            q.throttle = (q.throttle - 1).max(-2);
        }
    }

    /// Clears every queue (synchronization event). Bases advance past all
    /// existing slots so stale fills/retires become no-ops.
    pub(crate) fn clear_all(&mut self) {
        for (_, q) in &mut self.queues {
            q.base += q.slots.len() as u64;
            q.slots.clear();
            q.fetch = q.base;
        }
    }

    /// Live (allocated, not yet retired) slots summed over every queue —
    /// the prediction-queue depth telemetry samples.
    #[must_use]
    pub(crate) fn occupied_slots(&self) -> usize {
        self.queues.iter().map(|(_, q)| q.slots.len()).sum()
    }

    /// Fault injection: swallow the next `fill` call (models a dropped
    /// DCE→queue push; the slot stays `Empty` and fetch sees `Late`).
    pub(crate) fn chaos_drop_next_fill(&mut self) {
        self.drop_fills = self.drop_fills.saturating_add(1);
    }

    /// Deliberately corrupts one queue's fetch pointer past its allocated
    /// slots — the machine-check CI fixture uses this to prove a real
    /// structural violation is caught and reported. Creates a queue for
    /// an impossible PC if none exist so the corruption always lands.
    #[doc(hidden)]
    pub fn sabotage_fetch_pointer(&mut self) {
        if self.queues.is_empty() {
            self.queues.push((u64::MAX, PredQueue::new()));
        }
        if let Some((_, q)) = self.queues.first_mut() {
            q.fetch = q.base + q.slots.len() as u64 + 1;
        }
    }

    /// Validates structural invariants: per-queue pointer ordering
    /// `base <= fetch <= base + slots`, slot-count and queue-count
    /// capacity bounds, throttle counter range, and LRU stamps not
    /// exceeding the allocation tick.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        if self.queues.len() > self.num_queues {
            return Err(format!(
                "pqueue: {} live queues exceed capacity {}",
                self.queues.len(),
                self.num_queues
            ));
        }
        for (pc, q) in &self.queues {
            if q.slots.len() > self.entries_per_queue {
                return Err(format!(
                    "pqueue[{pc:#x}]: {} slots exceed capacity {}",
                    q.slots.len(),
                    self.entries_per_queue
                ));
            }
            let limit = q.base + q.slots.len() as u64;
            if q.fetch < q.base || q.fetch > limit {
                return Err(format!(
                    "pqueue[{pc:#x}]: fetch pointer {} outside [{}, {limit}]",
                    q.fetch, q.base
                ));
            }
            if !(-2..=1).contains(&q.throttle) {
                return Err(format!(
                    "pqueue[{pc:#x}]: throttle {} outside -2..=1",
                    q.throttle
                ));
            }
            if q.lru > self.tick {
                return Err(format!(
                    "pqueue[{pc:#x}]: LRU stamp {} ahead of tick {}",
                    q.lru, self.tick
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PredictionQueues {
        /// Snapshot of every queue's fetch pointer (taken at each fetched
        /// branch; restored on recovery).
        #[must_use]
        pub(crate) fn checkpoint(&self) -> QueueCheckpoint {
            let mut cp = QueueCheckpoint::new();
            self.checkpoint_into(&mut cp);
            cp
        }

        /// Number of live queues.
        #[must_use]
        pub(crate) fn len(&self) -> usize {
            self.queues.len()
        }
    }

    #[test]
    fn allocate_fill_consume_retire_cycle() {
        let mut pq = PredictionQueues::new(4, 8);
        let s0 = pq.allocate_slot(0x10).unwrap();
        let s1 = pq.allocate_slot(0x10).unwrap();
        assert_eq!((s0, s1), (0, 1));
        pq.fill(0x10, s0, true);
        match pq.consume_at_fetch(0x10) {
            FetchVerdict::Use { slot, value } => {
                assert_eq!(slot, s0);
                assert!(value);
            }
            v => panic!("expected Use, got {v:?}"),
        }
        // Second slot unfilled -> Late.
        assert!(matches!(
            pq.consume_at_fetch(0x10),
            FetchVerdict::Late { slot: 1 }
        ));
        // Third consume -> Inactive (no slot allocated).
        assert_eq!(pq.consume_at_fetch(0x10), FetchVerdict::Inactive);
        // Retire the first: correct prediction.
        assert_eq!(pq.retire(0x10, s0, true, false), Some(true));
    }

    #[test]
    fn unknown_branch_has_no_queue() {
        let mut pq = PredictionQueues::new(4, 8);
        assert_eq!(pq.consume_at_fetch(0x99), FetchVerdict::NoQueue);
    }

    #[test]
    fn queue_capacity_limits_runahead() {
        let mut pq = PredictionQueues::new(4, 2);
        assert!(pq.allocate_slot(0x10).is_some());
        assert!(pq.allocate_slot(0x10).is_some());
        assert!(pq.allocate_slot(0x10).is_none(), "queue full");
    }

    #[test]
    fn throttle_engages_and_recovers() {
        let mut pq = PredictionQueues::new(4, 32);
        // DCE wrong twice while TAGE right -> throttled.
        for _ in 0..2 {
            let s = pq.allocate_slot(0x10).unwrap();
            pq.fill(0x10, s, true);
            let _ = pq.consume_at_fetch(0x10);
            pq.retire(0x10, s, false, true); // actual=false, tage right
        }
        assert!(pq.queues.iter().any(|(p, q)| *p == 0x10 && q.throttle < 0));
        let s = pq.allocate_slot(0x10).unwrap();
        pq.fill(0x10, s, false);
        assert!(matches!(
            pq.consume_at_fetch(0x10),
            FetchVerdict::Throttled { value: false, .. }
        ));
        // DCE right while TAGE wrong x3 -> unthrottled.
        pq.retire(0x10, s, false, false);
        for _ in 0..2 {
            let s = pq.allocate_slot(0x10).unwrap();
            pq.fill(0x10, s, true);
            let _ = pq.consume_at_fetch(0x10);
            pq.retire(0x10, s, true, false);
        }
        assert!(!pq.queues.iter().any(|(p, q)| *p == 0x10 && q.throttle < 0));
    }

    #[test]
    fn checkpoint_restore_reinserts_consumed_predictions() {
        let mut pq = PredictionQueues::new(4, 8);
        let s0 = pq.allocate_slot(0x10).unwrap();
        pq.fill(0x10, s0, true);
        let cp = pq.checkpoint();
        assert!(matches!(
            pq.consume_at_fetch(0x10),
            FetchVerdict::Use { .. }
        ));
        // Mispredict on an older branch: restore; the prediction is
        // consumable again.
        pq.restore(&cp);
        assert!(matches!(
            pq.consume_at_fetch(0x10),
            FetchVerdict::Use { slot, value: true } if slot == s0
        ));
    }

    #[test]
    fn clear_all_invalidates_stale_ids() {
        let mut pq = PredictionQueues::new(4, 8);
        let s0 = pq.allocate_slot(0x10).unwrap();
        pq.clear_all();
        pq.fill(0x10, s0, true); // stale: ignored
        assert_eq!(pq.consume_at_fetch(0x10), FetchVerdict::Inactive);
        let s1 = pq.allocate_slot(0x10).unwrap();
        assert!(s1 > s0, "absolute ids keep increasing across clears");
    }

    #[test]
    fn dead_slots_behave_late() {
        let mut pq = PredictionQueues::new(4, 8);
        let s0 = pq.allocate_slot(0x10).unwrap();
        pq.kill(0x10, s0);
        assert!(matches!(
            pq.consume_at_fetch(0x10),
            FetchVerdict::Late { .. }
        ));
        assert_eq!(pq.retire(0x10, s0, true, true), None);
    }

    #[test]
    fn lru_queue_eviction_at_capacity() {
        let mut pq = PredictionQueues::new(2, 4);
        pq.allocate_slot(0x10);
        pq.allocate_slot(0x20);
        pq.allocate_slot(0x10); // refresh 0x10
        pq.allocate_slot(0x30); // evicts 0x20
        assert_eq!(pq.len(), 2);
        assert_eq!(pq.consume_at_fetch(0x20), FetchVerdict::NoQueue);
    }

    #[test]
    fn retire_skips_cleared_slots() {
        let mut pq = PredictionQueues::new(4, 8);
        let s0 = pq.allocate_slot(0x10).unwrap();
        let _ = pq.consume_at_fetch(0x10);
        pq.clear_all();
        assert_eq!(pq.retire(0x10, s0, true, true), None);
    }
}
