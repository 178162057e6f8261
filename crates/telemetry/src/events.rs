//! Bounded ring-buffer tracing of discrete microarchitectural events.

use std::collections::VecDeque;

/// The discrete event vocabulary. Each variant corresponds to one
/// instrumentation site in the core or the Branch Runahead engine; the
/// payload interpretation of `TraceEvent::pc` / [`TraceEvent::arg`] is
/// documented per variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EventKind {
    /// A mispredicted branch triggered pipeline recovery. `pc` = branch,
    /// `arg` = wrong-path uops squashed.
    Recovery,
    /// A dependence chain was extracted and installed. `pc` = target
    /// branch, `arg` = chain length in uops.
    ChainExtract,
    /// A chain extraction attempt was rejected. `pc` = target branch,
    /// `arg` = the reason, as `br_core::ExtractOutcome`'s stable code:
    /// 1 no terminator in the CEB, 2 too long, 3 too many local
    /// registers, 4 an op the DCE cannot run, 5 no flag-producing
    /// compare, 6 target branch not in the CEB (0, `Ok`, never appears).
    ChainReject,
    /// A branch was allocated into the Hard Branch Table. `pc` = the
    /// retiring branch that triggered the poll (allocation attribution is
    /// at HBT-churn granularity).
    HbtInsert,
    /// An HBT entry was overwritten by a new allocation. `pc` as for
    /// [`EventKind::HbtInsert`].
    HbtEvict,
    /// The Wrong-Path Buffer confirmed a merge point at retirement.
    /// `pc` = branch, `arg` = merge PC.
    WpbMerge,
    /// A DCE-caused misprediction flushed all chain instances.
    /// `pc` = diverging branch, `arg` = instances active before the flush.
    DceFlush,
    /// The DCE synchronized (copied live-ins) and re-initiated chains.
    /// `pc` = triggering branch, `arg` = resolved direction (0/1).
    DceSync,
    /// The fault harness injected a fault into a Branch Runahead
    /// structure. `pc` = affected branch (0 when structural), `arg` =
    /// fault kind code (see `br_sim::faults::FaultKind`).
    FaultInject,
    /// The machine-check layer ran an invariant sweep. `pc` = 0, `arg` =
    /// 0 when clean, 1 when a violation was detected (the run then
    /// terminates with the violation as its error).
    MachineCheck,
}

impl EventKind {
    /// Every kind, in a fixed reporting order.
    pub const ALL: [EventKind; 10] = [
        EventKind::Recovery,
        EventKind::ChainExtract,
        EventKind::ChainReject,
        EventKind::HbtInsert,
        EventKind::HbtEvict,
        EventKind::WpbMerge,
        EventKind::DceFlush,
        EventKind::DceSync,
        EventKind::FaultInject,
        EventKind::MachineCheck,
    ];

    /// Stable snake_case name used by every exporter.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Recovery => "recovery",
            EventKind::ChainExtract => "chain_extract",
            EventKind::ChainReject => "chain_reject",
            EventKind::HbtInsert => "hbt_insert",
            EventKind::HbtEvict => "hbt_evict",
            EventKind::WpbMerge => "wpb_merge",
            EventKind::DceFlush => "dce_flush",
            EventKind::DceSync => "dce_sync",
            EventKind::FaultInject => "fault_inject",
            EventKind::MachineCheck => "machine_check",
        }
    }
}

/// One traced event. Fixed-size and `Copy` so the ring buffer is a flat
/// allocation with no per-event boxing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle the event occurred.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
    /// Primary subject (usually a branch PC); see [`EventKind`].
    pub(crate) pc: u64,
    /// Kind-specific payload; see [`EventKind`].
    pub arg: u64,
}

/// A bounded ring buffer of [`TraceEvent`]s: pushes beyond `capacity`
/// evict the oldest event and count it as dropped, so a trace always
/// holds the *most recent* window and memory stays bounded no matter how
/// long the run.
#[derive(Clone, Debug)]
pub(crate) struct EventRing {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events (a capacity of 0
    /// drops everything).
    #[must_use]
    pub(crate) fn new(capacity: usize) -> Self {
        EventRing {
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    #[inline]
    pub(crate) fn push(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Consumes the ring, returning the buffered events oldest-first and
    /// the dropped count.
    #[must_use]
    pub(crate) fn into_parts(self) -> (Vec<TraceEvent>, u64) {
        (self.events.into_iter().collect(), self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EventRing {
        /// Number of buffered events.
        #[must_use]
        pub(crate) fn len(&self) -> usize {
            self.events.len()
        }

        /// Whether the ring holds no events.
        #[must_use]
        pub(crate) fn is_empty(&self) -> bool {
            self.events.is_empty()
        }

        /// Events evicted (or rejected) because the ring was full.
        #[must_use]
        pub(crate) fn dropped(&self) -> u64 {
            self.dropped
        }
    }

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            kind: EventKind::Recovery,
            pc: 0x40,
            arg: cycle,
        }
    }

    #[test]
    fn ring_keeps_most_recent_window() {
        let mut r = EventRing::new(3);
        for c in 0..5 {
            r.push(ev(c));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let (events, dropped) = r.into_parts();
        assert_eq!(dropped, 2);
        assert_eq!(
            events.iter().map(|e| e.cycle).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut r = EventRing::new(0);
        r.push(ev(1));
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn kind_names_are_unique() {
        let names: std::collections::BTreeSet<_> =
            EventKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), EventKind::ALL.len());
    }
}
