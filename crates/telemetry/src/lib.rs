//! # br-telemetry — time-resolved observability for the simulator stack
//!
//! The paper's evaluation is about *when* things happen — predictions
//! arriving too late, throttled windows, DCE occupancy under contention —
//! but end-of-run statistics flatten all of it. This crate adds the
//! missing time axis with two collectors:
//!
//! * an interval time series of [`Sample`]s (IPC, MPKI, coverage/late/
//!   throttle rates, queue depths, chain-cache hit rate every N retired
//!   uops), driven by the `br-sim` system loop,
//! * a bounded `EventRing` of discrete [`TraceEvent`]s (chain
//!   extraction/rejection, HBT churn, WPB merge hits, DCE flush/sync,
//!   recoveries), each stamped with its cycle and PC, filled through the
//!   [`Telemetry`] sink, whose disabled path is a single predictable
//!   branch (no trait objects, no generics leaking into component types;
//!   verified by `telemetry_bench`).
//!
//! Event counts are deliberately absent: the simulator's statistics
//! structs already count every event once, and the simulator copies them
//! into [`TelemetryRun::counters`] at the end of a run.
//!
//! Per-run output is folded into a [`TelemetryRun`], which the [`export`]
//! module renders as Chrome `trace_event` JSON or JSONL — all pure
//! string transforms, so "byte-identical across worker-thread counts" is
//! a testable property.
//!
//! ```
//! use br_telemetry::{EventKind, Telemetry, TelemetryRun};
//!
//! let mut on = Telemetry::on(1024);
//! on.event(100, EventKind::Recovery, 0x40, 12);
//! let mut off = Telemetry::off();      // all updates are no-ops
//! off.event(100, EventKind::Recovery, 0x40, 12);
//!
//! let run = TelemetryRun::collect(Vec::new(), vec![on, off]);
//! assert_eq!(run.event_count(EventKind::Recovery), 1);
//! ```

#![warn(missing_docs)]

mod events;
pub mod export;
mod sample;

pub use events::EventKind;
pub(crate) use events::EventRing;
pub use events::TraceEvent;
pub use sample::Sample;

/// Telemetry collection knobs, carried inside the simulation
/// configuration so every job is self-describing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch. Disabled (the default) means every instrumentation
    /// site is a no-op and runs produce no [`TelemetryRun`].
    pub enabled: bool,
    /// Retired uops between interval samples.
    pub sample_interval: u64,
}

/// Event-ring capacity of an enabled sink: the trace keeps the most
/// recent window, and older events are counted as dropped.
const EVENT_CAPACITY: usize = 65_536;

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            sample_interval: 10_000,
        }
    }
}

/// A telemetry sink owned by an instrumented component (the core, the
/// Branch Runahead engine). Everything is a no-op when constructed with
/// [`Telemetry::off`] — updates cost one branch on a `None` discriminant
/// — so components embed a `Telemetry` unconditionally and never carry
/// generics or feature gates for it.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    ring: Option<Box<EventRing>>,
}

impl Telemetry {
    /// A disabled sink: every operation is a no-op.
    #[must_use]
    pub fn off() -> Self {
        Telemetry { ring: None }
    }

    /// An enabled sink whose event ring holds `event_capacity` events.
    #[must_use]
    pub fn on(event_capacity: usize) -> Self {
        Telemetry {
            ring: Some(Box::new(EventRing::new(event_capacity))),
        }
    }

    /// Builds a sink per the configuration's master switch.
    #[must_use]
    pub fn from_config(cfg: &TelemetryConfig) -> Self {
        if cfg.enabled {
            Telemetry::on(EVENT_CAPACITY)
        } else {
            Telemetry::off()
        }
    }

    /// Traces a discrete event (no-op when disabled).
    #[inline]
    pub fn event(&mut self, cycle: u64, kind: EventKind, pc: u64, arg: u64) {
        if let Some(ring) = &mut self.ring {
            ring.push(TraceEvent {
                cycle,
                kind,
                pc,
                arg,
            });
        }
    }

    /// Consumes the sink, returning its event ring (None for a disabled
    /// sink).
    #[must_use]
    pub(crate) fn drain(self) -> Option<EventRing> {
        self.ring.map(|ring| *ring)
    }
}

/// The collected telemetry of one simulation run: the interval time
/// series plus the merged event traces of every sink that observed the
/// run.
#[derive(Clone, Debug, Default)]
pub struct TelemetryRun {
    /// Interval samples in time order.
    pub samples: Vec<Sample>,
    /// Traced events merged across sinks, nondecreasing in cycle.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring-buffer bounds, summed across sinks.
    pub dropped_events: u64,
    /// End-of-run event counts, named `core.<field>`, `br.<field>` and
    /// `mem.<path>` after the simulator's statistics lists (filled by the
    /// simulator, not by the sinks).
    pub counters: Vec<(String, u64)>,
}

impl TelemetryRun {
    /// Folds the interval time series and the drained sinks into one run
    /// record (with no counters yet). Sink order is significant and must
    /// be deterministic (callers pass e.g. `[core_sink, br_sink]`): event
    /// streams — each already nondecreasing in cycle, since components
    /// observe cycles monotonically — are stably merged by cycle with
    /// earlier sinks winning ties.
    #[must_use]
    pub fn collect(samples: Vec<Sample>, sinks: Vec<Telemetry>) -> Self {
        let mut run = TelemetryRun {
            samples,
            ..TelemetryRun::default()
        };
        for sink in sinks {
            let Some(ring) = sink.drain() else {
                continue;
            };
            let (events, dropped) = ring.into_parts();
            run.dropped_events += dropped;
            run.events = merge_by_cycle(std::mem::take(&mut run.events), events);
        }
        run
    }

    /// Final value of a counter by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Number of traced events of `kind`.
    #[must_use]
    pub fn event_count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}

/// Stable two-way merge of cycle-sorted event streams (`a` wins ties).
fn merge_by_cycle(a: Vec<TraceEvent>, b: Vec<TraceEvent>) -> Vec<TraceEvent> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (a.into_iter().peekable(), b.into_iter().peekable());
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(x), Some(y)) => {
                if x.cycle <= y.cycle {
                    out.push(ia.next().expect("peeked"));
                } else {
                    out.push(ib.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.extend(ia.by_ref()),
            (None, Some(_)) => out.extend(ib.by_ref()),
            (None, None) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let mut t = Telemetry::off();
        t.event(1, EventKind::Recovery, 0, 0);
        assert!(t.ring.is_none());
        assert!(t.drain().is_none());
    }

    #[test]
    fn from_config_obeys_master_switch() {
        let mut cfg = TelemetryConfig::default();
        assert!(Telemetry::from_config(&cfg).ring.is_none());
        cfg.enabled = true;
        assert!(Telemetry::from_config(&cfg).ring.is_some());
    }

    #[test]
    fn collect_merges_sinks_deterministically() {
        let mut a = Telemetry::on(16);
        a.event(5, EventKind::Recovery, 1, 0);
        a.event(9, EventKind::Recovery, 2, 0);

        let mut b = Telemetry::on(16);
        b.event(5, EventKind::ChainExtract, 3, 0);
        b.event(7, EventKind::ChainExtract, 4, 0);

        let run = TelemetryRun::collect(Vec::new(), vec![a, b]);
        let cycles: Vec<u64> = run.events.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![5, 5, 7, 9]);
        // Tie at cycle 5: the first sink's event comes first.
        assert_eq!(run.events[0].kind, EventKind::Recovery);
        assert_eq!(run.event_count(EventKind::ChainExtract), 2);
    }

    #[test]
    fn collect_sums_dropped_counts() {
        let mut a = Telemetry::on(1);
        a.event(1, EventKind::Recovery, 0, 0);
        a.event(2, EventKind::Recovery, 0, 0);
        let run = TelemetryRun::collect(Vec::new(), vec![a, Telemetry::off()]);
        assert_eq!(run.dropped_events, 1);
        assert_eq!(run.events.len(), 1);
        assert_eq!(run.events[0].cycle, 2, "ring keeps the newest event");
    }
}
