//! # br-telemetry — time-resolved observability for the simulator stack
//!
//! The paper's evaluation is about *when* things happen — predictions
//! arriving too late, throttled windows, DCE occupancy under contention —
//! but end-of-run statistics flatten all of it. This crate adds the
//! missing time axis with three primitives:
//!
//! * a [`Metrics`] registry — named gauges and log2-bucketed
//!   [`Histogram`]s — behind the [`Telemetry`] facade, whose disabled
//!   path is a single predictable branch (no trait objects, no generics
//!   leaking into component types; verified by `telemetry_bench`),
//! * an interval time series of [`Sample`]s (IPC, MPKI, coverage/late/
//!   throttle rates, queue depths, chain-cache hit rate every N retired
//!   uops), driven by the `br-sim` system loop,
//! * a bounded [`EventRing`] of discrete [`TraceEvent`]s (chain
//!   extraction/rejection, HBT churn, WPB merge hits, DCE flush/sync,
//!   recoveries).
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
//! use br_telemetry::{EventKind, Telemetry};
//!
//! let mut t = Telemetry::on(1024);
//! let squash = t.histogram("core.squash_len");
//! t.record(squash, 12);
//! t.event(100, EventKind::Recovery, 0x40, 12);
//! let (metrics, events) = t.drain().unwrap();
//! assert_eq!(metrics.histograms().next().unwrap().1.sum(), 12);
//! assert_eq!(events.len(), 1);
//!
//! let off = Telemetry::off();          // all updates are no-ops
//! assert!(!off.is_on());
//! ```

#![warn(missing_docs)]

mod events;
pub mod export;
mod metrics;
mod sample;

pub use events::{EventKind, EventRing, TraceEvent};
pub use metrics::{GaugeId, HistId, Histogram, Metrics, HIST_BUCKETS};
pub use sample::{json_f64, Sample};

/// Telemetry collection knobs, carried inside the simulation
/// configuration so every job is self-describing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch. Disabled (the default) means every instrumentation
    /// site is a no-op and runs produce no [`TelemetryRun`].
    pub enabled: bool,
    /// Retired uops between interval samples.
    pub sample_interval: u64,
    /// Event-ring capacity per sink (the trace keeps the most recent
    /// window; older events are counted as dropped).
    pub event_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            sample_interval: 10_000,
            event_capacity: 65_536,
        }
    }
}

#[derive(Clone, Debug)]
struct Inner {
    metrics: Metrics,
    events: EventRing,
}

/// A telemetry sink owned by an instrumented component (the core, the
/// Branch Runahead engine). Everything is a no-op when constructed with
/// [`Telemetry::off`] — updates cost one branch on a `None` discriminant
/// — so components embed a `Telemetry` unconditionally and never carry
/// generics or feature gates for it.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Box<Inner>>,
}

impl Telemetry {
    /// A disabled sink: every operation is a no-op.
    #[must_use]
    pub fn off() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled sink whose event ring holds `event_capacity` events.
    #[must_use]
    pub fn on(event_capacity: usize) -> Self {
        Telemetry {
            inner: Some(Box::new(Inner {
                metrics: Metrics::default(),
                events: EventRing::new(event_capacity),
            })),
        }
    }

    /// Builds a sink per the configuration's master switch.
    #[must_use]
    pub fn from_config(cfg: &TelemetryConfig) -> Self {
        if cfg.enabled {
            Telemetry::on(cfg.event_capacity)
        } else {
            Telemetry::off()
        }
    }

    /// Whether this sink records anything.
    #[inline]
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or finds) a gauge. On a disabled sink the returned id
    /// is inert (updates through it are dropped with the rest).
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        self.inner
            .as_mut()
            .map_or(GaugeId::default(), |i| i.metrics.gauge(name))
    }

    /// Registers (or finds) a histogram.
    pub fn histogram(&mut self, name: &'static str) -> HistId {
        self.inner
            .as_mut()
            .map_or(HistId::default(), |i| i.metrics.histogram(name))
    }

    /// Sets a gauge (no-op when disabled).
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, value: i64) {
        if let Some(i) = &mut self.inner {
            i.metrics.set_gauge(id, value);
        }
    }

    /// Records a histogram value (no-op when disabled).
    #[inline]
    pub fn record(&mut self, id: HistId, value: u64) {
        if let Some(i) = &mut self.inner {
            i.metrics.record(id, value);
        }
    }

    /// Traces a discrete event (no-op when disabled).
    #[inline]
    pub fn event(&mut self, cycle: u64, kind: EventKind, pc: u64, arg: u64) {
        if let Some(i) = &mut self.inner {
            i.events.push(TraceEvent {
                cycle,
                kind,
                pc,
                arg,
            });
        }
    }

    /// Consumes the sink, returning its registry and event ring (None for
    /// a disabled sink).
    #[must_use]
    pub fn drain(self) -> Option<(Metrics, EventRing)> {
        self.inner.map(|i| (i.metrics, i.events))
    }
}

/// The collected telemetry of one simulation run: the interval time
/// series plus the merged metrics and event traces of every sink that
/// observed the run.
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
    /// Final gauge values, in sink order then registration order.
    pub gauges: Vec<(String, i64)>,
    /// Final histograms, in sink order then registration order.
    pub histograms: Vec<(String, Histogram)>,
}

impl TelemetryRun {
    /// Folds the interval time series and the drained sinks into one run
    /// record (with no counters yet). Sink order is significant and must
    /// be deterministic (callers pass e.g. `[core_sink, br_sink]`): gauges
    /// and histograms concatenate in that order and event streams — each
    /// already nondecreasing in
    /// cycle, since components observe cycles monotonically — are
    /// stably merged by cycle with earlier sinks winning ties.
    #[must_use]
    pub fn collect(samples: Vec<Sample>, sinks: Vec<Telemetry>) -> Self {
        let mut run = TelemetryRun {
            samples,
            ..TelemetryRun::default()
        };
        for sink in sinks {
            let Some((metrics, ring)) = sink.drain() else {
                continue;
            };
            for (name, v) in metrics.gauges() {
                run.gauges.push((name.to_string(), v));
            }
            for (name, h) in metrics.histograms() {
                run.histograms.push((name.to_string(), h.clone()));
            }
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
        let g = t.gauge("g");
        let h = t.histogram("h");
        t.set_gauge(g, 5);
        t.record(h, 9);
        t.event(1, EventKind::Recovery, 0, 0);
        assert!(!t.is_on());
        assert!(t.drain().is_none());
    }

    #[test]
    fn from_config_obeys_master_switch() {
        let mut cfg = TelemetryConfig::default();
        assert!(!Telemetry::from_config(&cfg).is_on());
        cfg.enabled = true;
        assert!(Telemetry::from_config(&cfg).is_on());
    }

    #[test]
    fn collect_merges_sinks_deterministically() {
        let mut a = Telemetry::on(16);
        let ga = a.gauge("a.n");
        a.set_gauge(ga, 1);
        a.event(5, EventKind::Recovery, 1, 0);
        a.event(9, EventKind::Recovery, 2, 0);

        let mut b = Telemetry::on(16);
        let gb = b.gauge("b.n");
        b.set_gauge(gb, 2);
        b.event(5, EventKind::ChainExtract, 3, 0);
        b.event(7, EventKind::ChainExtract, 4, 0);

        let run = TelemetryRun::collect(Vec::new(), vec![a, b]);
        assert_eq!(run.gauges, [("a.n".to_string(), 1), ("b.n".to_string(), 2)]);
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

    #[test]
    fn registration_ids_work_across_reattach() {
        // The same site can register against successive sinks (attach,
        // drain, attach again) and ids stay valid for the current sink.
        let mut t = Telemetry::on(4);
        let h1 = t.histogram("n");
        t.record(h1, 1);
        let (m, _) = t.drain().unwrap();
        assert_eq!(m.histograms().next().map(|(_, h)| h.sum()), Some(1));

        let mut t2 = Telemetry::on(4);
        let h2 = t2.histogram("n");
        t2.record(h2, 7);
        let (m2, _) = t2.drain().unwrap();
        assert_eq!(m2.histograms().next().map(|(_, h)| h.sum()), Some(7));
    }
}
