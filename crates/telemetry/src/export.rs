//! Deterministic exporters: Chrome `trace_event` JSON and JSONL.
//!
//! Every function here is a pure `&[(label, TelemetryRun)] -> String`
//! transform. File I/O lives with the callers (the bench harness); tests
//! compare the strings directly, which is what makes the determinism
//! guarantee ("byte-identical across thread counts") checkable without
//! touching the filesystem.
//!
//! Formatting is hand-rolled (this workspace is offline and carries no
//! serde); labels pass through [`escape_json`], numbers through
//! [`crate::sample::json_f64`], so output always parses.

use crate::sample::json_f64;
use crate::TelemetryRun;

/// Escapes a string for inclusion in a JSON string literal.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders runs as a Chrome `trace_event` JSON document (load in
/// `chrome://tracing` or Perfetto). Each run is a process (`pid` = its
/// index, named by a `process_name` metadata event); interval samples
/// become counter (`ph:"C"`) tracks and traced events become instant
/// (`ph:"i"`) events. The time axis (`ts`) is the simulated cycle.
#[must_use]
pub fn chrome_trace(runs: &[(String, TelemetryRun)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let emit = |out: &mut String, first: &mut bool, ev: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&ev);
    };
    for (pid, (label, run)) in runs.iter().enumerate() {
        emit(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape_json(label)
            ),
        );
        for s in &run.samples {
            for (track, value) in [
                ("ipc", json_f64(s.ipc)),
                ("mpki", json_f64(s.mpki)),
                ("coverage_rate", json_f64(s.coverage_rate)),
                ("dce_active", s.dce_active.to_string()),
                ("queue_slots", s.queue_slots.to_string()),
            ] {
                emit(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"{track}\",\"ph\":\"C\",\"ts\":{},\"pid\":{pid},\
                         \"tid\":0,\"args\":{{\"value\":{value}}}}}",
                        s.cycle
                    ),
                );
            }
        }
        for e in &run.events {
            emit(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":{pid},\"tid\":0,\
                     \"s\":\"p\",\"args\":{{\"pc\":{},\"arg\":{}}}}}",
                    e.kind.name(),
                    e.cycle,
                    e.pc,
                    e.arg
                ),
            );
        }
    }
    out.push_str("]}");
    out
}

/// Renders every run's interval samples as JSONL (one JSON object per
/// line, each tagged with its run label).
#[must_use]
pub fn samples_jsonl(runs: &[(String, TelemetryRun)]) -> String {
    let mut out = String::new();
    for (label, run) in runs {
        let label = escape_json(label);
        for s in &run.samples {
            out.push_str(&format!("{{\"job\":\"{label}\",{}}}\n", s.json_fields()));
        }
    }
    out
}

/// Renders every run's traced events as JSONL.
#[must_use]
pub fn events_jsonl(runs: &[(String, TelemetryRun)]) -> String {
    let mut out = String::new();
    for (label, run) in runs {
        let label = escape_json(label);
        for e in &run.events {
            out.push_str(&format!(
                "{{\"job\":\"{label}\",\"cycle\":{},\"kind\":\"{}\",\"pc\":{},\"arg\":{}}}\n",
                e.cycle,
                e.kind.name(),
                e.pc,
                e.arg
            ));
        }
    }
    out
}

/// Renders every run's final counters, gauges, and histogram summaries as
/// one JSON document (the reconciliation surface: these totals must match
/// the simulator's own end-of-run statistics).
#[must_use]
pub fn counters_json(runs: &[(String, TelemetryRun)]) -> String {
    let mut out = String::from("{\"jobs\":[");
    for (i, (label, run)) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"job\":\"{}\",\"dropped_events\":{},\"counters\":{{",
            escape_json(label),
            run.dropped_events
        ));
        for (j, (name, v)) in run.counters.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", escape_json(name)));
        }
        out.push_str("},\"gauges\":{");
        for (j, (name, v)) in run.gauges.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", escape_json(name)));
        }
        out.push_str("},\"histograms\":{");
        for (j, (name, h)) in run.histograms.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{}}}",
                escape_json(name),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                json_f64(h.mean())
            ));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Sample, TraceEvent};

    fn run() -> TelemetryRun {
        TelemetryRun {
            samples: vec![Sample {
                cycle: 10,
                retired_uops: 5,
                ipc: 0.5,
                ..Sample::default()
            }],
            events: vec![TraceEvent {
                cycle: 7,
                kind: EventKind::ChainExtract,
                pc: 0x40,
                arg: 3,
            }],
            dropped_events: 1,
            counters: vec![("core.retired_uops".into(), 5)],
            gauges: vec![("br.cached_chains".into(), 2)],
            histograms: vec![("br.chain_len".into(), {
                let mut h = crate::Histogram::default();
                h.record(3);
                h
            })],
        }
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
        let s = chrome_trace(&[("cfg \"x\"/w".into(), run())]);
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.ends_with("]}"));
        assert_eq!(
            s.matches('{').count(),
            s.matches('}').count(),
            "unbalanced braces"
        );
        assert!(s.contains("\"process_name\""));
        assert!(s.contains("\"chain_extract\""));
        assert!(s.contains("\\\"x\\\""), "label must be escaped: {s}");
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let s = samples_jsonl(&[("a".into(), run()), ("b".into(), run())]);
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
        let e = events_jsonl(&[("a".into(), run())]);
        assert!(e.lines().all(|l| l.contains("\"kind\":\"chain_extract\"")));
    }

    #[test]
    fn counters_json_carries_totals() {
        let s = counters_json(&[("a".into(), run())]);
        assert!(s.contains("\"core.retired_uops\":5"));
        assert!(s.contains("\"br.cached_chains\":2"));
        assert!(s.contains("\"mean\":3"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }
}
