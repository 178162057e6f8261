//! Telemetry acceptance: the exported counters must be the end-of-run
//! statistics, one name per listed counter; traced events must match the
//! counts of the events they trace, and their payloads the totals and
//! reasons of those events; the interval samples must advance
//! monotonically; and a run with telemetry disabled must be
//! byte-identical to one that never heard of the subsystem.

use branch_runahead::mem::Counters;
use branch_runahead::runahead::ExtractOutcome;
use branch_runahead::sim::experiments::{self, ExperimentSetup};
use branch_runahead::sim::{SimConfig, System, TelemetryConfig};
use branch_runahead::telemetry::EventKind;
use branch_runahead::workloads::{workload_by_name, WorkloadParams};

fn image() -> branch_runahead::workloads::WorkloadImage {
    workload_by_name("leela_17")
        .unwrap()
        .build(&WorkloadParams {
            scale: 512,
            iterations: 1_000_000,
            seed: 17,
        })
}

fn run_with_telemetry() -> branch_runahead::sim::RunResult {
    run_with_telemetry_on(SimConfig::mini_br())
}

fn run_with_telemetry_on(mut cfg: SimConfig) -> branch_runahead::sim::RunResult {
    cfg.max_retired = 60_000;
    cfg.telemetry = TelemetryConfig {
        enabled: true,
        sample_interval: 5_000,
    };
    System::new(cfg, &image()).run()
}

#[test]
fn counters_reconcile_with_run_stats() {
    let r = run_with_telemetry();
    let t = r.telemetry.as_ref().expect("telemetry enabled");

    let mut listed = 0;
    r.for_each_counter(&mut |name, value| {
        listed += 1;
        let exported: Vec<u64> = t
            .counters
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(exported, [value], "{name}: exported once, as the stat");
    });
    assert_eq!(t.counters.len(), listed, "only listed counters exported");
    assert!(t.counter("br.prediction_breakdown.correct").unwrap_or(0) > 0);
}

#[test]
fn events_reconcile_with_counters() {
    let r = run_with_telemetry();
    let t = r.telemetry.as_ref().expect("telemetry enabled");
    // Nothing dropped at this capacity, so each traced kind must match
    // its counter exactly.
    assert_eq!(t.dropped_events, 0, "ring too small for this run");
    for (kind, counter) in [
        (EventKind::ChainExtract, "br.chains_extracted"),
        (EventKind::ChainReject, "br.extraction_rejects"),
        (EventKind::DceSync, "br.syncs"),
        (EventKind::DceFlush, "br.dce_flushes"),
        (EventKind::WpbMerge, "br.merge_points_found"),
        (EventKind::HbtInsert, "br.hbt_inserts"),
        (EventKind::HbtEvict, "br.hbt_evicts"),
        (EventKind::Recovery, "core.recoveries"),
    ] {
        assert_eq!(
            t.event_count(kind) as u64,
            t.counter(counter).expect("listed counter"),
            "{} events disagree with {counter}",
            kind.name()
        );
    }
    // The payloads carry the same totals: squash lengths sum to the
    // squashed uops, chain lengths to the installed chain lengths.
    assert!(t.counter("br.chains_extracted") > Some(0));
    let arg_sum = |kind| -> u64 {
        t.events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.arg)
            .sum()
    };
    assert_eq!(
        arg_sum(EventKind::Recovery),
        t.counter("core.squashed_uops").expect("listed counter")
    );
    assert_eq!(
        arg_sum(EventKind::ChainExtract),
        t.counter("br.chain_len_sum").expect("listed counter")
    );
    // Events arrive merged in nondecreasing cycle order.
    assert!(t.events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
}

#[test]
fn rejected_chains_keep_their_reason() {
    // A chain length cap tight enough that leela's chains get rejected,
    // each for being too long.
    let mut cfg = SimConfig::mini_br();
    cfg.runahead.as_mut().expect("BR enabled").max_chain_len = 4;
    let r = run_with_telemetry_on(cfg);
    let t = r.telemetry.as_ref().expect("telemetry enabled");
    assert_eq!(t.dropped_events, 0, "ring too small for this run");
    let rejects = t.counter("br.extraction_rejects").expect("listed counter");
    assert!(rejects > 0, "no extraction was rejected");
    assert_eq!(t.event_count(EventKind::ChainReject) as u64, rejects);
    for e in t.events.iter().filter(|e| e.kind == EventKind::ChainReject) {
        assert_eq!(e.arg, ExtractOutcome::TooLong as u64, "reject reason");
    }
}

#[test]
fn samples_are_monotonic_and_plausible() {
    let r = run_with_telemetry();
    let t = r.telemetry.as_ref().expect("telemetry enabled");
    assert!(
        t.samples.len() >= 5,
        "60k uops at 5k cadence: {}",
        t.samples.len()
    );
    for w in t.samples.windows(2) {
        assert!(w[0].cycle < w[1].cycle, "cycles must advance");
        assert!(
            w[0].retired_uops < w[1].retired_uops,
            "retired count must advance"
        );
    }
    for s in &t.samples {
        assert!(s.ipc > 0.0 && s.ipc <= 8.0, "implausible IPC {}", s.ipc);
        assert!(s.mpki >= 0.0, "negative MPKI");
        for rate in [
            s.l1_miss_rate,
            s.chain_cache_hit_rate,
            s.coverage_rate,
            s.late_rate,
            s.throttle_rate,
            s.correct_rate,
            s.incorrect_rate,
        ] {
            assert!((0.0..=1.0).contains(&rate), "rate out of range: {rate}");
        }
    }
}

#[test]
fn disabled_telemetry_changes_nothing() {
    let mut cfg = SimConfig::mini_br();
    cfg.max_retired = 30_000;
    let plain = System::new(cfg.clone(), &image()).run();
    assert!(plain.telemetry.is_none(), "off by default");

    cfg.telemetry = TelemetryConfig {
        enabled: true,
        sample_interval: 2_000,
    };
    let traced = System::new(cfg, &image()).run();
    // Observation must not perturb the simulation.
    assert_eq!(plain.core.cycles, traced.core.cycles);
    assert_eq!(plain.core.retired_uops, traced.core.retired_uops);
    assert_eq!(plain.core.mispredicts, traced.core.mispredicts);
    assert_eq!(
        plain.br.as_ref().map(|b| b.dce_uops),
        traced.br.as_ref().map(|b| b.dce_uops)
    );
}

/// Telemetry comes from the runs a figure prints: quick fig10 renders the
/// same text with it on, and returns one telemetry run per unique job,
/// across the baseline, 80 KB TAGE-SC-L, Core-Only, Mini and Big.
#[test]
fn fig10_telemetry_comes_from_the_figure_runs() {
    let plain = ExperimentSetup::quick();
    let mut traced = plain.clone();
    traced.telemetry.enabled = true;
    let off = experiments::run(&["fig10"], &plain).unwrap();
    let on = experiments::run(&["fig10"], &traced).unwrap();
    assert_eq!(on.outputs[0].1.text(), off.outputs[0].1.text());
    assert!(off.telemetry.is_empty(), "no telemetry unless enabled");
    assert_eq!((on.unique_jobs, on.telemetry.len()), (20, 20));
    for config in [
        "tage-sc-l-64kb/",
        "tage-sc-l-80kb/",
        "tage-sc-l-64kb+br-core-only/",
        "tage-sc-l-64kb+br-mini/",
        "tage-sc-l-64kb+br-big/",
    ] {
        let jobs = on.telemetry.iter().filter(|(l, _)| l.starts_with(config));
        assert_eq!(jobs.count(), plain.workloads.len(), "{config}");
    }
    for (label, run) in &on.telemetry {
        assert_eq!(
            run.counter("core.retired_uops"),
            Some(plain.max_retired),
            "{label}"
        );
    }
}
