//! Telemetry overhead benches: the disabled-path cost (the facade must be
//! a no-op the optimizer removes) and the enabled-path cost of a full
//! simulation with sampling and event tracing on.
//!
//! Plain self-timing harness (`cargo bench -p br-bench`): each entry runs
//! a fixed iteration count and reports mean wall-clock per iteration.

use std::hint::black_box;
use std::time::Instant;

use br_sim::{SimConfig, System};
use br_telemetry::{EventKind, Telemetry, TelemetryConfig};
use br_workloads::{workload_by_name, WorkloadParams};

fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) -> f64 {
    black_box(f()); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = start.elapsed().as_secs_f64() * 1e6 / f64::from(iters);
    println!("{name:<36} {iters:>8} iters  {per_iter:>12.3} us/iter");
    per_iter
}

/// The disabled facade versus the enabled path on the one primitive, an
/// event push.
fn bench_facade() {
    let mut off = Telemetry::off();
    let mut i = 0u64;
    let disabled = bench("telemetry_off_event", 1_000_000, || {
        i = i.wrapping_add(1);
        off.event(i, EventKind::Recovery, i, 0);
        i
    });

    let mut on = Telemetry::on(65_536);
    let mut j = 0u64;
    bench("telemetry_on_event", 1_000_000, || {
        j = j.wrapping_add(1);
        on.event(j, EventKind::Recovery, j, 0);
        j
    });

    // The disabled path must stay in no-op territory. 50 ns for one call
    // is already hundreds of times a branch-on-None; this is a tripwire for
    // accidentally de-inlining the facade, not a precise budget.
    assert!(
        disabled < 0.05,
        "disabled telemetry path costs {disabled:.4} us per event; expected a no-op"
    );
}

/// Full-system cost: the same scaled-down run with telemetry off and on.
fn bench_system() {
    let image = workload_by_name("leela_17")
        .unwrap()
        .build(&WorkloadParams {
            scale: 512,
            iterations: 1_000_000,
            seed: 17,
        });
    let run = |name: &str, telemetry: TelemetryConfig| {
        bench(name, 10, || {
            let mut cfg = SimConfig::mini_br();
            cfg.max_retired = 20_000;
            cfg.telemetry = telemetry;
            System::new(cfg, &image).run().core.cycles
        })
    };
    let off = run("system_run_telemetry_off", TelemetryConfig::default());
    let on = run(
        "system_run_telemetry_on",
        TelemetryConfig {
            enabled: true,
            sample_interval: 1_000,
            event_capacity: 65_536,
        },
    );
    println!(
        "telemetry overhead: {:+.2}% on a 20k-uop mini-BR run",
        (on / off - 1.0) * 100.0
    );
}

fn main() {
    bench_facade();
    bench_system();
}
