//! Workload timeline: run one kernel under Mini Branch Runahead with
//! telemetry enabled and print the time-resolved view the end-of-run
//! totals flatten away — IPC, MPKI, and DCE coverage per sampling
//! interval, plus the event-trace summary.
//!
//! ```text
//! cargo run --release --example workload_timeline [workload] [sample_interval]
//! ```

use branch_runahead::sim::{SimConfig, System};
use branch_runahead::telemetry::{EventKind, TelemetryConfig};
use branch_runahead::workloads::{workload_by_name, WorkloadParams};

/// One-character bar for a value scaled against `max`.
fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    let mut s = "#".repeat(filled.min(width));
    s.push_str(&" ".repeat(width - filled.min(width)));
    s
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "leela_17".into());
    let interval: u64 = std::env::args()
        .nth(2)
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let Some(w) = workload_by_name(&name) else {
        eprintln!("unknown workload {name:?}");
        std::process::exit(1);
    };
    println!("workload: {} — {}", w.name(), w.description());

    let image = w.build(&WorkloadParams::default());
    let mut cfg = SimConfig::mini_br();
    cfg.max_retired = 300_000;
    cfg.telemetry = TelemetryConfig {
        enabled: true,
        sample_interval: interval,
    };
    let mut result = System::new(cfg, &image).run();
    let run = result.telemetry.take().expect("telemetry was enabled");

    println!(
        "\n{} samples every {} retired uops; overall IPC {:.3}, MPKI {:.2}\n",
        run.samples.len(),
        interval,
        result.ipc(),
        result.mpki()
    );
    let max_mpki = run
        .samples
        .iter()
        .map(|s| s.mpki)
        .fold(f64::EPSILON, f64::max);
    println!(
        "{:>12} {:>8} {:>22} {:>8} {:>8} {:>6}",
        "cycle", "ipc", "mpki", "coverage", "late", "dce"
    );
    for s in &run.samples {
        println!(
            "{:>12} {:>8.3} |{}| {:>5.2} {:>7.1}% {:>7.1}% {:>6}",
            s.cycle,
            s.ipc,
            bar(s.mpki, max_mpki, 14),
            s.mpki,
            s.coverage_rate * 100.0,
            s.late_rate * 100.0,
            s.dce_active
        );
    }

    println!(
        "\nevents ({} traced, {} dropped):",
        run.events.len(),
        run.dropped_events
    );
    for kind in EventKind::ALL {
        let n = run.event_count(kind);
        if n > 0 {
            println!("  {:<14} {n}", kind.name());
        }
    }
    println!("\nfinal counters:");
    for (name, v) in &run.counters {
        println!("  {name:<24} {v}");
    }
}
