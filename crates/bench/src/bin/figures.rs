//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures [--quick] [--json] [--threads N] [--retired N] [--regions K]
//!         [--workloads a,b,c] [--telemetry-out DIR] [--sample-interval N]
//!         [--faults SPEC [--soak N]] [<experiment>|all]
//! ```

use std::process::ExitCode;

use br_bench::{
    export_telemetry, run_experiment, run_experiment_json, run_faults_soak, EXPERIMENTS,
};
use br_sim::experiments::ExperimentSetup;
use br_sim::FaultSpec;

fn usage() -> ExitCode {
    eprintln!(
        "usage: figures [--quick] [--json] [--threads N] [--retired N] [--regions K] [--workloads a,b,c] [--telemetry-out DIR] [--sample-interval N] [--faults SPEC [--soak N]] <experiment>|all\n\
         \x20 --threads N          run simulations on N worker threads (0 = one per CPU; default 1)\n\
         \x20 --telemetry-out DIR  also run the workloads with telemetry enabled and write\n\
         \x20                      trace.json/samples.{{jsonl,csv}}/events.jsonl/counters.json to DIR\n\
         \x20 --sample-interval N  telemetry sample cadence in retired uops (default 10000)\n\
         \x20 --faults SPEC        run the fault-injection soak: \"default\" or key=value list\n\
         \x20                      (flip/drop/evict/decay/delaymem=<prob>, delay/period/seed=<int>,\n\
         \x20                      sabotage=0|1); prints a JSON report, exits nonzero on failure\n\
         \x20 --soak N             fault schedules per job in the soak (default 4)\n\
         experiments: {}",
        EXPERIMENTS.join(", ")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut setup = ExperimentSetup::default();
    let mut targets: Vec<String> = Vec::new();
    let mut json = false;
    let mut threads = setup.threads;
    let mut telemetry_out: Option<std::path::PathBuf> = None;
    let mut faults: Option<FaultSpec> = None;
    let mut soak_schedules: u32 = 4;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => setup = ExperimentSetup::quick(),
            "--json" => json = true,
            "--threads" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                threads = n;
            }
            "--retired" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                setup.max_retired = n;
            }
            "--regions" => {
                let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    return usage();
                };
                // Paper-style 1..=5 regions with decaying weights.
                setup = setup.with_regions(n);
            }
            "--workloads" => {
                let Some(list) = args.next() else {
                    return usage();
                };
                setup.workloads = list.split(',').map(str::to_string).collect();
            }
            "--telemetry-out" => {
                let Some(dir) = args.next() else {
                    return usage();
                };
                telemetry_out = Some(dir.into());
            }
            "--sample-interval" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                setup.telemetry.sample_interval = n;
            }
            "--faults" => {
                let Some(spec) = args.next() else {
                    return usage();
                };
                match FaultSpec::parse(&spec) {
                    Ok(s) => faults = Some(s),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return usage();
                    }
                }
            }
            "--soak" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                soak_schedules = n;
            }
            "--help" | "-h" => return usage(),
            name => targets.push(name.to_string()),
        }
    }
    setup.threads = threads;
    if targets.is_empty() && telemetry_out.is_none() && faults.is_none() {
        return usage();
    }
    if targets.iter().any(|t| t == "all") {
        targets = EXPERIMENTS.iter().map(|s| (*s).to_string()).collect();
    }
    for t in &targets {
        if !EXPERIMENTS.contains(&t.as_str()) {
            eprintln!("unknown experiment {t:?}");
            return usage();
        }
    }
    for t in targets {
        let started = std::time::Instant::now();
        let rendered = if json {
            run_experiment_json(&t, &setup)
        } else {
            run_experiment(&t, &setup).map(|out| format!("=== {t} ===\n{out}"))
        };
        match rendered {
            Ok(out) => println!("{out}"),
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        }
        eprintln!("[{t}: {:.1}s]", started.elapsed().as_secs_f64());
    }
    if let Some(dir) = telemetry_out {
        let started = std::time::Instant::now();
        match export_telemetry(&setup, &dir) {
            Ok(files) => {
                for f in files {
                    eprintln!("wrote {}", f.display());
                }
            }
            Err(e) => {
                eprintln!("error: telemetry export failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("[telemetry: {:.1}s]", started.elapsed().as_secs_f64());
    }
    if let Some(spec) = faults {
        let started = std::time::Instant::now();
        let report = run_faults_soak(&setup, spec, soak_schedules);
        // The JSON report is the machine-readable contract (see
        // tools/check_soak.py); human-readable failure lines go to stderr.
        println!("{}", report.to_json());
        for f in &report.failures {
            eprintln!("soak failure: {}", f.error);
        }
        eprintln!(
            "[soak: {} runs, {} failures, {:.1}s]",
            report.runs.len(),
            report.failures.len(),
            started.elapsed().as_secs_f64()
        );
        if !report.passed() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
