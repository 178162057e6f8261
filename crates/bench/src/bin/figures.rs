//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures [--quick] [--json] [--threads N] [--retired N] [--regions K]
//!         [--workloads a,b,c] [--telemetry-out DIR] [--sample-interval N]
//!         [--faults NAME [--soak N]] [<experiment>|all]
//! ```
//!
//! `--telemetry-out` records telemetry on the jobs the named experiments
//! run, so it needs one; `--faults` alone runs only the soak.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use br_bench::EXPERIMENTS;
use br_sim::experiments::{self, ExperimentSetup};
use br_sim::{run_soak, FaultSpec, SimConfig, SimError, TelemetryRun};
use br_telemetry::export;

fn usage() -> ExitCode {
    eprintln!(
        "usage: figures [--quick] [--json] [--threads N] [--retired N] [--regions K] [--workloads a,b,c] [--telemetry-out DIR] [--sample-interval N] [--faults NAME [--soak N]] <experiment>|all\n\
         \x20 --threads N          run simulations on N worker threads (0 = one per CPU; default 1)\n\
         \x20 --telemetry-out DIR  record telemetry on every job the experiments run and write\n\
         \x20                      trace.json/samples.jsonl/events.jsonl/counters.json to DIR\n\
         \x20 --sample-interval N  telemetry sample cadence in retired uops (default 10000)\n\
         \x20 --faults NAME        run the fault-injection soak under the \"default\" schedule,\n\
         \x20                      or \"sabotage\" (corrupts state, so machine checks must fail);\n\
         \x20                      prints a JSON report, exits nonzero on failure\n\
         \x20 --soak N             fault schedules per job in the soak (default 4)\n\
         experiments: {}",
        EXPERIMENTS.join(", ")
    );
    ExitCode::FAILURE
}

/// The parsed command line.
struct Args {
    setup: ExperimentSetup,
    targets: Vec<String>,
    json: bool,
    telemetry_out: Option<PathBuf>,
    faults: Option<FaultSpec>,
    soak_schedules: u32,
}

/// Parses the command line; `None` means "print usage". `--quick` picks
/// the base setup, and the other setup flags apply on top of it in the
/// order given, wherever `--quick` stands.
fn parse(mut args: impl Iterator<Item = String>) -> Option<Args> {
    let (mut quick, mut edits) = (false, Vec::new());
    let (mut targets, mut json, mut telemetry_out, mut faults) = (Vec::new(), false, None, None);
    let mut soak_schedules = 4;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            "--threads" | "--retired" | "--regions" | "--workloads" | "--sample-interval" => {
                edits.push((a, args.next()?));
            }
            "--telemetry-out" => telemetry_out = Some(args.next()?.into()),
            "--faults" => match FaultSpec::parse(&args.next()?) {
                Ok(s) => faults = Some(s),
                Err(e) => {
                    eprintln!("error: {e}");
                    return None;
                }
            },
            "--soak" => soak_schedules = args.next()?.parse().ok()?,
            "--help" | "-h" => return None,
            name => targets.push(name.to_string()),
        }
    }
    let mut setup = if quick {
        ExperimentSetup::quick()
    } else {
        ExperimentSetup::default()
    };
    for (flag, value) in edits {
        match flag.as_str() {
            "--threads" => setup.threads = value.parse().ok()?,
            "--retired" => setup.max_retired = value.parse().ok()?,
            // Paper-style 1..=5 regions with decaying weights.
            "--regions" => setup = setup.with_regions(value.parse().ok()?),
            "--workloads" => setup.workloads = value.split(',').map(str::to_string).collect(),
            _ => setup.telemetry.sample_interval = value.parse().ok()?,
        }
    }
    if targets.is_empty() && (faults.is_none() || telemetry_out.is_some()) {
        return None;
    }
    if targets.iter().any(|t| t == "all") {
        targets = EXPERIMENTS.iter().map(|s| (*s).to_string()).collect();
    }
    Some(Args {
        setup,
        targets,
        json,
        telemetry_out,
        faults,
        soak_schedules,
    })
}

/// Writes a campaign's telemetry into `dir`, one file at a time:
/// `trace.json` (Chrome trace viewer), `samples.jsonl` (interval
/// samples), `events.jsonl` (the event ring) and `counters.json` (each
/// job's dropped-event count and final counter values). The runs come in
/// plan order, so the files are byte-identical for any thread count.
fn write_telemetry(runs: &[(String, TelemetryRun)], dir: &Path) -> Result<(), SimError> {
    let io_err = |path: &Path, e: std::io::Error| SimError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    for (name, render) in [
        ("trace.json", export::chrome_trace as fn(&_) -> String),
        ("samples.jsonl", export::samples_jsonl),
        ("events.jsonl", export::events_jsonl),
        ("counters.json", export::counters_json),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, render(runs)).map_err(|e| io_err(&path, e))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let Some(args) = parse(std::env::args().skip(1)) else {
        return usage();
    };
    let setup = &args.setup;
    if !args.targets.is_empty() {
        // One campaign: every distinct simulation runs once, and each
        // experiment and the telemetry are taken from those runs.
        let started = std::time::Instant::now();
        let names: Vec<&str> = args.targets.iter().map(String::as_str).collect();
        let mut traced = setup.clone();
        traced.telemetry.enabled = args.telemetry_out.is_some();
        let campaign = match experiments::run(&names, &traced) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        };
        for (name, output) in &campaign.outputs {
            if args.json {
                println!("{}", output.to_json(name));
            } else {
                println!("=== {name} ===\n{}", output.text());
            }
        }
        eprintln!(
            "[{} jobs ({} unique): {:.1}s]",
            campaign.jobs,
            campaign.unique_jobs,
            started.elapsed().as_secs_f64()
        );
        if let Some(dir) = &args.telemetry_out {
            if let Err(e) = write_telemetry(&campaign.telemetry, dir) {
                eprintln!("error: telemetry export failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(spec) = args.faults {
        let started = std::time::Instant::now();
        // Each Mini Branch Runahead job runs once fault-free and
        // `soak_schedules` times under seeded fault schedules; see
        // `run_soak` for the pass criterion.
        let mut jobs = Vec::new();
        for w in &setup.workloads {
            jobs.extend(setup.jobs(&SimConfig::mini_br(), w));
        }
        let report = run_soak(&jobs, spec, args.soak_schedules, setup.threads);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> ExperimentSetup {
        parse(line.split_whitespace().map(str::to_string))
            .expect("parses")
            .setup
    }

    #[test]
    fn setup_flags_survive_quick_in_either_order() {
        let flags = "--workloads leela_17 --retired 5000 --regions 2 --sample-interval 7";
        for line in [
            format!("{flags} --quick fig2"),
            format!("--quick {flags} fig2"),
        ] {
            let setup = parse_line(&line);
            assert_eq!(setup.params, ExperimentSetup::quick().params, "{line}");
            assert_eq!(setup.workloads, ["leela_17"], "{line}");
            assert_eq!(setup.max_retired, 5000, "{line}");
            assert_eq!(setup.regions.len(), 2, "{line}");
            assert_eq!(setup.telemetry.sample_interval, 7, "{line}");
        }
        assert_eq!(parse_line("--threads 3 fig2").threads, 3);
        assert_eq!(parse_line("fig2").params, ExperimentSetup::default().params);
    }

    /// Telemetry is taken from the experiments' runs, so it needs one;
    /// the soak alone needs none.
    #[test]
    fn telemetry_out_needs_an_experiment() {
        let parses = |line: &str| parse(line.split_whitespace().map(str::to_string)).is_some();
        assert!(!parses("--quick --telemetry-out d"));
        assert!(!parses("--quick --telemetry-out d --faults default"));
        assert!(parses("--quick --telemetry-out d fig2"));
        assert!(parses("--quick --faults default"));
    }
}
