//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures [--quick] [--json] [--threads N] [--retired N] [--regions K]
//!         [--workloads a,b,c] [--telemetry-out DIR] [--sample-interval N]
//!         [--faults SPEC [--soak N]] [<experiment>|all]
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use br_bench::EXPERIMENTS;
use br_sim::experiments::{self, ExperimentSetup};
use br_sim::{run_jobs, run_soak, FaultSpec, SimConfig, SimError, SimJob, TelemetryRun};
use br_telemetry::export;

fn usage() -> ExitCode {
    eprintln!(
        "usage: figures [--quick] [--json] [--threads N] [--retired N] [--regions K] [--workloads a,b,c] [--telemetry-out DIR] [--sample-interval N] [--faults SPEC [--soak N]] <experiment>|all\n\
         \x20 --threads N          run simulations on N worker threads (0 = one per CPU; default 1)\n\
         \x20 --telemetry-out DIR  also run the workloads with telemetry enabled and write\n\
         \x20                      trace.json/samples.jsonl/events.jsonl/counters.json to DIR\n\
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
    if targets.is_empty() && telemetry_out.is_none() && faults.is_none() {
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

/// Runs the setup's workloads under Mini Branch Runahead with telemetry
/// enabled and writes every exporter's output into `dir`:
/// `trace.json` (Chrome trace viewer), `samples.jsonl` (interval
/// samples), `events.jsonl` (the event ring), and
/// `counters.json` (each job's dropped-event count and final counter
/// values). Jobs execute on `setup.threads` workers; the files are
/// assembled from results in job order, so output is byte-identical for
/// any thread count. Returns the written paths.
///
/// # Errors
///
/// Propagates [`SimError`] from the runs; filesystem failures creating
/// `dir` or writing the files surface as [`SimError::Io`] naming the
/// path.
fn export_telemetry(setup: &ExperimentSetup, dir: &Path) -> Result<Vec<PathBuf>, SimError> {
    let io_err = |path: &Path, e: std::io::Error| SimError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    let mut setup = setup.clone();
    setup.telemetry.enabled = true;
    let jobs = mini_jobs(&setup);
    let results = run_jobs(&jobs, setup.threads)?;
    let runs: Vec<(String, TelemetryRun)> = jobs
        .iter()
        .zip(results)
        .filter_map(|(job, r)| r.telemetry.map(|t| (job.label(), t)))
        .collect();
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let files: [(&str, String); 4] = [
        ("trace.json", export::chrome_trace(&runs)),
        ("samples.jsonl", export::samples_jsonl(&runs)),
        ("events.jsonl", export::events_jsonl(&runs)),
        ("counters.json", export::counters_json(&runs)),
    ];
    let mut written = Vec::with_capacity(files.len());
    for (name, contents) in files {
        let path = dir.join(name);
        std::fs::write(&path, contents).map_err(|e| io_err(&path, e))?;
        written.push(path);
    }
    Ok(written)
}

/// The setup's jobs under Mini Branch Runahead, workload by workload.
fn mini_jobs(setup: &ExperimentSetup) -> Vec<SimJob> {
    let mini = SimConfig::mini_br();
    setup
        .workloads
        .iter()
        .flat_map(|w| setup.jobs(&mini, w))
        .collect()
}

fn main() -> ExitCode {
    let Some(args) = parse(std::env::args().skip(1)) else {
        return usage();
    };
    let setup = &args.setup;
    if !args.targets.is_empty() {
        // One campaign: every distinct simulation of every requested
        // experiment runs once, then each experiment renders from it.
        let started = std::time::Instant::now();
        let names: Vec<&str> = args.targets.iter().map(String::as_str).collect();
        let campaign = match experiments::run(&names, setup) {
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
    }
    if let Some(dir) = &args.telemetry_out {
        let started = std::time::Instant::now();
        match export_telemetry(setup, dir) {
            Ok(files) => files
                .iter()
                .for_each(|f| eprintln!("wrote {}", f.display())),
            Err(e) => {
                eprintln!("error: telemetry export failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("[telemetry: {:.1}s]", started.elapsed().as_secs_f64());
    }
    if let Some(spec) = args.faults {
        let started = std::time::Instant::now();
        // Each Mini Branch Runahead job runs once fault-free and
        // `soak_schedules` times under seeded fault schedules; see
        // `run_soak` for the pass criterion.
        let report = run_soak(&mini_jobs(setup), spec, args.soak_schedules, setup.threads);
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
}
