//! The repository benchmark: runs one workload of the Branch Runahead
//! simulator for a fixed time, checks its outputs, prints every metric by
//! name with its unit, and ends with one JSON result line.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload h2p-br --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of untraced passes.
//! `--trace 1` alternates untraced and traced passes and reports the
//! per-layer metrics. `--print-figures` prints the `figures-quick` sweep
//! for `--seed` instead, and `--print-signatures` the simulated signatures
//! of the workload's jobs; that is how the goldens under `golden/` are made.
//! See `README.md` for the workloads and metrics.

mod metrics;
mod run;
mod trace;
mod workload;

use std::process::ExitCode;

use workload::Workload;

const USAGE: &str = "usage: br-benchmark --workload <h2p-br|baseline|figures-quick> \
--seed <n> --seconds <n> --trace <0|1> [--print-figures | --print-signatures]";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_figures: bool,
    print_signatures: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut print_figures, mut print_signatures) = (false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--print-figures" {
            print_figures = true;
            continue;
        }
        if flag == "--print-signatures" {
            print_signatures = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0);
                seconds = Some(s.ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(0.0),
        trace: trace.unwrap_or(false),
        print_figures,
        print_signatures,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_figures || args.print_signatures {
        let printed = if args.print_figures {
            run::render_sweep(&Workload::FiguresQuick.setup(args.seed))
        } else {
            run::signature_lines(args.workload, args.seed)
        };
        return match printed {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut run = run::run(args.workload, args.seed, args.seconds, args.trace);
    let metrics = if args.trace {
        metrics::per_layer(&run)
    } else {
        metrics::end_to_end(&run)
    };
    let not_finite: Vec<String> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("{} is {}", m.name, m.value))
        .collect();
    run.checks.unit("metrics", &not_finite);

    println!(
        "workload {} seed {} trace {}: {} passes",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        run.passes.len()
    );
    for m in &metrics {
        println!("  {:<42} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let (attempted, failed) = (run.checks.attempted, run.checks.failed);
    println!(
        "  {:<42} {:>16.6} ratio ({failed} of {attempted} checked jobs and experiments)",
        "failed_share",
        failed as f64 / attempted.max(1) as f64
    );
    let finite: Vec<metrics::Metric> = metrics
        .into_iter()
        .filter(|m| m.value.is_finite())
        .collect();
    println!("{}", metrics::result_json(attempted, failed, &finite));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
