//! Self-tests of the benchmark: the timing adapters change nothing, every
//! metric name is well formed and listed in `BENCHMARK.json`, and the
//! result line is valid JSON.

use std::collections::BTreeSet;

use br_bench::EXPERIMENTS;
use br_core::PredictionCategory;
use br_sim::experiments::ExperimentSetup;

use crate::metrics::{end_to_end, per_layer, result_json, Metric};
use crate::run::{recorded_signatures, run_setup, Golden, Run};
use crate::trace::run_traced;
use crate::workload::{Workload, GOLDEN_VARIANTS, HELD_OUT_SEED};
use crate::{parse_args, Args};

/// Seeds 0 to this one, and the held-out seed, have their jobs' simulated
/// signatures recorded under `golden/`.
const LAST_RECORDED_SEED: u64 = 31;

/// `h2p-br` on one kernel at a tiny budget.
fn tiny_setup() -> ExperimentSetup {
    let mut setup = Workload::H2pBr.setup(7);
    setup.workloads = vec!["mcf_06".into()];
    setup.max_retired = 3_000;
    setup
}

fn tiny_run(trace: bool) -> Run {
    run_setup(Workload::H2pBr, &tiny_setup(), None, &[], 0.0, trace)
}

#[test]
fn adapters_are_transparent() {
    let setup = tiny_setup();
    for (config, job) in Workload::H2pBr.jobs(&setup) {
        let image = job.build_image().unwrap();
        let want = job.try_execute(&image).unwrap();
        let got = run_traced(&job, &image).result;
        let label = config.label();
        assert_eq!(got.core.cycles, want.core.cycles, "{label}");
        assert_eq!(got.core.retired_uops, want.core.retired_uops, "{label}");
        assert_eq!(got.core.mispredicts, want.core.mispredicts, "{label}");
        assert_eq!(got.core.fetched_uops, want.core.fetched_uops, "{label}");
        assert_eq!(
            got.core.retire_fingerprint, want.core.retire_fingerprint,
            "{label}"
        );
        assert_eq!(got.mem.core_requests, want.mem.core_requests, "{label}");
        assert_eq!(got.mem.dce_requests, want.mem.dce_requests, "{label}");
        assert_eq!(got.mem.l1.misses, want.mem.l1.misses, "{label}");
        assert_eq!(got.br.is_some(), want.br.is_some(), "{label}");
        if let (Some(g), Some(w)) = (&got.br, &want.br) {
            assert_eq!(g.dce_uops, w.dce_uops, "{label}");
            assert_eq!(g.instances_initiated, w.instances_initiated, "{label}");
            for c in PredictionCategory::ALL {
                assert_eq!(
                    g.prediction_breakdown.get(&c),
                    w.prediction_breakdown.get(&c),
                    "{label} {c:?}"
                );
            }
        }
    }
}

#[test]
fn traced_run_passes_its_checks() {
    let run = tiny_run(true);
    assert_eq!(run.passes.len(), 2, "one untraced and one traced pass");
    assert!(run.passes[1].traced);
    assert_eq!(run.checks.failed, 0);
    assert_eq!(
        run.checks.attempted, 16,
        "4 configs on 2 regions in each of 2 passes"
    );
}

fn valid_name(name: &str) -> bool {
    let starts_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_names_and_units_are_valid_and_unique() {
    for metrics in [end_to_end(&tiny_run(false)), per_layer(&tiny_run(true))] {
        let mut seen = BTreeSet::new();
        for m in &metrics {
            assert!(valid_name(&m.name), "bad name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} of {}", m.unit, m.name);
            assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        assert!(metrics.len() <= 128);
    }
}

/// The names `BENCHMARK.json` lists under `key`.
fn listed_names(key: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let Json::Arr(entries) = parse_json(&text).unwrap().get(key).unwrap().clone() else {
        panic!("{key} is not a list");
    };
    entries
        .iter()
        .map(|e| match e.get("name") {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("entry without a name: {other:?}"),
        })
        .collect()
}

fn names(metrics: &[Metric]) -> BTreeSet<String> {
    metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn result_line_parses_and_lists_every_metric() {
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let run = tiny_run(trace);
        let metrics = if trace {
            per_layer(&run)
        } else {
            end_to_end(&run)
        };
        assert_eq!(names(&metrics), listed_names(key), "{key}");
        let line = result_json(run.checks.attempted, run.checks.failed, &metrics);
        let parsed = parse_json(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("failed"), Some(&Json::Num(0.0)));
        let Some(Json::Obj(body)) = parsed.get("metrics") else {
            panic!("no metrics object: {line}");
        };
        assert_eq!(body.len(), metrics.len());
        for (m, (name, entry)) in metrics.iter().zip(body) {
            assert_eq!(*name, m.name);
            assert_eq!(entry.get("value"), Some(&Json::Num(m.value)));
            assert_eq!(entry.get("unit"), Some(&Json::Str(m.unit.to_string())));
        }
    }
}

#[test]
fn documented_seeds_have_recorded_signatures() {
    for workload in Workload::ALL {
        for seed in (0..=LAST_RECORDED_SEED).chain([HELD_OUT_SEED]) {
            let recorded = recorded_signatures(workload, seed).unwrap();
            assert!(!recorded.is_empty(), "{} seed {seed}", workload.name());
        }
    }
}

#[test]
fn held_out_seed_shares_no_input() {
    for workload in Workload::ALL {
        let held_out = workload.input(HELD_OUT_SEED);
        assert!((0..=LAST_RECORDED_SEED).all(|s| workload.input(s) != held_out));
    }
}

#[test]
fn every_golden_holds_every_experiment_on_every_kernel() {
    let kernels = Workload::FiguresQuick.setup(0).workloads.len();
    for variant in (0..GOLDEN_VARIANTS).chain([HELD_OUT_SEED]) {
        let text = std::fs::read_to_string(Golden::path(variant)).unwrap();
        let golden = Golden::parse(&text);
        let names = EXPERIMENTS.iter().cycle().take(kernels * EXPERIMENTS.len());
        for (i, name) in names.enumerate() {
            let header = format!("=== {name} ===\n");
            assert!(
                golden.section(i).is_some_and(|s| s.starts_with(&header)),
                "golden v{variant} section {i} is not {name}"
            );
        }
        assert!(golden.section(kernels * EXPERIMENTS.len()).is_none());
    }
}

#[test]
fn command_line() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    assert_eq!(
        parse_args(&argv(
            "--workload baseline --seed 4 --seconds 2.5 --trace 1"
        )),
        Ok(Args {
            workload: Workload::Baseline,
            seed: 4,
            seconds: 2.5,
            trace: true,
            print_figures: false,
            print_signatures: false,
        })
    );
    for bad in [
        "--workload nope --seed 1",
        "--workload baseline",
        "--workload baseline --seed 1 --trace 2",
        "--workload baseline --seed 1 --seconds -1",
        "--workload baseline --seed 1 --bogus 3",
        "--workload baseline --seed",
    ] {
        assert!(parse_args(&argv(bad)).is_err(), "{bad}");
    }
}

/// A JSON value, for checking the result line.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parses one JSON document (RFC 8259), rejecting trailing input.
fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = JsonParser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i == p.s.len() {
        Ok(v)
    } else {
        Err(format!("trailing input at byte {}", p.i))
    }
}

struct JsonParser<'a> {
    s: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn ws(&mut self) {
        while matches!(self.s.get(self.i), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let Json::Str(key) = self.value()? else {
                        return Err(format!("object key must be a string at byte {}", self.i));
                    };
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s.get(self.i) {
                        None => return Err("unterminated string".into()),
                        Some(b'"') => {
                            self.i += 1;
                            return Ok(Json::Str(out));
                        }
                        Some(b'\\') => {
                            let esc = self.s.get(self.i + 1).ok_or("bad escape")?;
                            out.push(match esc {
                                b'"' => '"',
                                b'\\' => '\\',
                                b'/' => '/',
                                b'n' => '\n',
                                b't' => '\t',
                                _ => return Err(format!("unsupported escape at byte {}", self.i)),
                            });
                            self.i += 2;
                        }
                        Some(c) if *c < 0x20 => return Err("control character in string".into()),
                        Some(_) => {
                            let rest = std::str::from_utf8(&self.s[self.i..])
                                .map_err(|e| e.to_string())?;
                            let ch = rest.chars().next().ok_or("empty")?;
                            out.push(ch);
                            self.i += ch.len_utf8();
                        }
                    }
                }
            }
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while matches!(
                    self.s.get(self.i),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.i += 1;
                }
                let token =
                    std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                let digits = token.trim_start_matches('-');
                let well_formed = digits.starts_with(|c: char| c.is_ascii_digit())
                    && !(digits.len() > 1
                        && digits.starts_with('0')
                        && !digits[1..].starts_with(['.', 'e', 'E']));
                match token.parse::<f64>() {
                    Ok(v) if well_formed => Ok(Json::Num(v)),
                    _ => Err(format!("bad number {token:?} at byte {start}")),
                }
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

#[test]
fn json_parser_rejects_what_json_rejects() {
    for bad in [
        "NaN",
        "{\"a\": inf}",
        "[1,]",
        "{\"a\" 1}",
        "01",
        "\"x",
        "{} {}",
    ] {
        assert!(parse_json(bad).is_err(), "{bad}");
    }
    assert_eq!(
        parse_json("{\"a\": [1.5, -2e3, true, null, \"s\"]}"),
        Ok(Json::Obj(vec![(
            "a".into(),
            Json::Arr(vec![
                Json::Num(1.5),
                Json::Num(-2000.0),
                Json::Bool(true),
                Json::Null,
                Json::Str("s".into())
            ])
        )]))
    );
}
