//! `lv-benchmark`: end-to-end and per-layer benchmark of the LiteView
//! reproduction — the simulated network, the workstation's commands and
//! the lv-serve daemon — driven only through their public APIs.
//!
//! ```text
//! lv-benchmark [--seed N] [--seconds S] [--out PATH]
//!     every workload, 5 rounds, each sample in a fresh child process;
//!     prints median, IQR and sample count of every end-to-end metric
//!     and writes the samples to PATH (target/lv-benchmark/results.json)
//! lv-benchmark --traced [--seed N] [--seconds S]
//!     one traced run per workload: every per-layer metric, and a Chrome
//!     trace per workload in target/lv-benchmark/trace-<workload>.json
//! lv-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run of one workload; the last line of stdout is its JSON result.
//!     An untraced run is five samples of S/5 seconds, each in a fresh
//!     child process on seed 1000·N + j (j = 0..4), and reports the
//!     median of each metric
//! lv-benchmark --sample W --seed N --seconds S --trace 0|1
//!     one sample of one workload in this process
//! lv-benchmark --compare A.json B.json
//!     better / same / worse / unresolved per (metric, workload)
//! ```
//!
//! Exit status: 0 when every check passed, 1 when a correctness check
//! failed (or `--compare` found a regression), 2 on a usage error.

mod host;
mod layers;
mod registry;
mod serve;
mod stats;
mod suite;
mod trace;
mod workloads;

use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use workloads::{RunConfig, Scale, Workload};

/// Where runs write their summaries and traces, relative to the
/// directory the benchmark runs in.
const OUT_DIR: &str = "target/lv-benchmark";

const USAGE: &str = "\
usage: lv-benchmark [--seed N] [--seconds S] [--out PATH]
       lv-benchmark --traced [--seed N] [--seconds S]
       lv-benchmark --workload NAME --seed N --seconds S --trace 0|1
       lv-benchmark --sample NAME --seed N --seconds S --trace 0|1
       lv-benchmark --compare A.json B.json";

#[derive(Debug, PartialEq)]
enum Mode {
    Suite { out: String },
    Traced,
    Run { workload: Workload, traced: bool },
    Sample { workload: Workload, traced: bool },
    Compare { a: String, b: String },
}

#[derive(Debug, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

/// Suite runs measure this long per sample unless `--seconds` says
/// otherwise: five rounds of four workloads then take about two minutes.
const SUITE_SECONDS: f64 = 4.0;

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut seed = 42u64;
    let mut seconds = None;
    let mut out = format!("{OUT_DIR}/results.json");
    let mut workload = None;
    let mut sample = false;
    let mut trace = None;
    let mut traced = false;
    let mut compare = None;
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                seed = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=3600"));
                }
                seconds = Some(s);
            }
            "--out" => out = value(&mut it, arg)?,
            "--workload" | "--sample" => {
                if workload.is_some() {
                    return Err("give one of --workload and --sample, once".into());
                }
                sample = arg == "--sample";
                let name = value(&mut it, arg)?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--trace" => {
                trace = Some(match value(&mut it, arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--traced" => traced = true,
            "--compare" => compare = Some((value(&mut it, arg)?, value(&mut it, arg)?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let mode = match (workload, compare, traced) {
        (Some(workload), None, false) if sample => Mode::Sample {
            workload,
            traced: trace.unwrap_or(false),
        },
        (Some(workload), None, false) => Mode::Run {
            workload,
            traced: trace.unwrap_or(false),
        },
        (None, Some((a, b)), false) => Mode::Compare { a, b },
        (None, None, true) => Mode::Traced,
        (None, None, false) => Mode::Suite { out },
        _ => return Err("--workload, --sample, --traced and --compare exclude each other".into()),
    };
    let seconds = seconds.unwrap_or(match mode {
        Mode::Run { .. } => registry::registry().run_seconds as f64,
        _ => SUITE_SECONDS,
    });
    Ok(Args {
        mode,
        seed,
        seconds,
    })
}

/// Check a run's metrics against the registry: exactly the names it
/// lists for this mode, each a finite number.
fn registry_problems(traced: bool, metrics: &BTreeMap<String, f64>) -> Vec<String> {
    let reg = registry::registry();
    let wanted = reg.metrics(traced);
    let mut problems = Vec::new();
    for spec in wanted {
        match metrics.get(&spec.name) {
            None => problems.push(format!("metric {} was not measured", spec.name)),
            Some(v) if !v.is_finite() => problems.push(format!("metric {} is {v}", spec.name)),
            Some(_) => {}
        }
    }
    for name in metrics.keys() {
        if !wanted.iter().any(|s| s.name == *name) {
            problems.push(format!("metric {name} is not in BENCHMARK.json"));
        }
    }
    problems
}

/// The one-line JSON result of a run, keys in the order the contract
/// names them; units come from the registry.
pub(crate) fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<String, f64>,
    traced: bool,
) -> String {
    let reg = registry::registry();
    let metrics = reg
        .metrics(traced)
        .iter()
        .filter_map(|spec| {
            let v = *metrics.get(&spec.name)?;
            Some((
                spec.name.clone(),
                Value::Map(vec![
                    ("value".into(), Value::F64(v)),
                    ("unit".into(), Value::Str(spec.unit.clone())),
                ]),
            ))
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted.max(1))),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).unwrap_or_else(|_| String::from("{}"))
}

/// One sample in this process: measure, check, print diagnostics to
/// stderr and the result as the last line of stdout. Traced samples
/// also write their spans.
fn sample(workload: Workload, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        traced,
        scale: Scale::FULL,
    };
    let mut out = workloads::run(&cfg);
    // A run that broke before it measured has already said why; a list
    // of every metric it then lacks would only bury that.
    if !out.metrics.is_empty() || out.problems.is_empty() {
        out.problems.extend(registry_problems(traced, &out.metrics));
    }
    if traced {
        let path = format!("{OUT_DIR}/trace-{}.json", workload.name());
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, out.tracer.to_chrome_json(workload.name())));
        match written {
            Ok(()) => eprintln!("trace: {path} ({} spans)", out.tracer.span_count()),
            Err(e) => out.problems.push(format!("writing {path}: {e}")),
        }
    }
    for (name, v) in &out.notes {
        eprintln!("note: {name} = {v}");
    }
    for p in &out.problems {
        eprintln!("problem: {p}");
    }
    if let Some(d) = &out.digest {
        println!("digest {d}");
    }
    println!(
        "{}",
        result_line(
            out.correct(),
            out.attempted,
            out.failed,
            &out.metrics,
            traced
        )
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lv-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::Sample { workload, traced }
        | Mode::Run {
            workload,
            traced: traced @ true,
        } => sample(workload, args.seed, args.seconds, traced),
        Mode::Run { workload, .. } => suite::run_workload(workload, args.seed, args.seconds),
        Mode::Suite { out } => suite::run(args.seed, args.seconds, Path::new(&out)),
        Mode::Traced => suite::traced(args.seed, args.seconds),
        Mode::Compare { a, b } => suite::compare(Path::new(&a), Path::new(&b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        let v: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
        parse_args(&v)
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a = args("--workload serve-loopback --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            a.mode,
            Mode::Run {
                workload: Workload::Serve,
                traced: true
            }
        );
        assert_eq!(
            args("--sample corridor-commands").unwrap().mode,
            Mode::Sample {
                workload: Workload::Corridor,
                traced: false
            }
        );
        assert!(args("--sample corridor-commands --workload serve-loopback").is_err());
        assert_eq!((a.seed, a.seconds), (7, 12.0));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload grid1000-steady --trace 2").is_err());
        assert!(args("--traced --compare a b").is_err());
        assert!(args("--bogus").is_err());
        assert_eq!(
            args("").unwrap().mode,
            Mode::Suite {
                out: format!("{OUT_DIR}/results.json")
            }
        );
    }

    /// Every workload at smoke scale, untraced and traced: each emits
    /// exactly the registry's metrics as finite numbers, passes its
    /// checks, and reproduces its pinned digest.
    #[test]
    fn smoke_every_workload_emits_every_metric() {
        for workload in Workload::ALL {
            for traced in [false, true] {
                let cfg = RunConfig {
                    workload,
                    seed: 42,
                    seconds: if workload == Workload::Serve {
                        1.0
                    } else {
                        0.0
                    },
                    traced,
                    scale: Scale::SMOKE,
                };
                let out = workloads::run(&cfg);
                let name = workload.name();
                assert!(out.correct(), "{name} traced={traced}: {:?}", out.problems);
                assert!(out.attempted > 0, "{name}: nothing attempted");
                let missing = registry_problems(traced, &out.metrics);
                assert!(missing.is_empty(), "{name} traced={traced}: {missing:?}");
                if workload != Workload::Serve {
                    let pin = registry::pinned_digest("smoke", 42, name);
                    assert_eq!(out.digest, pin, "{name} traced={traced}: digest vs pin");
                }
                let line = result_line(true, out.attempted, 0, &out.metrics, traced);
                let v: Value = serde_json::from_str(&line).expect("result line is JSON");
                assert_eq!(v.map_get("correct"), Some(&Value::Bool(true)));
            }
        }
    }
}
