//! The round-robin sampler, the traced pass and `--compare`.
//!
//! The speed of a small shared host drifts by tens of percent from one
//! second to the next. The sampler therefore runs every workload once
//! per round, each sample in a fresh child process, so a slow phase of
//! the host lands on all workloads alike instead of on one workload's
//! samples, and every end-to-end value is a median with its IQR.

use crate::registry;
use crate::stats::{median, sig4, verdict, Spread, Verdict};
use crate::workloads::Workload;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Samples per driver run (`--workload`), each in a fresh process for
/// a fifth of the run's seconds. Processes of the same binary on one
/// host can keep different speeds for their whole life, and the small
/// corridor's cost depends on the links its seed draws; five samples on
/// five worlds wash both out.
const SAMPLES_PER_RUN: u64 = 5;

/// The seed sample `j` of a run with seed `seed` measures: its inputs
/// are made from the run's seed, and differ from sample to sample.
fn sample_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(j)
}

/// One child sample, as the parent reads it back.
struct Sample {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    digest: Option<String>,
    ref_ns: Option<f64>,
}

/// Run `--sample` in a child process and parse its result line.
fn spawn(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--sample",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(if traced {
            Stdio::inherit()
        } else {
            Stdio::piped()
        })
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let parsed = stdout
        .lines()
        .last()
        .ok_or_else(|| "no output".to_owned())
        .and_then(|l| serde_json::from_str::<Value>(l).map_err(|e| e.to_string()))
        .and_then(|v| parse_result(&v));
    match parsed {
        Ok(mut s) => {
            s.digest = stdout
                .lines()
                .find_map(|l| l.strip_prefix("digest "))
                .map(str::to_owned);
            s.ref_ns = stderr
                .lines()
                .find_map(|l| l.strip_prefix("note: host.ref_ns = "))
                .and_then(|v| v.parse().ok());
            if !s.correct {
                eprint!("{stderr}");
            }
            Ok(s)
        }
        Err(e) => Err(format!("{} ({e}): {stderr}", out.status)),
    }
}

fn parse_result(v: &Value) -> Result<Sample, String> {
    let field = |k: &str| v.map_get(k).ok_or_else(|| format!("result has no {k}"));
    let uint = |k: &str| match field(k)? {
        Value::U64(n) => Ok(*n),
        other => Err(format!("{k} is {other:?}")),
    };
    let correct = matches!(field("correct")?, Value::Bool(true));
    let Value::Map(entries) = field("metrics")? else {
        return Err("metrics is not an object".into());
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in entries {
        let value = match m.map_get("value") {
            Some(Value::F64(x)) => *x,
            Some(Value::U64(n)) => *n as f64,
            Some(Value::I64(n)) => *n as f64,
            other => return Err(format!("{name} has value {other:?}")),
        };
        metrics.insert(name.clone(), value);
    }
    Ok(Sample {
        correct,
        attempted: uint("attempted")?,
        failed: uint("failed")?,
        metrics,
        digest: None,
        ref_ns: None,
    })
}

/// One driver run: `SAMPLES_PER_RUN` child samples on the seeds
/// `sample_seed(seed, j)`, each metric the median of the samples, every
/// check of every sample required.
pub(crate) fn run_workload(workload: Workload, seed: u64, seconds: f64) -> ExitCode {
    let per_sample = seconds / SAMPLES_PER_RUN as f64;
    let mut samples = Vec::new();
    let mut correct = true;
    for j in 0..SAMPLES_PER_RUN {
        let s = sample_seed(seed, j);
        match spawn(workload, s, per_sample, false) {
            Ok(sample) => {
                if let Some(d) = &sample.digest {
                    println!("sample {s} digest {d}");
                }
                correct &= sample.correct;
                samples.push(sample);
            }
            Err(e) => {
                eprintln!("{} seed {s}: {e}", workload.name());
                correct = false;
            }
        }
    }
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in &samples {
        for (name, v) in &s.metrics {
            values.entry(name.clone()).or_default().push(*v);
        }
    }
    let metrics: BTreeMap<String, f64> = values
        .into_iter()
        .filter(|(_, v)| v.len() as u64 == SAMPLES_PER_RUN)
        .map(|(name, v)| (name, median(&v)))
        .collect();
    println!(
        "{}",
        crate::result_line(
            correct,
            samples.iter().map(|s| s.attempted).sum(),
            samples.iter().map(|s| s.failed).sum(),
            &metrics,
            false,
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The samples of one metric on one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct MetricSamples {
    unit: String,
    samples: Vec<f64>,
    median: f64,
    q1: f64,
    q3: f64,
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct WorkloadResults {
    correct: bool,
    attempted: u64,
    failed: u64,
    digests: Vec<String>,
    /// `host.ref_ns` of each sample: how fast the host ran meanwhile.
    ref_ns: Vec<f64>,
    metrics: BTreeMap<String, MetricSamples>,
}

/// What a suite run writes to `--out` and `--compare` reads back.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Results {
    seed: u64,
    rounds: u64,
    seconds: f64,
    workloads: BTreeMap<String, WorkloadResults>,
}

/// Rounds of the suite: one sample of every workload per round.
const ROUNDS: usize = 5;

/// `ROUNDS` rounds of every workload, each sample in a fresh process.
pub(crate) fn run(seed: u64, seconds: f64, out: &Path) -> ExitCode {
    let reg = registry::registry();
    let mut by_workload: BTreeMap<String, (WorkloadResults, BTreeMap<String, Vec<f64>>)> =
        BTreeMap::new();
    let mut ok = true;
    let started = Instant::now();
    for round in 1..=ROUNDS {
        for w in Workload::ALL {
            let t = Instant::now();
            let entry = by_workload.entry(w.name().to_owned()).or_insert_with(|| {
                (
                    WorkloadResults {
                        correct: true,
                        ..WorkloadResults::default()
                    },
                    BTreeMap::new(),
                )
            });
            match spawn(w, seed, seconds, false) {
                Ok(s) => {
                    eprintln!(
                        "round {round}/{ROUNDS} {:<18} {} in {:.1} s",
                        w.name(),
                        if s.correct { "ok" } else { "FAILED" },
                        t.elapsed().as_secs_f64()
                    );
                    let (res, samples) = entry;
                    res.correct &= s.correct;
                    res.attempted += s.attempted;
                    res.failed += s.failed;
                    res.digests.extend(s.digest);
                    res.ref_ns.extend(s.ref_ns);
                    for (name, v) in s.metrics {
                        samples.entry(name).or_default().push(v);
                    }
                    ok &= s.correct;
                }
                Err(e) => {
                    eprintln!("round {round}/{ROUNDS} {}: {e}", w.name());
                    entry.0.correct = false;
                    ok = false;
                }
            }
        }
    }

    let mut results = Results {
        seed,
        rounds: ROUNDS as u64,
        seconds,
        workloads: BTreeMap::new(),
    };
    println!(
        "lv-benchmark seed {seed}: {ROUNDS} rounds × {} workloads, {seconds} s each, {:.0} s total",
        Workload::ALL.len(),
        started.elapsed().as_secs_f64()
    );
    println!(
        "{:<18} {:<15} {:>12} {:>11} {:>6} {:>6} {:>3}  unit",
        "workload", "metric", "median", "IQR", "IQR%", "bound", "n"
    );
    for w in Workload::ALL {
        let Some((mut res, samples)) = by_workload.remove(w.name()) else {
            continue;
        };
        let mut digests = res.digests.clone();
        digests.dedup();
        if digests.len() > 1 {
            eprintln!("{}: samples disagree on the digest: {digests:?}", w.name());
            res.correct = false;
            ok = false;
        }
        for spec in &reg.end_to_end {
            let Some(v) = samples.get(&spec.name) else {
                continue;
            };
            let s = Spread::of(v);
            println!(
                "{:<18} {:<15} {:>12} {:>11} {:>5.1}% {:>5.0}% {:>3}  {}{}",
                w.name(),
                spec.name,
                sig4(s.median),
                sig4(s.q3 - s.q1),
                s.iqr_share() * 100.0,
                spec.bound * 100.0,
                v.len(),
                spec.unit,
                if s.iqr_share() > spec.bound {
                    "  (spread above bound)"
                } else {
                    ""
                }
            );
            res.metrics.insert(
                spec.name.clone(),
                MetricSamples {
                    unit: spec.unit.clone(),
                    samples: v.clone(),
                    median: s.median,
                    q1: s.q1,
                    q3: s.q3,
                },
            );
        }
        println!(
            "{:<18} digest {}  failed {}/{}  host.ref_ns median {:.3}  {}",
            w.name(),
            digests.first().map_or("-", String::as_str),
            res.failed,
            res.attempted,
            median(&res.ref_ns),
            if res.correct { "ok" } else { "FAILED" }
        );
        results.workloads.insert(w.name().to_owned(), res);
    }
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| {
            std::fs::write(
                out,
                serde_json::to_string_pretty(&results).unwrap_or_default(),
            )
        });
    match written {
        Ok(()) => println!("samples written to {}", out.display()),
        Err(e) => {
            eprintln!("writing {}: {e}", out.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One traced run per workload: print every per-layer metric.
pub(crate) fn traced(seed: u64, seconds: f64) -> ExitCode {
    let reg = registry::registry();
    let mut ok = true;
    for w in Workload::ALL {
        let s = match spawn(w, seed, seconds, true) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                ok = false;
                continue;
            }
        };
        ok &= s.correct;
        println!(
            "== {} (seed {seed}, traced)  digest {}  failed {}/{}  {}",
            w.name(),
            s.digest.as_deref().unwrap_or("-"),
            s.failed,
            s.attempted,
            if s.correct { "ok" } else { "FAILED" }
        );
        for spec in &reg.per_layer {
            if let Some(v) = s.metrics.get(&spec.name) {
                println!("  {:<32} {:>16} {}", spec.name, sig4(*v), spec.unit);
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load(path: &Path) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Judge run set `b` against baseline `a`, metric by metric and
/// workload by workload, with the bounds of `BENCHMARK.json`.
pub(crate) fn compare(a: &Path, b: &Path) -> ExitCode {
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("lv-benchmark --compare: {e}");
            return ExitCode::from(2);
        }
    };
    let reg = registry::registry();
    let mut regressed = false;
    println!(
        "{:<18} {:<15} {:>12} {:>12} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "change"
    );
    for (name, wa) in &ra.workloads {
        let Some(wb) = rb.workloads.get(name) else {
            println!("{name:<18} (absent from B)");
            continue;
        };
        for spec in &reg.end_to_end {
            let (Some(ma), Some(mb)) = (wa.metrics.get(&spec.name), wb.metrics.get(&spec.name))
            else {
                continue;
            };
            let v = verdict(
                &ma.samples,
                &mb.samples,
                spec.bound,
                spec.higher_is_better(),
            );
            regressed |= v == Verdict::Worse;
            println!(
                "{name:<18} {:<15} {:>12} {:>12} {:>+7.1}%  {}",
                spec.name,
                sig4(ma.median),
                sig4(mb.median),
                (mb.median - ma.median) / ma.median.abs() * 100.0,
                v.name()
            );
        }
        let fail_ratio = |w: &WorkloadResults| w.failed as f64 / w.attempted.max(1) as f64;
        let (fa, fb) = (fail_ratio(wa), fail_ratio(wb));
        if fb > fa {
            regressed = true;
            println!("{name:<18} fail_ratio rose from {fa:.6} to {fb:.6}");
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(samples: &[f64], failed: u64) -> Results {
        let s = Spread::of(samples);
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "ping_ms".to_owned(),
            MetricSamples {
                unit: "ms".into(),
                samples: samples.to_vec(),
                median: s.median,
                q1: s.q1,
                q3: s.q3,
            },
        );
        let mut workloads = BTreeMap::new();
        workloads.insert(
            "corridor-commands".to_owned(),
            WorkloadResults {
                correct: failed == 0,
                attempted: 1000,
                failed,
                digests: vec!["00".into()],
                ref_ns: vec![0.2],
                metrics,
            },
        );
        Results {
            seed: 42,
            rounds: samples.len() as u64,
            seconds: 4.0,
            workloads,
        }
    }

    fn compare_files(a: &Results, b: &Results, tag: &str) -> ExitCode {
        let dir = std::env::temp_dir().join(format!("lv-benchmark-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (pa, pb) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::write(&pa, serde_json::to_string(a).unwrap()).unwrap();
        std::fs::write(&pb, serde_json::to_string(b).unwrap()).unwrap();
        let code = compare(&pa, &pb);
        std::fs::remove_dir_all(&dir).unwrap();
        code
    }

    #[test]
    fn results_round_trip_and_compare() {
        let base = results(&[1.00, 1.01, 0.99, 1.00, 1.02], 0);
        let same = results(&[1.01, 1.00, 1.00, 0.99, 1.01], 0);
        let slow = results(&[1.30, 1.31, 1.29, 1.30, 1.32], 0);
        let failing = results(&[1.00, 1.01, 0.99, 1.00, 1.02], 3);
        assert_eq!(compare_files(&base, &same, "same"), ExitCode::SUCCESS);
        assert_eq!(compare_files(&base, &slow, "slow"), ExitCode::FAILURE);
        assert_eq!(compare_files(&base, &failing, "fail"), ExitCode::FAILURE);
        assert_eq!(compare_files(&slow, &base, "fast"), ExitCode::SUCCESS);
    }

    #[test]
    fn parses_a_result_line() {
        let line = r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"setup_s":{"value":0.05,"unit":"s"},"cmd_p50_ms":{"value":2.0,"unit":"ms"}}}"#;
        let s = parse_result(&serde_json::from_str(line).unwrap()).unwrap();
        assert!(s.correct);
        assert_eq!((s.attempted, s.failed), (12, 0));
        assert_eq!(s.metrics["setup_s"], 0.05);
        assert!(parse_result(&serde_json::from_str(r#"{"correct":true}"#).unwrap()).is_err());
    }
}
