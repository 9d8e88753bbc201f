//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p lv-bench --bin figures --release -- all
//! cargo run -p lv-bench --bin figures --release -- fig5 --seed 7
//! cargo run -p lv-bench --bin figures --release -- fig7 --json
//! cargo run -p lv-bench --bin figures --release -- fig5agg --trials 32 --workers 4
//! cargo run -p lv-bench --bin figures --release -- --report
//! ```
//!
//! Experiment ids follow `DESIGN.md` §4: fig5, fig6, fig7, tresp,
//! tping, tpad, tfoot, tovh1, plus `ablations` for §5. Each figure
//! also has a multi-trial aggregate variant (`fig5agg`, `fig6agg`,
//! `fig7agg`, `linkcharagg`) reporting mean ± 95% CI over `--trials`
//! independent trials run on `--workers` threads, plus `failures` for
//! the failure-injection sweep.
//!
//! `--report` replaces the figure run with a flight-recorder session:
//! it drives a diagnosis sequence (ping + traceroute) over the 8-hop
//! corridor and prints the network-wide [`ObservabilityReport`] as
//! JSON (DESIGN.md §9).
//!
//! CI sessions (DESIGN.md §11):
//!
//! * `--digests` prints the FNV-1a determinism digest of fig5/6/7;
//!   `--check-digests goldens/figure_digests.json` additionally
//!   compares against the checked-in goldens and exits non-zero on any
//!   drift — the regression gate that locks in bit-identical replays.
//! * `--dynamics` runs the degradation-ramp soak: an 8-hop path whose
//!   middle link loses 5 dB every 10 s while traceroute watches the
//!   weakening hop. Hard-fails unless the hop is *detected* before the
//!   end-to-end ping dies and the path *recovers* after the repair.
//! * `--diagnosis` replays the seeded fault corpus with the closed-loop
//!   diagnosis engine armed and scores its episodes against the ground
//!   truth. Hard-fails unless precision ≥ 0.9, recall ≥ 0.8, every
//!   link ramp is detected before the end-to-end ping dies, and the
//!   whole report replays byte-identically.
//!
//! Throughput is not measured here: lv-benchmark (`BENCHMARK.json`,
//! `scripts/bench-compare.sh`) times the simulator, the commands and
//! lv-serve, and pins their digests.
//!
//! [`ObservabilityReport`]: liteview::ObservabilityReport

use lv_testbed::experiments as exp;
use lv_testbed::results::to_json_lines;
use lv_testbed::{AggregateStats, TrialRunner};

struct Args {
    what: Vec<String>,
    seed: u64,
    trials: usize,
    workers: Option<usize>,
    json: bool,
    report: bool,
    dynamics: bool,
    diagnosis: bool,
    digests: bool,
    check_digests: Option<String>,
}

impl Args {
    /// The trial runner every aggregate experiment shares.
    fn runner(&self) -> TrialRunner {
        let r = TrialRunner::new(self.seed, self.trials);
        match self.workers {
            Some(w) => r.workers(w),
            None => r,
        }
    }
}

fn parse_args() -> Args {
    let mut what = Vec::new();
    let mut seed = 42u64;
    let mut trials = 8usize;
    let mut workers = None;
    let mut json = false;
    let mut report = false;
    let mut dynamics = false;
    let mut diagnosis = false;
    let mut digests = false;
    let mut check_digests = None;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--report" => report = true,
            "--dynamics" => dynamics = true,
            "--diagnosis" => diagnosis = true,
            "--digests" => digests = true,
            "--check-digests" => {
                check_digests = Some(argv.next().expect("--check-digests <golden file>"));
                digests = true;
            }
            "--seed" => {
                seed = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed <u64>");
            }
            "--trials" => {
                trials = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--trials <n>");
            }
            "--workers" => {
                workers = Some(
                    argv.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--workers <n>"),
                );
            }
            "--json" => json = true,
            other => what.push(other.to_owned()),
        }
    }
    if report || dynamics || diagnosis || digests {
        // `--report` / `--dynamics` / `--diagnosis` / `--digests` are
        // sessions, not figures: an empty experiment list stays empty
        // instead of expanding to `all`.
    } else if what.is_empty() || what.iter().any(|w| w == "all") {
        what = [
            "fig5",
            "fig6",
            "fig7",
            "tresp",
            "tping",
            "tpad",
            "tfoot",
            "tovh1",
            "linkchar",
            "ablations",
            "fig5agg",
            "fig6agg",
            "fig7agg",
            "linkcharagg",
            "failures",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    Args {
        what,
        seed,
        trials,
        workers,
        json,
        report,
        dynamics,
        diagnosis,
        digests,
        check_digests,
    }
}

/// Render pre-formatted rows as a fixed-width text table.
fn table(title: &str, header: &str, rows: &[String]) -> String {
    let mut out = format!("== {title} ==\n{header}\n");
    out.push_str(&"-".repeat(header.len().max(20)));
    out.push('\n');
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    out
}

fn main() {
    let args = parse_args();
    if args.report {
        report(args.seed);
    }
    if args.digests {
        digests(&args);
    }
    if args.dynamics {
        dynamics(&args);
    }
    if args.diagnosis {
        diagnosis(&args);
    }
    for what in &args.what {
        match what.as_str() {
            "fig5" => fig5(args.seed, args.json),
            "fig6" => fig6(args.seed, args.json),
            "fig7" => fig7(args.seed, args.json),
            "tresp" => tresp(args.seed, args.json),
            "tping" => tping(args.seed, args.json),
            "tpad" => tpad(args.seed, args.json),
            "tfoot" => tfoot(args.json),
            "tovh1" => tovh1(args.seed, args.json),
            "linkchar" => linkchar(args.seed, args.json),
            "ablations" => ablations(args.seed, args.json),
            "fig5agg" => fig5agg(&args),
            "fig6agg" => fig6agg(&args),
            "fig7agg" => fig7agg(&args),
            "linkcharagg" => linkcharagg(&args),
            "failures" => failures(&args),
            other => eprintln!("unknown experiment: {other}"),
        }
    }
}

/// `--report`: drive a diagnosis session over the 8-hop corridor and
/// print the network-wide flight-recorder report as JSON.
fn report(seed: u64) {
    use liteview::{CommandRequest, ObservabilityReport};
    use lv_net::packet::Port;
    use lv_testbed::{Scenario, ScenarioConfig, Topology};

    let mut s = Scenario::build(ScenarioConfig::new(Topology::eight_hop_corridor(), seed));
    s.ws.cd(&s.net, "192.168.0.1").expect("bridge exists");
    let far = (s.net.node_count() - 1) as u16;
    let _ = s.ws.exec(&mut s.net, CommandRequest::ping(1, 1, 32, None));
    let _ = s.ws.exec(
        &mut s.net,
        CommandRequest::traceroute(far, 32, Port::GEOGRAPHIC),
    );
    let json = s.ws.report(&s.net).to_json();
    // The emitted document must parse back — the report is an exchange
    // format, not just a pretty-printer.
    assert!(
        ObservabilityReport::from_json(&json).is_some(),
        "report JSON does not round-trip"
    );
    println!("{json}");
}

/// `--digests`: print the determinism digests of fig5/6/7; with
/// `--check-digests <golden>` also diff them against the checked-in
/// goldens and exit non-zero on drift.
fn digests(args: &Args) {
    let rows = exp::figure_digests(args.seed);
    if args.json {
        println!("{}", to_json_lines(&rows));
    } else {
        let lines: Vec<String> = rows
            .iter()
            .map(|r| format!("{:<6} {}", r.figure, r.digest))
            .collect();
        print!(
            "{}",
            table(
                "Determinism digests — FNV-1a over the figure row JSON",
                "figure digest",
                &lines
            )
        );
    }
    if let Some(path) = &args.check_digests {
        let golden = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read goldens {path}: {e}"));
        let fresh = to_json_lines(&rows);
        let mut drift = false;
        for (g, f) in golden.lines().map(str::trim).zip(fresh.lines()) {
            if g != f {
                eprintln!("digest drift:\n  golden: {g}\n  fresh:  {f}");
                drift = true;
            }
        }
        if golden.lines().filter(|l| !l.trim().is_empty()).count() != rows.len() {
            eprintln!("golden file {path} has a different figure count than this binary produces");
            drift = true;
        }
        if drift {
            eprintln!(
                "figure digests changed — if intentional, regenerate with \
                 `figures --digests --json > {path}`"
            );
            std::process::exit(1);
        }
        println!("digests: OK ({} figures match {path})", rows.len());
    }
}

/// `--dynamics`: the degradation-ramp soak. Prints the per-round
/// observations and the detect → fail → recover milestones, then
/// hard-fails (for the nightly CI job) unless the diagnosis story
/// holds: traceroute pinpoints the weakening hop *before* the
/// end-to-end ping dies, and the path recovers after the repair.
fn dynamics(args: &Args) {
    let r = exp::dynamics_soak(args.seed);
    if args.json {
        println!("{}", serde_json::to_string(&r).unwrap());
    } else {
        let lines: Vec<String> = r
            .rounds
            .iter()
            .map(|row| {
                format!(
                    "{:>9.0}   {:>7} {:>6} {:>5} {:>6}   {:>5} {:>9} {:>10}",
                    row.t_ms,
                    if row.trace_reached { "yes" } else { "no" },
                    if row.hop_seen { "yes" } else { "no" },
                    row.hop_lqi,
                    row.hop_rssi,
                    if row.ping_ok { "ok" } else { "FAIL" },
                    row.evictions,
                    row.blacklists
                )
            })
            .collect();
        print!(
            "{}",
            table(
                "Dynamics soak — 8-hop corridor, hop 5 ramped to +60 dB then repaired",
                "    t[ms]   reached    hop   lqi   rssi    ping   evicted   blacklist",
                &lines
            )
        );
        println!(
            "detect = {:.0} ms, ping-fail = {:.0} ms, recover = {:.0} ms",
            r.detect_ms, r.ping_fail_ms, r.recover_ms
        );
        println!(
            "evictions = {}, blacklists = {}, dyn trace events = {}, digest = {}",
            r.evictions, r.blacklists, r.dyn_trace_events, r.digest
        );
        println!("audit violations = {}", r.audit_violations);
    }
    let mut bad = Vec::new();
    if r.detect_ms < 0.0 {
        bad.push("the weakening hop was never detected while the path still worked");
    }
    if r.ping_fail_ms < 0.0 {
        bad.push("the end-to-end ping never failed despite the +60 dB ramp");
    }
    if r.detect_ms >= 0.0 && r.ping_fail_ms >= 0.0 && r.detect_ms >= r.ping_fail_ms {
        bad.push("detection did not precede the end-to-end failure");
    }
    if r.recover_ms < 0.0 {
        bad.push("the path never recovered after the link repair");
    }
    if r.evictions == 0 {
        bad.push("no stale neighbors were evicted during the outage");
    }
    if r.blacklists == 0 {
        bad.push("the degradation watchdog never blacklisted the weakening link");
    }
    if r.audit_violations > 0 {
        bad.push("the kernel runtime auditor observed invariant violations during the soak");
    }
    if r.dyn_trace_events == 0 {
        bad.push("no dyn.* mutations were counted");
    }
    if !bad.is_empty() {
        for b in &bad {
            eprintln!("dynamics soak FAILED: {b}");
        }
        std::process::exit(1);
    }
    if !args.json {
        println!("dynamics soak: OK (detect < ping-fail < recover)");
    }
}

/// `--diagnosis`: replay the seeded fault corpus with the closed-loop
/// diagnosis engine armed and score its episodes against the ground
/// truth. Runs the sweep twice and hard-fails (for the nightly CI job)
/// on any byte of drift between the two reports, on precision < 0.9 or
/// recall < 0.8, or on any link ramp that was not detected before the
/// end-to-end ping died.
fn diagnosis(args: &Args) {
    let r = lv_testbed::diagnosis_sweep(args.seed);
    let json = serde_json::to_string(&r).unwrap();
    let replay = serde_json::to_string(&lv_testbed::diagnosis_sweep(args.seed)).unwrap();
    if args.json {
        println!("{json}");
    } else {
        let lines: Vec<String> = r
            .rows
            .iter()
            .map(|row| {
                format!(
                    "{:<12} {:>6} {:>8} {:>8} {:>4} {:>4}   {:>5.2} {:>6.2}   {:>9.0} {:>9.0} {:>12.0}",
                    row.scenario,
                    row.labels,
                    row.episodes,
                    row.localized,
                    row.true_positives,
                    row.false_positives,
                    row.precision,
                    row.recall,
                    row.first_detect_ms,
                    row.ping_fail_ms,
                    row.mean_detect_latency_ms,
                )
            })
            .collect();
        print!(
            "{}",
            table(
                "Diagnosis sweep — closed-loop engine vs seeded fault corpus",
                "scenario     labels episodes    local   tp   fp    prec recall   detect[ms] fail[ms]  latency[ms]",
                &lines
            )
        );
        println!(
            "precision = {:.3}, recall = {:.3}, digest = {}",
            r.precision, r.recall, r.digest
        );
    }
    let mut bad = Vec::new();
    if json != replay {
        bad.push("two sweeps with the same seed produced different reports".to_owned());
    }
    if r.precision < 0.9 {
        bad.push(format!("precision {:.3} < 0.90", r.precision));
    }
    if r.recall < 0.8 {
        bad.push(format!("recall {:.3} < 0.80", r.recall));
    }
    for row in &r.rows {
        if !row.scenario.starts_with("ramp") {
            continue;
        }
        if row.first_detect_ms < 0.0 {
            bad.push(format!(
                "{}: the link fault was never detected",
                row.scenario
            ));
        } else if row.ping_fail_ms < 0.0 {
            bad.push(format!(
                "{}: the ramp never killed the end-to-end ping",
                row.scenario
            ));
        } else if row.first_detect_ms >= row.ping_fail_ms {
            bad.push(format!(
                "{}: detection ({:.0} ms) did not precede ping failure ({:.0} ms)",
                row.scenario, row.first_detect_ms, row.ping_fail_ms
            ));
        }
    }
    if !bad.is_empty() {
        for b in &bad {
            eprintln!("diagnosis sweep FAILED: {b}");
        }
        std::process::exit(1);
    }
    if !args.json {
        println!("diagnosis sweep: OK (deterministic; detect-before-fail on every ramp)");
    }
}

fn fig5(seed: u64, json: bool) {
    let rows = exp::fig5_traceroute_delay(seed);
    if json {
        println!("{}", to_json_lines(&rows));
        return;
    }
    let lines: Vec<String> = rows
        .iter()
        .map(|r| format!("{:>3}   {:>10.1}", r.hop, r.delay_ms))
        .collect();
    print!(
        "{}",
        table(
            "Fig. 5 — traceroute response delay per hop (8-hop corridor)",
            "hop   delay [ms]",
            &lines
        )
    );
}

fn fig6(seed: u64, json: bool) {
    let rows = exp::fig6_rssi_vs_power(seed);
    if json {
        println!("{}", to_json_lines(&rows));
        return;
    }
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{:>3}   {:>8} {:>8}   {:>8} {:>8}",
                r.hop, r.fwd_p10, r.bwd_p10, r.fwd_p25, r.bwd_p25
            )
        })
        .collect();
    print!(
        "{}",
        table(
            "Fig. 6 — per-hop RSSI readings, forward/backward, power 10 vs 25",
            "hop   fwd@10   bwd@10     fwd@25   bwd@25",
            &lines
        )
    );
}

fn fig7(seed: u64, json: bool) {
    let rows = exp::fig7_overhead(seed);
    if json {
        println!("{}", to_json_lines(&rows));
        return;
    }
    let lines: Vec<String> = rows
        .iter()
        .map(|r| format!("{:>4}   {:>15} {:>8}", r.hops, r.control_packets, r.acks))
        .collect();
    print!(
        "{}",
        table(
            "Fig. 7 — traceroute command overhead vs path length",
            "hops   control packets     acks",
            &lines
        )
    );
}

fn tresp(seed: u64, json: bool) {
    let rows = exp::text_response_delays(seed, 10);
    if json {
        println!("{}", to_json_lines(&rows));
        return;
    }
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{:<20} {:>6} {:>9.1} {:>9.1} {:>9.1} {:>9}",
                r.command, r.trials, r.mean_ms, r.min_ms, r.max_ms, r.answered
            )
        })
        .collect();
    print!(
        "{}",
        table(
            "T-resp — fixed-window command response delays",
            "command              trials  mean[ms]   min[ms]   max[ms]  answered",
            &lines
        )
    );
}

fn tping(seed: u64, json: bool) {
    let r = exp::text_ping_sample(seed);
    if json {
        println!("{}", serde_json::to_string(&r).unwrap());
        return;
    }
    println!("== T-ping — sample one-hop ping (paper §III.B.3) ==");
    println!(
        "RTT = {:.1} ms, LQI = {}/{}, RSSI = {}/{}, Queue = {}/{}",
        r.rtt_ms, r.lqi_fwd, r.lqi_bwd, r.rssi_fwd, r.rssi_bwd, r.queue_fwd, r.queue_bwd
    );
    println!("Power = {}, Channel = {}", r.power, r.channel);
}

fn tpad(seed: u64, json: bool) {
    let r = exp::text_padding_budget(seed);
    if json {
        println!("{}", serde_json::to_string(&r).unwrap());
        return;
    }
    println!("== T-pad — link-quality padding budget (paper §IV.C.3) ==");
    println!(
        "probe payload = {} B, {} B/hop, analytic max = {} hops",
        r.probe_payload, r.bytes_per_hop, r.analytic_max_hops
    );
    println!(
        "path of {} hops → observed {} recorded hop entries",
        r.path_hops, r.observed_entries
    );
}

fn tfoot(json: bool) {
    let rows = exp::text_footprints();
    if json {
        println!("{}", to_json_lines(&rows));
        return;
    }
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{:<22} {:>8} {:>8}",
                r.component, r.flash_bytes, r.ram_bytes
            )
        })
        .collect();
    print!(
        "{}",
        table(
            "T-foot — component footprints (paper §IV.C.5/6)",
            "component              flash[B]   ram[B]",
            &lines
        )
    );
}

fn tovh1(seed: u64, json: bool) {
    let r = exp::text_onehop_overhead(seed);
    if json {
        println!("{}", serde_json::to_string(&r).unwrap());
        return;
    }
    println!("== T-ovh1 — one-hop command overhead (paper §V.C) ==");
    println!(
        "{}: {} data packets (+{} link acks)",
        r.command, r.data_packets, r.acks
    );
}

/// Render a metric value: scientific for tiny magnitudes (energy in
/// joules), one decimal otherwise.
fn format_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.1 {
        format!("{v:.3e}")
    } else {
        format!("{v:.1}")
    }
}

fn linkchar(seed: u64, json: bool) {
    let rows = exp::characterize_links(seed);
    if json {
        println!("{}", to_json_lines(&rows));
        return;
    }
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{:>6.1}   {:>5.2}   {:>8.1}   {:>7.1}",
                r.distance_m, r.prr, r.mean_rssi, r.mean_lqi
            )
        })
        .collect();
    print!(
        "{}",
        table(
            "Link characterization — PRR / RSSI / LQI vs distance (substrate validation)",
            "  d[m]     PRR       RSSI       LQI",
            &lines
        )
    );
}

/// Render an aggregate as `mean ± ci95`.
fn pm(s: &AggregateStats) -> String {
    format!("{:.1} ±{:.1}", s.mean, s.ci95)
}

fn fig5agg(args: &Args) {
    let runner = args.runner();
    let rows = exp::fig5_traceroute_delay_agg(&runner);
    if args.json {
        println!("{}", to_json_lines(&rows));
        return;
    }
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{:>3}   {:>6}   {:>16}",
                r.hop,
                r.delay_ms.n,
                pm(&r.delay_ms)
            )
        })
        .collect();
    print!(
        "{}",
        table(
            &format!(
                "Fig. 5 (aggregate) — traceroute delay per hop, {} trials",
                runner.trials()
            ),
            "hop        n       delay [ms]",
            &lines
        )
    );
}

fn fig6agg(args: &Args) {
    let runner = args.runner();
    let rows = exp::fig6_rssi_vs_power_agg(&runner);
    if args.json {
        println!("{}", to_json_lines(&rows));
        return;
    }
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{:>3}   {:>13} {:>13}   {:>13} {:>13}",
                r.hop,
                pm(&r.fwd_p10),
                pm(&r.bwd_p10),
                pm(&r.fwd_p25),
                pm(&r.bwd_p25)
            )
        })
        .collect();
    print!(
        "{}",
        table(
            &format!(
                "Fig. 6 (aggregate) — per-hop RSSI, power 10 vs 25, {} trials",
                runner.trials()
            ),
            "hop          fwd@10        bwd@10          fwd@25        bwd@25",
            &lines
        )
    );
}

fn fig7agg(args: &Args) {
    let runner = args.runner();
    let rows = exp::fig7_overhead_agg(&runner);
    if args.json {
        println!("{}", to_json_lines(&rows));
        return;
    }
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{:>4}   {:>16} {:>14}",
                r.hops,
                pm(&r.control_packets),
                pm(&r.acks)
            )
        })
        .collect();
    print!(
        "{}",
        table(
            &format!(
                "Fig. 7 (aggregate) — traceroute overhead vs path length, {} trials",
                runner.trials()
            ),
            "hops    control packets           acks",
            &lines
        )
    );
}

fn linkcharagg(args: &Args) {
    let runner = args.runner();
    let rows = exp::characterize_links_agg(&runner);
    if args.json {
        println!("{}", to_json_lines(&rows));
        return;
    }
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{:>6.1}   {:>11}   {:>14}   {:>13}",
                r.distance_m,
                format!("{:.2} ±{:.2}", r.prr.mean, r.prr.ci95),
                pm(&r.mean_rssi),
                pm(&r.mean_lqi)
            )
        })
        .collect();
    print!(
        "{}",
        table(
            &format!(
                "Link characterization (aggregate) — PRR / RSSI / LQI vs distance, {} trials",
                runner.trials()
            ),
            "  d[m]           PRR             RSSI             LQI",
            &lines
        )
    );
}

fn failures(args: &Args) {
    let runner = args.runner();
    let rows = exp::failure_sweep(&runner, &exp::default_failure_plans());
    if args.json {
        println!("{}", to_json_lines(&rows));
        return;
    }
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{:<24} {:>4}/{:<4} {:>12} {:>13} {:>16}",
                r.mode,
                r.faulted,
                r.trials,
                format!("{:.2} ±{:.2}", r.reached.mean, r.reached.ci95),
                pm(&r.hops_covered),
                pm(&r.last_report_ms)
            )
        })
        .collect();
    print!(
        "{}",
        table(
            "Failure-injection sweep — traceroute diagnosis under faults (8-hop corridor)",
            "mode                     faulted      reached   hops covered   last report[ms]",
            &lines
        )
    );
}

fn ablations(seed: u64, json: bool) {
    let mut rows = Vec::new();
    rows.extend(exp::ablation_traceroute_vs_ping(seed));
    rows.extend(exp::ablation_batch_adaptive(seed));
    rows.extend(exp::ablation_response_backoff(seed, 8));
    rows.extend(exp::ablation_beacon_rate(seed));
    rows.extend(exp::ablation_energy(seed));
    rows.extend(exp::ablation_neighbor_table());
    rows.extend(exp::ablation_padding(seed));
    if json {
        println!("{}", to_json_lines(&rows));
        return;
    }
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{:<34} {:<22} {:>14}",
                r.arm,
                r.metric,
                format_value(r.value)
            )
        })
        .collect();
    print!(
        "{}",
        table(
            "Ablations (DESIGN.md §5)",
            "arm                                metric                        value",
            &lines
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let t = table("T", "k  v", &["a  1".into(), "b  2".into()]);
        assert!(t.contains("== T =="));
        assert!(t.contains("a  1"));
        assert_eq!(t.lines().count(), 5);
    }
}
