//! Shape tests for every reproduced table/figure (DESIGN.md §4).
//!
//! Absolute values differ from the paper (simulated substrate), but the
//! qualitative claims — monotonicity, orderings, budgets, crossovers —
//! must hold. These are the assertions EXPERIMENTS.md cites.

use lv_testbed::experiments::*;

#[test]
fn fig5_delay_grows_with_hop_index() {
    let rows = fig5_traceroute_delay(42);
    assert_eq!(rows.len(), 8, "one report per hop");
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(r.hop as usize, i + 1);
    }
    // Monotone nondecreasing arrival times (the paper notes occasional
    // back-to-back arrivals — equality allowed, regression not).
    for w in rows.windows(2) {
        assert!(
            w[1].delay_ms >= w[0].delay_ms - 1e-9,
            "arrivals must not regress: {w:?}"
        );
    }
    // The whole command finishes in the sub-second regime.
    assert!(rows[7].delay_ms > rows[0].delay_ms * 3.0, "must grow");
    assert!(rows[7].delay_ms < 5_000.0);
}

#[test]
fn fig6_higher_power_means_higher_rssi() {
    let rows = fig6_rssi_vs_power(42);
    assert!(rows.len() >= 6, "most hops must report at both powers");
    let mut uplift = Vec::new();
    for r in &rows {
        assert!(
            r.fwd_p25 > r.fwd_p10,
            "hop {}: fwd p25 {} !> p10 {}",
            r.hop,
            r.fwd_p25,
            r.fwd_p10
        );
        assert!(r.bwd_p25 > r.bwd_p10, "hop {}: bwd", r.hop);
        uplift.push((r.fwd_p25 - r.fwd_p10) as f64);
    }
    // Level 25 ≈ -1.5 dBm vs level 10 ≈ -11.25 dBm: ~10 dB separation.
    let mean = uplift.iter().sum::<f64>() / uplift.len() as f64;
    assert!((6.0..14.0).contains(&mean), "mean uplift {mean:.1} dB");
    // Per-hop variation exists (shadowing): readings are not constant.
    let min = rows.iter().map(|r| r.fwd_p10).min().unwrap();
    let max = rows.iter().map(|r| r.fwd_p10).max().unwrap();
    assert!(max > min, "per-hop variation expected");
}

#[test]
fn fig7_overhead_near_linear_under_60_at_8_hops() {
    let rows = fig7_overhead(42);
    assert_eq!(rows.len(), 8);
    // Strictly increasing in path length.
    for w in rows.windows(2) {
        assert!(
            w[1].control_packets > w[0].control_packets,
            "overhead must grow: {w:?}"
        );
    }
    // One hop is cheap; eight hops stays in the tens (paper: < 50; our
    // strictly-linear return path adds a few).
    assert!(rows[0].control_packets <= 4, "{:?}", rows[0]);
    let at8 = rows[7].control_packets;
    assert!((30..=60).contains(&at8), "8-hop overhead = {at8}");
}

#[test]
fn tresp_every_command_answers_in_fixed_500ms_window() {
    let rows = text_response_delays(42, 5);
    assert_eq!(rows.len(), 4);
    for r in &rows {
        assert_eq!(r.answered, r.trials, "{} timed out", r.command);
        assert!(
            (r.mean_ms - 500.0).abs() < 1e-6,
            "{}: mean {} ms",
            r.command,
            r.mean_ms
        );
        assert_eq!(r.min_ms, r.max_ms, "fixed window must not vary");
    }
}

#[test]
fn tpad_budget_is_24_hops() {
    let row = text_padding_budget(42);
    assert_eq!(row.analytic_max_hops, 24);
    assert_eq!(
        row.observed_entries, 24,
        "a 26-hop path must exhaust padding at exactly 24 entries"
    );
    assert!(row.path_hops > row.analytic_max_hops);
}

#[test]
fn ablation_ping_cheaper_but_budget_bound_traceroute_unbounded() {
    let rows = ablation_traceroute_vs_ping(42);
    let get = |arm: &str, metric: &str| {
        rows.iter()
            .find(|r| r.arm == arm && r.metric == metric)
            .map(|r| r.value)
            .unwrap_or_else(|| panic!("missing {arm}/{metric}"))
    };
    // Per invocation, multi-hop ping moves fewer packets than
    // traceroute at every length…
    for hops in [2, 4, 6, 8] {
        assert!(
            get(&format!("multihop-ping hops={hops}"), "data_packets")
                < get(&format!("traceroute hops={hops}"), "data_packets"),
        );
    }
    // …but traceroute's cost grows without a hop ceiling, while ping is
    // capped at 24 hops by the padding budget — the scalability claim
    // is about reach, not packet count.
    assert!(
        get("traceroute hops=8", "data_packets") > get("traceroute hops=2", "data_packets") * 3.0
    );
}

#[test]
fn ablation_backoff_reduces_mac_failures() {
    let rows = ablation_response_backoff(42, 8);
    let get = |arm: &str, metric: &str| {
        rows.iter()
            .find(|r| r.arm == arm && r.metric == metric)
            .map(|r| r.value)
            .unwrap()
    };
    // With random backoff all replies arrive; without it, the
    // simultaneous burst costs extra transmissions or losses.
    assert_eq!(get("random-backoff", "delivered"), 8.0);
    let cost_no = get("no-backoff", "data_packets") + 10.0 * get("no-backoff", "mac_failures")
        - get("no-backoff", "delivered");
    let cost_jitter = get("random-backoff", "data_packets")
        + 10.0 * get("random-backoff", "mac_failures")
        - get("random-backoff", "delivered");
    assert!(
        cost_no >= cost_jitter,
        "backoff should not be worse: {cost_no} vs {cost_jitter}"
    );
}

#[test]
fn ablation_padding_cost_and_benefit() {
    let rows = ablation_padding(42);
    let get = |arm_prefix: &str, metric: &str| {
        rows.iter()
            .find(|r| r.arm.starts_with(arm_prefix) && r.metric == metric)
            .map(|r| r.value)
            .unwrap()
    };
    // With room, per-hop entries are collected; with a full payload,
    // none are (the mechanism never corrupts payload bytes).
    assert!(get("16B", "fwd_hop_entries") >= 4.0);
    assert_eq!(get("64B", "fwd_hop_entries"), 0.0);
}

#[test]
fn ablation_beacon_rate_tradeoff() {
    let rows = ablation_beacon_rate(42);
    let get = |arm_prefix: &str, metric: &str| {
        rows.iter()
            .find(|r| r.arm.starts_with(arm_prefix) && r.metric == metric)
            .map(|r| r.value)
            .unwrap()
    };
    // Faster beacons discover the neighborhood sooner…
    let d500 = get("beacon period 500", "quality_convergence_ms");
    let d8000 = get("beacon period 8000", "quality_convergence_ms");
    assert!(
        d500.is_finite() && d8000.is_finite(),
        "convergence must finish"
    );
    assert!(
        d500 * 2.0 < d8000,
        "500 ms beacons should converge much faster: {d500} vs {d8000}"
    );
    // …at a proportionally higher airtime budget.
    assert!(
        get("beacon period 500", "beacons_per_node_per_min")
            > 10.0 * get("beacon period 8000", "beacons_per_node_per_min")
    );
}

#[test]
fn ablation_energy_ordering() {
    let rows = ablation_energy(42);
    let get = |arm: &str| {
        rows.iter()
            .find(|r| r.arm == arm)
            .map(|r| r.value)
            .unwrap_or_else(|| panic!("missing {arm}"))
    };
    // Commands cost micro- to milli-joules and order by reach.
    let p1 = get("ping 1-hop");
    let p8 = get("multihop-ping 8-hop");
    let t8 = get("traceroute 8-hop");
    assert!(p1 > 0.0 && p1 < 0.01, "1-hop ping = {p1} J");
    assert!(p8 > p1, "8-hop ping must cost more than 1-hop");
    assert!(t8 > p8, "traceroute moves more packets than multihop ping");
    // And they all vanish next to idle listening — the reason the
    // paper's zero-overhead-when-inactive property matters.
    let listen = get("idle listening (network, 1 min)");
    assert!(
        listen > 1000.0 * t8,
        "listen = {listen} J vs traceroute {t8} J"
    );
}

/// End-to-end guard for the medium: the traceroutes behind Figs. 5–7
/// (the 8-hop corridor at default power and at levels 10 and 25, and
/// the 1–7-hop corridors), each pinned to FNV-1a of its outcome and
/// global counters. The literals are the brute-force medium's output,
/// which the cached medium matched before the brute arm was retired; a
/// deliberate physics change regenerates them explicitly.
#[test]
fn figure_traceroutes_match_pinned_digests() {
    use liteview::CommandRequest;
    use lv_net::packet::Port;
    use lv_radio::PowerLevel;
    use lv_sim::SimDuration;
    use lv_testbed::{Scenario, ScenarioConfig, Topology};

    let trace = |hops: usize, power: Option<u8>| -> String {
        let topo = Topology::Corridor { n: hops + 1 };
        let mut s = Scenario::build(ScenarioConfig::new(topo, 42));
        if let Some(level) = power {
            let p = PowerLevel::new(level).expect("valid level");
            for i in 0..s.net.node_count() as u16 {
                s.net.node_mut(i).power = p;
            }
            s.net.run_for(SimDuration::from_secs(10));
        }
        let exec =
            s.ws.exec(
                &mut s.net,
                CommandRequest::traceroute(hops as u16, 32, Port::GEOGRAPHIC),
            )
            .unwrap();
        let counters: Vec<_> = s.net.counters.iter().collect();
        format!("{:?} {counters:?}", exec.result)
    };
    let fnv1a = |s: &str| {
        s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let pinned: [(usize, Option<u8>, u64); 10] = [
        (8, None, 0x2047_ff5f_6372_ee24),
        (8, Some(10), 0x1788_2007_badb_f1a3),
        (8, Some(25), 0xd240_7ddd_cc8f_fdb3),
        (1, None, 0xbece_e55b_943e_35c3),
        (2, None, 0x3125_0e4d_a917_c027),
        (3, None, 0xefcf_02e5_c46c_9141),
        (4, None, 0x35e9_dacd_6714_9c8b),
        (5, None, 0x7b54_f8b7_13b8_1e64),
        (6, None, 0xa48f_14a5_3da4_30b4),
        (7, None, 0x3c39_cbe8_49de_fed7),
    ];
    for (hops, power, want) in pinned {
        let got = fnv1a(&trace(hops, power));
        assert_eq!(
            got, want,
            "{hops}-hop corridor at power {power:?}: {got:#018x}"
        );
    }
}

/// End-to-end guard for the command path (shell line → `Command` →
/// management request on the air → controller → replies → the
/// `Execution`): one session on the seed-42 corridor, logged into the
/// bridge's one-hop neighbour, runs every command kind and every refusal
/// code, and the JSON of all its `Execution`s (results, response delays,
/// timelines, counter deltas) is pinned to FNV-1a.
///
/// The literal was first computed while the interpreter still
/// translated `Command` into a wire enum of its own
/// (`0xd94a_69b1_375e_5b93`). It moved once, on purpose, when the
/// node's `mgmt` log line began rendering the decoded `Command`: the
/// `readlog` row that logs the survey's status request reads `request
/// Status` where it read `request GetStatus`, so that log chunk leaves
/// three bytes shorter (`len=50`, not 53) and the rest of the `readlog`
/// window runs 96 µs earlier. Nothing else in the JSON changed.
#[test]
fn command_path_matches_pinned_digest() {
    use liteview::shell::{parse_line, ShellInput};
    use liteview::{Command, CommandRequest, CommandResult};
    use lv_testbed::{Scenario, ScenarioConfig, Topology};

    let mut s = Scenario::build(ScenarioConfig::new(Topology::eight_hop_corridor(), 42));
    s.ws.cd(&s.net, "192.168.0.2").unwrap();
    let script = [
        "status",
        "power",
        "power 25",
        "power 99",
        "channel",
        "list quality",
        "blacklist add 192.168.0.3",
        "blacklist remove 192.168.0.3",
        "blacklist add 192.168.0.6",
        "update period=1500ms",
        "log on",
        "survey",
        "readlog",
        "ping 192.168.0.3",
        "ping 192.168.0.4 port=10",
        "traceroute 192.168.0.9",
        "traceroute 192.168.0.9 port=99",
    ];
    let executions: Vec<_> = script
        .iter()
        .map(|line| {
            let Ok(ShellInput::Command(cmd)) = parse_line(line) else {
                panic!("not a command: {line}");
            };
            let request = match cmd.resolve(&s.net).unwrap() {
                Command::GroupStatus => CommandRequest::survey(),
                command => CommandRequest::new(command),
            };
            s.ws.exec(&mut s.net, request).unwrap()
        })
        .collect();
    // The refusals: a power level past 31, a non-neighbour blacklisted,
    // and a traceroute on a port with no router.
    for (line, code) in [(3, 1), (8, 3), (16, 2)] {
        assert_eq!(executions[line].result, CommandResult::Error(code));
    }
    let json = serde_json::to_string(&executions).unwrap();
    let got = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(got, 0x1634_72b9_e0e9_76d9, "command path: {got:#018x}");
}

#[test]
fn link_characterization_has_three_regions() {
    let rows = characterize_links(42);
    let prr_at = |d: f64| {
        rows.iter()
            .min_by(|a, b| {
                (a.distance_m - d)
                    .abs()
                    .partial_cmp(&(b.distance_m - d).abs())
                    .unwrap()
            })
            .unwrap()
            .prr
    };
    // Connected region: near links essentially perfect.
    assert!(prr_at(1.0) > 0.99, "prr@1m = {}", prr_at(1.0));
    assert!(prr_at(5.0) > 0.95, "prr@5m = {}", prr_at(5.0));
    // Disconnected region: far links essentially dead.
    assert!(prr_at(45.0) < 0.15, "prr@45m = {}", prr_at(45.0));
    // Transitional region: some intermediate distance with genuinely
    // intermediate PRR (the band where LiteView's diagnosis matters).
    assert!(
        rows.iter().any(|r| (0.15..0.85).contains(&r.prr)),
        "no transitional band: {:?}",
        rows.iter()
            .map(|r| (r.distance_m, r.prr))
            .collect::<Vec<_>>()
    );
    // RSSI of received frames declines with distance overall.
    let near_rssi = rows[0].mean_rssi;
    let mid = rows.iter().find(|r| r.distance_m >= 15.0).unwrap();
    assert!(mid.mean_rssi < near_rssi - 10.0);
}
