//! The seeded-fault corpus for scoring the closed-loop diagnosis
//! engine (`figures --diagnosis`, `DESIGN.md` §14).
//!
//! Each [`DiagnosisScenario`] pairs a [`DynamicsPlan`] fault injection
//! with ground-truth [`FaultLabel`]s, so the engine's episodes can be
//! scored as true/false positives. The sweep replays every scenario on
//! the paper's 8-hop corridor with the engine armed, collects the
//! episode log, and reports per-scenario precision, recall, and
//! time-to-detect — all a pure function of the seed, so the nightly
//! gate can demand a byte-identical report across runs.

use crate::dynamics::DynamicsPlan;
use crate::experiments::fnv1a64;
use crate::results::{to_json_lines, DiagnosisSweepReport, DiagnosisSweepRow};
use crate::scenario::{Scenario, ScenarioConfig};
use crate::topology::Topology;
use liteview::{CommandRequest, CommandResult, DiagnosisReport};
use lv_net::packet::Port;
use lv_radio::Channel;
use lv_sim::{SimDuration, SimTime};

/// What part of the deployment a seeded fault touches — the ground
/// truth an episode is scored against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScope {
    /// A specific undirected link (order-insensitive).
    Link(u16, u16),
    /// Any link touching this node (churn kills every adjacency).
    Node(u16),
    /// Channel-wide interference: any link counts as a correct blame.
    AnyLink,
}

impl FaultScope {
    /// Does an episode blaming `tx → rx` fall inside this scope?
    pub fn matches(&self, tx: u16, rx: u16) -> bool {
        match *self {
            FaultScope::Link(a, b) => (tx.min(rx), tx.max(rx)) == (a.min(b), a.max(b)),
            FaultScope::Node(n) => tx == n || rx == n,
            FaultScope::AnyLink => true,
        }
    }
}

/// One seeded fault: where it hits, when it starts, and (optionally)
/// when the injection clears.
#[derive(Debug, Clone)]
pub struct FaultLabel {
    /// The blamed region of the deployment.
    pub scope: FaultScope,
    /// Virtual time the first mutation fires.
    pub onset: SimTime,
    /// Virtual time the injection is removed (`None` = runs to the
    /// horizon).
    pub cleared: Option<SimTime>,
    /// Human label for the fault class (`ramp`, `noise`, `churn`).
    pub kind: &'static str,
}

/// A named fault-injection run: the plan, its ground truth, and how
/// long to watch.
#[derive(Debug, Clone)]
pub struct DiagnosisScenario {
    /// Corpus name (stable; keys the sweep rows).
    pub name: &'static str,
    /// The seeded mutations.
    pub plan: DynamicsPlan,
    /// Ground-truth labels for scoring.
    pub labels: Vec<FaultLabel>,
    /// Virtual end of the watch window.
    pub horizon: SimTime,
}

/// Episodes opening this long after a fault clears still count as
/// detections of it (silence alarms trail the injection by design).
const CLEAR_SLACK: SimDuration = SimDuration::from_secs(30);

/// The far end of the corridor (the measurement ping's target).
const FAR_NODE: u16 = 8;

/// The labeled corpus, anchored at `t0` (the scenario build's warmed-up
/// "now"): two RADIUS-style link ramps at different depths, a
/// channel-wide interference burst, a node power-cycle, and a quiet
/// control run that seeds nothing (any alarm there is a false
/// positive).
pub fn fault_corpus(t0: SimTime) -> Vec<DiagnosisScenario> {
    let onset = t0 + SimDuration::from_secs(40);
    let ramp = |a: u16, b: u16, name: &'static str| DiagnosisScenario {
        name,
        plan: DynamicsPlan::new().link_ramp_symmetric(
            a,
            b,
            onset,
            SimDuration::from_secs(6),
            12,
            5.0,
        ),
        labels: vec![FaultLabel {
            scope: FaultScope::Link(a, b),
            onset,
            cleared: None,
            kind: "ramp",
        }],
        horizon: t0 + SimDuration::from_secs(150),
    };
    vec![
        ramp(4, 5, "ramp-mid"),
        ramp(1, 2, "ramp-near"),
        DiagnosisScenario {
            name: "noise-burst",
            plan: DynamicsPlan::new().noise_burst(
                Channel::DEFAULT,
                onset,
                SimDuration::from_secs(30),
                30.0,
            ),
            labels: vec![FaultLabel {
                scope: FaultScope::AnyLink,
                onset,
                cleared: Some(onset + SimDuration::from_secs(30)),
                kind: "noise",
            }],
            horizon: t0 + SimDuration::from_secs(110),
        },
        DiagnosisScenario {
            name: "churn",
            plan: DynamicsPlan::new().node_churn(
                3,
                onset,
                Some(onset + SimDuration::from_secs(40)),
            ),
            labels: vec![FaultLabel {
                scope: FaultScope::Node(3),
                onset,
                cleared: Some(onset + SimDuration::from_secs(40)),
                kind: "churn",
            }],
            horizon: t0 + SimDuration::from_secs(110),
        },
        DiagnosisScenario {
            name: "quiet",
            plan: DynamicsPlan::new(),
            labels: Vec::new(),
            horizon: t0 + SimDuration::from_secs(80),
        },
    ]
}

/// Does `episode` credit `label` — right scope, and opened inside the
/// fault window (plus [`CLEAR_SLACK`] for trailing silence alarms)?
fn episode_matches(episode: &DiagnosisReport, label: &FaultLabel) -> bool {
    if !label.scope.matches(episode.suspect_tx, episode.suspect_rx) {
        return false;
    }
    if episode.opened_at < label.onset {
        return false;
    }
    match label.cleared {
        Some(cleared) => episode.opened_at <= cleared + CLEAR_SLACK,
        None => true,
    }
}

/// Replay one scenario with the engine armed and score its episodes.
fn run_scenario(seed: u64, sc: &DiagnosisScenario) -> DiagnosisSweepRow {
    let cfg = ScenarioConfig::new(Topology::eight_hop_corridor(), seed);
    let mut s = Scenario::build(cfg);
    s.ws.arm_diagnosis(&mut s.net);
    sc.plan.schedule(&mut s.net);

    let first_onset = sc.labels.iter().map(|l| l.onset).min();
    let mut ping_fail: Option<f64> = None;
    while s.net.now() < sc.horizon {
        let t_ms = s.net.now().as_millis_f64();
        let ping_exec = s.ws.exec(
            &mut s.net,
            CommandRequest::ping(FAR_NODE, 1, 32, Some(Port::GEOGRAPHIC)),
        );
        let ping_ok = matches!(
            ping_exec.map(|e| e.result),
            Ok(CommandResult::Ping(p)) if p.received > 0
        );
        if ping_fail.is_none() && !ping_ok && first_onset.is_some_and(|onset| s.net.now() >= onset)
        {
            ping_fail = Some(t_ms);
        }
        s.ws.poll_diagnosis(&mut s.net);
        s.net.run_for(SimDuration::from_secs(2));
    }

    let log = s.ws.diagnosis_log();
    let mut true_positives = 0u64;
    let mut localized = 0u64;
    let mut first_detect: Option<f64> = None;
    let mut latency_sum = 0.0;
    for e in &log.episodes {
        if e.verdict == "localized" {
            localized += 1;
        }
        if sc.labels.iter().any(|l| episode_matches(e, l)) {
            true_positives += 1;
            latency_sum += e.detect_latency_ms;
            let at = e.opened_at.as_millis_f64();
            if first_detect.map_or(true, |f| at < f) {
                first_detect = Some(at);
            }
        }
    }
    let labels_detected = sc
        .labels
        .iter()
        .filter(|l| log.episodes.iter().any(|e| episode_matches(e, l)))
        .count() as u64;
    let episodes = log.episodes.len() as u64;
    DiagnosisSweepRow {
        scenario: sc.name.to_owned(),
        labels: sc.labels.len() as u64,
        labels_detected,
        episodes,
        true_positives,
        false_positives: episodes - true_positives,
        localized,
        precision: if episodes == 0 {
            1.0
        } else {
            true_positives as f64 / episodes as f64
        },
        recall: if sc.labels.is_empty() {
            1.0
        } else {
            labels_detected as f64 / sc.labels.len() as f64
        },
        first_detect_ms: first_detect.unwrap_or(-1.0),
        ping_fail_ms: ping_fail.unwrap_or(-1.0),
        mean_detect_latency_ms: if true_positives == 0 {
            -1.0
        } else {
            latency_sum / true_positives as f64
        },
    }
}

/// Run the whole corpus and score it. Pure function of the seed: two
/// calls with the same seed must serialize byte-identically, which
/// `figures --diagnosis` asserts before gating on the scores.
pub fn diagnosis_sweep(seed: u64) -> DiagnosisSweepReport {
    // Probe the warmed-up clock once so every scenario anchors its
    // timeline the same way.
    let t0 = Scenario::build(ScenarioConfig::new(Topology::eight_hop_corridor(), seed))
        .net
        .now();
    let rows: Vec<DiagnosisSweepRow> = fault_corpus(t0)
        .iter()
        .map(|sc| run_scenario(seed, sc))
        .collect();
    let (tp, eps): (u64, u64) = rows
        .iter()
        .fold((0, 0), |(t, e), r| (t + r.true_positives, e + r.episodes));
    let (det, labels): (u64, u64) = rows
        .iter()
        .fold((0, 0), |(d, l), r| (d + r.labels_detected, l + r.labels));
    let digest = format!("{:016x}", fnv1a64(to_json_lines(&rows).as_bytes()));
    DiagnosisSweepReport {
        precision: if eps == 0 {
            1.0
        } else {
            tp as f64 / eps as f64
        },
        recall: if labels == 0 {
            1.0
        } else {
            det as f64 / labels as f64
        },
        digest,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_match_what_they_should() {
        assert!(FaultScope::Link(4, 5).matches(5, 4));
        assert!(!FaultScope::Link(4, 5).matches(5, 6));
        assert!(FaultScope::Node(3).matches(3, 4));
        assert!(FaultScope::Node(3).matches(2, 3));
        assert!(!FaultScope::Node(3).matches(4, 5));
        assert!(FaultScope::AnyLink.matches(7, 1));
    }

    #[test]
    fn corpus_covers_every_fault_class_plus_a_control() {
        let corpus = fault_corpus(SimTime::from_secs(10));
        let names: Vec<&str> = corpus.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["ramp-mid", "ramp-near", "noise-burst", "churn", "quiet"]
        );
        let quiet = corpus.last().unwrap();
        assert!(quiet.plan.is_empty() && quiet.labels.is_empty());
        for sc in &corpus[..4] {
            assert!(!sc.plan.is_empty());
            assert!(!sc.labels.is_empty());
        }
    }

    /// The corpus's single integration smoke: the mid-corridor ramp
    /// must be caught (recall 1) without spurious blame (precision 1)
    /// and strictly before the end-to-end ping dies — the paper's
    /// detect-before-fail story, now closed-loop. Kept to one scenario
    /// so `cargo test` stays fast; the full sweep runs in the nightly
    /// `figures --diagnosis` gate.
    #[test]
    fn ramp_is_detected_before_the_path_dies() {
        let t0 = Scenario::build(ScenarioConfig::new(Topology::eight_hop_corridor(), 42))
            .net
            .now();
        let corpus = fault_corpus(t0);
        let row = run_scenario(42, &corpus[0]);
        assert_eq!(row.scenario, "ramp-mid");
        assert_eq!(row.recall, 1.0, "{row:?}");
        assert_eq!(row.precision, 1.0, "{row:?}");
        assert!(row.first_detect_ms >= 0.0, "{row:?}");
        assert!(row.ping_fail_ms >= 0.0, "ramp never killed ping: {row:?}");
        assert!(row.first_detect_ms < row.ping_fail_ms, "{row:?}");
    }
}
