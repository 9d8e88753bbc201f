//! Closed-loop automated diagnosis (`DESIGN.md` §14).
//!
//! The paper's workflow is end-user driven: a human notices an
//! application symptom, then pings, traceroutes, and blacklists by
//! hand. This module closes that loop. A [`DiagnosisEngine`] rides
//! along with the workstation, consuming the kernel's passive link-
//! observation tap ([`lv_kernel::LinkObs`]) while the deployment runs:
//!
//! 1. **detect** — a RADIUS-style per-link EWMA detector
//!    ([`LinkDetector`]) flags anomalous RSSI/LQI drift and link
//!    silence;
//! 2. **confirm & localize** — each alarm triggers a probe escalation
//!    ladder issued through the ordinary [`CommandRequest`] path: ping
//!    the suspect endpoint, traceroute toward it (then toward the
//!    other endpoint if the first pass is inconclusive), and read the
//!    per-hop RSSI/LQI/loss records to pin the failure to a link;
//! 3. **report** — every episode becomes a [`DiagnosisReport`] with an
//!    evidence timeline, detection latency, localization verdict, and
//!    (when localized) a [`BlacklistSuggestion`] the operator can
//!    apply. Reports are embedded in the flight recorder's
//!    [`crate::ObservabilityReport`] and served live via the session
//!    protocol's `report diagnose` verb.
//!
//! The engine never mutates the deployment beyond its probe traffic:
//! blacklist output is a *suggestion*, preserving the paper's
//! operator-in-command model.

mod detector;
mod report;

pub use detector::{DriftKind, LinkDetector, Suspicion};
pub use report::{BlacklistSuggestion, DiagnosisEvidence, DiagnosisLog, DiagnosisReport};

use crate::commands::{CommandResult, TraceOutcome};
use crate::workstation::{CommandRequest, Workstation};
use lv_kernel::Network;
use lv_net::packet::Port;
use lv_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Capacity of the kernel link-observation ring the engine arms.
pub(crate) const OBS_CAPACITY: usize = 8192;
/// Minimum spacing between episodes on the same undirected link.
const COOLDOWN: SimDuration = SimDuration::from_secs(60);
/// Ping rounds per confirmation probe.
const PROBE_ROUNDS: u8 = 2;
/// Probe payload length (bytes).
const PROBE_LENGTH: u8 = 32;
/// Routing port the probes travel on.
const PROBE_PORT: Port = Port::GEOGRAPHIC;
/// Hard cap on episodes per engine lifetime.
const MAX_EPISODES: usize = 64;

/// The closed-loop diagnosis engine. Create one with
/// [`Workstation::arm_diagnosis`] and drive it with
/// [`Workstation::poll_diagnosis`]; or hold one directly and call
/// [`DiagnosisEngine::poll`] from a custom driver.
#[derive(Debug, Default)]
pub struct DiagnosisEngine {
    detector: LinkDetector,
    episodes: Vec<DiagnosisReport>,
    cooldown_until: BTreeMap<(u16, u16), SimTime>,
    observations: u64,
    suspicions: u64,
}

/// Canonical (low, high) form of an undirected link.
fn undirected(a: u16, b: u16) -> (u16, u16) {
    (a.min(b), a.max(b))
}

impl DiagnosisEngine {
    /// A fresh engine. The kernel tap must be armed separately
    /// ([`Network::set_link_obs`]) — [`Workstation::arm_diagnosis`]
    /// does both.
    pub fn new() -> DiagnosisEngine {
        DiagnosisEngine::default()
    }

    /// Closed episodes so far, in open order.
    pub fn episodes(&self) -> &[DiagnosisReport] {
        &self.episodes
    }

    /// The serializable cumulative log.
    pub fn log(&self) -> DiagnosisLog {
        DiagnosisLog {
            observations: self.observations,
            suspicions: self.suspicions,
            links_tracked: self.detector.links_tracked() as u64,
            episodes: self.episodes.clone(),
        }
    }

    /// Drain the kernel tap, feed the detector, and run the probe
    /// ladder for every fresh alarm. Returns how many episodes were
    /// opened. Probing executes commands through `ws` and therefore
    /// advances virtual time; observations recorded during probing are
    /// consumed on the next call.
    pub fn poll(&mut self, net: &mut Network, ws: &mut Workstation) -> usize {
        let obs = net.take_link_obs();
        self.observations += obs.len() as u64;
        let mut alarms: Vec<Suspicion> = obs
            .iter()
            .filter_map(|o| self.detector.observe(o))
            .collect();
        alarms.extend(self.detector.sweep_silent(net.now()));
        let mut opened = 0;
        for s in alarms {
            self.suspicions += 1;
            if self.episodes.len() >= MAX_EPISODES {
                continue;
            }
            let key = undirected(s.tx, s.rx);
            let now = net.now();
            if self
                .cooldown_until
                .get(&key)
                .is_some_and(|&until| now < until)
            {
                continue;
            }
            self.cooldown_until.insert(key, now + COOLDOWN);
            let episode = self.episodes.len() as u32 + 1;
            let report = self.run_ladder(net, ws, episode, &s);
            self.episodes.push(report);
            opened += 1;
        }
        opened
    }

    /// The probe escalation ladder for one alarm: ping → traceroute →
    /// (if inconclusive) traceroute the other endpoint → verdict.
    fn run_ladder(
        &mut self,
        net: &mut Network,
        ws: &mut Workstation,
        episode: u32,
        s: &Suspicion,
    ) -> DiagnosisReport {
        let bridge = ws.bridge();
        let opened_at = s.at;
        let mut evidence = vec![DiagnosisEvidence {
            at: s.at,
            what: match s.kind {
                DriftKind::Silence => format!(
                    "link {}->{} silent (baseline rssi {:.1} dBm)",
                    s.tx, s.rx, s.baseline
                ),
                DriftKind::Rssi => format!(
                    "link {}->{} rssi {:.1} vs baseline {:.1} dBm",
                    s.tx, s.rx, s.observed, s.baseline
                ),
                DriftKind::Lqi => format!(
                    "link {}->{} lqi {:.0} vs baseline {:.0}",
                    s.tx, s.rx, s.observed, s.baseline
                ),
            },
        }];
        let mut pings = 0u32;
        let mut traceroutes = 0u32;

        // Rung 1: ping the suspect transmitter through the mesh (the
        // receiver if the transmitter is the bridge itself).
        let first_dst = if s.tx == bridge { s.rx } else { s.tx };
        let (sent, received) = self.probe_ping(net, ws, first_dst, &mut evidence);
        pings += 1;

        // Rung 2: traceroute toward the suspect transmitter to localize
        // along the path.
        let mut verdict = Localization::Inconclusive;
        if let Some(trace) = self.probe_trace(net, ws, first_dst, &mut evidence) {
            traceroutes += 1;
            verdict = localize(&trace, bridge, s);
        }
        // Rung 3: the suspect link may not lie on the path to `tx`
        // (e.g. tx is nearer the bridge than rx). Escalate with a
        // traceroute toward the other endpoint.
        if matches!(verdict, Localization::Inconclusive) {
            let second_dst = if first_dst == s.tx { s.rx } else { s.tx };
            if second_dst != bridge {
                if let Some(trace) = self.probe_trace(net, ws, second_dst, &mut evidence) {
                    traceroutes += 1;
                    verdict = localize(&trace, bridge, s);
                }
            }
        }

        let healthy_probes = sent > 0 && received == sent;
        let (verdict_str, localized_link) = match verdict {
            Localization::Localized(link) => ("localized", Some(link)),
            Localization::Inconclusive if healthy_probes && s.kind != DriftKind::Silence => {
                ("recovered", None)
            }
            Localization::Inconclusive => ("unconfirmed", None),
        };
        let blacklist = localized_link.map(|(a, b)| {
            // The measuring side should stop using the degraded link;
            // fall back to the localized leg's endpoints if the alarm
            // pair is not among them.
            if (a, b) == undirected(s.tx, s.rx) {
                BlacklistSuggestion {
                    node: s.rx,
                    neighbor: s.tx,
                }
            } else {
                BlacklistSuggestion {
                    node: b,
                    neighbor: a,
                }
            }
        });
        let closed_at = net.now();
        evidence.push(DiagnosisEvidence {
            at: closed_at,
            what: format!("verdict: {verdict_str}"),
        });
        DiagnosisReport {
            episode,
            suspect_tx: s.tx,
            suspect_rx: s.rx,
            kind: s.kind.label().to_owned(),
            opened_at,
            closed_at,
            baseline: s.baseline,
            observed: s.observed,
            detect_latency_ms: opened_at.saturating_since(s.first_drift_at).as_millis_f64(),
            pings,
            traceroutes,
            verdict: verdict_str.to_owned(),
            localized_link,
            blacklist,
            evidence,
        }
    }

    fn probe_ping(
        &self,
        net: &mut Network,
        ws: &mut Workstation,
        dst: u16,
        evidence: &mut Vec<DiagnosisEvidence>,
    ) -> (u8, u8) {
        let req =
            CommandRequest::ping(dst, PROBE_ROUNDS, PROBE_LENGTH, Some(PROBE_PORT)).on(ws.bridge());
        let (sent, received) = match ws.exec(net, req) {
            Ok(e) => match e.result {
                CommandResult::Ping(o) => (o.sent, o.received),
                _ => (PROBE_ROUNDS, 0),
            },
            Err(_) => (0, 0),
        };
        evidence.push(DiagnosisEvidence {
            at: net.now(),
            what: format!("ping {dst}: {received}/{sent} replies"),
        });
        (sent, received)
    }

    fn probe_trace(
        &self,
        net: &mut Network,
        ws: &mut Workstation,
        dst: u16,
        evidence: &mut Vec<DiagnosisEvidence>,
    ) -> Option<TraceOutcome> {
        let req = CommandRequest::traceroute(dst, PROBE_LENGTH, PROBE_PORT).on(ws.bridge());
        let outcome = match ws.exec(net, req) {
            Ok(e) => match e.result {
                CommandResult::Traceroute(t) => Some(t),
                _ => None,
            },
            Err(_) => None,
        };
        evidence.push(DiagnosisEvidence {
            at: net.now(),
            what: match &outcome {
                Some(t) => format!(
                    "traceroute {dst}: {} hop reports, {} lost{}",
                    t.hops.len(),
                    t.lost(),
                    if t.reached { ", reached" } else { "" }
                ),
                None => format!("traceroute {dst}: no report"),
            },
        });
        outcome
    }
}

/// Outcome of reading one traceroute against a suspicion.
enum Localization {
    /// The probes implicate this undirected link.
    Localized((u16, u16)),
    /// Nothing on this path confirms the suspicion.
    Inconclusive,
}

/// Read a traceroute's per-hop records against the suspicion: a lost or
/// measurably degraded leg touching the suspect pair localizes the
/// fault.
fn localize(trace: &TraceOutcome, bridge: u16, s: &Suspicion) -> Localization {
    let suspect = undirected(s.tx, s.rx);
    let touches = |leg: (u16, u16)| {
        leg == suspect || leg.0 == s.tx || leg.0 == s.rx || leg.1 == s.tx || leg.1 == s.rx
    };
    let mut hops: Vec<_> = trace.hops.iter().map(|h| &h.record).collect();
    hops.sort_by_key(|r| r.hop_index);
    let mut near = bridge;
    let mut first_broken: Option<(u16, u16)> = None;
    let mut degraded: Option<(u16, u16)> = None;
    for r in hops {
        if r.probe_lost {
            // `far` carries the hop the lost probe targeted (0 when the
            // route itself was unknown).
            let leg = if r.far != 0 || near == 0 {
                undirected(near, r.far)
            } else {
                (near, near)
            };
            first_broken.get_or_insert(leg);
            break;
        }
        if r.no_route {
            // Routing hole at `near`: implicate the node, not a link.
            first_broken.get_or_insert((near, near));
            break;
        }
        let leg = undirected(near, r.far);
        // A healthy reply can still carry degraded measurements: compare
        // the weaker direction against the alarm's frozen baseline.
        let deg = match s.kind {
            DriftKind::Rssi | DriftKind::Silence => {
                f64::from(r.rssi_fwd.min(r.rssi_bwd)) <= s.baseline - detector::RSSI_DROP_DB * 0.5
            }
            DriftKind::Lqi => {
                f64::from(r.lqi_fwd.min(r.lqi_bwd)) <= s.baseline - detector::LQI_DROP * 0.5
            }
        };
        if deg && degraded.is_none() && touches(leg) {
            degraded = Some(leg);
        }
        near = r.far;
    }
    if let Some(leg) = first_broken {
        if touches(leg) {
            return Localization::Localized(leg);
        }
    }
    if let Some(leg) = degraded {
        return Localization::Localized(leg);
    }
    Localization::Inconclusive
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::TraceHop;
    use crate::wire::HopRecord;

    fn hop(idx: u8, far: u16, lost: bool, rssi: i8, lqi: u8) -> TraceHop {
        TraceHop {
            record: HopRecord {
                hop_index: idx,
                far,
                reached_dst: false,
                no_route: false,
                probe_lost: lost,
                rtt_us: 1000,
                lqi_fwd: lqi,
                lqi_bwd: lqi,
                rssi_fwd: rssi,
                rssi_bwd: rssi,
                queue_fwd: 0,
                queue_bwd: 0,
            },
            arrival: SimDuration::from_millis(10),
        }
    }

    fn suspicion(tx: u16, rx: u16, kind: DriftKind, baseline: f64) -> Suspicion {
        Suspicion {
            tx,
            rx,
            at: SimTime::from_millis(1000),
            kind,
            baseline,
            observed: baseline - 10.0,
            first_drift_at: SimTime::from_millis(500),
        }
    }

    #[test]
    fn lost_probe_on_the_suspect_leg_localizes() {
        let trace = TraceOutcome {
            protocol: Some("geographic forwarding".into()),
            hops: vec![
                hop(1, 1, false, -60, 106),
                hop(2, 2, false, -61, 105),
                hop(3, 3, true, 0, 0),
            ],
            reached: false,
        };
        let s = suspicion(3, 2, DriftKind::Silence, -60.0);
        match localize(&trace, 0, &s) {
            Localization::Localized(leg) => assert_eq!(leg, (2, 3)),
            Localization::Inconclusive => panic!("lost leg not localized"),
        }
    }

    #[test]
    fn degraded_but_alive_leg_localizes_by_measurement() {
        // Every hop replies, but leg (2,3)'s RSSI sits far below the
        // alarm's baseline.
        let trace = TraceOutcome {
            protocol: None,
            hops: vec![
                hop(1, 1, false, -60, 106),
                hop(2, 2, false, -61, 106),
                hop(3, 3, false, -75, 98),
                hop(4, 4, false, -60, 105),
            ],
            reached: true,
        };
        let s = suspicion(2, 3, DriftKind::Rssi, -60.0);
        match localize(&trace, 0, &s) {
            Localization::Localized(leg) => assert_eq!(leg, (2, 3)),
            Localization::Inconclusive => panic!("degraded leg not localized"),
        }
    }

    #[test]
    fn healthy_path_is_inconclusive() {
        let trace = TraceOutcome {
            protocol: None,
            hops: vec![hop(1, 1, false, -60, 106), hop(2, 2, false, -60, 106)],
            reached: true,
        };
        let s = suspicion(1, 2, DriftKind::Rssi, -60.0);
        assert!(matches!(
            localize(&trace, 0, &s),
            Localization::Inconclusive
        ));
    }

    #[test]
    fn lost_leg_elsewhere_does_not_implicate_the_suspect() {
        let trace = TraceOutcome {
            protocol: None,
            hops: vec![hop(1, 1, true, 0, 0)],
            reached: false,
        };
        // Suspect is far away from the broken first leg.
        let s = suspicion(6, 7, DriftKind::Rssi, -60.0);
        assert!(matches!(
            localize(&trace, 0, &s),
            Localization::Inconclusive
        ));
    }
}
