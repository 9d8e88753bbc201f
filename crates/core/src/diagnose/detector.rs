//! The RADIUS-style online link-quality detector.
//!
//! One EWMA baseline per *directed* link, fed by the kernel's passive
//! [`LinkObs`] tap. Three alarm classes:
//!
//! * **rssi-drift** — the sample RSSI sits `RSSI_DROP_DB` below the
//!   baseline for `CONFIRM` consecutive samples (attenuation ramps,
//!   antenna damage, obstructions);
//! * **lqi-drift** — likewise for LQI (SNR degradation: interference
//!   and noise bursts move LQI long before RSSI);
//! * **silence** — a link with an established baseline has not been
//!   heard from for `SILENCE_AFTER` (node death, hard blocks).
//!
//! The baseline *freezes* while a link is drifting (any deviation past
//! half the alarm threshold): a slow ramp must not drag the EWMA down
//! with it and suppress its own alarm. The time the half-threshold was
//! first crossed is kept as the drift onset, so detection latency can
//! be reported honestly rather than from the alarm sample.

use lv_kernel::LinkObs;
use lv_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

// Tuning, sized for the repo's radio model: per-packet RSSI fading is
// σ ≈ 1 dB and LQI jitter σ ≈ 1.2 units, so the thresholds sit at ~6σ
// with two-sample confirmation.

/// EWMA smoothing factor (weight of the newest sample).
const ALPHA: f64 = 0.15;
/// Samples needed before a baseline is considered established.
const MIN_SAMPLES: u32 = 8;
/// RSSI deviation below baseline (dB) that raises an alarm.
pub(super) const RSSI_DROP_DB: f64 = 7.5;
/// LQI deviation below baseline (units) that raises an alarm.
pub(super) const LQI_DROP: f64 = 18.0;
/// Consecutive over-threshold samples required to alarm.
const CONFIRM: u32 = 2;
/// Quiet time after which an established link is declared silent.
/// Beacons default to one per 2 s; six missed periods is decisive even
/// with a lossy link.
const SILENCE_AFTER: SimDuration = SimDuration::from_secs(12);

/// What tripped the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// RSSI fell below the baseline.
    Rssi,
    /// LQI fell below the baseline.
    Lqi,
    /// The link went quiet.
    Silence,
}

impl DriftKind {
    /// Stable string label used in serialized reports.
    pub fn label(self) -> &'static str {
        match self {
            DriftKind::Rssi => "rssi-drift",
            DriftKind::Lqi => "lqi-drift",
            DriftKind::Silence => "silence",
        }
    }
}

/// One alarm raised by the detector — input to the probe ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Suspicion {
    /// Transmitting side of the suspect directed link.
    pub tx: u16,
    /// Receiving side (where the drift was measured).
    pub rx: u16,
    /// Virtual time of the alarm.
    pub at: SimTime,
    /// Alarm class.
    pub kind: DriftKind,
    /// The frozen baseline value the deviation was measured against.
    pub baseline: f64,
    /// The observed value that tripped the alarm (0 for silence).
    pub observed: f64,
    /// When the drift first crossed half the alarm threshold (for
    /// silence: the last time the link was heard).
    pub first_drift_at: SimTime,
}

/// Per-directed-link EWMA state.
#[derive(Debug, Clone)]
struct LinkBaseline {
    ewma_rssi: f64,
    ewma_lqi: f64,
    samples: u32,
    last_heard: SimTime,
    first_drift_at: Option<SimTime>,
    over_streak: u32,
    silenced: bool,
}

/// The online anomaly detector over every directed link.
#[derive(Debug, Default)]
pub struct LinkDetector {
    links: BTreeMap<(u16, u16), LinkBaseline>,
}

impl LinkDetector {
    /// An empty detector.
    pub fn new() -> LinkDetector {
        LinkDetector::default()
    }

    /// Directed links with a tracked baseline.
    pub fn links_tracked(&self) -> usize {
        self.links.len()
    }

    /// The current (EWMA RSSI, EWMA LQI) baseline of a directed link,
    /// if established.
    pub fn baseline(&self, tx: u16, rx: u16) -> Option<(f64, f64)> {
        let e = self.links.get(&(tx, rx))?;
        (e.samples >= MIN_SAMPLES).then_some((e.ewma_rssi, e.ewma_lqi))
    }

    /// Feed one passive observation; returns an alarm if this sample
    /// confirms a drift past threshold.
    pub fn observe(&mut self, o: &LinkObs) -> Option<Suspicion> {
        let e = self.links.entry((o.tx, o.rx)).or_insert(LinkBaseline {
            ewma_rssi: o.rssi as f64,
            ewma_lqi: o.lqi as f64,
            samples: 0,
            last_heard: o.at,
            first_drift_at: None,
            over_streak: 0,
            silenced: false,
        });
        e.last_heard = o.at;
        e.silenced = false;
        e.samples = e.samples.saturating_add(1);
        if e.samples < MIN_SAMPLES {
            // Warm-up: absorb unconditionally.
            e.ewma_rssi += ALPHA * (o.rssi as f64 - e.ewma_rssi);
            e.ewma_lqi += ALPHA * (o.lqi as f64 - e.ewma_lqi);
            return None;
        }
        let dev_rssi = e.ewma_rssi - o.rssi as f64;
        let dev_lqi = e.ewma_lqi - o.lqi as f64;
        let drifting = dev_rssi >= RSSI_DROP_DB * 0.5 || dev_lqi >= LQI_DROP * 0.5;
        if drifting {
            // Freeze the baseline so a gradual ramp cannot chase the
            // EWMA down and mask itself.
            if e.first_drift_at.is_none() {
                e.first_drift_at = Some(o.at);
            }
        } else {
            e.first_drift_at = None;
            e.over_streak = 0;
            e.ewma_rssi += ALPHA * (o.rssi as f64 - e.ewma_rssi);
            e.ewma_lqi += ALPHA * (o.lqi as f64 - e.ewma_lqi);
        }
        let over_rssi = dev_rssi >= RSSI_DROP_DB;
        let over_lqi = dev_lqi >= LQI_DROP;
        if over_rssi || over_lqi {
            e.over_streak += 1;
            if e.over_streak >= CONFIRM {
                e.over_streak = 0;
                let (kind, baseline, observed) = if over_rssi {
                    (DriftKind::Rssi, e.ewma_rssi, o.rssi as f64)
                } else {
                    (DriftKind::Lqi, e.ewma_lqi, o.lqi as f64)
                };
                return Some(Suspicion {
                    tx: o.tx,
                    rx: o.rx,
                    at: o.at,
                    kind,
                    baseline,
                    observed,
                    first_drift_at: e.first_drift_at.unwrap_or(o.at),
                });
            }
        } else if drifting {
            // Between half and full threshold: drifting but not yet an
            // alarm candidate.
            e.over_streak = 0;
        }
        None
    }

    /// Raise a silence alarm for every established link that has been
    /// quiet longer than `SILENCE_AFTER`. Each link alarms once per
    /// quiet spell (hearing it again re-arms the alarm).
    pub fn sweep_silent(&mut self, now: SimTime) -> Vec<Suspicion> {
        let mut out = Vec::new();
        for (&(tx, rx), e) in self.links.iter_mut() {
            if e.samples < MIN_SAMPLES || e.silenced {
                continue;
            }
            if now.saturating_since(e.last_heard) <= SILENCE_AFTER {
                continue;
            }
            e.silenced = true;
            out.push(Suspicion {
                tx,
                rx,
                at: now,
                kind: DriftKind::Silence,
                baseline: e.ewma_rssi,
                observed: 0.0,
                first_drift_at: e.last_heard,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(tx: u16, rx: u16, at_ms: u64, rssi: i8, lqi: u8) -> LinkObs {
        LinkObs {
            at: SimTime::from_millis(at_ms),
            tx,
            rx,
            lqi,
            rssi,
            beacon: true,
        }
    }

    fn warmed(det: &mut LinkDetector, rssi: i8, lqi: u8) -> u64 {
        let mut t = 0;
        for _ in 0..12 {
            assert!(det.observe(&obs(1, 2, t, rssi, lqi)).is_none());
            t += 2000;
        }
        t
    }

    #[test]
    fn stable_link_never_alarms() {
        let mut det = LinkDetector::new();
        let mut t = 0;
        // ±1 dB / ±2 LQI jitter around a stable point.
        for i in 0..200u64 {
            let rssi = -60 + (i % 3) as i8 - 1;
            let lqi = 105 + (i % 5) as u8;
            assert!(det.observe(&obs(1, 2, t, rssi, lqi)).is_none(), "i={i}");
            t += 2000;
        }
        assert_eq!(det.links_tracked(), 1);
        let (rssi, _) = det.baseline(1, 2).unwrap();
        assert!((rssi - -60.0).abs() < 2.0, "baseline {rssi}");
    }

    #[test]
    fn rssi_step_alarms_after_confirmation() {
        let mut det = LinkDetector::new();
        let mut t = warmed(&mut det, -60, 106);
        // A 10 dB drop: first over-threshold sample arms, second fires.
        assert!(det.observe(&obs(1, 2, t, -70, 106)).is_none());
        t += 2000;
        let s = det
            .observe(&obs(1, 2, t, -70, 106))
            .expect("second confirming sample alarms");
        assert_eq!(s.kind, DriftKind::Rssi);
        assert_eq!((s.tx, s.rx), (1, 2));
        assert!(s.baseline > -62.0 && s.baseline < -58.0);
        // Drift onset was the first degraded sample, not the alarm.
        assert_eq!(s.first_drift_at, SimTime::from_millis(t - 2000));
    }

    #[test]
    fn gradual_ramp_cannot_outrun_a_frozen_baseline() {
        let mut det = LinkDetector::new();
        let mut t = warmed(&mut det, -60, 106);
        // 2 dB per sample: slow enough that an unfrozen EWMA with
        // alpha 0.15 would track it down without ever alarming.
        let mut rssi = -60f64;
        let mut alarmed = false;
        for _ in 0..30 {
            rssi -= 2.0;
            if det.observe(&obs(1, 2, t, rssi as i8, 106)).is_some() {
                alarmed = true;
                break;
            }
            t += 2000;
        }
        assert!(alarmed, "ramp escaped detection");
    }

    #[test]
    fn lqi_collapse_alarms_without_rssi_movement() {
        let mut det = LinkDetector::new();
        let mut t = warmed(&mut det, -60, 108);
        // Noise burst: RSSI unchanged, LQI falls to the floor.
        assert!(det.observe(&obs(1, 2, t, -60, 55)).is_none());
        t += 2000;
        let s = det.observe(&obs(1, 2, t, -60, 55)).expect("lqi alarm");
        assert_eq!(s.kind, DriftKind::Lqi);
    }

    #[test]
    fn silence_fires_once_per_quiet_spell() {
        let mut det = LinkDetector::new();
        let end = warmed(&mut det, -60, 106);
        // Not silent yet at +10 s…
        assert!(det
            .sweep_silent(SimTime::from_millis(end + 10_000))
            .is_empty());
        // …silent at +13 s, exactly once.
        let alarms = det.sweep_silent(SimTime::from_millis(end + 13_000));
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].kind, DriftKind::Silence);
        assert_eq!(
            alarms[0].first_drift_at,
            SimTime::from_millis(end - 2000),
            "onset = last frame heard"
        );
        assert!(det
            .sweep_silent(SimTime::from_millis(end + 20_000))
            .is_empty());
        // Hearing the link again re-arms the silence alarm.
        assert!(det.observe(&obs(1, 2, end + 30_000, -60, 106)).is_none());
        assert_eq!(
            det.sweep_silent(SimTime::from_millis(end + 50_000)).len(),
            1
        );
    }

    #[test]
    fn warmup_links_do_not_alarm_on_silence() {
        let mut det = LinkDetector::new();
        det.observe(&obs(3, 4, 0, -70, 90));
        assert!(det.sweep_silent(SimTime::from_millis(60_000)).is_empty());
    }
}
