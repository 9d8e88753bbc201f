//! Serializable result rows — one type per table/figure of the paper.
//!
//! The `figures` harness (in `lv-bench`) prints these as aligned text
//! and as JSON, so `EXPERIMENTS.md` can quote regenerated numbers
//! verbatim.

use serde::Serialize;

/// Fig. 5 — traceroute response delay per hop.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Row {
    /// 1-based hop index along the 8-hop path.
    pub hop: u8,
    /// Time the hop's report reached the workstation, ms from issue.
    pub delay_ms: f64,
}

/// Fig. 6 — per-hop RSSI readings at two power levels, both directions.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Row {
    /// 1-based hop index.
    pub hop: u8,
    /// Forward-link RSSI at power level 10.
    pub fwd_p10: i8,
    /// Backward-link RSSI at power level 10.
    pub bwd_p10: i8,
    /// Forward-link RSSI at power level 25.
    pub fwd_p25: i8,
    /// Backward-link RSSI at power level 25.
    pub bwd_p25: i8,
}

/// Fig. 7 — traceroute command overhead vs path length.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Row {
    /// Path length in hops.
    pub hops: u8,
    /// Control (data-plane) packets transmitted by the command.
    pub control_packets: u64,
    /// Link-layer acknowledgements on top.
    pub acks: u64,
}

/// T-resp — response delay of the fixed-window commands.
#[derive(Debug, Clone, Serialize)]
pub struct TrespRow {
    /// Command name.
    pub command: String,
    /// Trials run.
    pub trials: u32,
    /// Mean reported response delay, ms.
    pub mean_ms: f64,
    /// Minimum, ms.
    pub min_ms: f64,
    /// Maximum, ms.
    pub max_ms: f64,
    /// Trials that produced a non-timeout result.
    pub answered: u32,
}

/// T-ping — the sample single-hop ping of Section III.B.3.
#[derive(Debug, Clone, Serialize)]
pub struct TpingRow {
    /// Round-trip time, ms.
    pub rtt_ms: f64,
    /// LQI forward/backward.
    pub lqi_fwd: u8,
    /// LQI backward.
    pub lqi_bwd: u8,
    /// RSSI forward/backward.
    pub rssi_fwd: i8,
    /// RSSI backward.
    pub rssi_bwd: i8,
    /// Queue occupancy forward/backward.
    pub queue_fwd: u8,
    /// Queue backward.
    pub queue_bwd: u8,
    /// Power level at the prober.
    pub power: u8,
    /// Channel at the prober.
    pub channel: u8,
}

/// T-pad — the link-quality padding budget.
#[derive(Debug, Clone, Serialize)]
pub struct TpadRow {
    /// Probe payload bytes.
    pub probe_payload: usize,
    /// Padding bytes per hop.
    pub bytes_per_hop: usize,
    /// Analytic maximum hops before padding exhausts.
    pub analytic_max_hops: usize,
    /// Hops the path actually had.
    pub path_hops: usize,
    /// Hop-quality entries observed at the prober.
    pub observed_entries: usize,
}

/// T-foot — command image footprints.
#[derive(Debug, Clone, Serialize)]
pub struct TfootRow {
    /// Component name.
    pub component: String,
    /// Flash bytes.
    pub flash_bytes: u32,
    /// Static RAM bytes.
    pub ram_bytes: u32,
}

/// T-ovh1 — one-hop command overhead.
#[derive(Debug, Clone, Serialize)]
pub struct TovhRow {
    /// Command name.
    pub command: String,
    /// Data packets on the air.
    pub data_packets: u64,
    /// Link-layer acks on top.
    pub acks: u64,
}

/// Generic ablation row: `(arm, metric, value)`.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Which design variant.
    pub arm: String,
    /// What was measured.
    pub metric: String,
    /// The measurement.
    pub value: f64,
}

/// One figure's golden determinism digest (the CI regression gate
/// compares these against `goldens/figure_digests.json`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DigestRow {
    /// Which figure the digest covers (`fig5`, `fig6`, `fig7`).
    pub figure: String,
    /// FNV-1a 64 over the figure's serialized rows (stable across
    /// platforms and Rust versions, unlike `DefaultHasher`).
    pub digest: String,
}

/// One probe round of the `figures --dynamics` degradation soak.
#[derive(Debug, Clone, Serialize)]
pub struct DynamicsSoakRow {
    /// Virtual time of the round's traceroute issue, ms.
    pub t_ms: f64,
    /// Whether the traceroute reached the far end of the corridor.
    pub trace_reached: bool,
    /// Whether the injected hop's probe report came back this round.
    pub hop_seen: bool,
    /// Forward LQI on the injected hop (0 when `hop_seen` is false).
    pub hop_lqi: u8,
    /// Forward RSSI on the injected hop (0 when `hop_seen` is false).
    pub hop_rssi: i8,
    /// Whether the end-to-end ping got at least one reply.
    pub ping_ok: bool,
    /// Cumulative `net.neighbor_expired` at the end of the round.
    pub evictions: u64,
    /// Cumulative `net.neighbor_blacklisted` at the end of the round.
    pub blacklists: u64,
}

/// Outcome of the degradation-ramp soak: the acceptance story is
/// `detect_ms < ping_fail_ms < recover_ms` — traceroute pinpoints the
/// weakening hop *before* the end-to-end path dies, and route/neighbor
/// repair brings the path back after the obstacle clears.
#[derive(Debug, Clone, Serialize)]
pub struct DynamicsSoakReport {
    /// Per-round observations.
    pub rounds: Vec<DynamicsSoakRow>,
    /// First round (virtual ms) where the injected hop showed degraded
    /// RSSI/loss while the end-to-end ping still succeeded. -1 if never.
    pub detect_ms: f64,
    /// First round (virtual ms) where the end-to-end ping failed.
    /// -1 if never.
    pub ping_fail_ms: f64,
    /// First round after the repair where the ping succeeded again.
    /// -1 if never.
    pub recover_ms: f64,
    /// Total stale-neighbor evictions over the soak.
    pub evictions: u64,
    /// Total degradation blacklistings over the soak.
    pub blacklists: u64,
    /// `dyn.*` mutations visible in the flight-recorder trace.
    pub dyn_trace_events: u64,
    /// Counter digest of the whole run (replay determinism handle).
    pub digest: String,
    /// Runtime invariant violations observed by the kernel auditor
    /// (`lv_kernel::audit`) over the soak. Must be zero; the nightly
    /// gate fails otherwise.
    pub audit_violations: u64,
}

/// One scenario of the `figures --diagnosis` seeded-fault sweep,
/// scored against its ground-truth labels.
#[derive(Debug, Clone, Serialize)]
pub struct DiagnosisSweepRow {
    /// Scenario name (`ramp-mid`, `ramp-near`, `noise-burst`, `churn`,
    /// `quiet`).
    pub scenario: String,
    /// Ground-truth fault labels seeded into the scenario.
    pub labels: u64,
    /// Labels with at least one matching episode (recall numerator).
    pub labels_detected: u64,
    /// Diagnosis episodes the engine opened.
    pub episodes: u64,
    /// Episodes that match a seeded label in scope and window.
    pub true_positives: u64,
    /// Episodes matching no label (spurious alarms).
    pub false_positives: u64,
    /// Episodes whose ladder localized a link.
    pub localized: u64,
    /// Fraction of episodes that were true positives (1.0 when the
    /// engine stayed silent).
    pub precision: f64,
    /// Fraction of labels detected (1.0 when nothing was seeded).
    pub recall: f64,
    /// Virtual time (ms) the first matching episode opened; -1 if none.
    pub first_detect_ms: f64,
    /// Virtual time (ms) the end-to-end measurement ping first failed
    /// after fault onset; -1 if it never failed.
    pub ping_fail_ms: f64,
    /// Mean detector latency (first drift → alarm) over matching
    /// episodes, ms; -1 when there were none.
    pub mean_detect_latency_ms: f64,
}

/// Outcome of the whole seeded-fault diagnosis sweep. The nightly gate
/// requires `precision >= 0.9`, `recall >= 0.8`, and — for the link-ramp
/// scenarios — detection strictly before the end-to-end ping died.
#[derive(Debug, Clone, Serialize)]
pub struct DiagnosisSweepReport {
    /// Per-scenario scores.
    pub rows: Vec<DiagnosisSweepRow>,
    /// Micro-averaged precision across all scenarios.
    pub precision: f64,
    /// Micro-averaged recall across all scenarios.
    pub recall: f64,
    /// FNV-1a digest over the serialized rows (replay determinism
    /// handle for the CI gate).
    pub digest: String,
}

/// Pretty-print any serializable row set as indented JSON lines.
pub fn to_json_lines<T: Serialize>(rows: &[T]) -> String {
    rows.iter()
        .map(|r| serde_json::to_string(r).expect("rows serialize"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_serialize() {
        let rows = vec![
            Fig5Row {
                hop: 1,
                delay_ms: 312.0,
            },
            Fig5Row {
                hop: 2,
                delay_ms: 711.5,
            },
        ];
        let s = to_json_lines(&rows);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("\"hop\":1"));
    }
}

/// Substrate validation — one distance point of the link characterization.
#[derive(Debug, Clone, Serialize)]
pub struct LinkCharRow {
    /// Transmitter–receiver distance, meters.
    pub distance_m: f64,
    /// Packet reception ratio over the trial batch.
    pub prr: f64,
    /// Mean RSSI register value of received frames.
    pub mean_rssi: f64,
    /// Mean LQI of received frames.
    pub mean_lqi: f64,
}

// ---------------------------------------------------------------------
// Multi-trial aggregate rows (produced through `runner::TrialRunner`)
// ---------------------------------------------------------------------

use crate::stats::AggregateStats;

/// Fig. 5 aggregate — per-hop traceroute response delay across trials.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig5AggRow {
    /// 1-based hop index along the 8-hop path.
    pub hop: u8,
    /// Trials in the run (hops missing in a trial contribute no
    /// sample, so `delay_ms.n` can be smaller).
    pub trials: u64,
    /// Response-delay statistics, ms.
    pub delay_ms: AggregateStats,
}

/// Fig. 6 aggregate — per-hop RSSI at two power levels across trials.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig6AggRow {
    /// 1-based hop index.
    pub hop: u8,
    /// Trials in the run.
    pub trials: u64,
    /// Forward-link RSSI at power level 10.
    pub fwd_p10: AggregateStats,
    /// Backward-link RSSI at power level 10.
    pub bwd_p10: AggregateStats,
    /// Forward-link RSSI at power level 25.
    pub fwd_p25: AggregateStats,
    /// Backward-link RSSI at power level 25.
    pub bwd_p25: AggregateStats,
}

/// Fig. 7 aggregate — traceroute overhead vs path length across trials.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig7AggRow {
    /// Path length in hops.
    pub hops: u8,
    /// Trials in the run.
    pub trials: u64,
    /// Control (data-plane) packet count statistics.
    pub control_packets: AggregateStats,
    /// Link-layer acknowledgement count statistics.
    pub acks: AggregateStats,
}

/// Link-characterization aggregate — one distance point across trials.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LinkCharAggRow {
    /// Transmitter–receiver distance, meters.
    pub distance_m: f64,
    /// Trials in the run.
    pub trials: u64,
    /// Packet-reception-ratio statistics.
    pub prr: AggregateStats,
    /// Mean-RSSI statistics (received frames only; trials with no
    /// receptions contribute no sample).
    pub mean_rssi: AggregateStats,
    /// Mean-LQI statistics (same sampling rule as `mean_rssi`).
    pub mean_lqi: AggregateStats,
}

/// Failure-injection sweep — diagnosis outcome under one failure plan.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FailureSweepRow {
    /// Failure mode label (see `runner::FailureMode::label`).
    pub mode: String,
    /// Fraction of trials that received the fault.
    pub fraction: f64,
    /// Trials in the run.
    pub trials: u64,
    /// Trials actually faulted.
    pub faulted: u64,
    /// Probability the traceroute reached its destination (per-trial
    /// 0/1 samples).
    pub reached: AggregateStats,
    /// Hops the trace covered before stopping.
    pub hops_covered: AggregateStats,
    /// Response delay of the last hop report that did arrive, ms.
    pub last_report_ms: AggregateStats,
}
