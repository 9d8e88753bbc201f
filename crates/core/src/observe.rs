//! The observability layer: the network-wide flight recorder
//! (`DESIGN.md` §9).
//!
//! The paper's thesis is that communication failures in sensor networks
//! are diagnosed *interactively* — but interactive probing is only half
//! of visibility. This module adds the other half: every layer of the
//! simulated deployment (kernel scheduler, CSMA MAC, network stack,
//! command protocols) feeds counters and trace events into a single
//! causally-ordered record, and the workstation can export the whole
//! thing as a JSON [`ObservabilityReport`] — per-node health pages, the
//! global event timeline, and one [`ExecutionRecord`] per command with
//! the events and per-hop counter movement it caused.

use crate::commands::{Command, CommandResult, Execution};
use lv_kernel::{Network, NodeStats};
use lv_sim::{Counters, SimDuration, SimTime, TraceEvent};
use serde::{Deserialize, Serialize};

/// One node's counter movement during a command window — the per-hop
/// cost breakdown attached to an [`Execution`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeDelta {
    /// The node whose counters moved.
    pub node: u16,
    /// What moved, and by how much (zero deltas omitted).
    pub counters: Counters,
}

/// A serializable record of one command execution: what ran, what came
/// back, and the flight-recorder slice it caused.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutionRecord {
    /// The command, rendered for humans.
    pub command: String,
    /// The target node (`0xFFFF` for group operations).
    pub target: u16,
    /// Virtual time the command was issued.
    pub issued_at: SimTime,
    /// Reported response delay.
    pub response_delay: SimDuration,
    /// One-line outcome summary.
    pub outcome: String,
    /// Trace events emitted anywhere in the network during the window.
    pub timeline: Vec<TraceEvent>,
    /// Global counter movement during the window.
    pub counter_delta: Counters,
    /// Per-node counter movement during the window, node order.
    pub node_deltas: Vec<NodeDelta>,
}

impl ExecutionRecord {
    /// Flatten an [`Execution`] into its serializable record.
    pub fn from_execution(e: &Execution) -> ExecutionRecord {
        ExecutionRecord {
            command: command_summary(&e.command),
            target: e.target,
            issued_at: e.issued_at,
            response_delay: e.response_delay,
            outcome: outcome_summary(&e.result),
            timeline: e.timeline.clone(),
            counter_delta: e.counter_delta.clone(),
            node_deltas: e.node_deltas.clone(),
        }
    }
}

/// A network-wide flight-recorder snapshot: every node's health page,
/// the global counters and event timeline, and a record per executed
/// command. Round-trips through JSON.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObservabilityReport {
    /// Virtual time of the snapshot.
    pub captured_at: SimTime,
    /// Deployment size.
    pub node_count: usize,
    /// Global kernel counters (tx/rx/net/mac/sys namespaces).
    pub global: Counters,
    /// Per-node health and traffic snapshots, node order.
    pub nodes: Vec<NodeStats>,
    /// The retained event timeline (ring buffer contents).
    pub timeline: Vec<TraceEvent>,
    /// Events lost to the ring buffer's capacity.
    pub trace_dropped: u64,
    /// One record per command in the workstation's retained history
    /// (the most recent [`crate::workstation::HISTORY_CAPACITY`]).
    pub executions: Vec<ExecutionRecord>,
    /// Closed diagnosis episodes from the automated engine, if armed
    /// (absent in reports captured before the engine existed).
    #[serde(default)]
    pub diagnosis: Vec<crate::diagnose::DiagnosisReport>,
}

impl ObservabilityReport {
    /// Capture the deployment's current state plus the given execution
    /// history.
    pub fn capture(net: &Network, executions: &[Execution]) -> ObservabilityReport {
        ObservabilityReport {
            captured_at: net.now(),
            node_count: net.node_count(),
            global: net.counters.clone(),
            nodes: net.node_stats(),
            timeline: net.trace.events(),
            trace_dropped: net.trace.dropped(),
            executions: executions
                .iter()
                .map(ExecutionRecord::from_execution)
                .collect(),
            diagnosis: Vec::new(),
        }
    }

    /// Serialize to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        // Serialization of plain data types cannot fail; degrade to an
        // empty object rather than aborting a live deployment.
        serde_json::to_string_pretty(self).unwrap_or_else(|_| String::from("{}"))
    }

    /// Parse a report back from JSON (`None` on malformed input).
    pub fn from_json(s: &str) -> Option<ObservabilityReport> {
        serde_json::from_str(s).ok()
    }
}

/// Render a command the way the shell would spell it.
pub fn command_summary(c: &Command) -> String {
    match c {
        Command::Status => "status".into(),
        Command::GroupStatus => "survey".into(),
        Command::GetPower => "power".into(),
        Command::SetPower(level) => format!("power {level}"),
        Command::GetChannel => "channel".into(),
        Command::SetChannel(n) => format!("channel {n}"),
        Command::NeighborList { with_quality } => {
            if *with_quality {
                "list quality".into()
            } else {
                "list".into()
            }
        }
        Command::Blacklist { neighbor, add } => {
            format!(
                "blacklist {} {neighbor}",
                if *add { "add" } else { "remove" }
            )
        }
        Command::UpdateBeacon { period } => format!("update period={}ms", period.as_millis()),
        Command::SetLogging(on) => format!("log {}", if *on { "on" } else { "off" }),
        Command::ReadLog { max } => format!("readlog {max}"),
        Command::Ping {
            dst,
            rounds,
            length,
            port,
        } => match port {
            Some(p) => format!("ping {dst} round={rounds} length={length} port={}", p.0),
            None => format!("ping {dst} round={rounds} length={length}"),
        },
        Command::Traceroute { dst, length, port } => {
            format!("traceroute {dst} length={length} port={}", port.0)
        }
    }
}

/// One-line outcome description for a record.
pub fn outcome_summary(r: &CommandResult) -> String {
    match r {
        CommandResult::Ok => "ok".into(),
        CommandResult::Status { .. } => "status".into(),
        CommandResult::Power(p) => format!("power={p}"),
        CommandResult::Channel(c) => format!("channel={c}"),
        CommandResult::Neighbors(rows) => format!("{} neighbors", rows.len()),
        CommandResult::GroupStatus(rows) => format!("{} responders", rows.len()),
        CommandResult::Log(rows) => format!("{} log entries", rows.len()),
        CommandResult::Ping(o) => format!("{}/{} replies", o.received, o.sent),
        CommandResult::Traceroute(t) => format!(
            "{} hop reports{}",
            t.hops.len(),
            if t.reached {
                ", destination reached"
            } else {
                ""
            }
        ),
        CommandResult::Timeout => "timeout".into(),
        CommandResult::Error(code) => format!("error {code}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_net::packet::Port;

    #[test]
    fn command_summaries_read_like_shell_lines() {
        assert_eq!(
            command_summary(&Command::Ping {
                dst: 2,
                rounds: 1,
                length: 32,
                port: None
            }),
            "ping 2 round=1 length=32"
        );
        assert_eq!(
            command_summary(&Command::Traceroute {
                dst: 3,
                length: 32,
                port: Port(10)
            }),
            "traceroute 3 length=32 port=10"
        );
        assert_eq!(
            command_summary(&Command::Blacklist {
                neighbor: 9,
                add: true
            }),
            "blacklist add 9"
        );
    }

    #[test]
    fn empty_report_round_trips_through_json() {
        let report = ObservabilityReport {
            captured_at: SimTime::from_millis(1234),
            node_count: 0,
            global: Counters::new(),
            nodes: Vec::new(),
            timeline: Vec::new(),
            trace_dropped: 0,
            executions: Vec::new(),
            diagnosis: Vec::new(),
        };
        let json = report.to_json();
        let back = ObservabilityReport::from_json(&json).expect("parses");
        assert_eq!(back.captured_at, report.captured_at);
        assert_eq!(back.node_count, 0);
        assert!(back.nodes.is_empty());
    }
}
