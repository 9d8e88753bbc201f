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
//! global event timeline, and each command's [`Execution`]: the typed
//! command, its full result, and the events and per-hop counter
//! movement it caused. It is the same record the session wire ships
//! whole, so a command has one form wherever it is read.

use crate::commands::Execution;
use lv_kernel::{Network, NodeStats};
use lv_sim::{Counters, SimTime, TraceEvent};
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
    /// The workstation's retained history, oldest first (the most
    /// recent [`crate::workstation::HISTORY_CAPACITY`] executions).
    pub executions: Vec<Execution>,
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
            executions: executions.to_vec(),
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

#[cfg(test)]
mod tests {
    use super::*;

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
