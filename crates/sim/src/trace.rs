//! Bounded in-memory event tracing.
//!
//! LiteOS offers "on-demand logging of internal events"; the simulator's
//! equivalent is a ring buffer of trace records that examples and tests
//! can inspect after a run. Tracing is level-gated so that hot paths pay
//! one branch when disabled.

use crate::ring::Ring;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Severity / verbosity of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TraceLevel {
    /// Anomalies the simulator recovered from (a dynamics action naming
    /// a node that does not exist). Kept whenever `Info` is.
    Warn,
    /// Always-interesting events (command issued, command completed).
    Info,
    /// Per-packet events (transmission start, reception, drop).
    Packet,
    /// Internal state-machine detail (backoff draws, CCA results).
    Debug,
}

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual time the event occurred.
    pub at: SimTime,
    /// Node the event is attributed to (`u16::MAX` = the workstation /
    /// no specific node).
    pub node: u16,
    /// Severity.
    pub level: TraceLevel,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} n{}] {}", self.at, self.node, self.message)
    }
}

/// A bounded trace sink: a [`Ring`] of records behind a level gate.
pub struct Trace {
    level: Option<TraceLevel>,
    events: Ring<TraceEvent>,
}

impl Trace {
    /// Node id used for events not attributable to a sensor node.
    pub const NO_NODE: u16 = u16::MAX;

    /// A disabled trace (records nothing, costs one branch per call).
    pub fn disabled() -> Self {
        Trace {
            level: None,
            events: Ring::new(0),
        }
    }

    /// A trace capturing events up to `level`, keeping at most `capacity`
    /// records (oldest dropped first).
    pub fn enabled(level: TraceLevel, capacity: usize) -> Self {
        Trace {
            level: Some(level),
            events: Ring::new(capacity),
        }
    }

    /// True if records at `level` would be kept.
    pub fn accepts(&self, level: TraceLevel) -> bool {
        self.level.is_some_and(|max| level <= max)
    }

    /// Record an event (no-op if the level is filtered out).
    // lv-lint: hot
    pub fn emit(&mut self, at: SimTime, node: u16, level: TraceLevel, message: impl Into<String>) {
        if !self.accepts(level) {
            return;
        }
        self.events.push(TraceEvent {
            at,
            node,
            level,
            message: message.into(),
        });
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        self.events.as_slice()
    }

    /// Records evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.events.dropped()
    }

    /// Retained events whose message contains `needle`.
    pub fn find(&self, needle: &str) -> Vec<&TraceEvent> {
        self.events()
            .iter()
            .filter(|e| e.message.contains(needle))
            .collect()
    }

    /// Retained events at or after `at`, oldest first — the causal
    /// timeline of whatever started at `at` (a command dispatch, say).
    pub fn events_since(&self, at: SimTime) -> impl Iterator<Item = &TraceEvent> {
        self.events().iter().filter(move |e| e.at >= at)
    }

    /// Retained events attributed to `node`, oldest first.
    pub fn events_for(&self, node: u16) -> impl Iterator<Item = &TraceEvent> {
        self.events().iter().filter(move |e| e.node == node)
    }

    /// Discard all retained events (the level gate is unchanged).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl Default for Trace {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Trace::disabled();
        t.emit(SimTime::ZERO, 1, TraceLevel::Info, "hello");
        assert!(t.events().is_empty());
        assert!(!t.accepts(TraceLevel::Info));
    }

    #[test]
    fn level_filtering() {
        let mut t = Trace::enabled(TraceLevel::Packet, 16);
        t.emit(SimTime::ZERO, 1, TraceLevel::Info, "info");
        t.emit(SimTime::ZERO, 1, TraceLevel::Packet, "pkt");
        t.emit(SimTime::ZERO, 1, TraceLevel::Debug, "dbg");
        let msgs: Vec<&str> = t.events().iter().map(|e| e.message.as_str()).collect();
        assert_eq!(msgs, vec!["info", "pkt"]);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut t = Trace::enabled(TraceLevel::Debug, 3);
        for i in 0..5 {
            t.emit(SimTime::from_nanos(i), 0, TraceLevel::Info, format!("e{i}"));
        }
        let msgs: Vec<&str> = t.events().iter().map(|e| e.message.as_str()).collect();
        assert_eq!(msgs, vec!["e2", "e3", "e4"]);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn batched_compaction_preserves_ring_semantics() {
        // Push far past 2× capacity so the drain-based compaction fires
        // repeatedly; the observable window must match a plain ring.
        let mut t = Trace::enabled(TraceLevel::Debug, 4);
        for i in 0..100u64 {
            t.emit(SimTime::from_nanos(i), 0, TraceLevel::Info, format!("e{i}"));
        }
        let msgs: Vec<&str> = t.events().iter().map(|e| e.message.as_str()).collect();
        assert_eq!(msgs, vec!["e96", "e97", "e98", "e99"]);
        assert_eq!(t.dropped(), 96);
        assert_eq!(t.find("e97").len(), 1);
        assert_eq!(t.events_since(SimTime::from_nanos(98)).count(), 2);
    }

    #[test]
    fn find_matches_substring() {
        let mut t = Trace::enabled(TraceLevel::Debug, 16);
        t.emit(SimTime::ZERO, 3, TraceLevel::Packet, "tx seq=4");
        t.emit(SimTime::ZERO, 3, TraceLevel::Packet, "rx seq=4");
        t.emit(SimTime::ZERO, 3, TraceLevel::Packet, "drop crc");
        assert_eq!(t.find("seq=4").len(), 2);
        assert_eq!(t.find("drop").len(), 1);
        assert_eq!(t.find("nothing").len(), 0);
    }

    #[test]
    fn since_and_for_node_filters() {
        let mut t = Trace::enabled(TraceLevel::Debug, 16);
        t.emit(SimTime::from_millis(1), 1, TraceLevel::Info, "early");
        t.emit(SimTime::from_millis(5), 2, TraceLevel::Info, "late a");
        t.emit(SimTime::from_millis(9), 1, TraceLevel::Info, "late b");
        assert_eq!(t.events_since(SimTime::from_millis(5)).count(), 2);
        assert_eq!(t.events_for(1).count(), 2);
        t.clear();
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
        // Still enabled after clear.
        t.emit(SimTime::ZERO, 0, TraceLevel::Info, "again");
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn display_format() {
        let e = TraceEvent {
            at: SimTime::from_millis(1),
            node: 7,
            level: TraceLevel::Info,
            message: "boot".into(),
        };
        assert_eq!(format!("{e}"), "[1.000ms n7] boot");
    }
}
