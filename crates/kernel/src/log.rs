//! Per-node on-demand event logging.
//!
//! LiteOS provides "support for understanding system dynamics based on
//! on-demand logging of internal events"; LiteView's runtime controller
//! reads this log back to the workstation. Logging is off by default
//! (zero overhead) and bounded when on.

use lv_sim::{Ring, SimTime};

/// One logged kernel event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// When it happened.
    pub at: SimTime,
    /// Short event code ("tx", "rx", "spawn", …).
    pub code: &'static str,
    /// Free-form detail.
    pub detail: String,
}

/// A bounded, switchable event log: a [`Ring`] of entries behind an
/// on/off switch.
#[derive(Debug, Clone)]
pub struct EventLog {
    enabled: bool,
    entries: Ring<LogEntry>,
}

impl EventLog {
    /// A disabled log with the given capacity once enabled.
    pub fn new(capacity: usize) -> Self {
        EventLog {
            enabled: false,
            entries: Ring::new(capacity),
        }
    }

    /// Turn logging on or off (the on-demand part).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Record an event if enabled.
    pub fn record(&mut self, at: SimTime, code: &'static str, detail: impl Into<String>) {
        if !self.enabled {
            return;
        }
        self.entries.push(LogEntry {
            at,
            code,
            detail: detail.into(),
        });
    }

    /// All retained entries, oldest first.
    pub fn entries(&self) -> &[LogEntry] {
        self.entries.as_slice()
    }

    /// How many entries have been lost to the capacity bound.
    pub fn overwritten(&self) -> u64 {
        self.entries.dropped()
    }

    /// Drop everything recorded so far.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl Default for EventLog {
    /// A small mote-appropriate default (64 entries).
    fn default() -> Self {
        Self::new(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        let mut log = EventLog::default();
        log.record(SimTime::ZERO, "tx", "frame 1");
        assert!(log.entries().is_empty());
    }

    #[test]
    fn records_when_enabled() {
        let mut log = EventLog::default();
        log.set_enabled(true);
        log.record(SimTime::from_millis(1), "tx", "frame 1");
        log.record(SimTime::from_millis(2), "rx", "frame 2");
        assert_eq!(log.entries().len(), 2);
    }

    #[test]
    fn bounded_with_overwrite_count() {
        let mut log = EventLog::new(2);
        log.set_enabled(true);
        for i in 0..5u64 {
            log.record(SimTime::from_millis(i), "e", i.to_string());
        }
        assert_eq!(log.entries().len(), 2);
        assert_eq!(log.overwritten(), 3);
        assert_eq!(log.entries()[0].detail, "3");
    }

    #[test]
    fn batched_compaction_preserves_ring_semantics() {
        let mut log = EventLog::new(3);
        log.set_enabled(true);
        for i in 0..50u64 {
            log.record(SimTime::from_millis(i), "e", i.to_string());
        }
        let details: Vec<&str> = log.entries().iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, vec!["47", "48", "49"]);
        assert_eq!(log.overwritten(), 47);
    }

    #[test]
    fn clear_resets() {
        let mut log = EventLog::default();
        log.set_enabled(true);
        log.record(SimTime::ZERO, "e", "x");
        log.clear();
        assert!(log.entries().is_empty());
        assert_eq!(log.overwritten(), 0);
    }
}
