//! High-level command surface of the LiteView toolkit.
//!
//! These types are what the workstation user manipulates; they map
//! one-to-one onto the shell commands the paper demonstrates
//! (`ping 192.168.0.2 round=1 length=32`, `traceroute 192.168.0.3
//! round=1 length=32 port=10`, `neighborsetup`/`list`/`blacklist`/
//! `update`, and the radio power/channel utilities).

use crate::observe::NodeDelta;
use crate::wire::{HopRecord, PingRound, WireLogEntry, WireNeighbor};
use lv_net::packet::Port;
use lv_sim::{Counters, SimDuration, SimTime, TraceEvent};
use serde::{Deserialize, Serialize};

/// The interpreter's listening port on the workstation bridge node.
pub const WORKSTATION_PORT: Port = Port(4);

/// Broadcast target for group operations (all nodes in radio range of
/// the workstation's bridge mote).
pub const GROUP_TARGET: u16 = 0xFFFF;

/// The per-command-session reply port used by ping/traceroute tasks.
pub fn session_port(session: u16) -> Port {
    Port(100 + (session % 100) as u8)
}

/// A user-level command.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Command {
    /// Show power/channel/queue/neighbor-count in one round trip.
    Status,
    /// Broadcast a status query to every node in range; replies are
    /// individually jittered so they do not collide (Section IV.B:
    /// "if the management workstation is operating on a group of
    /// nodes, these nodes wait for random backoff delays").
    GroupStatus,
    /// Read the transmission power level.
    GetPower,
    /// Set the transmission power level (CC2420 `PA_LEVEL`, 0–31).
    SetPower(u8),
    /// Read the radio channel.
    GetChannel,
    /// Set the radio channel (11–26).
    SetChannel(u8),
    /// List the kernel neighbor table.
    NeighborList {
        /// Include the link-quality columns.
        with_quality: bool,
    },
    /// Blacklist (or un-blacklist) a neighbor.
    Blacklist {
        /// Neighbor node id.
        neighbor: u16,
        /// `true` adds to the blacklist, `false` removes.
        add: bool,
    },
    /// Retune the neighbor-beacon exchange frequency.
    UpdateBeacon {
        /// New beacon period.
        period: SimDuration,
    },
    /// Toggle the node's on-demand event logging.
    SetLogging(bool),
    /// Retrieve the node's event log (most recent `max` entries).
    ReadLog {
        /// Maximum entries to fetch.
        max: u8,
    },
    /// `ping <dst> round=<rounds> length=<length> [port=<p>]`.
    Ping {
        /// Destination node id.
        dst: u16,
        /// Probe rounds.
        rounds: u8,
        /// Probe length in bytes.
        length: u8,
        /// Carrying protocol port for multi-hop pings (`None` = one hop).
        port: Option<Port>,
    },
    /// `traceroute <dst> length=<length> port=<p>`.
    Traceroute {
        /// Destination node id.
        dst: u16,
        /// Probe length in bytes.
        length: u8,
        /// Carrying protocol port (names the routing protocol).
        port: Port,
    },
}

impl Command {
    /// The response window the interpreter waits before declaring the
    /// command finished. "By default, all commands have a response delay
    /// of 500 milliseconds"; traceroute is "one notable exception" and
    /// gets a generous ceiling (it normally completes much earlier and
    /// signals done explicitly).
    pub fn window(&self) -> SimDuration {
        match self {
            Command::Ping { rounds, .. } => SimDuration::from_millis(500) * (*rounds).max(1) as u64,
            Command::Traceroute { .. } => SimDuration::from_secs(15),
            _ => SimDuration::from_millis(500),
        }
    }

    /// Extra simulated time `exec` runs beyond the nominal window so
    /// that results finalized *at* the window edge (a ping round that
    /// timed out at exactly 500 ms) still reach the workstation. Not
    /// counted in the reported response delay.
    pub fn grace(&self) -> SimDuration {
        match self {
            Command::Ping { .. } => SimDuration::from_millis(150),
            _ => SimDuration::ZERO,
        }
    }

    /// Whether the interpreter may finish before the window elapses.
    /// Only traceroute does — "One notable exception to the 500
    /// milliseconds response time is the traceroute command", which
    /// signals completion explicitly; everything else (including
    /// neighborhood management and single-hop ping) deliberately waits
    /// out the full fixed window.
    pub fn completes_early(&self) -> bool {
        matches!(self, Command::Traceroute { .. })
    }
}

/// One node's row in a group status survey.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusRow {
    /// Responding node.
    pub node: u16,
    /// Its power level.
    pub power: u8,
    /// Its channel.
    pub channel: u8,
    /// Its transmit-queue occupancy.
    pub queue: u8,
    /// Its neighbor count.
    pub neighbors: u8,
}

/// A finished ping command.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PingOutcome {
    /// Destination node.
    pub target: u16,
    /// Probes sent.
    pub sent: u8,
    /// Replies received.
    pub received: u8,
    /// The prober's power level.
    pub power: u8,
    /// The prober's channel.
    pub channel: u8,
    /// Per-round measurements (lost rounds absent).
    pub rounds: Vec<PingRound>,
}

impl PingOutcome {
    /// Probes lost.
    pub fn lost(&self) -> u8 {
        self.sent.saturating_sub(self.received)
    }
}

/// One hop of a finished traceroute, with the time its report reached
/// the workstation (measured from command issue — the Fig. 5 metric).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceHop {
    /// The report.
    pub record: HopRecord,
    /// Report arrival time relative to command issue.
    pub arrival: SimDuration,
}

/// A finished traceroute command.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceOutcome {
    /// Carrying protocol name ("geographic forwarding").
    pub protocol: Option<String>,
    /// Hop reports in arrival order.
    pub hops: Vec<TraceHop>,
    /// Whether a report from the destination's hop arrived.
    pub reached: bool,
}

impl TraceOutcome {
    /// Reports received.
    pub fn received(&self) -> usize {
        self.hops.iter().filter(|h| !h.record.probe_lost).count()
    }

    /// Reports indicating a lost probe.
    pub fn lost(&self) -> usize {
        self.hops.len() - self.received()
    }
}

/// What a command produced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommandResult {
    /// Success without data.
    Ok,
    /// Status snapshot.
    Status {
        /// Power level.
        power: u8,
        /// Channel.
        channel: u8,
        /// Transmit-queue occupancy.
        queue: u8,
        /// Neighbor count.
        neighbors: u8,
    },
    /// Power level.
    Power(u8),
    /// Channel number.
    Channel(u8),
    /// Neighbor-table dump.
    Neighbors(Vec<WireNeighbor>),
    /// Group survey rows, one per responding node.
    GroupStatus(Vec<StatusRow>),
    /// Event-log dump.
    Log(Vec<WireLogEntry>),
    /// Ping measurements.
    Ping(PingOutcome),
    /// Traceroute measurements.
    Traceroute(TraceOutcome),
    /// The target node never answered inside the window.
    Timeout,
    /// The node refused the command.
    Error(u8),
}

/// A command execution, as returned by the workstation driver.
///
/// `PartialEq` compares every field — the sim/live parity harness uses
/// it to assert that both transport backends produce identical
/// executions, and the wire protocol ships it whole to thin clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Execution {
    /// The command issued.
    pub command: Command,
    /// The target node.
    pub target: u16,
    /// When the command was issued (virtual time).
    pub issued_at: SimTime,
    /// Total response delay — the full window for fixed-window commands,
    /// or time-to-completion for variable ones.
    pub response_delay: SimDuration,
    /// The result.
    pub result: CommandResult,
    /// Causal event timeline: every trace event the network emitted
    /// during the command window (empty if the trace sink is disabled).
    pub timeline: Vec<TraceEvent>,
    /// Global counter movement during the command window.
    pub counter_delta: Counters,
    /// Per-node counter movement during the window — for a multi-hop
    /// command this is the per-hop cost profile along the path.
    pub node_deltas: Vec<NodeDelta>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_window_is_500ms() {
        // "By default, all commands have a response delay of 500
        // milliseconds."
        assert_eq!(Command::GetPower.window(), SimDuration::from_millis(500));
        assert_eq!(
            Command::Blacklist {
                neighbor: 1,
                add: true
            }
            .window(),
            SimDuration::from_millis(500)
        );
        assert!(!Command::GetPower.completes_early());
    }

    #[test]
    fn traceroute_window_is_longer() {
        let tr = Command::Traceroute {
            dst: 8,
            length: 32,
            port: Port(10),
        };
        assert!(tr.window() > SimDuration::from_secs(5));
        assert!(tr.completes_early());
    }

    #[test]
    fn ping_window_scales_with_rounds() {
        let one = Command::Ping {
            dst: 2,
            rounds: 1,
            length: 32,
            port: None,
        };
        let five = Command::Ping {
            dst: 2,
            rounds: 5,
            length: 32,
            port: None,
        };
        assert!(five.window() > one.window());
    }

    #[test]
    fn session_ports_stay_in_range() {
        for s in [0u16, 1, 99, 100, 5555, u16::MAX] {
            let p = session_port(s).0;
            assert!((100..200).contains(&p), "port {p}");
        }
    }

    #[test]
    fn ping_outcome_lost_arithmetic() {
        let o = PingOutcome {
            target: 2,
            sent: 5,
            received: 3,
            power: 31,
            channel: 17,
            rounds: vec![],
        };
        assert_eq!(o.lost(), 2);
    }
}
