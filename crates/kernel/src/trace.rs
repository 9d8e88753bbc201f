//! The flight recorder's typed records.
//!
//! Every kernel event the recorder keeps goes through one call,
//! `Network::observe(node, kind)`, which counts it under the kind's
//! counter and, when the trace keeps the kind's level, keeps the
//! [`TraceKind`] value itself. Nothing is formatted while the loop
//! runs: `Display` renders a record's line only when the trace is read
//! (`Trace::events`, `Trace::events_since`), so a command's timeline,
//! the observability report and the session bytes carry the same text
//! as when lines were built at the event.

use crate::network::DynamicsAction;
use lv_mac::{FrameKind, TxFailReason};
use lv_net::ports::ProcessId;
use lv_net::routing::DropReason;
use lv_sim::{CounterId, TraceLevel};
use std::fmt;

/// What one recorded kernel event says: one variant per kind of event,
/// holding the fields its line shows.
#[derive(Debug, Clone, Copy)]
pub enum TraceKind {
    /// A frame went on the air (`tx.data`, `tx.ack`, `tx.beacon`).
    Tx {
        /// The frame's kind.
        kind: FrameKind,
        /// Link-layer destination.
        dst: u16,
        /// Link-layer sequence number.
        seq: u8,
        /// Bytes on the air.
        len: usize,
    },
    /// A frame the radio synced to failed its CRC.
    RxCorrupt {
        /// The transmitting node.
        from: u16,
        /// Bytes on the air.
        len: usize,
    },
    /// A neighbor beacon was received and applied.
    RxBeacon {
        /// The beaconing node.
        from: u16,
        /// Its beacon sequence number.
        seq: u16,
    },
    /// A packet reached the process subscribed on its port.
    NetDeliver {
        /// The subscriber.
        pid: ProcessId,
        /// The packet's origin node.
        origin: u16,
        /// The packet's application port.
        app_port: u8,
    },
    /// A received packet was handed to the MAC toward `next_hop`, or
    /// refused by a full MAC queue (`queued` false).
    NetForward {
        /// Link-layer next hop.
        next_hop: u16,
        /// The packet's origin node.
        origin: u16,
        /// The packet's final destination.
        dst: u16,
        /// Whether the MAC queue took it.
        queued: bool,
    },
    /// A full MAC queue refused a packet this node originated.
    OriginateRefused {
        /// Link-layer next hop.
        next_hop: u16,
        /// The packet's final destination.
        dst: u16,
    },
    /// The network layer dropped a packet.
    NetDrop {
        /// Why.
        reason: DropReason,
    },
    /// An acknowledgement surfaced above the MAC, which consumes them.
    StrayAck {
        /// The acknowledging node.
        from: u16,
        /// The sequence number it acknowledged.
        seq: u8,
    },
    /// The MAC abandoned a frame.
    MacFailed {
        /// Link-layer destination.
        dst: u16,
        /// Link-layer sequence number.
        seq: u8,
        /// Why.
        reason: TxFailReason,
    },
    /// The CSMA machine met an event inconsistent with its state.
    MacAnomaly {
        /// Which transition was inconsistent.
        context: &'static str,
    },
    /// A scheduled world mutation was applied.
    Dynamics(DynamicsAction),
    /// A scheduled world mutation naming a node the network does not
    /// have was dropped.
    DynInvalid {
        /// The dropped action.
        action: DynamicsAction,
        /// How many nodes the network has.
        nodes: usize,
    },
}

impl TraceKind {
    /// The counter a record of this kind ticks.
    pub fn counter_id(&self) -> CounterId {
        match *self {
            TraceKind::Tx { kind, .. } => match kind {
                FrameKind::Data => CounterId::TxData,
                FrameKind::Ack => CounterId::TxAck,
                FrameKind::Beacon => CounterId::TxBeacon,
            },
            TraceKind::RxCorrupt { .. } => CounterId::RxCorrupt,
            TraceKind::RxBeacon { .. } => CounterId::RxBeacon,
            TraceKind::NetDeliver { .. } => CounterId::NetDeliver,
            TraceKind::NetForward { queued: true, .. } => CounterId::NetForward,
            TraceKind::NetForward { queued: false, .. } | TraceKind::OriginateRefused { .. } => {
                CounterId::NetQueueDrop
            }
            TraceKind::NetDrop { reason } => reason.counter_id(),
            TraceKind::StrayAck { .. } | TraceKind::MacAnomaly { .. } => CounterId::MacAnomaly,
            TraceKind::MacFailed { reason, .. } => reason.counter_id(),
            TraceKind::Dynamics(action) => action.counter_id(),
            TraceKind::DynInvalid { .. } => CounterId::DynInvalid,
        }
    }

    /// The level at which the trace keeps a record of this kind.
    pub fn level(&self) -> TraceLevel {
        match self {
            TraceKind::DynInvalid { .. } => TraceLevel::Warn,
            TraceKind::Dynamics(_) => TraceLevel::Info,
            TraceKind::Tx { .. }
            | TraceKind::NetDeliver { .. }
            | TraceKind::NetForward { .. }
            | TraceKind::OriginateRefused { .. }
            | TraceKind::StrayAck { .. } => TraceLevel::Packet,
            TraceKind::RxCorrupt { .. }
            | TraceKind::RxBeacon { .. }
            | TraceKind::NetDrop { .. }
            | TraceKind::MacFailed { .. }
            | TraceKind::MacAnomaly { .. } => TraceLevel::Debug,
        }
    }
}

/// The record's flight-recorder line.
impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceKind::Tx { dst, seq, len, .. } => {
                let name = self.counter_id().name();
                write!(f, "{name} dst={dst} seq={seq} len={len}")
            }
            TraceKind::RxCorrupt { from, len } => write!(f, "rx.corrupt from={from} len={len}"),
            TraceKind::RxBeacon { from, seq } => write!(f, "rx.beacon from={from} seq={seq}"),
            TraceKind::NetDeliver {
                pid,
                origin,
                app_port,
            } => write!(
                f,
                "net.deliver pid={pid} origin={origin} app_port={app_port}"
            ),
            TraceKind::NetForward {
                next_hop,
                origin,
                dst,
                queued,
            } => write!(
                f,
                "net.forward next_hop={next_hop} origin={origin} dst={dst}{}",
                if queued { "" } else { " (queue full)" }
            ),
            TraceKind::OriginateRefused { next_hop, dst } => {
                write!(
                    f,
                    "net.originate next_hop={next_hop} dst={dst} (queue full)"
                )
            }
            TraceKind::NetDrop { reason } => write!(f, "net.drop reason={reason:?}"),
            TraceKind::StrayAck { from, seq } => write!(
                f,
                "mac.anomaly stray ack reached network layer from {from} seq={seq}"
            ),
            TraceKind::MacFailed { dst, seq, reason } => {
                write!(f, "mac.failed dst={dst} seq={seq} reason={reason:?}")
            }
            TraceKind::MacAnomaly { context } => write!(f, "mac.anomaly: {context}"),
            TraceKind::Dynamics(action) => match action {
                DynamicsAction::SetLinkLoss {
                    from,
                    to,
                    extra_loss_db,
                    blocked,
                } => write!(
                    f,
                    "dyn.link {from}->{to} loss={extra_loss_db:.1}dB{}",
                    if blocked { " blocked" } else { "" }
                ),
                DynamicsAction::ClearLinkLoss { from, to } => {
                    write!(f, "dyn.link {from}->{to} cleared")
                }
                DynamicsAction::SetChannelNoise { channel, delta_db } => {
                    write!(f, "dyn.noise ch={} +{delta_db:.1}dB", channel.number())
                }
                DynamicsAction::ClearChannelNoise { channel } => {
                    write!(f, "dyn.noise ch={} cleared", channel.number())
                }
                DynamicsAction::NodeDown { .. } => f.write_str("dyn.node down"),
                DynamicsAction::NodeUp { .. } => f.write_str("dyn.node up (reboot)"),
                DynamicsAction::SetNodeChannel { channel, .. } => {
                    write!(f, "dyn.reconfig channel={}", channel.number())
                }
                DynamicsAction::SetNodePower { power, .. } => {
                    write!(f, "dyn.reconfig power={}", power.level())
                }
                DynamicsAction::MoveNode { position, .. } => {
                    write!(f, "dyn.reconfig move=({:.1},{:.1})", position.x, position.y)
                }
            },
            TraceKind::DynInvalid { action, nodes } => {
                write!(f, "dyn.invalid {action:?} dropped: only {nodes} nodes")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_radio::units::Position;

    /// One record of every kind against its line, level and counter,
    /// the two `mac.anomaly` forms and both `net.forward` forms
    /// included. The texts are the lines the recorder produced when it
    /// formatted them at the event.
    #[test]
    fn every_kind_renders_its_line() {
        use TraceLevel::*;
        let cases = [
            (
                TraceKind::Tx {
                    kind: FrameKind::Data,
                    dst: 3,
                    seq: 7,
                    len: 41,
                },
                Packet,
                "tx.data",
                "tx.data dst=3 seq=7 len=41",
            ),
            (
                TraceKind::Tx {
                    kind: FrameKind::Ack,
                    dst: 1,
                    seq: 7,
                    len: 9,
                },
                Packet,
                "tx.ack",
                "tx.ack dst=1 seq=7 len=9",
            ),
            (
                TraceKind::Tx {
                    kind: FrameKind::Beacon,
                    dst: 0xFFFF,
                    seq: 255,
                    len: 46,
                },
                Packet,
                "tx.beacon",
                "tx.beacon dst=65535 seq=255 len=46",
            ),
            (
                TraceKind::RxCorrupt { from: 2, len: 41 },
                Debug,
                "rx.corrupt",
                "rx.corrupt from=2 len=41",
            ),
            (
                TraceKind::RxBeacon { from: 4, seq: 300 },
                Debug,
                "rx.beacon",
                "rx.beacon from=4 seq=300",
            ),
            (
                TraceKind::NetDeliver {
                    pid: 3,
                    origin: 5,
                    app_port: 2,
                },
                Packet,
                "net.deliver",
                "net.deliver pid=3 origin=5 app_port=2",
            ),
            (
                TraceKind::NetForward {
                    next_hop: 2,
                    origin: 0,
                    dst: 8,
                    queued: true,
                },
                Packet,
                "net.forward",
                "net.forward next_hop=2 origin=0 dst=8",
            ),
            (
                TraceKind::NetForward {
                    next_hop: 2,
                    origin: 0,
                    dst: 8,
                    queued: false,
                },
                Packet,
                "net.queue_drop",
                "net.forward next_hop=2 origin=0 dst=8 (queue full)",
            ),
            (
                TraceKind::OriginateRefused {
                    next_hop: 1,
                    dst: 1,
                },
                Packet,
                "net.queue_drop",
                "net.originate next_hop=1 dst=1 (queue full)",
            ),
            (
                TraceKind::NetDrop {
                    reason: DropReason::TtlExpired,
                },
                Debug,
                "net.drop.TtlExpired",
                "net.drop reason=TtlExpired",
            ),
            (
                TraceKind::StrayAck { from: 3, seq: 9 },
                Packet,
                "mac.anomaly",
                "mac.anomaly stray ack reached network layer from 3 seq=9",
            ),
            (
                TraceKind::MacFailed {
                    dst: 4,
                    seq: 2,
                    reason: TxFailReason::NoAck,
                },
                Debug,
                "mac.failed.NoAck",
                "mac.failed dst=4 seq=2 reason=NoAck",
            ),
            (
                TraceKind::MacFailed {
                    dst: 6,
                    seq: 0,
                    reason: TxFailReason::ChannelAccessFailure,
                },
                Debug,
                "mac.failed.ChannelAccessFailure",
                "mac.failed dst=6 seq=0 reason=ChannelAccessFailure",
            ),
            (
                TraceKind::MacAnomaly {
                    context: "start while busy",
                },
                Debug,
                "mac.anomaly",
                "mac.anomaly: start while busy",
            ),
            (
                TraceKind::Dynamics(DynamicsAction::MoveNode {
                    id: 0,
                    position: Position::new(3.0, 4.5),
                }),
                Info,
                "dyn.reconfig",
                "dyn.reconfig move=(3.0,4.5)",
            ),
            (
                TraceKind::DynInvalid {
                    action: DynamicsAction::NodeDown { id: 9 },
                    nodes: 2,
                },
                Warn,
                "dyn.invalid",
                "dyn.invalid NodeDown { id: 9 } dropped: only 2 nodes",
            ),
        ];
        for (kind, level, counter, text) in cases {
            assert_eq!(kind.to_string(), text);
            assert_eq!(kind.level(), level, "{text}");
            assert_eq!(kind.counter_id().name(), counter, "{text}");
        }
    }
}
