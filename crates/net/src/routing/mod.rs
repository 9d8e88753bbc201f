//! Pluggable routing protocols.
//!
//! Routing protocols are ordinary port subscribers ("this listening
//! thread could be the routing protocol that will continue to forward
//! the packet along the path" — Section IV.C.1). LiteView never links
//! against a specific protocol: ping and traceroute name a port at
//! runtime, and whatever [`Router`] is subscribed there carries the
//! probes. That is the paper's protocol-independence requirement, and it
//! is why "multiple routing protocols can co-exist" in the stack.
//!
//! A router decides in a [`RouteCtx`]: the node, its kernel neighbor
//! table and the deployment's position table. The stack builds that
//! context from the medium's positions, which have no other copy.

pub mod flooding;
pub mod geographic;
pub mod tree;

pub use flooding::Flooding;
pub use geographic::Geographic;
pub use tree::CollectionTree;

use crate::neighbors::NeighborTable;
use crate::packet::{NetPacket, Port};
use lv_radio::units::Position;

/// Everything a router may consult when deciding a packet's fate.
pub struct RouteCtx<'a> {
    /// The deciding node.
    pub me: u16,
    /// The kernel neighbor table (routers must honor blacklist bits).
    pub neighbors: &'a NeighborTable,
    /// Every node's position, indexed by id: the medium's own table,
    /// lent as geographic forwarding's location service (the testbed
    /// knows deployment coordinates).
    pub positions: &'a [Position],
}

/// Why a packet was not forwarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// No usable next hop.
    NoRoute,
    /// Seen before (flooding duplicate suppression).
    Duplicate,
    /// Hop budget exhausted.
    TtlExpired,
    /// Arrived, but no process is subscribed on the application port.
    NoListener,
}

impl DropReason {
    /// The interned counter this drop increments — same name the string
    /// path would have produced via `format!("net.drop.{self:?}")`.
    pub fn counter_id(self) -> lv_sim::CounterId {
        match self {
            DropReason::NoRoute => lv_sim::CounterId::NetDropNoRoute,
            DropReason::Duplicate => lv_sim::CounterId::NetDropDuplicate,
            DropReason::TtlExpired => lv_sim::CounterId::NetDropTtlExpired,
            DropReason::NoListener => lv_sim::CounterId::NetDropNoListener,
        }
    }
}

/// A router's verdict for one packet at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// The packet has arrived: hand the payload to its application port.
    Deliver,
    /// Send to `next_hop` (`lv_mac::BROADCAST` means broadcast).
    Forward {
        /// Link-layer next hop (`lv_mac::BROADCAST` for broadcast).
        next_hop: u16,
    },
    /// Discard.
    Drop(DropReason),
}

/// A routing protocol instance on one node.
pub trait Router: Send {
    /// Protocol name, as printed by traceroute ("Name of protocol:
    /// geographic forwarding").
    fn name(&self) -> &'static str;

    /// The port this protocol is subscribed on.
    fn port(&self) -> Port;

    /// Decide what this node does with `packet` (which may have
    /// originated here or arrived from a neighbor).
    fn decide(&mut self, ctx: &RouteCtx<'_>, packet: &NetPacket) -> RouteDecision;

    /// The gradient this protocol wants advertised in neighbor beacons
    /// (only gradient-based protocols maintain one).
    fn gradient(&self, _neighbors: &NeighborTable) -> Option<u8> {
        None
    }

    /// Read-only next-hop query toward `dst` — the primitive traceroute
    /// is built on (each hop must know who it will probe next). Returns
    /// `None` for protocols without a deterministic unicast next hop
    /// (e.g. flooding) or when no route exists.
    fn next_hop_query(&self, _ctx: &RouteCtx<'_>, _dst: u16) -> Option<u16> {
        None
    }
}

/// Quality floor below which a link is not worth routing over.
pub const MIN_ROUTE_QUALITY: f64 = 0.2;

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::packet::{NetHeader, PacketFlags};
    use lv_sim::SimTime;

    /// A neighbor table with the given ids at the given positions, all
    /// with strong bidirectional links.
    pub fn table_with(neigh: &[(u16, Position)]) -> NeighborTable {
        let mut nt = NeighborTable::default();
        for &(id, pos) in neigh {
            for seq in 0..16u16 {
                nt.on_beacon(
                    id,
                    seq,
                    &format!("n{id}"),
                    pos,
                    // Convention for tests: a node's gradient equals its
                    // id, so lower ids sit closer to the collection root.
                    id.min(254) as u8,
                    Some(255),
                    SimTime::from_millis(seq as u64),
                );
            }
        }
        nt
    }

    pub fn packet(origin: u16, dst: u16, port: Port, seq: u8) -> NetPacket {
        NetPacket::new(
            NetHeader {
                flags: PacketFlags::default(),
                origin,
                dst,
                port,
                app_port: Port::PING,
                seq,
                ttl: 16,
            },
            vec![0; 8],
        )
    }
}
