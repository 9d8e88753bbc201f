#![warn(missing_docs)]

//! # lv-net — LiteView's port-based communication stack
//!
//! Implements the communication architecture of the paper's Figure 2:
//! a subscription-based stack in which every process — applications,
//! LiteView's runtime controller, and *routing protocols themselves* —
//! listens on a port, and the only data shared between layers are the
//! packets. This is the mechanism behind LiteView's protocol
//! independence: ping and traceroute hand probe packets to whatever
//! routing protocol is subscribed on the port the user names
//! (`traceroute 192.168.0.3 … port=10`), with "complete isolation
//! between the command module and the protocol module".
//!
//! Modules:
//!
//! * [`packet`] — the byte-accurate network header and packet layout,
//!   including the reserved 64-byte payload area whose unused tail
//!   carries link-quality padding.
//! * [`padding`] — the link-quality padding mechanism of Section IV.C.3:
//!   2 bytes per hop (LQI + RSSI), appended at each hop, never touching
//!   the original payload; a 16-byte probe can cross 24 hops.
//! * [`ports`] — the port map / subscription registry.
//! * [`neighbors`] — the *kernel-owned* neighbor table (Section III.B.2)
//!   with names, link quality in both directions, and blacklist bits.
//! * [`estimator`] — windowed-EWMA packet-reception estimation from
//!   beacon sequence numbers.
//! * [`beacon`] — the neighbor beacon payload (position, tree gradient,
//!   and per-neighbor inbound quality so neighbors learn their
//!   *outbound* quality).
//! * [`routing`] — the pluggable routers: flooding, greedy geographic
//!   forwarding (the protocol used on port 10 in the paper's traceroute
//!   example), and a collection tree.
//! * [`stack`] — the per-node façade tying it all together.

pub mod beacon;
pub mod estimator;
pub mod neighbors;
pub mod packet;
pub mod padding;
pub mod ports;
pub mod routing;
pub mod stack;

pub use beacon::BeaconPayload;
pub use estimator::LinkEstimator;
pub use neighbors::{NeighborEntry, NeighborTable};
pub use packet::{NetHeader, NetPacket, PacketFlags, Port};
pub use padding::HopQuality;
pub use ports::PortMap;
pub use routing::{DropReason, RouteCtx, RouteDecision, Router};
pub use stack::{RxAction, Stack, StackConfig};

/// The longest prefix of `s` that fits in `max` bytes and ends on a
/// char boundary: a name or a text field cut for the wire stays valid
/// UTF-8, so the receiver can decode it.
pub fn truncate_utf8(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}
