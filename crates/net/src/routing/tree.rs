//! Collection-tree routing.
//!
//! A MintRoute/CTP-style gradient tree: the root advertises gradient 0
//! in its beacons, every other node advertises `min(parent gradients)+1`,
//! and data flows downhill to the root. This is the third protocol
//! LiteView can drive, included because the paper's motivation cites
//! MintRoute-style collection as the workload whose "routing tree
//! construction" users need visibility into.

use super::{DropReason, RouteCtx, RouteDecision, Router, MIN_ROUTE_QUALITY};
use crate::neighbors::{NeighborTable, TREE_UNREACHABLE};
use crate::packet::{NetPacket, Port};

/// Gradient ceiling: anything deeper advertises unreachable. Bounds the
/// distance-vector count-to-infinity an orphaned subtree would otherwise
/// run (its members mutually inflating each other's gradients one beacon
/// at a time) — the same role CTP's ETX threshold plays.
pub const MAX_GRADIENT: u8 = 16;

/// The collection-tree router on one node.
pub struct CollectionTree {
    port: Port,
    is_root: bool,
}

impl CollectionTree {
    /// Create a tree router; exactly one node per tree is the root.
    pub fn new(port: Port, is_root: bool) -> Self {
        CollectionTree { port, is_root }
    }

    /// Whether this node is the collection root.
    pub fn is_root(&self) -> bool {
        self.is_root
    }

    /// This node's current gradient (hops to root): 0 at the root,
    /// `min(neighbor gradients)+1` elsewhere, [`TREE_UNREACHABLE`] when
    /// no neighbor is connected. Advertised in beacons.
    pub fn gradient(&self, neighbors: &NeighborTable) -> u8 {
        if self.is_root {
            return 0;
        }
        neighbors
            .usable(MIN_ROUTE_QUALITY)
            .map(|e| e.tree_hops)
            .filter(|&h| h != TREE_UNREACHABLE)
            .min()
            .map_or(TREE_UNREACHABLE, |h| {
                let g = h.saturating_add(1);
                if g > MAX_GRADIENT {
                    TREE_UNREACHABLE
                } else {
                    g
                }
            })
    }

    /// The current parent choice: the usable neighbor with the lowest
    /// gradient, ties broken by bidirectional quality.
    pub fn parent(&self, neighbors: &NeighborTable) -> Option<u16> {
        neighbors
            .usable(MIN_ROUTE_QUALITY)
            .filter(|e| e.tree_hops < MAX_GRADIENT)
            .min_by(|a, b| {
                a.tree_hops.cmp(&b.tree_hops).then(
                    b.bidirectional()
                        .partial_cmp(&a.bidirectional())
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
            })
            .map(|e| e.id)
    }
}

impl Router for CollectionTree {
    fn name(&self) -> &'static str {
        "collection tree"
    }

    fn port(&self) -> Port {
        self.port
    }

    fn gradient(&self, neighbors: &NeighborTable) -> Option<u8> {
        Some(self.gradient(neighbors))
    }

    fn next_hop_query(&self, ctx: &RouteCtx<'_>, dst: u16) -> Option<u16> {
        if self.is_root || dst == ctx.me {
            None
        } else {
            self.parent(ctx.neighbors)
        }
    }

    fn decide(&mut self, ctx: &RouteCtx<'_>, packet: &NetPacket) -> RouteDecision {
        // Collection semantics: everything flows to the root; a packet
        // whose destination is this node is also delivered (the root
        // addresses itself when originating local traffic).
        if self.is_root || packet.header.dst == ctx.me {
            return RouteDecision::Deliver;
        }
        if packet.header.ttl == 0 {
            return RouteDecision::Drop(DropReason::TtlExpired);
        }
        match self.parent(ctx.neighbors) {
            Some(parent) => RouteDecision::Forward { next_hop: parent },
            None => RouteDecision::Drop(DropReason::NoRoute),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{packet, table_with};
    use super::*;
    use lv_radio::units::Position;

    fn pos(id: u16) -> Position {
        Position::new(id as f64, 0.0)
    }

    fn ctx<'a>(
        me: u16,
        nt: &'a NeighborTable,
        locs: &'a dyn Fn(u16) -> Option<Position>,
    ) -> RouteCtx<'a> {
        RouteCtx {
            me,
            my_position: pos(me),
            neighbors: nt,
            locations: locs,
        }
    }

    #[test]
    fn root_delivers() {
        let nt = table_with(&[]);
        let locs = |_: u16| -> Option<Position> { None };
        let mut r = CollectionTree::new(Port::TREE, true);
        let p = packet(5, 0, Port::TREE, 0);
        assert_eq!(r.decide(&ctx(0, &nt, &locs), &p), RouteDecision::Deliver);
        assert_eq!(r.gradient(&nt), 0);
    }

    #[test]
    fn forwards_to_lowest_gradient_parent() {
        // Test convention: neighbor gradient == its id, so node 1 is the
        // better parent than node 4.
        let nt = table_with(&[(4, pos(4)), (1, pos(1))]);
        let locs = |_: u16| -> Option<Position> { None };
        let mut r = CollectionTree::new(Port::TREE, false);
        let p = packet(7, 0, Port::TREE, 0);
        assert_eq!(
            r.decide(&ctx(7, &nt, &locs), &p),
            RouteDecision::Forward { next_hop: 1 }
        );
        assert_eq!(r.gradient(&nt), 2);
    }

    #[test]
    fn disconnected_node_has_no_route() {
        let nt = table_with(&[]);
        let locs = |_: u16| -> Option<Position> { None };
        let mut r = CollectionTree::new(Port::TREE, false);
        let p = packet(7, 0, Port::TREE, 0);
        assert_eq!(
            r.decide(&ctx(7, &nt, &locs), &p),
            RouteDecision::Drop(DropReason::NoRoute)
        );
        assert_eq!(r.gradient(&nt), TREE_UNREACHABLE);
        assert_eq!(r.parent(&nt), None);
    }

    #[test]
    fn blacklisted_parent_rerouted() {
        let mut nt = table_with(&[(1, pos(1)), (2, pos(2))]);
        let locs = |_: u16| -> Option<Position> { None };
        let mut r = CollectionTree::new(Port::TREE, false);
        nt.set_blacklisted(1, true);
        let p = packet(7, 0, Port::TREE, 0);
        assert_eq!(
            r.decide(&ctx(7, &nt, &locs), &p),
            RouteDecision::Forward { next_hop: 2 }
        );
    }

    #[test]
    fn unreachable_neighbors_not_parents() {
        let mut nt = table_with(&[(3, pos(3))]);
        let _locs = |_: u16| -> Option<Position> { None };
        // Mark neighbor 3's gradient unreachable.
        for seq in 16..20u16 {
            nt.on_beacon(
                3,
                seq,
                "n3",
                pos(3),
                TREE_UNREACHABLE,
                Some(255),
                lv_sim::SimTime::from_millis(seq as u64),
            );
        }
        let r = CollectionTree::new(Port::TREE, false);
        assert_eq!(r.parent(&nt), None);
        assert_eq!(r.gradient(&nt), TREE_UNREACHABLE);
    }

    #[test]
    fn gradient_bounded_against_count_to_infinity() {
        // A neighbor advertising a depth at the ceiling must not be
        // adopted as a parent, and our own advertisement saturates to
        // unreachable instead of inflating past the bound.
        let mut nt = table_with(&[(3, pos(3))]);
        let locs = |_: u16| -> Option<Position> { None };
        for seq in 16..20u16 {
            nt.on_beacon(
                3,
                seq,
                "n3",
                pos(3),
                MAX_GRADIENT,
                Some(255),
                lv_sim::SimTime::from_millis(seq as u64),
            );
        }
        let mut r = CollectionTree::new(Port::TREE, false);
        assert_eq!(r.parent(&nt), None);
        assert_eq!(r.gradient(&nt), TREE_UNREACHABLE);
        let p = packet(7, 0, Port::TREE, 0);
        assert_eq!(
            r.decide(&ctx(7, &nt, &locs), &p),
            RouteDecision::Drop(DropReason::NoRoute)
        );
    }

    #[test]
    fn delivery_at_addressed_node() {
        let nt = table_with(&[(1, pos(1))]);
        let locs = |_: u16| -> Option<Position> { None };
        let mut r = CollectionTree::new(Port::TREE, false);
        let p = packet(5, 7, Port::TREE, 0);
        assert_eq!(r.decide(&ctx(7, &nt, &locs), &p), RouteDecision::Deliver);
    }

    #[test]
    fn ttl_expiry() {
        let nt = table_with(&[(1, pos(1))]);
        let locs = |_: u16| -> Option<Position> { None };
        let mut r = CollectionTree::new(Port::TREE, false);
        let mut p = packet(5, 0, Port::TREE, 0);
        p.header.ttl = 0;
        assert_eq!(
            r.decide(&ctx(7, &nt, &locs), &p),
            RouteDecision::Drop(DropReason::TtlExpired)
        );
    }
}
