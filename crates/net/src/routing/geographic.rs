//! Greedy geographic forwarding.
//!
//! The protocol the paper demonstrates traceroute over: "we let the
//! geographic forwarding protocol listen on the port number 10, so that
//! the traceroute command can use this protocol to deliver packets."
//!
//! At each hop the packet moves to the usable (non-blacklisted, quality
//! above the floor) neighbor strictly closest to the destination's
//! location, provided that neighbor is closer than the current node —
//! plain greedy forwarding without face routing; a packet caught in a
//! local minimum is dropped with `NoRoute`, which is itself a condition
//! LiteView is designed to make visible.

use super::{DropReason, RouteCtx, RouteDecision, Router, MIN_ROUTE_QUALITY};
use crate::packet::{NetPacket, Port};

/// The greedy geographic router.
pub struct Geographic {
    port: Port,
}

impl Geographic {
    /// Create a geographic router on `port`; its link-quality floor is
    /// [`MIN_ROUTE_QUALITY`].
    pub fn new(port: Port) -> Self {
        Geographic { port }
    }
}

impl Router for Geographic {
    fn name(&self) -> &'static str {
        "geographic forwarding"
    }

    fn port(&self) -> Port {
        self.port
    }

    fn next_hop_query(&self, ctx: &RouteCtx<'_>, dst: u16) -> Option<u16> {
        self.best_hop(ctx, dst)
    }

    fn decide(&mut self, ctx: &RouteCtx<'_>, packet: &NetPacket) -> RouteDecision {
        if packet.header.dst == ctx.me {
            return RouteDecision::Deliver;
        }
        if packet.header.ttl == 0 {
            return RouteDecision::Drop(DropReason::TtlExpired);
        }
        match self.best_hop(ctx, packet.header.dst) {
            Some(id) => RouteDecision::Forward { next_hop: id },
            None => RouteDecision::Drop(DropReason::NoRoute),
        }
    }
}

impl Geographic {
    /// PRR×distance forwarding (Seada et al.): maximize geographic
    /// progress weighted by link quality. Pure greedy-by-distance
    /// prefers the longest, weakest link — exactly the asymmetric
    /// long-shot links that blackhole traffic.
    fn best_hop(&self, ctx: &RouteCtx<'_>, dst: u16) -> Option<u16> {
        let dst_pos = *ctx.positions.get(dst as usize)?;
        let my_dist = ctx.positions.get(ctx.me as usize)?.distance(dst_pos).0;
        let mut best: Option<(u16, f64)> = None; // (id, progress × quality)
        for e in ctx.neighbors.usable(MIN_ROUTE_QUALITY) {
            let Some(pos) = e.position else { continue };
            let d = pos.distance(dst_pos).0;
            if d >= my_dist {
                continue; // must make strict progress
            }
            let metric = (my_dist - d) * e.bidirectional();
            if best.map_or(true, |(_, bm)| metric > bm) {
                best = Some((e.id, metric));
            }
        }
        best.map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{packet, table_with};
    use super::*;
    use crate::neighbors::NeighborTable;
    use lv_radio::units::Position;

    /// Line topology: node i at (10·i, 0).
    fn line_loc(id: u16) -> Option<Position> {
        Some(Position::new(10.0 * id as f64, 0.0))
    }

    /// The position table of a ten-node line.
    fn line() -> Vec<Position> {
        (0..10).filter_map(line_loc).collect()
    }

    fn ctx<'a>(me: u16, nt: &'a NeighborTable, positions: &'a [Position]) -> RouteCtx<'a> {
        RouteCtx {
            me,
            neighbors: nt,
            positions,
        }
    }

    #[test]
    fn forwards_to_neighbor_nearest_destination() {
        // Node 2 knows neighbors 1 and 3; packet headed to node 5.
        let nt = table_with(&[(1, line_loc(1).unwrap()), (3, line_loc(3).unwrap())]);
        let mut r = Geographic::new(Port::GEOGRAPHIC);
        let p = packet(0, 5, Port::GEOGRAPHIC, 0);
        assert_eq!(
            r.decide(&ctx(2, &nt, &line()), &p),
            RouteDecision::Forward { next_hop: 3 }
        );
    }

    #[test]
    fn delivers_at_destination() {
        let nt = table_with(&[]);
        let mut r = Geographic::new(Port::GEOGRAPHIC);
        let p = packet(0, 2, Port::GEOGRAPHIC, 0);
        assert_eq!(r.decide(&ctx(2, &nt, &line()), &p), RouteDecision::Deliver);
    }

    #[test]
    fn requires_strict_progress() {
        // Only neighbor is behind us: local minimum → NoRoute.
        let nt = table_with(&[(1, line_loc(1).unwrap())]);
        let mut r = Geographic::new(Port::GEOGRAPHIC);
        let p = packet(0, 5, Port::GEOGRAPHIC, 0);
        assert_eq!(
            r.decide(&ctx(2, &nt, &line()), &p),
            RouteDecision::Drop(DropReason::NoRoute)
        );
    }

    #[test]
    fn blacklisted_neighbor_skipped() {
        let mut nt = table_with(&[(3, line_loc(3).unwrap()), (4, line_loc(4).unwrap())]);
        let mut r = Geographic::new(Port::GEOGRAPHIC);
        let p = packet(0, 5, Port::GEOGRAPHIC, 0);
        // Normally 4 wins (closest to 5).
        assert_eq!(
            r.decide(&ctx(2, &nt, &line()), &p),
            RouteDecision::Forward { next_hop: 4 }
        );
        // Blacklist 4: traffic detours through 3 — the paper's
        // "temporarily modifies the behavior of communication protocols".
        nt.set_blacklisted(4, true);
        assert_eq!(
            r.decide(&ctx(2, &nt, &line()), &p),
            RouteDecision::Forward { next_hop: 3 }
        );
        // Blacklist both: no route at all.
        nt.set_blacklisted(3, true);
        assert_eq!(
            r.decide(&ctx(2, &nt, &line()), &p),
            RouteDecision::Drop(DropReason::NoRoute)
        );
    }

    #[test]
    fn unknown_destination_location_drops() {
        let nt = table_with(&[(3, line_loc(3).unwrap())]);
        let mut r = Geographic::new(Port::GEOGRAPHIC);
        let p = packet(0, 5, Port::GEOGRAPHIC, 0);
        // The position table ends at node 4, short of the destination.
        let positions = line();
        let c = ctx(2, &nt, &positions[..5]);
        assert_eq!(r.decide(&c, &p), RouteDecision::Drop(DropReason::NoRoute));
    }

    #[test]
    fn ttl_expiry() {
        let nt = table_with(&[(3, line_loc(3).unwrap())]);
        let mut r = Geographic::new(Port::GEOGRAPHIC);
        let mut p = packet(0, 5, Port::GEOGRAPHIC, 0);
        p.header.ttl = 0;
        assert_eq!(
            r.decide(&ctx(2, &nt, &line()), &p),
            RouteDecision::Drop(DropReason::TtlExpired)
        );
    }

    #[test]
    fn low_quality_neighbor_avoided() {
        // Neighbor 4 exists but we never heard beacons from it (zero
        // quality); neighbor 3 is healthy.
        let mut nt = table_with(&[(3, line_loc(3).unwrap())]);
        nt.touch(4, lv_sim::SimTime::from_millis(1));
        let mut r = Geographic::new(Port::GEOGRAPHIC);
        let p = packet(0, 5, Port::GEOGRAPHIC, 0);
        assert_eq!(
            r.decide(&ctx(2, &nt, &line()), &p),
            RouteDecision::Forward { next_hop: 3 }
        );
    }

    #[test]
    fn protocol_name_matches_paper_output() {
        // traceroute prints "Name of protocol: geographic forwarding".
        assert_eq!(
            Geographic::new(Port::GEOGRAPHIC).name(),
            "geographic forwarding"
        );
    }
}
