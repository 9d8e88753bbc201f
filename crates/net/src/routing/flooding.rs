//! Sequence-suppressed flooding.
//!
//! The simplest protocol LiteView can drive: every node rebroadcasts
//! each packet once, identified by `(origin, sequence)`. Useful as a
//! routing-free baseline when diagnosing whether *any* path exists to a
//! node, and as the contrast protocol in the protocol-comparison
//! example ("users may install each protocol sequentially, and measure
//! the protocol performance").

use super::{DropReason, RouteCtx, RouteDecision, Router};
use crate::packet::{NetPacket, Port};
use lv_mac::BROADCAST;

/// Entries remembered for duplicate suppression.
const SEEN_CAPACITY: usize = 64;

/// The flooding router.
pub struct Flooding {
    port: Port,
    seen: Vec<(u16, u8)>,
    cursor: usize,
}

impl Flooding {
    /// Create a flooding router on `port`.
    pub fn new(port: Port) -> Self {
        Flooding {
            port,
            seen: Vec::with_capacity(SEEN_CAPACITY),
            cursor: 0,
        }
    }

    fn remember(&mut self, key: (u16, u8)) -> bool {
        if self.seen.contains(&key) {
            return false;
        }
        if self.seen.len() < SEEN_CAPACITY {
            self.seen.push(key);
        } else {
            // Ring replacement: overwrite the oldest slot.
            self.seen[self.cursor] = key;
            self.cursor = (self.cursor + 1) % SEEN_CAPACITY;
        }
        true
    }
}

impl Router for Flooding {
    fn name(&self) -> &'static str {
        "flooding"
    }

    fn port(&self) -> Port {
        self.port
    }

    fn decide(&mut self, ctx: &RouteCtx<'_>, packet: &NetPacket) -> RouteDecision {
        let key = (packet.header.origin, packet.header.seq);
        let fresh = self.remember(key);
        if packet.header.dst == ctx.me {
            return RouteDecision::Deliver;
        }
        if !fresh {
            return RouteDecision::Drop(DropReason::Duplicate);
        }
        if packet.header.ttl == 0 {
            return RouteDecision::Drop(DropReason::TtlExpired);
        }
        RouteDecision::Forward {
            next_hop: BROADCAST,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{packet, table_with};
    use super::*;

    fn ctx<'a>(me: u16, nt: &'a crate::neighbors::NeighborTable) -> RouteCtx<'a> {
        RouteCtx {
            me,
            neighbors: nt,
            positions: &[],
        }
    }

    #[test]
    fn forwards_fresh_packets_broadcast() {
        let nt = table_with(&[]);
        let mut r = Flooding::new(Port::FLOODING);
        let p = packet(1, 9, Port::FLOODING, 0);
        assert_eq!(
            r.decide(&ctx(2, &nt), &p),
            RouteDecision::Forward {
                next_hop: BROADCAST
            }
        );
    }

    #[test]
    fn suppresses_duplicates() {
        let nt = table_with(&[]);
        let mut r = Flooding::new(Port::FLOODING);
        let p = packet(1, 9, Port::FLOODING, 3);
        r.decide(&ctx(2, &nt), &p);
        assert_eq!(
            r.decide(&ctx(2, &nt), &p),
            RouteDecision::Drop(DropReason::Duplicate)
        );
        // Different seq from the same origin is fresh again.
        let p2 = packet(1, 9, Port::FLOODING, 4);
        assert!(matches!(
            r.decide(&ctx(2, &nt), &p2),
            RouteDecision::Forward { .. }
        ));
    }

    #[test]
    fn delivers_at_destination_even_if_duplicate() {
        let nt = table_with(&[]);
        let mut r = Flooding::new(Port::FLOODING);
        let p = packet(1, 2, Port::FLOODING, 0);
        assert_eq!(r.decide(&ctx(2, &nt), &p), RouteDecision::Deliver);
        assert_eq!(r.decide(&ctx(2, &nt), &p), RouteDecision::Deliver);
    }

    #[test]
    fn ttl_zero_dropped() {
        let nt = table_with(&[]);
        let mut r = Flooding::new(Port::FLOODING);
        let mut p = packet(1, 9, Port::FLOODING, 0);
        p.header.ttl = 0;
        assert_eq!(
            r.decide(&ctx(2, &nt), &p),
            RouteDecision::Drop(DropReason::TtlExpired)
        );
    }

    #[test]
    fn seen_cache_bounded() {
        let nt = table_with(&[]);
        let mut r = Flooding::new(Port::FLOODING);
        // Flood far more keys than the cache holds.
        for seq in 0..=255u8 {
            let p = packet(1, 9, Port::FLOODING, seq);
            r.decide(&ctx(2, &nt), &p);
        }
        assert!(r.seen.len() <= SEEN_CAPACITY);
        // Recent keys still suppressed.
        let p = packet(1, 9, Port::FLOODING, 255);
        assert_eq!(
            r.decide(&ctx(2, &nt), &p),
            RouteDecision::Drop(DropReason::Duplicate)
        );
    }
}
