//! The per-node stack façade (Figure 2 of the paper).
//!
//! Ties the port map, the kernel neighbor table, and the registered
//! routing protocols together. The stack is deliberately passive — it
//! decides, the kernel executes: every call returns an [`RxAction`]
//! telling the node's event loop whether to deliver a packet to a
//! process, hand a frame to the MAC for forwarding, or drop.

use crate::beacon::Beacon;
use crate::neighbors::NeighborTable;
use crate::packet::{NetHeader, NetPacket, PacketFlags, Port};
use crate::padding::HopQuality;
use crate::ports::{PortMap, ProcessId, SubscribeError, KERNEL_PID};
use crate::routing::{DropReason, RouteCtx, RouteDecision, Router};
use lv_mac::frame::FramePayload;
use lv_radio::units::Position;
use lv_sim::{CounterId, Counters, SimDuration, SimTime};

/// Stack tunables.
#[derive(Debug, Clone, Copy)]
pub struct StackConfig {
    /// Initial TTL for originated packets.
    pub default_ttl: u8,
    /// Neighbor beacon period (the `update` command's "frequency of
    /// neighbor beacon exchanges").
    pub beacon_period: SimDuration,
    /// Uniform jitter added to each beacon to desynchronize nodes.
    pub beacon_jitter: SimDuration,
    /// Drop neighbors not heard for this long.
    pub neighbor_timeout: SimDuration,
    /// When set, housekeeping blacklists confirmed neighbors whose
    /// bidirectional quality degrades below this threshold (and clears
    /// the bit once quality recovers 0.15 above it). `None` — the
    /// default — leaves the blacklist purely operator-driven, which
    /// keeps every pre-dynamics scenario bit-identical.
    pub blacklist_below: Option<f64>,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            default_ttl: 32,
            beacon_period: SimDuration::from_millis(2_000),
            beacon_jitter: SimDuration::from_millis(500),
            neighbor_timeout: SimDuration::from_secs(16),
            blacklist_below: None,
        }
    }
}

/// What the node should do with a packet.
#[derive(Debug)]
pub enum RxAction {
    /// Hand the packet to the subscribed process.
    DeliverTo {
        /// The subscriber.
        pid: ProcessId,
        /// The packet (padding included — that is the data ping reads).
        packet: NetPacket,
    },
    /// Transmit toward `next_hop` (may be `lv_mac::BROADCAST`).
    Forward {
        /// Link-layer destination.
        next_hop: u16,
        /// The packet to re-encode.
        packet: NetPacket,
    },
    /// Discard.
    Drop {
        /// Why.
        reason: DropReason,
    },
}

/// Registration error for routers.
#[derive(Debug, PartialEq, Eq)]
pub enum RouterError {
    /// The port is already owned by a router or an application.
    PortInUse,
}

/// An installed router and the process id that owns its port
/// ([`KERNEL_PID`] when the kernel installed it directly).
struct RouterSlot {
    holder: ProcessId,
    router: Box<dyn Router>,
}

/// The per-node communication stack.
pub struct Stack {
    me: u16,
    name: String,
    ports: PortMap,
    /// The kernel-owned neighbor table (exposed for syscall access).
    pub neighbors: NeighborTable,
    routers: Vec<RouterSlot>,
    next_seq: u8,
    beacon_seq: u16,
    config: StackConfig,
    /// Per-node network-layer counters (forwards, deliveries, drops,
    /// beacon receptions, neighbor churn, padding caps) — the net slice
    /// of the node's flight recorder.
    counters: Counters,
}

impl Stack {
    /// Create the stack for node `me` named `name`.
    pub fn new(me: u16, name: impl Into<String>, config: StackConfig) -> Self {
        Stack {
            me,
            name: name.into(),
            ports: PortMap::new(),
            neighbors: NeighborTable::default(),
            routers: Vec::new(),
            next_seq: 0,
            beacon_seq: 0,
            config,
            counters: Counters::new(),
        }
    }

    /// This node's network-layer counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// This node's id.
    pub fn id(&self) -> u16 {
        self.me
    }

    /// This node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stack configuration (mutable so the `update` command can retune
    /// the beacon period at runtime).
    pub fn config_mut(&mut self) -> &mut StackConfig {
        &mut self.config
    }

    /// Stack configuration.
    pub fn config(&self) -> &StackConfig {
        &self.config
    }

    /// Subscribe an application process to a port. On conflict the
    /// error names the actual holder: the owning process's pid, or
    /// [`KERNEL_PID`] for a kernel-installed router.
    pub fn subscribe(&mut self, port: Port, pid: ProcessId) -> Result<(), SubscribeError> {
        if let Some(idx) = self.router_on(port) {
            return Err(SubscribeError::PortInUse {
                holder: self.routers[idx].holder,
            });
        }
        self.ports.subscribe(port, pid)
    }

    /// Drop a port subscription.
    pub fn unsubscribe(&mut self, port: Port) {
        self.ports.unsubscribe(port);
    }

    /// Drop all subscriptions of an exiting process.
    pub fn unsubscribe_all(&mut self, pid: ProcessId) {
        self.ports.unsubscribe_all(pid);
    }

    /// Who listens on an application port?
    pub fn lookup(&self, port: Port) -> Option<ProcessId> {
        self.ports.lookup(port)
    }

    /// Install a routing protocol on behalf of the kernel. "Multiple
    /// routing protocols can co-exist, and there is no redundancy
    /// between protocols": each gets its own port, exclusively.
    pub fn register_router(&mut self, router: Box<dyn Router>) -> Result<(), RouterError> {
        self.register_router_as(router, KERNEL_PID)
    }

    /// Install a routing protocol whose port is held by process
    /// `holder` — conflict errors will name that pid.
    pub fn register_router_as(
        &mut self,
        router: Box<dyn Router>,
        holder: ProcessId,
    ) -> Result<(), RouterError> {
        let port = router.port();
        if self.router_on(port).is_some() || self.ports.lookup(port).is_some() {
            return Err(RouterError::PortInUse);
        }
        self.routers.push(RouterSlot { holder, router });
        Ok(())
    }

    fn router_on(&self, port: Port) -> Option<usize> {
        self.routers.iter().position(|s| s.router.port() == port)
    }

    /// Name of the protocol on `port` (traceroute prints this).
    pub fn router_name(&self, port: Port) -> Option<&'static str> {
        self.router_on(port).map(|i| self.routers[i].router.name())
    }

    /// Every installed router as `(port, protocol name)`.
    pub fn router_list(&self) -> Vec<(Port, &'static str)> {
        self.routers
            .iter()
            .map(|s| (s.router.port(), s.router.name()))
            .collect()
    }

    /// Gradient to advertise in beacons: the minimum over routers that
    /// maintain one (the collection tree), or `TREE_UNREACHABLE`.
    pub fn tree_gradient(&self) -> u8 {
        self.routers
            .iter()
            .filter_map(|s| s.router.gradient(&self.neighbors))
            .min()
            .unwrap_or(crate::neighbors::TREE_UNREACHABLE)
    }

    /// Read-only next-hop query against the router on `port` — the
    /// primitive traceroute's per-hop tasks use to learn who to probe.
    pub fn query_next_hop(
        &self,
        port: Port,
        dst: u16,
        my_position: Position,
        locations: &dyn Fn(u16) -> Option<Position>,
    ) -> Option<u16> {
        let idx = self.router_on(port)?;
        let ctx = RouteCtx {
            me: self.me,
            my_position,
            neighbors: &self.neighbors,
            locations,
        };
        self.routers[idx].router.next_hop_query(&ctx, dst)
    }

    /// Allocate the next origin sequence number.
    fn alloc_seq(&mut self) -> u8 {
        let s = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        s
    }

    /// Build a packet originating at this node.
    pub fn make_packet(
        &mut self,
        dst: u16,
        carrying_port: Port,
        app_port: Port,
        payload: Vec<u8>,
        padding_enabled: bool,
    ) -> NetPacket {
        let seq = self.alloc_seq();
        NetPacket::new(
            NetHeader {
                flags: PacketFlags { padding_enabled },
                origin: self.me,
                dst,
                port: carrying_port,
                app_port,
                seq,
                ttl: self.config.default_ttl,
            },
            payload,
        )
    }

    /// Decide the first hop for a packet originated locally.
    ///
    /// With a router on the carrying port, the router decides; otherwise
    /// the packet is a one-hop exchange and goes straight to `dst` (the
    /// management protocol and single-hop ping work this way).
    pub fn route_local(
        &mut self,
        packet: NetPacket,
        my_position: Position,
        locations: &dyn Fn(u16) -> Option<Position>,
    ) -> RxAction {
        if let Some(idx) = self.router_on(packet.header.port) {
            let ctx = RouteCtx {
                me: self.me,
                my_position,
                neighbors: &self.neighbors,
                locations,
            };
            let decision = self.routers[idx].router.decide(&ctx, &packet);
            return match decision {
                RouteDecision::Deliver => self.deliver(packet),
                RouteDecision::Forward { next_hop } => {
                    self.counters.incr_id(CounterId::NetOriginate);
                    RxAction::Forward { next_hop, packet }
                }
                RouteDecision::Drop(reason) => self.drop(reason),
            };
        }
        // One-hop: the link-layer destination is the final destination —
        // unless that destination is this very node, in which case the
        // packet loops back locally instead of being radiated.
        if packet.header.dst == self.me {
            return self.deliver(packet);
        }
        self.counters.incr_id(CounterId::NetOriginate);
        let next_hop = packet.header.dst;
        RxAction::Forward { next_hop, packet }
    }

    /// Process a packet received from the radio.
    ///
    /// Appends this hop's link quality to the padding area (if enabled
    /// and space remains), then routes: a router on the carrying port
    /// decides; otherwise the packet is delivered locally.
    pub fn on_receive(
        &mut self,
        mut packet: NetPacket,
        hop: HopQuality,
        my_position: Position,
        locations: &dyn Fn(u16) -> Option<Position>,
    ) -> RxAction {
        if packet.header.flags.padding_enabled {
            // `padding.capped` counts hops silently lost to the paper's
            // 64-byte packet cap — exactly the blind spot Section IV.C.3
            // warns long paths run into.
            if packet.append_hop_quality(hop) {
                self.counters.incr_id(CounterId::PaddingAppended);
            } else {
                self.counters.incr_id(CounterId::PaddingCapped);
            }
        }
        if let Some(idx) = self.router_on(packet.header.port) {
            let ctx = RouteCtx {
                me: self.me,
                my_position,
                neighbors: &self.neighbors,
                locations,
            };
            let decision = self.routers[idx].router.decide(&ctx, &packet);
            return match decision {
                RouteDecision::Deliver => self.deliver(packet),
                RouteDecision::Forward { next_hop } => {
                    packet.header.ttl = packet.header.ttl.saturating_sub(1);
                    if packet.header.ttl == 0 {
                        self.drop(DropReason::TtlExpired)
                    } else {
                        self.counters.incr_id(CounterId::NetForward);
                        RxAction::Forward { next_hop, packet }
                    }
                }
                RouteDecision::Drop(reason) => self.drop(reason),
            };
        }
        // No router: one-hop packet; must be for us (the MAC already
        // filtered unicast addressing).
        self.deliver(packet)
    }

    fn deliver(&mut self, packet: NetPacket) -> RxAction {
        match self.ports.lookup(packet.header.app_port) {
            Some(pid) => {
                self.counters.incr_id(CounterId::NetDeliver);
                RxAction::DeliverTo { pid, packet }
            }
            None => self.drop(DropReason::NoListener),
        }
    }

    fn drop(&mut self, reason: DropReason) -> RxAction {
        self.counters.incr_id(reason.counter_id());
        RxAction::Drop { reason }
    }

    /// Encode this node's next neighbor beacon as a frame payload: its
    /// name, position and gradient, and the inbound quality byte of
    /// each neighbor it lists.
    pub fn make_beacon(&mut self, position: Position) -> FramePayload {
        let seq = self.beacon_seq;
        self.beacon_seq = self.beacon_seq.wrapping_add(1);
        let links = self
            .neighbors
            .entries()
            .iter()
            .map(|e| (e.id, e.estimator.quality_u8()));
        Beacon::encode(seq, position, self.tree_gradient(), &self.name, links)
    }

    /// Apply a received neighbor beacon.
    pub fn on_beacon(&mut self, from: u16, beacon: &Beacon<'_>, now: SimTime) {
        self.counters.incr_id(CounterId::NetBeaconRx);
        if self.neighbors.get(from).is_none() {
            self.counters.incr_id(CounterId::NetNeighborNew);
        }
        let ours = beacon.quality_of(self.me);
        self.neighbors.on_beacon(
            from,
            beacon.seq,
            beacon.name,
            beacon.position,
            beacon.tree_hops,
            ours,
            now,
        );
    }

    /// Periodic housekeeping: expire silent neighbors, then (when
    /// [`StackConfig::blacklist_below`] is set) blacklist the ones whose
    /// link quality degraded under the threshold so routing repairs
    /// around them before they go fully silent.
    pub fn housekeeping(&mut self, now: SimTime) {
        let before = self.neighbors.len();
        self.neighbors.expire(now, self.config.neighbor_timeout);
        let expired = before.saturating_sub(self.neighbors.len());
        if expired > 0 {
            self.counters
                .add_id(CounterId::NetNeighborExpired, expired as u64);
        }
        if let Some(threshold) = self.config.blacklist_below {
            let (tripped, _recovered) = self
                .neighbors
                .blacklist_degraded(threshold, threshold + 0.15);
            if tripped > 0 {
                self.counters
                    .add_id(CounterId::NetNeighborBlacklisted, tripped as u64);
            }
        }
    }

    /// Cold-reboot the stack's volatile state: the neighbor table and
    /// sequence counters live in RAM and do not survive a power cycle.
    /// Port subscriptions, routers, and the counter store (simulator
    /// instrumentation, not mote RAM) are preserved.
    pub fn on_reboot(&mut self) {
        self.neighbors.clear();
        self.next_seq = 0;
        self.beacon_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{Flooding, Geographic};

    fn locs(id: u16) -> Option<Position> {
        Some(Position::new(10.0 * id as f64, 0.0))
    }

    fn stack(me: u16) -> Stack {
        Stack::new(me, format!("192.168.0.{}", me + 1), StackConfig::default())
    }

    fn hop() -> HopQuality {
        HopQuality { lqi: 106, rssi: -2 }
    }

    /// Populate strong neighbors in a line around `me`.
    fn add_line_neighbors(s: &mut Stack, ids: &[u16]) {
        for &id in ids {
            for seq in 0..16u16 {
                s.neighbors.on_beacon(
                    id,
                    seq,
                    &format!("n{id}"),
                    locs(id).unwrap(),
                    (id as u8).min(254),
                    Some(255),
                    SimTime::from_millis(seq as u64),
                );
            }
        }
    }

    #[test]
    fn one_hop_send_goes_straight_to_destination() {
        let mut s = stack(1);
        let p = s.make_packet(2, Port::PING, Port::PING, vec![1, 2], false);
        match s.route_local(p, locs(1).unwrap(), &locs) {
            RxAction::Forward { next_hop, .. } => assert_eq!(next_hop, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn routed_send_consults_router() {
        let mut s = stack(2);
        s.register_router(Box::new(Geographic::new(Port::GEOGRAPHIC)))
            .unwrap();
        add_line_neighbors(&mut s, &[1, 3]);
        let p = s.make_packet(5, Port::GEOGRAPHIC, Port::PING, vec![0; 16], true);
        match s.route_local(p, locs(2).unwrap(), &locs) {
            RxAction::Forward { next_hop, .. } => assert_eq!(next_hop, 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn receive_appends_padding_then_forwards() {
        let mut s = stack(2);
        s.register_router(Box::new(Geographic::new(Port::GEOGRAPHIC)))
            .unwrap();
        add_line_neighbors(&mut s, &[1, 3]);
        let mut origin_stack = stack(1);
        let p = origin_stack.make_packet(5, Port::GEOGRAPHIC, Port::PING, vec![0; 16], true);
        match s.on_receive(p, hop(), locs(2).unwrap(), &locs) {
            RxAction::Forward { next_hop, packet } => {
                assert_eq!(next_hop, 3);
                assert_eq!(packet.hop_qualities().len(), 1);
                assert_eq!(packet.hop_qualities()[0].lqi, 106);
                assert_eq!(packet.header.ttl, 31); // decremented
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn receive_delivers_to_subscriber_with_padding() {
        let mut s = stack(5);
        s.register_router(Box::new(Geographic::new(Port::GEOGRAPHIC)))
            .unwrap();
        s.subscribe(Port::PING, 9).unwrap();
        let mut origin_stack = stack(1);
        let p = origin_stack.make_packet(5, Port::GEOGRAPHIC, Port::PING, vec![0; 16], true);
        match s.on_receive(p, hop(), locs(5).unwrap(), &locs) {
            RxAction::DeliverTo { pid, packet } => {
                assert_eq!(pid, 9);
                // The delivery hop's quality is recorded too.
                assert_eq!(packet.hop_qualities().len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_listener_drops() {
        let mut s = stack(5);
        let mut origin_stack = stack(1);
        let p = origin_stack.make_packet(5, Port::PING, Port::PING, vec![], false);
        match s.on_receive(p, hop(), locs(5).unwrap(), &locs) {
            RxAction::Drop { reason } => assert_eq!(reason, DropReason::NoListener),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn router_ports_are_exclusive() {
        let mut s = stack(1);
        s.register_router(Box::new(Geographic::new(Port::GEOGRAPHIC)))
            .unwrap();
        assert_eq!(
            s.register_router(Box::new(Flooding::new(Port::GEOGRAPHIC))),
            Err(RouterError::PortInUse)
        );
        // Apps can't squat a router port either.
        assert!(s.subscribe(Port::GEOGRAPHIC, 3).is_err());
        // And a router can't take an app port.
        s.subscribe(Port(20), 3).unwrap();
        assert_eq!(
            s.register_router(Box::new(Flooding::new(Port(20)))),
            Err(RouterError::PortInUse)
        );
    }

    #[test]
    fn multiple_routers_coexist() {
        let mut s = stack(1);
        s.register_router(Box::new(Geographic::new(Port::GEOGRAPHIC)))
            .unwrap();
        s.register_router(Box::new(Flooding::new(Port::FLOODING)))
            .unwrap();
        assert_eq!(
            s.router_name(Port::GEOGRAPHIC),
            Some("geographic forwarding")
        );
        assert_eq!(s.router_name(Port::FLOODING), Some("flooding"));
        assert_eq!(s.router_name(Port(99)), None);
    }

    #[test]
    fn origin_sequence_increments() {
        let mut s = stack(1);
        let p0 = s.make_packet(2, Port::PING, Port::PING, vec![], false);
        let p1 = s.make_packet(2, Port::PING, Port::PING, vec![], false);
        assert_eq!(p0.header.seq.wrapping_add(1), p1.header.seq);
    }

    #[test]
    fn beacons_carry_gradient_name_and_links() {
        let mut s = stack(2);
        s.register_router(Box::new(crate::routing::CollectionTree::new(
            Port::TREE,
            false,
        )))
        .unwrap();
        add_line_neighbors(&mut s, &[1]);
        let bytes = s.make_beacon(locs(2).unwrap());
        let b = Beacon::parse(&bytes).unwrap();
        assert_eq!(b.name, "192.168.0.3");
        assert_eq!(b.tree_hops, 2); // neighbor 1 advertises gradient 1
        assert_eq!(b.links().count(), 1);
        let bytes2 = s.make_beacon(locs(2).unwrap());
        assert_eq!(Beacon::parse(&bytes2).unwrap().seq, b.seq + 1);
    }

    #[test]
    fn beacon_advertises_inbound_bytes() {
        let mut s = stack(2);
        for seq in 0..16 {
            s.neighbors.on_beacon(
                4,
                seq,
                "x",
                locs(4).unwrap(),
                0,
                None,
                SimTime::from_millis(seq as u64),
            );
        }
        let bytes = s.make_beacon(locs(2).unwrap());
        let links: Vec<(u16, u8)> = Beacon::parse(&bytes).unwrap().links().collect();
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].0, 4);
        assert!(links[0].1 > 230);
    }

    #[test]
    fn beacon_reception_populates_table_and_outbound() {
        let mut a = stack(1);
        let mut b = stack(2);
        // b hears a few beacons from a…
        for _ in 0..4 {
            let bytes = a.make_beacon(locs(1).unwrap());
            b.on_beacon(1, &Beacon::parse(&bytes).unwrap(), SimTime::from_millis(1));
        }
        // …then a hears b's beacon, which advertises a's inbound quality.
        let from_b = b.make_beacon(locs(2).unwrap());
        a.on_beacon(2, &Beacon::parse(&from_b).unwrap(), SimTime::from_millis(2));
        let entry = a.neighbors.get(2).unwrap();
        assert!(entry.outbound.is_some());
        assert!(entry.outbound.unwrap() > 0.9);
    }

    #[test]
    fn housekeeping_expires_silent_neighbors() {
        let mut s = stack(1);
        s.neighbors.touch(7, SimTime::ZERO);
        s.housekeeping(SimTime::from_secs(60));
        assert!(s.neighbors.get(7).is_none());
    }

    #[test]
    fn subscribe_conflict_names_the_real_holder() {
        let mut s = stack(1);
        s.register_router(Box::new(Geographic::new(Port::GEOGRAPHIC)))
            .unwrap();
        s.register_router_as(Box::new(Flooding::new(Port::FLOODING)), 7)
            .unwrap();
        s.subscribe(Port(20), 3).unwrap();
        // Kernel-installed router: holder is the kernel pseudo-pid…
        assert_eq!(
            s.subscribe(Port::GEOGRAPHIC, 9),
            Err(SubscribeError::PortInUse { holder: KERNEL_PID })
        );
        // …a process-held router names that process…
        assert_eq!(
            s.subscribe(Port::FLOODING, 9),
            Err(SubscribeError::PortInUse { holder: 7 })
        );
        // …and an app-held port names the app (via the port map).
        assert_eq!(
            s.subscribe(Port(20), 9),
            Err(SubscribeError::PortInUse { holder: 3 })
        );
    }

    #[test]
    fn counters_track_forward_deliver_and_padding_cap() {
        let mut s = stack(2);
        s.register_router(Box::new(Geographic::new(Port::GEOGRAPHIC)))
            .unwrap();
        add_line_neighbors(&mut s, &[1, 3]);
        let mut origin_stack = stack(1);
        // A full payload leaves no padding room: the hop is capped.
        let p = origin_stack.make_packet(
            5,
            Port::GEOGRAPHIC,
            Port::PING,
            vec![0; crate::packet::PAYLOAD_AREA],
            true,
        );
        match s.on_receive(p, hop(), locs(2).unwrap(), &locs) {
            RxAction::Forward { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(s.counters().get("net.forward"), 1);
        assert_eq!(s.counters().get("padding.capped"), 1);
        assert_eq!(s.counters().get("padding.appended"), 0);
        // A short payload has room: the hop is appended.
        let p = origin_stack.make_packet(5, Port::GEOGRAPHIC, Port::PING, vec![0; 16], true);
        s.on_receive(p, hop(), locs(2).unwrap(), &locs);
        assert_eq!(s.counters().get("padding.appended"), 1);
        // Delivery and no-listener drops are counted too.
        let p = origin_stack.make_packet(2, Port::PING, Port::PING, vec![], false);
        s.on_receive(p, hop(), locs(2).unwrap(), &locs);
        assert_eq!(s.counters().get("net.drop.NoListener"), 1);
        s.subscribe(Port::PING, 4).unwrap();
        let p = origin_stack.make_packet(2, Port::PING, Port::PING, vec![], false);
        s.on_receive(p, hop(), locs(2).unwrap(), &locs);
        assert_eq!(s.counters().get("net.deliver"), 1);
    }

    #[test]
    fn counters_track_beacons_and_neighbor_churn() {
        let mut a = stack(1);
        let mut b = stack(2);
        for _ in 0..3 {
            let bytes = a.make_beacon(locs(1).unwrap());
            b.on_beacon(1, &Beacon::parse(&bytes).unwrap(), SimTime::from_millis(1));
        }
        assert_eq!(b.counters().get("net.beacon_rx"), 3);
        assert_eq!(b.counters().get("net.neighbor_new"), 1);
        b.housekeeping(SimTime::from_secs(60));
        assert_eq!(b.counters().get("net.neighbor_expired"), 1);
    }

    #[test]
    fn ttl_exhaustion_on_forward() {
        let mut s = stack(2);
        s.register_router(Box::new(Geographic::new(Port::GEOGRAPHIC)))
            .unwrap();
        add_line_neighbors(&mut s, &[3]);
        let mut origin_stack = stack(1);
        let mut p = origin_stack.make_packet(5, Port::GEOGRAPHIC, Port::PING, vec![], false);
        p.header.ttl = 1;
        match s.on_receive(p, hop(), locs(2).unwrap(), &locs) {
            RxAction::Drop { reason } => assert_eq!(reason, DropReason::TtlExpired),
            other => panic!("{other:?}"),
        }
    }
}
