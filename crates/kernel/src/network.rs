//! The network orchestrator: the single event loop driving every node.
//!
//! Owns the nodes, the shared [`Medium`], and the future-event queue.
//! All physical behaviour lives here: transmissions occupy the medium
//! for their airtime, receivers get an `RxEnd` event when a frame's last
//! byte lands, collisions are resolved by SINR at each receiver,
//! CCA samples the set of in-flight transmissions, and MAC/process state
//! machines are fed their callbacks.
//!
//! The loop is strictly deterministic: one virtual clock, FIFO tie
//! breaking, and per-node RNG streams (see `DESIGN.md` §7).

use crate::audit::{AuditLog, AuditViolation};
use crate::names::{default_name, NameRegistry};
use crate::node::Node;
use crate::process::{Effect, Process, RxMeta, SysCtx};
use crate::resources::ResourceError;
use lv_mac::{Frame, FrameKind, MacAction, Reception, BROADCAST};
use lv_net::beacon::BeaconPayload;
use lv_net::packet::NetPacket;
use lv_net::padding::HopQuality;
use lv_net::ports::ProcessId;
use lv_net::routing::Router;
use lv_net::stack::RxAction;
use lv_radio::timing::PhyTiming;
use lv_radio::{Channel, Medium};
use lv_sim::{CounterId, Counters, EventQueue, SimDuration, SimTime, Trace, TraceLevel};
use std::sync::Arc;

/// Events the loop dispatches, exactly as they sit in the future-event
/// queue.
///
/// Every variant is plain data: the three large payloads (packets,
/// frames, dynamics actions) are parked in the [`EventArena`] and the
/// event carries their slot id. So an event is 16 bytes and owns no
/// allocation, a heap entry (with time + FIFO sequence) is 32, and sift
/// operations move words.
#[derive(Debug, Clone, Copy)]
enum Event {
    ProcessStart {
        node: u16,
        pid: ProcessId,
    },
    Timer {
        node: u16,
        pid: ProcessId,
        token: u32,
    },
    /// A packet a node addressed to one of its own processes; `packet`
    /// is its slot in [`EventArena::packets`].
    LocalDeliver {
        node: u16,
        pid: ProcessId,
        packet: u32,
    },
    MacCca {
        node: u16,
        token: u64,
    },
    MacAckTimeout {
        node: u16,
        token: u64,
    },
    TxEnd {
        node: u16,
        tx_id: u64,
    },
    RxEnd {
        node: u16,
        tx_id: u64,
    },
    SendAck {
        node: u16,
        dst: u16,
        seq: u8,
    },
    /// A transmission deferred because the node's radio was mid-frame;
    /// `frame` is its slot in [`EventArena::frames`].
    TxStart {
        node: u16,
        frame: u32,
    },
    Beacon {
        node: u16,
    },
    Housekeeping {
        node: u16,
    },
    /// A scheduled world mutation from the dynamics engine; `action` is
    /// its slot in [`EventArena::dynamics`].
    Dynamics {
        action: u32,
    },
}

/// One mid-run world mutation, applied at its scheduled virtual time by
/// the event loop (so it interleaves deterministically with traffic).
///
/// These are the primitive moves the testbed's `DynamicsPlan` compiles
/// ramps, bursts, and churn into. Each application bumps a `dyn.*`
/// counter and emits an `Info`-level trace event, so the flight
/// recorder can explain *what changed and when* alongside the packet
/// timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicsAction {
    /// Install a path-loss override on the directed link `from → to`
    /// (one step of a gradual attenuation ramp, or a hard block).
    SetLinkLoss {
        /// Transmitting side of the directed link.
        from: u16,
        /// Receiving side of the directed link.
        to: u16,
        /// Extra path loss in dB on top of the propagation model.
        extra_loss_db: f64,
        /// Hard-block the link regardless of loss.
        blocked: bool,
    },
    /// Remove any override on the directed link `from → to`.
    ClearLinkLoss {
        /// Transmitting side of the directed link.
        from: u16,
        /// Receiving side of the directed link.
        to: u16,
    },
    /// Raise the noise floor on `channel` by `delta_db` (the opening
    /// edge of a bursty interference window).
    SetChannelNoise {
        /// Affected 802.15.4 channel.
        channel: Channel,
        /// Noise-floor offset in dB.
        delta_db: f64,
    },
    /// End the interference window on `channel`.
    ClearChannelNoise {
        /// Affected 802.15.4 channel.
        channel: Channel,
    },
    /// Power the node off: radio dead, in-flight transmissions aborted.
    NodeDown {
        /// The node that dies.
        id: u16,
    },
    /// Power the node back on with cold-boot semantics (empty MAC queue
    /// and neighbor table; processes and routers still installed).
    NodeUp {
        /// The node that reboots.
        id: u16,
    },
    /// Retune the node's radio channel.
    SetNodeChannel {
        /// The reconfigured node.
        id: u16,
        /// New channel.
        channel: Channel,
    },
    /// Change the node's transmit power level.
    SetNodePower {
        /// The reconfigured node.
        id: u16,
        /// New power level.
        power: lv_radio::PowerLevel,
    },
    /// Physically relocate the node.
    MoveNode {
        /// The moved node.
        id: u16,
        /// New position.
        position: lv_radio::units::Position,
    },
}

impl DynamicsAction {
    /// The node ids the action names (at most two).
    fn node_ids(&self) -> [Option<u16>; 2] {
        match *self {
            DynamicsAction::SetLinkLoss { from, to, .. }
            | DynamicsAction::ClearLinkLoss { from, to } => [Some(from), Some(to)],
            DynamicsAction::SetChannelNoise { .. } | DynamicsAction::ClearChannelNoise { .. } => {
                [None, None]
            }
            DynamicsAction::NodeDown { id }
            | DynamicsAction::NodeUp { id }
            | DynamicsAction::SetNodeChannel { id, .. }
            | DynamicsAction::SetNodePower { id, .. }
            | DynamicsAction::MoveNode { id, .. } => [Some(id), None],
        }
    }
}

/// A slab with a LIFO free list: O(1) insert/take, stable `u32` slot
/// indices, no per-item heap allocation beyond the payload itself.
#[derive(Debug)]
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                debug_assert!(
                    self.slots[i as usize].is_none(),
                    "free list aliased a live slot"
                );
                self.slots[i as usize] = Some(value);
                i
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Reclaim slot `i`. `None` means the slot was empty — a
    /// double-take the caller must surface as an anomaly, not a panic.
    fn take(&mut self, i: u32) -> Option<T> {
        let v = self.slots.get_mut(i as usize).and_then(Option::take)?;
        self.free.push(i);
        Some(v)
    }

    /// Number of live (allocated, not yet taken) slots.
    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Payload storage for queued events: one slab per payload type. A slot
/// is allocated when its event is enqueued and reclaimed exactly once,
/// when the event pops — so `live()` always equals the number of
/// payload-carrying events currently in the queue.
#[derive(Debug)]
struct EventArena {
    packets: Slab<NetPacket>,
    frames: Slab<Frame>,
    dynamics: Slab<DynamicsAction>,
}

impl EventArena {
    fn new() -> Self {
        EventArena {
            packets: Slab::new(),
            frames: Slab::new(),
            dynamics: Slab::new(),
        }
    }

    /// Total live payload slots across all slabs.
    fn live(&self) -> usize {
        self.packets.live() + self.frames.live() + self.dynamics.live()
    }
}

/// An in-flight (or recently finished) transmission. The frame is
/// reference-counted so the fan-out to many receivers shares one
/// allocation instead of cloning the payload per receiver. The busy /
/// interference / CCA scans walk these rows directly, two to a
/// 64-byte cache line.
struct ActiveTx {
    start: SimTime,
    end: SimTime,
    frame: Arc<Frame>,
    sender: u16,
    channel: Channel,
    power: lv_radio::PowerLevel,
    /// Tombstone: the sender died mid-frame. Lookups miss and scans
    /// skip it, but the slot keeps its place so the table's start
    /// ordering (and thus the binary-searched scan floor) stays valid.
    aborted: bool,
}

const _: () = assert!(std::mem::size_of::<ActiveTx>() == 32);
const _: () = assert!(std::mem::size_of::<Event>() == 16);

/// The active-transmission table. Ids are assigned in start order and
/// only ever pruned from the front, so a `VecDeque` with a sliding
/// `base` replaces the seed's `BTreeMap`: O(1) insert and lookup,
/// binary-searchable start times, and range scans that walk
/// contiguous memory in ascending id order (preserving the float
/// accumulation order of the interference sums exactly).
///
/// Two deliberate divergences from the map, both observationally
/// inert:
/// - aborted transmissions are tombstoned in place instead of removed;
///   every reader skips them (`get` misses, scans filter), and they
///   leave with the prefix prune;
/// - a mid-table entry whose frame ended before the prune horizon
///   waits for the front to catch up instead of being retained away.
///   Such entries fail every overlap/time filter before any
///   RNG-consuming check, so keeping them changes no outcome and no
///   draw count.
struct TxTable {
    base: u64,
    slots: std::collections::VecDeque<ActiveTx>,
}

impl TxTable {
    fn new() -> Self {
        TxTable {
            base: 0,
            slots: std::collections::VecDeque::new(),
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Append the next transmission; `id` must be the next id in order.
    fn push(&mut self, id: u64, tx: ActiveTx) {
        debug_assert_eq!(
            id,
            self.base + self.slots.len() as u64,
            "tx ids must be appended in order"
        );
        self.slots.push_back(tx);
    }

    /// Live entry by id (`None` for pruned, aborted, or unknown ids).
    fn get(&self, id: u64) -> Option<&ActiveTx> {
        let i = id.checked_sub(self.base)?;
        self.slots.get(i as usize).filter(|tx| !tx.aborted)
    }

    /// Iterate live entries with id ≥ `floor`, ascending by id.
    fn iter_from(&self, floor: u64) -> impl Iterator<Item = (u64, &ActiveTx)> + '_ {
        let start = (floor.saturating_sub(self.base) as usize).min(self.slots.len());
        let first_id = self.base + start as u64;
        self.slots
            .range(start..)
            .enumerate()
            .filter_map(move |(i, tx)| (!tx.aborted).then_some((first_id + i as u64, tx)))
    }

    /// First id that could still overlap an interval beginning at
    /// `from`, given no frame lasts longer than `max_airtime`. Starts
    /// are monotone in id (assigned at strictly non-decreasing virtual
    /// times), so this binary search returns exactly what the seed's
    /// reverse linear scan did: every entry below the returned id ended
    /// at or before `from`.
    fn scan_floor(&self, from: SimTime, max_airtime: SimDuration) -> u64 {
        let i = self
            .slots
            .partition_point(|tx| tx.start + max_airtime <= from);
        self.base + i as u64
    }

    /// Tombstone every entry from `sender`.
    fn abort_sender(&mut self, sender: u16) {
        for tx in self.slots.iter_mut().filter(|tx| tx.sender == sender) {
            tx.aborted = true;
        }
    }

    /// Prefix prune: drop leading entries that ended before `horizon`
    /// or were aborted.
    fn prune(&mut self, horizon: SimTime) {
        while let Some(front) = self.slots.front() {
            if front.aborted || front.end < horizon {
                self.slots.pop_front();
                self.base += 1;
            } else {
                break;
            }
        }
    }
}

/// Never prune the active-transmission table below this size; pruning a
/// tiny map every transmission costs more than it saves.
const ACTIVE_PRUNE_MIN: usize = 32;

/// Loop tunables.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Modeled CPU cost of handling one packet / syscall batch on the
    /// 7.37 MHz ATmega128.
    pub cpu_cost: SimDuration,
    /// Neighbor-table housekeeping period.
    pub housekeeping_period: SimDuration,
    /// Whether nodes emit neighbor beacons.
    pub beacons_enabled: bool,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            cpu_cost: SimDuration::from_micros(100),
            housekeeping_period: SimDuration::from_secs(2),
            beacons_enabled: true,
        }
    }
}

/// One passively observed reception on a directed link, recorded when
/// the link-observation tap is armed (see [`Network::set_link_obs`]).
///
/// This is the raw signal the closed-loop diagnosis engine consumes:
/// every successfully received beacon or data frame yields one sample
/// of the link's RSSI/LQI as seen at the receiver, timestamped in
/// virtual time. The tap is off by default (capacity 0) so it costs
/// nothing and changes nothing unless a diagnostician arms it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkObs {
    /// Virtual time of the reception.
    pub at: SimTime,
    /// Transmitting node (the far end of the directed link).
    pub tx: u16,
    /// Receiving node (where the RSSI/LQI was measured).
    pub rx: u16,
    /// Link-quality indicator of the received frame (CC2420 register
    /// semantics, ~50–110).
    pub lqi: u8,
    /// Received signal strength register value, in dBm.
    pub rssi: i8,
    /// Whether the frame was a neighbor beacon (vs. a data frame).
    pub beacon: bool,
}

/// The simulated deployment.
pub struct Network {
    /// The shared wireless medium.
    pub medium: Medium,
    nodes: Vec<Node>,
    names: NameRegistry,
    queue: EventQueue<Event>,
    /// Payload storage for queued events (see [`EventArena`]).
    arena: EventArena,
    now: SimTime,
    active: TxTable,
    /// Per-node time until which the radio is occupied transmitting —
    /// a node is half-duplex and strictly serial on its own TX path.
    tx_busy_until: Vec<SimTime>,
    /// Per-node reservation for an immediate acknowledgement: data
    /// frames must not start inside this window, because the 802.15.4
    /// ack preempts everything right after the RX→TX turnaround.
    ack_reserved_until: Vec<SimTime>,
    next_tx: u64,
    /// Prune `active` only when it reaches this size (then re-arm a
    /// fixed step above the live set). Amortizes the retain scan to
    /// O(1) per transmission instead of O(|active|).
    prune_at: usize,
    /// Longest airtime ever inserted into `active`. Transmission ids
    /// are assigned in start order, so any entry whose start is more
    /// than this before an interval of interest — and every entry with
    /// a smaller id — can be skipped exactly: it ended too early to
    /// overlap. This keeps the per-reception scans proportional to the
    /// *overlapping* set, not the 50 ms pruning grace window.
    max_airtime: SimDuration,
    /// Total events popped by `run_until` — the scaling benchmark's
    /// denominator for events/sec.
    events_dispatched: u64,
    timing: PhyTiming,
    config: NetworkConfig,
    /// Global packet/event counters (the overhead figures read these).
    pub counters: Counters,
    /// Optional trace sink.
    pub trace: Trace,
    /// Runtime invariant auditor (`None` = disabled, the default).
    /// See [`crate::audit`].
    audit: Option<AuditLog>,
    /// Bounded ring of passive link observations (the diagnosis tap);
    /// empty and disabled unless `link_obs_cap > 0`.
    link_obs: std::collections::VecDeque<LinkObs>,
    /// Capacity of `link_obs`; 0 disables recording entirely.
    link_obs_cap: usize,
}

impl Network {
    /// Build a network with one node per position in `medium`, using
    /// default IP-convention names, and start beacons/housekeeping.
    pub fn new(medium: Medium, seed: u64) -> Self {
        Self::with_config(medium, seed, NetworkConfig::default())
    }

    /// Build with explicit config.
    pub fn with_config(medium: Medium, seed: u64, config: NetworkConfig) -> Self {
        let n = medium.node_count();
        let names = NameRegistry::with_defaults(n);
        let nodes: Vec<Node> = (0..n)
            .map(|i| Node::new(i as u16, default_name(i as u16), seed))
            .collect();
        let mut net = Network {
            medium,
            nodes,
            names,
            queue: EventQueue::new(),
            arena: EventArena::new(),
            now: SimTime::ZERO,
            active: TxTable::new(),
            tx_busy_until: vec![SimTime::ZERO; n],
            ack_reserved_until: vec![SimTime::ZERO; n],
            next_tx: 0,
            prune_at: ACTIVE_PRUNE_MIN,
            max_airtime: SimDuration::ZERO,
            events_dispatched: 0,
            timing: PhyTiming::default(),
            config,
            counters: Counters::new(),
            trace: Trace::disabled(),
            audit: None,
            link_obs: std::collections::VecDeque::new(),
            link_obs_cap: 0,
        };
        for i in 0..n as u16 {
            if net.config.beacons_enabled {
                // Desynchronized first beacons across [0, period).
                let period = net.nodes[i as usize].stack.config().beacon_period;
                let offset =
                    SimDuration::from_nanos(net.nodes[i as usize].rng.below(period.as_nanos()));
                net.queue.push(net.now + offset, Event::Beacon { node: i });
            }
            let hk = net.config.housekeeping_period;
            net.queue
                .push(net.now + hk, Event::Housekeeping { node: i });
        }
        net
    }

    /// Live payload slots in the event arena — always equal to the
    /// number of payload-carrying events currently queued. Exposed for
    /// the recycling property tests.
    pub fn arena_live(&self) -> usize {
        self.arena.live()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Arm (`cap > 0`) or disarm (`cap = 0`) the passive link-
    /// observation tap. While armed, every successfully received beacon
    /// or data frame is recorded as a [`LinkObs`] in a ring bounded to
    /// `cap` entries (oldest dropped first); [`Network::take_link_obs`]
    /// drains it. Disarming also clears any buffered observations.
    pub fn set_link_obs(&mut self, cap: usize) {
        self.link_obs_cap = cap;
        if cap == 0 {
            self.link_obs.clear();
        } else {
            while self.link_obs.len() > cap {
                self.link_obs.pop_front();
            }
        }
    }

    /// Drain all link observations recorded since the last call, oldest
    /// first. Empty unless the tap is armed via [`Network::set_link_obs`].
    pub fn take_link_obs(&mut self) -> Vec<LinkObs> {
        self.link_obs.drain(..).collect()
    }

    fn record_link_obs(&mut self, obs: LinkObs) {
        if self.link_obs_cap == 0 {
            return;
        }
        if self.link_obs.len() >= self.link_obs_cap {
            self.link_obs.pop_front();
        }
        self.link_obs.push_back(obs);
    }

    /// Total events dispatched by the loop so far.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable node access.
    pub fn node(&self, id: u16) -> &Node {
        &self.nodes[id as usize]
    }

    /// Mutable node access (experiment setup: log, rng, stack, radio
    /// power and channel, …). Liveness is not a node field: kill and
    /// revive a node by scheduling [`DynamicsAction::NodeDown`] and
    /// [`DynamicsAction::NodeUp`].
    pub fn node_mut(&mut self, id: u16) -> &mut Node {
        &mut self.nodes[id as usize]
    }

    /// The deployment's name registry.
    pub fn names(&self) -> &NameRegistry {
        &self.names
    }

    /// Snapshot every node's health and traffic counters, in node order.
    pub fn node_stats(&self) -> Vec<crate::node::NodeStats> {
        self.nodes
            .iter()
            .map(|n| n.stats(!self.medium.is_dead(n.id)))
            .collect()
    }

    /// Resolve a node name to an id.
    pub fn resolve(&self, name: &str) -> Option<u16> {
        self.names.resolve(name)
    }

    /// Install a routing protocol on one node.
    pub fn install_router(
        &mut self,
        node: u16,
        router: Box<dyn Router>,
    ) -> Result<(), lv_net::stack::RouterError> {
        self.nodes[node as usize].stack.register_router(router)
    }

    /// Spawn a process on a node and schedule its `on_start`.
    pub fn spawn_process(
        &mut self,
        node: u16,
        process: Box<dyn Process>,
        params: Vec<u8>,
    ) -> Result<ProcessId, ResourceError> {
        let pid = self.nodes[node as usize].register_process(process, params)?;
        self.queue.push(
            self.now + self.config.cpu_cost,
            Event::ProcessStart { node, pid },
        );
        Ok(pid)
    }

    /// Deliver a synthetic timer to a process right away — the hook the
    /// workstation driver uses to kick the command interpreter.
    pub fn poke(&mut self, node: u16, pid: ProcessId, token: u32) {
        self.queue.push(self.now, Event::Timer { node, pid, token });
    }

    /// Run the loop until virtual time `t` (inclusive).
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(et) = self.queue.peek_time() {
            if et > t {
                break;
            }
            let Some((at, ev)) = self.queue.pop() else {
                break;
            };
            if let Some(log) = self.audit.as_mut() {
                if at < self.now {
                    log.record(AuditViolation::TimeRegression {
                        now: self.now,
                        event: at,
                    });
                }
            }
            self.now = at;
            self.events_dispatched += 1;
            self.dispatch(ev);
        }
        if t > self.now {
            self.now = t;
        }
    }

    // ------------------------------------------------------------------
    // Runtime invariant auditing (see crate::audit)
    // ------------------------------------------------------------------

    /// Enable or disable the runtime invariant auditor. Disabled by
    /// default; enabling starts with a clean log. When enabled, the
    /// event loop checks time monotonicity on every pop and sweeps the
    /// structural invariants after each dynamics event.
    pub fn set_audit(&mut self, enabled: bool) {
        self.audit = if enabled {
            Some(AuditLog::default())
        } else {
            None
        };
    }

    /// Whether the runtime auditor is active.
    pub fn audit_enabled(&self) -> bool {
        self.audit.is_some()
    }

    /// Violations observed since auditing was enabled (empty slice when
    /// auditing is off).
    pub fn audit_violations(&self) -> &[AuditViolation] {
        self.audit.as_ref().map_or(&[], AuditLog::violations)
    }

    /// Sweep the structural invariants right now, independent of the
    /// enable flag: stale active transmissions from dead nodes, and
    /// every node's flash/RAM ledger against ground truth. Returns the
    /// first violation found (all are also recorded when auditing is
    /// enabled).
    pub fn check_invariants(&mut self) -> Result<(), AuditViolation> {
        let mut found: Vec<AuditViolation> = Vec::new();
        for (tx_id, tx) in self.active.iter_from(0) {
            // Only transmissions still on the air matter; ended entries
            // legitimately linger until the amortized prune.
            if tx.end > self.now && self.medium.is_dead(tx.sender) {
                found.push(AuditViolation::StaleActiveTx {
                    sender: tx.sender,
                    tx_id,
                });
            }
        }
        for node in &self.nodes {
            let flash_used = node.resources.flash_used();
            let stored_total = node.resources.stored_flash_total();
            if flash_used != stored_total {
                found.push(AuditViolation::FlashImbalance {
                    node: node.id,
                    flash_used,
                    stored_total,
                });
            }
            let ram_used = node.resources.ram_used();
            let slots_total: u32 = node
                .processes
                .values()
                .map(|slot| slot.image.ram_bytes)
                .sum();
            if ram_used != slots_total {
                found.push(AuditViolation::RamImbalance {
                    node: node.id,
                    ram_used,
                    slots_total,
                });
            }
        }
        let first = found.first().cloned();
        if let Some(log) = self.audit.as_mut() {
            for v in found {
                log.record(v);
            }
        }
        match first {
            Some(v) => Err(v),
            None => Ok(()),
        }
    }

    /// Run the loop for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.run_until(self.now + d);
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    /// Handle one popped event. A payload event reclaims its arena slot
    /// here; an empty slot (a double-take that should be impossible) is
    /// counted as `kernel.arena_miss` and the event dropped rather than
    /// panicking mid-simulation.
    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::ProcessStart { node, pid } => {
                self.run_hook(node, pid, |p, ctx| p.on_start(ctx));
            }
            Event::Timer { node, pid, token } => {
                self.run_hook(node, pid, |p, ctx| p.on_timer(ctx, token));
            }
            Event::LocalDeliver { node, pid, packet } => {
                let Some(packet) = self.arena.packets.take(packet) else {
                    self.counters.incr("kernel.arena_miss");
                    return;
                };
                let meta = RxMeta {
                    from: node,
                    rssi: 0,
                    lqi: 110,
                };
                self.run_hook(node, pid, |p, ctx| p.on_packet(ctx, &packet, meta));
            }
            Event::MacCca { node, token } => self.on_cca(node, token),
            Event::MacAckTimeout { node, token } => {
                let idx = node as usize;
                if self.medium.is_dead(node) {
                    return;
                }
                let actions = {
                    let n = &mut self.nodes[idx];
                    let (mac, rng) = (&mut n.mac, &mut n.rng);
                    mac.on_ack_timeout(token, rng)
                };
                self.exec_mac_actions(node, actions);
            }
            Event::TxEnd { node, tx_id } => {
                let idx = node as usize;
                if self.medium.is_dead(node) {
                    return;
                }
                // Raw transmissions (immediate acks) are not owned by
                // the CSMA machine; feeding their completion into it
                // would be mistaken for the data frame's TxEnd.
                let mac_owned = self
                    .active
                    .get(tx_id)
                    .is_some_and(|tx| tx.frame.kind != FrameKind::Ack);
                if !mac_owned {
                    return;
                }
                let actions = {
                    let n = &mut self.nodes[idx];
                    let (mac, rng) = (&mut n.mac, &mut n.rng);
                    mac.on_tx_done(rng)
                };
                self.exec_mac_actions(node, actions);
            }
            Event::RxEnd { node, tx_id } => self.on_rx_end(node, tx_id),
            Event::SendAck { node, dst, seq } => {
                if self.medium.is_dead(node) {
                    return;
                }
                let frame = Frame::ack(node, dst, seq);
                self.begin_transmission(node, frame);
            }
            Event::TxStart { node, frame } => {
                let Some(frame) = self.arena.frames.take(frame) else {
                    self.counters.incr("kernel.arena_miss");
                    return;
                };
                self.begin_transmission(node, frame);
            }
            Event::Beacon { node } => self.on_beacon_tick(node),
            Event::Housekeeping { node } => {
                let idx = node as usize;
                let now = self.now;
                self.nodes[idx].stack.housekeeping(now);
                let hk = self.config.housekeeping_period;
                self.queue.push(self.now + hk, Event::Housekeeping { node });
            }
            Event::Dynamics { action } => {
                let Some(action) = self.arena.dynamics.take(action) else {
                    self.counters.incr("kernel.arena_miss");
                    return;
                };
                self.apply_dynamics(action);
                if self.audit.is_some() {
                    // Churn is where the structural invariants can
                    // break; sweep right after every dynamics action.
                    let _ = self.check_invariants();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Dynamics engine
    // ------------------------------------------------------------------

    /// Schedule a world mutation at virtual time `at`. The mutation is
    /// dispatched by the event loop like any other event, so it
    /// interleaves deterministically with traffic and FIFO tie-breaking
    /// orders same-instant mutations by scheduling order. Scheduling
    /// nothing leaves the run bit-identical to a static scenario.
    pub fn schedule_dynamics(&mut self, at: SimTime, action: DynamicsAction) {
        let at = at.max(self.now);
        let action = self.arena.dynamics.insert(action);
        self.queue.push(at, Event::Dynamics { action });
    }

    fn apply_dynamics(&mut self, action: DynamicsAction) {
        let now = self.now;
        let n = self.nodes.len();
        if action
            .node_ids()
            .into_iter()
            .flatten()
            .any(|id| id as usize >= n)
        {
            // A plan naming a node this network does not have: drop the
            // action rather than panic the event loop.
            self.counters.incr("dyn.invalid");
            if self.trace.accepts(TraceLevel::Warn) {
                self.trace.emit(
                    now,
                    Trace::NO_NODE,
                    TraceLevel::Warn,
                    format!("dyn.invalid {action:?} dropped: only {n} nodes"),
                );
            }
            return;
        }
        match action {
            DynamicsAction::SetLinkLoss {
                from,
                to,
                extra_loss_db,
                blocked,
            } => {
                self.medium.set_override(
                    from,
                    to,
                    lv_radio::medium::LinkOverride {
                        extra_loss_db,
                        blocked,
                    },
                );
                self.counters.incr_id(CounterId::DynLinkOverride);
                if self.trace.accepts(TraceLevel::Info) {
                    self.trace.emit(
                        now,
                        from,
                        TraceLevel::Info,
                        format!(
                            "dyn.link {from}->{to} loss={extra_loss_db:.1}dB{}",
                            if blocked { " blocked" } else { "" }
                        ),
                    );
                }
            }
            DynamicsAction::ClearLinkLoss { from, to } => {
                self.medium.clear_override(from, to);
                self.counters.incr_id(CounterId::DynLinkOverride);
                if self.trace.accepts(TraceLevel::Info) {
                    self.trace.emit(
                        now,
                        from,
                        TraceLevel::Info,
                        format!("dyn.link {from}->{to} cleared"),
                    );
                }
            }
            DynamicsAction::SetChannelNoise { channel, delta_db } => {
                self.medium.set_channel_noise(channel, delta_db);
                self.counters.incr_id(CounterId::DynChannelNoise);
                if self.trace.accepts(TraceLevel::Info) {
                    self.trace.emit(
                        now,
                        Trace::NO_NODE,
                        TraceLevel::Info,
                        format!("dyn.noise ch={} +{delta_db:.1}dB", channel.number()),
                    );
                }
            }
            DynamicsAction::ClearChannelNoise { channel } => {
                self.medium.clear_channel_noise(channel);
                self.counters.incr_id(CounterId::DynChannelNoise);
                if self.trace.accepts(TraceLevel::Info) {
                    self.trace.emit(
                        now,
                        Trace::NO_NODE,
                        TraceLevel::Info,
                        format!("dyn.noise ch={} cleared", channel.number()),
                    );
                }
            }
            DynamicsAction::NodeDown { id } => {
                self.medium.set_dead(id, true);
                self.abort_transmissions_of(id);
                self.counters.incr_id(CounterId::DynNodeDown);
                if self.trace.accepts(TraceLevel::Info) {
                    self.trace
                        .emit(now, id, TraceLevel::Info, "dyn.node down".to_owned());
                }
            }
            DynamicsAction::NodeUp { id } => {
                self.medium.set_dead(id, false);
                self.nodes[id as usize].reboot();
                self.counters.incr_id(CounterId::DynNodeUp);
                if self.trace.accepts(TraceLevel::Info) {
                    self.trace
                        .emit(now, id, TraceLevel::Info, "dyn.node up (reboot)".to_owned());
                }
            }
            DynamicsAction::SetNodeChannel { id, channel } => {
                self.nodes[id as usize].channel = channel;
                self.counters.incr_id(CounterId::DynReconfig);
                if self.trace.accepts(TraceLevel::Info) {
                    self.trace.emit(
                        now,
                        id,
                        TraceLevel::Info,
                        format!("dyn.reconfig channel={}", channel.number()),
                    );
                }
            }
            DynamicsAction::SetNodePower { id, power } => {
                self.nodes[id as usize].power = power;
                self.counters.incr_id(CounterId::DynReconfig);
                if self.trace.accepts(TraceLevel::Info) {
                    self.trace.emit(
                        now,
                        id,
                        TraceLevel::Info,
                        format!("dyn.reconfig power={}", power.level()),
                    );
                }
            }
            DynamicsAction::MoveNode { id, position } => {
                self.medium.set_position(id, position);
                self.counters.incr_id(CounterId::DynReconfig);
                if self.trace.accepts(TraceLevel::Info) {
                    self.trace.emit(
                        now,
                        id,
                        TraceLevel::Info,
                        format!("dyn.reconfig move=({:.1},{:.1})", position.x, position.y),
                    );
                }
            }
        }
    }

    /// Abort every in-flight transmission by `node`: drop its entries
    /// from the active table (pending `RxEnd`/`TxEnd` events find no
    /// entry and fall through harmlessly) and release its radio-busy and
    /// ack reservations so a later reboot starts from a clean slate.
    /// This is the churn-path guarantee that `set_dead` mid-frame leaves
    /// no stale active-transmission state behind.
    fn abort_transmissions_of(&mut self, node: u16) {
        self.active.abort_sender(node);
        let idx = node as usize;
        self.tx_busy_until[idx] = self.now;
        self.ack_reserved_until[idx] = self.now;
    }

    fn on_beacon_tick(&mut self, node: u16) {
        let idx = node as usize;
        if !self.medium.is_dead(node) {
            let actions = {
                let medium = &self.medium;
                let n = &mut self.nodes[idx];
                let pos = medium.position(node);
                let payload = n.stack.make_beacon(pos).encode();
                let (mac, rng) = (&mut n.mac, &mut n.rng);
                mac.send(FrameKind::Beacon, BROADCAST, payload, rng).1
            };
            self.exec_mac_actions(node, actions);
        }
        // Reschedule even while dead: the node may be revived.
        let (period, jitter) = {
            let cfg = self.nodes[idx].stack.config();
            (cfg.beacon_period, cfg.beacon_jitter)
        };
        let j = if jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.nodes[idx].rng.below(jitter.as_nanos()))
        };
        let at = self.now + period + j;
        self.queue.push(at, Event::Beacon { node });
    }

    // lv-lint: hot
    fn on_cca(&mut self, node: u16, token: u64) {
        let idx = node as usize;
        if self.medium.is_dead(node) {
            return;
        }
        let floor = self.active.scan_floor(self.now, self.max_airtime);
        let channel = self.nodes[idx].channel;
        let clear = {
            let medium = &self.medium;
            let n = &mut self.nodes[idx];
            let mut busy = false;
            for (_, tx) in self.active.iter_from(floor) {
                if tx.end <= self.now || tx.start > self.now || tx.channel != channel {
                    continue;
                }
                if tx.sender == node {
                    busy = true; // own radio mid-transmission (e.g. an ack)
                    break;
                }
                if medium.cca_senses_fast(tx.sender, node, tx.power, &mut n.rng) {
                    busy = true;
                    break;
                }
            }
            !busy
        };
        let actions = {
            let n = &mut self.nodes[idx];
            let (mac, rng) = (&mut n.mac, &mut n.rng);
            mac.on_cca(token, clear, rng)
        };
        self.exec_mac_actions(node, actions);
    }

    // lv-lint: hot
    fn on_rx_end(&mut self, node: u16, tx_id: u64) {
        let idx = node as usize;
        let Some(tx) = self.active.get(tx_id) else {
            return;
        };
        if self.medium.is_dead(node) || self.nodes[idx].channel != tx.channel {
            return;
        }
        // One pass over the active table does double duty: detect the
        // half-duplex conflict (a node radiating during any part of the
        // frame cannot receive it) and aggregate co-channel
        // interference. The busy case discards the partial sum, and
        // ascending-id iteration over the slab keeps the float
        // accumulation order of the original two-pass code, so outcomes
        // are identical.
        let mut busy_transmitting = false;
        let mut interference_mw = 0.0;
        let floor = self.active.scan_floor(tx.start, self.max_airtime);
        let (tx_start, tx_end, tx_sender, tx_channel) = (tx.start, tx.end, tx.sender, tx.channel);
        for (_, other) in self.active.iter_from(floor) {
            if other.sender == node {
                if other.start < tx_end && other.end > tx_start {
                    busy_transmitting = true;
                    break;
                }
                continue; // own radio, but not overlapping this frame
            }
            if other.sender == tx_sender {
                continue;
            }
            if other.channel != tx_channel || other.start >= tx_end || other.end <= tx_start {
                continue;
            }
            if let Some(mw) = self.medium.mean_rx_mw(other.sender, node, other.power) {
                interference_mw += mw;
            }
        }
        if busy_transmitting {
            self.counters.incr_id(CounterId::RxHalfduplexMiss);
            return;
        }
        let (power, frame) = (tx.power, tx.frame.clone());
        let wire_len = frame.wire_len();
        // Channel-aware: picks up any bursty-interference noise offset
        // on the frame's channel.
        let assessment = self.medium.assess_on(
            tx_sender,
            node,
            power,
            wire_len,
            interference_mw,
            tx_channel,
            &mut self.nodes[idx].rng,
        );
        let Some(a) = assessment else {
            return; // below sensitivity (or link blocked)
        };
        // The radio actively demodulated this frame (even if it then
        // fails the CRC): charge receive energy for its airtime.
        let airtime = self.timing.frame_airtime(wire_len);
        self.nodes[idx].energy.charge_rx(airtime);
        if !a.delivered {
            self.counters.incr_id(CounterId::RxCorrupt);
            if self.trace.accepts(TraceLevel::Debug) {
                let at = self.now;
                self.trace.emit(
                    at,
                    node,
                    TraceLevel::Debug,
                    format!("rx.corrupt from={tx_sender} len={wire_len}"),
                );
            }
            return;
        }
        self.counters.incr_id(CounterId::RxFrames);
        let (actions, delivered) = {
            let nn = &mut self.nodes[idx];
            let rx = Reception {
                frame,
                rssi: a.rssi,
                lqi: a.lqi,
                snr_db: a.snr_db,
            };
            let (mac, rng) = (&mut nn.mac, &mut nn.rng);
            mac.on_frame_received(rx, rng)
        };
        self.exec_mac_actions(node, actions);
        if let Some(rx) = delivered {
            self.handle_reception(node, rx);
        }
    }

    fn handle_reception(&mut self, node: u16, rx: Reception) {
        let idx = node as usize;
        let now = self.now;
        let frame = rx.frame;
        self.nodes[idx].stack.neighbors.touch(frame.src, now);
        match frame.kind {
            FrameKind::Beacon => {
                if let Some(b) = BeaconPayload::decode(&frame.payload) {
                    self.nodes[idx].stack.on_beacon(frame.src, &b, now);
                    self.counters.incr_id(CounterId::RxBeacon);
                    self.record_link_obs(LinkObs {
                        at: now,
                        tx: frame.src,
                        rx: node,
                        lqi: rx.lqi,
                        rssi: rx.rssi,
                        beacon: true,
                    });
                    if self.trace.accepts(TraceLevel::Debug) {
                        self.trace.emit(
                            now,
                            node,
                            TraceLevel::Debug,
                            format!("rx.beacon from={} seq={}", frame.src, b.seq),
                        );
                    }
                }
            }
            FrameKind::Data => {
                let Some(pkt) = NetPacket::decode(&frame.payload) else {
                    self.counters.incr_id(CounterId::RxGarbled);
                    return;
                };
                self.record_link_obs(LinkObs {
                    at: now,
                    tx: frame.src,
                    rx: node,
                    lqi: rx.lqi,
                    rssi: rx.rssi,
                    beacon: false,
                });
                let hop = HopQuality {
                    lqi: rx.lqi,
                    rssi: rx.rssi,
                };
                enum Next {
                    Deliver(ProcessId, NetPacket),
                    Sent(Vec<MacAction>),
                    Dropped,
                }
                let next = {
                    let medium = &self.medium;
                    let nn = &mut self.nodes[idx];
                    let pos = medium.position(node);
                    let count = medium.node_count();
                    let locs = move |id: u16| ((id as usize) < count).then(|| medium.position(id));
                    match nn.stack.on_receive(pkt, hop, pos, &locs) {
                        RxAction::DeliverTo { pid, packet } => Next::Deliver(pid, packet),
                        RxAction::Forward { next_hop, packet } => {
                            let payload = packet.encode();
                            let (mac, rng) = (&mut nn.mac, &mut nn.rng);
                            let (ok, actions) = mac.send(FrameKind::Data, next_hop, payload, rng);
                            if !ok {
                                self.counters.incr_id(CounterId::NetQueueDrop);
                            } else {
                                self.counters.incr_id(CounterId::NetForward);
                            }
                            if self.trace.accepts(TraceLevel::Packet) {
                                self.trace.emit(
                                    now,
                                    node,
                                    TraceLevel::Packet,
                                    format!(
                                        "net.forward next_hop={next_hop} origin={} dst={}{}",
                                        packet.header.origin,
                                        packet.header.dst,
                                        if ok { "" } else { " (queue full)" },
                                    ),
                                );
                            }
                            Next::Sent(actions)
                        }
                        RxAction::Drop { reason } => {
                            self.counters.incr_id(reason.counter_id());
                            if self.trace.accepts(TraceLevel::Debug) {
                                self.trace.emit(
                                    now,
                                    node,
                                    TraceLevel::Debug,
                                    format!("net.drop reason={reason:?}"),
                                );
                            }
                            Next::Dropped
                        }
                    }
                };
                match next {
                    Next::Deliver(pid, packet) => {
                        let meta = RxMeta {
                            from: frame.src,
                            rssi: rx.rssi,
                            lqi: rx.lqi,
                        };
                        self.counters.incr_id(CounterId::NetDeliver);
                        if self.trace.accepts(TraceLevel::Packet) {
                            self.trace.emit(
                                now,
                                node,
                                TraceLevel::Packet,
                                format!(
                                    "net.deliver pid={pid} origin={} app_port={}",
                                    packet.header.origin, packet.header.app_port.0
                                ),
                            );
                        }
                        self.run_hook(node, pid, |p, ctx| p.on_packet(ctx, &packet, meta));
                    }
                    Next::Sent(actions) => self.exec_mac_actions(node, actions),
                    Next::Dropped => {}
                }
            }
            FrameKind::Ack => {
                // The MAC consumes acks in its rx path; one surfacing
                // here means the layering slipped. Count it and drop
                // the frame rather than aborting the whole simulation.
                self.counters.incr_id(CounterId::MacAnomaly);
                if self.trace.accepts(TraceLevel::Packet) {
                    self.trace.emit(
                        now,
                        node,
                        TraceLevel::Packet,
                        format!(
                            "mac.anomaly stray ack reached network layer from {} seq={}",
                            frame.src, frame.seq
                        ),
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // MAC action execution
    // ------------------------------------------------------------------

    fn exec_mac_actions(&mut self, node: u16, actions: Vec<MacAction>) {
        for action in actions {
            match action {
                MacAction::ScheduleCca { after, token } => {
                    let at = self.now + after;
                    self.queue.push(at, Event::MacCca { node, token });
                }
                MacAction::StartTx { frame } => {
                    self.begin_transmission(node, frame);
                }
                MacAction::ScheduleAckWait { after, token } => {
                    let at = self.now + after;
                    self.queue.push(at, Event::MacAckTimeout { node, token });
                }
                MacAction::SendAck { dst, seq } => {
                    // Immediate ack after the RX→TX turnaround. Reserve
                    // the radio so queued data cannot squeeze in first
                    // and delay the ack past the sender's ack-wait.
                    let at = self.now + self.timing.turnaround;
                    let idx = node as usize;
                    let reserved = at + self.timing.frame_airtime(5);
                    if reserved > self.ack_reserved_until[idx] {
                        self.ack_reserved_until[idx] = reserved;
                    }
                    self.queue.push(at, Event::SendAck { node, dst, seq });
                }
                MacAction::Delivered { frame, .. } => {
                    self.counters.incr_id(CounterId::MacDelivered);
                    if !frame.is_broadcast() {
                        let now = self.now;
                        let n = &mut self.nodes[node as usize];
                        n.stack.neighbors.touch(frame.dst, now);
                        n.stack.neighbors.link_feedback(frame.dst, true);
                    }
                }
                MacAction::Failed { frame, reason } => {
                    self.counters.incr_id(reason.counter_id());
                    if self.trace.accepts(TraceLevel::Debug) {
                        let at = self.now;
                        self.trace.emit(
                            at,
                            node,
                            TraceLevel::Debug,
                            format!(
                                "mac.failed dst={} seq={} reason={reason:?}",
                                frame.dst, frame.seq
                            ),
                        );
                    }
                    if !frame.is_broadcast() {
                        self.nodes[node as usize]
                            .stack
                            .neighbors
                            .link_feedback(frame.dst, false);
                    }
                }
                MacAction::Anomaly { context } => {
                    // A spurious ack or stale timer the CSMA machine
                    // cannot match to its state: counted, traced, frame
                    // dropped, node alive — never a panic of the loop.
                    self.counters.incr_id(CounterId::MacAnomaly);
                    if self.trace.accepts(TraceLevel::Debug) {
                        let at = self.now;
                        self.trace.emit(
                            at,
                            node,
                            TraceLevel::Debug,
                            format!("mac.anomaly: {context}"),
                        );
                    }
                }
            }
        }
    }

    // lv-lint: hot
    fn begin_transmission(&mut self, node: u16, frame: Frame) {
        let idx = node as usize;
        if self.medium.is_dead(node) {
            return;
        }
        // Half duplex, one frame at a time: if the radio is mid-frame,
        // defer this transmission until it frees up (plus a turnaround).
        // Data frames additionally yield to a pending immediate ack.
        let mut busy = self.tx_busy_until[idx];
        if frame.kind != FrameKind::Ack {
            busy = busy.max(self.ack_reserved_until[idx]);
        }
        if busy > self.now {
            let at = busy + self.timing.turnaround;
            let frame = self.arena.frames.insert(frame);
            self.queue.push(at, Event::TxStart { node, frame });
            return;
        }
        let wire_len = frame.wire_len();
        let airtime = self.timing.frame_airtime(wire_len);
        if airtime > self.max_airtime {
            self.max_airtime = airtime;
        }
        let start = self.now;
        let end = start + airtime;
        let (tx_power, tx_channel) = (self.nodes[idx].power, self.nodes[idx].channel);
        self.tx_busy_until[idx] = end;
        self.nodes[idx].energy.charge_tx(airtime, tx_power);
        let (kind_id, kind) = match frame.kind {
            FrameKind::Data => (CounterId::TxData, "tx.data"),
            FrameKind::Ack => (CounterId::TxAck, "tx.ack"),
            FrameKind::Beacon => (CounterId::TxBeacon, "tx.beacon"),
        };
        self.counters.incr_id(kind_id);
        self.counters.add_id(CounterId::TxBytes, wire_len as u64);
        if self.trace.accepts(TraceLevel::Packet) {
            self.trace.emit(
                start,
                node,
                TraceLevel::Packet,
                format!("{kind} dst={} seq={} len={wire_len}", frame.dst, frame.seq),
            );
        }
        let tx_id = self.next_tx;
        self.next_tx += 1;
        // Schedule receptions first so that, at the same instant, every
        // RxEnd for this frame pops before its TxEnd. `reachable` yields
        // exactly the nodes `hears` accepts, ascending by id — O(degree)
        // through the medium's candidate cache instead of O(N).
        for j in self.medium.reachable(node, tx_power) {
            if j == node {
                continue;
            }
            self.queue.push(end, Event::RxEnd { node: j, tx_id });
        }
        self.queue.push(end, Event::TxEnd { node, tx_id });
        self.active.push(
            tx_id,
            ActiveTx {
                start,
                end,
                frame: Arc::new(frame),
                sender: node,
                channel: tx_channel,
                power: tx_power,
                aborted: false,
            },
        );
        // Lazy prune, amortized: only sweep once the table doubles past
        // its last post-prune size. Entries older than the 50 ms grace
        // window are invisible to every interference / CCA / half-duplex
        // lookback, so deferring their removal is observationally inert.
        if self.active.len() >= self.prune_at {
            let horizon = self.now - SimDuration::from_millis(50);
            self.active.prune(horizon);
            // Re-arm a fixed step above the live set: the table never
            // carries more than ~ACTIVE_PRUNE_MIN stale entries, which
            // keeps the per-reception scans short while still amortizing
            // each O(len) sweep over ACTIVE_PRUNE_MIN insertions.
            self.prune_at = self.active.len() + ACTIVE_PRUNE_MIN;
        }
    }

    // ------------------------------------------------------------------
    // Process hooks and effects
    // ------------------------------------------------------------------

    /// Run one process hook. The process leaves its slot for the call
    /// and the context borrows the rest of the live node: every syscall
    /// is a deferred [`Effect`], so nothing the hook reads can change
    /// under it, and the effects apply once the process is back.
    fn run_hook(
        &mut self,
        node: u16,
        pid: ProcessId,
        hook: impl FnOnce(&mut dyn Process, &mut SysCtx<'_>),
    ) {
        if self.medium.is_dead(node) {
            return;
        }
        let medium = &self.medium;
        let Node {
            name,
            power,
            channel,
            mac,
            stack,
            processes,
            log,
            rng,
            ..
        } = &mut self.nodes[node as usize];
        let Some(slot) = processes.get_mut(&pid) else {
            return;
        };
        let Some(mut process) = slot.process.take() else {
            return; // re-entrant hook (cannot happen in this loop)
        };
        let pos = medium.position(node);
        let count = medium.node_count();
        let locs = move |id: u16| ((id as usize) < count).then(|| medium.position(id));
        let resolver =
            |port: lv_net::packet::Port, dst: u16| stack.query_next_hop(port, dst, pos, &locs);
        let mut ctx = SysCtx::new(
            self.now,
            node,
            name,
            pid,
            &slot.params,
            *power,
            *channel,
            mac.queue_len(),
            log.entries(),
            rng,
            stack,
            &resolver,
        );
        hook(process.as_mut(), &mut ctx);
        let effects = ctx.take_effects();
        slot.process = Some(process);
        self.apply_effects(node, pid, effects);
    }

    fn apply_effects(&mut self, node: u16, pid: ProcessId, effects: Vec<Effect>) {
        let idx = node as usize;
        for effect in effects {
            match effect {
                Effect::Send {
                    dst,
                    carrying_port,
                    app_port,
                    payload,
                    padding,
                } => {
                    enum Out {
                        Actions(Vec<MacAction>),
                        Local(ProcessId, NetPacket),
                        None,
                    }
                    let out = {
                        let medium = &self.medium;
                        let n = &mut self.nodes[idx];
                        let pkt =
                            n.stack
                                .make_packet(dst, carrying_port, app_port, payload, padding);
                        let pos = medium.position(node);
                        let count = medium.node_count();
                        let locs =
                            move |id: u16| ((id as usize) < count).then(|| medium.position(id));
                        match n.stack.route_local(pkt, pos, &locs) {
                            RxAction::Forward { next_hop, packet } => {
                                let bytes = packet.encode();
                                let (mac, rng) = (&mut n.mac, &mut n.rng);
                                let (ok, actions) = mac.send(FrameKind::Data, next_hop, bytes, rng);
                                if ok {
                                    self.counters.incr_id(CounterId::NetOriginate);
                                    Out::Actions(actions)
                                } else {
                                    self.counters.incr_id(CounterId::NetQueueDrop);
                                    Out::None
                                }
                            }
                            RxAction::DeliverTo { pid, packet } => Out::Local(pid, packet),
                            RxAction::Drop { reason } => {
                                self.counters.incr_id(reason.counter_id());
                                Out::None
                            }
                        }
                    };
                    match out {
                        Out::Actions(actions) => self.exec_mac_actions(node, actions),
                        Out::Local(pid, packet) => {
                            let at = self.now + self.config.cpu_cost;
                            let packet = self.arena.packets.insert(packet);
                            self.queue
                                .push(at, Event::LocalDeliver { node, pid, packet });
                        }
                        Out::None => {}
                    }
                }
                Effect::Timer { token, after } => {
                    let at = self.now + after;
                    self.queue.push(at, Event::Timer { node, pid, token });
                }
                Effect::Subscribe(port) => {
                    if self.nodes[idx].stack.subscribe(port, pid).is_err() {
                        self.counters.incr_id(CounterId::SysSubscribeConflict);
                    }
                }
                Effect::Unsubscribe(port) => {
                    self.nodes[idx].stack.unsubscribe(port);
                }
                Effect::Spawn { process, params } => {
                    match self.nodes[idx].register_process(process, params) {
                        Ok(child) => {
                            let at = self.now + self.config.cpu_cost;
                            self.queue
                                .push(at, Event::ProcessStart { node, pid: child });
                        }
                        Err(e) => {
                            let now = self.now;
                            // Cold error branch: the detail string is
                            // built at most once per failed spawn, not
                            // per event.
                            // lv-lint: allow(hot-path-alloc)
                            self.nodes[idx].log.record(now, "spawn_fail", e.to_string());
                            self.counters.incr_id(CounterId::SysSpawnFail);
                        }
                    }
                }
                Effect::Exit => {
                    self.nodes[idx].remove_process(pid);
                }
                Effect::Blacklist { id, value } => {
                    if !self.nodes[idx].stack.neighbors.set_blacklisted(id, value) {
                        self.counters.incr_id(CounterId::SysBlacklistUnknown);
                    }
                }
                Effect::SetPower(level) => self.nodes[idx].power = level,
                Effect::SetChannel(channel) => self.nodes[idx].channel = channel,
                Effect::SetBeaconPeriod(period) => {
                    self.nodes[idx].stack.config_mut().beacon_period = period;
                }
                Effect::SetLogging(enabled) => {
                    self.nodes[idx].log.set_enabled(enabled);
                }
                Effect::Log { code, detail } => {
                    let now = self.now;
                    self.nodes[idx].log.record(now, code, detail);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Process;
    use crate::resources::ProcessImage;
    use lv_net::packet::Port;
    use lv_radio::propagation::PropagationConfig;
    use lv_radio::units::Position;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn line_medium(n: usize, spacing: f64, seed: u64) -> Medium {
        let positions = (0..n)
            .map(|i| Position::new(i as f64 * spacing, 0.0))
            .collect();
        Medium::new(positions, PropagationConfig::default(), seed)
    }

    /// A process that echoes every packet back to its origin over a
    /// chosen carrying port.
    struct Echo {
        port: Port,
        carry: Port,
        received: Rc<RefCell<Vec<Vec<u8>>>>,
    }
    impl Process for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
            ctx.subscribe(self.port);
        }
        fn on_packet(&mut self, ctx: &mut SysCtx<'_>, packet: &NetPacket, _meta: RxMeta) {
            self.received.borrow_mut().push(packet.payload.to_vec());
            ctx.send(
                packet.header.origin,
                self.carry,
                self.port,
                packet.payload.to_vec(),
                true,
            );
        }
    }

    /// A process that sends one packet at start.
    struct OneShot {
        dst: u16,
        port: Port,
        got_reply: Rc<RefCell<u32>>,
    }
    impl Process for OneShot {
        fn name(&self) -> &str {
            "oneshot"
        }
        fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
            ctx.subscribe(self.port);
            ctx.send(self.dst, self.port, self.port, vec![1, 2, 3], false);
        }
        fn on_packet(&mut self, _ctx: &mut SysCtx<'_>, _packet: &NetPacket, _meta: RxMeta) {
            *self.got_reply.borrow_mut() += 1;
        }
    }

    #[test]
    fn one_hop_request_reply() {
        let mut net = Network::new(line_medium(2, 5.0, 7), 7);
        let received = Rc::new(RefCell::new(Vec::new()));
        let replies = Rc::new(RefCell::new(0));
        net.spawn_process(
            1,
            Box::new(Echo {
                port: Port(30),
                carry: Port(30),
                received: received.clone(),
            }),
            vec![],
        )
        .unwrap();
        net.run_for(SimDuration::from_millis(10));
        net.spawn_process(
            0,
            Box::new(OneShot {
                dst: 1,
                port: Port(30),
                got_reply: replies.clone(),
            }),
            vec![],
        )
        .unwrap();
        net.run_for(SimDuration::from_millis(200));
        assert_eq!(received.borrow().len(), 1);
        assert_eq!(received.borrow()[0], vec![1, 2, 3]);
        assert_eq!(*replies.borrow(), 1);
        assert!(net.counters.get("tx.data") >= 2);
        assert!(net.counters.get("tx.ack") >= 2);
    }

    #[test]
    fn beacons_populate_neighbor_tables() {
        let mut net = Network::new(line_medium(3, 5.0, 3), 3);
        net.run_for(SimDuration::from_secs(20));
        // Middle node hears both ends.
        let nt = &net.node(1).stack.neighbors;
        assert!(nt.get(0).is_some());
        assert!(nt.get(2).is_some());
        assert!(nt.get(0).unwrap().inbound() > 0.8);
        // Names learned from beacons.
        assert_eq!(nt.get(0).unwrap().name, "192.168.0.1");
        // Outbound learned from the reverse advertisements.
        assert!(nt.get(0).unwrap().outbound.is_some());
    }

    #[test]
    fn distant_nodes_never_meet() {
        let mut net = Network::new(line_medium(2, 400.0, 3), 3);
        net.run_for(SimDuration::from_secs(10));
        assert!(net.node(0).stack.neighbors.is_empty());
        assert!(net.node(1).stack.neighbors.is_empty());
    }

    #[test]
    fn dead_node_goes_silent() {
        let mut net = Network::new(line_medium(2, 5.0, 3), 3);
        net.run_for(SimDuration::from_secs(5));
        assert!(net.node(1).stack.neighbors.get(0).is_some());
        // Kill node 0: only node 1 beacons now, so the beacon rate
        // roughly halves, and node 1's neighbor table expires node 0.
        let before = net.counters.get("tx.beacon");
        net.medium.set_dead(0, true);
        net.run_for(SimDuration::from_secs(10));
        let delta = net.counters.get("tx.beacon") - before;
        assert!(delta <= 7, "beacons after kill: {delta}");
        net.run_for(SimDuration::from_secs(20));
        assert!(net.node(1).stack.neighbors.get(0).is_none());
    }

    #[test]
    fn multi_hop_geographic_delivery() {
        // 5 nodes in a line, 12 m apart: ends can't hear each other
        // directly at full power (path loss at 48 m ≫ at 12 m), so the
        // packet must hop. Use geographic forwarding on port 10.
        let mut net = Network::new(line_medium(5, 12.0, 11), 11);
        for i in 0..5 {
            net.install_router(
                i,
                Box::new(lv_net::routing::Geographic::new(Port::GEOGRAPHIC)),
            )
            .unwrap();
        }
        // Let beacons build the tables.
        net.run_for(SimDuration::from_secs(20));
        let received = Rc::new(RefCell::new(Vec::new()));
        net.spawn_process(
            4,
            Box::new(Echo {
                port: Port(31),
                carry: Port::GEOGRAPHIC,
                received: received.clone(),
            }),
            vec![],
        )
        .unwrap();
        let replies = Rc::new(RefCell::new(0));
        net.spawn_process(
            0,
            Box::new(OneShotRouted {
                dst: 4,
                got_reply: replies.clone(),
            }),
            vec![],
        )
        .unwrap();
        net.run_for(SimDuration::from_secs(2));
        assert_eq!(received.borrow().len(), 1, "payload must reach node 4");
        assert_eq!(*replies.borrow(), 1, "reply must return to node 0");
        assert!(net.counters.get("net.forward") >= 4, "must actually hop");
    }

    /// Sends one packet via the geographic router and counts replies.
    struct OneShotRouted {
        dst: u16,
        got_reply: Rc<RefCell<u32>>,
    }
    impl Process for OneShotRouted {
        fn name(&self) -> &str {
            "oneshot-routed"
        }
        fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
            ctx.subscribe(Port(31));
            ctx.send(self.dst, Port::GEOGRAPHIC, Port(31), vec![9; 16], true);
        }
        fn on_packet(&mut self, _ctx: &mut SysCtx<'_>, packet: &NetPacket, _meta: RxMeta) {
            // The reply crossed the same path; padding accumulated.
            assert!(!packet.hop_qualities().is_empty());
            *self.got_reply.borrow_mut() += 1;
        }
    }

    #[test]
    fn determinism_same_seed_same_counters() {
        let run = |seed: u64| {
            let mut net = Network::new(line_medium(4, 8.0, seed), seed);
            net.run_for(SimDuration::from_secs(30));
            format!("{:?}", net.counters.iter().collect::<Vec<_>>())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn process_exit_releases_port() {
        struct Quitter;
        impl Process for Quitter {
            fn name(&self) -> &str {
                "quitter"
            }
            fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
                ctx.subscribe(Port(40));
                ctx.exit();
            }
        }
        let mut net = Network::new(line_medium(1, 1.0, 3), 3);
        let pid = net.spawn_process(0, Box::new(Quitter), vec![]).unwrap();
        net.run_for(SimDuration::from_millis(10));
        assert!(!net.node(0).processes.contains_key(&pid));
        assert_eq!(net.node(0).stack.lookup(Port(40)), None);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerProc {
            fired: Rc<RefCell<Vec<u32>>>,
        }
        impl Process for TimerProc {
            fn name(&self) -> &str {
                "timers"
            }
            fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
                ctx.set_timer(2, SimDuration::from_millis(20));
                ctx.set_timer(1, SimDuration::from_millis(10));
                ctx.set_timer(3, SimDuration::from_millis(30));
            }
            fn on_timer(&mut self, _ctx: &mut SysCtx<'_>, token: u32) {
                self.fired.borrow_mut().push(token);
            }
        }
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut net = Network::new(line_medium(1, 1.0, 3), 3);
        net.spawn_process(
            0,
            Box::new(TimerProc {
                fired: fired.clone(),
            }),
            vec![],
        )
        .unwrap();
        net.run_for(SimDuration::from_millis(100));
        assert_eq!(*fired.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn channel_isolation() {
        // Node 1 moves to another channel; node 0's beacons no longer
        // reach it.
        let mut net = Network::new(line_medium(2, 5.0, 3), 3);
        net.node_mut(1).channel = Channel::new(20).unwrap();
        net.run_for(SimDuration::from_secs(10));
        assert!(net.node(1).stack.neighbors.get(0).is_none());
        assert!(net.node(0).stack.neighbors.get(1).is_none());
    }

    #[test]
    fn local_delivery_loops_back() {
        struct SelfSend {
            got: Rc<RefCell<u32>>,
        }
        impl Process for SelfSend {
            fn name(&self) -> &str {
                "selfsend"
            }
            fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
                ctx.subscribe(Port(41));
                let me = ctx.node_id;
                ctx.send(me, Port::GEOGRAPHIC, Port(41), vec![7], false);
            }
            fn on_packet(&mut self, _ctx: &mut SysCtx<'_>, packet: &NetPacket, _m: RxMeta) {
                assert_eq!(packet.payload, vec![7]);
                *self.got.borrow_mut() += 1;
            }
        }
        let got = Rc::new(RefCell::new(0));
        let mut net = Network::new(line_medium(1, 1.0, 3), 3);
        net.install_router(
            0,
            Box::new(lv_net::routing::Geographic::new(Port::GEOGRAPHIC)),
        )
        .unwrap();
        net.spawn_process(0, Box::new(SelfSend { got: got.clone() }), vec![])
            .unwrap();
        net.run_for(SimDuration::from_millis(10));
        assert_eq!(*got.borrow(), 1);
    }

    /// Step the net in 20 µs slices until `sender` has a frame on the
    /// air, panicking if it never transmits.
    fn run_until_airborne(net: &mut Network, sender: u16) {
        let deadline = net.now() + SimDuration::from_secs(1);
        loop {
            let now = net.now;
            if net
                .active
                .iter_from(0)
                .any(|(_, tx)| tx.sender == sender && tx.end > now)
            {
                return;
            }
            assert!(now < deadline, "node {sender} never started transmitting");
            net.run_until(now + SimDuration::from_micros(20));
        }
    }

    /// Satellite regression: killing a node while its frame is on the
    /// air must truncate its active-transmission entries, release the
    /// radio-busy and ack reservations, and deliver nothing from the
    /// aborted frame.
    #[test]
    fn node_down_mid_flight_leaves_no_stale_transmissions() {
        let mut net = Network::with_config(
            line_medium(2, 5.0, 7),
            7,
            NetworkConfig {
                beacons_enabled: false,
                ..NetworkConfig::default()
            },
        );
        let received = Rc::new(RefCell::new(Vec::new()));
        net.spawn_process(
            1,
            Box::new(Echo {
                port: Port(50),
                carry: Port(50),
                received: received.clone(),
            }),
            vec![],
        )
        .unwrap();
        let replies = Rc::new(RefCell::new(0));
        net.spawn_process(
            0,
            Box::new(OneShot {
                dst: 1,
                port: Port(50),
                got_reply: replies.clone(),
            }),
            vec![],
        )
        .unwrap();
        run_until_airborne(&mut net, 0);
        // Kill the sender mid-frame.
        net.schedule_dynamics(net.now(), DynamicsAction::NodeDown { id: 0 });
        net.run_for(SimDuration::from_micros(1));
        assert_eq!(net.counters.get("dyn.node_down"), 1);
        assert!(
            net.active.iter_from(0).all(|(_, tx)| tx.sender != 0),
            "dead sender must not keep active-transmission entries"
        );
        assert!(net.tx_busy_until[0] <= net.now());
        assert!(net.ack_reserved_until[0] <= net.now());
        // The aborted frame never arrives, so the echo never fires.
        net.run_for(SimDuration::from_secs(2));
        assert!(received.borrow().is_empty());
        assert_eq!(*replies.borrow(), 0);
    }

    /// Satellite regression: hard-blocking a link while a frame is in
    /// flight is decided at reception end (`assess_on` consults the
    /// override), resolves deterministically under replay, and leaves
    /// no transmission pinned in the active table.
    #[test]
    fn mid_flight_link_block_is_deterministic_and_drops_the_frame() {
        let run = |seed: u64| {
            let mut net = Network::with_config(
                line_medium(2, 5.0, seed),
                seed,
                NetworkConfig {
                    beacons_enabled: false,
                    ..NetworkConfig::default()
                },
            );
            let received = Rc::new(RefCell::new(Vec::new()));
            net.spawn_process(
                1,
                Box::new(Echo {
                    port: Port(51),
                    carry: Port(51),
                    received: received.clone(),
                }),
                vec![],
            )
            .unwrap();
            let replies = Rc::new(RefCell::new(0));
            net.spawn_process(
                0,
                Box::new(OneShot {
                    dst: 1,
                    port: Port(51),
                    got_reply: replies.clone(),
                }),
                vec![],
            )
            .unwrap();
            run_until_airborne(&mut net, 0);
            net.schedule_dynamics(
                net.now(),
                DynamicsAction::SetLinkLoss {
                    from: 0,
                    to: 1,
                    extra_loss_db: 0.0,
                    blocked: true,
                },
            );
            net.run_for(SimDuration::from_secs(2));
            // The frame completed on the sender side…
            assert!(net.counters.get("tx.data") >= 1);
            // …but the blocked receiver never decoded it.
            assert!(received.borrow().is_empty());
            assert_eq!(*replies.borrow(), 0);
            // Nothing is left pinned mid-flight.
            let now = net.now;
            assert!(net.active.iter_from(0).all(|(_, tx)| tx.end <= now));
            format!(
                "{:?} {:?} {}",
                net.counters,
                net.node_stats(),
                net.events_dispatched()
            )
        };
        assert_eq!(run(9), run(9));
    }

    /// Satellite regression: a death + cold-reboot churn cycle clears
    /// the rebooted node's volatile state, lets the peer expire the
    /// stale entry, and beacons rebuild both directions afterwards.
    #[test]
    fn churn_death_and_reboot_rebuilds_neighbor_state() {
        let mut net = Network::new(line_medium(2, 5.0, 5), 5);
        net.run_for(SimDuration::from_secs(10));
        assert!(net.node(0).stack.neighbors.get(1).is_some());
        assert!(net.node(1).stack.neighbors.get(0).is_some());
        let t0 = net.now();
        net.schedule_dynamics(
            t0 + SimDuration::from_secs(1),
            DynamicsAction::NodeDown { id: 0 },
        );
        net.schedule_dynamics(
            t0 + SimDuration::from_secs(30),
            DynamicsAction::NodeUp { id: 0 },
        );
        // While node 0 is dark its peer expires the stale entry…
        net.run_until(t0 + SimDuration::from_secs(30));
        net.run_for(SimDuration::from_millis(1));
        assert!(net.node(1).stack.neighbors.get(0).is_none());
        // …and the reboot comes back alive with an empty table.
        assert!(!net.medium.is_dead(0));
        assert!(net.node(0).stack.neighbors.get(1).is_none());
        // Beacons rebuild both directions.
        net.run_for(SimDuration::from_secs(15));
        assert!(net.node(0).stack.neighbors.get(1).is_some());
        assert!(net.node(1).stack.neighbors.get(0).is_some());
        assert_eq!(net.counters.get("dyn.node_down"), 1);
        assert_eq!(net.counters.get("dyn.node_up"), 1);
    }

    /// Regression: actions naming nodes past `node_count()` used to
    /// index the node table unchecked and panic the event loop. They
    /// are dropped, counted and traced; valid actions still apply.
    #[test]
    fn dynamics_naming_missing_nodes_are_dropped() {
        let mut net = Network::new(line_medium(2, 5.0, 7), 7);
        net.trace = Trace::enabled(TraceLevel::Info, 64);
        let n = net.node_count() as u16;
        let t0 = net.now();
        net.schedule_dynamics(t0, DynamicsAction::NodeDown { id: n });
        net.schedule_dynamics(
            t0,
            DynamicsAction::MoveNode {
                id: n + 5,
                position: Position::new(1.0, 1.0),
            },
        );
        net.schedule_dynamics(t0, DynamicsAction::NodeDown { id: 1 });
        net.run_for(SimDuration::from_secs(5));
        assert_eq!(net.counters.get("dyn.invalid"), 2);
        assert_eq!(net.counters.get("dyn.node_down"), 1);
        assert_eq!(net.counters.get("dyn.reconfig"), 0);
        let warnings = net.trace.find("dyn.invalid");
        assert_eq!(warnings.len(), 2);
        assert!(warnings.iter().all(|e| e.level == TraceLevel::Warn));
    }
    // ------------------------------------------------------------------
    // Runtime invariant auditor (crate::audit)
    // ------------------------------------------------------------------

    /// Regression for the PR 4 bug class: flash charged without a
    /// stored program file behind it. The auditor must trip on the
    /// exact imbalance that leak produced.
    #[test]
    fn auditor_trips_on_reinjected_flash_leak() {
        let mut net = Network::new(line_medium(2, 5.0, 11), 11);
        net.set_audit(true);
        net.spawn_process(
            0,
            Box::new(OneShot {
                dst: 1,
                port: Port(40),
                got_reply: Rc::new(RefCell::new(0)),
            }),
            vec![],
        )
        .unwrap();
        net.run_for(SimDuration::from_millis(50));
        assert!(net.check_invariants().is_ok(), "healthy run must be clean");
        // Re-create the leak: charge flash as if a spawn stored a new
        // program file, without actually storing one.
        net.node_mut(0)
            .resources
            .corrupt_flash_for_audit_test(ProcessImage::PING.flash_bytes);
        match net.check_invariants() {
            Err(AuditViolation::FlashImbalance {
                node,
                flash_used,
                stored_total,
            }) => {
                assert_eq!(node, 0);
                assert_eq!(flash_used, stored_total + ProcessImage::PING.flash_bytes);
            }
            other => panic!("expected FlashImbalance, got {other:?}"),
        }
        // The violation is also recorded on the audit log.
        assert!(!net.audit_violations().is_empty());
    }

    /// A RAM ledger that disagrees with the live process slots is the
    /// other half of the resource invariant.
    #[test]
    fn auditor_trips_on_ram_imbalance() {
        let mut net = Network::new(line_medium(1, 5.0, 11), 11);
        assert!(net.check_invariants().is_ok());
        // Charge the ledger with no process slot behind it: ram_used
        // now over-reports the live slots.
        net.node_mut(0)
            .resources
            .register(ProcessImage::PING)
            .unwrap();
        assert!(matches!(
            net.check_invariants(),
            Err(AuditViolation::RamImbalance { node: 0, .. })
        ));
    }

    /// Killing a node through the dynamics engine aborts its
    /// transmissions (the churn guarantee), so the auditor stays clean;
    /// flipping the medium's dead bit behind the engine's back leaves a
    /// stale entry the sweep must catch.
    #[test]
    fn auditor_catches_stale_transmissions_only_on_raw_kill() {
        let run = |raw_kill: bool| {
            let mut net = Network::with_config(
                line_medium(2, 5.0, 13),
                13,
                NetworkConfig {
                    beacons_enabled: false,
                    ..NetworkConfig::default()
                },
            );
            net.set_audit(true);
            net.spawn_process(
                0,
                Box::new(OneShot {
                    dst: 1,
                    port: Port(42),
                    got_reply: Rc::new(RefCell::new(0)),
                }),
                vec![],
            )
            .unwrap();
            run_until_airborne(&mut net, 0);
            if raw_kill {
                net.medium.set_dead(0, true);
            } else {
                net.schedule_dynamics(net.now(), DynamicsAction::NodeDown { id: 0 });
                net.run_for(SimDuration::from_micros(1));
            }
            net.check_invariants()
        };
        assert!(run(false).is_ok(), "dynamics churn must leave no stale tx");
        assert!(
            matches!(
                run(true),
                Err(AuditViolation::StaleActiveTx { sender: 0, .. })
            ),
            "raw kill must trip the stale-transmission sweep"
        );
    }

    /// An event scheduled in the past is dispatched at its (earlier)
    /// timestamp; with auditing on, that time regression is recorded.
    #[test]
    fn auditor_records_time_regression() {
        let mut net = Network::with_config(
            line_medium(1, 5.0, 17),
            17,
            NetworkConfig {
                beacons_enabled: false,
                ..NetworkConfig::default()
            },
        );
        net.set_audit(true);
        net.run_for(SimDuration::from_secs(1));
        assert!(net.audit_violations().is_empty());
        // `schedule_dynamics` clamps past timestamps to now, so reach
        // under it: push an event dated t=0 straight onto the queue,
        // the way a buggy scheduler would.
        let action = net.arena.dynamics.insert(DynamicsAction::SetChannelNoise {
            channel: Channel::default(),
            delta_db: 1.0,
        });
        net.queue.push(SimTime::ZERO, Event::Dynamics { action });
        net.run_for(SimDuration::from_millis(1));
        assert!(
            net.audit_violations()
                .iter()
                .any(|v| matches!(v, AuditViolation::TimeRegression { .. })),
            "got {:?}",
            net.audit_violations()
        );
    }

    /// Auditing is off by default and `set_audit(false)` drops the log.
    #[test]
    fn audit_disabled_by_default_and_resettable() {
        let mut net = Network::new(line_medium(1, 5.0, 19), 19);
        assert!(!net.audit_enabled());
        assert!(net.audit_violations().is_empty());
        net.set_audit(true);
        assert!(net.audit_enabled());
        net.node_mut(0).resources.corrupt_flash_for_audit_test(1);
        let _ = net.check_invariants();
        assert!(!net.audit_violations().is_empty());
        net.set_audit(false);
        assert!(net.audit_violations().is_empty());
    }
}

#[cfg(test)]
mod collision_tests {
    use super::*;
    use lv_radio::medium::LinkOverride;
    use lv_radio::propagation::PropagationConfig;
    use lv_radio::units::Position;

    /// Hidden-terminal setup: 0 and 2 both hear 1 but not each other.
    fn hidden_terminal_medium(seed: u64) -> Medium {
        let mut m = Medium::new(
            vec![
                Position::new(0.0, 0.0),
                Position::new(6.0, 0.0),
                Position::new(12.0, 0.0),
            ],
            PropagationConfig::default(),
            seed,
        );
        let blocked = LinkOverride {
            blocked: true,
            ..Default::default()
        };
        m.set_override(0, 2, blocked);
        m.set_override(2, 0, blocked);
        m
    }

    /// A process that streams frames at node 1: one every 2 ms for 200
    /// rounds — sustained contention, so overlap opportunities recur.
    struct Burster {
        rounds: u32,
    }
    impl crate::process::Process for Burster {
        fn name(&self) -> &str {
            "burster"
        }
        fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
            // Small start jitter so the two streams are offset, as real
            // independent applications would be.
            let jitter = SimDuration::from_nanos(ctx.rng.below(2_000_000));
            ctx.set_timer(1, SimDuration::from_millis(5) + jitter);
        }
        fn on_timer(&mut self, ctx: &mut SysCtx<'_>, _token: u32) {
            ctx.send(
                1,
                lv_net::packet::Port(80),
                lv_net::packet::Port(80),
                vec![0xEE; 40],
                false,
            );
            self.rounds += 1;
            if self.rounds < 200 {
                ctx.set_timer(1, SimDuration::from_millis(2));
            }
        }
    }

    /// Run the two-sender contention scenario; returns rx.corrupt.
    fn contention_losses(medium: Medium, seed: u64) -> u64 {
        let mut net = Network::with_config(
            medium,
            seed,
            NetworkConfig {
                beacons_enabled: false,
                ..NetworkConfig::default()
            },
        );
        net.spawn_process(0, Box::new(Burster { rounds: 0 }), vec![])
            .unwrap();
        net.spawn_process(2, Box::new(Burster { rounds: 0 }), vec![])
            .unwrap();
        net.run_for(SimDuration::from_secs(3));
        net.counters.get("rx.corrupt")
    }

    #[test]
    fn hidden_terminals_collide_at_the_middle() {
        // CSMA cannot save hidden terminals: 0 and 2 sense a clear
        // channel while the other is mid-frame, and their frames overlap
        // at node 1, where SINR collapses and receptions are lost.
        let mut total = 0;
        for seed in 0..5 {
            total += contention_losses(hidden_terminal_medium(seed), seed);
        }
        assert!(total > 10, "expected sustained SINR losses, got {total}");
        // Sanity: CCA alone could not have prevented overlap, because
        // neither sender can hear the other at all.
        let m = hidden_terminal_medium(0);
        assert!(!m.hears(0, 2, lv_radio::PowerLevel::MAX));
    }

    /// The same sustained contention without a hidden terminal (all
    /// mutually audible): carrier sensing defers most overlaps.
    #[test]
    fn mutually_audible_senders_mostly_avoid_collisions() {
        // Senders 4 m apart (well above the −77 dBm CCA threshold, so
        // each reliably senses the other), receiver in between.
        let audible_medium = |seed| {
            Medium::new(
                vec![
                    Position::new(0.0, 0.0),
                    Position::new(2.0, 2.0),
                    Position::new(4.0, 0.0),
                ],
                PropagationConfig::default(),
                seed,
            )
        };
        let mut audible = 0;
        let mut hidden = 0;
        for seed in 0..5 {
            audible += contention_losses(audible_medium(seed), seed);
            hidden += contention_losses(hidden_terminal_medium(seed), seed);
        }
        // Residual collisions remain (two senders drawing the same
        // backoff slot still overlap — real 802.15.4 behaviour), but
        // carrier sensing must remove a solid share of them.
        assert!(
            (audible as f64) <= hidden as f64 * 0.8,
            "carrier sensing should cut losses: audible={audible}, hidden={hidden}"
        );
    }

    /// Digest of everything a run can observably produce.
    fn run_digest(net: &Network) -> String {
        format!(
            "{:?} {:?} {}",
            net.counters,
            net.node_stats(),
            net.events_dispatched()
        )
    }

    fn contention_net(seed: u64) -> Network {
        let mut net = Network::with_config(
            hidden_terminal_medium(seed),
            seed,
            NetworkConfig {
                beacons_enabled: false,
                ..NetworkConfig::default()
            },
        );
        net.spawn_process(0, Box::new(Burster { rounds: 0 }), vec![])
            .unwrap();
        net.spawn_process(2, Box::new(Burster { rounds: 0 }), vec![])
            .unwrap();
        net
    }

    /// Satellite regression: pruning `active` on a threshold must be
    /// invisible. A run that prunes as aggressively as possible (the
    /// old per-transmission behaviour) and a run that never prunes at
    /// all produce identical counters, node stats, and event counts —
    /// i.e. the 50 ms interference-lookback grace window survives
    /// pruning at any cadence.
    #[test]
    fn prune_cadence_does_not_change_outcomes() {
        for seed in [3u64, 17] {
            let mut eager = contention_net(seed);
            let mut step = SimTime::ZERO;
            while step < SimTime::ZERO + SimDuration::from_secs(3) {
                // Re-arm constantly so every transmission prunes, as the
                // pre-threshold code did.
                eager.prune_at = 1;
                step += SimDuration::from_millis(10);
                eager.run_until(step);
            }

            let mut never = contention_net(seed);
            never.prune_at = usize::MAX;
            never.run_for(SimDuration::from_secs(3));
            assert!(
                never.active.len() > 200,
                "never-prune run must retain history"
            );

            assert_eq!(run_digest(&eager), run_digest(&never), "seed {seed}");
        }
    }

    /// A full multi-hop run (beacons on, contention) pinned to FNV-1a of
    /// its counters, node stats and event count. The literals are the
    /// brute-force medium's output, which the cached medium matched
    /// before the brute arm was retired; a deliberate physics change
    /// regenerates them explicitly.
    #[test]
    fn scatter_run_matches_pinned_digest() {
        let scatter = |seed: u64| {
            let mut rng = lv_sim::SimRng::from_seed_u64(seed);
            (0..12)
                .map(|_| Position::new(rng.unit() * 40.0, rng.unit() * 40.0))
                .collect::<Vec<Position>>()
        };
        let fnv1a = |s: &str| {
            s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        for (seed, pinned) in [
            (5u64, 0xc9e5_5a48_dc8b_7238u64),
            (29, 0xd9a2_18bb_af1f_289c),
        ] {
            let medium = Medium::new(scatter(seed), PropagationConfig::default(), seed);
            let mut net = Network::new(medium, seed);
            net.spawn_process(0, Box::new(Burster { rounds: 0 }), vec![])
                .unwrap();
            net.run_for(SimDuration::from_secs(5));
            let digest = fnv1a(&run_digest(&net));
            assert_eq!(digest, pinned, "seed {seed}: {digest:#018x}");
        }
    }

    // ------------------------------------------------------------------
    // Arena recycling properties (PR 9): interleaved alloc/free of event
    // payloads and in-flight transmissions never aliases a live slot,
    // and reclamation always drains back to empty.
    // ------------------------------------------------------------------

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Interleaved insert/take on the event slab against a shadow
        /// model: an insert never lands on a slot the model still holds
        /// (no aliasing), a take returns exactly the value the model
        /// recorded for that slot, and freeing everything drains the
        /// slab to zero live entries.
        #[test]
        fn slab_recycling_never_aliases_live_slots(
            ops in proptest::collection::vec((proptest::arbitrary::any::<bool>(), 0u64..1_000_000), 1..200),
        ) {
            let mut slab: Slab<u64> = Slab::new();
            let mut model: Vec<Option<u64>> = Vec::new();
            let mut live: Vec<u32> = Vec::new();
            for (do_free, value) in ops {
                if do_free && !live.is_empty() {
                    // Deterministically pick a live slot to free.
                    let pick = (value as usize) % live.len();
                    let slot = live.swap_remove(pick);
                    let expected = model[slot as usize].take();
                    proptest::prop_assert_eq!(slab.take(slot), expected, "take must return the inserted value");
                    // A second take of the same slot must miss, not alias.
                    proptest::prop_assert_eq!(slab.take(slot), None, "double take must miss");
                } else {
                    let slot = slab.insert(value);
                    if (slot as usize) >= model.len() {
                        model.resize(slot as usize + 1, None);
                    }
                    proptest::prop_assert_eq!(
                        model[slot as usize], None,
                        "insert handed out a slot the model still holds"
                    );
                    model[slot as usize] = Some(value);
                    live.push(slot);
                }
                proptest::prop_assert_eq!(slab.live(), live.len(), "live count tracks the model");
            }
            // Drain: taking every live slot empties the slab.
            for slot in live.drain(..) {
                let expected = model[slot as usize].take();
                proptest::prop_assert_eq!(slab.take(slot), expected);
            }
            proptest::prop_assert_eq!(slab.live(), 0, "fully freed slab must be empty");
        }

        /// Interleaved push/abort/prune on the in-flight transmission
        /// table: ids never collide while live, aborted ids stay dead,
        /// and a prune past every end time drains the table to empty.
        #[test]
        fn tx_table_ids_never_alias(
            ops in proptest::collection::vec((0u8..8, 0u64..50), 1..150),
        ) {
            let mut table = TxTable::new();
            let mut next_id = 0u64;
            let mut clock = 0u64; // millis; starts are monotone like the kernel's
            let mut live_ids: Vec<u64> = Vec::new();
            for (op, arg) in ops {
                match op {
                    // Push: ids are handed out in order, never reused.
                    0..=4 => {
                        let start = SimTime::from_millis(clock);
                        let end = SimTime::from_millis(clock + 1 + arg % 5);
                        clock += arg % 3;
                        let sender = (arg % 6) as u16;
                        table.push(next_id, ActiveTx {
                            start,
                            end,
                            frame: Arc::new(Frame::beacon(sender, 0, [0u8; 0])),
                            sender,
                            channel: Channel::DEFAULT,
                            power: lv_radio::PowerLevel::MAX,
                            aborted: false,
                        });
                        proptest::prop_assert!(
                            table.get(next_id).is_some(),
                            "freshly pushed id must be live"
                        );
                        live_ids.push(next_id);
                        next_id += 1;
                    }
                    // Abort one sender's entries (tombstones, not holes).
                    5..=6 => {
                        let sender = (arg % 6) as u16;
                        let len = table.len();
                        table.abort_sender(sender);
                        proptest::prop_assert_eq!(table.len(), len, "abort must tombstone in place");
                        proptest::prop_assert!(table.iter_from(0).all(|(_, tx)| tx.sender != sender));
                        live_ids.retain(|&id| table.get(id).is_some());
                    }
                    // Prefix prune up to a moving horizon.
                    _ => {
                        let horizon = SimTime::from_millis(clock.saturating_sub(2));
                        table.prune(horizon);
                        live_ids.retain(|&id| table.get(id).is_some());
                    }
                }
                let slot_ids: Vec<u64> = table.iter_from(0).map(|(id, _)| id).collect();
                proptest::prop_assert_eq!(&slot_ids, &live_ids, "live id set drifted");
            }
            // Prune past every end: the table must drain completely.
            table.prune(SimTime::from_millis(clock + 60));
            proptest::prop_assert_eq!(table.len(), 0, "prune past all ends must drain");
            proptest::prop_assert!(table.iter_from(0).next().is_none());
        }
    }
}
