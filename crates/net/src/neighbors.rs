//! The kernel-owned neighbor table.
//!
//! Section III.B.2: "we modified LiteOS so that the kernel maintains a
//! list of neighbors for each node, including their node names,
//! identifiers, and link quality … it is more efficient to provide
//! neighborhood management as part of kernel services, which both users
//! and applications can access via system calls." The blacklist bit is
//! the field LiteView's `blacklist` command toggles: "the kernel
//! associates a field to each neighbor entry that specifies whether or
//! not the current neighbor is considered enabled."

use crate::estimator::{quality_from_u8, LinkEstimator};
use lv_radio::units::Position;
use lv_sim::SimTime;

/// Gradient value meaning "not connected to the collection tree".
pub const TREE_UNREACHABLE: u8 = u8::MAX;

/// One neighbor's state.
#[derive(Debug, Clone)]
pub struct NeighborEntry {
    /// Neighbor node id.
    pub id: u16,
    /// Neighbor's human-readable name (IP-convention names in the
    /// paper's testbed, e.g. "192.168.0.2").
    pub name: String,
    /// Inbound link estimator (their beacons → me).
    pub estimator: LinkEstimator,
    /// Outbound quality (me → them), learned from their beacons
    /// advertising *their* inbound estimate of me.
    pub outbound: Option<f64>,
    /// When we last heard anything from this neighbor.
    pub last_heard: SimTime,
    /// Their advertised position (for geographic forwarding).
    pub position: Option<Position>,
    /// Their advertised collection-tree gradient (hops to root).
    pub tree_hops: u8,
    /// The LiteView blacklist bit: when set, protocols must not use this
    /// neighbor when constructing routes.
    pub blacklisted: bool,
}

impl NeighborEntry {
    fn new(id: u16, now: SimTime) -> Self {
        NeighborEntry {
            id,
            name: String::new(),
            estimator: LinkEstimator::new(),
            outbound: None,
            last_heard: now,
            position: None,
            tree_hops: TREE_UNREACHABLE,
            blacklisted: false,
        }
    }

    /// Inbound quality in `[0, 1]`.
    pub fn inbound(&self) -> f64 {
        self.estimator.quality()
    }

    /// Bidirectional quality: the product of directions (the standard
    /// ETX-style combination). Until the outbound direction is confirmed
    /// — by the neighbor's advertisement or by link-layer ack feedback —
    /// it is discounted to 0.4: an unconfirmed reverse link may well be
    /// one of the asymmetric links LiteView exists to expose, and
    /// routing over it on faith is how deployments break.
    pub fn bidirectional(&self) -> f64 {
        match self.outbound {
            Some(out) => self.inbound() * out,
            None => self.inbound() * 0.4,
        }
    }

    /// Is this link usable for routing (not blacklisted, some quality)?
    pub fn usable(&self, min_quality: f64) -> bool {
        !self.blacklisted && self.bidirectional() >= min_quality
    }
}

/// The bounded neighbor table.
///
/// ```
/// use lv_net::neighbors::NeighborTable;
/// use lv_radio::units::Position;
/// use lv_sim::SimTime;
///
/// let mut nt = NeighborTable::default();
/// for seq in 0..16 {
///     nt.on_beacon(7, seq, "192.168.0.8", Position::new(5.0, 0.0), 2,
///                  Some(255), SimTime::from_secs(seq as u64));
/// }
/// let e = nt.get(7).unwrap();
/// assert!(e.inbound() > 0.9);
/// nt.set_blacklisted(7, true);
/// assert!(!nt.get(7).unwrap().usable(0.0));
/// ```
#[derive(Debug, Clone)]
pub struct NeighborTable {
    entries: Vec<NeighborEntry>,
    capacity: usize,
}

impl NeighborTable {
    /// LiteOS-scale default: 16 entries (the kernel table must fit in a
    /// 4 KB-RAM mote alongside everything else).
    pub const DEFAULT_CAPACITY: usize = 16;

    /// Create a table bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        NeighborTable {
            entries: Vec::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
        }
    }

    /// All entries (in insertion order).
    pub fn entries(&self) -> &[NeighborEntry] {
        &self.entries
    }

    /// Number of known neighbors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no neighbors are known — the "has the current node lost
    /// connection with all other nodes?" diagnosis.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a neighbor by id.
    pub fn get(&self, id: u16) -> Option<&NeighborEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Mutable lookup, inserting a fresh entry if absent (evicting the
    /// stalest non-blacklisted entry when full). Returns `None` only if
    /// the table is full of blacklisted entries.
    pub fn get_or_insert(&mut self, id: u16, now: SimTime) -> Option<&mut NeighborEntry> {
        if let Some(idx) = self.entries.iter().position(|e| e.id == id) {
            return Some(&mut self.entries[idx]);
        }
        if self.entries.len() >= self.capacity {
            // Evict the stalest non-blacklisted entry (blacklist state is
            // operator intent; dropping it silently would be surprising).
            let victim = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.blacklisted)
                .min_by_key(|(_, e)| e.last_heard)
                .map(|(i, _)| i)?;
            self.entries.remove(victim);
        }
        self.entries.push(NeighborEntry::new(id, now));
        let idx = self.entries.len() - 1;
        Some(&mut self.entries[idx])
    }

    /// Record that `id` was heard at `now` (any frame type). True when
    /// this created `id`'s entry.
    pub fn touch(&mut self, id: u16, now: SimTime) -> bool {
        if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
            e.last_heard = now;
            return false;
        }
        // A new entry is created heard at `now`.
        self.get_or_insert(id, now).is_some()
    }

    /// Apply a received beacon from `id`: sequence number for the
    /// inbound estimator, name/position/gradient advertisement, and —
    /// when the beacon lists us — our outbound quality. The stored name
    /// is rewritten only when it changed, in place, so a neighbor's
    /// steady beacons never touch the allocator.
    #[allow(clippy::too_many_arguments)]
    pub fn on_beacon(
        &mut self,
        id: u16,
        seq: u16,
        name: &str,
        position: Position,
        tree_hops: u8,
        our_quality_at_them: Option<u8>,
        now: SimTime,
    ) {
        if let Some(e) = self.get_or_insert(id, now) {
            e.estimator.on_beacon(seq);
            if !name.is_empty() && e.name != name {
                e.name.clear();
                e.name.push_str(name);
            }
            e.position = Some(position);
            e.tree_hops = tree_hops;
            if let Some(q) = our_quality_at_them {
                e.outbound = Some(quality_from_u8(q));
            }
            e.last_heard = now;
        }
    }

    /// Link-layer feedback for the outbound direction: `success` is
    /// whether a unicast to `id` was acknowledged. Smoothed with an EWMA
    /// seeded at 0.5 — the same role ack feedback plays in CTP-style
    /// estimators, and the only way to learn the reverse direction of an
    /// asymmetric link whose owner never hears us.
    pub fn link_feedback(&mut self, id: u16, success: bool) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
            let old = e.outbound.unwrap_or(0.5);
            let sample = if success { 1.0 } else { 0.0 };
            e.outbound = Some(0.8 * old + 0.2 * sample);
        }
    }

    /// Set or clear the blacklist bit. Returns `false` if `id` is not in
    /// the table.
    pub fn set_blacklisted(&mut self, id: u16, value: bool) -> bool {
        match self.entries.iter_mut().find(|e| e.id == id) {
            Some(e) => {
                e.blacklisted = value;
                true
            }
            None => false,
        }
    }

    /// Drop entries not heard from within `timeout` of `now`.
    pub fn expire(&mut self, now: SimTime, timeout: lv_sim::SimDuration) {
        self.entries
            .retain(|e| now.saturating_since(e.last_heard) <= timeout);
    }

    /// Forget every neighbor (cold reboot: the table lives in RAM).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Degradation watchdog (RADIUS-style): blacklist confirmed
    /// neighbors whose bidirectional quality fell below `below`, and
    /// clear the bit again once quality recovers above `clear_above`
    /// (hysteresis so a link hovering at the threshold does not flap).
    /// Only entries with a confirmed outbound direction are judged —
    /// a freshly heard neighbor still carries the 0.4 unconfirmed
    /// discount and must not be condemned on that alone. Returns
    /// `(newly_blacklisted, recovered)`.
    pub fn blacklist_degraded(&mut self, below: f64, clear_above: f64) -> (usize, usize) {
        let (mut tripped, mut recovered) = (0, 0);
        for e in self.entries.iter_mut().filter(|e| e.outbound.is_some()) {
            let q = e.bidirectional();
            if !e.blacklisted && q < below {
                e.blacklisted = true;
                tripped += 1;
            } else if e.blacklisted && q > clear_above {
                e.blacklisted = false;
                recovered += 1;
            }
        }
        (tripped, recovered)
    }

    /// Usable (non-blacklisted, quality ≥ `min_quality`) neighbors.
    pub fn usable(&self, min_quality: f64) -> impl Iterator<Item = &NeighborEntry> {
        self.entries.iter().filter(move |e| e.usable(min_quality))
    }
}

impl Default for NeighborTable {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_sim::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn pos() -> Position {
        Position::new(1.0, 2.0)
    }

    #[test]
    fn beacon_creates_and_updates_entry() {
        let mut nt = NeighborTable::default();
        nt.on_beacon(5, 0, "192.168.0.5", pos(), 2, None, t(1));
        nt.on_beacon(5, 1, "192.168.0.5", pos(), 2, Some(200), t(2));
        let e = nt.get(5).unwrap();
        assert_eq!(e.name, "192.168.0.5");
        assert_eq!(e.tree_hops, 2);
        assert!(e.inbound() > 0.9);
        assert!((e.outbound.unwrap() - 200.0 / 255.0).abs() < 1e-9);
        assert_eq!(e.last_heard, t(2));
    }

    #[test]
    fn name_is_rewritten_only_when_it_changes() {
        let mut nt = NeighborTable::default();
        nt.on_beacon(5, 0, "192.168.0.5", pos(), 2, None, t(1));
        let stored = nt.get(5).unwrap().name.as_ptr();
        nt.on_beacon(5, 1, "192.168.0.5", pos(), 2, None, t(2));
        assert_eq!(
            nt.get(5).unwrap().name.as_ptr(),
            stored,
            "same name, same buffer"
        );
        nt.on_beacon(5, 2, "sensor-5", pos(), 2, None, t(3));
        assert_eq!(nt.get(5).unwrap().name, "sensor-5");
        nt.on_beacon(5, 3, "", pos(), 2, None, t(4));
        assert_eq!(
            nt.get(5).unwrap().name,
            "sensor-5",
            "an empty name keeps the old one"
        );
    }

    #[test]
    fn capacity_evicts_stalest() {
        let mut nt = NeighborTable::new(3);
        nt.touch(1, t(10));
        nt.touch(2, t(20));
        nt.touch(3, t(30));
        nt.touch(4, t(40)); // evicts 1
        assert!(nt.get(1).is_none());
        assert_eq!(nt.len(), 3);
        assert!(nt.get(4).is_some());
    }

    #[test]
    fn blacklisted_entries_survive_eviction() {
        let mut nt = NeighborTable::new(2);
        nt.touch(1, t(10));
        nt.set_blacklisted(1, true);
        nt.touch(2, t(20));
        nt.touch(3, t(30)); // must evict 2, not blacklisted 1
        assert!(nt.get(1).is_some());
        assert!(nt.get(2).is_none());
        assert!(nt.get(3).is_some());
    }

    #[test]
    fn full_blacklisted_table_rejects_inserts() {
        let mut nt = NeighborTable::new(1);
        nt.touch(1, t(10));
        nt.set_blacklisted(1, true);
        assert!(nt.get_or_insert(2, t(20)).is_none());
        assert_eq!(nt.len(), 1);
    }

    #[test]
    fn blacklist_toggles() {
        let mut nt = NeighborTable::default();
        nt.touch(9, t(1));
        assert!(nt.set_blacklisted(9, true));
        assert!(nt.get(9).unwrap().blacklisted);
        assert!(!nt.get(9).unwrap().usable(0.0));
        assert!(nt.set_blacklisted(9, false));
        assert!(!nt.get(9).unwrap().blacklisted);
        assert!(!nt.set_blacklisted(42, true)); // unknown id
    }

    #[test]
    fn expiry_drops_silent_neighbors() {
        let mut nt = NeighborTable::default();
        nt.touch(1, t(0));
        nt.touch(2, t(900));
        nt.expire(t(1000), SimDuration::from_millis(500));
        assert!(nt.get(1).is_none());
        assert!(nt.get(2).is_some());
    }

    #[test]
    fn bidirectional_quality_combines_directions() {
        let mut nt = NeighborTable::default();
        for seq in 0..16 {
            nt.on_beacon(7, seq, "n7", pos(), 0, None, t(seq as u64));
        }
        // Unconfirmed outbound is discounted to 0.4 of inbound.
        let unconfirmed = nt.get(7).unwrap().bidirectional();
        let inbound = nt.get(7).unwrap().inbound();
        assert!((unconfirmed - inbound * 0.4).abs() < 1e-9);
        // A confirmed strong outbound direction raises the combined
        // quality above the unconfirmed discount…
        nt.on_beacon(7, 16, "n7", pos(), 0, Some(255), t(17));
        assert!(nt.get(7).unwrap().bidirectional() > unconfirmed);
        // …and a confirmed weak one lowers it below inbound.
        nt.on_beacon(7, 17, "n7", pos(), 0, Some(64), t(18));
        let weak = nt.get(7).unwrap().bidirectional();
        assert!(weak < inbound * 0.3);
    }

    #[test]
    fn usable_filters_quality_and_blacklist() {
        let mut nt = NeighborTable::default();
        for seq in 0..16 {
            nt.on_beacon(1, seq, "a", pos(), 0, Some(255), t(seq as u64));
        }
        nt.touch(2, t(1)); // no beacons: zero quality
        nt.touch(3, t(1));
        nt.set_blacklisted(3, true);
        let ids: Vec<u16> = nt.usable(0.5).map(|e| e.id).collect();
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn empty_table_reports_lost_connectivity() {
        let nt = NeighborTable::default();
        assert!(nt.is_empty());
        assert_eq!(nt.len(), 0);
    }
}
