//! Property tests at the whole-network level: for arbitrary topologies
//! and seeds, the event loop neither panics nor diverges, stays
//! deterministic, and keeps its counters self-consistent.

use lv_kernel::{DynamicsAction, Network};
use lv_radio::propagation::PropagationConfig;
use lv_radio::units::Position;
use lv_radio::Medium;
use lv_sim::SimDuration;
use proptest::prelude::*;

fn build(positions: Vec<(f64, f64)>, seed: u64) -> Network {
    let medium = Medium::new(
        positions
            .into_iter()
            .map(|(x, y)| Position::new(x, y))
            .collect(),
        PropagationConfig::default(),
        seed,
    );
    Network::new(medium, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random deployment runs 10 virtual seconds without panicking,
    /// and its counters obey basic conservation: a node cannot receive
    /// more beacon frames than `(n−1) ×` beacons transmitted, and every
    /// reception implies a transmission.
    #[test]
    fn random_topology_counters_consistent(
        positions in proptest::collection::vec((-60.0f64..60.0, -60.0f64..60.0), 2..12),
        seed in 0u64..1000,
    ) {
        let n = positions.len() as u64;
        let mut net = build(positions, seed);
        net.run_for(SimDuration::from_secs(10));
        let tx_beacon = net.counters.get("tx.beacon");
        let rx_frames = net.counters.get("rx.frames");
        let rx_corrupt = net.counters.get("rx.corrupt");
        let tx_total = net.counters.get("tx.beacon")
            + net.counters.get("tx.data")
            + net.counters.get("tx.ack");
        // ~10 s at a 2 s period: each node beacons at most ~7 times.
        prop_assert!(tx_beacon <= 8 * n, "beacons: {tx_beacon} for {n} nodes");
        // Every reception (good or corrupt) traces back to a transmission
        // heard by at most n−1 receivers.
        prop_assert!(
            rx_frames + rx_corrupt <= tx_total * (n.saturating_sub(1)).max(1),
            "rx {rx_frames}+{rx_corrupt} vs tx {tx_total}"
        );
    }

    /// Bit-for-bit determinism for arbitrary topologies.
    #[test]
    fn random_topology_deterministic(
        positions in proptest::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 2..8),
        seed in 0u64..1000,
    ) {
        let run = |p: Vec<(f64, f64)>, s: u64| {
            let mut net = build(p, s);
            net.run_for(SimDuration::from_secs(8));
            format!("{:?}", net.counters.iter().collect::<Vec<_>>())
        };
        prop_assert_eq!(run(positions.clone(), seed), run(positions, seed));
    }

    /// Neighbor tables only ever contain ids that exist in the network,
    /// and quality values stay in range, whatever the geometry.
    #[test]
    fn neighbor_tables_well_formed(
        positions in proptest::collection::vec((-30.0f64..30.0, -30.0f64..30.0), 2..10),
        seed in 0u64..500,
    ) {
        let n = positions.len() as u16;
        let mut net = build(positions, seed);
        net.run_for(SimDuration::from_secs(12));
        for i in 0..n {
            for e in net.node(i).stack.neighbors.entries() {
                prop_assert!(e.id < n, "ghost neighbor {}", e.id);
                prop_assert_ne!(e.id, i, "self-neighbor");
                let q = e.inbound();
                prop_assert!((0.0..=1.0).contains(&q));
                if let Some(o) = e.outbound {
                    prop_assert!((0.0..=1.0).contains(&o));
                }
            }
        }
    }

    /// The event arena drains back to empty: payload slots (packets,
    /// frames, dynamics actions) are allocated when an event is queued
    /// and reclaimed exactly once when it pops, so once a network goes
    /// quiet every slot has been recycled. Random topologies, random
    /// churn points, beacon traffic throughout — after the last queued
    /// payload event has popped, `arena_live()` must be zero.
    #[test]
    fn full_sim_drains_arena_to_empty(
        positions in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 2..10),
        seed in 0u64..500,
    ) {
        let mut net = build(positions, seed);
        net.run_for(SimDuration::from_secs(15));
        // Mid-run the arena tracks exactly the queued payload events;
        // stop the traffic sources and let everything in flight pop.
        for i in 0..net.node_count() {
            net.schedule_dynamics(net.now(), DynamicsAction::NodeDown { id: i as u16 });
        }
        net.run_for(SimDuration::from_secs(30));
        prop_assert_eq!(
            net.arena_live(),
            0,
            "arena must drain once every queued payload event has popped"
        );
    }
}
