//! Deployment-phase failure injection.
//!
//! LiteView exists because deployments break in characteristic ways —
//! dead nodes, broken links, asymmetric links, enclosure attenuation,
//! badly placed antennas. These helpers inject each of those into a
//! running [`Network`] so examples and tests can demonstrate the
//! diagnosis workflow.

use lv_kernel::Network;
use lv_radio::medium::LinkOverride;
use lv_radio::units::Position;

/// Power a node off (it stops transmitting, receiving, and beaconing).
pub fn kill_node(net: &mut Network, id: u16) {
    net.medium.set_dead(id, true);
}

/// Power a node back on.
pub fn revive_node(net: &mut Network, id: u16) {
    net.medium.set_dead(id, false);
}

/// Hard-break both directions of a link (e.g. a metal cabinet moved
/// between two nodes).
pub fn break_link(net: &mut Network, a: u16, b: u16) {
    let blocked = LinkOverride {
        blocked: true,
        ..Default::default()
    };
    net.medium.set_override(a, b, blocked);
    net.medium.set_override(b, a, blocked);
}

/// Break only the `from → to` direction — the classic asymmetric link
/// ("likely to become traffic bottlenecks", per the abstract).
pub fn break_link_oneway(net: &mut Network, from: u16, to: u16) {
    net.medium.set_override(
        from,
        to,
        LinkOverride {
            blocked: true,
            ..Default::default()
        },
    );
}

/// Attenuate a directed link by `loss_db` (antenna turned away, node
/// boxed in an enclosure).
pub fn attenuate_link(net: &mut Network, from: u16, to: u16, loss_db: f64) {
    net.medium.set_override(
        from,
        to,
        LinkOverride {
            extra_loss_db: loss_db,
            blocked: false,
        },
    );
}

/// Repair every override on the link (both directions).
pub fn repair_link(net: &mut Network, a: u16, b: u16) {
    net.medium.clear_override(a, b);
    net.medium.clear_override(b, a);
}

/// Physically move a node (the deployment-tuning action the paper's
/// introduction motivates: "adding or removing nodes, or adjusting the
/// directions of antennas").
pub fn move_node(net: &mut Network, id: u16, to: Position) {
    net.medium.set_position(id, to);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_radio::propagation::PropagationConfig;
    use lv_radio::{Medium, PowerLevel};
    use lv_sim::SimDuration;

    fn net2() -> Network {
        let medium = Medium::new(
            vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)],
            PropagationConfig::default(),
            3,
        );
        Network::new(medium, 3)
    }

    #[test]
    fn kill_and_revive() {
        let mut net = net2();
        kill_node(&mut net, 1);
        assert!(net.medium.is_dead(1));
        assert!(!net.node_stats()[1].alive);
        revive_node(&mut net, 1);
        assert!(!net.medium.is_dead(1));
        assert!(net.node_stats()[1].alive);
    }

    #[test]
    fn break_and_repair_link() {
        let mut net = net2();
        assert!(net.medium.hears(0, 1, PowerLevel::MAX));
        break_link(&mut net, 0, 1);
        assert!(!net.medium.hears(0, 1, PowerLevel::MAX));
        assert!(!net.medium.hears(1, 0, PowerLevel::MAX));
        repair_link(&mut net, 0, 1);
        assert!(net.medium.hears(0, 1, PowerLevel::MAX));
    }

    #[test]
    fn oneway_break_is_asymmetric() {
        let mut net = net2();
        break_link_oneway(&mut net, 0, 1);
        assert!(!net.medium.hears(0, 1, PowerLevel::MAX));
        assert!(net.medium.hears(1, 0, PowerLevel::MAX));
    }

    #[test]
    fn attenuation_reduces_power() {
        let mut net = net2();
        let before = net.medium.mean_rx_power(0, 1, PowerLevel::MAX).unwrap();
        attenuate_link(&mut net, 0, 1, 15.0);
        let after = net.medium.mean_rx_power(0, 1, PowerLevel::MAX).unwrap();
        assert!((before.0 - after.0 - 15.0).abs() < 1e-9);
    }

    #[test]
    fn dead_node_stops_beaconing() {
        let mut net = net2();
        net.run_for(SimDuration::from_secs(5));
        let before = net.counters.get("tx.beacon");
        kill_node(&mut net, 1);
        net.run_for(SimDuration::from_secs(10));
        let after = net.counters.get("tx.beacon");
        // Only node 0 beacons now: the rate roughly halves.
        let delta = after - before;
        assert!(delta <= 7, "beacons after kill: {delta}");
    }

    #[test]
    fn moved_node_changes_geometry() {
        let mut net = net2();
        move_node(&mut net, 1, Position::new(300.0, 0.0));
        assert!(!net.medium.hears(0, 1, PowerLevel::MAX));
    }
}
