//! Behavioral tests for failure injection: each fault must change what
//! the operator actually sees at the shell (ping/traceroute outcomes),
//! not just the medium's internal state.

use liteview::{CommandRequest, CommandResult};
use lv_kernel::DynamicsAction;
use lv_net::packet::Port;
use lv_sim::SimDuration;
use lv_testbed::{DynamicsPlan, Scenario, ScenarioConfig, Topology};

fn corridor(n: usize, seed: u64) -> Scenario {
    Scenario::build(ScenarioConfig::new(Topology::Corridor { n }, seed))
}

/// Traceroute the far end of `s`'s corridor; `true` iff it reports the
/// destination reached.
fn trace_reaches(s: &mut Scenario, dst: u16) -> bool {
    let exec =
        s.ws.exec(
            &mut s.net,
            CommandRequest::traceroute(dst, 32, Port::GEOGRAPHIC),
        )
        .unwrap();
    match exec.result {
        CommandResult::Traceroute(t) => t.reached,
        _ => false,
    }
}

/// One multi-hop ping; how many replies came back.
fn ping_received(s: &mut Scenario, dst: u16) -> u8 {
    let exec =
        s.ws.exec(
            &mut s.net,
            CommandRequest::ping(dst, 1, 32, Some(Port::GEOGRAPHIC)),
        )
        .unwrap();
    match exec.result {
        CommandResult::Ping(p) => p.received,
        _ => 0,
    }
}

#[test]
fn killing_a_relay_breaks_the_trace_and_revival_restores_it() {
    let mut s = corridor(5, 17);
    assert!(trace_reaches(&mut s, 4), "healthy corridor must trace");

    // Node 2 is the only path in a corridor: killing it severs it.
    DynamicsPlan::new()
        .node_churn(2, s.net.now(), None)
        .schedule(&mut s.net);
    s.net.run_for(SimDuration::from_secs(5));
    assert!(
        !trace_reaches(&mut s, 4),
        "trace must not reach past a dead relay"
    );

    // Power it back on and let beacons rebuild the neighbor tables.
    s.net
        .schedule_dynamics(s.net.now(), DynamicsAction::NodeUp { id: 2 });
    s.net.run_for(SimDuration::from_secs(30));
    assert!(trace_reaches(&mut s, 4), "revived relay must route again");
}

#[test]
fn breaking_a_link_stops_pings_and_repair_restores_them() {
    let mut s = corridor(3, 23);
    assert!(ping_received(&mut s, 2) >= 1, "healthy path must ping");

    DynamicsPlan::new()
        .link_break(1, 2, s.net.now())
        .schedule(&mut s.net);
    s.net.run_for(SimDuration::from_secs(2));
    assert_eq!(
        ping_received(&mut s, 2),
        0,
        "no replies can cross a hard-broken link"
    );

    DynamicsPlan::new()
        .link_repair(1, 2, s.net.now())
        .schedule(&mut s.net);
    s.net.run_for(SimDuration::from_secs(2));
    assert!(ping_received(&mut s, 2) >= 1, "repaired link must ping");
}

#[test]
fn attenuation_shows_up_in_the_ping_rssi_report() {
    let mut s = corridor(2, 29);
    let rssi = |s: &mut Scenario| -> i8 {
        let exec =
            s.ws.exec(&mut s.net, CommandRequest::ping(1, 1, 32, None))
                .unwrap();
        let CommandResult::Ping(p) = exec.result else {
            panic!("ping failed: {:?}", exec.result);
        };
        p.rounds[0].rssi_fwd
    };
    let before = rssi(&mut s);

    // 12 dB of extra loss on the probe's direction (0 → 1): the
    // forward RSSI the operator reads must drop by about that much
    // (the register quantizes, shadowing is frozen per link).
    DynamicsPlan::new()
        .at(
            s.net.now(),
            DynamicsAction::SetLinkLoss {
                from: 0,
                to: 1,
                extra_loss_db: 12.0,
                blocked: false,
            },
        )
        .schedule(&mut s.net);
    let after = rssi(&mut s);
    let drop = before as i16 - after as i16;
    assert!(
        (8..=16).contains(&drop),
        "expected ~12 dB forward-RSSI drop, got {drop} (before {before}, after {after})"
    );
}
