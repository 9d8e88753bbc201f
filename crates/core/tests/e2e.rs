//! End-to-end tests of the LiteView toolkit over the full simulated
//! stack: workstation → interpreter → radio → controller → command
//! processes and back.

use liteview::{install_suite, Command, CommandRequest, CommandResult, Workstation};
use lv_kernel::Network;
use lv_net::packet::Port;
use lv_net::routing::Geographic;
use lv_radio::propagation::PropagationConfig;
use lv_radio::units::Position;
use lv_radio::Medium;
use lv_sim::SimDuration;

/// A line of `n` nodes `spacing` meters apart, with geographic
/// forwarding on port 10 everywhere, controllers installed, and beacons
/// settled.
fn line_network(n: usize, spacing: f64, seed: u64) -> Network {
    let positions = (0..n)
        .map(|i| Position::new(i as f64 * spacing, 0.0))
        .collect();
    let medium = Medium::new(positions, PropagationConfig::default(), seed);
    let mut net = Network::new(medium, seed);
    for i in 0..n as u16 {
        net.install_router(i, Box::new(Geographic::new(Port::GEOGRAPHIC)))
            .unwrap();
    }
    install_suite(&mut net);
    net.run_for(SimDuration::from_secs(25));
    net
}

#[test]
fn pwd_matches_paper() {
    let mut net = line_network(2, 5.0, 1);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.1").unwrap();
    assert_eq!(ws.pwd(&net).unwrap(), "/sn01/192.168.0.1");
}

#[test]
fn get_and_set_power() {
    let mut net = line_network(2, 5.0, 2);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.2").unwrap();
    let exec = ws.exec(&mut net, CommandRequest::get_power()).unwrap();
    assert_eq!(exec.result, CommandResult::Power(31));
    // Fixed-window commands take the full 500 ms.
    assert_eq!(exec.response_delay, SimDuration::from_millis(500));
    let exec = ws.exec(&mut net, CommandRequest::set_power(10)).unwrap();
    assert_eq!(exec.result, CommandResult::Ok);
    assert_eq!(net.node(1).power.level(), 10);
    let exec = ws.exec(&mut net, CommandRequest::get_power()).unwrap();
    assert_eq!(exec.result, CommandResult::Power(10));
}

#[test]
fn set_power_out_of_range_rejected() {
    let mut net = line_network(2, 5.0, 2);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.2").unwrap();
    let exec = ws.exec(&mut net, CommandRequest::set_power(77)).unwrap();
    assert_eq!(exec.result, CommandResult::Error(1));
    assert_eq!(net.node(1).power.level(), 31);
}

#[test]
fn get_and_set_channel() {
    let mut net = line_network(2, 5.0, 3);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.2").unwrap();
    let exec = ws.exec(&mut net, CommandRequest::get_channel()).unwrap();
    assert_eq!(exec.result, CommandResult::Channel(17)); // paper default
    let exec = ws.exec(&mut net, CommandRequest::set_channel(20)).unwrap();
    assert_eq!(exec.result, CommandResult::Ok);
    assert_eq!(net.node(1).channel.number(), 20);
}

#[test]
fn one_hop_ping_rtt_magnitude() {
    let mut net = line_network(2, 5.0, 4);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.1").unwrap();
    let exec = ws
        .exec(&mut net, CommandRequest::ping(1, 1, 32, None))
        .unwrap();
    let CommandResult::Ping(p) = &exec.result else {
        panic!("expected ping result, got {:?}", exec.result);
    };
    assert_eq!(p.sent, 1);
    assert_eq!(p.received, 1);
    assert_eq!(p.lost(), 0);
    assert_eq!(p.power, 31);
    assert_eq!(p.channel, 17);
    let r = &p.rounds[0];
    // The paper reports ~4.7 ms for a 32-byte one-hop probe. Our model
    // should land in the same few-millisecond regime.
    let rtt_ms = r.rtt_us as f64 / 1000.0;
    assert!(
        (2.0..12.0).contains(&rtt_ms),
        "one-hop RTT = {rtt_ms:.2} ms"
    );
    // Strong 5 m link: LQI near the top of the scale, both directions.
    assert!(r.lqi_fwd >= 100, "lqi_fwd = {}", r.lqi_fwd);
    assert!(r.lqi_bwd >= 100, "lqi_bwd = {}", r.lqi_bwd);
    assert_eq!(r.queue_fwd, 0);
}

#[test]
fn ping_multiple_rounds() {
    let mut net = line_network(2, 5.0, 5);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.1").unwrap();
    let exec = ws
        .exec(&mut net, CommandRequest::ping(1, 3, 32, None))
        .unwrap();
    let CommandResult::Ping(p) = &exec.result else {
        panic!("{:?}", exec.result)
    };
    assert_eq!(p.sent, 3);
    assert_eq!(p.received, 3);
    assert_eq!(p.rounds.len(), 3);
}

#[test]
fn ping_dead_node_times_out_cleanly() {
    let mut net = line_network(3, 5.0, 6);
    net.medium.set_dead(2, true);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.1").unwrap();
    let exec = ws
        .exec(&mut net, CommandRequest::ping(2, 1, 32, None))
        .unwrap();
    let CommandResult::Ping(p) = &exec.result else {
        panic!("{:?}", exec.result)
    };
    assert_eq!(p.sent, 1);
    assert_eq!(p.received, 0);
    assert_eq!(p.lost(), 1);
}

#[test]
fn multi_hop_ping_collects_per_hop_padding() {
    // 4 nodes, 12 m spacing: 0 cannot reach 3 in one hop.
    let mut net = line_network(4, 12.0, 7);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.1").unwrap();
    let exec = ws
        .exec(
            &mut net,
            CommandRequest::ping(3, 1, 16, Some(Port::GEOGRAPHIC)),
        )
        .unwrap();
    let CommandResult::Ping(p) = &exec.result else {
        panic!("{:?}", exec.result)
    };
    assert_eq!(p.received, 1, "multi-hop ping reply missing");
    let r = &p.rounds[0];
    // Forward path 0→…→3 crosses ≥ 2 links; every hop contributed a
    // padding entry, and so did the return path.
    assert!(r.fwd_hops.len() >= 2, "fwd hops: {:?}", r.fwd_hops);
    assert!(r.bwd_hops.len() >= 2, "bwd hops: {:?}", r.bwd_hops);
    for h in r.fwd_hops.iter().chain(&r.bwd_hops) {
        assert!(h.lqi >= 50 && h.lqi <= 110);
    }
}

#[test]
fn traceroute_reports_every_hop() {
    let mut net = line_network(4, 12.0, 8);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.1").unwrap();
    let exec = ws
        .exec(
            &mut net,
            CommandRequest::traceroute(3, 32, Port::GEOGRAPHIC),
        )
        .unwrap();
    let CommandResult::Traceroute(t) = &exec.result else {
        panic!("{:?}", exec.result)
    };
    assert_eq!(t.protocol.as_deref(), Some("geographic forwarding"));
    assert!(t.reached, "destination not reached: {t:?}");
    // A 36 m line at 12 m spacing: typically 3 hops.
    assert!(
        (2..=3).contains(&t.hops.len()),
        "unexpected hop count: {}",
        t.hops.len()
    );
    // Hop indices increase, each hop has plausible link data, and
    // arrivals are monotone (later hops report later).
    let mut prev_arrival = SimDuration::ZERO;
    for (i, hop) in t.hops.iter().enumerate() {
        assert_eq!(hop.record.hop_index as usize, i + 1);
        assert!(!hop.record.no_route && !hop.record.probe_lost);
        assert!(hop.record.lqi_fwd >= 50);
        assert!(hop.arrival >= prev_arrival, "arrivals not monotone");
        prev_arrival = hop.arrival;
    }
    // Last hop's far end is the destination.
    assert_eq!(t.hops.last().unwrap().record.far, 3);
}

#[test]
fn traceroute_without_router_errors() {
    let positions = (0..2).map(|i| Position::new(i as f64 * 5.0, 0.0)).collect();
    let medium = Medium::new(positions, PropagationConfig::default(), 9);
    let mut net = Network::new(medium, 9);
    install_suite(&mut net); // no routers installed
    net.run_for(SimDuration::from_secs(10));
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.1").unwrap();
    let exec = ws
        .exec(
            &mut net,
            Command::Traceroute {
                dst: 1,
                length: 32,
                port: Port::GEOGRAPHIC,
            },
        )
        .unwrap();
    assert_eq!(exec.result, CommandResult::Error(2));
}

#[test]
fn neighbor_list_round_trip() {
    let mut net = line_network(3, 5.0, 10);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.2").unwrap(); // middle node
    let exec = ws
        .exec(&mut net, CommandRequest::neighbor_list(true))
        .unwrap();
    let CommandResult::Neighbors(rows) = &exec.result else {
        panic!("{:?}", exec.result)
    };
    // The middle node hears both ends.
    assert_eq!(rows.len(), 2, "rows: {rows:?}");
    let ids: Vec<u16> = rows.iter().map(|r| r.id).collect();
    assert!(ids.contains(&0) && ids.contains(&2));
    for r in rows {
        assert!(r.inbound_q > 200, "healthy link expected: {r:?}");
        assert!(!r.blacklisted);
        assert!(!r.name.is_empty());
    }
}

#[test]
fn blacklist_changes_routing() {
    // Line 0-1-2-3; traceroute 0→3 goes via 1 then 2. Blacklist 1 at
    // node 0 and the route must change (or break) — "temporarily
    // modifies the behavior of communication protocols".
    let mut net = line_network(4, 12.0, 11);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.1").unwrap();
    let before = ws
        .exec(
            &mut net,
            CommandRequest::traceroute(3, 32, Port::GEOGRAPHIC),
        )
        .unwrap();
    let CommandResult::Traceroute(t) = &before.result else {
        panic!("{:?}", before.result)
    };
    let first_hop_before = t.hops[0].record.far;
    assert!(!t.hops[0].record.no_route);
    let exec = ws
        .exec(&mut net, CommandRequest::blacklist(first_hop_before, true))
        .unwrap();
    assert_eq!(exec.result, CommandResult::Ok);
    assert!(
        net.node(0)
            .stack
            .neighbors
            .get(first_hop_before)
            .unwrap()
            .blacklisted
    );
    let after = ws
        .exec(
            &mut net,
            CommandRequest::traceroute(3, 32, Port::GEOGRAPHIC),
        )
        .unwrap();
    if let CommandResult::Traceroute(t) = &after.result {
        if let Some(h) = t.hops.first() {
            assert_ne!(
                h.record.far, first_hop_before,
                "blacklisted node still used"
            );
        }
    }
    // Un-blacklist restores the original route.
    ws.exec(&mut net, CommandRequest::blacklist(first_hop_before, false))
        .unwrap();
    let restored = ws
        .exec(
            &mut net,
            CommandRequest::traceroute(3, 32, Port::GEOGRAPHIC),
        )
        .unwrap();
    let CommandResult::Traceroute(t) = &restored.result else {
        panic!("{:?}", restored.result)
    };
    assert_eq!(t.hops[0].record.far, first_hop_before);
}

#[test]
fn blacklist_unknown_neighbor_errors() {
    let mut net = line_network(2, 5.0, 12);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.1").unwrap();
    let exec = ws
        .exec(&mut net, CommandRequest::blacklist(42, true))
        .unwrap();
    assert_eq!(exec.result, CommandResult::Error(3));
}

#[test]
fn update_beacon_reconfigures_node() {
    let mut net = line_network(2, 5.0, 13);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.2").unwrap();
    let exec = ws
        .exec(
            &mut net,
            CommandRequest::update_beacon(SimDuration::from_millis(750)),
        )
        .unwrap();
    assert_eq!(exec.result, CommandResult::Ok);
    assert_eq!(
        net.node(1).stack.config().beacon_period,
        SimDuration::from_millis(750)
    );
}

#[test]
fn status_snapshot() {
    let mut net = line_network(3, 5.0, 14);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.2").unwrap();
    let exec = ws.exec(&mut net, Command::Status).unwrap();
    let CommandResult::Status {
        power,
        channel,
        neighbors,
        ..
    } = exec.result
    else {
        panic!("{:?}", exec.result)
    };
    assert_eq!(power, 31);
    assert_eq!(channel, 17);
    assert_eq!(neighbors, 2);
}

#[test]
fn transcript_has_paper_shape() {
    let mut net = line_network(2, 5.0, 15);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.1").unwrap();
    ws.exec(&mut net, CommandRequest::ping(1, 1, 32, None))
        .unwrap();
    let t = ws.transcript().join("\n");
    assert!(
        t.contains("Pinging 192.168.0.2 with 1 packets with 32 bytes:"),
        "transcript:\n{t}"
    );
    assert!(t.contains("RTT = "), "transcript:\n{t}");
    assert!(t.contains("LQI = "), "transcript:\n{t}");
    assert!(t.contains("Power = 31, Channel = 17"), "transcript:\n{t}");
    assert!(t.contains("Packets = 1 Received = 1 Lost = 0"), "{t}");
}

#[test]
fn one_hop_ping_costs_two_data_packets() {
    // "For one hop protocols such as ping, the overhead is sufficiently
    // small, usually only two packets."
    let mut net = line_network(2, 5.0, 16);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.1").unwrap();
    // Quiesce management traffic, then count only the probe exchange by
    // pinging from the node the workstation bridges to (command + reply
    // are separate, counted below).
    let before = net.counters.get("tx.data");
    ws.exec(&mut net, CommandRequest::ping(1, 1, 32, None))
        .unwrap();
    let after = net.counters.get("tx.data");
    // Total data packets: command request is local (bridge == source ⇒
    // no radio), probe + probe-reply on the air, summary is local too.
    assert_eq!(after - before, 2, "counted {} packets", after - before);
}

#[test]
fn determinism_across_runs() {
    let run = |seed: u64| {
        let mut net = line_network(3, 10.0, seed);
        let mut ws = Workstation::install(&mut net, 0);
        ws.cd(&net, "192.168.0.1").unwrap();
        let exec = ws
            .exec(
                &mut net,
                CommandRequest::ping(2, 2, 32, Some(Port::GEOGRAPHIC)),
            )
            .unwrap();
        format!("{:?}", exec.result)
    };
    assert_eq!(run(99), run(99));
}

#[test]
fn event_log_round_trip() {
    let mut net = line_network(2, 5.0, 17);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.2").unwrap();
    // Logging starts disabled: reading yields an empty log.
    let exec = ws.exec(&mut net, CommandRequest::read_log(16)).unwrap();
    assert_eq!(exec.result, CommandResult::Log(vec![]));
    // Enable logging, then issue a few commands worth logging.
    let exec = ws
        .exec(&mut net, CommandRequest::set_logging(true))
        .unwrap();
    assert_eq!(exec.result, CommandResult::Ok);
    ws.exec(&mut net, CommandRequest::get_power()).unwrap();
    ws.exec(&mut net, CommandRequest::blacklist(0, true))
        .unwrap();
    ws.exec(&mut net, CommandRequest::blacklist(0, false))
        .unwrap();
    // Fetch the log: the management requests themselves were logged.
    let exec = ws.exec(&mut net, CommandRequest::read_log(16)).unwrap();
    let CommandResult::Log(rows) = &exec.result else {
        panic!("{:?}", exec.result)
    };
    assert!(rows.len() >= 3, "rows: {rows:?}");
    assert!(rows.iter().all(|r| r.code == "mgmt"), "rows: {rows:?}");
    // Timestamps are monotone.
    for w in rows.windows(2) {
        assert!(w[1].time_ms >= w[0].time_ms);
    }
    // Disable again: no further entries accumulate.
    ws.exec(&mut net, CommandRequest::set_logging(false))
        .unwrap();
    let before = rows.len();
    ws.exec(&mut net, CommandRequest::get_power()).unwrap();
    let exec = ws.exec(&mut net, CommandRequest::read_log(32)).unwrap();
    let CommandResult::Log(rows) = &exec.result else {
        panic!("{:?}", exec.result)
    };
    // Two extra entries at most — the first ReadLog and the
    // SetLogging(false) requests themselves (both logged while logging
    // was still on; a request's log effect lands after the reply
    // snapshot) — and nothing for commands issued after the disable.
    assert!(rows.len() <= before + 2, "{} vs {}", rows.len(), before);
    assert!(rows.iter().any(|r| r.detail.contains("SetLogging")));
}

#[test]
fn every_channel_works() {
    // "the CC2420 radio chip … supports 16 channels": walk both nodes
    // across all of them, pinging on each.
    let mut net = line_network(2, 5.0, 18);
    let mut ws = Workstation::install(&mut net, 0);
    for ch in 11..=26u8 {
        // Retune the far node via management, then the bridge locally
        // (the bridge mote's radio is under the operator's hand).
        ws.cd(&net, "192.168.0.2").unwrap();
        let exec = ws.exec(&mut net, CommandRequest::set_channel(ch)).unwrap();
        assert_eq!(exec.result, CommandResult::Ok, "set channel {ch}");
        net.node_mut(0).channel = lv_radio::Channel::new(ch).unwrap();
        ws.cd(&net, "192.168.0.1").unwrap();
        let exec = ws
            .exec(&mut net, CommandRequest::ping(1, 1, 32, None))
            .unwrap();
        let CommandResult::Ping(p) = &exec.result else {
            panic!("channel {ch}: {:?}", exec.result)
        };
        assert_eq!(p.received, 1, "ping failed on channel {ch}");
        assert_eq!(p.channel, ch);
    }
}

#[test]
fn sequential_commands_do_not_interfere() {
    // The interpreter runs one command at a time; a burst of different
    // commands must each get their own correct answer (no stale replies
    // credited to the wrong request id).
    let mut net = line_network(3, 5.0, 19);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.2").unwrap();
    for round in 0..3 {
        let exec = ws.exec(&mut net, CommandRequest::get_power()).unwrap();
        assert_eq!(exec.result, CommandResult::Power(31), "round {round}");
        let exec = ws.exec(&mut net, CommandRequest::get_channel()).unwrap();
        assert_eq!(exec.result, CommandResult::Channel(17), "round {round}");
        let exec = ws
            .exec(&mut net, CommandRequest::neighbor_list(false))
            .unwrap();
        let CommandResult::Neighbors(rows) = &exec.result else {
            panic!("round {round}: {:?}", exec.result)
        };
        assert_eq!(rows.len(), 2, "round {round}");
        let exec = ws
            .exec(&mut net, CommandRequest::ping(1, 1, 32, None))
            .unwrap();
        assert!(
            matches!(&exec.result, CommandResult::Ping(p) if p.received == 1),
            "round {round}: {:?}",
            exec.result
        );
    }
}

#[test]
fn multi_hop_ping_over_flooding() {
    // Protocol independence, the other way: the same ping command rides
    // the flooding protocol just by naming its port.
    let positions = (0..4)
        .map(|i| Position::new(i as f64 * 12.0, 0.0))
        .collect();
    let medium = Medium::new(positions, PropagationConfig::default(), 20);
    let mut net = Network::new(medium, 20);
    for i in 0..4u16 {
        net.install_router(i, Box::new(lv_net::routing::Flooding::new(Port::FLOODING)))
            .unwrap();
    }
    install_suite(&mut net);
    net.run_for(SimDuration::from_secs(20));
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.1").unwrap();
    let exec = ws
        .exec(
            &mut net,
            CommandRequest::ping(3, 1, 16, Some(Port::FLOODING)),
        )
        .unwrap();
    let CommandResult::Ping(p) = &exec.result else {
        panic!("{:?}", exec.result)
    };
    assert_eq!(p.received, 1, "flooded ping must come home");
    // Flooding delivers; the padding recorded the hops it took.
    assert!(!p.rounds[0].fwd_hops.is_empty());
}

#[test]
fn loaded_link_reports_nonzero_queue() {
    // The ping report's Queue field must reflect real transmit-queue
    // occupancy when the responder is busy forwarding.
    use lv_kernel::{Process, SysCtx};
    struct Chatter;
    impl Process for Chatter {
        fn name(&self) -> &str {
            "chatter"
        }
        fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
            ctx.set_timer(1, SimDuration::from_millis(1));
        }
        fn on_timer(&mut self, ctx: &mut SysCtx<'_>, _t: u32) {
            // ~65% airtime duty: the TX queue is usually occupied but
            // never saturated, so the node can still answer probes.
            for _ in 0..2 {
                ctx.send(2, Port(90), Port(90), vec![0; 50], false);
            }
            ctx.set_timer(1, SimDuration::from_millis(8));
        }
    }
    let mut net = line_network(3, 5.0, 21);
    net.spawn_process(1, Box::new(Chatter), vec![]).unwrap();
    net.run_for(SimDuration::from_millis(50));
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.1").unwrap();
    // Ping the busy middle node a few times; at least one report should
    // catch its queue non-empty.
    let mut saw_queue = false;
    for _ in 0..10 {
        let exec = ws
            .exec(&mut net, CommandRequest::ping(1, 1, 32, None))
            .unwrap();
        if let CommandResult::Ping(p) = &exec.result {
            if p.rounds.first().is_some_and(|r| r.queue_fwd > 0) {
                saw_queue = true;
                break;
            }
        }
    }
    assert!(saw_queue, "busy responder never reported a non-empty queue");
}

#[test]
fn group_survey_hears_every_node_in_range() {
    // A star: bridge in the middle, five nodes around it. One broadcast
    // query; every controller answers after its own random backoff,
    // inside the 500 ms window — the paper's group-operation design.
    let positions = vec![
        Position::new(0.0, 0.0),
        Position::new(5.0, 0.0),
        Position::new(-5.0, 0.0),
        Position::new(0.0, 5.0),
        Position::new(0.0, -5.0),
        Position::new(4.0, 4.0),
    ];
    let medium = Medium::new(positions, PropagationConfig::default(), 22);
    let mut net = Network::new(medium, 22);
    install_suite(&mut net);
    net.run_for(SimDuration::from_secs(10));
    let mut ws = Workstation::install(&mut net, 0);
    let exec = ws.exec(&mut net, CommandRequest::survey()).unwrap();
    let CommandResult::GroupStatus(rows) = &exec.result else {
        panic!("{:?}", exec.result)
    };
    // All five neighbors (not the bridge itself — a node cannot hear
    // its own broadcast).
    assert_eq!(rows.len(), 5, "rows: {rows:?}");
    let ids: Vec<u16> = rows.iter().map(|r| r.node).collect();
    assert_eq!(ids, vec![1, 2, 3, 4, 5], "sorted by node id");
    for r in rows {
        assert_eq!(r.power, 31);
        assert_eq!(r.channel, 17);
        assert!(r.neighbors >= 1);
    }
    // The fixed window applies to group operations too.
    assert_eq!(exec.response_delay, SimDuration::from_millis(500));
}

#[test]
fn group_survey_skips_dead_nodes() {
    let positions = vec![
        Position::new(0.0, 0.0),
        Position::new(5.0, 0.0),
        Position::new(-5.0, 0.0),
    ];
    let medium = Medium::new(positions, PropagationConfig::default(), 23);
    let mut net = Network::new(medium, 23);
    install_suite(&mut net);
    net.run_for(SimDuration::from_secs(5));
    net.medium.set_dead(2, true);
    let mut ws = Workstation::install(&mut net, 0);
    let exec = ws.exec(&mut net, CommandRequest::survey()).unwrap();
    let CommandResult::GroupStatus(rows) = &exec.result else {
        panic!("{:?}", exec.result)
    };
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].node, 1);
}

#[test]
fn exec_rejects_bad_targets_up_front() {
    use liteview::{ExecError, ExecTarget};
    let mut net = line_network(2, 5.0, 31);
    let mut ws = Workstation::install(&mut net, 0);

    // No `cd` yet: a cwd-targeted request must fail without touching
    // the network.
    let before = net.now();
    assert!(matches!(
        ws.exec(&mut net, CommandRequest::get_power()),
        Err(ExecError::NoCwd)
    ));
    assert_eq!(net.now(), before, "failed exec must not advance time");

    // Unknown explicit node ids are rejected (the historical `exec_on`
    // wrapper silently accepted them).
    assert!(matches!(
        ws.exec(&mut net, CommandRequest::get_power().on(99)),
        Err(ExecError::UnknownNode(99))
    ));
    assert!(matches!(
        ws.exec(&mut net, CommandRequest::new(Command::GetPower).on(99)),
        Err(ExecError::UnknownNode(99))
    ));

    // Unknown names still surface through `cd`.
    assert!(matches!(
        ws.cd(&net, "10.0.0.1"),
        Err(ExecError::NoSuchNode(_))
    ));

    // Builder: target defaults to cwd and is re-aimable.
    let req = CommandRequest::get_power();
    assert_eq!(req.target(), ExecTarget::Cwd);
    assert_eq!(req.clone().on(1).target(), ExecTarget::Node(1));
    assert_eq!(req.clone().group().target(), ExecTarget::Group);
    assert_eq!(req.on(1).at_cwd().target(), ExecTarget::Cwd);
    assert_eq!(
        CommandRequest::survey().target(),
        ExecTarget::Group,
        "survey is group-targeted by construction"
    );
}

#[test]
fn traceroute_execution_carries_flight_recorder_evidence() {
    // The tentpole acceptance case: a multi-hop traceroute's Execution
    // must arrive with a causal event timeline and per-hop counter
    // deltas, with no explicit trace setup (Workstation::install arms
    // the flight recorder by itself).
    let mut net = line_network(4, 12.0, 40);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.1").unwrap();
    let exec = ws
        .exec(
            &mut net,
            CommandRequest::traceroute(3, 32, Port::GEOGRAPHIC),
        )
        .unwrap();
    let CommandResult::Traceroute(t) = &exec.result else {
        panic!("{:?}", exec.result)
    };
    assert!(t.reached);

    // Timeline: every event happened inside the command window and the
    // probe's forwarding left net.forward / net.deliver breadcrumbs.
    assert!(!exec.timeline.is_empty(), "timeline empty");
    for ev in &exec.timeline {
        assert!(ev.at >= exec.issued_at, "event predates command: {ev}");
    }
    let msgs = exec
        .timeline
        .iter()
        .map(|e| e.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(msgs.contains("net.forward"), "no forward events:\n{msgs}");
    assert!(msgs.contains("net.deliver"), "no deliver events:\n{msgs}");

    // Global counter delta: the probe cost real packets.
    assert!(
        exec.counter_delta.get("tx.data") > 0,
        "{:?}",
        exec.counter_delta
    );

    // Per-hop profile: every node on the 0→1→2→3 line moved its own
    // counters during the window, and the relays show forwarding work.
    let touched: Vec<u16> = exec.node_deltas.iter().map(|d| d.node).collect();
    for id in 0..4u16 {
        assert!(touched.contains(&id), "node {id} missing from {touched:?}");
    }
    let relays: Vec<u16> = exec
        .node_deltas
        .iter()
        .filter(|d| d.counters.get("net.forward") > 0)
        .map(|d| d.node)
        .collect();
    assert!(!relays.is_empty(), "no relay recorded net.forward");
    assert!(
        relays.iter().all(|r| (1..=2).contains(r)),
        "forwarding attributed to non-relays: {relays:?}"
    );
}

#[test]
fn observability_report_round_trips_through_json() {
    use liteview::ObservabilityReport;
    let mut net = line_network(4, 12.0, 41);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.1").unwrap();
    ws.exec(&mut net, CommandRequest::ping(1, 1, 32, None))
        .unwrap();
    ws.exec(
        &mut net,
        CommandRequest::traceroute(3, 32, Port::GEOGRAPHIC),
    )
    .unwrap();

    let report = ws.report(&net);
    assert_eq!(report.node_count, 4);
    assert_eq!(report.nodes.len(), 4);
    assert_eq!(report.executions.len(), 2);
    assert!(report.executions[0].command.starts_with("ping"));
    assert!(report.executions[1].command.starts_with("traceroute"));
    assert!(!report.executions[1].timeline.is_empty());
    assert!(report.global.get("tx.data") > 0);
    assert!(report.nodes.iter().all(|n| n.alive));

    let json = report.to_json();
    let back = ObservabilityReport::from_json(&json).expect("report parses back");
    assert_eq!(back.node_count, report.node_count);
    assert_eq!(back.captured_at, report.captured_at);
    assert_eq!(back.global, report.global);
    assert_eq!(back.executions.len(), report.executions.len());
    assert_eq!(
        back.executions[1].node_deltas, report.executions[1].node_deltas,
        "per-hop deltas must survive the JSON round trip"
    );
}

#[test]
fn exec_accepts_bare_commands_and_aimed_requests() {
    let mut net = line_network(2, 5.0, 32);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.1").unwrap();

    // A bare Command runs on the cwd node.
    let exec = ws.exec(&mut net, Command::GetPower).unwrap();
    assert_eq!(exec.target, 0);
    assert!(matches!(exec.result, CommandResult::Power(_)));

    // The same request aimed at an explicit node runs there instead,
    // without moving the cwd.
    let exec = ws
        .exec(&mut net, CommandRequest::get_power().on(1))
        .unwrap();
    assert_eq!(exec.target, 1);
    assert!(matches!(exec.result, CommandResult::Power(_)));
    assert_eq!(ws.cwd(), Some(0));
}

#[test]
fn history_keeps_the_most_recent_window() {
    use liteview::workstation::HISTORY_CAPACITY;
    let mut net = line_network(2, 5.0, 33);
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.2").unwrap();
    let issued: Vec<_> = (0..HISTORY_CAPACITY + 10)
        .map(|_| ws.exec(&mut net, CommandRequest::get_power()).unwrap())
        .collect();

    let kept = ws.executions();
    assert_eq!(
        kept,
        &issued[10..],
        "the last {HISTORY_CAPACITY}, in issue order"
    );
    let report = ws.report(&net);
    assert_eq!(report.executions.len(), HISTORY_CAPACITY);
    for (record, exec) in report.executions.iter().zip(kept) {
        assert_eq!(record.issued_at, exec.issued_at);
        assert_eq!(record.command, "power");
    }
}
