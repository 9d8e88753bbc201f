//! Deployment diagnosis: find a dead node and an asymmetric link.
//!
//! ```text
//! cargo run --example deployment_diagnosis --release
//! ```
//!
//! The scenario the paper's introduction motivates: a freshly deployed
//! network misbehaves — traffic toward the far end vanishes. The
//! operator walks the corridor with LiteView, pings, traceroutes and
//! lists neighborhoods from both sides of the break, pins the failure
//! on a dead node plus an *asymmetric* link, fixes the antenna, and
//! verifies the repair — all without touching the deployed application.

use liteview_repro::liteview::{CommandRequest, CommandResult, Workstation};
use liteview_repro::lv_kernel::DynamicsAction;
use liteview_repro::lv_net::packet::Port;
use liteview_repro::lv_sim::SimDuration;
use liteview_repro::lv_testbed::{DynamicsPlan, Scenario, ScenarioConfig, Topology};

fn main() {
    // A 6-node corridor; the operator starts near node 0.
    let topo = Topology::Corridor { n: 6 };
    let mut s = Scenario::build(ScenarioConfig::new(topo, 7));
    println!("deployment up: 6 nodes, geographic forwarding on port 10\n");

    // --- Sabotage (unknown to the operator) -------------------------
    // Node 4's antenna got bent: it still receives everything, but its
    // own transmissions toward node 3 die — an asymmetric break.
    let now = s.net.now();
    let bent = DynamicsAction::SetLinkLoss {
        from: 4,
        to: 3,
        extra_loss_db: 0.0,
        blocked: true,
    };
    s.net.schedule_dynamics(now, bent);
    // And node 5's batteries are dead.
    s.net
        .schedule_dynamics(now, DynamicsAction::NodeDown { id: 5 });
    // Let estimators and neighbor tables notice.
    s.net.run_for(SimDuration::from_secs(30));

    // --- Diagnosis session ------------------------------------------
    println!("$pwd\n{}", s.ws.pwd(&s.net).unwrap());

    // Step 1: is the far end alive at all?
    println!("\n$ping 192.168.0.6 round=1 length=32 port=10");
    s.ws.clear_transcript();
    s.ws.exec(
        &mut s.net,
        CommandRequest::ping(5, 1, 32, Some(Port::GEOGRAPHIC)),
    )
    .unwrap();
    for l in s.ws.transcript() {
        println!("{l}");
    }
    println!("=> all packets lost: dead node or broken path. Which?");

    // Step 2: trace the path hop by hop.
    println!("\n$traceroute 192.168.0.5 round=1 length=32 port=10");
    s.ws.clear_transcript();
    let exec =
        s.ws.exec(
            &mut s.net,
            CommandRequest::traceroute(4, 32, Port::GEOGRAPHIC),
        )
        .unwrap();
    for l in s.ws.transcript() {
        println!("{l}");
    }
    if let CommandResult::Traceroute(t) = &exec.result {
        if !t.reached {
            println!("=> the path dies after 192.168.0.4: the break is local to");
            println!("   the .4 ↔ .5 link (or .5 itself).");
        }
    }

    // Step 3: the management protocol is one-hop, so the operator walks
    // to the last responsive node and inspects its neighborhood.
    println!("\n(operator walks to node 192.168.0.4 and reattaches)");
    let mut ws2 = Workstation::install(&mut s.net, 3);
    ws2.cd(&s.net, "192.168.0.4").unwrap();
    println!("$list quality");
    ws2.exec(&mut s.net, CommandRequest::neighbor_list(true))
        .unwrap();
    for l in ws2.transcript() {
        println!("{l}");
    }
    println!("=> 192.168.0.5 is MISSING from .4's table although it is");
    println!("   deployed five meters away — .4 hears nothing from it.");

    // Step 4: cross-check from the other side of the suspect link.
    println!("\n(operator walks on to node 192.168.0.5)");
    let mut ws3 = Workstation::install(&mut s.net, 4);
    ws3.cd(&s.net, "192.168.0.5").unwrap();
    println!("$list quality");
    ws3.exec(&mut s.net, CommandRequest::neighbor_list(true))
        .unwrap();
    for l in ws3.transcript() {
        println!("{l}");
    }
    println!("\n$ping 192.168.0.4 round=1 length=32");
    ws3.clear_transcript();
    ws3.exec(&mut s.net, CommandRequest::ping(3, 1, 32, None))
        .unwrap();
    for l in ws3.transcript() {
        println!("{l}");
    }
    println!("=> .5 hears .4's beacons perfectly (inbound ≈ 1.0) yet its own");
    println!("   probes all die: a textbook ASYMMETRIC link, .5 → .4 broken.");
    println!("   (And .6 is absent from every table: that node is simply dead.)");

    // Step 5: fix the antenna and verify interactively.
    println!("\n(operator straightens node .5's antenna)");
    DynamicsPlan::new()
        .link_repair(4, 3, s.net.now())
        .schedule(&mut s.net);
    s.net.run_for(SimDuration::from_secs(20)); // estimators recover
    println!("$traceroute 192.168.0.5 round=1 length=32 port=10   (from node .1)");
    s.ws.clear_transcript();
    let exec =
        s.ws.exec(
            &mut s.net,
            CommandRequest::traceroute(4, 32, Port::GEOGRAPHIC),
        )
        .unwrap();
    for l in s.ws.transcript() {
        println!("{l}");
    }
    if let CommandResult::Traceroute(t) = &exec.result {
        println!(
            "\n=> path to 192.168.0.5 {} — repair verified in seconds,",
            if t.reached {
                "restored"
            } else {
                "still broken"
            }
        );
        println!("   the immediate-feedback loop the toolkit was built for.");
    }
}
