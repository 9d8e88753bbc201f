//! Watching a collection tree build itself — and fixing it.
//!
//! ```text
//! cargo run --example tree_monitoring --release
//! ```
//!
//! The paper's motivation names MintRoute-style collection as the
//! workload whose "routing tree construction" operators need visibility
//! into. Here an EnviroMic-like sensing application streams readings to
//! a root over the collection-tree protocol while the operator uses
//! LiteView to *watch the tree form* (every neighbor-table row carries
//! the neighbor's advertised gradient), then breaks a link and watches
//! the tree re-converge — without instrumenting the application at all.

use liteview_repro::liteview::{CommandRequest, CommandResult};
use liteview_repro::lv_kernel::{Network, Process, RxMeta, SysCtx};
use liteview_repro::lv_net::packet::{NetPacket, Port};
use liteview_repro::lv_sim::SimDuration;
use liteview_repro::lv_testbed::scenario::{Protocols, Scenario, ScenarioConfig};
use liteview_repro::lv_testbed::{DynamicsPlan, Topology};
use std::cell::RefCell;
use std::rc::Rc;

/// The deployed application: periodic readings to the collection root.
struct Sensor;
impl Process for Sensor {
    fn name(&self) -> &str {
        "enviromic-sensor"
    }
    fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
        let jitter = SimDuration::from_nanos(ctx.rng.below(1_000_000_000));
        ctx.set_timer(1, jitter);
    }
    fn on_timer(&mut self, ctx: &mut SysCtx<'_>, _t: u32) {
        // Address the root (node 0); the tree routes it downhill.
        ctx.send(0, Port::TREE, Port(71), vec![0xDA; 20], false);
        ctx.set_timer(1, SimDuration::from_secs(1));
    }
}

/// The root's data sink, counting arrivals per origin.
struct RootSink {
    arrivals: Rc<RefCell<Vec<u32>>>,
}
impl Process for RootSink {
    fn name(&self) -> &str {
        "root-sink"
    }
    fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
        ctx.subscribe(Port(71));
    }
    fn on_packet(&mut self, _ctx: &mut SysCtx<'_>, packet: &NetPacket, _m: RxMeta) {
        let mut a = self.arrivals.borrow_mut();
        let origin = packet.header.origin as usize;
        if origin < a.len() {
            a[origin] += 1;
        }
    }
}

fn print_tree(net: &Network) {
    // The operator reads each reachable node's neighbor table; the
    // advertised gradients sketch the tree.
    println!("  node          gradient of its best parent candidates");
    for node in 0..net.node_count() as u16 {
        let name = &net.node(node).name;
        let entries: Vec<String> = net
            .node(node)
            .stack
            .neighbors
            .entries()
            .iter()
            .map(|e| format!("{}@{}", e.name, e.tree_hops))
            .collect();
        println!("  {name:<13} {}", entries.join("  "));
    }
}

fn main() {
    let cfg = ScenarioConfig {
        protocols: Protocols {
            geographic: false,
            flooding: false,
            tree: true, // node 0 is the root
        },
        ..ScenarioConfig::new(Topology::Corridor { n: 5 }, 27)
    };
    let mut s = Scenario::build(cfg);
    let arrivals = Rc::new(RefCell::new(vec![0u32; 5]));
    s.net
        .spawn_process(
            0,
            Box::new(RootSink {
                arrivals: arrivals.clone(),
            }),
            vec![],
        )
        .unwrap();
    for i in 1..5u16 {
        s.net.spawn_process(i, Box::new(Sensor), vec![]).unwrap();
    }
    s.net.run_for(SimDuration::from_secs(20));

    println!("collection tree after 20 s (gradients from neighbor beacons):");
    print_tree(&s.net);
    println!("\nroot arrivals per origin: {:?}", arrivals.borrow());

    // Interactive check from the operator's seat: the neighbor table of
    // the root's child shows gradient 0 at the root.
    s.ws.cd(&s.net, "192.168.0.2").unwrap();
    s.ws.clear_transcript();
    s.ws.exec(&mut s.net, CommandRequest::neighbor_list(true))
        .unwrap();
    println!("\n$cd /sn01/192.168.0.2 && list quality");
    for l in s.ws.transcript() {
        println!("{l}");
    }

    // Break the first corridor link: the tree below the break is orphaned
    // (a corridor has no alternate path) — and LiteView shows exactly that.
    println!("\n(link 1↔2 breaks — a cabinet moved into the corridor)");
    DynamicsPlan::new()
        .link_break(1, 2, s.net.now())
        .schedule(&mut s.net);
    let before: Vec<u32> = arrivals.borrow().clone();
    s.net.run_for(SimDuration::from_secs(20));
    let after: Vec<u32> = arrivals.borrow().clone();
    println!(
        "arrivals in the next 20 s: {:?}",
        after
            .iter()
            .zip(&before)
            .map(|(a, b)| a - b)
            .collect::<Vec<_>>()
    );
    println!("\ntree after the break — the orphaned subtree's gradients count");
    println!("up toward the 16-hop ceiling and then advertise unreachable (the");
    println!("bounded version of distance-vector count-to-infinity):");
    print_tree(&s.net);

    let exec =
        s.ws.exec(
            &mut s.net,
            CommandRequest::new(liteview_repro::liteview::Command::Status).on(1),
        )
        .unwrap();
    if let CommandResult::Status { neighbors, .. } = exec.result {
        println!("\nnode 192.168.0.2 now reports {neighbors} neighbor(s): its");
        println!("downstream child vanished from the table — the operator sees");
        println!("the orphaned subtree without touching the sensing application.");
    }
}
