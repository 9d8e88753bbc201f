//! Protocol comparison without recompilation.
//!
//! ```text
//! cargo run --example protocol_comparison --release
//! ```
//!
//! The paper's protocol-independence requirement (Section IV.A.1): "To
//! select the optimal combination of protocols, users may install each
//! protocol sequentially, and measure the protocol performance.
//! Therefore, it is desired that the ping and traceroute commands
//! should support multiple protocols without the need for
//! re-compilation." Here three protocols coexist on different ports and
//! the same ping command measures each just by changing `port=`.

use liteview_repro::liteview::{CommandRequest, CommandResult};
use liteview_repro::lv_net::packet::Port;
use liteview_repro::lv_testbed::scenario::{Protocols, Scenario, ScenarioConfig};
use liteview_repro::lv_testbed::Topology;

fn main() {
    let cfg = ScenarioConfig {
        protocols: Protocols {
            geographic: true,
            flooding: true,
            tree: true, // node 0 is the collection root
        },
        // The operator stands at the far end of the corridor, so the
        // workstation bridges through node 4 (management is one-hop).
        bridge: 4,
        ..ScenarioConfig::new(Topology::Corridor { n: 5 }, 33)
    };
    let mut s = Scenario::build(cfg);

    // The operator sits at the far end and measures the path back to
    // the root over each protocol (collection trees only route toward
    // the root, so we ping from node 4 toward node 0).
    println!("three protocols on node 192.168.0.5:");
    for (port, name) in s.net.node(4).stack.router_list() {
        println!("  port {:>2}: {name}", port.0);
    }
    println!();
    println!(
        "{:<28} {:>10} {:>12} {:>10}",
        "protocol (port)", "RTT [ms]", "data pkts", "delivered"
    );

    for (port, label) in [
        (Port::GEOGRAPHIC, "geographic forwarding (10)"),
        (Port::FLOODING, "flooding (11)"),
        (Port::TREE, "collection tree (12)"),
    ] {
        s.net.counters.reset();
        let exec =
            s.ws.exec(&mut s.net, CommandRequest::ping(0, 1, 32, Some(port)))
                .unwrap();
        let pkts = s.net.counters.get("tx.data");
        match &exec.result {
            CommandResult::Ping(p) if p.received > 0 => {
                let rtt = p.rounds[0].rtt_us as f64 / 1000.0;
                println!("{label:<28} {rtt:>10.1} {pkts:>12} {:>10}", "yes");
            }
            _ => {
                println!("{label:<28} {:>10} {pkts:>12} {:>10}", "-", "no");
            }
        }
    }

    println!();
    println!("geographic forwarding walks the corridor hop by hop; flooding");
    println!("pays a broadcast storm per probe; the collection tree carries");
    println!("probes to the root but cannot route the reply back down — a");
    println!("protocol property the unmodified ping command just exposed.");
}
