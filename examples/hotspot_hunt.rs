//! Hotspot hunting: find where queueing delay accumulates.
//!
//! ```text
//! cargo run --example hotspot_hunt --release
//! ```
//!
//! "It also allows users to identify traffic hotspots by collecting
//! round-trip delays of arbitrary pairs of nodes" (abstract) — and the
//! conclusion reports the authors "can quickly identify traffic
//! hotspots". This example reproduces that workflow: a deployed
//! application funnels periodic reports through a relay node; the
//! operator pings pairs along the path and reads RTTs and queue
//! occupancies to locate the congested relay.

use liteview_repro::liteview::{CommandRequest, CommandResult};
use liteview_repro::lv_kernel::{Process, RxMeta, SysCtx};
use liteview_repro::lv_net::packet::{NetPacket, Port};
use liteview_repro::lv_sim::SimDuration;
use liteview_repro::lv_testbed::{Scenario, ScenarioConfig, Topology};

/// The deployed application: every node streams readings to node 0
/// (think EnviroMic's acoustic reports) over geographic forwarding.
struct ReportGenerator {
    sink: u16,
    period: SimDuration,
}

impl Process for ReportGenerator {
    fn name(&self) -> &str {
        "report-generator"
    }
    fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
        // Stagger the start.
        let jitter = SimDuration::from_nanos(ctx.rng.below(self.period.as_nanos()));
        ctx.set_timer(1, jitter);
    }
    fn on_timer(&mut self, ctx: &mut SysCtx<'_>, _token: u32) {
        ctx.send(self.sink, Port::GEOGRAPHIC, Port(70), vec![0xAB; 24], false);
        ctx.set_timer(1, self.period);
    }
}

/// The sink application (drops payloads, which is all we need).
struct Sink;
impl Process for Sink {
    fn name(&self) -> &str {
        "sink"
    }
    fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
        ctx.subscribe(Port(70));
    }
    fn on_packet(&mut self, _ctx: &mut SysCtx<'_>, _p: &NetPacket, _m: RxMeta) {}
}

fn main() {
    // A corridor where everything must pass node 1 to reach the sink.
    let topo = Topology::Corridor { n: 6 };
    let mut s = Scenario::build(ScenarioConfig::new(topo, 21));

    // Deploy the application: nodes 2..=5 stream to node 0 every 60 ms —
    // aggressively, so the funnel node's queue visibly builds.
    s.net.spawn_process(0, Box::new(Sink), vec![]).unwrap();
    for i in 2..6u16 {
        s.net
            .spawn_process(
                i,
                Box::new(ReportGenerator {
                    sink: 0,
                    period: SimDuration::from_millis(60),
                }),
                vec![],
            )
            .unwrap();
    }
    s.net.run_for(SimDuration::from_secs(5));
    println!("application running: 4 sources stream reports through the corridor\n");

    // The operator pings each node pair along the path and compares.
    println!("{:<24} {:>10} {:>14}", "pair", "RTT [ms]", "queue (f/b)");
    let mut worst: Option<(u16, f64)> = None;
    for hop in 1..6u16 {
        let exec =
            s.ws.exec(
                &mut s.net,
                CommandRequest::ping(hop, 1, 32, Some(Port::GEOGRAPHIC)),
            )
            .unwrap();
        if let CommandResult::Ping(p) = &exec.result {
            if let Some(r) = p.rounds.first() {
                let rtt = r.rtt_us as f64 / 1000.0;
                println!(
                    "0 -> {:<18} {:>10.1} {:>10}/{}",
                    format!("192.168.0.{}", hop + 1),
                    rtt,
                    r.queue_fwd,
                    r.queue_bwd
                );
                if worst.map_or(true, |(_, w)| rtt / (hop as f64) > w) {
                    worst = Some((hop, rtt / hop as f64));
                }
            } else {
                println!("0 -> 192.168.0.{:<12} lost", hop + 1);
            }
        }
    }

    // Per-hop view of the busiest path.
    println!("\n$traceroute 192.168.0.6 round=1 length=32 port=10");
    s.ws.clear_transcript();
    s.ws.exec(
        &mut s.net,
        CommandRequest::traceroute(5, 32, Port::GEOGRAPHIC),
    )
    .unwrap();
    for l in s.ws.transcript() {
        println!("{l}");
    }

    if let Some((hop, per_hop)) = worst {
        println!(
            "\n=> highest per-hop RTT toward 192.168.0.{} ({per_hop:.1} ms/hop):",
            hop + 1
        );
        println!("   the early corridor nodes relay every source's reports —");
        println!("   that funnel is the hotspot the RTT profile exposes.");
    }
}
