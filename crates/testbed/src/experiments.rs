//! Experiment drivers — one per table/figure (see `DESIGN.md` §4).
//!
//! Every driver is a pure function of a seed, returning serializable
//! rows. The `figures` binary in `lv-bench` prints them and
//! `EXPERIMENTS.md` quotes them.

use crate::results::*;
use crate::scenario::{Scenario, ScenarioConfig};
use crate::topology::Topology;
use liteview::wire::PingReply;
use liteview::{Command, CommandRequest, CommandResult, TraceOutcome};
use lv_kernel::{Network, Process, ProcessImage, RxMeta, SysCtx};
use lv_net::packet::{NetPacket, Port, PAYLOAD_AREA};
use lv_net::padding::HopQuality;
use lv_sim::{SimDuration, SimRng};
use std::cell::RefCell;
use std::rc::Rc;

/// Run one traceroute over the 8-hop corridor and return the outcome.
fn corridor_traceroute(seed: u64, power_level: Option<u8>) -> (Scenario, TraceOutcome) {
    let cfg = ScenarioConfig::new(Topology::eight_hop_corridor(), seed);
    let mut s = Scenario::build(cfg);
    if let Some(level) = power_level {
        let p = lv_radio::PowerLevel::new(level).expect("valid level");
        for i in 0..s.net.node_count() as u16 {
            s.net.node_mut(i).power = p;
        }
        // Let estimators re-settle at the new power.
        s.net.run_for(SimDuration::from_secs(10));
    }
    s.ws.cd(&s.net, "192.168.0.1").unwrap();
    let exec =
        s.ws.exec(
            &mut s.net,
            CommandRequest::traceroute(8, 32, Port::GEOGRAPHIC),
        )
        .unwrap();
    let CommandResult::Traceroute(t) = exec.result else {
        panic!("traceroute failed: {:?}", exec.result);
    };
    (s, t)
}

/// **Fig. 5** — traceroute response delay for each hop of an 8-hop path.
pub fn fig5_traceroute_delay(seed: u64) -> Vec<Fig5Row> {
    let (_, t) = corridor_traceroute(seed, None);
    t.hops
        .iter()
        .map(|h| Fig5Row {
            hop: h.record.hop_index,
            delay_ms: h.arrival.as_millis_f64(),
        })
        .collect()
}

/// **Fig. 6** — per-hop RSSI (both directions) at power levels 10 and 25.
pub fn fig6_rssi_vs_power(seed: u64) -> Vec<Fig6Row> {
    let (_, t10) = corridor_traceroute(seed, Some(10));
    let (_, t25) = corridor_traceroute(seed, Some(25));
    let pick = |t: &TraceOutcome, hop: u8| -> Option<(i8, i8)> {
        t.hops
            .iter()
            .find(|h| h.record.hop_index == hop && !h.record.probe_lost)
            .map(|h| (h.record.rssi_fwd, h.record.rssi_bwd))
    };
    (1..=8u8)
        .filter_map(|hop| {
            let (f10, b10) = pick(&t10, hop)?;
            let (f25, b25) = pick(&t25, hop)?;
            Some(Fig6Row {
                hop,
                fwd_p10: f10,
                bwd_p10: b10,
                fwd_p25: f25,
                bwd_p25: b25,
            })
        })
        .collect()
}

/// One point of the Fig. 7 sweep: overhead of one traceroute over a
/// `hops`-hop corridor.
fn fig7_point(seed: u64, hops: u8) -> Fig7Row {
    let topo = Topology::Corridor {
        n: hops as usize + 1,
        spacing: 5.0,
        wall_loss_db: 40.0,
    };
    let mut s = Scenario::build(ScenarioConfig::new(topo, seed));
    s.ws.cd(&s.net, "192.168.0.1").unwrap();
    s.reset_counters();
    let exec =
        s.ws.exec(
            &mut s.net,
            CommandRequest::traceroute(hops as u16, 32, Port::GEOGRAPHIC),
        )
        .unwrap();
    assert!(
        matches!(exec.result, CommandResult::Traceroute(_)),
        "hops={hops}: {:?}",
        exec.result
    );
    Fig7Row {
        hops,
        control_packets: s.net.counters.get("tx.data"),
        acks: s.net.counters.get("tx.ack"),
    }
}

/// **Fig. 7** — traceroute command overhead (packets) vs path length,
/// one independent corridor run per path length from 1 to 8 hops.
pub fn fig7_overhead(seed: u64) -> Vec<Fig7Row> {
    (1..=8).map(|hops| fig7_point(seed, hops)).collect()
}

/// **T-resp** — response delays of the fixed-window commands.
pub fn text_response_delays(seed: u64, trials: u32) -> Vec<TrespRow> {
    let cfg = ScenarioConfig::new(Topology::Line { n: 2, spacing: 5.0 }, seed);
    let mut s = Scenario::build(cfg);
    s.ws.cd(&s.net, "192.168.0.2").unwrap();
    let commands: Vec<(&str, Command)> = vec![
        ("get-power", Command::GetPower),
        (
            "neighbor-list",
            Command::NeighborList { with_quality: true },
        ),
        (
            "blacklist",
            Command::Blacklist {
                neighbor: 0,
                add: false,
            },
        ),
        (
            "ping (single-hop)",
            Command::Ping {
                dst: 0,
                rounds: 1,
                length: 32,
                port: None,
            },
        ),
    ];
    commands
        .into_iter()
        .map(|(name, cmd)| {
            let mut delays = Vec::new();
            let mut answered = 0;
            for _ in 0..trials {
                let exec = s.ws.exec(&mut s.net, cmd.clone()).unwrap();
                if !matches!(exec.result, CommandResult::Timeout) {
                    answered += 1;
                }
                delays.push(exec.response_delay.as_millis_f64());
            }
            let mean = delays.iter().sum::<f64>() / delays.len().max(1) as f64;
            TrespRow {
                command: name.to_owned(),
                trials,
                mean_ms: mean,
                min_ms: delays.iter().copied().fold(f64::INFINITY, f64::min),
                max_ms: delays.iter().copied().fold(0.0, f64::max),
                answered,
            }
        })
        .collect()
}

/// **T-ping** — the sample one-hop ping output (Section III.B.3).
pub fn text_ping_sample(seed: u64) -> TpingRow {
    let cfg = ScenarioConfig::new(Topology::Line { n: 2, spacing: 3.0 }, seed);
    let mut s = Scenario::build(cfg);
    s.ws.cd(&s.net, "192.168.0.1").unwrap();
    let exec =
        s.ws.exec(&mut s.net, CommandRequest::ping(1, 1, 32, None))
            .unwrap();
    let CommandResult::Ping(p) = exec.result else {
        panic!("ping failed: {:?}", exec.result);
    };
    let r = &p.rounds[0];
    TpingRow {
        rtt_ms: r.rtt_us as f64 / 1000.0,
        lqi_fwd: r.lqi_fwd,
        lqi_bwd: r.lqi_bwd,
        rssi_fwd: r.rssi_fwd,
        rssi_bwd: r.rssi_bwd,
        queue_fwd: r.queue_fwd,
        queue_bwd: r.queue_bwd,
        power: p.power,
        channel: p.channel,
    }
}

/// A minimal prober used by the padding-budget experiment: sends one
/// multi-hop ping probe and records how many hop-quality entries the
/// reply actually carried (the management summary would truncate them).
struct PadProbe {
    dst: u16,
    length: u8,
    observed: Rc<RefCell<Option<usize>>>,
}

impl Process for PadProbe {
    fn name(&self) -> &str {
        "pad-probe"
    }
    fn image(&self) -> ProcessImage {
        ProcessImage::PING
    }
    fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
        ctx.subscribe(Port(99));
        let probe = liteview::wire::PingProbe {
            session: 0x7AD,
            seq: 0,
            reply_port: 99,
        };
        ctx.send(
            self.dst,
            Port::GEOGRAPHIC,
            Port::PING,
            probe.encode(self.length as usize),
            true,
        );
    }
    fn on_packet(&mut self, _ctx: &mut SysCtx<'_>, packet: &NetPacket, _meta: RxMeta) {
        if let Ok(reply) = PingReply::decode(&packet.payload) {
            *self.observed.borrow_mut() = Some(reply.fwd_hops.len());
        }
    }
}

/// **T-pad** — the padding budget: a 16-byte probe can record at most
/// 24 hops (Section IV.C.3); beyond that the padding area is full.
pub fn text_padding_budget(seed: u64) -> TpadRow {
    let n = 27usize; // 26 hops > the 24-hop budget
    let topo = Topology::Corridor {
        n,
        spacing: 5.0,
        wall_loss_db: 40.0,
    };
    let cfg = ScenarioConfig {
        warmup: SimDuration::from_secs(30),
        ..ScenarioConfig::new(topo, seed)
    };
    let mut s = Scenario::build(cfg);
    let observed = Rc::new(RefCell::new(None));
    let probe_payload = 16usize;
    s.net
        .spawn_process(
            0,
            Box::new(PadProbe {
                dst: (n - 1) as u16,
                length: probe_payload as u8,
                observed: observed.clone(),
            }),
            vec![],
        )
        .unwrap();
    s.net.run_for(SimDuration::from_secs(5));
    let analytic = (PAYLOAD_AREA - probe_payload) / HopQuality::WIRE_BYTES;
    let got = observed.borrow().unwrap_or(0);
    TpadRow {
        probe_payload,
        bytes_per_hop: HopQuality::WIRE_BYTES,
        analytic_max_hops: analytic,
        path_hops: n - 1,
        observed_entries: got,
    }
}

/// **T-foot** — component footprints against the paper's numbers.
pub fn text_footprints() -> Vec<TfootRow> {
    vec![
        TfootRow {
            component: "ping".into(),
            flash_bytes: ProcessImage::PING.flash_bytes,
            ram_bytes: ProcessImage::PING.ram_bytes,
        },
        TfootRow {
            component: "traceroute".into(),
            flash_bytes: ProcessImage::TRACEROUTE.flash_bytes,
            ram_bytes: ProcessImage::TRACEROUTE.ram_bytes,
        },
        TfootRow {
            component: "runtime controller".into(),
            flash_bytes: 3600,
            ram_bytes: 320,
        },
        TfootRow {
            component: "command interpreter".into(),
            flash_bytes: 4200,
            ram_bytes: 400,
        },
    ]
}

/// **T-ovh1** — one-hop ping costs two data packets on the air.
pub fn text_onehop_overhead(seed: u64) -> TovhRow {
    let cfg = ScenarioConfig::new(Topology::Line { n: 2, spacing: 5.0 }, seed);
    let mut s = Scenario::build(cfg);
    s.ws.cd(&s.net, "192.168.0.1").unwrap();
    s.reset_counters();
    let exec =
        s.ws.exec(&mut s.net, CommandRequest::ping(1, 1, 32, None))
            .unwrap();
    assert!(matches!(exec.result, CommandResult::Ping(_)));
    TovhRow {
        command: "ping (one hop)".into(),
        data_packets: s.net.counters.get("tx.data"),
        acks: s.net.counters.get("tx.ack"),
    }
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5)
// ---------------------------------------------------------------------

/// Traceroute vs multi-hop ping: packets and bytes per path length.
pub fn ablation_traceroute_vs_ping(seed: u64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for hops in [2u8, 4, 6, 8] {
        let topo = Topology::Corridor {
            n: hops as usize + 1,
            spacing: 5.0,
            wall_loss_db: 40.0,
        };
        // Traceroute arm.
        let mut s = Scenario::build(ScenarioConfig::new(topo.clone(), seed));
        s.ws.cd(&s.net, "192.168.0.1").unwrap();
        s.reset_counters();
        s.ws.exec(
            &mut s.net,
            CommandRequest::traceroute(hops as u16, 32, Port::GEOGRAPHIC),
        )
        .unwrap();
        rows.push(AblationRow {
            arm: format!("traceroute hops={hops}"),
            metric: "data_packets".into(),
            value: s.net.counters.get("tx.data") as f64,
        });
        rows.push(AblationRow {
            arm: format!("traceroute hops={hops}"),
            metric: "bytes".into(),
            value: s.net.counters.get("tx.bytes") as f64,
        });
        // Multi-hop ping arm.
        let mut s = Scenario::build(ScenarioConfig::new(topo, seed));
        s.ws.cd(&s.net, "192.168.0.1").unwrap();
        s.reset_counters();
        s.ws.exec(
            &mut s.net,
            CommandRequest::ping(hops as u16, 1, 16, Some(Port::GEOGRAPHIC)),
        )
        .unwrap();
        rows.push(AblationRow {
            arm: format!("multihop-ping hops={hops}"),
            metric: "data_packets".into(),
            value: s.net.counters.get("tx.data") as f64,
        });
        rows.push(AblationRow {
            arm: format!("multihop-ping hops={hops}"),
            metric: "bytes".into(),
            value: s.net.counters.get("tx.bytes") as f64,
        });
    }
    rows
}

/// Adaptive vs fixed batch sizing in the reliable command protocol,
/// under Bernoulli chunk loss (protocol-level, no radio).
pub fn ablation_batch_adaptive(seed: u64) -> Vec<AblationRow> {
    use liteview::protocol::{BatchReceiver, BatchSender, SendStep};
    use liteview::wire::BatchMsg;

    let chunks: Vec<Vec<u8>> = (0..24).map(|i| vec![i as u8; 8]).collect();
    let mut rows = Vec::new();
    for loss in [0.0f64, 0.15, 0.3] {
        for (arm, fixed) in [
            ("adaptive", None),
            ("fixed-1", Some(1)),
            ("fixed-4", Some(4)),
        ] {
            let mut rng = SimRng::stream(seed, (loss * 100.0) as u64 + fixed.unwrap_or(9) as u64);
            let mut tx = BatchSender::new(1, chunks.clone());
            if let Some(k) = fixed {
                tx.set_fixed_batch(k);
            }
            let mut rx = BatchReceiver::new(1);
            let mut transmissions = 0u64;
            let mut round_trips = 0u64;
            let mut steps = tx.start();
            let mut guard = 0;
            while !tx.is_finished() && guard < 10_000 {
                guard += 1;
                let mut ack = None;
                for step in &steps {
                    if let SendStep::Transmit(BatchMsg::Data {
                        req_id,
                        seq,
                        total,
                        ack_after,
                        payload,
                    }) = step
                    {
                        transmissions += 1;
                        if rng.chance(loss) {
                            continue;
                        }
                        if let Some(a) =
                            rx.on_data(*req_id, *seq, *total, *ack_after, payload.clone())
                        {
                            ack = Some(a);
                        }
                    }
                }
                round_trips += 1;
                // Fixed arms keep their size pinned across adaptation.
                steps = match ack {
                    Some(BatchMsg::Ack { missing, .. }) if !rng.chance(loss) => {
                        let s = tx.on_ack(&missing);
                        if let Some(k) = fixed {
                            tx.set_fixed_batch(k);
                        }
                        s
                    }
                    _ => {
                        let s = tx.on_timeout();
                        if let Some(k) = fixed {
                            tx.set_fixed_batch(k);
                        }
                        s
                    }
                };
            }
            rows.push(AblationRow {
                arm: format!("{arm} loss={loss}"),
                metric: "transmissions".into(),
                value: transmissions as f64,
            });
            rows.push(AblationRow {
                arm: format!("{arm} loss={loss}"),
                metric: "round_trips".into(),
                value: round_trips as f64,
            });
            rows.push(AblationRow {
                arm: format!("{arm} loss={loss}"),
                metric: "completed".into(),
                value: f64::from(rx.is_complete()),
            });
        }
    }
    rows
}

/// A process that fires one reply toward a collector, optionally after
/// a random backoff — the group-response collision ablation.
struct GroupResponder {
    jitter: bool,
}

impl Process for GroupResponder {
    fn name(&self) -> &str {
        "group-responder"
    }
    fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
        let delay = if self.jitter {
            SimDuration::from_nanos(ctx.rng.below(250_000_000))
        } else {
            SimDuration::ZERO
        };
        ctx.set_timer(1, delay);
    }
    fn on_timer(&mut self, ctx: &mut SysCtx<'_>, _token: u32) {
        ctx.send(0, Port(60), Port(60), vec![ctx.node_id as u8; 20], false);
    }
}

/// Counts arrivals at the collector.
struct Collector {
    seen: Rc<RefCell<u32>>,
}

impl Process for Collector {
    fn name(&self) -> &str {
        "collector"
    }
    fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
        ctx.subscribe(Port(60));
    }
    fn on_packet(&mut self, _ctx: &mut SysCtx<'_>, _p: &NetPacket, _m: RxMeta) {
        *self.seen.borrow_mut() += 1;
    }
}

/// Random response backoff vs none when a group of nodes replies at
/// once ("these nodes wait for random backoff delays before sending
/// responses, so that their packets will not collide").
pub fn ablation_response_backoff(seed: u64, responders: usize) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for (arm, jitter) in [("no-backoff", false), ("random-backoff", true)] {
        // Star: collector at the center, responders on a circle.
        let mut positions = vec![lv_radio::Position::new(0.0, 0.0)];
        for i in 0..responders {
            let angle = i as f64 / responders as f64 * std::f64::consts::TAU;
            positions.push(lv_radio::Position::new(
                6.0 * angle.cos(),
                6.0 * angle.sin(),
            ));
        }
        let medium = lv_radio::Medium::new(positions, lv_radio::PropagationConfig::default(), seed);
        let mut net = Network::new(medium, seed ^ jitter as u64);
        let seen = Rc::new(RefCell::new(0));
        net.spawn_process(0, Box::new(Collector { seen: seen.clone() }), vec![])
            .unwrap();
        for i in 1..=responders as u16 {
            net.spawn_process(i, Box::new(GroupResponder { jitter }), vec![])
                .unwrap();
        }
        net.run_for(SimDuration::from_secs(2));
        rows.push(AblationRow {
            arm: arm.into(),
            metric: "delivered".into(),
            value: *seen.borrow() as f64,
        });
        rows.push(AblationRow {
            arm: arm.into(),
            metric: "data_packets".into(),
            value: net.counters.get("tx.data") as f64,
        });
        rows.push(AblationRow {
            arm: arm.into(),
            metric: "mac_failures".into(),
            value: net.counters.sum_prefix("mac.failed") as f64,
        });
    }
    rows
}

/// Estimated embedded RAM layout of one neighbor entry (id, in/out
/// quality, last-heard, compressed position, gradient, flags, name ref).
pub const EMBEDDED_NEIGHBOR_ENTRY_BYTES: usize = 16;

/// Kernel-owned shared neighbor table vs per-protocol private tables
/// (the paper's motivation: "it is not cost-effective to allow each
/// protocol to maintain an independent version of neighbor tables").
pub fn ablation_neighbor_table() -> Vec<AblationRow> {
    let capacity = lv_net::neighbors::NeighborTable::DEFAULT_CAPACITY;
    let protocols = 3.0; // geographic + flooding + tree coexisting
    let shared = (EMBEDDED_NEIGHBOR_ENTRY_BYTES * capacity) as f64;
    vec![
        AblationRow {
            arm: "kernel shared table".into(),
            metric: "ram_bytes".into(),
            value: shared,
        },
        AblationRow {
            arm: "per-protocol tables (x3)".into(),
            metric: "ram_bytes".into(),
            value: shared * protocols,
        },
    ]
}

/// Padding on vs off: a 16-byte probe leaves 48 bytes of padding room;
/// a 64-byte probe leaves none, so no per-hop data is collected and no
/// extra bytes fly. Quantifies the padding mechanism's cost.
pub fn ablation_padding(seed: u64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for (arm, length) in [
        ("16B probe (padding room)", 16u8),
        ("64B probe (no room)", 64),
    ] {
        let topo = Topology::Corridor {
            n: 5,
            spacing: 5.0,
            wall_loss_db: 40.0,
        };
        let mut s = Scenario::build(ScenarioConfig::new(topo, seed));
        s.ws.cd(&s.net, "192.168.0.1").unwrap();
        s.reset_counters();
        let exec =
            s.ws.exec(
                &mut s.net,
                CommandRequest::ping(4, 1, length, Some(Port::GEOGRAPHIC)),
            )
            .unwrap();
        // Forward-path entries only: the probe's padding space is what
        // the arm varies (the reply packet has its own, separate room).
        let entries = match &exec.result {
            CommandResult::Ping(p) => p.rounds.first().map(|r| r.fwd_hops.len()).unwrap_or(0),
            _ => 0,
        };
        rows.push(AblationRow {
            arm: arm.into(),
            metric: "fwd_hop_entries".into(),
            value: entries as f64,
        });
        rows.push(AblationRow {
            arm: arm.into(),
            metric: "bytes_on_air".into(),
            value: s.net.counters.get("tx.bytes") as f64,
        });
    }
    rows
}

/// Beacon exchange frequency vs neighbor-discovery latency — the trade
/// the `update` command lets operators tune in the field. Faster
/// beacons discover (and re-estimate) neighborhoods sooner at a
/// proportional energy/airtime cost.
pub fn ablation_beacon_rate(seed: u64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for period_ms in [500u64, 2_000, 8_000] {
        let topo = Topology::Corridor {
            n: 9,
            spacing: 5.0,
            wall_loss_db: 40.0,
        };
        let medium = topo.medium(lv_radio::PropagationConfig::default(), seed);
        let mut net = Network::new(medium, seed);
        for i in 0..9u16 {
            net.node_mut(i).stack.config_mut().beacon_period = SimDuration::from_millis(period_ms);
        }
        // Sample until every node's estimate of every corridor neighbor
        // has CONVERGED — inbound and outbound both confirmed > 0.9
        // (full estimator windows plus advertisement exchange), not just
        // first contact — or a 5-minute cap. Convergence time is what
        // the beacon rate controls.
        let expected = |i: u16| if i == 0 || i == 8 { 1 } else { 2 };
        let mut converged_at = None;
        for _ in 0..3000 {
            net.run_for(SimDuration::from_millis(100));
            let done = (0..9u16).all(|i| {
                net.node(i)
                    .stack
                    .neighbors
                    .entries()
                    .iter()
                    .filter(|e| e.inbound() > 0.9 && e.outbound.unwrap_or(0.0) > 0.9)
                    .count()
                    >= expected(i)
            });
            if done {
                converged_at = Some(net.now());
                break;
            }
        }
        let arm = format!("beacon period {period_ms} ms");
        rows.push(AblationRow {
            arm: arm.clone(),
            metric: "quality_convergence_ms".into(),
            value: converged_at.map_or(f64::INFINITY, |t| t.as_millis_f64()),
        });
        rows.push(AblationRow {
            arm,
            metric: "beacons_per_node_per_min".into(),
            value: 60_000.0 / period_ms as f64,
        });
    }
    rows
}

/// Radio-active energy (TX + RX joules summed over all nodes) consumed
/// by one invocation of each command — the paper's "communication
/// overhead" efficiency metric expressed in the battery's own units.
/// Also reports the deployment-wide idle-listening energy per minute,
/// which dwarfs every command (the classic WSN energy story).
pub fn ablation_energy(seed: u64) -> Vec<AblationRow> {
    let topo = Topology::eight_hop_corridor;
    let active_sum = |s: &Scenario| -> f64 {
        (0..s.net.node_count() as u16)
            .map(|i| s.net.node(i).energy.active_joules())
            .sum()
    };
    let mut rows = Vec::new();
    let run = |f: &dyn Fn(&mut Scenario)| -> f64 {
        let mut s = Scenario::build(ScenarioConfig::new(topo(), seed));
        s.ws.cd(&s.net, "192.168.0.1").unwrap();
        let before = active_sum(&s);
        f(&mut s);
        active_sum(&s) - before
    };
    let ping_1hop = run(&|s| {
        s.ws.exec(&mut s.net, CommandRequest::ping(1, 1, 32, None))
            .unwrap();
    });
    let ping_8hop = run(&|s| {
        s.ws.exec(
            &mut s.net,
            CommandRequest::ping(8, 1, 16, Some(Port::GEOGRAPHIC)),
        )
        .unwrap();
    });
    let traceroute_8hop = run(&|s| {
        s.ws.exec(
            &mut s.net,
            CommandRequest::traceroute(8, 32, Port::GEOGRAPHIC),
        )
        .unwrap();
    });
    let beacons_per_min = {
        let mut s = Scenario::build(ScenarioConfig::new(topo(), seed));
        let before = active_sum(&s);
        s.net.run_for(SimDuration::from_secs(60));
        active_sum(&s) - before
    };
    // Idle listening for the whole 9-node deployment over one minute.
    let listen_per_min =
        9.0 * lv_radio::energy::RX_CURRENT_A * lv_radio::energy::SUPPLY_VOLTS * 60.0;
    for (arm, joules) in [
        ("ping 1-hop", ping_1hop),
        ("multihop-ping 8-hop", ping_8hop),
        ("traceroute 8-hop", traceroute_8hop),
        ("beaconing (network, 1 min)", beacons_per_min),
        ("idle listening (network, 1 min)", listen_per_min),
    ] {
        rows.push(AblationRow {
            arm: arm.into(),
            metric: "active_joules".into(),
            value: joules,
        });
    }
    rows
}

/// Substrate validation: packet reception ratio, RSSI and LQI vs
/// distance for 40-byte frames at full power — the classic
/// "transitional region" curve (Zuniga & Krishnamachari) the radio
/// model is built from. Not a paper figure; it documents that the
/// simulated links behave like the testbed links the paper measured:
/// a connected region, a disconnected region, and a noisy transitional
/// band between them where asymmetric and intermittent links live.
pub fn characterize_links(seed: u64) -> Vec<LinkCharRow> {
    use lv_radio::{Channel, Medium, Position, PowerLevel, PropagationConfig};
    let trials = 200;
    let mut rows = Vec::new();
    let mut d = 1.0f64;
    while d <= 45.0 {
        // Fresh per-distance medium: each distance gets its own frozen
        // shadowing draws, averaging over many link instances.
        let mut received = 0u32;
        let mut rssi_sum = 0f64;
        let mut lqi_sum = 0f64;
        for link in 0..20u64 {
            let medium = Medium::new(
                vec![Position::new(0.0, 0.0), Position::new(d, 0.0)],
                PropagationConfig::default(),
                seed ^ (link << 8) ^ (d as u64),
            );
            let mut rng = SimRng::stream(seed ^ link, d as u64);
            for _ in 0..trials / 20 {
                if let Some(a) =
                    medium.assess_on(0, 1, PowerLevel::MAX, 40, 0.0, Channel::DEFAULT, &mut rng)
                {
                    if a.delivered {
                        received += 1;
                        rssi_sum += a.rssi as f64;
                        lqi_sum += a.lqi as f64;
                    }
                }
            }
        }
        let prr = received as f64 / trials as f64;
        rows.push(LinkCharRow {
            distance_m: d,
            prr,
            mean_rssi: if received > 0 {
                rssi_sum / received as f64
            } else {
                f64::NAN
            },
            mean_lqi: if received > 0 {
                lqi_sum / received as f64
            } else {
                f64::NAN
            },
        });
        d += 2.0;
    }
    rows
}

// ---------------------------------------------------------------------
// Multi-trial aggregates (run through `runner::TrialRunner`)
// ---------------------------------------------------------------------

use crate::runner::{FailurePlan, TrialRunner};
use crate::stats::AggregateStats;
use lv_sim::Summary;

/// **Fig. 5, aggregate** — per-hop traceroute response delay across
/// `runner.trials()` independent trials (fresh network per trial).
///
/// Hops whose report was lost in a trial contribute no sample for that
/// trial, so a row's `delay_ms.n` can be below `trials`.
pub fn fig5_traceroute_delay_agg(runner: &TrialRunner) -> Vec<Fig5AggRow> {
    let per_trial = runner.run(|t| fig5_traceroute_delay(t.seed));
    let mut per_hop: Vec<Summary> = (0..8).map(|_| Summary::new()).collect();
    for rows in &per_trial {
        for r in rows {
            if (1..=8).contains(&r.hop) {
                per_hop[r.hop as usize - 1].push(r.delay_ms);
            }
        }
    }
    per_hop
        .iter()
        .enumerate()
        .filter(|(_, s)| s.count() > 0)
        .map(|(i, s)| Fig5AggRow {
            hop: i as u8 + 1,
            trials: runner.trials() as u64,
            delay_ms: AggregateStats::from_summary(s),
        })
        .collect()
}

/// **Fig. 6, aggregate** — per-hop RSSI at power levels 10 and 25
/// across trials. A hop contributes to a trial only when both power
/// levels produced a non-lost probe there (same rule as the
/// single-trial driver).
pub fn fig6_rssi_vs_power_agg(runner: &TrialRunner) -> Vec<Fig6AggRow> {
    let per_trial = runner.run(|t| fig6_rssi_vs_power(t.seed));
    let mut per_hop: Vec<[Summary; 4]> = (0..8).map(|_| Default::default()).collect();
    for rows in &per_trial {
        for r in rows {
            if (1..=8).contains(&r.hop) {
                let s = &mut per_hop[r.hop as usize - 1];
                s[0].push(r.fwd_p10 as f64);
                s[1].push(r.bwd_p10 as f64);
                s[2].push(r.fwd_p25 as f64);
                s[3].push(r.bwd_p25 as f64);
            }
        }
    }
    per_hop
        .iter()
        .enumerate()
        .filter(|(_, s)| s[0].count() > 0)
        .map(|(i, s)| Fig6AggRow {
            hop: i as u8 + 1,
            trials: runner.trials() as u64,
            fwd_p10: AggregateStats::from_summary(&s[0]),
            bwd_p10: AggregateStats::from_summary(&s[1]),
            fwd_p25: AggregateStats::from_summary(&s[2]),
            bwd_p25: AggregateStats::from_summary(&s[3]),
        })
        .collect()
}

/// **Fig. 7, aggregate** — traceroute overhead vs path length across
/// trials, each trial one [`fig7_overhead`] sweep.
pub fn fig7_overhead_agg(runner: &TrialRunner) -> Vec<Fig7AggRow> {
    let per_trial = runner.run(|t| fig7_overhead(t.seed));
    (0..8usize)
        .map(|i| {
            let mut control = Summary::new();
            let mut acks = Summary::new();
            for rows in &per_trial {
                control.push(rows[i].control_packets as f64);
                acks.push(rows[i].acks as f64);
            }
            Fig7AggRow {
                hops: i as u8 + 1,
                trials: runner.trials() as u64,
                control_packets: AggregateStats::from_summary(&control),
                acks: AggregateStats::from_summary(&acks),
            }
        })
        .collect()
}

/// **Link characterization, aggregate** — PRR/RSSI/LQI vs distance
/// across trials. Trials where a distance saw no receptions contribute
/// no RSSI/LQI sample there (their per-trial mean is NaN).
pub fn characterize_links_agg(runner: &TrialRunner) -> Vec<LinkCharAggRow> {
    let per_trial = runner.run(|t| characterize_links(t.seed));
    let distances: Vec<f64> = per_trial[0].iter().map(|r| r.distance_m).collect();
    distances
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let mut prr = Summary::new();
            let mut rssi = Summary::new();
            let mut lqi = Summary::new();
            for rows in &per_trial {
                let r = &rows[i];
                prr.push(r.prr);
                if !r.mean_rssi.is_nan() {
                    rssi.push(r.mean_rssi);
                }
                if !r.mean_lqi.is_nan() {
                    lqi.push(r.mean_lqi);
                }
            }
            LinkCharAggRow {
                distance_m: d,
                trials: runner.trials() as u64,
                prr: AggregateStats::from_summary(&prr),
                mean_rssi: AggregateStats::from_summary(&rssi),
                mean_lqi: AggregateStats::from_summary(&lqi),
            }
        })
        .collect()
}

/// **Failure-injection sweep** — diagnosis outcome on the 8-hop
/// corridor when a fraction of trials has a fault injected after
/// warm-up, composing [`FailureMode`](crate::runner::FailureMode)
/// faults with the trial runner.
///
/// For each plan, every trial builds a fresh corridor, faults it if
/// [`FailurePlan::applies_to`] says so, gives routing five simulated
/// seconds to notice, then traceroutes the far end. The row aggregates
/// whether the destination was reached (0/1 per trial), how many hops
/// the trace covered, and when the last hop report arrived.
pub fn failure_sweep(runner: &TrialRunner, plans: &[FailurePlan]) -> Vec<FailureSweepRow> {
    plans
        .iter()
        .map(|plan| {
            let samples = runner.run(|t| {
                let cfg = ScenarioConfig::new(Topology::eight_hop_corridor(), t.seed);
                let mut s = Scenario::build(cfg);
                if plan.applies_to(t.index, t.trials) {
                    plan.mode.apply(&mut s.net);
                    s.net.run_for(SimDuration::from_secs(5));
                }
                s.ws.cd(&s.net, "192.168.0.1").unwrap();
                let exec =
                    s.ws.exec(
                        &mut s.net,
                        CommandRequest::traceroute(8, 32, Port::GEOGRAPHIC),
                    )
                    .unwrap();
                match exec.result {
                    CommandResult::Traceroute(t) => {
                        let covered = t.hops.iter().map(|h| h.record.hop_index).max().unwrap_or(0);
                        let last_ms = t
                            .hops
                            .iter()
                            .map(|h| h.arrival)
                            .max()
                            .unwrap_or(exec.response_delay)
                            .as_millis_f64();
                        (t.reached, covered, last_ms)
                    }
                    // A dead first hop can leave the window empty.
                    _ => (false, 0, exec.response_delay.as_millis_f64()),
                }
            });
            let trials = runner.trials();
            FailureSweepRow {
                mode: plan.mode.label(),
                fraction: plan.fraction,
                trials: trials as u64,
                faulted: plan.affected_count(trials) as u64,
                reached: crate::stats::aggregate(samples.iter().map(|&(r, _, _)| f64::from(r))),
                hops_covered: crate::stats::aggregate(samples.iter().map(|&(_, h, _)| h as f64)),
                last_report_ms: crate::stats::aggregate(samples.iter().map(|&(_, _, ms)| ms)),
            }
        })
        .collect()
}

/// The default failure plans the `figures` harness sweeps: a dead
/// mid-path node, a hard-broken mid-path link, and a heavily
/// attenuated (but not severed) mid-path link, each in half the
/// trials so faulted and healthy aggregates are directly comparable.
pub fn default_failure_plans() -> Vec<FailurePlan> {
    use crate::runner::FailureMode;
    vec![
        FailurePlan::new(FailureMode::KillNode { id: 4 }, 0.5),
        FailurePlan::new(FailureMode::BreakLink { a: 4, b: 5 }, 0.5),
        FailurePlan::new(
            FailureMode::AttenuateLink {
                from: 4,
                to: 5,
                loss_db: 25.0,
            },
            0.5,
        ),
    ]
}

// ----------------------------------------------------------------------
// Determinism digests (the CI regression gate)
// ----------------------------------------------------------------------

/// FNV-1a 64 over `bytes`. `DefaultHasher` is only documented as stable
/// within one process; the golden digests checked into the repo must
/// survive toolchain upgrades, so the gate uses a fixed algorithm.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_BASIS, bytes)
}

/// FNV-1a 64's offset basis: the state before any byte.
const FNV1A64_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the running FNV-1a 64 state `h`.
fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a digest of a network's observable outcome: every global
/// counter `(name, value)` pair plus the dispatched-event count. Two
/// runs with equal digests dispatched the same number of events and
/// moved every counter identically — the bit-identity handle the
/// dynamics replay tests and the CI gate both use.
pub fn counters_digest(net: &Network) -> String {
    let mut h = FNV1A64_BASIS;
    for (name, value) in net.counters.iter() {
        h = fnv1a64_extend(h, name.as_bytes());
        h = fnv1a64_extend(h, &value.to_le_bytes());
    }
    h = fnv1a64_extend(h, &net.events_dispatched().to_le_bytes());
    format!("{h:016x}")
}

/// Golden determinism digests for the headline figures: each digest is
/// FNV-1a over the figure's serialized JSON rows, so any behavioural
/// drift — float order, RNG draw count, counter movement — changes it.
/// `figures --digests` prints these; CI compares them against
/// `goldens/figure_digests.json`.
pub fn figure_digests(seed: u64) -> Vec<DigestRow> {
    let digest_of = |json: String| format!("{:016x}", fnv1a64(json.as_bytes()));
    vec![
        DigestRow {
            figure: "fig5".to_owned(),
            digest: digest_of(to_json_lines(&fig5_traceroute_delay(seed))),
        },
        DigestRow {
            figure: "fig6".to_owned(),
            digest: digest_of(to_json_lines(&fig6_rssi_vs_power(seed))),
        },
        DigestRow {
            figure: "fig7".to_owned(),
            digest: digest_of(to_json_lines(&fig7_overhead(seed))),
        },
    ]
}

// ----------------------------------------------------------------------
// Dynamics soak (`figures --dynamics`)
// ----------------------------------------------------------------------

/// The hop the soak degrades: the corridor link between nodes 4 and 5,
/// which traceroute reports as hop index 5 (probe leg 4 → 5).
const SOAK_RAMP_A: u16 = 4;
const SOAK_RAMP_B: u16 = 5;
const SOAK_HOP: u8 = 5;

/// The degradation-ramp soak: an 8-hop corridor whose mid-path link
/// `4 ↔ 5` loses 5 dB every 10 s (RADIUS-style gradual degradation, 12
/// steps to +60 dB), with degradation blacklisting armed on every node.
/// A workstation at one end traceroutes and pings the far end in a
/// loop. The expected arc — asserted by `figures --dynamics` and the
/// regression test — is:
///
/// 1. **detect**: traceroute's per-hop LQI/RSSI on hop 5 visibly drops
///    while end-to-end ping still succeeds (the paper's §IV story:
///    path profiling localizes the weakening hop *before* failure);
/// 2. **fail**: the ramp finishes severing the link and ping dies,
///    while neighbor eviction / degradation blacklisting fire;
/// 3. **recover**: the plan repairs the link, beacons rebuild the
///    neighbor tables, and ping succeeds again.
pub fn dynamics_soak(seed: u64) -> DynamicsSoakReport {
    use crate::dynamics::DynamicsPlan;

    let cfg = ScenarioConfig::new(Topology::eight_hop_corridor(), seed);
    let mut s = Scenario::build(cfg);
    // The soak doubles as the runtime-auditor's integration run: every
    // dynamics action triggers an invariant sweep (time monotonicity,
    // stale transmissions, resource-ledger balance).
    s.net.set_audit(true);
    for i in 0..s.net.node_count() as u16 {
        s.net.node_mut(i).stack.config_mut().blacklist_below = Some(0.35);
    }
    let t0 = s.net.now();
    let ramp_start = t0 + SimDuration::from_secs(20);
    let repair_at = t0 + SimDuration::from_secs(190);
    let plan = DynamicsPlan::new()
        .link_ramp_symmetric(
            SOAK_RAMP_A,
            SOAK_RAMP_B,
            ramp_start,
            SimDuration::from_secs(10),
            12,
            5.0,
        )
        .link_repair(SOAK_RAMP_A, SOAK_RAMP_B, repair_at);
    plan.schedule(&mut s.net);

    s.ws.cd(&s.net, "192.168.0.1").expect("bridge exists");
    let horizon = t0 + SimDuration::from_secs(260);
    let mut rounds: Vec<DynamicsSoakRow> = Vec::new();
    let mut baseline_rssi: Option<i8> = None;
    let (mut detect, mut fail, mut recover) = (None, None, None);
    while s.net.now() < horizon {
        let t_ms = s.net.now().as_millis_f64();
        let trace_exec = s.ws.exec(
            &mut s.net,
            CommandRequest::traceroute(8, 32, Port::GEOGRAPHIC),
        );
        let (trace_reached, hop) = match trace_exec.map(|e| e.result) {
            Ok(CommandResult::Traceroute(t)) => {
                let hop = t
                    .hops
                    .iter()
                    .find(|h| h.record.hop_index == SOAK_HOP && !h.record.probe_lost)
                    .map(|h| (h.record.lqi_fwd, h.record.rssi_fwd));
                (t.reached, hop)
            }
            _ => (false, None),
        };
        let ping_exec = s.ws.exec(
            &mut s.net,
            CommandRequest::ping(8, 1, 32, Some(Port::GEOGRAPHIC)),
        );
        let ping_ok = matches!(
            ping_exec.map(|e| e.result),
            Ok(CommandResult::Ping(p)) if p.received > 0
        );
        let (hop_lqi, hop_rssi) = hop.unwrap_or((0, 0));
        // First round with a visible hop report sets the RSSI baseline.
        if hop.is_some() && baseline_rssi.is_none() {
            baseline_rssi = Some(hop_rssi);
        }
        let now = s.net.now();
        let degraded_visible = match (hop, baseline_rssi) {
            // The hop reported in, audibly weaker than the baseline.
            (Some((_, rssi)), Some(base)) => i16::from(rssi) <= i16::from(base) - 10,
            // The hop went silent mid-ramp while the path still exists.
            (None, Some(_)) => now >= ramp_start,
            _ => false,
        };
        if detect.is_none() && degraded_visible && ping_ok {
            detect = Some(t_ms);
        }
        if fail.is_none() && !ping_ok && now >= ramp_start {
            fail = Some(t_ms);
        }
        if recover.is_none() && ping_ok && now >= repair_at {
            recover = Some(t_ms);
        }
        // Neighbor-churn counters live in each node's stack (they are
        // mote-side events), so sum them across the deployment.
        let sum_nodes = |name: &str| -> u64 {
            (0..s.net.node_count() as u16)
                .map(|i| s.net.node(i).stack.counters().get(name))
                .sum()
        };
        rounds.push(DynamicsSoakRow {
            t_ms,
            trace_reached,
            hop_seen: hop.is_some(),
            hop_lqi,
            hop_rssi,
            ping_ok,
            evictions: sum_nodes("net.neighbor_expired"),
            blacklists: sum_nodes("net.neighbor_blacklisted"),
        });
        s.net.run_for(SimDuration::from_secs(2));
    }
    // One final sweep so end-of-run imbalances are caught even if the
    // last dynamics action fired long before the horizon.
    let _ = s.net.check_invariants();
    let sum_nodes = |name: &str| -> u64 {
        (0..s.net.node_count() as u16)
            .map(|i| s.net.node(i).stack.counters().get(name))
            .sum()
    };
    DynamicsSoakReport {
        detect_ms: detect.unwrap_or(-1.0),
        ping_fail_ms: fail.unwrap_or(-1.0),
        recover_ms: recover.unwrap_or(-1.0),
        evictions: sum_nodes("net.neighbor_expired"),
        blacklists: sum_nodes("net.neighbor_blacklisted"),
        dyn_trace_events: s.net.counters.sum_prefix("dyn."),
        digest: counters_digest(&s.net),
        audit_violations: s.net.audit_violations().len() as u64,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprints_match_paper() {
        let rows = text_footprints();
        let ping = rows.iter().find(|r| r.component == "ping").unwrap();
        assert_eq!(ping.flash_bytes, 2148);
        assert_eq!(ping.ram_bytes, 278);
        let tr = rows.iter().find(|r| r.component == "traceroute").unwrap();
        assert_eq!(tr.flash_bytes, 2820);
        assert_eq!(tr.ram_bytes, 272);
    }

    #[test]
    fn neighbor_table_ablation_shape() {
        let rows = ablation_neighbor_table();
        assert_eq!(rows.len(), 2);
        assert!(rows[1].value > rows[0].value * 2.5);
    }

    #[test]
    fn batch_ablation_adaptive_beats_fixed_extremes() {
        let rows = ablation_batch_adaptive(7);
        let get = |arm: &str, metric: &str| {
            rows.iter()
                .find(|r| r.arm == arm && r.metric == metric)
                .map(|r| r.value)
                .unwrap()
        };
        // Lossless: adaptive needs far fewer round trips than fixed-1.
        assert!(get("adaptive loss=0", "round_trips") < get("fixed-1 loss=0", "round_trips"));
        // The adaptive arm completes the transfer at every loss level
        // (fixed arms may abort after repeated timeouts — that is the
        // point of the ablation).
        for loss in ["0", "0.15", "0.3"] {
            assert_eq!(
                get(&format!("adaptive loss={loss}"), "completed"),
                1.0,
                "adaptive did not complete at loss {loss}"
            );
            assert!(get(&format!("adaptive loss={loss}"), "transmissions") >= 24.0);
        }
    }

    #[test]
    fn ping_sample_is_paper_shaped() {
        let row = text_ping_sample(11);
        assert!((1.0..12.0).contains(&row.rtt_ms), "rtt = {}", row.rtt_ms);
        assert!(row.lqi_fwd >= 100 && row.lqi_bwd >= 100);
        assert_eq!(row.power, 31);
        assert_eq!(row.channel, 17);
        assert_eq!(row.queue_fwd, 0);
    }

    #[test]
    fn onehop_overhead_is_two_packets() {
        let row = text_onehop_overhead(13);
        assert_eq!(row.data_packets, 2);
    }
}
