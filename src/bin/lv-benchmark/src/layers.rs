//! Per-layer metrics of a traced run.
//!
//! Counts are exact, read from the counters the program keeps
//! (`net.counters`, `node_stats()`, `events_dispatched()`). Unit costs
//! come from layer replays: each calls one public function in a loop,
//! with inputs taken from the workload's own end state. Attribution is
//! count × unit cost ÷ measured time, and what the replays do not
//! explain is reported as the residual.

use crate::host;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    Mix, RunConfig, SetupTimes, Shape, Tally, Verb, World, BRIDGE, BRIDGE_NAME,
};
use liteview_repro::liteview::session::{
    Request, RequestBody, Response, ResponseBody, SessionHost, PROTOCOL_VERSION,
};
use liteview_repro::liteview::transport::Transport;
use liteview_repro::lv_kernel::Network;
use liteview_repro::lv_mac::{CsmaConfig, CsmaMachine, Frame, MacAction};
use liteview_repro::lv_net::packet::{NetHeader, NetPacket, PacketFlags, Port};
use liteview_repro::lv_net::HopQuality;
use liteview_repro::lv_radio::{Channel, Position, PowerLevel};
use liteview_repro::lv_serve::{UdpConfig, UdpTransport};
use liteview_repro::lv_sim::{Counters, EventQueue, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seeded stream label of the replays' own draws.
const REPLAY_STREAM: u64 = 0x4C56_5245_504C_4159; // "LVREPLAY"

/// Most (sender, receiver) pairs a radio replay cycles through.
const MAX_PAIRS: usize = 8192;

/// Counter state at one instant.
pub(crate) struct Snapshot {
    global: Counters,
    nodes: Vec<Counters>,
    events: u64,
}

impl Snapshot {
    pub(crate) fn take(net: &Network) -> Snapshot {
        Snapshot {
            global: net.counters.clone(),
            nodes: net.node_stats().into_iter().map(|s| s.counters).collect(),
            events: net.events_dispatched(),
        }
    }
}

/// Which layers a command crosses on its way from the user.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CommandPath {
    /// `Workstation::exec` in the benchmark's own process.
    InProcess,
    /// Request decode, `SessionHost::apply`, response encode and a UDP
    /// round trip through lv-serve.
    Serve,
}

/// What the measured phase of a traced run did.
pub(crate) struct Phase {
    pub(crate) shape: Shape,
    /// Wall time of the phase's work.
    pub(crate) wall_s: f64,
    /// Part of it spent in `Network::run_for` between commands, and the
    /// events dispatched there (grid workloads only).
    pub(crate) run_for_s: f64,
    pub(crate) run_for_events: u64,
    pub(crate) start: Snapshot,
    pub(crate) end: Snapshot,
    /// Median command latency the phase measured.
    pub(crate) cmd_p50_ms: f64,
    /// Commands issued per verb.
    pub(crate) verbs: BTreeMap<Verb, u64>,
    pub(crate) rss_growth_mb: f64,
    /// Traced ÷ untraced median time of one unit of work.
    pub(crate) trace_overhead: f64,
    pub(crate) path: CommandPath,
}

impl Phase {
    fn global(&self, name: &str) -> u64 {
        self.end
            .global
            .get(name)
            .saturating_sub(self.start.global.get(name))
    }

    fn global_prefix(&self, prefix: &str) -> u64 {
        self.end
            .global
            .sum_prefix(prefix)
            .saturating_sub(self.start.global.sum_prefix(prefix))
    }

    /// Per-node counter movement. MAC counters restart when a node
    /// reboots, so under churn this counts since each node's last boot.
    fn per_node(&self, name: &str) -> Vec<u64> {
        self.end
            .nodes
            .iter()
            .zip(&self.start.nodes)
            .map(|(e, s)| e.get(name).saturating_sub(s.get(name)))
            .collect()
    }

    fn nodes_total(&self, name: &str) -> u64 {
        self.per_node(name).iter().sum()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nanoseconds per call of `f`, over `calls` calls.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// Every per-layer metric of a traced run.
pub(crate) fn per_layer(
    world: &mut World,
    phase: &Phase,
    setups: &[SetupTimes],
    mix: &mut Mix,
    cfg: &RunConfig,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> BTreeMap<String, f64> {
    tracer.set_enabled(true);
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_owned(), v);
    };
    let nodes = world.net.node_count();
    let calls = cfg.scale.micro_calls;
    let mut rng = SimRng::stream(cfg.seed, REPLAY_STREAM);

    // --- sim -----------------------------------------------------------
    let events = phase.end.events.saturating_sub(phase.start.events);
    put("sim.events", events as f64);
    let span = tracer.begin("replay.sim", None);
    let queue_ns = queue_replay(4 * nodes, calls, &mut rng);
    let normal_ns = ns_per_call(calls, |_| {
        black_box(rng.normal(0.0, 1.0));
    });
    tracer.end(span, None);
    put("sim.queue_ns", queue_ns);
    put("sim.normal_ns", normal_ns);

    // --- mac and net counts ---------------------------------------------
    let tx_per_node = phase.per_node("mac.tx_attempt");
    let tx_attempts: u64 = tx_per_node.iter().sum();
    let (busy, clear) = (
        phase.nodes_total("mac.cca_busy"),
        phase.nodes_total("mac.cca_clear"),
    );
    let cca_checks = busy + clear;
    let delivered = phase.global("mac.delivered");
    let mac_failed = phase.global_prefix("mac.failed.");
    put("mac.tx_attempts", tx_attempts as f64);
    put("mac.cca_checks", cca_checks as f64);
    put("mac.cca_busy_ratio", ratio(busy, cca_checks));
    put("mac.retries", phase.nodes_total("mac.retries") as f64);
    put(
        "mac.queue_drops",
        phase.nodes_total("mac.queue_drop") as f64,
    );
    put(
        "mac.delivered_ratio",
        ratio(delivered, delivered + mac_failed),
    );
    let forwards = phase.global("net.forward");
    let originate = phase.global("net.originate");
    put("net.forwards", forwards as f64);
    put("net.beacon_rx", phase.global("rx.beacon") as f64);
    put("net.drops", phase.global_prefix("net.drop.") as f64);
    put(
        "net.delivery_ratio",
        ratio(phase.global("net.deliver"), originate),
    );
    put("kernel.dyn_actions", phase.global_prefix("dyn.") as f64);

    // --- radio ----------------------------------------------------------
    let net = &mut world.net;
    let candidates: Vec<u64> = (0..nodes as u16)
        .map(|i| {
            let power = net.node(i).power;
            net.medium.reachable(i, power).filter(|&j| j != i).count() as u64
        })
        .collect();
    let weighted: u64 = tx_per_node
        .iter()
        .zip(&candidates)
        .map(|(t, c)| t * c)
        .sum();
    let candidates_per_tx = ratio(weighted, tx_attempts);
    let transmissions = phase.global_prefix("tx.") - phase.global("tx.bytes");
    let assess_calls = (transmissions as f64 * candidates_per_tx
        - phase.global("rx.halfduplex_miss") as f64)
        .max(0.0);
    put("radio.candidates_per_tx", candidates_per_tx);
    put("radio.assess_calls", assess_calls.round());
    put(
        "radio.build_s",
        median(&setups.iter().map(|s| s.medium_s).collect::<Vec<_>>()),
    );
    let span = tracer.begin("replay.radio", None);
    let radio = radio_replays(net, calls, &mut rng);
    tracer.end(span, None);
    put("radio.assess_ns", radio.assess_ns);
    put("radio.cca_ns", radio.cca_ns);
    put("radio.mean_rx_mw_ns", radio.mean_rx_mw_ns);
    put("radio.mutate_us", radio.mutate_us);
    let wall_ns = phase.wall_s * 1e9;
    let radio_ns = assess_calls * radio.assess_ns + cca_checks as f64 * radio.cca_ns;
    put("radio.share", radio_ns / wall_ns);

    // --- mac and net codecs ---------------------------------------------
    let span = tracer.begin("replay.mac", None);
    let frame_codec_ns = frame_codec_replay(calls);
    let csma_cycle_ns = csma_replay(calls, &mut rng, tally);
    tracer.end(span, None);
    let span = tracer.begin("replay.net", None);
    let packet_codec_ns = packet_codec_replay(calls);
    tracer.end(span, None);
    put("mac.frame_codec_ns", frame_codec_ns);
    put("mac.csma_cycle_ns", csma_cycle_ns);
    put("net.packet_codec_ns", packet_codec_ns);

    // --- kernel -----------------------------------------------------------
    let idle = match phase.shape {
        Shape::Grid { .. } => SimDuration::from_secs(10),
        Shape::Corridor => SimDuration::from_secs(600),
    };
    let span = tracer.begin("kernel.run_for", Some("idle"));
    let e0 = net.events_dispatched();
    let t0 = Instant::now();
    net.run_for(idle);
    let idle_s = t0.elapsed().as_secs_f64();
    let idle_events = net.events_dispatched() - e0;
    tracer.end(span, Some(idle_events));
    let ns_per_event =
        (phase.run_for_s + idle_s) * 1e9 / (phase.run_for_events + idle_events).max(1) as f64;
    put("kernel.ns_per_event", ns_per_event);
    put(
        "kernel.install_s",
        median(&setups.iter().map(|s| s.install_s).collect::<Vec<_>>()),
    );
    put(
        "kernel.warmup_s",
        median(&setups.iter().map(|s| s.warmup_s).collect::<Vec<_>>()),
    );
    let attributed = events as f64 * queue_ns
        + radio_ns
        + tx_attempts as f64 * (csma_cycle_ns + frame_codec_ns)
        + (forwards + originate) as f64 * packet_codec_ns;
    put("kernel.residual_share", 1.0 - attributed / wall_ns);

    // --- core and session: every verb, in process and through a session
    let span = tracer.begin("replay.commands", None);
    let cmds = command_replays(
        world,
        mix,
        cfg.scale.replay_reps,
        ns_per_event,
        tracer,
        tally,
    );
    tracer.end(span, None);
    for verb in Verb::ALL {
        let v = &cmds[&verb];
        let n = verb.name();
        put(&format!("core.exec_us.{n}"), median(&v.exec_us));
        put(&format!("core.events_per_cmd.{n}"), mean(&v.events));
        put(&format!("session.apply_us.{n}"), median(&v.apply_us));
        put(&format!("session.resp_encode_us.{n}"), median(&v.encode_us));
        put(&format!("session.resp_decode_us.{n}"), median(&v.decode_us));
        put(&format!("session.resp_bytes.{n}"), median(&v.resp_bytes));
    }
    let all = |f: fn(&VerbReplay) -> &Vec<f64>| -> Vec<f64> {
        cmds.values().flat_map(|v| f(v).iter().copied()).collect()
    };
    let req_decode_us = median(&all(|v| &v.req_decode_us));
    put("session.req_decode_us", req_decode_us);
    put("core.exec_overhead_us", mean(&all(|v| &v.overhead_us)));

    // --- serve ------------------------------------------------------------
    let span = tracer.begin("replay.udp_echo", None);
    let rtt_1k = udp_echo_us(1024, 200, tally);
    let rtt_16k = udp_echo_us(16 * 1024, 100, tally);
    tracer.end(span, None);
    put("serve.udp_rtt_us.1k", rtt_1k);
    put("serve.udp_rtt_us.16k", rtt_16k);

    // The median latency the phase measured, minus the median latency
    // its command mix would have if each command cost exactly the
    // replayed time of the layers on its path: what is left is time
    // spent waiting (queues, scheduling) rather than working.
    let modelled_ms = |verb: Verb| -> f64 {
        let v = &cmds[&verb];
        match phase.path {
            CommandPath::InProcess => median(&v.exec_us) / 1e3,
            CommandPath::Serve => {
                let rtt = if median(&v.resp_bytes) <= 1024.0 {
                    rtt_1k
                } else {
                    rtt_16k
                };
                (req_decode_us + median(&v.apply_us) + median(&v.encode_us) + rtt) / 1e3
            }
        }
    };
    let modelled: Vec<f64> = phase
        .verbs
        .iter()
        .flat_map(|(&verb, &count)| std::iter::repeat_n(modelled_ms(verb), count as usize))
        .collect();
    put("path.residual_ms", phase.cmd_p50_ms - median(&modelled));
    put("mem.rss_growth_mb", phase.rss_growth_mb);

    // --- host ---------------------------------------------------------------
    put(
        "host.ref_ns",
        median(&[host::ref_ns(), host::ref_ns(), host::ref_ns()]),
    );
    put("trace.overhead_ratio", phase.trace_overhead);
    m
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `EventQueue` pop + push at a steady depth of `depth` entries.
fn queue_replay(depth: usize, calls: usize, rng: &mut SimRng) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..depth.max(1) {
        q.push(SimTime::from_nanos(rng.below(1_000_000_000)), i as u64);
    }
    let gaps: Vec<SimDuration> = (0..calls)
        .map(|_| SimDuration::from_nanos(1 + rng.below(100_000_000)))
        .collect();
    ns_per_call(calls, |i| {
        if let Some((at, ev)) = q.pop() {
            q.push(at + gaps[i], black_box(ev));
        }
    })
}

struct RadioCosts {
    assess_ns: f64,
    cca_ns: f64,
    mean_rx_mw_ns: f64,
    mutate_us: f64,
}

/// Replay the medium's read path over the end state's candidate links,
/// and its invalidation path on a clone.
fn radio_replays(net: &mut Network, calls: usize, rng: &mut SimRng) -> RadioCosts {
    let nodes = net.node_count() as u16;
    let mut pairs: Vec<(u16, u16, PowerLevel, Channel)> = Vec::new();
    for i in 0..nodes {
        let (power, channel) = (net.node(i).power, net.node(i).channel);
        pairs.extend(
            net.medium
                .reachable(i, power)
                .filter(|&j| j != i)
                .map(|j| (i, j, power, channel)),
        );
    }
    if pairs.len() > MAX_PAIRS {
        let stride = pairs.len().div_ceil(MAX_PAIRS);
        pairs = pairs.into_iter().step_by(stride).collect();
    }
    if pairs.is_empty() {
        return RadioCosts {
            assess_ns: f64::NAN,
            cca_ns: f64::NAN,
            mean_rx_mw_ns: f64::NAN,
            mutate_us: f64::NAN,
        };
    }
    let pick = |i: usize| pairs[i % pairs.len()];
    let medium = &net.medium;
    let assess_ns = ns_per_call(calls, |i| {
        let (a, b, p, ch) = pick(i);
        black_box(medium.assess_on(a, b, p, 50, 0.0, ch, rng));
    });
    let cca_ns = ns_per_call(calls, |i| {
        let (a, b, p, _) = pick(i);
        black_box(medium.cca_senses_fast(a, b, p, rng));
    });
    let mut clone = net.medium.clone();
    let mean_rx_mw_ns = ns_per_call(calls, |i| {
        let (a, b, p, _) = pick(i);
        black_box(clone.mean_rx_mw(a, b, p));
    });
    // Move each sampled node 12 m out (half the grid pitch) and back,
    // then kill and revive it: the invalidation work churn makes the
    // medium do.
    let sample: Vec<u16> = (0..nodes).step_by((nodes as usize / 64).max(1)).collect();
    let cycles = 256usize;
    let mutate_ns = ns_per_call(cycles, |i| {
        let id = sample[i % sample.len()];
        let home = clone.position(id);
        clone.set_position(id, Position::new(home.x + 12.0, home.y));
        clone.set_position(id, home);
        clone.set_dead(id, true);
        clone.set_dead(id, false);
    });
    RadioCosts {
        assess_ns,
        cca_ns,
        mean_rx_mw_ns,
        mutate_us: mutate_ns / 1e3,
    }
}

/// `Frame::encode` + `Frame::decode` of a 40-byte data frame.
fn frame_codec_replay(calls: usize) -> f64 {
    let frame = Frame::data(1, 2, 7, vec![0xA5u8; 40]);
    ns_per_call(calls, |_| {
        let bytes = black_box(&frame).encode();
        black_box(Frame::decode(&bytes));
    })
}

/// One CSMA cycle of a broadcast frame: start → clear CCA → tx done.
fn csma_replay(calls: usize, rng: &mut SimRng, tally: &mut Tally) -> f64 {
    let mut csma = CsmaMachine::new(CsmaConfig::default());
    let frame = Frame::beacon(1, 0, vec![0x3Cu8; 20]);
    let mut broken = false;
    let ns = ns_per_call(calls, |_| {
        let token = match csma.start(frame.clone(), rng).first() {
            Some(MacAction::ScheduleCca { token, .. }) => *token,
            _ => {
                broken = true;
                return;
            }
        };
        black_box(csma.on_cca(token, true, rng));
        black_box(csma.on_tx_done());
    });
    if broken || !csma.is_idle() {
        tally.problem("csma replay: the machine did not cycle start → cca → done".into());
    }
    ns
}

/// `NetPacket::encode` + `decode` of a geographic packet that carries
/// eight hops of link-quality padding.
fn packet_codec_replay(calls: usize) -> f64 {
    let header = NetHeader {
        flags: PacketFlags {
            padding_enabled: true,
        },
        origin: 1,
        dst: 900,
        port: Port::GEOGRAPHIC,
        app_port: Port::PING,
        seq: 7,
        ttl: 32,
    };
    let mut packet = NetPacket::new(header, vec![7u8; 16]);
    for hop in 0..8u8 {
        packet.append_hop_quality(HopQuality {
            lqi: 100 + hop,
            rssi: -(hop as i8),
        });
    }
    ns_per_call(calls, |_| {
        let bytes = black_box(&packet).encode();
        black_box(NetPacket::decode(&bytes));
    })
}

/// Per-verb timings of the command replays.
#[derive(Default)]
struct VerbReplay {
    exec_us: Vec<f64>,
    events: Vec<f64>,
    overhead_us: Vec<f64>,
    req_decode_us: Vec<f64>,
    apply_us: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    resp_bytes: Vec<f64>,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Issue every verb `reps` times on the end-state world: once through
/// `Workstation::exec`, once as a session request through
/// `SessionHost::apply` with its wire encode and decode.
fn command_replays(
    world: &mut World,
    mix: &mut Mix,
    reps: usize,
    ns_per_event: f64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> BTreeMap<Verb, VerbReplay> {
    let mut host = SessionHost::new();
    let (peer, session) = (1, 1);
    let mut seq = 0u32;
    let mut call = |host: &mut SessionHost, world: &mut World, body: RequestBody| {
        seq += 1;
        let req = Request { session, seq, body };
        host.apply(&mut world.net, &mut world.ws, peer, &req)
    };
    let hello = call(
        &mut host,
        world,
        RequestBody::Hello {
            version: PROTOCOL_VERSION,
        },
    );
    let cd = call(
        &mut host,
        world,
        RequestBody::Cd {
            node: BRIDGE_NAME.into(),
        },
    );
    if !matches!(hello.body, ResponseBody::Welcome { .. })
        || !matches!(cd.body, ResponseBody::Cwd { node: BRIDGE, .. })
    {
        tally.problem(format!(
            "session replay could not log in: {:?} / {:?}",
            hello.body, cd.body
        ));
    }
    let mut out: BTreeMap<Verb, VerbReplay> = BTreeMap::new();
    for verb in Verb::ALL {
        let r = out.entry(verb).or_default();
        for _ in 0..reps.max(1) {
            let target = match verb {
                Verb::Ping | Verb::Traceroute => mix.target(),
                _ => BRIDGE,
            };
            let e0 = world.net.events_dispatched();
            let span = tracer.begin("core.exec", Some(verb.name()));
            let t = Instant::now();
            let result = world.ws.exec(&mut world.net, verb.request(target));
            let exec_us = us(t);
            let events = world.net.events_dispatched() - e0;
            tracer.end(span, Some(events));
            tally.exec(verb, &result);
            r.exec_us.push(exec_us);
            r.events.push(events as f64);
            r.overhead_us
                .push(exec_us - events as f64 * ns_per_event / 1e3);

            seq += 1;
            let bytes = Request {
                session,
                seq,
                body: RequestBody::Exec {
                    command: verb.shell(target),
                },
            }
            .encode();
            let t = Instant::now();
            let req = Request::decode(&bytes);
            r.req_decode_us.push(us(t));
            let Ok(req) = req else {
                tally.fail(format!("{}: request did not decode", verb.name()));
                continue;
            };
            let span = tracer.begin("session.apply", Some(verb.name()));
            let t = Instant::now();
            let resp = host.apply(&mut world.net, &mut world.ws, peer, &req);
            r.apply_us.push(us(t));
            tracer.end(span, None);
            let t = Instant::now();
            let wire = resp.encode();
            r.encode_us.push(us(t));
            r.resp_bytes.push(wire.len() as f64);
            let t = Instant::now();
            let back = Response::decode(&wire);
            r.decode_us.push(us(t));
            tally.attempted += 1;
            match back {
                Ok(back) if back == resp && back.seq == seq => match &back.body {
                    ResponseBody::Done { execution, lines } if !lines.is_empty() => {
                        if let Err(msg) = verb.check(&execution.result) {
                            tally.fail(msg);
                        }
                    }
                    other => tally.fail(format!("{}: session replay got {other:?}", verb.name())),
                },
                _ => tally.fail(format!("{}: response did not round-trip", verb.name())),
            }
        }
    }
    world.ws.clear_history();
    world.ws.clear_transcript();
    out
}

/// Median round trip of an echoed `size`-byte frame between two
/// `UdpTransport`s on loopback, in microseconds; no server involved.
fn udp_echo_us(size: usize, rounds: usize, tally: &mut Tally) -> f64 {
    let wait = Some(Duration::from_secs(2));
    let run = || -> Result<Vec<f64>, String> {
        let mut server =
            UdpTransport::bind("127.0.0.1:0", UdpConfig::default()).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let mut client =
            UdpTransport::connect(addr, UdpConfig::default()).map_err(|e| e.to_string())?;
        let payload = vec![0x5Au8; size];
        let mut rtt = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t = Instant::now();
            client.send(0, &payload).map_err(|e| e.to_string())?;
            let (peer, frame) = server
                .recv(wait)
                .map_err(|e| e.to_string())?
                .ok_or("echo request lost")?;
            server.send(peer, &frame).map_err(|e| e.to_string())?;
            let (_, back) = client
                .recv(wait)
                .map_err(|e| e.to_string())?
                .ok_or("echo reply lost")?;
            if back.len() != size {
                return Err(format!("echo returned {} of {size} bytes", back.len()));
            }
            rtt.push(us(t));
        }
        Ok(rtt)
    };
    match run() {
        Ok(rtt) => median(&rtt),
        Err(e) => {
            tally.fail(format!("udp echo of {size} bytes: {e}"));
            f64::NAN
        }
    }
}
