//! `serve-loopback`: lv-serve hosting the corridor on 127.0.0.1.
//!
//! The server runs `Server::run_until` on a thread of its own (the
//! hosted world is not `Send`, so it is built there). Its rate limit is
//! far above the offered load: this measures serving, not policy.
//!
//! * **Phase A** (60 % of the budget) is an open loop: one generator
//!   thread sends the corridor command mix at a fixed rate over one
//!   socket carrying four sessions. The rate (500 req/s) keeps the
//!   server well below saturation, and keeps the burst of responses a
//!   host stall leaves behind well inside the client socket's kernel
//!   receive buffer: a datagram dropped there is a lost answer. Each request is timed from when it
//!   was due to when its response frame came out of `recv`, so a stall
//!   also charges the requests queued behind it. Responses are decoded
//!   and checked after the phase, which keeps `Response::decode` off the
//!   generator.
//! * **Phase B** (40 %) is a closed loop: two threads, each a
//!   `lv_serve::Client` doing hello / cd / exec as fast as answers come,
//!   so the client's own decode is part of every call.

use crate::host;
use crate::layers::{self, CommandPath, Phase, Snapshot};
use crate::stats::{fast_rate, fast_time, median, quantile};
use crate::trace::Tracer;
use crate::workloads::{
    build_world, Mix, Outcome, RunConfig, SetupTimes, Shape, Tally, Verb, World, BRIDGE_NAME,
    WINDOW,
};
use liteview_repro::liteview::session::{
    Request, RequestBody, Response, ResponseBody, SessionHost, PROTOCOL_VERSION,
};
use liteview_repro::liteview::transport::Transport;
use liteview_repro::lv_serve::{
    Client, Server, ServerConfig, ServerStats, UdpConfig, UdpTransport,
};
use liteview_repro::lv_testbed::experiments::counters_digest;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Sessions multiplexed on the phase-A socket.
const SESSIONS: u32 = 4;

/// Closed-loop client threads of phase B (the box has two CPUs).
const CLIENTS: u32 = 2;

/// A request without its `Done` after this long has failed.
const DEADLINE: Duration = Duration::from_secs(2);

/// Requests of the phase-A stream replayed in process for the session
/// layer's counts in a traced run.
const STREAM_REPLAY: usize = 600;

fn server_config() -> ServerConfig {
    ServerConfig {
        rate_limit: 1e9,
        burst: 1e9,
        idle_timeout: Duration::from_secs(600),
        max_sessions: 64,
    }
}

/// What the server thread reports once it is listening.
struct Ready {
    addr: SocketAddr,
    setups: Vec<SetupTimes>,
    /// World build plus `Server::new`, per set-up.
    setup_s: Vec<f64>,
    digests: Vec<String>,
}

/// Build the hosted world `count` times (each with its socket and
/// server), announce the last one and serve until `stop`.
fn server_thread(
    cfg: &RunConfig,
    stop: &AtomicBool,
    ready: mpsc::Sender<Result<Ready, String>>,
) -> Result<(ServerStats, u64), String> {
    let mut setups = Vec::new();
    let mut setup_times = Vec::new();
    let mut digests = Vec::new();
    let mut server = None;
    for _ in 0..cfg.scale.setups.max(1) {
        drop(server.take());
        // Binding is the operating system's work (a socket and its
        // receive thread) and its time swings with the host; set-up
        // counts the program's own: the world and the server around it.
        let transport = UdpTransport::bind("127.0.0.1:0", UdpConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let t = Instant::now();
        let (world, times) = build_world(Shape::Corridor, cfg.seed);
        let digest = counters_digest(&world.net);
        let s = Server::new(world.net, world.ws, transport, server_config());
        setup_times.push(t.elapsed().as_secs_f64());
        setups.push(times);
        digests.push(digest);
        server = Some(s);
    }
    let mut server = server.ok_or("no server was built")?;
    let addr = server
        .transport()
        .local_addr()
        .map_err(|e| format!("addr: {e}"))?;
    let _ = ready.send(Ok(Ready {
        addr,
        setups,
        setup_s: setup_times,
        digests,
    }));
    let stats = server.run_until(|| stop.load(Ordering::Relaxed));
    Ok((stats, server.transport().rx_dropped()))
}

/// One request of the phase-A stream.
struct Planned {
    session: u32,
    seq: u32,
    verb: Verb,
    wire: Vec<u8>,
}

/// The phase-A request stream: the corridor mix, round-robin over the
/// sessions, each session's seq counting up from 3 (1 and 2 log in).
fn plan_stream(seed: u64, count: usize) -> Vec<Planned> {
    let mut mix = Mix::new(seed, 1, Shape::Corridor, 9);
    let mut next_seq = [3u32; SESSIONS as usize];
    (0..count)
        .map(|i| {
            let s = i % SESSIONS as usize;
            let (verb, target) = mix.next_command();
            let seq = next_seq[s];
            next_seq[s] += 1;
            let req = Request {
                session: s as u32 + 1,
                seq,
                body: RequestBody::Exec {
                    command: verb.shell(target),
                },
            };
            Planned {
                session: req.session,
                seq,
                verb,
                wire: req.encode(),
            }
        })
        .collect()
}

/// Send `req` and wait for its response on a raw transport.
fn call_raw(t: &mut UdpTransport, req: &Request) -> Result<Response, String> {
    t.send(0, &req.encode()).map_err(|e| format!("send: {e}"))?;
    let until = Instant::now() + DEADLINE;
    loop {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(format!(
                "no answer to session {} seq {}",
                req.session, req.seq
            ));
        }
        if let Some((_, frame)) = t.recv(Some(left)).map_err(|e| format!("recv: {e}"))? {
            let resp = Response::decode(&frame).map_err(|e| format!("decode: {e}"))?;
            if resp.session == req.session && resp.seq == req.seq {
                return Ok(resp);
            }
        }
    }
}

/// Receive frames until `until`, stamping each with its arrival time.
fn drain(
    t: &mut UdpTransport,
    until: Instant,
    arrivals: &mut Vec<(Instant, Vec<u8>)>,
) -> Result<(), String> {
    loop {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(());
        }
        match t.recv(Some(left)) {
            Ok(Some((_, frame))) => arrivals.push((Instant::now(), frame)),
            Ok(None) => return Ok(()),
            Err(e) => return Err(format!("recv: {e}")),
        }
    }
}

/// Phase A's measurements.
struct OpenLoop {
    latency_ms: Vec<f64>,
    /// Median ping latency of each window of `WINDOW_REQUESTS` requests.
    window_ping_ms: Vec<f64>,
    /// How late the generator sent each request.
    late_ms: Vec<f64>,
    verbs: BTreeMap<Verb, u64>,
}

fn phase_a(
    addr: SocketAddr,
    cfg: &RunConfig,
    secs: f64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<OpenLoop, String> {
    let mut t = UdpTransport::connect(addr, UdpConfig::default()).map_err(|e| e.to_string())?;
    for s in 1..=SESSIONS {
        let hello = call_raw(
            &mut t,
            &Request {
                session: s,
                seq: 1,
                body: RequestBody::Hello {
                    version: PROTOCOL_VERSION,
                },
            },
        )?;
        let cd = call_raw(
            &mut t,
            &Request {
                session: s,
                seq: 2,
                body: RequestBody::Cd {
                    node: BRIDGE_NAME.into(),
                },
            },
        )?;
        if !matches!(hello.body, ResponseBody::Welcome { .. })
            || !matches!(cd.body, ResponseBody::Cwd { .. })
        {
            return Err(format!("session {s} could not log in"));
        }
    }
    let rate = cfg.scale.serve_rate;
    let plan = plan_stream(cfg.seed, (rate * secs).round().max(1.0) as usize);
    let gap = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(20);
    let mut arrivals = Vec::with_capacity(plan.len());
    let mut late_ms = Vec::with_capacity(plan.len());
    let mut due = Vec::with_capacity(plan.len());
    for (i, p) in plan.iter().enumerate() {
        let at = start + gap * i as u32;
        drain(&mut t, at, &mut arrivals)?;
        late_ms.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
        t.send(0, &p.wire).map_err(|e| format!("send: {e}"))?;
        due.push(at);
        tally.attempted += 1;
    }
    let last = start + gap * plan.len() as u32;
    while arrivals.len() < plan.len() && Instant::now() < last + DEADLINE {
        drain(
            &mut t,
            Instant::now() + Duration::from_millis(50),
            &mut arrivals,
        )?;
    }
    drop(t);

    let index: BTreeMap<(u32, u32), usize> = plan
        .iter()
        .enumerate()
        .map(|(i, p)| ((p.session, p.seq), i))
        .collect();
    let mut latency: Vec<Option<f64>> = vec![None; plan.len()];
    for (at, frame) in &arrivals {
        let resp = match Response::decode(frame) {
            Ok(r) => r,
            Err(e) => {
                tally.fail(format!("phase A: undecodable response: {e}"));
                continue;
            }
        };
        let Some(&i) = index.get(&(resp.session, resp.seq)) else {
            tally.fail(format!(
                "phase A: response to unknown session {} seq {}",
                resp.session, resp.seq
            ));
            continue;
        };
        if latency[i].is_some() {
            tally.fail(format!(
                "phase A: session {} seq {} answered twice",
                resp.session, resp.seq
            ));
            continue;
        }
        let ms = at.saturating_duration_since(due[i]).as_secs_f64() * 1e3;
        latency[i] = Some(ms);
        if ms > DEADLINE.as_secs_f64() * 1e3 {
            tally.fail(format!(
                "phase A: session {} seq {} answered after {ms:.0} ms",
                resp.session, resp.seq
            ));
        }
        match &resp.body {
            ResponseBody::Done { execution, lines } if !lines.is_empty() => {
                if let Err(msg) = plan[i].verb.check(&execution.result) {
                    tally.fail(msg);
                }
            }
            other => tally.fail(format!(
                "phase A: session {} seq {} got {other:?}",
                resp.session, resp.seq
            )),
        }
    }
    let mut out = OpenLoop {
        latency_ms: Vec::with_capacity(plan.len()),
        window_ping_ms: Vec::new(),
        late_ms,
        verbs: BTreeMap::new(),
    };
    // A phase shorter than one window (smoke scale) is one window.
    let window = WINDOW_REQUESTS.min(plan.len()).max(1);
    let mut window_pings = Vec::new();
    for (i, p) in plan.iter().enumerate() {
        *out.verbs.entry(p.verb).or_default() += 1;
        match latency[i] {
            Some(ms) => {
                let done = due[i] + Duration::from_secs_f64(ms / 1e3);
                tracer.record("serve.request", Some(p.verb.name()), due[i], done);
                out.latency_ms.push(ms);
                if p.verb == Verb::Ping {
                    window_pings.push(ms);
                }
            }
            None => tally.fail(format!(
                "phase A: session {} seq {} got no Done within {DEADLINE:?}",
                p.session, p.seq
            )),
        }
        if (i + 1) % window == 0 {
            out.window_ping_ms.push(median(&window_pings));
            window_pings.clear();
        }
    }
    Ok(out)
}

/// Phase B's measurements.
struct ClosedLoop {
    completed: u64,
    /// Call latencies with spans on and off (traced runs alternate).
    on_ms: Vec<f64>,
    off_ms: Vec<f64>,
    /// Commands per second and simulated seconds per second over each
    /// window of `WINDOW_REQUESTS` consecutive completions.
    window_rate: Vec<f64>,
    window_sim_x: Vec<f64>,
}

/// Measurement window of both phases, in requests: whole decks of the
/// mix.
const WINDOW_REQUESTS: usize = WINDOW / 2;

fn phase_b(
    addr: SocketAddr,
    cfg: &RunConfig,
    secs: f64,
    origin: Instant,
    tally: &mut Tally,
) -> (ClosedLoop, Vec<Tracer>) {
    let started = Instant::now();
    let until = started + Duration::from_secs_f64(secs);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(origin, 10 + c, cfg.traced);
                    let r = client_loop(addr, cfg, c, until, &mut tracer);
                    (r, tracer)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut out = ClosedLoop {
        completed: 0,
        on_ms: Vec::new(),
        off_ms: Vec::new(),
        window_rate: Vec::new(),
        window_sim_x: Vec::new(),
    };
    let mut done: Vec<(Instant, f64)> = Vec::new();
    let mut tracers = Vec::new();
    for r in results {
        let Ok((r, tracer)) = r else {
            tally.fail("phase B: client thread panicked".into());
            continue;
        };
        tracers.push(tracer);
        tally.attempted += r.attempted;
        for msg in r.failures {
            tally.fail(msg);
        }
        out.completed += r.completed;
        out.on_ms.extend(r.on_ms);
        out.off_ms.extend(r.off_ms);
        done.extend(r.done);
    }
    done.sort_by_key(|&(at, _)| at);
    let mut from = started;
    for w in done.chunks_exact(WINDOW_REQUESTS.min(done.len()).max(1)) {
        let Some(&(to, _)) = w.last() else { continue };
        let secs = to.saturating_duration_since(from).as_secs_f64();
        out.window_rate.push(w.len() as f64 / secs);
        out.window_sim_x
            .push(w.iter().map(|&(_, s)| s).sum::<f64>() / secs);
        from = to;
    }
    (out, tracers)
}

struct ClientRun {
    attempted: u64,
    completed: u64,
    failures: Vec<String>,
    on_ms: Vec<f64>,
    off_ms: Vec<f64>,
    /// When each command completed, and the simulated seconds it ran.
    done: Vec<(Instant, f64)>,
}

/// One closed-loop session: log in, then issue the corridor mix until
/// `until`, each call waiting for (and decoding) its answer.
fn client_loop(
    addr: SocketAddr,
    cfg: &RunConfig,
    c: u32,
    until: Instant,
    tracer: &mut Tracer,
) -> ClientRun {
    let mut run = ClientRun {
        attempted: 0,
        completed: 0,
        failures: Vec::new(),
        on_ms: Vec::new(),
        off_ms: Vec::new(),
        done: Vec::new(),
    };
    let transport = match UdpTransport::connect(addr, UdpConfig::default()) {
        Ok(t) => t,
        Err(e) => {
            run.failures
                .push(format!("phase B client {c}: connect: {e}"));
            return run;
        }
    };
    let mut client = Client::new(transport, 0, 101 + c);
    // One attempt: a lost answer is a failure, never a retransmit.
    client.timeout = DEADLINE;
    client.retries = 0;
    if let Err(e) = client.hello().and_then(|_| client.cd(BRIDGE_NAME)) {
        run.failures.push(format!("phase B client {c}: login: {e}"));
        return run;
    }
    let mut mix = Mix::new(cfg.seed, 2 + u64::from(c), Shape::Corridor, 9);
    let mut i = 0u64;
    while Instant::now() < until {
        let (verb, target) = mix.next_command();
        if cfg.traced {
            tracer.set_enabled(i % 2 == 1);
        }
        i += 1;
        run.attempted += 1;
        let t = Instant::now();
        let span = tracer.begin("client.exec", Some(verb.name()));
        let result = client.exec(verb.shell(target));
        tracer.end(span, None);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if tracer.enabled() {
            run.on_ms.push(ms);
        } else {
            run.off_ms.push(ms);
        }
        match result {
            Ok((execution, lines)) if !lines.is_empty() => {
                if let Err(msg) = verb.check(&execution.result) {
                    run.failures.push(msg);
                    continue;
                }
                run.completed += 1;
                let cmd = &execution.command;
                let sim = if cmd.completes_early() {
                    execution.response_delay
                } else {
                    cmd.window() + cmd.grace()
                };
                run.done.push((Instant::now(), sim.as_secs_f64()));
            }
            Ok(_) => run
                .failures
                .push(format!("phase B client {c}: empty transcript")),
            Err(e) => run.failures.push(format!("phase B client {c}: {e}")),
        }
    }
    if let Err(e) = client.bye() {
        run.failures.push(format!("phase B client {c}: bye: {e}"));
    }
    run
}

/// Everything the two phases measured.
struct Served {
    ready: Ready,
    a: OpenLoop,
    b: ClosedLoop,
    stats: ServerStats,
    rx_dropped: u64,
    peak_rss_mb: f64,
    rss_growth_mb: f64,
}

/// Start the server, run both phases against it, and stop it.
fn serve_phases(cfg: &RunConfig, tracer: &mut Tracer, tally: &mut Tally) -> Result<Served, String> {
    let stop = AtomicBool::new(false);
    let (ready_tx, ready_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| server_thread(cfg, &stop, ready_tx));
        let finish =
            |server: std::thread::ScopedJoinHandle<'_, _>| -> Result<(ServerStats, u64), String> {
                stop.store(true, Ordering::Relaxed);
                match server.join() {
                    Ok(r) => r,
                    Err(_) => Err("server thread panicked".to_owned()),
                }
            };
        let ready = match ready_rx.recv_timeout(Duration::from_secs(120)) {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => {
                let _ = finish(server);
                return Err(format!("server start: {e}"));
            }
            Err(_) => {
                return Err(finish(server)
                    .err()
                    .unwrap_or("server never came up".into()))
            }
        };
        if ready.digests.iter().any(|d| *d != ready.digests[0]) {
            tally.problem(format!("set-up is not deterministic: {:?}", ready.digests));
        }
        let a = match phase_a(ready.addr, cfg, cfg.seconds * 0.6, tracer, tally) {
            Ok(a) => a,
            Err(e) => {
                let _ = finish(server);
                return Err(format!("phase A: {e}"));
            }
        };
        let peak_rss_mb = host::peak_rss_mb();
        let rss_before = host::rss_mb();
        let (b, client_tracers) =
            phase_b(ready.addr, cfg, cfg.seconds * 0.4, tracer.origin(), tally);
        let rss_growth_mb = host::rss_mb() - rss_before;
        for t in client_tracers {
            tracer.absorb(t);
        }
        let (stats, rx_dropped) = finish(server)?;
        Ok(Served {
            ready,
            a,
            b,
            stats,
            rx_dropped,
            peak_rss_mb,
            rss_growth_mb,
        })
    })
}

/// Replay the first requests of the phase-A stream through an
/// in-process `SessionHost` on a fresh copy of the hosted world: the
/// counts a traced run attributes to the session path.
fn stream_replay(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (World, f64, Snapshot, Snapshot) {
    let (mut world, _) = build_world(Shape::Corridor, cfg.seed);
    let mut host = SessionHost::new();
    let peer = 1;
    for s in 1..=SESSIONS {
        let hello = Request {
            session: s,
            seq: 1,
            body: RequestBody::Hello {
                version: PROTOCOL_VERSION,
            },
        };
        let cd = Request {
            session: s,
            seq: 2,
            body: RequestBody::Cd {
                node: BRIDGE_NAME.into(),
            },
        };
        host.apply(&mut world.net, &mut world.ws, peer, &hello);
        host.apply(&mut world.net, &mut world.ws, peer, &cd);
    }
    let start = Snapshot::take(&world.net);
    let span = tracer.begin("replay.session_stream", None);
    let t = Instant::now();
    for p in plan_stream(cfg.seed, STREAM_REPLAY) {
        tally.attempted += 1;
        match Request::decode(&p.wire) {
            Ok(req) => {
                let resp = host.apply(&mut world.net, &mut world.ws, peer, &req);
                if !matches!(resp.body, ResponseBody::Done { .. }) {
                    tally.fail(format!("stream replay: seq {} got {:?}", p.seq, resp.body));
                }
                black_box(resp.encode());
            }
            Err(e) => tally.fail(format!("stream replay: {e}")),
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    tracer.end(span, None);
    let end = Snapshot::take(&world.net);
    (world, wall_s, start, end)
}

pub(crate) fn run(cfg: &RunConfig) -> Outcome {
    let mut tracer = Tracer::new(Instant::now(), 1, cfg.traced);
    let mut tally = Tally::default();
    let mut notes = BTreeMap::new();
    let served = match serve_phases(cfg, &mut tracer, &mut tally) {
        Ok(s) => s,
        Err(e) => {
            tally.fail(e);
            return Outcome {
                attempted: tally.attempted.max(1),
                failed: tally.failed,
                problems: tally.problems,
                digest: None,
                metrics: BTreeMap::new(),
                notes,
                tracer,
            };
        }
    };
    let Served {
        ready,
        a,
        b,
        stats,
        rx_dropped,
        peak_rss_mb,
        rss_growth_mb,
    } = served;

    // No loss, no re-execution, no refusals.
    let sent: u64 = a.verbs.values().sum();
    if stats.executions != sent + b.completed {
        tally.problem(format!(
            "server executed {} commands for {} requests",
            stats.executions,
            sent + b.completed
        ));
    }
    for (what, n) in [
        ("rx_dropped", rx_dropped),
        ("duplicates", stats.duplicates),
        ("rate_limited", stats.rate_limited),
        ("malformed", stats.malformed),
    ] {
        notes.insert(format!("serve.{what}"), n as f64);
        if n != 0 {
            tally.problem(format!("server {what} = {n}"));
        }
    }
    notes.insert("serve.gen_late_p99_ms".into(), quantile(&a.late_ms, 0.99));
    notes.insert("phase_a.requests".into(), sent as f64);
    notes.insert("phase_b.commands".into(), b.completed as f64);
    notes.insert("cmd_p50_ms".into(), median(&a.latency_ms));
    notes.insert("cmd_p99_ms".into(), quantile(&a.latency_ms, 0.99));

    let cmd_p50_ms = median(&a.latency_ms);
    let mut metrics = BTreeMap::new();
    if cfg.traced {
        let (mut world, wall_s, start, end) = stream_replay(cfg, &mut tracer, &mut tally);
        let phase = Phase {
            shape: Shape::Corridor,
            wall_s,
            run_for_s: 0.0,
            run_for_events: 0,
            start,
            end,
            cmd_p50_ms,
            verbs: a.verbs.clone(),
            rss_growth_mb,
            trace_overhead: median(&b.on_ms) / median(&b.off_ms),
            path: CommandPath::Serve,
        };
        let mut mix = Mix::new(cfg.seed, 1, Shape::Corridor, 9);
        metrics = layers::per_layer(
            &mut world,
            &phase,
            &ready.setups,
            &mut mix,
            cfg,
            &mut tracer,
            &mut tally,
        );
    } else {
        metrics.insert("setup_s".into(), median(&ready.setup_s));
        metrics.insert("sim_x_realtime".into(), fast_rate(&b.window_sim_x));
        metrics.insert("cmds_per_s".into(), fast_rate(&b.window_rate));
        metrics.insert("ping_ms".into(), fast_time(&a.window_ping_ms));
        metrics.insert("peak_rss_mb".into(), peak_rss_mb);
    }
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        digest: None,
        metrics,
        notes,
        tracer,
    }
}
