//! The four workloads: world construction, command mixes, the measured
//! loops and their correctness checks.
//!
//! Every workload is built from `--seed` alone; the program only sees
//! the generated worlds and commands. A sample sets its world up several
//! times (the median is `setup_s`), then measures in fixed blocks of
//! work until `--seconds` have passed. The first block always completes,
//! so the world's counter digest after it is a pure function of the
//! seed and can be pinned.

use crate::host;
use crate::layers::{self, Phase, Snapshot};
use crate::registry;
use crate::serve;
use crate::stats::{fast_rate, fast_time, median, quantile};
use crate::trace::Tracer;
use liteview_repro::liteview::shell::ShellCommand;
use liteview_repro::liteview::{
    install_suite, Command, CommandRequest, CommandResult, ExecError, Execution, Workstation,
};
use liteview_repro::lv_kernel::{default_name, Network};
use liteview_repro::lv_net::packet::Port;
use liteview_repro::lv_net::routing::Geographic;
use liteview_repro::lv_radio::{Channel, Position, PropagationConfig};
use liteview_repro::lv_sim::{SimDuration, SimRng};
use liteview_repro::lv_testbed::experiments::counters_digest;
use liteview_repro::lv_testbed::{DynamicsPlan, Topology};
use std::collections::BTreeMap;
use std::time::Instant;

/// The workstation's bridge mote and its shell name.
pub(crate) const BRIDGE: u16 = 0;
pub(crate) const BRIDGE_NAME: &str = "192.168.0.1";

/// Grid pitch of the `scale_point` world. Links at this pitch are weak:
/// the corner bridge hears about one neighbour, and its probes across
/// the grid rarely come back, which is a valid result.
const GRID_PITCH: f64 = 24.0;

/// Simulated time between two commands on the grid workloads.
const CHUNK: SimDuration = SimDuration::from_secs(5);

/// Label of the seeded stream that draws a workload's commands.
const MIX_STREAM: u64 = 0x4C56_4D49_5800_0001; // "LVMIX"

/// Most problem descriptions kept per run.
const MAX_PROBLEMS: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    GridSteady,
    GridChurn,
    Corridor,
    Serve,
}

impl Workload {
    pub(crate) const ALL: [Workload; 4] = [
        Workload::GridSteady,
        Workload::GridChurn,
        Workload::Corridor,
        Workload::Serve,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::GridSteady => "grid1000-steady",
            Workload::GridChurn => "grid1000-churn",
            Workload::Corridor => "corridor-commands",
            Workload::Serve => "serve-loopback",
        }
    }

    pub(crate) fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one run does. `FULL` is what the benchmark measures;
/// `SMOKE` runs every code path in well under a second of release time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scale {
    /// Key of this scale in `pins.json`.
    pub(crate) name: &'static str,
    pub(crate) grid_rows: usize,
    pub(crate) grid_cols: usize,
    /// Commands (one per 5 simulated seconds) per grid block.
    pub(crate) grid_block: usize,
    /// Commands per corridor block.
    pub(crate) corridor_block: usize,
    /// Open-loop request rate of serve phase A, requests per second.
    pub(crate) serve_rate: f64,
    /// World set-ups per run; `setup_s` is their median.
    pub(crate) setups: usize,
    /// Repetitions per verb in the per-layer command replays.
    pub(crate) replay_reps: usize,
    /// Calls per per-layer micro-replay (queue, RNG, radio, codecs).
    pub(crate) micro_calls: usize,
}

impl Scale {
    pub(crate) const FULL: Scale = Scale {
        name: "full",
        grid_rows: 25,
        grid_cols: 40,
        grid_block: 24,
        corridor_block: 1000,
        serve_rate: 500.0,
        setups: 9,
        replay_reps: 4,
        micro_calls: 200_000,
    };

    #[cfg(test)]
    pub(crate) const SMOKE: Scale = Scale {
        name: "smoke",
        grid_rows: 10,
        grid_cols: 10,
        grid_block: 2,
        corridor_block: 200,
        serve_rate: 50.0,
        setups: 2,
        replay_reps: 2,
        micro_calls: 2_000,
    };
}

/// One run of one workload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunConfig {
    pub(crate) workload: Workload,
    pub(crate) seed: u64,
    /// Wall-clock budget of the measured phase.
    pub(crate) seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub(crate) traced: bool,
    pub(crate) scale: Scale,
}

/// What one run measured and checked.
pub(crate) struct Outcome {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) problems: Vec<String>,
    /// Counter digest of the world after the first block, where the
    /// workload has one.
    pub(crate) digest: Option<String>,
    /// Registry metrics: end-to-end, or per-layer when traced.
    pub(crate) metrics: BTreeMap<String, f64>,
    /// Diagnostics outside the registry (printed, never gated).
    pub(crate) notes: BTreeMap<String, f64>,
    pub(crate) tracer: Tracer,
}

impl Outcome {
    pub(crate) fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Operation and check tally of a run.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) problems: Vec<String>,
}

impl Tally {
    /// Record a failed check.
    pub(crate) fn problem(&mut self, msg: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(msg);
        }
    }

    /// Record one attempted operation that failed.
    pub(crate) fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.problem(msg);
    }

    /// Count one `exec` and check its result.
    pub(crate) fn exec(&mut self, verb: Verb, result: &Result<Execution, ExecError>) {
        self.attempted += 1;
        match result {
            Ok(e) => {
                if let Err(msg) = verb.check(&e.result) {
                    self.fail(msg);
                }
            }
            Err(e) => self.fail(format!("{}: exec returned Err: {e}", verb.name())),
        }
    }
}

// ---------------------------------------------------------------------
// Worlds
// ---------------------------------------------------------------------

/// The deployment a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// `rows × cols` grid at 24 m pitch, 500 ms beacons, 2 s warm-up.
    Grid { rows: usize, cols: usize },
    /// The paper's eight-hop corridor with `Scenario::build`'s defaults
    /// (25 s warm-up).
    Corridor,
}

/// A built deployment with its workstation logged into the bridge.
pub(crate) struct World {
    pub(crate) net: Network,
    pub(crate) ws: Workstation,
}

/// Wall time of each set-up step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SetupTimes {
    /// `Topology::medium`.
    pub(crate) medium_s: f64,
    /// `Network::new`, routers and the LiteView suite.
    pub(crate) install_s: f64,
    /// Beacon warm-up, workstation install and `cd`.
    pub(crate) warmup_s: f64,
}

impl SetupTimes {
    pub(crate) fn total(&self) -> f64 {
        self.medium_s + self.install_s + self.warmup_s
    }
}

/// Build and warm up one world. For the corridor these are exactly the
/// steps of `Scenario::build` with its default config, timed apart.
pub(crate) fn build_world(shape: Shape, seed: u64) -> (World, SetupTimes) {
    let (topology, beacon, warmup) = match shape {
        Shape::Grid { rows, cols } => (
            Topology::Grid {
                rows,
                cols,
                spacing: GRID_PITCH,
            },
            Some(SimDuration::from_millis(500)),
            SimDuration::from_secs(2),
        ),
        Shape::Corridor => (
            Topology::eight_hop_corridor(),
            None,
            SimDuration::from_secs(25),
        ),
    };
    let t0 = Instant::now();
    let medium = topology.medium(PropagationConfig::default(), seed);
    let t1 = Instant::now();
    let mut net = Network::new(medium, seed);
    for i in 0..net.node_count() as u16 {
        net.install_router(i, Box::new(Geographic::new(Port::GEOGRAPHIC)))
            .expect("a fresh node has port 10 free");
        if let Some(period) = beacon {
            net.node_mut(i).stack.config_mut().beacon_period = period;
        }
    }
    install_suite(&mut net);
    let t2 = Instant::now();
    net.run_for(warmup);
    let mut ws = Workstation::install(&mut net, BRIDGE);
    ws.cd(&net, BRIDGE_NAME).expect("the bridge node exists");
    let t3 = Instant::now();
    let times = SetupTimes {
        medium_s: (t1 - t0).as_secs_f64(),
        install_s: (t2 - t1).as_secs_f64(),
        warmup_s: (t3 - t2).as_secs_f64(),
    };
    (World { net, ws }, times)
}

/// Build the world `count` times and keep the last. Every build must
/// reach the same counter digest: set-up is deterministic in the seed.
fn setup_worlds(
    shape: Shape,
    seed: u64,
    count: usize,
    tally: &mut Tally,
) -> (World, Vec<SetupTimes>) {
    let mut times = Vec::with_capacity(count);
    let mut first_digest: Option<String> = None;
    let mut last = None;
    for _ in 0..count.max(1) {
        drop(last.take());
        let (world, t) = build_world(shape, seed);
        let digest = counters_digest(&world.net);
        match &first_digest {
            None => first_digest = Some(digest),
            Some(d) if *d != digest => {
                tally.problem(format!("set-up is not deterministic: {d} vs {digest}"))
            }
            Some(_) => {}
        }
        times.push(t);
        last = Some(world);
    }
    let world = last.expect("at least one set-up ran");
    (world, times)
}

// ---------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------

/// The command verbs the workloads issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Verb {
    Ping,
    Traceroute,
    List,
    Status,
    Power,
    Channel,
}

impl Verb {
    pub(crate) const ALL: [Verb; 6] = [
        Verb::Ping,
        Verb::Traceroute,
        Verb::List,
        Verb::Status,
        Verb::Power,
        Verb::Channel,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Verb::Ping => "ping",
            Verb::Traceroute => "traceroute",
            Verb::List => "list",
            Verb::Status => "status",
            Verb::Power => "power",
            Verb::Channel => "channel",
        }
    }

    /// The in-process request: probes go to `target` over geographic
    /// routing, the rest run on the bridge.
    pub(crate) fn request(self, target: u16) -> CommandRequest {
        match self {
            Verb::Ping => CommandRequest::ping(target, 3, 32, Some(Port::GEOGRAPHIC)),
            Verb::Traceroute => CommandRequest::traceroute(target, 32, Port::GEOGRAPHIC),
            Verb::List => CommandRequest::neighbor_list(true),
            Verb::Status => CommandRequest::new(Command::Status),
            Verb::Power => CommandRequest::get_power(),
            Verb::Channel => CommandRequest::get_channel(),
        }
    }

    /// The same command as a session-protocol shell command.
    pub(crate) fn shell(self, target: u16) -> ShellCommand {
        match self {
            Verb::Ping => ShellCommand::Ping {
                dst: default_name(target),
                rounds: 3,
                length: 32,
                port: Some(Port::GEOGRAPHIC.0),
            },
            Verb::Traceroute => ShellCommand::Traceroute {
                dst: default_name(target),
                length: 32,
                port: Port::GEOGRAPHIC.0,
            },
            Verb::List => ShellCommand::List { quality: true },
            Verb::Status => ShellCommand::Status,
            Verb::Power => ShellCommand::GetPower,
            Verb::Channel => ShellCommand::GetChannel,
        }
    }

    /// Whether `result` is a well-formed answer to this verb. A probe
    /// that hears nothing back (a timeout, or a ping with 0 of 3 replies
    /// in a churned network) is a valid measurement, not a failure; a
    /// bridge-local command must always answer with its own data.
    pub(crate) fn check(self, result: &CommandResult) -> Result<(), String> {
        let ok = match (self, result) {
            (Verb::Ping, CommandResult::Ping(p)) => p.received <= p.sent && p.sent <= 3,
            (Verb::Ping | Verb::Traceroute, CommandResult::Timeout) => true,
            (Verb::Traceroute, CommandResult::Traceroute(_)) => true,
            (Verb::List, CommandResult::Neighbors(_)) => true,
            (Verb::Status, CommandResult::Status { .. }) => true,
            (Verb::Power, CommandResult::Power(_)) => true,
            (Verb::Channel, CommandResult::Channel(_)) => true,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{}: unexpected result {result:?}", self.name()))
        }
    }
}

/// One deck of corridor commands: ping 20 %, traceroute 20 %, and
/// `list quality`, `status`, `power`, `channel` 15 % each.
const DECK: [Verb; 20] = [
    Verb::Ping,
    Verb::Ping,
    Verb::Ping,
    Verb::Ping,
    Verb::Traceroute,
    Verb::Traceroute,
    Verb::Traceroute,
    Verb::Traceroute,
    Verb::List,
    Verb::List,
    Verb::List,
    Verb::Status,
    Verb::Status,
    Verb::Status,
    Verb::Power,
    Verb::Power,
    Verb::Power,
    Verb::Channel,
    Verb::Channel,
    Verb::Channel,
];

/// Commands per corridor measurement window: whole decks, so every
/// window does the same work.
pub(crate) const WINDOW: usize = 10 * DECK.len();

fn shuffle<T>(rng: &mut SimRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// A workload's seeded command stream.
///
/// The corridor deals its mix from shuffled decks (verbs, and probe
/// targets two to eight hops out), so any run of whole decks holds
/// exactly the same commands in a seed-drawn order: windows of a run,
/// and runs of different seeds, do comparable work.
pub(crate) struct Mix {
    rng: SimRng,
    shape: Shape,
    nodes: u16,
    issued: u64,
    verbs: Vec<Verb>,
    targets: Vec<u16>,
}

impl Mix {
    pub(crate) fn new(seed: u64, stream: u64, shape: Shape, nodes: usize) -> Mix {
        Mix {
            rng: SimRng::stream(seed, MIX_STREAM ^ stream),
            shape,
            nodes: nodes as u16,
            issued: 0,
            verbs: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// A probe target: any non-bridge node of the grid, or a corridor
    /// node two to eight hops from the bridge.
    pub(crate) fn target(&mut self) -> u16 {
        match self.shape {
            Shape::Grid { .. } => 1 + self.rng.below(u64::from(self.nodes) - 1) as u16,
            Shape::Corridor => {
                if self.targets.is_empty() {
                    self.targets = (2..self.nodes).collect();
                    shuffle(&mut self.rng, &mut self.targets);
                }
                self.targets.pop().unwrap_or(self.nodes - 1)
            }
        }
    }

    /// The next command. The grid alternates traceroute and ping; the
    /// corridor deals from its deck.
    pub(crate) fn next_command(&mut self) -> (Verb, u16) {
        let verb = match self.shape {
            Shape::Grid { .. } if self.issued.is_multiple_of(2) => Verb::Traceroute,
            Shape::Grid { .. } => Verb::Ping,
            Shape::Corridor => {
                if self.verbs.is_empty() {
                    self.verbs = DECK.to_vec();
                    shuffle(&mut self.rng, &mut self.verbs);
                }
                self.verbs.pop().unwrap_or(Verb::Status)
            }
        };
        self.issued += 1;
        let target = match verb {
            Verb::Ping | Verb::Traceroute => self.target(),
            _ => BRIDGE,
        };
        (verb, target)
    }
}

// ---------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------

/// Run one workload and check it.
pub(crate) fn run(cfg: &RunConfig) -> Outcome {
    let mut out = match cfg.workload {
        Workload::GridSteady => run_grid(cfg, false),
        Workload::GridChurn => run_grid(cfg, true),
        Workload::Corridor => run_corridor(cfg),
        Workload::Serve => serve::run(cfg),
    };
    out.notes.insert("host.ref_ns".into(), host::ref_ns());
    if let Some(digest) = &out.digest {
        if let Some(pin) = registry::pinned_digest(cfg.scale.name, cfg.seed, cfg.workload.name()) {
            if *digest != pin {
                out.problems
                    .push(format!("digest {digest} differs from the pinned {pin}"));
            }
        }
    }
    out
}

/// A grid or corridor run in progress: its world, its command stream,
/// and what the loop has measured so far.
struct Loop {
    cfg: RunConfig,
    shape: Shape,
    world: World,
    setups: Vec<SetupTimes>,
    mix: Mix,
    tracer: Tracer,
    tally: Tally,
    start: Snapshot,
    rss_before: f64,
    exec_ms: Vec<f64>,
    ping_ms: Vec<f64>,
    verbs: BTreeMap<Verb, u64>,
    /// Wall time of the commands (and of the `run_for` between them).
    wall_s: f64,
    /// The `run_for` part of it and the events dispatched there.
    run_for_s: f64,
    run_for_events: u64,
    unit_on_s: Vec<f64>,
    unit_off_s: Vec<f64>,
    blocks: usize,
    digest: Option<String>,
    peak_rss_mb: f64,
}

impl Loop {
    /// Set the world up `cfg.scale.setups` times and get ready to measure.
    fn start(cfg: &RunConfig, shape: Shape) -> Loop {
        let mut tally = Tally::default();
        let (world, setups) = setup_worlds(shape, cfg.seed, cfg.scale.setups, &mut tally);
        let mix = Mix::new(cfg.seed, 0, shape, world.net.node_count());
        Loop {
            cfg: *cfg,
            shape,
            start: Snapshot::take(&world.net),
            rss_before: host::rss_mb(),
            world,
            setups,
            mix,
            tracer: Tracer::new(Instant::now(), 1, cfg.traced),
            tally,
            exec_ms: Vec::new(),
            ping_ms: Vec::new(),
            verbs: BTreeMap::new(),
            wall_s: 0.0,
            run_for_s: 0.0,
            run_for_events: 0,
            unit_on_s: Vec::new(),
            unit_off_s: Vec::new(),
            blocks: 0,
            digest: None,
            peak_rss_mb: f64::NAN,
        }
    }

    /// Issue the next command of the mix and log it. The benchmark keeps
    /// no execution history: each record is dropped once it is checked,
    /// so memory measures the world and one command in flight, not how
    /// many commands fit the time budget. Returns the verb and its wall
    /// time in seconds.
    fn command(&mut self) -> (Verb, f64) {
        let (verb, target) = self.mix.next_command();
        let e0 = self.world.net.events_dispatched();
        let t0 = Instant::now();
        let span = self.tracer.begin("core.exec", Some(verb.name()));
        let result = self
            .world
            .ws
            .exec(&mut self.world.net, verb.request(target));
        self.tracer
            .end(span, Some(self.world.net.events_dispatched() - e0));
        let secs = t0.elapsed().as_secs_f64();
        self.tally.exec(verb, &result);
        self.world.ws.clear_history();
        self.world.ws.clear_transcript();
        self.exec_ms.push(secs * 1e3);
        if verb == Verb::Ping {
            self.ping_ms.push(secs * 1e3);
        }
        *self.verbs.entry(verb).or_default() += 1;
        self.wall_s += secs;
        (verb, secs)
    }

    /// Time of one unit of work, split by whether spans were on.
    fn unit(&mut self, secs: f64) {
        if self.tracer.enabled() {
            self.unit_on_s.push(secs);
        } else {
            self.unit_off_s.push(secs);
        }
    }

    /// Close a block; the first one is pinned.
    fn end_block(&mut self) {
        self.blocks += 1;
        if self.digest.is_none() {
            self.digest = Some(counters_digest(&self.world.net));
            self.peak_rss_mb = host::peak_rss_mb();
        }
    }

    /// The run's outcome: per-layer metrics when traced, else the
    /// end-to-end ones, with `sim_x_realtime`, `cmds_per_s` and `ping_ms`
    /// as the loop measured them.
    fn finish(mut self, sim_x_realtime: f64, cmds_per_s: f64, ping_ms: f64) -> Outcome {
        let mut metrics = BTreeMap::new();
        if self.cfg.traced {
            let phase = Phase {
                shape: self.shape,
                wall_s: self.wall_s,
                run_for_s: self.run_for_s,
                run_for_events: self.run_for_events,
                start: self.start,
                end: Snapshot::take(&self.world.net),
                cmd_p50_ms: median(&self.exec_ms),
                verbs: self.verbs,
                rss_growth_mb: host::rss_mb() - self.rss_before,
                trace_overhead: median(&self.unit_on_s) / median(&self.unit_off_s),
                path: layers::CommandPath::InProcess,
            };
            metrics = layers::per_layer(
                &mut self.world,
                &phase,
                &self.setups,
                &mut self.mix,
                &self.cfg,
                &mut self.tracer,
                &mut self.tally,
            );
        } else {
            let setup = self
                .setups
                .iter()
                .map(SetupTimes::total)
                .collect::<Vec<_>>();
            metrics.insert("setup_s".into(), median(&setup));
            metrics.insert("sim_x_realtime".into(), sim_x_realtime);
            metrics.insert("cmds_per_s".into(), cmds_per_s);
            metrics.insert("ping_ms".into(), ping_ms);
            metrics.insert("peak_rss_mb".into(), self.peak_rss_mb);
        }
        let mut notes = BTreeMap::new();
        notes.insert("commands".into(), self.exec_ms.len() as f64);
        notes.insert("cmd_p50_ms".into(), median(&self.exec_ms));
        notes.insert("cmd_p99_ms".into(), quantile(&self.exec_ms, 0.99));
        notes.insert("blocks".into(), self.blocks as f64);
        notes.insert("events".into(), self.world.net.events_dispatched() as f64);
        Outcome {
            attempted: self.tally.attempted,
            failed: self.tally.failed,
            problems: self.tally.problems,
            digest: self.digest,
            metrics,
            notes,
            tracer: self.tracer,
        }
    }
}

/// `grid1000-churn` mutations per 5 simulated seconds: node down/up
/// cycles (0.5–3.5 s outages), +15 dB noise bursts (100–500 ms) and
/// moves half a pitch out and back 2 s later. Every chunk carries the
/// same counts (384, 96 and 192 per 240 s), so any two windows of a run
/// do the same amount of churn.
const CHURN_PER_CHUNK: usize = 8;
const BURSTS_PER_CHUNK: usize = 2;
const MOVES_PER_CHUNK: usize = 4;

/// The seeded dynamics of chunk `chunk`, starting now.
fn churn_plan(net: &Network, seed: u64, chunk: u64) -> DynamicsPlan {
    let chunk_seed = seed ^ chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let start = net.now();
    let window = (start, start + CHUNK);
    // Node ids come from the live network, so they are always in range:
    // `Network::apply_dynamics` indexes its node table without a check.
    let non_bridge: Vec<u16> = (1..net.node_count() as u16).collect();
    let mut plan = DynamicsPlan::new()
        .random_churn(
            chunk_seed,
            &non_bridge,
            window,
            CHURN_PER_CHUNK,
            SimDuration::from_millis(500),
            SimDuration::from_secs(3),
        )
        .random_noise_bursts(
            chunk_seed,
            Channel::DEFAULT,
            window,
            BURSTS_PER_CHUNK,
            15.0,
            SimDuration::from_millis(100),
            SimDuration::from_millis(400),
        );
    let mut rng = SimRng::stream(chunk_seed, 0x4C56_4D4F_5645); // "LVMOVE"
    for _ in 0..MOVES_PER_CHUNK {
        let id = non_bridge[rng.below(non_bridge.len() as u64) as usize];
        let at = start + SimDuration::from_nanos(rng.below(CHUNK.as_nanos()));
        let home = net.medium.position(id);
        let out = Position::new(home.x + GRID_PITCH / 2.0, home.y);
        plan = plan
            .move_node(id, at, out)
            .move_node(id, at + SimDuration::from_secs(2), home);
    }
    plan
}

fn run_grid(cfg: &RunConfig, churn: bool) -> Outcome {
    let shape = Shape::Grid {
        rows: cfg.scale.grid_rows,
        cols: cfg.scale.grid_cols,
    };
    let mut run = Loop::start(cfg, shape);
    let block = cfg.scale.grid_block.max(2);
    // Windows: every `run_for` between commands (5 simulated seconds),
    // and every traceroute + ping pair of chunks.
    let (mut run_x, mut pair_rate) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut pair_t0 = Instant::now();
    let mut k = 0usize;
    loop {
        if churn {
            churn_plan(&run.world.net, cfg.seed, k as u64).schedule(&mut run.world.net);
        }
        if cfg.traced {
            // Spans on for chunks 1 and 2 of every 4: both halves hold
            // as many traceroutes as pings.
            run.tracer.set_enabled(matches!(k % 4, 1 | 2));
        }
        let e0 = run.world.net.events_dispatched();
        let t0 = Instant::now();
        let chunk = run.tracer.begin("loop.chunk", None);
        let span = run.tracer.begin("kernel.run_for", None);
        run.world.net.run_for(CHUNK);
        let run_for_events = run.world.net.events_dispatched() - e0;
        run.tracer.end(span, Some(run_for_events));
        let run_for_s = t0.elapsed().as_secs_f64();
        run.command();
        run.tracer
            .end(chunk, Some(run.world.net.events_dispatched() - e0));
        let t2 = Instant::now();

        run.unit((t2 - t0).as_secs_f64());
        run_x.push(CHUNK.as_secs_f64() / run_for_s);
        run.run_for_s += run_for_s;
        run.run_for_events += run_for_events;
        run.wall_s += run_for_s;
        k += 1;
        if k.is_multiple_of(2) {
            pair_rate.push(2.0 / (t2 - pair_t0).as_secs_f64());
            pair_t0 = t2;
        }
        if k.is_multiple_of(block) {
            run.end_block();
        }
        if run.digest.is_some()
            && k.is_multiple_of(2)
            && started.elapsed().as_secs_f64() >= cfg.seconds
        {
            break;
        }
    }
    // A ping waits out its fixed 1.65 s window, so every ping is the
    // same work: each one is a window of its own.
    let ping_ms = fast_time(&run.ping_ms);
    run.finish(fast_rate(&run_x), fast_rate(&pair_rate), ping_ms)
}

fn run_corridor(cfg: &RunConfig) -> Outcome {
    let mut run = Loop::start(cfg, Shape::Corridor);
    let block = cfg.scale.corridor_block.max(WINDOW);
    // Windows of `WINDOW` commands: whole decks, identical work.
    let (mut win_rate, mut win_sim_x, mut win_ping) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let (mut win_t0, mut win_s0, mut win_pings) = (Instant::now(), run.world.net.now(), 0usize);
    let mut i = 0usize;
    loop {
        if cfg.traced {
            run.tracer.set_enabled(i % 2 == 1);
        }
        let (_, secs) = run.command();
        run.unit(secs);
        i += 1;
        if i.is_multiple_of(WINDOW) {
            let wall = win_t0.elapsed().as_secs_f64();
            let sim = run.world.net.now().saturating_since(win_s0).as_secs_f64();
            win_rate.push(WINDOW as f64 / wall);
            win_sim_x.push(sim / wall);
            win_ping.push(median(&run.ping_ms[win_pings..]));
            win_pings = run.ping_ms.len();
            if i.is_multiple_of(block) {
                run.end_block();
                if started.elapsed().as_secs_f64() >= cfg.seconds {
                    break;
                }
            }
            win_t0 = Instant::now();
            win_s0 = run.world.net.now();
        }
    }
    run.finish(
        fast_rate(&win_sim_x),
        fast_rate(&win_rate),
        fast_time(&win_ping),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use liteview_repro::lv_testbed::{Scenario, ScenarioConfig};

    #[test]
    fn corridor_world_matches_scenario_build() {
        let (world, _) = build_world(Shape::Corridor, 42);
        let scenario = Scenario::build(ScenarioConfig::new(Topology::eight_hop_corridor(), 42));
        assert_eq!(counters_digest(&world.net), counters_digest(&scenario.net));
        assert_eq!(world.net.now(), scenario.net.now());
    }

    #[test]
    fn mixes_are_seeded_and_stay_in_range() {
        let draw = |seed| {
            let mut m = Mix::new(seed, 0, Shape::Corridor, 9);
            (0..400).map(|_| m.next_command()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let cmds = draw(7);
        for (verb, target) in &cmds {
            match verb {
                Verb::Ping | Verb::Traceroute => assert!((2..=8).contains(target)),
                _ => assert_eq!(*target, BRIDGE),
            }
        }
        for verb in Verb::ALL {
            assert!(cmds.iter().any(|(v, _)| *v == verb), "{verb:?} never drawn");
        }
        let mut grid = Mix::new(3, 0, Shape::Grid { rows: 4, cols: 5 }, 20);
        let first: Vec<Verb> = (0..4).map(|_| grid.next_command().0).collect();
        assert_eq!(
            first,
            [Verb::Traceroute, Verb::Ping, Verb::Traceroute, Verb::Ping]
        );
    }
}
