//! The workstation driver: the user's seat.
//!
//! Wraps the interpreter process with a synchronous, shell-like API:
//! `cd` into a node (the LiteOS `/sn01/<name>` mount), then issue
//! commands and get structured results plus paper-style transcript
//! lines. Each `exec` drives the simulation forward for the command's
//! response window — exactly what the human at the LiteOS shell
//! experiences ("By default, all commands have a response delay of 500
//! milliseconds").

use crate::commands::{Command, CommandResult, Execution, GROUP_TARGET};
use crate::diagnose::{DiagnosisEngine, DiagnosisLog, OBS_CAPACITY};
use crate::interpreter::{InFlight, Interpreter, SharedInFlight, KICK};
use crate::observe::{NodeDelta, ObservabilityReport};
use crate::output;
use lv_kernel::{shell_path, Network};
use lv_net::packet::Port;
use lv_net::ports::ProcessId;
use lv_sim::{Counters, Ring, SimDuration, Trace, TraceLevel};
use std::cell::RefCell;
use std::rc::Rc;

/// Simulation slice per progress check while waiting for replies.
const POLL_SLICE: SimDuration = SimDuration::from_millis(5);

/// Ring-buffer capacity of the trace sink [`Workstation::install`]
/// enables when the network has none.
const FLIGHT_RECORDER_CAPACITY: usize = 8192;

/// Executions [`Workstation::executions`] and [`Workstation::report`]
/// keep: a long-running host (the `lv-serve` daemon) must not grow by
/// one execution record per command forever.
pub const HISTORY_CAPACITY: usize = 256;

/// Rendered lines [`Workstation::transcript`] keeps, for the same
/// reason.
pub const TRANSCRIPT_CAPACITY: usize = 8192;

/// The workstation attached (one hop) to a bridge mote.
pub struct Workstation {
    bridge: u16,
    pid: ProcessId,
    in_flight: SharedInFlight,
    cwd: Option<u16>,
    next_req: u8,
    transcript: Ring<String>,
    history: Ring<Execution>,
    diagnosis: Option<DiagnosisEngine>,
}

/// Errors from the shell-like surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Unknown node name (from [`Workstation::cd`]).
    NoSuchNode(String),
    /// The request targets the current node but no `cd` has been
    /// performed yet.
    NoCwd,
    /// The request targets a node id the network does not have.
    UnknownNode(u16),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::NoSuchNode(name) => write!(f, "no such node: {name}"),
            ExecError::NoCwd => write!(f, "no node selected (run `cd` first)"),
            ExecError::UnknownNode(id) => write!(f, "unknown node id: {id}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Where a [`CommandRequest`] executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecTarget {
    /// The node the shell last [`Workstation::cd`]-ed into.
    #[default]
    Cwd,
    /// An explicit node id.
    Node(u16),
    /// All nodes in radio range of the bridge (the paper's group
    /// operation, a single broadcast query).
    Group,
}

/// A command plus where to run it — the one argument of
/// [`Workstation::exec`].
///
/// Build one from a raw [`Command`] (defaults to the current node) or
/// through the named constructors mirroring the paper's shell
/// commands, then aim it with [`on`](CommandRequest::on) /
/// [`group`](CommandRequest::group):
///
/// ```no_run
/// # use liteview::{CommandRequest, Workstation};
/// # use lv_net::packet::Port;
/// # fn f(ws: &mut Workstation, net: &mut lv_kernel::Network) {
/// ws.exec(net, CommandRequest::ping(1, 1, 32, None)).unwrap();
/// ws.exec(net, CommandRequest::get_power().on(3)).unwrap();
/// ws.exec(net, CommandRequest::survey()).unwrap();
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CommandRequest {
    command: Command,
    target: ExecTarget,
}

impl CommandRequest {
    /// A request running `command` on the current (`cd`) node.
    pub fn new(command: Command) -> CommandRequest {
        CommandRequest {
            command,
            target: ExecTarget::Cwd,
        }
    }

    /// Aim the request at an explicit node id.
    pub fn on(mut self, node: u16) -> CommandRequest {
        self.target = ExecTarget::Node(node);
        self
    }

    /// Aim the request at the broadcast group.
    pub fn group(mut self) -> CommandRequest {
        self.target = ExecTarget::Group;
        self
    }

    /// Aim the request back at the current (`cd`) node.
    pub fn at_cwd(mut self) -> CommandRequest {
        self.target = ExecTarget::Cwd;
        self
    }

    /// The command to run.
    pub fn command(&self) -> &Command {
        &self.command
    }

    /// Where the command runs.
    pub fn target(&self) -> ExecTarget {
        self.target
    }

    // ---- named constructors mirroring the paper's shell commands ----

    /// `ping <dst> round=<rounds> length=<len> [port=<p>]`.
    pub fn ping(dst: u16, rounds: u8, length: u8, port: Option<Port>) -> CommandRequest {
        CommandRequest::new(Command::Ping {
            dst,
            rounds,
            length,
            port,
        })
    }

    /// `traceroute <dst> length=<len> port=<p>`.
    pub fn traceroute(dst: u16, length: u8, port: Port) -> CommandRequest {
        CommandRequest::new(Command::Traceroute { dst, length, port })
    }

    /// The neighborhood `list` command.
    pub fn neighbor_list(with_quality: bool) -> CommandRequest {
        CommandRequest::new(Command::NeighborList { with_quality })
    }

    /// The `blacklist` command (add or remove).
    pub fn blacklist(neighbor: u16, add: bool) -> CommandRequest {
        CommandRequest::new(Command::Blacklist { neighbor, add })
    }

    /// Set the radio power level.
    pub fn set_power(level: u8) -> CommandRequest {
        CommandRequest::new(Command::SetPower(level))
    }

    /// Read the radio power level.
    pub fn get_power() -> CommandRequest {
        CommandRequest::new(Command::GetPower)
    }

    /// Set the radio channel.
    pub fn set_channel(channel: u8) -> CommandRequest {
        CommandRequest::new(Command::SetChannel(channel))
    }

    /// Read the radio channel.
    pub fn get_channel() -> CommandRequest {
        CommandRequest::new(Command::GetChannel)
    }

    /// One broadcast status query of every node in radio range of the
    /// bridge (the paper's group operation).
    pub fn survey() -> CommandRequest {
        CommandRequest::new(Command::GroupStatus).group()
    }

    /// Toggle a node's on-demand event logging.
    pub fn set_logging(on: bool) -> CommandRequest {
        CommandRequest::new(Command::SetLogging(on))
    }

    /// Retrieve the most recent `max` entries of a node's event log.
    pub fn read_log(max: u8) -> CommandRequest {
        CommandRequest::new(Command::ReadLog { max })
    }

    /// The neighborhood `update` command (beacon frequency).
    pub fn update_beacon(period: SimDuration) -> CommandRequest {
        CommandRequest::new(Command::UpdateBeacon { period })
    }
}

impl From<Command> for CommandRequest {
    fn from(command: Command) -> CommandRequest {
        CommandRequest::new(command)
    }
}

impl Workstation {
    /// Install the command interpreter on `bridge` and return the
    /// driver. The LiteView runtime controller must be installed
    /// separately on the managed nodes (see [`crate::install_suite`]).
    ///
    /// Also arms the flight recorder: if the network has no trace sink,
    /// a packet-level ring buffer is enabled so every subsequent
    /// [`Execution`] carries its causal event timeline. Pre-configured
    /// sinks (any level) are left untouched.
    pub fn install(net: &mut Network, bridge: u16) -> Workstation {
        if !net.trace.accepts(TraceLevel::Info) {
            net.trace = Trace::enabled(TraceLevel::Packet, FLIGHT_RECORDER_CAPACITY);
        }
        let in_flight: SharedInFlight = Rc::new(RefCell::new(None));
        // The bridge mote is freshly provisioned, so the spawn cannot
        // fail in practice; if it ever does, fall back to an inert
        // driver (commands time out) instead of aborting the host.
        let interpreter = Interpreter::new(in_flight.clone());
        let pid = net
            .spawn_process(bridge, Box::new(interpreter), vec![])
            .unwrap_or_else(|_| {
                debug_assert!(false, "interpreter install failed on bridge {bridge}");
                lv_net::ports::KERNEL_PID
            });
        // Let the spawn settle so the port subscription exists.
        net.run_for(SimDuration::from_millis(1));
        Workstation {
            bridge,
            pid,
            in_flight,
            cwd: None,
            next_req: 1,
            transcript: Ring::new(TRANSCRIPT_CAPACITY),
            history: Ring::new(HISTORY_CAPACITY),
            diagnosis: None,
        }
    }

    /// The bridge node id.
    pub fn bridge(&self) -> u16 {
        self.bridge
    }

    /// "Log into" a node by name (the shell's `cd /sn01/<name>`).
    pub fn cd(&mut self, net: &Network, name: &str) -> Result<u16, ExecError> {
        match net.resolve(name) {
            Some(id) => {
                self.cwd = Some(id);
                Ok(id)
            }
            None => Err(ExecError::NoSuchNode(name.to_owned())),
        }
    }

    /// The shell's `pwd` output (e.g. `/sn01/192.168.0.1`).
    pub fn pwd(&self, net: &Network) -> Result<String, ExecError> {
        let id = self.cwd.ok_or(ExecError::NoCwd)?;
        Ok(shell_path(&net.node(id).name))
    }

    /// The node commands currently execute on.
    pub fn cwd(&self) -> Option<u16> {
        self.cwd
    }

    /// Paper-style output lines of executed commands, oldest first:
    /// the most recent [`TRANSCRIPT_CAPACITY`] lines.
    pub fn transcript(&self) -> &[String] {
        self.transcript.as_slice()
    }

    /// Clear the transcript.
    pub fn clear_transcript(&mut self) {
        self.transcript.clear();
    }

    /// The executions this workstation has driven, in issue order: the
    /// most recent [`HISTORY_CAPACITY`] of them.
    pub fn executions(&self) -> &[Execution] {
        self.history.as_slice()
    }

    /// Forget the execution history (the transcript is unaffected).
    pub fn clear_history(&mut self) {
        self.history.clear();
    }

    /// Capture the network-wide flight recorder: per-node health pages,
    /// global counters, the event timeline, and a record per command in
    /// [`Workstation::executions`] (the most recent
    /// [`HISTORY_CAPACITY`]). JSON-exportable via
    /// [`ObservabilityReport::to_json`].
    pub fn report(&self, net: &Network) -> ObservabilityReport {
        let mut report = ObservabilityReport::capture(net, self.executions());
        if let Some(engine) = &self.diagnosis {
            report.diagnosis = engine.episodes().to_vec();
        }
        report
    }

    /// Arm the closed-loop diagnosis engine (`DESIGN.md` §14): enables
    /// the kernel's passive link-observation tap and attaches a
    /// [`DiagnosisEngine`] that [`Workstation::poll_diagnosis`] drives.
    /// Re-arming replaces the engine and clears its episode history.
    pub fn arm_diagnosis(&mut self, net: &mut Network) {
        net.set_link_obs(OBS_CAPACITY);
        self.diagnosis = Some(DiagnosisEngine::new());
    }

    /// Drive the armed diagnosis engine one step: drain the kernel tap,
    /// feed the detector, and run the probe ladder for fresh alarms
    /// (which executes commands and advances virtual time). Returns how
    /// many episodes were opened; 0 when no engine is armed.
    pub fn poll_diagnosis(&mut self, net: &mut Network) -> usize {
        // Take/put-back so the engine can borrow the workstation for
        // its probe executions.
        let Some(mut engine) = self.diagnosis.take() else {
            return 0;
        };
        let opened = engine.poll(net, self);
        self.diagnosis = Some(engine);
        opened
    }

    /// The armed engine's cumulative log (empty when not armed) — the
    /// payload of the session protocol's `report diagnose` verb.
    pub fn diagnosis_log(&self) -> DiagnosisLog {
        self.diagnosis
            .as_ref()
            .map(DiagnosisEngine::log)
            .unwrap_or_default()
    }

    fn alloc_req(&mut self) -> u8 {
        let r = self.next_req;
        self.next_req = self.next_req.wrapping_add(1).max(1);
        r
    }

    /// Execute a request — the single entry point every command goes
    /// through. Accepts a bare [`Command`] (runs on the `cd` node) or
    /// a [`CommandRequest`] aimed anywhere.
    pub fn exec(
        &mut self,
        net: &mut Network,
        request: impl Into<CommandRequest>,
    ) -> Result<Execution, ExecError> {
        let request = request.into();
        let target = match request.target {
            ExecTarget::Cwd => self.cwd.ok_or(ExecError::NoCwd)?,
            ExecTarget::Node(id) => id,
            ExecTarget::Group => GROUP_TARGET,
        };
        if target != GROUP_TARGET && target as usize >= net.node_count() {
            return Err(ExecError::UnknownNode(target));
        }
        Ok(self.dispatch(net, target, request.command))
    }

    /// Drive one validated command through the interpreter: put it in
    /// flight, run the simulation to its deadline (a traceroute stops
    /// once it completes), and take its result out.
    fn dispatch(&mut self, net: &mut Network, target: u16, command: Command) -> Execution {
        let req_id = self.alloc_req();
        let issued_at = net.now();
        let window = command.window();
        let deadline = issued_at + window + command.grace();
        let early = command.completes_early();
        let fl = InFlight::new(target, command.clone(), req_id, issued_at);
        *self.in_flight.borrow_mut() = Some(fl);
        // Flight-recorder baselines: global and per-node counters at
        // issue time, so the execution can report exactly what moved.
        let global_baseline = net.counters.clone();
        let node_baselines: Vec<Counters> = (0..net.node_count() as u16)
            .map(|id| net.node(id).counters())
            .collect();
        net.poke(self.bridge, self.pid, KICK);
        while net.now() < deadline {
            net.run_for(POLL_SLICE);
            let fl = self.in_flight.borrow();
            if early && fl.as_ref().is_some_and(|fl| fl.completed_at.is_some()) {
                break;
            }
        }
        let (result, completed_at) = self
            .in_flight
            .borrow_mut()
            .take()
            .map_or((CommandResult::Timeout, None), |fl| {
                (fl.result, fl.completed_at)
            });
        // Fixed-window commands report the full window (the paper's
        // constant 500 ms); early-completing ones report actual latency.
        let response_delay = match completed_at {
            Some(t) if early => t.saturating_since(issued_at),
            _ => window,
        };
        let execution = Execution {
            command,
            target,
            issued_at,
            response_delay,
            result,
            timeline: net.trace.events_since(issued_at).collect(),
            counter_delta: net.counters.diff(&global_baseline),
            node_deltas: node_baselines
                .iter()
                .enumerate()
                .filter_map(|(id, baseline)| {
                    let delta = net.node(id as u16).counters().diff(baseline);
                    (!delta.is_empty()).then_some(NodeDelta {
                        node: id as u16,
                        counters: delta,
                    })
                })
                .collect(),
        };
        self.transcript.extend(output::render(net, &execution));
        self.history.push(execution.clone());
        execution
    }
}
