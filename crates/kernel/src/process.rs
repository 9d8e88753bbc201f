//! Processes and the syscall surface.
//!
//! LiteView commands "are executed as individual processes" (Section
//! IV.B). A process here is an event-driven state machine implementing
//! [`Process`]; the kernel invokes its hooks and hands it a [`SysCtx`] —
//! the system-call interface. To keep the borrow structure simple and
//! the kernel re-entrant-free, *mutating* syscalls are recorded as
//! [`Effect`]s inside the context and applied by the kernel after the
//! hook returns (the moral equivalent of a syscall trapping out of the
//! process).

use crate::log::LogEntry;
use crate::resources::ProcessImage;
use lv_net::neighbors::NeighborEntry;
use lv_net::packet::{NetPacket, Port};
use lv_net::ports::ProcessId;
use lv_net::stack::Stack;
use lv_radio::{Channel, PowerLevel};
use lv_sim::{SimDuration, SimRng, SimTime};

/// Link-layer metadata accompanying a delivered packet.
#[derive(Debug, Clone, Copy)]
pub struct RxMeta {
    /// Link-layer sender of the final hop.
    pub from: u16,
    /// RSSI register value of the final hop.
    pub rssi: i8,
    /// LQI of the final hop.
    pub lqi: u8,
}

/// Mutations a process requested during a hook.
pub enum Effect {
    /// Send a packet (the stack assigns the sequence number).
    Send {
        /// Final destination node.
        dst: u16,
        /// Carrying (routing or application) port.
        carrying_port: Port,
        /// Application port at the destination.
        app_port: Port,
        /// Payload bytes (≤ 64).
        payload: Vec<u8>,
        /// Enable link-quality padding.
        padding: bool,
    },
    /// Arm a timer for this process.
    Timer {
        /// Returned to `on_timer`.
        token: u32,
        /// Delay from now.
        after: SimDuration,
    },
    /// Subscribe this process to an application port.
    Subscribe(Port),
    /// Unsubscribe a port.
    Unsubscribe(Port),
    /// Spawn a new process with a parameter buffer.
    Spawn {
        /// The process.
        process: Box<dyn Process>,
        /// Its parameter string (the paper's parameter-buffer syscall).
        params: Vec<u8>,
    },
    /// Terminate this process (ports unsubscribed, RAM released).
    Exit,
    /// Toggle a neighbor's blacklist bit.
    Blacklist {
        /// Neighbor id.
        id: u16,
        /// New state.
        value: bool,
    },
    /// Retune the radio's transmission power.
    SetPower(PowerLevel),
    /// Retune the radio channel.
    SetChannel(Channel),
    /// Reconfigure the neighbor-beacon period (the `update` command).
    SetBeaconPeriod(SimDuration),
    /// Enable/disable the node's on-demand event logging.
    SetLogging(bool),
    /// Append to the node's event log.
    Log {
        /// Event code.
        code: &'static str,
        /// Detail text.
        detail: String,
    },
}

/// The system-call interface handed to every process hook.
pub struct SysCtx<'a> {
    /// Current virtual time (the "high-resolution, cycle-accurate
    /// timer" ping reads).
    pub now: SimTime,
    /// This node's id.
    pub node_id: u16,
    /// This node's name.
    pub node_name: &'a str,
    /// This process's id.
    pub pid: ProcessId,
    /// The parameter buffer supplied at spawn (paper Section IV.C.4).
    pub params: &'a [u8],
    /// Current radio power level.
    pub power: PowerLevel,
    /// Current radio channel.
    pub channel: Channel,
    /// Current MAC transmit-queue occupancy.
    pub queue_len: usize,
    /// The kernel neighbor table.
    pub neighbors: &'a [NeighborEntry],
    /// The node's on-demand event log, oldest first.
    pub log_entries: &'a [LogEntry],
    /// Per-process deterministic RNG (for the protocol's random
    /// response backoffs).
    pub rng: &'a mut SimRng,
    /// The node's network stack (its installed routing protocols).
    stack: &'a Stack,
    /// Read-only next-hop query: `(carrying port, destination)` → the
    /// neighbor the router on that port would forward to.
    next_hop: &'a dyn Fn(Port, u16) -> Option<u16>,
    effects: Vec<Effect>,
}

impl<'a> SysCtx<'a> {
    /// Construct a context (kernel-internal).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        now: SimTime,
        node_id: u16,
        node_name: &'a str,
        pid: ProcessId,
        params: &'a [u8],
        power: PowerLevel,
        channel: Channel,
        queue_len: usize,
        log_entries: &'a [LogEntry],
        rng: &'a mut SimRng,
        stack: &'a Stack,
        next_hop: &'a dyn Fn(Port, u16) -> Option<u16>,
    ) -> Self {
        SysCtx {
            now,
            node_id,
            node_name,
            pid,
            params,
            power,
            channel,
            queue_len,
            neighbors: stack.neighbors.entries(),
            log_entries,
            rng,
            stack,
            next_hop,
            effects: Vec::new(),
        }
    }

    /// Name of the routing protocol on `port`, if any.
    pub fn router_name(&self, port: Port) -> Option<&'static str> {
        self.stack.router_name(port)
    }

    /// Ask the routing protocol on `port` which neighbor it would use
    /// next toward `dst` (read-only; `None` when no route or no router).
    pub fn next_hop(&self, port: Port, dst: u16) -> Option<u16> {
        (self.next_hop)(port, dst)
    }

    /// Parameter buffer parsed as whitespace-separated tokens ("Multiple
    /// parameters could be separated by space, so that the process can
    /// parse them correctly").
    pub fn param_tokens(&self) -> Vec<&str> {
        std::str::from_utf8(self.params)
            .map(|s| s.split_whitespace().collect())
            .unwrap_or_default()
    }

    /// Send a packet.
    pub fn send(
        &mut self,
        dst: u16,
        carrying_port: Port,
        app_port: Port,
        payload: Vec<u8>,
        padding: bool,
    ) {
        self.effects.push(Effect::Send {
            dst,
            carrying_port,
            app_port,
            payload,
            padding,
        });
    }

    /// Arm a timer.
    pub fn set_timer(&mut self, token: u32, after: SimDuration) {
        self.effects.push(Effect::Timer { token, after });
    }

    /// Subscribe to a port.
    pub fn subscribe(&mut self, port: Port) {
        self.effects.push(Effect::Subscribe(port));
    }

    /// Unsubscribe from a port.
    pub fn unsubscribe(&mut self, port: Port) {
        self.effects.push(Effect::Unsubscribe(port));
    }

    /// Spawn a child process with a parameter buffer.
    pub fn spawn(&mut self, process: Box<dyn Process>, params: Vec<u8>) {
        self.effects.push(Effect::Spawn { process, params });
    }

    /// Terminate this process after the hook returns.
    pub fn exit(&mut self) {
        self.effects.push(Effect::Exit);
    }

    /// Toggle a neighbor's blacklist bit.
    pub fn blacklist(&mut self, id: u16, value: bool) {
        self.effects.push(Effect::Blacklist { id, value });
    }

    /// Set the radio power level.
    pub fn set_power(&mut self, level: PowerLevel) {
        self.effects.push(Effect::SetPower(level));
    }

    /// Set the radio channel.
    pub fn set_channel(&mut self, channel: Channel) {
        self.effects.push(Effect::SetChannel(channel));
    }

    /// Reconfigure the beacon period.
    pub fn set_beacon_period(&mut self, period: SimDuration) {
        self.effects.push(Effect::SetBeaconPeriod(period));
    }

    /// Enable/disable the node's event logging.
    pub fn set_logging(&mut self, enabled: bool) {
        self.effects.push(Effect::SetLogging(enabled));
    }

    /// Write to the node event log.
    pub fn log(&mut self, code: &'static str, detail: impl Into<String>) {
        self.effects.push(Effect::Log {
            code,
            detail: detail.into(),
        });
    }

    /// Drain requested effects (kernel-internal).
    pub fn take_effects(&mut self) -> Vec<Effect> {
        std::mem::take(&mut self.effects)
    }
}

/// An event-driven process (thread) on a node.
pub trait Process {
    /// Human-readable name.
    fn name(&self) -> &str;

    /// Static image cost charged against the node's flash/RAM budgets.
    fn image(&self) -> ProcessImage {
        ProcessImage::default()
    }

    /// Called once when the process starts.
    fn on_start(&mut self, ctx: &mut SysCtx<'_>);

    /// A packet arrived on a port this process subscribed to.
    fn on_packet(&mut self, _ctx: &mut SysCtx<'_>, _packet: &NetPacket, _meta: RxMeta) {}

    /// A timer armed with `set_timer` fired.
    fn on_timer(&mut self, _ctx: &mut SysCtx<'_>, _token: u32) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_route(_port: Port, _dst: u16) -> Option<u16> {
        None
    }

    fn ctx<'a>(params: &'a [u8], rng: &'a mut SimRng, stack: &'a Stack) -> SysCtx<'a> {
        SysCtx::new(
            SimTime::ZERO,
            1,
            "192.168.0.2",
            7,
            params,
            PowerLevel::MAX,
            Channel::DEFAULT,
            0,
            &[],
            rng,
            stack,
            &no_route,
        )
    }

    fn stack() -> Stack {
        Stack::new(1, "192.168.0.2", lv_net::stack::StackConfig::default())
    }

    #[test]
    fn param_tokens_split_on_whitespace() {
        let mut rng = SimRng::stream(1, 1);
        let st = stack();
        let c = ctx(b"192.168.0.2 round=1 length=32", &mut rng, &st);
        assert_eq!(
            c.param_tokens(),
            vec!["192.168.0.2", "round=1", "length=32"]
        );
    }

    #[test]
    fn empty_params_like_nul_buffer() {
        // "If no parameter is supplied, the buffer will start with \0".
        let mut rng = SimRng::stream(1, 1);
        let st = stack();
        let c = ctx(b"", &mut rng, &st);
        assert!(c.param_tokens().is_empty());
    }

    #[test]
    fn invalid_utf8_params_are_no_tokens() {
        let mut rng = SimRng::stream(1, 1);
        let st = stack();
        let c = ctx(&[0xFF, 0xFE], &mut rng, &st);
        assert!(c.param_tokens().is_empty());
    }

    #[test]
    fn effects_accumulate_and_drain() {
        let mut rng = SimRng::stream(1, 1);
        let st = stack();
        let mut c = ctx(b"", &mut rng, &st);
        c.send(2, Port::PING, Port::PING, vec![1], false);
        c.set_timer(9, SimDuration::from_millis(500));
        c.log("cmd", "ping issued");
        let effects = c.take_effects();
        assert_eq!(effects.len(), 3);
        assert!(matches!(effects[0], Effect::Send { dst: 2, .. }));
        assert!(matches!(effects[1], Effect::Timer { token: 9, .. }));
        assert!(c.take_effects().is_empty());
    }
}
