//! The command interpreter — the workstation-side half of the toolkit.
//!
//! "LiteView consists of a command interpreter on the client side, and a
//! runtime controller on the node side. … The command interpreter
//! carries out three tasks. First, it translates each user command into
//! a sequence of radio messages. … Second, it keeps track of the context
//! of user management operations, such as the current directory …
//! Finally, the command interpreter communicates with the runtime
//! controller … following a reliable one-hop communication protocol."
//!
//! In the simulation, the interpreter runs as a process on the
//! workstation's bridge mote, sharing the command in flight with the
//! external [`Workstation`](crate::workstation::Workstation) driver
//! through an `Rc<RefCell<…>>` (single-threaded event loop, so this is
//! the direct analogue of the serial cable between PC and base-station
//! mote).

use crate::commands::{
    Command, CommandResult, StatusRow, TraceHop, TraceOutcome, WORKSTATION_PORT,
};
use crate::protocol::BatchReceiver;
use crate::wire::{decode_rows, BatchMsg, MgmtReply, MgmtRequest, Msg};
use lv_kernel::{Process, ProcessImage, RxMeta, SysCtx};
use lv_net::packet::{NetPacket, Port};
use lv_sim::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// Timer token the workstation driver pokes to send the command in
/// flight.
pub const KICK: u32 = 0;

/// The one command in flight: what was asked, and its result, which
/// each reply updates as it lands.
#[derive(Debug)]
pub struct InFlight {
    /// Target node ([`crate::commands::GROUP_TARGET`] for a survey).
    target: u16,
    /// The command.
    command: Command,
    /// Request id; a reply carrying any other id is stale.
    req_id: u8,
    /// When the driver issued the command; traceroute hop arrivals are
    /// measured from here.
    issued_at: SimTime,
    /// Reassembly of a multi-packet reply (neighbor table, event log).
    batch: Option<BatchReceiver>,
    /// The result so far: [`CommandResult::Timeout`] until a reply
    /// lands, or a survey's rows once its request went out.
    pub(crate) result: CommandResult,
    /// When a terminal reply landed.
    pub(crate) completed_at: Option<SimTime>,
}

impl InFlight {
    /// `command` for `target`, issued at `issued_at` under `req_id`.
    pub(crate) fn new(target: u16, command: Command, req_id: u8, issued_at: SimTime) -> InFlight {
        InFlight {
            target,
            command,
            req_id,
            issued_at,
            batch: None,
            result: CommandResult::Timeout,
            completed_at: None,
        }
    }

    fn complete(&mut self, result: CommandResult, now: SimTime) {
        self.result = result;
        self.completed_at.get_or_insert(now);
    }

    /// Update the traceroute outcome. The protocol banner or the first
    /// hop report starts it, whichever lands first: either may be lost.
    fn trace(&mut self, update: impl FnOnce(&mut TraceOutcome)) {
        let mut outcome = match std::mem::replace(&mut self.result, CommandResult::Timeout) {
            CommandResult::Traceroute(t) => t,
            _ => TraceOutcome::default(),
        };
        update(&mut outcome);
        self.result = CommandResult::Traceroute(outcome);
    }

    /// Fold one reply from node `from`, landed at `now`, into the result.
    fn land(&mut self, from: u16, reply: MgmtReply, now: SimTime) {
        if let CommandResult::GroupStatus(rows) = &mut self.result {
            // A survey gathers one status row per node, in node order,
            // and runs to its deadline: nothing else it hears counts.
            if let MgmtReply::Status {
                power,
                channel,
                queue,
                neighbors,
            } = reply
            {
                if let Err(at) = rows.binary_search_by_key(&from, |r| r.node) {
                    let row = StatusRow {
                        node: from,
                        power,
                        channel,
                        queue,
                        neighbors,
                    };
                    rows.insert(at, row);
                }
            }
            return;
        }
        let result = match reply {
            MgmtReply::TracerouteInfo { protocol } => {
                return self.trace(|t| t.protocol = Some(protocol));
            }
            MgmtReply::TracerouteHop(record) => {
                let arrival = now.saturating_since(self.issued_at);
                return self.trace(|t| t.hops.push(TraceHop { record, arrival }));
            }
            MgmtReply::TracerouteDone { reached, .. } => {
                // A done signal with no banner and no hop report is
                // still a timeout.
                let mut result = std::mem::replace(&mut self.result, CommandResult::Timeout);
                if let CommandResult::Traceroute(t) = &mut result {
                    t.reached = reached;
                }
                result
            }
            MgmtReply::Ok => CommandResult::Ok,
            MgmtReply::Status {
                power,
                channel,
                queue,
                neighbors,
            } => CommandResult::Status {
                power,
                channel,
                queue,
                neighbors,
            },
            MgmtReply::Power(p) => CommandResult::Power(p),
            MgmtReply::Channel(c) => CommandResult::Channel(c),
            MgmtReply::PingSummary(outcome) => CommandResult::Ping(outcome),
            MgmtReply::Error(code) => CommandResult::Error(code),
        };
        self.complete(result, now);
    }

    /// Take one chunk of a multi-packet reply and return the ack to
    /// send, if one is due. The decoded rows complete the command.
    fn land_chunk(&mut self, msg: BatchMsg, now: SimTime) -> Option<BatchMsg> {
        let BatchMsg::Data {
            req_id,
            seq,
            total,
            ack_after,
            payload,
        } = msg
        else {
            return None; // the interpreter never receives acks
        };
        if req_id != self.req_id {
            return None; // a stale chunk from an earlier command
        }
        let rx = self.batch.get_or_insert_with(|| BatchReceiver::new(req_id));
        let ack = rx.on_data(req_id, seq, total, ack_after, payload);
        if self.completed_at.is_none() {
            if let Some(chunks) = rx.assemble() {
                let result = match self.command {
                    Command::ReadLog { .. } => decode_rows(&chunks).map(CommandResult::Log),
                    _ => decode_rows(&chunks).map(CommandResult::Neighbors),
                };
                if let Ok(result) = result {
                    self.complete(result, now);
                }
            }
        }
        ack
    }
}

/// The slot the workstation driver and the interpreter process share.
pub type SharedInFlight = Rc<RefCell<Option<InFlight>>>;

/// The interpreter process.
pub struct Interpreter {
    in_flight: SharedInFlight,
}

impl Interpreter {
    /// Create an interpreter around the shared slot.
    pub fn new(in_flight: SharedInFlight) -> Self {
        Interpreter { in_flight }
    }
}

impl Process for Interpreter {
    fn name(&self) -> &str {
        "liteview-interpreter"
    }

    fn image(&self) -> ProcessImage {
        // Runs on the workstation-attached mote; similar scale to the
        // controller.
        ProcessImage {
            flash_bytes: 4200,
            ram_bytes: 400,
        }
    }

    fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
        ctx.subscribe(WORKSTATION_PORT);
    }

    fn on_timer(&mut self, ctx: &mut SysCtx<'_>, token: u32) {
        if token != KICK {
            return;
        }
        let mut slot = self.in_flight.borrow_mut();
        let Some(fl) = slot.as_mut() else {
            return;
        };
        if fl.command == Command::GroupStatus {
            // A survey that went out answers with the rows it gathers,
            // even none.
            fl.result = CommandResult::GroupStatus(Vec::new());
        }
        let req = Msg::Request(MgmtRequest {
            req_id: fl.req_id,
            reply_node: ctx.node_id,
            reply_port: WORKSTATION_PORT.0,
            cmd: fl.command.clone(),
        });
        // One hop to the target's runtime controller (GROUP_TARGET is
        // the link-layer broadcast: every controller in range answers,
        // each after its own random backoff).
        ctx.send(
            fl.target,
            Port::MANAGEMENT,
            Port::MANAGEMENT,
            req.encode(),
            false,
        );
        ctx.log("ws", format!("issued req {}", fl.req_id));
    }

    fn on_packet(&mut self, ctx: &mut SysCtx<'_>, packet: &NetPacket, _meta: RxMeta) {
        let mut slot = self.in_flight.borrow_mut();
        let Some(fl) = slot.as_mut() else {
            return;
        };
        match Msg::decode(&packet.payload) {
            Ok(Msg::Response(resp)) if resp.req_id == fl.req_id => {
                fl.land(resp.from, resp.reply, ctx.now);
            }
            Ok(Msg::Batch(chunk)) => {
                if let Some(ack) = fl.land_chunk(chunk, ctx.now) {
                    // Acks flow back on the management port, one hop.
                    ctx.send(
                        packet.header.origin,
                        Port::MANAGEMENT,
                        Port::MANAGEMENT,
                        Msg::Batch(ack).encode(),
                        false,
                    );
                }
            }
            _ => {}
        }
    }
}
