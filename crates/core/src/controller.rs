//! The LiteView runtime controller — the node-side half of the toolkit.
//!
//! "On the node side, LiteView implements a runtime controller that
//! interacts with the command interpreter. This controller … provides
//! comprehensive visibility on neighborhood management … \[and\] executes
//! user commands." (Section IV.B.)
//!
//! The controller is a resident process on every node. It:
//!
//! * answers management requests (radio configuration, neighborhood
//!   management, status) after a **random backoff** so replies from a
//!   group of nodes do not collide;
//! * streams multi-packet replies (neighbor tables) through the
//!   loss-adaptive batch protocol of [`crate::protocol`];
//! * answers ping and traceroute probes (the always-on responder halves
//!   of those commands);
//! * spawns the ping / traceroute command processes on demand, passing
//!   their arguments through the kernel's parameter buffer — so an idle
//!   node pays only this controller's footprint ("zero extra overhead
//!   if not activated").

use crate::commands::Command;
use crate::ping::PingProcess;
use crate::protocol::{BatchSender, SendStep};
use crate::traceroute::{TrHopProcess, TrSourceProcess};
use crate::wire::{
    encode_rows, BatchMsg, MgmtReply, MgmtRequest, MgmtResponse, Msg, PingReply, Probe, Row,
    TrProbeReply, TrTask, WireLogEntry, WireNeighbor,
};
use lv_kernel::{Process, ProcessImage, RxMeta, SysCtx};
use lv_net::neighbors::NeighborEntry;
use lv_net::packet::{NetPacket, Port};
use lv_radio::Channel;
use lv_radio::PowerLevel;
use lv_sim::SimDuration;
use std::collections::BTreeMap;

/// Upper bound of the random reply backoff. The 500 ms command window
/// is "intentionally longer than needed … to allow nodes to add random
/// waiting time before sending back replies".
const REPLY_JITTER_MAX: SimDuration = SimDuration::from_millis(250);
/// Ack timeout for one batch of a multi-packet reply.
const BATCH_TIMEOUT: SimDuration = SimDuration::from_millis(300);
/// Neighbor rows per batch chunk (bounded by the 64-byte payload).
const ROWS_PER_CHUNK: usize = 2;
/// Log records per batch chunk (a record can reach ~35 bytes).
const LOGS_PER_CHUNK: usize = 1;

struct PendingSend {
    dst: u16,
    carry: Port,
    app: Port,
    payload: Vec<u8>,
}

/// Actions deferred until after a jittered reply has left.
enum Deferred {
    SetChannel(Channel),
}

struct BatchTx {
    sender: BatchSender,
    dst: u16,
    app: Port,
    timer_token: u32,
}

/// The resident controller process.
pub struct RuntimeController {
    next_session: u16,
    next_token: u32,
    pending: BTreeMap<u32, PendingSend>,
    deferred: BTreeMap<u32, Deferred>,
    batches: BTreeMap<u8, BatchTx>,
}

impl RuntimeController {
    /// Create the controller for installation on a node.
    pub fn new() -> Self {
        RuntimeController {
            next_session: 1,
            next_token: 1,
            pending: BTreeMap::new(),
            deferred: BTreeMap::new(),
            batches: BTreeMap::new(),
        }
    }

    fn alloc_token(&mut self) -> u32 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    fn alloc_session(&mut self, ctx: &SysCtx<'_>) -> u16 {
        let s = self.next_session;
        self.next_session = self.next_session.wrapping_add(1);
        // Disambiguate across nodes: fold the node id into the high bits.
        (ctx.node_id << 8) ^ s
    }

    /// Queue a one-hop reply after a random backoff; returns the delay.
    fn reply_later(
        &mut self,
        ctx: &mut SysCtx<'_>,
        dst: u16,
        app: Port,
        payload: Vec<u8>,
    ) -> SimDuration {
        let token = self.alloc_token();
        let delay = SimDuration::from_nanos(ctx.rng.below(REPLY_JITTER_MAX.as_nanos()));
        self.pending.insert(
            token,
            PendingSend {
                dst,
                carry: app,
                app,
                payload,
            },
        );
        ctx.set_timer(token, delay);
        delay
    }

    fn respond(
        &mut self,
        ctx: &mut SysCtx<'_>,
        req: &MgmtRequest,
        reply: MgmtReply,
    ) -> SimDuration {
        let resp = Msg::Response(MgmtResponse {
            req_id: req.req_id,
            from: ctx.node_id,
            reply,
        });
        self.reply_later(ctx, req.reply_node, Port(req.reply_port), resp.encode())
    }

    fn run_batch_steps(&mut self, ctx: &mut SysCtx<'_>, req_id: u8, steps: Vec<SendStep>) {
        let Some(batch) = self.batches.get(&req_id) else {
            return;
        };
        let (dst, app) = (batch.dst, batch.app);
        let mut arm = false;
        let mut finished = false;
        for step in steps {
            match step {
                SendStep::Transmit(msg) => {
                    ctx.send(dst, app, app, Msg::Batch(msg).encode(), false);
                }
                SendStep::ArmTimer => arm = true,
                SendStep::Done | SendStep::Abort => finished = true,
            }
        }
        if finished {
            self.batches.remove(&req_id);
        } else if arm {
            let token = self.alloc_token();
            if let Some(batch) = self.batches.get_mut(&req_id) {
                batch.timer_token = token;
            }
            ctx.set_timer(token, BATCH_TIMEOUT);
        }
    }

    fn neighbor_rows(neighbors: &[NeighborEntry], with_quality: bool) -> Vec<WireNeighbor> {
        neighbors
            .iter()
            .map(|n| WireNeighbor {
                id: n.id,
                inbound_q: if with_quality {
                    (n.inbound() * 255.0).round().clamp(0.0, 255.0) as u8
                } else {
                    0
                },
                outbound_q: if with_quality {
                    n.outbound
                        .map(|o| (o * 255.0).round().clamp(0.0, 255.0) as u8)
                } else {
                    None
                },
                blacklisted: n.blacklisted,
                tree_hops: n.tree_hops,
                name: n.name.clone(),
            })
            .collect()
    }

    /// Stream `rows` back to the requester through the batch protocol,
    /// `per_chunk` rows per chunk (one empty chunk for no rows).
    fn send_rows<T: Row>(
        &mut self,
        ctx: &mut SysCtx<'_>,
        req: &MgmtRequest,
        rows: &[T],
        per_chunk: usize,
    ) {
        let mut chunks: Vec<Vec<u8>> = rows.chunks(per_chunk).map(encode_rows).collect();
        if chunks.is_empty() {
            chunks.push(encode_rows::<T>(&[]));
        }
        let mut sender = BatchSender::new(req.req_id, chunks);
        let steps = sender.start();
        self.batches.insert(
            req.req_id,
            BatchTx {
                sender,
                dst: req.reply_node,
                app: Port(req.reply_port),
                timer_token: 0,
            },
        );
        self.run_batch_steps(ctx, req.req_id, steps);
    }

    fn handle_request(&mut self, ctx: &mut SysCtx<'_>, req: MgmtRequest) {
        ctx.log("mgmt", format!("request {:?}", req.cmd));
        match req.cmd {
            Command::Status | Command::GroupStatus => {
                let reply = MgmtReply::Status {
                    power: ctx.power.level(),
                    channel: ctx.channel.number(),
                    queue: ctx.queue_len.min(255) as u8,
                    neighbors: ctx.neighbors.len().min(255) as u8,
                };
                self.respond(ctx, &req, reply);
            }
            Command::GetPower => {
                let reply = MgmtReply::Power(ctx.power.level());
                self.respond(ctx, &req, reply);
            }
            Command::SetPower(level) => match PowerLevel::new(level) {
                Some(p) => {
                    ctx.set_power(p);
                    self.respond(ctx, &req, MgmtReply::Ok);
                }
                None => {
                    self.respond(ctx, &req, MgmtReply::Error(1));
                }
            },
            Command::GetChannel => {
                let reply = MgmtReply::Channel(ctx.channel.number());
                self.respond(ctx, &req, reply);
            }
            Command::SetChannel(number) => match Channel::new(number) {
                Some(c) => {
                    // The reply must still leave on the *old* channel —
                    // the workstation would otherwise lose contact — so
                    // the retune is deferred until after the jittered
                    // reply plus its airtime.
                    let delay = self.respond(ctx, &req, MgmtReply::Ok);
                    let token = self.alloc_token();
                    self.deferred.insert(token, Deferred::SetChannel(c));
                    ctx.set_timer(token, delay + SimDuration::from_millis(50));
                }
                None => {
                    self.respond(ctx, &req, MgmtReply::Error(1));
                }
            },
            Command::NeighborList { with_quality } => {
                let rows = Self::neighbor_rows(ctx.neighbors, with_quality);
                self.send_rows(ctx, &req, &rows, ROWS_PER_CHUNK);
            }
            Command::Blacklist { neighbor, add } => {
                let known = ctx.neighbors.iter().any(|n| n.id == neighbor);
                if known {
                    ctx.blacklist(neighbor, add);
                    self.respond(ctx, &req, MgmtReply::Ok);
                } else {
                    self.respond(ctx, &req, MgmtReply::Error(3));
                }
            }
            Command::UpdateBeacon { period } => {
                if period.is_zero() {
                    self.respond(ctx, &req, MgmtReply::Error(1));
                } else {
                    ctx.set_beacon_period(period);
                    self.respond(ctx, &req, MgmtReply::Ok);
                }
            }
            Command::SetLogging(on) => {
                ctx.set_logging(on);
                self.respond(ctx, &req, MgmtReply::Ok);
            }
            Command::Ping {
                dst,
                rounds,
                length,
                port,
            } => {
                if port.is_some_and(|p| ctx.router_name(p).is_none()) {
                    self.respond(ctx, &req, MgmtReply::Error(2));
                    return;
                }
                let session = self.alloc_session(ctx);
                let params = format!(
                    "{dst} {rounds} {length} {} {session} {} {} {}",
                    port.map_or(0, |p| p.0),
                    req.reply_node,
                    req.reply_port,
                    req.req_id
                );
                ctx.spawn(Box::new(PingProcess::new()), params.into_bytes());
            }
            Command::Traceroute { dst, length, port } => {
                let Some(protocol) = ctx.router_name(port) else {
                    self.respond(ctx, &req, MgmtReply::Error(2));
                    return;
                };
                // Sent immediately (not jittered): the first hop reports
                // can arrive within milliseconds and the protocol banner
                // must precede them.
                let resp = Msg::Response(MgmtResponse {
                    req_id: req.req_id,
                    from: ctx.node_id,
                    reply: MgmtReply::TracerouteInfo {
                        protocol: protocol.to_owned(),
                    },
                });
                let app = Port(req.reply_port);
                ctx.send(req.reply_node, app, app, resp.encode(), false);
                let session = self.alloc_session(ctx);
                let params = format!(
                    "{dst} {length} {} {session} {} {} {}",
                    port.0, req.reply_node, req.reply_port, req.req_id
                );
                ctx.spawn(Box::new(TrSourceProcess::new()), params.into_bytes());
            }
            Command::ReadLog { max } => {
                let take = (max as usize).min(ctx.log_entries.len());
                let start = ctx.log_entries.len() - take;
                let rows: Vec<WireLogEntry> = ctx.log_entries[start..]
                    .iter()
                    .map(|e| WireLogEntry {
                        time_ms: e.at.as_millis().min(u32::MAX as u64) as u32,
                        code: e.code.to_owned(),
                        detail: e.detail.clone(),
                    })
                    .collect();
                self.send_rows(ctx, &req, &rows, LOGS_PER_CHUNK);
            }
        }
    }

    fn handle_ping_probe(ctx: &mut SysCtx<'_>, packet: &NetPacket, meta: RxMeta, probe: Probe) {
        let reply = Msg::PingReply(PingReply {
            session: probe.session,
            seq: probe.seq,
            lqi_in: meta.lqi,
            rssi_in: meta.rssi,
            queue: ctx.queue_len.min(255) as u8,
            fwd_hops: packet.hop_qualities(),
        });
        // Replies return over the same carrying port the probe used, so
        // multi-hop pings are answered over the same routing protocol.
        ctx.send(
            packet.header.origin,
            packet.header.port,
            Port(probe.reply_port),
            reply.encode(),
            packet.header.flags.padding_enabled,
        );
    }

    fn handle_tr_probe(ctx: &mut SysCtx<'_>, packet: &NetPacket, meta: RxMeta, probe: Probe) {
        let reply = Msg::TrProbeReply(TrProbeReply {
            session: probe.session,
            seq: probe.seq,
            lqi_in: meta.lqi,
            rssi_in: meta.rssi,
            queue: ctx.queue_len.min(255) as u8,
        });
        ctx.send(
            packet.header.origin,
            packet.header.port,
            Port(probe.reply_port),
            reply.encode(),
            false,
        );
    }

    fn handle_tr_task(ctx: &mut SysCtx<'_>, task: TrTask) {
        let params = format!(
            "{} {} {} {} {} {} {}",
            task.session,
            task.origin,
            task.origin_port,
            task.dst,
            task.carry_port,
            task.hop_index,
            task.length
        );
        ctx.spawn(Box::new(TrHopProcess::new()), params.into_bytes());
    }
}

impl Default for RuntimeController {
    fn default() -> Self {
        Self::new()
    }
}

impl Process for RuntimeController {
    fn name(&self) -> &str {
        "liteview-controller"
    }

    fn image(&self) -> ProcessImage {
        // The resident controller: comparable to the command images the
        // paper reports, plus the batch machinery.
        ProcessImage {
            flash_bytes: 3600,
            ram_bytes: 320,
        }
    }

    fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
        ctx.subscribe(Port::MANAGEMENT);
        ctx.subscribe(Port::PING);
        ctx.subscribe(Port::TRACEROUTE);
    }

    fn on_packet(&mut self, ctx: &mut SysCtx<'_>, packet: &NetPacket, meta: RxMeta) {
        let Ok(msg) = Msg::decode(&packet.payload) else {
            return;
        };
        match (packet.header.app_port, msg) {
            (Port::MANAGEMENT, Msg::Request(req)) => self.handle_request(ctx, req),
            (Port::MANAGEMENT, Msg::Batch(BatchMsg::Ack { req_id, missing })) => {
                if let Some(batch) = self.batches.get_mut(&req_id) {
                    let steps = batch.sender.on_ack(&missing);
                    self.run_batch_steps(ctx, req_id, steps);
                }
            }
            (Port::PING, Msg::PingProbe(probe)) => {
                Self::handle_ping_probe(ctx, packet, meta, probe)
            }
            (Port::TRACEROUTE, Msg::TrProbe(probe)) => {
                Self::handle_tr_probe(ctx, packet, meta, probe);
            }
            (Port::TRACEROUTE, Msg::TrTask(task)) => Self::handle_tr_task(ctx, task),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut SysCtx<'_>, token: u32) {
        if let Some(send) = self.pending.remove(&token) {
            ctx.send(send.dst, send.carry, send.app, send.payload, false);
            return;
        }
        if let Some(action) = self.deferred.remove(&token) {
            match action {
                Deferred::SetChannel(c) => ctx.set_channel(c),
            }
            return;
        }
        // A batch ack timer. Stale tokens (superseded by an ack that
        // re-armed) are ignored.
        let hit: Option<u8> = self
            .batches
            .iter()
            .find(|(_, b)| b.timer_token == token)
            .map(|(&id, _)| id);
        if let Some(req_id) = hit {
            let steps = self
                .batches
                .get_mut(&req_id)
                .map(|b| b.sender.on_timeout())
                .unwrap_or_default();
            self.run_batch_steps(ctx, req_id, steps);
        }
    }
}
