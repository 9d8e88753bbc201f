//! The traceroute command (Section IV.C.6, Figure 4).
//!
//! "When this command is invoked … on each hop along the path, the
//! intermediate node temporarily becomes a sender, and will initiate a
//! traceroute task. … It sends a probe to the next node … waits for the
//! reply … obtains both the RTT value and the link quality information.
//! This intermediate node then puts such information into a report
//! packet, and delivers it to the source node … For a path composed of
//! multiple hops, the source receives multiple reports from different
//! nodes, so that it gathers the path quality information of the entire
//! path."
//!
//! Because every hop reports independently, traceroute needs no padding
//! and is "fundamentally more scalable compared to the multi-hop ping
//! command" — the ablation bench quantifies exactly that trade.
//!
//! Two processes implement it:
//!
//! * [`TrSourceProcess`] — spawned on the node the user is logged into;
//!   runs the first hop's task, relays every hop report to the
//!   workstation live (so per-hop response delays — Fig. 5 — are
//!   measured where the user sits), and signals completion.
//! * [`TrHopProcess`] — spawned on each intermediate node by a
//!   [`TrTask`] handoff; probes its next hop, reports to the source,
//!   passes the task onward, and exits.

use crate::commands::session_port;
use crate::wire::{HopRecord, MgmtReply, MgmtResponse, Msg, Probe, TrProbeReply, TrReport, TrTask};
use lv_kernel::{Process, ProcessImage, RxMeta, SysCtx};
use lv_net::packet::{NetPacket, Port};
use lv_sim::{SimDuration, SimTime};

/// Probe-reply timeout per hop.
const PROBE_TIMEOUT: SimDuration = SimDuration::from_millis(500);
/// The source declares the command over after this much report silence.
const IDLE_TIMEOUT: SimDuration = SimDuration::from_millis(1_500);

/// Timer tokens. Idle-watchdog tokens carry a generation number so a
/// stale watchdog (superseded by a re-arm when a report arrived) is
/// recognizably old and ignored.
const TOKEN_PROBE: u32 = 1;
const TOKEN_IDLE_BASE: u32 = 1000;

/// The shared per-hop task: probe `next`, build a [`HopRecord`].
#[derive(Debug)]
struct HopTask {
    session: u16,
    dst: u16,
    carry: Port,
    hop_index: u8,
    length: u8,
    next: Option<u16>,
    sent_at: SimTime,
    done: bool,
}

impl HopTask {
    fn new(session: u16, dst: u16, carry: Port, hop_index: u8, length: u8) -> Self {
        HopTask {
            session,
            dst,
            carry,
            hop_index,
            length,
            next: None,
            sent_at: SimTime::ZERO,
            done: false,
        }
    }

    /// Resolve the next hop and send the probe. Returns `false` when
    /// there is no route (a no-route record should be reported).
    fn begin(&mut self, ctx: &mut SysCtx<'_>) -> bool {
        match ctx.next_hop(self.carry, self.dst) {
            Some(next) => {
                self.next = Some(next);
                let probe = Msg::TrProbe(Probe {
                    session: self.session,
                    seq: self.hop_index,
                    reply_port: session_port(self.session).0,
                    length: self.length,
                });
                self.sent_at = ctx.now;
                // Probes are strictly one-hop: carried on the traceroute
                // port itself, answered by the neighbor's controller.
                ctx.send(
                    next,
                    Port::TRACEROUTE,
                    Port::TRACEROUTE,
                    probe.encode(),
                    false,
                );
                ctx.set_timer(TOKEN_PROBE, PROBE_TIMEOUT);
                true
            }
            None => false,
        }
    }

    fn no_route_record(&self) -> HopRecord {
        HopRecord {
            hop_index: self.hop_index,
            no_route: true,
            ..HopRecord::default()
        }
    }

    fn lost_record(&self) -> HopRecord {
        HopRecord {
            hop_index: self.hop_index,
            far: self.next.unwrap_or(0),
            probe_lost: true,
            ..HopRecord::default()
        }
    }

    /// Build the hop record from a probe reply.
    fn record_from_reply(
        &mut self,
        ctx: &SysCtx<'_>,
        reply: &TrProbeReply,
        meta: RxMeta,
    ) -> Option<HopRecord> {
        if self.done || reply.session != self.session || reply.seq != self.hop_index {
            return None;
        }
        let next = self.next?;
        self.done = true;
        let rtt = ctx.now.saturating_since(self.sent_at);
        Some(HopRecord {
            hop_index: self.hop_index,
            far: next,
            reached_dst: next == self.dst,
            no_route: false,
            probe_lost: false,
            rtt_us: rtt.as_micros().min(u32::MAX as u64) as u32,
            lqi_fwd: reply.lqi_in,
            lqi_bwd: meta.lqi,
            rssi_fwd: reply.rssi_in,
            rssi_bwd: meta.rssi,
            queue_fwd: reply.queue,
            queue_bwd: ctx.queue_len.min(255) as u8,
        })
    }

    /// Hand the task to the next node ("initiate a new traceroute task").
    fn hand_off(&self, ctx: &mut SysCtx<'_>, origin: u16, origin_port: u8) {
        let Some(next) = self.next else { return };
        let task = Msg::TrTask(TrTask {
            session: self.session,
            origin,
            origin_port,
            dst: self.dst,
            carry_port: self.carry.0,
            hop_index: self.hop_index + 1,
            length: self.length,
        });
        ctx.send(
            next,
            Port::TRACEROUTE,
            Port::TRACEROUTE,
            task.encode(),
            false,
        );
    }
}

// ---------------------------------------------------------------------
// Intermediate-hop process
// ---------------------------------------------------------------------

/// The per-hop task process spawned on intermediate nodes.
pub struct TrHopProcess {
    task: Option<HopTask>,
    origin: u16,
    origin_port: u8,
}

impl TrHopProcess {
    /// Create (configured from the parameter buffer at start).
    pub fn new() -> Self {
        TrHopProcess {
            task: None,
            origin: 0,
            origin_port: 0,
        }
    }

    fn report(&self, ctx: &mut SysCtx<'_>, record: HopRecord) {
        let Some(task) = self.task.as_ref() else {
            return;
        };
        let report = Msg::TrReport(TrReport {
            session: task.session,
            record,
        });
        // Reports travel back over the carrying protocol (multi-hop).
        ctx.send(
            self.origin,
            task.carry,
            Port(self.origin_port),
            report.encode(),
            false,
        );
    }
}

impl Default for TrHopProcess {
    fn default() -> Self {
        Self::new()
    }
}

impl Process for TrHopProcess {
    fn name(&self) -> &str {
        "traceroute-hop"
    }

    fn image(&self) -> ProcessImage {
        // The paper's measured footprint: 2820 B flash, 272 B RAM.
        ProcessImage::TRACEROUTE
    }

    fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
        let tokens = ctx.param_tokens();
        let parsed = (|| -> Option<(u16, u16, u8, u16, u8, u8, u8)> {
            if tokens.len() < 7 {
                return None;
            }
            Some((
                tokens[0].parse().ok()?,
                tokens[1].parse().ok()?,
                tokens[2].parse().ok()?,
                tokens[3].parse().ok()?,
                tokens[4].parse().ok()?,
                tokens[5].parse().ok()?,
                tokens[6].parse().ok()?,
            ))
        })();
        let Some((session, origin, origin_port, dst, carry, hop_index, length)) = parsed else {
            ctx.exit();
            return;
        };
        self.origin = origin;
        self.origin_port = origin_port;
        let mut task = HopTask::new(session, dst, Port(carry), hop_index, length);
        ctx.subscribe(session_port(session));
        let routed = task.begin(ctx);
        let no_route = (!routed).then(|| task.no_route_record());
        self.task = Some(task);
        if let Some(record) = no_route {
            self.report(ctx, record);
            ctx.exit();
        }
    }

    fn on_packet(&mut self, ctx: &mut SysCtx<'_>, packet: &NetPacket, meta: RxMeta) {
        let Ok(Msg::TrProbeReply(reply)) = Msg::decode(&packet.payload) else {
            return;
        };
        let Some(task) = self.task.as_mut() else {
            return;
        };
        let Some(record) = task.record_from_reply(ctx, &reply, meta) else {
            return;
        };
        let reached = record.reached_dst;
        self.report(ctx, record);
        if !reached {
            if let Some(task) = self.task.as_ref() {
                task.hand_off(ctx, self.origin, self.origin_port);
            }
        }
        ctx.exit();
    }

    fn on_timer(&mut self, ctx: &mut SysCtx<'_>, token: u32) {
        if token != TOKEN_PROBE {
            return;
        }
        let record = match self.task.as_ref() {
            Some(t) if !t.done => t.lost_record(),
            _ => return,
        };
        self.report(ctx, record);
        ctx.exit();
    }
}

// ---------------------------------------------------------------------
// Source process
// ---------------------------------------------------------------------

#[derive(Debug)]
struct SourceConfig {
    reply_node: u16,
    reply_port: u8,
    req_id: u8,
}

/// The source-side traceroute process (runs hop 1's task, collects and
/// relays all reports, signals completion).
pub struct TrSourceProcess {
    task: Option<HopTask>,
    cfg: Option<SourceConfig>,
    hops_relayed: u8,
    reached: bool,
    finished: bool,
    idle_gen: u32,
}

impl TrSourceProcess {
    /// Create (configured from the parameter buffer at start).
    pub fn new() -> Self {
        TrSourceProcess {
            task: None,
            cfg: None,
            hops_relayed: 0,
            reached: false,
            finished: false,
            idle_gen: 0,
        }
    }

    fn arm_idle(&mut self, ctx: &mut SysCtx<'_>) {
        self.idle_gen += 1;
        ctx.set_timer(TOKEN_IDLE_BASE + self.idle_gen, IDLE_TIMEOUT);
    }

    fn relay(&mut self, ctx: &mut SysCtx<'_>, record: HopRecord) {
        let Some(cfg) = self.cfg.as_ref() else { return };
        self.hops_relayed = self.hops_relayed.saturating_add(1);
        if record.reached_dst {
            self.reached = true;
        }
        let terminal = record.reached_dst || record.no_route || record.probe_lost;
        let resp = Msg::Response(MgmtResponse {
            req_id: cfg.req_id,
            from: ctx.node_id,
            reply: MgmtReply::TracerouteHop(record),
        });
        let app = Port(cfg.reply_port);
        ctx.send(cfg.reply_node, app, app, resp.encode(), false);
        if terminal {
            self.finish(ctx);
        } else {
            self.arm_idle(ctx);
        }
    }

    fn finish(&mut self, ctx: &mut SysCtx<'_>) {
        if self.finished {
            return;
        }
        self.finished = true;
        let Some(cfg) = self.cfg.as_ref() else { return };
        let resp = Msg::Response(MgmtResponse {
            req_id: cfg.req_id,
            from: ctx.node_id,
            reply: MgmtReply::TracerouteDone {
                hops: self.hops_relayed,
                reached: self.reached,
            },
        });
        let app = Port(cfg.reply_port);
        ctx.send(cfg.reply_node, app, app, resp.encode(), false);
        ctx.log("traceroute", format!("done: {} hops", self.hops_relayed));
        ctx.exit();
    }
}

impl Default for TrSourceProcess {
    fn default() -> Self {
        Self::new()
    }
}

impl Process for TrSourceProcess {
    fn name(&self) -> &str {
        "traceroute"
    }

    fn image(&self) -> ProcessImage {
        ProcessImage::TRACEROUTE
    }

    fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
        let tokens = ctx.param_tokens();
        let parsed = (|| -> Option<(u16, u8, u8, u16, u16, u8, u8)> {
            if tokens.len() < 7 {
                return None;
            }
            Some((
                tokens[0].parse().ok()?, // dst
                tokens[1].parse().ok()?, // length
                tokens[2].parse().ok()?, // carry port
                tokens[3].parse().ok()?, // session
                tokens[4].parse().ok()?, // reply node
                tokens[5].parse().ok()?, // reply port
                tokens[6].parse().ok()?, // req id
            ))
        })();
        let Some((dst, length, carry, session, reply_node, reply_port, req_id)) = parsed else {
            ctx.exit();
            return;
        };
        self.cfg = Some(SourceConfig {
            reply_node,
            reply_port,
            req_id,
        });
        let mut task = HopTask::new(session, dst, Port(carry), 1, length);
        ctx.subscribe(session_port(session));
        let routed = task.begin(ctx);
        let no_route = (!routed).then(|| task.no_route_record());
        self.task = Some(task);
        self.arm_idle(ctx);
        if let Some(record) = no_route {
            self.relay(ctx, record);
        }
    }

    fn on_packet(&mut self, ctx: &mut SysCtx<'_>, packet: &NetPacket, meta: RxMeta) {
        match Msg::decode(&packet.payload) {
            // Reply to our own hop-1 probe.
            Ok(Msg::TrProbeReply(reply)) => {
                let Some(task) = self.task.as_mut() else {
                    return;
                };
                let Some(record) = task.record_from_reply(ctx, &reply, meta) else {
                    return;
                };
                if !record.reached_dst {
                    if let Some(task) = self.task.as_ref() {
                        let (origin, origin_port) = (ctx.node_id, session_port(task.session).0);
                        task.hand_off(ctx, origin, origin_port);
                    }
                }
                self.relay(ctx, record);
            }
            // A report from a downstream hop.
            Ok(Msg::TrReport(report))
                if self
                    .task
                    .as_ref()
                    .is_some_and(|t| t.session == report.session) =>
            {
                self.relay(ctx, report.record);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut SysCtx<'_>, token: u32) {
        match token {
            TOKEN_PROBE => {
                let record = match self.task.as_ref() {
                    Some(t) if !t.done => t.lost_record(),
                    _ => return,
                };
                self.relay(ctx, record);
            }
            t if t > TOKEN_IDLE_BASE
                // Idle watchdog: only the newest generation counts; any
                // older one was superseded by a report re-arming it.
                && t == TOKEN_IDLE_BASE + self.idle_gen && !self.finished =>
            {
                self.finish(ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_route_record_flags() {
        let t = HopTask::new(5, 9, Port(10), 3, 32);
        let r = t.no_route_record();
        assert!(r.no_route);
        assert!(!r.reached_dst);
        assert_eq!(r.hop_index, 3);
    }

    #[test]
    fn lost_record_flags() {
        let mut t = HopTask::new(5, 9, Port(10), 2, 32);
        t.next = Some(7);
        let r = t.lost_record();
        assert!(r.probe_lost);
        assert_eq!(r.far, 7);
        assert_eq!(r.hop_index, 2);
    }
}
