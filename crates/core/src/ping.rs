//! The ping command (Section IV.C.5, Figure 3).
//!
//! "This command is implemented as an individual thread running
//! concurrently with the kernel … It subscribes to a unique
//! communication port, so that two ping processes can exchange packets
//! via communication links. On the sender side, the process first gets
//! the current timestamp using a high-resolution, cycle-accurate timer
//! … As the sender receives the reply, it calculates the difference in
//! the timestamps as the RTT … we only obtain timing information on the
//! same node (the sender). Therefore, no network level synchronization
//! service is needed."
//!
//! One-hop pings address the destination directly; multi-hop pings hand
//! the probe to whatever routing protocol the user named with `port=`,
//! with link-quality padding enabled so the reply carries the per-hop
//! forward profile and accumulates the backward profile on its way home.

use crate::commands::{session_port, PingOutcome};
use crate::wire::{MgmtReply, MgmtResponse, Msg, PingRound, Probe};
use lv_kernel::{Process, ProcessImage, RxMeta, SysCtx};
use lv_net::packet::{NetPacket, Port};
use lv_sim::{SimDuration, SimTime};

/// Per-round reply timeout — the command's fixed 500 ms response delay.
const ROUND_TIMEOUT: SimDuration = SimDuration::from_millis(500);

#[derive(Debug)]
struct Config {
    dst: u16,
    rounds: u8,
    length: u8,
    carry: Option<Port>,
    session: u16,
    reply_node: u16,
    reply_port: u8,
    #[allow(dead_code)]
    req_id: u8,
}

fn parse_config(tokens: &[&str]) -> Option<Config> {
    if tokens.len() < 8 {
        return None;
    }
    let port_raw: u8 = tokens[3].parse().ok()?;
    Some(Config {
        dst: tokens[0].parse().ok()?,
        rounds: tokens[1].parse().ok()?,
        length: tokens[2].parse().ok()?,
        carry: (port_raw != 0).then_some(Port(port_raw)),
        session: tokens[4].parse().ok()?,
        reply_node: tokens[5].parse().ok()?,
        reply_port: tokens[6].parse().ok()?,
        req_id: tokens[7].parse().ok()?,
    })
}

/// The prober-side ping process.
pub struct PingProcess {
    cfg: Option<Config>,
    current_seq: u8,
    sent_at: SimTime,
    sent: u8,
    received: u8,
    rounds: Vec<PingRound>,
    req_id: u8,
}

impl PingProcess {
    /// Create an unconfigured ping process (configured from the
    /// parameter buffer at start, per the paper's parameter-passing
    /// mechanism).
    pub fn new() -> Self {
        PingProcess {
            cfg: None,
            current_seq: 0,
            sent_at: SimTime::ZERO,
            sent: 0,
            received: 0,
            rounds: Vec::new(),
            req_id: 0,
        }
    }

    fn send_probe(&mut self, ctx: &mut SysCtx<'_>) {
        // Start always configures before probing; an unconfigured
        // process simply stays idle instead of aborting the node.
        let Some(cfg) = self.cfg.as_ref() else { return };
        let probe = Msg::PingProbe(Probe {
            session: cfg.session,
            seq: self.current_seq,
            reply_port: session_port(cfg.session).0,
            length: cfg.length,
        });
        let carrying = cfg.carry.unwrap_or(Port::PING);
        // Padding is only meaningful over multiple hops.
        let padding = cfg.carry.is_some();
        self.sent_at = ctx.now;
        self.sent += 1;
        ctx.send(cfg.dst, carrying, Port::PING, probe.encode(), padding);
        ctx.set_timer(self.current_seq as u32, ROUND_TIMEOUT);
    }

    fn advance(&mut self, ctx: &mut SysCtx<'_>) {
        let Some(cfg) = self.cfg.as_ref() else { return };
        if self.current_seq as u32 + 1 < cfg.rounds.max(1) as u32 {
            self.current_seq += 1;
            self.send_probe(ctx);
        } else {
            self.finish(ctx);
        }
    }

    fn finish(&mut self, ctx: &mut SysCtx<'_>) {
        let Some(cfg) = self.cfg.as_ref() else { return };
        let mut summary = PingOutcome {
            target: cfg.dst,
            sent: self.sent,
            received: self.received,
            power: ctx.power.level(),
            channel: ctx.channel.number(),
            rounds: self.rounds.clone(),
        };
        summary.fit_to_wire();
        let resp = Msg::Response(MgmtResponse {
            req_id: self.req_id,
            from: ctx.node_id,
            reply: MgmtReply::PingSummary(summary),
        });
        let app = Port(cfg.reply_port);
        ctx.send(cfg.reply_node, app, app, resp.encode(), false);
        ctx.log("ping", format!("done: {}/{}", self.received, self.sent));
        ctx.exit();
    }
}

impl Default for PingProcess {
    fn default() -> Self {
        Self::new()
    }
}

impl Process for PingProcess {
    fn name(&self) -> &str {
        "ping"
    }

    fn image(&self) -> ProcessImage {
        // The paper's measured footprint: 2148 B flash, 278 B RAM.
        ProcessImage::PING
    }

    fn on_start(&mut self, ctx: &mut SysCtx<'_>) {
        let tokens = ctx.param_tokens();
        let Some(cfg) = parse_config(&tokens) else {
            ctx.log("ping", "bad parameters");
            ctx.exit();
            return;
        };
        ctx.subscribe(session_port(cfg.session));
        self.req_id = cfg.req_id;
        self.cfg = Some(cfg);
        self.send_probe(ctx);
    }

    fn on_packet(&mut self, ctx: &mut SysCtx<'_>, packet: &NetPacket, meta: RxMeta) {
        let Some(cfg) = self.cfg.as_ref() else { return };
        let Ok(Msg::PingReply(reply)) = Msg::decode(&packet.payload) else {
            return;
        };
        if reply.session != cfg.session || reply.seq != self.current_seq {
            return; // stale round
        }
        let rtt = ctx.now.saturating_since(self.sent_at);
        self.received += 1;
        self.rounds.push(PingRound {
            seq: reply.seq,
            rtt_us: rtt.as_micros().min(u32::MAX as u64) as u32,
            lqi_fwd: reply.lqi_in,
            lqi_bwd: meta.lqi,
            rssi_fwd: reply.rssi_in,
            rssi_bwd: meta.rssi,
            queue_fwd: reply.queue,
            queue_bwd: ctx.queue_len.min(255) as u8,
            fwd_hops: reply.fwd_hops.clone(),
            bwd_hops: packet.hop_qualities(),
        });
        self.advance(ctx);
    }

    fn on_timer(&mut self, ctx: &mut SysCtx<'_>, token: u32) {
        // A round timer. Only the current round's timer matters; replies
        // already advance the sequence, making older timers stale.
        if token == self.current_seq as u32 && self.rounds.iter().all(|r| r.seq as u32 != token) {
            self.advance(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_params() {
        let cfg = parse_config(&["2", "3", "32", "10", "517", "0", "4", "9"]).unwrap();
        assert_eq!(cfg.dst, 2);
        assert_eq!(cfg.rounds, 3);
        assert_eq!(cfg.length, 32);
        assert_eq!(cfg.carry, Some(Port(10)));
        assert_eq!(cfg.session, 517);
        assert_eq!(cfg.reply_node, 0);
        assert_eq!(cfg.reply_port, 4);
    }

    #[test]
    fn port_zero_means_one_hop() {
        let cfg = parse_config(&["2", "1", "32", "0", "5", "0", "4", "9"]).unwrap();
        assert_eq!(cfg.carry, None);
    }

    #[test]
    fn short_params_rejected() {
        assert!(parse_config(&["2", "1"]).is_none());
        assert!(parse_config(&[]).is_none());
        assert!(parse_config(&["x", "1", "32", "0", "5", "0", "4", "9"]).is_none());
    }

    #[test]
    fn image_matches_paper() {
        let p = PingProcess::new();
        assert_eq!(p.image().flash_bytes, 2148);
        assert_eq!(p.image().ram_bytes, 278);
    }
}
