//! Wire formats of the LiteView management plane.
//!
//! "The command interpreter … translates each user command into a
//! sequence of radio messages. Each message header corresponds to one
//! unique type, while the command parameters are embedded into message
//! bodies." (Section IV.B.) This module is those message types:
//!
//! * [`MgmtRequest`] / [`MgmtResponse`] — workstation ↔ runtime
//!   controller exchanges on the management port.
//! * [`BatchMsg`] — the reliable batched transfer for multi-packet
//!   replies (neighbor tables), with per-batch acknowledgements.
//! * Probe formats for ping ([`PingProbe`], [`PingReply`]) and
//!   traceroute ([`TrProbe`], [`TrProbeReply`], [`TrTask`],
//!   [`TrReport`]).
//!
//! All formats are length-checked on decode and fit the stack's 64-byte
//! payload area.

use crate::commands::{Command, PingOutcome};
use lv_net::packet::Port;
use lv_net::padding::HopQuality;
use lv_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Errors shared by every decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Buffer too short or length fields inconsistent.
    Truncated,
    /// Unknown message tag.
    BadTag,
}

type WireResult<T> = Result<T, WireError>;

fn need(buf: &[u8], n: usize) -> WireResult<()> {
    if buf.len() < n {
        Err(WireError::Truncated)
    } else {
        Ok(())
    }
}

fn u16_at(buf: &[u8], off: usize) -> u16 {
    // Callers `need()` the length first; a short slice decodes as 0
    // rather than aborting the mote.
    match buf.get(off..off + 2) {
        Some(b) => u16::from_be_bytes([b[0], b[1]]),
        None => 0,
    }
}

// ---------------------------------------------------------------------
// Management requests
// ---------------------------------------------------------------------

/// A framed management request: the user's [`Command`] on its way to
/// the target's runtime controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MgmtRequest {
    /// Correlates replies with requests.
    pub req_id: u8,
    /// Where replies go (the workstation's bridge node).
    pub reply_node: u16,
    /// Port replies go to (the interpreter's port).
    pub reply_port: u8,
    /// The operation.
    pub cmd: Command,
}

impl MgmtRequest {
    /// Outer frame tag distinguishing requests from batch acks sharing
    /// the management port.
    pub const TAG: u8 = 0x20;

    /// Serialize. A survey travels as a status request (its broadcast
    /// address is what makes it a survey), the beacon period as whole
    /// milliseconds clamped to `1..=u32::MAX`, and a one-hop ping as
    /// carrying port 0.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = vec![Self::TAG];
        b.push(self.req_id);
        b.extend_from_slice(&self.reply_node.to_be_bytes());
        b.push(self.reply_port);
        match &self.cmd {
            Command::Status | Command::GroupStatus => b.push(0x01),
            Command::GetPower => b.push(0x02),
            Command::SetPower(p) => {
                b.push(0x03);
                b.push(*p);
            }
            Command::GetChannel => b.push(0x04),
            Command::SetChannel(c) => {
                b.push(0x05);
                b.push(*c);
            }
            Command::NeighborList { with_quality } => {
                b.push(0x06);
                b.push(u8::from(*with_quality));
            }
            Command::Blacklist { neighbor, add } => {
                b.push(0x07);
                b.extend_from_slice(&neighbor.to_be_bytes());
                b.push(u8::from(*add));
            }
            Command::UpdateBeacon { period } => {
                let period_ms = period.as_millis().clamp(1, u64::from(u32::MAX)) as u32;
                b.push(0x08);
                b.extend_from_slice(&period_ms.to_be_bytes());
            }
            Command::SetLogging(on) => {
                b.push(0x09);
                b.push(u8::from(*on));
            }
            Command::Ping {
                dst,
                rounds,
                length,
                port,
            } => {
                b.push(0x0A);
                b.extend_from_slice(&dst.to_be_bytes());
                b.push(*rounds);
                b.push(*length);
                b.push(port.map_or(0, |p| p.0));
            }
            Command::Traceroute { dst, length, port } => {
                b.push(0x0B);
                b.extend_from_slice(&dst.to_be_bytes());
                b.push(*length);
                b.push(port.0);
            }
            Command::ReadLog { max } => {
                b.push(0x0C);
                b.push(*max);
            }
        }
        b
    }

    /// Parse. The command comes back in its decoded form: a status
    /// request is [`Command::Status`], and carrying port 0 is a one-hop
    /// ping.
    pub fn decode(buf: &[u8]) -> WireResult<MgmtRequest> {
        need(buf, 6)?;
        if buf[0] != Self::TAG {
            return Err(WireError::BadTag);
        }
        let req_id = buf[1];
        let reply_node = u16_at(buf, 2);
        let reply_port = buf[4];
        let tag = buf[5];
        let rest = &buf[6..];
        let cmd = match tag {
            0x01 => Command::Status,
            0x02 => Command::GetPower,
            0x03 => {
                need(rest, 1)?;
                Command::SetPower(rest[0])
            }
            0x04 => Command::GetChannel,
            0x05 => {
                need(rest, 1)?;
                Command::SetChannel(rest[0])
            }
            0x06 => {
                need(rest, 1)?;
                Command::NeighborList {
                    with_quality: rest[0] != 0,
                }
            }
            0x07 => {
                need(rest, 3)?;
                Command::Blacklist {
                    neighbor: u16_at(rest, 0),
                    add: rest[2] != 0,
                }
            }
            0x08 => {
                need(rest, 4)?;
                let ms = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]);
                Command::UpdateBeacon {
                    period: SimDuration::from_millis(u64::from(ms)),
                }
            }
            0x09 => {
                need(rest, 1)?;
                Command::SetLogging(rest[0] != 0)
            }
            0x0A => {
                need(rest, 5)?;
                Command::Ping {
                    dst: u16_at(rest, 0),
                    rounds: rest[2],
                    length: rest[3],
                    port: (rest[4] != 0).then_some(Port(rest[4])),
                }
            }
            0x0B => {
                need(rest, 4)?;
                Command::Traceroute {
                    dst: u16_at(rest, 0),
                    length: rest[2],
                    port: Port(rest[3]),
                }
            }
            0x0C => {
                need(rest, 1)?;
                Command::ReadLog { max: rest[0] }
            }
            _ => return Err(WireError::BadTag),
        };
        Ok(MgmtRequest {
            req_id,
            reply_node,
            reply_port,
            cmd,
        })
    }
}

// ---------------------------------------------------------------------
// Management replies
// ---------------------------------------------------------------------

/// A neighbor-table row on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireNeighbor {
    /// Neighbor id.
    pub id: u16,
    /// Inbound quality byte (0–255).
    pub inbound_q: u8,
    /// Outbound quality byte, if known.
    pub outbound_q: Option<u8>,
    /// Blacklist bit.
    pub blacklisted: bool,
    /// Advertised tree gradient.
    pub tree_hops: u8,
    /// Neighbor name (≤ 15 bytes).
    pub name: String,
}

impl WireNeighbor {
    fn encode_into(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(&self.id.to_be_bytes());
        b.push(self.inbound_q);
        b.push(self.outbound_q.unwrap_or(0));
        let mut flags = 0u8;
        if self.blacklisted {
            flags |= 1;
        }
        if self.outbound_q.is_some() {
            flags |= 2;
        }
        b.push(flags);
        b.push(self.tree_hops);
        let name = &self.name.as_bytes()[..self.name.len().min(15)];
        b.push(name.len() as u8);
        b.extend_from_slice(name);
    }

    fn decode_from(buf: &[u8]) -> WireResult<(WireNeighbor, usize)> {
        need(buf, 7)?;
        let id = u16_at(buf, 0);
        let inbound_q = buf[2];
        let out_raw = buf[3];
        let flags = buf[4];
        let tree_hops = buf[5];
        let name_len = buf[6] as usize;
        need(buf, 7 + name_len)?;
        let name =
            String::from_utf8(buf[7..7 + name_len].to_vec()).map_err(|_| WireError::Truncated)?;
        Ok((
            WireNeighbor {
                id,
                inbound_q,
                outbound_q: (flags & 2 != 0).then_some(out_raw),
                blacklisted: flags & 1 != 0,
                tree_hops,
                name,
            },
            7 + name_len,
        ))
    }

    /// Encode a run of rows.
    pub fn encode_list(rows: &[WireNeighbor]) -> Vec<u8> {
        let mut b = vec![rows.len() as u8];
        for r in rows {
            r.encode_into(&mut b);
        }
        b
    }

    /// Decode a run of rows.
    pub fn decode_list(buf: &[u8]) -> WireResult<Vec<WireNeighbor>> {
        need(buf, 1)?;
        let n = buf[0] as usize;
        let mut off = 1;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let (row, used) = Self::decode_from(&buf[off..])?;
            rows.push(row);
            off += used;
        }
        Ok(rows)
    }
}

/// One measured ping round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PingRound {
    /// Probe sequence number.
    pub seq: u8,
    /// Round-trip time in microseconds.
    pub rtt_us: u32,
    /// LQI of the forward direction (measured at the responder).
    pub lqi_fwd: u8,
    /// LQI of the backward direction (measured at the prober).
    pub lqi_bwd: u8,
    /// RSSI forward.
    pub rssi_fwd: i8,
    /// RSSI backward.
    pub rssi_bwd: i8,
    /// Responder transmit-queue occupancy at probe time.
    pub queue_fwd: u8,
    /// Prober transmit-queue occupancy at reply time.
    pub queue_bwd: u8,
    /// Per-hop forward qualities (multi-hop ping padding data).
    pub fwd_hops: Vec<HopQuality>,
    /// Per-hop backward qualities.
    pub bwd_hops: Vec<HopQuality>,
}

impl PingRound {
    fn encode_into(&self, b: &mut Vec<u8>) {
        b.push(self.seq);
        b.extend_from_slice(&self.rtt_us.to_be_bytes());
        b.push(self.lqi_fwd);
        b.push(self.lqi_bwd);
        b.push(self.rssi_fwd as u8);
        b.push(self.rssi_bwd as u8);
        b.push(self.queue_fwd);
        b.push(self.queue_bwd);
        b.push(self.fwd_hops.len() as u8);
        for h in &self.fwd_hops {
            h.append_to(b);
        }
        b.push(self.bwd_hops.len() as u8);
        for h in &self.bwd_hops {
            h.append_to(b);
        }
    }

    fn decode_from(buf: &[u8]) -> WireResult<(PingRound, usize)> {
        need(buf, 12)?;
        let seq = buf[0];
        let rtt_us = u32::from_be_bytes([buf[1], buf[2], buf[3], buf[4]]);
        let lqi_fwd = buf[5];
        let lqi_bwd = buf[6];
        let rssi_fwd = buf[7] as i8;
        let rssi_bwd = buf[8] as i8;
        let queue_fwd = buf[9];
        let queue_bwd = buf[10];
        let nf = buf[11] as usize;
        need(buf, 12 + 2 * nf + 1)?;
        let fwd_hops = HopQuality::parse_all(&buf[12..12 + 2 * nf]);
        let off = 12 + 2 * nf;
        let nb = buf[off] as usize;
        need(buf, off + 1 + 2 * nb)?;
        let bwd_hops = HopQuality::parse_all(&buf[off + 1..off + 1 + 2 * nb]);
        Ok((
            PingRound {
                seq,
                rtt_us,
                lqi_fwd,
                lqi_bwd,
                rssi_fwd,
                rssi_bwd,
                queue_fwd,
                queue_bwd,
                fwd_hops,
                bwd_hops,
            },
            off + 1 + 2 * nb,
        ))
    }
}

impl PingOutcome {
    /// Truncate the outcome so its enclosing [`MgmtResponse`] fits the
    /// 64-byte payload area: rounds are kept in order, per-round hop
    /// lists shrink first (forward kept preferentially — that is the
    /// path profile the user asked for), then whole rounds are dropped.
    /// The full hop data still reached the prober over the air; only
    /// this last workstation-bound packet is bounded.
    pub fn fit_to_wire(&mut self) {
        // MgmtResponse framing (5) + summary header (7).
        const BUDGET: usize = lv_net::packet::PAYLOAD_AREA - 12;
        let mut used = 0usize;
        let mut kept = 0usize;
        for r in self.rounds.iter_mut() {
            let base = 13; // seq + rtt + lqi×2 + rssi×2 + queue×2 + 2 counts
            if used + base > BUDGET {
                break;
            }
            let hop_budget = (BUDGET - used - base) / HopQuality::WIRE_BYTES;
            if r.fwd_hops.len() > hop_budget {
                r.fwd_hops.truncate(hop_budget);
            }
            let rest = hop_budget - r.fwd_hops.len();
            if r.bwd_hops.len() > rest {
                r.bwd_hops.truncate(rest);
            }
            used += base + HopQuality::WIRE_BYTES * (r.fwd_hops.len() + r.bwd_hops.len());
            kept += 1;
        }
        self.rounds.truncate(kept);
    }
}

/// One traceroute hop record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopRecord {
    /// 1-based hop index along the path.
    pub hop_index: u8,
    /// The far end of this hop (the node that replied).
    pub far: u16,
    /// Whether the far end is the final destination.
    pub reached_dst: bool,
    /// The hop task found no next hop.
    pub no_route: bool,
    /// The probe or its reply was lost.
    pub probe_lost: bool,
    /// Per-hop round-trip time in microseconds.
    pub rtt_us: u32,
    /// LQI forward / backward.
    pub lqi_fwd: u8,
    /// LQI backward.
    pub lqi_bwd: u8,
    /// RSSI forward.
    pub rssi_fwd: i8,
    /// RSSI backward.
    pub rssi_bwd: i8,
    /// Queue occupancy at the far end / near end.
    pub queue_fwd: u8,
    /// Near-end queue occupancy.
    pub queue_bwd: u8,
}

impl HopRecord {
    fn flags(&self) -> u8 {
        u8::from(self.reached_dst)
            | (u8::from(self.no_route) << 1)
            | (u8::from(self.probe_lost) << 2)
    }

    fn encode_into(&self, b: &mut Vec<u8>) {
        b.push(self.hop_index);
        b.extend_from_slice(&self.far.to_be_bytes());
        b.push(self.flags());
        b.extend_from_slice(&self.rtt_us.to_be_bytes());
        b.push(self.lqi_fwd);
        b.push(self.lqi_bwd);
        b.push(self.rssi_fwd as u8);
        b.push(self.rssi_bwd as u8);
        b.push(self.queue_fwd);
        b.push(self.queue_bwd);
    }

    fn decode_from(buf: &[u8]) -> WireResult<HopRecord> {
        need(buf, 14)?;
        Ok(HopRecord {
            hop_index: buf[0],
            far: u16_at(buf, 1),
            reached_dst: buf[3] & 1 != 0,
            no_route: buf[3] & 2 != 0,
            probe_lost: buf[3] & 4 != 0,
            rtt_us: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            lqi_fwd: buf[8],
            lqi_bwd: buf[9],
            rssi_fwd: buf[10] as i8,
            rssi_bwd: buf[11] as i8,
            queue_fwd: buf[12],
            queue_bwd: buf[13],
        })
    }

    /// Byte size of one record.
    pub const WIRE_BYTES: usize = 14;
}

/// Replies flowing back to the workstation's interpreter port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MgmtReply {
    /// Generic success.
    Ok,
    /// Power / channel / queue / neighbor-count snapshot.
    Status {
        /// Power level.
        power: u8,
        /// Channel.
        channel: u8,
        /// Transmit-queue occupancy.
        queue: u8,
        /// Neighbor-table size.
        neighbors: u8,
    },
    /// Current power level.
    Power(u8),
    /// Current channel.
    Channel(u8),
    /// Ping finished: the outcome the workstation returns, cut to fit
    /// the payload area by [`PingOutcome::fit_to_wire`].
    PingSummary(PingOutcome),
    /// Traceroute accepted; names the carrying protocol.
    TracerouteInfo {
        /// e.g. "geographic forwarding".
        protocol: String,
    },
    /// One hop's report, relayed live as it reaches the source.
    TracerouteHop(HopRecord),
    /// Traceroute finished.
    TracerouteDone {
        /// Hop reports relayed.
        hops: u8,
        /// Whether the destination was reached.
        reached: bool,
    },
    /// Command failed (code is deliberately coarse, like an errno).
    Error(u8),
}

/// A framed management response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MgmtResponse {
    /// Echoed request id.
    pub req_id: u8,
    /// The replying node.
    pub from: u16,
    /// The payload.
    pub reply: MgmtReply,
}

impl MgmtResponse {
    /// Outer frame tag distinguishing responses from batch data sharing
    /// the workstation port.
    pub const TAG: u8 = 0x30;

    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = vec![Self::TAG, self.req_id];
        b.extend_from_slice(&self.from.to_be_bytes());
        match &self.reply {
            MgmtReply::Ok => b.push(0x80),
            MgmtReply::Status {
                power,
                channel,
                queue,
                neighbors,
            } => {
                b.push(0x81);
                b.extend_from_slice(&[*power, *channel, *queue, *neighbors]);
            }
            MgmtReply::Power(p) => {
                b.push(0x82);
                b.push(*p);
            }
            MgmtReply::Channel(c) => {
                b.push(0x83);
                b.push(*c);
            }
            MgmtReply::PingSummary(s) => {
                b.push(0x84);
                b.extend_from_slice(&s.target.to_be_bytes());
                b.extend_from_slice(&[s.sent, s.received, s.power, s.channel]);
                b.push(s.rounds.len() as u8);
                for r in &s.rounds {
                    r.encode_into(&mut b);
                }
            }
            MgmtReply::TracerouteInfo { protocol } => {
                b.push(0x85);
                let name = &protocol.as_bytes()[..protocol.len().min(30)];
                b.push(name.len() as u8);
                b.extend_from_slice(name);
            }
            MgmtReply::TracerouteHop(h) => {
                b.push(0x86);
                h.encode_into(&mut b);
            }
            MgmtReply::TracerouteDone { hops, reached } => {
                b.push(0x87);
                b.push(*hops);
                b.push(u8::from(*reached));
            }
            MgmtReply::Error(code) => {
                b.push(0xFF);
                b.push(*code);
            }
        }
        b
    }

    /// Parse.
    pub fn decode(buf: &[u8]) -> WireResult<MgmtResponse> {
        need(buf, 5)?;
        if buf[0] != Self::TAG {
            return Err(WireError::BadTag);
        }
        let req_id = buf[1];
        let from = u16_at(buf, 2);
        let tag = buf[4];
        let rest = &buf[5..];
        let reply = match tag {
            0x80 => MgmtReply::Ok,
            0x81 => {
                need(rest, 4)?;
                MgmtReply::Status {
                    power: rest[0],
                    channel: rest[1],
                    queue: rest[2],
                    neighbors: rest[3],
                }
            }
            0x82 => {
                need(rest, 1)?;
                MgmtReply::Power(rest[0])
            }
            0x83 => {
                need(rest, 1)?;
                MgmtReply::Channel(rest[0])
            }
            0x84 => {
                need(rest, 7)?;
                let target = u16_at(rest, 0);
                let (sent, received, power, channel) = (rest[2], rest[3], rest[4], rest[5]);
                let n = rest[6] as usize;
                let mut off = 7;
                let mut rounds = Vec::with_capacity(n);
                for _ in 0..n {
                    let (r, used) = PingRound::decode_from(&rest[off..])?;
                    rounds.push(r);
                    off += used;
                }
                MgmtReply::PingSummary(PingOutcome {
                    target,
                    sent,
                    received,
                    power,
                    channel,
                    rounds,
                })
            }
            0x85 => {
                need(rest, 1)?;
                let n = rest[0] as usize;
                need(rest, 1 + n)?;
                MgmtReply::TracerouteInfo {
                    protocol: String::from_utf8(rest[1..1 + n].to_vec())
                        .map_err(|_| WireError::Truncated)?,
                }
            }
            0x86 => MgmtReply::TracerouteHop(HopRecord::decode_from(rest)?),
            0x87 => {
                need(rest, 2)?;
                MgmtReply::TracerouteDone {
                    hops: rest[0],
                    reached: rest[1] != 0,
                }
            }
            0xFF => {
                need(rest, 1)?;
                MgmtReply::Error(rest[0])
            }
            _ => return Err(WireError::BadTag),
        };
        Ok(MgmtResponse {
            req_id,
            from,
            reply,
        })
    }
}

/// One event-log record on the wire (fields truncated to mote-scale
/// budgets: the log exists for diagnosis, not archival).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireLogEntry {
    /// Event time in milliseconds since node boot.
    pub time_ms: u32,
    /// Short event code (≤ 10 bytes on the wire).
    pub code: String,
    /// Detail text (≤ 18 bytes on the wire).
    pub detail: String,
}

impl WireLogEntry {
    /// Wire caps.
    pub const MAX_CODE: usize = 10;
    /// Detail cap.
    pub const MAX_DETAIL: usize = 18;

    fn encode_into(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(&self.time_ms.to_be_bytes());
        let code = &self.code.as_bytes()[..self.code.len().min(Self::MAX_CODE)];
        b.push(code.len() as u8);
        b.extend_from_slice(code);
        let detail = truncate_utf8(&self.detail, Self::MAX_DETAIL);
        b.push(detail.len() as u8);
        b.extend_from_slice(detail.as_bytes());
    }

    fn decode_from(buf: &[u8]) -> WireResult<(WireLogEntry, usize)> {
        need(buf, 5)?;
        let time_ms = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
        let code_len = buf[4] as usize;
        need(buf, 5 + code_len + 1)?;
        let code =
            String::from_utf8(buf[5..5 + code_len].to_vec()).map_err(|_| WireError::Truncated)?;
        let off = 5 + code_len;
        let detail_len = buf[off] as usize;
        need(buf, off + 1 + detail_len)?;
        let detail = String::from_utf8(buf[off + 1..off + 1 + detail_len].to_vec())
            .map_err(|_| WireError::Truncated)?;
        Ok((
            WireLogEntry {
                time_ms,
                code,
                detail,
            },
            off + 1 + detail_len,
        ))
    }

    /// Encode a run of records.
    pub fn encode_list(rows: &[WireLogEntry]) -> Vec<u8> {
        let mut b = vec![rows.len() as u8];
        for r in rows {
            r.encode_into(&mut b);
        }
        b
    }

    /// Decode a run of records.
    pub fn decode_list(buf: &[u8]) -> WireResult<Vec<WireLogEntry>> {
        need(buf, 1)?;
        let n = buf[0] as usize;
        let mut off = 1;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let (row, used) = Self::decode_from(&buf[off..])?;
            rows.push(row);
            off += used;
        }
        Ok(rows)
    }
}

/// Truncate a string at a char boundary within `max` bytes.
fn truncate_utf8(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

// ---------------------------------------------------------------------
// Batched transfer (reliable multi-packet replies)
// ---------------------------------------------------------------------

/// Chunked-transfer frames for multi-packet replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchMsg {
    /// One chunk.
    Data {
        /// Request this transfer answers.
        req_id: u8,
        /// Chunk index.
        seq: u8,
        /// Total chunks in the transfer.
        total: u8,
        /// Receiver should acknowledge after this chunk (batch edge).
        ack_after: bool,
        /// Chunk payload.
        payload: Vec<u8>,
    },
    /// Per-batch acknowledgement.
    Ack {
        /// Request id.
        req_id: u8,
        /// Chunk indices (≤ the highest seen) still missing.
        missing: Vec<u8>,
    },
}

impl BatchMsg {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            BatchMsg::Data {
                req_id,
                seq,
                total,
                ack_after,
                payload,
            } => {
                let mut b = vec![0x40, *req_id, *seq, *total, u8::from(*ack_after)];
                b.extend_from_slice(payload);
                b
            }
            BatchMsg::Ack { req_id, missing } => {
                let mut b = vec![0x41, *req_id, missing.len() as u8];
                b.extend_from_slice(missing);
                b
            }
        }
    }

    /// Parse.
    pub fn decode(buf: &[u8]) -> WireResult<BatchMsg> {
        need(buf, 2)?;
        match buf[0] {
            0x40 => {
                need(buf, 5)?;
                Ok(BatchMsg::Data {
                    req_id: buf[1],
                    seq: buf[2],
                    total: buf[3],
                    ack_after: buf[4] != 0,
                    payload: buf[5..].to_vec(),
                })
            }
            0x41 => {
                need(buf, 3)?;
                let n = buf[2] as usize;
                need(buf, 3 + n)?;
                Ok(BatchMsg::Ack {
                    req_id: buf[1],
                    missing: buf[3..3 + n].to_vec(),
                })
            }
            _ => Err(WireError::BadTag),
        }
    }
}

// ---------------------------------------------------------------------
// Ping probes
// ---------------------------------------------------------------------

/// A ping probe (padded with zeros to the requested length).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PingProbe {
    /// Prober-chosen session id.
    pub session: u16,
    /// Round number.
    pub seq: u8,
    /// Port the reply should target on the prober.
    pub reply_port: u8,
}

impl PingProbe {
    /// Serialize, padding the payload with zeros to `length` bytes
    /// (minimum: the 5-byte header).
    pub fn encode(&self, length: usize) -> Vec<u8> {
        let mut b = vec![0x50];
        b.extend_from_slice(&self.session.to_be_bytes());
        b.push(self.seq);
        b.push(self.reply_port);
        while b.len() < length.min(lv_net::packet::PAYLOAD_AREA) {
            b.push(0);
        }
        b
    }

    /// Parse.
    pub fn decode(buf: &[u8]) -> WireResult<PingProbe> {
        need(buf, 5)?;
        if buf[0] != 0x50 {
            return Err(WireError::BadTag);
        }
        Ok(PingProbe {
            session: u16_at(buf, 1),
            seq: buf[3],
            reply_port: buf[4],
        })
    }
}

/// A ping reply, carrying the responder-side link measurements and the
/// forward-path padding data echoed out of the probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PingReply {
    /// Echoed session.
    pub session: u16,
    /// Echoed round.
    pub seq: u8,
    /// LQI of the incoming probe at the responder.
    pub lqi_in: u8,
    /// RSSI of the incoming probe.
    pub rssi_in: i8,
    /// Responder transmit-queue occupancy.
    pub queue: u8,
    /// Per-hop forward qualities (from the probe's padding).
    pub fwd_hops: Vec<HopQuality>,
}

impl PingReply {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = vec![0x51];
        b.extend_from_slice(&self.session.to_be_bytes());
        b.push(self.seq);
        b.push(self.lqi_in);
        b.push(self.rssi_in as u8);
        b.push(self.queue);
        b.push(self.fwd_hops.len() as u8);
        for h in &self.fwd_hops {
            h.append_to(&mut b);
        }
        b
    }

    /// Parse.
    pub fn decode(buf: &[u8]) -> WireResult<PingReply> {
        need(buf, 8)?;
        if buf[0] != 0x51 {
            return Err(WireError::BadTag);
        }
        let n = buf[7] as usize;
        need(buf, 8 + 2 * n)?;
        Ok(PingReply {
            session: u16_at(buf, 1),
            seq: buf[3],
            lqi_in: buf[4],
            rssi_in: buf[5] as i8,
            queue: buf[6],
            fwd_hops: HopQuality::parse_all(&buf[8..8 + 2 * n]),
        })
    }
}

// ---------------------------------------------------------------------
// Traceroute messages
// ---------------------------------------------------------------------

/// A traceroute one-hop probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrProbe {
    /// Session id.
    pub session: u16,
    /// Hop index being probed.
    pub seq: u8,
    /// Port the reply targets on the probing node.
    pub reply_port: u8,
}

impl TrProbe {
    /// Serialize (padded to `length`).
    pub fn encode(&self, length: usize) -> Vec<u8> {
        let mut b = vec![0x60];
        b.extend_from_slice(&self.session.to_be_bytes());
        b.push(self.seq);
        b.push(self.reply_port);
        while b.len() < length.min(lv_net::packet::PAYLOAD_AREA) {
            b.push(0);
        }
        b
    }

    /// Parse.
    pub fn decode(buf: &[u8]) -> WireResult<TrProbe> {
        need(buf, 5)?;
        if buf[0] != 0x60 {
            return Err(WireError::BadTag);
        }
        Ok(TrProbe {
            session: u16_at(buf, 1),
            seq: buf[3],
            reply_port: buf[4],
        })
    }
}

/// The immediate reply to a traceroute probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrProbeReply {
    /// Echoed session.
    pub session: u16,
    /// Echoed hop index.
    pub seq: u8,
    /// LQI of the incoming probe at the far end.
    pub lqi_in: u8,
    /// RSSI of the incoming probe.
    pub rssi_in: i8,
    /// Far-end queue occupancy.
    pub queue: u8,
}

impl TrProbeReply {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        vec![
            0x61,
            (self.session >> 8) as u8,
            self.session as u8,
            self.seq,
            self.lqi_in,
            self.rssi_in as u8,
            self.queue,
        ]
    }

    /// Parse.
    pub fn decode(buf: &[u8]) -> WireResult<TrProbeReply> {
        need(buf, 7)?;
        if buf[0] != 0x61 {
            return Err(WireError::BadTag);
        }
        Ok(TrProbeReply {
            session: u16_at(buf, 1),
            seq: buf[3],
            lqi_in: buf[4],
            rssi_in: buf[5] as i8,
            queue: buf[6],
        })
    }
}

/// The per-hop task handoff ("initiate a new traceroute task").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrTask {
    /// Session id.
    pub session: u16,
    /// The source node collecting reports.
    pub origin: u16,
    /// The source's session port.
    pub origin_port: u8,
    /// Final destination.
    pub dst: u16,
    /// Carrying (routing) port for reports and route queries.
    pub carry_port: u8,
    /// 1-based index of the hop this task must probe.
    pub hop_index: u8,
    /// Probe length.
    pub length: u8,
}

impl TrTask {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = vec![0x62];
        b.extend_from_slice(&self.session.to_be_bytes());
        b.extend_from_slice(&self.origin.to_be_bytes());
        b.push(self.origin_port);
        b.extend_from_slice(&self.dst.to_be_bytes());
        b.push(self.carry_port);
        b.push(self.hop_index);
        b.push(self.length);
        b
    }

    /// Parse.
    pub fn decode(buf: &[u8]) -> WireResult<TrTask> {
        need(buf, 11)?;
        if buf[0] != 0x62 {
            return Err(WireError::BadTag);
        }
        Ok(TrTask {
            session: u16_at(buf, 1),
            origin: u16_at(buf, 3),
            origin_port: buf[5],
            dst: u16_at(buf, 6),
            carry_port: buf[8],
            hop_index: buf[9],
            length: buf[10],
        })
    }
}

/// A hop report on its way back to the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrReport {
    /// Session id.
    pub session: u16,
    /// The record.
    pub record: HopRecord,
}

impl TrReport {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = vec![0x63];
        b.extend_from_slice(&self.session.to_be_bytes());
        self.record.encode_into(&mut b);
        b
    }

    /// Parse.
    pub fn decode(buf: &[u8]) -> WireResult<TrReport> {
        need(buf, 3 + HopRecord::WIRE_BYTES)?;
        if buf[0] != 0x63 {
            return Err(WireError::BadTag);
        }
        Ok(TrReport {
            session: u16_at(buf, 1),
            record: HopRecord::decode_from(&buf[3..])?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hops() -> Vec<HopQuality> {
        vec![
            HopQuality { lqi: 108, rssi: -1 },
            HopQuality { lqi: 105, rssi: 8 },
        ]
    }

    #[test]
    fn mgmt_request_round_trip_all_variants() {
        let cmds = vec![
            Command::Status,
            Command::GetPower,
            Command::SetPower(10),
            Command::GetChannel,
            Command::SetChannel(17),
            Command::NeighborList { with_quality: true },
            Command::NeighborList {
                with_quality: false,
            },
            Command::Blacklist {
                neighbor: 300,
                add: true,
            },
            Command::UpdateBeacon {
                period: SimDuration::from_millis(1500),
            },
            Command::SetLogging(true),
            Command::Ping {
                dst: 2,
                rounds: 3,
                length: 32,
                port: None,
            },
            Command::Ping {
                dst: 8,
                rounds: 1,
                length: 32,
                port: Some(Port(10)),
            },
            Command::Traceroute {
                dst: 8,
                length: 32,
                port: Port(10),
            },
            Command::ReadLog { max: 24 },
        ];
        for cmd in cmds {
            let req = MgmtRequest {
                req_id: 7,
                reply_node: 0,
                reply_port: 4,
                cmd: cmd.clone(),
            };
            let decoded = MgmtRequest::decode(&req.encode()).unwrap();
            assert_eq!(decoded, req, "{cmd:?}");
        }
    }

    #[test]
    fn mgmt_request_encodes_commands_in_wire_form() {
        let decode = |cmd: Command| {
            let req = MgmtRequest {
                req_id: 1,
                reply_node: 0,
                reply_port: 4,
                cmd,
            };
            MgmtRequest::decode(&req.encode()).unwrap().cmd
        };
        // A survey is a status request; the broadcast address makes it one.
        assert_eq!(decode(Command::GroupStatus), Command::Status);
        // Carrying port 0 is the one-hop ping.
        let ping = |port| Command::Ping {
            dst: 2,
            rounds: 1,
            length: 32,
            port,
        };
        assert_eq!(decode(ping(Some(Port(0)))), ping(None));
        // The beacon period travels as whole milliseconds in 1..=u32::MAX.
        let update = |period| Command::UpdateBeacon { period };
        let ms = |ms| update(SimDuration::from_millis(ms));
        assert_eq!(
            decode(update(SimDuration::from_micros(1_500_700))),
            ms(1500)
        );
        assert_eq!(decode(update(SimDuration::ZERO)), ms(1));
        assert_eq!(
            decode(update(SimDuration::from_secs(5_000_000))),
            ms(u64::from(u32::MAX))
        );
    }

    #[test]
    fn mgmt_response_round_trip_all_variants() {
        let replies = vec![
            MgmtReply::Ok,
            MgmtReply::Status {
                power: 31,
                channel: 17,
                queue: 0,
                neighbors: 5,
            },
            MgmtReply::Power(25),
            MgmtReply::Channel(11),
            MgmtReply::PingSummary(PingOutcome {
                target: 2,
                sent: 2,
                received: 1,
                power: 31,
                channel: 17,
                rounds: vec![PingRound {
                    seq: 0,
                    rtt_us: 4700,
                    lqi_fwd: 108,
                    lqi_bwd: 106,
                    rssi_fwd: -1,
                    rssi_bwd: 8,
                    queue_fwd: 0,
                    queue_bwd: 0,
                    fwd_hops: hops(),
                    bwd_hops: vec![],
                }],
            }),
            MgmtReply::TracerouteInfo {
                protocol: "geographic forwarding".into(),
            },
            MgmtReply::TracerouteHop(HopRecord {
                hop_index: 2,
                far: 3,
                reached_dst: true,
                no_route: false,
                probe_lost: false,
                rtt_us: 4900,
                lqi_fwd: 106,
                lqi_bwd: 107,
                rssi_fwd: 1,
                rssi_bwd: 2,
                queue_fwd: 0,
                queue_bwd: 0,
            }),
            MgmtReply::TracerouteDone {
                hops: 8,
                reached: true,
            },
            MgmtReply::Error(3),
        ];
        for reply in replies {
            let resp = MgmtResponse {
                req_id: 9,
                from: 4,
                reply: reply.clone(),
            };
            let decoded = MgmtResponse::decode(&resp.encode()).unwrap();
            assert_eq!(decoded, resp, "{reply:?}");
        }
    }

    #[test]
    fn neighbor_list_round_trip() {
        let rows = vec![
            WireNeighbor {
                id: 3,
                inbound_q: 240,
                outbound_q: Some(200),
                blacklisted: false,
                tree_hops: 2,
                name: "192.168.0.4".into(),
            },
            WireNeighbor {
                id: 9,
                inbound_q: 90,
                outbound_q: None,
                blacklisted: true,
                tree_hops: 255,
                name: "".into(),
            },
        ];
        let decoded = WireNeighbor::decode_list(&WireNeighbor::encode_list(&rows)).unwrap();
        assert_eq!(decoded, rows);
    }

    #[test]
    fn log_entry_list_round_trip() {
        let rows = vec![
            WireLogEntry {
                time_ms: 25_000,
                code: "mgmt".into(),
                detail: "request GetPower".into(),
            },
            WireLogEntry {
                time_ms: 25_400,
                code: "ping".into(),
                detail: "done: 1/1".into(),
            },
        ];
        let decoded = WireLogEntry::decode_list(&WireLogEntry::encode_list(&rows)).unwrap();
        assert_eq!(decoded, rows);
    }

    #[test]
    fn log_entry_truncates_to_caps() {
        let row = WireLogEntry {
            time_ms: 1,
            code: "a-code-name-way-too-long".into(),
            detail: "a very long detail string exceeding the cap".into(),
        };
        let decoded = WireLogEntry::decode_list(&WireLogEntry::encode_list(&[row])).unwrap();
        assert_eq!(decoded[0].code.len(), WireLogEntry::MAX_CODE);
        assert_eq!(decoded[0].detail.len(), WireLogEntry::MAX_DETAIL);
    }

    #[test]
    fn batch_round_trip() {
        let msgs = vec![
            BatchMsg::Data {
                req_id: 1,
                seq: 2,
                total: 5,
                ack_after: true,
                payload: vec![1, 2, 3],
            },
            BatchMsg::Ack {
                req_id: 1,
                missing: vec![0, 3],
            },
            BatchMsg::Ack {
                req_id: 1,
                missing: vec![],
            },
        ];
        for m in msgs {
            assert_eq!(BatchMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn ping_probe_padding_to_length() {
        let p = PingProbe {
            session: 0x1234,
            seq: 3,
            reply_port: 101,
        };
        let bytes = p.encode(32);
        assert_eq!(bytes.len(), 32);
        assert_eq!(PingProbe::decode(&bytes).unwrap(), p);
        // Length below the header floor keeps the header.
        assert_eq!(p.encode(2).len(), 5);
    }

    #[test]
    fn ping_reply_round_trip() {
        let r = PingReply {
            session: 7,
            seq: 0,
            lqi_in: 108,
            rssi_in: -1,
            queue: 0,
            fwd_hops: hops(),
        };
        assert_eq!(PingReply::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn traceroute_messages_round_trip() {
        let probe = TrProbe {
            session: 55,
            seq: 2,
            reply_port: 120,
        };
        assert_eq!(TrProbe::decode(&probe.encode(32)).unwrap(), probe);
        let reply = TrProbeReply {
            session: 55,
            seq: 2,
            lqi_in: 105,
            rssi_in: -3,
            queue: 1,
        };
        assert_eq!(TrProbeReply::decode(&reply.encode()).unwrap(), reply);
        let task = TrTask {
            session: 55,
            origin: 1,
            origin_port: 120,
            dst: 8,
            carry_port: 10,
            hop_index: 3,
            length: 32,
        };
        assert_eq!(TrTask::decode(&task.encode()).unwrap(), task);
        let report = TrReport {
            session: 55,
            record: HopRecord {
                hop_index: 3,
                far: 4,
                reached_dst: false,
                no_route: false,
                probe_lost: true,
                rtt_us: 0,
                lqi_fwd: 0,
                lqi_bwd: 0,
                rssi_fwd: 0,
                rssi_bwd: 0,
                queue_fwd: 0,
                queue_bwd: 0,
            },
        };
        assert_eq!(TrReport::decode(&report.encode()).unwrap(), report);
    }

    #[test]
    fn decoders_reject_garbage() {
        assert_eq!(MgmtRequest::decode(&[]), Err(WireError::Truncated));
        assert_eq!(
            MgmtRequest::decode(&[0x20, 1, 0, 0, 4, 0x7E]),
            Err(WireError::BadTag)
        );
        assert_eq!(
            MgmtRequest::decode(&[0x21, 1, 0, 0, 4, 0x01]),
            Err(WireError::BadTag)
        );
        assert_eq!(
            MgmtResponse::decode(&[0x30, 0, 0, 0, 0x20]),
            Err(WireError::BadTag)
        );
        assert_eq!(
            MgmtResponse::decode(&[0x31, 0, 0, 0, 0x80]),
            Err(WireError::BadTag)
        );
        assert_eq!(BatchMsg::decode(&[0x99, 0]), Err(WireError::BadTag));
        assert_eq!(
            PingProbe::decode(&[0x51, 0, 0, 0, 0]),
            Err(WireError::BadTag)
        );
        assert_eq!(TrTask::decode(&[0x62, 0]), Err(WireError::Truncated));
    }

    #[test]
    fn everything_fits_payload_area() {
        // The fattest messages must fit 64 bytes.
        let summary = MgmtResponse {
            req_id: 1,
            from: 2,
            reply: MgmtReply::PingSummary(PingOutcome {
                target: 2,
                sent: 1,
                received: 1,
                power: 31,
                channel: 17,
                rounds: vec![PingRound {
                    seq: 0,
                    rtt_us: 4700,
                    lqi_fwd: 108,
                    lqi_bwd: 106,
                    rssi_fwd: -1,
                    rssi_bwd: 8,
                    queue_fwd: 0,
                    queue_bwd: 0,
                    fwd_hops: vec![HopQuality { lqi: 0, rssi: 0 }; 8],
                    bwd_hops: vec![HopQuality { lqi: 0, rssi: 0 }; 8],
                }],
            }),
        };
        assert!(summary.encode().len() <= lv_net::packet::PAYLOAD_AREA);
        let hop = MgmtResponse {
            req_id: 1,
            from: 2,
            reply: MgmtReply::TracerouteHop(HopRecord {
                hop_index: 8,
                far: 9,
                reached_dst: true,
                no_route: false,
                probe_lost: false,
                rtt_us: u32::MAX,
                lqi_fwd: 110,
                lqi_bwd: 110,
                rssi_fwd: 30,
                rssi_bwd: -50,
                queue_fwd: 8,
                queue_bwd: 8,
            }),
        };
        assert!(hop.encode().len() <= lv_net::packet::PAYLOAD_AREA);
    }
}
