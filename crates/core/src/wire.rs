//! Wire formats of the LiteView management plane.
//!
//! "The command interpreter … translates each user command into a
//! sequence of radio messages. Each message header corresponds to one
//! unique type, while the command parameters are embedded into message
//! bodies." (Section IV.B.) [`Msg`] is those messages, one variant per
//! header (tag) byte:
//!
//! | Tag | Variant | Port | Carries |
//! |---|---|---|---|
//! | `0x20` | [`Msg::Request`] | management | a [`Command`] for a runtime controller |
//! | `0x30` | [`Msg::Response`] | interpreter | one [`MgmtReply`] |
//! | `0x40` / `0x41` | [`Msg::Batch`] | interpreter / management | a chunk / an ack of a multi-packet reply |
//! | `0x50` / `0x51` | [`Msg::PingProbe`] / [`Msg::PingReply`] | ping / session | one ping round |
//! | `0x60` / `0x61` | [`Msg::TrProbe`] / [`Msg::TrProbeReply`] | traceroute / session | one traceroute hop probe |
//! | `0x62` / `0x63` | [`Msg::TrTask`] / [`Msg::TrReport`] | traceroute / session | a hop task handoff / a hop report |
//!
//! [`Msg::encode`] and [`Msg::decode`] are the only code that writes or
//! reads a tag. Every body is read through one bounds-checked cursor, so
//! a short or inconsistent buffer decodes as [`WireError::Truncated`],
//! never as a panic, and bytes past the end of a message are ignored.
//! The chunks of a `list` or `readlog` reply carry [`Row`]s
//! ([`encode_rows`], [`decode_rows`]). Every message fits the stack's
//! 64-byte payload area.

use crate::commands::{Command, PingOutcome};
use cursor::{Field, Reader};
use lv_net::packet::{Port, PAYLOAD_AREA};
use lv_net::padding::HopQuality;
use lv_net::truncate_utf8;
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

/// The one reader of message bodies, and the codec of the parts
/// messages share. A private module, so that the public [`Row`] can
/// name [`Field`] as its supertrait without exporting either.
mod cursor {
    use super::{HopQuality, WireError, WireResult};

    /// A bounds-checked cursor over a message: every read past the end
    /// is [`WireError::Truncated`].
    pub struct Reader<'a>(pub &'a [u8]);

    impl<'a> Reader<'a> {
        /// The next `n` bytes.
        fn bytes(&mut self, n: usize) -> WireResult<&'a [u8]> {
            if n > self.0.len() {
                return Err(WireError::Truncated);
            }
            let (head, rest) = self.0.split_at(n);
            self.0 = rest;
            Ok(head)
        }

        fn array<const N: usize>(&mut self) -> WireResult<[u8; N]> {
            self.bytes(N)?.try_into().map_err(|_| WireError::Truncated)
        }

        /// The next byte.
        pub fn u8(&mut self) -> WireResult<u8> {
            self.array().map(u8::from_be_bytes)
        }

        /// The next byte, signed.
        pub fn i8(&mut self) -> WireResult<i8> {
            self.array().map(i8::from_be_bytes)
        }

        /// A flag byte: any non-zero value is `true`.
        pub fn bool(&mut self) -> WireResult<bool> {
            Ok(self.u8()? != 0)
        }

        /// The next two bytes, big-endian.
        pub fn u16(&mut self) -> WireResult<u16> {
            self.array().map(u16::from_be_bytes)
        }

        /// The next four bytes, big-endian.
        pub fn u32(&mut self) -> WireResult<u32> {
            self.array().map(u32::from_be_bytes)
        }

        /// A count byte, then that many items of `width` bytes each.
        pub fn counted(&mut self, width: usize) -> WireResult<&'a [u8]> {
            let n = usize::from(self.u8()?);
            self.bytes(n * width)
        }

        /// A length-prefixed UTF-8 string.
        pub fn str(&mut self) -> WireResult<String> {
            String::from_utf8(self.counted(1)?.to_vec()).map_err(|_| WireError::Truncated)
        }

        /// A counted list of per-hop qualities.
        pub fn hops(&mut self) -> WireResult<Vec<HopQuality>> {
            Ok(HopQuality::parse_all(self.counted(HopQuality::WIRE_BYTES)?))
        }

        /// A counted list of fields.
        pub fn list<T: Field>(&mut self) -> WireResult<Vec<T>> {
            let n = self.u8()?;
            (0..n).map(|_| T::read(self)).collect()
        }

        /// Everything left.
        pub fn rest(&mut self) -> &'a [u8] {
            std::mem::take(&mut self.0)
        }
    }

    /// A part of a message body with one layout wherever it appears.
    pub trait Field: Sized {
        /// Append the bytes.
        fn put(&self, b: &mut Vec<u8>);
        /// Read the bytes `put` wrote.
        fn read(r: &mut Reader<'_>) -> WireResult<Self>;
    }
}

/// Write a count byte, then `bytes`.
fn put_counted(b: &mut Vec<u8>, bytes: &[u8]) {
    b.push(bytes.len() as u8);
    b.extend_from_slice(bytes);
}

/// Write `s` cut at a char boundary to at most `cap` bytes, counted.
fn put_str(b: &mut Vec<u8>, s: &str, cap: usize) {
    put_counted(b, truncate_utf8(s, cap).as_bytes());
}

/// Write a count byte, then two bytes per hop.
fn put_hops(b: &mut Vec<u8>, hops: &[HopQuality]) {
    b.push(hops.len() as u8);
    for h in hops {
        h.append_to(b);
    }
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// One radio message of the management plane: one variant per tag byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// `0x20`: a management request.
    Request(MgmtRequest),
    /// `0x30`: a management response.
    Response(MgmtResponse),
    /// `0x40` (a chunk) / `0x41` (an ack): the batched transfer of a
    /// multi-packet reply.
    Batch(BatchMsg),
    /// `0x50`: a ping probe.
    PingProbe(Probe),
    /// `0x51`: a ping reply.
    PingReply(PingReply),
    /// `0x60`: a traceroute one-hop probe.
    TrProbe(Probe),
    /// `0x61`: the reply to a traceroute probe.
    TrProbeReply(TrProbeReply),
    /// `0x62`: the per-hop traceroute task handoff.
    TrTask(TrTask),
    /// `0x63`: a hop report on its way back to the source.
    TrReport(TrReport),
}

impl Msg {
    /// Serialize: the tag byte, then the body.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(PAYLOAD_AREA);
        match self {
            Msg::Request(m) => {
                b.extend([0x20, m.req_id]);
                b.extend(m.reply_node.to_be_bytes());
                b.push(m.reply_port);
                m.cmd.put(&mut b);
            }
            Msg::Response(m) => {
                b.extend([0x30, m.req_id]);
                b.extend(m.from.to_be_bytes());
                m.reply.put(&mut b);
            }
            Msg::Batch(BatchMsg::Data {
                req_id,
                seq,
                total,
                ack_after,
                payload,
            }) => {
                b.extend([0x40, *req_id, *seq, *total, u8::from(*ack_after)]);
                b.extend_from_slice(payload);
            }
            Msg::Batch(BatchMsg::Ack { req_id, missing }) => {
                b.extend([0x41, *req_id]);
                put_counted(&mut b, missing);
            }
            Msg::PingProbe(m) | Msg::TrProbe(m) => {
                let ping = matches!(self, Msg::PingProbe(_));
                b.push(if ping { 0x50 } else { 0x60 });
                b.extend(m.session.to_be_bytes());
                b.extend([m.seq, m.reply_port]);
                // Zeros up to `length`: never below the header, nor past the area.
                b.resize(usize::from(m.length).min(PAYLOAD_AREA).max(b.len()), 0);
            }
            Msg::PingReply(m) => {
                b.push(0x51);
                b.extend(m.session.to_be_bytes());
                b.extend([m.seq, m.lqi_in, m.rssi_in as u8, m.queue]);
                put_hops(&mut b, &m.fwd_hops);
            }
            Msg::TrProbeReply(m) => {
                b.push(0x61);
                b.extend(m.session.to_be_bytes());
                b.extend([m.seq, m.lqi_in, m.rssi_in as u8, m.queue]);
            }
            Msg::TrTask(m) => {
                b.push(0x62);
                b.extend(m.session.to_be_bytes());
                b.extend(m.origin.to_be_bytes());
                b.push(m.origin_port);
                b.extend(m.dst.to_be_bytes());
                b.extend([m.carry_port, m.hop_index, m.length]);
            }
            Msg::TrReport(m) => {
                b.push(0x63);
                b.extend(m.session.to_be_bytes());
                m.record.put(&mut b);
            }
        }
        b
    }

    /// Parse. Fields are read in the order the struct literals below
    /// name them, which is their order on the wire.
    pub fn decode(buf: &[u8]) -> WireResult<Msg> {
        let r = &mut Reader(buf);
        Ok(match r.u8()? {
            0x20 => Msg::Request(MgmtRequest {
                req_id: r.u8()?,
                reply_node: r.u16()?,
                reply_port: r.u8()?,
                cmd: Command::read(r)?,
            }),
            0x30 => Msg::Response(MgmtResponse {
                req_id: r.u8()?,
                from: r.u16()?,
                reply: MgmtReply::read(r)?,
            }),
            0x40 => Msg::Batch(BatchMsg::Data {
                req_id: r.u8()?,
                seq: r.u8()?,
                total: r.u8()?,
                ack_after: r.bool()?,
                payload: r.rest().to_vec(),
            }),
            0x41 => Msg::Batch(BatchMsg::Ack {
                req_id: r.u8()?,
                missing: r.counted(1)?.to_vec(),
            }),
            0x50 => Msg::PingProbe(Probe::read(r, buf.len())?),
            0x51 => Msg::PingReply(PingReply {
                session: r.u16()?,
                seq: r.u8()?,
                lqi_in: r.u8()?,
                rssi_in: r.i8()?,
                queue: r.u8()?,
                fwd_hops: r.hops()?,
            }),
            0x60 => Msg::TrProbe(Probe::read(r, buf.len())?),
            0x61 => Msg::TrProbeReply(TrProbeReply {
                session: r.u16()?,
                seq: r.u8()?,
                lqi_in: r.u8()?,
                rssi_in: r.i8()?,
                queue: r.u8()?,
            }),
            0x62 => Msg::TrTask(TrTask {
                session: r.u16()?,
                origin: r.u16()?,
                origin_port: r.u8()?,
                dst: r.u16()?,
                carry_port: r.u8()?,
                hop_index: r.u8()?,
                length: r.u8()?,
            }),
            0x63 => Msg::TrReport(TrReport {
                session: r.u16()?,
                record: HopRecord::read(r)?,
            }),
            _ => return Err(WireError::BadTag),
        })
    }
}

// ---------------------------------------------------------------------
// Management requests and replies
// ---------------------------------------------------------------------

/// A management request: the user's [`Command`] on its way to the
/// target's runtime controller.
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

/// A command travels in its wire form: a survey as a status request
/// (its broadcast address is what makes it a survey), the beacon period
/// as whole milliseconds clamped to `1..=u32::MAX`, and a one-hop ping
/// as carrying port 0. So a status request decodes as
/// [`Command::Status`], and carrying port 0 as `port: None`.
impl Field for Command {
    fn put(&self, b: &mut Vec<u8>) {
        match *self {
            Command::Status | Command::GroupStatus => b.push(0x01),
            Command::GetPower => b.push(0x02),
            Command::SetPower(p) => b.extend([0x03, p]),
            Command::GetChannel => b.push(0x04),
            Command::SetChannel(c) => b.extend([0x05, c]),
            Command::NeighborList { with_quality } => b.extend([0x06, u8::from(with_quality)]),
            Command::Blacklist { neighbor, add } => {
                b.push(0x07);
                b.extend(neighbor.to_be_bytes());
                b.push(u8::from(add));
            }
            Command::UpdateBeacon { period } => {
                let period_ms = period.as_millis().clamp(1, u64::from(u32::MAX)) as u32;
                b.push(0x08);
                b.extend(period_ms.to_be_bytes());
            }
            Command::SetLogging(on) => b.extend([0x09, u8::from(on)]),
            Command::Ping {
                dst,
                rounds,
                length,
                port,
            } => {
                b.push(0x0A);
                b.extend(dst.to_be_bytes());
                b.extend([rounds, length, port.map_or(0, |p| p.0)]);
            }
            Command::Traceroute { dst, length, port } => {
                b.push(0x0B);
                b.extend(dst.to_be_bytes());
                b.extend([length, port.0]);
            }
            Command::ReadLog { max } => b.extend([0x0C, max]),
        }
    }

    fn read(r: &mut Reader<'_>) -> WireResult<Command> {
        Ok(match r.u8()? {
            0x01 => Command::Status,
            0x02 => Command::GetPower,
            0x03 => Command::SetPower(r.u8()?),
            0x04 => Command::GetChannel,
            0x05 => Command::SetChannel(r.u8()?),
            0x06 => Command::NeighborList {
                with_quality: r.bool()?,
            },
            0x07 => Command::Blacklist {
                neighbor: r.u16()?,
                add: r.bool()?,
            },
            0x08 => Command::UpdateBeacon {
                period: SimDuration::from_millis(u64::from(r.u32()?)),
            },
            0x09 => Command::SetLogging(r.bool()?),
            0x0A => Command::Ping {
                dst: r.u16()?,
                rounds: r.u8()?,
                length: r.u8()?,
                port: Some(Port(r.u8()?)).filter(|p| p.0 != 0),
            },
            0x0B => Command::Traceroute {
                dst: r.u16()?,
                length: r.u8()?,
                port: Port(r.u8()?),
            },
            0x0C => Command::ReadLog { max: r.u8()? },
            _ => return Err(WireError::BadTag),
        })
    }
}

/// A management response: one reply, flowing back to the
/// workstation's interpreter port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MgmtResponse {
    /// Echoed request id.
    pub req_id: u8,
    /// The replying node.
    pub from: u16,
    /// The payload.
    pub reply: MgmtReply,
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

impl Field for MgmtReply {
    fn put(&self, b: &mut Vec<u8>) {
        match self {
            MgmtReply::Ok => b.push(0x80),
            MgmtReply::Status {
                power,
                channel,
                queue,
                neighbors,
            } => b.extend([0x81, *power, *channel, *queue, *neighbors]),
            MgmtReply::Power(p) => b.extend([0x82, *p]),
            MgmtReply::Channel(c) => b.extend([0x83, *c]),
            MgmtReply::PingSummary(s) => {
                b.push(0x84);
                b.extend(s.target.to_be_bytes());
                b.extend([s.sent, s.received, s.power, s.channel, s.rounds.len() as u8]);
                for round in &s.rounds {
                    round.put(b);
                }
            }
            MgmtReply::TracerouteInfo { protocol } => {
                b.push(0x85);
                put_str(b, protocol, 30);
            }
            MgmtReply::TracerouteHop(h) => {
                b.push(0x86);
                h.put(b);
            }
            MgmtReply::TracerouteDone { hops, reached } => {
                b.extend([0x87, *hops, u8::from(*reached)]);
            }
            MgmtReply::Error(code) => b.extend([0xFF, *code]),
        }
    }

    fn read(r: &mut Reader<'_>) -> WireResult<MgmtReply> {
        Ok(match r.u8()? {
            0x80 => MgmtReply::Ok,
            0x81 => MgmtReply::Status {
                power: r.u8()?,
                channel: r.u8()?,
                queue: r.u8()?,
                neighbors: r.u8()?,
            },
            0x82 => MgmtReply::Power(r.u8()?),
            0x83 => MgmtReply::Channel(r.u8()?),
            0x84 => MgmtReply::PingSummary(PingOutcome {
                target: r.u16()?,
                sent: r.u8()?,
                received: r.u8()?,
                power: r.u8()?,
                channel: r.u8()?,
                rounds: r.list()?,
            }),
            0x85 => MgmtReply::TracerouteInfo { protocol: r.str()? },
            0x86 => MgmtReply::TracerouteHop(HopRecord::read(r)?),
            0x87 => MgmtReply::TracerouteDone {
                hops: r.u8()?,
                reached: r.bool()?,
            },
            0xFF => MgmtReply::Error(r.u8()?),
            _ => return Err(WireError::BadTag),
        })
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

impl Field for PingRound {
    fn put(&self, b: &mut Vec<u8>) {
        b.push(self.seq);
        b.extend(self.rtt_us.to_be_bytes());
        b.extend([
            self.lqi_fwd,
            self.lqi_bwd,
            self.rssi_fwd as u8,
            self.rssi_bwd as u8,
        ]);
        b.extend([self.queue_fwd, self.queue_bwd]);
        put_hops(b, &self.fwd_hops);
        put_hops(b, &self.bwd_hops);
    }

    fn read(r: &mut Reader<'_>) -> WireResult<PingRound> {
        Ok(PingRound {
            seq: r.u8()?,
            rtt_us: r.u32()?,
            lqi_fwd: r.u8()?,
            lqi_bwd: r.u8()?,
            rssi_fwd: r.i8()?,
            rssi_bwd: r.i8()?,
            queue_fwd: r.u8()?,
            queue_bwd: r.u8()?,
            fwd_hops: r.hops()?,
            bwd_hops: r.hops()?,
        })
    }
}

impl PingOutcome {
    /// Truncate the outcome so its enclosing [`Msg::Response`] fits the
    /// 64-byte payload area: rounds are kept in order, per-round hop
    /// lists shrink first (forward kept preferentially — that is the
    /// path profile the user asked for), then whole rounds are dropped.
    /// The full hop data still reached the prober over the air; only
    /// this last workstation-bound packet is bounded.
    pub fn fit_to_wire(&mut self) {
        // Response framing (5) + summary header (7).
        const BUDGET: usize = PAYLOAD_AREA - 12;
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
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
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

impl Field for HopRecord {
    fn put(&self, b: &mut Vec<u8>) {
        let flags = u8::from(self.reached_dst)
            | (u8::from(self.no_route) << 1)
            | (u8::from(self.probe_lost) << 2);
        b.push(self.hop_index);
        b.extend(self.far.to_be_bytes());
        b.push(flags);
        b.extend(self.rtt_us.to_be_bytes());
        b.extend([
            self.lqi_fwd,
            self.lqi_bwd,
            self.rssi_fwd as u8,
            self.rssi_bwd as u8,
        ]);
        b.extend([self.queue_fwd, self.queue_bwd]);
    }

    fn read(r: &mut Reader<'_>) -> WireResult<HopRecord> {
        let (hop_index, far, flags) = (r.u8()?, r.u16()?, r.u8()?);
        Ok(HopRecord {
            hop_index,
            far,
            reached_dst: flags & 1 != 0,
            no_route: flags & 2 != 0,
            probe_lost: flags & 4 != 0,
            rtt_us: r.u32()?,
            lqi_fwd: r.u8()?,
            lqi_bwd: r.u8()?,
            rssi_fwd: r.i8()?,
            rssi_bwd: r.i8()?,
            queue_fwd: r.u8()?,
            queue_bwd: r.u8()?,
        })
    }
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

/// A row of a multi-packet reply: a neighbor-table row or an event-log
/// record. A chunk of rows is a count, then each row.
pub trait Row: Field {}

impl Row for WireNeighbor {}
impl Row for WireLogEntry {}

/// Encode one chunk of rows.
pub fn encode_rows<T: Row>(rows: &[T]) -> Vec<u8> {
    let mut b = vec![rows.len() as u8];
    for row in rows {
        row.put(&mut b);
    }
    b
}

/// Decode the rows of every chunk, in order.
pub fn decode_rows<T: Row>(chunks: &[Vec<u8>]) -> WireResult<Vec<T>> {
    let mut rows = Vec::new();
    for chunk in chunks {
        rows.append(&mut Reader(chunk).list()?);
    }
    Ok(rows)
}

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

impl Field for WireNeighbor {
    fn put(&self, b: &mut Vec<u8>) {
        let flags = u8::from(self.blacklisted) | (u8::from(self.outbound_q.is_some()) << 1);
        b.extend(self.id.to_be_bytes());
        b.extend([
            self.inbound_q,
            self.outbound_q.unwrap_or(0),
            flags,
            self.tree_hops,
        ]);
        put_str(b, &self.name, 15);
    }

    fn read(r: &mut Reader<'_>) -> WireResult<WireNeighbor> {
        let (id, inbound_q, outbound_q, flags) = (r.u16()?, r.u8()?, r.u8()?, r.u8()?);
        Ok(WireNeighbor {
            id,
            inbound_q,
            outbound_q: (flags & 2 != 0).then_some(outbound_q),
            blacklisted: flags & 1 != 0,
            tree_hops: r.u8()?,
            name: r.str()?,
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
}

impl Field for WireLogEntry {
    fn put(&self, b: &mut Vec<u8>) {
        b.extend(self.time_ms.to_be_bytes());
        put_str(b, &self.code, Self::MAX_CODE);
        put_str(b, &self.detail, Self::MAX_DETAIL);
    }

    fn read(r: &mut Reader<'_>) -> WireResult<WireLogEntry> {
        Ok(WireLogEntry {
            time_ms: r.u32()?,
            code: r.str()?,
            detail: r.str()?,
        })
    }
}

// ---------------------------------------------------------------------
// Ping and traceroute
// ---------------------------------------------------------------------

/// A ping or traceroute probe: [`Msg::PingProbe`] or [`Msg::TrProbe`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Probe {
    /// Prober-chosen session id.
    pub session: u16,
    /// Round number (ping) or hop index being probed (traceroute).
    pub seq: u8,
    /// Port the reply should target on the prober.
    pub reply_port: u8,
    /// Payload length on the air: the probe is padded with zeros to
    /// this many bytes, at least its 5-byte header and at most the
    /// payload area. A decoded probe's length is the bytes it arrived
    /// in.
    pub length: u8,
}

impl Probe {
    fn read(r: &mut Reader<'_>, len: usize) -> WireResult<Probe> {
        Ok(Probe {
            session: r.u16()?,
            seq: r.u8()?,
            reply_port: r.u8()?,
            length: u8::try_from(len).unwrap_or(u8::MAX),
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

/// A hop report on its way back to the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrReport {
    /// Session id.
    pub session: u16,
    /// The record.
    pub record: HopRecord,
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One encoding of every message shape, byte for byte. The
    /// round-trip tests also pass after a symmetric layout change; this
    /// table does not. A deliberate layout change regenerates it in a
    /// commit of its own that names the reason.
    #[test]
    fn golden_bytes() {
        let req = |cmd| {
            Msg::Request(MgmtRequest {
                req_id: 7,
                reply_node: 0x0102,
                reply_port: 4,
                cmd,
            })
            .encode()
        };
        let resp = |reply| {
            Msg::Response(MgmtResponse {
                req_id: 9,
                from: 0x0304,
                reply,
            })
            .encode()
        };
        let probe = |length| Probe {
            session: 0x1234,
            seq: 3,
            reply_port: 101,
            length,
        };
        let ping_probe = |length| Msg::PingProbe(probe(length)).encode();
        let tr_probe = |length| Msg::TrProbe(probe(length)).encode();
        let neighbors = encode_rows(&[
            WireNeighbor {
                id: 3,
                inbound_q: 240,
                outbound_q: Some(200),
                blacklisted: false,
                tree_hops: 2,
                name: "192.168.0.4".into(),
            },
            WireNeighbor {
                id: 0x0109,
                inbound_q: 90,
                outbound_q: None,
                blacklisted: true,
                tree_hops: 255,
                name: "gateway-192.168.0.9".into(),
            },
        ]);
        let log = encode_rows(&[
            WireLogEntry {
                time_ms: 25_000,
                code: "mgmt".into(),
                detail: "request GetPower".into(),
            },
            WireLogEntry {
                time_ms: 0x0102_0304,
                code: "traceroute".into(),
                detail: "queue → full: ✓✓".into(),
            },
        ]);
        let record = HopRecord {
            hop_index: 2,
            far: 3,
            reached_dst: true,
            no_route: false,
            probe_lost: false,
            rtt_us: 4900,
            lqi_fwd: 106,
            lqi_bwd: 107,
            rssi_fwd: -3,
            rssi_bwd: 2,
            queue_fwd: 1,
            queue_bwd: 0,
        };
        let lost = HopRecord {
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
        };
        let summary = PingOutcome {
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
                queue_bwd: 1,
                fwd_hops: hops(),
                bwd_hops: vec![HopQuality { lqi: 99, rssi: -40 }],
            }],
        };
        let cases: Vec<(Vec<u8>, &str)> = vec![
            (req(Command::Status), "200701020401"),
            (req(Command::GroupStatus), "200701020401"),
            (req(Command::GetPower), "200701020402"),
            (req(Command::SetPower(10)), "2007010204030a"),
            (req(Command::GetChannel), "200701020404"),
            (req(Command::SetChannel(17)), "20070102040511"),
            (req(Command::NeighborList { with_quality: true }), "20070102040601"),
            (
                req(Command::Blacklist {
                    neighbor: 0x0304,
                    add: true,
                }),
                "200701020407030401",
            ),
            (
                req(Command::UpdateBeacon {
                    period: SimDuration::from_millis(1500),
                }),
                "200701020408000005dc",
            ),
            (req(Command::SetLogging(true)), "20070102040901"),
            (
                req(Command::Ping {
                    dst: 2,
                    rounds: 3,
                    length: 32,
                    port: None,
                }),
                "20070102040a0002032000",
            ),
            (
                req(Command::Ping {
                    dst: 8,
                    rounds: 1,
                    length: 32,
                    port: Some(Port(10)),
                }),
                "20070102040a000801200a",
            ),
            (
                req(Command::Traceroute {
                    dst: 8,
                    length: 32,
                    port: Port(10),
                }),
                "20070102040b0008200a",
            ),
            (req(Command::ReadLog { max: 24 }), "20070102040c18"),
            (resp(MgmtReply::Ok), "3009030480"),
            (
                resp(MgmtReply::Status {
                    power: 31,
                    channel: 17,
                    queue: 0,
                    neighbors: 5,
                }),
                "30090304811f110005",
            ),
            (resp(MgmtReply::Power(25)), "300903048219"),
            (resp(MgmtReply::Channel(11)), "30090304830b"),
            (resp(MgmtReply::PingSummary(summary)), "3009030484000202011f1101000000125c6c6aff080001026cff69080163d8"),
            (
                resp(MgmtReply::TracerouteInfo {
                    protocol: "geographic forwarding".into(),
                }),
                "30090304851567656f6772617068696320666f7277617264696e67",
            ),
            (resp(MgmtReply::TracerouteHop(record)), "300903048602000301000013246a6bfd020100"),
            (
                resp(MgmtReply::TracerouteDone {
                    hops: 8,
                    reached: true,
                }),
                "30090304870801",
            ),
            (resp(MgmtReply::Error(3)), "30090304ff03"),
            (neighbors, "020003f0c802020b3139322e3136382e302e3401095a0001ff0f676174657761792d3139322e313638"),
            (log, "02000061a8046d676d74107265717565737420476574506f776572010203040a7472616365726f75746510717565756520e286922066756c6c3a20"),
            (
                Msg::Batch(BatchMsg::Data {
                        req_id: 1,
                        seq: 2,
                        total: 5,
                        ack_after: true,
                        payload: vec![1, 2, 3],
                    })
                .encode(),
                "4001020501010203",
            ),
            (
                Msg::Batch(BatchMsg::Ack {
                        req_id: 1,
                        missing: vec![0, 3],
                    })
                .encode(),
                "4101020003",
            ),
            (ping_probe(0), "5012340365"),
            (ping_probe(5), "5012340365"),
            (ping_probe(32), "5012340365000000000000000000000000000000000000000000000000000000"),
            (ping_probe(64), "50123403650000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"),
            (ping_probe(90), "50123403650000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"),
            (tr_probe(0), "6012340365"),
            (tr_probe(5), "6012340365"),
            (tr_probe(32), "6012340365000000000000000000000000000000000000000000000000000000"),
            (tr_probe(64), "60123403650000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"),
            (tr_probe(90), "60123403650000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"),
            (
                Msg::PingReply(PingReply {
                        session: 0x1234,
                        seq: 3,
                        lqi_in: 108,
                        rssi_in: -1,
                        queue: 2,
                        fwd_hops: hops(),
                    })
                .encode(),
                "511234036cff02026cff6908",
            ),
            (
                Msg::TrProbeReply(TrProbeReply {
                        session: 0x1234,
                        seq: 2,
                        lqi_in: 105,
                        rssi_in: -3,
                        queue: 1,
                    })
                .encode(),
                "6112340269fd01",
            ),
            (
                Msg::TrTask(TrTask {
                        session: 0x1234,
                        origin: 1,
                        origin_port: 120,
                        dst: 8,
                        carry_port: 10,
                        hop_index: 3,
                        length: 32,
                    })
                .encode(),
                "62123400017800080a0320",
            ),
            (
                Msg::TrReport(TrReport {
                        session: 0x1234,
                        record: lost,
                    })
                .encode(),
                "6312340300040400000000000000000000",
            ),
        ];
        assert_eq!(cases.len(), 41);
        for (i, (bytes, golden)) in cases.iter().enumerate() {
            assert_eq!(hex(bytes), *golden, "case {i}");
        }
    }

    fn round_trip(msg: Msg) {
        assert_eq!(Msg::decode(&msg.encode()), Ok(msg.clone()), "{msg:?}");
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
            round_trip(Msg::Request(MgmtRequest {
                req_id: 7,
                reply_node: 0,
                reply_port: 4,
                cmd,
            }));
        }
    }

    #[test]
    fn mgmt_request_encodes_commands_in_wire_form() {
        let decode = |cmd: Command| {
            let req = Msg::Request(MgmtRequest {
                req_id: 1,
                reply_node: 0,
                reply_port: 4,
                cmd,
            });
            match Msg::decode(&req.encode()) {
                Ok(Msg::Request(req)) => req.cmd,
                other => panic!("{other:?}"),
            }
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
                rtt_us: 4900,
                lqi_fwd: 106,
                lqi_bwd: 107,
                rssi_fwd: 1,
                rssi_bwd: 2,
                ..HopRecord::default()
            }),
            MgmtReply::TracerouteDone {
                hops: 8,
                reached: true,
            },
            MgmtReply::Error(3),
        ];
        for reply in replies {
            round_trip(Msg::Response(MgmtResponse {
                req_id: 9,
                from: 4,
                reply,
            }));
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
        assert_eq!(decode_rows(&[encode_rows(&rows)]), Ok(rows));
    }

    #[test]
    fn neighbor_name_is_cut_at_a_char_boundary() {
        // `é` takes bytes 14 and 15 of the name: a byte cut at 15 would
        // leave half of it, and the chunk would not decode.
        let row = WireNeighbor {
            id: 10,
            inbound_q: 200,
            outbound_q: None,
            blacklisted: false,
            tree_hops: 1,
            name: "192.168.0.10-né".into(),
        };
        let decoded: Vec<WireNeighbor> = decode_rows(&[encode_rows(&[row])]).unwrap();
        assert_eq!(decoded[0].name, "192.168.0.10-n");
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
        assert_eq!(decode_rows(&[encode_rows(&rows)]), Ok(rows));
    }

    #[test]
    fn log_entry_truncates_to_caps() {
        let row = WireLogEntry {
            time_ms: 1,
            code: "a-code-name-way-too-long".into(),
            detail: "a very long detail string exceeding the cap".into(),
        };
        let decoded: Vec<WireLogEntry> = decode_rows(&[encode_rows(&[row])]).unwrap();
        assert_eq!(decoded[0].code.len(), WireLogEntry::MAX_CODE);
        assert_eq!(decoded[0].detail.len(), WireLogEntry::MAX_DETAIL);
    }

    #[test]
    fn batch_round_trip() {
        round_trip(Msg::Batch(BatchMsg::Data {
            req_id: 1,
            seq: 2,
            total: 5,
            ack_after: true,
            payload: vec![1, 2, 3],
        }));
        round_trip(Msg::Batch(BatchMsg::Ack {
            req_id: 1,
            missing: vec![0, 3],
        }));
        round_trip(Msg::Batch(BatchMsg::Ack {
            req_id: 1,
            missing: vec![],
        }));
    }

    #[test]
    fn probe_padding_to_length() {
        let probe = |length| Probe {
            session: 0x1234,
            seq: 3,
            reply_port: 101,
            length,
        };
        let bytes = Msg::PingProbe(probe(32)).encode();
        assert_eq!(bytes.len(), 32);
        assert_eq!(Msg::decode(&bytes), Ok(Msg::PingProbe(probe(32))));
        // Length below the header floor keeps the header; above the
        // payload area, the area.
        assert_eq!(Msg::TrProbe(probe(2)).encode().len(), 5);
        assert_eq!(Msg::TrProbe(probe(90)).encode().len(), PAYLOAD_AREA);
    }

    #[test]
    fn probe_replies_task_and_report_round_trip() {
        round_trip(Msg::PingReply(PingReply {
            session: 7,
            seq: 0,
            lqi_in: 108,
            rssi_in: -1,
            queue: 0,
            fwd_hops: hops(),
        }));
        round_trip(Msg::TrProbeReply(TrProbeReply {
            session: 55,
            seq: 2,
            lqi_in: 105,
            rssi_in: -3,
            queue: 1,
        }));
        round_trip(Msg::TrTask(TrTask {
            session: 55,
            origin: 1,
            origin_port: 120,
            dst: 8,
            carry_port: 10,
            hop_index: 3,
            length: 32,
        }));
        round_trip(Msg::TrReport(TrReport {
            session: 55,
            record: HopRecord {
                hop_index: 3,
                far: 4,
                probe_lost: true,
                ..HopRecord::default()
            },
        }));
    }

    #[test]
    fn decoders_reject_garbage() {
        assert_eq!(Msg::decode(&[]), Err(WireError::Truncated));
        assert_eq!(Msg::decode(&[0x99, 0]), Err(WireError::BadTag));
        // An unknown command or reply tag inside a known message.
        assert_eq!(
            Msg::decode(&[0x20, 1, 0, 0, 4, 0x7E]),
            Err(WireError::BadTag)
        );
        assert_eq!(Msg::decode(&[0x30, 0, 0, 0, 0x20]), Err(WireError::BadTag));
        // Short bodies, and counts that run past the end.
        assert_eq!(Msg::decode(&[0x20, 1, 0, 0, 4]), Err(WireError::Truncated));
        assert_eq!(Msg::decode(&[0x62, 0]), Err(WireError::Truncated));
        assert_eq!(Msg::decode(&[0x41, 1, 3, 0]), Err(WireError::Truncated));
        assert_eq!(
            decode_rows::<WireNeighbor>(&[vec![]]),
            Err(WireError::Truncated)
        );
        // A string that is not UTF-8.
        assert_eq!(
            Msg::decode(&[0x30, 0, 0, 0, 0x85, 1, 0xFF]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn everything_fits_payload_area() {
        // The fattest messages must fit 64 bytes.
        let summary = Msg::Response(MgmtResponse {
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
        });
        assert!(summary.encode().len() <= PAYLOAD_AREA);
        let hop = Msg::Response(MgmtResponse {
            req_id: 1,
            from: 2,
            reply: MgmtReply::TracerouteHop(HopRecord {
                hop_index: 8,
                far: 9,
                reached_dst: true,
                rtt_us: u32::MAX,
                lqi_fwd: 110,
                lqi_bwd: 110,
                rssi_fwd: 30,
                rssi_bwd: -50,
                queue_fwd: 8,
                queue_bwd: 8,
                ..HopRecord::default()
            }),
        });
        assert!(hop.encode().len() <= PAYLOAD_AREA);
    }
}
