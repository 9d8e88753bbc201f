//! The network-layer packet.
//!
//! Wire layout (big-endian multi-byte fields):
//!
//! ```text
//! offset  size  field
//! 0       1     flags (bit 0: link-quality padding enabled)
//! 1       2     origin address
//! 3       2     final destination address
//! 5       1     carrying port (who handles this packet at each hop)
//! 6       1     application port (who receives it at the destination)
//! 7       1     origin sequence number
//! 8       1     TTL
//! 9       1     payload length
//! 10      1     padding length (bytes of hop-quality data appended)
//! 11      n     application payload (≤ 64 bytes)
//! 11+n    p     link-quality padding (2 bytes per hop)
//! ```
//!
//! Section IV.C.3: "in the routing layer, we keep a default payload of
//! 64 bytes, serving as the upper limit on the length of data payloads.
//! If the actual length … is shorter … the routing layer utilizes the
//! extra bytes that are normally not transmitted over the air for
//! storing link quality metrics." So `payload + padding ≤ 64` always,
//! and only the occupied bytes travel on the air.

use crate::padding::HopQuality;
use lv_sim::InlineBytes;
use serde::{Deserialize, Serialize};

/// The reserved payload area per packet — payload plus padding must fit.
pub const PAYLOAD_AREA: usize = 64;

/// Application payload or padding bytes, stored inline ([`PAYLOAD_AREA`]
/// caps both) — packets move through the stack without heap traffic.
pub type PacketBytes = InlineBytes<PAYLOAD_AREA>;

/// Bytes of network header on the wire.
pub const NET_HEADER_LEN: usize = 11;

/// A port number in the subscription stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Port(pub u8);

/// Well-known ports (mirroring the paper's conventions).
impl Port {
    /// LiteView's management channel (workstation ↔ runtime controller).
    pub const MANAGEMENT: Port = Port(1);
    /// The ping command's unique port.
    pub const PING: Port = Port(2);
    /// The traceroute command's unique port.
    pub const TRACEROUTE: Port = Port(3);
    /// Geographic forwarding, "listening on the port number 10" in the
    /// paper's traceroute example.
    pub const GEOGRAPHIC: Port = Port(10);
    /// Flooding router.
    pub const FLOODING: Port = Port(11);
    /// Collection-tree router.
    pub const TREE: Port = Port(12);
}

/// Header flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketFlags {
    /// Append LQI/RSSI padding at each hop.
    pub padding_enabled: bool,
}

impl PacketFlags {
    fn to_byte(self) -> u8 {
        u8::from(self.padding_enabled)
    }

    fn from_byte(b: u8) -> Self {
        PacketFlags {
            padding_enabled: b & 1 != 0,
        }
    }
}

/// The parsed network header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetHeader {
    /// Flag bits.
    pub flags: PacketFlags,
    /// Originating node.
    pub origin: u16,
    /// Final destination node.
    pub dst: u16,
    /// Port of the process that handles the packet at every hop — a
    /// routing protocol for multi-hop packets, or the application itself
    /// for one-hop packets.
    pub port: Port,
    /// Port of the process that receives the payload at the destination.
    pub app_port: Port,
    /// Origin-assigned sequence number (dedup for flooding etc.).
    pub seq: u8,
    /// Remaining hop budget.
    pub ttl: u8,
}

/// A network packet: header + payload + accumulated padding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetPacket {
    /// The header.
    pub header: NetHeader,
    /// The application payload (never mutated in flight — the paper's
    /// "we should not directly store link quality information into the
    /// original payload of packets").
    pub payload: PacketBytes,
    /// The appended hop-quality bytes.
    pub padding: PacketBytes,
}

impl NetPacket {
    /// Build a fresh packet at the origin. Panics if the payload
    /// exceeds the 64-byte area.
    pub fn new(header: NetHeader, payload: impl Into<PacketBytes>) -> Self {
        NetPacket {
            header,
            payload: payload.into(),
            padding: PacketBytes::new(),
        }
    }

    /// Bytes actually transmitted over the air.
    pub fn wire_len(&self) -> usize {
        NET_HEADER_LEN + self.payload.len() + self.padding.len()
    }

    /// Free bytes left in the 64-byte area for further padding.
    pub fn padding_space_left(&self) -> usize {
        PAYLOAD_AREA
            .saturating_sub(self.payload.len())
            .saturating_sub(self.padding.len())
    }

    /// Append one hop's quality metrics if padding is enabled and space
    /// remains under the 64-byte cap. Returns `true` if the hop was
    /// recorded. The original payload bytes are never touched.
    pub fn append_hop_quality(&mut self, hop: HopQuality) -> bool {
        if !self.header.flags.padding_enabled {
            return false;
        }
        hop.append_capped(&mut self.padding, self.payload.len(), PAYLOAD_AREA)
    }

    /// Decode the accumulated per-hop qualities.
    pub fn hop_qualities(&self) -> Vec<HopQuality> {
        HopQuality::parse_all(&self.padding)
    }

    /// Serialize for transmission.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        buf.push(self.header.flags.to_byte());
        buf.extend_from_slice(&self.header.origin.to_be_bytes());
        buf.extend_from_slice(&self.header.dst.to_be_bytes());
        buf.push(self.header.port.0);
        buf.push(self.header.app_port.0);
        buf.push(self.header.seq);
        buf.push(self.header.ttl);
        buf.push(self.payload.len() as u8);
        buf.push(self.padding.len() as u8);
        buf.extend_from_slice(&self.payload);
        buf.extend_from_slice(&self.padding);
        buf
    }

    /// Parse from wire bytes; `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<NetPacket> {
        if buf.len() < NET_HEADER_LEN {
            return None;
        }
        let flags = PacketFlags::from_byte(buf[0]);
        let origin = u16::from_be_bytes([buf[1], buf[2]]);
        let dst = u16::from_be_bytes([buf[3], buf[4]]);
        let port = Port(buf[5]);
        let app_port = Port(buf[6]);
        let seq = buf[7];
        let ttl = buf[8];
        let payload_len = buf[9] as usize;
        let pad_len = buf[10] as usize;
        if payload_len + pad_len > PAYLOAD_AREA {
            return None;
        }
        if buf.len() != NET_HEADER_LEN + payload_len + pad_len {
            return None;
        }
        let payload = PacketBytes::from_slice(&buf[NET_HEADER_LEN..NET_HEADER_LEN + payload_len]);
        let padding = PacketBytes::from_slice(&buf[NET_HEADER_LEN + payload_len..]);
        Some(NetPacket {
            header: NetHeader {
                flags,
                origin,
                dst,
                port,
                app_port,
                seq,
                ttl,
            },
            payload,
            padding,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> NetHeader {
        NetHeader {
            flags: PacketFlags {
                padding_enabled: true,
            },
            origin: 1,
            dst: 8,
            port: Port::GEOGRAPHIC,
            app_port: Port::PING,
            seq: 77,
            ttl: 16,
        }
    }

    #[test]
    fn round_trip() {
        let mut p = NetPacket::new(header(), vec![5; 16]);
        p.append_hop_quality(HopQuality { lqi: 106, rssi: -3 });
        let decoded = NetPacket::decode(&p.encode()).expect("decodes");
        assert_eq!(decoded, p);
    }

    #[test]
    fn wire_len_only_counts_occupied_bytes() {
        // A 16-byte payload transmits 16 payload bytes, not 64.
        let p = NetPacket::new(header(), vec![0; 16]);
        assert_eq!(p.wire_len(), NET_HEADER_LEN + 16);
    }

    #[test]
    fn padding_budget_matches_paper() {
        // "as the probe packet has a payload of 16 bytes, as each hop
        // takes two bytes in padding, a packet could at most travel 24
        // hops before the padding runs out of space."
        let mut p = NetPacket::new(header(), vec![0; 16]);
        let mut hops = 0;
        while p.append_hop_quality(HopQuality { lqi: 100, rssi: 0 }) {
            hops += 1;
        }
        assert_eq!(hops, 24);
        assert_eq!(p.padding_space_left(), 0);
        assert_eq!(p.hop_qualities().len(), 24);
    }

    #[test]
    fn padding_disabled_appends_nothing() {
        let mut h = header();
        h.flags.padding_enabled = false;
        let mut p = NetPacket::new(h, vec![0; 16]);
        assert!(!p.append_hop_quality(HopQuality { lqi: 100, rssi: 0 }));
        assert!(p.padding.is_empty());
    }

    #[test]
    fn payload_never_mutated_by_padding() {
        let payload: Vec<u8> = (0..32).collect();
        let mut p = NetPacket::new(header(), payload.clone());
        for _ in 0..16 {
            p.append_hop_quality(HopQuality { lqi: 90, rssi: -20 });
        }
        assert_eq!(p.payload, payload);
    }

    #[test]
    fn full_payload_leaves_no_padding_space() {
        let mut p = NetPacket::new(header(), vec![0; PAYLOAD_AREA]);
        assert_eq!(p.padding_space_left(), 0);
        assert!(!p.append_hop_quality(HopQuality { lqi: 100, rssi: 0 }));
    }

    #[test]
    fn frame_at_the_cap_gains_no_further_bytes() {
        // Padding accumulated over many hops must stop exactly at the
        // 64-byte area, leaving the wire length frozen no matter how
        // many more hops the packet traverses (an uncapped append would
        // outgrow the frame).
        let mut p = NetPacket::new(header(), Vec::new());
        while p.append_hop_quality(HopQuality { lqi: 100, rssi: -9 }) {}
        assert_eq!(p.payload.len() + p.padding.len(), PAYLOAD_AREA);
        let frozen = p.wire_len();
        for _ in 0..8 {
            assert!(!p.append_hop_quality(HopQuality { lqi: 101, rssi: -1 }));
            assert_eq!(p.wire_len(), frozen);
        }
        assert_eq!(
            p.hop_qualities().len(),
            PAYLOAD_AREA / HopQuality::WIRE_BYTES
        );
    }

    #[test]
    fn oversized_claims_rejected() {
        let p = NetPacket::new(header(), vec![1; 10]);
        let mut bytes = p.encode();
        bytes[9] = 200; // payload_len beyond area
        assert!(NetPacket::decode(&bytes).is_none());
        assert!(NetPacket::decode(&[]).is_none());
        assert!(NetPacket::decode(&bytes[..5]).is_none());
    }

    #[test]
    fn length_mismatch_rejected() {
        let p = NetPacket::new(header(), vec![1; 10]);
        let mut bytes = p.encode();
        bytes.push(0xFF); // trailing garbage
        assert!(NetPacket::decode(&bytes).is_none());
    }

    #[test]
    fn hop_quality_order_preserved() {
        let mut p = NetPacket::new(header(), vec![0; 16]);
        for i in 0..5 {
            p.append_hop_quality(HopQuality {
                lqi: 100 + i,
                rssi: -(i as i8),
            });
        }
        let hops = p.hop_qualities();
        for (i, h) in hops.iter().enumerate() {
            assert_eq!(h.lqi, 100 + i as u8);
            assert_eq!(h.rssi, -(i as i8));
        }
    }
}
