//! Byte-accurate MAC frames.
//!
//! Layout (big-endian multi-byte fields):
//!
//! ```text
//! offset  size  field
//! 0       1     kind (0 = Data, 1 = Ack, 2 = Beacon)
//! 1       2     source node id
//! 3       2     destination node id (0xFFFF = broadcast)
//! 5       1     sequence number
//! 6       1     payload length
//! 7       n     payload (the network-layer packet)
//! 7+n     2     CRC-16/CCITT-FALSE over bytes 0..7+n
//! ```
//!
//! Keeping frames byte-accurate matters for the reproduction: the
//! overhead figures (Fig. 7) count real packets, airtime is a function of
//! real frame length, and the link-quality padding mechanism reasons
//! about real payload space.

use crate::crc::{append_crc, verify_crc};
use lv_sim::InlineBytes;

/// The broadcast address.
pub const BROADCAST: u16 = 0xFFFF;

/// Bytes of MAC framing around the payload (header + CRC).
pub const MAC_OVERHEAD: usize = 9;

/// Largest payload a frame carries. 802.15.4 caps the PHY payload at 127
/// bytes; 127 − 9 framing bytes leaves 118, comfortably above the
/// network layer's 64-byte padded payload plus its own header.
pub const MAX_PAYLOAD: usize = 118;

/// A frame's payload bytes, stored inline — constructing, cloning, and
/// dropping a frame on the hot transmit/receive path never allocates.
pub type FramePayload = InlineBytes<MAX_PAYLOAD>;

/// Frame kinds on the air.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Network-layer traffic.
    Data,
    /// Immediate link-level acknowledgement.
    Ack,
    /// Neighborhood beacon.
    Beacon,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Ack => 1,
            FrameKind::Beacon => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(FrameKind::Data),
            1 => Some(FrameKind::Ack),
            2 => Some(FrameKind::Beacon),
            _ => None,
        }
    }
}

/// A MAC frame. Its payload is inline, so a frame is a flat value:
/// copying one is a `memcpy` and never touches the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind.
    pub kind: FrameKind,
    /// Transmitting node.
    pub src: u16,
    /// Destination node ([`BROADCAST`] for broadcast).
    pub dst: u16,
    /// Link-layer sequence number (per-sender, wrapping).
    pub seq: u8,
    /// Network-layer payload bytes.
    pub payload: FramePayload,
}

impl Frame {
    /// Build a data frame.
    pub fn data(src: u16, dst: u16, seq: u8, payload: impl Into<FramePayload>) -> Self {
        Frame {
            kind: FrameKind::Data,
            src,
            dst,
            seq,
            payload: payload.into(),
        }
    }

    /// Build an immediate acknowledgement for sequence `seq`.
    pub fn ack(src: u16, dst: u16, seq: u8) -> Self {
        Frame {
            kind: FrameKind::Ack,
            src,
            dst,
            seq,
            payload: FramePayload::new(),
        }
    }

    /// Build a broadcast beacon frame.
    pub fn beacon(src: u16, seq: u8, payload: impl Into<FramePayload>) -> Self {
        Frame {
            kind: FrameKind::Beacon,
            src,
            dst: BROADCAST,
            seq,
            payload: payload.into(),
        }
    }

    /// Whether this frame is addressed to everyone.
    pub fn is_broadcast(&self) -> bool {
        self.dst == BROADCAST
    }

    /// Total MAC-level size on the air (header + payload + CRC),
    /// excluding the PHY synchronization header.
    pub fn wire_len(&self) -> usize {
        MAC_OVERHEAD + self.payload.len()
    }

    /// Serialize to wire bytes (with CRC).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        buf.push(self.kind.to_byte());
        buf.extend_from_slice(&self.src.to_be_bytes());
        buf.extend_from_slice(&self.dst.to_be_bytes());
        buf.push(self.seq);
        buf.push(self.payload.len() as u8);
        buf.extend_from_slice(&self.payload);
        append_crc(&mut buf);
        buf
    }

    /// Parse wire bytes; `None` on bad CRC, bad kind, or bad length.
    pub fn decode(buf: &[u8]) -> Option<Frame> {
        if buf.len() < MAC_OVERHEAD || !verify_crc(buf) {
            return None;
        }
        let kind = FrameKind::from_byte(buf[0])?;
        let src = u16::from_be_bytes([buf[1], buf[2]]);
        let dst = u16::from_be_bytes([buf[3], buf[4]]);
        let seq = buf[5];
        let len = buf[6] as usize;
        if buf.len() != MAC_OVERHEAD + len {
            return None;
        }
        let payload = FramePayload::from_slice(&buf[7..7 + len]);
        Some(Frame {
            kind,
            src,
            dst,
            seq,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_data() {
        let f = Frame::data(3, 9, 42, vec![1, 2, 3, 4, 5]);
        let decoded = Frame::decode(&f.encode()).expect("decodes");
        assert_eq!(decoded, f);
    }

    #[test]
    fn round_trip_ack_and_beacon() {
        let a = Frame::ack(1, 2, 7);
        assert_eq!(Frame::decode(&a.encode()).unwrap(), a);
        let b = Frame::beacon(5, 0, vec![0xAA; 10]);
        let d = Frame::decode(&b.encode()).unwrap();
        assert_eq!(d, b);
        assert!(d.is_broadcast());
    }

    #[test]
    fn wire_len_accounts_everything() {
        let f = Frame::data(1, 2, 0, vec![0; 32]);
        assert_eq!(f.wire_len(), 9 + 32);
        assert_eq!(f.encode().len(), f.wire_len());
    }

    #[test]
    fn corrupted_frame_rejected() {
        let mut bytes = Frame::data(1, 2, 3, vec![9, 9, 9]).encode();
        bytes[7] ^= 0x01;
        assert!(Frame::decode(&bytes).is_none());
    }

    #[test]
    fn truncated_frame_rejected() {
        let bytes = Frame::data(1, 2, 3, vec![9, 9, 9]).encode();
        assert!(Frame::decode(&bytes[..bytes.len() - 1]).is_none());
        assert!(Frame::decode(&[]).is_none());
    }

    #[test]
    fn bad_kind_rejected() {
        let mut bytes = Frame::data(1, 2, 3, vec![]).encode();
        // Patch kind then re-CRC so only the kind check can fail.
        bytes[0] = 77;
        let body_len = bytes.len() - 2;
        let crc = crate::crc::crc16_ccitt(&bytes[..body_len]);
        let n = bytes.len();
        bytes[n - 2..].copy_from_slice(&crc.to_be_bytes());
        assert!(Frame::decode(&bytes).is_none());
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut bytes = Frame::data(1, 2, 3, vec![1, 2, 3, 4]).encode();
        // Claim a shorter payload than present, fix CRC.
        bytes[6] = 2;
        let body_len = bytes.len() - 2;
        let crc = crate::crc::crc16_ccitt(&bytes[..body_len]);
        let n = bytes.len();
        bytes[n - 2..].copy_from_slice(&crc.to_be_bytes());
        assert!(Frame::decode(&bytes).is_none());
    }

    #[test]
    fn broadcast_detection() {
        assert!(Frame::data(1, BROADCAST, 0, vec![]).is_broadcast());
        assert!(!Frame::data(1, 2, 0, vec![]).is_broadcast());
    }
}
