//! Neighbor beacon payloads.
//!
//! Beacons are how the kernel neighbor table is populated: each node
//! periodically broadcasts its identity, name, position, collection-tree
//! gradient, and its *inbound* quality estimates of the neighbors it
//! hears. The last item is what lets every node learn its own
//! **outbound** quality — the direction a node cannot measure locally —
//! which LiteView's neighbor listing then exposes to the operator.
//! The `update` command's "frequency of neighbor beacon exchanges"
//! setting is handled by the kernel's beacon scheduler; this module is
//! only the payload format.
//!
//! Wire layout:
//!
//! ```text
//! offset  size  field
//! 0       2     beacon sequence number
//! 2       4     x position (IEEE-754 f32, big-endian)
//! 6       4     y position
//! 10      1     collection-tree gradient (255 = unreachable)
//! 11      1     name length (≤ 15)
//! 12      1     link-entry count n (≤ 8)
//! 13      m     name bytes
//! 13+m    3n    link entries: neighbor id (2) + inbound quality (1)
//! ```

use lv_radio::units::Position;

/// Maximum advertised name length (LiteOS file names are short).
pub const MAX_NAME_LEN: usize = 15;
/// Maximum link entries per beacon.
pub const MAX_LINK_ENTRIES: usize = 8;

/// A decoded beacon.
#[derive(Debug, Clone, PartialEq)]
pub struct BeaconPayload {
    /// Per-node beacon sequence (feeds the link estimator).
    pub seq: u16,
    /// Advertised position.
    pub position: Position,
    /// Collection-tree gradient (hops to root; 255 = unreachable).
    pub tree_hops: u8,
    /// Advertised node name.
    pub name: String,
    /// `(neighbor id, inbound quality byte)` pairs.
    pub links: Vec<(u16, u8)>,
}

impl BeaconPayload {
    /// Serialize. Name and link list are truncated to their caps, the
    /// name at a char boundary.
    pub fn encode(&self) -> Vec<u8> {
        let name = crate::truncate_utf8(&self.name, MAX_NAME_LEN).as_bytes();
        let links = &self.links[..self.links.len().min(MAX_LINK_ENTRIES)];
        let mut buf = Vec::with_capacity(13 + name.len() + 3 * links.len());
        buf.extend_from_slice(&self.seq.to_be_bytes());
        buf.extend_from_slice(&(self.position.x as f32).to_be_bytes());
        buf.extend_from_slice(&(self.position.y as f32).to_be_bytes());
        buf.push(self.tree_hops);
        buf.push(name.len() as u8);
        buf.push(links.len() as u8);
        buf.extend_from_slice(name);
        for &(id, q) in links {
            buf.extend_from_slice(&id.to_be_bytes());
            buf.push(q);
        }
        buf
    }

    /// Parse; `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<BeaconPayload> {
        if buf.len() < 13 {
            return None;
        }
        let seq = u16::from_be_bytes([buf[0], buf[1]]);
        let x = f32::from_be_bytes([buf[2], buf[3], buf[4], buf[5]]) as f64;
        let y = f32::from_be_bytes([buf[6], buf[7], buf[8], buf[9]]) as f64;
        let tree_hops = buf[10];
        let name_len = buf[11] as usize;
        let n_links = buf[12] as usize;
        if name_len > MAX_NAME_LEN || n_links > MAX_LINK_ENTRIES {
            return None;
        }
        if buf.len() != 13 + name_len + 3 * n_links {
            return None;
        }
        let name = String::from_utf8(buf[13..13 + name_len].to_vec()).ok()?;
        let mut links = Vec::with_capacity(n_links);
        let mut off = 13 + name_len;
        for _ in 0..n_links {
            let id = u16::from_be_bytes([buf[off], buf[off + 1]]);
            let q = buf[off + 2];
            links.push((id, q));
            off += 3;
        }
        Some(BeaconPayload {
            seq,
            position: Position::new(x, y),
            tree_hops,
            name,
            links,
        })
    }

    /// The quality byte this beacon advertises for node `id`, if listed.
    pub fn quality_of(&self, id: u16) -> Option<u8> {
        self.links.iter().find(|&&(n, _)| n == id).map(|&(_, q)| q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beacon() -> BeaconPayload {
        BeaconPayload {
            seq: 300,
            position: Position::new(12.5, -3.25),
            tree_hops: 4,
            name: "192.168.0.7".into(),
            links: vec![(1, 255), (2, 128), (9, 0)],
        }
    }

    #[test]
    fn round_trip() {
        let b = beacon();
        let d = BeaconPayload::decode(&b.encode()).expect("decodes");
        assert_eq!(d, b);
    }

    #[test]
    fn fits_in_payload_area() {
        // A maximal beacon must fit the 64-byte network payload area.
        let b = BeaconPayload {
            seq: u16::MAX,
            position: Position::new(1e4, 1e4),
            tree_hops: 255,
            name: "x".repeat(MAX_NAME_LEN),
            links: vec![(0xFFFF, 255); MAX_LINK_ENTRIES],
        };
        assert!(b.encode().len() <= crate::packet::PAYLOAD_AREA);
    }

    #[test]
    fn truncates_oversized_fields() {
        let b = BeaconPayload {
            seq: 1,
            position: Position::new(0.0, 0.0),
            tree_hops: 0,
            name: "a-very-long-name-beyond-fifteen-bytes".into(),
            links: vec![(1, 1); 20],
        };
        let d = BeaconPayload::decode(&b.encode()).unwrap();
        assert_eq!(d.name.len(), MAX_NAME_LEN);
        assert_eq!(d.links.len(), MAX_LINK_ENTRIES);
    }

    #[test]
    fn name_is_cut_at_a_char_boundary() {
        // `é` takes bytes 14 and 15: a cut at byte 15 would split it.
        let b = BeaconPayload {
            name: "192.168.0.10-né".into(),
            ..beacon()
        };
        let d = BeaconPayload::decode(&b.encode()).expect("decodes");
        assert_eq!(d.name, "192.168.0.10-n");
    }

    #[test]
    fn quality_lookup() {
        let b = beacon();
        assert_eq!(b.quality_of(2), Some(128));
        assert_eq!(b.quality_of(42), None);
    }

    #[test]
    fn malformed_rejected() {
        assert!(BeaconPayload::decode(&[]).is_none());
        assert!(BeaconPayload::decode(&[0; 5]).is_none());
        let mut bytes = beacon().encode();
        bytes.push(0); // length mismatch
        assert!(BeaconPayload::decode(&bytes).is_none());
        let mut bytes2 = beacon().encode();
        bytes2[12] = 200; // absurd link count
        assert!(BeaconPayload::decode(&bytes2).is_none());
    }

    #[test]
    fn position_survives_f32_round_trip() {
        let b = beacon();
        let d = BeaconPayload::decode(&b.encode()).unwrap();
        assert!((d.position.x - 12.5).abs() < 1e-6);
        assert!((d.position.y + 3.25).abs() < 1e-6);
    }
}
