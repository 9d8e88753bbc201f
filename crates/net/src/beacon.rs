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

use lv_mac::frame::FramePayload;
use lv_radio::units::Position;

/// Maximum advertised name length (LiteOS file names are short).
pub const MAX_NAME_LEN: usize = 15;
/// Maximum link entries per beacon.
pub const MAX_LINK_ENTRIES: usize = 8;

/// Bytes before the name: sequence, position, gradient and two counts.
const HEADER_LEN: usize = 13;

/// A beacon read in place from its wire bytes. [`Beacon::parse`] checks
/// the layout once; the name and the link entries stay borrowed from
/// the frame payload, so reading a beacon copies nothing to the heap.
#[derive(Debug, Clone, Copy)]
pub struct Beacon<'a> {
    /// Per-node beacon sequence (feeds the link estimator).
    pub seq: u16,
    /// Advertised position.
    pub position: Position,
    /// Collection-tree gradient (hops to root; 255 = unreachable).
    pub tree_hops: u8,
    /// Advertised node name.
    pub name: &'a str,
    /// The link entries' wire bytes, three per entry.
    links: &'a [u8],
}

impl<'a> Beacon<'a> {
    /// Encode a beacon straight into a frame payload. The name is cut
    /// to [`MAX_NAME_LEN`] bytes at a char boundary, and only the first
    /// [`MAX_LINK_ENTRIES`] `(neighbor id, inbound quality byte)` pairs
    /// are kept.
    pub fn encode(
        seq: u16,
        position: Position,
        tree_hops: u8,
        name: &str,
        links: impl IntoIterator<Item = (u16, u8)>,
    ) -> FramePayload {
        let name = crate::truncate_utf8(name, MAX_NAME_LEN).as_bytes();
        let mut out = FramePayload::new();
        out.extend_from_slice(&seq.to_be_bytes());
        out.extend_from_slice(&(position.x as f32).to_be_bytes());
        out.extend_from_slice(&(position.y as f32).to_be_bytes());
        out.push(tree_hops);
        out.push(name.len() as u8);
        out.push(0); // link count, set below
        out.extend_from_slice(name);
        let mut count = 0u8;
        for (id, q) in links.into_iter().take(MAX_LINK_ENTRIES) {
            out.extend_from_slice(&id.to_be_bytes());
            out.push(q);
            count += 1;
        }
        out[HEADER_LEN - 1] = count;
        out
    }

    /// Read a beacon from its wire bytes; `None` on malformed input.
    pub fn parse(buf: &'a [u8]) -> Option<Beacon<'a>> {
        if buf.len() < HEADER_LEN {
            return None;
        }
        let name_len = buf[11] as usize;
        let n_links = buf[12] as usize;
        if name_len > MAX_NAME_LEN || n_links > MAX_LINK_ENTRIES {
            return None;
        }
        if buf.len() != HEADER_LEN + name_len + 3 * n_links {
            return None;
        }
        let (name, links) = buf[HEADER_LEN..].split_at(name_len);
        let x = f32::from_be_bytes([buf[2], buf[3], buf[4], buf[5]]) as f64;
        let y = f32::from_be_bytes([buf[6], buf[7], buf[8], buf[9]]) as f64;
        Some(Beacon {
            seq: u16::from_be_bytes([buf[0], buf[1]]),
            position: Position::new(x, y),
            tree_hops: buf[10],
            name: std::str::from_utf8(name).ok()?,
            links,
        })
    }

    /// The `(neighbor id, inbound quality byte)` pairs, in wire order.
    pub fn links(&self) -> impl Iterator<Item = (u16, u8)> + 'a {
        self.links
            .chunks_exact(3)
            .map(|e| (u16::from_be_bytes([e[0], e[1]]), e[2]))
    }

    /// The quality byte this beacon advertises for node `id`, if listed.
    pub fn quality_of(&self, id: u16) -> Option<u8> {
        self.links().find(|&(n, _)| n == id).map(|(_, q)| q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAME: &str = "192.168.0.7";
    const LINKS: [(u16, u8); 3] = [(1, 255), (2, 128), (9, 0)];

    fn beacon() -> FramePayload {
        Beacon::encode(300, Position::new(12.5, -3.25), 4, NAME, LINKS)
    }

    #[test]
    fn round_trip() {
        let bytes = beacon();
        let d = Beacon::parse(&bytes).expect("parses");
        assert_eq!(d.seq, 300);
        assert_eq!(d.position, Position::new(12.5, -3.25));
        assert_eq!(d.tree_hops, 4);
        assert_eq!(d.name, NAME);
        assert!(d.links().eq(LINKS));
    }

    /// One beacon's wire bytes, pinned: the layout every neighbor
    /// decodes.
    #[test]
    fn encoded_bytes_are_pinned() {
        let bytes = beacon();
        assert_eq!(
            bytes.as_slice(),
            [
                0x01, 0x2c, // seq 300
                0x41, 0x48, 0x00, 0x00, // x 12.5
                0xc0, 0x50, 0x00, 0x00, // y -3.25
                4, 11, 3, // tree hops, name length, link count
                b'1', b'9', b'2', b'.', b'1', b'6', b'8', b'.', b'0', b'.', b'7', // name
                0, 1, 255, 0, 2, 128, 0, 9, 0, // links
            ]
        );
    }

    #[test]
    fn fits_in_payload_area() {
        // A maximal beacon must fit the 64-byte network payload area.
        let b = Beacon::encode(
            u16::MAX,
            Position::new(1e4, 1e4),
            255,
            &"x".repeat(MAX_NAME_LEN),
            [(0xFFFF, 255); MAX_LINK_ENTRIES],
        );
        assert!(b.len() <= crate::packet::PAYLOAD_AREA);
    }

    #[test]
    fn truncates_oversized_fields() {
        let b = Beacon::encode(
            1,
            Position::new(0.0, 0.0),
            0,
            "a-very-long-name-beyond-fifteen-bytes",
            [(1, 1); 20],
        );
        let d = Beacon::parse(&b).unwrap();
        assert_eq!(d.name.len(), MAX_NAME_LEN);
        assert_eq!(d.links().count(), MAX_LINK_ENTRIES);
    }

    #[test]
    fn name_is_cut_at_a_char_boundary() {
        // `é` takes bytes 14 and 15: a cut at byte 15 would split it.
        let b = Beacon::encode(300, Position::new(12.5, -3.25), 4, "192.168.0.10-né", LINKS);
        let d = Beacon::parse(&b).expect("parses");
        assert_eq!(d.name, "192.168.0.10-n");
    }

    #[test]
    fn quality_lookup() {
        let bytes = beacon();
        let b = Beacon::parse(&bytes).unwrap();
        assert_eq!(b.quality_of(2), Some(128));
        assert_eq!(b.quality_of(42), None);
    }

    #[test]
    fn malformed_rejected() {
        assert!(Beacon::parse(&[]).is_none());
        assert!(Beacon::parse(&[0; 5]).is_none());
        let mut bytes = beacon().to_vec();
        bytes.push(0); // length mismatch
        assert!(Beacon::parse(&bytes).is_none());
        let mut bytes2 = beacon();
        bytes2[12] = 200; // absurd link count
        assert!(Beacon::parse(&bytes2).is_none());
        let mut bytes3 = beacon();
        bytes3[13] = 0xFF; // not UTF-8
        assert!(Beacon::parse(&bytes3).is_none());
    }

    #[test]
    fn position_survives_f32_round_trip() {
        let bytes = beacon();
        let d = Beacon::parse(&bytes).unwrap();
        assert!((d.position.x - 12.5).abs() < 1e-6);
        assert!((d.position.y + 3.25).abs() < 1e-6);
    }
}
