//! PHY timing constants of the 2.4 GHz 802.15.4 radio.
//!
//! These constants are where the absolute magnitudes of the paper's
//! delay measurements come from: 250 kbps ⇒ 32 µs per byte, a 6-byte
//! synchronization header, and a 12-symbol (192 µs) RX/TX turnaround.

use lv_sim::SimDuration;

/// Fixed timing parameters of the PHY.
#[derive(Debug, Clone, Copy)]
pub struct PhyTiming {
    /// Airtime of one payload byte.
    pub byte_time: SimDuration,
    /// Synchronization header: 4 preamble bytes + SFD + length byte.
    pub sync_header_bytes: usize,
    /// RX→TX / TX→RX turnaround (aTurnaroundTime = 12 symbols).
    pub turnaround: SimDuration,
    /// CCA measurement window (8 symbols).
    pub cca_time: SimDuration,
    /// One unit backoff period (aUnitBackoffPeriod = 20 symbols).
    pub unit_backoff: SimDuration,
}

impl PhyTiming {
    /// 802.15.4-2003 2.4 GHz numbers: 16 µs symbols, 32 µs bytes.
    pub const fn ieee802154_2450mhz() -> Self {
        PhyTiming {
            byte_time: SimDuration::from_micros(32),
            sync_header_bytes: 6,
            turnaround: SimDuration::from_micros(192),
            cca_time: SimDuration::from_micros(128),
            unit_backoff: SimDuration::from_micros(320),
        }
    }

    /// Time the medium is occupied by a frame whose MAC-level size
    /// (header + payload + CRC) is `mac_bytes`.
    pub fn frame_airtime(&self, mac_bytes: usize) -> SimDuration {
        self.byte_time
            .saturating_mul((self.sync_header_bytes + mac_bytes) as u64)
    }
}

impl Default for PhyTiming {
    fn default() -> Self {
        Self::ieee802154_2450mhz()
    }
}

/// Airtime of a MAC frame of `mac_bytes` bytes under default timing.
pub fn frame_airtime(mac_bytes: usize) -> SimDuration {
    PhyTiming::default().frame_airtime(mac_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_time_is_32us() {
        let t = PhyTiming::default();
        assert_eq!(t.byte_time.as_micros(), 32);
    }

    #[test]
    fn sync_header_costs_192us() {
        // A zero-byte MAC frame still pays the 6-byte sync header.
        assert_eq!(frame_airtime(0).as_micros(), 192);
    }

    #[test]
    fn fifty_byte_frame() {
        // 6 + 50 bytes at 32 µs = 1792 µs: the ballpark that yields the
        // paper's few-millisecond single-hop RTTs.
        assert_eq!(frame_airtime(50).as_micros(), 1792);
    }

    #[test]
    fn standard_mac_constants() {
        let t = PhyTiming::default();
        assert_eq!(t.turnaround.as_micros(), 192);
        assert_eq!(t.unit_backoff.as_micros(), 320);
        assert_eq!(t.cca_time.as_micros(), 128);
    }

    #[test]
    fn airtime_linear_in_length() {
        let a = frame_airtime(10);
        let b = frame_airtime(20);
        let c = frame_airtime(30);
        assert_eq!(b - a, c - b);
    }
}
