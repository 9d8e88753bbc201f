//! IEEE 802.15.4 channel assignment in the 2.4 GHz band.
//!
//! Section III.B.1: "the CC2420 radio chip … supports 16 channels", and
//! the sample ping output shows `Channel = 17`. 802.15.4-2003 numbers the
//! 2.4 GHz channels 11–26 with centre frequencies 2405 + 5·(k−11) MHz.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An IEEE 802.15.4 2.4 GHz channel (11–26).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Channel(u8);

impl Channel {
    /// Number of channels ("supports 16 channels").
    pub const COUNT: usize = 16;
    /// LiteOS's default channel, per the paper's sample output.
    pub const DEFAULT: Channel = Channel(17);

    /// Construct a channel; `None` outside 11–26.
    pub fn new(number: u8) -> Option<Channel> {
        (11..=26).contains(&number).then_some(Channel(number))
    }

    /// Channel number (11–26).
    pub fn number(self) -> u8 {
        self.0
    }

    /// Iterate every 2.4 GHz channel in order.
    pub fn all() -> impl Iterator<Item = Channel> {
        (11..=26).map(Channel)
    }
}

impl Default for Channel {
    fn default() -> Self {
        Channel::DEFAULT
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_channels() {
        assert_eq!(Channel::all().count(), Channel::COUNT);
        assert_eq!(Channel::COUNT, 16);
    }

    #[test]
    fn bounds() {
        assert!(Channel::new(10).is_none());
        assert!(Channel::new(27).is_none());
        assert_eq!(Channel::new(11).map(Channel::number), Some(11));
        assert_eq!(Channel::new(26).map(Channel::number), Some(26));
    }

    #[test]
    fn default_matches_paper_sample_output() {
        // "Power = 31, Channel = 17"
        assert_eq!(Channel::default().number(), 17);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Channel::DEFAULT), "17");
    }
}
