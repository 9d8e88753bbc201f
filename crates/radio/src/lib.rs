#![warn(missing_docs)]

//! # lv-radio — CC2420 radio and channel models
//!
//! The paper's evaluation platform is the MicaZ mote, whose CC2420
//! transceiver provides the three physical quantities LiteView reports:
//! programmable TX power, per-packet RSSI, and per-packet LQI. Real RF
//! hardware is unavailable here (see `DESIGN.md` §2), so this crate
//! implements the standard empirical models for each:
//!
//! * [`power`] — the CC2420 `PA_LEVEL` register (0–31) to dBm mapping
//!   (−25 dBm … 0 dBm, exactly the range Section III.B.1 quotes).
//! * [`channel`] — the sixteen IEEE 802.15.4 channels (11–26) at
//!   2405 + 5·(k−11) MHz.
//! * [`propagation`] — log-distance path loss with per-directed-link
//!   log-normal shadowing (the Zuniga–Krishnamachari link model), which
//!   produces the broken and *asymmetric* links LiteView exists to find.
//! * [`rssi`] / [`lqi`] — the CC2420 register semantics: RSSI is received
//!   power plus a +45 offset; LQI is a 50–110 chip-correlation score.
//! * [`per`] — bit/packet error rate of the 250 kbps O-QPSK DSSS PHY as a
//!   function of SNR.
//! * [`timing`] — byte airtime (32 µs), preamble, and RX/TX turnaround.
//! * [`medium`] — node geometry plus the above, answering "at what power
//!   does node B hear node A, and does the frame survive?".

pub mod channel;
pub mod energy;
pub mod grid;
pub mod lqi;
pub mod medium;
pub mod per;
pub mod power;
pub mod propagation;
pub mod rssi;
pub mod timing;
pub mod units;

pub use channel::Channel;
pub use energy::EnergyLedger;
pub use grid::SpatialGrid;
pub use lqi::lqi_from_snr;
pub use medium::{LinkOverride, Medium, Reachable, RxAssessment};
pub use per::{ber_oqpsk, packet_error_rate};
pub use power::PowerLevel;
pub use propagation::{LogDistance, PropagationConfig};
pub use rssi::{rssi_register, rssi_to_power_dbm};
pub use timing::{frame_airtime, PhyTiming};
pub use units::{Dbm, Meters, Position};
