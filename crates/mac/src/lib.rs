#![warn(missing_docs)]

//! # lv-mac — 802.15.4-style link layer
//!
//! The MAC below LiteView's communication stack. It is deliberately
//! structured as a *pure state machine*: the simulator's event loop feeds
//! it events (frame submitted, CCA result, transmission finished, ack
//! received / timed out) and it returns the [`MacAction`]s to schedule,
//! at most two, in an inline [`MacActions`] list. No clocks, no queues
//! of events — that keeps every MAC behaviour unit-testable without a
//! simulator and keeps the event loop the single owner of time.
//!
//! Modules:
//!
//! * [`crc`] — CRC-16/CCITT-FALSE, the 802.15.4 frame check sequence.
//!   The paper's stack diagram (Fig. 2) shows the "CRC Checker" as the
//!   first stage of reception.
//! * [`frame`] — byte-accurate frame encode/decode (data / ack / beacon).
//! * [`queue`] — the bounded transmit FIFO whose occupancy the ping
//!   command reports ("Queue = 0/0").
//! * [`csma`] — unslotted CSMA-CA with binary exponential backoff,
//!   retransmissions, and immediate acknowledgements.
//! * [`mac`] — the façade combining queue + CSMA + duplicate suppression.

pub mod crc;
pub mod csma;
pub mod frame;
pub mod mac;
pub mod queue;

pub use crc::{crc16_ccitt, verify_crc};
pub use csma::{CsmaConfig, CsmaMachine, MacAction, MacActions, TxFailReason};
pub use frame::{Frame, FrameKind, BROADCAST};
pub use mac::{Mac, Reception};
pub use queue::TxQueue;
