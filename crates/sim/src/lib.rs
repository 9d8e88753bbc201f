#![warn(missing_docs)]

//! # lv-sim — deterministic discrete-event simulation engine
//!
//! This crate is the bottom layer of the LiteView reproduction. Everything
//! above it (radio, MAC, network stack, kernel, LiteView itself) is driven
//! by a single virtual clock and a time-ordered event queue defined here.
//!
//! Design rules (see `DESIGN.md` §7):
//!
//! * **Virtual time only.** [`SimTime`] is a nanosecond counter; no wall
//!   clock is ever consulted, so simulated measurements (RTTs, response
//!   delays) are exact functions of the model.
//! * **Stable ordering.** Events that fire at the same instant are
//!   delivered in insertion order ([`EventQueue`] breaks ties with a
//!   monotonically increasing sequence number), which keeps runs
//!   bit-for-bit reproducible.
//! * **Seeded randomness.** All stochastic behaviour (backoff draws,
//!   shadowing, loss) flows from one root seed through [`rng::SimRng`]
//!   streams derived with SplitMix64, so independent subsystems do not
//!   perturb each other's random sequences.

pub mod bytes;
pub mod metrics;
pub mod queue;
pub mod ring;
pub mod rng;
pub mod time;
pub mod trace;

pub use bytes::InlineBytes;
pub use metrics::{CounterId, Counters, Histogram, Summary, TimeSeries};
pub use queue::EventQueue;
pub use ring::Ring;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent, TraceLevel};
