#![warn(missing_docs)]

//! # lv-serve — diagnosis sessions over a real socket backend
//!
//! The LiteView workstation as a long-running service: this crate
//! hosts a deployment (today the deterministic simulator; the seam is
//! transport-agnostic) behind a real `UdpSocket` and multiplexes many
//! concurrent end-user diagnosis sessions over the session wire
//! protocol defined in [`liteview::session`].
//!
//! Three pieces:
//!
//! * [`UdpTransport`] — the live backend of the
//!   [`liteview::transport::Transport`] seam: a threaded receive loop,
//!   bounded queues with backpressure accounting, chunked frames, and
//!   per-peer send pacing.
//! * [`Server`] — the driver: owns the hosted network + workstation,
//!   the transport and the clock, and feeds every frame, with the time
//!   since it started, to the shared [`liteview::SessionHost`], which
//!   owns the sessions and the live-operations policy (rate limits,
//!   idle timeouts, duplicate suppression, the session cap).
//!   [`ServerConfig`] and [`ServerStats`] are re-exported from
//!   [`liteview::session`].
//! * [`Client`] — the thin typed client; one instance is one session.
//!
//! This crate is the one place in the workspace allowed to read the
//! wall clock and talk to the OS network stack; lv-lint enforces that
//! the sim-path crates, the session policy included, stay
//! deterministic (see `DESIGN.md` §13).
//!
//! ## Quickstart
//!
//! ```no_run
//! use lv_serve::{Client, UdpConfig, UdpTransport};
//! use liteview::shell::ShellCommand;
//!
//! let t = UdpTransport::connect("127.0.0.1:7171", UdpConfig::default()).unwrap();
//! let mut c = Client::new(t, 0, 1);
//! c.hello().unwrap();
//! c.cd("192.168.0.1").unwrap();
//! let (_execution, lines) = c
//!     .exec(ShellCommand::Ping {
//!         dst: "192.168.0.2".into(),
//!         rounds: 1,
//!         length: 32,
//!         port: None,
//!     })
//!     .unwrap();
//! for l in lines {
//!     println!("{l}");
//! }
//! ```

pub mod client;
pub mod server;
pub mod smoke;
pub mod udp;

pub use client::{Client, ClientError, Welcome};
pub use liteview::session::{ServerConfig, ServerStats};
pub use server::Server;
pub use smoke::{run_fleet, FleetConfig, FleetReport};
pub use udp::{UdpConfig, UdpTransport};
