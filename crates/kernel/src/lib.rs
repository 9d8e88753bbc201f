#![warn(missing_docs)]

//! # lv-kernel — the LiteOS-like node substrate and network orchestrator
//!
//! LiteView is built on LiteOS, an operating system offering "Unix-like
//! abstractions for wireless sensor networks": nodes mount as
//! directories, programs run as threads with system calls, and the
//! kernel owns shared services such as the neighbor table. This crate
//! reproduces the parts of that substrate LiteView relies on:
//!
//! * [`process`] — processes ("LiteView commands are executed as
//!   individual processes") and the syscall surface, including the
//!   parameter-buffer mechanism of Section IV.C.4.
//! * [`node`] — one mote: radio configuration, MAC, stack, processes,
//!   resource ledger, event log.
//! * [`resources`] — MicaZ flash/RAM accounting, against which the
//!   paper's footprint numbers (T-foot in `DESIGN.md`) are checked.
//! * [`names`] — IP-convention node naming and `/sn01/...` shell paths.
//! * [`log`] — per-node on-demand event logging.
//! * [`network`] — the deterministic event loop coupling every node
//!   through the shared radio medium: airtime, CCA, collisions,
//!   acknowledgements, beacons, timers, and process hooks.
//! * [`audit`] — the runtime invariant auditor: event-time
//!   monotonicity, stale-transmission detection after churn, and
//!   flash/RAM ledger balance, enabled by tests and the nightly soak.

pub mod audit;
pub mod log;
pub mod names;
pub mod network;
pub mod node;
pub mod process;
pub mod resources;

pub use audit::{AuditLog, AuditViolation};
pub use log::{EventLog, LogEntry};
pub use names::{default_name, parse_name, shell_path, NameRegistry};
pub use network::{DynamicsAction, LinkObs, Network, NetworkConfig};
pub use node::{Node, NodeStats};
pub use process::{Effect, Process, RxMeta, SysCtx};
pub use resources::{ProcessImage, ResourceAccount, ResourceError};
