#![warn(missing_docs)]

//! # liteview — end-user diagnosis of communication paths
//!
//! Reproduction of *LiteView* (Cao, Wang, Abdelzaher — ICPP 2009): an
//! application-independent, interactive toolkit for diagnosing the
//! communication layer of resource-constrained sensor networks.
//!
//! The toolkit has two halves, mirroring the paper's Figure 1:
//!
//! * the **command interpreter** ([`interpreter`], driven through
//!   [`workstation::Workstation`]) extends the LiteOS shell on the
//!   user's workstation;
//! * the **runtime controller** ([`controller::RuntimeController`]) is
//!   a resident process on every node that answers management requests,
//!   responds to probes, and spawns the command processes.
//!
//! Commands provided (Section III.B): radio configuration (power and
//! channel get/set), neighborhood management (list / blacklist /
//! update), link profiling ([`ping`], one-hop and multi-hop with
//! link-quality padding), and path profiling ([`traceroute`], per-hop
//! reports). The reliable one-hop command protocol with loss-adaptive
//! batching lives in [`protocol`]; the message formats in [`wire`].
//!
//! Diagnosis sessions reach the deployment through the [`transport`]
//! seam: the deterministic in-process backend lives here, a real UDP
//! backend in the `lv-serve` crate, and both carry the [`session`]
//! wire protocol.
//!
//! ## Quickstart
//!
//! ```no_run
//! use liteview::{install_suite, CommandRequest, Workstation};
//! use lv_kernel::Network;
//! use lv_radio::{Medium, PropagationConfig, Position};
//! use lv_sim::SimDuration;
//!
//! // Two motes five meters apart.
//! let medium = Medium::new(
//!     vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)],
//!     PropagationConfig::default(),
//!     42,
//! );
//! let mut net = Network::new(medium, 42);
//! install_suite(&mut net);                  // runtime controllers
//! net.run_for(SimDuration::from_secs(10));  // let beacons settle
//!
//! let mut ws = Workstation::install(&mut net, 0);
//! ws.cd(&net, "192.168.0.1").unwrap();
//! let exec = ws.exec(&mut net, CommandRequest::ping(1, 1, 32, None)).unwrap();
//! println!("{:#?}", exec.result);
//! for line in ws.transcript() {
//!     println!("{line}");
//! }
//! ```

pub mod commands;
pub mod controller;
pub mod diagnose;
pub mod interpreter;
pub mod observe;
pub mod output;
pub mod ping;
pub mod protocol;
pub mod session;
pub mod shell;
pub mod traceroute;
pub mod transport;
pub mod wire;
pub mod workstation;

pub use commands::{
    session_port, Command, CommandResult, Execution, PingOutcome, TraceHop, TraceOutcome,
    WORKSTATION_PORT,
};
pub use controller::RuntimeController;
pub use diagnose::{
    BlacklistSuggestion, DiagnosisEngine, DiagnosisLog, DiagnosisReport, DriftKind, LinkDetector,
    Suspicion,
};
pub use observe::{NodeDelta, ObservabilityReport};
pub use ping::PingProcess;
pub use session::{Request, RequestBody, Response, ResponseBody, SessionHost};
pub use traceroute::{TrHopProcess, TrSourceProcess};
pub use transport::{PeerId, SimTransport, Transport, TransportError};
pub use workstation::{CommandRequest, ExecError, ExecTarget, Workstation};

use lv_kernel::Network;

/// Install the LiteView runtime controller on every node of `net`.
///
/// This is the moral equivalent of flashing the LiteView-enabled LiteOS
/// image onto the deployment: after this, every node can be managed
/// interactively, independent of whatever application it runs.
pub fn install_suite(net: &mut Network) {
    for id in 0..net.node_count() as u16 {
        // A freshly provisioned node always has room for the
        // controller; if its process table is somehow full, that node
        // stays unmanaged rather than aborting the whole install.
        if net
            .spawn_process(id, Box::new(RuntimeController::new()), vec![])
            .is_err()
        {
            debug_assert!(false, "controller install failed on node {id}");
        }
    }
}
