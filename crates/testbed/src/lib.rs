#![warn(missing_docs)]

//! # lv-testbed — topologies, scenarios, failures, experiment drivers
//!
//! The paper's evaluation ran on "a testbed composed of thirty MicaZ
//! nodes" with "a testbed of eight hops in diameter". This crate builds
//! the simulated equivalents:
//!
//! * [`topology`] — deterministic generators: line, grid, random disk,
//!   and the *corridor* layout (adjacent line-of-sight only) that pins
//!   an exact hop count the way the authors' 8-hop corridor deployment
//!   did.
//! * [`scenario`] — one-call construction of a ready network: topology +
//!   routers + LiteView suite + workstation + beacon warm-up.
//! * [`dynamics`] — failure injection: seeded schedules of link breaks
//!   and degradation ramps, interference bursts, node churn, and
//!   reconfiguration (node moves included), replayed bit-identically
//!   per seed through the network's event queue.
//! * [`experiments`] — the drivers that regenerate every figure and
//!   in-text number of Section V (see `DESIGN.md` §4 for the index).
//! * [`runner`] — the parallel multi-trial engine: deterministic seed
//!   splitting, a scoped worker pool, and failure-injection sweeps.
//! * [`stats`] — mean / stddev / 95% CI aggregation of trial results.
//! * [`results`] — serializable row types the `figures` harness prints.
//! * [`map`] — ASCII deployment maps for the interactive shell.

pub mod diagnosis;
pub mod dynamics;
pub mod experiments;
pub mod map;
pub mod results;
pub mod runner;
pub mod scenario;
pub mod stats;
pub mod topology;

pub use diagnosis::{diagnosis_sweep, fault_corpus, DiagnosisScenario, FaultLabel, FaultScope};
pub use dynamics::{DynamicsEvent, DynamicsPlan};
pub use runner::{FailurePlan, TrialCtx, TrialRunner};
pub use scenario::{Scenario, ScenarioConfig};
pub use stats::AggregateStats;
pub use topology::Topology;
