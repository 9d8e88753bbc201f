//! One-call scenario construction.
//!
//! Wraps the boilerplate every experiment and example shares: generate
//! the topology, build the network, install routing protocols and the
//! LiteView suite, warm up the beacons, and attach a workstation.

use crate::topology::Topology;
use liteview::{install_suite, Workstation};
use lv_kernel::{Network, NetworkConfig};
use lv_net::packet::Port;
use lv_net::routing::{CollectionTree, Flooding, Geographic};
use lv_radio::propagation::PropagationConfig;
use lv_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Which routing protocols to install on every node.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Protocols {
    /// Greedy geographic forwarding on port 10 (the paper's example).
    pub geographic: bool,
    /// Flooding on port 11.
    pub flooding: bool,
    /// Collection tree on port 12 (node 0 is the root).
    pub tree: bool,
}

impl Default for Protocols {
    fn default() -> Self {
        Protocols {
            geographic: true,
            flooding: false,
            tree: false,
        }
    }
}

/// Everything needed to build a scenario deterministically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// The deployment layout.
    pub topology: Topology,
    /// Root seed (drives propagation, MAC backoffs, jitters …).
    pub seed: u64,
    /// Propagation parameters.
    #[serde(default = "PropagationConfig::default")]
    pub propagation: PropagationConfig,
    /// Protocols installed on every node.
    #[serde(default)]
    pub protocols: Protocols,
    /// Beacon warm-up before the experiment starts.
    pub warmup: SimDuration,
    /// The workstation's bridge node.
    pub bridge: u16,
}

impl ScenarioConfig {
    /// A sensible default around a given topology.
    pub fn new(topology: Topology, seed: u64) -> Self {
        ScenarioConfig {
            topology,
            seed,
            propagation: PropagationConfig::default(),
            protocols: Protocols::default(),
            warmup: SimDuration::from_secs(25),
            bridge: 0,
        }
    }
}

/// A fully built scenario: network + attached workstation.
///
/// ```no_run
/// use liteview::CommandRequest;
/// use lv_testbed::{Scenario, ScenarioConfig, Topology};
/// use lv_net::packet::Port;
///
/// let mut s = Scenario::build(ScenarioConfig::new(Topology::eight_hop_corridor(), 42));
/// s.ws.cd(&s.net, "192.168.0.1").unwrap();
/// let exec = s
///     .ws
///     .exec(&mut s.net, CommandRequest::traceroute(8, 32, Port::GEOGRAPHIC))
///     .unwrap();
/// println!("{:?}", exec.result);
/// ```
pub struct Scenario {
    /// The running deployment.
    pub net: Network,
    /// The management workstation.
    pub ws: Workstation,
    /// The config it was built from.
    pub config: ScenarioConfig,
}

impl Scenario {
    /// Build and warm up.
    pub fn build(config: ScenarioConfig) -> Scenario {
        Self::build_with_network_config(config, NetworkConfig::default())
    }

    /// Build with a custom kernel/network config.
    pub fn build_with_network_config(
        config: ScenarioConfig,
        net_config: NetworkConfig,
    ) -> Scenario {
        let medium = config.topology.medium(config.propagation, config.seed);
        let mut net = Network::with_config(medium, config.seed, net_config);
        for i in 0..net.node_count() as u16 {
            if config.protocols.geographic {
                net.install_router(i, Box::new(Geographic::new(Port::GEOGRAPHIC)))
                    .expect("port 10 free");
            }
            if config.protocols.flooding {
                net.install_router(i, Box::new(Flooding::new(Port::FLOODING)))
                    .expect("port 11 free");
            }
            if config.protocols.tree {
                net.install_router(i, Box::new(CollectionTree::new(Port::TREE, i == 0)))
                    .expect("port 12 free");
            }
        }
        install_suite(&mut net);
        net.run_for(config.warmup);
        let ws = Workstation::install(&mut net, config.bridge);
        Scenario { net, ws, config }
    }

    /// Reset the global packet counters (done before a measured phase so
    /// warm-up beacons don't pollute overhead counts).
    pub fn reset_counters(&mut self) {
        self.net.counters.reset();
    }

    /// Snapshot the network-wide flight recorder: per-node stats, the
    /// retained event timeline, and every command executed so far.
    /// (The recorder is armed automatically by [`Workstation::install`]
    /// during [`Scenario::build`].)
    pub fn report(&self) -> liteview::ObservabilityReport {
        self.ws.report(&self.net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liteview::{CommandRequest, CommandResult};

    #[test]
    fn builds_and_pings() {
        let cfg = ScenarioConfig::new(Topology::Line { n: 2, spacing: 5.0 }, 5);
        let mut s = Scenario::build(cfg);
        s.ws.cd(&s.net, "192.168.0.1").unwrap();
        let exec =
            s.ws.exec(&mut s.net, CommandRequest::ping(1, 1, 32, None))
                .unwrap();
        let CommandResult::Ping(p) = exec.result else {
            panic!()
        };
        assert_eq!(p.received, 1);
    }

    #[test]
    fn built_scenario_has_armed_flight_recorder() {
        use lv_sim::TraceLevel;
        let cfg = ScenarioConfig::new(Topology::Line { n: 2, spacing: 5.0 }, 6);
        let mut s = Scenario::build(cfg);
        assert!(s.net.trace.accepts(TraceLevel::Packet));
        s.ws.cd(&s.net, "192.168.0.1").unwrap();
        s.ws.exec(&mut s.net, CommandRequest::ping(1, 1, 32, None))
            .unwrap();
        let report = s.report();
        assert_eq!(report.executions.len(), 1);
        assert!(!report.executions[0].timeline.is_empty());
        assert!(liteview::ObservabilityReport::from_json(&report.to_json()).is_some());
    }

    #[test]
    fn config_serializes() {
        let cfg = ScenarioConfig::new(Topology::eight_hop_corridor(), 7);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.seed, 7);
        assert_eq!(back.topology.node_count(), 9);
    }

    #[test]
    fn all_three_protocols_coexist() {
        let cfg = ScenarioConfig {
            protocols: Protocols {
                geographic: true,
                flooding: true,
                tree: true,
            },
            warmup: SimDuration::from_secs(5),
            ..ScenarioConfig::new(Topology::Line { n: 3, spacing: 5.0 }, 9)
        };
        let s = Scenario::build(cfg);
        let names = s.net.node(1).stack.router_list();
        assert_eq!(names.len(), 3);
    }
}
