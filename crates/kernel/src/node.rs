//! One simulated mote: radio state + MAC + stack + processes.

use crate::log::EventLog;
use crate::process::Process;
use crate::resources::{ProcessImage, ResourceAccount, ResourceError};
use lv_mac::{CsmaConfig, Mac, TxQueue};
use lv_net::ports::ProcessId;
use lv_net::stack::{Stack, StackConfig};
use lv_radio::{Channel, EnergyLedger, PowerLevel};
use lv_sim::{Counters, SimRng};
use serde::{Deserialize, Serialize};

/// A process slot. The `process` box is temporarily `take()`n while its
/// hook runs so the hook's context can borrow the rest of the node.
pub struct ProcessSlot {
    /// The process object (absent only while a hook is executing).
    pub process: Option<Box<dyn Process>>,
    /// Registered image cost.
    pub image: ProcessImage,
    /// The parameter buffer supplied at spawn.
    pub params: Vec<u8>,
    /// Display name (cached from the process).
    pub name: String,
}

/// A point-in-time snapshot of one node's health and traffic — the
/// per-node page of the network flight recorder. JSON-serializable so
/// the workstation can embed it in its `ObservabilityReport`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeStats {
    /// Node id.
    pub id: u16,
    /// Node name (IP convention).
    pub name: String,
    /// Whether the node is powered.
    pub alive: bool,
    /// Frames waiting in the MAC transmit queue.
    pub queue_len: usize,
    /// Live neighbor-table entries.
    pub neighbor_count: usize,
    /// Running processes.
    pub process_count: usize,
    /// Radio energy spent so far, in millijoules.
    pub energy_mj: f64,
    /// Merged MAC + network-layer counters for this node.
    pub counters: Counters,
}

/// One sensor node.
pub struct Node {
    /// Node id (index into the medium's position table).
    pub id: u16,
    /// Node name (IP convention by default).
    pub name: String,
    /// Radio transmission power.
    pub power: PowerLevel,
    /// Radio channel.
    pub channel: Channel,
    /// Link layer.
    pub mac: Mac,
    /// Network stack (owns the kernel neighbor table).
    pub stack: Stack,
    /// Running processes.
    pub processes: std::collections::BTreeMap<ProcessId, ProcessSlot>,
    /// Flash/RAM ledger.
    pub resources: ResourceAccount,
    /// On-demand event log.
    pub log: EventLog,
    /// Radio energy ledger (CC2420 current model).
    pub energy: EnergyLedger,
    /// This node's deterministic RNG stream.
    pub rng: SimRng,
    next_pid: ProcessId,
}

impl Node {
    /// LiteOS-profile CSMA: the standard unslotted algorithm with a
    /// slightly smaller initial window (BE₀ = 2), matching the low-delay
    /// single-hop RTTs the paper reports (~4.7 ms for 32-byte probes).
    pub fn liteos_csma() -> CsmaConfig {
        CsmaConfig {
            min_be: 2,
            ..CsmaConfig::default()
        }
    }

    /// Create a node.
    pub fn new(id: u16, name: String, seed: u64) -> Self {
        Node {
            id,
            name: name.clone(),
            power: PowerLevel::MAX,
            channel: Channel::DEFAULT,
            mac: Mac::new(id, Self::liteos_csma(), TxQueue::DEFAULT_CAPACITY),
            stack: Stack::new(id, name, StackConfig::default()),
            processes: std::collections::BTreeMap::new(),
            resources: ResourceAccount::micaz(),
            log: EventLog::default(),
            energy: EnergyLedger::default(),
            rng: SimRng::stream(seed, 0x4E4F_4445_0000_0000 | id as u64),
            next_pid: 1,
        }
    }

    /// Cold-reboot the node's volatile radio/stack state after a power
    /// cycle (node-churn dynamics). The MAC — queue, CSMA machine,
    /// sequence numbers — and the kernel neighbor table live in RAM and
    /// come back empty; installed processes, routers, the flash ledger,
    /// and the node's RNG stream survive (the stream is the node's
    /// identity in the deterministic replay, not its memory).
    pub fn reboot(&mut self) {
        self.mac = Mac::new(self.id, Self::liteos_csma(), TxQueue::DEFAULT_CAPACITY);
        self.stack.on_reboot();
    }

    /// Register a process (image charged, pid allocated). The caller
    /// (the network) is responsible for scheduling its `on_start`.
    pub fn register_process(
        &mut self,
        process: Box<dyn Process>,
        params: Vec<u8>,
    ) -> Result<ProcessId, ResourceError> {
        let image = process.image();
        self.resources.register(image)?;
        let pid = self.next_pid;
        self.next_pid += 1;
        // A process is named once, when it is spawned: a spawn is a
        // process's own rare syscall (the hot path reaches it only
        // through `Effect::Spawn`), and the slot keeps the name for the
        // process's lifetime.
        // lv-lint: allow(hot-path-alloc)
        let name = process.name().to_owned();
        self.processes.insert(
            pid,
            ProcessSlot {
                process: Some(process),
                image,
                params,
                name,
            },
        );
        Ok(pid)
    }

    /// Remove a process: ports unsubscribed, RAM released (flash stays —
    /// the executable file remains stored).
    pub fn remove_process(&mut self, pid: ProcessId) {
        if let Some(slot) = self.processes.remove(&pid) {
            self.resources.release_ram(slot.image);
            self.stack.unsubscribe_all(pid);
        }
    }

    /// This node's counters: the MAC's and the network stack's, merged
    /// into one namespace.
    pub fn counters(&self) -> Counters {
        let mut counters = self.mac.counters().clone();
        counters.merge(self.stack.counters());
        counters
    }

    /// Snapshot this node's health and traffic counters. Liveness is
    /// the medium's dead bit, so the caller passes it in.
    pub fn stats(&self, alive: bool) -> NodeStats {
        NodeStats {
            id: self.id,
            name: self.name.clone(),
            alive,
            queue_len: self.mac.queue_len(),
            neighbor_count: self.stack.neighbors.len(),
            process_count: self.processes.len(),
            energy_mj: self.energy.active_joules() * 1e3,
            counters: self.counters(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::SysCtx;

    struct Nop;
    impl Process for Nop {
        fn name(&self) -> &str {
            "nop"
        }
        fn image(&self) -> ProcessImage {
            ProcessImage {
                flash_bytes: 100,
                ram_bytes: 10,
            }
        }
        fn on_start(&mut self, _ctx: &mut SysCtx<'_>) {}
    }

    #[test]
    fn register_charges_resources_and_allocates_pids() {
        let mut n = Node::new(0, "192.168.0.1".into(), 1);
        let p1 = n.register_process(Box::new(Nop), vec![]).unwrap();
        let p2 = n.register_process(Box::new(Nop), vec![]).unwrap();
        assert_ne!(p1, p2);
        // Same stored program file: flash once, RAM per instance.
        assert_eq!(n.resources.flash_used(), 100);
        assert_eq!(n.resources.ram_used(), 20);
    }

    #[test]
    fn remove_releases_ram_keeps_flash() {
        let mut n = Node::new(0, "192.168.0.1".into(), 1);
        let pid = n.register_process(Box::new(Nop), vec![]).unwrap();
        n.stack.subscribe(lv_net::packet::Port(30), pid).unwrap();
        n.remove_process(pid);
        assert_eq!(n.resources.ram_used(), 0);
        assert_eq!(n.resources.flash_used(), 100);
        assert_eq!(n.stack.lookup(lv_net::packet::Port(30)), None);
    }

    #[test]
    fn liteos_csma_profile() {
        let cfg = Node::liteos_csma();
        assert_eq!(cfg.min_be, 2);
        assert_eq!(cfg.max_be, 5);
    }
}
