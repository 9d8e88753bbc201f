//! The event loop's steady state leaves the allocator alone.
//!
//! A counting global allocator wraps the system one and counts per
//! thread, so only the test's own work counts. The world is a seeded
//! 20×20 grid at 24 m with 500 ms beacons, the LiteView suite and a
//! workstation, which arms the flight recorder at `Packet` level. Once
//! the recorder's ring has compacted for the first time (its backing
//! buffer then keeps its size), 20 simulated seconds of beacon traffic
//! may allocate only the name of each new neighbor entry, plus a small
//! constant for buffers that reach a new high-water mark.
//!
//! New entries are counted from the tables themselves: entries that
//! expired (`net.neighbor_expired`) plus the growth of all tables. That
//! is exact while no table fills up, since eviction is the one removal
//! no counter sees; the test checks that no node can hear from enough
//! senders to fill its table. (`net.neighbor_new` cannot serve: the
//! kernel touches a beacon's sender, creating its entry, before the
//! stack applies the beacon, so the stack never sees an entry as new.)

use liteview::{install_suite, Workstation};
use lv_kernel::Network;
use lv_net::neighbors::NeighborTable;
use lv_net::packet::Port;
use lv_net::routing::Geographic;
use lv_radio::propagation::PropagationConfig;
use lv_sim::SimDuration;
use lv_testbed::Topology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and reallocations made on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local without a destructor, so reading it
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The workstation's flight-recorder capacity: the ring compacts for
/// the first time after twice this many records.
const RECORDER_CAPACITY: u64 = 8192;

/// Headroom for buffers that grow past their warm-up size once: the
/// event queue's heap, the arena slabs, the active-transmission table.
const SLACK: u64 = 32;

#[test]
fn steady_state_allocates_only_new_neighbor_names() {
    let seed = 42;
    let topology = Topology::Grid {
        rows: 20,
        cols: 20,
        spacing: 24.0,
    };
    let mut net = Network::new(topology.medium(PropagationConfig::default(), seed), seed);
    for i in 0..net.node_count() as u16 {
        net.install_router(i, Box::new(Geographic::new(Port::GEOGRAPHIC)))
            .unwrap();
        net.node_mut(i).stack.config_mut().beacon_period = SimDuration::from_millis(500);
    }
    install_suite(&mut net);
    let _ws = Workstation::install(&mut net, 0);
    // A node's table holds only nodes whose frames reach it.
    let mut senders = vec![0usize; net.node_count()];
    for j in 0..net.node_count() as u16 {
        for i in net.medium.reachable(j, net.node(j).power) {
            senders[i as usize] += usize::from(i != j);
        }
    }
    let most = senders.iter().copied().max().unwrap_or(0);
    assert!(most < NeighborTable::DEFAULT_CAPACITY, "{most} senders");
    while net.trace.dropped() <= RECORDER_CAPACITY {
        net.run_for(SimDuration::from_secs(1));
    }
    net.run_for(SimDuration::from_secs(1));

    // Entries expired so far plus entries held now: their change over
    // the window is the number of entries created in it.
    let created = |net: &Network| -> u64 {
        (0..net.node_count() as u16)
            .map(|i| {
                let stack = &net.node(i).stack;
                stack.counters().get("net.neighbor_expired") + stack.neighbors.len() as u64
            })
            .sum()
    };
    let (events0, created0) = (net.events_dispatched(), created(&net));
    let allocs0 = ALLOCS.with(Cell::get);
    net.run_for(SimDuration::from_secs(20));
    let allocs = ALLOCS.with(Cell::get) - allocs0;
    let events = net.events_dispatched() - events0;
    let new_entries = created(&net) - created0;
    eprintln!(
        "{allocs} allocations over {events} events ({:.4} per event), \
         {new_entries} new neighbor entries",
        allocs as f64 / events as f64
    );
    assert!(events > 50_000, "the grid must be busy: {events} events");
    assert!(
        allocs <= new_entries + SLACK,
        "{allocs} allocations over {events} events, {new_entries} new neighbor entries"
    );
}
