//! Fixture for the `shard-readiness` rule. Not compiled —
//! linted by `tests/interproc.rs` with the kernel crate key. Hazards:
//! a lock acquisition and references to a `static mut` and an
//! interior-mutable static, all in event-loop-reachable code.

pub struct Network;

impl Network {
    pub fn run_until(&mut self) {
        tick();
        tick_allowed();
    }
}

static REGISTRY: Mutex<u32> = Mutex::new(0);
static mut SLOT: u32 = 0;

fn tick() {
    let _g = REGISTRY.lock(); // findings (line 19): lock + static ref
    let _n = SLOT; // finding (line 20): static mut ref
}

fn tick_allowed() {
    // lv-lint: allow(shard-readiness)
    let _g = REGISTRY.lock();
}

fn offline() {
    // Not reachable from the event loop: no finding.
    let _g = REGISTRY.lock();
}
