//! Fixture for the `determinism` rule reached from the event loop. Not
//! compiled — linted by `tests/interproc.rs` with the kernel crate key.
//! The sink sits two hops below the event loop; the allowed twin is
//! suppressed by an inline directive on the sink line.

pub struct Network;

impl Network {
    pub fn dispatch(&mut self) {
        deliver();
    }
}

fn deliver() {
    stamp();
    stamp_allowed();
}

fn stamp() {
    let t = Instant::now(); // finding (line 20)
    let _ = t;
}

fn stamp_allowed() {
    let t = Instant::now(); // lv-lint: allow(determinism)
    let _ = t;
}

fn unreached() {
    // Not reachable from the event loop: no chain. The kernel is on
    // the sim path, so the read is still a finding (line 32).
    let t = Instant::now();
    let _ = t;
}
