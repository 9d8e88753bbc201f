//! Fixture for live-crate scoping. Not compiled — scanned by
//! `tests/fixtures.rs` under the *default workspace policy* with two
//! different crate keys: under `crates/serve/...` (the live-transport
//! crate) these constructs are clean; under a sim-path key the same
//! source trips `determinism` and `hash-type`.

use std::collections::HashMap;
use std::time::Instant;

struct Pacer {
    last_send: Option<Instant>,
    partials: HashMap<u64, Vec<u8>>,
}

fn pace(p: &mut Pacer) -> bool {
    let now = Instant::now();
    let due = p
        .last_send
        .map_or(true, |t| now.duration_since(t).as_millis() >= 1);
    if due {
        p.last_send = Some(now);
    }
    due
}

fn lookup(p: &Pacer, id: u64) -> Option<&Vec<u8>> {
    // Keyed access — legal in every crate; only *iterating* a hash
    // collection leaks hasher state.
    p.partials.get(&id)
}
