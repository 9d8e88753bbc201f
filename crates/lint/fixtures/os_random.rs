//! Fixture for the `determinism` rule's OS-entropy sinks. Not compiled —
//! linted by `tests/fixtures.rs`; fires in the sim-path crates only.

fn violation() -> u64 {
    let mut rng = thread_rng(); // finding (line 5)
    rng.next_u64()
}

fn also_violation() {
    let _state = RandomState::new(); // finding (line 10)
}

fn allowed() {
    let _ = OsRng; // lv-lint: allow(determinism)
}

fn fine(seed: u64) -> u64 {
    // The seeded SimRng streams are the sanctioned source.
    seed.wrapping_mul(0x9e3779b97f4a7c15)
}
