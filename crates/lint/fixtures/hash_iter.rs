//! Fixture for the `determinism` rule's hash-iteration sinks. Not
//! compiled — linted by `tests/fixtures.rs`; iterating fires in every
//! crate (owning the map is `hash-type`'s concern, on the sim path).

struct Harness {
    stats: HashMap<String, u64>,
}

fn violation(h: &Harness) -> Vec<String> {
    h.stats.keys().cloned().collect() // finding (line 10): stats.keys()
}

fn also_violation(h: &Harness) {
    for entry in &h.stats {
        // finding (line 14): for … in &stats
        drop(entry);
    }
}

fn allowed(h: &Harness) -> Vec<String> {
    let mut v: Vec<String> = h.stats.keys().cloned().collect(); // lv-lint: allow(determinism)
    v.sort();
    v
}

fn fine(h: &Harness, key: &str) -> Option<u64> {
    h.stats.get(key).copied() // keyed access never leaks order
}
