//! Fixture for the `determinism` rule's wall-clock sinks. Not compiled —
//! linted by `tests/fixtures.rs`; fires in the sim-path crates only.

fn violation() -> f64 {
    let t = std::time::Instant::now(); // finding (line 5)
    t.elapsed().as_secs_f64()
}

fn allowed() {
    let _ = std::time::SystemTime::now(); // lv-lint: allow(determinism)
}

// Instant mentioned only in a comment is never a finding.

#[cfg(test)]
mod tests {
    #[test]
    fn exempt() {
        let _ = std::time::Instant::now();
    }
}
