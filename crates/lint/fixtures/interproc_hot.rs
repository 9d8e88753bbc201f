//! Fixture for the `hot-path-alloc` rule below a tagged function. Not
//! compiled — linted by `tests/interproc.rs` with the kernel crate
//! key. The tagged body allocates nothing; its callees' `Box::new` and
//! `.to_string()` are findings.

// lv-lint: hot
fn on_rx() {
    build();
    label();
    label_allowed();
    empty();
}

fn build() -> Box<u32> {
    Box::new(1) // finding (line 15)
}

fn label() -> String {
    1.to_string() // finding (line 19)
}

fn label_allowed() -> String {
    1.to_string() // lv-lint: allow(hot-path-alloc)
}

fn empty() -> Vec<u8> {
    // Capacity-zero `Vec::new` never touches the heap: exempt below
    // the tagged body (it still counts in the tagged body itself).
    Vec::new()
}

fn cold() -> Box<u32> {
    // Not reachable from a hot function: no finding.
    Box::new(2)
}
