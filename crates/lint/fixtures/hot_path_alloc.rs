//! Fixture for the `hot-path-alloc` rule in a tagged body itself
//! (positive, allowed, cold and test-region cases); fires in any crate.

// lv-lint: hot
fn hot_scan(n: u32) -> u32 {
    let boxed = Box::new(n); // finding (line 6)
    let mut scratch = Vec::new(); // finding (line 7)
    let label = n.to_string(); // finding (line 8)
    scratch.push(*boxed);
    (scratch.len() as u32) + (label.len() as u32)
}

// lv-lint: hot
fn hot_with_allow(n: u32) -> u32 {
    let once = Box::new(n); // lv-lint: allow(hot-path-alloc)
    *once
}

fn cold_setup(n: u32) -> Vec<u32> {
    let mut v = Vec::new();
    v.push(n);
    v
}

#[cfg(test)]
mod tests {
    // lv-lint: hot
    fn hot_in_tests(n: u32) -> String {
        n.to_string()
    }
}
