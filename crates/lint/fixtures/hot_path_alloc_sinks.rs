//! Fixture for the `hot-path-alloc` rule's allocating macros,
//! constructors and methods, in a tagged body and below it (positive,
//! allowed, cold and test-region cases); fires in any crate.

// lv-lint: hot
fn hot_frame(n: u8, name: &str, bytes: &[u8]) -> usize {
    let v = vec![n; 4]; // finding (line 7)
    let s = format!("{n}"); // finding (line 8)
    let a = Arc::new(n); // finding (line 9)
    let r = Rc::new(n); // finding (line 10)
    let o = name.to_owned(); // finding (line 11)
    let c = bytes.to_vec(); // finding (line 12)
    let once = vec![0u8; 1]; // lv-lint: allow(hot-path-alloc)
    v.len() + s.len() + usize::from(*a) + usize::from(*r) + o.len() + c.len() + once.len() + copy_out(bytes)
}

fn copy_out(bytes: &[u8]) -> usize {
    bytes.to_vec().len() // finding (line 18): one static call below the tagged fn
}

fn cold(name: &str) -> String {
    format!("{name}{}", name.to_owned())
}

#[cfg(test)]
mod tests {
    // lv-lint: hot
    fn hot_in_tests(n: u8) -> Vec<u8> {
        vec![n]
    }
}
