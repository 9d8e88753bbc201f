//! Fixture for the `no-panic` rule with no root (no pub fn). Not
//! compiled — linted by `tests/fixtures.rs`; fires in kernel and radio.

fn violation(x: Option<u32>) -> u32 {
    x.unwrap() // finding (line 5)
}

fn also_violation(x: Option<u32>) -> u32 {
    x.expect("present") // finding (line 9)
}

fn macro_violation() {
    panic!("boom"); // finding (line 13)
}

fn unreachable_violation(n: u8) -> u8 {
    match n {
        0 => 1,
        _ => unreachable!(), // finding (line 19)
    }
}

fn allowed(x: Option<u32>) -> u32 {
    x.unwrap() // lv-lint: allow(no-panic)
}

fn fine(x: Option<u32>) -> u32 {
    // unwrap_or and friends are not panics.
    x.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn exempt() {
        let x: Option<u32> = Some(1);
        assert_eq!(x.unwrap(), 1);
        panic!("tests may panic");
    }
}
