//! Fixture for the `no-panic` rule reached from pub API. Not compiled —
//! linted by `tests/interproc.rs` with the net crate key. Sinks are
//! private helpers reached from pub API; the allowed twin and the
//! helper no pub function calls stay silent (net needs a root).

pub fn decode(buf: &[u8]) -> u8 {
    first_byte(buf)
}

fn first_byte(buf: &[u8]) -> u8 {
    buf[0] // finding (line 11): unguarded byte-slice index
}

pub fn parse(x: Option<u8>) -> u8 {
    force(x)
}

fn force(x: Option<u8>) -> u8 {
    x.unwrap() // finding (line 19)
}

pub fn parse_allowed(x: Option<u8>) -> u8 {
    force_allowed(x)
}

fn force_allowed(x: Option<u8>) -> u8 {
    x.unwrap() // lv-lint: allow(no-panic)
}

fn private_only(x: Option<u8>) -> u8 {
    // No pub caller reaches this: no finding.
    x.unwrap()
}

fn guarded(buf: &[u8]) -> u8 {
    if buf.is_empty() {
        return 0;
    }
    buf[0]
}
