//! The `figures` command line. A name it does not know or a flag value
//! it cannot parse is refused before any experiment runs: exit 2,
//! nothing on stdout, and the known names on stderr.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("the figures binary starts")
}

#[test]
fn refuses_what_it_cannot_run() {
    let refused: [&[&str]; 7] = [
        &["bogus"],
        &["fig5", "--jsn"],
        &["--seed", "x"],
        &["--seed"],
        &["--trials", "0"],
        &["--workers", "x"],
        &["--digests", "fig5ag"],
    ];
    for args in refused {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("fig5agg"),
            "{args:?} names no experiment: {err}"
        );
    }
}

#[test]
fn runs_what_it_knows() {
    let out = figures(&["tping", "--seed", "7"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("RTT"));
}
