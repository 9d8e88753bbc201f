//! Lint self-tests against the checked-in fixture files.
//!
//! Each fixture under `fixtures/` carries, for one rule, a positive
//! case (a violation the rule must find), an allowed case (suppressed
//! by an inline `lv-lint: allow(...)` directive), and where relevant a
//! test-region case (exempt). The fixtures live outside `src/` so the
//! workspace scan never picks them up; these tests lint them under the
//! repo policy with a hand-picked crate path, filter the findings by
//! rule and assert the exact lines — and, in the scope matrix, the
//! exact crates where each rule fires.

use lv_lint::lint_source;
use lv_lint::rules::Finding;

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Lint `fixtures/<name>` as `as_path` and return `rule`'s findings.
fn findings_of(name: &str, rule: &str, as_path: &str) -> Vec<Finding> {
    lint_source(as_path, &fixture(name))
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

/// The lines of `rule`'s findings in `fixtures/<name>` under `as_path`.
fn finding_lines(name: &str, rule: &str, as_path: &str) -> Vec<u32> {
    findings_of(name, rule, as_path)
        .iter()
        .map(|f| f.line)
        .collect()
}

#[test]
fn wall_clock_fixture() {
    let lines = finding_lines("wall_clock.rs", "determinism", "crates/sim/src/fixture.rs");
    assert_eq!(lines, vec![5], "positive hit; allow + test region exempt");
}

#[test]
fn os_random_fixture() {
    let lines = finding_lines("os_random.rs", "determinism", "crates/radio/src/fixture.rs");
    assert_eq!(lines, vec![5, 10]);
}

#[test]
fn hash_type_fixture() {
    let lines = finding_lines("hash_type.rs", "hash-type", "crates/net/src/fixture.rs");
    assert_eq!(lines, vec![5]);
}

#[test]
fn hash_iter_fixture() {
    let lines = finding_lines(
        "hash_iter.rs",
        "determinism",
        "crates/testbed/src/fixture.rs",
    );
    assert_eq!(
        lines,
        vec![10, 14],
        "method iteration and for-loop iteration; allow + keyed access exempt"
    );
}

#[test]
fn no_panic_fixture() {
    let lines = finding_lines("no_panic.rs", "no-panic", "crates/kernel/src/fixture.rs");
    assert_eq!(
        lines,
        vec![5, 9, 13, 19],
        "unwrap, expect, panic!, unreachable!; allow + unwrap_or + tests exempt"
    );
}

#[test]
fn hot_path_alloc_fixture() {
    let lines = finding_lines(
        "hot_path_alloc.rs",
        "hot-path-alloc",
        "crates/kernel/src/fixture.rs",
    );
    assert_eq!(
        lines,
        vec![6, 7, 8],
        "Box::new, Vec::new, to_string in the tagged fn; allow + untagged + tests exempt"
    );
}

#[test]
fn hot_path_alloc_sinks_fixture() {
    let lines = finding_lines(
        "hot_path_alloc_sinks.rs",
        "hot-path-alloc",
        "crates/kernel/src/fixture.rs",
    );
    assert_eq!(
        lines,
        vec![7, 8, 9, 10, 11, 12, 18],
        "vec!, format!, Arc::new, Rc::new, to_owned and to_vec in the tagged fn, to_vec one \
         call below it; allow + cold + tests exempt"
    );
}

#[test]
fn pub_doc_fixture() {
    let lines = finding_lines("pub_doc.rs", "pub-doc", "crates/sim/src/fixture.rs");
    assert_eq!(
        lines,
        vec![7, 9],
        "undocumented fn + struct; docs, attr docs, pub(crate), mod decl exempt"
    );
}

/// Every crate key the workspace scan produces: the ten `crates/*`
/// directories plus the root `src/`.
const CRATE_KEYS: &[&str] = &[
    "bench", "core", "kernel", "lint", "mac", "net", "radio", "serve", "sim", "testbed", "root",
];

/// The path of a fixture linted under crate key `key`.
fn key_path(key: &str) -> String {
    match key {
        "root" => "src/fixture.rs".to_owned(),
        k => format!("crates/{k}/src/fixture.rs"),
    }
}

/// The scope matrix: each rootless fixture linted under every crate
/// key, asserting exactly where its own rule fires and, there, at
/// exactly which lines. This pins the policy table's no-root scopes,
/// and catches a stray sink of another kind of the same rule (an
/// `Instant` in the hash-iter fixture) wherever that kind counts.
#[test]
fn fixture_scope_matrix() {
    const SIM_PATH: &[&str] = &["core", "kernel", "mac", "net", "radio", "sim"];
    let cases: &[(&str, &str, &[&str], &[u32])] = &[
        ("wall_clock.rs", "determinism", SIM_PATH, &[5]),
        ("os_random.rs", "determinism", SIM_PATH, &[5, 10]),
        ("hash_iter.rs", "determinism", CRATE_KEYS, &[10, 14]),
        (
            "no_panic.rs",
            "no-panic",
            &["kernel", "radio"],
            &[5, 9, 13, 19],
        ),
        (
            "hot_path_alloc.rs",
            "hot-path-alloc",
            CRATE_KEYS,
            &[6, 7, 8],
        ),
        (
            "hot_path_alloc_sinks.rs",
            "hot-path-alloc",
            CRATE_KEYS,
            &[7, 8, 9, 10, 11, 12, 18],
        ),
    ];
    for (file, rule, fires_in, lines) in cases {
        for key in CRATE_KEYS {
            let expected: &[u32] = if fires_in.contains(key) { lines } else { &[] };
            assert_eq!(
                finding_lines(file, rule, &key_path(key)),
                expected,
                "{file}: `{rule}` under {key}"
            );
        }
    }
}

/// Live-crate scoping under the repo policy: the same source is clean
/// when it lives in `crates/serve` (real time is the live transport's
/// job) and a determinism violation on the sim path — at the `use`
/// line and the field type as well as in the body. The exemption must
/// come from the crate scope: the fixture carries no inline allows.
#[test]
fn live_transport_fixture_scoped_by_crate() {
    let src = fixture("live_transport.rs");
    assert!(
        !src.contains("lv-lint: allow"),
        "the live-crate exemption must be scoping, not inline allows"
    );

    let live = lint_source("crates/serve/src/fixture.rs", &src);
    assert!(live.is_empty(), "clean under the live crate key: {live:?}");

    let sim = lint_source("crates/kernel/src/fixture.rs", &src);
    let lines_of = |rule: &str| -> Vec<u32> {
        sim.iter()
            .filter(|f| f.rule == rule)
            .map(|f| f.line)
            .collect()
    };
    assert_eq!(
        lines_of("determinism"),
        vec![8, 11, 16],
        "use line, field type, body: {sim:?}"
    );
    assert_eq!(lines_of("hash-type"), vec![7, 12], "{sim:?}");
    assert_eq!(sim.len(), 5, "keyed lookups are not iteration: {sim:?}");
}

/// A finding after a non-ASCII char literal is still reported: the
/// lexer must not read `'é` as a lifetime and swallow the rest of the
/// file into a char literal.
#[test]
fn findings_after_a_non_ascii_char_literal() {
    let src = "fn a(x: Option<u32>) -> u32 { let _c = 'e'; x.unwrap() }\n\
               fn b(x: Option<u32>) -> u32 { let _c = 'é'; x.unwrap() }\n\
               fn c(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let lines: Vec<u32> = lint_source("crates/kernel/src/fixture.rs", src)
        .iter()
        .map(|f| f.line)
        .collect();
    assert_eq!(lines, vec![1, 2, 3]);
}

/// The binary contract the CI gate relies on: exit 0 on a clean tree,
/// exit nonzero once a violation is injected.
#[test]
fn binary_gates_on_injected_violation() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_lv-lint");
    let root = std::env::temp_dir().join(format!("lv-lint-gate-{}", std::process::id()));
    let src_dir = root.join("crates").join("kernel").join("src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write");

    // Clean tree: documented module, no violations.
    std::fs::write(src_dir.join("lib.rs"), "//! Clean.\nfn ok() {}\n").expect("write");
    let run = |args: &[&str]| {
        Command::new(bin)
            .arg("--root")
            .arg(&root)
            .args(args)
            .output()
            .expect("run lv-lint")
    };
    assert!(run(&[]).status.success(), "clean tree must pass");

    // Inject a violation: the gate must go red.
    std::fs::write(
        src_dir.join("lib.rs"),
        "//! Dirty.\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )
    .expect("write");
    let out = run(&[]);
    assert!(
        !out.status.success(),
        "injected violation must fail the gate"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[no-panic]"), "stdout: {stdout}");

    std::fs::remove_dir_all(&root).ok();
}

/// `--list-rules` prints exactly the policy table's rules, one a line.
#[test]
fn binary_lists_all_rules() {
    use std::process::Command;
    let out = Command::new(env!("CARGO_BIN_EXE_lv-lint"))
        .arg("--list-rules")
        .output()
        .expect("run lv-lint");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        listed,
        vec![
            "hash-type",
            "pub-doc",
            "determinism",
            "no-panic",
            "hot-path-alloc",
            "shard-readiness"
        ]
    );
}

/// Fixtures must stay violation-free for every rule *other* than their
/// own: each file is a minimal, single-rule specimen, so cross-rule
/// noise (say a stray `unwrap` in the hash-iter fixture) would make the
/// per-rule assertions above misleading. Each is linted under every
/// crate key, so every rule gets a crate where it can fire.
#[test]
fn fixtures_are_single_rule_specimens() {
    let cases: &[(&str, &str)] = &[
        ("wall_clock.rs", "determinism"),
        ("os_random.rs", "determinism"),
        ("hash_type.rs", "hash-type"),
        ("hash_iter.rs", "determinism"),
        ("no_panic.rs", "no-panic"),
        ("hot_path_alloc.rs", "hot-path-alloc"),
        ("hot_path_alloc_sinks.rs", "hot-path-alloc"),
        ("pub_doc.rs", "pub-doc"),
        ("interproc_taint.rs", "determinism"),
        ("interproc_panic.rs", "no-panic"),
        ("interproc_hot.rs", "hot-path-alloc"),
        ("interproc_shard.rs", "shard-readiness"),
    ];
    for (file, own_rule) in cases {
        let src = fixture(file);
        for key in CRATE_KEYS {
            for f in lint_source(&key_path(key), &src) {
                // pub-doc intentionally has no opinion here: specimens
                // that need a pub root leave it undocumented. The
                // hash-iter fixture owns a HashMap in order to iterate
                // it, which hash-type flags on the sim path.
                let foreign = f.rule != *own_rule
                    && f.rule != "pub-doc"
                    && !(*file == "hash_iter.rs" && f.rule == "hash-type");
                assert!(
                    !foreign,
                    "{file} trips foreign rule {} under {key}: {f:?}",
                    f.rule
                );
            }
        }
    }
}
