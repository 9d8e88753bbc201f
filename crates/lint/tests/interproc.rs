//! Self-tests for the reach rules against the checked-in
//! `fixtures/interproc_*.rs` specimens, the one-finding-per-site
//! contract, a property test that graph construction is
//! order-independent, and the binary-level contracts of the CLI
//! (`--format json`, `--graph`, `--max-seconds`).

use lv_lint::interproc::Analysis;
use lv_lint::lint_source;
use lv_lint::parse::parse_file;
use lv_lint::rules::{FileContext, Finding};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Lint one fixture as `path` under the repo policy and keep `rule`'s
/// findings.
fn hits(path: &str, name: &str, rule: &str) -> Vec<Finding> {
    lint_source(path, &fixture(name))
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

/// Parse `(path, fixture-file)` pairs into the reach analysis, with
/// `deps` as the crate dependency map.
fn analysis_of(files: &[(&str, &str)], deps: &[(&str, &[&str])]) -> Analysis {
    let parsed = files
        .iter()
        .map(|(path, name)| parse_file(&FileContext::new(path, &fixture(name))))
        .collect();
    let deps: BTreeMap<String, Vec<String>> = deps
        .iter()
        .map(|(k, v)| (k.to_string(), v.iter().map(|s| s.to_string()).collect()))
        .collect();
    Analysis::new(parsed, &deps)
}

fn funcs(f: &Finding) -> Vec<&str> {
    f.chain.iter().map(|h| h.func.as_str()).collect()
}

/// Under the kernel key the reached sink carries its chain, and the
/// unreached one is still a finding — the kernel is on the sim path —
/// but with no chain.
#[test]
fn determinism_fixture() {
    let found = hits(
        "crates/kernel/src/fixture.rs",
        "interproc_taint.rs",
        "determinism",
    );
    let lines: Vec<u32> = found.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![20, 32], "allowed twin suppressed: {found:?}");
    assert_eq!(
        funcs(&found[0]),
        vec![
            "kernel::fixture::Network::dispatch",
            "kernel::fixture::deliver",
            "kernel::fixture::stamp"
        ]
    );
    assert!(found[0].message.contains("2 hops"));
    assert!(found[1].chain.is_empty(), "{:?}", found[1]);
}

#[test]
fn no_panic_reach_fixture() {
    let found = hits(
        "crates/net/src/fixture.rs",
        "interproc_panic.rs",
        "no-panic",
    );
    let lines: Vec<u32> = found.iter().map(|f| f.line).collect();
    assert_eq!(
        lines,
        vec![11, 19],
        "index sink + unwrap; allowed, private-only and guarded stay silent: {found:?}"
    );
    // Every finding carries its pub-API chain.
    for f in &found {
        assert!(f.chain.len() >= 2, "chain evidence missing: {f:?}");
        assert!(f.chain[0].func.starts_with("net::fixture::"));
    }
}

#[test]
fn hot_path_alloc_reach_fixture() {
    let found = hits(
        "crates/kernel/src/fixture.rs",
        "interproc_hot.rs",
        "hot-path-alloc",
    );
    let lines: Vec<u32> = found.iter().map(|f| f.line).collect();
    assert_eq!(
        lines,
        vec![15, 19],
        "Box::new + to_string in callees; allowed, Vec::new and cold exempt: {found:?}"
    );
}

#[test]
fn shard_readiness_fixture() {
    let found = hits(
        "crates/kernel/src/fixture.rs",
        "interproc_shard.rs",
        "shard-readiness",
    );
    let lines: Vec<u32> = found.iter().map(|f| f.line).collect();
    assert_eq!(
        lines,
        vec![19, 19, 20],
        "lock + interior-mutable ref on 19, static-mut ref on 20; \
         allowed twin and offline helper exempt: {found:?}"
    );
}

/// A sink that is both in a rule's no-root scope and reached from a
/// root is one finding, carrying its chain.
#[test]
fn one_finding_per_site() {
    let src = "pub struct Network;\n\
               impl Network { pub fn dispatch(&mut self, x: Option<u32>) -> u32 { \
               let _t = Instant::now(); x.unwrap() } }\n";
    let found: Vec<Finding> = lint_source("crates/kernel/src/lib.rs", src)
        .into_iter()
        .filter(|f| f.rule != "pub-doc")
        .collect();
    let rules: Vec<&str> = found.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["determinism", "no-panic"], "{found:?}");
    for f in &found {
        assert_eq!(funcs(f), vec!["kernel::Network::dispatch"], "{f:?}");
    }
}

/// The full specimen set, across two crates with a dependency edge,
/// used by the order-independence property below.
const WORKSPACE: &[(&str, &str)] = &[
    ("crates/kernel/src/taint.rs", "interproc_taint.rs"),
    ("crates/kernel/src/hot.rs", "interproc_hot.rs"),
    ("crates/kernel/src/shard.rs", "interproc_shard.rs"),
    ("crates/net/src/fixture.rs", "interproc_panic.rs"),
];
const DEPS: &[(&str, &[&str])] = &[("kernel", &["net"]), ("net", &[])];

proptest! {
    /// Call-graph construction is deterministic under file-order
    /// shuffling: any permutation of the input files yields the same
    /// findings (down to chain evidence) and the same DOT dump as the
    /// canonical order.
    #[test]
    fn graph_build_is_order_independent(seed in any::<u64>()) {
        let canonical = analysis_of(WORKSPACE, DEPS);
        let expected = canonical.run_rules();
        let expected_dot = canonical.graph.to_dot();
        prop_assert!(!expected.is_empty(), "specimens must produce findings");

        // Fisher-Yates with a deterministic LCG from the proptest seed.
        let mut files: Vec<(&str, &str)> = WORKSPACE.to_vec();
        let mut state = seed | 1;
        for i in (1..files.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            files.swap(i, j);
        }

        let shuffled = analysis_of(&files, DEPS);
        let got = shuffled.run_rules();
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            prop_assert_eq!(g, e);
        }
        prop_assert_eq!(shuffled.graph.to_dot(), expected_dot);
    }
}

// ---------------------------------------------------------------------
// Binary-level contracts
// ---------------------------------------------------------------------

/// Scaffold a throwaway workspace; returns its root.
fn temp_workspace(tag: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("lv-lint-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("mkdir");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write");
    for (rel, src) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, src).expect("write");
    }
    root
}

fn run_lint(root: &std::path::Path, args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_lv-lint"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("run lv-lint")
}

/// `--format json` emits one object per finding with the chain array;
/// a reached finding carries its hops.
#[test]
fn binary_json_format_carries_chains() {
    let root = temp_workspace(
        "json",
        &[(
            "crates/net/src/lib.rs",
            "//! Specimen.\npub fn api(x: Option<u8>) -> u8 { helper(x) }\n\
             fn helper(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )],
    );
    let out = run_lint(&root, &["--format", "json"]);
    assert!(!out.status.success(), "violation must fail the gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('['), "stdout: {stdout}");
    assert!(stdout.contains("\"rule\": \"no-panic\""), "{stdout}");
    assert!(stdout.contains("\"chain\": [{\"func\": "), "{stdout}");
    assert!(stdout.contains("net::api"), "{stdout}");
    std::fs::remove_dir_all(&root).ok();
}

/// `--graph -` dumps a DOT call graph to stdout and exits 0 without
/// gating on findings.
#[test]
fn binary_graph_dump() {
    let root = temp_workspace(
        "graph",
        &[(
            "crates/net/src/lib.rs",
            "//! Specimen.\npub fn api() { helper() }\nfn helper() {}\n",
        )],
    );
    let out = run_lint(&root, &["--graph", "-"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("digraph"), "stdout: {stdout}");
    assert!(stdout.contains("net::api"), "{stdout}");
    assert!(stdout.contains("->"), "an edge must be present: {stdout}");
    std::fs::remove_dir_all(&root).ok();
}

/// `--max-seconds` is a hard budget: impossible budgets fail even on a
/// clean tree, generous ones pass.
#[test]
fn binary_timing_budget() {
    let root = temp_workspace(
        "budget",
        &[("crates/net/src/lib.rs", "//! Clean.\nfn ok() {}\n")],
    );
    assert!(run_lint(&root, &["--max-seconds", "600"]).status.success());
    let out = run_lint(&root, &["--max-seconds", "0"]);
    assert!(!out.status.success(), "0s budget must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("over the 0s budget"), "stderr: {stderr}");
    std::fs::remove_dir_all(&root).ok();
}

/// Text output prints the call chain as indented continuation lines
/// under a problem-matcher-parseable head line.
#[test]
fn binary_text_output_prints_chain() {
    let root = temp_workspace(
        "chain",
        &[(
            "crates/net/src/lib.rs",
            "//! Specimen.\npub fn api(x: Option<u8>) -> u8 { helper(x) }\n\
             fn helper(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )],
    );
    let out = run_lint(&root, &[]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/net/src/lib.rs:3:") && stdout.contains("[no-panic]"),
        "head line: {stdout}"
    );
    assert!(stdout.contains("chain: net::api"), "chain lines: {stdout}");
    assert!(stdout.contains("-> net::helper"), "chain lines: {stdout}");
    std::fs::remove_dir_all(&root).ok();
}
