//! `lv-lint` — workspace determinism & invariant analyzer.
//!
//! A dependency-free static analysis pass over the workspace source,
//! with no `syn` and no rustc internals. A hand-rolled lexer
//! ([`lexer`]) tokenizes each file into one [`rules::FileContext`],
//! which feeds both the per-file rules ([`rules`]) and an item parser
//! ([`parse`]). The parser recovers functions, their calls and their
//! sinks from the token stream without a full Rust grammar; the call
//! graph ([`graph`]) links the functions across crates, and the reach
//! rules ([`interproc`]) walk it. One policy table ([`config`]) scopes
//! all six rules:
//!
//! * **determinism** — no wall-clock reads or OS entropy in the
//!   simulation-path crates, no iteration over hash containers
//!   anywhere, and none of these reachable from the event loop or a
//!   trial body.
//! * **no-panic** — no `unwrap`/`expect`/`panic!` in kernel and radio,
//!   and none reachable from the pub API of the sim-path and live
//!   crates.
//! * **hot-path-alloc** — no heap allocation in or below a function
//!   tagged `// lv-lint: hot`.
//! * **shard-readiness** — no shared mutable statics or locks in
//!   event-loop-reachable code.
//! * **conventions** — no std hash containers on the sim path, docs on
//!   `pub` items.
//!
//! The one escape hatch is an inline `// lv-lint: allow(<rule>)`
//! directive on the offending line or the line above. The binary exits
//! nonzero on any other finding, making it suitable as a CI gate (see
//! `scripts/verify.sh`).

pub mod config;
pub mod graph;
pub mod interproc;
pub mod lexer;
pub mod parse;
pub mod rules;

use interproc::Analysis;
use parse::parse_file;
use rules::{check_file, sort_findings, FileContext, Finding};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Lint in-memory sources, as `(repo-relative path, text)` pairs, as
/// one workspace under the repo policy: the per-file rules on each
/// file, then the reach rules over their call graph. `deps` maps crate
/// key → direct dependency keys. Findings come back sorted by
/// `(path, line, col, rule)`.
pub fn lint_sources<S: AsRef<str>>(
    files: &[(S, S)],
    deps: &BTreeMap<String, Vec<String>>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut parsed = Vec::new();
    for (path, src) in files {
        let ctx = FileContext::new(path.as_ref(), src.as_ref());
        findings.extend(check_file(&ctx));
        parsed.push(parse_file(&ctx));
    }
    findings.extend(Analysis::new(parsed, deps).run_rules());
    sort_findings(&mut findings);
    findings
}

/// Lint one in-memory source file as a workspace of its own.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    lint_sources(&[(path, src)], &BTreeMap::new())
}

/// Read every `crates/*/Cargo.toml` under `root` and return the crate
/// dependency map (directory key → direct dependency keys, package
/// names normalized via [`graph::crate_key_of_pkg`]).
pub fn workspace_deps(root: &Path) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        return out;
    };
    for entry in entries.flatten() {
        let manifest = entry.path().join("Cargo.toml");
        let Ok(toml) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        let key = entry.file_name().to_string_lossy().into_owned();
        out.insert(key, graph::parse_manifest_deps(&toml));
    }
    out
}

/// Read the workspace sources under `root`: `(path, text)` pairs, plus
/// an `io-error` finding on line 0 for each unreadable file, so one bad
/// file never aborts the scan.
fn read_sources(root: &Path) -> (Vec<(String, String)>, Vec<Finding>) {
    let mut sources = Vec::new();
    let mut errors = Vec::new();
    for rel in workspace_sources(root) {
        let path = rel.to_string_lossy().replace('\\', "/");
        match std::fs::read_to_string(root.join(&rel)) {
            Ok(src) => sources.push((path, src)),
            Err(e) => errors.push(Finding {
                rule: "io-error",
                path,
                line: 0,
                col: 0,
                message: format!("could not read file: {e}"),
                snippet: String::new(),
                chain: Vec::new(),
            }),
        }
    }
    (sources, errors)
}

/// Build the call graph and its side tables for the workspace under
/// `root`.
pub fn build_analysis(root: &Path) -> Analysis {
    let (sources, _) = read_sources(root);
    let parsed = sources
        .iter()
        .map(|(p, s)| parse_file(&FileContext::new(p, s)))
        .collect();
    Analysis::new(parsed, &workspace_deps(root))
}

/// Collect the workspace source files to scan, repo-relative, sorted.
///
/// Scans `crates/*/src/**/*.rs` and the top-level `src/**/*.rs`.
/// Vendored stand-ins (`vendor/`), fixtures, tests, and build output
/// are deliberately out of scope: the policy governs our code, not the
/// shims around it.
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut out);
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut out);
    }
    let mut rel: Vec<PathBuf> = out
        .into_iter()
        .map(|p| p.strip_prefix(root).map(Path::to_path_buf).unwrap_or(p))
        .collect();
    rel.sort();
    rel
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Lint every workspace source under `root` with all six rules,
/// returning findings sorted by `(path, line, col, rule)`.
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let (sources, mut findings) = read_sources(root);
    findings.extend(lint_sources(&sources, &workspace_deps(root)));
    sort_findings(&mut findings);
    findings
}
