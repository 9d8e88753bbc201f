//! `lv-lint` CLI: scan the workspace, gate CI on zero findings.

use lv_lint::config::RULES;
use lv_lint::rules::Finding;
use lv_lint::{build_analysis, lint_workspace};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
lv-lint — workspace determinism & invariant analyzer

USAGE:
    lv-lint [OPTIONS]

OPTIONS:
    --root <dir>         Workspace root to scan (default: auto-detected)
    --format <fmt>       Findings output: `text` (default) or `json`
    --graph <file>       Dump the workspace call graph as Graphviz DOT
                         (`-` for stdout) and exit
    --max-seconds <n>    Fail if the scan takes longer than n seconds
                         (CI timing budget)
    --list-rules         Print the registered rules and exit
    -h, --help           Print this help

EXIT STATUS:
    0  no findings
    1  any finding, or over the time budget
    2  bad usage

Suppress a single finding with `// lv-lint: allow(<rule>)` on the
offending line or the line above. See DESIGN.md §12 and §16.";

fn find_root() -> PathBuf {
    // Walk up from the CWD to the directory holding the workspace
    // Cargo.toml (the one with a `crates/` sibling).
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

/// Minimal JSON string escaping (the findings format has no nesting
/// beyond strings and numbers, so this is all we need — the lint crate
/// stays dependency-free).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as a JSON array (stable field order, one finding
/// per element, chain included) for the CI artifact and the problem
/// matcher's consumers.
fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "  {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \
             \"message\": \"{}\", \"snippet\": \"{}\", \"chain\": [",
            json_escape(f.rule),
            json_escape(&f.path),
            f.line,
            f.col,
            json_escape(&f.message),
            json_escape(&f.snippet),
        ));
        for (j, hop) in f.chain.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"func\": \"{}\", \"path\": \"{}\", \"line\": {}}}",
                json_escape(&hop.func),
                json_escape(&hop.path),
                hop.line
            ));
        }
        out.push_str("]}");
    }
    out.push_str("\n]\n");
    out
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = String::from("text");
    let mut graph_out: Option<String> = None;
    let mut max_seconds: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_error("--root needs a value"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = "text".to_owned(),
                Some("json") => format = "json".to_owned(),
                Some(other) => {
                    return usage_error(&format!("--format must be text or json, got `{other}`"))
                }
                None => return usage_error("--format needs a value"),
            },
            "--graph" => match args.next() {
                Some(v) => graph_out = Some(v),
                None => return usage_error("--graph needs a value (file path or `-`)"),
            },
            "--max-seconds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => max_seconds = Some(n),
                None => return usage_error("--max-seconds needs an integer value"),
            },
            "--list-rules" => {
                for r in RULES {
                    println!("{:<16} {}", r.name, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let root = root.unwrap_or_else(find_root);

    if let Some(dest) = graph_out {
        let dot = build_analysis(&root).graph.to_dot();
        if dest == "-" {
            print!("{dot}");
        } else if let Err(e) = std::fs::write(&dest, &dot) {
            eprintln!("lv-lint: cannot write {dest}: {e}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let started = Instant::now();
    let findings = lint_workspace(&root);
    let elapsed = started.elapsed();

    let scanned = lv_lint::workspace_sources(&root).len();
    if format == "json" {
        print!("{}", render_json(&findings));
    } else {
        for f in &findings {
            println!("{}", f.render());
            print!("{}", f.render_chain());
        }
    }
    eprintln!(
        "lv-lint: {} file(s) scanned, {} finding(s), {:.2}s",
        scanned,
        findings.len(),
        elapsed.as_secs_f64(),
    );

    if let Some(budget) = max_seconds {
        if elapsed.as_secs_f64() > budget as f64 {
            eprintln!(
                "lv-lint: scan took {:.2}s, over the {budget}s budget",
                elapsed.as_secs_f64()
            );
            return ExitCode::FAILURE;
        }
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("lv-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}
