//! One file's context and the per-file rules over its token stream.
//!
//! A [`FileContext`] holds a file's tokens plus the side information
//! every rule honors: `#[cfg(test)]` regions are exempt from every
//! rule, and an inline `// lv-lint: allow(<rule>)` on the offending
//! line (or the line above) suppresses that rule there. It feeds both
//! the per-file rules below and the item parser ([`crate::parse`]),
//! whose sinks the reach rules ([`crate::interproc`]) report.

use crate::config::{crate_key_of, scope_of};
use crate::lexer::{tokenize, Token, TokenKind};

/// One hop of the call chain behind a reached finding: a function on
/// the path from the root to the sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainHop {
    /// Display name (`crate::module::Type::fn`).
    pub func: String,
    /// Repo-relative file holding the function.
    pub path: String,
    /// 1-based line of the `fn` item.
    pub line: u32,
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
    /// The trimmed source line (shown in the JSON report).
    pub snippet: String,
    /// Call chain from the root to the fn holding the sink, root
    /// first. Empty when no root reaches the sink, and for per-file
    /// rules.
    pub chain: Vec<ChainHop>,
}

impl Finding {
    /// Render as `path:line:col: [rule] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }

    /// Render the call-chain evidence as indented continuation lines
    /// (empty string when there is no chain). Kept off the primary
    /// `render()` line so `path:line:col:` stays machine-parseable.
    pub fn render_chain(&self) -> String {
        let mut s = String::new();
        for (i, hop) in self.chain.iter().enumerate() {
            let arrow = if i == 0 { "chain:" } else { "    ->" };
            s.push_str(&format!(
                "    {arrow} {} ({}:{})\n",
                hop.func, hop.path, hop.line
            ));
        }
        s
    }
}

/// Sort findings by `(path, line, col, rule)`: the report order.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
}

/// Everything a rule may look at for one file.
pub struct FileContext<'a> {
    /// Repo-relative path (forward slashes).
    pub path: &'a str,
    /// Crate key (`kernel`, `radio`, …, `root`).
    pub crate_key: &'a str,
    /// The full token stream, comments included.
    pub tokens: Vec<Token<'a>>,
    /// Indices into `tokens` of significant (non-comment) tokens.
    pub sig: Vec<usize>,
    /// Source lines (for snippets).
    lines: Vec<&'a str>,
    /// Line ranges covered by `#[cfg(test)]` / `#[test]` items.
    test_spans: Vec<(u32, u32)>,
    /// `(line, rule)` pairs allowed by inline directives; `"all"`
    /// allows every rule on that line.
    allows: Vec<(u32, String)>,
}

impl<'a> FileContext<'a> {
    /// Lex `src` and precompute test spans and allow directives.
    pub fn new(path: &'a str, src: &'a str) -> FileContext<'a> {
        let tokens = tokenize(src);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let mut ctx = FileContext {
            path,
            crate_key: crate_key_of(path),
            lines: src.lines().collect(),
            test_spans: Vec::new(),
            allows: Vec::new(),
            tokens,
            sig,
        };
        ctx.scan_test_spans();
        ctx.scan_allow_directives();
        ctx
    }

    /// The significant token at sig-position `i`, if any.
    pub fn sig_tok(&self, i: usize) -> Option<&Token<'a>> {
        self.sig.get(i).map(|&ti| &self.tokens[ti])
    }

    /// True when `line` falls inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| line >= a && line <= b)
    }

    /// True when `rule` is allowed (suppressed) on `line` by an inline
    /// directive on the same line or the line above.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|(l, r)| (*l == line || *l + 1 == line) && (r == rule || r == "all"))
    }

    /// The trimmed source text of `line`.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_owned())
            .unwrap_or_default()
    }

    fn push(&self, out: &mut Vec<Finding>, rule: &'static str, tok: &Token<'_>, message: String) {
        if self.is_test_line(tok.line) || self.is_allowed(rule, tok.line) {
            return;
        }
        out.push(Finding {
            rule,
            path: self.path.to_owned(),
            line: tok.line,
            col: tok.col,
            message,
            snippet: self.snippet(tok.line),
            chain: Vec::new(),
        });
    }

    /// Find `#[cfg(test)]` / `#[cfg(any(test, …))]` / `#[test]`
    /// attributes and record the line span of the item each one guards.
    fn scan_test_spans(&mut self) {
        let mut spans = Vec::new();
        let mut i = 0usize;
        while i < self.sig.len() {
            if self.sig_text(i) == "#" && self.sig_text(i + 1) == "[" {
                let close = self.matching(i + 1, "[", "]");
                let mut is_test = false;
                let mut negated = false;
                for j in (i + 2)..close {
                    match self.sig_text(j) {
                        "test" => is_test = true,
                        "not" => negated = true,
                        _ => {}
                    }
                }
                if is_test && !negated {
                    // Skip any further attributes, then span the item.
                    let mut k = close + 1;
                    while self.sig_text(k) == "#" && self.sig_text(k + 1) == "[" {
                        k = self.matching(k + 1, "[", "]") + 1;
                    }
                    let start_line = self.sig_tok(i).map(|t| t.line).unwrap_or(1);
                    let end = self.item_end(k);
                    let end_line = self
                        .sig_tok(end.min(self.sig.len().saturating_sub(1)))
                        .map(|t| t.line)
                        .unwrap_or(start_line);
                    spans.push((start_line, end_line));
                    i = end + 1;
                    continue;
                }
                i = close + 1;
                continue;
            }
            i += 1;
        }
        self.test_spans = spans;
    }

    /// Sig-index of the token closing the group opened at `open_idx`
    /// (which must hold `open`). Returns the last sig index on
    /// unbalanced input.
    pub fn matching(&self, open_idx: usize, open: &str, close: &str) -> usize {
        let mut depth = 0i32;
        let mut i = open_idx;
        while i < self.sig.len() {
            let t = self.sig_text(i);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        self.sig.len().saturating_sub(1)
    }

    /// Sig-index of the last token of the item starting at `start`:
    /// either the `;` ending a declaration or the `}` closing the first
    /// top-level brace group.
    fn item_end(&self, start: usize) -> usize {
        let mut i = start;
        while i < self.sig.len() {
            match self.sig_text(i) {
                "{" => return self.matching(i, "{", "}"),
                ";" => return i,
                _ => i += 1,
            }
        }
        self.sig.len().saturating_sub(1)
    }

    /// Text of the significant token at sig-position `i` (empty past
    /// the end).
    pub fn sig_text(&self, i: usize) -> &str {
        self.sig_tok(i).map(|t| t.text).unwrap_or("")
    }

    /// Parse `lv-lint: allow(rule[, rule…])` directives out of comments.
    fn scan_allow_directives(&mut self) {
        let mut allows = Vec::new();
        for t in &self.tokens {
            if !t.is_comment() {
                continue;
            }
            let Some(at) = t.text.find("lv-lint:") else {
                continue;
            };
            let rest = &t.text[at + "lv-lint:".len()..];
            let Some(open) = rest.find("allow(") else {
                continue;
            };
            let args = &rest[open + "allow(".len()..];
            let Some(close) = args.find(')') else {
                continue;
            };
            for rule in args[..close].split(',') {
                allows.push((t.line, rule.trim().to_owned()));
            }
        }
        self.allows = allows;
    }
}

/// A per-file rule's check.
type Check = fn(&FileContext<'_>, &mut Vec<Finding>);

/// The per-file rules, in reporting order; [`crate::config::RULES`]
/// scopes them.
pub(crate) const CHECKS: &[(&str, Check)] = &[
    ("hash-type", check_hash_type),
    ("counter-name", check_counter_name),
    ("trace-coverage", check_trace_coverage),
    ("pub-doc", check_pub_doc),
];

/// Run every per-file rule whose scope covers the file's crate.
pub fn check_file(ctx: &FileContext<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for (rule, check) in CHECKS {
        if scope_of(rule).contains(ctx.crate_key) {
            check(ctx, &mut out);
        }
    }
    out
}

fn check_hash_type(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for i in 0..ctx.sig.len() {
        let Some(t) = ctx.sig_tok(i) else { break };
        if t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            ctx.push(
                out,
                "hash-type",
                t,
                format!(
                    "`{}` iteration order depends on RandomState; this crate feeds serialized \
                     output — use BTreeMap/BTreeSet",
                    t.text
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Convention rules
// ---------------------------------------------------------------------

/// Counter ids must look like `ns.part` (possibly more dots): a
/// lowercase namespace, then one or more dot-separated components, as
/// in `dyn.node_down`, `padding.capped`, `net.drop.NoRoute`.
fn counter_name_ok(name: &str) -> bool {
    let mut parts = name.split('.');
    let Some(ns) = parts.next() else { return false };
    let ns_ok = !ns.is_empty()
        && ns.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && ns
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    let mut rest = 0;
    let rest_ok = parts.all(|p| {
        rest += 1;
        !p.is_empty() && p.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    });
    ns_ok && rest_ok && rest >= 1
}

fn check_counter_name(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for i in 0..ctx.sig.len() {
        let Some(t) = ctx.sig_tok(i) else { break };
        if t.kind != TokenKind::Ident || (t.text != "incr" && t.text != "add") {
            continue;
        }
        if i < 1 || ctx.sig_text(i - 1) != "." || ctx.sig_text(i + 1) != "(" {
            continue;
        }
        let Some(arg) = ctx.sig_tok(i + 2) else {
            continue;
        };
        if arg.kind != TokenKind::Str || !arg.text.starts_with('"') {
            continue;
        }
        let lit = arg.text.trim_matches('"');
        if !counter_name_ok(lit) {
            ctx.push(
                out,
                "counter-name",
                arg,
                format!(
                    "counter id `{lit}` is not namespaced; use `ns.name` like `dyn.node_down` \
                     or `padding.capped`"
                ),
            );
        }
    }
}

fn check_trace_coverage(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    // Walk function bodies: a body that counts a `CounterId::Dyn*`
    // state mutation must also emit a trace event (`.emit(`).
    let mut i = 0usize;
    while i < ctx.sig.len() {
        if ctx.sig_text(i) != "fn" {
            i += 1;
            continue;
        }
        // Body = first `{` at paren depth 0 after the signature.
        let mut j = i + 1;
        let mut paren = 0i32;
        let body_open = loop {
            if j >= ctx.sig.len() {
                break None;
            }
            match ctx.sig_text(j) {
                "(" => paren += 1,
                ")" => paren -= 1,
                "{" if paren == 0 => break Some(j),
                ";" if paren == 0 => break None, // trait method decl
                _ => {}
            }
            j += 1;
        };
        let Some(open) = body_open else {
            i = j + 1;
            continue;
        };
        let close = ctx.matching(open, "{", "}");
        let mut dyn_tok: Option<&Token<'_>> = None;
        let mut has_emit = false;
        for k in open..=close {
            let Some(t) = ctx.sig_tok(k) else { break };
            if t.text == "CounterId"
                && ctx.sig_text(k + 1) == ":"
                && ctx.sig_text(k + 2) == ":"
                && ctx.sig_text(k + 3).starts_with("Dyn")
                && dyn_tok.is_none()
            {
                dyn_tok = ctx.sig_tok(k + 3);
            }
            if t.text == "emit" && ctx.sig_text(k - 1) == "." {
                has_emit = true;
            }
        }
        if let (Some(t), false) = (dyn_tok, has_emit) {
            ctx.push(
                out,
                "trace-coverage",
                t,
                format!(
                    "this function counts `CounterId::{}` but emits no trace event; kernel \
                     state mutations must be visible on the flight-recorder timeline",
                    t.text
                ),
            );
        }
        i = close + 1;
    }
}

fn check_pub_doc(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    // Binaries are not API surface: their `pub` is incidental.
    if ctx.path.contains("/bin/") || ctx.path.ends_with("main.rs") {
        return;
    }
    const ITEM_KEYWORDS: &[&str] = &[
        "fn", "struct", "enum", "trait", "type", "mod", "static", "const", "union",
    ];
    // Track whether we're inside executable code: braces opened after a
    // `fn`/`macro_rules` header are bodies, and everything nested in a
    // body is a body.
    let mut stack: Vec<bool> = Vec::new(); // true = body
    let mut pending_body = false;
    let mut i = 0usize;
    while i < ctx.sig.len() {
        let Some(t) = ctx.sig_tok(i) else { break };
        match t.text {
            "fn" | "macro_rules" => pending_body = true,
            ";" => pending_body = false,
            "{" => {
                let in_body = stack.last().copied().unwrap_or(false);
                stack.push(in_body || pending_body);
                pending_body = false;
            }
            "}" => {
                stack.pop();
            }
            "pub" if !stack.last().copied().unwrap_or(false) => {
                // Skip restricted visibility: `pub(crate)` etc. are not
                // public API.
                let mut k = i + 1;
                if ctx.sig_text(k) == "(" {
                    i += 1;
                    continue;
                }
                // Skip qualifiers to reach the item keyword.
                while matches!(ctx.sig_text(k), "unsafe" | "async" | "extern")
                    || (ctx.sig_text(k) == "const" && ctx.sig_text(k + 1) == "fn")
                    || ctx.sig_tok(k).is_some_and(|t| t.kind == TokenKind::Str)
                {
                    k += 1;
                }
                let kw = ctx.sig_text(k);
                // `pub mod name;` is documented by the module file's
                // own `//!` inner docs (the rustdoc gate checks those);
                // only inline `pub mod name { … }` needs outer docs.
                if kw == "mod" && ctx.sig_text(k + 2) == ";" {
                    i += 1;
                    continue;
                }
                if ITEM_KEYWORDS.contains(&kw) && !has_doc_before(ctx, i) {
                    let name = ctx.sig_text(k + 1);
                    ctx.push(
                        out,
                        "pub-doc",
                        t,
                        format!("public {kw} `{name}` has no doc comment"),
                    );
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Is the `pub` at sig-position `i` preceded (skipping attributes) by a
/// doc comment or a `#[doc…]` attribute?
fn has_doc_before(ctx: &FileContext<'_>, i: usize) -> bool {
    // Walk backwards over the *full* token stream from the pub token.
    let Some(&pub_ti) = ctx.sig.get(i) else {
        return false;
    };
    let mut ti = pub_ti;
    loop {
        if ti == 0 {
            return false;
        }
        ti -= 1;
        let t = &ctx.tokens[ti];
        if t.kind == TokenKind::DocComment {
            return true;
        }
        if t.is_comment() {
            // Plain comments between docs and item are fine; keep going.
            continue;
        }
        if t.text == "]" {
            // Skip the attribute group; a `#[doc = "…"]` counts.
            let mut depth = 1i32;
            let mut saw_doc = false;
            while ti > 0 && depth > 0 {
                ti -= 1;
                let a = &ctx.tokens[ti];
                match a.text {
                    "]" => depth += 1,
                    "[" => depth -= 1,
                    "doc" if a.kind == TokenKind::Ident => saw_doc = true,
                    _ => {}
                }
            }
            if saw_doc {
                return true;
            }
            // Step over the leading `#`.
            if ti > 0 && ctx.tokens[ti - 1].text == "#" {
                ti -= 1;
            }
            continue;
        }
        return false;
    }
}

#[cfg(test)]
mod tests {
    use crate::lint_source;

    /// Lint `src` as `path` under the repo policy; keep `rule`'s lines.
    fn lines(rule: &str, path: &str, src: &str) -> Vec<u32> {
        lint_source(path, src)
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\n";
        assert!(lines("no-panic", "crates/kernel/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn f() { x.unwrap(); }\n";
        assert_eq!(lines("no-panic", "crates/kernel/src/x.rs", src), vec![2]);
    }

    #[test]
    fn allow_directive_suppresses_same_and_next_line() {
        let same = "fn f() { x.unwrap(); } // lv-lint: allow(no-panic)\n";
        assert!(lines("no-panic", "crates/kernel/src/x.rs", same).is_empty());
        let above = "// lv-lint: allow(no-panic)\nfn f() { x.unwrap(); }\n";
        assert!(lines("no-panic", "crates/kernel/src/x.rs", above).is_empty());
        let wrong = "// lv-lint: allow(determinism)\nfn f() { x.unwrap(); }\n";
        assert_eq!(lines("no-panic", "crates/kernel/src/x.rs", wrong), vec![2]);
        let all = "fn f() { x.unwrap(); } // lv-lint: allow(all)\n";
        assert!(lines("no-panic", "crates/kernel/src/x.rs", all).is_empty());
    }

    #[test]
    fn counter_names_validated() {
        let good = "fn f(c: &mut Counters) { c.incr(\"dyn.node_down\"); c.add(\"net.drop.NoRoute\", 2); }\n";
        assert!(lines("counter-name", "crates/net/src/x.rs", good).is_empty());
        let bad = "fn f(c: &mut Counters) { c.incr(\"NodeDown\"); }\n";
        let f = lint_source("crates/net/src/x.rs", bad);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("NodeDown"));
    }

    #[test]
    fn pub_doc_requires_docs_outside_bodies() {
        let src = "/// Documented.\npub fn a() {}\npub fn b() {}\n\
                   fn c() { let pub_ish = 1; }\n";
        let f = lint_source("crates/sim/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains('b'));
    }

    #[test]
    fn pub_doc_skips_file_mod_decls_but_not_inline_mods() {
        let decl = "pub mod network;\n";
        assert!(lint_source("crates/kernel/src/lib.rs", decl).is_empty());
        let inline = "pub mod helpers { pub fn x() {} }\n";
        let f = lint_source("crates/kernel/src/lib.rs", inline);
        assert!(f.iter().any(|f| f.message.contains("mod `helpers`")));
    }

    #[test]
    fn pub_doc_accepts_doc_attr_and_skips_pub_crate() {
        let src = "#[doc = \"x\"]\npub fn a() {}\npub(crate) fn b() {}\npub use other::Thing;\n";
        assert!(lint_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn trace_coverage_pairs_dyn_counters_with_emit() {
        let bad = "fn f(&mut self) { self.counters.incr_id(CounterId::DynNodeDown); }\n";
        assert_eq!(
            lines("trace-coverage", "crates/kernel/src/x.rs", bad),
            vec![1]
        );
        let good = "fn f(&mut self) { self.counters.incr_id(CounterId::DynNodeDown); \
                    self.trace.emit(now, id, lvl, msg); }\n";
        assert!(lint_source("crates/kernel/src/x.rs", good).is_empty());
    }

    #[test]
    fn findings_render_with_positions() {
        let f = lint_source("crates/sim/src/x.rs", "fn f() { let t = Instant::now(); }");
        assert_eq!(f.len(), 1);
        let line = f[0].render();
        assert!(line.starts_with("crates/sim/src/x.rs:1:18:"), "{line}");
        assert!(line.contains("[determinism]"));
    }

    /// Every rule in the policy table has exactly one implementation:
    /// a per-file check here or a reach class in `interproc`, and only
    /// a reach rule owns sink kinds.
    #[test]
    fn every_rule_has_one_implementation() {
        for rule in crate::config::RULES {
            let checks = super::CHECKS.iter().filter(|c| c.0 == rule.name).count();
            let classes = crate::interproc::CLASSES
                .iter()
                .filter(|c| c.rule == rule.name)
                .count();
            assert_eq!(checks + classes, 1, "{}", rule.name);
            assert_eq!(classes == 1, !rule.sinks.is_empty(), "{}", rule.name);
        }
        assert_eq!(
            crate::config::RULES.len(),
            super::CHECKS.len() + crate::interproc::CLASSES.len()
        );
    }
}
