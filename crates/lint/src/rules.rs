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
pub(crate) const CHECKS: &[(&str, Check)] = &[("hash-type", check_hash_type)];

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
