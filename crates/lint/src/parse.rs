//! Item-level parsing on top of the token stream.
//!
//! The reach rules need more structure than the per-file rules: which
//! functions exist (with their module path, owning `impl`/`trait`
//! type, and visibility), what each body *calls*, and which sinks each
//! body holds. This module builds that structure with a hand-rolled
//! walk over the significant token stream — still no `syn`, still
//! resilient: it never panics on malformed input, it just produces
//! fewer items.
//!
//! It is explicitly *not* a Rust parser. It recognizes exactly the
//! shapes the call graph needs — `fn`/`impl`/`trait`/`mod`/`use`/
//! `static` items, call and method-call expressions — and skips
//! everything else. Macro bodies are treated as expression soup (their
//! tokens are scanned for calls like any other body tokens), which
//! over-approximates but never hides a call site.
//!
//! Sinks are harvested once per file, in one pass over every
//! significant token ([`SinkKind`] lists them). A sink belongs to the
//! innermost function whose body holds it; a sink outside every body
//! (a `use` line, a field type) belongs to the file. Sinks in test
//! regions, or allowed for their rule by an inline directive, are
//! dropped here.

use crate::lexer::TokenKind;
use crate::rules::FileContext;

/// What a sink is. Each kind belongs to exactly one reach rule (see
/// [`crate::config::RULES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// A wall-clock time source: `Instant`, `SystemTime`.
    WallClock,
    /// OS entropy: `thread_rng`, `OsRng`, `RandomState`,
    /// `from_entropy`, `getrandom`.
    Entropy,
    /// Iteration over a hash-backed collection: a name declared
    /// `HashMap`/`HashSet` in this file, walked by `.iter()`-family
    /// methods or a `for … in` header.
    HashIter,
    /// `panic!`/`unreachable!`/`todo!`/`unimplemented!`, `.unwrap()`,
    /// `.expect(`.
    Panic,
    /// `buf[…]` on a byte-slice parameter of the enclosing fn, with no
    /// `buf.len()`/`buf.is_empty()`/`buf.get(` and no bare `buf`
    /// argument anywhere in the body.
    Index,
    /// A heap allocation: `Box::new`, `Arc::new`, `Rc::new`, `vec!`,
    /// `format!`, `.to_string()`, `.to_owned()`, `.to_vec()`.
    Alloc,
    /// `Vec::new` — capacity zero, so it only counts in a hot fn's own
    /// body.
    VecNew,
    /// A lock acquisition: `.lock(`, `.try_lock(`.
    Lock,
    /// An ALL_CAPS identifier: a candidate static reference, matched
    /// against declared statics by the rule.
    CapsRef,
}

/// One sink, with enough position info to report a finding at the
/// site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sink {
    /// What kind of sink.
    pub kind: SinkKind,
    /// 1-based line of the sink token.
    pub line: u32,
    /// 1-based column of the sink token.
    pub col: u32,
    /// What was seen (`Instant`, `.unwrap()`, `Box::new`, `buf[..]`, …).
    pub what: String,
    /// Trimmed source line (carried into the finding).
    pub snippet: String,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(…)` or `a::b::foo(…)` — statically-resolved free or
    /// associated call; `quals` holds the path segments before the
    /// final name (empty for a bare call).
    Path {
        /// Path segments before the called name (`a`, `b` for
        /// `a::b::foo(…)`).
        quals: Vec<String>,
    },
    /// `recv.foo(…)` — method call, possibly dynamic dispatch.
    Method,
}

/// One call expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The called name (last path segment / method name).
    pub name: String,
    /// Free/associated path call vs. method call.
    pub kind: CallKind,
    /// 1-based line of the call.
    pub line: u32,
}

/// One parsed function (or method, or trait default method).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Module path inside the crate (file modules + inline `mod`s).
    pub module: Vec<String>,
    /// `impl` type or `trait` name owning this fn, if any.
    pub owner: Option<String>,
    /// Trait name when the fn lives in an `impl Trait for Type` block.
    pub trait_impl: Option<String>,
    /// Fully `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` region or `#[test]` item.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Tagged `// lv-lint: hot` on the `fn` line or the line above.
    pub is_hot: bool,
    /// The body mentions `TrialRunner` and calls `.run(` — the lexical
    /// signature of a multi-trial driver whose closure is a trial body.
    pub trial_caller: bool,
    /// Call sites inside the body.
    pub calls: Vec<CallSite>,
    /// Sinks inside the body (not inside nested fns).
    pub sinks: Vec<Sink>,
}

/// A `static` item declaration.
#[derive(Debug, Clone)]
pub struct StaticItem {
    /// The static's name.
    pub name: String,
    /// Declared `static mut`.
    pub mutable: bool,
    /// Type mentions an interior-mutability cell (`Mutex`, `RefCell`,
    /// `Cell`, `RwLock`, `Atomic*`, `OnceLock`, `LazyLock`,
    /// `UnsafeCell`, `OnceCell`).
    pub interior_mutable: bool,
    /// 1-based line of the `static` keyword.
    pub line: u32,
    /// Inside a test region.
    pub is_test: bool,
}

/// One `use` mapping: local name → full imported path.
#[derive(Debug, Clone)]
pub struct UseItem {
    /// The name this import binds locally (alias if `as` was used,
    /// `*` for glob imports).
    pub local: String,
    /// The imported path segments (for globs, the prefix).
    pub path: Vec<String>,
}

/// Everything the call graph needs from one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Repo-relative path.
    pub path: String,
    /// Crate key (`kernel`, `serve`, …, `root`).
    pub crate_key: String,
    /// Module path derived from the file's location under `src/`.
    pub file_module: Vec<String>,
    /// Parsed functions.
    pub fns: Vec<FnItem>,
    /// Parsed statics.
    pub statics: Vec<StaticItem>,
    /// `use` imports (file-level and module-level, flattened).
    pub uses: Vec<UseItem>,
    /// Trait names *defined* (not implemented) in this file.
    pub traits_defined: Vec<String>,
    /// Sinks outside every fn body.
    pub sinks: Vec<Sink>,
}

/// Derive the in-crate module path from a repo-relative file path:
/// `crates/net/src/routing/flooding.rs` → `["routing", "flooding"]`,
/// `crates/net/src/routing/mod.rs` → `["routing"]`, `lib.rs`/`main.rs`
/// → `[]`.
pub fn file_module_path(path: &str) -> Vec<String> {
    let rest = match path.find("/src/") {
        Some(i) => &path[i + 5..],
        None => match path.strip_prefix("src/") {
            Some(r) => r,
            None => path,
        },
    };
    let rest = rest.strip_suffix(".rs").unwrap_or(rest);
    let mut parts: Vec<String> = rest.split('/').map(str::to_owned).collect();
    if let Some(last) = parts.last() {
        if last == "lib" || last == "main" || last == "mod" {
            parts.pop();
        }
    }
    parts
}

/// Parse one file's items and harvest its sinks.
pub fn parse_file(ctx: &FileContext<'_>) -> ParsedFile {
    let mut out = ParsedFile {
        path: ctx.path.to_owned(),
        crate_key: ctx.crate_key.to_owned(),
        file_module: file_module_path(ctx.path),
        ..ParsedFile::default()
    };
    let mut p = Parser {
        ctx,
        out: &mut out,
        hot_lines: hot_tag_lines(ctx),
        bodies: Vec::new(),
    };
    let module = p.out.file_module.clone();
    p.parse_items(0, ctx.sig.len(), &module, &Owner::None);
    p.harvest_sinks();
    out
}

/// One parsed fn body: its sig-index span and what the index-sink
/// check needs from it.
struct Body {
    /// Index of the fn in [`ParsedFile::fns`].
    item: usize,
    /// Sig indices of the body's `{` and `}`.
    open: usize,
    close: usize,
    /// Names of the fn's byte-slice parameters.
    byte_slice_params: Vec<String>,
    /// Names the body bound-checks or hands to a callee.
    guarded: Vec<String>,
}

/// Who owns the items currently being parsed.
enum Owner {
    /// Top level or inside a `mod`.
    None,
    /// Inside `impl Type { … }`.
    Impl {
        /// The implementing type's name.
        ty: String,
        /// Trait name for `impl Trait for Type` blocks.
        trait_name: Option<String>,
    },
    /// Inside `trait Name { … }` (default methods).
    Trait(String),
}

/// Lines carrying a `// lv-lint: hot` tag.
fn hot_tag_lines(ctx: &FileContext<'_>) -> Vec<u32> {
    ctx.tokens
        .iter()
        .filter(|t| t.is_comment())
        .filter_map(|t| {
            let at = t.text.find("lv-lint:")?;
            let rest = t.text[at + "lv-lint:".len()..].trim_start();
            rest.starts_with("hot").then_some(t.line)
        })
        .collect()
}

const KEYWORDS_NOT_CALLS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "else", "move", "in", "as", "fn",
    "impl", "dyn", "where", "unsafe", "async", "await", "break", "continue", "use", "pub", "mod",
    "struct", "enum", "trait", "type", "const", "static", "ref", "mut", "self", "Self", "super",
    "crate",
];

struct Parser<'a, 'b> {
    ctx: &'a FileContext<'b>,
    out: &'a mut ParsedFile,
    hot_lines: Vec<u32>,
    bodies: Vec<Body>,
}

impl Parser<'_, '_> {
    fn text(&self, i: usize) -> &str {
        self.ctx.sig_text(i)
    }

    /// Text of the significant token before `i` (empty at the start).
    fn prev(&self, i: usize) -> &str {
        i.checked_sub(1).map_or("", |p| self.text(p))
    }

    fn line_of(&self, i: usize) -> u32 {
        self.ctx.sig_tok(i).map(|t| t.line).unwrap_or(0)
    }

    /// Parse items in the sig-index range `[i, end)`. `module` is the
    /// current module path; `owner` the enclosing impl/trait.
    fn parse_items(&mut self, mut i: usize, end: usize, module: &[String], owner: &Owner) {
        let mut is_pub = false;
        while i < end {
            match self.text(i) {
                "#" if self.text(i + 1) == "[" => {
                    i = self.ctx.matching(i + 1, "[", "]") + 1;
                }
                "pub" => {
                    // `pub(crate)` / `pub(super)` are not public API.
                    is_pub = self.text(i + 1) != "(";
                    if self.text(i + 1) == "(" {
                        i = self.ctx.matching(i + 1, "(", ")") + 1;
                    } else {
                        i += 1;
                    }
                }
                "unsafe" | "async" | "extern" | "default" => i += 1,
                "const" if self.text(i + 1) == "fn" => i += 1,
                "fn" => {
                    i = self.parse_fn(i, end, module, owner, is_pub);
                    is_pub = false;
                }
                "mod" => {
                    let name = self.text(i + 1).to_owned();
                    if self.text(i + 2) == "{" {
                        let close = self.ctx.matching(i + 2, "{", "}");
                        let mut inner = module.to_vec();
                        inner.push(name);
                        self.parse_items(i + 3, close.min(end), &inner, &Owner::None);
                        i = close + 1;
                    } else {
                        i = self.skip_item(i + 1, end);
                    }
                    is_pub = false;
                }
                "impl" => {
                    i = self.parse_impl(i, end, module);
                    is_pub = false;
                }
                "trait" => {
                    i = self.parse_trait(i, end, module);
                    is_pub = false;
                }
                "use" => {
                    i = self.parse_use(i + 1, end);
                    is_pub = false;
                }
                "static" => {
                    i = self.parse_static(i, end);
                    is_pub = false;
                }
                "struct" | "enum" | "union" | "type" | "const" => {
                    i = self.skip_item(i + 1, end);
                    is_pub = false;
                }
                "macro_rules" => {
                    // `macro_rules! name { … }`
                    let mut j = i + 1;
                    while j < end && self.text(j) != "{" {
                        j += 1;
                    }
                    i = if j < end {
                        self.ctx.matching(j, "{", "}") + 1
                    } else {
                        end
                    };
                    is_pub = false;
                }
                "{" => {
                    // Stray block (shouldn't happen at item level) —
                    // step over it rather than diving in.
                    i = self.ctx.matching(i, "{", "}") + 1;
                    is_pub = false;
                }
                _ => {
                    i += 1;
                    is_pub = false;
                }
            }
        }
    }

    /// Skip to the end of a non-fn item starting after its keyword:
    /// the `;` ending a declaration or the close of the first brace
    /// group, whichever comes first at paren depth 0.
    fn skip_item(&self, mut i: usize, end: usize) -> usize {
        let mut paren = 0i32;
        while i < end {
            match self.text(i) {
                "(" => paren += 1,
                ")" => paren -= 1,
                ";" if paren == 0 => return i + 1,
                "{" if paren == 0 => return self.ctx.matching(i, "{", "}") + 1,
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// Parse `fn name …` at sig index `i` (pointing at `fn`). Returns
    /// the index just past the item.
    fn parse_fn(
        &mut self,
        i: usize,
        end: usize,
        module: &[String],
        owner: &Owner,
        is_pub: bool,
    ) -> usize {
        let fn_line = self.line_of(i);
        let name = self.text(i + 1).to_owned();
        if name.is_empty() || self.text(i + 1) == "(" {
            // `fn(` — a bare fn-pointer type, not an item.
            return i + 1;
        }
        // Find the body `{` (or `;` for bodyless decls) at paren depth
        // 0, collecting the names of byte-slice params (`buf: &[u8]`,
        // `raw: &mut [u8; N]`) on the way — the wire-parser shape the
        // index-sink policy applies to.
        let mut j = i + 2;
        let mut paren = 0i32;
        let mut byte_slice_params: Vec<String> = Vec::new();
        let mut cur_param: Option<String> = None;
        let body_open = loop {
            if j >= end {
                break None;
            }
            match self.text(j) {
                "(" => paren += 1,
                ")" => paren -= 1,
                ":" if paren == 1 && self.text(j + 1) != ":" && self.text(j - 1) != ":" => {
                    let mut k = j - 1;
                    while k > 0 && matches!(self.text(k), "mut" | "ref") {
                        k -= 1;
                    }
                    if self
                        .ctx
                        .sig_tok(k)
                        .is_some_and(|t| t.kind == TokenKind::Ident)
                    {
                        cur_param = Some(self.text(k).to_owned());
                    }
                }
                "," if paren == 1 => cur_param = None,
                "[" if self.text(j + 1) == "u8" => {
                    if let Some(p) = cur_param.take() {
                        byte_slice_params.push(p);
                    }
                }
                "{" if paren == 0 => break Some(j),
                ";" if paren == 0 => break None,
                _ => {}
            }
            j += 1;
        };
        let is_hot = self
            .hot_lines
            .iter()
            .any(|&l| l == fn_line || l + 1 == fn_line);
        let (trait_name, owner_name) = match owner {
            Owner::None => (None, None),
            Owner::Impl { ty, trait_name } => (trait_name.clone(), Some(ty.clone())),
            Owner::Trait(t) => (None, Some(t.clone())),
        };
        let mut item = FnItem {
            name,
            module: module.to_vec(),
            owner: owner_name,
            trait_impl: trait_name,
            is_pub,
            is_test: self.ctx.is_test_line(fn_line),
            line: fn_line,
            is_hot,
            trial_caller: false,
            calls: Vec::new(),
            sinks: Vec::new(),
        };
        let Some(open) = body_open else {
            self.out.fns.push(item);
            return j.min(end) + 1;
        };
        let close = self.ctx.matching(open, "{", "}");
        let guarded = self.scan_body(open + 1, close.min(end), module, &mut item);
        self.bodies.push(Body {
            item: self.out.fns.len(),
            open,
            close,
            byte_slice_params,
            guarded,
        });
        self.out.fns.push(item);
        close + 1
    }

    /// Parse an `impl … {` header at `i` (pointing at `impl`) and the
    /// items inside it.
    fn parse_impl(&mut self, i: usize, end: usize, module: &[String]) -> usize {
        // Collect header tokens up to the `{` at paren depth 0.
        let mut j = i + 1;
        let mut paren = 0i32;
        let mut header: Vec<(usize, String)> = Vec::new();
        while j < end {
            match self.text(j) {
                "(" => paren += 1,
                ")" => paren -= 1,
                "{" if paren == 0 => break,
                ";" if paren == 0 => return j + 1, // `impl Trait for Type;` (odd) — skip
                t => header.push((j, t.to_owned())),
            }
            j += 1;
        }
        if j >= end {
            return end;
        }
        let open = j;
        let close = self.ctx.matching(open, "{", "}");
        // Split on a top-angle-depth `for`: before = trait, after = type.
        // Skip the leading generics group (`impl<…>`).
        let mut depth = 0i32;
        let mut for_at: Option<usize> = None;
        for (k, (_, t)) in header.iter().enumerate() {
            match t.as_str() {
                "<" => depth += 1,
                ">" => {
                    // Ignore the `>` of `->` (arrow in Fn bounds).
                    let prev = k.checked_sub(1).map(|p| header[p].1.as_str());
                    if prev != Some("-") {
                        depth -= 1;
                    }
                }
                "for" if depth == 0 => {
                    for_at = Some(k);
                    break;
                }
                _ => {}
            }
        }
        let type_name = |toks: &[(usize, String)]| -> Option<String> {
            // Last CamelCase-ish ident before generics of the path:
            // `lv_net::routing::Geographic<…>` → `Geographic`.
            let mut best = None;
            let mut depth = 0i32;
            for (k, (_, t)) in toks.iter().enumerate() {
                match t.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        let prev = k.checked_sub(1).map(|p| toks[p].1.as_str());
                        if prev != Some("-") {
                            depth -= 1;
                        }
                    }
                    _ if depth == 0 => {
                        let is_ident = t
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_alphabetic() || c == '_');
                        if is_ident && !KEYWORDS_NOT_CALLS.contains(&t.as_str()) {
                            best = Some(t.clone());
                        }
                    }
                    _ => {}
                }
            }
            best
        };
        let owner = match for_at {
            Some(k) => Owner::Impl {
                ty: type_name(&header[k + 1..]).unwrap_or_default(),
                trait_name: type_name(&header[..k]),
            },
            None => Owner::Impl {
                ty: type_name(&header).unwrap_or_default(),
                trait_name: None,
            },
        };
        self.parse_items(open + 1, close.min(end), module, &owner);
        close + 1
    }

    /// Parse `trait Name … { … }` at `i` (pointing at `trait`).
    fn parse_trait(&mut self, i: usize, end: usize, module: &[String]) -> usize {
        let name = self.text(i + 1).to_owned();
        let mut j = i + 2;
        let mut paren = 0i32;
        while j < end {
            match self.text(j) {
                "(" => paren += 1,
                ")" => paren -= 1,
                "{" if paren == 0 => break,
                ";" if paren == 0 => return j + 1, // `trait Alias = …;`
                _ => {}
            }
            j += 1;
        }
        if j >= end {
            return end;
        }
        let close = self.ctx.matching(j, "{", "}");
        if !self.ctx.is_test_line(self.line_of(i)) {
            self.out.traits_defined.push(name.clone());
        }
        self.parse_items(j + 1, close.min(end), module, &Owner::Trait(name));
        close + 1
    }

    /// Parse a `use …;` tree starting just after the `use` keyword.
    fn parse_use(&mut self, mut i: usize, end: usize) -> usize {
        // Collect the flat token texts up to `;`, then expand groups.
        let start = i;
        while i < end && self.text(i) != ";" {
            i += 1;
        }
        let toks: Vec<String> = (start..i).map(|k| self.text(k).to_owned()).collect();
        let mut uses = Vec::new();
        expand_use_tree(&toks, &mut Vec::new(), &mut uses);
        self.out.uses.extend(uses);
        i + 1
    }

    /// Parse `static [mut] NAME: Type = …;` at `i` (pointing at
    /// `static`).
    fn parse_static(&mut self, i: usize, end: usize) -> usize {
        let line = self.line_of(i);
        let mut j = i + 1;
        let mutable = self.text(j) == "mut";
        if mutable {
            j += 1;
        }
        let name = self.text(j).to_owned();
        // Type tokens: between `:` and `=` (or `;`).
        let mut ty = String::new();
        let mut k = j + 1;
        let mut paren = 0i32;
        while k < end {
            match self.text(k) {
                "(" => paren += 1,
                ")" => paren -= 1,
                "=" | ";" if paren == 0 => break,
                t => {
                    ty.push_str(t);
                    ty.push(' ');
                }
            }
            k += 1;
        }
        const CELLS: &[&str] = &[
            "Mutex",
            "RwLock",
            "RefCell",
            "Cell",
            "UnsafeCell",
            "OnceLock",
            "LazyLock",
            "OnceCell",
            "AtomicUsize",
            "AtomicU64",
            "AtomicU32",
            "AtomicU16",
            "AtomicU8",
            "AtomicIsize",
            "AtomicI64",
            "AtomicI32",
            "AtomicBool",
            "AtomicPtr",
        ];
        let interior_mutable = CELLS.iter().any(|c| ty.contains(c));
        if !name.is_empty() && name != ":" {
            self.out.statics.push(StaticItem {
                name,
                mutable,
                interior_mutable,
                line,
                is_test: self.ctx.is_test_line(line),
            });
        }
        self.skip_item(k, end)
    }

    /// Scan a fn body for calls and nested fns, and note whether it
    /// drives `TrialRunner::run`. Returns the names the body guards:
    /// `x.len(` / `x.is_empty(` / `x.get(` bound-check the receiver,
    /// and passing `x` as a bare argument (`Reader(x)`, `parse(x)`)
    /// delegates validation to the callee.
    fn scan_body(
        &mut self,
        mut i: usize,
        end: usize,
        module: &[String],
        item: &mut FnItem,
    ) -> Vec<String> {
        let mut guarded: Vec<String> = Vec::new();
        let mut mentions_trial_runner = false;
        let mut calls_run = false;
        while i < end {
            let t = self.text(i).to_owned();
            // Nested named fn: its own item; don't attribute to parent.
            if t == "fn"
                && self
                    .ctx
                    .sig_tok(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Ident)
                && self.text(i + 2) != ":"
            {
                i = self.parse_fn(i, end, module, &Owner::None, false);
                continue;
            }
            if t == "impl" && self.text(i + 1) != "<" && looks_like_impl_block(self, i, end) {
                i = self.parse_impl(i, end, module);
                continue;
            }
            let Some(tok) = self.ctx.sig_tok(i) else {
                break;
            };
            if tok.kind == TokenKind::Ident {
                mentions_trial_runner |= t == "TrialRunner";
                let bounds_call = self.text(i + 1) == "."
                    && matches!(self.text(i + 2), "len" | "is_empty" | "get")
                    && self.text(i + 3) == "(";
                let bare_argument = matches!(self.prev(i), "(" | "," | "&")
                    && !matches!(self.text(i + 1), "[" | ".");
                if (bounds_call || bare_argument) && !guarded.contains(&t) {
                    guarded.push(t.clone());
                }
                // Call sites.
                if !KEYWORDS_NOT_CALLS.contains(&t.as_str()) {
                    let after = self.after_turbofish(i + 1, end);
                    if self.text(after) == "(" {
                        let line = tok.line;
                        if self.prev(i) == "." {
                            calls_run |= t == "run";
                            item.calls.push(CallSite {
                                name: t.clone(),
                                kind: CallKind::Method,
                                line,
                            });
                        } else {
                            // Walk back over `a :: b ::` qualifiers.
                            let mut quals = Vec::new();
                            let mut j = i;
                            while j >= 3
                                && self.text(j - 1) == ":"
                                && self.text(j - 2) == ":"
                                && self
                                    .ctx
                                    .sig_tok(j - 3)
                                    .is_some_and(|q| q.kind == TokenKind::Ident)
                            {
                                quals.insert(0, self.text(j - 3).to_owned());
                                j -= 3;
                            }
                            item.calls.push(CallSite {
                                name: t.clone(),
                                kind: CallKind::Path { quals },
                                line,
                            });
                        }
                    }
                }
            }
            i += 1;
        }
        item.trial_caller = mentions_trial_runner && calls_run;
        guarded
    }

    /// Record every sink in the file, once: the one pass over every
    /// significant token that all reach rules read. Each sink goes to
    /// the innermost fn body holding it, or to the file.
    fn harvest_sinks(&mut self) {
        let ctx = self.ctx;
        // Bodies nest, and a nested body opens after its parent, so
        // stamping them in `open` order leaves the innermost on top.
        let mut owner: Vec<Option<usize>> = vec![None; ctx.sig.len()];
        let mut order: Vec<usize> = (0..self.bodies.len()).collect();
        order.sort_by_key(|&b| self.bodies[b].open);
        for b in order {
            let body = &self.bodies[b];
            for slot in &mut owner[body.open..=body.close] {
                *slot = Some(b);
            }
        }
        let hashed = hash_bound_names(ctx);
        // Sig index of the `{` ending the current `for … in` header.
        let mut for_header_until = 0usize;
        for (i, body) in owner.into_iter().enumerate() {
            if !hashed.is_empty() && self.text(i) == "for" {
                let header =
                    (i + 1..ctx.sig.len()).find(|&j| matches!(self.text(j), "in" | "{" | ";"));
                if let Some(j) = header.filter(|&j| self.text(j) == "in") {
                    let open = (j + 1..ctx.sig.len()).find(|&k| self.text(k) == "{");
                    for_header_until = for_header_until.max(open.unwrap_or(ctx.sig.len()));
                }
            }
            let body = body.map(|b| &self.bodies[b]);
            let Some((kind, what)) = self.sink_at(i, &hashed, i < for_header_until, body) else {
                continue;
            };
            let Some(tok) = ctx.sig_tok(i) else { break };
            if ctx.is_test_line(tok.line) || ctx.is_allowed(crate::config::rule_of(kind), tok.line)
            {
                continue;
            }
            let sink = Sink {
                kind,
                line: tok.line,
                col: tok.col,
                what,
                snippet: ctx.snippet(tok.line),
            };
            match body {
                Some(b) => self.out.fns[b.item].sinks.push(sink),
                None => self.out.sinks.push(sink),
            }
        }
    }

    /// The sink at sig index `i`, if any: its kind and what was seen.
    /// `hashed` names this file's hash containers, `in_for_header` says
    /// whether `i` sits in a `for … in` header, and `body` is the
    /// innermost fn body holding `i`.
    fn sink_at(
        &self,
        i: usize,
        hashed: &[&str],
        in_for_header: bool,
        body: Option<&Body>,
    ) -> Option<(SinkKind, String)> {
        let tok = self.ctx.sig_tok(i)?;
        if tok.kind != TokenKind::Ident {
            return None;
        }
        let t = tok.text;
        let method = self.prev(i) == "." && self.text(i + 1) == "(";
        let path_new =
            self.text(i + 1) == ":" && self.text(i + 2) == ":" && self.text(i + 3) == "new";
        let macro_call = self.text(i + 1) == "!" && matches!(self.text(i + 2), "(" | "[" | "{");
        let sink = match t {
            "Instant" | "SystemTime" => (SinkKind::WallClock, t.to_owned()),
            "thread_rng" | "OsRng" | "RandomState" | "from_entropy" | "getrandom" => {
                (SinkKind::Entropy, t.to_owned())
            }
            "panic" | "unreachable" | "todo" | "unimplemented" if self.text(i + 1) == "!" => {
                (SinkKind::Panic, format!("{t}!"))
            }
            "unwrap" | "expect" if method => (SinkKind::Panic, format!(".{t}()")),
            "Box" | "Arc" | "Rc" if path_new => (SinkKind::Alloc, format!("{t}::new")),
            "vec" | "format" if macro_call => (SinkKind::Alloc, format!("{t}!")),
            "to_string" | "to_owned" | "to_vec" if method => (SinkKind::Alloc, format!(".{t}()")),
            "Vec" if path_new => (SinkKind::VecNew, "Vec::new".to_owned()),
            "lock" | "try_lock" if method => (SinkKind::Lock, format!(".{t}()")),
            _ if hashed.contains(&t)
                && (in_for_header
                    || (self.text(i + 1) == "."
                        && HASH_ITERATORS.contains(&self.text(i + 2))
                        && self.text(i + 3) == "(")) =>
            {
                (SinkKind::HashIter, t.to_owned())
            }
            _ if self.text(i + 1) == "["
                && body.is_some_and(|b| {
                    b.byte_slice_params.iter().any(|p| p == t) && !b.guarded.iter().any(|g| g == t)
                }) =>
            {
                (SinkKind::Index, format!("{t}[..]"))
            }
            _ if t.len() > 1
                && t.starts_with(|c: char| c.is_ascii_uppercase())
                && t.chars()
                    .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_') =>
            {
                (SinkKind::CapsRef, t.to_owned())
            }
            _ => return None,
        };
        Some(sink)
    }

    /// If sig index `i` starts a turbofish (`:: < … >`), return the
    /// index just past the closing `>`; otherwise return `i`.
    fn after_turbofish(&self, i: usize, end: usize) -> usize {
        if self.text(i) != ":" || self.text(i + 1) != ":" || self.text(i + 2) != "<" {
            return i;
        }
        let mut depth = 0i32;
        let mut j = i + 2;
        while j < end {
            match self.text(j) {
                "<" => depth += 1,
                ">" if self.text(j - 1) != "-" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                "(" | ")" | ";" | "{" | "}" => return i, // not a turbofish
                _ => {}
            }
            j += 1;
        }
        i
    }
}

/// Methods that walk a hash container in hasher order.
const HASH_ITERATORS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
];

/// Identifiers this file declares with a hash-container type:
/// `name: HashMap<…>` fields and params, `let name = HashMap::new()`
/// bindings.
fn hash_bound_names<'a>(ctx: &FileContext<'a>) -> Vec<&'a str> {
    let ident_at = |j: usize| ctx.sig_tok(j).filter(|p| p.kind == TokenKind::Ident);
    let mut hashed = Vec::new();
    for i in 1..ctx.sig.len() {
        if !matches!(ctx.sig_text(i), "HashMap" | "HashSet") {
            continue;
        }
        // Walk back over a `std::collections::` path prefix (colons are
        // single-char tokens) and any `&`/`&mut` to reach the `:`
        // (field/param) or `=` (binding) that names the identifier.
        let mut j = i - 1;
        while j >= 3
            && ctx.sig_text(j) == ":"
            && ctx.sig_text(j - 1) == ":"
            && ident_at(j - 2).is_some()
        {
            j -= 3;
        }
        while j >= 1 && matches!(ctx.sig_text(j), "&" | "mut") {
            j -= 1;
        }
        let is_decl_colon = ctx.sig_text(j) == ":" && (j == 0 || ctx.sig_text(j - 1) != ":");
        let is_binding_eq = ctx.sig_text(j) == "=";
        if j >= 1 && (is_decl_colon || is_binding_eq) {
            if let Some(name) = ident_at(j - 1) {
                hashed.push(name.text);
            }
        }
    }
    hashed
}

/// Heuristic: does `impl` at `i` open an `impl … { … }` block (vs. an
/// `impl Trait` return/param type)? True when a `{` appears before any
/// `;`, `)` or `,` at depth 0.
fn looks_like_impl_block(p: &Parser<'_, '_>, i: usize, end: usize) -> bool {
    let mut paren = 0i32;
    for j in (i + 1)..end.min(i + 64) {
        match p.text(j) {
            "(" => paren += 1,
            ")" if paren == 0 => return false,
            ")" => paren -= 1,
            "," | ";" | ">" if paren == 0 => return false,
            "{" if paren == 0 => return true,
            _ => {}
        }
    }
    false
}

/// Expand a flat `use` token list (without the `use` keyword or `;`)
/// into local-name → path mappings. Handles `a::b::{c, d as e}`,
/// nested groups, `as` aliases, and `*` globs.
fn expand_use_tree(toks: &[String], prefix: &mut Vec<String>, out: &mut Vec<UseItem>) {
    let mut i = 0;
    let depth_start = prefix.len();
    while i < toks.len() {
        match toks[i].as_str() {
            ":" => i += 1,
            "{" => {
                // Split the group into comma-separated parts at depth 0.
                let close = matching_brace(toks, i);
                let inner = &toks[i + 1..close];
                for part in split_top_commas(inner) {
                    expand_use_tree(&part, prefix, out);
                }
                i = close + 1;
                // After a group the path prefix resets to the group's
                // own base.
                prefix.truncate(depth_start);
            }
            "}" | "," => i += 1,
            "*" => {
                out.push(UseItem {
                    local: "*".to_owned(),
                    path: prefix.clone(),
                });
                i += 1;
            }
            "as" => {
                // Rename the previous terminal segment.
                let alias = toks.get(i + 1).cloned().unwrap_or_default();
                if let Some(last) = out.last_mut() {
                    last.local = alias;
                }
                i += 2;
            }
            seg => {
                let is_last = i + 1 >= toks.len()
                    || toks[i + 1] == ","
                    || toks[i + 1] == "as"
                    || toks[i + 1] == "}";
                prefix.push(seg.to_owned());
                if is_last {
                    out.push(UseItem {
                        local: seg.to_owned(),
                        path: prefix.clone(),
                    });
                    prefix.truncate(depth_start);
                }
                i += 1;
            }
        }
    }
    prefix.truncate(depth_start);
}

fn matching_brace(toks: &[String], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

fn split_top_commas(toks: &[String]) -> Vec<Vec<String>> {
    let mut parts = Vec::new();
    let mut cur = Vec::new();
    let mut depth = 0i32;
    for t in toks {
        match t.as_str() {
            "{" => {
                depth += 1;
                cur.push(t.clone());
            }
            "}" => {
                depth -= 1;
                cur.push(t.clone());
            }
            "," if depth == 0 => {
                if !cur.is_empty() {
                    parts.push(std::mem::take(&mut cur));
                }
            }
            _ => cur.push(t.clone()),
        }
    }
    if !cur.is_empty() {
        parts.push(cur);
    }
    parts
}

impl FnItem {
    /// `crate::module::Owner::name` display form.
    pub fn pretty(&self, crate_key: &str) -> String {
        let mut s = String::from(crate_key);
        for m in &self.module {
            s.push_str("::");
            s.push_str(m);
        }
        if let Some(o) = &self.owner {
            s.push_str("::");
            s.push_str(o);
        }
        s.push_str("::");
        s.push_str(&self.name);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(path: &str, src: &str) -> ParsedFile {
        parse_file(&FileContext::new(path, src))
    }

    /// `(kind, what)` of each sink, in order.
    fn kinds(sinks: &[Sink]) -> Vec<(SinkKind, &str)> {
        sinks.iter().map(|s| (s.kind, s.what.as_str())).collect()
    }

    #[test]
    fn file_module_paths() {
        assert_eq!(
            file_module_path("crates/net/src/routing/flooding.rs"),
            vec!["routing", "flooding"]
        );
        assert_eq!(
            file_module_path("crates/net/src/routing/mod.rs"),
            vec!["routing"]
        );
        assert!(file_module_path("crates/net/src/lib.rs").is_empty());
        assert!(file_module_path("src/lib.rs").is_empty());
    }

    #[test]
    fn parses_free_fns_and_calls() {
        let f = parse(
            "crates/net/src/x.rs",
            "pub fn a() { b(); c::d(); obj.m(1); }\nfn b() {}\n",
        );
        assert_eq!(f.fns.len(), 2);
        let a = &f.fns[0];
        assert!(a.is_pub);
        assert_eq!(a.name, "a");
        assert_eq!(a.calls.len(), 3);
        assert_eq!(a.calls[0].name, "b");
        assert_eq!(
            a.calls[1].kind,
            CallKind::Path {
                quals: vec!["c".to_owned()]
            }
        );
        assert_eq!(a.calls[2].kind, CallKind::Method);
        assert!(!f.fns[1].is_pub);
    }

    #[test]
    fn impl_blocks_attribute_owner_and_trait() {
        let src = "struct S;\ntrait T { fn t(&self) { helper(); } }\n\
                   impl T for S { fn t(&self) { self.go(); } }\n\
                   impl S { pub fn go(&self) {} }\n";
        let f = parse("crates/net/src/x.rs", src);
        let names: Vec<(String, Option<String>, Option<String>)> = f
            .fns
            .iter()
            .map(|x| (x.name.clone(), x.owner.clone(), x.trait_impl.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("t".to_owned(), Some("T".to_owned()), None),
                ("t".to_owned(), Some("S".to_owned()), Some("T".to_owned())),
                ("go".to_owned(), Some("S".to_owned()), None),
            ]
        );
        assert_eq!(f.traits_defined, vec!["T"]);
    }

    #[test]
    fn inline_mods_extend_module_path() {
        let src = "mod inner { pub fn f() {} }\n";
        let f = parse("crates/net/src/routing/mod.rs", src);
        assert_eq!(f.fns[0].module, vec!["routing", "inner"]);
    }

    #[test]
    fn sinks_harvested() {
        let src = "fn f(buf: &[u8]) -> u8 {\n\
                   let t = Instant::now();\n\
                   let r = thread_rng();\n\
                   x.unwrap(); panic!(\"boom\");\n\
                   let b = Box::new(1); let v = Vec::new(); let s = y.to_string();\n\
                   let g = LOCKS.lock().unwrap();\n\
                   buf[0]\n\
                   }\n";
        let f = parse("crates/net/src/x.rs", src);
        use SinkKind::*;
        assert_eq!(
            kinds(&f.fns[0].sinks),
            vec![
                (WallClock, "Instant"),
                (Entropy, "thread_rng"),
                (Panic, ".unwrap()"),
                (Panic, "panic!"),
                (Alloc, "Box::new"),
                (VecNew, "Vec::new"),
                (Alloc, ".to_string()"),
                (CapsRef, "LOCKS"),
                (Lock, ".lock()"),
                (Panic, ".unwrap()"),
                (Index, "buf[..]"),
            ]
        );
        assert!(f.sinks.is_empty());
    }

    #[test]
    fn allocating_macros_constructors_and_methods_are_sinks() {
        let src = "fn f(s: &str, b: &[u8]) {\n\
                   let v = vec![1u8; 4];\n\
                   let m = format!(\"{s}\");\n\
                   let a = Arc::new(1); let r = Rc::new(2);\n\
                   let o = s.to_owned(); let w = b.to_vec();\n\
                   }\n";
        let f = parse("crates/kernel/src/x.rs", src);
        use SinkKind::Alloc;
        assert_eq!(
            kinds(&f.fns[0].sinks),
            vec![
                (Alloc, "vec!"),
                (Alloc, "format!"),
                (Alloc, "Arc::new"),
                (Alloc, "Rc::new"),
                (Alloc, ".to_owned()"),
                (Alloc, ".to_vec()"),
            ]
        );
        // A name that only looks like one is not: a `vec` binding
        // compared with `!=`, `format_args!`, `to_vec_in`, a path to a
        // module named `vec`.
        let near = "fn g(vec: u8, format: u8) -> bool { let _ = format_args!(\"x\"); \
                    x.to_vec_in(y); std::vec::from_elem(0, 1); vec != format }\n";
        let g = parse("crates/kernel/src/x.rs", near);
        assert!(g.fns[0].sinks.is_empty(), "{:?}", g.fns[0].sinks);
    }

    #[test]
    fn near_misses_are_not_sinks() {
        // `unwrap_or` is not `unwrap`, `to_string_lossy` is not
        // `.to_string()`, and a comment or string is never a sink.
        let src = "fn f(p: &Path) { x.unwrap_or(0); y.unwrap_or_else(|| 1); z.expect_err(\"e\"); \
                   p.to_string_lossy(); // Instant::now()\n let s = \"x.unwrap()\"; }\n";
        let f = parse("crates/kernel/src/x.rs", src);
        assert!(f.fns[0].sinks.is_empty(), "{:?}", f.fns[0].sinks);
    }

    #[test]
    fn sinks_outside_fn_bodies_belong_to_the_file() {
        let src = "use std::time::Instant;\nstruct P { last: Option<Instant> }\n\
                   fn f() -> Instant { Instant::now() }\n";
        let f = parse("crates/kernel/src/x.rs", src);
        let lines: Vec<u32> = f.sinks.iter().map(|s| s.line).collect();
        assert_eq!(lines, vec![1, 2, 3], "use line, field type, return type");
        assert_eq!(f.fns[0].sinks.len(), 1, "the body's own read");
        assert_eq!(f.fns[0].sinks[0].col, 21);
    }

    #[test]
    fn test_regions_and_allows_drop_sinks() {
        let src = "fn f() { x.unwrap(); } // lv-lint: allow(no-panic)\n\n\
                   fn g() { x.unwrap(); } // lv-lint: allow(determinism)\n\
                   #[cfg(test)]\nmod tests { use std::time::Instant; fn h() { x.unwrap(); } }\n";
        let f = parse("crates/kernel/src/x.rs", src);
        assert!(f.sinks.is_empty());
        let counts: Vec<usize> = f.fns.iter().map(|x| x.sinks.len()).collect();
        assert_eq!(
            counts,
            vec![0, 1, 0],
            "allowed, other rule's allow, test region"
        );
    }

    #[test]
    fn hash_iteration_by_method_and_for_loop() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S) { for k in s.m.keys() { use_it(k); } }\n\
                   fn g(m2: &HashMap<u32, u32>) { let _ = m2.len(); }\n\
                   fn h(s: &S) { for e in &s.m { use_it(e); } }\n";
        let f = parse("crates/testbed/src/x.rs", src);
        let iters: Vec<u32> = f
            .fns
            .iter()
            .flat_map(|x| &x.sinks)
            .filter(|s| s.kind == SinkKind::HashIter)
            .map(|s| s.line)
            .collect();
        assert_eq!(
            iters,
            vec![2, 4],
            "keyed access and `.len()` are not iteration"
        );
    }

    #[test]
    fn len_guard_suppresses_index_sink() {
        let src = "fn f(buf: &[u8]) -> u8 { if buf.len() < 2 { return 0; } buf[1] }\n";
        let f = parse("crates/net/src/x.rs", src);
        assert!(f.fns[0].sinks.is_empty());
        let src2 = "fn f(buf: &[u8]) -> u8 { buf[1] }\n";
        let f2 = parse("crates/net/src/x.rs", src2);
        assert_eq!(kinds(&f2.fns[0].sinks), vec![(SinkKind::Index, "buf[..]")]);
    }

    #[test]
    fn trial_caller_detected() {
        let src = "fn drive() { let r = TrialRunner::new(1, 4); let out = r.run(|t| t.index); }\n";
        let f = parse("crates/testbed/src/x.rs", src);
        assert!(f.fns[0].trial_caller);
        let plain = parse("crates/testbed/src/x.rs", "fn g() { r.run(1); }");
        assert!(!plain.fns[0].trial_caller);
    }

    #[test]
    fn use_trees_expand() {
        let src = "use std::collections::{BTreeMap, HashMap as HM};\nuse lv_net::routing::*;\n";
        let f = parse("crates/net/src/x.rs", src);
        let m: Vec<(String, Vec<String>)> = f
            .uses
            .iter()
            .map(|u| (u.local.clone(), u.path.clone()))
            .collect();
        assert!(m.contains(&(
            "BTreeMap".to_owned(),
            vec!["std".into(), "collections".into(), "BTreeMap".into()]
        )));
        assert!(m.contains(&(
            "HM".to_owned(),
            vec!["std".into(), "collections".into(), "HashMap".into()]
        )));
        assert!(m.contains(&("*".to_owned(), vec!["lv_net".into(), "routing".into()])));
    }

    #[test]
    fn statics_parsed() {
        let src = "static mut RAW: u32 = 0;\nstatic TABLE: Mutex<Vec<u32>> = Mutex::new(Vec::new());\nstatic OK: u32 = 1;\n";
        let f = parse("crates/net/src/x.rs", src);
        assert_eq!(f.statics.len(), 3);
        assert!(f.statics[0].mutable);
        assert!(f.statics[1].interior_mutable);
        assert!(!f.statics[2].mutable && !f.statics[2].interior_mutable);
    }

    #[test]
    fn test_fns_flagged() {
        let src = "#[cfg(test)]\nmod tests {\n fn helper() { x.unwrap(); }\n}\nfn real() {}\n";
        let f = parse("crates/net/src/x.rs", src);
        assert!(f.fns[0].is_test);
        assert!(!f.fns[1].is_test);
    }

    #[test]
    fn nested_fns_are_separate_items() {
        let src = "fn outer() {\n fn inner() { x.unwrap(); }\n inner();\n}\n";
        let f = parse("crates/net/src/x.rs", src);
        assert_eq!(f.fns.len(), 2);
        let inner = f.fns.iter().find(|x| x.name == "inner").unwrap();
        let outer = f.fns.iter().find(|x| x.name == "outer").unwrap();
        assert_eq!(inner.sinks.len(), 1);
        assert!(outer.sinks.is_empty());
        assert_eq!(outer.calls.len(), 1);
    }

    #[test]
    fn hot_tag_and_turbofish() {
        let src = "// lv-lint: hot\nfn f() { g::<u32>(); h.collect::<Vec<_>>(); }\n";
        let f = parse("crates/kernel/src/x.rs", src);
        assert!(f.fns[0].is_hot);
        let trailing = parse(
            "crates/kernel/src/x.rs",
            "fn f(x: u32) -> String { x.to_string() } // lv-lint: hot\n\nfn g() {}\n",
        );
        assert!(
            trailing.fns[0].is_hot,
            "a trailing tag marks its own line's fn"
        );
        assert!(!trailing.fns[1].is_hot);
        let names: Vec<&str> = f.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"g"));
        assert!(names.contains(&"collect"));
    }
}
