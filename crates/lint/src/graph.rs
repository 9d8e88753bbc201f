//! The workspace call graph.
//!
//! Built from [`crate::parse::ParsedFile`]s, entirely on `BTreeMap`s so
//! every iteration order — and therefore every finding order and every
//! DOT dump — is deterministic regardless of the order files were fed
//! in.
//!
//! ## Resolution policy
//!
//! The linter has no type information, so call edges are resolved by
//! name with crate-visibility discipline instead of by types:
//!
//! * **Path calls** (`foo(…)`, `a::b::foo(…)`) resolve to free
//!   functions and associated functions *within the caller's crate
//!   cone* — its own crate plus the transitive closure of its
//!   `Cargo.toml` dependencies. A qualified call's last qualifier must
//!   match the owner type, the module, or the crate of the candidate.
//! * **Method calls** (`recv.m(…)`) resolve to methods named `m` in
//!   the caller's cone, **plus** trait-impl methods in *any* crate
//!   whose trait is defined in a visible crate. The extension captures
//!   dynamic dispatch — the kernel invoking `Process` impls that live
//!   downstream in `core` — without fabricating edges into crates the
//!   caller cannot even name (e.g. kernel's `mac.send(…)` never
//!   resolves to `serve`'s `UdpTransport::send`, because `Transport`
//!   is invisible from `kernel`... and so is `serve` itself).
//!
//! This over-approximates within the cone (any same-named method is an
//! edge) and under-approximates across cones (function pointers,
//! closures passed downstream). Both biases are the right direction
//! for the rules built on top: reach checks want high recall inside
//! the deterministic core, and the trial-body source handles the one
//! closure boundary that matters ([`crate::parse::FnItem::trial_caller`]).

use crate::parse::{CallKind, FnItem, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};

/// Stable identifier of a function node: index into [`Graph::fns`].
pub type FnId = usize;

/// The assembled workspace: all parsed files plus the call graph.
pub struct Graph {
    /// Every non-test function in the workspace, sorted by
    /// `(crate, path, line)` — the node table.
    pub fns: Vec<FnNode>,
    /// Forward edges: caller → sorted callee ids.
    pub calls: Vec<Vec<FnId>>,
    /// Forward edges excluding dynamic dispatch (method calls resolved
    /// to trait-impl methods). Rules that model a *lexical* region —
    /// like the hot path — stop at the dispatch boundary; rules that
    /// model taint follow `calls`.
    pub static_calls: Vec<Vec<FnId>>,
    /// Crate key → transitive dependency cone (including itself).
    pub cones: BTreeMap<String, BTreeSet<String>>,
}

/// Method names shadowed by the std collection/iterator vocabulary.
/// An unqualified `.push(…)` in kernel code is a `Vec` push, not a
/// call into some crate's `push` method; resolving these by bare name
/// would wire the graph together with noise edges. Methods with these
/// names are only reachable through qualified path calls
/// (`Type::push(…)`), never through method-call syntax.
const STD_SHADOWED_METHODS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "clear",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "extend",
    "drain",
    "retain",
    "entry",
    "append",
    "truncate",
    "sort",
    "sort_by",
    "split_at",
    "join",
    "take",
    "replace",
    "swap",
    "fill",
    "resize",
    "last",
    "first",
    "min",
    "max",
    "count",
    "sum",
    "keys",
    "values",
    "write",
    "flush",
    "read",
    "cmp",
    "eq",
    "hash",
    "fmt",
    "default",
    "from",
    "into",
    "new",
    "as_ref",
    "as_mut",
    "to_owned",
    "borrow",
    "drop",
    "min_by",
    "max_by",
    "rev",
    "clamp",
    "abs",
];

/// One function node (owns the parsed item plus its file coordinates).
pub struct FnNode {
    /// The parsed function.
    pub item: FnItem,
    /// Crate key of the defining file.
    pub crate_key: String,
    /// Repo-relative path of the defining file.
    pub path: String,
}

impl FnNode {
    /// `crate::module::Owner::name` display form.
    pub fn pretty(&self) -> String {
        self.item.pretty(&self.crate_key)
    }
}

/// Compute, for every crate, the transitive closure of its
/// dependencies (including the crate itself). `deps` maps crate key →
/// direct dependency keys.
fn cones(deps: &BTreeMap<String, Vec<String>>) -> BTreeMap<String, BTreeSet<String>> {
    let mut out = BTreeMap::new();
    for key in deps.keys() {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut stack = vec![key.clone()];
        while let Some(k) = stack.pop() {
            if !seen.insert(k.clone()) {
                continue;
            }
            if let Some(ds) = deps.get(&k) {
                stack.extend(ds.iter().cloned());
            }
        }
        out.insert(key.clone(), seen);
    }
    out
}

impl Graph {
    /// Build the graph from parsed files and the crate dependency map
    /// (crate key → direct dependency crate keys). Files may arrive in
    /// any order; the result is identical.
    pub fn build(mut files: Vec<ParsedFile>, deps: &BTreeMap<String, Vec<String>>) -> Graph {
        files.sort_by(|a, b| a.path.cmp(&b.path));

        let mut cones = cones(deps);
        // Traits defined per crate (for the dynamic-dispatch extension).
        let mut trait_home: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for f in &files {
            for t in &f.traits_defined {
                trait_home
                    .entry(t.clone())
                    .or_default()
                    .insert(f.crate_key.clone());
            }
        }

        // Node table: non-test fns, in (crate, path, line) order.
        let mut fns: Vec<FnNode> = Vec::new();
        for f in &files {
            cones
                .entry(f.crate_key.clone())
                .or_insert_with(|| BTreeSet::from([f.crate_key.clone()]));
            for item in &f.fns {
                if item.is_test {
                    continue;
                }
                fns.push(FnNode {
                    item: item.clone(),
                    crate_key: f.crate_key.clone(),
                    path: f.path.clone(),
                });
            }
        }
        fns.sort_by(|a, b| {
            (&a.crate_key, &a.path, a.item.line).cmp(&(&b.crate_key, &b.path, b.item.line))
        });

        // Name indexes. Method index additionally records the trait a
        // method implements (if any) for the dispatch extension.
        let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        for (id, n) in fns.iter().enumerate() {
            by_name.entry(n.item.name.as_str()).or_default().push(id);
        }

        let empty = BTreeSet::new();
        let mut calls: Vec<Vec<FnId>> = vec![Vec::new(); fns.len()];
        let mut static_calls: Vec<Vec<FnId>> = vec![Vec::new(); fns.len()];
        for (id, n) in fns.iter().enumerate() {
            let cone = cones.get(&n.crate_key).unwrap_or(&empty);
            let mut out: BTreeSet<FnId> = BTreeSet::new();
            let mut out_static: BTreeSet<FnId> = BTreeSet::new();
            for c in &n.item.calls {
                if matches!(c.kind, CallKind::Method)
                    && STD_SHADOWED_METHODS.contains(&c.name.as_str())
                {
                    continue;
                }
                let Some(cands) = by_name.get(c.name.as_str()) else {
                    continue;
                };
                for &cand in cands {
                    if cand == id {
                        continue;
                    }
                    let t = &fns[cand];
                    let in_cone = cone.contains(&t.crate_key);
                    // `is_dyn`: resolved through the trait-dispatch
                    // extension or onto a trait impl — the callee runs
                    // behind a vtable-shaped boundary.
                    let (visible, is_dyn) = match &c.kind {
                        CallKind::Path { quals } => (in_cone && qualifier_matches(quals, t), false),
                        CallKind::Method => {
                            // Methods only (owner present); free fns
                            // are never method-call targets.
                            let vis = t.item.owner.is_some()
                                && (in_cone
                                    || t.item.trait_impl.as_ref().is_some_and(|tr| {
                                        trait_home.get(tr).is_some_and(|homes| {
                                            homes.iter().any(|h| cone.contains(h))
                                        })
                                    }));
                            (vis, t.item.trait_impl.is_some())
                        }
                    };
                    if visible {
                        out.insert(cand);
                        if !is_dyn {
                            out_static.insert(cand);
                        }
                    }
                }
            }
            calls[id] = out.into_iter().collect();
            static_calls[id] = out_static.into_iter().collect();
        }

        Graph {
            fns,
            calls,
            static_calls,
            cones,
        }
    }

    /// BFS forward from `roots`, returning for every reached node the
    /// id of the node it was first reached *from* (roots map to
    /// themselves). Deterministic: roots are processed sorted, and
    /// edges are stored sorted.
    pub fn reach_forward(&self, roots: &[FnId]) -> BTreeMap<FnId, FnId> {
        self.reach(roots, &self.calls)
    }

    /// BFS forward following only static edges — stops at dynamic
    /// dispatch boundaries (see [`Graph::static_calls`]).
    pub fn reach_forward_static(&self, roots: &[FnId]) -> BTreeMap<FnId, FnId> {
        self.reach(roots, &self.static_calls)
    }

    fn reach(&self, roots: &[FnId], edges: &[Vec<FnId>]) -> BTreeMap<FnId, FnId> {
        let mut parent: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<FnId> = std::collections::VecDeque::new();
        let mut sorted_roots: Vec<FnId> = roots.to_vec();
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        for &r in &sorted_roots {
            parent.insert(r, r);
            queue.push_back(r);
        }
        while let Some(n) = queue.pop_front() {
            for &m in &edges[n] {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(m) {
                    e.insert(n);
                    queue.push_back(m);
                }
            }
        }
        parent
    }

    /// Reconstruct the path from a root to `node` using the parent map
    /// returned by [`Graph::reach_forward`] /
    /// [`Graph::reach_forward_static`] — root first, `node` last.
    pub fn chain_to(&self, parent: &BTreeMap<FnId, FnId>, node: FnId) -> Vec<FnId> {
        let mut chain = vec![node];
        let mut cur = node;
        while let Some(&p) = parent.get(&cur) {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }

    /// Ids of nodes selected by a predicate, in node order.
    pub fn select(&self, pred: impl Fn(&FnNode) -> bool) -> Vec<FnId> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, n)| pred(n))
            .map(|(id, _)| id)
            .collect()
    }

    /// Render the graph in Graphviz DOT form: one node per function
    /// (labelled `crate::module::Owner::fn`), one edge per resolved
    /// call, clustered by crate. Deterministic output.
    pub fn to_dot(&self) -> String {
        let mut s =
            String::from("digraph lv_calls {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n");
        let mut by_crate: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        for (id, n) in self.fns.iter().enumerate() {
            by_crate.entry(n.crate_key.as_str()).or_default().push(id);
        }
        for (ck, ids) in &by_crate {
            s.push_str(&format!(
                "  subgraph \"cluster_{ck}\" {{\n    label=\"{ck}\";\n"
            ));
            for &id in ids {
                s.push_str(&format!(
                    "    n{id} [label=\"{}\"];\n",
                    self.fns[id].pretty()
                ));
            }
            s.push_str("  }\n");
        }
        for (caller, outs) in self.calls.iter().enumerate() {
            for &callee in outs {
                s.push_str(&format!("  n{caller} -> n{callee};\n"));
            }
        }
        s.push_str("}\n");
        s
    }
}

/// Does a path call's qualifier list plausibly name this target? An
/// unqualified call matches free functions only (method-call syntax
/// would be needed otherwise); `T::f(…)` matches an associated fn whose
/// owner (or trait), module, or crate is `T` (after `lv_x`/`liteview` →
/// key normalization).
fn qualifier_matches(quals: &[String], target: &FnNode) -> bool {
    let Some(last) = quals.last() else {
        return target.item.owner.is_none();
    };
    if last == "self" || last == "crate" || last == "super" {
        // `self::f()` names a free fn in the caller's module family.
        return target.item.owner.is_none();
    }
    let as_key = crate_key_of_pkg(last);
    if let Some(owner) = &target.item.owner {
        if owner == last {
            return true;
        }
        if let Some(tr) = &target.item.trait_impl {
            if tr == last {
                return true;
            }
        }
        // `Type::method` via qualifier only; module/crate qualifiers
        // do not reach into impl blocks' methods without the type name.
        false
    } else {
        target.item.module.iter().any(|m| m == last) || target.crate_key == as_key
    }
}

/// Normalize a code-level crate name to its directory key:
/// `lv_net`/`lv-net` → `net`, `liteview` → `core`, anything else
/// unchanged.
pub fn crate_key_of_pkg(name: &str) -> String {
    let n = name.replace('-', "_");
    if n == "liteview" {
        return "core".to_owned();
    }
    n.strip_prefix("lv_").unwrap_or(&n).to_owned()
}

/// Parse the `[dependencies]` section of a `Cargo.toml`, returning the
/// dependency names normalized to crate keys. Tolerant line-based
/// parsing: `name.workspace = true`, `name = { … }`, `name = "1.0"`.
pub fn parse_manifest_deps(toml: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for raw in toml.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let name = line
            .split(['=', '.', ' '])
            .next()
            .unwrap_or("")
            .trim()
            .trim_matches('"');
        if !name.is_empty() {
            out.push(crate_key_of_pkg(name));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::rules::FileContext;

    fn parsed(path: &str, src: &str) -> ParsedFile {
        parse_file(&FileContext::new(path, src))
    }

    fn deps(pairs: &[(&str, &[&str])]) -> BTreeMap<String, Vec<String>> {
        pairs
            .iter()
            .map(|(k, ds)| {
                (
                    (*k).to_owned(),
                    ds.iter().map(|s| (*s).to_owned()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn manifest_deps_parse() {
        let toml = "[package]\nname = \"lv-kernel\"\n[dependencies]\nlv-sim.workspace = true\n\
                    liteview.workspace = true\nserde.workspace = true\n[dev-dependencies]\nproptest.workspace = true\n";
        assert_eq!(parse_manifest_deps(toml), vec!["sim", "core", "serde"]);
    }

    #[test]
    fn free_calls_resolve_within_cone_only() {
        let a = parsed(
            "crates/kernel/src/lib.rs",
            "pub fn caller() { helper(); }\n",
        );
        let b = parsed("crates/sim/src/lib.rs", "pub fn helper() {}\n");
        let c = parsed("crates/serve/src/lib.rs", "pub fn helper() {}\n");
        let g = Graph::build(
            vec![a, b, c],
            &deps(&[("kernel", &["sim"]), ("sim", &[]), ("serve", &["kernel"])]),
        );
        let caller = g.select(|n| n.item.name == "caller")[0];
        let targets: Vec<&str> = g.calls[caller]
            .iter()
            .map(|&id| g.fns[id].crate_key.as_str())
            .collect();
        assert_eq!(targets, vec!["sim"], "kernel must not see serve's helper");
    }

    #[test]
    fn method_calls_reach_trait_impls_via_trait_home() {
        // kernel defines trait Process and calls p.poll(); core (which
        // kernel cannot see) implements Process for PingApp. The edge
        // must exist because the *trait* lives in kernel's cone.
        let k = parsed(
            "crates/kernel/src/lib.rs",
            "pub trait Process { fn poll(&mut self); }\n\
             pub fn step(p: &mut dyn Process) { p.poll(); }\n",
        );
        let c = parsed(
            "crates/core/src/lib.rs",
            "pub struct PingApp;\nimpl Process for PingApp { fn poll(&mut self) { work(); } }\n\
             fn work() {}\n",
        );
        // serve implements an unrelated trait also named elsewhere; a
        // same-named inherent method in an invisible crate must NOT link.
        let s = parsed(
            "crates/serve/src/lib.rs",
            "pub struct Udp;\nimpl Udp { pub fn poll(&mut self) {} }\n",
        );
        let g = Graph::build(
            vec![k, c, s],
            &deps(&[
                ("kernel", &[]),
                ("core", &["kernel"]),
                ("serve", &["core", "kernel"]),
            ]),
        );
        let step = g.select(|n| n.item.name == "step")[0];
        let mut targets: Vec<String> = g.calls[step].iter().map(|&id| g.fns[id].pretty()).collect();
        targets.sort();
        assert_eq!(
            targets,
            vec!["core::PingApp::poll", "kernel::Process::poll"],
            "dyn dispatch reaches the impl; serve's inherent poll stays invisible"
        );
    }

    #[test]
    fn qualified_calls_respect_owner() {
        let a = parsed(
            "crates/net/src/lib.rs",
            "pub struct P;\nimpl P { pub fn decode() {} }\n\
             pub struct Q;\nimpl Q { pub fn decode() {} }\n\
             pub fn go() { P::decode(); }\n",
        );
        let g = Graph::build(vec![a], &deps(&[("net", &[])]));
        let go = g.select(|n| n.item.name == "go")[0];
        let targets: Vec<String> = g.calls[go].iter().map(|&id| g.fns[id].pretty()).collect();
        assert_eq!(targets, vec!["net::P::decode"]);
    }

    #[test]
    fn build_is_deterministic_under_file_order() {
        let srcs = [
            ("crates/net/src/a.rs", "pub fn f1() { f2(); }\n"),
            ("crates/net/src/b.rs", "pub fn f2() { f3(); }\n"),
            ("crates/net/src/c.rs", "pub fn f3() {}\n"),
        ];
        let d = deps(&[("net", &[])]);
        let fwd: Vec<ParsedFile> = srcs.iter().map(|(p, s)| parsed(p, s)).collect();
        let rev: Vec<ParsedFile> = srcs.iter().rev().map(|(p, s)| parsed(p, s)).collect();
        let g1 = Graph::build(fwd, &d);
        let g2 = Graph::build(rev, &d);
        assert_eq!(g1.to_dot(), g2.to_dot());
    }

    #[test]
    fn reachability_chains_reconstruct() {
        let a = parsed(
            "crates/net/src/lib.rs",
            "pub fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\n",
        );
        let g = Graph::build(vec![a], &deps(&[("net", &[])]));
        let root = g.select(|n| n.item.name == "root")[0];
        let leaf = g.select(|n| n.item.name == "leaf")[0];
        let parent = g.reach_forward(&[root]);
        assert!(parent.contains_key(&leaf));
        let chain: Vec<String> = g
            .chain_to(&parent, leaf)
            .into_iter()
            .map(|id| g.fns[id].item.name.clone())
            .collect();
        assert_eq!(chain, vec!["root", "mid", "leaf"]);
    }

    #[test]
    fn test_fns_stay_out_of_the_graph() {
        let a = parsed(
            "crates/net/src/lib.rs",
            "pub fn real() {}\n#[cfg(test)]\nmod tests { fn helper() { real(); } }\n",
        );
        let g = Graph::build(vec![a], &deps(&[("net", &[])]));
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].item.name, "real");
    }
}
