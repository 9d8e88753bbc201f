//! The reach rules: one routine walks the call graph for four hazard
//! classes.
//!
//! Each row of the class table names a rule, its roots and the edges
//! its walk follows; the rule's row in [`crate::config::RULES`] gives
//! its sink kinds and where each counts. A sink
//! ([`crate::parse::Sink`]) is reported at most once, under the rule
//! that owns its kind:
//!
//! * with its call chain, when a root reaches its fn through the
//!   class's edges and its crate is in the rule's scope — depth 0 is
//!   the root's own body;
//! * with no chain, when its crate is in the kind's no-root scope —
//!   which is how the sim-path crates ban a wall-clock read, or kernel
//!   and radio a `.unwrap()`, whoever calls it, and how file-level
//!   sinks (a `use` line, a field type) are reported at all.
//!
//! Allow directives and test regions are applied once, when the parser
//! harvests the sinks; test functions never enter the graph.

use crate::config::{rule, scope_of};
use crate::graph::{FnId, FnNode, Graph};
use crate::parse::{ParsedFile, Sink, SinkKind};
use crate::rules::{sort_findings, ChainHop, Finding};
use std::collections::BTreeMap;

/// One hazard class: where a reach rule's walk starts and which edges
/// it follows.
pub(crate) struct Class {
    /// Rule name.
    pub(crate) rule: &'static str,
    /// Roots: the walk starts at these, and a root's own body counts.
    roots: fn(&FnNode) -> bool,
    /// Drivers: the walk starts at these too, but only their callees
    /// count — a driver's own body is not inside the hazard region.
    drivers: fn(&FnNode) -> bool,
    /// The walk: [`Graph::reach_forward`] follows every edge,
    /// [`Graph::reach_forward_static`] stops at dyn dispatch.
    walk: fn(&Graph, &[FnId]) -> BTreeMap<FnId, FnId>,
}

/// The four reach rules, in reporting order.
pub(crate) const CLASSES: &[Class] = &[
    // A trial *driver* may time the whole run with `Instant` around
    // `TrialRunner::run`; only its callees are inside trial bodies.
    // Event-loop roots get no such carve-out.
    Class {
        rule: "determinism",
        roots: is_event_loop,
        drivers: |n| n.item.trial_caller,
        walk: Graph::reach_forward,
    },
    // The roots are the pub fns of the rule's own crates.
    Class {
        rule: "no-panic",
        roots: |n| n.item.is_pub && scope_of("no-panic").contains(&n.crate_key),
        drivers: |_| false,
        walk: Graph::reach_forward,
    },
    // Crossing a dyn-dispatch boundary hands control to a process, which
    // owns its own allocation budget: the hot region is the static call
    // tree.
    Class {
        rule: "hot-path-alloc",
        roots: |n| n.item.is_hot,
        drivers: |_| false,
        walk: Graph::reach_forward_static,
    },
    Class {
        rule: "shard-readiness",
        roots: is_event_loop,
        drivers: |_| false,
        walk: Graph::reach_forward,
    },
];

/// Event-loop roots: the kernel scheduler entry points and the radio
/// medium assessment (both define what "inside a simulated event"
/// means).
fn is_event_loop(n: &FnNode) -> bool {
    (n.crate_key == "kernel"
        && n.item.owner.as_deref() == Some("Network")
        && matches!(n.item.name.as_str(), "run_until" | "run_for" | "dispatch"))
        || (n.crate_key == "radio"
            && n.item.owner.as_deref() == Some("Medium")
            && n.item.name.starts_with("assess"))
}

/// The analysis context: the call graph plus the sinks outside every
/// fn and the hazardous statics.
pub struct Analysis {
    /// The workspace call graph.
    pub graph: Graph,
    /// Sinks outside every fn body, as `(path, crate key, sink)`.
    file_sinks: Vec<(String, String, Sink)>,
    /// Hazardous statics: name → (path, line, why).
    hazard_statics: BTreeMap<String, (String, u32, &'static str)>,
}

impl Analysis {
    /// Build the graph and side tables from parsed files plus the
    /// crate dependency map (crate key → direct dependency keys).
    pub fn new(files: Vec<ParsedFile>, deps: &BTreeMap<String, Vec<String>>) -> Analysis {
        let mut file_sinks = Vec::new();
        let mut hazard_statics = BTreeMap::new();
        for f in &files {
            for sink in &f.sinks {
                file_sinks.push((f.path.clone(), f.crate_key.clone(), sink.clone()));
            }
            for s in f.statics.iter().filter(|s| !s.is_test) {
                let why = if s.mutable {
                    "`static mut`"
                } else if s.interior_mutable {
                    "interior-mutable static"
                } else {
                    continue;
                };
                hazard_statics.insert(s.name.clone(), (f.path.clone(), s.line, why));
            }
        }
        Analysis {
            graph: Graph::build(files, deps),
            file_sinks,
            hazard_statics,
        }
    }

    /// Run the four reach rules, returning findings sorted by
    /// `(path, line, col, rule)`.
    pub fn run_rules(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for class in CLASSES {
            self.report(class, &mut out);
        }
        sort_findings(&mut out);
        out
    }

    /// Walk one class from its roots and report each of its sinks once.
    fn report(&self, class: &Class, out: &mut Vec<Finding>) {
        let Some(policy) = rule(class.rule) else {
            return;
        };
        let kind_of = |kind| policy.sinks.iter().find(|s| s.0 == kind);
        let roots = self
            .graph
            .select(|n| (class.roots)(n) || (class.drivers)(n));
        let parent = (class.walk)(&self.graph, &roots);
        for (id, n) in self.graph.fns.iter().enumerate() {
            let in_region = parent.contains_key(&id)
                && policy.crates.contains(&n.crate_key)
                && ((class.roots)(n) || !(class.drivers)(n));
            let mut memo = None;
            for sink in &n.item.sinks {
                let Some(&(_, unrooted, below_root)) = kind_of(sink.kind) else {
                    continue;
                };
                let chain = in_region
                    .then(|| memo.get_or_insert_with(|| self.chain(&parent, id)))
                    .filter(|c| below_root || c.len() == 1);
                if chain.is_some() || unrooted.contains(&n.crate_key) {
                    self.push(out, class.rule, &n.path, sink, chain.cloned());
                }
            }
        }
        for (path, key, sink) in &self.file_sinks {
            if kind_of(sink.kind).is_some_and(|s| s.1.contains(key)) {
                self.push(out, class.rule, path, sink, None);
            }
        }
    }

    /// Build the chain evidence for a node first reached via `parent`.
    fn chain(&self, parent: &BTreeMap<FnId, FnId>, node: FnId) -> Vec<ChainHop> {
        self.graph
            .chain_to(parent, node)
            .into_iter()
            .map(|id| {
                let n = &self.graph.fns[id];
                ChainHop {
                    func: n.pretty(),
                    path: n.path.clone(),
                    line: n.item.line,
                }
            })
            .collect()
    }

    /// Report `sink` under `rule`, with its chain when a root reaches
    /// it. A capitals reference that names no hazardous static is not a
    /// hazard and reports nothing.
    fn push(
        &self,
        out: &mut Vec<Finding>,
        rule: &'static str,
        path: &str,
        sink: &Sink,
        chain: Option<Vec<ChainHop>>,
    ) {
        let what = &sink.what;
        let hazard = match sink.kind {
            SinkKind::WallClock => {
                format!("`{what}` is a wall-clock read; simulation paths must use SimTime")
            }
            SinkKind::Entropy => format!(
                "`{what}` draws OS entropy; simulation paths must use the seeded SimRng streams"
            ),
            SinkKind::HashIter => format!(
                "iterating hash-backed `{what}` leaks hasher order; sort first or use a BTreeMap"
            ),
            SinkKind::Panic => format!(
                "`{what}` can abort a node or a session; return a typed error or route \
                 through an anomaly counter"
            ),
            SinkKind::Index => format!(
                "`{what}` indexes a byte slice the body never bound-checks; guard the access"
            ),
            SinkKind::Alloc | SinkKind::VecNew => format!(
                "`{what}` allocates on a `// lv-lint: hot` path; use the event arena or an \
                 inline buffer, or hoist the allocation out of the per-event path"
            ),
            SinkKind::Lock => format!(
                "`{what}` acquires a lock in event-loop-reachable code; a trial sharded across \
                 cores by per-shard event queues cannot tolerate cross-shard blocking here"
            ),
            SinkKind::CapsRef => {
                let Some((decl_path, decl_line, why)) = self.hazard_statics.get(what) else {
                    return;
                };
                format!(
                    "`{what}` ({why}, declared {decl_path}:{decl_line}) is shared mutable state \
                     in event-loop-reachable code; shard-local state must be owned by the shard"
                )
            }
        };
        let chain = chain.unwrap_or_default();
        let message = match chain.first() {
            Some(root) => format!(
                "{hazard} — reached from `{}` in {} hop{}",
                root.func,
                chain.len() - 1,
                if chain.len() == 2 { "" } else { "s" }
            ),
            None => hazard,
        };
        out.push(Finding {
            rule,
            path: path.to_owned(),
            line: sink.line,
            col: sink.col,
            message,
            snippet: sink.snippet.clone(),
            chain,
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::Finding;
    use std::collections::BTreeMap;

    /// Lint `files` as one workspace with `deps` as the crate map.
    fn analyze(files: &[(&str, &str)], deps: &[(&str, &[&str])]) -> Vec<Finding> {
        let deps: BTreeMap<String, Vec<String>> = deps
            .iter()
            .map(|(k, ds)| (k.to_string(), ds.iter().map(|d| d.to_string()).collect()))
            .collect();
        crate::lint_sources(files, &deps)
    }

    fn hits<'f>(findings: &'f [Finding], rule: &str) -> Vec<&'f Finding> {
        findings.iter().filter(|f| f.rule == rule).collect()
    }

    fn funcs(f: &Finding) -> Vec<&str> {
        f.chain.iter().map(|h| h.func.as_str()).collect()
    }

    #[test]
    fn determinism_crosses_into_harness_code() {
        let findings = analyze(
            &[(
                "crates/testbed/src/drive.rs",
                "pub fn drive() { let r = TrialRunner::new(1, 4); r.run(|t| body(t)); }\n\
                     fn body(t: u32) -> u32 { stamp(); t }\n\
                     fn stamp() { let _ = Instant::now(); }\n\
                     fn unreached() { let _ = Instant::now(); }\n",
            )],
            &[("testbed", &[])],
        );
        let taint = hits(&findings, "determinism");
        assert_eq!(
            taint.len(),
            1,
            "testbed reads are legal off the reach: {findings:?}"
        );
        assert_eq!(taint[0].line, 3);
        assert!(taint[0].message.contains("wall-clock"));
        assert_eq!(
            funcs(taint[0]),
            vec![
                "testbed::drive::drive",
                "testbed::drive::body",
                "testbed::drive::stamp"
            ],
            "full chain from trial driver to sink"
        );
    }

    #[test]
    fn trial_driver_may_time_the_whole_run() {
        // `Instant` around `TrialRunner::run` in the driver itself is
        // benchmark timing, not trial-body taint.
        let findings = analyze(
            &[(
                "crates/testbed/src/drive.rs",
                "pub fn drive() { let t0 = Instant::now(); let r = TrialRunner::new(1, 4); \
                 r.run(|t| t); let _ = t0.elapsed(); }\n",
            )],
            &[("testbed", &[])],
        );
        assert!(hits(&findings, "determinism").is_empty(), "{findings:?}");
    }

    #[test]
    fn event_loop_roots_have_no_driver_carve_out() {
        let findings = analyze(
            &[(
                "crates/kernel/src/lib.rs",
                "pub struct Network;\n\
                 impl Network { pub fn run_until(&mut self) { let r = TrialRunner::new(1, 4); \
                 r.run(|t| t); let _ = Instant::now(); } }\n",
            )],
            &[("kernel", &[])],
        );
        let taint = hits(&findings, "determinism");
        assert_eq!(taint.len(), 1, "{findings:?}");
        assert_eq!(funcs(taint[0]), vec!["kernel::Network::run_until"]);
    }

    #[test]
    fn no_panic_crosses_crates_with_chain() {
        let findings = analyze(
            &[
                (
                    "crates/core/src/lib.rs",
                    "pub struct Workstation;\nimpl Workstation { pub fn exec(&mut self) { helper(); } }\n\
                     fn helper() { lv_net::decode(); }\n",
                ),
                (
                    "crates/net/src/lib.rs",
                    "pub fn decode() { inner(); }\nfn inner(x: Option<u32>) { x.unwrap(); }\n",
                ),
            ],
            &[("core", &["net"]), ("net", &[])],
        );
        let panics = hits(&findings, "no-panic");
        assert_eq!(panics.len(), 1, "one site, one finding: {findings:?}");
        assert!(panics[0].path.ends_with("crates/net/src/lib.rs"));
        assert!(panics[0].message.contains(".unwrap()"));
        assert!(panics[0].chain.len() >= 2, "{:?}", panics[0]);
    }

    #[test]
    fn unguarded_index_in_byte_parser_is_a_sink() {
        let findings = analyze(
            &[(
                "crates/net/src/lib.rs",
                "pub fn decode(buf: &[u8]) -> u8 { buf[0] }\n\
                 pub fn safe(buf: &[u8]) -> u8 { if buf.len() < 1 { return 0; } buf[0] }\n",
            )],
            &[("net", &[])],
        );
        let lines: Vec<u32> = hits(&findings, "no-panic").iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1], "unguarded flagged, guarded exempt");
    }

    #[test]
    fn hot_path_alloc_in_tagged_body_and_static_callees() {
        let findings = analyze(
            &[(
                "crates/kernel/src/lib.rs",
                "// lv-lint: hot\nfn on_rx() { let v = Vec::new(); build(); }\n\
                 fn build() { let v = Box::new(1u8); let z: Vec<u8> = Vec::new(); }\n\
                 fn cold() { let b = Box::new(1); let v = Vec::new(); }\n",
            )],
            &[("kernel", &[])],
        );
        let allocs: Vec<(u32, &str)> = hits(&findings, "hot-path-alloc")
            .iter()
            .map(|f| (f.line, f.snippet.as_str()))
            .collect();
        assert_eq!(allocs.len(), 2, "{findings:?}");
        assert_eq!(allocs[0].0, 2, "Vec::new in the tagged body itself");
        assert_eq!(
            allocs[1].0, 3,
            "Box::new in a callee; its Vec::new is exempt"
        );
        assert!(hits(&findings, "hot-path-alloc")[1]
            .message
            .contains("Box::new"));
    }

    #[test]
    fn hot_path_alloc_allow_and_tests_exempt() {
        let allowed =
            "// lv-lint: hot\nfn f() { let v = Vec::new(); // lv-lint: allow(hot-path-alloc)\n}\n";
        assert!(analyze(&[("crates/kernel/src/x.rs", allowed)], &[]).is_empty());
        let test_region =
            "#[cfg(test)]\nmod tests {\n    // lv-lint: hot\n    fn f() { let v = Vec::new(); }\n}\n";
        assert!(analyze(&[("crates/kernel/src/x.rs", test_region)], &[]).is_empty());
    }

    #[test]
    fn hot_path_alloc_stops_at_dyn_dispatch() {
        let findings = analyze(
            &[(
                "crates/kernel/src/lib.rs",
                "pub trait Process { fn poll(&mut self); }\n\
                 // lv-lint: hot\nfn step(p: &mut dyn Process) { p.poll(); }\n\
                 struct App;\nimpl Process for App { fn poll(&mut self) { let _ = 1.to_string(); } }\n",
            )],
            &[("kernel", &[])],
        );
        assert!(hits(&findings, "hot-path-alloc").is_empty(), "{findings:?}");
    }

    #[test]
    fn shard_readiness_flags_locks_and_statics() {
        let findings = analyze(
            &[
                (
                    "crates/kernel/src/lib.rs",
                    "pub struct Network;\nimpl Network { pub fn dispatch(&mut self) { tick(); } }\n\
                     fn tick() { let _g = QUEUE.lock(); let _n = COUNT; let _k = LIMIT; }\n",
                ),
                (
                    "crates/sim/src/lib.rs",
                    "static QUEUE: Mutex<u32> = Mutex::new(0);\nstatic mut COUNT: u32 = 0;\n\
                     static LIMIT: u32 = 4;\n",
                ),
            ],
            &[("kernel", &["sim"]), ("sim", &[])],
        );
        let msgs: Vec<&str> = hits(&findings, "shard-readiness")
            .iter()
            .map(|f| f.message.as_str())
            .collect();
        assert_eq!(msgs.len(), 3, "{findings:?}");
        assert!(msgs.iter().any(|m| m.contains(".lock()")));
        assert!(msgs.iter().any(|m| m.contains("static mut")));
        assert!(msgs.iter().any(|m| m.contains("interior-mutable")));
    }

    #[test]
    fn allow_directive_suppresses_each_reach_rule() {
        // One specimen per rule, each silenced by its own allow.
        let findings = analyze(
            &[
                (
                    "crates/testbed/src/a.rs",
                    "fn drive() { let r = TrialRunner::new(1, 4); r.run(|t| body(t)); }\n\
                     fn body(t: u32) -> u32 { // lv-lint: allow(determinism)\n\
                     let _ = Instant::now(); t }\n",
                ),
                (
                    "crates/kernel/src/b.rs",
                    "struct Network;\nimpl Network { fn dispatch(&mut self) { f(); } }\n\
                     fn f(x: Option<u32>) { // lv-lint: allow(no-panic)\n\
                     x.unwrap();\n\
                     let _g = G.lock(); // lv-lint: allow(shard-readiness)\n}\n\
                     // lv-lint: hot\nfn hot() { g(); }\n\
                     fn g() { let _v = Box::new(1); // lv-lint: allow(hot-path-alloc)\n}\n",
                ),
                (
                    "crates/sim/src/c.rs",
                    "static G: Mutex<u32> = Mutex::new(0);\n",
                ),
            ],
            &[("testbed", &[]), ("kernel", &["sim"]), ("sim", &[])],
        );
        assert!(findings.is_empty(), "{findings:?}");
    }
}
