//! The repo's lint policy: which crates each rule covers.
//!
//! Crates are identified by their directory name under `crates/`, with
//! `root` naming the workspace's top-level `src/`. [`RULES`] is the one
//! policy table (DESIGN.md §12): every scoping decision of all six
//! rules is a field of its rows. The CLI lints under it, and so do the
//! tests, which filter findings by rule.

use crate::parse::SinkKind;

/// A set of crate keys.
#[derive(Debug, Clone, Copy)]
pub enum Scope {
    /// Every scanned crate.
    All,
    /// Only the named crates (directory names, e.g. `"kernel"`).
    Only(&'static [&'static str]),
}

impl Scope {
    /// True when the scope covers `crate_key`.
    pub fn contains(self, crate_key: &str) -> bool {
        match self {
            Scope::All => true,
            Scope::Only(keys) => keys.contains(&crate_key),
        }
    }
}

/// The crates whose results reach serialized output (reports, figures,
/// digests) or whose control flow feeds the deterministic replay: the
/// simulation path proper.
pub const SIM_PATH: Scope = Scope::Only(&["sim", "radio", "mac", "net", "kernel", "core"]);

/// The crates that must never abort: a panic there kills a node
/// mid-simulation.
pub const KERNEL_RADIO: Scope = Scope::Only(&["kernel", "radio"]);

/// No crate: a sink kind that never fires unless a root reaches it.
pub const NOWHERE: Scope = Scope::Only(&[]);

/// One rule of the policy.
pub struct RuleScope {
    /// Rule name, as used in allow directives.
    pub name: &'static str,
    /// One-line description (for `--list-rules`).
    pub summary: &'static str,
    /// The crates where the rule's sites count: any site for a per-file
    /// rule, a site a root reaches for a reach rule.
    pub crates: Scope,
    /// A reach rule's sink kinds (none for a per-file rule), each with
    /// the crates where it counts with no root at all, and whether it
    /// counts below a root (`false`: only in a root's own body).
    pub sinks: &'static [(SinkKind, Scope, bool)],
}

/// Every rule, in reporting order: the two per-file rules of
/// [`crate::rules`], then the four reach rules of [`crate::interproc`].
///
/// The live-transport crate (`serve`) is outside the determinism scope
/// because real time and real sockets are its job. The exemption is
/// this table, never an inline allow, so a new crate on the live side
/// is a reviewed policy change. Harness crates (`testbed`, `bench`,
/// `root`) may read the clock to time a run, but not on a path a trial
/// body or the event loop reaches, and they may fail fast on a bad
/// experiment config, so `no-panic` does not cover them. A reach
/// rule's roots and walk are code, in [`crate::interproc`]; the
/// `no-panic` roots are the pub fns of its own crates.
pub const RULES: &[RuleScope] = &[
    RuleScope {
        name: "hash-type",
        summary: "no std HashMap/HashSet in sim-path crates (BTreeMap/BTreeSet instead)",
        crates: SIM_PATH,
        sinks: &[],
    },
    RuleScope {
        name: "determinism",
        summary: "no wall clock or OS entropy in sim-path crates, no hash-order iteration \
                  anywhere, and neither reachable from the event loop, Medium::assess* or a \
                  TrialRunner trial body",
        crates: Scope::Only(&[
            "sim", "radio", "mac", "net", "kernel", "core", "testbed", "bench", "root",
        ]),
        sinks: &[
            (SinkKind::WallClock, SIM_PATH, true),
            (SinkKind::Entropy, SIM_PATH, true),
            (SinkKind::HashIter, Scope::All, true),
        ],
    },
    RuleScope {
        name: "no-panic",
        summary: "no panic!/unwrap/expect in kernel and radio, and none (nor unguarded \
                  byte-slice indexing) reachable from sim-path or serve pub API",
        crates: Scope::Only(&["sim", "radio", "mac", "net", "kernel", "core", "serve"]),
        sinks: &[
            (SinkKind::Panic, KERNEL_RADIO, true),
            (SinkKind::Index, NOWHERE, true),
        ],
    },
    RuleScope {
        name: "hot-path-alloc",
        summary: "no Box::new/Arc::new/Rc::new/vec!/format!/to_string/to_owned/to_vec at any \
                  static-call depth below a `// lv-lint: hot` fn, no Vec::new in its own body",
        crates: Scope::All,
        // `Vec::new()` is capacity-zero and never touches the heap (growth
        // allocates at the push site, which needs flow analysis to
        // attribute), so it only counts in the tagged body itself.
        sinks: &[
            (SinkKind::Alloc, NOWHERE, true),
            (SinkKind::VecNew, NOWHERE, false),
        ],
    },
    RuleScope {
        name: "shard-readiness",
        summary: "no static mut, interior-mutable static, or lock acquisition in \
                  event-loop-reachable code (per-shard queues must not inherit them)",
        crates: Scope::All,
        sinks: &[
            (SinkKind::Lock, NOWHERE, true),
            (SinkKind::CapsRef, NOWHERE, true),
        ],
    },
];

/// The policy row of the rule named `name`.
pub fn rule(name: &str) -> Option<&'static RuleScope> {
    RULES.iter().find(|r| r.name == name)
}

/// The crates the rule named `name` covers (none for an unknown name).
pub fn scope_of(name: &str) -> Scope {
    rule(name).map_or(NOWHERE, |r| r.crates)
}

/// The reach rule that owns a sink kind.
pub fn rule_of(kind: SinkKind) -> &'static str {
    RULES
        .iter()
        .find(|r| r.sinks.iter().any(|s| s.0 == kind))
        .map_or("", |r| r.name)
}

/// Derive the crate key from a repo-relative path:
/// `crates/kernel/src/network.rs` → `kernel`, `src/lib.rs` → `root`.
pub fn crate_key_of(path: &str) -> &str {
    let path = path.strip_prefix("./").unwrap_or(path);
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("root")
    } else {
        "root"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_keys() {
        assert_eq!(crate_key_of("crates/kernel/src/network.rs"), "kernel");
        assert_eq!(crate_key_of("./crates/radio/src/medium.rs"), "radio");
        assert_eq!(crate_key_of("src/lib.rs"), "root");
    }

    /// The live-transport crate is outside the determinism and no-panic
    /// reach scopes and `hash-type`, but keeps the conventions; every
    /// sim-path crate keeps the full determinism set.
    #[test]
    fn live_crate_scoping() {
        for rule in ["determinism", "hash-type"] {
            assert!(!scope_of(rule).contains("serve"), "{rule} covers serve");
        }
        for rule in ["no-panic", "hot-path-alloc"] {
            assert!(scope_of(rule).contains("serve"), "{rule} skips serve");
        }
        for key in ["sim", "radio", "mac", "net", "kernel", "core"] {
            assert!(scope_of("determinism").contains(key));
            assert!(scope_of("hash-type").contains(key));
        }
        assert!(!scope_of("no-panic").contains("testbed"));
        assert!(!scope_of("determinism").contains("lint"));
        assert!(!scope_of("retired-rule").contains("kernel"));
    }

    #[test]
    fn every_sink_kind_has_one_rule() {
        use SinkKind::*;
        for kind in [
            WallClock, Entropy, HashIter, Panic, Index, Alloc, VecNew, Lock, CapsRef,
        ] {
            let owners = RULES
                .iter()
                .filter(|r| r.sinks.iter().any(|s| s.0 == kind))
                .count();
            assert_eq!(owners, 1, "{kind:?}");
        }
    }
}
