//! The benchmark's fixed data: the metric registry and the digest pins.
//!
//! `BENCHMARK.json` at the repository root names every workload and
//! metric with its unit, direction and regression bound. The binary
//! embeds it at build time, so a metric has one definition and a run
//! that emits a different set of names is a bug the smoke test catches.
//! `pins.json` beside this package holds the counter digests each
//! deterministic workload must reproduce for the seeds it lists.

use serde::Deserialize;
use std::collections::BTreeMap;

const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");
const PINS_JSON: &str = include_str!("../pins.json");

/// One metric of the registry.
#[derive(Debug, Clone, Deserialize)]
pub(crate) struct MetricSpec {
    pub(crate) name: String,
    pub(crate) unit: String,
    /// `"higher"` or `"lower"`.
    pub(crate) better: String,
    /// Allowed worsening as a share of the baseline median; end-to-end
    /// metrics only.
    #[serde(default)]
    pub(crate) bound: f64,
}

impl MetricSpec {
    pub(crate) fn higher_is_better(&self) -> bool {
        self.better == "higher"
    }
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub(crate) struct Registry {
    /// Measured seconds of one run.
    pub(crate) run_seconds: u64,
    pub(crate) end_to_end: Vec<MetricSpec>,
    pub(crate) per_layer: Vec<MetricSpec>,
}

impl Registry {
    /// The metrics a run reports: end-to-end untraced, per-layer traced.
    pub(crate) fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// The embedded registry. It is build input, so a malformed file is a
/// defect of the checkout, reported at the first use.
pub(crate) fn registry() -> Registry {
    serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses as the metric registry")
}

/// Pinned digest of `workload` at `scale` for `seed`, if one is pinned.
pub(crate) fn pinned_digest(scale: &str, seed: u64, workload: &str) -> Option<String> {
    let pins: BTreeMap<String, BTreeMap<String, BTreeMap<String, String>>> =
        serde_json::from_str(PINS_JSON).expect("pins.json parses as scale → seed → workload");
    pins.get(scale)?
        .get(&seed.to_string())?
        .get(workload)
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_bounded() {
        let r = registry();
        let mut names: Vec<&str> = r
            .end_to_end
            .iter()
            .chain(&r.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
        for m in r.end_to_end.iter().chain(&r.per_layer) {
            assert!(m.better == "higher" || m.better == "lower", "{}", m.name);
        }
        for m in &r.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(r.end_to_end.iter().any(|m| m.name == "setup_s"));
    }

    #[test]
    fn registry_lists_the_four_workloads() {
        let v: serde::Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
        let Some(serde::Value::Seq(ws)) = v.map_get("workloads") else {
            panic!("no workloads");
        };
        let names: Vec<&serde::Value> = ws.iter().filter_map(|w| w.map_get("name")).collect();
        let ours: Vec<serde::Value> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| serde::Value::Str(w.name().into()))
            .collect();
        assert_eq!(names, ours.iter().collect::<Vec<_>>());
    }

    #[test]
    fn pins_parse() {
        assert_eq!(pinned_digest("nowhere", 42, "grid1000-steady"), None);
    }
}
