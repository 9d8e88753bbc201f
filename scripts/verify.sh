#!/usr/bin/env bash
# Full verification gate: every test in the workspace, then clippy with
# warnings promoted to errors. Run before sending a PR.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo test --all =="
cargo test -q --all

# The benchmark is a package of its own, outside the workspace: build and
# test it here so an API change it relies on fails the gate, not the
# benchmark run.
echo "== lv-benchmark package tests =="
cargo test -q --manifest-path src/bin/lv-benchmark/Cargo.toml

echo "== cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets -- -D warnings

echo "== lv-lint (determinism & invariant gate, incl. graph rules) =="
cargo run -q -p lv-lint -- --max-seconds 10

echo "== scaling smoke (100 nodes, cached vs brute) =="
cargo run --release -q -p lv-bench --bin figures -- --scale --sizes 100

echo "== determinism digest gate (goldens/figure_digests.json) =="
cargo run --release -q -p lv-bench --bin figures -- --check-digests goldens/figure_digests.json

echo "== diagnosis sweep gate (precision/recall + detect-before-fail) =="
cargo run --release -q -p lv-bench --bin figures -- --diagnosis

echo "verify: OK"
