#!/usr/bin/env bash
# Full verification gate, the whole of what a PR must pass: formatting,
# every test in the workspace, the lv-benchmark package tests and its
# full-scale digest pins, clippy and rustdoc with warnings promoted to
# errors, lv-lint, the digest and diagnosis gates, a run of every
# example, and the release lv-serve fleet smoke. Run before sending a PR.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --all --check =="
cargo fmt --all --check

echo "== cargo test --all =="
cargo test -q --all

# The benchmark is a package of its own, outside the workspace: build and
# test it here so an API change it relies on fails the gate, not the
# benchmark run.
echo "== lv-benchmark package tests =="
cargo test -q --manifest-path src/bin/lv-benchmark/Cargo.toml

# The package tests check only the smoke-scale pins. One release sample
# of each pinned workload at seeds 42 and 7 checks the full-scale ones:
# a sample whose counter digest misses its pins.json entry exits 1.
echo "== lv-benchmark full-scale digest pins (release, seeds 42 and 7) =="
for seed in 42 7; do
    for workload in grid1000-steady grid1000-churn corridor-commands; do
        out=$(cargo run --release -q --manifest-path src/bin/lv-benchmark/Cargo.toml -- \
            --sample "$workload" --seed "$seed" --seconds 0 --trace 0 2>&1) \
            || { echo "$out"; exit 1; }
        echo "-- $workload seed $seed: $(echo "$out" | grep '^digest')"
    done
done

# Every workspace member, lv-lint and lv-bench included, with its tests:
# at the root, plain `cargo clippy` lints only the root package and the
# crates it depends on.
echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D missing_docs -D warnings) =="
RUSTDOCFLAGS="-D missing_docs -D warnings" cargo doc -q --workspace --no-deps

echo "== lv-lint (determinism & invariant gate, per-file and reach rules) =="
cargo run -q -p lv-lint -- --max-seconds 10

echo "== determinism digest gate (goldens/figure_digests.json) =="
cargo run --release -q -p lv-bench --bin figures -- --check-digests goldens/figure_digests.json

echo "== diagnosis sweep gate (precision/recall + detect-before-fail) =="
cargo run --release -q -p lv-bench --bin figures -- --diagnosis

# `cargo test` only compiles the examples. Run each one to the end with
# stdin closed (the interactive shell exits at EOF), so an example that
# panics or exits non-zero fails the gate.
echo "== examples (release, stdin closed) =="
cargo build --release -q --examples
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    echo "-- $name"
    cargo run --release -q --example "$name" </dev/null >/dev/null
done

# The release daemon's flag parsing and exit code: 16 concurrent
# scripted sessions over loopback UDP must all complete and shut down
# cleanly (crates/serve/tests/smoke.rs runs the same fleet in process).
echo "== lv-serve --smoke 16 --cmds 4 (release, loopback UDP) =="
cargo run --release -q -p lv-serve -- --smoke 16 --cmds 4

echo "verify: OK"
