#!/usr/bin/env bash
# Benchmark the working tree against a base ref with lv-benchmark.
#
#   scripts/bench-compare.sh <base-ref>
#
# Runs the lv-benchmark suite (the `command` of BENCHMARK.json, seed 42
# on both sides) once in a temporary git worktree at <base-ref> and once
# in the working tree, writing target/bench-compare/base.json and
# target/bench-compare/head.json. Then the working tree's binary judges
# head against base with `--compare` and prints the verdict table.
#
# Exits non-zero when either suite fails a correctness check (a sample
# that broke, a serve check, or a digest that no longer matches its
# full-scale pin in pins.json), when --compare finds a `worse` verdict or
# a rise in fail ratio, or on a usage error.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
    echo "usage: scripts/bench-compare.sh <base-ref>" >&2
    exit 2
fi
base_ref=$1
base_rev=$(git rev-parse --verify --quiet "$base_ref^{commit}") || {
    echo "bench-compare: unknown ref $base_ref" >&2
    exit 2
}
# Seed 42 has full-scale digest pins, so every sample checks its digest.
seed=42
out="$PWD/target/bench-compare"
mkdir -p "$out"

# The benchmark command a checkout's BENCHMARK.json declares.
bench_command() {
    jq -r '.command[]' "$1/BENCHMARK.json"
}

scratch=$(mktemp -d)
base_tree="$scratch/base"
cleanup() {
    git worktree remove --force "$base_tree" >/dev/null 2>&1 || true
    rm -rf "$scratch"
    git worktree prune
}
trap cleanup EXIT
git worktree add --detach --quiet "$base_tree" "$base_rev"

mapfile -t base_cmd < <(bench_command "$base_tree")
mapfile -t head_cmd < <(bench_command .)

failed=0
echo "== lv-benchmark suite at $base_ref ($(git rev-parse --short "$base_rev")), seed $seed =="
if ! (cd "$base_tree" && "${base_cmd[@]}" --seed "$seed" --out "$out/base.json"); then
    echo "bench-compare: the suite at $base_ref failed a correctness check" >&2
    failed=1
fi
echo "== lv-benchmark suite in the working tree, seed $seed =="
if ! "${head_cmd[@]}" --seed "$seed" --out "$out/head.json"; then
    echo "bench-compare: the working tree's suite failed a correctness check" >&2
    failed=1
fi
echo "== lv-benchmark --compare base head =="
if ! "${head_cmd[@]}" --compare "$out/base.json" "$out/head.json"; then
    echo "bench-compare: --compare found a worse metric or a higher fail ratio" >&2
    failed=1
fi
if [[ $failed -ne 0 ]]; then
    exit 1
fi
echo "bench-compare: OK"
