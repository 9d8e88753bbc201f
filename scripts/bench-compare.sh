#!/usr/bin/env bash
# Benchmark the working tree against a base ref with lv-benchmark.
#
#   scripts/bench-compare.sh <base-ref>
#
# Runs the lv-benchmark suite (the `command` of BENCHMARK.json, seed 42
# on both sides) four times in ABBA order: in a temporary git worktree at
# <base-ref>, twice in the working tree, then at <base-ref> again. A host
# that drifts slower or faster over the run then weighs on both sides
# alike instead of reading as a verdict. Each side's two result files
# are pooled into one, target/bench-compare/base.json and
# target/bench-compare/head.json, holding twice the samples of one run.
# Then the working tree's binary judges head against base with
# `--compare` and prints the verdict table. Four suite runs take about
# twice as long as the two a base-then-head order would.
#
# Exits non-zero when any suite run fails a correctness check (a sample
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
rm -f "$out"/{base,head}{,-1,-2}.json

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
# One suite run of side $1 (base or head), written to $out/$1-$2.json.
suite() {
    local side=$1 run=$2
    local file="$out/$side-$run.json"
    if [[ $side == base ]]; then
        echo "== lv-benchmark suite at $base_ref ($(git rev-parse --short "$base_rev")), seed $seed, run $run =="
        (cd "$base_tree" && "${base_cmd[@]}" --seed "$seed" --out "$file") && return
    else
        echo "== lv-benchmark suite in the working tree, seed $seed, run $run =="
        "${head_cmd[@]}" --seed "$seed" --out "$file" && return
    fi
    echo "bench-compare: $side run $run failed a correctness check" >&2
    failed=1
}
suite base 1
suite head 1
suite head 2
suite base 2

# Pool two result files of one side: samples, digests and host.ref_ns
# concatenate, counts add up, `correct` holds only if it held in both,
# and each metric's median and quartiles are recomputed from the pooled
# samples with lv-benchmark's own exclusive quantile rule (Hyndman-Fan
# type 6, as in src/bin/lv-benchmark/src/stats.rs).
pool() {
    jq -n --slurpfile a "$1" --slurpfile b "$2" '
        def quantile($q):
            map(select(type == "number")) | sort | length as $n
            | if $n == 0 then null
              else ($q * ($n + 1)) as $h
                | if $h <= 1 then .[0]
                  elif $h >= $n then .[$n - 1]
                  else ($h | floor) as $lo | .[$lo - 1] + ($h - $lo) * (.[$lo] - .[$lo - 1])
                  end
              end;
        def pool_metric($x; $y):
            (($x.samples // []) + ($y.samples // [])) as $s
            | {unit: ($x.unit // $y.unit), samples: $s,
               median: ($s | quantile(0.5)), q1: ($s | quantile(0.25)), q3: ($s | quantile(0.75))};
        $a[0] as $a | $b[0] as $b
        | $a + {
            rounds: ($a.rounds + $b.rounds),
            workloads: ([$a.workloads, $b.workloads] | map(keys) | add | unique
              | map(. as $w | ($a.workloads[$w] // {}) as $x | ($b.workloads[$w] // {}) as $y
                | {key: $w, value: {
                    correct: (($x.correct // false) and ($y.correct // false)),
                    attempted: (($x.attempted // 0) + ($y.attempted // 0)),
                    failed: (($x.failed // 0) + ($y.failed // 0)),
                    digests: (($x.digests // []) + ($y.digests // [])),
                    ref_ns: (($x.ref_ns // []) + ($y.ref_ns // [])),
                    metrics: ([$x.metrics // {}, $y.metrics // {}] | map(keys) | add | unique
                      | map(. as $m | {key: $m, value: pool_metric($x.metrics[$m] // {}; $y.metrics[$m] // {})})
                      | from_entries)
                  }})
              | from_entries)
          }'
}
for side in base head; do
    if [[ -f "$out/$side-1.json" && -f "$out/$side-2.json" ]]; then
        pool "$out/$side-1.json" "$out/$side-2.json" >"$out/$side.json"
    else
        echo "bench-compare: a $side run wrote no results" >&2
        exit 1
    fi
done

echo "== lv-benchmark --compare base head (pooled, ABBA) =="
if ! "${head_cmd[@]}" --compare "$out/base.json" "$out/head.json"; then
    echo "bench-compare: --compare found a worse metric or a higher fail ratio" >&2
    failed=1
fi
if [[ $failed -ne 0 ]]; then
    exit 1
fi
echo "bench-compare: OK"
