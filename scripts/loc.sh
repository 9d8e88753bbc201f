#!/usr/bin/env bash
# Non-test line count of the Rust sources: for each `.rs` file under
# crates/, src/ and examples/, the lines before its first line that
# begins with `#[cfg(test)]` (every line when it has none). Skips
# `tests/` directories, the lint fixtures, the benchmark package and
# vendor/. Prints one `<lines> <path>` row per file, sorted by path,
# then the total.
#
#   scripts/loc.sh                      # every file and the total
#   scripts/loc.sh | grep crates/core/  # one crate's rows
set -euo pipefail
cd "$(dirname "$0")/.."

find crates src examples -name '*.rs' \
    -not -path '*/tests/*' \
    -not -path 'crates/lint/fixtures/*' \
    -not -path 'src/bin/lv-benchmark/*' \
    -not -path 'vendor/*' |
    LC_ALL=C sort |
    while read -r file; do
        awk -v f="$file" '/^#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%6d %s\n", n, f }' "$file"
    done |
    awk '{ print; total += $1 } END { printf "%6d total\n", total }'
