#!/usr/bin/env bash
# Regenerates the golden CSVs that tests/golden.rs pins byte-for-byte.
#
# The goldens are the quick-grid (--quick) fig1, fig2, fig8, fig18,
# table2 and topo CSVs and the fig1 stage trace's folded stacks, produced
# by the release `figures` binary, and the analytic engine's quick cells
# and the quick real-cost migration cells (one JSON line per cell)
# printed by the `analytic_golden` and `migration_golden` examples.
# Run this only when a simulator change intentionally moves the numbers,
# and commit the refreshed goldens together with that change.
#
# A change that only reorders the JSON keys of the `.jsonl` goldens (a
# counter moving into the counter table) goes in a commit of its own;
# show that every line holds the same values, in order:
#   for f in analytic_quick migration_quick; do
#     cmp <(git show HEAD:tests/goldens/$f.jsonl | jq -S -c .) \
#         <(jq -S -c . tests/goldens/$f.jsonl)
#   done
#
# Usage: scripts/update_goldens.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

cargo build --release -p mcm-bench
./target/release/figures --quick --jobs 2 --out "$out" \
  fig1 fig2 fig8 fig18 table2 topo

mkdir -p tests/goldens
for id in fig1 fig2 fig8 fig18 table2 topo; do
  cp "$out/$id.csv" "tests/goldens/${id}_quick.csv"
done
./target/release/figures --quick --jobs 2 --out "$out" trace fig1 > /dev/null
cp "$out/trace/fig1.folded" tests/goldens/fig1_trace_quick.folded
cargo run --release --quiet --example analytic_golden > "$out/analytic_quick.jsonl"
cp "$out/analytic_quick.jsonl" tests/goldens/analytic_quick.jsonl
cargo run --release --quiet --example migration_golden > "$out/migration_quick.jsonl"
cp "$out/migration_quick.jsonl" tests/goldens/migration_quick.jsonl

echo "updated:"
git -c color.status=false status --short tests/goldens/ || true
echo "re-run 'cargo test --test golden' to confirm."
