#!/usr/bin/env bash
# Offline CI gate: build, test, lint, then end-to-end smokes of the one
# `figures` binary. Run from anywhere; no network needed (the workspace
# vendors its dev-dependency stubs in crates/).
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test"
cargo test --workspace -q

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# The benchmark is a package of its own that calls the workspace's public
# API; building and testing it here catches an API break before a
# benchmark run does.
echo "== perfbench build + unit tests"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml

smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT

# The explicit -p build is what guarantees target/release/figures is fresh
# before any output or wall-clock number below is trusted (a
# workspace-root rebuild alone can skip relinking the bin).
echo "== golden smoke (figures fig1/fig18 vs tests/goldens)"
cargo build --release -p mcm-bench --bin figures
./target/release/figures --quick --jobs 2 --out "$smoke/default" fig1 fig18
cmp "$smoke/default/fig1.csv" tests/goldens/fig1_quick.csv
cmp "$smoke/default/fig18.csv" tests/goldens/fig18_quick.csv

echo "== trace subcommand smoke (JSON + folded stacks land in the out dir; stacks vs golden)"
./target/release/figures --quick --jobs 2 --out "$smoke/trace-out" trace fig1
test -s "$smoke/trace-out/trace/fig1.json"
cmp "$smoke/trace-out/trace/fig1.folded" tests/goldens/fig1_trace_quick.folded

echo "== timeline smoke (figures timeline topo: outputs land, journal carries imbalance, status sees it)"
# JSON validity and matrix-vs-stats reconciliation are pinned by the
# workspace tests run above; this checks the end-to-end surface.
./target/release/figures --quick --jobs 2 --progress=off --out "$smoke/timeline" timeline topo
test -s "$smoke/timeline/timeline/topo.json"
test -s "$smoke/timeline/timeline/topo.csv"
# Link and DRAM queueing are registry counters, so each gets a column.
header=$(head -n 1 "$smoke/timeline/timeline/topo.csv")
[[ "$header" == *,interconnect_queue_cycles* && "$header" == *,dram_queue_cycles* ]]
test -s "$smoke/timeline/journal/topo-timeline.jsonl"
grep -q '"imbalance"' "$smoke/timeline/journal/topo-timeline.jsonl"
./target/release/figures --out "$smoke/timeline" status | grep -q "topo-timeline"
./target/release/figures --out "$smoke/timeline" status --check > /dev/null

echo "== fig18 wall-clock budget (vs committed results/bench_timings.json, 2x headroom)"
# Guards the hot-path optimization pass (DESIGN.md §15) against silent
# regression: the quick-grid fig18 sweep just produced must stay within
# 2x the committed post-pass baseline. The headroom absorbs shared-runner
# noise (interleaved A/B runs on the baseline machine vary by ~±15%); a
# real regression of the batched event loop blows well past it.
committed=$(awk -F'"seconds": ' '/"id": "fig18"/{split($2,a,","); print a[1]}' results/bench_timings.json)
measured=$(awk -F'"seconds": ' '/"id": "fig18"/{split($2,a,","); print a[1]}' "$smoke/default/bench_timings.json")
awk -v m="$measured" -v c="$committed" 'BEGIN {
  printf "   fig18 %.3fs vs committed %.3fs (budget %.3fs)\n", m, c, 2 * c
  if (m > 2 * c) { print "fig18 exceeded its wall-clock budget" > "/dev/stderr"; exit 1 }
}'

echo "== topology sweep smoke (figures topo vs golden; journal validates)"
./target/release/figures --quick --jobs 2 --progress=off --out "$smoke/topo" topo
cmp "$smoke/topo/topo.csv" tests/goldens/topo_quick.csv
./target/release/figures --out "$smoke/topo" status --check > /dev/null

echo "== analytic engine smoke (quick fig1+topo: < 1 CPU s, >= 10x the cycle engine)"
# The workspace test runs earlier already cross-validated the two
# engines' metrics (crates/bench/tests/cross_validation.rs); this asserts
# the speedup that justifies the fast path. The bar was re-based 20x ->
# 10x when the DESIGN.md §15 hot-path pass made the cycle engine itself
# ~1.7x faster on this grid. Both engines run the same grid (same
# binary, --jobs 2) back to back, three times each, and each bar is
# checked against each side's fastest run. Runs are timed in process CPU
# seconds (user + sys, all threads), not wall time: a shared host that
# steals a CPU for seconds at a time stretches wall time but not the
# work a run does, and wall-clock ratios alone flaked on that.
cpu_seconds() {
  local TIMEFORMAT=%U+%S t
  t=$( { time "$@" > /dev/null 2>&1; } 2>&1 ) || return 1
  awk -v t="$t" 'BEGIN { split(t, p, "+"); print p[1] + p[2] }'
}
cyc="" ana=""
for i in 1 2 3; do
  cyc="$cyc $(cpu_seconds ./target/release/figures --quick --jobs 2 --progress=off \
      --out "$smoke/cycle$i" fig1 topo)"
  ana="$ana $(cpu_seconds ./target/release/figures --quick --jobs 2 --progress=off \
      --engine analytic --out "$smoke/analytic$i" fig1 topo)"
  grep -q '"engine": "analytic"' "$smoke/analytic$i/bench_timings.json"
done
awk -v cs="$cyc" -v as="$ana" 'BEGIN {
  n = split(cs, c, " "); split(as, a, " ")
  cmin = c[1]; amin = a[1]
  for (i = 2; i <= n; i++) { if (c[i] < cmin) cmin = c[i]; if (a[i] < amin) amin = a[i] }
  printf "   cycle runs%s CPU s, analytic runs%s CPU s\n", cs, as
  printf "   fastest: analytic %.3fs vs cycle %.3fs (%.1fx)\n", amin, cmin, cmin / amin
  if (amin >= 1.0) { print "analytic quick grid must finish in under 1 CPU second" > "/dev/stderr"; exit 1 }
  if (cmin < 10 * amin) { print "analytic engine must be >= 10x the cycle engine" > "/dev/stderr"; exit 1 }
}'

echo "== parallel-sweep determinism smoke (figures fig1, and analytic fig18, jobs 1 vs 4)"
./target/release/figures --quick --jobs 1 --out "$smoke/j1" fig1 > "$smoke/j1.out"
./target/release/figures --quick --jobs 4 --out "$smoke/j4" fig1 > "$smoke/j4.out"
cmp "$smoke/j1/fig1.csv" "$smoke/j4/fig1.csv"
cmp "$smoke/j1.out" "$smoke/j4.out"
# Four jobs also capture and fold each analytic replay on four threads.
./target/release/figures --quick --jobs 1 --engine analytic --out "$smoke/a1" fig18 > "$smoke/a1.out"
./target/release/figures --quick --jobs 4 --engine analytic --out "$smoke/a4" fig18 > "$smoke/a4.out"
cmp "$smoke/a1/fig18.csv" "$smoke/a4/fig18.csv"
cmp "$smoke/a1.out" "$smoke/a4.out"
# The analytic model predicts no cycles, so its grids have no perf block.
if head -n1 "$smoke/a1/fig18.csv" | grep -q 'perf:'; then
  echo "analytic fig18 CSV must have no perf: columns" >&2
  exit 1
fi

echo "== probe engine smoke (figures probe runs on the cycle engine under either --engine)"
./target/release/figures --quick --engine analytic probe STE > "$smoke/probe-analytic.out"
./target/release/figures --quick probe STE > "$smoke/probe-cycle.out"
cmp "$smoke/probe-analytic.out" "$smoke/probe-cycle.out"

echo "== telemetry smoke (interrupted-then-resumed fig1 vs golden; journal well-formedness)"
./target/release/figures --quick --jobs 2 --progress=off --out "$smoke/tele" fig1
test -s "$smoke/tele/journal/fig1.jsonl"
# Simulate a crash: lose the CSV and the journal records of cells 0 and 7,
# then resume.
rm "$smoke/tele/fig1.csv"
grep -v -e '"cell":0,' -e '"cell":7,' "$smoke/tele/journal/fig1.jsonl" > "$smoke/kept.jsonl"
mv "$smoke/kept.jsonl" "$smoke/tele/journal/fig1.jsonl"
./target/release/figures --quick --jobs 2 --progress=off --resume --out "$smoke/tele" fig1
cmp "$smoke/tele/fig1.csv" tests/goldens/fig1_quick.csv
test "$(grep -c '"outcome":"resumed"' "$smoke/tele/journal/fig1.jsonl")" -eq 22
# status must summarize the journal; --check validates every journal line
# and cell coverage (non-zero exit on a malformed record or a missing cell).
./target/release/figures --out "$smoke/tele" status | grep -q "fig1"
./target/release/figures --out "$smoke/tele" status --check > /dev/null
# ...and fails on a corrupt interior record.
cp -r "$smoke/tele" "$smoke/tele-bad"
sed -i '2s/.*/{"cell":7,"truncat/' "$smoke/tele-bad/journal/fig1.jsonl"
if ./target/release/figures --out "$smoke/tele-bad" status --check > /dev/null 2> "$smoke/bad.err"; then
  echo "status --check must fail on a corrupt interior journal record" >&2
  exit 1
fi
grep -q "malformed journal line" "$smoke/bad.err"
# A resume moves the corrupt record into fig1.rejected and re-runs its
# cell: the check passes again, and plain status warns about the file.
rm "$smoke/tele-bad/fig1.csv"
./target/release/figures --quick --jobs 2 --progress=off --resume --out "$smoke/tele-bad" fig1 \
  2> /dev/null
cmp "$smoke/tele-bad/fig1.csv" tests/goldens/fig1_quick.csv
test -s "$smoke/tele-bad/journal/fig1.rejected"
./target/release/figures --out "$smoke/tele-bad" status --check > /dev/null
./target/release/figures --out "$smoke/tele-bad" status 2>&1 > /dev/null | grep -q "fig1.rejected"

echo "== progress smoke (resumed fig1 with --progress=on: the final progress line counts the restored cells)"
./target/release/figures --quick --jobs 2 --progress=on --resume --out "$smoke/tele" fig1 \
  2> "$smoke/progress.err" > /dev/null
grep '^\[sweep fig1\]' "$smoke/progress.err" | tail -n 1 | grep -q "24/24 cells.* 24 resumed"

echo "== chaos probe smoke (figures probe --chaos STE: exits 0, one row per main config)"
./target/release/figures --quick probe --chaos STE > "$smoke/chaos.out"
test "$(tail -n +3 "$smoke/chaos.out" | wc -l)" -eq 9
for config in S-64KB S-2MB Ideal_C-NUMA Ideal_C-NUMA+inter GRIT MGvm F-Barre CLAP Ideal; do
  grep -q "^$config " "$smoke/chaos.out"
done

echo "== supervision smoke (injected panic + budget abort quarantine; resume reproduces golden)"
# One panicking and one budget-exceeding cell: the sweep must finish the
# other 22 cells, journal the quarantine with per-class reasons, keep
# the healthy records, and exit nonzero.
if ./target/release/figures --quick --jobs 2 --progress=off --out "$smoke/sup" \
    --inject fig1:2=panic --inject fig1:5=budget fig1 2> "$smoke/sup.err"; then
  echo "expected nonzero exit when cells are quarantined" >&2
  exit 1
fi
grep -q "quarantined" "$smoke/sup.err"
grep -q '"outcome":"panicked"' "$smoke/sup/journal/fig1.jsonl"
grep -q '"outcome":"aborted"' "$smoke/sup/journal/fig1.jsonl"
# Healthy neighbours kept a restorable record; quarantined cells have
# none, so --resume re-runs exactly them.
grep '"cell":1,' "$smoke/sup/journal/fig1.jsonl" | grep -q '"outcome":"completed"'
if grep -e '"cell":2,' -e '"cell":5,' "$smoke/sup/journal/fig1.jsonl" \
    | grep -q '"outcome":"completed"'; then
  echo "a quarantined cell must have no completed record" >&2
  exit 1
fi
# Injections removed: resume re-runs only the quarantined cells and the
# assembled CSV is byte-identical to the golden.
./target/release/figures --quick --jobs 2 --progress=off --resume --out "$smoke/sup" fig1
cmp "$smoke/sup/fig1.csv" tests/goldens/fig1_quick.csv
./target/release/figures --out "$smoke/sup" status --check > /dev/null

echo "== ci: all green"
