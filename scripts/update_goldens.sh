#!/usr/bin/env bash
# Regenerates the golden CSVs that tests/golden.rs pins byte-for-byte.
#
# The goldens are the quick-grid (--quick) fig1, fig18, and topo CSVs
# produced by the release `figures` binary.
# Run this only when a simulator change intentionally moves the numbers,
# and commit the refreshed goldens together with that change.
#
# Usage: scripts/update_goldens.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

cargo build --release -p mcm-bench
./target/release/figures --quick --jobs "${MCM_JOBS:-2}" --out "$out" fig1 fig18 topo

mkdir -p tests/goldens
cp "$out/fig1.csv" tests/goldens/fig1_quick.csv
cp "$out/fig18.csv" tests/goldens/fig18_quick.csv
cp "$out/topo.csv" tests/goldens/topo_quick.csv

echo "updated:"
git -c color.status=false status --short tests/goldens/ || true
echo "re-run 'cargo test --test golden' to confirm."
