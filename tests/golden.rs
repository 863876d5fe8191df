//! Golden-file regression tests: the quick-grid fig1, fig2, fig8, fig18,
//! table2 and topo CSVs, the analytic engine's quick cells, the
//! real-cost migration cells and the fig1 stage trace must match the
//! checked-in goldens **byte for byte**.
//!
//! The simulator is deterministic, the sweep runner collects results in
//! submission order, and the CSV emitter formats with fixed precision —
//! so any byte of drift is a behavior change, not noise. If a change is
//! intentional, regenerate with `scripts/update_goldens.sh` and commit
//! the new goldens alongside the change that explains them.

use clap_repro::bench::experiments::{
    analytic_cells, grid, migration_cells, rerun, Harness, MIGRATION_CONFIGS,
};
use clap_repro::bench::report::{csv_string, stats_lines, trace_folded};
use clap_repro::sim::RunTrace;

const FIG1_GOLDEN: &str = include_str!("goldens/fig1_quick.csv");
const FIG2_GOLDEN: &str = include_str!("goldens/fig2_quick.csv");
const FIG8_GOLDEN: &str = include_str!("goldens/fig8_quick.csv");
const FIG18_GOLDEN: &str = include_str!("goldens/fig18_quick.csv");
const TABLE2_GOLDEN: &str = include_str!("goldens/table2_quick.csv");
const TOPO_GOLDEN: &str = include_str!("goldens/topo_quick.csv");
const ANALYTIC_GOLDEN: &str = include_str!("goldens/analytic_quick.jsonl");
const MIGRATION_GOLDEN: &str = include_str!("goldens/migration_quick.jsonl");
const FIG1_TRACE_GOLDEN: &str = include_str!("goldens/fig1_trace_quick.folded");

fn assert_golden(id: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    // Find the first differing line so the failure is actionable without
    // a byte-level diff.
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "{id}: first divergence at line {} — if intentional, run \
             scripts/update_goldens.sh and commit tests/goldens/",
            n + 1
        );
    }
    panic!(
        "{id}: output differs in length ({} vs {} bytes) — if intentional, \
         run scripts/update_goldens.sh and commit tests/goldens/",
        got.len(),
        want.len()
    );
}

#[test]
fn fig1_quick_grid_matches_golden() {
    let g = grid(&Harness::quick(), "fig1");
    assert_golden("fig1", &csv_string(&g), FIG1_GOLDEN);
}

/// The remote-cache columns: NUBA and SAC attached to S-2MB cells.
#[test]
fn fig2_quick_grid_matches_golden() {
    let g = grid(&Harness::quick().with_jobs(2), "fig2");
    assert_golden("fig2", &csv_string(&g), FIG2_GOLDEN);
}

/// The per-structure projection: one row per picked data structure,
/// its remote ratio across the page-size ladder.
#[test]
fn fig8_quick_grid_matches_golden() {
    let g = grid(&Harness::quick().with_jobs(2), "fig8");
    assert_golden("fig8", &csv_string(&g), FIG8_GOLDEN);
}

/// The MPKI projection: L2$ and L2 TLB MPKI at 4KB/64KB/2MB.
#[test]
fn table2_quick_grid_matches_golden() {
    let g = grid(&Harness::quick().with_jobs(2), "table2");
    assert_golden("table2", &csv_string(&g), TABLE2_GOLDEN);
}

#[test]
fn fig18_quick_grid_matches_golden() {
    let g = grid(&Harness::quick(), "fig18");
    assert_golden("fig18", &csv_string(&g), FIG18_GOLDEN);
}

/// The topology sweep is golden-pinned like the figures: the whole-grid
/// byte compare covers the 8- and 16-chiplet ring/mesh/fully-connected
/// columns the scaling study is about.
#[test]
fn topo_quick_grid_matches_golden() {
    let g = grid(&Harness::quick(), "topo");
    assert_golden("topo", &csv_string(&g), TOPO_GOLDEN);
    // Spot-pin the scaled columns by name so a column reorder can't
    // silently repoint the golden: 8- and 16-chiplet cells exist for
    // every fabric.
    for col in ["ring/8", "ring/16", "mesh/8", "mesh/16", "fc/8", "fc/16"] {
        assert!(g.perf.iter().all(|r| r[g.col(col)] > 0.0), "{col} ran");
    }
}

/// Every analytic-engine counter of the 150 suite cells and the 18 topo
/// cells (4, 8 and 16 chiplets), one JSON line per cell: any change to
/// the closed-form model's arithmetic shows up here, not only the
/// figure-of-merit ratios the CSV goldens round.
#[test]
fn analytic_quick_cells_match_golden() {
    let cells = analytic_cells(&Harness::quick());
    assert_eq!(cells.len(), 15 * 10 + 2 * 9);
    assert_golden("analytic", &stats_lines(&cells), ANALYTIC_GOLDEN);
}

/// Every counter of the 45 quick real-cost migration cells (GRIT(real),
/// C-NUMA(real), CLAP+migration on each suite workload), one JSON line
/// per cell. These are the only cells whose epochs migrate pages and
/// shoot down TLBs at real cost; the CSV goldens do not cover them.
#[test]
fn migration_quick_cells_match_golden() {
    let cells = migration_cells(&Harness::quick().with_jobs(2));
    assert_eq!(cells.len(), 15 * MIGRATION_CONFIGS.len());
    assert_golden("migration", &stats_lines(&cells), MIGRATION_GOLDEN);
}

/// The stage breakdown `figures trace fig1` writes as folded stacks: per
/// column, the cycle total of each of the five stage histograms, merged
/// over the column's workloads. Any change to where a traced run's
/// latency is sampled shows up here.
#[test]
fn fig1_quick_trace_matches_golden() {
    let ft = rerun(
        &Harness::quick().with_jobs(2),
        "fig1",
        |t: RunTrace| t,
        RunTrace::merge_aggregates,
    );
    assert_golden("fig1 trace", &trace_folded(&ft), FIG1_TRACE_GOLDEN);
}
