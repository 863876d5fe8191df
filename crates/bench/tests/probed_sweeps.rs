//! The probed figure sweeps behind `figures trace` and `figures timeline`:
//! the traffic matrix carries the topology's routing, and timeline sweeps
//! are deterministic across worker counts and serialize to valid output.
//! (Per-cell reconciliation of the probes against `RunStats` lives in the
//! root `tests/probe.rs`.)

use mcm_bench::configs::ConfigKind;
use mcm_bench::experiments::{rerun, Harness};
use mcm_bench::telemetry::Json;
use mcm_sim::{run_with, MetricsProbe, RunMetrics, RunOutcome, SimConfig, TopologyKind};
use mcm_types::PageSize;
use mcm_workloads::{suite, FOOTPRINT_SCALE};

/// The traffic matrix must carry the hop count the topology's routing
/// assigns to each (src, dst) pair — hand-checked here on a 2×2 mesh,
/// where chiplets 0 and 3 (and 1 and 2) sit diagonal (2 hops) and every
/// other distinct pair is adjacent (1 hop).
#[test]
fn mesh_crossing_hops_match_topology_routing() {
    let mut base = SimConfig::baseline().scaled(FOOTPRINT_SCALE);
    base.topology = TopologyKind::Mesh2d { rows: 2, cols: 2 };
    let w = suite::by_name("STE").unwrap().with_tb_scale(1, 4);
    let (mut policy, cfg) = ConfigKind::Static(PageSize::Size64K).build(&base);
    let mut probe = MetricsProbe::default();
    let stats = match run_with(&cfg, &w, policy.as_mut(), None, &mut probe) {
        Ok(RunOutcome::Completed(s)) if !s.degradation.is_degraded() => s,
        other => panic!("expected a clean run, got {other:?}"),
    };
    let m = probe.into_metrics();
    assert_eq!(m.num_chiplets(), 4);
    assert_eq!(
        m.transfers(),
        stats.interconnect_transfers,
        "matrix total vs interconnect_transfers on a mesh"
    );
    let mut diagonal = 0;
    for src in 0..4 {
        for dst in 0..4 {
            let link = m.traffic(src, dst);
            // XY routing on a 2×2 grid: Manhattan distance, no wraparound.
            let (sr, sc) = (src / 2, src % 2);
            let (dr, dc) = (dst / 2, dst % 2);
            let expect = (sr.abs_diff(dr) + sc.abs_diff(dc)) as u64;
            assert_eq!(
                link.hops,
                link.transfers * expect,
                "{src}->{dst}: {} transfers routed {} hops, routing says {expect} each",
                link.transfers,
                link.hops
            );
            if expect == 2 {
                diagonal += link.transfers;
            }
        }
    }
    assert!(
        m.transfers() > 0,
        "STE under static 64KB paging crosses chiplets"
    );
    assert!(
        diagonal > 0,
        "a 4-chiplet run must see diagonal (2-hop) traffic"
    );
}

/// A timeline sweep is deterministic across worker counts: per-cell
/// series and folded per-column aggregates are identical serial and
/// fanned out, and each column fold re-derives from its cells.
#[test]
fn timeline_is_identical_serial_and_parallel() {
    let timeline = |h: &Harness| {
        rerun(
            h,
            "topo",
            MetricsProbe::into_metrics,
            RunMetrics::merge_aggregates,
        )
    };
    let serial = timeline(&Harness::quick());
    let parallel = timeline(&Harness::quick().with_jobs(4));
    assert_eq!(serial.cells, parallel.cells, "per-cell metrics diverge");
    assert_eq!(serial.merged, parallel.merged, "column folds diverge");

    for (c, merged) in serial.merged.iter().enumerate() {
        let mut again = RunMetrics::default();
        for r in 0..serial.rows.len() {
            again.merge_aggregates(serial.cell(r, c));
        }
        assert_eq!(&again, merged, "column {c} fold is not a plain re-fold");
        assert!(merged.series().is_empty(), "column {c} fold kept a series");
    }

    // The journal records carry each cell's outcome.
    let records = serial.journal_records("topo-timeline");
    assert_eq!(records.len(), serial.outcomes.len());
    assert!(records.iter().all(|r| !r.outcome.is_quarantined()));

    // The timeline JSON parses and its traffic matrix re-sums to the
    // engine's transfer counters; the CSV is rectangular.
    let doc = mcm_bench::report::timeline_json(&serial);
    let j = Json::parse(&doc).expect("timeline JSON must parse");
    let cols = j.get("columns").and_then(Json::as_arr).expect("columns");
    assert_eq!(cols.len(), serial.cols.len());
    for (c, col) in cols.iter().enumerate() {
        let want: u64 = (0..serial.rows.len())
            .map(|r| serial.cell_stats(r, c).interconnect_transfers)
            .sum();
        let got: u64 = col
            .get("traffic")
            .and_then(Json::as_arr)
            .expect("traffic array")
            .iter()
            .map(|l| l.get("transfers").and_then(Json::as_u64).expect("count"))
            .sum();
        assert_eq!(got, want, "column {c} traffic matrix vs summed stats");
    }
    let csv = mcm_bench::report::timeline_csv(&serial);
    let mut lines = csv.lines();
    let width = lines.next().expect("csv header").split(',').count();
    for (i, line) in lines.enumerate() {
        assert_eq!(line.split(',').count(), width, "csv row {i} column count");
    }
}
