//! Probe invariants on four quick cells, each run five times: unobserved,
//! twice under the stage-tracing probe and twice under the metrics probe.
//!
//! The cells cover the counting paths that live at their own sites:
//! STE and 3DC under S-64KB (faulting, walking, interconnect traffic),
//! BFS under CLAP (promotions) and the two-kernel GEMM under
//! CLAP+migration (migration transfers, shootdowns). Probes observe the one counter registry the
//! run's statistics are folded from, so every reconciliation below is
//! exact: the probes never change a result, repeated probed runs are
//! identical, the stage histograms and traffic matrix match the counters,
//! and the interval series partitions the final registry.

use clap_repro::bench::configs::ConfigKind;
use clap_repro::bench::experiments::Harness;
use clap_repro::bench::telemetry::stats_to_json;
use clap_repro::sim::{
    Counter, Counters, LinkTraffic, MetricsProbe, Probe, RunMetrics, RunOutcome, RunStats,
    RunTrace, TraceStage, Workload,
};
use clap_repro::types::PageSize;
use clap_repro::workloads::{suite, SyntheticWorkload};

fn workload(name: &str) -> SyntheticWorkload {
    suite::by_name(name).unwrap_or_else(|| panic!("no workload {name}"))
}

fn run_cell<P: Probe>(w: &SyntheticWorkload, kind: ConfigKind, probe: &mut P) -> RunStats {
    let h = Harness::quick();
    let name = w.name();
    h.run_cell(&h.prep(w), &kind.into(), probe)
        .and_then(RunOutcome::completed)
        .unwrap_or_else(|e| panic!("{name} failed: {e}"))
}

/// Runs the cell under every probe, checks the probes do not perturb
/// the run and are deterministic, and returns what they observed.
fn observe(w: &SyntheticWorkload, kind: ConfigKind) -> (RunStats, RunTrace, RunMetrics) {
    let name = w.name();
    let plain = run_cell(w, kind, &mut ());
    let json = stats_to_json(&plain);
    let mut traces = [RunTrace::default(), RunTrace::default()];
    let mut metrics = [MetricsProbe::default(), MetricsProbe::default()];
    for t in &mut traces {
        let s = run_cell(w, kind, t);
        assert_eq!(stats_to_json(&s), json, "{name}: tracing changed the run");
    }
    for m in &mut metrics {
        let s = run_cell(w, kind, m);
        assert_eq!(stats_to_json(&s), json, "{name}: metering changed the run");
    }
    let [t1, t2] = traces;
    assert_eq!(t1, t2, "{name}: traced runs are not deterministic");
    let [m1, m2] = metrics.map(MetricsProbe::into_metrics);
    assert_eq!(m1, m2, "{name}: metered runs are not deterministic");
    assert!(
        plain.mem_insts > 0 && plain.walks > 0,
        "{name}: workload ran"
    );
    (plain, t1, m1)
}

/// The trace's histograms reconcile with the counters.
fn check_trace(name: &str, s: &RunStats, trace: &RunTrace) {
    let hist = |stage| trace.hist(stage);
    assert_eq!(hist(TraceStage::Walk).count(), s.walks, "{name}: walks");
    assert_eq!(hist(TraceStage::Walk).sum(), s.walk_cycles, "{name}");
    assert_eq!(hist(TraceStage::Translate).sum(), s.translation_cycles);
    assert_eq!(hist(TraceStage::Data).sum(), s.data_cycles, "{name}");
    // One translate and one data sample per completed access (`mem_insts`
    // is scaled by line reuse, so the stages are matched to each other).
    assert_eq!(
        hist(TraceStage::Translate).count(),
        hist(TraceStage::Data).count(),
        "{name}: translate vs data sample counts"
    );
    assert_eq!(hist(TraceStage::Fault).count(), s.faults, "{name}: faults");
}

/// The metrics' registry, traffic matrix and series reconcile with the
/// counters.
fn check_metrics(name: &str, s: &RunStats, m: &RunMetrics) {
    for c in Counter::ALL {
        assert_eq!(m.counters().total(c), s.counter(c), "{name}: {}", c.name());
    }
    assert_eq!(m.counters().row(Counter::DramAccesses), s.dram_per_chiplet);

    // Every crossing is tallied once; marginals re-sum to the total, the
    // diagonal stays empty, and each transfer routes at least one hop.
    let n = m.num_chiplets();
    assert_eq!(m.transfers(), s.interconnect_transfers, "{name}: matrix");
    let (mut rows, mut cols, mut hops, mut queued) = (0, 0, 0, 0);
    for c in 0..n {
        let row = m.traffic_row(c);
        // The registry counts each transfer and its link queueing on the
        // sending chiplet: row `c` of the matrix.
        let sent = m.count(c, Counter::InterconnectTransfers);
        assert_eq!(sent, row.transfers, "{name}: chiplet {c} transfers");
        let waited = m.count(c, Counter::InterconnectQueueCycles);
        assert_eq!(waited, row.queue_cycles, "{name}: chiplet {c} queueing");
        rows += row.transfers;
        hops += row.hops;
        queued += row.queue_cycles;
        cols += (0..n).map(|src| m.traffic(src, c).transfers).sum::<u64>();
        assert_eq!(m.traffic(c, c), LinkTraffic::default(), "{name}: diagonal");
    }
    assert_eq!(rows, s.interconnect_transfers, "{name}: row marginals");
    assert_eq!(cols, s.interconnect_transfers, "{name}: column marginals");
    assert_eq!(queued, s.interconnect_queue_cycles, "{name}: queue cycles");
    assert!(
        hops >= s.interconnect_transfers,
        "{name}: hops per transfer"
    );

    // The interval series partitions the final registry, in cycle order.
    let mut summed = Counters::default();
    let mut prev = 0;
    for f in m.series() {
        summed.absorb(&f.deltas);
        assert!(
            f.cycle >= prev && f.cycle <= s.cycles,
            "{name}: frame cycle"
        );
        prev = f.cycle;
    }
    assert_eq!(&summed, m.counters(), "{name}: series deltas vs registry");
    assert!(
        m.series().len() > 1,
        "{name}: a cell spans several intervals"
    );
}

fn check_cell(w: SyntheticWorkload, kind: ConfigKind) -> RunStats {
    let name = w.name();
    let (s, trace, m) = observe(&w, kind);
    check_trace(name, &s, &trace);
    check_metrics(name, &s, &m);
    assert!(s.interconnect_transfers > 0, "{name}: crosses chiplets");
    s
}

#[test]
fn ste_static_64k_reconciles_exactly() {
    check_cell(suite::ste(), ConfigKind::Static(PageSize::Size64K));
}

#[test]
fn threedc_static_64k_reconciles_exactly() {
    check_cell(workload("3DC"), ConfigKind::Static(PageSize::Size64K));
}

#[test]
fn bfs_clap_reconciles_promotions() {
    let s = check_cell(workload("BFS"), ConfigKind::Clap);
    assert!(s.promotions > 0, "CLAP promotes some of BFS's groups");
}

#[test]
fn gemm_reuse_migration_reconciles_migrations_and_shootdowns() {
    let s = check_cell(suite::gemm_reuse(), ConfigKind::ClapMigration);
    assert!(s.migrations > 0, "migration transfers are exercised");
    assert!(s.shootdowns > 0, "migrations shoot down stale entries");
}
