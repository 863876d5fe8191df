//! Reproducibility: every simulation is deterministic — identical runs
//! yield identical statistics, which is what makes the regenerated figures
//! stable artefacts.

use clap_repro::bench::configs::ConfigKind;
use clap_repro::bench::experiments::{grid, Harness};
use clap_repro::bench::report::csv_string;
use clap_repro::types::PageSize;
use clap_repro::workloads::suite;

#[test]
fn repeated_runs_are_bit_identical() {
    let h = Harness::quick();
    for kind in [
        ConfigKind::Static(PageSize::Size64K),
        ConfigKind::Clap,
        ConfigKind::CNuma,
    ] {
        let w = suite::ste();
        let a = h.run(&w, kind);
        let b = h.run(&w, kind);
        assert_eq!(a.cycles, b.cycles, "{:?} cycles differ", kind);
        assert_eq!(a.mem_insts, b.mem_insts);
        assert_eq!(a.remote_insts, b.remote_insts);
        assert_eq!(a.l2tlb_misses, b.l2tlb_misses);
        assert_eq!(a.walks, b.walks);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.promotions, b.promotions);
        assert_eq!(a.migrations, b.migrations);
    }
}

/// The parallel sweep runner must be invisible in the results: the same
/// experiment run with 4 workers serializes to the serial run's golden
/// bytes (cells are independent and collected in submission order).
/// `tests/golden.rs` pins the serial grids; `scripts/ci.sh` compares the
/// rendered tables of `--jobs 1` and `--jobs 4` runs.
#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let parallel = grid(&Harness::quick().with_jobs(4), "fig1");
    assert_eq!(
        csv_string(&parallel),
        include_str!("goldens/fig1_quick.csv"),
        "CSV bytes must not depend on the worker count"
    );
}

/// The topology sweep builds per-cell machine configurations (chiplet
/// count + fabric) inside the sweep closure; that must be as
/// worker-count-invisible as the fixed-machine figures.
#[test]
fn topo_sweep_is_byte_identical_to_serial() {
    let parallel = grid(&Harness::quick().with_jobs(4), "topo");
    assert_eq!(
        csv_string(&parallel),
        include_str!("goldens/topo_quick.csv"),
        "topo CSV bytes must not depend on the worker count"
    );
}

#[test]
fn workload_streams_are_stable_across_clones() {
    use clap_repro::sim::Workload;
    use clap_repro::types::{TbId, WarpId};
    let w1 = suite::bfs();
    let w2 = suite::bfs();
    for tb in [0u32, 100, 4000] {
        assert_eq!(
            w1.warp_accesses(0, TbId::new(tb), WarpId::new(3)),
            w2.warp_accesses(0, TbId::new(tb), WarpId::new(3))
        );
    }
}
