//! `SweepRunner` edge cases at the integration level: sweeps over real
//! simulation cells, not toy closures. Covers the empty cell list, the
//! jobs=1 vs jobs>cells equivalence, and a sweep where one cell's run
//! degrades — the degradation must come back in the cell's own ordered
//! slot, not be swallowed or shuffled.

use mcm_bench::configs::ConfigKind;
use mcm_bench::runner::SweepRunner;
use mcm_sim::{
    run_outcome, AllocInfo, Directive, FaultCtx, PagingPolicy, RunOutcome, RunStats, SimConfig,
    SimError, WalkEvent,
};
use mcm_types::{PageSize, VirtAddr};
use mcm_workloads::{KernelSpec, Part, Pattern, SyntheticWorkload, WorkloadBuilder};

/// A small single-kernel workload so each sweep cell stays fast.
fn tiny_workload() -> SyntheticWorkload {
    WorkloadBuilder::new("runner-edge")
        .seed(7)
        .alloc("grid", 4 << 20)
        .kernel(KernelSpec {
            num_tbs: 16,
            warps_per_tb: 2,
            insts_per_mem: 4,
            line_reuse: 2,
            unique_lines: 64,
            passes: 1,
            parts: vec![Part::new(
                0,
                1.0,
                Pattern::Sliced {
                    period: 1 << 20,
                    halo: 0.05,
                },
            )],
        })
        .build()
}

fn run_cell(kind: ConfigKind) -> RunStats {
    let base = SimConfig::baseline().scaled(8);
    let (mut policy, cfg) = kind.build(&base);
    let w = tiny_workload();
    run_outcome(&cfg, &w, policy.as_mut(), None)
        .and_then(RunOutcome::completed)
        .unwrap_or_else(|e| panic!("{} cell failed: {e}", kind.name()))
}

fn key(s: &RunStats) -> (u64, u64, u64, u64, u64) {
    (
        s.cycles,
        s.mem_insts,
        s.remote_insts,
        s.walks,
        s.interconnect_transfers,
    )
}

/// An empty cell list maps to an empty result vector without spawning
/// anything, even with a worker-heavy runner and a simulation worker.
#[test]
fn empty_cell_list_yields_empty_results() {
    let cells: Vec<ConfigKind> = Vec::new();
    let out: Vec<RunStats> = SweepRunner::new(8).map(&cells, |_, &kind| run_cell(kind));
    assert!(out.is_empty());
}

/// jobs=1 and jobs>cells produce identical per-slot results: ordered
/// slots make worker count invisible in the output.
#[test]
fn serial_and_oversubscribed_sweeps_agree() {
    let cells = [
        ConfigKind::Static(PageSize::Size64K),
        ConfigKind::Static(PageSize::Size2M),
        ConfigKind::Clap,
    ];
    let serial = SweepRunner::new(1).map(&cells, |_, &kind| run_cell(kind));
    // More workers than cells: the pool must clamp, not deadlock or
    // reorder.
    let wide = SweepRunner::new(cells.len() + 5).map(&cells, |_, &kind| run_cell(kind));
    assert_eq!(serial.len(), cells.len());
    for (i, (s, w)) in serial.iter().zip(&wide).enumerate() {
        assert_eq!(
            key(s),
            key(w),
            "{}: slot {i} differs by job count",
            cells[i].name()
        );
    }
}

/// A policy wrapper that delegates everything to a stock policy but
/// injects one invalid directive (an unmap of a never-mapped VA) at the
/// first epoch, forcing the engine down the graceful-degradation path.
struct EpochVandal {
    inner: Box<dyn PagingPolicy>,
    fired: bool,
}

impl PagingPolicy for EpochVandal {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin(&mut self, allocs: &[AllocInfo], cfg: &SimConfig) {
        self.inner.begin(allocs, cfg);
    }

    fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
        self.inner.on_fault(ctx)
    }

    fn on_walk(&mut self, ev: &WalkEvent) {
        self.inner.on_walk(ev);
    }

    fn wants_access_samples(&self) -> bool {
        self.inner.wants_access_samples()
    }

    fn on_access(&mut self, ev: &WalkEvent) {
        self.inner.on_access(ev);
    }

    fn on_epoch(&mut self, cycle: u64) -> Vec<Directive> {
        let mut dirs = self.inner.on_epoch(cycle);
        if !self.fired {
            self.fired = true;
            // Far beyond any allocation: the page table rejects the
            // unmap, the engine degrades instead of aborting.
            dirs.push(Directive::Unmap {
                va: VirtAddr::new(1 << 45),
            });
        }
        dirs
    }

    fn on_kernel_end(&mut self, kernel: usize, cycle: u64) -> Vec<Directive> {
        self.inner.on_kernel_end(kernel, cycle)
    }

    fn ideal_migration(&self) -> bool {
        self.inner.ideal_migration()
    }
}

/// A sweep where exactly one cell degrades: the degraded statistics land
/// in that cell's slot with their typed error intact, and the neighbouring
/// cells come back clean — degradation is surfaced, not swallowed.
#[test]
fn degraded_cell_surfaces_in_its_own_slot() {
    let cells = [false, true, false]; // cell 1 gets the vandal
    let outcomes = SweepRunner::new(3).map(&cells, |_, &vandalize| {
        let base = SimConfig::baseline().scaled(8);
        let (inner, mut cfg) = ConfigKind::Static(PageSize::Size64K).build(&base);
        cfg.epoch_cycles = 2_000; // several epochs fire per run
        let w = tiny_workload();
        if vandalize {
            let mut policy = EpochVandal {
                inner,
                fired: false,
            };
            run_outcome(&cfg, &w, &mut policy, None)
        } else {
            let mut policy = inner;
            run_outcome(&cfg, &w, policy.as_mut(), None)
        }
        .unwrap_or_else(|e| panic!("sweep cell aborted: {e}"))
    });

    assert_eq!(outcomes.len(), 3);
    for (i, (outcome, &vandalize)) in outcomes.iter().zip(&cells).enumerate() {
        if vandalize {
            let stats = outcome.stats();
            assert!(
                stats.degradation.is_degraded(),
                "slot {i} must surface degradation"
            );
            let errors = &stats.degradation.errors;
            assert_eq!(
                stats.degradation.rejected_directives, 1,
                "exactly the injected directive is rejected"
            );
            assert!(
                !errors.is_empty(),
                "the typed error behind the rejection is sampled"
            );
        } else {
            assert!(
                matches!(outcome, RunOutcome::Completed(s) if !s.degradation.is_degraded()),
                "slot {i} must stay clean"
            );
        }
    }

    // Degradation never tampers with the simulated work itself: the
    // degraded cell still simulates the same instruction stream.
    let clean = outcomes[0].stats();
    let dinged = outcomes[1].stats();
    assert_eq!(clean.mem_insts, dinged.mem_insts);
}
