//! A memory bound on the cycle engine: the two quick cells that set the
//! migration sweep's peak, SSSP under C-NUMA(real) and under GRIT(real),
//! must each stay under a heap budget.
//!
//! The engine's time-indexed and per-warp state is meant to scale with
//! what is live: bucket windows one word per bucket from the clock to the
//! farthest booking, warp contexts for resident warps only (DESIGN.md
//! §15). The budgets are about 1.2x the heap peaks measured with that
//! design (`results/perf/live_state.txt`); the two-word windows and
//! per-started-warp contexts before it peaked at 45.2 MB and 33.4 MB and
//! fail here. `cargo run --release --example cell_memory` prints every
//! quick cell's peak.

mod support {
    pub mod heap;
}

use clap_repro::bench::configs::ConfigKind;
use clap_repro::bench::experiments::Harness;
use clap_repro::sim::RunOutcome;
use clap_repro::workloads::suite;
use support::heap;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

const MB: usize = 1 << 20;

#[test]
fn quick_sssp_migration_cells_stay_under_their_heap_budgets() {
    let h = Harness::quick();
    let sssp = suite::sssp();
    let mut over = Vec::new();
    // The cells run one after another: the allocator counts the process.
    for (kind, budget_mb) in [(ConfigKind::CNumaReal, 28), (ConfigKind::GritReal, 21)] {
        let (outcome, peak) = heap::peak_during(|| h.try_run(&sssp, kind));
        let stats = outcome
            .and_then(RunOutcome::completed)
            .unwrap_or_else(|e| panic!("SSSP under {} failed: {e}", kind.name()));
        assert!(stats.mem_insts > 0);
        if peak >= budget_mb * MB {
            over.push(format!(
                "SSSP under {}: heap peak {:.1} MB over its {budget_mb} MB budget",
                kind.name(),
                peak as f64 / MB as f64
            ));
        }
    }
    assert!(over.is_empty(), "{}", over.join("; "));
}
