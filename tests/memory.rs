//! Memory bounds on both engines. On the cycle engine, the two quick
//! cells that set the migration sweep's peak, SSSP under C-NUMA(real) and
//! under GRIT(real), must each stay under a heap budget. On the analytic
//! engine, the two largest captures plus folds, FDT and SSSP, must stay
//! under theirs at 2 jobs.
//!
//! The engine's time-indexed and per-warp state is meant to scale with
//! what is live: bucket windows one word per bucket from the clock to the
//! farthest booking, warp contexts for resident warps only (DESIGN.md
//! §15). The budgets are about 1.2x the heap peaks measured with that
//! design (`results/perf/live_state.txt`); the two-word windows and
//! per-started-warp contexts before it peaked at 45.2 MB and 33.4 MB and
//! fail here. `cargo run --release --example cell_memory` prints every
//! quick cell's peak.
//!
//! At 2 jobs an analytic replay is captured, and its fold built, in two
//! parts that are then merged (DESIGN.md §14). Its budgets are about
//! 1.2x the serial (1 job) heap peaks, 27.0 MB for FDT and 27.7 MB for
//! SSSP, so per-part buffers and the merge may not hold a second copy of
//! the replay or the fold.
//!
//! The allocator counts the whole process, so the tests take turns.

mod support {
    pub mod heap;
}

use clap_repro::bench::configs::ConfigKind;
use clap_repro::bench::experiments::{EngineKind, Harness};
use clap_repro::sim::{RunOutcome, Workload};
use clap_repro::workloads::suite;
use std::sync::{Mutex, PoisonError};
use support::heap;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

const MB: usize = 1 << 20;

/// Held by each test while it measures.
static TURN: Mutex<()> = Mutex::new(());

#[test]
fn quick_sssp_migration_cells_stay_under_their_heap_budgets() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
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

#[test]
fn quick_analytic_captures_on_two_jobs_stay_under_their_heap_budgets() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let mut over = Vec::new();
    for (w, budget_mb) in [(suite::fdt(), 32), (suite::sssp(), 33)] {
        // A fresh harness each: its replay cache starts empty.
        let h = Harness::quick()
            .with_engine(EngineKind::Analytic)
            .with_jobs(2);
        let (outcome, peak) = heap::peak_during(|| h.try_run(&w, ConfigKind::Clap));
        let stats = outcome
            .and_then(RunOutcome::completed)
            .unwrap_or_else(|e| panic!("{} under CLAP failed: {e}", w.name()));
        assert!(stats.mem_insts > 0);
        if peak >= budget_mb * MB {
            over.push(format!(
                "{} capture and fold at 2 jobs: heap peak {:.1} MB over its {budget_mb} MB budget",
                w.name(),
                peak as f64 / MB as f64
            ));
        }
    }
    assert!(over.is_empty(), "{}", over.join("; "));
}
