//! Chaos engineering for the simulation engine: every stock policy of the
//! main evaluation must survive seeded directive tampering — dropped,
//! duplicated, misaligned, and cross-chiplet directives, bogus promotions,
//! and directive floods — with **zero panics**. Every injected fault must
//! surface as a typed `SimError` (a rejected-directive degradation or a
//! structured abort), never as a process crash.
//!
//! Also exercises the capacity-pressure path: an over-subscribed chiplet
//! completes its run by falling back to least-loaded remote frames.

use mcm_bench::configs::ConfigKind;
use mcm_bench::runner::SweepRunner;
use mcm_mem::FrameAllocator;
use mcm_sim::{
    run_outcome, AllocInfo, ChaosConfig, ChaosPolicy, ChaosStats, Directive, FaultCtx,
    PagingPolicy, RunOutcome, RunStats, SimConfig, SimError,
};
use mcm_types::{ChipletId, PageSize};
use mcm_workloads::{KernelSpec, Part, Pattern, SyntheticWorkload, WorkloadBuilder};
use proptest::prelude::*;

/// A small two-structure workload: one sliced (stencil-like), one shared.
/// Small enough that a full chaos sweep (policies x seeds) stays fast.
fn tiny_workload(seed: u64) -> SyntheticWorkload {
    WorkloadBuilder::new("chaos-tiny")
        .seed(seed)
        .alloc("grid", 4 << 20)
        .alloc("table", 2 << 20)
        .kernel(KernelSpec {
            num_tbs: 32,
            warps_per_tb: 2,
            insts_per_mem: 4,
            line_reuse: 2,
            unique_lines: 64,
            passes: 1,
            parts: vec![
                Part::new(
                    0,
                    0.7,
                    Pattern::Sliced {
                        period: 1 << 20,
                        halo: 0.05,
                    },
                ),
                Part::new(1, 0.3, Pattern::SharedSweep),
            ],
        })
        .build()
}

/// Runs `kind` under chaos with the given seed. Returns the injection
/// stats plus the run stats when the run completed (a typed abort yields
/// `None`; a panic fails the test).
fn chaos_run(kind: ConfigKind, seed: u64) -> (ChaosStats, Option<RunStats>) {
    let base = SimConfig::baseline().scaled(8);
    let (policy, mut cfg) = kind.build(&base);
    cfg.epoch_cycles = 2_000; // several epochs => epoch-level injections fire
    cfg.audit_epochs = true; // cross-checks table/TLB/free-list coherence
    let mut chaotic = ChaosPolicy::new(policy, ChaosConfig::with_seed(seed));
    let w = tiny_workload(seed ^ 0x9e37_79b9);
    let stats = run_outcome(&cfg, &w, &mut chaotic, None)
        .and_then(RunOutcome::completed)
        .ok();
    (chaotic.stats(), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// >= 100 seeds x all nine stock policies: no panic, and every
    /// deterministically-rejectable injection shows up in the run's
    /// rejected-directive counter. The nine config cells are independent
    /// runs, so they fan out over a `SweepRunner` (which also exercises
    /// the whole machine's `Send`-ability under real concurrency).
    #[test]
    fn all_stock_policies_survive_injected_faults(seed in 0u64..1_000_000) {
        let kinds = ConfigKind::main_eval();
        let results = SweepRunner::new(4).map(&kinds, |_, &kind| chaos_run(kind, seed));
        for (kind, (chaos, stats)) in kinds.iter().zip(results) {
            if let Some(stats) = stats {
                prop_assert!(
                    stats.degradation.rejected_directives >= chaos.must_reject(),
                    "{}: {} injected faults must be rejected, saw {} rejections",
                    kind.name(),
                    chaos.must_reject(),
                    stats.degradation.rejected_directives
                );
            }
            // Whether the run completed degraded or aborted with a typed
            // error, the process survived — which is the contract.
        }
    }
}

/// The injections actually fire: across a handful of seeds, every
/// category triggers at least once and the runs absorb them.
#[test]
fn chaos_injections_fire_and_surface() {
    let mut total = ChaosStats::default();
    let mut degraded_runs = 0u64;
    let seeds: Vec<u64> = (0..20).collect();
    let runs = SweepRunner::new(4).map(&seeds, |_, &seed| chaos_run(ConfigKind::Clap, seed));
    for (chaos, stats) in runs {
        total.duplicated_maps += chaos.duplicated_maps;
        total.misaligned_maps += chaos.misaligned_maps;
        total.bogus_promotes += chaos.bogus_promotes;
        total.cross_migrates += chaos.cross_migrates;
        total.dropped_directives += chaos.dropped_directives;
        total.flooded_unmaps += chaos.flooded_unmaps;
        if let Some(stats) = stats {
            if stats.degradation.is_degraded() {
                degraded_runs += 1;
            }
        }
    }
    assert!(total.duplicated_maps > 0, "no duplicate maps injected");
    assert!(total.misaligned_maps > 0, "no misaligned maps injected");
    assert!(total.bogus_promotes > 0, "no bogus promotions injected");
    assert!(total.flooded_unmaps > 0, "no unmap floods injected");
    assert!(total.total() > 0);
    assert!(
        degraded_runs > 0,
        "chaos never degraded a single run out of 20"
    );
}

/// First-touch policy that pins every frame to chiplet 0 so the chiplet's
/// free list drains; the allocator's least-loaded fallback must absorb the
/// pressure and the run must still complete.
struct PinnedFirstTouch {
    allocator: Option<FrameAllocator>,
}

impl PagingPolicy for PinnedFirstTouch {
    fn name(&self) -> &str {
        "pinned-chiplet0"
    }

    fn begin(&mut self, _allocs: &[AllocInfo], cfg: &SimConfig) {
        self.allocator = Some(FrameAllocator::new(cfg.layout(), cfg.pf_blocks_per_chiplet));
    }

    fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
        let Some(a) = self.allocator.as_mut() else {
            return Err(SimError::PolicyViolation {
                reason: "on_fault before begin()".into(),
            });
        };
        let (pa, _) = a
            .alloc_frame_or_fallback(ChipletId::new(0), PageSize::Size64K, ctx.alloc)
            .map_err(|e| SimError::PolicyViolation {
                reason: e.to_string(),
            })?;
        Ok(vec![Directive::Map {
            va: ctx.va,
            pa,
            size: PageSize::Size64K,
            alloc: ctx.alloc,
        }])
    }

    fn frame_fallbacks(&self) -> u64 {
        self.allocator
            .as_ref()
            .map_or(0, |a| a.stats().chiplet_fallbacks)
    }
}

#[test]
fn over_subscribed_chiplet_falls_back_and_completes() {
    // 8MB footprint, but each chiplet only holds 2 blocks (4MB): pinning
    // everything to chiplet 0 over-subscribes it at the halfway mark.
    let w = WorkloadBuilder::new("oversubscribed")
        .alloc("a", 8 << 20)
        .kernel(KernelSpec {
            num_tbs: 16,
            warps_per_tb: 2,
            insts_per_mem: 4,
            line_reuse: 2,
            unique_lines: 512,
            passes: 1,
            parts: vec![Part::new(0, 1.0, Pattern::Uniform)],
        })
        .build();
    let mut cfg = SimConfig::baseline().scaled(8);
    cfg.pf_blocks_per_chiplet = 2;
    let mut p = PinnedFirstTouch { allocator: None };
    let stats = run_outcome(&cfg, &w, &mut p, None)
        .and_then(RunOutcome::completed)
        .expect("over-subscription must degrade, not fail");
    assert!(
        stats.degradation.fallback_remote_frames > 0,
        "exhausting chiplet 0 must spill frames to remote chiplets"
    );
    assert!(stats.degradation.is_degraded());
    assert!(stats.mem_insts > 0);
}
