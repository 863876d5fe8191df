//! End-to-end integration: suite workloads through the full simulator
//! under baseline policies. These tests pin the qualitative *shapes* the
//! paper's motivation (§1, §3.3) rests on.

use mcm_policies::{s2m, s64k, sa_64k, Nuba};
use mcm_sim::{run_outcome, PagingPolicy, RunOutcome, RunStats, SimConfig, TranslationConfig};
use mcm_workloads::{suite, SyntheticWorkload, FOOTPRINT_SCALE};

fn cfg() -> SimConfig {
    SimConfig::baseline().scaled(FOOTPRINT_SCALE)
}

/// Runs at quarter threadblock scale to keep the suite fast; the asserted
/// shapes are scale-robust.
fn run_with(w: &SyntheticWorkload, mut policy: impl PagingPolicy) -> RunStats {
    let w = w.clone().with_tb_scale(1, 4);
    run_outcome(&cfg(), &w, &mut policy, None)
        .and_then(RunOutcome::completed)
        .expect("run succeeds")
}

#[test]
fn ste_small_pages_keep_accesses_local() {
    let w = suite::ste();
    let small = run_with(&w, s64k());
    assert!(small.mem_insts > 100_000, "workload produced real traffic");
    assert!(
        small.remote_ratio() < 0.15,
        "64KB first-touch should be mostly local, got {:.3}",
        small.remote_ratio()
    );
    assert!(small.faults > 0);
    assert!(small.cycles > 0);
}

#[test]
fn ste_large_pages_inflate_remote_ratio() {
    let w = suite::ste();
    let small = run_with(&w, s64k());
    let large = run_with(&w, s2m());
    assert!(
        large.remote_ratio() > small.remote_ratio() + 0.2,
        "2MB paging must misplace STE data: 64KB {:.3} vs 2MB {:.3}",
        small.remote_ratio(),
        large.remote_ratio()
    );
    // And that misplacement must cost performance.
    assert!(
        small.speedup_over(&large) > 1.05,
        "64KB should beat 2MB on STE: {} vs {} cycles",
        small.cycles,
        large.cycles
    );
}

#[test]
fn blk_partitioned_workload_prefers_large_pages() {
    let w = suite::blk();
    let small = run_with(&w, s64k());
    let large = run_with(&w, s2m());
    // Block-partitioned structures stay local even at 2MB...
    assert!(
        large.remote_ratio() < small.remote_ratio() + 0.05,
        "2MB should not inflate BLK remote ratio: {:.3} vs {:.3}",
        small.remote_ratio(),
        large.remote_ratio()
    );
    // ...and translation gets no more expensive (usually cheaper).
    assert!(
        large.avg_translation_latency() <= small.avg_translation_latency() * 1.05,
        "2MB should not inflate translation latency: {:.1} vs {:.1}",
        small.avg_translation_latency(),
        large.avg_translation_latency()
    );
    assert!(
        large.speedup_over(&small) > 0.97,
        "2MB should be at least competitive on BLK: {} vs {} cycles",
        large.cycles,
        small.cycles
    );
}

#[test]
fn larger_pages_reduce_tlb_misses_everywhere() {
    let w = suite::dwt();
    let small = run_with(&w, s64k());
    let large = run_with(&w, s2m());
    assert!(
        large.l2tlb_mpki() < small.l2tlb_mpki(),
        "2MB must cut TLB MPKI: {:.2} vs {:.2}",
        small.l2tlb_mpki(),
        large.l2tlb_mpki()
    );
}

#[test]
fn fault_counts_are_page_size_independent() {
    // Fig. 5's frame reservation keeps demand granularity at 64KB for all
    // sizes, so fault counts must match (same pages touched).
    let w = suite::ste();
    let small = run_with(&w, s64k());
    let large = run_with(&w, s2m());
    assert_eq!(small.faults, large.faults);
}

#[test]
fn promotions_happen_under_2m_paging_only() {
    let w = suite::blk();
    let small = run_with(&w, s64k());
    let large = run_with(&w, s2m());
    assert_eq!(small.promotions, 0);
    assert!(
        large.promotions > 0,
        "2MB paging should promote full blocks"
    );
}

#[test]
fn sa_placement_matches_ft_on_regular_workloads() {
    let w = suite::twodc();
    let ft = run_with(&w, s64k());
    let sa = run_with(&w, sa_64k());
    // Both place partitioned data well.
    assert!(ft.remote_ratio() < 0.15);
    assert!(sa.remote_ratio() < 0.20);
}

#[test]
fn sa_fails_on_irregular_workloads() {
    let w = suite::paf();
    let ft = run_with(&w, s64k());
    let sa = run_with(&w, sa_64k());
    assert!(
        sa.remote_ratio() > ft.remote_ratio() + 0.2,
        "static analysis cannot place irregular data: FT {:.3} vs SA {:.3}",
        ft.remote_ratio(),
        sa.remote_ratio()
    );
}

#[test]
fn remote_caching_recovers_part_of_2m_misplacement() {
    let w = suite::ste().with_tb_scale(1, 4);
    // `run_with` scales by another 1/4; scale the cached run identically so
    // both sides execute the same workload.
    let plain = run_with(&w, s2m());
    let cfgv = cfg();
    let mut nuba = Nuba::for_config(&cfgv);
    let mut pol = s2m();
    let cached = run_outcome(
        &cfgv,
        &w.clone().with_tb_scale(1, 4),
        &mut pol,
        Some(&mut nuba),
    )
    .and_then(RunOutcome::completed)
    .expect("run succeeds");
    assert!(cached.remote_cache_hits > 0);
    assert!(
        cached.speedup_over(&plain) > 1.0,
        "NUBA should help 2MB paging: {} vs {} cycles",
        cached.cycles,
        plain.cycles
    );
}

#[test]
fn ideal_translation_upper_bounds_static_64k() {
    let w = suite::ste().with_tb_scale(1, 4);
    let base = run_with(&w, s64k());
    let mut icfg = cfg();
    icfg.translation = TranslationConfig {
        ideal_2m_reach: true,
        ..TranslationConfig::baseline()
    };
    let mut pol = mcm_policies::ideal();
    let ideal = run_outcome(&icfg, &w.clone().with_tb_scale(1, 4), &mut pol, None)
        .and_then(RunOutcome::completed)
        .expect("run succeeds");
    // Same placement => same locality; magically bigger TLB reach => fewer
    // walks and at least equal performance.
    assert!((ideal.remote_ratio() - base.remote_ratio()).abs() < 0.02);
    assert!(ideal.l2tlb_misses < base.l2tlb_misses);
    assert!(ideal.speedup_over(&base) >= 1.0);
}

#[test]
fn eight_chiplet_machine_runs_the_subset() {
    let w = suite::fdt().with_tb_scale(1, 2);
    let mut c8 = SimConfig::eight_chiplets().scaled(FOOTPRINT_SCALE);
    c8.epoch_cycles = u64::MAX; // no reactive policies here
    let mut pol = s64k();
    let s = run_outcome(&c8, &w, &mut pol, None)
        .and_then(RunOutcome::completed)
        .expect("run succeeds");
    assert!(s.mem_insts > 0);
    assert!(s.remote_ratio() < 0.2);
}
