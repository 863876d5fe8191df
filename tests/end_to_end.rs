//! Cross-crate end-to-end tests: the paper's headline claims, asserted at
//! reduced (quarter-threadblock) scale through the same experiment harness
//! that regenerates the figures.

use clap_repro::bench::configs::ConfigKind;
use clap_repro::bench::experiments::{CacheKind, Column, Harness};
use clap_repro::types::PageSize;
use clap_repro::workloads::suite;

fn h() -> Harness {
    Harness::quick()
}

#[test]
fn clap_beats_both_static_schemes_on_periodic_workloads() {
    // The paper's core claim (§5.1): CLAP outperforms S-64KB and S-2MB by
    // picking the chiplet-locality granularity. 3DC's groups are 64KB-sized;
    // STE's are 256KB-sized; both collapse under 2MB paging.
    let h = h();
    for name in ["3DC", "STE"] {
        let w = suite::by_name(name).expect("known");
        let s64 = h.run(&w, ConfigKind::Static(PageSize::Size64K));
        let s2m = h.run(&w, ConfigKind::Static(PageSize::Size2M));
        let clap = h.run(&w, ConfigKind::Clap);
        assert!(
            clap.speedup_over(&s64) > 1.0,
            "{name}: CLAP {} vs S-64KB {}",
            clap.cycles,
            s64.cycles
        );
        assert!(
            clap.speedup_over(&s2m) > 1.2,
            "{name}: CLAP {} vs S-2MB {}",
            clap.cycles,
            s2m.cycles
        );
        // And it does so *without* giving up locality (Fig. 18 line).
        assert!(
            clap.remote_ratio() < s2m.remote_ratio() - 0.3,
            "{name}: CLAP remote {:.3} vs S-2MB {:.3}",
            clap.remote_ratio(),
            s2m.remote_ratio()
        );
    }
}

#[test]
fn clap_tracks_ideal_closely() {
    // §5.1: the CLAP-to-Ideal gap is small (paper: 5.78% average).
    let h = h();
    for name in ["3DC", "BLK", "DWT"] {
        let w = suite::by_name(name).expect("known");
        let clap = h.run(&w, ConfigKind::Clap);
        let ideal = h.run(&w, ConfigKind::Ideal);
        let gap = ideal.speedup_over(&clap);
        assert!(
            gap < 1.15,
            "{name}: Ideal should be within ~15% of CLAP, gap {gap:.3}"
        );
    }
}

#[test]
fn grit_performs_like_static_64k() {
    // §5.1: "GRIT ... performance nearly identical to the static 64KB
    // paging scheme" (locality is already first-touch-good; no size
    // adaptation).
    let h = h();
    let w = suite::twodc();
    let s64 = h.run(&w, ConfigKind::Static(PageSize::Size64K));
    let grit = h.run(&w, ConfigKind::Grit);
    let ratio = grit.speedup_over(&s64);
    assert!(
        (0.93..=1.07).contains(&ratio),
        "GRIT/S-64KB speedup {ratio:.3} out of band"
    );
}

#[test]
fn ideal_cnuma_trails_clap() {
    // §5.1: CLAP outperforms Ideal C-NUMA (reactive splitting converges
    // slowly and pays shootdown churn).
    let h = h();
    let w = suite::threedc();
    let clap = h.run(&w, ConfigKind::Clap);
    let cnuma = h.run(&w, ConfigKind::CNuma);
    assert!(
        clap.speedup_over(&cnuma) > 1.1,
        "CLAP {} vs Ideal C-NUMA {}",
        clap.cycles,
        cnuma.cycles
    );
}

#[test]
fn remote_caching_gains_more_under_clap_than_under_s2m() {
    // Fig. 21's shape: CLAP reduces remote traffic before caching, so the
    // caching schemes retain more headroom *relative to their own
    // baseline* — and the combined configuration always beats cached
    // S-2MB.
    let h = h();
    let w = suite::ste();
    let s2m = ConfigKind::Static(PageSize::Size2M);
    let s2m_cached = h.run(&w, Column::cached(s2m, CacheKind::Nuba));
    let clap_cached = h.run(&w, Column::cached(ConfigKind::Clap, CacheKind::Nuba));
    assert!(
        clap_cached.speedup_over(&s2m_cached) > 1.2,
        "CLAP+NUBA {} vs S-2MB+NUBA {}",
        clap_cached.cycles,
        s2m_cached.cycles
    );
}

#[test]
fn migration_extension_wins_the_kernel_reuse_scenario() {
    // Fig. 20: CLAP+migration remaps the re-partitioned C* and beats plain
    // CLAP on the two-kernel GEMM.
    let h = h();
    let w = suite::gemm_reuse();
    let plain = h.run(&w, ConfigKind::Clap);
    let migr = h.run(&w, ConfigKind::ClapMigration);
    assert!(migr.migrations > 0, "migration extension must migrate");
    assert!(
        migr.speedup_over(&plain) > 1.0,
        "CLAP+migration {} vs CLAP {}",
        migr.cycles,
        plain.cycles
    );
    assert!(
        migr.remote_ratio() < plain.remote_ratio(),
        "migration must reduce remote accesses: {:.3} vs {:.3}",
        migr.remote_ratio(),
        plain.remote_ratio()
    );
}

#[test]
fn chiplet_locality_survey_is_high() {
    // Fig. 10: GPU data structures exhibit high chiplet-locality (paper
    // average 93.5%).
    let rows = clap_repro::bench::experiments::fig10();
    let avg: f64 = rows.perf.iter().map(|r| r[0]).sum::<f64>() / rows.perf.len() as f64;
    assert!(avg > 0.85, "mean chiplet-locality {avg:.3} too low");
}

#[test]
fn fragmentation_overhead_is_small() {
    // §4.7: CLAP's PF-block consumption is close to static paging's
    // (paper: +0.57% vs 64KB, +1.27% vs 2MB).
    let h = h();
    let w = suite::lps();
    let s64 = h.run(&w, ConfigKind::Static(PageSize::Size64K));
    let clap = h.run(&w, ConfigKind::Clap);
    let (a, b) = (
        s64.blocks_consumed.expect("reported") as f64,
        clap.blocks_consumed.expect("reported") as f64,
    );
    assert!(
        b <= a * 1.10,
        "CLAP consumes {b} PF blocks vs {a} under S-64KB"
    );
}

#[test]
fn eight_chiplet_margin_over_s2m_widens() {
    // Fig. 22: indiscriminate large pages get *worse* as chiplet count
    // grows, so CLAP's margin over S-2MB widens from 4 to 8 chiplets.
    let h = h();
    let w = suite::lps();
    let clap4 = h.run(&w, ConfigKind::Clap);
    let s2m4 = h.run(&w, ConfigKind::Static(PageSize::Size2M));
    let margin4 = clap4.speedup_over(&s2m4);
    let clap8 = clap_repro::bench::experiments::fig22_single(&h, "LPS");
    let w8 = w.clone().with_tb_scale(2, 1);
    let mut cfg8 =
        clap_repro::sim::SimConfig::eight_chiplets().scaled(clap_repro::workloads::FOOTPRINT_SCALE);
    cfg8.translation = clap_repro::sim::TranslationConfig::baseline();
    let mut pol = clap_repro::policies::s2m();
    let s2m8 = clap_repro::sim::run_outcome(&cfg8, &w8.with_tb_scale(1, 4), &mut pol, None)
        .and_then(clap_repro::sim::RunOutcome::completed)
        .expect("8-chiplet run");
    let margin8 = s2m8.cycles as f64 / clap8.cycles as f64;
    assert!(
        margin8 > margin4 * 0.9,
        "margin should not collapse at 8 chiplets: {margin8:.2} vs {margin4:.2}"
    );
}

#[test]
fn pmm_threshold_is_a_flat_knob() {
    // §4.2: "performance is largely insensitive to the PMM threshold"
    // (30% costs only ~1.3% in the paper).
    let h = h();
    let w = suite::lps();
    let base = h.run(&w, ConfigKind::Clap);
    for pct in [15u8, 30] {
        let s = h.run(&w, ConfigKind::ClapPmm(pct));
        let rel = s.speedup_over(&base);
        assert!(
            (0.9..=1.1).contains(&rel),
            "pmm {pct}%: relative speedup {rel:.3} out of band"
        );
    }
}

#[test]
fn rt_relaxation_is_what_gives_shared_structures_large_pages() {
    // Knocking out the Remote Tracker must not *help*; on shared-heavy
    // workloads it forfeits large pages for matrix-B-like structures.
    let h = h();
    let w = suite::sc();
    let with_rt = h.run(&w, ConfigKind::Clap);
    let without = h.run(&w, ConfigKind::ClapNoRt);
    assert!(
        with_rt.speedup_over(&without) > 0.95,
        "RT must not hurt: {} vs {}",
        with_rt.cycles,
        without.cycles
    );
}
