//! Table 4 shape: the page sizes CLAP selects for representative
//! structures, end-to-end through the simulator (quarter scale).

use clap_repro::bench::configs::ConfigKind;
use clap_repro::clap::Clap;
use clap_repro::sim::{run_outcome, RunOutcome, Workload};
use clap_repro::types::PageSize;
use clap_repro::workloads::{suite, SyntheticWorkload};

fn selections(w: &SyntheticWorkload) -> Vec<(String, Option<PageSize>)> {
    let base =
        clap_repro::sim::SimConfig::baseline().scaled(clap_repro::workloads::FOOTPRINT_SCALE);
    let (_, cfg) = ConfigKind::Clap.build(&base);
    let scaled = w.clone().with_tb_scale(1, 4);
    let mut clap = Clap::new();
    run_outcome(&cfg, &scaled, &mut clap, None)
        .and_then(RunOutcome::completed)
        .expect("run succeeds");
    w.allocs()
        .iter()
        .map(|a| (a.name.clone(), clap.effective_size(a.id)))
        .collect()
}

fn size_of(sel: &[(String, Option<PageSize>)], name: &str) -> PageSize {
    sel.iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, s)| *s)
        .unwrap_or_else(|| panic!("{name} has no effective size"))
}

#[test]
fn ste_selects_its_256k_locality_groups() {
    let sel = selections(&suite::ste());
    assert_eq!(size_of(&sel, "grid-in"), PageSize::Size256K, "{sel:?}");
    assert_eq!(size_of(&sel, "grid-out"), PageSize::Size256K, "{sel:?}");
}

#[test]
fn threedc_keeps_fine_grained_64k() {
    let sel = selections(&suite::threedc());
    assert_eq!(size_of(&sel, "vol-in"), PageSize::Size64K, "{sel:?}");
}

#[test]
fn paf_selects_the_intermediate_128k() {
    // The paper's headline oddity: pathfinder's ~2GB input wants 128KB
    // pages (Table 4 / §3.3).
    let sel = selections(&suite::paf());
    assert_eq!(size_of(&sel, "wall"), PageSize::Size128K, "{sel:?}");
}

#[test]
fn block_partitioned_workloads_reach_2m() {
    let sel = selections(&suite::fdt());
    for s in ["ex", "ey", "hz"] {
        assert_eq!(size_of(&sel, s), PageSize::Size2M, "{sel:?}");
    }
}

#[test]
fn gemm_matrix_b_reaches_2m_via_rt_relaxation() {
    // Matrix B is globally shared: its mapping tree is scattered, but the
    // Remote Tracker's high remote ratio relaxes the threshold (Eq. 4) so
    // MMA still picks 2MB.
    let sel = selections(&suite::gpt3());
    assert_eq!(size_of(&sel, "matrix-B"), PageSize::Size2M, "{sel:?}");
    assert_eq!(size_of(&sel, "matrix-A"), PageSize::Size2M, "{sel:?}");
}

#[test]
fn vit_small_matrix_a_falls_back_to_fine_olp() {
    // ViT's matrix A is too small for reliable analysis and is touched by
    // several chiplets per block: OLP keeps it at 64KB (Table 4).
    let sel = selections(&suite::vit());
    assert_eq!(size_of(&sel, "matrix-A"), PageSize::Size64K, "{sel:?}");
    assert_eq!(size_of(&sel, "matrix-B"), PageSize::Size2M, "{sel:?}");
}

#[test]
fn lud_reaches_2m_through_olp_despite_failed_analysis() {
    // LUD's sparse sweeps leave every VA block partially mapped at the PMM
    // threshold; MMA fails, but OLP's speculative reservations survive
    // (no foreign touches) and eventually promote (Table 4, §5.1).
    let w = suite::lud();
    let base =
        clap_repro::sim::SimConfig::baseline().scaled(clap_repro::workloads::FOOTPRINT_SCALE);
    let (_, cfg) = ConfigKind::Clap.build(&base);
    let scaled = w.clone().with_tb_scale(1, 4);
    let mut clap = Clap::new();
    run_outcome(&cfg, &scaled, &mut clap, None)
        .and_then(RunOutcome::completed)
        .expect("run succeeds");
    let id = w.allocs()[0].id;
    assert!(clap.used_olp_fallback(id), "MMA must fail for LUD");
    assert_eq!(clap.effective_size(id), Some(PageSize::Size2M));
}
