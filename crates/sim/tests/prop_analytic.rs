//! Property tests for the analytic fast-path engine (`mcm_sim::analytic`).
//!
//! The closed-form model admits real invariants that hold for *every*
//! workload shape, not just the calibrated quick grid:
//!
//! * the remote ratio is a probability, and the accounting identities
//!   between instruction and TLB counters always balance;
//! * under first-touch placement the prediction is invariant when the
//!   chiplet labels are permuted — ownership follows the schedule, so
//!   relabeling both sides changes nothing at all;
//! * a schedule that puts every threadblock on one chiplet has no remote
//!   traffic at all;
//! * refining a contiguous schedule (splitting every chiplet's block of
//!   threadblocks in two) can only break locality, never create it, so
//!   the remote access count is monotone along a refinement chain.

use proptest::prelude::*;

use mcm_sim::analytic::{PlacementModel, Replay};
use mcm_sim::{tb_chiplet, SimConfig, TileMapping, TiledGemm, Workload};
use mcm_types::PageSize;

fn cfg_for(chiplets: usize) -> SimConfig {
    let mut cfg = SimConfig::baseline().scaled(8);
    cfg.num_chiplets = chiplets;
    cfg
}

/// Random small GEMM shapes: enough variety to cover single-tile,
/// ragged, and blocked-mapping footprints while staying fast. Blocked
/// super-tiles must divide the grid, so those shapes are doubled.
fn gemm_strategy() -> impl Strategy<Value = TiledGemm> {
    (1usize..6, 1usize..6, 1usize..4, 0usize..2).prop_map(|(mt, nt, kt, mapping)| {
        if mapping == 0 {
            TiledGemm::new(mt, nt, kt, TileMapping::RowMajor)
        } else {
            TiledGemm::new(
                mt * 2,
                nt * 2,
                kt,
                TileMapping::Blocked { rows: 2, cols: 2 },
            )
        }
    })
}

fn placement_strategy() -> impl Strategy<Value = u8> {
    0u8..3
}

fn placement_for(kind: u8, w: &TiledGemm, chiplets: usize) -> PlacementModel {
    match kind {
        0 => PlacementModel::FirstTouch {
            page: PageSize::Size64K,
        },
        1 => PlacementModel::FirstTouch {
            page: PageSize::Size2M,
        },
        _ => PlacementModel::clap(w.allocs(), chiplets),
    }
}

proptest! {
    /// Remote ratio is a probability and the counter identities hold for
    /// every shape, placement model, and chiplet count.
    #[test]
    fn remote_ratio_within_unit_interval(
        w in gemm_strategy(),
        pk in placement_strategy(),
        chiplets in prop_oneof![Just(2usize), Just(4), Just(8)],
    ) {
        let cfg = cfg_for(chiplets);
        let pm = placement_for(pk, &w, chiplets);
        let s = Replay::capture(&w).predict(&cfg, &pm).unwrap();
        prop_assert!(s.mem_insts > 0);
        prop_assert!((0.0..=1.0).contains(&s.remote_ratio()));
        prop_assert!(s.remote_insts <= s.mem_insts);
        prop_assert_eq!(s.l1tlb_hits + s.l1tlb_misses, s.mem_insts);
        prop_assert_eq!(s.l2tlb_hits + s.l2tlb_misses, s.l1tlb_misses);
        prop_assert!(s.walks >= s.l2tlb_misses);
        prop_assert!(s.faults > 0);
    }

    /// Rotating every chiplet label leaves the whole prediction,
    /// per-structure counts included, unchanged under first-touch
    /// ownership: the owner of each granule is relabeled exactly like its
    /// consumers.
    #[test]
    fn first_touch_prediction_is_relabeling_invariant(
        w in gemm_strategy(),
        rot in 1usize..8,
    ) {
        let chiplets = 8;
        let cfg = cfg_for(chiplets);
        let pm = PlacementModel::FirstTouch { page: PageSize::Size64K };
        let base = Replay::capture(&w).predict(&cfg, &pm).unwrap();
        let rotated = Replay::capture(&w).predict_scheduled(&cfg, &pm, |tb, n| {
            (tb_chiplet(tb, n, chiplets) + rot) % chiplets
        })
        .unwrap();
        prop_assert_eq!(base, rotated);
    }

    /// If every threadblock runs on chiplet 0, every first touch and
    /// every subsequent access is on chiplet 0: the footprint fits one
    /// chiplet's locality domain and nothing crosses the interconnect.
    #[test]
    fn single_chiplet_schedule_has_no_remote_traffic(
        w in gemm_strategy(),
        pk in placement_strategy(),
    ) {
        let chiplets = 8;
        let cfg = cfg_for(chiplets);
        // Static analysis places by address, not by toucher, so only the
        // first-touch family guarantees zero remote here.
        let pm = placement_for(pk.min(1), &w, chiplets);
        let s = Replay::capture(&w).predict_scheduled(&cfg, &pm, |_, _| 0).unwrap();
        prop_assert_eq!(s.remote_insts, 0);
        prop_assert_eq!(s.interconnect_transfers, 0);
        prop_assert_eq!(s.remote_ratio(), 0.0);
    }

    /// Contiguous schedules over 1, 2, 4, 8 chiplets form a refinement
    /// chain (each chiplet's threadblock range splits in two at every
    /// step). Refinement can separate a consumer from a granule's first
    /// toucher but never reunite one, so remote accesses are monotone
    /// non-decreasing as the work spreads.
    #[test]
    fn remote_accesses_monotone_as_work_spreads(
        w in gemm_strategy(),
        page2m in prop_oneof![Just(false), Just(true)],
    ) {
        let cfg = cfg_for(8);
        let page = if page2m { PageSize::Size2M } else { PageSize::Size64K };
        let pm = PlacementModel::FirstTouch { page };
        let mut prev = 0u64;
        for k in [1usize, 2, 4, 8] {
            let s = Replay::capture(&w).predict_scheduled(&cfg, &pm, move |tb, n| {
                (tb.index() * k) / n as usize
            })
            .unwrap();
            prop_assert!(
                s.remote_insts >= prev,
                "spreading to {} chiplets reduced remote accesses: {} < {}",
                k, s.remote_insts, prev
            );
            prev = s.remote_insts;
        }
    }
}
