//! Quickstart: build a synthetic MCM-GPU workload, inspect the
//! chiplet-locality analysis CLAP runs on it, then simulate it under
//! static paging and under CLAP.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use clap_repro::clap::{Clap, LocalityTree};
use clap_repro::policies::{s2m, s64k};
use clap_repro::sim::{run_outcome, RunStats, SimConfig};
use clap_repro::types::{ChipletId, PageSize};
use clap_repro::workloads::{KernelSpec, Part, Pattern, WorkloadBuilder, FOOTPRINT_SCALE};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The analysis itself (paper Fig. 15) -------------------------
    // A VA block whose 64KB pages rotate chiplets every four pages has
    // 256KB chiplet-locality: MMA picks level 2.
    let mut tree = LocalityTree::new();
    for leaf in 0..32 {
        tree.set_leaf(leaf, ChipletId::new(((leaf / 4) % 4) as u8));
    }
    println!("tree locality level  : {:?}", tree.locality_level(1.0));
    println!("selected page size   : {:?}", tree.selected_size(1.0));
    // A shared structure (75% remote) relaxes the threshold (Eq. 4):
    println!("with RT ratio 0.75   : {:?}\n", tree.selected_size(0.25));

    // --- 2. A workload with two differently-shaped structures ----------
    // `grid` rotates chiplets every 256KB (stencil-like); `table` is
    // globally shared.
    let workload = WorkloadBuilder::new("quickstart")
        .alloc("grid", 32 << 20)
        .alloc("table", 16 << 20)
        .kernel(KernelSpec {
            num_tbs: 512,
            warps_per_tb: 4,
            insts_per_mem: 4,
            line_reuse: 8,
            unique_lines: 128,
            passes: 2,
            parts: vec![
                Part::new(
                    0,
                    0.7,
                    Pattern::Sliced {
                        period: 1 << 20,
                        halo: 0.02,
                    },
                ),
                Part::new(1, 0.3, Pattern::SharedSweep),
            ],
        })
        .build();

    // --- 3. Run it under three paging schemes ---------------------------
    let mut cfg = SimConfig::baseline().scaled(FOOTPRINT_SCALE);
    let print = |name: &str, s: &RunStats, base: &RunStats| {
        println!(
            "{name:<8} cycles {:>9}  speedup {:>5.2}x  remote {:>5.1}%  L2-TLB MPKI {:>6.2}",
            s.cycles,
            s.speedup_over(base),
            100.0 * s.remote_ratio(),
            s.l2tlb_mpki()
        );
    };

    let mut small = s64k();
    let base = run_outcome(&cfg, &workload, &mut small, None)?.completed()?;
    print("S-64KB", &base, &base);

    let mut large = s2m();
    let big = run_outcome(&cfg, &workload, &mut large, None)?.completed()?;
    print("S-2MB", &big, &base);

    cfg.translation = Clap::translation();
    let mut clap = Clap::new();
    let smart = run_outcome(&cfg, &workload, &mut clap, None)?.completed()?;
    print("CLAP", &smart, &base);

    println!("\nCLAP's per-structure choices:");
    for a in clap_repro::sim::Workload::allocs(&workload) {
        println!(
            "  {:<6} -> {}",
            a.name,
            clap.effective_size(a.id)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "?".into())
        );
    }
    assert_eq!(
        clap.effective_size(clap_repro::sim::Workload::allocs(&workload)[0].id),
        Some(PageSize::Size256K)
    );
    Ok(())
}
