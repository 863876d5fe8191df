//! GEMM pipeline study: how CLAP treats the three matrices of an ML
//! fully-connected layer (Table 4's ML rows), and what happens when a
//! second kernel reuses the output with a different access pattern
//! (paper §5.2, Fig. 20).
//!
//! ```text
//! cargo run --release --example gemm_pipeline
//! ```

use clap_repro::bench::configs::ConfigKind;
use clap_repro::clap::Clap;
use clap_repro::sim::{run_outcome, SimConfig, Workload};
use clap_repro::workloads::{suite, FOOTPRINT_SCALE};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = SimConfig::baseline().scaled(FOOTPRINT_SCALE);

    // --- Single GEMM: per-matrix page-size selection --------------------
    for w in [suite::vit(), suite::res50(), suite::gpt3()] {
        let (_, cfg) = ConfigKind::Clap.build(&base);
        let mut clap = Clap::new();
        run_outcome(&cfg, &w, &mut clap, None)?.completed()?;
        let sizes: Vec<String> = w
            .allocs()
            .iter()
            .map(|a| {
                format!(
                    "{}={}{}",
                    a.name,
                    clap.effective_size(a.id)
                        .map(|s| s.to_string())
                        .unwrap_or_else(|| "?".into()),
                    if clap.selected_size(a.id).is_none() {
                        " (OLP)"
                    } else {
                        ""
                    }
                )
            })
            .collect();
        println!("{:<6} {}", w.name(), sizes.join("  "));
    }

    // --- Kernel reuse: the Fig. 20 scenario -----------------------------
    println!("\nkernel-reuse GEMM (C* re-partitioned by kernel 1):");
    let w = suite::gemm_reuse();
    let mut rows = Vec::new();
    for kind in [
        ConfigKind::Static(clap_repro::types::PageSize::Size64K),
        ConfigKind::GritReal,
        ConfigKind::Clap,
        ConfigKind::CNumaReal,
        ConfigKind::ClapMigration,
    ] {
        let (mut policy, cfg) = kind.build(&base);
        let s = run_outcome(&cfg, &w, policy.as_mut(), None)?.completed()?;
        rows.push((kind.name(), s));
    }
    let base_cycles = rows[0].1.cycles as f64;
    for (name, s) in &rows {
        println!(
            "  {name:<16} speedup {:>5.2}x  remote {:>5.1}%  migrations {:>5}",
            base_cycles / s.cycles as f64,
            100.0 * s.remote_ratio(),
            s.migrations
        );
    }
    Ok(())
}
