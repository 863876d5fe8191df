//! Prints the heap peak and the bucket-window bytes of every quick
//! real-cost migration cell and every quick Fig. 18 cell, run one at a
//! time on the cycle engine.
//!
//! ```text
//! cargo run --release --example cell_memory
//! ```
//!
//! `heap_mb` is the cell's heap high-water mark above what the idle
//! process holds, workload preparation included. `bucket_mb` is what the
//! run's bucketed resources (SM ports, page walkers, DRAM channels,
//! links) hold at its end; their windows never give capacity back, so
//! that is their peak. 1 MB = 2^20 bytes.

#[path = "../tests/support/heap.rs"]
mod heap;

use clap_repro::bench::configs::ConfigKind;
use clap_repro::bench::experiments::{Harness, MIGRATION_CONFIGS};
use clap_repro::sim::{Probe, RunOutcome, Workload};
use clap_repro::workloads::suite;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Keeps the bucket-window bytes the engine reports at the end of a run.
struct BucketBytes(usize);

impl Probe for BucketBytes {
    fn bucket_bytes(&mut self, bytes: usize) {
        self.0 = bytes;
    }
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

fn main() {
    let h = Harness::quick();
    let grids = [
        ("migration", MIGRATION_CONFIGS.to_vec()),
        ("fig18", ConfigKind::main_eval()),
    ];
    println!(
        "{:<9} {:<8} {:<18} {:>8} {:>9}",
        "grid", "workload", "config", "heap_mb", "bucket_mb"
    );
    for (grid, configs) in grids {
        for w in suite::all() {
            for &kind in &configs {
                let mut buckets = BucketBytes(0);
                let (outcome, peak) =
                    heap::peak_during(|| h.run_cell(&h.prep(&w), &kind.into(), &mut buckets));
                if let Err(e) = outcome.and_then(RunOutcome::completed) {
                    panic!("{} under {} failed: {e}", w.name(), kind.name());
                }
                println!(
                    "{grid:<9} {:<8} {:<18} {:>8.1} {:>9.1}",
                    w.name(),
                    kind.name(),
                    mb(peak),
                    mb(buckets.0)
                );
            }
        }
    }
}
