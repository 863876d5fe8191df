//! Prints the quick real-cost migration cells as JSON lines: the content
//! of `tests/goldens/migration_quick.jsonl`, which `tests/golden.rs` pins
//! byte for byte.
//!
//! ```text
//! cargo run --release --example migration_golden > tests/goldens/migration_quick.jsonl
//! ```

use clap_repro::bench::experiments::{migration_cells, Harness};
use clap_repro::bench::report::stats_lines;

fn main() {
    let h = Harness::quick().with_jobs(2);
    print!("{}", stats_lines(&migration_cells(&h)));
}
