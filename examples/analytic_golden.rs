//! Prints the analytic engine's quick cells as JSON lines: the content of
//! `tests/goldens/analytic_quick.jsonl`, which `tests/golden.rs` pins
//! byte for byte.
//!
//! ```text
//! cargo run --release --example analytic_golden > tests/goldens/analytic_quick.jsonl
//! ```

use clap_repro::bench::experiments::{analytic_cells, Harness};
use clap_repro::bench::report::stats_lines;

fn main() {
    print!("{}", stats_lines(&analytic_cells(&Harness::quick())));
}
