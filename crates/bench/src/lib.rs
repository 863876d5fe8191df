//! Experiment harness for the CLAP reproduction.
//!
//! [`experiments`] holds the paper's evaluation as data — one grid value
//! per table/figure, run cell by cell through one runner; the `figures`
//! binary prints the grids and writes CSVs.

#![deny(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod configs;
pub mod experiments;
pub mod json;
pub mod report;
pub mod runner;
pub mod supervise;
pub mod telemetry;
