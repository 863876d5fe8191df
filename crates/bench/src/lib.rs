//! Experiment harness for the CLAP reproduction.
//!
//! [`experiments`] holds one function per table/figure of the paper's
//! evaluation; the `figures` binary prints them and writes CSVs.

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
