//! A trace-driven, cycle-approximate multi-chip-module (MCM) GPU simulator.
//!
//! This crate is the substrate of the CLAP reproduction (paper §2, §3.2,
//! Table 1): it models a 4-chiplet (configurable) MCM GPU with
//!
//! * per-SM L1 TLBs and chiplet-private L2 TLBs, one per page-size class,
//!   with optional CLAP-style entry coalescing (§4.6), Barre-Chord pattern
//!   coalescing, and the `Ideal` magic-2MB-reach configuration;
//! * per-chiplet GMMUs with multi-threaded page walkers and a page-walk
//!   cache, walking a 4-level page table whose PTE pages are distributed
//!   across chiplets or pinned requester-local;
//! * per-SM L1 and per-chiplet L2 data caches;
//! * HBM channels with busy-until queueing and a pluggable inter-chiplet
//!   interconnect ([`Topology`]: bidirectional ring, 2D mesh, or
//!   fully-connected) with per-link occupancy;
//! * demand paging with 64KB granularity driven by a pluggable
//!   [`PagingPolicy`] — the interface CLAP and all baselines implement.
//!
//! # Examples
//!
//! Policies and workloads live in the sibling crates (`mcm-policies`,
//! `clap-core`, `mcm-workloads`); `examples/quickstart.rs` at the
//! repository root shows an end-to-end run. The machine configuration is
//! self-contained:
//!
//! ```
//! use mcm_sim::SimConfig;
//! let cfg = SimConfig::baseline();
//! assert_eq!(cfg.total_sms(), 256);
//! ```

#![deny(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod analytic;
mod cache;
pub mod chaos;
mod config;
mod dram;
mod engine;
mod error;
mod interconnect;
pub mod metrics;
mod page_table;
mod policy;
mod probe;
mod pte_map;
mod resources;
pub mod stage;
mod stats;
mod tlb;
pub mod trace;
mod workload;

pub use analytic::PlacementModel;
pub use cache::SetAssocCache;
pub use chaos::{ChaosConfig, ChaosPolicy, ChaosStats, StateAuditor, Stonewall};
pub use config::{PtePlacement, SimConfig, TlbEntries, TopologyKind, TranslationConfig};
pub use dram::Dram;
pub use engine::{run_outcome, run_with, RunOutcome};
pub use error::SimError;
pub use interconnect::{build_topology, FullyConnected, Mesh2d, Ring, Topology};
pub use metrics::{imbalance, LinkTraffic, RunMetrics, SampleFrame, WARMUP_EPSILON};
pub use page_table::{PageTable, Pte, PTES_PER_LINE};
pub use policy::{
    check_sampled_chiplets, AllocInfo, ChipletHistogram, Directive, FaultCtx, PagingPolicy,
    RemoteCacheModel, RemoteServe, StaticHint, WalkEvent, MAX_SAMPLED_CHIPLETS,
};
pub use probe::{MetricsProbe, Probe, SAMPLE_INTERVAL};
pub use resources::{BucketedResource, Server, BUCKET_CYCLES};
pub use stats::{AllocAccessStats, Counter, Counters, DegradationStats, RunStats};
pub use tlb::Tlb;
pub use trace::{LatencyHistogram, RunTrace, TraceStage};
pub use workload::{tb_chiplet, KernelDesc, TileMapping, TiledGemm, Workload};
