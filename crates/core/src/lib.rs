//! **CLAP — Chiplet-Locality Aware Page Placement** (Park et al., MICRO
//! 2025): the paper's primary contribution, as a driver-side paging policy
//! for the `mcm-sim` MCM-GPU model.
//!
//! CLAP determines the *suitable page size* — the level of deliberate
//! virtual-to-physical contiguity — for each GPU data structure:
//!
//! * [`Clap`] — the policy: partial memory mapping with opportunistic
//!   large paging (§4.2), Remote-Tracker-informed tree-based memory
//!   mapping analysis (§4.3-§4.4), and reservation-based application of
//!   the selected size (§4.5), cooperating with TLB coalescing (§4.6 — see
//!   [`Clap::translation`]).
//! * [`LocalityTree`], [`select_size`] — the MMA algorithm itself.
//! * [`RemoteTracker`] — the per-GMMU hardware tracker.
//! * [`survey_workload`] — the §3.4 chiplet-locality survey (Fig. 10).
//!
//! # Examples
//!
//! Run a suite workload under CLAP:
//!
//! ```
//! use clap_core::Clap;
//! use mcm_sim::{run_outcome, PagingPolicy, SimConfig};
//! use mcm_workloads::{suite, FOOTPRINT_SCALE};
//!
//! let mut cfg = SimConfig::baseline().scaled(FOOTPRINT_SCALE);
//! cfg.translation = Clap::translation();
//! let mut clap = Clap::new();
//! let stats = run_outcome(&cfg, &suite::blk(), &mut clap, None)?.completed()?;
//! assert!(stats.mem_insts > 0);
//! # Ok::<(), mcm_sim::SimError>(())
//! ```

#![deny(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod policy;
mod rt;
mod survey;
mod tree;

pub use policy::{Clap, OLP_RELEASE_LIMIT, PMM_THRESHOLD};
pub use rt::{RemoteTracker, RT_ENTRIES};
pub use survey::{survey_mean, survey_workload, SurveyRow};
pub use tree::{locality_proportion, select_size, LocalityTree, LEAVES, MAX_LEVEL};
