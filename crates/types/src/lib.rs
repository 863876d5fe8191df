//! Shared primitive types for the CLAP MCM-GPU reproduction.
//!
//! This crate defines the vocabulary used by every other crate in the
//! workspace: virtual/physical addresses, page sizes, chiplet identifiers,
//! allocation identifiers, and the physical-address layout of the simulated
//! multi-chip-module (MCM) GPU.
//!
//! The physical-address layout follows Figure 4 of the paper: the two most
//! significant bits of the channel bits sit just above the 2MB page offset
//! and act as a *chiplet identifier*, so the GPU driver can steer entire 2MB
//! physical-frame blocks to a chosen chiplet while preserving 256B channel
//! interleaving inside the chiplet.
//!
//! # Examples
//!
//! ```
//! use mcm_types::{PhysAddr, PageSize, PhysLayout};
//!
//! let layout = PhysLayout::new(4);
//! // PF block 0 belongs to chiplet 0, block 1 to chiplet 1, ...
//! let pa = PhysAddr::new(5 * PageSize::Size2M.bytes() + 0x123);
//! assert_eq!(layout.chiplet_of(pa).index(), 1);
//! ```

#![deny(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod address;
mod hash;
mod ids;
mod layout;
mod page;

pub use address::{PhysAddr, VirtAddr};
pub use hash::{fnv1a, fx_mix, BuildFxHasher, FastMap, FastSet, Fnv1a, FxHasher64};
pub use ids::{AllocId, ChipletId, SmId, TbId, WarpId};
pub use layout::{PhysLayout, CHANNEL_INTERLEAVE_BYTES};
pub use page::{PageSize, PageSizeIter, BASE_PAGE_BYTES, VA_BLOCK_BYTES};
