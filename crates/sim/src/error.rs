//! Error type for simulator operations.

use core::fmt;
use mcm_types::{ChipletId, PageSize, VirtAddr};

/// Errors returned by the page table and the simulation engine.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A mapping overlaps an existing mapping.
    MapConflict {
        /// The virtual address of the attempted mapping.
        va: VirtAddr,
        /// The size of the attempted mapping.
        size: PageSize,
    },
    /// No mapping exists at this address (for unmap/promote).
    NotMapped {
        /// The offending virtual address.
        va: VirtAddr,
    },
    /// An address violates the alignment its page size requires.
    Misaligned {
        /// The offending address value.
        addr: u64,
        /// The required alignment in bytes.
        align: u64,
    },
    /// Promotion to 2MB failed: the VA block is not fully populated with
    /// physically contiguous, 2MB-aligned 64KB pages of one allocation.
    BadPromotion {
        /// Base VA of the block.
        va: VirtAddr,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A paging policy returned directives that do not resolve the fault it
    /// was asked to handle, or directives that are internally invalid.
    PolicyViolation {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// Physical memory is exhausted: no chiplet could serve a frame of the
    /// requested size (the §4.7 least-loaded fallback also failed).
    OutOfFrames {
        /// Chiplet originally asked for the frame.
        chiplet: ChipletId,
        /// Frame size that could not be served.
        size: PageSize,
    },
    /// A translation produced a page size for which the machine has no TLB
    /// class; the walk is still charged but the entry cannot be cached.
    TlbClassMissing {
        /// The uncacheable leaf size.
        size: PageSize,
    },
    /// A chiplet's page-walk queue is full and cannot drain; the walk was
    /// refused instead of growing the queue without bound.
    WalkQueueOverflow {
        /// Chiplet whose GMMU refused the walk.
        chiplet: ChipletId,
        /// In-flight walks queued when the overflow was detected.
        depth: usize,
    },
    /// The simulator configuration failed
    /// [`SimConfig::validate`](crate::SimConfig::validate), and the run
    /// never started; or a policy cannot run on the configured machine and
    /// refused its first fault (see
    /// [`check_sampled_chiplets`](crate::check_sampled_chiplets)).
    ConfigInvalid {
        /// Which invariant the configuration violates.
        reason: String,
    },
    /// The engine rejected one directive of a policy's batch and skipped it
    /// (the remaining directives still apply — degraded mode).
    DirectiveRejected {
        /// Position of the offending directive within its batch.
        index: usize,
        /// Why it was rejected (the underlying error, rendered).
        reason: String,
    },
    /// The run exceeded its configured cycle budget
    /// ([`SimConfig::max_cycles`](crate::SimConfig::max_cycles)) and was
    /// aborted with partial statistics.
    BudgetExceeded {
        /// Simulated cycle at which the budget check fired.
        cycles: u64,
        /// The configured budget.
        max_cycles: u64,
    },
    /// The run made no forward progress (no access retired) for a full
    /// stall-detection window
    /// ([`SimConfig::stall_window`](crate::SimConfig::stall_window)) and was
    /// aborted as livelocked.
    Livelock {
        /// Simulated cycle at which the watchdog fired.
        cycles: u64,
        /// The configured stall window.
        window: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MapConflict { va, size } => {
                write!(f, "mapping {size} at {va} overlaps an existing mapping")
            }
            SimError::NotMapped { va } => write!(f, "no mapping at {va}"),
            SimError::Misaligned { addr, align } => {
                write!(f, "address {addr:#x} is not aligned to {align:#x}")
            }
            SimError::BadPromotion { va, reason } => {
                write!(f, "cannot promote block at {va}: {reason}")
            }
            SimError::PolicyViolation { reason } => write!(f, "policy violation: {reason}"),
            SimError::OutOfFrames { chiplet, size } => {
                write!(f, "out of {size} frames: chiplet {chiplet} exhausted and no fallback chiplet has free blocks")
            }
            SimError::TlbClassMissing { size } => {
                write!(f, "no TLB class for {size} pages")
            }
            SimError::WalkQueueOverflow { chiplet, depth } => {
                write!(
                    f,
                    "page-walk queue overflow on chiplet {chiplet} ({depth} walks in flight)"
                )
            }
            SimError::ConfigInvalid { reason } => write!(f, "invalid configuration: {reason}"),
            SimError::DirectiveRejected { index, reason } => {
                write!(f, "directive {index} rejected: {reason}")
            }
            SimError::BudgetExceeded { cycles, max_cycles } => {
                write!(
                    f,
                    "run budget exceeded: cycle {cycles} past max_cycles {max_cycles}"
                )
            }
            SimError::Livelock { cycles, window } => {
                write!(
                    f,
                    "livelock detected at cycle {cycles}: no access retired within a {window}-cycle stall window"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::NotMapped {
            va: VirtAddr::new(0x42),
        };
        assert!(e.to_string().contains("0x42"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }

    #[test]
    fn degradation_variants_render_their_context() {
        let e = SimError::OutOfFrames {
            chiplet: ChipletId::new(2),
            size: PageSize::Size2M,
        };
        assert!(e.to_string().contains("2MB"));
        let e = SimError::TlbClassMissing {
            size: PageSize::Size256K,
        };
        assert!(e.to_string().contains("256KB"));
        let e = SimError::WalkQueueOverflow {
            chiplet: ChipletId::new(1),
            depth: 256,
        };
        assert!(e.to_string().contains("256"));
        let e = SimError::ConfigInvalid {
            reason: "zero chiplets".into(),
        };
        assert!(e.to_string().contains("zero chiplets"));
        let e = SimError::DirectiveRejected {
            index: 3,
            reason: "no mapping at 0x0".into(),
        };
        assert!(e.to_string().contains("directive 3"));
    }

    #[test]
    fn supervision_variants_render_their_context() {
        let e = SimError::BudgetExceeded {
            cycles: 1_000_001,
            max_cycles: 1_000_000,
        };
        assert!(e.to_string().contains("1000001"));
        assert!(e.to_string().contains("1000000"));
        let e = SimError::Livelock {
            cycles: 77_000,
            window: 50_000,
        };
        assert!(e.to_string().contains("77000"));
        assert!(e.to_string().contains("50000"));
    }
}
