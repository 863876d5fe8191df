//! The driver-side paging-policy interface and the remote-cache hook.
//!
//! The engine owns the machine (TLBs, caches, page table, DRAM, interconnect); a
//! [`PagingPolicy`] owns *placement*: it decides, on each demand fault,
//! which physical frame backs which virtual page — and may unmap/migrate/
//! promote between faults. CLAP and every baseline of §5 implement this
//! trait.

use mcm_types::{AllocId, ChipletId, PageSize, PhysAddr, SmId, TbId, VirtAddr, BASE_PAGE_BYTES};

use crate::{SimConfig, SimError};

/// Compiler-level knowledge about a data structure's access pattern, as a
/// static-analysis pass (LASP \[47\] / SUV \[17\]) would derive it. Consumed
/// only by the SA-policy baselines of §5.2; profile-based policies ignore
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StaticHint {
    /// The structure is accessed in a C-periodic pattern: within every
    /// `period_bytes` window, threadblock `t` of `n` touches the `t/n`-th
    /// slice, so contiguous threadblock scheduling yields per-chiplet
    /// segments of `period_bytes / num_chiplets` (analysable affine
    /// pattern). `period_bytes == 0` means the whole structure is one
    /// period (pure block partitioning).
    Partitioned {
        /// The slicing period in bytes (0 = whole structure).
        period_bytes: u64,
    },
    /// Uniformly shared by all threads (e.g. GEMM matrix B).
    Shared,
    /// Statically unanalysable (pointer chasing, data-dependent).
    Irregular,
}

impl StaticHint {
    /// The locality period of a structure of `bytes` bytes under this
    /// hint: `period_bytes`, or the whole structure when the period is 0
    /// or longer than it. `None` for shared and irregular structures.
    pub(crate) fn period(self, bytes: u64) -> Option<u64> {
        match self {
            StaticHint::Partitioned { period_bytes: 0 } => Some(bytes),
            StaticHint::Partitioned { period_bytes } => Some(period_bytes.min(bytes)),
            StaticHint::Shared | StaticHint::Irregular => None,
        }
    }

    /// The chiplet static analysis (the LASP/SUV model of §5.2) assigns
    /// the page at `offset` of a structure of `bytes` bytes: each period
    /// splits evenly over the chiplets, and shared or unanalysable
    /// structures interleave 64KB pages round-robin.
    pub fn sa_chiplet(self, bytes: u64, offset: u64, chiplets: usize) -> ChipletId {
        let index = match self.period(bytes) {
            Some(0) => 0,
            Some(p) => ((offset % p) as u128 * chiplets as u128 / p as u128) as usize,
            None => ((offset / BASE_PAGE_BYTES) % chiplets as u64) as usize,
        };
        ChipletId::new(index.min(chiplets - 1) as u8)
    }
}

/// One GPU memory allocation ("data structure").
#[derive(Clone, Debug, Hash)]
pub struct AllocInfo {
    /// Allocation identifier (also stored in PTE bits).
    pub id: AllocId,
    /// Base virtual address (2MB-aligned by the driver).
    pub base: VirtAddr,
    /// Allocation length in bytes.
    pub bytes: u64,
    /// Human-readable name ("matrix-B", "edge-list", ...).
    pub name: String,
    /// What static analysis would say about this structure.
    pub hint: StaticHint,
}

impl AllocInfo {
    /// `true` if `va` falls inside this allocation.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.base && va.raw() < self.base.raw() + self.bytes
    }
}

/// A demand page fault delivered to the policy (paper §2.5 ⑥-⑦).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultCtx {
    /// Base VA of the faulting 64KB page (the demand granularity, Fig. 5).
    pub va: VirtAddr,
    /// Data structure being touched.
    pub alloc: AllocId,
    /// Chiplet whose SM issued the access ("first toucher").
    pub requester: ChipletId,
    /// Issuing SM.
    pub sm: SmId,
    /// Issuing threadblock.
    pub tb: TbId,
    /// Simulated cycle of the fault.
    pub cycle: u64,
}

/// A completed page walk, sampled by hardware trackers (CLAP's Remote
/// Tracker §4.3, C-NUMA/GRIT access counters).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkEvent {
    /// VA whose translation completed.
    pub va: VirtAddr,
    /// Data structure (from the PTE's allocation-id bits).
    pub alloc: AllocId,
    /// Chiplet that issued the walk.
    pub requester: ChipletId,
    /// Chiplet holding the data (from the PFN's chiplet bits).
    pub data_chiplet: ChipletId,
    /// Simulated cycle.
    pub cycle: u64,
}

impl WalkEvent {
    /// `true` if the walk targeted a remote-mapped page.
    pub fn is_remote(&self) -> bool {
        self.requester != self.data_chiplet
    }
}

/// An action the policy asks the engine to apply to the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Directive {
    /// Install a leaf mapping `va -> pa` of `size` for `alloc`.
    Map {
        /// Page-aligned virtual base.
        va: VirtAddr,
        /// Frame base (must be `size`-aligned, from the policy's
        /// allocator).
        pa: PhysAddr,
        /// Leaf size.
        size: PageSize,
        /// Owning data structure.
        alloc: AllocId,
    },
    /// Promote a fully populated, physically contiguous region of 64KB
    /// pages to a single larger leaf (§4.2 OLP / §4.6 use 2MB; the §3.3
    /// hypothetical-size study promotes intermediate sizes).
    Promote {
        /// `size`-aligned region base.
        base: VirtAddr,
        /// Target leaf size (> 64KB).
        size: PageSize,
    },
    /// Remove the leaf whose page starts at `va`. Costs a TLB shootdown
    /// unless the policy is ideal.
    Unmap {
        /// Leaf base VA.
        va: VirtAddr,
    },
    /// Move the 64KB page at `va` to frame `to_pa` (unmap + remap + data
    /// copy). Costs shootdown + copy unless the policy is ideal.
    Migrate {
        /// 64KB-aligned page base.
        va: VirtAddr,
        /// Destination frame (64KB-aligned).
        to_pa: PhysAddr,
    },
}

/// Most chiplets the sampling policies' per-page accessor histograms tell
/// apart: GRIT, C-NUMA and CLAP's migration extension keep one
/// [`ChipletHistogram`] per sampled page.
pub const MAX_SAMPLED_CHIPLETS: usize = 8;

/// Accesses to one page by requester chiplet.
pub type ChipletHistogram = [u32; MAX_SAMPLED_CHIPLETS];

/// Checks that a sampling policy named `policy` can tell apart the
/// `num_chiplets` chiplets of its machine. Policies call it from
/// [`PagingPolicy::on_fault`], the first callback that can fail.
///
/// # Errors
///
/// [`SimError::ConfigInvalid`] when the machine has more than
/// [`MAX_SAMPLED_CHIPLETS`] chiplets.
pub fn check_sampled_chiplets(policy: &str, num_chiplets: usize) -> Result<(), SimError> {
    if num_chiplets <= MAX_SAMPLED_CHIPLETS {
        return Ok(());
    }
    Err(SimError::ConfigInvalid {
        reason: format!(
            "{policy} samples at most {MAX_SAMPLED_CHIPLETS} chiplets, the machine has {num_chiplets}"
        ),
    })
}

/// A driver-side paging policy under test.
///
/// Implementations own their physical-frame bookkeeping (typically an
/// [`mcm_mem`](https://docs.rs/mcm-mem) `FrameAllocator`) and translate
/// faults into [`Directive`]s. The engine validates and applies directives,
/// charging migration/shootdown costs unless
/// [`ideal_migration`](PagingPolicy::ideal_migration) is `true`.
///
/// Policies must be [`Send`]: a run (machine + policy) is built on one
/// thread and may execute on another, which is how the bench harness fans
/// independent sweep cells out over worker threads.
pub trait PagingPolicy: Send {
    /// Short configuration name as used in the paper's figures
    /// ("S-64KB", "CLAP", ...).
    fn name(&self) -> &str;

    /// Called once before the first kernel with the workload's allocations
    /// and the machine configuration.
    fn begin(&mut self, allocs: &[AllocInfo], cfg: &SimConfig);

    /// Resolve a demand fault. The returned directives **must** map
    /// `ctx.va` (the engine verifies).
    ///
    /// # Errors
    ///
    /// Returns a typed [`SimError`] when the fault cannot be resolved —
    /// most commonly [`SimError::OutOfFrames`] when every chiplet's free
    /// lists are exhausted. The engine treats this as fatal for the run
    /// (the faulting warp can never make progress) and aborts with the
    /// error rather than panicking.
    fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError>;

    /// Observe a completed page walk (hardware-sampled statistics).
    fn on_walk(&mut self, _ev: &WalkEvent) {}

    /// `true` if the policy wants [`on_access`](Self::on_access) callbacks
    /// for every memory instruction (software profiling à la C-NUMA/GRIT).
    fn wants_access_samples(&self) -> bool {
        false
    }

    /// Observe one memory instruction (only delivered when
    /// [`wants_access_samples`](Self::wants_access_samples) is `true`).
    /// The event carries the same fields as a walk event.
    fn on_access(&mut self, _ev: &WalkEvent) {}

    /// Periodic callback (every `SimConfig::epoch_cycles`); reactive
    /// policies return re-mapping directives here.
    fn on_epoch(&mut self, _cycle: u64) -> Vec<Directive> {
        Vec::new()
    }

    /// Called after kernel `kernel` completes; Fig. 20's inter-kernel
    /// migration extension acts here.
    fn on_kernel_end(&mut self, _kernel: usize, _cycle: u64) -> Vec<Directive> {
        Vec::new()
    }

    /// `true` for the idealised baselines (Ideal C-NUMA, GRIT) whose
    /// migrations are modelled at zero cost (§5, configs 3-5).
    fn ideal_migration(&self) -> bool {
        false
    }

    /// PF blocks the policy's allocator has consumed (for the §4.7
    /// fragmentation comparison), if it tracks them.
    fn blocks_consumed(&self) -> Option<usize> {
        None
    }

    /// Frames the policy's allocator placed on a non-preferred chiplet
    /// because the preferred chiplet's free lists were exhausted (the
    /// least-loaded fallback of §4.7), if it tracks them. The engine
    /// copies this into
    /// [`DegradationStats::fallback_remote_frames`](crate::DegradationStats)
    /// at the end of a run.
    fn frame_fallbacks(&self) -> u64 {
        0
    }
}

impl<P: PagingPolicy + ?Sized> PagingPolicy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn begin(&mut self, allocs: &[AllocInfo], cfg: &SimConfig) {
        (**self).begin(allocs, cfg);
    }

    fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
        (**self).on_fault(ctx)
    }

    fn on_walk(&mut self, ev: &WalkEvent) {
        (**self).on_walk(ev);
    }

    fn wants_access_samples(&self) -> bool {
        (**self).wants_access_samples()
    }

    fn on_access(&mut self, ev: &WalkEvent) {
        (**self).on_access(ev);
    }

    fn on_epoch(&mut self, cycle: u64) -> Vec<Directive> {
        (**self).on_epoch(cycle)
    }

    fn on_kernel_end(&mut self, kernel: usize, cycle: u64) -> Vec<Directive> {
        (**self).on_kernel_end(kernel, cycle)
    }

    fn ideal_migration(&self) -> bool {
        (**self).ideal_migration()
    }

    fn blocks_consumed(&self) -> Option<usize> {
        (**self).blocks_consumed()
    }

    fn frame_fallbacks(&self) -> u64 {
        (**self).frame_fallbacks()
    }
}

/// Where a remote-cache scheme served a line from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoteServe {
    /// Served from on-chip SRAM at L2-like latency (SAC-style L2 carving).
    Sram,
    /// Served from a local-DRAM cache partition (NUBA-style).
    LocalDram,
}

/// A remote-data caching scheme (NUBA \[111\], SAC \[109\]) consulted when a
/// local L2 miss targets remote-mapped data.
///
/// Like [`PagingPolicy`], models must be [`Send`] so whole runs can move
/// across threads.
pub trait RemoteCacheModel: Send {
    /// Scheme name ("NUBA", "SAC").
    fn name(&self) -> &str;

    /// Look up `line_pa` on behalf of `requester`. On a hit, returns where
    /// the line was served from; on a miss, the model inserts/trains and
    /// returns `None` (the engine then performs the remote access).
    fn access(&mut self, requester: ChipletId, line_pa: PhysAddr) -> Option<RemoteServe>;

    /// Invalidate any cached copies of `line_pa` (migration support).
    fn invalidate(&mut self, _line_pa: PhysAddr) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_analysis_splits_each_period_over_the_chiplets() {
        const KB: u64 = 1024;
        let c = |hint: StaticHint, bytes, offset| hint.sa_chiplet(bytes, offset, 4).index();
        let every_256k = StaticHint::Partitioned {
            period_bytes: 256 * KB,
        };
        let owners: Vec<usize> = (0..8)
            .map(|i| c(every_256k, 1 << 30, i * 64 * KB))
            .collect();
        assert_eq!(owners, [0, 1, 2, 3, 0, 1, 2, 3]);
        // A zero or oversized period is the whole structure.
        let whole = StaticHint::Partitioned { period_bytes: 0 };
        assert_eq!(c(whole, 1024 * KB, 768 * KB), 3);
        assert_eq!(c(every_256k, 128 * KB, 64 * KB), 2);
        // An empty structure has no period to split.
        assert_eq!(c(whole, 0, 0), 0);
        // Shared and irregular structures interleave 64KB pages.
        assert_eq!(c(StaticHint::Shared, 1 << 30, 5 * 64 * KB), 1);
        assert_eq!(c(StaticHint::Irregular, 1 << 30, 6 * 64 * KB + 1), 2);
    }

    #[test]
    fn alloc_contains_bounds() {
        let a = AllocInfo {
            id: AllocId::new(0),
            base: VirtAddr::new(0x20_0000),
            bytes: 0x10_0000,
            name: "x".into(),
            hint: StaticHint::Shared,
        };
        assert!(a.contains(VirtAddr::new(0x20_0000)));
        assert!(a.contains(VirtAddr::new(0x2f_ffff)));
        assert!(!a.contains(VirtAddr::new(0x30_0000)));
        assert!(!a.contains(VirtAddr::new(0x1f_ffff)));
    }

    #[test]
    fn walk_event_remote_flag() {
        let mut ev = WalkEvent {
            va: VirtAddr::new(0),
            alloc: AllocId::new(0),
            requester: ChipletId::new(1),
            data_chiplet: ChipletId::new(1),
            cycle: 0,
        };
        assert!(!ev.is_remote());
        ev.data_chiplet = ChipletId::new(2);
        assert!(ev.is_remote());
    }
}
