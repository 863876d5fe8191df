//! The CLAP paging policy (paper §4), plus its SA (§5.2) and migration
//! (§5.2, Fig. 20) variants.
//!
//! Lifecycle per data structure:
//!
//! 1. **PMM** (§4.2): the first `threshold` (20%) of pages map at 64KB,
//!    first-touch, with **OLP** opportunistically reserving a 2MB frame per
//!    VA block and promoting when one chiplet populates it alone;
//!    reservations touched by a second chiplet are released back to the
//!    structure's 64KB free list. OLP disables itself for the structure if
//!    more than 5% of its VA blocks release.
//! 2. **MMA** (§4.4): when the threshold is reached, the per-block
//!    [`LocalityTree`]s vote on a locality level; the Remote Tracker's
//!    remote ratio relaxes the threshold (Eq. 4) so inherently shared
//!    structures still get large pages. No fully mapped block → fall back
//!    to OLP for the remainder (§4.5 edge cases).
//! 3. **Apply** (§4.5): the remaining pages map on demand into reserved
//!    frames of the selected size at the first-touching chiplet, giving
//!    deliberate virtual-physical contiguity that the TLB-coalescing
//!    hardware (§4.6) turns into large-page reach; 2MB regions promote to
//!    true 2MB pages.

use mcm_mem::{FrameAllocator, MemError, ReservationTable};
use mcm_sim::{
    check_sampled_chiplets, AllocInfo, ChipletHistogram, Directive, FaultCtx, PagingPolicy,
    SimConfig, SimError, StaticHint, TranslationConfig, WalkEvent, MAX_SAMPLED_CHIPLETS,
};
use mcm_types::{
    AllocId, ChipletId, FastMap, FastSet, PageSize, PhysAddr, PhysLayout, VirtAddr,
    BASE_PAGE_BYTES, VA_BLOCK_BYTES,
};

use crate::rt::RemoteTracker;
use crate::tree::{select_size, LocalityTree};

/// Fraction of each data structure mapped during PMM (§4.2; 20%).
pub const PMM_THRESHOLD: f64 = 0.20;

/// OLP disables for a structure once this fraction of its VA blocks
/// release their 2MB reservation (§4.2; 5%).
pub const OLP_RELEASE_LIMIT: f64 = 0.05;

/// Lifts an allocator/reservation failure into the simulator's typed error
/// space so a fault that cannot be resolved aborts the *run*, not the
/// process.
fn mem_to_sim(e: MemError) -> SimError {
    match e {
        MemError::ChipletExhausted { chiplet, size } => SimError::OutOfFrames { chiplet, size },
        MemError::Misaligned { addr, align } => SimError::Misaligned { addr, align },
        other => SimError::PolicyViolation {
            reason: other.to_string(),
        },
    }
}

/// How CLAP decides target chiplets and page sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Runtime profiling + first-touch (the paper's CLAP, §4).
    Profile,
    /// Static-analysis placement and prediction (CLAP-SA, §5.2).
    Static,
    /// Static for analysable structures, runtime profiling for irregular
    /// ones (CLAP-SA++, §5.2).
    Hybrid,
}

/// Per-structure mapping phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// PMM: sample-mapping the first 20%.
    Profiling,
    /// MMA done: mapping the remainder at the selected size.
    Apply(PageSize),
    /// MMA failed (no fully mapped block / tiny structure): OLP forever.
    OlpFallback,
}

#[derive(Debug)]
struct AllocState {
    base: VirtAddr,
    bytes: u64,
    hint: StaticHint,
    /// Whether this structure profiles at runtime or trusts static
    /// analysis.
    runtime: bool,
    phase: Phase,
    threshold_pages: u64,
    mapped_pages: u64,
    trees: FastMap<u64, LocalityTree>,
    reservations: ReservationTable,
    /// VA blocks holding an *OLP* (speculative) 2MB reservation.
    olp_blocks: FastSet<u64>,
    /// VA blocks whose OLP reservation was released — never re-reserved.
    released_blocks: FastSet<u64>,
    /// VA blocks that went through OLP mapping at all (for outcome
    /// reporting).
    olp_touched: FastSet<u64>,
    /// Of those, blocks OLP successfully promoted to 2MB.
    olp_promoted: u32,
    releases: u32,
    olp_enabled: bool,
    first_kernel: Option<usize>,
}

impl AllocState {
    fn total_blocks(&self) -> u64 {
        self.bytes.div_ceil(VA_BLOCK_BYTES)
    }
}

#[derive(Debug)]
struct ReuseBlock {
    alloc: AllocId,
    counts: Vec<ChipletHistogram>,
}

#[derive(Debug)]
struct St {
    allocator: FrameAllocator,
    layout: PhysLayout,
    num_chiplets: usize,
    rt: RemoteTracker,
    per: FastMap<AllocId, AllocState>,
    /// Current frame of every mapped 64KB page (also valid inside
    /// promoted 2MB leaves).
    frames: FastMap<u64, PhysAddr>,
    /// VA blocks currently promoted to a 2MB leaf.
    promoted: FastSet<u64>,
    kernel: usize,
    /// Migration extension: per-block accessor histograms for structures
    /// reused by a later kernel.
    reuse: FastMap<u64, ReuseBlock>,
    reuse_dirty: FastSet<u64>,
}

/// The CLAP policy (paper config 8) and its variants.
///
/// Run it with [`Clap::translation()`] so the machine has the §4.6
/// coalescing hardware.
///
/// # Examples
///
/// ```
/// use clap_core::Clap;
/// use mcm_sim::PagingPolicy;
///
/// assert_eq!(Clap::new().name(), "CLAP");
/// assert_eq!(Clap::sa().name(), "CLAP-SA");
/// assert_eq!(Clap::sa_plus_plus().name(), "CLAP-SA++");
/// assert_eq!(Clap::new().with_migration().name(), "CLAP+migration");
/// ```
#[derive(Debug)]
pub struct Clap {
    mode: Mode,
    migration: bool,
    name: &'static str,
    /// PMM threshold (fraction of each structure profiled; §4.2).
    pmm_threshold: f64,
    /// Opportunistic large paging enabled (§4.2); disable for ablation.
    olp: bool,
    /// Remote-Tracker threshold relaxation enabled (Eq. 4); disable for
    /// ablation.
    rt_enabled: bool,
    st: Option<St>,
}

impl Clap {
    /// The paper's CLAP: runtime PMM/MMA with first-touch placement.
    pub fn new() -> Self {
        Clap {
            mode: Mode::Profile,
            migration: false,
            name: "CLAP",
            pmm_threshold: PMM_THRESHOLD,
            olp: true,
            rt_enabled: true,
            st: None,
        }
    }

    /// Overrides the PMM threshold (§4.2's sensitivity study: the paper
    /// reports 15% suffices, 20% is the robust default, and 30% costs only
    /// ~1.3%).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold <= 1`.
    pub fn with_pmm_threshold(mut self, threshold: f64) -> Self {
        assert!(threshold > 0.0 && threshold <= 1.0, "threshold in (0, 1]");
        self.pmm_threshold = threshold;
        self
    }

    /// Ablation: disables opportunistic large paging (§4.2). PMM then maps
    /// plain 64KB pages and edge-case structures never opportunistically
    /// promote.
    pub fn without_olp(mut self) -> Self {
        self.olp = false;
        self.name = "CLAP-noOLP";
        self
    }

    /// Ablation: disables the Remote Tracker's threshold relaxation
    /// (Eq. 4). Inherently shared structures then profile as scattered and
    /// stay at 64KB.
    pub fn without_rt(mut self) -> Self {
        self.rt_enabled = false;
        self.name = "CLAP-noRT";
        self
    }

    /// CLAP-SA (§5.2): static-analysis placement feeding the same
    /// tree-based MMA.
    pub fn sa() -> Self {
        Clap {
            mode: Mode::Static,
            name: "CLAP-SA",
            ..Self::new()
        }
    }

    /// CLAP-SA++ (§5.2): static placement, with runtime profiling for
    /// irregular structures.
    pub fn sa_plus_plus() -> Self {
        Clap {
            mode: Mode::Hybrid,
            name: "CLAP-SA++",
            ..Self::new()
        }
    }

    /// CLAP+migration (§5.2, Fig. 20): adds selective C-NUMA-style page
    /// migration, only for structures reused across kernels, with real
    /// migration costs.
    pub fn with_migration(mut self) -> Self {
        self.migration = true;
        self.name = match self.mode {
            Mode::Profile => "CLAP+migration",
            Mode::Static => "CLAP-SA+migration",
            Mode::Hybrid => "CLAP-SA+++migration",
        };
        self
    }

    /// The translation hardware CLAP assumes: baseline TLBs plus the 64KB
    /// coalescing logic (§4.6).
    pub fn translation() -> TranslationConfig {
        TranslationConfig::with_clap_coalescing()
    }

    /// The page size currently selected for `alloc` (`None` while
    /// profiling or under OLP fallback) — Table 4's content.
    pub fn selected_size(&self, alloc: AllocId) -> Option<PageSize> {
        match self.st.as_ref()?.per.get(&alloc)?.phase {
            Phase::Apply(s) => Some(s),
            _ => None,
        }
    }

    /// `true` if `alloc` ended in the OLP fallback path (Table 4 marks
    /// these bold/italic).
    pub fn used_olp_fallback(&self, alloc: AllocId) -> bool {
        self.st
            .as_ref()
            .and_then(|st| st.per.get(&alloc))
            .is_some_and(|a| a.phase == Phase::OlpFallback)
    }

    /// The page size a structure effectively received: the MMA-selected
    /// size, or — for OLP paths — 2MB when OLP promoted the majority of
    /// the structure's touched blocks, 64KB otherwise (how Table 4 reports
    /// OLP results).
    pub fn effective_size(&self, alloc: AllocId) -> Option<PageSize> {
        let a = self.st.as_ref()?.per.get(&alloc)?;
        match a.phase {
            Phase::Apply(s) => Some(s),
            Phase::Profiling | Phase::OlpFallback => {
                // OLP "provides 2MB pages" when its speculative
                // reservations persist: populated pages then live in
                // 2MB-contiguous frames (promoted outright once full, and
                // covered by coalesced entries meanwhile). Frequent
                // releases mean fine-grained 64KB mapping won.
                let touched = a.olp_touched.len().max(1) as u32;
                Some(if a.releases * 2 <= touched {
                    PageSize::Size2M
                } else {
                    PageSize::Size64K
                })
            }
        }
    }

    fn st(&mut self) -> Option<&mut St> {
        self.st.as_mut()
    }
}

impl Default for Clap {
    fn default() -> Self {
        Self::new()
    }
}

/// The page size CLAP-SA derives from a static hint: it builds the
/// predicted mapping tree for a representative VA block and runs the same
/// MMA selection, with the shared-structure threshold relaxation known
/// statically.
fn predict_static_size(hint: StaticHint, bytes: u64, chiplets: usize) -> PageSize {
    match hint {
        StaticHint::Shared => PageSize::Size2M,
        StaticHint::Irregular => PageSize::Size64K,
        StaticHint::Partitioned { .. } => {
            let mut tree = LocalityTree::new();
            for i in 0..32 {
                tree.set_leaf(
                    i,
                    hint.sa_chiplet(bytes, i as u64 * BASE_PAGE_BYTES, chiplets),
                );
            }
            select_size([&tree].into_iter(), 0.0).unwrap_or(PageSize::Size64K)
        }
    }
}

impl PagingPolicy for Clap {
    fn name(&self) -> &str {
        self.name
    }

    fn begin(&mut self, allocs: &[AllocInfo], cfg: &SimConfig) {
        let num_chiplets = cfg.num_chiplets;
        let mut per = FastMap::default();
        for a in allocs {
            let runtime = match self.mode {
                Mode::Profile => true,
                Mode::Static => false,
                Mode::Hybrid => matches!(a.hint, StaticHint::Irregular),
            };
            let phase = if runtime {
                Phase::Profiling
            } else {
                Phase::Apply(predict_static_size(a.hint, a.bytes, num_chiplets))
            };
            let total_pages = a.bytes / BASE_PAGE_BYTES;
            per.insert(
                a.id,
                AllocState {
                    base: a.base,
                    bytes: a.bytes,
                    hint: a.hint,
                    runtime,
                    phase,
                    threshold_pages: ((total_pages as f64 * self.pmm_threshold).ceil() as u64)
                        .max(1),
                    mapped_pages: 0,
                    trees: FastMap::default(),
                    reservations: ReservationTable::new(),
                    olp_blocks: FastSet::default(),
                    released_blocks: FastSet::default(),
                    olp_touched: FastSet::default(),
                    olp_promoted: 0,
                    releases: 0,
                    olp_enabled: self.olp,
                    first_kernel: None,
                },
            );
        }
        self.st = Some(St {
            allocator: FrameAllocator::new(cfg.layout(), cfg.pf_blocks_per_chiplet)
                .with_scatter(FrameAllocator::DRIVER_SCATTER),
            layout: cfg.layout(),
            num_chiplets,
            rt: RemoteTracker::new(num_chiplets),
            per,
            frames: FastMap::default(),
            promoted: FastSet::default(),
            kernel: 0,
            reuse: FastMap::default(),
            reuse_dirty: FastSet::default(),
        });
    }

    fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
        let mode = self.mode;
        let rt_enabled = self.rt_enabled;
        let Some(st) = self.st.as_mut() else {
            return Err(SimError::PolicyViolation {
                reason: "on_fault before begin()".into(),
            });
        };
        if self.migration {
            check_sampled_chiplets(self.name, st.num_chiplets)?;
        }
        let Some(a) = st.per.get_mut(&ctx.alloc) else {
            return Err(SimError::PolicyViolation {
                reason: format!("fault for unknown allocation {}", ctx.alloc),
            });
        };
        a.first_kernel.get_or_insert(st.kernel);

        // Placement target: first-touch for runtime structures, the
        // static prediction otherwise.
        let target = if a.runtime {
            ctx.requester
        } else {
            let gran = match a.phase {
                Phase::Apply(s) => s.bytes(),
                _ => BASE_PAGE_BYTES,
            };
            let off = ctx.va.align_down(gran).distance_from(a.base);
            a.hint.sa_chiplet(a.bytes, off, st.num_chiplets)
        };
        let _ = mode;

        let dirs = match a.phase {
            Phase::Profiling | Phase::OlpFallback => olp_map(
                &mut st.allocator,
                &mut st.frames,
                &mut st.promoted,
                a,
                ctx.alloc,
                ctx.va,
                target,
                st.layout,
            ),
            Phase::Apply(s) => apply_map(
                &mut st.allocator,
                &mut st.frames,
                &mut st.promoted,
                a,
                ctx.alloc,
                ctx.va,
                target,
                s,
                st.layout,
            ),
        }?;
        a.mapped_pages += 1;

        // PMM threshold reached: run memory mapping analysis.
        if a.phase == Phase::Profiling && a.mapped_pages >= a.threshold_pages {
            let ratio = if rt_enabled {
                st.rt.drain_ratio(ctx.alloc)
            } else {
                0.0
            };
            a.phase = match select_size(a.trees.values(), ratio) {
                Some(s) => Phase::Apply(s),
                None => Phase::OlpFallback,
            };
        }
        Ok(dirs)
    }

    fn wants_access_samples(&self) -> bool {
        true
    }

    fn on_access(&mut self, ev: &WalkEvent) {
        // The Remote Tracker samples here at access granularity. The paper
        // implements RT on completed page walks and reports 95.3%
        // similarity to the actual remote ratio (§4.3); in this scaled
        // model, TLB pressure skews the walk population toward irregular
        // accesses, so sampling accesses directly reproduces the accuracy
        // the paper measured.
        let migration = self.migration;
        let Some(st) = self.st() else {
            return;
        };
        st.rt.record(ev.requester, ev.alloc, ev.is_remote());
        if !migration {
            return;
        }
        let kernel = st.kernel;
        if kernel == 0 {
            return;
        }
        let Some(a) = st.per.get(&ev.alloc) else {
            return;
        };
        // Only structures mapped by an earlier kernel are
        // migration-eligible ("shared across multiple kernels", §5.2).
        if a.first_kernel.is_none_or(|k| k >= kernel) {
            return;
        }
        let block = ev.va.raw() / VA_BLOCK_BYTES;
        let e = st.reuse.entry(block).or_insert_with(|| ReuseBlock {
            alloc: ev.alloc,
            counts: vec![[0; MAX_SAMPLED_CHIPLETS]; 32],
        });
        let page = (ev.va.raw() % VA_BLOCK_BYTES / BASE_PAGE_BYTES) as usize;
        // Mapped pages exist only on a machine `on_fault` accepted, whose
        // chiplets the histogram holds.
        e.counts[page][ev.requester.index()] += 1;
        st.reuse_dirty.insert(block);
    }

    fn on_epoch(&mut self, _cycle: u64) -> Vec<Directive> {
        if !self.migration {
            return Vec::new();
        }
        let Some(st) = self.st.as_mut() else {
            return Vec::new();
        };
        let mut dirs = Vec::new();
        let mut dirty: Vec<u64> = st.reuse_dirty.drain().collect();
        dirty.sort_unstable();
        for block in dirty {
            let Some(rb) = st.reuse.get(&block) else {
                continue;
            };
            let alloc = rb.alloc;
            let base = VirtAddr::new(block * VA_BLOCK_BYTES);
            // Remote ratio under current placement.
            let mut total = 0u64;
            let mut remote = 0u64;
            for (i, c) in rb.counts.iter().enumerate() {
                let vpn = base.raw() / BASE_PAGE_BYTES + i as u64;
                let Some(&pa) = st.frames.get(&vpn) else {
                    continue;
                };
                let home = st.layout.chiplet_of(pa).index();
                let t: u64 = c.iter().map(|&x| x as u64).sum();
                total += t;
                remote += t - c[home] as u64;
            }
            if total < 32 || (remote as f64) < 0.25 * total as f64 {
                continue;
            }
            // Demote a promoted 2MB leaf so individual pages can move.
            // Demotion is best-effort: if the frame bookkeeping disagrees,
            // leave the leaf promoted rather than corrupting state.
            if st.promoted.contains(&block) {
                let Some(&frame0) = st.frames.get(&(base.raw() / BASE_PAGE_BYTES)) else {
                    continue;
                };
                if st
                    .allocator
                    .downgrade_block(frame0, alloc, &[true; 32])
                    .is_err()
                {
                    continue;
                }
                st.promoted.remove(&block);
                dirs.push(Directive::Unmap { va: base });
                for i in 0..32u64 {
                    dirs.push(Directive::Map {
                        va: base + i * BASE_PAGE_BYTES,
                        pa: frame0 + i * BASE_PAGE_BYTES,
                        size: PageSize::Size64K,
                        alloc,
                    });
                }
            }
            // Migrate each remote-dominant page to its dominant accessor.
            let Some(counts) = st.reuse.get(&block).map(|rb| rb.counts.clone()) else {
                continue;
            };
            for (i, c) in counts.iter().enumerate() {
                let vpn = base.raw() / BASE_PAGE_BYTES + i as u64;
                let Some(&pa) = st.frames.get(&vpn) else {
                    continue;
                };
                let Some(dominant) = c[..st.num_chiplets]
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, x)| **x)
                    .map(|(i, _)| ChipletId::new(i as u8))
                else {
                    continue;
                };
                let t: u32 = c.iter().sum();
                if t == 0 || dominant == st.layout.chiplet_of(pa) {
                    continue;
                }
                if !st.allocator.can_alloc(dominant, PageSize::Size64K, alloc) {
                    continue;
                }
                let Ok(new_frame) = st.allocator.alloc_frame(dominant, PageSize::Size64K, alloc)
                else {
                    continue;
                };
                let _ = st.allocator.free_frame(pa, PageSize::Size64K, alloc);
                st.frames.insert(vpn, new_frame);
                dirs.push(Directive::Migrate {
                    va: VirtAddr::new(vpn * BASE_PAGE_BYTES),
                    to_pa: new_frame,
                });
            }
            if let Some(rb) = st.reuse.get_mut(&block) {
                for c in &mut rb.counts {
                    *c = [0; MAX_SAMPLED_CHIPLETS];
                }
            }
        }
        dirs
    }

    fn on_kernel_end(&mut self, kernel: usize, _cycle: u64) -> Vec<Directive> {
        if let Some(st) = self.st() {
            st.kernel = kernel + 1;
        }
        Vec::new()
    }

    fn ideal_migration(&self) -> bool {
        // CLAP pays real costs for its (rare) migrations.
        false
    }

    fn blocks_consumed(&self) -> Option<usize> {
        self.st.as_ref().map(|s| s.allocator.blocks_consumed())
    }

    fn frame_fallbacks(&self) -> u64 {
        self.st
            .as_ref()
            .map_or(0, |s| s.allocator.stats().chiplet_fallbacks)
    }
}

/// Maps one page under PMM/OLP rules (paper §4.2, Fig. 13).
#[allow(clippy::too_many_arguments)]
fn olp_map(
    allocator: &mut FrameAllocator,
    frames: &mut FastMap<u64, PhysAddr>,
    promoted: &mut FastSet<u64>,
    a: &mut AllocState,
    alloc: AllocId,
    va: VirtAddr,
    target: ChipletId,
    layout: PhysLayout,
) -> Result<Vec<Directive>, SimError> {
    let block_base = va.align_down(VA_BLOCK_BYTES);
    let block = block_base.raw() / VA_BLOCK_BYTES;
    let vpn = va.raw() / BASE_PAGE_BYTES;
    let leaf = (va.raw() % VA_BLOCK_BYTES / BASE_PAGE_BYTES) as usize;
    a.olp_touched.insert(block);

    if let Some(r) = a.reservations.covering(va).copied() {
        if r.chiplet == target {
            // ⓑ same chiplet: populate the reserved frame.
            let (pa, full) = a.reservations.populate(va).map_err(mem_to_sim)?;
            frames.insert(vpn, pa);
            if a.runtime {
                a.trees.entry(block).or_default().set_leaf(leaf, r.chiplet);
            }
            let mut dirs = vec![Directive::Map {
                va,
                pa,
                size: PageSize::Size64K,
                alloc,
            }];
            if full {
                a.reservations.release(block_base).map_err(mem_to_sim)?;
                a.olp_blocks.remove(&block);
                a.olp_promoted += 1;
                promoted.insert(block);
                dirs.push(Directive::Promote {
                    base: block_base,
                    size: PageSize::Size2M,
                });
            }
            return Ok(dirs);
        }
        // ⓒ different chiplet: release the speculative reservation; the
        // unused 64KB frames return to the structure's free list.
        let r = a.reservations.release(block_base).map_err(mem_to_sim)?;
        let used = r.populated_mask();
        allocator
            .downgrade_block(r.pa, alloc, &used)
            .map_err(mem_to_sim)?;
        a.olp_blocks.remove(&block);
        a.released_blocks.insert(block);
        a.releases += 1;
        let limit = ((a.total_blocks() as f64 * OLP_RELEASE_LIMIT).ceil() as u32).max(1);
        if a.releases > limit {
            a.olp_enabled = false;
        }
        // Fall through to a plain 64KB mapping at the new chiplet.
    } else if a.olp_enabled && !a.released_blocks.contains(&block) {
        // ⓐ first touch of the block: speculatively reserve 2MB.
        if let Ok(frame) = allocator.alloc_frame(target, PageSize::Size2M, alloc) {
            a.reservations
                .reserve(block_base, frame, PageSize::Size2M, target)
                .map_err(mem_to_sim)?;
            a.olp_blocks.insert(block);
            let (pa, _) = a.reservations.populate(va).map_err(mem_to_sim)?;
            frames.insert(vpn, pa);
            if a.runtime {
                a.trees.entry(block).or_default().set_leaf(leaf, target);
            }
            return Ok(vec![Directive::Map {
                va,
                pa,
                size: PageSize::Size64K,
                alloc,
            }]);
        }
        // No free 2MB frame on the target: plain 64KB below.
    }

    let (pa, served) = allocator
        .alloc_frame_or_fallback(target, PageSize::Size64K, alloc)
        .map_err(mem_to_sim)?;
    frames.insert(vpn, pa);
    if a.runtime {
        a.trees.entry(block).or_default().set_leaf(leaf, served);
    }
    let _ = layout;
    Ok(vec![Directive::Map {
        va,
        pa,
        size: PageSize::Size64K,
        alloc,
    }])
}

/// Maps one page at the MMA-selected size (paper §4.5, Fig. 16).
#[allow(clippy::too_many_arguments)]
fn apply_map(
    allocator: &mut FrameAllocator,
    frames: &mut FastMap<u64, PhysAddr>,
    promoted: &mut FastSet<u64>,
    a: &mut AllocState,
    alloc: AllocId,
    va: VirtAddr,
    target: ChipletId,
    size: PageSize,
    layout: PhysLayout,
) -> Result<Vec<Directive>, SimError> {
    // Leftover OLP reservations from the profiling phase keep their OLP
    // semantics until resolved.
    let block = va.raw() / VA_BLOCK_BYTES;
    if a.olp_blocks.contains(&block) {
        return olp_map(allocator, frames, promoted, a, alloc, va, target, layout);
    }
    let vpn = va.raw() / BASE_PAGE_BYTES;

    if size == PageSize::Size64K {
        let (pa, _) = allocator
            .alloc_frame_or_fallback(target, PageSize::Size64K, alloc)
            .map_err(mem_to_sim)?;
        frames.insert(vpn, pa);
        return Ok(vec![Directive::Map {
            va,
            pa,
            size: PageSize::Size64K,
            alloc,
        }]);
    }

    let region = va.align_down(size.bytes());
    if a.reservations.covering(va).is_none() {
        let (frame, served) = allocator
            .alloc_frame_or_fallback(target, size, alloc)
            .map_err(mem_to_sim)?;
        a.reservations
            .reserve(region, frame, size, served)
            .map_err(mem_to_sim)?;
    }
    let (pa, full) = a.reservations.populate(va).map_err(mem_to_sim)?;
    frames.insert(vpn, pa);
    let mut dirs = vec![Directive::Map {
        va,
        pa,
        size: PageSize::Size64K,
        alloc,
    }];
    if full {
        a.reservations.release(region).map_err(mem_to_sim)?;
        if size == PageSize::Size2M {
            // A full 2MB group becomes a true 2MB page (§4.6).
            promoted.insert(region.raw() / VA_BLOCK_BYTES);
            dirs.push(Directive::Promote {
                base: region,
                size: PageSize::Size2M,
            });
        }
        // Intermediate sizes stay as coalesced 64KB PTEs — the hardware
        // covers them with one merged entry.
    }
    Ok(dirs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_types::{SmId, TbId};

    fn cfg() -> SimConfig {
        SimConfig::baseline()
    }

    fn alloc_info(id: u16, base: u64, bytes: u64, hint: StaticHint) -> AllocInfo {
        AllocInfo {
            id: AllocId::new(id),
            base: VirtAddr::new(base),
            bytes,
            name: format!("a{id}"),
            hint,
        }
    }

    fn ctx(va: u64, alloc: u16, chiplet: u8) -> FaultCtx {
        FaultCtx {
            va: VirtAddr::new(va),
            alloc: AllocId::new(alloc),
            requester: ChipletId::new(chiplet),
            sm: SmId::new(0),
            tb: TbId::new(0),
            cycle: 0,
        }
    }

    const MB: u64 = 1 << 20;

    #[test]
    fn olp_promotes_single_chiplet_blocks_during_pmm() {
        let mut c = Clap::new();
        c.begin(
            &[alloc_info(0, 2 * MB, 64 * MB, StaticHint::Irregular)],
            &cfg(),
        );
        let mut promotes = 0;
        for i in 0..32u64 {
            let dirs = c
                .on_fault(&ctx(2 * MB + i * BASE_PAGE_BYTES, 0, 1))
                .unwrap();
            promotes += dirs
                .iter()
                .filter(|d| matches!(d, Directive::Promote { .. }))
                .count();
        }
        assert_eq!(promotes, 1, "OLP must promote the fully local block");
    }

    #[test]
    fn olp_releases_reservation_on_foreign_touch() {
        let mut c = Clap::new();
        c.begin(
            &[alloc_info(0, 2 * MB, 64 * MB, StaticHint::Irregular)],
            &cfg(),
        );
        // Chiplet 0 touches page 0 (reserves 2MB), chiplet 1 touches page 1.
        let d0 = c.on_fault(&ctx(2 * MB, 0, 0)).unwrap();
        let Directive::Map { pa: pa0, .. } = d0[0] else {
            panic!("expected Map")
        };
        let d1 = c.on_fault(&ctx(2 * MB + BASE_PAGE_BYTES, 0, 1)).unwrap();
        let Directive::Map { pa: pa1, .. } = d1[0] else {
            panic!("expected Map")
        };
        let layout = PhysLayout::new(4);
        assert_eq!(layout.chiplet_of(pa0).index(), 0);
        assert_eq!(layout.chiplet_of(pa1).index(), 1);
        // The released block's frames are reusable: the next chiplet-0
        // page comes from the *same* PF block (frame reuse, §4.2).
        let d2 = c
            .on_fault(&ctx(2 * MB + 2 * BASE_PAGE_BYTES, 0, 0))
            .unwrap();
        let Directive::Map { pa: pa2, .. } = d2[0] else {
            panic!("expected Map")
        };
        assert_eq!(layout.block_of(pa2), layout.block_of(pa0));
    }

    /// Drives PMM with a perfect `group`-page rotation and returns the
    /// selected size.
    fn profile_with_groups(total_mb: u64, group: u64) -> Option<PageSize> {
        let mut c = Clap::new();
        c.begin(
            &[alloc_info(0, 2 * MB, total_mb * MB, StaticHint::Irregular)],
            &cfg(),
        );
        let pages = total_mb * MB / BASE_PAGE_BYTES;
        for i in 0..pages {
            let who = ((i / group) % 4) as u8;
            c.on_fault(&ctx(2 * MB + i * BASE_PAGE_BYTES, 0, who))
                .unwrap();
            if c.selected_size(AllocId::new(0)).is_some() {
                break;
            }
        }
        c.selected_size(AllocId::new(0))
    }

    #[test]
    fn mma_selects_the_locality_group_size() {
        assert_eq!(profile_with_groups(64, 4), Some(PageSize::Size256K));
        assert_eq!(profile_with_groups(64, 8), Some(PageSize::Size512K));
        assert_eq!(profile_with_groups(64, 32), Some(PageSize::Size2M));
        assert_eq!(profile_with_groups(64, 1), Some(PageSize::Size64K));
    }

    #[test]
    fn rt_relaxation_selects_2m_for_shared_structures() {
        let mut c = Clap::new();
        c.begin(
            &[alloc_info(0, 2 * MB, 64 * MB, StaticHint::Shared)],
            &cfg(),
        );
        // Scattered first-touch (shared structure) + remote-heavy walks.
        let pages = 64 * MB / BASE_PAGE_BYTES;
        for i in 0..pages {
            let who = (i % 4) as u8;
            let va = 2 * MB + i * BASE_PAGE_BYTES;
            // Every chiplet's accesses hit the structure, 3/4 remote.
            for req in 0..4u8 {
                c.on_access(&WalkEvent {
                    va: VirtAddr::new(va),
                    alloc: AllocId::new(0),
                    requester: ChipletId::new(req),
                    data_chiplet: ChipletId::new(who),
                    cycle: 0,
                });
            }
            c.on_fault(&ctx(va, 0, who)).unwrap();
            if c.selected_size(AllocId::new(0)).is_some() {
                break;
            }
        }
        assert_eq!(c.selected_size(AllocId::new(0)), Some(PageSize::Size2M));
    }

    #[test]
    fn apply_phase_reserves_contiguous_frames_of_selected_size() {
        let mut c = Clap::new();
        c.begin(
            &[alloc_info(0, 2 * MB, 64 * MB, StaticHint::Irregular)],
            &cfg(),
        );
        // Profile with 256KB groups until selection.
        let pages = 64 * MB / BASE_PAGE_BYTES;
        let mut i = 0;
        while c.selected_size(AllocId::new(0)).is_none() && i < pages {
            let who = ((i / 4) % 4) as u8;
            c.on_fault(&ctx(2 * MB + i * BASE_PAGE_BYTES, 0, who))
                .unwrap();
            i += 1;
        }
        assert_eq!(c.selected_size(AllocId::new(0)), Some(PageSize::Size256K));
        // Map a fresh 256KB region out of order: offsets preserved.
        let region = 40 * MB; // untouched, 256KB-aligned
        let d1 = c.on_fault(&ctx(region + BASE_PAGE_BYTES, 0, 2)).unwrap();
        let d0 = c.on_fault(&ctx(region, 0, 2)).unwrap();
        let (Directive::Map { pa: p1, .. }, Directive::Map { pa: p0, .. }) = (d1[0], d0[0]) else {
            panic!("expected maps")
        };
        assert_eq!(p1.distance_from(p0), BASE_PAGE_BYTES);
        assert!(p0.is_aligned(PageSize::Size256K.bytes()));
        assert_eq!(PhysLayout::new(4).chiplet_of(p0).index(), 2);
    }

    #[test]
    fn tiny_structures_fall_back_to_olp() {
        let mut c = Clap::new();
        // 4MB structure: threshold = 13 pages, never fills a block before
        // MMA triggers -> OLP fallback.
        c.begin(
            &[alloc_info(0, 2 * MB, 4 * MB, StaticHint::Irregular)],
            &cfg(),
        );
        for i in 0..13u64 {
            // Alternate chiplets so OLP releases and no block fills.
            c.on_fault(&ctx(2 * MB + i * 2 * BASE_PAGE_BYTES, 0, (i % 4) as u8))
                .unwrap();
        }
        assert!(c.used_olp_fallback(AllocId::new(0)));
        assert_eq!(c.selected_size(AllocId::new(0)), None);
    }

    #[test]
    fn olp_disables_after_release_limit() {
        let mut c = Clap::new();
        c.begin(
            &[alloc_info(0, 2 * MB, 64 * MB, StaticHint::Irregular)],
            &cfg(),
        );
        // Touch each block's page 0 from chiplet 0 and page 1 from chiplet
        // 1: every block releases. Limit = ceil(32 * 0.05) = 2 releases.
        for b in 0..4u64 {
            let base = 2 * MB + b * VA_BLOCK_BYTES;
            c.on_fault(&ctx(base, 0, 0)).unwrap();
            c.on_fault(&ctx(base + BASE_PAGE_BYTES, 0, 1)).unwrap();
        }
        let st = c.st.as_ref().unwrap();
        let a = &st.per[&AllocId::new(0)];
        assert!(a.releases >= 3);
        assert!(!a.olp_enabled, "OLP should disable after 5% releases");
    }

    #[test]
    fn static_mode_predicts_sizes_without_profiling() {
        let mut c = Clap::sa();
        c.begin(
            &[
                alloc_info(
                    0,
                    2 * MB,
                    64 * MB,
                    StaticHint::Partitioned { period_bytes: MB },
                ),
                alloc_info(1, 128 * MB, 64 * MB, StaticHint::Shared),
                alloc_info(2, 256 * MB, 64 * MB, StaticHint::Irregular),
            ],
            &cfg(),
        );
        assert_eq!(c.selected_size(AllocId::new(0)), Some(PageSize::Size256K));
        assert_eq!(c.selected_size(AllocId::new(1)), Some(PageSize::Size2M));
        assert_eq!(c.selected_size(AllocId::new(2)), Some(PageSize::Size64K));
        // Placement follows the prediction, not the requester.
        let d = c.on_fault(&ctx(2 * MB + 512 * 1024, 0, 3)).unwrap();
        let Directive::Map { pa, .. } = d[0] else {
            panic!("expected Map")
        };
        assert_eq!(PhysLayout::new(4).chiplet_of(pa).index(), 2);
    }

    #[test]
    fn hybrid_mode_profiles_only_irregular_structures() {
        let mut c = Clap::sa_plus_plus();
        c.begin(
            &[
                alloc_info(
                    0,
                    2 * MB,
                    64 * MB,
                    StaticHint::Partitioned { period_bytes: 0 },
                ),
                alloc_info(1, 128 * MB, 64 * MB, StaticHint::Irregular),
            ],
            &cfg(),
        );
        // Partitioned: statically sized already.
        assert_eq!(c.selected_size(AllocId::new(0)), Some(PageSize::Size2M));
        // Irregular: still profiling.
        assert_eq!(c.selected_size(AllocId::new(1)), None);
        // And its placement is first-touch (requester 3 -> chiplet 3).
        let d = c.on_fault(&ctx(128 * MB, 1, 3)).unwrap();
        let Directive::Map { pa, .. } = d[0] else {
            panic!("expected Map")
        };
        assert_eq!(PhysLayout::new(4).chiplet_of(pa).index(), 3);
    }

    /// CLAP's migration extension keeps per-page accessor histograms of
    /// 8 chiplets, so it refuses a 16-chiplet machine (valid under
    /// `validate()`) with a typed error at the first fault. Plain CLAP
    /// keeps no histograms and places pages on 16 chiplets as usual (the
    /// topology study runs it there).
    #[test]
    fn migration_refuses_more_chiplets_than_the_histogram() {
        let mut cfg = cfg();
        cfg.num_chiplets = 16;
        cfg.validate()
            .expect("16 chiplets on a ring are a valid machine");
        let allocs = [alloc_info(0, 2 * MB, 64 * MB, StaticHint::Irregular)];
        let va = 2 * MB;

        let mut m = Clap::new().with_migration();
        m.begin(&allocs, &cfg);
        let e = m.on_fault(&ctx(va, 0, 12)).unwrap_err();
        assert!(matches!(e, SimError::ConfigInvalid { .. }), "{e:?}");
        m.on_kernel_end(0, 1_000);
        for req in [3, 8, 12, 15] {
            m.on_access(&WalkEvent {
                va: VirtAddr::new(va),
                alloc: AllocId::new(0),
                requester: ChipletId::new(req),
                data_chiplet: ChipletId::new(0),
                cycle: 2_000,
            });
        }
        assert!(m.on_epoch(3_000).is_empty());

        let mut plain = Clap::new();
        plain.begin(&allocs, &cfg);
        let dirs = plain.on_fault(&ctx(va, 0, 12)).unwrap();
        assert!(!dirs.is_empty(), "plain CLAP maps the page");
    }
}
