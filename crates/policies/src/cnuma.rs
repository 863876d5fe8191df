//! Ideal C-NUMA \[28, 34\]: reactive large-page construction/splitting via
//! page migration, adapted from NUMA CPUs (paper §5, configs 3-4).
//!
//! Pages start as 2MB regions (reservation + promotion). Software sampling
//! tracks per-64KB-page accessor histograms; each epoch, blocks whose
//! remote-access ratio exceeds a threshold are *split* — demoted to 64KB
//! pages whose frames migrate to each page's dominant accessor. The
//! `+inter` variant (paper config 4) descends the size ladder gradually
//! (2MB → 512KB → 128KB → 64KB), keeping sub-region frames physically
//! contiguous so coalesced TLB entries retain intermediate reach.
//!
//! Migration is free when `ideal` (as the paper assumes for configs 3-4);
//! Fig. 20 re-enables real costs.

use mcm_mem::{FrameAllocator, ReservationTable};
use mcm_sim::{
    check_sampled_chiplets, AllocInfo, ChipletHistogram, Directive, FaultCtx, PagingPolicy,
    SimConfig, SimError, WalkEvent, MAX_SAMPLED_CHIPLETS,
};
use mcm_types::{
    AllocId, ChipletId, FastMap, FastSet, PageSize, PhysAddr, PhysLayout, VirtAddr,
    BASE_PAGE_BYTES, VA_BLOCK_BYTES,
};

use crate::mem_to_sim;

const PAGES_PER_BLOCK: usize = 32;

/// The Ideal C-NUMA policy.
///
/// # Examples
///
/// ```
/// use mcm_policies::CNuma;
/// use mcm_sim::PagingPolicy;
///
/// assert_eq!(CNuma::new().name(), "Ideal_C-NUMA");
/// assert_eq!(CNuma::with_intermediate_sizes().name(), "Ideal_C-NUMA+inter");
/// ```
#[derive(Debug)]
pub struct CNuma {
    name: &'static str,
    inter: bool,
    ideal: bool,
    st: Option<St>,
}

#[derive(Debug)]
struct BlockState {
    base: VirtAddr,
    alloc: AllocId,
    /// Current mapping granularity (2MB right after promotion).
    granularity: PageSize,
    /// Per 64KB page, per chiplet access counts.
    counts: Vec<ChipletHistogram>,
    /// Current frame backing each 64KB page (valid once demoted; while the
    /// block is a single 2MB leaf, entry `i` is `base_frame + i * 64KB`).
    frames: Vec<PhysAddr>,
}

#[derive(Debug)]
struct St {
    allocator: FrameAllocator,
    reservations: ReservationTable,
    layout: PhysLayout,
    /// Promoted blocks eligible for splitting, by VA-block index.
    blocks: FastMap<u64, BlockState>,
    dirty: FastSet<u64>,
}

impl CNuma {
    /// Remote-ratio threshold above which a block is split.
    const SPLIT_THRESHOLD: f64 = 0.25;
    /// Minimum samples per block before acting.
    const MIN_SAMPLES: u32 = 32;

    /// Plain Ideal C-NUMA: sizes {64KB, 2MB} only (paper config 3).
    pub fn new() -> Self {
        CNuma {
            name: "Ideal_C-NUMA",
            inter: false,
            ideal: true,
            st: None,
        }
    }

    /// The hypothetical variant with intermediate page sizes (config 4).
    /// Pair with `TranslationConfig::with_clap_coalescing()` so contiguous
    /// sub-regions keep intermediate TLB reach.
    pub fn with_intermediate_sizes() -> Self {
        CNuma {
            name: "Ideal_C-NUMA+inter",
            inter: true,
            ideal: true,
            st: None,
        }
    }

    /// Charges real shootdown + copy costs per migration (Fig. 20).
    pub fn with_real_migration(mut self) -> Self {
        self.ideal = false;
        self.name = if self.inter { "C-NUMA+inter" } else { "C-NUMA" };
        self
    }

    fn st(&mut self) -> Option<&mut St> {
        self.st.as_mut()
    }
}

impl Default for CNuma {
    fn default() -> Self {
        Self::new()
    }
}

impl PagingPolicy for CNuma {
    fn name(&self) -> &str {
        self.name
    }

    fn begin(&mut self, _allocs: &[AllocInfo], cfg: &SimConfig) {
        self.st = Some(St {
            allocator: FrameAllocator::new(cfg.layout(), cfg.pf_blocks_per_chiplet)
                .with_scatter(FrameAllocator::DRIVER_SCATTER),
            reservations: ReservationTable::new(),
            layout: cfg.layout(),
            blocks: FastMap::default(),
            dirty: FastSet::default(),
        });
    }

    fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
        // Initial mapping: 2MB regions via reservation, first-touch.
        let Some(st) = self.st.as_mut() else {
            return Err(SimError::PolicyViolation {
                reason: "on_fault before begin()".into(),
            });
        };
        check_sampled_chiplets(self.name, st.layout.num_chiplets())?;
        let region = ctx.va.align_down(VA_BLOCK_BYTES);
        if st.reservations.covering(ctx.va).is_none() {
            let (frame, served) = st
                .allocator
                .alloc_frame_or_fallback(ctx.requester, PageSize::Size2M, ctx.alloc)
                .map_err(mem_to_sim)?;
            st.reservations
                .reserve(region, frame, PageSize::Size2M, served)
                .map_err(mem_to_sim)?;
        }
        let (pa, full) = st.reservations.populate(ctx.va).map_err(mem_to_sim)?;
        let mut dirs = vec![Directive::Map {
            va: ctx.va,
            pa,
            size: PageSize::Size64K,
            alloc: ctx.alloc,
        }];
        if full {
            let r = st.reservations.release(region).map_err(mem_to_sim)?;
            st.blocks.insert(
                region.raw() / VA_BLOCK_BYTES,
                BlockState {
                    base: region,
                    alloc: ctx.alloc,
                    granularity: PageSize::Size2M,
                    counts: vec![[0; MAX_SAMPLED_CHIPLETS]; PAGES_PER_BLOCK],
                    frames: (0..PAGES_PER_BLOCK as u64)
                        .map(|i| r.pa + i * BASE_PAGE_BYTES)
                        .collect(),
                },
            );
            dirs.push(Directive::Promote {
                base: region,
                size: PageSize::Size2M,
            });
        }
        Ok(dirs)
    }

    fn wants_access_samples(&self) -> bool {
        true
    }

    fn on_access(&mut self, ev: &WalkEvent) {
        let Some(st) = self.st() else {
            return;
        };
        let block = ev.va.raw() / VA_BLOCK_BYTES;
        if let Some(b) = st.blocks.get_mut(&block) {
            let page = (ev.va.raw() % VA_BLOCK_BYTES / BASE_PAGE_BYTES) as usize;
            // Blocks exist only on a machine `on_fault` accepted, whose
            // chiplets the histogram holds.
            b.counts[page][ev.requester.index()] += 1;
            st.dirty.insert(block);
        }
    }

    fn on_epoch(&mut self, _cycle: u64) -> Vec<Directive> {
        let inter = self.inter;
        let inter_next = move |s: PageSize| {
            if !inter {
                return PageSize::Size64K;
            }
            match s {
                PageSize::Size2M => PageSize::Size512K,
                PageSize::Size512K => PageSize::Size128K,
                _ => PageSize::Size64K,
            }
        };
        let Some(st) = self.st.as_mut() else {
            return Vec::new();
        };
        let mut dirs = Vec::new();
        let mut dirty: Vec<u64> = st.dirty.drain().collect();
        dirty.sort_unstable();
        for block in dirty {
            let Some(b) = st.blocks.get_mut(&block) else {
                continue;
            };
            if b.granularity == PageSize::Size64K {
                continue;
            }
            // Remote ratio of the block under its *current* placement.
            let mut total = 0u32;
            let mut remote = 0u32;
            for (i, c) in b.counts.iter().enumerate() {
                let home = st.layout.chiplet_of(b.frames[i]).index();
                let t: u32 = c.iter().sum();
                total += t;
                remote += t - c[home];
            }
            if total < Self::MIN_SAMPLES || (remote as f64) < Self::SPLIT_THRESHOLD * total as f64 {
                continue;
            }
            let next = inter_next(b.granularity);

            // Demote the single 2MB leaf into 64KB leaves at the same
            // frames, if not already demoted. Best-effort: if the frame
            // bookkeeping disagrees, leave the block promoted.
            if b.granularity == PageSize::Size2M {
                let frame0 = b.frames[0];
                if st
                    .allocator
                    .downgrade_block(frame0, b.alloc, &[true; 32])
                    .is_err()
                {
                    continue;
                }
                dirs.push(Directive::Unmap { va: b.base });
                for i in 0..PAGES_PER_BLOCK as u64 {
                    dirs.push(Directive::Map {
                        va: b.base + i * BASE_PAGE_BYTES,
                        pa: frame0 + i * BASE_PAGE_BYTES,
                        size: PageSize::Size64K,
                        alloc: b.alloc,
                    });
                }
            }
            b.granularity = next;

            // Regroup at the new granularity: each sub-region moves (as a
            // unit, keeping physical contiguity) to its dominant accessor.
            let pages_per_region = (next.bytes() / BASE_PAGE_BYTES) as usize;
            let chiplets = st.layout.num_chiplets();
            for r in 0..PAGES_PER_BLOCK / pages_per_region {
                let lo = r * pages_per_region;
                let hi = lo + pages_per_region;
                let mut agg = [0u64; MAX_SAMPLED_CHIPLETS];
                for c in &b.counts[lo..hi] {
                    for (a, x) in agg.iter_mut().zip(c.iter()) {
                        *a += *x as u64;
                    }
                }
                if agg.iter().sum::<u64>() == 0 {
                    continue; // region unsampled this epoch
                }
                let Some(dominant) = agg[..chiplets]
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, c)| **c)
                    .map(|(i, _)| ChipletId::new(i as u8))
                else {
                    continue;
                };
                let current = st.layout.chiplet_of(b.frames[lo]);
                if dominant == current {
                    continue;
                }
                if !st.allocator.can_alloc(dominant, next, b.alloc) {
                    continue;
                }
                let Ok(new_frame) = st.allocator.alloc_frame(dominant, next, b.alloc) else {
                    continue;
                };
                for (i, page) in (lo..hi).enumerate() {
                    let to_pa = new_frame + i as u64 * BASE_PAGE_BYTES;
                    dirs.push(Directive::Migrate {
                        va: b.base + page as u64 * BASE_PAGE_BYTES,
                        to_pa,
                    });
                    // Free the old 64KB frame.
                    let old = b.frames[page];
                    let _ = st.allocator.free_frame(old, PageSize::Size64K, b.alloc);
                    b.frames[page] = to_pa;
                }
            }
            for c in &mut b.counts {
                *c = [0; MAX_SAMPLED_CHIPLETS];
            }
        }
        dirs
    }

    fn ideal_migration(&self) -> bool {
        self.ideal
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

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_types::{SmId, TbId};

    fn ctx(va: u64, chiplet: u8) -> FaultCtx {
        FaultCtx {
            va: VirtAddr::new(va),
            alloc: AllocId::new(0),
            requester: ChipletId::new(chiplet),
            sm: SmId::new(0),
            tb: TbId::new(0),
            cycle: 0,
        }
    }

    fn ev(va: u64, chiplet: u8) -> WalkEvent {
        WalkEvent {
            va: VirtAddr::new(va),
            alloc: AllocId::new(0),
            requester: ChipletId::new(chiplet),
            data_chiplet: ChipletId::new(0),
            cycle: 0,
        }
    }

    /// Fault in a whole 2MB block from chiplet 0 and return the promote
    /// directives observed.
    fn fill_block(c: &mut CNuma, base: u64) -> bool {
        let mut promoted = false;
        for i in 0..32u64 {
            let dirs = c.on_fault(&ctx(base + i * BASE_PAGE_BYTES, 0)).unwrap();
            promoted |= dirs.iter().any(|d| matches!(d, Directive::Promote { .. }));
        }
        promoted
    }

    #[test]
    fn promotes_blocks_like_2m_paging() {
        let mut c = CNuma::new();
        c.begin(&[], &SimConfig::baseline());
        assert!(fill_block(&mut c, 2 << 20));
    }

    #[test]
    fn splits_remote_heavy_blocks_to_dominant_accessors() {
        let mut c = CNuma::new();
        c.begin(&[], &SimConfig::baseline());
        let base = 2u64 << 20;
        fill_block(&mut c, base);
        // Pages 16..32 hammered by chiplet 2; pages 0..16 by chiplet 0.
        for i in 0..32u64 {
            let who = if i < 16 { 0 } else { 2 };
            for _ in 0..4 {
                c.on_access(&ev(base + i * BASE_PAGE_BYTES, who));
            }
        }
        let dirs = c.on_epoch(1_000);
        // Unmap of the 2MB leaf, 32 re-maps, and 16 migrations.
        assert!(matches!(dirs[0], Directive::Unmap { .. }));
        let maps = dirs
            .iter()
            .filter(|d| matches!(d, Directive::Map { .. }))
            .count();
        let migs: Vec<_> = dirs
            .iter()
            .filter_map(|d| match d {
                Directive::Migrate { va, to_pa } => Some((*va, *to_pa)),
                _ => None,
            })
            .collect();
        assert_eq!(maps, 32);
        assert_eq!(migs.len(), 16);
        let layout = PhysLayout::new(4);
        for (va, to) in migs {
            assert!(va.raw() >= base + 16 * BASE_PAGE_BYTES);
            assert_eq!(layout.chiplet_of(to).index(), 2);
        }
        // Converged: next epoch with balanced counts does nothing.
        assert!(c.on_epoch(2_000).is_empty());
    }

    #[test]
    fn local_blocks_are_left_alone() {
        let mut c = CNuma::new();
        c.begin(&[], &SimConfig::baseline());
        let base = 2u64 << 20;
        fill_block(&mut c, base);
        for i in 0..32u64 {
            for _ in 0..4 {
                c.on_access(&ev(base + i * BASE_PAGE_BYTES, 0));
            }
        }
        assert!(c.on_epoch(1_000).is_empty());
    }

    #[test]
    fn inter_variant_descends_the_ladder_gradually() {
        let mut c = CNuma::with_intermediate_sizes();
        c.begin(&[], &SimConfig::baseline());
        let base = 2u64 << 20;
        fill_block(&mut c, base);
        // Every 512KB sub-region is dominated by a different chiplet.
        let hammer = |c: &mut CNuma| {
            for i in 0..32u64 {
                let who = (i / 8) as u8; // 8 pages = 512KB per chiplet
                for _ in 0..4 {
                    c.on_access(&ev(base + i * BASE_PAGE_BYTES, who));
                }
            }
        };
        hammer(&mut c);
        let dirs = c.on_epoch(1_000);
        // First step: split to 512KB regions; 3 of 4 regions move (region
        // 0 already lives on chiplet 0).
        let migs = dirs
            .iter()
            .filter(|d| matches!(d, Directive::Migrate { .. }))
            .count();
        assert_eq!(migs, 24);
        // The regions are now local; further epochs do not descend.
        hammer(&mut c);
        assert!(c.on_epoch(2_000).is_empty());
    }

    /// C-NUMA refuses a 16-chiplet machine (it passes `validate()`, but
    /// the access histograms hold 8 chiplets) with a typed error at the
    /// first fault; nothing it samples afterwards panics or migrates.
    #[test]
    fn more_chiplets_than_the_histogram_are_rejected() {
        let mut cfg = SimConfig::baseline();
        cfg.num_chiplets = 16;
        cfg.validate()
            .expect("16 chiplets on a ring are a valid machine");
        for mut c in [
            CNuma::new(),
            CNuma::with_intermediate_sizes().with_real_migration(),
        ] {
            c.begin(&[], &cfg);
            let base = 2u64 << 20;
            let e = c.on_fault(&ctx(base, 12)).unwrap_err();
            assert!(matches!(e, SimError::ConfigInvalid { .. }), "{e:?}");
            for i in 0..32u64 {
                c.on_access(&ev(base + i * BASE_PAGE_BYTES, 12));
            }
            assert!(c.on_epoch(1_000).is_empty());
        }
    }
}
