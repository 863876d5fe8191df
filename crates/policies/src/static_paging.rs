//! Static paging at a fixed page size, with first-touch or static-analysis
//! placement (paper configs 1, 2, 5-7, 9 and the SA baselines of §5.2).

use mcm_mem::{FrameAllocator, ReservationTable};
use mcm_sim::{AllocInfo, Directive, FaultCtx, PagingPolicy, SimConfig, SimError};
use mcm_types::{AllocId, ChipletId, PageSize, PhysLayout, VirtAddr, BASE_PAGE_BYTES};

use crate::mem_to_sim;

/// How the target chiplet of a page is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// First-touch (FT \[13\]): the page goes to the chiplet whose thread
    /// faulted it.
    FirstTouch,
    /// Static-analysis (SA = LASP \[47\] + SUV \[17\]): the page goes where the
    /// compile-time model predicts its accessors run; unanalysable
    /// structures fall back to round-robin interleaving.
    StaticAnalysis,
}

/// Fixed-page-size demand paging with physical-frame reservation (paper
/// Fig. 5): for sizes above 64KB the driver reserves a frame of the full
/// size, populates 64KB subpages on demand, and promotes once complete.
/// The demand granularity is 64KB for *every* size (4KB pages are grouped
/// 16-to-a-fault), keeping fault counts identical across configurations.
///
/// # Examples
///
/// ```
/// use mcm_policies::{s64k, s2m, static_paging, Placement};
/// use mcm_sim::PagingPolicy;
/// use mcm_types::PageSize;
///
/// assert_eq!(s64k().name(), "S-64KB");
/// assert_eq!(s2m().name(), "S-2MB");
/// let s = static_paging(PageSize::Size256K, Placement::FirstTouch);
/// assert_eq!(s.name(), "S-256KB");
/// ```
#[derive(Debug)]
pub struct StaticPaging {
    name: String,
    size: PageSize,
    placement: Placement,
    st: Option<St>,
}

#[derive(Debug)]
struct St {
    allocator: FrameAllocator,
    reservations: ReservationTable,
    allocs: Vec<AllocInfo>,
    layout: PhysLayout,
}

/// Static paging with an explicit size and placement; named
/// `"S-<size>"` or `"SA-<size>"`.
pub fn static_paging(size: PageSize, placement: Placement) -> StaticPaging {
    let prefix = match placement {
        Placement::FirstTouch => "S",
        Placement::StaticAnalysis => "SA",
    };
    StaticPaging {
        name: format!("{prefix}-{size}"),
        size,
        placement,
        st: None,
    }
}

/// Config 1: static 64KB paging, first-touch (also the FT baseline).
pub fn s64k() -> StaticPaging {
    static_paging(PageSize::Size64K, Placement::FirstTouch)
}

/// Config 2: static 2MB paging, first-touch.
pub fn s2m() -> StaticPaging {
    static_paging(PageSize::Size2M, Placement::FirstTouch)
}

/// Static 4KB paging (the §3.3 study's smallest size).
pub fn s4k() -> StaticPaging {
    static_paging(PageSize::Size4K, Placement::FirstTouch)
}

/// Config 6: MGvm \[87\] — 64KB first-touch data placement whose translation
/// benefit comes from requester-local PTE placement. Pair with
/// `SimConfig { pte_placement: PtePlacement::RequesterLocal, .. }`.
pub fn mgvm() -> StaticPaging {
    StaticPaging {
        name: "MGvm".into(),
        ..s64k()
    }
}

/// Config 7: Barre-Chord \[32\] — 64KB first-touch placement whose TLB
/// controller coalesces uniform-stride PTE patterns. Pair with
/// `TranslationConfig { barre_pattern: true, .. }`.
pub fn fbarre() -> StaticPaging {
    StaticPaging {
        name: "F-Barre".into(),
        ..s64k()
    }
}

/// Config 9: the `Ideal` upper bound — 64KB placement with magic 2MB
/// translation reach. Pair with `TranslationConfig { ideal_2m_reach: true,
/// .. }`.
pub fn ideal() -> StaticPaging {
    StaticPaging {
        name: "Ideal".into(),
        ..s64k()
    }
}

/// SA-64KB (§5.2): static-analysis placement at 64KB pages.
pub fn sa_64k() -> StaticPaging {
    static_paging(PageSize::Size64K, Placement::StaticAnalysis)
}

/// SA-2MB (§5.2): static-analysis placement at 2MB pages.
pub fn sa_2m() -> StaticPaging {
    static_paging(PageSize::Size2M, Placement::StaticAnalysis)
}

impl StaticPaging {
    /// Chooses the chiplet that should own the page containing `va`.
    fn target_chiplet(&self, ctx: &FaultCtx) -> Result<ChipletId, SimError> {
        let Some(st) = self.st.as_ref() else {
            return Err(SimError::PolicyViolation {
                reason: "on_fault before begin()".into(),
            });
        };
        match self.placement {
            Placement::FirstTouch => Ok(ctx.requester),
            Placement::StaticAnalysis => {
                let Some(info) = st.allocs.iter().find(|a| a.id == ctx.alloc) else {
                    return Err(SimError::PolicyViolation {
                        reason: format!("fault for unknown allocation {}", ctx.alloc),
                    });
                };
                // Placement decisions apply at the mapping granularity:
                // a 2MB page is placed where its *region base* belongs,
                // which is exactly the misalignment effect of §5.2.
                let gran = self.size.bytes().max(BASE_PAGE_BYTES);
                let region_off = ctx.va.align_down(gran).distance_from(info.base);
                Ok(info
                    .hint
                    .sa_chiplet(info.bytes, region_off, st.layout.num_chiplets()))
            }
        }
    }
}

impl PagingPolicy for StaticPaging {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin(&mut self, allocs: &[AllocInfo], cfg: &SimConfig) {
        self.st = Some(St {
            allocator: FrameAllocator::new(cfg.layout(), cfg.pf_blocks_per_chiplet)
                .with_scatter(FrameAllocator::DRIVER_SCATTER),
            reservations: ReservationTable::new(),
            allocs: allocs.to_vec(),
            layout: cfg.layout(),
        });
    }

    fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
        let target = self.target_chiplet(ctx)?;
        let Some(st) = self.st.as_mut() else {
            return Err(SimError::PolicyViolation {
                reason: "on_fault before begin()".into(),
            });
        };
        map_demand_page(st, ctx.va, ctx.alloc, target, self.size)
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

/// Shared fault-resolution machinery: maps the 64KB demand granule at
/// `page` under a fixed-page-size regime targeting `target`.
fn map_demand_page(
    st: &mut St,
    page: VirtAddr,
    alloc: AllocId,
    target: ChipletId,
    size: PageSize,
) -> Result<Vec<Directive>, SimError> {
    match size {
        PageSize::Size4K => {
            // One 64KB frame backs the granule; sixteen 4KB leaves.
            let (frame, _) = st
                .allocator
                .alloc_frame_or_fallback(target, PageSize::Size64K, alloc)
                .map_err(mem_to_sim)?;
            Ok((0..16u64)
                .map(|i| Directive::Map {
                    va: page + i * 4096,
                    pa: frame + i * 4096,
                    size: PageSize::Size4K,
                    alloc,
                })
                .collect())
        }
        PageSize::Size64K => {
            let (frame, _) = st
                .allocator
                .alloc_frame_or_fallback(target, PageSize::Size64K, alloc)
                .map_err(mem_to_sim)?;
            Ok(vec![Directive::Map {
                va: page,
                pa: frame,
                size: PageSize::Size64K,
                alloc,
            }])
        }
        big => {
            let region = page.align_down(big.bytes());
            if st.reservations.covering(page).is_none() {
                let (frame, served) = st
                    .allocator
                    .alloc_frame_or_fallback(target, big, alloc)
                    .map_err(mem_to_sim)?;
                st.reservations
                    .reserve(region, frame, big, served)
                    .map_err(mem_to_sim)?;
            }
            let (pa, full) = st.reservations.populate(page).map_err(mem_to_sim)?;
            let mut dirs = vec![Directive::Map {
                va: page,
                pa,
                size: PageSize::Size64K,
                alloc,
            }];
            if full {
                st.reservations.release(region).map_err(mem_to_sim)?;
                dirs.push(Directive::Promote {
                    base: region,
                    size: big,
                });
            }
            Ok(dirs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_sim::StaticHint;
    use mcm_types::{SmId, TbId};

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

    fn allocs() -> Vec<AllocInfo> {
        vec![AllocInfo {
            id: AllocId::new(0),
            base: VirtAddr::new(2 << 20),
            bytes: 32 << 20,
            name: "a".into(),
            hint: StaticHint::Partitioned {
                period_bytes: 1 << 20,
            },
        }]
    }

    fn begin(mut p: StaticPaging) -> StaticPaging {
        p.begin(&allocs(), &SimConfig::baseline());
        p
    }

    #[test]
    fn s64k_maps_single_page_at_requester() {
        let mut p = begin(s64k());
        let dirs = p.on_fault(&ctx(2 << 20, 0, 3)).unwrap();
        assert_eq!(dirs.len(), 1);
        match dirs[0] {
            Directive::Map { va, pa, size, .. } => {
                assert_eq!(va.raw(), 2 << 20);
                assert_eq!(size, PageSize::Size64K);
                assert_eq!(PhysLayout::new(4).chiplet_of(pa).index(), 3);
            }
            _ => panic!("expected Map"),
        }
    }

    #[test]
    fn s4k_maps_sixteen_leaves_per_granule() {
        let mut p = begin(s4k());
        let dirs = p.on_fault(&ctx(2 << 20, 0, 1)).unwrap();
        assert_eq!(dirs.len(), 16);
        for (i, d) in dirs.iter().enumerate() {
            match *d {
                Directive::Map { va, size, .. } => {
                    assert_eq!(size, PageSize::Size4K);
                    assert_eq!(va.raw(), (2 << 20) + i as u64 * 4096);
                }
                _ => panic!("expected Map"),
            }
        }
    }

    #[test]
    fn s2m_reserves_then_promotes_when_full() {
        let mut p = begin(s2m());
        let base = 2u64 << 20;
        let mut promoted = false;
        let mut first_pa = None;
        for i in 0..32u64 {
            let dirs = p.on_fault(&ctx(base + i * BASE_PAGE_BYTES, 0, 2)).unwrap();
            match dirs[0] {
                Directive::Map { pa, size, .. } => {
                    assert_eq!(size, PageSize::Size64K);
                    // All subpages land contiguously in one reserved frame.
                    if let Some(f) = first_pa {
                        assert_eq!(pa.raw(), f + i * BASE_PAGE_BYTES);
                    } else {
                        first_pa = Some(pa.raw());
                        assert_eq!(pa.raw() % (2 << 20), 0);
                    }
                }
                _ => panic!("expected Map first"),
            }
            if i < 31 {
                assert_eq!(dirs.len(), 1);
            } else {
                assert_eq!(dirs.len(), 2);
                assert!(matches!(
                    dirs[1],
                    Directive::Promote {
                        size: PageSize::Size2M,
                        ..
                    }
                ));
                promoted = true;
            }
        }
        assert!(promoted);
    }

    #[test]
    fn intermediate_size_promotes_at_its_own_granularity() {
        let mut p = begin(static_paging(PageSize::Size256K, Placement::FirstTouch));
        let base = 2u64 << 20;
        for i in 0..3 {
            let dirs = p.on_fault(&ctx(base + i * BASE_PAGE_BYTES, 0, 0)).unwrap();
            assert_eq!(dirs.len(), 1, "page {i}");
        }
        let dirs = p.on_fault(&ctx(base + 3 * BASE_PAGE_BYTES, 0, 0)).unwrap();
        assert_eq!(dirs.len(), 2);
        assert!(matches!(
            dirs[1],
            Directive::Promote {
                size: PageSize::Size256K,
                ..
            }
        ));
    }

    #[test]
    fn sa_partitioned_places_by_period_not_requester() {
        let mut p = begin(sa_64k());
        let base = 2u64 << 20;
        // Period 1MB over 4 chiplets: 256KB segments.
        for (off, want) in [
            (0u64, 0usize),
            (256 << 10, 1),
            (512 << 10, 2),
            (768 << 10, 3),
            (1 << 20, 0),
        ] {
            let dirs = p.on_fault(&ctx(base + off, 0, 3)).unwrap(); // requester 3 ignored
            match dirs[0] {
                Directive::Map { pa, .. } => {
                    assert_eq!(
                        PhysLayout::new(4).chiplet_of(pa).index(),
                        want,
                        "offset {off:#x}"
                    );
                }
                _ => panic!("expected Map"),
            }
        }
    }

    #[test]
    fn sa_irregular_interleaves_round_robin() {
        let info = AllocInfo {
            id: AllocId::new(0),
            base: VirtAddr::new(0),
            bytes: 32 << 20,
            name: "x".into(),
            hint: StaticHint::Irregular,
        };
        let c: Vec<usize> = (0..6)
            .map(|i| {
                info.hint
                    .sa_chiplet(info.bytes, i * BASE_PAGE_BYTES, 4)
                    .index()
            })
            .collect();
        assert_eq!(c, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn blocks_consumed_reports_allocator_usage() {
        let mut p = begin(s64k());
        assert_eq!(p.blocks_consumed(), Some(0));
        p.on_fault(&ctx(2 << 20, 0, 0)).unwrap();
        assert_eq!(p.blocks_consumed(), Some(1));
    }
}
