//! GRIT \[104\]: fine-grained dynamic page placement via access history,
//! adapted to MCM GPUs (paper §5, config 5).
//!
//! GRIT keeps 64KB pages (no size adaptation) and migrates a page to the
//! chiplet that dominates its access history. Page duplication is omitted
//! (a unified page table cannot map one VA twice, §2.3). The paper models
//! migrations as free ("ideal"); Fig. 20 re-runs it with real costs —
//! toggle with [`Grit::with_real_migration`].

use std::collections::{HashMap, HashSet};

use mcm_mem::FrameAllocator;
use mcm_sim::{AllocInfo, Directive, FaultCtx, PagingPolicy, SimConfig, SimError, WalkEvent};
use mcm_types::{AllocId, ChipletId, PageSize, PhysAddr, PhysLayout, VirtAddr, BASE_PAGE_BYTES};

use crate::mem_to_sim;

const MAX_CHIPLETS: usize = 8;

/// The GRIT policy (64KB first-touch placement + history-driven migration).
///
/// # Examples
///
/// ```
/// use mcm_policies::Grit;
/// use mcm_sim::PagingPolicy;
///
/// let g = Grit::new();
/// assert_eq!(g.name(), "GRIT");
/// assert!(g.ideal_migration());
/// assert!(!Grit::new().with_real_migration().ideal_migration());
/// ```
#[derive(Debug)]
pub struct Grit {
    ideal: bool,
    migrations: u64,
    st: Option<St>,
}

#[derive(Debug)]
struct St {
    allocator: FrameAllocator,
    layout: PhysLayout,
    /// Per-64KB-page access counts by requester chiplet.
    history: HashMap<u64, [u32; MAX_CHIPLETS]>,
    /// Pages touched since the last epoch.
    dirty: HashSet<u64>,
    /// Current frame of each mapped page (for freeing on migration).
    frames: HashMap<u64, (PhysAddr, AllocId)>,
}

impl Grit {
    /// Creates GRIT with ideal (zero-cost) migration, as in Fig. 18.
    pub fn new() -> Self {
        Grit {
            ideal: true,
            migrations: 0,
            st: None,
        }
    }

    /// Charges real shootdown + copy costs per migration (Fig. 20).
    pub fn with_real_migration(mut self) -> Self {
        self.ideal = false;
        self
    }
}

impl Default for Grit {
    fn default() -> Self {
        Self::new()
    }
}

impl Grit {
    const MIN_SAMPLES: u32 = 8;

    fn st(&mut self) -> Option<&mut St> {
        self.st.as_mut()
    }
}

impl PagingPolicy for Grit {
    fn name(&self) -> &str {
        "GRIT"
    }

    fn begin(&mut self, _allocs: &[AllocInfo], cfg: &SimConfig) {
        self.st = Some(St {
            allocator: FrameAllocator::new(cfg.layout(), cfg.pf_blocks_per_chiplet)
                .with_scatter(32),
            layout: cfg.layout(),
            history: HashMap::new(),
            dirty: HashSet::new(),
            frames: HashMap::new(),
        });
    }

    fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
        let Some(st) = self.st.as_mut() else {
            return Err(SimError::PolicyViolation {
                reason: "on_fault before begin()".into(),
            });
        };
        let (frame, _) = st
            .allocator
            .alloc_frame_or_fallback(ctx.requester, PageSize::Size64K, ctx.alloc)
            .map_err(mem_to_sim)?;
        st.frames.insert(ctx.va.raw() >> 16, (frame, ctx.alloc));
        Ok(vec![Directive::Map {
            va: ctx.va,
            pa: frame,
            size: PageSize::Size64K,
            alloc: ctx.alloc,
        }])
    }

    fn wants_access_samples(&self) -> bool {
        true
    }

    fn on_access(&mut self, ev: &WalkEvent) {
        let Some(st) = self.st() else {
            return;
        };
        let vpn = ev.va.raw() >> 16;
        let h = st.history.entry(vpn).or_default();
        h[ev.requester.index() % MAX_CHIPLETS] += 1;
        st.dirty.insert(vpn);
    }

    fn on_epoch(&mut self, _cycle: u64) -> Vec<Directive> {
        let mut dirs = Vec::new();
        let mut planned = Vec::new();
        {
            let Some(st) = self.st.as_mut() else {
                return Vec::new();
            };
            let mut dirty: Vec<u64> = st.dirty.drain().collect();
            dirty.sort_unstable();
            for vpn in dirty {
                let Some(&(frame, alloc)) = st.frames.get(&vpn) else {
                    continue;
                };
                let Some(counts) = st.history.get(&vpn) else {
                    continue;
                };
                let total: u32 = counts.iter().sum();
                if total < Self::MIN_SAMPLES {
                    continue;
                }
                let Some(dominant) = counts[..st.layout.num_chiplets()]
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, c)| **c)
                    .map(|(i, _)| ChipletId::new(i as u8))
                else {
                    continue;
                };
                let current = st.layout.chiplet_of(frame);
                if dominant != current && counts[dominant.index()] > 2 * counts[current.index()] + 2
                {
                    planned.push((vpn, frame, alloc, dominant));
                }
            }
            for &(vpn, old_frame, alloc, dominant) in &planned {
                if !st.allocator.can_alloc(dominant, PageSize::Size64K, alloc) {
                    continue;
                }
                let Ok(new_frame) = st.allocator.alloc_frame(dominant, PageSize::Size64K, alloc)
                else {
                    continue;
                };
                let _ = st.allocator.free_frame(old_frame, PageSize::Size64K, alloc);
                st.frames.insert(vpn, (new_frame, alloc));
                st.history.remove(&vpn);
                dirs.push(Directive::Migrate {
                    va: VirtAddr::new(vpn * BASE_PAGE_BYTES),
                    to_pa: new_frame,
                });
            }
        }
        self.migrations += dirs.len() as u64;
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

    #[test]
    fn first_touch_then_migrates_to_dominant_accessor() {
        let mut g = Grit::new();
        g.begin(&[], &SimConfig::baseline());
        let va = 2u64 << 20;
        let dirs = g.on_fault(&ctx(va, 0)).unwrap();
        let Directive::Map { pa, .. } = dirs[0] else {
            panic!("expected Map")
        };
        assert_eq!(PhysLayout::new(4).chiplet_of(pa).index(), 0);

        // Chiplet 2 hammers the page.
        for _ in 0..20 {
            g.on_access(&ev(va + 128, 2));
        }
        let dirs = g.on_epoch(1000);
        assert_eq!(dirs.len(), 1);
        match dirs[0] {
            Directive::Migrate { va: mva, to_pa } => {
                assert_eq!(mva.raw(), va);
                assert_eq!(PhysLayout::new(4).chiplet_of(to_pa).index(), 2);
            }
            _ => panic!("expected Migrate"),
        }
        // History reset: no repeated migration next epoch.
        assert!(g.on_epoch(2000).is_empty());
    }

    #[test]
    fn local_pages_stay_put() {
        let mut g = Grit::new();
        g.begin(&[], &SimConfig::baseline());
        let va = 2u64 << 20;
        g.on_fault(&ctx(va, 1)).unwrap();
        for _ in 0..20 {
            g.on_access(&ev(va, 1));
        }
        assert!(g.on_epoch(1000).is_empty());
    }

    #[test]
    fn too_few_samples_do_not_migrate() {
        let mut g = Grit::new();
        g.begin(&[], &SimConfig::baseline());
        let va = 2u64 << 20;
        g.on_fault(&ctx(va, 0)).unwrap();
        for _ in 0..3 {
            g.on_access(&ev(va, 2));
        }
        assert!(g.on_epoch(1000).is_empty());
    }
}
