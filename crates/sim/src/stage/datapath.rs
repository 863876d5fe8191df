//! The data-path stage: L1/L2 data caches, DRAM channels, the
//! inter-chiplet interconnect and the optional remote-data cache.
//!
//! Owns everything between a physical address and its data, including the
//! memory traffic of page walks (upper-level PTE nodes and leaf PTE
//! lines), which the [translation stage](crate::stage::translate) charges
//! through this stage's narrow API.

use mcm_types::{ChipletId, PageSize, PhysAddr, VirtAddr, BASE_PAGE_BYTES, VA_BLOCK_BYTES};

use crate::cache::SetAssocCache;
use crate::config::SimConfig;
use crate::dram::Dram;
use crate::interconnect::{build_topology, Topology};
use crate::page_table::{PageTable, Pte};
use crate::policy::{RemoteCacheModel, RemoteServe};
use crate::probe::Probe;
use crate::stats::{Counter, Counters};

/// Tag bit distinguishing PTE lines from data lines in the L2 cache key
/// space.
const PTE_LINE_TAG: u64 = 1 << 62;

/// The data path of one machine.
///
/// The lifetime `'r` borrows the run's optional remote-cache scheme
/// (NUBA/SAC), which interposes between local L2 misses and the
/// interconnect.
pub struct DataPath<'r> {
    l1d: Vec<SetAssocCache>,
    l2d: Vec<SetAssocCache>,
    /// `log2(cfg.line_bytes)` — the config validates the line size is a
    /// power of two, so the per-access line-index division is a shift.
    line_shift: u32,
    dram: Dram,
    interconnect: Box<dyn Topology>,
    remote_cache: Option<&'r mut dyn RemoteCacheModel>,
}

impl<'r> DataPath<'r> {
    /// Builds the cache/DRAM/interconnect hierarchy for `cfg`.
    pub fn new(cfg: &SimConfig, remote_cache: Option<&'r mut dyn RemoteCacheModel>) -> Self {
        let layout = cfg.layout();
        DataPath {
            l1d: (0..cfg.total_sms())
                .map(|_| {
                    SetAssocCache::with_geometry(
                        cfg.effective_l1d_bytes(),
                        cfg.line_bytes as usize,
                        cfg.l1d_ways,
                    )
                })
                .collect(),
            l2d: (0..cfg.num_chiplets)
                .map(|_| {
                    SetAssocCache::with_geometry(
                        cfg.effective_l2d_bytes(),
                        cfg.line_bytes as usize,
                        cfg.l2d_ways,
                    )
                })
                .collect(),
            line_shift: cfg.line_bytes.trailing_zeros(),
            dram: Dram::new(
                layout,
                cfg.dram_channels,
                cfg.dram_latency,
                cfg.dram_service,
            ),
            interconnect: build_topology(cfg),
            remote_cache,
        }
    }

    /// One data access from `sm` on `chiplet` to `pa` (owned by
    /// `data_chiplet`) at cycle `t`: L1$ → L2$ → local DRAM, or the
    /// remote-cache / interconnect path when the line is remote. Returns
    /// the completion cycle.
    #[allow(clippy::too_many_arguments)]
    pub fn access<P: Probe>(
        &mut self,
        cfg: &SimConfig,
        sm: usize,
        chiplet: ChipletId,
        data_chiplet: ChipletId,
        pa: PhysAddr,
        t: u64,
        ctr: &mut Counters,
        probe: &mut P,
    ) -> u64 {
        let line = pa.raw() >> self.line_shift;
        if self.l1d[sm].access(line) {
            ctr.bump(chiplet, Counter::L1dHits);
            return t + cfg.l1d_latency;
        }
        ctr.bump(chiplet, Counter::L1dMisses);
        let t_l2 = t + cfg.l1d_latency;
        if self.l2d[chiplet.index()].access(line) {
            ctr.bump(chiplet, Counter::L2dHits);
            return t_l2 + cfg.l2d_latency;
        }
        ctr.bump(chiplet, Counter::L2dMisses);
        let t_mem = t_l2 + cfg.l2d_latency;
        if data_chiplet == chiplet {
            // The caller already resolved `pa`'s owner; skip re-deriving it.
            return self.dram(data_chiplet, pa, t_mem, ctr);
        }
        let served = match self.remote_cache.as_deref_mut() {
            Some(rc) => rc.access(chiplet, pa),
            None => None,
        };
        match served {
            Some(RemoteServe::Sram) => {
                ctr.bump(chiplet, Counter::RemoteCacheHits);
                t_mem + cfg.l2d_latency
            }
            Some(RemoteServe::LocalDram) => {
                ctr.bump(chiplet, Counter::RemoteCacheHits);
                self.dram(chiplet, pa, t_mem, ctr)
            }
            None => self.remote_read(chiplet, data_chiplet, pa, t_mem, ctr, probe),
        }
    }

    /// One DRAM line access served by `chiplet`'s channels, counted on
    /// that chiplet.
    #[inline]
    fn dram(&mut self, chiplet: ChipletId, pa: PhysAddr, t: u64, ctr: &mut Counters) -> u64 {
        ctr.bump(chiplet, Counter::DramAccesses);
        self.dram.access_at(chiplet, pa, t)
    }

    /// A line `requester` reads from `owner`'s DRAM: the request crosses
    /// the interconnect, the owner's DRAM serves it, and the data crosses
    /// back.
    fn remote_read<P: Probe>(
        &mut self,
        requester: ChipletId,
        owner: ChipletId,
        pa: PhysAddr,
        t: u64,
        ctr: &mut Counters,
        probe: &mut P,
    ) -> u64 {
        let arrive = self.interconnect.request(requester, owner, t);
        let done = self.dram(owner, pa, arrive, ctr);
        self.cross(owner, requester, done, probe)
    }

    /// One line transfer `src → dst` starting at `at`, reported to the
    /// probe as a crossing; returns the arrival cycle. The only place the
    /// stage moves data between distinct chiplets.
    fn cross<P: Probe>(&mut self, src: ChipletId, dst: ChipletId, at: u64, probe: &mut P) -> u64 {
        let q0 = probe.queue_probe(self.interconnect.as_ref());
        let done = self.interconnect.transfer(src, dst, at);
        probe.crossing(self.interconnect.as_ref(), src, dst, at, q0);
        done
    }

    /// A DRAM line read by `requester` from `owner`'s memory: direct when
    /// local, request/transfer over the interconnect when remote.
    fn mem_read<P: Probe>(
        &mut self,
        requester: ChipletId,
        owner: ChipletId,
        pa: PhysAddr,
        t: u64,
        ctr: &mut Counters,
        probe: &mut P,
    ) -> u64 {
        if owner == requester {
            self.dram(owner, pa, t, ctr)
        } else {
            self.remote_read(requester, owner, pa, t, ctr, probe)
        }
    }

    /// One upper-level page-table access on a PWC miss.
    #[allow(clippy::too_many_arguments)]
    pub fn pte_node_access<P: Probe>(
        &mut self,
        cfg: &SimConfig,
        pt: &PageTable,
        requester: ChipletId,
        va: VirtAddr,
        level: u32,
        leaf: PageSize,
        levels: u32,
        t: u64,
        ctr: &mut Counters,
        probe: &mut P,
    ) -> u64 {
        let node_chiplet =
            pt.walk_node_chiplet(va, level, leaf, requester, cfg.pte_placement, levels);
        let key = PageTable::walk_node_key(va, level, leaf, levels);
        let pa = self.synth_pte_pa(cfg, pt, node_chiplet, key);
        self.mem_read(requester, node_chiplet, pa, t, ctr, probe)
    }

    /// The leaf PTE access: PTE lines are cached in the requester's L2
    /// (this is what the coalescing logic inspects, §4.6).
    #[allow(clippy::too_many_arguments)]
    pub fn leaf_pte_access<P: Probe>(
        &mut self,
        cfg: &SimConfig,
        pt: &PageTable,
        requester: ChipletId,
        va: VirtAddr,
        pte: Pte,
        levels: u32,
        t: u64,
        ctr: &mut Counters,
        probe: &mut P,
    ) -> u64 {
        let leaf = pte.size;
        let vpn = va.raw() >> leaf.shift();
        let line_key = PTE_LINE_TAG | ((leaf.shift() as u64) << 52) | (vpn / 16);
        if self.l2d[requester.index()].access(line_key) {
            return t + cfg.l2d_latency;
        }
        let leaf_chiplet = match cfg.pte_placement {
            // [87]-style placement: the leaf PTE page sits with its data.
            crate::config::PtePlacement::DataLocal => pt.layout().chiplet_of(pte.pa),
            p => pt.walk_node_chiplet(va, levels, leaf, requester, p, levels),
        };
        let pa = self.synth_pte_pa(cfg, pt, leaf_chiplet, line_key);
        self.mem_read(requester, leaf_chiplet, pa, t, ctr, probe)
    }

    /// Synthesises a physical address on `chiplet` for a page-table node,
    /// spreading nodes over the chiplet's DRAM channels.
    fn synth_pte_pa(
        &self,
        cfg: &SimConfig,
        pt: &PageTable,
        chiplet: ChipletId,
        key: u64,
    ) -> PhysAddr {
        let layout = pt.layout();
        let block = layout.block_of_chiplet(chiplet, key % cfg.pf_blocks_per_chiplet.max(1));
        layout.block_base(block) + (key.wrapping_mul(0x9E37_79B9) % (VA_BLOCK_BYTES / 256)) * 256
    }

    /// Invalidates any remote-cached copies of the 64KB page at `pa`
    /// (migration support).
    pub fn invalidate_page_lines(&mut self, cfg: &SimConfig, pa: PhysAddr) {
        if let Some(rc) = self.remote_cache.as_deref_mut() {
            for l in 0..(BASE_PAGE_BYTES / cfg.line_bytes) {
                rc.invalidate(pa + l * cfg.line_bytes);
            }
        }
    }

    /// Charges one interconnect transfer from `src` to `dst` at `now`
    /// (migration data movement). Same-chiplet moves are free.
    pub fn interconnect_transfer<P: Probe>(
        &mut self,
        src: ChipletId,
        dst: ChipletId,
        now: u64,
        probe: &mut P,
    ) {
        if src != dst {
            self.cross(src, dst, now, probe);
        }
    }

    /// The run-level interconnect and DRAM totals: `(transfers, link
    /// queue cycles, DRAM queue cycles)`.
    pub(crate) fn run_totals(&self) -> (u64, u64, u64) {
        (
            self.interconnect.transfers(),
            self.interconnect.queue_cycles(),
            self.dram.queue_cycles(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::baseline().scaled(8)
    }

    #[test]
    fn l1_hit_is_cheapest_and_counted() {
        let c = cfg();
        let mut d = DataPath::new(&c, None);
        let mut ctr = Counters::new(c.num_chiplets);
        let ch = ChipletId::new(0);
        let pa = PhysAddr::new(0);
        let cold = d.access(&c, 0, ch, ch, pa, 0, &mut ctr, &mut ());
        assert!(cold >= c.l1d_latency + c.l2d_latency + c.dram_latency);
        assert_eq!(ctr.total(Counter::L1dMisses), 1);
        let warm = d.access(&c, 0, ch, ch, pa, 1_000, &mut ctr, &mut ());
        assert_eq!(warm, 1_000 + c.l1d_latency);
        assert_eq!(ctr.total(Counter::L1dHits), 1);
    }

    #[test]
    fn remote_access_pays_the_interconnect() {
        let c = cfg();
        let layout = c.layout();
        let mut d = DataPath::new(&c, None);
        let mut ctr = Counters::new(c.num_chiplets);
        let requester = ChipletId::new(0);
        // A frame on chiplet 1: remote for chiplet 0.
        let pa = layout.block_base(layout.block_of_chiplet(ChipletId::new(1), 0));
        let remote_done = d.access(
            &c,
            0,
            requester,
            layout.chiplet_of(pa),
            pa,
            0,
            &mut ctr,
            &mut (),
        );
        let mut d2 = DataPath::new(&c, None);
        let local_pa = layout.block_base(layout.block_of_chiplet(requester, 0));
        let local_done = d2.access(
            &c,
            0,
            requester,
            layout.chiplet_of(local_pa),
            local_pa,
            0,
            &mut ctr,
            &mut (),
        );
        assert!(
            remote_done > local_done,
            "remote access ({remote_done}) must cost more than local ({local_done})"
        );
    }

    #[test]
    fn remote_cache_short_circuits_the_interconnect() {
        struct AlwaysSram;
        impl RemoteCacheModel for AlwaysSram {
            fn name(&self) -> &str {
                "test-sram"
            }
            fn access(&mut self, _r: ChipletId, _pa: PhysAddr) -> Option<RemoteServe> {
                Some(RemoteServe::Sram)
            }
        }
        let c = cfg();
        let layout = c.layout();
        let mut rc = AlwaysSram;
        let mut d = DataPath::new(&c, Some(&mut rc));
        let mut ctr = Counters::new(c.num_chiplets);
        let requester = ChipletId::new(0);
        let pa = layout.block_base(layout.block_of_chiplet(ChipletId::new(1), 0));
        let done = d.access(
            &c,
            0,
            requester,
            layout.chiplet_of(pa),
            pa,
            0,
            &mut ctr,
            &mut (),
        );
        assert_eq!(done, c.l1d_latency + c.l2d_latency + c.l2d_latency);
        assert_eq!(ctr.total(Counter::RemoteCacheHits), 1);
    }

    #[test]
    fn remote_miss_counts_dram_on_the_owner_and_one_crossing() {
        let c = cfg();
        let layout = c.layout();
        let mut d = DataPath::new(&c, None);
        let mut ctr = Counters::new(c.num_chiplets);
        let requester = ChipletId::new(0);
        let pa = layout.block_base(layout.block_of_chiplet(ChipletId::new(1), 0));
        d.access(
            &c,
            0,
            requester,
            layout.chiplet_of(pa),
            pa,
            0,
            &mut ctr,
            &mut (),
        );
        assert_eq!(ctr.row(Counter::DramAccesses), vec![0, 1, 0, 0]);
        assert_eq!(ctr.get(0, Counter::L2dMisses), 1);
        let (transfers, _, _) = d.run_totals();
        assert_eq!(transfers, 1, "remote miss must cross the interconnect");
    }
}
