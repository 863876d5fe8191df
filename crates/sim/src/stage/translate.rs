//! The address-translation stage: L1/L2 TLBs, page-walk caches, walker
//! pools and walk-queue MSHRs.
//!
//! Owns everything between a virtual address and its PTE. Page-table
//! *reads* happen here (translation, walk-node keys); page-table *writes*
//! are the [driver stage's](crate::stage::driver) job. Walk memory traffic
//! (PTE node and leaf-line accesses) is charged through the
//! [data path](crate::stage::datapath), which owns DRAM and the interconnect.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mcm_types::{ChipletId, FastMap, PageSize, VirtAddr};

use crate::cache::SetAssocCache;
use crate::config::SimConfig;
use crate::page_table::{PageTable, Pte};
use crate::probe::Probe;
use crate::resources::BucketedResource;
use crate::stage::datapath::DataPath;
use crate::stats::{Counter, Counters, DegradationStats};
use crate::tlb::Tlb;
use crate::trace::TraceStage;
use crate::SimError;

/// Outcome of translating one virtual address.
#[derive(Clone, Copy, Debug)]
pub enum Translation {
    /// Translation resolved to `pte` at cycle `done`. `walked` is `true`
    /// when a page walk was performed (the engine reports completed walks
    /// to the policy's hardware samplers).
    Done {
        /// The resolved leaf PTE.
        pte: Pte,
        /// Cycle at which the translation is available.
        done: u64,
        /// Whether a page walk (as opposed to a TLB hit) produced it.
        walked: bool,
    },
    /// No mapping exists: a demand fault must be taken at cycle `at`
    /// (already serialized behind the chiplet's GMMU overhead server).
    Fault {
        /// Cycle at which the fault is raised.
        at: u64,
    },
}

/// One chiplet's in-flight page-walk table (MSHR-style coalescing plus
/// the finite walk queue's occupancy accounting).
///
/// The queue back-pressure path needs "drop every walk completed by `t`"
/// and "earliest in-flight completion" on almost every stalled walk; a
/// plain map makes both O(queue). The map is paired with a lazy min-heap
/// of `(done, page)` so both are amortized O(log queue): heap entries
/// outdated by a newer insert for the same page are skipped on pop (a
/// re-inserted walk always completes strictly later, so stale entries are
/// unambiguous).
#[derive(Default)]
struct WalkMshr {
    /// Leaf page → completion cycle of the in-flight walk.
    map: FastMap<u64, u64>,
    /// Min-heap mirror of `map` inserts, popped lazily.
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl WalkMshr {
    /// Completion cycle of an in-flight walk of `page`, if any.
    #[inline]
    fn get(&self, page: u64) -> Option<u64> {
        self.map.get(&page).copied()
    }

    /// Records a walk of `page` completing at `done`.
    fn insert(&mut self, page: u64, done: u64) {
        self.map.insert(page, done);
        self.heap.push(Reverse((done, page)));
    }

    /// In-flight walk count (expired entries linger until [`Self::drop_done`],
    /// exactly as the map-only representation kept them until `retain`).
    fn len(&self) -> usize {
        self.map.len()
    }

    /// Drops every walk completed at or before `t`.
    fn drop_done(&mut self, t: u64) {
        while let Some(&Reverse((done, page))) = self.heap.peek() {
            if done > t {
                break;
            }
            self.heap.pop();
            if self.map.get(&page) == Some(&done) {
                self.map.remove(&page);
            }
        }
    }

    /// Earliest completion cycle among in-flight walks.
    fn earliest(&mut self) -> Option<u64> {
        while let Some(&Reverse((done, page))) = self.heap.peek() {
            if self.map.get(&page) == Some(&done) {
                return Some(done);
            }
            self.heap.pop();
        }
        None
    }
}

/// The translation stage of one machine.
pub struct TranslateStage {
    /// TLB size classes, in `cfg.translation.tlb_classes` order.
    classes: Vec<PageSize>,
    /// `l1_tlb[sm][class]`.
    l1_tlb: Vec<Vec<Tlb>>,
    /// `l2_tlb[chiplet][class]`.
    l2_tlb: Vec<Vec<Tlb>>,
    pwc: Vec<SetAssocCache>,
    walkers: Vec<BucketedResource>,
    /// In-flight walk coalescing (MSHR-style): an outstanding walk for the
    /// same leaf page absorbs duplicate requests from other warps/SMs of
    /// the chiplet, as hardware page-walk MSHRs do. Fx-hashed — probed on
    /// every page walk (golden results never depend on iteration order).
    walk_mshr: Vec<WalkMshr>,
    /// Where the most recent successful [`translate`](Self::translate)
    /// left the requesting SM's L1 coverage: `(class index, slot)`. Feeds
    /// the engine's same-page repeat fast path (DESIGN.md §15); only valid
    /// until the next operation that touches that SM's L1 TLBs. `None`
    /// when the leaf size has no TLB class (nothing was cached).
    last_l1: Option<(u32, u32)>,
    /// Smallest page shift among the configured TLB classes. Two VAs in
    /// the same `min_class_shift` page index identically into *every*
    /// class (all class pages are aligned supersets), which is what makes
    /// the repeat fast path's skipped probes provably unobservable.
    min_shift: u32,
    /// Degradation events this stage absorbed (stale TLB coverage,
    /// missing TLB classes, walk-queue stalls).
    pub degradation: DegradationStats,
}

impl TranslateStage {
    /// Builds the TLB/walker hierarchy for `cfg`.
    pub fn new(cfg: &SimConfig) -> Self {
        let classes = cfg.translation.tlb_classes.clone();
        let group_for = |size: PageSize| -> u32 {
            if size != PageSize::Size64K {
                return 1;
            }
            if cfg.translation.ideal_2m_reach {
                32
            } else if cfg.translation.coalescing_64k || cfg.translation.barre_pattern {
                16
            } else {
                1
            }
        };
        let l1_tlbs_for_sm = || -> Vec<Tlb> {
            classes
                .iter()
                .map(|&s| {
                    let e = cfg.tlb_entries(s).l1;
                    Tlb::new(s, e, e, group_for(s)) // fully associative
                })
                .collect()
        };
        let l2_tlbs_for_chiplet = || -> Vec<Tlb> {
            classes
                .iter()
                .map(|&s| {
                    let e = cfg.tlb_entries(s).l2;
                    Tlb::new(s, e, cfg.l2_tlb_ways.min(e), group_for(s))
                })
                .collect()
        };
        TranslateStage {
            l1_tlb: (0..cfg.total_sms()).map(|_| l1_tlbs_for_sm()).collect(),
            l2_tlb: (0..cfg.num_chiplets)
                .map(|_| l2_tlbs_for_chiplet())
                .collect(),
            pwc: (0..cfg.num_chiplets)
                .map(|_| SetAssocCache::fully_associative(cfg.effective_pwc_entries()))
                .collect(),
            walkers: (0..cfg.num_chiplets)
                .map(|_| BucketedResource::new(cfg.page_walkers))
                .collect(),
            walk_mshr: (0..cfg.num_chiplets).map(|_| WalkMshr::default()).collect(),
            last_l1: None,
            // No classes → nothing is ever cached, `last_l1` stays `None`
            // and the shift is never consulted; 0 is a safe placeholder.
            min_shift: classes.iter().map(|s| s.shift()).min().unwrap_or(0),
            classes,
            degradation: DegradationStats::default(),
        }
    }

    /// `log2(page size)` of the smallest configured TLB class (see
    /// [`Self::min_shift`]).
    pub(crate) fn min_class_shift(&self) -> u32 {
        self.min_shift
    }

    /// `(class index, slot)` of the L1 entry covering the VA of the most
    /// recent successful [`translate`](Self::translate), or `None` if it
    /// could not be cached. See [`Self::last_l1`].
    pub(crate) fn last_l1(&self) -> Option<(u32, u32)> {
        self.last_l1
    }

    /// Replays the observable effects of translating an address in the
    /// same page as the immediately preceding access of the same warp
    /// batch (the engine's repeat fast path, DESIGN.md §15). The previous
    /// access left the entry in `sm`'s L1 (hit or fill), nothing has
    /// touched the TLBs or page table since, and the two VAs share a page
    /// of every class — so the full path would probe the same sets, hit
    /// the same slot, and verify the same PTE. Only the hit entry's LRU
    /// touch and the hit counter are observable; the skipped miss-probes
    /// of other classes advance those TLBs' ticks without recording them,
    /// which cannot change any LRU argmin, and the page-table verify is a
    /// pure read.
    #[inline]
    pub(crate) fn repeat_l1_hit(
        &mut self,
        sm: usize,
        chiplet: ChipletId,
        class: u32,
        slot: u32,
        ctr: &mut Counters,
    ) {
        self.l1_tlb[sm][class as usize].touch(slot);
        ctr.bump(chiplet, Counter::L1tlbHits);
    }

    /// Translates `va` for `sm` on `chiplet`: L1 TLB → L2 TLB → page walk.
    ///
    /// `issue` is the cycle the access issued; `gmmu_free` is the cycle
    /// the chiplet's GMMU overhead server frees up (walks serialize behind
    /// in-progress shootdowns/migrations). A TLB hit normally implies a
    /// mapping; coverage can outlive its mapping only when a directive
    /// bypassed the shootdown path (fault injection). Stale hits are
    /// invalidated, counted, and re-walked instead of panicking.
    ///
    /// # Errors
    ///
    /// [`SimError::WalkQueueOverflow`] if the chiplet's walk queue is full
    /// and cannot drain.
    #[allow(clippy::too_many_arguments)]
    pub fn translate<P: Probe>(
        &mut self,
        cfg: &SimConfig,
        pt: &PageTable,
        data: &mut DataPath<'_>,
        sm: usize,
        chiplet: ChipletId,
        va: VirtAddr,
        issue: u64,
        gmmu_free: u64,
        ctr: &mut Counters,
        probe: &mut P,
    ) -> Result<Translation, SimError> {
        let mut tt = issue + cfg.l1_tlb_latency;
        self.last_l1 = None;
        let mut l1_slot = None;
        for (ci, tlb) in self.l1_tlb[sm].iter_mut().enumerate() {
            if let Some(slot) = tlb.lookup_slot(va) {
                l1_slot = Some((ci as u32, slot));
                break;
            }
        }
        let mut hit_pte = None;
        if let Some(hit) = l1_slot {
            match pt.translate(va) {
                Some(p) => {
                    ctr.bump(chiplet, Counter::L1tlbHits);
                    self.last_l1 = Some(hit);
                    hit_pte = Some(p);
                }
                None => {
                    self.note_stale_tlb(va);
                    ctr.bump(chiplet, Counter::L1tlbMisses);
                }
            }
        } else {
            ctr.bump(chiplet, Counter::L1tlbMisses);
        }
        if let Some(pte) = hit_pte {
            return Ok(Translation::Done {
                pte,
                done: tt,
                walked: false,
            });
        }
        tt += cfg.l2_tlb_latency;
        let mut l2_pte = None;
        if self.l2_tlb[chiplet.index()]
            .iter_mut()
            .any(|tlb| tlb.lookup(va))
        {
            match pt.translate(va) {
                Some(p) => {
                    ctr.bump(chiplet, Counter::L2tlbHits);
                    self.last_l1 = self.fill_l1(pt, cfg, sm, va, p);
                    l2_pte = Some(p);
                }
                None => self.note_stale_tlb(va),
            }
        }
        if let Some(pte) = l2_pte {
            return Ok(Translation::Done {
                pte,
                done: tt,
                walked: false,
            });
        }
        ctr.bump(chiplet, Counter::L2tlbMisses);
        match self.page_walk(cfg, pt, data, chiplet, va, tt, gmmu_free, ctr, probe)? {
            Translation::Done { pte, done, .. } => {
                self.fill_l2(pt, cfg, chiplet, va, pte, ctr);
                self.last_l1 = self.fill_l1(pt, cfg, sm, va, pte);
                Ok(Translation::Done {
                    pte,
                    done,
                    walked: true,
                })
            }
            fault => Ok(fault),
        }
    }

    /// Walks the page table for `va`. Returns [`Translation::Fault`] when
    /// no mapping exists (the walk failed; the GMMU logs it and the driver
    /// resolves it, paper §2.5 case ⑥-⑦).
    #[allow(clippy::too_many_arguments)]
    fn page_walk<P: Probe>(
        &mut self,
        cfg: &SimConfig,
        pt: &PageTable,
        data: &mut DataPath<'_>,
        chiplet: ChipletId,
        va: VirtAddr,
        t: u64,
        gmmu_free: u64,
        ctr: &mut Counters,
        probe: &mut P,
    ) -> Result<Translation, SimError> {
        let t = t.max(gmmu_free);
        let Some(pte) = pt.translate(va) else {
            ctr.bump(chiplet, Counter::Faults);
            return Ok(Translation::Fault { at: t });
        };
        // MSHR hit: join an in-flight walk for the same leaf page.
        let page_key = va.raw() >> pte.size.shift();
        if let Some(done) = self.walk_mshr[chiplet.index()].get(page_key) {
            if done > t {
                ctr.bump(chiplet, Counter::WalkMshrHits);
                return Ok(Translation::Done {
                    pte,
                    done,
                    walked: true,
                });
            }
        }
        // A new walk needs a queue entry. The per-chiplet walk queue is
        // finite (`cfg.walk_queue`): when it is full of in-flight walks,
        // the request stalls until the earliest one completes
        // (back-pressure) instead of growing the queue without bound.
        let t = self.reserve_walk_slot(cfg, chiplet, t)?;
        let levels = cfg.walk_levels(pte.size);
        let start = self.walkers[chiplet.index()].acquire(t, cfg.walker_service);
        let mut tw = start;
        for level in 1..levels {
            let key = PageTable::walk_node_key(va, level, pte.size, levels);
            if self.pwc[chiplet.index()].access(key) {
                tw += cfg.pwc_latency;
            } else {
                tw = data.pte_node_access(
                    cfg, pt, chiplet, va, level, pte.size, levels, tw, ctr, probe,
                );
            }
        }
        tw = data.leaf_pte_access(cfg, pt, chiplet, va, pte, levels, tw, ctr, probe);
        self.walk_mshr[chiplet.index()].insert(page_key, tw);
        ctr.bump(chiplet, Counter::Walks);
        ctr.add(chiplet, Counter::WalkCycles, tw - t);
        probe.sample(TraceStage::Walk, tw - t);
        Ok(Translation::Done {
            pte,
            done: tw,
            walked: true,
        })
    }

    /// Waits (in simulated time) for a free entry in `chiplet`'s page-walk
    /// queue, dropping completed walks first. Returns the cycle at which
    /// the new walk may issue.
    ///
    /// # Errors
    ///
    /// [`SimError::WalkQueueOverflow`] if the queue is full and cannot
    /// drain — only reachable if in-flight walks stop completing, which
    /// would otherwise hang the simulation.
    fn reserve_walk_slot(
        &mut self,
        cfg: &SimConfig,
        chiplet: ChipletId,
        mut t: u64,
    ) -> Result<u64, SimError> {
        let idx = chiplet.index();
        let cap = cfg.walk_queue;
        if self.walk_mshr[idx].len() < cap {
            return Ok(t);
        }
        self.walk_mshr[idx].drop_done(t);
        let mut stalled = 0u64;
        while self.walk_mshr[idx].len() >= cap {
            let earliest = self.walk_mshr[idx].earliest().unwrap_or(t);
            if earliest <= t {
                return Err(SimError::WalkQueueOverflow {
                    chiplet,
                    depth: self.walk_mshr[idx].len(),
                });
            }
            stalled += earliest - t;
            t = earliest;
            self.walk_mshr[idx].drop_done(t);
            self.degradation.walk_queue_stalls += 1;
        }
        if stalled > 0 {
            self.degradation.walk_queue_stall_cycles += stalled;
        }
        Ok(t)
    }

    /// Counts a stale TLB hit (coverage without a mapping) and drops the
    /// stale coverage machine-wide.
    fn note_stale_tlb(&mut self, va: VirtAddr) {
        self.degradation.stale_tlb_hits += 1;
        self.degradation.record(SimError::NotMapped { va });
        self.invalidate_page(va);
    }

    /// Drops page-walker occupancy before cycle `t`, which the engine
    /// clock has passed for good.
    pub fn forget_before(&mut self, t: u64) {
        for w in &mut self.walkers {
            w.forget_before(t);
        }
    }

    /// Heap bytes the page walkers' bucket windows hold.
    pub fn bucket_bytes(&self) -> usize {
        self.walkers
            .iter()
            .map(BucketedResource::bucket_bytes)
            .sum()
    }

    /// Drops TLB coverage of the page containing `va` from every L1 and
    /// L2 TLB (the invalidation half of a shootdown; the driver stage
    /// charges the cost).
    pub fn invalidate_page(&mut self, va: VirtAddr) {
        for sm_tlbs in &mut self.l1_tlb {
            for tlb in sm_tlbs.iter_mut() {
                tlb.invalidate_page(va);
            }
        }
        for ch_tlbs in &mut self.l2_tlb {
            for tlb in ch_tlbs.iter_mut() {
                tlb.invalidate_page(va);
            }
        }
    }

    /// Drops 64KB-class TLB coverage of a promoted region of `pages`
    /// 64KB pages (promotion rewrites PTEs: stale 64KB entries must go).
    pub fn invalidate_block_64k(&mut self, block_base: VirtAddr, pages: u64) {
        for i in 0..pages {
            let va = block_base + i * mcm_types::BASE_PAGE_BYTES;
            for sm_tlbs in &mut self.l1_tlb {
                for tlb in sm_tlbs.iter_mut() {
                    if tlb.size_class() == PageSize::Size64K {
                        tlb.invalidate_page(va);
                    }
                }
            }
            for ch_tlbs in &mut self.l2_tlb {
                for tlb in ch_tlbs.iter_mut() {
                    if tlb.size_class() == PageSize::Size64K {
                        tlb.invalidate_page(va);
                    }
                }
            }
        }
    }

    /// Audit support: every covered page whose mapping no longer exists
    /// (cached TLB coverage must never outlive its mapping).
    pub fn stale_coverage(&self, pt: &PageTable) -> Vec<SimError> {
        let mut violations = Vec::new();
        for tlbs in self.l1_tlb.iter().chain(self.l2_tlb.iter()) {
            for tlb in tlbs {
                for va in tlb.covered_pages() {
                    if pt.translate(va).is_none() {
                        violations.push(SimError::NotMapped { va });
                    }
                }
            }
        }
        violations
    }

    /// Installs `va → pte` coverage in `sm`'s L1 TLB, returning the
    /// `(class index, slot)` it landed in, or `None` if the leaf size has
    /// no TLB class.
    fn fill_l1(
        &mut self,
        pt: &PageTable,
        cfg: &SimConfig,
        sm: usize,
        va: VirtAddr,
        pte: Pte,
    ) -> Option<(u32, u32)> {
        match self.fill_mask(pt, cfg, va, pte) {
            Some((class, mask)) => {
                let slot = self.l1_tlb[sm][class].fill(va, mask);
                Some((class as u32, slot))
            }
            None => {
                self.note_missing_class(pte.size);
                None
            }
        }
    }

    fn fill_l2(
        &mut self,
        pt: &PageTable,
        cfg: &SimConfig,
        chiplet: ChipletId,
        va: VirtAddr,
        pte: Pte,
        ctr: &mut Counters,
    ) {
        match self.fill_mask(pt, cfg, va, pte) {
            Some((class, mask)) => {
                if mask.count_ones() > 1 {
                    ctr.bump(chiplet, Counter::CoalescedFills);
                }
                self.l2_tlb[chiplet.index()][class].fill(va, mask);
            }
            None => self.note_missing_class(pte.size),
        }
    }

    /// Counts a translation whose leaf size has no TLB class: the walk was
    /// already charged, the entry just cannot be cached.
    fn note_missing_class(&mut self, size: PageSize) {
        self.degradation.tlb_class_missing += 1;
        self.degradation.record(SimError::TlbClassMissing { size });
    }

    /// The TLB class and valid-bit mask to install for a translation of
    /// `va` (coalescing logic of §4.6; Barre-Chord patterns; Ideal reach).
    /// `None` if the machine has no TLB class for the leaf's size.
    fn fill_mask(
        &self,
        pt: &PageTable,
        cfg: &SimConfig,
        va: VirtAddr,
        pte: Pte,
    ) -> Option<(usize, u32)> {
        let class = self.classes.iter().position(|&s| s == pte.size)?;
        if pte.size != PageSize::Size64K {
            return Some((class, 1));
        }
        let tr = &cfg.translation;
        let mask = if tr.ideal_2m_reach {
            pt.block_mask_64k(va)
        } else if tr.coalescing_64k {
            pt.coalesce_mask(va).unwrap_or(0)
        } else if tr.barre_pattern {
            pt.stride_mask(va).unwrap_or(0)
        } else {
            // Plain TLB: single-page entries (group 1, bit 0).
            1
        };
        if mask == 0 {
            // Defensive: cover just this page at its position in the group.
            let group = if tr.ideal_2m_reach { 32 } else { 16 };
            return Some((class, 1 << ((va.raw() >> 16) % group)));
        }
        Some((class, mask))
    }

    /// `true` if `size` has a configured TLB class (directive validation).
    pub fn has_class(&self, size: PageSize) -> bool {
        self.classes.contains(&size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_types::{AllocId, PhysAddr, BASE_PAGE_BYTES};

    fn cfg() -> SimConfig {
        let mut c = SimConfig::baseline().scaled(8);
        c.num_chiplets = 2;
        c.sms_per_chiplet = 2;
        c
    }

    fn mapped_table(c: &SimConfig, va: VirtAddr) -> PageTable {
        let mut pt = PageTable::new(c.layout());
        let pa = PhysAddr::new(0);
        pt.map(va, pa, PageSize::Size64K, AllocId::new(0))
            .expect("map");
        pt
    }

    #[test]
    fn miss_walk_then_l1_hit() {
        let c = cfg();
        let va = VirtAddr::new(2 << 20);
        let pt = mapped_table(&c, va);
        let mut tr = TranslateStage::new(&c);
        let mut data = DataPath::new(&c, None);
        let mut ctr = Counters::new(c.num_chiplets);
        let ch = ChipletId::new(0);

        let first = tr
            .translate(&c, &pt, &mut data, 0, ch, va, 100, 0, &mut ctr, &mut ())
            .expect("translate");
        match first {
            Translation::Done { done, walked, .. } => {
                assert!(walked, "cold access must walk");
                assert!(done > 100 + c.l1_tlb_latency + c.l2_tlb_latency);
            }
            Translation::Fault { .. } => panic!("mapped page must not fault"),
        }
        assert_eq!(ctr.total(Counter::Walks), 1);
        assert_eq!(ctr.total(Counter::L1tlbMisses), 1);
        assert_eq!(ctr.total(Counter::L2tlbMisses), 1);

        let second = tr
            .translate(&c, &pt, &mut data, 0, ch, va, 10_000, 0, &mut ctr, &mut ())
            .expect("translate");
        match second {
            Translation::Done { done, walked, .. } => {
                assert!(!walked, "warm access must hit the L1 TLB");
                assert_eq!(done, 10_000 + c.l1_tlb_latency);
            }
            Translation::Fault { .. } => panic!("mapped page must not fault"),
        }
        assert_eq!(ctr.total(Counter::L1tlbHits), 1);
        assert_eq!(ctr.total(Counter::Walks), 1, "no second walk");
    }

    #[test]
    fn unmapped_address_faults_after_gmmu_serialization() {
        let c = cfg();
        let pt = PageTable::new(c.layout());
        let mut tr = TranslateStage::new(&c);
        let mut data = DataPath::new(&c, None);
        let mut ctr = Counters::new(c.num_chiplets);
        let out = tr
            .translate(
                &c,
                &pt,
                &mut data,
                0,
                ChipletId::new(0),
                VirtAddr::new(0),
                50,
                5_000,
                &mut ctr,
                &mut (),
            )
            .expect("translate");
        match out {
            Translation::Fault { at } => assert_eq!(at, 5_000, "fault serializes behind the GMMU"),
            Translation::Done { .. } => panic!("unmapped access must fault"),
        }
        assert_eq!(ctr.total(Counter::Faults), 1);
    }

    #[test]
    fn stale_coverage_is_invalidated_and_counted() {
        let c = cfg();
        let va = VirtAddr::new(4 << 20);
        let mut pt = mapped_table(&c, va);
        let mut tr = TranslateStage::new(&c);
        let mut data = DataPath::new(&c, None);
        let mut ctr = Counters::new(c.num_chiplets);
        let ch = ChipletId::new(0);
        tr.translate(&c, &pt, &mut data, 0, ch, va, 0, 0, &mut ctr, &mut ())
            .expect("warm up");
        // Unmap behind the TLB's back (no shootdown): next lookup hits
        // stale coverage, which is dropped and re-walked.
        pt.unmap(va).expect("unmap");
        assert!(!tr.stale_coverage(&pt).is_empty());
        let out = tr
            .translate(&c, &pt, &mut data, 0, ch, va, 20_000, 0, &mut ctr, &mut ())
            .expect("translate");
        assert!(matches!(out, Translation::Fault { .. }));
        assert!(tr.degradation.stale_tlb_hits >= 1);
        assert!(tr.stale_coverage(&pt).is_empty(), "stale coverage dropped");
    }

    #[test]
    fn shootdown_invalidation_forces_rewalk() {
        let c = cfg();
        let va = VirtAddr::new(8 << 20);
        let pt = mapped_table(&c, va);
        let mut tr = TranslateStage::new(&c);
        let mut data = DataPath::new(&c, None);
        let mut ctr = Counters::new(c.num_chiplets);
        let ch = ChipletId::new(0);
        tr.translate(&c, &pt, &mut data, 0, ch, va, 0, 0, &mut ctr, &mut ())
            .expect("warm up");
        tr.invalidate_page(va);
        tr.translate(&c, &pt, &mut data, 0, ch, va, 50_000, 0, &mut ctr, &mut ())
            .expect("translate");
        assert_eq!(
            ctr.total(Counter::Walks),
            2,
            "invalidation must force a re-walk"
        );
    }

    #[test]
    fn full_walk_queue_stalls_instead_of_growing() {
        let mut c = cfg();
        c.walk_queue = 2;
        let mut pt = PageTable::new(c.layout());
        for i in 0..4u64 {
            pt.map(
                VirtAddr::new(i * BASE_PAGE_BYTES),
                PhysAddr::new(i * BASE_PAGE_BYTES),
                PageSize::Size64K,
                AllocId::new(0),
            )
            .expect("map");
        }
        let mut tr = TranslateStage::new(&c);
        let mut data = DataPath::new(&c, None);
        let mut ctr = Counters::new(c.num_chiplets);
        let ch = ChipletId::new(0);
        // Issue walks to distinct pages at the same cycle: the third+ must
        // stall behind the 2-entry queue, not overflow.
        for i in 0..4u64 {
            tr.translate(
                &c,
                &pt,
                &mut data,
                0,
                ch,
                VirtAddr::new(i * BASE_PAGE_BYTES),
                10,
                0,
                &mut ctr,
                &mut (),
            )
            .expect("translate");
        }
        assert!(
            tr.degradation.walk_queue_stalls > 0,
            "a 2-entry queue must stall 4 concurrent walks"
        );
        assert!(tr.degradation.walk_queue_stall_cycles > 0);
    }
}
