//! The driver/GMMU stage: demand-fault resolution through the paging
//! policy, directive validation and application, shootdown charging and
//! degradation accounting.
//!
//! This is the only stage that *writes* the page table. It owns the
//! per-chiplet GMMU overhead servers (the serialization point for
//! shootdown/migration costs) and the allocation ranges used to attribute
//! faults to data structures.

use mcm_types::{AllocId, ChipletId, PageSize, SmId, TbId, VirtAddr, BASE_PAGE_BYTES};

use crate::config::SimConfig;
use crate::page_table::PageTable;
use crate::policy::{AllocInfo, Directive, FaultCtx, PagingPolicy};
use crate::probe::Probe;
use crate::resources::Server;
use crate::stage::datapath::DataPath;
use crate::stage::translate::TranslateStage;
use crate::stats::{Counter, Counters, DegradationStats};
use crate::SimError;

/// The driver stage of one machine.
pub struct Driver {
    /// Serialization point for shootdown/migration overhead per chiplet.
    gmmu_ovh: Vec<Server>,
    /// Sorted (base, end, alloc) for fault attribution.
    alloc_ranges: Vec<(u64, u64, AllocId)>,
    /// Degradation events this stage absorbed (rejected directives, audit
    /// violations).
    pub degradation: DegradationStats,
}

impl Driver {
    /// Builds the driver stage for `cfg` and the workload's allocations.
    pub fn new(cfg: &SimConfig, allocs: &[AllocInfo]) -> Self {
        let mut alloc_ranges: Vec<(u64, u64, AllocId)> = allocs
            .iter()
            .map(|a| (a.base.raw(), a.base.raw() + a.bytes, a.id))
            .collect();
        alloc_ranges.sort_unstable_by_key(|r| r.0);
        Driver {
            gmmu_ovh: vec![Server::new(); cfg.num_chiplets],
            alloc_ranges,
            degradation: DegradationStats::default(),
        }
    }

    /// Cycle at which `chiplet`'s GMMU overhead server is free (walks and
    /// faults serialize behind in-progress shootdowns/migrations).
    pub fn gmmu_ready(&self, chiplet: ChipletId) -> u64 {
        self.gmmu_ovh[chiplet.index()].next_free()
    }

    /// The allocation containing `va`, if any.
    pub fn alloc_of(&self, va: VirtAddr) -> Option<AllocId> {
        let v = va.raw();
        match self
            .alloc_ranges
            .binary_search_by(|&(base, _, _)| base.cmp(&v))
        {
            Ok(i) => Some(self.alloc_ranges[i].2),
            Err(0) => None,
            Err(i) => {
                let (_, end, id) = self.alloc_ranges[i - 1];
                (v < end).then_some(id)
            }
        }
    }

    /// Resolves the demand fault on `va` raised at cycle `at`: builds the
    /// fault context, asks the policy, applies its directives, and
    /// verifies the faulting page got mapped. The mapping is installed
    /// now; the warp retries once the fault latency elapses — the returned
    /// cycle.
    ///
    /// # Errors
    ///
    /// * [`SimError::PolicyViolation`] if `va` is outside every
    ///   allocation, or the policy's directives did not map it.
    /// * Any typed error the policy's fault handler returns (e.g.
    ///   [`SimError::OutOfFrames`]); a fault the policy cannot resolve is
    ///   fatal — the warp can never make progress.
    #[allow(clippy::too_many_arguments)]
    pub fn resolve_fault<P: Probe>(
        &mut self,
        cfg: &SimConfig,
        pt: &mut PageTable,
        translate: &mut TranslateStage,
        data: &mut DataPath<'_>,
        policy: &mut dyn PagingPolicy,
        sm: usize,
        chiplet: ChipletId,
        tb: TbId,
        va: VirtAddr,
        at: u64,
        ctr: &mut Counters,
        probe: &mut P,
    ) -> Result<u64, SimError> {
        let page = va.align_down(BASE_PAGE_BYTES);
        let alloc = self.alloc_of(va).ok_or_else(|| SimError::PolicyViolation {
            reason: format!("access to unallocated address {va}"),
        })?;
        let ctx = FaultCtx {
            va: page,
            alloc,
            requester: chiplet,
            sm: SmId::new(sm as u32),
            tb,
            cycle: at,
        };
        let dirs = policy.on_fault(&ctx)?;
        self.apply_directives(
            cfg,
            pt,
            translate,
            data,
            &dirs,
            policy.ideal_migration(),
            at,
            ctr,
            probe,
        );
        if pt.translate(va).is_none() {
            return Err(SimError::PolicyViolation {
                reason: format!("fault handler did not map {va}"),
            });
        }
        Ok(at + cfg.fault_latency)
    }

    /// Applies a directive batch, skipping (and recording) invalid
    /// directives instead of aborting the run: a bad directive fails the
    /// *fault*, not the *process*. Each rejection is counted in
    /// `degradation.rejected_directives` with a sampled
    /// [`SimError::DirectiveRejected`].
    #[allow(clippy::too_many_arguments)]
    pub fn apply_directives<P: Probe>(
        &mut self,
        cfg: &SimConfig,
        pt: &mut PageTable,
        translate: &mut TranslateStage,
        data: &mut DataPath<'_>,
        dirs: &[Directive],
        ideal: bool,
        now: u64,
        ctr: &mut Counters,
        probe: &mut P,
    ) {
        for (i, d) in dirs.iter().enumerate() {
            if let Err(e) =
                self.apply_directive(cfg, pt, translate, data, *d, ideal, now, ctr, probe)
            {
                self.degradation.rejected_directives += 1;
                self.degradation.record(SimError::DirectiveRejected {
                    index: i,
                    reason: e.to_string(),
                });
            }
        }
    }

    /// Validates and applies one directive. State is only mutated once
    /// validation passed, so a rejected directive leaves the machine
    /// untouched.
    #[allow(clippy::too_many_arguments)]
    fn apply_directive<P: Probe>(
        &mut self,
        cfg: &SimConfig,
        pt: &mut PageTable,
        translate: &mut TranslateStage,
        data: &mut DataPath<'_>,
        d: Directive,
        ideal: bool,
        now: u64,
        ctr: &mut Counters,
        probe: &mut P,
    ) -> Result<(), SimError> {
        match d {
            Directive::Map {
                va,
                pa,
                size,
                alloc,
            } => {
                if !translate.has_class(size) {
                    return Err(SimError::TlbClassMissing { size });
                }
                pt.map(va, pa, size, alloc)
            }
            Directive::Promote { base, size } => {
                if !translate.has_class(size) {
                    return Err(SimError::TlbClassMissing { size });
                }
                let pte = pt.promote(base, size)?;
                ctr.bump(pt.layout().chiplet_of(pte.pa), Counter::Promotions);
                // Promotion rewrites PTEs: stale 64KB entries must go.
                translate.invalidate_block_64k(base, size.base_pages());
                Ok(())
            }
            Directive::Unmap { va } => {
                let pte = pt.unmap(va)?;
                let owner = pt.layout().chiplet_of(pte.pa);
                self.shootdown(cfg, translate, va, owner, ideal, now, ctr);
                Ok(())
            }
            Directive::Migrate { va, to_pa } => {
                let pte = pt.translate(va).ok_or(SimError::NotMapped { va })?;
                if pte.size != PageSize::Size64K {
                    return Err(SimError::PolicyViolation {
                        reason: format!("migrate of non-64KB leaf at {va}"),
                    });
                }
                if va.raw() % BASE_PAGE_BYTES != 0 {
                    return Err(SimError::Misaligned {
                        addr: va.raw(),
                        align: BASE_PAGE_BYTES,
                    });
                }
                if to_pa.raw() % BASE_PAGE_BYTES != 0 {
                    return Err(SimError::Misaligned {
                        addr: to_pa.raw(),
                        align: BASE_PAGE_BYTES,
                    });
                }
                let pte = pt.unmap(va)?;
                let src = pt.layout().chiplet_of(pte.pa);
                self.shootdown(cfg, translate, va, src, ideal, now, ctr);
                if let Err(e) = pt.map(va, to_pa, pte.size, pte.alloc) {
                    // Keep the migration atomic: restore the original
                    // mapping before reporting the rejection.
                    let _ = pt.map(va, pte.pa, pte.size, pte.alloc);
                    return Err(e);
                }
                ctr.bump(src, Counter::Migrations);
                data.invalidate_page_lines(cfg, pte.pa);
                if !ideal {
                    let dst = pt.layout().chiplet_of(to_pa);
                    self.gmmu_ovh[src.index()].acquire(now, cfg.migration_latency);
                    self.gmmu_ovh[dst.index()].acquire(now, cfg.migration_latency);
                    data.interconnect_transfer(src, dst, now, ctr, probe);
                }
                Ok(())
            }
        }
    }

    /// Invalidates TLB coverage for one page and charges the shootdown.
    /// `owner` is the chiplet owning the page's frame, for attribution.
    #[allow(clippy::too_many_arguments)]
    fn shootdown(
        &mut self,
        cfg: &SimConfig,
        translate: &mut TranslateStage,
        va: VirtAddr,
        owner: ChipletId,
        ideal: bool,
        now: u64,
        ctr: &mut Counters,
    ) {
        translate.invalidate_page(va);
        if !ideal {
            ctr.bump(owner, Counter::Shootdowns);
            for s in &mut self.gmmu_ovh {
                s.acquire(now, cfg.tlb_shootdown_latency);
            }
        }
    }

    /// Epoch state audit (enabled by
    /// [`SimConfig::audit_epochs`](crate::SimConfig)): checks page-table /
    /// TLB / capacity coherence and counts violations as degradation.
    pub fn audit(&mut self, cfg: &SimConfig, pt: &PageTable, translate: &TranslateStage) {
        let auditor = crate::chaos::StateAuditor::new(cfg);
        let mut violations = auditor.check_page_table(pt);
        // Cached TLB coverage must never outlive its mapping.
        violations.extend(translate.stale_coverage(pt));
        for v in violations {
            self.degradation.audit_violations += 1;
            self.degradation.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StaticHint;
    use mcm_types::PhysAddr;

    fn cfg() -> SimConfig {
        SimConfig::baseline().scaled(8)
    }

    fn allocs() -> Vec<AllocInfo> {
        vec![
            AllocInfo {
                id: AllocId::new(0),
                base: VirtAddr::new(0),
                bytes: 4 << 20,
                name: "a".into(),
                hint: StaticHint::Irregular,
            },
            AllocInfo {
                id: AllocId::new(1),
                base: VirtAddr::new(8 << 20),
                bytes: 2 << 20,
                name: "b".into(),
                hint: StaticHint::Shared,
            },
        ]
    }

    #[test]
    fn fault_attribution_by_alloc_range() {
        let c = cfg();
        let d = Driver::new(&c, &allocs());
        assert_eq!(d.alloc_of(VirtAddr::new(0)), Some(AllocId::new(0)));
        assert_eq!(
            d.alloc_of(VirtAddr::new((4 << 20) - 1)),
            Some(AllocId::new(0))
        );
        assert_eq!(
            d.alloc_of(VirtAddr::new(4 << 20)),
            None,
            "gap between allocs"
        );
        assert_eq!(d.alloc_of(VirtAddr::new(9 << 20)), Some(AllocId::new(1)));
        assert_eq!(d.alloc_of(VirtAddr::new(11 << 20)), None, "past the end");
    }

    #[test]
    fn rejected_directives_degrade_without_mutating() {
        let c = cfg();
        let mut pt = PageTable::new(c.layout());
        let mut tr = TranslateStage::new(&c);
        let mut data = DataPath::new(&c, None);
        let mut ctr = Counters::new(c.num_chiplets);
        let mut drv = Driver::new(&c, &allocs());
        // Promote at an unmapped base: must be rejected and counted.
        let dirs = [
            Directive::Promote {
                base: VirtAddr::new(0),
                size: PageSize::Size2M,
            },
            Directive::Unmap {
                va: VirtAddr::new(1 << 20),
            },
        ];
        drv.apply_directives(
            &c,
            &mut pt,
            &mut tr,
            &mut data,
            &dirs,
            false,
            0,
            &mut ctr,
            &mut (),
        );
        assert_eq!(drv.degradation.rejected_directives, 2);
        assert!(!drv.degradation.errors.is_empty());
        assert_eq!(ctr.total(Counter::Promotions), 0);
        assert_eq!(
            ctr.total(Counter::Shootdowns),
            0,
            "rejected unmap charges nothing"
        );
    }

    #[test]
    fn migration_is_atomic_and_charges_gmmu() {
        let c = cfg();
        let layout = c.layout();
        let mut pt = PageTable::new(c.layout());
        let mut tr = TranslateStage::new(&c);
        let mut data = DataPath::new(&c, None);
        let mut ctr = Counters::new(c.num_chiplets);
        let mut drv = Driver::new(&c, &allocs());
        let va = VirtAddr::new(0);
        let src_pa = layout.block_base(layout.block_of_chiplet(ChipletId::new(0), 0));
        let dst_pa = layout.block_base(layout.block_of_chiplet(ChipletId::new(1), 0));
        pt.map(va, src_pa, PageSize::Size64K, AllocId::new(0))
            .expect("map");
        drv.apply_directives(
            &c,
            &mut pt,
            &mut tr,
            &mut data,
            &[Directive::Migrate { va, to_pa: dst_pa }],
            false,
            100,
            &mut ctr,
            &mut (),
        );
        assert_eq!(ctr.total(Counter::Migrations), 1);
        assert_eq!(ctr.total(Counter::Shootdowns), 1);
        let pte = pt.translate(va).expect("still mapped");
        assert_eq!(pte.pa, dst_pa);
        assert!(
            drv.gmmu_ready(ChipletId::new(0)) > 100,
            "migration must occupy the source GMMU"
        );
    }

    #[test]
    fn resolve_fault_maps_and_schedules_retry() {
        struct MapIt;
        impl PagingPolicy for MapIt {
            fn name(&self) -> &str {
                "map-it"
            }
            fn begin(&mut self, _a: &[AllocInfo], _c: &SimConfig) {}
            fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
                Ok(vec![Directive::Map {
                    va: ctx.va,
                    pa: PhysAddr::new(0),
                    size: PageSize::Size64K,
                    alloc: ctx.alloc,
                }])
            }
        }
        let c = cfg();
        let mut pt = PageTable::new(c.layout());
        let mut tr = TranslateStage::new(&c);
        let mut data = DataPath::new(&c, None);
        let mut ctr = Counters::new(c.num_chiplets);
        let mut drv = Driver::new(&c, &allocs());
        let mut p = MapIt;
        let resume = drv
            .resolve_fault(
                &c,
                &mut pt,
                &mut tr,
                &mut data,
                &mut p,
                0,
                ChipletId::new(0),
                TbId::new(0),
                VirtAddr::new(0x1_0040),
                500,
                &mut ctr,
                &mut (),
            )
            .expect("fault must resolve");
        assert_eq!(resume, 500 + c.fault_latency);
        assert!(pt.translate(VirtAddr::new(0x1_0000)).is_some());
    }

    #[test]
    fn unresolvable_fault_is_fatal_and_typed() {
        struct NoOp;
        impl PagingPolicy for NoOp {
            fn name(&self) -> &str {
                "no-op"
            }
            fn begin(&mut self, _a: &[AllocInfo], _c: &SimConfig) {}
            fn on_fault(&mut self, _ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
                Ok(vec![])
            }
        }
        let c = cfg();
        let mut pt = PageTable::new(c.layout());
        let mut tr = TranslateStage::new(&c);
        let mut data = DataPath::new(&c, None);
        let mut ctr = Counters::new(c.num_chiplets);
        let mut drv = Driver::new(&c, &allocs());
        let err = drv
            .resolve_fault(
                &c,
                &mut pt,
                &mut tr,
                &mut data,
                &mut NoOp,
                0,
                ChipletId::new(0),
                TbId::new(0),
                VirtAddr::new(64),
                0,
                &mut ctr,
                &mut (),
            )
            .expect_err("unmapped fault must abort");
        assert!(matches!(err, SimError::PolicyViolation { .. }));
    }
}
