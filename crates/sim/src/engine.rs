//! The trace-driven simulation engine.
//!
//! Executes every kernel of a [`Workload`](crate::Workload) against a
//! machine built from a [`SimConfig`](crate::SimConfig), with memory
//! mapping decided by a [`PagingPolicy`](crate::PagingPolicy). Warps are
//! interleaved through a monotone wake-up queue; throughput limits come
//! from bucketed resources (SM load/store ports, page walkers, DRAM
//! channels, interconnect links), so warp-level parallelism hides latency
//! exactly until a resource saturates. The clock never runs backwards, so
//! once an epoch fires, every resource drops the bookings the clock has
//! passed.
//!
//! The heavy lifting lives in the [`stage`](crate::stage) modules; the
//! `Machine` here is a thin orchestrator that owns the page table and the
//! per-SM issue ports and wires the stages together:
//!
//! * [`TranslateStage`](crate::stage::translate::TranslateStage) — TLBs,
//!   page-walk caches, walkers, walk-queue MSHRs;
//! * [`DataPath`](crate::stage::datapath::DataPath) — data caches, DRAM,
//!   the interconnect, the optional remote cache;
//! * [`Driver`](crate::stage::driver::Driver) — fault resolution,
//!   directive application, shootdowns, audits;
//! * [`KernelSchedule`](crate::stage::sched::KernelSchedule) — TB
//!   distribution and the warp wake-up queue.

use mcm_types::{ChipletId, TbId, VirtAddr};

use crate::config::SimConfig;
use crate::page_table::PageTable;
use crate::policy::{PagingPolicy, RemoteCacheModel, WalkEvent};
use crate::probe::Probe;
use crate::resources::BucketedResource;
use crate::stage::datapath::DataPath;
use crate::stage::driver::Driver;
use crate::stage::sched::KernelSchedule;
use crate::stage::translate::{TranslateStage, Translation};
use crate::stats::{AllocAccessStats, Counter, Counters, RunStats};
use crate::trace::TraceStage;
use crate::workload::Workload;
use crate::SimError;

/// How a run ended (see DESIGN.md, "Error handling & degradation
/// semantics"). Whether a completed run degraded is a fact of its
/// statistics: [`DegradationStats::is_degraded`](crate::DegradationStats::is_degraded).
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// The run completed, possibly absorbing degradation events along the
    /// way (rejected directives, capacity fallbacks, walk-queue stalls,
    /// ...), which [`RunStats::degradation`] counts.
    Completed(RunStats),
    /// The run was cut short by a supervision limit — the cycle budget
    /// ([`SimConfig::max_cycles`]) or the livelock watchdog
    /// ([`SimConfig::stall_window`]). The statistics cover the partial run
    /// up to the abort point; counters are flushed but incomplete.
    Aborted {
        /// Why the run was stopped ([`SimError::BudgetExceeded`] or
        /// [`SimError::Livelock`]).
        reason: SimError,
        /// Partial statistics up to the abort.
        stats: RunStats,
    },
}

impl RunOutcome {
    /// The run's statistics, regardless of outcome (partial for
    /// [`RunOutcome::Aborted`]).
    pub fn stats(&self) -> &RunStats {
        match self {
            RunOutcome::Completed(stats) | RunOutcome::Aborted { stats, .. } => stats,
        }
    }

    /// Consumes the outcome, returning the statistics (partial for
    /// [`RunOutcome::Aborted`]).
    pub fn into_stats(self) -> RunStats {
        match self {
            RunOutcome::Completed(stats) | RunOutcome::Aborted { stats, .. } => stats,
        }
    }

    /// The statistics of a completed run (degraded or not).
    ///
    /// # Errors
    ///
    /// An aborted run's [`SimError::BudgetExceeded`] or
    /// [`SimError::Livelock`] reason.
    ///
    /// # Examples
    ///
    /// See `examples/quickstart.rs` in the repository root.
    pub fn completed(self) -> Result<RunStats, SimError> {
        match self {
            RunOutcome::Completed(stats) => Ok(stats),
            RunOutcome::Aborted { reason, .. } => Err(reason),
        }
    }

    /// `true` for [`RunOutcome::Aborted`].
    pub fn is_aborted(&self) -> bool {
        matches!(self, RunOutcome::Aborted { .. })
    }
}

/// Runs `workload` under `policy` and reports how the run ended.
///
/// `remote_cache` optionally interposes a NUBA/SAC-style remote-data cache
/// between local L2 misses and the interconnect.
///
/// Degradation events (rejected directives, capacity fallbacks, stale TLB
/// coverage, walk-queue stalls) do **not** fail the run; they are counted
/// in [`RunStats::degradation`]. Supervision limits
/// ([`SimConfig::max_cycles`], [`SimConfig::stall_window`]) surface as
/// `Ok(RunOutcome::Aborted)` with partial statistics;
/// [`RunOutcome::completed`] turns them into an `Err` for callers that
/// want plain statistics.
///
/// # Errors
///
/// * [`SimError::ConfigInvalid`] if `cfg` fails [`SimConfig::validate`].
/// * [`SimError::PolicyViolation`] if the policy fails to resolve a fault
///   it was given.
/// * Any typed error the policy's fault handler returns (e.g.
///   [`SimError::OutOfFrames`] when physical memory is truly exhausted).
pub fn run_outcome(
    cfg: &SimConfig,
    workload: &dyn Workload,
    policy: &mut dyn PagingPolicy,
    remote_cache: Option<&mut dyn RemoteCacheModel>,
) -> Result<RunOutcome, SimError> {
    run_with(cfg, workload, policy, remote_cache, &mut ())
}

/// Like [`run_outcome`], with `probe` observing the run (see
/// [`Probe`]): pass a [`RunTrace`](crate::RunTrace) for stage histograms
/// and events, a [`MetricsProbe`](crate::MetricsProbe) for the interval
/// series and traffic matrix. Probes only observe — the outcome is
/// identical to an unprobed run.
///
/// # Errors
///
/// Same as [`run_outcome`].
pub fn run_with<P: Probe>(
    cfg: &SimConfig,
    workload: &dyn Workload,
    policy: &mut dyn PagingPolicy,
    remote_cache: Option<&mut dyn RemoteCacheModel>,
    probe: &mut P,
) -> Result<RunOutcome, SimError> {
    cfg.validate()?;
    let mut m = Machine::new(cfg, workload, remote_cache, probe);
    policy.begin(workload.allocs(), cfg);
    // A tripped supervision limit (budget/watchdog) still flushes the
    // machine's partial statistics — everything else aborts the run.
    let abort = match m.run_all(workload, policy) {
        Ok(()) => None,
        Err(reason @ (SimError::BudgetExceeded { .. } | SimError::Livelock { .. })) => Some(reason),
        Err(e) => return Err(e),
    };
    let stats = m.finish(policy);
    Ok(match abort {
        Some(reason) => RunOutcome::Aborted { reason, stats },
        None => RunOutcome::Completed(stats),
    })
}

/// Translation memo for the engine's same-page repeat fast path
/// (DESIGN.md §15). Warp access streams are line-granular and mostly
/// sequential, so consecutive accesses of a batch usually fall in the
/// page the previous access just resolved — and within a batch nothing
/// can touch the page table or this SM's TLBs, so the full translate
/// path is provably a replay: the same class probes, the same L1 hit,
/// the same PTE. The engine replays only its observable effects
/// ([`TranslateStage::repeat_l1_hit`]) and reuses the cached PTE.
///
/// Scoped to one batch: any fill, fault, directive, or other SM's
/// activity ends the batch (or cannot occur inside it), so no explicit
/// invalidation is needed.
struct RepeatXlate {
    /// VA page number under the *smallest* TLB class's page size: two VAs
    /// agreeing here index identically into every class (class pages are
    /// aligned supersets), which is what makes the skipped probes safe.
    vpn_min: u64,
    /// VA page number under the resolved leaf's page size (same leaf →
    /// same PTE from the unchanged page table).
    leaf_vpn: u64,
    /// `log2(page size)` of the resolved leaf.
    leaf_shift: u32,
    /// L1 TLB class index holding the covering entry.
    class: u32,
    /// Slot of the covering entry within that class.
    slot: u32,
    /// The resolved leaf PTE.
    pte: crate::page_table::Pte,
}

/// Per-access counts a warp batch sums locally and adds to the registry
/// once, after the batch: every access of a batch issues from one
/// chiplet, and nothing reads the registry before the next warp wake-up.
#[derive(Default)]
struct BatchTally {
    /// Completed accesses whose data lives on another chiplet.
    remote: u64,
    /// Summed translation latency of the completed accesses.
    translation_cycles: u64,
    /// Summed data-path latency of the completed accesses.
    data_cycles: u64,
}

/// Outcome of simulating one memory instruction.
enum AccessResult {
    /// Completed at the given cycle.
    Done(u64),
    /// Hit a demand fault; the issuing warp must retry the access once the
    /// driver resolves it (at the given cycle). Modelling the fault as a
    /// warp reschedule — instead of atomically simulating the post-fault
    /// path thousands of cycles in the future — keeps resource state
    /// causal across the wake-up queue.
    Fault(u64),
}

/// The orchestrator: owns the page table (read by translation, written by
/// the driver), the per-SM issue ports, and the counter registry every
/// stage counts into; reports to the run's probe `P`.
struct Machine<'c, 'r, 'p, P: Probe> {
    cfg: &'c SimConfig,
    /// `line_reuse` of the kernel currently running.
    reuse: u64,
    page_table: PageTable,
    translate: TranslateStage,
    data: DataPath<'r>,
    driver: Driver,
    sm_port: Vec<BucketedResource>,
    /// The per-chiplet counter registry ([`RunStats`] is folded from it).
    ctr: Counters,
    /// The simulated clock at the end of the run (or at an abort).
    cycles: u64,
    /// Cached `policy.wants_access_samples()` — a per-policy constant,
    /// hoisted out of the per-access path (virtual call) at run start.
    wants_samples: bool,
    /// Per-allocation access tallies, indexed by `AllocId::index()` — a
    /// dense mirror of [`RunStats::per_alloc`] kept flat so the per-access
    /// hot path pays an array index, not a hash probe. Flushed into the
    /// `HashMap` once, at [`Machine::finish`].
    alloc_stats: Vec<AllocAccessStats>,
    next_epoch: u64,
    probe: &'p mut P,
    /// Recycled per-warp access-stream buffers (DESIGN.md §15): retiring
    /// warps return their `Vec<VirtAddr>` here and starting warps refill
    /// one in place, so the steady state allocates nothing per warp.
    stream_pool: Vec<Vec<VirtAddr>>,
}

impl<'c, 'r, 'p, P: Probe> Machine<'c, 'r, 'p, P> {
    fn new(
        cfg: &'c SimConfig,
        workload: &dyn Workload,
        remote_cache: Option<&'r mut dyn RemoteCacheModel>,
        probe: &'p mut P,
    ) -> Self {
        Machine {
            cfg,
            reuse: 1,
            page_table: PageTable::new(cfg.layout()),
            translate: TranslateStage::new(cfg),
            data: DataPath::new(cfg, remote_cache),
            driver: Driver::new(cfg, workload.allocs()),
            sm_port: vec![BucketedResource::new(1); cfg.total_sms()],
            ctr: Counters::new(cfg.num_chiplets),
            cycles: 0,
            wants_samples: false,
            alloc_stats: vec![AllocAccessStats::default(); workload.allocs().len()],
            next_epoch: cfg.epoch_cycles,
            probe,
            stream_pool: Vec::new(),
        }
    }

    fn run_all(
        &mut self,
        workload: &dyn Workload,
        policy: &mut dyn PagingPolicy,
    ) -> Result<(), SimError> {
        let mut now = 0u64;
        self.wants_samples = policy.wants_access_samples();
        for k in 0..workload.num_kernels() {
            now = self.run_kernel(workload, k, now, policy)?;
            let dirs = policy.on_kernel_end(k, now);
            self.driver.apply_directives(
                self.cfg,
                &mut self.page_table,
                &mut self.translate,
                &mut self.data,
                &dirs,
                policy.ideal_migration(),
                now,
                &mut self.ctr,
                self.probe,
            );
            if self.cfg.audit_epochs {
                self.driver
                    .audit(self.cfg, &self.page_table, &self.translate);
            }
        }
        self.cycles = now;
        Ok(())
    }

    fn run_kernel(
        &mut self,
        workload: &dyn Workload,
        k: usize,
        start: u64,
        policy: &mut dyn PagingPolicy,
    ) -> Result<u64, SimError> {
        let mut sched = KernelSchedule::new(self.cfg, workload, k, start, &mut self.stream_pool);
        let kd = *sched.kernel();
        self.reuse = kd.line_reuse.max(1) as u64;
        let issue_gap = kd.insts_per_mem as u64;
        let mut end = start;
        // Supervision state: the cycle of the most recent retired access,
        // and how many warp wake-ups in a row retired nothing (a backstop
        // for faulting loops that barely advance the clock).
        let mut last_progress = start;
        let mut idle_pops = 0u64;

        loop {
            let popped = sched.pop();
            let Some((t, wid)) = popped else { break };
            if let Some(max) = self.cfg.max_cycles {
                if t > max {
                    self.cycles = t;
                    return Err(SimError::BudgetExceeded {
                        cycles: t,
                        max_cycles: max,
                    });
                }
            }
            if let Some(window) = self.cfg.stall_window {
                if t.saturating_sub(last_progress) > window || idle_pops > window {
                    self.cycles = t;
                    return Err(SimError::Livelock { cycles: t, window });
                }
            }
            idle_pops += 1;
            // Probe clock: a batch's counts land in the interval
            // containing its pop time (DESIGN.md §10).
            self.probe.tick(t, &self.ctr);
            // Epoch callbacks for reactive policies.
            let epoch_due = t >= self.next_epoch;
            while t >= self.next_epoch {
                let epoch = self.next_epoch;
                let dirs = policy.on_epoch(epoch);
                self.driver.apply_directives(
                    self.cfg,
                    &mut self.page_table,
                    &mut self.translate,
                    &mut self.data,
                    &dirs,
                    policy.ideal_migration(),
                    epoch,
                    &mut self.ctr,
                    self.probe,
                );
                if self.cfg.audit_epochs {
                    self.driver
                        .audit(self.cfg, &self.page_table, &self.translate);
                }
                self.next_epoch += self.cfg.epoch_cycles;
            }
            if epoch_due {
                // Nothing books before this pop again (resources.rs,
                // "Clock-floor contract"); not inside the loop above, whose
                // next due epoch still books before `t`. The floor is the
                // kernel's end so far when that is earlier: a warp with an
                // empty stream retires without a batch, so the kernel may
                // end (kernel-end directives book, the next kernel starts)
                // before `t`.
                self.forget_before(t.min(end));
            }

            // A warp keeps up to `warp_mlp` independent memory
            // instructions in flight; it blocks until the whole batch
            // returns (GPU load pipelining). A demand fault suspends the
            // warp until the driver resolves it; the faulting access (and
            // the rest of the batch) retries on resume.
            let (sm, tb, batch) = sched.batch(self.cfg, wid);
            if !batch.is_empty() {
                let chiplet = ChipletId::new((sm / self.cfg.sms_per_chiplet) as u8);
                let mut batch_done = t;
                let mut fault_resume = None;
                let mut advanced = 0usize;
                // Same-page translation memo, valid only within this batch.
                let mut repeat: Option<RepeatXlate> = None;
                let mut tally = BatchTally::default();
                for (i, va) in batch.iter().enumerate() {
                    let at = t + i as u64 * issue_gap;
                    match self.memory_access(
                        sm,
                        chiplet,
                        tb,
                        *va,
                        at,
                        policy,
                        &mut repeat,
                        &mut tally,
                    )? {
                        AccessResult::Done(done) => {
                            batch_done = batch_done.max(done);
                            advanced += 1;
                        }
                        AccessResult::Fault(resume) => {
                            fault_resume = Some(resume.max(batch_done));
                            break;
                        }
                    }
                }
                // Batch-hoisted tallies: one add per batch instead of one
                // per retired access. Each access stands for `reuse` memory
                // instructions; the `reuse - 1` unsimulated repeats hit the
                // L1 cache and L1 TLB.
                let n = advanced as u64;
                let c = &mut self.ctr;
                c.add(chiplet, Counter::MemInsts, n * self.reuse);
                c.add(chiplet, Counter::WarpInsts, n * issue_gap * self.reuse);
                c.add(chiplet, Counter::RemoteInsts, tally.remote * self.reuse);
                c.add(chiplet, Counter::L1dHits, n * (self.reuse - 1));
                c.add(chiplet, Counter::L1tlbHits, n * (self.reuse - 1));
                c.add(
                    chiplet,
                    Counter::TranslationCycles,
                    tally.translation_cycles,
                );
                c.add(chiplet, Counter::DataCycles, tally.data_cycles);
                sched.advance(wid, advanced);
                if advanced > 0 {
                    last_progress = last_progress.max(batch_done);
                    idle_pops = 0;
                }
                end = end.max(batch_done);
                self.probe.sample(TraceStage::Sched, batch_done - t);
                if let Some(resume) = fault_resume {
                    sched.reschedule(wid, resume);
                    continue;
                }
                if !sched.warp_finished(wid) {
                    // Issue time for the (line_reuse - 1) repeats per
                    // access: L1-hit loads dual-issue with their arithmetic
                    // (one cycle each), so they cost issue slots, not full
                    // arithmetic gaps.
                    let repeat_issue = (self.reuse - 1) * advanced as u64;
                    sched.reschedule(wid, batch_done + issue_gap + repeat_issue);
                    continue;
                }
            }
            sched.retire_warp(workload, k, wid, t, &mut self.stream_pool);
        }
        sched.recycle(&mut self.stream_pool);
        Ok(end)
    }

    /// Drops every resource's bookings before cycle `t`, which the clock
    /// has passed for good: SM ports, page walkers, DRAM channels and
    /// interconnect links.
    fn forget_before(&mut self, t: u64) {
        for port in &mut self.sm_port {
            port.forget_before(t);
        }
        self.translate.forget_before(t);
        self.data.forget_before(t);
    }

    /// Simulates one warp memory instruction: SM port → translation stage →
    /// data path, with faults routed through the driver stage. `chiplet` is
    /// `sm`'s chiplet, computed once per batch by the caller.
    #[allow(clippy::too_many_arguments)]
    fn memory_access(
        &mut self,
        sm: usize,
        chiplet: ChipletId,
        tb: TbId,
        va: VirtAddr,
        t: u64,
        policy: &mut dyn PagingPolicy,
        repeat: &mut Option<RepeatXlate>,
        tally: &mut BatchTally,
    ) -> Result<AccessResult, SimError> {
        let issue = self.sm_port[sm].acquire(t, 1);

        // --- Address translation ---
        let min_shift = self.translate.min_class_shift();
        let hot = repeat
            .as_ref()
            .filter(|r| {
                va.raw() >> min_shift == r.vpn_min && va.raw() >> r.leaf_shift == r.leaf_vpn
            })
            .map(|r| (r.class, r.slot, r.pte));
        let (pte, tt, walked) = if let Some((class, slot, pte)) = hot {
            // Same page as the previous access of this batch: replay the
            // L1 hit's observable effects and reuse the PTE (see
            // [`RepeatXlate`]). An L1 hit never consults the GMMU server.
            self.translate
                .repeat_l1_hit(sm, chiplet, class, slot, &mut self.ctr);
            (pte, issue + self.cfg.l1_tlb_latency, false)
        } else {
            let gmmu_free = self.driver.gmmu_ready(chiplet);
            match self.translate.translate(
                self.cfg,
                &self.page_table,
                &mut self.data,
                sm,
                chiplet,
                va,
                issue,
                gmmu_free,
                &mut self.ctr,
                self.probe,
            )? {
                Translation::Done { pte, done, walked } => {
                    // Arm (or disarm) the memo for the next access. `None`
                    // when the entry could not be cached in the L1 TLB —
                    // the next same-page access would miss again.
                    *repeat = self.translate.last_l1().map(|(class, slot)| RepeatXlate {
                        vpn_min: va.raw() >> self.translate.min_class_shift(),
                        leaf_vpn: va.raw() >> pte.size.shift(),
                        leaf_shift: pte.size.shift(),
                        class,
                        slot,
                        pte,
                    });
                    (pte, done, walked)
                }
                Translation::Fault { at } => {
                    let resume = self.driver.resolve_fault(
                        self.cfg,
                        &mut self.page_table,
                        &mut self.translate,
                        &mut self.data,
                        policy,
                        sm,
                        chiplet,
                        tb,
                        va,
                        at,
                        &mut self.ctr,
                        self.probe,
                    )?;
                    self.probe.sample(TraceStage::Fault, resume - at);
                    return Ok(AccessResult::Fault(resume));
                }
            }
        };
        if walked {
            policy.on_walk(&WalkEvent {
                va,
                alloc: pte.alloc,
                requester: chiplet,
                data_chiplet: self.page_table.layout().chiplet_of(pte.pa),
                cycle: tt,
            });
        }
        tally.translation_cycles += tt - issue;
        self.probe.sample(TraceStage::Translate, tt - issue);

        // --- Data access ---
        let pa = pte.pa + va.offset_in(pte.size.bytes());
        let data_chiplet = self.page_table.layout().chiplet_of(pa);
        let remote = data_chiplet != chiplet;
        tally.remote += remote as u64;
        let idx = pte.alloc.index();
        if idx >= self.alloc_stats.len() {
            self.alloc_stats
                .resize(idx + 1, AllocAccessStats::default());
        }
        self.alloc_stats[idx].accesses += self.reuse;
        if remote {
            self.alloc_stats[idx].remote += self.reuse;
        }
        if self.wants_samples {
            policy.on_access(&WalkEvent {
                va,
                alloc: pte.alloc,
                requester: chiplet,
                data_chiplet,
                cycle: tt,
            });
        }

        let done = self.data.access(
            self.cfg,
            sm,
            chiplet,
            data_chiplet,
            pa,
            tt,
            &mut self.ctr,
            self.probe,
        );
        tally.data_cycles += done - tt;
        self.probe.sample(TraceStage::Data, done - tt);
        Ok(AccessResult::Done(done))
    }

    /// Folds the registry, the per-allocation tallies, the stages'
    /// degradation tallies and the policy's allocator figures into the
    /// run's statistics, and hands the final registry and the bucket
    /// windows' size to the probe.
    fn finish(self, policy: &mut dyn PagingPolicy) -> RunStats {
        let ports: usize = self
            .sm_port
            .iter()
            .map(BucketedResource::bucket_bytes)
            .sum();
        self.probe
            .bucket_bytes(ports + self.translate.bucket_bytes() + self.data.bucket_bytes());
        let mut stats = RunStats {
            cycles: self.cycles,
            blocks_consumed: policy.blocks_consumed(),
            ..RunStats::default()
        };
        stats.fold(&self.ctr);
        // Only touched allocations get a map entry.
        for (i, st) in self.alloc_stats.iter().enumerate() {
            if st.accesses > 0 {
                stats
                    .per_alloc
                    .insert(mcm_types::AllocId::new(i as u16), *st);
            }
        }
        stats.degradation.absorb(self.translate.degradation);
        stats.degradation.absorb(self.driver.degradation);
        stats.degradation.fallback_remote_frames = policy.frame_fallbacks();
        self.probe.finish(stats.cycles, &self.ctr);
        stats
    }
}
