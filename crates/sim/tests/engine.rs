//! Engine-level behaviour tests against a minimal stub workload and
//! policy: translation accounting, promotion, coalescing, migration
//! semantics, remote caching, epochs, multi-kernel runs, and policy
//! validation.

use mcm_sim::{
    run_outcome, AllocInfo, Directive, FaultCtx, KernelDesc, PagingPolicy, RemoteCacheModel,
    RemoteServe, RunOutcome, SimConfig, SimError, StaticHint, Stonewall, TranslationConfig,
    WalkEvent, Workload,
};
use mcm_types::{AllocId, ChipletId, PageSize, PhysAddr, TbId, VirtAddr, WarpId, VA_BLOCK_BYTES};

const MB: u64 = 1 << 20;

/// A workload where TB `t` streams lines through its own `slice` of one
/// allocation, `passes` times.
struct Stub {
    allocs: Vec<AllocInfo>,
    num_tbs: u32,
    lines_per_warp: usize,
    kernels: usize,
}

impl Stub {
    fn new(bytes: u64, num_tbs: u32, lines_per_warp: usize) -> Self {
        Stub {
            allocs: vec![AllocInfo {
                id: AllocId::new(0),
                base: VirtAddr::new(VA_BLOCK_BYTES),
                bytes,
                name: "buf".into(),
                hint: StaticHint::Partitioned { period_bytes: 0 },
            }],
            num_tbs,
            lines_per_warp,
            kernels: 1,
        }
    }
}

impl Workload for Stub {
    fn name(&self) -> &str {
        "stub"
    }
    fn allocs(&self) -> &[AllocInfo] {
        &self.allocs
    }
    fn num_kernels(&self) -> usize {
        self.kernels
    }
    fn kernel(&self, _k: usize) -> KernelDesc {
        KernelDesc {
            num_tbs: self.num_tbs,
            warps_per_tb: 2,
            insts_per_mem: 4,
            line_reuse: 1,
        }
    }
    fn warp_accesses(&self, _k: usize, tb: TbId, warp: WarpId) -> Vec<VirtAddr> {
        // Spread accesses evenly through the TB's slice so every page of
        // the slice is touched.
        let a = &self.allocs[0];
        let slice = a.bytes / self.num_tbs as u64;
        let base = a.base + tb.index() as u64 * slice;
        // Two passes over the slice so warmed structures (TLBs, caches,
        // coalesced entries) get exercised.
        let uniques = self.lines_per_warp / 2;
        let total = (uniques * 2) as u64;
        (0..self.lines_per_warp)
            .map(|i| {
                let k = warp.index() as u64 * uniques as u64 + (i % uniques) as u64;
                base + ((k * slice / total) & !127)
            })
            .collect()
    }
}

/// First-touch 64KB policy with dense per-chiplet frame handout.
struct Ft64 {
    next_frame: Vec<u64>,
    blocks: usize,
}

impl Ft64 {
    fn new() -> Self {
        Ft64 {
            next_frame: Vec::new(),
            blocks: 0,
        }
    }
}

impl PagingPolicy for Ft64 {
    fn name(&self) -> &str {
        "stub-ft64"
    }
    fn begin(&mut self, _allocs: &[AllocInfo], cfg: &SimConfig) {
        self.next_frame = vec![0; cfg.num_chiplets];
    }
    fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
        // Frame n of chiplet c lives in PF block c + n/32*C.
        let c = ctx.requester.index() as u64;
        let n = self.next_frame[ctx.requester.index()];
        self.next_frame[ctx.requester.index()] += 1;
        if n.is_multiple_of(32) {
            self.blocks += 1;
        }
        let chiplets = self.next_frame.len() as u64;
        let pa = PhysAddr::new((c + n / 32 * chiplets) * VA_BLOCK_BYTES + (n % 32) * 65536);
        Ok(vec![Directive::Map {
            va: ctx.va,
            pa,
            size: PageSize::Size64K,
            alloc: ctx.alloc,
        }])
    }
    fn blocks_consumed(&self) -> Option<usize> {
        Some(self.blocks)
    }
}

fn small_cfg() -> SimConfig {
    let mut c = SimConfig::baseline();
    c.sms_per_chiplet = 4;
    c.epoch_cycles = u64::MAX / 2;
    c
}

#[test]
fn accounting_adds_up() {
    let w = Stub::new(16 * MB, 64, 32);
    let mut p = Ft64::new();
    let s = run_outcome(&small_cfg(), &w, &mut p, None)
        .and_then(RunOutcome::completed)
        .expect("runs");
    assert_eq!(s.mem_insts, 64 * 2 * 32);
    assert_eq!(s.warp_insts, s.mem_insts * 4);
    // Faulted accesses retry, re-running translation once.
    assert_eq!(s.l1tlb_hits + s.l1tlb_misses, s.mem_insts + s.faults);
    assert_eq!(s.l1d_hits + s.l1d_misses, s.mem_insts);
    assert_eq!(s.l2tlb_hits + s.l2tlb_misses, s.l1tlb_misses);
    // Every touched 64KB page faulted exactly once.
    assert!(s.faults > 0);
    assert_eq!(s.blocks_consumed, Some(p.blocks));
    assert!(s.cycles > 0);
    // Partitioned first-touch: everything local.
    assert_eq!(s.remote_insts, 0);
}

#[test]
fn line_reuse_scales_instruction_counts_only() {
    struct Reuse(Stub);
    impl Workload for Reuse {
        fn name(&self) -> &str {
            "stub-reuse"
        }
        fn allocs(&self) -> &[AllocInfo] {
            self.0.allocs()
        }
        fn kernel(&self, k: usize) -> KernelDesc {
            KernelDesc {
                line_reuse: 8,
                ..self.0.kernel(k)
            }
        }
        fn warp_accesses(&self, k: usize, tb: TbId, warp: WarpId) -> Vec<VirtAddr> {
            self.0.warp_accesses(k, tb, warp)
        }
    }
    let base = Stub::new(16 * MB, 64, 32);
    let plain = run_outcome(&small_cfg(), &base, &mut Ft64::new(), None)
        .and_then(RunOutcome::completed)
        .expect("runs");
    let reused = run_outcome(
        &small_cfg(),
        &Reuse(Stub::new(16 * MB, 64, 32)),
        &mut Ft64::new(),
        None,
    )
    .and_then(RunOutcome::completed)
    .expect("runs");
    assert_eq!(reused.mem_insts, plain.mem_insts * 8);
    assert_eq!(reused.warp_insts, plain.warp_insts * 8);
    // Simulated machine work is identical.
    assert_eq!(reused.faults, plain.faults);
    assert_eq!(reused.l1d_misses, plain.l1d_misses);
    assert_eq!(reused.dram_accesses, plain.dram_accesses);
    // The repeats hit L1.
    assert_eq!(reused.l1d_hits, plain.l1d_hits + 7 * plain.mem_insts);
}

/// Policy that maps whole blocks contiguously and promotes them.
struct Promote2M;
impl PagingPolicy for Promote2M {
    fn name(&self) -> &str {
        "stub-2m"
    }
    fn begin(&mut self, _a: &[AllocInfo], _c: &SimConfig) {}
    fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
        // Map the entire VA block contiguously and promote immediately.
        let block = ctx.va.align_down(VA_BLOCK_BYTES);
        let pa = PhysAddr::new(block.raw()); // identity: chiplet varies per block
        let mut dirs: Vec<Directive> = (0..32u64)
            .map(|i| Directive::Map {
                va: block + i * 65536,
                pa: pa + i * 65536,
                size: PageSize::Size64K,
                alloc: ctx.alloc,
            })
            .collect();
        dirs.push(Directive::Promote {
            base: block,
            size: PageSize::Size2M,
        });
        Ok(dirs)
    }
}

#[test]
fn promotion_cuts_walks() {
    let w = Stub::new(128 * MB, 64, 64);
    let cfg = small_cfg().scaled(8);
    let small = run_outcome(&cfg, &w, &mut Ft64::new(), None)
        .and_then(RunOutcome::completed)
        .expect("runs");
    let big = run_outcome(&cfg, &w, &mut Promote2M, None)
        .and_then(RunOutcome::completed)
        .expect("runs");
    assert!(big.promotions > 0);
    assert!(
        big.l2tlb_misses < small.l2tlb_misses,
        "2MB leaves must reduce L2 TLB misses: {} vs {}",
        big.l2tlb_misses,
        small.l2tlb_misses
    );
}

#[test]
fn clap_coalescing_cuts_walks_for_contiguous_frames() {
    // Same contiguous mapping, no promotion: plain TLBs vs coalescing.
    struct Contig;
    impl PagingPolicy for Contig {
        fn name(&self) -> &str {
            "stub-contig"
        }
        fn begin(&mut self, _a: &[AllocInfo], _c: &SimConfig) {}
        fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
            Ok(vec![Directive::Map {
                va: ctx.va,
                pa: PhysAddr::new(ctx.va.raw()), // identity => contiguous
                size: PageSize::Size64K,
                alloc: ctx.alloc,
            }])
        }
    }
    let w = Stub::new(128 * MB, 64, 64);
    let plain_cfg = small_cfg().scaled(8);
    let mut coal_cfg = small_cfg().scaled(8);
    coal_cfg.translation = TranslationConfig::with_clap_coalescing();
    let plain = run_outcome(&plain_cfg, &w, &mut Contig, None)
        .and_then(RunOutcome::completed)
        .expect("runs");
    let coal = run_outcome(&coal_cfg, &w, &mut Contig, None)
        .and_then(RunOutcome::completed)
        .expect("runs");
    assert!(coal.coalesced_fills > 0);
    assert!(
        (coal.l2tlb_misses as f64) < plain.l2tlb_misses as f64 * 0.75,
        "coalesced entries must extend reach: {} vs {}",
        coal.l2tlb_misses,
        plain.l2tlb_misses
    );
}

/// Policy that migrates every page once, to chiplet 0, at the first epoch.
struct MigrateAll {
    mapped: Vec<(VirtAddr, u64)>,
    migrated: bool,
    ideal: bool,
}
impl PagingPolicy for MigrateAll {
    fn name(&self) -> &str {
        "stub-migrate"
    }
    fn begin(&mut self, _a: &[AllocInfo], _c: &SimConfig) {}
    fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
        // Place everything on chiplet 1's blocks, scattered.
        let n = self.mapped.len() as u64;
        let pa = PhysAddr::new((1 + (n / 32) * 4) * VA_BLOCK_BYTES + (n % 32) * 65536);
        self.mapped.push((ctx.va, n));
        Ok(vec![Directive::Map {
            va: ctx.va,
            pa,
            size: PageSize::Size64K,
            alloc: ctx.alloc,
        }])
    }
    fn on_epoch(&mut self, _cycle: u64) -> Vec<Directive> {
        if self.migrated {
            return Vec::new();
        }
        self.migrated = true;
        self.mapped
            .iter()
            .map(|(va, n)| Directive::Migrate {
                va: *va,
                to_pa: PhysAddr::new((n / 32) * 4 * VA_BLOCK_BYTES + (n % 32) * 65536),
            })
            .collect()
    }
    fn ideal_migration(&self) -> bool {
        self.ideal
    }
}

#[test]
fn migration_moves_pages_and_charges_costs() {
    let w = Stub::new(8 * MB, 16, 256);
    let mut cfg = small_cfg();
    cfg.epoch_cycles = 2_000;
    let mut ideal = MigrateAll {
        mapped: Vec::new(),
        migrated: false,
        ideal: true,
    };
    let si = run_outcome(&cfg, &w, &mut ideal, None)
        .and_then(RunOutcome::completed)
        .expect("runs");
    assert!(si.migrations > 0);
    assert_eq!(si.shootdowns, 0, "ideal migration charges nothing");

    let mut real = MigrateAll {
        mapped: Vec::new(),
        migrated: false,
        ideal: false,
    };
    let sr = run_outcome(&cfg, &w, &mut real, None)
        .and_then(RunOutcome::completed)
        .expect("runs");
    assert_eq!(sr.migrations, si.migrations);
    assert!(sr.shootdowns > 0, "real migration pays shootdowns");
    assert!(sr.cycles >= si.cycles);
}

/// Remote cache that claims every lookup hits in SRAM.
struct AlwaysHit(u64);
impl RemoteCacheModel for AlwaysHit {
    fn name(&self) -> &str {
        "always-hit"
    }
    fn access(&mut self, _r: ChipletId, _pa: PhysAddr) -> Option<RemoteServe> {
        self.0 += 1;
        Some(RemoteServe::Sram)
    }
}

/// Maps everything onto chiplet 3 regardless of requester.
struct AllRemote(u64);
impl PagingPolicy for AllRemote {
    fn name(&self) -> &str {
        "stub-remote"
    }
    fn begin(&mut self, _a: &[AllocInfo], _c: &SimConfig) {}
    fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
        let n = self.0;
        self.0 += 1;
        let pa = PhysAddr::new((3 + (n / 32) * 4) * VA_BLOCK_BYTES + (n % 32) * 65536);
        Ok(vec![Directive::Map {
            va: ctx.va,
            pa,
            size: PageSize::Size64K,
            alloc: ctx.alloc,
        }])
    }
}

#[test]
fn remote_cache_intercepts_remote_misses() {
    let w = Stub::new(8 * MB, 16, 64);
    let cfg = small_cfg();
    let plain = run_outcome(&cfg, &w, &mut AllRemote(0), None)
        .and_then(RunOutcome::completed)
        .expect("runs");
    assert!(plain.remote_ratio() > 0.5);
    assert_eq!(plain.remote_cache_hits, 0);
    let mut cache = AlwaysHit(0);
    let cached = run_outcome(&cfg, &w, &mut AllRemote(0), Some(&mut cache))
        .and_then(RunOutcome::completed)
        .expect("runs");
    assert!(cached.remote_cache_hits > 0);
    // The meaningful invariant: intercepted misses never cross the
    // interconnect.
    assert!(
        cached.interconnect_transfers < plain.interconnect_transfers / 4,
        "hits must keep traffic off the interconnect: {} vs {}",
        cached.interconnect_transfers,
        plain.interconnect_transfers
    );
    // Timing is not strictly monotone under local path changes (scheduling
    // butterflies), but it must stay in the same neighbourhood.
    assert!(
        cached.cycles <= plain.cycles * 105 / 100,
        "an always-hit remote cache cannot meaningfully slow things down: {} vs {}",
        cached.cycles,
        plain.cycles
    );
}

#[test]
fn multi_kernel_runs_and_notifies() {
    struct TwoKernels(Stub);
    impl Workload for TwoKernels {
        fn name(&self) -> &str {
            "stub-2k"
        }
        fn allocs(&self) -> &[AllocInfo] {
            self.0.allocs()
        }
        fn num_kernels(&self) -> usize {
            2
        }
        fn kernel(&self, k: usize) -> KernelDesc {
            self.0.kernel(k)
        }
        fn warp_accesses(&self, k: usize, tb: TbId, warp: WarpId) -> Vec<VirtAddr> {
            self.0.warp_accesses(k, tb, warp)
        }
    }
    struct CountKernels(Ft64, usize);
    impl PagingPolicy for CountKernels {
        fn name(&self) -> &str {
            "count"
        }
        fn begin(&mut self, a: &[AllocInfo], c: &SimConfig) {
            self.0.begin(a, c)
        }
        fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
            self.0.on_fault(ctx)
        }
        fn on_kernel_end(&mut self, _k: usize, _cycle: u64) -> Vec<Directive> {
            self.1 += 1;
            Vec::new()
        }
    }
    let w = TwoKernels(Stub::new(8 * MB, 16, 32));
    let mut p = CountKernels(Ft64::new(), 0);
    let s = run_outcome(&small_cfg(), &w, &mut p, None)
        .and_then(RunOutcome::completed)
        .expect("runs");
    assert_eq!(p.1, 2, "one kernel-end callback per kernel");
    // Kernel 1 re-touches mapped pages: no second faults.
    assert_eq!(s.mem_insts, 2 * 16 * 2 * 32);
}

#[test]
fn policy_that_ignores_faults_is_rejected() {
    struct Lazy;
    impl PagingPolicy for Lazy {
        fn name(&self) -> &str {
            "lazy"
        }
        fn begin(&mut self, _a: &[AllocInfo], _c: &SimConfig) {}
        fn on_fault(&mut self, _ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
            Ok(Vec::new())
        }
    }
    let w = Stub::new(8 * MB, 16, 32);
    let err = run_outcome(&small_cfg(), &w, &mut Lazy, None)
        .and_then(RunOutcome::completed)
        .expect_err("must fail");
    assert!(err.to_string().contains("did not map"));
}

#[test]
fn double_mapping_is_rejected() {
    struct DoubleMap;
    impl PagingPolicy for DoubleMap {
        fn name(&self) -> &str {
            "double"
        }
        fn begin(&mut self, _a: &[AllocInfo], _c: &SimConfig) {}
        fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
            let m = Directive::Map {
                va: ctx.va,
                pa: PhysAddr::new(ctx.va.raw()),
                size: PageSize::Size64K,
                alloc: ctx.alloc,
            };
            Ok(vec![m, m])
        }
    }
    let w = Stub::new(8 * MB, 16, 32);
    // A duplicate Map is a degradation, not a fatal error: the run completes
    // and the rejection is recorded in the per-run stats.
    let s = run_outcome(&small_cfg(), &w, &mut DoubleMap, None)
        .and_then(RunOutcome::completed)
        .expect("runs degraded");
    assert!(s.degradation.rejected_directives >= 1);
    assert!(s
        .degradation
        .errors
        .iter()
        .any(|e| e.to_string().contains("overlaps")));
}

#[test]
fn cycle_budget_aborts_with_partial_stats() {
    let w = Stub::new(16 * MB, 64, 32);
    // Establish how long the run actually takes, then cap well below it.
    let full = run_outcome(&small_cfg(), &w, &mut Ft64::new(), None)
        .and_then(RunOutcome::completed)
        .expect("runs");
    let cap = full.cycles / 2;
    assert!(cap > 0);
    let mut cfg = small_cfg();
    cfg.max_cycles = Some(cap);
    let out = run_outcome(&cfg, &w, &mut Ft64::new(), None).expect("aborts via outcome");
    assert!(out.is_aborted());
    match &out {
        RunOutcome::Aborted { reason, stats } => {
            assert!(
                matches!(reason, SimError::BudgetExceeded { max_cycles, .. } if *max_cycles == cap),
                "unexpected abort reason: {reason}"
            );
            // Partial statistics are flushed: some work happened, and the
            // clock stopped just past the budget.
            assert!(stats.mem_insts > 0 && stats.mem_insts < full.mem_insts);
            assert!(stats.cycles > cap);
        }
        other => panic!("expected Aborted, got {other:?}"),
    }
    // A budget below the first retirement still aborts (with empty stats).
    let mut tight = small_cfg();
    tight.max_cycles = Some(1);
    let out = run_outcome(&tight, &w, &mut Ft64::new(), None).expect("aborts via outcome");
    assert!(out.is_aborted());
    // `completed` surfaces the abort as an error.
    let err = run_outcome(&cfg, &w, &mut Ft64::new(), None)
        .and_then(RunOutcome::completed)
        .expect_err("completed() errors on abort");
    assert!(matches!(err, SimError::BudgetExceeded { .. }));
    // A generous budget changes nothing.
    let mut roomy = small_cfg();
    roomy.max_cycles = Some(full.cycles * 2);
    let s = run_outcome(&roomy, &w, &mut Ft64::new(), None)
        .and_then(RunOutcome::completed)
        .expect("runs");
    assert_eq!(s.cycles, full.cycles);
}

#[test]
fn stonewall_livelock_trips_the_stall_watchdog() {
    let w = Stub::new(8 * MB, 16, 32);
    let mut cfg = small_cfg();
    // Epochs shorter than the fault round trip: Stonewall unmaps each
    // resolved page before its warp resumes, so no access ever retires.
    cfg.epoch_cycles = 1_000;
    assert!(cfg.fault_latency > cfg.epoch_cycles);
    cfg.stall_window = Some(50_000);
    let mut p = Stonewall::new(Ft64::new());
    let out = run_outcome(&cfg, &w, &mut p, None).expect("aborts via outcome");
    match out {
        RunOutcome::Aborted { reason, stats } => {
            assert!(
                matches!(reason, SimError::Livelock { window: 50_000, .. }),
                "unexpected abort reason: {reason}"
            );
            assert_eq!(stats.mem_insts, 0, "livelock means nothing retired");
            assert!(stats.faults > 0, "the run kept faulting");
        }
        other => panic!("expected Aborted, got {other:?}"),
    }
    // Determinism: the watchdog fires at the same cycle every time.
    let a = run_outcome(&cfg, &w, &mut Stonewall::new(Ft64::new()), None).expect("aborts");
    let b = run_outcome(&cfg, &w, &mut Stonewall::new(Ft64::new()), None).expect("aborts");
    assert_eq!(a.stats().cycles, b.stats().cycles);
    // A healthy run under the same watchdog is untouched.
    let mut healthy = small_cfg();
    healthy.stall_window = Some(u64::MAX / 2);
    let s = run_outcome(&healthy, &w, &mut Ft64::new(), None)
        .and_then(RunOutcome::completed)
        .expect("runs");
    assert!(s.mem_insts > 0);
}

#[test]
fn walk_events_reach_the_policy() {
    struct CountWalks(Ft64, u64);
    impl PagingPolicy for CountWalks {
        fn name(&self) -> &str {
            "walks"
        }
        fn begin(&mut self, a: &[AllocInfo], c: &SimConfig) {
            self.0.begin(a, c)
        }
        fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
            self.0.on_fault(ctx)
        }
        fn on_walk(&mut self, ev: &WalkEvent) {
            assert!(!ev.is_remote(), "first-touch placement is local");
            self.1 += 1;
        }
    }
    let w = Stub::new(16 * MB, 64, 64);
    let mut p = CountWalks(Ft64::new(), 0);
    let s = run_outcome(&small_cfg(), &w, &mut p, None)
        .and_then(RunOutcome::completed)
        .expect("runs");
    assert_eq!(p.1, s.walks + s.walk_mshr_hits);
}
