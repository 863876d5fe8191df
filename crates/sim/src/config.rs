//! Simulator configuration (paper Table 1).

use mcm_types::{PageSize, PhysLayout};

use crate::SimError;

/// Placement policy for page-table-entry pages across chiplets (paper §2.4,
/// §3.2 and the MGvm baseline \[87\]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PtePlacement {
    /// PTE pages distributed (hashed) across chiplets.
    Distributed,
    /// Leaf PTE pages live with the data they map (the baseline; prior
    /// work \[87\] distributes PTE pages to sit near their data so locally
    /// mapped data also walks locally).
    DataLocal,
    /// Every page-walk access is served by the requester's chiplet — models
    /// MGvm-style local PTE/TLB-entry placement.
    RequesterLocal,
}

/// Translation-hardware features active for a run (which TLB classes exist
/// and which coalescing logic the TLB controller has).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TranslationConfig {
    /// Page sizes with dedicated TLBs. The baseline has 4KB/64KB/2MB; the
    /// §3.3 study adds hypothetical intermediate sizes.
    pub tlb_classes: Vec<PageSize>,
    /// CLAP's TLB-coalescing logic on the 64KB TLBs (§4.6): merges up to 16
    /// virtually and physically contiguous 64KB PTEs into one entry.
    pub coalescing_64k: bool,
    /// Barre-Chord-style pattern coalescing: merges 64KB PTEs whose frames
    /// follow any uniform stride (interleaved placement patterns) \[32\].
    pub barre_pattern: bool,
    /// The paper's `Ideal` configuration: 64KB data placement whose
    /// translations magically behave like 2MB pages (§5, config 9).
    pub ideal_2m_reach: bool,
}

impl TranslationConfig {
    /// Baseline hardware: native TLB classes only, no coalescing.
    pub fn baseline() -> Self {
        TranslationConfig {
            tlb_classes: PageSize::NATIVE.to_vec(),
            coalescing_64k: false,
            barre_pattern: false,
            ideal_2m_reach: false,
        }
    }

    /// Baseline plus CLAP's 64KB-TLB coalescing logic.
    pub fn with_clap_coalescing() -> Self {
        TranslationConfig {
            coalescing_64k: true,
            ..Self::baseline()
        }
    }

    /// Hardware with a dedicated TLB class for a hypothetical native page
    /// size (the §3.3 sweep adds 16-entry L1 / 512-entry L2 TLBs per size).
    pub fn with_native_size(size: PageSize) -> Self {
        let mut t = Self::baseline();
        if !t.tlb_classes.contains(&size) {
            t.tlb_classes.push(size);
            t.tlb_classes.sort();
        }
        t
    }
}

/// Interconnect shape joining the chiplets (see
/// [`Topology`](crate::interconnect::Topology)). All shapes share the
/// [`hop_latency`](SimConfig::hop_latency) and
/// [`link_service`](SimConfig::link_service) link parameters; the shape
/// decides routes and which transfers contend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// Bidirectional ring, shortest-direction routing (the paper's
    /// Table 1 machine).
    Ring,
    /// `rows × cols` 2D mesh with dimension-ordered (XY) routing and no
    /// wraparound; `rows * cols` must equal
    /// [`num_chiplets`](SimConfig::num_chiplets).
    Mesh2d {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// A dedicated link per ordered chiplet pair; every transfer is one
    /// hop.
    FullyConnected,
}

impl TopologyKind {
    /// Short name used in tables, CSV labels and traces.
    pub fn name(&self) -> &'static str {
        match self {
            TopologyKind::Ring => "ring",
            TopologyKind::Mesh2d { .. } => "mesh2d",
            TopologyKind::FullyConnected => "fully-connected",
        }
    }

    /// A near-square `rows × cols` mesh over `n` chiplets (rows ≤ cols),
    /// e.g. 4 → 2×2, 8 → 2×4, 16 → 4×4. `n` must be a power of two, as
    /// [`SimConfig::validate`] already requires.
    pub fn square_mesh(n: usize) -> Self {
        let mut rows = 1;
        while rows * rows * 4 <= n {
            rows *= 2;
        }
        TopologyKind::Mesh2d {
            rows,
            cols: n / rows.max(1),
        }
    }
}

/// Per-page-size TLB entry counts (paper Table 1; hypothetical sizes get 16
/// L1 / 512 L2 entries, §3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbEntries {
    /// L1 (per-SM) entries.
    pub l1: usize,
    /// L2 (per-chiplet) entries.
    pub l2: usize,
}

/// Full simulator configuration. Defaults reproduce Table 1.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of GPU chiplets (4 baseline, 8 for the scaling study).
    pub num_chiplets: usize,
    /// SMs per chiplet (64).
    pub sms_per_chiplet: usize,
    /// Maximum resident warps per SM (64).
    pub max_warps_per_sm: usize,
    /// Independent memory instructions a warp keeps in flight before
    /// blocking (load pipelining / MLP).
    pub warp_mlp: usize,

    /// L1 data cache: bytes per SM.
    pub l1d_bytes: usize,
    /// L1 data cache hit latency in cycles (20).
    pub l1d_latency: u64,
    /// L1 data cache associativity.
    pub l1d_ways: usize,
    /// L2 data cache: bytes per chiplet (4MB).
    pub l2d_bytes: usize,
    /// L2 data cache hit latency in cycles (160).
    pub l2d_latency: u64,
    /// L2 data cache associativity.
    pub l2d_ways: usize,
    /// Cache line size in bytes (128).
    pub line_bytes: u64,

    /// L1 TLB hit latency (10 cycles, fully associative).
    pub l1_tlb_latency: u64,
    /// L2 TLB hit latency (80 cycles, 8-way).
    pub l2_tlb_latency: u64,
    /// L2 TLB associativity.
    pub l2_tlb_ways: usize,

    /// Page walkers per chiplet (16).
    pub page_walkers: usize,
    /// Walker occupancy charged per walk (cycles); approximates how long a
    /// walk holds one of the GMMU's walker slots.
    pub walker_service: u64,
    /// Page-walk queue entries per chiplet (256).
    pub walk_queue: usize,
    /// Page-walk cache entries per chiplet (128).
    pub pwc_entries: usize,
    /// Page-walk-cache hit latency per level.
    pub pwc_latency: u64,
    /// DRAM access latency for one page-table level (cycles, on top of
    /// channel occupancy).
    pub pte_mem_latency: u64,
    /// PTE-page placement across chiplets.
    pub pte_placement: PtePlacement,

    /// Memory channels per chiplet (16).
    pub dram_channels: usize,
    /// DRAM access latency (cycles) after queueing.
    pub dram_latency: u64,
    /// Channel occupancy per 128B access (cycles) — sets per-channel
    /// bandwidth.
    pub dram_service: u64,

    /// Interconnect shape joining the chiplets (ring is the Table 1
    /// machine; mesh and fully-connected support the scale-out studies).
    pub topology: TopologyKind,
    /// One-way hop latency in cycles on every interconnect link (32ns at
    /// 1132MHz ≈ 36).
    pub hop_latency: u64,
    /// Interconnect link occupancy per 128B transfer (cycles) — sets
    /// per-link bandwidth (768GB/s per GPU over the baseline ring).
    pub link_service: u64,

    /// Far-fault service latency (cycles): host driver resolves the fault
    /// and migrates one 64KB page over PCIe/NVLink. Identical across paging
    /// configurations because demand granularity is fixed at 64KB (Fig. 5).
    pub fault_latency: u64,
    /// Cost of a TLB shootdown charged to non-ideal migrating policies.
    pub tlb_shootdown_latency: u64,
    /// Cost of migrating one 64KB page between chiplets (non-ideal
    /// policies; \[45\]).
    pub migration_latency: u64,

    /// Translation features for this run.
    pub translation: TranslationConfig,
    /// Cycles between `on_epoch` policy callbacks (reactive policies).
    pub epoch_cycles: u64,
    /// PF blocks (2MB) of physical memory per chiplet.
    pub pf_blocks_per_chiplet: u64,
    /// Joint footprint/resource scale factor. Workload footprints in this
    /// reproduction are `1/scale` of the paper's inputs, so cache and TLB
    /// capacities shrink by the same factor to preserve pressure ratios
    /// (see DESIGN.md §6). `1` = unscaled Table 1 capacities.
    pub resource_scale: u64,
    /// Run the state auditor (page-table / TLB / capacity coherence
    /// checks) at every epoch boundary; violations are counted in
    /// [`DegradationStats::audit_violations`](crate::DegradationStats).
    /// Off by default — it is a debugging/chaos-harness aid.
    pub audit_epochs: bool,
    /// Run budget: abort with [`SimError::BudgetExceeded`] once the
    /// simulated clock passes this cycle. `None` (the default) runs
    /// unbounded.
    pub max_cycles: Option<u64>,
    /// Livelock watchdog: abort with [`SimError::Livelock`] when no memory
    /// access retires for this many simulated cycles (and, as a backstop,
    /// when that many warp wake-ups in a row retire nothing). `None` (the
    /// default) disables the watchdog.
    pub stall_window: Option<u64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_chiplets: 4,
            sms_per_chiplet: 64,
            max_warps_per_sm: 64,
            warp_mlp: 4,

            l1d_bytes: 128 * 1024,
            l1d_latency: 20,
            l1d_ways: 8,
            l2d_bytes: 4 * 1024 * 1024,
            l2d_latency: 160,
            l2d_ways: 16,
            line_bytes: 128,

            l1_tlb_latency: 10,
            l2_tlb_latency: 80,
            l2_tlb_ways: 8,

            page_walkers: 16,
            walker_service: 120,
            walk_queue: 256,
            pwc_entries: 128,
            pwc_latency: 5,
            pte_mem_latency: 100,
            pte_placement: PtePlacement::DataLocal,

            dram_channels: 16,
            dram_latency: 100,
            dram_service: 5,

            topology: TopologyKind::Ring,
            hop_latency: 36,
            link_service: 1,

            fault_latency: 3_000,
            tlb_shootdown_latency: 400,
            migration_latency: 1_000,

            translation: TranslationConfig::baseline(),
            epoch_cycles: 50_000,
            pf_blocks_per_chiplet: 4096,
            resource_scale: 1,
            audit_epochs: false,
            max_cycles: None,
            stall_window: None,
        }
    }
}

impl SimConfig {
    /// A Table 1 baseline configuration.
    pub fn baseline() -> Self {
        Self::default()
    }

    /// The 8-chiplet configuration of the scaling study (Fig. 22): twice
    /// the chiplets with the same per-chiplet resources.
    pub fn eight_chiplets() -> Self {
        SimConfig {
            num_chiplets: 8,
            ..Self::default()
        }
    }

    /// Total SMs in the package.
    pub fn total_sms(&self) -> usize {
        self.num_chiplets * self.sms_per_chiplet
    }

    /// The physical-address layout implied by the chiplet count.
    pub fn layout(&self) -> PhysLayout {
        PhysLayout::new(self.num_chiplets)
    }

    /// Scales this configuration's capacity-like resources (caches, TLBs,
    /// PWC) down by `factor`, matching workload footprints scaled by the
    /// same factor (DESIGN.md §6).
    pub fn scaled(mut self, factor: u64) -> Self {
        // A zero factor is nonsense; clamp here and let `validate` report
        // it for configurations built by hand.
        self.resource_scale = factor.max(1);
        self
    }

    /// Checks every structural invariant the engine relies on. Called by
    /// [`run_with`](crate::run_with) before anything is built, so a bad
    /// configuration fails with a typed
    /// [`SimError::ConfigInvalid`] instead of a panic (or a silent
    /// division by zero) mid-run.
    pub fn validate(&self) -> Result<(), SimError> {
        fn fail(reason: String) -> Result<(), SimError> {
            Err(SimError::ConfigInvalid { reason })
        }
        if self.num_chiplets < 2 || !self.num_chiplets.is_power_of_two() {
            return fail(format!(
                "num_chiplets must be a power of two and at least 2 \
                 (every topology needs two chiplets to join), got {}",
                self.num_chiplets
            ));
        }
        if let TopologyKind::Mesh2d { rows, cols } = self.topology {
            if rows == 0 || cols == 0 {
                return fail(format!(
                    "mesh2d topology needs non-zero grid dimensions, got {rows}x{cols}"
                ));
            }
            if rows * cols != self.num_chiplets {
                return fail(format!(
                    "mesh2d topology grid {rows}x{cols} covers {} chiplets \
                     but num_chiplets is {}",
                    rows * cols,
                    self.num_chiplets
                ));
            }
        }
        if self.sms_per_chiplet == 0 {
            return fail("sms_per_chiplet must be non-zero".into());
        }
        if self.max_warps_per_sm == 0 {
            return fail("max_warps_per_sm must be non-zero".into());
        }
        if self.warp_mlp == 0 {
            return fail("warp_mlp must be non-zero".into());
        }
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return fail(format!(
                "line_bytes must be a non-zero power of two, got {}",
                self.line_bytes
            ));
        }
        if self.page_walkers == 0 {
            return fail("page_walkers must be non-zero".into());
        }
        if self.walk_queue == 0 {
            return fail("walk_queue must be non-zero".into());
        }
        if self.dram_channels == 0 || !self.dram_channels.is_power_of_two() {
            return fail(format!(
                "dram_channels must be a non-zero power of two, got {}",
                self.dram_channels
            ));
        }
        if self.resource_scale == 0 {
            return fail("resource_scale must be at least 1".into());
        }
        if self.epoch_cycles == 0 {
            return fail("epoch_cycles must be non-zero".into());
        }
        if self.pf_blocks_per_chiplet == 0 {
            return fail("pf_blocks_per_chiplet must be non-zero".into());
        }
        if self.max_cycles == Some(0) {
            return fail("max_cycles must be non-zero when set".into());
        }
        if self.stall_window == Some(0) {
            return fail("stall_window must be non-zero when set".into());
        }
        if let (Some(mc), Some(sw)) = (self.max_cycles, self.stall_window) {
            if sw > mc {
                return fail(format!(
                    "stall_window ({sw}) larger than max_cycles ({mc}): the \
                     livelock watchdog could never fire before the run budget"
                ));
            }
        }
        if self.translation.tlb_classes.is_empty() {
            return fail("translation.tlb_classes must name at least one page size".into());
        }
        let classes = &self.translation.tlb_classes;
        for (i, s) in classes.iter().enumerate() {
            if classes[..i].contains(s) {
                return fail(format!("translation.tlb_classes lists {s} twice"));
            }
        }
        // Every page size must have a usable TLB entry table, so a policy
        // mapping any leaf size gets coverage rather than a zero-entry TLB.
        for size in PageSize::ALL {
            let e = self.tlb_entries(size);
            if e.l1 == 0 || e.l2 == 0 {
                return fail(format!("TLB entry table for {size} is empty ({e:?})"));
            }
        }
        Ok(())
    }

    /// TLB entry counts for one page-size class (Table 1 for native sizes,
    /// 16/512 for hypothetical intermediate sizes per §3.3), divided by
    /// [`resource_scale`](Self::resource_scale).
    pub fn tlb_entries(&self, size: PageSize) -> TlbEntries {
        let base = match size {
            PageSize::Size4K => TlbEntries { l1: 32, l2: 1024 },
            PageSize::Size64K => TlbEntries { l1: 16, l2: 512 },
            PageSize::Size2M => TlbEntries { l1: 8, l2: 256 },
            _ => TlbEntries { l1: 16, l2: 512 },
        };
        // L1 TLBs are NOT scaled: per-SM working sets are set by per-TB
        // tile/slice sizes, which the footprint scaling does not shrink.
        TlbEntries {
            l1: base.l1,
            l2: (base.l2 / self.resource_scale as usize).max(8),
        }
    }

    /// L1 data-cache capacity after resource scaling.
    pub fn effective_l1d_bytes(&self) -> usize {
        (self.l1d_bytes / self.resource_scale as usize).max(8 * 1024)
    }

    /// L2 data-cache capacity after resource scaling.
    pub fn effective_l2d_bytes(&self) -> usize {
        (self.l2d_bytes / self.resource_scale as usize).max(64 * 1024)
    }

    /// Page-walk-cache entries after resource scaling.
    pub fn effective_pwc_entries(&self) -> usize {
        (self.pwc_entries / self.resource_scale as usize).max(16)
    }

    /// Page-walk memory levels for a leaf of `size` (2MB leaves terminate
    /// one level early in the 4-level table).
    pub fn walk_levels(&self, size: PageSize) -> u32 {
        match size {
            PageSize::Size2M => 3,
            _ => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let c = SimConfig::baseline();
        assert_eq!(c.num_chiplets, 4);
        assert_eq!(c.total_sms(), 256);
        assert_eq!(c.tlb_entries(PageSize::Size4K).l1, 32);
        assert_eq!(c.tlb_entries(PageSize::Size64K).l2, 512);
        assert_eq!(c.tlb_entries(PageSize::Size2M).l2, 256);
        assert_eq!(c.tlb_entries(PageSize::Size256K).l1, 16);
        assert_eq!(c.page_walkers, 16);
        assert_eq!(c.pwc_entries, 128);
        assert_eq!(c.walk_queue, 256);
        assert_eq!(c.dram_channels, 16);
    }

    #[test]
    fn walk_levels_shorten_for_2m() {
        let c = SimConfig::baseline();
        assert_eq!(c.walk_levels(PageSize::Size4K), 4);
        assert_eq!(c.walk_levels(PageSize::Size64K), 4);
        assert_eq!(c.walk_levels(PageSize::Size512K), 4);
        assert_eq!(c.walk_levels(PageSize::Size2M), 3);
    }

    #[test]
    fn eight_chiplet_config_scales() {
        let c = SimConfig::eight_chiplets();
        assert_eq!(c.total_sms(), 512);
        assert_eq!(c.layout().num_chiplets(), 8);
    }

    #[test]
    fn scaling_divides_capacities_with_floors() {
        let c = SimConfig::baseline().scaled(8);
        assert_eq!(c.tlb_entries(PageSize::Size64K).l2, 64);
        assert_eq!(c.tlb_entries(PageSize::Size2M).l2, 32);
        // L1 TLBs are deliberately unscaled (per-SM working sets do not
        // shrink with footprint scaling).
        assert_eq!(c.tlb_entries(PageSize::Size64K).l1, 16);
        assert_eq!(c.tlb_entries(PageSize::Size2M).l1, 8);
        assert_eq!(c.effective_l1d_bytes(), 16 * 1024);
        assert_eq!(c.effective_l2d_bytes(), 512 * 1024);
        assert_eq!(c.effective_pwc_entries(), 16);
        // Extreme scale clamps to floors.
        let t = SimConfig::baseline().scaled(1024);
        assert_eq!(t.tlb_entries(PageSize::Size4K).l2, 8);
        assert_eq!(t.effective_l1d_bytes(), 8 * 1024);
    }

    #[test]
    fn baseline_validates() {
        SimConfig::baseline().validate().expect("Table 1 is valid");
        SimConfig::eight_chiplets()
            .scaled(8)
            .validate()
            .expect("scaling study config is valid");
    }

    fn rejects(mutate: impl FnOnce(&mut SimConfig), needle: &str) {
        let mut c = SimConfig::baseline();
        mutate(&mut c);
        match c.validate() {
            Err(SimError::ConfigInvalid { reason }) => assert!(
                reason.contains(needle),
                "expected reason mentioning {needle:?}, got {reason:?}"
            ),
            other => panic!("expected ConfigInvalid for {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_each_bad_field() {
        rejects(|c| c.num_chiplets = 0, "num_chiplets");
        rejects(|c| c.num_chiplets = 1, "num_chiplets");
        rejects(|c| c.num_chiplets = 3, "num_chiplets");
        rejects(|c| c.sms_per_chiplet = 0, "sms_per_chiplet");
        rejects(|c| c.max_warps_per_sm = 0, "max_warps_per_sm");
        rejects(|c| c.warp_mlp = 0, "warp_mlp");
        rejects(|c| c.line_bytes = 96, "line_bytes");
        rejects(|c| c.page_walkers = 0, "page_walkers");
        rejects(|c| c.walk_queue = 0, "walk_queue");
        rejects(|c| c.dram_channels = 12, "dram_channels");
        rejects(|c| c.resource_scale = 0, "resource_scale");
        rejects(|c| c.epoch_cycles = 0, "epoch_cycles");
        rejects(|c| c.pf_blocks_per_chiplet = 0, "pf_blocks_per_chiplet");
        rejects(|c| c.max_cycles = Some(0), "max_cycles");
        rejects(|c| c.stall_window = Some(0), "stall_window");
        rejects(
            |c| {
                c.max_cycles = Some(100);
                c.stall_window = Some(200);
            },
            "stall_window",
        );
        rejects(|c| c.translation.tlb_classes.clear(), "tlb_classes");
        rejects(
            |c| c.translation.tlb_classes.push(PageSize::Size64K),
            "twice",
        );
    }

    #[test]
    fn validate_checks_topology_shape() {
        rejects(
            |c| c.topology = TopologyKind::Mesh2d { rows: 0, cols: 4 },
            "non-zero grid",
        );
        rejects(
            |c| c.topology = TopologyKind::Mesh2d { rows: 3, cols: 3 },
            "num_chiplets",
        );
        let mut c = SimConfig::baseline();
        c.topology = TopologyKind::Mesh2d { rows: 2, cols: 2 };
        c.validate().expect("a 2x2 mesh covers 4 chiplets");
        c.topology = TopologyKind::FullyConnected;
        c.validate()
            .expect("fully-connected has no shape precondition");
        c.num_chiplets = 16;
        c.topology = TopologyKind::square_mesh(16);
        c.validate().expect("square_mesh matches its chiplet count");
    }

    #[test]
    fn square_mesh_picks_near_square_grids() {
        assert_eq!(
            TopologyKind::square_mesh(4),
            TopologyKind::Mesh2d { rows: 2, cols: 2 }
        );
        assert_eq!(
            TopologyKind::square_mesh(8),
            TopologyKind::Mesh2d { rows: 2, cols: 4 }
        );
        assert_eq!(
            TopologyKind::square_mesh(16),
            TopologyKind::Mesh2d { rows: 4, cols: 4 }
        );
        assert_eq!(TopologyKind::square_mesh(4).name(), "mesh2d");
        assert_eq!(TopologyKind::Ring.name(), "ring");
        assert_eq!(TopologyKind::FullyConnected.name(), "fully-connected");
    }

    #[test]
    fn budget_fields_validate_when_positive() {
        let mut c = SimConfig::baseline();
        c.max_cycles = Some(1_000);
        c.stall_window = Some(500);
        c.validate().expect("positive budgets are valid");
    }

    #[test]
    fn scaled_clamps_zero_factor() {
        let c = SimConfig::baseline().scaled(0);
        assert_eq!(c.resource_scale, 1);
    }

    #[test]
    fn translation_presets() {
        let b = TranslationConfig::baseline();
        assert_eq!(b.tlb_classes.len(), 3);
        assert!(!b.coalescing_64k);
        let c = TranslationConfig::with_clap_coalescing();
        assert!(c.coalescing_64k);
        let h = TranslationConfig::with_native_size(PageSize::Size256K);
        assert!(h.tlb_classes.contains(&PageSize::Size256K));
        assert_eq!(h.tlb_classes.len(), 4);
        // idempotent for native sizes
        let n = TranslationConfig::with_native_size(PageSize::Size2M);
        assert_eq!(n.tlb_classes.len(), 3);
    }
}
