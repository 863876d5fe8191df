//! Run statistics: everything the paper's figures and tables plot.
//!
//! Every event the engine can attribute to a chiplet is counted exactly
//! once, in the per-chiplet [`Counters`] registry. The counter table below
//! declares each such counter once and generates the [`Counter`] ids, the
//! matching [`RunStats`] fields, and the accessors the fold
//! ([`RunStats::fold`]) and the journal's stats codec iterate over — so
//! per-chiplet rows sum to the run-level totals by construction.

use std::collections::HashMap;

use mcm_types::{AllocId, ChipletId};

use crate::SimError;

/// Per-data-structure access statistics (Fig. 8 plots these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocAccessStats {
    /// Memory instructions touching the structure.
    pub accesses: u64,
    /// Of those, accesses whose page is mapped on a remote chiplet.
    pub remote: u64,
}

impl AllocAccessStats {
    /// Remote fraction of the structure's accesses.
    pub fn remote_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.remote as f64 / self.accesses as f64
        }
    }
}

/// Generates [`Counter`] and [`RunStats`] from one `(Variant, field, doc)`
/// list; the run-level fields that are not per-chiplet events are written
/// out once inside.
macro_rules! counter_table {
    ($( ($var:ident, $field:ident, $doc:literal), )*) => {
        /// One per-chiplet-attributable event counter: a column of the
        /// [`Counters`] registry and a `u64` field of [`RunStats`] of the
        /// same name.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Counter {
            $( #[doc = $doc] $var, )*
        }

        impl Counter {
            /// Number of counters (width of a registry row).
            pub const COUNT: usize = [$(stringify!($var)),*].len();

            /// Every counter, in table order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$var),*];

            /// The [`RunStats`] field name (JSON keys, CSV columns).
            pub fn name(self) -> &'static str {
                match self {
                    $( Counter::$var => stringify!($field), )*
                }
            }
        }

        /// Statistics of one simulation run.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct RunStats {
            /// Total simulated cycles (kernel launch to last warp retirement).
            pub cycles: u64,
            $( #[doc = $doc] pub $field: u64, )*
            /// DRAM line accesses per chiplet: the registry's
            /// `dram_accesses` row (load-balance diagnostics).
            pub dram_per_chiplet: Vec<u64>,
            /// Total inter-chiplet interconnect transfers routed (any topology).
            pub interconnect_transfers: u64,
            /// Total cycles spent queueing for DRAM channels.
            pub dram_queue_cycles: u64,
            /// Total cycles spent queueing for interconnect links.
            pub interconnect_queue_cycles: u64,

            /// PF blocks consumed by the policy's allocator (fragmentation study),
            /// if reported.
            pub blocks_consumed: Option<usize>,

            /// Per-data-structure counters.
            pub per_alloc: HashMap<AllocId, AllocAccessStats>,

            /// Graceful-degradation events the run absorbed instead of aborting.
            pub degradation: DegradationStats,
        }

        impl RunStats {
            /// The run-level total of counter `c`.
            pub fn counter(&self, c: Counter) -> u64 {
                match c {
                    $( Counter::$var => self.$field, )*
                }
            }

            /// The field holding counter `c`'s run-level total.
            pub fn counter_mut(&mut self, c: Counter) -> &mut u64 {
                match c {
                    $( Counter::$var => &mut self.$field, )*
                }
            }
        }
    };
}

counter_table! {
    (MemInsts, mem_insts, "Memory instructions executed (warp-level, line-granular)."),
    (WarpInsts, warp_insts, "Total warp instructions (memory × arithmetic intensity)."),
    (RemoteInsts, remote_insts, "Memory instructions whose data page is mapped on a remote chiplet."),
    (L1dHits, l1d_hits, "L1 data cache hits."),
    (L1dMisses, l1d_misses, "L1 data cache misses."),
    (L2dHits, l2d_hits, "L2 data cache hits."),
    (L2dMisses, l2d_misses, "L2 data cache misses."),
    (L1tlbHits, l1tlb_hits, "L1 TLB hits."),
    (L1tlbMisses, l1tlb_misses, "L1 TLB misses."),
    (L2tlbHits, l2tlb_hits, "L2 TLB hits."),
    (L2tlbMisses, l2tlb_misses, "L2 TLB misses (page walks issued)."),
    (Walks, walks, "Page walks completed."),
    (WalkMshrHits, walk_mshr_hits, "Walk requests absorbed by an in-flight walk for the same page (GMMU MSHR coalescing)."),
    (WalkCycles, walk_cycles, "Cycles spent in completed page walks (including queueing)."),
    (TranslationCycles, translation_cycles, "Total address-translation latency over all memory instructions."),
    (DataCycles, data_cycles, "Total data-access latency (post-translation) over all memory instructions."),
    (Faults, faults, "Demand page faults taken."),
    (CoalescedFills, coalesced_fills, "TLB fills that produced a multi-page coalesced entry."),
    (Promotions, promotions, "2MB promotions performed (on the chiplet holding the promoted block)."),
    (RemoteCacheHits, remote_cache_hits, "Remote-cache hits (NUBA/SAC runs)."),
    (Migrations, migrations, "Pages migrated by the policy (off the source chiplet)."),
    (Shootdowns, shootdowns, "TLB shootdowns charged (to the chiplet owning the page)."),
    (DramAccesses, dram_accesses, "DRAM line accesses issued, data + PTE (on the serving chiplet)."),
}

/// The per-chiplet counter registry: one fixed-width row of
/// [`Counter::COUNT`] cells per chiplet, indexed by [`Counter`] — no
/// hashing and no branch on the hot path. Every build keeps it; events
/// are attributed to the chiplet whose SMs, TLBs, walkers or DRAM
/// channels saw them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    rows: Vec<[u64; Counter::COUNT]>,
}

impl Counters {
    /// An all-zero registry for `num_chiplets` chiplets.
    pub fn new(num_chiplets: usize) -> Self {
        Counters {
            rows: vec![[0; Counter::COUNT]; num_chiplets],
        }
    }

    /// Chiplets in the registry.
    pub fn num_chiplets(&self) -> usize {
        self.rows.len()
    }

    /// Counts `n` events of `c` on `chiplet`.
    #[inline(always)]
    pub fn add(&mut self, chiplet: ChipletId, c: Counter, n: u64) {
        self.rows[chiplet.index()][c as usize] += n;
    }

    /// Counts one event of `c` on `chiplet`.
    #[inline(always)]
    pub fn bump(&mut self, chiplet: ChipletId, c: Counter) {
        self.add(chiplet, c, 1);
    }

    /// The count of `c` on chiplet `chiplet`.
    pub fn get(&self, chiplet: usize, c: Counter) -> u64 {
        self.rows[chiplet][c as usize]
    }

    /// The count of `c` summed over every chiplet.
    pub fn total(&self, c: Counter) -> u64 {
        self.rows.iter().map(|r| r[c as usize]).sum()
    }

    /// The per-chiplet counts of `c`, in chiplet order.
    pub fn row(&self, c: Counter) -> Vec<u64> {
        self.rows.iter().map(|r| r[c as usize]).collect()
    }

    /// Cell-wise `self − earlier`: the events counted since `earlier`, a
    /// snapshot of this registry taken before.
    pub(crate) fn since(&self, earlier: &Counters) -> Counters {
        let mut out = self.clone();
        for (row, prev) in out.rows.iter_mut().zip(&earlier.rows) {
            for (v, p) in row.iter_mut().zip(prev) {
                *v -= p;
            }
        }
        out
    }

    /// Cell-wise `self += other`. An empty registry adopts `other`'s shape.
    pub fn absorb(&mut self, other: &Counters) {
        if self.rows.is_empty() {
            self.rows = vec![[0; Counter::COUNT]; other.rows.len()];
        }
        debug_assert_eq!(self.rows.len(), other.rows.len());
        for (row, o) in self.rows.iter_mut().zip(&other.rows) {
            for (v, x) in row.iter_mut().zip(o) {
                *v += x;
            }
        }
    }
}

impl RunStats {
    /// Folds the registry into the run-level totals: every [`Counter`]
    /// field becomes the sum of its per-chiplet row, and
    /// [`Self::dram_per_chiplet`] the `dram_accesses` row itself.
    pub(crate) fn fold(&mut self, counters: &Counters) {
        for c in Counter::ALL {
            *self.counter_mut(c) = counters.total(c);
        }
        self.dram_per_chiplet = counters.row(Counter::DramAccesses);
    }

    /// Remote access ratio of memory instructions — the line plotted in
    /// Figs. 1, 2, 6, 8, 18, 19, 22.
    pub fn remote_ratio(&self) -> f64 {
        if self.mem_insts == 0 {
            0.0
        } else {
            self.remote_insts as f64 / self.mem_insts as f64
        }
    }

    /// L2 data-cache misses per kilo warp instruction (Table 2).
    pub fn l2_mpki(&self) -> f64 {
        if self.warp_insts == 0 {
            0.0
        } else {
            self.l2d_misses as f64 * 1000.0 / self.warp_insts as f64
        }
    }

    /// L2 TLB misses per kilo warp instruction (Table 2).
    pub fn l2tlb_mpki(&self) -> f64 {
        if self.warp_insts == 0 {
            0.0
        } else {
            self.l2tlb_misses as f64 * 1000.0 / self.warp_insts as f64
        }
    }

    /// Mean address-translation latency per memory instruction (the §1
    /// "average address translation latency" metric).
    pub fn avg_translation_latency(&self) -> f64 {
        if self.mem_insts == 0 {
            0.0
        } else {
            self.translation_cycles as f64 / self.mem_insts as f64
        }
    }

    /// Throughput proxy: warp instructions per cycle. Figures normalise
    /// performance as `perf(a)/perf(b) = cycles(b)/cycles(a)` for equal
    /// work.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.warp_insts as f64 / self.cycles as f64
        }
    }

    /// Speedup of `self` over `baseline` (same workload, equal work).
    pub fn speedup_over(&self, baseline: &RunStats) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }

    /// Per-structure stats, or a zero record if the structure was never
    /// accessed.
    pub fn alloc_stats(&self, id: AllocId) -> AllocAccessStats {
        self.per_alloc.get(&id).copied().unwrap_or_default()
    }

    /// Identity. The benchmark package (`perfbench/`) calls it on
    /// [`Replay::predict`](crate::analytic::Replay::predict)'s result,
    /// and this keeps that call compiling.
    pub fn into_run_stats(self) -> RunStats {
        self
    }
}

/// Generates [`DegradationStats`] from one `(field, event, doc)` list;
/// `event` says whether the counter counts degradation events
/// ([`DegradationStats::events`]) rather than measuring them.
macro_rules! degradation_table {
    ($( ($field:ident, $event:literal, $doc:literal), )*) => {
        /// Counters for every event the engine absorbed in degraded mode
        /// rather than aborting the run (see DESIGN.md, "Error handling &
        /// degradation semantics"). A run with any event counter non-zero
        /// completes but is degraded ([`Self::is_degraded`]).
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct DegradationStats {
            $( #[doc = $doc] pub $field: u64, )*
            /// Bounded sample (first [`Self::MAX_ERROR_SAMPLES`]) of the typed
            /// errors behind the counters above.
            pub errors: Vec<SimError>,
        }

        impl DegradationStats {
            /// Number of counters in the table.
            pub const COUNT: usize = [$(stringify!($field)),*].len();

            /// Every counter in table order (the JSON key order):
            /// `(field name, counts as an event, value)`.
            pub fn counters(&self) -> [(&'static str, bool, u64); Self::COUNT] {
                [$( (stringify!($field), $event, self.$field) ),*]
            }

            /// Every counter's field in table order, by name.
            pub fn counters_mut(&mut self) -> [(&'static str, &mut u64); Self::COUNT] {
                [$( (stringify!($field), &mut self.$field) ),*]
            }
        }
    };
}

degradation_table! {
    (fallback_remote_frames, true, "Frames placed on a fallback (least-loaded remote) chiplet because the preferred chiplet's free lists were exhausted."),
    (rejected_directives, true, "Policy directives the engine rejected and skipped."),
    (tlb_class_missing, true, "Translations whose leaf size had no TLB class; the walk was charged but the entry could not be cached."),
    (walk_queue_stalls, true, "Times a page walk stalled because the chiplet's walk queue was full (back-pressure instead of unbounded queue growth)."),
    (walk_queue_stall_cycles, false, "Total cycles walks spent stalled behind a full walk queue."),
    (stale_tlb_hits, true, "TLB lookups that hit on coverage whose mapping no longer exists; the stale entries were invalidated and the access re-walked."),
    (audit_violations, true, "Coherence violations found by the epoch state audit (only counted when [`SimConfig::audit_epochs`](crate::SimConfig::audit_epochs) is set)."),
}

impl DegradationStats {
    /// How many concrete errors are retained in [`Self::errors`].
    pub const MAX_ERROR_SAMPLES: usize = 32;

    /// Total degradation events (the event counters' sum).
    pub fn events(&self) -> u64 {
        let events = self.counters().into_iter().filter(|&(_, event, _)| event);
        events.map(|(_, _, n)| n).sum()
    }

    /// Whether the run degraded at all.
    pub fn is_degraded(&self) -> bool {
        self.events() > 0
    }

    /// Records a typed error sample, keeping only the first
    /// [`Self::MAX_ERROR_SAMPLES`]. Callers bump the matching counter.
    pub(crate) fn record(&mut self, err: SimError) {
        if self.errors.len() < Self::MAX_ERROR_SAMPLES {
            self.errors.push(err);
        }
    }

    /// Merges another stage's degradation tally into this one: counters
    /// add, error samples stay bounded at [`Self::MAX_ERROR_SAMPLES`].
    pub(crate) fn absorb(&mut self, mut other: DegradationStats) {
        for ((_, v), (_, _, n)) in self.counters_mut().into_iter().zip(other.counters()) {
            *v += n;
        }
        for e in other.errors.drain(..) {
            self.record(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_division() {
        let s = RunStats::default();
        assert_eq!(s.remote_ratio(), 0.0);
        assert_eq!(s.l2_mpki(), 0.0);
        assert_eq!(s.l2tlb_mpki(), 0.0);
        assert_eq!(s.avg_translation_latency(), 0.0);
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn derived_metrics() {
        let s = RunStats {
            cycles: 1000,
            mem_insts: 200,
            warp_insts: 1000,
            remote_insts: 50,
            l2d_misses: 10,
            l2tlb_misses: 5,
            translation_cycles: 4000,
            ..Default::default()
        };
        assert!((s.remote_ratio() - 0.25).abs() < 1e-12);
        assert!((s.l2_mpki() - 10.0).abs() < 1e-12);
        assert!((s.l2tlb_mpki() - 5.0).abs() < 1e-12);
        assert!((s.avg_translation_latency() - 20.0).abs() < 1e-12);
        assert!((s.ipc() - 1.0).abs() < 1e-12);
        let faster = RunStats {
            cycles: 500,
            ..s.clone()
        };
        assert!((faster.speedup_over(&s) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn degradation_events_and_sampling() {
        let mut d = DegradationStats::default();
        assert!(!d.is_degraded());
        d.rejected_directives = 2;
        d.stale_tlb_hits = 1;
        assert_eq!(d.events(), 3);
        assert!(d.is_degraded());
        // Stall cycles alone do not make a run degraded (the stall counter
        // does).
        let mut c = DegradationStats {
            walk_queue_stall_cycles: 500,
            ..Default::default()
        };
        assert!(!c.is_degraded());
        c.walk_queue_stalls = 1;
        assert!(c.is_degraded());
        // Error samples are bounded.
        for i in 0..2 * DegradationStats::MAX_ERROR_SAMPLES {
            d.record(SimError::PolicyViolation {
                reason: format!("e{i}"),
            });
        }
        assert_eq!(d.errors.len(), DegradationStats::MAX_ERROR_SAMPLES);
    }

    #[test]
    fn alloc_stats_defaults_to_zero() {
        let s = RunStats::default();
        assert_eq!(s.alloc_stats(AllocId::new(9)).accesses, 0);
        let a = AllocAccessStats {
            accesses: 4,
            remote: 1,
        };
        assert!((a.remote_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn registry_folds_into_run_stats() {
        let mut r = Counters::new(4);
        r.bump(ChipletId::new(0), Counter::Walks);
        r.add(ChipletId::new(2), Counter::Walks, 4);
        r.add(ChipletId::new(3), Counter::DramAccesses, 7);
        assert_eq!(r.get(2, Counter::Walks), 4);
        assert_eq!(r.total(Counter::Faults), 0);
        let mut s = RunStats::default();
        s.fold(&r);
        assert_eq!(s.walks, 5);
        assert_eq!(s.dram_accesses, 7);
        assert_eq!(s.dram_per_chiplet, vec![0, 0, 0, 7]);
        // Every counter's field is reachable through its id.
        for c in Counter::ALL {
            assert_eq!(s.counter(c), r.total(c), "{}", c.name());
        }
    }

    #[test]
    fn registry_difference_and_sum_are_cellwise() {
        let mut a = Counters::new(2);
        a.add(ChipletId::new(1), Counter::MemInsts, 3);
        let snap = a.clone();
        a.add(ChipletId::new(1), Counter::MemInsts, 2);
        a.bump(ChipletId::new(0), Counter::Faults);
        let d = a.since(&snap);
        assert_eq!(d.get(1, Counter::MemInsts), 2);
        assert_eq!(d.get(0, Counter::Faults), 1);
        let mut acc = Counters::default();
        acc.absorb(&snap);
        acc.absorb(&d);
        assert_eq!(acc, a);
    }

    #[test]
    fn counter_names_are_unique_and_ordered() {
        let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }
}
