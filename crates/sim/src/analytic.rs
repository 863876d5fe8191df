//! Closed-form analytic fast-path engine.
//!
//! A second backend behind the same [`SimConfig`]/[`Workload`] interface
//! as the cycle-approximate engine: instead of simulating queues, caches
//! and retries event-by-event, [`predict`] replays each kernel's access
//! streams once (round-robin by access index, the same interleaving the
//! locality survey uses) and derives the figure-of-merit statistics in
//! closed form:
//!
//! - **Remote-access ratio** — placement is resolved per granule (first
//!   touch or static analysis, mirroring `mcm_policies`' placement rules),
//!   and an access is remote exactly when the granule's owner differs from
//!   the requesting threadblock's chiplet.
//! - **Interconnect transfers / average hops** — remote lines filtered
//!   through an L2-capacity working-set model, routed over the run's
//!   [`Topology`](crate::interconnect::Topology) via its pure `hops`.
//! - **L1/L2 TLB miss rates** — an independent-reference reach model:
//!   with `u` distinct translation units against `e` entries, misses are
//!   compulsory (`u`) when the footprint fits and `n·(u−e)/u` when it
//!   overflows.
//! - **Page-walk and fault counts** — walks follow L2 TLB misses plus one
//!   faulting walk per demand granule; demand granularity is fixed at
//!   64KB for every page size, so faults are the distinct 64KB granules
//!   touched.
//!
//! The model is deterministic and orders of magnitude faster than the
//! cycle engine; `crates/bench/tests/cross_validation.rs` pins its
//! per-metric error against the simulator. See DESIGN.md §14 for the
//! equations and the error-band methodology.

use std::collections::HashMap;

use mcm_types::{AllocId, PageSize, TbId, VirtAddr, WarpId, BASE_PAGE_BYTES};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::interconnect::build_topology;
use crate::policy::{AllocInfo, StaticHint};
use crate::stats::{AllocAccessStats, RunStats};
use crate::workload::{tb_chiplet, Workload};

/// How the analytic model resolves a virtual granule to its owning
/// chiplet. Mirrors the placement rules of the paging policies in
/// `mcm_policies` (placement granularity is `max(page, 64KB)` — 4KB pages
/// still place whole 64KB frames, as the demand path does).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementModel {
    /// First-touch placement at one uniform page size (the `S-*`, MGvm,
    /// fBarre and Ideal configurations).
    FirstTouch {
        /// Translation page size (also the placement granule, floored at
        /// 64KB).
        page: PageSize,
    },
    /// Offline static-analysis placement at one uniform page size (the
    /// `SA-*` configurations): the owner is a pure function of the
    /// granule's offset within its structure and the structure's locality
    /// hint.
    StaticAnalysis {
        /// Translation page size (also the placement granule, floored at
        /// 64KB).
        page: PageSize,
    },
    /// First-touch placement with a per-structure page size (the CLAP
    /// family: OLP picks each structure's size from its locality period).
    /// Structures absent from `sizes` default to 64KB.
    PerAllocFirstTouch {
        /// `(structure, selected size)` pairs.
        sizes: Vec<(AllocId, PageSize)>,
    },
}

impl PlacementModel {
    /// The CLAP approximation: per-structure page sizes chosen the way
    /// OLP would — the largest native size that still fits inside one
    /// chiplet's span of the structure's locality period (shared
    /// structures take 2MB reach, irregular ones stay at 64KB).
    pub fn clap(allocs: &[AllocInfo], chiplets: usize) -> PlacementModel {
        let sizes = allocs
            .iter()
            .map(|a| {
                let size = match a.hint {
                    StaticHint::Partitioned { period_bytes } => {
                        let p = if period_bytes == 0 || period_bytes > a.bytes {
                            a.bytes
                        } else {
                            period_bytes
                        };
                        let span = p / chiplets.max(1) as u64;
                        if span >= PageSize::Size2M.bytes() {
                            PageSize::Size2M
                        } else {
                            PageSize::Size64K
                        }
                    }
                    StaticHint::Shared => PageSize::Size2M,
                    StaticHint::Irregular => PageSize::Size64K,
                };
                (a.id, size)
            })
            .collect();
        PlacementModel::PerAllocFirstTouch { sizes }
    }

    /// Translation/placement page size for one structure.
    pub fn page_for(&self, alloc: AllocId) -> PageSize {
        match self {
            PlacementModel::FirstTouch { page } | PlacementModel::StaticAnalysis { page } => *page,
            PlacementModel::PerAllocFirstTouch { sizes } => sizes
                .iter()
                .find(|(id, _)| *id == alloc)
                .map(|(_, s)| *s)
                .unwrap_or(PageSize::Size64K),
        }
    }
}

/// The analytic engine's prediction — the figure-of-merit subset of
/// [`RunStats`].
#[derive(Clone, Debug, Default)]
pub struct AnalyticStats {
    /// Memory instructions (line accesses × reuse), as the engine counts
    /// them.
    pub mem_insts: u64,
    /// Warp instructions issued (`insts_per_mem` per memory instruction).
    pub warp_insts: u64,
    /// Memory instructions whose granule is owned by a remote chiplet.
    pub remote_insts: u64,
    /// Demand faults: distinct 64KB granules touched (demand granularity
    /// is 64KB at every page size).
    pub faults: u64,
    /// Page walks: L2 TLB misses plus the faulting first walk per granule.
    pub walks: u64,
    /// L1 TLB hits (includes the per-instruction reuse credited without
    /// lookup, as in the engine).
    pub l1tlb_hits: u64,
    /// L1 TLB misses under the independent-reference reach model.
    pub l1tlb_misses: u64,
    /// L2 TLB hits.
    pub l2tlb_hits: u64,
    /// L2 TLB misses under the independent-reference reach model.
    pub l2tlb_misses: u64,
    /// Remote line transfers after the L2-capacity working-set filter.
    pub interconnect_transfers: u64,
    /// Mean topology hops per transfer.
    pub avg_hops: f64,
    /// Coarse cycle estimate (issue + latency + bandwidth + fault bounds).
    /// Useful only for normalized comparisons between analytic cells —
    /// the cross-validation suite pins no error band on it.
    pub cycles: u64,
    /// Per-structure access/remote counts.
    pub per_alloc: HashMap<AllocId, AllocAccessStats>,
}

impl AnalyticStats {
    /// Remote access ratio of memory instructions.
    pub fn remote_ratio(&self) -> f64 {
        ratio(self.remote_insts, self.mem_insts)
    }

    /// L1 TLB miss rate over all lookups.
    pub fn l1tlb_miss_rate(&self) -> f64 {
        ratio(self.l1tlb_misses, self.l1tlb_hits + self.l1tlb_misses)
    }

    /// L2 TLB miss rate over L2 lookups.
    pub fn l2tlb_miss_rate(&self) -> f64 {
        ratio(self.l2tlb_misses, self.l2tlb_hits + self.l2tlb_misses)
    }

    /// Projects the prediction onto [`RunStats`] so analytic cells flow
    /// through the same grids, telemetry records and CSV writers as
    /// simulated ones. Fields the model does not predict stay zero.
    pub fn into_run_stats(self) -> RunStats {
        RunStats {
            cycles: self.cycles,
            mem_insts: self.mem_insts,
            warp_insts: self.warp_insts,
            remote_insts: self.remote_insts,
            faults: self.faults,
            walks: self.walks,
            l1tlb_hits: self.l1tlb_hits,
            l1tlb_misses: self.l1tlb_misses,
            l2tlb_hits: self.l2tlb_hits,
            l2tlb_misses: self.l2tlb_misses,
            interconnect_transfers: self.interconnect_transfers,
            per_alloc: self.per_alloc,
            ..RunStats::default()
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Static-analysis owner of the granule at `offset` within `info` —
/// the same pure function `mcm_policies`' SA placement applies (kept in
/// sync by the cross-validation suite, since `sim` cannot depend on
/// `policies`).
fn sa_chiplet(info: &AllocInfo, offset: u64, chiplets: usize) -> usize {
    match info.hint {
        StaticHint::Partitioned { period_bytes } => {
            let p = if period_bytes == 0 || period_bytes > info.bytes {
                info.bytes
            } else {
                period_bytes
            };
            if p == 0 {
                return 0;
            }
            let pos = offset % p;
            ((pos as u128 * chiplets as u128 / p as u128) as usize).min(chiplets - 1)
        }
        StaticHint::Shared | StaticHint::Irregular => {
            ((offset / BASE_PAGE_BYTES) % chiplets as u64) as usize
        }
    }
}

/// One TLB entry's coverage in pages of its class — the coalescing reach
/// of the run's translation hardware (64KB class only; see
/// `TranslateStage`).
fn coverage_group(cfg: &SimConfig, size: PageSize) -> u64 {
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
}

/// Independent-reference misses: `u` distinct units against `e` entries,
/// over `n` lookups. Compulsory-only when the footprint fits; otherwise
/// the steady-state miss fraction `(u − e)/u` of the lookups (never fewer
/// than the compulsory `u`).
fn reach_misses(n: u64, u: u64, e: u64) -> u64 {
    if u <= e {
        u.min(n)
    } else {
        let steady = (n as f64 * (u - e) as f64 / u as f64).round() as u64;
        steady.max(u).min(n)
    }
}

/// Dense per-structure counting state for one replay: granule owner
/// table, demand bitset, and the index bases/shifts that turn a raw VA
/// into a table slot with two shifts and a subtract. All sizes involved
/// (placement granule, translation unit, line, 64KB demand granule) are
/// powers of two, which `SimConfig::validate` guarantees for
/// `line_bytes` and `PageSize` guarantees for the rest.
struct AllocCounters {
    /// Structure base address.
    base: u64,
    /// `log2` of the placement granule (`max(page, 64KB)`).
    gran_shift: u32,
    /// `base >> gran_shift` — subtracted to index [`Self::owners`].
    gran_base: u64,
    /// Granule → owning chiplet; `u8::MAX` = never touched.
    owners: Vec<u8>,
    /// `base >> 16` — the index base of the replay's first-touch table.
    demand_base: u64,
    /// `log2(page × coverage group)` — one TLB entry's reach.
    unit_shift: u32,
    /// `base >> unit_shift`.
    unit_base: u64,
    /// Words a distinct-unit bitset for this structure needs.
    unit_words: usize,
    /// `base >> log2(line_bytes)`.
    line_base: u64,
    /// Words a distinct-line bitset for this structure needs.
    line_words: usize,
    /// Index of the structure's page size in the replay's class list.
    class: usize,
}

impl AllocCounters {
    fn new(
        cfg: &SimConfig,
        a: &AllocInfo,
        placement: &PlacementModel,
        classes: &[PageSize],
    ) -> AllocCounters {
        let page = placement.page_for(a.id);
        let base = a.base.raw();
        // Slots the structure spans at `1 << shift` granularity, counting
        // the partial granules a non-aligned base adds at both ends.
        let span = |shift: u32| -> usize {
            if a.bytes == 0 {
                0
            } else {
                (((base + a.bytes - 1) >> shift) - (base >> shift) + 1) as usize
            }
        };
        let gran_bytes = page.bytes().max(BASE_PAGE_BYTES);
        let gran_shift = gran_bytes.trailing_zeros();
        let demand_shift = BASE_PAGE_BYTES.trailing_zeros();
        let unit_shift = (page.bytes() * coverage_group(cfg, page)).trailing_zeros();
        let line_shift = cfg.line_bytes.trailing_zeros();
        AllocCounters {
            base,
            gran_shift,
            gran_base: base >> gran_shift,
            owners: vec![u8::MAX; span(gran_shift)],
            demand_base: base >> demand_shift,
            unit_shift,
            unit_base: base >> unit_shift,
            unit_words: span(unit_shift).div_ceil(64),
            line_base: base >> line_shift,
            line_words: span(line_shift).div_ceil(64),
            class: classes.iter().position(|p| *p == page).unwrap_or(0),
        }
    }
}

/// Sets a bit in a bitset that is allocated on first touch, so the
/// (SM × structure) and (chiplet × structure) grids only pay for the
/// combinations the workload actually exercises.
fn lazy_set_bit(bits: &mut Vec<u64>, words: usize, i: usize) {
    if bits.is_empty() {
        bits.resize(words, 0);
    }
    bits[i >> 6] |= 1u64 << (i & 63);
}

fn popcount(bits: &[u64]) -> u64 {
    bits.iter().map(|w| u64::from(w.count_ones())).sum()
}

fn for_each_bit(bits: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in bits.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            f(wi * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// A workload's access streams, captured once into flat per-kernel
/// arenas and replayable against any machine configuration and
/// placement model. Stream generation (the `Workload::warp_accesses`
/// pattern math) is the analytic engine's largest fixed cost, and it is
/// configuration-independent — sweeps that evaluate one workload under
/// several configurations capture once and predict many times.
pub struct Replay {
    allocs: Vec<AllocInfo>,
    kernels: Vec<ReplayKernel>,
    /// Per structure, per 64KB demand granule: the replay-order key
    /// ([`ft_key`]) of the granule's first toucher, [`u64::MAX`] when
    /// untouched. First touch is the only order-dependent quantity the
    /// model needs, and the replay order — kernels in sequence, warps
    /// round-robin by access index — is configuration-independent, so it
    /// is folded here once; [`Replay::predict`] maps the winning stream
    /// to its chiplet under each configuration's schedule.
    first_touch: Vec<Vec<u64>>,
}

/// One kernel's captured streams, flattened stream-major (TB-major,
/// warp-minor) so prediction scans each stream's slice sequentially.
/// Within a stream, everything the model counts is order-independent
/// (first touch is already folded into [`Replay::first_touch`]), so each
/// stream is stored deduplicated: sorted distinct VAs with
/// multiplicities. Workloads whose warps revisit their working set
/// (`passes` > 1) shrink proportionally.
struct ReplayKernel {
    desc: crate::workload::KernelDesc,
    /// TB index of each stream (one warp = one stream).
    stream_tb: Vec<u32>,
    /// `flat[offsets[s] as usize..offsets[s + 1] as usize]` is stream
    /// `s`'s distinct raw VAs, ascending.
    offsets: Vec<u64>,
    flat: Vec<u64>,
    /// Occurrence count of each `flat` entry within its stream.
    mult: Vec<u32>,
}

/// Replay-order key of access `i` of stream `s` in kernel `k`: keys
/// compare exactly as the replay interleaving orders accesses (kernels
/// in sequence, then round-robin by access index, then stream order).
fn ft_key(k: usize, i: usize, s: usize) -> u64 {
    ((k as u64) << 56) | ((i as u64) << 32) | s as u64
}

impl std::fmt::Debug for Replay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replay")
            .field("allocs", &self.allocs.len())
            .field("kernels", &self.kernels.len())
            .field(
                "distinct_accesses",
                &self.kernels.iter().map(|k| k.flat.len()).sum::<usize>(),
            )
            .finish()
    }
}

impl Replay {
    /// Materializes every warp's access stream of `workload` and folds
    /// the per-granule first-touch keys.
    ///
    /// # Panics
    ///
    /// Panics if the workload exceeds the first-touch key space (256
    /// kernels, `u32::MAX` streams per kernel, 16M accesses per stream —
    /// all far above any evaluation scale).
    pub fn capture<W: Workload + ?Sized>(workload: &W) -> Replay {
        let allocs = workload.allocs().to_vec();
        let demand_shift = BASE_PAGE_BYTES.trailing_zeros();
        // Per structure: 64KB-granule first-touch table and the index
        // base that turns a raw VA into a slot.
        let mut first_touch: Vec<Vec<u64>> = allocs
            .iter()
            .map(|a| {
                let slots = if a.bytes == 0 {
                    0
                } else {
                    (((a.base.raw() + a.bytes - 1) >> demand_shift)
                        - (a.base.raw() >> demand_shift)
                        + 1) as usize
                };
                vec![u64::MAX; slots]
            })
            .collect();
        let ft_bases: Vec<u64> = allocs
            .iter()
            .map(|a| a.base.raw() >> demand_shift)
            .collect();
        assert!(
            workload.num_kernels() <= 256,
            "workload exceeds the first-touch key space (256 kernels)"
        );
        let mut kernels = Vec::with_capacity(workload.num_kernels());
        let mut last_alloc = 0usize;
        for k in 0..workload.num_kernels() {
            let desc = workload.kernel(k);
            let nstreams = desc.num_tbs as usize * desc.warps_per_tb as usize;
            assert!(
                nstreams <= u32::MAX as usize,
                "kernel {k} exceeds the replay's u32 stream index space"
            );
            let mut stream_tb = Vec::with_capacity(nstreams);
            let mut offsets = Vec::with_capacity(nstreams + 1);
            let mut flat = Vec::new();
            let mut mult = Vec::new();
            let mut scratch: Vec<u64> = Vec::new();
            offsets.push(0u64);
            for t in 0..desc.num_tbs {
                for w in 0..desc.warps_per_tb {
                    let s = stream_tb.len();
                    let stream = workload.warp_accesses(k, TbId::new(t), WarpId::new(w));
                    assert!(
                        stream.len() <= 1 << 24,
                        "kernel {k} stream exceeds the first-touch key space (16M accesses)"
                    );
                    for (i, va) in stream.iter().enumerate() {
                        // Resolve the structure (streams run through one
                        // structure at a time, so cache the last hit).
                        if !allocs
                            .get(last_alloc)
                            .map(|a| a.contains(*va))
                            .unwrap_or(false)
                        {
                            last_alloc = match allocs.iter().position(|a| a.contains(*va)) {
                                Some(idx) => idx,
                                None => continue,
                            };
                        }
                        let slot = ((va.raw() >> demand_shift) - ft_bases[last_alloc]) as usize;
                        let key = ft_key(k, i, s);
                        let best = &mut first_touch[last_alloc][slot];
                        if key < *best {
                            *best = key;
                        }
                    }
                    scratch.clear();
                    scratch.extend(stream.iter().map(|va| va.raw()));
                    scratch.sort_unstable();
                    let mut run = 0u32;
                    for (i, &raw) in scratch.iter().enumerate() {
                        run += 1;
                        if i + 1 == scratch.len() || scratch[i + 1] != raw {
                            flat.push(raw);
                            mult.push(run);
                            run = 0;
                        }
                    }
                    offsets.push(flat.len() as u64);
                    stream_tb.push(t);
                }
            }
            kernels.push(ReplayKernel {
                desc,
                stream_tb,
                offsets,
                flat,
                mult,
            });
        }
        Replay {
            allocs,
            kernels,
            first_touch,
        }
    }

    /// Predicts the captured workload's figure-of-merit statistics
    /// closed-form, scheduling threadblocks to chiplets exactly as the
    /// engine does ([`tb_chiplet`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigInvalid`] when `cfg` fails validation.
    pub fn predict(
        &self,
        cfg: &SimConfig,
        placement: &PlacementModel,
    ) -> Result<AnalyticStats, SimError> {
        let chiplets = cfg.num_chiplets;
        self.predict_scheduled(cfg, placement, |tb, num_tbs| {
            tb_chiplet(tb, num_tbs, chiplets)
        })
    }

    /// [`Replay::predict`] with an explicit threadblock→chiplet schedule
    /// — the hook the property tests use to show the model is invariant
    /// under chiplet relabeling.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigInvalid`] when `cfg` fails validation.
    pub fn predict_scheduled(
        &self,
        cfg: &SimConfig,
        placement: &PlacementModel,
        schedule: impl Fn(TbId, u32) -> usize,
    ) -> Result<AnalyticStats, SimError> {
        predict_captured(cfg, self, placement, schedule)
    }
}

/// Predicts the run's figure-of-merit statistics closed-form, scheduling
/// threadblocks to chiplets exactly as the engine does
/// ([`tb_chiplet`]). One-shot wrapper over [`Replay::capture`] +
/// [`Replay::predict`]; sweeps evaluating one workload under several
/// configurations should capture once instead.
///
/// # Errors
///
/// Returns [`SimError::ConfigInvalid`] when `cfg` fails validation.
pub fn predict<W: Workload + ?Sized>(
    cfg: &SimConfig,
    workload: &W,
    placement: &PlacementModel,
) -> Result<AnalyticStats, SimError> {
    Replay::capture(workload).predict(cfg, placement)
}

/// [`predict`] with an explicit threadblock→chiplet schedule.
///
/// # Errors
///
/// Returns [`SimError::ConfigInvalid`] when `cfg` fails validation.
pub fn predict_scheduled<W: Workload + ?Sized>(
    cfg: &SimConfig,
    workload: &W,
    placement: &PlacementModel,
    schedule: impl Fn(TbId, u32) -> usize,
) -> Result<AnalyticStats, SimError> {
    Replay::capture(workload).predict_scheduled(cfg, placement, schedule)
}

/// The replay + reach-model core shared by the public entry points.
fn predict_captured(
    cfg: &SimConfig,
    replay: &Replay,
    placement: &PlacementModel,
    schedule: impl Fn(TbId, u32) -> usize,
) -> Result<AnalyticStats, SimError> {
    cfg.validate()?;
    let chiplets = cfg.num_chiplets;
    let topo = build_topology(cfg);
    let allocs = &replay.allocs;
    let na = allocs.len();
    // Distinct translation classes among the structures, in size order.
    let mut classes: Vec<PageSize> = allocs.iter().map(|a| placement.page_for(a.id)).collect();
    classes.sort_by_key(|p| p.bytes());
    classes.dedup();
    let nc = classes.len().max(1);
    // Per-structure dense counting state: every per-access update below
    // is an index + bit-set, so the replay stays O(1) per access with no
    // hashing — that constant factor is the entire fast path.
    let mut mods: Vec<AllocCounters> = allocs
        .iter()
        .map(|a| AllocCounters::new(cfg, a, placement, &classes))
        .collect();
    let total_sms = chiplets * cfg.sms_per_chiplet;
    let demand_shift = BASE_PAGE_BYTES.trailing_zeros();
    let line_shift = cfg.line_bytes.trailing_zeros();
    let sa = matches!(placement, PlacementModel::StaticAnalysis { .. });

    let mut st = AnalyticStats::default();
    let mut elems: u64 = 0;
    // Lazily-allocated distinct-unit bitsets per (SM, structure) and
    // (chiplet, structure), and distinct remote lines per
    // (requester, structure); lookups per (SM, class).
    let mut l1_units: Vec<Vec<u64>> = vec![Vec::new(); total_sms * na];
    let mut l2_units: Vec<Vec<u64>> = vec![Vec::new(); chiplets * na];
    let mut remote_line_bits: Vec<Vec<u64>> = vec![Vec::new(); chiplets * na];
    let mut l1_lookups = vec![0u64; total_sms * nc];
    // Remote traffic per (requester, owner): post-reuse element counts.
    let mut remote_elems = vec![vec![0u64; chiplets]; chiplets];
    // Elements landing on each owner chiplet's DRAM (bandwidth bound).
    let mut owner_elems = vec![0u64; chiplets];
    let mut per_alloc = vec![AllocAccessStats::default(); na];

    // (requester chiplet, requester SM) per stream, per kernel, in TB
    // order with the engine's round-robin TB→SM assignment. Built for
    // every kernel up front so granule owners can be resolved before the
    // counting scan.
    let metas: Vec<Vec<(usize, usize)>> = replay
        .kernels
        .iter()
        .map(|rk| {
            let mut sm_counter = vec![0usize; chiplets];
            let mut meta = Vec::with_capacity(rk.stream_tb.len());
            let mut cur_tb = u32::MAX;
            let mut cur = (0usize, 0usize);
            for &t in &rk.stream_tb {
                if t != cur_tb {
                    cur_tb = t;
                    let ch = schedule(TbId::new(t), rk.desc.num_tbs).min(chiplets - 1);
                    let sm = ch * cfg.sms_per_chiplet + sm_counter[ch] % cfg.sms_per_chiplet;
                    sm_counter[ch] += 1;
                    cur = (ch, sm);
                }
                meta.push(cur);
            }
            meta
        })
        .collect();

    // Resolve every touched granule's owner up front: static analysis is
    // a pure function of the granule offset; first touch maps the
    // granule's winning replay key (folded at capture over its 64KB
    // sub-granules) to the winner's chiplet under this schedule.
    for (a, am) in mods.iter_mut().enumerate() {
        if sa {
            for g in 0..am.owners.len() {
                let offset = ((am.gran_base + g as u64) << am.gran_shift).saturating_sub(am.base);
                am.owners[g] = sa_chiplet(&allocs[a], offset, chiplets) as u8;
            }
        } else {
            let sub_shift = am.gran_shift - demand_shift;
            let mut best = vec![u64::MAX; am.owners.len()];
            for (j, &key) in replay.first_touch[a].iter().enumerate() {
                if key == u64::MAX {
                    continue;
                }
                let g = (((am.demand_base + j as u64) >> sub_shift) - am.gran_base) as usize;
                if key < best[g] {
                    best[g] = key;
                }
            }
            for (g, &key) in best.iter().enumerate() {
                if key != u64::MAX {
                    let (k, s) = ((key >> 56) as usize, (key & u32::MAX as u64) as usize);
                    am.owners[g] = metas[k][s].0 as u8;
                }
            }
        }
    }

    for (k, rk) in replay.kernels.iter().enumerate() {
        let kd = &rk.desc;
        let reuse = kd.line_reuse.max(1) as u64;
        let gap = kd.insts_per_mem.max(1) as u64;
        // Owners are pre-resolved and everything else the model counts is
        // order-independent, so the scan runs stream-major: each stream's
        // slice is sequential and its (chiplet, SM) are loop constants.
        let mut last_alloc = 0usize;
        // The cached structure's [base, base + bytes) as two locals, so
        // the common stays-in-structure case is one compare.
        let (mut cur_lo, mut cur_len) = allocs.first().map_or((1, 0), |a| (a.base.raw(), a.bytes));
        for (s, &(ch, sm)) in metas[k].iter().enumerate() {
            let (lo, hi) = (rk.offsets[s] as usize, rk.offsets[s + 1] as usize);
            for (&raw, &m) in rk.flat[lo..hi].iter().zip(&rk.mult[lo..hi]) {
                // Resolve the structure (distinct VAs are sorted, so a
                // stream crosses each structure once).
                if raw.wrapping_sub(cur_lo) >= cur_len {
                    last_alloc = match allocs.iter().position(|a| a.contains(VirtAddr::new(raw))) {
                        Some(idx) => idx,
                        None => continue,
                    };
                    cur_lo = allocs[last_alloc].base.raw();
                    cur_len = allocs[last_alloc].bytes;
                }
                let m = m as u64;
                let am = &mut mods[last_alloc];
                let g = ((raw >> am.gran_shift) - am.gran_base) as usize;
                let owner = am.owners[g] as usize;
                debug_assert!(owner < chiplets, "touched granule has an owner");
                elems += m;
                st.mem_insts += reuse * m;
                st.warp_insts += gap * reuse * m;
                owner_elems[owner] += m;
                per_alloc[last_alloc].accesses += reuse * m;
                if owner != ch {
                    st.remote_insts += reuse * m;
                    per_alloc[last_alloc].remote += reuse * m;
                    remote_elems[ch][owner] += m;
                    lazy_set_bit(
                        &mut remote_line_bits[ch * na + last_alloc],
                        am.line_words,
                        ((raw >> line_shift) - am.line_base) as usize,
                    );
                }
                let unit = ((raw >> am.unit_shift) - am.unit_base) as usize;
                lazy_set_bit(&mut l1_units[sm * na + last_alloc], am.unit_words, unit);
                l1_lookups[sm * nc + am.class] += m;
                lazy_set_bit(&mut l2_units[ch * na + last_alloc], am.unit_words, unit);
            }
        }
    }

    // L1 TLB: reach model per (SM, class); misses become L2 lookups on
    // the SM's chiplet.
    let mut l2_lookups = vec![0u64; chiplets * nc];
    for sm in 0..total_sms {
        for (c, page) in classes.iter().enumerate() {
            let n = l1_lookups[sm * nc + c];
            if n == 0 {
                continue;
            }
            let u: u64 = (0..na)
                .filter(|&a| mods[a].class == c)
                .map(|a| popcount(&l1_units[sm * na + a]))
                .sum();
            let e = cfg.tlb_entries(*page).l1 as u64;
            let miss = reach_misses(n, u, e);
            st.l1tlb_misses += miss;
            l2_lookups[(sm / cfg.sms_per_chiplet) * nc + c] += miss;
        }
    }
    st.l1tlb_hits = st.mem_insts.saturating_sub(st.l1tlb_misses);

    // L2 TLB: reach model per (chiplet, class) over the chiplet's union
    // footprint; misses walk.
    let mut l2_total_lookups = 0u64;
    for ch in 0..chiplets {
        for (c, page) in classes.iter().enumerate() {
            let n = l2_lookups[ch * nc + c];
            if n == 0 {
                continue;
            }
            let u: u64 = (0..na)
                .filter(|&a| mods[a].class == c)
                .map(|a| popcount(&l2_units[ch * na + a]))
                .sum();
            let e = cfg.tlb_entries(*page).l2 as u64;
            let miss = reach_misses(n, u, e);
            st.l2tlb_misses += miss;
            l2_total_lookups += n;
        }
    }
    st.l2tlb_hits = l2_total_lookups.saturating_sub(st.l2tlb_misses);

    st.faults = replay
        .first_touch
        .iter()
        .map(|ft| ft.iter().filter(|&&key| key != u64::MAX).count() as u64)
        .sum();
    st.walks = st.l2tlb_misses + st.faults;
    for (i, a) in allocs.iter().enumerate() {
        if per_alloc[i].accesses > 0 {
            st.per_alloc.insert(a.id, per_alloc[i]);
        }
    }

    // Interconnect: a requester whose distinct remote working set fits
    // its L2 transfers each line once; an overflowing one streams every
    // post-L1 remote element across the fabric. A line's owner is the
    // owner of its granule, so per-owner distinct counts fall out of the
    // per-structure line bitsets and the granule owner tables.
    let mut hop_sum = 0.0f64;
    for req in 0..chiplets {
        let mut distinct_per_owner = vec![0u64; chiplets];
        for a in 0..na {
            let am = &mods[a];
            let bits = &remote_line_bits[req * na + a];
            for_each_bit(bits, |line_rel| {
                let raw = (am.line_base + line_rel as u64) << line_shift;
                let g = ((raw >> am.gran_shift) - am.gran_base) as usize;
                let owner = am.owners[g] as usize;
                debug_assert!(owner < chiplets, "touched line has an owner");
                distinct_per_owner[owner] += 1;
            });
        }
        let distinct: u64 = distinct_per_owner.iter().sum();
        let bytes = distinct * cfg.line_bytes;
        let cached = bytes <= cfg.effective_l2d_bytes() as u64;
        for own in 0..chiplets {
            let count = if cached {
                distinct_per_owner[own]
            } else {
                remote_elems[req][own]
            };
            if count == 0 {
                continue;
            }
            st.interconnect_transfers += count;
            hop_sum += count as f64
                * topo.hops(
                    mcm_types::ChipletId::new(own as u8),
                    mcm_types::ChipletId::new(req as u8),
                ) as f64;
        }
    }
    st.avg_hops = if st.interconnect_transfers == 0 {
        0.0
    } else {
        hop_sum / st.interconnect_transfers as f64
    };

    st.cycles = estimate_cycles(cfg, &st, elems, &owner_elems, hop_sum);
    Ok(st)
}

/// Coarse cycle estimate: the issue stream plus the largest of the
/// latency, per-chiplet DRAM-bandwidth, link-bandwidth and fault-service
/// bounds. Good enough to rank analytic cells against each other;
/// never cross-validated against simulated cycles.
fn estimate_cycles(
    cfg: &SimConfig,
    st: &AnalyticStats,
    elems: u64,
    owner_elems: &[u64],
    hop_sum: f64,
) -> u64 {
    let total_sms = cfg.total_sms().max(1) as f64;
    let overlap = (cfg.max_warps_per_sm * cfg.warp_mlp).max(1) as f64;
    let issue = st.warp_insts as f64 / total_sms;
    let local = (elems - st.interconnect_transfers.min(elems)) as f64;
    let lat_sum = local * (cfg.l1d_latency + cfg.l2d_latency) as f64
        + st.interconnect_transfers as f64 * (cfg.l2d_latency + cfg.dram_latency) as f64
        + hop_sum * 2.0 * cfg.hop_latency as f64
        + st.walks as f64 * (cfg.pwc_latency * 4 + cfg.pte_mem_latency) as f64;
    let lat_bound = lat_sum / (total_sms * overlap);
    let dram_bound = owner_elems
        .iter()
        .map(|&n| n as f64 * cfg.dram_service as f64 / cfg.dram_channels.max(1) as f64)
        .fold(0.0f64, f64::max);
    let link_bound =
        st.interconnect_transfers as f64 * cfg.link_service as f64 / cfg.num_chiplets.max(1) as f64;
    let fault_bound = st.faults as f64 * cfg.fault_latency as f64
        / (cfg.num_chiplets * cfg.page_walkers).max(1) as f64;
    (issue + lat_bound + dram_bound.max(link_bound) + fault_bound) as u64 + cfg.fault_latency
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{TileMapping, TiledGemm};

    fn quick_cfg() -> SimConfig {
        SimConfig::baseline().scaled(8)
    }

    #[test]
    fn gemm_prediction_is_sane() {
        let w = TiledGemm::new(8, 8, 4, TileMapping::RowMajor);
        let s = predict(
            &quick_cfg(),
            &w,
            &PlacementModel::FirstTouch {
                page: PageSize::Size64K,
            },
        )
        .unwrap();
        assert!(s.mem_insts > 0);
        assert!(s.remote_ratio() >= 0.0 && s.remote_ratio() <= 1.0);
        assert!(s.faults > 0);
        assert!(s.walks >= s.l2tlb_misses);
        assert!(s.l1tlb_hits + s.l1tlb_misses == s.mem_insts);
    }

    #[test]
    fn clap_sizes_follow_hints() {
        let w = TiledGemm::new(8, 8, 4, TileMapping::RowMajor);
        let pm = PlacementModel::clap(w.allocs(), 4);
        let PlacementModel::PerAllocFirstTouch { sizes } = &pm else {
            panic!("clap model is per-alloc");
        };
        assert_eq!(sizes.len(), w.allocs().len());
        // The shared B matrix takes 2MB reach.
        let b = w
            .allocs()
            .iter()
            .find(|a| a.hint == StaticHint::Shared)
            .unwrap();
        assert_eq!(pm.page_for(b.id), PageSize::Size2M);
    }

    #[test]
    fn single_tb_has_no_remote_traffic() {
        // One threadblock ⇒ one chiplet touches everything first ⇒ every
        // granule is local under first touch.
        let w = TiledGemm::new(1, 1, 1, TileMapping::RowMajor);
        let s = predict(
            &quick_cfg(),
            &w,
            &PlacementModel::FirstTouch {
                page: PageSize::Size64K,
            },
        )
        .unwrap();
        assert_eq!(s.remote_insts, 0);
        assert_eq!(s.interconnect_transfers, 0);
        assert_eq!(s.avg_hops, 0.0);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = quick_cfg();
        cfg.num_chiplets = 3;
        let w = TiledGemm::new(2, 2, 2, TileMapping::RowMajor);
        let e = predict(
            &cfg,
            &w,
            &PlacementModel::FirstTouch {
                page: PageSize::Size64K,
            },
        );
        assert!(matches!(e, Err(SimError::ConfigInvalid { .. })));
    }
}
