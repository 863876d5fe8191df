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
//! - **Interconnect transfers** — remote lines filtered through an
//!   L2-capacity working-set model; their hop distances over the run's
//!   [`Topology`](crate::interconnect::Topology) (its pure `hops`) enter
//!   the cycle estimate.
//! - **L1/L2 TLB miss rates** — an independent-reference reach model:
//!   with `u` distinct translation units against `e` entries, misses are
//!   compulsory (`u`) when the footprint fits and `n·(u−e)/u` when it
//!   overflows.
//! - **Page-walk and fault counts** — walks follow L2 TLB misses plus one
//!   faulting walk per demand granule; demand granularity is fixed at
//!   64KB for every page size, so faults are the distinct 64KB granules
//!   touched.
//!
//! Sweeps capture a workload once ([`Replay::capture`]); each machine
//! shape folds the streams once into per-granule groups, and each
//! configuration is then evaluated over the groups only ([`Replay`]).
//!
//! The model is deterministic and orders of magnitude faster than the
//! cycle engine; `crates/bench/tests/cross_validation.rs` pins its
//! per-metric error against the simulator. See DESIGN.md §14 for the
//! equations and the error-band methodology.

use std::sync::{Arc, Mutex, PoisonError};

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
                let size = match (a.hint, a.hint.period(a.bytes)) {
                    (StaticHint::Shared, _) => PageSize::Size2M,
                    (_, Some(p)) if p / chiplets.max(1) as u64 >= PageSize::Size2M.bytes() => {
                        PageSize::Size2M
                    }
                    _ => PageSize::Size64K,
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

/// A workload's access streams, captured once into flat per-kernel
/// arenas and replayable against any machine configuration and
/// placement model. Stream generation (the `Workload::warp_accesses`
/// pattern math) is the analytic engine's largest fixed cost, and it is
/// configuration-independent — sweeps that evaluate one workload under
/// several configurations capture once and predict many times.
///
/// Prediction runs in two steps. A [`Fold`] sums the streams into
/// (SM, structure, 64KB granule) groups; it depends only on the machine
/// shape and the threadblock schedule, so [`Replay::predict`] builds it
/// once per [`Shape`] and keeps it. Evaluating a placement model then
/// walks the groups only (DESIGN.md §14).
pub struct Replay {
    allocs: Vec<AllocInfo>,
    kernels: Vec<ReplayKernel>,
    /// Per structure, per 64KB demand granule: the replay-order key
    /// ([`ft_key`]) of the granule's first toucher, [`u64::MAX`] when
    /// untouched. First touch is the only order-dependent quantity the
    /// model needs, and the replay order — kernels in sequence, warps
    /// round-robin by access index — is configuration-independent, so it
    /// is folded here once; evaluation maps the winning stream to its
    /// chiplet under each fold's schedule.
    first_touch: Vec<Vec<u64>>,
    /// Threads the capture was given, and each fold is: both use at most
    /// one per part they can split (threadblocks, chiplets).
    threads: usize,
    /// Folds under the default [`tb_chiplet`] schedule, one per machine
    /// shape predicted so far. The lock keeps `Replay` shareable across
    /// sweep workers; a worker needing a shape another is folding waits
    /// for it instead of folding twice. A fold is pushed only once
    /// built, so a lock poisoned by a panicking fold still guards a
    /// valid list.
    folds: Mutex<Vec<(Shape, Arc<Fold>)>>,
}

/// One kernel's captured streams, stream-major (TB-major, warp-minor).
/// Within a stream, everything the model counts is order-independent
/// (first touch is already folded into [`Replay::first_touch`]), so each
/// stream is stored deduplicated: sorted distinct VAs with
/// multiplicities. Workloads whose warps revisit their working set
/// (`passes` > 1) shrink proportionally.
struct ReplayKernel {
    desc: crate::workload::KernelDesc,
    /// TB index of each stream (one warp = one stream).
    stream_tb: Vec<u32>,
    /// The streams in contiguous runs, in stream order: one per capture
    /// thread that captured any, kept as captured instead of copied into
    /// one buffer.
    runs: Vec<StreamRun>,
}

/// Consecutive streams of one kernel, from stream `first` on.
struct StreamRun {
    first: usize,
    /// `flat[offsets[j] as usize..offsets[j + 1] as usize]` is stream
    /// `first + j`'s distinct raw VAs, ascending.
    offsets: Vec<u64>,
    flat: Vec<u64>,
    /// Occurrence count of each `flat` entry within its stream.
    mult: Vec<u32>,
}

impl ReplayKernel {
    /// Stream `s`'s distinct raw VAs, ascending, and their multiplicities.
    fn stream(&self, s: usize) -> (&[u64], &[u32]) {
        // The last run starting at or before `s`; runs are never empty.
        let run = &self.runs[self.runs.partition_point(|r| r.first <= s) - 1];
        let j = s - run.first;
        let (lo, hi) = (run.offsets[j] as usize, run.offsets[j + 1] as usize);
        (&run.flat[lo..hi], &run.mult[lo..hi])
    }
}

/// Replay-order key of access `i` of stream `s` in kernel `k`: keys
/// compare exactly as the replay interleaving orders accesses (kernels
/// in sequence, then round-robin by access index, then stream order).
fn ft_key(k: usize, i: usize, s: usize) -> u64 {
    ((k as u64) << 56) | ((i as u64) << 32) | s as u64
}

/// Runs `f` for every part in `0..parts`, part 0 on the calling thread
/// and the rest on scoped threads, and returns the results in part
/// order. One part spawns nothing. A panicking part panics the caller.
fn in_parts<T: Send>(parts: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if parts <= 1 {
        return vec![f(0)];
    }
    std::thread::scope(|scope| {
        let f = &f;
        let rest: Vec<_> = (1..parts).map(|p| scope.spawn(move || f(p))).collect();
        let mut out = Vec::with_capacity(parts);
        out.push(f(0));
        for handle in rest {
            out.push(
                handle
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        out
    })
}

/// Part `p` of `0..n` cut into `parts` contiguous ranges that differ in
/// length by at most one.
fn part_range(n: usize, p: usize, parts: usize) -> std::ops::Range<usize> {
    n * p / parts..n * (p + 1) / parts
}

/// Appends `parts` in order onto the first one, grown to exactly their
/// total length, dropping each later part once it is copied: a merge
/// never holds a second copy of the first part, and a single part is
/// returned as it is.
fn concat<T: Copy>(parts: Vec<Vec<T>>) -> Vec<T> {
    let total = parts.iter().map(Vec::len).sum::<usize>();
    let mut parts = parts.into_iter();
    let mut out = parts.next().unwrap_or_default();
    out.reserve_exact(total - out.len());
    for part in parts {
        out.extend_from_slice(&part);
    }
    out
}

/// One thread's share of a capture: per kernel, the TB index of each
/// stream of one contiguous threadblock range and the run of those
/// streams; and the first-touch keys of the granules they touch.
struct CapturePart {
    kernels: Vec<(Vec<u32>, StreamRun)>,
    first_touch: Vec<Vec<u64>>,
}

/// Captures part `p` of `parts`: every kernel's threadblock range
/// [`part_range`]`(num_tbs, p, parts)`, with streams keyed by their
/// index in the whole kernel.
fn capture_range<W: Workload + ?Sized>(
    workload: &W,
    allocs: &[AllocInfo],
    p: usize,
    parts: usize,
) -> CapturePart {
    // Per structure: 64KB-granule first-touch table and the index base
    // that turns a raw VA into a slot.
    let mut first_touch: Vec<Vec<u64>> = allocs
        .iter()
        .map(|a| vec![u64::MAX; span(a, DEMAND_SHIFT)])
        .collect();
    let ft_bases: Vec<u64> = allocs
        .iter()
        .map(|a| a.base.raw() >> DEMAND_SHIFT)
        .collect();
    let mut kernels = Vec::with_capacity(workload.num_kernels());
    let mut last_alloc = 0usize;
    // One stream buffer and one sort buffer for the whole part.
    let mut stream = Vec::new();
    let mut scratch: Vec<u64> = Vec::new();
    for k in 0..workload.num_kernels() {
        let desc = workload.kernel(k);
        let wpt = desc.warps_per_tb as usize;
        assert!(
            desc.num_tbs as usize * wpt <= u32::MAX as usize,
            "kernel {k} exceeds the replay's u32 stream index space"
        );
        let tbs = part_range(desc.num_tbs as usize, p, parts);
        let nstreams = tbs.len() * wpt;
        let mut stream_tb = Vec::with_capacity(nstreams);
        let mut run = StreamRun {
            first: tbs.start * wpt,
            offsets: Vec::with_capacity(nstreams + 1),
            flat: Vec::new(),
            mult: Vec::new(),
        };
        run.offsets.push(0);
        for t in tbs {
            let t = t as u32;
            for w in 0..desc.warps_per_tb {
                let s = t as usize * wpt + w as usize;
                workload.warp_accesses_into(k, TbId::new(t), WarpId::new(w), &mut stream);
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
                    let slot = ((va.raw() >> DEMAND_SHIFT) - ft_bases[last_alloc]) as usize;
                    let key = ft_key(k, i, s);
                    let best = &mut first_touch[last_alloc][slot];
                    if key < *best {
                        *best = key;
                    }
                }
                scratch.clear();
                scratch.extend(stream.iter().map(|va| va.raw()));
                scratch.sort_unstable();
                let mut count = 0u32;
                for (i, &raw) in scratch.iter().enumerate() {
                    count += 1;
                    if i + 1 == scratch.len() || scratch[i + 1] != raw {
                        run.flat.push(raw);
                        run.mult.push(count);
                        count = 0;
                    }
                }
                run.offsets.push(run.flat.len() as u64);
                stream_tb.push(t);
            }
        }
        kernels.push((stream_tb, run));
    }
    CapturePart {
        kernels,
        first_touch,
    }
}

impl std::fmt::Debug for Replay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replay")
            .field("allocs", &self.allocs.len())
            .field("kernels", &self.kernels.len())
            .field("threads", &self.threads)
            .field(
                "distinct_accesses",
                &self
                    .kernels
                    .iter()
                    .flat_map(|k| &k.runs)
                    .map(|r| r.flat.len())
                    .sum::<usize>(),
            )
            .finish()
    }
}

impl Replay {
    /// Materializes every warp's access stream of `workload` and folds
    /// the per-granule first-touch keys, on the calling thread:
    /// [`Replay::capture_with`] at one thread.
    ///
    /// # Panics
    ///
    /// Panics if the workload exceeds the first-touch key space (256
    /// kernels, `u32::MAX` streams per kernel, 16M accesses per stream —
    /// all far above any evaluation scale).
    pub fn capture<W: Workload + ?Sized>(workload: &W) -> Replay {
        Replay::capture_with(workload, 1)
    }

    /// [`Replay::capture`] on `threads` threads (at most one per
    /// threadblock of the largest kernel). Each kernel's threadblocks are
    /// split into that many contiguous ranges, captured
    /// on scoped threads (the calling thread takes the first range), and
    /// merged in range order: each kernel's streams are the ranges' runs
    /// in order, and the first-touch tables merge by element-wise
    /// minimum. Every stream, and so every fold and prediction, is
    /// therefore identical for every thread count. The replay keeps
    /// `threads` for the folds its predictions build; one thread spawns
    /// nothing.
    ///
    /// # Panics
    ///
    /// As [`Replay::capture`].
    pub fn capture_with<W: Workload + ?Sized>(workload: &W, threads: usize) -> Replay {
        let threads = threads.max(1);
        let allocs = workload.allocs().to_vec();
        assert!(
            workload.num_kernels() <= 256,
            "workload exceeds the first-touch key space (256 kernels)"
        );
        let most_tbs = (0..workload.num_kernels())
            .map(|k| workload.kernel(k).num_tbs as usize)
            .max()
            .unwrap_or(0);
        let parts = threads.min(most_tbs).max(1);
        let (mut kernel_parts, first_touch): (Vec<_>, Vec<_>) =
            in_parts(parts, |p| capture_range(workload, &allocs, p, parts))
                .into_iter()
                .map(|part| (part.kernels.into_iter(), part.first_touch))
                .unzip();
        // Keys are global, so the earliest toucher wins whichever part
        // saw it.
        let first_touch = first_touch
            .into_iter()
            .reduce(|mut best, keys| {
                for (best, keys) in best.iter_mut().zip(&keys) {
                    for (b, &k) in best.iter_mut().zip(keys) {
                        *b = (*b).min(k);
                    }
                }
                best
            })
            .unwrap_or_default();
        let kernels = (0..workload.num_kernels())
            .map(|k| {
                // Kernel `k` of every part, in part order.
                let mut stream_tb = Vec::new();
                let mut runs = Vec::new();
                for (part_tb, run) in kernel_parts.iter_mut().filter_map(Iterator::next) {
                    stream_tb.extend(part_tb);
                    if run.offsets.len() > 1 {
                        runs.push(run);
                    }
                }
                ReplayKernel {
                    desc: workload.kernel(k),
                    stream_tb,
                    runs,
                }
            })
            .collect();
        Replay {
            allocs,
            kernels,
            first_touch,
            threads,
            folds: Mutex::new(Vec::new()),
        }
    }

    /// Predicts the captured workload's figure-of-merit statistics
    /// closed-form, scheduling threadblocks to chiplets exactly as the
    /// engine does ([`tb_chiplet`]). The first prediction at a machine
    /// shape folds the streams; later ones at that shape reuse the fold.
    ///
    /// The model fills these [`RunStats`] fields:
    ///
    /// - `mem_insts` (line accesses × reuse), `warp_insts`
    ///   (`insts_per_mem` per memory instruction) and `remote_insts`
    ///   (memory instructions whose granule a remote chiplet owns);
    /// - `faults`: distinct 64KB granules touched (demand granularity is
    ///   64KB at every page size);
    /// - `walks`: L2 TLB misses plus the faulting first walk per granule;
    /// - `l1tlb_hits`/`l1tlb_misses` and `l2tlb_hits`/`l2tlb_misses` under
    ///   the independent-reference reach model (L1 hits include the
    ///   per-instruction reuse credited without lookup, as in the engine);
    /// - `interconnect_transfers`: remote lines after the L2-capacity
    ///   working-set filter;
    /// - `cycles`: a coarse estimate (issue + latency + bandwidth + fault
    ///   bounds), useful only for normalized comparisons between analytic
    ///   cells — the cross-validation suite pins no error band on it;
    /// - `per_alloc`: per-structure access and remote counts.
    ///
    /// Every other field keeps its default: the cache, walk-timing,
    /// migration and DRAM counters, `dram_per_chiplet`, the queue cycles,
    /// `blocks_consumed` and `degradation`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigInvalid`] when `cfg` fails validation.
    pub fn predict(
        &self,
        cfg: &SimConfig,
        placement: &PlacementModel,
    ) -> Result<RunStats, SimError> {
        let shape = Shape::of(cfg)?;
        let fold = {
            let mut folds = self.folds.lock().unwrap_or_else(PoisonError::into_inner);
            match folds.iter().find(|(s, _)| *s == shape) {
                Some((_, fold)) => Arc::clone(fold),
                None => {
                    let chiplets = shape.chiplets;
                    let fold = Arc::new(Fold::build(self, shape, |tb, num_tbs| {
                        tb_chiplet(tb, num_tbs, chiplets)
                    }));
                    folds.push((shape, Arc::clone(&fold)));
                    fold
                }
            }
        };
        Ok(evaluate(cfg, self, &fold, placement))
    }

    /// [`Replay::predict`] with an explicit threadblock→chiplet schedule
    /// — the hook the property tests use to show the model is invariant
    /// under chiplet relabeling. The fold is built for this call only.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigInvalid`] when `cfg` fails validation.
    pub fn predict_scheduled(
        &self,
        cfg: &SimConfig,
        placement: &PlacementModel,
        schedule: impl Fn(TbId, u32) -> usize,
    ) -> Result<RunStats, SimError> {
        let fold = Fold::build(self, Shape::of(cfg)?, schedule);
        Ok(evaluate(cfg, self, &fold, placement))
    }
}

/// `log2` of the 64KB demand granule, the unit a [`Group`] sums over.
const DEMAND_SHIFT: u32 = BASE_PAGE_BYTES.trailing_zeros();

/// `log2` of the 4KB page, the smallest translation unit.
const PAGE_SHIFT: u32 = 12;

// A group's page mask has one bit per 4KB page of its 64KB granule.
const _: () = assert!(BASE_PAGE_BYTES >> PAGE_SHIFT == u16::BITS as u64);

/// Slots `a` spans at `1 << shift` granularity, counting the partial
/// granules a non-aligned base adds at both ends.
fn span(a: &AllocInfo, shift: u32) -> usize {
    if a.bytes == 0 {
        0
    } else {
        let base = a.base.raw();
        (((base + a.bytes - 1) >> shift) - (base >> shift) + 1) as usize
    }
}

/// The machine parameters a [`Fold`] depends on (besides the schedule):
/// which chiplet and SM issue each stream, and the line size distinct
/// lines are counted at. Everything else in a [`SimConfig`] enters only
/// at evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Shape {
    chiplets: usize,
    sms_per_chiplet: usize,
    line_bytes: u64,
}

impl Shape {
    /// `cfg`'s shape, once `cfg` is valid and within the model's limits:
    /// owners fit a byte, and a line never straddles two 64KB granules.
    fn of(cfg: &SimConfig) -> Result<Shape, SimError> {
        cfg.validate()?;
        let limit = |reason: String| Err(SimError::ConfigInvalid { reason });
        if cfg.num_chiplets > u8::MAX as usize {
            return limit(format!(
                "the analytic model supports at most 255 chiplets, got {}",
                cfg.num_chiplets
            ));
        }
        if cfg.line_bytes > BASE_PAGE_BYTES {
            return limit(format!(
                "the analytic model needs line_bytes <= 64KB, got {}",
                cfg.line_bytes
            ));
        }
        Ok(Shape {
            chiplets: cfg.num_chiplets,
            sms_per_chiplet: cfg.sms_per_chiplet,
            line_bytes: cfg.line_bytes,
        })
    }
}

/// One SM's accesses to one structure's 64KB granule, summed over every
/// kernel. The granule's owner is constant within it (placement granules
/// are aligned supersets of 64KB), so every per-access count the model
/// keys by owner is a sum over groups.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Group {
    /// Σ multiplicity: line accesses (post-reuse elements).
    elems: u64,
    /// Σ `line_reuse` · multiplicity: memory instructions.
    insts: u64,
    /// Granule index from the structure's first 64KB granule.
    gran: u32,
    /// Structure index.
    alloc: u16,
    /// Bit `i` set when the group touches the granule's 4KB page `i`.
    pages: u16,
}

/// One chiplet's footprint in one structure's 64KB granule, over all of
/// its SMs: what the L2 TLB reach and the remote-line working set need.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Footprint {
    /// Granule index from the structure's first 64KB granule.
    gran: u32,
    /// Distinct lines the chiplet touches in the granule.
    lines: u32,
    /// Structure index.
    alloc: u16,
    /// Bit `i` set when the chiplet touches the granule's 4KB page `i`.
    pages: u16,
}

const _: () = assert!(std::mem::size_of::<Group>() == 24);
const _: () = assert!(std::mem::size_of::<Footprint>() == 12);

/// A replay's streams summed per machine shape and schedule: everything
/// [`evaluate`] needs, in O(touched granules) instead of O(distinct
/// accesses).
struct Fold {
    /// SM `sm`'s groups are `groups[sm_start[sm]..sm_start[sm + 1]]`.
    groups: Vec<Group>,
    sm_start: Vec<usize>,
    /// Chiplet `ch`'s footprints are
    /// `footprints[chiplet_start[ch]..chiplet_start[ch + 1]]`.
    footprints: Vec<Footprint>,
    chiplet_start: Vec<usize>,
    /// Per kernel, per stream: the requesting chiplet (first-touch owner
    /// resolution maps each granule's winning stream through it).
    stream_chiplet: Vec<Vec<u8>>,
    /// Σ `insts_per_mem` · `line_reuse` · multiplicity: warp
    /// instructions, which no placement changes.
    warp_insts: u64,
}

/// A [`Fold`] accumulator slot: one structure's 64KB granule.
#[derive(Clone, Copy, Default)]
struct Slot {
    elems: u64,
    insts: u64,
    pages: u16,
}

impl Fold {
    /// Sums `replay`'s streams under `schedule`: SM by SM into a dense
    /// accumulator over every structure's 64KB granules (a touched list
    /// makes emitting and resetting it O(touched)), and chiplet by
    /// chiplet into a per-granule distinct-line bitset. No hashing, no
    /// sorting. Chiplets are folded independently, so contiguous chiplet
    /// ranges run on the replay's threads ([`in_parts`]) and are joined
    /// in chiplet order: the fold is identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if a structure spans more than `u32::MAX` 64KB granules or
    /// the workload has more than 65536 structures (the group field
    /// widths).
    fn build(replay: &Replay, shape: Shape, schedule: impl Fn(TbId, u32) -> usize) -> Fold {
        let Shape {
            chiplets,
            sms_per_chiplet: spc,
            ..
        } = shape;
        let total_sms = chiplets * spc;
        let allocs = &replay.allocs;
        assert!(
            allocs.len() <= u16::MAX as usize + 1,
            "workload exceeds the fold's u16 structure index"
        );

        // Chiplet and SM of every stream, in TB order with the engine's
        // round-robin TB→SM assignment; then every SM's streams
        // (kernel-major) by counting sort.
        let mut stream_chiplet = Vec::with_capacity(replay.kernels.len());
        let mut stream_sm = Vec::with_capacity(replay.kernels.len());
        let mut sm_streams_start = vec![0usize; total_sms + 1];
        for rk in &replay.kernels {
            let mut sm_counter = vec![0usize; chiplets];
            let mut chs = Vec::with_capacity(rk.stream_tb.len());
            let mut sms = Vec::with_capacity(rk.stream_tb.len());
            let mut cur_tb = u32::MAX;
            let mut cur = (0usize, 0usize);
            for &t in &rk.stream_tb {
                if t != cur_tb {
                    cur_tb = t;
                    let ch = schedule(TbId::new(t), rk.desc.num_tbs).min(chiplets - 1);
                    let sm = ch * spc + sm_counter[ch] % spc;
                    sm_counter[ch] += 1;
                    cur = (ch, sm);
                }
                chs.push(cur.0 as u8);
                sms.push(cur.1 as u32);
                sm_streams_start[cur.1 + 1] += 1;
            }
            stream_chiplet.push(chs);
            stream_sm.push(sms);
        }
        for sm in 0..total_sms {
            sm_streams_start[sm + 1] += sm_streams_start[sm];
        }
        let mut fill = sm_streams_start.clone();
        let mut sm_streams = vec![(0u32, 0u32); sm_streams_start[total_sms]];
        for (k, sms) in stream_sm.iter().enumerate() {
            for (s, &sm) in sms.iter().enumerate() {
                sm_streams[fill[sm as usize]] = (k as u32, s as u32);
                fill[sm as usize] += 1;
            }
        }

        // Dense slot layout: structure `a`'s 64KB granule `g` is slot
        // `slot_base[a] + g`.
        let mut slot_base = Vec::with_capacity(allocs.len());
        let mut slot_alloc: Vec<u16> = Vec::new();
        for (a, info) in allocs.iter().enumerate() {
            let n = span(info, DEMAND_SHIFT);
            assert!(
                n <= u32::MAX as usize,
                "structure {a} exceeds the fold's u32 granule index"
            );
            slot_base.push(slot_alloc.len());
            slot_alloc.resize(slot_alloc.len() + n, a as u16);
        }
        let plan = FoldPlan {
            replay,
            shape,
            sm_streams,
            sm_streams_start,
            demand_base: allocs
                .iter()
                .map(|a| a.base.raw() >> DEMAND_SHIFT)
                .collect(),
            slot_base,
            slot_alloc,
        };
        let threads = replay.threads.min(chiplets);
        let parts = in_parts(threads, |p| plan.fold(part_range(chiplets, p, threads)));

        // Join the parts in chiplet order, rebasing their start tables.
        let mut sm_start = Vec::with_capacity(total_sms + 1);
        let mut chiplet_start = Vec::with_capacity(chiplets + 1);
        sm_start.push(0);
        chiplet_start.push(0);
        let (mut groups, mut footprints) = (Vec::new(), Vec::new());
        let mut warp_insts = 0;
        for part in parts {
            let base = sm_start[sm_start.len() - 1];
            sm_start.extend(part.sm_end.iter().map(|e| e + base));
            let base = chiplet_start[chiplet_start.len() - 1];
            chiplet_start.extend(part.chiplet_end.iter().map(|e| e + base));
            groups.push(part.groups);
            footprints.push(part.footprints);
            warp_insts += part.warp_insts;
        }
        Fold {
            groups: concat(groups),
            sm_start,
            footprints: concat(footprints),
            chiplet_start,
            stream_chiplet,
            warp_insts,
        }
    }
}

/// What every part of a [`Fold::build`] shares: the streams of each SM
/// and the dense slot layout over the structures' 64KB granules.
struct FoldPlan<'r> {
    replay: &'r Replay,
    shape: Shape,
    /// SM `sm`'s streams, as `(kernel, stream)`, are
    /// `sm_streams[sm_streams_start[sm]..sm_streams_start[sm + 1]]`.
    sm_streams: Vec<(u32, u32)>,
    sm_streams_start: Vec<usize>,
    /// Per structure: `base >> 16`, its first 64KB granule.
    demand_base: Vec<u64>,
    /// Structure `a`'s 64KB granule `g` is slot `slot_base[a] + g`.
    slot_base: Vec<usize>,
    /// The structure of every slot.
    slot_alloc: Vec<u16>,
}

/// The fold of one contiguous chiplet range, with its start tables as
/// ends relative to its own arrays.
struct FoldPart {
    groups: Vec<Group>,
    sm_end: Vec<usize>,
    footprints: Vec<Footprint>,
    chiplet_end: Vec<usize>,
    warp_insts: u64,
}

impl FoldPlan<'_> {
    /// Folds the chiplets in `chs` (and their SMs) with accumulators of
    /// its own.
    fn fold(&self, chs: std::ops::Range<usize>) -> FoldPart {
        let spc = self.shape.sms_per_chiplet;
        let allocs = &self.replay.allocs;
        let (slot_base, slot_alloc) = (&self.slot_base, &self.slot_alloc);
        let nslots = slot_alloc.len();
        let line_shift = self.shape.line_bytes.trailing_zeros();
        let lines_per_gran = (BASE_PAGE_BYTES >> line_shift) as usize;

        let mut sm_acc = vec![Slot::default(); nslots];
        let mut sm_touched: Vec<usize> = Vec::new();
        // Per chiplet: distinct lines and touched pages per slot, and the
        // slot-major line bitset behind the distinct count.
        let mut ch_acc = vec![(0u32, 0u16); nslots];
        let mut ch_touched: Vec<usize> = Vec::new();
        let mut line_bits = vec![0u64; (nslots * lines_per_gran).div_ceil(64)];

        let mut part = FoldPart {
            groups: Vec::new(),
            sm_end: Vec::with_capacity(chs.len() * spc),
            footprints: Vec::new(),
            chiplet_end: Vec::with_capacity(chs.len()),
            warp_insts: 0,
        };
        let mut cur = 0usize;
        // The cached structure's [base, base + bytes) as two locals, so
        // the common stays-in-structure case is one compare.
        let (mut cur_lo, mut cur_len) = allocs.first().map_or((1, 0), |a| (a.base.raw(), a.bytes));
        for ch in chs {
            for sm in ch * spc..(ch + 1) * spc {
                let streams = self.sm_streams_start[sm]..self.sm_streams_start[sm + 1];
                for &(k, s) in &self.sm_streams[streams] {
                    let (k, s) = (k as usize, s as usize);
                    let rk = &self.replay.kernels[k];
                    let reuse = rk.desc.line_reuse.max(1) as u64;
                    let gap = rk.desc.insts_per_mem.max(1) as u64;
                    let (flat, mult) = rk.stream(s);
                    let mut stream_elems = 0u64;
                    for (&raw, &m) in flat.iter().zip(mult) {
                        // Resolve the structure (distinct VAs are sorted,
                        // so a stream crosses each structure once).
                        if raw.wrapping_sub(cur_lo) >= cur_len {
                            cur = match allocs.iter().position(|a| a.contains(VirtAddr::new(raw))) {
                                Some(idx) => idx,
                                None => continue,
                            };
                            cur_lo = allocs[cur].base.raw();
                            cur_len = allocs[cur].bytes;
                        }
                        let m = m as u64;
                        stream_elems += m;
                        let slot = slot_base[cur]
                            + ((raw >> DEMAND_SHIFT) - self.demand_base[cur]) as usize;
                        let page = 1u16 << ((raw >> PAGE_SHIFT) & 15);
                        let acc = &mut sm_acc[slot];
                        if acc.elems == 0 {
                            sm_touched.push(slot);
                        }
                        acc.elems += m;
                        acc.insts += reuse * m;
                        acc.pages |= page;
                        let line = ((raw & (BASE_PAGE_BYTES - 1)) >> line_shift) as usize;
                        let bit = slot * lines_per_gran + line;
                        let (word, mask) = (&mut line_bits[bit >> 6], 1u64 << (bit & 63));
                        let c = &mut ch_acc[slot];
                        if *word & mask == 0 {
                            *word |= mask;
                            if c.0 == 0 {
                                ch_touched.push(slot);
                            }
                            c.0 += 1;
                        }
                        c.1 |= page;
                    }
                    part.warp_insts += gap * reuse * stream_elems;
                }
                for slot in sm_touched.drain(..) {
                    let acc = std::mem::take(&mut sm_acc[slot]);
                    let alloc = slot_alloc[slot];
                    part.groups.push(Group {
                        elems: acc.elems,
                        insts: acc.insts,
                        gran: (slot - slot_base[alloc as usize]) as u32,
                        alloc,
                        pages: acc.pages,
                    });
                }
                part.sm_end.push(part.groups.len());
            }
            for slot in ch_touched.drain(..) {
                let (lines, pages) = std::mem::take(&mut ch_acc[slot]);
                let alloc = slot_alloc[slot];
                part.footprints.push(Footprint {
                    gran: (slot - slot_base[alloc as usize]) as u32,
                    lines,
                    alloc,
                    pages,
                });
                // Clear the slot's bits. Slots narrower than a word share
                // it with neighbours, which are cleared too — harmless,
                // since only touched slots have bits and all of them are
                // cleared before the next chiplet.
                let first = slot * lines_per_gran;
                line_bits[first >> 6..=(first + lines_per_gran - 1) >> 6].fill(0);
            }
            part.chiplet_end.push(part.footprints.len());
        }
        part
    }
}

/// One structure's placement and translation state under one
/// configuration: the owner of every placement granule, and the
/// translation units counted so far.
struct AllocModel {
    /// `log2(placement granule / 64KB)`.
    sub_shift: u32,
    /// `base >> log2(placement granule)`.
    gran_base: u64,
    /// Placement granule → owning chiplet; `u8::MAX` = never touched.
    owners: Vec<u8>,
    /// `base >> 16`: the structure's first 64KB granule.
    demand_base: u64,
    /// `log2(page × coverage group)` — one TLB entry's reach.
    unit_shift: u32,
    /// `base >> unit_shift`.
    unit_base: u64,
    /// The last epoch (SM or chiplet) that counted each unit; empty for
    /// 4KB units, which page masks count instead.
    seen: Vec<u32>,
    /// Index of the structure's page size in the configuration's class
    /// list.
    class: usize,
}

impl AllocModel {
    fn new(
        cfg: &SimConfig,
        a: &AllocInfo,
        placement: &PlacementModel,
        classes: &[PageSize],
    ) -> AllocModel {
        let page = placement.page_for(a.id);
        let base = a.base.raw();
        let gran_shift = page.bytes().max(BASE_PAGE_BYTES).trailing_zeros();
        let unit_shift = (page.bytes() * coverage_group(cfg, page)).trailing_zeros();
        // Units are 4KB pages or at least 64KB: only 64KB pages coalesce.
        debug_assert!(unit_shift == PAGE_SHIFT || unit_shift >= DEMAND_SHIFT);
        AllocModel {
            sub_shift: gran_shift - DEMAND_SHIFT,
            gran_base: base >> gran_shift,
            owners: vec![u8::MAX; span(a, gran_shift)],
            demand_base: base >> DEMAND_SHIFT,
            unit_shift,
            unit_base: base >> unit_shift,
            seen: if unit_shift >= DEMAND_SHIFT {
                vec![0; span(a, unit_shift)]
            } else {
                Vec::new()
            },
            class: classes.iter().position(|p| *p == page).unwrap_or(0),
        }
    }

    /// Placement-granule index of 64KB granule `gran`.
    fn granule(&self, gran: u32) -> usize {
        (((self.demand_base + gran as u64) >> self.sub_shift) - self.gran_base) as usize
    }

    /// Owner of 64KB granule `gran`.
    fn owner(&self, gran: u32) -> usize {
        self.owners[self.granule(gran)] as usize
    }

    /// Translation units of 64KB granule `gran` (touched pages `pages`)
    /// that `epoch` has not counted yet. Each epoch's groups are
    /// contiguous and hold each granule once, so a page mask is already
    /// distinct and a unit stamp never goes stale within an epoch.
    fn new_units(&mut self, gran: u32, pages: u16, epoch: u32) -> u64 {
        if self.seen.is_empty() {
            return u64::from(pages.count_ones());
        }
        let unit = (((self.demand_base + gran as u64) >> (self.unit_shift - DEMAND_SHIFT))
            - self.unit_base) as usize;
        if self.seen[unit] == epoch {
            0
        } else {
            self.seen[unit] = epoch;
            1
        }
    }
}

/// The reach models over a fold: resolves every placement granule's
/// owner, then walks the groups (per SM) and footprints (per chiplet).
/// `cfg` has passed [`Shape::of`] and `fold` was built at its shape.
fn evaluate(cfg: &SimConfig, replay: &Replay, fold: &Fold, placement: &PlacementModel) -> RunStats {
    let chiplets = cfg.num_chiplets;
    let spc = cfg.sms_per_chiplet;
    let topo = build_topology(cfg);
    let allocs = &replay.allocs;
    let na = allocs.len();
    // Distinct translation classes among the structures, in size order.
    let mut classes: Vec<PageSize> = allocs.iter().map(|a| placement.page_for(a.id)).collect();
    classes.sort_by_key(|p| p.bytes());
    classes.dedup();
    let nc = classes.len().max(1);
    let mut mods: Vec<AllocModel> = allocs
        .iter()
        .map(|a| AllocModel::new(cfg, a, placement, &classes))
        .collect();
    let total_sms = chiplets * spc;
    let sa = matches!(placement, PlacementModel::StaticAnalysis { .. });

    // Resolve every touched granule's owner up front: static analysis is
    // a pure function of the granule offset; first touch maps the
    // granule's winning replay key (folded at capture over its 64KB
    // sub-granules) to the winner's chiplet under the fold's schedule.
    for (a, am) in mods.iter_mut().enumerate() {
        let gran_shift = am.sub_shift + DEMAND_SHIFT;
        if sa {
            let (base, hint, bytes) = (allocs[a].base.raw(), allocs[a].hint, allocs[a].bytes);
            for g in 0..am.owners.len() {
                let offset = ((am.gran_base + g as u64) << gran_shift).saturating_sub(base);
                am.owners[g] = hint.sa_chiplet(bytes, offset, chiplets).index() as u8;
            }
        } else {
            let mut best = vec![u64::MAX; am.owners.len()];
            for (j, &key) in replay.first_touch[a].iter().enumerate() {
                let g = am.granule(j as u32);
                if key < best[g] {
                    best[g] = key;
                }
            }
            for (g, &key) in best.iter().enumerate() {
                if key != u64::MAX {
                    let (k, s) = ((key >> 56) as usize, (key & u32::MAX as u64) as usize);
                    am.owners[g] = fold.stream_chiplet[k][s];
                }
            }
        }
    }

    let mut st = RunStats {
        warp_insts: fold.warp_insts,
        ..RunStats::default()
    };
    let mut elems: u64 = 0;
    // Lookups and distinct translation units per (SM, class) and
    // (chiplet, class).
    let mut l1_lookups = vec![0u64; total_sms * nc];
    let mut l1_units = vec![0u64; total_sms * nc];
    let mut l2_units = vec![0u64; chiplets * nc];
    // Remote traffic per (requester, owner): post-reuse element counts
    // and distinct lines.
    let mut remote_elems = vec![0u64; chiplets * chiplets];
    let mut remote_lines = vec![0u64; chiplets * chiplets];
    // Elements landing on each owner chiplet's DRAM (bandwidth bound).
    let mut owner_elems = vec![0u64; chiplets];
    let mut per_alloc = vec![AllocAccessStats::default(); na];

    for sm in 0..total_sms {
        let ch = sm / spc;
        for g in &fold.groups[fold.sm_start[sm]..fold.sm_start[sm + 1]] {
            let a = g.alloc as usize;
            let am = &mut mods[a];
            let owner = am.owner(g.gran);
            debug_assert!(owner < chiplets, "touched granule has an owner");
            elems += g.elems;
            st.mem_insts += g.insts;
            owner_elems[owner] += g.elems;
            per_alloc[a].accesses += g.insts;
            if owner != ch {
                st.remote_insts += g.insts;
                per_alloc[a].remote += g.insts;
                remote_elems[ch * chiplets + owner] += g.elems;
            }
            l1_lookups[sm * nc + am.class] += g.elems;
            l1_units[sm * nc + am.class] += am.new_units(g.gran, g.pages, sm as u32 + 1);
        }
    }
    for ch in 0..chiplets {
        let epoch = (total_sms + ch) as u32 + 1;
        for f in &fold.footprints[fold.chiplet_start[ch]..fold.chiplet_start[ch + 1]] {
            let am = &mut mods[f.alloc as usize];
            l2_units[ch * nc + am.class] += am.new_units(f.gran, f.pages, epoch);
            let owner = am.owner(f.gran);
            if owner != ch {
                remote_lines[ch * chiplets + owner] += u64::from(f.lines);
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
            let e = cfg.tlb_entries(*page).l1 as u64;
            let miss = reach_misses(n, l1_units[sm * nc + c], e);
            st.l1tlb_misses += miss;
            l2_lookups[(sm / spc) * nc + c] += miss;
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
            let e = cfg.tlb_entries(*page).l2 as u64;
            let miss = reach_misses(n, l2_units[ch * nc + c], e);
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
    // post-L1 remote element across the fabric.
    let mut hop_sum = 0.0f64;
    for req in 0..chiplets {
        let row = req * chiplets..(req + 1) * chiplets;
        let distinct: u64 = remote_lines[row.clone()].iter().sum();
        let cached = distinct * cfg.line_bytes <= cfg.effective_l2d_bytes() as u64;
        let counts = if cached {
            &remote_lines[row]
        } else {
            &remote_elems[row]
        };
        for (own, &count) in counts.iter().enumerate() {
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
    st.cycles = estimate_cycles(cfg, &st, elems, &owner_elems, hop_sum);
    st
}

/// Coarse cycle estimate: the issue stream plus the largest of the
/// latency, per-chiplet DRAM-bandwidth, link-bandwidth and fault-service
/// bounds. Good enough to rank analytic cells against each other;
/// never cross-validated against simulated cycles.
fn estimate_cycles(
    cfg: &SimConfig,
    st: &RunStats,
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
    use crate::workload::{KernelDesc, TileMapping, TiledGemm};
    use proptest::prelude::*;

    fn quick_cfg() -> SimConfig {
        SimConfig::baseline().scaled(8)
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

    /// The per-access scan the fold replaced: every distinct stream entry
    /// updates dense per-(SM, structure) bitsets directly. Kept as the
    /// oracle the fold is tested against.
    fn predict_reference(
        cfg: &SimConfig,
        replay: &Replay,
        placement: &PlacementModel,
        schedule: impl Fn(TbId, u32) -> usize,
    ) -> RunStats {
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

        let mut st = RunStats::default();
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
                let (hint, bytes) = (allocs[a].hint, allocs[a].bytes);
                for g in 0..am.owners.len() {
                    let offset =
                        ((am.gran_base + g as u64) << am.gran_shift).saturating_sub(am.base);
                    am.owners[g] = hint.sa_chiplet(bytes, offset, chiplets).index() as u8;
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
            let (mut cur_lo, mut cur_len) =
                allocs.first().map_or((1, 0), |a| (a.base.raw(), a.bytes));
            for (s, &(ch, sm)) in metas[k].iter().enumerate() {
                let (flat, mult) = rk.stream(s);
                for (&raw, &m) in flat.iter().zip(mult) {
                    // Resolve the structure (distinct VAs are sorted, so a
                    // stream crosses each structure once).
                    if raw.wrapping_sub(cur_lo) >= cur_len {
                        last_alloc =
                            match allocs.iter().position(|a| a.contains(VirtAddr::new(raw))) {
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
        st.cycles = estimate_cycles(cfg, &st, elems, &owner_elems, hop_sum);
        st
    }

    /// SplitMix64: the deterministic hash the random workloads and
    /// schedules below draw from.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// A random small workload: two structures whose bases are not
    /// 64KB-aligned and which share a 64KB granule (the second starts
    /// inside the first's last granule), plus a 2MB-aligned third one;
    /// 1–3 kernels whose warps hit random 64B-aligned addresses with
    /// repeats.
    #[derive(Debug)]
    struct Scatter {
        allocs: Vec<AllocInfo>,
        kernels: Vec<KernelDesc>,
        seed: u64,
    }

    impl Scatter {
        fn new(seed: u64) -> Scatter {
            let r = |i: u64| mix(seed ^ mix(i));
            let hint = |i: u64, bytes: u64| match r(i) % 3 {
                0 => StaticHint::Partitioned {
                    period_bytes: [0, bytes / 2, 256 << 10][(r(i + 1) % 3) as usize],
                },
                1 => StaticHint::Shared,
                _ => StaticHint::Irregular,
            };
            let base0 = (32 << 20) + (1 + r(1) % 15) * 4096 + (r(2) % 64) * 64;
            let bytes0 = (1 + r(3) % 40) * 16384 + (1 + r(4) % 255) * 64;
            let base1 = base0 + bytes0 + (r(5) % 8) * 64;
            let bytes1 = (1 + r(6) % 80) * 8192;
            let base2 = (64 << 20) + (r(7) % 4) * (2 << 20);
            let bytes2 = (1 + r(8) % 64) * 65536;
            let allocs = [(base0, bytes0), (base1, bytes1), (base2, bytes2)]
                .iter()
                .enumerate()
                .map(|(i, &(base, bytes))| AllocInfo {
                    id: AllocId::new(i as u16),
                    base: VirtAddr::new(base),
                    bytes,
                    name: format!("s{i}"),
                    hint: hint(10 + 2 * i as u64, bytes),
                })
                .collect();
            let kernels = (0..1 + r(20) % 3)
                .map(|k| KernelDesc {
                    num_tbs: 1 + (r(30 + k) % 12) as u32,
                    warps_per_tb: 1 + (r(40 + k) % 4) as u32,
                    insts_per_mem: 1 + (r(50 + k) % 4) as u32,
                    line_reuse: 1 + (r(60 + k) % 8) as u32,
                })
                .collect();
            Scatter {
                allocs,
                kernels,
                seed,
            }
        }
    }

    impl Workload for Scatter {
        fn name(&self) -> &str {
            "scatter"
        }

        fn allocs(&self) -> &[AllocInfo] {
            &self.allocs
        }

        fn num_kernels(&self) -> usize {
            self.kernels.len()
        }

        fn kernel(&self, k: usize) -> KernelDesc {
            self.kernels[k]
        }

        fn warp_accesses(&self, k: usize, tb: TbId, warp: WarpId) -> Vec<VirtAddr> {
            let stream = mix(self.seed
                ^ mix(((k as u64) << 40) | ((tb.index() as u64) << 8) | warp.index() as u64));
            let len = 1 + stream % 48;
            let mut out: Vec<VirtAddr> = Vec::new();
            for i in 0..len {
                let h = mix(stream ^ i);
                // Revisit an earlier access a quarter of the time, so
                // streams carry multiplicities.
                if h.is_multiple_of(4) && !out.is_empty() {
                    out.push(out[(h >> 8) as usize % out.len()]);
                    continue;
                }
                let a = &self.allocs[(h >> 16) as usize % self.allocs.len()];
                let offset = ((h >> 24) % a.bytes) & !63;
                out.push(VirtAddr::new(a.base.raw() + offset));
            }
            out
        }
    }

    /// A configuration drawn from `seed`: 2–16 chiplets, 1–4 SMs each,
    /// 64/128/256B lines, and any of the translation-reach variants.
    fn random_cfg(seed: u64) -> SimConfig {
        let mut cfg = quick_cfg();
        cfg.num_chiplets = [2, 4, 8, 16][(seed % 4) as usize];
        cfg.sms_per_chiplet = 1 + (mix(seed) % 4) as usize;
        cfg.line_bytes = [64, 128, 256][(mix(seed ^ 1) % 3) as usize];
        match mix(seed ^ 2) % 4 {
            0 => cfg.translation.coalescing_64k = true,
            1 => cfg.translation.ideal_2m_reach = true,
            2 => cfg.translation.barre_pattern = true,
            _ => {}
        }
        cfg
    }

    /// A placement model drawn from `seed`: all three model kinds at
    /// every page size.
    fn random_placement(seed: u64, allocs: &[AllocInfo], chiplets: usize) -> PlacementModel {
        let page = |s: u64| PageSize::ALL[(mix(s) % PageSize::ALL.len() as u64) as usize];
        match seed % 4 {
            0 => PlacementModel::FirstTouch { page: page(seed) },
            1 => PlacementModel::StaticAnalysis { page: page(seed) },
            2 => PlacementModel::clap(allocs, chiplets),
            _ => PlacementModel::PerAllocFirstTouch {
                sizes: allocs
                    .iter()
                    .map(|a| (a.id, page(seed ^ a.id.index() as u64)))
                    .collect(),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Fold + evaluate reproduces the per-access scan exactly (every
        /// `RunStats` field, so `cycles` pins the hop sum too), for
        /// random workloads (unaligned structures sharing a granule, and
        /// GEMMs), schedules, placement models, chiplet counts, SM
        /// counts and line sizes.
        #[test]
        fn fold_matches_the_per_access_scan(seed in 0u64..u64::MAX) {
            let cfg = random_cfg(seed);
            let chiplets = cfg.num_chiplets;
            let replay = if mix(seed ^ 3).is_multiple_of(3) {
                let (mt, nt) = (1 + (seed >> 8) as usize % 5, 1 + (seed >> 16) as usize % 5);
                Replay::capture(&TiledGemm::new(mt, nt, 1 + (seed >> 24) as usize % 3, TileMapping::RowMajor))
            } else {
                Replay::capture(&Scatter::new(seed))
            };
            let pm = random_placement(mix(seed ^ 4), &replay.allocs, chiplets);
            let default = |tb: TbId, n: u32| tb_chiplet(tb, n, chiplets);
            let want = predict_reference(&cfg, &replay, &pm, default);
            let got = replay.predict(&cfg, &pm).unwrap();
            prop_assert!(got == want, "default schedule: {got:?}\nvs\n{want:?}");
            // Arbitrary schedules, out-of-range chiplets included (both
            // paths clamp them to the last chiplet).
            let arbitrary = |tb: TbId, _: u32| (mix(seed ^ tb.index() as u64) % (chiplets as u64 + 2)) as usize;
            let want = predict_reference(&cfg, &replay, &pm, arbitrary);
            let got = replay.predict_scheduled(&cfg, &pm, arbitrary).unwrap();
            prop_assert!(got == want, "arbitrary schedule: {got:?}\nvs\n{want:?}");
        }
    }

    /// One replay predicted under shapes A, B, A (different chiplet
    /// counts, SM counts and line sizes) keeps one fold per shape and
    /// matches a fresh capture every time.
    #[test]
    fn memoized_folds_match_fresh_captures() {
        let w = Scatter::new(7);
        let a = quick_cfg();
        let mut b = quick_cfg();
        b.num_chiplets = 8;
        b.sms_per_chiplet = 3;
        b.line_bytes = 64;
        let replay = Replay::capture(&w);
        for cfg in [&a, &b, &a] {
            for pm in [
                PlacementModel::FirstTouch {
                    page: PageSize::Size4K,
                },
                PlacementModel::StaticAnalysis {
                    page: PageSize::Size2M,
                },
                PlacementModel::clap(w.allocs(), cfg.num_chiplets),
            ] {
                let memo = replay.predict(cfg, &pm).unwrap();
                let fresh = Replay::capture(&w).predict(cfg, &pm).unwrap();
                assert_eq!(memo, fresh);
            }
        }
        assert_eq!(replay.folds.lock().unwrap().len(), 2);
    }

    /// A replay, its folds and its predictions are the same at every
    /// thread count: threadblock ranges merge back in order, first-touch
    /// tables by minimum, chiplet ranges in chiplet order. Kernels of 1–12
    /// threadblocks and a 7×5-tile GEMM leave parts uneven, and five
    /// threads leave some empty.
    #[test]
    fn replay_and_fold_are_identical_at_every_thread_count() {
        let gemm = TiledGemm::new(7, 5, 2, TileMapping::RowMajor);
        for seed in 0..24u64 {
            let scatter = Scatter::new(seed);
            let w: &dyn Workload = if seed % 4 == 3 { &gemm } else { &scatter };
            let cfg = random_cfg(seed);
            let chiplets = cfg.num_chiplets;
            let shape = Shape::of(&cfg).unwrap();
            let default = |tb: TbId, n: u32| tb_chiplet(tb, n, chiplets);
            let arbitrary =
                |tb: TbId, _: u32| (mix(seed ^ tb.index() as u64) % (chiplets as u64 + 2)) as usize;
            let serial = Replay::capture(w);
            let pm = random_placement(mix(seed ^ 4), &serial.allocs, chiplets);
            let want_fold = Fold::build(&serial, shape, default);
            let want = serial.predict(&cfg, &pm).unwrap();
            let want_scheduled = serial.predict_scheduled(&cfg, &pm, arbitrary).unwrap();
            for threads in [2, 3, 5] {
                let replay = Replay::capture_with(w, threads);
                assert_eq!(replay.threads, threads);
                assert_eq!(replay.first_touch, serial.first_touch, "seed {seed}");
                for (got, want) in replay.kernels.iter().zip(&serial.kernels) {
                    assert_eq!(got.stream_tb, want.stream_tb, "seed {seed}");
                    assert!(got.runs.len() <= threads);
                    for s in 0..want.stream_tb.len() {
                        assert_eq!(got.stream(s), want.stream(s), "seed {seed} stream {s}");
                    }
                }
                assert_eq!(replay.kernels.len(), serial.kernels.len());
                let fold = Fold::build(&replay, shape, default);
                assert_eq!(fold.groups, want_fold.groups, "seed {seed}");
                assert_eq!(fold.sm_start, want_fold.sm_start, "seed {seed}");
                assert_eq!(fold.footprints, want_fold.footprints, "seed {seed}");
                assert_eq!(fold.chiplet_start, want_fold.chiplet_start, "seed {seed}");
                assert_eq!(fold.stream_chiplet, want_fold.stream_chiplet);
                assert_eq!(fold.warp_insts, want_fold.warp_insts);
                assert_eq!(replay.predict(&cfg, &pm).unwrap(), want, "seed {seed}");
                let scheduled = replay.predict_scheduled(&cfg, &pm, arbitrary).unwrap();
                assert_eq!(scheduled, want_scheduled, "seed {seed}");
            }
        }
    }

    /// One part runs on the calling thread: a serial capture or fold
    /// spawns nothing.
    #[test]
    fn one_part_spawns_no_thread() {
        let caller = std::thread::current().id();
        assert_eq!(in_parts(1, |_| std::thread::current().id()), [caller]);
        let ids = in_parts(3, |_| std::thread::current().id());
        assert_eq!(ids[0], caller);
        assert!(ids[1..].iter().all(|id| *id != caller));
    }

    #[test]
    fn replay_is_shareable_across_workers() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Replay>();
    }

    #[test]
    fn gemm_prediction_is_sane() {
        let w = TiledGemm::new(8, 8, 4, TileMapping::RowMajor);
        let s = Replay::capture(&w)
            .predict(
                &quick_cfg(),
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
        let s = Replay::capture(&w)
            .predict(
                &quick_cfg(),
                &PlacementModel::FirstTouch {
                    page: PageSize::Size64K,
                },
            )
            .unwrap();
        assert_eq!(s.remote_insts, 0);
        assert_eq!(s.interconnect_transfers, 0);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let w = TiledGemm::new(2, 2, 2, TileMapping::RowMajor);
        let pm = PlacementModel::FirstTouch {
            page: PageSize::Size64K,
        };
        let mut three = quick_cfg();
        three.num_chiplets = 3;
        // Valid machines beyond the model's limits: owners fit a byte,
        // lines fit a 64KB granule.
        let mut wide = quick_cfg();
        wide.num_chiplets = 256;
        let mut long_lines = quick_cfg();
        long_lines.line_bytes = 128 << 10;
        for cfg in [three, wide, long_lines] {
            let e = Replay::capture(&w).predict(&cfg, &pm);
            assert!(matches!(e, Err(SimError::ConfigInvalid { .. })), "{e:?}");
        }
    }
}
