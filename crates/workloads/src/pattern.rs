//! Per-data-structure access patterns.
//!
//! Each pattern realises one chiplet-locality shape from the paper's §3.4
//! taxonomy. The key construction is [`Pattern::Sliced`]: within every
//! `period` bytes of the structure, threadblock `t` of `n` touches the
//! `[t/n, (t+1)/n)` slice. Under contiguous TB scheduling (`tb_chiplet`),
//! each period therefore splits into `num_chiplets` contiguous per-chiplet
//! segments of `period / num_chiplets` bytes — the structure's
//! chiplet-locality group size. `period == 0` denotes a single period (pure
//! block partitioning: huge groups, large-page friendly).

use mcm_types::{TbId, VirtAddr, WarpId};
use rand::rngs::StdRng;
use rand::Rng;

/// Cache-line size the generators work in: patterns walk, stride and align
/// their positions in lines of this many bytes.
///
/// Generated addresses are multiples of `LINE` with one exception: when a
/// `Sliced` or `Irregular` period has fewer lines than the kernel has
/// threadblocks, a threadblock's slice starts at `tb * period / num_tbs`,
/// which can land mid-line (12.4% of BFS's quick accesses).
pub const LINE: u64 = 128;

/// How one kernel part touches one data structure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pattern {
    /// C-periodic slicing (see module docs). `halo` is the probability an
    /// access lands in the neighbouring TB's slice (stencil boundary
    /// exchange).
    Sliced {
        /// Slicing period in bytes; 0 = whole structure.
        period: u64,
        /// Probability of touching the adjacent slice.
        halo: f64,
    },
    /// Uniform random over the structure (globally scattered data).
    Uniform,
    /// Globally shared data that every threadblock streams *in order*
    /// (GEMM matrix B: all tiles consume B along the K dimension
    /// together). Fill is prefix-dense but every chiplet touches
    /// everything.
    SharedSweep,
    /// A 2D working set: threadblock tiles of `tile_rows` rows over an
    /// image whose row is `row_bytes`. Contiguous threadblocks tile
    /// row-major, so chiplets own horizontal bands (large locality groups,
    /// 2MB-friendly) while each TB touches `tile_rows` row-strided pages —
    /// the TLB pressure 2D kernels exhibit.
    Tiled2D {
        /// Bytes per image row.
        row_bytes: u64,
        /// Rows per threadblock tile.
        tile_rows: u64,
    },
    /// With probability `locality`, behaves like `Sliced { period }`;
    /// otherwise shared. `spread == 0` models globally shared reads (all
    /// chiplets stream the same data: graph neighbours, frontier pulls) as
    /// an in-order shared sweep; `spread > 0` scatters within ±`spread`
    /// bytes of the in-order position (local irregularity, e.g.
    /// pathfinder's bounded row neighbourhoods).
    Irregular {
        /// Slicing period for the local fraction; 0 = whole structure.
        period: u64,
        /// Fraction of accesses that respect the slicing.
        locality: f64,
        /// Scatter radius in bytes for the irregular fraction (0 =
        /// whole structure).
        spread: u64,
    },
    /// Block-partitioned like `Sliced { period: 0 }` but touching only
    /// every `stride_pages`-th 64KB page of the slice (triangular/sparse
    /// sweeps, e.g. LUD): VA blocks fill slowly and non-contiguously.
    SparseStrided {
        /// Stride between touched pages, in 64KB pages.
        stride_pages: u64,
    },
}

impl Pattern {
    /// Appends the first `n` unique line addresses of warp `warp` of
    /// threadblock `tb` to `out`: `base` plus each line's offset into the
    /// structure.
    ///
    /// `bytes` is the structure (or window) length, at least [`LINE`];
    /// `num_tbs` and `warps_per_tb` describe the launch. `rng` supplies
    /// randomness for `Uniform`/`Irregular`/halo decisions and is part of
    /// the warp's deterministic stream. Everything that depends only on
    /// the warp is computed once per call; the walk over the `n` lines
    /// advances counters instead of dividing.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fill(
        &self,
        n: usize,
        tb: TbId,
        warp: WarpId,
        num_tbs: u32,
        warps_per_tb: u32,
        bytes: u64,
        base: VirtAddr,
        rng: &mut StdRng,
        out: &mut Vec<VirtAddr>,
    ) {
        match *self {
            Pattern::Sliced { period, halo } => {
                let mut s =
                    Slicing::new(tb, warp, num_tbs, warps_per_tb, bytes, period, halo > 0.0);
                out.extend((0..n).map(|_| {
                    let off = s.offset(halo > 0.0 && rng.gen_bool(halo));
                    s.advance();
                    base + off
                }));
            }
            Pattern::Uniform => {
                let lines = (bytes / LINE).max(1);
                out.extend((0..n).map(|_| base + rng.gen_range(0..lines) * LINE));
            }
            Pattern::SharedSweep => {
                let mut sweep = Sweep::new(n, tb, warp, bytes);
                out.extend((0..n).map(|_| base + sweep.next()));
            }
            Pattern::Tiled2D {
                row_bytes,
                tile_rows,
            } => {
                // TB `t` covers a `tile_rows`-row tile and walks it row by
                // row, so it touches `tile_rows` row-strided pages.
                // Contiguous TBs tile row-major.
                let row_bytes = row_bytes.clamp(LINE, bytes);
                let image_rows = (bytes / row_bytes).max(1);
                let tile_rows = tile_rows.clamp(1, image_rows);
                let tiles_per_row = (num_tbs as u64 * tile_rows / image_rows).max(1);
                let tile_w = (row_bytes / tiles_per_row).max(LINE);
                let sub_w = (tile_w / warps_per_tb as u64).max(LINE);
                let lines_pr = (sub_w / LINE).clamp(1, 2) as usize;
                let tb = tb.index() as u64;
                let col = tb % tiles_per_row * tile_w
                    + below(warp.index() as u64, warps_per_tb as u64) * sub_w;
                let step = if lines_pr == 2 { sub_w / 2 } else { sub_w };
                let cols = [col, col + step].map(|c| (c & !(LINE - 1)).min(row_bytes - LINE));
                let first_row = tb / tiles_per_row * tile_rows * row_bytes;
                let (mut c, mut r, mut row) = (0, 0, first_row);
                out.extend((0..n).map(|_| {
                    let off = (row + cols[c]).min(bytes - LINE);
                    c += 1;
                    if c == lines_pr {
                        c = 0;
                        r += 1;
                        row += row_bytes;
                        if r == tile_rows {
                            r = 0;
                            row = first_row;
                        }
                    }
                    base + off
                }));
            }
            Pattern::Irregular {
                period,
                locality,
                spread,
            } => {
                let mut s = Slicing::new(tb, warp, num_tbs, warps_per_tb, bytes, period, false);
                let mut sweep = Sweep::new(n, tb, warp, bytes);
                let locality = locality.clamp(0.0, 1.0);
                out.extend((0..n).map(|_| {
                    let local = s.offset(false);
                    s.advance();
                    let shared = sweep.next();
                    let off = if rng.gen_bool(locality) {
                        local
                    } else if spread == 0 {
                        shared
                    } else {
                        // Scatter behind the in-order position: local
                        // irregularity revisits data the sweep already
                        // produced, so owners win first-touch races while
                        // the accesses themselves still cross slice (and
                        // chiplet) boundaries.
                        let lo = local.saturating_sub(spread);
                        let lines = ((local - lo) / LINE).max(1);
                        lo + rng.gen_range(0..lines) * LINE
                    };
                    base + off
                }));
            }
            Pattern::SparseStrided { stride_pages } => {
                // Walk the slice's pages with a stride (coprime strides
                // eventually cover every page, but coverage is
                // sparse-in-time: VA blocks are only partially mapped
                // while CLAP profiles — the LUD edge case of §4.5).
                const PAGE: u64 = 64 * 1024;
                let tb = tb.index() as u64;
                let slice_pages = (bytes / num_tbs as u64).max(PAGE) / PAGE;
                let slice_start = tb * bytes / num_tbs as u64;
                let step = stride_pages.max(1) % slice_pages;
                let (mut page, mut in_round) = (0, 0);
                let mut line = warp.index() as u64 * 8 % (PAGE / LINE);
                out.extend((0..n).map(|_| {
                    let off = (slice_start + page * PAGE + line * LINE).min(bytes - LINE);
                    page += step;
                    if page >= slice_pages {
                        page -= slice_pages;
                    }
                    in_round += 1;
                    if in_round == slice_pages {
                        in_round = 0;
                        line = (line + 1) % (PAGE / LINE);
                    }
                    base + off
                }));
            }
        }
    }

    /// The static-analysis view of this pattern (what LASP/SUV would
    /// conclude; §5.2).
    pub fn static_hint(&self) -> mcm_sim::StaticHint {
        match *self {
            Pattern::Sliced { period, .. } => mcm_sim::StaticHint::Partitioned {
                period_bytes: period,
            },
            // Row-major tiling yields contiguous per-chiplet bands.
            Pattern::Tiled2D { .. } => mcm_sim::StaticHint::Partitioned { period_bytes: 0 },
            Pattern::SparseStrided { .. } => mcm_sim::StaticHint::Partitioned { period_bytes: 0 },
            Pattern::Uniform | Pattern::SharedSweep => mcm_sim::StaticHint::Shared,
            Pattern::Irregular { .. } => mcm_sim::StaticHint::Irregular,
        }
    }
}

/// `a % b`, without a division in the usual case `a < b` (a warp index
/// and the warps per threadblock): a division costs more than generating
/// a line does.
fn below(a: u64, b: u64) -> u64 {
    if a < b {
        a
    } else {
        a % b
    }
}

/// A warp's walk through its threadblock's slices (see module docs): TB
/// `t` owns slice `[t/n, (t+1)/n)` of each period; the warp sub-divides
/// the slice and walks up to 4 positions per period, spread through its
/// sub-slice.
///
/// Warps sweep periods front-to-back inside a small stagger window
/// (periods/8): the address space fills prefix-dense — as wavefront
/// kernel execution does, so early VA blocks become fully mapped during
/// PMM — while the live translation working set spans a realistic
/// multi-period window rather than a single period.
struct Slicing {
    period: u64,
    periods: u64,
    /// Positions per period.
    lines_pp: u64,
    /// Distance between positions, before line alignment.
    step: u64,
    /// Start of the warp's sub-slice in its own TB's slice.
    own: u64,
    /// The same in the previous TB's slice, if the walk reads it. Halo
    /// reads target the *previous* TB: stencil boundary reads consume
    /// data the neighbour has already produced, so the owner is (almost)
    /// always the first toucher of its own pages.
    halo: u64,
    /// Last line of a period, and of the structure.
    period_last: u64,
    last: u64,
    /// Position within the period, and the period.
    l: u64,
    j: u64,
}

impl Slicing {
    fn new(
        tb: TbId,
        warp: WarpId,
        num_tbs: u32,
        warps_per_tb: u32,
        bytes: u64,
        period: u64,
        halo: bool,
    ) -> Self {
        let (period, periods) = if period == 0 || period >= bytes {
            (bytes, 1)
        } else {
            (period, bytes / period)
        };
        let (tbs, wpt) = (num_tbs as u64, warps_per_tb as u64);
        let (tb, warp) = (tb.index() as u64, warp.index() as u64);
        let slice = (period / tbs).max(LINE);
        let sub = (slice / wpt).max(LINE);
        let lines_pp = (sub / LINE).clamp(1, 4);
        // The stagger window is periods/8, at least 1.
        let j = if periods < 16 {
            0
        } else {
            (tb * wpt + warp).wrapping_mul(0x9E37_79B9) % (periods / 8)
        };
        let sub_start = below(warp, wpt) * sub;
        Slicing {
            period,
            periods,
            lines_pp,
            // Constant divisors compile to shifts and a multiply.
            step: match lines_pp {
                1 => sub,
                2 => sub / 2,
                3 => sub / 3,
                _ => sub / 4,
            },
            own: tb * period / tbs + sub_start,
            halo: if halo {
                (tb + tbs - 1) % tbs * period / tbs + sub_start
            } else {
                0
            },
            period_last: period - LINE,
            last: bytes - LINE,
            l: 0,
            j,
        }
    }

    /// Offset of the current position, in the previous TB's slice if
    /// `halo`.
    fn offset(&self, halo: bool) -> u64 {
        let start = if halo { self.halo } else { self.own };
        let within = (self.l * self.step) & !(LINE - 1);
        (self.j * self.period + (start + within).min(self.period_last)).min(self.last)
    }

    fn advance(&mut self) {
        self.l += 1;
        if self.l == self.lines_pp {
            self.l = 0;
            self.j += 1;
            if self.j == self.periods {
                self.j = 0;
            }
        }
    }
}

/// All warps stream the structure front-to-back together; each warp
/// samples every `bytes / n` bytes with a per-warp jitter so the union of
/// warps covers every page while fill stays prefix-dense.
struct Sweep {
    stride: u64,
    /// `max(bytes, LINE)`: positions wrap around the structure.
    wrap: u64,
    pos: u64,
}

impl Sweep {
    fn new(n: usize, tb: TbId, warp: WarpId, bytes: u64) -> Self {
        let stride = (bytes / n.max(1) as u64).max(LINE) & !(LINE - 1);
        let h = (tb.index() as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(warp.index() as u64)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        // The jitter is below the stride, and the stride at most `wrap`,
        // so one subtraction keeps every step in range.
        let jitter = (h % (stride / LINE).max(1)) * LINE;
        Sweep {
            stride,
            wrap: bytes.max(LINE),
            pos: jitter,
        }
    }

    /// The current position; steps to the next.
    fn next(&mut self) -> u64 {
        let pos = self.pos;
        self.pos += self.stride;
        if self.pos >= self.wrap {
            self.pos -= self.wrap;
        }
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    // The per-index reference generator: one offset per call, every
    // invariant recomputed. `fill` is checked against it.

    impl Pattern {
        /// The `k`-th unique line address (an offset into the structure) for
        /// warp `warp` of threadblock `tb`.
        ///
        /// `bytes` is the structure (or window) length; `num_tbs` and
        /// `warps_per_tb` describe the launch. `rng` supplies randomness for
        /// `Uniform`/`Irregular`/halo decisions and is part of the warp's
        /// deterministic stream.
        #[allow(clippy::too_many_arguments)]
        fn offset(
            &self,
            k: usize,
            n_unique: usize,
            tb: TbId,
            warp: WarpId,
            num_tbs: u32,
            warps_per_tb: u32,
            bytes: u64,
            rng: &mut StdRng,
        ) -> u64 {
            match *self {
                Pattern::Sliced { period, halo } => {
                    let jitter = halo > 0.0 && rng.gen_bool(halo);
                    sliced_offset(k, tb, warp, num_tbs, warps_per_tb, bytes, period, jitter)
                }
                Pattern::Uniform => uniform_offset(bytes, rng),
                Pattern::SharedSweep => shared_sweep_offset(k, n_unique, tb, warp, bytes),
                Pattern::Tiled2D {
                    row_bytes,
                    tile_rows,
                } => tiled_offset(
                    k,
                    tb,
                    warp,
                    num_tbs,
                    warps_per_tb,
                    bytes,
                    row_bytes,
                    tile_rows,
                ),
                Pattern::Irregular {
                    period,
                    locality,
                    spread,
                } => {
                    let base =
                        sliced_offset(k, tb, warp, num_tbs, warps_per_tb, bytes, period, false);
                    if rng.gen_bool(locality.clamp(0.0, 1.0)) {
                        base
                    } else if spread == 0 {
                        shared_sweep_offset(k, n_unique, tb, warp, bytes)
                    } else {
                        // Scatter behind the in-order position: local
                        // irregularity revisits data the sweep already
                        // produced, so owners win first-touch races while the
                        // accesses themselves still cross slice (and chiplet)
                        // boundaries.
                        let lo = base.saturating_sub(spread);
                        let lines = ((base - lo) / LINE).max(1);
                        lo + rng.gen_range(0..lines) * LINE
                    }
                }
                Pattern::SparseStrided { stride_pages } => {
                    sparse_offset(k, tb, warp, num_tbs, warps_per_tb, bytes, stride_pages)
                }
            }
        }
    }

    fn uniform_offset(bytes: u64, rng: &mut StdRng) -> u64 {
        let lines = (bytes / LINE).max(1);
        rng.gen_range(0..lines) * LINE
    }

    /// All warps stream the structure front-to-back together; each warp
    /// samples every `bytes / n_unique` bytes with a per-warp jitter so the
    /// union of warps covers every page while fill stays prefix-dense.
    fn shared_sweep_offset(k: usize, n_unique: usize, tb: TbId, warp: WarpId, bytes: u64) -> u64 {
        let stride = (bytes / n_unique.max(1) as u64).max(LINE) & !(LINE - 1);
        let h = (tb.index() as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(warp.index() as u64)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let jitter = (h % (stride / LINE).max(1)) * LINE;
        (k as u64 * stride + jitter) % bytes.max(LINE)
    }

    /// See module docs: TB `t` owns slice `[t/n, (t+1)/n)` of each period; the
    /// warp sub-divides the slice and walks a bounded number of positions per
    /// period, staggered across periods so the union of warps covers the
    /// structure.
    #[allow(clippy::too_many_arguments)]
    fn sliced_offset(
        k: usize,
        tb: TbId,
        warp: WarpId,
        num_tbs: u32,
        warps_per_tb: u32,
        bytes: u64,
        period: u64,
        halo_jitter: bool,
    ) -> u64 {
        let period = if period == 0 || period > bytes {
            bytes
        } else {
            period
        };
        let periods = (bytes / period).max(1);
        let slice = (period / num_tbs as u64).max(LINE);
        let sub = (slice / warps_per_tb as u64).max(LINE);
        // Up to 4 distinct positions per period per warp, spread through the
        // sub-slice. Warps sweep periods front-to-back inside a small stagger
        // window (periods/8): the address space fills prefix-dense — as
        // wavefront kernel execution does, so early VA blocks become fully
        // mapped during PMM — while the live translation working set spans a
        // realistic multi-period window rather than a single period.
        let lines_pp = (sub / LINE).clamp(1, 4);
        let window = (periods / 8).max(1);
        let j0 = (tb.index() as u64 * warps_per_tb as u64 + warp.index() as u64)
            .wrapping_mul(0x9E37_79B9)
            % window;
        let j = (j0 + k as u64 / lines_pp) % periods;
        let l = k as u64 % lines_pp;
        // Halo reads target the *previous* TB's slice: stencil boundary reads
        // consume data the neighbour has already produced, so the owner is
        // (almost) always the first toucher of its own pages.
        let tb_for_slice = if halo_jitter {
            (tb.index() as u64 + num_tbs as u64 - 1) % num_tbs as u64
        } else {
            tb.index() as u64
        };
        let slice_start = (tb_for_slice * period) / num_tbs as u64;
        let sub_start = warp.index() as u64 % warps_per_tb as u64 * sub;
        let within = (l * (sub / lines_pp)) & !(LINE - 1);
        let off = j * period + (slice_start + sub_start + within).min(period - LINE);
        off.min(bytes - LINE)
    }

    /// Row-major 2D tiling: TB `t` covers a `tile_rows`-row tile; access `k`
    /// walks the tile row by row, so a TB touches `tile_rows` row-strided
    /// pages. Contiguous TBs tile row-major.
    #[allow(clippy::too_many_arguments)]
    fn tiled_offset(
        k: usize,
        tb: TbId,
        warp: WarpId,
        num_tbs: u32,
        warps_per_tb: u32,
        bytes: u64,
        row_bytes: u64,
        tile_rows: u64,
    ) -> u64 {
        let row_bytes = row_bytes.clamp(LINE, bytes);
        let image_rows = (bytes / row_bytes).max(1);
        let tile_rows = tile_rows.clamp(1, image_rows);
        let tile_cols_total = num_tbs as u64 * tile_rows / image_rows;
        let tiles_per_row = tile_cols_total.max(1);
        let tile_w = (row_bytes / tiles_per_row).max(LINE);
        let tile_row_idx = tb.index() as u64 / tiles_per_row;
        let tile_col_idx = tb.index() as u64 % tiles_per_row;
        let sub_w = (tile_w / warps_per_tb as u64).max(LINE);
        let lines_pr = (sub_w / LINE).clamp(1, 2);
        let r = (k as u64 / lines_pr) % tile_rows;
        let col = tile_col_idx * tile_w
            + warp.index() as u64 % warps_per_tb as u64 * sub_w
            + (k as u64 % lines_pr) * (sub_w / lines_pr);
        let off =
            (tile_row_idx * tile_rows + r) * row_bytes + (col & !(LINE - 1)).min(row_bytes - LINE);
        off.min(bytes - LINE)
    }

    fn sparse_offset(
        k: usize,
        tb: TbId,
        warp: WarpId,
        num_tbs: u32,
        warps_per_tb: u32,
        bytes: u64,
        stride_pages: u64,
    ) -> u64 {
        const PAGE: u64 = 64 * 1024;
        let slice = (bytes / num_tbs as u64).max(PAGE);
        let slice_start = (tb.index() as u64 * bytes) / num_tbs as u64;
        let slice_pages = slice / PAGE;
        // Walk the slice's pages with a stride (coprime strides eventually
        // cover every page, but coverage is sparse-in-time: VA blocks are only
        // partially mapped while CLAP profiles — the LUD edge case of §4.5).
        let page = (k as u64 * stride_pages.max(1)) % slice_pages;
        let line_in_page = (k as u64 / slice_pages + warp.index() as u64 * 8) % (PAGE / LINE);
        let off = slice_start + page * PAGE + line_in_page * LINE;
        let _ = warps_per_tb;
        off.min(bytes - LINE)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// Periods to slice `bytes` by: whole structure, beyond the
    /// structure, and a random line multiple (dividing `bytes` or not).
    fn periods(r: &mut StdRng, bytes: u64) -> [u64; 3] {
        let lines = bytes / LINE;
        [
            0,
            bytes.next_multiple_of(LINE) + r.gen_range(1..4) * LINE,
            r.gen_range(1..lines + 1) * LINE,
        ]
    }

    fn probabilities(r: &mut StdRng) -> [f64; 3] {
        [0.0, 1.0, r.gen_range(1..1000) as f64 / 1000.0]
    }

    /// What the oracle comparison has covered, by construction of the
    /// random cases.
    #[derive(Default)]
    struct Coverage {
        lines_pp: [bool; 4],
        lines_pr: [bool; 2],
        period_wraps: bool,
        tile_wraps: bool,
        period_divides: bool,
        period_does_not_divide: bool,
        more_tbs_than_lines: bool,
    }

    #[test]
    fn fill_matches_the_per_index_oracle() {
        let mut seen = Coverage::default();
        for case in 0..256 {
            let mut r = StdRng::seed_from_u64(case);
            // Windows: any length of at least a line, at any offset.
            let bytes = match r.gen_range(0..3) {
                0 => r.gen_range(1..64) * LINE,
                1 => r.gen_range(1..4096) * LINE,
                _ => r.gen_range(LINE..64 << 20),
            };
            let base = VirtAddr::new((2 << 20) + r.gen_range(0..bytes));
            let num_tbs = match r.gen_range(0..3) {
                0 => r.gen_range(1..9),
                1 => r.gen_range(1..257),
                _ => r.gen_range(256..4097),
            };
            let warps_per_tb = r.gen_range(1..9);
            let tb = TbId::new(r.gen_range(0..num_tbs));
            let warp = WarpId::new(r.gen_range(0..warps_per_tb));
            let n = r.gen_range(1..600);

            let mut patterns = vec![
                Pattern::Uniform,
                Pattern::SharedSweep,
                Pattern::Tiled2D {
                    row_bytes: r.gen_range(LINE / 2..2 * bytes),
                    tile_rows: r.gen_range(0..12),
                },
                Pattern::SparseStrided {
                    stride_pages: r.gen_range(0..10),
                },
            ];
            for period in periods(&mut r, bytes) {
                if period != 0 && period < bytes {
                    if bytes % period == 0 {
                        seen.period_divides = true;
                    } else {
                        seen.period_does_not_divide = true;
                    }
                }
                for p in probabilities(&mut r) {
                    patterns.push(Pattern::Sliced { period, halo: p });
                    for spread in [0, r.gen_range(1..1 << 20)] {
                        patterns.push(Pattern::Irregular {
                            period,
                            locality: p,
                            spread,
                        });
                    }
                }
                let s = Slicing::new(tb, warp, num_tbs, warps_per_tb, bytes, period, false);
                seen.lines_pp[s.lines_pp as usize - 1] = true;
                seen.period_wraps |= s.j + n as u64 / s.lines_pp >= s.periods;
                seen.more_tbs_than_lines |= (num_tbs as u64) > s.period / LINE;
            }

            for pattern in patterns {
                if let Pattern::Tiled2D {
                    row_bytes,
                    tile_rows,
                } = pattern
                {
                    let row_bytes = row_bytes.clamp(LINE, bytes);
                    let tile_rows = tile_rows.clamp(1, (bytes / row_bytes).max(1));
                    let tiles_per_row =
                        (num_tbs as u64 * tile_rows / (bytes / row_bytes).max(1)).max(1);
                    let sub_w =
                        ((row_bytes / tiles_per_row).max(LINE) / warps_per_tb as u64).max(LINE);
                    let lines_pr = (sub_w / LINE).clamp(1, 2);
                    seen.lines_pr[lines_pr as usize - 1] = true;
                    seen.tile_wraps |= n as u64 / lines_pr > tile_rows;
                }
                let seed = r.gen_range(0..u64::MAX);
                let (mut want_rng, mut got_rng) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let mut want = vec![VirtAddr::new(1)];
                want.extend((0..n).map(|k| {
                    base + pattern.offset(
                        k,
                        n,
                        tb,
                        warp,
                        num_tbs,
                        warps_per_tb,
                        bytes,
                        &mut want_rng,
                    )
                }));
                // `fill` appends behind whatever the buffer holds.
                let mut got = vec![VirtAddr::new(1)];
                pattern.fill(
                    n,
                    tb,
                    warp,
                    num_tbs,
                    warps_per_tb,
                    bytes,
                    base,
                    &mut got_rng,
                    &mut got,
                );
                let shape = (n, tb, warp, num_tbs, warps_per_tb, bytes);
                assert_eq!(got, want, "case {case}: {pattern:?} {shape:?}");
                // Equal generator states: both made the same draws, so
                // the next `next_u64` agrees too.
                assert_eq!(
                    format!("{got_rng:?}"),
                    format!("{want_rng:?}"),
                    "case {case}: {pattern:?} consumed the RNG differently"
                );
            }
        }
        assert_eq!(seen.lines_pp, [true; 4]);
        assert_eq!(seen.lines_pr, [true; 2]);
        assert!(seen.period_wraps && seen.tile_wraps);
        assert!(seen.period_divides && seen.period_does_not_divide);
        assert!(seen.more_tbs_than_lines);
    }

    #[test]
    fn sliced_respects_tb_slices() {
        // 4MB structure, 1MB period, 64 TBs, 4 warps: slice = 16KB.
        let bytes = 4 << 20;
        let period = 1 << 20;
        let mut r = rng();
        for tb in [0u32, 17, 63] {
            for k in 0..32 {
                let off = Pattern::Sliced { period, halo: 0.0 }.offset(
                    k,
                    32,
                    TbId::new(tb),
                    WarpId::new(1),
                    64,
                    4,
                    bytes,
                    &mut r,
                );
                assert!(off < bytes);
                assert_eq!(off % LINE, 0);
                let within_period = off % period;
                let slice = period / 64;
                assert!(
                    within_period >= tb as u64 * slice && within_period < (tb as u64 + 1) * slice,
                    "tb {tb} k {k}: {within_period:#x} outside its slice"
                );
            }
        }
    }

    #[test]
    fn sliced_zero_period_means_whole_structure() {
        let bytes = 8 << 20;
        let mut r = rng();
        let off = Pattern::Sliced {
            period: 0,
            halo: 0.0,
        }
        .offset(0, 32, TbId::new(3), WarpId::new(0), 8, 4, bytes, &mut r);
        // TB 3 of 8 owns [3MB, 4MB).
        assert!((3 << 20..4 << 20).contains(&off));
    }

    #[test]
    fn halo_touches_neighbour_slice() {
        let bytes = 4 << 20;
        let mut r = rng();
        let p = Pattern::Sliced {
            period: 0,
            halo: 1.0,
        };
        let off = p.offset(0, 32, TbId::new(1), WarpId::new(0), 4, 4, bytes, &mut r);
        // With halo probability 1, TB 1 reads from TB 0's slice.
        assert!(off < bytes / 4);
    }

    #[test]
    fn uniform_is_line_aligned_and_in_bounds() {
        let mut r = rng();
        for _ in 0..100 {
            let off =
                Pattern::Uniform.offset(0, 32, TbId::new(0), WarpId::new(0), 4, 4, 1 << 20, &mut r);
            assert!(off < 1 << 20);
            assert_eq!(off % LINE, 0);
        }
    }

    #[test]
    fn irregular_mixes_local_and_random() {
        let bytes = 16 << 20;
        let mut r = rng();
        let p = Pattern::Irregular {
            period: 0,
            locality: 0.5,
            spread: 0,
        };
        let mut inside = 0;
        let n = 400;
        for k in 0..n {
            let off = p.offset(k, 32, TbId::new(0), WarpId::new(0), 4, 4, bytes, &mut r);
            if off < bytes / 4 {
                inside += 1;
            }
        }
        // ~ 0.5 + 0.5*0.25 = 62.5% expected inside TB 0's quarter.
        assert!(inside > n / 2, "only {inside}/{n} inside home slice");
        assert!(inside < n, "never random");
    }

    #[test]
    fn sparse_strided_skips_pages() {
        let bytes = 64 << 20;
        let mut r = rng();
        let p = Pattern::SparseStrided { stride_pages: 4 };
        let o0 = p.offset(0, 32, TbId::new(0), WarpId::new(0), 16, 4, bytes, &mut r);
        let o1 = p.offset(1, 32, TbId::new(0), WarpId::new(0), 16, 4, bytes, &mut r);
        assert_eq!((o1 - o0) / (64 * 1024), 4);
    }

    #[test]
    fn shared_sweep_is_ordered_and_covers() {
        let bytes = 4 << 20;
        let n_unique = 32;
        // Positions ascend with k (prefix-dense fill) for any warp.
        let mut prev = 0;
        for k in 0..n_unique {
            let off = shared_sweep_offset(k, n_unique, TbId::new(3), WarpId::new(1), bytes);
            assert!(off < bytes);
            assert_eq!(off % LINE, 0);
            if k > 0 {
                assert!(off >= prev, "sweep must ascend: {off} after {prev}");
            }
            prev = off;
        }
        // The union over many (tb, warp) jitters covers every 64KB page.
        let mut pages = std::collections::HashSet::new();
        for tb in 0..64u32 {
            for w in 0..4u32 {
                for k in 0..n_unique {
                    let off =
                        shared_sweep_offset(k, n_unique, TbId::new(tb), WarpId::new(w), bytes);
                    pages.insert(off / (64 * 1024));
                }
            }
        }
        assert_eq!(pages.len() as u64, bytes / (64 * 1024));
    }

    #[test]
    fn tiled_2d_touches_row_strided_pages() {
        // 64MB image, 64KB rows, 8-row tiles, 1024 TBs: each TB touches 8
        // distinct row-strided 64KB pages.
        let bytes = 64 << 20;
        let p = Pattern::Tiled2D {
            row_bytes: 64 * 1024,
            tile_rows: 8,
        };
        let mut r = rng();
        let mut pages = std::collections::HashSet::new();
        for k in 0..32 {
            let off = p.offset(
                k,
                32,
                TbId::new(17),
                WarpId::new(2),
                1024,
                16,
                bytes,
                &mut r,
            );
            assert!(off < bytes);
            pages.insert(off / (64 * 1024));
        }
        assert_eq!(pages.len(), 8, "one page per tile row");
        // And adjacent TBs of the same tile row stay within the same rows
        // (horizontal neighbours -> same chiplet band).
        let rows17: std::collections::HashSet<u64> = (0..32)
            .map(|k| {
                p.offset(
                    k,
                    32,
                    TbId::new(17),
                    WarpId::new(0),
                    1024,
                    16,
                    bytes,
                    &mut r,
                ) / (64 * 1024)
            })
            .collect();
        let rows18: std::collections::HashSet<u64> = (0..32)
            .map(|k| {
                p.offset(
                    k,
                    32,
                    TbId::new(18),
                    WarpId::new(0),
                    1024,
                    16,
                    bytes,
                    &mut r,
                ) / (64 * 1024)
            })
            .collect();
        assert_eq!(rows17, rows18, "same tile row -> same pages");
    }

    #[test]
    fn irregular_spread_zero_is_a_shared_sweep() {
        // With locality 0, every access follows the ordered shared sweep.
        let p = Pattern::Irregular {
            period: 0,
            locality: 0.0,
            spread: 0,
        };
        let mut r = rng();
        let bytes = 8 << 20;
        let a = p.offset(0, 16, TbId::new(0), WarpId::new(0), 64, 4, bytes, &mut r);
        let b = p.offset(8, 16, TbId::new(0), WarpId::new(0), 64, 4, bytes, &mut r);
        assert!(b > a, "sweep ascends");
    }

    #[test]
    fn irregular_spread_trails_the_sweep() {
        // Backward scatter: the irregular fraction lands at or before the
        // in-order position, so owners win first-touch races.
        let p = Pattern::Irregular {
            period: 1 << 20,
            locality: 0.0,
            spread: 64 * 1024,
        };
        let mut r = rng();
        let bytes = 8 << 20;
        for k in 0..64 {
            let base = sliced_offset(
                k,
                TbId::new(32),
                WarpId::new(1),
                64,
                4,
                bytes,
                1 << 20,
                false,
            );
            let got = p.offset(k, 64, TbId::new(32), WarpId::new(1), 64, 4, bytes, &mut r);
            assert!(got <= base, "scatter must trail: {got} > {base}");
            assert!(base - got <= 64 * 1024 + LINE);
        }
    }

    #[test]
    fn offsets_are_deterministic_per_seed() {
        let p = Pattern::Irregular {
            period: 1 << 20,
            locality: 0.7,
            spread: 1 << 20,
        };
        let mut r1 = rng();
        let mut r2 = rng();
        for k in 0..50 {
            let a = p.offset(
                k,
                32,
                TbId::new(5),
                WarpId::new(2),
                64,
                4,
                32 << 20,
                &mut r1,
            );
            let b = p.offset(
                k,
                32,
                TbId::new(5),
                WarpId::new(2),
                64,
                4,
                32 << 20,
                &mut r2,
            );
            assert_eq!(a, b);
        }
    }

    #[test]
    fn static_hints_match_patterns() {
        use mcm_sim::StaticHint;
        assert_eq!(
            Pattern::Sliced {
                period: 4096,
                halo: 0.0
            }
            .static_hint(),
            StaticHint::Partitioned { period_bytes: 4096 }
        );
        assert_eq!(Pattern::Uniform.static_hint(), StaticHint::Shared);
        assert_eq!(
            Pattern::Irregular {
                period: 0,
                locality: 0.5,
                spread: 0
            }
            .static_hint(),
            StaticHint::Irregular
        );
        assert_eq!(
            Pattern::SparseStrided { stride_pages: 2 }.static_hint(),
            StaticHint::Partitioned { period_bytes: 0 }
        );
    }
}
