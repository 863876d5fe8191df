//! Assembling synthetic workloads from allocations, kernels, and patterns.

use mcm_sim::{AllocInfo, KernelDesc, StaticHint, Workload};
use mcm_types::{AllocId, TbId, VirtAddr, WarpId, VA_BLOCK_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pattern::{Pattern, LINE};

/// One structure's role in one kernel: which allocation, what share of the
/// kernel's accesses, with what pattern, over which window of the
/// structure.
#[derive(Clone, Debug)]
pub struct Part {
    /// Index into the workload's allocation list.
    pub alloc: usize,
    /// Fraction of the kernel's memory instructions hitting this part.
    pub weight: f64,
    /// Access pattern.
    pub pattern: Pattern,
    /// Optional `(offset, len)` window restricting accesses to a sub-range
    /// of the allocation (e.g. "only one quarter of C* is reused", §5.2).
    pub window: Option<(u64, u64)>,
    /// Unique lines per warp: the kernel's `unique_lines` split by
    /// weight, at least one. Set when the kernel is added.
    lines: usize,
}

impl Part {
    /// A part covering the whole allocation.
    pub fn new(alloc: usize, weight: f64, pattern: Pattern) -> Self {
        Part {
            alloc,
            weight,
            pattern,
            window: None,
            lines: 0,
        }
    }

    /// Restricts the part to `(offset, len)` within the allocation.
    pub fn with_window(mut self, offset: u64, len: u64) -> Self {
        self.window = Some((offset, len));
        self
    }
}

/// Shape of one kernel of a synthetic workload.
#[derive(Clone, Debug)]
pub struct KernelSpec {
    /// Threadblocks launched.
    pub num_tbs: u32,
    /// Warps per threadblock issuing memory traffic.
    pub warps_per_tb: u32,
    /// Warp instructions per memory instruction (arithmetic intensity).
    pub insts_per_mem: u32,
    /// Memory instructions per generated line (intra-line reuse; see
    /// `mcm_sim::KernelDesc::line_reuse`).
    pub line_reuse: u32,
    /// Unique line addresses per warp (footprint knob).
    pub unique_lines: usize,
    /// Times each warp revisits its unique lines (reuse knob).
    pub passes: usize,
    /// The structures this kernel touches.
    pub parts: Vec<Part>,
}

/// A fully assembled synthetic workload.
#[derive(Clone, Debug)]
pub struct SyntheticWorkload {
    name: String,
    seed: u64,
    allocs: Vec<AllocInfo>,
    kernels: Vec<KernelSpec>,
}

/// Builder for [`SyntheticWorkload`] (C-BUILDER).
///
/// # Examples
///
/// ```
/// use mcm_workloads::{WorkloadBuilder, KernelSpec, Part, Pattern};
/// use mcm_sim::Workload;
///
/// let w = WorkloadBuilder::new("toy")
///     .alloc("in", 8 << 20)
///     .alloc("out", 8 << 20)
///     .kernel(KernelSpec {
///         num_tbs: 64,
///         warps_per_tb: 4,
///         insts_per_mem: 4,
///         line_reuse: 1,
///         unique_lines: 32,
///         passes: 2,
///         parts: vec![
///             Part::new(0, 0.5, Pattern::Sliced { period: 1 << 20, halo: 0.0 }),
///             Part::new(1, 0.5, Pattern::Sliced { period: 0, halo: 0.0 }),
///         ],
///     })
///     .build();
/// assert_eq!(w.allocs().len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct WorkloadBuilder {
    name: String,
    seed: u64,
    allocs: Vec<(String, u64)>,
    kernels: Vec<KernelSpec>,
}

impl WorkloadBuilder {
    /// Starts a workload named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        WorkloadBuilder {
            name: name.into(),
            seed: 0xC1A9,
            allocs: Vec::new(),
            kernels: Vec::new(),
        }
    }

    /// Sets the deterministic seed (default is fixed; change only to study
    /// generator variance).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Declares a data structure of `bytes` (rounded up to a whole number
    /// of 2MB VA blocks, as GPU drivers align large allocations).
    pub fn alloc(mut self, name: impl Into<String>, bytes: u64) -> Self {
        self.allocs.push((name.into(), bytes));
        self
    }

    /// Appends a kernel.
    ///
    /// # Panics
    ///
    /// Panics if a part references an undeclared allocation, weights are
    /// all zero, a `Sliced` or `Irregular` period is non-zero and not a
    /// multiple of [`LINE`], or a window starts at or beyond the end of
    /// its allocation.
    pub fn kernel(mut self, mut spec: KernelSpec) -> Self {
        for p in &spec.parts {
            assert!(
                p.alloc < self.allocs.len(),
                "kernel part references undeclared allocation"
            );
            if let Pattern::Sliced { period, .. } | Pattern::Irregular { period, .. } = p.pattern {
                assert!(
                    period % LINE == 0,
                    "period {period} is not a multiple of the {LINE}-byte line"
                );
            }
            if let Some((offset, _)) = p.window {
                let bytes = self.allocs[p.alloc].1;
                assert!(
                    offset < bytes,
                    "window offset {offset} is outside the {bytes}-byte allocation"
                );
            }
        }
        let total: f64 = spec.parts.iter().map(|p| p.weight).sum();
        assert!(total > 0.0, "kernel needs positive total weight");
        for p in &mut spec.parts {
            p.lines = ((p.weight / total * spec.unique_lines as f64).round() as usize).max(1);
        }
        self.kernels.push(spec);
        self
    }

    /// Finalises the workload, laying allocations out at VA-block-aligned,
    /// well-separated bases and deriving each structure's static hint from
    /// its dominant pattern.
    ///
    /// # Panics
    ///
    /// Panics if no kernel was added.
    pub fn build(self) -> SyntheticWorkload {
        assert!(!self.kernels.is_empty(), "a workload needs >= 1 kernel");
        let mut base = VA_BLOCK_BYTES; // leave page 0 unmapped
        let mut allocs = Vec::new();
        for (i, (name, bytes)) in self.allocs.iter().enumerate() {
            let rounded = bytes.div_ceil(VA_BLOCK_BYTES) * VA_BLOCK_BYTES;
            let hint = self
                .kernels
                .iter()
                .flat_map(|k| &k.parts)
                .filter(|p| p.alloc == i)
                .max_by(|a, b| a.weight.total_cmp(&b.weight))
                .map(|p| p.pattern.static_hint())
                .unwrap_or(StaticHint::Irregular);
            allocs.push(AllocInfo {
                id: AllocId::new(i as u16),
                base: VirtAddr::new(base),
                bytes: rounded,
                name: name.clone(),
                hint,
            });
            // Separate structures by a guard block so they never share a
            // VA block.
            base += rounded + VA_BLOCK_BYTES;
        }
        SyntheticWorkload {
            name: self.name,
            seed: self.seed,
            allocs,
            kernels: self.kernels,
        }
    }
}

impl SyntheticWorkload {
    /// The kernel specifications (for harnesses that scale workloads).
    pub fn kernels(&self) -> &[KernelSpec] {
        &self.kernels
    }

    /// Returns a copy with every kernel's `num_tbs` multiplied by `num`
    /// and divided by `den` (at least 1). Used to right-size launches for
    /// different chiplet counts.
    pub fn with_tb_scale(mut self, num: u32, den: u32) -> Self {
        for k in &mut self.kernels {
            k.num_tbs = (k.num_tbs * num / den).max(1);
        }
        self
    }
}

impl Workload for SyntheticWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn allocs(&self) -> &[AllocInfo] {
        &self.allocs
    }

    fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    fn kernel(&self, k: usize) -> KernelDesc {
        let s = &self.kernels[k];
        KernelDesc {
            num_tbs: s.num_tbs,
            warps_per_tb: s.warps_per_tb,
            insts_per_mem: s.insts_per_mem,
            line_reuse: s.line_reuse,
        }
    }

    fn warp_accesses(&self, k: usize, tb: TbId, warp: WarpId) -> Vec<VirtAddr> {
        let mut out = Vec::new();
        self.warp_accesses_into(k, tb, warp, &mut out);
        out
    }

    fn warp_accesses_into(&self, k: usize, tb: TbId, warp: WarpId, out: &mut Vec<VirtAddr>) {
        let spec = &self.kernels[k];
        out.clear();
        if spec.passes == 0 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(
            self.seed
                ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (tb.index() as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
                ^ (warp.index() as u64).wrapping_mul(0x94D0_49BB_1331_11EB),
        );
        let uniques: usize = spec.parts.iter().map(|p| p.lines).sum();
        out.reserve(uniques * spec.passes.max(2));

        // Each part's unique working set, part after part.
        for part in &spec.parts {
            let a = &self.allocs[part.alloc];
            let (w_off, w_len) = part.window.unwrap_or((0, a.bytes));
            let w_len = w_len.min(a.bytes - w_off).max(LINE);
            part.pattern.fill(
                part.lines,
                tb,
                warp,
                spec.num_tbs,
                spec.warps_per_tb,
                w_len,
                a.base + w_off,
                &mut rng,
                out,
            );
        }

        // Interleave parts proportionally so structures mix in time: a
        // burst of up to 4 lines per part per round, for spatial
        // locality. The rounds are appended behind the working sets, then
        // moved to the front.
        if spec.parts.len() > 1 {
            let mut cursor = 0;
            while out.len() < 2 * uniques {
                let mut start = 0;
                for part in &spec.parts {
                    if cursor < part.lines {
                        out.extend_from_within(start + cursor..start + part.lines.min(cursor + 4));
                    }
                    start += part.lines;
                }
                cursor += 4;
            }
            out.copy_within(uniques.., 0);
            out.truncate(uniques);
        }

        // Repeat the sequence `passes` times for reuse, alternating
        // direction to vary reuse distance slightly.
        for pass in 1..spec.passes {
            out.extend_from_within(..uniques);
            if pass % 2 == 1 {
                out[pass * uniques..].reverse();
            }
        }
        // A pinch of shuffling within small windows keeps streams from
        // being perfectly in lockstep across warps.
        if out.len() > 8 {
            let n = out.len();
            for i in (0..n - 4).step_by(8) {
                let j = i + rng.gen_range(0..4);
                out.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> SyntheticWorkload {
        WorkloadBuilder::new("toy")
            .alloc("a", 8 << 20)
            .alloc("b", 4 << 20)
            .kernel(KernelSpec {
                num_tbs: 32,
                warps_per_tb: 2,
                insts_per_mem: 4,
                line_reuse: 1,
                unique_lines: 24,
                passes: 2,
                parts: vec![
                    Part::new(
                        0,
                        0.75,
                        Pattern::Sliced {
                            period: 1 << 20,
                            halo: 0.0,
                        },
                    ),
                    Part::new(1, 0.25, Pattern::Uniform),
                ],
            })
            .build()
    }

    #[test]
    fn layout_is_block_aligned_and_disjoint() {
        let w = toy();
        let a = &w.allocs()[0];
        let b = &w.allocs()[1];
        assert_eq!(a.base.raw() % VA_BLOCK_BYTES, 0);
        assert_eq!(b.base.raw() % VA_BLOCK_BYTES, 0);
        assert!(b.base.raw() >= a.base.raw() + a.bytes + VA_BLOCK_BYTES);
        assert_eq!(
            a.hint,
            StaticHint::Partitioned {
                period_bytes: 1 << 20
            }
        );
        assert_eq!(b.hint, StaticHint::Shared);
    }

    #[test]
    fn accesses_fall_inside_their_allocations() {
        let w = toy();
        for tb in [0u32, 15, 31] {
            for warp in 0..2 {
                for va in w.warp_accesses(0, TbId::new(tb), WarpId::new(warp)) {
                    assert!(
                        w.allocs().iter().any(|a| a.contains(va)),
                        "{va} outside all allocations"
                    );
                }
            }
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let w = toy();
        let a = w.warp_accesses(0, TbId::new(3), WarpId::new(1));
        let b = w.warp_accesses(0, TbId::new(3), WarpId::new(1));
        assert_eq!(a, b);
        let c = w.warp_accesses(0, TbId::new(4), WarpId::new(1));
        assert_ne!(a, c);
    }

    #[test]
    fn passes_multiply_stream_length_with_same_uniques() {
        let w = toy();
        let s = w.warp_accesses(0, TbId::new(0), WarpId::new(0));
        let uniques: std::collections::HashSet<_> = s.iter().collect();
        assert!(s.len() >= 2 * uniques.len(), "passes should repeat lines");
    }

    #[test]
    fn window_restricts_range() {
        let w = WorkloadBuilder::new("win")
            .alloc("a", 16 << 20)
            .kernel(KernelSpec {
                num_tbs: 8,
                warps_per_tb: 2,
                insts_per_mem: 4,
                line_reuse: 1,
                unique_lines: 16,
                passes: 1,
                parts: vec![Part::new(0, 1.0, Pattern::Uniform).with_window(0, 4 << 20)],
            })
            .build();
        let base = w.allocs()[0].base;
        for va in w.warp_accesses(0, TbId::new(0), WarpId::new(0)) {
            assert!(va.distance_from(base) < (4 << 20));
        }
    }

    /// Streams of at most 8 accesses are not shuffled, so their order is
    /// the interleave's and the passes'.
    fn short_stream(unique_lines: usize, passes: usize, weights: [f64; 2]) -> Vec<usize> {
        let w = WorkloadBuilder::new("short")
            .alloc("a", 4 << 20)
            .alloc("b", 4 << 20)
            .kernel(KernelSpec {
                num_tbs: 2,
                warps_per_tb: 1,
                insts_per_mem: 1,
                line_reuse: 1,
                unique_lines,
                passes,
                parts: vec![
                    Part::new(0, weights[0], Pattern::SharedSweep),
                    Part::new(1, weights[1], Pattern::SharedSweep),
                ],
            })
            .build();
        let s = w.warp_accesses(0, TbId::new(1), WarpId::new(0));
        assert!(s.len() <= 8);
        s.iter()
            .map(|&va| w.allocs().iter().position(|a| a.contains(va)).unwrap())
            .collect()
    }

    #[test]
    fn parts_interleave_in_bursts_of_four() {
        // 5 lines of `a` and 2 of `b`: a burst of each, then `a`'s rest.
        assert_eq!(short_stream(7, 1, [5.0, 2.0]), [0, 0, 0, 0, 1, 1, 0]);
    }

    #[test]
    fn odd_passes_run_backwards() {
        assert_eq!(short_stream(4, 2, [3.0, 1.0]), [0, 0, 0, 1, 1, 0, 0, 0]);
        assert_eq!(short_stream(2, 4, [1.0, 1.0]), [0, 1, 1, 0, 0, 1, 1, 0]);
        assert!(short_stream(4, 0, [3.0, 1.0]).is_empty());
    }

    #[test]
    fn tb_scale_clamps_to_one() {
        let w = toy().with_tb_scale(1, 64);
        assert_eq!(w.kernel(0).num_tbs, 1);
        let w2 = toy().with_tb_scale(2, 1);
        assert_eq!(w2.kernel(0).num_tbs, 64);
    }

    fn one_part(part: Part) -> KernelSpec {
        KernelSpec {
            num_tbs: 4,
            warps_per_tb: 1,
            insts_per_mem: 1,
            line_reuse: 1,
            unique_lines: 16,
            passes: 1,
            parts: vec![part],
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple of the 128-byte line")]
    fn sub_line_sliced_period_panics() {
        let sliced = Pattern::Sliced {
            period: 64,
            halo: 0.0,
        };
        let _ = WorkloadBuilder::new("bad")
            .alloc("a", 1 << 20)
            .kernel(one_part(Part::new(0, 1.0, sliced)));
    }

    #[test]
    #[should_panic(expected = "not a multiple of the 128-byte line")]
    fn unaligned_irregular_period_panics() {
        let irregular = Pattern::Irregular {
            period: 3 * 64,
            locality: 0.5,
            spread: 0,
        };
        let _ = WorkloadBuilder::new("bad")
            .alloc("a", 1 << 20)
            .kernel(one_part(Part::new(0, 1.0, irregular)));
    }

    #[test]
    #[should_panic(expected = "outside the 1048576-byte allocation")]
    fn window_beyond_the_allocation_panics() {
        let _ = WorkloadBuilder::new("bad")
            .alloc("a", 1 << 20)
            .kernel(one_part(
                Part::new(0, 1.0, Pattern::Uniform).with_window(1 << 20, LINE),
            ));
    }

    #[test]
    fn line_multiple_periods_and_inner_windows_are_accepted() {
        let w = WorkloadBuilder::new("ok")
            .alloc("a", 1 << 20)
            .kernel(one_part(
                Part::new(
                    0,
                    1.0,
                    Pattern::Sliced {
                        period: 3 * LINE,
                        halo: 0.0,
                    },
                )
                .with_window((1 << 20) - LINE, 4 * LINE),
            ))
            .build();
        let a = &w.allocs()[0];
        for va in w.warp_accesses(0, TbId::new(3), WarpId::new(0)) {
            assert!(a.contains(va), "{va} outside {}", a.name);
        }
    }

    #[test]
    #[should_panic(expected = "undeclared allocation")]
    fn bad_part_index_panics() {
        let _ = WorkloadBuilder::new("bad")
            .alloc("a", 1 << 20)
            .kernel(KernelSpec {
                num_tbs: 1,
                warps_per_tb: 1,
                insts_per_mem: 1,
                line_reuse: 1,
                unique_lines: 1,
                passes: 1,
                parts: vec![Part::new(1, 1.0, Pattern::Uniform)],
            });
    }
}
