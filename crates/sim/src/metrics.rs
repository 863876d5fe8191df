//! Chiplet-resolved, time-resolved metrics: the per-chiplet counter
//! registry of a run, its interval time series, and the N×N cross-chiplet
//! traffic matrix.
//!
//! The trace ([`RunTrace`](crate::RunTrace)) answers "*how long* did each
//! stage take, whole-run"; this layer answers "*where* did events land
//! (which chiplet, which link) and *when* (which sampling interval)" —
//! the paper's chiplet-locality argument made observable. A
//! [`MetricsProbe`](crate::MetricsProbe) produces a [`RunMetrics`]: it
//! snapshots the engine's always-on [`Counters`] registry every
//! [`SAMPLE_INTERVAL`](crate::SAMPLE_INTERVAL) cycles and tallies every
//! interconnect crossing. Sampling reads the registry, never the machine,
//! and the registry is the one the run's [`RunStats`](crate::RunStats) is
//! folded from, so every per-chiplet count sums to its run-level total by
//! construction.

use mcm_types::ChipletId;

use crate::stats::{Counter, Counters};

/// Tallies of one ordered `src → dst` pair of the cross-chiplet traffic
/// matrix. The diagonal stays zero: same-chiplet transfers are free and
/// uncounted, exactly as [`Topology::transfer`](crate::Topology) treats
/// them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkTraffic {
    /// Completed transfers from `src` to `dst`.
    pub transfers: u64,
    /// Total hops those transfers routed over.
    pub hops: u64,
    /// Cycles those transfers spent queueing for busy links.
    pub queue_cycles: u64,
}

impl LinkTraffic {
    fn add(&mut self, o: &LinkTraffic) {
        self.transfers += o.transfers;
        self.hops += o.hops;
        self.queue_cycles += o.queue_cycles;
    }
}

/// One closed interval of the per-chiplet time series: the counter
/// *deltas* accumulated over `(previous frame's cycle, cycle]`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SampleFrame {
    /// Interval end, in simulated cycles. Events are attributed to the
    /// interval containing the cycle their warp wake-up was popped at.
    pub cycle: u64,
    /// Per-chiplet counter deltas over the interval.
    pub deltas: Counters,
}

impl SampleFrame {
    /// The delta of `c` on `chiplet` over this interval.
    pub fn delta(&self, chiplet: usize, c: Counter) -> u64 {
        self.deltas.get(chiplet, c)
    }

    /// The delta of `c` summed over every chiplet.
    pub fn total(&self, c: Counter) -> u64 {
        self.deltas.total(c)
    }
}

/// The chiplet-resolved metrics of one run (or of several merged sweep
/// cells): cumulative per-chiplet counters, the sampled time series, and
/// the N×N cross-chiplet traffic matrix.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Cumulative counters: the run's final registry.
    pub(crate) counters: Counters,
    /// Closed sampling intervals, in cycle order.
    pub(crate) series: Vec<SampleFrame>,
    /// Traffic matrix, src-major (`src * num_chiplets + dst`).
    traffic: Vec<LinkTraffic>,
    /// Cells folded into this aggregate via [`Self::merge_aggregates`]
    /// (1 for a freshly captured run).
    pub merged_cells: u64,
    /// Series frames discarded by merges (time series are per-run; a
    /// cross-cell merge keeps only the aggregate state).
    pub dropped_frames: u64,
}

impl RunMetrics {
    /// An empty record for `num_chiplets` chiplets.
    pub fn new(num_chiplets: usize) -> Self {
        RunMetrics {
            counters: Counters::new(num_chiplets),
            series: Vec::new(),
            traffic: vec![LinkTraffic::default(); num_chiplets * num_chiplets],
            merged_cells: 1,
            dropped_frames: 0,
        }
    }

    /// Chiplets in the registry.
    pub fn num_chiplets(&self) -> usize {
        self.counters.num_chiplets()
    }

    /// The cumulative per-chiplet counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Cumulative count of `c` on `chiplet`.
    pub fn count(&self, chiplet: usize, c: Counter) -> u64 {
        self.counters.get(chiplet, c)
    }

    /// The closed sampling intervals, in cycle order.
    pub fn series(&self) -> &[SampleFrame] {
        &self.series
    }

    /// The `src → dst` cell of the traffic matrix.
    pub fn traffic(&self, src: usize, dst: usize) -> LinkTraffic {
        self.traffic[src * self.num_chiplets() + dst]
    }

    /// Sums row `src` of the matrix: everything the chiplet sent.
    pub fn traffic_row(&self, src: usize) -> LinkTraffic {
        let mut acc = LinkTraffic::default();
        (0..self.num_chiplets()).for_each(|dst| acc.add(&self.traffic(src, dst)));
        acc
    }

    /// Total transfers across the whole matrix (equals
    /// [`RunStats::interconnect_transfers`](crate::RunStats)).
    pub fn transfers(&self) -> u64 {
        self.traffic.iter().map(|t| t.transfers).sum()
    }

    /// Records one completed `src → dst` transfer of `hops` hops that
    /// queued for `queue_cycles`.
    pub(crate) fn record_transfer(
        &mut self,
        src: ChipletId,
        dst: ChipletId,
        hops: u32,
        queue_cycles: u64,
    ) {
        let n = self.num_chiplets();
        let cell = &mut self.traffic[src.index() * n + dst.index()];
        cell.transfers += 1;
        cell.hops += hops as u64;
        cell.queue_cycles += queue_cycles;
    }

    /// Folds another cell's metrics into this one: counters and the
    /// traffic matrix merge exactly; `other`'s time series is *not*
    /// concatenated (interval clocks are per-run) — its frames are
    /// accounted in [`Self::dropped_frames`]. Associative and commutative
    /// on the aggregate state. An empty (default) accumulator adopts
    /// `other`'s shape.
    pub fn merge_aggregates(&mut self, other: &RunMetrics) {
        if self.traffic.is_empty() {
            self.traffic = vec![LinkTraffic::default(); other.traffic.len()];
            self.merged_cells = 0;
        }
        self.counters.absorb(&other.counters);
        for (t, o) in self.traffic.iter_mut().zip(other.traffic.iter()) {
            t.add(o);
        }
        self.merged_cells += other.merged_cells;
        self.dropped_frames += other.dropped_frames + other.series.len() as u64;
    }

    /// The remote-access ratio of each closed interval:
    /// `remote_insts / mem_insts`, or `None` for intervals with no
    /// retired accesses.
    pub fn remote_ratio_series(&self) -> Vec<Option<f64>> {
        self.series
            .iter()
            .map(|f| {
                let all = f.total(Counter::MemInsts);
                let remote = f.total(Counter::RemoteInsts);
                (all > 0).then(|| remote as f64 / all as f64)
            })
            .collect()
    }

    /// The warmup knee: the first interval whose remote ratio is within
    /// `epsilon` of the run's tail mean (the mean ratio over the last
    /// quarter of non-empty intervals). Before the knee the run is still
    /// establishing locality — first-touch placement, TLB warmup,
    /// migration — and steady-state models must not extrapolate from it.
    /// Returns the frame index, or `None` when fewer than two intervals
    /// retired accesses (no tail to converge to).
    pub fn warmup_knee(&self, epsilon: f64) -> Option<usize> {
        let ratios = self.remote_ratio_series();
        let filled: Vec<(usize, f64)> = ratios
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|r| (i, r)))
            .collect();
        if filled.len() < 2 {
            return None;
        }
        let tail_len = (filled.len() / 4).max(1);
        let tail = &filled[filled.len() - tail_len..];
        let tail_mean = tail.iter().map(|(_, r)| r).sum::<f64>() / tail_len as f64;
        filled
            .iter()
            .find(|(_, r)| (r - tail_mean).abs() <= epsilon)
            .map(|&(i, _)| i)
    }

    /// Fraction of the run's simulated time spent before the warmup knee
    /// (`0.0` when the very first interval is already converged). `None`
    /// when no knee exists (see [`Self::warmup_knee`]).
    pub fn warmup_frac(&self, epsilon: f64) -> Option<f64> {
        let knee = self.warmup_knee(epsilon)?;
        let end = self.series.last().map(|f| f.cycle)?;
        if end == 0 {
            return Some(0.0);
        }
        let start = if knee == 0 {
            0
        } else {
            self.series[knee - 1].cycle
        };
        Some(start as f64 / end as f64)
    }

    /// Per-chiplet DRAM load imbalance: `max / mean` of the chiplets'
    /// `dram_accesses` counters (`1.0` = perfectly balanced). `None` when
    /// no DRAM access was recorded.
    pub fn dram_imbalance(&self) -> Option<f64> {
        imbalance(&self.counters.row(Counter::DramAccesses))
    }
}

/// `max / mean` of a per-chiplet load vector (`1.0` = perfectly
/// balanced); `None` for an empty or all-zero vector. Shared by the
/// metrics layer and the journal's imbalance field, which computes it
/// from [`RunStats::dram_per_chiplet`](crate::RunStats).
pub fn imbalance(per_chiplet: &[u64]) -> Option<f64> {
    let total: u64 = per_chiplet.iter().sum();
    if total == 0 || per_chiplet.is_empty() {
        return None;
    }
    let max = *per_chiplet.iter().max().unwrap_or(&0);
    let mean = total as f64 / per_chiplet.len() as f64;
    Some(max as f64 / mean)
}

/// The default convergence band for the warmup-knee estimate: an
/// interval counts as converged when its remote ratio is within this
/// absolute distance of the tail mean.
pub const WARMUP_EPSILON: f64 = 0.05;

#[cfg(test)]
mod tests {
    use super::*;

    fn chip(c: u8) -> ChipletId {
        ChipletId::new(c)
    }

    #[test]
    fn traffic_matrix_rows_sum() {
        let mut m = RunMetrics::new(4);
        m.record_transfer(chip(0), chip(1), 1, 10);
        m.record_transfer(chip(0), chip(2), 2, 0);
        m.record_transfer(chip(3), chip(0), 1, 5);
        assert_eq!(m.transfers(), 3);
        assert_eq!(m.traffic_row(0).transfers, 2);
        assert_eq!(m.traffic_row(0).hops, 3);
        assert_eq!(m.traffic(0, 1).queue_cycles, 10);
        assert_eq!(m.traffic(1, 0).transfers, 0, "matrix is ordered");
    }

    #[test]
    fn merge_folds_counters_and_matrix_but_drops_frames() {
        let mut a = RunMetrics::new(2);
        a.counters.add(chip(0), Counter::DramAccesses, 4);
        a.series.push(SampleFrame {
            cycle: 500,
            deltas: Counters::new(2),
        });
        let mut b = RunMetrics::new(2);
        b.counters.add(chip(0), Counter::DramAccesses, 6);
        b.record_transfer(chip(0), chip(1), 1, 2);
        b.series.push(SampleFrame {
            cycle: 500,
            deltas: Counters::new(2),
        });
        a.merge_aggregates(&b);
        assert_eq!(a.count(0, Counter::DramAccesses), 10);
        assert_eq!(a.transfers(), 1);
        assert_eq!(a.merged_cells, 2);
        assert_eq!(a.series.len(), 1, "other's frames are not spliced in");
        assert_eq!(a.dropped_frames, 1);
        // Merging into a default accumulator adopts the shape.
        let mut acc = RunMetrics::default();
        acc.merge_aggregates(&a);
        assert_eq!(acc.num_chiplets(), 2);
        assert_eq!(acc.count(0, Counter::DramAccesses), 10);
        assert_eq!(acc.merged_cells, 2);
    }

    /// A frame with `local`/`remote` access deltas on chiplet 0.
    fn frame(cycle: u64, chiplets: usize, local: u64, remote: u64) -> SampleFrame {
        let mut deltas = Counters::new(chiplets);
        deltas.add(chip(0), Counter::MemInsts, local + remote);
        deltas.add(chip(0), Counter::RemoteInsts, remote);
        SampleFrame { cycle, deltas }
    }

    #[test]
    fn warmup_knee_finds_first_converged_interval() {
        let mut m = RunMetrics::new(2);
        // Remote ratio 0.9, 0.5, 0.21, 0.2, 0.2, 0.2: tail mean 0.2 (last
        // quarter = final frame with ratio 0.2); 0.21 is the knee.
        for (i, (l, r)) in [(1, 9), (5, 5), (79, 21), (8, 2), (8, 2), (8, 2)]
            .iter()
            .enumerate()
        {
            m.series.push(frame((i as u64 + 1) * 100, 2, *l, *r));
        }
        assert_eq!(m.warmup_knee(WARMUP_EPSILON), Some(2));
        let frac = m.warmup_frac(WARMUP_EPSILON).expect("knee exists");
        // Knee interval is (200, 300]: warmup covers the first 200 of 600.
        assert!((frac - 200.0 / 600.0).abs() < 1e-9, "got {frac}");
    }

    #[test]
    fn warmup_knee_skips_empty_intervals_and_degenerate_series() {
        let mut m = RunMetrics::new(2);
        assert_eq!(m.warmup_knee(WARMUP_EPSILON), None, "empty series");
        m.series.push(frame(100, 2, 1, 1));
        assert_eq!(m.warmup_knee(WARMUP_EPSILON), None, "one interval");
        m.series.push(frame(200, 2, 0, 0)); // idle interval: skipped
        m.series.push(frame(300, 2, 1, 1));
        assert_eq!(m.warmup_knee(WARMUP_EPSILON), Some(0));
        assert_eq!(m.warmup_frac(WARMUP_EPSILON), Some(0.0));
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        assert_eq!(imbalance(&[]), None);
        assert_eq!(imbalance(&[0, 0]), None);
        assert_eq!(imbalance(&[5, 5, 5, 5]), Some(1.0));
        let skew = imbalance(&[12, 4, 0, 0]).expect("non-zero load");
        assert!((skew - 3.0).abs() < 1e-9, "12 / mean 4 = 3, got {skew}");
    }
}
