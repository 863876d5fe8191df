//! Order statistics, the stats digest, and the metric table with its
//! regression bounds.

use mcm_bench::telemetry::{fnv1a, stats_to_json};
use mcm_sim::RunStats;

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(v, n=4)` (the "exclusive" method).
/// Fewer than two values give that value (or 0) three times.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn spread(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// Nearest-rank percentile `p` (in `[0, 1]`) of `v`; 0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    s[rank(s.len(), p) - 1]
}

/// The smallest value (0 when empty).
pub fn min(v: &[f64]) -> f64 {
    sorted(v).first().copied().unwrap_or(0.0)
}

/// Each cell's best (smallest) time over the repetitions: `reps[r][c]`
/// is cell `c`'s time in repetition `r`. Host contention only ever adds
/// time, so a cell's best repetition is the steadiest view of its cost.
pub fn cell_best(reps: &[Vec<f64>]) -> Vec<f64> {
    let cells = reps.first().map_or(0, Vec::len);
    (0..cells)
        .map(|c| reps.iter().map(|r| r[c]).fold(f64::INFINITY, f64::min))
        .collect()
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The canonical JSON of one cell's statistics, as the shard encoding
/// stores it: typed error samples are not part of a shard, so they are
/// dropped here too.
pub fn cell_json(s: &RunStats) -> String {
    let mut s = s.clone();
    s.degradation.errors.clear();
    stats_to_json(&s)
}

/// FNV-1a over every cell's [`cell_json`], in cell order, newline
/// separated: equal digests mean every statistic of the sweep is equal.
pub fn digest(stats: &[RunStats]) -> u64 {
    let mut all = String::new();
    for s in stats {
        all.push_str(&cell_json(s));
        all.push('\n');
    }
    fnv1a(&all)
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput, efficiency).
    Higher,
}

#[cfg(test)]
impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Metric name as printed and stored.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression. `None`
    /// for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

/// The end-to-end metrics every run reports (tracing off). On a shared
/// 2-CPU container, memory-system contention from other tenants slows
/// every workload by 10–60% for minutes at a time, so no bound below 25%
/// could be resolved there. Peak memory moves up to ~15% with how
/// analytic-sweep's two workers interleave captures.
pub const END_TO_END: [Metric; 6] = [
    e2e("wall_s", "s", 0.25),
    e2e("cpu_s", "s", 0.25),
    e2e("cell_p50_ms", "ms", 0.25),
    e2e("cell_p95_ms", "ms", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.25),
];

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

/// The per-layer metrics of a traced run, in print order.
pub const PER_LAYER: [Metric; 50] = [
    layer("workloads.stream_calls", "count"),
    layer("workloads.stream_ms", "ms"),
    layer("workloads.ns_per_access", "ns"),
    layer("workloads.share", "ratio"),
    layer("policy.fault_calls", "count"),
    layer("policy.walk_calls", "count"),
    layer("policy.access_calls", "count"),
    layer("policy.epoch_calls", "count"),
    layer("policy.fault_ms", "ms"),
    layer("policy.walk_ms", "ms"),
    layer("policy.access_ms", "ms"),
    layer("policy.epoch_ms", "ms"),
    layer("policy.directives", "count"),
    layer("policy.share", "ratio"),
    layer("engine.run_ms", "ms"),
    layer("engine.self_ms", "ms"),
    layer("engine.self_ns_per_access", "ns"),
    layer("engine.share", "ratio"),
    layer("sim.accesses", "count"),
    layer("sim.cycles", "cycles"),
    layer("translate.l1tlb_misses", "count"),
    layer("translate.l2tlb_misses", "count"),
    layer("translate.walks", "count"),
    layer("translate.walk_mshr_hits", "count"),
    layer("translate.walk_cycles", "cycles"),
    layer("translate.walk_queue_stalls", "count"),
    layer("datapath.l1d_misses", "count"),
    layer("datapath.l2d_misses", "count"),
    layer("datapath.dram_accesses", "count"),
    layer("datapath.interconnect_transfers", "count"),
    layer("datapath.interconnect_queue_cycles", "cycles"),
    layer("datapath.remote_insts", "count"),
    layer("driver.faults", "count"),
    layer("driver.migrations", "count"),
    layer("driver.shootdowns", "count"),
    layer("driver.degraded_cells", "count"),
    layer("analytic.capture_calls", "count"),
    layer("analytic.capture_ms", "ms"),
    layer("analytic.predict_calls", "count"),
    layer("analytic.predict_ms", "ms"),
    layer("analytic.ns_per_access", "ns"),
    layer("harness.self_ms", "ms"),
    layer("harness.us_per_cell", "us"),
    layer("harness.restore_us_per_cell", "us"),
    layer("harness.shard_bytes", "bytes"),
    layer("report.csv_ms", "ms"),
    Metric {
        better: Better::Higher,
        ..layer("harness.parallel_efficiency", "ratio")
    },
    layer("trace.overhead_frac", "ratio"),
    layer("accuracy.remote_mae", "ratio"),
    layer("accuracy.remote_max_err", "ratio"),
];

/// How much worse `change` is than `parent`, as a share of `parent`
/// (negative when it is better).
pub fn worsening(m: &Metric, parent: f64, change: f64) -> f64 {
    if parent == 0.0 {
        return 0.0;
    }
    match m.better {
        Better::Lower => (change - parent) / parent,
        Better::Higher => (parent - change) / parent,
    }
}

/// `true` when `change`'s median is worse than `parent`'s by more than the
/// metric's bound.
pub fn exceeds_bound(m: &Metric, parent: f64, change: f64) -> bool {
    m.bound
        .is_some_and(|bound| worsening(m, parent, change) > bound)
}

/// The verdict on one (metric, workload) pair of a parent/change
/// comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine pairs in ten and the medians differ
    /// by more than the parent's interquartile range.
    Gain,
    /// The change's median is worse than the bound allows.
    Regression,
    /// The runs spread wider than the bound, so "no change" cannot be
    /// told apart from a regression.
    Unresolved,
    /// Within the bound and steady.
    NoChange,
}

impl Verdict {
    /// Printed label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::NoChange => "no change",
        }
    }
}

/// Fewest parent/change pairs that can support a claimed gain.
pub const MIN_PAIRS_FOR_GAIN: usize = 10;

/// Judges one metric over paired runs (`parent[i]` ran next to
/// `change[i]`).
pub fn judge(m: &Metric, parent: &[f64], change: &[f64]) -> Verdict {
    let (p, c) = (median(parent), median(change));
    let [p1, _, p3] = quartiles(parent);
    let pairs = parent.len().min(change.len());
    let is_better = |a: f64, b: f64| worsening(m, a, b) < 0.0;
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&a, &b)| is_better(a, b))
        .count();
    if pairs >= MIN_PAIRS_FOR_GAIN && wins * 10 >= pairs * 9 && (c - p).abs() > p3 - p1 {
        return Verdict::Gain;
    }
    if exceeds_bound(m, p, c) {
        return Verdict::Regression;
    }
    let bound = m.bound.unwrap_or(f64::INFINITY);
    let all_better = parent
        .iter()
        .all(|&a| change.iter().all(|&b| is_better(a, b)));
    if (spread(parent) > bound || spread(change) > bound) && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::NoChange
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 0.50), 100.0);
        // 18 cells: the p95 is the slowest one.
        let topo: Vec<f64> = (1..=18).map(f64::from).collect();
        assert_eq!(percentile(&topo, 0.95), 18.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
    }

    #[test]
    fn cell_best_ignores_contended_repetitions() {
        let quiet: Vec<f64> = (1..=20).map(f64::from).collect();
        let mut reps = vec![quiet.clone(); 5];
        // Contention slows three repetitions whole and one cell of a
        // fourth: every cell still has a quiet repetition.
        for r in &mut reps[..3] {
            r.iter_mut().for_each(|v| *v *= 1.5);
        }
        reps[4][19] *= 3.0;
        assert!(percentile(&reps.concat(), 0.95) > 20.0);
        assert_eq!(cell_best(&reps), quiet);
        assert!(cell_best(&[]).is_empty());
    }

    #[test]
    fn bound_check_respects_direction() {
        let wall = END_TO_END[0];
        assert_eq!(wall.bound, Some(0.25));
        assert!(!exceeds_bound(&wall, 10.0, 12.4));
        assert!(exceeds_bound(&wall, 10.0, 12.6));
        assert!(!exceeds_bound(&wall, 10.0, 5.0));
        let eff = Metric {
            name: "eff",
            unit: "ratio",
            better: Better::Higher,
            bound: Some(0.1),
        };
        assert!(exceeds_bound(&eff, 1.0, 0.85));
        assert!(!exceeds_bound(&eff, 1.0, 1.5));
        let layer = Metric { bound: None, ..eff };
        assert!(!exceeds_bound(&layer, 1.0, 0.0));
    }

    #[test]
    fn judge_applies_pair_and_spread_rules() {
        let wall = END_TO_END[0];
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(&wall, &parent, &faster), Verdict::Gain);
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.3).collect();
        assert_eq!(judge(&wall, &parent, &slower), Verdict::Regression);
        assert_eq!(judge(&wall, &parent, &parent), Verdict::NoChange);
        let noisy = [5.0, 10.0, 15.0, 10.0, 5.0, 15.0];
        assert_eq!(judge(&wall, &noisy, &noisy), Verdict::Unresolved);
        // Too few pairs to claim a gain, however clear.
        assert_eq!(judge(&wall, &parent[..3], &faster[..3]), Verdict::NoChange);
    }

    #[test]
    fn digest_sees_every_statistic_but_not_error_samples() {
        let a = RunStats {
            cycles: 7,
            ..RunStats::default()
        };
        let one = |s: &RunStats| digest(std::slice::from_ref(s));
        let mut b = a.clone();
        assert_eq!(one(&a), one(&b));
        b.degradation
            .errors
            .push(mcm_sim::SimError::PolicyViolation { reason: "x".into() });
        assert_eq!(one(&a), one(&b));
        b.l2tlb_misses = 1;
        assert_ne!(one(&a), one(&b));
        // Cell order matters.
        let c = RunStats::default();
        assert_ne!(digest(&[a.clone(), c.clone()]), digest(&[c, a]));
    }
}
