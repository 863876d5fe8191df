//! Property tests for the trace layer's aggregate algebra.
//!
//! The parallel sweep runner folds per-cell histograms with
//! `LatencyHistogram::merge` / `RunTrace::merge_aggregates`; for the
//! merged result to be independent of job count and merge order, merging
//! must be associative, commutative, and equal to recording every sample
//! into a single histogram serially. These tests pin that algebra down
//! over arbitrary sample sets.

use proptest::prelude::*;

use mcm_sim::{LatencyHistogram, RunTrace, TraceStage};

fn hist_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

fn samples() -> impl Strategy<Value = Vec<u64>> {
    // Mix tiny latencies (dense low buckets, incl. zero) with huge ones
    // so merges cross the whole log2 bucket range.
    proptest::collection::vec(
        prop_oneof![0u64..16, 16u64..4096, (1u64 << 30)..(1u64 << 40)],
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging per-shard histograms equals one serial histogram over the
    /// concatenated samples, regardless of how the samples are split.
    #[test]
    fn merge_equals_serial_run(a in samples(), b in samples(), c in samples()) {
        let mut serial = LatencyHistogram::new();
        for &s in a.iter().chain(&b).chain(&c) {
            serial.record(s);
        }
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        merged.merge(&hist_of(&c));
        prop_assert_eq!(&merged, &serial);
        prop_assert_eq!(merged.count(), (a.len() + b.len() + c.len()) as u64);
        let expect_sum: u64 = a.iter().chain(&b).chain(&c).sum();
        prop_assert_eq!(merged.sum(), expect_sum);
    }

    /// Histogram merge commutes: `a ∪ b == b ∪ a`.
    #[test]
    fn merge_is_commutative(a in samples(), b in samples()) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// Histogram merge associates: `(a ∪ b) ∪ c == a ∪ (b ∪ c)`.
    #[test]
    fn merge_is_associative(a in samples(), b in samples(), c in samples()) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Exact tallies survive any merge: min/max/mean of the merged
    /// histogram match the concatenated sample set.
    #[test]
    fn merged_tallies_are_exact(a in samples(), b in samples()) {
        let mut m = hist_of(&a);
        m.merge(&hist_of(&b));
        let all: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(m.min(), all.iter().copied().min());
        prop_assert_eq!(m.max(), all.iter().copied().max());
        if !all.is_empty() {
            let mean = all.iter().sum::<u64>() as f64 / all.len() as f64;
            prop_assert!((m.mean() - mean).abs() < 1e-6);
            // Quantiles are monotone and bounded by the exact max.
            let p50 = m.quantile_upper_bound(0.5).unwrap();
            let p100 = m.quantile_upper_bound(1.0).unwrap();
            prop_assert!(p50 <= p100);
            prop_assert_eq!(Some(p100), m.max());
        }
    }

    /// `RunTrace::merge_aggregates` of two shards equals one serial trace
    /// over both, mirroring the histogram law one level up.
    #[test]
    fn run_trace_merge_matches_serial(
        a in samples(),
        b in samples(),
    ) {
        let per_stage = |xs: &[u64]| {
            let mut t = RunTrace::default();
            for (i, &s) in xs.iter().enumerate() {
                t.record_sample(TraceStage::ALL[i % TraceStage::ALL.len()], s);
            }
            t
        };
        let mut serial = RunTrace::default();
        // Serial reference: shard-a samples then shard-b samples, each
        // striped over the stages the same way the shards stripe them.
        for (i, &s) in a.iter().enumerate() {
            serial.record_sample(TraceStage::ALL[i % TraceStage::ALL.len()], s);
        }
        for (i, &s) in b.iter().enumerate() {
            serial.record_sample(TraceStage::ALL[i % TraceStage::ALL.len()], s);
        }
        let mut merged = per_stage(&a);
        merged.merge_aggregates(&per_stage(&b));
        prop_assert_eq!(&merged, &serial);
        prop_assert_eq!(merged.total_cycles(), serial.total_cycles());
    }
}
