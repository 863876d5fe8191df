//! Stage-boundary tracing: per-stage latency histograms.
//!
//! [`RunTrace`] is a [`Probe`](crate::Probe): pass one to
//! [`run_with`](crate::run_with) and the engine's stage seams (the
//! `translate` stage's page walks plus the `Machine` event loop's
//! scheduler, translation, data-path and fault latencies) feed it
//! samples. Runs without it pay nothing — the engine is monomorphized per
//! probe — and tracing never changes results. Counts are the
//! always-on registry's job, not the trace's.
//!
//! Every histogram reconciles exactly with a [`RunStats`](crate::RunStats)
//! counter (walk samples == page walks, translate cycles ==
//! translation cycles, ...); `tests/probe.rs` asserts this.

mod hist;

pub use hist::LatencyHistogram;

/// The pipeline stages whose boundary latencies are histogrammed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceStage {
    /// Warp batch turnaround in the scheduler: pop to batch completion.
    Sched,
    /// Address translation latency per simulated memory instruction
    /// (sums to [`RunStats::translation_cycles`](crate::RunStats)).
    Translate,
    /// Completed page-walk latency, walk issue (after any walk-queue
    /// back-pressure) to completion (counts
    /// [`RunStats::walks`](crate::RunStats), sums
    /// [`RunStats::walk_cycles`](crate::RunStats)).
    Walk,
    /// Post-translation data-path latency per simulated memory
    /// instruction (sums to [`RunStats::data_cycles`](crate::RunStats)).
    Data,
    /// Demand-fault resolution latency, raise to warp resume (counts
    /// [`RunStats::faults`](crate::RunStats)).
    Fault,
}

impl TraceStage {
    /// Every stage, in histogram order.
    pub const ALL: [TraceStage; 5] = [
        TraceStage::Sched,
        TraceStage::Translate,
        TraceStage::Walk,
        TraceStage::Data,
        TraceStage::Fault,
    ];

    /// Stable snake_case name (JSON keys, folded-stack frames).
    pub fn name(&self) -> &'static str {
        match self {
            TraceStage::Sched => "sched",
            TraceStage::Translate => "translate",
            TraceStage::Walk => "walk",
            TraceStage::Data => "data",
            TraceStage::Fault => "fault",
        }
    }

    fn index(&self) -> usize {
        TraceStage::ALL.iter().position(|s| s == self).unwrap_or(0)
    }
}

/// The trace of one run: one latency histogram per [`TraceStage`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunTrace {
    hists: [LatencyHistogram; TraceStage::ALL.len()],
}

impl RunTrace {
    /// The latency histogram of `stage`.
    pub fn hist(&self, stage: TraceStage) -> &LatencyHistogram {
        &self.hists[stage.index()]
    }

    /// Records one stage-latency sample.
    #[inline]
    pub fn record_sample(&mut self, stage: TraceStage, latency: u64) {
        self.hists[stage.index()].record(latency);
    }

    /// Folds another cell's trace into this one: the histograms merge
    /// exactly. Associative and commutative.
    pub fn merge_aggregates(&mut self, other: &RunTrace) {
        for (h, o) in self.hists.iter_mut().zip(other.hists.iter()) {
            h.merge(o);
        }
    }

    /// Sum of every stage histogram's cycle total — the denominator of
    /// the flamegraph-style stage breakdown.
    pub fn total_cycles(&self) -> u64 {
        self.hists.iter().map(LatencyHistogram::sum).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_the_right_stage() {
        let mut t = RunTrace::default();
        t.record_sample(TraceStage::Walk, 100);
        t.record_sample(TraceStage::Walk, 50);
        t.record_sample(TraceStage::Data, 7);
        assert_eq!(t.hist(TraceStage::Walk).count(), 2);
        assert_eq!(t.hist(TraceStage::Walk).sum(), 150);
        assert_eq!(t.hist(TraceStage::Data).sum(), 7);
        assert_eq!(t.hist(TraceStage::Sched).count(), 0);
        assert_eq!(t.total_cycles(), 157);
    }

    #[test]
    fn merge_aggregates_folds_hists() {
        let mut a = RunTrace::default();
        let mut b = RunTrace::default();
        a.record_sample(TraceStage::Translate, 10);
        b.record_sample(TraceStage::Translate, 20);
        b.record_sample(TraceStage::Fault, 3000);
        a.merge_aggregates(&b);
        assert_eq!(a.hist(TraceStage::Translate).count(), 2);
        assert_eq!(a.hist(TraceStage::Translate).sum(), 30);
        assert_eq!(a.hist(TraceStage::Fault).count(), 1);
        assert_eq!(a.total_cycles(), 3030);
    }

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<_> = TraceStage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TraceStage::ALL.len());
    }
}
