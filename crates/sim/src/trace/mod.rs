//! Stage-boundary tracing: per-stage latency histograms and a bounded
//! structured event stream.
//!
//! [`RunTrace`] is a [`Probe`](crate::Probe): pass one to
//! [`run_with`](crate::run_with) and the engine's stage seams
//! (`stage::{translate, datapath, driver, sched}` plus the `Machine` event
//! loop) feed it samples and events. Runs without it pay nothing — the
//! engine is monomorphized per probe — and tracing never changes results.
//!
//! Every histogram total reconciles exactly with a
//! [`RunStats`](crate::RunStats) counter (walk samples == page walks,
//! crossing events == interconnect transfers, ...); `tests/probe.rs`
//! asserts this.

mod event;
mod hist;

pub use event::{TraceEvent, TraceEventClass, TraceEventKind};
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

/// How many buffered events a [`RunTrace`] retains by default. The
/// per-kind counters and the histograms keep counting past the cap; only
/// the structured sample stream is bounded.
pub const DEFAULT_EVENT_CAP: usize = 4096;

/// The trace of one run: per-stage latency histograms, exact per-kind
/// event counters, and a bounded event stream with per-run sequence
/// numbers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunTrace {
    hists: [LatencyHistogram; TraceStage::ALL.len()],
    /// The buffered event stream, in recording (= sequence) order. At
    /// most `cap` events are retained; later events still bump
    /// [`events_seen`](Self::events_seen) and the per-kind counters.
    pub events: Vec<TraceEvent>,
    counts: [u64; TraceEventClass::ALL.len()],
    /// Total events recorded, including those dropped once the buffer
    /// filled.
    pub events_seen: u64,
    /// Events not retained in [`events`](Self::events) (buffer full, or
    /// discarded by a cross-cell histogram merge).
    pub dropped_events: u64,
    cap: usize,
}

impl Default for RunTrace {
    /// An empty trace retaining up to [`DEFAULT_EVENT_CAP`] events.
    fn default() -> Self {
        Self::new()
    }
}

impl RunTrace {
    /// An empty trace retaining up to [`DEFAULT_EVENT_CAP`] events.
    pub fn new() -> Self {
        Self::with_event_cap(DEFAULT_EVENT_CAP)
    }

    /// An empty trace retaining up to `cap` buffered events.
    pub fn with_event_cap(cap: usize) -> Self {
        RunTrace {
            hists: Default::default(),
            events: Vec::new(),
            counts: [0; TraceEventClass::ALL.len()],
            events_seen: 0,
            dropped_events: 0,
            cap,
        }
    }

    /// The latency histogram of `stage`.
    pub fn hist(&self, stage: TraceStage) -> &LatencyHistogram {
        &self.hists[stage.index()]
    }

    /// Exact number of `class` events recorded (dropped ones included).
    pub fn event_count(&self, class: TraceEventClass) -> u64 {
        self.counts[class.index()]
    }

    /// Records one stage-latency sample.
    #[inline]
    pub fn record_sample(&mut self, stage: TraceStage, latency: u64) {
        self.hists[stage.index()].record(latency);
    }

    /// Records one event, assigning the next sequence number. Once the
    /// buffer holds `cap` events the event is counted but not retained.
    #[inline]
    pub fn record_event(&mut self, kind: TraceEventKind) {
        let seq = self.events_seen;
        self.events_seen += 1;
        self.counts[kind.class().index()] += 1;
        if self.events.len() < self.cap {
            self.events.push(TraceEvent { seq, kind });
        } else {
            self.dropped_events += 1;
        }
    }

    /// Folds another cell's trace into this one: histograms and per-kind
    /// counters merge exactly; `other`'s buffered events are *not*
    /// concatenated (sequence numbers are per-run) — they are accounted
    /// as dropped. Associative and commutative on the aggregate state.
    pub fn merge_aggregates(&mut self, other: &RunTrace) {
        for (h, o) in self.hists.iter_mut().zip(other.hists.iter()) {
            h.merge(o);
        }
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.events_seen += other.events_seen;
        self.dropped_events += other.dropped_events + other.events.len() as u64;
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
    use mcm_types::ChipletId;

    fn crossing_event(cycle: u64) -> TraceEventKind {
        TraceEventKind::Crossing {
            src: ChipletId::new(0),
            dst: ChipletId::new(1),
            hops: 1,
            cycle,
        }
    }

    #[test]
    fn samples_land_in_the_right_stage() {
        let mut t = RunTrace::new();
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
    fn event_stream_is_bounded_but_counters_are_exact() {
        let mut t = RunTrace::with_event_cap(2);
        for i in 0..5 {
            t.record_event(crossing_event(i));
        }
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events_seen, 5);
        assert_eq!(t.dropped_events, 3);
        assert_eq!(t.event_count(TraceEventClass::Crossing), 5);
        // Sequence numbers are gap-free for the retained prefix.
        assert_eq!(t.events[0].seq, 0);
        assert_eq!(t.events[1].seq, 1);
    }

    #[test]
    fn merge_aggregates_folds_hists_and_counts() {
        let mut a = RunTrace::new();
        let mut b = RunTrace::new();
        a.record_sample(TraceStage::Translate, 10);
        b.record_sample(TraceStage::Translate, 20);
        b.record_event(crossing_event(1));
        a.merge_aggregates(&b);
        assert_eq!(a.hist(TraceStage::Translate).count(), 2);
        assert_eq!(a.hist(TraceStage::Translate).sum(), 30);
        assert_eq!(a.event_count(TraceEventClass::Crossing), 1);
        assert_eq!(a.events_seen, 1);
        // b's buffered event is not spliced in, only accounted.
        assert!(a.events.is_empty());
        assert_eq!(a.dropped_events, 1);
    }

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<_> = TraceStage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TraceStage::ALL.len());
    }
}
