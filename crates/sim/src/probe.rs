//! The probe path: one observer trait the engine reports to.
//!
//! Counting is not a probe's job — every build counts each event once,
//! in the always-on [`Counters`] registry that [`RunStats`](crate::RunStats)
//! is folded from. A [`Probe`] observes what the counters cannot hold:
//! stage-latency samples, interconnect crossings with their source and
//! destination, and the simulated clock. The engine is generic over the
//! probe, so each implementation gets its own monomorphized copy of the
//! hot path; every hook has an empty default body, and the unit probe
//! `()` compiles to the unobserved engine.
//!
//! Two probes ship with the crate: [`RunTrace`] (per-stage latency
//! histograms) and [`MetricsProbe`] (interval sampling of the registry
//! plus the cross-chiplet traffic matrix). Neither can perturb a run:
//! hooks receive values, or shared references to the topology and
//! registry, never the machine.

use mcm_types::ChipletId;

use crate::interconnect::Topology;
use crate::metrics::{RunMetrics, SampleFrame};
use crate::stats::Counters;
use crate::trace::{RunTrace, TraceStage};

/// An observer of one simulation run. Every hook defaults to doing
/// nothing; see the [module docs](self).
pub trait Probe {
    /// One latency sample of `stage`, in cycles.
    #[inline(always)]
    fn sample(&mut self, _stage: TraceStage, _latency: u64) {}

    /// One completed cross-chiplet transfer `src → dst` that queued
    /// `queued` cycles for busy links. Same-chiplet transfers are free and
    /// never reported.
    #[inline(always)]
    fn crossing(&mut self, _topo: &dyn Topology, _src: ChipletId, _dst: ChipletId, _queued: u64) {}

    /// The event clock reached `t` (a warp wake-up popped at `t`);
    /// `counters` is the registry so far.
    #[inline(always)]
    fn tick(&mut self, _t: u64, _counters: &Counters) {}

    /// The run ended at cycle `end` with the final registry `counters`.
    #[inline(always)]
    fn finish(&mut self, _end: u64, _counters: &Counters) {}

    /// At the end of the run: the heap bytes the machine's bucketed
    /// resources hold (SM ports, page walkers, DRAM channels, links).
    /// Their windows never give capacity back, so this is the run's peak.
    #[inline(always)]
    fn bucket_bytes(&mut self, _bytes: usize) {}
}

/// The unobserved run.
impl Probe for () {}

/// Stage tracing: latency samples feed the per-stage histograms.
impl Probe for RunTrace {
    #[inline(always)]
    fn sample(&mut self, stage: TraceStage, latency: u64) {
        self.record_sample(stage, latency);
    }
}

/// Cycles between the [`MetricsProbe`]'s time-series frames.
pub const SAMPLE_INTERVAL: u64 = 50_000;

/// Chiplet-resolved, time-resolved metrics: closes one per-chiplet delta
/// frame of the registry every [`SAMPLE_INTERVAL`] simulated cycles and
/// tallies every crossing into the N×N traffic matrix. It sizes itself to
/// the machine on the first hook that shows it. Take the result with
/// [`MetricsProbe::into_metrics`] after the run.
#[derive(Clone, Debug)]
pub struct MetricsProbe {
    m: RunMetrics,
    /// The registry at the last closed interval boundary.
    prev: Counters,
    next_sample: u64,
}

impl Default for MetricsProbe {
    fn default() -> Self {
        MetricsProbe {
            m: RunMetrics::default(),
            prev: Counters::default(),
            next_sample: SAMPLE_INTERVAL,
        }
    }
}

impl MetricsProbe {
    /// The metrics of the observed run.
    pub fn into_metrics(self) -> RunMetrics {
        self.m
    }

    /// Sizes a fresh probe for a machine of `num_chiplets` chiplets.
    #[inline(always)]
    fn fit(&mut self, num_chiplets: usize) {
        if self.prev.num_chiplets() == 0 {
            self.m = RunMetrics::new(num_chiplets);
            self.prev = Counters::new(num_chiplets);
        }
    }

    /// Appends the frame ending at `cycle`: the deltas since the last
    /// boundary.
    fn close_interval(&mut self, cycle: u64, counters: &Counters) {
        let deltas = counters.since(&self.prev);
        self.prev.clone_from(counters);
        self.m.series.push(SampleFrame { cycle, deltas });
    }
}

impl Probe for MetricsProbe {
    #[inline(always)]
    fn crossing(&mut self, topo: &dyn Topology, src: ChipletId, dst: ChipletId, queued: u64) {
        self.fit(topo.num_chiplets());
        self.m
            .record_transfer(src, dst, topo.hops(src, dst), queued);
    }

    /// Closes every interval boundary passed. Driven by the wake-up times
    /// the engine pops, like its epoch loop, so it is deterministic per
    /// cell; a batch's events land in the interval containing its pop.
    #[inline(always)]
    fn tick(&mut self, t: u64, counters: &Counters) {
        self.fit(counters.num_chiplets());
        while t >= self.next_sample {
            self.close_interval(self.next_sample, counters);
            self.next_sample += SAMPLE_INTERVAL;
        }
    }

    /// Flushes the unreported tail as a final (possibly partial) interval
    /// so the series deltas always sum exactly to the final registry.
    fn finish(&mut self, end: u64, counters: &Counters) {
        self.fit(counters.num_chiplets());
        if *counters != self.prev || self.m.series.is_empty() {
            let cycle = end.max(self.next_sample - SAMPLE_INTERVAL);
            self.close_interval(cycle, counters);
        }
        self.m.counters.clone_from(counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Counter;

    #[test]
    fn sampler_closes_intervals_and_flushes_the_tail() {
        let chip = ChipletId::new;
        let mut ctr = Counters::new(2);
        let mut p = MetricsProbe::default();
        let half = SAMPLE_INTERVAL / 2;
        ctr.bump(chip(0), Counter::DramAccesses);
        p.tick(SAMPLE_INTERVAL + half, &ctr); // closes (0, I]
        ctr.add(chip(1), Counter::DramAccesses, 2);
        p.tick(3 * SAMPLE_INTERVAL + half, &ctr); // closes (I, 2I] and (2I, 3I]
        ctr.bump(chip(0), Counter::DramAccesses);
        p.finish(3 * SAMPLE_INTERVAL + half + 10, &ctr);
        let m = p.into_metrics();
        let s = m.series();
        assert_eq!(s.len(), 4, "3 boundaries + flushed tail");
        assert_eq!(s[0].cycle, SAMPLE_INTERVAL);
        assert_eq!(s[0].delta(0, Counter::DramAccesses), 1);
        assert_eq!(s[1].cycle, 2 * SAMPLE_INTERVAL);
        assert_eq!(s[1].delta(1, Counter::DramAccesses), 2);
        assert_eq!(s[2].total(Counter::DramAccesses), 0);
        assert_eq!(s[3].cycle, 3 * SAMPLE_INTERVAL + half + 10);
        assert_eq!(s[3].delta(0, Counter::DramAccesses), 1);
        // Series deltas sum exactly to the final registry.
        let mut summed = Counters::default();
        s.iter().for_each(|f| summed.absorb(&f.deltas));
        assert_eq!(&summed, m.counters());
        assert_eq!(m.counters(), &ctr);
    }
}
