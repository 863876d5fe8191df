//! Per-layer host time, measured from outside each layer: timing
//! wrappers around the public `Workload` and `PagingPolicy` traits and
//! around the `Replay` and `run_outcome` calls. The simulator itself is
//! unchanged; a traced sweep must reproduce the untraced statistics
//! exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use mcm_bench::experiments::EngineKind;
use mcm_bench::telemetry::CellSpec;
use mcm_sim::analytic::Replay;
use mcm_sim::{
    run_outcome, AllocInfo, Directive, FaultCtx, KernelDesc, PagingPolicy, RunOutcome, SimConfig,
    SimError, WalkEvent, Workload,
};
use mcm_types::{TbId, VirtAddr, WarpId};

use crate::sweep::Sweep;

/// Per-call hooks timed only on one call in this many (then scaled):
/// timing all 44M `on_access` calls of fig18 would cost more than the
/// callbacks themselves.
const SAMPLE_EVERY: u64 = 64;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// What timing an empty call reads (the two clock reads themselves),
/// measured once and taken off every timed hook call: hooks like
/// `on_access` cost about as much as the clock.
fn timer_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut v: Vec<u64> = (0..1001).map(|_| ns_since(Instant::now())).collect();
        v.sort_unstable();
        v[v.len() / 2]
    })
}

/// Calls to one policy hook and the host time they took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Hook {
    /// Calls made.
    pub calls: u64,
    /// Calls that were timed.
    pub timed: u64,
    /// Nanoseconds the timed calls took.
    pub ns: u64,
}

impl Hook {
    fn call<R>(&mut self, sampled: bool, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if sampled && !(self.calls - 1).is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.ns += ns_since(t).saturating_sub(timer_overhead_ns());
        self.timed += 1;
        r
    }

    /// Estimated nanoseconds over every call.
    pub fn est_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.ns as f64 * self.calls as f64 / self.timed as f64
        }
    }

    fn add(&mut self, o: &Hook) {
        self.calls += o.calls;
        self.timed += o.timed;
        self.ns += o.ns;
    }
}

/// The policy layer's tallies.
#[derive(Clone, Copy, Debug, Default)]
pub struct PolicyTimes {
    /// `on_fault`.
    pub fault: Hook,
    /// `on_walk` (sampled).
    pub walk: Hook,
    /// `on_access` (sampled).
    pub access: Hook,
    /// `begin`, `on_epoch` and `on_kernel_end`.
    pub epoch: Hook,
    /// Directives the policy returned.
    pub directives: u64,
}

impl PolicyTimes {
    /// Estimated nanoseconds in every hook.
    pub fn est_ns(&self) -> f64 {
        self.fault.est_ns() + self.walk.est_ns() + self.access.est_ns() + self.epoch.est_ns()
    }

    fn add(&mut self, o: &PolicyTimes) {
        self.fault.add(&o.fault);
        self.walk.add(&o.walk);
        self.access.add(&o.access);
        self.epoch.add(&o.epoch);
        self.directives += o.directives;
    }
}

/// Host time accumulated over a traced sweep, by layer.
#[derive(Default)]
pub struct Probe {
    stream_calls: AtomicU64,
    stream_accesses: AtomicU64,
    stream_ns: AtomicU64,
    inner: Mutex<Layers>,
}

/// The probe's totals once the sweep is done.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    /// Stream materializations (`warp_accesses{,_into}` calls).
    pub stream_calls: u64,
    /// Accesses the streams produced.
    pub stream_accesses: u64,
    /// Nanoseconds generating streams (inside the engine and captures).
    pub stream_ns: u64,
    /// Policy hooks.
    pub policy: PolicyTimes,
    /// Nanoseconds inside `run_outcome`, everything included.
    pub engine_run_ns: u64,
    /// Of `engine_run_ns`, stream generation.
    pub engine_stream_ns: u64,
    /// Estimated nanoseconds of policy hooks inside `run_outcome`.
    pub engine_policy_ns: f64,
    /// Accesses the cycle engine consumed.
    pub engine_accesses: u64,
    /// `Replay::capture` calls and nanoseconds (stream generation
    /// included).
    pub capture: Hook,
    /// `Replay::predict` calls and nanoseconds.
    pub predict: Hook,
    /// Accesses the analytic cells stand for: each cell counts its
    /// workload's captured accesses.
    pub analytic_accesses: u64,
    /// Nanoseconds inside the sweep's cell closures.
    pub cell_ns: u64,
}

impl Probe {
    fn with<R>(&self, f: impl FnOnce(&mut Layers) -> R) -> R {
        f(&mut self.inner.lock().unwrap_or_else(|p| p.into_inner()))
    }

    fn stream_snapshot(&self) -> (u64, u64) {
        (
            self.stream_ns.load(Ordering::Relaxed),
            self.stream_accesses.load(Ordering::Relaxed),
        )
    }

    /// The totals so far.
    pub fn layers(&self) -> Layers {
        let mut l = self.with(|l| *l);
        l.stream_calls = self.stream_calls.load(Ordering::Relaxed);
        (l.stream_ns, l.stream_accesses) = self.stream_snapshot();
        l
    }
}

/// A `Workload` that times every stream it hands out.
struct TimedWorkload<'a> {
    inner: &'a dyn Workload,
    probe: &'a Probe,
}

impl TimedWorkload<'_> {
    fn note(&self, t: Instant, len: usize) {
        let p = self.probe;
        p.stream_ns.fetch_add(ns_since(t), Ordering::Relaxed);
        p.stream_calls.fetch_add(1, Ordering::Relaxed);
        p.stream_accesses.fetch_add(len as u64, Ordering::Relaxed);
    }
}

impl Workload for TimedWorkload<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn allocs(&self) -> &[AllocInfo] {
        self.inner.allocs()
    }

    fn num_kernels(&self) -> usize {
        self.inner.num_kernels()
    }

    fn kernel(&self, k: usize) -> KernelDesc {
        self.inner.kernel(k)
    }

    fn warp_accesses(&self, k: usize, tb: TbId, warp: WarpId) -> Vec<VirtAddr> {
        let t = Instant::now();
        let v = self.inner.warp_accesses(k, tb, warp);
        self.note(t, v.len());
        v
    }

    fn warp_accesses_into(&self, k: usize, tb: TbId, warp: WarpId, out: &mut Vec<VirtAddr>) {
        let t = Instant::now();
        self.inner.warp_accesses_into(k, tb, warp, out);
        self.note(t, out.len());
    }
}

/// A `PagingPolicy` that counts and times every hook of the policy it
/// wraps.
struct TimedPolicy {
    inner: Box<dyn PagingPolicy>,
    t: PolicyTimes,
}

impl PagingPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin(&mut self, allocs: &[AllocInfo], cfg: &SimConfig) {
        let inner = &mut self.inner;
        self.t.epoch.call(false, || inner.begin(allocs, cfg));
    }

    fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
        let inner = &mut self.inner;
        let r = self.t.fault.call(false, || inner.on_fault(ctx));
        if let Ok(d) = &r {
            self.t.directives += d.len() as u64;
        }
        r
    }

    fn on_walk(&mut self, ev: &WalkEvent) {
        let inner = &mut self.inner;
        self.t.walk.call(true, || inner.on_walk(ev));
    }

    fn wants_access_samples(&self) -> bool {
        self.inner.wants_access_samples()
    }

    fn on_access(&mut self, ev: &WalkEvent) {
        let inner = &mut self.inner;
        self.t.access.call(true, || inner.on_access(ev));
    }

    fn on_epoch(&mut self, cycle: u64) -> Vec<Directive> {
        let inner = &mut self.inner;
        let d = self.t.epoch.call(false, || inner.on_epoch(cycle));
        self.t.directives += d.len() as u64;
        d
    }

    fn on_kernel_end(&mut self, kernel: usize, cycle: u64) -> Vec<Directive> {
        let inner = &mut self.inner;
        let d = self
            .t
            .epoch
            .call(false, || inner.on_kernel_end(kernel, cycle));
        self.t.directives += d.len() as u64;
        d
    }

    fn ideal_migration(&self) -> bool {
        self.inner.ideal_migration()
    }

    fn blocks_consumed(&self) -> Option<usize> {
        self.inner.blocks_consumed()
    }

    fn frame_fallbacks(&self) -> u64 {
        self.inner.frame_fallbacks()
    }
}

/// Runs traced cells of one sweep, serially: cycle cells go through
/// `ConfigKind::build` + `run_outcome` with both traits wrapped; analytic
/// cells capture each workload once and predict once per configuration,
/// as `Harness::try_run_workload` does.
pub struct Tracer<'a> {
    sweep: &'a Sweep,
    /// The accumulated layer times.
    pub probe: Probe,
    replay: Mutex<Option<(usize, Arc<Replay>, u64)>>,
}

impl<'a> Tracer<'a> {
    /// A tracer over `sweep`'s cells.
    pub fn new(sweep: &'a Sweep) -> Tracer<'a> {
        // Calibrate before the first cell, not inside it.
        timer_overhead_ns();
        Tracer {
            sweep,
            probe: Probe::default(),
            replay: Mutex::new(None),
        }
    }

    /// Runs cell `s` with every layer timed.
    ///
    /// # Errors
    ///
    /// Propagates fatal simulation errors.
    pub fn run_cell(&self, s: &CellSpec) -> Result<RunOutcome, SimError> {
        let t0 = Instant::now();
        let out = match self.sweep.bench.engine() {
            EngineKind::Analytic => self.analytic_cell(s),
            _ => self.cycle_cell(s),
        };
        let ns = ns_since(t0);
        self.probe.with(|l| l.cell_ns += ns);
        out
    }

    fn cycle_cell(&self, s: &CellSpec) -> Result<RunOutcome, SimError> {
        let probe = &self.probe;
        let (inner, cfg) = self.sweep.config(s.col).build(self.sweep.machine(s.col));
        let mut policy = TimedPolicy {
            inner,
            t: PolicyTimes::default(),
        };
        let w = TimedWorkload {
            inner: self.sweep.workload(s.row),
            probe,
        };
        let (ns0, acc0) = probe.stream_snapshot();
        let t = Instant::now();
        let out = run_outcome(&cfg, &w, &mut policy, None);
        let run_ns = ns_since(t);
        let (ns1, acc1) = probe.stream_snapshot();
        probe.with(|l| {
            l.engine_run_ns += run_ns;
            l.engine_stream_ns += ns1 - ns0;
            l.engine_accesses += acc1 - acc0;
            l.engine_policy_ns += policy.t.est_ns();
            l.policy.add(&policy.t);
        });
        out
    }

    fn analytic_cell(&self, s: &CellSpec) -> Result<RunOutcome, SimError> {
        let kind = self.sweep.config(s.col);
        let machine = self.sweep.machine(s.col);
        let w = TimedWorkload {
            inner: self.sweep.workload(s.row),
            probe: &self.probe,
        };
        let pm = kind
            .placement_model(w.allocs(), machine.num_chiplets)
            .ok_or_else(|| SimError::ConfigInvalid {
                reason: format!("{} has no placement model", kind.name()),
            })?;
        let (_, cfg) = kind.build(machine);
        let (replay, accesses) = {
            let mut slot = self.replay.lock().unwrap_or_else(|p| p.into_inner());
            match slot.as_ref() {
                Some((row, r, n)) if *row == s.row => (Arc::clone(r), *n),
                _ => {
                    let (_, acc0) = self.probe.stream_snapshot();
                    let mut hook = Hook::default();
                    let r = Arc::new(hook.call(false, || Replay::capture(&w)));
                    let (_, acc1) = self.probe.stream_snapshot();
                    self.probe.with(|l| l.capture.add(&hook));
                    *slot = Some((s.row, Arc::clone(&r), acc1 - acc0));
                    (r, acc1 - acc0)
                }
            }
        };
        let mut hook = Hook::default();
        let stats = hook.call(false, || replay.predict(&cfg, &pm))?;
        self.probe.with(|l| {
            l.predict.add(&hook);
            l.analytic_accesses += accesses;
        });
        Ok(RunOutcome::Completed(stats.into_run_stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_hook_times_one_call_in_sixty_four() {
        let mut h = Hook::default();
        for _ in 0..128 {
            h.call(true, || ());
        }
        assert_eq!((h.calls, h.timed), (128, 2));
        let mut every = Hook::default();
        for _ in 0..3 {
            every.call(false, || ());
        }
        assert_eq!((every.calls, every.timed), (3, 3));
    }
}
