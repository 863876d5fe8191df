//! Deterministic fan-out of independent sweep cells over worker threads.
//!
//! Every experiment in this crate is a sweep: a list of fully independent
//! `(configuration × workload)` cells, each of which builds its own
//! machine and policy (nothing shared but the immutable workload). The
//! [`SweepRunner`] runs those cells over `std::thread::scope` workers —
//! std-only, per DESIGN.md §9 — and collects results **in submission
//! order**, so output is byte-identical to a serial run regardless of the
//! worker count or OS scheduling.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Renders a caught panic payload (`&str` and `String` payloads verbatim,
/// anything else a placeholder).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Lifecycle hooks around every sweep cell, called from the worker thread
/// that runs the cell (the serial fast path calls them too). The sweep
/// telemetry's progress reporter hangs off this; the default
/// implementations are no-ops, so observers pay only for what they use.
pub trait SweepObserver: Sync {
    /// A worker is about to run cell `index`.
    fn cell_started(&self, index: usize) {
        let _ = index;
    }

    /// Cell `index` finished and its result slot is filled.
    fn cell_finished(&self, index: usize) {
        let _ = index;
    }
}

/// The do-nothing observer behind [`SweepRunner::map`].
#[derive(Clone, Copy, Debug)]
pub struct NoopObserver;

impl SweepObserver for NoopObserver {}

/// A shared no-op observer instance (avoids allocating one per sweep).
pub static NOOP_OBSERVER: NoopObserver = NoopObserver;

/// A worker pool for independent sweep cells.
#[derive(Clone, Copy, Debug)]
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// A runner with `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        SweepRunner { jobs: jobs.max(1) }
    }

    /// A serial runner (`jobs = 1`).
    pub fn serial() -> Self {
        SweepRunner::new(1)
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every item, fanning out over up to
    /// [`jobs`](Self::jobs) worker threads, and returns the results in
    /// item order (index `i` of the output is `f(i, &items[i])`).
    ///
    /// Work is claimed dynamically (an atomic cursor), so uneven cell
    /// costs balance across workers; determinism comes from the ordered
    /// result slots, not from the execution order.
    ///
    /// # Panics
    ///
    /// Propagates the first panic of any cell (as a serial loop would).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_observed(items, f, &NOOP_OBSERVER)
    }

    /// [`map`](Self::map) with per-cell lifecycle hooks: `obs` is told
    /// when each cell starts and finishes, from the worker thread running
    /// it, at every worker count (including the serial fast path). The
    /// hooks observe only — results are identical to [`map`](Self::map).
    ///
    /// # Panics
    ///
    /// Propagates the lowest-indexed panic of any cell (as a serial loop
    /// would see first) — but only after every other cell has finished, so
    /// a panic no longer aborts in-flight work.
    pub fn map_observed<T, R, F>(&self, items: &[T], f: F, obs: &dyn SweepObserver) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let mut out = Vec::with_capacity(items.len());
        let mut first_panic: Option<Box<dyn Any + Send>> = None;
        for r in self.map_payload(items, f, obs) {
            match r {
                Ok(r) => out.push(r),
                Err(p) => {
                    if first_panic.is_none() {
                        first_panic = Some(p);
                    }
                }
            }
        }
        if let Some(p) = first_panic {
            resume_unwind(p);
        }
        out
    }

    /// Core of [`map_observed`](Self::map_observed): one
    /// `Result<R, payload>` per item, in item order. Workers catch each
    /// cell's unwind and keep draining the queue, so one bad cell never
    /// cancels the rest of the sweep.
    fn map_payload<T, R, F>(
        &self,
        items: &[T],
        f: F,
        obs: &dyn SweepObserver,
    ) -> Vec<Result<R, Box<dyn Any + Send>>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        type Slot<R> = Mutex<Option<Result<R, Box<dyn Any + Send>>>>;
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    obs.cell_started(i);
                    let r = catch_unwind(AssertUnwindSafe(|| f(i, t)));
                    obs.cell_finished(i);
                    r
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Slot<R>> = items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    obs.cell_started(i);
                    let r = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
                    // A slot's lock is only ever taken once per run; a
                    // poisoned lock could only come from an observer
                    // panicking mid-store, in which case the stored result
                    // is still the one we want.
                    *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(r);
                    obs.cell_finished(i);
                });
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .unwrap_or_else(|| {
                        Err(Box::new(format!("sweep cell {i} produced no result")) as _)
                    })
            })
            .collect()
    }
}

/// Worker count from the environment: `MCM_JOBS` if set and valid,
/// otherwise the machine's available parallelism.
pub fn jobs_from_env() -> usize {
    if let Ok(v) = std::env::var("MCM_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        eprintln!("warning: ignoring invalid MCM_JOBS={v:?} (want a positive integer)");
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_submission_order() {
        let items: Vec<usize> = (0..64).collect();
        for jobs in [1, 2, 4, 16] {
            let out = SweepRunner::new(jobs).map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 10
            });
            let expect: Vec<usize> = items.iter().map(|&x| x * 10).collect();
            assert_eq!(out, expect, "jobs={jobs} must preserve item order");
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let items: Vec<u64> = (0..40).collect();
        // A cell with value-dependent cost, so workers finish out of order.
        let cell = |_i: usize, &x: &u64| -> u64 {
            let mut acc = x;
            for i in 0..(x % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        let serial = SweepRunner::serial().map(&items, cell);
        let parallel = SweepRunner::new(4).map(&items, cell);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn workers_never_exceed_jobs() {
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        let items: Vec<usize> = (0..32).collect();
        SweepRunner::new(3).map(&items, |_, _| {
            let n = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK.fetch_max(n, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            LIVE.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(PEAK.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn zero_jobs_clamps_to_serial() {
        assert_eq!(SweepRunner::new(0).jobs(), 1);
        let out = SweepRunner::new(0).map(&[1, 2, 3], |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = SweepRunner::new(8).map(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn map_payload_isolates_panics_and_finishes_the_rest() {
        let items: Vec<usize> = (0..16).collect();
        for jobs in [1, 4] {
            let out = SweepRunner::new(jobs).map_payload(
                &items,
                |i, &x| {
                    if i == 5 {
                        panic!("cell five is bad");
                    }
                    x * 2
                },
                &NOOP_OBSERVER,
            );
            assert_eq!(out.len(), items.len(), "jobs={jobs}");
            for (i, r) in out.into_iter().enumerate() {
                match r {
                    Err(p) if i == 5 => {
                        assert_eq!(panic_message(p.as_ref()), "cell five is bad")
                    }
                    Ok(v) if i != 5 => assert_eq!(v, i * 2, "jobs={jobs}"),
                    _ => panic!("jobs={jobs}: cell {i} has the wrong outcome"),
                }
            }
        }
    }

    #[test]
    fn map_propagates_the_lowest_indexed_panic_after_draining() {
        static COMPLETED: AtomicUsize = AtomicUsize::new(0);
        let items: Vec<usize> = (0..16).collect();
        for jobs in [1, 4] {
            COMPLETED.store(0, Ordering::SeqCst);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                SweepRunner::new(jobs).map(&items, |i, &x| {
                    if i == 3 || i == 9 {
                        panic!("boom {i}");
                    }
                    COMPLETED.fetch_add(1, Ordering::SeqCst);
                    x
                })
            }));
            let payload = caught.expect_err("map must propagate the panic");
            assert_eq!(panic_message(payload.as_ref()), "boom 3", "jobs={jobs}");
            // The other cells all ran to completion before the propagation.
            assert_eq!(COMPLETED.load(Ordering::SeqCst), 14, "jobs={jobs}");
        }
    }

    #[test]
    fn observer_sees_every_cell_at_any_worker_count() {
        struct Counting {
            started: AtomicUsize,
            finished: AtomicUsize,
        }
        impl SweepObserver for Counting {
            fn cell_started(&self, _index: usize) {
                self.started.fetch_add(1, Ordering::SeqCst);
            }
            fn cell_finished(&self, _index: usize) {
                self.finished.fetch_add(1, Ordering::SeqCst);
            }
        }
        let items: Vec<usize> = (0..24).collect();
        for jobs in [1, 4] {
            let obs = Counting {
                started: AtomicUsize::new(0),
                finished: AtomicUsize::new(0),
            };
            let out = SweepRunner::new(jobs).map_observed(&items, |_, &x| x * 2, &obs);
            let expect: Vec<usize> = items.iter().map(|&x| x * 2).collect();
            assert_eq!(out, expect, "jobs={jobs}: observation must not perturb");
            assert_eq!(obs.started.load(Ordering::SeqCst), items.len());
            assert_eq!(obs.finished.load(Ordering::SeqCst), items.len());
        }
    }
}
