//! Sweep supervision: per-cell failure isolation and quarantine.
//!
//! The [`SweepRunner`](crate::runner::SweepRunner) guarantees a panicking
//! cell cannot take down its worker thread; this module decides what to
//! *do* with the failure. Each cell is classified as healthy (completed
//! or degraded), aborted (a typed [`RunOutcome::Aborted`]/[`SimError`] —
//! run budget, livelock, or any engine error), or panicked. A failed cell
//! is quarantined — the sweep substitutes zeroed statistics, journals the
//! failure, and keeps going — so one poisoned cell never costs the rest
//! of a long sweep. Failed cells are not retried: the simulator is
//! deterministic, so a second run of the same cell fails the same way.
//!
//! In [`SweepMode::FailFast`] the first failure propagates immediately
//! (no quarantine) — the debugging mode. [`SweepMode::KeepGoing`] is the
//! default for sweeps.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use mcm_sim::{RunOutcome, RunStats, SimError};

use crate::runner::panic_message;
use crate::telemetry::CellOutcome;

/// How a sweep reacts to a failing cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepMode {
    /// Quarantine failing cells and finish the rest (the default).
    KeepGoing,
    /// Propagate the first failure immediately (`figures --fail-fast`).
    FailFast,
}

/// A deliberately injected cell failure (the CI smoke and the chaos
/// tests use these to prove supervision works end to end).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectKind {
    /// The cell panics instead of running.
    Panic,
    /// The cell reports a zero-budget [`SimError::BudgetExceeded`] abort
    /// instead of running.
    Budget,
}

/// An injection target: `exp:cell=panic|budget`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Injection {
    /// Experiment id the injection applies to ("fig1", ...).
    pub exp: String,
    /// Cell index within that experiment's sweep.
    pub cell: usize,
    /// What to inject.
    pub kind: InjectKind,
}

impl Injection {
    /// Parses the `--inject` spelling `exp:cell=panic|budget`.
    ///
    /// # Errors
    ///
    /// Returns a usage description for malformed specs.
    pub fn parse(s: &str) -> Result<Injection, String> {
        let usage = || format!("bad injection {s:?} (want exp:cell=panic|budget)");
        let (target, kind) = s.split_once('=').ok_or_else(usage)?;
        let (exp, cell) = target.split_once(':').ok_or_else(usage)?;
        let cell = cell.parse().map_err(|_| usage())?;
        let kind = match kind {
            "panic" => InjectKind::Panic,
            "budget" => InjectKind::Budget,
            _ => return Err(usage()),
        };
        Ok(Injection {
            exp: exp.to_string(),
            cell,
            kind,
        })
    }
}

/// One quarantined cell: identity, failure class, and the reason.
#[derive(Clone, Debug)]
pub struct QuarantineRecord {
    /// Experiment id.
    pub exp: String,
    /// Cell index within the sweep.
    pub cell: usize,
    /// Workload display name.
    pub workload: String,
    /// Configuration display name.
    pub config: String,
    /// [`CellOutcome::Aborted`] or [`CellOutcome::Panicked`].
    pub outcome: CellOutcome,
    /// The abort reason or panic message.
    pub reason: String,
}

/// What one supervised cell produced.
#[derive(Debug)]
pub enum CellVerdict {
    /// The cell completed (possibly degraded); use its statistics.
    Healthy(RunStats),
    /// The cell failed and is quarantined. `stats` holds the partial
    /// statistics of an aborted run (zeros for panics).
    Quarantined {
        /// [`CellOutcome::Aborted`] or [`CellOutcome::Panicked`].
        outcome: CellOutcome,
        /// The abort reason or panic message.
        reason: String,
        /// Partial statistics of the aborted run.
        stats: RunStats,
    },
}

/// The per-sweep failure policy: mode, injections, and the accumulated
/// quarantine list. Shared across worker threads.
#[derive(Debug)]
pub struct Supervisor {
    mode: SweepMode,
    inject: Vec<Injection>,
    quarantined: Mutex<Vec<QuarantineRecord>>,
}

impl Default for Supervisor {
    fn default() -> Supervisor {
        Supervisor::new(SweepMode::KeepGoing)
    }
}

impl Supervisor {
    /// A supervisor in `mode` with no injections.
    pub fn new(mode: SweepMode) -> Supervisor {
        Supervisor {
            mode,
            inject: Vec::new(),
            quarantined: Mutex::new(Vec::new()),
        }
    }

    /// Adds deliberate failure injections.
    #[must_use]
    pub fn with_injections(mut self, inject: Vec<Injection>) -> Supervisor {
        self.inject = inject;
        self
    }

    /// The configured sweep mode.
    pub fn mode(&self) -> SweepMode {
        self.mode
    }

    /// Every cell quarantined so far, in completion order.
    pub fn quarantined(&self) -> Vec<QuarantineRecord> {
        self.quarantined
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Runs one cell under supervision: catches panics, classifies the
    /// outcome, and quarantines a failure (recording it for the
    /// end-of-run summary).
    ///
    /// # Panics
    ///
    /// In [`SweepMode::FailFast`], a failure propagates: a caught panic
    /// is resumed, a typed abort becomes a panic carrying its reason. The
    /// sweep runner forwards it after draining in-flight cells.
    pub fn supervise(
        &self,
        exp: &str,
        cell: usize,
        workload: &str,
        config: &str,
        f: impl FnOnce() -> Result<RunOutcome, SimError>,
    ) -> CellVerdict {
        let inject = self
            .inject
            .iter()
            .find(|i| i.exp == exp && i.cell == cell)
            .map(|i| i.kind);
        let caught = catch_unwind(AssertUnwindSafe(|| match inject {
            Some(InjectKind::Panic) => panic!("injected panic"),
            Some(InjectKind::Budget) => Ok(RunOutcome::Aborted {
                reason: SimError::BudgetExceeded {
                    cycles: 0,
                    max_cycles: 0,
                },
                stats: RunStats::default(),
            }),
            None => f(),
        }));
        let (outcome, reason, stats) = match caught {
            Ok(Ok(RunOutcome::Completed(stats))) => return CellVerdict::Healthy(stats),
            Ok(Ok(RunOutcome::Aborted { reason, stats })) => {
                (CellOutcome::Aborted, reason.to_string(), stats)
            }
            Ok(Err(e)) => (CellOutcome::Aborted, e.to_string(), RunStats::default()),
            Err(payload) => {
                if self.mode == SweepMode::FailFast {
                    resume_unwind(payload);
                }
                (
                    CellOutcome::Panicked,
                    panic_message(payload.as_ref()),
                    RunStats::default(),
                )
            }
        };
        if self.mode == SweepMode::FailFast {
            panic!("{exp} cell {cell} ({workload}/{config}) aborted: {reason}");
        }
        eprintln!(
            "[supervise] quarantined {exp} cell {cell} ({workload}/{config}): {} — {reason}",
            outcome.as_str()
        );
        self.quarantined
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(QuarantineRecord {
                exp: exp.to_string(),
                cell,
                workload: workload.to_string(),
                config: config.to_string(),
                outcome,
                reason: reason.clone(),
            });
        CellVerdict::Quarantined {
            outcome,
            reason,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn injection_parsing() {
        assert_eq!(
            Injection::parse("fig1:3=panic"),
            Ok(Injection {
                exp: "fig1".into(),
                cell: 3,
                kind: InjectKind::Panic,
            })
        );
        assert_eq!(
            Injection::parse("table2:0=budget").map(|i| i.kind),
            Ok(InjectKind::Budget)
        );
        assert!(Injection::parse("fig1=panic").is_err());
        assert!(Injection::parse("fig1:x=panic").is_err());
        assert!(Injection::parse("fig1:3=explode").is_err());
        assert!(Injection::parse("fig1:3").is_err());
    }

    #[test]
    fn healthy_cells_pass_through_without_retry() {
        let sup = Supervisor::new(SweepMode::KeepGoing);
        let calls = AtomicUsize::new(0);
        let v = sup.supervise("figX", 0, "STE", "S-64KB", || {
            calls.fetch_add(1, Ordering::Relaxed);
            let s = RunStats {
                cycles: 7,
                ..Default::default()
            };
            Ok(RunOutcome::Completed(s))
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        match v {
            CellVerdict::Healthy(s) => assert_eq!(s.cycles, 7),
            other => panic!("expected healthy, got {other:?}"),
        }
        assert!(sup.quarantined().is_empty());
    }

    #[test]
    fn panicking_cell_is_quarantined_after_one_run() {
        let sup = Supervisor::new(SweepMode::KeepGoing);
        let calls = AtomicUsize::new(0);
        let v = sup.supervise("figX", 5, "STE", "CLAP", || {
            calls.fetch_add(1, Ordering::Relaxed);
            panic!("cell five exploded");
        });
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "a failed cell is not re-run"
        );
        match v {
            CellVerdict::Quarantined {
                outcome, reason, ..
            } => {
                assert_eq!(outcome, CellOutcome::Panicked);
                assert_eq!(reason, "cell five exploded");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        let q = sup.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!((q[0].exp.as_str(), q[0].cell), ("figX", 5));
        assert_eq!(q[0].outcome, CellOutcome::Panicked);
    }

    #[test]
    fn typed_abort_quarantines_with_partial_stats() {
        let sup = Supervisor::new(SweepMode::KeepGoing);
        let v = sup.supervise("figX", 2, "LPS", "S-2MB", || {
            let partial = RunStats {
                mem_insts: 41,
                ..Default::default()
            };
            Ok(RunOutcome::Aborted {
                reason: SimError::Livelock {
                    cycles: 77_000,
                    window: 50_000,
                },
                stats: partial,
            })
        });
        match v {
            CellVerdict::Quarantined {
                outcome,
                reason,
                stats,
            } => {
                assert_eq!(outcome, CellOutcome::Aborted);
                assert!(reason.contains("livelock"), "{reason}");
                assert_eq!(stats.mem_insts, 41, "partial stats preserved");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
    }

    #[test]
    fn injected_failures_replace_the_cell() {
        let sup = Supervisor::new(SweepMode::KeepGoing).with_injections(vec![Injection {
            exp: "figX".into(),
            cell: 3,
            kind: InjectKind::Budget,
        }]);
        let calls = AtomicUsize::new(0);
        // The injected cell never reaches f.
        let v = sup.supervise("figX", 3, "SC", "CLAP", || {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(RunOutcome::Completed(RunStats::default()))
        });
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        match v {
            CellVerdict::Quarantined {
                outcome, reason, ..
            } => {
                assert_eq!(outcome, CellOutcome::Aborted);
                assert!(reason.contains("budget"), "{reason}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // Other cells are untouched.
        let v = sup.supervise("figX", 4, "SC", "CLAP", || {
            Ok(RunOutcome::Completed(RunStats::default()))
        });
        assert!(matches!(v, CellVerdict::Healthy(_)));
    }

    #[test]
    fn fail_fast_propagates_the_first_failure() {
        let sup = Supervisor::new(SweepMode::FailFast);
        let calls = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            sup.supervise("figX", 0, "STE", "CLAP", || {
                calls.fetch_add(1, Ordering::Relaxed);
                panic!("boom");
            })
        }));
        assert!(caught.is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert!(sup.quarantined().is_empty());
        // A typed abort also propagates, carrying its reason.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            sup.supervise("figX", 1, "STE", "CLAP", || {
                Ok(RunOutcome::Aborted {
                    reason: SimError::BudgetExceeded {
                        cycles: 10,
                        max_cycles: 5,
                    },
                    stats: RunStats::default(),
                })
            })
        }));
        let payload = caught.expect_err("must propagate");
        assert!(panic_message(payload.as_ref()).contains("budget"));
    }
}
