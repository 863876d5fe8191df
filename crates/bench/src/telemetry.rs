//! Sweep-level observability: a per-cell JSONL run journal, which is
//! also the record store `--resume` restores from, and a live progress
//! reporter.
//!
//! The simulator's probes (`mcm_sim::Probe`) watch *inside* one run;
//! this module watches *across* a sweep. As each [`SweepRunner`](crate::runner::SweepRunner)
//! cell completes, the worker thread appends one [`CellRecord`] to
//! `<out>/journal/<exp>.jsonl`: the cell's identity, outcome, full
//! statistics and configuration fingerprint. The experiment's grid is
//! assembled from the statistics *decoded* from that journal line, so a
//! crash loses only the in-flight cells, and `figures --resume` re-runs
//! exactly the cells with no matching record (validated by schema
//! version + configuration fingerprint). Nothing here perturbs results:
//! every counter a figure reads round-trips exactly through the record
//! encoding (all integer fields), and `scripts/ci.sh` `cmp`s resumed
//! output against the goldens byte for byte.
//!
//! Every document goes through the crate's one JSON codec
//! ([`crate::json`]).

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mcm_sim::{AllocAccessStats, Counter, RunOutcome, RunStats};
use mcm_types::AllocId;

pub use crate::json::{json_escape, Json};
use crate::report::ExperimentTiming;
use crate::supervise::CellVerdict;

/// Version stamped into every journal record. Bump it when the record
/// layout changes: [`read_journal_dir`] skips (and counts) lines from
/// another schema, so `--resume` re-runs their cells. v2: the `ring_*`
/// statistics were renamed `interconnect_*` when the interconnect grew
/// non-ring topologies. v3: a record carries the cell's full
/// [`RunStats`]. v4: a sweep record carries its cell fingerprint, and
/// the journal is the only per-cell store.
pub const SCHEMA_VERSION: u32 = 4;

/// FNV-1a 64-bit hash — the stable fingerprint `--resume` matches
/// records against (deliberately not `DefaultHasher`, whose output may
/// change across toolchains; resumed sweeps must recognize records
/// written by an earlier process). The implementation lives in
/// `mcm_types` so the simulator's hot-path hashing (slab page table, walk
/// MSHRs) and the telemetry fingerprints share one hand-rolled hasher
/// family.
pub use mcm_types::fnv1a;

/// Renders a microsecond wall-clock count for humans (`870µs`, `3.4ms`,
/// `1.25s`), as the journal `status` view prints it.
pub fn fmt_duration_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.1}s", us as f64 / 1e6)
    } else if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn str_field(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn field<'j>(obj: &'j Json, key: &str) -> Result<&'j Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

// ---------------------------------------------------------------------------
// RunStats <-> JSON (the record payload)
// ---------------------------------------------------------------------------

/// Run statistics as a JSON object. The per-chiplet-event counters are
/// written in counter-table order ([`Counter::ALL`]), each under its
/// field name.
///
/// Every field a figure reads is an exact integer, so
/// `stats_from_json(stats_json(s))` reproduces them bit for bit. The only
/// lossy part is `degradation.errors`: the typed [`SimError`] samples are
/// written as display strings (`"error_samples"`) for humans and decode
/// back to an empty list — no figure or CSV reads them.
///
/// [`SimError`]: mcm_sim::SimError
pub fn stats_json(s: &RunStats) -> Json {
    let mut o = vec![("cycles", Json::num(s.cycles))];
    o.extend(Counter::ALL.map(|c| (c.name(), Json::num(s.counter(c)))));
    // Per-structure counters, sorted by allocation id for determinism
    // (the in-memory map is a HashMap).
    let mut allocs: Vec<(&AllocId, &AllocAccessStats)> = s.per_alloc.iter().collect();
    allocs.sort_by_key(|(id, _)| **id);
    let per_alloc = allocs.into_iter().map(|(id, a)| {
        let counts = [
            ("accesses", Json::num(a.accesses)),
            ("remote", Json::num(a.remote)),
        ];
        (id.index().to_string(), Json::obj(counts))
    });
    let d = &s.degradation;
    let mut degradation: Vec<_> = d.counters().map(|(name, _, n)| (name, Json::num(n))).into();
    let samples = d.errors.iter().map(|e| Json::str(e.to_string())).collect();
    degradation.push(("error_samples", Json::Arr(samples)));
    o.extend([
        ("dram_per_chiplet", Json::nums(&s.dram_per_chiplet)),
        ("blocks_consumed", Json::opt(s.blocks_consumed)),
        ("per_alloc", Json::obj(per_alloc)),
        ("degradation", Json::obj(degradation)),
    ]);
    Json::obj(o)
}

/// [`stats_json`] as one compact line (what the stats digests hash).
pub fn stats_to_json(s: &RunStats) -> String {
    stats_json(s).compact()
}

/// Decodes run statistics from a parsed [`stats_json`] object.
///
/// # Errors
///
/// Returns a description of the first missing or malformed field.
pub fn stats_from_json(j: &Json) -> Result<RunStats, String> {
    let mut per_alloc = std::collections::HashMap::new();
    for (k, v) in field(j, "per_alloc")?
        .as_obj()
        .ok_or("non-object per_alloc")?
    {
        let idx: u16 = k.parse().map_err(|_| format!("bad alloc id {k:?}"))?;
        let a = AllocAccessStats {
            accesses: u64_field(v, "accesses")?,
            remote: u64_field(v, "remote")?,
        };
        per_alloc.insert(AllocId::new(idx), a);
    }
    let d = field(j, "degradation")?;
    let mut s = RunStats {
        cycles: u64_field(j, "cycles")?,
        dram_per_chiplet: field(j, "dram_per_chiplet")?
            .as_arr()
            .ok_or("non-array dram_per_chiplet")?
            .iter()
            .map(|v| v.as_u64().ok_or("non-integer dram_per_chiplet entry"))
            .collect::<Result<_, _>>()?,
        blocks_consumed: match field(j, "blocks_consumed")? {
            Json::Null => None,
            v => Some(v.as_usize().ok_or("non-integer blocks_consumed")?),
        },
        per_alloc,
        // Typed error samples are not round-tripped; the record keeps
        // their rendered strings ("error_samples") for humans only.
        ..RunStats::default()
    };
    for (name, v) in s.degradation.counters_mut() {
        *v = u64_field(d, name)?;
    }
    for c in Counter::ALL {
        *s.counter_mut(c) = u64_field(j, c.name())?;
    }
    Ok(s)
}

// ---------------------------------------------------------------------------
// Cells and journal records
// ---------------------------------------------------------------------------

/// Identity of one sweep cell, fixed before it runs: which workload row,
/// which configuration column, and under what labels/seed it is recorded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellSpec {
    /// Workload row index in the sweep.
    pub row: usize,
    /// Configuration/variant column index in the sweep.
    pub col: usize,
    /// Workload display name ("STE", "GPT3", ...).
    pub workload: String,
    /// Configuration display name ("S-64KB", "CLAP+NUBA", ...).
    pub config: String,
    /// Seed of the run (0 for the deterministic standard sweeps).
    pub seed: u64,
}

impl CellSpec {
    /// Row-major `(workload × config)` cell list — the shape every grid
    /// sweep uses (cell index `r * cols.len() + c`).
    pub fn grid(rows: &[String], cols: &[String]) -> Vec<CellSpec> {
        let mut out = Vec::with_capacity(rows.len() * cols.len());
        for (r, w) in rows.iter().enumerate() {
            for (c, k) in cols.iter().enumerate() {
                out.push(CellSpec {
                    row: r,
                    col: c,
                    workload: w.clone(),
                    config: k.clone(),
                    seed: 0,
                });
            }
        }
        out
    }
}

/// How a journaled cell finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellOutcome {
    /// Ran to completion with no degradation events.
    Completed,
    /// Ran to completion but absorbed degradation events
    /// ([`CellOutcome::of`]).
    Degraded,
    /// Not re-run: restored from its journal record by `--resume`.
    Resumed,
    /// Quarantined: every attempt ended in a typed abort
    /// ([`RunOutcome::Aborted`](mcm_sim::RunOutcome::Aborted) or a
    /// [`SimError`](mcm_sim::SimError)). Never restored.
    Aborted,
    /// Quarantined: every attempt panicked (caught by the sweep
    /// supervisor). Never restored.
    Panicked,
}

impl CellOutcome {
    /// How a cell whose run completed with `stats` finished:
    /// [`CellOutcome::Degraded`] when the run absorbed degradation events
    /// ([`DegradationStats::is_degraded`]), [`CellOutcome::Completed`]
    /// otherwise.
    ///
    /// [`DegradationStats::is_degraded`]: mcm_sim::DegradationStats::is_degraded
    pub fn of(stats: &RunStats) -> CellOutcome {
        if stats.degradation.is_degraded() {
            CellOutcome::Degraded
        } else {
            CellOutcome::Completed
        }
    }

    /// Journal spelling ("completed" / "degraded" / "resumed" /
    /// "aborted" / "panicked").
    pub fn as_str(self) -> &'static str {
        match self {
            CellOutcome::Completed => "completed",
            CellOutcome::Degraded => "degraded",
            CellOutcome::Resumed => "resumed",
            CellOutcome::Aborted => "aborted",
            CellOutcome::Panicked => "panicked",
        }
    }

    /// Whether this outcome marks a quarantined cell (no usable result).
    pub fn is_quarantined(self) -> bool {
        matches!(self, CellOutcome::Aborted | CellOutcome::Panicked)
    }

    /// Parses the journal spelling.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized input.
    pub fn parse(s: &str) -> Result<CellOutcome, String> {
        match s {
            "completed" => Ok(CellOutcome::Completed),
            "degraded" => Ok(CellOutcome::Degraded),
            "resumed" => Ok(CellOutcome::Resumed),
            "aborted" => Ok(CellOutcome::Aborted),
            "panicked" => Ok(CellOutcome::Panicked),
            other => Err(format!("unknown outcome {other:?}")),
        }
    }
}

impl fmt::Display for CellOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One journal line: a cell's identity, wall-clock, outcome and full run
/// statistics — what `figures status`, the enriched `bench_timings.json`
/// and `--resume` are built from.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    /// Schema version the record was written under.
    pub schema: u32,
    /// Experiment id ("fig18", "ablation", ...).
    pub exp: String,
    /// Cell index within the sweep (submission order).
    pub cell: usize,
    /// Total cells in the sweep.
    pub total: usize,
    /// Configuration display name.
    pub config: String,
    /// Workload display name.
    pub workload: String,
    /// Seed of the run.
    pub seed: u64,
    /// Wall-clock microseconds the cell took (record lookup time for
    /// resumed cells).
    pub wall_us: u64,
    /// How the cell finished.
    pub outcome: CellOutcome,
    /// The cell fingerprint `--resume` matches against
    /// ([`SweepScope::cell_fingerprint`]); written as 16 hex digits.
    /// `None` (omitted from the line) on records written outside a sweep
    /// scope, which are never restored.
    pub fingerprint: Option<u64>,
    /// The run's statistics (partial for an aborted run, zero for a
    /// panicked one).
    pub stats: RunStats,
    /// Fraction of the run's simulated time spent before the remote-ratio
    /// warmup knee; stamped only by `figures timeline` cells (`None`, and
    /// omitted from the journal line, everywhere else).
    pub warmup_frac: Option<f64>,
    /// Why a quarantined cell failed (abort reason or panic message);
    /// empty for healthy cells and omitted from their journal lines.
    pub reason: String,
    /// Engine that produced the cell ("cycle" or "analytic"); the
    /// default "cycle" is omitted from the journal line.
    pub engine: String,
}

impl CellRecord {
    /// Builds a record from a finished cell's statistics.
    pub fn from_stats(
        exp: &str,
        spec: &CellSpec,
        cell: usize,
        total: usize,
        wall_us: u64,
        outcome: CellOutcome,
        stats: RunStats,
    ) -> CellRecord {
        CellRecord {
            schema: SCHEMA_VERSION,
            exp: exp.to_string(),
            cell,
            total,
            config: spec.config.clone(),
            workload: spec.workload.clone(),
            seed: spec.seed,
            wall_us,
            outcome,
            fingerprint: None,
            stats,
            warmup_frac: None,
            reason: String::new(),
            engine: "cycle".to_string(),
        }
    }

    /// Builds a record from a run's outcome: `completed`, `degraded`, or
    /// `aborted` with the abort reason (partial statistics).
    pub fn from_outcome(
        exp: &str,
        spec: &CellSpec,
        cell: usize,
        total: usize,
        wall_us: u64,
        outcome: &RunOutcome,
    ) -> CellRecord {
        let (kind, reason) = match outcome {
            RunOutcome::Completed(stats) => (CellOutcome::of(stats), String::new()),
            RunOutcome::Aborted { reason, .. } => (CellOutcome::Aborted, reason.to_string()),
        };
        let stats = outcome.stats().clone();
        CellRecord::from_stats(exp, spec, cell, total, wall_us, kind, stats).with_reason(&reason)
    }

    /// Attaches a quarantine reason (abort reason / panic message).
    #[must_use]
    pub fn with_reason(mut self, reason: &str) -> CellRecord {
        self.reason = reason.to_string();
        self
    }

    /// Tags the record with the engine that produced the cell.
    #[must_use]
    pub fn with_engine(mut self, engine: &str) -> CellRecord {
        self.engine = engine.to_string();
        self
    }

    /// Stamps the record with its cell fingerprint.
    #[must_use]
    pub fn with_fingerprint(mut self, fingerprint: u64) -> CellRecord {
        self.fingerprint = Some(fingerprint);
        self
    }

    /// Attaches the warmup-knee summary of a timeline cell.
    #[must_use]
    pub fn with_warmup_frac(mut self, frac: Option<f64>) -> CellRecord {
        self.warmup_frac = frac;
        self
    }

    /// Total degradation events the run absorbed
    /// ([`DegradationStats::events`]).
    pub fn degraded_events(&self) -> u64 {
        self.stats.degradation.events()
    }

    /// Per-chiplet DRAM imbalance, max/mean over
    /// [`RunStats::dram_per_chiplet`] (`None` when the run touched no
    /// DRAM).
    pub fn imbalance(&self) -> Option<f64> {
        mcm_sim::imbalance(&self.stats.dram_per_chiplet)
    }

    /// The record as a JSON object. Optional fields are omitted when
    /// empty; `imbalance` is derived from the statistics and written for
    /// readers of the raw journal (it is not read back).
    pub fn to_json(&self) -> Json {
        let mut o = vec![
            ("schema", Json::num(self.schema)),
            ("exp", Json::str(&self.exp)),
            ("cell", Json::num(self.cell)),
            ("total", Json::num(self.total)),
            ("config", Json::str(&self.config)),
            ("workload", Json::str(&self.workload)),
            ("seed", Json::num(self.seed)),
            ("wall_us", Json::num(self.wall_us)),
            ("outcome", Json::str(self.outcome.as_str())),
        ];
        if let Some(fp) = self.fingerprint {
            o.push(("fingerprint", Json::str(format!("{fp:016x}"))));
        }
        if self.engine != "cycle" {
            o.push(("engine", Json::str(&self.engine)));
        }
        if let Some(v) = self.imbalance() {
            o.push(("imbalance", Json::ratio(Some(v))));
        }
        if self.warmup_frac.is_some() {
            o.push(("warmup_frac", Json::ratio(self.warmup_frac)));
        }
        if !self.reason.is_empty() {
            o.push(("reason", Json::str(&self.reason)));
        }
        o.push(("stats", stats_json(&self.stats)));
        Json::obj(o)
    }

    /// The record as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        self.to_json().compact()
    }

    /// Decodes a record object.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_json(j: &Json) -> Result<CellRecord, String> {
        let opt_str = |key, default| j.get(key).and_then(Json::as_str).unwrap_or(default);
        Ok(CellRecord {
            schema: u64_field(j, "schema")? as u32,
            exp: str_field(j, "exp")?,
            cell: u64_field(j, "cell")? as usize,
            total: u64_field(j, "total")? as usize,
            config: str_field(j, "config")?,
            workload: str_field(j, "workload")?,
            seed: u64_field(j, "seed")?,
            wall_us: u64_field(j, "wall_us")?,
            outcome: CellOutcome::parse(&str_field(j, "outcome")?)?,
            fingerprint: j
                .get("fingerprint")
                .map(|v| {
                    v.as_str()
                        .and_then(|s| u64::from_str_radix(s, 16).ok())
                        .ok_or("non-hex fingerprint")
                })
                .transpose()?,
            stats: stats_from_json(field(j, "stats")?)?,
            warmup_frac: j.get("warmup_frac").and_then(Json::as_f64),
            reason: opt_str("reason", "").to_string(),
            engine: opt_str("engine", "cycle").to_string(),
        })
    }

    /// Parses one JSONL journal line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn parse_line(line: &str) -> Result<CellRecord, String> {
        CellRecord::from_json(&Json::parse(line)?)
    }
}

// ---------------------------------------------------------------------------
// Live progress
// ---------------------------------------------------------------------------

/// One sweep's cell tallies. Its [`SweepScope`] is the only writer (from
/// the worker threads); the progress line and the sweep's timing read
/// them.
#[derive(Debug, Default)]
struct SweepCounts {
    exp: String,
    total: usize,
    active: AtomicUsize,
    done: AtomicUsize,
    degraded: AtomicUsize,
    resumed: AtomicUsize,
}

/// A running cell: counted active while alive, done once dropped — also
/// when the cell unwinds (`--fail-fast`), since the runner still drains
/// it.
struct Running<'c>(&'c SweepCounts);

impl<'c> Running<'c> {
    fn start(counts: &'c SweepCounts) -> Running<'c> {
        counts.active.fetch_add(1, Ordering::Relaxed);
        Running(counts)
    }
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::Relaxed);
        self.0.done.fetch_add(1, Ordering::Relaxed);
    }
}

/// The live progress line of one `figures` invocation: it reads the cell
/// tallies of every sweep opened so far.
#[derive(Debug)]
pub struct Progress {
    start: Instant,
    /// Every sweep opened so far, in opening order (the last is current).
    sweeps: Mutex<Vec<Arc<SweepCounts>>>,
    stop: AtomicBool,
}

impl Progress {
    fn new() -> Progress {
        Progress {
            start: Instant::now(),
            sweeps: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        }
    }

    fn sweeps(&self) -> MutexGuard<'_, Vec<Arc<SweepCounts>>> {
        self.sweeps.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Whether any sweep with cells has opened.
    fn has_cells(&self) -> bool {
        self.sweeps().iter().any(|s| s.total > 0)
    }

    /// One status line: `done/total cells, rate, ETA, degraded count,
    /// resumed count, active workers`.
    pub fn render_line(&self) -> String {
        let sweeps = self.sweeps();
        let sum = |count: fn(&SweepCounts) -> &AtomicUsize| -> usize {
            sweeps
                .iter()
                .map(|s| count(s).load(Ordering::Relaxed))
                .sum()
        };
        let done = sum(|s| &s.done);
        let degraded = sum(|s| &s.degraded);
        let resumed = sum(|s| &s.resumed);
        let active = sum(|s| &s.active);
        let total: usize = sweeps.iter().map(|s| s.total).sum();
        let cur = sweeps.last().map_or("", |s| s.exp.as_str());
        let elapsed = self.start.elapsed().as_secs_f64().max(1e-9);
        let rate = done as f64 / elapsed;
        let eta = if done > 0 && total > done {
            let secs = (total - done) as f64 / rate.max(1e-9);
            format!("{}s", secs.round() as u64)
        } else {
            "-".into()
        };
        format!(
            "[sweep {cur}] {done}/{total} cells, {rate:.2} cells/s, ETA {eta}, \
             {degraded} degraded, {resumed} resumed, {active} active workers"
        )
    }
}

// ---------------------------------------------------------------------------
// Telemetry: the per-invocation sink
// ---------------------------------------------------------------------------

/// The sweep-telemetry sink of one `figures` invocation: owns the output
/// root (`<out>/journal`), the resume flag, the optional progress monitor
/// thread, and the per-experiment timings.
///
/// Telemetry I/O failures never abort a sweep — a warning is printed and
/// the computed statistics are used directly.
pub struct Telemetry {
    root: PathBuf,
    resume: bool,
    progress: Option<Arc<Progress>>,
    monitor: Mutex<Option<JoinHandle<()>>>,
    timings: Mutex<Vec<ExperimentTiming>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("root", &self.root)
            .field("resume", &self.resume)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl Telemetry {
    /// A sink writing journals under `root` (typically the `results/`
    /// output directory). No progress monitor, no resume. Does no I/O:
    /// each sweep opens its own journal.
    pub fn new(root: &Path) -> Telemetry {
        Telemetry {
            root: root.to_path_buf(),
            resume: false,
            progress: None,
            monitor: Mutex::new(None),
            timings: Mutex::new(Vec::new()),
        }
    }

    /// Enables resume: cells whose journal holds a record with a matching
    /// schema version and configuration fingerprint are restored instead
    /// of re-run.
    pub fn with_resume(mut self, resume: bool) -> Telemetry {
        self.resume = resume;
        self
    }

    /// Spawns the live progress reporter: a monitor thread printing one
    /// status line to stderr every `interval`.
    pub fn with_progress(mut self, interval: Duration) -> Telemetry {
        let progress = Arc::new(Progress::new());
        let p = Arc::clone(&progress);
        let handle = std::thread::spawn(move || {
            let tick = Duration::from_millis(100).min(interval);
            let mut since_print = Duration::ZERO;
            loop {
                if p.stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(tick);
                since_print += tick;
                if since_print >= interval {
                    since_print = Duration::ZERO;
                    if p.has_cells() {
                        eprintln!("{}", p.render_line());
                    }
                }
            }
        });
        self.progress = Some(progress);
        self.monitor = Mutex::new(Some(handle));
        self
    }

    /// Opens one sweep's journal; when resuming, first moves its
    /// malformed interior lines aside ([`reject_malformed_lines`]) and
    /// reads it once (after a torn tail is repaired, before the first
    /// append) for the records cells can be restored from. Every cell runs through
    /// [`SweepScope::cell`] on the worker threads; call
    /// [`SweepScope::finish`] when the sweep ends to fold its timing into
    /// [`Telemetry::experiment_counters`].
    pub fn sweep(&self, exp: &str, total: usize, harness_fingerprint: u64) -> SweepScope<'_> {
        let journal = open_journal(&self.root, exp, self.resume)
            .map_err(|e| eprintln!("warning: telemetry journal for {exp} unavailable: {e}"))
            .ok();
        let restorable = if self.resume {
            restorable_records(&journal_path(&self.root, exp))
        } else {
            HashMap::new()
        };
        let counts = Arc::new(SweepCounts {
            exp: exp.to_string(),
            total,
            ..SweepCounts::default()
        });
        if let Some(p) = &self.progress {
            p.sweeps().push(Arc::clone(&counts));
        }
        SweepScope {
            tele: self,
            counts,
            journal: Mutex::new(journal),
            restorable,
            harness_fingerprint,
            cell_walls: Mutex::new(Vec::new()),
            engine: "cycle".to_string(),
            start: Instant::now(),
        }
    }

    /// The timing and cell tallies of every finished sweep, in completion
    /// order (`seconds` is the sweep's own wall-clock).
    pub fn experiment_counters(&self) -> Vec<ExperimentTiming> {
        self.timings
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Stops the progress monitor (if any) after printing a final status
    /// line. Idempotent; also runs on drop.
    pub fn finish(&self) {
        if let Some(p) = &self.progress {
            if !p.stop.swap(true, Ordering::Relaxed) && p.has_cells() {
                eprintln!("{}", p.render_line());
            }
        }
        let handle = self
            .monitor
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        if let Some(p) = &self.progress {
            p.stop.store(true, Ordering::Relaxed);
        }
        let handle = self
            .monitor
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

/// One sweep's journaling scope, shared by the worker threads, which run
/// every cell through [`SweepScope::cell`]. It is the one place a cell is
/// counted as active, done, degraded or resumed.
pub struct SweepScope<'t> {
    tele: &'t Telemetry,
    counts: Arc<SweepCounts>,
    journal: Mutex<Option<fs::File>>,
    /// Statistics of the latest restorable journal record per
    /// `(cell, fingerprint)`; empty unless resuming.
    restorable: HashMap<(usize, u64), RunStats>,
    harness_fingerprint: u64,
    /// `(cell index, wall microseconds)` pairs, pushed from the worker
    /// threads in completion order and sorted by index at `finish`.
    cell_walls: Mutex<Vec<(usize, u64)>>,
    /// Engine tag stamped on every journal record of this sweep.
    engine: String,
    /// When the sweep opened (its timing's `seconds`).
    start: Instant,
}

impl SweepScope<'_> {
    /// Tags every record this sweep journals with the producing engine
    /// (the default "cycle" is omitted from journal lines).
    #[must_use]
    pub fn with_engine(mut self, engine: &str) -> Self {
        self.engine = engine.to_string();
        self
    }

    /// The fingerprint cell `index` is stamped with and matched against
    /// on resume: the schema version, the sweep/cell identity, and the
    /// harness configuration fingerprint.
    pub fn cell_fingerprint(&self, index: usize, spec: &CellSpec) -> u64 {
        fnv1a(&format!(
            "{SCHEMA_VERSION}|{}|{index}|{}|{}|{}|{:016x}",
            self.counts.exp, spec.workload, spec.config, spec.seed, self.harness_fingerprint
        ))
    }

    /// Runs cell `index` of the sweep: restores it from its journal
    /// record when resuming, otherwise calls `run` (the supervised cell)
    /// and journals its verdict. Returns the statistics the grid uses:
    /// decoded from the journal encoding, or zeros for a quarantined
    /// cell.
    pub fn cell(
        &self,
        index: usize,
        spec: &CellSpec,
        run: impl FnOnce() -> CellVerdict,
    ) -> RunStats {
        let _running = Running::start(&self.counts);
        let fingerprint = self.cell_fingerprint(index, spec);
        if let Some(stats) = self.try_restore(index, spec, fingerprint) {
            return stats;
        }
        let t0 = Instant::now();
        let verdict = run();
        let wall_us = t0.elapsed().as_micros() as u64;
        match verdict {
            CellVerdict::Healthy(stats) => {
                self.record_success(index, spec, fingerprint, wall_us, stats)
            }
            // A quarantined record is journaled with its reason and
            // partial statistics but never restored, so a later
            // `--resume` re-runs the cell once the cause is fixed.
            CellVerdict::Quarantined {
                outcome,
                reason,
                stats,
            } => {
                let record = self.record(index, spec, fingerprint, wall_us, outcome, stats);
                self.append_journal(&record.with_reason(&reason).to_json_line());
                self.note_cell_wall(index, wall_us);
                RunStats::default()
            }
        }
    }

    /// The journal record of cell `index`, stamped with this sweep's
    /// engine and the cell's fingerprint.
    fn record(
        &self,
        index: usize,
        spec: &CellSpec,
        fingerprint: u64,
        wall_us: u64,
        outcome: CellOutcome,
        stats: RunStats,
    ) -> CellRecord {
        let (exp, total) = (&self.counts.exp, self.counts.total);
        CellRecord::from_stats(exp, spec, index, total, wall_us, outcome, stats)
            .with_engine(&self.engine)
            .with_fingerprint(fingerprint)
    }

    /// Restores cell `index` when the journal read at resume holds a
    /// record with its fingerprint: journals it as
    /// [`CellOutcome::Resumed`] (with the fingerprint, so a later resume
    /// finds it too) and returns its statistics. `None` means the caller
    /// re-runs the cell.
    fn try_restore(&self, index: usize, spec: &CellSpec, fingerprint: u64) -> Option<RunStats> {
        let t0 = Instant::now();
        let stats = self.restorable.get(&(index, fingerprint))?.clone();
        let wall_us = t0.elapsed().as_micros() as u64;
        let record = self.record(
            index,
            spec,
            fingerprint,
            wall_us,
            CellOutcome::Resumed,
            stats,
        );
        self.append_journal(&record.to_json_line());
        self.counts.resumed.fetch_add(1, Ordering::Relaxed);
        self.note_cell_wall(index, wall_us);
        self.note_degradation(&record.stats);
        Some(record.stats)
    }

    /// Journals a freshly-run cell and returns the statistics decoded
    /// from the journal line it serialized, whether or not the append
    /// succeeded, so fresh and resumed grids come from one encoding.
    fn record_success(
        &self,
        index: usize,
        spec: &CellSpec,
        fingerprint: u64,
        wall_us: u64,
        stats: RunStats,
    ) -> RunStats {
        let outcome = CellOutcome::of(&stats);
        let record = self.record(index, spec, fingerprint, wall_us, outcome, stats);
        let line = record.to_json_line();
        self.append_journal(&line);
        self.note_cell_wall(index, wall_us);
        let stats = CellRecord::parse_line(&line).map_or_else(
            |e| {
                eprintln!("warning: {} cell {index}: {e}", self.counts.exp);
                record.stats
            },
            |r| r.stats,
        );
        self.note_degradation(&stats);
        stats
    }

    fn note_cell_wall(&self, index: usize, wall_us: u64) {
        self.cell_walls
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push((index, wall_us));
    }

    fn note_degradation(&self, stats: &RunStats) {
        if stats.degradation.is_degraded() {
            self.counts.degraded.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn append_journal(&self, line: &str) {
        let mut guard = self.journal.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(file) = guard.as_mut() {
            if let Err(e) = writeln!(file, "{line}") {
                eprintln!(
                    "warning: journal append failed for {}: {e}",
                    self.counts.exp
                );
                *guard = None;
            }
        }
    }

    /// Records the sweep's timing and cell tallies in the telemetry's
    /// per-experiment list.
    pub fn finish(self) {
        let mut walls = self
            .cell_walls
            .into_inner()
            .unwrap_or_else(|p| p.into_inner());
        walls.sort_unstable_by_key(|&(i, _)| i);
        let counts = &self.counts;
        let timing = ExperimentTiming {
            id: counts.exp.clone(),
            seconds: self.start.elapsed().as_secs_f64(),
            cells: counts.total,
            degraded: counts.degraded.load(Ordering::Relaxed),
            resumed: counts.resumed.load(Ordering::Relaxed),
            cell_wall_us: walls.into_iter().map(|(_, us)| us).collect(),
        };
        self.tele
            .timings
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(timing);
    }
}

// ---------------------------------------------------------------------------
// Journal reading & summarizing (the `figures status` subcommand)
// ---------------------------------------------------------------------------

/// Truncates a torn final journal record: a crash mid-append leaves a
/// partial line with no trailing newline, and every complete record
/// before it is still valid. Returns the number of bytes dropped (0 when
/// the file is absent, empty, or ends cleanly).
///
/// # Errors
///
/// Propagates I/O errors other than the file not existing.
pub fn repair_torn_tail(path: &Path) -> std::io::Result<u64> {
    let body = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    if body.is_empty() || body.last() == Some(&b'\n') {
        return Ok(0);
    }
    let keep = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let f = fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(keep as u64)?;
    Ok((body.len() - keep) as u64)
}

/// Opens `<root>/journal/<exp>.jsonl` for appending, creating the
/// directory. A crash mid-append leaves a torn final record (no trailing
/// newline): it is truncated back to the last complete line first, so the
/// journal stays a valid JSONL prefix and new records don't concatenate
/// onto the torn tail. With `reject`, malformed interior lines are then
/// moved aside ([`reject_malformed_lines`]); failing to move them only
/// warns, and the lines stay.
fn open_journal(root: &Path, exp: &str, reject: bool) -> std::io::Result<fs::File> {
    fs::create_dir_all(root.join("journal"))?;
    let path = journal_path(root, exp);
    let dropped = repair_torn_tail(&path)?;
    if dropped > 0 {
        eprintln!("warning: {exp} journal had a torn final record; dropped {dropped} byte(s)");
    }
    if reject {
        match reject_malformed_lines(&path) {
            Ok(moved) => {
                for m in moved {
                    eprintln!("warning: moved malformed journal line {m}");
                }
            }
            Err(e) => eprintln!("warning: could not move malformed {exp} journal lines: {e}"),
        }
    }
    fs::OpenOptions::new().create(true).append(true).open(&path)
}

/// Moves the malformed lines of the journal at `path` (a torn tail
/// already repaired) into `<exp>.rejected` beside it, and replaces the
/// journal with its remaining lines. A resumed sweep re-runs the cells
/// those lines belonged to, so afterwards `status --check` accepts the
/// journal again, and `status` warns that the rejected file exists. The
/// lines are appended to the rejected file before the journal is
/// replaced (a new file renamed over it), so a crash loses none; at
/// worst a line is rejected twice. Returns one `file:line: error` entry
/// per moved line.
///
/// # Errors
///
/// Propagates I/O errors other than the journal not existing.
fn reject_malformed_lines(path: &Path) -> std::io::Result<Vec<String>> {
    let body = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let (mut kept, mut rejected, mut moved) = (Vec::new(), Vec::new(), Vec::new());
    for (n, line) in body.split_inclusive(|&b| b == b'\n').enumerate() {
        let parsed = std::str::from_utf8(line)
            .map_err(|e| e.to_string())
            .and_then(|l| match l.trim_end_matches(['\r', '\n']) {
                "" => Ok(None),
                l => parse_journal_line(l),
            });
        match parsed {
            Ok(_) => kept.extend_from_slice(line),
            Err(e) => {
                rejected.extend_from_slice(line);
                moved.push(format!("{}:{}: {e}", path.display(), n + 1));
            }
        }
    }
    if moved.is_empty() {
        return Ok(moved);
    }
    fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path.with_extension("rejected"))?
        .write_all(&rejected)?;
    let fresh = path.with_extension("jsonl.tmp");
    fs::write(&fresh, &kept)?;
    fs::rename(&fresh, path)?;
    Ok(moved)
}

fn journal_path(root: &Path, exp: &str) -> PathBuf {
    root.join("journal").join(format!("{exp}.jsonl"))
}

/// Appends pre-built records to `<root>/journal/<exp>.jsonl`. Used by
/// runs (like `figures timeline`) that journal outside a [`Telemetry`]
/// sweep scope; re-runs append, and [`summarize`] keeps the latest record
/// per cell. Their records carry no fingerprint, so `--resume` never
/// restores from them.
///
/// # Errors
///
/// Propagates I/O errors from the journal directory or file.
pub fn append_journal_records(
    root: &Path,
    exp: &str,
    records: &[CellRecord],
) -> std::io::Result<()> {
    let mut f = open_journal(root, exp, false)?;
    for r in records {
        writeln!(f, "{}", r.to_json_line())?;
    }
    Ok(())
}

/// What [`read_journal_dir`] recovered from a journal directory.
#[derive(Clone, Debug, Default)]
pub struct JournalRead {
    /// Every record that parsed, in file order.
    pub records: Vec<CellRecord>,
    /// Malformed interior lines (`file:line: error`) — real corruption
    /// that `status --check` should fail on.
    pub errors: Vec<String>,
    /// Torn final lines (no trailing newline — a crash mid-append).
    /// The valid prefix above them was salvaged; these are warnings, not
    /// check failures.
    pub salvaged: Vec<String>,
    /// Lines written under another [`SCHEMA_VERSION`] (an older journal),
    /// skipped. A warning, not a check failure.
    pub stale: usize,
    /// `<exp>.rejected` files (`file: N line(s)`): malformed lines a
    /// resume moved out of a journal. A warning, not a check failure.
    pub rejected: Vec<String>,
}

/// Reads every `*.jsonl` journal under `dir` (sorted by file name) and
/// parses its records. Malformed interior lines become
/// [`JournalRead::errors`] instead of aborting the read; a malformed
/// *final* line with no trailing newline is a torn tail from a crash
/// mid-append — the valid prefix is kept and the tail reported in
/// [`JournalRead::salvaged`]. Lines from another schema are counted in
/// [`JournalRead::stale`], and `*.rejected` files are listed in
/// [`JournalRead::rejected`].
pub fn read_journal_dir(dir: &Path) -> JournalRead {
    let mut out = JournalRead::default();
    let mut files: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => entries.filter_map(|e| e.ok().map(|e| e.path())).collect(),
        Err(_) => return out,
    };
    files.sort();
    for path in files {
        match path.extension().and_then(|x| x.to_str()) {
            Some("jsonl") => read_journal_file(&path, &mut out),
            Some("rejected") => {
                let lines =
                    fs::read(&path).map_or(0, |b| b.iter().filter(|&&c| c == b'\n').count());
                out.rejected
                    .push(format!("{}: {lines} line(s)", path.display()));
            }
            _ => {}
        }
    }
    out
}

/// The per-file half of [`read_journal_dir`], which `--resume` also reads
/// its sweep's journal with.
fn read_journal_file(path: &Path, out: &mut JournalRead) {
    let body = match fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => {
            out.errors.push(format!("{}: {e}", path.display()));
            return;
        }
    };
    let torn_tail = !body.is_empty() && !body.ends_with('\n');
    let last = body.lines().count();
    for (n, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_journal_line(line) {
            Ok(Some(r)) => out.records.push(r),
            Ok(None) => out.stale += 1,
            Err(e) if torn_tail && n + 1 == last => out.salvaged.push(format!(
                "{}:{}: torn final record ({e}); salvaged the {} line(s) before it",
                path.display(),
                n + 1,
                n
            )),
            Err(e) => out
                .errors
                .push(format!("{}:{}: {e}", path.display(), n + 1)),
        }
    }
}

/// One journal line's record; `None` for a line written under another
/// [`SCHEMA_VERSION`].
fn parse_journal_line(line: &str) -> Result<Option<CellRecord>, String> {
    let j = Json::parse(line)?;
    match j.get("schema").and_then(Json::as_u64) {
        Some(v) if v != u64::from(SCHEMA_VERSION) => Ok(None),
        _ => CellRecord::from_json(&j).map(Some),
    }
}

/// The restore index of one sweep's journal: the statistics of the latest
/// record per `(cell, fingerprint)` whose outcome is completed, degraded
/// or resumed. Records without a fingerprint never enter it; unreadable
/// lines are reported and skipped, so their cells re-run.
fn restorable_records(path: &Path) -> HashMap<(usize, u64), RunStats> {
    let mut read = JournalRead::default();
    read_journal_file(path, &mut read);
    for e in &read.errors {
        eprintln!("[telemetry] resume skips {e}");
    }
    read.records
        .into_iter()
        .filter(|r| !r.outcome.is_quarantined())
        .filter_map(|r| Some(((r.cell, r.fingerprint?), r.stats)))
        .collect()
}

/// One experiment's journal summary (what `figures status` renders).
#[derive(Clone, Debug)]
pub struct ExpSummary {
    /// Experiment id.
    pub exp: String,
    /// Cells the sweep declared (`total` field of its records).
    pub total: usize,
    /// Distinct cells with at least one record.
    pub cells: usize,
    /// Of those, cells whose latest record is degradation-free.
    pub completed: usize,
    /// Cells whose latest record carries degradation events.
    pub degraded: usize,
    /// Cells whose latest record was a resume restore.
    pub resumed: usize,
    /// Cells whose latest record is a quarantined typed abort.
    pub aborted: usize,
    /// Cells whose latest record is a quarantined panic.
    pub panicked: usize,
    /// Summed wall-clock of the latest record per cell, µs.
    pub wall_us: u64,
    /// Latest record per cell, slowest first (fresh runs only).
    pub slowest: Vec<CellRecord>,
    /// Latest record of every degraded cell, in cell order.
    pub degraded_cells: Vec<CellRecord>,
    /// Latest record of every quarantined (aborted/panicked) cell, in
    /// cell order.
    pub quarantined_cells: Vec<CellRecord>,
    /// Cell indices in `0..total` with no journal record at all (a
    /// crash or kill before the cell finished) — what `status --check`
    /// flags as incomplete coverage.
    pub missing: Vec<usize>,
    /// Worst per-chiplet DRAM imbalance (max/mean) over the latest
    /// record of every cell; `None` when no cell journaled one.
    pub worst_imbalance: Option<f64>,
    /// Mean warmup fraction over the cells that journaled one (timeline
    /// runs); `None` otherwise.
    pub warmup_frac: Option<f64>,
}

/// Groups journal records by experiment (first-seen order) and reduces
/// each to its latest-record-per-cell summary. Re-runs append to the
/// journal, so later records for the same `(exp, cell)` supersede earlier
/// ones.
pub fn summarize(records: &[CellRecord]) -> Vec<ExpSummary> {
    let mut order: Vec<String> = Vec::new();
    for r in records {
        if !order.contains(&r.exp) {
            order.push(r.exp.clone());
        }
    }
    order
        .into_iter()
        .map(|exp| {
            // Latest record per cell index.
            let mut latest: Vec<(usize, &CellRecord)> = Vec::new();
            let mut total = 0;
            for r in records.iter().filter(|r| r.exp == exp) {
                total = total.max(r.total);
                match latest.iter_mut().find(|(c, _)| *c == r.cell) {
                    Some(slot) => slot.1 = r,
                    None => latest.push((r.cell, r)),
                }
            }
            latest.sort_by_key(|(c, _)| *c);
            let cells = latest.len();
            let quarantined_cells: Vec<CellRecord> = latest
                .iter()
                .filter(|(_, r)| r.outcome.is_quarantined())
                .map(|(_, r)| (*r).clone())
                .collect();
            let degraded_cells: Vec<CellRecord> = latest
                .iter()
                .filter(|(_, r)| !r.outcome.is_quarantined() && r.degraded_events() > 0)
                .map(|(_, r)| (*r).clone())
                .collect();
            let resumed = latest
                .iter()
                .filter(|(_, r)| r.outcome == CellOutcome::Resumed)
                .count();
            let aborted = quarantined_cells
                .iter()
                .filter(|r| r.outcome == CellOutcome::Aborted)
                .count();
            let panicked = quarantined_cells.len() - aborted;
            let missing: Vec<usize> = (0..total)
                .filter(|i| !latest.iter().any(|(c, _)| c == i))
                .collect();
            let wall_us = latest.iter().map(|(_, r)| r.wall_us).sum();
            let mut slowest: Vec<CellRecord> = latest
                .iter()
                .filter(|(_, r)| r.outcome != CellOutcome::Resumed && !r.outcome.is_quarantined())
                .map(|(_, r)| (*r).clone())
                .collect();
            slowest.sort_by_key(|r| std::cmp::Reverse(r.wall_us));
            slowest.truncate(3);
            let worst_imbalance = latest
                .iter()
                .filter_map(|(_, r)| r.imbalance())
                .fold(None, |acc: Option<f64>, v| {
                    Some(acc.map_or(v, |a| a.max(v)))
                });
            let warmed: Vec<f64> = latest.iter().filter_map(|(_, r)| r.warmup_frac).collect();
            let warmup_frac =
                (!warmed.is_empty()).then(|| warmed.iter().sum::<f64>() / warmed.len() as f64);
            ExpSummary {
                exp,
                total,
                cells,
                completed: cells - degraded_cells.len() - quarantined_cells.len(),
                degraded: degraded_cells.len(),
                resumed,
                aborted,
                panicked,
                wall_us,
                slowest,
                degraded_cells,
                quarantined_cells,
                missing,
                worst_imbalance,
                warmup_frac,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_sim::DegradationStats;

    fn sample_stats() -> RunStats {
        let mut per_alloc = std::collections::HashMap::new();
        per_alloc.insert(
            AllocId::new(3),
            AllocAccessStats {
                accesses: 30,
                remote: 4,
            },
        );
        per_alloc.insert(
            AllocId::new(1),
            AllocAccessStats {
                accesses: 10,
                remote: 2,
            },
        );
        RunStats {
            cycles: 123_456_789_012,
            mem_insts: 42,
            warp_insts: 420,
            remote_insts: 7,
            l1d_hits: 1,
            l1d_misses: 2,
            l2d_hits: 3,
            l2d_misses: 4,
            l1tlb_hits: 5,
            l1tlb_misses: 6,
            l2tlb_hits: 7,
            l2tlb_misses: 8,
            walks: 9,
            walk_mshr_hits: 10,
            walk_cycles: 11,
            translation_cycles: 12,
            data_cycles: 13,
            faults: 14,
            coalesced_fills: 15,
            promotions: 16,
            remote_cache_hits: 17,
            migrations: 18,
            shootdowns: 19,
            dram_accesses: 20,
            interconnect_transfers: 21,
            dram_queue_cycles: 22,
            interconnect_queue_cycles: 23,
            dram_per_chiplet: vec![5, 5, 5, 5],
            blocks_consumed: Some(99),
            per_alloc,
            degradation: DegradationStats {
                fallback_remote_frames: 2,
                walk_queue_stalls: 3,
                walk_queue_stall_cycles: 40,
                ..Default::default()
            },
        }
    }

    fn spec() -> CellSpec {
        CellSpec {
            row: 1,
            col: 2,
            workload: "STE".into(),
            config: "S-64KB".into(),
            seed: 0,
        }
    }

    fn record(cell: usize, total: usize, wall_us: u64, outcome: CellOutcome) -> CellRecord {
        CellRecord::from_stats(
            "figX",
            &spec(),
            cell,
            total,
            wall_us,
            outcome,
            sample_stats(),
        )
    }

    #[test]
    fn outcome_records_keep_the_abort_and_its_reason() {
        let s = sample_stats();
        let aborted = RunOutcome::Aborted {
            reason: mcm_sim::SimError::BudgetExceeded {
                cycles: 900,
                max_cycles: 800,
            },
            stats: s.clone(),
        };
        let r = CellRecord::from_outcome("fig1-timeline", &spec(), 3, 24, 99, &aborted);
        assert_eq!(
            r.outcome,
            CellOutcome::Aborted,
            "partial stats are not a completion"
        );
        assert!(
            r.reason.contains("800"),
            "reason names the budget: {}",
            r.reason
        );
        assert_eq!(r.stats.cycles, s.cycles);
        // A completed run is classified by its statistics alone.
        let degraded = RunOutcome::Completed(s.clone());
        let r = CellRecord::from_outcome("x", &spec(), 0, 1, 1, &degraded);
        assert_eq!((r.outcome, r.reason.as_str()), (CellOutcome::Degraded, ""));
        let clean = RunStats {
            degradation: DegradationStats::default(),
            ..s
        };
        let r = CellRecord::from_outcome("x", &spec(), 0, 1, 1, &RunOutcome::Completed(clean));
        assert_eq!(r.outcome, CellOutcome::Completed);
    }

    #[test]
    fn stats_round_trip_is_exact() {
        let s = sample_stats();
        let encoded = stats_to_json(&s);
        // The stats digests hash these exact bytes.
        assert_eq!(
            encoded,
            concat!(
                r#"{"cycles":123456789012,"mem_insts":42,"warp_insts":420,"remote_insts":7,"#,
                r#""l1d_hits":1,"l1d_misses":2,"l2d_hits":3,"l2d_misses":4,"l1tlb_hits":5,"#,
                r#""l1tlb_misses":6,"l2tlb_hits":7,"l2tlb_misses":8,"walks":9,"#,
                r#""walk_mshr_hits":10,"walk_cycles":11,"translation_cycles":12,"#,
                r#""data_cycles":13,"faults":14,"coalesced_fills":15,"promotions":16,"#,
                r#""remote_cache_hits":17,"migrations":18,"shootdowns":19,"dram_accesses":20,"#,
                r#""interconnect_transfers":21,"dram_queue_cycles":22,"#,
                r#""interconnect_queue_cycles":23,"dram_per_chiplet":[5,5,5,5],"blocks_consumed":99,"#,
                r#""per_alloc":{"1":{"accesses":10,"remote":2},"3":{"accesses":30,"remote":4}},"#,
                r#""degradation":{"fallback_remote_frames":2,"rejected_directives":0,"#,
                r#""tlb_class_missing":0,"walk_queue_stalls":3,"walk_queue_stall_cycles":40,"#,
                r#""stale_tlb_hits":0,"audit_violations":0,"error_samples":[]}}"#
            )
        );
        let decoded = stats_from_json(&Json::parse(&encoded).expect("parse")).expect("decode");
        // Everything a figure reads round-trips exactly; re-encoding the
        // decoded value must be byte-identical.
        assert_eq!(stats_to_json(&decoded), encoded);
        assert_eq!(decoded, s);
        assert!(decoded.degradation.is_degraded());
    }

    #[test]
    fn record_round_trip() {
        let s = sample_stats();
        let timeline = record(5, 24, 1234, CellOutcome::Completed).with_warmup_frac(Some(0.25));
        let cases = [
            record(5, 24, 1234, CellOutcome::Completed),
            record(5, 24, 1234, CellOutcome::Degraded),
            record(5, 24, 7, CellOutcome::Resumed),
            record(5, 24, 99, CellOutcome::Aborted).with_reason("livelock at cycle \"77\"\n"),
            timeline.clone(),
            record(5, 24, 1234, CellOutcome::Completed).with_engine("analytic"),
            record(5, 24, 1234, CellOutcome::Completed).with_fingerprint(0xabcd),
        ];
        for r in &cases {
            let line = r.to_json_line();
            assert!(!line.contains('\n'), "journal records are single lines");
            let parsed = CellRecord::parse_line(&line).expect("parse");
            assert_eq!(&parsed, r);
            assert_eq!(parsed.degraded_events(), s.degradation.events());
            // The derived imbalance is written for raw-journal readers.
            assert!(line.contains(r#""imbalance":1.000000"#), "{line}");
        }
        // The compact spellings the CI smokes grep for.
        assert!(cases[2].to_json_line().contains(r#""outcome":"resumed""#));
        assert!(cases[4]
            .to_json_line()
            .contains(r#""warmup_frac":0.250000"#));
        assert!(cases[5].to_json_line().contains(r#""engine":"analytic""#));
        assert!(!cases[0].to_json_line().contains("engine"));
        assert!(cases[6]
            .to_json_line()
            .contains(r#""outcome":"completed","fingerprint":"000000000000abcd","#));
        assert!(!cases[0].to_json_line().contains("fingerprint"));
        // A fingerprint that is not hex is a malformed record.
        let bad = cases[6].to_json_line().replace("000000000000abcd", "xyz");
        let err = CellRecord::parse_line(&bad).expect_err("bad fingerprint");
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        assert_eq!(fnv1a("abc"), fnv1a("abc"));
        assert_ne!(fnv1a("abc"), fnv1a("abd"));
        // The FNV-1a reference value for the empty string.
        assert_eq!(fnv1a(""), 0xcbf29ce484222325);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration_us(870), "870µs");
        assert_eq!(fmt_duration_us(3_400), "3.4ms");
        assert_eq!(fmt_duration_us(1_250_000), "1.25s");
        assert_eq!(fmt_duration_us(83_000_000), "83.0s");
    }

    #[test]
    fn summarize_keeps_latest_record_per_cell() {
        let mut clean = sample_stats();
        clean.degradation = DegradationStats::default();
        let first = record(0, 2, 500, CellOutcome::Degraded);
        let rerun = CellRecord::from_stats(
            "figX",
            &spec(),
            0,
            2,
            700,
            CellOutcome::Completed,
            clean.clone(),
        );
        let other = CellRecord::from_stats("figX", &spec(), 1, 2, 900, CellOutcome::Resumed, clean);
        let sums = summarize(&[first, rerun.clone(), other]);
        assert_eq!(sums.len(), 1);
        let sum = &sums[0];
        assert_eq!((sum.cells, sum.total), (2, 2));
        assert_eq!(sum.degraded, 0, "the re-run superseded the degraded record");
        assert_eq!(sum.completed, 2);
        assert_eq!(sum.resumed, 1);
        assert_eq!(sum.wall_us, 700 + 900);
        assert_eq!(sum.slowest.len(), 1, "resumed cells are not 'slow'");
        assert_eq!(sum.slowest[0], rerun);
    }

    /// Runs cell 0 of a one-cell `figX` sweep under `tele`, returning its
    /// statistics and whether `run` was called.
    fn run_one(tele: &Telemetry, harness_fingerprint: u64) -> (RunStats, bool) {
        let scope = tele.sweep("figX", 1, harness_fingerprint);
        let mut ran = false;
        let stats = scope.cell(0, &spec(), || {
            ran = true;
            CellVerdict::Healthy(sample_stats())
        });
        scope.finish();
        (stats, ran)
    }

    #[test]
    fn scope_journals_then_resumes_from_the_journal() {
        let dir = std::env::temp_dir().join("clap-repro-test-telemetry-scope");
        let _ = fs::remove_dir_all(&dir);
        let tele = Telemetry::new(&dir);
        let (out, ran) = run_one(&tele, 42);
        assert!(ran);
        assert_eq!(out.cycles, sample_stats().cycles);
        let journal = read_journal_dir(&dir.join("journal"));
        assert!(journal.errors.is_empty(), "{:?}", journal.errors);
        assert!(journal.salvaged.is_empty(), "{:?}", journal.salvaged);
        let records = journal.records;
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].outcome, CellOutcome::Degraded);
        let fingerprint = tele.sweep("figX", 1, 42).cell_fingerprint(0, &spec());
        assert_eq!(records[0].fingerprint, Some(fingerprint));
        assert_eq!(
            fs::read_dir(&dir).expect("out dir").count(),
            1,
            "the journal is the only store"
        );
        let timings = tele.experiment_counters();
        assert_eq!(timings.len(), 1);
        let t = &timings[0];
        assert_eq!(
            (t.id.as_str(), t.cells, t.degraded, t.resumed),
            ("figX", 1, 1, 0)
        );
        assert_eq!(t.cell_wall_us.len(), 1, "one wall-time entry per cell");
        // Resume: the journal record restores the cell, so nothing re-runs
        // it — twice, since the resumed record carries the fingerprint.
        for _ in 0..2 {
            let tele = Telemetry::new(&dir).with_resume(true);
            let (resumed, ran) = run_one(&tele, 42);
            assert!(!ran, "a restorable record is not re-run");
            assert_eq!(stats_to_json(&resumed), stats_to_json(&out));
            assert_eq!(tele.experiment_counters()[0].resumed, 1);
        }
        let last = read_journal_dir(&dir.join("journal")).records.pop();
        let last = last.expect("resumed record");
        assert_eq!(
            (last.outcome, last.fingerprint),
            (CellOutcome::Resumed, Some(fingerprint))
        );
        // A different harness fingerprint (a changed configuration)
        // re-runs the cell.
        let tele = Telemetry::new(&dir).with_resume(true);
        let (fresh, ran) = run_one(&tele, 43);
        assert!(ran, "a mismatched fingerprint re-runs");
        assert_eq!(fresh.cycles, sample_stats().cycles);
        assert_eq!(tele.experiment_counters()[0].resumed, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_records_round_trip_with_reason() {
        let r = CellRecord::from_stats(
            "fig1",
            &spec(),
            3,
            24,
            99,
            CellOutcome::Aborted,
            sample_stats(),
        )
        .with_reason("livelock detected at cycle 77000");
        let line = r.to_json_line();
        assert!(line.contains("\"outcome\":\"aborted\""));
        assert!(line.contains("\"reason\":\"livelock detected at cycle 77000\""));
        let parsed = CellRecord::parse_line(&line).expect("parse");
        assert_eq!(parsed, r);
        assert!(parsed.outcome.is_quarantined());
        // Healthy records omit the reason field entirely.
        let healthy = record(3, 24, 99, CellOutcome::Completed);
        assert!(!healthy.to_json_line().contains("reason"));
        assert_eq!(
            CellRecord::parse_line(&healthy.to_json_line())
                .expect("parse")
                .reason,
            ""
        );
    }

    #[test]
    fn summarize_classifies_quarantined_and_missing_cells() {
        let mut clean = sample_stats();
        clean.degradation = DegradationStats::default();
        let ok = CellRecord::from_stats(
            "figQ",
            &spec(),
            0,
            4,
            100,
            CellOutcome::Completed,
            clean.clone(),
        );
        let aborted = CellRecord::from_stats(
            "figQ",
            &spec(),
            1,
            4,
            50,
            CellOutcome::Aborted,
            sample_stats(),
        )
        .with_reason("run budget exceeded");
        let panicked =
            CellRecord::from_stats("figQ", &spec(), 2, 4, 10, CellOutcome::Panicked, clean)
                .with_reason("boom");
        // Cell 3 never journaled (crash before completion).
        let sums = summarize(&[ok, aborted, panicked]);
        assert_eq!(sums.len(), 1);
        let sum = &sums[0];
        assert_eq!((sum.cells, sum.total), (3, 4));
        assert_eq!((sum.completed, sum.aborted, sum.panicked), (1, 1, 1));
        assert_eq!(
            sum.degraded, 0,
            "the aborted cell's degradation events must not double-count it"
        );
        assert_eq!(sum.quarantined_cells.len(), 2);
        assert_eq!(sum.missing, vec![3]);
        assert_eq!(sum.slowest.len(), 1, "quarantined cells are not 'slow'");
    }

    #[test]
    fn torn_journal_tail_is_salvaged_and_repaired() {
        let dir = std::env::temp_dir().join("clap-repro-test-telemetry-torn");
        let _ = fs::remove_dir_all(&dir);
        let journal_dir = dir.join("journal");
        fs::create_dir_all(&journal_dir).expect("mkdir");
        let good = CellRecord::from_stats(
            "figT",
            &spec(),
            0,
            2,
            10,
            CellOutcome::Completed,
            sample_stats(),
        );
        let torn = good.to_json_line();
        let torn = &torn[..torn.len() / 2]; // record cut mid-write
        let path = journal_dir.join("figT.jsonl");
        fs::write(&path, format!("{}\n{torn}", good.to_json_line())).expect("write");
        // Reading salvages the valid prefix; the torn tail is a warning,
        // not an error.
        let read = read_journal_dir(&journal_dir);
        assert_eq!(read.records.len(), 1);
        assert!(read.errors.is_empty(), "{:?}", read.errors);
        assert_eq!(read.salvaged.len(), 1, "{:?}", read.salvaged);
        assert!(read.salvaged[0].contains("torn final record"));
        // Re-opening the sweep truncates the torn bytes so appends start
        // on a fresh line.
        let tele = Telemetry::new(&dir);
        let scope = tele.sweep("figT", 2, 42);
        scope.cell(1, &spec(), || CellVerdict::Healthy(sample_stats()));
        scope.finish();
        let read = read_journal_dir(&journal_dir);
        assert_eq!(read.records.len(), 2);
        assert!(read.errors.is_empty(), "{:?}", read.errors);
        assert!(read.salvaged.is_empty(), "{:?}", read.salvaged);
        // An interior corrupt line is real corruption, not a torn tail.
        fs::write(&path, format!("not json\n{}\n", good.to_json_line())).expect("write");
        let read = read_journal_dir(&journal_dir);
        assert_eq!(read.records.len(), 1);
        assert_eq!(read.errors.len(), 1);
        assert!(read.salvaged.is_empty());
        // A line from an older schema is skipped and counted as stale.
        let old = "{\"schema\":2,\"exp\":\"figT\",\"cell\":1,\"total\":2,\"config\":\"S-64KB\",\
                   \"workload\":\"STE\",\"seed\":0,\"wall_us\":5,\"outcome\":\"completed\",\
                   \"cycles\":9,\"imbalance\":1.000000}";
        fs::write(&path, format!("{old}\n{}\n", good.to_json_line())).expect("write");
        let read = read_journal_dir(&journal_dir);
        assert_eq!((read.records.len(), read.stale), (1, 1));
        assert!(read.errors.is_empty(), "{:?}", read.errors);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A resume moves a malformed interior line into `<exp>.rejected`
    /// and re-runs its cell, leaving a journal whose every line parses; a
    /// sweep without resume leaves the line where it is.
    #[test]
    fn resume_moves_malformed_lines_aside() {
        let dir = std::env::temp_dir().join("clap-repro-test-telemetry-reject");
        let _ = fs::remove_dir_all(&dir);
        let sweep = |tele: &Telemetry| {
            let scope = tele.sweep("figR", 2, 42);
            let mut ran = Vec::new();
            for c in 0..2 {
                scope.cell(c, &spec(), || {
                    ran.push(c);
                    CellVerdict::Healthy(sample_stats())
                });
            }
            scope.finish();
            ran
        };
        assert_eq!(sweep(&Telemetry::new(&dir)), [0, 1]);
        let path = dir.join("journal/figR.jsonl");
        let body = fs::read_to_string(&path).expect("journal");
        let intact = body.lines().nth(1).expect("cell 1's record");
        let bad = "{\"cell\":0,\"truncat\n";
        fs::write(&path, format!("{bad}{intact}\n")).expect("damage");

        Telemetry::new(&dir).sweep("figR", 2, 42).finish();
        let read = read_journal_dir(&dir.join("journal"));
        assert_eq!(read.errors.len(), 1, "{:?}", read.errors);
        assert!(read.rejected.is_empty(), "{:?}", read.rejected);

        assert_eq!(sweep(&Telemetry::new(&dir).with_resume(true)), [0]);
        let read = read_journal_dir(&dir.join("journal"));
        assert!(read.errors.is_empty(), "{:?}", read.errors);
        assert_eq!(
            read.records.len(),
            1 + 2,
            "cell 1's record, then both cells'"
        );
        assert_eq!(read.rejected.len(), 1, "{:?}", read.rejected);
        assert!(read.rejected[0].ends_with("figR.rejected: 1 line(s)"));
        let rejected = fs::read_to_string(dir.join("journal/figR.rejected")).expect("rejected");
        assert_eq!(rejected, bad);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unrestorable_records_re_run() {
        let dir = std::env::temp_dir().join("clap-repro-test-telemetry-unrestorable");
        let _ = fs::remove_dir_all(&dir);
        let tele = Telemetry::new(&dir);
        let scope = tele.sweep("figF", 3, 42);
        // Cell 0: quarantined.
        scope.cell(0, &spec(), || CellVerdict::Quarantined {
            outcome: CellOutcome::Panicked,
            reason: "injected panic".into(),
            stats: RunStats::default(),
        });
        let fp2 = scope.cell_fingerprint(2, &spec());
        scope.finish();
        let healthy = |i| {
            CellRecord::from_stats(
                "figF",
                &spec(),
                i,
                3,
                5,
                CellOutcome::Completed,
                sample_stats(),
            )
        };
        // Cell 1: a healthy record without a fingerprint (as a timeline
        // run journals). Cell 2: a healthy record of schema v3.
        let v3 = healthy(2)
            .with_fingerprint(fp2)
            .to_json_line()
            .replace(&format!("\"schema\":{SCHEMA_VERSION},"), "\"schema\":3,");
        append_journal_records(&dir, "figF", &[healthy(1)]).expect("append");
        let path = dir.join("journal/figF.jsonl");
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("open");
        writeln!(f, "{v3}").expect("append");
        let read = read_journal_dir(&dir.join("journal"));
        assert_eq!(
            (read.records.len(), read.stale),
            (2, 1),
            "the v3 line is skipped"
        );
        assert_eq!(read.records[0].outcome, CellOutcome::Panicked);
        assert_eq!(read.records[0].reason, "injected panic");
        assert_eq!(read.records[1].fingerprint, None);
        // Resume restores none of the three cells.
        let tele = Telemetry::new(&dir).with_resume(true);
        let scope = tele.sweep("figF", 3, 42);
        let mut ran = Vec::new();
        for i in 0..3 {
            scope.cell(i, &spec(), || {
                ran.push(i);
                CellVerdict::Healthy(sample_stats())
            });
        }
        scope.finish();
        assert_eq!(ran, [0, 1, 2]);
        assert_eq!(tele.experiment_counters()[0].resumed, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scope_counts_every_cell_for_progress_and_timing() {
        let dir = std::env::temp_dir().join("clap-repro-test-telemetry-progress");
        let _ = fs::remove_dir_all(&dir);
        let tele = Telemetry::new(&dir).with_progress(Duration::from_secs(3600));
        let progress = tele.progress.clone().expect("progress is on");
        let scope = tele.sweep("figP", 3, 42);
        let healthy = scope.cell(0, &spec(), || CellVerdict::Healthy(sample_stats()));
        assert_eq!(healthy.cycles, sample_stats().cycles);
        let quarantined = scope.cell(1, &spec(), || CellVerdict::Quarantined {
            outcome: CellOutcome::Panicked,
            reason: "boom".into(),
            stats: sample_stats(),
        });
        assert_eq!(
            quarantined,
            RunStats::default(),
            "quarantined cells read zero"
        );
        // A cell that unwinds (`--fail-fast`) still finishes.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scope.cell(2, &spec(), || panic!("fail-fast"))
        }));
        assert!(unwound.is_err());
        let line = progress.render_line();
        assert!(line.contains("[sweep figP] 3/3 cells"), "{line}");
        assert!(line.contains("1 degraded, 0 resumed"), "{line}");
        assert!(line.contains("0 active workers"), "{line}");
        assert!(line.contains("ETA"), "{line}");
        scope.finish();
        // A resumed sweep counts the restored cell once, as resumed.
        let tele = Telemetry::new(&dir).with_resume(true);
        let scope = tele.sweep("figP", 3, 42);
        let restored = scope.cell(0, &spec(), || panic!("a restorable record is not re-run"));
        assert_eq!(stats_to_json(&restored), stats_to_json(&healthy));
        scope.finish();
        let t = &tele.experiment_counters()[0];
        assert_eq!((t.cells, t.degraded, t.resumed), (3, 1, 1));
        let _ = fs::remove_dir_all(&dir);
    }
}
