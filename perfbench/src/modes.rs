//! The two ways to run one workload: `run` (tracing off, end-to-end
//! metrics over repeated sweeps) and `trace` (one serial sweep with every
//! layer timed).

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use mcm_bench::experiments::Harness;
use mcm_bench::report::csv_string;
use mcm_bench::supervise::Supervisor;
use mcm_bench::telemetry::{fnv1a, Json, Telemetry};
use mcm_sim::{RunStats, SimError};

use crate::check::{self, Findings};
use crate::host;
use crate::probe::Tracer;
use crate::stats::{
    self, cell_best, cell_json, digest, median, min, percentile, END_TO_END, PER_LAYER,
};
use crate::sweep::{Bench, Sweep, JOBS};

/// Fewest repetitions a run makes, however short `--seconds` is: enough
/// for a best-of and for repetitions to be checked against each other.
const MIN_REPS: usize = 3;

/// Set-ups timed before each repetition; `setup_s` is the median of all
/// of them (at least 63).
const SETUPS_PER_REP: usize = 21;

/// A directory removed (with everything in it) when dropped.
pub struct Scratch(pub PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// What one workload run produced.
pub struct Report {
    /// `(metric, value)` in the metric table's order.
    pub metrics: Vec<(&'static stats::Metric, f64)>,
    /// Cells run.
    pub attempted: usize,
    /// Cells quarantined or with wrong output.
    pub failed: usize,
    /// Every check passed.
    pub correct: bool,
    /// Extra `"key":value` fields for the run record.
    pub record: Vec<(String, String)>,
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    format!("\"{}\"", mcm_bench::telemetry::json_escape(s))
}

/// A JSON number with every digit (`null` when not finite).
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn field(k: &str, v: impl ToString) -> (String, String) {
    (k.to_string(), v.to_string())
}

fn jlist(v: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", v.into_iter().collect::<Vec<_>>().join(","))
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

/// One repetition, set up and not yet run: a fresh harness, supervisor
/// and telemetry writing journals and shards to its own directory.
struct Rep {
    sweep: Sweep,
    harness: Harness,
    telemetry: Arc<Telemetry>,
    supervisor: Arc<Supervisor>,
    _dir: Scratch,
}

/// What one repetition measured.
struct RepResult {
    wall_s: f64,
    cpu_s: f64,
    cell_ms: Vec<f64>,
    quarantined: Vec<usize>,
    cell_hashes: Vec<u64>,
    stats: Vec<RunStats>,
}

impl Rep {
    /// Builds everything in memory; the telemetry creates its directories
    /// when the sweep opens them.
    fn prepare(bench: Bench, seed: u64, dir: PathBuf) -> Result<Rep, String> {
        let sweep = Sweep::new(bench, seed)?;
        let telemetry = Arc::new(Telemetry::new(&dir));
        let supervisor = Arc::new(Supervisor::default());
        let harness = Harness::quick()
            .with_jobs(JOBS)
            .with_engine(bench.engine())
            .with_telemetry(Arc::clone(&telemetry))
            .with_supervisor(Arc::clone(&supervisor));
        Ok(Rep {
            sweep,
            harness,
            telemetry,
            supervisor,
            _dir: Scratch(dir),
        })
    }

    fn measure(self) -> RepResult {
        let (h, sweep) = (&self.harness, &self.sweep);
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let stats = h.sweep_stats(sweep.bench.name(), &sweep.cells, |_, s| {
            sweep.run_cell(h, s)
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = host::cpu_seconds() - cpu0;
        let cell_ms = self
            .telemetry
            .experiment_counters()
            .iter()
            .flat_map(|c| c.cell_wall_us.iter().map(|&us| us as f64 / 1e3))
            .collect();
        RepResult {
            wall_s,
            cpu_s,
            cell_ms,
            quarantined: self
                .supervisor
                .quarantined()
                .iter()
                .map(|q| q.cell)
                .collect(),
            cell_hashes: stats.iter().map(|s| fnv1a(&cell_json(s))).collect(),
            stats,
        }
    }
}

fn findings_record(f: &Findings, record: &mut Vec<(String, String)>) {
    record.push(field("checks_compared", f.compared));
    record.push(field(
        "problems",
        jlist(f.notes.iter().take(20).map(|n| jstr(n))),
    ));
    for n in f.notes.iter().take(20) {
        eprintln!("perfbench: wrong output: {n}");
    }
}

/// Runs `bench` at `seed` for about `seconds`: whole repetitions until the
/// time is up and at least [`MIN_REPS`] ran.
///
/// # Errors
///
/// Returns a message when the sweep cannot be set up.
pub fn run(
    root: &Path,
    bench: Bench,
    seed: u64,
    seconds: f64,
    scratch: &Path,
) -> Result<Report, String> {
    // Set-up is timed before every repetition, so its samples span the
    // run instead of one moment of it.
    let mut setup = Vec::new();
    let start = Instant::now();
    let mut reps: Vec<RepResult> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let dir = scratch.join(format!("rep-{}", reps.len()));
        let mut timed_prepare = || {
            let t = Instant::now();
            let rep = Rep::prepare(bench, seed, dir.clone());
            setup.push(t.elapsed().as_secs_f64());
            rep
        };
        for _ in 1..SETUPS_PER_REP {
            timed_prepare()?;
        }
        reps.push(timed_prepare()?.measure());
    }
    let peak_rss_mb = host::peak_rss_mb();

    // Correctness: the first repetition against the goldens and the
    // analytic engine, every later one against the first, cell by cell.
    let sweep = Sweep::new(bench, seed)?;
    let first = &reps[0];
    let reference = check::analytic_reference(&sweep);
    let mut findings = check::check(root, &sweep, seed, &first.stats, reference.as_ref());
    // Failed (repetition, cell) pairs: quarantined or wrong.
    let mut failed: BTreeSet<(usize, usize)> = findings.cells.iter().map(|&i| (0, i)).collect();
    for (k, r) in reps.iter().enumerate() {
        failed.extend(r.quarantined.iter().map(|&i| (k, i)));
        for (i, (a, b)) in first.cell_hashes.iter().zip(&r.cell_hashes).enumerate() {
            if a != b {
                failed.insert((k, i));
                findings.notes.push(format!(
                    "{}/{}: repetition {k} differs from repetition 0",
                    sweep.cells[i].workload, sweep.cells[i].config
                ));
            }
        }
    }
    let quarantined: usize = reps.iter().map(|r| r.quarantined.len()).sum();
    let attempted = reps.len() * sweep.cells.len();
    let failed = failed.len();

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = reps.iter().map(|r| r.cpu_s).collect();
    let efficiency: Vec<f64> = reps
        .iter()
        .map(|r| r.cell_ms.iter().sum::<f64>() / 1e3 / (r.wall_s * JOBS as f64))
        .collect();
    let rep_cells: Vec<Vec<f64>> = reps.iter().map(|r| r.cell_ms.clone()).collect();
    let best = cell_best(&rep_cells);
    let values = [
        min(&walls),
        min(&cpus),
        percentile(&best, 0.50),
        percentile(&best, 0.95),
        median(&setup),
        peak_rss_mb,
    ];
    let mut record = vec![
        field("reps", reps.len()),
        field("cells", sweep.cells.len()),
        field("cell_best_ms", jlist(best.iter().map(|&v| jnum(v)))),
        field("stats_digest", jstr(&hex(digest(&first.stats)))),
        field(
            "cell_digests",
            jlist(first.cell_hashes.iter().map(|&h| jstr(&hex(h)))),
        ),
        field("failed_frac", jnum(failed as f64 / attempted as f64)),
        field("quarantined", quarantined),
        field("parallel_efficiency", jnum(median(&efficiency))),
        field("wall_samples", jlist(walls.iter().map(|&v| jnum(v)))),
        field("cpu_samples", jlist(cpus.iter().map(|&v| jnum(v)))),
        field("setup_samples", jlist(setup.iter().map(|&v| jnum(v)))),
    ];
    findings_record(&findings, &mut record);
    Ok(Report {
        metrics: END_TO_END.iter().zip(values).collect(),
        attempted,
        failed,
        correct: failed == 0 && findings.notes.is_empty(),
        record,
    })
}

/// A JSON number as `f64`.
pub fn as_f64(j: &Json) -> Option<f64> {
    match j {
        Json::Num(n) => n.parse().ok(),
        _ => None,
    }
}

/// A metric's value in a run record.
pub fn record_metric(rec: &Json, name: &str) -> Option<f64> {
    as_f64(rec.get("metrics")?.get(name)?.get("value")?)
}

/// Runs `bench` once in run mode, in a child process, and returns its
/// record.
fn run_child(bench: Bench, seed: u64, out_dir: &Path, scratch: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let record = scratch.join("run-record.json");
    let out = Command::new(exe)
        .args(["--workload", bench.name(), "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", "0", "--out-dir"])
        .arg(out_dir)
        .arg("--record")
        .arg(&record)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the run-mode child: {e}"))?;
    // The child's stdout is its report; keep ours for the traced one.
    eprint!("{}", String::from_utf8_lossy(&out.stdout));
    if !out.status.success() {
        return Err(format!("run-mode child failed ({})", out.status));
    }
    let body = fs::read_to_string(&record).map_err(|e| format!("cannot read run record: {e}"))?;
    Json::parse(&body).map_err(|e| format!("bad run record: {e}"))
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Traces `bench` at `seed`: a run-mode child first (its digest and CPU
/// time are the reference), then one serial sweep with every layer
/// timed, then a resume pass over the shards it wrote.
///
/// # Errors
///
/// Returns a message when the run-mode child or the set-up fails.
pub fn trace(
    root: &Path,
    bench: Bench,
    seed: u64,
    out_dir: &Path,
    scratch: &Path,
) -> Result<Report, String> {
    fs::create_dir_all(scratch).map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let run_rec = run_child(bench, seed, out_dir, scratch)?;
    let run_digest = run_rec
        .get("stats_digest")
        .and_then(Json::as_str)
        .unwrap_or("");
    let run_cpu = record_metric(&run_rec, "cpu_s").unwrap_or(0.0);

    let run_cells: Vec<&str> = run_rec
        .get("cell_digests")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_str)
        .collect();

    let sweep = Sweep::new(bench, seed)?;
    let name = bench.name();
    let dir = Scratch(scratch.join("trace"));
    let h = Harness::quick()
        .with_jobs(1)
        .with_engine(bench.engine())
        .with_telemetry(Arc::new(Telemetry::new(&dir.0)));
    let tracer = Tracer::new(&sweep);
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let stats = h.sweep_stats(name, &sweep.cells, |_, s| tracer.run_cell(s));
    let sweep_ns = t0.elapsed().as_nanos() as f64;
    let trace_cpu = host::cpu_seconds() - cpu0;

    let t = Instant::now();
    let csv = csv_string(&sweep.grid(&stats));
    let csv_ms = t.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(csv);
    let shard_bytes = dir_bytes(&dir.0.join("shards").join(name));

    // Resume pass: every cell must come back from its shard, unchanged.
    let resumed = Harness::quick()
        .with_jobs(1)
        .with_engine(bench.engine())
        .with_telemetry(Arc::new(Telemetry::new(&dir.0).with_resume(true)));
    let t = Instant::now();
    let restored = resumed.sweep_stats(name, &sweep.cells, |_, _| {
        Err(SimError::PolicyViolation {
            reason: "cell was not restored from its shard".into(),
        })
    });
    let restore_ns = t.elapsed().as_nanos() as f64;

    let reference = check::analytic_reference(&sweep);
    let mut findings = check::check(root, &sweep, seed, &stats, reference.as_ref());
    findings
        .cells
        .extend(h.supervisor().quarantined().iter().map(|q| q.cell));
    let trace_digest = hex(digest(&stats));
    if trace_digest != run_digest {
        findings.notes.push(format!(
            "traced stats digest {trace_digest} differs from the run's {run_digest}"
        ));
        for (i, s) in stats.iter().enumerate() {
            if run_cells.get(i) != Some(&hex(fnv1a(&cell_json(s))).as_str()) {
                findings.cells.insert(i);
            }
        }
    }
    if digest(&restored) != digest(&stats) || !resumed.supervisor().quarantined().is_empty() {
        findings
            .notes
            .push("resumed sweep did not restore every cell unchanged".into());
    }
    let (mae, max_err, shared) = match (bench, &reference) {
        (Bench::Fig18Cycle, Some(r)) => check::remote_errors(&stats, &r.cells),
        (Bench::AnalyticSweep, _) => check::remote_errors(&stats, &check::cycle_reference(&sweep)),
        _ => (0.0, 0.0, 0),
    };

    let l = tracer.probe.layers();
    let cells = sweep.cells.len() as f64;
    let sum = |f: fn(&RunStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    let ms = |ns: f64| ns / 1e6;
    let p = &l.policy;
    let engine_self_ns = l.engine_run_ns as f64 - l.engine_stream_ns as f64 - l.engine_policy_ns;
    let harness_ns = sweep_ns - l.cell_ns as f64;
    let values: [f64; PER_LAYER.len()] = [
        l.stream_calls as f64,
        ms(l.stream_ns as f64),
        per(l.stream_ns as f64, l.stream_accesses),
        l.stream_ns as f64 / sweep_ns,
        p.fault.calls as f64,
        p.walk.calls as f64,
        p.access.calls as f64,
        p.epoch.calls as f64,
        ms(p.fault.est_ns()),
        ms(p.walk.est_ns()),
        ms(p.access.est_ns()),
        ms(p.epoch.est_ns()),
        p.directives as f64,
        p.est_ns() / sweep_ns,
        ms(l.engine_run_ns as f64),
        ms(engine_self_ns),
        per(engine_self_ns, l.engine_accesses),
        engine_self_ns / sweep_ns,
        (l.engine_accesses + l.analytic_accesses) as f64,
        sum(|s| s.cycles),
        sum(|s| s.l1tlb_misses),
        sum(|s| s.l2tlb_misses),
        sum(|s| s.walks),
        sum(|s| s.walk_mshr_hits),
        sum(|s| s.walk_cycles),
        sum(|s| s.degradation.walk_queue_stalls),
        sum(|s| s.l1d_misses),
        sum(|s| s.l2d_misses),
        sum(|s| s.dram_accesses),
        sum(|s| s.interconnect_transfers),
        sum(|s| s.interconnect_queue_cycles),
        sum(|s| s.remote_insts),
        sum(|s| s.faults),
        sum(|s| s.migrations),
        sum(|s| s.shootdowns),
        sum(|s| u64::from(s.degradation.is_degraded())),
        l.capture.calls as f64,
        ms(l.capture.ns as f64),
        l.predict.calls as f64,
        ms(l.predict.ns as f64),
        per((l.capture.ns + l.predict.ns) as f64, l.analytic_accesses),
        ms(harness_ns),
        harness_ns / 1e3 / cells,
        restore_ns / 1e3 / cells,
        shard_bytes as f64,
        csv_ms,
        run_rec
            .get("parallel_efficiency")
            .and_then(as_f64)
            .unwrap_or(0.0),
        if run_cpu > 0.0 {
            trace_cpu / run_cpu - 1.0
        } else {
            0.0
        },
        mae,
        max_err,
    ];
    let mut record = vec![
        field("cells", sweep.cells.len()),
        field("stats_digest", jstr(&trace_digest)),
        field("run_stats_digest", jstr(run_digest)),
        field("trace_cpu_s", jnum(trace_cpu)),
        field("run_cpu_s", jnum(run_cpu)),
        field("accuracy_cells", shared),
    ];
    findings_record(&findings, &mut record);
    let failed = findings.cells.len();
    Ok(Report {
        metrics: PER_LAYER.iter().zip(values).collect(),
        attempted: sweep.cells.len(),
        failed,
        correct: failed == 0 && findings.notes.is_empty(),
        record,
    })
}
