//! The correctness gate: a run's statistics are checked against the
//! committed goldens (at the seeds they were made with) and against the
//! analytic engine's exact counts (at every seed).

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use mcm_bench::experiments::{EngineKind, Harness};
use mcm_bench::report::csv_string;
use mcm_bench::runner::SweepRunner;
use mcm_sim::analytic::Replay;
use mcm_sim::{PlacementModel, RunStats};
use mcm_types::PageSize;

use crate::sweep::{Bench, Sweep, DEFAULT_SEED, JOBS};

/// Cells whose output is wrong, with a message per problem.
#[derive(Debug, Default)]
pub struct Findings {
    /// Indices of the wrong cells.
    pub cells: BTreeSet<usize>,
    /// One line per problem found.
    pub notes: Vec<String>,
    /// Individual comparisons made.
    pub compared: usize,
}

impl Findings {
    fn fail(&mut self, cell: Option<usize>, note: String) {
        self.cells.extend(cell);
        self.notes.push(note);
    }

    fn merge(&mut self, o: Findings) {
        self.cells.extend(o.cells);
        self.notes.extend(o.notes);
        self.compared += o.compared;
    }
}

/// The committed xval CSV whose `analytic` column analytic-sweep must
/// reproduce at the default seed.
const XVAL_POLICY: &str = "results/xval/xval_policy.csv";

/// Checks one repetition's statistics: goldens, xval, and the exact
/// counts the analytic engine must agree on. `reference` is
/// [`analytic_reference`]'s output for cycle-engine suite sweeps.
pub fn check(
    root: &Path,
    sweep: &Sweep,
    seed: u64,
    stats: &[RunStats],
    reference: Option<&Reference>,
) -> Findings {
    let mut f = Findings::default();
    if let Some(golden) = sweep.bench.golden(seed) {
        f.merge(check_golden(sweep, stats, &root.join(golden)));
    }
    if sweep.bench == Bench::AnalyticSweep && seed == DEFAULT_SEED {
        f.merge(check_xval(sweep, stats, &root.join(XVAL_POLICY)));
    }
    f.merge(check_rows(sweep, stats));
    if let Some(r) = reference {
        f.merge(check_reference(sweep, stats, r));
    }
    f
}

fn read(path: &Path, f: &mut Findings) -> Option<String> {
    fs::read_to_string(path)
        .map_err(|e| f.fail(None, format!("cannot read {}: {e}", path.display())))
        .ok()
}

/// `report::csv_string` of the grid must equal the golden byte for byte;
/// each differing field marks its cell wrong.
fn check_golden(sweep: &Sweep, stats: &[RunStats], path: &Path) -> Findings {
    let mut f = Findings::default();
    let Some(golden) = read(path, &mut f) else {
        return f;
    };
    let csv = csv_string(&sweep.grid(stats));
    f.compared += 1;
    if csv == golden {
        return f;
    }
    let n = sweep.cols.len();
    let (got, want): (Vec<&str>, Vec<&str>) = (csv.lines().collect(), golden.lines().collect());
    if got.len() != want.len() || got.first() != want.first() {
        f.fail(
            None,
            format!(
                "{}: grid shape differs from {}",
                sweep.bench.name(),
                path.display()
            ),
        );
        f.cells.extend(0..stats.len());
        return f;
    }
    for (r, (g, w)) in got.iter().zip(&want).enumerate().skip(1) {
        for (k, (a, b)) in g.split(',').zip(w.split(',')).enumerate().skip(1) {
            if a != b {
                let col = (k - 1) % n;
                f.fail(
                    Some((r - 1) * n + col),
                    format!(
                        "{}/{}: {a} but the golden has {b}",
                        sweep.rows[r - 1],
                        sweep.cols[col]
                    ),
                );
            }
        }
    }
    f
}

fn miss_rate(hits: u64, misses: u64) -> f64 {
    match hits + misses {
        0 => 0.0,
        total => misses as f64 / total as f64,
    }
}

/// The cross-validation metrics, defined as in
/// `crates/bench/tests/cross_validation.rs`.
fn xval_metric(name: &str, s: &RunStats) -> Option<f64> {
    Some(match name {
        "mem_insts" => s.mem_insts as f64,
        "remote_ratio" => s.remote_ratio(),
        "l1tlb_miss_rate" => miss_rate(s.l1tlb_hits, s.l1tlb_misses),
        "l2tlb_miss_rate" => miss_rate(s.l2tlb_hits, s.l2tlb_misses),
        "faults" => s.faults as f64,
        "walks" => s.walks as f64,
        "transfers" => s.interconnect_transfers as f64,
        _ => return None,
    })
}

/// Every (cell, metric) of the xval CSV must print the same as its
/// `analytic` column.
fn check_xval(sweep: &Sweep, stats: &[RunStats], path: &Path) -> Findings {
    let mut f = Findings::default();
    let Some(body) = read(path, &mut f) else {
        return f;
    };
    for line in body.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        let [_, workload, config, metric, _, analytic, _] = fields[..] else {
            f.fail(None, format!("malformed xval line {line:?}"));
            continue;
        };
        let cell = sweep
            .cells
            .iter()
            .position(|c| c.workload == workload && c.config == config);
        let Some(i) = cell else {
            f.fail(
                None,
                format!("xval cell {workload}/{config} is not in the sweep"),
            );
            continue;
        };
        let Some(v) = xval_metric(metric, &stats[i]) else {
            f.fail(None, format!("unknown xval metric {metric:?}"));
            continue;
        };
        f.compared += 1;
        let got = format!("{v:.6}");
        if got != analytic {
            f.fail(
                Some(i),
                format!("{workload}/{config} {metric}: {got} but xval has {analytic}"),
            );
        }
    }
    if f.compared == 0 {
        f.fail(None, format!("{} holds no comparable line", path.display()));
    }
    f
}

/// Every configuration replays the same access stream, so a row's cells
/// must agree on the memory instructions executed.
fn check_rows(sweep: &Sweep, stats: &[RunStats]) -> Findings {
    let mut f = Findings::default();
    let n = sweep.cols.len();
    for (r, row) in stats.chunks(n).enumerate() {
        for (c, s) in row.iter().enumerate() {
            f.compared += 1;
            if s.mem_insts == 0 || s.mem_insts != row[0].mem_insts {
                f.fail(
                    Some(r * n + c),
                    format!(
                        "{}/{}: {} memory instructions, {} in the row's first cell",
                        sweep.rows[r], sweep.cols[c], s.mem_insts, row[0].mem_insts
                    ),
                );
            }
        }
    }
    f
}

/// The analytic engine's view of a cycle-engine suite sweep.
#[derive(Debug)]
pub struct Reference {
    /// Memory instructions of each row's captured stream.
    pub row_mem_insts: Vec<u64>,
    /// The analytic prediction of every cell with a placement model.
    pub cells: Vec<Option<RunStats>>,
}

/// Captures every row's streams once and predicts each cell that has a
/// placement model, the way `Harness::try_run_workload` does. Only suite
/// sweeps on the cycle engine have a reference.
pub fn analytic_reference(sweep: &Sweep) -> Option<Reference> {
    if sweep.bench.engine() != EngineKind::Cycle || sweep.bench == Bench::TopoCycle {
        return None;
    }
    let n = sweep.cols.len();
    let rows: Vec<usize> = (0..sweep.rows.len()).collect();
    let per_row = SweepRunner::new(JOBS).map(&rows, |_, &r| {
        let w = sweep.workload(r);
        let replay = Replay::capture(w);
        let first_touch = PlacementModel::FirstTouch {
            page: PageSize::Size64K,
        };
        let mem_insts = replay
            .predict(sweep.machine(0), &first_touch)
            .map_or(0, |s| s.into_run_stats().mem_insts);
        let cells: Vec<Option<RunStats>> = (0..n)
            .map(|c| {
                let kind = sweep.config(c);
                let machine = sweep.machine(c);
                let pm = kind.placement_model(w.allocs(), machine.num_chiplets)?;
                let (_, cfg) = kind.build(machine);
                replay.predict(&cfg, &pm).ok().map(|s| s.into_run_stats())
            })
            .collect();
        (mem_insts, cells)
    });
    let mut reference = Reference {
        row_mem_insts: Vec::new(),
        cells: Vec::new(),
    };
    for (m, cells) in per_row {
        reference.row_mem_insts.push(m);
        reference.cells.extend(cells);
    }
    Some(reference)
}

/// Both engines replay the identical stream and count the same demand
/// granules: memory instructions and faults must match exactly.
fn check_reference(sweep: &Sweep, stats: &[RunStats], r: &Reference) -> Findings {
    let mut f = Findings::default();
    for (i, (s, cell)) in stats.iter().zip(&r.cells).enumerate() {
        let spec = &sweep.cells[i];
        f.compared += 1;
        if s.mem_insts != r.row_mem_insts[spec.row] {
            f.fail(
                Some(i),
                format!(
                    "{}/{}: {} memory instructions, the captured stream has {}",
                    spec.workload, spec.config, s.mem_insts, r.row_mem_insts[spec.row]
                ),
            );
        }
        if let Some(a) = cell {
            f.compared += 1;
            if s.faults != a.faults {
                f.fail(
                    Some(i),
                    format!(
                        "{}/{}: {} faults, the analytic engine counts {}",
                        spec.workload, spec.config, s.faults, a.faults
                    ),
                );
            }
        }
    }
    f
}

/// Cycle-engine statistics of every analytic-sweep cell whose
/// configuration is also a fig18-cycle column (the 90 shared cells).
pub fn cycle_reference(sweep: &Sweep) -> Vec<Option<RunStats>> {
    let main: Vec<String> = mcm_bench::configs::ConfigKind::main_eval()
        .iter()
        .map(|c| c.name())
        .collect();
    let h = Harness::quick().with_jobs(JOBS);
    h.runner().map(&sweep.cells, |_, s| {
        if !main.contains(&s.config) {
            return None;
        }
        sweep.run_cell(&h, s).ok().map(|o| o.into_stats())
    })
}

/// Mean and maximum |remote ratio − other engine's remote ratio| over the
/// cells both engines evaluated.
pub fn remote_errors(stats: &[RunStats], other: &[Option<RunStats>]) -> (f64, f64, usize) {
    let errs: Vec<f64> = stats
        .iter()
        .zip(other)
        .filter_map(|(s, o)| {
            o.as_ref()
                .map(|o| (s.remote_ratio() - o.remote_ratio()).abs())
        })
        .collect();
    let max = errs.iter().copied().fold(0.0, f64::max);
    let mean = if errs.is_empty() {
        0.0
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    };
    (mean, max, errs.len())
}
