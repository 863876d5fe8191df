//! The paper's evaluation as data.
//!
//! Every sweep figure or table is a workload-rows × [`Column`]s value,
//! run cell by cell through one runner ([`Harness::run_cell`]) and
//! projected onto a [`Grid`] — normalized performance and remote access
//! ratios, or a figure's own projection — which the `figures` binary
//! renders and `EXPERIMENTS.md` records against the paper. [`TARGETS`]
//! lists every grid; [`rerun`] re-runs the same figure value under a
//! probe.

use clap_core::{survey_mean, survey_workload, Clap};
use mcm_policies::{Nuba, Sac};
use mcm_sim::{
    analytic, run_outcome, run_with, Probe, RemoteCacheModel, RunMetrics, RunOutcome, RunStats,
    SimConfig, SimError, TileMapping, TiledGemm, TopologyKind, Workload, WARMUP_EPSILON,
};
use mcm_types::{Fnv1a, PageSize, TbId, WarpId};
use mcm_workloads::{suite, SyntheticWorkload, FOOTPRINT_SCALE};

use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::configs::ConfigKind;
use crate::runner::SweepRunner;
use crate::supervise::{CellVerdict, Supervisor};
use crate::telemetry::{self, CellRecord, CellSpec, Telemetry};

/// A figure/table's worth of results.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Figure/table identifier ("fig18", "table2", ...).
    pub id: String,
    /// Human-readable description.
    pub title: String,
    /// Row labels (workloads or data structures).
    pub rows: Vec<String>,
    /// Column labels (configurations or page sizes).
    pub cols: Vec<String>,
    /// `perf[row][col]`: performance normalized to the figure's baseline
    /// column (speedup; 1.0 = baseline).
    pub perf: Vec<Vec<f64>>,
    /// `remote[row][col]`: remote access ratio of memory instructions.
    pub remote: Vec<Vec<f64>>,
}

impl Grid {
    /// Geometric-mean speedup of column `col` across rows.
    pub fn geomean(&self, col: usize) -> f64 {
        let vals: Vec<f64> = self.perf.iter().map(|r| r[col].max(1e-12)).collect();
        (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
    }

    /// Arithmetic-mean remote ratio of column `col` across rows.
    pub fn mean_remote(&self, col: usize) -> f64 {
        self.remote.iter().map(|r| r[col]).sum::<f64>() / self.remote.len() as f64
    }

    /// Index of a column by label.
    ///
    /// # Panics
    ///
    /// Panics if the label is absent.
    pub fn col(&self, label: &str) -> usize {
        self.cols
            .iter()
            .position(|c| c == label)
            .unwrap_or_else(|| panic!("no column {label}"))
    }
}

/// Which backend evaluates sweep cells.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// The cycle-approximate simulator (the default; every statistic).
    #[default]
    Cycle,
    /// The closed-form model ([`mcm_sim::analytic`]): figure-of-merit
    /// statistics only, orders of magnitude faster. Configurations with
    /// no closed form (reactive migration) fall back to the simulator.
    Analytic,
}

impl EngineKind {
    /// CLI / telemetry name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Cycle => "cycle",
            EngineKind::Analytic => "analytic",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s {
            "cycle" => Some(EngineKind::Cycle),
            "analytic" => Some(EngineKind::Analytic),
            _ => None,
        }
    }
}

/// Run-scale knobs shared by all experiments.
#[derive(Clone, Debug)]
pub struct Harness {
    base: SimConfig,
    /// Threadblock divisor (1 = full evaluation scale; larger = quicker
    /// smoke/bench runs).
    tb_div: u32,
    /// Worker threads independent sweep cells fan out over (1 = serial).
    jobs: usize,
    /// Sweep telemetry sink (journal/progress); `None` keeps the
    /// purely in-memory path, byte-identical to before telemetry existed.
    telemetry: Option<Arc<Telemetry>>,
    /// Per-cell failure policy: panic isolation and quarantine (default:
    /// keep-going, no injections).
    supervisor: Arc<Supervisor>,
    /// Backend evaluating sweep cells (default: the cycle simulator).
    engine: EngineKind,
    /// Most recent captured access-stream replay, keyed by workload
    /// identity ([`replay_key`]). Stream generation dominates analytic
    /// cost and is configuration-independent, so sweeps evaluating one
    /// workload under several configurations capture once. Size-1 —
    /// sweeps iterate configurations inside workloads.
    replay_cache: ReplayCache,
}

/// Size-1 keyed cache of the most recently captured replay.
type ReplayCache = Arc<Mutex<Option<(u64, Arc<analytic::Replay>)>>>;

/// Identity of a workload's access streams for the harness's replay
/// cache: the name, every structure, every kernel's shape, and two probe
/// streams per kernel (first and middle threadblock, warp 0), hashed
/// with FNV-1a. Probes discriminate same-named workloads whose streams
/// differ (e.g. GEMM tile mappings over different geometries) without
/// the cost of hashing every stream.
fn replay_key<W: Workload + ?Sized>(w: &W) -> u64 {
    let mut h = Fnv1a::default();
    w.name().hash(&mut h);
    w.allocs().hash(&mut h);
    for k in 0..w.num_kernels() {
        let kd = w.kernel(k);
        (kd.num_tbs, kd.warps_per_tb).hash(&mut h);
        if kd.warps_per_tb == 0 {
            continue;
        }
        for t in [0, kd.num_tbs / 2] {
            if t < kd.num_tbs {
                w.warp_accesses(k, TbId::new(t), WarpId::new(0))
                    .hash(&mut h);
            }
        }
    }
    h.finish()
}

impl Harness {
    /// Full evaluation scale (paper-shaped results; minutes of runtime).
    pub fn full() -> Self {
        Harness {
            base: SimConfig::baseline().scaled(FOOTPRINT_SCALE),
            tb_div: 1,
            jobs: 1,
            telemetry: None,
            supervisor: Arc::new(Supervisor::default()),
            engine: EngineKind::Cycle,
            replay_cache: Arc::new(Mutex::new(None)),
        }
    }

    /// Reduced scale for the goldens, tests and CI smoke runs.
    pub fn quick() -> Self {
        Harness {
            tb_div: 4,
            ..Harness::full()
        }
    }

    /// Fans independent sweep cells out over `jobs` worker threads.
    /// Results are collected in submission order, so any worker count
    /// produces byte-identical output.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Attaches a sweep telemetry sink: every statistics-producing sweep
    /// journals its cells as workers complete them (and, when resume is
    /// on, restores cells from their journal records). Does no I/O.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Replaces the sweep failure policy (mode, injections). The default
    /// keeps going: failed cells are quarantined with zeroed statistics
    /// while the rest of the sweep completes.
    pub fn with_supervisor(mut self, supervisor: Arc<Supervisor>) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Selects the backend evaluating sweep cells (`--engine` on the
    /// `figures` binary). The default cycle engine is byte-identical to
    /// before engines existed.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// The backend evaluating sweep cells.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// The sweep failure policy (quarantine list lives here).
    pub fn supervisor(&self) -> &Arc<Supervisor> {
        &self.supervisor
    }

    /// The runner experiments fan their sweep cells over.
    pub fn runner(&self) -> SweepRunner {
        SweepRunner::new(self.jobs)
    }

    /// Stable fingerprint of everything that determines a cell's result:
    /// the machine configuration, the threadblock divisor and (when not
    /// the default cycle simulator) the engine. The worker count is
    /// deliberately excluded — resume works across `--jobs` settings
    /// because results don't depend on them. Every journal record of a
    /// sweep cell carries a fingerprint derived from this one.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_on(&self.base)
    }

    /// [`fingerprint`](Self::fingerprint) with `machine` in place of the
    /// harness's base machine.
    fn fingerprint_on(&self, machine: &SimConfig) -> u64 {
        match self.engine {
            EngineKind::Cycle => telemetry::fnv1a(&format!("{machine:?}|{}", self.tb_div)),
            e => telemetry::fnv1a(&format!("{machine:?}|{}|{}", self.tb_div, e.name())),
        }
    }

    /// Runs one sweep of statistics-producing cells: fans `f` over
    /// `specs` with the harness's workers, supervising every cell
    /// (panic isolation and quarantine — see
    /// [`Supervisor::supervise`]) and — when telemetry is attached —
    /// journaling each cell from the worker thread at cell completion, or
    /// restoring it from its journal record when resuming. Every cell's
    /// `RunStats` is returned.
    ///
    /// Quarantined cells yield zeroed [`RunStats`]; their grid slots are
    /// meaningless, which is why the `figures` binary exits nonzero
    /// whenever [`Supervisor::quarantined`] is non-empty.
    pub fn sweep_stats(
        &self,
        exp: &str,
        specs: &[CellSpec],
        f: impl Fn(usize, &CellSpec) -> Result<RunOutcome, SimError> + Sync,
    ) -> Vec<RunStats> {
        self.sweep_stats_as(exp, self.fingerprint(), specs, f)
    }

    /// [`sweep_stats`](Self::sweep_stats) with the cells' records
    /// fingerprinted with `fingerprint` in place of the harness's.
    fn sweep_stats_as(
        &self,
        exp: &str,
        fingerprint: u64,
        specs: &[CellSpec],
        f: impl Fn(usize, &CellSpec) -> Result<RunOutcome, SimError> + Sync,
    ) -> Vec<RunStats> {
        let scope = self.telemetry.as_ref().map(|t| {
            t.sweep(exp, specs.len(), fingerprint)
                .with_engine(self.engine.name())
        });
        let out = self.runner().map(specs, |i, s| {
            let run = || {
                self.supervisor
                    .supervise(exp, i, &s.workload, &s.config, || f(i, s))
            };
            match &scope {
                Some(scope) => scope.cell(i, s, run),
                None => match run() {
                    CellVerdict::Healthy(stats) => stats,
                    CellVerdict::Quarantined { .. } => RunStats::default(),
                },
            }
        });
        if let Some(scope) = scope {
            scope.finish();
        }
        out
    }

    /// The machine configuration used (before per-config adjustments).
    pub fn base_config(&self) -> &SimConfig {
        &self.base
    }

    /// `w` at the harness's threadblock scale.
    pub fn prep(&self, w: &SyntheticWorkload) -> SyntheticWorkload {
        w.clone().with_tb_scale(1, self.tb_div)
    }

    /// The captured access-stream replay for `w`, reusing the cached one
    /// when the workload's identity matches. A miss captures on `jobs`
    /// threads ([`analytic::Replay::capture_with`]), which the replay's
    /// folds use too: the other workers are waiting on this lock for the
    /// same workload anyway. A poisoned lock is recovered: the cache
    /// holds at worst a stale entry, and a key mismatch just re-captures.
    fn replay_for<W: Workload + ?Sized>(&self, w: &W) -> Arc<analytic::Replay> {
        let key = replay_key(w);
        let mut slot = match self.replay_cache.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some((k, replay)) = slot.as_ref() {
            if *k == key {
                return Arc::clone(replay);
            }
        }
        // Release the outgoing replay before capturing its successor:
        // the cache need not keep it alive through the capture.
        *slot = None;
        let replay = Arc::new(analytic::Replay::capture_with(w, self.jobs));
        *slot = Some((key, Arc::clone(&replay)));
        replay
    }

    /// Runs `w` under `kind` and returns the full outcome — completed,
    /// degraded, or aborted (run budget / livelock) — or a fatal
    /// simulation error. Sweep closures use this so the supervisor can
    /// classify every cell without panicking.
    ///
    /// # Errors
    ///
    /// Propagates fatal [`SimError`]s (aborts are an `Ok` outcome, not
    /// an error).
    pub fn try_run(&self, w: &SyntheticWorkload, kind: ConfigKind) -> Result<RunOutcome, SimError> {
        self.run_cell(&self.prep(w), &kind.into(), &mut ())
    }

    /// Runs any [`Workload`] under `kind` on an explicit base machine
    /// configuration, dispatching to the harness's engine (see
    /// [`Harness::run_cell`]).
    ///
    /// # Errors
    ///
    /// Propagates fatal [`SimError`]s (aborts are an `Ok` outcome, not
    /// an error).
    pub fn try_run_workload<W: Workload>(
        &self,
        base: &SimConfig,
        w: &W,
        kind: ConfigKind,
    ) -> Result<RunOutcome, SimError> {
        let col = Column {
            machine: Some(base.clone()),
            ..kind.into()
        };
        self.run_cell(w, &col, &mut ())
    }

    /// The one cell runner: runs `w` (already at the harness's scale)
    /// under column `col` on the column's machine, with `probe`
    /// observing (a [`RunTrace`](mcm_sim::RunTrace), a
    /// [`MetricsProbe`](mcm_sim::MetricsProbe), or `()`). Grid
    /// sweeps, the golden cell lists, the probed re-runs and single runs
    /// all come through here.
    ///
    /// Under [`EngineKind::Analytic`], a cell whose configuration has a
    /// closed-form placement model and no remote cache is predicted, not
    /// simulated, and `probe` sees nothing; every other cell runs on the
    /// cycle simulator. The outcome is identical whatever the probe —
    /// probes only observe.
    ///
    /// # Errors
    ///
    /// Propagates fatal [`SimError`]s (aborts are an `Ok` outcome, not
    /// an error).
    pub fn run_cell<P: Probe>(
        &self,
        w: &dyn Workload,
        col: &Column,
        probe: &mut P,
    ) -> Result<RunOutcome, SimError> {
        let base = col.machine.as_ref().unwrap_or(&self.base);
        let (mut policy, cfg) = col.kind.build(base);
        let model = match (self.engine, col.cache) {
            (EngineKind::Analytic, None) => col.kind.placement_model(w.allocs(), base.num_chiplets),
            _ => None,
        };
        if let Some(pm) = model {
            // Predict against the per-config machine (translation
            // flags, TLB classes), exactly what the simulator runs.
            return self
                .replay_for(w)
                .predict(&cfg, &pm)
                .map(RunOutcome::Completed);
        }
        let mut cache = col.cache.map(|c| c.model(&cfg));
        let cache = cache
            .as_mut()
            .map(|c| c.as_mut() as &mut dyn RemoteCacheModel);
        run_with(&cfg, w, policy.as_mut(), cache, probe)
    }

    /// Runs `w` under `col` — a [`ConfigKind`] or a whole [`Column`] —
    /// and returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics on a fatal error or an aborted run — the unsupervised
    /// entry point for callers that need plain statistics.
    pub fn run(&self, w: &SyntheticWorkload, col: impl Into<Column>) -> RunStats {
        let col = col.into();
        self.run_cell(&self.prep(w), &col, &mut ())
            .and_then(RunOutcome::completed)
            .unwrap_or_else(|e| panic!("{} run failed: {e}", col.label))
    }
}

/// Remote caching scheme selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheKind {
    /// NUBA \[111\].
    Nuba,
    /// SAC \[109\].
    Sac,
}

impl CacheKind {
    /// The scheme's model, sized for machine `cfg`.
    fn model(self, cfg: &SimConfig) -> Box<dyn RemoteCacheModel> {
        match self {
            CacheKind::Nuba => Box::new(Nuba::for_config(cfg)),
            CacheKind::Sac => Box::new(Sac::for_config(cfg)),
        }
    }
}

/// One column of a grid experiment: what each of its cells runs.
#[derive(Clone, Debug)]
pub struct Column {
    /// Grid header, and the configuration label the journal records.
    pub label: String,
    /// The configuration (paging policy plus the machine features it
    /// assumes).
    pub kind: ConfigKind,
    /// Remote-cache scheme attached to every cell; such cells always run
    /// on the cycle simulator.
    pub cache: Option<CacheKind>,
    /// The machine the column runs on: `None` for the harness's base
    /// machine, else e.g. Fig. 22's 8-chiplet machine or one fabric of
    /// the topology study.
    pub machine: Option<SimConfig>,
}

impl From<ConfigKind> for Column {
    fn from(kind: ConfigKind) -> Column {
        Column {
            label: kind.name(),
            kind,
            cache: None,
            machine: None,
        }
    }
}

impl Column {
    /// `kind` with remote-cache scheme `cache` attached, labelled
    /// `<config>+NUBA` or `<config>+SAC`.
    pub fn cached(kind: ConfigKind, cache: CacheKind) -> Column {
        let scheme = match cache {
            CacheKind::Nuba => "NUBA",
            CacheKind::Sac => "SAC",
        };
        Column {
            label: format!("{}+{scheme}", kind.name()),
            cache: Some(cache),
            ..kind.into()
        }
    }

    /// This column under another label.
    fn labelled(self, label: &str) -> Column {
        Column {
            label: label.into(),
            ..self
        }
    }
}

/// How a figure turns each workload row's cell statistics into grid
/// rows.
#[derive(Clone, Copy, Debug)]
enum Projection {
    /// Speedup over the given column (`perf`) and remote ratio, one grid
    /// row per workload.
    Speedup(usize),
    /// Remote ratio of each data structure named here, one grid row per
    /// structure (`workload/structure`); `perf` reads 1.0.
    Structures(&'static [&'static str]),
    /// L2$ MPKI as `perf` and L2 TLB MPKI as `remote`, one grid row per
    /// workload.
    Mpki,
}

/// The cells of a sweep: workload rows × columns, run row-major.
struct Cells {
    /// Workload rows, at the harness's scale.
    rows: Vec<Box<dyn Workload>>,
    cols: Vec<Column>,
}

/// A grid experiment as data: its cells, and how their statistics
/// project onto the grid.
struct Figure {
    id: &'static str,
    title: &'static str,
    cells: Cells,
    projection: Projection,
}

impl Figure {
    fn new(
        id: &'static str,
        title: &'static str,
        rows: Vec<Box<dyn Workload>>,
        cols: impl IntoIterator<Item = impl Into<Column>>,
        projection: Projection,
    ) -> Figure {
        Figure {
            id,
            title,
            cells: Cells::new(rows, cols),
            projection,
        }
    }
}

impl Cells {
    fn new(
        rows: Vec<Box<dyn Workload>>,
        cols: impl IntoIterator<Item = impl Into<Column>>,
    ) -> Cells {
        let cols = cols.into_iter().map(Into::into).collect();
        Cells { rows, cols }
    }

    /// The fingerprint these cells' journal records carry and are
    /// matched against on `--resume`: `h`'s, rebased onto the columns'
    /// machine when they all share one (Fig. 22), and folded over every
    /// column's when they differ (topo), so a change to any column's
    /// machine re-runs the sweep.
    fn fingerprint(&self, h: &Harness) -> u64 {
        let per_col: Vec<u64> = self
            .cols
            .iter()
            .map(|c| h.fingerprint_on(c.machine.as_ref().unwrap_or(&h.base)))
            .collect();
        match per_col.split_first() {
            Some((&first, rest)) if rest.iter().all(|&f| f == first) => first,
            _ => telemetry::fnv1a(&format!("{per_col:?}")),
        }
    }

    /// Row (workload) and column labels.
    fn labels(&self) -> (Vec<String>, Vec<String>) {
        (
            self.rows.iter().map(|w| w.name().to_string()).collect(),
            self.cols.iter().map(|c| c.label.clone()).collect(),
        )
    }

    /// Runs every cell on `h`'s workers, each under a fresh probe, and
    /// returns `(outcome, probe, wall µs)` per cell in row-major
    /// submission order — identical at any worker count.
    fn run_cells<P: Probe + Default + Send>(
        &self,
        h: &Harness,
    ) -> Vec<(Result<RunOutcome, SimError>, P, u64)> {
        let cells: Vec<(usize, usize)> = (0..self.rows.len())
            .flat_map(|r| (0..self.cols.len()).map(move |c| (r, c)))
            .collect();
        h.runner().map(&cells, |_, &(r, c)| {
            let t0 = Instant::now();
            let mut probe = P::default();
            let out = h.run_cell(self.rows[r].as_ref(), &self.cols[c], &mut probe);
            (out, probe, t0.elapsed().as_micros() as u64)
        })
    }
}

/// Runs figure `fig` as one supervised, journaled sweep (see
/// [`Harness::sweep_stats`]) and projects its cells' statistics onto a
/// grid — the one place sweeps become [`Grid`]s.
fn grid_over(h: &Harness, fig: &Figure) -> Grid {
    let Cells { rows, cols } = &fig.cells;
    let (row_names, labels) = fig.cells.labels();
    let specs = CellSpec::grid(&row_names, &labels);
    let all = h.sweep_stats_as(fig.id, fig.cells.fingerprint(h), &specs, |_, s| {
        h.run_cell(rows[s.row].as_ref(), &cols[s.col], &mut ())
    });
    let mut g = Grid {
        id: fig.id.into(),
        title: fig.title.into(),
        rows: Vec::new(),
        cols: labels,
        perf: Vec::new(),
        remote: Vec::new(),
    };
    for (w, stats) in rows.iter().zip(all.chunks(cols.len())) {
        let mut push = |row: String, perf: Vec<f64>, remote: Vec<f64>| {
            g.rows.push(row);
            g.perf.push(perf);
            g.remote.push(remote);
        };
        match fig.projection {
            Projection::Speedup(base) => {
                let b = stats[base].cycles.max(1) as f64;
                push(
                    w.name().into(),
                    stats.iter().map(|s| b / s.cycles.max(1) as f64).collect(),
                    stats.iter().map(RunStats::remote_ratio).collect(),
                );
            }
            Projection::Structures(picks) => {
                for a in w
                    .allocs()
                    .iter()
                    .filter(|a| picks.contains(&a.name.as_str()))
                {
                    push(
                        format!("{}/{}", w.name(), a.name),
                        vec![1.0; stats.len()],
                        stats
                            .iter()
                            .map(|s| s.alloc_stats(a.id).remote_ratio())
                            .collect(),
                    );
                }
            }
            Projection::Mpki => push(
                w.name().into(),
                stats.iter().map(RunStats::l2_mpki).collect(),
                stats.iter().map(RunStats::l2tlb_mpki).collect(),
            ),
        }
    }
    g
}

/// The §3.3 page-size ladder (Fig. 6 columns).
pub fn size_ladder() -> Vec<ConfigKind> {
    PageSize::ALL
        .iter()
        .map(|&s| ConfigKind::Static(s))
        .collect()
}

/// `ws` at the harness's threadblock scale, as grid rows.
fn scaled(h: &Harness, ws: impl IntoIterator<Item = SyntheticWorkload>) -> Vec<Box<dyn Workload>> {
    ws.into_iter()
        .map(|w| Box::new(h.prep(&w)) as Box<dyn Workload>)
        .collect()
}

/// The named suite workloads at the harness's threadblock scale.
fn named(h: &Harness, names: &[&str]) -> Vec<Box<dyn Workload>> {
    scaled(
        h,
        names
            .iter()
            .map(|n| suite::by_name(n).unwrap_or_else(|| panic!("unknown workload {n}"))),
    )
}

/// Figure 1: performance (normalized to 4KB) and remote ratio across
/// native page sizes, intro subset.
fn fig1(h: &Harness) -> Figure {
    Figure::new(
        "fig1",
        "Performance (norm. to 4KB) and remote ratio vs native page size",
        named(
            h,
            &["STE", "3DC", "LPS", "SC", "SSSP", "DWT", "LUD", "GPT3"],
        ),
        PageSize::NATIVE.map(ConfigKind::Static),
        Projection::Speedup(0),
    )
}

/// Figure 2: 2MB paging with/without remote caching vs 64KB paging, on
/// the page-size-sensitive subset.
fn fig2(h: &Harness) -> Figure {
    let s2m = ConfigKind::Static(PageSize::Size2M);
    Figure::new(
        "fig2",
        "2MB paging with remote caching vs 64KB paging (norm. to 2MB No_RC)",
        named(h, &["STE", "3DC", "LPS", "PAF", "SC", "BFS"]),
        [
            Column::from(s2m).labelled("2MB_No_RC"),
            Column::cached(s2m, CacheKind::Nuba).labelled("2MB+NUBA"),
            Column::cached(s2m, CacheKind::Sac).labelled("2MB+SAC"),
            Column::from(ConfigKind::Static(PageSize::Size64K)).labelled("64KB_No_RC"),
        ],
        Projection::Speedup(0),
    )
}

/// Figure 6: the full page-size sweep (4KB..2MB including hypothetical
/// intermediate sizes), all 15 workloads, normalized to 64KB.
fn fig6(h: &Harness) -> Figure {
    Figure::new(
        "fig6",
        "Performance (norm. to 64KB) and remote ratio across page sizes \
         [incl. hypothetical intermediate sizes]",
        scaled(h, suite::all()),
        size_ladder(),
        Projection::Speedup(1),
    )
}

/// Figure 8: per-data-structure remote ratio vs page size, for 3DC
/// (`vol-in`, `vol-out`) and BFS (`edges`, `frontier`).
fn fig8(h: &Harness) -> Figure {
    Figure::new(
        "fig8",
        "Per-structure remote ratio vs page size (3DC, BFS)",
        named(h, &["3DC", "BFS"]),
        size_ladder(),
        Projection::Structures(&["vol-in", "vol-out", "edges", "frontier"]),
    )
}

/// Figure 10: proportion of each workload's address range exhibiting
/// chiplet-locality (the survey of §3.4). `perf` holds the proportion.
pub fn fig10() -> Grid {
    let mut rows = Vec::new();
    let mut perf = Vec::new();
    for w in suite::all() {
        let prop = survey_mean(&survey_workload(&w, 4));
        rows.push(w.name().to_string());
        perf.push(vec![prop]);
    }
    let remote = vec![vec![0.0]; rows.len()];
    Grid {
        id: "fig10".into(),
        title: "Chiplet-locality proportion of GPU data structures".into(),
        rows,
        cols: vec!["locality".into()],
        perf,
        remote,
    }
}

/// Figure 18: the main evaluation — all 15 workloads under the nine
/// configurations, normalized to S-64KB.
fn fig18(h: &Harness) -> Figure {
    Figure::new(
        "fig18",
        "Main evaluation: performance (norm. to S-64KB) and remote ratio",
        scaled(h, suite::all()),
        ConfigKind::main_eval(),
        Projection::Speedup(0),
    )
}

/// Figure 19: static-analysis-based configurations (norm. to SA-64KB).
fn fig19(h: &Harness) -> Figure {
    Figure::new(
        "fig19",
        "SA-policy study: performance (norm. to SA-64KB) and remote ratio",
        scaled(h, suite::all()),
        [
            ConfigKind::StaticAnalysis(PageSize::Size64K),
            ConfigKind::StaticAnalysis(PageSize::Size2M),
            ConfigKind::ClapSa,
            ConfigKind::ClapSaPlusPlus,
        ],
        Projection::Speedup(0),
    )
}

/// Figure 20: the kernel-reuse GEMM scenario with migration, normalized
/// to S-64KB.
fn fig20(h: &Harness) -> Figure {
    Figure::new(
        "fig20",
        "Kernel-reuse GEMM: migration study (norm. to S-64KB)",
        scaled(h, [suite::gemm_reuse()]),
        [
            ConfigKind::Static(PageSize::Size64K),
            ConfigKind::GritReal,
            ConfigKind::Clap,
            ConfigKind::CNumaReal,
            ConfigKind::ClapMigration,
        ],
        Projection::Speedup(0),
    )
}

/// Figure 21: remote caching under S-2MB vs under CLAP, normalized to
/// S-2MB without caching.
fn fig21(h: &Harness) -> Figure {
    let cols = [ConfigKind::Static(PageSize::Size2M), ConfigKind::Clap]
        .into_iter()
        .flat_map(|k| {
            [
                k.into(),
                Column::cached(k, CacheKind::Nuba),
                Column::cached(k, CacheKind::Sac),
            ]
        });
    Figure::new(
        "fig21",
        "Remote caching under S-2MB vs under CLAP (norm. to S-2MB)",
        scaled(h, suite::all()),
        cols,
        Projection::Speedup(0),
    )
}

/// The Fig. 22 machine: twice the chiplets, the harness's translation
/// hardware.
fn eight_chiplet_machine(h: &Harness) -> SimConfig {
    let mut m = SimConfig::eight_chiplets().scaled(FOOTPRINT_SCALE);
    m.translation = h.base.translation.clone();
    m
}

/// Figure 22: the 8-chiplet scaling study (13 workloads), normalized to
/// S-64KB.
fn fig22(h: &Harness) -> Figure {
    let machine = eight_chiplet_machine(h);
    let ws = suite::eight_chiplet_subset()
        .into_iter()
        .map(|w| w.with_tb_scale(2, 1)); // keep 512 SMs fed
    let kinds = [
        ConfigKind::Static(PageSize::Size64K),
        ConfigKind::Static(PageSize::Size2M),
        ConfigKind::Clap,
    ];
    Figure::new(
        "fig22",
        "8-chiplet MCM: performance (norm. to S-64KB) and remote ratio",
        scaled(h, ws),
        kinds.map(|k| Column {
            machine: Some(machine.clone()),
            ..k.into()
        }),
        Projection::Speedup(0),
    )
}

/// One 8-chiplet cell: `workload` under CLAP on the Fig. 22 machine.
pub fn fig22_single(h: &Harness, workload: &str) -> RunStats {
    let w = suite::by_name(workload)
        .unwrap_or_else(|| panic!("unknown workload {workload}"))
        .with_tb_scale(2, 1);
    let col = Column {
        machine: Some(eight_chiplet_machine(h)),
        ..ConfigKind::Clap.into()
    };
    h.run(&w, col)
}

/// Ablation study (DESIGN.md): CLAP's design knobs on a representative
/// subset — the PMM-threshold sensitivity the paper reports in §4.2
/// (15%/20%/30%) plus OLP and RT knock-outs.
fn ablation(h: &Harness) -> Figure {
    Figure::new(
        "ablation",
        "CLAP ablations (norm. to default CLAP: pmm=20%, OLP on, RT on)",
        named(h, &["STE", "LPS", "PAF", "LUD", "GPT3"]),
        [
            ConfigKind::Clap,
            ConfigKind::ClapPmm(15),
            ConfigKind::ClapPmm(30),
            ConfigKind::ClapNoOlp,
            ConfigKind::ClapNoRt,
        ],
        Projection::Speedup(0),
    )
}

/// Topology scaling study (DESIGN.md §13): {ring, 2-D mesh,
/// fully-connected} × {4, 8, 16} chiplets on the tiled-GEMM workload,
/// contrasting a row-major tile→TB order (`GEMM-row`) with a
/// locality-aware blocked order (`GEMM-tile`). Every cell runs under
/// CLAP, one machine per column; performance is normalized per row to
/// the `ring/4` column, so a column reads as "what this fabric × package
/// size buys the same mapping policy".
fn topo(h: &Harness) -> Figure {
    // The tile grid stands in for the threadblock divisor: quick runs
    // shrink the GEMM the way `tb_div` shrinks the synthetic workloads
    // (still ≥ 4 TBs per chiplet at 16 chiplets).
    let (mt, nt, kt, blk) = if h.tb_div > 1 {
        (8, 8, 4, 2)
    } else {
        (16, 16, 8, 4)
    };
    let blocked = TileMapping::Blocked {
        rows: blk,
        cols: blk,
    };
    let mut cols = Vec::new();
    for fabric in ["ring", "mesh", "fc"] {
        for n in [4usize, 8, 16] {
            let mut base = h.base.clone();
            base.num_chiplets = n;
            base.topology = match fabric {
                "ring" => TopologyKind::Ring,
                "mesh" => TopologyKind::square_mesh(n),
                _ => TopologyKind::FullyConnected,
            };
            cols.push(Column {
                label: format!("{fabric}/{n}"),
                machine: Some(base),
                ..ConfigKind::Clap.into()
            });
        }
    }
    Figure::new(
        "topo",
        "Interconnect scaling: topology x chiplet count on tiled GEMM (norm. to ring/4)",
        vec![
            Box::new(TiledGemm::new(mt, nt, kt, TileMapping::RowMajor)),
            Box::new(TiledGemm::new(mt, nt, kt, blocked)),
        ],
        cols,
        Projection::Speedup(0),
    )
}

/// Table 2: workload characteristics — L2$ MPKI and L2 TLB MPKI under
/// 4KB/64KB/2MB mappings. `perf` carries L2$ MPKI and `remote` carries
/// L2 TLB MPKI (three columns each).
fn table2(h: &Harness) -> Figure {
    let cols = PageSize::NATIVE.map(ConfigKind::Static);
    Figure::new(
        "table2",
        "Workload characteristics: L2$ MPKI (perf cols) / L2 TLB MPKI (remote cols) at 4KB/64KB/2MB",
        scaled(h, suite::all()),
        ["4K", "64K", "2M"]
            .iter()
            .zip(cols)
            .map(|(label, k)| Column::from(k).labelled(label)),
        Projection::Mpki,
    )
}

/// A grid target of the `figures` binary.
pub struct Target {
    /// Experiment id ("fig1", "table2", ...).
    pub id: &'static str,
    source: Source,
    /// Whether `figures trace` and `figures timeline` re-run it under a
    /// probe.
    pub probed: bool,
}

/// What a [`Target`]'s grid comes from.
#[derive(Clone, Copy)]
enum Source {
    /// A sweep of simulated cells.
    Sweep(fn(&Harness) -> Figure),
    /// A computation that simulates nothing (Fig. 10's locality survey).
    Survey(fn() -> Grid),
}

const fn sweep(id: &'static str, figure: fn(&Harness) -> Figure, probed: bool) -> Target {
    Target {
        id,
        source: Source::Sweep(figure),
        probed,
    }
}

/// Every grid target, in the order `figures all` runs them.
pub const TARGETS: [Target; 13] = [
    sweep("fig1", fig1, true),
    sweep("fig2", fig2, false),
    sweep("fig6", fig6, false),
    sweep("fig8", fig8, false),
    Target {
        id: "fig10",
        source: Source::Survey(fig10),
        probed: false,
    },
    sweep("fig18", fig18, true),
    sweep("fig19", fig19, false),
    sweep("fig20", fig20, false),
    sweep("fig21", fig21, false),
    sweep("fig22", fig22, false),
    sweep("table2", table2, false),
    sweep("ablation", ablation, false),
    sweep("topo", topo, true),
];

/// Runs grid target `id` (one of [`TARGETS`]) into its grid.
///
/// # Panics
///
/// Panics if `id` is not a grid target.
pub fn grid(h: &Harness, id: &str) -> Grid {
    match TARGETS.iter().find(|t| t.id == id).map(|t| t.source) {
        Some(Source::Sweep(f)) => grid_over(h, &f(h)),
        Some(Source::Survey(f)) => f(),
        None => panic!("no grid target {id:?}"),
    }
}

/// Every cell of `sweeps` in row-major order on `h`'s workers, labelled
/// `workload/column`.
///
/// # Panics
///
/// Panics if a cell fails or aborts.
fn labelled_cells(h: &Harness, sweeps: &[Cells]) -> Vec<(String, RunStats)> {
    let mut cells = Vec::new();
    for sweep in sweeps {
        let (rows, cols) = sweep.labels();
        for (i, (out, (), _)) in sweep.run_cells::<()>(h).into_iter().enumerate() {
            let label = format!("{}/{}", rows[i / cols.len()], cols[i % cols.len()]);
            match out.and_then(RunOutcome::completed) {
                Ok(s) => cells.push((label, s)),
                Err(e) => panic!("cell {label} did not complete: {e}"),
            }
        }
    }
    cells
}

/// Every analytic-engine cell `tests/goldens/analytic_quick.jsonl` pins,
/// labelled `workload/config`: each suite workload under every
/// [`ConfigKind::analytic_eval`] configuration, then the topology
/// study's cells (labelled `workload/fabric`). Runs on the analytic
/// engine whatever `h`'s engine is.
pub fn analytic_cells(h: &Harness) -> Vec<(String, RunStats)> {
    let h = h.clone().with_engine(EngineKind::Analytic);
    let suite = Cells::new(scaled(&h, suite::all()), ConfigKind::analytic_eval());
    labelled_cells(&h, &[suite, topo(&h).cells])
}

/// The real-cost migration configurations (§5.2 Fig. 20).
pub const MIGRATION_CONFIGS: [ConfigKind; 3] = [
    ConfigKind::GritReal,
    ConfigKind::CNumaReal,
    ConfigKind::ClapMigration,
];

/// Every cycle-engine cell `tests/goldens/migration_quick.jsonl` pins,
/// labelled `workload/config`: each suite workload under each of
/// [`MIGRATION_CONFIGS`], the cells whose epochs migrate pages and shoot
/// down TLBs at real cost. Cells fan out over `h`'s workers and come back
/// in submission order. None of these configurations has a closed form,
/// so they run on the cycle engine whatever `h`'s engine is.
///
/// # Panics
///
/// Panics if a cell fails or aborts.
pub fn migration_cells(h: &Harness) -> Vec<(String, RunStats)> {
    labelled_cells(h, &[Cells::new(scaled(h, suite::all()), MIGRATION_CONFIGS)])
}

/// One figure's sweep re-run under a probe per cell: what `figures
/// trace` (observing `RunTrace`s) and `figures timeline` (observing
/// [`RunMetrics`]) render and write.
#[derive(Clone, Debug)]
pub struct Probed<T> {
    /// Figure identifier ("fig1", "fig18", "topo").
    pub id: String,
    /// Workload row labels, in sweep order.
    pub rows: Vec<String>,
    /// Column (configuration) labels, in sweep order.
    pub cols: Vec<String>,
    /// Per-cell run outcomes, row-major (`rows.len() × cols.len()`).
    pub outcomes: Vec<RunOutcome>,
    /// Per-cell observations in the same order.
    pub cells: Vec<T>,
    /// Per-cell wall time in µs, same order (journaled with the cell).
    pub cell_wall_us: Vec<u64>,
    /// `merged[col]`: all of column `col`'s cells folded. The folds are
    /// associative and commutative, so any worker order lands on the
    /// same aggregates.
    pub merged: Vec<T>,
}

impl<T> Probed<T> {
    /// The observations of cell (`row`, `col`).
    pub fn cell(&self, row: usize, col: usize) -> &T {
        &self.cells[row * self.cols.len() + col]
    }

    /// The run statistics of cell (`row`, `col`).
    pub fn cell_stats(&self, row: usize, col: usize) -> &RunStats {
        self.outcomes[row * self.cols.len() + col].stats()
    }
}

impl Probed<RunMetrics> {
    /// One journal record per cell under experiment `exp`, built from
    /// the cell's outcome and stamped with its warmup fraction.
    pub fn journal_records(&self, exp: &str) -> Vec<CellRecord> {
        let total = self.outcomes.len();
        (0..total)
            .map(|i| {
                let (row, col) = (i / self.cols.len(), i % self.cols.len());
                let spec = CellSpec {
                    row,
                    col,
                    workload: self.rows[row].clone(),
                    config: self.cols[col].clone(),
                    seed: 0,
                };
                let wall = self.cell_wall_us[i];
                CellRecord::from_outcome(exp, &spec, i, total, wall, &self.outcomes[i])
                    .with_warmup_frac(self.cells[i].warmup_frac(WARMUP_EPSILON))
            })
            .collect()
    }
}

/// Re-runs grid target `id`'s cells on the cycle engine, each under a
/// fresh probe `P`, on `h`'s workers. `finish` turns a cell's probe into
/// its observations (a `RunTrace` as is, `MetricsProbe::into_metrics`)
/// and `fold` merges them by column (`RunTrace::merge_aggregates`,
/// [`RunMetrics::merge_aggregates`]). Per-cell observations and folds
/// are identical at every worker count.
///
/// # Panics
///
/// Panics if `id` is not a probed target ([`Target::probed`]) or a cell
/// fails.
pub fn rerun<P: Probe + Default + Send, T: Default>(
    h: &Harness,
    id: &str,
    finish: fn(P) -> T,
    fold: fn(&mut T, &T),
) -> Probed<T> {
    let cells = match TARGETS.iter().find(|t| t.id == id && t.probed) {
        Some(Target {
            source: Source::Sweep(f),
            ..
        }) => f(h).cells,
        _ => panic!("no probed figure {id:?}"),
    };
    let h = h.clone().with_engine(EngineKind::Cycle);
    let (rows, cols) = cells.labels();
    let mut probed = Probed {
        id: id.into(),
        merged: cols.iter().map(|_| T::default()).collect(),
        rows,
        cols,
        outcomes: Vec::new(),
        cells: Vec::new(),
        cell_wall_us: Vec::new(),
    };
    let n = probed.cols.len();
    for (i, (out, probe, wall)) in cells.run_cells(&h).into_iter().enumerate() {
        let out = out.unwrap_or_else(|e| {
            panic!(
                "{} x {} failed: {e}",
                probed.rows[i / n],
                probed.cols[i % n]
            )
        });
        let cell = finish(probe);
        fold(&mut probed.merged[i % n], &cell);
        probed.outcomes.push(out);
        probed.cells.push(cell);
        probed.cell_wall_us.push(wall);
    }
    probed
}

/// One row of Table 4: the sizes CLAP selected for a workload's largest
/// structures.
#[derive(Clone, Debug)]
pub struct Table4Row {
    /// Workload name.
    pub workload: String,
    /// `(structure, selected size, via OLP fallback)` for the (up to)
    /// three largest structures, largest first.
    pub sizes: Vec<(String, Option<PageSize>, bool)>,
}

/// Table 4: CLAP's selected page size for the three largest structures of
/// each workload (OLP fallbacks flagged).
pub fn table4(h: &Harness) -> Vec<Table4Row> {
    let ws = suite::all();
    h.runner().map(&ws, |_, w| {
        let (_, cfg) = ConfigKind::Clap.build(h.base_config());
        let prepped = w.clone().with_tb_scale(1, h.tb_div);
        let mut clap = Clap::new();
        run_outcome(&cfg, &prepped, &mut clap, None)
            .and_then(RunOutcome::completed)
            .unwrap_or_else(|e| panic!("CLAP run of {} failed: {e}", w.name()));
        let mut allocs: Vec<_> = w.allocs().to_vec();
        allocs.sort_by_key(|a| std::cmp::Reverse(a.bytes));
        let sizes = allocs
            .iter()
            .take(3)
            .map(|a| {
                (
                    a.name.clone(),
                    clap.effective_size(a.id),
                    clap.selected_size(a.id).is_none(),
                )
            })
            .collect();
        Table4Row {
            workload: w.name().to_string(),
            sizes,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_helpers() {
        let g = Grid {
            id: "t".into(),
            title: "t".into(),
            rows: vec!["a".into(), "b".into()],
            cols: vec!["x".into(), "y".into()],
            perf: vec![vec![1.0, 2.0], vec![1.0, 8.0]],
            remote: vec![vec![0.1, 0.2], vec![0.3, 0.4]],
        };
        assert!((g.geomean(1) - 4.0).abs() < 1e-9);
        assert!((g.mean_remote(0) - 0.2).abs() < 1e-12);
        assert_eq!(g.col("y"), 1);
    }

    #[test]
    fn quick_harness_runs_one_cell() {
        let h = Harness::quick();
        let s = h.run(&suite::blk(), ConfigKind::Static(PageSize::Size64K));
        assert!(s.mem_insts > 0);
    }

    /// Every quick suite replay, captured and folded on 1, 2 and 3
    /// threads, predicts the same statistics under every analytic
    /// placement, and under an arbitrary schedule with CLAP. Some kernel
    /// has a threadblock count 3 does not divide, so some parts differ in
    /// length.
    #[test]
    fn quick_suite_predictions_are_identical_at_every_thread_count() {
        let h = Harness::quick();
        let base = h.base_config();
        let mut uneven = false;
        for w in suite::all() {
            let w = h.prep(&w);
            uneven |= (0..w.num_kernels()).any(|k| w.kernel(k).num_tbs % 3 != 0);
            let replays = [1, 2, 3].map(|t| analytic::Replay::capture_with(&w, t));
            for kind in ConfigKind::analytic_eval() {
                let (_, cfg) = kind.build(base);
                let pm = kind.placement_model(w.allocs(), cfg.num_chiplets);
                let pm = pm.expect("analytic configurations have a placement model");
                let want = replays[0].predict(&cfg, &pm).expect("valid machine");
                for r in &replays[1..] {
                    let got = r.predict(&cfg, &pm).expect("valid machine");
                    assert_eq!(got, want, "{} under {}, {r:?}", w.name(), kind.name());
                }
                if kind != ConfigKind::Clap {
                    continue;
                }
                let chiplets = cfg.num_chiplets;
                let odd = |tb: TbId, n: u32| (tb.index() * 7 + n as usize) % chiplets;
                let want = replays[0].predict_scheduled(&cfg, &pm, odd);
                for r in &replays[1..] {
                    let got = r.predict_scheduled(&cfg, &pm, odd);
                    assert_eq!(got, want, "{} scheduled, {r:?}", w.name());
                }
            }
        }
        assert!(uneven, "no quick kernel splits unevenly over 3 threads");
    }

    #[test]
    fn replay_key_tells_stream_sets_apart() {
        let bfs = suite::bfs();
        assert_eq!(replay_key(&bfs), replay_key(&suite::bfs()));
        // Same name and structures, different tile→TB order.
        let row = TiledGemm::new(8, 8, 4, TileMapping::RowMajor);
        let tile = TiledGemm::new(8, 8, 4, TileMapping::Blocked { rows: 2, cols: 2 });
        assert_ne!(replay_key(&row), replay_key(&tile));
        // Same name, structures and kernels; another generator seed.
        let mut b = mcm_workloads::WorkloadBuilder::new(bfs.name()).seed(1301);
        for a in bfs.allocs() {
            b = b.alloc(a.name.clone(), a.bytes);
        }
        for k in bfs.kernels() {
            b = b.kernel(k.clone());
        }
        let reseeded = b.build();
        assert_eq!(
            format!("{:?}", reseeded.allocs()),
            format!("{:?}", bfs.allocs())
        );
        assert_ne!(replay_key(&reseeded), replay_key(&bfs));
    }

    #[test]
    fn column_machines_feed_the_sweep_fingerprint() {
        let h = Harness::quick();
        assert_eq!(fig1(&h).cells.fingerprint(&h), h.fingerprint());
        let mut h8 = h.clone();
        h8.base = eight_chiplet_machine(&h);
        assert_eq!(fig22(&h).cells.fingerprint(&h), h8.fingerprint());
        let mut t = topo(&h);
        let before = t.cells.fingerprint(&h);
        assert_ne!(before, h.fingerprint());
        if let Some(m) = t.cells.cols[4].machine.as_mut() {
            m.topology = TopologyKind::Ring;
        }
        assert_ne!(
            t.cells.fingerprint(&h),
            before,
            "a changed fabric re-runs topo"
        );
    }

    #[test]
    fn parallel_grid_matches_serial() {
        let run = |h: &Harness| {
            let configs = [
                ConfigKind::Static(PageSize::Size64K),
                ConfigKind::Static(PageSize::Size2M),
            ];
            let fig = Figure::new(
                "t",
                "t",
                named(h, &["BLK", "STE"]),
                configs,
                Projection::Speedup(0),
            );
            grid_over(h, &fig)
        };
        let serial = run(&Harness::quick());
        let parallel = run(&Harness::quick().with_jobs(4));
        assert_eq!(serial.rows, parallel.rows);
        assert_eq!(serial.perf, parallel.perf, "cells must be bit-identical");
        assert_eq!(serial.remote, parallel.remote);
    }
}
