//! One function per table/figure of the paper's evaluation.
//!
//! Every function returns a [`Grid`] — workloads on rows, configurations
//! (or page sizes) on columns, with normalized performance and remote
//! access ratios — which the `figures` binary renders and
//! `EXPERIMENTS.md` records against the paper.

use clap_core::{survey_mean, survey_workload, Clap};
use mcm_policies::{Nuba, Sac};
use mcm_sim::{
    analytic, run, run_outcome, run_with, ChaosConfig, ChaosPolicy, ChaosStats, MetricsProbe,
    Probe, RemoteCacheModel, RunMetrics, RunOutcome, RunStats, RunTrace, SimConfig, SimError,
    TileMapping, TiledGemm, TopologyKind, Workload, WARMUP_EPSILON,
};
use mcm_types::{PageSize, TbId, WarpId};
use mcm_workloads::{suite, SyntheticWorkload, FOOTPRINT_SCALE};

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
    /// Sweep telemetry sink (journal/shards/progress); `None` keeps the
    /// purely in-memory path, byte-identical to before telemetry existed.
    telemetry: Option<Arc<Telemetry>>,
    /// Per-cell failure policy: panic isolation, bounded retry, and
    /// quarantine (default: keep-going, one retry, no injections).
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
/// streams per kernel (first and middle threadblock, warp 0). Probes
/// discriminate same-named workloads whose streams differ (e.g. GEMM
/// tile mappings over different geometries) without the cost of hashing
/// every stream.
fn replay_key<W: Workload + ?Sized>(w: &W) -> u64 {
    use std::fmt::Write as _;
    let mut key = String::new();
    key.push_str(w.name());
    for a in w.allocs() {
        let _ = write!(key, "|{a:?}");
    }
    for k in 0..w.num_kernels() {
        let kd = w.kernel(k);
        let _ = write!(key, "|k{k}:{}x{}", kd.num_tbs, kd.warps_per_tb);
        if kd.warps_per_tb == 0 {
            continue;
        }
        for t in [0, kd.num_tbs / 2] {
            if t >= kd.num_tbs {
                continue;
            }
            let _ = write!(key, "|p");
            for va in w.warp_accesses(k, TbId::new(t), WarpId::new(0)) {
                let _ = write!(key, ",{:x}", va.raw());
            }
        }
    }
    telemetry::fnv1a(&key)
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

    /// Reduced scale for criterion benches and CI smoke runs.
    pub fn quick() -> Self {
        Harness {
            base: SimConfig::baseline().scaled(FOOTPRINT_SCALE),
            tb_div: 4,
            jobs: 1,
            telemetry: None,
            supervisor: Arc::new(Supervisor::default()),
            engine: EngineKind::Cycle,
            replay_cache: Arc::new(Mutex::new(None)),
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
    /// journals its cells and writes per-cell result shards as workers
    /// complete them (and restores valid shards when resume is on).
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Replaces the sweep failure policy (mode, retry bound,
    /// injections). The default keeps going: failed cells are retried
    /// once with the same seed, then quarantined with zeroed statistics
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
    /// because results don't depend on them. Cycle-engine fingerprints
    /// are unchanged from before engines existed, so old shards stay
    /// valid.
    pub fn fingerprint(&self) -> u64 {
        match self.engine {
            EngineKind::Cycle => telemetry::fnv1a(&format!("{:?}|{}", self.base, self.tb_div)),
            e => telemetry::fnv1a(&format!("{:?}|{}|{}", self.base, self.tb_div, e.name())),
        }
    }

    /// Runs one sweep of statistics-producing cells: fans `f` over
    /// `specs` with the harness's workers, supervising every cell
    /// (panic isolation, bounded retry, quarantine — see
    /// [`Supervisor::supervise`]) and — when telemetry is attached —
    /// journaling each cell and writing/restoring its shard from the
    /// worker thread at cell completion.
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
        let sup = &self.supervisor;
        match &self.telemetry {
            None => self.runner().map(specs, |i, s| {
                match sup.supervise(exp, i, &s.workload, &s.config, || f(i, s)) {
                    CellVerdict::Healthy(stats) => stats,
                    CellVerdict::Quarantined { .. } => RunStats::default(),
                }
            }),
            Some(t) => {
                let scope = t
                    .sweep(exp, specs.len(), self.fingerprint())
                    .with_engine(self.engine.name());
                let out = self.runner().map_observed(
                    specs,
                    |i, s| {
                        if let Some(stats) = scope.try_restore(i, s) {
                            return stats;
                        }
                        let t0 = Instant::now();
                        match sup.supervise(exp, i, &s.workload, &s.config, || f(i, s)) {
                            CellVerdict::Healthy(stats) => {
                                let wall_us = t0.elapsed().as_micros() as u64;
                                scope.record_success(i, s, wall_us, stats)
                            }
                            CellVerdict::Quarantined {
                                outcome,
                                reason,
                                stats,
                                ..
                            } => {
                                let wall_us = t0.elapsed().as_micros() as u64;
                                scope.record_failure(i, s, wall_us, outcome, &reason, &stats);
                                RunStats::default()
                            }
                        }
                    },
                    t.observer(),
                );
                scope.finish();
                out
            }
        }
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
    /// when the workload's identity matches. A poisoned lock is
    /// recovered: the cache holds at worst a stale entry, and a key
    /// mismatch just re-captures.
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
        let replay = Arc::new(analytic::Replay::capture(w));
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
        let w = self.prep(w);
        self.try_run_workload(&self.base, &w, kind)
    }

    /// Runs any [`Workload`] under `kind` on an explicit base machine
    /// configuration, dispatching to the harness's engine. Sweeps with
    /// per-cell machines (the topology study) use this directly; the
    /// synthetic-workload entry points wrap it after threadblock scaling.
    ///
    /// Under [`EngineKind::Analytic`], cells whose configuration has no
    /// closed-form placement model run on the cycle simulator instead.
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
        let model = match self.engine {
            EngineKind::Cycle => None,
            EngineKind::Analytic => kind.placement_model(w.allocs(), base.num_chiplets),
        };
        match model {
            None => {
                let (mut policy, cfg) = kind.build(base);
                run_outcome(&cfg, w, policy.as_mut(), None)
            }
            Some(pm) => {
                // Predict against the per-config machine (translation
                // flags, TLB classes), exactly what the simulator runs.
                let (_, cfg) = kind.build(base);
                let stats = self.replay_for(w).predict(&cfg, &pm)?;
                Ok(RunOutcome::Completed(stats.into_run_stats()))
            }
        }
    }

    /// Runs `w` under `kind` on the cycle simulator over an explicit base
    /// machine configuration, with `probe` observing (a [`RunTrace`], a
    /// [`MetricsProbe`], or `()`). The outcome is identical whatever the
    /// probe — probes only observe.
    ///
    /// # Errors
    ///
    /// Propagates fatal [`SimError`]s (aborts are an `Ok` outcome, not
    /// an error).
    pub fn run_probed<W: Workload, P: Probe>(
        &self,
        base: &SimConfig,
        w: &W,
        kind: ConfigKind,
        probe: &mut P,
    ) -> Result<RunOutcome, SimError> {
        let (mut policy, cfg) = kind.build(base);
        run_with(&cfg, w, policy.as_mut(), None, probe)
    }

    /// Runs `w` under `kind` and returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics on a fatal error or an aborted run — the unsupervised
    /// entry point for callers that need plain statistics.
    pub fn run(&self, w: &SyntheticWorkload, kind: ConfigKind) -> RunStats {
        match self.try_run(w, kind) {
            Ok(RunOutcome::Aborted { reason, .. }) => {
                panic!("{} run aborted: {reason}", kind.name())
            }
            Ok(done) => done.into_stats(),
            Err(e) => panic!("{} run failed: {e}", kind.name()),
        }
    }

    /// Runs `w` under `kind` with a remote-cache scheme attached,
    /// returning the full outcome (see [`Harness::try_run`]).
    ///
    /// # Errors
    ///
    /// Propagates fatal [`SimError`]s.
    pub fn try_run_cached(
        &self,
        w: &SyntheticWorkload,
        kind: ConfigKind,
        cache: CacheKind,
    ) -> Result<RunOutcome, SimError> {
        let (mut policy, cfg) = kind.build(&self.base);
        let w = self.prep(w);
        let mut model: Box<dyn RemoteCacheModel> = match cache {
            CacheKind::Nuba => Box::new(Nuba::for_config(&cfg)),
            CacheKind::Sac => Box::new(Sac::for_config(&cfg)),
        };
        run_outcome(&cfg, &w, policy.as_mut(), Some(model.as_mut()))
    }

    /// Runs `w` under `kind` with a remote-cache scheme attached.
    ///
    /// # Panics
    ///
    /// Panics on a fatal error or an aborted run.
    pub fn run_cached(
        &self,
        w: &SyntheticWorkload,
        kind: ConfigKind,
        cache: CacheKind,
    ) -> RunStats {
        match self.try_run_cached(w, kind, cache) {
            Ok(RunOutcome::Aborted { reason, .. }) => {
                panic!("{} run aborted: {reason}", kind.name())
            }
            Ok(done) => done.into_stats(),
            Err(e) => panic!("{} run failed: {e}", kind.name()),
        }
    }

    /// Runs `w` under `kind` wrapped in a fault-injecting
    /// [`ChaosPolicy`], with epoch auditing enabled. Returns the
    /// injection counters and the (possibly degraded) outcome — a typed
    /// error, never a panic.
    pub fn run_chaos(
        &self,
        w: &SyntheticWorkload,
        kind: ConfigKind,
        seed: u64,
    ) -> (ChaosStats, Result<RunOutcome, SimError>) {
        let (policy, mut cfg) = kind.build(&self.base);
        cfg.audit_epochs = true;
        let mut chaotic = ChaosPolicy::new(policy, ChaosConfig::with_seed(seed));
        let w = self.prep(w);
        let out = run_outcome(&cfg, &w, &mut chaotic, None);
        (chaotic.stats(), out)
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

fn grid_over(
    id: &str,
    title: &str,
    h: &Harness,
    workloads: &[SyntheticWorkload],
    configs: &[ConfigKind],
    baseline_col: usize,
) -> Grid {
    // One sweep cell per (workload × config); cells are independent, so
    // they fan out over the harness's workers in any order and land back
    // in submission order.
    let row_names: Vec<String> = workloads.iter().map(|w| w.name().to_string()).collect();
    let col_names: Vec<String> = configs.iter().map(|c| c.name()).collect();
    let cells = CellSpec::grid(&row_names, &col_names);
    let all: Vec<RunStats> = h.sweep_stats(id, &cells, |_, s| {
        h.try_run(&workloads[s.row], configs[s.col])
    });
    let mut perf = Vec::new();
    let mut remote = Vec::new();
    let mut rows = Vec::new();
    for (r, w) in workloads.iter().enumerate() {
        let stats = &all[r * configs.len()..(r + 1) * configs.len()];
        let base_cycles = stats[baseline_col].cycles.max(1) as f64;
        perf.push(
            stats
                .iter()
                .map(|s| base_cycles / s.cycles.max(1) as f64)
                .collect(),
        );
        remote.push(stats.iter().map(RunStats::remote_ratio).collect());
        rows.push(w.name().to_string());
    }
    Grid {
        id: id.into(),
        title: title.into(),
        rows,
        cols: configs.iter().map(|c| c.name()).collect(),
        perf,
        remote,
    }
}

/// The §3.3 page-size ladder (Fig. 6 columns).
pub fn size_ladder() -> Vec<ConfigKind> {
    PageSize::ALL
        .iter()
        .map(|&s| ConfigKind::Static(s))
        .collect()
}

/// Figure 1's sweep: the intro workload subset across native page sizes.
fn fig1_sweep() -> (Vec<SyntheticWorkload>, Vec<ConfigKind>) {
    let subset = ["STE", "3DC", "LPS", "SC", "SSSP", "DWT", "LUD", "GPT3"];
    let ws = subset
        .iter()
        .map(|n| suite::by_name(n).unwrap_or_else(|| panic!("unknown workload {n}")))
        .collect();
    let configs = vec![
        ConfigKind::Static(PageSize::Size4K),
        ConfigKind::Static(PageSize::Size64K),
        ConfigKind::Static(PageSize::Size2M),
    ];
    (ws, configs)
}

/// Figure 1: performance (normalized to 4KB) and remote ratio across
/// native page sizes, intro subset.
pub fn fig1(h: &Harness) -> Grid {
    let (ws, configs) = fig1_sweep();
    grid_over(
        "fig1",
        "Performance (norm. to 4KB) and remote ratio vs native page size",
        h,
        &ws,
        &configs,
        0,
    )
}

/// Figure 2: 2MB paging with/without remote caching vs 64KB paging, on
/// the page-size-sensitive subset.
pub fn fig2(h: &Harness) -> Grid {
    let subset = ["STE", "3DC", "LPS", "PAF", "SC", "BFS"];
    let ws: Vec<_> = subset
        .iter()
        .map(|n| suite::by_name(n).unwrap_or_else(|| panic!("unknown workload {n}")))
        .collect();
    let s2m = ConfigKind::Static(PageSize::Size2M);
    let s64 = ConfigKind::Static(PageSize::Size64K);
    let row_names: Vec<String> = ws.iter().map(|w| w.name().to_string()).collect();
    let variants: Vec<String> = ["2MB_No_RC", "2MB+NUBA", "2MB+SAC", "64KB_No_RC"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let cells = CellSpec::grid(&row_names, &variants);
    let all: Vec<RunStats> = h.sweep_stats("fig2", &cells, |_, s| {
        let w = &ws[s.row];
        match s.col {
            0 => h.try_run(w, s2m),
            1 => h.try_run_cached(w, s2m, CacheKind::Nuba),
            2 => h.try_run_cached(w, s2m, CacheKind::Sac),
            _ => h.try_run(w, s64),
        }
    });
    let mut rows = Vec::new();
    let mut perf = Vec::new();
    let mut remote = Vec::new();
    for (r, w) in ws.iter().enumerate() {
        let runs = &all[r * 4..(r + 1) * 4];
        let b = runs[0].cycles.max(1) as f64;
        perf.push(runs.iter().map(|s| b / s.cycles.max(1) as f64).collect());
        remote.push(runs.iter().map(RunStats::remote_ratio).collect());
        rows.push(w.name().to_string());
    }
    Grid {
        id: "fig2".into(),
        title: "2MB paging with remote caching vs 64KB paging (norm. to 2MB No_RC)".into(),
        rows,
        cols: variants,
        perf,
        remote,
    }
}

/// Figure 6: the full page-size sweep (4KB..2MB including hypothetical
/// intermediate sizes), all 15 workloads, normalized to 64KB.
pub fn fig6(h: &Harness) -> Grid {
    let ws = suite::all();
    let configs = size_ladder();
    let mut g = grid_over(
        "fig6",
        "Performance (norm. to 64KB) and remote ratio across page sizes",
        h,
        &ws,
        &configs,
        1,
    );
    g.title.push_str(" [incl. hypothetical intermediate sizes]");
    g
}

/// Figure 8: per-data-structure remote ratio vs page size, for 3DC and
/// BFS (two structures each). Rows are `workload/structure`.
pub fn fig8(h: &Harness) -> Grid {
    let configs = size_ladder();
    let picks_by_workload = [
        ("3DC", ["vol-in", "vol-out"]),
        ("BFS", ["edges", "frontier"]),
    ];
    let ws: Vec<SyntheticWorkload> = picks_by_workload
        .iter()
        .map(|(wname, _)| {
            suite::by_name(wname).unwrap_or_else(|| panic!("unknown workload {wname}"))
        })
        .collect();
    let row_names: Vec<String> = ws.iter().map(|w| w.name().to_string()).collect();
    let col_names: Vec<String> = configs.iter().map(|c| c.name()).collect();
    let cells = CellSpec::grid(&row_names, &col_names);
    let all: Vec<RunStats> =
        h.sweep_stats("fig8", &cells, |_, s| h.try_run(&ws[s.row], configs[s.col]));
    let mut rows = Vec::new();
    let mut remote = Vec::new();
    for (r, (wname, picks)) in picks_by_workload.iter().enumerate() {
        let w = &ws[r];
        let ids: Vec<_> = w
            .allocs()
            .iter()
            .filter(|a| picks.contains(&a.name.as_str()))
            .map(|a| (a.id, a.name.clone()))
            .collect();
        let stats = &all[r * configs.len()..(r + 1) * configs.len()];
        for (id, name) in ids {
            rows.push(format!("{wname}/{name}"));
            remote.push(
                stats
                    .iter()
                    .map(|s| s.alloc_stats(id).remote_ratio())
                    .collect(),
            );
        }
    }
    let perf = vec![vec![1.0; configs.len()]; rows.len()];
    Grid {
        id: "fig8".into(),
        title: "Per-structure remote ratio vs page size (3DC, BFS)".into(),
        rows,
        cols: configs.iter().map(|c| c.name()).collect(),
        perf,
        remote,
    }
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
pub fn fig18(h: &Harness) -> Grid {
    grid_over(
        "fig18",
        "Main evaluation: performance (norm. to S-64KB) and remote ratio",
        h,
        &suite::all(),
        &ConfigKind::main_eval(),
        0,
    )
}

/// Figure 19: static-analysis-based configurations (norm. to SA-64KB).
pub fn fig19(h: &Harness) -> Grid {
    let configs = [
        ConfigKind::StaticAnalysis(PageSize::Size64K),
        ConfigKind::StaticAnalysis(PageSize::Size2M),
        ConfigKind::ClapSa,
        ConfigKind::ClapSaPlusPlus,
    ];
    grid_over(
        "fig19",
        "SA-policy study: performance (norm. to SA-64KB) and remote ratio",
        h,
        &suite::all(),
        &configs,
        0,
    )
}

/// Figure 20: the kernel-reuse GEMM scenario with migration, normalized
/// to S-64KB.
pub fn fig20(h: &Harness) -> Grid {
    let configs = [
        ConfigKind::Static(PageSize::Size64K),
        ConfigKind::GritReal,
        ConfigKind::Clap,
        ConfigKind::CNumaReal,
        ConfigKind::ClapMigration,
    ];
    grid_over(
        "fig20",
        "Kernel-reuse GEMM: migration study (norm. to S-64KB)",
        h,
        &[suite::gemm_reuse()],
        &configs,
        0,
    )
}

/// Figure 21: remote caching under S-2MB vs under CLAP, normalized to
/// S-2MB without caching.
pub fn fig21(h: &Harness) -> Grid {
    let ws = suite::all();
    let s2m = ConfigKind::Static(PageSize::Size2M);
    let row_names: Vec<String> = ws.iter().map(|w| w.name().to_string()).collect();
    let variants: Vec<String> = [
        "S-2MB",
        "S-2MB+NUBA",
        "S-2MB+SAC",
        "CLAP",
        "CLAP+NUBA",
        "CLAP+SAC",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let cells = CellSpec::grid(&row_names, &variants);
    let all: Vec<RunStats> = h.sweep_stats("fig21", &cells, |_, s| {
        let w = &ws[s.row];
        match s.col {
            0 => h.try_run(w, s2m),
            1 => h.try_run_cached(w, s2m, CacheKind::Nuba),
            2 => h.try_run_cached(w, s2m, CacheKind::Sac),
            3 => h.try_run(w, ConfigKind::Clap),
            4 => h.try_run_cached(w, ConfigKind::Clap, CacheKind::Nuba),
            _ => h.try_run_cached(w, ConfigKind::Clap, CacheKind::Sac),
        }
    });
    let mut rows = Vec::new();
    let mut perf = Vec::new();
    let mut remote = Vec::new();
    for (r, w) in ws.iter().enumerate() {
        let runs = &all[r * 6..(r + 1) * 6];
        let b = runs[0].cycles.max(1) as f64;
        rows.push(w.name().to_string());
        perf.push(runs.iter().map(|s| b / s.cycles.max(1) as f64).collect());
        remote.push(runs.iter().map(RunStats::remote_ratio).collect());
    }
    Grid {
        id: "fig21".into(),
        title: "Remote caching under S-2MB vs under CLAP (norm. to S-2MB)".into(),
        rows,
        cols: variants,
        perf,
        remote,
    }
}

/// Figure 22: the 8-chiplet scaling study (13 workloads), normalized to
/// S-64KB.
pub fn fig22(h: &Harness) -> Grid {
    let mut h8 = h.clone();
    h8.base = SimConfig::eight_chiplets().scaled(FOOTPRINT_SCALE);
    h8.base.translation = h.base.translation.clone();
    let ws: Vec<SyntheticWorkload> = suite::eight_chiplet_subset()
        .into_iter()
        .map(|w| w.with_tb_scale(2, 1)) // keep 512 SMs fed
        .collect();
    let configs = [
        ConfigKind::Static(PageSize::Size64K),
        ConfigKind::Static(PageSize::Size2M),
        ConfigKind::Clap,
    ];
    grid_over(
        "fig22",
        "8-chiplet MCM: performance (norm. to S-64KB) and remote ratio",
        &h8,
        &ws,
        &configs,
        0,
    )
}

/// Ablation study (DESIGN.md): CLAP's design knobs on a representative
/// subset — the PMM-threshold sensitivity the paper reports in §4.2
/// (15%/20%/30%) plus OLP and RT knock-outs.
pub fn ablation(h: &Harness) -> Grid {
    let subset = ["STE", "LPS", "PAF", "LUD", "GPT3"];
    let ws: Vec<_> = subset
        .iter()
        .map(|n| suite::by_name(n).unwrap_or_else(|| panic!("unknown workload {n}")))
        .collect();
    let configs = [
        ConfigKind::Clap,
        ConfigKind::ClapPmm(15),
        ConfigKind::ClapPmm(30),
        ConfigKind::ClapNoOlp,
        ConfigKind::ClapNoRt,
    ];
    grid_over(
        "ablation",
        "CLAP ablations (norm. to default CLAP: pmm=20%, OLP on, RT on)",
        h,
        &ws,
        &configs,
        0,
    )
}

/// The topology study's cells (DESIGN.md §13): tiled-GEMM rows, one
/// machine per fabric × chiplet-count column.
struct TopoSweep {
    gemms: [TiledGemm; 2],
    cols: Vec<String>,
    machines: Vec<SimConfig>,
}

impl TopoSweep {
    fn new(h: &Harness) -> Self {
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
        let mut machines = Vec::new();
        for fabric in ["ring", "mesh", "fc"] {
            for n in [4usize, 8, 16] {
                let mut base = h.base.clone();
                base.num_chiplets = n;
                base.topology = match fabric {
                    "ring" => TopologyKind::Ring,
                    "mesh" => TopologyKind::square_mesh(n),
                    _ => TopologyKind::FullyConnected,
                };
                cols.push(format!("{fabric}/{n}"));
                machines.push(base);
            }
        }
        TopoSweep {
            gemms: [
                TiledGemm::new(mt, nt, kt, TileMapping::RowMajor),
                TiledGemm::new(mt, nt, kt, blocked),
            ],
            cols,
            machines,
        }
    }

    fn rows(&self) -> Vec<String> {
        self.gemms.iter().map(|w| w.name().to_string()).collect()
    }
}

/// Topology scaling study (DESIGN.md §13): {ring, 2-D mesh,
/// fully-connected} × {4, 8, 16} chiplets on the tiled-GEMM workload,
/// contrasting a row-major tile→TB order (`GEMM-row`) with a
/// locality-aware blocked order (`GEMM-tile`). Every cell runs under
/// CLAP; performance is normalized per row to the `ring/4` column, so a
/// column reads as "what this fabric × package size buys the same
/// mapping policy".
pub fn topo(h: &Harness) -> Grid {
    let sw = TopoSweep::new(h);
    let row_names = sw.rows();
    let cells = CellSpec::grid(&row_names, &sw.cols);
    let all: Vec<RunStats> = h.sweep_stats("topo", &cells, |_, s| {
        h.try_run_workload(&sw.machines[s.col], &sw.gemms[s.row], ConfigKind::Clap)
    });
    let mut perf = Vec::new();
    let mut remote = Vec::new();
    for stats in all.chunks(sw.cols.len()) {
        let b = stats[0].cycles.max(1) as f64;
        perf.push(stats.iter().map(|s| b / s.cycles.max(1) as f64).collect());
        remote.push(stats.iter().map(RunStats::remote_ratio).collect());
    }
    Grid {
        id: "topo".into(),
        title: "Interconnect scaling: topology x chiplet count on tiled GEMM (norm. to ring/4)"
            .into(),
        rows: row_names,
        cols: sw.cols,
        perf,
        remote,
    }
}

/// The figures `figures trace` and `figures timeline` can re-run.
pub const PROBED_FIGURES: [&str; 3] = ["fig1", "fig18", "topo"];

/// A figure's sweep, re-runnable cell by cell under any [`Probe`].
enum FigureSweep {
    /// Suite workloads (rows) × configurations (columns) on the
    /// harness's machine.
    Suite(Vec<SyntheticWorkload>, Vec<ConfigKind>),
    /// The topology study: CLAP on one machine per column.
    Topo(TopoSweep),
}

impl FigureSweep {
    /// # Panics
    ///
    /// Panics if `fig` is not one of [`PROBED_FIGURES`].
    fn new(h: &Harness, fig: &str) -> Self {
        match fig {
            "fig1" => {
                let (ws, configs) = fig1_sweep();
                FigureSweep::Suite(ws, configs)
            }
            "fig18" => FigureSweep::Suite(suite::all(), ConfigKind::main_eval()),
            "topo" => FigureSweep::Topo(TopoSweep::new(h)),
            other => panic!("no probed figure {other:?} (have {PROBED_FIGURES:?})"),
        }
    }

    fn labels(&self) -> (Vec<String>, Vec<String>) {
        match self {
            FigureSweep::Suite(ws, configs) => (
                ws.iter().map(|w| w.name().to_string()).collect(),
                configs.iter().map(|c| c.name()).collect(),
            ),
            FigureSweep::Topo(sw) => (sw.rows(), sw.cols.clone()),
        }
    }

    /// Re-runs every cell on the harness's workers, each under a fresh
    /// probe, and returns `(outcome, probe, wall µs)` per cell in
    /// row-major submission order — identical at any worker count.
    ///
    /// # Panics
    ///
    /// Panics on a fatal simulation error.
    fn run<P: Probe + Default + Send>(&self, h: &Harness) -> Vec<(RunOutcome, P, u64)> {
        let (rows, cols) = self.labels();
        let cells: Vec<(usize, usize)> = (0..rows.len())
            .flat_map(|r| (0..cols.len()).map(move |c| (r, c)))
            .collect();
        h.runner().map(&cells, |_, &(r, c)| {
            let t0 = Instant::now();
            let mut probe = P::default();
            let out = match self {
                FigureSweep::Suite(ws, configs) => {
                    h.run_probed(&h.base, &h.prep(&ws[r]), configs[c], &mut probe)
                }
                FigureSweep::Topo(sw) => {
                    h.run_probed(&sw.machines[c], &sw.gemms[r], ConfigKind::Clap, &mut probe)
                }
            };
            let out = out.unwrap_or_else(|e| panic!("{} x {} failed: {e}", rows[r], cols[c]));
            (out, probe, t0.elapsed().as_micros() as u64)
        })
    }
}

/// Per-configuration merged stage traces of one figure's sweep (what
/// `figures trace` renders and writes under `results/trace/`).
#[derive(Clone, Debug)]
pub struct FigureTrace {
    /// Figure identifier ("fig1", "fig18", "topo").
    pub id: String,
    /// Column (configuration) labels, in sweep order.
    pub cols: Vec<String>,
    /// Workload row labels folded into every column's trace.
    pub rows: Vec<String>,
    /// `traces[col]`: the aggregate trace of all `rows` cells run under
    /// column `col` ([`RunTrace::merge_aggregates`] across workloads).
    pub traces: Vec<RunTrace>,
}

/// Re-runs figure `fig`'s sweep under a [`RunTrace`] probe per cell and
/// merges the traces by configuration column. Merged aggregates are
/// order-independent, so output is identical at every worker count.
///
/// # Panics
///
/// Panics if `fig` is not one of [`PROBED_FIGURES`].
pub fn trace_figure(h: &Harness, fig: &str) -> FigureTrace {
    let sweep = FigureSweep::new(h, fig);
    let (rows, cols) = sweep.labels();
    let mut traces = vec![RunTrace::new(); cols.len()];
    for (i, (_, t, _)) in sweep.run::<RunTrace>(h).iter().enumerate() {
        traces[i % cols.len()].merge_aggregates(t);
    }
    FigureTrace {
        id: fig.into(),
        cols,
        rows,
        traces,
    }
}

/// Chiplet-resolved, time-resolved metrics of one figure's sweep (what
/// `figures timeline` renders and writes under `results/timeline/`).
#[derive(Clone, Debug)]
pub struct MetricsReport {
    /// Figure identifier ("fig1", "fig18", "topo").
    pub id: String,
    /// Workload row labels, in sweep order.
    pub rows: Vec<String>,
    /// Column (configuration) labels, in sweep order.
    pub cols: Vec<String>,
    /// Per-cell run outcomes, row-major (`rows.len() × cols.len()`).
    pub outcomes: Vec<RunOutcome>,
    /// Per-cell metrics in the same order, interval series intact.
    pub cells: Vec<RunMetrics>,
    /// Per-cell wall time in µs, same order (journaled with the cell).
    pub cell_wall_us: Vec<u64>,
    /// `merged[col]`: all of column `col`'s cells folded with
    /// [`RunMetrics::merge_aggregates`] (counters and traffic add;
    /// per-cell series are dropped and tallied in `dropped_frames`).
    pub merged: Vec<RunMetrics>,
}

impl MetricsReport {
    /// The metrics of cell (`row`, `col`).
    pub fn cell(&self, row: usize, col: usize) -> &RunMetrics {
        &self.cells[row * self.cols.len() + col]
    }

    /// The run statistics of cell (`row`, `col`).
    pub fn cell_stats(&self, row: usize, col: usize) -> &RunStats {
        self.outcomes[row * self.cols.len() + col].stats()
    }

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

/// Re-runs figure `fig`'s sweep under a [`MetricsProbe`] per cell and
/// folds per-cell aggregates by configuration column. Per-cell series
/// and folded aggregates are identical at every worker count.
///
/// # Panics
///
/// Panics if `fig` is not one of [`PROBED_FIGURES`].
pub fn timeline_figure(h: &Harness, fig: &str) -> MetricsReport {
    let sweep = FigureSweep::new(h, fig);
    let (rows, cols) = sweep.labels();
    let all = sweep.run::<MetricsProbe>(h);
    let mut outcomes = Vec::with_capacity(all.len());
    let mut cells = Vec::with_capacity(all.len());
    let mut cell_wall_us = Vec::with_capacity(all.len());
    for (out, p, wall) in all {
        outcomes.push(out);
        cells.push(p.into_metrics());
        cell_wall_us.push(wall);
    }
    // Column folds adopt the first cell's shape and add the rest; the
    // fold is associative and commutative, so any worker order lands on
    // the same aggregates.
    let mut merged = vec![RunMetrics::default(); cols.len()];
    for (i, m) in cells.iter().enumerate() {
        merged[i % cols.len()].merge_aggregates(m);
    }
    MetricsReport {
        id: fig.into(),
        rows,
        cols,
        outcomes,
        cells,
        cell_wall_us,
        merged,
    }
}

/// One 8-chiplet cell (used by the criterion bench): `workload` under
/// CLAP on the Fig. 22 machine.
pub fn fig22_single(h: &Harness, workload: &str) -> RunStats {
    let mut h8 = h.clone();
    h8.base = SimConfig::eight_chiplets().scaled(FOOTPRINT_SCALE);
    let w = suite::by_name(workload)
        .unwrap_or_else(|| panic!("unknown workload {workload}"))
        .with_tb_scale(2, 1);
    h8.run(&w, ConfigKind::Clap)
}

/// Table 2: workload characteristics — L2$ MPKI and L2 TLB MPKI under
/// 4KB/64KB/2MB mappings. `perf` carries L2$ MPKI and `remote` carries
/// L2 TLB MPKI (three columns each).
pub fn table2(h: &Harness) -> Grid {
    let configs = [
        ConfigKind::Static(PageSize::Size4K),
        ConfigKind::Static(PageSize::Size64K),
        ConfigKind::Static(PageSize::Size2M),
    ];
    let ws = suite::all();
    let row_names: Vec<String> = ws.iter().map(|w| w.name().to_string()).collect();
    let col_names: Vec<String> = configs.iter().map(|c| c.name()).collect();
    let cells = CellSpec::grid(&row_names, &col_names);
    let all: Vec<RunStats> = h.sweep_stats("table2", &cells, |_, s| {
        h.try_run(&ws[s.row], configs[s.col])
    });
    let mut rows = Vec::new();
    let mut perf = Vec::new();
    let mut remote = Vec::new();
    for (r, w) in ws.iter().enumerate() {
        let stats = &all[r * configs.len()..(r + 1) * configs.len()];
        rows.push(w.name().to_string());
        perf.push(stats.iter().map(RunStats::l2_mpki).collect());
        remote.push(stats.iter().map(RunStats::l2tlb_mpki).collect());
    }
    Grid {
        id: "table2".into(),
        title: "Workload characteristics: L2$ MPKI (perf cols) / L2 TLB MPKI (remote cols) at 4KB/64KB/2MB".into(),
        rows,
        cols: vec!["4K".into(), "64K".into(), "2M".into()],
        perf,
        remote,
    }
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
        run(&cfg, &prepped, &mut clap, None)
            .unwrap_or_else(|e| panic!("CLAP run of {} failed: {e}", w.name()));
        if std::env::var_os("CLAP_DEBUG_MMA").is_some() {
            for a in w.allocs() {
                eprintln!("[olp] {} {}: {}", w.name(), a.name, clap.debug_olp(a.id));
            }
        }
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

    #[test]
    fn parallel_grid_matches_serial() {
        let ws = [suite::blk(), suite::ste()];
        let configs = [
            ConfigKind::Static(PageSize::Size64K),
            ConfigKind::Static(PageSize::Size2M),
        ];
        let serial = grid_over("t", "t", &Harness::quick(), &ws, &configs, 0);
        let parallel = grid_over("t", "t", &Harness::quick().with_jobs(4), &ws, &configs, 0);
        assert_eq!(serial.rows, parallel.rows);
        assert_eq!(serial.perf, parallel.perf, "cells must be bit-identical");
        assert_eq!(serial.remote, parallel.remote);
    }
}
