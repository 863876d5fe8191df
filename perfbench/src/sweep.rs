//! The four benchmark workloads: which cells each sweeps, on which engine,
//! and how a seed reshapes them.

use mcm_bench::configs::ConfigKind;
use mcm_bench::experiments::{EngineKind, Grid, Harness};
use mcm_bench::telemetry::CellSpec;
use mcm_sim::{
    RunOutcome, RunStats, SimConfig, SimError, TileMapping, TiledGemm, TopologyKind, Workload,
};
use mcm_types::PageSize;
use mcm_workloads::{suite, SyntheticWorkload, WorkloadBuilder};

/// The suite's built-in seed: the one the committed goldens were made with.
pub const DEFAULT_SEED: u64 = 0xC1A9;

/// Worker threads a run-mode sweep fans its cells over.
pub const JOBS: usize = 2;

/// The threadblock divisor of [`Harness::quick`]; traced cells apply it
/// themselves because they bypass `Harness::try_run`.
const QUICK_TB_DIV: u32 = 4;

/// One benchmark workload: a fixed cell list swept as one repetition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// Quick Fig. 18: 15 workloads × the nine main configurations, cycle
    /// engine.
    Fig18Cycle,
    /// 15 workloads × the three real-cost migration configurations,
    /// cycle engine.
    MigrationCycle,
    /// The quick topology study: 2 GEMM mappings × {ring, mesh, fc} ×
    /// {4, 8, 16} chiplets under CLAP, cycle engine.
    TopoCycle,
    /// 15 workloads × the ten configurations with a placement model,
    /// analytic engine.
    AnalyticSweep,
}

impl Bench {
    /// Every workload, in the order a full run visits them.
    pub const ALL: [Bench; 4] = [
        Bench::Fig18Cycle,
        Bench::MigrationCycle,
        Bench::TopoCycle,
        Bench::AnalyticSweep,
    ];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Fig18Cycle => "fig18-cycle",
            Bench::MigrationCycle => "migration-cycle",
            Bench::TopoCycle => "topo-cycle",
            Bench::AnalyticSweep => "analytic-sweep",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(s: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == s)
    }

    /// The engine evaluating the cells.
    pub fn engine(self) -> EngineKind {
        match self {
            Bench::AnalyticSweep => EngineKind::Analytic,
            _ => EngineKind::Cycle,
        }
    }

    /// The committed golden CSV this workload's grid must reproduce at
    /// `seed`, relative to the repository root.
    pub fn golden(self, seed: u64) -> Option<&'static str> {
        match self {
            Bench::Fig18Cycle if seed == DEFAULT_SEED => Some("tests/goldens/fig18_quick.csv"),
            // GEMM streams use no RNG: every seed gives the golden grid.
            Bench::TopoCycle => Some("tests/goldens/topo_quick.csv"),
            _ => None,
        }
    }
}

/// The configurations analytic-sweep evaluates: every one with a
/// closed-form placement model.
fn analytic_configs() -> Vec<ConfigKind> {
    vec![
        ConfigKind::Static(PageSize::Size4K),
        ConfigKind::Static(PageSize::Size64K),
        ConfigKind::Static(PageSize::Size2M),
        ConfigKind::StaticAnalysis(PageSize::Size64K),
        ConfigKind::StaticAnalysis(PageSize::Size2M),
        ConfigKind::Mgvm,
        ConfigKind::FBarre,
        ConfigKind::Clap,
        ConfigKind::ClapSa,
        ConfigKind::Ideal,
    ]
}

/// `w` rebuilt with another generator seed: same name, structures and
/// kernels. The default seed reproduces `w` exactly.
fn reseed(w: &SyntheticWorkload, seed: u64) -> SyntheticWorkload {
    let mut b = WorkloadBuilder::new(w.name()).seed(seed);
    for a in w.allocs() {
        b = b.alloc(a.name.clone(), a.bytes);
    }
    for k in w.kernels() {
        b = b.kernel(k.clone());
    }
    b.build()
}

/// The workloads on a sweep's rows.
enum Rows {
    /// Suite workloads, as `Harness::try_run` takes them, plus the
    /// quick-scaled copies traced cells run.
    Suite {
        raw: Vec<SyntheticWorkload>,
        scaled: Vec<SyntheticWorkload>,
    },
    /// Tiled GEMMs, run as built.
    Gemm(Vec<TiledGemm>),
}

/// One repetition's worth of cells, seeded and ready to sweep.
pub struct Sweep {
    /// The benchmark workload.
    pub bench: Bench,
    /// Row labels (workload names).
    pub rows: Vec<String>,
    /// Column labels (configuration or fabric names).
    pub cols: Vec<String>,
    /// Row-major cell list.
    pub cells: Vec<CellSpec>,
    workloads: Rows,
    configs: Vec<ConfigKind>,
    /// Machine per column.
    machines: Vec<SimConfig>,
}

impl Sweep {
    /// Builds `bench`'s cells at `seed`.
    ///
    /// # Errors
    ///
    /// Returns a message when an analytic-sweep cell has no placement
    /// model, so the harness would silently fall back to the cycle engine.
    pub fn new(bench: Bench, seed: u64) -> Result<Sweep, String> {
        let base = Harness::quick().base_config().clone();
        let suite_rows = |configs: Vec<ConfigKind>| {
            let raw: Vec<SyntheticWorkload> =
                suite::all().iter().map(|w| reseed(w, seed)).collect();
            let scaled = raw
                .iter()
                .map(|w| w.clone().with_tb_scale(1, QUICK_TB_DIV))
                .collect();
            let machines = vec![base.clone(); configs.len()];
            let cols = configs.iter().map(|c| c.name()).collect();
            (Rows::Suite { raw, scaled }, configs, machines, cols)
        };
        let (workloads, configs, machines, cols) = match bench {
            Bench::Fig18Cycle => suite_rows(ConfigKind::main_eval()),
            Bench::MigrationCycle => suite_rows(vec![
                ConfigKind::GritReal,
                ConfigKind::CNumaReal,
                ConfigKind::ClapMigration,
            ]),
            Bench::AnalyticSweep => suite_rows(analytic_configs()),
            Bench::TopoCycle => {
                // The quick geometry of `experiments::topo`.
                let gemms = vec![
                    TiledGemm::new(8, 8, 4, TileMapping::RowMajor),
                    TiledGemm::new(8, 8, 4, TileMapping::Blocked { rows: 2, cols: 2 }),
                ];
                let (mut machines, mut cols) = (Vec::new(), Vec::new());
                for fabric in ["ring", "mesh", "fc"] {
                    for n in [4usize, 8, 16] {
                        let mut m = base.clone();
                        m.num_chiplets = n;
                        m.topology = match fabric {
                            "ring" => TopologyKind::Ring,
                            "mesh" => TopologyKind::square_mesh(n),
                            _ => TopologyKind::FullyConnected,
                        };
                        machines.push(m);
                        cols.push(format!("{fabric}/{n}"));
                    }
                }
                let configs = vec![ConfigKind::Clap; machines.len()];
                (Rows::Gemm(gemms), configs, machines, cols)
            }
        };
        let rows: Vec<String> = match &workloads {
            Rows::Suite { raw, .. } => raw.iter().map(|w| w.name().to_string()).collect(),
            Rows::Gemm(g) => g.iter().map(|w| w.name().to_string()).collect(),
        };
        let sweep = Sweep {
            bench,
            cells: CellSpec::grid(&rows, &cols),
            rows,
            cols,
            workloads,
            configs,
            machines,
        };
        if bench.engine() == EngineKind::Analytic {
            for s in &sweep.cells {
                let allocs = sweep.workload(s.row).allocs();
                let chiplets = sweep.machine(s.col).num_chiplets;
                if sweep
                    .config(s.col)
                    .placement_model(allocs, chiplets)
                    .is_none()
                {
                    return Err(format!(
                        "{}/{} has no placement model and would fall back to the cycle engine",
                        s.workload, s.config
                    ));
                }
            }
        }
        Ok(sweep)
    }

    /// The configuration of column `col`.
    pub fn config(&self, col: usize) -> ConfigKind {
        self.configs[col]
    }

    /// The machine of column `col`.
    pub fn machine(&self, col: usize) -> &SimConfig {
        &self.machines[col]
    }

    /// Row `row`'s workload exactly as a cell simulates it (quick-scaled).
    pub fn workload(&self, row: usize) -> &dyn Workload {
        match &self.workloads {
            Rows::Suite { scaled, .. } => &scaled[row],
            Rows::Gemm(g) => &g[row],
        }
    }

    /// Runs cell `s` through the harness, the way `figures` runs it.
    ///
    /// # Errors
    ///
    /// Propagates fatal simulation errors.
    pub fn run_cell(&self, h: &Harness, s: &CellSpec) -> Result<RunOutcome, SimError> {
        let kind = self.config(s.col);
        match &self.workloads {
            Rows::Suite { raw, .. } => h.try_run(&raw[s.row], kind),
            Rows::Gemm(g) => h.try_run_workload(self.machine(s.col), &g[s.row], kind),
        }
    }

    /// The figure grid of one repetition's statistics, normalized to the
    /// first column exactly as `experiments::grid_over` and
    /// `experiments::topo` normalize theirs.
    pub fn grid(&self, stats: &[RunStats]) -> Grid {
        let n = self.cols.len();
        let mut perf = Vec::new();
        let mut remote = Vec::new();
        for row in stats.chunks(n) {
            let base = row[0].cycles.max(1) as f64;
            perf.push(row.iter().map(|s| base / s.cycles.max(1) as f64).collect());
            remote.push(row.iter().map(RunStats::remote_ratio).collect());
        }
        Grid {
            id: self.bench.name().into(),
            title: self.bench.name().into(),
            rows: self.rows.clone(),
            cols: self.cols.clone(),
            perf,
            remote,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_round_trips_the_suite() {
        for w in suite::all() {
            assert_eq!(
                format!("{:?}", reseed(&w, DEFAULT_SEED)),
                format!("{w:?}"),
                "{}",
                w.name()
            );
        }
        let other = reseed(&suite::ste(), 7);
        assert_ne!(format!("{other:?}"), format!("{:?}", suite::ste()));
    }

    #[test]
    fn cell_counts_match_the_workload_table() {
        let counts: Vec<usize> = Bench::ALL
            .iter()
            .map(|&b| Sweep::new(b, DEFAULT_SEED).map(|s| s.cells.len()))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(counts, vec![135, 45, 18, 150]);
        for b in Bench::ALL {
            assert_eq!(Bench::parse(b.name()), Some(b));
        }
    }

    #[test]
    fn fig18_and_analytic_share_ninety_cells() {
        let fig18 = Sweep::new(Bench::Fig18Cycle, DEFAULT_SEED).unwrap();
        let analytic = Sweep::new(Bench::AnalyticSweep, DEFAULT_SEED).unwrap();
        let shared = fig18
            .cells
            .iter()
            .filter(|c| analytic.cols.contains(&c.config))
            .count();
        assert_eq!(shared, 90);
    }
}
