//! Rendering experiment grids as aligned text tables and CSV files, and
//! figure traces as JSON histograms and flamegraph-style folded stacks.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use mcm_sim::{Counter, RunMetrics, RunTrace, TraceStage, SAMPLE_INTERVAL, WARMUP_EPSILON};

use crate::experiments::{Grid, Probed, Table4Row};
use crate::json::Json;

/// Labelled run statistics as JSON lines, one `{"cell", "stats"}`
/// object per cell (the layout of `tests/goldens/analytic_quick.jsonl`).
pub fn stats_lines(cells: &[(String, mcm_sim::RunStats)]) -> String {
    let mut out = String::new();
    for (label, s) in cells {
        let line = Json::obj([
            ("cell", Json::str(label.as_str())),
            ("stats", crate::telemetry::stats_json(s)),
        ]);
        out.push_str(&line.compact());
        out.push('\n');
    }
    out
}

/// Renders a grid as an aligned text table: one block for normalized
/// performance, one for remote ratios.
pub fn render_grid(g: &Grid) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} — {}", g.id, g.title);
    let name_w = g.rows.iter().map(String::len).max().unwrap_or(4).max(8);
    let col_w = g.cols.iter().map(String::len).max().unwrap_or(6).max(7);

    for (label, data) in [("perf (norm.)", &g.perf), ("remote ratio", &g.remote)] {
        let _ = writeln!(out, "-- {label}");
        let _ = write!(out, "{:name_w$}", "");
        for c in &g.cols {
            let _ = write!(out, " {c:>col_w$}");
        }
        let _ = writeln!(out);
        for (r, row) in g.rows.iter().zip(data) {
            let _ = write!(out, "{r:name_w$}");
            for v in row {
                let _ = write!(out, " {v:>col_w$.3}");
            }
            let _ = writeln!(out);
        }
        let _ = write!(out, "{:name_w$}", "gmean/mean");
        for c in 0..g.cols.len() {
            let v = if label.starts_with("perf") {
                g.geomean(c)
            } else {
                g.mean_remote(c)
            };
            let _ = write!(out, " {v:>col_w$.3}");
        }
        let _ = writeln!(out);
    }
    out
}

/// The CSV representation of a grid with both metrics (what
/// [`write_csv`] writes; the determinism tests compare this string
/// byte-for-byte across worker counts).
pub fn csv_string(g: &Grid) -> String {
    let mut s = String::new();
    let _ = write!(s, "workload");
    for c in &g.cols {
        let _ = write!(s, ",perf:{c}");
    }
    for c in &g.cols {
        let _ = write!(s, ",remote:{c}");
    }
    let _ = writeln!(s);
    for (i, r) in g.rows.iter().enumerate() {
        let _ = write!(s, "{r}");
        for v in &g.perf[i] {
            let _ = write!(s, ",{v:.6}");
        }
        for v in &g.remote[i] {
            let _ = write!(s, ",{v:.6}");
        }
        let _ = writeln!(s);
    }
    s
}

/// Writes a grid to `dir/<id>.csv` with both metrics.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or file write.
pub fn write_csv(g: &Grid, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("{}.csv", g.id)), csv_string(g))
}

/// One experiment's wall-clock measurement and cell tallies: what a
/// journaled sweep records when it finishes
/// ([`Telemetry::experiment_counters`]) and what `bench_timings.json`
/// lists.
///
/// [`Telemetry::experiment_counters`]: crate::telemetry::Telemetry::experiment_counters
#[derive(Clone, Debug)]
pub struct ExperimentTiming {
    /// Experiment identifier ("fig18", "table4", ...).
    pub id: String,
    /// Wall-clock seconds the experiment (or the sweep) took.
    pub seconds: f64,
    /// Sweep cells the experiment ran or restored (0 when the experiment
    /// has no journaled sweep — e.g. fig10's locality survey).
    pub cells: usize,
    /// Of those, cells whose statistics carried degradation events.
    pub degraded: usize,
    /// Cells restored from their journal records by `--resume` instead
    /// of re-run.
    pub resumed: usize,
    /// Per-cell wall-clock microseconds in cell-index order (empty when
    /// the experiment has no journaled sweep).
    pub cell_wall_us: Vec<u64>,
}

impl ExperimentTiming {
    /// A timing with no journaled cell tallies yet.
    pub fn new(id: &str, seconds: f64) -> ExperimentTiming {
        ExperimentTiming {
            id: id.to_string(),
            seconds,
            cells: 0,
            degraded: 0,
            resumed: 0,
            cell_wall_us: Vec::new(),
        }
    }
}

/// Writes `dir/bench_timings.json`: run settings, then one experiment
/// per line (`scripts/ci.sh` reads `"id": ` and `"seconds": ` with awk).
///
/// # Errors
///
/// Propagates I/O errors from directory creation or file write.
pub fn write_timings(
    timings: &[ExperimentTiming],
    jobs: usize,
    quick: bool,
    engine: &str,
    dir: &Path,
) -> io::Result<()> {
    let total: f64 = timings.iter().map(|t| t.seconds).sum();
    let experiments = timings.iter().map(|t| {
        Json::obj([
            ("id", Json::str(&t.id)),
            ("seconds", Json::secs(t.seconds)),
            ("cells", Json::num(t.cells)),
            ("degraded", Json::num(t.degraded)),
            ("resumed", Json::num(t.resumed)),
            ("cell_wall_us", Json::nums(&t.cell_wall_us)),
        ])
    });
    let doc = Json::obj([
        ("jobs", Json::num(jobs)),
        ("quick", Json::Bool(quick)),
        ("engine", Json::str(engine)),
        ("total_seconds", Json::secs(total)),
        ("experiments", Json::Arr(experiments.collect())),
    ]);
    fs::create_dir_all(dir)?;
    fs::write(dir.join("bench_timings.json"), doc.pretty(2))
}

/// Renders the `figures status` view of a run journal: per-experiment
/// completion, slowest cells, and degraded cells.
pub fn render_status(summaries: &[crate::telemetry::ExpSummary]) -> String {
    use crate::telemetry::fmt_duration_us;
    let mut out = String::new();
    if summaries.is_empty() {
        let _ = writeln!(out, "no journal records found");
        return out;
    }
    for s in summaries {
        let mut classes = format!(
            "{} completed, {} degraded, {} resumed",
            s.completed, s.degraded, s.resumed
        );
        if s.aborted > 0 {
            let _ = write!(classes, ", {} aborted", s.aborted);
        }
        if s.panicked > 0 {
            let _ = write!(classes, ", {} panicked", s.panicked);
        }
        let mut extras = String::new();
        if let Some(v) = s.worst_imbalance {
            let _ = write!(extras, ", worst imbalance {v:.2}x");
        }
        if let Some(v) = s.warmup_frac {
            let _ = write!(extras, ", mean warmup {:.1}%", 100.0 * v);
        }
        let _ = writeln!(
            out,
            "== {} — {}/{} cells journaled ({classes}), wall {}{extras}",
            s.exp,
            s.cells,
            s.total,
            fmt_duration_us(s.wall_us)
        );
        if !s.slowest.is_empty() {
            let cells: Vec<String> = s
                .slowest
                .iter()
                .map(|r| {
                    format!(
                        "{}/{} cell {} ({})",
                        r.workload,
                        r.config,
                        r.cell,
                        fmt_duration_us(r.wall_us)
                    )
                })
                .collect();
            let _ = writeln!(out, "   slowest: {}", cells.join(", "));
        }
        for r in &s.degraded_cells {
            let d = &r.stats.degradation;
            let counts: Vec<String> = d
                .counters()
                .into_iter()
                .filter(|&(_, _, n)| n > 0)
                .map(|(name, _, n)| format!("{name}={n}"))
                .collect();
            let _ = writeln!(
                out,
                "   degraded: {}/{} cell {} — {} event(s) ({})",
                r.workload,
                r.config,
                r.cell,
                r.degraded_events(),
                counts.join(", ")
            );
        }
        for r in &s.quarantined_cells {
            let _ = writeln!(
                out,
                "   quarantined: {}/{} cell {} — {}: {}",
                r.workload,
                r.config,
                r.cell,
                r.outcome,
                if r.reason.is_empty() {
                    "(no reason recorded)"
                } else {
                    &r.reason
                }
            );
        }
        if !s.missing.is_empty() {
            let shown: Vec<String> = s.missing.iter().take(8).map(usize::to_string).collect();
            let ellipsis = if s.missing.len() > 8 { ", ..." } else { "" };
            let _ = writeln!(
                out,
                "   missing: {} cell(s) never journaled: {}{ellipsis}",
                s.missing.len(),
                shown.join(", ")
            );
        }
    }
    out
}

/// Renders Table 4 (CLAP's per-structure size selections).
pub fn render_table4(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== table4 — CLAP-selected page sizes (three largest structures; * = via OLP fallback)"
    );
    for r in rows {
        let cells: Vec<String> = r
            .sizes
            .iter()
            .map(|(name, size, olp)| {
                let s = size.map(|s| s.to_string()).unwrap_or_else(|| "OLP".into());
                format!("{name}={s}{}", if *olp { "*" } else { "" })
            })
            .collect();
        let _ = writeln!(out, "{:6} {}", r.workload, cells.join("  "));
    }
    out
}

/// Renders a figure trace as an aligned text table: per configuration,
/// each stage's share of traced cycles with latency percentiles.
pub fn render_trace(ft: &Probed<RunTrace>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== trace:{} — per-stage cycle breakdown over {} workload(s)",
        ft.id,
        ft.rows.len()
    );
    let col_w = ft.cols.iter().map(String::len).max().unwrap_or(6).max(8);
    for (c, trace) in ft.cols.iter().zip(&ft.merged) {
        let total = trace.total_cycles().max(1);
        let _ = writeln!(out, "{c:col_w$}  total {} cycles", trace.total_cycles());
        for stage in TraceStage::ALL {
            let h = trace.hist(stage);
            if h.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:col_w$}  {:>9} {:5.1}%  n={:<10} mean={:<8.1} p50<={:<6} p99<={:<6} max={}",
                "",
                stage.name(),
                100.0 * h.sum() as f64 / total as f64,
                h.count(),
                h.mean(),
                h.quantile_upper_bound(0.50).unwrap_or(0),
                h.quantile_upper_bound(0.99).unwrap_or(0),
                h.max().unwrap_or(0),
            );
        }
    }
    out
}

/// The JSON representation of a figure trace: per configuration,
/// per-stage log2-bucketed latency histograms (one stage per line).
pub fn trace_json(ft: &Probed<RunTrace>) -> String {
    let columns = ft.cols.iter().zip(&ft.merged).map(|(c, trace)| {
        let stages = TraceStage::ALL.iter().map(|stage| {
            let h = trace.hist(*stage);
            let buckets = h.nonzero_buckets().map(|(lo, hi, n)| {
                Json::obj([
                    ("lo", Json::num(lo)),
                    ("hi", Json::num(hi)),
                    ("count", Json::num(n)),
                ])
            });
            Json::obj([
                ("stage", Json::str(stage.name())),
                ("count", Json::num(h.count())),
                ("sum", Json::num(h.sum())),
                ("min", Json::num(h.min().unwrap_or(0))),
                ("max", Json::num(h.max().unwrap_or(0))),
                ("buckets", Json::Arr(buckets.collect())),
            ])
        });
        Json::obj([
            ("config", Json::str(c)),
            ("total_cycles", Json::num(trace.total_cycles())),
            ("stages", Json::Arr(stages.collect())),
        ])
    });
    Json::obj([
        ("figure", Json::str(&ft.id)),
        (
            "workloads",
            Json::Arr(ft.rows.iter().map(Json::str).collect()),
        ),
        ("columns", Json::Arr(columns.collect())),
    ])
    .pretty(4)
}

/// The flamegraph folded-stack representation of a figure trace: one
/// `figure;config;stage <cycles>` line per non-empty stage, feedable to
/// `flamegraph.pl` / `inferno-flamegraph` for a per-figure stage
/// breakdown.
pub fn trace_folded(ft: &Probed<RunTrace>) -> String {
    let mut s = String::new();
    for (c, trace) in ft.cols.iter().zip(&ft.merged) {
        for stage in TraceStage::ALL {
            let h = trace.hist(stage);
            if h.sum() > 0 {
                let _ = writeln!(s, "{};{};{} {}", ft.id, c, stage.name(), h.sum());
            }
        }
    }
    s
}

/// Renders a metrics report as an aligned text summary: per
/// configuration column, the folded interconnect traffic, DRAM
/// imbalance, and the warmup picture across that column's cells.
pub fn render_timeline(mr: &Probed<RunMetrics>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== timeline:{} — {} workload(s) x {} config(s)",
        mr.id,
        mr.rows.len(),
        mr.cols.len()
    );
    let col_w = mr.cols.iter().map(String::len).max().unwrap_or(6).max(8);
    for (c, label) in mr.cols.iter().enumerate() {
        let m = &mr.merged[c];
        let transfers = m.transfers();
        let (mut hops, mut queue) = (0u64, 0u64);
        for src in 0..m.num_chiplets() {
            let row = m.traffic_row(src);
            hops += row.hops;
            queue += row.queue_cycles;
        }
        let per = |n: u64| n as f64 / transfers.max(1) as f64;
        let warmed: Vec<f64> = (0..mr.rows.len())
            .filter_map(|r| mr.cell(r, c).warmup_frac(WARMUP_EPSILON))
            .collect();
        let warmup = match warmed.len() {
            0 => "warmup n/a".to_string(),
            n => format!(
                "warmup {:.1}% ({n}/{} cells)",
                100.0 * warmed.iter().sum::<f64>() / n as f64,
                mr.rows.len()
            ),
        };
        let imbalance = m
            .dram_imbalance()
            .map_or_else(|| "n/a".to_string(), |v| format!("{v:.2}x"));
        let _ = writeln!(
            out,
            "{label:col_w$}  {} chiplets, {} frames kept, {transfers} transfers \
             ({:.2} hops, {:.2} queue-cyc each), dram imbalance {imbalance}, {warmup}",
            m.num_chiplets(),
            (0..mr.rows.len())
                .map(|r| mr.cell(r, c).series().len())
                .sum::<usize>(),
            per(hops),
            per(queue),
        );
    }
    out
}

/// The JSON representation of a metrics report: per configuration
/// column, the merged per-chiplet counters and cross-chiplet traffic
/// matrix, then each cell (one per line) with its warmup summary and full
/// interval series. Frame deltas list only counters that moved during the
/// interval; absent counter keys read as zero.
pub fn timeline_json(mr: &Probed<RunMetrics>) -> String {
    let columns = mr.cols.iter().enumerate().map(|(c, label)| {
        let m = &mr.merged[c];
        let n = m.num_chiplets();
        let counters =
            Counter::ALL.map(|k| (k.name(), Json::nums((0..n).map(|ch| m.count(ch, k)))));
        let mut links = Vec::new();
        for src in 0..n {
            for dst in 0..n {
                let t = m.traffic(src, dst);
                if t.transfers > 0 {
                    links.push(Json::obj([
                        ("src", Json::num(src)),
                        ("dst", Json::num(dst)),
                        ("transfers", Json::num(t.transfers)),
                        ("hops", Json::num(t.hops)),
                        ("queue_cycles", Json::num(t.queue_cycles)),
                    ]));
                }
            }
        }
        let cells = (0..mr.rows.len()).map(|r| {
            let cell = mr.cell(r, c);
            let frames = cell.series().iter().zip(cell.remote_ratio_series());
            let series = frames.map(|(frame, ratio)| {
                let moved = Counter::ALL.into_iter().filter(|&k| frame.total(k) > 0);
                let deltas = moved.map(|k| {
                    let per_chiplet = (0..cell.num_chiplets()).map(|ch| frame.delta(ch, k));
                    (k.name(), Json::nums(per_chiplet))
                });
                Json::obj([
                    ("cycle", Json::num(frame.cycle)),
                    ("remote_ratio", Json::ratio(ratio)),
                    ("deltas", Json::obj(deltas)),
                ])
            });
            Json::obj([
                ("workload", Json::str(&mr.rows[r])),
                ("cycles", Json::num(mr.cell_stats(r, c).cycles)),
                ("warmup_knee", Json::opt(cell.warmup_knee(WARMUP_EPSILON))),
                ("warmup_frac", Json::ratio(cell.warmup_frac(WARMUP_EPSILON))),
                ("dram_imbalance", Json::ratio(cell.dram_imbalance())),
                ("series", Json::Arr(series.collect())),
            ])
        });
        Json::obj([
            ("config", Json::str(label)),
            ("num_chiplets", Json::num(n)),
            ("sample_interval", Json::num(SAMPLE_INTERVAL)),
            ("dram_imbalance", Json::ratio(m.dram_imbalance())),
            ("counters", Json::obj(counters)),
            ("traffic", Json::Arr(links)),
            ("cells", Json::Arr(cells.collect())),
        ])
    });
    Json::obj([
        ("figure", Json::str(&mr.id)),
        (
            "workloads",
            Json::Arr(mr.rows.iter().map(Json::str).collect()),
        ),
        ("columns", Json::Arr(columns.collect())),
    ])
    .pretty(4)
}

/// The CSV representation of a metrics report, long format: one row per
/// (configuration, workload, frame, chiplet) with every counter's interval
/// delta — directly plottable as per-chiplet time series.
pub fn timeline_csv(mr: &Probed<RunMetrics>) -> String {
    let mut s = String::new();
    let _ = write!(s, "config,workload,frame,cycle,chiplet");
    for counter in Counter::ALL {
        let _ = write!(s, ",{}", counter.name());
    }
    let _ = writeln!(s);
    for r in 0..mr.rows.len() {
        for (c, label) in mr.cols.iter().enumerate() {
            let cell = mr.cell(r, c);
            for (fi, frame) in cell.series().iter().enumerate() {
                for ch in 0..cell.num_chiplets() {
                    let _ = write!(s, "{label},{},{fi},{},{ch}", mr.rows[r], frame.cycle);
                    for counter in Counter::ALL {
                        let _ = write!(s, ",{}", frame.delta(ch, counter));
                    }
                    let _ = writeln!(s);
                }
            }
        }
    }
    s
}

/// Writes a probed figure's documents (`(extension, text)` pairs) to
/// `dir/<sub>/<id>.<extension>`: `trace/` holds the JSON histograms and
/// the folded stacks, `timeline/` the JSON series and the CSV.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or file write.
pub fn write_probed(dir: &Path, sub: &str, id: &str, docs: &[(&str, String)]) -> io::Result<()> {
    let sdir = dir.join(sub);
    fs::create_dir_all(&sdir)?;
    for (ext, doc) in docs {
        fs::write(sdir.join(format!("{id}.{ext}")), doc)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Grid;

    fn grid() -> Grid {
        Grid {
            id: "figX".into(),
            title: "test grid".into(),
            rows: vec!["STE".into(), "BLK".into()],
            cols: vec!["S-64KB".into(), "CLAP".into()],
            perf: vec![vec![1.0, 1.2], vec![1.0, 1.1]],
            remote: vec![vec![0.05, 0.04], vec![0.01, 0.01]],
        }
    }

    #[test]
    fn render_contains_everything() {
        let s = render_grid(&grid());
        assert!(s.contains("figX"));
        assert!(s.contains("S-64KB"));
        assert!(s.contains("CLAP"));
        assert!(s.contains("STE"));
        assert!(s.contains("1.200"));
        assert!(s.contains("gmean"));
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("clap-repro-test-csv");
        write_csv(&grid(), &dir).expect("write");
        let s = std::fs::read_to_string(dir.join("figX.csv")).expect("read");
        assert!(s.starts_with("workload,perf:S-64KB,perf:CLAP,remote:S-64KB"));
        assert!(s.contains("STE,1.000000,1.200000"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timings_json_is_well_formed() {
        let dir = std::env::temp_dir().join("clap-repro-test-timings");
        let mut with_cells = ExperimentTiming::new("fig1", 1.25);
        with_cells.cells = 24;
        with_cells.degraded = 2;
        with_cells.resumed = 8;
        with_cells.cell_wall_us = vec![100, 250, 75];
        let timings = vec![with_cells, ExperimentTiming::new("table2", 0.5)];
        write_timings(&timings, 4, true, "analytic", &dir).expect("write");
        let s = std::fs::read_to_string(dir.join("bench_timings.json")).expect("read");
        assert!(s.contains("\"jobs\": 4"));
        assert!(s.contains("\"quick\": true"));
        assert!(s.contains("\"engine\": \"analytic\""));
        assert!(s.contains(
            "\"id\": \"fig1\", \"seconds\": 1.250, \"cells\": 24, \
             \"degraded\": 2, \"resumed\": 8, \"cell_wall_us\": [100, 250, 75]"
        ));
        // One experiment per line, carrying both keys the CI awk reads.
        let lines: Vec<&str> = s.lines().filter(|l| l.contains("\"id\": ")).collect();
        assert_eq!(lines.len(), 2, "{s}");
        assert!(lines.iter().all(|l| l.contains("\"seconds\": ")), "{s}");
        assert!(
            s.contains("\"cell_wall_us\": []"),
            "untelemetered experiments carry an empty wall-time list"
        );
        assert!(
            s.contains("\"cells\": 0"),
            "untelemetered experiments tally zero"
        );
        assert!(s.contains("\"total_seconds\": 1.750"));
        // Balanced braces/brackets and no trailing comma before the close.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
        assert!(!s.contains(",\n  ]"));
        // The enriched JSON still parses with the crate's JSON codec.
        Json::parse(&s).expect("bench_timings.json must be valid JSON");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_rendering_summarizes_journals() {
        use crate::telemetry::{summarize, CellOutcome, CellRecord, CellSpec};
        use mcm_sim::RunStats;
        let spec = CellSpec {
            row: 0,
            col: 0,
            workload: "STE".into(),
            config: "S-64KB".into(),
            seed: 0,
        };
        let mut degraded = RunStats::default();
        degraded.degradation.fallback_remote_frames = 3;
        let records = vec![
            CellRecord::from_stats(
                "fig1",
                &spec,
                0,
                2,
                1_250_000,
                CellOutcome::Degraded,
                degraded,
            ),
            CellRecord::from_stats(
                "fig1",
                &spec,
                1,
                2,
                900,
                CellOutcome::Completed,
                RunStats::default(),
            ),
        ];
        let s = render_status(&summarize(&records));
        assert!(s.contains("== fig1 — 2/2 cells journaled"), "{s}");
        assert!(s.contains("1 degraded"), "{s}");
        assert!(s.contains("slowest: STE/S-64KB cell 0 (1.25s)"), "{s}");
        assert!(
            s.contains("degraded: STE/S-64KB cell 0 — 3 event(s)"),
            "{s}"
        );
        assert!(render_status(&[]).contains("no journal records"));
    }

    #[test]
    fn status_names_each_nonzero_degradation_counter() {
        use crate::telemetry::{summarize, CellOutcome, CellRecord, CellSpec};
        use mcm_sim::RunStats;
        let spec = CellSpec {
            row: 0,
            col: 0,
            workload: "STE".into(),
            config: "S-2MB".into(),
            seed: 0,
        };
        // Degraded only by a missing TLB class.
        let mut stats = RunStats::default();
        stats.degradation.tlb_class_missing = 4;
        let r = CellRecord::from_stats("fig1", &spec, 0, 1, 10, CellOutcome::Degraded, stats);
        let s = render_status(&summarize(&[r]));
        assert!(
            s.contains("degraded: STE/S-2MB cell 0 — 4 event(s) (tlb_class_missing=4)\n"),
            "{s}"
        );
    }

    #[test]
    fn status_rendering_reports_quarantined_and_missing_cells() {
        use crate::telemetry::{summarize, CellOutcome, CellRecord, CellSpec};
        use mcm_sim::RunStats;
        let spec = CellSpec {
            row: 0,
            col: 0,
            workload: "STE".into(),
            config: "CLAP".into(),
            seed: 0,
        };
        let ok = CellRecord::from_stats(
            "fig9",
            &spec,
            0,
            4,
            100,
            CellOutcome::Completed,
            RunStats::default(),
        );
        let aborted = CellRecord::from_stats(
            "fig9",
            &spec,
            1,
            4,
            50,
            CellOutcome::Aborted,
            RunStats::default(),
        )
        .with_reason("run budget exceeded: cycle 9 past max_cycles 5");
        let panicked = CellRecord::from_stats(
            "fig9",
            &spec,
            2,
            4,
            10,
            CellOutcome::Panicked,
            RunStats::default(),
        )
        .with_reason("injected panic");
        // Cell 3 never journaled.
        let s = render_status(&summarize(&[ok, aborted, panicked]));
        assert!(s.contains("3/4 cells journaled"), "{s}");
        assert!(s.contains("1 aborted"), "{s}");
        assert!(s.contains("1 panicked"), "{s}");
        assert!(
            s.contains("quarantined: STE/CLAP cell 1 — aborted: run budget exceeded"),
            "{s}"
        );
        assert!(
            s.contains("quarantined: STE/CLAP cell 2 — panicked: injected panic"),
            "{s}"
        );
        assert!(s.contains("missing: 1 cell(s) never journaled: 3"), "{s}");
    }

    fn figure_trace() -> Probed<RunTrace> {
        let mut a = RunTrace::default();
        a.record_sample(TraceStage::Translate, 10);
        a.record_sample(TraceStage::Translate, 300);
        a.record_sample(TraceStage::Data, 90);
        let mut b = RunTrace::default();
        b.record_sample(TraceStage::Data, 40);
        Probed {
            id: "figT".into(),
            cols: vec!["S-64KB".into(), "CLAP".into()],
            rows: vec!["STE".into()],
            outcomes: Vec::new(),
            cells: Vec::new(),
            cell_wall_us: Vec::new(),
            merged: vec![a, b],
        }
    }

    #[test]
    fn trace_render_reports_shares_and_counts() {
        let s = render_trace(&figure_trace());
        assert!(s.contains("trace:figT"));
        assert!(s.contains("S-64KB"));
        assert!(s.contains("translate"));
        assert!(s.contains("total 400 cycles"));
        // CLAP column has no translate samples: stage line absent there.
        assert!(s.contains("total 40 cycles"));
    }

    #[test]
    fn trace_json_is_well_formed_and_exact() {
        let s = trace_json(&figure_trace());
        assert!(s.contains("\"figure\": \"figT\""));
        assert!(s.contains("\"config\": \"S-64KB\""));
        assert!(s.contains("\"total_cycles\": 400"));
        // 300 lands in the [256, 512) log2 bucket.
        // Bucket bounds are closed: the 300-cycle sample lands in the
        // [256, 511] log2 bucket.
        assert!(s.contains("{\"lo\": 256, \"hi\": 511, \"count\": 1}"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
        assert!(!s.contains(",\n  ]"));
        assert!(!s.contains(",\n      ]"));
    }

    #[test]
    fn trace_folded_has_one_line_per_nonempty_stage() {
        let s = trace_folded(&figure_trace());
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 3, "translate+data for col 0, data for col 1");
        assert!(lines.contains(&"figT;S-64KB;translate 310"));
        assert!(lines.contains(&"figT;S-64KB;data 90"));
        assert!(lines.contains(&"figT;CLAP;data 40"));
    }

    #[test]
    fn trace_files_round_trip() {
        let dir = std::env::temp_dir().join("clap-repro-test-trace");
        let ft = figure_trace();
        let docs = [("json", trace_json(&ft)), ("folded", trace_folded(&ft))];
        write_probed(&dir, "trace", &ft.id, &docs).expect("write");
        let json = std::fs::read_to_string(dir.join("trace/figT.json")).expect("json");
        assert!(json.contains("\"figure\": \"figT\""));
        let folded = std::fs::read_to_string(dir.join("trace/figT.folded")).expect("folded");
        assert!(folded.contains("figT;CLAP;data 40"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn labels_with_escapes_round_trip_through_every_document() {
        use mcm_sim::{RunOutcome, RunStats};
        let (id, row, col) = ("fig\\x", "W\"1\"", "C\\2\nnew");
        let labels = |doc: &str| -> (String, Vec<String>, Vec<String>) {
            let j = Json::parse(doc).expect("document must be valid JSON");
            let strs = |v: &Json, key: &str| -> Vec<String> {
                let arr = v.get(key).and_then(Json::as_arr).expect("array");
                arr.iter()
                    .map(|x| x.as_str().expect("string").to_string())
                    .collect()
            };
            let cols = j.get("columns").and_then(Json::as_arr).expect("columns");
            let cols = cols.iter().map(|c| c.get("config").and_then(Json::as_str));
            let figure = j.get("figure").and_then(Json::as_str).expect("figure");
            (
                figure.to_string(),
                strs(&j, "workloads"),
                cols.map(|c| c.expect("config").to_string()).collect(),
            )
        };
        let want = (id.to_string(), vec![row.to_string()], vec![col.to_string()]);
        let mut ft = figure_trace();
        (ft.id, ft.rows, ft.cols, ft.merged) = (
            id.into(),
            vec![row.into()],
            vec![col.into()],
            vec![ft.merged.remove(0)],
        );
        assert_eq!(labels(&trace_json(&ft)), want);
        let mr = Probed {
            id: id.into(),
            rows: vec![row.into()],
            cols: vec![col.into()],
            outcomes: vec![RunOutcome::Completed(RunStats::default())],
            cells: vec![RunMetrics::new(2)],
            cell_wall_us: vec![1],
            merged: vec![RunMetrics::new(2)],
        };
        let doc = timeline_json(&mr);
        assert_eq!(labels(&doc), want);
        let cell = Json::parse(&doc).expect("parse");
        let cell = &cell.get("columns").and_then(Json::as_arr).expect("columns")[0];
        let cell = &cell.get("cells").and_then(Json::as_arr).expect("cells")[0];
        assert_eq!(cell.get("workload").and_then(Json::as_str), Some(row));
        let dir = std::env::temp_dir().join("clap-repro-test-timings-escapes");
        write_timings(&[ExperimentTiming::new(id, 0.5)], 1, true, col, &dir).expect("write");
        let doc = std::fs::read_to_string(dir.join("bench_timings.json")).expect("read");
        let _ = std::fs::remove_dir_all(&dir);
        let j = Json::parse(&doc).expect("bench_timings.json must be valid JSON");
        assert_eq!(j.get("engine").and_then(Json::as_str), Some(col));
        let e = &j
            .get("experiments")
            .and_then(Json::as_arr)
            .expect("experiments")[0];
        assert_eq!(e.get("id").and_then(Json::as_str), Some(id));
    }

    #[test]
    fn table4_rendering() {
        use mcm_types::PageSize;
        let rows = vec![Table4Row {
            workload: "BFS".into(),
            sizes: vec![
                ("edges".into(), Some(PageSize::Size2M), false),
                ("frontier".into(), None, true),
            ],
        }];
        let s = render_table4(&rows);
        assert!(s.contains("edges=2MB"));
        assert!(s.contains("frontier=OLP*"));
    }
}
