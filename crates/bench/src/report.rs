//! Rendering experiment grids as aligned text tables and CSV files, and
//! figure traces as JSON histograms and flamegraph-style folded stacks.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use mcm_sim::{Counter, TraceEventClass, TraceStage, SAMPLE_INTERVAL, WARMUP_EPSILON};

use crate::experiments::{FigureTrace, Grid, MetricsReport, Table4Row};
use crate::telemetry::Json;

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

/// One experiment's wall-clock measurement for `bench_timings.json`,
/// enriched with the cell tallies the sweep telemetry journaled.
#[derive(Clone, Debug)]
pub struct ExperimentTiming {
    /// Experiment identifier ("fig18", "table4", ...).
    pub id: String,
    /// Wall-clock seconds the experiment took.
    pub seconds: f64,
    /// Sweep cells the experiment ran or restored (0 when the experiment
    /// has no journaled sweep — e.g. fig10's locality survey).
    pub cells: usize,
    /// Of those, cells whose statistics carried degradation events.
    pub degraded: usize,
    /// Cells restored from shards by `--resume` instead of re-run.
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

/// Writes per-experiment wall-clock timings to `dir/bench_timings.json`
/// (hand-rolled JSON — the workspace deliberately has no serde
/// dependency).
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
    fs::create_dir_all(dir)?;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"jobs\": {jobs},");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"engine\": \"{}\",", engine.replace('"', "\\\""));
    let total: f64 = timings.iter().map(|t| t.seconds).sum();
    let _ = writeln!(s, "  \"total_seconds\": {total:.3},");
    let _ = writeln!(s, "  \"experiments\": [");
    for (i, t) in timings.iter().enumerate() {
        let comma = if i + 1 < timings.len() { "," } else { "" };
        let walls: Vec<String> = t.cell_wall_us.iter().map(u64::to_string).collect();
        let _ = writeln!(
            s,
            "    {{\"id\": \"{}\", \"seconds\": {:.3}, \"cells\": {}, \
             \"degraded\": {}, \"resumed\": {}, \"cell_wall_us\": [{}]}}{comma}",
            t.id.replace('"', "\\\""),
            t.seconds,
            t.cells,
            t.degraded,
            t.resumed,
            walls.join(",")
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    fs::write(dir.join("bench_timings.json"), s)
}

/// The decoded contents of a `bench_timings.json` file.
#[derive(Clone, Debug)]
pub struct TimingsFile {
    /// Worker count the run used.
    pub jobs: usize,
    /// Whether the run was `--quick`.
    pub quick: bool,
    /// Engine tag of the run.
    pub engine: String,
    /// Per-experiment timings, in file order.
    pub timings: Vec<ExperimentTiming>,
}

/// Decodes `dir/bench_timings.json` (`None` when the file is absent or
/// does not parse — callers start a fresh one).
pub fn read_timings(dir: &Path) -> Option<TimingsFile> {
    let s = fs::read_to_string(dir.join("bench_timings.json")).ok()?;
    let j = Json::parse(&s).ok()?;
    let f64_of = |v: &Json| -> Option<f64> {
        match v {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    };
    let mut timings = Vec::new();
    for e in j.get("experiments")?.as_arr()? {
        timings.push(ExperimentTiming {
            id: e.get("id")?.as_str()?.to_string(),
            seconds: f64_of(e.get("seconds")?)?,
            cells: e.get("cells")?.as_usize()?,
            degraded: e.get("degraded")?.as_usize()?,
            resumed: e.get("resumed")?.as_usize()?,
            cell_wall_us: e
                .get("cell_wall_us")?
                .as_arr()?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<Vec<u64>>>()?,
        });
    }
    Some(TimingsFile {
        jobs: j.get("jobs")?.as_usize()?,
        quick: matches!(j.get("quick")?, Json::Bool(b) if *b),
        engine: j.get("engine")?.as_str()?.to_string(),
        timings,
    })
}

/// Merges one experiment's timing into `dir/bench_timings.json`,
/// replacing any previous entry with the same id and preserving every
/// other entry and the file's header fields. When the file is absent or
/// unreadable, a fresh one is started with the given defaults. `whatif`
/// rides along this way without clobbering a `figures` run's entries.
///
/// # Errors
///
/// Propagates I/O errors from the rewrite.
pub fn upsert_timing(
    t: ExperimentTiming,
    default_jobs: usize,
    default_quick: bool,
    default_engine: &str,
    dir: &Path,
) -> io::Result<()> {
    let (mut timings, jobs, quick, engine) = match read_timings(dir) {
        Some(tf) => (tf.timings, tf.jobs, tf.quick, tf.engine),
        None => (
            Vec::new(),
            default_jobs,
            default_quick,
            default_engine.to_string(),
        ),
    };
    match timings.iter_mut().find(|e| e.id == t.id) {
        Some(slot) => *slot = t,
        None => timings.push(t),
    }
    write_timings(&timings, jobs, quick, &engine, dir)
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
            let _ = writeln!(
                out,
                "   degraded: {}/{} cell {} — {} event(s) \
                 (fallback_frames={}, rejected={}, stalls={}, stale_hits={}, audit={})",
                r.workload,
                r.config,
                r.cell,
                r.degraded_events,
                r.fallback_remote_frames,
                r.rejected_directives,
                r.walk_queue_stalls,
                r.stale_tlb_hits,
                r.audit_violations
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
pub fn render_trace(ft: &FigureTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== trace:{} — per-stage cycle breakdown over {} workload(s)",
        ft.id,
        ft.rows.len()
    );
    let col_w = ft.cols.iter().map(String::len).max().unwrap_or(6).max(8);
    for (c, trace) in ft.cols.iter().zip(&ft.traces) {
        let total = trace.total_cycles().max(1);
        let _ = writeln!(
            out,
            "{c:col_w$}  total {} cycles, {} events ({} buffered, {} dropped)",
            trace.total_cycles(),
            trace.events_seen,
            trace.events.len(),
            trace.dropped_events
        );
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

/// The JSON representation of a figure trace (hand-rolled — the workspace
/// deliberately has no serde dependency): per configuration, per-stage
/// log2-bucketed latency histograms plus the exact event counters.
pub fn trace_json(ft: &FigureTrace) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"figure\": \"{}\",", ft.id.replace('"', "\\\""));
    let _ = writeln!(
        s,
        "  \"workloads\": [{}],",
        ft.rows
            .iter()
            .map(|r| format!("\"{}\"", r.replace('"', "\\\"")))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(s, "  \"columns\": [");
    for (ci, (c, trace)) in ft.cols.iter().zip(&ft.traces).enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"config\": \"{}\",", c.replace('"', "\\\""));
        let _ = writeln!(s, "      \"total_cycles\": {},", trace.total_cycles());
        let _ = writeln!(s, "      \"events_seen\": {},", trace.events_seen);
        let _ = writeln!(s, "      \"dropped_events\": {},", trace.dropped_events);
        let _ = writeln!(s, "      \"events\": {{");
        for (i, class) in TraceEventClass::ALL.iter().enumerate() {
            let comma = if i + 1 < TraceEventClass::ALL.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "        \"{}\": {}{comma}",
                class.name(),
                trace.event_count(*class)
            );
        }
        let _ = writeln!(s, "      }},");
        let _ = writeln!(s, "      \"stages\": [");
        for (i, stage) in TraceStage::ALL.iter().enumerate() {
            let h = trace.hist(*stage);
            let comma = if i + 1 < TraceStage::ALL.len() {
                ","
            } else {
                ""
            };
            let buckets = h
                .nonzero_buckets()
                .map(|(lo, hi, n)| format!("{{\"lo\": {lo}, \"hi\": {hi}, \"count\": {n}}}"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(s, "        {{");
            let _ = writeln!(s, "          \"stage\": \"{}\",", stage.name());
            let _ = writeln!(s, "          \"count\": {},", h.count());
            let _ = writeln!(s, "          \"sum\": {},", h.sum());
            let _ = writeln!(s, "          \"min\": {},", h.min().unwrap_or(0));
            let _ = writeln!(s, "          \"max\": {},", h.max().unwrap_or(0));
            let _ = writeln!(s, "          \"buckets\": [{buckets}]");
            let _ = writeln!(s, "        }}{comma}");
        }
        let _ = writeln!(s, "      ]");
        let comma = if ci + 1 < ft.cols.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// The flamegraph folded-stack representation of a figure trace: one
/// `figure;config;stage <cycles>` line per non-empty stage, feedable to
/// `flamegraph.pl` / `inferno-flamegraph` for a per-figure stage
/// breakdown.
pub fn trace_folded(ft: &FigureTrace) -> String {
    let mut s = String::new();
    for (c, trace) in ft.cols.iter().zip(&ft.traces) {
        for stage in TraceStage::ALL {
            let h = trace.hist(stage);
            if h.sum() > 0 {
                let _ = writeln!(s, "{};{};{} {}", ft.id, c, stage.name(), h.sum());
            }
        }
    }
    s
}

/// Writes a figure trace to `dir/trace/<id>.json` and
/// `dir/trace/<id>.folded`.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or file write.
pub fn write_trace(ft: &FigureTrace, dir: &Path) -> io::Result<()> {
    let tdir = dir.join("trace");
    fs::create_dir_all(&tdir)?;
    fs::write(tdir.join(format!("{}.json", ft.id)), trace_json(ft))?;
    fs::write(tdir.join(format!("{}.folded", ft.id)), trace_folded(ft))
}

/// `None` renders as JSON `null`; values get the six decimals the rest
/// of the telemetry layer uses.
fn json_opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| format!("{v:.6}"))
}

/// Renders a metrics report as an aligned text summary: per
/// configuration column, the folded interconnect traffic, DRAM
/// imbalance, and the warmup picture across that column's cells.
pub fn render_timeline(mr: &MetricsReport) -> String {
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

/// The JSON representation of a metrics report (hand-rolled — the
/// workspace deliberately has no serde dependency): per configuration
/// column, the merged per-chiplet counters and cross-chiplet traffic
/// matrix, then each cell's warmup summary and full interval series.
/// Frame deltas list only counters that moved during the interval; absent
/// counter keys read as zero.
pub fn timeline_json(mr: &MetricsReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"figure\": \"{}\",", mr.id.replace('"', "\\\""));
    let _ = writeln!(
        s,
        "  \"workloads\": [{}],",
        mr.rows
            .iter()
            .map(|r| format!("\"{}\"", r.replace('"', "\\\"")))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(s, "  \"columns\": [");
    for (c, label) in mr.cols.iter().enumerate() {
        let m = &mr.merged[c];
        let n = m.num_chiplets();
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"config\": \"{}\",", label.replace('"', "\\\""));
        let _ = writeln!(s, "      \"num_chiplets\": {n},");
        let _ = writeln!(s, "      \"sample_interval\": {SAMPLE_INTERVAL},");
        let _ = writeln!(s, "      \"merged_cells\": {},", m.merged_cells);
        let _ = writeln!(s, "      \"dropped_frames\": {},", m.dropped_frames);
        let _ = writeln!(
            s,
            "      \"dram_imbalance\": {},",
            json_opt_f64(m.dram_imbalance())
        );
        let _ = writeln!(s, "      \"counters\": {{");
        for (i, counter) in Counter::ALL.iter().enumerate() {
            let comma = if i + 1 < Counter::COUNT { "," } else { "" };
            let per_chiplet: Vec<String> =
                (0..n).map(|ch| m.count(ch, *counter).to_string()).collect();
            let _ = writeln!(
                s,
                "        \"{}\": [{}]{comma}",
                counter.name(),
                per_chiplet.join(",")
            );
        }
        let _ = writeln!(s, "      }},");
        let mut links = Vec::new();
        for src in 0..n {
            for dst in 0..n {
                let t = m.traffic(src, dst);
                if t.transfers > 0 {
                    links.push(format!(
                        "{{\"src\": {src}, \"dst\": {dst}, \"transfers\": {}, \
                         \"hops\": {}, \"queue_cycles\": {}}}",
                        t.transfers, t.hops, t.queue_cycles
                    ));
                }
            }
        }
        let _ = writeln!(s, "      \"traffic\": [{}],", links.join(", "));
        let _ = writeln!(s, "      \"cells\": [");
        for r in 0..mr.rows.len() {
            let cell = mr.cell(r, c);
            let stats = mr.cell_stats(r, c);
            let ratios = cell.remote_ratio_series();
            let _ = writeln!(s, "        {{");
            let _ = writeln!(
                s,
                "          \"workload\": \"{}\",",
                mr.rows[r].replace('"', "\\\"")
            );
            let _ = writeln!(s, "          \"cycles\": {},", stats.cycles);
            let _ = writeln!(
                s,
                "          \"warmup_knee\": {},",
                cell.warmup_knee(WARMUP_EPSILON)
                    .map_or_else(|| "null".to_string(), |k| k.to_string())
            );
            let _ = writeln!(
                s,
                "          \"warmup_frac\": {},",
                json_opt_f64(cell.warmup_frac(WARMUP_EPSILON))
            );
            let _ = writeln!(
                s,
                "          \"dram_imbalance\": {},",
                json_opt_f64(cell.dram_imbalance())
            );
            let _ = writeln!(s, "          \"series\": [");
            for (fi, frame) in cell.series().iter().enumerate() {
                let mut deltas = Vec::new();
                for counter in Counter::ALL {
                    if frame.total(counter) == 0 {
                        continue;
                    }
                    let per_chiplet: Vec<String> = (0..cell.num_chiplets())
                        .map(|ch| frame.delta(ch, counter).to_string())
                        .collect();
                    deltas.push(format!(
                        "\"{}\": [{}]",
                        counter.name(),
                        per_chiplet.join(",")
                    ));
                }
                let comma = if fi + 1 < cell.series().len() {
                    ","
                } else {
                    ""
                };
                let _ = writeln!(
                    s,
                    "            {{\"cycle\": {}, \"remote_ratio\": {}, \
                     \"deltas\": {{{}}}}}{comma}",
                    frame.cycle,
                    json_opt_f64(ratios[fi]),
                    deltas.join(", ")
                );
            }
            let _ = writeln!(s, "          ]");
            let comma = if r + 1 < mr.rows.len() { "," } else { "" };
            let _ = writeln!(s, "        }}{comma}");
        }
        let _ = writeln!(s, "      ]");
        let comma = if c + 1 < mr.cols.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// The CSV representation of a metrics report, long format: one row per
/// (configuration, workload, frame, chiplet) with every counter's interval
/// delta — directly plottable as per-chiplet time series.
pub fn timeline_csv(mr: &MetricsReport) -> String {
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

/// Writes a metrics report to `dir/timeline/<id>.json` and
/// `dir/timeline/<id>.csv`.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or file write.
pub fn write_timeline(mr: &MetricsReport, dir: &Path) -> io::Result<()> {
    let tdir = dir.join("timeline");
    fs::create_dir_all(&tdir)?;
    fs::write(tdir.join(format!("{}.json", mr.id)), timeline_json(mr))?;
    fs::write(tdir.join(format!("{}.csv", mr.id)), timeline_csv(mr))
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
             \"degraded\": 2, \"resumed\": 8, \"cell_wall_us\": [100,250,75]"
        ));
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
        // The enriched JSON still parses with the telemetry JSON parser.
        crate::telemetry::Json::parse(&s).expect("bench_timings.json must be valid JSON");
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
                &degraded,
            ),
            CellRecord::from_stats(
                "fig1",
                &spec,
                1,
                2,
                900,
                CellOutcome::Completed,
                &RunStats::default(),
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
            &RunStats::default(),
        );
        let aborted = CellRecord::from_stats(
            "fig9",
            &spec,
            1,
            4,
            50,
            CellOutcome::Aborted,
            &RunStats::default(),
        )
        .with_reason("run budget exceeded: cycle 9 past max_cycles 5");
        let panicked = CellRecord::from_stats(
            "fig9",
            &spec,
            2,
            4,
            10,
            CellOutcome::Panicked,
            &RunStats::default(),
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

    fn figure_trace() -> FigureTrace {
        use mcm_sim::{RunTrace, TraceEventKind};
        use mcm_types::{ChipletId, VirtAddr};
        let mut a = RunTrace::new();
        a.record_sample(TraceStage::Translate, 10);
        a.record_sample(TraceStage::Translate, 300);
        a.record_sample(TraceStage::Data, 90);
        a.record_event(TraceEventKind::Crossing {
            src: ChipletId::new(0),
            dst: ChipletId::new(1),
            hops: 1,
            cycle: 5,
        });
        a.record_event(TraceEventKind::L2TlbMiss {
            va: VirtAddr::new(0),
            chiplet: ChipletId::new(0),
            cycle: 2,
        });
        let mut b = RunTrace::new();
        b.record_sample(TraceStage::Data, 40);
        FigureTrace {
            id: "figT".into(),
            cols: vec!["S-64KB".into(), "CLAP".into()],
            rows: vec!["STE".into()],
            traces: vec![a, b],
        }
    }

    #[test]
    fn trace_render_reports_shares_and_counts() {
        let s = render_trace(&figure_trace());
        assert!(s.contains("trace:figT"));
        assert!(s.contains("S-64KB"));
        assert!(s.contains("translate"));
        assert!(s.contains("total 400 cycles"));
        assert!(s.contains("2 events"));
        // CLAP column has no translate samples: stage line absent there.
        assert!(s.contains("total 40 cycles"));
    }

    #[test]
    fn trace_json_is_well_formed_and_exact() {
        let s = trace_json(&figure_trace());
        assert!(s.contains("\"figure\": \"figT\""));
        assert!(s.contains("\"config\": \"S-64KB\""));
        assert!(s.contains("\"total_cycles\": 400"));
        assert!(s.contains("\"crossing\": 1"));
        assert!(s.contains("\"l2tlb_miss\": 1"));
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
        write_trace(&figure_trace(), &dir).expect("write");
        let json = std::fs::read_to_string(dir.join("trace/figT.json")).expect("json");
        assert!(json.contains("\"figure\": \"figT\""));
        let folded = std::fs::read_to_string(dir.join("trace/figT.folded")).expect("folded");
        assert!(folded.contains("figT;CLAP;data 40"));
        let _ = std::fs::remove_dir_all(&dir);
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
