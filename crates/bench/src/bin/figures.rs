//! Regenerates every table and figure of the CLAP paper's evaluation.
//!
//! ```text
//! figures [--quick] [--jobs N] [--out DIR] [--resume] [--progress=on|off|auto] \
//!         [all|fig1|fig2|fig6|fig8|fig10|fig18|fig19|fig20|fig21|fig22|table1|table2|table4|ablation|topo]
//! figures [--quick] probe <WORKLOAD>
//! figures [--quick] probe --chaos[=SEED] <WORKLOAD>
//! figures [--quick] trace [fig1|fig18|topo]
//! figures [--quick] timeline [fig1|fig18|topo]
//! figures [--out DIR] status [--check]
//! ```
//!
//! `probe --chaos` re-runs the workload under every main config with a
//! fault-injecting `ChaosPolicy` wrapper and epoch auditing, and reports
//! the degradation counters instead of the performance columns.
//!
//! `--quick` runs at reduced threadblock counts (smoke scale); by default
//! results are printed and CSVs written to `results/`, along with
//! per-experiment wall-clock timings in `results/bench_timings.json`.
//!
//! `--jobs N` (or the `MCM_JOBS` environment variable; default: available
//! parallelism) fans each experiment's independent sweep cells out over N
//! worker threads. Output is byte-identical for every worker count.
//!
//! `--engine cycle|analytic` picks the prediction backend: `cycle`
//! (default) is the cycle-approximate simulator, `analytic` replaces each
//! cell with the closed-form fast path where a model exists
//! (migration-dominated configs always fall back to the simulator). The
//! engine is tagged in every telemetry record.
//!
//! `trace` re-runs a figure's sweep under the stage-tracing probe and
//! writes per-stage latency histograms (JSON) plus a flamegraph-style
//! folded-stack breakdown to `results/trace/`.
//!
//! `timeline` re-runs a figure's sweep under the metrics probe and writes
//! per-chiplet interval time-series plus the cross-chiplet traffic matrix
//! to `results/timeline/<fig>.{json,csv}`, journaling one record per cell
//! (its outcome and warmup-knee estimate) under the `<fig>-timeline`
//! experiment id so `figures status` reports worst-imbalance and warmup
//! fractions. Both run on the cycle engine; runs without a probe pay
//! nothing for either.
//!
//! Every experiment sweep is journaled as it runs: one JSONL record per
//! cell under `<out>/journal/<exp>.jsonl` and the cell's full statistics
//! under `<out>/shards/<exp>/<cell>.json`, written worker-side at cell
//! completion. `--resume` restores cells whose shard validates (schema
//! version + configuration fingerprint) instead of re-running them;
//! `status` summarizes a journal; `--progress` controls the live stderr
//! reporter (`auto` = on when stderr is a terminal — so tests and piped
//! runs stay silent).
//!
//! Sweeps run supervised: a cell that panics or aborts (run budget,
//! livelock, or any typed engine error) is retried with the same seed
//! (`--retries N`, default 1) and then quarantined — journaled with its
//! failure reason, its grid slot zeroed — while every other cell
//! completes and keeps its shard (`--keep-going`, the default). The run
//! then exits 1 with a per-class summary; a later `--resume` re-runs
//! exactly the quarantined cells. `--fail-fast` propagates the first
//! failure instead (the debugging mode). `--inject exp:cell=panic|budget`
//! (repeatable) plants deliberate failures so CI can prove all of the
//! above end to end.

use std::env;
use std::io::IsTerminal;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcm_bench::experiments::{self, EngineKind, Grid, Harness};
use mcm_bench::report::{
    render_grid, render_status, render_table4, write_csv, write_timings, ExperimentTiming,
};
use mcm_bench::runner::jobs_from_env;
use mcm_bench::supervise::{Injection, Supervisor, SweepMode};
use mcm_bench::telemetry::{self, CellOutcome, Telemetry};

/// `--progress` setting.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ProgressMode {
    On,
    Off,
    Auto,
}

struct Options {
    quick: bool,
    jobs: usize,
    out_dir: PathBuf,
    /// Chaos seed for `probe --chaos[=SEED]`.
    chaos_seed: Option<u64>,
    /// Restore valid shards instead of re-running their cells.
    resume: bool,
    /// Live progress reporter setting.
    progress: ProgressMode,
    /// `status --check`: validate every journal line and shard.
    check: bool,
    /// Sweep failure policy (`--keep-going` default / `--fail-fast`).
    mode: SweepMode,
    /// Per-cell retry bound override (`--retries N`).
    retries: Option<usize>,
    /// Deliberate failure injections (`--inject exp:cell=panic|budget`).
    inject: Vec<Injection>,
    /// Prediction engine (`--engine cycle|analytic`).
    engine: EngineKind,
    /// Positional arguments (experiment ids, or `probe <WORKLOAD>`).
    targets: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: figures [--quick] [--jobs N] [--out DIR] [--resume] \
         [--progress[=on|off|auto]] [--chaos[=SEED]] \
         [--keep-going|--fail-fast] [--retries N] \
         [--engine cycle|analytic] \
         [--inject exp:cell=panic|budget] [TARGET ...]\n\
         targets: all fig1 fig2 fig6 fig8 fig10 fig18 fig19 fig20 fig21 fig22 \
         table1 table2 table4 ablation topo | probe <WORKLOAD> | trace [FIG] | \
         timeline [FIG] | status [--check]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        quick: false,
        jobs: jobs_from_env(),
        out_dir: PathBuf::from("results"),
        chaos_seed: None,
        resume: false,
        progress: ProgressMode::Auto,
        check: false,
        mode: SweepMode::KeepGoing,
        retries: None,
        inject: Vec::new(),
        engine: EngineKind::Cycle,
        targets: Vec::new(),
    };
    let mut args = env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--resume" => opts.resume = true,
            "--check" => opts.check = true,
            "--keep-going" => opts.mode = SweepMode::KeepGoing,
            "--fail-fast" => opts.mode = SweepMode::FailFast,
            "--progress" => opts.progress = ProgressMode::On,
            "--retries" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => opts.retries = Some(n),
                _ => {
                    eprintln!("--retries needs a non-negative integer");
                    usage();
                }
            },
            "--engine" => match args.next().as_deref().and_then(EngineKind::parse) {
                Some(e) => opts.engine = e,
                None => {
                    eprintln!("--engine wants cycle|analytic");
                    usage();
                }
            },
            "--inject" => match args.next().map(|v| Injection::parse(&v)) {
                Some(Ok(i)) => opts.inject.push(i),
                Some(Err(e)) => {
                    eprintln!("{e}");
                    usage();
                }
                None => {
                    eprintln!("--inject needs exp:cell=panic|budget");
                    usage();
                }
            },
            "--jobs" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => opts.jobs = n,
                _ => {
                    eprintln!("--jobs needs a positive integer");
                    usage();
                }
            },
            "--out" => match args.next() {
                Some(d) => opts.out_dir = PathBuf::from(d),
                None => {
                    eprintln!("--out needs a directory");
                    usage();
                }
            },
            "--chaos" => opts.chaos_seed = Some(1),
            "--help" | "-h" => usage(),
            _ => {
                if let Some(v) = a.strip_prefix("--jobs=") {
                    match v.parse::<usize>() {
                        Ok(n) if n >= 1 => opts.jobs = n,
                        _ => {
                            eprintln!("--jobs needs a positive integer, got {v:?}");
                            usage();
                        }
                    }
                } else if let Some(v) = a.strip_prefix("--progress=") {
                    opts.progress = match v {
                        "on" => ProgressMode::On,
                        "off" => ProgressMode::Off,
                        "auto" => ProgressMode::Auto,
                        _ => {
                            eprintln!("--progress wants on|off|auto, got {v:?}");
                            usage();
                        }
                    };
                } else if let Some(v) = a.strip_prefix("--chaos=") {
                    match v.parse::<u64>() {
                        Ok(s) => opts.chaos_seed = Some(s),
                        Err(_) => {
                            eprintln!("--chaos seed must be an integer, got {v:?}");
                            usage();
                        }
                    }
                } else if let Some(v) = a.strip_prefix("--engine=") {
                    match EngineKind::parse(v) {
                        Some(e) => opts.engine = e,
                        None => {
                            eprintln!("--engine wants cycle|analytic, got {v:?}");
                            usage();
                        }
                    }
                } else if let Some(v) = a.strip_prefix("--retries=") {
                    match v.parse::<usize>() {
                        Ok(n) => opts.retries = Some(n),
                        Err(_) => {
                            eprintln!("--retries needs a non-negative integer, got {v:?}");
                            usage();
                        }
                    }
                } else if let Some(v) = a.strip_prefix("--inject=") {
                    match Injection::parse(v) {
                        Ok(i) => opts.inject.push(i),
                        Err(e) => {
                            eprintln!("{e}");
                            usage();
                        }
                    }
                } else if a.starts_with("--") {
                    eprintln!("unknown flag {a:?}");
                    usage();
                } else {
                    opts.targets.push(a);
                }
            }
        }
    }
    if opts.targets.is_empty() {
        opts.targets.push("all".into());
    }
    opts
}

fn main() {
    let opts = parse_args();
    let mut supervisor = Supervisor::new(opts.mode).with_injections(opts.inject.clone());
    if let Some(retries) = opts.retries {
        supervisor = supervisor.with_retries(retries);
    }
    let supervisor = Arc::new(supervisor);
    let h = if opts.quick {
        Harness::quick()
    } else {
        Harness::full()
    }
    .with_jobs(opts.jobs)
    .with_engine(opts.engine)
    .with_supervisor(Arc::clone(&supervisor));

    if opts.targets.iter().any(|t| t == "status") {
        run_status(&opts.out_dir, opts.check);
        return;
    }

    if let Some(pos) = opts.targets.iter().position(|t| t == "trace") {
        let fig = opts
            .targets
            .get(pos + 1)
            .map(String::as_str)
            .unwrap_or("fig1");
        run_trace(&h, fig, &opts.out_dir);
        return;
    }

    if let Some(pos) = opts.targets.iter().position(|t| t == "timeline") {
        let fig = opts
            .targets
            .get(pos + 1)
            .map(String::as_str)
            .unwrap_or("fig18");
        run_timeline(&h, fig, &opts.out_dir);
        return;
    }

    if let Some(pos) = opts.targets.iter().position(|t| t == "probe") {
        let wname = opts
            .targets
            .get(pos + 1)
            .map(String::as_str)
            .unwrap_or("STE");
        match opts.chaos_seed {
            Some(seed) => probe_chaos(&h, wname, seed),
            None => probe(&h, wname),
        }
        return;
    }

    // Experiment sweeps run with telemetry attached: per-cell journal and
    // shard writes (and shard restores when resuming), plus the optional
    // live progress reporter. Telemetry observes only — CSVs stay
    // byte-identical to the untelemetered path.
    let progress_on = match opts.progress {
        ProgressMode::On => true,
        ProgressMode::Off => false,
        ProgressMode::Auto => std::io::stderr().is_terminal(),
    };
    let mut tele = Telemetry::new(&opts.out_dir).with_resume(opts.resume);
    if progress_on {
        tele = tele.with_progress(Duration::from_secs(1));
    }
    let tele = Arc::new(tele);
    let h = h.with_telemetry(Arc::clone(&tele));

    let all = opts.targets.iter().any(|t| t == "all");
    let want = |t: &str| all || opts.targets.iter().any(|x| x == t);
    let t0 = Instant::now();
    let mut timings: Vec<ExperimentTiming> = Vec::new();
    let timed = |timings: &mut Vec<ExperimentTiming>, id: &str, f: &dyn Fn()| {
        let t = Instant::now();
        f();
        timings.push(ExperimentTiming::new(id, t.elapsed().as_secs_f64()));
    };

    if want("table1") {
        timed(&mut timings, "table1", &|| print_table1(&h));
    }
    let emit = |g: &Grid| {
        println!("{}", render_grid(g));
        if let Err(e) = write_csv(g, &opts.out_dir) {
            eprintln!("warning: failed to write {}.csv: {e}", g.id);
        }
    };
    type GridFn<'a> = (&'a str, Box<dyn Fn(&Harness) -> Grid>);
    let grids: Vec<GridFn> = vec![
        ("fig1", Box::new(experiments::fig1)),
        ("fig2", Box::new(experiments::fig2)),
        ("fig6", Box::new(experiments::fig6)),
        ("fig8", Box::new(experiments::fig8)),
        ("fig10", Box::new(|_| experiments::fig10())),
        ("fig18", Box::new(experiments::fig18)),
        ("fig19", Box::new(experiments::fig19)),
        ("fig20", Box::new(experiments::fig20)),
        ("fig21", Box::new(experiments::fig21)),
        ("fig22", Box::new(experiments::fig22)),
        ("table2", Box::new(experiments::table2)),
        ("ablation", Box::new(experiments::ablation)),
        ("topo", Box::new(experiments::topo)),
    ];
    for (id, f) in grids {
        if want(id) {
            timed(&mut timings, id, &|| emit(&f(&h)));
        }
    }
    if want("table4") {
        timed(&mut timings, "table4", &|| {
            let rows = experiments::table4(&h);
            println!("{}", render_table4(&rows));
        });
    }
    // An experiment that journaled its sweep reports the sweep's cell
    // tallies under the experiment's own wall-clock seconds.
    let swept = tele.experiment_counters();
    for t in &mut timings {
        if let Some(s) = swept.iter().find(|s| s.id == t.id) {
            *t = ExperimentTiming {
                seconds: t.seconds,
                ..s.clone()
            };
        }
    }
    tele.finish();
    if let Err(e) = write_timings(
        &timings,
        opts.jobs,
        opts.quick,
        opts.engine.name(),
        &opts.out_dir,
    ) {
        eprintln!("warning: failed to write bench_timings.json: {e}");
    }
    eprintln!(
        "[figures] completed in {:.1?} with {} job(s)",
        t0.elapsed(),
        opts.jobs
    );
    // Quarantined cells mean the grids above contain zeroed slots: every
    // healthy cell kept its shard, so a later `--resume` re-runs exactly
    // the quarantined ones — but this run's CSVs are not trustworthy, so
    // exit nonzero with a per-class summary.
    let quarantined = supervisor.quarantined();
    if !quarantined.is_empty() {
        let aborted = quarantined
            .iter()
            .filter(|q| q.outcome == CellOutcome::Aborted)
            .count();
        let panicked = quarantined.len() - aborted;
        eprintln!(
            "[figures] {} cell(s) quarantined ({aborted} aborted, {panicked} panicked); \
             healthy cells kept their shards — fix the cause and re-run with --resume",
            quarantined.len()
        );
        for q in &quarantined {
            eprintln!(
                "  {} cell {} ({}/{}) — {} after {} attempt(s): {}",
                q.exp, q.cell, q.workload, q.config, q.outcome, q.attempts, q.reason
            );
        }
        std::process::exit(1);
    }
}

/// `figures status [--check]`: summarize the run journal under the output
/// directory — per-experiment completion, slowest cells, degraded and
/// quarantined cells. Torn journal tails (a crash mid-append) are
/// salvaged: the valid prefix is summarized and the tail reported as a
/// warning, as are lines from another schema version. With `--check`,
/// additionally validate every journal line and every shard file and
/// require full cell coverage (every declared cell has a journal record),
/// exiting non-zero on malformed, incomplete, or absent telemetry.
fn run_status(out_dir: &Path, check: bool) {
    let journal = telemetry::read_journal_dir(&out_dir.join("journal"));
    let summaries = telemetry::summarize(&journal.records);
    print!("{}", render_status(&summaries));
    for w in &journal.salvaged {
        eprintln!("salvaged journal tail: {w}");
    }
    if journal.stale > 0 {
        eprintln!(
            "warning: skipped {} journal record(s) written under another schema version",
            journal.stale
        );
    }
    for e in &journal.errors {
        eprintln!("malformed journal line: {e}");
    }
    if !check {
        return;
    }
    let (checked, shard_errors) = telemetry::check_shards(&out_dir.join("shards"));
    for e in &shard_errors {
        eprintln!("bad shard: {e}");
    }
    let missing: usize = summaries.iter().map(|s| s.missing.len()).sum();
    println!(
        "checked {} journal record(s) and {} shard(s): {} journal error(s), \
         {} shard error(s), {} missing cell(s)",
        journal.records.len(),
        checked,
        journal.errors.len(),
        shard_errors.len(),
        missing
    );
    if journal.records.len() + checked == 0 {
        eprintln!(
            "status --check: no telemetry found under {}",
            out_dir.display()
        );
        std::process::exit(1);
    }
    if !journal.errors.is_empty() || !shard_errors.is_empty() || missing > 0 {
        std::process::exit(1);
    }
}

/// Exits 2 unless `fig` is a figure the probed re-runs know.
fn require_probed(fig: &str) {
    if !experiments::PROBED_FIGURES.contains(&fig) {
        eprintln!(
            "unknown probed figure {fig:?}; have {:?}",
            experiments::PROBED_FIGURES
        );
        std::process::exit(2);
    }
}

/// Traced sweep: re-runs `fig` under the stage-tracing probe, prints the
/// per-stage breakdown, and writes `trace/<fig>.json` + `.folded` under
/// the output directory.
fn run_trace(h: &Harness, fig: &str, out_dir: &Path) {
    require_probed(fig);
    let t0 = Instant::now();
    let ft = experiments::trace_figure(h, fig);
    println!("{}", mcm_bench::report::render_trace(&ft));
    match mcm_bench::report::write_trace(&ft, out_dir) {
        Ok(()) => eprintln!(
            "[figures] wrote {} and {} in {:.1?}",
            out_dir.join("trace").join(format!("{fig}.json")).display(),
            out_dir
                .join("trace")
                .join(format!("{fig}.folded"))
                .display(),
            t0.elapsed()
        ),
        Err(e) => {
            eprintln!("failed to write trace output: {e}");
            std::process::exit(1);
        }
    }
}

/// Metered sweep: re-runs `fig` under the metrics probe, prints the
/// per-configuration summary, writes `timeline/<fig>.json` + `.csv` under
/// the output directory, and journals one record per cell (outcome and
/// warmup-knee estimate) under the `<fig>-timeline` experiment.
fn run_timeline(h: &Harness, fig: &str, out_dir: &Path) {
    require_probed(fig);
    let t0 = Instant::now();
    let mr = experiments::timeline_figure(h, fig);
    println!("{}", mcm_bench::report::render_timeline(&mr));
    let exp = format!("{fig}-timeline");
    if let Err(e) = telemetry::append_journal_records(out_dir, &exp, &mr.journal_records(&exp)) {
        eprintln!("warning: failed to journal {exp}: {e}");
    }
    match mcm_bench::report::write_timeline(&mr, out_dir) {
        Ok(()) => eprintln!(
            "[figures] wrote {} and {} in {:.1?}",
            out_dir
                .join("timeline")
                .join(format!("{fig}.json"))
                .display(),
            out_dir
                .join("timeline")
                .join(format!("{fig}.csv"))
                .display(),
            t0.elapsed()
        ),
        Err(e) => {
            eprintln!("failed to write timeline output: {e}");
            std::process::exit(1);
        }
    }
}

/// Deep-dive: full statistics for one workload under every main config.
fn probe(h: &Harness, wname: &str) {
    use mcm_bench::configs::ConfigKind;
    let w = mcm_workloads::suite::by_name(wname).unwrap_or_else(|| {
        eprintln!("unknown workload {wname}");
        std::process::exit(2);
    });
    println!(
        "{:<18} {:>10} {:>7} {:>7} {:>7} {:>8} {:>8} {:>6} {:>6} {:>7} {:>7} {:>7} {:>6}",
        "config",
        "cycles",
        "remote",
        "xlat",
        "wlat",
        "l1tlbM%",
        "l2tlbM%",
        "l1d%",
        "l2d%",
        "walks",
        "mshr",
        "faults",
        "promo"
    );
    for kind in ConfigKind::main_eval() {
        let s = h.run(&w, kind);
        println!(
            "{:<18} {:>10} {:>7.3} {:>7.1} {:>7.1} {:>8.3} {:>8.3} {:>6.3} {:>6.3} {:>7} {:>7} {:>7} {:>6}",
            kind.name(),
            s.cycles,
            s.remote_ratio(),
            s.avg_translation_latency(),
            s.walk_cycles as f64 / s.walks.max(1) as f64,
            s.l1tlb_misses as f64 / s.mem_insts.max(1) as f64,
            s.l2tlb_misses as f64 / s.mem_insts.max(1) as f64,
            s.l1d_hits as f64 / s.mem_insts.max(1) as f64,
            s.l2d_hits as f64 / s.l1d_misses.max(1) as f64,
            s.walks,
            s.walk_mshr_hits,
            s.faults,
            s.promotions
        );
    }
}

/// Chaos deep-dive: every main config under seeded fault injection, with
/// the run's degradation counters instead of performance columns.
fn probe_chaos(h: &Harness, wname: &str, seed: u64) {
    use mcm_bench::configs::ConfigKind;
    use mcm_sim::RunOutcome;
    let w = mcm_workloads::suite::by_name(wname).unwrap_or_else(|| {
        eprintln!("unknown workload {wname}");
        std::process::exit(2);
    });
    println!("== chaos probe: {wname}, seed {seed}");
    println!(
        "{:<18} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}  outcome",
        "config", "injected", "reject", "fallbk", "stalls", "stale", "audit", "notlb", "cycles"
    );
    for kind in ConfigKind::main_eval() {
        let (chaos, out) = h.run_chaos(&w, kind, seed);
        match out {
            Ok(RunOutcome::Completed(s)) | Ok(RunOutcome::Degraded { stats: s, .. }) => {
                let d = &s.degradation;
                println!(
                    "{:<18} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}  {}",
                    kind.name(),
                    chaos.total(),
                    d.rejected_directives,
                    d.fallback_remote_frames,
                    d.walk_queue_stalls,
                    d.stale_tlb_hits,
                    d.audit_violations,
                    d.tlb_class_missing,
                    s.cycles,
                    if d.is_degraded() { "degraded" } else { "clean" }
                );
            }
            Ok(RunOutcome::Aborted { reason, stats }) => {
                let d = &stats.degradation;
                println!(
                    "{:<18} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}  aborted: {reason}",
                    kind.name(),
                    chaos.total(),
                    d.rejected_directives,
                    d.fallback_remote_frames,
                    d.walk_queue_stalls,
                    d.stale_tlb_hits,
                    d.audit_violations,
                    d.tlb_class_missing,
                    stats.cycles
                );
            }
            Err(e) => {
                println!(
                    "{:<18} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}  failed: {e}",
                    kind.name(),
                    chaos.total(),
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-"
                );
            }
        }
    }
}

fn print_table1(h: &Harness) {
    let c = h.base_config();
    println!(
        "== table1 — baseline simulation configuration (resource scale 1/{})",
        c.resource_scale
    );
    println!("chiplets               {}", c.num_chiplets);
    println!(
        "GPU cores              {} SMs/chiplet, {} total, max {} warps/SM, MLP {}",
        c.sms_per_chiplet,
        c.total_sms(),
        c.max_warps_per_sm,
        c.warp_mlp
    );
    println!(
        "L1 cache               {}KB, {}-cycle, {}B line (scaled {}KB)",
        c.l1d_bytes / 1024,
        c.l1d_latency,
        c.line_bytes,
        c.effective_l1d_bytes() / 1024
    );
    println!(
        "L2 cache               {}MB/chiplet, {}-cycle (scaled {}KB)",
        c.l2d_bytes / (1024 * 1024),
        c.l2d_latency,
        c.effective_l2d_bytes() / 1024
    );
    for s in [
        mcm_types::PageSize::Size4K,
        mcm_types::PageSize::Size64K,
        mcm_types::PageSize::Size2M,
    ] {
        let e = c.tlb_entries(s);
        println!(
            "TLB ({s:>4})             L1 {}-entry {}-cycle, L2 {}-entry {}-cycle 8-way",
            e.l1, c.l1_tlb_latency, e.l2, c.l2_tlb_latency
        );
    }
    println!(
        "inter-chip             {}, {}-cycle/hop, {}-cycle/transfer link occupancy",
        c.topology.name(),
        c.hop_latency,
        c.link_service
    );
    println!(
        "DRAM                   {} channels/chiplet, {}-cycle latency, {}-cycle/access channel occupancy",
        c.dram_channels, c.dram_latency, c.dram_service
    );
    println!(
        "GMMU                   {} walkers, {}-entry PWC (scaled {}), {}-entry walk queue",
        c.page_walkers,
        c.pwc_entries,
        c.effective_pwc_entries(),
        c.walk_queue
    );
    println!("TB & data arrangement  FT-based (contiguous TB scheduling, first-touch placement)");
    println!();
}
