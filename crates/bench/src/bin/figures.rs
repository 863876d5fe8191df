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
//! `probe` runs one workload under every main config and prints its
//! cycle-engine statistics (cycles, translation and walk latency, cache
//! hit rates, MSHR merges, promotions) whatever `--engine` says.
//! `probe --chaos` re-runs the workload under every main config with a
//! fault-injecting `ChaosPolicy` wrapper and epoch auditing, and reports
//! the degradation counters instead of the performance columns.
//!
//! `--quick` runs at reduced threadblock counts (smoke scale); by default
//! results are printed and CSVs written to `results/`, along with
//! per-experiment wall-clock timings in `results/bench_timings.json`.
//!
//! `--jobs N` (default: available parallelism) fans each experiment's
//! independent sweep cells out over N worker threads; under the analytic
//! engine, each workload's capture and fold also split over N threads.
//! Output is byte-identical for every worker count.
//!
//! `--engine cycle|analytic` picks the prediction backend: `cycle`
//! (default) is the cycle-approximate simulator, `analytic` replaces each
//! cell with the closed-form fast path where a model exists
//! (migration-dominated configs always fall back to the simulator). The
//! analytic model predicts counts, not cycles, so its sweep CSVs and
//! tables carry remote-ratio columns only. The engine is tagged in every
//! telemetry record.
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
//! cell, carrying its full statistics and configuration fingerprint,
//! under `<out>/journal/<exp>.jsonl`, written worker-side at cell
//! completion. `--resume` restores cells whose latest healthy record
//! validates (schema version + configuration fingerprint) instead of
//! re-running them, and first moves malformed journal lines into
//! `<out>/journal/<exp>.rejected`, so their cells re-run;
//! `status` summarizes a journal; `--progress` controls the live stderr
//! reporter (`auto` = on when stderr is a terminal — so tests and piped
//! runs stay silent).
//!
//! Sweeps run supervised: a cell that panics or aborts (run budget,
//! livelock, or any typed engine error) is quarantined — journaled with
//! its failure reason, its grid slot zeroed — while every other cell
//! completes and keeps its record. A failed cell is not re-run: the
//! simulator is deterministic, so it would fail the same way. The run
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
    render_grid, render_status, render_table4, render_timeline, render_trace, timeline_csv,
    timeline_json, trace_folded, trace_json, write_csv, write_probed, write_timings,
    ExperimentTiming,
};
use mcm_bench::supervise::{Injection, Supervisor, SweepMode};
use mcm_bench::telemetry::{self, CellOutcome, Telemetry};
use mcm_sim::{DegradationStats, MetricsProbe, RunMetrics, RunTrace};

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
    /// Restore cells from their journal records instead of re-running them.
    resume: bool,
    /// Live progress reporter setting.
    progress: ProgressMode,
    /// `status --check`: validate every journal line and cell coverage.
    check: bool,
    /// Sweep failure policy (quarantine by default, `--fail-fast`).
    mode: SweepMode,
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
         [--fail-fast] \
         [--engine cycle|analytic] \
         [--inject exp:cell=panic|budget] [TARGET ...]\n\
         targets: all fig1 fig2 fig6 fig8 fig10 fig18 fig19 fig20 fig21 fig22 \
         table1 table2 table4 ablation topo | probe <WORKLOAD> | trace [FIG] | \
         timeline [FIG] | status [--check]"
    );
    std::process::exit(2);
}

/// Parses the command line (without the program name). `Err` carries
/// the message to print before the usage line; `--help` carries none.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        quick: false,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out_dir: PathBuf::from("results"),
        chaos_seed: None,
        resume: false,
        progress: ProgressMode::Auto,
        check: false,
        mode: SweepMode::KeepGoing,
        inject: Vec::new(),
        engine: EngineKind::Cycle,
        targets: Vec::new(),
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if !a.starts_with("--") {
            if a == "-h" {
                return Err(String::new());
            }
            opts.targets.push(a);
            continue;
        }
        let (flag, inline) = match a.split_once('=') {
            Some((flag, v)) => (flag, Some(v.to_string())),
            None => (a.as_str(), None),
        };
        match (flag, inline.as_deref()) {
            ("--quick", None) => opts.quick = true,
            ("--resume", None) => opts.resume = true,
            ("--check", None) => opts.check = true,
            ("--fail-fast", None) => opts.mode = SweepMode::FailFast,
            ("--help", None) => return Err(String::new()),
            ("--progress", None) => opts.progress = ProgressMode::On,
            ("--progress", Some(v)) => {
                opts.progress = match v {
                    "on" => ProgressMode::On,
                    "off" => ProgressMode::Off,
                    "auto" => ProgressMode::Auto,
                    _ => return Err(format!("--progress wants on|off|auto, got {v:?}")),
                }
            }
            ("--chaos", None) => opts.chaos_seed = Some(1),
            ("--chaos", Some(v)) => match v.parse::<u64>() {
                Ok(seed) => opts.chaos_seed = Some(seed),
                Err(_) => return Err(format!("--chaos seed must be an integer, got {v:?}")),
            },
            ("--jobs" | "--engine" | "--inject" | "--out", _) => {
                // `--flag=value` names the bad value in its error;
                // `--flag value` does not.
                let bad = |msg: &str| match &inline {
                    Some(v) => format!("{msg}, got {v:?}"),
                    None => msg.to_string(),
                };
                let v = inline.clone().or_else(|| args.next());
                match flag {
                    "--jobs" => match v.map(|v| v.parse::<usize>()) {
                        Some(Ok(n)) if n >= 1 => opts.jobs = n,
                        _ => return Err(bad("--jobs needs a positive integer")),
                    },
                    "--engine" => match v.as_deref().and_then(EngineKind::parse) {
                        Some(e) => opts.engine = e,
                        None => return Err(bad("--engine wants cycle|analytic")),
                    },
                    "--inject" => match v.map(|v| Injection::parse(&v)) {
                        Some(i) => opts.inject.push(i?),
                        None => return Err("--inject needs exp:cell=panic|budget".into()),
                    },
                    _ => match v {
                        Some(d) => opts.out_dir = PathBuf::from(d),
                        None => return Err("--out needs a directory".into()),
                    },
                }
            }
            _ => return Err(format!("unknown flag {a:?}")),
        }
    }
    if opts.targets.is_empty() {
        opts.targets.push("all".into());
    }
    Ok(opts)
}

fn main() {
    let opts = parse_args(env::args().skip(1)).unwrap_or_else(|msg| {
        if !msg.is_empty() {
            eprintln!("{msg}");
        }
        usage()
    });
    let supervisor = Arc::new(Supervisor::new(opts.mode).with_injections(opts.inject.clone()));
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

    // Subcommands taking one optional argument, with its default.
    for (sub, default) in [("trace", "fig1"), ("timeline", "fig18"), ("probe", "STE")] {
        if let Some(pos) = opts.targets.iter().position(|t| t == sub) {
            let arg = opts.targets.get(pos + 1).map_or(default, String::as_str);
            match (sub, opts.chaos_seed) {
                ("probe", Some(seed)) => probe_chaos(&h, arg, seed),
                ("probe", None) => probe(&h, arg),
                _ => probed_sweep(&h, sub, arg, &opts.out_dir),
            }
            return;
        }
    }

    // Experiment sweeps run with telemetry attached: per-cell journal
    // appends (and restores from the journal when resuming), plus the
    // optional live progress reporter. Telemetry observes only — CSVs
    // stay byte-identical to the untelemetered path.
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
    for t in &experiments::TARGETS {
        if want(t.id) {
            timed(&mut timings, t.id, &|| emit(&experiments::grid(&h, t.id)));
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
    // healthy cell kept its record, so a later `--resume` re-runs exactly
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
             healthy cells kept their records — fix the cause and re-run with --resume",
            quarantined.len()
        );
        for q in &quarantined {
            eprintln!(
                "  {} cell {} ({}/{}) — {}: {}",
                q.exp, q.cell, q.workload, q.config, q.outcome, q.reason
            );
        }
        std::process::exit(1);
    }
}

/// `figures status [--check]`: summarize the run journal under the output
/// directory — per-experiment completion, slowest cells, degraded and
/// quarantined cells. Torn journal tails (a crash mid-append) are
/// salvaged: the valid prefix is summarized and the tail reported as a
/// warning, as are lines from another schema version and the
/// `<exp>.rejected` files a resume moved malformed lines into. With `--check`,
/// additionally require every interior journal line to parse and full
/// cell coverage (every declared cell has a journal record), exiting
/// non-zero on malformed, incomplete, or absent telemetry.
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
    for r in &journal.rejected {
        eprintln!("warning: a resume moved malformed journal lines aside: {r}");
    }
    for e in &journal.errors {
        eprintln!("malformed journal line: {e}");
    }
    if !check {
        return;
    }
    let missing: usize = summaries.iter().map(|s| s.missing.len()).sum();
    println!(
        "checked {} journal record(s): {} journal error(s), {} missing cell(s)",
        journal.records.len(),
        journal.errors.len(),
        missing
    );
    if journal.records.is_empty() {
        eprintln!(
            "status --check: no telemetry found under {}",
            out_dir.display()
        );
        std::process::exit(1);
    }
    if !journal.errors.is_empty() || missing > 0 {
        std::process::exit(1);
    }
}

/// Probed sweep, `sub` being `trace` or `timeline`: re-runs `fig` under
/// the stage-tracing or the metrics probe, prints the per-configuration
/// summary, and writes `<sub>/<fig>.json` plus `trace/<fig>.folded` or
/// `timeline/<fig>.csv` under the output directory. A timeline also
/// journals one record per cell (outcome and warmup-knee estimate) under
/// the `<fig>-timeline` experiment.
fn probed_sweep(h: &Harness, sub: &str, fig: &str, out_dir: &Path) {
    let probed = experiments::TARGETS.iter().filter(|t| t.probed);
    if !probed.clone().any(|t| t.id == fig) {
        let have: Vec<&str> = probed.map(|t| t.id).collect();
        eprintln!("unknown probed figure {fig:?}; have {have:?}");
        std::process::exit(2);
    }
    let t0 = Instant::now();
    let docs = if sub == "trace" {
        let ft = experiments::rerun(h, fig, |t: RunTrace| t, RunTrace::merge_aggregates);
        println!("{}", render_trace(&ft));
        [("json", trace_json(&ft)), ("folded", trace_folded(&ft))]
    } else {
        let finish = MetricsProbe::into_metrics;
        let mr = experiments::rerun(h, fig, finish, RunMetrics::merge_aggregates);
        println!("{}", render_timeline(&mr));
        let exp = format!("{fig}-timeline");
        let records = mr.journal_records(&exp);
        if let Err(e) = telemetry::append_journal_records(out_dir, &exp, &records) {
            eprintln!("warning: failed to journal {exp}: {e}");
        }
        [("json", timeline_json(&mr)), ("csv", timeline_csv(&mr))]
    };
    let path = |ext: &str| out_dir.join(sub).join(format!("{fig}.{ext}"));
    match write_probed(out_dir, sub, fig, &docs) {
        Ok(()) => eprintln!(
            "[figures] wrote {} and {} in {:.1?}",
            path(docs[0].0).display(),
            path(docs[1].0).display(),
            t0.elapsed()
        ),
        Err(e) => {
            eprintln!("failed to write {sub} output: {e}");
            std::process::exit(1);
        }
    }
}

/// Deep-dive: full statistics for one workload under every main config,
/// on the cycle engine (the analytic model fills none of these columns
/// but `remote`).
fn probe(h: &Harness, wname: &str) {
    use mcm_bench::configs::ConfigKind;
    let w = mcm_workloads::suite::by_name(wname).unwrap_or_else(|| {
        eprintln!("unknown workload {wname}");
        std::process::exit(2);
    });
    let h = h.clone().with_engine(EngineKind::Cycle);
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
/// the run's degradation counters (one column each, named by field)
/// instead of performance columns.
fn probe_chaos(h: &Harness, wname: &str, seed: u64) {
    use mcm_bench::configs::ConfigKind;
    use mcm_sim::{run_outcome, ChaosConfig, ChaosPolicy, RunOutcome};
    let w = mcm_workloads::suite::by_name(wname).unwrap_or_else(|| {
        eprintln!("unknown workload {wname}");
        std::process::exit(2);
    });
    println!("== chaos probe: {wname}, seed {seed}");
    let header = DegradationStats::default()
        .counters()
        .map(|(name, _, _)| name.to_string());
    chaos_row("config", "injected", &header, "cycles", "outcome");
    let w = h.prep(&w);
    for kind in ConfigKind::main_eval() {
        let (policy, mut cfg) = kind.build(h.base_config());
        cfg.audit_epochs = true;
        let mut chaos = ChaosPolicy::new(policy, ChaosConfig::with_seed(seed));
        let out = run_outcome(&cfg, &w, &mut chaos, None);
        let (stats, tail) = match &out {
            Ok(RunOutcome::Completed(s)) => (Some(s), CellOutcome::of(s).to_string()),
            Ok(RunOutcome::Aborted { reason, stats }) => {
                (Some(stats), format!("aborted: {reason}"))
            }
            Err(e) => (None, format!("failed: {e}")),
        };
        let (counts, cycles) = match stats {
            Some(s) => (
                s.degradation.counters().map(|(_, _, n)| n.to_string()),
                s.cycles.to_string(),
            ),
            None => (["-"; DegradationStats::COUNT].map(String::from), "-".into()),
        };
        chaos_row(
            &kind.name(),
            &chaos.stats().total().to_string(),
            &counts,
            &cycles,
            &tail,
        );
    }
}

/// One row of the chaos probe's table: config, injections, one column per
/// degradation counter (as wide as its name), cycles and the outcome.
fn chaos_row(config: &str, injected: &str, counts: &[String], cycles: &str, outcome: &str) {
    let mut row = format!("{config:<18} {injected:>9}");
    for ((name, _, _), n) in DegradationStats::default().counters().iter().zip(counts) {
        row += &format!(" {n:>w$}", w = name.len());
    }
    println!("{row} {cycles:>9}  {outcome}");
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn valued_flags_take_both_spellings() {
        let spaced = [
            "--jobs",
            "3",
            "--engine",
            "analytic",
            "--inject",
            "fig1:2=panic",
            "--out",
            "d",
            "fig1",
        ];
        let joined = [
            "--jobs=3",
            "--engine=analytic",
            "--inject=fig1:2=panic",
            "--out=d",
            "fig1",
        ];
        for args in [&spaced[..], &joined[..]] {
            let o = parse(args).expect("flags parse");
            assert_eq!(o.jobs, 3, "{args:?}");
            assert!(o.engine == EngineKind::Analytic, "{args:?}");
            assert_eq!(o.inject.len(), 1, "{args:?}");
            assert_eq!(o.out_dir, PathBuf::from("d"), "{args:?}");
            assert_eq!(o.targets, ["fig1"], "{args:?}");
        }
    }

    #[test]
    fn optional_values_never_take_the_next_argument() {
        let o = parse(&["--chaos", "--progress", "probe", "STE"]).expect("parses");
        assert_eq!(o.chaos_seed, Some(1));
        assert!(o.progress == ProgressMode::On);
        assert_eq!(o.targets, ["probe", "STE"]);
        let o = parse(&["--chaos=7", "--progress=off"]).expect("parses");
        assert_eq!(o.chaos_seed, Some(7));
        assert!(o.progress == ProgressMode::Off);
        assert_eq!(o.targets, ["all"]);
    }

    #[test]
    fn bad_values_keep_their_messages() {
        let err = |args: &[&str]| parse(args).err().expect("must be rejected");
        assert_eq!(err(&["--jobs", "0"]), "--jobs needs a positive integer");
        assert_eq!(err(&["--jobs"]), "--jobs needs a positive integer");
        assert_eq!(
            err(&["--jobs=0"]),
            "--jobs needs a positive integer, got \"0\""
        );
        assert_eq!(err(&["--engine", "gpu"]), "--engine wants cycle|analytic");
        assert_eq!(
            err(&["--engine=gpu"]),
            "--engine wants cycle|analytic, got \"gpu\""
        );
        assert_eq!(err(&["--inject"]), "--inject needs exp:cell=panic|budget");
        assert!(err(&["--inject=nonsense"]).starts_with("bad injection"));
        assert!(err(&["--inject", "nonsense"]).starts_with("bad injection"));
        assert_eq!(err(&["--out"]), "--out needs a directory");
        assert_eq!(
            err(&["--progress=loud"]),
            "--progress wants on|off|auto, got \"loud\""
        );
        assert_eq!(
            err(&["--chaos=x"]),
            "--chaos seed must be an integer, got \"x\""
        );
        assert_eq!(err(&["--quick=1"]), "unknown flag \"--quick=1\"");
        assert_eq!(err(&["--nope"]), "unknown flag \"--nope\"");
        // Failed cells are never re-run, and keeping going is the only
        // non-fail-fast mode: neither takes a flag.
        assert_eq!(err(&["--retries", "1"]), "unknown flag \"--retries\"");
        assert_eq!(err(&["--keep-going"]), "unknown flag \"--keep-going\"");
        assert_eq!(err(&["--help"]), "");
        assert_eq!(err(&["-h"]), "");
    }
}
