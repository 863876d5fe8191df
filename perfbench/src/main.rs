//! Speed benchmark of the simulator's figure sweeps.
//!
//! Each workload is a fixed list of sweep cells run as one repetition
//! through `Harness::sweep_stats`, exactly as `figures` runs them. `run`
//! repeats the sweep for `--seconds` and reports end-to-end metrics;
//! `trace` sweeps once, serially, with each layer's public trait wrapped
//! in a timer; `compare` judges two sets of run records. Every mode fails
//! on a wrong output. See README.md.

mod check;
mod host;
mod modes;
mod probe;
mod stats;
mod sweep;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{SystemTime, UNIX_EPOCH};

use mcm_bench::telemetry::Json;

use modes::{jnum, jstr, Report, Scratch};
use stats::{judge, median, spread, Verdict, END_TO_END};
use sweep::{Bench, DEFAULT_SEED, JOBS};

const USAGE: &str = "\
usage:
  perfbench [run|trace] [--workload NAME] [--seed N] [--seconds S] [--out-dir DIR]
  perfbench --workload NAME --seed N --seconds S --trace 0|1
  perfbench compare PARENT_DIR CHANGE_DIR

workloads: fig18-cycle migration-cycle topo-cycle analytic-sweep (default: all,
each in its own child process, one after another)";

/// Seconds a run measures when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    trace: bool,
    workload: Option<Bench>,
    seed: u64,
    seconds: f64,
    out_dir: Option<PathBuf>,
    record: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad seed {s:?}"))
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        trace: false,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        out_dir: None,
        record: None,
        compare: None,
    };
    let mut first = true;
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "run" if first => {}
            "trace" if first => a.trace = true,
            "compare" if first => {
                let (p, c) = (value()?, value()?);
                a.compare = Some((p.into(), c.into()));
            }
            "--workload" => {
                let v = value()?;
                a.workload = Some(Bench::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = parse_seed(&value()?)?,
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out-dir" => a.out_dir = Some(value()?.into()),
            "--record" => a.record = Some(value()?.into()),
            _ => return Err(format!("unexpected argument {arg:?}")),
        }
        first = false;
    }
    Ok(a)
}

/// The repository checkout this benchmark was built in.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn unix_ms() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis())
}

/// Prints `workload metric value unit` lines, writes the run record, and
/// prints the one-line result last.
fn emit(
    root: &Path,
    a: &Args,
    bench: Bench,
    out_dir: &Path,
    report: &Report,
) -> Result<(), String> {
    let mode = if a.trace { "trace" } else { "run" };
    let mut metrics = Vec::new();
    for (m, v) in &report.metrics {
        println!("{} {} {} {}", bench.name(), m.name, v, m.unit);
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            jstr(m.name),
            jnum(*v),
            jstr(m.unit)
        ));
    }
    let metrics = format!("{{{}}}", metrics.join(","));
    let finished = unix_ms();
    let mut fields = vec![
        ("mode".to_string(), jstr(mode)),
        ("workload".into(), jstr(bench.name())),
        ("seed".into(), a.seed.to_string()),
        ("seconds".into(), jnum(a.seconds)),
        ("finished_unix_ms".into(), finished.to_string()),
        (
            "git_sha".into(),
            host::git_sha(root).map_or("null".into(), |s| jstr(&s)),
        ),
        ("nproc".into(), host::nproc().to_string()),
        ("jobs".into(), if a.trace { 1 } else { JOBS }.to_string()),
        ("correct".into(), report.correct.to_string()),
        ("attempted".into(), report.attempted.to_string()),
        ("failed".into(), report.failed.to_string()),
    ];
    fields.extend(report.record.iter().cloned());
    fields.push(("metrics".into(), metrics.clone()));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", jstr(k)))
        .collect();
    let path = a.record.clone().unwrap_or_else(|| {
        out_dir.join(format!(
            "{mode}-{}-seed{}-{finished}.json",
            bench.name(),
            a.seed
        ))
    });
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    fs::write(&path, format!("{{{}}}\n", body.join(",")))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("perfbench: record written to {}", path.display());
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        report.correct, report.attempted, report.failed
    );
    Ok(())
}

fn run_one(root: &Path, a: &Args, bench: Bench) -> Result<bool, String> {
    let out_dir = a.out_dir.clone().unwrap_or_else(|| root.join(".bench_out"));
    let scratch = Scratch(out_dir.join(format!("scratch-{}", std::process::id())));
    let report = if a.trace {
        modes::trace(root, bench, a.seed, &out_dir, &scratch.0)?
    } else {
        modes::run(root, bench, a.seed, a.seconds, &scratch.0)?
    };
    drop(scratch);
    emit(root, a, bench, &out_dir, &report)?;
    Ok(report.correct)
}

/// Runs every workload, each in its own child process, one after another.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut ok = true;
    for bench in Bench::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", bench.name(), "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }]);
        if let Some(d) = &a.out_dir {
            cmd.arg("--out-dir").arg(d);
        }
        let status = cmd
            .status()
            .map_err(|e| format!("cannot start {}: {e}", bench.name()))?;
        if !status.success() {
            eprintln!("perfbench: {} failed ({status})", bench.name());
            ok = false;
        }
    }
    Ok(ok)
}

/// `(workload, finish time, record)` of every run record in `dir`.
fn load_runs(dir: &Path) -> Result<Vec<(String, u64, Json)>, String> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for e in entries.flatten() {
        let path = e.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("run-") && name.ends_with(".json")) {
            continue;
        }
        let body = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rec = Json::parse(body.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let finished = rec
            .get("finished_unix_ms")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        out.push((workload, finished, rec));
    }
    out.sort_by_key(|(w, t, _)| (w.clone(), *t));
    Ok(out)
}

fn metric_values(runs: &[(String, u64, Json)], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|(w, _, _)| w == workload)
        .filter_map(|(_, _, r)| modes::record_metric(r, metric))
        .collect()
}

/// Judges every (end-to-end metric, workload) pair of two record sets;
/// `Ok(false)` when any regressed.
fn compare(parent: &Path, change: &Path) -> Result<bool, String> {
    let (p, c) = (load_runs(parent)?, load_runs(change)?);
    println!(
        "{:<16} {:<12} {:>12} {:>8} {:>12} {:>8} {:>8} {:>5}  verdict",
        "workload", "metric", "parent_med", "p_iqr%", "change_med", "c_iqr%", "worse%", "pairs"
    );
    let mut ok = true;
    for bench in Bench::ALL {
        for m in &END_TO_END {
            let pv = metric_values(&p, bench.name(), m.name);
            let cv = metric_values(&c, bench.name(), m.name);
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let verdict = judge(m, &pv, &cv);
            ok &= verdict != Verdict::Regression;
            let (pm, cm) = (median(&pv), median(&cv));
            println!(
                "{:<16} {:<12} {:>12.6} {:>8.2} {:>12.6} {:>8.2} {:>8.2} {:>5}  {}",
                bench.name(),
                m.name,
                pm,
                spread(&pv) * 100.0,
                cm,
                spread(&cv) * 100.0,
                stats::worsening(m, pm, cm) * 100.0,
                pv.len().min(cv.len()),
                verdict.as_str()
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = repo_root();
    let result = match (&a.compare, a.workload) {
        (Some((p, c)), _) => compare(p, c),
        (None, Some(bench)) => run_one(&root, &a, bench),
        (None, None) => run_all(&a),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::PER_LAYER;

    fn strs(j: &Json, key: &str) -> Vec<String> {
        j.get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_code() {
        let j = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names =
            |ms: &[stats::Metric]| ms.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
        assert_eq!(strs(&j, "end_to_end"), names(&END_TO_END));
        assert_eq!(strs(&j, "per_layer"), names(&PER_LAYER));
        let workloads: Vec<String> = Bench::ALL.iter().map(|b| b.name().to_string()).collect();
        assert_eq!(strs(&j, "workloads"), workloads);
        for (kind, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = j.get(kind).and_then(Json::as_arr).unwrap();
            for (e, m) in entries.iter().zip(table) {
                assert_eq!(
                    e.get("unit").and_then(Json::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    e.get("better").and_then(Json::as_str),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                let bound = e.get("bound").and_then(modes::as_f64);
                assert_eq!(bound, m.bound, "{}", m.name);
            }
        }
    }

    #[test]
    fn args_accept_the_single_workload_form_and_subcommands() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload topo-cycle --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Bench::TopoCycle), 7, 3.0, true)
        );
        let a = parse("trace --seed 0xC1A9").unwrap();
        assert!(a.trace && a.workload.is_none() && a.seed == DEFAULT_SEED);
        assert!(parse("compare a b").unwrap().compare.is_some());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds").is_err());
    }
}
