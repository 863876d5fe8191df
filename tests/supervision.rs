//! Sweep supervision end-to-end: a sweep with one panicking and one
//! budget-exceeding cell must finish every other cell, journal the
//! quarantined ones (without shards), keep the healthy shards, and —
//! once the injections are removed — `--resume` into a CSV that is
//! byte-identical to a clean run.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use clap_repro::bench::experiments::{grid, Harness};
use clap_repro::bench::report::csv_string;
use clap_repro::bench::supervise::{Injection, Supervisor, SweepMode};
use clap_repro::bench::telemetry::{read_journal_dir, CellOutcome, Telemetry};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clap-repro-test-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn injections() -> Vec<Injection> {
    vec![
        Injection::parse("fig1:2=panic").expect("parse"),
        Injection::parse("fig1:5=budget").expect("parse"),
    ]
}

#[test]
fn keep_going_quarantines_bad_cells_and_resume_restores_the_golden_csv() {
    let dir = temp_dir("supervision-keepgoing");
    let fresh = csv_string(&grid(&Harness::quick(), "fig1"));

    // Pass 1: two poisoned cells. The sweep must finish without any
    // panic escaping and quarantine exactly those two cells.
    let sup = Arc::new(Supervisor::new(SweepMode::KeepGoing).with_injections(injections()));
    let tele = Arc::new(Telemetry::new(&dir));
    let h = Harness::quick()
        .with_jobs(4)
        .with_telemetry(Arc::clone(&tele))
        .with_supervisor(Arc::clone(&sup));
    let fig1 = grid(&h, "fig1");
    assert_eq!(fig1.rows.len(), 8, "all workloads must still report");

    let quarantined = sup.quarantined();
    assert_eq!(quarantined.len(), 2, "exactly the two injected cells");
    let mut cells: Vec<(usize, CellOutcome)> =
        quarantined.iter().map(|q| (q.cell, q.outcome)).collect();
    cells.sort_by_key(|(cell, _)| *cell);
    assert_eq!(
        cells,
        vec![(2, CellOutcome::Panicked), (5, CellOutcome::Aborted)]
    );
    for q in &quarantined {
        assert_eq!(q.exp, "fig1");
        assert!(!q.reason.is_empty(), "quarantine must record a reason");
    }

    // Healthy cells kept their shards; quarantined cells must NOT have
    // one, so a resume naturally re-runs them.
    let shard_dir = dir.join("shards/fig1");
    let shards = fs::read_dir(&shard_dir).expect("shard dir").count();
    assert_eq!(shards, 22, "24 cells minus 2 quarantined");
    assert!(!shard_dir.join("00002.json").exists());
    assert!(!shard_dir.join("00005.json").exists());

    // The journal records the failures with their reasons.
    let read = read_journal_dir(&dir.join("journal"));
    assert!(read.errors.is_empty(), "journal errors: {:?}", read.errors);
    let panicked: Vec<_> = read
        .records
        .iter()
        .filter(|r| r.outcome == CellOutcome::Panicked)
        .collect();
    let aborted: Vec<_> = read
        .records
        .iter()
        .filter(|r| r.outcome == CellOutcome::Aborted)
        .collect();
    assert!(!panicked.is_empty() && panicked.iter().all(|r| r.cell == 2));
    assert!(!aborted.is_empty() && aborted.iter().all(|r| r.cell == 5));
    assert!(panicked[0].reason.contains("injected panic"));
    assert!(aborted[0].reason.contains("budget"));

    // Pass 2: injections removed, resume. Only the two quarantined
    // cells re-run; the assembled CSV is byte-identical to a clean run.
    let tele = Arc::new(Telemetry::new(&dir).with_resume(true));
    let h = Harness::quick()
        .with_jobs(2)
        .with_telemetry(Arc::clone(&tele));
    assert_eq!(
        csv_string(&grid(&h, "fig1")),
        fresh,
        "resume after fixing the bad cells must reproduce the clean CSV"
    );
    let counters = tele.experiment_counters();
    assert_eq!(counters[0].cells, 24);
    assert_eq!(counters[0].resumed, 22, "healthy shards restored, 2 re-run");

    let _ = fs::remove_dir_all(&dir);
}
