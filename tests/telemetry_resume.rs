//! Sweep telemetry end-to-end: journaled sweeps produce CSVs
//! byte-identical to the plain in-memory path, and `--resume` after a
//! simulated crash (the journal records of a subset of cells lost)
//! reassembles the exact same bytes while re-running only the lost cells.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use clap_repro::bench::experiments::{grid, EngineKind, Harness};
use clap_repro::bench::report::csv_string;
use clap_repro::bench::telemetry::{read_journal_dir, CellOutcome, CellRecord, Telemetry};

const FIG1_GOLDEN: &str = include_str!("goldens/fig1_quick.csv");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clap-repro-test-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Simulates a crash partway through: rewrites `journal` without the
/// records of every third cell (the first included). Returns how many
/// records it dropped.
fn drop_every_third_cell(journal: &Path) -> usize {
    let body = fs::read_to_string(journal).expect("journal");
    let kept: String = body
        .lines()
        .filter(|l| {
            !CellRecord::parse_line(l)
                .expect("record")
                .cell
                .is_multiple_of(3)
        })
        .map(|l| format!("{l}\n"))
        .collect();
    fs::write(journal, &kept).expect("rewrite journal");
    body.lines().count() - kept.lines().count()
}

#[test]
fn resume_after_crash_is_byte_identical_to_fresh_serial_run() {
    let dir = temp_dir("telemetry-resume");

    // A telemetered parallel sweep must emit the golden bytes while
    // journaling every cell worker-side.
    let tele = Arc::new(Telemetry::new(&dir));
    let h = Harness::quick()
        .with_jobs(4)
        .with_telemetry(Arc::clone(&tele));
    assert_eq!(
        csv_string(&grid(&h, "fig1")),
        FIG1_GOLDEN,
        "telemetry must not perturb results"
    );
    let counters = tele.experiment_counters();
    assert_eq!(counters.len(), 1);
    assert_eq!(counters[0].id, "fig1");
    assert_eq!(counters[0].cells, 24, "8 workloads x 3 page sizes");
    assert_eq!(counters[0].resumed, 0);

    let deleted = drop_every_third_cell(&dir.join("journal/fig1.jsonl"));
    assert_eq!(deleted, 8);

    // Resume at a different worker count: only the missing cells re-run,
    // and the assembled CSV is still byte-identical.
    let tele = Arc::new(Telemetry::new(&dir).with_resume(true));
    let h = Harness::quick()
        .with_jobs(2)
        .with_telemetry(Arc::clone(&tele));
    assert_eq!(
        csv_string(&grid(&h, "fig1")),
        FIG1_GOLDEN,
        "resumed sweep must reassemble the exact same bytes"
    );
    let counters = tele.experiment_counters();
    assert_eq!(counters[0].cells, 24);
    assert_eq!(
        counters[0].resumed,
        24 - deleted,
        "every surviving record must be restored, every dropped one re-run"
    );

    // The journal holds both passes: the 16 surviving records, then
    // (restored + re-run).
    let read = read_journal_dir(&dir.join("journal"));
    assert!(
        read.errors.is_empty(),
        "malformed journal lines: {:?}",
        read.errors
    );
    assert!(
        read.salvaged.is_empty(),
        "unexpected torn tails: {:?}",
        read.salvaged
    );
    let records = read.records;
    assert_eq!(records.len(), 24 - deleted + 24);
    let resumed = records
        .iter()
        .filter(|r| r.outcome == CellOutcome::Resumed)
        .count();
    assert_eq!(resumed, 24 - deleted);

    // Every journal line survives a serialize/parse round-trip exactly.
    for r in &records {
        let line = r.to_json_line();
        assert_eq!(&CellRecord::parse_line(&line).expect("parse"), r);
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn topo_resume_under_analytic_engine_is_byte_identical() {
    let dir = temp_dir("telemetry-resume-topo");

    // Reference: serial in-memory topology sweep under the analytic
    // engine — this also routes the fast-path engine through the full
    // journal pipeline below.
    let quick = || Harness::quick().with_engine(EngineKind::Analytic);
    let fresh = csv_string(&grid(&quick(), "topo"));

    let tele = Arc::new(Telemetry::new(&dir));
    let h = quick().with_jobs(4).with_telemetry(Arc::clone(&tele));
    assert_eq!(
        csv_string(&grid(&h, "topo")),
        fresh,
        "telemetry must not perturb analytic results"
    );
    let counters = tele.experiment_counters();
    assert_eq!(counters.len(), 1);
    assert_eq!(counters[0].id, "topo");
    assert_eq!(counters[0].cells, 18, "2 mappings x 3 fabrics x 3 sizes");
    assert_eq!(counters[0].resumed, 0);

    // Crash simulation: drop the records of every third cell, then
    // resume at a different worker count.
    let deleted = drop_every_third_cell(&dir.join("journal/topo.jsonl"));
    assert_eq!(deleted, 6);

    let tele = Arc::new(Telemetry::new(&dir).with_resume(true));
    let h = quick().with_jobs(2).with_telemetry(Arc::clone(&tele));
    assert_eq!(
        csv_string(&grid(&h, "topo")),
        fresh,
        "resumed topology sweep must reassemble the exact same bytes"
    );
    let counters = tele.experiment_counters();
    assert_eq!(counters[0].cells, 18);
    assert_eq!(counters[0].resumed, 18 - deleted);

    // Both passes journal every cell, tagged with the analytic engine.
    let read = read_journal_dir(&dir.join("journal"));
    assert!(read.errors.is_empty(), "malformed: {:?}", read.errors);
    assert!(read.salvaged.is_empty(), "torn tails: {:?}", read.salvaged);
    assert_eq!(read.records.len(), 18 - deleted + 18);
    for r in &read.records {
        assert_eq!(r.engine, "analytic", "journal must tag the engine");
    }
    let resumed = read
        .records
        .iter()
        .filter(|r| r.outcome == CellOutcome::Resumed)
        .count();
    assert_eq!(resumed, 18 - deleted);

    let _ = fs::remove_dir_all(&dir);
}
