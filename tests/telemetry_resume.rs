//! Sweep telemetry end-to-end: journaled/sharded sweeps produce CSVs
//! byte-identical to the plain in-memory path, and `--resume` after a
//! simulated crash (a subset of shards deleted) reassembles the exact
//! same bytes while re-running only the missing cells.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use clap_repro::bench::experiments::{grid, EngineKind, Harness};
use clap_repro::bench::report::csv_string;
use clap_repro::bench::telemetry::{read_journal_dir, CellOutcome, CellRecord, Telemetry};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clap-repro-test-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn resume_after_crash_is_byte_identical_to_fresh_serial_run() {
    let dir = temp_dir("telemetry-resume");

    // The reference: today's purely in-memory serial path.
    let fresh = csv_string(&grid(&Harness::quick(), "fig1"));

    // A telemetered parallel sweep must emit the same bytes while
    // journaling and sharding every cell worker-side.
    let tele = Arc::new(Telemetry::new(&dir));
    let h = Harness::quick()
        .with_jobs(4)
        .with_telemetry(Arc::clone(&tele));
    assert_eq!(
        csv_string(&grid(&h, "fig1")),
        fresh,
        "telemetry must not perturb results"
    );
    let counters = tele.experiment_counters();
    assert_eq!(counters.len(), 1);
    assert_eq!(counters[0].id, "fig1");
    assert_eq!(counters[0].cells, 24, "8 workloads x 3 page sizes");
    assert_eq!(counters[0].resumed, 0);

    // Simulate a crash partway through: delete a subset of the shards
    // (including the first and last cell).
    let shard_dir = dir.join("shards/fig1");
    let mut shards: Vec<PathBuf> = fs::read_dir(&shard_dir)
        .expect("shard dir")
        .map(|e| e.expect("entry").path())
        .collect();
    shards.sort();
    assert_eq!(shards.len(), 24);
    let mut deleted = 0;
    for (i, p) in shards.iter().enumerate() {
        if i % 3 == 0 {
            fs::remove_file(p).expect("delete shard");
            deleted += 1;
        }
    }

    // Resume at a different worker count: only the missing cells re-run,
    // and the assembled CSV is still byte-identical.
    let tele = Arc::new(Telemetry::new(&dir).with_resume(true));
    let h = Harness::quick()
        .with_jobs(2)
        .with_telemetry(Arc::clone(&tele));
    assert_eq!(
        csv_string(&grid(&h, "fig1")),
        fresh,
        "resumed sweep must reassemble the exact same bytes"
    );
    let counters = tele.experiment_counters();
    assert_eq!(counters[0].cells, 24);
    assert_eq!(
        counters[0].resumed,
        24 - deleted,
        "every surviving shard must be restored, every deleted one re-run"
    );

    // The journal records both passes: 24 fresh + (restored + re-run).
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
    assert_eq!(records.len(), 48);
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
    // journal/shard pipeline below.
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

    // Crash simulation: drop every third shard, then resume at a
    // different worker count.
    let shard_dir = dir.join("shards/topo");
    let mut shards: Vec<PathBuf> = fs::read_dir(&shard_dir)
        .expect("shard dir")
        .map(|e| e.expect("entry").path())
        .collect();
    shards.sort();
    assert_eq!(shards.len(), 18);
    let mut deleted = 0;
    for (i, p) in shards.iter().enumerate() {
        if i % 3 == 0 {
            fs::remove_file(p).expect("delete shard");
            deleted += 1;
        }
    }

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
    assert_eq!(read.records.len(), 36);
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
