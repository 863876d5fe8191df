//! Crash-consistency: a sweep interrupted mid-write leaves a torn
//! journal tail and possibly a corrupt shard. Recovery must salvage the
//! valid journal prefix, repair the tail on the next sweep, skip the
//! corrupt shard (re-running only that cell), and still assemble a CSV
//! byte-identical to the checked-in golden.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use clap_repro::bench::experiments::{grid, Harness};
use clap_repro::bench::report::csv_string;
use clap_repro::bench::telemetry::{read_journal_dir, Telemetry};

const FIG1_GOLDEN: &str = include_str!("goldens/fig1_quick.csv");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clap-repro-test-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn torn_journal_and_corrupt_shard_recover_to_the_golden_csv() {
    let dir = temp_dir("crash-recovery");

    // A full telemetered run, then simulate a crash mid-write.
    let tele = Arc::new(Telemetry::new(&dir));
    let h = Harness::quick()
        .with_jobs(4)
        .with_telemetry(Arc::clone(&tele));
    assert_eq!(csv_string(&grid(&h, "fig1")), FIG1_GOLDEN);

    // Tear the journal: chop the final record in half (no newline).
    let journal = dir.join("journal/fig1.jsonl");
    let body = fs::read_to_string(&journal).expect("journal");
    assert!(body.ends_with('\n'));
    let keep = body.len() - 40;
    fs::write(&journal, &body.as_bytes()[..keep]).expect("truncate");

    // Corrupt one shard in place (interrupted rename/flush).
    let bad_shard = dir.join("shards/fig1/00007.json");
    assert!(bad_shard.exists());
    fs::write(&bad_shard, b"{\"cell\":7,\"truncat").expect("corrupt");

    // Reading the torn journal salvages the valid prefix: the damaged
    // final line is reported as salvage, not as a hard error.
    let read = read_journal_dir(&dir.join("journal"));
    assert!(
        read.errors.is_empty(),
        "a torn tail is salvage, not an error: {:?}",
        read.errors
    );
    assert_eq!(
        read.salvaged.len(),
        1,
        "one torn record: {:?}",
        read.salvaged
    );
    assert_eq!(read.records.len(), 23, "all complete lines survive");

    // Resume: the next sweep repairs the tail, restores every healthy
    // shard, re-runs only the corrupt cell, and reassembles the golden.
    let tele = Arc::new(Telemetry::new(&dir).with_resume(true));
    let h = Harness::quick()
        .with_jobs(2)
        .with_telemetry(Arc::clone(&tele));
    assert_eq!(
        csv_string(&grid(&h, "fig1")),
        FIG1_GOLDEN,
        "recovered sweep must be byte-identical to the golden CSV"
    );
    let counters = tele.experiment_counters();
    assert_eq!(counters[0].cells, 24);
    assert_eq!(
        counters[0].resumed, 23,
        "only the corrupt shard's cell re-runs"
    );

    // The repaired journal now parses clean end to end.
    let read = read_journal_dir(&dir.join("journal"));
    assert!(read.errors.is_empty(), "{:?}", read.errors);
    assert!(read.salvaged.is_empty(), "{:?}", read.salvaged);

    let _ = fs::remove_dir_all(&dir);
}
