//! Crash-consistency: a sweep interrupted mid-write leaves a torn
//! journal tail, and a damaged disk may corrupt an interior record.
//! Recovery must salvage the valid journal prefix, repair the tail on the
//! next sweep, move the corrupt record aside (re-running only the two
//! damaged cells), and still assemble a CSV byte-identical to the
//! checked-in golden, leaving a journal that reads without errors.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use clap_repro::bench::experiments::{grid, Harness};
use clap_repro::bench::report::csv_string;
use clap_repro::bench::telemetry::{read_journal_dir, CellRecord, Telemetry};

const FIG1_GOLDEN: &str = include_str!("goldens/fig1_quick.csv");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clap-repro-test-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn torn_journal_and_corrupt_record_recover_to_the_golden_csv() {
    let dir = temp_dir("crash-recovery");

    // A full telemetered run, then simulate a crash mid-write.
    let tele = Arc::new(Telemetry::new(&dir));
    let h = Harness::quick()
        .with_jobs(4)
        .with_telemetry(Arc::clone(&tele));
    assert_eq!(csv_string(&grid(&h, "fig1")), FIG1_GOLDEN);

    // Workers append in completion order; put the records in cell order
    // so the final line is cell 23's and cell 7's is an interior line.
    let journal = dir.join("journal/fig1.jsonl");
    let body = fs::read_to_string(&journal).expect("journal");
    let mut lines: Vec<&str> = body.lines().collect();
    lines.sort_by_key(|l| CellRecord::parse_line(l).expect("record").cell);
    assert_eq!(lines.len(), 24);
    // Corrupt cell 7's record in place, and tear the final record: chop
    // it in half (no newline).
    lines[7] = "{\"cell\":7,\"truncat";
    let body = lines.join("\n");
    fs::write(&journal, &body.as_bytes()[..body.len() - 40]).expect("damage");

    // Reading the damaged journal salvages the valid prefix: the torn
    // final line is reported as salvage, the corrupt interior line as an
    // error.
    let read = read_journal_dir(&dir.join("journal"));
    assert_eq!(read.errors.len(), 1, "{:?}", read.errors);
    assert!(read.errors[0].contains(":8:"), "{:?}", read.errors);
    assert_eq!(
        read.salvaged.len(),
        1,
        "one torn record: {:?}",
        read.salvaged
    );
    assert_eq!(read.records.len(), 22, "all intact lines survive");

    // Resume: the next sweep repairs the tail, moves the corrupt line
    // into fig1.rejected, restores every intact record, re-runs only the
    // two damaged cells, and reassembles the golden.
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
        counters[0].resumed, 22,
        "only the torn and the corrupt cell re-run"
    );

    // The repaired journal has no torn tail and no corrupt line: the
    // line moved to fig1.rejected, which the read reports instead.
    let read = read_journal_dir(&dir.join("journal"));
    assert!(read.errors.is_empty(), "{:?}", read.errors);
    assert!(read.salvaged.is_empty(), "{:?}", read.salvaged);
    assert_eq!(read.records.len(), 22 + 24);
    assert_eq!(read.rejected.len(), 1, "{:?}", read.rejected);
    assert!(read.rejected[0].ends_with("fig1.rejected: 1 line(s)"));
    let rejected = fs::read_to_string(dir.join("journal/fig1.rejected")).expect("rejected");
    assert_eq!(rejected, "{\"cell\":7,\"truncat\n");

    let _ = fs::remove_dir_all(&dir);
}
