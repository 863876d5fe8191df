//! Sweep supervision under `--fail-fast`: the first failure propagates
//! instead of being quarantined. The keep-going quarantine and resume
//! cycle is pinned in the root `tests/supervision.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use mcm_bench::experiments::{grid, Harness};
use mcm_bench::supervise::{Injection, Supervisor, SweepMode};

fn injections() -> Vec<Injection> {
    vec![
        Injection::parse("fig1:2=panic").expect("parse"),
        Injection::parse("fig1:5=budget").expect("parse"),
    ]
}

#[test]
fn fail_fast_propagates_the_injected_panic() {
    let sup = Arc::new(Supervisor::new(SweepMode::FailFast).with_injections(injections()));
    let h = Harness::quick().with_supervisor(Arc::clone(&sup));
    let caught = catch_unwind(AssertUnwindSafe(|| grid(&h, "fig1")));
    assert!(caught.is_err(), "--fail-fast must propagate the failure");
    assert!(
        sup.quarantined().is_empty(),
        "fail-fast aborts instead of quarantining"
    );
}
