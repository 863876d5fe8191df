//! Pipeline-stage decomposition of the simulation engine.
//!
//! The engine's `Machine` (see [`crate::run`]) is a thin orchestrator: it
//! owns the event loop and the page table and wires together a handful of
//! stages with narrow interfaces, each unit-testable in isolation:
//!
//! * [`translate`] — per-SM L1 TLBs, chiplet-private L2 TLBs, page-walk
//!   caches, walker pools and walk-queue MSHRs: everything between a
//!   virtual address and its PTE.
//! * [`datapath`] — L1/L2 data caches, DRAM channels, the interconnect
//!   interconnect and the optional remote-data cache: everything between
//!   a physical address and its data.
//! * [`driver`] — the GMMU/driver side: demand-fault resolution through
//!   the paging policy, directive validation/application, shootdowns and
//!   degradation accounting.
//! * [`sched`] — threadblock-to-SM distribution and warp bookkeeping for
//!   one kernel launch.
//!
//! Stages own no statistics: they count every event into the machine's
//! per-chiplet [`Counters`](crate::Counters) registry, which
//! [`RunStats`](crate::RunStats) is folded from, and report samples and
//! events to the run's [`Probe`](crate::Probe). Only the degradation
//! tallies of the translate and driver stages live with them. All stage
//! state is owned and `Send`, which is what lets the bench harness fan
//! fully independent runs out across threads (one machine per run,
//! nothing shared).

pub mod datapath;
pub mod driver;
pub mod sched;
pub mod translate;

#[cfg(test)]
mod tests {
    use crate::policy::{AllocInfo, StaticHint};
    use crate::SimConfig;
    use mcm_types::{AllocId, VirtAddr};

    fn assert_send<T: Send>(_: &T) {}

    /// Every stage (and therefore the whole machine) is `Send`: a run can
    /// be built on one thread and executed on another.
    #[test]
    fn stage_state_is_send() {
        let cfg = SimConfig::baseline().scaled(8);
        assert_send(&super::translate::TranslateStage::new(&cfg));
        assert_send(&super::datapath::DataPath::new(&cfg, None));
        let allocs = [AllocInfo {
            id: AllocId::new(0),
            base: VirtAddr::new(0),
            bytes: 1 << 20,
            name: "a".into(),
            hint: StaticHint::Irregular,
        }];
        assert_send(&super::driver::Driver::new(&cfg, &allocs));
    }
}
