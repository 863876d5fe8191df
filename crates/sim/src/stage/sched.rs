//! The warp-scheduling stage: threadblock-to-SM distribution and warp
//! bookkeeping for one kernel launch.
//!
//! Owns the time-ordered event heap that interleaves warps, the
//! threadblock queues per SM, and the residency accounting that starts the
//! next queued threadblock when one retires. The engine pops ready warps,
//! simulates their memory batch through the other stages, and pushes them
//! back with [`KernelSchedule::reschedule`].

use std::collections::VecDeque;

use mcm_types::{TbId, VirtAddr, WarpId};

use crate::config::SimConfig;
use crate::probe::Probe;
use crate::trace::TraceEventKind;
use crate::workload::{tb_chiplet, KernelDesc, Workload};

/// A 4-ary min-heap of `(ready_cycle, warp_id)` wake-up events.
///
/// Replaces `BinaryHeap<Reverse<(u64, usize)>>` on the engine's hottest
/// non-access path (one pop + one push per warp batch). Each live warp is
/// enqueued at most once, so keys are distinct and *any* correct min-queue
/// pops the identical ascending `(cycle, warp)` sequence — the simulated
/// schedule does not depend on which heap shape holds the events. Four
/// children per node halve the sift-down depth that dominates `pop` on
/// kernels with thousands of resident warps, and a node's children sit in
/// a single cache line.
#[derive(Default)]
struct EventHeap {
    /// `(ready_cycle, warp_id)`, heap-ordered (parent ≤ children).
    slots: Vec<(u64, u32)>,
}

impl EventHeap {
    fn push(&mut self, t: u64, wid: u32) {
        let mut i = self.slots.len();
        self.slots.push((t, wid));
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.slots[parent] <= self.slots[i] {
                break;
            }
            self.slots.swap(parent, i);
            i = parent;
        }
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        let top = *self.slots.first()?;
        let last = self.slots.pop()?;
        if !self.slots.is_empty() {
            // Sift the displaced tail element down from the root.
            let n = self.slots.len();
            self.slots[0] = last;
            let mut i = 0usize;
            loop {
                let first_child = i * 4 + 1;
                if first_child >= n {
                    break;
                }
                let mut min = first_child;
                for c in first_child + 1..(first_child + 4).min(n) {
                    if self.slots[c] < self.slots[min] {
                        min = c;
                    }
                }
                if self.slots[i] <= self.slots[min] {
                    break;
                }
                self.slots.swap(i, min);
                i = min;
            }
        }
        Some((top.0, top.1 as usize))
    }
}

/// One warp's progress through its access stream.
pub struct WarpCtx {
    /// The SM the warp is resident on.
    pub sm: usize,
    /// The warp's threadblock.
    pub tb: TbId,
    /// The warp's line-granular access stream, in program order.
    pub accesses: Vec<VirtAddr>,
    /// Index of the next unissued access.
    pub next: usize,
}

/// The warp schedule of one kernel launch.
pub struct KernelSchedule {
    kd: KernelDesc,
    /// Queued (not yet started) threadblocks per SM.
    sm_queue: Vec<VecDeque<TbId>>,
    warps: Vec<WarpCtx>,
    /// Min-heap of `(ready_cycle, warp_id)`.
    heap: EventHeap,
    /// Live warps per started threadblock, indexed by start slot.
    tb_live_warps: Vec<u32>,
    /// Start slot of each warp's threadblock.
    warp_tb_slot: Vec<usize>,
}

impl KernelSchedule {
    /// Distributes kernel `k`'s threadblocks — contiguous across chiplets
    /// (FT scheduling), then round-robin over each chiplet's SMs — and
    /// launches the initial resident threadblocks at cycle `start`.
    /// `pool` recycles per-warp access-stream buffers across warps and
    /// kernels (DESIGN.md §15): starting warps pop a cleared buffer
    /// instead of allocating, retiring warps push theirs back.
    pub fn new<P: Probe>(
        cfg: &SimConfig,
        workload: &dyn Workload,
        k: usize,
        start: u64,
        pool: &mut Vec<Vec<VirtAddr>>,
        probe: &mut P,
    ) -> Self {
        let kd = workload.kernel(k);
        let sms = cfg.total_sms();
        let mut sched = KernelSchedule {
            kd,
            sm_queue: vec![VecDeque::new(); sms],
            warps: Vec::new(),
            heap: EventHeap::default(),
            tb_live_warps: Vec::new(),
            warp_tb_slot: Vec::new(),
        };
        if kd.num_tbs == 0 {
            return sched;
        }
        let mut per_chiplet_counter = vec![0usize; cfg.num_chiplets];
        for t in 0..kd.num_tbs {
            let tb = TbId::new(t);
            let ch = tb_chiplet(tb, kd.num_tbs, cfg.num_chiplets);
            let sm = ch * cfg.sms_per_chiplet + per_chiplet_counter[ch] % cfg.sms_per_chiplet;
            per_chiplet_counter[ch] += 1;
            sched.sm_queue[sm].push_back(tb);
        }
        let concurrent_tbs = (cfg.max_warps_per_sm / kd.warps_per_tb.max(1) as usize).max(1);
        for sm in 0..sms {
            for _ in 0..concurrent_tbs {
                if let Some(tb) = sched.sm_queue[sm].pop_front() {
                    sched.start_tb(workload, k, sm, tb, start, pool, probe);
                }
            }
        }
        sched
    }

    /// The kernel's launch shape.
    pub fn kernel(&self) -> &KernelDesc {
        &self.kd
    }

    /// Launches `tb`'s warps on `sm` at cycle `at`.
    #[allow(clippy::too_many_arguments)]
    fn start_tb<P: Probe>(
        &mut self,
        workload: &dyn Workload,
        k: usize,
        sm: usize,
        tb: TbId,
        at: u64,
        pool: &mut Vec<Vec<VirtAddr>>,
        probe: &mut P,
    ) {
        probe.event(TraceEventKind::TbStart {
            sm: sm as u32,
            tb,
            cycle: at,
        });
        let slot = self.tb_live_warps.len();
        self.tb_live_warps.push(self.kd.warps_per_tb);
        for w in 0..self.kd.warps_per_tb {
            let mut accesses = pool.pop().unwrap_or_default();
            workload.warp_accesses_into(k, tb, WarpId::new(w), &mut accesses);
            let id = self.warps.len();
            self.warps.push(WarpCtx {
                sm,
                tb,
                accesses,
                next: 0,
            });
            self.warp_tb_slot.push(slot);
            // Deterministic per-warp jitter: warps of concurrently launched
            // TBs do not start in threadblock order, so first-touch races
            // at equal progress are unbiased.
            let jitter = (tb.index() as u64 * 131 + w as u64 * 17).wrapping_mul(0x9E37_79B9) % 64;
            self.heap.push(at + jitter, id as u32);
        }
    }

    /// Pops the next ready warp: `(ready_cycle, warp_id)`. `None` once
    /// every warp retired.
    pub fn pop(&mut self) -> Option<(u64, usize)> {
        self.heap.pop()
    }

    /// Re-enqueues warp `wid` to continue at `at`.
    pub fn reschedule(&mut self, wid: usize, at: u64) {
        self.heap.push(at, wid as u32);
    }

    /// The next up-to-`warp_mlp` accesses warp `wid` keeps in flight (GPU
    /// load pipelining): `(sm, tb, batch)`. The batch is a slice into the
    /// warp's access stream — no per-wakeup allocation; it is empty once
    /// the stream is exhausted.
    pub fn batch(&self, cfg: &SimConfig, wid: usize) -> (usize, TbId, &[VirtAddr]) {
        let w = &self.warps[wid];
        let n = cfg
            .warp_mlp
            .max(1)
            .min(w.accesses.len() - w.next.min(w.accesses.len()));
        (w.sm, w.tb, &w.accesses[w.next..w.next + n])
    }

    /// Marks `advanced` accesses of warp `wid`'s current batch complete.
    pub fn advance(&mut self, wid: usize, advanced: usize) {
        self.warps[wid].next += advanced;
    }

    /// `true` once warp `wid` has issued its whole access stream.
    pub fn warp_finished(&self, wid: usize) -> bool {
        let w = &self.warps[wid];
        w.next >= w.accesses.len()
    }

    /// Retires warp `wid` at cycle `t`; when it was its threadblock's last
    /// live warp, the SM's next queued threadblock (if any) starts at `t`.
    pub fn retire_warp<P: Probe>(
        &mut self,
        workload: &dyn Workload,
        k: usize,
        wid: usize,
        t: u64,
        pool: &mut Vec<Vec<VirtAddr>>,
        probe: &mut P,
    ) {
        // A retired warp never batches again: recycle its stream buffer.
        let mut stream = std::mem::take(&mut self.warps[wid].accesses);
        stream.clear();
        pool.push(stream);
        let slot = self.warp_tb_slot[wid];
        self.tb_live_warps[slot] -= 1;
        if self.tb_live_warps[slot] == 0 {
            let sm = self.warps[wid].sm;
            if let Some(next_tb) = self.sm_queue[sm].pop_front() {
                self.start_tb(workload, k, sm, next_tb, t, pool, probe);
            }
        }
    }

    /// Returns every remaining warp buffer to `pool` at kernel end, so the
    /// next kernel's warps start from recycled capacity.
    pub fn recycle(self, pool: &mut Vec<Vec<VirtAddr>>) {
        for mut w in self.warps {
            if w.accesses.capacity() > 0 {
                w.accesses.clear();
                pool.push(w.accesses);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AllocInfo;
    use crate::SimConfig;

    /// Two TBs of two warps each, four accesses per warp.
    struct TinyWorkload;
    impl Workload for TinyWorkload {
        fn name(&self) -> &str {
            "tiny"
        }
        fn allocs(&self) -> &[AllocInfo] {
            &[]
        }
        fn num_kernels(&self) -> usize {
            1
        }
        fn kernel(&self, _k: usize) -> KernelDesc {
            KernelDesc {
                num_tbs: 2,
                warps_per_tb: 2,
                insts_per_mem: 1,
                line_reuse: 1,
            }
        }
        fn warp_accesses(&self, _k: usize, tb: TbId, warp: WarpId) -> Vec<VirtAddr> {
            (0..4u64)
                .map(|i| {
                    VirtAddr::new((tb.index() as u64 * 1024 + warp.index() as u64 * 512 + i) * 128)
                })
                .collect()
        }
    }

    fn cfg() -> SimConfig {
        let mut c = SimConfig::baseline().scaled(8);
        c.num_chiplets = 2;
        c.sms_per_chiplet = 1;
        c
    }

    #[test]
    fn tbs_spread_over_chiplets_and_warps_drain() {
        let c = cfg();
        let w = TinyWorkload;
        let mut s = KernelSchedule::new(&c, &w, 0, 0, &mut Vec::new(), &mut ());
        assert_eq!(s.kernel().num_tbs, 2);
        let mut sms_seen = std::collections::HashSet::new();
        let mut popped = 0usize;
        while let Some((t, wid)) = s.pop() {
            popped += 1;
            let (sm, _tb, batch) = s.batch(&c, wid);
            sms_seen.insert(sm);
            assert!(!batch.is_empty());
            s.advance(wid, batch.len());
            if !s.warp_finished(wid) {
                s.reschedule(wid, t + 1);
            } else {
                s.retire_warp(&w, 0, wid, t, &mut Vec::new(), &mut ());
            }
        }
        assert_eq!(sms_seen.len(), 2, "both chiplets' SMs must host TBs");
        assert!(popped >= 4, "every warp must be scheduled at least once");
    }

    #[test]
    fn start_jitter_is_deterministic_and_bounded() {
        let c = cfg();
        let w = TinyWorkload;
        let mut a = KernelSchedule::new(&c, &w, 0, 1_000, &mut Vec::new(), &mut ());
        let mut b = KernelSchedule::new(&c, &w, 0, 1_000, &mut Vec::new(), &mut ());
        loop {
            let (ea, eb) = (a.pop(), b.pop());
            assert_eq!(ea, eb, "schedule must be deterministic");
            match ea {
                Some((t, wid)) => {
                    assert!(
                        (1_000..1_064).contains(&t),
                        "jitter is bounded to 64 cycles"
                    );
                    let n = a.batch(&c, wid).2.len();
                    a.advance(wid, n);
                    b.advance(wid, n);
                    // Drain without rescheduling: one batch per warp.
                    if !a.warp_finished(wid) {
                        continue;
                    }
                }
                None => break,
            }
        }
    }

    #[test]
    fn empty_kernel_schedules_nothing() {
        struct EmptyWorkload;
        impl Workload for EmptyWorkload {
            fn name(&self) -> &str {
                "empty"
            }
            fn allocs(&self) -> &[AllocInfo] {
                &[]
            }
            fn num_kernels(&self) -> usize {
                1
            }
            fn kernel(&self, _k: usize) -> KernelDesc {
                KernelDesc {
                    num_tbs: 0,
                    warps_per_tb: 1,
                    insts_per_mem: 1,
                    line_reuse: 1,
                }
            }
            fn warp_accesses(&self, _k: usize, _tb: TbId, _warp: WarpId) -> Vec<VirtAddr> {
                Vec::new()
            }
        }
        let c = cfg();
        let mut s = KernelSchedule::new(&c, &EmptyWorkload, 0, 0, &mut Vec::new(), &mut ());
        assert!(s.pop().is_none());
    }
}
