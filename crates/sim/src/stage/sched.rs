//! The warp-scheduling stage: threadblock-to-SM distribution and warp
//! bookkeeping for one kernel launch.
//!
//! Owns the monotone wake-up queue that interleaves warps, the
//! threadblock queues per SM, and the residency accounting that starts the
//! next queued threadblock when one retires. The engine pops ready warps,
//! simulates their memory batch through the other stages, and pushes them
//! back with [`KernelSchedule::reschedule`].

use std::collections::VecDeque;

use mcm_types::{TbId, VirtAddr, WarpId};

use crate::config::SimConfig;
use crate::workload::{tb_chiplet, KernelDesc, Workload};

/// A monotone radix heap of `(ready_cycle, key)` wake-up events, where a
/// warp's key is `(start_seq << 32) | slot`: the order it started in
/// above the context slot it occupies (see [`KernelSchedule`]).
///
/// The engine clock never runs backwards: every push is at or after the
/// cycle last popped (a batch reschedules at its completion plus the
/// issue gap, a fault resumes at or after the faulting access, a new
/// threadblock starts at the retire cycle plus its jitter, which may be
/// 0). Keys therefore live in buckets by the highest bit in which their
/// cycle differs from the last popped cycle `last`. Events at `last`
/// itself sit in [`Self::now`] by descending key, so same-cycle
/// wake-ups leave in warp start order; `later[b]` holds cycles that agree
/// with `last` above bit `b` and differ at it. A pop that finds `now`
/// empty takes the lowest non-empty bucket, advances `last` to its
/// smallest cycle and redistributes its events into strictly lower
/// buckets, so an event moves at most 64 times however many warps wait.
///
/// Each live warp is enqueued at most once, so keys are distinct and the
/// pops are exactly the ascending `(cycle, key)` sequence any min-queue
/// pops: the simulated schedule does not depend on the queue's shape.
/// Buckets keep their capacity, so steady-state pushes do not allocate.
struct WakeQueue {
    /// Cycle of the most recent pop: nothing may be pushed before it.
    last: u64,
    /// Keys of the warps waking at `last`, descending (the next one is
    /// last).
    now: Vec<u64>,
    /// `later[b]`: events whose cycle first differs from `last` at bit
    /// `b` (and is therefore greater).
    later: [Vec<(u64, u64)>; 64],
    /// Bit `b` set iff `later[b]` is non-empty.
    occupied: u64,
}

impl Default for WakeQueue {
    fn default() -> Self {
        WakeQueue {
            last: 0,
            now: Vec::new(),
            later: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
        }
    }
}

impl WakeQueue {
    fn push(&mut self, t: u64, key: u64) {
        debug_assert!(
            t >= self.last,
            "wake-up at cycle {t} before the clock ({})",
            self.last
        );
        let diff = t ^ self.last;
        if diff == 0 {
            let at = self.now.partition_point(|&k| k > key);
            self.now.insert(at, key);
        } else {
            let b = 63 - diff.leading_zeros() as usize;
            self.later[b].push((t, key));
            self.occupied |= 1 << b;
        }
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        if self.now.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1 << b);
            let mut events = std::mem::take(&mut self.later[b]);
            self.last = events.iter().map(|&(t, _)| t).min()?;
            for &(t, key) in &events {
                let diff = t ^ self.last;
                if diff == 0 {
                    self.now.push(key);
                } else {
                    let c = 63 - diff.leading_zeros() as usize;
                    self.later[c].push((t, key));
                    self.occupied |= 1 << c;
                }
            }
            events.clear();
            self.later[b] = events;
            self.now.sort_unstable_by(|a, b| b.cmp(a));
        }
        let key = self.now.pop()?;
        Some((self.last, key))
    }
}

/// Deterministic per-warp start jitter in `0..64` cycles: warps of
/// concurrently launched TBs do not start in threadblock order, so
/// first-touch races at equal progress are unbiased.
fn start_jitter(tb: TbId, w: u32) -> u64 {
    (tb.index() as u64 * 131 + w as u64 * 17).wrapping_mul(0x9E37_79B9) % 64
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
    /// Start slot of the warp's threadblock in the schedule's live-warp
    /// counts.
    tb_slot: u32,
    /// The warp's start order within the kernel: the high half of its
    /// wake-up key.
    seq: u32,
}

/// The warp schedule of one kernel launch.
///
/// Warps are addressed by *slot*: the index of their context in
/// `warps`. A retired warp's slot goes onto a free list and the next warp
/// to start takes it, so `warps` holds at most the resident warps, not
/// every warp the kernel ever started. Slots are reused in any order, so
/// the wake-up key puts the warp's start sequence above its slot:
/// same-cycle wake-ups leave in start order, exactly as if every warp had
/// a slot of its own.
pub struct KernelSchedule {
    kd: KernelDesc,
    /// Queued (not yet started) threadblocks per SM.
    sm_queue: Vec<VecDeque<TbId>>,
    warps: Vec<WarpCtx>,
    /// Slots of retired warps, free for the next warps to start.
    free_slots: Vec<u32>,
    /// Warps started so far: the next warp's start sequence.
    started: u32,
    /// Pending `(ready_cycle, (start_seq << 32) | slot)` wake-ups.
    queue: WakeQueue,
    /// Live warps per started threadblock, indexed by start slot.
    tb_live_warps: Vec<u32>,
}

impl KernelSchedule {
    /// Distributes kernel `k`'s threadblocks — contiguous across chiplets
    /// (FT scheduling), then round-robin over each chiplet's SMs — and
    /// launches the initial resident threadblocks at cycle `start`.
    /// `pool` recycles per-warp access-stream buffers across warps and
    /// kernels (DESIGN.md §15): starting warps pop a cleared buffer
    /// instead of allocating, retiring warps push theirs back.
    pub fn new(
        cfg: &SimConfig,
        workload: &dyn Workload,
        k: usize,
        start: u64,
        pool: &mut Vec<Vec<VirtAddr>>,
    ) -> Self {
        let kd = workload.kernel(k);
        let sms = cfg.total_sms();
        let mut sched = KernelSchedule {
            kd,
            sm_queue: vec![VecDeque::new(); sms],
            warps: Vec::new(),
            free_slots: Vec::new(),
            started: 0,
            queue: WakeQueue::default(),
            tb_live_warps: Vec::new(),
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
                    sched.start_tb(workload, k, sm, tb, start, pool);
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
    fn start_tb(
        &mut self,
        workload: &dyn Workload,
        k: usize,
        sm: usize,
        tb: TbId,
        at: u64,
        pool: &mut Vec<Vec<VirtAddr>>,
    ) {
        let tb_slot = self.tb_live_warps.len() as u32;
        self.tb_live_warps.push(self.kd.warps_per_tb);
        for w in 0..self.kd.warps_per_tb {
            let mut accesses = pool.pop().unwrap_or_default();
            workload.warp_accesses_into(k, tb, WarpId::new(w), &mut accesses);
            let ctx = WarpCtx {
                sm,
                tb,
                accesses,
                next: 0,
                tb_slot,
                seq: self.started,
            };
            self.started += 1;
            let slot = match self.free_slots.pop() {
                Some(slot) => {
                    self.warps[slot as usize] = ctx;
                    slot
                }
                None => {
                    self.warps.push(ctx);
                    (self.warps.len() - 1) as u32
                }
            };
            self.push(slot as usize, at + start_jitter(tb, w));
        }
    }

    /// Enqueues the warp in `slot` to wake at `at`.
    fn push(&mut self, slot: usize, at: u64) {
        let key = ((self.warps[slot].seq as u64) << 32) | slot as u64;
        self.queue.push(at, key);
    }

    /// Pops the next ready warp: `(ready_cycle, slot)`. Same-cycle
    /// wake-ups leave in warp start order. `None` once every warp retired.
    pub fn pop(&mut self) -> Option<(u64, usize)> {
        let (t, key) = self.queue.pop()?;
        Some((t, key as u32 as usize))
    }

    /// Re-enqueues the warp in slot `wid` to continue at `at`.
    pub fn reschedule(&mut self, wid: usize, at: u64) {
        self.push(wid, at);
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
    pub fn retire_warp(
        &mut self,
        workload: &dyn Workload,
        k: usize,
        wid: usize,
        t: u64,
        pool: &mut Vec<Vec<VirtAddr>>,
    ) {
        // A retired warp never batches again: recycle its stream buffer.
        let mut stream = std::mem::take(&mut self.warps[wid].accesses);
        stream.clear();
        pool.push(stream);
        // Free the slot first: the threadblock that starts next may take it.
        self.free_slots.push(wid as u32);
        let tb_slot = self.warps[wid].tb_slot as usize;
        self.tb_live_warps[tb_slot] -= 1;
        if self.tb_live_warps[tb_slot] == 0 {
            let sm = self.warps[wid].sm;
            if let Some(next_tb) = self.sm_queue[sm].pop_front() {
                self.start_tb(workload, k, sm, next_tb, t, pool);
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
        let mut s = KernelSchedule::new(&c, &w, 0, 0, &mut Vec::new());
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
                s.retire_warp(&w, 0, wid, t, &mut Vec::new());
            }
        }
        assert_eq!(sms_seen.len(), 2, "both chiplets' SMs must host TBs");
        assert!(popped >= 4, "every warp must be scheduled at least once");
    }

    #[test]
    fn start_jitter_is_deterministic_and_bounded() {
        let c = cfg();
        let w = TinyWorkload;
        let mut a = KernelSchedule::new(&c, &w, 0, 1_000, &mut Vec::new());
        let mut b = KernelSchedule::new(&c, &w, 0, 1_000, &mut Vec::new());
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

    /// A [`WakeQueue`] driven in lockstep with a binary min-heap oracle.
    #[derive(Default)]
    struct QueuePair {
        q: WakeQueue,
        oracle: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
        live: std::collections::HashSet<u32>,
        /// Cycle of the last pop.
        clock: u64,
        /// Warps popped so far at `clock`, and the largest id among them.
        run: usize,
        run_max_wid: u32,
    }

    impl QueuePair {
        /// Pushes a warp not currently queued, at or after `wid`, at `t`.
        fn push(&mut self, t: u64, mut wid: u32) -> u32 {
            while !self.live.insert(wid) {
                wid = (wid + 1) % 8192;
            }
            self.q.push(t, wid as u64);
            self.oracle.push(std::cmp::Reverse((t, wid)));
            wid
        }

        /// Pops both; `false` once both are empty.
        fn pop(&mut self, case: u32) -> bool {
            let want = self
                .oracle
                .pop()
                .map(|std::cmp::Reverse((t, w))| (t, w as u64));
            assert_eq!(self.q.pop(), want, "case {case}");
            let Some((t, w)) = want else { return false };
            self.live.remove(&(w as u32));
            if t == self.clock && self.run > 0 {
                self.run += 1;
                self.run_max_wid = self.run_max_wid.max(w as u32);
            } else {
                (self.run, self.run_max_wid) = (1, w as u32);
            }
            self.clock = t;
            true
        }
    }

    /// The wake-up queue pops exactly what a binary min-heap of
    /// `(cycle, warp)` pops, on random monotone push/pop interleavings:
    /// single pushes and bursts of up to 300 warps on one cycle, gaps of
    /// every magnitude up to `1 << 63`, same-cycle pushes in the middle of
    /// a same-cycle drain, and drains to empty followed by reuse. The test
    /// checks that its random cases covered each of those.
    #[test]
    fn wake_queue_pops_what_a_binary_heap_pops() {
        use proptest::collection::vec;
        use proptest::{seed_for, Strategy, TestRng};

        // (op, gap magnitude in bits, gap bits and warp id, burst size)
        let ops = vec((0u8..8, 0u32..65, 0u64..u64::MAX, 1usize..300), 1..400);
        let mut buckets_hit = 0u64;
        let (mut biggest_drain, mut mid_drain_smaller, mut reused) = (0usize, 0usize, 0usize);
        for case in 0..256 {
            let mut rng = TestRng::new(seed_for("wake_queue_oracle", case));
            let mut p = QueuePair::default();
            let mut drained_empty = false;
            for (op, magnitude, bits, burst) in ops.generate(&mut rng) {
                let gap = match magnitude {
                    0 => 0,
                    m => (1u64 << (m - 1)) | (bits & ((1u64 << (m - 1)) - 1)),
                };
                let t = p.clock.saturating_add(gap);
                match op {
                    0..=3 => {
                        reused += drained_empty as usize;
                        drained_empty = false;
                        for i in 0..if op == 0 { burst } else { 1 } {
                            let diff = t ^ p.q.last;
                            if diff != 0 {
                                buckets_hit |= 1 << (63 - diff.leading_zeros());
                            }
                            let wid = p.push(t, (bits >> 16) as u32 % 8192 + i as u32);
                            if t == p.clock && p.run > 0 && wid < p.run_max_wid {
                                mid_drain_smaller += 1;
                            }
                        }
                    }
                    4..=6 => {
                        p.pop(case);
                    }
                    _ => {
                        while p.pop(case) {}
                        drained_empty = true;
                    }
                }
                biggest_drain = biggest_drain.max(p.run);
            }
            while p.pop(case) {}
        }
        assert_eq!(buckets_hit, u64::MAX, "every radix bucket took pushes");
        assert!(biggest_drain >= 200, "one cycle woke {biggest_drain} warps");
        assert!(
            mid_drain_smaller > 0,
            "no same-cycle push below a popped id"
        );
        assert!(reused > 0, "no queue was reused after draining empty");
    }

    /// 64 TBs of four warps with one to five accesses each: 256 warps,
    /// of which at most 16 are resident on the two SMs of [`cfg`] with 8
    /// warp slots per SM.
    struct ManyWarps;
    impl Workload for ManyWarps {
        fn name(&self) -> &str {
            "many"
        }
        fn allocs(&self) -> &[AllocInfo] {
            &[]
        }
        fn num_kernels(&self) -> usize {
            1
        }
        fn kernel(&self, _k: usize) -> KernelDesc {
            KernelDesc {
                num_tbs: 64,
                warps_per_tb: 4,
                insts_per_mem: 1,
                line_reuse: 1,
            }
        }
        fn warp_accesses(&self, _k: usize, tb: TbId, warp: WarpId) -> Vec<VirtAddr> {
            let (t, w) = (tb.index() as u64, warp.index() as u64);
            (0..1 + (t * 3 + w) % 5)
                .map(|i| VirtAddr::new((t * 64 + w * 8 + i) * 128))
                .collect()
        }
    }

    /// The [`ManyWarps`] warp whose stream starts with `first`.
    fn many_warps_id(first: VirtAddr) -> u32 {
        (first.raw() / 128 % 64 / 8) as u32
    }

    /// A never-recycling reference schedule: every warp ever started keeps
    /// its start sequence, and wake-ups leave as ascending `(cycle, seq)`.
    #[derive(Default)]
    struct Reference {
        seq_of: std::collections::HashMap<(usize, u32), u64>,
        queue: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    }

    impl Reference {
        /// Starts, at cycle `at`, every warp the schedule started since the
        /// last call: those whose start sequence is past the starts seen.
        /// Their sequences must continue the seen ones without a gap.
        fn absorb(&mut self, s: &KernelSchedule, at: u64) {
            let seen = self.seq_of.len() as u64;
            let mut new: Vec<_> = s.warps.iter().filter(|w| w.seq as u64 >= seen).collect();
            new.sort_by_key(|w| w.seq);
            for (i, w) in new.into_iter().enumerate() {
                let seq = w.seq as u64;
                assert_eq!(seq, seen + i as u64, "start sequences are gap-free");
                let id = many_warps_id(w.accesses[0]);
                self.seq_of.insert((w.tb.index(), id), seq);
                self.queue
                    .push(std::cmp::Reverse((at + start_jitter(w.tb, id), seq)));
            }
        }
    }

    /// With 16 warps resident out of 256, retired warps' slots are reused
    /// by later threadblocks in whatever order they free up, yet the
    /// schedule pops exactly the `(cycle, start order)` sequence of a
    /// reference that never recycles, through same-cycle ties where slot
    /// order and start order disagree. The context table never grows past
    /// the resident warps.
    #[test]
    fn recycled_slots_pop_in_start_order() {
        let mut c = cfg();
        c.max_warps_per_sm = 8;
        let (w, resident) = (ManyWarps, 16);
        let mut pool = Vec::new();
        let mut s = KernelSchedule::new(&c, &w, 0, 0, &mut pool);
        let mut reference = Reference::default();
        reference.absorb(&s, 0);
        let (mut ties, mut reordered, mut peak) = (0usize, 0usize, 0usize);
        let mut prev: Option<(u64, usize)> = None;
        while let Some((t, slot)) = s.pop() {
            peak = peak.max(s.warps.len());
            assert!(s.warps.len() <= resident, "{} warp slots", s.warps.len());
            let (_sm, tb, batch) = s.batch(&c, slot);
            let seq = reference.seq_of[&(tb.index(), many_warps_id(batch[0]))];
            assert_eq!(
                reference.queue.pop(),
                Some(std::cmp::Reverse((t, seq))),
                "slot {slot}"
            );
            if let Some((_, prev_slot)) = prev.filter(|&(pt, _)| pt == t) {
                ties += 1;
                reordered += (slot < prev_slot) as usize;
            }
            prev = Some((t, slot));
            s.advance(slot, 1);
            if s.warp_finished(slot) {
                s.retire_warp(&w, 0, slot, t, &mut pool);
                reference.absorb(&s, t);
            } else {
                // Delays of 0-2 cycles: many warps wake on one cycle.
                let at = t + (seq + t) % 3;
                s.reschedule(slot, at);
                reference.queue.push(std::cmp::Reverse((at, seq)));
            }
        }
        assert!(reference.queue.is_empty(), "the schedule dropped warps");
        assert_eq!(reference.seq_of.len(), 256, "every warp started");
        assert_eq!(peak, resident, "the resident warps fill their slots");
        assert!(ties > 200, "{ties} same-cycle wake-ups");
        assert!(
            reordered > 30,
            "{reordered} ties left a lower slot after a higher one"
        );
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
        let mut s = KernelSchedule::new(&c, &EmptyWorkload, 0, 0, &mut Vec::new());
        assert!(s.pop().is_none());
    }
}
