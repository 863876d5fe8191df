//! Resource models: busy-until servers and time-bucketed capacity.
//!
//! Two models coexist:
//!
//! * [`Server`] — classic *busy-until*: correct when requests arrive in
//!   nondecreasing time order. Used for coarse, rare charges (GMMU
//!   shootdown/migration overhead).
//! * [`BucketedResource`] — **order-independent** capacity accounting: time
//!   is cut into fixed buckets and each bucket holds `capacity` cycles of
//!   service. A request at time `t` books the earliest bucket at/after `t`
//!   with spare capacity. Because the simulator computes multi-stage access
//!   chains atomically (a single event may acquire a DRAM channel tens of
//!   thousands of cycles in the future), busy-until state would let
//!   future-time acquisitions delay *earlier* requests processed later —
//!   bucketed accounting keeps contention causal and work-conserving under
//!   out-of-order arrivals.
//!
//! **Clock-floor contract.** Bookings may run far ahead of the engine
//! clock, but never behind it: the engine's clock is monotone, and every
//! acquire starts at or after the cycle of the wake-up being simulated
//! (epoch directives book at the epoch, which is later than the previous
//! wake-up). So once the clock has passed a bucket, nothing books it
//! again. The engine tells each resource so with
//! [`BucketedResource::forget_before`], and the resource keeps only a
//! window from there on instead of every bucket since cycle 0.

/// Bucket width in cycles for [`BucketedResource`].
pub const BUCKET_CYCLES: u64 = 64;

/// A single-server resource (busy-until semantics; in-order arrivals).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Server {
    next_free: u64,
}

impl Server {
    /// Creates an idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the server for `service` cycles starting no earlier than
    /// `now`. Returns the time service *starts* (queueing included).
    pub fn acquire(&mut self, now: u64, service: u64) -> u64 {
        let start = self.next_free.max(now);
        self.next_free = start + service;
        start
    }

    /// Earliest time a new request could start service.
    pub fn next_free(&self) -> u64 {
        self.next_free
    }
}

/// An order-independent, capacity-limited resource: `units` parallel
/// servers, each contributing [`BUCKET_CYCLES`] cycles of service per time
/// bucket.
///
/// # Examples
///
/// ```
/// use mcm_sim::BucketedResource;
///
/// // One server: 64 cycles of capacity per 64-cycle bucket.
/// let mut r = BucketedResource::new(1);
/// assert_eq!(r.acquire(0, 64), 0); // fills bucket 0
/// let start = r.acquire(0, 10);
/// assert!(start >= 64, "bucket 0 is full; spills to bucket 1");
/// // An *earlier-processed* request at a later time is unaffected by
/// // future bookings:
/// let far = r.acquire(10_000, 10);
/// assert!(far >= 10_000 && far < 10_128);
/// ```
#[derive(Clone, Debug)]
pub struct BucketedResource {
    /// Absolute index of the first stored bucket: everything before it
    /// was dropped by [`forget_before`](Self::forget_before).
    base: usize,
    /// One word per bucket, from `base` on. A word below `capacity` is
    /// the service cycles booked in a bucket that still has room. A word
    /// at or above `capacity` marks a full bucket and is a skip pointer:
    /// bucket `b`'s next maybe-free bucket is `b + 1 + (word - capacity)`
    /// (union-find "next maybe-free" chains, path-compressed on
    /// traversal). A booking that fills its bucket leaves exactly
    /// `capacity`, which already reads as "next is `b + 1`". Booked
    /// capacity never drains, so fullness is monotone and pointers only
    /// move forward; distances stay valid when a prefix is dropped. Under
    /// saturation a request would otherwise rescan thousands of full
    /// buckets between `now` and the service frontier; the skip chain
    /// makes that amortized O(1) with an identical result (full buckets
    /// contribute nothing to a booking).
    words: Vec<u32>,
    capacity: u32,
    /// `log2(units)` when the unit count is a power of two (every shipped
    /// configuration: ports, walkers, DRAM channels, links), else
    /// `u32::MAX`. The in-bucket start offset is
    /// `used * BUCKET_CYCLES / capacity = used / units`; the shift form
    /// drops a 64-bit division from every acquire on the access hot path.
    unit_shift: u32,
}

impl BucketedResource {
    /// Creates a resource with `units` parallel servers.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    pub fn new(units: usize) -> Self {
        assert!(units > 0, "a resource needs at least one unit");
        BucketedResource {
            base: 0,
            words: Vec::new(),
            capacity: units as u32 * BUCKET_CYCLES as u32,
            unit_shift: if units.is_power_of_two() {
                units.trailing_zeros()
            } else {
                u32::MAX
            },
        }
    }

    /// Heap bytes the bucket window holds: its allocated capacity, which
    /// never shrinks, so this is also the window's peak so far.
    pub fn bucket_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u32>()
    }

    /// In-bucket start offset for a booking when `used` cycles are already
    /// booked: position reflects how full the bucket is.
    #[inline]
    fn offset(&self, used: u32) -> u64 {
        let raw = if self.unit_shift != u32::MAX {
            (used >> self.unit_shift) as u64
        } else {
            used as u64 * BUCKET_CYCLES / self.capacity as u64
        };
        raw.min(BUCKET_CYCLES - 1)
    }

    /// The bucket after full bucket `b`, whose word is `word`, on its skip
    /// chain.
    #[inline]
    fn next_of(&self, b: usize, word: u32) -> usize {
        b + 1 + (word - self.capacity) as usize
    }

    /// Grows the window to cover absolute bucket `bucket`.
    #[inline]
    fn ensure(&mut self, bucket: usize) {
        let i = bucket - self.base;
        if i >= self.words.len() {
            self.words.resize(i + 256, 0);
        }
    }

    /// Follows the skip chain from absolute bucket `from` to the first
    /// maybe-free bucket, compressing the traversed path. The result may
    /// point one past the window (caller re-ensures capacity).
    #[inline]
    fn skip_full(&mut self, from: usize) -> usize {
        let (base, end) = (self.base, self.base + self.words.len());
        let mut b = from;
        while b < end && self.words[b - base] >= self.capacity {
            b = self.next_of(b, self.words[b - base]);
        }
        let mut c = from;
        while c < b.min(end) && self.words[c - base] >= self.capacity {
            let next = self.next_of(c, self.words[c - base]);
            self.words[c - base] = self.capacity + (b - c - 1) as u32;
            c = next;
        }
        b
    }

    /// Books `service` cycles of work starting no earlier than `now`;
    /// returns the service start time (bucket-granular queueing included).
    /// Zero-service requests start immediately.
    ///
    /// `now` must not fall before the window a
    /// [`forget_before`](Self::forget_before) kept (checked in debug
    /// builds; release builds book such a request from the window's
    /// first bucket).
    pub fn acquire(&mut self, now: u64, service: u64) -> u64 {
        if service == 0 {
            return now;
        }
        let bucket = (now / BUCKET_CYCLES) as usize;
        debug_assert!(
            bucket >= self.base,
            "booking at cycle {now} before the kept window (bucket {})",
            self.base
        );
        // Fast path: the request's own bucket is stored and absorbs the
        // whole booking — the overwhelmingly common case for short
        // services on an uncongested resource. A full bucket's word is at
        // least `capacity`, so one comparison rules it out too. Identical
        // to one iteration of the general loop below.
        let i = bucket.wrapping_sub(self.base);
        if let Some(&used) = self.words.get(i) {
            if used as u64 + service <= self.capacity as u64 {
                let start = (bucket as u64 * BUCKET_CYCLES + self.offset(used)).max(now);
                self.words[i] = used + service as u32;
                return start;
            }
        }
        let mut bucket = bucket.max(self.base);
        let mut remaining = service;
        let mut start: Option<u64> = None;
        loop {
            self.ensure(bucket);
            let target = self.skip_full(bucket);
            if target != bucket {
                // Skipped buckets are full: they contribute nothing to the
                // booking and cannot host the start time.
                bucket = target;
                continue;
            }
            // `skip_full` stopped here, so the bucket has room.
            let i = bucket - self.base;
            let used = self.words[i];
            let take = remaining.min((self.capacity - used) as u64) as u32;
            if start.is_none() {
                start = Some((bucket as u64 * BUCKET_CYCLES + self.offset(used)).max(now));
            }
            self.words[i] = used + take;
            remaining -= take as u64;
            if remaining == 0 {
                // `start` was set when the first units were taken.
                return start.unwrap_or(now);
            }
            bucket += 1;
        }
    }

    /// Earliest start a zero-length probe at `now` would get (diagnostic).
    /// `now` must not fall before the kept window, as for
    /// [`acquire`](Self::acquire).
    pub fn next_free(&self, now: u64) -> u64 {
        let mut bucket = (now / BUCKET_CYCLES) as usize;
        debug_assert!(
            bucket >= self.base,
            "probe at cycle {now} before the kept window"
        );
        loop {
            match self.words.get(bucket.wrapping_sub(self.base)) {
                Some(&word) if word >= self.capacity => bucket = self.next_of(bucket, word),
                _ => return (bucket as u64 * BUCKET_CYCLES).max(now),
            }
        }
    }

    /// Drops the buckets before the one holding cycle `t`: the caller
    /// promises never to book or probe before `t` again. The prefix goes
    /// only once it is at least half the stored span, so the copy this
    /// costs is amortized O(1) per stored bucket, and memory stays
    /// proportional to how far bookings run ahead of `t`.
    pub fn forget_before(&mut self, t: u64) {
        let drop = ((t / BUCKET_CYCLES) as usize).saturating_sub(self.base);
        if drop == 0 || drop * 2 < self.words.len() {
            return;
        }
        let stored = drop.min(self.words.len());
        self.words.drain(..stored);
        self.base += drop;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_serializes_requests() {
        let mut s = Server::new();
        assert_eq!(s.acquire(10, 5), 10); // idle: starts immediately
        assert_eq!(s.acquire(11, 5), 15); // queued behind the first
        assert_eq!(s.acquire(100, 5), 100); // idle again
        assert_eq!(s.next_free(), 105);
    }

    #[test]
    fn bucketed_fills_then_spills() {
        let mut r = BucketedResource::new(1);
        // 12 requests of 5 cycles = 60 < 64: all in bucket 0.
        for _ in 0..12 {
            let start = r.acquire(0, 5);
            assert!(start < BUCKET_CYCLES);
        }
        // The next request takes the remaining 4 cycles of bucket 0 and
        // spills; work is conserved so it may still *start* in bucket 0.
        let straddle = r.acquire(0, 5);
        assert!(straddle < BUCKET_CYCLES);
        // After that, bucket 0 is exhausted for good.
        let start = r.acquire(0, 5);
        assert!(
            (BUCKET_CYCLES..2 * BUCKET_CYCLES).contains(&start),
            "got {start}"
        );
    }

    #[test]
    fn future_bookings_do_not_delay_past_requests() {
        let mut r = BucketedResource::new(1);
        // A far-future chain books capacity at t = 100_000.
        let f = r.acquire(100_000, 64);
        assert_eq!(f / BUCKET_CYCLES, 100_000 / BUCKET_CYCLES);
        // A present-time request is unaffected (this is the property the
        // busy-until model lacks).
        let p = r.acquire(0, 5);
        assert!(p < BUCKET_CYCLES);
    }

    #[test]
    fn multi_unit_capacity_scales() {
        let mut r = BucketedResource::new(4);
        // 4 units x 64 = 256 cycles per bucket.
        assert_eq!(r.acquire(0, 256), 0);
        assert!(r.acquire(0, 5) >= BUCKET_CYCLES);
        // A single-unit resource offers 4x less per bucket.
        let mut one = BucketedResource::new(1);
        one.acquire(0, 256);
        assert!(one.acquire(0, 5) >= 4 * BUCKET_CYCLES);
    }

    #[test]
    fn large_service_spans_buckets() {
        let mut r = BucketedResource::new(1);
        let s0 = r.acquire(0, 200); // spans buckets 0..3
        assert_eq!(s0, 0);
        // Everything through bucket 3 is full-ish.
        let s1 = r.acquire(0, 64);
        assert!(s1 >= 3 * BUCKET_CYCLES, "got {s1}");
    }

    #[test]
    fn saturated_prefix_books_after_watermark() {
        let mut r = BucketedResource::new(1);
        // Saturate buckets 0..100 in one booking.
        assert_eq!(r.acquire(0, 100 * BUCKET_CYCLES), 0);
        // Requests at t = 0 spill past the full prefix, in order.
        let s = r.acquire(0, 1);
        assert_eq!(s / BUCKET_CYCLES, 100);
        let s2 = r.acquire(0, BUCKET_CYCLES);
        assert!(s2 / BUCKET_CYCLES >= 100, "got {s2}");
        assert_eq!(r.next_free(0), r.next_free(0)); // probe is stable
    }

    #[test]
    fn zero_service_is_free() {
        let mut r = BucketedResource::new(1);
        r.acquire(0, 64);
        assert_eq!(r.acquire(0, 0), 0);
    }

    /// A resource that forgets the past books exactly like one that
    /// keeps every bucket, as long as requests respect the floor it was
    /// given, and its stored span stays bounded by how far bookings run
    /// ahead of that floor. Random requests land anywhere at or above a
    /// rising floor (sometimes far ahead of it); the floor now and then
    /// jumps past everything stored (an idle stretch); services mix
    /// single-slot requests with multi-bucket spans.
    #[test]
    fn forgetting_the_past_changes_no_booking() {
        use proptest::collection::vec;
        use proptest::{seed_for, Strategy, TestRng};

        // (floor step, lead over the floor, service, forget now?)
        let steps = vec((0u64..400, 0u64..20_000, 0u64..64, 0u8..16), 3_000);
        let (mut forgets, mut drains, mut cleared) = (0usize, 0usize, 0usize);
        for units in [1usize, 16] {
            for case in 0..32 {
                let mut rng = TestRng::new(seed_for("forget_before", case));
                let mut plain = BucketedResource::new(units);
                let mut windowed = BucketedResource::new(units);
                let mut floor = 0u64;
                for (step, lead, service, forget) in steps.generate(&mut rng) {
                    // One step in 400 is an idle stretch of ~1.6K buckets.
                    floor += if step == 0 { 100_000 } else { step };
                    // Forget first: after an idle stretch the floor is past
                    // everything stored.
                    if forget == 0 {
                        let (before, stored) = (windowed.base, windowed.words.len());
                        windowed.forget_before(floor);
                        forgets += 1;
                        drains += (windowed.base != before) as usize;
                        if (floor / BUCKET_CYCLES) as usize > before + stored {
                            // Nothing stored was at or after the floor: the
                            // window restarts at the floor's bucket.
                            assert_eq!(windowed.base, (floor / BUCKET_CYCLES) as usize);
                            cleared += 1;
                        }
                        // The highest bucket holding a booking bounds the
                        // stored span (`ensure` pads 256 buckets past it).
                        let hi = plain.words.iter().rposition(|&u| u > 0).unwrap_or(0);
                        let ahead = (hi + 257).saturating_sub((floor / BUCKET_CYCLES) as usize);
                        assert!(
                            windowed.words.len() <= 2 * ahead,
                            "case {case}: span {} for {ahead} buckets ahead",
                            windowed.words.len()
                        );
                    }
                    let now = floor + if lead % 50 == 0 { lead * 4 } else { lead };
                    // Mostly short services; one in eight spans buckets.
                    let service = if service % 8 == 0 {
                        service * units as u64 * 8
                    } else {
                        service
                    };
                    let got = windowed.acquire(now, service);
                    assert_eq!(
                        got,
                        plain.acquire(now, service),
                        "case {case}: acquire({now}, {service})"
                    );
                    assert_eq!(
                        windowed.next_free(floor),
                        plain.next_free(floor),
                        "case {case}"
                    );
                }
                assert!(
                    windowed.words.len() * 3 < plain.words.len(),
                    "case {case}: kept {} of {} buckets",
                    windowed.words.len(),
                    plain.words.len()
                );
            }
        }
        assert!(
            drains > 0 && drains < forgets,
            "{drains} of {forgets} forgets dropped a prefix"
        );
        assert!(cleared > 0, "no forget dropped the whole stored span");
    }

    /// The two-word bucket window this module kept before one word per
    /// bucket: booked cycles in `used`, absolute skip pointers in `jump`
    /// (`jump[b - base] == b` iff bucket `b` is not full). Kept as the
    /// oracle the one-word encoding must book exactly like.
    struct TwoWordResource {
        base: usize,
        used: Vec<u32>,
        jump: Vec<u32>,
        capacity: u32,
        units: u64,
    }

    impl TwoWordResource {
        fn new(units: usize) -> Self {
            TwoWordResource {
                base: 0,
                used: Vec::new(),
                jump: Vec::new(),
                capacity: units as u32 * BUCKET_CYCLES as u32,
                units: units as u64,
            }
        }

        fn offset(&self, used: u32) -> u64 {
            (used as u64 / self.units).min(BUCKET_CYCLES - 1)
        }

        fn ensure(&mut self, bucket: usize) {
            let i = bucket - self.base;
            if i >= self.used.len() {
                let new_len = i + 256;
                self.used.resize(new_len, 0);
                let stored = self.base + self.jump.len();
                self.jump
                    .extend(stored as u32..(self.base + new_len) as u32);
            }
        }

        fn skip_full(&mut self, from: usize) -> usize {
            let (base, end) = (self.base, self.base + self.jump.len());
            let mut b = from;
            while b < end && self.jump[b - base] as usize != b {
                b = self.jump[b - base] as usize;
            }
            let mut c = from;
            while c < b.min(end) && self.jump[c - base] as usize != c {
                let next = self.jump[c - base] as usize;
                self.jump[c - base] = b as u32;
                c = next;
            }
            b
        }

        fn acquire(&mut self, now: u64, service: u64) -> u64 {
            if service == 0 {
                return now;
            }
            let mut bucket = (now / BUCKET_CYCLES) as usize;
            let mut remaining = service;
            let mut start: Option<u64> = None;
            loop {
                self.ensure(bucket);
                let target = self.skip_full(bucket);
                if target != bucket {
                    bucket = target;
                    continue;
                }
                let i = bucket - self.base;
                let take = remaining.min((self.capacity - self.used[i]) as u64) as u32;
                if start.is_none() {
                    start =
                        Some((bucket as u64 * BUCKET_CYCLES + self.offset(self.used[i])).max(now));
                }
                self.used[i] += take;
                remaining -= take as u64;
                if self.used[i] >= self.capacity {
                    self.jump[i] = bucket as u32 + 1;
                }
                if remaining == 0 {
                    return start.unwrap_or(now);
                }
                bucket += 1;
            }
        }

        fn next_free(&self, now: u64) -> u64 {
            let mut bucket = (now / BUCKET_CYCLES) as usize;
            loop {
                let i = bucket - self.base;
                if i >= self.used.len() || self.used[i] < self.capacity {
                    return (bucket as u64 * BUCKET_CYCLES).max(now);
                }
                bucket = (self.jump[i] as usize).max(bucket + 1);
            }
        }

        fn forget_before(&mut self, t: u64) {
            let drop = ((t / BUCKET_CYCLES) as usize).saturating_sub(self.base);
            if drop == 0 || drop * 2 < self.used.len() {
                return;
            }
            let stored = drop.min(self.used.len());
            self.used.drain(..stored);
            self.jump.drain(..stored);
            self.base += drop;
        }
    }

    /// The one-word window books, probes and forgets exactly like the
    /// two-word window it replaced, and stores the same state: each
    /// bucket's word decodes to the oracle's booked cycles when it has
    /// room, and to the oracle's skip target when it is full. Random
    /// streams at 1 and 16 units mix short services with multi-bucket
    /// ones, leads far past the floor, saturating bursts that fill long
    /// prefixes (so skip chains form and compress), and idle stretches
    /// that jump the floor past the whole window. The test checks that
    /// its random cases covered each of those.
    #[test]
    fn one_word_buckets_book_like_two_word_buckets() {
        use proptest::collection::vec;
        use proptest::{seed_for, Strategy, TestRng};

        // (kind, floor step, lead over the floor, service)
        let steps = vec((0u8..32, 0u64..400, 0u64..30_000, 1u64..64), 2_000);
        let (mut spans, mut far, mut long_skips, mut idles) = (0usize, 0usize, 0usize, 0usize);
        for units in [1usize, 16] {
            let cap = units as u64 * BUCKET_CYCLES;
            for case in 0..48 {
                let mut rng = TestRng::new(seed_for("one_word_buckets", case));
                let mut one = BucketedResource::new(units);
                let mut two = TwoWordResource::new(units);
                let mut floor = 0u64;
                for (kind, step, lead, service) in steps.generate(&mut rng) {
                    floor += match kind {
                        // An idle stretch of ~3K buckets.
                        0 => 200_000,
                        _ => step,
                    };
                    if kind == 0 || kind % 8 == 1 {
                        let past_window =
                            (floor / BUCKET_CYCLES) as usize > one.base + one.words.len();
                        idles += (kind == 0 && past_window) as usize;
                        one.forget_before(floor);
                        two.forget_before(floor);
                        assert_eq!(one.base, two.base, "case {case}");
                    }
                    let (now, service) = match kind {
                        // Far lead: like a page walk booked ~1.5M cycles
                        // past the clock.
                        2 => (floor + 1_500_000 + lead, service),
                        // Multi-bucket service.
                        3..=5 => (floor + lead, service * cap / 8),
                        // Saturating burst at the floor: fills a long
                        // prefix later requests must skip.
                        6 => (floor, 40 * cap),
                        _ => (floor + lead / 16, service),
                    };
                    far += (kind == 2) as usize;
                    spans += (service > cap) as usize;
                    let want = two.next_free(floor);
                    assert_eq!(one.next_free(floor), want, "case {case}: probe {floor}");
                    long_skips += (want >= floor + 32 * BUCKET_CYCLES) as usize;
                    assert_eq!(
                        one.acquire(now, service),
                        two.acquire(now, service),
                        "case {case}, {units} units: acquire({now}, {service})"
                    );
                }
                assert_eq!(one.words.len(), two.used.len(), "case {case}");
                for (i, &word) in one.words.iter().enumerate() {
                    let b = one.base + i;
                    if word < one.capacity {
                        assert_eq!((word, two.jump[i] as usize), (two.used[i], b), "bucket {b}");
                    } else {
                        assert_eq!(two.used[i], two.capacity, "bucket {b}");
                        assert_eq!(one.next_of(b, word), two.jump[i] as usize, "bucket {b}");
                    }
                }
            }
        }
        assert!(spans > 10_000, "{spans} multi-bucket services");
        assert!(far > 3_000, "{far} far leads");
        assert!(
            long_skips > 10_000,
            "{long_skips} probes skipped a saturated prefix"
        );
        assert!(
            idles > 50,
            "{idles} idle stretches dropped the whole window"
        );
    }

    #[test]
    fn next_free_probe() {
        let mut r = BucketedResource::new(1);
        assert_eq!(r.next_free(77), 77);
        r.acquire(0, 64);
        assert_eq!(r.next_free(0), BUCKET_CYCLES);
    }
}
