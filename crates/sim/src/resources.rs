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
    /// Service cycles already booked per bucket, from `base` on.
    used: Vec<u32>,
    capacity: u32,
    /// Skip pointers over known-full buckets, path-compressed on
    /// traversal (union-find "next maybe-free" chains), stored from
    /// `base` on and holding absolute bucket indices. Booked capacity
    /// never drains, so fullness is monotone and pointers only move
    /// forward. Invariant: `jump[b - base] == b` iff bucket `b` is not
    /// full. Under saturation a request would otherwise rescan thousands
    /// of full buckets between `now` and the service frontier; the skip
    /// chain makes that amortized O(1) with an identical result (full
    /// buckets contribute nothing to a booking).
    jump: Vec<u32>,
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
            used: Vec::new(),
            capacity: units as u32 * BUCKET_CYCLES as u32,
            jump: Vec::new(),
            unit_shift: if units.is_power_of_two() {
                units.trailing_zeros()
            } else {
                u32::MAX
            },
        }
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

    /// Grows the bucket arrays to cover absolute bucket `bucket`.
    #[inline]
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

    /// Follows the skip chain from absolute bucket `from` to the first
    /// maybe-free bucket, compressing the traversed path. The result may
    /// point one past the stored arrays (caller re-ensures capacity).
    #[inline]
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
        // Fast path: the request's own bucket is stored, is not full, and
        // absorbs the whole booking — the overwhelmingly common case for
        // short services on an uncongested resource. Identical to one
        // iteration of the general loop below.
        let i = bucket.wrapping_sub(self.base);
        if i < self.used.len()
            && self.jump[i] as usize == bucket
            && self.used[i] as u64 + service <= self.capacity as u64
        {
            let start = (bucket as u64 * BUCKET_CYCLES + self.offset(self.used[i])).max(now);
            self.used[i] += service as u32;
            if self.used[i] >= self.capacity {
                self.jump[i] = bucket as u32 + 1;
            }
            return start;
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
            // Invariant: an identity pointer means spare capacity.
            let i = bucket - self.base;
            let free = self.capacity - self.used[i];
            let take = remaining.min(free as u64) as u32;
            if start.is_none() {
                start = Some((bucket as u64 * BUCKET_CYCLES + self.offset(self.used[i])).max(now));
            }
            self.used[i] += take;
            remaining -= take as u64;
            if self.used[i] >= self.capacity {
                self.jump[i] = bucket as u32 + 1;
            }
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
            let i = bucket.wrapping_sub(self.base);
            if i >= self.used.len() || self.used[i] < self.capacity {
                return (bucket as u64 * BUCKET_CYCLES).max(now);
            }
            // Full buckets carry a forward pointer (`acquire` set it when
            // the bucket filled).
            bucket = (self.jump[i] as usize).max(bucket + 1);
        }
    }

    /// Drops the buckets before the one holding cycle `t`: the caller
    /// promises never to book or probe before `t` again. The prefix goes
    /// only once it is at least half the stored span, so the copy this
    /// costs is amortized O(1) per stored bucket, and memory stays
    /// proportional to how far bookings run ahead of `t`.
    pub fn forget_before(&mut self, t: u64) {
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
                        let (before, stored) = (windowed.base, windowed.used.len());
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
                        let hi = plain.used.iter().rposition(|&u| u > 0).unwrap_or(0);
                        let ahead = (hi + 257).saturating_sub((floor / BUCKET_CYCLES) as usize);
                        assert!(
                            windowed.used.len() <= 2 * ahead,
                            "case {case}: span {} for {ahead} buckets ahead",
                            windowed.used.len()
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
                    windowed.used.len() * 3 < plain.used.len(),
                    "case {case}: kept {} of {} buckets",
                    windowed.used.len(),
                    plain.used.len()
                );
            }
        }
        assert!(
            drains > 0 && drains < forgets,
            "{drains} of {forgets} forgets dropped a prefix"
        );
        assert!(cleared > 0, "no forget dropped the whole stored span");
    }

    #[test]
    fn next_free_probe() {
        let mut r = BucketedResource::new(1);
        assert_eq!(r.next_free(77), 77);
        r.acquire(0, 64);
        assert_eq!(r.next_free(0), BUCKET_CYCLES);
    }
}
