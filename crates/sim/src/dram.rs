//! HBM memory model: per-chiplet channel pools with busy-until queueing.

use mcm_types::{ChipletId, PhysAddr, PhysLayout};

use crate::resources::BucketedResource;

/// The package's DRAM: `channels` HBM channels per chiplet, 256B
/// interleaved (paper §2.6, Table 1).
///
/// An access occupies its channel for `service` cycles (setting per-channel
/// bandwidth) and completes `latency` cycles after service starts.
#[derive(Clone, Debug)]
pub struct Dram {
    layout: PhysLayout,
    channels: Vec<Vec<BucketedResource>>,
    latency: u64,
    service: u64,
}

impl Dram {
    /// Creates the DRAM model.
    ///
    /// # Panics
    ///
    /// Panics if `channels_per_chiplet` is zero.
    pub fn new(
        layout: PhysLayout,
        channels_per_chiplet: usize,
        latency: u64,
        service: u64,
    ) -> Self {
        assert!(channels_per_chiplet > 0);
        Dram {
            layout,
            channels: vec![
                vec![BucketedResource::new(1); channels_per_chiplet];
                layout.num_chiplets()
            ],
            latency,
            service,
        }
    }

    /// Drops channel occupancy before cycle `t`: no access will start
    /// before it again (see [`BucketedResource::forget_before`]).
    pub fn forget_before(&mut self, t: u64) {
        for ch in self.channels.iter_mut().flatten() {
            ch.forget_before(t);
        }
    }

    /// Heap bytes the channels' bucket windows hold (see
    /// [`BucketedResource::bucket_bytes`]).
    pub fn bucket_bytes(&self) -> usize {
        self.channels
            .iter()
            .flatten()
            .map(BucketedResource::bucket_bytes)
            .sum()
    }

    /// Issues one line access to `pa` on `chiplet`'s channels at time
    /// `now` (the owner of `pa`, or the requester for remote-data caches
    /// that carve local DRAM capacity, e.g. NUBA). Returns
    /// `(done, queued)`: the completion time (queueing + service + access
    /// latency) and the cycles the access queued for its busy channel.
    pub fn access_at(&mut self, chiplet: ChipletId, pa: PhysAddr, now: u64) -> (u64, u64) {
        let n = self.channels[chiplet.index()].len();
        let ch = self.layout.channel_of(pa, n);
        let start = self.channels[chiplet.index()][ch].acquire(now, self.service);
        (start + self.latency, start - now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_channels_do_not_queue() {
        let mut d = Dram::new(PhysLayout::new(4), 4, 100, 5);
        // Two addresses on chiplet 0, different 256B channels.
        let c0 = ChipletId::new(0);
        assert_eq!(d.access_at(c0, PhysAddr::new(0), 0), (100, 0));
        assert_eq!(d.access_at(c0, PhysAddr::new(256), 0), (100, 0));
    }

    #[test]
    fn same_channel_queues() {
        let mut d = Dram::new(PhysLayout::new(4), 4, 100, 5);
        let c0 = ChipletId::new(0);
        assert_eq!(d.access_at(c0, PhysAddr::new(0), 0), (100, 0));
        // Wraps to channel 0: queues behind the first access.
        assert_eq!(d.access_at(c0, PhysAddr::new(4 * 256), 0), (105, 5));
    }

    #[test]
    fn chiplets_are_independent() {
        let layout = PhysLayout::new(4);
        let mut d = Dram::new(layout, 1, 100, 5);
        for pa in [PhysAddr::new(0), PhysAddr::new(2 * 1024 * 1024)] {
            // Chiplet 0's and chiplet 1's only channel.
            assert_eq!(d.access_at(layout.chiplet_of(pa), pa, 0), (100, 0));
        }
    }
}
