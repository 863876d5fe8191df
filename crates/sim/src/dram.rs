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
    queue_cycles: u64,
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
            queue_cycles: 0,
        }
    }

    /// Total cycles requests spent queueing for busy channels.
    pub fn queue_cycles(&self) -> u64 {
        self.queue_cycles
    }

    /// Issues one line access to the chiplet owning `pa` at time `now`.
    /// Returns the completion time (queueing + service + access latency).
    pub fn access(&mut self, pa: PhysAddr, now: u64) -> u64 {
        let chiplet = self.layout.chiplet_of(pa);
        self.access_at(chiplet, pa, now)
    }

    /// Issues one line access explicitly on `chiplet` (used by remote-data
    /// caches that carve local DRAM capacity, e.g. NUBA).
    pub fn access_at(&mut self, chiplet: ChipletId, pa: PhysAddr, now: u64) -> u64 {
        let n = self.channels[chiplet.index()].len();
        let ch = self.layout.channel_of(pa, n);
        let start = self.channels[chiplet.index()][ch].acquire(now, self.service);
        self.queue_cycles += start - now;
        start + self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_channels_do_not_queue() {
        let mut d = Dram::new(PhysLayout::new(4), 4, 100, 5);
        // Two addresses on chiplet 0, different 256B channels.
        let t1 = d.access(PhysAddr::new(0), 0);
        let t2 = d.access(PhysAddr::new(256), 0);
        assert_eq!(t1, 100);
        assert_eq!(t2, 100);
    }

    #[test]
    fn same_channel_queues() {
        let mut d = Dram::new(PhysLayout::new(4), 4, 100, 5);
        let t1 = d.access(PhysAddr::new(0), 0);
        let t2 = d.access(PhysAddr::new(4 * 256), 0); // wraps to channel 0
        assert_eq!(t1, 100);
        assert_eq!(t2, 105);
        assert_eq!(d.queue_cycles(), 5);
    }

    #[test]
    fn chiplets_are_independent() {
        let mut d = Dram::new(PhysLayout::new(4), 1, 100, 5);
        let t1 = d.access(PhysAddr::new(0), 0); // chiplet 0
        let t2 = d.access(PhysAddr::new(2 * 1024 * 1024), 0); // chiplet 1
        assert_eq!(t1, 100);
        assert_eq!(t2, 100);
    }
}
