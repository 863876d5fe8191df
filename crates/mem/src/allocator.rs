//! The block-based physical frame allocator (paper §4.1).

use std::collections::{HashMap, VecDeque};

use mcm_types::{AllocId, ChipletId, PageSize, PhysAddr, PhysLayout, VA_BLOCK_BYTES};

use crate::MemError;

/// Key of one free list: frames of one size, on one chiplet, dedicated to
/// one data structure (paper §4.7 keeps a free list per data structure so a
/// PF block is never shared between structures).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct ListKey {
    chiplet: ChipletId,
    size: PageSize,
    alloc: AllocId,
}

/// Bookkeeping for one PF block that has been split into frames.
#[derive(Clone, Debug)]
struct BlockState {
    key: ListKey,
    /// Total frames the block was split into.
    total: u32,
    /// Frames currently handed out to the caller.
    allocated: u32,
    /// Bit `i` set means frame `i` of this block is handed out.
    bitmap: Vec<u64>,
}

impl BlockState {
    fn new(key: ListKey, total: u32) -> Self {
        BlockState {
            key,
            total,
            allocated: 0,
            bitmap: vec![0; (total as usize).div_ceil(64)],
        }
    }

    fn is_set(&self, i: u32) -> bool {
        self.bitmap[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    fn set(&mut self, i: u32) {
        self.bitmap[(i / 64) as usize] |= 1 << (i % 64);
    }

    fn clear(&mut self, i: u32) {
        self.bitmap[(i / 64) as usize] &= !(1 << (i % 64));
    }
}

/// Counters exposed by [`FrameAllocator::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocatorStats {
    /// Frames handed out.
    pub allocs: u64,
    /// Frames returned.
    pub frees: u64,
    /// PF blocks split into frames.
    pub block_splits: u64,
    /// PF blocks fully reclaimed.
    pub block_reclaims: u64,
    /// 2MB frames downgraded to 64KB frames (OLP reservation releases).
    pub downgrades: u64,
    /// Allocations that had to fall back to a non-preferred chiplet.
    pub chiplet_fallbacks: u64,
}

/// Block-based physical frame allocator.
///
/// Physical memory is a set of 2MB PF blocks round-robined across chiplets
/// by [`PhysLayout`]. Each chiplet owns `blocks_per_chiplet` blocks. A free
/// PF block is split on demand into frames of a single size for a single
/// data structure, and those frames populate a dedicated free list; when all
/// frames of a block return, the whole block is reclaimed (no external
/// fragmentation across data structures, §4.7).
///
/// # Examples
///
/// ```
/// use mcm_mem::FrameAllocator;
/// use mcm_types::{AllocId, ChipletId, PageSize, PhysLayout};
///
/// let mut a = FrameAllocator::new(PhysLayout::new(4), 4);
/// let c = ChipletId::new(1);
/// let id = AllocId::new(3);
/// let f0 = a.alloc_frame(c, PageSize::Size256K, id)?;
/// let f1 = a.alloc_frame(c, PageSize::Size256K, id)?;
/// // Both frames come from the same PF block, owned by chiplet 1.
/// assert_eq!(a.layout().chiplet_of(f0), c);
/// assert_eq!(f1.distance_from(f0), PageSize::Size256K.bytes());
/// # Ok::<(), mcm_mem::MemError>(())
/// ```
#[derive(Clone, Debug)]
pub struct FrameAllocator {
    layout: PhysLayout,
    blocks_per_chiplet: u64,
    /// Per chiplet: free PF block indices (FIFO for determinism).
    free_blocks: Vec<VecDeque<u64>>,
    /// Free frames per (chiplet, size, alloc).
    lists: HashMap<ListKey, Vec<PhysAddr>>,
    /// Split blocks, by PF block index.
    blocks: HashMap<u64, BlockState>,
    stats: AllocatorStats,
    /// Free-list pick window: 1 = LIFO (dense, deterministic); larger
    /// windows pick pseudo-randomly among the last N free frames, modelling
    /// the frame scatter a real driver's allocator produces.
    scatter_window: usize,
    rng_state: u64,
}

impl FrameAllocator {
    /// Creates an allocator with `blocks_per_chiplet` 2MB PF blocks on each
    /// chiplet of `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `blocks_per_chiplet` is zero.
    pub fn new(layout: PhysLayout, blocks_per_chiplet: u64) -> Self {
        assert!(
            blocks_per_chiplet > 0,
            "need at least one block per chiplet"
        );
        let free_blocks = ChipletId::all(layout.num_chiplets())
            .map(|c| {
                (0..blocks_per_chiplet)
                    .map(|n| layout.block_of_chiplet(c, n))
                    .collect()
            })
            .collect();
        FrameAllocator {
            layout,
            blocks_per_chiplet,
            free_blocks,
            lists: HashMap::new(),
            blocks: HashMap::new(),
            stats: AllocatorStats::default(),
            scatter_window: 1,
            rng_state: 0x5EED_CAFE,
        }
    }

    /// The scatter window every driver-modelling policy allocates with
    /// ([`Self::with_scatter`]).
    pub const DRIVER_SCATTER: usize = 32;

    /// Picks frames pseudo-randomly among the last `window` free-list
    /// entries instead of strict LIFO, modelling real-driver frame scatter
    /// (which defeats accidental physical contiguity; CLAP's reservations
    /// are unaffected because a reservation is one contiguous frame).
    pub fn with_scatter(mut self, window: usize) -> Self {
        self.scatter_window = window.max(1);
        self
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64* — deterministic, cheap.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The physical layout this allocator manages.
    pub fn layout(&self) -> PhysLayout {
        self.layout
    }

    /// PF blocks each chiplet owns.
    pub fn blocks_per_chiplet(&self) -> u64 {
        self.blocks_per_chiplet
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AllocatorStats {
        self.stats
    }

    /// Free (never split) PF blocks remaining on `chiplet`.
    pub fn free_blocks(&self, chiplet: ChipletId) -> usize {
        self.free_blocks[chiplet.index()].len()
    }

    /// Total PF blocks consumed (split) across all chiplets — the metric of
    /// the paper's fragmentation study (§4.7).
    pub fn blocks_consumed(&self) -> usize {
        self.blocks.len()
    }

    /// The chiplet with the most free PF blocks (paper §4.7 picks the
    /// destination "with the fewest mapped pages" on exhaustion).
    pub fn least_loaded_chiplet(&self) -> ChipletId {
        ChipletId::all(self.layout.num_chiplets())
            .max_by_key(|c| self.free_blocks[c.index()].len())
            .unwrap_or(ChipletId::new(0))
    }

    /// Allocates one frame of `size` on `chiplet` for data structure
    /// `alloc`, splitting a fresh PF block if the dedicated free list is
    /// empty.
    ///
    /// # Errors
    ///
    /// [`MemError::ChipletExhausted`] if the dedicated free list is empty
    /// and the chiplet has no free PF block.
    pub fn alloc_frame(
        &mut self,
        chiplet: ChipletId,
        size: PageSize,
        alloc: AllocId,
    ) -> Result<PhysAddr, MemError> {
        let key = ListKey {
            chiplet,
            size,
            alloc,
        };
        if self.lists.get(&key).is_none_or(Vec::is_empty) {
            self.split_block(key)?;
        }
        let pick = self.next_rand() as usize;
        let frame = match self.lists.get_mut(&key) {
            Some(list) if !list.is_empty() => {
                let w = self.scatter_window.min(list.len()).max(1);
                let idx = list.len() - 1 - (pick % w);
                list.swap_remove(idx)
            }
            // split_block ensures a non-empty list; treat a violation as
            // exhaustion rather than corrupting free-list state.
            _ => return Err(MemError::ChipletExhausted { chiplet, size }),
        };
        let block = self.layout.block_of(frame);
        let state = self
            .blocks
            .get_mut(&block)
            .ok_or(MemError::NotAllocated { frame })?;
        let idx = (frame.offset_in(VA_BLOCK_BYTES) / size.bytes()) as u32;
        debug_assert!(!state.is_set(idx), "frame handed out twice");
        state.set(idx);
        state.allocated += 1;
        self.stats.allocs += 1;
        Ok(frame)
    }

    /// Like [`alloc_frame`](Self::alloc_frame) but falls back to the least
    /// loaded chiplet when `chiplet` is exhausted, mirroring the paper's
    /// exhaustion handling (§4.7). Returns the frame and the chiplet that
    /// actually served it.
    ///
    /// # Errors
    ///
    /// [`MemError::ChipletExhausted`] if every chiplet is exhausted.
    pub fn alloc_frame_or_fallback(
        &mut self,
        chiplet: ChipletId,
        size: PageSize,
        alloc: AllocId,
    ) -> Result<(PhysAddr, ChipletId), MemError> {
        match self.alloc_frame(chiplet, size, alloc) {
            Ok(f) => Ok((f, chiplet)),
            Err(MemError::ChipletExhausted { .. }) => {
                let fallback = self.least_loaded_chiplet();
                let f = self.alloc_frame(fallback, size, alloc)?;
                self.stats.chiplet_fallbacks += 1;
                Ok((f, fallback))
            }
            Err(e) => Err(e),
        }
    }

    /// Returns a frame previously obtained from
    /// [`alloc_frame`](Self::alloc_frame). Reclaims the whole PF block once
    /// its last frame returns.
    ///
    /// # Errors
    ///
    /// * [`MemError::Misaligned`] if `frame` is not `size`-aligned.
    /// * [`MemError::NotAllocated`] if the frame is not currently handed out
    ///   under this `(size, alloc)` key.
    pub fn free_frame(
        &mut self,
        frame: PhysAddr,
        size: PageSize,
        alloc: AllocId,
    ) -> Result<(), MemError> {
        if !frame.is_aligned(size.bytes()) {
            return Err(MemError::Misaligned {
                addr: frame.raw(),
                align: size.bytes(),
            });
        }
        let block = self.layout.block_of(frame);
        let chiplet = self.layout.chiplet_of(frame);
        let key = ListKey {
            chiplet,
            size,
            alloc,
        };
        let state = self
            .blocks
            .get_mut(&block)
            .filter(|s| s.key == key)
            .ok_or(MemError::NotAllocated { frame })?;
        let idx = (frame.offset_in(VA_BLOCK_BYTES) / size.bytes()) as u32;
        debug_assert!(idx < state.total, "frame index within the split block");
        if !state.is_set(idx) {
            return Err(MemError::NotAllocated { frame });
        }
        state.clear(idx);
        state.allocated -= 1;
        self.stats.frees += 1;
        if state.allocated == 0 {
            self.reclaim_block(block);
        } else {
            self.lists.entry(key).or_default().push(frame);
        }
        Ok(())
    }

    /// Downgrades an allocated 2MB frame into 64KB frames: the sub-frames
    /// marked `true` in `used` stay allocated (they hold mapped pages); the
    /// rest go to the structure's 64KB free list for reuse by later demand
    /// mappings. This is the OLP reservation-release path (paper §4.2 ⓒ).
    ///
    /// Returns the number of 64KB frames released to the free list.
    ///
    /// # Errors
    ///
    /// * [`MemError::Misaligned`] if `frame` is not 2MB-aligned.
    /// * [`MemError::NotAllocated`] if `frame` is not an allocated 2MB frame
    ///   of `alloc`.
    ///
    /// # Panics
    ///
    /// Panics if `used.len()` is not 32 (the number of 64KB frames in 2MB).
    pub fn downgrade_block(
        &mut self,
        frame: PhysAddr,
        alloc: AllocId,
        used: &[bool],
    ) -> Result<usize, MemError> {
        assert_eq!(used.len(), 32, "a 2MB block holds exactly 32 64KB frames");
        if !frame.is_aligned(PageSize::Size2M.bytes()) {
            return Err(MemError::Misaligned {
                addr: frame.raw(),
                align: PageSize::Size2M.bytes(),
            });
        }
        let block = self.layout.block_of(frame);
        let chiplet = self.layout.chiplet_of(frame);
        let old_key = ListKey {
            chiplet,
            size: PageSize::Size2M,
            alloc,
        };
        match self.blocks.get(&block) {
            Some(s) if s.key == old_key && s.allocated == 1 => {}
            _ => return Err(MemError::NotAllocated { frame }),
        }
        let new_key = ListKey {
            chiplet,
            size: PageSize::Size64K,
            alloc,
        };
        let mut state = BlockState::new(new_key, 32);
        let list = self.lists.entry(new_key).or_default();
        let mut released = 0;
        for (i, &u) in used.iter().enumerate() {
            if u {
                state.set(i as u32);
                state.allocated += 1;
            } else {
                list.push(frame + i as u64 * PageSize::Size64K.bytes());
                released += 1;
            }
        }
        self.stats.downgrades += 1;
        if state.allocated == 0 {
            // Nothing was in use: reclaim the whole block instead of
            // leaving 32 orphan frames on the free list.
            self.blocks.insert(block, state);
            self.reclaim_block(block);
            released = 0;
        } else {
            self.blocks.insert(block, state);
        }
        Ok(released)
    }

    /// Bytes currently allocated (frames handed out, weighted by frame
    /// size) on `chiplet`.
    pub fn allocated_bytes(&self, chiplet: ChipletId) -> u64 {
        self.blocks
            .values()
            .filter(|s| s.key.chiplet == chiplet)
            .map(|s| s.allocated as u64 * s.key.size.bytes())
            .sum()
    }

    /// `true` if `chiplet` can serve at least one more frame of `size` for
    /// `alloc` without falling back.
    pub fn can_alloc(&self, chiplet: ChipletId, size: PageSize, alloc: AllocId) -> bool {
        let key = ListKey {
            chiplet,
            size,
            alloc,
        };
        self.lists.get(&key).is_some_and(|l| !l.is_empty())
            || !self.free_blocks[chiplet.index()].is_empty()
    }

    fn split_block(&mut self, key: ListKey) -> Result<(), MemError> {
        let block = self.free_blocks[key.chiplet.index()].pop_front().ok_or(
            MemError::ChipletExhausted {
                chiplet: key.chiplet,
                size: key.size,
            },
        )?;
        debug_assert_eq!(self.layout.chiplet_of_block(block), key.chiplet);
        let frames = (VA_BLOCK_BYTES / key.size.bytes()) as u32;
        let base = self.layout.block_base(block);
        let list = self.lists.entry(key).or_default();
        // Push in reverse so pops hand frames out in ascending order,
        // keeping reservations physically dense.
        for i in (0..frames).rev() {
            list.push(base + i as u64 * key.size.bytes());
        }
        self.blocks.insert(block, BlockState::new(key, frames));
        self.stats.block_splits += 1;
        Ok(())
    }

    fn reclaim_block(&mut self, block: u64) {
        let Some(state) = self.blocks.remove(&block) else {
            return;
        };
        debug_assert_eq!(state.allocated, 0);
        if let Some(list) = self.lists.get_mut(&state.key) {
            list.retain(|f| self.layout.block_of(*f) != block);
        }
        self.free_blocks[state.key.chiplet.index()].push_back(block);
        self.stats.block_reclaims += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc4() -> FrameAllocator {
        FrameAllocator::new(PhysLayout::new(4), 4)
    }

    const A0: AllocId = AllocId::new(0);
    const A1: AllocId = AllocId::new(1);
    const C0: ChipletId = ChipletId::new(0);
    const C1: ChipletId = ChipletId::new(1);

    #[test]
    fn frames_come_from_requested_chiplet() {
        let mut a = alloc4();
        for c in ChipletId::all(4) {
            let f = a.alloc_frame(c, PageSize::Size64K, A0).unwrap();
            assert_eq!(a.layout().chiplet_of(f), c);
        }
    }

    #[test]
    fn frames_within_a_block_are_dense_and_ascending() {
        let mut a = alloc4();
        let mut prev = None;
        for _ in 0..32 {
            let f = a.alloc_frame(C0, PageSize::Size64K, A0).unwrap();
            if let Some(p) = prev {
                assert_eq!(f.distance_from(p), PageSize::Size64K.bytes());
            }
            prev = Some(f);
        }
        assert_eq!(a.blocks_consumed(), 1);
        // 33rd frame splits a second block.
        a.alloc_frame(C0, PageSize::Size64K, A0).unwrap();
        assert_eq!(a.blocks_consumed(), 2);
    }

    #[test]
    fn distinct_allocs_never_share_a_block() {
        let mut a = alloc4();
        let f0 = a.alloc_frame(C0, PageSize::Size64K, A0).unwrap();
        let f1 = a.alloc_frame(C0, PageSize::Size64K, A1).unwrap();
        assert_ne!(a.layout().block_of(f0), a.layout().block_of(f1));
    }

    #[test]
    fn distinct_sizes_never_share_a_block() {
        let mut a = alloc4();
        let f0 = a.alloc_frame(C0, PageSize::Size64K, A0).unwrap();
        let f1 = a.alloc_frame(C0, PageSize::Size256K, A0).unwrap();
        assert_ne!(a.layout().block_of(f0), a.layout().block_of(f1));
    }

    #[test]
    fn free_reclaims_block_and_allows_reuse_by_other_alloc() {
        let mut a = alloc4();
        let f = a.alloc_frame(C0, PageSize::Size64K, A0).unwrap();
        assert_eq!(a.blocks_consumed(), 1);
        a.free_frame(f, PageSize::Size64K, A0).unwrap();
        assert_eq!(a.blocks_consumed(), 0);
        assert_eq!(a.free_blocks(C0), 4);
        // The reclaimed block is usable by a different structure/size.
        let g = a.alloc_frame(C0, PageSize::Size2M, A1).unwrap();
        assert_eq!(a.layout().chiplet_of(g), C0);
        assert_eq!(a.stats().block_reclaims, 1);
    }

    #[test]
    fn double_free_is_rejected() {
        let mut a = alloc4();
        let f = a.alloc_frame(C0, PageSize::Size64K, A0).unwrap();
        let g = a.alloc_frame(C0, PageSize::Size64K, A0).unwrap();
        a.free_frame(f, PageSize::Size64K, A0).unwrap();
        assert_eq!(
            a.free_frame(f, PageSize::Size64K, A0),
            Err(MemError::NotAllocated { frame: f })
        );
        a.free_frame(g, PageSize::Size64K, A0).unwrap();
    }

    #[test]
    fn free_with_wrong_key_is_rejected() {
        let mut a = alloc4();
        let f = a.alloc_frame(C0, PageSize::Size64K, A0).unwrap();
        assert!(matches!(
            a.free_frame(f, PageSize::Size64K, A1),
            Err(MemError::NotAllocated { .. })
        ));
        assert!(matches!(
            a.free_frame(f, PageSize::Size128K, A0),
            Err(MemError::NotAllocated { .. })
        ));
    }

    #[test]
    fn misaligned_free_is_rejected() {
        let mut a = alloc4();
        let f = a.alloc_frame(C0, PageSize::Size2M, A0).unwrap();
        assert!(matches!(
            a.free_frame(f + 4096, PageSize::Size2M, A0),
            Err(MemError::Misaligned { .. })
        ));
    }

    #[test]
    fn exhaustion_reports_error_then_fallback_works() {
        let mut a = FrameAllocator::new(PhysLayout::new(4), 1);
        a.alloc_frame(C0, PageSize::Size2M, A0).unwrap();
        assert_eq!(
            a.alloc_frame(C0, PageSize::Size2M, A0),
            Err(MemError::ChipletExhausted {
                chiplet: C0,
                size: PageSize::Size2M
            })
        );
        let (f, served) = a.alloc_frame_or_fallback(C0, PageSize::Size2M, A0).unwrap();
        assert_ne!(served, C0);
        assert_eq!(a.layout().chiplet_of(f), served);
        assert_eq!(a.stats().chiplet_fallbacks, 1);
    }

    #[test]
    fn downgrade_releases_unused_subframes() {
        let mut a = alloc4();
        let f = a.alloc_frame(C1, PageSize::Size2M, A0).unwrap();
        let mut used = [false; 32];
        used[0] = true;
        used[5] = true;
        let released = a.downgrade_block(f, A0, &used).unwrap();
        assert_eq!(released, 30);
        // Released frames are immediately reusable as 64KB frames of the
        // same structure, and come in ascending order of address.
        let n0 = a.alloc_frame(C1, PageSize::Size64K, A0).unwrap();
        assert_eq!(a.layout().block_of(n0), a.layout().block_of(f));
        // The used subframes can now be freed as 64KB frames.
        a.free_frame(f, PageSize::Size64K, A0).unwrap();
        a.free_frame(f + 5 * 65536, PageSize::Size64K, A0).unwrap();
    }

    #[test]
    fn downgrade_with_nothing_used_reclaims_block() {
        let mut a = alloc4();
        let f = a.alloc_frame(C1, PageSize::Size2M, A0).unwrap();
        let released = a.downgrade_block(f, A0, &[false; 32]).unwrap();
        assert_eq!(released, 0);
        assert_eq!(a.blocks_consumed(), 0);
        assert_eq!(a.free_blocks(C1), 4);
    }

    #[test]
    fn downgrade_of_unallocated_block_is_rejected() {
        let mut a = alloc4();
        let f = a.alloc_frame(C1, PageSize::Size64K, A0).unwrap();
        let base = f.align_down(VA_BLOCK_BYTES);
        assert!(matches!(
            a.downgrade_block(base, A0, &[false; 32]),
            Err(MemError::NotAllocated { .. })
        ));
    }

    #[test]
    fn allocated_bytes_tracks_handouts() {
        let mut a = alloc4();
        assert_eq!(a.allocated_bytes(C0), 0);
        let f = a.alloc_frame(C0, PageSize::Size256K, A0).unwrap();
        a.alloc_frame(C0, PageSize::Size256K, A0).unwrap();
        assert_eq!(a.allocated_bytes(C0), 2 * PageSize::Size256K.bytes());
        a.free_frame(f, PageSize::Size256K, A0).unwrap();
        assert_eq!(a.allocated_bytes(C0), PageSize::Size256K.bytes());
    }

    #[test]
    fn can_alloc_reflects_capacity() {
        let mut a = FrameAllocator::new(PhysLayout::new(4), 1);
        assert!(a.can_alloc(C0, PageSize::Size64K, A0));
        for _ in 0..32 {
            a.alloc_frame(C0, PageSize::Size64K, A0).unwrap();
        }
        assert!(!a.can_alloc(C0, PageSize::Size64K, A0));
        assert!(!a.can_alloc(C0, PageSize::Size64K, A1));
    }
}
