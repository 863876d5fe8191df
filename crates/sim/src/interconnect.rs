//! On-package interconnect topologies.
//!
//! The paper's machine (Table 1: 768GB/s per GPU, 32ns hop latency) is a
//! bidirectional ring, but nothing downstream of the link model cares
//! about the shape: the datapath asks for a request latency and for a
//! transfer's completion time and queueing, and counts them itself.
//! [`Topology`] captures that contract, and [`Ring`], [`Mesh2d`] and
//! [`FullyConnected`] implement it with per-link [`BucketedResource`]
//! occupancy. The shape is selected by
//! [`TopologyKind`](crate::config::TopologyKind) and instantiated with
//! [`build_topology`].

use mcm_types::ChipletId;

use crate::config::{SimConfig, TopologyKind};
use crate::resources::BucketedResource;

/// The interconnect contract the datapath routes through.
///
/// Implementations model a fixed set of directed links, each a
/// [`BucketedResource`]: a transfer walks its route link by link, queueing
/// behind earlier traffic (`service` cycles of occupancy per link) and
/// paying `hop_latency` per hop. Control messages ([`Topology::request`])
/// pay latency only — 16B flits are negligible against 128B link slots.
/// Same-chiplet traffic is free. A topology keeps no tallies: the caller
/// counts each transfer and the queueing [`Topology::transfer`] reports.
///
/// Shape preconditions (chiplet count, grid dimensions) are enforced by
/// [`SimConfig::validate`], not here: constructors accept whatever the
/// validated configuration describes.
pub trait Topology: Send {
    /// Number of chiplets this interconnect joins.
    fn num_chiplets(&self) -> usize;

    /// Hop count along the route a transfer from `src` to `dst` takes
    /// (0 when they are the same chiplet). Pure: no occupancy, no
    /// counters — this is what trace crossing events record.
    fn hops(&self, src: ChipletId, dst: ChipletId) -> u32;

    /// Routes a control message (read request) from `src` to `dst`:
    /// latency only.
    fn request(&mut self, src: ChipletId, dst: ChipletId, now: u64) -> u64;

    /// Transfers one line from `src` to `dst` starting at `now`; returns
    /// `(arrival, queued)`: the arrival time and the cycles the transfer
    /// spent queueing for busy links. Same-chiplet transfers are free:
    /// `(now, 0)`.
    fn transfer(&mut self, src: ChipletId, dst: ChipletId, now: u64) -> (u64, u64);

    /// Drops link occupancy before cycle `t`: no transfer will start
    /// before it again (see [`BucketedResource::forget_before`]).
    fn forget_before(&mut self, t: u64);

    /// Heap bytes the links' bucket windows hold (see
    /// [`BucketedResource::bucket_bytes`]).
    fn bucket_bytes(&self) -> usize;
}

/// Builds the interconnect described by `cfg` (shape from
/// [`SimConfig::topology`], link parameters from
/// [`SimConfig::hop_latency`] / [`SimConfig::link_service`]).
///
/// `cfg` is expected to have passed [`SimConfig::validate`], which checks
/// the shape preconditions (≥ 2 chiplets; mesh grid matching the chiplet
/// count).
pub fn build_topology(cfg: &SimConfig) -> Box<dyn Topology> {
    match cfg.topology {
        TopologyKind::Ring => Box::new(Ring::new(
            cfg.num_chiplets,
            cfg.hop_latency,
            cfg.link_service,
        )),
        TopologyKind::Mesh2d { rows, cols } => {
            Box::new(Mesh2d::new(rows, cols, cfg.hop_latency, cfg.link_service))
        }
        TopologyKind::FullyConnected => Box::new(FullyConnected::new(
            cfg.num_chiplets,
            cfg.hop_latency,
            cfg.link_service,
        )),
    }
}

/// A bidirectional ring of chiplets. Each direction of each adjacent-pair
/// link is a [`BucketedResource`]; a transfer takes the shortest path,
/// occupying each link on the way for `service` cycles and adding
/// `hop_latency` per hop.
#[derive(Clone, Debug)]
pub struct Ring {
    n: usize,
    /// `links[dir][i]`: link from chiplet `i` to its neighbour
    /// (dir 0: towards `i+1`, dir 1: towards `i-1`).
    links: Vec<Vec<BucketedResource>>,
    hop_latency: u64,
    service: u64,
}

impl Ring {
    /// Creates a ring over `n` chiplets. A ring needs at least two; the
    /// shape is checked by [`SimConfig::validate`].
    pub fn new(n: usize, hop_latency: u64, service: u64) -> Self {
        debug_assert!(n >= 2, "a ring needs at least two chiplets");
        Ring {
            n,
            links: vec![vec![BucketedResource::new(1); n]; 2],
            hop_latency,
            service,
        }
    }

    /// Shortest-direction hop count between two positions on the ring.
    fn ring_hops(&self, a: usize, b: usize) -> usize {
        let fwd = (b + self.n - a) % self.n;
        fwd.min(self.n - fwd)
    }
}

impl Topology for Ring {
    fn num_chiplets(&self) -> usize {
        self.n
    }

    fn hops(&self, src: ChipletId, dst: ChipletId) -> u32 {
        self.ring_hops(src.index(), dst.index()) as u32
    }

    fn request(&mut self, src: ChipletId, dst: ChipletId, now: u64) -> u64 {
        if src == dst {
            return now;
        }
        now + self.hop_latency * self.ring_hops(src.index(), dst.index()) as u64
    }

    fn transfer(&mut self, src: ChipletId, dst: ChipletId, now: u64) -> (u64, u64) {
        if src == dst {
            return (now, 0);
        }
        let a = src.index();
        let b = dst.index();
        let fwd = (b + self.n - a) % self.n;
        let (dir, hops) = if fwd <= self.n - fwd {
            (0usize, fwd)
        } else {
            (1usize, self.n - fwd)
        };
        let (mut t, mut queued) = (now, 0);
        let mut pos = a;
        for _ in 0..hops {
            let start = self.links[dir][pos].acquire(t, self.service);
            queued += start - t;
            t = start + self.hop_latency;
            pos = if dir == 0 {
                (pos + 1) % self.n
            } else {
                (pos + self.n - 1) % self.n
            };
        }
        (t, queued)
    }

    fn forget_before(&mut self, t: u64) {
        for link in self.links.iter_mut().flatten() {
            link.forget_before(t);
        }
    }

    fn bucket_bytes(&self) -> usize {
        self.links
            .iter()
            .flatten()
            .map(BucketedResource::bucket_bytes)
            .sum()
    }
}

/// A 2D mesh of `rows × cols` chiplets with dimension-ordered (XY)
/// routing: a transfer first walks along its row to the destination
/// column, then along that column to the destination row. No wraparound
/// links. Chiplet `i` sits at grid position `(i / cols, i % cols)`.
#[derive(Clone, Debug)]
pub struct Mesh2d {
    rows: usize,
    cols: usize,
    /// `links[node * 4 + dir]`: the directed link leaving `node` towards
    /// dir 0 = east (`col + 1`), 1 = west, 2 = south (`row + 1`),
    /// 3 = north. Edge nodes simply never use their missing directions.
    links: Vec<BucketedResource>,
    hop_latency: u64,
    service: u64,
}

/// Directed-link indices for [`Mesh2d::links`].
const EAST: usize = 0;
const WEST: usize = 1;
const SOUTH: usize = 2;
const NORTH: usize = 3;

impl Mesh2d {
    /// Creates a `rows × cols` mesh. The grid must cover at least two
    /// chiplets; the shape is checked by [`SimConfig::validate`].
    pub fn new(rows: usize, cols: usize, hop_latency: u64, service: u64) -> Self {
        debug_assert!(rows * cols >= 2, "a mesh needs at least two chiplets");
        Mesh2d {
            rows,
            cols,
            links: vec![BucketedResource::new(1); rows * cols * 4],
            hop_latency,
            service,
        }
    }

    /// Walks one hop from `(r, c)` in `dir`, charging link occupancy and
    /// hop latency to the clock `t` and adding the wait to `queued`.
    fn step(&mut self, r: usize, c: usize, dir: usize, t: &mut u64, queued: &mut u64) {
        let start = self.links[(r * self.cols + c) * 4 + dir].acquire(*t, self.service);
        *queued += start - *t;
        *t = start + self.hop_latency;
    }
}

impl Topology for Mesh2d {
    fn num_chiplets(&self) -> usize {
        self.rows * self.cols
    }

    fn hops(&self, src: ChipletId, dst: ChipletId) -> u32 {
        let (sr, sc) = (src.index() / self.cols, src.index() % self.cols);
        let (dr, dc) = (dst.index() / self.cols, dst.index() % self.cols);
        (sr.abs_diff(dr) + sc.abs_diff(dc)) as u32
    }

    fn request(&mut self, src: ChipletId, dst: ChipletId, now: u64) -> u64 {
        if src == dst {
            return now;
        }
        now + self.hop_latency * self.hops(src, dst) as u64
    }

    fn transfer(&mut self, src: ChipletId, dst: ChipletId, now: u64) -> (u64, u64) {
        if src == dst {
            return (now, 0);
        }
        let (mut r, mut c) = (src.index() / self.cols, src.index() % self.cols);
        let (dr, dc) = (dst.index() / self.cols, dst.index() % self.cols);
        let (mut t, mut queued) = (now, 0);
        while c != dc {
            let dir = if dc > c { EAST } else { WEST };
            self.step(r, c, dir, &mut t, &mut queued);
            c = if dc > c { c + 1 } else { c - 1 };
        }
        while r != dr {
            let dir = if dr > r { SOUTH } else { NORTH };
            self.step(r, c, dir, &mut t, &mut queued);
            r = if dr > r { r + 1 } else { r - 1 };
        }
        (t, queued)
    }

    fn forget_before(&mut self, t: u64) {
        for link in &mut self.links {
            link.forget_before(t);
        }
    }

    fn bucket_bytes(&self) -> usize {
        self.links.iter().map(BucketedResource::bucket_bytes).sum()
    }
}

/// A fully-connected (all-to-all) package: every ordered chiplet pair has
/// its own directed link, so every transfer is exactly one hop and only
/// contends with traffic on the same pair.
#[derive(Clone, Debug)]
pub struct FullyConnected {
    n: usize,
    /// `links[src * n + dst]`: the directed link from `src` to `dst`.
    links: Vec<BucketedResource>,
    hop_latency: u64,
    service: u64,
}

impl FullyConnected {
    /// Creates an all-to-all interconnect over `n` chiplets (at least
    /// two; the shape is checked by [`SimConfig::validate`]).
    pub fn new(n: usize, hop_latency: u64, service: u64) -> Self {
        debug_assert!(n >= 2, "an interconnect needs at least two chiplets");
        FullyConnected {
            n,
            links: vec![BucketedResource::new(1); n * n],
            hop_latency,
            service,
        }
    }
}

impl Topology for FullyConnected {
    fn num_chiplets(&self) -> usize {
        self.n
    }

    fn hops(&self, src: ChipletId, dst: ChipletId) -> u32 {
        u32::from(src != dst)
    }

    fn request(&mut self, src: ChipletId, dst: ChipletId, now: u64) -> u64 {
        if src == dst {
            return now;
        }
        now + self.hop_latency
    }

    fn transfer(&mut self, src: ChipletId, dst: ChipletId, now: u64) -> (u64, u64) {
        if src == dst {
            return (now, 0);
        }
        let start = self.links[src.index() * self.n + dst.index()].acquire(now, self.service);
        (start + self.hop_latency, start - now)
    }

    fn forget_before(&mut self, t: u64) {
        for link in &mut self.links {
            link.forget_before(t);
        }
    }

    fn bucket_bytes(&self) -> usize {
        self.links.iter().map(BucketedResource::bucket_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u8) -> ChipletId {
        ChipletId::new(i)
    }

    #[test]
    fn local_transfers_are_free() {
        let mut r = Ring::new(4, 36, 1);
        assert_eq!(r.transfer(c(2), c(2), 10), (10, 0));
    }

    #[test]
    fn hop_latency_accumulates_along_path() {
        let mut r = Ring::new(4, 36, 1);
        // 0 -> 1: one hop.
        assert_eq!(r.transfer(c(0), c(1), 0), (36, 0));
        // 0 -> 2: two hops.
        assert_eq!(r.transfer(c(0), c(2), 100), (172, 0));
        // 0 -> 3: one hop the short way (dir 1).
        assert_eq!(r.transfer(c(0), c(3), 200), (236, 0));
    }

    #[test]
    fn link_contention_queues() {
        let mut r = Ring::new(4, 36, 10);
        let t1 = r.transfer(c(0), c(1), 0);
        let t2 = r.transfer(c(0), c(1), 0);
        assert_eq!(t1, (36, 0));
        // The second queued 10 cycles behind the first.
        assert_eq!(t2, (46, 10));
        // Opposite direction is independent.
        let t3 = r.transfer(c(1), c(0), 0);
        assert_eq!(t3, (36, 0));
        // Queueing on every leg of a two-hop route adds up.
        assert_eq!(r.transfer(c(0), c(2), 0), (92, 20));
    }

    #[test]
    fn ring_hops_symmetry_and_bounds() {
        for n in [2usize, 4, 8] {
            let r = Ring::new(n, 36, 1);
            for a in 0..n {
                for b in 0..n {
                    let ca = c(a as u8);
                    let cb = c(b as u8);
                    assert_eq!(r.hops(ca, cb), r.hops(cb, ca));
                    assert!(r.hops(ca, cb) as usize <= n / 2);
                    if a == b {
                        assert_eq!(r.hops(ca, cb), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn ring_hops_examples() {
        let h = |a: u8, b: u8, n| Ring::new(n, 36, 1).hops(c(a), c(b)) as usize;
        assert_eq!(h(0, 1, 4), 1);
        assert_eq!(h(0, 2, 4), 2);
        assert_eq!(h(0, 3, 4), 1);
        assert_eq!(h(1, 5, 8), 4);
        assert_eq!(h(7, 0, 8), 1);
    }

    #[test]
    fn ring_request_is_latency_only() {
        let mut r = Ring::new(4, 36, 10);
        assert_eq!(r.request(c(0), c(2), 5), 77);
        assert_eq!(r.request(c(1), c(1), 5), 5);
        // Requests occupy no links: a transfer right after starts clean.
        assert_eq!(r.transfer(c(0), c(1), 0), (36, 0));
    }

    #[test]
    fn mesh_hops_follow_manhattan_distance() {
        // 2×2 grid: 0 1
        //           2 3
        let m = Mesh2d::new(2, 2, 36, 1);
        let h = |a: u8, b: u8| m.hops(c(a), c(b));
        assert_eq!(h(0, 0), 0);
        assert_eq!(h(0, 1), 1);
        assert_eq!(h(0, 2), 1);
        assert_eq!(h(0, 3), 2);
        assert_eq!(h(3, 0), 2);
        // 2×4 grid: corner-to-corner is 1 + 3 = 4 (no wraparound).
        let m = Mesh2d::new(2, 4, 36, 1);
        assert_eq!(m.hops(c(0), c(7)), 4);
        assert_eq!(m.hops(c(3), c(4)), 4);
    }

    #[test]
    fn mesh_transfer_pays_per_hop() {
        let mut m = Mesh2d::new(2, 2, 36, 1);
        assert_eq!(m.transfer(c(0), c(3), 0), (72, 0));
        assert_eq!(m.transfer(c(1), c(1), 50), (50, 0));
    }

    #[test]
    fn mesh_xy_routing_contends_on_shared_links() {
        // Both 0→3 and 0→1 leave node 0 eastward first (XY order), so the
        // second transfer queues behind the first on link 0→1.
        let mut m = Mesh2d::new(2, 2, 36, 10);
        assert_eq!(m.transfer(c(0), c(3), 0), (72, 0));
        assert_eq!(m.transfer(c(0), c(1), 0), (46, 10));
        // The north/south links are independent of east/west traffic.
        assert_eq!(m.transfer(c(0), c(2), 0), (36, 0));
    }

    #[test]
    fn fully_connected_is_single_hop() {
        let mut f = FullyConnected::new(4, 36, 10);
        assert_eq!(f.transfer(c(0), c(3), 0), (36, 0));
        assert_eq!(f.transfer(c(0), c(3), 0), (46, 10));
        // A different pair never contends.
        assert_eq!(f.transfer(c(3), c(0), 0), (36, 0));
        assert_eq!(f.transfer(c(2), c(2), 9), (9, 0));
        assert_eq!(f.hops(c(1), c(2)), 1);
        assert_eq!(f.hops(c(1), c(1)), 0);
    }

    #[test]
    fn build_topology_matches_config() {
        // Chiplets 0 and 3 are one hop apart on a ring of four, two on a
        // 2×2 mesh and one on an all-to-all package; 0 and 2 are two,
        // one and one.
        let hops = |topology| {
            let t = build_topology(&SimConfig {
                topology,
                ..SimConfig::baseline()
            });
            assert_eq!(t.num_chiplets(), 4);
            let h = |b| t.hops(c(0), c(b));
            (h(3), h(2))
        };
        assert_eq!(hops(TopologyKind::Ring), (1, 2));
        assert_eq!(hops(TopologyKind::Mesh2d { rows: 2, cols: 2 }), (2, 1));
        assert_eq!(hops(TopologyKind::FullyConnected), (1, 1));
    }
}
