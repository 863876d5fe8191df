//! Stream pinning: every warp access stream of every suite workload, at
//! the quick scale, hashes to a fixed digest.
//!
//! Both engines and every golden are downstream of these streams, so a
//! generator change that keeps all digests keeps every result too. One
//! digest per workload and seed covers every kernel, threadblock and
//! warp. If a stream change is intentional, the goldens change with it;
//! print the new digests with `cargo test --release --test streams --
//! --nocapture` and update the table.

use std::hash::Hasher;

use clap_repro::sim::Workload;
use clap_repro::types::{Fnv1a, TbId, WarpId};
use clap_repro::workloads::{suite, SyntheticWorkload, WorkloadBuilder};

/// Threadblock divisor of the quick scale (`Harness::quick`).
const QUICK_TB_DIV: u32 = 4;

/// `(workload, digest)` at the default seed, then at seed 1301.
const DIGESTS: [[(&str, u64); 15]; 2] = [
    [
        ("STE", 0x43d2031c008672cd),
        ("3DC", 0x924606d3f6c6a537),
        ("LPS", 0x3ba7b88af1f4342f),
        ("PAF", 0xfb9240d1485fa459),
        ("SC", 0x8a43ab8d7d575377),
        ("BFS", 0xcbb3ec0098fa740d),
        ("2DC", 0xe15b19ba3b4b7d89),
        ("FDT", 0x3eb7921c6e467a15),
        ("BLK", 0xf13a808df767d3e1),
        ("SSSP", 0x68c203542e892058),
        ("DWT", 0x8d56c67e505e715d),
        ("LUD", 0xa44c2f5d5e5bfbf5),
        ("ViT", 0x569d54ae04c8f7d7),
        ("RES50", 0xe4af21a5886be721),
        ("GPT3", 0xb26d281f82485d21),
    ],
    [
        ("STE", 0x2ddac7727cc716e9),
        ("3DC", 0xceb49ec899278d23),
        ("LPS", 0xb42f60927a27e78e),
        ("PAF", 0x82fd27511d65689a),
        ("SC", 0xc90520106c149851),
        ("BFS", 0xe0d71545b0148925),
        ("2DC", 0x86747a0526d278b5),
        ("FDT", 0x6a47ebfa8a962b69),
        ("BLK", 0x3f5827f5a657d38d),
        ("SSSP", 0xc99574b9c47e6717),
        ("DWT", 0x11baea58d5afd4e5),
        ("LUD", 0x21183c232a08ead9),
        ("ViT", 0xdac808209bd6c0d7),
        ("RES50", 0xfed6e59fa80e7221),
        ("GPT3", 0x9e42a7e4d3444d3d),
    ],
];

/// `w` with a new seed, rebuilt from its allocations and kernels.
fn reseed(w: &SyntheticWorkload, seed: u64) -> SyntheticWorkload {
    let mut b = WorkloadBuilder::new(w.name()).seed(seed);
    for a in w.allocs() {
        b = b.alloc(a.name.clone(), a.bytes);
    }
    for k in w.kernels() {
        b = b.kernel(k.clone());
    }
    b.build()
}

/// FNV-1a over every stream of `w`, in kernel, TB, warp order: each
/// stream's length, then its addresses.
fn digest(w: &SyntheticWorkload) -> u64 {
    let mut h = Fnv1a::default();
    let mut buf = Vec::new();
    for k in 0..w.num_kernels() {
        let desc = w.kernel(k);
        for t in 0..desc.num_tbs {
            for warp in 0..desc.warps_per_tb {
                w.warp_accesses_into(k, TbId::new(t), WarpId::new(warp), &mut buf);
                h.write_u64(buf.len() as u64);
                for va in &buf {
                    h.write_u64(va.raw());
                }
            }
        }
    }
    h.finish()
}

#[test]
fn quick_streams_match_pinned_digests() {
    let seeded: [Vec<SyntheticWorkload>; 2] = [
        suite::all(),
        suite::all().iter().map(|w| reseed(w, 1301)).collect(),
    ];
    let mut diffs = Vec::new();
    for (set, want) in seeded.iter().zip(DIGESTS) {
        assert_eq!(set.len(), want.len());
        for (w, (name, d)) in set.iter().zip(want) {
            assert_eq!(w.name(), name);
            let got = digest(&w.clone().with_tb_scale(1, QUICK_TB_DIV));
            println!("(\"{name}\", {got:#018x}),");
            if got != d {
                diffs.push(format!("{name}: {got:#018x} != {d:#018x}"));
            }
        }
    }
    assert!(diffs.is_empty(), "stream digests changed: {diffs:?}");
}
