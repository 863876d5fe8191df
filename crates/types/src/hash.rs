//! Hand-rolled hashing shared across the workspace.
//!
//! Two hashers live here, both dependency-free and stable across
//! toolchains:
//!
//! * [`fnv1a`] — FNV-1a over bytes. The bench telemetry layer fingerprints
//!   configurations with it so resumed sweeps recognize journal records
//!   written by an earlier process (`DefaultHasher` output may change
//!   between toolchains). [`Fnv1a`] is the same hash as a streaming
//!   `Hasher`.
//! * [`FxHasher64`] — an Fx-style multiply-xor hasher for hot-path hash
//!   maps keyed by small integers (page-table VPNs, walk-MSHR page keys).
//!   SipHash, the `std` default, costs more than the table probe itself on
//!   these paths; Fx hashing is a single round of xor + rotate + multiply
//!   per word with good avalanche behaviour on dense keys.
//!
//! [`FastMap`] and [`FastSet`] are the drop-in `HashMap` and `HashSet`
//! aliases using [`FxHasher64`].

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a 64-bit hash — the stable fingerprint used by sweep telemetry
/// (matching journal records on resume) and anywhere else a
/// toolchain-independent digest of a string is needed.
pub fn fnv1a(s: &str) -> u64 {
    let mut h = Fnv1a::default();
    h.write(s.as_bytes());
    h.finish()
}

/// FNV-1a as a streaming [`Hasher`]: the digest of every byte written, in
/// order. Integers reach it through `Hasher`'s default methods as
/// native-endian bytes, so a digest of `Hash` values is stable within one
/// platform only — right for in-memory cache keys, not for files.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Multiplier used by [`FxHasher64`]: the 64-bit golden-ratio constant
/// (same family as the FNV prime's role — spreads consecutive keys across
/// the whole output range).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An Fx-style `Hasher` over 64-bit words: `h = (rotl5(h) ^ w) * K`.
///
/// Built for hash maps whose keys are small integers (VPNs, page keys,
/// identifiers). Not cryptographic and not DoS-resistant — simulator
/// state is never attacker-controlled.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher64 {
    hash: u64,
}

impl FxHasher64 {
    #[inline]
    fn add_word(&mut self, w: u64) {
        self.hash = (self.hash.rotate_left(5) ^ w).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.add_word(u64::from_le_bytes(w));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            self.add_word(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher64`].
pub type BuildFxHasher = BuildHasherDefault<FxHasher64>;

/// A `HashMap` using [`FxHasher64`] — the workspace's hot-path map for
/// integer keys.
pub type FastMap<K, V> = HashMap<K, V, BuildFxHasher>;

/// A `HashSet` using [`FxHasher64`], the set form of [`FastMap`].
pub type FastSet<K> = HashSet<K, BuildFxHasher>;

/// Mixes a 64-bit key into a table index hash directly (the standalone
/// form of [`FxHasher64`] for hand-rolled open-addressing tables):
/// hashing one word from the default state rotates a zero accumulator, so
/// the digest reduces to the key times the seed (Fibonacci hashing). The
/// multiplier is odd, so dense keys stay collision-free under any
/// power-of-two mask.
#[inline]
pub fn fx_mix(key: u64) -> u64 {
    key.wrapping_mul(FX_SEED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(""), 0xcbf29ce484222325);
        assert_eq!(fnv1a("a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fx_hasher_spreads_dense_keys() {
        // Consecutive VPNs must land in distinct buckets of a small
        // power-of-two table (the page-table workload).
        let buckets = 1usize << 10;
        let mut seen = std::collections::HashSet::new();
        for vpn in 0u64..512 {
            let mut h = FxHasher64::default();
            h.write_u64(vpn);
            seen.insert((h.finish() as usize) & (buckets - 1));
        }
        assert!(
            seen.len() > 384,
            "dense keys collide: {} buckets",
            seen.len()
        );
    }

    #[test]
    fn fx_mix_agrees_with_hasher_single_word() {
        let mut h = FxHasher64::default();
        h.write_u64(0xdead_beef);
        assert_eq!(h.finish(), fx_mix(0xdead_beef));
    }

    #[test]
    fn fast_map_round_trips() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for k in 0..100u64 {
            m.insert(k * 7, k as u32);
        }
        for k in 0..100u64 {
            assert_eq!(m.get(&(k * 7)), Some(&(k as u32)));
        }
        assert_eq!(m.len(), 100);
    }
}
