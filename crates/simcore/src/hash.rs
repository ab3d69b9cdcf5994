//! Fast non-cryptographic hashing for simulator-internal maps.
//!
//! The full-system simulator keys several hot hash maps by line addresses
//! and small integer ids. `std`'s default SipHash is DoS-resistant but
//! costly for these 8-byte keys; [`FxHasher`] (the multiply-xor scheme
//! used by rustc) hashes a `u64` in a handful of instructions. Simulator
//! inputs are synthetic, so hash-flooding resistance buys nothing here.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher (the `rustc-hash` algorithm, 64-bit variant).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// An empty [`FxHashMap`] pre-sized for `cap` entries.
pub fn fx_map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(x: u64) -> u64 {
        FxBuildHasher::default().hash_one(x)
    }

    #[test]
    fn u64_hashing_is_deterministic_and_spreads() {
        assert_eq!(hash_of(1234), hash_of(1234));
        assert_ne!(hash_of(0), hash_of(1));
        // Consecutive keys (the common line-address pattern) should not
        // collide in the low bits used by the table index.
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..256u64 {
            low_bits.insert(hash_of(i) & 0xff);
        }
        assert!(
            low_bits.len() > 128,
            "only {} distinct low bytes",
            low_bits.len()
        );
    }

    #[test]
    fn byte_stream_matches_incremental_words() {
        // write() must consume trailing partial words too.
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3]);
        let partial = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3, 0, 0]);
        assert_ne!(partial, FxHasher::default().finish());
        let _ = h2.finish(); // different-length streams may collide or not; just exercise it
    }

    #[test]
    fn map_and_set_roundtrip() {
        let mut m: FxHashMap<u64, u32> = fx_map_with_capacity(64);
        assert!(m.capacity() >= 64);
        for i in 0..1000u64 {
            m.insert(i, (i * 2) as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&500), Some(&1000));
    }
}
