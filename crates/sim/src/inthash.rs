//! A small deterministic hasher for integer-keyed hot maps.
//!
//! `std`'s default SipHash is keyed per process and costs tens of
//! nanoseconds per lookup, which shows on simulator paths that touch a
//! page map on every event. Page ids, host ids and versions are not
//! attacker-controlled, so one multiply per word plus a SplitMix64
//! finish is enough; the hash is also fixed across processes, so nothing
//! about a run depends on a random key.
//!
//! # Examples
//!
//! ```
//! use dmem_sim::IntMap;
//!
//! let mut versions: IntMap<(usize, u64), u32> = IntMap::default();
//! versions.insert((3, 4096), 7);
//! assert_eq!(versions.get(&(3, 4096)), Some(&7));
//! ```

use crate::rng::splitmix64;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Odd multiplier with well-spread bits (the constant of rustc's FxHash
/// successor).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Add-multiply hasher over integer words.
///
/// Each word is folded in as `h = (h + word) * K`, and
/// [`finish`](Hasher::finish) runs the SplitMix64 mixer so every output
/// bit depends on every input bit. Keys that differ only in their high
/// bits (the same page offset on different hosts) therefore still spread
/// over the low bits a hash table indexes by.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(value)
    }

    #[test]
    fn hash_values_are_pinned() {
        // No per-process key: these values hold in every process and
        // build. Tuples fold their fields in order.
        assert_eq!(hash_of(0u64), 0xe220_a839_7b1d_cdaf);
        assert_eq!(hash_of(1u64), 0xa20c_15d3_0308_8d8e);
        assert_eq!(hash_of((3usize, 4096u64)), 0x6d1a_0c1c_82c6_7f36);
        assert_eq!(hash_of((4096usize, 3u64)), 0x8075_4483_f9f9_4e62);
    }

    #[test]
    fn high_bit_only_keys_spread_over_low_bits() {
        // Pages `host * 4096 + offset` with one offset: only bits >= 12
        // differ, yet the bucket bits (low 10) must still spread.
        let mut buckets = std::collections::HashSet::new();
        for host in 0..1024u64 {
            buckets.insert(hash_of(host * 4096 + 5) & 1023);
        }
        assert!(
            buckets.len() > 512,
            "only {} of 1024 buckets hit",
            buckets.len()
        );
    }
}
