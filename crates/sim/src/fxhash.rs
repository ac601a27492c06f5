//! A small, fast, non-cryptographic hasher for the per-event maps.
//!
//! std's default `RandomState` (SipHash-1-3) guards against hash
//! flooding, which a closed simulator has no use for, and it costs a
//! measurable share of every read: the HDFS client, the datanodes, the
//! page caches and the [`crate::ext::Extensions`] lookup behind every
//! shared-state access all hash small integer keys. This is the Fx hash
//! used by rustc (`rustc-hash`): per word, rotate, xor and multiply.
//!
//! The hasher is seedless, so a map's iteration order is a function of
//! its insertion history alone. Code must still not let that order
//! reach simulated state; vread-lint's `unordered-iter` rule treats
//! [`FxHashMap`]/[`FxHashSet`] like their std counterparts.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed through [`FxHasher`]; build with `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed through [`FxHasher`]; build with `FxHashSet::default()`.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx word hasher (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn hashes_are_seedless_and_spread() {
        assert_eq!(fx(42u64), fx(42u64));
        assert_ne!(fx((1u64, 2u64)), fx((2u64, 1u64)));
        assert_ne!(fx("abc"), fx("abd"));
        let mut m: FxHashMap<(u64, u64), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((u64::from(i) / 7, u64::from(i)), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(3, 21)], 21);
        let s: FxHashSet<u64> = (0..10).collect();
        assert!(s.contains(&9) && !s.contains(&10));
    }
}
