//! The simulator's one hasher: a fast, deterministic Fx-style hash for the
//! integer keys it makes itself (page numbers, OPT indices, node pairs).
//!
//! Each word folds in as `h = (h + w) * K`; `finish` rotates the
//! well-mixed high bits down so page-aligned keys still spread across
//! buckets. It is not DoS-resistant and need not be: no key comes from
//! outside the program. Iteration order no longer varies between
//! processes, but any iteration that reaches output must still sort first.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The Fx-style word hasher behind [`FastMap`] and [`FastSet`].
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, w: u64) {
        self.0 = self.0.wrapping_add(w).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(w));
        }
    }
    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }
    fn write_u16(&mut self, i: u16) {
        self.add(i.into());
    }
    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed through [`FxHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash<T: std::hash::Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn hashing_is_deterministic_and_separates_keys() {
        assert_eq!(hash(42u64), hash(42u64));
        assert_ne!(hash((1usize, 2usize)), hash((2usize, 1usize)));
        // Sequential and page-aligned keys both spread over the low bits a
        // table indexes with (a random hash fills ~647 of 1024 slots).
        for shift in [0, 12] {
            let low: FastSet<u64> = (0..1024u64).map(|p| hash(p << shift) & 0x3ff).collect();
            assert!(low.len() > 400, "shift {shift}: {} slots", low.len());
        }
    }
}
