//! Deterministic hashing for integer-keyed maps.
//!
//! `std`'s default `RandomState` runs SipHash under a per-process random
//! key: robust against adversarial keys, which the simulator never sees,
//! and slower than needed for the request ids, slots and page numbers
//! that key its hot maps. [`IdHashMap`] swaps in a multiplicative hasher
//! (the rotate-xor-multiply step of rustc's `FxHasher`) with no key, so a
//! map's layout is the same in every process. Iteration order still
//! depends on insertion history: callers that let it reach output sort.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over small integer keys (ids, slots, pfns and tuples of
/// them), hashed by [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiplicative hasher for integer keys: each word is folded in with a
/// rotate, an xor and one multiply by an odd constant.
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
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
        self.0
    }
}

/// Heap bytes of a `HashMap`'s table, from its capacity (see
/// [`table_heap_bytes`]). For memory attribution only.
#[doc(hidden)]
pub fn map_heap_bytes<K, V, S>(map: &HashMap<K, V, S>) -> usize {
    table_heap_bytes(map.capacity(), std::mem::size_of::<(K, V)>())
}

/// Heap bytes of a `hashbrown` table (the one `std`'s `HashMap` and
/// `HashSet` use) reporting `capacity` and holding `entry`-byte entries:
/// buckets × entry size, plus one control byte per bucket and one
/// trailing 16-byte group. `capacity()` is net of erased-entry
/// tombstones, so the bucket count is the one a table of that capacity
/// needs, as `hashbrown` sizes it. For memory attribution only.
#[doc(hidden)]
pub fn table_heap_bytes(capacity: usize, entry: usize) -> usize {
    let buckets = match capacity {
        0 => return 0,
        1..=3 => 4,
        4..=7 => 8,
        _ => (capacity * 8 / 7).next_power_of_two(),
    };
    buckets * entry + buckets + 16
}

/// Estimated heap bytes of a `BTreeMap`/`BTreeSet` holding `len`
/// `entry`-byte entries: nodes of 11 entries about two-thirds full. For
/// memory attribution only.
#[doc(hidden)]
pub fn btree_heap_bytes(len: usize, entry: usize) -> usize {
    len * entry * 3 / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_keys_same_order_in_every_map() {
        let fill = || {
            let mut m: IdHashMap<(u32, u32), u64> = IdHashMap::default();
            for i in 0..1000u32 {
                m.insert((i % 7, i), i as u64);
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        assert_eq!(fill(), fill(), "no per-map random state");
    }

    #[test]
    fn heap_bytes_follow_capacity() {
        let mut m: IdHashMap<u64, u64> = IdHashMap::default();
        assert_eq!(map_heap_bytes(&m), 0);
        m.insert(1, 1);
        assert_eq!(map_heap_bytes(&m), 4 * 16 + 4 + 16);
        m.extend((0..100).map(|i| (i, i)));
        assert_eq!(map_heap_bytes(&m), 128 * 16 + 128 + 16);
    }
}
