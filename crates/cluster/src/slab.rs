//! A dense slab with a LIFO free list: the world's registries for values
//! that live from one event to a later one (delivery payloads, in-flight
//! guest ops).
//!
//! A key is a slot index. It is handed out by [`Slab::insert`], valid until
//! [`Slab::take`] frees the slot, and then reused by the next insert: the
//! most recently freed slot first. Keys therefore carry no meaning beyond
//! "this slot, right now"; a holder that can outlive its slot needs its own
//! guard (as [`crate::world::OpExec::gen`] is for ops).

use std::ops::{Index, IndexMut};

/// A `Vec<Option<T>>` plus the indices of its vacant slots.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub const fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Store `value` and return its key: the most recently freed slot, or
    /// a new one at the end.
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(key) => {
                debug_assert!(self.slots[key as usize].is_none());
                self.slots[key as usize] = Some(value);
                key
            }
            None => {
                let key = u32::try_from(self.slots.len()).expect("slab holds at most 2^32 slots");
                self.slots.push(Some(value));
                key
            }
        }
    }

    /// Remove and return the value at `key`, freeing its slot. `None` if
    /// the slot is vacant or was never handed out.
    pub fn take(&mut self, key: u32) -> Option<T> {
        let value = self.slots.get_mut(key as usize)?.take()?;
        self.free.push(key);
        Some(value)
    }

    /// The value at `key`, if the slot is live.
    pub fn get(&self, key: u32) -> Option<&T> {
        self.slots.get(key as usize)?.as_ref()
    }

    /// The value at `key`, mutably, if the slot is live.
    pub fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        self.slots.get_mut(key as usize)?.as_mut()
    }

    /// Live values.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no slot is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (i as u32, v)))
    }
}

impl<T> Index<u32> for Slab<T> {
    type Output = T;

    /// The value at `key`; panics if the slot is vacant.
    fn index(&self, key: u32) -> &T {
        self.get(key).expect("vacant slab slot")
    }
}

impl<T> IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, key: u32) -> &mut T {
        self.get_mut(key).expect("vacant slab slot")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agile_sim_core::DetRng;
    use std::collections::HashMap;

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut s = Slab::new();
        let keys: Vec<u32> = (0..4).map(|i| s.insert(i)).collect();
        assert_eq!(keys, [0, 1, 2, 3]);
        assert_eq!(s.take(1), Some(1));
        assert_eq!(s.take(3), Some(3));
        assert_eq!(s.insert(10), 3);
        assert_eq!(s.insert(11), 1);
        assert_eq!(s.insert(12), 4);
        assert_eq!(s[1], 11);
        assert_eq!(s[3], 10);
    }

    #[test]
    fn take_of_a_freed_or_unknown_key_is_none() {
        let mut s = Slab::new();
        let k = s.insert("a");
        assert_eq!(s.take(k), Some("a"));
        assert_eq!(s.take(k), None);
        assert_eq!(s.get(k), None);
        assert_eq!(s.take(99), None);
        // The double take must not have pushed the slot twice.
        assert_eq!(s.insert("b"), k);
        assert_eq!(s.insert("c"), k + 1);
    }

    #[test]
    fn len_tracks_live_slots_through_churn() {
        let mut s = Slab::new();
        assert!(s.is_empty());
        let keys: Vec<u32> = (0..100).map(|i| s.insert(i)).collect();
        for &k in keys.iter().step_by(3) {
            s.take(k);
        }
        assert_eq!(s.len(), 100 - 34);
        for i in 0..10 {
            s.insert(1000 + i);
        }
        assert_eq!(s.len(), 100 - 34 + 10);
        assert_eq!(s.iter().count(), s.len());
        s[keys[1]] += 1;
        assert_eq!(s.get(keys[1]), Some(&2));
    }

    /// Random insert/take against a `HashMap` model: every key handed out
    /// maps to its value until taken, a taken key reads vacant, `len`
    /// agrees, and keys stay dense (never past the high-water mark).
    #[test]
    fn matches_a_hashmap_model_under_random_churn() {
        for seed in 0..32 {
            let mut rng = DetRng::seed_from(seed);
            let mut slab = Slab::new();
            let mut model: HashMap<u32, u64> = HashMap::new();
            let mut live: Vec<u32> = Vec::new();
            let mut high_water = 0usize;
            for step in 0..2_000u64 {
                if live.is_empty() || rng.chance(0.55) {
                    let key = slab.insert(step);
                    assert!(
                        model.insert(key, step).is_none(),
                        "key {key} handed out twice"
                    );
                    live.push(key);
                } else {
                    let key = live.swap_remove(rng.index(live.len() as u64) as usize);
                    assert_eq!(slab.take(key), model.remove(&key));
                    assert_eq!(slab.take(key), None);
                }
                high_water = high_water.max(model.len());
                assert_eq!(slab.len(), model.len());
                assert!(slab.slots.len() <= high_water);
            }
            for (&k, v) in &model {
                assert_eq!(slab.get(k), Some(v));
            }
            let listed: Vec<u32> = slab.iter().map(|(k, _)| k).collect();
            let mut expect: Vec<u32> = model.keys().copied().collect();
            expect.sort_unstable();
            assert_eq!(listed, expect);
        }
    }
}
