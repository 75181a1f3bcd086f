//! Swap-slot allocator for one per-VM swap namespace.
//!
//! A namespace is a flat array of page-sized slots. Allocation prefers the
//! lowest free slot, so slot numbers stay dense and the VMD can report used
//! capacity as `high_water - free`. The destination side of a migration
//! inherits slot assignments made by the source (the per-VM swap device is
//! portable), which it records with [`SlotAllocator::note_external`].

use std::collections::BTreeSet;

/// Sentinel for "no slot".
pub const NO_SLOT: u32 = u32::MAX;

/// Allocates page slots within a swap namespace.
#[derive(Clone, Debug, Default)]
pub struct SlotAllocator {
    next_fresh: u32,
    free: BTreeSet<u32>,
    capacity: Option<u32>,
}

impl SlotAllocator {
    /// Unbounded allocator (VMD namespaces grow on demand; memory is only
    /// allocated at the intermediate hosts when a page is written).
    pub fn unbounded() -> Self {
        SlotAllocator::default()
    }

    /// Allocator bounded to `capacity` slots (a fixed swap partition).
    pub fn bounded(capacity: u32) -> Self {
        SlotAllocator {
            capacity: Some(capacity),
            ..SlotAllocator::default()
        }
    }

    /// Allocate the lowest free slot, or `None` if the namespace is full.
    pub fn alloc(&mut self) -> Option<u32> {
        if let Some(&s) = self.free.iter().next() {
            self.free.remove(&s);
            return Some(s);
        }
        if let Some(cap) = self.capacity {
            if self.next_fresh >= cap {
                return None;
            }
        }
        debug_assert!(self.next_fresh != NO_SLOT, "slot space exhausted");
        let s = self.next_fresh;
        self.next_fresh += 1;
        Some(s)
    }

    /// Return a slot to the free list.
    pub fn free(&mut self, slot: u32) {
        debug_assert!(slot < self.next_fresh, "freeing never-allocated slot");
        let inserted = self.free.insert(slot);
        debug_assert!(inserted, "double free of slot {slot}");
    }

    /// Record that `slot` is in use although it was allocated by another
    /// allocator instance (the source host's, before migration). Idempotent
    /// per slot.
    pub fn note_external(&mut self, slot: u32) {
        debug_assert!(slot != NO_SLOT);
        if slot >= self.next_fresh {
            for s in self.next_fresh..slot {
                self.free.insert(s);
            }
            self.next_fresh = slot + 1;
        } else {
            self.free.remove(&slot);
        }
    }

    /// Whether `slot` is currently allocated.
    pub fn is_allocated(&self, slot: u32) -> bool {
        slot < self.next_fresh && !self.free.contains(&slot)
    }

    /// Slots currently allocated.
    pub fn live(&self) -> u32 {
        self.next_fresh - self.free.len() as u32
    }

    /// Highest slot index ever handed out plus one (namespace extent).
    pub fn high_water(&self) -> u32 {
        self.next_fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_dense_then_reuses_lowest() {
        let mut a = SlotAllocator::unbounded();
        assert_eq!(a.alloc(), Some(0));
        assert_eq!(a.alloc(), Some(1));
        assert_eq!(a.alloc(), Some(2));
        a.free(1);
        a.free(0);
        assert_eq!(a.alloc(), Some(0), "lowest freed slot reused first");
        assert_eq!(a.alloc(), Some(1));
        assert_eq!(a.alloc(), Some(3));
        assert_eq!(a.live(), 4);
        assert_eq!(a.high_water(), 4);
    }

    #[test]
    fn bounded_allocator_fills_up() {
        let mut a = SlotAllocator::bounded(2);
        assert!(a.alloc().is_some());
        assert!(a.alloc().is_some());
        assert_eq!(a.alloc(), None);
        a.free(0);
        assert_eq!(a.alloc(), Some(0));
        assert_eq!(a.alloc(), None);
    }

    #[test]
    fn live_tracks_balance() {
        let mut a = SlotAllocator::unbounded();
        let s1 = a.alloc().unwrap();
        let _s2 = a.alloc().unwrap();
        assert_eq!(a.live(), 2);
        a.free(s1);
        assert_eq!(a.live(), 1);
    }

    #[test]
    fn note_external_above_high_water() {
        let mut a = SlotAllocator::unbounded();
        a.note_external(5);
        assert_eq!(a.live(), 1);
        assert_eq!(a.high_water(), 6);
        // Slots 0..5 are free; the allocator hands them out before fresh.
        assert_eq!(a.alloc(), Some(0));
        a.note_external(2);
        assert_eq!(a.alloc(), Some(1));
        assert_eq!(a.alloc(), Some(3));
        assert_eq!(a.live(), 5);
    }

    #[test]
    fn note_external_then_free_roundtrip() {
        let mut a = SlotAllocator::unbounded();
        a.note_external(3);
        a.free(3);
        assert_eq!(a.live(), 0);
        // 0,1,2,3 all free now.
        assert_eq!(a.alloc(), Some(0));
    }
}
