//! Per-page value tables whose storage covers only the touched prefix.
//!
//! A guest's nominal size says nothing about how much of it the guest has
//! used: an idle 64 MB VM that preloaded 8 MB has 16,384 pages but only
//! 2,048 with any state. [`PageArray`] stores one `T` per page for the
//! materialized prefix `[0, materialized)` and reads a fixed `fill` value
//! (never populated, `NO_SLOT`, version 0, detached) everywhere past it.
//!
//! * [`PageArray::get`] reads any page: a bounds-checked load, or `fill`
//!   past the prefix.
//! * Indexing ([`Index`], [`IndexMut`]) is a plain slice access into the
//!   prefix, for pages known to hold state. The hot paths (an LRU relink,
//!   a reclaim scan, an eviction) thus stay as cheap as on a flat array.
//!   Growing the prefix is explicit, at the few points where a page first
//!   gains state: [`PageArray::materialize`]. Indexing past the prefix
//!   panics like a slice would.
//! * [`PageArray::set`] materializes as needed, except that writing
//!   `fill` past the prefix is a no-op (it already reads that way), so
//!   shipping a never-touched page costs no storage.
//! * Growth rounds up to 1,024 pages. Storage doubles while it stays
//!   within 64 KiB, so a small table tracks the touched prefix closely
//!   and a small hole left behind is reused by the next small
//!   allocation. The growth that would pass 64 KiB reserves the full
//!   nominal size instead, so a large, fully populated table grows in
//!   place from then on and leaves no large heap holes behind; the
//!   reserved tail past the prefix is address space the host never
//!   touches.
//!
//! So per-page state costs `size_of::<T>()` bytes per page up to the
//! highest touched PFN (plus one growth step), and nothing for a table
//! that was never written.

use std::ops::{Index, IndexMut};

/// Materialization granularity in pages: the prefix grows to the next
/// multiple of this, so a sequential fill grows once per step.
pub(crate) const GROW_PAGES: usize = 1024;

/// Storage grows by doubling while it stays within this many bytes; the
/// growth that would pass it reserves the full nominal size instead.
const DOUBLING_BYTES: usize = 64 * 1024;

/// One `T` per guest page, stored for the touched prefix only (see the
/// module docs).
#[derive(Clone, Debug)]
pub struct PageArray<T> {
    vals: Vec<T>,
    pages: u32,
    fill: T,
}

impl<T: Copy + PartialEq> PageArray<T> {
    /// A table of `pages` pages, every one reading `fill`. Allocates
    /// nothing.
    pub fn new(pages: u32, fill: T) -> Self {
        PageArray {
            vals: Vec::new(),
            pages,
            fill,
        }
    }

    /// Nominal number of pages.
    #[inline]
    pub fn pages(&self) -> u32 {
        self.pages
    }

    /// The value every page past the materialized prefix reads.
    #[inline]
    pub fn fill(&self) -> T {
        self.fill
    }

    /// The materialized prefix (index = PFN). Every later page reads
    /// [`PageArray::fill`].
    #[inline]
    pub fn materialized(&self) -> &[T] {
        &self.vals
    }

    /// The value at `pfn`: stored in the prefix, or `fill` past it.
    #[inline]
    pub fn get(&self, pfn: u32) -> T {
        match self.vals.get(pfn as usize) {
            Some(&v) => v,
            None => {
                self.check_range(pfn);
                self.fill
            }
        }
    }

    /// Make `pfn` indexable: grow the prefix to cover it if it does not
    /// yet.
    #[inline]
    pub fn materialize(&mut self, pfn: u32) {
        if pfn as usize >= self.vals.len() {
            self.grow(pfn);
        }
    }

    /// Store `v` at `pfn`, materializing as needed. Writing the fill
    /// value past the materialized prefix stores nothing.
    #[inline]
    pub fn set(&mut self, pfn: u32, v: T) {
        match self.vals.get_mut(pfn as usize) {
            Some(slot) => *slot = v,
            None if v == self.fill => self.check_range(pfn),
            None => {
                self.grow(pfn);
                self.vals[pfn as usize] = v;
            }
        }
    }

    /// Drop all storage: every page reads `fill` again.
    pub fn clear(&mut self) {
        self.vals = Vec::new();
    }

    /// Heap bytes held (reserved capacity included).
    pub fn heap_bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<T>()
    }

    #[inline]
    fn check_range(&self, pfn: u32) {
        assert!(
            pfn < self.pages,
            "page {pfn} out of range ({} pages)",
            self.pages
        );
    }

    /// Grow the prefix to cover `pfn` (rounded up to [`GROW_PAGES`]).
    /// Storage doubles while it is small; past [`DOUBLING_BYTES`] the
    /// full nominal size is reserved at once, so a large table never
    /// reallocates again.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, pfn: u32) {
        self.check_range(pfn);
        let pages = self.pages as usize;
        let want = ((pfn as usize / GROW_PAGES + 1) * GROW_PAGES).min(pages);
        if self.vals.capacity() < want {
            let doubled = (2 * self.vals.capacity()).max(want).min(pages);
            let cap = if doubled * std::mem::size_of::<T>() <= DOUBLING_BYTES {
                doubled
            } else {
                pages
            };
            self.vals.reserve_exact(cap - self.vals.len());
        }
        self.vals.resize(want, self.fill);
    }
}

impl<T> Index<usize> for PageArray<T> {
    type Output = T;

    /// A load from the materialized prefix; panics past it (see
    /// [`PageArray::get`]).
    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.vals[i]
    }
}

impl<T> IndexMut<usize> for PageArray<T> {
    /// A store into the materialized prefix; panics past it (see
    /// [`PageArray::materialize`]).
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.vals[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmaterialized_pages_read_fill() {
        let a = PageArray::new(10_000, u32::MAX);
        assert_eq!(a.get(0), u32::MAX);
        assert_eq!(a.get(9_999), u32::MAX);
        assert!(a.materialized().is_empty());
        assert_eq!(a.heap_bytes(), 0);
    }

    #[test]
    fn materialize_grows_a_rounded_prefix() {
        let mut a = PageArray::new(10_000, 0u32);
        a.materialize(5);
        a[5] = 7;
        assert_eq!(a.materialized().len(), GROW_PAGES);
        assert_eq!(a[5], 7);
        a.materialize(GROW_PAGES as u32);
        assert_eq!(a.materialized().len(), 2 * GROW_PAGES);
        a.materialize(2);
        assert_eq!(a.materialized().len(), 2 * GROW_PAGES, "already covered");
        a.set(9_999, 2);
        assert_eq!(a.materialized().len(), 10_000, "clamped to nominal size");
        assert_eq!(a[9_998], 0);
        assert_eq!(a.get(9_999), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn stores_past_the_prefix_panic() {
        let mut a = PageArray::new(10_000, 0u32);
        a[5] = 7;
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_past_the_prefix_panics() {
        let a = PageArray::new(10_000, 0u32);
        let _ = a[5];
    }

    #[test]
    fn small_tables_double_and_large_ones_reserve_once() {
        let pages = 100_000u32;
        let mut a = PageArray::new(pages, 0u32);
        a.materialize(0);
        assert_eq!(a.vals.capacity(), GROW_PAGES);
        a.materialize(GROW_PAGES as u32 + 1);
        assert_eq!(a.vals.capacity(), 2 * GROW_PAGES);
        // Doubling past 64 KiB of storage reserves the nominal size.
        a.materialize((DOUBLING_BYTES / 4) as u32);
        assert_eq!(a.vals.capacity(), pages as usize);
        let ptr = a.vals.as_ptr();
        a.materialize(pages - 1);
        assert_eq!(a.vals.as_ptr(), ptr, "grew in place");
        assert_eq!(a.heap_bytes(), pages as usize * 4);
    }

    #[test]
    fn setting_fill_past_the_prefix_stores_nothing() {
        let mut a = PageArray::new(4_096, 0u32);
        a.set(3_000, 0);
        assert!(a.materialized().is_empty());
        a.set(3_000, 4);
        assert_eq!(a.get(3_000), 4);
        a.set(3_000, 0);
        assert_eq!(a.get(3_000), 0);
    }

    #[test]
    fn clear_drops_storage() {
        let mut a = PageArray::new(4_096, 9u32);
        a.set(100, 1);
        a.clear();
        assert_eq!(a.get(100), 9);
        assert_eq!(a.heap_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reads_past_the_nominal_size_panic() {
        let a = PageArray::new(16, 0u32);
        let _ = a.get(16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn writes_past_the_nominal_size_panic() {
        let mut a = PageArray::new(16, 0u32);
        a.set(16, 0);
    }
}
