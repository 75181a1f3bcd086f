//! Intrusive doubly-linked LRU list over `u32` page indices.
//!
//! The reclaim machinery keeps every resident page on exactly one of two
//! lists (active / inactive), so the links are stored out-of-band in a
//! shared [`LruLinks`] arena — one `prev`/`next` pair per page — and each
//! [`LruList`] is just a head/tail/len view over that arena. All operations
//! are O(1), which matters: a 10 GB VM has 2.6 M pages and reclaim churns
//! the lists continuously under memory pressure. The arena is a pair of
//! [`PageArray`]s, so it stores links only up to the highest page ever
//! listed; `push_front` of a page past that prefix grows it (the only
//! allocation), and every other link update is a plain store.

use crate::pagearray::PageArray;

/// Sentinel meaning "no page".
pub const NIL: u32 = u32::MAX;

/// Shared link arena: `prev[i]`/`next[i]` for page `i`.
#[derive(Clone, Debug)]
pub struct LruLinks {
    prev: PageArray<u32>,
    next: PageArray<u32>,
}

impl LruLinks {
    /// Create links for `n` pages, all detached.
    pub fn new(n: usize) -> Self {
        let n = u32::try_from(n).expect("page count fits u32");
        LruLinks {
            prev: PageArray::new(n, NIL),
            next: PageArray::new(n, NIL),
        }
    }

    /// Number of page slots.
    pub fn capacity(&self) -> usize {
        self.prev.pages() as usize
    }

    /// Pages with materialized link storage.
    pub(crate) fn materialized_pages(&self) -> usize {
        self.prev.materialized().len()
    }

    /// Give `page` link storage (both tables share one prefix).
    #[inline]
    fn materialize(&mut self, page: u32) {
        if page as usize >= self.prev.materialized().len() {
            self.grow(page);
        }
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self, page: u32) {
        self.prev.materialize(page);
        self.next.materialize(page);
    }

    /// Whether `page` has no neighbours (true for every unlisted page and
    /// for a list's only member).
    pub(crate) fn detached(&self, page: u32) -> bool {
        self.prev.get(page) == NIL && self.next.get(page) == NIL
    }
}

/// One LRU ordering (head = most recent, tail = least recent).
///
/// A page must never be on two lists at once; callers move pages between
/// lists with `remove` + `push_front`. Debug assertions catch double
/// insertion.
#[derive(Clone, Copy, Debug)]
pub struct LruList {
    head: u32,
    tail: u32,
    len: u32,
}

impl Default for LruList {
    fn default() -> Self {
        Self::new()
    }
}

impl LruList {
    /// An empty list.
    pub fn new() -> Self {
        LruList {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of pages on the list.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True if the list holds no pages.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Most-recently-used page, if any.
    #[inline]
    pub fn front(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    /// Least-recently-used page, if any.
    #[inline]
    pub fn back(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// Insert `page` at the MRU end.
    #[inline]
    pub fn push_front(&mut self, links: &mut LruLinks, page: u32) {
        debug_assert!(page != NIL && (page as usize) < links.capacity());
        links.materialize(page);
        debug_assert!(
            links.prev[page as usize] == NIL
                && links.next[page as usize] == NIL
                && self.head != page,
            "page {page} already linked"
        );
        links.prev[page as usize] = NIL;
        links.next[page as usize] = self.head;
        if self.head != NIL {
            links.prev[self.head as usize] = page;
        } else {
            self.tail = page;
        }
        self.head = page;
        self.len += 1;
    }

    /// Remove an arbitrary `page` from the list. The caller must know the
    /// page is on *this* list.
    pub fn remove(&mut self, links: &mut LruLinks, page: u32) {
        debug_assert!(page != NIL && (page as usize) < links.capacity());
        debug_assert!(self.len > 0, "remove from empty list");
        let p = links.prev[page as usize];
        let n = links.next[page as usize];
        if p != NIL {
            links.next[p as usize] = n;
        } else {
            debug_assert_eq!(self.head, page, "page not on this list");
            self.head = n;
        }
        if n != NIL {
            links.prev[n as usize] = p;
        } else {
            debug_assert_eq!(self.tail, page, "page not on this list");
            self.tail = p;
        }
        links.prev[page as usize] = NIL;
        links.next[page as usize] = NIL;
        self.len -= 1;
    }

    /// Remove and return the LRU page.
    pub fn pop_back(&mut self, links: &mut LruLinks) -> Option<u32> {
        let page = self.back()?;
        self.remove(links, page);
        Some(page)
    }

    /// Move an on-list page to the MRU end.
    pub fn move_to_front(&mut self, links: &mut LruLinks, page: u32) {
        if self.head == page {
            return;
        }
        self.remove(links, page);
        self.push_front(links, page);
    }

    /// Iterate from MRU to LRU (for tests and diagnostics; O(len)).
    pub fn iter<'a>(&'a self, links: &'a LruLinks) -> impl Iterator<Item = u32> + 'a {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                None
            } else {
                let out = cur;
                cur = links.next[cur as usize];
                Some(out)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(l: &LruList, links: &LruLinks) -> Vec<u32> {
        l.iter(links).collect()
    }

    #[test]
    fn push_and_order() {
        let mut links = LruLinks::new(8);
        let mut l = LruList::new();
        for p in [0, 1, 2] {
            l.push_front(&mut links, p);
        }
        assert_eq!(collect(&l, &links), vec![2, 1, 0]);
        assert_eq!(l.front(), Some(2));
        assert_eq!(l.back(), Some(0));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn pop_back_is_lru() {
        let mut links = LruLinks::new(8);
        let mut l = LruList::new();
        for p in [0, 1, 2] {
            l.push_front(&mut links, p);
        }
        assert_eq!(l.pop_back(&mut links), Some(0));
        assert_eq!(l.pop_back(&mut links), Some(1));
        assert_eq!(l.pop_back(&mut links), Some(2));
        assert_eq!(l.pop_back(&mut links), None);
        assert!(l.is_empty());
    }

    #[test]
    fn remove_middle() {
        let mut links = LruLinks::new(8);
        let mut l = LruList::new();
        for p in [0, 1, 2, 3] {
            l.push_front(&mut links, p);
        }
        l.remove(&mut links, 2);
        assert_eq!(collect(&l, &links), vec![3, 1, 0]);
        l.remove(&mut links, 3); // head
        assert_eq!(collect(&l, &links), vec![1, 0]);
        l.remove(&mut links, 0); // tail
        assert_eq!(collect(&l, &links), vec![1]);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn move_to_front_reorders() {
        let mut links = LruLinks::new(8);
        let mut l = LruList::new();
        for p in [0, 1, 2] {
            l.push_front(&mut links, p);
        }
        l.move_to_front(&mut links, 0);
        assert_eq!(collect(&l, &links), vec![0, 2, 1]);
        // Moving the head is a no-op.
        l.move_to_front(&mut links, 0);
        assert_eq!(collect(&l, &links), vec![0, 2, 1]);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn reinsertion_after_removal() {
        let mut links = LruLinks::new(4);
        let mut l = LruList::new();
        l.push_front(&mut links, 1);
        l.remove(&mut links, 1);
        l.push_front(&mut links, 1);
        assert_eq!(collect(&l, &links), vec![1]);
    }

    #[test]
    fn two_lists_share_an_arena() {
        let mut links = LruLinks::new(8);
        let mut active = LruList::new();
        let mut inactive = LruList::new();
        active.push_front(&mut links, 0);
        active.push_front(&mut links, 1);
        inactive.push_front(&mut links, 2);
        // Demote page 1 from active to inactive.
        active.remove(&mut links, 1);
        inactive.push_front(&mut links, 1);
        assert_eq!(collect(&active, &links), vec![0]);
        assert_eq!(collect(&inactive, &links), vec![1, 2]);
    }

    #[test]
    fn singleton_list_edge_cases() {
        let mut links = LruLinks::new(2);
        let mut l = LruList::new();
        l.push_front(&mut links, 0);
        assert_eq!(l.front(), l.back());
        l.move_to_front(&mut links, 0);
        assert_eq!(l.len(), 1);
        assert_eq!(l.pop_back(&mut links), Some(0));
        assert!(l.is_empty());
        assert_eq!(l.front(), None);
        assert_eq!(l.back(), None);
    }
}
