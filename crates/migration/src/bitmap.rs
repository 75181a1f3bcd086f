//! Page bitmaps.
//!
//! Migration keeps several per-page bit vectors: the dirty bitmap that
//! travels to the destination at handoff, the destination's received /
//! swapped / known-zero maps. 2.6 M pages (a 10 GB VM) is 320 KB of bits,
//! so scans must be word-at-a-time.

use agile_memory::PageArray;

/// A fixed-size bit vector indexed by page frame number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: u32,
    ones: u32,
}

impl Bitmap {
    /// All-zeros bitmap over `len` pages.
    pub fn zeros(len: u32) -> Self {
        Bitmap {
            words: vec![0; (len as usize).div_ceil(64)],
            len,
            ones: 0,
        }
    }

    /// All-ones bitmap over `len` pages.
    pub fn ones(len: u32) -> Self {
        let mut b = Bitmap {
            words: vec![u64::MAX; (len as usize).div_ceil(64)],
            len,
            ones: len,
        };
        b.trim_tail();
        b
    }

    fn trim_tail(&mut self) {
        let tail_bits = self.len as usize % 64;
        if tail_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
    }

    /// Number of pages covered.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True if the bitmap covers zero pages.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.ones
    }

    /// Test bit `i`.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        debug_assert!(i < self.len);
        self.words[i as usize / 64] & (1 << (i % 64)) != 0
    }

    /// Set bit `i`; returns the previous value.
    #[inline]
    pub fn set(&mut self, i: u32) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.words[i as usize / 64];
        let mask = 1 << (i % 64);
        let old = *w & mask != 0;
        *w |= mask;
        if !old {
            self.ones += 1;
        }
        old
    }

    /// Clear bit `i`; returns the previous value.
    #[inline]
    pub fn clear(&mut self, i: u32) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.words[i as usize / 64];
        let mask = 1 << (i % 64);
        let old = *w & mask != 0;
        *w &= !mask;
        if old {
            self.ones -= 1;
        }
        old
    }

    /// Clear every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
        self.ones = 0;
    }

    /// First set bit at or after `from`, word-at-a-time.
    pub fn next_set(&self, from: u32) -> Option<u32> {
        if from >= self.len {
            return None;
        }
        let mut wi = from as usize / 64;
        let mut word = self.words[wi] & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                let bit = wi as u32 * 64 + word.trailing_zeros();
                return (bit < self.len).then_some(bit);
            }
            wi += 1;
            if wi >= self.words.len() {
                return None;
            }
            word = self.words[wi];
        }
    }

    /// Iterate all set bits in ascending order.
    pub fn iter_set(&self) -> impl Iterator<Item = u32> + '_ {
        let mut cursor = 0u32;
        std::iter::from_fn(move || {
            let next = self.next_set(cursor)?;
            cursor = next + 1;
            Some(next)
        })
    }

    /// Visit every set bit in ascending order. Words are scanned in
    /// cache-line strides (8 × u64 = 512 pages): each stride is OR-folded
    /// first, so an all-zero line costs eight loads and one branch instead
    /// of eight. Within a nonzero stride, each word's bits are peeled with
    /// `trailing_zeros`. Ultra-sparse maps (one dirty page per megabytes of
    /// clean ones — the tail of a converging pre-copy) thus scan at memory
    /// bandwidth rather than per-word branch throughput.
    #[inline]
    pub fn for_each_set(&self, mut f: impl FnMut(u32)) {
        const STRIDE: usize = 8;
        let mut chunks = self.words.chunks_exact(STRIDE);
        let mut base = 0u32;
        for chunk in &mut chunks {
            if chunk.iter().fold(0u64, |acc, &w| acc | w) != 0 {
                for (wi, &w) in chunk.iter().enumerate() {
                    let mut word = w;
                    while word != 0 {
                        let bit = base + wi as u32 * 64 + word.trailing_zeros();
                        word &= word - 1;
                        f(bit);
                    }
                }
            }
            base += (STRIDE * 64) as u32;
        }
        for (wi, &w) in chunks.remainder().iter().enumerate() {
            let mut word = w;
            while word != 0 {
                let bit = base + wi as u32 * 64 + word.trailing_zeros();
                word &= word - 1;
                f(bit);
            }
        }
    }

    /// Visit and clear every set bit in ascending order (word-wise
    /// clear-and-collect): each word is read once and zeroed whole, so a
    /// full drain never revisits cleared prefixes.
    pub fn drain_set(&mut self, mut f: impl FnMut(u32)) {
        for (wi, w) in self.words.iter_mut().enumerate() {
            let mut word = std::mem::take(w);
            while word != 0 {
                let bit = wi as u32 * 64 + word.trailing_zeros();
                word &= word - 1;
                f(bit);
            }
        }
        self.ones = 0;
    }

    /// Raw backing words. Bits at positions `>= len()` are always zero.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Build a bitmap marking every page where `a` and `b` differ,
    /// assembling 64 comparisons per output word — the pre-copy round
    /// planner's "which pages changed since I sent them" scan. Only the
    /// tables' materialized prefixes are read: whole words inside both
    /// prefixes go through a compare loop free of per-bit index arithmetic
    /// (so it vectorizes), the stretch where only one side is materialized
    /// is compared against the other's fill, and past both prefixes the
    /// pages are equal by construction.
    pub fn diff_u32(a: &PageArray<u32>, b: &PageArray<u32>) -> Self {
        assert_eq!(a.pages(), b.pages(), "diff_u32 requires equal-size tables");
        assert!(a.fill() == b.fill(), "diff_u32 requires equal fill values");
        let mut out = Bitmap::zeros(a.pages());
        let (sa, sb) = (a.materialized(), b.materialized());
        let both = sa.len().min(sb.len()) / 64 * 64;
        for ((w, ca), cb) in out
            .words
            .iter_mut()
            .zip(sa[..both].chunks_exact(64))
            .zip(sb[..both].chunks_exact(64))
        {
            for (bit, (x, y)) in ca.iter().zip(cb).enumerate() {
                *w |= u64::from(x != y) << bit;
            }
        }
        for i in both..sa.len().max(sb.len()) {
            if a.get(i as u32) != b.get(i as u32) {
                out.words[i / 64] |= 1 << (i % 64);
            }
        }
        out.ones = out.words.iter().map(|w| w.count_ones()).sum();
        out
    }

    /// True when every one of the `len` pages is set in at least one of
    /// `maps` (which must all have the same length). Checked 64 pages at a
    /// time by OR-ing the maps' words.
    pub fn all_covered(maps: &[&Bitmap]) -> bool {
        let Some(first) = maps.first() else {
            return false;
        };
        debug_assert!(maps.iter().all(|m| m.len == first.len));
        if first.len == 0 {
            return true;
        }
        let full_words = first.len as usize / 64;
        for wi in 0..first.words.len() {
            let mut acc = 0u64;
            for m in maps {
                acc |= m.words[wi];
            }
            let expect = if wi < full_words {
                u64::MAX
            } else {
                (1u64 << (first.len % 64)) - 1
            };
            if acc & expect != expect {
                return false;
            }
        }
        true
    }

    /// Bytes this bitmap occupies on the wire (the handoff message carries
    /// the dirty bitmap to the destination).
    pub fn wire_bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Bitmap::zeros(100);
        assert_eq!(z.count_ones(), 0);
        assert!(!z.get(50));
        let o = Bitmap::ones(100);
        assert_eq!(o.count_ones(), 100);
        assert!(o.get(99));
        assert_eq!(o.iter_set().count(), 100);
    }

    #[test]
    fn ones_trims_partial_tail_word() {
        let o = Bitmap::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert_eq!(o.iter_set().last(), Some(69));
    }

    #[test]
    fn set_clear_roundtrip() {
        let mut b = Bitmap::zeros(128);
        assert!(!b.set(64));
        assert!(b.set(64), "second set reports previous value");
        assert_eq!(b.count_ones(), 1);
        assert!(b.clear(64));
        assert!(!b.clear(64));
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn next_set_scans_across_words() {
        let mut b = Bitmap::zeros(300);
        for i in [0u32, 63, 64, 130, 299] {
            b.set(i);
        }
        assert_eq!(b.next_set(0), Some(0));
        assert_eq!(b.next_set(1), Some(63));
        assert_eq!(b.next_set(64), Some(64));
        assert_eq!(b.next_set(65), Some(130));
        assert_eq!(b.next_set(131), Some(299));
        assert_eq!(b.next_set(300), None);
        let all: Vec<u32> = b.iter_set().collect();
        assert_eq!(all, vec![0, 63, 64, 130, 299]);
    }

    #[test]
    fn clear_all_resets() {
        let mut b = Bitmap::ones(65);
        b.clear_all();
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.next_set(0), None);
    }

    #[test]
    fn wire_bytes_rounds_to_words() {
        assert_eq!(Bitmap::zeros(1).wire_bytes(), 8);
        assert_eq!(Bitmap::zeros(64).wire_bytes(), 8);
        assert_eq!(Bitmap::zeros(65).wire_bytes(), 16);
        // 10 GB VM at 4 KB pages: 2,621,440 pages → 320 KiB.
        assert_eq!(Bitmap::zeros(2_621_440).wire_bytes(), 327_680);
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::zeros(0);
        assert!(b.is_empty());
        assert_eq!(b.next_set(0), None);
        assert_eq!(b.iter_set().count(), 0);
    }

    #[test]
    fn for_each_set_matches_iter_set() {
        let mut b = Bitmap::zeros(300);
        for i in [0u32, 1, 63, 64, 65, 128, 191, 192, 299] {
            b.set(i);
        }
        let mut seen = Vec::new();
        b.for_each_set(|p| seen.push(p));
        assert_eq!(seen, b.iter_set().collect::<Vec<_>>());
    }

    #[test]
    fn for_each_set_stride_boundaries() {
        // Bits straddling the 512-bit scan stride and the tail remainder.
        let mut b = Bitmap::zeros(1300);
        for i in [0u32, 511, 512, 513, 1023, 1024, 1025, 1299] {
            b.set(i);
        }
        let mut seen = Vec::new();
        b.for_each_set(|p| seen.push(p));
        assert_eq!(seen, b.iter_set().collect::<Vec<_>>());
        // An all-zero map visits nothing regardless of length.
        let mut none = 0;
        Bitmap::zeros(4097).for_each_set(|_| none += 1);
        assert_eq!(none, 0);
    }

    #[test]
    fn drain_set_collects_and_clears() {
        let mut b = Bitmap::zeros(200);
        for i in (0..200).step_by(7) {
            b.set(i);
        }
        let expect: Vec<u32> = b.iter_set().collect();
        let mut seen = Vec::new();
        b.drain_set(|p| seen.push(p));
        assert_eq!(seen, expect);
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.next_set(0), None);
    }

    fn table(vals: &[u32], pages: u32) -> PageArray<u32> {
        let mut t = PageArray::new(pages, 0);
        for (i, &v) in vals.iter().enumerate() {
            t.set(i as u32, v);
        }
        t
    }

    #[test]
    fn diff_u32_marks_changed_indices() {
        let a: Vec<u32> = (0..200).collect();
        let mut b = a.clone();
        for i in [0usize, 63, 64, 65, 127, 199] {
            b[i] += 1;
        }
        let (ta, tb) = (table(&a, 200), table(&b, 200));
        let d = Bitmap::diff_u32(&ta, &tb);
        assert_eq!(d.len(), 200);
        assert_eq!(d.count_ones(), 6);
        assert_eq!(
            d.iter_set().collect::<Vec<_>>(),
            vec![0, 63, 64, 65, 127, 199]
        );
        let same = Bitmap::diff_u32(&ta, &ta);
        assert_eq!(same.count_ones(), 0);
    }

    #[test]
    fn diff_u32_compares_unequal_prefixes_against_fill() {
        let pages = 5_000;
        let mut long = PageArray::new(pages, 0u32);
        long.set(3, 1);
        long.set(2_100, 5);
        long.set(2_101, 0);
        let mut short = PageArray::new(pages, 0u32);
        short.set(3, 1);
        short.set(70, 2);
        assert!(short.materialized().len() < long.materialized().len());
        let want = vec![70, 2_100];
        assert_eq!(
            Bitmap::diff_u32(&long, &short)
                .iter_set()
                .collect::<Vec<_>>(),
            want
        );
        assert_eq!(
            Bitmap::diff_u32(&short, &long)
                .iter_set()
                .collect::<Vec<_>>(),
            want
        );
        let empty = PageArray::new(pages, 0u32);
        assert_eq!(Bitmap::diff_u32(&empty, &empty), Bitmap::zeros(pages));
        assert_eq!(Bitmap::diff_u32(&empty, &short).count_ones(), 2);
    }

    #[test]
    fn all_covered_ors_across_maps() {
        let mut a = Bitmap::zeros(130);
        let mut b = Bitmap::zeros(130);
        for i in 0..130 {
            if i % 2 == 0 {
                a.set(i);
            } else {
                b.set(i);
            }
        }
        assert!(!Bitmap::all_covered(&[&a]));
        assert!(Bitmap::all_covered(&[&a, &b]));
        b.clear(129);
        assert!(!Bitmap::all_covered(&[&a, &b]));
        assert!(Bitmap::all_covered(&[&Bitmap::zeros(0)]));
        assert!(Bitmap::all_covered(&[&Bitmap::ones(64)]));
    }
}
