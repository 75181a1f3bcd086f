//! Dataset → guest-page mapping.
//!
//! A dataset is `n_records` fixed-size records packed into a contiguous
//! guest page region (a Redis heap, a MySQL buffer pool). Record `i` lives
//! on page `region.start + i * record_size / page_size`; multi-page records
//! (large rows, 16 KB InnoDB pages on 4 KB frames) touch several frames.

use agile_vm::PageRange;

/// A record-structured dataset resident in a guest page region.
#[derive(Clone, Copy, Debug)]
pub struct Dataset {
    region: PageRange,
    n_records: u64,
    record_bytes: u64,
    page_size: u64,
}

impl Dataset {
    /// Lay `n_records` of `record_bytes` each into `region`. Panics if the
    /// region is too small.
    pub fn new(region: PageRange, n_records: u64, record_bytes: u64, page_size: u64) -> Self {
        assert!(record_bytes > 0 && page_size > 0);
        let needed_bytes = n_records * record_bytes;
        let have_bytes = region.len as u64 * page_size;
        assert!(
            needed_bytes <= have_bytes,
            "dataset needs {needed_bytes} B but region holds {have_bytes} B"
        );
        Dataset {
            region,
            n_records,
            record_bytes,
            page_size,
        }
    }

    /// Convenience: size a region-filling dataset (as many records as fit).
    pub fn filling(region: PageRange, record_bytes: u64, page_size: u64) -> Self {
        let n_records = region.len as u64 * page_size / record_bytes;
        Dataset::new(region, n_records, record_bytes, page_size)
    }

    /// Number of records.
    pub fn n_records(&self) -> u64 {
        self.n_records
    }

    /// Record size in bytes.
    pub fn record_bytes(&self) -> u64 {
        self.record_bytes
    }

    /// The guest region the dataset occupies.
    pub fn region(&self) -> PageRange {
        self.region
    }

    /// Pages actually used by the dataset (its footprint).
    pub fn used_pages(&self) -> u32 {
        (self.n_records * self.record_bytes).div_ceil(self.page_size) as u32
    }

    /// First guest page of record `key`.
    pub fn page_of(&self, key: u64) -> u32 {
        debug_assert!(key < self.n_records, "key {key} out of range");
        self.region.start + (key * self.record_bytes / self.page_size) as u32
    }

    /// All guest pages record `key` spans (≥1).
    pub fn pages_of(&self, key: u64) -> impl Iterator<Item = u32> + '_ {
        let first = key * self.record_bytes / self.page_size;
        let last = (key * self.record_bytes + self.record_bytes - 1) / self.page_size;
        (first..=last).map(move |p| self.region.start + p as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(start: u32, len: u32) -> PageRange {
        PageRange { start, len }
    }

    #[test]
    fn small_records_pack_per_page() {
        // 1 KB records, 4 KB pages → 4 records/page.
        let d = Dataset::new(region(100, 10), 40, 1024, 4096);
        assert_eq!(d.page_of(0), 100);
        assert_eq!(d.page_of(3), 100);
        assert_eq!(d.page_of(4), 101);
        assert_eq!(d.pages_of(5).collect::<Vec<_>>(), vec![101]);
        assert_eq!(d.used_pages(), 10);
    }

    #[test]
    fn large_records_span_pages() {
        // 16 KB records on 4 KB pages → 4 pages each (InnoDB page on frames).
        let d = Dataset::new(region(0, 16), 4, 16384, 4096);
        assert_eq!(d.pages_of(0).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(d.pages_of(1).collect::<Vec<_>>(), vec![4, 5, 6, 7]);
    }

    #[test]
    fn filling_uses_whole_region() {
        let d = Dataset::filling(region(0, 100), 1024, 4096);
        assert_eq!(d.n_records(), 400);
        assert_eq!(d.used_pages(), 100);
    }

    #[test]
    fn partial_fill_footprint() {
        let d = Dataset::new(region(0, 100), 10, 1024, 4096);
        assert_eq!(d.used_pages(), 3); // 10 KiB → 3 pages
    }

    #[test]
    #[should_panic(expected = "dataset needs")]
    fn oversized_dataset_rejected() {
        let _ = Dataset::new(region(0, 1), 100, 1024, 4096);
    }
}
