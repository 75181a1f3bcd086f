//! Destination-side Migration Manager (the UMEM driver + UMEMD process of
//! §IV-F).
//!
//! The destination KVM/QEMU process receives chunks and installs pages into
//! the arriving VM's memory. After the VM resumes, faults on missing pages
//! are trapped (the UMEM path) and classified exactly as the paper
//! describes: *"the thread refers to the swapped bitmap. If the
//! corresponding bit is set, it reads the offset from the swap offset
//! table and the page from the VMD. If the swapped bit is not set, the
//! thread requests the page from the source."* — with the dirty bitmap
//! (delivered in the handoff) consulted first, since a dirtied page's swap
//! slot may hold stale content.

use agile_memory::{Eviction, PageArray, SlotAllocator, VmMemory, NO_SLOT};

use crate::bitmap::Bitmap;
use crate::chunk::Chunk;
use crate::metrics::Technique;

/// Where a destination fault must be served from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultRoute {
    /// The page already arrived (raced with an active push) — retry the
    /// access; no I/O needed.
    AlreadyHere,
    /// Request the page from the source host (dirtied during the live
    /// round, or any unsent page under post-copy).
    FromSource,
    /// Read the page from the per-VM swap device.
    FromSwap {
        /// Slot on the portable swap device.
        slot: u32,
        /// Content version expected there (for end-to-end checks).
        version: u32,
    },
    /// Page was never populated at the source: zero-fill locally.
    ZeroFill,
}

/// Destination-side migration session.
#[derive(Clone, Debug)]
pub struct DestSession {
    technique: Technique,
    /// Full pages installed (from any path).
    received: Bitmap,
    /// Pages known to live on the per-VM swap device.
    swapped: Bitmap,
    /// Swap-offset table (parallel to guest pages; valid where `swapped`
    /// is set).
    swap_slots: PageArray<u32>,
    /// Version stored at each swapped slot.
    swap_versions: PageArray<u32>,
    /// Pages known to be zero at the source.
    known_zero: Bitmap,
    /// Dirty bitmap from the handoff; present once the VM resumed here.
    dirty: Option<Bitmap>,
    /// Pages installed via each path (diagnostics / tables).
    pub pages_installed_stream: u64,
    /// Pages served from the per-VM swap device after resume.
    pub pages_faulted_from_swap: u64,
    /// Pages served from the source after resume.
    pub pages_faulted_from_source: u64,
    /// Duplicate deliveries ignored (demand/push races).
    pub duplicate_pages_ignored: u64,
    /// Stale live-round copies discarded when the handoff's dirty bitmap
    /// arrived (QEMU's postcopy discard).
    pub pages_discarded_at_resume: u64,
}

impl DestSession {
    /// Create the receiving side for a VM with `n_pages` guest pages.
    pub fn new(technique: Technique, n_pages: u32) -> Self {
        DestSession {
            technique,
            received: Bitmap::zeros(n_pages),
            swapped: Bitmap::zeros(n_pages),
            swap_slots: PageArray::new(n_pages, NO_SLOT),
            swap_versions: PageArray::new(n_pages, 0),
            known_zero: Bitmap::zeros(n_pages),
            dirty: None,
            pages_installed_stream: 0,
            pages_faulted_from_swap: 0,
            pages_faulted_from_source: 0,
            duplicate_pages_ignored: 0,
            pages_discarded_at_resume: 0,
        }
    }

    /// Technique in use.
    pub fn technique(&self) -> Technique {
        self.technique
    }

    /// True once the handoff arrived (the VM runs here now).
    pub fn resumed(&self) -> bool {
        self.dirty.is_some()
    }

    /// Pages installed so far.
    pub fn received_pages(&self) -> u32 {
        self.received.count_ones()
    }

    /// Free the per-page state (bitmaps and swap-offset table) of a
    /// finished migration. The path counters survive; the session must
    /// not be driven afterwards.
    pub fn release_page_state(&mut self) {
        self.received = Bitmap::zeros(0);
        self.swapped = Bitmap::zeros(0);
        self.known_zero = Bitmap::zeros(0);
        self.swap_slots.clear();
        self.swap_versions.clear();
        if let Some(d) = &mut self.dirty {
            *d = Bitmap::zeros(0);
        }
    }

    /// Heap bytes of per-page state held (memory-footprint tests).
    #[doc(hidden)]
    pub fn page_state_bytes(&self) -> usize {
        let maps = [&self.received, &self.swapped, &self.known_zero]
            .into_iter()
            .chain(&self.dirty);
        maps.map(|b| b.as_words().len() * 8).sum::<usize>()
            + self.swap_slots.heap_bytes()
            + self.swap_versions.heap_bytes()
    }

    /// Install a chunk into the arriving VM's memory. Evictions triggered
    /// by the install (destination under its own reservation) are appended
    /// to `evictions` for the executor to charge. `slots` is the slot space
    /// of the device `mem` is bound to.
    pub fn on_chunk(
        &mut self,
        chunk: &Chunk,
        mem: &mut VmMemory,
        slots: &mut SlotAllocator,
        evictions: &mut Vec<Eviction>,
    ) {
        for fp in &chunk.full {
            if self.received.get(fp.pfn) {
                if self.resumed() {
                    // Post-resume push/demand race: both copies carry the
                    // same source version and the VM may since have written
                    // the page — the first copy wins.
                    self.duplicate_pages_ignored += 1;
                    continue;
                }
                // Pre-resume retransmission (pre-copy round ≥ 2 or
                // stop-and-copy): the newer copy overwrites.
                mem.install_page(fp.pfn, fp.version, slots, evictions);
                self.pages_installed_stream += 1;
                continue;
            }
            self.received.set(fp.pfn);
            // A fresher full copy supersedes any swapped-marker state.
            if self.swapped.get(fp.pfn) {
                self.swapped.clear(fp.pfn);
            }
            mem.install_page(fp.pfn, fp.version, slots, evictions);
            self.pages_installed_stream += 1;
            if let Some(d) = &mut self.dirty {
                d.clear(fp.pfn);
            }
        }
        for sm in &chunk.swapped {
            debug_assert!(!self.received.get(sm.pfn), "swapped marker after full page");
            self.swapped.set(sm.pfn);
            self.swap_slots.set(sm.pfn, sm.slot);
            self.swap_versions.set(sm.pfn, sm.version);
            mem.install_swapped(sm.pfn, sm.slot, sm.version, slots);
        }
        for &z in &chunk.zero {
            if !self.received.get(z) {
                self.known_zero.set(z);
            }
        }
    }

    /// Deliver the handoff: the VM resumes at the destination with this
    /// dirty bitmap.
    ///
    /// Copies received during the live round for pages the source has
    /// since dirtied are *stale* — they are discarded before the VM runs
    /// (the QEMU postcopy discard-bitmap step), so accesses fault and
    /// route to the source, and the eventual push installs the fresh
    /// content instead of being mistaken for a race duplicate.
    pub fn on_handoff(&mut self, dirty: Bitmap, mem: &mut VmMemory) {
        assert!(self.dirty.is_none(), "handoff delivered twice");
        let received = &mut self.received;
        let swapped = &mut self.swapped;
        let known_zero = &mut self.known_zero;
        let mut discarded = 0u64;
        dirty.for_each_set(|pfn| {
            if received.clear(pfn) {
                discarded += 1;
            }
            // A swapped marker (or zero marker) for a dirtied page points
            // at stale content; the source freed its slot when the guest
            // wrote, so the tracking entry is dropped without a free.
            if swapped.clear(pfn) {
                mem.discard_swapped(pfn);
            }
            known_zero.clear(pfn);
        });
        self.pages_discarded_at_resume += discarded;
        self.dirty = Some(dirty);
    }

    /// Classify a post-resume fault on `pfn` (the UMEMD fault thread).
    pub fn classify_fault(&self, pfn: u32) -> FaultRoute {
        assert!(self.resumed(), "fault before resume");
        if self.received.get(pfn) {
            return FaultRoute::AlreadyHere;
        }
        let dirty = self.dirty.as_ref().expect("resumed");
        if dirty.get(pfn) {
            return FaultRoute::FromSource;
        }
        if self.swapped.get(pfn) {
            return FaultRoute::FromSwap {
                slot: self.swap_slots.get(pfn),
                version: self.swap_versions.get(pfn),
            };
        }
        FaultRoute::ZeroFill
    }

    /// Note that a priority (demand) page arrived from the source. The
    /// install itself flows through [`DestSession::on_chunk`]; this counts
    /// the path.
    pub fn note_demand_served(&mut self) {
        self.pages_faulted_from_source += 1;
    }

    /// Zero-fill a faulted never-populated page locally.
    pub fn install_zero_fill(
        &mut self,
        pfn: u32,
        mem: &mut VmMemory,
        slots: &mut SlotAllocator,
        evictions: &mut Vec<Eviction>,
    ) {
        debug_assert!(self.known_zero.get(pfn) || !self.resumed());
        self.received.set(pfn);
        mem.install_page(pfn, 0, slots, evictions);
    }

    /// Are any pages still neither received, swapped-resident, nor zero?
    /// (Completion check for tests.)
    pub fn fully_accounted(&self) -> bool {
        match &self.dirty {
            Some(d) => Bitmap::all_covered(&[&self.received, &self.swapped, &self.known_zero, d]),
            None => Bitmap::all_covered(&[&self.received, &self.swapped, &self.known_zero]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{FullPage, SwappedMarker};
    use agile_memory::VmMemoryConfig;

    fn dest_mem(pages: u32) -> (VmMemory, SlotAllocator) {
        let mem = VmMemory::new(VmMemoryConfig {
            pages,
            page_size: 4096,
            limit_pages: pages,
        });
        (mem, SlotAllocator::unbounded())
    }

    fn chunk_full(pfns: &[(u32, u32)]) -> Chunk {
        let mut c = Chunk::default();
        for &(pfn, version) in pfns {
            c.full.push(FullPage { pfn, version });
        }
        c
    }

    #[test]
    fn stream_install_and_resume() {
        let mut d = DestSession::new(Technique::Agile, 16);
        let (mut mem, mut sa) = dest_mem(16);
        let mut evs = Vec::new();
        d.on_chunk(&chunk_full(&[(0, 5), (1, 7)]), &mut mem, &mut sa, &mut evs);
        assert_eq!(d.received_pages(), 2);
        assert_eq!(mem.version(0), 5);
        assert!(!d.resumed());
        d.on_handoff(Bitmap::zeros(16), &mut mem);
        assert!(d.resumed());
        assert_eq!(d.classify_fault(0), FaultRoute::AlreadyHere);
    }

    #[test]
    fn swapped_markers_route_to_swap() {
        let mut d = DestSession::new(Technique::Agile, 16);
        let (mut mem, mut sa) = dest_mem(16);
        let mut evs = Vec::new();
        let mut c = Chunk::default();
        c.swapped.push(SwappedMarker {
            pfn: 3,
            slot: 42,
            version: 9,
        });
        d.on_chunk(&c, &mut mem, &mut sa, &mut evs);
        d.on_handoff(Bitmap::zeros(16), &mut mem);
        assert_eq!(
            d.classify_fault(3),
            FaultRoute::FromSwap {
                slot: 42,
                version: 9
            }
        );
        // The VM's own pagemap agrees.
        assert!(mem.pagemap(3).is_swapped());
    }

    #[test]
    fn dirty_bitmap_takes_precedence_over_swap() {
        // A page that was swapped during the live round but dirtied before
        // suspension: its slot holds stale content; the fault must go to
        // the source.
        let mut d = DestSession::new(Technique::Agile, 16);
        let (mut mem, mut sa) = dest_mem(16);
        let mut evs = Vec::new();
        let mut c = Chunk::default();
        c.swapped.push(SwappedMarker {
            pfn: 3,
            slot: 42,
            version: 9,
        });
        d.on_chunk(&c, &mut mem, &mut sa, &mut evs);
        let mut dirty = Bitmap::zeros(16);
        dirty.set(3);
        d.on_handoff(dirty, &mut mem);
        assert_eq!(d.classify_fault(3), FaultRoute::FromSource);
    }

    #[test]
    fn unknown_pages_zero_fill() {
        let mut d = DestSession::new(Technique::Agile, 16);
        let (mut mem, mut sa) = dest_mem(16);
        let mut evs = Vec::new();
        let mut c = Chunk::default();
        c.zero.push(8);
        d.on_chunk(&c, &mut mem, &mut sa, &mut evs);
        d.on_handoff(Bitmap::zeros(16), &mut mem);
        assert_eq!(d.classify_fault(8), FaultRoute::ZeroFill);
        d.install_zero_fill(8, &mut mem, &mut sa, &mut evs);
        assert_eq!(d.classify_fault(8), FaultRoute::AlreadyHere);
        assert_eq!(mem.version(8), 0);
    }

    #[test]
    fn pre_resume_retransmission_overwrites() {
        // Pre-copy rounds ≥ 2 resend dirtied pages before the VM resumes;
        // the newer copy must win.
        let mut d = DestSession::new(Technique::PreCopy, 16);
        let (mut mem, mut sa) = dest_mem(16);
        let mut evs = Vec::new();
        d.on_chunk(&chunk_full(&[(5, 2)]), &mut mem, &mut sa, &mut evs);
        assert_eq!(mem.version(5), 2);
        d.on_chunk(&chunk_full(&[(5, 7)]), &mut mem, &mut sa, &mut evs);
        assert_eq!(mem.version(5), 7, "retransmission must overwrite");
        assert_eq!(d.duplicate_pages_ignored, 0);
    }

    #[test]
    fn postcopy_faults_route_to_source() {
        let mut d = DestSession::new(Technique::PostCopy, 16);
        let (mut mem, mut sa) = dest_mem(16);
        // Post-copy handoff: everything still at the source.
        d.on_handoff(Bitmap::ones(16), &mut mem);
        assert_eq!(d.classify_fault(5), FaultRoute::FromSource);
        // Push arrives: installs and clears dirty.
        let mut evs = Vec::new();
        d.on_chunk(&chunk_full(&[(5, 2)]), &mut mem, &mut sa, &mut evs);
        assert_eq!(d.classify_fault(5), FaultRoute::AlreadyHere);
    }

    #[test]
    fn duplicate_delivery_keeps_first_copy() {
        // Post-resume semantics: the race duplicate must not clobber a
        // newer guest write.
        let mut d = DestSession::new(Technique::PostCopy, 16);
        let (mut mem, mut sa) = dest_mem(16);
        let mut evs = Vec::new();
        d.on_handoff(Bitmap::ones(16), &mut mem);
        d.on_chunk(&chunk_full(&[(5, 2)]), &mut mem, &mut sa, &mut evs);
        // The VM wrote to the page after receiving it...
        mem.touch(5, true, &mut sa);
        let v_after_write = mem.version(5);
        // ...then a duplicate (raced push) arrives with the old content.
        d.on_chunk(&chunk_full(&[(5, 2)]), &mut mem, &mut sa, &mut evs);
        assert_eq!(mem.version(5), v_after_write, "newer write preserved");
        assert_eq!(d.duplicate_pages_ignored, 1);
    }

    #[test]
    fn full_page_supersedes_marker() {
        // Agile: page 3 swapped at round 1 (marker), dirtied, then pushed
        // in full after resume.
        let mut d = DestSession::new(Technique::Agile, 16);
        let (mut mem, mut sa) = dest_mem(16);
        let mut evs = Vec::new();
        let mut c = Chunk::default();
        c.swapped.push(SwappedMarker {
            pfn: 3,
            slot: 42,
            version: 9,
        });
        d.on_chunk(&c, &mut mem, &mut sa, &mut evs);
        let mut dirty = Bitmap::zeros(16);
        dirty.set(3);
        d.on_handoff(dirty, &mut mem);
        d.on_chunk(&chunk_full(&[(3, 11)]), &mut mem, &mut sa, &mut evs);
        assert_eq!(d.classify_fault(3), FaultRoute::AlreadyHere);
        assert_eq!(mem.version(3), 11);
        assert!(mem.pagemap(3).is_present());
    }

    #[test]
    fn accounting_covers_all_pages() {
        let mut d = DestSession::new(Technique::Agile, 8);
        let (mut mem, mut sa) = dest_mem(8);
        let mut evs = Vec::new();
        let mut c = Chunk::default();
        for pfn in 0..4 {
            c.full.push(FullPage { pfn, version: 1 });
        }
        c.swapped.push(SwappedMarker {
            pfn: 4,
            slot: 0,
            version: 1,
        });
        c.zero.push(5);
        c.zero.push(6);
        d.on_chunk(&c, &mut mem, &mut sa, &mut evs);
        let mut dirty = Bitmap::zeros(8);
        dirty.set(7);
        d.on_handoff(dirty, &mut mem);
        assert!(d.fully_accounted());
    }

    #[test]
    #[should_panic(expected = "fault before resume")]
    fn fault_before_resume_is_a_bug() {
        let d = DestSession::new(Technique::Agile, 8);
        d.classify_fault(0);
    }
}
