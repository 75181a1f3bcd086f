//! Per-VM guest memory under a cgroup reservation.
//!
//! [`VmMemory`] is the host's view of one KVM/QEMU process: its guest
//! pages, each with PTE-style flags, an optional swap slot, and a content
//! version; plus the cgroup memory controller state (the reservation) and
//! a Linux-style two-list (active/inactive) reclaim machine with
//! second-chance promotion on the accessed bit and swap-cache reuse of
//! clean slots.
//!
//! The per-page tables are [`PageArray`]s: they hold state only up to the
//! highest page the VM has touched (faulted in, or had installed by a
//! migration), and every later page reads as never populated. A VM's
//! cold, never-touched memory thus costs the host nothing but the two
//! word-level shadow maps (one bit per page each).
//!
//! The struct is *sans-IO*: it never talks to a device. Operations that
//! logically perform swap I/O return descriptions of that I/O
//! ([`Eviction`] records, [`Touch::MajorFault`] outcomes) and the caller —
//! the cluster executor — charges them to the right [`agile_sim_core::BlockDevice`]
//! or VMD namespace. This keeps the memory semantics exactly testable.
//! Nor does it own a slot space: the mutators that can allocate or free a
//! swap slot take the [`SlotAllocator`] of the device the image is bound
//! to, so every image bound to one device draws from one space.
//!
//! Content versions: every guest write bumps the page's version counter.
//! Migration correctness tests assert that the destination ends up holding
//! the source's final version of every page — a strong end-to-end check on
//! the dirty-tracking logic of all three migration techniques.

use crate::epoch::{EpochReport, EpochTracker};
use crate::lru::{LruLinks, LruList};
use crate::page::{PageFlags, PagemapEntry};
use crate::pagearray::PageArray;
use crate::slots::{SlotAllocator, NO_SLOT};

/// Result of a guest access to a page.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Touch {
    /// Page resident — access completes at memory speed.
    Hit,
    /// Page never populated — a minor fault (zero-fill, no I/O). The caller
    /// must follow up with [`VmMemory::fault_in`].
    MinorFault,
    /// Page is on the swap device — the caller must read `slot` from the
    /// VM's swap backend and then call [`VmMemory::fault_in`].
    MajorFault {
        /// Swap slot holding the page.
        slot: u32,
    },
    /// Another thread already started a swap-in for this page; the caller
    /// should park until that I/O completes.
    InFlight,
}

/// One page evicted by reclaim. When `needs_write` is set the caller must
/// issue a swap-out write of the page to `slot`; otherwise a clean swap-cache
/// copy already exists there and the page was dropped for free.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Eviction {
    /// Guest page frame number.
    pub pfn: u32,
    /// Destination swap slot.
    pub slot: u32,
    /// Whether a device write is required.
    pub needs_write: bool,
}

/// Cumulative memory-management counters for one VM.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct MemCounters {
    /// Zero-fill faults (first touch of a page).
    pub minor_faults: u64,
    /// Faults that required a swap-in read.
    pub major_faults: u64,
    /// Evictions that required a swap-out write.
    pub swap_out_writes: u64,
    /// Evictions satisfied by a clean swap-cache copy (no write).
    pub clean_drops: u64,
}

/// Configuration for a VM's memory.
#[derive(Clone, Copy, Debug)]
pub struct VmMemoryConfig {
    /// Guest physical memory size in pages.
    pub pages: u32,
    /// Page size in bytes (4096 in the paper's testbed).
    pub page_size: u64,
    /// Initial cgroup reservation in pages.
    pub limit_pages: u32,
}

impl VmMemoryConfig {
    /// Convenience constructor from byte sizes (rounding down to whole
    /// pages).
    pub fn from_bytes(mem_bytes: u64, page_size: u64, limit_bytes: u64) -> Self {
        VmMemoryConfig {
            pages: (mem_bytes / page_size) as u32,
            page_size,
            limit_pages: (limit_bytes / page_size) as u32,
        }
    }
}

/// The host-side memory state of one VM (one KVM/QEMU process in a cgroup).
#[derive(Clone, Debug)]
pub struct VmMemory {
    page_size: u64,
    flags: PageArray<PageFlags>,
    swap_slot: PageArray<u32>,
    version: PageArray<u32>,
    /// Word-level shadow of the PRESENT flag (bit `p` of word `p / 64`),
    /// kept in sync at every residency transition so whole-address-space
    /// scans run 64 pages per load instead of per-byte flag reads.
    present_map: Vec<u64>,
    /// Word-level shadow of the SWAPPED flag.
    swapped_map: Vec<u64>,
    links: LruLinks,
    active: LruList,
    inactive: LruList,
    limit_pages: u32,
    swapped: u32,
    counters: MemCounters,
    /// Simulated-PML dirty-page epoch tracker; `None` (the default) costs
    /// one branch per guest access and keeps legacy behaviour untouched.
    epoch: Option<Box<EpochTracker>>,
}

impl VmMemory {
    /// Create a fully-unpopulated VM memory.
    pub fn new(cfg: VmMemoryConfig) -> Self {
        let n = cfg.pages as usize;
        VmMemory {
            page_size: cfg.page_size,
            flags: PageArray::new(cfg.pages, PageFlags::empty()),
            swap_slot: PageArray::new(cfg.pages, NO_SLOT),
            version: PageArray::new(cfg.pages, 0),
            present_map: vec![0; n.div_ceil(64)],
            swapped_map: vec![0; n.div_ceil(64)],
            links: LruLinks::new(n),
            active: LruList::new(),
            inactive: LruList::new(),
            limit_pages: cfg.limit_pages,
            swapped: 0,
            counters: MemCounters::default(),
            epoch: None,
        }
    }

    /// Total guest pages.
    #[inline]
    pub fn pages(&self) -> u32 {
        self.flags.pages()
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Resident pages (charged against the reservation).
    #[inline]
    pub fn resident_pages(&self) -> u32 {
        self.active.len() + self.inactive.len()
    }

    /// Pages currently swapped out.
    #[inline]
    pub fn swapped_pages(&self) -> u32 {
        self.swapped
    }

    /// Current reservation in pages.
    #[inline]
    pub fn limit_pages(&self) -> u32 {
        self.limit_pages
    }

    /// Current reservation in bytes.
    pub fn limit_bytes(&self) -> u64 {
        self.limit_pages as u64 * self.page_size
    }

    /// Cumulative counters.
    pub fn counters(&self) -> MemCounters {
        self.counters
    }

    /// Content version of a page (bumped on every guest write).
    #[inline]
    pub fn version(&self, pfn: u32) -> u32 {
        self.version.get(pfn)
    }

    /// All content versions (index = PFN; 0 past the materialized
    /// prefix). Lets migration's dirty scan compare whole cache lines of
    /// the materialized prefix instead of calling [`VmMemory::version`] per
    /// page.
    #[inline]
    pub fn versions(&self) -> &PageArray<u32> {
        &self.version
    }

    /// Pages with materialized per-page storage: the longer prefix of the
    /// flag/slot/version tables (which grow together) and the LRU links
    /// (memory-footprint tests).
    #[doc(hidden)]
    pub fn materialized_pages(&self) -> usize {
        self.flags
            .materialized()
            .len()
            .max(self.links.materialized_pages())
    }

    /// Word-level presence map: bit `p % 64` of word `p / 64` is set iff
    /// page `p` is resident. Tail bits beyond [`VmMemory::pages`] are zero.
    #[inline]
    pub fn present_words(&self) -> &[u64] {
        &self.present_map
    }

    /// Word-level swapped map, same layout as
    /// [`VmMemory::present_words`].
    #[inline]
    pub fn swapped_words(&self) -> &[u64] {
        &self.swapped_map
    }

    /// Visit every swapped-out page in ascending PFN order, word-at-a-time.
    pub fn for_each_swapped(&self, mut f: impl FnMut(u32)) {
        for (wi, &w) in self.swapped_map.iter().enumerate() {
            let mut word = w;
            while word != 0 {
                let pfn = wi as u32 * 64 + word.trailing_zeros();
                word &= word - 1;
                f(pfn);
            }
        }
    }

    #[inline]
    fn shadow(map: &mut [u64], pfn: u32, on: bool) {
        let w = &mut map[pfn as usize / 64];
        let mask = 1u64 << (pfn % 64);
        if on {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// The `/proc/pid/pagemap` view of a page.
    #[inline]
    pub fn pagemap(&self, pfn: u32) -> PagemapEntry {
        let f = self.flags.get(pfn);
        if f.present() {
            PagemapEntry::Present
        } else if f.swapped() {
            PagemapEntry::Swapped {
                slot: self.swap_slot[pfn as usize],
            }
        } else {
            PagemapEntry::None
        }
    }

    /// Every swap slot this image references (a swapped page's, or a
    /// resident page's clean swap-cache copy), in PFN order.
    pub fn referenced_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.swap_slot
            .materialized()
            .iter()
            .copied()
            .filter(|&s| s != NO_SLOT)
    }

    /// Raw flags of a page (tests and migration internals).
    #[inline]
    pub fn page_flags(&self, pfn: u32) -> PageFlags {
        self.flags.get(pfn)
    }

    /// Arm simulated-PML epoch tracking with a `log_cap`-entry buffer,
    /// replacing (and discarding) any in-progress epoch. Guest accesses
    /// from this instant on feed the tracker; migration-side installs
    /// never do.
    pub fn arm_epoch_tracking(&mut self, log_cap: usize) {
        self.epoch = Some(Box::new(EpochTracker::new(log_cap, self.pages())));
    }

    /// Stop epoch tracking and drop any in-progress epoch.
    pub fn disarm_epoch_tracking(&mut self) {
        self.epoch = None;
    }

    /// Whether epoch tracking is armed.
    #[inline]
    pub fn epoch_armed(&self) -> bool {
        self.epoch.is_some()
    }

    /// Close the current epoch and start the next one. Panics if tracking
    /// is not armed — callers gate on [`VmMemory::epoch_armed`].
    pub fn drain_epoch(&mut self) -> EpochReport {
        let tracker = self.epoch.as_mut().expect("epoch tracking not armed");
        tracker.drain(&self.present_map)
    }

    #[inline]
    fn note_epoch(&mut self, pfn: u32) {
        if let Some(t) = self.epoch.as_deref_mut() {
            t.note(pfn);
        }
    }

    /// Give `pfn` storage in the flag, slot and version tables (which
    /// share one prefix). Called where a page first gains state (a
    /// completed fault, a migration install); every other write goes to a
    /// page that already has state.
    #[inline]
    fn materialize(&mut self, pfn: u32) {
        if pfn as usize >= self.flags.materialized().len() {
            self.grow(pfn);
        }
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self, pfn: u32) {
        self.flags.materialize(pfn);
        self.swap_slot.materialize(pfn);
        self.version.materialize(pfn);
    }

    /// Guest access. See [`Touch`] for the contract.
    pub fn touch(&mut self, pfn: u32, write: bool, slots: &mut SlotAllocator) -> Touch {
        let i = pfn as usize;
        let f = self.flags.get(pfn);
        if f.present() {
            self.note_epoch(pfn);
            let fl = &mut self.flags[i];
            fl.set(PageFlags::ACCESSED);
            if write {
                fl.set(PageFlags::DIRTY);
                self.version[i] = self.version[i].wrapping_add(1);
                // A write invalidates any swap-resident copy; Linux frees
                // the slot at the write fault, so re-eviction allocates a
                // fresh one — which is what randomizes the swap layout of
                // a write-heavy (busy) VM.
                if self.swap_slot[i] != NO_SLOT {
                    slots.free(self.swap_slot[i]);
                    self.swap_slot[i] = NO_SLOT;
                    self.flags[i].clear(PageFlags::HAS_SWAP_COPY);
                }
            }
            Touch::Hit
        } else if f.any(PageFlags::IO_INFLIGHT) {
            Touch::InFlight
        } else if f.swapped() {
            Touch::MajorFault {
                slot: self.swap_slot[i],
            }
        } else {
            Touch::MinorFault
        }
    }

    /// Mark that a swap-in I/O has been issued for `pfn` so concurrent
    /// touches return [`Touch::InFlight`].
    pub fn begin_swap_in(&mut self, pfn: u32) {
        let f = &mut self.flags[pfn as usize];
        debug_assert!(f.swapped() && !f.any(PageFlags::IO_INFLIGHT));
        f.set(PageFlags::IO_INFLIGHT);
    }

    /// Complete a fault (minor, or major once the swap-in I/O finished).
    /// Makes the page resident and returns any evictions needed to stay
    /// within the reservation.
    pub fn fault_in(
        &mut self,
        pfn: u32,
        write: bool,
        slots: &mut SlotAllocator,
        evictions: &mut Vec<Eviction>,
    ) {
        // A completed fault is one guest access, counted here (not at the
        // triggering `touch`) so parked InFlight waiters aren't multiply
        // counted and migration-side installs never register.
        self.note_epoch(pfn);
        self.materialize(pfn);
        let i = pfn as usize;
        let was_swapped = self.flags[i].swapped();
        if was_swapped {
            self.counters.major_faults += 1;
            self.swapped -= 1;
        } else {
            debug_assert!(
                !self.flags[i].present(),
                "fault_in on an already-present page"
            );
            self.counters.minor_faults += 1;
        }
        Self::shadow(&mut self.present_map, pfn, true);
        Self::shadow(&mut self.swapped_map, pfn, false);
        {
            let f = &mut self.flags[i];
            f.clear(PageFlags::IO_INFLIGHT | PageFlags::SWAPPED);
            f.set(PageFlags::PRESENT | PageFlags::ACCESSED);
            if was_swapped {
                // The swap slot still holds a valid copy (swap cache).
                f.set(PageFlags::HAS_SWAP_COPY);
            }
            if write {
                f.set(PageFlags::DIRTY);
                self.version[i] = self.version[i].wrapping_add(1);
                if self.swap_slot[i] != NO_SLOT {
                    slots.free(self.swap_slot[i]);
                    self.swap_slot[i] = NO_SLOT;
                    f.clear(PageFlags::HAS_SWAP_COPY);
                }
            }
        }
        self.active.push_front(&mut self.links, pfn);
        self.reclaim_to_limit(slots, evictions);
    }

    /// Change the cgroup reservation; reclaims down immediately if the VM
    /// is over the new limit (what `memory.limit_in_bytes` does).
    pub fn set_limit_pages(
        &mut self,
        limit: u32,
        slots: &mut SlotAllocator,
        evictions: &mut Vec<Eviction>,
    ) {
        self.limit_pages = limit;
        self.reclaim_to_limit(slots, evictions);
    }

    /// Set the reservation in bytes (rounded down to pages).
    pub fn set_limit_bytes(
        &mut self,
        bytes: u64,
        slots: &mut SlotAllocator,
        evictions: &mut Vec<Eviction>,
    ) {
        self.set_limit_pages((bytes / self.page_size) as u32, slots, evictions);
    }

    fn reclaim_to_limit(&mut self, slots: &mut SlotAllocator, evictions: &mut Vec<Eviction>) {
        while self.resident_pages() > self.limit_pages {
            match self.reclaim_one(slots) {
                Some(ev) => evictions.push(ev),
                None => break, // everything pinned by in-flight I/O
            }
        }
    }

    /// Demote one page from the active tail to the inactive head, giving
    /// recently-accessed pages a second chance (they rotate back to the
    /// active head with the bit cleared). Returns false if nothing could be
    /// demoted.
    fn demote_one(&mut self) -> bool {
        let mut budget = self.active.len();
        while budget > 0 {
            budget -= 1;
            let p = match self.active.pop_back(&mut self.links) {
                Some(p) => p,
                None => return false,
            };
            let f = &mut self.flags[p as usize];
            if f.any(PageFlags::ACCESSED) {
                // Referenced since the last scan: age it instead.
                f.clear(PageFlags::ACCESSED);
                self.active.push_front(&mut self.links, p);
                continue;
            }
            self.inactive.push_front(&mut self.links, p);
            return true;
        }
        // Every active page was referenced; force-demote the tail.
        match self.active.pop_back(&mut self.links) {
            Some(p) => {
                self.flags[p as usize].clear(PageFlags::ACCESSED);
                self.inactive.push_front(&mut self.links, p);
                true
            }
            None => false,
        }
    }

    /// Evict one page using two-list second-chance reclaim.
    fn reclaim_one(&mut self, slots: &mut SlotAllocator) -> Option<Eviction> {
        // Keep the inactive list at least a third of resident memory, like
        // Linux's inactive_is_low heuristic for anonymous LRU.
        let target_inactive = self.resident_pages() / 3;
        while self.inactive.len() < target_inactive {
            if !self.demote_one() {
                break;
            }
        }
        // Scan the inactive tail with second chance; bound the scan so a
        // fully-referenced list still converges.
        let mut scans = self.inactive.len().max(1);
        while scans > 0 {
            scans -= 1;
            let victim = match self.inactive.pop_back(&mut self.links) {
                Some(v) => v,
                None => {
                    // Inactive empty: demote one active page and retry.
                    if self.demote_one() {
                        continue;
                    }
                    return None;
                }
            };
            let vf = self.flags[victim as usize];
            if vf.any(PageFlags::IO_INFLIGHT) {
                // Cannot evict a page mid-I/O; rotate it away.
                self.inactive.push_front(&mut self.links, victim);
                continue;
            }
            if vf.any(PageFlags::ACCESSED) {
                // Second chance: promote back to active.
                self.flags[victim as usize].clear(PageFlags::ACCESSED);
                self.active.push_front(&mut self.links, victim);
                continue;
            }
            return Some(self.evict(victim, slots));
        }
        // Scan budget exhausted: force-evict the inactive tail if possible.
        match self.inactive.pop_back(&mut self.links) {
            Some(victim) if self.flags[victim as usize].any(PageFlags::IO_INFLIGHT) => {
                self.inactive.push_front(&mut self.links, victim);
                None
            }
            Some(victim) => Some(self.evict(victim, slots)),
            None => None,
        }
    }

    /// Detach `victim` (already off the lists) and produce its eviction
    /// record.
    fn evict(&mut self, victim: u32, slots: &mut SlotAllocator) -> Eviction {
        let i = victim as usize;
        let f = self.flags[i];
        debug_assert!(f.present());
        let clean_copy = f.any(PageFlags::HAS_SWAP_COPY) && !f.any(PageFlags::DIRTY);
        let slot = if self.swap_slot[i] != NO_SLOT {
            self.swap_slot[i]
        } else {
            let s = slots.alloc().expect("unbounded namespace");
            self.swap_slot[i] = s;
            s
        };
        let needs_write = !clean_copy;
        if needs_write {
            self.counters.swap_out_writes += 1;
        } else {
            self.counters.clean_drops += 1;
        }
        let fl = &mut self.flags[i];
        fl.clear(
            PageFlags::PRESENT | PageFlags::DIRTY | PageFlags::ACCESSED | PageFlags::HAS_SWAP_COPY,
        );
        fl.set(PageFlags::SWAPPED);
        Self::shadow(&mut self.present_map, victim, false);
        Self::shadow(&mut self.swapped_map, victim, true);
        self.swapped += 1;
        Eviction {
            pfn: victim,
            slot,
            needs_write,
        }
    }

    // ------------------------------------------------------------------
    // Migration-side operations (destination population, source teardown)
    // ------------------------------------------------------------------

    /// Install a page received over the migration channel (destination
    /// side), recording the content version it carries. Frees any stale
    /// swap state for the page and may trigger reclaim.
    pub fn install_page(
        &mut self,
        pfn: u32,
        version: u32,
        slots: &mut SlotAllocator,
        evictions: &mut Vec<Eviction>,
    ) {
        self.materialize(pfn);
        let i = pfn as usize;
        let f = self.flags[i];
        if f.present() {
            // Overwrite of an already-received page (a newer copy pushed
            // from the source): just update content and drop any stale
            // swap copy.
            self.version[i] = version;
            let fl = &mut self.flags[i];
            fl.set(PageFlags::DIRTY);
            fl.clear(PageFlags::HAS_SWAP_COPY);
            if self.swap_slot[i] != NO_SLOT {
                slots.free(self.swap_slot[i]);
                self.swap_slot[i] = NO_SLOT;
            }
            return;
        }
        if f.swapped() || self.swap_slot[i] != NO_SLOT {
            // A newer copy supersedes the swap-resident one.
            slots.free(self.swap_slot[i]);
            self.swap_slot[i] = NO_SLOT;
            if f.swapped() {
                self.swapped -= 1;
            }
        }
        let fl = &mut self.flags[i];
        fl.clear(PageFlags::SWAPPED | PageFlags::IO_INFLIGHT);
        fl.set(PageFlags::PRESENT | PageFlags::DIRTY);
        Self::shadow(&mut self.present_map, pfn, true);
        Self::shadow(&mut self.swapped_map, pfn, false);
        self.version[i] = version;
        self.active.push_front(&mut self.links, pfn);
        self.reclaim_to_limit(slots, evictions);
    }

    /// Record that a page's content lives at `slot` on the VM's (portable)
    /// swap device — the destination-side handling of a `SWAPPED`-flag
    /// message in Agile migration. `version` is the content version the
    /// slot holds.
    pub fn install_swapped(
        &mut self,
        pfn: u32,
        slot: u32,
        version: u32,
        slots: &mut SlotAllocator,
    ) {
        self.materialize(pfn);
        let i = pfn as usize;
        debug_assert!(
            !self.flags[i].present() && !self.flags[i].swapped(),
            "install_swapped over existing state"
        );
        self.flags[i].set(PageFlags::SWAPPED);
        Self::shadow(&mut self.swapped_map, pfn, true);
        self.swap_slot[i] = slot;
        self.version[i] = version;
        self.swapped += 1;
        slots.note_external(slot);
    }

    /// Drop a stale swapped-page tracking entry *without* freeing the slot
    /// (the authoritative image already freed it — destination-side
    /// handling of the postcopy discard bitmap).
    pub fn discard_swapped(&mut self, pfn: u32) {
        let i = pfn as usize;
        let f = &mut self.flags[i];
        debug_assert!(f.swapped() && !f.present());
        f.clear(PageFlags::SWAPPED | PageFlags::HAS_SWAP_COPY);
        Self::shadow(&mut self.swapped_map, pfn, false);
        self.swap_slot[i] = NO_SLOT;
        self.swapped -= 1;
    }

    /// Iterate the PFNs of all resident pages (MRU → LRU order, active list
    /// first). Used by migration to enumerate what to send.
    pub fn resident_pfns(&self) -> impl Iterator<Item = u32> + '_ {
        self.active
            .iter(&self.links)
            .chain(self.inactive.iter(&self.links))
    }

    /// Internal consistency check, O(touched pages + pages / 64): cheap
    /// enough for release-build audits at the end of a run.
    ///
    /// Page conservation: every page is exactly one of resident (on one
    /// LRU list), swapped (holding a slot), or never populated; the
    /// counters and word-level shadow maps agree with the flags; and every
    /// page past the flag table's materialized prefix reads as never
    /// populated in every table.
    pub fn check_invariants(&self) {
        let mut on_lists = 0u32;
        for pfn in self
            .active
            .iter(&self.links)
            .chain(self.inactive.iter(&self.links))
        {
            assert!(
                self.flags[pfn as usize].present(),
                "listed page not present"
            );
            on_lists += 1;
        }
        assert_eq!(on_lists, self.resident_pages());
        let touched = self.flags.materialized();
        let swapped_scan = touched.iter().filter(|f| f.swapped()).count() as u32;
        assert_eq!(swapped_scan, self.swapped, "swapped counter out of sync");
        // The word-level shadow maps must agree with the per-page flags.
        let present_words: u32 = self.present_map.iter().map(|w| w.count_ones()).sum();
        assert_eq!(
            present_words,
            self.resident_pages(),
            "present map out of sync"
        );
        let swapped_words: u32 = self.swapped_map.iter().map(|w| w.count_ones()).sum();
        assert_eq!(swapped_words, self.swapped, "swapped map out of sync");
        for (i, f) in touched.iter().enumerate() {
            let in_present = self.present_map[i / 64] & (1 << (i % 64)) != 0;
            let in_swapped = self.swapped_map[i / 64] & (1 << (i % 64)) != 0;
            assert_eq!(in_present, f.present(), "present shadow wrong for page {i}");
            assert_eq!(in_swapped, f.swapped(), "swapped shadow wrong for page {i}");
        }
        for (i, f) in touched.iter().enumerate() {
            if f.swapped() {
                assert!(!f.present(), "page {i} both present and swapped");
                assert_ne!(self.swap_slot[i], NO_SLOT, "swapped page {i} without slot");
            }
            if f.present() && f.any(PageFlags::HAS_SWAP_COPY) {
                assert_ne!(self.swap_slot[i], NO_SLOT);
            }
            if f.present() && !f.any(PageFlags::HAS_SWAP_COPY) {
                assert_eq!(
                    self.swap_slot[i], NO_SLOT,
                    "present page {i} without swap copy must hold no slot"
                );
            }
            if !f.present() && !f.swapped() {
                assert_eq!(self.swap_slot[i], NO_SLOT, "untracked page {i} holds slot");
            }
            if !f.present() {
                assert!(self.links.detached(i as u32), "unlisted page {i} linked");
            }
        }
        // Past the flag prefix nothing may hold state: the other tables
        // read their fill there.
        for pfn in touched.len() as u32..self.materialized_pages() as u32 {
            assert_eq!(
                self.swap_slot.get(pfn),
                NO_SLOT,
                "untouched page {pfn} holds slot"
            );
            assert_eq!(
                self.version.get(pfn),
                0,
                "untouched page {pfn} has a version"
            );
            assert!(self.links.detached(pfn), "untouched page {pfn} linked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(pages: u32, limit: u32) -> (VmMemory, SlotAllocator) {
        let m = VmMemory::new(VmMemoryConfig {
            pages,
            page_size: 4096,
            limit_pages: limit,
        });
        (m, SlotAllocator::unbounded())
    }

    /// Populate pages [0, n) with minor faults, collecting evictions.
    fn populate(m: &mut VmMemory, sa: &mut SlotAllocator, n: u32, evs: &mut Vec<Eviction>) {
        for p in 0..n {
            assert_eq!(m.touch(p, false, sa), Touch::MinorFault);
            m.fault_in(p, false, sa, evs);
        }
    }

    #[test]
    fn first_touch_is_minor_fault_then_hit() {
        let (mut m, mut sa) = mem(16, 16);
        let mut evs = Vec::new();
        assert_eq!(m.touch(3, false, &mut sa), Touch::MinorFault);
        m.fault_in(3, false, &mut sa, &mut evs);
        assert_eq!(m.touch(3, false, &mut sa), Touch::Hit);
        assert!(evs.is_empty());
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.counters().minor_faults, 1);
        m.check_invariants();
    }

    #[test]
    fn writes_bump_versions() {
        let (mut m, mut sa) = mem(4, 4);
        let mut evs = Vec::new();
        m.touch(0, true, &mut sa);
        m.fault_in(0, true, &mut sa, &mut evs);
        assert_eq!(m.version(0), 1);
        m.touch(0, true, &mut sa);
        assert_eq!(m.version(0), 2);
        m.touch(0, false, &mut sa);
        assert_eq!(m.version(0), 2);
    }

    #[test]
    fn over_limit_population_evicts_lru() {
        let (mut m, mut sa) = mem(8, 4);
        let mut evs = Vec::new();
        populate(&mut m, &mut sa, 6, &mut evs);
        assert_eq!(m.resident_pages(), 4);
        assert_eq!(evs.len(), 2);
        // The first-touched pages (0, 1) are the cold ones.
        let evicted: Vec<u32> = evs.iter().map(|e| e.pfn).collect();
        assert!(evicted.contains(&0) && evicted.contains(&1), "{evicted:?}");
        for e in &evs {
            assert!(e.needs_write, "anon page first swap-out must write");
        }
        assert_eq!(m.pagemap(0), PagemapEntry::Swapped { slot: evs[0].slot });
        m.check_invariants();
    }

    #[test]
    fn major_fault_roundtrip() {
        let (mut m, mut sa) = mem(8, 2);
        let mut evs = Vec::new();
        populate(&mut m, &mut sa, 3, &mut evs);
        assert_eq!(evs.len(), 1);
        let slot = evs[0].slot;
        let victim = evs[0].pfn;
        match m.touch(victim, false, &mut sa) {
            Touch::MajorFault { slot: s } => assert_eq!(s, slot),
            other => panic!("expected major fault, got {other:?}"),
        }
        m.begin_swap_in(victim);
        assert_eq!(m.touch(victim, false, &mut sa), Touch::InFlight);
        let mut evs2 = Vec::new();
        m.fault_in(victim, false, &mut sa, &mut evs2);
        assert_eq!(m.touch(victim, false, &mut sa), Touch::Hit);
        assert_eq!(m.counters().major_faults, 1);
        assert_eq!(evs2.len(), 1, "faulting in over limit evicts another");
        m.check_invariants();
    }

    #[test]
    fn clean_swap_cache_eviction_is_free() {
        let (mut m, mut sa) = mem(8, 2);
        let mut evs = Vec::new();
        populate(&mut m, &mut sa, 3, &mut evs);
        let victim = evs[0].pfn;
        let slot = evs[0].slot;
        // Swap it back in read-only...
        m.begin_swap_in(victim);
        let mut evs2 = Vec::new();
        m.fault_in(victim, false, &mut sa, &mut evs2);
        // ...then force everything out: the clean copy drops for free.
        let mut evs3 = Vec::new();
        m.set_limit_pages(0, &mut sa, &mut evs3);
        let e = evs3
            .iter()
            .find(|e| e.pfn == victim)
            .expect("victim evicted");
        assert!(!e.needs_write, "clean swap-cache copy should drop free");
        assert_eq!(e.slot, slot, "slot reused");
        assert!(m.counters().clean_drops >= 1);
        m.check_invariants();
    }

    #[test]
    fn dirtied_page_invalidates_swap_copy() {
        let (mut m, mut sa) = mem(8, 2);
        let mut evs = Vec::new();
        populate(&mut m, &mut sa, 3, &mut evs);
        let victim = evs[0].pfn;
        m.begin_swap_in(victim);
        let mut tmp = Vec::new();
        m.fault_in(victim, true, &mut sa, &mut tmp); // write during fault-in
        let mut evs3 = Vec::new();
        m.set_limit_pages(0, &mut sa, &mut evs3);
        let e = evs3
            .iter()
            .find(|e| e.pfn == victim)
            .expect("victim evicted");
        assert!(e.needs_write, "dirty page must be rewritten");
        m.check_invariants();
    }

    #[test]
    fn shrinking_limit_reclaims_immediately() {
        let (mut m, mut sa) = mem(16, 16);
        let mut evs = Vec::new();
        populate(&mut m, &mut sa, 10, &mut evs);
        assert!(evs.is_empty());
        m.set_limit_pages(4, &mut sa, &mut evs);
        assert_eq!(m.resident_pages(), 4);
        assert_eq!(evs.len(), 6);
        m.check_invariants();
    }

    #[test]
    fn growing_limit_does_not_fault_anything_in() {
        let (mut m, mut sa) = mem(16, 4);
        let mut evs = Vec::new();
        populate(&mut m, &mut sa, 8, &mut evs);
        let resident_before = m.resident_pages();
        let mut evs2 = Vec::new();
        m.set_limit_pages(16, &mut sa, &mut evs2);
        assert!(evs2.is_empty());
        assert_eq!(m.resident_pages(), resident_before);
    }

    #[test]
    fn second_chance_protects_hot_pages_under_steady_pressure() {
        // Working set = pages 0..4, plus a cold stream cycling through
        // 24 other pages, under an 8-page reservation. After convergence
        // the hot pages must stay resident: the cold stream churns through
        // the inactive list while re-touched hot pages keep earning their
        // second chance.
        let (mut m, mut sa) = mem(32, 8);
        let mut evs = Vec::new();
        let mut hot_major_faults_late = 0;
        for iter in 0..2000u32 {
            for p in 0..4 {
                match m.touch(p, false, &mut sa) {
                    Touch::Hit => {}
                    Touch::MajorFault { .. } => {
                        if iter > 100 {
                            hot_major_faults_late += 1;
                        }
                        m.begin_swap_in(p);
                        m.fault_in(p, false, &mut sa, &mut evs);
                    }
                    Touch::MinorFault => m.fault_in(p, false, &mut sa, &mut evs),
                    Touch::InFlight => unreachable!(),
                }
            }
            let cold = 5 + (iter % 24);
            match m.touch(cold, false, &mut sa) {
                Touch::Hit => {}
                Touch::MajorFault { .. } => {
                    m.begin_swap_in(cold);
                    m.fault_in(cold, false, &mut sa, &mut evs);
                }
                Touch::MinorFault => m.fault_in(cold, false, &mut sa, &mut evs),
                Touch::InFlight => unreachable!(),
            }
        }
        assert_eq!(
            hot_major_faults_late, 0,
            "hot pages should stay resident after warm-up"
        );
        for p in 0..4 {
            assert!(m.pagemap(p).is_present(), "hot page {p} not resident");
        }
        m.check_invariants();
    }

    #[test]
    fn pagemap_views() {
        let (mut m, mut sa) = mem(8, 2);
        let mut evs = Vec::new();
        assert_eq!(m.pagemap(5), PagemapEntry::None);
        populate(&mut m, &mut sa, 3, &mut evs);
        assert!(m.pagemap(2).is_present());
        assert!(m.pagemap(evs[0].pfn).is_swapped());
    }

    #[test]
    fn install_page_makes_resident_with_version() {
        let (mut m, mut sa) = mem(8, 8);
        let mut evs = Vec::new();
        m.install_page(3, 42, &mut sa, &mut evs);
        assert!(m.pagemap(3).is_present());
        assert_eq!(m.version(3), 42);
        // A newer pushed copy overwrites in place.
        m.install_page(3, 43, &mut sa, &mut evs);
        assert_eq!(m.version(3), 43);
        assert_eq!(m.resident_pages(), 1);
        m.check_invariants();
    }

    #[test]
    fn install_swapped_then_fault() {
        let (mut m, mut sa) = mem(8, 8);
        m.install_swapped(2, 17, 5, &mut sa);
        match m.touch(2, false, &mut sa) {
            Touch::MajorFault { slot } => assert_eq!(slot, 17),
            other => panic!("{other:?}"),
        }
        let mut evs = Vec::new();
        m.begin_swap_in(2);
        m.fault_in(2, false, &mut sa, &mut evs);
        assert!(m.pagemap(2).is_present());
        assert_eq!(m.version(2), 5);
        m.check_invariants();
    }

    #[test]
    fn install_page_supersedes_swapped_state() {
        let (mut m, mut sa) = mem(8, 8);
        m.install_swapped(2, 9, 1, &mut sa);
        let mut evs = Vec::new();
        m.install_page(2, 7, &mut sa, &mut evs);
        assert!(m.pagemap(2).is_present());
        assert_eq!(m.version(2), 7);
        m.check_invariants();
    }

    #[test]
    fn resident_pfns_enumerates_all_resident() {
        let (mut m, mut sa) = mem(16, 8);
        let mut evs = Vec::new();
        populate(&mut m, &mut sa, 12, &mut evs);
        let listed: Vec<u32> = m.resident_pfns().collect();
        assert_eq!(listed.len(), m.resident_pages() as usize);
        for p in &listed {
            assert!(m.pagemap(*p).is_present());
        }
    }

    #[test]
    fn sparse_vm_materializes_only_its_touched_prefix() {
        let (mut m, mut sa) = mem(16_384, 16_384);
        assert_eq!(m.materialized_pages(), 0);
        let mut evs = Vec::new();
        populate(&mut m, &mut sa, 2_048, &mut evs);
        assert!(
            m.materialized_pages() <= 2_048 + crate::pagearray::GROW_PAGES,
            "materialized {} pages",
            m.materialized_pages()
        );
        assert_eq!(m.pagemap(16_383), PagemapEntry::None);
        assert_eq!(m.version(16_383), 0);
        m.check_invariants();
    }

    #[test]
    fn counters_balance() {
        let (mut m, mut sa) = mem(32, 8);
        let mut evs = Vec::new();
        populate(&mut m, &mut sa, 20, &mut evs);
        let c = m.counters();
        assert_eq!(c.minor_faults, 20);
        assert_eq!(c.swap_out_writes + c.clean_drops, evs.len() as u64);
    }
}
