//! Randomized property tests for the memory substrate, driven by the
//! deterministic simulation RNG (fixed seeds, so failures reproduce).

use agile_memory::{
    Eviction, LruLinks, LruList, PageFlags, PagemapEntry, SlotAllocator, Touch, VmMemory,
    VmMemoryConfig,
};
use agile_sim_core::DetRng;

/// A random guest access trace: (page, write).
fn trace(rng: &mut DetRng, pages: u32, max_len: usize) -> Vec<(u32, bool)> {
    let len = 1 + rng.index(max_len as u64) as usize;
    (0..len)
        .map(|_| (rng.index(pages as u64) as u32, rng.chance(0.5)))
        .collect()
}

/// Apply a trace, resolving faults immediately (a zero-latency device).
fn apply(mem: &mut VmMemory, slots: &mut SlotAllocator, trace: &[(u32, bool)]) -> Vec<Eviction> {
    let mut all = Vec::new();
    let mut evs = Vec::new();
    for &(pfn, write) in trace {
        match mem.touch(pfn, write, slots) {
            Touch::Hit => {}
            Touch::MinorFault => mem.fault_in(pfn, write, slots, &mut evs),
            Touch::MajorFault { .. } => {
                mem.begin_swap_in(pfn);
                mem.fault_in(pfn, write, slots, &mut evs);
            }
            Touch::InFlight => unreachable!("no concurrency in this test"),
        }
        all.append(&mut evs);
    }
    all
}

/// Core residency invariant: the VM never exceeds its reservation, and
/// every page is in exactly one of {resident, swapped, untouched}.
#[test]
fn residency_never_exceeds_limit() {
    for case in 0..120u64 {
        let mut rng = DetRng::seed_from(0x11ee * 7 + case);
        let limit = 1 + rng.index(31) as u32;
        let t = trace(&mut rng, 64, 400);
        let mut slots = SlotAllocator::unbounded();
        let mut mem = VmMemory::new(VmMemoryConfig {
            pages: 64,
            page_size: 4096,
            limit_pages: limit,
        });
        apply(&mut mem, &mut slots, &t);
        assert!(mem.resident_pages() <= limit, "case {case}");
        mem.check_invariants();
        let mut resident = 0;
        let mut swapped = 0;
        for p in 0..64 {
            match mem.pagemap(p) {
                PagemapEntry::Present => resident += 1,
                PagemapEntry::Swapped { .. } => swapped += 1,
                PagemapEntry::None => {}
            }
        }
        assert_eq!(resident, mem.resident_pages(), "case {case}");
        assert_eq!(swapped, mem.swapped_pages(), "case {case}");
    }
}

/// Content versions: a page's version equals the number of writes it
/// received, regardless of how often it was evicted and faulted back.
#[test]
fn versions_count_writes_exactly() {
    for case in 0..120u64 {
        let mut rng = DetRng::seed_from(0x22ee * 13 + case);
        let limit = 1 + rng.index(15) as u32;
        let t = trace(&mut rng, 32, 400);
        let mut slots = SlotAllocator::unbounded();
        let mut mem = VmMemory::new(VmMemoryConfig {
            pages: 32,
            page_size: 4096,
            limit_pages: limit,
        });
        apply(&mut mem, &mut slots, &t);
        let mut writes = [0u32; 32];
        for &(p, w) in &t {
            if w {
                writes[p as usize] += 1;
            }
        }
        for p in 0..32u32 {
            assert_eq!(mem.version(p), writes[p as usize], "case {case} page {p}");
        }
    }
}

/// Swap slots are never shared by two pages: within one image, or
/// across two images drawing from one slot space with their traces
/// interleaved (the host partition every SSD-swapping VM shares, or a
/// namespace shared by a migration's source and destination images).
#[test]
fn swap_slots_are_exclusive() {
    for case in 0..120u64 {
        let mut rng = DetRng::seed_from(0x33ee * 17 + case);
        let limit = 1 + rng.index(15) as u32;
        let t = trace(&mut rng, 64, 400);
        let mut slots = SlotAllocator::unbounded();
        let mut mem = VmMemory::new(VmMemoryConfig {
            pages: 64,
            page_size: 4096,
            limit_pages: limit,
        });
        apply(&mut mem, &mut slots, &t);
        let mut seen = std::collections::HashSet::new();
        for p in 0..64 {
            if let PagemapEntry::Swapped { slot } = mem.pagemap(p) {
                assert!(seen.insert(slot), "case {case}: slot {slot} shared");
            }
        }
    }
    for case in 0..60u64 {
        let mut rng = DetRng::seed_from(0x88ee * 37 + case);
        let mut slots = SlotAllocator::unbounded();
        let mut mems: Vec<VmMemory> = (0..2)
            .map(|_| {
                VmMemory::new(VmMemoryConfig {
                    pages: 64,
                    page_size: 4096,
                    limit_pages: 1 + rng.index(15) as u32,
                })
            })
            .collect();
        for _ in 0..400 {
            let access = (rng.index(64) as u32, rng.chance(0.5));
            apply(&mut mems[rng.index(2) as usize], &mut slots, &[access]);
        }
        let mut seen = std::collections::HashSet::new();
        for slot in mems.iter().flat_map(|m| m.referenced_slots()) {
            assert!(seen.insert(slot), "case {case}: slot {slot} shared");
            assert!(slots.is_allocated(slot), "case {case}: slot {slot} free");
        }
        assert_eq!(slots.live() as usize, seen.len(), "case {case}");
    }
}

/// Clean drops never lose content — after re-faulting everything in,
/// versions still equal the write counts.
#[test]
fn clean_drops_preserve_content() {
    for case in 0..120u64 {
        let mut rng = DetRng::seed_from(0x44ee * 19 + case);
        let limit = 2 + rng.index(6) as u32;
        let t = trace(&mut rng, 24, 400);
        let mut slots = SlotAllocator::unbounded();
        let mut mem = VmMemory::new(VmMemoryConfig {
            pages: 24,
            page_size: 4096,
            limit_pages: limit,
        });
        apply(&mut mem, &mut slots, &t);
        let mut evs = Vec::new();
        mem.set_limit_pages(24, &mut slots, &mut evs);
        for p in 0..24u32 {
            if let Touch::MajorFault { .. } = mem.touch(p, false, &mut slots) {
                mem.begin_swap_in(p);
                mem.fault_in(p, false, &mut slots, &mut evs);
            }
        }
        let mut writes = [0u32; 24];
        for &(p, w) in &t {
            if w {
                writes[p as usize] += 1;
            }
        }
        for p in 0..24u32 {
            assert_eq!(mem.version(p), writes[p as usize], "case {case} page {p}");
        }
        mem.check_invariants();
    }
}

/// First touches at high and scattered PFNs (guest faults and
/// migration-side installs), on address spaces much larger than what is
/// touched: the lazily materialized page tables stay consistent after
/// every step, and every page never touched still reads as never
/// populated.
#[test]
fn scattered_high_first_touches_leave_the_rest_unpopulated() {
    for case in 0..60u64 {
        let mut rng = DetRng::seed_from(0x77ee * 31 + case);
        let pages = 1_024 + rng.index(7_168) as u32;
        let limit = 1 + rng.index(48) as u32;
        let mut slots = SlotAllocator::unbounded();
        let mut mem = VmMemory::new(VmMemoryConfig {
            pages,
            page_size: 4096,
            limit_pages: limit,
        });
        // A hot set in the top quarter of the address space, plus strays
        // anywhere; the first touch of the case is the highest page.
        let hot: Vec<u32> = (0..1 + rng.index(40))
            .map(|_| pages - 1 - rng.index(u64::from(pages / 4)) as u32)
            .collect();
        let mut touched = vec![false; pages as usize];
        let mut evs = Vec::new();
        let mut next_external_slot = 4_096;
        for step in 0..300 {
            let pfn = match step {
                0 => pages - 1,
                _ if rng.chance(0.8) => hot[rng.index(hot.len() as u64) as usize],
                _ => rng.index(u64::from(pages)) as u32,
            };
            match rng.index(10) {
                // Destination-side install of a freshly received page.
                0 => mem.install_page(pfn, 1 + rng.index(9) as u32, &mut slots, &mut evs),
                // Swapped marker for a page with no state yet.
                1 if mem.pagemap(pfn) == PagemapEntry::None => {
                    mem.install_swapped(pfn, next_external_slot, rng.index(5) as u32, &mut slots);
                    next_external_slot += 1;
                }
                _ => {
                    apply(&mut mem, &mut slots, &[(pfn, rng.chance(0.5))]);
                }
            }
            evs.clear();
            touched[pfn as usize] = true;
            assert!(mem.resident_pages() <= limit, "case {case} step {step}");
            mem.check_invariants();
        }
        for p in (0..pages).filter(|&p| !touched[p as usize]) {
            assert_eq!(mem.pagemap(p), PagemapEntry::None, "case {case} page {p}");
            assert_eq!(mem.version(p), 0, "case {case} page {p}");
            assert_eq!(
                mem.page_flags(p),
                PageFlags::empty(),
                "case {case} page {p}"
            );
        }
    }
}

/// LRU list model check against a Vec<u32> reference.
#[test]
fn lru_matches_reference_model() {
    for case in 0..120u64 {
        let mut rng = DetRng::seed_from(0x55ee * 23 + case);
        let n_ops = 1 + rng.index(200) as usize;
        let mut links = LruLinks::new(16);
        let mut list = LruList::new();
        let mut model: Vec<u32> = Vec::new(); // front = MRU
        for _ in 0..n_ops {
            let op = rng.index(4) as u8;
            let page = rng.index(16) as u32;
            match op {
                0 => {
                    // push_front if absent
                    if !model.contains(&page) {
                        list.push_front(&mut links, page);
                        model.insert(0, page);
                    }
                }
                1 => {
                    // remove if present
                    if let Some(pos) = model.iter().position(|&p| p == page) {
                        list.remove(&mut links, page);
                        model.remove(pos);
                    }
                }
                2 => {
                    // pop_back
                    let got = list.pop_back(&mut links);
                    let want = model.pop();
                    assert_eq!(got, want, "case {case}");
                }
                _ => {
                    // move_to_front if present
                    if let Some(pos) = model.iter().position(|&p| p == page) {
                        list.move_to_front(&mut links, page);
                        let v = model.remove(pos);
                        model.insert(0, v);
                    }
                }
            }
            assert_eq!(list.len() as usize, model.len(), "case {case}");
            let listed: Vec<u32> = list.iter(&links).collect();
            assert_eq!(&listed, &model, "case {case}");
            assert_eq!(list.front(), model.first().copied(), "case {case}");
            assert_eq!(list.back(), model.last().copied(), "case {case}");
        }
    }
}

/// Slot allocator: live count is exact and double allocation of the same
/// live slot never happens.
#[test]
fn slot_allocator_consistency() {
    for case in 0..120u64 {
        let mut rng = DetRng::seed_from(0x66ee * 29 + case);
        let n_ops = 1 + rng.index(200) as usize;
        let mut a = SlotAllocator::unbounded();
        let mut live: Vec<u32> = Vec::new();
        for _ in 0..n_ops {
            if rng.chance(0.5) || live.is_empty() {
                let s = a.alloc().unwrap();
                assert!(!live.contains(&s), "case {case}: slot {s} double-allocated");
                live.push(s);
            } else {
                let s = live.swap_remove(live.len() / 2);
                a.free(s);
            }
            assert_eq!(a.live() as usize, live.len(), "case {case}");
        }
    }
}
