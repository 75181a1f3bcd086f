//! Randomized tests: bitmap algebra and protocol-session invariants under
//! arbitrary write/migration interleavings, driven by the deterministic
//! simulation RNG (fixed seeds, so failures reproduce).

use agile_memory::{PagemapEntry, SlotAllocator, VmMemory, VmMemoryConfig};
use agile_migration::{
    Bitmap, DestSession, SourceCmd, SourceConfig, SourceEvent, SourceSession, Technique,
};
use agile_sim_core::{DetRng, SimTime};

/// Bitmap against a reference BTreeSet model.
#[test]
fn bitmap_matches_set_model() {
    for case in 0..150u64 {
        let mut rng = DetRng::seed_from(0xb17 * 3 + case);
        let n_ops = 1 + rng.index(300) as usize;
        let mut b = Bitmap::zeros(200);
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..n_ops {
            let op = rng.index(3) as u8;
            let i = rng.index(200) as u32;
            match op {
                0 => {
                    let was = b.set(i);
                    assert_eq!(was, !model.insert(i), "case {case}");
                }
                1 => {
                    let was = b.clear(i);
                    assert_eq!(was, model.remove(&i), "case {case}");
                }
                _ => {
                    assert_eq!(b.get(i), model.contains(&i), "case {case}");
                }
            }
            assert_eq!(b.count_ones() as usize, model.len(), "case {case}");
        }
        let listed: Vec<u32> = b.iter_set().collect();
        let expect: Vec<u32> = model.into_iter().collect();
        assert_eq!(listed, expect, "case {case}");
    }
}

/// For ANY interleaving of guest writes with an Agile migration, the
/// protocol delivers the source's final content: run a migration with
/// writes injected between event steps and verify versions at the end.
#[test]
fn agile_protocol_never_loses_writes() {
    for case in 0..100u64 {
        let mut rng = DetRng::seed_from(0xa91e * 5 + case);
        let limit = 8 + rng.index(40) as u32;
        let n_writes = rng.index(60) as usize;
        let writes: Vec<(u32, u8)> = (0..n_writes)
            .map(|_| (rng.index(64) as u32, rng.index(8) as u8))
            .collect();
        let n_pages = 64u32;
        let mut src_slots = SlotAllocator::unbounded();
        let mut src_mem = VmMemory::new(VmMemoryConfig {
            pages: n_pages,
            page_size: 4096,
            limit_pages: limit,
        });
        let mut evs = Vec::new();
        for p in 0..n_pages {
            src_mem.touch(p, true, &mut src_slots);
            src_mem.fault_in(p, true, &mut src_slots, &mut evs);
            evs.clear();
        }
        let mut dst_slots = SlotAllocator::unbounded();
        let mut dst_mem = VmMemory::new(VmMemoryConfig {
            pages: n_pages,
            page_size: 4096,
            limit_pages: n_pages,
        });
        let mut src = SourceSession::new(
            SourceConfig {
                chunk_pages: 8,
                ..SourceConfig::new(Technique::Agile)
            },
            n_pages,
            SimTime::ZERO,
        );
        let mut dst = DestSession::new(Technique::Agile, n_pages);

        // Drive the protocol; after every source step, apply the next
        // scripted guest write at the source (only while it still runs
        // there).
        let mut write_iter = writes.into_iter();
        let mut queue = vec![SourceEvent::Start];
        let mut suspended = false;
        let mut guard = 0;
        while let Some(ev) = queue.pop() {
            guard += 1;
            assert!(guard < 100_000, "case {case}: runaway protocol");
            let cmds = src.on_event(SimTime::ZERO, ev, &src_mem);
            for cmd in cmds {
                match cmd {
                    SourceCmd::SendChunk { chunk, .. } => {
                        dst.on_chunk(&chunk, &mut dst_mem, &mut dst_slots, &mut evs);
                        evs.clear();
                        queue.push(SourceEvent::ChannelReady);
                    }
                    SourceCmd::SwapIn { batch, pages } => {
                        for (pfn, _) in pages {
                            if matches!(src_mem.pagemap(pfn), PagemapEntry::Swapped { .. }) {
                                src_mem.begin_swap_in(pfn);
                                src_mem.fault_in(pfn, false, &mut src_slots, &mut evs);
                                evs.clear();
                            }
                        }
                        queue.push(SourceEvent::SwapInDone { batch });
                    }
                    SourceCmd::Suspend => {
                        suspended = true;
                    }
                    SourceCmd::SendHandoff { .. } => {
                        let dirty = src.handoff_dirty().cloned().unwrap();
                        dst.on_handoff(dirty, &mut dst_mem);
                        queue.push(SourceEvent::HandoffDelivered);
                    }
                    SourceCmd::Done => {}
                }
            }
            if queue.is_empty() && !src.is_done() {
                queue.push(SourceEvent::ChannelReady);
            }
            // Guest write at the source while it still runs there.
            if !suspended {
                if let Some((pfn, reps)) = write_iter.next() {
                    for _ in 0..=reps {
                        match src_mem.touch(pfn, true, &mut src_slots) {
                            agile_memory::Touch::Hit => {}
                            agile_memory::Touch::MajorFault { .. } => {
                                src_mem.begin_swap_in(pfn);
                                src_mem.fault_in(pfn, true, &mut src_slots, &mut evs);
                                evs.clear();
                            }
                            agile_memory::Touch::MinorFault => {
                                src_mem.fault_in(pfn, true, &mut src_slots, &mut evs);
                                evs.clear();
                            }
                            agile_memory::Touch::InFlight => {}
                        }
                    }
                }
            }
        }
        assert!(src.is_done(), "case {case}");
        // Destination holds the source's final content: either the page
        // arrived in full (version equal) or it is tracked as swapped with
        // the right version recorded.
        for p in 0..n_pages {
            assert_eq!(
                dst_mem.version(p),
                src_mem.version(p),
                "case {case}: page {p} lost an update"
            );
        }
    }
}

/// Pre-copy under the same regime also converges and preserves content
/// (rounds are bounded by the config).
#[test]
fn precopy_protocol_never_loses_writes() {
    for case in 0..100u64 {
        let mut rng = DetRng::seed_from(0x9aec * 7 + case);
        let n_writes = rng.index(40) as usize;
        let writes: Vec<u32> = (0..n_writes).map(|_| rng.index(32) as u32).collect();
        let n_pages = 32u32;
        let mut src_slots = SlotAllocator::unbounded();
        let mut src_mem = VmMemory::new(VmMemoryConfig {
            pages: n_pages,
            page_size: 4096,
            limit_pages: n_pages,
        });
        let mut evs = Vec::new();
        for p in 0..n_pages {
            src_mem.touch(p, true, &mut src_slots);
            src_mem.fault_in(p, true, &mut src_slots, &mut evs);
            evs.clear();
        }
        let mut dst_slots = SlotAllocator::unbounded();
        let mut dst_mem = VmMemory::new(VmMemoryConfig {
            pages: n_pages,
            page_size: 4096,
            limit_pages: n_pages,
        });
        let mut src = SourceSession::new(
            SourceConfig {
                chunk_pages: 4,
                precopy_threshold_pages: 2,
                precopy_max_rounds: 10,
                ..SourceConfig::new(Technique::PreCopy)
            },
            n_pages,
            SimTime::ZERO,
        );
        let mut dst = DestSession::new(Technique::PreCopy, n_pages);
        let mut write_iter = writes.into_iter();
        let mut suspended = false;
        let mut queue = vec![SourceEvent::Start];
        let mut guard = 0;
        while let Some(ev) = queue.pop() {
            guard += 1;
            assert!(guard < 100_000, "case {case}");
            let cmds = src.on_event(SimTime::ZERO, ev, &src_mem);
            for cmd in cmds {
                match cmd {
                    SourceCmd::SendChunk { chunk, .. } => {
                        dst.on_chunk(&chunk, &mut dst_mem, &mut dst_slots, &mut evs);
                        evs.clear();
                        queue.push(SourceEvent::ChannelReady);
                    }
                    SourceCmd::SwapIn { batch, .. } => {
                        queue.push(SourceEvent::SwapInDone { batch });
                    }
                    SourceCmd::Suspend => suspended = true,
                    SourceCmd::SendHandoff { .. } => {
                        let dirty = src.handoff_dirty().cloned().unwrap();
                        dst.on_handoff(dirty, &mut dst_mem);
                        queue.push(SourceEvent::HandoffDelivered);
                    }
                    SourceCmd::Done => {}
                }
            }
            if queue.is_empty() && !src.is_done() {
                queue.push(SourceEvent::ChannelReady);
            }
            if !suspended {
                if let Some(pfn) = write_iter.next() {
                    src_mem.touch(pfn, true, &mut src_slots);
                }
            }
        }
        assert!(src.is_done(), "case {case}");
        for p in 0..n_pages {
            assert_eq!(
                dst_mem.version(p),
                src_mem.version(p),
                "case {case}: page {p}"
            );
        }
    }
}

/// Releasing a finished migration's per-page state frees every table and
/// bitmap of both sessions and leaves what the reports read — the source
/// metrics and the destination's path counters — exactly as they were.
/// The guest is sparse (300 of 4,096 pages touched, some swapped out), so
/// the sessions hold only the touched prefix until then.
#[test]
fn releasing_page_state_keeps_metrics_and_counters() {
    for technique in [Technique::PreCopy, Technique::PostCopy, Technique::Agile] {
        let n_pages = 4_096u32;
        let mut src_slots = SlotAllocator::unbounded();
        let mut src_mem = VmMemory::new(VmMemoryConfig {
            pages: n_pages,
            page_size: 4096,
            limit_pages: 200,
        });
        let mut evs = Vec::new();
        for p in 0..300 {
            src_mem.touch(p, true, &mut src_slots);
            src_mem.fault_in(p, true, &mut src_slots, &mut evs);
        }
        let mut dst_slots = SlotAllocator::unbounded();
        let mut dst_mem = VmMemory::new(VmMemoryConfig {
            pages: n_pages,
            page_size: 4096,
            limit_pages: n_pages,
        });
        let mut src = SourceSession::new(SourceConfig::new(technique), n_pages, SimTime::ZERO);
        let mut dst = DestSession::new(technique, n_pages);
        let mut queue = vec![SourceEvent::Start];
        while let Some(ev) = queue.pop() {
            for cmd in src.on_event(SimTime::ZERO, ev, &src_mem) {
                match cmd {
                    SourceCmd::SendChunk { chunk, .. } => {
                        dst.on_chunk(&chunk, &mut dst_mem, &mut dst_slots, &mut evs);
                        queue.push(SourceEvent::ChannelReady);
                    }
                    SourceCmd::SwapIn { batch, pages } => {
                        for (pfn, _) in pages {
                            src_mem.begin_swap_in(pfn);
                            src_mem.fault_in(pfn, false, &mut src_slots, &mut evs);
                        }
                        queue.push(SourceEvent::SwapInDone { batch });
                    }
                    SourceCmd::SendHandoff { .. } => {
                        dst.on_handoff(src.handoff_dirty().cloned().unwrap(), &mut dst_mem);
                        queue.push(SourceEvent::HandoffDelivered);
                    }
                    SourceCmd::Suspend | SourceCmd::Done => {}
                }
            }
            if queue.is_empty() && !src.is_done() {
                queue.push(SourceEvent::ChannelReady);
            }
        }
        assert!(src.is_done(), "{technique}");
        assert!(src.page_state_bytes() > 0 && dst.page_state_bytes() > 0);
        let counters = |d: &DestSession| {
            [
                d.pages_installed_stream,
                d.pages_faulted_from_swap,
                d.pages_faulted_from_source,
                d.duplicate_pages_ignored,
                d.pages_discarded_at_resume,
            ]
        };
        let (metrics, dest_counters) = (format!("{:?}", src.metrics()), counters(&dst));
        src.release_page_state();
        dst.release_page_state();
        assert_eq!(src.page_state_bytes(), 0, "{technique}");
        assert_eq!(dst.page_state_bytes(), 0, "{technique}");
        assert_eq!(format!("{:?}", src.metrics()), metrics, "{technique}");
        assert_eq!(counters(&dst), dest_counters, "{technique}");
        assert!(dst.resumed(), "{technique}");
    }
}
