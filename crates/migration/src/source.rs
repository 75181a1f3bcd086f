//! Source-side Migration Manager.
//!
//! One state machine implements all three techniques (§II, §III); the
//! [`Technique`] selects the policy at the three decision points:
//!
//! | decision            | pre-copy              | post-copy          | Agile                  |
//! |---------------------|-----------------------|--------------------|------------------------|
//! | live rounds         | until convergence     | none               | exactly one            |
//! | swapped-out pages   | swap in, send full    | swap in, send full | send 16-byte offset    |
//! | after suspension    | stop-and-copy rest    | push **all** pages | push **dirty** pages   |
//!
//! The session is sans-IO: the cluster executor feeds it [`SourceEvent`]s
//! (channel has room, swap-in finished, demand request arrived) together
//! with the VM's [`VmMemory`], and receives [`SourceCmd`]s (send this
//! chunk, issue these swap-ins, suspend the VM, ...). Dirty tracking uses
//! content versions: the session records the version it shipped for every
//! page; a page is dirty iff its current version differs — an exact
//! stand-in for the KVM dirty log.

use std::collections::HashMap;

use agile_memory::{PageArray, PagemapEntry, VmMemory};
use agile_sim_core::SimTime;

use agile_trace::PhaseKind;

use crate::bitmap::Bitmap;
use crate::chunk::{Chunk, FullPage, SwappedMarker};
use crate::metrics::{MigrationMetrics, Technique};

/// Configuration of a source migration session.
#[derive(Clone, Copy, Debug)]
pub struct SourceConfig {
    /// Technique to run.
    pub technique: Technique,
    /// Pages per transfer chunk.
    pub chunk_pages: u32,
    /// Pre-copy convergence: suspend when the dirty set is at most this
    /// many pages (QEMU derives this from the downtime target × estimated
    /// bandwidth; ~300 ms at 1 Gbps ≈ 9 k pages).
    pub precopy_threshold_pages: u32,
    /// Pre-copy round cap (the dirty set may never converge).
    pub precopy_max_rounds: u32,
    /// CPU + device state bytes in the handoff message.
    pub handoff_base_bytes: u64,
    /// Guest page size (for wire-byte accounting).
    pub page_size: u64,
}

impl SourceConfig {
    /// Defaults for a technique.
    pub fn new(technique: Technique) -> Self {
        SourceConfig {
            technique,
            chunk_pages: 256,
            precopy_threshold_pages: 9_000,
            precopy_max_rounds: 30,
            handoff_base_bytes: 512 * 1024,
            page_size: 4096,
        }
    }
}

/// Inputs to the session.
#[derive(Clone, Debug)]
pub enum SourceEvent {
    /// Begin the migration.
    Start,
    /// The migration channel can accept another chunk.
    ChannelReady,
    /// A previously requested swap-in batch completed (the pages are now
    /// resident, barring re-eviction).
    SwapInDone {
        /// Batch id from the [`SourceCmd::SwapIn`].
        batch: u64,
    },
    /// The handoff message was delivered (the destination has resumed, or
    /// for pre-copy, taken over).
    HandoffDelivered,
    /// The destination demand-requested a page.
    DemandRequest {
        /// Faulted guest page.
        pfn: u32,
    },
}

/// Outputs of the session, executed by the cluster executor.
#[derive(Clone, Debug)]
pub enum SourceCmd {
    /// Put a chunk on the migration channel. Priority chunks answer demand
    /// faults and travel on the dedicated demand channel.
    SendChunk {
        /// The chunk.
        chunk: Chunk,
        /// Demand-response priority.
        priority: bool,
    },
    /// Swap these `(pfn, slot)` pages into memory (they are needed for
    /// transfer). Report back with [`SourceEvent::SwapInDone`].
    SwapIn {
        /// Batch id echoed in the completion event.
        batch: u64,
        /// Pages to read.
        pages: Vec<(u32, u32)>,
    },
    /// Suspend the VM (downtime begins).
    Suspend,
    /// Send the CPU-state + dirty-bitmap handoff message.
    SendHandoff {
        /// Bytes on the wire.
        wire_bytes: u64,
    },
    /// Everything this source must send has been queued; once the channel
    /// drains, the source VM's memory can be freed.
    Done,
}

#[derive(Clone, Debug, PartialEq)]
enum Phase {
    Idle,
    /// Live pre-copy round. `bitmap` is `None` for round 1 (all pages).
    LiveRound {
        round: u32,
        cursor: u32,
    },
    /// Pre-copy stop-and-copy: VM suspended, draining the dirty set.
    StopAndCopy {
        cursor: u32,
    },
    /// Handoff queued; awaiting delivery confirmation.
    AwaitHandoff,
    /// Post-copy phase: pushing the remaining set, serving demand.
    Push {
        cursor: u32,
    },
    Done,
}

/// `(pfn, slot)` pairs the Migration Manager must swap in.
type SwapInPages = Vec<(u32, u32)>;

/// Outcome of building one chunk.
enum Build {
    Ready(Chunk),
    NeedsSwapIn { pages: SwapInPages, chunk: Chunk },
    EndOfPass(Chunk),
}

/// Source-side migration session.
#[derive(Clone, Debug)]
pub struct SourceSession {
    cfg: SourceConfig,
    phase: Phase,
    metrics: MigrationMetrics,
    /// Version shipped per page (parallel to guest pages; 0 for a page
    /// never shipped, or shipped as a never-written zero page).
    sent_version: PageArray<u32>,
    /// Whether any entry was ever shipped for the page (round 1 coverage).
    shipped: Bitmap,
    /// Pass bitmap: pages remaining in the current round / stop-and-copy /
    /// push set. `None` during round 1 (implicit all-ones).
    pass_set: Option<Bitmap>,
    /// Stashed chunk awaiting a swap-in batch.
    stash: Option<(u64, Chunk, SwapInPages)>,
    /// Demand requests awaiting a swap-in, by batch id.
    demand_swapins: HashMap<u64, u32>,
    next_batch: u64,
    n_pages: u32,
}

impl SourceSession {
    /// Create a session for a VM with `n_pages` guest pages.
    pub fn new(cfg: SourceConfig, n_pages: u32, started_at: SimTime) -> Self {
        SourceSession {
            cfg,
            phase: Phase::Idle,
            metrics: MigrationMetrics::new(cfg.technique, started_at),
            sent_version: PageArray::new(n_pages, 0),
            shipped: Bitmap::zeros(n_pages),
            pass_set: None,
            stash: None,
            demand_swapins: HashMap::new(),
            next_batch: 0,
            n_pages,
        }
    }

    /// Metrics so far.
    pub fn metrics(&self) -> &MigrationMetrics {
        &self.metrics
    }

    /// Metrics, mutable (the executor stamps delivery-side timestamps).
    pub fn metrics_mut(&mut self) -> &mut MigrationMetrics {
        &mut self.metrics
    }

    /// True once [`SourceCmd::Done`] has been emitted.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Pages remaining in the current pass (diagnostics).
    pub fn remaining_in_pass(&self) -> u32 {
        match &self.pass_set {
            Some(b) => b.count_ones(),
            None => self.n_pages,
        }
    }

    /// True before `Start` (or after [`SourceSession::reset_for_retry`]).
    pub fn is_idle(&self) -> bool {
        self.phase == Phase::Idle
    }

    /// True once the CPU handoff has been queued or delivered. Past this
    /// point the destination may resume at any moment, so a dropped
    /// connection can no longer be handled by rolling back to the source —
    /// the executor must keep the destination running on demand paging.
    pub fn handoff_committed(&self) -> bool {
        matches!(
            self.phase,
            Phase::AwaitHandoff | Phase::Push { .. } | Phase::Done
        )
    }

    /// Abort the current attempt (the migration connection dropped before
    /// the destination resumed): forget all per-attempt transfer progress
    /// so `Start` can run again against a fresh destination session.
    /// Cumulative metrics survive — bytes wasted by the failed attempt
    /// were really sent. Batch ids keep counting up so swap-ins still in
    /// flight from the aborted attempt can never collide with the retry's.
    /// A stashed chunk (built, awaiting swap-ins, never emitted) is simply
    /// dropped: none of its entries were charged to the metrics, so the
    /// abort leaves no phantom retransmissions behind.
    pub fn reset_for_retry(&mut self, now: SimTime) {
        self.metrics.record_phase(now, PhaseKind::Aborted, 0);
        self.phase = Phase::Idle;
        self.sent_version.clear();
        self.shipped = Bitmap::zeros(self.n_pages);
        self.pass_set = None;
        self.stash = None;
        self.demand_swapins.clear();
    }

    /// Free the per-page state (shipped versions, pass and coverage
    /// bitmaps) of a finished migration. [`SourceSession::metrics`]
    /// survives; the session must not be driven afterwards.
    pub fn release_page_state(&mut self) {
        self.sent_version.clear();
        self.shipped = Bitmap::zeros(0);
        self.pass_set = None;
    }

    /// Heap bytes of per-page state held (memory-footprint tests).
    #[doc(hidden)]
    pub fn page_state_bytes(&self) -> usize {
        self.sent_version.heap_bytes()
            + self.shipped.as_words().len() * 8
            + self.pass_set.as_ref().map_or(0, |b| b.as_words().len() * 8)
    }

    /// Drive the state machine.
    pub fn on_event(&mut self, now: SimTime, ev: SourceEvent, mem: &VmMemory) -> Vec<SourceCmd> {
        match ev {
            SourceEvent::Start => self.start(now, mem),
            SourceEvent::ChannelReady => self.channel_ready(now, mem),
            SourceEvent::SwapInDone { batch } => self.swap_in_done(now, batch, mem),
            SourceEvent::HandoffDelivered => self.handoff_delivered(now),
            SourceEvent::DemandRequest { pfn } => self.demand(now, pfn, mem),
        }
    }

    fn start(&mut self, now: SimTime, mem: &VmMemory) -> Vec<SourceCmd> {
        assert_eq!(self.phase, Phase::Idle, "session already started");
        match self.cfg.technique {
            Technique::PreCopy | Technique::Agile => {
                self.phase = Phase::LiveRound {
                    round: 1,
                    cursor: 0,
                };
                self.metrics.record_phase(now, PhaseKind::LiveRound, 1);
                self.channel_ready(now, mem)
            }
            Technique::PostCopy => {
                // Suspend immediately; everything comes from the source
                // afterwards.
                self.metrics.suspended_at = Some(now);
                self.pass_set = Some(Bitmap::ones(self.n_pages));
                self.metrics.push_set_pages = u64::from(self.n_pages);
                self.phase = Phase::AwaitHandoff;
                let wire = self.cfg.handoff_base_bytes + Bitmap::zeros(self.n_pages).wire_bytes();
                self.metrics.migration_bytes += wire;
                self.metrics.record_phase(now, PhaseKind::AwaitHandoff, 0);
                vec![
                    SourceCmd::Suspend,
                    SourceCmd::SendHandoff { wire_bytes: wire },
                ]
            }
        }
    }

    fn channel_ready(&mut self, now: SimTime, mem: &VmMemory) -> Vec<SourceCmd> {
        if self.stash.is_some() {
            return Vec::new(); // waiting on swap-ins; nothing to add yet
        }
        match self.phase {
            Phase::LiveRound { round, cursor } => {
                match self.build_chunk(cursor, mem, /*live*/ true) {
                    Build::Ready(chunk) => {
                        let next = self.advance_cursor(&chunk);
                        self.phase = Phase::LiveRound {
                            round,
                            cursor: next,
                        };
                        self.emit_chunk(chunk, false)
                    }
                    Build::NeedsSwapIn { pages, chunk } => {
                        let next = self
                            .advance_cursor(&chunk)
                            .max(pages.iter().map(|(p, _)| p + 1).max().unwrap_or(0));
                        self.phase = Phase::LiveRound {
                            round,
                            cursor: next,
                        };
                        self.request_swapin(pages, chunk)
                    }
                    Build::EndOfPass(chunk) => {
                        let mut cmds = if chunk.is_empty() {
                            Vec::new()
                        } else {
                            self.emit_chunk(chunk, false)
                        };
                        cmds.extend(self.end_of_round(now, round, mem));
                        cmds
                    }
                }
            }
            Phase::StopAndCopy { cursor } => {
                match self.build_chunk(cursor, mem, false) {
                    Build::Ready(chunk) => {
                        let next = self.advance_cursor(&chunk);
                        self.phase = Phase::StopAndCopy { cursor: next };
                        self.emit_chunk(chunk, false)
                    }
                    Build::NeedsSwapIn { pages, chunk } => {
                        let next = self
                            .advance_cursor(&chunk)
                            .max(pages.iter().map(|(p, _)| p + 1).max().unwrap_or(0));
                        self.phase = Phase::StopAndCopy { cursor: next };
                        self.request_swapin(pages, chunk)
                    }
                    Build::EndOfPass(chunk) => {
                        let mut cmds = if chunk.is_empty() {
                            Vec::new()
                        } else {
                            self.emit_chunk(chunk, false)
                        };
                        // All dirty state sent; hand off CPU state.
                        self.phase = Phase::AwaitHandoff;
                        let wire = self.cfg.handoff_base_bytes;
                        self.metrics.migration_bytes += wire;
                        self.metrics.record_phase(now, PhaseKind::AwaitHandoff, 0);
                        cmds.push(SourceCmd::SendHandoff { wire_bytes: wire });
                        cmds
                    }
                }
            }
            Phase::Push { cursor } => match self.build_chunk(cursor, mem, false) {
                Build::Ready(chunk) => {
                    let next = self.advance_cursor(&chunk);
                    self.phase = Phase::Push { cursor: next };
                    self.emit_chunk(chunk, false)
                }
                Build::NeedsSwapIn { pages, chunk } => {
                    let next = self
                        .advance_cursor(&chunk)
                        .max(pages.iter().map(|(p, _)| p + 1).max().unwrap_or(0));
                    self.phase = Phase::Push { cursor: next };
                    self.request_swapin(pages, chunk)
                }
                Build::EndOfPass(chunk) => {
                    let mut cmds = if chunk.is_empty() {
                        Vec::new()
                    } else {
                        self.emit_chunk(chunk, false)
                    };
                    if self.demand_swapins.is_empty() {
                        self.phase = Phase::Done;
                        self.metrics.record_phase(now, PhaseKind::Done, 0);
                        cmds.push(SourceCmd::Done);
                    }
                    cmds
                }
            },
            Phase::AwaitHandoff | Phase::Idle | Phase::Done => Vec::new(),
        }
    }

    /// Advance the pass cursor past every page the chunk covered.
    fn advance_cursor(&self, chunk: &Chunk) -> u32 {
        chunk
            .full
            .iter()
            .map(|f| f.pfn + 1)
            .chain(chunk.swapped.iter().map(|s| s.pfn + 1))
            .chain(chunk.zero.iter().map(|z| z + 1))
            .max()
            .unwrap_or(0)
    }

    /// Build the next chunk from `cursor` within the current pass.
    /// `live` selects the live-round policy (Agile sends markers for
    /// swapped pages only during the live round).
    fn build_chunk(&mut self, cursor: u32, mem: &VmMemory, live: bool) -> Build {
        let agile_markers = live && self.cfg.technique == Technique::Agile;
        let mut chunk = Chunk::default();
        let mut swapins: Vec<(u32, u32)> = Vec::new();
        let mut pfn = cursor;
        let budget = self.cfg.chunk_pages as usize;
        loop {
            // Next page in the pass.
            let next = match &self.pass_set {
                Some(b) => b.next_set(pfn),
                None => (pfn < self.n_pages).then_some(pfn),
            };
            let Some(p) = next else {
                return if swapins.is_empty() {
                    Build::EndOfPass(chunk)
                } else {
                    Build::NeedsSwapIn {
                        pages: swapins,
                        chunk,
                    }
                };
            };
            if chunk.entries() + swapins.len() >= budget {
                return if swapins.is_empty() {
                    Build::Ready(chunk)
                } else {
                    Build::NeedsSwapIn {
                        pages: swapins,
                        chunk,
                    }
                };
            }
            self.take_from_pass(p);
            match mem.pagemap(p) {
                PagemapEntry::Present => {
                    let v = mem.version(p);
                    chunk.retransmits += u32::from(self.note_sent(p, v));
                    chunk.full.push(FullPage { pfn: p, version: v });
                }
                PagemapEntry::Swapped { slot } => {
                    if agile_markers {
                        let v = mem.version(p);
                        chunk.retransmits += u32::from(self.note_sent(p, v));
                        chunk.swapped.push(SwappedMarker {
                            pfn: p,
                            slot,
                            version: v,
                        });
                    } else {
                        swapins.push((p, slot));
                    }
                }
                PagemapEntry::None => {
                    chunk.retransmits += u32::from(self.note_sent(p, mem.version(p)));
                    chunk.zero.push(p);
                }
            }
            pfn = p + 1;
        }
    }

    fn take_from_pass(&mut self, pfn: u32) {
        if let Some(b) = &mut self.pass_set {
            b.clear(pfn);
        }
    }

    /// Mark `pfn` as shipped at `version`. Returns whether this re-sends a
    /// page that already shipped — the caller records that on the chunk
    /// being built ([`Chunk::retransmits`]), and the count is only charged
    /// to the metrics when the chunk is actually emitted. Charging here,
    /// at build time, double-counted retransmissions whenever a stashed
    /// chunk died with an aborted attempt.
    #[must_use]
    fn note_sent(&mut self, pfn: u32, version: u32) -> bool {
        let retransmit = self.shipped.get(pfn);
        self.shipped.set(pfn);
        self.sent_version.set(pfn, version);
        retransmit
    }

    fn emit_chunk(&mut self, chunk: Chunk, priority: bool) -> Vec<SourceCmd> {
        self.metrics.pages_sent_full += chunk.full.len() as u64;
        self.metrics.pages_sent_as_offsets += chunk.swapped.len() as u64;
        self.metrics.pages_sent_zero += chunk.zero.len() as u64;
        self.metrics.pages_retransmitted += u64::from(chunk.retransmits);
        // Wire bytes are charged by the executor via chunk.wire_bytes();
        // we account them here so metrics don't depend on the executor.
        self.metrics.migration_bytes += chunk.wire_bytes(self.cfg.page_size);
        vec![SourceCmd::SendChunk { chunk, priority }]
    }

    fn request_swapin(&mut self, pages: Vec<(u32, u32)>, chunk: Chunk) -> Vec<SourceCmd> {
        let batch = self.next_batch;
        self.next_batch += 1;
        self.metrics.pages_swapped_in_for_transfer += pages.len() as u64;
        self.stash = Some((batch, chunk, pages.clone()));
        vec![SourceCmd::SwapIn { batch, pages }]
    }

    fn swap_in_done(&mut self, now: SimTime, batch: u64, mem: &VmMemory) -> Vec<SourceCmd> {
        // Demand-fault swap-in?
        if let Some(pfn) = self.demand_swapins.remove(&batch) {
            let mut cmds = self.send_demand_page(pfn, mem);
            // Push pass may have been exhausted while this demand was in
            // flight; re-check completion.
            if matches!(self.phase, Phase::Push { .. }) {
                cmds.extend(self.channel_ready(now, mem));
            }
            return cmds;
        }
        let (b, mut chunk, pages) = self.stash.take().expect("unexpected SwapInDone");
        assert_eq!(b, batch, "swap-in batches complete in order");
        let mut still_swapped: Vec<(u32, u32)> = Vec::new();
        for (pfn, _slot) in pages {
            match mem.pagemap(pfn) {
                PagemapEntry::Present => {
                    let v = mem.version(pfn);
                    chunk.retransmits += u32::from(self.note_sent(pfn, v));
                    chunk.full.push(FullPage { pfn, version: v });
                }
                // Re-evicted between completion and this call, or the slot
                // moved: retry.
                PagemapEntry::Swapped { slot } => still_swapped.push((pfn, slot)),
                PagemapEntry::None => {
                    chunk.retransmits += u32::from(self.note_sent(pfn, mem.version(pfn)));
                    chunk.zero.push(pfn);
                }
            }
        }
        if !still_swapped.is_empty() {
            return self.request_swapin(still_swapped, chunk);
        }
        self.emit_chunk(chunk, false)
    }

    fn end_of_round(&mut self, now: SimTime, round: u32, mem: &VmMemory) -> Vec<SourceCmd> {
        self.metrics.rounds = round;
        match self.cfg.technique {
            Technique::Agile => self.suspend_and_handoff(now, mem),
            Technique::PreCopy => {
                let dirty = self.dirty_bitmap(mem);
                let n_dirty = dirty.count_ones();
                if n_dirty <= self.cfg.precopy_threshold_pages
                    || round >= self.cfg.precopy_max_rounds
                {
                    // Converged (or gave up): stop and copy.
                    self.metrics.suspended_at = Some(now);
                    self.metrics.push_set_pages = u64::from(n_dirty);
                    self.pass_set = Some(dirty);
                    self.phase = Phase::StopAndCopy { cursor: 0 };
                    self.metrics.record_phase(now, PhaseKind::StopAndCopy, 0);
                    let mut cmds = vec![SourceCmd::Suspend];
                    cmds.extend(self.channel_ready(now, mem));
                    cmds
                } else {
                    self.pass_set = Some(dirty);
                    self.phase = Phase::LiveRound {
                        round: round + 1,
                        cursor: 0,
                    };
                    self.metrics
                        .record_phase(now, PhaseKind::LiveRound, round + 1);
                    self.channel_ready(now, mem)
                }
            }
            Technique::PostCopy => unreachable!("post-copy has no live rounds"),
        }
    }

    fn suspend_and_handoff(&mut self, now: SimTime, mem: &VmMemory) -> Vec<SourceCmd> {
        self.metrics.suspended_at = Some(now);
        let dirty = self.dirty_bitmap(mem);
        let wire = self.cfg.handoff_base_bytes + dirty.wire_bytes();
        self.metrics.migration_bytes += wire;
        self.metrics.push_set_pages = u64::from(dirty.count_ones());
        self.pass_set = Some(dirty);
        self.phase = Phase::AwaitHandoff;
        self.metrics.record_phase(now, PhaseKind::AwaitHandoff, 0);
        vec![
            SourceCmd::Suspend,
            SourceCmd::SendHandoff { wire_bytes: wire },
        ]
    }

    /// Pages whose content changed since we last shipped an entry for them,
    /// compared 64 pages per output word.
    fn dirty_bitmap(&self, mem: &VmMemory) -> Bitmap {
        Bitmap::diff_u32(mem.versions(), &self.sent_version)
    }

    /// The dirty bitmap that travels in the handoff (destination needs it
    /// to classify faults). Valid after suspension.
    pub fn handoff_dirty(&self) -> Option<&Bitmap> {
        match self.phase {
            Phase::AwaitHandoff | Phase::Push { .. } | Phase::Done => self.pass_set.as_ref(),
            Phase::StopAndCopy { .. } => self.pass_set.as_ref(),
            _ => None,
        }
    }

    fn handoff_delivered(&mut self, now: SimTime) -> Vec<SourceCmd> {
        assert_eq!(self.phase, Phase::AwaitHandoff);
        self.metrics.resumed_at = Some(now);
        match self.cfg.technique {
            Technique::PreCopy => {
                // Everything already arrived (FIFO channel): done.
                self.phase = Phase::Done;
                self.metrics.record_phase(now, PhaseKind::Done, 0);
                vec![SourceCmd::Done]
            }
            Technique::PostCopy | Technique::Agile => {
                self.phase = Phase::Push { cursor: 0 };
                self.metrics.record_phase(now, PhaseKind::Push, 0);
                Vec::new() // executor follows with ChannelReady
            }
        }
    }

    fn demand(&mut self, _now: SimTime, pfn: u32, mem: &VmMemory) -> Vec<SourceCmd> {
        let in_pass = match &self.pass_set {
            Some(b) => b.get(pfn),
            None => false,
        };
        if !in_pass {
            // Already sent (possibly in flight) or being swapped in for a
            // stashed chunk; the destination will receive it.
            return Vec::new();
        }
        match mem.pagemap(pfn) {
            PagemapEntry::Present => {
                self.take_from_pass(pfn);
                self.metrics.pages_demand_from_source += 1;
                self.send_demand_page_known_present(pfn, mem)
            }
            PagemapEntry::Swapped { slot } => {
                self.take_from_pass(pfn);
                self.metrics.pages_demand_from_source += 1;
                self.metrics.pages_swapped_in_for_transfer += 1;
                let batch = self.next_batch;
                self.next_batch += 1;
                self.demand_swapins.insert(batch, pfn);
                vec![SourceCmd::SwapIn {
                    batch,
                    pages: vec![(pfn, slot)],
                }]
            }
            PagemapEntry::None => {
                self.take_from_pass(pfn);
                let mut chunk = Chunk::default();
                chunk.retransmits += u32::from(self.note_sent(pfn, mem.version(pfn)));
                chunk.zero.push(pfn);
                self.emit_priority(chunk)
            }
        }
    }

    fn send_demand_page(&mut self, pfn: u32, mem: &VmMemory) -> Vec<SourceCmd> {
        match mem.pagemap(pfn) {
            PagemapEntry::Present => self.send_demand_page_known_present(pfn, mem),
            PagemapEntry::Swapped { slot } => {
                // Evicted again before we could send it: retry the swap-in.
                let batch = self.next_batch;
                self.next_batch += 1;
                self.demand_swapins.insert(batch, pfn);
                vec![SourceCmd::SwapIn {
                    batch,
                    pages: vec![(pfn, slot)],
                }]
            }
            PagemapEntry::None => {
                let mut chunk = Chunk::default();
                chunk.retransmits += u32::from(self.note_sent(pfn, mem.version(pfn)));
                chunk.zero.push(pfn);
                self.emit_priority(chunk)
            }
        }
    }

    fn send_demand_page_known_present(&mut self, pfn: u32, mem: &VmMemory) -> Vec<SourceCmd> {
        let v = mem.version(pfn);
        let mut chunk = Chunk::default();
        chunk.retransmits += u32::from(self.note_sent(pfn, v));
        chunk.full.push(FullPage { pfn, version: v });
        self.emit_priority(chunk)
    }

    fn emit_priority(&mut self, chunk: Chunk) -> Vec<SourceCmd> {
        self.metrics.pages_sent_full += chunk.full.len() as u64;
        self.metrics.pages_sent_zero += chunk.zero.len() as u64;
        self.metrics.pages_retransmitted += u64::from(chunk.retransmits);
        self.metrics.migration_bytes += chunk.wire_bytes(self.cfg.page_size);
        vec![SourceCmd::SendChunk {
            chunk,
            priority: true,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agile_memory::{SlotAllocator, VmMemoryConfig};

    /// A 32-page VM with pages 0..16 populated, of which 16.. limit forces
    /// 0..8 swapped out when limit = 8.
    fn fixture(limit: u32) -> (VmMemory, SlotAllocator) {
        let mut mem = VmMemory::new(VmMemoryConfig {
            pages: 32,
            page_size: 4096,
            limit_pages: limit,
        });
        let mut sa = SlotAllocator::unbounded();
        let mut evs = Vec::new();
        for p in 0..16 {
            mem.touch(p, true, &mut sa);
            mem.fault_in(p, true, &mut sa, &mut evs);
        }
        (mem, sa)
    }

    fn drive_until_quiet(
        s: &mut SourceSession,
        mem: &mut VmMemory,
        sa: &mut SlotAllocator,
        now: SimTime,
    ) -> Vec<SourceCmd> {
        let mut all = Vec::new();
        let mut queue = vec![SourceEvent::Start];
        let mut guard = 0;
        while let Some(ev) = queue.pop() {
            guard += 1;
            assert!(guard < 10_000, "runaway session");
            let cmds = s.on_event(now, ev, mem);
            for cmd in cmds {
                match &cmd {
                    SourceCmd::SendChunk { .. } => queue.push(SourceEvent::ChannelReady),
                    SourceCmd::SwapIn { batch, pages } => {
                        // Immediately "complete" the swap-ins.
                        let mut evs = Vec::new();
                        for (pfn, _) in pages {
                            if matches!(mem.pagemap(*pfn), PagemapEntry::Swapped { .. }) {
                                mem.begin_swap_in(*pfn);
                                mem.fault_in(*pfn, false, sa, &mut evs);
                            }
                        }
                        queue.push(SourceEvent::SwapInDone { batch: *batch });
                    }
                    SourceCmd::SendHandoff { .. } => {
                        queue.push(SourceEvent::HandoffDelivered);
                    }
                    SourceCmd::Suspend | SourceCmd::Done => {}
                }
                all.push(cmd);
            }
            if queue.is_empty() && !s.is_done() && matches!(s.phase, Phase::Push { .. }) {
                queue.push(SourceEvent::ChannelReady);
            }
        }
        all
    }

    fn count_full(cmds: &[SourceCmd]) -> usize {
        cmds.iter()
            .filter_map(|c| match c {
                SourceCmd::SendChunk { chunk, .. } => Some(chunk.full.len()),
                _ => None,
            })
            .sum()
    }

    fn count_markers(cmds: &[SourceCmd]) -> usize {
        cmds.iter()
            .filter_map(|c| match c {
                SourceCmd::SendChunk { chunk, .. } => Some(chunk.swapped.len()),
                _ => None,
            })
            .sum()
    }

    fn count_zero(cmds: &[SourceCmd]) -> usize {
        cmds.iter()
            .filter_map(|c| match c {
                SourceCmd::SendChunk { chunk, .. } => Some(chunk.zero.len()),
                _ => None,
            })
            .sum()
    }

    #[test]
    fn reset_for_retry_allows_a_clean_second_attempt() {
        let (mut mem, mut sa) = fixture(32);
        let mut s = SourceSession::new(
            SourceConfig {
                chunk_pages: 8,
                ..SourceConfig::new(Technique::Agile)
            },
            32,
            SimTime::ZERO,
        );
        // First attempt: start, move a chunk or two, then the connection
        // drops before the handoff.
        s.on_event(SimTime::ZERO, SourceEvent::Start, &mem);
        s.on_event(SimTime::ZERO, SourceEvent::ChannelReady, &mem);
        assert!(!s.is_idle());
        assert!(!s.handoff_committed());
        s.reset_for_retry(SimTime::ZERO);
        assert!(s.is_idle());
        // Second attempt runs to completion from scratch: the full
        // populated set ships again (the aborted destination was thrown
        // away), then the handoff commits.
        let cmds = drive_until_quiet(&mut s, &mut mem, &mut sa, SimTime::ZERO);
        assert!(s.is_done());
        assert!(s.handoff_committed());
        assert_eq!(count_full(&cmds), 16, "retry re-covers every page");
        assert_eq!(count_zero(&cmds), 16);
    }

    #[test]
    fn precopy_idle_vm_sends_everything_once() {
        let (mut mem, mut sa) = fixture(32); // nothing swapped
        let mut s = SourceSession::new(
            SourceConfig {
                chunk_pages: 8,
                ..SourceConfig::new(Technique::PreCopy)
            },
            32,
            SimTime::ZERO,
        );
        let cmds = drive_until_quiet(&mut s, &mut mem, &mut sa, SimTime::ZERO);
        assert!(s.is_done());
        assert_eq!(count_full(&cmds), 16, "populated pages sent full");
        assert_eq!(count_zero(&cmds), 16, "untouched pages sent as zeros");
        assert_eq!(count_markers(&cmds), 0, "pre-copy never sends offsets");
        assert_eq!(s.metrics().rounds, 1);
        assert!(s.metrics().suspended_at.is_some());
    }

    #[test]
    fn precopy_swapped_pages_are_swapped_in_and_sent_full() {
        let (mut mem, mut sa) = fixture(8); // 8 of the 16 populated pages swapped out
        assert_eq!(mem.swapped_pages(), 8);
        let mut s = SourceSession::new(
            SourceConfig {
                chunk_pages: 8,
                ..SourceConfig::new(Technique::PreCopy)
            },
            32,
            SimTime::ZERO,
        );
        let cmds = drive_until_quiet(&mut s, &mut mem, &mut sa, SimTime::ZERO);
        assert!(s.is_done());
        assert_eq!(count_full(&cmds), 16);
        // Migration-induced thrashing (§V-B): swapping in the 8 cold pages
        // evicts the 8 resident not-yet-sent pages, which then need their
        // own swap-ins — the Migration Manager ends up reading *more* pages
        // from swap than were originally swapped out.
        assert!(
            s.metrics().pages_swapped_in_for_transfer >= 8,
            "got {}",
            s.metrics().pages_swapped_in_for_transfer
        );
        assert_eq!(count_markers(&cmds), 0);
    }

    #[test]
    fn agile_sends_offsets_for_swapped_pages() {
        let (mut mem, mut sa) = fixture(8);
        let mut s = SourceSession::new(
            SourceConfig {
                chunk_pages: 8,
                ..SourceConfig::new(Technique::Agile)
            },
            32,
            SimTime::ZERO,
        );
        let cmds = drive_until_quiet(&mut s, &mut mem, &mut sa, SimTime::ZERO);
        assert!(s.is_done());
        assert_eq!(count_full(&cmds), 8, "only resident pages travel in full");
        assert_eq!(count_markers(&cmds), 8, "swapped pages travel as offsets");
        assert_eq!(
            s.metrics().pages_swapped_in_for_transfer,
            0,
            "agile never touches the swap device for transfer"
        );
        assert_eq!(s.metrics().rounds, 1, "exactly one live round");
    }

    #[test]
    fn agile_bytes_much_smaller_than_precopy_under_swap() {
        let (mut mem_a, mut sa_a) = fixture(8);
        let (mut mem_p, mut sa_p) = fixture(8);
        let mut agile = SourceSession::new(SourceConfig::new(Technique::Agile), 32, SimTime::ZERO);
        let mut pre = SourceSession::new(SourceConfig::new(Technique::PreCopy), 32, SimTime::ZERO);
        drive_until_quiet(&mut agile, &mut mem_a, &mut sa_a, SimTime::ZERO);
        drive_until_quiet(&mut pre, &mut mem_p, &mut sa_p, SimTime::ZERO);
        assert!(
            agile.metrics().migration_bytes < pre.metrics().migration_bytes,
            "agile {} >= precopy {}",
            agile.metrics().migration_bytes,
            pre.metrics().migration_bytes
        );
    }

    #[test]
    fn postcopy_suspends_immediately_then_pushes_all() {
        let (mem, _) = fixture(32);
        let mut s = SourceSession::new(SourceConfig::new(Technique::PostCopy), 32, SimTime::ZERO);
        let first = s.on_event(SimTime::ZERO, SourceEvent::Start, &mem);
        assert!(matches!(first[0], SourceCmd::Suspend));
        assert!(matches!(first[1], SourceCmd::SendHandoff { .. }));
        assert_eq!(s.metrics().rounds, 0);
        let cmds = {
            // Continue driving manually from the handoff.
            let mut all = Vec::new();
            let mut queue = vec![SourceEvent::HandoffDelivered];
            while let Some(ev) = queue.pop() {
                for cmd in s.on_event(SimTime::ZERO, ev, &mem) {
                    if matches!(cmd, SourceCmd::SendChunk { .. }) {
                        queue.push(SourceEvent::ChannelReady);
                    }
                    all.push(cmd);
                }
                if queue.is_empty() && !s.is_done() {
                    queue.push(SourceEvent::ChannelReady);
                }
            }
            all
        };
        assert!(s.is_done());
        assert_eq!(count_full(&cmds), 16);
        assert_eq!(count_zero(&cmds), 16);
    }

    #[test]
    fn precopy_retransmits_dirtied_pages() {
        let (mut mem, mut sa) = fixture(32);
        let mut s = SourceSession::new(
            SourceConfig {
                chunk_pages: 4,
                precopy_threshold_pages: 0,
                precopy_max_rounds: 3,
                ..SourceConfig::new(Technique::PreCopy)
            },
            32,
            SimTime::ZERO,
        );
        // Drive round 1 manually, dirtying page 3 mid-round (after it was
        // sent in the first chunk).
        let mut pending = s.on_event(SimTime::ZERO, SourceEvent::Start, &mem);
        mem.touch(3, true, &mut sa); // dirty an already-sent page
        let mut guard = 0;
        while !s.is_done() {
            guard += 1;
            assert!(guard < 1000);
            let handoff_sent = pending
                .iter()
                .any(|c| matches!(c, SourceCmd::SendHandoff { .. }));
            pending = if handoff_sent {
                s.on_event(SimTime::ZERO, SourceEvent::HandoffDelivered, &mem)
            } else {
                s.on_event(SimTime::ZERO, SourceEvent::ChannelReady, &mem)
            };
        }
        assert!(s.metrics().pages_retransmitted >= 1);
        assert!(s.metrics().rounds >= 2, "dirty page forces another round");
    }

    /// Regression: retransmissions used to be charged when a chunk was
    /// *built*. A chunk stashed awaiting swap-ins and then dropped by
    /// `reset_for_retry` left its retransmit counts behind even though
    /// nothing was re-sent on the wire, inflating the totals of any
    /// pre-copy run whose round aborted mid-chunk. They are now charged
    /// at emit time, so an aborted attempt's stashed chunk contributes
    /// nothing.
    #[test]
    fn aborted_stashed_chunk_leaves_no_phantom_retransmits() {
        let mut evs = Vec::new();
        let mut sa = SlotAllocator::unbounded();
        let mut mem = VmMemory::new(VmMemoryConfig {
            pages: 8,
            page_size: 4096,
            limit_pages: 8,
        });
        for p in 0..8 {
            mem.touch(p, true, &mut sa);
            mem.fault_in(p, true, &mut sa, &mut evs);
        }
        let mut s = SourceSession::new(
            SourceConfig {
                chunk_pages: 4,
                precopy_threshold_pages: 0,
                precopy_max_rounds: 3,
                ..SourceConfig::new(Technique::PreCopy)
            },
            8,
            SimTime::ZERO,
        );
        // Round 1, first chunk: pages 0..4 ship.
        s.on_event(SimTime::ZERO, SourceEvent::Start, &mem);
        // Dirty two already-sent pages, then shrink the limit one page at
        // a time until exactly one of them is evicted to swap. Which page
        // the two-list second-chance reclaimer picks is an implementation
        // detail; either way round 2's chunk re-adds the present one (a
        // retransmit) and stalls on a swap-in for the swapped one.
        mem.touch(0, true, &mut sa);
        mem.touch(1, true, &mut sa);
        let mut limit = 8u64;
        loop {
            let sw0 = matches!(mem.pagemap(0), PagemapEntry::Swapped { .. });
            let sw1 = matches!(mem.pagemap(1), PagemapEntry::Swapped { .. });
            if sw0 != sw1 {
                break;
            }
            assert!(
                !sw0 && limit > 1,
                "could not arrange exactly one of pages 0/1 swapped"
            );
            limit -= 1;
            mem.set_limit_bytes(limit * 4096, &mut sa, &mut evs);
        }
        // Drive until a stashed chunk carrying a retransmit forms: round
        // 2's dirty set is {0, 1}, and building its chunk re-adds the
        // present dirty page (a re-send) then stalls on a swap-in for the
        // swapped one. Stalls on clean pages the shrink happened to evict
        // from round 1's untransferred tail are completed and skipped.
        let mut pending: Option<(u64, Vec<(u32, u32)>)> = None;
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 100, "no stashed chunk with a retransmit formed");
            if s.stash.as_ref().is_some_and(|st| st.1.retransmits >= 1) {
                break;
            }
            let cmds = if let Some((batch, pages)) = pending.take() {
                for (pfn, _) in &pages {
                    if matches!(mem.pagemap(*pfn), PagemapEntry::Swapped { .. }) {
                        mem.begin_swap_in(*pfn);
                        mem.fault_in(*pfn, false, &mut sa, &mut evs);
                    }
                }
                s.on_event(SimTime::ZERO, SourceEvent::SwapInDone { batch }, &mem)
            } else {
                assert!(!s.is_done(), "session finished without stalling mid-chunk");
                s.on_event(SimTime::ZERO, SourceEvent::ChannelReady, &mem)
            };
            pending = cmds.iter().find_map(|c| match c {
                SourceCmd::SwapIn { batch, pages } => Some((*batch, pages.clone())),
                _ => None,
            });
        }
        // The connection drops; the attempt aborts with the chunk stashed.
        s.reset_for_retry(SimTime::ZERO);
        assert_eq!(
            s.metrics().pages_retransmitted,
            0,
            "nothing was emitted twice, so nothing may be counted as retransmitted"
        );
        // The retry re-ships everything from scratch; with per-attempt
        // state cleared those sends are all first transmissions.
        let cmds = drive_until_quiet(&mut s, &mut mem, &mut sa, SimTime::ZERO);
        assert!(s.is_done());
        assert!(count_full(&cmds) >= 8, "retry re-covers the populated set");
        assert_eq!(
            s.metrics().pages_retransmitted,
            0,
            "corrected total: the aborted build contributes nothing"
        );
        // The abort itself is visible in the phase log.
        assert!(s
            .metrics()
            .phase_log
            .iter()
            .any(|p| p.phase == agile_trace::PhaseKind::Aborted));
    }

    #[test]
    fn phase_log_tracks_transitions() {
        use agile_trace::PhaseKind;
        let (mut mem, mut sa) = fixture(32);
        let mut s = SourceSession::new(
            SourceConfig {
                chunk_pages: 8,
                ..SourceConfig::new(Technique::Agile)
            },
            32,
            SimTime::ZERO,
        );
        drive_until_quiet(&mut s, &mut mem, &mut sa, SimTime::ZERO);
        assert!(s.is_done());
        let kinds: Vec<PhaseKind> = s.metrics().phase_log.iter().map(|p| p.phase).collect();
        assert_eq!(
            kinds,
            vec![
                PhaseKind::LiveRound,
                PhaseKind::AwaitHandoff,
                PhaseKind::Push,
                PhaseKind::Done
            ],
            "agile: exactly one live round, then handoff, push, done"
        );
        // Counter snapshots are monotone along the log.
        for w in s.metrics().phase_log.windows(2) {
            assert!(w[0].migration_bytes <= w[1].migration_bytes);
            assert!(w[0].pages_sent_full <= w[1].pages_sent_full);
        }
    }

    #[test]
    fn demand_request_for_present_page_is_priority() {
        let (mem, _) = fixture(32);
        let mut s = SourceSession::new(SourceConfig::new(Technique::PostCopy), 32, SimTime::ZERO);
        s.on_event(SimTime::ZERO, SourceEvent::Start, &mem);
        s.on_event(SimTime::ZERO, SourceEvent::HandoffDelivered, &mem);
        let cmds = s.on_event(SimTime::ZERO, SourceEvent::DemandRequest { pfn: 5 }, &mem);
        match &cmds[0] {
            SourceCmd::SendChunk { chunk, priority } => {
                assert!(*priority);
                assert_eq!(chunk.full.len(), 1);
                assert_eq!(chunk.full[0].pfn, 5);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.metrics().pages_demand_from_source, 1);
        // A duplicate demand is ignored.
        let dup = s.on_event(SimTime::ZERO, SourceEvent::DemandRequest { pfn: 5 }, &mem);
        assert!(dup.is_empty());
    }

    #[test]
    fn demand_request_for_swapped_page_swaps_in_first() {
        let (mut mem, mut sa) = fixture(8);
        let victim = (0..32u32)
            .find(|p| matches!(mem.pagemap(*p), PagemapEntry::Swapped { .. }))
            .unwrap();
        let mut s = SourceSession::new(SourceConfig::new(Technique::PostCopy), 32, SimTime::ZERO);
        s.on_event(SimTime::ZERO, SourceEvent::Start, &mem);
        s.on_event(SimTime::ZERO, SourceEvent::HandoffDelivered, &mem);
        let cmds = s.on_event(
            SimTime::ZERO,
            SourceEvent::DemandRequest { pfn: victim },
            &mem,
        );
        let batch = match &cmds[0] {
            SourceCmd::SwapIn { batch, pages } => {
                assert_eq!(pages.len(), 1);
                assert_eq!(pages[0].0, victim);
                *batch
            }
            other => panic!("{other:?}"),
        };
        // Complete the swap-in.
        let mut evs = Vec::new();
        mem.begin_swap_in(victim);
        mem.fault_in(victim, false, &mut sa, &mut evs);
        let cmds = s.on_event(SimTime::ZERO, SourceEvent::SwapInDone { batch }, &mem);
        match &cmds[0] {
            SourceCmd::SendChunk { chunk, priority } => {
                assert!(*priority);
                assert_eq!(chunk.full[0].pfn, victim);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn agile_push_set_is_only_dirty_pages() {
        let (mem, _) = fixture(32);
        let mut s = SourceSession::new(
            SourceConfig {
                chunk_pages: 64,
                ..SourceConfig::new(Technique::Agile)
            },
            32,
            SimTime::ZERO,
        );
        // Round 1 (everything resident, one chunk covers all 32 entries?
        // chunk budget 64 ≥ 32, so the first ChannelReady ends the pass).
        let mut cmds = s.on_event(SimTime::ZERO, SourceEvent::Start, &mem);
        // Dirty two pages before the round completes? The round already
        // completed within Start (single chunk). Instead verify: dirty after
        // send but before suspend is impossible here, so expect zero dirty.
        while !matches!(s.phase, Phase::AwaitHandoff) {
            cmds.extend(s.on_event(SimTime::ZERO, SourceEvent::ChannelReady, &mem));
        }
        assert_eq!(s.handoff_dirty().unwrap().count_ones(), 0);
        cmds.extend(s.on_event(SimTime::ZERO, SourceEvent::HandoffDelivered, &mem));
        let done = s.on_event(SimTime::ZERO, SourceEvent::ChannelReady, &mem);
        assert!(matches!(done.last(), Some(SourceCmd::Done)));
        let _ = cmds;
    }
}
