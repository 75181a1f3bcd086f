//! Migration executor: drives the source/destination protocol sessions
//! against the simulated network, swap devices, and VM memory images.
//!
//! The executor owns the operational concerns the sans-IO sessions left
//! out: flow control (a window of chunks in flight on the bulk stream),
//! charging Migration-Manager swap-ins to the source swap device (where
//! they contend with the guest's own paging — the §V-B thrashing), the
//! suspend/resume choreography (memory image and swap-device handover,
//! client-connection limbo), and end-of-migration accounting.

use agile_memory::SsdSwap;
use agile_memory::{SwapIssue, VmMemory, VmMemoryConfig};
use agile_migration::{Chunk, DestSession, SourceCmd, SourceConfig, SourceEvent, SourceSession};
use agile_sim_core::{SimDuration, SimTime, Simulation};
use agile_trace::TraceEvent;
use agile_vm::{HostId, VmState};
use agile_vmd::{ClientId, VmdSwapDevice};

use crate::guest::{self, evict_with, EvictTarget};
use crate::netdrv::touch_net;
use crate::world::{host_ssd, MigrationExec, NetPayload, SwapDev, SwapReqCtx, World};

/// Static technique name for trace events (events are `Copy`, so the
/// technique travels as a `&'static str` rather than a display string).
fn technique_name(t: agile_migration::Technique) -> &'static str {
    match t {
        agile_migration::Technique::PreCopy => "pre-copy",
        agile_migration::Technique::PostCopy => "post-copy",
        agile_migration::Technique::Agile => "agile",
    }
}

/// Begin migrating `vm_idx` to `dest_host`. Returns the migration index.
///
/// `dest_reservation_bytes` is the cgroup reservation the VM receives at
/// the destination (the paper's YCSB experiment gives the migrated VM the
/// whole free destination host).
pub fn start_migration(
    sim: &mut Simulation<World>,
    vm_idx: usize,
    dest_host: usize,
    src_cfg: SourceConfig,
    dest_reservation_bytes: u64,
) -> usize {
    let now = sim.now();
    let mig = {
        let w = sim.state_mut();
        let source_host = w.vms[vm_idx].host;
        assert_ne!(source_host, dest_host, "migration to the same host");
        assert!(w.vms[vm_idx].migration.is_none(), "VM already migrating");
        let src_node = w.hosts[source_host].node;
        let dst_node = w.hosts[dest_host].node;
        let stream_ch = w.net.open_channel(src_node, dst_node);
        let demand_ch = w.net.open_channel(src_node, dst_node);
        let req_ch = w.net.open_channel(dst_node, src_node);
        let n_pages = w.vms[vm_idx].vm.memory().pages();
        let (dest_mem, dest_swap) = build_dest_image(w, vm_idx, dest_host, dest_reservation_bytes);
        let technique = src_cfg.technique;
        let src = SourceSession::new(src_cfg, n_pages, now);
        let dst = DestSession::new(technique, n_pages);
        if !matches!(technique, agile_migration::Technique::PostCopy) {
            w.vms[vm_idx].vm.begin_precopy(HostId(dest_host as u32));
        }
        let idx = w.migrations.len();
        w.migrations.push(MigrationExec {
            vm: vm_idx,
            source_host,
            dest_host,
            src,
            dst,
            stream_ch,
            demand_ch,
            req_ch,
            in_flight: 0,
            demand_in_flight: 0,
            src_done: false,
            finished: false,
            dest_mem: Some(dest_mem),
            source_mem: None,
            dest_swap: Some(dest_swap),
            source_swap: None,
            swapin_remaining: agile_sim_core::IdHashMap::default(),
            verify_content: false,
            attempt: 0,
            retries: 0,
            dest_reservation: dest_reservation_bytes,
            conn_down: false,
            pages_lost_on_conn_drop: 0,
        });
        w.vms[vm_idx].migration = Some(idx);
        w.trace.record(
            now,
            TraceEvent::MigStart {
                mig: idx as u32,
                technique: technique_name(technique),
                attempt: 0,
            },
        );
        idx
    };
    let cmds = drive_src(sim, mig, SourceEvent::Start);
    process_cmds(sim, mig, cmds);
    pump(sim, mig);
    mig
}

/// Build the destination memory image and swap binding for one migration
/// attempt.
///
/// The swap binding is the portable VMD namespace re-bound through the
/// destination's client (Agile), or the destination host's own SSD
/// partition (baselines). The arriving image draws from that device's
/// slot space: under Agile the namespace the departing image uses, under
/// the baselines the destination host's shared partition.
fn build_dest_image(
    w: &World,
    vm_idx: usize,
    dest_host: usize,
    dest_reservation_bytes: u64,
) -> (VmMemory, SwapDev) {
    let n_pages = w.vms[vm_idx].vm.memory().pages();
    let page_size = w.cfg.page_size;
    let dest_mem = VmMemory::new(VmMemoryConfig {
        pages: n_pages,
        page_size,
        limit_pages: (dest_reservation_bytes / page_size) as u32,
    });
    let dest_swap = match &w.vms[vm_idx].swap {
        SwapDev::Vmd(v) => {
            let client_idx = w.hosts[dest_host]
                .vmd_client
                .expect("destination host has no VMD client");
            SwapDev::Vmd(VmdSwapDevice::new(
                ClientId(client_idx as u32),
                v.namespace(),
                page_size,
            ))
        }
        SwapDev::Ssd(_) => {
            assert!(
                w.hosts[dest_host].ssd.is_some(),
                "destination host has no swap SSD"
            );
            SwapDev::Ssd(SsdSwap::new(dest_host, page_size))
        }
    };
    (dest_mem, dest_swap)
}

/// Feed one event to the source session against the right memory image.
fn drive_src(sim: &mut Simulation<World>, mig: usize, ev: SourceEvent) -> Vec<SourceCmd> {
    let now = sim.now();
    let World {
        vms, migrations, ..
    } = sim.state_mut();
    let m = &mut migrations[mig];
    let mem: &VmMemory = match &m.source_mem {
        Some(x) => x,
        None => vms[m.vm].vm.memory(),
    };
    m.src.on_event(now, ev, mem)
}

/// Keep the bulk stream's window full.
fn pump(sim: &mut Simulation<World>, mig: usize) {
    loop {
        let proceed = {
            let w = sim.state();
            let m = &w.migrations[mig];
            !m.src_done && !m.finished && m.in_flight < w.cfg.migration_window
        };
        if !proceed {
            return;
        }
        let cmds = drive_src(sim, mig, SourceEvent::ChannelReady);
        if cmds.is_empty() {
            return;
        }
        process_cmds(sim, mig, cmds);
    }
}

/// Execute a batch of source commands.
fn process_cmds(sim: &mut Simulation<World>, mig: usize, cmds: Vec<SourceCmd>) {
    let now = sim.now();
    for cmd in cmds {
        match cmd {
            SourceCmd::SendChunk { chunk, priority } => {
                let w = sim.state_mut();
                let wire = chunk.wire_bytes(w.cfg.page_size);
                w.trace.record(
                    now,
                    TraceEvent::ChunkSent {
                        mig: mig as u32,
                        full: chunk.full.len() as u32,
                        offsets: chunk.swapped.len() as u32,
                        zeros: chunk.zero.len() as u32,
                        retransmits: chunk.retransmits,
                        wire_bytes: wire,
                        priority,
                    },
                );
                let m = &mut w.migrations[mig];
                let ch = if priority { m.demand_ch } else { m.stream_ch };
                if priority {
                    m.demand_in_flight += 1;
                } else {
                    m.in_flight += 1;
                }
                let tag = w.tag(NetPayload::MigChunk {
                    mig,
                    chunk,
                    priority,
                });
                w.net.send(now, ch, wire, tag);
                touch_net(sim);
            }
            SourceCmd::SwapIn { batch, pages } => exec_swapin(sim, mig, batch, pages),
            SourceCmd::Suspend => {
                let vm_idx = sim.state().migrations[mig].vm;
                suspend_vm(sim, vm_idx, mig);
            }
            SourceCmd::SendHandoff { wire_bytes } => {
                let w = sim.state_mut();
                w.trace.record(
                    now,
                    TraceEvent::MigHandoff {
                        mig: mig as u32,
                        wire_bytes,
                    },
                );
                let ch = w.migrations[mig].stream_ch;
                let tag = w.tag(NetPayload::MigHandoff { mig });
                w.net.send(now, ch, wire_bytes, tag);
                touch_net(sim);
            }
            SourceCmd::Done => {
                sim.state_mut().migrations[mig].src_done = true;
                maybe_finalize(sim, mig);
            }
        }
    }
}

/// Longest slot-consecutive run the device coalesces into one command
/// (the kernel's swap read/write clustering window).
const MAX_RUN_PAGES: usize = 64;

/// Group `(key, slot)` items into slot-consecutive runs of at most
/// [`MAX_RUN_PAGES`]. Input order is not assumed; output is slot-sorted.
pub(crate) fn slot_runs<T: Copy>(mut items: Vec<(T, u32)>) -> Vec<Vec<(T, u32)>> {
    items.sort_by_key(|&(_, slot)| slot);
    let mut runs: Vec<Vec<(T, u32)>> = Vec::new();
    for (key, slot) in items {
        match runs.last_mut() {
            Some(run)
                if run.len() < MAX_RUN_PAGES && run.last().map(|&(_, s)| s + 1) == Some(slot) =>
            {
                run.push((key, slot));
            }
            _ => runs.push(vec![(key, slot)]),
        }
    }
    runs
}

/// Execute a Migration-Manager swap-in batch against the source image and
/// its swap device. Slot-consecutive pages coalesce into streaming runs —
/// an idle VM's sequentially-evicted memory reads back at device bandwidth
/// while a busy VM's churned slots pay per-command overhead (the idle/busy
/// gap of Fig. 7).
fn exec_swapin(sim: &mut Simulation<World>, mig: usize, batch: u64, pages: Vec<(u32, u32)>) {
    let now = sim.now();
    let mut remaining = 0u32;
    let mut pending_vmd = false;
    let mut ssd_reads: Vec<(u32, u32)> = Vec::new(); // (pfn, slot) to read from SSD
    let mut scheduled: Vec<(SimTime, u64)> = Vec::new();
    {
        let World {
            hosts,
            vms,
            vmd,
            migrations,
            swap_reqs,
            next_req,
            swapin_piggyback,
            ..
        } = sim.state_mut();
        let m = &mut migrations[mig];
        let vm_idx = m.vm;
        let resumed = m.source_mem.is_some();
        for (pfn, slot) in pages {
            let mem: &mut VmMemory = match m.source_mem.as_mut() {
                Some(x) => x,
                None => vms[vm_idx].vm.memory_mut(),
            };
            let flags = mem.page_flags(pfn);
            if flags.present() {
                continue; // already resident; nothing to read
            }
            if flags.any(agile_memory::PageFlags::IO_INFLIGHT) {
                // A guest fault already reads this page: piggyback.
                swapin_piggyback
                    .entry((vm_idx, pfn))
                    .or_default()
                    .push((mig, batch));
                remaining += 1;
                continue;
            }
            debug_assert!(flags.swapped(), "swap-in of an untracked page");
            mem.begin_swap_in(pfn);
            if !resumed {
                // The guest may touch the page while the read is in
                // flight; give it an entry to park on.
                vms[vm_idx]
                    .pending_faults
                    .entry(pfn)
                    .or_insert_with(|| crate::world::FaultEntry {
                        waiters: Vec::new(),
                        issued: true,
                    });
            }
            remaining += 1;
            let dev: &mut SwapDev = match m.source_swap.as_mut() {
                Some(d) => d,
                None => &mut vms[vm_idx].swap,
            };
            match dev {
                SwapDev::Ssd(_) => ssd_reads.push((pfn, slot)),
                SwapDev::Vmd(v) => {
                    let req = *next_req;
                    *next_req += 1;
                    swap_reqs.insert(req, SwapReqCtx::MigrationSwapIn { mig, batch, pfn });
                    let (client, dir) = vmd.client_and_dir(v.client_id().0 as usize);
                    match v.read(client, dir, now, slot, req) {
                        SwapIssue::CompleteAt(t) => scheduled.push((t, req)),
                        SwapIssue::Pending => pending_vmd = true,
                    }
                }
            }
        }
        // Coalesce the SSD reads into streaming runs.
        if !ssd_reads.is_empty() {
            let dev: &mut SwapDev = match m.source_swap.as_mut() {
                Some(d) => d,
                None => &mut vms[vm_idx].swap,
            };
            let SwapDev::Ssd(ssd) = dev else {
                unreachable!()
            };
            let disk = host_ssd(hosts, ssd.host());
            for run in slot_runs(ssd_reads) {
                let done = ssd.read_run(disk, now, run.len() as u64);
                for (pfn, _) in run {
                    let req = *next_req;
                    *next_req += 1;
                    swap_reqs.insert(req, SwapReqCtx::MigrationSwapIn { mig, batch, pfn });
                    scheduled.push((done, req));
                }
            }
            ssd_reads = Vec::new();
        }
        let _ = ssd_reads;
        if remaining > 0 {
            m.swapin_remaining.insert(batch, remaining);
        }
    }
    for (t, req) in scheduled {
        sim.schedule_fast(t, agile_sim_core::FastEvent::DeviceOp { req });
    }
    if pending_vmd {
        guest::flush_all_clients(sim);
    }
    if remaining == 0 {
        // Everything was already resident: complete the batch instantly.
        let cmds = drive_src(sim, mig, SourceEvent::SwapInDone { batch });
        process_cmds(sim, mig, cmds);
        pump(sim, mig);
    }
}

/// One page of a Migration-Manager swap-in batch finished reading.
pub fn complete_migration_swapin(sim: &mut Simulation<World>, mig: usize, batch: u64, pfn: u32) {
    let (vm_idx, applied_to_vm) = {
        let m = &sim.state().migrations[mig];
        (m.vm, m.source_mem.is_none())
    };
    evict_with(sim, EvictTarget::MigSource(mig), |e| {
        e.mem.fault_in(pfn, false, e.slots, e.evs)
    });
    if applied_to_vm {
        guest::wake_page(sim, vm_idx, pfn);
    }
    // A later batch (e.g. a post-abort retry pass) may have piggybacked
    // on this read while it was in flight.
    guest::credit_piggybacks(sim, vm_idx, pfn);
    credit_swapin(sim, mig, batch);
}

/// Credit one completed page toward a swap-in batch; fires `SwapInDone`
/// when the batch drains.
pub fn credit_swapin(sim: &mut Simulation<World>, mig: usize, batch: u64) {
    let done = {
        let w = sim.state_mut();
        let m = &mut w.migrations[mig];
        // A batch missing from the map belonged to an aborted attempt:
        // the read still installed its page, but the session that issued
        // it is gone. Nothing to credit.
        let Some(rem) = m.swapin_remaining.get_mut(&batch) else {
            return;
        };
        *rem -= 1;
        if *rem == 0 {
            m.swapin_remaining.remove(&batch);
            true
        } else {
            false
        }
    };
    if done {
        let cmds = drive_src(sim, mig, SourceEvent::SwapInDone { batch });
        process_cmds(sim, mig, cmds);
        pump(sim, mig);
    }
}

/// A chunk arrived at the destination.
pub fn on_chunk_delivered(sim: &mut Simulation<World>, mig: usize, chunk: Chunk, priority: bool) {
    let now = sim.now();
    let (vm_idx, resumed) = {
        let World {
            migrations, trace, ..
        } = sim.state_mut();
        let m = &mut migrations[mig];
        let vm_idx = m.vm;
        let resumed = m.dst.resumed();
        if priority {
            m.demand_in_flight = m.demand_in_flight.saturating_sub(1);
            m.dst.note_demand_served();
            let served = chunk
                .full
                .first()
                .map(|f| f.pfn)
                .or_else(|| chunk.zero.first().copied());
            if let Some(pfn) = served {
                trace.record(
                    now,
                    TraceEvent::DemandServed {
                        mig: mig as u32,
                        pfn,
                    },
                );
            }
        } else {
            m.in_flight = m.in_flight.saturating_sub(1);
        }
        (vm_idx, resumed)
    };
    evict_with(sim, EvictTarget::MigDest(mig), |e| {
        let dst = e.dst.expect("a migration side lends its session");
        dst.on_chunk(&chunk, e.mem, e.slots, e.evs)
    });
    // Wake ops parked on any page this chunk just installed (or declared
    // zero — their retry will zero-fill locally).
    if resumed {
        let mut to_wake: Vec<u32> = Vec::new();
        {
            let w = sim.state();
            let slot = &w.vms[vm_idx];
            for fp in &chunk.full {
                if slot.pending_faults.contains_key(&fp.pfn) {
                    to_wake.push(fp.pfn);
                }
            }
            for z in &chunk.zero {
                if slot.pending_faults.contains_key(z) {
                    to_wake.push(*z);
                }
            }
        }
        for pfn in to_wake {
            guest::wake_page(sim, vm_idx, pfn);
        }
    }
    pump(sim, mig);
    maybe_finalize(sim, mig);
}

/// The handoff message arrived: the VM resumes at the destination.
pub fn on_handoff_delivered(sim: &mut Simulation<World>, mig: usize) {
    // Give the destination its dirty bitmap.
    {
        let World {
            vms, migrations, ..
        } = sim.state_mut();
        let m = &mut migrations[mig];
        let n_pages = vms[m.vm].vm.memory().pages();
        let dirty = m
            .src
            .handoff_dirty()
            .cloned()
            .unwrap_or_else(|| agile_migration::Bitmap::zeros(n_pages));
        let mem: &mut VmMemory = match m.dest_mem.as_mut() {
            Some(x) => x,
            None => vms[m.vm].vm.memory_mut(),
        };
        m.dst.on_handoff(dirty, mem);
    }
    resume_vm_at_dest(sim, mig);
    let cmds = drive_src(sim, mig, SourceEvent::HandoffDelivered);
    process_cmds(sim, mig, cmds);
    pump(sim, mig);
    maybe_finalize(sim, mig);
}

/// A demand-page request arrived at the source.
pub fn on_demand_request(sim: &mut Simulation<World>, mig: usize, pfn: u32) {
    let now = sim.now();
    sim.state_mut().trace.record(
        now,
        TraceEvent::DemandRequest {
            mig: mig as u32,
            pfn,
        },
    );
    let cmds = drive_src(sim, mig, SourceEvent::DemandRequest { pfn });
    process_cmds(sim, mig, cmds);
}

/// Suspend the VM at the source (downtime begins).
fn suspend_vm(sim: &mut Simulation<World>, vm_idx: usize, mig: usize) {
    let now = sim.now();
    {
        let w = sim.state_mut();
        w.trace
            .record(now, TraceEvent::MigSuspend { mig: mig as u32 });
        let dest = HostId(w.migrations[mig].dest_host as u32);
        match w.vms[vm_idx].vm.state() {
            VmState::Running { .. } => w.vms[vm_idx].vm.suspend_for(dest),
            VmState::PreCopy { .. } => w.vms[vm_idx].vm.suspend(),
            other => panic!("suspend from {other:?}"),
        }
    }
    guest::suspend_guest(sim, vm_idx);
}

/// The handoff arrived: swap images/devices and resume at the destination.
fn resume_vm_at_dest(sim: &mut Simulation<World>, mig: usize) {
    let now = sim.now();
    let vm_idx = {
        let w = sim.state_mut();
        w.trace
            .record(now, TraceEvent::MigResume { mig: mig as u32 });
        let (vm_idx, dest_host, source_host) = {
            let m = &w.migrations[mig];
            (m.vm, m.dest_host, m.source_host)
        };
        w.vms[vm_idx].vm.resume_at_destination();
        let dest_mem = w.migrations[mig].dest_mem.take().expect("dest image");
        let dest_limit = dest_mem.limit_bytes();
        let old_mem = w.vms[vm_idx].vm.replace_memory(dest_mem);
        w.migrations[mig].source_mem = Some(old_mem);
        let dest_swap = w.migrations[mig].dest_swap.take().expect("dest swap");
        let old_swap = std::mem::replace(&mut w.vms[vm_idx].swap, dest_swap);
        w.migrations[mig].source_swap = Some(old_swap);
        w.vms[vm_idx].mem_epoch += 1;
        w.vms[vm_idx].host = dest_host;
        w.vms[vm_idx].pending_faults.clear();
        // Host ledgers: the reservation moves with the VM.
        w.hosts[source_host].mem.remove_reservation(vm_idx as u64);
        w.hosts[dest_host]
            .mem
            .set_reservation(vm_idx as u64, dest_limit);
        vm_idx
    };
    guest::resume_guest(sim, vm_idx);
}

/// Complete the migration once the source is done and the pipes drained.
fn maybe_finalize(sim: &mut Simulation<World>, mig: usize) {
    let now = sim.now();
    let vm_idx = {
        let w = sim.state_mut();
        let ready = {
            let m = &w.migrations[mig];
            m.src_done && !m.finished && m.in_flight == 0 && m.demand_in_flight == 0
        };
        if !ready {
            return;
        }
        if w.migrations[mig].verify_content {
            verify_content(w, mig);
        }
        let m = &mut w.migrations[mig];
        m.finished = true;
        m.src.metrics_mut().completed_at = Some(now);
        // Free the source copy; disconnect the per-VM swap device from the
        // source host (§IV-B) — the destination binding lives on.
        m.source_mem = None;
        m.source_swap = None;
        // The sessions' per-page tables and bitmaps are dead weight now;
        // the metrics and counters the reports read stay.
        m.src.release_page_state();
        m.dst.release_page_state();
        m.vm
    };
    let w = sim.state_mut();
    w.trace
        .record(now, TraceEvent::MigComplete { mig: mig as u32 });
    w.vms[vm_idx].vm.complete_migration();
    w.vms[vm_idx].migration = None;
    // Tell the cluster scheduler (if armed): an admission slot may have
    // freed, so queued selections can start now rather than next tick.
    crate::sched::on_migration_finished(sim, vm_idx);
}

/// End-to-end content check: for every guest page, the destination must
/// hold a version at least as new as the source's final (frozen) version.
/// A violation means some dirty page was lost by the protocol.
fn verify_content(w: &World, mig: usize) {
    let m = &w.migrations[mig];
    let src = m
        .source_mem
        .as_ref()
        .expect("source image retained until finalize");
    let dst = w.vms[m.vm].vm.memory();
    let mut checked = 0u32;
    for pfn in 0..src.pages() {
        let sv = src.version(pfn);
        let dv = dst.version(pfn);
        if dv < sv {
            panic!(
                "migration lost content: page {pfn} source v{sv} > dest v{dv} ({:?}); \
                 src_pagemap={:?} dst_pagemap={:?} dst_received={} dst_swapped={:?} \
                 handoff_dirty={:?} remaining_in_pass={}",
                m.src.metrics().technique,
                src.pagemap(pfn),
                dst.pagemap(pfn),
                m.dst.received_pages(),
                m.dst.classify_fault(pfn),
                m.src.handoff_dirty().map(|b| b.get(pfn)),
                m.src.remaining_in_pass(),
            );
        }
        checked += 1;
    }
    assert_eq!(checked, src.pages());
}

// ------------------- connection-drop fault handling -------------------

/// Base backoff before retrying an aborted migration attempt (scaled by
/// the attempt number).
const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(500);

/// Every TCP connection of migration `mig` just dropped (fault injection).
///
/// Before the destination has resumed, the attempt aborts cheaply: all
/// in-flight traffic is lost, the VM keeps running (or thaws back) at the
/// source, and the source retries from scratch after a backoff. After
/// resume there is no source to roll back to: the migration finalizes
/// degraded — missing pages are demand-paged from the portable swap
/// namespace's replicas where a swap copy exists, and zero-filled (and
/// counted as lost) where not.
pub fn drop_connections(sim: &mut Simulation<World>, mig: usize) {
    let resumed = {
        let w = sim.state();
        if mig >= w.migrations.len() || w.migrations[mig].finished {
            return;
        }
        w.migrations[mig].dst.resumed()
    };
    // Tear the channels down first: queued *and* in-flight segments are
    // dropped, so no stale delivery callback from this attempt can fire,
    // and their payloads are freed with them.
    {
        let now = sim.now();
        let w = sim.state_mut();
        let (stream_ch, demand_ch, req_ch) = {
            let m = &w.migrations[mig];
            (m.stream_ch, m.demand_ch, m.req_ch)
        };
        for ch in [stream_ch, demand_ch, req_ch] {
            for tag in w.net.close_channel(now, ch) {
                w.payloads.take(tag as u32);
            }
        }
    }
    touch_net(sim);
    if resumed {
        conn_down_degraded(sim, mig);
    } else {
        abort_and_retry(sim, mig);
    }
}

/// Pre-resume abort: roll the attempt back and schedule a retry.
fn abort_and_retry(sim: &mut Simulation<World>, mig: usize) {
    let now = sim.now();
    let (vm_idx, attempt, was_suspended) = {
        let w = sim.state_mut();
        let (vm_idx, dest_host, resv) = {
            let m = &w.migrations[mig];
            (m.vm, m.dest_host, m.dest_reservation)
        };
        let (dest_mem, dest_swap) = build_dest_image(w, vm_idx, dest_host, resv);
        let technique = w.migrations[mig].src.metrics().technique;
        let n_pages = w.vms[vm_idx].vm.memory().pages();
        let m = &mut w.migrations[mig];
        m.in_flight = 0;
        m.demand_in_flight = 0;
        // Stale batches from this attempt no-op in `credit_swapin`; their
        // reads still land in the source image, which only helps the retry.
        m.swapin_remaining.clear();
        m.src.reset_for_retry(now);
        m.dst = DestSession::new(technique, n_pages);
        // Slots the aborted destination image allocated stay leaked from
        // the shared allocator — bounded by one attempt's destination
        // evictions (zero unless the reservation was undersized).
        m.dest_mem = Some(dest_mem);
        m.dest_swap = Some(dest_swap);
        m.attempt += 1;
        m.retries += 1;
        let attempt = m.attempt;
        w.trace.record(
            now,
            TraceEvent::MigAbort {
                mig: mig as u32,
                attempt,
            },
        );
        let was_suspended = matches!(w.vms[vm_idx].vm.state(), VmState::Suspended { .. });
        if !matches!(w.vms[vm_idx].vm.state(), VmState::Running { .. }) {
            w.vms[vm_idx].vm.cancel_migration();
        }
        (vm_idx, attempt, was_suspended)
    };
    if was_suspended {
        // The guest was frozen for the handoff that just got lost; it
        // thaws back at the source.
        guest::resume_guest(sim, vm_idx);
    }
    let backoff = RETRY_BACKOFF.saturating_mul(u64::from(attempt));
    sim.schedule_in(backoff, move |sim| retry_attempt(sim, mig, attempt));
}

/// The backoff elapsed: restart the migration from scratch on fresh
/// channels. A stale callback (superseded attempt, or the migration ended
/// some other way) is a no-op.
fn retry_attempt(sim: &mut Simulation<World>, mig: usize, attempt: u32) {
    let proceed = {
        let w = sim.state();
        let m = &w.migrations[mig];
        !m.finished && m.attempt == attempt && w.vms[m.vm].migration == Some(mig)
    };
    if !proceed {
        return;
    }
    let now = sim.now();
    {
        let w = sim.state_mut();
        let (vm_idx, source_host, dest_host) = {
            let m = &w.migrations[mig];
            (m.vm, m.source_host, m.dest_host)
        };
        let src_node = w.hosts[source_host].node;
        let dst_node = w.hosts[dest_host].node;
        let stream_ch = w.net.open_channel(src_node, dst_node);
        let demand_ch = w.net.open_channel(src_node, dst_node);
        let req_ch = w.net.open_channel(dst_node, src_node);
        let technique = {
            let m = &mut w.migrations[mig];
            m.stream_ch = stream_ch;
            m.demand_ch = demand_ch;
            m.req_ch = req_ch;
            m.src.metrics().technique
        };
        if !matches!(technique, agile_migration::Technique::PostCopy) {
            w.vms[vm_idx].vm.begin_precopy(HostId(dest_host as u32));
        }
        w.trace.record(
            now,
            TraceEvent::MigStart {
                mig: mig as u32,
                technique: technique_name(technique),
                attempt,
            },
        );
    }
    let cmds = drive_src(sim, mig, SourceEvent::Start);
    process_cmds(sim, mig, cmds);
    pump(sim, mig);
}

/// Post-resume connection drop: no rollback target exists, so the
/// migration finalizes degraded. Pages never received and without a swap
/// copy are zero-filled and counted; swapped pages keep faulting from the
/// (replicated) per-VM swap device as usual.
fn conn_down_degraded(sim: &mut Simulation<World>, mig: usize) {
    use agile_memory::PageFlags;
    use agile_migration::FaultRoute;
    let vm_idx = {
        let w = sim.state_mut();
        let m = &mut w.migrations[mig];
        m.conn_down = true;
        m.src_done = true;
        m.in_flight = 0;
        m.demand_in_flight = 0;
        m.swapin_remaining.clear();
        // Content can now be legitimately lost (it is reported per page
        // instead); the end-to-end version check no longer applies.
        m.verify_content = false;
        m.vm
    };
    // Sweep every page still owed by the source: with a swap copy it will
    // demand-page from the replicas; without one its content is gone —
    // zero-fill now and count the loss.
    let lost = evict_with(sim, EvictTarget::MigDest(mig), |e| {
        let dst = e.dst.expect("a migration side lends its session");
        let mut lost = 0;
        for pfn in 0..e.mem.pages() {
            if !matches!(dst.classify_fault(pfn), FaultRoute::FromSource) {
                continue;
            }
            let f = e.mem.page_flags(pfn);
            if !f.present() && !f.swapped() && !f.any(PageFlags::IO_INFLIGHT) {
                dst.install_zero_fill(pfn, e.mem, e.slots, e.evs);
                lost += 1;
            }
        }
        lost
    });
    sim.state_mut().migrations[mig].pages_lost_on_conn_drop += lost;
    {
        let now = sim.now();
        let w = sim.state_mut();
        let pages_lost = w.migrations[mig].pages_lost_on_conn_drop;
        w.trace.record(
            now,
            TraceEvent::MigDegraded {
                mig: mig as u32,
                pages_lost,
            },
        );
    }
    // Ops parked on a demand response that will never arrive: wake them so
    // they re-fault down the degraded path (the sweep made most of them
    // plain hits). Pages with reads genuinely in flight stay parked —
    // their completions still arrive through the swap device. Woken in
    // pfn order: the wake-ups are same-instant events.
    let mut stuck: Vec<u32> = {
        let w = sim.state();
        let mem = w.vms[vm_idx].vm.memory();
        w.vms[vm_idx]
            .pending_faults
            .keys()
            .copied()
            .filter(|&pfn| !mem.page_flags(pfn).any(PageFlags::IO_INFLIGHT))
            .collect()
    };
    stuck.sort_unstable();
    for pfn in stuck {
        guest::wake_page(sim, vm_idx, pfn);
    }
    maybe_finalize(sim, mig);
}
