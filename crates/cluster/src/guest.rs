//! Guest execution engine.
//!
//! Plays workload [`OpSpec`]s against a VM: requests travel from the
//! external client host over the network, queue for the guest's server
//! workers (Redis: one; MySQL: several), touch pages — blocking on major
//! faults whose latency comes from the swap device and its queue — then
//! burn guest CPU under vCPU contention and send the response back. The
//! throughput the paper plots *emerges* from these mechanics; nothing here
//! computes a rate directly.
//!
//! During post-copy/Agile migration the destination routes faults through
//! the [`agile_migration::DestSession`] (the UMEM path): pages dirtied at
//! the source are demand-requested over the network; cold pages are read
//! from the per-VM swap device; unknown pages zero-fill locally.

use agile_memory::{SwapIssue, Touch, VmMemory};
use agile_sim_core::{FastEvent, SimDuration, Simulation};
use agile_trace::{FaultPath, TraceEvent};
use agile_vm::VmState;
use agile_workload::OpSpec;

use crate::netdrv::touch_net;
use crate::world::{host_ssd, FaultEntry, NetPayload, OpExec, SwapDev, SwapReqCtx, World};
use crate::{migrate, vmdio};

/// Where to charge eviction write-backs.
#[derive(Clone, Copy, Debug)]
pub enum EvictTarget {
    /// The VM's current swap device.
    Vm(usize),
    /// The arriving VM image at the destination of migration `mig`.
    MigDest(usize),
    /// The retained source image of migration `mig`.
    MigSource(usize),
}

/// Issue the write-backs for a batch of evictions. Slot-consecutive
/// writes to a local SSD coalesce into streaming runs (the kernel's
/// swap-out clustering); VMD writes travel as per-page protocol messages.
pub fn charge_evictions(
    sim: &mut Simulation<World>,
    target: EvictTarget,
    evictions: &[agile_memory::Eviction],
) {
    if evictions.is_empty() {
        return;
    }
    let now = sim.now();
    let mut any_vmd = false;
    {
        let World {
            hosts,
            vms,
            vmd,
            migrations,
            swap_reqs,
            next_req,
            ..
        } = sim.state_mut();
        // The device, and the image the pages left (the VMD store needs
        // their content versions).
        let (mem, dev): (&VmMemory, &mut SwapDev) = match target {
            EvictTarget::Vm(v) => {
                let slot = &mut vms[v];
                (slot.vm.memory(), &mut slot.swap)
            }
            EvictTarget::MigDest(m) => {
                let m = &mut migrations[m];
                let mem = m.dest_mem.as_ref().expect("dest image");
                (mem, m.dest_swap.as_mut().expect("dest swap"))
            }
            EvictTarget::MigSource(m) => {
                let m = &mut migrations[m];
                let mem = m.source_mem.as_ref().expect("source image");
                (mem, m.source_swap.as_mut().expect("source swap"))
            }
        };
        let writes = evictions.iter().filter(|e| e.needs_write);
        match dev {
            SwapDev::Ssd(ssd) => {
                // Content is not tracked on the SSD; only device time and
                // counters matter. The handle clusters the asynchronous
                // swap-out writes.
                let disk = host_ssd(hosts, ssd.host());
                for _ in writes {
                    ssd.write(disk, now);
                }
            }
            SwapDev::Vmd(v) => {
                let (client, dir) = vmd.client_and_dir(v.client_id().0 as usize);
                for ev in writes {
                    let req = *next_req;
                    *next_req += 1;
                    swap_reqs.insert(req, SwapReqCtx::EvictionWrite);
                    v.write(client, dir, ev.slot, mem.version(ev.pfn), req);
                    any_vmd = true;
                }
            }
        }
    }
    if any_vmd {
        // Swap-out admission control: above the pool's high water mark the
        // flush is delayed, so eviction bursts drain into the pool at a
        // pace reclaim can keep up with instead of forcing NAKs.
        match crate::poolctl::throttle_delay(sim.state()) {
            None => flush_all_clients(sim),
            Some(delay) => {
                if let Some(p) = sim.state_mut().pool.as_mut() {
                    p.counters.throttled_flushes += 1;
                }
                sim.schedule_in(delay, flush_all_clients);
            }
        }
    }
}

/// Drain every VMD client outbox (cheap; ≤ a handful of clients).
pub fn flush_all_clients(sim: &mut Simulation<World>) {
    for c in 0..sim.state().vmd.clients.len() {
        vmdio::flush_client(sim, c);
    }
}

/// Open (or re-open, after migration) the client↔VM channels.
pub fn attach_client_channels(sim: &mut Simulation<World>, vm_idx: usize) {
    let w = sim.state_mut();
    let exec_host = w.vms[vm_idx].host;
    let Some(client) = w.vms[vm_idx].client.as_ref() else {
        return;
    };
    let client_node = w.hosts[client.host].node;
    let vm_node = w.hosts[exec_host].node;
    let to_vm = w.net.open_channel(client_node, vm_node);
    let from_vm = w.net.open_channel(vm_node, client_node);
    let c = w.vms[vm_idx].client.as_mut().expect("checked");
    c.to_vm = to_vm;
    c.from_vm = from_vm;
}

/// Kick off a VM's closed-loop client threads at `at`.
pub fn start_client(sim: &mut Simulation<World>, vm_idx: usize, at: agile_sim_core::SimTime) {
    let threads = sim.state().vms[vm_idx]
        .client
        .as_ref()
        .map(|c| c.threads)
        .unwrap_or(0);
    for t in 0..threads {
        // Tiny stagger so threads don't tick in lockstep.
        let start = at + SimDuration::from_micros(137 * t as u64);
        sim.schedule_fast(
            start,
            FastEvent::Timer {
                kind: crate::fast::K_CLIENT_SEND,
                a: vm_idx as u64,
                b: 0,
            },
        );
    }
}

/// One client thread sends its next request.
pub fn client_send_next(sim: &mut Simulation<World>, vm_idx: usize) {
    let now = sim.now();
    let w = sim.state_mut();
    let slot = &mut w.vms[vm_idx];
    let (Some(client), Some(workload)) = (slot.client.as_mut(), slot.workload.as_mut()) else {
        return;
    };
    let (op, counts) = workload.next_op(&mut client.rng);
    let ch = client.to_vm;
    let bytes = op.request_bytes;
    let tag = w.tag(NetPayload::Request {
        vm: vm_idx,
        op,
        counts,
    });
    w.net.send(now, ch, bytes, tag);
    touch_net(sim);
}

/// A request arrived at the VM's (current or former) execution host.
pub fn on_request(sim: &mut Simulation<World>, vm_idx: usize, op: OpSpec, counts: bool) {
    let w = sim.state_mut();
    let exec = OpExec {
        gen: 0,
        vm: vm_idx,
        touches: op.touches,
        idx: 0,
        cpu: op.cpu,
        response_bytes: op.response_bytes,
        counts,
        respond: true,
    };
    let id = w.alloc_op(exec);
    if !w.vms[vm_idx].vm.state().can_execute() {
        // Connection limbo across the downtime window: the request waits
        // and is replayed when the VM resumes at the destination.
        w.vms[vm_idx].limbo.push(id);
        return;
    }
    w.vms[vm_idx].server_queue.push_back(id);
    try_dispatch(sim, vm_idx);
}

/// Dispatch queued requests onto free server workers.
pub fn try_dispatch(sim: &mut Simulation<World>, vm_idx: usize) {
    loop {
        let dispatched = {
            let w = sim.state_mut();
            let slot = &mut w.vms[vm_idx];
            if !slot.vm.state().can_execute() {
                return;
            }
            let conc = slot
                .workload
                .as_ref()
                .map(|wk| wk.server_concurrency())
                .unwrap_or(1);
            if slot.server_active >= conc {
                return;
            }
            match slot.server_queue.pop_front() {
                Some(id) => {
                    slot.server_active += 1;
                    let gen = w.op(id).expect("queued op").gen;
                    Some((id, gen))
                }
                None => None,
            }
        };
        match dispatched {
            Some((id, gen)) => step_op(sim, id, gen),
            None => return,
        }
    }
}

/// Advance one operation: touch pages (parking on faults) then burn CPU.
pub fn step_op(sim: &mut Simulation<World>, id: usize, gen: u32) {
    loop {
        let (vm_idx, touch) = {
            let w = sim.state();
            let Some(op) = w.op(id) else { return };
            if op.gen != gen {
                return; // superseded by a suspension
            }
            let t = (op.idx < op.touches.len()).then(|| op.touches.get(op.idx));
            (op.vm, t)
        };
        let Some((pfn, write)) = touch else {
            begin_cpu(sim, id, gen);
            return;
        };

        // Destination-side fault routing while a migration is live.
        let mig_route = {
            let w = sim.state();
            let slot = &w.vms[vm_idx];
            match slot.migration {
                Some(m)
                    if !w.migrations[m].finished
                        && w.migrations[m].dst.resumed()
                        && matches!(slot.vm.state(), VmState::PostCopy { .. }) =>
                {
                    Some((m, w.migrations[m].dst.classify_fault(pfn)))
                }
                _ => None,
            }
        };
        if let Some((m, route)) = mig_route {
            use agile_migration::FaultRoute;
            if sim.state().trace.is_enabled() {
                let now = sim.now();
                let path = match route {
                    FaultRoute::AlreadyHere => FaultPath::AlreadyHere,
                    FaultRoute::FromSource => FaultPath::FromSource,
                    FaultRoute::FromSwap { .. } => FaultPath::FromSwap,
                    FaultRoute::ZeroFill => FaultPath::ZeroFill,
                };
                sim.state_mut().trace.record(
                    now,
                    TraceEvent::FaultRouted {
                        vm: vm_idx as u32,
                        pfn,
                        path,
                    },
                );
            }
            match route {
                FaultRoute::FromSource => {
                    if !sim.state().migrations[m].conn_down {
                        park_and_request_from_source(sim, vm_idx, m, pfn, id);
                        return;
                    }
                    // The source is unreachable (post-resume connection
                    // drop). If the page sits in the portable swap
                    // namespace a normal major fault pulls it from the
                    // surviving VMD replicas; otherwise its content is
                    // gone — zero-fill and report the loss.
                    let swapped = sim.state().vms[vm_idx]
                        .vm
                        .memory()
                        .page_flags(pfn)
                        .swapped();
                    if !swapped {
                        let mut buf = std::mem::take(&mut sim.state_mut().evict_buf);
                        buf.clear();
                        {
                            let w = sim.state_mut();
                            let (vms, migs) = (&mut w.vms, &mut w.migrations);
                            migs[m].dst.install_zero_fill(
                                pfn,
                                vms[vm_idx].vm.memory_mut(),
                                &mut buf,
                            );
                            migs[m].pages_lost_on_conn_drop += 1;
                        }
                        charge_evictions(sim, EvictTarget::Vm(vm_idx), &buf);
                        buf.clear();
                        sim.state_mut().evict_buf = buf;
                        continue; // now present → Hit
                    }
                    // swapped: fall through to the normal touch — the
                    // major fault reads from the surviving replicas.
                }
                FaultRoute::ZeroFill => {
                    let mut buf = std::mem::take(&mut sim.state_mut().evict_buf);
                    buf.clear();
                    {
                        let w = sim.state_mut();
                        let (vms, migs) = (&mut w.vms, &mut w.migrations);
                        migs[m]
                            .dst
                            .install_zero_fill(pfn, vms[vm_idx].vm.memory_mut(), &mut buf);
                    }
                    charge_evictions(sim, EvictTarget::Vm(vm_idx), &buf);
                    buf.clear();
                    sim.state_mut().evict_buf = buf;
                    continue; // now present → Hit
                }
                FaultRoute::AlreadyHere | FaultRoute::FromSwap { .. } => {
                    // Fall through: the page table agrees (present, or
                    // swapped → normal major fault on the per-VM device).
                }
            }
        }

        let result = sim.state_mut().vms[vm_idx]
            .vm
            .memory_mut()
            .touch(pfn, write);
        match result {
            Touch::Hit => {
                if let Some(op) = sim.state_mut().op_mut(id) {
                    op.idx += 1;
                }
            }
            Touch::MinorFault => {
                let minor_cost = sim.state().cfg.minor_fault_cost;
                let mut buf = std::mem::take(&mut sim.state_mut().evict_buf);
                buf.clear();
                sim.state_mut().vms[vm_idx]
                    .vm
                    .memory_mut()
                    .fault_in(pfn, write, &mut buf);
                charge_evictions(sim, EvictTarget::Vm(vm_idx), &buf);
                buf.clear();
                sim.state_mut().evict_buf = buf;
                if let Some(op) = sim.state_mut().op_mut(id) {
                    op.idx += 1;
                    op.cpu += minor_cost;
                }
            }
            Touch::MajorFault { slot } => {
                issue_major_fault(sim, vm_idx, pfn, slot, id);
                return;
            }
            Touch::InFlight => {
                park(sim, vm_idx, pfn, id);
                return;
            }
        }
    }
}

/// Park an op on an already-issued fault.
fn park(sim: &mut Simulation<World>, vm_idx: usize, pfn: u32, op_id: usize) {
    let w = sim.state_mut();
    let entry = w.vms[vm_idx]
        .pending_faults
        .entry(pfn)
        .or_insert_with(|| FaultEntry {
            waiters: Vec::new(),
            issued: true, // IO_INFLIGHT implies someone issued it
        });
    entry.waiters.push(op_id);
}

/// Park an op and (once) send a demand-page request to the source.
fn park_and_request_from_source(
    sim: &mut Simulation<World>,
    vm_idx: usize,
    mig: usize,
    pfn: u32,
    op_id: usize,
) {
    let now = sim.now();
    let need_send = {
        let w = sim.state_mut();
        let entry = w.vms[vm_idx]
            .pending_faults
            .entry(pfn)
            .or_insert_with(|| FaultEntry {
                waiters: Vec::new(),
                issued: false,
            });
        entry.waiters.push(op_id);
        if entry.issued {
            false
        } else {
            entry.issued = true;
            true
        }
    };
    if need_send {
        let w = sim.state_mut();
        let ch = w.migrations[mig].req_ch;
        let tag = w.tag(NetPayload::DemandReq { mig, pfn });
        w.net.send(now, ch, 64, tag);
        touch_net(sim);
    }
}

/// Issue the swap read for a major fault.
fn issue_major_fault(
    sim: &mut Simulation<World>,
    vm_idx: usize,
    pfn: u32,
    slot: u32,
    op_id: usize,
) {
    let now = sim.now();
    let need_issue = {
        let w = sim.state_mut();
        let entry = w.vms[vm_idx]
            .pending_faults
            .entry(pfn)
            .or_insert_with(|| FaultEntry {
                waiters: Vec::new(),
                issued: false,
            });
        entry.waiters.push(op_id);
        if entry.issued {
            false
        } else {
            entry.issued = true;
            true
        }
    };
    if !need_issue {
        return;
    }
    let (issue, req) = {
        let World {
            cfg,
            hosts,
            vms,
            vmd,
            swap_reqs,
            next_req,
            ..
        } = sim.state_mut();
        vms[vm_idx].vm.memory_mut().begin_swap_in(pfn);
        let epoch = vms[vm_idx].mem_epoch;
        let dest_stat =
            matches!(vms[vm_idx].vm.state(), VmState::PostCopy { .. }) && vms[vm_idx].swap.is_vmd();
        let req = *next_req;
        *next_req += 1;
        swap_reqs.insert(
            req,
            SwapReqCtx::GuestFault {
                vm: vm_idx,
                pfn,
                epoch,
                dest_stat,
                issued: now,
            },
        );
        let readahead = if vms[vm_idx].swap.is_vmd() {
            1
        } else {
            cfg.guest_readahead_pages.max(1)
        };
        let issue = vms[vm_idx].swap.read(hosts, vmd, now, slot, req);
        // Linux swap readahead: speculative neighbour reads burn device
        // time; under random access they install nothing useful.
        for _ in 1..readahead {
            let _ = vms[vm_idx].swap.read(hosts, vmd, now, slot, u64::MAX);
        }
        (issue, req)
    };
    match issue {
        SwapIssue::CompleteAt(t) => {
            sim.schedule_fast(t, FastEvent::DeviceOp { req });
        }
        SwapIssue::Pending => flush_all_clients(sim),
    }
}

/// A page read for a guest fault completed.
pub fn complete_guest_fault(
    sim: &mut Simulation<World>,
    vm_idx: usize,
    pfn: u32,
    epoch: u32,
    dest_stat: bool,
) {
    let current_epoch = sim.state().vms[vm_idx].mem_epoch;
    if epoch != current_epoch {
        // The VM's memory image changed hands (resume happened) while this
        // I/O was in flight: apply it to the retained source image so the
        // push phase sees the page resident.
        let mut buf = std::mem::take(&mut sim.state_mut().evict_buf);
        buf.clear();
        let applied = {
            let w = sim.state_mut();
            let Some(m) = w.vms[vm_idx].migration else {
                return;
            };
            match w.migrations[m].source_mem.as_mut() {
                Some(mem) if mem.pagemap(pfn).is_swapped() => {
                    mem.fault_in(pfn, false, &mut buf);
                    Some(m)
                }
                _ => None,
            }
        };
        if let Some(m) = applied {
            charge_evictions(sim, EvictTarget::MigSource(m), &buf);
        }
        buf.clear();
        sim.state_mut().evict_buf = buf;
        credit_piggybacks(sim, vm_idx, pfn);
        return;
    }
    let mut buf = std::mem::take(&mut sim.state_mut().evict_buf);
    buf.clear();
    {
        let w = sim.state_mut();
        w.vms[vm_idx].vm.memory_mut().fault_in(pfn, false, &mut buf);
        if dest_stat {
            if let Some(m) = w.vms[vm_idx].migration {
                w.migrations[m].dst.pages_faulted_from_swap += 1;
            }
        }
    }
    charge_evictions(sim, EvictTarget::Vm(vm_idx), &buf);
    buf.clear();
    sim.state_mut().evict_buf = buf;
    credit_piggybacks(sim, vm_idx, pfn);
    wake_page(sim, vm_idx, pfn);
}

/// Credit migration swap-in batches that piggybacked on this page read.
pub(crate) fn credit_piggybacks(sim: &mut Simulation<World>, vm_idx: usize, pfn: u32) {
    let riders = sim.state_mut().swapin_piggyback.remove(&(vm_idx, pfn));
    if let Some(riders) = riders {
        for (mig, batch) in riders {
            migrate::credit_swapin(sim, mig, batch);
        }
    }
}

/// Wake every op parked on `pfn` (the page is resident now).
pub fn wake_page(sim: &mut Simulation<World>, vm_idx: usize, pfn: u32) {
    let now = sim.now();
    let waiters = {
        let w = sim.state_mut();
        match w.vms[vm_idx].pending_faults.remove(&pfn) {
            Some(e) => e.waiters,
            None => return,
        }
    };
    for id in waiters {
        let gen = match sim.state().op(id) {
            Some(op) => op.gen,
            None => continue,
        };
        sim.schedule_fast(
            now,
            FastEvent::Timer {
                kind: crate::fast::K_STEP_OP,
                a: id as u64,
                b: gen as u64,
            },
        );
    }
}

/// Touches done: burn guest CPU under vCPU contention.
fn begin_cpu(sim: &mut Simulation<World>, id: usize, gen: u32) {
    let (vm_idx, cpu) = {
        let w = sim.state();
        let op = w.op(id).expect("live op");
        (op.vm, op.cpu)
    };
    let dur = sim.state_mut().vms[vm_idx].vm.vcpus_mut().begin(cpu);
    sim.schedule_fast_in(
        dur,
        FastEvent::Timer {
            kind: crate::fast::K_FINISH_OP,
            a: id as u64,
            b: gen as u64,
        },
    );
}

/// CPU burst retired: respond (or, for guest-internal work, just finish).
pub(crate) fn finish_op(sim: &mut Simulation<World>, id: usize, gen: u32) {
    let now = sim.now();
    let info = {
        let w = sim.state();
        match w.op(id) {
            Some(op) if op.gen == gen => Some((op.vm, op.respond, op.counts, op.response_bytes)),
            _ => None,
        }
    };
    let Some((vm_idx, respond, counts, response_bytes)) = info else {
        return; // superseded by a suspension; vCPU state was reset there
    };
    sim.state_mut().vms[vm_idx].vm.vcpus_mut().finish();
    if respond {
        {
            let w = sim.state_mut();
            let slot = &mut w.vms[vm_idx];
            slot.server_active = slot.server_active.saturating_sub(1);
            if let Some(client) = slot.client.as_ref() {
                let ch = client.from_vm;
                let tag = w.tag(NetPayload::Response { vm: vm_idx, counts });
                w.net.send(now, ch, response_bytes, tag);
            }
            w.free_op(id);
        }
        touch_net(sim);
        try_dispatch(sim, vm_idx);
    } else {
        // Guest-internal work (OS background); the next burst was already
        // scheduled when this one fired.
        sim.state_mut().free_op(id);
    }
}

/// A response reached the client: tick the meter, send the next request
/// (inline when think time is zero — the paper's think-free closed loop
/// of Figs. 4–6 — or after the client's think delay when the workload
/// driver has set one).
pub fn on_response(sim: &mut Simulation<World>, vm_idx: usize, counts: bool) {
    let now = sim.now();
    if counts {
        sim.state_mut().vms[vm_idx].meter.record(now, 1);
    }
    let think_ns = sim.state().vms[vm_idx]
        .client
        .as_ref()
        .map_or(0, |c| c.think_ns);
    if think_ns == 0 {
        client_send_next(sim, vm_idx);
    } else {
        sim.schedule_fast_in(
            SimDuration::from_nanos(think_ns),
            FastEvent::Timer {
                kind: crate::fast::K_CLIENT_SEND,
                a: vm_idx as u64,
                b: 0,
            },
        );
    }
}

// --------------------- suspension / resumption ---------------------

/// Suspend the guest: abandon in-flight work (it replays at the
/// destination), clear the server, and silence the OS background chain.
pub fn suspend_guest(sim: &mut Simulation<World>, vm_idx: usize) {
    let w = sim.state_mut();
    let mut client_ops: Vec<usize> = Vec::new();
    let mut bg_ops: Vec<usize> = Vec::new();
    for (i, o) in w.ops.iter() {
        if o.vm == vm_idx {
            if o.respond {
                client_ops.push(i as usize);
            } else {
                bg_ops.push(i as usize);
            }
        }
    }
    for &i in &client_ops {
        w.bump_op_gen(i);
        w.ops[i as u32].idx = 0;
    }
    for &i in &bg_ops {
        w.free_op(i);
    }
    let slot = &mut w.vms[vm_idx];
    slot.server_queue.clear();
    slot.server_active = 0;
    slot.limbo = client_ops;
    for e in slot.pending_faults.values_mut() {
        e.waiters.clear();
    }
    slot.vm.vcpus_mut().reset();
    slot.os_bg_gen += 1;
}

/// Resume the guest at its (new) execution host: reconnect the client,
/// replay limbo requests, restart OS background activity.
pub fn resume_guest(sim: &mut Simulation<World>, vm_idx: usize) {
    let now = sim.now();
    attach_client_channels(sim, vm_idx);
    {
        let w = sim.state_mut();
        let slot = &mut w.vms[vm_idx];
        let ids = std::mem::take(&mut slot.limbo);
        slot.server_queue.extend(ids);
    }
    try_dispatch(sim, vm_idx);
    if sim.state().vms[vm_idx].os_bg.is_some() {
        start_os_bg(sim, vm_idx, now);
    }
}

// ------------------------- guest OS background -------------------------

/// Start the guest-OS background activity chain.
pub fn start_os_bg(sim: &mut Simulation<World>, vm_idx: usize, at: agile_sim_core::SimTime) {
    let bg_gen = sim.state().vms[vm_idx].os_bg_gen;
    sim.schedule_fast(at, os_bg_timer(vm_idx, bg_gen));
}

/// The OS-background chain's timer payload.
fn os_bg_timer(vm_idx: usize, bg_gen: u32) -> FastEvent {
    FastEvent::Timer {
        kind: crate::fast::K_OS_BG,
        a: vm_idx as u64,
        b: bg_gen as u64,
    }
}

pub(crate) fn os_bg_fire(sim: &mut Simulation<World>, vm_idx: usize, bg_gen: u32) {
    let burst = {
        let w = sim.state_mut();
        let slot = &mut w.vms[vm_idx];
        if slot.os_bg_gen != bg_gen {
            return; // superseded chain (suspension)
        }
        if !slot.vm.state().can_execute() {
            None
        } else {
            match slot.os_bg.clone() {
                Some(bg) => Some(bg.next_burst(&mut slot.os_rng)),
                None => return,
            }
        }
    };
    match burst {
        Some((op, gap)) => {
            // Schedule the next burst first (rate independent of this one).
            sim.schedule_fast_in(gap, os_bg_timer(vm_idx, bg_gen));
            let id = sim.state_mut().alloc_op(OpExec {
                gen: 0,
                vm: vm_idx,
                touches: op.touches,
                idx: 0,
                cpu: op.cpu,
                response_bytes: 0,
                counts: false,
                respond: false,
            });
            let gen = sim.state().op(id).expect("fresh op").gen;
            step_op(sim, id, gen);
        }
        None => {
            // Suspended: poll again shortly; resume restarts the chain
            // with a new generation anyway.
            sim.schedule_fast_in(SimDuration::from_millis(100), os_bg_timer(vm_idx, bg_gen));
        }
    }
}
