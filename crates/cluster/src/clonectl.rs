//! Elastic clone controller: rapid scale-out via copy-on-write namespace
//! forks and memory-streaming VM cloning.
//!
//! A *master* VM is prepared as a passive gold image: its workload is
//! detached and its reservation driven to zero, so the whole image ends
//! up swapped out to its portable VMD namespace (*sealing*). Forking that
//! namespace is then a metadata operation — the clone shares every stored
//! page read-only through per-page refcounts — and a new VM can start
//! serving on any host immediately, demand-paging from the shared image
//! post-copy style while a paced background pump hydrates the rest
//! ([`HydrationMode::Streamed`]). The alternative arm
//! ([`HydrationMode::Precopy`]) hydrates the full image before the clone
//! takes traffic, reproducing classic whole-image cloning for the A/B
//! comparison in `scenario::scaleout`.
//!
//! The controller is driven by a load [`Signal`]: crossing `high_water`
//! spawns clones (up to `max_clones`, batched `clones_per_tick` per
//! tick); falling under `low_water` drains and tears the newest clone
//! down — the purge walks the fork's refcounts so master pages shared
//! with surviving clones are never dropped.
//!
//! Cost model: unarmed worlds carry [`World::clone`]` = None` — zero
//! state, zero events, no fork is ever issued, and every legacy trace
//! replays byte-identically.

use std::rc::Rc;

use agile_memory::{PageFlags, PagemapEntry, SwapIssue, VmMemory, VmMemoryConfig};
use agile_sim_core::{FastEvent, SimDuration, SimTime, Simulation, ThroughputMeter, TimeSeries};
use agile_trace::TraceEvent;
use agile_vm::{HostId, Vm, VmId};
use agile_vmd::{ClientId, NamespaceId, VmdSwapDevice};
use agile_workload::Signal;

use crate::guest::{self, evict_with, EvictTarget};
use crate::world::{ClientBinding, FaultEntry, SwapDev, SwapReqCtx, VmSlot, WorkloadKind, World};
use crate::{fast, vmdio};

/// How a spawned clone's memory arrives from the shared gold image.
#[derive(Clone, Copy, Debug)]
pub enum HydrationMode {
    /// Post-copy style: the clone serves immediately, faulting pages on
    /// demand while a background pump streams the rest at a pace bounded
    /// by the fabric budget (`pages_per_tick` per `hydrate_period`).
    Streamed {
        /// Background-pump pages issued per hydration tick.
        pages_per_tick: u32,
    },
    /// Classic whole-image cloning: the full image is pulled before the
    /// clone takes traffic. The pump runs unpaced (a large per-tick
    /// batch) and the workload starts only at hydration completion.
    Precopy {
        /// Pages issued per hydration tick (set high: this arm is a
        /// full-speed bulk copy).
        pages_per_tick: u32,
    },
}

impl HydrationMode {
    fn pages_per_tick(self) -> u32 {
        match self {
            HydrationMode::Streamed { pages_per_tick } => pages_per_tick,
            HydrationMode::Precopy { pages_per_tick } => pages_per_tick,
        }
    }
}

/// Static configuration of the clone controller.
pub struct CloneCtlConfig {
    /// VM index of the gold-image master. Must be a passive template:
    /// no workload attached (sealing never completes otherwise).
    pub master: usize,
    /// Controller tick period (seal polling, watermark evaluation,
    /// ready detection, teardown finalization).
    pub period: SimDuration,
    /// Background hydration pump period (per clone).
    pub hydrate_period: SimDuration,
    /// The load signal watched for flash crowds and troughs.
    pub signal: Signal,
    /// Signal value at/above which the controller scales out.
    pub high_water: f64,
    /// Signal value at/below which the controller scales in.
    pub low_water: f64,
    /// Hard cap on clones ever spawned.
    pub max_clones: usize,
    /// Clones spawned per tick while above `high_water`.
    pub clones_per_tick: usize,
    /// Destination hosts, used round-robin.
    pub dest_hosts: Vec<usize>,
    /// Host the clones' external load-generator clients run on.
    pub client_host: usize,
    /// Each clone's cgroup reservation.
    pub clone_reservation_bytes: u64,
    /// Streamed (post-copy) vs precopy hydration — the A/B knob.
    pub hydration: HydrationMode,
    /// Zero-downtime in-place host upgrade: the first clone lands on the
    /// master's own host, and once every clone is spawned and one is
    /// serving, the master's namespace is purged (shared pages are
    /// retained by the fork refcounts until the last clone drops them).
    pub in_place_upgrade: bool,
    /// Think time of each clone's external client threads, ns (paces
    /// the closed loop; 0 = saturating).
    pub client_think_ns: u64,
    /// Builds the workload a fresh clone serves (clone index → model).
    pub make_workload: Rc<dyn Fn(usize) -> WorkloadKind>,
}

/// Cumulative counters published under `clone.*` when armed.
#[derive(Clone, Copy, Debug, Default)]
pub struct CloneCounters {
    /// Namespace forks issued.
    pub forks: u64,
    /// Clone VMs spawned.
    pub spawned: u64,
    /// Clones that served their first request.
    pub ready: u64,
    /// Clones fully torn down (namespace purged).
    pub torn_down: u64,
    /// Copy-on-write share breaks (first writes to shared pages).
    pub cow_breaks: u64,
    /// Pages streamed in by the background hydration pumps.
    pub hydrated_pages: u64,
}

/// Per-clone lifecycle state.
pub struct CloneState {
    /// VM slot index of the clone.
    pub vm: usize,
    /// The clone's forked namespace.
    pub ns: NamespaceId,
    /// When the clone was spawned (fork + VM construction).
    pub spawned_at: SimTime,
    /// Controller tick that first saw a completed request (time to first
    /// page served, at tick resolution).
    pub ready_at: Option<SimTime>,
    /// When background hydration finished (whole image resident or
    /// faulted in), if it ran to completion.
    pub hydrated_at: Option<SimTime>,
    /// Hydration cursor: next PFN the pump examines.
    pub cursor: u32,
    /// Hydration reads in flight.
    pub inflight: u32,
    /// The clone's client threads have been started.
    pub workload_started: bool,
    /// Scale-in: workload detached, waiting for quiescence.
    pub draining: bool,
    /// Fully torn down (namespace purged, slot inert).
    pub torn_down: bool,
}

/// Armed clone-controller state hanging off [`World::clone`].
pub struct CloneExec {
    /// Static configuration.
    pub cfg: CloneCtlConfig,
    /// The master's portable namespace.
    pub master_ns: NamespaceId,
    /// The gold image is fully swapped out and write-quiesced; forking
    /// is safe.
    pub sealed: bool,
    /// In-place upgrade completed: the master namespace was purged.
    pub master_purged: bool,
    /// Clones, in spawn order (never removed; `torn_down` marks dead).
    pub clones: Vec<CloneState>,
    /// Published counters.
    pub counters: CloneCounters,
    /// False after [`disarm_cloning`]: the next tick stops the chain.
    pub armed: bool,
    /// Round-robin cursor into `cfg.dest_hosts`.
    next_dest: usize,
}

impl CloneExec {
    /// Clones neither draining nor torn down.
    pub fn live_clones(&self) -> usize {
        self.clones
            .iter()
            .filter(|c| !c.draining && !c.torn_down)
            .count()
    }

    /// Whether VM `vm`'s namespace was purged (a torn-down clone, or the
    /// master after an in-place upgrade): its image is inert and its slot
    /// space was reset.
    pub(crate) fn retired(&self, vm: usize) -> bool {
        (self.master_purged && vm == self.cfg.master)
            || self.clones.iter().any(|c| c.torn_down && c.vm == vm)
    }
}

/// Arm the controller: start sealing the master (evict its whole image
/// to the fabric) and begin the periodic tick. The master must be a
/// passive template — workload detached — or sealing never quiesces.
pub fn arm_cloning(sim: &mut Simulation<World>, cfg: CloneCtlConfig) {
    assert!(
        sim.state().clone.is_none(),
        "clone controller already armed"
    );
    let master = cfg.master;
    assert!(
        sim.state().vms[master].workload.is_none(),
        "clone master must be a passive template VM (no workload)"
    );
    let master_ns = sim.state().vms[master]
        .swap
        .namespace()
        .expect("clone master must swap to a VMD namespace");
    // Seal step 1: push every template page out to the namespace. The
    // eviction write-backs are charged like any reservation change.
    crate::scenario::set_reservation(sim, master, 0);
    let period = cfg.period;
    sim.state_mut().clone = Some(CloneExec {
        cfg,
        master_ns,
        sealed: false,
        master_purged: false,
        clones: Vec::new(),
        counters: CloneCounters::default(),
        armed: true,
        next_dest: 0,
    });
    schedule_tick(sim, period);
}

/// Stop the controller: the pending tick becomes a no-op that does not
/// reschedule. State and counters remain readable for reporting.
pub fn disarm_cloning(sim: &mut Simulation<World>) {
    if let Some(ex) = sim.state_mut().clone.as_mut() {
        ex.armed = false;
    }
}

fn schedule_tick(sim: &mut Simulation<World>, period: SimDuration) {
    sim.schedule_fast_in(
        period,
        FastEvent::Timer {
            kind: fast::K_CLONE_TICK,
            a: 0,
            b: 0,
        },
    );
}

/// One controller tick: seal polling, ready detection, watermark
/// evaluation (spawn / drain), teardown finalization, master purge.
pub(crate) fn tick(sim: &mut Simulation<World>) {
    let Some(ex) = sim.state().clone.as_ref() else {
        return;
    };
    if !ex.armed {
        return;
    }
    let now = sim.now();
    let period = ex.cfg.period;

    if !sim.state().clone.as_ref().expect("armed").sealed {
        try_seal(sim);
    }
    if sim.state().clone.as_ref().expect("armed").sealed {
        detect_ready(sim, now);
        let (value, high, low, can_spawn, live, max, batch) = {
            let ex = sim.state().clone.as_ref().expect("armed");
            (
                ex.cfg.signal.value_at(now),
                ex.cfg.high_water,
                ex.cfg.low_water,
                !ex.master_purged && ex.clones.len() < ex.cfg.max_clones,
                ex.live_clones(),
                ex.cfg.max_clones,
                ex.cfg.clones_per_tick,
            )
        };
        if value >= high && can_spawn {
            let spawned = sim.state().clone.as_ref().expect("armed").clones.len();
            let n = batch.min(max - spawned);
            for _ in 0..n {
                spawn_clone(sim);
            }
        } else if value <= low && live > 0 {
            begin_drain_newest(sim);
        }
        finalize_teardowns(sim);
        maybe_purge_master(sim);
    }
    schedule_tick(sim, period);
}

/// Seal poll: the gold image is forkable once every page is swapped out
/// *and* the master-host client has no unacknowledged write-backs — an
/// in-flight `WriteReq` racing the fork broadcast would store a page
/// with a stale refcount and drift the server mirror.
fn try_seal(sim: &mut Simulation<World>) {
    let w = sim.state_mut();
    let ex = w.clone.as_ref().expect("armed");
    let master = ex.cfg.master;
    let mem = w.vms[master].vm.memory();
    if mem.resident_pages() != 0 {
        return;
    }
    let client_idx = w.hosts[w.vms[master].host]
        .vmd_client
        .expect("master host has no VMD client");
    let c = &w.vmd.clients[client_idx].client;
    let quiesced = c.unacked_writes() == 0 && !c.has_outbox();
    if quiesced {
        w.clone.as_mut().expect("armed").sealed = true;
    }
}

/// Mark clones that served their first completed request since the last
/// tick (time-to-first-page-served, at tick resolution).
fn detect_ready(sim: &mut Simulation<World>, now: SimTime) {
    let n = sim.state().clone.as_ref().expect("armed").clones.len();
    for idx in 0..n {
        let (vm, unready) = {
            let c = &sim.state().clone.as_ref().expect("armed").clones[idx];
            (c.vm, c.ready_at.is_none() && !c.torn_down)
        };
        if unready && sim.state().vms[vm].meter.total() > 0 {
            let w = sim.state_mut();
            let ex = w.clone.as_mut().expect("armed");
            ex.clones[idx].ready_at = Some(now);
            ex.counters.ready += 1;
            w.trace.record(
                now,
                TraceEvent::CloneReady {
                    clone: idx as u32,
                    vm: vm as u32,
                },
            );
        }
    }
}

/// Fork the gold namespace and spawn one clone VM on the next
/// destination host.
fn spawn_clone(sim: &mut Simulation<World>) {
    let now = sim.now();
    let (
        master,
        master_ns,
        dest,
        clone_res,
        client_host,
        clone_idx,
        start_now,
        think_ns,
        make_workload,
    ) = {
        let w = sim.state_mut();
        let ex = w.clone.as_mut().expect("armed");
        let clone_idx = ex.clones.len();
        let dest = if ex.cfg.in_place_upgrade && clone_idx == 0 {
            w.vms[ex.cfg.master].host
        } else {
            let d = ex.cfg.dest_hosts[ex.next_dest % ex.cfg.dest_hosts.len()];
            ex.next_dest += 1;
            d
        };
        (
            ex.cfg.master,
            ex.master_ns,
            dest,
            ex.cfg.clone_reservation_bytes,
            ex.cfg.client_host,
            clone_idx,
            matches!(ex.cfg.hydration, HydrationMode::Streamed { .. }),
            ex.cfg.client_think_ns,
            Rc::clone(&ex.cfg.make_workload),
        )
    };
    let (vm_idx, client_idx, clone_ns) = {
        let w = sim.state_mut();
        let client_idx = w.hosts[dest]
            .vmd_client
            .expect("clone destination host has no VMD client");
        // Metadata fork: the clone shares every stored master page
        // read-only; the refcount bump travels to the servers as an
        // `NsFork` broadcast (flushed below).
        let clone_ns = {
            let (c, dir) = w.vmd.client_and_dir(client_idx);
            c.fork_namespace(dir, master_ns)
        };
        w.trace.record(
            now,
            TraceEvent::NsFork {
                master: master_ns.0,
                clone: clone_ns.0,
            },
        );
        // Private overlay slot space: `install_swapped` marks the shared
        // master slots as externally owned, so overlay allocations
        // (CoW-broken and newly-evicted pages) never collide with them.
        w.vmd.reset_slots(clone_ns);
        let page_size = w.cfg.page_size;
        let (pages, vm_cfg, layout) = {
            let m = &w.vms[master];
            (m.vm.memory().pages(), *m.vm.config(), m.vm.layout().clone())
        };
        let mut image = VmMemory::new(VmMemoryConfig {
            pages,
            page_size,
            limit_pages: (clone_res / page_size) as u32,
        });
        let mut swapped: Vec<u32> = Vec::new();
        w.vms[master]
            .vm
            .memory()
            .for_each_swapped(|pfn| swapped.push(pfn));
        let overlay = &mut w.vmd.slots[clone_ns.0 as usize];
        for pfn in swapped {
            let mmem = w.vms[master].vm.memory();
            let PagemapEntry::Swapped { slot } = mmem.pagemap(pfn) else {
                unreachable!("for_each_swapped yielded a non-swapped page");
            };
            image.install_swapped(pfn, slot, mmem.version(pfn), overlay);
        }
        let vm_idx = w.vms.len();
        let mut cfg2 = vm_cfg;
        cfg2.reservation_bytes = clone_res;
        let mut vm = Vm::new(VmId(vm_idx as u32), HostId(dest as u32), cfg2);
        *vm.layout_mut() = layout;
        let _ = vm.replace_memory(image);
        let swap = SwapDev::Vmd(VmdSwapDevice::new(
            ClientId(client_idx as u32),
            clone_ns,
            page_size,
        ));
        w.hosts[dest].mem.set_reservation(vm_idx as u64, clone_res);
        let os_rng = w.seeds.stream(&format!("osbg.vm{vm_idx}"));
        w.vms.push(VmSlot {
            vm,
            host: dest,
            swap,
            workload: None,
            os_bg: None,
            server_queue: std::collections::VecDeque::new(),
            server_active: 0,
            pending_faults: agile_sim_core::IdHashMap::default(),
            limbo: Vec::new(),
            client: None,
            meter: ThroughputMeter::new(1),
            reservation_series: TimeSeries::new(),
            migration: None,
            wss: None,
            os_rng,
            os_bg_gen: 0,
            mem_epoch: 0,
        });
        w.trace.record(
            now,
            TraceEvent::CloneSpawn {
                clone: clone_idx as u32,
                vm: vm_idx as u32,
                host: dest as u32,
            },
        );
        let ex = w.clone.as_mut().expect("armed");
        ex.counters.forks += 1;
        ex.counters.spawned += 1;
        ex.clones.push(CloneState {
            vm: vm_idx,
            ns: clone_ns,
            spawned_at: now,
            ready_at: None,
            hydrated_at: None,
            cursor: 0,
            inflight: 0,
            workload_started: start_now,
            draining: false,
            torn_down: false,
        });
        (vm_idx, client_idx, clone_ns)
    };
    let _ = clone_ns;
    // Push the NsFork broadcast out before any clone I/O can race it.
    vmdio::flush_client(sim, client_idx);
    attach_clone_workload(sim, vm_idx, client_host, make_workload(clone_idx), think_ns);
    if start_now {
        // Streamed arm: serve immediately, demand-paging from the fork.
        guest::start_client(sim, vm_idx, now);
    }
    let hydrate_period = sim
        .state()
        .clone
        .as_ref()
        .expect("armed")
        .cfg
        .hydrate_period;
    sim.schedule_fast_in(
        hydrate_period,
        FastEvent::Timer {
            kind: fast::K_CLONE_HYDRATE,
            a: clone_idx as u64,
            b: 0,
        },
    );
}

/// Attach a workload model and its external client to a spawned clone
/// (mirrors `ClusterBuilder::attach_workload`, but at runtime).
fn attach_clone_workload(
    sim: &mut Simulation<World>,
    vm_idx: usize,
    client_host: usize,
    workload: WorkloadKind,
    think_ns: u64,
) {
    let w = sim.state_mut();
    let threads = workload.client_threads();
    let rng = w.seeds.stream(&format!("client.vm{vm_idx}"));
    let client_node = w.hosts[client_host].node;
    let vm_node = w.hosts[w.vms[vm_idx].host].node;
    let to_vm = w.net.open_channel(client_node, vm_node);
    let from_vm = w.net.open_channel(vm_node, client_node);
    let slot = &mut w.vms[vm_idx];
    slot.workload = Some(workload);
    slot.client = Some(ClientBinding {
        host: client_host,
        threads,
        to_vm,
        from_vm,
        rng,
        think_ns,
    });
}

/// Scale in: detach the newest live clone's workload. Its in-flight
/// requests drain naturally (the closed loop stops once the workload is
/// `None`); the teardown finalizer purges it at quiescence.
fn begin_drain_newest(sim: &mut Simulation<World>) {
    let victim = {
        let ex = sim.state().clone.as_ref().expect("armed");
        ex.clones.iter().rposition(|c| !c.draining && !c.torn_down)
    };
    let Some(idx) = victim else { return };
    let w = sim.state_mut();
    let vm = w.clone.as_ref().expect("armed").clones[idx].vm;
    w.vms[vm].workload = None;
    w.clone.as_mut().expect("armed").clones[idx].draining = true;
}

/// Purge draining clones that have fully quiesced: no queued or active
/// requests, no pending faults, no hydration reads in flight. The purge
/// walks the fork refcounts — master pages shared with surviving clones
/// are never dropped (`DropRef` only frees at refcount zero after the
/// owner freed).
fn finalize_teardowns(sim: &mut Simulation<World>) {
    let now = sim.now();
    let n = sim.state().clone.as_ref().expect("armed").clones.len();
    let mut flush: Vec<usize> = Vec::new();
    for idx in 0..n {
        let quiesced = {
            let w = sim.state();
            let ex = w.clone.as_ref().expect("armed");
            let c = &ex.clones[idx];
            if !c.draining || c.torn_down || c.inflight > 0 {
                continue;
            }
            let slot = &w.vms[c.vm];
            slot.server_queue.is_empty()
                && slot.server_active == 0
                && slot.pending_faults.is_empty()
                && slot.limbo.is_empty()
        };
        if !quiesced {
            continue;
        }
        let w = sim.state_mut();
        let (vm, ns) = {
            let c = &w.clone.as_ref().expect("armed").clones[idx];
            (c.vm, c.ns)
        };
        let host = w.vms[vm].host;
        let client_idx = w.hosts[host]
            .vmd_client
            .expect("clone host has no VMD client");
        {
            let (c, dir) = w.vmd.client_and_dir(client_idx);
            c.purge_namespace(dir, ns);
        }
        w.vmd.reset_slots(ns);
        // The slot stays in `World::vms` (index stability) but is inert:
        // no workload, no client events, namespace gone. The host ledger
        // releases its reservation without write-back — a dying clone's
        // residual pages need no eviction I/O.
        w.hosts[host].mem.set_reservation(vm as u64, 0);
        w.trace.record(
            now,
            TraceEvent::CloneTeardown {
                clone: idx as u32,
                vm: vm as u32,
            },
        );
        let ex = w.clone.as_mut().expect("armed");
        ex.clones[idx].torn_down = true;
        ex.counters.torn_down += 1;
        flush.push(client_idx);
    }
    flush.sort_unstable();
    flush.dedup();
    for client_idx in flush {
        vmdio::flush_client(sim, client_idx);
    }
}

/// In-place host upgrade: once every clone is spawned and at least one
/// serves traffic, retire the master — purge its namespace. Pages still
/// shared with clones are retained by the fork refcounts (owner-freed)
/// and die only when the last sharing clone drops them.
fn maybe_purge_master(sim: &mut Simulation<World>) {
    let now = sim.now();
    let (do_purge, master, master_ns) = {
        let ex = sim.state().clone.as_ref().expect("armed");
        (
            ex.cfg.in_place_upgrade
                && !ex.master_purged
                && ex.clones.len() >= ex.cfg.max_clones
                && ex.clones.iter().any(|c| c.ready_at.is_some()),
            ex.cfg.master,
            ex.master_ns,
        )
    };
    if !do_purge {
        return;
    }
    let client_idx = {
        let w = sim.state_mut();
        let host = w.vms[master].host;
        let client_idx = w.hosts[host]
            .vmd_client
            .expect("master host has no VMD client");
        {
            let (c, dir) = w.vmd.client_and_dir(client_idx);
            c.purge_namespace(dir, master_ns);
        }
        w.vmd.reset_slots(master_ns);
        w.clone.as_mut().expect("armed").master_purged = true;
        client_idx
    };
    let _ = now;
    vmdio::flush_client(sim, client_idx);
}

/// One background hydration pump step for clone `clone_idx`: issue up to
/// the arm's per-tick page budget of reads against the clone's device
/// (which resolves shared slots through the fork to the master
/// namespace), then reschedule until the image is fully resident.
pub(crate) fn hydrate_tick(sim: &mut Simulation<World>, clone_idx: usize) {
    let now = sim.now();
    let Some(ex) = sim.state().clone.as_ref() else {
        return;
    };
    let Some(c) = ex.clones.get(clone_idx) else {
        return;
    };
    if c.draining || c.torn_down || c.hydrated_at.is_some() {
        return;
    }
    let vm_idx = c.vm;
    let budget = ex.cfg.hydration.pages_per_tick().max(1);
    let period = ex.cfg.hydrate_period;
    let mut cursor = c.cursor;
    let pages = sim.state().vms[vm_idx].vm.memory().pages();

    let mut scheduled: Vec<(SimTime, u64)> = Vec::new();
    let mut pending = false;
    {
        let World {
            vms,
            vmd,
            swap_reqs,
            next_req,
            clone,
            ..
        } = sim.state_mut();
        let slot = &mut vms[vm_idx];
        let mut issued = 0u32;
        while cursor < pages && issued < budget {
            let pfn = cursor;
            cursor += 1;
            let flags = slot.vm.memory().page_flags(pfn);
            if flags.present() || flags.any(PageFlags::IO_INFLIGHT) || !flags.swapped() {
                continue; // resident, already being read, or never populated
            }
            let PagemapEntry::Swapped { slot: swap_slot } = slot.vm.memory().pagemap(pfn) else {
                unreachable!("swapped flag without a pagemap slot");
            };
            slot.vm.memory_mut().begin_swap_in(pfn);
            // A guest fault racing this read parks on the entry and is
            // woken at completion — same piggyback as migration swap-in.
            slot.pending_faults
                .entry(pfn)
                .or_insert_with(|| FaultEntry {
                    waiters: Vec::new(),
                    issued: true,
                });
            let req = *next_req;
            *next_req += 1;
            swap_reqs.insert(req, SwapReqCtx::CloneHydrate { vm: vm_idx, pfn });
            let SwapDev::Vmd(v) = &mut slot.swap else {
                unreachable!("clones always swap to VMD");
            };
            let (client, dir) = vmd.client_and_dir(v.client_id().0 as usize);
            match v.read(client, dir, now, swap_slot, req) {
                SwapIssue::CompleteAt(t) => scheduled.push((t, req)),
                SwapIssue::Pending => pending = true,
            }
            issued += 1;
            clone.as_mut().expect("armed").clones[clone_idx].inflight += 1;
        }
    }
    sim.state_mut().clone.as_mut().expect("armed").clones[clone_idx].cursor = cursor;
    for (t, req) in scheduled {
        sim.schedule_fast(t, FastEvent::DeviceOp { req });
    }
    if pending {
        guest::flush_all_clients(sim);
    }
    let done = {
        let ex = sim.state().clone.as_ref().expect("armed");
        cursor >= pages && ex.clones[clone_idx].inflight == 0
    };
    if done {
        finish_hydration(sim, clone_idx);
    } else {
        sim.schedule_fast_in(
            period,
            FastEvent::Timer {
                kind: fast::K_CLONE_HYDRATE,
                a: clone_idx as u64,
                b: 0,
            },
        );
    }
}

/// One hydration read completed: install the page, wake any parked
/// guest ops, and — on the last page — finish hydration.
pub(crate) fn complete_hydrate(sim: &mut Simulation<World>, vm_idx: usize, pfn: u32) {
    evict_with(sim, EvictTarget::Vm(vm_idx), |e| {
        e.mem.fault_in(pfn, false, e.slots, e.evs)
    });
    guest::wake_page(sim, vm_idx, pfn);
    let pages = sim.state().vms[vm_idx].vm.memory().pages();
    let finish = {
        let Some(ex) = sim.state_mut().clone.as_mut() else {
            return;
        };
        let Some(idx) = ex.clones.iter().position(|c| c.vm == vm_idx) else {
            return;
        };
        ex.counters.hydrated_pages += 1;
        let c = &mut ex.clones[idx];
        c.inflight -= 1;
        let done = c.cursor >= pages
            && c.inflight == 0
            && c.hydrated_at.is_none()
            && !c.draining
            && !c.torn_down;
        done.then_some(idx)
    };
    if let Some(idx) = finish {
        finish_hydration(sim, idx);
    }
}

/// Hydration ran to completion: stamp the time and, on the precopy arm,
/// start the clone's workload (it only takes traffic fully hydrated).
fn finish_hydration(sim: &mut Simulation<World>, clone_idx: usize) {
    let now = sim.now();
    let start_wl = {
        let ex = sim.state_mut().clone.as_mut().expect("armed");
        let precopy = matches!(ex.cfg.hydration, HydrationMode::Precopy { .. });
        let c = &mut ex.clones[clone_idx];
        if c.hydrated_at.is_some() {
            return;
        }
        c.hydrated_at = Some(now);
        let start = precopy && !c.workload_started && !c.draining && !c.torn_down;
        if start {
            c.workload_started = true;
        }
        start.then_some(c.vm)
    };
    if let Some(vm_idx) = start_wl {
        guest::start_client(sim, vm_idx, now);
    }
}
