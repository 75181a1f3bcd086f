//! Cluster construction: hosts, VMD deployment, VMs, workloads, preload.
//!
//! [`ClusterBuilder`] assembles a [`World`] in the shape of the paper's
//! testbed and hands back a ready [`Simulation`]; scenario code then
//! schedules clients, WSS tracking, and migrations on top.

use agile_memory::{HostMemory, SlotAllocator, SsdSwap};
use agile_sim_core::{
    Bandwidth, BlockDevice, RackId, SimTime, Simulation, ThroughputMeter, TimeSeries,
};
use agile_vm::{HostId, Vm, VmConfig, VmId};
use agile_vmd::{ClientId, ServerId, VmdClient, VmdServer, VmdSwapDevice};
use agile_workload::{Dataset, KeyDist, OsBackground, YcsbParams, YcsbRedis};

use crate::config::ClusterConfig;
use crate::world::{
    ClientBinding, Host, SwapDev, VmSlot, VmdClientEntry, VmdServerEntry, WorkloadKind, World,
};
use crate::{guest, vmdio};

/// Which swap device a VM gets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwapKind {
    /// The host's shared SSD swap partition (baseline setups).
    HostSsd,
    /// A private, portable VMD namespace (Agile setups).
    PerVmVmd,
}

/// Assembles a simulated cluster.
pub struct ClusterBuilder {
    world: World,
}

impl ClusterBuilder {
    /// Start building with the given configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        ClusterBuilder {
            world: World::new(cfg),
        }
    }

    /// Read access to the world under construction.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable access to the world under construction (e.g. to carve
    /// guest-layout regions for a workload).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Declare a ToR rack with the given trunk capacities in the fluid
    /// network. Hosts join via [`ClusterBuilder::assign_rack`]; hosts
    /// never assigned stay spine-attached.
    pub fn add_net_rack(&mut self, up: Bandwidth, down: Bandwidth) -> RackId {
        self.world.net.add_rack(up, down)
    }

    /// Put a host's NIC behind a rack's trunk: all its off-rack traffic
    /// then shares the trunk as an extra water-filling constraint.
    pub fn assign_rack(&mut self, host: usize, rack: RackId) {
        let node = self.world.hosts[host].node;
        self.world.net.set_node_rack(node, rack);
    }

    /// Add a host. `with_ssd` attaches the shared swap SSD partition.
    pub fn add_host(
        &mut self,
        name: &str,
        total_mem: u64,
        os_overhead: u64,
        with_ssd: bool,
    ) -> usize {
        let node = self.world.net.add_symmetric_node(self.world.cfg.link_bw);
        let ssd = with_ssd.then(|| BlockDevice::new(self.world.cfg.ssd_spec));
        self.world.hosts.push(Host {
            name: name.to_string(),
            node,
            mem: HostMemory::new(total_mem, os_overhead),
            ssd,
            swap_slots: with_ssd.then(SlotAllocator::unbounded),
            vmd_client: None,
        });
        self.world.hosts.len() - 1
    }

    /// Contribute `mem_bytes` of a host's spare memory (plus optional disk
    /// spill) to the VMD pool. The server is built with the config's tier
    /// stack ([`crate::config::ClusterConfig::vmd_tiers`]); fractional and
    /// contribution-relative tier capacities resolve against these two
    /// byte counts.
    pub fn add_vmd_server(&mut self, host: usize, mem_bytes: u64, disk_bytes: u64) -> usize {
        let page_size = self.world.cfg.page_size;
        let id = ServerId(self.world.vmd.servers.len() as u32);
        let stack = self.world.cfg.vmd_tiers;
        let server = VmdServer::with_tiers(
            id,
            stack.resolve(mem_bytes / page_size, disk_bytes / page_size),
            stack.heat,
        );
        let free = server.free_pages();
        let spill = server.spill_free_pages();
        self.world.vmd.servers.push(VmdServerEntry {
            server,
            host,
            alive: true,
        });
        // Existing clients learn about the new server.
        for entry in &mut self.world.vmd.clients {
            entry.client.add_server(id, free, spill);
        }
        self.world.vmd.servers.len() - 1
    }

    /// Ensure `host` runs a VMD client module; returns its index.
    pub fn ensure_vmd_client(&mut self, host: usize) -> usize {
        if let Some(c) = self.world.hosts[host].vmd_client {
            return c;
        }
        let id = ClientId(self.world.vmd.clients.len() as u32);
        let mut c = VmdClient::new(id, std::iter::empty());
        for e in &self.world.vmd.servers {
            c.add_server(
                e.server.id(),
                e.server.free_pages(),
                e.server.spill_free_pages(),
            );
        }
        c.set_replication(self.world.cfg.vmd_replication);
        self.world
            .vmd
            .clients
            .push(VmdClientEntry { client: c, host });
        let idx = self.world.vmd.clients.len() - 1;
        self.world.hosts[host].vmd_client = Some(idx);
        idx
    }

    /// Create a VM on `host` with the given swap binding.
    pub fn add_vm(&mut self, host: usize, config: VmConfig, swap: SwapKind) -> usize {
        let vm_idx = self.world.vms.len();
        let vm = Vm::new(VmId(vm_idx as u32), HostId(host as u32), config);
        let page_size = self.world.cfg.page_size;
        let swap = match swap {
            SwapKind::HostSsd => {
                assert!(self.world.hosts[host].ssd.is_some(), "host has no swap SSD");
                SwapDev::Ssd(SsdSwap::new(host, page_size))
            }
            SwapKind::PerVmVmd => {
                let client_idx = self.ensure_vmd_client(host);
                let ns = self.world.vmd.directory.create_namespace();
                self.world.vmd.reset_slots(ns);
                SwapDev::Vmd(VmdSwapDevice::new(
                    ClientId(client_idx as u32),
                    ns,
                    page_size,
                ))
            }
        };
        self.world.hosts[host]
            .mem
            .set_reservation(vm_idx as u64, config.reservation_bytes);
        let os_rng = self.world.seeds.stream(&format!("osbg.vm{vm_idx}"));
        self.world.vms.push(VmSlot {
            vm,
            host,
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
        vm_idx
    }

    /// Attach a workload model and its external client (on `client_host`).
    pub fn attach_workload(&mut self, vm_idx: usize, client_host: usize, workload: WorkloadKind) {
        let threads = workload.client_threads();
        let rng = self.world.seeds.stream(&format!("client.vm{vm_idx}"));
        let client_node = self.world.hosts[client_host].node;
        let vm_node = self.world.hosts[self.world.vms[vm_idx].host].node;
        let to_vm = self.world.net.open_channel(client_node, vm_node);
        let from_vm = self.world.net.open_channel(vm_node, client_node);
        let slot = &mut self.world.vms[vm_idx];
        slot.workload = Some(workload);
        slot.client = Some(ClientBinding {
            host: client_host,
            threads,
            to_vm,
            from_vm,
            rng,
            think_ns: 0,
        });
    }

    /// Enable guest-OS background activity over the VM's OS region.
    pub fn enable_os_background(&mut self, vm_idx: usize) {
        let region = self.world.vms[vm_idx].vm.layout().os_region();
        self.world.vms[vm_idx].os_bg = Some(OsBackground::new(region));
    }

    /// Carve the paper's Redis layout into `vm_idx`'s guest memory and
    /// return a YCSB model over it: a hash-table index of ~2 % of the
    /// dataset (at least 4 pages), then the values as 1 KiB records, read
    /// with uniform-prefix keys. The caller attaches the model.
    pub fn alloc_redis(
        &mut self,
        vm_idx: usize,
        dataset_bytes: u64,
        params: YcsbParams,
    ) -> YcsbRedis {
        let page = self.world.cfg.page_size;
        let layout = self.world.vms[vm_idx].vm.layout_mut();
        let index = layout.alloc_region("redis-index", ((dataset_bytes / 50) / page).max(4) as u32);
        let data = layout.alloc_region("redis-data", (dataset_bytes / page) as u32);
        let dataset = Dataset::new(data, dataset_bytes / 1024, 1024, page);
        YcsbRedis::new(dataset, index, KeyDist::UniformPrefix, params)
    }

    /// Populate a range of guest pages (writes, version 1) without charging
    /// device time — the paper's experiments start *after* datasets are
    /// loaded, with cold pages already swapped out. Evicted pages are
    /// logically written to the VM's swap backend (synchronously for VMD,
    /// so the store and directory are consistent from t = 0).
    pub fn preload_pages(&mut self, vm_idx: usize, start: u32, len: u32) {
        let mut writes: Vec<(u32, u32)> = Vec::new();
        {
            let World {
                hosts, vms, vmd, ..
            } = &mut self.world;
            let slot = &mut vms[vm_idx];
            let slots = slot.swap.slots(hosts, vmd);
            let mem = slot.vm.memory_mut();
            let mut evs = Vec::new();
            for pfn in start..start + len {
                match mem.touch(pfn, true, slots) {
                    agile_memory::Touch::MinorFault => mem.fault_in(pfn, true, slots, &mut evs),
                    agile_memory::Touch::Hit => {}
                    other => panic!("unexpected {other:?} during preload"),
                }
                for ev in evs.drain(..) {
                    if ev.needs_write {
                        writes.push((ev.pfn, ev.slot));
                    }
                }
            }
        }
        if !writes.is_empty() && self.world.vms[vm_idx].swap.is_vmd() {
            let World {
                hosts,
                vms,
                vmd,
                next_req,
                ..
            } = &mut self.world;
            for (pfn, s) in writes {
                let version = vms[vm_idx].vm.memory().version(pfn);
                let req = *next_req;
                *next_req += 1;
                let _ = vms[vm_idx]
                    .swap
                    .write(hosts, vmd, SimTime::ZERO, s, version, req);
            }
            drain_vmd_sync(&mut self.world);
        }
        // SSD swap needs no content tracking; the slots are already
        // recorded in the VM's page table.
    }

    /// Populate several VMs' layouts *concurrently*: their page streams
    /// interleave in `stripe_pages` strides, the way simultaneously-loading
    /// datasets interleave their eviction streams on a shared swap
    /// partition (which is what randomizes the baselines' swap layout in
    /// the paper's testbed).
    pub fn preload_layouts_interleaved(&mut self, vm_idxs: &[usize], stripe_pages: u32) {
        let stripe = stripe_pages.max(1);
        type PreloadCursor = (usize, Vec<(u32, u32)>, usize, u32);
        let mut work: Vec<PreloadCursor> = vm_idxs
            .iter()
            .map(|&v| {
                let layout = self.world.vms[v].vm.layout();
                let mut regions = vec![(layout.os_region().start, layout.os_region().len)];
                regions.extend(layout.regions().map(|(_, r)| (r.start, r.len)));
                (v, regions, 0usize, 0u32)
            })
            .collect();
        loop {
            let mut progressed = false;
            for (v, regions, region_idx, offset) in &mut work {
                if *region_idx >= regions.len() {
                    continue;
                }
                let (start, len) = regions[*region_idx];
                let n = stripe.min(len - *offset);
                self.preload_pages(*v, start + *offset, n);
                *offset += n;
                if *offset >= len {
                    *region_idx += 1;
                    *offset = 0;
                }
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    /// Populate the guest OS region and every named layout region.
    pub fn preload_layout(&mut self, vm_idx: usize) {
        let regions: Vec<(u32, u32)> = {
            let layout = self.world.vms[vm_idx].vm.layout();
            let mut r = vec![(layout.os_region().start, layout.os_region().len)];
            r.extend(layout.regions().map(|(_, pr)| (pr.start, pr.len)));
            r
        };
        for (start, len) in regions {
            self.preload_pages(vm_idx, start, len);
        }
    }

    /// Finish: wire VMD channels, start availability gossip, and return
    /// the simulation.
    pub fn build(self) -> Simulation<World> {
        let mut world = self.world;
        // Channels between every (client, server) pair.
        let pairs: Vec<(usize, usize, usize, usize)> = world
            .vmd
            .clients
            .iter()
            .enumerate()
            .flat_map(|(c, ce)| {
                world
                    .vmd
                    .servers
                    .iter()
                    .enumerate()
                    .map(move |(s, se)| (c, ce.host, s, se.host))
            })
            .collect();
        for (c, ch, s, sh) in pairs {
            let cn = world.hosts[ch].node;
            let sn = world.hosts[sh].node;
            let to_server = world.net.open_channel(cn, sn);
            let to_client = world.net.open_channel(sn, cn);
            debug_assert_eq!(world.vmd.channels.len(), c * world.vmd.servers.len() + s);
            world.vmd.channels.push((to_server, to_client));
        }
        let has_vmd = !world.vmd.servers.is_empty() && !world.vmd.clients.is_empty();
        let mut sim = Simulation::new(world);
        sim.set_fast_handler(crate::fast::dispatch);
        if has_vmd {
            sim.schedule_at(SimTime::from_millis(997), vmdio::gossip_availability);
        }
        sim
    }
}

/// Start every attached client's threads at `at`, plus OS background where
/// enabled.
pub fn start_all_workloads(sim: &mut Simulation<World>, at: SimTime) {
    for vm_idx in 0..sim.state().vms.len() {
        if sim.state().vms[vm_idx].client.is_some() {
            guest::start_client(sim, vm_idx, at);
        }
        if sim.state().vms[vm_idx].os_bg.is_some() {
            guest::start_os_bg(sim, vm_idx, at);
        }
    }
}

/// Pump VMD client↔server messages synchronously (zero simulated time);
/// used only during construction-time preloading.
fn drain_vmd_sync(world: &mut World) {
    loop {
        let mut progressed = false;
        for ci in 0..world.vmd.clients.len() {
            let msgs: Vec<_> = world.vmd.clients[ci].client.drain_outbox().collect();
            for (srv, msg) in msgs {
                progressed = true;
                let reply = world.vmd.servers[srv.0 as usize].server.handle(msg);
                if let Some(r) = reply.msg {
                    let _ = world.vmd.clients[ci].client.on_server_msg(srv, r);
                }
            }
        }
        if !progressed {
            break;
        }
    }
}
