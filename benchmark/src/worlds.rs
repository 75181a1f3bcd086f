//! The four benchmark worlds.
//!
//! Each workload ports one library scenario's set-up and settle predicate
//! (not its report) onto the cluster's public API. Calling
//! `scenario::*::run()` instead would hide the `Simulation`, so neither
//! set-up time nor per-layer time could be measured from outside, and a
//! rewrite of the scenario drivers would silently move the workloads.
//! Ported worlds execute exactly the library scenario's events: the smoke
//! test in `main.rs` pins that at the smoke sizes.

use std::rc::Rc;

use agile_cluster::build::{start_all_workloads, ClusterBuilder, SwapKind};
use agile_cluster::clonectl::{self, CloneCtlConfig, HydrationMode};
use agile_cluster::config::ClusterConfig;
use agile_cluster::migrate;
use agile_cluster::predict::PredictConfig;
use agile_cluster::scenario::datacenter::{DatacenterConfig, DatacenterCoordinator};
use agile_cluster::scenario::{schedule_step_signals, set_reservation};
use agile_cluster::sched::{self, ManagedHost, PlacementPolicy, SchedConfig};
use agile_cluster::shard::{BoundaryMsg, Coordinator, NullCoordinator, ShardedRun};
use agile_cluster::wlctl;
use agile_cluster::{WorkloadKind, World};
use agile_migration::{SourceConfig, Technique};
use agile_sim_core::{Bandwidth, SeedSequence, SimDuration, SimTime, Simulation, GIB, MIB};
use agile_vm::VmConfig;
use agile_workload::{
    Binding, Dataset, KeyDist, Knob, Signal, WorkloadDriver, YcsbParams, YcsbRedis,
};
use agile_wss::WatermarkTrigger;

pub type Sim = Simulation<World>;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 7/8 busy point: an over-committed Redis/YCSB VM migrated by
    /// pre-copy, post-copy and Agile (one shard each).
    Fig7Busy,
    /// Racks of idle VMs under per-rack watermark schedulers, one shard
    /// per rack, coupled through the datacenter coordinator.
    Datacenter,
    /// Flash-crowd VM cloning off a CoW namespace fork: streamed and
    /// pre-copy arms as two shards.
    CloneCrowd,
    /// Eight diurnal YCSB guests under the watermark scheduler: naive and
    /// cycle-predicted arms as two shards.
    DiurnalYcsb,
}

impl Workload {
    /// Every workload, in the order runs interleave.
    pub const ALL: [Workload; 4] = [
        Workload::Fig7Busy,
        Workload::Datacenter,
        Workload::CloneCrowd,
        Workload::DiurnalYcsb,
    ];

    /// Stable name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7Busy => "fig7_busy",
            Workload::Datacenter => "datacenter",
            Workload::CloneCrowd => "clone_crowd",
            Workload::DiurnalYcsb => "diurnal_ycsb",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big to build a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Bench,
    /// The smallest size at which every check still holds (smoke test).
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// Byte divisor of the Fig. 7 point (1 = paper scale: 12 GiB VM, 6 GiB host).
fn fig7_scale(size: Size) -> u64 {
    match size {
        Size::Bench => 8,
        Size::Smoke => 64,
    }
}

fn datacenter_shape(size: Size) -> DatacenterConfig {
    match size {
        Size::Bench => DatacenterConfig {
            racks: 16,
            hosts_per_rack: 32,
            vms_per_packed_host: 5,
            ..DatacenterConfig::small()
        },
        Size::Smoke => DatacenterConfig::small(),
    }
}

/// Byte divisor of the clone crowd (1 = a 512 MiB gold image).
fn clone_scale(size: Size) -> u64 {
    match size {
        Size::Bench => 16,
        Size::Smoke => 64,
    }
}

/// Byte divisor of the diurnal world (1 = 8 GiB guests on 24 GiB hosts).
fn diurnal_scale(size: Size) -> u64 {
    match size {
        Size::Bench => 128,
        Size::Smoke => 256,
    }
}

/// When a shard has settled; checked at every epoch barrier.
enum Settle {
    /// Its one migration finished.
    Migrated,
    /// The rack rebalanced and went quiescent after its load script.
    Rack {
        managed: Vec<ManagedHost>,
        script_end: SimTime,
    },
    /// The whole clone fleet was spawned and torn down again.
    TornDown(usize),
    /// Only the deadline ends it.
    Deadline,
}

/// What a run needs besides the worlds and the coordinator: deadline,
/// settle predicates, and the facts the checks judge against.
pub struct Plan {
    workload: Workload,
    /// Epoch length of the harness (the scenario's run slice).
    lookahead: SimDuration,
    pub deadline: SimTime,
    settle: Vec<Settle>,
    /// Datacenter only: which racks ramp hot.
    hot_racks: Vec<bool>,
}

/// A built workload: the shards and the plan to run them.
pub struct Built {
    worlds: Vec<Sim>,
    coordinator: Box<dyn Coordinator>,
    plan: Plan,
}

/// Build `workload` at `size` from `seed`. Every world's `ClusterConfig`
/// and every script RNG derives from `seed`.
pub fn build(workload: Workload, seed: u64, size: Size) -> Built {
    match workload {
        Workload::Fig7Busy => build_fig7(seed, fig7_scale(size)),
        Workload::Datacenter => build_datacenter(&DatacenterConfig {
            seed,
            ..datacenter_shape(size)
        }),
        Workload::CloneCrowd => build_clone_crowd(seed, clone_scale(size)),
        Workload::DiurnalYcsb => build_diurnal(seed, diurnal_scale(size)),
    }
}

impl Plan {
    /// The scenario's settle predicate for shard `i`.
    pub fn settled(&self, i: usize, sim: &Sim) -> bool {
        if sim.now() >= self.deadline {
            return true;
        }
        match &self.settle[i] {
            Settle::Migrated => sim.state().migrations.first().is_some_and(|m| m.finished),
            Settle::Rack {
                managed,
                script_end,
            } => rack_settled(sim, managed, *script_end),
            Settle::TornDown(clones) => sim
                .state()
                .clone
                .as_ref()
                .is_some_and(|ex| ex.counters.torn_down >= *clones as u64),
            Settle::Deadline => false,
        }
    }

    /// The workload's correctness checks over the finished worlds, as
    /// `(name, passed)`.
    pub fn checks(&self, worlds: &[Sim]) -> Vec<(String, bool)> {
        let mut out = Vec::new();
        let mut check = |name: &str, ok: bool| out.push((name.to_string(), ok));
        match self.workload {
            Workload::Fig7Busy => {
                let mig = |i: usize| worlds[i].state().migrations.first();
                check(
                    "all_migrations_finished",
                    (0..worlds.len()).all(|i| mig(i).is_some_and(|m| m.finished)),
                );
                let cost = |i: usize| {
                    mig(i).map_or((u64::MAX, u64::MAX), |m| {
                        let met = m.src.metrics();
                        let ns = met.total_time().map_or(u64::MAX, |d| d.as_nanos());
                        (ns, met.migration_bytes)
                    })
                };
                let (agile, pre, post) = (cost(2), cost(0), cost(1));
                check("agile_faster", agile.0 < pre.0 && agile.0 < post.0);
                check("agile_fewer_bytes", agile.1 < pre.1 && agile.1 < post.1);
            }
            Workload::Datacenter => {
                let converged = worlds
                    .iter()
                    .enumerate()
                    .all(|(i, sim)| sim.now() < self.deadline && self.settled(i, sim));
                let migrated = |i: usize| !worlds[i].state().migrations.is_empty();
                check("converged", converged);
                check(
                    "hot_racks_migrated",
                    (0..worlds.len()).all(|i| !self.hot_racks[i] || migrated(i)),
                );
                check(
                    "cold_racks_stayed",
                    (0..worlds.len()).all(|i| self.hot_racks[i] || !migrated(i)),
                );
            }
            Workload::CloneCrowd => {
                let n = CLONES as u64;
                for (sim, arm) in worlds.iter().zip(["streamed", "precopy"]) {
                    let w = sim.state();
                    let c = w.clone.as_ref().map(|ex| ex.counters).unwrap_or_default();
                    check(&format!("{arm}.all_ready"), c.spawned == n && c.ready == n);
                    check(&format!("{arm}.all_torn_down"), c.torn_down == n);
                    check(&format!("{arm}.no_lost_reads"), w.chaos.lost_reads == 0);
                    check(&format!("{arm}.cow_breaks"), c.cow_breaks > 0);
                }
            }
            Workload::DiurnalYcsb => {
                for (sim, arm) in worlds.iter().zip(["naive", "predicted"]) {
                    let migs = &sim.state().migrations;
                    check(
                        &format!("{arm}.migrations_finished"),
                        !migs.is_empty() && migs.iter().all(|m| m.finished),
                    );
                }
            }
        }
        out
    }
}

impl Built {
    /// Wrap the worlds into the epoch harness.
    pub fn into_run(self) -> (ShardedRun, Box<dyn Coordinator>, Plan) {
        let run = ShardedRun::new(self.worlds, self.plan.lookahead);
        (run, self.coordinator, self.plan)
    }
}

// ---------------------------------------------------------------- fig7_busy

/// Shard order of the Fig. 7 point; the checks index by it.
const FIG7_TECHNIQUES: [Technique; 3] = [Technique::PreCopy, Technique::PostCopy, Technique::Agile];

fn build_fig7(seed: u64, scale: u64) -> Built {
    let worlds = FIG7_TECHNIQUES
        .iter()
        .map(|&t| fig7_world(t, seed, scale))
        .collect();
    Built {
        worlds,
        coordinator: Box::new(NullCoordinator),
        plan: Plan {
            workload: Workload::Fig7Busy,
            lookahead: SimDuration::from_secs(5),
            deadline: SimTime::from_secs(4000),
            settle: FIG7_TECHNIQUES.iter().map(|_| Settle::Migrated).collect(),
            hot_racks: Vec::new(),
        },
    }
}

/// `scenario::single_vm` at its busy 12 GiB point on a 6 GiB host.
fn fig7_world(technique: Technique, seed: u64, sc: u64) -> Sim {
    let host_mem = 6 * GIB / sc;
    let vm_mem = 12 * GIB / sc;
    let host_os = 300 * MIB / sc;
    let guest_os = 300 * MIB / sc;
    let reservation = (host_mem - host_os).min(vm_mem);

    let cluster_cfg = ClusterConfig {
        seed,
        ..ClusterConfig::default()
    };
    let page = cluster_cfg.page_size;
    let mut b = ClusterBuilder::new(cluster_cfg);
    let src_host = b.add_host("source", host_mem, host_os, true);
    let dst_host = b.add_host("dest", host_mem, host_os, true);
    let client_host = b.add_host("client", 8 * GIB / sc, host_os, false);
    let agile = technique == Technique::Agile;
    if agile {
        let im = b.add_host("intermediate", 64 * GIB / sc, host_os, true);
        b.add_vmd_server(im, 48 * GIB / sc, 0);
        b.ensure_vmd_client(dst_host);
    }
    let swap_kind = if agile {
        SwapKind::PerVmVmd
    } else {
        SwapKind::HostSsd
    };
    let vm = b.add_vm(
        src_host,
        VmConfig {
            mem_bytes: vm_mem,
            page_size: page,
            vcpus: 2,
            reservation_bytes: reservation,
            guest_os_bytes: guest_os,
        },
        swap_kind,
    );

    // Redis dataset leaves ~500 MB of the VM free.
    let dataset_bytes = vm_mem.saturating_sub(500 * MIB / sc + guest_os);
    let index_pages = ((dataset_bytes / 50) / page).max(4) as u32;
    let data_pages = (dataset_bytes / page) as u32;
    let (index_region, data_region) = {
        let layout = b.world_mut().vms[vm].vm.layout_mut();
        let idx = layout.alloc_region("redis-index", index_pages);
        let dat = layout.alloc_region("redis-data", data_pages);
        (idx, dat)
    };
    let model = YcsbRedis::new(
        Dataset::new(data_region, dataset_bytes / 1024, 1024, page),
        index_region,
        KeyDist::UniformPrefix,
        YcsbParams::update_heavy(),
    );
    b.attach_workload(vm, client_host, WorkloadKind::Ycsb(model));
    b.enable_os_background(vm);
    b.preload_layout(vm);

    let mut sim = b.build();
    start_all_workloads(&mut sim, SimTime::from_secs(1));
    sim.schedule_at(SimTime::from_secs(30), move |sim| {
        let dest_resv = {
            let w = sim.state();
            w.hosts[dst_host]
                .mem
                .available_for_vms()
                .min(w.vms[vm].vm.config().mem_bytes)
        };
        let src_cfg = SourceConfig {
            precopy_threshold_pages: (9_000 / sc as u32).max(64),
            ..SourceConfig::new(technique)
        };
        migrate::start_migration(sim, vm, dst_host, src_cfg, dest_resv);
    });
    sim
}

// --------------------------------------------------------------- datacenter

// Fixed per-VM sizing of `scenario::datacenter`: host memory derives from
// the packed VM count so a hot rack's packed hosts land just above their
// high watermark at any `vms_per_packed_host`.
const DC_HOST_OS: u64 = 32 * MIB;
const DC_AVAIL_PER_PACKED_VM: u64 = 49 * MIB;
const DC_VM_MEM: u64 = 64 * MIB;
const DC_GUEST_OS: u64 = 4 * MIB;
const DC_RESV_START: u64 = 8 * MIB;
const DC_HOT_TARGET: u64 = 40 * MIB;
const DC_COLD_TARGET: u64 = 24 * MIB;
const DC_PRELOAD_PAGES: u32 = 2048;
const DC_SPILL_PAGES: u32 = 128;

fn build_datacenter(cfg: &DatacenterConfig) -> Built {
    let seq = SeedSequence::new(cfg.seed);
    let script_end = SimTime::from_secs(cfg.ramp_start_secs.max(cfg.spill_start_secs));
    let mut worlds = Vec::with_capacity(cfg.racks);
    let mut settle = Vec::with_capacity(cfg.racks);
    let mut hot_racks = Vec::with_capacity(cfg.racks);
    for rack in 0..cfg.racks {
        let hot = rack.is_multiple_of(cfg.hot_every.max(1));
        let (sim, managed) = rack_world(cfg, rack, hot, &seq);
        worlds.push(sim);
        settle.push(Settle::Rack {
            managed,
            script_end,
        });
        hot_racks.push(hot);
    }
    Built {
        worlds,
        coordinator: Box::new(DatacenterCoordinator::new(cfg.racks)),
        plan: Plan {
            workload: Workload::Datacenter,
            lookahead: SimDuration::from_secs(cfg.lookahead_secs.max(1)),
            deadline: SimTime::from_secs(cfg.deadline_secs),
            settle,
            hot_racks,
        },
    }
}

/// One rack of `scenario::datacenter`: working hosts behind a ToR trunk,
/// two spine-attached VMD intermediates, packed VMs, the scheduler, the
/// jittered reservation ramp and spill, and the boundary load report.
fn rack_world(
    cfg: &DatacenterConfig,
    rack: usize,
    hot: bool,
    seq: &SeedSequence,
) -> (Sim, Vec<ManagedHost>) {
    let mut rng = seq.stream(&format!("dc.rack{rack}"));
    let cluster_cfg = ClusterConfig {
        seed: seq.stream_seed(&format!("dc.world{rack}")),
        ..ClusterConfig::default()
    };
    let page = cluster_cfg.page_size;
    let mut b = ClusterBuilder::new(cluster_cfg);

    let tor = b.add_net_rack(
        Bandwidth::gbps(cfg.uplink_gbps),
        Bandwidth::gbps(cfg.uplink_gbps),
    );
    let host_mem = DC_HOST_OS + cfg.vms_per_packed_host as u64 * DC_AVAIL_PER_PACKED_VM;
    let working: Vec<usize> = (0..cfg.hosts_per_rack)
        .map(|i| {
            let h = b.add_host(&format!("r{rack}h{i}"), host_mem, DC_HOST_OS, false);
            b.assign_rack(h, tor);
            h
        })
        .collect();
    for i in 0..2 {
        let im = b.add_host(&format!("r{rack}spine{i}"), 4 * GIB, DC_HOST_OS, false);
        b.add_vmd_server(im, 3 * GIB, 0);
    }
    for &h in &working {
        b.ensure_vmd_client(h);
    }

    let packed = (cfg.hosts_per_rack / 2).max(1);
    let base = if hot { DC_HOT_TARGET } else { DC_COLD_TARGET };
    let mut vms = Vec::new();
    let mut targets = Vec::new();
    for &host in working.iter().take(packed) {
        for _ in 0..cfg.vms_per_packed_host {
            let vm = b.add_vm(
                host,
                VmConfig {
                    mem_bytes: DC_VM_MEM,
                    page_size: page,
                    vcpus: 1,
                    reservation_bytes: DC_RESV_START,
                    guest_os_bytes: DC_GUEST_OS,
                },
                SwapKind::PerVmVmd,
            );
            b.preload_pages(vm, 0, DC_PRELOAD_PAGES);
            vms.push(vm);
            let jitter = rng.index(5) as i64 - 2;
            targets.push((base as i64 + jitter * MIB as i64) as u64);
        }
    }

    let mut sim = b.build();
    let managed: Vec<ManagedHost> = working
        .iter()
        .map(|&h| ManagedHost {
            host: h,
            trigger: WatermarkTrigger::fractions(
                sim.state().hosts[h].mem.available_for_vms(),
                0.60,
                0.75,
            ),
        })
        .collect();
    let sched_cfg = SchedConfig {
        policy: PlacementPolicy::LeastLoaded,
        max_in_flight: 2,
        hysteresis: 0.25,
        cooldown: SimDuration::from_secs(600),
        src_cfg: SourceConfig {
            precopy_threshold_pages: 64,
            ..SourceConfig::new(Technique::Agile)
        },
        verify_content: false,
        ..SchedConfig::new(SourceConfig::new(Technique::Agile))
    };
    sched::arm_scheduler(&mut sim, managed.clone(), sched_cfg);

    let spill_target = DC_RESV_START - u64::from(DC_SPILL_PAGES) * page;
    let ramp_at = SimTime::from_secs(cfg.ramp_start_secs);
    let spill_at = SimTime::from_secs(cfg.spill_start_secs);
    let one_step = SimDuration::from_secs(1);
    let bindings: Vec<(usize, Signal)> = vms
        .iter()
        .zip(&targets)
        .map(|(&vm, &target)| {
            let to_target = Signal::ramp(ramp_at, one_step, 1, DC_RESV_START as f64, target as f64);
            let contraction = Signal::ramp(
                spill_at,
                one_step,
                1,
                0.0,
                spill_target as f64 - target as f64,
            );
            (vm, to_target.sum(contraction))
        })
        .collect();
    schedule_step_signals(
        &mut sim,
        bindings,
        SimTime::from_nanos(u64::MAX),
        |sim, vm, v| {
            if sim.state().vms[vm].migration.is_none() {
                set_reservation(sim, vm, v as u64);
            }
        },
    );

    let tick = SimDuration::from_secs(cfg.report_interval_secs.max(1));
    let first = managed.clone();
    sim.schedule_at(SimTime::ZERO + tick, move |sim| {
        report_tick(sim, tick, first)
    });
    (sim, managed)
}

/// Recurring boundary load report; reschedules itself every `interval`.
fn report_tick(sim: &mut Sim, interval: SimDuration, managed: Vec<ManagedHost>) {
    let w = sim.state();
    let rack = w.shard_id;
    let mut aggregate = 0u64;
    let mut hot_hosts = 0u32;
    for mh in &managed {
        let agg = sched::host_aggregate(w, mh.host);
        aggregate += agg;
        if agg > mh.trigger.high_bytes {
            hot_hosts += 1;
        }
    }
    let migrations = w.migrations.len() as u64;
    let now = sim.now();
    sim.state_mut().boundary.outbox.push((
        now,
        BoundaryMsg::LoadReport {
            rack,
            aggregate,
            hot_hosts,
            migrations,
        },
    ));
    sim.schedule_in(interval, move |sim| report_tick(sim, interval, managed));
}

/// Rebalanced and quiescent after the load script.
fn rack_settled(sim: &Sim, managed: &[ManagedHost], script_end: SimTime) -> bool {
    let w = sim.state();
    let s = w.sched.as_ref().expect("scheduler armed");
    let below = managed
        .iter()
        .all(|mh| sched::host_aggregate(w, mh.host) <= mh.trigger.high_bytes);
    let quiescent =
        s.queue.is_empty() && s.inflight.is_empty() && w.migrations.iter().all(|m| m.finished);
    sim.now() > script_end && below && quiescent
}

// -------------------------------------------------------------- clone_crowd

/// Flash-crowd size. Half the scenario's default of 16: the clones' paced
/// clients set the event volume, and half the fleet keeps a repetition
/// near three seconds.
pub const CLONES: usize = 8;

fn build_clone_crowd(seed: u64, scale: u64) -> Built {
    let worlds = [false, true]
        .into_iter()
        .map(|precopy| clone_world(seed, scale, precopy))
        .collect();
    Built {
        worlds,
        coordinator: Box::new(NullCoordinator),
        plan: Plan {
            workload: Workload::CloneCrowd,
            lookahead: SimDuration::from_secs(5),
            deadline: SimTime::from_secs(90),
            settle: vec![Settle::TornDown(CLONES), Settle::TornDown(CLONES)],
            hot_racks: Vec::new(),
        },
    }
}

/// `scenario::scaleout` without chaos or in-place upgrade: a sealed gold
/// master, 16 clones over 4 destination hosts, an 8× flash crowd, a
/// bystander probe and a t = 30 s reservation squeeze.
fn clone_world(seed: u64, sc: u64, precopy: bool) -> Sim {
    let master_mem = 512 * MIB / sc;
    let guest_os = 64 * MIB / sc;
    let dataset_bytes = 256 * MIB / sc;
    let active_bytes = 16 * MIB / sc;
    let clone_res = master_mem / 2;
    let host_os = 64 * MIB / sc;

    let cluster_cfg = ClusterConfig {
        seed,
        vmd_detect_delay: SimDuration::from_millis(500),
        ..ClusterConfig::default()
    };
    let page = cluster_cfg.page_size;
    let mut b = ClusterBuilder::new(cluster_cfg);
    let gold = b.add_host("gold", 2 * GIB / sc, host_os, false);
    let dests: Vec<usize> = (0..4)
        .map(|i| b.add_host(&format!("dest{i}"), 2 * GIB / sc, host_os, false))
        .collect();
    let im0 = b.add_host("im0", 2 * GIB / sc, host_os, false);
    let im1 = b.add_host("im1", 2 * GIB / sc, host_os, false);
    let bystander_host = b.add_host("bystander", 512 * MIB / sc, host_os, false);
    let client_host = b.add_host("client", GIB / sc, host_os, false);
    b.add_vmd_server(im0, GIB / sc, 0);
    b.add_vmd_server(im1, GIB / sc, 0);
    for &d in &dests {
        b.ensure_vmd_client(d);
    }

    let master = b.add_vm(
        gold,
        VmConfig {
            mem_bytes: master_mem,
            page_size: page,
            vcpus: 2,
            reservation_bytes: master_mem,
            guest_os_bytes: guest_os,
        },
        SwapKind::PerVmVmd,
    );
    let index_pages = ((dataset_bytes / 50) / page).max(4) as u32;
    let data_pages = (dataset_bytes / page) as u32;
    let (index_region, data_region) = {
        let layout = b.world_mut().vms[master].vm.layout_mut();
        let idx = layout.alloc_region("redis-index", index_pages);
        let dat = layout.alloc_region("redis-data", data_pages);
        (idx, dat)
    };
    b.preload_layout(master);

    let by_mem = 256 * MIB / sc;
    let by_dataset = 128 * MIB / sc;
    let bystander = b.add_vm(
        bystander_host,
        VmConfig {
            mem_bytes: by_mem,
            page_size: page,
            vcpus: 2,
            reservation_bytes: guest_os + by_dataset / 4,
            guest_os_bytes: guest_os,
        },
        SwapKind::PerVmVmd,
    );
    let (by_index, by_data) = {
        let layout = b.world_mut().vms[bystander].vm.layout_mut();
        let idx = layout.alloc_region("redis-index", ((by_dataset / 50) / page).max(4) as u32);
        let dat = layout.alloc_region("redis-data", (by_dataset / page) as u32);
        (idx, dat)
    };
    let by_model = YcsbRedis::new(
        Dataset::new(by_data, by_dataset / 1024, 1024, page),
        by_index,
        KeyDist::UniformPrefix,
        YcsbParams {
            client_threads: 2,
            ..YcsbParams::default()
        },
    );
    b.attach_workload(bystander, client_host, WorkloadKind::Ycsb(by_model));
    b.preload_layout(bystander);
    b.world_mut().vms[bystander]
        .client
        .as_mut()
        .expect("bystander client attached")
        .think_ns = 1_000_000;

    let mut sim = b.build();
    start_all_workloads(&mut sim, SimTime::from_secs(1));

    let preloaded = sim.state().vms[master].vm.memory().pages() as u64;
    let (hydration, hydrate_period) = if precopy {
        (
            HydrationMode::Precopy {
                pages_per_tick: 256,
            },
            SimDuration::from_millis(10),
        )
    } else {
        (
            HydrationMode::Streamed {
                pages_per_tick: (preloaded / 1300).max(1) as u32,
            },
            SimDuration::from_millis(100),
        )
    };
    sim.schedule_at(SimTime::from_secs(2), move |sim| {
        let make_workload = Rc::new(move |_clone: usize| {
            let mut model = YcsbRedis::new(
                Dataset::new(data_region, dataset_bytes / 1024, 1024, page),
                index_region,
                KeyDist::UniformPrefix,
                YcsbParams {
                    client_threads: 2,
                    ..YcsbParams::update_heavy()
                },
            );
            model.set_active_bytes(active_bytes);
            WorkloadKind::Ycsb(model)
        });
        clonectl::arm_cloning(
            sim,
            CloneCtlConfig {
                master,
                period: SimDuration::from_millis(10),
                hydrate_period,
                signal: Signal::flash_crowd(SimTime::from_secs(5), 8.0, SimDuration::from_secs(20)),
                high_water: 1.0,
                low_water: 0.5,
                max_clones: CLONES,
                clones_per_tick: 4,
                dest_hosts: dests,
                client_host,
                clone_reservation_bytes: clone_res,
                hydration,
                in_place_upgrade: false,
                client_think_ns: 1_000_000,
                make_workload,
            },
        );
    });

    // The squeeze forces write-backs of dirtied shared pages: the first
    // writes that break CoW shares.
    let squeeze = (active_bytes / 2).max(page);
    sim.schedule_at(SimTime::from_secs(30), move |sim| {
        for vm in live_clone_vms(sim) {
            set_reservation(sim, vm, squeeze);
        }
    });
    sim.schedule_at(SimTime::from_secs(32), move |sim| {
        for vm in live_clone_vms(sim) {
            set_reservation(sim, vm, clone_res);
        }
    });
    sim
}

/// Clones neither draining nor torn down, in spawn order.
fn live_clone_vms(sim: &Sim) -> Vec<usize> {
    sim.state()
        .clone
        .as_ref()
        .map(|ex| {
            ex.clones
                .iter()
                .filter(|c| !c.torn_down && !c.draining)
                .map(|c| c.vm)
                .collect()
        })
        .unwrap_or_default()
}

// ------------------------------------------------------------- diurnal_ycsb

// The scenario's day compressed to half (its defaults: 60 s period,
// flash crowds at 250 s and 350 s, 480 s deadline). The guests' paced
// clients set the event volume, so this halves a repetition; the
// predictor still sees six samples per cycle.
pub const DIURNAL_PERIOD_S: u64 = 30;
pub const DIURNAL_FLASH_S: [u64; 2] = [125, 175];
pub const DIURNAL_DEADLINE_S: u64 = 240;

fn build_diurnal(seed: u64, scale: u64) -> Built {
    let worlds = [false, true]
        .into_iter()
        .map(|predict| diurnal_world(seed, scale, predict))
        .collect();
    Built {
        worlds,
        coordinator: Box::new(NullCoordinator),
        plan: Plan {
            workload: Workload::DiurnalYcsb,
            lookahead: SimDuration::from_secs(5),
            deadline: SimTime::from_secs(DIURNAL_DEADLINE_S),
            settle: vec![Settle::Deadline, Settle::Deadline],
            hot_racks: Vec::new(),
        },
    }
}

/// `scenario::diurnal` on the half-length day: eight YCSB guests packed
/// on two of four hosts, diurnal reservations and active windows, two
/// flash crowds, phase rotation, the watermark scheduler and optionally
/// the cycle predictor.
fn diurnal_world(seed: u64, sc: u64, predict: bool) -> Sim {
    let host_mem = 24 * GIB / sc;
    let host_os = 300 * MIB / sc;
    let vm_mem = 8 * GIB / sc;
    let guest_os = 300 * MIB / sc;
    let dataset_bytes = 6 * GIB / sc;
    let resv_mid = 3328 * MIB / sc;
    let resv_amp = 768 * MIB / sc;
    let flash_peak = 3 * GIB / sc;
    let flash_decay = SimDuration::from_secs(15);
    let active_mid = 2560 * MIB / sc;
    let think_base_ns: u64 = 4_000_000;
    let period = SimDuration::from_secs(DIURNAL_PERIOD_S);

    let cluster_cfg = ClusterConfig {
        seed,
        ..ClusterConfig::default()
    };
    let page = cluster_cfg.page_size;
    let mut b = ClusterBuilder::new(cluster_cfg);
    let working: Vec<usize> = (0..4)
        .map(|i| b.add_host(&format!("host{i}"), host_mem, host_os, false))
        .collect();
    let client_host = b.add_host("client", 16 * GIB / sc, host_os, false);
    for i in 0..2 {
        let im = b.add_host(&format!("intermediate{i}"), 48 * GIB / sc, host_os, false);
        b.add_vmd_server(im, 40 * GIB / sc, 0);
    }
    for &h in &working {
        b.ensure_vmd_client(h);
    }

    let mut vms = Vec::new();
    for i in 0..8usize {
        let vm = b.add_vm(
            working[i / 4],
            VmConfig {
                mem_bytes: vm_mem,
                page_size: page,
                vcpus: 2,
                reservation_bytes: resv_mid,
                guest_os_bytes: guest_os,
            },
            SwapKind::PerVmVmd,
        );
        let index_pages = ((dataset_bytes / 50) / page).max(4) as u32;
        let data_pages = (dataset_bytes / page) as u32;
        let (index_region, data_region) = {
            let layout = b.world_mut().vms[vm].vm.layout_mut();
            let idx = layout.alloc_region("redis-index", index_pages);
            let dat = layout.alloc_region("redis-data", data_pages);
            (idx, dat)
        };
        let model = YcsbRedis::new(
            Dataset::new(data_region, dataset_bytes / 1024, 1024, page),
            index_region,
            KeyDist::UniformPrefix,
            YcsbParams {
                client_threads: 4,
                ..YcsbParams::default()
            },
        );
        b.attach_workload(vm, client_host, WorkloadKind::Ycsb(model));
        b.preload_pages(vm, 0, (vm_mem / page) as u32);
        vms.push(vm);
    }

    let mut sim = b.build();

    let stride = (dataset_bytes / 1024 / 8).max(1);
    let mut bindings = Vec::new();
    for (i, &vm) in vms.iter().enumerate() {
        let host_idx = i / 4;
        let phase = SimDuration::from_secs(15 * host_idx as u64);
        let arrival = SimTime::from_secs(DIURNAL_FLASH_S[host_idx]);
        let diurnal = |amp: f64| Signal::diurnal(period, amp, phase);
        let mut resv = Signal::constant(resv_mid as f64).sum(diurnal(resv_amp as f64));
        let mut active = Signal::constant(active_mid as f64).sum(diurnal(resv_amp as f64));
        let think = if i % 4 < 2 {
            // The crowd hits the guest 15 s before the operator's lagged
            // reservation spike, which is what breaches the watermark.
            let crowd_at = SimTime::from_nanos(
                arrival
                    .as_nanos()
                    .saturating_sub(SimDuration::from_secs(15).as_nanos()),
            );
            resv = resv.sum(Signal::flash_crowd(arrival, flash_peak as f64, flash_decay));
            active = active.sum(Signal::flash_crowd(
                crowd_at,
                flash_peak as f64,
                flash_decay,
            ));
            Signal::constant(1.0)
                .sum(Signal::flash_crowd(crowd_at, -0.8, flash_decay))
                .clamp(0.2, 1.0)
        } else {
            Signal::constant(1.0)
        };
        bindings.push(Binding {
            vm,
            knob: Knob::ThinkNanos {
                base_ns: think_base_ns,
            },
            signal: think,
        });
        bindings.push(Binding {
            vm,
            knob: Knob::ReservationBytes,
            signal: resv,
        });
        bindings.push(Binding {
            vm,
            knob: Knob::ActiveBytes,
            signal: active.clamp((128 * MIB / sc) as f64, dataset_bytes as f64),
        });
        if i % 4 == 3 {
            bindings.push(Binding {
                vm,
                knob: Knob::WindowPhase {
                    stride_records: stride,
                },
                signal: Signal::phase_change(SimDuration::from_secs(150), 4),
            });
        }
    }
    wlctl::arm_driver(
        &mut sim,
        WorkloadDriver::new(bindings),
        SimDuration::from_secs(5),
    );
    start_all_workloads(&mut sim, SimTime::from_secs(1));

    let managed: Vec<ManagedHost> = working
        .iter()
        .map(|&h| ManagedHost {
            host: h,
            trigger: WatermarkTrigger::fractions(
                sim.state().hosts[h].mem.available_for_vms(),
                0.60,
                0.75,
            ),
        })
        .collect();
    let sched_cfg = SchedConfig {
        policy: PlacementPolicy::LeastLoaded,
        max_in_flight: 2,
        hysteresis: 0.25,
        cooldown: SimDuration::from_secs(600),
        src_cfg: SourceConfig {
            precopy_threshold_pages: (9_000 / sc as u32).max(64),
            ..SourceConfig::new(Technique::Agile)
        },
        verify_content: true,
        ..SchedConfig::new(SourceConfig::new(Technique::Agile))
    };
    sched::arm_scheduler(&mut sim, managed, sched_cfg);
    if predict {
        sched::arm_predictor(
            &mut sim,
            PredictConfig {
                min_confidence: 0.4,
                max_defer: SimDuration::from_secs(120),
                ..PredictConfig::default()
            },
        );
    }
    sim
}
