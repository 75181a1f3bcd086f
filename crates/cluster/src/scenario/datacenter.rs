//! Datacenter-scale sharded run: N racks × M hosts × K VMs under
//! per-rack watermark schedulers, one shard (= one world) per rack.
//!
//! Each rack is a complete world — its own hosts, VMD intermediates,
//! fluid network with a ToR uplink/downlink trunk, and scheduler. The
//! racks advance in parallel through the conservative epoch harness
//! ([`crate::shard::ShardedRun`]); every `report_interval` each rack
//! pushes a [`BoundaryMsg::LoadReport`] across the shard boundary, and
//! the [`DatacenterCoordinator`] answers with a cluster-wide
//! [`GlobalSignal::ClusterLoad`] one lookahead later.
//!
//! The load script mirrors the multihost scenario at rack granularity:
//! VMs start packed on the first half of each rack's hosts with small
//! reservations; at `ramp_start` every reservation jumps (with
//! deterministic per-VM jitter) — *hot* racks (every `hot_every`-th)
//! overflow their packed hosts' high watermarks and rebalance onto the
//! empty hosts through VMD intermediates attached at the spine, so the
//! migration swap traffic crosses the rack trunk; *cold* racks stay
//! below their low watermarks and never migrate.
//!
//! The returned [`DatacenterResult::report`] is deterministic (byte
//! identical at any `workers` count and across runs with equal seeds);
//! all wall-clock measurement lives in the separate [`WallStats`].

use std::time::Instant;

use agile_migration::{SourceConfig, Technique};
use agile_sim_core::{Bandwidth, RackId, SeedSequence, SimDuration, SimTime, Simulation, GIB, MIB};
use agile_vm::VmConfig;
use agile_workload::Signal;
use agile_wss::WatermarkTrigger;

use crate::build::{ClusterBuilder, SwapKind};
use crate::config::ClusterConfig;
use crate::scenario::set_reservation;
use crate::sched::{self, ManagedHost, PlacementPolicy, SchedConfig};
use crate::shard::{BoundaryMsg, Coordinator, GlobalSignal, MergedMsg, ShardedRun};
use crate::world::World;

/// One datacenter run. Sizing is fixed per VM (64 MiB VMs; host memory
/// derives from the packed VM count, ≈1 GiB at the large preset) so the
/// knobs scale *count*, not bytes — the point is event volume, not
/// paper-scale transfers.
#[derive(Clone, Debug)]
pub struct DatacenterConfig {
    /// Racks; each rack is one shard with its own world and scheduler.
    pub racks: usize,
    /// Working (schedulable) hosts per rack (≥ 2).
    pub hosts_per_rack: usize,
    /// VMs packed onto each of the first `hosts_per_rack / 2` hosts.
    pub vms_per_packed_host: usize,
    /// Every `hot_every`-th rack ramps hot (overflows its watermarks).
    pub hot_every: usize,
    /// ToR trunk capacity, each direction, in Gbps.
    pub uplink_gbps: f64,
    /// Worker threads for the epoch harness (wall-clock only — the
    /// result is byte-identical at any value).
    pub workers: usize,
    /// Seconds between per-rack boundary load reports.
    pub report_interval_secs: u64,
    /// Epoch length / minimum cross-shard signal latency, seconds.
    pub lookahead_secs: u64,
    /// When every VM's reservation jumps, seconds.
    pub ramp_start_secs: u64,
    /// When every VM's working set contracts (reservations shrink below
    /// residency, spilling pages through the VMD clients to the spine
    /// intermediates — the page traffic that crosses the ToR trunk),
    /// seconds.
    pub spill_start_secs: u64,
    /// Hard deadline for the run, seconds.
    pub deadline_secs: u64,
    /// Master seed (each rack derives its own stream).
    pub seed: u64,
}

impl DatacenterConfig {
    /// CI scale: 4 racks × 4 hosts × 8 VMs = 16 hosts, 32 VMs. Runs in
    /// well under a second; used by the determinism gates.
    pub fn small() -> Self {
        DatacenterConfig {
            racks: 4,
            hosts_per_rack: 4,
            vms_per_packed_host: 4,
            hot_every: 2,
            uplink_gbps: 10.0,
            workers: 1,
            report_interval_secs: 5,
            lookahead_secs: 5,
            ramp_start_secs: 12,
            spill_start_secs: 42,
            deadline_secs: 600,
            seed: 42,
        }
    }

    /// Datacenter scale: 32 racks × 32 hosts = 1,024 hosts; 16 packed
    /// hosts × 20 VMs × 32 racks = 10,240 VMs.
    pub fn large() -> Self {
        DatacenterConfig {
            racks: 32,
            hosts_per_rack: 32,
            vms_per_packed_host: 20,
            ..DatacenterConfig::small()
        }
    }
}

/// Wall-clock accounting for one run. Never part of the deterministic
/// report.
#[derive(Clone, Copy, Debug)]
pub struct WallStats {
    /// End-to-end wall time of the sharded run, seconds.
    pub wall_secs: f64,
    /// Total busy time summed across every shard, seconds.
    pub busy_secs: f64,
    /// Sum over epochs of the slowest shard — the parallel floor.
    pub critical_path_secs: f64,
    /// `busy / critical_path`: the speedup a big-enough machine could
    /// extract from this decomposition.
    pub available_parallelism: f64,
    /// Worker threads the harness was asked to use.
    pub workers: usize,
    /// Cores actually available on this machine.
    pub host_cpus: usize,
}

/// Everything a datacenter run reports.
#[derive(Clone, Debug)]
pub struct DatacenterResult {
    /// Deterministic report: config, per-rack outcome lines (migrations,
    /// trunk bytes, boundary traffic), cluster totals.
    pub report: String,
    /// Every rack rebalanced and quiescent before the deadline.
    pub converged: bool,
    /// Rack count.
    pub racks: usize,
    /// Working hosts across the cluster.
    pub hosts: usize,
    /// VMs across the cluster.
    pub vms: usize,
    /// Migrations started across the cluster.
    pub migrations: u64,
    /// Epoch barriers executed.
    pub epochs: u64,
    /// DES events executed, summed over racks (the determinism
    /// fingerprint).
    pub events_executed: u64,
    /// Simulated seconds covered (max over racks).
    pub sim_secs: f64,
    /// Wall-clock measurement (non-deterministic; excluded from
    /// `report`).
    pub wall: WallStats,
}

/// Keeps the latest load report per rack and broadcasts the cluster
/// summary back to every rack each epoch that carried messages.
pub struct DatacenterCoordinator {
    latest: Vec<Option<(u64, u32)>>,
    /// Signals emitted over the run (racks × signalling epochs).
    pub signals_sent: u64,
}

impl DatacenterCoordinator {
    /// Coordinator over `racks` shards.
    pub fn new(racks: usize) -> Self {
        DatacenterCoordinator {
            latest: vec![None; racks],
            signals_sent: 0,
        }
    }
}

impl Coordinator for DatacenterCoordinator {
    fn merge(&mut self, _epoch_end: SimTime, msgs: &[MergedMsg]) -> Vec<(usize, GlobalSignal)> {
        if msgs.is_empty() {
            return Vec::new();
        }
        for m in msgs {
            if let BoundaryMsg::LoadReport {
                rack,
                aggregate,
                hot_hosts,
                ..
            } = &m.msg
            {
                self.latest[*rack] = Some((*aggregate, *hot_hosts));
            }
        }
        let known: Vec<(u64, u32)> = self.latest.iter().flatten().copied().collect();
        if known.is_empty() {
            return Vec::new();
        }
        let mean_aggregate = known.iter().map(|(a, _)| a).sum::<u64>() / known.len() as u64;
        let hot_racks = known.iter().filter(|(_, h)| *h > 0).count() as u32;
        let out: Vec<(usize, GlobalSignal)> = (0..self.latest.len())
            .map(|r| {
                (
                    r,
                    GlobalSignal::ClusterLoad {
                        mean_aggregate,
                        hot_racks,
                    },
                )
            })
            .collect();
        self.signals_sent += out.len() as u64;
        out
    }
}

/// One built rack world plus what the driver needs to judge it.
struct RackSetup {
    sim: Simulation<World>,
    managed: Vec<ManagedHost>,
    rack_id: RackId,
    hot: bool,
}

// Fixed per-VM sizing (see the type-level comment on the config). Host
// memory is derived from the packed VM count so that a hot rack's packed
// hosts land ~8% above their high watermark at any `vms_per_packed_host`:
// avail = 49 MiB × K ⇒ high = 0.75·avail ≈ 36.75K MiB, against a hot
// load of ~40K MiB — a small overflow the scheduler clears with one or
// two evictions per host. (K = 20 gives the 1 GiB hosts of the large
// preset.)
const HOST_OS: u64 = 32 * MIB;
const AVAIL_PER_PACKED_VM: u64 = 49 * MIB;
const VM_MEM: u64 = 64 * MIB;
const GUEST_OS: u64 = 4 * MIB;
const RESV_START: u64 = 8 * MIB;
const HOT_TARGET: u64 = 40 * MIB;
const COLD_TARGET: u64 = 24 * MIB;
const PRELOAD_PAGES: u32 = 2048; // 8 MiB — fills residency to the reservation
/// Pages each VM evicts through its VMD client when the working set
/// contracts at `spill_start` (512 KiB of page writes per VM crossing
/// the ToR trunk toward the spine intermediates).
const SPILL_PAGES: u32 = 128;

/// Recurring boundary load report; reschedules itself every `interval`.
fn report_tick(sim: &mut Simulation<World>, interval: SimDuration, managed: Vec<ManagedHost>) {
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

/// Build one rack: working hosts behind a ToR trunk, two spine-attached
/// VMD intermediates, packed VMs, scheduler, jittered reservation ramp.
fn build_rack(cfg: &DatacenterConfig, rack: usize, seq: &SeedSequence) -> RackSetup {
    assert!(cfg.hosts_per_rack >= 2, "need at least two hosts per rack");
    assert!(cfg.vms_per_packed_host >= 1);
    let hot = rack.is_multiple_of(cfg.hot_every.max(1));
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
    let host_mem = HOST_OS + cfg.vms_per_packed_host as u64 * AVAIL_PER_PACKED_VM;
    let working: Vec<usize> = (0..cfg.hosts_per_rack)
        .map(|i| {
            let h = b.add_host(&format!("r{rack}h{i}"), host_mem, HOST_OS, false);
            b.assign_rack(h, tor);
            h
        })
        .collect();
    // Spine-attached (unracked) intermediates back the VMD pool, so
    // every namespace spill and migration swap stream crosses the ToR
    // trunk — the hierarchical-fabric path under test.
    for i in 0..2 {
        let im = b.add_host(&format!("r{rack}spine{i}"), 4 * GIB, HOST_OS, false);
        b.add_vmd_server(im, 3 * GIB, 0);
    }
    for &h in &working {
        b.ensure_vmd_client(h);
    }

    // Pack the VMs onto the first half of the working hosts and compute
    // each VM's jittered ramp target up front (keeps the ramp event a
    // plain table walk).
    let packed = (cfg.hosts_per_rack / 2).max(1);
    let base = if hot { HOT_TARGET } else { COLD_TARGET };
    let mut vms = Vec::new();
    let mut targets = Vec::new();
    for (slot, &host) in working.iter().take(packed).enumerate() {
        for _ in 0..cfg.vms_per_packed_host {
            let vm = b.add_vm(
                host,
                VmConfig {
                    mem_bytes: VM_MEM,
                    page_size: page,
                    vcpus: 1,
                    reservation_bytes: RESV_START,
                    guest_os_bytes: GUEST_OS,
                },
                SwapKind::PerVmVmd,
            );
            b.preload_pages(vm, 0, PRELOAD_PAGES);
            vms.push(vm);
            // ±2 MiB of per-VM jitter so packed hosts don't all land on
            // the exact same aggregate.
            let jitter = rng.index(5) as i64 - 2;
            targets.push((base as i64 + jitter * MIB as i64) as u64);
        }
        let _ = slot;
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

    // Each VM's whole reservation script is one signal: a single-step
    // ramp to its precomputed jittered target (hot racks overflow the
    // packed hosts, cold racks don't), summed with a second single-step
    // ramp at spill time that contracts every reservation to the common
    // spill target — shrinking below residency evicts `SPILL_PAGES`
    // pages per VM through the VMD client to the spine servers, the swap
    // stream that crosses the rack trunk.
    let spill_target = RESV_START - u64::from(SPILL_PAGES) * page;
    let ramp_at = SimTime::from_secs(cfg.ramp_start_secs);
    let spill_at = SimTime::from_secs(cfg.spill_start_secs);
    let one_step = SimDuration::from_secs(1);
    let bindings: Vec<(usize, Signal)> = vms
        .iter()
        .zip(&targets)
        .map(|(&vm, &target)| {
            let to_target = Signal::ramp(ramp_at, one_step, 1, RESV_START as f64, target as f64);
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
    super::schedule_step_signals(
        &mut sim,
        bindings,
        SimTime::from_nanos(u64::MAX),
        |sim, vm, v| {
            if sim.state().vms[vm].migration.is_some() {
                return;
            }
            set_reservation(sim, vm, v as u64);
        },
    );

    let tick = SimDuration::from_secs(cfg.report_interval_secs.max(1));
    let first = managed.clone();
    sim.schedule_at(SimTime::ZERO + tick, move |sim| {
        report_tick(sim, tick, first)
    });

    RackSetup {
        sim,
        managed,
        rack_id: tor,
        hot,
    }
}

/// Run one datacenter scenario.
pub fn run(cfg: &DatacenterConfig) -> DatacenterResult {
    assert!(cfg.racks >= 1);
    let seq = SeedSequence::new(cfg.seed);
    let mut meta = Vec::with_capacity(cfg.racks);
    let mut worlds = Vec::with_capacity(cfg.racks);
    for rack in 0..cfg.racks {
        let s = build_rack(cfg, rack, &seq);
        meta.push((s.managed, s.rack_id, s.hot));
        worlds.push(s.sim);
    }
    // The script is only over once both the growth ramp and the spill
    // have fired.
    let ramp_end = SimTime::from_secs(cfg.ramp_start_secs.max(cfg.spill_start_secs));
    let deadline = SimTime::from_secs(cfg.deadline_secs);
    let lookahead = SimDuration::from_secs(cfg.lookahead_secs.max(1));

    let mut sharded = ShardedRun::new(worlds, lookahead);
    let mut coord = DatacenterCoordinator::new(cfg.racks);
    let t0 = Instant::now();
    let stats = sharded.run(cfg.workers, deadline, &mut coord, |i, sim| {
        super::sched_settled(sim, &meta[i].0, ramp_end)
    });
    let wall = t0.elapsed();

    let worlds = sharded.into_worlds();
    let hosts = cfg.racks * cfg.hosts_per_rack;
    let vms = cfg.racks * (cfg.hosts_per_rack / 2).max(1) * cfg.vms_per_packed_host;

    let mut report = String::new();
    let mut migrations = 0u64;
    let mut events_executed = 0u64;
    let mut sim_secs = 0f64;
    let mut all_converged = true;
    {
        use std::fmt::Write;
        let _ = writeln!(report, "# datacenter report");
        let _ = writeln!(
            report,
            "seed={} racks={} hosts_per_rack={} vms_per_packed_host={} hot_every={} \
             uplink_gbps={:?} lookahead_s={} report_interval_s={} deadline_s={}",
            cfg.seed,
            cfg.racks,
            cfg.hosts_per_rack,
            cfg.vms_per_packed_host,
            cfg.hot_every,
            cfg.uplink_gbps,
            cfg.lookahead_secs,
            cfg.report_interval_secs,
            cfg.deadline_secs,
        );
        let _ = writeln!(report, "racks:");
        for (i, sim) in worlds.iter().enumerate() {
            let (managed, rack_id, hot) = &meta[i];
            let w = sim.state();
            let s = w.sched.as_ref().expect("scheduler armed");
            let started = w.migrations.len() as u64;
            let finished = w.migrations.iter().filter(|m| m.finished).count() as u64;
            let max_vm = s.times_migrated.iter().copied().max().unwrap_or(0);
            let final_hot = managed
                .iter()
                .filter(|mh| sched::host_aggregate(w, mh.host) > mh.trigger.high_bytes)
                .count();
            let converged = super::sched_settled(sim, managed, ramp_end)
                && sim.now() < deadline
                && final_hot == 0;
            let _ = writeln!(
                report,
                "  rack={i} hot={hot} migrations={started} finished={finished} \
                 max_vm_migrations={max_vm} final_hot_hosts={final_hot} \
                 trunk_up_bytes={} trunk_down_bytes={} signals={} events={} converged={converged}",
                w.net.rack_up_bytes(*rack_id),
                w.net.rack_down_bytes(*rack_id),
                w.boundary.signals.len(),
                sim.events_executed(),
            );
            migrations += started;
            events_executed += sim.events_executed();
            sim_secs = sim_secs.max(sim.now().as_nanos() as f64 / 1e9);
            all_converged &= converged;
        }
        let _ = writeln!(
            report,
            "cluster: hosts={hosts} vms={vms} migrations={migrations} epochs={} \
             signals_sent={} events_executed={events_executed} converged={all_converged}",
            stats.epochs, coord.signals_sent,
        );
    }

    DatacenterResult {
        report,
        converged: all_converged,
        racks: cfg.racks,
        hosts,
        vms,
        migrations,
        epochs: stats.epochs,
        events_executed,
        sim_secs,
        wall: WallStats {
            wall_secs: wall.as_secs_f64(),
            busy_secs: stats.busy_total().as_secs_f64(),
            critical_path_secs: stats.critical_path.as_secs_f64(),
            available_parallelism: stats.available_parallelism(),
            workers: cfg.workers,
            host_cpus: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_datacenter_converges_and_hot_racks_migrate() {
        let cfg = DatacenterConfig::small();
        let r = run(&cfg);
        assert!(r.converged, "report:\n{}", r.report);
        assert!(r.migrations > 0, "hot racks must rebalance");
        // Cold racks (odd index with hot_every=2) must not migrate and
        // hot racks must; the report carries one line per rack.
        for (i, line) in r
            .report
            .lines()
            .filter(|l| l.trim_start().starts_with("rack="))
            .enumerate()
        {
            let hot = i % 2 == 0;
            assert!(line.contains(&format!("hot={hot}")), "{line}");
            if !hot {
                assert!(line.contains("migrations=0"), "{line}");
            } else {
                assert!(!line.contains("migrations=0"), "{line}");
            }
        }
        // Boundary traffic flowed both ways: every rack got signals.
        for line in r.report.lines().filter(|l| l.contains("signals=")) {
            assert!(!line.contains("signals=0"), "{line}");
        }
    }

    #[test]
    fn small_datacenter_is_deterministic_across_worker_counts() {
        let base = run(&DatacenterConfig::small());
        for workers in [2, 4] {
            let cfg = DatacenterConfig {
                workers,
                ..DatacenterConfig::small()
            };
            let r = run(&cfg);
            assert_eq!(base.report, r.report, "workers={workers}");
            assert_eq!(base.events_executed, r.events_executed);
        }
    }
}
