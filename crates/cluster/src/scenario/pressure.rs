//! Elastic-pool pressure: donor hosts take their DRAM back while the VMD
//! holds live swap state.
//!
//! Several donor (intermediate) hosts contribute DRAM to the pool; VMs on
//! a separate work host preload datasets larger than their reservations,
//! spilling cold pages into replicated VMD namespaces. A scripted
//! donor-demand ramp (phantom reservations on the donor ledgers — the
//! stand-in for the donors' own workloads growing) then halves the total
//! pool capacity, skewed so one donor keeps almost nothing. The pool
//! manager shrinks the leases, relocates the squeezed donor's pages to
//! donors with headroom, and — once the reclaim backlog drains — the
//! skew-aware rebalancer levels per-server utilization.
//!
//! The run ends when the pool is quiescent (no over-lease backlog, no
//! relocations in flight, no planned rebalance move, no outstanding swap
//! I/O). The result carries a conservation audit: every directory slot
//! must keep its full replica set and every server-side stored page must
//! be accounted to a directory placement — reclaim and rebalance move
//! pages, they never lose or leak them.

use agile_sim_core::{SimDuration, SimTime, Simulation, GIB, MIB};
use agile_vm::VmConfig;
use agile_vmd::NamespaceId;
use agile_workload::Signal;

use crate::build::{ClusterBuilder, SwapKind};
use crate::config::ClusterConfig;
use crate::poolctl::{self, PoolConfig, PoolCounters};
use crate::scenario::Scenario;
use crate::world::World;

/// One pool-pressure run.
#[derive(Clone, Debug)]
pub struct PressureConfig {
    /// Donor (intermediate) hosts contributing DRAM (≥ 2).
    pub donors: usize,
    /// VMs on the work host, each with a replicated namespace.
    pub vms: usize,
    /// Divide every byte quantity by this (1 = paper scale).
    pub scale: u64,
    /// VMD replication factor.
    pub replication: usize,
    /// Skew the demand ramp (donor 0 keeps almost nothing) instead of
    /// squeezing every donor evenly. Skew is what forces relocations.
    pub skew: bool,
    /// Run the skew-aware rebalancer.
    pub rebalance: bool,
    /// Utilization spread that triggers a rebalance move.
    pub rebalance_threshold: f64,
    /// When the donor-demand ramp fires, in seconds.
    pub ramp_start_secs: u64,
    /// Hard deadline for the run.
    pub deadline_secs: u64,
    /// Crash this VMD server mid-reclaim (racing the relocation pump),
    /// rejoining after 10 s. Requires `replication ≥ 2` for zero loss.
    pub crash_server: Option<u32>,
    /// When the crash fires, in seconds.
    pub crash_at_secs: u64,
    /// Master seed.
    pub seed: u64,
    /// Enable the event tracer (`pool_*` lines in the JSONL export).
    pub trace: bool,
    /// Swap tier stack on every VMD server (legacy Memory+Disk pair by
    /// default). A heat-driven stack with a cheap spill tier flips the
    /// reclaim pump from relocate-first to demote-first (see
    /// `agile_vmd::pool::reclaim_target`).
    pub tiers: agile_vmd::TierStackConfig,
}

impl Default for PressureConfig {
    fn default() -> Self {
        PressureConfig {
            donors: 3,
            vms: 4,
            scale: 1,
            replication: 2,
            skew: true,
            rebalance: true,
            rebalance_threshold: 0.10,
            ramp_start_secs: 5,
            deadline_secs: 300,
            crash_server: None,
            crash_at_secs: 8,
            seed: 42,
            trace: false,
            tiers: agile_vmd::TierStackConfig::default(),
        }
    }
}

/// Everything a pressure run reports. With equal seeds two runs produce
/// byte-identical `report`, `trace_jsonl`, and `metrics_json`.
#[derive(Clone, Debug, PartialEq)]
pub struct PressureResult {
    /// The deterministic pool report (leases, counters, audit, spread).
    pub report: String,
    /// Pool quiescent before the deadline.
    pub converged: bool,
    /// Directory slots whose replica set went empty (lost placements).
    pub lost_placements: u64,
    /// Replicas the directory expects, summed over namespaces.
    pub directory_replicas: u64,
    /// Pages actually stored across every server (both tiers).
    pub stored_pages: u64,
    /// Per-namespace `(ns, directory_replicas)`, namespace-sorted.
    pub per_namespace: Vec<(u32, u64)>,
    /// Order-sensitive FNV digest of the directory (ns, slot, replica
    /// order) — byte-equal across runs and across reclaim schedules that
    /// must preserve placement order.
    pub directory_digest: u64,
    /// Final per-server leases, pages, server-id order.
    pub final_leases: Vec<u64>,
    /// Final per-server utilization spread.
    pub final_spread: f64,
    /// Pool action counters.
    pub counters: PoolCounters,
    /// Metrics-registry JSON export.
    pub metrics_json: String,
    /// Total DES events executed (the golden-trace fingerprint).
    pub events_executed: u64,
    /// JSONL event trace (`Some` only when `cfg.trace` was set).
    pub trace_jsonl: Option<String>,
}

/// Conservation audit over the directory and the server stores.
fn audit(w: &World, namespaces: &[NamespaceId]) -> (u64, u64, Vec<(u32, u64)>, u64) {
    let dir = &w.vmd.directory;
    let mut lost = 0u64;
    let mut total = 0u64;
    let mut per_ns = Vec::with_capacity(namespaces.len());
    let mut words = Vec::new();
    for &ns in namespaces {
        let mut ns_total = 0u64;
        for slot in dir.namespace_slots(ns) {
            let reps = dir.replicas(ns, slot);
            if reps.is_empty() {
                lost += 1;
            }
            ns_total += reps.len() as u64;
            words.extend([u64::from(ns.0), u64::from(slot)]);
            words.extend(reps.as_slice().iter().map(|s| u64::from(s.0) + 1));
        }
        per_ns.push((ns.0, ns_total));
        total += ns_total;
    }
    (lost, total, per_ns, super::fnv1a(words))
}

/// What a pressure run keeps from set-up for its predicate and report.
pub struct Pressure {
    namespaces: Vec<NamespaceId>,
    initial_leases: Vec<u64>,
    ramp_at: SimTime,
    deadline: SimTime,
}

/// Run one elastic-pool pressure scenario.
pub fn run(cfg: &PressureConfig) -> PressureResult {
    super::run::<Pressure>(cfg)
}

/// Run several independent pressure scenarios as shards of one parallel
/// epoch harness. Every replica's result is byte-identical to [`run`] of
/// its config at any `workers` count.
pub fn run_replicated(cfgs: &[PressureConfig], workers: usize) -> Vec<PressureResult> {
    super::run_replicated::<Pressure>(cfgs, workers)
}

impl Scenario for Pressure {
    type Config = PressureConfig;
    type Output = PressureResult;

    /// Build the world: donors, the VMD pool, spilling VMs, the demand ramp.
    fn setup(cfg: &PressureConfig) -> (Simulation<World>, Self) {
        assert!(cfg.donors >= 2, "need at least two donor hosts");
        assert!(cfg.vms >= 1);
        let sc = cfg.scale.max(1);
        let donor_mem = 16 * GIB / sc;
        let donor_contrib = 12 * GIB / sc;
        let donor_disk = 16 * GIB / sc;
        let host_os = 300 * MIB / sc;
        let work_mem = 24 * GIB / sc;
        let vm_mem = 4 * GIB / sc;
        let resv = 2304 * MIB / sc; // 2.25 GiB: 1.75 GiB of cold spill per VM
                                    // The ramp's post-demand leases: skewed, donor 0 keeps almost nothing
                                    // and the rest keep two thirds; even, everyone keeps half. Either way
                                    // the total pool capacity roughly halves.
        let lease_target = |donor: usize| -> u64 {
            if !cfg.skew {
                donor_contrib / 2
            } else if donor == 0 {
                2 * GIB / sc
            } else {
                8 * GIB / sc
            }
        };

        let cluster_cfg = ClusterConfig {
            seed: cfg.seed,
            vmd_replication: cfg.replication,
            vmd_tiers: cfg.tiers,
            ..ClusterConfig::default()
        };
        let page = cluster_cfg.page_size;
        let mut b = ClusterBuilder::new(cluster_cfg);

        let donors: Vec<usize> = (0..cfg.donors)
            .map(|i| {
                let h = b.add_host(&format!("donor{i}"), donor_mem, host_os, false);
                b.add_vmd_server(h, donor_contrib, donor_disk);
                h
            })
            .collect();
        let work = b.add_host("work", work_mem, host_os, false);
        let namespaces: Vec<NamespaceId> = (0..cfg.vms)
            .map(|_| {
                let vm = b.add_vm(
                    work,
                    VmConfig {
                        mem_bytes: vm_mem,
                        page_size: page,
                        vcpus: 2,
                        reservation_bytes: resv,
                        guest_os_bytes: 300 * MIB / sc,
                    },
                    SwapKind::PerVmVmd,
                );
                b.preload_pages(vm, 0, (vm_mem / page) as u32);
                b.world().vms[vm].swap.namespace().expect("vmd-backed")
            })
            .collect();

        let mut sim = b.build();
        if cfg.trace {
            sim.state_mut().trace = agile_trace::Tracer::with_capacity(1 << 16);
        }
        poolctl::arm_pool(
            &mut sim,
            PoolConfig {
                rebalance: cfg.rebalance,
                rebalance_threshold: cfg.rebalance_threshold,
                ..PoolConfig::default()
            },
        );
        let initial_leases: Vec<u64> = sim
            .state()
            .vmd
            .servers
            .iter()
            .map(|e| e.server.lease_pages())
            .collect();

        // The donor-demand ramp: phantom reservations on each donor's ledger
        // stand in for its own workloads growing. The pool tick samples
        // `available_for_vms - reserved` and shrinks the lease toward the
        // target (slew-limited, so the reclaim pump is never stormed).
        //
        // Expressed as one single-step signal per donor carrying its *lease
        // target*; the firing converts target → phantom demand against the
        // donor's ledger at fire time (so `available_for_vms` is read when
        // the demand materializes, exactly like the historical closure).
        let ramp_at = SimTime::from_secs(cfg.ramp_start_secs);
        {
            let bindings: Vec<((usize, usize), Signal)> = donors
                .iter()
                .enumerate()
                .map(|(i, &h)| {
                    let target = lease_target(i);
                    (
                        (i, h),
                        Signal::ramp(ramp_at, SimDuration::from_secs(1), 1, 0.0, target as f64),
                    )
                })
                .collect();
            super::schedule_step_signals(
                &mut sim,
                bindings,
                SimTime::from_nanos(u64::MAX),
                |sim, (i, h), target| {
                    let w = sim.state_mut();
                    let avail = w.hosts[h].mem.available_for_vms();
                    let demand = avail.saturating_sub(target as u64);
                    w.hosts[h].mem.set_reservation(0xD000 + i as u64, demand);
                },
            );
        }
        if let Some(server) = cfg.crash_server {
            assert!(cfg.replication >= 2, "crashing below k=2 loses data");
            crate::chaosctl::install(
                &mut sim,
                agile_chaos::ChaosSchedule::builder()
                    .server_outage(
                        server,
                        SimTime::from_secs(cfg.crash_at_secs),
                        SimDuration::from_secs(10),
                    )
                    .build(),
            );
        }

        let deadline = SimTime::from_secs(cfg.deadline_secs);
        (
            sim,
            Pressure {
                namespaces,
                initial_leases,
                ramp_at,
                deadline,
            },
        )
    }

    fn deadline(&self) -> SimTime {
        self.deadline
    }

    /// After the ramp, the pool is quiescent: leases settled, no reclaim
    /// backlog, no relocations or repairs in flight, no planned rebalance
    /// move, and every swap I/O drained.
    fn settled(&self, sim: &Simulation<World>) -> bool {
        let w = sim.state();
        sim.now() > self.ramp_at
            && !poolctl::reclaim_backlog(w)
            && !poolctl::relocations_inflight(w)
            && !poolctl::rebalance_pending(w)
            && w.chaos.repair_queue.is_empty()
            && w.swap_reqs.is_empty()
    }

    /// Disarm the pool and assemble the deterministic result.
    fn finish(&self, mut sim: Simulation<World>, cfg: &PressureConfig) -> PressureResult {
        let sc = cfg.scale.max(1);
        poolctl::disarm_pool(&mut sim);

        let events_executed = sim.events_executed();
        let w = sim.state();
        let converged = sim.now() < self.deadline;
        let (lost_placements, directory_replicas, per_namespace, directory_digest) =
            audit(w, &self.namespaces);
        let stored_pages: u64 = w.vmd.servers.iter().map(|e| e.server.stored_pages()).sum();
        let final_leases: Vec<u64> = w
            .vmd
            .servers
            .iter()
            .map(|e| e.server.lease_pages())
            .collect();
        let final_spread = poolctl::spread(w);
        let p = w.pool.as_ref().expect("pool armed");
        let counters = p.counters;
        let metrics_json = crate::report::metrics_registry(w).to_json();

        let mut report = String::new();
        {
            use std::fmt::Write;
            let _ = writeln!(report, "# elastic pool pressure report");
            let _ = writeln!(
                report,
                "seed={} scale={} donors={} vms={} k={} skew={} rebalance={} threshold={:?} \
             crash={:?}",
                cfg.seed,
                sc,
                cfg.donors,
                cfg.vms,
                cfg.replication,
                cfg.skew,
                cfg.rebalance,
                cfg.rebalance_threshold,
                cfg.crash_server,
            );
            let _ = writeln!(report, "leases (pages):");
            for (s, (init, fin)) in self.initial_leases.iter().zip(&final_leases).enumerate() {
                let _ = writeln!(report, "  server{s} initial={init} final={fin}");
            }
            let _ = writeln!(report, "servers:");
            for (s, e) in w.vmd.servers.iter().enumerate() {
                let _ = writeln!(
                    report,
                    "  server{s} mem={} disk={} free={} alive={}",
                    e.server.mem_used_pages(),
                    e.server.disk_pages(),
                    e.server.free_pages(),
                    e.alive,
                );
            }
            let _ = writeln!(report, "namespaces:");
            for &(ns, total) in &per_namespace {
                let _ = writeln!(report, "  ns{ns} directory_replicas={total}");
            }
            let _ = writeln!(
                report,
                "audit: lost_placements={lost_placements} directory_replicas={directory_replicas} \
             stored_pages={stored_pages} digest={directory_digest:#018x}"
            );
            let _ = writeln!(
                report,
                "counters: shrunk={} grown={} relocated={} demoted={} aborted={} rebalances={} \
             throttled={} deferred_shrinks={}",
                counters.leases_shrunk,
                counters.leases_grown,
                counters.pages_relocated,
                counters.pages_demoted,
                counters.relocations_aborted,
                counters.rebalance_moves,
                counters.throttled_flushes,
                counters.deferred_shrinks,
            );
            let _ = writeln!(
                report,
                "spread={final_spread:?} converged={converged} events_executed={events_executed}",
            );
        }

        PressureResult {
            report,
            converged,
            lost_placements,
            directory_replicas,
            stored_pages,
            per_namespace,
            directory_digest,
            final_leases,
            final_spread,
            counters,
            metrics_json,
            events_executed,
            trace_jsonl: cfg.trace.then(|| w.trace.to_jsonl()),
        }
    }
}
