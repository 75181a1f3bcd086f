//! Cluster-scale watermark rebalancing: N hosts × M VMs under the
//! [`crate::sched`] scheduler.
//!
//! The VMs start packed on the first half of the working hosts with
//! modest reservations; a scripted load ramp then raises every
//! reservation (the stand-in for growing working sets, as in the paper's
//! §IV-D experiments), pushing the packed hosts over their high
//! watermarks. The scheduler selects the fewest VMs per overloaded host
//! and places them on the empty hosts under the admission cap; the run
//! ends when every managed host sits at or below its high watermark with
//! nothing queued or in flight.
//!
//! The default sizing (4 hosts × 8 VMs, cap 2) exercises every scheduler
//! path deterministically: both packed hosts fire in the same tick, two
//! migrations start, two selections queue behind the cap and start as
//! slots free, and least-loaded placement spreads the four VMs across
//! both empty hosts — with zero ping-pong (no VM migrates twice).

use agile_migration::Technique;
use agile_sim_core::{SimDuration, SimTime, Simulation, GIB, MIB};
use agile_vm::VmConfig;
use agile_workload::Signal;
use agile_wss::WatermarkTrigger;

use crate::build::{ClusterBuilder, SwapKind};
use crate::config::ClusterConfig;
use crate::scenario::testbed::paper_source;
use crate::scenario::{set_reservation, Scenario};
use crate::sched::{self, ManagedHost, PlacementPolicy, SchedConfig, SchedCounters};
use crate::world::World;

/// One multihost rebalancing run.
#[derive(Clone, Debug)]
pub struct MultihostConfig {
    /// Working hosts under scheduler management (≥ 2).
    pub hosts: usize,
    /// VMs, packed contiguously onto the first `hosts / 2` hosts.
    pub vms: usize,
    /// Divide every byte quantity by this (1 = paper scale).
    pub scale: u64,
    /// Destination selection policy.
    pub policy: PlacementPolicy,
    /// Admission-control cap on concurrent migrations.
    pub max_in_flight: usize,
    /// Ping-pong guard margin (fraction of the low→high band).
    pub hysteresis: f64,
    /// Low watermark as a fraction of each host's VM-available memory.
    pub low_frac: f64,
    /// High watermark fraction.
    pub high_frac: f64,
    /// When the load ramp fires, in seconds.
    pub ramp_start_secs: u64,
    /// Ramp steps (1 = a single jump to the target reservation).
    pub ramp_steps: u32,
    /// Seconds between ramp steps.
    pub ramp_interval_secs: u64,
    /// Hard deadline for the run.
    pub deadline_secs: u64,
    /// Master seed.
    pub seed: u64,
    /// Enable the event tracer (scheduler decisions then appear as
    /// `sched_decision` lines in the JSONL export).
    pub trace: bool,
}

impl Default for MultihostConfig {
    fn default() -> Self {
        MultihostConfig {
            hosts: 4,
            vms: 8,
            scale: 1,
            policy: PlacementPolicy::LeastLoaded,
            max_in_flight: 2,
            hysteresis: 0.25,
            low_frac: 0.60,
            high_frac: 0.75,
            ramp_start_secs: 12,
            ramp_steps: 1,
            ramp_interval_secs: 10,
            deadline_secs: 600,
            seed: 42,
            trace: false,
        }
    }
}

/// One completed (or still-running) migration, for the report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigRecord {
    /// The migrated VM.
    pub vm: usize,
    /// Source host.
    pub src: usize,
    /// Destination host.
    pub dest: usize,
    /// When the migration started (ns).
    pub start_ns: u64,
    /// When it finalized (ns); `u64::MAX` if it never did.
    pub end_ns: u64,
    /// Bytes on the migration channels.
    pub bytes: u64,
    /// Whether it finalized before the deadline.
    pub finished: bool,
}

/// Everything a multihost run reports. With equal seeds two runs produce
/// byte-identical `report`, `trace_jsonl`, and `metrics_json` — the
/// golden test pins that down.
#[derive(Clone, Debug, PartialEq)]
pub struct MultihostResult {
    /// The deterministic rebalance report (watermarks, decisions,
    /// migrations, final per-host aggregates, counters).
    pub report: String,
    /// Every host at or below its high watermark, nothing queued or in
    /// flight, before the deadline.
    pub converged: bool,
    /// Per-migration records, in start order.
    pub migrations: Vec<MigRecord>,
    /// Final aggregate WSS per managed host.
    pub final_aggregates: Vec<u64>,
    /// High watermark per managed host.
    pub high_bytes: Vec<u64>,
    /// Most times any single VM migrated (1 = zero ping-pong).
    pub max_vm_migrations: u32,
    /// Scheduler counters.
    pub counters: SchedCounters,
    /// Metrics-registry JSON export.
    pub metrics_json: String,
    /// Total DES events executed (the golden-trace fingerprint).
    pub events_executed: u64,
    /// JSONL event trace (`Some` only when `cfg.trace` was set).
    pub trace_jsonl: Option<String>,
}

/// What a multihost run keeps from set-up for its predicate and report.
pub struct Multihost {
    managed: Vec<ManagedHost>,
    ramp_end: SimTime,
    deadline: SimTime,
}

/// Run one multihost rebalancing scenario.
pub fn run(cfg: &MultihostConfig) -> MultihostResult {
    super::run::<Multihost>(cfg)
}

/// Run several independent multihost scenarios as shards of one parallel
/// epoch harness. Every replica's result is byte-identical to [`run`] of
/// its config at any `workers` count — the equivalence tests pin this.
pub fn run_replicated(cfgs: &[MultihostConfig], workers: usize) -> Vec<MultihostResult> {
    super::run_replicated::<Multihost>(cfgs, workers)
}

impl Scenario for Multihost {
    type Config = MultihostConfig;
    type Output = MultihostResult;

    /// Build the world: hosts, VMD pool, packed VMs, scheduler, load ramp.
    fn setup(cfg: &MultihostConfig) -> (Simulation<World>, Self) {
        assert!(cfg.hosts >= 2, "need at least two working hosts");
        assert!(cfg.vms >= 1);
        let sc = cfg.scale.max(1);
        let host_mem = 24 * GIB / sc;
        let host_os = 300 * MIB / sc;
        let vm_mem = 8 * GIB / sc;
        let guest_os = 300 * MIB / sc;
        let resv_start = 2 * GIB / sc;
        let resv_target = 5632 * MIB / sc; // 5.5 GiB: 4 ramped VMs overflow a host

        let cluster_cfg = ClusterConfig {
            seed: cfg.seed,
            ..ClusterConfig::default()
        };
        let page = cluster_cfg.page_size;
        let mut b = ClusterBuilder::new(cluster_cfg);

        let working: Vec<usize> = (0..cfg.hosts)
            .map(|i| b.add_host(&format!("host{i}"), host_mem, host_os, false))
            .collect();
        // Intermediate hosts whose spare memory backs the VMD pool (large
        // enough for every VM's cold spill plus destination-side evictions).
        for i in 0..2 {
            let im = b.add_host(&format!("intermediate{i}"), 48 * GIB / sc, host_os, false);
            b.add_vmd_server(im, 40 * GIB / sc, 0);
        }
        // Every working host can bind portable namespaces (placement
        // feasibility requires the destination to run a VMD client).
        for &h in &working {
            b.ensure_vmd_client(h);
        }

        // Pack the VMs contiguously onto the first half of the working hosts.
        let packed = (cfg.hosts / 2).max(1);
        let per_host = cfg.vms.div_ceil(packed);
        let vms: Vec<usize> = (0..cfg.vms)
            .map(|i| {
                let host = working[(i / per_host).min(packed - 1)];
                let vm = b.add_vm(
                    host,
                    VmConfig {
                        mem_bytes: vm_mem,
                        page_size: page,
                        vcpus: 2,
                        reservation_bytes: resv_start,
                        guest_os_bytes: guest_os,
                    },
                    SwapKind::PerVmVmd,
                );
                b.preload_pages(vm, 0, (vm_mem / page) as u32);
                vm
            })
            .collect();

        let mut sim = b.build();
        if cfg.trace {
            sim.state_mut().trace = agile_trace::Tracer::with_capacity(1 << 17);
        }

        // Watermarks per managed host, from its VM-available memory.
        let managed: Vec<ManagedHost> = working
            .iter()
            .map(|&h| ManagedHost {
                host: h,
                trigger: WatermarkTrigger::fractions(
                    sim.state().hosts[h].mem.available_for_vms(),
                    cfg.low_frac,
                    cfg.high_frac,
                ),
            })
            .collect();
        let sched_cfg = SchedConfig {
            policy: cfg.policy,
            max_in_flight: cfg.max_in_flight,
            hysteresis: cfg.hysteresis,
            cooldown: SimDuration::from_secs(600),
            verify_content: true,
            ..SchedConfig::new(paper_source(Technique::Agile, sc))
        };
        sched::arm_scheduler(&mut sim, managed.clone(), sched_cfg);

        // The load ramp, expressed as a staircase signal: every VM's
        // reservation steps toward the target in `ramp_steps` equal
        // increments (integer-exact, see `Signal::Ramp`). VMs caught
        // mid-migration skip the step; with the default single-step ramp
        // nothing is migrating yet.
        let steps = cfg.ramp_steps.max(1);
        let ramp = Signal::ramp(
            SimTime::from_secs(cfg.ramp_start_secs),
            SimDuration::from_secs(cfg.ramp_interval_secs),
            steps,
            resv_start as f64,
            resv_target as f64,
        );
        let bindings: Vec<(usize, Signal)> = vms.iter().map(|&vm| (vm, ramp.clone())).collect();
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

        let ramp_end =
            SimTime::from_secs(cfg.ramp_start_secs + u64::from(steps - 1) * cfg.ramp_interval_secs);
        let deadline = SimTime::from_secs(cfg.deadline_secs);
        (
            sim,
            Multihost {
                managed,
                ramp_end,
                deadline,
            },
        )
    }

    fn deadline(&self) -> SimTime {
        self.deadline
    }

    /// Rebalanced and quiescent after the ramp.
    fn settled(&self, sim: &Simulation<World>) -> bool {
        super::sched_settled(sim, &self.managed, self.ramp_end)
    }

    /// Disarm the scheduler and assemble the deterministic result.
    fn finish(&self, mut sim: Simulation<World>, cfg: &MultihostConfig) -> MultihostResult {
        let managed = &self.managed;
        let sc = cfg.scale.max(1);
        sched::disarm_scheduler(&mut sim);

        let events_executed = sim.events_executed();
        let w = sim.state();
        let s = w.sched.as_ref().expect("scheduler armed");

        let migrations: Vec<MigRecord> = w
            .migrations
            .iter()
            .map(|m| {
                let met = m.src.metrics();
                MigRecord {
                    vm: m.vm,
                    src: m.source_host,
                    dest: m.dest_host,
                    start_ns: met.started_at.as_nanos(),
                    end_ns: met.completed_at.map(|t| t.as_nanos()).unwrap_or(u64::MAX),
                    bytes: met.migration_bytes,
                    finished: m.finished,
                }
            })
            .collect();
        let final_aggregates: Vec<u64> = managed
            .iter()
            .map(|mh| sched::host_aggregate(w, mh.host))
            .collect();
        let high_bytes: Vec<u64> = managed.iter().map(|mh| mh.trigger.high_bytes).collect();
        let converged = sim.now() < self.deadline
            && final_aggregates
                .iter()
                .zip(&high_bytes)
                .all(|(agg, high)| agg <= high)
            && s.queue.is_empty()
            && s.inflight.is_empty();
        let max_vm_migrations = s.times_migrated.iter().copied().max().unwrap_or(0);
        let metrics_json = crate::report::metrics_registry(w).to_json();

        let mut report = String::new();
        {
            use std::fmt::Write;
            let _ = writeln!(report, "# multihost rebalance report");
            let _ = writeln!(
                report,
                "seed={} scale={} hosts={} vms={} policy={} cap={} hysteresis={:?} \
             low_frac={:?} high_frac={:?}",
                cfg.seed,
                sc,
                cfg.hosts,
                cfg.vms,
                cfg.policy.name(),
                cfg.max_in_flight,
                cfg.hysteresis,
                cfg.low_frac,
                cfg.high_frac,
            );
            let _ = writeln!(report, "watermarks:");
            for mh in managed {
                let _ = writeln!(
                    report,
                    "  host{} low={} high={}",
                    mh.host, mh.trigger.low_bytes, mh.trigger.high_bytes
                );
            }
            let _ = writeln!(report, "decisions:");
            for d in &s.decisions {
                let _ = writeln!(
                    report,
                    "  t_ns={} vm={} src={} dest={} action={}",
                    d.at.as_nanos(),
                    d.vm,
                    d.src,
                    d.dest.map(|h| h as i64).unwrap_or(-1),
                    d.action.name(),
                );
            }
            let _ = writeln!(report, "migrations:");
            for (i, m) in migrations.iter().enumerate() {
                let _ = writeln!(
                    report,
                    "  mig={} vm={} src={} dest={} start_ns={} end_ns={} bytes={} finished={}",
                    i, m.vm, m.src, m.dest, m.start_ns, m.end_ns, m.bytes, m.finished,
                );
            }
            let _ = writeln!(report, "final:");
            for (i, mh) in managed.iter().enumerate() {
                let _ = writeln!(
                    report,
                    "  host{} aggregate={} high={} ok={}",
                    mh.host,
                    final_aggregates[i],
                    high_bytes[i],
                    final_aggregates[i] <= high_bytes[i],
                );
            }
            let c = s.counters;
            let _ = writeln!(
                report,
                "counters: started={} queued={} deferred={} dropped={} completed={} \
             max_in_flight={}",
                c.started,
                c.queued,
                c.deferred_no_dest,
                c.dropped_recovered,
                c.completed,
                c.max_in_flight_observed,
            );
            let _ = writeln!(
                report,
                "converged={converged} max_vm_migrations={max_vm_migrations} \
             events_executed={events_executed}",
            );
        }

        MultihostResult {
            report,
            converged,
            migrations,
            final_aggregates,
            high_bytes,
            max_vm_migrations,
            counters: s.counters,
            metrics_json,
            events_executed,
            trace_jsonl: cfg.trace.then(|| w.trace.to_jsonl()),
        }
    }
}
