//! Swap-tier-stack sweep: scarce pool DRAM spilling to the host SSD
//! versus cheap CXL-like far memory, under a migration whose downtime
//! actually reads the swap stack.
//!
//! The question the sweep answers is the sizing trade the tier stack
//! exists for: when the VMD's DRAM pool is ample, raw remote DRAM is
//! unbeatable — every guest fault pays only the network round trip. As
//! the pool shrinks relative to the VM's spilled state, the legacy
//! stack starts serving faults from the host's queued SSD (~90 µs plus
//! contention), while a stack that trades *half* its DRAM for an ample
//! fixed-latency far-memory tier keeps every spilled page within a few
//! microseconds of device time. Somewhere between those extremes the
//! curves cross; `BENCH_5.json` pins that crossover on the guest-visible
//! fault-latency distribution and on migration downtime.
//!
//! Each sweep point runs one heavily over-committed VM whose scripted
//! write scan sweeps the spilled range — every touch is a major fault
//! through the tier stack, and every fault-in evicts a recently-dirtied
//! page back *into* the stack. The migration leg is a round-capped
//! pre-copy (classic stop-and-copy after one warm-up pass): its final
//! pass must pull the dirtied-then-evicted pages back through the tier
//! stack *while the VM is suspended*, so downtime — not just fault
//! latency — carries the tier tax. (An Agile migration's downtime is
//! swap-independent by design; pre-copy is the probe that makes the
//! tier cost visible in downtime.)
//!
//! Every guest major fault — local writeback hit, remote DRAM, SSD, or
//! far-memory read — lands in one [`FixedHistogram`] through the single
//! completion funnel, so the histograms are directly comparable across
//! arms and byte-deterministic at any worker count ([`run_replicated`]
//! drives the same worlds through the sharded epoch harness).

use agile_migration::{SourceConfig, Technique};
use agile_sim_core::{FixedHistogram, SimDuration, SimTime, Simulation, GIB, MIB};
use agile_vm::VmConfig;
use agile_vmd::{HeatPolicy, TierCapacity, TierSpec, TierStackConfig};

use crate::build::{start_all_workloads, ClusterBuilder, SwapKind};
use crate::config::ClusterConfig;
use crate::guest;
use crate::migrate;
use crate::scenario::Scenario;
use crate::world::{OpExec, World};

/// Which spill stack backs a sweep point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TierArm {
    /// All the DRAM the point allows, spilling to the host's queued SSD
    /// (the legacy pair under pressure, heat-driven).
    ScarceDram,
    /// Three quarters of the point's DRAM traded for an ample CXL-like
    /// far-memory tier at a fixed few-microsecond page cost.
    FarMemory,
}

impl TierArm {
    /// Stable label used in reports and file names.
    pub fn label(self) -> &'static str {
        match self {
            TierArm::ScarceDram => "scarce_dram",
            TierArm::FarMemory => "far_memory",
        }
    }
}

/// One tier-sweep point.
#[derive(Clone, Debug)]
pub struct TiersConfig {
    /// The spill stack under test.
    pub arm: TierArm,
    /// Pool DRAM as a percentage of the VM's spilled pages — the sweep
    /// axis. 240 % is "ample" (the whole migration-time footprint fits
    /// in remote DRAM for the [`TierArm::ScarceDram`] arm, see
    /// [`sweep_points`]); 15 % is deep scarcity.
    pub dram_pct: u64,
    /// VM memory size in bytes (pre-scale).
    pub vm_mem: u64,
    /// Host memory (far smaller than `vm_mem`: the deep over-commit is
    /// what keeps the scan faulting through the stack).
    pub host_mem: u64,
    /// Scripted-scan inter-touch gap in microseconds.
    pub scan_period_us: u64,
    /// Split the spill tier into two equal-cost halves. Placement is
    /// cost-ordered, so this must be behaviorally invisible — the
    /// metamorphic tier-collapse tests pin byte-identical histograms.
    pub split_spill: bool,
    /// Divide every byte quantity by this (1 = paper scale).
    pub scale: u64,
    /// Warm-up before the migration starts.
    pub warmup_secs: u64,
    /// Hard deadline for the run.
    pub deadline_secs: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for TiersConfig {
    fn default() -> Self {
        TiersConfig {
            arm: TierArm::ScarceDram,
            dram_pct: 240,
            vm_mem: 4 * GIB,
            host_mem: 640 * MIB,
            scan_period_us: 500,
            split_spill: false,
            scale: 1,
            warmup_secs: 10,
            deadline_secs: 2000,
            seed: 42,
        }
    }
}

/// The sweep axis: ample → deeply scarce pool DRAM. "Ample" is 240 % of
/// the spilled set because the pre-copy leg double-buffers the image —
/// the source's placed slots stay on the servers until finalize while
/// the destination evicts its own copy into the same namespace — so
/// covering both sides takes roughly `vm_pages + spill_pages`.
pub fn sweep_points() -> Vec<u64> {
    vec![240, 60, 30, 15]
}

/// The full sweep: every point under both arms, ordered point-major so
/// the two arms of one point sit adjacent in reports.
pub fn sweep(scale: u64, seed: u64) -> Vec<TiersConfig> {
    let mut cfgs = Vec::new();
    for pct in sweep_points() {
        for arm in [TierArm::ScarceDram, TierArm::FarMemory] {
            cfgs.push(TiersConfig {
                arm,
                dram_pct: pct,
                scale,
                seed,
                ..TiersConfig::default()
            });
        }
    }
    cfgs
}

/// Everything a tier-sweep point reports. With equal configs two runs
/// produce byte-identical values at any worker count.
#[derive(Clone, Debug, PartialEq)]
pub struct TiersResult {
    /// Deterministic per-point report.
    pub report: String,
    /// Migration completed before the deadline.
    pub finished: bool,
    /// Total migration time in nanoseconds (`u64::MAX` if unfinished).
    pub migration_ns: u64,
    /// Migration downtime in nanoseconds (`u64::MAX` if unfinished).
    pub downtime_ns: u64,
    /// Bytes on the migration channels.
    pub migration_bytes: u64,
    /// Guest major faults observed (histogram population).
    pub faults: u64,
    /// Mean fault latency in exact nanoseconds (sum / count).
    pub fault_mean_ns: u64,
    /// Guest-visible fault-latency quantiles (bucket-ceiling ns).
    pub fault_p50_ns: u64,
    /// 99th percentile fault latency.
    pub fault_p99_ns: u64,
    /// Worst observed fault latency (exact, not bucketed).
    pub fault_max_ns: u64,
    /// Final per-tier page occupancy on the intermediate server.
    pub tier_pages: Vec<u64>,
    /// FNV-1a digest of the full histogram (all bucket counts + max).
    pub hist_digest: u64,
    /// Total DES events executed (the golden-trace fingerprint).
    pub events_executed: u64,
}

/// What a tier-sweep point keeps from set-up.
struct Tiers {
    deadline: SimTime,
}

/// Run one tier-sweep point sequentially.
pub fn run(cfg: &TiersConfig) -> TiersResult {
    super::run::<Tiers>(cfg)
}

/// Run several sweep points as shards of one parallel epoch harness.
/// Every point's result is byte-identical to [`run`] at any `workers`
/// count.
pub fn run_replicated(cfgs: &[TiersConfig], workers: usize) -> Vec<TiersResult> {
    super::run_replicated::<Tiers>(cfgs, workers)
}

/// One scripted-scan touch: a write sweeping the spilled pfn range. The
/// chain stops once the migration finished (so in-flight swap I/O can
/// drain) and skips touches while the VM cannot execute (suspension).
fn scan_tick(sim: &mut Simulation<World>, vm: usize, range: u32, cursor: u32, period: SimDuration) {
    {
        let w = sim.state();
        if w.migrations.first().map(|m| m.finished).unwrap_or(false) {
            return;
        }
        if !w.vms[vm].vm.state().can_execute() {
            sim.schedule_in(period, move |sim| {
                scan_tick(sim, vm, range, cursor, period);
            });
            return;
        }
    }
    let mut touches = agile_workload::TouchList::new();
    touches.push(cursor % range, true);
    let id = sim.state_mut().alloc_op(OpExec {
        gen: 0,
        vm,
        touches,
        idx: 0,
        cpu: SimDuration::ZERO,
        response_bytes: 0,
        counts: false,
        respond: false,
    });
    let gen = sim.state().op(id).expect("fresh op").gen;
    guest::step_op(sim, id, gen);
    let next = cursor.wrapping_add(1) % range;
    sim.schedule_in(period, move |sim| {
        scan_tick(sim, vm, range, next, period);
    });
}

impl Scenario for Tiers {
    type Config = TiersConfig;
    type Output = TiersResult;

    /// Build one sweep point: the tier stack, the over-committed VM, the
    /// armed histogram, the scripted scan, and the scheduled migration.
    fn setup(cfg: &TiersConfig) -> (Simulation<World>, Self) {
        let sc = cfg.scale.max(1);
        let host_mem = cfg.host_mem / sc;
        let vm_mem = cfg.vm_mem / sc;
        let host_os = 128 * MIB / sc;
        let guest_os = 128 * MIB / sc;
        let reservation = (host_mem - host_os).min(vm_mem);

        let mut cluster_cfg = ClusterConfig {
            seed: cfg.seed,
            ..ClusterConfig::default()
        };
        let page = cluster_cfg.page_size;
        // The VM's spilled state: everything its reservation cannot hold.
        let spill_pages = (vm_mem.saturating_sub(reservation) / page).max(1);
        let dram_pages = (spill_pages * cfg.dram_pct / 100).max(2);
        let spill_tier = |spec: TierSpec| -> Vec<TierSpec> {
            if cfg.split_spill {
                // Two equal-cost halves of the same spill capacity; the
                // cost-ordered placement must make this invisible.
                let mut half = spec;
                half.capacity = TierCapacity::Pages(2 * spill_pages);
                vec![half, half]
            } else {
                let mut whole = spec;
                whole.capacity = TierCapacity::Pages(4 * spill_pages);
                vec![whole]
            }
        };
        let (spill_specs, mem_bytes) = match cfg.arm {
            TierArm::ScarceDram => (spill_tier(TierSpec::host_ssd()), dram_pages * page),
            TierArm::FarMemory => (
                // ~2 µs CXL load/store latency + 4 KiB at 16 GiB/s.
                spill_tier(TierSpec::far_memory(
                    0, // capacity overridden by spill_tier
                    SimDuration::from_micros(2),
                    16 << 30,
                    page,
                )),
                (dram_pages / 4).max(1) * page,
            ),
        };
        let mut tiers = vec![TierSpec::dram()];
        tiers.extend(spill_specs);
        cluster_cfg.vmd_tiers = TierStackConfig::new(&tiers, HeatPolicy::heat_driven());

        let mut b = ClusterBuilder::new(cluster_cfg);
        let src_host = b.add_host("source", host_mem, host_os, true);
        let dst_host = b.add_host("dest", host_mem, host_os, true);
        let im = b.add_host("intermediate", 64 * GIB / sc, host_os, true);
        b.add_vmd_server(im, mem_bytes, 0);
        b.ensure_vmd_client(dst_host);

        let vm = b.add_vm(
            src_host,
            VmConfig {
                mem_bytes: vm_mem,
                page_size: page,
                vcpus: 2,
                reservation_bytes: reservation,
                guest_os_bytes: guest_os,
            },
            SwapKind::PerVmVmd,
        );
        b.preload_pages(vm, 0, (vm_mem / page) as u32);

        let mut sim = b.build();
        sim.state_mut().fault_hist = Some(Box::new(FixedHistogram::new()));
        start_all_workloads(&mut sim, SimTime::from_secs(1));

        // The scripted write scan over the spilled range: every touch is a
        // major fault through the tier stack, every fault-in evicts a
        // recently-dirtied page back into it.
        let scan_range = spill_pages as u32;
        let period = SimDuration::from_micros(cfg.scan_period_us.max(1));
        sim.schedule_at(SimTime::from_secs(1) + period, move |sim| {
            scan_tick(sim, vm, scan_range, 0, period);
        });

        sim.schedule_at(SimTime::from_secs(cfg.warmup_secs), move |sim| {
            let dest_resv = {
                let w = sim.state();
                w.hosts[dst_host]
                    .mem
                    .available_for_vms()
                    .min(w.vms[vm].vm.config().mem_bytes)
            };
            // Round-capped pre-copy: one warm-up pass, then stop-and-copy.
            // The final pass pulls dirtied-then-evicted pages back through
            // the tier stack while the VM is suspended.
            let src_cfg = SourceConfig {
                precopy_threshold_pages: 64,
                precopy_max_rounds: 1,
                ..SourceConfig::new(Technique::PreCopy)
            };
            migrate::start_migration(sim, vm, dst_host, src_cfg, dest_resv);
        });

        (
            sim,
            Tiers {
                deadline: SimTime::from_secs(cfg.deadline_secs),
            },
        )
    }

    fn deadline(&self) -> SimTime {
        self.deadline
    }

    /// The migration finished and every swap I/O and repair drained.
    fn settled(&self, sim: &Simulation<World>) -> bool {
        let w = sim.state();
        let mig_done = w.migrations.first().map(|m| m.finished).unwrap_or(false);
        mig_done && w.swap_reqs.is_empty() && w.chaos.repair_queue.is_empty()
    }

    /// Assemble the deterministic per-point result.
    fn finish(&self, sim: Simulation<World>, cfg: &TiersConfig) -> TiersResult {
        let events_executed = sim.events_executed();
        let w = sim.state();
        let finished = w.migrations.first().map(|m| m.finished).unwrap_or(false);
        let metrics = w.migrations[0].src.metrics();
        let migration_ns = metrics
            .total_time()
            .map(|d| d.as_nanos())
            .unwrap_or(u64::MAX);
        let downtime_ns = metrics.downtime().map(|d| d.as_nanos()).unwrap_or(u64::MAX);
        let hist = w.fault_hist.as_deref().expect("histogram armed in setup");
        let server = &w.vmd.servers[0].server;
        let tier_pages: Vec<u64> = (0..server.tier_count())
            .map(|t| server.tier_used_pages(t as u8))
            .collect();

        let digest = super::fnv1a(hist.buckets().iter().copied().chain([hist.max_ns()]));

        let faults = hist.count();
        let fault_mean_ns = hist.sum_ns() / faults.max(1);
        let fault_p50_ns = hist.quantile_ceil_ns(50.0);
        let fault_p99_ns = hist.quantile_ceil_ns(99.0);
        let fault_max_ns = hist.max_ns();

        let mut report = String::new();
        {
            use std::fmt::Write;
            let _ = writeln!(
                report,
                "# tiers arm={} dram_pct={} split={} scale={} seed={}",
                cfg.arm.label(),
                cfg.dram_pct,
                cfg.split_spill,
                cfg.scale.max(1),
                cfg.seed,
            );
            let _ = writeln!(
                report,
                "migration: finished={finished} total_ns={migration_ns} downtime_ns={downtime_ns} \
             bytes={}",
                metrics.migration_bytes,
            );
            let _ = writeln!(
                report,
                "faults: n={faults} mean_ns={fault_mean_ns} p50_ns={fault_p50_ns} \
             p99_ns={fault_p99_ns} max_ns={fault_max_ns}",
            );
            let _ = writeln!(
                report,
                "tiers: pages={tier_pages:?} hist_digest={digest:#018x} \
             events_executed={events_executed}",
            );
        }

        TiersResult {
            report,
            finished,
            migration_ns,
            downtime_ns,
            migration_bytes: metrics.migration_bytes,
            faults,
            fault_mean_ns,
            fault_p50_ns,
            fault_p99_ns,
            fault_max_ns,
            tier_pages,
            hist_digest: digest,
            events_executed,
        }
    }
}
