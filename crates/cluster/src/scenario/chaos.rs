//! Fault-injection scenario: an Agile migration under a deterministic
//! [`ChaosSchedule`] (VMD server crashes and rejoins, NIC degradation,
//! swap-latency spikes, migration connection drops).
//!
//! The setup mirrors the single-VM sweep of §V-B: the VM outgrows its
//! host, so a large fraction of its memory lives in the portable VMD
//! namespace when the migration starts — which is exactly the state a
//! VMD server crash puts at risk. With `replication >= 2` the scenario
//! must complete with zero lost pages and a byte-identical destination
//! image (the end-to-end version check is armed); with `replication = 1`
//! losses are *reported*, never panicked on.

use agile_chaos::ChaosSchedule;
use agile_migration::{SourceConfig, Technique};
use agile_sim_core::{SimTime, GIB, MIB};
use agile_vm::VmConfig;

use crate::build::{start_all_workloads, ClusterBuilder, SwapKind};
use crate::chaosctl::{self, CrashRecord};
use crate::config::ClusterConfig;
use crate::migrate;

/// One chaos run.
#[derive(Clone, Debug)]
pub struct ChaosScenarioConfig {
    /// Migration technique under test (the recovery paths target Agile;
    /// baselines run too, for comparison).
    pub technique: Technique,
    /// VM memory size in bytes.
    pub vm_mem: u64,
    /// Host memory (smaller than `vm_mem`, so state spills to the VMD).
    pub host_mem: u64,
    /// Divide every byte quantity by this (1 = paper scale).
    pub scale: u64,
    /// VMD replication factor `k` (1 = no redundancy, legacy behavior).
    pub replication: usize,
    /// Number of intermediate hosts contributing VMD servers.
    pub vmd_servers: usize,
    /// The fault schedule to inject (times are absolute sim times).
    pub schedule: ChaosSchedule,
    /// Arm the end-to-end content check at finalize. Leave off for runs
    /// that legitimately lose state (`replication = 1` under a crash).
    pub verify_content: bool,
    /// Warm-up before the migration starts.
    pub warmup_secs: u64,
    /// Hard deadline for the run.
    pub deadline_secs: u64,
    /// Master seed.
    pub seed: u64,
    /// Enable the event tracer (off by default; chaos fault windows then
    /// appear as `chaos_fault` spans in the JSONL export).
    pub trace: bool,
    /// Swap tier stack on every VMD server (legacy Memory+Disk pair by
    /// default). Multi-tier stacks put demotions in flight across tier
    /// boundaries for the crash schedule to interrupt.
    pub tiers: agile_vmd::TierStackConfig,
}

impl Default for ChaosScenarioConfig {
    fn default() -> Self {
        ChaosScenarioConfig {
            technique: Technique::Agile,
            vm_mem: 8 * GIB,
            host_mem: 6 * GIB,
            scale: 1,
            replication: 2,
            vmd_servers: 2,
            schedule: ChaosSchedule::none(),
            verify_content: true,
            warmup_secs: 30,
            deadline_secs: 4000,
            seed: 42,
            trace: false,
            tiers: agile_vmd::TierStackConfig::legacy(),
        }
    }
}

/// Everything a chaos run reports. With equal seeds and schedules two
/// runs produce byte-identical `Debug` renderings of this struct — the
/// determinism tests pin that down.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosScenarioResult {
    /// Whether the migration completed before the deadline.
    pub finished: bool,
    /// Total migration time in seconds (NaN if unfinished).
    pub migration_secs: f64,
    /// Downtime in seconds (NaN if unfinished).
    pub downtime_secs: f64,
    /// Bytes on the migration channels.
    pub migration_bytes: u64,
    /// Abort-and-retry cycles the migration went through.
    pub retries: u32,
    /// Pages zero-filled because neither the source (connection down)
    /// nor a swap copy could supply them.
    pub pages_lost_on_conn_drop: u64,
    /// Swap slots whose every replica died with crashed servers.
    pub slots_lost: u64,
    /// Slots re-replicated from survivors by the background pump.
    pub slots_repaired: u64,
    /// Reads completed with lost content (stale data, counted).
    pub lost_reads: u64,
    /// Migration connection drops injected.
    pub conn_drops: u64,
    /// Widest crash-to-repaired window across all crashes, seconds.
    pub worst_unavailability_secs: f64,
    /// Per-crash recovery timeline.
    pub crashes: Vec<CrashRecord>,
    /// Total DES events executed (the golden-trace fingerprint).
    pub events_executed: u64,
    /// JSONL event-trace export (`Some` only when `cfg.trace` was set;
    /// `None` keeps untraced goldens byte-identical to older runs).
    pub trace_jsonl: Option<String>,
}

/// Run one chaos scenario.
pub fn run(cfg: &ChaosScenarioConfig) -> ChaosScenarioResult {
    let sc = cfg.scale.max(1);
    let host_mem = cfg.host_mem / sc;
    let vm_mem = cfg.vm_mem / sc;
    let host_os = 300 * MIB / sc;
    let guest_os = 300 * MIB / sc;
    let reservation = (host_mem - host_os).min(vm_mem);

    let cluster_cfg = ClusterConfig {
        seed: cfg.seed,
        vmd_replication: cfg.replication,
        vmd_tiers: cfg.tiers,
        ..ClusterConfig::default()
    };
    let page = cluster_cfg.page_size;
    let mut b = ClusterBuilder::new(cluster_cfg);
    let src_host = b.add_host("source", host_mem, host_os, true);
    let dst_host = b.add_host("dest", host_mem, host_os, true);
    let _client_host = b.add_host("client", 8 * GIB / sc, host_os, false);
    for i in 0..cfg.vmd_servers.max(1) {
        let im = b.add_host(&format!("intermediate{i}"), 64 * GIB / sc, host_os, true);
        b.add_vmd_server(im, 48 * GIB / sc, 0);
    }
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
    // Idle-style guest: memory fully populated (the over-commit spills to
    // the VMD namespace) with OS background touching pages.
    b.enable_os_background(vm);
    b.preload_pages(vm, 0, (vm_mem / page) as u32);

    let mut sim = b.build();
    if cfg.trace {
        sim.state_mut().trace = agile_trace::Tracer::with_capacity(1 << 16);
    }
    start_all_workloads(&mut sim, SimTime::from_secs(1));
    chaosctl::install(&mut sim, cfg.schedule.clone());

    let technique = cfg.technique;
    let verify = cfg.verify_content;
    sim.schedule_at(SimTime::from_secs(cfg.warmup_secs), move |sim| {
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
        let mig = migrate::start_migration(sim, vm, dst_host, src_cfg, dest_resv);
        sim.state_mut().migrations[mig].verify_content = verify;
    });

    // Run until the migration completes (or the deadline), every
    // scheduled fault has fired, and the background re-replication pump
    // has drained — so rejoin times and unavailability windows are fully
    // stamped in the report.
    let deadline = SimTime::from_secs(cfg.deadline_secs);
    let horizon = cfg
        .schedule
        .events()
        .iter()
        .map(|e| e.at)
        .max()
        .unwrap_or(SimTime::ZERO);
    super::run_sliced(&mut sim, deadline, |sim| {
        let w = sim.state();
        let mig_done = w.migrations.first().map(|m| m.finished).unwrap_or(false);
        mig_done && w.chaos.repair_queue.is_empty() && sim.now() >= horizon
    });

    let events_executed = sim.events_executed();
    let w = sim.state();
    // Tier-ledger invariant: whatever the crash interrupted (demotions,
    // relocations, purges), every surviving server's per-tier accounting
    // must still reconcile with its actual placements.
    for (i, s) in w.vmd.servers.iter().enumerate() {
        assert!(
            s.server.ledger_consistent(),
            "server {i} tier ledger inconsistent after chaos run"
        );
    }
    let metrics = w.migrations[0].src.metrics();
    ChaosScenarioResult {
        finished: w.migrations[0].finished,
        migration_secs: metrics
            .total_time()
            .map(|d| d.as_secs_f64())
            .unwrap_or(f64::NAN),
        downtime_secs: metrics
            .downtime()
            .map(|d| d.as_secs_f64())
            .unwrap_or(f64::NAN),
        migration_bytes: metrics.migration_bytes,
        retries: w.migrations[0].retries,
        pages_lost_on_conn_drop: w.migrations[0].pages_lost_on_conn_drop,
        slots_lost: w.chaos.total_slots_lost(),
        slots_repaired: w.chaos.slots_repaired,
        lost_reads: w.chaos.lost_reads,
        conn_drops: w.chaos.conn_drops,
        worst_unavailability_secs: w.chaos.worst_unavailability_secs(),
        crashes: w.chaos.crashes.clone(),
        events_executed,
        trace_jsonl: cfg.trace.then(|| w.trace.to_jsonl()),
    }
}
