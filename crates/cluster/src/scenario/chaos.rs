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
use agile_migration::Technique;
use agile_sim_core::{SimTime, Simulation, GIB};

use super::testbed::{migrate_to_fit, paper_source, Testbed};
use super::Scenario;
use crate::build::{start_all_workloads, ClusterBuilder};
use crate::chaosctl::{self, CrashRecord};
use crate::config::ClusterConfig;
use crate::world::World;

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
    /// VMD replication factor `k` (1 = no redundancy).
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
    /// Swap tier stack on every VMD server (by default DRAM over host
    /// SSD, heat off). Multi-tier stacks put demotions in flight across
    /// tier boundaries for the crash schedule to interrupt.
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
            tiers: agile_vmd::TierStackConfig::default(),
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
    super::run::<Chaos>(cfg)
}

/// One chaos run as a [`Scenario`]. It settles once the migration has
/// finished, every scheduled fault has fired, and the background
/// re-replication pump has drained, so rejoin times and unavailability
/// windows are fully stamped in the report.
pub struct Chaos {
    deadline: SimTime,
    /// The last scheduled fault.
    horizon: SimTime,
}

impl Scenario for Chaos {
    type Config = ChaosScenarioConfig;
    type Output = ChaosScenarioResult;

    /// The §V-B testbed with `vmd_servers` intermediates, the fault
    /// schedule, and the migration.
    fn setup(cfg: &ChaosScenarioConfig) -> (Simulation<World>, Self) {
        let sc = cfg.scale.max(1);
        let vm_mem = cfg.vm_mem / sc;
        let mut b = ClusterBuilder::new(ClusterConfig {
            seed: cfg.seed,
            vmd_replication: cfg.replication,
            vmd_tiers: cfg.tiers,
            ..ClusterConfig::default()
        });
        let page = b.world().cfg.page_size;
        let servers = cfg.vmd_servers.max(1);
        let (bed, vm) = Testbed::single_vm(&mut b, cfg.host_mem / sc, vm_mem, sc, servers);
        // Idle-style guest: memory fully populated (the over-commit spills
        // to the VMD namespace) with OS background touching pages.
        b.enable_os_background(vm);
        b.preload_pages(vm, 0, (vm_mem / page) as u32);

        let mut sim = b.build();
        if cfg.trace {
            sim.state_mut().trace = agile_trace::Tracer::with_capacity(1 << 16);
        }
        start_all_workloads(&mut sim, SimTime::from_secs(1));
        chaosctl::install(&mut sim, cfg.schedule.clone());

        let (technique, verify, dst) = (cfg.technique, cfg.verify_content, bed.dst);
        sim.schedule_at(SimTime::from_secs(cfg.warmup_secs), move |sim| {
            let mig = migrate_to_fit(sim, vm, dst, paper_source(technique, sc));
            sim.state_mut().migrations[mig].verify_content = verify;
        });

        let horizon = cfg
            .schedule
            .events()
            .iter()
            .map(|e| e.at)
            .max()
            .unwrap_or(SimTime::ZERO);
        let deadline = SimTime::from_secs(cfg.deadline_secs);
        (sim, Chaos { deadline, horizon })
    }

    fn deadline(&self) -> SimTime {
        self.deadline
    }

    fn settled(&self, sim: &Simulation<World>) -> bool {
        let w = sim.state();
        let mig_done = w.migrations.first().is_some_and(|m| m.finished);
        mig_done && w.chaos.repair_queue.is_empty() && sim.now() >= self.horizon
    }

    fn finish(&self, sim: Simulation<World>, cfg: &ChaosScenarioConfig) -> ChaosScenarioResult {
        let w = sim.state();
        let mig = &w.migrations[0];
        let metrics = mig.src.metrics();
        ChaosScenarioResult {
            finished: mig.finished,
            migration_secs: metrics.total_secs(),
            downtime_secs: metrics.downtime_secs(),
            migration_bytes: metrics.migration_bytes,
            retries: mig.retries,
            pages_lost_on_conn_drop: mig.pages_lost_on_conn_drop,
            slots_lost: w.chaos.total_slots_lost(),
            slots_repaired: w.chaos.slots_repaired,
            lost_reads: w.chaos.lost_reads,
            conn_drops: w.chaos.conn_drops,
            worst_unavailability_secs: w.chaos.worst_unavailability_secs(),
            crashes: w.chaos.crashes.clone(),
            events_executed: sim.events_executed(),
            trace_jsonl: cfg.trace.then(|| w.trace.to_jsonl()),
        }
    }
}
