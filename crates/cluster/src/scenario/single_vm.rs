//! §V-B — the single-VM memory-pressure sweep (Figures 7–8).
//!
//! Host memory is pinned at 6 GB while the VM's memory grows from 2 GB to
//! 12 GB: past the host size, the excess is swapped out. The *idle* VM has
//! fully-populated but untouched memory (plus OS background); the *busy*
//! VM runs a Redis server whose dataset nearly fills the VM, queried by an
//! update-heavy YCSB client. Migrating the VM measures how each technique
//! copes with swapped-out state: pre/post-copy must drag every cold page
//! back through the swap device (thrashing against the guest in the busy
//! case), while Agile ships 16-byte offsets and stays flat.

use agile_migration::Technique;
use agile_sim_core::{SimTime, Simulation, GIB, MIB};
use agile_workload::YcsbParams;

use super::testbed::{migrate_to_fit, paper_source, Testbed};
use super::Scenario;
use crate::build::{start_all_workloads, ClusterBuilder};
use crate::config::ClusterConfig;
use crate::world::{WorkloadKind, World};

/// One sweep point.
#[derive(Clone, Copy, Debug)]
pub struct SingleVmConfig {
    /// Migration technique under test.
    pub technique: Technique,
    /// VM memory size in bytes (the sweep axis; paper: 2–12 GB).
    pub vm_mem: u64,
    /// Host memory (paper: 6 GB, constant).
    pub host_mem: u64,
    /// Busy (Redis + YCSB) or idle (populated memory, OS background only).
    pub busy: bool,
    /// Divide every byte quantity by this (1 = paper scale).
    pub scale: u64,
    /// Warm-up before the migration starts.
    pub warmup_secs: u64,
    /// Hard deadline for the run.
    pub deadline_secs: u64,
    /// Master seed.
    pub seed: u64,
    /// Enable the event tracer (off by default: untraced runs keep the
    /// zero-allocation hot path and byte-identical goldens).
    pub trace: bool,
}

impl Default for SingleVmConfig {
    fn default() -> Self {
        SingleVmConfig {
            technique: Technique::Agile,
            vm_mem: 8 * GIB,
            host_mem: 6 * GIB,
            busy: false,
            scale: 1,
            warmup_secs: 30,
            deadline_secs: 4000,
            seed: 42,
            trace: false,
        }
    }
}

/// One sweep point's outcome.
#[derive(Clone, Debug)]
pub struct SingleVmResult {
    /// Total migration time in seconds (Fig. 7).
    pub migration_secs: f64,
    /// Bytes on the migration channel (Fig. 8).
    pub migration_bytes: u64,
    /// Downtime in seconds.
    pub downtime_secs: f64,
    /// Full metrics.
    pub metrics: agile_migration::MigrationMetrics,
    /// Per-migration phase decomposition (always built; the substrate of
    /// the `TRACE_<scenario>.json` export).
    pub timeline: agile_trace::PhaseTimeline,
    /// JSONL event-trace export (`Some` only when `cfg.trace` was set).
    pub trace_jsonl: Option<String>,
}

/// Run one sweep point.
pub fn run(cfg: &SingleVmConfig) -> SingleVmResult {
    super::run::<SingleVm>(cfg)
}

/// One sweep point as a [`Scenario`]; it settles once the migration
/// finishes.
pub struct SingleVm {
    deadline: SimTime,
}

impl Scenario for SingleVm {
    type Config = SingleVmConfig;
    type Output = SingleVmResult;

    /// The over-committed VM, idle or busy, and its migration.
    fn setup(cfg: &SingleVmConfig) -> (Simulation<World>, Self) {
        let sc = cfg.scale.max(1);
        let vm_mem = cfg.vm_mem / sc;
        let mut b = ClusterBuilder::new(ClusterConfig {
            seed: cfg.seed,
            ..ClusterConfig::default()
        });
        let page = b.world().cfg.page_size;
        let agile = cfg.technique == Technique::Agile;
        let (bed, vm) =
            Testbed::single_vm(&mut b, cfg.host_mem / sc, vm_mem, sc, usize::from(agile));

        if cfg.busy {
            // Redis dataset leaves ~500 MB of the VM free (paper wording)
            // beside the 300 MB guest OS.
            let dataset_bytes = vm_mem.saturating_sub(500 * MIB / sc + 300 * MIB / sc);
            let model = b.alloc_redis(vm, dataset_bytes, YcsbParams::update_heavy());
            b.attach_workload(vm, bed.client, WorkloadKind::Ycsb(model));
            b.enable_os_background(vm);
            b.preload_layout(vm);
        } else {
            // Idle: memory fully populated (so it all has to be transferred)
            // but only the OS touches pages.
            b.enable_os_background(vm);
            b.preload_pages(vm, 0, (vm_mem / page) as u32);
        }

        let mut sim = b.build();
        if cfg.trace {
            sim.state_mut().trace = agile_trace::Tracer::with_capacity(1 << 16);
        }
        start_all_workloads(&mut sim, SimTime::from_secs(1));

        let (technique, dst) = (cfg.technique, bed.dst);
        sim.schedule_at(SimTime::from_secs(cfg.warmup_secs), move |sim| {
            migrate_to_fit(sim, vm, dst, paper_source(technique, sc));
        });
        let deadline = SimTime::from_secs(cfg.deadline_secs);
        (sim, SingleVm { deadline })
    }

    fn deadline(&self) -> SimTime {
        self.deadline
    }

    fn settled(&self, sim: &Simulation<World>) -> bool {
        sim.state().migrations.first().is_some_and(|m| m.finished)
    }

    fn finish(&self, sim: Simulation<World>, cfg: &SingleVmConfig) -> SingleVmResult {
        let metrics = sim.state().migrations[0].src.metrics().clone();
        let timeline = crate::report::phase_timeline(sim.state(), 0, "single_vm", cfg.seed);
        let trace_jsonl = cfg.trace.then(|| sim.state().trace.to_jsonl());
        SingleVmResult {
            migration_secs: metrics.total_secs(),
            migration_bytes: metrics.migration_bytes,
            downtime_secs: metrics.downtime_secs(),
            metrics,
            timeline,
            trace_jsonl,
        }
    }
}
