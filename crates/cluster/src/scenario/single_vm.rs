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

use agile_migration::{SourceConfig, Technique};
use agile_sim_core::{SimTime, GIB, MIB};
use agile_vm::VmConfig;
use agile_workload::{Dataset, KeyDist, YcsbParams, YcsbRedis};

use crate::build::{start_all_workloads, ClusterBuilder, SwapKind};
use crate::config::ClusterConfig;
use crate::migrate;
use crate::world::WorkloadKind;

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
    let sc = cfg.scale.max(1);
    let host_mem = cfg.host_mem / sc;
    let vm_mem = cfg.vm_mem / sc;
    let host_os = 300 * MIB / sc;
    let guest_os = 300 * MIB / sc;
    // The VM's reservation is whatever the host can give it (the paper
    // relies on host-level swapping once the VM outgrows the host).
    let reservation = (host_mem - host_os).min(vm_mem);

    let cluster_cfg = ClusterConfig {
        seed: cfg.seed,
        ..ClusterConfig::default()
    };
    let page = cluster_cfg.page_size;
    let mut b = ClusterBuilder::new(cluster_cfg);
    let src_host = b.add_host("source", host_mem, host_os, true);
    let dst_host = b.add_host("dest", host_mem, host_os, true);
    let client_host = b.add_host("client", 8 * GIB / sc, host_os, false);
    let agile = cfg.technique == Technique::Agile;
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

    if cfg.busy {
        // Redis dataset leaves ~500 MB of the VM free (paper wording).
        let dataset_bytes = vm_mem.saturating_sub(500 * MIB / sc + guest_os);
        let index_pages = ((dataset_bytes / 50) / page).max(4) as u32;
        let data_pages = (dataset_bytes / page) as u32;
        let (index_region, data_region) = {
            let world = b.world_mut();
            let layout = world.vms[vm].vm.layout_mut();
            let idx = layout.alloc_region("redis-index", index_pages);
            let dat = layout.alloc_region("redis-data", data_pages);
            (idx, dat)
        };
        let dataset = Dataset::new(data_region, dataset_bytes / 1024, 1024, page);
        let model = YcsbRedis::new(
            dataset,
            index_region,
            KeyDist::UniformPrefix,
            YcsbParams::update_heavy(),
        );
        b.attach_workload(vm, client_host, WorkloadKind::Ycsb(model));
        b.enable_os_background(vm);
        b.preload_layout(vm);
    } else {
        // Idle: memory fully populated (so it all has to be transferred)
        // but only the OS touches pages.
        b.enable_os_background(vm);
        let pages = (vm_mem / page) as u32;
        b.preload_pages(vm, 0, pages);
    }

    let mut sim = b.build();
    if cfg.trace {
        sim.state_mut().trace = agile_trace::Tracer::with_capacity(1 << 16);
    }
    start_all_workloads(&mut sim, SimTime::from_secs(1));

    let technique = cfg.technique;
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
        migrate::start_migration(sim, vm, dst_host, src_cfg, dest_resv);
    });

    // Run until the migration completes (or the deadline).
    let deadline = SimTime::from_secs(cfg.deadline_secs);
    super::run_sliced(&mut sim, deadline, |sim| {
        sim.state()
            .migrations
            .first()
            .map(|m| m.finished)
            .unwrap_or(false)
    });

    let metrics = sim.state().migrations[0].src.metrics().clone();
    let timeline = crate::report::phase_timeline(sim.state(), 0, "single_vm", cfg.seed);
    let trace_jsonl = cfg.trace.then(|| sim.state().trace.to_jsonl());
    SingleVmResult {
        migration_secs: metrics
            .total_time()
            .map(|d| d.as_secs_f64())
            .unwrap_or(f64::NAN),
        migration_bytes: metrics.migration_bytes,
        downtime_secs: metrics
            .downtime()
            .map(|d| d.as_secs_f64())
            .unwrap_or(f64::NAN),
        metrics,
        timeline,
        trace_jsonl,
    }
}
