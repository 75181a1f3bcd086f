//! §V-C — the Sysbench OLTP / MySQL experiment (the Sysbench rows of
//! Tables I–III).
//!
//! Four 10 GB VMs each run a MySQL server with an 8 GB dataset under a
//! 5.5 GB reservation — the buffer pool never fits, so the host swaps from
//! the start — and external Sysbench clients drive the standard OLTP
//! transaction mix. One VM is migrated to relieve the pressure; client
//! performance is measured over a 300-second window spanning the
//! migration.

use agile_migration::{SourceConfig, Technique};
use agile_sim_core::{SimTime, GIB, MIB};
use agile_vm::VmConfig;
use agile_workload::{Dataset, KeyDist, OltpParams, SysbenchOltp};

use crate::build::{start_all_workloads, ClusterBuilder, SwapKind};
use crate::config::ClusterConfig;
use crate::migrate;
use crate::report;
use crate::scenario::watch_completion;
use crate::world::WorkloadKind;

/// Configuration (defaults = the paper's §V-C setup).
#[derive(Clone, Copy, Debug)]
pub struct SysbenchScenarioConfig {
    /// Migration technique under test.
    pub technique: Technique,
    /// Divide every byte quantity by this (1 = paper scale).
    pub scale: u64,
    /// VMs on the source host.
    pub n_vms: usize,
    /// Simulated duration in seconds.
    pub duration_secs: u64,
    /// Migration trigger instant.
    pub migrate_at_secs: u64,
    /// Measurement window length (paper: 300 s).
    pub window_secs: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for SysbenchScenarioConfig {
    fn default() -> Self {
        SysbenchScenarioConfig {
            technique: Technique::Agile,
            scale: 1,
            n_vms: 4,
            duration_secs: 700,
            migrate_at_secs: 120,
            window_secs: 300,
            seed: 42,
        }
    }
}

/// Result bundle.
#[derive(Clone, Debug)]
pub struct SysbenchScenarioResult {
    /// Per-second average transactions/s across all VMs.
    pub series: Vec<(u64, f64)>,
    /// Migration metrics (Tables II–III).
    pub metrics: agile_migration::MigrationMetrics,
    /// Average per-VM trans/s over the 300 s window spanning the
    /// migration (Table I).
    pub avg_during_window: f64,
}

/// Run the scenario.
pub fn run(cfg: &SysbenchScenarioConfig) -> SysbenchScenarioResult {
    let sc = cfg.scale.max(1);
    let host_mem = 23 * GIB / sc;
    let host_os = 200 * MIB / sc;
    let vm_mem = 10 * GIB / sc;
    let reservation = 11 * GIB / 2 / sc;
    let dataset_bytes = 8 * GIB / sc;
    let guest_os = 300 * MIB / sc;
    let slack = 256 * MIB / sc;

    let cluster_cfg = ClusterConfig {
        seed: cfg.seed,
        ..ClusterConfig::default()
    };
    let page = cluster_cfg.page_size;
    let mut b = ClusterBuilder::new(cluster_cfg);
    let src_host = b.add_host("source", host_mem, host_os, true);
    let dst_host = b.add_host("dest", host_mem, host_os, true);
    let client_host = b.add_host("client", 16 * GIB / sc, host_os, false);
    let agile = cfg.technique == Technique::Agile;
    if agile {
        let im = b.add_host("intermediate", 128 * GIB / sc, host_os, true);
        b.add_vmd_server(im, 100 * GIB / sc, 0);
        b.ensure_vmd_client(dst_host);
    }
    let swap_kind = if agile {
        SwapKind::PerVmVmd
    } else {
        SwapKind::HostSsd
    };

    let mut vms = Vec::new();
    for _ in 0..cfg.n_vms {
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
        // InnoDB layout: hot B-tree upper levels, the row buffer pool,
        // and a circular redo log.
        let index_pages = ((dataset_bytes / 40) / page).max(4) as u32;
        let data_pages = (dataset_bytes / page) as u32;
        let log_pages = ((64 * MIB / sc) / page).max(8) as u32;
        let (index_region, rows_region, log_region) = {
            let world = b.world_mut();
            let layout = world.vms[vm].vm.layout_mut();
            let idx = layout.alloc_region("innodb-index", index_pages);
            let rows = layout.alloc_region("innodb-rows", data_pages);
            let log = layout.alloc_region("innodb-log", log_pages);
            (idx, rows, log)
        };
        let rows = Dataset::new(rows_region, dataset_bytes / 256, 256, page);
        let model = SysbenchOltp::new(
            rows,
            index_region,
            log_region,
            KeyDist::UniformPrefix,
            OltpParams::default(),
        );
        b.attach_workload(vm, client_host, WorkloadKind::Oltp(model));
        b.enable_os_background(vm);
        vms.push(vm);
    }

    // The four datasets load concurrently (the paper's 4 YCSB load
    // clients): their eviction streams interleave on the shared swap
    // partition.
    b.preload_layouts_interleaved(&vms, 256);

    let mut sim = b.build();
    start_all_workloads(&mut sim, SimTime::from_secs(1));

    let technique = cfg.technique;
    let migrate_vm = vms[0];
    sim.schedule_at(SimTime::from_secs(cfg.migrate_at_secs), move |sim| {
        let dest_resv = {
            let w = sim.state();
            w.hosts[dst_host]
                .mem
                .available_for_vms()
                .min(w.vms[migrate_vm].vm.config().mem_bytes)
        };
        let src_cfg = SourceConfig {
            precopy_threshold_pages: (9_000 / sc as u32).max(64),
            ..SourceConfig::new(technique)
        };
        let mig = migrate::start_migration(sim, migrate_vm, dst_host, src_cfg, dest_resv);
        watch_completion(sim, mig, src_host, slack);
    });

    sim.run_until(SimTime::from_secs(cfg.duration_secs));
    super::audit_memory(sim.state());
    let world = sim.state();
    let series = report::average_throughput_series(world, &vms);
    let metrics = world.migrations[0].src.metrics().clone();
    let from = cfg.migrate_at_secs.saturating_sub(10);
    let avg_during_window =
        report::average_throughput_in_window(world, &vms, from, from + cfg.window_secs);
    SysbenchScenarioResult {
        series,
        metrics,
        avg_during_window,
    }
}
