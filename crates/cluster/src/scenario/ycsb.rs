//! §V-A — the YCSB/Redis memory-pressure experiment (Figures 4–6 and the
//! YCSB rows of Tables I–III).
//!
//! Four 10 GB VMs on a 23 GB source host each serve a 9 GB Redis dataset
//! to an external YCSB client. Clients start by querying a 200 MB slice
//! (everything fits); from `ramp_start` on, one client per `ramp_step`
//! widens its window to 6 GB, pushing the aggregate working set past the
//! host's memory — all four VMs thrash on the shared swap device. At
//! `migrate_at` one VM is migrated to the empty destination host; the
//! scripted reservation adjustment (standing in for the paper's manual
//! adjustment) then gives the three remaining VMs enough memory and the
//! average throughput recovers — how fast depends on the technique.

use agile_migration::{SourceConfig, Technique};
use agile_sim_core::{SimTime, GIB, MIB};
use agile_vm::VmConfig;
use agile_workload::{Dataset, KeyDist, YcsbParams, YcsbRedis};

use crate::build::{start_all_workloads, ClusterBuilder, SwapKind};
use crate::config::ClusterConfig;
use crate::migrate;
use crate::report;
use crate::scenario::{rebalance_host, set_ycsb_active_bytes, watch_completion};
use crate::world::WorkloadKind;

/// Configuration (defaults = the paper's §V-A setup).
#[derive(Clone, Copy, Debug)]
pub struct YcsbScenarioConfig {
    /// Migration technique under test.
    pub technique: Technique,
    /// Divide every byte quantity by this (1 = paper scale).
    pub scale: u64,
    /// Number of VMs on the source host.
    pub n_vms: usize,
    /// Simulated duration in seconds.
    pub duration_secs: u64,
    /// First ramp instant (paper: 150 s).
    pub ramp_start_secs: u64,
    /// Interval between ramps (paper: 50 s).
    pub ramp_step_secs: u64,
    /// Migration trigger instant (paper: 400 s).
    pub migrate_at_secs: u64,
    /// YCSB read ratio. The paper's §V-A narrative says "read only", but
    /// its own Table III (pre-copy retransmits 4.7 GB; Agile pushes 2.7 GB
    /// of dirtied pages) implies a substantial update share in the query
    /// phase; 0.65 reproduces those volumes.
    pub read_ratio: f64,
    /// Width of the Table-I measurement window starting at `migrate_at`.
    pub measure_window_secs: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for YcsbScenarioConfig {
    fn default() -> Self {
        YcsbScenarioConfig {
            technique: Technique::Agile,
            scale: 1,
            n_vms: 4,
            duration_secs: 1000,
            ramp_start_secs: 150,
            ramp_step_secs: 50,
            migrate_at_secs: 400,
            read_ratio: 0.65,
            measure_window_secs: 300,
            seed: 42,
        }
    }
}

/// Result bundle.
#[derive(Clone, Debug)]
pub struct YcsbScenarioResult {
    /// Per-second average YCSB throughput across all VMs (Fig. 4/5/6).
    pub series: Vec<(u64, f64)>,
    /// Migration metrics (Tables II–III).
    pub metrics: agile_migration::MigrationMetrics,
    /// Average per-VM ops/s over the migration window (Table I).
    pub avg_during_migration: f64,
    /// Peak (pre-pressure) average throughput, the recovery reference.
    pub peak_reference: f64,
    /// Seconds at which the average recovered to 90% of peak, if it did.
    pub recovery_at_secs: Option<u64>,
    /// Total simulator events executed — the determinism fingerprint.
    pub events_executed: u64,
}

/// Run the scenario.
pub fn run(cfg: &YcsbScenarioConfig) -> YcsbScenarioResult {
    let sc = cfg.scale.max(1);
    let host_mem = 23 * GIB / sc;
    let host_os = 200 * MIB / sc;
    let vm_mem = 10 * GIB / sc;
    let reservation = 11 * GIB / 2 / sc; // 5.5 GiB
    let dataset_bytes = 9 * GIB / sc;
    let active_small = 200 * MIB / sc;
    let active_large = 6 * GIB / sc;
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
    for i in 0..cfg.n_vms {
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
        // Redis layout: hash-table index ≈ 2% of the dataset, then values.
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
        let mut model = YcsbRedis::new(
            dataset,
            index_region,
            KeyDist::UniformPrefix,
            YcsbParams {
                read_ratio: cfg.read_ratio,
                ..YcsbParams::default()
            },
        );
        model.set_active_bytes(active_small);
        b.attach_workload(vm, client_host, WorkloadKind::Ycsb(model));
        b.enable_os_background(vm);
        vms.push(vm);
        let _ = i;
    }

    // The four datasets load concurrently (the paper's 4 YCSB load
    // clients): their eviction streams interleave on the shared swap
    // partition.
    b.preload_layouts_interleaved(&vms, 256);

    let mut sim = b.build();
    start_all_workloads(&mut sim, SimTime::from_secs(1));

    // The ramp: one VM per step widens its query window, and the host's
    // reservations are re-balanced to track working sets.
    for (i, &vm) in vms.iter().enumerate() {
        let at = SimTime::from_secs(cfg.ramp_start_secs + i as u64 * cfg.ramp_step_secs);
        sim.schedule_at(at, move |sim| {
            set_ycsb_active_bytes(sim, vm, active_large);
            let host = sim.state().vms[vm].host;
            rebalance_host(sim, host, slack);
        });
    }

    // The migration, plus a watcher that re-balances the source once the
    // migrated VM's memory is actually freed there.
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
    let events_executed = sim.events_executed();
    let world = sim.state();

    let series = report::average_throughput_series(world, &vms);
    let metrics = world.migrations[0].src.metrics().clone();
    let mig_start = cfg.migrate_at_secs;
    let mig_end = (mig_start + cfg.measure_window_secs).min(cfg.duration_secs);
    let avg_during_migration =
        report::average_throughput_in_window(world, &vms, mig_start, mig_end.max(mig_start + 1));
    // Reference: best smoothed average before the pressure ramp.
    let peak_reference = series
        .iter()
        .filter(|(t, _)| *t >= 20 && *t < cfg.ramp_start_secs)
        .map(|(_, r)| *r)
        .fold(0.0f64, f64::max);
    let recovery_at_secs = report::recovery_time(
        world,
        &vms,
        SimTime::from_secs(cfg.migrate_at_secs),
        peak_reference,
        0.9,
        10,
    );
    YcsbScenarioResult {
        series,
        metrics,
        avg_during_migration,
        peak_reference,
        recovery_at_secs,
        events_executed,
    }
}
