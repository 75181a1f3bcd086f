//! The paper's §V testbed and the one way a scenario starts the
//! migration it measures.
//!
//! Every §V experiment runs on one 3-host set-up (PAPER.md §2): a source,
//! a destination, and an intermediate host that serves the VMD, plus the
//! machine that runs the external load generators. `Testbed::add` builds
//! it with the sizes each scenario passes, and [`Testbed::single_vm`]
//! adds the §V-B guest to it; `paper_source` and `migrate_to_fit` start
//! the migration; `LoadedSource` is the many-guest source host that §V-A
//! (YCSB) and §V-C (Sysbench) share.

use agile_migration::{MigrationMetrics, SourceConfig, Technique};
use agile_sim_core::{SimDuration, SimTime, Simulation, GIB, MIB};
use agile_vm::VmConfig;

use crate::build::{start_all_workloads, ClusterBuilder, SwapKind};
use crate::config::ClusterConfig;
use crate::migrate;
use crate::report;
use crate::world::{WorkloadKind, World};

use super::rebalance_host;

/// Host sizes of a [`Testbed`], in bytes, already divided by the scale.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TestbedSizes {
    /// Memory of the source and of the destination host.
    pub host_mem: u64,
    /// Every host's own OS overhead.
    pub host_os: u64,
    /// Memory of the client host.
    pub client_mem: u64,
    /// Memory of each intermediate host.
    pub intermediate_mem: u64,
    /// Memory each intermediate host contributes to the VMD.
    pub vmd_mem: u64,
}

/// Host indices of a built testbed and the swap device its VMs get.
#[derive(Clone, Copy, Debug)]
pub struct Testbed {
    /// The host the measured VMs start on.
    pub src: usize,
    /// The empty migration destination.
    pub dst: usize,
    /// The host that runs the external load clients.
    pub client: usize,
    /// The host SSD partition without VMD servers, else a per-VM VMD
    /// namespace.
    pub swap: SwapKind,
}

impl Testbed {
    /// Add the source, destination and client hosts, then `vmd_servers`
    /// intermediate hosts serving one VMD server each, and the
    /// destination's VMD client when there is any server. The baselines
    /// pass 0; Agile runs pass at least 1.
    pub(crate) fn add(b: &mut ClusterBuilder, sizes: TestbedSizes, vmd_servers: usize) -> Testbed {
        let src = b.add_host("source", sizes.host_mem, sizes.host_os, true);
        let dst = b.add_host("dest", sizes.host_mem, sizes.host_os, true);
        let client = b.add_host("client", sizes.client_mem, sizes.host_os, false);
        for i in 0..vmd_servers {
            let name = format!("intermediate{i}");
            let im = b.add_host(&name, sizes.intermediate_mem, sizes.host_os, true);
            b.add_vmd_server(im, sizes.vmd_mem, 0);
        }
        let swap = if vmd_servers == 0 {
            SwapKind::HostSsd
        } else {
            b.ensure_vmd_client(dst);
            SwapKind::PerVmVmd
        };
        Testbed {
            src,
            dst,
            client,
            swap,
        }
    }

    /// The §V-B set-up: source and destination hosts of `host_mem` bytes,
    /// 64 GB intermediates that contribute 48 GB each, and one `vm_mem`
    /// VM on the source (both sizes already scaled). The VM is reserved
    /// all the host can give it, so past the host's size it swaps.
    /// Returns the testbed and the VM.
    pub fn single_vm(
        b: &mut ClusterBuilder,
        host_mem: u64,
        vm_mem: u64,
        sc: u64,
        vmd_servers: usize,
    ) -> (Testbed, usize) {
        let sizes = TestbedSizes {
            host_mem,
            host_os: 300 * MIB / sc,
            client_mem: 8 * GIB / sc,
            intermediate_mem: 64 * GIB / sc,
            vmd_mem: 48 * GIB / sc,
        };
        let bed = Testbed::add(b, sizes, vmd_servers);
        let vm = b.add_vm(
            bed.src,
            VmConfig {
                mem_bytes: vm_mem,
                page_size: b.world().cfg.page_size,
                vcpus: 2,
                reservation_bytes: (host_mem - sizes.host_os).min(vm_mem),
                guest_os_bytes: 300 * MIB / sc,
            },
            bed.swap,
        );
        (bed, vm)
    }
}

/// The paper's source configuration for `technique` at byte scale `sc`:
/// pre-copy stops iterating once fewer than 9,000 pages, scaled down but
/// at least 64, are left dirty.
pub(crate) fn paper_source(technique: Technique, sc: u64) -> SourceConfig {
    SourceConfig {
        precopy_threshold_pages: (9_000 / sc.max(1) as u32).max(64),
        ..SourceConfig::new(technique)
    }
}

/// Start migrating `vm` to `dst` under `src_cfg`, reserving for it at
/// the destination all the memory the host has for VMs, up to the VM's
/// size. Returns the migration index.
pub(crate) fn migrate_to_fit(
    sim: &mut Simulation<World>,
    vm: usize,
    dst: usize,
    src_cfg: SourceConfig,
) -> usize {
    let dest_resv = {
        let w = sim.state();
        w.hosts[dst]
            .mem
            .available_for_vms()
            .min(w.vms[vm].vm.config().mem_bytes)
    };
    migrate::start_migration(sim, vm, dst, src_cfg, dest_resv)
}

/// Poll every second until migration `mig` finishes, then re-balance
/// the source host. Each poll that finds the migration still running
/// re-arms the next as its last action.
fn watch_completion(sim: &mut Simulation<World>, mig: usize, src_host: usize, slack: u64) {
    sim.schedule_in(SimDuration::from_secs(1), move |sim| {
        if sim.state().migrations[mig].finished {
            rebalance_host(sim, src_host, slack);
        } else {
            watch_completion(sim, mig, src_host, slack);
        }
    });
}

/// The slack [`rebalance_host`] leaves each guest of a
/// [`LoadedSource`] above its working set.
pub(crate) fn rebalance_slack(sc: u64) -> u64 {
    256 * MIB / sc
}

/// The run parameters §V-A and §V-C share.
pub(crate) struct LoadedSourceRun {
    pub technique: Technique,
    /// Byte-scale divisor, at least 1.
    pub sc: u64,
    pub n_vms: usize,
    pub seed: u64,
    pub duration_secs: u64,
    pub migrate_at_secs: u64,
}

/// The source host of §V-A and §V-C: `n_vms` 10 GB guests with 5.5 GB
/// reservations on a 23 GB host, their datasets loaded concurrently so
/// their eviction streams interleave on the swap device. At `migrate_at`
/// the first guest migrates to the empty destination, and the source is
/// re-balanced once its memory is freed there.
pub(crate) struct LoadedSource {
    /// The guests, in creation order; the first one migrates.
    pub vms: Vec<usize>,
    pub deadline: SimTime,
}

impl LoadedSource {
    /// Build the testbed and its guests. `workload` carves each guest's
    /// layout and returns its model; `before_migration` schedules the
    /// scenario's own script ahead of the migration event, so that at a
    /// shared instant the script fires first.
    pub fn setup(
        run: &LoadedSourceRun,
        mut workload: impl FnMut(&mut ClusterBuilder, usize) -> WorkloadKind,
        before_migration: impl FnOnce(&mut Simulation<World>, &[usize]),
    ) -> (Simulation<World>, Self) {
        let sc = run.sc;
        let mut b = ClusterBuilder::new(ClusterConfig {
            seed: run.seed,
            ..ClusterConfig::default()
        });
        let page = b.world().cfg.page_size;
        let sizes = TestbedSizes {
            host_mem: 23 * GIB / sc,
            host_os: 200 * MIB / sc,
            client_mem: 16 * GIB / sc,
            intermediate_mem: 128 * GIB / sc,
            vmd_mem: 100 * GIB / sc,
        };
        let agile = run.technique == Technique::Agile;
        let bed = Testbed::add(&mut b, sizes, usize::from(agile));

        let vms: Vec<usize> = (0..run.n_vms)
            .map(|_| {
                let vm = b.add_vm(
                    bed.src,
                    VmConfig {
                        mem_bytes: 10 * GIB / sc,
                        page_size: page,
                        vcpus: 2,
                        reservation_bytes: 11 * GIB / 2 / sc,
                        guest_os_bytes: 300 * MIB / sc,
                    },
                    bed.swap,
                );
                let model = workload(&mut b, vm);
                b.attach_workload(vm, bed.client, model);
                b.enable_os_background(vm);
                vm
            })
            .collect();
        b.preload_layouts_interleaved(&vms, 256);

        let mut sim = b.build();
        start_all_workloads(&mut sim, SimTime::from_secs(1));
        before_migration(&mut sim, &vms);

        let (technique, vm, dst, src) = (run.technique, vms[0], bed.dst, bed.src);
        sim.schedule_at(SimTime::from_secs(run.migrate_at_secs), move |sim| {
            let mig = migrate_to_fit(sim, vm, dst, paper_source(technique, sc));
            watch_completion(sim, mig, src, rebalance_slack(sc));
        });
        let deadline = SimTime::from_secs(run.duration_secs);
        (sim, LoadedSource { vms, deadline })
    }

    /// Per-second average throughput across the guests, and the
    /// migration's metrics.
    pub fn measure(&self, w: &World) -> (Vec<(u64, f64)>, MigrationMetrics) {
        (
            report::average_throughput_series(w, &self.vms),
            w.migrations[0].src.metrics().clone(),
        )
    }
}
