//! §V-D — transparent working-set tracking (Figures 9–10).
//!
//! A single 5 GB VM holds a 1.5 GB Redis dataset queried by an external
//! YCSB client. The tracking tool samples the per-VM swap device's I/O
//! rate and multiplicatively adjusts the cgroup reservation
//! (α = 0.95, β = 1.03, τ = 4 KB/s; 2 s fast interval, 30 s once stable).
//! Figure 9 plots the reservation converging onto the true working set;
//! Figure 10 plots the client's throughput through the transients.

use agile_sim_core::{SimTime, Simulation, GIB, MIB};
use agile_vm::VmConfig;
use agile_workload::YcsbParams;
use agile_wss::ControllerParams;

use super::Scenario;
use crate::build::{start_all_workloads, ClusterBuilder, SwapKind};
use crate::config::ClusterConfig;
use crate::world::{WorkloadKind, World};
use crate::wssctl;

/// Configuration (defaults = the paper's §V-D setup).
#[derive(Clone, Copy, Debug)]
pub struct WssScenarioConfig {
    /// Divide every byte quantity by this (1 = paper scale).
    pub scale: u64,
    /// Simulated duration in seconds.
    pub duration_secs: u64,
    /// When tracking starts.
    pub track_from_secs: u64,
    /// Shrink factor α.
    pub alpha: f64,
    /// Grow factor β.
    pub beta: f64,
    /// Swap-rate threshold τ in KB/s.
    pub tau_kbps: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for WssScenarioConfig {
    fn default() -> Self {
        WssScenarioConfig {
            scale: 1,
            duration_secs: 700,
            track_from_secs: 20,
            alpha: 0.95,
            beta: 1.03,
            tau_kbps: 4.0,
            seed: 42,
        }
    }
}

/// Result bundle.
#[derive(Clone, Debug)]
pub struct WssScenarioResult {
    /// `(seconds, reservation bytes)` — Fig. 9's tracked line.
    pub reservation_series: Vec<(f64, f64)>,
    /// The true working set (active dataset + index + guest OS), the
    /// reference line of Fig. 9.
    pub true_wss_bytes: u64,
    /// Per-second YCSB throughput — Fig. 10.
    pub throughput_series: Vec<(u64, f64)>,
    /// Final reservation.
    pub final_reservation: u64,
}

/// Run the scenario.
pub fn run(cfg: &WssScenarioConfig) -> WssScenarioResult {
    super::run::<Wss>(cfg)
}

/// The §V-D run as a [`Scenario`]: the tracked VM and its true working
/// set.
pub struct Wss {
    vm: usize,
    true_wss_bytes: u64,
    deadline: SimTime,
}

impl Scenario for Wss {
    type Config = WssScenarioConfig;
    type Output = WssScenarioResult;

    /// The Redis VM at full reservation, its client, and the tracker.
    fn setup(cfg: &WssScenarioConfig) -> (Simulation<World>, Self) {
        let sc = cfg.scale.max(1);
        let host_os = 300 * MIB / sc;
        let vm_mem = 5 * GIB / sc;
        let dataset_bytes = 3 * GIB / 2 / sc; // 1.5 GiB
        let guest_os = 300 * MIB / sc;

        let mut b = ClusterBuilder::new(ClusterConfig {
            seed: cfg.seed,
            ..ClusterConfig::default()
        });
        let page = b.world().cfg.page_size;
        let host = b.add_host("host", 128 * GIB / sc, host_os, true);
        let client_host = b.add_host("client", 8 * GIB / sc, host_os, false);
        let im = b.add_host("intermediate", 64 * GIB / sc, host_os, false);
        b.add_vmd_server(im, 48 * GIB / sc, 0);

        let vm = b.add_vm(
            host,
            VmConfig {
                mem_bytes: vm_mem,
                page_size: page,
                vcpus: 2,
                reservation_bytes: vm_mem, // starts at the full VM size
                guest_os_bytes: guest_os,
            },
            SwapKind::PerVmVmd,
        );
        let model = b.alloc_redis(vm, dataset_bytes, YcsbParams::default());
        // The guest's working set: the queried dataset, the Redis index,
        // and the *hot* portion of the OS region (the background generator
        // touches 90% / 10% hotspot-style; the cold OS tail is not working
        // set).
        let index = b.world().vms[vm].vm.layout().region("redis-index");
        let index_bytes = index.expect("Redis layout carved").len as u64 * page;
        let true_wss_bytes = dataset_bytes + index_bytes + guest_os / 10;
        b.attach_workload(vm, client_host, WorkloadKind::Ycsb(model));
        b.enable_os_background(vm);
        b.preload_layout(vm);

        let mut sim = b.build();
        start_all_workloads(&mut sim, SimTime::from_secs(1));
        wssctl::enable_tracking(
            &mut sim,
            vm,
            ControllerParams {
                alpha: cfg.alpha,
                beta: cfg.beta,
                tau_kbps: cfg.tau_kbps,
                ..ControllerParams::paper(64 * MIB / sc, vm_mem)
            },
            SimTime::from_secs(cfg.track_from_secs),
        );
        let deadline = SimTime::from_secs(cfg.duration_secs);
        (
            sim,
            Wss {
                vm,
                true_wss_bytes,
                deadline,
            },
        )
    }

    fn deadline(&self) -> SimTime {
        self.deadline
    }

    fn finish(&self, sim: Simulation<World>, _cfg: &WssScenarioConfig) -> WssScenarioResult {
        let slot = &sim.state().vms[self.vm];
        WssScenarioResult {
            reservation_series: slot
                .reservation_series
                .points()
                .iter()
                .map(|(t, v)| (t.as_secs_f64(), *v))
                .collect(),
            true_wss_bytes: self.true_wss_bytes,
            throughput_series: slot.meter.rates(),
            final_reservation: slot.vm.memory().limit_bytes(),
        }
    }
}
