//! Ablation studies for the design choices DESIGN.md calls out. Each
//! ablation runs the same scenario with one knob varied and reports the
//! *simulated* figure of merit.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin ablations -- --scale 32
//! ```
//!
//! 1. **Transfer chunk size** — Agile migration time vs `chunk_pages`.
//! 2. **VMD intermediate-host count** — the paper claims performance does
//!    not depend on it (§V): Agile migration time with 1/2/4 servers.
//! 3. **Guest swap readahead** — the baseline thrash amplifier: post-copy
//!    migration time of a busy VM with readahead 1/4/8.
//! 4. **Pre-copy convergence threshold** — rounds and bytes vs threshold.
//! 5. **WSS controller α/β** — convergence time of the Fig. 9 scenario.

use agile_bench::Args;
use agile_cluster::build::{start_all_workloads, ClusterBuilder, SwapKind};
use agile_cluster::scenario::testbed::Testbed;
use agile_cluster::scenario::wss::{self, WssScenarioConfig};
use agile_cluster::{migrate, ClusterConfig, WorkloadKind, World};
use agile_migration::{MigrationMetrics, SourceConfig, Technique};
use agile_sim_core::{SimDuration, SimTime, Simulation, GIB, MIB};
use agile_vm::VmConfig;
use agile_workload::YcsbParams;

/// One pressured Agile migration with explicit knobs; returns
/// (simulated seconds, bytes).
fn agile_once(chunk_pages: u32, n_servers: usize, scale: u64) -> (f64, u64) {
    let cfg = ClusterConfig::default();
    let mut b = ClusterBuilder::new(cfg);
    let src = b.add_host("source", 6 * GIB / scale, 200 * MIB / scale, true);
    let dst = b.add_host("dest", 6 * GIB / scale, 200 * MIB / scale, true);
    for i in 0..n_servers {
        let im = b.add_host(
            &format!("im{i}"),
            64 * GIB / scale,
            200 * MIB / scale,
            false,
        );
        b.add_vmd_server(im, (48 * GIB / scale) / n_servers as u64, 0);
    }
    b.ensure_vmd_client(dst);
    let vm = b.add_vm(
        src,
        VmConfig {
            mem_bytes: 10 * GIB / scale,
            page_size: 4096,
            vcpus: 2,
            reservation_bytes: 11 * GIB / 2 / scale,
            guest_os_bytes: 300 * MIB / scale,
        },
        SwapKind::PerVmVmd,
    );
    b.preload_pages(vm, 0, ((10 * GIB / scale) / 4096) as u32);
    let mut sim = b.build();
    let src_cfg = SourceConfig {
        chunk_pages,
        ..SourceConfig::new(Technique::Agile)
    };
    let m = migrate_to_completion(&mut sim, vm, dst, src_cfg, 10 * GIB / scale);
    (m.total_time().unwrap().as_secs_f64(), m.migration_bytes)
}

/// Migrate `vm` to `dst` and run until the migration finishes; returns
/// its metrics.
fn migrate_to_completion(
    sim: &mut Simulation<World>,
    vm: usize,
    dst: usize,
    src_cfg: SourceConfig,
    dest_reservation: u64,
) -> MigrationMetrics {
    let mig = migrate::start_migration(sim, vm, dst, src_cfg, dest_reservation);
    while !sim.state().migrations[mig].finished {
        let next = sim.now() + SimDuration::from_secs(1);
        sim.run_until(next);
        assert!(sim.now() < SimTime::from_secs(3600), "stuck migration");
    }
    sim.state().migrations[mig].src.metrics().clone()
}

/// The §V-B testbed without a VMD, with a busy Redis VM of `vm_mem`
/// bytes (already scaled) whose dataset is `dataset_bytes`, loaded and
/// running from t = 1 s. Returns the simulation, the VM and the
/// destination host.
fn busy_vm(
    cfg: ClusterConfig,
    scale: u64,
    vm_mem: u64,
    dataset_bytes: u64,
) -> (Simulation<World>, usize, usize) {
    let mut b = ClusterBuilder::new(cfg);
    let (bed, vm) = Testbed::single_vm(&mut b, 6 * GIB / scale, vm_mem, scale, 0);
    let model = b.alloc_redis(vm, dataset_bytes, YcsbParams::update_heavy());
    b.attach_workload(vm, bed.client, WorkloadKind::Ycsb(model));
    b.preload_layout(vm);
    let mut sim = b.build();
    start_all_workloads(&mut sim, SimTime::from_secs(1));
    (sim, vm, bed.dst)
}

fn main() {
    let args = Args::parse();
    let scale = args.scale().max(8);

    println!("== ablation 1: transfer chunk size (Agile, 10 GiB/{scale} VM) ==");
    println!(
        "{:>12} {:>12} {:>12}",
        "chunk pages", "time (s)", "MB moved"
    );
    for chunk in [32u32, 128, 256, 1024] {
        let (t, b) = agile_once(chunk, 1, scale);
        println!("{chunk:>12} {t:>12.2} {:>12}", b / 1_000_000);
    }

    println!("\n== ablation 2: VMD intermediate-host count (paper: no dependence) ==");
    println!("{:>12} {:>12}", "servers", "time (s)");
    let mut times = Vec::new();
    for n in [1usize, 2, 4] {
        let (t, _) = agile_once(256, n, scale);
        times.push(t);
        println!("{n:>12} {t:>12.2}");
    }
    let spread = (times.iter().cloned().fold(f64::MIN, f64::max)
        - times.iter().cloned().fold(f64::MAX, f64::min))
        / times[0];
    println!("spread: {:.1}% (expect small)", spread * 100.0);

    println!("\n== ablation 3: guest swap readahead (busy VM under pressure) ==");
    println!(
        "{:>12} {:>16} {:>14}",
        "readahead", "guest ops (10s)", "post-copy (s)"
    );
    for ra in [1u32, 4, 8] {
        let (ops, t) = busy_postcopy_with_readahead(ra, scale);
        println!("{ra:>12} {ops:>16} {t:>14.2}");
    }
    println!("(readahead waste throttles the thrashing guest; the migration itself barely moves)");

    println!("\n== ablation 4: pre-copy convergence threshold (busy VM) ==");
    println!(
        "{:>14} {:>8} {:>12} {:>12}",
        "threshold pages", "rounds", "time (s)", "MB moved"
    );
    for threshold in [64u32, 512, 4096] {
        let (rounds, t, b) = precopy_with_threshold(threshold, scale);
        println!(
            "{threshold:>14} {rounds:>8} {t:>12.2} {:>12}",
            b / 1_000_000
        );
    }

    println!("\n== ablation 5: WSS controller α/β ==");
    println!(
        "{:>8} {:>8} {:>16} {:>14}",
        "alpha", "beta", "final err (%)", "within-20% (s)"
    );
    for (alpha, beta) in [(0.95, 1.03), (0.90, 1.06), (0.98, 1.01)] {
        let r = wss::run(&WssScenarioConfig {
            scale,
            alpha,
            beta,
            duration_secs: 500,
            ..Default::default()
        });
        let tw = r.true_wss_bytes as f64;
        let err = (r.final_reservation as f64 - tw) / tw * 100.0;
        let t20 = r
            .reservation_series
            .iter()
            .find(|(_, v)| (*v - tw).abs() / tw < 0.20)
            .map(|(t, _)| format!("{t:.0}"))
            .unwrap_or_else(|| "—".into());
        println!("{alpha:>8.2} {beta:>8.2} {err:>16.1} {t20:>14}");
    }
}

/// Busy post-copy sweep point with an explicit readahead setting; returns
/// (guest ops completed during the 10 s pressure warm-up, migration secs).
fn busy_postcopy_with_readahead(readahead: u32, scale: u64) -> (u64, f64) {
    let cfg = ClusterConfig {
        guest_readahead_pages: readahead,
        ..ClusterConfig::default()
    };
    let vm_mem = 10 * GIB / scale;
    let dataset_bytes = vm_mem - 500 * MIB / scale - 300 * MIB / scale;
    let (mut sim, vm, dst) = busy_vm(cfg, scale, vm_mem, dataset_bytes);
    sim.run_until(SimTime::from_secs(10));
    let warmup_ops = sim.state().vms[vm].meter.total();
    let src_cfg = SourceConfig::new(Technique::PostCopy);
    let m = migrate_to_completion(&mut sim, vm, dst, src_cfg, vm_mem);
    (warmup_ops, m.total_time().unwrap().as_secs_f64())
}

/// Busy pre-copy with an explicit convergence threshold; returns
/// (rounds, seconds, bytes).
fn precopy_with_threshold(threshold: u32, scale: u64) -> (u32, f64, u64) {
    let vm_mem = 4 * GIB / scale; // fits: write-heavy dirtying is the knob
    let (mut sim, vm, dst) = busy_vm(ClusterConfig::default(), scale, vm_mem, vm_mem / 2);
    sim.run_until(SimTime::from_secs(5));
    let src_cfg = SourceConfig {
        precopy_threshold_pages: threshold,
        ..SourceConfig::new(Technique::PreCopy)
    };
    let m = migrate_to_completion(&mut sim, vm, dst, src_cfg, vm_mem);
    (
        m.rounds,
        m.total_time().unwrap().as_secs_f64(),
        m.migration_bytes,
    )
}
