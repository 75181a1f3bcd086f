//! Datacenter-scale sharded-DES benchmark: run `scenario::datacenter`
//! (racks as shards under the conservative epoch harness) and report
//! simulated-seconds-per-wall-second against the worker count.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin datacenter -- --scale small
//! cargo run --release -p agile-bench --bin datacenter -- --scale large --workers 4
//! ```
//!
//! `DATACENTER_report.txt` is deterministic (same seed ⇒ byte-identical
//! at any `--workers`; CI runs small at 1 and 4 workers and large at 2
//! and 1, and diffs each pair). The wall-clock
//! scaling lines and the process's peak RSS (`VmHWM` from
//! `/proc/self/status`, blank where that file does not exist) go to stdout
//! and `DATACENTER_scaling.csv` only — they are measurement, not part of
//! the determinism surface.

use agile_bench::ledger::{write_artifact, Gate};
use agile_bench::Args;
use agile_cluster::scenario::datacenter::{self, DatacenterConfig};

fn main() {
    let args = Args::parse();
    let scale: String = args.get("scale").unwrap_or_else(|| "small".to_string());
    let mut cfg = match scale.as_str() {
        "small" => DatacenterConfig::small(),
        "large" => DatacenterConfig::large(),
        other => panic!("unknown --scale {other} (small|large)"),
    };
    if let Some(racks) = args.get("racks") {
        cfg.racks = racks;
    }
    if let Some(h) = args.get("hosts-per-rack") {
        cfg.hosts_per_rack = h;
    }
    if let Some(k) = args.get("vms-per-host") {
        cfg.vms_per_packed_host = k;
    }
    if let Some(seed) = args.get("seed") {
        cfg.seed = seed;
    }
    cfg.workers = args.get("workers").unwrap_or(cfg.workers);
    let out = args.out_dir();

    let r = datacenter::run(&cfg);
    let peak_rss = agile_bench::peak_rss_mb().map_or(String::new(), |mb| format!("{mb:.1}"));
    print!("{}", r.report);

    let mut csv = String::from(
        "racks,hosts,vms,workers,host_cpus,sim_secs,wall_secs,sims_per_wall,\
         busy_secs,critical_path_secs,available_parallelism,peak_rss_mb\n",
    );
    let sims_per_wall = r.sim_secs / r.wall.wall_secs.max(1e-9);
    csv.push_str(&format!(
        "{},{},{},{},{},{:.3},{:.6},{:.1},{:.6},{:.6},{:.3},{}\n",
        r.racks,
        r.hosts,
        r.vms,
        r.wall.workers,
        r.wall.host_cpus,
        r.sim_secs,
        r.wall.wall_secs,
        sims_per_wall,
        r.wall.busy_secs,
        r.wall.critical_path_secs,
        r.wall.available_parallelism,
        peak_rss,
    ));
    println!(
        "wall: hosts={} vms={} workers={} host_cpus={} sim_secs={:.1} wall_secs={:.3} \
         sims_per_wall={:.0} available_parallelism={:.2} peak_rss_mb={}",
        r.hosts,
        r.vms,
        r.wall.workers,
        r.wall.host_cpus,
        r.sim_secs,
        r.wall.wall_secs,
        sims_per_wall,
        r.wall.available_parallelism,
        peak_rss,
    );

    let report = write_artifact(&out, "DATACENTER_report.txt", &r.report);
    write_artifact(&out, "DATACENTER_scaling.csv", &csv);
    println!("report -> {}", report.display());

    let mut gate = Gate::new();
    gate.check("rebalanced (converged)", r.converged);
    gate.check("migrations > 0 (hot racks migrate)", r.migrations > 0);
    gate.finish("datacenter");
}
