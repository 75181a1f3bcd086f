//! Machine-readable performance report: times the DES hot-path
//! micro-kernels (slab event queue, incremental water-filling, word-level
//! bitmap scans) plus one reduced Figure-7 end-to-end sweep, and writes
//! the numbers to `BENCH_1.json`.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin perf_report -- --out .
//! ```
//!
//! The JSON is flat: a `results` array of `{name, ns_per_iter, per_sec}`
//! micro-kernel entries plus the sweep wall-clock, so a driver can diff
//! two runs without parsing human-oriented output.
//!
//! `--check-against <BENCH_1.json>` turns the run into a regression gate:
//! each measured kernel is compared against the same-named entry in the
//! baseline report and the process exits non-zero if any hot path slowed
//! down by more than 25%.

use agile_bench::harness::BenchResult;
use agile_bench::kernels;
use agile_bench::ledger::{fixed, parse_baseline, write_artifact, Gate, Object};
use agile_bench::{obj, Args};
use agile_cluster::scenario::single_vm::{self, SingleVmConfig};
use agile_migration::Technique;
use agile_sim_core::GIB;
use std::time::Instant;

/// One reduced Figure-7 sweep (3 techniques × 2 VM sizes, idle, scale
/// 1/64): end-to-end wall-clock, plus total simulator events.
fn end_to_end_sweep() -> (f64, f64) {
    let t0 = Instant::now();
    let mut sim_secs_total = 0.0;
    for technique in [Technique::PreCopy, Technique::PostCopy, Technique::Agile] {
        for size_gib in [4u64, 8u64] {
            let r = single_vm::run(&SingleVmConfig {
                technique,
                vm_mem: size_gib * GIB,
                host_mem: 6 * GIB,
                busy: false,
                scale: 64,
                ..Default::default()
            });
            sim_secs_total += r.migration_secs;
        }
    }
    (t0.elapsed().as_secs_f64(), sim_secs_total)
}

/// The `BENCH_1.json` ledger: one `{name, ns_per_iter, per_sec}` record
/// per kernel plus the reduced Fig. 7 sweep.
fn bench1_ledger(results: &[BenchResult], sweep_wall_s: f64, sweep_sim_s: f64) -> Object {
    let records: Vec<_> = results
        .iter()
        .map(|r| {
            let (ns, per_sec) = (fixed(r.ns_per_iter, 2), fixed(r.per_sec(), 0));
            obj! { "name": r.name.as_str(), "ns_per_iter": ns, "per_sec": per_sec }
        })
        .collect();
    obj! {
        "results": records,
        "fig7_sweep": obj! {
            "wall_secs": fixed(sweep_wall_s, 3),
            "simulated_migration_secs": fixed(sweep_sim_s, 3), "scale": 64u64, "points": 6u64,
        },
    }
}

/// Max tolerated slowdown before the gate fails: current may be at most
/// 1.25× the baseline ns/iter. Micro-benchmarks on shared CI runners
/// jitter by ~10%; 25% headroom keeps the gate quiet on noise while still
/// catching a hot path regressing to allocation or linear scans.
const GATE_SLOWDOWN: f64 = 1.25;

/// Gate each measured kernel against its same-named baseline entry: one
/// check per kernel that has one. A kernel that reads slow is re-measured
/// up to twice, keeping its best time — wall-clock micro-benchmarks on
/// shared runners see transient 1.5–2x spikes from scheduler
/// interference, and only a *persistent* slowdown is a regression.
fn check_against(gate: &mut Gate, results: &[BenchResult], baseline: &[(String, f64)]) {
    println!("-- regression gate (fail above {GATE_SLOWDOWN:.2}x baseline) --");
    gate.check("baseline has results", !baseline.is_empty());
    for (r, kernel) in results.iter().zip(kernels::ALL) {
        let Some(&(_, base_ns)) = baseline.iter().find(|(n, _)| *n == r.name) else {
            println!("{:<44} (new kernel, no baseline — skipped)", r.name);
            continue;
        };
        let mut ns = r.ns_per_iter;
        for retry in 1..=2 {
            if ns <= base_ns * GATE_SLOWDOWN {
                break;
            }
            println!(
                "-- gate retry {retry}: {} read slow; re-measuring --",
                r.name
            );
            ns = ns.min(kernel().ns_per_iter);
        }
        let ratio = ns / base_ns;
        let ok = gate.check(
            format!("{} <= {GATE_SLOWDOWN:.2}x baseline", r.name),
            ratio <= GATE_SLOWDOWN,
        );
        println!(
            "{:<44} {:>10.1} ns vs {:>10.1} ns baseline  ({:>5.2}x)  {}",
            r.name,
            ns,
            base_ns,
            ratio,
            if ok { "ok" } else { "FAIL" }
        );
    }
}

fn main() {
    let args = Args::parse();
    let out_dir = args
        .get::<String>("out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));

    println!("-- micro-kernels --");
    let results: Vec<BenchResult> = kernels::ALL.iter().map(|kernel| kernel()).collect();
    println!("-- end-to-end reduced Fig. 7 sweep (scale 1/64) --");
    let (sweep_wall_s, sweep_sim_s) = end_to_end_sweep();
    println!("sweep: {sweep_wall_s:.2} s wall for {sweep_sim_s:.1} simulated s of migration");

    let ledger = bench1_ledger(&results, sweep_wall_s, sweep_sim_s);
    let path = write_artifact(&out_dir, "BENCH_1.json", &ledger.to_ledger());
    println!("wrote {}", path.display());

    let mut gate = run_bench2(&args, &out_dir);

    if let Some(baseline_path) = args.get::<String>("check-against") {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        check_against(&mut gate, &results, &parse_baseline(&text));
    }
    gate.finish("perf_report");
}

/// Required 1→4-worker throughput scaling when the machine actually has
/// the cores to run 4 shard workers in parallel.
const SCALING_GATE: f64 = 2.0;

/// Sharded-DES scaling curve → `BENCH_2.json`: the datacenter scenario
/// at 1, 2, and 4 workers, reporting simulated-seconds-per-wall-second
/// plus the engine-measured available parallelism (busy / critical
/// path). Deterministic outputs are cross-checked across worker counts.
///
/// `--dc-scale large` runs the 1,024-host preset (the checked-in
/// artifact); the default `small` keeps CI fast. The scaling check only
/// applies when `host_cpus >= 4` — on smaller machines worker threads
/// time-share cores and wall-clock scaling is physically impossible, so
/// the gate records the honest numbers and skips. Returns the gate, with
/// its checks so far recorded in `BENCH_2.json`.
fn run_bench2(args: &Args, out_dir: &std::path::Path) -> Gate {
    use agile_cluster::scenario::datacenter::{self, DatacenterConfig};

    let dc_scale: String = args.get("dc-scale").unwrap_or_else(|| "small".to_string());
    let base = match dc_scale.as_str() {
        "small" => DatacenterConfig::small(),
        "large" => DatacenterConfig::large(),
        other => panic!("unknown --dc-scale {other} (small|large)"),
    };
    println!("-- sharded-DES scaling (datacenter --scale {dc_scale}) --");

    let curve: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|workers| {
            let r = datacenter::run(&DatacenterConfig {
                workers,
                ..base.clone()
            });
            println!(
                "workers={workers} hosts={} vms={} sim_secs={:.1} wall_secs={:.3} \
                 sims_per_wall={:.1} available_parallelism={:.2}",
                r.hosts,
                r.vms,
                r.sim_secs,
                r.wall.wall_secs,
                r.sim_secs / r.wall.wall_secs.max(1e-9),
                r.wall.available_parallelism
            );
            (workers, r)
        })
        .collect();

    let r0 = &curve[0].1;
    let host_cpus = r0.wall.host_cpus;
    let spw = |i: usize| curve[i].1.sim_secs / curve[i].1.wall.wall_secs.max(1e-9);
    let speedup_4_over_1 = spw(2) / spw(0).max(1e-9);
    let gate_applicable = host_cpus >= 4;

    let mut gate = Gate::new()
        .param("required_speedup", fixed(SCALING_GATE, 1))
        .param("applicable", gate_applicable);
    for (workers, r) in &curve {
        gate.check(format!("workers={workers}: converged"), r.converged);
        if *workers > 1 {
            gate.check(
                format!("workers={workers}: report byte-identical to workers=1"),
                r.report == r0.report,
            );
        }
    }
    gate.check(
        format!("speedup_4_over_1 >= {SCALING_GATE:.1} where host_cpus >= 4"),
        !gate_applicable || speedup_4_over_1 >= SCALING_GATE,
    );

    let points: Vec<_> = curve
        .iter()
        .map(|(workers, r)| {
            let w = &r.wall;
            obj! {
                "workers": *workers, "sim_secs": fixed(r.sim_secs, 3),
                "wall_secs": fixed(w.wall_secs, 4),
                "sims_per_wall": fixed(r.sim_secs / w.wall_secs.max(1e-9), 2),
                "busy_secs": fixed(w.busy_secs, 4),
                "critical_path_secs": fixed(w.critical_path_secs, 4),
                "available_parallelism": fixed(w.available_parallelism, 3),
            }
        })
        .collect();
    let ledger = obj! {
        "host_cpus": host_cpus,
        "config": obj! {
            "scale": dc_scale.as_str(), "racks": r0.racks, "hosts": r0.hosts, "vms": r0.vms,
            "migrations": r0.migrations, "events_executed": r0.events_executed,
        },
        "curve": points,
        "speedup_4_over_1": fixed(speedup_4_over_1, 3),
    };
    gate.write_ledger(out_dir, "BENCH_2.json", ledger);
    if !gate_applicable {
        println!(
            "scaling check skipped: host_cpus={host_cpus} < 4 workers (wall-clock scaling \
             impossible; available_parallelism={:.2} recorded instead)",
            curve[2].1.wall.available_parallelism
        );
    }
    gate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_parser_recovers_every_bench1_kernel() {
        let mut results: Vec<BenchResult> = [
            "event_queue/fast_schedule_pop_1k_pending",
            "network/send_poll_rack_trunk",
            "odd \"quoted\" \\ name, with {braces}",
        ]
        .iter()
        .enumerate()
        .map(|(i, name)| BenchResult {
            name: name.to_string(),
            ns_per_iter: 12.345 * (i + 1) as f64 * 1e3,
            iters_per_batch: 1,
        })
        .collect();
        results[0].ns_per_iter = 64.26;
        let text = bench1_ledger(&results, 0.034, 4.881).to_ledger();
        let parsed = parse_baseline(&text);
        assert_eq!(parsed.len(), results.len());
        for (r, (name, ns)) in results.iter().zip(&parsed) {
            assert_eq!(&r.name, name);
            assert!((r.ns_per_iter - ns).abs() <= 0.005, "{name}: {ns}");
        }
    }
}
