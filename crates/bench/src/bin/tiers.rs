//! Tier-stack crossover bench: sweep pool-DRAM scarcity under the
//! scarce-DRAM (SSD-spill) and far-memory stacks and write
//! `BENCH_5.json` pinning where cheap far memory starts beating scarce
//! remote DRAM on guest-visible fault latency and migration downtime.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin tiers -- --scale 64
//! ```
//!
//! Same seed + same scale ⇒ byte-identical reports and JSON (CI runs
//! this twice and diffs the outputs, then compares against the
//! checked-in baseline). The bin's gate checks the headline claim: at the
//! ample end of the sweep the all-DRAM stack wins the fault-latency
//! p99, at the scarce end the far-memory stack wins — the curves cross.

use agile_bench::ledger::{write_artifact, Gate};
use agile_bench::{obj, Args};
use agile_cluster::scenario::tiers::{self, TierArm, TiersResult};

fn main() {
    let args = Args::parse();
    let scale = args.get("scale").unwrap_or(64);
    let seed = args.get("seed").unwrap_or(42);
    let workers = args.get("workers").unwrap_or(4);
    let out = args.out_dir();

    let cfgs = tiers::sweep(scale, seed);
    let results = tiers::run_replicated(&cfgs, workers);

    let report: String = results.iter().map(|r| r.report.as_str()).collect();
    print!("{report}");
    write_artifact(&out, "TIERS_report.txt", &report);

    // Pair the two arms per sweep point (sweep() emits them adjacent).
    let points: Vec<(u64, &TiersResult, &TiersResult)> = cfgs
        .chunks(2)
        .zip(results.chunks(2))
        .map(|(c, r)| {
            assert_eq!(c[0].arm, TierArm::ScarceDram);
            assert_eq!(c[1].arm, TierArm::FarMemory);
            assert_eq!(c[0].dram_pct, c[1].dram_pct);
            (c[0].dram_pct, &r[0], &r[1])
        })
        .collect();

    let mut gate = Gate::new();
    for (pct, a, b) in &points {
        gate.check(
            format!("dram_pct={pct}: both migrations finished"),
            a.finished && b.finished,
        );
        gate.check(
            format!("dram_pct={pct}: faults > 100 in both arms"),
            a.faults > 100 && b.faults > 100,
        );
    }
    // The crossover. Ample end: remote DRAM strictly wins mean fault
    // latency (the p99 ties — the tail is the migration-time swap-in
    // queue, identical under both stacks, and the power-of-two buckets
    // cannot see a microsecond-scale device cost), and downtime must
    // not regress beyond noise (0.1 %). Scarce end: far memory strictly
    // wins mean, p99 *and* downtime — the advantage appears only under
    // scarcity, which is the crossover the stack exists for.
    let (ample_pct, ample_a, ample_b) = points.first().expect("non-empty sweep");
    let (scarce_pct, scarce_a, scarce_b) = points.last().expect("non-empty sweep");
    gate.check(
        format!(
            "dram_pct={ample_pct}: scarce_dram has lower fault_mean_ns, \
             fault_p99_ns no higher, downtime_ns within 0.1 %"
        ),
        ample_a.fault_mean_ns < ample_b.fault_mean_ns
            && ample_a.fault_p99_ns <= ample_b.fault_p99_ns
            && ample_a.downtime_ns <= ample_b.downtime_ns + ample_b.downtime_ns / 1000,
    );
    gate.check(
        format!(
            "dram_pct={scarce_pct}: far_memory has lower fault_mean_ns, fault_p99_ns, downtime_ns"
        ),
        scarce_a.fault_mean_ns > scarce_b.fault_mean_ns
            && scarce_a.fault_p99_ns > scarce_b.fault_p99_ns
            && scarce_a.downtime_ns > scarce_b.downtime_ns,
    );
    let crossover_pct = points
        .iter()
        .find(|(_, a, b)| a.fault_p99_ns > b.fault_p99_ns && a.downtime_ns > b.downtime_ns)
        .map(|(pct, _, _)| *pct as i64)
        .unwrap_or(-1);
    gate.check(
        "first_far_memory_win_pct > scarce_pct",
        crossover_pct > *scarce_pct as i64,
    );

    let arm = |r: &TiersResult| {
        obj! {
            "fault_mean_ns": r.fault_mean_ns, "fault_p50_ns": r.fault_p50_ns,
            "fault_p99_ns": r.fault_p99_ns, "fault_max_ns": r.fault_max_ns,
            "faults": r.faults, "downtime_ns": r.downtime_ns,
            "migration_ns": r.migration_ns, "tier_pages": r.tier_pages.clone(),
        }
    };
    let rows: Vec<_> = points
        .iter()
        .map(|(pct, a, b)| obj! { "dram_pct": *pct, "scarce_dram": arm(a), "far_memory": arm(b) })
        .collect();
    let ledger = obj! {
        "config": obj! { "scale": scale, "seed": seed },
        "points": rows,
        "crossover": obj! {
            "ample_pct": *ample_pct, "scarce_pct": *scarce_pct,
            "first_far_memory_win_pct": crossover_pct,
        },
    };
    gate.write_ledger(&out, "BENCH_5.json", ledger);
    gate.finish("tiers");
}
