//! Rapid scale-out bench: a flash crowd spawns 16 clones off a sealed
//! gold image under streamed (post-copy style) and full pre-copy
//! cloning, and `BENCH_6.json` pins the A/B: time-to-first-page-served,
//! time-to-fleet-ready, clone-attributable fabric bytes, and the
//! master-host interference probe.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin scaleout -- --scale 16
//! ```
//!
//! Same seed + same scale ⇒ byte-identical reports and JSON (CI runs
//! this twice and diffs the outputs, then compares against the
//! checked-in baseline). The bin's gate checks the headline claim: streamed
//! cloning serves first pages orders of magnitude sooner AND moves
//! fewer fabric bytes for a short-lived crowd — teardown cancels the
//! hydration that precopy pays up front.

use agile_bench::ledger::{write_artifact, Gate};
use agile_bench::{obj, Args};
use agile_cluster::scenario::scaleout::{self, CloneArm, ScaleoutConfig, ScaleoutResult};

fn main() {
    let args = Args::parse();
    let scale = args.get("scale").unwrap_or(16);
    let seed = args.get("seed").unwrap_or(42);
    let workers = args.get("workers").unwrap_or(2);
    let clones: usize = args.get("clones").unwrap_or(16);
    let out = args.out_dir();

    let cfgs: Vec<ScaleoutConfig> = [CloneArm::Streamed, CloneArm::Precopy]
        .into_iter()
        .map(|arm| ScaleoutConfig {
            arm,
            clones,
            scale,
            seed,
            ..ScaleoutConfig::default()
        })
        .collect();
    let results = scaleout::run_replicated(&cfgs, workers);
    let (s, p) = (&results[0], &results[1]);

    let report: String = results.iter().map(|r| r.report.as_str()).collect();
    print!("{report}");
    write_artifact(&out, "SCALEOUT_report.txt", &report);

    // Signed deltas, streamed minus precopy: negative = streamed wins.
    let d_ttfps = s.ttfps_mean_ns as i64 - p.ttfps_mean_ns as i64;
    let d_all_ready = s.all_ready_ns as i64 - p.all_ready_ns as i64;
    let d_fabric = s.fabric_bytes as i64 - p.fabric_bytes as i64;
    let d_bystander = s.bystander_ops as i64 - p.bystander_ops as i64;

    let mut gate = Gate::new();
    for (name, r) in [("streamed", s), ("precopy", p)] {
        gate.check(format!("{name}.ready == clones"), r.ready == clones as u64);
        gate.check(
            format!("{name}.torn_down == clones"),
            r.torn_down == clones as u64,
        );
        gate.check(format!("{name}.lost_reads == 0"), r.lost_reads == 0);
        gate.check(format!("{name}.cow_breaks > 0"), r.cow_breaks > 0);
    }
    gate.check("delta.ttfps_mean_ns < 0", d_ttfps < 0);
    gate.check("delta.fabric_bytes < 0", d_fabric < 0);

    let arm = |r: &ScaleoutResult| {
        obj! {
            "spawned": r.spawned, "ready": r.ready, "ttfps_mean_ns": r.ttfps_mean_ns,
            "ttfps_max_ns": r.ttfps_max_ns, "all_ready_ns": r.all_ready_ns,
            "fabric_bytes": r.fabric_bytes, "hydrated_pages": r.hydrated_pages,
            "cow_breaks": r.cow_breaks, "torn_down": r.torn_down, "lost_reads": r.lost_reads,
            "bystander_ops": r.bystander_ops, "digest": format!("{:#018x}", r.digest),
            "events_executed": r.events_executed,
        }
    };
    let ledger = obj! {
        "config": obj! { "scale": scale, "seed": seed, "clones": clones },
        "streamed": arm(s),
        "precopy": arm(p),
        "delta_streamed_minus_precopy": obj! {
            "ttfps_mean_ns": d_ttfps, "all_ready_ns": d_all_ready,
            "fabric_bytes": d_fabric, "bystander_ops": d_bystander,
        },
    };
    gate.write_ledger(&out, "BENCH_6.json", ledger);
    gate.finish("scaleout");
}
