//! Phase-timeline export: run the single-VM migration scenario under all
//! three techniques with tracing enabled and write one
//! `TRACE_<technique>.json` phase timeline (plus the raw
//! `TRACE_<technique>.jsonl` event trace) per run.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin trace_export -- --scale 64
//! ```
//!
//! The exports are byte-deterministic per seed: running this binary twice
//! with the same `--seed` must produce identical files (CI diffs them as
//! a smoke gate). Timestamps are integer nanoseconds of simulated time,
//! so no wall-clock leaks in.

use agile_bench::ledger::write_artifact;
use agile_bench::{par_map, Args};
use agile_cluster::scenario::single_vm::{self, SingleVmConfig};
use agile_migration::Technique;

fn main() {
    let args = Args::parse();
    let scale = args.get("scale").unwrap_or(64);
    let seed = args.get("seed").unwrap_or(42);
    let out = args.out_dir();

    let points = [
        ("precopy", Technique::PreCopy),
        ("postcopy", Technique::PostCopy),
        ("agile", Technique::Agile),
    ];
    let results = par_map(&points, |&(name, technique)| {
        let r = single_vm::run(&SingleVmConfig {
            technique,
            scale,
            trace: true,
            seed,
            ..SingleVmConfig::default()
        });
        (name, r)
    });

    for (name, r) in results {
        let mut timeline = r.timeline.clone();
        timeline.scenario = name.to_string();
        let json = write_artifact(&out, &format!("TRACE_{name}.json"), &timeline.to_json());
        let jsonl = r.trace_jsonl.expect("tracing was enabled");
        write_artifact(&out, &format!("TRACE_{name}.jsonl"), &jsonl);
        println!(
            "{name}: total={:.3}s downtime={:.3}s bytes={} rounds={} -> {}",
            r.migration_secs,
            r.downtime_secs,
            r.migration_bytes,
            r.metrics.rounds,
            json.display()
        );
    }
}
