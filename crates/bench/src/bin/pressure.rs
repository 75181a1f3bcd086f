//! Elastic-pool pressure smoke: run `scenario::pressure` (3 donor
//! servers, skewed demand ramp halving the pool) with tracing on and
//! write the deterministic pool report plus the raw event trace.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin pressure -- --scale 64
//! ```
//!
//! Same seed + same scale ⇒ byte-identical `PRESSURE_report.txt` and
//! `PRESSURE_trace.jsonl` (CI runs this twice and diffs the outputs).

use agile_bench::ledger::{write_artifact, Gate};
use agile_bench::Args;
use agile_cluster::scenario::pressure::{self, PressureConfig};

fn main() {
    let args = Args::parse();
    let scale = args.get("scale").unwrap_or(64);
    let seed = args.get("seed").unwrap_or(42);
    let out = args.out_dir();

    let r = pressure::run(&PressureConfig {
        scale,
        seed,
        trace: true,
        ..PressureConfig::default()
    });

    print!("{}", r.report);
    let report = write_artifact(&out, "PRESSURE_report.txt", &r.report);
    let trace = r.trace_jsonl.as_deref().expect("tracing was enabled");
    write_artifact(&out, "PRESSURE_trace.jsonl", trace);
    write_artifact(&out, "PRESSURE_metrics.json", &r.metrics_json);
    println!("report -> {}", report.display());

    let mut gate = Gate::new();
    gate.check("pool quiesced before the deadline", r.converged);
    gate.check("lost_placements == 0", r.lost_placements == 0);
    gate.check(
        "directory_replicas == stored_pages",
        r.directory_replicas == r.stored_pages,
    );
    gate.finish("pressure");
}
