//! Multihost watermark-rebalancing smoke: run `scenario::multihost`
//! (4 hosts × 8 VMs by default) with tracing on and write the
//! deterministic rebalance report plus the raw event trace.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin multihost -- --scale 64
//! ```
//!
//! Same seed + same scale ⇒ byte-identical `MULTIHOST_report.txt` and
//! `MULTIHOST_trace.jsonl` (CI runs this twice and diffs the outputs).

use agile_bench::ledger::{write_artifact, Gate};
use agile_bench::Args;
use agile_cluster::scenario::multihost::{self, MultihostConfig};

fn main() {
    let args = Args::parse();
    let scale = args.get("scale").unwrap_or(64);
    let seed = args.get("seed").unwrap_or(42);
    let out = args.out_dir();

    let r = multihost::run(&MultihostConfig {
        scale,
        seed,
        trace: true,
        ..MultihostConfig::default()
    });

    print!("{}", r.report);
    let report = write_artifact(&out, "MULTIHOST_report.txt", &r.report);
    let trace = r.trace_jsonl.as_deref().expect("tracing was enabled");
    write_artifact(&out, "MULTIHOST_trace.jsonl", trace);
    write_artifact(&out, "MULTIHOST_metrics.json", &r.metrics_json);
    println!("report -> {}", report.display());

    let mut gate = Gate::new();
    gate.check("converged below high watermarks", r.converged);
    gate.check(
        "max_vm_migrations <= 1 (no ping-pong)",
        r.max_vm_migrations <= 1,
    );
    gate.finish("multihost");
}
