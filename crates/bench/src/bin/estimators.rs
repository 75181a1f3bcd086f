//! WSS-estimator accuracy A/B: run `scenario::estimators` twice on the
//! same seed — swap-I/O (the paper's iostat path) vs simulated-PML
//! dirty-epoch sampling, both against the ground-truth oracle — and
//! write both reports plus `BENCH_4.json` with the signed deltas.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin estimators -- --scale 64
//! ```
//!
//! Same seed + same scale ⇒ byte-identical reports and traces (CI runs
//! this twice and diffs the outputs). The bin's gate checks the headline
//! claim: on the no-swap ramp phase the PML estimator's mean error
//! against ground truth is strictly lower than swap-I/O's, and it
//! detects the working-set growth at least one full epoch earlier.

use agile_bench::ledger::{write_artifact, Gate};
use agile_bench::{obj, Args};
use agile_cluster::config::WssEstimatorKind;
use agile_cluster::scenario::estimators::{self, EstimatorsConfig, EstimatorsResult};

fn main() {
    let args = Args::parse();
    let scale = args.get("scale").unwrap_or(64);
    let seed = args.get("seed").unwrap_or(42);
    let out = args.out_dir();

    let base = EstimatorsConfig {
        scale,
        seed,
        trace: true,
        ..EstimatorsConfig::default()
    };
    let swap = estimators::run(&EstimatorsConfig {
        estimator: WssEstimatorKind::SwapIo,
        ..base.clone()
    });
    let pml = estimators::run(&EstimatorsConfig {
        estimator: WssEstimatorKind::Pml,
        ..base.clone()
    });

    print!("{}", swap.report);
    print!("{}", pml.report);
    let ab = estimators::ab_summary(&swap, &pml);
    print!("{ab}");
    for (name, r) in [("swap_io", &swap), ("pml", &pml)] {
        write_artifact(&out, &format!("ESTIMATORS_{name}_report.txt"), &r.report);
        let trace = r.trace_jsonl.as_deref().expect("tracing enabled");
        write_artifact(&out, &format!("ESTIMATORS_{name}_trace.jsonl"), trace);
    }
    write_artifact(&out, "ESTIMATORS_ab_summary.txt", &ab);
    write_artifact(&out, "ESTIMATORS_metrics.json", &pml.metrics_json);

    let epoch_ns = 4_000_000_000i128; // the PML arm's sampling epoch
    let d_mae_no_swap = pml.mae_no_swap_bytes as i128 - swap.mae_no_swap_bytes as i128;
    let d_mae_total = pml.mae_total_bytes as i128 - swap.mae_total_bytes as i128;
    let d_detect = pml.detect_ns as i128 - swap.detect_ns as i128;

    let mut gate = Gate::new();
    gate.check("swap_io.detect_ns < u64::MAX", swap.detect_ns != u64::MAX);
    gate.check("pml.pml_overflows > 0", pml.wss_counters.pml_overflows > 0);
    gate.check("delta.mae_no_swap_bytes < 0", d_mae_no_swap < 0);
    gate.check("delta.detect_ns <= -epoch", d_detect <= -epoch_ns);

    let arm = |r: &EstimatorsResult| {
        obj! {
            "mae_no_swap_bytes": r.mae_no_swap_bytes, "mae_total_bytes": r.mae_total_bytes,
            "detect_ns": r.detect_ns, "epochs_no_swap": r.epochs_no_swap,
            "epochs_total": r.epochs_total, "major_faults": r.major_faults,
            "completions": r.completions, "reservation_avg_bytes": r.reservation_avg_bytes,
            "migrations": r.migrations, "first_migration_ns": r.first_migration_ns,
            "pml_overflows": r.wss_counters.pml_overflows,
            "events_executed": r.events_executed,
        }
    };
    let ledger = obj! {
        "config": obj! {
            "scale": scale, "seed": seed, "no_swap_secs": base.no_swap_secs,
            "detect_bytes": base.detect_bytes, "deadline_secs": base.deadline_secs,
        },
        "swap_io": arm(&swap),
        "pml": arm(&pml),
        "delta": obj! {
            "mae_no_swap_bytes": d_mae_no_swap, "mae_total_bytes": d_mae_total,
            "detect_ns": d_detect,
        },
    };
    gate.write_ledger(&out, "BENCH_4.json", ledger);
    gate.finish("estimators");
}
