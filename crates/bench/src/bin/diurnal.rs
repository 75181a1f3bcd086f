//! Diurnal cycle-prediction A/B: run `scenario::diurnal` twice on the
//! same seed — naive watermark firing vs the trough-aware predictor —
//! and write both reports plus `BENCH_3.json` with the signed deltas.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin diurnal -- --scale 64
//! ```
//!
//! Same seed + same scale ⇒ byte-identical reports and traces (CI runs
//! this twice and diffs the outputs). The bin's gate checks the headline
//! claim: trough-scheduled migrations move strictly fewer bytes *and*
//! suffer strictly lower p99 downtime than naive firing.

use agile_bench::ledger::{write_artifact, Gate};
use agile_bench::{obj, Args};
use agile_cluster::scenario::diurnal::{self, DiurnalConfig, DiurnalResult};

fn main() {
    let args = Args::parse();
    let scale = args.get("scale").unwrap_or(64);
    let seed = args.get("seed").unwrap_or(42);
    let out = args.out_dir();

    let base = DiurnalConfig {
        scale,
        seed,
        trace: true,
        ..DiurnalConfig::default()
    };
    let naive = diurnal::run(&DiurnalConfig {
        predict: false,
        ..base.clone()
    });
    let predicted = diurnal::run(&DiurnalConfig {
        predict: true,
        ..base.clone()
    });

    print!("{}", naive.report);
    print!("{}", predicted.report);
    for (name, r) in [("naive", &naive), ("predicted", &predicted)] {
        write_artifact(&out, &format!("DIURNAL_{name}_report.txt"), &r.report);
        let trace = r.trace_jsonl.as_deref().expect("tracing enabled");
        write_artifact(&out, &format!("DIURNAL_{name}_trace.jsonl"), trace);
    }
    write_artifact(&out, "DIURNAL_metrics.json", &predicted.metrics_json);

    let p = predicted.predict.expect("predictor armed");
    let delta_bytes = predicted.total_bytes as i64 - naive.total_bytes as i64;
    let delta_pages = predicted.total_pages_full as i64 - naive.total_pages_full as i64;
    let delta_p99 = predicted.downtime_p99_ns as i64 - naive.downtime_p99_ns as i64;

    let mut gate = Gate::new();
    gate.check("predict_counters.deferrals > 0", p.deferrals > 0);
    gate.check("delta.bytes < 0", delta_bytes < 0);
    gate.check("delta.downtime_p99_ns < 0", delta_p99 < 0);

    let arm = |r: &DiurnalResult| {
        obj! {
            "migrations": r.migrations.len(), "total_bytes": r.total_bytes,
            "total_pages_full": r.total_pages_full, "downtime_p99_ns": r.downtime_p99_ns,
            "events_executed": r.events_executed,
        }
    };
    let ledger = obj! {
        "config": obj! {
            "scale": scale, "seed": seed, "period_secs": base.period_secs,
            "flash1_secs": base.flash1_secs, "flash2_secs": base.flash2_secs,
            "deadline_secs": base.deadline_secs,
        },
        "naive": arm(&naive),
        "predicted": arm(&predicted),
        "predict_counters": obj! {
            "cycles_detected": p.cycles_detected, "deferrals": p.deferrals,
            "window_expiries": p.window_expiries, "trough_hits": p.trough_hits,
            "trough_misses": p.trough_misses, "cancelled": p.cancelled,
        },
        "delta": obj! {
            "bytes": delta_bytes, "pages_full": delta_pages, "downtime_p99_ns": delta_p99,
        },
    };
    gate.write_ledger(&out, "BENCH_3.json", ledger);
    gate.finish("diurnal");
}
