//! Regenerates **Figures 9 and 10**: transparent working-set-size
//! tracking. A 5 GB VM with a 1.5 GB Redis dataset has its cgroup
//! reservation adjusted by the α/β/τ controller; Fig. 9 is the reservation
//! vs the true working set, Fig. 10 the YCSB throughput through the
//! transients.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin fig9_10_wss_tracking -- --scale 8
//! ```

use agile_bench::ledger::write_artifact;
use agile_bench::{series_csv, Args};
use agile_cluster::scenario::wss::{self, WssScenarioConfig};

fn main() {
    let args = Args::parse();
    let scale = args.scale();
    let out = args.out_dir();
    let cfg = WssScenarioConfig {
        scale,
        ..Default::default()
    };
    println!(
        "Figures 9-10: WSS tracking (α={} β={} τ={} KB/s, scale 1/{scale})",
        cfg.alpha, cfg.beta, cfg.tau_kbps
    );
    let r = wss::run(&cfg);

    // Fig. 9 CSV: reservation + constant true-WSS reference.
    let mut csv = String::from("seconds,reservation_bytes,true_wss_bytes\n");
    for &(t, v) in &r.reservation_series {
        csv.push_str(&format!("{t:.0},{v:.0},{}\n", r.true_wss_bytes));
    }
    let p9 = write_artifact(&out, "fig9_wss_tracking.csv", &csv);
    let p10 = write_artifact(
        &out,
        "fig10_wss_throughput.csv",
        &series_csv("seconds,ops_per_sec", &r.throughput_series),
    );

    // Console summary: convergence milestones.
    let tw = r.true_wss_bytes as f64;
    let within = |frac: f64| {
        r.reservation_series
            .iter()
            .find(|(_, v)| (*v - tw).abs() / tw < frac)
            .map(|(t, _)| *t)
    };
    println!(
        "true WSS {} MB; initial reservation {} MB",
        r.true_wss_bytes / 1_000_000,
        r.reservation_series
            .first()
            .map(|(_, v)| *v as u64 / 1_000_000)
            .unwrap_or(0)
    );
    println!(
        "reservation within 20% of WSS at {:?} s; within 10% at {:?} s",
        within(0.20),
        within(0.10)
    );
    println!(
        "final reservation {} MB ({:+.1}% of true WSS)",
        r.final_reservation / 1_000_000,
        (r.final_reservation as f64 - tw) / tw * 100.0
    );
    let peak = r
        .throughput_series
        .iter()
        .map(|(_, v)| *v)
        .fold(0.0f64, f64::max);
    let late: Vec<f64> = r
        .throughput_series
        .iter()
        .rev()
        .take(60)
        .map(|(_, v)| *v)
        .collect();
    println!(
        "YCSB throughput: peak {peak:.0} ops/s, final-minute mean {:.0} ops/s",
        late.iter().sum::<f64>() / late.len().max(1) as f64
    );
    eprintln!("wrote {} and {}", p9.display(), p10.display());
}
