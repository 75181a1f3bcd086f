//! Regenerates **Figures 4, 5, 6**: average YCSB throughput across four
//! Redis VMs while one is migrated under memory pressure, for pre-copy,
//! post-copy, and Agile migration.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin fig4_6_ycsb_timeline -- --scale 8
//! # single technique:
//! cargo run --release -p agile-bench --bin fig4_6_ycsb_timeline -- --technique agile
//! ```
//!
//! Writes `fig4_precopy.csv`, `fig5_postcopy.csv`, `fig6_agile.csv` under
//! `--out` (default `target/experiments`).

use agile_bench::ledger::write_artifact;
use agile_bench::{series_csv, Args};
use agile_cluster::scenario::ycsb::{self, YcsbScenarioConfig};
use agile_migration::Technique;

fn main() {
    let args = Args::parse();
    let scale = args.scale();
    let out = args.out_dir();
    let only: Option<String> = args.get("technique");
    let techniques: Vec<(Technique, &str, &str)> = vec![
        (Technique::PreCopy, "precopy", "fig4_precopy.csv"),
        (Technique::PostCopy, "postcopy", "fig5_postcopy.csv"),
        (Technique::Agile, "agile", "fig6_agile.csv"),
    ];
    println!("Figures 4-6: YCSB/Redis timeline under memory pressure (scale 1/{scale})");
    println!(
        "{:<10} {:>10} {:>12} {:>14} {:>12} {:>12}",
        "technique", "mig time", "data moved", "avg ops/s", "peak ops/s", "recovered"
    );
    for (technique, name, file) in techniques {
        if let Some(o) = &only {
            if o != name {
                continue;
            }
        }
        let r = ycsb::run(&YcsbScenarioConfig {
            technique,
            scale,
            ..Default::default()
        });
        let csv = series_csv("seconds,avg_ops_per_sec", &r.series);
        let path = write_artifact(&out, file, &csv);
        println!(
            "{:<10} {:>8.1} s {:>10} MB {:>14.0} {:>12.0} {:>12}",
            name,
            r.metrics.total_secs(),
            r.metrics.migration_bytes / 1_000_000,
            r.avg_during_migration,
            r.peak_reference,
            r.recovery_at_secs
                .map(|t| format!("{t} s"))
                .unwrap_or_else(|| "—".into()),
        );
        eprintln!("  wrote {}", path.display());
    }
    println!(
        "\npaper reference (full scale): pre-copy 470 s / 15.0 GB, post-copy 247 s / 10.3 GB,\n\
         agile 108 s / 8.2 GB; recovery to 90% of peak: 533 s / 294 s / 215 s after t=0."
    );
}
