//! The paper's headline experiment (§V-A, Figures 4–6): four Redis VMs
//! thrash a consolidated host; one is migrated away with each technique
//! and the average YCSB throughput timeline is compared.
//!
//! ```sh
//! cargo run --release --example memory_pressure           # 1/64 scale
//! cargo run --release --example memory_pressure -- 16     # 1/16 scale
//! ```

use agile::cluster::scenario::pressure::{self, PressureConfig};
use agile::cluster::scenario::ycsb::{self, YcsbScenarioConfig};
use agile::sim::fmt_bytes;
use agile::Technique;

fn main() {
    let scale: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(64);
    println!("running at 1/{scale} of the paper's sizes\n");
    println!(
        "{:<10} {:>12} {:>14} {:>16} {:>14}",
        "technique", "mig time", "data moved", "avg ops/s (mig)", "recovered at"
    );
    for technique in [Technique::PreCopy, Technique::PostCopy, Technique::Agile] {
        let r = ycsb::run(&YcsbScenarioConfig {
            technique,
            scale,
            ..Default::default()
        });
        println!(
            "{:<10} {:>10.1} s {:>14} {:>16.0} {:>14}",
            technique.to_string(),
            r.metrics.total_secs(),
            fmt_bytes(r.metrics.migration_bytes),
            r.avg_during_migration,
            r.recovery_at_secs
                .map(|t| format!("{t} s"))
                .unwrap_or_else(|| "—".into()),
        );
    }
    println!(
        "\n(The paper's Table II: pre-copy 470 s, post-copy 247 s, agile 108 s;\n\
         Table III: 15.0 GB / 10.3 GB / 8.2 GB. Expect the same ordering and\n\
         similar ratios, not the absolute numbers.)"
    );

    // The memory-pressure flip side: donor hosts reclaiming their VMD
    // contributions. A skewed demand ramp halves the pool's capacity and
    // the elastic pool manager must relocate/demote every page.
    println!("\nelastic pool under donor-demand ramp (pool capacity halved):");
    let p = pressure::run(&PressureConfig {
        scale,
        ..Default::default()
    });
    println!(
        "  converged={} lost_placements={} relocated={} demoted={} \
         rebalance_moves={} final_spread={:.3}",
        p.converged,
        p.lost_placements,
        p.counters.pages_relocated,
        p.counters.pages_demoted,
        p.counters.rebalance_moves,
        p.final_spread,
    );
    assert!(p.converged && p.lost_placements == 0);
}
