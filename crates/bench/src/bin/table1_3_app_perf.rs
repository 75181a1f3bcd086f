//! Regenerates **Tables I, II, III**: average application performance
//! (YCSB ops/s, Sysbench trans/s) across 4 VMs during migration, total
//! migration time, and data transferred, for all three techniques.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin table1_3_app_perf -- --scale 8
//! ```

use agile_bench::ledger::write_artifact;
use agile_bench::{par_map, Args};
use agile_cluster::scenario::sysbench::{self, SysbenchScenarioConfig};
use agile_cluster::scenario::ycsb::{self, YcsbScenarioConfig};
use agile_migration::{MigrationMetrics, Technique};

struct Row {
    perf: f64,
    time_s: f64,
    mb: u64,
}

fn run_cell(technique: Technique, sysbench_wl: bool, scale: u64) -> Row {
    if sysbench_wl {
        let r = sysbench::run(&SysbenchScenarioConfig {
            technique,
            scale,
            ..Default::default()
        });
        row_from(&r.metrics, r.avg_during_window)
    } else {
        let r = ycsb::run(&YcsbScenarioConfig {
            technique,
            scale,
            ..Default::default()
        });
        row_from(&r.metrics, r.avg_during_migration)
    }
}

fn row_from(m: &MigrationMetrics, perf: f64) -> Row {
    Row {
        perf,
        time_s: m.total_secs(),
        mb: m.migration_bytes / 1_000_000,
    }
}

fn main() {
    let args = Args::parse();
    let scale = args.scale();
    let out = args.out_dir();
    let techniques = [Technique::PreCopy, Technique::PostCopy, Technique::Agile];

    // Six independent simulations, in parallel.
    let points: Vec<(usize, usize, Technique, bool)> = techniques
        .iter()
        .enumerate()
        .flat_map(|(ti, &t)| [(ti, 0usize, t, false), (ti, 1usize, t, true)])
        .collect();
    let cells: Vec<((usize, usize), Row)> = par_map(&points, |&(ti, wi, t, sysb)| {
        ((ti, wi), run_cell(t, sysb, scale))
    });
    let cell = |ti: usize, wi: usize| -> &Row {
        &cells
            .iter()
            .find(|((a, b), _)| *a == ti && *b == wi)
            .expect("cell computed")
            .1
    };

    println!("scale 1/{scale}; paper values at full scale in brackets\n");
    println!("Table I — average application performance across 4 VMs during migration");
    println!(
        "{:<22} {:>10} {:>10} {:>10}",
        "", "pre-copy", "post-copy", "agile"
    );
    println!(
        "{:<22} {:>10.0} {:>10.0} {:>10.0}   [7653 / 14926 / 17112]",
        "YCSB/Redis (ops/s)",
        cell(0, 0).perf,
        cell(1, 0).perf,
        cell(2, 0).perf
    );
    println!(
        "{:<22} {:>10.2} {:>10.2} {:>10.2}   [59.84 / 74.74 / 89.55]",
        "Sysbench (trans/s)",
        cell(0, 1).perf,
        cell(1, 1).perf,
        cell(2, 1).perf
    );

    println!("\nTable II — total migration time (seconds)");
    println!(
        "{:<22} {:>10.1} {:>10.1} {:>10.1}   [470 / 247 / 108]",
        "YCSB/Redis",
        cell(0, 0).time_s,
        cell(1, 0).time_s,
        cell(2, 0).time_s
    );
    println!(
        "{:<22} {:>10.1} {:>10.1} {:>10.1}   [182.66 / 157.56 / 80.37]",
        "Sysbench",
        cell(0, 1).time_s,
        cell(1, 1).time_s,
        cell(2, 1).time_s
    );

    println!("\nTable III — amount of data transferred (MB)");
    println!(
        "{:<22} {:>10} {:>10} {:>10}   [15029 / 10268 / 8173]",
        "YCSB/Redis",
        cell(0, 0).mb,
        cell(1, 0).mb,
        cell(2, 0).mb
    );
    println!(
        "{:<22} {:>10} {:>10} {:>10}   [11298 / 10268 / 7757]",
        "Sysbench",
        cell(0, 1).mb,
        cell(1, 1).mb,
        cell(2, 1).mb
    );

    let mut csv = String::from("workload,technique,perf,time_s,mb\n");
    for (ti, t) in techniques.iter().enumerate() {
        for (wi, w) in ["ycsb", "sysbench"].iter().enumerate() {
            let c = cell(ti, wi);
            csv.push_str(&format!("{w},{t},{:.2},{:.2},{}\n", c.perf, c.time_s, c.mb));
        }
    }
    let path = write_artifact(&out, "table1_3.csv", &csv);
    eprintln!("\nwrote {}", path.display());
}
