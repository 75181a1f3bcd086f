//! Fault-recovery experiment: migrations under an injected VMD server
//! crash and a migration connection drop, reporting the unavailability
//! windows and enforcing the replication invariant.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin chaos_recovery -- --scale 64
//! ```
//!
//! Three scenarios run, each an Agile migration of an over-committed VM
//! (most of its memory in the portable VMD namespace) with the fault
//! landing mid-migration:
//!
//! | scenario | fault | must hold |
//! |----------|-------|-----------|
//! | `crash_k2` | VMD server crash + rejoin, `k = 2` | zero lost slots/pages, byte-identical destination image (in-run check armed), bounded unavailability |
//! | `crash_k1` | same crash, `k = 1` | losses *reported*, run completes — no panic, no wedge |
//! | `conn_drop_k2` | migration connection cut pre-resume | abort-and-retry completes the migration, nothing lost |
//!
//! Each invariant is a named gate check; a failed check exits non-zero,
//! so CI can run this as a smoke gate (`--scale 64` keeps it to a few
//! seconds). `--out DIR` also writes `chaos_recovery.csv`.

use agile_bench::ledger::{write_artifact, Gate};
use agile_bench::Args;
use agile_chaos::{ChaosSchedule, FaultKind};
use agile_cluster::scenario::chaos::{self, ChaosScenarioConfig, ChaosScenarioResult};
use agile_sim_core::{SimDuration, SimTime};

/// Seconds of warm-up before the migration starts; faults are placed
/// relative to this so they land mid-migration at any scale.
const WARMUP_SECS: u64 = 10;

fn base_cfg(args: &Args, replication: usize, schedule: ChaosSchedule) -> ChaosScenarioConfig {
    ChaosScenarioConfig {
        scale: args.get("scale").unwrap_or(64),
        replication,
        vmd_servers: 3,
        schedule,
        verify_content: replication >= 2,
        warmup_secs: WARMUP_SECS,
        deadline_secs: 600,
        seed: args.get("seed").unwrap_or(7),
        ..Default::default()
    }
}

/// A server crash 200 ms into the migration, rejoining (empty) 10 s later.
fn crash_schedule() -> ChaosSchedule {
    ChaosSchedule::builder()
        .server_outage(
            0,
            SimTime::from_secs(WARMUP_SECS) + SimDuration::from_millis(200),
            SimDuration::from_secs(10),
        )
        .build()
}

/// The migration's channels cut 100 ms in — pre-resume, so the source
/// rolls back and retries from scratch after a backoff.
fn conn_drop_schedule() -> ChaosSchedule {
    ChaosSchedule::builder()
        .fault(
            SimTime::from_secs(WARMUP_SECS) + SimDuration::from_millis(100),
            FaultKind::MigrationConnDrop { mig: 0 },
        )
        .build()
}

fn report(name: &str, r: &ChaosScenarioResult) {
    println!("== {name} ==");
    println!(
        "  migration: finished={} time={:.2}s downtime={:.3}s retries={} bytes={}",
        r.finished, r.migration_secs, r.downtime_secs, r.retries, r.migration_bytes
    );
    println!(
        "  losses: slots_lost={} lost_reads={} pages_lost_on_conn_drop={}",
        r.slots_lost, r.lost_reads, r.pages_lost_on_conn_drop
    );
    println!(
        "  repair: slots_repaired={} worst_unavailability={:.2}s conn_drops={}",
        r.slots_repaired, r.worst_unavailability_secs, r.conn_drops
    );
    for c in &r.crashes {
        let stamp = |t: Option<SimTime>| match t {
            Some(t) => format!("{:.2}s", t.as_secs_f64()),
            None => "—".into(),
        };
        println!(
            "  crash: server {} at {:.2}s detected={} repaired={} rejoined={} evicted={} lost={}",
            c.server,
            c.at.as_secs_f64(),
            stamp(c.detected_at),
            stamp(c.repaired_at),
            stamp(c.rejoined_at),
            c.slots_evicted,
            c.slots_lost
        );
    }
}

fn csv_row(name: &str, r: &ChaosScenarioResult) -> String {
    format!(
        "{name},{},{:.3},{:.4},{},{},{},{},{},{:.3}\n",
        r.finished,
        r.migration_secs,
        r.downtime_secs,
        r.retries,
        r.slots_lost,
        r.slots_repaired,
        r.lost_reads,
        r.pages_lost_on_conn_drop,
        r.worst_unavailability_secs
    )
}

fn main() {
    let args = Args::parse();
    let mut gate = Gate::new();
    let mut csv =
        String::from("scenario,finished,migration_secs,downtime_secs,retries,slots_lost,slots_repaired,lost_reads,pages_lost_on_conn_drop,worst_unavailability_secs\n");

    // k = 2: a mid-migration VMD server crash must lose nothing. The
    // scenario arms the in-run content check, so a wrong byte at the
    // destination panics inside the run; here we gate the counters.
    let k2 = chaos::run(&base_cfg(&args, 2, crash_schedule()));
    report("crash_k2", &k2);
    csv.push_str(&csv_row("crash_k2", &k2));
    gate.check("crash_k2: migration finished", k2.finished);
    gate.check(
        "crash_k2: slots_lost, lost_reads and pages_lost_on_conn_drop all 0",
        k2.slots_lost == 0 && k2.lost_reads == 0 && k2.pages_lost_on_conn_drop == 0,
    );
    gate.check("crash_k2: slots_repaired > 0", k2.slots_repaired > 0);
    gate.check(
        "crash_k2: 0 s < worst_unavailability_secs < 60 s",
        k2.worst_unavailability_secs > 0.0 && k2.worst_unavailability_secs < 60.0,
    );

    // k = 1: no redundancy — the same crash loses slots, and the run must
    // say so (and still complete) rather than panic or wedge.
    let k1 = chaos::run(&base_cfg(&args, 1, crash_schedule()));
    report("crash_k1", &k1);
    csv.push_str(&csv_row("crash_k1", &k1));
    gate.check("crash_k1: migration finished", k1.finished);
    gate.check("crash_k1: slots_lost > 0", k1.slots_lost > 0);

    // Connection drop pre-resume: abort, roll back, retry after backoff.
    let drop = chaos::run(&base_cfg(&args, 2, conn_drop_schedule()));
    report("conn_drop_k2", &drop);
    csv.push_str(&csv_row("conn_drop_k2", &drop));
    gate.check("conn_drop_k2: migration finished", drop.finished);
    gate.check("conn_drop_k2: retries > 0", drop.retries > 0);
    gate.check(
        "conn_drop_k2: slots_lost and lost_reads both 0",
        drop.slots_lost == 0 && drop.lost_reads == 0,
    );

    if args.get::<String>("out").is_some() {
        let path = write_artifact(&args.out_dir(), "chaos_recovery.csv", &csv);
        println!("wrote {}", path.display());
    }
    gate.finish("chaos_recovery");
}
