//! Pinned outputs of the paper's §V scenarios.
//!
//! The determinism tests elsewhere compare two runs of one build, so a
//! change that moved every run the same way would pass them. These tests
//! pin an FNV-1a digest of each result's `{:?}` rendering (exact for
//! every float), plus the executed-event count where the result reports
//! one, against constants recorded before the scenarios were moved onto
//! one shared testbed. A refactor that claims to be output-neutral must
//! leave every constant here untouched; a change that moves a simulated
//! output re-records them and says which fields moved.

use agile::chaos::ChaosSchedule;
use agile::cluster::scenario::chaos::{self, ChaosScenarioConfig};
use agile::cluster::scenario::single_vm::{self, SingleVmConfig};
use agile::cluster::scenario::sysbench::{self, SysbenchScenarioConfig};
use agile::cluster::scenario::wss::{self, WssScenarioConfig};
use agile::cluster::scenario::ycsb::{self, YcsbScenarioConfig};
use agile::sim::{SimDuration, SimTime};
use agile::Technique;

/// FNV-1a over the bytes of a `{:?}` rendering.
fn digest(rendered: &str) -> u64 {
    rendered.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(events_executed, digest)` of the reduced §V-A config of
/// `golden_trace.rs` under `technique`.
fn ycsb_run(technique: Technique) -> (u64, u64) {
    let r = ycsb::run(&YcsbScenarioConfig {
        technique,
        scale: 256,
        n_vms: 2,
        duration_secs: 90,
        ramp_start_secs: 25,
        ramp_step_secs: 10,
        migrate_at_secs: 40,
        read_ratio: 0.65,
        measure_window_secs: 40,
        seed: 11,
    });
    (r.events_executed, digest(&format!("{r:?}")))
}

#[test]
fn ycsb_precopy_output_is_pinned() {
    assert_eq!(
        ycsb_run(Technique::PreCopy),
        (8_809_824, 5_683_380_184_818_091_444)
    );
}

#[test]
fn ycsb_postcopy_output_is_pinned() {
    assert_eq!(
        ycsb_run(Technique::PostCopy),
        (8_811_652, 14_720_897_787_241_023_385)
    );
}

#[test]
fn ycsb_agile_output_is_pinned() {
    assert_eq!(
        ycsb_run(Technique::Agile),
        (9_125_937, 15_077_190_211_976_917_508)
    );
}

/// The reduced §V-C config of `determinism_and_oltp.rs`, cut to 70 s
/// (the OLTP guests thrash from the start, so every simulated second is
/// costly); the migration still finishes well inside the window.
#[test]
fn sysbench_output_is_pinned() {
    let r = sysbench::run(&SysbenchScenarioConfig {
        technique: Technique::Agile,
        scale: 256,
        duration_secs: 70,
        migrate_at_secs: 40,
        window_secs: 30,
        ..Default::default()
    });
    assert!(r.metrics.total_time().is_some());
    assert_eq!(digest(&format!("{r:?}")), 4_479_569_646_152_819_508);
}

/// The reduced §V-D config of `determinism_and_oltp.rs`.
#[test]
fn wss_output_is_pinned() {
    let r = wss::run(&WssScenarioConfig {
        scale: 128,
        duration_secs: 120,
        seed: 7,
        ..Default::default()
    });
    assert_eq!(digest(&format!("{r:?}")), 15_246_657_914_881_010_896);
}

/// §V-B at scale 64, idle and busy, traced Agile: the trace export is
/// part of the rendering, so event order inside the run is pinned too.
#[test]
fn single_vm_outputs_are_pinned() {
    let got: Vec<_> = [false, true]
        .into_iter()
        .map(|busy| {
            let r = single_vm::run(&SingleVmConfig {
                technique: Technique::Agile,
                busy,
                scale: 64,
                warmup_secs: 15,
                trace: true,
                ..SingleVmConfig::default()
            });
            (busy, digest(&format!("{r:?}")))
        })
        .collect();
    assert_eq!(
        got,
        [
            (false, 3_002_613_197_043_863_965),
            (true, 2_642_846_556_425_429_695)
        ]
    );
}

/// The k = 2 crash schedule of `chaos_recovery.rs`.
#[test]
fn chaos_output_is_pinned() {
    let r = chaos::run(&ChaosScenarioConfig {
        scale: 64,
        replication: 2,
        vmd_servers: 3,
        schedule: ChaosSchedule::builder()
            .server_outage(0, SimTime::from_millis(10_200), SimDuration::from_secs(10))
            .build(),
        verify_content: true,
        warmup_secs: 10,
        deadline_secs: 600,
        seed: 7,
        ..Default::default()
    });
    assert_eq!(
        (r.events_executed, digest(&format!("{r:?}"))),
        (47_715, 9_800_142_017_378_946_484)
    );
}
