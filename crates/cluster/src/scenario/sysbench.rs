//! §V-C — the Sysbench OLTP / MySQL experiment (the Sysbench rows of
//! Tables I–III).
//!
//! Four 10 GB VMs each run a MySQL server with an 8 GB dataset under a
//! 5.5 GB reservation — the buffer pool never fits, so the host swaps from
//! the start — and external Sysbench clients drive the standard OLTP
//! transaction mix. One VM is migrated to relieve the pressure; client
//! performance is measured over a 300-second window spanning the
//! migration.

use agile_migration::Technique;
use agile_sim_core::{SimTime, Simulation, GIB, MIB};
use agile_workload::{Dataset, KeyDist, OltpParams, SysbenchOltp};

use super::testbed::{LoadedSource, LoadedSourceRun};
use super::Scenario;
use crate::report;
use crate::world::{WorkloadKind, World};

/// Configuration (defaults = the paper's §V-C setup).
#[derive(Clone, Copy, Debug)]
pub struct SysbenchScenarioConfig {
    /// Migration technique under test.
    pub technique: Technique,
    /// Divide every byte quantity by this (1 = paper scale).
    pub scale: u64,
    /// VMs on the source host.
    pub n_vms: usize,
    /// Simulated duration in seconds.
    pub duration_secs: u64,
    /// Migration trigger instant.
    pub migrate_at_secs: u64,
    /// Measurement window length (paper: 300 s).
    pub window_secs: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for SysbenchScenarioConfig {
    fn default() -> Self {
        SysbenchScenarioConfig {
            technique: Technique::Agile,
            scale: 1,
            n_vms: 4,
            duration_secs: 700,
            migrate_at_secs: 120,
            window_secs: 300,
            seed: 42,
        }
    }
}

/// Result bundle.
#[derive(Clone, Debug)]
pub struct SysbenchScenarioResult {
    /// Per-second average transactions/s across all VMs.
    pub series: Vec<(u64, f64)>,
    /// Migration metrics (Tables II–III).
    pub metrics: agile_migration::MigrationMetrics,
    /// Average per-VM trans/s over the 300 s window spanning the
    /// migration (Table I).
    pub avg_during_window: f64,
}

/// Run the scenario.
pub fn run(cfg: &SysbenchScenarioConfig) -> SysbenchScenarioResult {
    super::run::<Sysbench>(cfg)
}

/// The §V-C run as a [`Scenario`]: the guests of its loaded source host.
pub struct Sysbench {
    source: LoadedSource,
}

impl Scenario for Sysbench {
    type Config = SysbenchScenarioConfig;
    type Output = SysbenchScenarioResult;

    /// MySQL guests whose buffer pools never fit, and the migration.
    fn setup(cfg: &SysbenchScenarioConfig) -> (Simulation<World>, Self) {
        let sc = cfg.scale.max(1);
        let dataset_bytes = 8 * GIB / sc;
        let run = LoadedSourceRun {
            technique: cfg.technique,
            sc,
            n_vms: cfg.n_vms,
            seed: cfg.seed,
            duration_secs: cfg.duration_secs,
            migrate_at_secs: cfg.migrate_at_secs,
        };
        let (sim, source) = LoadedSource::setup(
            &run,
            |b, vm| {
                // InnoDB layout: hot B-tree upper levels, the row buffer
                // pool, and a circular redo log.
                let page = b.world().cfg.page_size;
                let layout = b.world_mut().vms[vm].vm.layout_mut();
                let index = layout
                    .alloc_region("innodb-index", ((dataset_bytes / 40) / page).max(4) as u32);
                let rows = layout.alloc_region("innodb-rows", (dataset_bytes / page) as u32);
                let log = layout.alloc_region("innodb-log", ((64 * MIB / sc) / page).max(8) as u32);
                WorkloadKind::Oltp(SysbenchOltp::new(
                    Dataset::new(rows, dataset_bytes / 256, 256, page),
                    index,
                    log,
                    KeyDist::UniformPrefix,
                    OltpParams::default(),
                ))
            },
            |_, _| {},
        );
        (sim, Sysbench { source })
    }

    fn deadline(&self) -> SimTime {
        self.source.deadline
    }

    fn finish(
        &self,
        sim: Simulation<World>,
        cfg: &SysbenchScenarioConfig,
    ) -> SysbenchScenarioResult {
        let world = sim.state();
        let (series, metrics) = self.source.measure(world);
        let from = cfg.migrate_at_secs.saturating_sub(10);
        let to = from + cfg.window_secs;
        SysbenchScenarioResult {
            series,
            metrics,
            avg_during_window: report::average_throughput_in_window(
                world,
                &self.source.vms,
                from,
                to,
            ),
        }
    }
}
