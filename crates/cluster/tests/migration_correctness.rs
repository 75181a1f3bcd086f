//! End-to-end migration correctness: every technique must deliver the
//! source's final content to the destination, under memory pressure, with
//! and without concurrent guest writes, for both swap backends.

use agile_cluster::build::{start_all_workloads, ClusterBuilder, SwapKind};
use agile_cluster::world::WorkloadKind;
use agile_cluster::{migrate, report, ClusterConfig};
use agile_memory::PagemapEntry;
use agile_migration::{SourceConfig, Technique};
use agile_sim_core::{SimDuration, SimTime, GIB, MIB};
use agile_vm::VmConfig;
use agile_workload::{Dataset, KeyDist, YcsbParams, YcsbRedis};

const HOST_MEM: u64 = 96 * MIB;
const VM_MEM: u64 = 64 * MIB;
const RESERVATION: u64 = 40 * MIB;

struct Setup {
    sim: agile_sim_core::Simulation<agile_cluster::World>,
    vm: usize,
    dst_host: usize,
}

/// Build one pressured VM (64 MiB memory, 40 MiB reservation, 48 MiB
/// dataset) with an update-heavy client so pages keep getting dirtied.
fn setup(technique: Technique, with_workload: bool, seed: u64) -> Setup {
    let cfg = ClusterConfig {
        seed,
        ..ClusterConfig::default()
    };
    let page = cfg.page_size;
    let mut b = ClusterBuilder::new(cfg);
    let src = b.add_host("source", HOST_MEM, 8 * MIB, true);
    let dst = b.add_host("dest", HOST_MEM, 8 * MIB, true);
    let cli = b.add_host("client", GIB, 8 * MIB, false);
    let agile = technique == Technique::Agile;
    if agile {
        let im = b.add_host("intermediate", 2 * GIB, 8 * MIB, true);
        b.add_vmd_server(im, GIB, 0);
        b.ensure_vmd_client(dst);
    }
    let swap_kind = if agile {
        SwapKind::PerVmVmd
    } else {
        SwapKind::HostSsd
    };
    let vm = b.add_vm(
        src,
        VmConfig {
            mem_bytes: VM_MEM,
            page_size: page,
            vcpus: 2,
            reservation_bytes: RESERVATION,
            guest_os_bytes: 4 * MIB,
        },
        swap_kind,
    );
    if with_workload {
        let dataset_bytes = 48 * MIB;
        let (index_region, data_region) = {
            let world = b.world_mut();
            let layout = world.vms[vm].vm.layout_mut();
            let idx = layout.alloc_region("redis-index", 64);
            let dat = layout.alloc_region("redis-data", (dataset_bytes / page) as u32);
            (idx, dat)
        };
        let dataset = Dataset::new(data_region, dataset_bytes / 1024, 1024, page);
        let model = YcsbRedis::new(
            dataset,
            index_region,
            KeyDist::UniformPrefix,
            YcsbParams::update_heavy(),
        );
        b.attach_workload(vm, cli, WorkloadKind::Ycsb(model));
        b.enable_os_background(vm);
        b.preload_layout(vm);
    } else {
        // Idle but fully populated memory.
        b.preload_pages(vm, 0, (VM_MEM / page) as u32);
    }
    let mut sim = b.build();
    if with_workload {
        start_all_workloads(&mut sim, SimTime::from_secs(1));
    }
    Setup {
        sim,
        vm,
        dst_host: dst,
    }
}

/// Run the migration to completion with content verification enabled.
fn migrate_and_verify(s: &mut Setup, technique: Technique) -> agile_migration::MigrationMetrics {
    let vm = s.vm;
    let dst_host = s.dst_host;
    s.sim.run_until(SimTime::from_secs(5));
    let mig = migrate::start_migration(
        &mut s.sim,
        vm,
        dst_host,
        SourceConfig {
            precopy_threshold_pages: 64,
            ..SourceConfig::new(technique)
        },
        VM_MEM,
    );
    s.sim.state_mut().migrations[mig].verify_content = true;
    // Drive until finished (deadline well past anything reasonable).
    let deadline = SimTime::from_secs(600);
    while !s.sim.state().migrations[mig].finished && s.sim.now() < deadline {
        let next = s.sim.now() + SimDuration::from_secs(1);
        s.sim.run_until(next);
    }
    assert!(
        s.sim.state().migrations[mig].finished,
        "{technique} migration did not complete"
    );
    s.sim.state().migrations[mig].src.metrics().clone()
}

fn check_dest_state(s: &Setup, technique: Technique) {
    let w = s.sim.state();
    let mem = w.vms[s.vm].vm.memory();
    assert!(
        matches!(
            w.vms[s.vm].vm.state(),
            agile_vm::VmState::Running { host } if host == agile_vm::HostId(s.dst_host as u32)
        ),
        "VM must run at the destination"
    );
    assert!(mem.resident_pages() <= mem.limit_pages());
    // Every page is accounted (present, swapped, or genuinely untouched).
    let mut present = 0u32;
    let mut swapped = 0u32;
    for p in 0..mem.pages() {
        match mem.pagemap(p) {
            PagemapEntry::Present => present += 1,
            PagemapEntry::Swapped { .. } => swapped += 1,
            PagemapEntry::None => {}
        }
    }
    assert!(present > 0, "{technique}: nothing arrived");
    if technique == Technique::Agile {
        assert!(
            swapped > 0,
            "agile must leave cold pages on the portable swap device"
        );
    }
}

#[test]
fn idle_precopy_preserves_content() {
    let mut s = setup(Technique::PreCopy, false, 1);
    let m = migrate_and_verify(&mut s, Technique::PreCopy);
    check_dest_state(&s, Technique::PreCopy);
    // Idle VM: exactly one round, no retransmissions.
    assert_eq!(m.rounds, 1);
    assert!(m.downtime().is_some());
}

#[test]
fn idle_postcopy_preserves_content() {
    let mut s = setup(Technique::PostCopy, false, 2);
    let m = migrate_and_verify(&mut s, Technique::PostCopy);
    check_dest_state(&s, Technique::PostCopy);
    assert_eq!(m.rounds, 0, "post-copy has no live rounds");
}

#[test]
fn idle_agile_preserves_content() {
    let mut s = setup(Technique::Agile, false, 3);
    let m = migrate_and_verify(&mut s, Technique::Agile);
    check_dest_state(&s, Technique::Agile);
    assert_eq!(m.rounds, 1, "agile runs exactly one live round");
    assert!(
        m.pages_sent_as_offsets > 0,
        "pressured idle VM must have swapped pages shipped as offsets"
    );
    assert_eq!(
        m.pages_swapped_in_for_transfer, 0,
        "agile never reads the swap device to transfer"
    );
}

#[test]
fn busy_precopy_preserves_content_under_writes() {
    let mut s = setup(Technique::PreCopy, true, 4);
    let m = migrate_and_verify(&mut s, Technique::PreCopy);
    check_dest_state(&s, Technique::PreCopy);
    assert!(
        m.pages_retransmitted > 0,
        "update-heavy workload must force retransmissions"
    );
}

#[test]
fn busy_postcopy_preserves_content_under_writes() {
    let mut s = setup(Technique::PostCopy, true, 5);
    let m = migrate_and_verify(&mut s, Technique::PostCopy);
    check_dest_state(&s, Technique::PostCopy);
    assert!(
        m.pages_demand_from_source > 0,
        "the running destination must demand-fault pages from the source"
    );
}

#[test]
fn busy_agile_preserves_content_under_writes() {
    let mut s = setup(Technique::Agile, true, 6);
    let m = migrate_and_verify(&mut s, Technique::Agile);
    check_dest_state(&s, Technique::Agile);
    assert!(m.pages_sent_as_offsets > 0);
    // The destination must actually read cold pages from the VMD.
    let w = s.sim.state();
    assert!(
        w.migrations[0].dst.pages_faulted_from_swap > 0,
        "agile destination should fault cold pages from the per-VM swap"
    );
}

#[test]
fn agile_moves_less_data_than_baselines_under_pressure() {
    let mut agile = setup(Technique::Agile, true, 7);
    let ma = migrate_and_verify(&mut agile, Technique::Agile);
    let mut pre = setup(Technique::PreCopy, true, 7);
    let mp = migrate_and_verify(&mut pre, Technique::PreCopy);
    let mut post = setup(Technique::PostCopy, true, 7);
    let mq = migrate_and_verify(&mut post, Technique::PostCopy);
    assert!(
        ma.migration_bytes < mq.migration_bytes,
        "agile {} !< post-copy {}",
        ma.migration_bytes,
        mq.migration_bytes
    );
    assert!(
        ma.migration_bytes < mp.migration_bytes,
        "agile {} !< pre-copy {}",
        ma.migration_bytes,
        mp.migration_bytes
    );
    // And it finishes fastest.
    let (ta, tp, tq) = (
        ma.total_time().unwrap(),
        mp.total_time().unwrap(),
        mq.total_time().unwrap(),
    );
    assert!(ta < tp, "agile {ta} !< pre-copy {tp}");
    assert!(ta < tq, "agile {ta} !< post-copy {tq}");
}

#[test]
fn deterministic_across_runs() {
    let mut a = setup(Technique::Agile, true, 99);
    let ma = migrate_and_verify(&mut a, Technique::Agile);
    let mut b = setup(Technique::Agile, true, 99);
    let mb = migrate_and_verify(&mut b, Technique::Agile);
    assert_eq!(ma.migration_bytes, mb.migration_bytes);
    assert_eq!(ma.completed_at, mb.completed_at);
    assert_eq!(ma.pages_sent_full, mb.pages_sent_full);
    assert_eq!(
        a.sim.state().vms[a.vm].meter.total(),
        b.sim.state().vms[b.vm].meter.total()
    );
}

/// Finalization frees both sessions' per-page tables and bitmaps while
/// the report keeps reading the complete migration. (That releasing
/// leaves the source metrics and destination counters the report reads
/// bit for bit unchanged is `releasing_page_state_keeps_metrics_and_counters`
/// in `agile-migration`.)
#[test]
fn finished_migration_holds_no_per_page_state() {
    for (technique, seed) in [
        (Technique::PreCopy, 11),
        (Technique::PostCopy, 12),
        (Technique::Agile, 13),
    ] {
        let mut s = setup(technique, true, seed);
        s.sim.run_until(SimTime::from_secs(5));
        let mig = migrate::start_migration(
            &mut s.sim,
            s.vm,
            s.dst_host,
            SourceConfig::new(technique),
            VM_MEM,
        );
        let mut held = 0;
        while !s.sim.state().migrations[mig].finished {
            let m = &s.sim.state().migrations[mig];
            held = held.max(m.src.page_state_bytes() + m.dst.page_state_bytes());
            assert!(s.sim.step(), "{technique} migration did not complete");
        }
        assert!(held > 0, "{technique}");
        let w = s.sim.state();
        let m = &w.migrations[mig];
        assert_eq!(m.src.page_state_bytes(), 0, "{technique}");
        assert_eq!(m.dst.page_state_bytes(), 0, "{technique}");
        let t = report::phase_timeline(w, mig, "finalize", seed);
        let met = m.src.metrics();
        assert!(t.total_ns.is_some(), "{technique}");
        assert_eq!(t.pages_sent_full, met.pages_sent_full, "{technique}");
        assert_eq!(t.migration_bytes, met.migration_bytes, "{technique}");
        assert_eq!(
            t.dest_pages_installed_stream, m.dst.pages_installed_stream,
            "{technique}"
        );
        assert!(t.dest_pages_installed_stream > 0, "{technique}");
    }
}

/// A migration connection drop discards the segments queued and in flight
/// on the migration's channels; their payload slots must go with them, or
/// every drop leaks one registry entry per dropped chunk.
#[test]
fn connection_drop_frees_the_dropped_segments_payloads() {
    let mut s = setup(Technique::PreCopy, false, 6);
    s.sim.run_until(SimTime::from_secs(5));
    let mig = migrate::start_migration(
        &mut s.sim,
        s.vm,
        s.dst_host,
        SourceConfig::new(Technique::PreCopy),
        VM_MEM,
    );
    s.sim
        .run_until(SimTime::from_secs(5) + SimDuration::from_millis(50));
    let in_network = s.sim.state().net.pending_segments();
    assert!(in_network > 0, "the drop must land with chunks in flight");
    assert_eq!(s.sim.state().payloads.len(), in_network);

    migrate::drop_connections(&mut s.sim, mig);
    let w = s.sim.state();
    assert_eq!(
        w.net.pending_segments(),
        0,
        "an idle VM has no other traffic"
    );
    assert_eq!(w.payloads.len(), 0, "dropped segments left live payloads");

    // The retry runs to completion over fresh channels and leaves nothing
    // behind either.
    while !s.sim.state().migrations[mig].finished && s.sim.now() < SimTime::from_secs(600) {
        let next = s.sim.now() + SimDuration::from_secs(1);
        s.sim.run_until(next);
    }
    let w = s.sim.state();
    assert!(w.migrations[mig].finished);
    assert_eq!(w.migrations[mig].retries, 1);
    assert_eq!(w.payloads.len(), w.net.pending_segments());
    assert_eq!(w.payloads.len(), 0);
}
