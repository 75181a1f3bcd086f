//! Focused tests of the cluster executor: VMD transport over the network,
//! guest request flow, reservation rebalancing, WSS sampling chain, and
//! the watermark scheduler wiring.

use agile_cluster::build::{start_all_workloads, ClusterBuilder, SwapKind};
use agile_cluster::scenario::{desired_reservation, rebalance_host, set_reservation};
use agile_cluster::sched::{self, ManagedHost, SchedConfig};
use agile_cluster::world::WorkloadKind;
use agile_cluster::{wssctl, ClusterConfig};
use std::collections::HashSet;

use agile_memory::{PagemapEntry, Touch};
use agile_sim_core::{SimDuration, SimTime, GIB, MIB};
use agile_vm::VmConfig;
use agile_workload::{Dataset, KeyDist, YcsbParams, YcsbRedis};
use agile_wss::WatermarkTrigger;

fn vm_config(mem: u64, reservation: u64) -> VmConfig {
    VmConfig {
        mem_bytes: mem,
        page_size: 4096,
        vcpus: 2,
        reservation_bytes: reservation,
        guest_os_bytes: 2 * MIB,
    }
}

/// A guest fault on a VMD-backed page travels over the simulated network
/// to an intermediate host and back, and the op completes.
#[test]
fn vmd_fault_roundtrip_over_network() {
    let mut b = ClusterBuilder::new(ClusterConfig::default());
    let host = b.add_host("host", 64 * MIB, 4 * MIB, false);
    let im = b.add_host("intermediate", GIB, 4 * MIB, false);
    b.add_vmd_server(im, 512 * MIB, 0);
    let vm = b.add_vm(host, vm_config(32 * MIB, 16 * MIB), SwapKind::PerVmVmd);
    // Populate 32 MiB into a 16 MiB reservation: half the pages go to the
    // VMD (synchronously at preload).
    b.preload_pages(vm, 0, (32 * MIB / 4096) as u32);
    let mut sim = b.build();
    let swapped_before = sim.state().vms[vm].vm.memory().swapped_pages();
    assert!(swapped_before > 0, "preload must have evicted to the VMD");

    // Touch a swapped page directly through the guest path by scheduling a
    // tiny op via the workload-free API: we emulate it with a manual touch
    // + the fault machinery by running the simulation after an injected
    // client-less op. Easiest: drive a real YCSB op would need a client;
    // instead verify the VMD read path via the swap counters after the
    // simulation idles.
    let victim = (0..sim.state().vms[vm].vm.memory().pages())
        .find(|&p| sim.state().vms[vm].vm.memory().pagemap(p).is_swapped())
        .expect("a swapped page exists");
    // Fault it in through the executor path.
    sim.schedule_at(SimTime::from_millis(10), move |sim| {
        let w = sim.state_mut();
        let slot = &mut w.vms[vm];
        let slots = slot.swap.slots(&mut w.hosts, &mut w.vmd);
        let r = slot.vm.memory_mut().touch(victim, false, slots);
        assert!(matches!(r, Touch::MajorFault { .. }));
        // Issue through the guest engine by creating a minimal op.
        let id = w.alloc_op(agile_cluster::world::OpExec {
            gen: 0,
            vm,
            touches: {
                let mut t = agile_workload::TouchList::new();
                t.push(victim, false);
                t
            },
            idx: 0,
            cpu: SimDuration::from_micros(10),
            response_bytes: 0,
            counts: false,
            respond: false,
        });
        let gen = w.op(id).unwrap().gen;
        agile_cluster::guest::step_op(sim, id, gen);
    });
    sim.run_until(SimTime::from_secs(2));
    let mem = sim.state().vms[vm].vm.memory();
    assert!(
        mem.pagemap(victim).is_present(),
        "faulted page must be resident after the VMD round trip"
    );
    assert_eq!(mem.counters().major_faults, 1);
    // The read crossed the network: the intermediate host transmitted the
    // page back.
    let im_node = sim.state().hosts[im].node;
    assert!(sim.state().net.node_tx_bytes(im_node) >= 4096);
}

/// Closed-loop YCSB over the simulated network produces throughput, and
/// the meter records it.
#[test]
fn ycsb_closed_loop_produces_throughput() {
    let cfg = ClusterConfig::default();
    let page = cfg.page_size;
    let mut b = ClusterBuilder::new(cfg);
    let host = b.add_host("host", GIB, 8 * MIB, true);
    let cli = b.add_host("client", GIB, 8 * MIB, false);
    let vm = b.add_vm(host, vm_config(256 * MIB, 256 * MIB), SwapKind::HostSsd);
    let (ir, dr) = {
        let world = b.world_mut();
        let layout = world.vms[vm].vm.layout_mut();
        (
            layout.alloc_region("redis-index", 32),
            layout.alloc_region("redis-data", (128 * MIB / page) as u32),
        )
    };
    let dataset = Dataset::new(dr, 128 * MIB / 1024, 1024, page);
    let model = YcsbRedis::new(dataset, ir, KeyDist::UniformPrefix, YcsbParams::default());
    b.attach_workload(vm, cli, WorkloadKind::Ycsb(model));
    b.preload_layout(vm);
    let mut sim = b.build();
    start_all_workloads(&mut sim, SimTime::from_millis(100));
    sim.run_until(SimTime::from_secs(10));
    let total = sim.state().vms[vm].meter.total();
    // Everything resident: the single Redis thread should near its CPU cap
    // (~18k ops/s at 55 µs per GET).
    assert!(total > 100_000, "only {total} ops in 10 s");
    assert!(total < 200_000, "implausibly fast: {total}");
    // No major faults: the dataset fits.
    assert_eq!(sim.state().vms[vm].vm.memory().counters().major_faults, 0);
}

/// The same setup under a squeezed reservation thrashes: throughput drops
/// and the swap device sees traffic — the basic pressure mechanic of §V-A.
#[test]
fn squeezed_reservation_thrashes() {
    let cfg = ClusterConfig::default();
    let page = cfg.page_size;
    let mut b = ClusterBuilder::new(cfg);
    let host = b.add_host("host", GIB, 8 * MIB, true);
    let cli = b.add_host("client", GIB, 8 * MIB, false);
    // 128 MiB dataset, 64 MiB reservation.
    let vm = b.add_vm(host, vm_config(256 * MIB, 64 * MIB), SwapKind::HostSsd);
    let (ir, dr) = {
        let world = b.world_mut();
        let layout = world.vms[vm].vm.layout_mut();
        (
            layout.alloc_region("redis-index", 32),
            layout.alloc_region("redis-data", (128 * MIB / page) as u32),
        )
    };
    let dataset = Dataset::new(dr, 128 * MIB / 1024, 1024, page);
    let model = YcsbRedis::new(dataset, ir, KeyDist::UniformPrefix, YcsbParams::default());
    b.attach_workload(vm, cli, WorkloadKind::Ycsb(model));
    b.preload_layout(vm);
    let mut sim = b.build();
    start_all_workloads(&mut sim, SimTime::from_millis(100));
    sim.run_until(SimTime::from_secs(10));
    let total = sim.state().vms[vm].meter.total();
    assert!(
        total < 100_000,
        "throughput should collapse under thrash, got {total}"
    );
    let c = sim.state().vms[vm].vm.memory().counters();
    assert!(c.major_faults > 1_000, "no thrashing observed: {c:?}");
    assert!(sim.state().vms[vm].swap.counters().read_ops > 1_000);
}

/// Water-filling rebalance: modest VMs keep their demand, hungry ones
/// split the remainder.
#[test]
fn rebalance_waterfills() {
    let cfg = ClusterConfig::default();
    let page = cfg.page_size;
    let mut b = ClusterBuilder::new(cfg);
    let host = b.add_host("host", GIB + 16 * MIB, 16 * MIB, true);
    let cli = b.add_host("client", GIB, 8 * MIB, false);
    // Two VMs: one wants 128 MiB (small active set), one wants much more.
    let mut vms = Vec::new();
    for want_mb in [64u64, 512] {
        let vm = b.add_vm(host, vm_config(768 * MIB, 256 * MIB), SwapKind::HostSsd);
        let (ir, dr) = {
            let world = b.world_mut();
            let layout = world.vms[vm].vm.layout_mut();
            (
                layout.alloc_region("redis-index", 16),
                layout.alloc_region("redis-data", (512 * MIB / page) as u32),
            )
        };
        let dataset = Dataset::new(dr, 512 * MIB / 1024, 1024, page);
        let mut model = YcsbRedis::new(dataset, ir, KeyDist::UniformPrefix, YcsbParams::default());
        model.set_active_bytes(want_mb * MIB);
        b.attach_workload(vm, cli, WorkloadKind::Ycsb(model));
        vms.push(vm);
    }
    let mut sim = b.build();
    let slack = 8 * MIB;
    let d0 = desired_reservation(sim.state(), vms[0], slack);
    let d1 = desired_reservation(sim.state(), vms[1], slack);
    assert!(d0 < d1);
    rebalance_host(&mut sim, host, slack);
    let r0 = sim.state().vms[vms[0]].vm.memory().limit_bytes();
    let r1 = sim.state().vms[vms[1]].vm.memory().limit_bytes();
    // Small VM fully satisfied; big VM gets the rest (capped by demand).
    assert_eq!(r0, d0.min(r0 + 1), "small VM satisfied: {r0} vs {d0}");
    assert!(r1 > r0);
    let avail = sim.state().hosts[host].mem.available_for_vms();
    assert!(r0 + r1 <= avail, "overcommitted: {} > {avail}", r0 + r1);
    // Host ledger reflects the grants.
    assert_eq!(
        sim.state().hosts[host].mem.reservation(vms[0] as u64),
        Some(r0)
    );
}

/// set_reservation shrink evicts immediately and charges the device.
#[test]
fn set_reservation_shrink_evicts() {
    let mut b = ClusterBuilder::new(ClusterConfig::default());
    let host = b.add_host("host", GIB, 8 * MIB, true);
    let vm = b.add_vm(host, vm_config(64 * MIB, 64 * MIB), SwapKind::HostSsd);
    b.preload_pages(vm, 0, (64 * MIB / 4096) as u32);
    let mut sim = b.build();
    assert_eq!(sim.state().vms[vm].vm.memory().swapped_pages(), 0);
    set_reservation(&mut sim, vm, 16 * MIB);
    let mem = sim.state().vms[vm].vm.memory();
    assert_eq!(mem.limit_bytes(), 16 * MIB);
    assert!(mem.resident_pages() <= mem.limit_pages());
    assert!(mem.swapped_pages() > 0);
    // Device counters saw the write-back (clustered runs).
    assert!(sim.state().vms[vm].swap.counters().write_ops > 0);
}

/// Images bound to one swap device draw from that device's one slot
/// space. Two SSD-swapping VMs whose preloads interleave get interleaved,
/// distinct slots from their host's partition; and an Agile destination
/// image's first eviction takes the lowest free slot of the namespace its
/// source image uses.
#[test]
fn images_on_one_device_share_its_slot_space() {
    let mut b = ClusterBuilder::new(ClusterConfig::default());
    let host = b.add_host("host", GIB, 8 * MIB, true);
    let pair = [0; 2].map(|_| b.add_vm(host, vm_config(8 * MIB, 4 * MIB), SwapKind::HostSsd));
    // 2,048 pages each into 1,024-page reservations, in 256-page strides:
    // from the fifth stride on, every stride evicts 256 pages.
    for start in (0..2048).step_by(256) {
        for &vm in &pair {
            b.preload_pages(vm, start, 256);
        }
    }
    let w = b.world();
    let [a, c] = pair.map(|vm| {
        let mut s: Vec<u32> = w.vms[vm].vm.memory().referenced_slots().collect();
        s.sort_unstable();
        s
    });
    assert_eq!((a.len(), c.len()), (1024, 1024));
    assert!(a[1023] > c[0] && c[1023] > a[0], "slots not interleaved");
    let mut all: Vec<u32> = a.iter().chain(&c).copied().collect();
    all.sort_unstable();
    assert_eq!(
        all,
        (0..2048).collect::<Vec<u32>>(),
        "slots shared or sparse"
    );
    assert_eq!(w.hosts[host].swap_slots.as_ref().unwrap().live(), 2048);

    let mut b = ClusterBuilder::new(ClusterConfig::default());
    let src = b.add_host("source", 256 * MIB, 16 * MIB, false);
    let dst = b.add_host("dest", 256 * MIB, 16 * MIB, false);
    let im = b.add_host("intermediate", GIB, 16 * MIB, false);
    b.add_vmd_server(im, 512 * MIB, 0);
    b.ensure_vmd_client(dst);
    let vm = b.add_vm(src, vm_config(8 * MIB, 4 * MIB), SwapKind::PerVmVmd);
    b.preload_pages(vm, 0, 2048);
    // Free one slot below the namespace's high water: write-fault a
    // swapped page back in under a one-page-larger reservation.
    let hole = {
        let w = b.world_mut();
        let slot = &mut w.vms[vm];
        let slots = slot.swap.slots(&mut w.hosts, &mut w.vmd);
        let mem = slot.vm.memory_mut();
        let pfn = (0..mem.pages()).find(|&p| mem.pagemap(p).is_swapped());
        let pfn = pfn.expect("preload swapped pages out");
        let PagemapEntry::Swapped { slot: hole } = mem.pagemap(pfn) else {
            unreachable!()
        };
        let mut evs = Vec::new();
        mem.set_limit_pages(mem.limit_pages() + 1, slots, &mut evs);
        mem.begin_swap_in(pfn);
        mem.fault_in(pfn, true, slots, &mut evs);
        assert!(evs.is_empty() && !slots.is_allocated(hole));
        assert!(hole < slots.high_water());
        hole
    };
    let high_water = {
        let w = b.world_mut();
        w.vms[vm].swap.slots(&mut w.hosts, &mut w.vmd).high_water()
    };
    let source: HashSet<u32> = b.world().vms[vm].vm.memory().referenced_slots().collect();
    let mut sim = b.build();
    agile_cluster::migrate::start_migration(
        &mut sim,
        vm,
        dst,
        agile_migration::SourceConfig::new(agile_migration::Technique::Agile),
        MIB,
    );
    sim.run_until(SimTime::from_secs(30));
    assert!(sim.state().migrations[0].finished);
    // The destination's own evictions drew the hole first, then fresh
    // slots above the source's high water.
    let mut own: Vec<u32> = sim.state().vms[vm]
        .vm
        .memory()
        .referenced_slots()
        .filter(|s| !source.contains(s))
        .collect();
    own.sort_unstable();
    assert!(own.len() > 1, "the destination never evicted");
    let want: Vec<u32> = std::iter::once(hole)
        .chain(high_water..high_water + own.len() as u32 - 1)
        .collect();
    assert_eq!(own, want);
}

/// Arm the watermark scheduler over `hosts`, each with watermarks at 60 %
/// and 75 % of its available memory, checking every `period`.
fn arm_pair(
    sim: &mut agile_sim_core::Simulation<agile_cluster::world::World>,
    hosts: [usize; 2],
    period: SimDuration,
) {
    let managed = hosts
        .iter()
        .map(|&host| {
            let avail = sim.state().hosts[host].mem.available_for_vms();
            ManagedHost {
                host,
                trigger: WatermarkTrigger::fractions(avail, 0.60, 0.75),
            }
        })
        .collect();
    let mut cfg = SchedConfig::new(agile_migration::SourceConfig::new(
        agile_migration::Technique::Agile,
    ));
    cfg.period = period;
    sched::arm_scheduler(sim, managed, cfg);
}

/// The scheduler's first check fires one period after *arming* — not at
/// `ZERO + period` — and disarming stops the recurrence.
#[test]
fn watermark_trigger_anchors_at_arming_and_disarms() {
    let mut b = ClusterBuilder::new(ClusterConfig::default());
    let host = b.add_host("host", 256 * MIB, 16 * MIB, true);
    let standby = b.add_host("standby", 256 * MIB, 16 * MIB, true);
    let im = b.add_host("intermediate", 2 * GIB, 16 * MIB, false);
    b.add_vmd_server(im, GIB, 0);
    b.ensure_vmd_client(standby);
    let mut vms = Vec::new();
    for _ in 0..3 {
        let vm = b.add_vm(host, vm_config(96 * MIB, 48 * MIB), SwapKind::PerVmVmd);
        b.preload_pages(vm, 0, (96 * MIB / 4096) as u32);
        vms.push(vm);
    }
    let mut sim = b.build();
    // Put the host over the high watermark *before* the scheduler exists.
    set_reservation(&mut sim, vms[0], 96 * MIB);
    sim.run_until(SimTime::from_secs(10));

    // Arm mid-run with a 5 s period: the first check belongs at t = 15 s.
    arm_pair(&mut sim, [host, standby], SimDuration::from_secs(5));
    sim.run_until(SimTime::from_millis(14_900));
    assert!(
        sim.state().migrations.is_empty(),
        "fired before arming-time + period"
    );
    sim.run_until(SimTime::from_secs(30));
    assert_eq!(sim.state().migrations.len(), 1, "first check never fired");
    assert!(sim.state().migrations[0].finished);
    assert_eq!(sim.state().migrations[0].dest_host, standby);

    // Disarm, re-overload the host, and verify the scheduler stays quiet.
    sched::disarm_scheduler(&mut sim);
    set_reservation(&mut sim, vms[1], 96 * MIB);
    set_reservation(&mut sim, vms[2], 96 * MIB);
    sim.run_until(SimTime::from_secs(90));
    assert_eq!(
        sim.state().migrations.len(),
        1,
        "disarmed scheduler still fired"
    );
}

/// Regression: the swap-activity window must re-prime after a migration
/// pause. The first post-resume sample used to difference cumulative
/// counters across the entire paused interval (and across the swap-device
/// swap at resume), recording a spurious rate immediately; now the first
/// post-resume tick only primes, so the first recorded sample lands at
/// least one full sampling interval after the migration completes.
#[test]
fn wss_monitor_reprimes_after_migration_pause() {
    let mut b = ClusterBuilder::new(ClusterConfig::default());
    let host = b.add_host("host", 256 * MIB, 16 * MIB, true);
    let standby = b.add_host("standby", 256 * MIB, 16 * MIB, true);
    let im = b.add_host("intermediate", 2 * GIB, 16 * MIB, false);
    b.add_vmd_server(im, GIB, 0);
    b.ensure_vmd_client(standby);
    let vm = b.add_vm(host, vm_config(96 * MIB, 48 * MIB), SwapKind::PerVmVmd);
    b.preload_pages(vm, 0, (96 * MIB / 4096) as u32);
    let mut sim = b.build();
    sim.state_mut().trace = agile_trace::Tracer::with_capacity(1 << 12);

    let params = agile_wss::ControllerParams::paper(16 * MIB, 96 * MIB);
    let fast = params.fast_interval;
    wssctl::enable_tracking(&mut sim, vm, params, SimTime::from_secs(1));
    sim.run_until(SimTime::from_secs(10));
    agile_cluster::migrate::start_migration(
        &mut sim,
        vm,
        standby,
        agile_migration::SourceConfig::new(agile_migration::Technique::Agile),
        96 * MIB,
    );
    sim.run_until(SimTime::from_secs(40));
    assert!(sim.state().migrations[0].finished);

    let trace = &sim.state().trace;
    let completed_at = trace
        .events()
        .find_map(|(t, e)| matches!(e, agile_trace::TraceEvent::MigComplete { .. }).then_some(*t))
        .expect("migration completed");
    let first_after = trace
        .events()
        .find_map(|(t, e)| {
            (matches!(e, agile_trace::TraceEvent::WssSample { .. }) && *t > completed_at)
                .then_some(*t)
        })
        .expect("sampling resumed after the migration");
    assert!(
        first_after.saturating_since(completed_at) > fast,
        "window was not re-primed: sample at {first_after:?} only \
         {:?} after completion at {completed_at:?}",
        first_after.saturating_since(completed_at)
    );
}

/// The watermark scheduler, managing a host and its standby, fires a real
/// migration once the host's aggregate reservations exceed the high
/// watermark.
#[test]
fn watermark_trigger_fires_migration() {
    let mut b = ClusterBuilder::new(ClusterConfig::default());
    let host = b.add_host("host", 256 * MIB, 16 * MIB, true);
    let standby = b.add_host("standby", 256 * MIB, 16 * MIB, true);
    let im = b.add_host("intermediate", 2 * GIB, 16 * MIB, false);
    b.add_vmd_server(im, GIB, 0);
    b.ensure_vmd_client(standby);
    let mut vms = Vec::new();
    for _ in 0..3 {
        let vm = b.add_vm(host, vm_config(96 * MIB, 48 * MIB), SwapKind::PerVmVmd);
        b.preload_pages(vm, 0, (96 * MIB / 4096) as u32);
        vms.push(vm);
    }
    let mut sim = b.build();
    let avail = sim.state().hosts[host].mem.available_for_vms();
    let trigger = WatermarkTrigger::fractions(avail, 0.60, 0.75);
    arm_pair(&mut sim, [host, standby], SimDuration::from_secs(1));
    // Aggregate 144 MiB on 240 MiB available = 60% — under the high mark.
    sim.run_until(SimTime::from_secs(3));
    assert!(sim.state().migrations.is_empty(), "fired too early");
    // Raise one VM's reservation: aggregate 80%+ crosses the watermark.
    set_reservation(&mut sim, vms[0], 96 * MIB);
    sim.run_until(SimTime::from_secs(30));
    assert!(
        !sim.state().migrations.is_empty(),
        "watermark scheduler never fired"
    );
    // The fewest-VMs rule picked the largest (vms[0]).
    assert_eq!(sim.state().migrations[0].vm, vms[0]);
    assert!(sim.state().migrations[0].finished);
    // And the host's aggregate is back under the low watermark.
    let agg: u64 = wssctl::host_wss(&sim, host)
        .iter()
        .map(|v| v.wss_bytes)
        .sum();
    assert!(agg <= trigger.low_bytes, "{agg} > {}", trigger.low_bytes);
}
