//! Tests of the VMD extensions the paper sketches in §IV-A: multiple
//! intermediate hosts with load-aware striping, and the disk spill tier
//! behind the memory tier.

use agile_cluster::build::{ClusterBuilder, SwapKind};
use agile_cluster::{migrate, ClusterConfig};
use agile_migration::{SourceConfig, Technique};
use agile_sim_core::{SimDuration, SimTime, GIB, MIB};
use agile_vm::VmConfig;

fn vm_config(mem: u64, reservation: u64) -> VmConfig {
    VmConfig {
        mem_bytes: mem,
        page_size: 4096,
        vcpus: 2,
        reservation_bytes: reservation,
        guest_os_bytes: 2 * MIB,
    }
}

/// Cold pages stripe across several intermediate hosts round-robin, and a
/// migration still completes with content verified.
#[test]
fn striping_across_intermediate_hosts() {
    let mut b = ClusterBuilder::new(ClusterConfig::default());
    let src = b.add_host("source", 128 * MIB, 8 * MIB, true);
    let dst = b.add_host("dest", 128 * MIB, 8 * MIB, true);
    let mut servers = Vec::new();
    for i in 0..3 {
        let im = b.add_host(&format!("im{i}"), GIB, 8 * MIB, false);
        servers.push(b.add_vmd_server(im, 256 * MIB, 0));
    }
    b.ensure_vmd_client(dst);
    let vm = b.add_vm(src, vm_config(96 * MIB, 48 * MIB), SwapKind::PerVmVmd);
    b.preload_pages(vm, 0, (96 * MIB / 4096) as u32);
    let mut sim = b.build();
    // All three servers hold pages (round-robin placement).
    for &s in &servers {
        let stored = sim.state().vmd.servers[s].server.stored_pages();
        assert!(stored > 1000, "server {s} holds only {stored} pages");
    }
    // The spread is roughly even (load-aware round-robin).
    let counts: Vec<u64> = servers
        .iter()
        .map(|&s| sim.state().vmd.servers[s].server.stored_pages())
        .collect();
    let max = *counts.iter().max().unwrap() as f64;
    let min = *counts.iter().min().unwrap() as f64;
    assert!(max / min < 1.1, "uneven striping: {counts:?}");
    // Migrate with verification.
    let mig = migrate::start_migration(
        &mut sim,
        vm,
        dst,
        SourceConfig::new(Technique::Agile),
        96 * MIB,
    );
    sim.state_mut().migrations[mig].verify_content = true;
    while !sim.state().migrations[mig].finished && sim.now() < SimTime::from_secs(120) {
        let next = sim.now() + SimDuration::from_secs(1);
        sim.run_until(next);
    }
    assert!(sim.state().migrations[mig].finished);
}

/// When an intermediate host's memory fills, writes spill to its disk
/// tier; reads from the disk tier still return correct content (slower).
#[test]
fn disk_spill_tier_absorbs_overflow() {
    let mut b = ClusterBuilder::new(ClusterConfig::default());
    let host = b.add_host("host", 128 * MIB, 8 * MIB, false);
    // Tiny memory tier (4 MiB) + large disk tier; the host needs an SSD
    // for the spill device time.
    let im = b.add_host("intermediate", GIB, 8 * MIB, true);
    b.add_vmd_server(im, 4 * MIB, GIB);
    let vm = b.add_vm(host, vm_config(64 * MIB, 16 * MIB), SwapKind::PerVmVmd);
    b.preload_pages(vm, 0, (64 * MIB / 4096) as u32);
    let mut sim = b.build();
    let server = &sim.state().vmd.servers[0].server;
    assert!(server.memory_full(), "memory tier should be full");
    assert!(
        server.disk_pages() > 1000,
        "spill expected, got {}",
        server.disk_pages()
    );
    // Touch a swapped page: the fault must still complete (from whichever
    // tier) with correct content versions.
    let victim = (0..sim.state().vms[vm].vm.memory().pages())
        .find(|&p| sim.state().vms[vm].vm.memory().pagemap(p).is_swapped())
        .expect("swapped page exists");
    let expect_version = sim.state().vms[vm].vm.memory().version(victim);
    sim.schedule_at(SimTime::from_millis(10), move |sim| {
        let w = sim.state_mut();
        let _ = w.vms[vm].vm.memory_mut().touch(victim, false);
        let id = w.alloc_op(agile_cluster::world::OpExec {
            gen: 0,
            vm,
            touches: {
                let mut t = agile_workload::TouchList::new();
                t.push(victim, false);
                t
            },
            idx: 0,
            cpu: SimDuration::from_micros(5),
            response_bytes: 0,
            counts: false,
            respond: false,
        });
        let gen = w.op(id).unwrap().gen;
        agile_cluster::guest::step_op(sim, id, gen);
    });
    sim.run_until(SimTime::from_secs(3));
    let mem = sim.state().vms[vm].vm.memory();
    assert!(mem.pagemap(victim).is_present());
    assert_eq!(
        mem.version(victim),
        expect_version,
        "content survived the tiers"
    );
}

/// Availability gossip keeps a client's view converging toward server
/// truth even without acks (read-only periods).
#[test]
fn availability_gossip_converges() {
    let mut b = ClusterBuilder::new(ClusterConfig::default());
    let host = b.add_host("host", 128 * MIB, 8 * MIB, false);
    let im = b.add_host("intermediate", GIB, 8 * MIB, false);
    b.add_vmd_server(im, 256 * MIB, 0);
    let client_idx = b.ensure_vmd_client(host);
    let vm = b.add_vm(host, vm_config(64 * MIB, 16 * MIB), SwapKind::PerVmVmd);
    b.preload_pages(vm, 0, (64 * MIB / 4096) as u32);
    let mut sim = b.build();
    // Run a few gossip periods.
    sim.run_until(SimTime::from_secs(5));
    let truth = sim.state().vmd.servers[0].server.free_pages();
    let view = sim.state().vmd.clients[client_idx]
        .client
        .known_free(agile_vmd::ServerId(0))
        .expect("server known");
    assert_eq!(view, truth, "gossip should synchronize the free count");
}
