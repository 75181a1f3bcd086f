//! Ready-made reproductions of the paper's experiments.
//!
//! | module | paper content |
//! |--------|---------------|
//! | [`ycsb`] | §V-A Figures 4–6 (YCSB timeline under pre/post/Agile) and the YCSB rows of Tables I–III |
//! | [`sysbench`] | §V-C Sysbench/MySQL rows of Tables I–III |
//! | [`single_vm`] | §V-B Figures 7–8 (single-VM sweep: migration time & data vs VM size, idle & busy) |
//! | [`wss`] | §V-D Figures 9–10 (transparent WSS tracking) |
//!
//! [`ycsb`], [`sysbench`], [`single_vm`] and [`chaos`] run on the paper's
//! 3-host testbed, built by [`testbed::Testbed`], and start their
//! migrations through one helper with the paper's source configuration.
//! [`wss`] migrates nothing: one host, its client, and the VMD.
//!
//! Every scenario takes a config with the paper's numbers as defaults plus
//! a `scale` divisor: `scale = 1` is paper scale (10 GB VMs); integration
//! tests use `scale = 32`+ so they run in milliseconds. Scaling divides
//! every byte quantity, which preserves the *ratios* that drive the
//! qualitative results.
//!
//! # Driving a scenario
//!
//! Every scenario but one implements the [`Scenario`] trait: `setup`
//! builds and arms the world and returns what the scenario keeps from
//! set-up, `settled` says when a run may stop early, and `finish` turns
//! the final world into the result. Each module's `pub fn run` is a
//! one-line call into the sequential driver here, which advances the
//! world in `SLICE` steps, audits it, and finishes it. The cluster-scale
//! scenarios also offer `run_replicated`, which runs many configs as
//! shards of one epoch harness; it stops at the same `SLICE`-spaced
//! targets, so a replica's result is byte-identical to the sequential
//! run of its config at any worker count.
//!
//! [`datacenter`] is the one exception. Its single config builds many
//! rack worlds that a real coordinator links, so it cannot be one
//! `Simulation<World>`; it keeps its own coordinated driver and calls
//! the same audit.

pub mod chaos;
pub mod datacenter;
pub mod diurnal;
pub mod estimators;
pub mod multihost;
pub mod pressure;
pub mod scaleout;
pub mod single_vm;
pub mod sysbench;
pub mod testbed;
pub mod tiers;
pub mod wss;
pub mod ycsb;

use agile_sim_core::{SimDuration, SimTime, Simulation};
use agile_workload::Signal;

use crate::guest::{evict_with, EvictTarget};
use crate::sched::{self, ManagedHost};
use crate::shard::{NullCoordinator, ShardedRun};
use crate::world::{SwapDev, WorkloadKind, World};

/// The driver slice: the sequential drivers advance in steps of this
/// much simulated time, and it is also the sharded harness's lookahead,
/// so both drivers stop at the same `run_until` targets.
pub(crate) const SLICE: SimDuration = SimDuration::from_secs(5);

/// A scripted scenario the generic drivers can run. `Self` is what the
/// scenario keeps from set-up for its predicate and report. A caller
/// outside this crate can drive the simulation `setup` returns itself
/// and hand the final world to `finish`.
pub trait Scenario: Sized {
    /// The run's parameters.
    type Config;
    /// The run's deterministic result.
    type Output;
    /// Build and arm the world.
    fn setup(cfg: &Self::Config) -> (Simulation<World>, Self);
    /// Hard end of the run.
    fn deadline(&self) -> SimTime;
    /// Checked at every slice boundary: the run may stop before its
    /// deadline. Scenarios that always run to the deadline keep the
    /// default.
    fn settled(&self, _sim: &Simulation<World>) -> bool {
        false
    }
    /// Disarm controllers and assemble the result.
    fn finish(&self, sim: Simulation<World>, cfg: &Self::Config) -> Self::Output;
}

/// Run one scenario sequentially, the reference the sharded driver must
/// reproduce: advance in [`SLICE`] steps until `settled` holds at a
/// slice boundary or the deadline is reached, audit the world, and
/// finish it.
pub(crate) fn run<S: Scenario>(cfg: &S::Config) -> S::Output {
    let (mut sim, s) = S::setup(cfg);
    let deadline = s.deadline();
    loop {
        let next = sim.now() + SLICE;
        sim.run_until(next.min(deadline));
        if sim.now() >= deadline || s.settled(&sim) {
            break;
        }
    }
    audit_memory(sim.state());
    s.finish(sim, cfg)
}

/// Run several independent configs of one scenario as shards of one
/// parallel epoch harness (lookahead = [`SLICE`], so the `run_until`
/// targets coincide with [`run`]'s). Every replica's result is
/// byte-identical to [`run`] of its config at any `workers` count.
pub(crate) fn run_replicated<S: Scenario>(cfgs: &[S::Config], workers: usize) -> Vec<S::Output> {
    assert!(!cfgs.is_empty());
    let (worlds, states): (Vec<_>, Vec<S>) = cfgs.iter().map(S::setup).unzip();
    let deadline = states[0].deadline();
    assert!(
        states.iter().all(|s| s.deadline() == deadline),
        "replicated runs share one deadline (epoch targets must coincide)"
    );
    let mut sharded = ShardedRun::new(worlds, SLICE);
    sharded.run(workers, deadline, &mut NullCoordinator, |i, sim| {
        states[i].settled(sim)
    });
    sharded
        .into_worlds()
        .into_iter()
        .zip(&states)
        .zip(cfgs)
        .map(|((sim, s), cfg)| {
            audit_memory(sim.state());
            s.finish(sim, cfg)
        })
        .collect()
}

/// Release-build conservation audit at the end of every run
/// ([`run`], [`run_replicated`], `datacenter::run`):
///
/// - every memory image in the world (each VM's, and any a migration
///   still holds) passes [`agile_memory::VmMemory::check_invariants`],
///   which costs O(touched pages) per image;
/// - every live payload slot belongs to a segment the network still
///   holds, so no delivery or channel close leaked one;
/// - every VMD server's tier ledger and per-namespace counts match a
///   recount of its store ([`agile_vmd::VmdServer::ledger_consistent`]),
///   and the directory's placed counts match a recount of its tables;
/// - across the VMs' current images bound to one slot space (a host's
///   swap partition, or a VMD namespace), every referenced slot is
///   distinct and allocated in that space. Retained source images are
///   skipped (the destination image took their slots over), and so are
///   the images of retired clones, whose slot space was reset.
pub(crate) fn audit_memory(w: &World) {
    assert_eq!(
        w.payloads.len(),
        w.net.pending_segments(),
        "live payload slots != segments in the network"
    );
    for entry in &w.vmd.servers {
        assert!(
            entry.server.ledger_consistent(),
            "VMD server {:?}: ledger != store recount",
            entry.server.id()
        );
    }
    w.vmd.directory.check_invariants();
    for slot in &w.vms {
        slot.vm.memory().check_invariants();
    }
    for m in &w.migrations {
        for mem in m.dest_mem.iter().chain(&m.source_mem) {
            mem.check_invariants();
        }
    }
    // Slot spaces, keyed (0, host) for a swap partition and (1, ns) for
    // a namespace: each referenced slot maps to the VM referencing it.
    let mut owner: agile_sim_core::IdHashMap<(u8, u32, u32), usize> = Default::default();
    for (v, slot) in w.vms.iter().enumerate() {
        if w.clone.as_ref().is_some_and(|c| c.retired(v)) {
            continue;
        }
        let (space, key) = match &slot.swap {
            SwapDev::Ssd(s) => (w.hosts[s.host()].swap_slots.as_ref(), (0, s.host() as u32)),
            SwapDev::Vmd(d) => (
                w.vmd.slots.get(d.namespace().0 as usize),
                (1, d.namespace().0),
            ),
        };
        let space = space.expect("a swap device names its slot space");
        for s in slot.vm.memory().referenced_slots() {
            assert!(space.is_allocated(s), "VM {v}: slot {s} is free");
            if let Some(other) = owner.insert((key.0, key.1, s), v) {
                panic!("slot {s} of space {key:?} referenced by VMs {other} and {v}");
            }
        }
    }
}

/// The watermark scheduler has settled: past the load ramp, every
/// managed host at or below its high watermark, nothing queued or in
/// flight, and every migration finished.
pub(crate) fn sched_settled(
    sim: &Simulation<World>,
    managed: &[ManagedHost],
    ramp_end: SimTime,
) -> bool {
    let w = sim.state();
    let s = w.sched.as_ref().expect("scheduler armed");
    let below = managed
        .iter()
        .all(|mh| sched::host_aggregate(w, mh.host) <= mh.trigger.high_bytes);
    let quiescent =
        s.queue.is_empty() && s.inflight.is_empty() && w.migrations.iter().all(|m| m.finished);
    sim.now() > ramp_end && below && quiescent
}

/// FNV-1a over `u64` words: the order-sensitive digest the scenario
/// reports print.
pub(crate) fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |digest, v| {
        (digest ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Schedule piecewise-constant [`Signal`]s as discrete DES events.
///
/// Collects every change time of every binding's signal in
/// `[now, horizon)` and schedules exactly **one** closure per distinct
/// time; each firing applies every binding's value at that instant
/// through `apply`. This reproduces the event structure of the scenarios'
/// historical hand-written ramps exactly — same number of events, same
/// times, same values (see [`Signal::Ramp`] for the integer-exact step
/// arithmetic) — while the shapes themselves live in the signal DSL.
/// All-constant bindings schedule nothing.
///
/// Unlike the incremental scripted ramps this applies *absolute* values,
/// so a binding that skips a step (e.g. a VM mid-migration, filtered by
/// `apply`) lands on the correct value at the next change time instead
/// of staying permanently behind.
pub fn schedule_step_signals<K, F>(
    sim: &mut Simulation<World>,
    bindings: Vec<(K, Signal)>,
    horizon: SimTime,
    apply: F,
) where
    K: Copy + 'static,
    F: Fn(&mut Simulation<World>, K, f64) + Clone + 'static,
{
    let from = sim.now().as_nanos();
    let mut times: Vec<u64> = Vec::new();
    for (_, s) in &bindings {
        times.extend(s.change_times_ns(from, horizon.as_nanos()));
    }
    times.sort_unstable();
    times.dedup();
    let bindings = std::rc::Rc::new(bindings);
    for t in times {
        let bindings = std::rc::Rc::clone(&bindings);
        let apply = apply.clone();
        sim.schedule_at(SimTime::from_nanos(t), move |sim| {
            let now = sim.now();
            for &(k, ref s) in bindings.iter() {
                apply(sim, k, s.value_at(now));
            }
        });
    }
}

/// Change a VM's cgroup reservation at runtime (evictions are charged to
/// its swap device) and update the host ledger.
pub fn set_reservation(sim: &mut Simulation<World>, vm_idx: usize, bytes: u64) {
    let w = sim.state_mut();
    let host = w.vms[vm_idx].host;
    w.hosts[host].mem.set_reservation(vm_idx as u64, bytes);
    evict_with(sim, EvictTarget::Vm(vm_idx), |e| {
        e.mem.set_limit_bytes(bytes, e.slots, e.evs)
    });
}

/// What a VM currently *needs* resident: its active working set plus
/// guest-OS overhead plus slack. Used by the scripted reservation
/// adjustments that stand in for the paper's "we manually adjust the VMs'
/// memory reservation to reflect its working set size".
pub fn desired_reservation(world: &World, vm_idx: usize, slack: u64) -> u64 {
    let slot = &world.vms[vm_idx];
    let os = slot.vm.config().guest_os_bytes;
    let page = world.cfg.page_size;
    let ws = match &slot.workload {
        Some(WorkloadKind::Ycsb(y)) => {
            let index_bytes = slot
                .vm
                .layout()
                .region("redis-index")
                .map(|r| r.len as u64 * page)
                .unwrap_or(0);
            y.active_bytes() + index_bytes
        }
        Some(WorkloadKind::Oltp(_)) => {
            // The OLTP buffer pool wants the whole dataset + index + log.
            slot.vm
                .layout()
                .regions()
                .map(|(_, r)| r.len as u64 * page)
                .sum()
        }
        None => 0,
    };
    (ws + os + slack).min(slot.vm.config().mem_bytes)
}

/// Water-fill the host's VM-available memory across the VMs running on it
/// according to their desired reservations: everyone gets
/// `min(desired, fair share)`, with leftover from modest VMs flowing to
/// hungry ones.
pub fn rebalance_host(sim: &mut Simulation<World>, host: usize, slack: u64) {
    let mut wants: Vec<(usize, u64)> = {
        let w = sim.state();
        (0..w.vms.len())
            .filter(|&v| {
                w.vms[v].host == host
                    && w.vms[v].vm.state().can_execute()
                    && w.vms[v].migration.is_none()
            })
            .map(|v| (v, desired_reservation(w, v, slack)))
            .collect()
    };
    if wants.is_empty() {
        return;
    }
    let avail = sim.state().hosts[host].mem.available_for_vms();
    // Water-filling: satisfy the smallest demands first.
    wants.sort_by_key(|&(_, d)| d);
    let mut remaining = avail;
    let mut grants: Vec<(usize, u64)> = Vec::with_capacity(wants.len());
    for (i, &(vm, desired)) in wants.iter().enumerate() {
        let left = wants.len() - i;
        let fair = remaining / left as u64;
        let grant = desired.min(fair);
        remaining -= grant;
        grants.push((vm, grant));
    }
    for (vm, grant) in grants {
        set_reservation(sim, vm, grant);
    }
}

/// Set a YCSB workload's active query window at runtime (the ramp knob of
/// Fig. 4–6).
pub fn set_ycsb_active_bytes(sim: &mut Simulation<World>, vm_idx: usize, bytes: u64) {
    if let Some(WorkloadKind::Ycsb(y)) = sim.state_mut().vms[vm_idx].workload.as_mut() {
        y.set_active_bytes(bytes);
    } else {
        panic!("VM {vm_idx} does not run YCSB");
    }
}

#[cfg(test)]
mod tests {
    use super::tiers::{self, TiersConfig};

    #[test]
    #[should_panic(expected = "share one deadline")]
    fn replicated_runs_must_share_one_deadline() {
        let cfg = |deadline_secs| TiersConfig {
            scale: 64,
            deadline_secs,
            ..TiersConfig::default()
        };
        tiers::run_replicated(&[cfg(2000), cfg(1000)], 1);
    }
}
