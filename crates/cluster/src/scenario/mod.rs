//! Ready-made reproductions of the paper's experiments.
//!
//! | module | paper content |
//! |--------|---------------|
//! | [`ycsb`] | §V-A Figures 4–6 (YCSB timeline under pre/post/Agile) and the YCSB rows of Tables I–III |
//! | [`sysbench`] | §V-C Sysbench/MySQL rows of Tables I–III |
//! | [`single_vm`] | §V-B Figures 7–8 (single-VM sweep: migration time & data vs VM size, idle & busy) |
//! | [`wss`] | §V-D Figures 9–10 (transparent WSS tracking) |
//!
//! Every scenario takes a config with the paper's numbers as defaults plus
//! a `scale` divisor: `scale = 1` is paper scale (10 GB VMs); integration
//! tests use `scale = 32`+ so they run in milliseconds. Scaling divides
//! every byte quantity, which preserves the *ratios* that drive the
//! qualitative results.
//!
//! # Driving a scenario
//!
//! The cluster-scale scenarios ([`multihost`], [`pressure`], [`diurnal`],
//! [`estimators`], [`tiers`], [`scaleout`]) plug in by implementing the
//! crate-private `Scenario` trait: `setup` builds and arms the world
//! and returns what the scenario keeps from set-up, `settled` says when a
//! run may stop early, and `finish` turns the final world into the
//! result. Their `pub fn run` and `pub fn run_replicated` are one-line
//! calls into the two generic drivers here: the sequential reference
//! `run` and the sharded `run_replicated`, which runs many configs
//! as shards of one epoch harness. Both advance every world through the
//! same `SLICE`-spaced `run_until` targets, so a replica's result is
//! byte-identical to the sequential run of its config at any worker
//! count. [`datacenter`] keeps its own coordinated driver (one config,
//! many rack worlds, a real coordinator); [`chaos`] and [`single_vm`]
//! call `run_sliced` with their own predicate.

pub mod chaos;
pub mod datacenter;
pub mod diurnal;
pub mod estimators;
pub mod multihost;
pub mod pressure;
pub mod scaleout;
pub mod single_vm;
pub mod sysbench;
pub mod tiers;
pub mod wss;
pub mod ycsb;

use agile_sim_core::{SimDuration, SimTime, Simulation};
use agile_workload::Signal;

use crate::guest::{charge_evictions, EvictTarget};
use crate::sched::{self, ManagedHost};
use crate::shard::{NullCoordinator, ShardedRun};
use crate::world::{WorkloadKind, World};

/// The driver slice: the sequential drivers advance in steps of this
/// much simulated time, and it is also the sharded harness's lookahead,
/// so both drivers stop at the same `run_until` targets.
pub(crate) const SLICE: SimDuration = SimDuration::from_secs(5);

/// A scripted cluster scenario the generic drivers can run. `Self` is
/// what the scenario keeps from set-up for its predicate and report.
pub(crate) trait Scenario: Sized {
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

/// Advance `sim` in [`SLICE`] steps until `settled` holds at a slice
/// boundary or the deadline is reached, then audit its memory images.
pub(crate) fn run_sliced(
    sim: &mut Simulation<World>,
    deadline: SimTime,
    settled: impl Fn(&Simulation<World>) -> bool,
) {
    loop {
        let next = sim.now() + SLICE;
        sim.run_until(next.min(deadline));
        if sim.now() >= deadline || settled(sim) {
            break;
        }
    }
    audit_memory(sim.state());
}

/// Run one scenario sequentially: the reference the sharded driver must
/// reproduce.
pub(crate) fn run<S: Scenario>(cfg: &S::Config) -> S::Output {
    let (mut sim, s) = S::setup(cfg);
    run_sliced(&mut sim, s.deadline(), |sim| s.settled(sim));
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
/// ([`run_sliced`], [`run_replicated`], `datacenter::run`):
///
/// - every memory image in the world (each VM's, and any a migration
///   still holds) passes [`agile_memory::VmMemory::check_invariants`],
///   which costs O(touched pages) per image;
/// - every live payload slot belongs to a segment the network still
///   holds, so no delivery or channel close leaked one.
pub(crate) fn audit_memory(w: &World) {
    assert_eq!(
        w.payloads.len(),
        w.net.pending_segments(),
        "live payload slots != segments in the network"
    );
    for slot in &w.vms {
        slot.vm.memory().check_invariants();
    }
    for m in &w.migrations {
        for mem in m.dest_mem.iter().chain(&m.source_mem) {
            mem.check_invariants();
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
    let mut buf = std::mem::take(&mut sim.state_mut().evict_buf);
    buf.clear();
    {
        let w = sim.state_mut();
        let slot = &mut w.vms[vm_idx];
        slot.vm.memory_mut().set_limit_bytes(bytes, &mut buf);
        let host = slot.host;
        w.hosts[host].mem.set_reservation(vm_idx as u64, bytes);
    }
    charge_evictions(sim, EvictTarget::Vm(vm_idx), &buf);
    buf.clear();
    sim.state_mut().evict_buf = buf;
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

/// Poll every second until migration `mig` finishes, then re-balance
/// the source host. Each poll that finds the migration still running
/// re-arms the next as its last action.
pub(crate) fn watch_completion(
    sim: &mut Simulation<World>,
    mig: usize,
    src_host: usize,
    slack: u64,
) {
    sim.schedule_in(SimDuration::from_secs(1), move |sim| {
        if sim.state().migrations[mig].finished {
            rebalance_host(sim, src_host, slack);
        } else {
            watch_completion(sim, mig, src_host, slack);
        }
    });
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
