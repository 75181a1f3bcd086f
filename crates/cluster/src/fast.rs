//! Typed fast-event dispatch.
//!
//! The executor's hottest timers — network polls, swap completions, op
//! stepping, client think-time, OS background bursts, WSS sampling — fire
//! millions of times per scenario. Scheduling each as a boxed closure costs
//! a heap allocation per event; instead they travel as POD
//! [`FastEvent`]s through the slab queue and land here. The dispatcher is
//! installed once at world construction ([`crate::build::ClusterBuilder::build`]).
//!
//! Only no-capture or small-integer-capture timers are converted so far.
//! Boxed closures still carry the VMD server's receive and reply steps
//! (`vmdio::on_server_recv`), the scenario scripts and a few rare timers.
//! They are not a cold path: on a 1,280-VM `datacenter` world, 94 % of all
//! events are such closures, nearly all of them VMD messages. They are
//! the next candidates for typed events, with the in-flight message held
//! in a [`crate::Slab`] that the event's payload indexes.

use agile_sim_core::{FastEvent, Simulation};

use crate::world::World;
use crate::{chaosctl, clonectl, guest, netdrv, poolctl, sched, vmdio, wlctl, wssctl};

/// `Timer.kind`: advance op `a` (generation `b`) — a parked op waking.
pub const K_STEP_OP: u32 = 0;
/// `Timer.kind`: finish the CPU burst of op `a` (generation `b`).
pub const K_FINISH_OP: u32 = 1;
/// `Timer.kind`: client thread of VM `a` sends its next request.
pub const K_CLIENT_SEND: u32 = 2;
/// `Timer.kind`: OS background burst for VM `a` (chain generation `b`).
pub const K_OS_BG: u32 = 3;
/// `Timer.kind`: WSS sampling tick for VM `a`.
pub const K_WSS_SAMPLE: u32 = 4;
/// `Timer.kind`: fire fault `a` of the installed chaos schedule.
pub const K_CHAOS_FAULT: u32 = 5;
/// `Timer.kind`: one paced background re-replication tick.
pub const K_REPAIR_PUMP: u32 = 6;
/// `Timer.kind`: one cluster-scheduler check over every managed host.
pub const K_SCHED_TICK: u32 = 7;
/// `Timer.kind`: one elastic-pool-manager tick (leases, reclaim, rebalance).
pub const K_POOL_TICK: u32 = 8;
/// `Timer.kind`: one temporal-workload-driver tick (signal polling).
pub const K_WORKLOAD_TICK: u32 = 9;
/// `Timer.kind`: one elastic-clone-controller tick (seal / spawn / reap).
pub const K_CLONE_TICK: u32 = 10;
/// `Timer.kind`: one paced hydration pump step for clone `a`.
pub const K_CLONE_HYDRATE: u32 = 11;

/// Route one fast event to its handler. Installed via
/// [`Simulation::set_fast_handler`].
pub fn dispatch(sim: &mut Simulation<World>, ev: FastEvent) {
    match ev {
        FastEvent::FlowDue { .. } => netdrv::poll_net(sim),
        FastEvent::DeviceOp { req } => vmdio::resolve_swap_completion(sim, req),
        FastEvent::Timer { kind, a, b } => match kind {
            K_STEP_OP => guest::step_op(sim, a as usize, b as u32),
            K_FINISH_OP => guest::finish_op(sim, a as usize, b as u32),
            K_CLIENT_SEND => guest::client_send_next(sim, a as usize),
            K_OS_BG => guest::os_bg_fire(sim, a as usize, b as u32),
            K_WSS_SAMPLE => wssctl::sample(sim, a as usize),
            K_CHAOS_FAULT => chaosctl::fire(sim, a as usize),
            K_REPAIR_PUMP => chaosctl::repair_tick(sim),
            K_SCHED_TICK => sched::tick(sim),
            K_POOL_TICK => poolctl::tick(sim),
            K_WORKLOAD_TICK => wlctl::tick(sim),
            K_CLONE_TICK => clonectl::tick(sim),
            K_CLONE_HYDRATE => clonectl::hydrate_tick(sim, a as usize),
            other => panic!("unknown fast timer kind {other}"),
        },
    }
}
