//! Network driver: the glue between the sans-scheduler fluid network and
//! the event queue.
//!
//! After any network mutation the driver re-arms a poll event at
//! [`agile_sim_core::Network::next_event_time`], the earliest delivery; the
//! poll collects due deliveries and dispatches each to the subsystem its
//! payload belongs to. Exactly one poll event is ever pending: when a
//! mutation brings the next delivery earlier, [`touch_net`] cancels the
//! armed event and schedules a new one. A mutation that pushes the next
//! delivery later (a rate drop) leaves the armed event in place, as does a
//! close that drops the segment it was armed for; it fires, finds nothing
//! due and re-arms, which is what `idle_polls` counts.
//!
//! The driver state is per-world, not global: in a sharded run every shard
//! owns its own [`NetDriver`], so an idle shard arms no poll events and a
//! busy neighbor cannot wake it.

use agile_sim_core::{Delivery, FastEvent, SimTime, Simulation};

use crate::world::{NetPayload, World};
use crate::{guest, migrate, vmdio};

/// Per-world network-poll bookkeeping plus poll counters.
#[derive(Debug, Default)]
pub struct NetDriver {
    /// The single armed poll event, if any.
    pub armed: Option<(SimTime, agile_sim_core::EventId)>,
    /// Poll events executed on this world.
    pub polls: u64,
    /// Polls that drained zero deliveries (the delivery they were armed
    /// for was delayed by a rate drop or dropped by a close).
    pub idle_polls: u64,
    /// Delivery buffer reused by every poll; taken out while its
    /// deliveries are dispatched.
    deliveries: Vec<Delivery>,
}

/// Re-arm the poll event if the network's next event precedes the armed
/// one; the superseded event is cancelled so exactly one poll event is
/// ever pending. Call after every send/open/close.
pub fn touch_net(sim: &mut Simulation<World>) {
    let Some(next) = sim.state().net.next_event_time() else {
        return;
    };
    if let Some((t, _)) = sim.state().netdrv.armed {
        if t <= next {
            return;
        }
    }
    if let Some((_, old)) = sim.state_mut().netdrv.armed.take() {
        sim.cancel(old);
    }
    let id = sim.schedule_fast(next, FastEvent::FlowDue { token: 0 });
    sim.state_mut().netdrv.armed = Some((next, id));
}

/// The poll event: drain due deliveries, dispatch, re-arm.
pub(crate) fn poll_net(sim: &mut Simulation<World>) {
    let now = sim.now();
    let world = sim.state_mut();
    world.netdrv.armed = None;
    let mut deliveries = std::mem::take(&mut world.netdrv.deliveries);
    world.net.poll(now, &mut deliveries);
    world.netdrv.polls += 1;
    if deliveries.is_empty() {
        world.netdrv.idle_polls += 1;
    }
    for d in deliveries.drain(..) {
        dispatch(sim, d);
    }
    sim.state_mut().netdrv.deliveries = deliveries;
    touch_net(sim);
}

/// Route one delivery to its handler.
fn dispatch(sim: &mut Simulation<World>, d: Delivery) {
    let payload = sim
        .state_mut()
        .payloads
        .take(d.tag as u32)
        .expect("delivery with unknown tag");
    match payload {
        NetPayload::Request { vm, op, counts } => guest::on_request(sim, vm, op, counts),
        NetPayload::Response { vm, counts } => guest::on_response(sim, vm, counts),
        NetPayload::MigChunk {
            mig,
            chunk,
            priority,
        } => migrate::on_chunk_delivered(sim, mig, chunk, priority),
        NetPayload::MigHandoff { mig } => migrate::on_handoff_delivered(sim, mig),
        NetPayload::DemandReq { mig, pfn } => migrate::on_demand_request(sim, mig, pfn),
        NetPayload::VmdToServer {
            server,
            client,
            msg,
        } => vmdio::on_server_recv(sim, server, client, msg),
        NetPayload::VmdToClient {
            client,
            server,
            msg,
        } => vmdio::on_client_recv(sim, client, server, msg),
    }
}
